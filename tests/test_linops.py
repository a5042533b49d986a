import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sparseipm.linops import (BLUR_PARAMETERS, KRONECKER_MAX, BccbOperator, BlurKernel,
                              make_difference_operator, make_tv_operator)


def adjoint_probe(op, rng, trials=5, tol=1e-10):
    for _ in range(trials):
        v = rng.standard_normal(op.cols)
        u = rng.standard_normal(op.rows)
        lhs = float(u @ op.apply(v))
        rhs = float(v @ op.apply_transpose(u))
        assert abs(lhs - rhs) <= tol * (1 + abs(lhs))


def chain_difference(q):
    return sp.diags([-1.0, 1.0], [0, 1], shape=(q - 1, q), format="csr")


def kron_tv(grid):
    """The TV operator assembled from Kronecker products of chain
    differences and identities: the reference of the direct build."""
    blocks = [sp.kron(sp.kron(sp.eye(int(np.prod(grid[:axis], dtype=int))),
                              chain_difference(q)),
                      sp.eye(int(np.prod(grid[axis + 1:], dtype=int))))
              for axis, q in enumerate(grid)]
    return sp.vstack(blocks, format="csr")


def assert_same_arrays(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestDifferenceOperator:
    def test_small_dense(self):
        # m=3 periods, s=2 assets: rows are w_{j+1} - w_j per asset
        L = make_difference_operator(3, 2).matrix.toarray()
        expected = np.array([
            [-1, 0, 1, 0, 0, 0],
            [0, -1, 0, 1, 0, 0],
            [0, 0, -1, 0, 1, 0],
            [0, 0, 0, -1, 0, 1],
        ], dtype=float)
        np.testing.assert_array_equal(L, expected)

    def test_shape(self):
        op = make_difference_operator(5, 3)
        assert op.matrix.shape == (12, 15)

    def test_constant_in_kernel(self):
        op = make_difference_operator(4, 3)
        w = np.tile([1.0, 2.0, 3.0], 4)
        np.testing.assert_allclose(op.apply(w), 0.0, atol=1e-14)

    def test_rejects_single_period(self):
        with pytest.raises(ValueError):
            make_difference_operator(1, 3)

    def test_adjoint(self):
        adjoint_probe(make_difference_operator(4, 5), np.random.default_rng(0))

    @pytest.mark.parametrize("periods, assets", [(40, 12), (5, 1), (2, 3)])
    def test_arrays_match_kronecker_construction(self, periods, assets):
        # (40, 12) is the portfolio-direct benchmark's operator
        assert_same_arrays(make_difference_operator(periods, assets).matrix,
                           sp.kron(chain_difference(periods), sp.eye(assets), format="csr"))


class TestTvOperator:
    @pytest.mark.parametrize("grid,rows", [
        ((5,), 4),
        ((3, 4), 2 * 4 + 3 * 3),
        ((2, 3, 4), 1 * 12 + 2 * 8 + 3 * 6),
    ])
    def test_row_counts(self, grid, rows):
        op = make_tv_operator(grid)
        assert op.matrix.shape == (rows, int(np.prod(grid)))

    def test_2d_matches_manual(self):
        op = make_tv_operator((3, 3))
        img = np.arange(9, dtype=float).reshape(3, 3)
        out = op.apply(img.ravel())
        manual = np.concatenate([np.diff(img, axis=0).ravel(),
                                 np.diff(img, axis=1).ravel()])
        # same multiset of differences regardless of row ordering
        np.testing.assert_allclose(np.sort(out), np.sort(manual))

    def test_constant_image_zero(self):
        op = make_tv_operator((4, 4))
        np.testing.assert_allclose(op.apply(np.full(16, 3.7)), 0.0, atol=1e-14)

    def test_adjoint(self):
        adjoint_probe(make_tv_operator((3, 4, 2)), np.random.default_rng(1))

    def test_rejects_degenerate_axis(self):
        with pytest.raises(ValueError):
            make_tv_operator((1, 5))

    @pytest.mark.parametrize("grid", [(2,), (5,), (2, 7), (6, 9), (2, 2, 2), (3, 4, 5),
                                      (2, 3, 4)], ids=str)
    def test_values_match_kronecker_construction(self, grid):
        L = make_tv_operator(grid).matrix
        np.testing.assert_array_equal(L.toarray(), kron_tv(grid).toarray())
        assert np.all(L.data != 0)  # no explicit zeros stored

    @pytest.mark.parametrize("grid", [(32, 32), (8, 8, 8)], ids=str)
    def test_arrays_match_kronecker_construction(self, grid):
        # the poisson-minres and fmri-pcg benchmark grids
        assert_same_arrays(make_tv_operator(grid).matrix, kron_tv(grid))


class TestBlurKernels:
    @pytest.mark.parametrize("kernel", [
        BlurKernel("gaussian", (16, 16), {"sigma": 1.5}),
        BlurKernel("motion", (16, 16), {"length": 5, "angle": 30.0}),
        BlurKernel("out-of-focus", (16, 16), {"radius": 2.5}),
        BlurKernel("identity", (16, 16)),
    ])
    def test_normalized_nonnegative(self, kernel):
        psf = kernel.psf()
        assert psf.shape == (16, 16)
        assert np.all(psf >= -1e-15)
        assert abs(psf.sum() - 1.0) <= 1e-12

    def test_identity_is_delta(self):
        psf = BlurKernel("identity", (8, 8)).psf()
        assert psf[0, 0] == 1.0
        assert psf.sum() == 1.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            BlurKernel("box", (8, 8))

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            BlurKernel("gaussian", (8, 8), {"sigma": -1}).psf()

    @pytest.mark.parametrize("family, name, value", [
        ("gaussian", "sigma", 0.0), ("gaussian", "sigma", np.inf), ("gaussian", "sigma", np.nan),
        ("out-of-focus", "radius", -1.0), ("out-of-focus", "radius", np.inf),
        ("out-of-focus", "radius", np.nan), ("motion", "length", 0.5),
        ("motion", "length", np.inf), ("motion", "length", np.nan),
        ("motion", "angle", np.inf), ("motion", "angle", -np.inf), ("motion", "angle", np.nan)])
    def test_rejects_a_non_finite_or_out_of_range_parameter(self, family, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BlurKernel(family, (8, 8), {name: value})

    def test_accepts_a_parameter_at_its_floor(self):
        assert BlurKernel("motion", (8, 8), {"length": 1, "angle": -400.0}).psf().sum() \
            == pytest.approx(1.0)

    def test_defaults_fill_the_family_parameters(self):
        np.testing.assert_array_equal(BlurKernel("gaussian", (8, 8)).psf(),
                                      BlurKernel("gaussian", (8, 8), {"sigma": 1.0}).psf())
        assert BlurKernel("motion", (8, 8), {"length": 3.0}).parameters == {
            "length": 3.0, "angle": 0.0}
        assert BlurKernel("identity", (8, 8)).parameters == {}

    @pytest.mark.parametrize("family, params", [
        ("motion", {"sigma": 1.0}), ("gaussian", {"radius": 2.0}),
        ("out-of-focus", {"radius": 2.0, "angle": 5.0}), ("identity", {"radius": 2.0})])
    def test_rejects_a_parameter_of_another_family(self, family, params):
        with pytest.raises(ValueError, match="blur takes"):
            BlurKernel(family, (8, 8), params)

    @pytest.mark.parametrize("grid", [(4, 4), (3, 7), (16, 16)])
    @pytest.mark.parametrize("family, params", [
        ("gaussian", {"sigma": 1.5}), ("motion", {"length": 7.0, "angle": 30.0}),
        ("motion", {"length": 2.5, "angle": -120.0}), ("out-of-focus", {"radius": 3.0})])
    def test_psf_matches_the_loop_reference(self, family, params, grid):
        # on the two small grids the kernel is larger than the grid and wraps
        # onto itself, its entries summed into the pixels they share
        kernel = BlurKernel(family, grid, params)
        small = kernel._small_psf()
        assert any(k > n for k, n in zip(small.shape, grid)) == (grid != (16, 16))
        expected = np.zeros(grid)
        c1, c2 = small.shape[0] // 2, small.shape[1] // 2
        for i in range(small.shape[0]):
            for j in range(small.shape[1]):
                expected[(i - c1) % grid[0], (j - c2) % grid[1]] += small[i, j]
        np.testing.assert_array_equal(kernel.psf(), expected)

    @pytest.mark.parametrize("length, angle", [(1.0, 0.0), (2.5, -120.0), (7.0, 30.0),
                                               (5.0, 90.0)])
    def test_motion_deposit_matches_the_loop_reference(self, length, angle):
        """Each sample of the segment deposits its four bilinear weights in
        turn, sample after sample."""
        small = BlurKernel("motion", (16, 16), {"length": length, "angle": angle})._small_psf()
        r = int(np.ceil(length / 2)) + 1
        expected = np.zeros((2 * r + 1, 2 * r + 1))
        a = np.deg2rad(angle)
        for t in np.linspace(-(length - 1) / 2.0, (length - 1) / 2.0,
                             max(2, int(np.ceil(length * 32)))):
            yy, xx = r + t * np.sin(a), r + t * np.cos(a)
            i0, j0 = int(np.floor(yy)), int(np.floor(xx))
            fy, fx = yy - i0, xx - j0
            expected[i0, j0] += (1 - fy) * (1 - fx)
            expected[i0 + 1, j0] += fy * (1 - fx)
            expected[i0, j0 + 1] += (1 - fy) * fx
            expected[i0 + 1, j0 + 1] += fy * fx
        np.testing.assert_array_equal(small, expected / expected.sum())


def dense_circulant(psf):
    """The BCCB matrix of ``psf``: column j is the PSF cyclically shifted to
    pixel j."""
    n1, n2 = psf.shape
    dense = np.empty((n1 * n2, n1 * n2))
    for i in range(n1):
        for j in range(n2):
            dense[:, i * n2 + j] = np.roll(np.roll(psf, i, axis=0), j, axis=1).ravel()
    return dense


def shifted_sums(psf, v, sign):
    """Periodic convolution of the image ``v`` with ``psf`` (sign +1), or its
    transpose (sign -1), as a sum of shifted copies of the image."""
    img = v.reshape(psf.shape)
    out = np.zeros(psf.shape)
    for i, j in zip(*np.nonzero(psf)):
        out += psf[i, j] * np.roll(img, (sign * i, sign * j), axis=(0, 1))
    return out.ravel()


def reference_blur(psf, v, sign):
    if psf.size <= 1600:
        dense = dense_circulant(psf)
        return (dense if sign > 0 else dense.T) @ v
    return shifted_sums(psf, v, sign)


# both sides of the rule: (kernel, whether the operator takes the Kronecker form)
FORMS = [
    (BlurKernel("gaussian", (32, 32), {"sigma": 1.0}), True),
    (BlurKernel("gaussian", (160, 160), {"sigma": 1.0}), False),
    (BlurKernel("out-of-focus", (64, 64), {"radius": 2.0}), False),
    (BlurKernel("gaussian", (4, 4), {"sigma": 1.0}), True),  # grid smaller than the 9x9 PSF
    (BlurKernel("gaussian", (6, 9), {"sigma": 2.0}), True),
    (BlurKernel("motion", (16, 40), {"length": 5.0, "angle": 30.0}), True),
    (BlurKernel("out-of-focus", (48, 72), {"radius": 2.0}), False),
]


class TestBccbOperator:
    @pytest.mark.parametrize("kernel, kronecker", FORMS,
                             ids=lambda k: f"{k.family}-{k.grid}" if isinstance(k, BlurKernel)
                             else ("kron" if k else "fft"))
    def test_both_forms_match_a_reference(self, kernel, kronecker):
        """Each form applies its PSF."""
        rng = np.random.default_rng(6)
        op = BccbOperator(kernel)
        assert (op._factors is not None) == kronecker
        for sign, apply in ((1, op.apply), (-1, op.apply_transpose)):
            v = rng.standard_normal(op.cols)
            expected = reference_blur(kernel.psf(), v, sign)
            np.testing.assert_allclose(apply(v), expected, rtol=1e-12,
                                       atol=1e-13 * np.abs(expected).max())
        adjoint_probe(op, rng)

    @pytest.mark.parametrize("kernel", [
        BlurKernel("gaussian", (16, 16), {"sigma": 2.0}),
        BlurKernel("motion", (16, 16), {"length": 7, "angle": 45.0}),
        BlurKernel("out-of-focus", (16, 16), {"radius": 3.0}),
        BlurKernel("gaussian", (6, 9), {"sigma": 2.0}),
        BlurKernel("motion", (7, 10), {"length": 7, "angle": 45.0}),
    ])
    def test_matches_dense_circulant(self, kernel):
        op = BccbOperator(kernel)
        n1, n2 = kernel.grid
        dense = dense_circulant(kernel.psf())
        rng = np.random.default_rng(2)
        v = rng.standard_normal(n1 * n2)
        np.testing.assert_allclose(op.apply(v), dense @ v,
                                   rtol=1e-10, atol=1e-10)
        u = rng.standard_normal(n1 * n2)
        np.testing.assert_allclose(op.apply_transpose(u), dense.T @ u,
                                   rtol=1e-10, atol=1e-10)

    def test_adjoint(self):
        op = BccbOperator(BlurKernel("gaussian", (8, 8), {"sigma": 1.0}))
        adjoint_probe(op, np.random.default_rng(3))

    def test_preserves_total_mass(self):
        op = BccbOperator(BlurKernel("gaussian", (8, 8), {"sigma": 1.0}))
        v = np.random.default_rng(4).uniform(size=64)
        assert abs(op.apply(v).sum() - v.sum()) <= 1e-10

    @pytest.mark.parametrize("family", sorted(BLUR_PARAMETERS))
    @pytest.mark.parametrize("grid, kronecker", [((12, 16), True),
                                                 ((8, KRONECKER_MAX + 8), False)])
    def test_couplings_match_the_dense_weighted_hessian(self, family, grid, kronecker):
        """Entry a at pixel j of ``couplings`` is H[j, j + e_a] of
        H = D' diag(u) D, the neighbour taken periodically, on either form of
        the operator, whose transpose gives H's row sums."""
        op = BccbOperator(BlurKernel(family, grid))
        assert (op._factors is not None) == kronecker
        dense = dense_circulant(op.psf)
        u = np.random.default_rng(7).uniform(0.1, 3.0, op.cols)
        H = dense.T @ (u[:, None] * dense)
        pixel = np.arange(op.cols).reshape(grid)
        got = op.couplings(u)
        assert got.shape == (3, *grid)
        for axis in (0, 1):
            neighbour = np.roll(pixel, -1, axis=axis)
            np.testing.assert_allclose(got[axis].ravel(),
                                       H[pixel.ravel(), neighbour.ravel()],
                                       rtol=0, atol=1e-14 * np.abs(H).max())
        np.testing.assert_allclose(op.apply_transpose(u), H.sum(axis=1),
                                   rtol=1e-13, atol=1e-14 * np.abs(H).max())

    @pytest.mark.parametrize("family", sorted(BLUR_PARAMETERS))
    def test_couplings_zero_shift_plane_is_the_weighted_hessian_diagonal(self, family):
        """Plane 2 of ``couplings`` at pixel j is H[j, j] of
        H = K' diag(w) K, the correlation of w with psf^2."""
        grid = (12, 16)
        op = BccbOperator(BlurKernel(family, grid))
        K = dense_circulant(op.psf)
        w = 10.0 ** np.random.default_rng(8).uniform(-2.0, 2.0, op.cols)
        H = K.T @ (w[:, None] * K)
        np.testing.assert_allclose(op.couplings(w)[2].ravel(), np.diag(H),
                                   rtol=1e-13, atol=1e-14 * np.abs(H).max())

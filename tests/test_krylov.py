import ctypes

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sparseipm.baselines import ASB_LAMBDAS, budget_constraints
from sparseipm.harness import gen_portfolio
from sparseipm.krylov import BorderedBand, CholeskyFactor, minres, pcg
from sparseipm.linops import make_tv_operator
from sparseipm.precond import identity_preconditioner


def random_spd(n, rng, cond=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return Q @ np.diag(eigs) @ Q.T


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def test_large_blocks_stay_mapped_after_a_free():
    """A freed 16 MiB block must not move the next one onto the heap, where
    pages touched by earlier blocks would make peak memory vary by run."""
    try:
        mallinfo2 = ctypes.CDLL("libc.so.6").mallinfo2
    except (OSError, AttributeError):
        pytest.skip("needs glibc 2.33 or later")
    mallinfo2.restype = _MallInfo2
    np.ones(2 << 20)  # 16 MiB, freed at once
    before = mallinfo2().hblkhd
    block = np.ones(2 << 20)
    assert mallinfo2().hblkhd - before >= block.nbytes


class TestCholesky:
    def test_sparse_solve(self):
        rng = np.random.default_rng(1)
        n = 30
        T = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n)).tocsc()
        b = rng.standard_normal(n)
        x = CholeskyFactor(T).solve(b)
        np.testing.assert_allclose(T @ x, b, atol=1e-10)

    def test_indefinite_raises_with_pivot(self):
        M = sp.diags([1.0, -1.0, 2.0]).tocsc()
        with pytest.raises(np.linalg.LinAlgError):
            CholeskyFactor(M)

    def test_sparse_indefinite_raises(self):
        M = sp.diags([1.0, 1.0, -3.0]).tocsc()
        with pytest.raises(np.linalg.LinAlgError):
            CholeskyFactor(M)

    def test_factor_reuse(self):
        rng = np.random.default_rng(2)
        M = sp.csc_matrix(random_spd(8, rng))
        factor = CholeskyFactor(M)
        for _ in range(3):
            b = rng.standard_normal(8)
            np.testing.assert_allclose(M @ factor.solve(b), b, atol=1e-9)

    def test_asb_matrix_matches_a_dense_solve(self):
        """ASB's own H, built as ``asb_chol_solve`` builds it, whose reverse
        Cuthill-McKee order is not the identity: the solve maps the rhs into
        band order and the solution back."""
        inst = gen_portfolio(40, 12, 3)
        l1, l2, l3 = ASB_LAMBDAS
        L = inst.difference.matrix
        Abar, _ = budget_constraints(inst)
        n = L.shape[1]
        H = (inst.block_covariance() + l1 * (Abar.T @ Abar) + l2 * (L.T @ L)
             + l3 * sp.eye(n)).tocsc()
        factor = CholeskyFactor(H)
        assert not np.array_equal(factor.band.order, np.arange(n))
        b = np.random.default_rng(3).standard_normal(n)
        np.testing.assert_allclose(factor.solve(b), np.linalg.solve(H.toarray(), b),
                                   rtol=1e-10, atol=1e-10)


class TestPcg:
    def test_solves_spd(self):
        rng = np.random.default_rng(3)
        M = random_spd(25, rng, cond=100.0)
        b = rng.standard_normal(25)
        out = pcg(M.__matmul__, b, tol=1e-10, maxit=500)
        assert out.converged
        np.testing.assert_allclose(out.solution, np.linalg.solve(M, b),
                                   rtol=1e-6)

    def test_preconditioner_reduces_iterations(self):
        rng = np.random.default_rng(4)
        d = np.geomspace(1.0, 1e6, 40)
        M = np.diag(d)
        b = rng.standard_normal(40)
        plain = pcg(M.__matmul__, b, tol=1e-8, maxit=10000)
        precond = pcg(M.__matmul__, b, precond=lambda v: v / d, tol=1e-8,
                      maxit=10000)
        assert precond.iterations < plain.iterations
        assert precond.iterations <= 3  # exact preconditioner

    def test_zero_rhs(self):
        out = pcg(np.eye(4).__matmul__, np.zeros(4))
        assert out.converged and out.iterations == 0

    def test_indefinite_breakdown(self):
        M = np.diag([1.0, -1.0])
        out = pcg(M.__matmul__, np.array([0.0, 1.0]), maxit=10)
        assert not out.converged
        assert out.breakdown_reason == "indefinite-matrix"

    def test_matvec_callable(self):
        rng = np.random.default_rng(5)
        M = random_spd(10, rng)
        b = rng.standard_normal(10)
        out = pcg(lambda v: M @ v, b, tol=1e-10, maxit=200)
        assert out.converged

    def test_residual_history_monotone_tail(self):
        rng = np.random.default_rng(6)
        M = random_spd(15, rng)
        out = pcg(M.__matmul__, rng.standard_normal(15), tol=1e-12, maxit=300)
        assert out.converged
        assert out.final_relative_residual <= 1e-12


class TestMinres:
    def test_solves_indefinite_saddle(self):
        rng = np.random.default_rng(7)
        H = random_spd(10, rng)
        A = rng.standard_normal((4, 10))
        K = np.block([[-H, A.T], [A, 1e-2 * np.eye(4)]])
        b = rng.standard_normal(14)
        out = minres(K.__matmul__, b, tol=1e-10, maxit=200)
        assert out.converged
        np.testing.assert_allclose(K @ out.solution, b, atol=1e-7)

    def test_preconditioned(self):
        # block-diagonal preconditioning in split form: MINRES on
        # L^-1 K L^-T with P = LL' runs the preconditioned iterates
        rng = np.random.default_rng(8)
        H = np.diag(rng.uniform(1.0, 50.0, size=12))
        A = rng.standard_normal((5, 12))
        delta = 0.1
        K = np.block([[-H, A.T], [A, delta * np.eye(5)]])
        S = A @ np.linalg.solve(H, A.T) + delta * np.eye(5)
        P = np.block([[H, np.zeros((12, 5))], [np.zeros((5, 12)), S]])
        Pinv = np.linalg.inv(P)
        b = rng.standard_normal(17)
        L = np.linalg.cholesky(P)
        T = np.linalg.solve(L, np.linalg.solve(L, K).T)
        out = minres(T.__matmul__, np.linalg.solve(L, b), tol=1e-10, maxit=100)
        # block-diagonal preconditioning clusters the spectrum: few iterations
        assert out.converged
        assert out.iterations < 17  # well under the dimension
        x, it, _ = reference_minres(K, b, precond=lambda v: Pinv @ v, tol=1e-10, maxit=100)
        np.testing.assert_allclose(np.linalg.solve(L.T, out.solution), x, rtol=1e-9,
                                   atol=1e-9)
        assert abs(out.iterations - it) <= 1

    def test_agrees_with_dense_solve(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((9, 9))
        M = M + M.T
        b = rng.standard_normal(9)
        out = minres(M.__matmul__, b, tol=1e-12, maxit=500)
        np.testing.assert_allclose(out.solution, np.linalg.solve(M, b),
                                   rtol=1e-6, atol=1e-8)

    def test_zero_rhs(self):
        out = minres(np.eye(3).__matmul__, np.zeros(3))
        assert out.converged and out.iterations == 0

    def test_maxit_respected(self):
        rng = np.random.default_rng(10)
        M = random_spd(50, rng, cond=1e8)
        out = minres(M.__matmul__, rng.standard_normal(50), tol=1e-16, maxit=5)
        assert out.iterations == 5
        assert not out.converged


def _capped_system(solver, rng):
    if solver is pcg:
        return random_spd(30, rng, cond=1e4)
    H = random_spd(20, rng, cond=1e3)
    A = rng.standard_normal((10, 20))
    return np.block([[-H, A.T], [A, 1e-2 * np.eye(10)]])


@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("solver", [pcg, minres])
def test_capped_run_reports_its_final_residual(solver, preconditioned):
    rng = np.random.default_rng(11)
    K = _capped_system(solver, rng)
    b = rng.standard_normal(K.shape[0])
    d = np.abs(np.diag(K)) + 1.0 if preconditioned else np.ones(K.shape[0])
    if solver is pcg:
        out = solver(K.__matmul__, b, precond=(lambda v: v / d) if preconditioned else None,
                     tol=1e-14, maxit=4)
        x = out.solution
    else:  # MINRES takes P = diag(d) in split form, D^-1/2 K D^-1/2
        s = 1.0 / np.sqrt(d)
        out = solver((s[:, None] * K * s).__matmul__, s * b, tol=1e-14, maxit=4)
        x = s * out.solution
    assert out.iterations == 4 and not out.converged
    # the stopping ratio sqrt(r'P^-1 r) / sqrt(b'P^-1 b), from the true residual
    r = b - K @ x
    expected = np.sqrt(r @ (r / d)) / np.sqrt(b @ (b / d))
    assert out.final_relative_residual == pytest.approx(expected, rel=1e-6)


def reference_minres(M, rhs, precond=None, tol=1e-8, maxit=100):
    """The out-of-place MINRES loop that ``krylov.minres`` updates in place;
    every vector update allocates, in the same arithmetic order."""
    matvec = M if callable(M) else (lambda v: M @ v)
    pinv = precond if precond is not None else (lambda v: v)
    b = np.asarray(rhs, dtype=float)
    n = b.size
    x = np.zeros(n)
    r1 = b.copy()
    y = pinv(r1)
    beta1 = np.sqrt(float(r1 @ y))
    oldb, beta = 0.0, beta1
    dbar, epsln, phibar = 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1.copy()
    rel = 1.0
    it = 0
    for it in range(1, maxit + 1):
        v = y / beta
        y = matvec(v)
        if it >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = pinv(r2)
        oldb = beta
        beta = np.sqrt(float(r2 @ y))
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        rel = phibar / beta1
        if rel <= tol:
            break
    return x, it, rel


def _saddle(rng, n=30, m=12):
    H = random_spd(n, rng, cond=1e3)
    A = rng.standard_normal((m, n))
    return np.block([[-H, A.T], [A, 1e-2 * np.eye(m)]])


@pytest.mark.parametrize("case", ["diagonal-precond", "identity-precond", "capped"])
def test_minres_is_bit_identical_to_reference_loop(case):
    """The in-place loop against the out-of-place one on one operator: the
    saddle matrix K, or with "diagonal-precond" and "capped" its split form
    D^-1/2 K D^-1/2 under P = D. The split run matches the reference loop
    under the preconditioner D^-1, and MINRES under the identity
    preconditioner is MINRES with none."""
    rng = np.random.default_rng(12)
    K = _saddle(rng)
    b = rng.standard_normal(K.shape[0])
    d = np.abs(np.diag(K)) + 0.5
    s = np.ones(d.size) if case == "identity-precond" else 1.0 / np.sqrt(d)
    T = s[:, None] * K * s
    tol, maxit = (1e-14, 7) if case == "capped" else (1e-10, 500)
    out = minres(T.__matmul__, s * b, tol=tol, maxit=maxit)
    x, it, rel = reference_minres(T, s * b, tol=tol, maxit=maxit)
    assert out.converged == (case != "capped")
    assert out.iterations == it
    assert out.final_relative_residual == rel
    np.testing.assert_array_equal(out.solution, x)
    # the preconditioned reference: returns its argument under the identity,
    # which the loop must never write into
    precond = {"identity-precond": identity_preconditioner().apply_inverse}.get(
        case, lambda v: v / d)
    x, it, rel = reference_minres(K, b, precond=precond, tol=tol, maxit=maxit)
    if case == "identity-precond":
        assert out.iterations == it and out.final_relative_residual == rel
        np.testing.assert_array_equal(out.solution, x)
    else:
        np.testing.assert_allclose(s * out.solution, x, rtol=1e-9, atol=1e-9)
        assert abs(out.iterations - it) <= 1


class TestBorderedBand:
    """The band-and-border factor against a dense solve of
    [[K, -A_B'], [A_B, δ]] with K = C + diag(d) + A_R' diag(w) A_R."""

    @staticmethod
    def system(with_c=True, nb=4, scalar_delta=True, n=15, nr=8, seed=60, coupled=False):
        """The factored band, with K, A_B and δ densely in the columns'
        own order. ``coupled`` adds per-factor couplings on the pairs that
        A_R couples."""
        rng = np.random.default_rng(seed)
        G = sp.random(n, n, density=0.15, random_state=seed)
        C = sp.csr_matrix(G @ G.T) if with_c else None
        A_R = sp.random(nr, n, density=0.25, random_state=seed + 1, format="csr")
        A_B = sp.random(nb, n, density=0.3, random_state=seed + 2, format="csr")
        d, w = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, nr)
        delta = 1e-2 if scalar_delta else rng.uniform(1e-3, 1e-1, nb)
        pairs = c = None
        if coupled:
            pairs = np.array(sp.triu(A_R.T @ A_R, 1).nonzero())
            c = rng.uniform(-0.05, 0.05, pairs.shape[1])
        band = BorderedBand(C, A_R, A_B, pairs)
        band.factor(d[band.order], w, delta, c)
        K = np.diag(d) + A_R.T.toarray() @ np.diag(w) @ A_R.toarray()
        if C is not None:
            K += C.toarray()
        if coupled:
            i, j = pairs
            K[i, j] += c
            K[j, i] += c
        return band, K, A_B.toarray(), np.broadcast_to(delta, nb) * np.eye(nb)

    @pytest.mark.parametrize("scalar_delta", [True, False], ids=["scalar", "per-row"])
    @pytest.mark.parametrize("with_c", [True, False], ids=["C", "no-C"])
    def test_solves_match_dense(self, with_c, scalar_delta):
        band, K, A_B, Delta = self.system(with_c, scalar_delta=scalar_delta)
        order = band.order
        rng = np.random.default_rng(61)
        f, g = rng.standard_normal(K.shape[0]), rng.standard_normal(A_B.shape[0])
        M = np.block([[K, -A_B.T], [A_B, Delta]])
        want = np.linalg.solve(M, np.r_[f, g])
        x, y = band.solve_bordered(f[order], g)
        np.testing.assert_allclose(np.r_[x, y], np.r_[want[:f.size][order], want[f.size:]],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(band.solve(f[order]), np.linalg.solve(K, f)[order],
                                   rtol=1e-10, atol=1e-12)
        S = Delta + A_B @ np.linalg.solve(K, A_B.T)
        np.testing.assert_allclose(band.schur_solve(g), np.linalg.solve(S, g),
                                   rtol=1e-10, atol=1e-12)

    def test_empty_border_makes_no_lapack_call_on_an_empty_matrix(self, monkeypatch):
        shapes = []
        for owner, name in [(scipy.linalg.lapack, "dtbtrs"), (scipy.linalg.lapack, "dpotrs"),
                            (scipy.linalg.blas, "dtbsv"), (scipy.linalg, "cho_factor"),
                            (scipy.linalg, "cholesky_banded")]:
            original = getattr(owner, name)

            def recorded(*args, _original=original, **kwargs):
                shapes.extend(np.shape(v) for v in args if isinstance(v, np.ndarray))
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recorded)
        band, K, _, _ = self.system(nb=0)
        f = np.random.default_rng(62).standard_normal(K.shape[0])
        x, y = band.solve_bordered(f[band.order], np.zeros(0))
        np.testing.assert_allclose(x, np.linalg.solve(K, f)[band.order], rtol=1e-10)
        assert y.size == 0 and band.schur_solve(np.zeros(0)).size == 0
        assert shapes and all(np.prod(shape) > 0 for shape in shapes)

    @staticmethod
    def banded(width):
        """A factored band of half-bandwidth ``width``: 0 (no rows), 1 (a
        chain of differences) or 32 (the TV rows of a 32 x 32 grid), with C.
        Checks that the factor, made in place, leaves C's band as it was."""
        A_R = {0: sp.csr_matrix((0, 7)),
               1: sp.diags([-1.0, 1.0], [0, 1], shape=(6, 7), format="csr"),
               32: make_tv_operator((32, 32)).matrix}[width]
        N = A_R.shape[1]
        rng = np.random.default_rng(65)
        C = sp.diags(rng.uniform(0.5, 2.0, N)) + 0.1 * A_R.T @ A_R
        band = BorderedBand(C, A_R, sp.csr_matrix((0, N)))
        assert band.bw == width
        band_c = band.band_c.copy()
        band.factor(rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 2.0, A_R.shape[0]), 1e-2)
        assert band_c.any() and np.array_equal(band.band_c, band_c)
        return band

    @pytest.mark.parametrize("width", [0, 1, 32])
    def test_sweeps_match_dtbtrs_and_a_dense_solve(self, width):
        band = self.banded(width)
        N = band.L.shape[1]
        L = np.zeros((N, N))  # L dense, from its lower band storage
        for k in range(width + 1):
            L[np.arange(k, N), np.arange(N - k)] = band.L[k, :N - k]
        b = np.random.default_rng(66).standard_normal(N)
        forward, back = band.forward(b), band.back(b)
        lapack = scipy.linalg.lapack
        np.testing.assert_allclose(forward, lapack.dtbtrs(band.L, b, uplo="L")[0],
                                   rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(back, lapack.dtbtrs(band.L, b, uplo="L", trans="T")[0],
                                   rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(band.solve(b), lapack.dpbtrs(band.L, b, lower=1)[0],
                                   rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(forward, np.linalg.solve(L, b), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(back, np.linalg.solve(L.T, b), rtol=1e-10, atol=1e-12)

    def test_empty_rhs_is_returned_as_it_is(self):
        band = self.banded(1)
        empty = np.zeros(0)
        assert band.forward(empty) is empty and band.back(empty) is empty
        assert band.solve(empty) is empty

    @pytest.mark.parametrize("with_c", [True, False], ids=["C", "no-C"])
    def test_couplings_enter_each_factor(self, with_c):
        """Per-factor couplings are entries of K, with C's band or without."""
        band, K, A_B, Delta = self.system(with_c, coupled=True)
        order, n = band.order, K.shape[0]
        assert band.cpos.size
        rng = np.random.default_rng(64)
        f, g = rng.standard_normal(n), rng.standard_normal(A_B.shape[0])
        x, y = band.solve_bordered(f[order], g)
        got = np.empty(n)
        got[order] = x
        M = np.block([[K, -A_B.T], [A_B, Delta]])
        want = np.linalg.solve(M, np.r_[f, g])
        np.testing.assert_allclose(np.r_[got, y], want, rtol=1e-10, atol=1e-12)

    def test_a_coupling_outside_the_band_raises(self):
        # a chain of differences has half-bandwidth 1; its two ends are far apart
        A_R = sp.diags([-1.0, 1.0], [0, 1], shape=(5, 6), format="csr")
        with pytest.raises(ValueError, match="outside the band"):
            BorderedBand(None, A_R, sp.csr_matrix((0, 6)), np.array([[0], [5]]))

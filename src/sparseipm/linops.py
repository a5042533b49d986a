"""Linear operators: explicit sparse matrices, finite differences, circulant convolutions.

All operators expose ``apply`` / ``apply_transpose`` and are immutable after
construction, so they can be shared freely between solver invocations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.sparse as sp

# the Kronecker form applies a PSF of rank r on an (n1, n2) grid where
# r * max(n1, n2) is at most this; above it the real FFT is as fast or faster
KRONECKER_MAX = 128


class MatrixOperator:
    """Operator backed by an explicit sparse matrix, held in CSR form."""

    def __init__(self, matrix):
        self.matrix = matrix.tocsr()
        self.rows, self.cols = self.matrix.shape

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=float)

    def apply_transpose(self, u):
        return self.matrix.T @ np.asarray(u, dtype=float)


def _forward_differences(grid, axes) -> sp.csr_matrix:
    """Forward differences x[.., k + 1, ..] - x[.., k, ..] along each of
    ``axes`` of a C-order vector on ``grid``, stacked axis by axis.

    Each row holds -1 at its tail and +1 at its head, one stride further on;
    the rows of an axis run in the C order of the grid shortened along it.
    """
    index = np.arange(int(np.prod(grid, dtype=int))).reshape(grid)
    tails, heads = [], []
    for axis in axes:
        tail = np.delete(index, -1, axis=axis).ravel()
        tails.append(tail)
        heads.append(tail + int(np.prod(grid[axis + 1:], dtype=int)))
    tail, head = np.concatenate(tails), np.concatenate(heads)
    rows = tail.size
    return sp.csr_matrix((np.tile([-1.0, 1.0], rows), np.column_stack([tail, head]).ravel(),
                          np.arange(0, 2 * rows + 1, 2)), shape=(rows, index.size))


def make_difference_operator(num_periods: int, num_assets: int) -> MatrixOperator:
    """Fused-lasso difference operator on per-period asset weights.

    Row (j-1)*s + i computes w_{j+1}^i - w_j^i for a vector stacked as
    [w_1; ...; w_m] with each w_j of length s.
    """
    if num_periods < 2:
        raise ValueError(f"need at least 2 periods, got {num_periods}")
    if num_assets < 1:
        raise ValueError(f"need at least 1 asset, got {num_assets}")
    return MatrixOperator(_forward_differences((num_periods, num_assets), (0,)))


def make_tv_operator(grid) -> MatrixOperator:
    """Stacked forward-difference (anisotropic TV) operator on a 1d/2d/3d grid.

    Difference rows that would cross the boundary are dropped, so a grid with
    shape (q1, ..., qd) yields sum_i (q_i - 1) * prod_{j != i} q_j rows.
    Vectors are C-order flattenings of the grid.
    """
    grid = tuple(int(q) for q in np.atleast_1d(grid))
    if any(q < 2 for q in grid):
        raise ValueError(f"every grid dimension must be >= 2, got {grid}")
    return MatrixOperator(_forward_differences(grid, range(len(grid))))


# each blur family's parameters with their defaults
BLUR_PARAMETERS = {"gaussian": {"sigma": 1.0}, "motion": {"length": 5.0, "angle": 0.0},
                   "out-of-focus": {"radius": 2.0}, "identity": {}}
# each blur parameter's least value and whether that value is excluded; every
# parameter must also be finite
_PARAMETER_FLOORS = {"sigma": (0.0, True), "radius": (0.0, True), "length": (1.0, False),
                     "angle": (-np.inf, False)}


@dataclass(frozen=True)
class BlurKernel:
    """Normalized point-spread function on an (n1, n2) periodic pixel grid;
    ``parameters`` override some of the family's ``BLUR_PARAMETERS``."""

    family: str
    grid: tuple
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in BLUR_PARAMETERS:
            raise ValueError(f"unknown blur family {self.family!r}")
        defaults = BLUR_PARAMETERS[self.family]
        unknown = sorted(set(self.parameters) - set(defaults))
        if unknown:
            takes = ", ".join(defaults) or "no parameters"
            raise ValueError(f"{self.family} blur takes {takes}, not {', '.join(unknown)}")
        object.__setattr__(self, "parameters", {**defaults, **self.parameters})
        for name, value in self.parameters.items():
            floor, strict = _PARAMETER_FLOORS[name]
            value = float(value)
            if not (np.isfinite(value) and (value > floor if strict else value >= floor)):
                bound = "" if floor == -np.inf else f" and {'>' if strict else '>='} {floor:g}"
                raise ValueError(f"{self.family} blur {name} must be finite{bound}, "
                                 f"got {value}")

    def psf(self) -> np.ndarray:
        """PSF embedded in the full grid with its center wrapped to pixel (0, 0)."""
        n1, n2 = self.grid
        small = self._small_psf()
        k1, k2 = small.shape
        out = np.zeros((n1, n2))
        # a kernel larger than the grid wraps onto itself: add.at sums repeats
        np.add.at(out, np.ix_((np.arange(k1) - k1 // 2) % n1,
                              (np.arange(k2) - k2 // 2) % n2), small)
        return out

    def _small_psf(self) -> np.ndarray:
        if self.family == "identity":
            return np.ones((1, 1))
        if self.family == "gaussian":
            sigma = float(self.parameters["sigma"])
            r = max(1, int(np.ceil(4.0 * sigma)))
            ax = np.arange(-r, r + 1)
            g = np.exp(-0.5 * (ax / sigma) ** 2)
            k = np.outer(g, g)
        elif self.family == "motion":
            length = float(self.parameters["length"])
            angle = np.deg2rad(float(self.parameters["angle"]))
            r = int(np.ceil(length / 2)) + 1
            size = 2 * r + 1
            k = np.zeros((size, size))
            nsamp = max(2, int(np.ceil(length * 32)))
            ts = np.linspace(-(length - 1) / 2.0, (length - 1) / 2.0, nsamp)
            # anti-aliased deposit of the line segment via bilinear weights,
            # sample by sample, each sample's four corners in turn
            yy, xx = r + ts * np.sin(angle), r + ts * np.cos(angle)
            i0, j0 = np.floor(yy).astype(int), np.floor(xx).astype(int)
            fy, fx = yy - i0, xx - j0
            np.add.at(k, (np.column_stack([i0, i0 + 1, i0, i0 + 1]),
                          np.column_stack([j0, j0, j0 + 1, j0 + 1])),
                      np.column_stack([(1 - fy) * (1 - fx), fy * (1 - fx),
                                       (1 - fy) * fx, fy * fx]))
        else:  # out-of-focus
            radius = float(self.parameters["radius"])
            r = int(np.ceil(radius)) + 1
            ax = np.arange(-r, r + 1)
            dist = np.hypot(*np.meshgrid(ax, ax, indexing="ij"))
            k = np.clip(radius + 0.5 - dist, 0.0, 1.0)
        if k.sum() <= 0:
            raise ValueError("degenerate kernel (all-zero weights)")
        return k / k.sum()


def _kronecker_factors(psf):
    """The (left, right) stacks of apply, (C1, C2^T), and of apply_transpose,
    (C1^T, C2), where the BCCB matrix of ``psf`` is sum_r kron(C1[r], C2[r]);
    None where r * max(n1, n2) > KRONECKER_MAX.

    P = sum_r a_r b_r^T from the SVD of the full-grid PSF, at the rank
    ``numpy.linalg.matrix_rank`` would give; C1[r][m, j] = a_r[(m - j) mod n1]
    and C2[r] likewise from b_r.
    """
    n = max(psf.shape)
    if n > KRONECKER_MAX:
        return None
    u, s, vt = np.linalg.svd(psf)
    rank = int(np.sum(s > s[0] * n * np.finfo(float).eps))
    if rank * n > KRONECKER_MAX:
        return None
    root = np.sqrt(s[:rank])
    c1, c2 = ((factor * root).T[:, (np.arange(q)[:, None] - np.arange(q)) % q]
              for factor, q in ((u[:, :rank], psf.shape[0]), (vt[:rank].T, psf.shape[1])))
    c1t, c2t = (np.ascontiguousarray(c.transpose(0, 2, 1)) for c in (c1, c2))
    return (c1, c2t), (c1t, c2)


class BccbOperator:
    """Block-circulant-with-circulant-blocks convolution of a real PSF.

    The half spectrum of the PSF (its 2d real FFT) is always stored. Where the
    PSF has a small rank r on a small grid (``_kronecker_factors``), apply is
    sum_r C1_r V C2_r^T on the grid image V, one batched matmul; otherwise it
    is a forward real FFT, a spectral multiply (conjugated for the transpose)
    and an inverse real FFT back onto the grid.
    """

    def __init__(self, kernel: BlurKernel):
        psf = kernel.psf()
        if np.any(psf < -1e-15):
            raise ValueError("kernel weights must be non-negative")
        if abs(psf.sum() - 1.0) > 1e-10:
            raise ValueError("kernel weights must sum to 1")
        self.psf = psf
        self.grid = psf.shape
        self.rows = self.cols = psf.size
        self.eigenvalues = scipy.fft.rfft2(psf)
        self.conj_eigenvalues = np.conj(self.eigenvalues)
        self._factors = _kronecker_factors(psf)
        self._coupling_conj = None

    def _apply(self, v, side, eigs):
        """The Kronecker form's ``side`` stacks (0 for apply, 1 for the
        transpose) on the grid image of v, or the spectral multiply by eigs."""
        img = np.asarray(v, dtype=float).reshape(self.grid)
        if self._factors is None:
            return scipy.fft.irfft2(scipy.fft.rfft2(img) * eigs, s=self.grid).ravel()
        left, right = self._factors[side]
        return (left @ img @ right).sum(axis=0).ravel()

    def apply(self, v):
        return self._apply(v, 0, self.eigenvalues)

    def apply_transpose(self, u):
        return self._apply(u, 1, self.conj_eigenvalues)

    def couplings(self, weights):
        """H[j, j + e_a] of H = K' diag(weights) K for every pixel j and both
        axes a, the neighbour taken periodically, and H[j, j], as a
        (3, n1, n2) stack: planes 0 and 1 the axes, plane 2 the diagonal.

        With K[i, j] = psf[i - j], the plane of shift s (e_0, e_1, then 0) at
        j is the sum over i of weights[i] psf[i - j] psf[i - j - s]: the
        correlation of the weights with psf * shift_s(psf), by one forward and
        one batched inverse real FFT. The conjugate half spectra of the three
        products are found on the first call, since set-up needs none.
        """
        if self._coupling_conj is None:
            self._coupling_conj = np.conj(scipy.fft.rfft2(
                [self.psf * np.roll(self.psf, s, axis=a) for s, a in ((1, 0), (1, 1), (0, 0))]))
        spectrum = scipy.fft.rfft2(np.asarray(weights, dtype=float).reshape(self.grid))
        return scipy.fft.irfft2(spectrum * self._coupling_conj, s=self.grid)

"""Linear operators: explicit sparse matrices, finite differences, FFT-applied convolutions.

All operators expose ``apply`` / ``apply_transpose`` and are immutable after
construction, so they can be shared freely between solver invocations.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.sparse as sp


class MatrixOperator:
    """Operator backed by an explicit sparse matrix, held in CSR form."""

    def __init__(self, matrix):
        self.matrix = matrix.tocsr()
        self.rows, self.cols = self.matrix.shape

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=float)

    def apply_transpose(self, u):
        return self.matrix.T @ np.asarray(u, dtype=float)


def _chain_difference(q: int) -> sp.csr_matrix:
    """(q-1) x q forward-difference matrix [-1, 1] on a 1d chain."""
    if q < 2:
        raise ValueError(f"chain length must be >= 2, got {q}")
    return sp.diags([-1.0, 1.0], [0, 1], shape=(q - 1, q), format="csr")


def make_difference_operator(num_periods: int, num_assets: int) -> MatrixOperator:
    """Fused-lasso difference operator on per-period asset weights.

    Row (j-1)*s + i computes w_{j+1}^i - w_j^i for a vector stacked as
    [w_1; ...; w_m] with each w_j of length s.
    """
    if num_periods < 2:
        raise ValueError(f"need at least 2 periods, got {num_periods}")
    if num_assets < 1:
        raise ValueError(f"need at least 1 asset, got {num_assets}")
    L = sp.kron(_chain_difference(num_periods), sp.eye(num_assets), format="csr")
    return MatrixOperator(L)


def make_tv_operator(grid) -> MatrixOperator:
    """Stacked forward-difference (anisotropic TV) operator on a 1d/2d/3d grid.

    Difference rows that would cross the boundary are dropped, so a grid with
    shape (q1, ..., qd) yields sum_i (q_i - 1) * prod_{j != i} q_j rows.
    Vectors are C-order flattenings of the grid.
    """
    grid = tuple(int(q) for q in np.atleast_1d(grid))
    if any(q < 2 for q in grid):
        raise ValueError(f"every grid dimension must be >= 2, got {grid}")
    blocks = []
    for axis, q in enumerate(grid):
        left = sp.eye(int(np.prod(grid[:axis], dtype=int)))
        right = sp.eye(int(np.prod(grid[axis + 1:], dtype=int)))
        blocks.append(sp.kron(sp.kron(left, _chain_difference(q)), right))
    L = sp.vstack(blocks, format="csr")
    return MatrixOperator(L)


# each blur family's parameters with their defaults
BLUR_PARAMETERS = {"gaussian": {"sigma": 1.0}, "motion": {"length": 5.0, "angle": 0.0},
                   "out-of-focus": {"radius": 2.0}, "identity": {}}


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

    def psf(self) -> np.ndarray:
        """PSF embedded in the full grid with its center wrapped to pixel (0, 0)."""
        n1, n2 = self.grid
        small = self._small_psf()
        k1, k2 = small.shape
        c1, c2 = k1 // 2, k2 // 2
        out = np.zeros((n1, n2))
        for i in range(k1):
            for j in range(k2):
                out[(i - c1) % n1, (j - c2) % n2] += small[i, j]
        return out

    def _small_psf(self) -> np.ndarray:
        if self.family == "identity":
            return np.ones((1, 1))
        if self.family == "gaussian":
            sigma = float(self.parameters["sigma"])
            if sigma <= 0:
                raise ValueError("sigma must be positive")
            r = max(1, int(np.ceil(4.0 * sigma)))
            ax = np.arange(-r, r + 1)
            g = np.exp(-0.5 * (ax / sigma) ** 2)
            k = np.outer(g, g)
        elif self.family == "motion":
            length = float(self.parameters["length"])
            angle = np.deg2rad(float(self.parameters["angle"]))
            if length < 1:
                raise ValueError("motion length must be >= 1 pixel")
            r = int(np.ceil(length / 2)) + 1
            size = 2 * r + 1
            k = np.zeros((size, size))
            nsamp = max(2, int(np.ceil(length * 32)))
            ts = np.linspace(-(length - 1) / 2.0, (length - 1) / 2.0, nsamp)
            # anti-aliased deposit of the line segment via bilinear weights
            for t in ts:
                yy = r + t * np.sin(angle)
                xx = r + t * np.cos(angle)
                i0, j0 = int(np.floor(yy)), int(np.floor(xx))
                fy, fx = yy - i0, xx - j0
                k[i0, j0] += (1 - fy) * (1 - fx)
                k[i0 + 1, j0] += fy * (1 - fx)
                k[i0, j0 + 1] += (1 - fy) * fx
                k[i0 + 1, j0 + 1] += fy * fx
        else:  # out-of-focus
            radius = float(self.parameters["radius"])
            if radius <= 0:
                raise ValueError("radius must be positive")
            r = int(np.ceil(radius)) + 1
            ax = np.arange(-r, r + 1)
            dist = np.hypot(*np.meshgrid(ax, ax, indexing="ij"))
            k = np.clip(radius + 0.5 - dist, 0.0, 1.0)
        if k.sum() <= 0:
            raise ValueError("degenerate kernel (all-zero weights)")
        return k / k.sum()


class BccbOperator:
    """Block-circulant-with-circulant-blocks convolution, applied via the 2d FFT.

    Only the half spectrum of the real PSF (its 2d real FFT) is stored; apply
    and apply_transpose are a forward real FFT, a spectral multiply (conjugated
    for the transpose) and an inverse real FFT back onto the grid.
    """

    def __init__(self, kernel: BlurKernel):
        psf = kernel.psf()
        if np.any(psf < -1e-15):
            raise ValueError("kernel weights must be non-negative")
        if abs(psf.sum() - 1.0) > 1e-10:
            raise ValueError("kernel weights must sum to 1")
        n1, n2 = kernel.grid
        self.rows = self.cols = n1 * n2
        self.grid = (n1, n2)
        self.eigenvalues = scipy.fft.rfft2(psf)
        self.conj_eigenvalues = np.conj(self.eigenvalues)

    def _spectral_apply(self, v, eigs):
        img = np.asarray(v, dtype=float).reshape(self.grid)
        return scipy.fft.irfft2(scipy.fft.rfft2(img) * eigs, s=self.grid).ravel()

    def apply(self, v):
        return self._spectral_apply(v, self.eigenvalues)

    def apply_transpose(self, u):
        return self._spectral_apply(u, self.conj_eigenvalues)

    def squared_kernel_operator(self) -> "BccbOperator":
        """Operator whose kernel weights are the element-wise squared PSF.

        Its transpose applied to u gives sum_i u_i * d_ij^2, i.e. the exact
        diagonal of D^T diag(u) D; used for diagonal Hessian approximations.
        """
        out = copy.copy(self)
        out.eigenvalues = scipy.fft.rfft2(
            scipy.fft.irfft2(self.eigenvalues, s=self.grid) ** 2)
        out.conj_eigenvalues = np.conj(out.eigenvalues)
        return out


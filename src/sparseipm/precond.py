"""Block-diagonal preconditioners for the normal-equations and augmented
solver paths, plus dense spectral verification utilities."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .krylov import CholeskyFactor


@dataclass
class Preconditioner:
    """Apply-inverse contract: r -> P^-1 r."""

    apply_inverse: Callable[[np.ndarray], np.ndarray]


def identity_preconditioner() -> Preconditioner:
    return Preconditioner(apply_inverse=lambda v: v)


def fmri_row_blocks(A, split: int):
    """The data rows of the fmri-block preconditioner: the columns the
    leading ``split`` rows touch and those rows as a dense array over these
    columns of the sparse A. They depend on A alone, so a caller cuts them
    once per solve."""
    if split > A.shape[0]:
        raise ValueError("split exceeds row count")
    A1 = A[:split]
    cols = np.flatnonzero(A1.getnnz(axis=0))
    return cols, A1[:, cols].toarray()


def build_fmri_normal_precond(weights: np.ndarray, cols: np.ndarray, A1: np.ndarray,
                              band, d: np.ndarray, E: np.ndarray, border: np.ndarray,
                              delta: float) -> Preconditioner:
    """blockdiag(M1, M3) of A W A' + delta I for fused-lasso LS, with W =
    diag(``weights``) (``ippmm.NormalEquations`` passes its pair-reduced A
    and weights, so A W A' = A G^-1 A').

    M1 = A1 W A1' + delta I, over the columns ``cols`` of
    ``fmri_row_blocks``, is one dense product with a dense Cholesky factor.
    M3 = E + A_u D A_u' (``ippmm.NormalEquations``) is solved through
    ``band``, a ``krylov.BorderedBand`` whose A_R holds the TV rows outside
    ``border`` and whose border A_B holds those in it: with
    K = diag(d) + A_R' E^-1 A_R (``d`` = D^-1 in band order),
    x = K^-1 (A_R' E^-1 r_R + A_B' y_B), y_R = E^-1 (r_R - A_R x), and y_B
    comes from the border E_B + A_B K^-1 A_B'. Both blocks are factored at
    every interior point iteration, since W changes.
    """
    split = A1.shape[0]
    M1 = (A1 * weights[cols]) @ A1.T + delta * np.eye(split)
    f1 = CholeskyFactor(M1)
    R, B = split + np.flatnonzero(~border), split + np.flatnonzero(border)
    E_R = E[~border]
    band.factor(d, 1.0 / E_R, E[border])
    A_R, A_Rt = band.A_R, band.A_R.T

    def apply_inverse(r):
        out = np.empty_like(r)
        out[:split] = f1.solve(r[:split])
        t = r[R] / E_R
        h = band.tri(A_Rt @ t, "N")
        out[B] = yB = band.schur_solve(r[B] - band.Z.T @ h)
        x = band.tri(h + band.Z @ yB, "T")
        out[R] = t - (A_R @ x) / E_R
        return out

    return Preconditioner(apply_inverse=apply_inverse)


def build_aug_block_diag_precond(band) -> Preconditioner:
    """blockdiag(P, δI + A_B P^-1 A_B') for the augmented (saddle) system,
    from ``band``, a factored ``krylov.BorderedBand`` whose K is P; P's
    unknowns come first, in band order. P = H~ + Θ + ρI + A_R' E^-1 A_R
    approximates the (1,1) block (``ippmm.AugmentedSystem``)."""
    na = band.order.size

    def apply_inverse(r):
        out = np.empty_like(r)
        out[:na] = band.solve(r[:na])
        out[na:] = band.schur_solve(r[na:])
        return out

    return Preconditioner(apply_inverse=apply_inverse)


# ---------------------------------------------------------------------------
# Spectral verification (test-scale dense eigendecompositions)

DENSE_MAX = 2000  # largest dimension spectral_check decomposes


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray
    unit_count: int
    chi: Optional[float] = None
    alpha_h: Optional[float] = None
    beta_h: Optional[float] = None
    kappa_h: Optional[float] = None

    def to_dict(self):
        d = {
            "eigenvalues": list(map(float, self.eigenvalues)),
            "unit_count": int(self.unit_count),
        }
        for key in ("chi", "alpha_h", "beta_h", "kappa_h"):
            val = getattr(self, key)
            if val is not None:
                d[key] = float(val)
        return d


def spectral_check(M, P) -> SpectralReport:
    """Dense generalized eigenvalues of (M, P) with a census of those within
    1e-8 of one."""
    if len(M) > DENSE_MAX:
        raise ValueError(f"dimension {len(M)} over the dense limit {DENSE_MAX}")
    eigs = scipy.linalg.eigh(M, P, eigvals_only=True)
    eigs = np.sort(eigs)
    unit = int(np.count_nonzero(np.abs(eigs - 1.0) <= 1e-8))
    return SpectralReport(eigenvalues=eigs, unit_count=unit)


def normal_equations_matrix(g_diag, A, delta: float) -> np.ndarray:
    A = sp.csr_matrix(A)
    return (A @ sp.diags(1.0 / np.asarray(g_diag)) @ A.T).toarray() \
        + delta * np.eye(A.shape[0])


def fmri_spectral_report(g_diag, A, split: int, rho: float, delta: float) -> SpectralReport:
    """Eigenvalues of the block-preconditioned normal matrix plus the lower
    bound chi = delta*rho / (sigma_max(A)^2 + rho*delta)."""
    M = normal_equations_matrix(g_diag, A, delta)
    P = scipy.linalg.block_diag(M[:split, :split], M[split:, split:])  # M, coupling dropped
    rep = spectral_check(M, P)
    smax = scipy.linalg.svdvals(sp.csr_matrix(A).toarray())[0]
    rep.chi = delta * rho / (smax ** 2 + rho * delta)
    return rep


def augmented_matrix(H, A, delta: float) -> np.ndarray:
    A = np.asarray(A if not sp.issparse(A) else A.toarray(), dtype=float)
    mrows = A.shape[0]
    return np.block([
        [-H, A.T],
        [A, delta * np.eye(mrows)],
    ])


def aug_spectral_report(H, A, htilde, delta: float) -> SpectralReport:
    """Eigenvalues of the block-preconditioned saddle matrix together with the
    extremal eigenvalues (alpha_H, beta_H) of H~^-1/2 H H~^-1/2."""
    H = np.asarray(H, dtype=float)
    htilde = np.asarray(htilde, dtype=float)
    M = augmented_matrix(H, A, delta)
    A = sp.csr_matrix(A)
    S = A @ sp.diags(1.0 / htilde) @ A.T + delta * sp.eye(A.shape[0])
    P = scipy.linalg.block_diag(np.diag(htilde), S.toarray())  # blockdiag(H~, S)
    rep = spectral_check(M, P)
    scale = 1.0 / np.sqrt(htilde)
    Hhat = scale[:, None] * H * scale[None, :]
    hev = scipy.linalg.eigh(Hhat, eigvals_only=True)
    rep.alpha_h = float(hev[0])
    rep.beta_h = float(hev[-1])
    rep.kappa_h = rep.beta_h / rep.alpha_h
    return rep

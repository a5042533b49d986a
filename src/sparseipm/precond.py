"""Preconditioners for the normal-equations and augmented solver paths, both
applied through a factored ``krylov.BorderedBand``, plus dense spectral
verification utilities.

fmri-block is the exact inverse of the normal matrix: the data rows border
the band over the voxels. The spectral checks build the paper's
blockdiag(M1, M3) from its definition to test its eigenvalue bounds; no
solver path applies that matrix."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import krylov

# Read only by perfbench/tracing.py, whose krylov.chol span wraps it; no
# preconditioner factors through it.
CholeskyFactor = krylov.CholeskyFactor


@dataclass
class Preconditioner:
    """Apply-inverse contract: r -> P^-1 r."""

    apply_inverse: Callable[[np.ndarray], np.ndarray]


def identity_preconditioner() -> Preconditioner:
    return Preconditioner(apply_inverse=lambda v: v)


def build_fmri_normal_precond(band, d: np.ndarray, E: np.ndarray,
                              border: np.ndarray) -> Preconditioner:
    """The exact (E + A_u D A_u')^-1 of ``ippmm.NormalEquations``, which is
    its normal matrix A W A' + delta I with each slack pair folded into its
    row's diagonal E; the columns A_u and weights D are the others.

    ``band`` is a ``krylov.BorderedBand`` whose A_R holds the rows outside
    ``border`` and whose border A_B holds those in it (the data rows among
    them): with K = diag(d) + A_R' E_R^-1 A_R (``d`` = D^-1 in band order),
    x = K^-1 (A_R' E_R^-1 r_R + A_B' y_B), y_R = E_R^-1 (r_R - A_R x), and
    y_B comes from the border E_B + A_B K^-1 A_B'. It is factored at every
    interior point iteration, since W changes.
    """
    R, B = np.flatnonzero(~border), np.flatnonzero(border)
    E_R = E[R]
    band.factor(d, 1.0 / E_R, E[B])
    A_R, A_Rt = band.A_R, band.A_R.T

    def apply_inverse(r):
        out = np.empty_like(r)
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

"""Preconditioners for the normal-equations and augmented solver paths, plus
dense spectral verification utilities.

fmri-block, the PCG path's one preconditioner, is the exact inverse of the
normal matrix: the direct path's bordered solve of the reduced Newton
system of ``ippmm.NewtonSystem`` at r1 = 0. aug-block, the MINRES path's,
is not applied as a preconditioner: MINRES runs on the split operator of
its factors (``krylov.BorderedBand.split``), with the same iterates. The
spectral checks build the paper's blockdiag(M1, M3) from its definition to
test its eigenvalue bounds; no solver path applies that matrix."""
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


# Read only by perfbench/tracing.py, whose precond.build span wraps it; no
# solver path runs without a preconditioner.
def identity_preconditioner() -> Preconditioner:
    return Preconditioner(apply_inverse=lambda v: v)


# Read by perfbench/tracing.py, whose precond.build span wraps it.
def build_fmri_normal_precond(apply_inverse: Callable[[np.ndarray], np.ndarray]
                              ) -> Preconditioner:
    """fmri-block, the exact (A G^-1 A' + delta I)^-1 of
    ``ippmm.NormalEquations``: ``apply_inverse`` is the bordered solve of
    its factored reduced system at r1 = 0."""
    return Preconditioner(apply_inverse=apply_inverse)


# Read only by perfbench/tracing.py, whose precond.build span wraps it; the
# MINRES path splits this preconditioner into its operator instead.
def build_aug_block_diag_precond(band) -> Preconditioner:
    """blockdiag(P, δI + A_B P^-1 A_B') for the augmented (saddle) system,
    from ``band``, a factored ``krylov.BorderedBand`` whose K is P; P's
    unknowns come first, in band order. P = H~ + Θ + ρI + A_R' E^-1 A_R
    approximates the (1,1) block (``ippmm.AugmentedSystem``), with H~ the
    second result of the program's ``hess_action``: on Poisson H's couplings
    of the TV's pixel pairs, with each diagonal max(H_jj, its row's coupling
    sum), so H~ is diagonally dominant and P is SPD."""
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


def check_dense(dim: int) -> None:
    """Raise ValueError on a dimension over ``DENSE_MAX``."""
    if dim > DENSE_MAX:
        raise ValueError(f"dimension {dim} over the dense limit {DENSE_MAX}")


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
    check_dense(len(M))
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
    extremal eigenvalues (alpha_H, beta_H) of H~^-1/2 H H~^-1/2, those of the
    pencil (H, H~); ``htilde`` is an SPD matrix, or a vector for a diagonal."""
    H = np.asarray(H, dtype=float)
    htilde = np.asarray(htilde, dtype=float)
    if htilde.ndim == 1:
        htilde = np.diag(htilde)
    M = augmented_matrix(H, A, delta)
    A = M[len(H):, :len(H)]
    S = A @ np.linalg.solve(htilde, A.T) + delta * np.eye(A.shape[0])
    P = scipy.linalg.block_diag(htilde, S)  # blockdiag(H~, S)
    rep = spectral_check(M, P)
    hev = scipy.linalg.eigh(H, htilde, eigvals_only=True)
    rep.alpha_h = float(hev[0])
    rep.beta_h = float(hev[-1])
    rep.kappa_h = rep.beta_h / rep.alpha_h
    return rep

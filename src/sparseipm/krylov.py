"""Direct and iterative linear solvers used inside the interior point engine."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky factorization hits a non-positive pivot."""

    def __init__(self, pivot: int):
        self.pivot = int(pivot)
        super().__init__(f"matrix is not positive definite (pivot {self.pivot})")


@dataclass
class KrylovOutcome:
    solution: np.ndarray
    iterations: int
    final_relative_residual: float
    converged: bool
    breakdown_reason: Optional[str] = None
    residual_history: list = field(default_factory=list)


class CholeskyFactor:
    """Reusable SPD factorization; dense via LAPACK, sparse via SuperLU.

    For sparse input, SuperLU is run with a symmetric fill-reducing ordering
    and no diagonal pivoting, which reproduces a Cholesky-like LDL' with
    positive pivots iff the matrix is positive definite.
    """

    def __init__(self, M):
        if sp.issparse(M):
            self.is_sparse = True
            lu = spla.splu(
                sp.csc_matrix(M),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
            pivots = lu.U.diagonal()
            bad = np.flatnonzero(np.real(pivots) <= 0)
            if bad.size:
                raise NotPositiveDefiniteError(bad[0])
            self._lu = lu
        else:
            self.is_sparse = False
            M = np.asarray(M, dtype=float)
            c, info = scipy.linalg.lapack.dpotrf(M, lower=1)
            if info > 0:
                raise NotPositiveDefiniteError(info - 1)
            if info < 0:
                raise ValueError(f"illegal argument {-info} to dpotrf")
            self._c = c

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if self.is_sparse:
            return self._lu.solve(rhs)
        x, info = scipy.linalg.lapack.dpotrs(self._c, rhs, lower=1)
        if info != 0:
            raise ValueError(f"dpotrs failed with info={info}")
        return x


def _as_matvec(M) -> Callable[[np.ndarray], np.ndarray]:
    if callable(M):
        return M
    return lambda v: M @ v


def pcg(M, rhs, precond=None, tol: float = 1e-8, maxit: int = 1000) -> KrylovOutcome:
    """Preconditioned conjugate gradient for SPD systems.

    ``M`` is a matrix or a matvec callable; ``precond`` applies the inverse of
    an SPD preconditioner (identity when None). Stops on the preconditioned
    residual relative to the preconditioned rhs norm.
    """
    matvec = _as_matvec(M)
    pinv = _as_matvec(precond) if precond is not None else (lambda v: v)
    b = np.asarray(rhs, dtype=float)
    x = np.zeros_like(b)
    r = b.copy()
    s = pinv(r)
    rs = float(r @ s)
    norm0 = np.sqrt(max(rs, 0.0))
    history = [1.0] if norm0 > 0 else [0.0]
    if norm0 == 0.0:
        return KrylovOutcome(x, 0, 0.0, True, residual_history=history)
    p = s.copy()
    breakdown = None
    it = 0
    for it in range(1, maxit + 1):
        Mp = matvec(p)
        pMp = float(p @ Mp)
        if pMp <= 0:
            breakdown = "indefinite-matrix"
            it -= 1
            break
        alpha = rs / pMp
        x = x + alpha * p
        r = r - alpha * Mp
        s = pinv(r)
        rs_new = float(r @ s)
        if rs_new < 0:
            breakdown = "non-spd-preconditioner"
            break
        rel = np.sqrt(rs_new) / norm0
        history.append(rel)
        if rel <= tol:
            return KrylovOutcome(x, it, rel, True, residual_history=history)
        p = s + (rs_new / rs) * p
        rs = rs_new
    rel = history[-1]
    return KrylovOutcome(x, it, rel, False, breakdown_reason=breakdown,
                         residual_history=history)


def minres(M, rhs, precond=None, tol: float = 1e-8, maxit: int = 100) -> KrylovOutcome:
    """Preconditioned MINRES for symmetric (possibly indefinite) systems.

    The preconditioner must be SPD; a negative inner product in the Lanczos
    process is reported as a breakdown and the best iterate so far returned.
    """
    matvec = _as_matvec(M)
    pinv = _as_matvec(precond) if precond is not None else (lambda v: v)
    b = np.asarray(rhs, dtype=float)
    n = b.size
    x = np.zeros(n)
    r1 = b.copy()
    y = pinv(r1)
    beta1 = float(r1 @ y)
    if beta1 < 0:
        return KrylovOutcome(x, 0, 1.0, False, breakdown_reason="non-spd-preconditioner",
                             residual_history=[1.0])
    beta1 = np.sqrt(beta1)
    if beta1 == 0.0:
        return KrylovOutcome(x, 0, 0.0, True, residual_history=[0.0])

    oldb, beta = 0.0, beta1
    dbar, epsln, phibar = 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1.copy()
    history = [1.0]
    breakdown = None
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
        betasq = float(r2 @ y)
        if betasq < 0:
            breakdown = "non-spd-preconditioner"
            break
        beta = np.sqrt(betasq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.hypot(gbar, beta)
        gamma = max(gamma, np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        rel = phibar / beta1
        history.append(rel)
        if rel <= tol:
            return KrylovOutcome(x, it, rel, True, residual_history=history)
    return KrylovOutcome(x, it, history[-1], False, breakdown_reason=breakdown,
                         residual_history=history)

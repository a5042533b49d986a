"""Direct and iterative linear solvers used inside the interior point engine."""
from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg as spla

# SuperLU reserves 10-20 MB blocks per factorization and touches little of
# them. glibc raises its mmap threshold to the largest block freed, so later
# blocks reuse heap pages that earlier ones touched, and the peak memory of
# the same solves varied by 40 MB between runs. A fixed threshold stops that.
try:
    ctypes.CDLL("libc.so.6").mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD, 4 MiB
except (OSError, AttributeError):  # not glibc
    pass


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky factorization hits a pivot that is not positive
    (or not finite)."""

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


class CholeskyFactor:
    """Reusable sparse SPD factorization of the ASB baseline (no solver path
    uses it), by SuperLU under a fresh minimum-degree order on A + A'. An
    SPD matrix factors under any symmetric order without pivoting, so
    SuperLU runs in symmetric mode with no diagonal pivoting. A pivot that
    is not positive, or not finite, raises ``NotPositiveDefiniteError``."""

    is_sparse = True  # read by perfbench/tracing.py when it counts the factor's nonzeros

    def __init__(self, M):
        self._lu = spla.splu(sp.csc_matrix(M), permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        pivots = np.real(self._lu.U.diagonal())
        bad = np.flatnonzero(~((pivots > 0) & np.isfinite(pivots)))
        if bad.size:
            raise NotPositiveDefiniteError(bad[0])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float))


class BorderedBand:
    """The SPD K = C + diag(d) + A_R' diag(w) A_R as a band, and the dense
    border δ + A_B K^-1 A_B', both factored by Cholesky; δ is a scalar or a
    diagonal, one entry per border row.

    The pattern is fixed at construction: the reverse Cuthill-McKee order of
    |C| + |A_R|'|A_R|, C's lower band, and the band positions into which
    A_R' diag(w) A_R = W @ w is added per factor. Vectors over K's unknowns
    are in band order: unknown k is column ``order[k]`` of C, A_R and A_B.
    """

    def __init__(self, C, A_R, A_B):
        N = A_R.shape[1]
        C = sp.coo_matrix((N, N)) if C is None else C.tocoo()
        self.order = scipy.sparse.csgraph.reverse_cuthill_mckee(
            (abs(C) + abs(A_R).T @ abs(A_R)).tocsr(), symmetric_mode=True)
        where = np.argsort(self.order)  # the band position of each unknown
        self.A_R = sp.csr_matrix(A_R[:, self.order])
        self.A_Bt = A_B[:, self.order].T.toarray()
        # K's entries on and below the diagonal, in lower band storage [i - j, j]:
        # C's are written once, and entry (i, j) of A_R' diag(w) A_R is row
        # (i, j) of W @ w, summing A_R[r, i] A_R[r, j] w_r over the rows r
        lens = np.diff(self.A_R.indptr)
        sq = lens ** 2
        t = np.arange(sq.sum()) - np.repeat(np.cumsum(sq) - sq, sq)
        start, per = np.repeat(self.A_R.indptr[:-1], sq), np.repeat(lens, sq)
        k, l = start + t // per, start + t % per
        i, j = self.A_R.indices[k], self.A_R.indices[l]
        low = i >= j
        ci, cj = where[C.row], where[C.col]
        clow = ci >= cj
        self.bw = int(max((i - j)[low].max(initial=0), (ci - cj)[clow].max(initial=0)))
        self.band_c = np.zeros((self.bw + 1, N))
        self.band_c[(ci - cj)[clow], cj[clow]] = C.data[clow]
        self.pos, slot = np.unique(((i - j) * N + j)[low], return_inverse=True)
        self.W = sp.csr_matrix(
            ((self.A_R.data[k] * self.A_R.data[l])[low],
             (slot, np.repeat(np.arange(lens.size), sq)[low])),
            shape=(self.pos.size, lens.size))
        self.pinned = np.zeros(N, dtype=bool)

    def pin(self, pin: np.ndarray):
        """Pin the unknowns of ``pin``: the entries of each one not pinned
        yet leave the band, A_B and A_R, so with a unit ``d`` and a zero rhs
        its solution is exactly 0. Pins are never lifted, and a call that
        pins nothing new returns at once."""
        new = pin & ~self.pinned
        if not new.any():
            return
        self.pinned = pin
        d, j = np.divmod(self.pos, pin.size)
        kept = ~(new[j] | new[j + d])
        self.pos, self.W = self.pos[kept], self.W[kept]
        off = np.arange(self.bw + 1)[:, None]
        cols = np.flatnonzero(new) - off  # the band entries of each new row, by offset
        self.band_c[np.broadcast_to(off, cols.shape)[cols >= 0], cols[cols >= 0]] = 0.0
        self.band_c[:, new] = 0.0  # and of its column
        self.A_Bt[new] = 0.0
        self.A_R.data[new[self.A_R.indices]] = 0.0

    def factor(self, d: np.ndarray, w: np.ndarray, delta: float | np.ndarray):
        """K = LL' for ``d`` (band order) and ``w`` (one per row of A_R), and
        the border as δ + Z'Z with Z = L^-1 A_B'. A band that is not finite,
        or a Cholesky breakdown of the band or the border, raises
        LinAlgError."""
        band = self.band_c.copy()
        band.ravel()[self.pos] += self.W @ w
        band[0] += d
        if not np.all(np.isfinite(band)):  # an infinite Θ, say
            raise np.linalg.LinAlgError("the Newton matrix is not finite")
        self.L = scipy.linalg.cholesky_banded(band, lower=True, check_finite=False)
        self.Z = self.tri(self.A_Bt, "N")
        if self.Z.shape[1]:  # without border rows LAPACK gets no empty matrix
            S = self.Z.T @ self.Z
            S[np.diag_indices_from(S)] += delta
            self.S = scipy.linalg.cho_factor(S, lower=True, check_finite=False)[0]

    def tri(self, b: np.ndarray, trans: str) -> np.ndarray:
        """L^-1 b, or L'^-1 b with ``trans`` "T"; an empty b is returned as
        it is, since LAPACK's dtbtrs corrupts the heap on one."""
        if not b.size:
            return b
        return scipy.linalg.lapack.dtbtrs(self.L, b, uplo="L", trans=trans)[0]

    def solve(self, r: np.ndarray) -> np.ndarray:
        """K^-1 r, in band order, by one LAPACK dpbtrs call; an empty r is
        returned as it is, as in ``tri``."""
        if not r.size:
            return r
        return scipy.linalg.lapack.dpbtrs(self.L, r, lower=1)[0]

    def schur_solve(self, r: np.ndarray) -> np.ndarray:
        """(δ + A_B K^-1 A_B')^-1 r."""
        if not r.size:
            return r
        return scipy.linalg.lapack.dpotrs(self.S, r, lower=1)[0]

    def solve_bordered(self, f: np.ndarray, g: np.ndarray):
        """(x, y) with K x - A_B' y = f and A_B x + δ y = g, x in band order:
        h = L^-1 f, y = S^-1 (g - Z'h) and x = L'^-1 (h + Z y)."""
        h = self.tri(f, "N")
        y = self.schur_solve(g - self.Z.T @ h)
        return self.tri(h + self.Z @ y, "T"), y


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
    if norm0 == 0.0:
        return KrylovOutcome(x, 0, 0.0, True)
    p = s.copy()
    # Buffers owned by the loop, updated in place. s, and the matvec result,
    # come from callbacks and may alias their argument (an identity
    # preconditioner returns it), so they are only ever read.
    tmp = np.empty_like(b)
    breakdown = None
    rel = 1.0
    it = 0
    for it in range(1, maxit + 1):
        Mp = matvec(p)
        pMp = float(p @ Mp)
        if pMp <= 0:
            breakdown = "indefinite-matrix"
            it -= 1
            break
        alpha = rs / pMp
        np.multiply(p, alpha, out=tmp)
        np.add(x, tmp, out=x)
        np.multiply(Mp, alpha, out=tmp)
        np.subtract(r, tmp, out=r)
        s = pinv(r)
        rs_new = float(r @ s)
        if rs_new < 0:
            breakdown = "non-spd-preconditioner"
            break
        rel = np.sqrt(rs_new) / norm0
        if rel <= tol:
            return KrylovOutcome(x, it, rel, True)
        np.multiply(p, rs_new / rs, out=p)
        np.add(s, p, out=p)
        rs = rs_new
    return KrylovOutcome(x, it, rel, False, breakdown_reason=breakdown)


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
        return KrylovOutcome(x, 0, 1.0, False, breakdown_reason="non-spd-preconditioner")
    beta1 = np.sqrt(beta1)
    if beta1 == 0.0:
        return KrylovOutcome(x, 0, 0.0, True)

    oldb, beta = 0.0, beta1
    dbar, epsln, phibar = 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    # Buffers owned by the loop, updated in place. y, and the matvec result,
    # come from callbacks and may alias their argument (an identity
    # preconditioner returns it), so they are only ever read.
    v = np.empty(n)
    w, w1, w2 = np.zeros(n), np.zeros(n), np.zeros(n)
    r2 = r1.copy()
    tmp = np.empty(n)
    rel = 1.0
    breakdown = None
    it = 0
    for it in range(1, maxit + 1):
        np.divide(y, beta, out=v)
        y = matvec(v)
        if it >= 2:
            np.multiply(r1, beta / oldb, out=tmp)
            y = np.subtract(y, tmp, out=r1)
        alfa = float(v @ y)
        np.multiply(r2, alfa / beta, out=tmp)
        # the new Lanczos vector goes into r1's buffer, whose content is spent
        r1, r2 = r2, np.subtract(y, tmp, out=r1)
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

        # w <- ((v - oldeps * w1) - delta * w2) / gamma, reusing the spent w1
        w1, w2, w = w2, w, w1
        np.multiply(w1, oldeps, out=tmp)
        np.subtract(v, tmp, out=w)
        np.multiply(w2, delta, out=tmp)
        np.subtract(w, tmp, out=w)
        np.divide(w, gamma, out=w)
        np.multiply(w, phi, out=tmp)
        np.add(x, tmp, out=x)

        rel = phibar / beta1
        if rel <= tol:
            return KrylovOutcome(x, it, rel, True)
    return KrylovOutcome(x, it, rel, False, breakdown_reason=breakdown)

"""Direct and iterative linear solvers used inside the interior point engine."""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
from scipy.linalg.blas import daxpy, ddot, dgemv, dscal, dtbsv

# A fixed mmap threshold of 4 MiB in place of glibc's sliding one, which
# rises to the largest block freed. It was set for SuperLU's large blocks;
# SuperLU no longer runs, and no solve is faster or slower for the call: the
# benchmark's raw solve p50 is within 2% with and without it on all four
# workloads, and peak memory within 0.4 MB. It stays because the benchmark's
# reference kernel, timed in the same process, is slower with it, and
# solve_ref divides by that kernel: without the call, logistic-minres reads
# a 20-30% higher solve_ref.p50 for solves that are no slower.
try:
    ctypes.CDLL("libc.so.6").mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD, 4 MiB
except (OSError, AttributeError):  # not glibc
    pass


@dataclass
class KrylovOutcome:
    solution: np.ndarray
    iterations: int
    final_relative_residual: float
    converged: bool
    breakdown_reason: Optional[str] = None


class BorderedBand:
    """The SPD K = C + diag(d) + A_R' diag(w) A_R as a band, and the dense
    border δ + A_B K^-1 A_B', both factored by Cholesky; δ is a scalar or a
    diagonal, one entry per border row.

    The pattern is fixed at construction: the reverse Cuthill-McKee order of
    |C| + |A_R|'|A_R|, C's lower band, the band positions into which
    A_R' diag(w) A_R = W @ w is added per factor, and those of the pairs
    of unknowns in ``couplings`` (2 x c, each pair once), whose entries of
    K each factor also adds; they must lie within the band. Vectors over
    K's unknowns are in band order: unknown k is column ``order[k]`` of C,
    A_R and A_B, and ``couplings`` name unknowns by those columns (kept in
    band positions).

    Both triangular sweeps, L^-1 b and L'^-1 b, run forward-style as one
    BLAS dtbsv each, the second on L' kept in upper band storage. ``split``
    forms the split form of the factored system for MINRES.
    """

    def __init__(self, C, A_R, A_B, couplings=None):
        N = A_R.shape[1]
        C = sp.csr_matrix((N, N)) if C is None else C.tocsr()
        self.order = scipy.sparse.csgraph.reverse_cuthill_mckee(
            (abs(C) + abs(A_R).T @ abs(A_R)).tocsr(), symmetric_mode=True)
        C = C.tocoo()
        self.where = where = np.argsort(self.order)  # the band position of each unknown
        self.A_R = sp.csr_matrix(A_R[:, self.order])
        self.A_Bt = A_B[:, self.order].T.toarray()
        # K's entries on and below the diagonal, in lower band storage [i - j, j]
        # in Fortran order, as LAPACK takes it, so entry (i, j) lies at
        # j (bw + 1) + i - j: C's are written once, and entry (i, j) of
        # A_R' diag(w) A_R is row (i, j) of W @ w, summing A_R[r, i] A_R[r, j] w_r
        # over the rows r
        lens = np.diff(self.A_R.indptr)
        sq = lens ** 2
        t = np.arange(sq.sum()) - np.repeat(np.cumsum(sq) - sq, sq)
        start, per = np.repeat(self.A_R.indptr[:-1], sq), np.repeat(lens, sq)
        k, l = start + t // per, start + t % per
        i, j = self.A_R.indices[k], self.A_R.indices[l]
        low = i >= j
        ci, cj = where[C.row], where[C.col]
        clow = ci >= cj
        self.bw = bw = int(max((i - j)[low].max(initial=0), (ci - cj)[clow].max(initial=0)))
        self.band_c = np.zeros((bw + 1, N), order="F")
        self.band_c[(ci - cj)[clow], cj[clow]] = C.data[clow]
        self.pos, slot = np.unique((j * (bw + 1) + i - j)[low], return_inverse=True)
        self.W = sp.csr_matrix(
            ((self.A_R.data[k] * self.A_R.data[l])[low],
             (slot, np.repeat(np.arange(lens.size), sq)[low])),
            shape=(self.pos.size, lens.size))
        self.couplings = where[np.empty((2, 0), dtype=int) if couplings is None
                               else couplings]
        ci, cj = self.couplings
        low, off = np.minimum(ci, cj), np.abs(ci - cj)
        if np.any(off > bw):
            raise ValueError("a coupling lies outside the band")
        self.cpos = low * (bw + 1) + off
        # each factor writes K into L and factors it there, in place, behind
        # bw² zeros in ``buf``: entry (t, j) of L' in upper band storage,
        # L[bw - t, j - bw + t], then lies at t bw + j (bw + 1) of buf, and its
        # unused upper-left corner on the zeros, so U is one strided copy
        self.buf = np.zeros(bw * bw + self.band_c.size)
        self.L = self.buf[bw * bw:].reshape(self.band_c.shape, order="F")
        self.U = np.zeros_like(self.band_c)

    def factor(self, d: np.ndarray, w: np.ndarray, delta: float | np.ndarray, c=None,
               rows=None):
        """K = LL' for ``d`` (band order), ``w`` (one per row of A_R) and,
        when given, ``c`` (one value per pair of ``couplings``), and the
        border as δ + Z'Z with Z = L^-1 A_B'. The rows ``rows`` of A_R, when
        given, border K too in this factor, after A_B's, with weight 0 in
        ``w``. A band that is not finite, or a Cholesky breakdown of the band
        or the border, raises LinAlgError."""
        band = self.L
        band[...] = self.band_c
        flat = band.reshape(-1, order="F")  # a view
        flat[self.pos] += self.W @ w
        if c is not None:
            flat[self.cpos] += c
        band[0] += d
        if not np.all(np.isfinite(band)):  # an infinite Θ, say
            raise np.linalg.LinAlgError("the Newton matrix is not finite")
        # LAPACK factors this Fortran-ordered band in place; U reads it there
        band[...] = scipy.linalg.cholesky_banded(band, lower=True, overwrite_ab=True,
                                                 check_finite=False)
        step = self.buf.itemsize
        np.copyto(self.U, np.lib.stride_tricks.as_strided(
            self.buf, band.shape, (self.bw * step, (self.bw + 1) * step)))
        self.Z, self.delta = self.A_Bt, delta
        if rows is not None and rows.size:
            self.Z = np.hstack([self.A_Bt, self.A_R[rows].T.toarray()])
        if self.Z.size:  # LAPACK's dtbtrs corrupts the heap on an empty matrix
            self.Z = scipy.linalg.lapack.dtbtrs(self.L, self.Z, uplo="L")[0]
        if self.Z.shape[1]:  # without border rows LAPACK gets no empty matrix
            S = self.Z.T @ self.Z
            S[np.diag_indices_from(S)] += delta
            self.S = scipy.linalg.cho_factor(S, lower=True, check_finite=False)[0]

    def forward(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b by one BLAS dtbsv sweep; an empty b is returned as it is,
        since dtbsv rejects one."""
        if not b.size:
            return b
        return dtbsv(self.bw, self.L, b, lower=1)

    def back(self, b: np.ndarray) -> np.ndarray:
        """L'^-1 b by one forward-style BLAS dtbsv sweep of L' in upper band
        storage; an empty b is returned as it is, as in ``forward``."""
        if not b.size:
            return b
        return dtbsv(self.bw, self.U, b)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """K^-1 r, in band order: L'^-1 L^-1 r."""
        return self.back(self.forward(r))

    def schur_solve(self, r: np.ndarray) -> np.ndarray:
        """(δ + A_B K^-1 A_B')^-1 r."""
        if not r.size:
            return r
        return scipy.linalg.lapack.dpotrs(self.S, r, lower=1)[0]

    def solve_bordered(self, f: np.ndarray, g: np.ndarray):
        """(x, y) with K x - A_B' y = f and A_B x + δ y = g, x in band order:
        h = L^-1 f, y = S^-1 (g - Z'h) and x = L'^-1 (h + Z y)."""
        h = self.forward(f)
        y = self.schur_solve(g - self.Z.T @ h)
        return self.back(h + self.Z @ y), y

    def split(self):
        """Form the split border of the factored system: with S = L_S L_S'
        the border's factor, keep L_S^-1 and, of Y = Z L_S^-T and
        G = L_S^-1 δ L_S^-T, the Fortran-ordered Y' and [Y; G']' that dgemv takes.
        ``split_apply`` then applies blockdiag(L, L_S)^-1 M blockdiag(L, L_S)^-T
        for M = [[-(K + Δ), A_B'], [A_B, δ]] and any symmetric Δ, and MINRES
        on it runs the iterates of MINRES on M under the preconditioner
        blockdiag(K, S)."""
        nb = self.Z.shape[1]
        self.Sinv = np.zeros((0, 0))
        if nb:
            self.Sinv = scipy.linalg.solve_triangular(self.S, np.eye(nb), lower=True,
                                                      check_finite=False)
        Y = self.Z @ self.Sinv.T
        G = (self.Sinv * self.delta) @ self.Sinv.T
        border = np.vstack([Y, G.T])  # C-ordered, so its transposes are Fortran-ordered
        self.Yt, self.YGt = border[:Y.shape[0]].T, border.T

    def split_rhs(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The split rhs (L^-1 f, L_S^-1 g) of the saddle system's (f, g)."""
        return np.concatenate([self.forward(f), self.Sinv @ g])

    def split_apply(self, v: np.ndarray, gap) -> np.ndarray:
        """T v, in a fresh array, for the split operator
        T = [[-(I + L^-1 Δ L^-T), Y], [Y', G]], with ``gap(w)`` = Δw in a
        fresh array. The sweeps run in place, L^-T v1 in the result and
        L^-1 Δw in gap's; Y v2 - (v1 + L^-1 Δw) is one dgemv with β = -1,
        and Y'v1 + G v2 = [Y; G']'v another."""
        na = self.L.shape[1]
        v1, v2 = v[:na], v[na:]
        out = np.empty(v.size)
        top = out[:na]
        np.copyto(top, v1)
        dtbsv(self.bw, self.U, top, overwrite_x=1)
        np.add(v1, dtbsv(self.bw, self.L, gap(top), lower=1, overwrite_x=1), out=top)
        if v2.size:
            dgemv(1.0, self.Yt, v2, beta=-1.0, y=top, overwrite_y=1, trans=1)
            dgemv(1.0, self.YGt, v, y=out[na:], overwrite_y=1)
        else:  # dgemv takes no empty vector
            np.negative(top, out=top)
        return out

    def unsplit(self, x: np.ndarray):
        """The saddle system's solution (L^-T x1, L_S^-T x2) from the split
        one x = (x1, x2), x1 over the unknowns in band order."""
        na = self.L.shape[1]
        return self.back(x[:na]), self.Sinv.T @ x[na:]


class CholeskyFactor:
    """Reusable SPD factor of the ASB baseline (no solver path uses it): M
    as a ``BorderedBand`` with no rows and no border, factored once. A band
    that is not finite, or a Cholesky breakdown, raises LinAlgError."""

    def __init__(self, M):
        n = M.shape[0]
        self.band = BorderedBand(M, sp.csr_matrix((0, n)), sp.csr_matrix((0, n)))
        self.band.factor(0.0, np.zeros(0), 0.0)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        band = self.band
        return band.solve(np.asarray(rhs, dtype=float)[band.order])[band.where]


def pcg(matvec, rhs, precond=None, tol: float = 1e-8, maxit: int = 1000) -> KrylovOutcome:
    """Preconditioned conjugate gradient for SPD systems.

    ``matvec`` applies the matrix; ``precond`` applies the inverse of an SPD
    preconditioner (identity when None). Stops on the preconditioned
    residual relative to the preconditioned rhs norm. Only a zero rhs
    converges at once; r'P^-1 r <= 0 at a nonzero one ends the solve
    unconverged, as a non-SPD preconditioner, and a non-finite r'P^-1 r,
    at the rhs or in the loop, as non-finite data.
    """
    pinv = precond if precond is not None else (lambda v: v)
    b = np.asarray(rhs, dtype=float)
    x = np.zeros_like(b)
    if not np.any(b):
        return KrylovOutcome(x, 0, 0.0, True)
    r = b.copy()
    s = pinv(r)
    rs = float(r @ s)
    if not math.isfinite(rs):
        return KrylovOutcome(x, 0, math.nan, False, breakdown_reason="non-finite")
    if rs <= 0:
        return KrylovOutcome(x, 0, 1.0, False, breakdown_reason="non-spd-preconditioner")
    norm0 = np.sqrt(rs)
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
        if not math.isfinite(rs_new):
            breakdown = "non-finite"
            break
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


def minres(matvec, rhs, tol: float = 1e-8, maxit: int = 100, x0=None) -> KrylovOutcome:
    """MINRES for symmetric (possibly indefinite) systems, unpreconditioned:
    ``matvec`` applies the matrix, and a preconditioned system is passed in
    split form (``BorderedBand.split``). Starts at ``x0`` (zero when None)
    and iterates on its residual b - T x0, but stops on the residual of the
    full system relative to the rhs norm, so that ``tol`` means the same
    from any start; a start that already meets it returns at once. A
    non-finite residual norm, at the start or in the loop, ends the solve
    unconverged as non-finite data."""
    b = np.asarray(rhs, dtype=float)
    n = b.size
    if x0 is None:
        x = np.zeros(n)
        r2 = b.copy()
        beta1 = scale = math.sqrt(ddot(r2, r2))
    else:
        x = np.array(x0, dtype=float)
        if x.shape != b.shape:
            raise ValueError(f"start of shape {x.shape} for a rhs of shape {b.shape}")
        r2 = b - matvec(x)
        beta1, scale = math.sqrt(ddot(r2, r2)), math.sqrt(ddot(b, b))
    if scale == 0.0:
        return KrylovOutcome(np.zeros(n), 0, 0.0, True)
    if not math.isfinite(beta1):
        return KrylovOutcome(x, 0, math.nan, False, breakdown_reason="non-finite")
    rel = beta1 / scale
    if rel <= tol:
        return KrylovOutcome(x, 0, rel, True)

    # r1 starts at zero, so the first iteration subtracts nothing from T v
    oldb, beta = beta1, beta1
    dbar, epsln, phibar = 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    # Buffers owned by the loop, updated in place by BLAS level-1 calls. The
    # matvec result comes from a callback and may alias its argument, so it
    # is only ever read.
    r1, v, w1, w2, tmp = np.zeros(n), np.empty(n), np.zeros(n), np.zeros(n), np.empty(n)
    eps = np.finfo(float).eps
    it = 0
    for it in range(1, maxit + 1):
        np.divide(r2, beta, out=v)
        y = matvec(v)
        # the next Lanczos vector y - (beta/oldb) r1 - (alfa/beta) r2 goes
        # into r1's buffer, whose content is spent. Its last term is not a
        # daxpy: fused into one rounding, it moves unpreconditioned solves
        # by up to 9 iterations against the textbook loop
        dscal(-beta / oldb, r1)
        daxpy(y, r1)
        alfa = ddot(v, r1)
        np.multiply(r2, alfa / beta, out=tmp)
        np.subtract(r1, tmp, out=r1)
        r1, r2 = r2, r1
        oldb = beta
        beta = math.sqrt(ddot(r2, r2))
        if not math.isfinite(beta):  # x keeps the last iteration's update
            return KrylovOutcome(x, it - 1, rel, False, breakdown_reason="non-finite")

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # w = (v - oldeps w1 - delta w2) / gamma in v's spent buffer; the
        # spent w1 takes v's place
        daxpy(w1, v, a=-oldeps)
        daxpy(w2, v, a=-delta)
        np.divide(v, gamma, out=v)
        daxpy(v, x, a=phi)
        v, w1, w2 = w1, w2, v

        rel = phibar / scale
        if rel <= tol:
            return KrylovOutcome(x, it, rel, True)
    return KrylovOutcome(x, it, rel, False)

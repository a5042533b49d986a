"""Direct and iterative linear solvers used inside the interior point engine."""
from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph

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
    A_R and A_B, and ``couplings`` name unknowns by those columns.

    Both triangular sweeps, L^-1 b and L'^-1 b, run forward-style as one
    BLAS dtbsv each, the second on L' kept in upper band storage. ``split``
    forms the split form of the factored system for MINRES.
    """

    def __init__(self, C, A_R, A_B, couplings=None):
        N = A_R.shape[1]
        C = sp.coo_matrix((N, N)) if C is None else C.tocoo()
        self.order = scipy.sparse.csgraph.reverse_cuthill_mckee(
            (abs(C) + abs(A_R).T @ abs(A_R)).tocsr(), symmetric_mode=True)
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
        ci, cj = where[np.empty((2, 0), dtype=int) if couplings is None else couplings]
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

    def factor(self, d: np.ndarray, w: np.ndarray, delta: float | np.ndarray, c=None):
        """K = LL' for ``d`` (band order), ``w`` (one per row of A_R) and,
        when given, ``c`` (one value per pair of ``couplings``), and the
        border as δ + Z'Z with Z = L^-1 A_B'. A band that is not finite, or a
        Cholesky breakdown of the band or the border, raises LinAlgError."""
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
        if self.Z.size:  # LAPACK's dtbtrs corrupts the heap on an empty matrix
            self.Z = scipy.linalg.lapack.dtbtrs(self.L, self.A_Bt, uplo="L")[0]
        if self.Z.shape[1]:  # without border rows LAPACK gets no empty matrix
            S = self.Z.T @ self.Z
            S[np.diag_indices_from(S)] += delta
            self.S = scipy.linalg.cho_factor(S, lower=True, check_finite=False)[0]

    def forward(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b by one BLAS dtbsv sweep; an empty b is returned as it is,
        since dtbsv rejects one."""
        if not b.size:
            return b
        return scipy.linalg.blas.dtbsv(self.bw, self.L, b, lower=1)

    def back(self, b: np.ndarray) -> np.ndarray:
        """L'^-1 b by one forward-style BLAS dtbsv sweep of L' in upper band
        storage; an empty b is returned as it is, as in ``forward``."""
        if not b.size:
            return b
        return scipy.linalg.blas.dtbsv(self.bw, self.U, b)

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
        the border's factor, keep L_S^-1, Y = Z L_S^-T and G = L_S^-1 δ L_S^-T.
        ``split_apply`` then applies blockdiag(L, L_S)^-1 M blockdiag(L, L_S)^-T
        for M = [[-(K + Δ), A_B'], [A_B, δ]] and any symmetric Δ, and MINRES
        on it runs the iterates of MINRES on M under the preconditioner
        blockdiag(K, S)."""
        nb = self.Z.shape[1]
        self.Sinv = np.zeros((0, 0))
        if nb:
            self.Sinv = scipy.linalg.solve_triangular(self.S, np.eye(nb), lower=True,
                                                      check_finite=False)
        self.Y = self.Z @ self.Sinv.T
        self.G = (self.Sinv * self.delta) @ self.Sinv.T

    def split_rhs(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The split rhs (L^-1 f, L_S^-1 g) of the saddle system's (f, g)."""
        return np.concatenate([self.forward(f), self.Sinv @ g])

    def split_apply(self, v: np.ndarray, gap) -> np.ndarray:
        """T v for the split operator T = [[-(I + L^-1 Δ L^-T), Y], [Y', G]],
        with ``gap(w)`` = Δw: one sweep each way and the border products."""
        na = self.L.shape[1]
        v1, v2 = v[:na], v[na:]
        out = np.empty(v.size)
        np.subtract(self.Y @ v2, v1, out=out[:na])
        out[:na] -= self.forward(gap(self.back(v1)))
        np.add(v1 @ self.Y, self.G @ v2, out=out[na:])
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
    residual relative to the preconditioned rhs norm.
    """
    pinv = precond if precond is not None else (lambda v: v)
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


def minres(matvec, rhs, tol: float = 1e-8, maxit: int = 100) -> KrylovOutcome:
    """MINRES for symmetric (possibly indefinite) systems, unpreconditioned:
    ``matvec`` applies the matrix, and a preconditioned system is passed in
    split form (``BorderedBand.split``). Stops on the residual relative to
    the rhs norm."""
    b = np.asarray(rhs, dtype=float)
    n = b.size
    x = np.zeros(n)
    r1 = b.copy()
    beta1 = np.sqrt(float(r1 @ r1))
    if beta1 == 0.0:
        return KrylovOutcome(x, 0, 0.0, True)

    oldb, beta = 0.0, beta1
    dbar, epsln, phibar = 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    # Buffers owned by the loop, updated in place. The matvec result comes
    # from a callback and may alias its argument, so it is only ever read.
    v = np.empty(n)
    w, w1, w2 = np.zeros(n), np.zeros(n), np.zeros(n)
    r2 = r1.copy()
    tmp = np.empty(n)
    rel = 1.0
    it = 0
    for it in range(1, maxit + 1):
        np.divide(r2, beta, out=v)
        y = matvec(v)
        if it >= 2:
            np.multiply(r1, beta / oldb, out=tmp)
            y = np.subtract(y, tmp, out=r1)
        alfa = float(v @ y)
        np.multiply(r2, alfa / beta, out=tmp)
        # the new Lanczos vector goes into r1's buffer, whose content is spent
        r1, r2 = r2, np.subtract(y, tmp, out=r1)
        oldb = beta
        beta = np.sqrt(float(r2 @ r2))

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
    return KrylovOutcome(x, it, rel, False)

"""Interior point-proximal method of multipliers engine.

Each outer iteration applies a Mehrotra-type predictor-corrector step to the
proximally regularized barrier subproblem; the Newton system is solved either
directly (augmented form), by PCG on the normal equations (diagonal Hessians),
or by MINRES on the split-preconditioned augmented system.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse._sparsetools import csr_matvec

from . import precond as precondmod
from .krylov import BorderedBand, minres, pcg
from .problems import ConvexProgram


# Read only by perfbench/tracing.py, whose ippmm.lu_factor span wraps its splu;
# no path of the solver factors with SuperLU through it.
spla = scipy.sparse.linalg

# Algorithm constants of the method; they are not caller settings.
SIGMA_MIN, SIGMA_MAX = 0.05, 0.95  # bounds on Mehrotra's centering parameter
BOUNDARY_FRACTION = 0.995          # fraction-to-the-boundary step rule
PENALTY_FLOOR = 1e-8               # lower bound on the penalties rho and delta
PENALTY_START = 1e-2               # initial penalties per unit of min(1, mu_0)
ESTIMATE_DECREASE = 0.95           # residual decrease that refreshes the estimates
FORCING, INNER_MAXIT = 0.3, 500    # inner Krylov solves: tolerance per residual, cap
INNER_TOL_MIN, INNER_TOL_MAX = 1e-10, 1e-2  # bounds on the inner relative tolerance
PREDICTOR_FORCING = 10.0           # the predictor's inner tolerance per unit of eta_k
ELIMINATION_LOSS = 1e4             # largest (A_u D A_u')_rr / E_r of an eliminated row


class UnsupportedStructureError(ValueError):
    """Requested solver path incompatible with the program's Hessian structure."""


@dataclass(frozen=True)
class SolverOptions:
    """A caller's settings; an invalid value raises ValueError on construction.
    ``precond``, ``htilde_choice``, ``dropping`` and ``eps_drop`` are only
    checked: each path has one preconditioner, the MINRES path takes H~ from
    the program, and the solver drops no variable."""

    tol: float = 1e-6
    max_iter: int = 100
    linear_solver: str = "direct-augmented"  # | pcg-normal | minres-augmented
    precond: str = "auto"                    # | fmri-block
    htilde_choice: str = "u-squared"         # | diag-h
    dropping: bool = False
    eps_drop: float = 1e-4
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.linear_solver not in _CONTEXTS:
            raise ValueError(f"unknown linear solver {self.linear_solver!r}")
        if (isinstance(self.tol, (bool, np.bool_)) or isinstance(self.max_iter, bool)
                or not (0 < self.tol < np.inf and self.max_iter >= 1
                        and isinstance(self.max_iter, (int, np.integer)))):
            raise ValueError("tol must be positive and finite, max_iter an integer >= 1")
        if self.dropping and not self.eps_drop > 0:
            raise ValueError("dropping needs a positive eps_drop")
        if self.htilde_choice not in ("u-squared", "diag-h"):
            raise ValueError(f"unknown htilde_choice {self.htilde_choice!r}")
        if self.precond != "auto" and (self.linear_solver, self.precond) != (
                "pcg-normal", "fmri-block"):
            raise ValueError(f"preconditioner {self.precond!r} does not apply to "
                             f"{self.linear_solver}")


@dataclass
class IpPmmState:
    """Full iterate: primal/dual vectors, proximal estimates and penalties."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    mu: float
    rho: float
    delta: float
    nonneg: np.ndarray
    # the non-negative set as the outer loop indexes it: a slice when
    # ``nonneg`` is one increasing run, so each read is a view, else ``nonneg``
    ia: slice | np.ndarray
    b_norm: float  # ||b||, the scale of the primal residual
    last_primal_norm: float = np.inf
    last_dual_norm: float = np.inf
    inner_tol: float = INNER_TOL_MAX  # eta_k: this iteration's relative Krylov tolerance
    system: Optional[NewtonSystem] = None  # the solve's linear-solver path

    def complementarity(self) -> float:
        return _mean_product(self.x[self.ia], self.z[self.ia])

    def xi_diag(self) -> np.ndarray:
        """Complementarity scaling z/x on the non-negative coordinates."""
        xi = np.zeros(self.x.size)
        ia = self.ia
        xi[ia] = self.z[ia] / self.x[ia]
        return xi


@dataclass
class SolveReport:
    status: str = "max-iterations"
    iterations: int = 0
    # one dict per evaluated iterate, the returned point's last: its scaled
    # "primal" and "dual" infeasibility and its "mu". One whose iteration
    # factored its system also holds the inner tolerance "eta", the
    # "linear_algebra_s" of the factor and its solves (a failed one too) and
    # the Krylov "solves", the predictor's then the corrector's, each with its
    # own target "tol", "iters", the achieved relative "residual" and
    # "converged" (none on the direct path)
    records: list = field(default_factory=list)
    time_s: float = 0.0
    final_objective: float = np.nan
    drop_audit: Optional[dict] = None  # always None: the solver drops no variable

    # each evaluated iterate's residual or μ, read from its record
    primal_inf_history = property(lambda self: [r["primal"] for r in self.records])
    dual_inf_history = property(lambda self: [r["dual"] for r in self.records])
    mu_history = property(lambda self: [r["mu"] for r in self.records])

    @property
    def inner_iterations(self) -> int:
        """Krylov iterations of every recorded solve."""
        return sum(out["iters"] for out in self._solves())

    @property
    def inner_capped(self) -> int:
        """Recorded Krylov solves that ended unconverged."""
        return sum(not out["converged"] for out in self._solves())

    def _solves(self):
        return (out for record in self.records for out in record.get("solves", ()))

    def to_json(self) -> str:
        """Strict JSON: a non-finite residual, μ or objective is null."""
        return strict_json({
            "status": self.status,
            "iters": self.iterations,
            "time_s": self.time_s,
            "objective": self.final_objective,
            "inner_iters": self.inner_iterations,
            "inner_capped": self.inner_capped,
            "records": self.records,
        })


def strict_json(report: dict) -> str:
    """``report`` as indented strict JSON: a non-finite float, at any depth
    of its lists and dicts, is null."""
    def finite(v):
        if isinstance(v, dict):
            return {key: finite(u) for key, u in v.items()}
        if isinstance(v, list):
            return list(map(finite, v))
        return None if isinstance(v, float) and not np.isfinite(v) else v
    return json.dumps(finite(report), indent=2, allow_nan=False)


def _mean_product(x: np.ndarray, z: np.ndarray) -> float:
    """The average complementarity product x'z / |x| of the non-negative
    coordinates' ``x`` and ``z``; 0 on an empty set."""
    return float(x @ z) / x.size if x.size else 0.0


def initial_state(program: ConvexProgram, options: SolverOptions) -> IpPmmState:
    """Unit interior start unless the caller gives ``x0``; estimates track it.

    The penalties start at rho = delta = PENALTY_START * min(1, mu_0), not
    below PENALTY_FLOOR: a start at 1 outweighs the curvature of a program
    with a small Hessian, and each step is then a short proximal step.
    They shrink at mu's rate, so on a program with no bounded variable,
    whose mu is 0 throughout, they start at the floor and the method is
    Newton's on its regularized KKT system."""
    n, m, nonneg = program.n, program.m, program.nonneg
    ia = nonneg
    if nonneg.size and np.all(np.diff(nonneg) == 1):
        ia = slice(int(nonneg[0]), int(nonneg[-1]) + 1)
    x = np.zeros(n)
    x[ia] = 1.0
    if options.x0 is not None:
        x = np.array(options.x0, dtype=float)
        if x.shape != (n,) or not np.all(np.isfinite(x)):
            raise ValueError(f"starting point must be a finite vector of length {n}")
        if np.any(x[ia] <= 0):
            raise ValueError("override starting point must be interior")
    y = np.zeros(m)
    z = np.zeros(n)
    z[ia] = 1.0
    mu = _mean_product(x[ia], z[ia])
    reg = max(PENALTY_START * min(1.0, mu), PENALTY_FLOOR)
    return IpPmmState(x=x, y=y, z=z, zeta=x.copy(), eta=y.copy(), mu=mu,
                      rho=reg, delta=reg, nonneg=nonneg, ia=ia,
                      b_norm=float(np.linalg.norm(program.b)))


# ---------------------------------------------------------------------------
# Residuals and right-hand side


def kkt_residuals(state: IpPmmState, program: ConvexProgram):
    """Scaled primal/dual infeasibility and average complementarity, with
    b - Ax, grad - A'y and the pair of norms (||b - Ax||, ||grad - A'y - z||)."""
    g = program.gradient(state.x)
    rp = program.b - program.A @ state.x
    gy = g - program.A.T @ state.y
    norms = float(np.linalg.norm(rp)), float(np.linalg.norm(gy - state.z))
    primal = norms[0] / (1.0 + state.b_norm)
    dual = norms[1] / (1.0 + np.linalg.norm(g))
    return primal, dual, state.complementarity(), rp, gy, norms


def check_termination(primal: float, dual: float, mu: float, tol: float) -> bool:
    return primal <= tol and dual <= tol and mu <= tol


def newton_rhs(state: IpPmmState, rp: np.ndarray, gy: np.ndarray, sigma: float,
               correction: Optional[np.ndarray] = None):
    """Right-hand side of the reduced augmented system, from ``rp`` = b - Ax
    and ``gy`` = grad - A'y of ``kkt_residuals``.

    ``correction`` carries the second-order complementarity products
    dx_aff * dz_aff of the predictor for the corrector solve.
    """
    r1 = gy
    if sigma != 0.0:
        r1 = r1 + sigma * state.rho * (state.x - state.zeta)
    ia = state.ia
    if state.nonneg.size:
        barrier = np.zeros(state.x.size)
        if sigma != 0.0:
            barrier[ia] -= sigma * state.mu / state.x[ia]
        if correction is not None:
            barrier[ia] += correction[ia] / state.x[ia]
        r1 = r1 + barrier
    r2 = rp - sigma * state.delta * (state.y - state.eta)
    return r1, r2


# ---------------------------------------------------------------------------
# Linear-solver paths. Each is built once per solve from the program alone,
# and ``factor(state)`` writes what depends on the iterate at every outer
# iteration. Its ``solve(r1, r2, tol)`` serves both the predictor and
# the corrector: r1 is the full-length rhs of ``newton_rhs``, dx comes back
# full length, and a Krylov path solves to ``tol``.


class NewtonSystem:
    """The reduced Newton system that the three paths share, built once per
    solve.

    ``_reduce`` finds the slack pairs, which leave with their rows, and
    reduces every other split pair (x+, x-) of ``program.pairs`` to its
    plus member's unknown u = dx+ - dx-. With e = 1/(Θ + ρ), an unknown's
    diagonal is dt = 1/(e+ + e-) for a u and 1/e for an unpaired variable.
    That leaves [[-K, A_B'], [A_B, E_B]] over the unknowns and the border
    rows B, with K = C + diag(dt) + A_R' E_R^-1 A_R, C the Hessian over the
    unknowns and E = δ + Σ a²(e+ + e-) of each row over its slack pairs (δ
    on a row without one). ``_reduce`` builds its one ``krylov.BorderedBand``,
    and ``_factor_band`` makes the one factor call of every path.
    ``_eliminated`` recovers the slack rows around a path's bordered core:
    with the factored system as that core, ``_direct`` is the direct path's
    step, and at r1 = 0 the PCG path's preconditioner. ``solves`` holds the
    Krylov solves of the current factor alone, each recorded by ``_count``.
    """

    @classmethod
    def at(cls, state: IpPmmState, program: ConvexProgram):
        """The solve's system, built on the first call, with ``solves``
        emptied before it is factored at ``state``: a failed factor has none."""
        if state.system is None:
            state.system = cls(program)
        state.system.solves = []
        state.system.factor(state)
        return state.system

    def _reduce(self, program: ConvexProgram, Q=None, couplings=None):
        """Check that the two columns of each pair are exact negatives in A,
        and in Q when it is given (raises ValueError). Keep the slack pairs,
        whose two columns each hold one entry of A, in one row, and that the
        Hessian does not touch, each member's row and entry, and the rows B
        that hold none. Build the band of K over the other unknowns, with
        C = ``Q`` over them or None, the slack rows eliminated, the rows B
        bordering and H~'s ``couplings`` (variables, 2 x c, or None), which
        must join unknowns (raises UnsupportedStructureError). Keep the
        unknowns in band order (``rows``) and each u's band position
        (``kp``); returns A over the unknowns in their own order."""
        A = program.A.tocsc()
        p, q = program.pairs
        blocks = [A] if program.Q is None else [A, program.Q.tocsc()]
        if any((M[:, p] + M[:, q]).count_nonzero() for M in blocks):
            raise ValueError("the A and Q columns of each pair must be exact negatives")
        count = np.diff(A.indptr)
        head = A.indptr[:-1]  # a column's first entry, if it has one
        row, val = np.append(A.indices, -1)[head], np.append(A.data, 0.0)[head]
        slack = (count[p] == 1) & (count[q] == 1) & (row[p] == row[q])
        if program.Q is not None:  # a candidate's Q columns must hold no nonzero
            cand = np.flatnonzero(slack)
            touched = blocks[1][:, np.r_[p[cand], q[cand]]]
            touched.eliminate_zeros()
            slack[cand[np.diff(touched.indptr).reshape(2, -1).any(axis=0)]] = False
        self.pairs = np.concatenate([p[slack], q[slack]])  # members of slack pairs
        self.prow, self.pval = row[self.pairs], val[self.pairs]
        self.p, self.q = p[~slack], q[~slack]  # the other pairs
        in_r = np.bincount(self.prow, minlength=program.m) > 0  # the slack rows
        self.B, self.elim = np.flatnonzero(~in_r), np.flatnonzero(in_r)
        unknown = np.ones(program.n, dtype=bool)  # in no slack pair, no pair's minus
        unknown[np.r_[self.pairs, self.q]] = False
        column = np.cumsum(unknown) - 1  # each unknown's position among them
        if couplings is not None:
            if not np.all(unknown[couplings]):
                raise UnsupportedStructureError("H~ may couple only the reduced unknowns")
            couplings = column[couplings]
        C = None if Q is None else Q[unknown][:, unknown]
        A_u = program.A[:, unknown]
        self.band = BorderedBand(C, A_u[self.elim], A_u[self.B], couplings)
        self.A_Rt = self.band.A_R.T
        self.rows = np.flatnonzero(unknown)[self.band.order]
        self.kp = self.band.where[column[self.p]]
        self.solves = []
        return A_u

    def _refresh(self, state: IpPmmState, h=0.0):
        """Take Θ = ``state.xi_diag()``, e = 1/(h + Θ + ρ) and each row's E
        from ``state``; ``h`` is a Hessian diagonal folded into e. A weight
        h + Θ + ρ that is not positive raises LinAlgError."""
        g = h + state.xi_diag() + state.rho
        if np.any(g <= 0):
            raise np.linalg.LinAlgError("diagonal weights must be positive")
        self.e = 1.0 / g
        self.esum = self.e.copy()  # an unknown's e: e+ + e- on a u
        self.esum[self.p] += self.e[self.q]
        self.E = state.delta + np.bincount(self.prow, self.pval ** 2 * self.e[self.pairs],
                                           minlength=self.B.size + self.elim.size)

    def _factor_band(self, h=0.0, c=None, loss=np.zeros(0, dtype=int)):
        """Take dt in band order and the eliminated rows' E, and factor the
        band with dt + ``h`` on its diagonal and the values ``c`` of its
        couplings. The eliminated rows ``loss`` (positions among them; none
        by default) border K in this factor too: ``border`` is B and them.
        E_elim = inf gives them weight 0 in K, and u and dy_R vanish on them."""
        self.dt = 1.0 / self.esum[self.rows]
        self.E_elim = self.E[self.elim]
        self.E_elim[loss] = np.inf
        self.border = np.concatenate([self.B, self.elim[loss]])
        self.band.factor(self.dt + h, 1.0 / self.E_elim, self.E[self.border], c, loss)

    def _reduced_rhs(self, r1: np.ndarray, r2: np.ndarray):
        """The reduced system's rhs from the full-length one: rt over the
        unknowns (band order; dt (e+ r1+ - e- r1-) on a u) and rs over the
        rows, each row's r2 with its slack pairs' r1 folded in."""
        c, e, p, q, kp = self.pairs, self.e, self.p, self.q, self.kp
        rs = r2 + np.bincount(self.prow, self.pval * e[c] * r1[c], minlength=r2.size)
        rt = r1[self.rows]
        rt[kp] = self.dt[kp] * (e[p] * r1[p] - e[q] * r1[q])
        return rt, rs

    def _eliminated(self, rt, rs, bordered):
        """(xu, dy) of the reduced system at the rhs (rt, rs): with u = rs/E
        on the eliminated rows, ``bordered(f, g)`` returns the (xu, dy_B) of
        -K xu + A_B' dy_B = f = rt - A_R' u and A_B xu + E_B dy_B = g = rs_B,
        and dy_R = u - A_R xu / E follows."""
        u = rs[self.elim] / self.E_elim
        xu, yb = bordered(rt - self.A_Rt @ u, rs[self.border])
        dy = np.empty(rs.size)
        dy[self.elim] = u - (self.band.A_R @ xu) / self.E_elim
        dy[self.border] = yb  # a row that borders K in this factor takes yb
        return xu, dy

    def _direct(self, rt, rs):
        """(xu, dy) of the factored reduced system at the rhs (rt, rs)."""
        return self._eliminated(rt, rs, lambda f, g: self.band.solve_bordered(-f, g))

    def solve(self, r1: np.ndarray, r2: np.ndarray, tol: float):
        """The full-length (dx, dy) at the full-length rhs (r1, r2): the
        path's ``_reduced_solve`` of the reduced rhs to the relative
        tolerance ``tol``, expanded."""
        rt, rs = self._reduced_rhs(r1, r2)
        return self._expand(r1, rt, *self._reduced_solve(rt, rs, tol))

    def _expand(self, r1, rt, xu, dy):
        """The full-length (dx, dy) of the reduced solution (xu, dy)."""
        c, e, p, q, kp = self.pairs, self.e, self.p, self.q, self.kp
        dx = np.zeros(e.size)
        dx[self.rows] = xu
        dx[c] = e[c] * (self.pval * dy[self.prow] - r1[c])
        gp = self.dt[kp] * xu[kp] + rt[kp]  # recover each pair from its u
        dx[p] = (gp - r1[p]) * e[p]
        dx[q] = -(gp + r1[q]) * e[q]
        return dx, dy

    def _count(self, out, tol: float) -> np.ndarray:
        """Record one Krylov solve to ``tol`` in ``solves``; returns its
        solution. One that met non-finite data raises LinAlgError, after the
        record."""
        self.solves.append({
            "tol": tol, "iters": out.iterations,
            "residual": out.final_relative_residual, "converged": out.converged})
        if out.breakdown_reason == "non-finite":
            raise np.linalg.LinAlgError("a Krylov solve met non-finite data")
        return out.solution


class AugmentedSystem(NewtonSystem):
    """MINRES path: the reduced system of ``NewtonSystem`` with C = H, by
    MINRES in split form under the block-diagonal preconditioner built
    from H~.

    The saddle matrix is M = [[-K, A_B'], [A_B, δI]] over the unknowns and
    the rows without a slack pair, with K = H + diag(dt) + A_R' E^-1 A_R;
    dy_R and the pair steps follow in closed form. Its preconditioner is
    blockdiag(P, S), S = δI + A_B P^-1 A_B', with P = K and H~ (the second
    result of the program's ``hess_action``) in place of H, factored in the
    band built once per solve: H~'s diagonal joins dt, and its couplings,
    which must join unknowns within the band (on Poisson the TV's pixel
    pairs), are added into the band at each factor. With P = LL' and S = L_S L_S',
    MINRES runs on the split operator
    blockdiag(L, L_S)^-1 M blockdiag(L, L_S)^-T (``BorderedBand.split``),
    whose iterates are those of MINRES on M under blockdiag(P, S). Since
    K = P + Δ, Δ = H - H~, this system supplies only Δw: A_R, E and dt never
    enter an iteration. The predictor's MINRES starts at zero and the
    corrector's from the predictor's split solution, which ``factor``
    clears: the two rhs differ only by the centring and second-order terms.
    The predictor's step is never taken, so it solves to the looser
    min(``INNER_TOL_MAX``, ``PREDICTOR_FORCING`` η_k) and the corrector
    to η_k.
    """

    def __init__(self, program: ConvexProgram):
        self.program = program
        self._reduce(program, couplings=program.couplings)
        self.na = self.rows.size
        # H~ over the unknowns in band order: its diagonal, then each coupling
        # twice. Each entry's value is its place in that list, so the CSR's
        # values, sorted by the COO step, are ``hsel``: the entry that each
        # stored position holds (the step sums repeats; ConvexProgram rejects them)
        i, j = self.band.couplings
        diag = np.arange(self.na)
        rows, cols = np.r_[diag, i, j], np.r_[diag, j, i]
        self.htilde = sp.csr_matrix((np.arange(rows.size, dtype=float), (rows, cols)),
                                    shape=(self.na, self.na))
        self.hsel = self.htilde.data.astype(int)
        self._htilde_w = np.empty(self.na)  # H~ w, by one csr_matvec per call

    def factor(self, state: IpPmmState):
        self._refresh(state)
        self._hess, htilde = self.program.hess_action(state.x)  # H~: diagonal, couplings
        k = htilde.size - self.program.couplings.shape[1]  # the Hessian block's length
        if self.rows.max(initial=-1) >= k:
            raise UnsupportedStructureError("an unknown lies outside the Hessian block")
        self._block = np.zeros(k)  # the Hessian's argument, zero off the unknowns
        diag, c = htilde[self.rows], htilde[k:]
        self._factor_band(diag, c)
        self.band.split()
        self.htilde.data[:] = np.concatenate([diag, c, c])[self.hsel]
        self._start = None

    def _gap(self, w: np.ndarray) -> np.ndarray:
        """Δw = (H - H~) w over the unknowns (band order)."""
        self._block[self.rows] = w
        hw, htw, H = self._hess(self._block)[self.rows], self._htilde_w, self.htilde
        htw.fill(0.0)  # csr_matvec adds H~ w into it
        csr_matvec(self.na, self.na, H.indptr, H.indices, H.data, w, htw)
        return np.subtract(hw, htw, out=hw)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.band.split_apply(v, self._gap)

    def _reduced_solve(self, rt, rs, tol):
        """(xu, dy) by MINRES on the split operator, started from the last
        split solution of this factor."""
        def split_minres(f, g):
            out = minres(self.matvec, self.band.split_rhs(f, g), tol=tol,
                         maxit=INNER_MAXIT, x0=self._start)
            self._start = self._count(out, tol)
            return self.band.unsplit(self._start)
        return self._eliminated(rt, rs, split_minres)


class SaddleMatrix(NewtonSystem):
    """Direct path: the reduced system of ``NewtonSystem`` with C = Q over
    the unknowns, factored by Cholesky: the band K in the order found once
    per solve, and the dense border δI + A_B K^-1 A_B'.
    """

    def __init__(self, program: ConvexProgram):
        if program.Q is None:
            raise UnsupportedStructureError(
                "direct path needs an explicit quadratic Hessian")
        self._reduce(program, program.Q)

    def factor(self, state: IpPmmState):
        self._refresh(state)
        self._factor_band()

    def _reduced_solve(self, rt, rs, tol):
        return self._direct(rt, rs)  # exact: no tolerance applies


class NormalEquations(NewtonSystem):
    """PCG path: the normal equations of the reduced system of
    ``NewtonSystem``, with G's Hessian diagonal, that of ``program.Q``,
    folded into e and C = None, over all m rows:
    (A_u D A_u' + diag(E)) dy = rs + A_u D rt, with A_u the columns of the
    unknowns in band order and D = 1/dt their e (e+ + e- on a u). That is
    A G^-1 A' + δI with G diagonal.

    PCG runs under its exact inverse: the direct path's bordered solve
    (``NewtonSystem._direct``) at r1 = 0. The rows B without a slack pair
    (on fused lasso, the data rows) border K; so does, in each factor, a
    slack row whose (A_u D A_u')_rr exceeds ``ELIMINATION_LOSS`` E_r,
    which would lose that factor in accuracy to its elimination.
    """

    def __init__(self, program: ConvexProgram):
        if program.Q is None or np.any((Q := program.Q.tocoo()).data[Q.row != Q.col]):
            raise UnsupportedStructureError(
                "normal equations need a diagonal Hessian; use the augmented path")
        self.hdiag = program.Q.diagonal()
        self.A_u = self._reduce(program)[:, self.band.order]
        self.A_ut = self.A_u.T
        self.A_R2 = self.band.A_R.power(2)

    def factor(self, state: IpPmmState):
        self._refresh(state, self.hdiag)
        loss = self.A_R2 @ self.esum[self.rows] > ELIMINATION_LOSS * self.E[self.elim]
        self._factor_band(loss=np.flatnonzero(loss))

    def _apply_inverse(self, r: np.ndarray) -> np.ndarray:
        """(A G^-1 A' + δI)^-1 r: the reduced system's dy at r1 = 0."""
        return self._direct(0.0, r)[1]

    def matvec(self, dy: np.ndarray) -> np.ndarray:
        return self.A_u @ ((self.A_ut @ dy) / self.dt) + self.E * dy

    def _reduced_solve(self, rt, rs, tol):
        """dy by PCG on rs + A_u D rt (r2 + A G^-1 r1), then xu = (A_u'dy - rt)/dt."""
        # built per solve: kept on the system, it would make a reference cycle
        # that holds each solve's system until a full garbage collection
        precond = precondmod.build_fmri_normal_precond(self._apply_inverse)
        dy = self._count(pcg(self.matvec, rs + self.A_u @ (rt / self.dt),
                             precond.apply_inverse, tol=tol, maxit=INNER_MAXIT), tol)
        return (self.A_ut @ dy - rt) / self.dt, dy


_CONTEXTS = {
    "direct-augmented": SaddleMatrix.at,
    "pcg-normal": NormalEquations.at,
    "minres-augmented": AugmentedSystem.at,
}


# ---------------------------------------------------------------------------
# Steps


def step_lengths(state: IpPmmState, dx: np.ndarray, dz: np.ndarray):
    """Fraction-to-the-boundary primal and dual step lengths in (0, 1]."""
    ia = state.ia

    def max_step(v, dv):
        neg = np.flatnonzero(dv < 0)
        if not neg.size:
            return 1.0
        return min(1.0, BOUNDARY_FRACTION * float(np.min(-v[neg] / dv[neg])))

    return max_step(state.x[ia], dx[ia]), max_step(state.z[ia], dz[ia])


def _dual_step(state, dx, rc):
    """dz from dx and the complementarity rhs ``rc`` of the non-negative
    variables; 0 elsewhere."""
    ia = state.ia
    dz = np.zeros(state.x.size)
    dz[ia] = (rc - state.z[ia] * dx[ia]) / state.x[ia]
    return dz


def predictor_corrector_step(state: IpPmmState, ctx, rp: np.ndarray,
                             gy: np.ndarray):
    """Affine predictor then centering-corrector solve with the same matrix."""
    ia = state.ia

    # predictor: sigma = 0, complementarity rhs -XZe; its step is never taken,
    # only sigma and the second-order term read it, so it may solve looser
    loose = min(INNER_TOL_MAX, PREDICTOR_FORCING * state.inner_tol)
    dx_aff, _ = ctx.solve(*newton_rhs(state, rp, gy, sigma=0.0), tol=loose)
    dz_aff = _dual_step(state, dx_aff, -state.x[ia] * state.z[ia])

    ap, ad = step_lengths(state, dx_aff, dz_aff)
    mu_aff = _mean_product(state.x[ia] + ap * dx_aff[ia], state.z[ia] + ad * dz_aff[ia])
    ratio = mu_aff / state.mu if state.mu > 0 else 0.0  # mu = 0 gives SIGMA_MIN
    sigma = float(np.clip(ratio ** 3, SIGMA_MIN, SIGMA_MAX))

    # corrector: centering plus second-order complementarity correction
    soc = dx_aff * dz_aff
    dx, dy = ctx.solve(*newton_rhs(state, rp, gy, sigma=sigma, correction=soc),
                       tol=state.inner_tol)
    rc = sigma * state.mu - state.x[ia] * state.z[ia] - soc[ia]
    return dx, dy, _dual_step(state, dx, rc)


def update_penalties_and_estimates(state: IpPmmState, primal_norm: float,
                                   dual_norm: float):
    """Shrink penalties at the rate of mu; refresh both proximal estimates (and
    both reference norms) when either residual has fallen to ESTIMATE_DECREASE
    times its value at the last refresh."""
    mu_new = state.complementarity()
    if state.mu > 0 and mu_new >= 0:
        ratio = min(1.0, mu_new / state.mu)
        state.rho = max(PENALTY_FLOOR, state.rho * ratio)
        state.delta = max(PENALTY_FLOOR, state.delta * ratio)
    state.mu = mu_new
    if (primal_norm <= ESTIMATE_DECREASE * state.last_primal_norm
            or dual_norm <= ESTIMATE_DECREASE * state.last_dual_norm):
        state.zeta = state.x.copy()
        state.eta = state.y.copy()
        state.last_primal_norm = primal_norm
        state.last_dual_norm = dual_norm


def solve(program: ConvexProgram, options: Optional[SolverOptions] = None):
    """Run IP-PMM; returns ((x, y, z), SolveReport)."""
    options = options or SolverOptions()
    t_start = time.perf_counter()
    state = initial_state(program, options)
    report = SolveReport()
    status = "max-iterations"

    # evaluation k is of the k-th iterate; the last one is of the returned point
    for k in range(options.max_iter + 1):
        primal, dual, mu, rp, gy, norms = kkt_residuals(state, program)
        record = {"primal": primal, "dual": dual, "mu": mu}
        report.records.append(record)
        if not (np.isfinite(primal) and np.isfinite(dual) and np.isfinite(mu)):
            status = "numerical-failure"
            break
        if check_termination(primal, dual, mu, options.tol):
            status = "optimal"
            break
        if k == options.max_iter:
            break
        # forcing term: the Krylov solves get more accurate as the iterate nears optimal
        state.inner_tol = max(INNER_TOL_MIN,
                              min(INNER_TOL_MAX, FORCING * max(primal, dual, mu)))

        t0 = time.perf_counter()
        try:
            ctx = _CONTEXTS[options.linear_solver](state, program)
            dx, dy, dz = predictor_corrector_step(state, ctx, rp, gy)
        except (RuntimeError, np.linalg.LinAlgError):
            status = "numerical-failure"
            break
        finally:  # a failed iteration's linear algebra and Krylov work count too
            record.update(eta=state.inner_tol, linear_algebra_s=time.perf_counter() - t0,
                          solves=[] if state.system is None else state.system.solves)

        ap, ad = step_lengths(state, dx, dz)
        state.x = state.x + ap * dx
        state.y = state.y + ad * dy
        state.z = state.z + ad * dz
        update_penalties_and_estimates(state, *norms)
        report.iterations = k + 1

    report.status = status
    report.final_objective = float(program.objective(state.x))
    report.time_s = time.perf_counter() - t_start
    return (state.x, state.y, state.z), report

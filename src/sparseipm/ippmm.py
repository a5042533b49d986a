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
ESTIMATE_DECREASE = 0.95           # residual decrease that refreshes the estimates
FORCING, INNER_MAXIT = 0.1, 500    # inner Krylov solves: tolerance per residual, cap
INNER_TOL_MIN, INNER_TOL_MAX = 1e-10, 1e-2  # bounds on the inner relative tolerance
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
        if not (0 < self.tol < np.inf and isinstance(self.max_iter, (int, np.integer))
                and self.max_iter >= 1):
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
    last_primal_norm: float = np.inf
    last_dual_norm: float = np.inf
    inner_tol: float = INNER_TOL_MAX  # relative tolerance of this iteration's Krylov solves
    system: Optional[NewtonSystem] = None  # the solve's linear-solver path

    def complementarity(self) -> float:
        ia = self.nonneg
        if ia.size == 0:
            return 0.0
        return float(self.x[ia] @ self.z[ia]) / ia.size

    def xi_diag(self) -> np.ndarray:
        """Complementarity scaling z/x on the non-negative coordinates."""
        xi = np.zeros(self.x.size)
        ia = self.nonneg
        xi[ia] = self.z[ia] / self.x[ia]
        return xi


@dataclass
class SolveReport:
    status: str = "max-iterations"
    iterations: int = 0
    primal_inf_history: list = field(default_factory=list)
    dual_inf_history: list = field(default_factory=list)
    mu_history: list = field(default_factory=list)
    inner_iterations: int = 0
    inner_capped: int = 0  # inner Krylov solves that ended unconverged
    time_s: float = 0.0
    phase_times: dict = field(default_factory=dict)
    final_objective: float = np.nan
    drop_audit: Optional[dict] = None  # always None: the solver drops no variable

    def to_json(self) -> str:
        """Strict JSON: a non-finite history entry or objective is null."""
        return strict_json({
            "status": self.status,
            "iters": self.iterations,
            "primal_inf": self.primal_inf_history,
            "dual_inf": self.dual_inf_history,
            "mu": self.mu_history,
            "time_s": self.time_s,
            "inner_iters": self.inner_iterations,
            "inner_capped": self.inner_capped,
            "objective": self.final_objective,
            "phase_times": self.phase_times,
        })


def strict_json(report: dict) -> str:
    """``report`` as indented strict JSON: a non-finite float or list entry is null."""
    def finite(v):
        return None if isinstance(v, float) and not np.isfinite(v) else v
    return json.dumps({key: list(map(finite, v)) if isinstance(v, list) else finite(v)
                       for key, v in report.items()}, indent=2, allow_nan=False)


def initial_state(program: ConvexProgram, options: SolverOptions) -> IpPmmState:
    """Unit interior start unless the caller gives ``x0``; estimates track it."""
    n, m = program.n, program.m
    x = np.zeros(n)
    x[program.nonneg] = 1.0
    if options.x0 is not None:
        x = np.array(options.x0, dtype=float)
        if x.shape != (n,) or not np.all(np.isfinite(x)):
            raise ValueError(f"starting point must be a finite vector of length {n}")
        if np.any(x[program.nonneg] <= 0):
            raise ValueError("override starting point must be interior")
    y = np.zeros(m)
    z = np.zeros(n)
    z[program.nonneg] = 1.0
    ia = program.nonneg
    mu = float(x[ia] @ z[ia]) / ia.size if ia.size else 0.0
    reg = max(min(1.0, mu) if mu > 0 else 1.0, PENALTY_FLOOR)
    return IpPmmState(x=x, y=y, z=z, zeta=x.copy(), eta=y.copy(), mu=mu,
                      rho=reg, delta=reg, nonneg=program.nonneg)


# ---------------------------------------------------------------------------
# Residuals and right-hand side


def kkt_residuals(state: IpPmmState, program: ConvexProgram):
    """Scaled primal/dual infeasibility and average complementarity, with
    b - Ax, grad - A'y and the dual residual grad - A'y - z."""
    g = program.gradient(state.x)
    rp = program.b - program.A @ state.x
    gy = g - program.A.T @ state.y
    rd = gy - state.z
    primal = float(np.linalg.norm(rp)) / (1.0 + np.linalg.norm(program.b))
    dual = float(np.linalg.norm(rd)) / (1.0 + np.linalg.norm(g))
    return primal, dual, state.complementarity(), rp, gy, rd


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
    ia = state.nonneg
    if ia.size:
        barrier = np.zeros(state.x.size)
        if sigma != 0.0:
            barrier[ia] -= sigma * state.mu / state.x[ia]
        if correction is not None:
            barrier[ia] += correction[ia] / state.x[ia]
        r1 = r1 + barrier
    r2 = rp - sigma * state.delta * (state.y - state.eta)
    return r1, r2


# ---------------------------------------------------------------------------
# Linear-solver paths. Each is built once per solve from the program and the
# options, and ``factor(state)`` writes what depends on the iterate at every
# outer iteration. Its ``solve(r1, r2)`` serves both the predictor and the
# corrector: r1 is the full-length rhs of ``newton_rhs`` and dx comes back
# full length.


class NewtonSystem:
    """The reduced Newton system that the three paths share, built once per
    solve, and the Krylov counters of the solve.

    ``_reduce`` finds the slack pairs (``_find_slack_pairs``), which leave
    with their rows, and reduces every other split pair (x+, x-) of
    ``program.pairs`` to its plus member's unknown u = dx+ - dx-. With
    e = 1/(Θ + ρ), an unknown's diagonal is dt = 1/(e+ + e-) for a u and
    1/e for an unpaired variable. That leaves
    [[-K, A_B'], [A_B, E_B]] over the unknowns and the border rows B, with
    K = C + diag(dt) + A_R' E_R^-1 A_R, C the Hessian over the unknowns and
    E = δ + Σ a²(e+ + e-) of each row over its slack pairs (δ on a row
    without one). ``_build_band`` builds its ``krylov.BorderedBand``, and
    ``_factor_band`` makes the one factor call of every path. ``_direct``
    solves the factored system: the direct path's step, and at r1 = 0 the
    PCG path's preconditioner.
    """

    inner_iterations = inner_capped = 0  # Krylov iterations, unconverged solves
    border = None  # the rows that border K; the others are eliminated into it

    @classmethod
    def at(cls, state: IpPmmState, program: ConvexProgram, options: SolverOptions):
        """The solve's system, built on the first call, factored at ``state``."""
        if state.system is None:
            state.system = cls(program, options)
        state.system.factor(state)
        return state.system

    def _reduce(self, program: ConvexProgram):
        """Check that the two columns of each pair are exact negatives in A,
        and in Q when it is given (raises ValueError), find the slack pairs
        and keep the other unknowns (sorted), A over them and each u's
        position among them."""
        A = program.A.tocsc()
        p, q = program.pairs
        blocks = [A] if program.Q is None else [A, program.Q.tocsc()]
        if any((M[:, p] + M[:, q]).count_nonzero() for M in blocks):
            raise ValueError("the A and Q columns of each pair must be exact negatives")
        self._find_slack_pairs(program, A)
        split = self.rest[p]  # pairs that are not slack pairs
        self.p, self.q = p[split], q[split]
        self.unknowns = np.setdiff1d(np.flatnonzero(self.rest), self.q)
        self.upos = np.searchsorted(self.unknowns, self.p)
        self.A_u = program.A[:, self.unknowns]

    def _find_slack_pairs(self, program: ConvexProgram, A):
        """Find the slack pairs: the pairs of ``program.pairs`` whose two
        columns each hold one entry of A (``program.A`` in CSC), both in the
        same row, and that the Hessian does not touch. Keeps their members,
        each member's row and entry of A, the rows B that hold no slack
        pair, and ``rest``, which marks the variables that are not members."""
        n = program.n
        count = np.diff(A.indptr)
        head = A.indptr[:-1]  # a column's first entry, if it has one
        row, val = np.append(A.indices, -1)[head], np.append(A.data, 0.0)[head]
        p, q = program.pairs
        slack = (count[p] == 1) & (count[q] == 1) & (row[p] == row[q])
        if program.Q is not None:
            qcol = np.asarray(abs(program.Q).sum(axis=0)).ravel()
            slack &= (qcol[p] == 0) & (qcol[q] == 0)
        self.pairs = np.concatenate([p[slack], q[slack]])  # members of slack pairs
        self.prow, self.pval = row[self.pairs], val[self.pairs]
        in_r = np.zeros(program.m, dtype=bool)
        in_r[self.prow] = True
        self.B = np.flatnonzero(~in_r)
        self.rest = np.ones(n, dtype=bool)
        self.rest[self.pairs] = False

    def _build_band(self, border: np.ndarray, C=None, couplings=None):
        """Build the band of K over the unknowns, with the rows ``border``
        (sorted) bordering it and the others eliminated into it; C is the
        Hessian block over the unknowns, or None, and ``couplings`` the
        pairs of unknowns (positions among them) whose entries each factor
        gives, or None. Keeps the unknowns in band order (``rows``), each
        unknown's band position (``where``) and each u's."""
        self.border = border
        self.elim = np.setdiff1d(np.arange(self.A_u.shape[0]), border)
        self.band = BorderedBand(C, self.A_u[self.elim], self.A_u[border], couplings)
        self.A_Rt = self.band.A_R.T
        self.rows = self.unknowns[self.band.order]
        self.where = self.band.where
        self.kp = self.where[self.upos]

    def _refresh(self, state: IpPmmState, h=0.0):
        """Take Θ = ``state.xi_diag()``, e = 1/(h + Θ + ρ), each row's E, δ
        and the inner tolerance from ``state``; ``h`` is a Hessian diagonal
        folded into e. A weight h + Θ + ρ that is not positive raises
        LinAlgError."""
        g = h + state.xi_diag() + state.rho
        if np.any(g <= 0):
            raise np.linalg.LinAlgError("diagonal weights must be positive")
        self.e = 1.0 / g
        self.esum = self.e.copy()  # an unknown's e: e+ + e- on a u
        self.esum[self.p] += self.e[self.q]
        self.delta, self.tol = state.delta, state.inner_tol
        self.E = self.delta + np.bincount(self.prow, self.pval ** 2 * self.e[self.pairs],
                                          minlength=self.A_u.shape[0])

    def _factor_band(self, h=0.0, c=None):
        """Take dt in band order and the eliminated rows' E, and factor the
        band with dt + ``h`` on its diagonal and the values ``c`` of its
        couplings."""
        self.dt = 1.0 / self.esum[self.rows]
        self.E_elim = self.E[self.elim]
        self.band.factor(self.dt + h, 1.0 / self.E_elim, self.E[self.border], c)

    def _reduced_rhs(self, r1: np.ndarray, r2: np.ndarray):
        """The reduced system's rhs from the full-length one: rt over the
        unknowns (band order; dt (e+ r1+ - e- r1-) on a u) and rs over the
        rows, each row's r2 with its slack pairs' r1 folded in."""
        c, e, p, q, kp = self.pairs, self.e, self.p, self.q, self.kp
        rs = r2 + np.bincount(self.prow, self.pval * e[c] * r1[c], minlength=r2.size)
        rt = r1[self.rows]
        rt[kp] = self.dt[kp] * (e[p] * r1[p] - e[q] * r1[q])
        return rt, rs

    def _dy(self, u: np.ndarray, xu: np.ndarray, yb: np.ndarray) -> np.ndarray:
        """dy from u = rs/E (eliminated rows), ``xu`` and the border's ``yb``."""
        dy = np.empty(u.size + yb.size)
        dy[self.border] = yb
        dy[self.elim] = u - (self.band.A_R @ xu) / self.E_elim
        return dy

    def _direct(self, rt, rs):
        """(xu, dy) of the factored reduced system at the rhs (rt, rs):
        -K xu + A_B' dy_B = rt - A_R' u and A_B xu + E_B dy_B = rs_B,
        with u = rs/E on the eliminated rows."""
        u = rs[self.elim] / self.E_elim
        xu, yb = self.band.solve_bordered(self.A_Rt @ u - rt, rs[self.border])
        return xu, self._dy(u, xu, yb)

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        """The full-length (dx, dy) at the full-length rhs (r1, r2): the
        path's ``_reduced_solve`` of the reduced rhs, expanded."""
        rt, rs = self._reduced_rhs(r1, r2)
        return self._expand(r1, rt, *self._reduced_solve(rt, rs))

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

    def _count(self, out) -> np.ndarray:
        """Add one Krylov solve to the counters; returns its solution."""
        self.inner_iterations += out.iterations
        self.inner_capped += not out.converged
        return out.solution


class AugmentedSystem(NewtonSystem):
    """MINRES path: the reduced system of ``NewtonSystem`` with C = H, by
    MINRES in split form under the block-diagonal preconditioner built
    from H~.

    The saddle matrix is M = [[-K, A_B'], [A_B, δI]] over the unknowns and
    the rows without a slack pair, with K = H + diag(dt) + A_R' E^-1 A_R;
    dy_R and the pair steps follow in closed form. Its preconditioner is
    blockdiag(P, S), S = δI + A_B P^-1 A_B', with P = K and H~ (the
    program's ``hess_approx``) in place of H, factored in the band built
    once per solve: H~'s diagonal joins dt, and its couplings, which must
    join unknowns within the band (on Poisson the TV's pixel pairs), are
    added into the band at each factor. With P = LL' and S = L_S L_S',
    MINRES runs on the split operator
    blockdiag(L, L_S)^-1 M blockdiag(L, L_S)^-T (``BorderedBand.split``),
    whose iterates are those of MINRES on M under blockdiag(P, S). Since
    K = P + Δ, Δ = H - H~, this system supplies only Δw: A_R, E and dt never
    enter an iteration.
    """

    def __init__(self, program: ConvexProgram, options: SolverOptions):
        self.program = program
        self._reduce(program)
        column = np.full(program.n, -1)  # each unknown's position among them
        column[self.unknowns] = np.arange(self.unknowns.size)
        couplings = column[program.couplings]
        if np.any(couplings < 0):
            raise UnsupportedStructureError("H~ may couple only the reduced unknowns")
        self._build_band(self.B, couplings=couplings)
        self.na = self.rows.size
        self._full = np.zeros(program.n)  # the Hessian's argument, zero off the unknowns
        # H~ over the unknowns in band order: its diagonal, then each coupling
        # twice, at the positions ``hsel`` picks for the CSR's values
        i, j = self.where[couplings]
        diag = np.arange(self.na)
        rows, cols = np.r_[diag, i, j], np.r_[diag, j, i]
        self.hsel = np.lexsort((cols, rows))
        self.htilde = sp.csr_matrix(
            (np.zeros(rows.size), cols[self.hsel],
             np.searchsorted(rows[self.hsel], np.arange(self.na + 1))),
            shape=(self.na, self.na))

    def factor(self, state: IpPmmState):
        self._refresh(state)
        self._hess = self.program.hess_action(state.x)
        htilde = self.program.hess_approx(state.x)  # its diagonal, then its couplings
        diag, c = htilde[self.rows], htilde[self.program.n:]
        self._factor_band(diag, c)
        self.band.split()
        self.htilde.data[:] = np.concatenate([diag, c, c])[self.hsel]

    def _gap(self, w: np.ndarray) -> np.ndarray:
        """Δw = (H - H~) w over the unknowns (band order)."""
        self._full[self.rows] = w
        return self._hess(self._full)[self.rows] - self.htilde @ w

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.band.split_apply(v, self._gap)

    def _reduced_solve(self, rt, rs):
        """(xu, dy) by MINRES on the split operator."""
        u = rs[self.elim] / self.E_elim
        f = self.band.split_rhs(rt - self.A_Rt @ u, rs[self.border])
        xu, yb = self.band.unsplit(self._count(minres(self.matvec, f, tol=self.tol,
                                                      maxit=INNER_MAXIT)))
        return xu, self._dy(u, xu, yb)


class SaddleMatrix(NewtonSystem):
    """Direct path: the reduced system of ``NewtonSystem`` with C = Q over
    the unknowns, factored by Cholesky: the band K in the order found once
    per solve, and the dense border δI + A_B K^-1 A_B'.
    """

    def __init__(self, program: ConvexProgram, options: SolverOptions):
        if program.Q is None:
            raise UnsupportedStructureError(
                "direct path needs an explicit quadratic Hessian")
        self._reduce(program)
        self._build_band(self.B, program.Q[self.unknowns][:, self.unknowns])

    def factor(self, state: IpPmmState):
        self._refresh(state)
        self._factor_band()

    _reduced_solve = NewtonSystem._direct


class NormalEquations(NewtonSystem):
    """PCG path: the normal equations of the reduced system of
    ``NewtonSystem``, with G's Hessian diagonal, that of ``program.Q``,
    folded into e and C = None, over all m rows:
    (A_u D A_u' + diag(E)) dy = rs + A_u D rt, with A_u the columns of the
    unknowns and D their e (e+ + e- on a u). That is A G^-1 A' + δI with G
    diagonal.

    PCG runs under its exact inverse: the direct path's bordered solve
    (``NewtonSystem._direct``) at r1 = 0. The rows B without a slack pair
    (on fused lasso, the data rows) border K; so does a slack row whose
    (A_u D A_u')_rr exceeds ``ELIMINATION_LOSS`` E_r, which would lose
    that factor in accuracy to its elimination. The band is built again
    when the border changes.
    """

    def __init__(self, program: ConvexProgram, options: SolverOptions):
        if program.Q is None or np.any((Q := program.Q.tocoo()).data[Q.row != Q.col]):
            raise UnsupportedStructureError(
                "normal equations need a diagonal Hessian; use the augmented path")
        self.hdiag = program.Q.diagonal()
        self._reduce(program)
        self.A_ut = self.A_u.T
        self.A_u2 = self.A_u.power(2)

    def factor(self, state: IpPmmState):
        self._refresh(state, self.hdiag)
        self.D = self.esum[self.unknowns]
        border = self.A_u2 @ self.D > ELIMINATION_LOSS * self.E
        border[self.B] = True
        border = np.flatnonzero(border)
        if not np.array_equal(border, self.border):
            self._build_band(border)
        self._factor_band()

    def _apply_inverse(self, r: np.ndarray) -> np.ndarray:
        """(A G^-1 A' + δI)^-1 r: the reduced system's dy at r1 = 0."""
        return self._direct(0.0, r)[1]

    def matvec(self, dy: np.ndarray) -> np.ndarray:
        return self.A_u @ (self.D * (self.A_ut @ dy)) + self.E * dy

    def _reduced_solve(self, rt, rs):
        """dy by PCG on rs + A_u D rt (r2 + A G^-1 r1), then xu = (A_u'dy - rt)/dt."""
        # built per solve: kept on the system, it would make a reference cycle
        # that holds each solve's system until a full garbage collection
        precond = precondmod.build_fmri_normal_precond(self._apply_inverse)
        dy = self._count(pcg(self.matvec, rs + self.A_u @ (self.D * rt[self.where]),
                             precond.apply_inverse, tol=self.tol, maxit=INNER_MAXIT))
        return ((self.A_ut @ dy)[self.band.order] - rt) / self.dt, dy


_CONTEXTS = {
    "direct-augmented": SaddleMatrix.at,
    "pcg-normal": NormalEquations.at,
    "minres-augmented": AugmentedSystem.at,
}


# ---------------------------------------------------------------------------
# Steps


def step_lengths(state: IpPmmState, dx: np.ndarray, dz: np.ndarray):
    """Fraction-to-the-boundary primal and dual step lengths in (0, 1]."""
    ia = state.nonneg

    def max_step(v, dv):
        neg = dv < 0
        if not np.any(neg):
            return 1.0
        return min(1.0, BOUNDARY_FRACTION * float(np.min(-v[neg] / dv[neg])))

    return max_step(state.x[ia], dx[ia]), max_step(state.z[ia], dz[ia])


def _dual_step(state, dx, rc):
    """dz from dx and the complementarity rhs ``rc`` of the non-negative
    variables; 0 elsewhere."""
    ia = state.nonneg
    dz = np.zeros(state.x.size)
    dz[ia] = (rc - state.z[ia] * dx[ia]) / state.x[ia]
    return dz


def predictor_corrector_step(state: IpPmmState, ctx, rp: np.ndarray,
                             gy: np.ndarray):
    """Affine predictor then centering-corrector solve with the same matrix."""
    ia = state.nonneg

    # predictor: sigma = 0, complementarity rhs -XZe
    dx_aff, _ = ctx.solve(*newton_rhs(state, rp, gy, sigma=0.0))
    dz_aff = _dual_step(state, dx_aff, -state.x[ia] * state.z[ia])

    ap, ad = step_lengths(state, dx_aff, dz_aff)
    if ia.size:
        mu_aff = float((state.x[ia] + ap * dx_aff[ia])
                       @ (state.z[ia] + ad * dz_aff[ia])) / ia.size
        ratio = mu_aff / state.mu if state.mu > 0 else 0.0
        sigma = float(np.clip(ratio ** 3, SIGMA_MIN, SIGMA_MAX))
    else:
        sigma = SIGMA_MIN

    # corrector: centering plus second-order complementarity correction
    soc = dx_aff * dz_aff
    dx, dy = ctx.solve(*newton_rhs(state, rp, gy, sigma=sigma, correction=soc))
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
    t_linalg = 0.0
    state = initial_state(program, options)
    report = SolveReport()
    status = "max-iterations"

    # evaluation k is of the k-th iterate; the last one is of the returned point
    for k in range(options.max_iter + 1):
        primal, dual, mu, rp, gy, rd = kkt_residuals(state, program)
        report.primal_inf_history.append(primal)
        report.dual_inf_history.append(dual)
        report.mu_history.append(mu)
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
            ctx = _CONTEXTS[options.linear_solver](state, program, options)
            dx, dy, dz = predictor_corrector_step(state, ctx, rp, gy)
        except (RuntimeError, np.linalg.LinAlgError):
            status = "numerical-failure"
            break
        finally:  # a failed iteration's linear algebra counts too
            t_linalg += time.perf_counter() - t0

        ap, ad = step_lengths(state, dx, dz)
        state.x = state.x + ap * dx
        state.y = state.y + ad * dy
        state.z = state.z + ad * dz
        update_penalties_and_estimates(state, float(np.linalg.norm(rp)),
                                       float(np.linalg.norm(rd)))
        report.iterations = k + 1

    if state.system is not None:  # the Krylov work of every iteration, a failed one too
        report.inner_iterations = state.system.inner_iterations
        report.inner_capped = state.system.inner_capped
    report.status = status
    report.final_objective = float(program.objective(state.x))
    report.time_s = time.perf_counter() - t_start
    report.phase_times = {"linear_algebra_s": t_linalg,
                          "other_s": report.time_s - t_linalg}
    return (state.x, state.y, state.z), report

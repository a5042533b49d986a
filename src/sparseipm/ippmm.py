"""Interior point-proximal method of multipliers engine.

Each outer iteration applies a Mehrotra-type predictor-corrector step to the
proximally regularized barrier subproblem; the Newton system is solved either
directly (augmented form), by PCG on the normal equations (diagonal Hessians),
or by preconditioned MINRES on the augmented system.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from . import dropping as dropmod
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
DROP_ACTIVATION = 1e-2             # dropping scans only once mu <= this * mu0
FORCING, INNER_MAXIT = 0.1, 500    # inner Krylov solves: tolerance per residual, cap
INNER_TOL_MIN, INNER_TOL_MAX = 1e-10, 1e-2  # bounds on the inner relative tolerance
ELIMINATION_LOSS = 1e4             # largest (A_u D A_u')_rr / E_r of an eliminated row


class UnsupportedStructureError(ValueError):
    """Requested solver path incompatible with the program's Hessian structure."""


@dataclass(frozen=True)
class SolverOptions:
    """A caller's settings; an invalid value raises ValueError on construction."""

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
        if not self.tol > 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter at least 1")
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
    dropped: np.ndarray
    k: int = 0
    drop_log: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=int))
    last_primal_norm: float = np.inf
    last_dual_norm: float = np.inf
    inner_tol: float = INNER_TOL_MAX  # relative tolerance of this iteration's Krylov solves
    system: Optional[NewtonSystem] = None  # the solve's linear-solver path

    def nonneg_active(self) -> np.ndarray:
        return self.nonneg[~self.dropped[self.nonneg]]

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.dropped)

    def complementarity(self) -> float:
        ia = self.nonneg_active()
        if ia.size == 0:
            return 0.0
        return float(self.x[ia] @ self.z[ia]) / ia.size

    def xi_diag(self) -> np.ndarray:
        """Complementarity scaling z/x on active non-negative coordinates."""
        xi = np.zeros(self.x.size)
        ia = self.nonneg_active()
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
    drop_audit: Optional[dict] = None

    def to_json(self) -> str:
        doc = {
            "status": self.status,
            "iters": self.iterations,
            "primal_inf": self.primal_inf_history,
            "dual_inf": self.dual_inf_history,
            "mu": self.mu_history,
            "time_s": self.time_s,
            "inner_iters": self.inner_iterations,
            "inner_capped": self.inner_capped,
            "objective": None if np.isnan(self.final_objective) else self.final_objective,
            "phase_times": self.phase_times,
        }
        if self.drop_audit is not None:
            doc["drop_audit"] = self.drop_audit
        return json.dumps(doc, indent=2)


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
                      rho=reg, delta=reg, nonneg=program.nonneg,
                      dropped=np.zeros(n, dtype=bool))


# ---------------------------------------------------------------------------
# Residuals and right-hand side


def kkt_residuals(state: IpPmmState, program: ConvexProgram,
                  eps_drop: Optional[float] = None):
    """Scaled primal/dual infeasibility and average complementarity, with
    b - Ax, grad - A'y and the dual residual grad - A'y - z. With
    ``eps_drop`` the drop rule runs on that residual, and the residuals are
    formed again if it changed ``state``."""
    for _ in range(2):
        g = program.gradient(state.x)
        rp = program.b - program.A @ state.x
        gy = g - program.A.T @ state.y
        rd = gy - state.z
        if eps_drop is None or not dropmod.scan_and_drop(state, rd, eps_drop).size:
            break
        eps_drop = None
    act = state.active_indices()
    primal = float(np.linalg.norm(rp)) / (1.0 + np.linalg.norm(program.b))
    dual = float(np.linalg.norm(rd[act])) / (1.0 + np.linalg.norm(g[act]))
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
    ia = state.nonneg_active()
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
# full length, zero on dropped variables.


class NewtonSystem:
    """The reduced Newton system that the three paths share, built once per
    solve, and the Krylov counters of the solve.

    ``_reduce`` finds the slack pairs (``_find_slack_pairs``), which leave
    with their rows, and reduces every other split pair (x+, x-) of
    ``program.pairs`` to its plus member's unknown u = dx+ - dx-. With
    e = 1/(Θ + ρ) (0 on dropped variables), an unknown's diagonal is
    dt = 1/(e+ + e-) for a u and 1/e for an unpaired variable. That leaves
    [[-K, A_B'], [A_B, E_B]] over the unknowns and the border rows B, with
    K = C + diag(dt) + A_R' E_R^-1 A_R, C the Hessian over the unknowns and
    E = δ + Σ a²(e+ + e-) of each row over its slack pairs (δ on a row
    without one). ``_build_band`` builds its ``krylov.BorderedBand``. A
    dropped variable never returns, and every factor pins each unknown with
    no live member left (``_pin``), so its step is exactly 0. ``_direct``
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
        each member's row and entry of A, the rows R that hold slack pairs
        and the rows B that do not, and ``rest``, which marks the variables
        that are not members."""
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
        self.R, self.B = np.flatnonzero(in_r), np.flatnonzero(~in_r)
        self.rest = np.ones(n, dtype=bool)
        self.rest[self.pairs] = False

    def _build_band(self, border: np.ndarray, C=None):
        """Build the band of K over the unknowns, with the rows ``border``
        (sorted) bordering it and the others eliminated into it; C is the
        Hessian block over the unknowns, or None. Keeps the unknowns in
        band order (``rows``), each unknown's band position (``where``)
        and each u's."""
        self.border = border
        self.elim = np.setdiff1d(np.arange(self.A_u.shape[0]), border)
        self.band = BorderedBand(C, self.A_u[self.elim], self.A_u[border])
        self.A_Rt = self.band.A_R.T  # shares A_R's data, which a pin zeroes in place
        self.rows = self.unknowns[self.band.order]
        self.where = np.argsort(self.band.order)
        self.kp = self.where[self.upos]

    def _refresh(self, state: IpPmmState, h=0.0):
        """Take Θ = ``state.xi_diag()``, e = 1/(h + Θ + ρ) on the active set
        (0 on dropped variables), each row's E, δ and the inner tolerance
        from ``state``; ``h`` is a Hessian diagonal folded into e. A weight
        h + Θ + ρ that is not positive raises LinAlgError."""
        active = state.active_indices()
        self.xi = state.xi_diag()
        g = (h + self.xi + state.rho)[active]
        if np.any(g <= 0):
            raise np.linalg.LinAlgError("diagonal weights must be positive")
        self.e = np.zeros(state.x.size)
        self.e[active] = 1.0 / g
        self.esum = self.e.copy()  # an unknown's e: e+ + e- on a u
        self.esum[self.p] += self.e[self.q]
        self.delta, self.tol = state.delta, state.inner_tol
        self.E = self.delta + np.bincount(self.prow, self.pval ** 2 * self.e[self.pairs],
                                          minlength=self.A_u.shape[0])

    def _pin(self, state: IpPmmState):
        """Pin each unknown with no live member left (``BorderedBand.pin``),
        and take dt in band order, 1 on a pinned unknown, and the
        eliminated rows' E."""
        live = ~state.dropped
        live[self.p] |= live[self.q]  # a pair's unknown lives while either member does
        self.band.pin(~live[self.rows])
        self.dt = np.divide(1.0, self.esum[self.rows], out=np.ones(self.rows.size),
                            where=~self.band.pinned)
        self.E_elim = self.E[self.elim]

    def _reduced_rhs(self, r1: np.ndarray, r2: np.ndarray):
        """The reduced system's rhs from the full-length one: rt over the
        unknowns (band order; dt (e+ r1+ - e- r1-) on a u, 0 on a pinned
        unknown) and rs over the rows, each row's r2 with its slack pairs'
        r1 folded in."""
        c, e, p, q, kp = self.pairs, self.e, self.p, self.q, self.kp
        rs = r2 + np.bincount(self.prow, self.pval * e[c] * r1[c], minlength=r2.size)
        rt = r1[self.rows]
        rt[kp] = self.dt[kp] * (e[p] * r1[p] - e[q] * r1[q])
        rt[self.band.pinned] = 0.0
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

    def _expand(self, r1, rt, xu, dy):
        """The full-length (dx, dy) of the reduced solution (xu, dy): dx is
        0 on dropped variables."""
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
    MINRES under the block-diagonal preconditioner built from H~.

    MINRES runs on [[-K, A_B'], [A_B, δI]] over the unknowns and the rows
    without a slack pair, with K = H + Θ + ρI + A_R' E^-1 A_R (Θ + ρ read
    as dt on a u); dy_R and the pair steps follow in closed form. A pinned
    unknown's row of the operator is -1 on the diagonal and 0 elsewhere.
    The preconditioner is blockdiag(P, δI + A_B P^-1 A_B'), with P = K and
    H~ in place of H, factored in the band built once per solve.
    """

    def __init__(self, program: ConvexProgram, options: SolverOptions):
        self.chooser = (program.hess_diag_cheap if options.htilde_choice == "u-squared"
                        else program.hess_diag)
        if self.chooser is None:
            raise UnsupportedStructureError(
                f"program provides no diagonal for {options.htilde_choice}")
        self.program = program
        self._reduce(program)
        self._build_band(self.B)
        self.na = self.rows.size
        self.A_B = sp.csc_matrix(self.A_u[self.B][:, self.band.order])
        self._A_Bt = self.A_B.T

    def factor(self, state: IpPmmState):
        self._refresh(state)
        self._pin(state)
        # Θ + ρ as it is on an unpaired unknown; 1/(1/(Θ + ρ)) may round differently
        self.diag_shift = self.xi[self.rows] + state.rho
        self.diag_shift[self.kp] = self.dt[self.kp]
        self.live = (~self.band.pinned).astype(float)
        self.pins = np.flatnonzero(self.band.pinned)
        self.K_R = self.A_Rt @ sp.diags(1.0 / self.E_elim) @ self.band.A_R
        self._hess = self.program.hess_action(state.x)
        self.band.factor(self.chooser(state.x)[self.rows] + self.diag_shift,
                         1.0 / self.E_elim, self.E[self.border])
        self.precond = precondmod.build_aug_block_diag_precond(self.band)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        na = self.na
        v1, v2 = v[:na] * self.live, v[na:]
        full = np.zeros(self.e.size)
        full[self.rows] = v1
        hv = self._hess(full)[self.rows]
        out = np.empty(v.size)
        np.subtract(self._A_Bt @ v2, hv + self.diag_shift * v1 + self.K_R @ v1,
                    out=out[:na])
        np.add(self.A_B @ v1, self.delta * v2, out=out[na:])
        out[self.pins] = -v[self.pins]
        return out

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        rt, rs = self._reduced_rhs(r1, r2)
        u = rs[self.elim] / self.E_elim
        f = np.concatenate([rt - self.A_Rt @ u, rs[self.border]])
        sol = self._count(minres(self.matvec, f, self.precond.apply_inverse,
                                 tol=self.tol, maxit=INNER_MAXIT))
        xu = sol[:self.na]
        return self._expand(r1, rt, xu, self._dy(u, xu, sol[self.na:]))


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
        self._pin(state)
        self.band.factor(self.dt, 1.0 / self.E_elim, self.E[self.border])

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        rt, rs = self._reduced_rhs(r1, r2)
        return self._expand(r1, rt, *self._direct(rt, rs))


class NormalEquations(NewtonSystem):
    """PCG path: the normal equations of the reduced system of
    ``NewtonSystem``, with G's Hessian diagonal folded into e and C = None,
    over all m rows: (A_u D A_u' + diag(E)) dy = rs + A_u D rt, with A_u
    the columns of the unknowns and D their e (e+ + e- on a u, 0 on a
    pinned unknown). That is A G^-1 A' + δI with G diagonal; a drop only
    zeroes a weight.

    PCG runs under its exact inverse: the direct path's bordered solve
    (``NewtonSystem._direct``) at r1 = 0. The rows B without a slack pair
    (on fused lasso, the data rows) border K; so does a slack row whose
    (A_u D A_u')_rr exceeds ``ELIMINATION_LOSS`` E_r, which would lose
    that factor in accuracy to its elimination. The band is built again
    when the border changes.
    """

    def __init__(self, program: ConvexProgram, options: SolverOptions):
        if not program.hessian_is_diagonal:
            raise UnsupportedStructureError(
                "normal equations need a diagonal Hessian; use the augmented path")
        self.program = program
        self._reduce(program)
        self.A_ut = self.A_u.T
        self.A_u2 = self.A_u.power(2)

    def factor(self, state: IpPmmState):
        self._refresh(state, self.program.hess_diag(state.x))
        self.D = self.esum[self.unknowns]
        border = self.A_u2 @ self.D > ELIMINATION_LOSS * self.E
        border[self.B] = True
        border = np.flatnonzero(border)
        if not np.array_equal(border, self.border):
            self._build_band(border)
        self._pin(state)
        self.band.factor(self.dt, 1.0 / self.E_elim, self.E[self.border])

    def _apply_inverse(self, r: np.ndarray) -> np.ndarray:
        """(A G^-1 A' + δI)^-1 r: the reduced system's dy at r1 = 0."""
        return self._direct(0.0, r)[1]

    def matvec(self, dy: np.ndarray) -> np.ndarray:
        return self.A_u @ (self.D * (self.A_ut @ dy)) + self.E * dy

    def rhs(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """rs + A_u D rt of the reduced rhs (rt, rs): r2 + A G^-1 r1."""
        rt, rs = self._reduced_rhs(r1, r2)
        return rs + self.A_u @ (self.D * rt[self.where])

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        # built per solve: kept on the system, it would make a reference cycle
        # that holds each solve's system until a full garbage collection
        precond = precondmod.build_fmri_normal_precond(self._apply_inverse)
        dy = self._count(pcg(self.matvec, self.rhs(r1, r2), precond.apply_inverse,
                             tol=self.tol, maxit=INNER_MAXIT))
        t = np.empty(r1.size)  # A'dy
        t[self.unknowns] = self.A_ut @ dy
        t[self.q] = -t[self.p]
        t[self.pairs] = self.pval * dy[self.prow]
        return self.e * (t - r1), dy


_CONTEXTS = {
    "direct-augmented": SaddleMatrix.at,
    "pcg-normal": NormalEquations.at,
    "minres-augmented": AugmentedSystem.at,
}


# ---------------------------------------------------------------------------
# Steps


def step_lengths(state: IpPmmState, dx: np.ndarray, dz: np.ndarray):
    """Fraction-to-the-boundary primal and dual step lengths in (0, 1]."""
    ia = state.nonneg_active()

    def max_step(v, dv):
        neg = dv < 0
        if not np.any(neg):
            return 1.0
        return min(1.0, BOUNDARY_FRACTION * float(np.min(-v[neg] / dv[neg])))

    return max_step(state.x[ia], dx[ia]), max_step(state.z[ia], dz[ia])


def _dual_step(state, dx, rc):
    """dz from dx and the complementarity rhs ``rc`` of the active
    non-negative variables; 0 elsewhere."""
    ia = state.nonneg_active()
    dz = np.zeros(state.x.size)
    dz[ia] = (rc - state.z[ia] * dx[ia]) / state.x[ia]
    return dz


def predictor_corrector_step(state: IpPmmState, ctx, rp: np.ndarray,
                             gy: np.ndarray):
    """Affine predictor then centering-corrector solve with the same matrix."""
    ia = state.nonneg_active()

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
    mu0 = max(state.mu, np.finfo(float).tiny)
    report = SolveReport()
    status = "max-iterations"

    eps_drop = options.eps_drop if options.dropping else None
    # evaluation k is of the k-th iterate; the last one is of the returned point
    for k in range(options.max_iter + 1):
        state.k = k
        primal, dual, mu, rp, gy, rd = kkt_residuals(
            state, program, eps_drop if state.mu <= DROP_ACTIVATION * mu0 else None)
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
                                       float(np.linalg.norm(rd[state.active_indices()])))
        report.iterations = k + 1

    if state.system is not None:  # the Krylov work of every iteration, a failed one too
        report.inner_iterations = state.system.inner_iterations
        report.inner_capped = state.system.inner_capped
    if options.dropping:
        audit = dropmod.verify_dropped(gy, state.drop_log)
        report.drop_audit = audit.to_dict()
        if audit.violated and status == "optimal":
            status = "numerical-failure"
    report.status = status
    report.final_objective = float(program.objective(state.x))
    report.time_s = time.perf_counter() - t_start
    report.phase_times = {"linear_algebra_s": t_linalg,
                          "other_s": report.time_s - t_linalg}
    return (state.x, state.y, state.z), report

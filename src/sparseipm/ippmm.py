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
from .krylov import BorderedBand, NotPositiveDefiniteError, minres, pcg
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
ELIMINATION_LOSS = 1e4             # largest (A_u D A_u')_rr / E_r of an eliminated TV row


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
    drop_log: list = field(default_factory=list)
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
        if eps_drop is None or not dropmod.scan_and_drop(state, rd, eps_drop):
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
    """What the three paths share: the Krylov counters of the solve, the
    active set and the checks and eliminations of ``program.pairs``. A
    dropped variable never returns, so the active set only shrinks, and the
    MINRES path cuts its columns of A again only when it does."""

    inner_iterations = inner_capped = 0  # Krylov iterations, unconverged solves
    active = None  # active variables of the last factor

    @classmethod
    def at(cls, state: IpPmmState, program: ConvexProgram, options: SolverOptions):
        """The solve's system, built on the first call, factored at ``state``."""
        if state.system is None:
            state.system = cls(program, options)
        state.system.factor(state)
        return state.system

    def _refresh(self, state: IpPmmState) -> bool:
        """Take the active set, Θ = ``state.xi_diag()``, e = 1/(Θ + ρ) on the
        active set (0 on dropped variables), δ and the inner tolerance from
        ``state``; True when the active set shrank."""
        active = state.active_indices()
        shrank = self.active is None or active.size < self.active.size
        self.active = active
        self.xi = state.xi_diag()
        self.e = np.zeros(state.x.size)
        self.e[active] = 1.0 / (self.xi[active] + state.rho)
        self.delta, self.tol = state.delta, state.inner_tol
        return shrank

    @staticmethod
    def _check_pairs(program: ConvexProgram, *blocks):
        """Raise ValueError unless the two columns of each pair of
        ``program.pairs`` are exact negatives in each CSC matrix of
        ``blocks``."""
        p, q = program.pairs
        for M in blocks:
            if (M[:, p] + M[:, q]).count_nonzero():
                raise ValueError("the A and Q columns of each pair must be exact negatives")

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

    def _slack_diagonal(self) -> np.ndarray:
        """E = δ + Σ a²(e+ + e-) of each row over its slack pairs: the
        diagonal a slack row keeps once its pairs are eliminated."""
        return self.delta + np.bincount(self.prow, self.pval ** 2 * self.e[self.pairs],
                                        minlength=self.R.size + self.B.size)

    def _slack_rhs(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """Row R's rhs after its pairs are eliminated, over E: dy_R is this
        minus E^-1 A_R dx."""
        c, e = self.pairs, self.e
        return (r2 + np.bincount(self.prow, self.pval * e[c] * r1[c],
                                 minlength=r2.size))[self.R] / self.E[self.R]

    def _slack_steps(self, dx, dy, r1, u, A_R_dx):
        """Write dy_R and the steps of the slack members, 0 on dropped ones."""
        dy[self.R] = u - A_R_dx / self.E[self.R]
        c, e = self.pairs, self.e
        dx[c] = e[c] * (self.pval * dy[self.prow] - r1[c])

    def _count(self, out) -> np.ndarray:
        """Add one Krylov solve to the counters; returns its solution."""
        self.inner_iterations += out.iterations
        self.inner_capped += not out.converged
        return out.solution


class AugmentedSystem(NewtonSystem):
    """MINRES path: the symmetric indefinite 2x2 block operator on the active
    coordinates with their slack pairs eliminated, and the block-diagonal
    preconditioner built from H~.

    With the slack rows R eliminated (``NewtonSystem._find_slack_pairs``),
    MINRES runs on [[-K, A_B'], [A_B, δI]] over the other active variables,
    with K = H + Θ + ρI + A_R' E^-1 A_R and A_B the rows without a slack
    pair; dy_R and the pair steps follow in closed form. The preconditioner
    is blockdiag(P, δI + A_B P^-1 A_B'), with P = K and H~ in place of H,
    factored as a ``krylov.BorderedBand`` built again whenever the columns
    are cut again. Without slack pairs this is the whole active-set system.
    """

    def __init__(self, program: ConvexProgram, options: SolverOptions):
        self.chooser = (program.hess_diag_cheap if options.htilde_choice == "u-squared"
                        else program.hess_diag)
        if self.chooser is None:
            raise UnsupportedStructureError(
                f"program provides no diagonal for {options.htilde_choice}")
        self.program = program
        self._find_slack_pairs(program, program.A.tocsc())

    def factor(self, state: IpPmmState):
        if self._refresh(state):
            cols = self.active[self.rest[self.active]]  # unknowns besides dy_B
            A = self.program.A[:, cols]
            self.band = BorderedBand(None, A[self.R], A[self.B])
            self.cols, self.na = cols[self.band.order], cols.size  # in band order
            self.A_act = sp.csc_matrix(A[self.B][:, self.band.order])  # A_B
            self.A_R = self.band.A_R
            self._A_act_T = self.A_act.T
        self.E = self._slack_diagonal()
        self.diag_shift = self.xi[self.cols] + state.rho
        self.K_R = self.A_R.T @ sp.diags(1.0 / self.E[self.R]) @ self.A_R
        self._hess = self.program.hess_action(state.x)
        self.band.factor(self.chooser(state.x)[self.cols] + self.diag_shift,
                         1.0 / self.E[self.R], state.delta)
        self.precond = precondmod.build_aug_block_diag_precond(self.band)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        na = self.na
        v1, v2 = v[:na], v[na:]
        full = np.zeros(self.e.size)
        full[self.cols] = v1
        hv = self._hess(full)[self.cols]
        out = np.empty(v.size)
        np.subtract(self._A_act_T @ v2, hv + self.diag_shift * v1 + self.K_R @ v1,
                    out=out[:na])
        np.add(self.A_act @ v1, self.delta * v2, out=out[na:])
        return out

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        u = self._slack_rhs(r1, r2)
        rhs = np.concatenate([r1[self.cols] - self.A_R.T @ u, r2[self.B]])
        sol = self._count(minres(self.matvec, rhs, self.precond.apply_inverse,
                                 tol=self.tol, maxit=INNER_MAXIT))
        dx = np.zeros(self.e.size)
        dx[self.cols] = sol[:self.na]
        dy = np.empty(r2.size)
        dy[self.B] = sol[self.na:]
        self._slack_steps(dx, dy, r1, u, self.A_R @ dx[self.cols])
        return dx, dy


class SaddleMatrix(NewtonSystem):
    """Direct path: the quasi-definite system [[-(Q + Θ + ρI), A'], [A, δI]]
    reduced to an SPD band K and a dense border, both factored by Cholesky.

    The slack rows R are eliminated with their pairs, as on the MINRES path.
    Each other split pair (x+, x-) of ``program.pairs`` is reduced to its
    plus member's unknown u = dx+ - dx-, with diagonal 1/(e+ + e-); an
    unpaired variable has 1/e. That leaves [[-K, A_B'], [A_B, δI]] with
    K = Q_u + D~ + A_R' E^-1 A_R, factored as a ``krylov.BorderedBand``
    whose order is found once per solve. A row of K with no active variable
    left is pinned (``BorderedBand.pin``), so its step is exactly 0.
    """

    def __init__(self, program: ConvexProgram, options: SolverOptions):
        if program.Q is None:
            raise UnsupportedStructureError(
                "direct path needs an explicit quadratic Hessian")
        A = program.A.tocsc()
        self._check_pairs(program, A, program.Q.tocsc())
        self._find_slack_pairs(program, A)
        p, q = program.pairs
        split = self.rest[p]  # pairs that are not slack pairs
        self.p, self.q = p[split], q[split]
        rows = np.setdiff1d(np.flatnonzero(self.rest), self.q)
        A = program.A[:, rows]
        self.band = BorderedBand(program.Q[rows][:, rows], A[self.R], A[self.B])
        self.rows = rows[self.band.order]  # K's unknowns, in band order
        # the band position of each split pair's u
        self.kp = np.argsort(self.band.order)[np.searchsorted(rows, self.p)]

    def factor(self, state: IpPmmState):
        if self._refresh(state):
            live = ~state.dropped
            live[self.p] |= live[self.q]  # a pair's row lives while either member does
            self.band.pin(~live[self.rows])
        self.E = self._slack_diagonal()
        esum = self.e.copy()
        esum[self.p] += self.e[self.q]
        self.dt = np.divide(1.0, esum[self.rows], out=np.ones(self.rows.size),
                            where=~self.band.pinned)
        self.band.factor(self.dt, 1.0 / self.E[self.R], state.delta)

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        p, q, e, kp, band = self.p, self.q, self.e, self.kp, self.band
        u = self._slack_rhs(r1, r2)
        rt = r1[self.rows]
        rt[kp] = self.dt[kp] * (e[p] * r1[p] - e[q] * r1[q])
        rt[band.pinned] = 0.0
        # -K dx + A_B' dy_B = rt - A_R' u and A_B dx + δ dy_B = r2_B, with K = LL'
        h = band.tri(rt - band.A_R.T @ u, "N")
        dyB = band.schur_solve(r2[self.B] + band.Z.T @ h)
        xu = band.tri(band.Z @ dyB - h, "T")
        dx = np.zeros(e.size)
        dx[self.rows] = xu
        dy = np.empty(r2.size)
        dy[self.B] = dyB
        self._slack_steps(dx, dy, r1, u, band.A_R @ xu)
        gp = self.dt[kp] * xu[kp] + rt[kp]  # recover the pair from its u
        dx[p] = (gp - r1[p]) * e[p]
        dx[q] = -(gp + r1[q]) * e[q]
        return dx, dy


class NormalEquations(NewtonSystem):
    """PCG path: the SPD operator dy -> (A G^-1 A' + delta I) dy with G
    diagonal, and its preconditioner: fmri-block on a program with a
    ``row_split``, none on any other.

    The two columns of each pair of ``program.pairs`` are exact negatives,
    so the operator sums them as one: it is applied through A_k, built once
    per solve, with one column per pair (the plus member's) of weight
    w = e+ + e- and one per unpaired variable of weight w = e, where
    e = 1/G on the active set and 0 on dropped variables. A dropped
    variable only zeroes its weight, so A_k is never cut again.

    fmri-block is the operator's exact inverse. Each slack pair
    (``_find_slack_pairs``) goes into its row's diagonal E, so the operator
    is E + A_u D A_u', with D = w on the other columns of A_k (on fused
    lasso, the residuals and one per voxel). Its rows are eliminated into
    the ``krylov.BorderedBand`` K = D^-1 + A_R' E^-1 A_R, built once per
    solve, in which an unknown with no active variable left is pinned. The
    leading ``row_split`` rows, dense on fused lasso, border K; so does a
    row whose (A_u D A_u')_rr exceeds ``ELIMINATION_LOSS`` E_r, which would
    lose that factor in accuracy to its elimination. The band is built
    again when those rows change.
    """

    def __init__(self, program: ConvexProgram, options: SolverOptions):
        if not program.hessian_is_diagonal:
            raise UnsupportedStructureError(
                "normal equations need a diagonal Hessian; use the augmented path")
        self.program = program
        A = program.A.tocsc()
        self._check_pairs(program, A)
        p, self.q = program.pairs
        keep = np.ones(program.n, dtype=bool)
        keep[self.q] = False
        self.kcols = np.flatnonzero(keep)  # the variable of each column of A_k
        self.kp = np.searchsorted(self.kcols, p)  # the column of each pair
        self.A_k = A[:, self.kcols]
        self.A_kt = self.A_k.T
        if program.row_split is not None:
            self._find_slack_pairs(program, A)
            self.cols = np.flatnonzero(self.rest[self.kcols])  # K's unknowns
            self.A_u = sp.csr_matrix(self.A_k[:, self.cols])
            self.A_u2 = self.A_u.power(2)
            self.border = None  # the rows that border K; the first factor builds the band

    def factor(self, state: IpPmmState):
        shrank = self._refresh(state)
        act = self.active
        g = self.program.hess_diag(state.x)[act] + self.xi[act] + state.rho
        if np.any(g <= 0):
            raise ValueError("diagonal weights must be positive")
        self.e[act] = 1.0 / g  # 1/G, the Hessian's diagonal included
        self.w = self.e[self.kcols]
        self.w[self.kp] += self.e[self.q]
        if self.program.row_split is None:
            self.precond = precondmod.identity_preconditioner()
            return
        D = self.w[self.cols]  # 0 on an unknown with no active variable
        E = self._slack_diagonal()
        border = self.A_u2 @ D > ELIMINATION_LOSS * E
        border[:self.program.row_split] = True
        rebuilt = not np.array_equal(border, self.border)
        if rebuilt:
            self.border = border
            self.band = BorderedBand(None, self.A_u[~border], self.A_u[border])
        D = D[self.band.order]
        if shrank or rebuilt:
            self.band.pin(D == 0)
        d = np.divide(1.0, D, out=np.ones(D.size), where=~self.band.pinned)
        self.precond = precondmod.build_fmri_normal_precond(self.band, d, E, border)

    def matvec(self, dy: np.ndarray) -> np.ndarray:
        return self.A_k @ (self.w * (self.A_kt @ dy)) + self.delta * dy

    def rhs(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """r2 + A G^-1 r1, each pair's r1 folded into its column of A_k."""
        er = self.e * r1
        v = er[self.kcols]
        v[self.kp] -= er[self.q]
        return r2 + self.A_k @ v

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        dy = self._count(pcg(self.matvec, self.rhs(r1, r2), self.precond.apply_inverse,
                             tol=self.tol, maxit=INNER_MAXIT))
        t = self.A_kt @ dy  # A'dy, each pair's minus member's entry the negative
        dx = np.empty(r1.size)
        dx[self.kcols] = t
        dx[self.q] = -t[self.kp]
        return self.e * (dx - r1), dy


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
    """Shrink penalties at the rate of mu; refresh proximal estimates when the
    residuals have decreased sufficiently since the last refresh."""
    mu_new = state.complementarity()
    if state.mu > 0 and mu_new >= 0:
        ratio = min(1.0, mu_new / state.mu)
        state.rho = max(PENALTY_FLOOR, state.rho * ratio)
        state.delta = max(PENALTY_FLOOR, state.delta * ratio)
    state.mu = mu_new
    if (primal_norm <= ESTIMATE_DECREASE * state.last_primal_norm
            and dual_norm <= ESTIMATE_DECREASE * state.last_dual_norm):
        state.zeta = state.x.copy()
        state.eta = state.y.copy()
        state.last_primal_norm = primal_norm
        state.last_dual_norm = dual_norm


def solve(program: ConvexProgram, options: Optional[SolverOptions] = None):
    """Run IP-PMM; returns ((x, y, z), SolveReport)."""
    options = options or SolverOptions()
    if options.precond == "fmri-block" and program.row_split is None:
        raise ValueError("fmri-block needs a program with a row_split")
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
        except (RuntimeError, np.linalg.LinAlgError, NotPositiveDefiniteError):
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

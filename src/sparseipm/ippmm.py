"""Interior point-proximal method of multipliers engine.

Each outer iteration applies a Mehrotra-type predictor-corrector step to the
proximally regularized barrier subproblem; the Newton system is solved either
directly (augmented form), by PCG on the normal equations (diagonal Hessians),
or by preconditioned MINRES on the augmented system.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import dropping as dropmod
from . import precond as precondmod
from .krylov import minres, pcg
from .problems import ConvexProgram


class UnsupportedStructureError(ValueError):
    """Requested solver path incompatible with the program's Hessian structure."""


@dataclass
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 100
    linear_solver: str = "direct-augmented"  # | pcg-normal | minres-augmented
    precond: str = "auto"                    # auto | identity | fmri-block | aug-block
    htilde_choice: str = "u-squared"         # | diag-h
    dropping: bool = False
    eps_drop: float = 1e-4
    xi: float = 1e2
    drop_activation: float = 1e-2            # scan only once mu <= this * mu0
    sigma_min: float = 0.05
    sigma_max: float = 0.95
    boundary_fraction: float = 0.995
    rho_floor: float = 1e-8
    delta_floor: float = 1e-8
    estimate_decrease: float = 0.95
    pcg_tol: float = 1e-4
    pcg_maxit: int = 2000
    minres_tol: float = 1e-4
    minres_maxit: int = 20
    x0: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    z0: Optional[np.ndarray] = None


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
    free: np.ndarray
    k: int = 0
    dropped: np.ndarray = None
    drop_log: list = field(default_factory=list)
    last_primal_norm: float = np.inf
    last_dual_norm: float = np.inf

    def __post_init__(self):
        if self.dropped is None:
            self.dropped = np.zeros(self.x.size, dtype=bool)

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
            "objective": None if np.isnan(self.final_objective) else self.final_objective,
            "phase_times": self.phase_times,
        }
        if self.drop_audit is not None:
            doc["drop_audit"] = self.drop_audit
        return json.dumps(doc, indent=2)


def initial_state(program: ConvexProgram, options: SolverOptions) -> IpPmmState:
    """Unit interior start unless the caller overrides; estimates track it."""
    n, m = program.n, program.m
    x = np.zeros(n)
    x[program.nonneg] = 1.0
    if options.x0 is not None:
        x = np.array(options.x0, dtype=float)
        if np.any(x[program.nonneg] <= 0):
            raise ValueError("override starting point must be interior")
    y = np.zeros(m) if options.y0 is None else np.array(options.y0, dtype=float)
    z = np.zeros(n)
    z[program.nonneg] = 1.0
    if options.z0 is not None:
        z = np.array(options.z0, dtype=float)
        if np.any(z[program.nonneg] <= 0):
            raise ValueError("override dual start must be interior")
        z[program.free] = 0.0
    ia = program.nonneg
    mu = float(x[ia] @ z[ia]) / ia.size if ia.size else 0.0
    reg = min(1.0, mu) if mu > 0 else 1.0
    return IpPmmState(
        x=x, y=y, z=z, zeta=x.copy(), eta=y.copy(), mu=mu,
        rho=max(reg, options.rho_floor), delta=max(reg, options.delta_floor),
        nonneg=program.nonneg, free=program.free,
    )


# ---------------------------------------------------------------------------
# Residuals and system assembly


def kkt_residuals(state: IpPmmState, program: ConvexProgram):
    """Scaled primal/dual infeasibility and average complementarity."""
    g = program.gradient(state.x)
    rp = program.b - program.A @ state.x
    rd = g - program.A.T @ state.y - state.z
    act = state.active_indices()
    primal = float(np.linalg.norm(rp)) / (1.0 + np.linalg.norm(program.b))
    dual = float(np.linalg.norm(rd[act])) / (1.0 + np.linalg.norm(g[act]))
    return primal, dual, state.complementarity(), g, rp, rd


def check_termination(primal: float, dual: float, mu: float, tol: float) -> bool:
    return primal <= tol and dual <= tol and mu <= tol


def newton_rhs(state: IpPmmState, program: ConvexProgram, grad: np.ndarray,
               sigma: float, correction: Optional[np.ndarray] = None):
    """Right-hand side of the reduced augmented system on the active set.

    ``correction`` carries the second-order complementarity products
    dx_aff * dz_aff of the predictor for the corrector solve.
    """
    r1 = grad - program.A.T @ state.y
    if sigma != 0.0:
        r1 = r1 + sigma * state.rho * (state.x - state.zeta)
    ia = state.nonneg_active()
    if ia.size:
        barrier = np.zeros(program.n)
        if sigma != 0.0:
            barrier[ia] -= sigma * state.mu / state.x[ia]
        if correction is not None:
            barrier[ia] += correction[ia] / state.x[ia]
        r1 = r1 + barrier
    r2 = program.b - program.A @ state.x - sigma * state.delta * (state.y - state.eta)
    cols = state.active_indices()
    return r1[cols], r2


class AugmentedSystem:
    """Symmetric indefinite 2x2 block operator on the active coordinates."""

    def __init__(self, state: IpPmmState, program: ConvexProgram):
        self.cols = state.active_indices()
        self.m = program.m
        self.na = self.cols.size
        self.A_act = sp.csc_matrix(program.A[:, self.cols])
        self.diag_shift = state.xi_diag()[self.cols] + state.rho
        self.delta = state.delta
        self._program = program
        self._x = state.x
        self.matrix = None
        hess_explicit = None
        if program.Q is not None:
            hess_explicit = program.Q[self.cols][:, self.cols]
        elif program.hessian_is_diagonal and program.hess_diag is not None:
            hess_explicit = sp.diags(program.hess_diag(state.x)[self.cols])
        if hess_explicit is not None:
            H = hess_explicit + sp.diags(self.diag_shift)
            if self.m:
                self.matrix = sp.bmat([
                    [-H, self.A_act.T],
                    [self.A_act, self.delta * sp.eye(self.m)],
                ], format="csc")
            else:
                self.matrix = (-H).tocsc()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v1, v2 = v[:self.na], v[self.na:]
        full = np.zeros(self._program.n)
        full[self.cols] = v1
        hv = self._program.hess_action(self._x, full)[self.cols]
        top = -(hv + self.diag_shift * v1) + self.A_act.T @ v2
        bottom = self.A_act @ v1 + self.delta * v2
        return np.concatenate([top, bottom])


class NormalEquations:
    """SPD operator dy -> (A G^-1 A' + delta I) dy with G diagonal."""

    def __init__(self, state: IpPmmState, program: ConvexProgram):
        if not program.hessian_is_diagonal or program.hess_diag is None:
            raise UnsupportedStructureError(
                "normal equations need a diagonal Hessian; use the augmented path")
        self.cols = state.active_indices()
        self.A_act = sp.csc_matrix(program.A[:, self.cols])
        self.gdiag = (program.hess_diag(state.x)[self.cols]
                      + state.xi_diag()[self.cols] + state.rho)
        self.delta = state.delta
        self.m = program.m

    def matvec(self, dy: np.ndarray) -> np.ndarray:
        return self.A_act @ ((self.A_act.T @ dy) / self.gdiag) + self.delta * dy

    def rhs(self, r1a: np.ndarray, r2: np.ndarray) -> np.ndarray:
        return r2 + self.A_act @ (r1a / self.gdiag)

    def recover_dx(self, dy: np.ndarray, r1a: np.ndarray) -> np.ndarray:
        return (self.A_act.T @ dy - r1a) / self.gdiag


# ---------------------------------------------------------------------------
# Per-iteration linear solver contexts


class _DirectContext:
    def __init__(self, state, program, options):
        self.system = AugmentedSystem(state, program)
        if self.system.matrix is None:
            raise UnsupportedStructureError(
                "direct path needs an explicit quadratic or diagonal Hessian")
        self.lu = spla.splu(self.system.matrix)
        self.inner_iterations = 0

    def solve(self, r1a, r2):
        na = self.system.na
        if self.system.m:
            sol = self.lu.solve(np.concatenate([r1a, r2]))
            return sol[:na], sol[na:]
        return self.lu.solve(r1a), np.zeros(0)


class _NormalContext:
    def __init__(self, state, program, options):
        self.system = NormalEquations(state, program)
        self.options = options
        self.inner_iterations = 0
        kind = options.precond
        if kind == "auto":
            kind = "fmri-block" if program.row_split is not None else "identity"
        if kind == "fmri-block":
            self.precond = precondmod.build_fmri_normal_precond(
                self.system.gdiag, self.system.A_act, program.row_split, state.delta)
        elif kind == "identity":
            self.precond = precondmod.identity_preconditioner(program.m)
        else:
            raise ValueError(f"unknown preconditioner {kind!r} for the normal path")

    def solve(self, r1a, r2):
        rhs = self.system.rhs(r1a, r2)
        nrm = np.linalg.norm(rhs)
        base = self.options.pcg_tol
        tol = base if nrm < 1.0 else max(1e-8, base / nrm)
        out = pcg(self.system.matvec, rhs, self.precond.apply_inverse,
                  tol=tol, maxit=self.options.pcg_maxit)
        self.inner_iterations += out.iterations
        dy = out.solution
        return self.system.recover_dx(dy, r1a), dy


class _MinresContext:
    def __init__(self, state, program, options):
        self.system = AugmentedSystem(state, program)
        self.options = options
        self.inner_iterations = 0
        kind = options.precond
        if kind == "auto":
            kind = "aug-block"
        if kind == "identity":
            self.precond = precondmod.identity_preconditioner(
                self.system.na + program.m)
        elif kind == "aug-block":
            chooser = (program.hess_diag_cheap
                       if options.htilde_choice == "u-squared"
                       else program.hess_diag)
            if chooser is None:
                raise UnsupportedStructureError(
                    f"program provides no diagonal for {options.htilde_choice}")
            htilde = chooser(state.x)[self.system.cols] + self.system.diag_shift
            self.precond = precondmod.build_aug_block_diag_precond(
                htilde, self.system.A_act, state.delta)
        else:
            raise ValueError(f"unknown preconditioner {kind!r} for the MINRES path")

    def solve(self, r1a, r2):
        out = minres(self.system.matvec, np.concatenate([r1a, r2]),
                     self.precond.apply_inverse,
                     tol=self.options.minres_tol, maxit=self.options.minres_maxit)
        self.inner_iterations += out.iterations
        na = self.system.na
        return out.solution[:na], out.solution[na:]


_CONTEXTS = {
    "direct-augmented": _DirectContext,
    "pcg-normal": _NormalContext,
    "minres-augmented": _MinresContext,
}


# ---------------------------------------------------------------------------
# Steps


def step_lengths(state: IpPmmState, dx: np.ndarray, dz: np.ndarray,
                 fraction: float = 0.995):
    """Fraction-to-the-boundary primal and dual step lengths in (0, 1]."""
    ia = state.nonneg_active()

    def max_step(v, dv):
        neg = dv < 0
        if not np.any(neg):
            return 1.0
        return min(1.0, fraction * float(np.min(-v[neg] / dv[neg])))

    return max_step(state.x[ia], dx[ia]), max_step(state.z[ia], dz[ia])


def _expand_direction(state, cols, dxa, dy, rc=None):
    dx = np.zeros(state.x.size)
    dx[cols] = dxa
    dz = np.zeros(state.x.size)
    ia = state.nonneg_active()
    if ia.size:
        r = rc if rc is not None else np.zeros(state.x.size)
        dz[ia] = (r[ia] - state.z[ia] * dx[ia]) / state.x[ia]
    return dx, dy, dz


def predictor_corrector_step(state: IpPmmState, program: ConvexProgram,
                             ctx, options: SolverOptions, grad=None):
    """Affine predictor then centering-corrector solve with the same matrix."""
    if grad is None:
        grad = program.gradient(state.x)
    cols = state.active_indices()
    ia = state.nonneg_active()

    # predictor: sigma = 0, complementarity rhs -XZe
    r1a, r2 = newton_rhs(state, program, grad, sigma=0.0)
    dxa, dy = ctx.solve(r1a, r2)
    rc_aff = np.zeros(program.n)
    rc_aff[ia] = -state.x[ia] * state.z[ia]
    dx_aff, dy_aff, dz_aff = _expand_direction(state, cols, dxa, dy, rc_aff)

    ap, ad = step_lengths(state, dx_aff, dz_aff, options.boundary_fraction)
    if ia.size:
        mu_aff = float((state.x[ia] + ap * dx_aff[ia])
                       @ (state.z[ia] + ad * dz_aff[ia])) / ia.size
        ratio = mu_aff / state.mu if state.mu > 0 else 0.0
        sigma = float(np.clip(ratio ** 3, options.sigma_min, options.sigma_max))
    else:
        sigma = options.sigma_min

    # corrector: centering plus second-order complementarity correction
    soc = dx_aff * dz_aff
    r1a, r2 = newton_rhs(state, program, grad, sigma=sigma, correction=soc)
    dxa, dy = ctx.solve(r1a, r2)
    rc = np.zeros(program.n)
    rc[ia] = sigma * state.mu - state.x[ia] * state.z[ia] - soc[ia]
    dx, dy, dz = _expand_direction(state, cols, dxa, dy, rc)
    return dx, dy, dz, sigma


def update_penalties_and_estimates(state: IpPmmState, options: SolverOptions,
                                   primal_norm: float, dual_norm: float):
    """Shrink penalties at the rate of mu; refresh proximal estimates when the
    residuals have decreased sufficiently since the last refresh."""
    mu_new = state.complementarity()
    if state.mu > 0 and mu_new >= 0:
        ratio = min(1.0, mu_new / state.mu) if state.mu > 0 else 1.0
        state.rho = max(options.rho_floor, state.rho * ratio)
        state.delta = max(options.delta_floor, state.delta * ratio)
    state.mu = mu_new
    factor = options.estimate_decrease
    if (primal_norm <= factor * state.last_primal_norm
            and dual_norm <= factor * state.last_dual_norm):
        state.zeta = state.x.copy()
        state.eta = state.y.copy()
        state.last_primal_norm = primal_norm
        state.last_dual_norm = dual_norm


def solve(program: ConvexProgram, options: Optional[SolverOptions] = None):
    """Run IP-PMM; returns ((x, y, z), SolveReport)."""
    options = options or SolverOptions()
    if options.linear_solver not in _CONTEXTS:
        raise ValueError(f"unknown linear solver {options.linear_solver!r}")
    t_start = time.perf_counter()
    t_linalg = 0.0
    state = initial_state(program, options)
    mu0 = max(state.mu, np.finfo(float).tiny)
    report = SolveReport()
    status = "max-iterations"

    for k in range(options.max_iter):
        state.k = k
        primal, dual, mu, grad, rp, rd = kkt_residuals(state, program)
        report.primal_inf_history.append(primal)
        report.dual_inf_history.append(dual)
        report.mu_history.append(mu)
        if not (np.isfinite(primal) and np.isfinite(dual) and np.isfinite(mu)):
            status = "numerical-failure"
            break
        if check_termination(primal, dual, mu, options.tol):
            status = "optimal"
            break

        t0 = time.perf_counter()
        try:
            ctx = _CONTEXTS[options.linear_solver](state, program, options)
            dx, dy, dz, _ = predictor_corrector_step(state, program, ctx,
                                                     options, grad=grad)
        except (RuntimeError, np.linalg.LinAlgError):
            status = "numerical-failure"
            break
        t_linalg += time.perf_counter() - t0
        report.inner_iterations += ctx.inner_iterations

        ap, ad = step_lengths(state, dx, dz, options.boundary_fraction)
        state.x = state.x + ap * dx
        state.y = state.y + ad * dy
        state.z = state.z + ad * dz
        update_penalties_and_estimates(state, options,
                                       float(np.linalg.norm(rp)),
                                       float(np.linalg.norm(rd[state.active_indices()])))
        if options.dropping and state.mu <= options.drop_activation * mu0:
            dropmod.scan_and_drop(state, program, options.eps_drop, options.xi)
        report.iterations = k + 1
    else:
        report.iterations = options.max_iter

    audit = None
    if options.dropping:
        audit = dropmod.verify_dropped(state.x, state.y, program, state.drop_log)
        report.drop_audit = audit.to_dict()
        if audit.violated and status == "optimal":
            status = "numerical-failure"
    report.status = status
    report.final_objective = float(program.objective(state.x))
    report.time_s = time.perf_counter() - t_start
    report.phase_times = {"linear_algebra_s": t_linalg,
                          "other_s": report.time_s - t_linalg}
    return (state.x, state.y, state.z), report

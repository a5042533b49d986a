"""First-order reference solvers used in the benchmark comparisons:
alternating split Bregman with a cached Cholesky factor, FISTA with an inner
proximal loop, and ADMM with a truncated-CG subproblem solver."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .krylov import CholeskyFactor, pcg
from .problems import (FusedLassoLsInstance, LogisticInstance,
                       PortfolioInstance, budget_constraints, logistic_oracle)

# Method constants of the baselines; they are not caller settings.
ASB_LAMBDAS = (1.0, 1.0, 1.0)  # split Bregman penalties of A w = b, L w = d, w = u
FISTA_INNER_STEPS = 10         # inner dual proximal steps per FISTA step
ADMM_RHO = 1.0                 # ADMM penalty
ADMM_INNER_CG_STEPS = 10       # CG iterations per ADMM subproblem solve


@dataclass
class FirstOrderReport:
    status: str = "max-iterations"
    iterations: int = 0
    primal_inf_history: list = field(default_factory=list)
    objective_history: list = field(default_factory=list)
    time_s: float = 0.0
    inner_iterations: int = 0
    factorizations: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "status": self.status,
            "iters": self.iterations,
            "primal_inf": self.primal_inf_history,
            "objective": self.objective_history,
            "time_s": self.time_s,
            "inner_iters": self.inner_iterations,
            "factorizations": self.factorizations,
        }, indent=2)

    def record(self, k: int, feas: float, objective: float, tol: float,
               t0: float, time_budget: Optional[float]) -> bool:
        """Log iteration ``k``; True when the run stops (converged or out of
        time). The tolerance test comes first."""
        self.primal_inf_history.append(feas)
        self.objective_history.append(objective)
        self.iterations = k
        if feas <= tol:
            self.status = "converged"
        elif time_budget is not None and time.perf_counter() - t0 >= time_budget:
            self.status = "time-budget"
        return self.status != "max-iterations"


def soft_threshold(v: np.ndarray, gamma: float) -> np.ndarray:
    """Componentwise shrinkage sign(v) * max(|v| - gamma, 0)."""
    if gamma < 0:
        raise ValueError("threshold must be non-negative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def asb_chol_solve(inst: PortfolioInstance, tol: float = 1e-6, maxit: int = 5000,
                   time_budget: Optional[float] = None):
    """Alternating split Bregman on the three-way splitting of the portfolio
    model; the quadratic subproblem matrix H = C + l1*A'A + l2*L'L + l3*I is
    factorized exactly once and reused across all iterations."""
    l1, l2, l3 = ASB_LAMBDAS
    t0 = time.perf_counter()
    C = inst.block_covariance()
    L = inst.difference.matrix
    Abar, bbar = budget_constraints(inst)

    n = L.shape[1]
    H = (C + l1 * (Abar.T @ Abar) + l2 * (L.T @ L)
         + l3 * sp.eye(n)).tocsc()
    factor = CholeskyFactor(H)
    report = FirstOrderReport(factorizations=1)

    w = np.zeros(n)
    u = np.zeros(n)
    d = np.zeros(L.shape[0])
    p = np.zeros(bbar.size)
    q = np.zeros(L.shape[0])
    t = np.zeros(n)
    bnorm = max(np.linalg.norm(bbar), 1.0)
    for k in range(1, maxit + 1):
        rhs = (l1 * (Abar.T @ (bbar - p)) + l2 * (L.T @ (d - q))
               + l3 * (u - t))
        w = factor.solve(rhs)
        u = soft_threshold(w + t, inst.tau1 / l3)
        d = soft_threshold(L @ w + q, inst.tau2 / l2)
        p += Abar @ w - bbar
        q += L @ w - d
        t += w - u
        feas = float(np.linalg.norm(Abar @ w - bbar)) / bnorm
        if report.record(k, feas, inst.original_objective(w), tol, t0,
                         time_budget):
            break
    report.time_s = time.perf_counter() - t0
    return w, report


def _power_sigma_max_sq(matvec, rmatvec, n):
    """Largest squared singular value by 50 power steps on M'M from a fixed start."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(50):
        u = rmatvec(matvec(v))
        lam = float(np.linalg.norm(u))
        if lam == 0:
            return 0.0
        v = u / lam
    return lam


def _prox_l1_analysis(v, Lhat_mv, Lhat_rmv, lip, gamma, phi0):
    """Approximate prox of gamma*||Lhat w||_1 at v by an inner dual FISTA loop.

    Maximizes the dual -0.5*||v - Lhat' phi||^2 over ||phi||_inf <= gamma with
    projected accelerated gradient steps; returns (w, phi) with w = v - Lhat' phi.
    """
    phi = phi0.copy()
    psi = phi.copy()
    theta = 1.0
    for _ in range(FISTA_INNER_STEPS):
        grad = Lhat_mv(v - Lhat_rmv(psi))
        cand = np.clip(psi + grad / lip, -gamma, gamma)
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2))
        psi = cand + (theta - 1.0) / theta_new * (cand - phi)
        phi = cand
        theta = theta_new
    return v - Lhat_rmv(phi), phi


def fista_solve(inst: FusedLassoLsInstance, time_budget: Optional[float] = None,
                tol: float = 1e-8, maxit: int = 5000):
    """Accelerated proximal gradient on the least-squares term with the
    composite l1 + TV penalty handled by an inner dual proximal loop."""
    t0 = time.perf_counter()
    D = inst.data
    g = inst.labels
    s, qdim = D.shape
    L = inst.tv.matrix
    ell = L.shape[0]

    def Lhat_mv(w):
        return np.concatenate([inst.tau1 * w, inst.tau2 * (L @ w)])

    def Lhat_rmv(phi):
        return inst.tau1 * phi[:qdim] + inst.tau2 * (L.T @ phi[qdim:])

    lip_f = max(_power_sigma_max_sq(lambda v: D @ v, lambda u: D.T @ u, qdim) / s,
                np.finfo(float).tiny)
    step = 1.0 / lip_f
    lip_dual = max(_power_sigma_max_sq(Lhat_rmv, Lhat_mv, qdim + ell), 1e-12)

    report = FirstOrderReport()
    w = np.zeros(qdim)
    v = w.copy()
    phi = np.zeros(qdim + ell)
    theta = 1.0
    reg_active = inst.tau1 > 0 or inst.tau2 > 0
    for k in range(1, maxit + 1):
        grad = D.T @ (D @ v - g) / s
        point = v - step * grad
        if reg_active:
            w_new, phi = _prox_l1_analysis(point, Lhat_mv, Lhat_rmv, lip_dual,
                                           step, phi)
            report.inner_iterations += FISTA_INNER_STEPS
        else:
            w_new = point
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2))
        v = w_new + (theta - 1.0) / theta_new * (w_new - w)
        change = float(np.linalg.norm(w_new - w)) / (1.0 + np.linalg.norm(w))
        w = w_new
        theta = theta_new
        if report.record(k, change, inst.original_objective(w), tol, t0,
                         time_budget):
            break
    report.time_s = time.perf_counter() - t0
    return w, report


def admm_fused_lasso(inst: FusedLassoLsInstance,
                     time_budget: Optional[float] = None,
                     tol: float = 1e-8, maxit: int = 5000):
    """Scaled-dual ADMM on the fused-lasso least-squares model; the smooth
    subproblem gets a handful of CG iterations per outer step."""
    t0 = time.perf_counter()
    D = inst.data
    glab = inst.labels
    s, qdim = D.shape
    L = inst.tv.matrix
    ell = L.shape[0]
    LtL = (L.T @ L).tocsr()

    def subproblem_mv(v):
        return D.T @ (D @ v) / s + ADMM_RHO * (v + LtL @ v)

    report = FirstOrderReport()
    w = np.zeros(qdim)
    u = np.zeros(qdim)
    d = np.zeros(ell)
    p = np.zeros(qdim)
    qdual = np.zeros(ell)
    for k in range(1, maxit + 1):
        rhs = (D.T @ glab / s + ADMM_RHO * (u - p)
               + ADMM_RHO * (L.T @ (d - qdual)))
        out = pcg(subproblem_mv, rhs - subproblem_mv(w),
                  tol=1e-12, maxit=ADMM_INNER_CG_STEPS)
        w = w + out.solution
        report.inner_iterations += out.iterations
        u_prev, d_prev = u, d
        u = soft_threshold(w + p, inst.tau1 / ADMM_RHO)
        Lw = L @ w
        d = soft_threshold(Lw + qdual, inst.tau2 / ADMM_RHO)
        p += w - u
        qdual += Lw - d
        scale = 1.0 + np.linalg.norm(w)
        primal = np.hypot(np.linalg.norm(w - u), np.linalg.norm(Lw - d))
        dual = ADMM_RHO * np.hypot(np.linalg.norm(u - u_prev),
                                   np.linalg.norm(L.T @ (d - d_prev)))
        feas = float(max(primal, dual)) / scale
        if report.record(k, feas, inst.original_objective(w), tol, t0,
                         time_budget):
            break
    report.time_s = time.perf_counter() - t0
    return w, report


def admm_logistic(inst: LogisticInstance, time_budget: Optional[float] = None,
                  tol: float = 1e-8, maxit: int = 5000):
    """Scaled-dual ADMM on the l1-regularized logistic model; the smooth
    subproblem gets a few Newton-CG steps per outer step."""
    t0 = time.perf_counter()
    D = inst.design()
    glab = inst.labels
    sdim = D.shape[1]

    report = FirstOrderReport()
    w = np.zeros(sdim)
    u = np.zeros(sdim)
    p = np.zeros(sdim)
    for k in range(1, maxit + 1):
        # w-update: a few Newton steps on logistic(w) + rho/2 ||w - u + p||^2,
        # each linear system truncated to ADMM_INNER_CG_STEPS CG iterations
        for _ in range(5):
            grad, hw = logistic_oracle(D, glab, w)
            res = grad + ADMM_RHO * (w - u + p)
            if np.linalg.norm(res) <= 1e-10:
                break
            out = pcg(lambda v: D.T @ (hw * (D @ v)) + ADMM_RHO * v,
                      -res, tol=1e-12, maxit=ADMM_INNER_CG_STEPS)
            w = w + out.solution
            report.inner_iterations += out.iterations
        u_prev = u
        u = soft_threshold(w + p, inst.tau / ADMM_RHO)
        p += w - u
        feas = float(max(np.linalg.norm(w - u),
                         ADMM_RHO * np.linalg.norm(u - u_prev))) \
            / (1.0 + np.linalg.norm(w))
        if report.record(k, feas, inst.original_objective(w), tol, t0,
                         time_budget):
            break
    report.time_s = time.perf_counter() - t0
    return w, report

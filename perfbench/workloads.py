"""Workload table and per-solve output check for the solve benchmark.

Every workload generates a fresh instance per solve and solves it with the
options its ``sparseipm`` CLI subcommand uses, dropping on. Generators and
builders are looked up on their modules at call time, so the tracer in
``tracing.py`` sees them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from sparseipm import harness, ippmm, linops, metrics, problems


@dataclass
class Case:
    """One generated instance, ready to solve and score."""

    program: problems.ConvexProgram
    options: ippmm.SolverOptions
    score: Callable[[np.ndarray], dict]  # x -> {"objective": ..., family metric: ...}


def _portfolio(seed: int) -> Case:
    inst = harness.gen_portfolio(40, 12, seed)
    prog = problems.build_portfolio_qp(inst)
    opts = ippmm.SolverOptions(linear_solver="direct-augmented", dropping=True,
                               eps_drop=1e-4)

    def score(x):
        w = prog.extract(x)
        w_naive, _ = problems.naive_portfolio(inst)
        try:
            risk, _, _ = metrics.portfolio_ratios(
                w, w_naive, inst.block_covariance(), inst.num_periods, eps=1e-4)
        except metrics.UndefinedMetricError:
            risk = float("nan")
        return {"objective": inst.original_objective(w), "risk_ratio": risk}

    return Case(prog, opts, score)


def _fmri(seed: int) -> Case:
    inst, _ = harness.gen_fused_lasso(60, (8, 8, 8), seed)
    prog = problems.build_fused_lasso_ls(inst)
    opts = ippmm.SolverOptions(linear_solver="pcg-normal", precond="fmri-block",
                               dropping=True, eps_drop=1e-6)
    return Case(prog, opts,
                lambda x: {"objective": inst.original_objective(prog.extract(x))})


def _poisson(seed: int) -> Case:
    img = harness.builtin_image("squares", 32)
    kernel = linops.BlurKernel("gaussian", img.shape, {"sigma": 1.0})
    inst, wbar = harness.gen_blur_instance(img, kernel, 100.0, 1.0, seed, lam=5e-3)
    prog = problems.build_poisson_tv(inst)
    # the interior start of `sparseipm restore`
    w0 = np.maximum(inst.observed - inst.background,
                    1e-2 * max(1.0, inst.observed.mean()))
    Lw0 = linops.make_tv_operator(inst.blur.grid).apply(w0)
    x0 = np.concatenate([w0, np.maximum(Lw0, 0) + 1.0, np.maximum(-Lw0, 0) + 1.0])
    opts = ippmm.SolverOptions(linear_solver="minres-augmented",
                               htilde_choice="u-squared", dropping=True,
                               eps_drop=1e-6, x0=x0)

    def score(x):
        w = prog.extract(x)
        _, psnr, _ = metrics.image_scores(w, wbar, shape=img.shape)
        return {"objective": inst.original_objective(w), "psnr_db": float(psnr)}

    return Case(prog, opts, score)


def _logistic(seed: int) -> Case:
    inst, _, _ = harness.gen_classification(2000, 400, 2.0, 0.1, seed)
    prog = problems.build_logistic_l1(inst)
    opts = ippmm.SolverOptions(linear_solver="minres-augmented",
                               htilde_choice="diag-h", dropping=True, eps_drop=1e-6)

    def score(x):
        w = prog.extract(x)
        wt = metrics.threshold_solution(w) if np.any(w) else w
        pred = np.sign(inst.design() @ wt)
        pred[pred == 0] = 1.0
        return {"objective": inst.original_objective(w),
                "accuracy_pct": 100.0 * float(np.mean(pred == inst.labels))}

    return Case(prog, opts, score)


# why each workload was chosen: README.md and BENCHMARK.json
WORKLOADS = {
    "portfolio-direct": _portfolio,
    "fmri-pcg": _fmri,
    "poisson-minres": _poisson,
    "logistic-minres": _logistic,
}


def check_solve(program, options, x, report) -> dict:
    """Independent output check of one returned solve.

    ``passed`` needs every clause; ``false_claim`` marks a solve that reports
    ``optimal`` while some other clause fails.
    """
    primal_check = float(np.linalg.norm(program.b - program.A @ x)) \
        / (1.0 + float(np.linalg.norm(program.b)))
    final = (report.primal_inf_history[-1], report.dual_inf_history[-1],
             report.mu_history[-1])
    audit = report.drop_audit or {"violated": []}
    clauses = {
        "status": report.status == "optimal",
        "audit": not audit["violated"],
        "reported_kkt": max(final) <= options.tol,
        "primal_residual": primal_check <= options.tol,
        "nonneg": bool(np.all(x[program.nonneg] >= 0)),
    }
    passed = all(clauses.values())
    return {"passed": passed,
            "false_claim": clauses["status"] and not passed,
            "kkt_final": float(max(final))}

"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line (bypassing capture) so a full run
yields a nine-line scoreboard, then asserts the same conditions. Criterion 07
checked the variable-dropping heuristic, which the solver no longer has; its
number stays unused so that the others keep theirs.
"""
import dataclasses
import sys
import time

import numpy as np
import pytest

import conftest
from sparseipm import precond
from sparseipm.baselines import admm_logistic, asb_chol_solve
from sparseipm.harness import (builtin_image, gen_blur_instance,
                               gen_classification, gen_fused_lasso,
                               gen_portfolio)
from sparseipm.ippmm import (NormalEquations, SolverOptions, kkt_residuals,
                             newton_rhs, solve)
from sparseipm.linops import BccbOperator, BlurKernel, make_tv_operator
from sparseipm.metrics import (corrected_overlap, count_transactions,
                               image_scores, portfolio_ratios,
                               threshold_solution)
from sparseipm.problems import (build_fused_lasso_ls, build_logistic_l1,
                                build_poisson_tv, build_portfolio_qp,
                                kl_gradient, kl_value, logistic_loss,
                                logistic_oracle, quadratic_program)
from test_ippmm import direct_matrix, direct_step, factored, random_state
from test_problems import dense_hessian, dense_htilde


def _report(num, title, ok):
    line = f"[criterion {num:02d}] {title}: {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.acceptance_lines.append(line)


def _portfolio_suite():
    for seed in range(20):
        yield seed, 5 + seed % 16, 3 + seed % 4


def _central_fd(f, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_criterion_01_portfolio_convergence():
    t0 = time.perf_counter()
    ok = True
    for seed, s, m in _portfolio_suite():
        inst = gen_portfolio(s, m, seed)
        prog = build_portfolio_qp(inst)
        (x, _, _), rep = solve(prog, SolverOptions(
            tol=1e-6, linear_solver="direct-augmented"))
        w_ref, ref = asb_chol_solve(inst, tol=1e-10, maxit=100000)
        oi = inst.original_objective(prog.extract(x))
        oa = inst.original_objective(w_ref)
        ok &= rep.status == "optimal" and rep.iterations <= 40
        ok &= ref.status == "converged"
        ok &= abs(oi - oa) <= 1e-4 * (1 + abs(oa))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(1, "portfolio KKT convergence vs factorized-splitting oracle", ok)
    assert ok, f"suite failed or too slow ({elapsed:.1f}s)"


def test_criterion_02_normal_preconditioner_spectra():
    t0 = time.perf_counter()
    cases = [(3, (2, 2, 2)), (4, (3, 3, 2)), (5, (3, 3, 3)), (6, (4, 3, 3)),
             (7, (4, 4, 3)), (8, (4, 4, 4)), (9, (3, 3, 3)), (10, (4, 4, 2)),
             (3, (4, 4, 4)), (6, (3, 3, 2))]
    rho = delta = 1e-4
    ok = True
    for k, (s, grid) in enumerate(cases):
        inst, _ = gen_fused_lasso(s, grid, seed=100 + k)
        prog = build_fused_lasso_ls(inst)
        rng = np.random.default_rng(k)
        x = rng.uniform(0.1, 5.0, prog.n)
        theta_inv = np.zeros(prog.n)
        theta_inv[prog.nonneg] = rng.uniform(0.1, 10.0, prog.nonneg.size)
        g = prog.Q.diagonal() + theta_inv + rho
        rep = precond.fmri_spectral_report(g, prog.A, s, rho, delta)
        ell = prog.m - s
        rank = np.linalg.matrix_rank(inst.data)
        ok &= rep.eigenvalues.min() > rep.chi - 1e-10
        ok &= rep.eigenvalues.max() < 2.0 + 1e-10
        ok &= rep.unit_count >= ell - rank
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(2, "block normal-equations preconditioner eigenvalue bounds", ok)
    assert ok


def _aug_interval_ok(prog, x, theta_inv, rho, delta, htilde_choice, u2):
    """``u2`` is the diagonal of the paper's u-squared H~ at x."""
    shift = theta_inv + rho
    H = dense_hessian(prog, x) + np.diag(shift)
    if htilde_choice == "diag-h":
        htilde = np.diag(H).copy()
    elif htilde_choice == "solver":  # the MINRES path's H~, couplings and all
        htilde = dense_htilde(prog, x) + np.diag(shift)
    else:
        htilde = u2 + shift
    rep = precond.aug_spectral_report(H, prog.A, htilde, delta)
    tol = 1e-8
    eigs = rep.eigenvalues
    neg, pos = eigs[eigs < 0], eigs[eigs > 0]
    ok = bool(np.all(neg >= -rep.beta_h - 1.0 - tol)
              and np.all(neg <= -rep.alpha_h + tol)
              and np.all(pos >= 1.0 / (1.0 + rep.beta_h) - tol)
              and np.all(pos <= 1.0 + tol))
    if htilde_choice == "diag-h":
        ok &= rep.alpha_h <= 1.0 + tol and rep.beta_h >= 1.0 - tol
    if htilde_choice == "solver":  # diagonally dominant, with couplings >= 0
        Ht = dense_htilde(prog, x)
        off = Ht - np.diag(np.diag(Ht))
        floor = 1e-14 * np.abs(Ht).max()
        ok &= bool(off.min() >= -floor
                   and np.all(np.diag(Ht) >= np.abs(off).sum(axis=1) - floor))
    return ok


def test_criterion_03_augmented_preconditioner_spectra():
    t0 = time.perf_counter()
    rho = delta = 1e-3
    ok = True
    for k in range(5):
        img = builtin_image("squares", 8)
        kernel = BlurKernel("gaussian", (8, 8), {"sigma": 1.0})
        inst, _ = gen_blur_instance(img, kernel, 40.0, 1.0, seed=k,
                                    noise=False)
        prog = build_poisson_tv(inst)
        rng = np.random.default_rng(200 + k)
        x = rng.uniform(0.5, 5.0, prog.n)
        theta_inv = np.zeros(prog.n)
        theta_inv[prog.nonneg] = rng.uniform(0.1, 10.0, prog.nonneg.size)
        # u^2 = g/(Dw + a)^2 on the pixels, zero on the pairs
        u2 = np.zeros(prog.n)
        u2[:inst.blur.cols] = inst.observed / (
            inst.blur.apply(x[:inst.blur.cols]) + inst.background) ** 2
        for choice in ("u-squared", "diag-h", "solver"):
            ok &= _aug_interval_ok(prog, x, theta_inv, rho, delta, choice, u2)
    for k in range(5):
        inst, _, _ = gen_classification(30, 12, seed=300 + k)
        prog = build_logistic_l1(inst)
        rng = np.random.default_rng(400 + k)
        x = rng.uniform(0.1, 3.0, prog.n)
        theta_inv = np.zeros(prog.n)
        theta_inv[prog.nonneg] = rng.uniform(0.1, 10.0, prog.nonneg.size)
        u2 = np.diag(dense_htilde(prog, x))  # H~ = diag H on logistic
        for choice in ("u-squared", "diag-h"):
            ok &= _aug_interval_ok(prog, x, theta_inv, rho, delta, choice, u2)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(3, "augmented block-diagonal preconditioner eigenvalue bounds", ok)
    assert ok


def test_criterion_04_solver_path_equivalence():
    ok = True
    for k in range(10):
        rng = np.random.default_rng(500 + k)
        n = 10 + 4 * k  # up to 46 variables
        m = max(2, n // 3)
        prog = quadratic_program(np.diag(rng.uniform(0.1, 4.0, n)),
                                 rng.standard_normal(n),
                                 rng.standard_normal((m, n)),
                                 rng.standard_normal(m))
        st = random_state(prog, seed=600 + k)
        _, _, _, rp, gy, _ = kkt_residuals(st, prog)
        r1, r2 = newton_rhs(st, rp, gy, 1.0)
        normal = factored(NormalEquations, st, prog)
        M = np.column_stack([normal.matvec(e) for e in np.eye(m)])
        g = prog.Q.diagonal() + st.xi_diag() + st.rho  # G, diagonal
        dy_normal = np.linalg.solve(M, r2 + prog.A @ (r1 / g))
        matrix = direct_matrix(st, prog)
        sol = np.linalg.solve(matrix, np.concatenate([r1, r2]))
        dy_aug = sol[n:]
        ok &= np.linalg.norm(dy_normal - dy_aug) \
            <= 1e-8 * (1 + np.linalg.norm(dy_aug))
        # the direct path's step is the dense solve of the same matrix
        ok &= np.linalg.norm(direct_step(st, prog, r1, r2) - sol) \
            <= 1e-8 * (1 + np.linalg.norm(sol))
    _report(4, "normal-equations step equals dense augmented step", ok)
    assert ok


def test_criterion_05_gradient_fidelity():
    ok = True
    img = builtin_image("disk", 8)
    kernel = BlurKernel("gaussian", (8, 8), {"sigma": 1.0})
    kl_inst, _ = gen_blur_instance(img, kernel, 30.0, 1.0, seed=0, noise=False)
    rng = np.random.default_rng(700)
    for _ in range(20):
        w = rng.uniform(1.0, 20.0, 64)
        grad = kl_gradient(w, kl_inst)
        fd = _central_fd(lambda v: kl_value(v, kl_inst), w)
        ok &= np.linalg.norm(fd - grad) <= 1e-6 * (1 + np.linalg.norm(grad))
    D = rng.standard_normal((25, 6))
    g = rng.choice([-1.0, 1.0], size=25)
    for _ in range(20):
        w = rng.standard_normal(6)
        grad, hw = logistic_oracle(D, g, w)
        fd = _central_fd(lambda v: logistic_loss(D, g, v), w)
        ok &= np.linalg.norm(fd - grad) <= 1e-6 * (1 + np.linalg.norm(grad))
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        huv = u @ (D.T @ (hw * (D @ v)))
        hvu = v @ (D.T @ (hw * (D @ u)))
        ok &= abs(huv - hvu) <= 1e-12 * (1 + abs(huv))
    _report(5, "divergence/logistic gradients match finite differences", ok)
    assert ok


def test_criterion_06_blur_operator_fidelity():
    ok = True
    n1 = n2 = 16
    rng = np.random.default_rng(800)
    kernels = [BlurKernel("gaussian", (n1, n2), {"sigma": 1.5}),
               BlurKernel("motion", (n1, n2), {"length": 5.0, "angle": 30.0}),
               BlurKernel("out-of-focus", (n1, n2), {"radius": 2.0})]
    for kernel in kernels:
        op = BccbOperator(kernel)
        psf = kernel.psf().reshape(n1, n2)
        dense = np.zeros((n1 * n2, n1 * n2))
        for i in range(n1):
            for j in range(n2):
                dense[:, i * n2 + j] = np.roll(np.roll(psf, i, axis=0),
                                               j, axis=1).ravel()
        for _ in range(3):
            v = rng.standard_normal(n1 * n2)
            ref = dense @ v
            ok &= np.linalg.norm(op.apply(v) - ref) \
                <= 1e-10 * (1 + np.linalg.norm(ref))
        for _ in range(3):
            u = rng.standard_normal(n1 * n2)
            v = rng.standard_normal(n1 * n2)
            ok &= abs(u @ op.apply(v) - v @ op.apply_transpose(u)) \
                <= 1e-10 * (1 + abs(u @ op.apply(v)))
    _report(6, "circulant blur operators match dense assembly", ok)
    assert ok


def test_criterion_08_restoration_quality():
    t0 = time.perf_counter()
    img = builtin_image("squares", 64)
    kernel = BlurKernel("gaussian", (64, 64), {"sigma": 2.0})
    inst, wbar = gen_blur_instance(img, kernel, 255.0, 1.0, seed=0)
    prog = build_poisson_tv(inst)
    w0 = np.maximum(inst.observed - inst.background,
                    1e-2 * max(1.0, inst.observed.mean()))
    Lw0 = make_tv_operator(inst.blur.grid).apply(w0)
    x0 = np.concatenate([w0, np.maximum(Lw0, 0) + 1.0,
                         np.maximum(-Lw0, 0) + 1.0])
    (x, _, _), rep = solve(prog, SolverOptions(
        linear_solver="minres-augmented", max_iter=20, x0=x0))
    w = prog.extract(x)
    rmse_obs, _, mssim_obs = image_scores(inst.observed - inst.background,
                                          wbar, shape=(64, 64))
    rmse_res, _, mssim_res = image_scores(w, wbar, shape=(64, 64))
    elapsed = time.perf_counter() - t0
    ok = (rmse_res <= 0.8 * rmse_obs and mssim_res > mssim_obs
          and elapsed < 120.0)
    _report(8, "Poisson deblurring improves RMSE (>=20%) and similarity", ok)
    assert ok, (rmse_obs, rmse_res, mssim_obs, mssim_res, elapsed)


def test_criterion_09_classification_behavior():
    # tau is set at 0.1 * lambda_max, the usual way of posing l1-logistic
    # regression (Koh, Kim & Boyd, JMLR 2007).  lambda_max, the infinity norm
    # of the mean-loss gradient at w = 0, is the smallest tau at which w = 0
    # is optimal; the bias column counts, since build_logistic_l1 penalizes
    # it too.  At the generator's default tau = 1/n the noise features'
    # gradients at w = 0 (about 0.5/sqrt(n)) are ten times tau, so the exact
    # optimum is dense: 57% of the features on this instance, with the IP-PMM
    # and ADMM objectives agreeing to better than 1e-5.  That density belongs
    # to the model, not to the solver.
    inst, _, test = gen_classification(500, 100, separation=3.0,
                                       sparsity=0.1, seed=2,
                                       test_fraction=0.4)
    D = inst.design()
    grad0, _ = logistic_oracle(D, inst.labels, np.zeros(D.shape[1]))
    inst = dataclasses.replace(inst, tau=0.1 * np.max(np.abs(grad0)))
    prog = build_logistic_l1(inst)
    t0 = time.perf_counter()
    (x, _, _), rep = solve(prog, SolverOptions(
        linear_solver="minres-augmented", htilde_choice="diag-h"))
    ipm_time = time.perf_counter() - t0
    w = prog.extract(x)
    wt = threshold_solution(w)
    D_test, g_test = test
    D_test = np.hstack([D_test, np.ones((D_test.shape[0], 1))])
    pred = np.sign(D_test @ wt)
    pred[pred == 0] = 1.0
    test_error = 100.0 * np.mean(pred != g_test)
    density = 100.0 * np.count_nonzero(wt[:100]) / 100
    w_admm, _ = admm_logistic(inst, time_budget=10.0 * ipm_time, tol=0.0,
                              maxit=10 ** 9)
    oi = inst.original_objective(w)
    oa = inst.original_objective(w_admm)
    ok = (rep.status == "optimal" and test_error <= 5.0 and density <= 30.0
          and abs(oi - oa) <= 1e-3 * (1 + abs(oa)))
    _report(9, "sparse classifier accuracy, density and objective parity", ok)
    assert ok, (rep.status, test_error, density, abs(oi - oa))


def test_criterion_10_metric_arithmetic():
    ok = True
    # identical portfolios: every ratio is exactly one
    w = np.array([0.5, 0.5, 0.4, 0.6])
    ok &= portfolio_ratios(w, w, np.eye(4), 2) == (1.0, 1.0, 1.0)
    # 480 naive versus 72 optimal active positions
    w_opt = np.zeros(480)
    w_opt[:72] = 1.0 / 72
    w_naive = np.full(480, 1.0 / 480)
    _, ratio_h, _ = portfolio_ratios(w_opt, w_naive, np.eye(480), 1)
    ok &= ratio_h == 480.0 / 72.0 and abs(ratio_h - 6.67) < 5e-3
    # unchanged single-asset portfolio makes no transactions
    ok &= count_transactions(np.array([0.3, 0.3]), 2, eps=1e-8) == 0
    # overlap: |Z| = 10 of q = 100, intersection 10 -> (10 - 1)/10
    z = np.zeros(100)
    z[:10] = 1.0
    ok &= corrected_overlap(z, z, 100) == pytest.approx(0.9)
    # disjoint equal-size supports score negative
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ok &= corrected_overlap(a, b, 2) < 0
    # threshold rules
    out = threshold_solution(np.array([1.0, 1e-6, 1e-6]), fraction=1e-4)
    ok &= np.array_equal(out, [1.0, 0.0, 0.0])
    v = np.array([2.0, -1.0])
    ok &= np.array_equal(threshold_solution(v, fraction=0.0), v)
    # image scores: exact match and the 40 dB construction
    ref = np.full((16, 16), 0.5)
    ref[0, 0] = 1.0
    rmse, psnr, ms = image_scores(ref, ref)
    ok &= rmse == 0.0 and psnr == np.inf and abs(ms - 1.0) < 1e-12
    rmse, psnr, _ = image_scores(ref + 0.01, ref)
    ok &= abs(rmse - 0.01) < 1e-15 and abs(psnr - 40.0) < 1e-10
    _report(10, "metric formulas reproduce hand-computed values", ok)
    assert ok

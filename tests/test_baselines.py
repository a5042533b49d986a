import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparseipm.baselines import (FirstOrderReport, admm_fused_lasso,
                                 admm_logistic, asb_chol_solve, fista_solve,
                                 soft_threshold)
from sparseipm.problems import (FusedLassoLsInstance, LogisticInstance,
                                budget_constraints, build_portfolio_qp)
from test_problems import make_portfolio


class TestSoftThreshold:
    def test_basic(self):
        np.testing.assert_array_equal(
            soft_threshold(np.array([3.0, -1.0, 0.5]), 2.0),
            np.array([1.0, 0.0, 0.0]))

    def test_zero_gamma_identity(self):
        v = np.array([1.5, -2.0, 0.0])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), -0.1)

    @given(hnp.arrays(np.float64, 6, elements=st.floats(-100, 100)),
           st.floats(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_shrinkage_bound(self, v, gamma):
        out = soft_threshold(v, gamma)
        bound = max(0.0, np.max(np.abs(v)) - gamma)
        assert np.max(np.abs(out)) <= bound + 1e-12

    @given(hnp.arrays(np.float64, 5, elements=st.floats(-50, 50)),
           hnp.arrays(np.float64, 5, elements=st.floats(-50, 50)),
           st.floats(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_non_expansive(self, u, v, gamma):
        lhs = np.linalg.norm(soft_threshold(u, gamma) - soft_threshold(v, gamma))
        assert lhs <= np.linalg.norm(u - v) + 1e-10


class TestRecord:
    def test_tolerance_wins_over_spent_budget(self):
        rep = FirstOrderReport()
        assert rep.record(3, 1e-9, 2.0, 1e-8, time.perf_counter(), 0.0)
        assert rep.status == "converged" and rep.iterations == 3
        assert rep.primal_inf_history == [1e-9]
        assert rep.objective_history == [2.0]

    def test_continues_until_budget_spent(self):
        rep = FirstOrderReport()
        assert not rep.record(1, 1.0, 0.0, 1e-8, time.perf_counter(), None)
        assert not rep.record(2, 1.0, 0.0, 1e-8, time.perf_counter(), 60.0)
        assert rep.status == "max-iterations"
        assert rep.record(3, 1.0, 0.0, 1e-8, time.perf_counter() - 1.0, 0.5)
        assert rep.status == "time-budget" and rep.iterations == 3


class TestAsbChol:
    def test_equality_qp_matches_dense_kkt(self):
        # tau = 0 reduces the model to an equality-constrained QP
        inst = make_portfolio(s=3, m=2, seed=40, tau1=0.0, tau2=0.0)
        w, rep = asb_chol_solve(inst, tol=1e-12, maxit=20000)
        assert rep.status == "converged"
        C = inst.block_covariance().toarray()
        A = budget_constraints(inst)[0].toarray()
        b = np.zeros(3)
        b[0], b[-1] = inst.xi_init, inst.xi_term
        K = np.block([[C, A.T], [A, np.zeros((3, 3))]])
        sol = np.linalg.solve(K, np.concatenate([np.zeros(6), b]))
        np.testing.assert_allclose(w, sol[:6], atol=1e-5)

    def test_factorizes_once(self):
        inst = make_portfolio(seed=41)
        _, rep = asb_chol_solve(inst, tol=1e-8)
        assert rep.factorizations == 1
        assert rep.iterations > 1

    def test_history_lengths(self):
        inst = make_portfolio(seed=43)
        _, rep = asb_chol_solve(inst, tol=1e-8)
        assert len(rep.primal_inf_history) == rep.iterations
        assert len(rep.objective_history) == rep.iterations

    def test_agrees_with_interior_point(self):
        from sparseipm.ippmm import SolverOptions, solve
        for seed in range(3):
            inst = make_portfolio(s=5, m=3, seed=50 + seed)
            prog = build_portfolio_qp(inst)
            (x, _, _), rep = solve(prog, SolverOptions(tol=1e-8))
            assert rep.status == "optimal"
            w, _ = asb_chol_solve(inst, tol=1e-11, maxit=50000)
            oi = inst.original_objective(prog.extract(x))
            oa = inst.original_objective(w)
            assert abs(oi - oa) <= 1e-5 * (1 + abs(oa))


def ls_instance(seed=0, s=10, q=20, tau1=0.0, tau2=0.0):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((s, q))
    g = rng.choice([-1.0, 1.0], size=s)
    return FusedLassoLsInstance(data=D, labels=g, grid=(q,),
                                tau1=tau1, tau2=tau2)


class TestFista:
    def test_zero_regularization_matches_least_squares(self):
        inst = ls_instance(seed=60)
        w, rep = fista_solve(inst, tol=1e-14, maxit=4000)
        wref = np.linalg.lstsq(inst.data, inst.labels, rcond=None)[0]
        # compare objectives: the LS problem is underdetermined
        assert inst.original_objective(w) \
            == pytest.approx(inst.original_objective(wref), abs=1e-8)

    def test_zero_data_drives_weights_to_zero(self):
        inst = ls_instance(seed=61, tau1=0.5, tau2=0.5)
        inst.data = np.zeros_like(inst.data)
        w, _ = fista_solve(inst, maxit=500)
        np.testing.assert_allclose(w, 0.0, atol=1e-8)

    def test_final_not_above_initial(self):
        inst = ls_instance(seed=62, tau1=0.1, tau2=0.1)
        w, rep = fista_solve(inst, maxit=200)
        assert rep.objective_history[-1] <= rep.objective_history[0] + 1e-12

    def test_time_budget(self):
        inst = ls_instance(seed=63, tau1=0.1, tau2=0.1)
        _, rep = fista_solve(inst, time_budget=0.0, maxit=10000)
        assert rep.status == "time-budget"
        assert rep.iterations == 1


class TestAdmm:
    def test_zero_regularization_matches_least_squares(self):
        inst = ls_instance(seed=70)
        w, _ = admm_fused_lasso(inst, tol=1e-12, maxit=4000)
        wref = np.linalg.lstsq(inst.data, inst.labels, rcond=None)[0]
        assert inst.original_objective(w) \
            == pytest.approx(inst.original_objective(wref), abs=1e-4)

    def test_decoupled_lasso_closed_form(self):
        # data 2*I makes the loss 1/2 ||w - g/sqrt(2)||^2, so each weight is
        # the soft-thresholding of its target
        D = np.sqrt(2.0) * np.eye(2)
        g = np.array([1.0, -1.0])
        inst = FusedLassoLsInstance(data=D, labels=g, grid=(2,),
                                    tau1=0.2, tau2=0.0)
        w, rep = admm_fused_lasso(inst, tol=1e-12, maxit=5000)
        expected = np.sign(g) * (1.0 / np.sqrt(2.0) - 0.2)
        np.testing.assert_allclose(w, expected, atol=1e-6)

    def test_fixed_point_feasibility(self):
        inst = ls_instance(seed=71, s=8, q=12, tau1=0.2, tau2=0.2)
        w, rep = admm_fused_lasso(inst, tol=1e-10, maxit=20000)
        assert rep.status == "converged"
        assert rep.primal_inf_history[-1] <= 1e-10

    def test_logistic_matches_scipy_reference(self):
        from scipy.optimize import minimize
        rng = np.random.default_rng(72)
        D = rng.standard_normal((40, 5))
        g = rng.choice([-1.0, 1.0], size=40)
        inst = LogisticInstance(data=D, labels=g, tau=0.05)  # 5 features + bias
        w, rep = admm_logistic(inst, tol=1e-11, maxit=20000)
        res = minimize(inst.original_objective, np.zeros(6), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        assert inst.original_objective(w) <= res.fun + 1e-6


def test_cross_solver_objective_agreement():
    # IP-PMM, ASB and ADMM on the same fused-lasso least-squares data
    from sparseipm.ippmm import SolverOptions, solve
    from sparseipm.problems import build_fused_lasso_ls
    rng = np.random.default_rng(80)
    inst = ls_instance(seed=81, s=8, q=10, tau1=0.1, tau2=0.1)
    prog = build_fused_lasso_ls(inst)
    (x, _, _), rep = solve(prog, SolverOptions(tol=1e-8, linear_solver="pcg-normal",
                                               precond="fmri-block"))
    assert rep.status == "optimal"
    oi = inst.original_objective(prog.extract(x))
    wf, _ = fista_solve(inst, tol=1e-13, maxit=20000)
    wa, _ = admm_fused_lasso(inst, tol=1e-12, maxit=20000)
    of = inst.original_objective(wf)
    oa = inst.original_objective(wa)
    assert abs(oi - of) <= 1e-4 * (1 + abs(of))
    assert abs(oi - oa) <= 1e-4 * (1 + abs(oa))

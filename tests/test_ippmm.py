import numpy as np
import pytest
import scipy.sparse as sp

from sparseipm import baselines
from sparseipm.ippmm import (AugmentedSystem, IpPmmState, NormalEquations,
                             SolverOptions, UnsupportedStructureError,
                             check_termination, initial_state, newton_rhs,
                             solve, step_lengths,
                             update_penalties_and_estimates)
from sparseipm.problems import quadratic_program
from test_problems import make_portfolio


def random_state(prog, seed=0, rho=1e-2, delta=1e-2):
    rng = np.random.default_rng(seed)
    opts = SolverOptions()
    state = initial_state(prog, opts)
    state.x[prog.nonneg] = rng.uniform(0.5, 2.0, size=prog.nonneg.size)
    state.x[prog.free] = rng.standard_normal(prog.free.size)
    state.z[prog.nonneg] = rng.uniform(0.5, 2.0, size=prog.nonneg.size)
    state.y = rng.standard_normal(prog.m)
    state.zeta = state.x + 0.1 * rng.standard_normal(prog.n)
    state.eta = state.y + 0.1 * rng.standard_normal(prog.m)
    state.mu = state.complementarity()
    state.rho, state.delta = rho, delta
    return state


class TestScalarProblems:
    def test_interior_optimum(self):
        # min 1/2 x^2 - x over x >= 0: unconstrained optimum x = 1
        prog = quadratic_program(np.array([[1.0]]), np.array([-1.0]),
                                 np.zeros((0, 1)), np.zeros(0))
        (x, y, z), rep = solve(prog, SolverOptions(tol=1e-8))
        assert rep.status == "optimal"
        assert x[0] == pytest.approx(1.0, abs=1e-6)
        assert abs(z[0]) <= 1e-6

    def test_boundary_optimum(self):
        # min x over x >= 0: solution pinned at zero with dual value 1
        prog = quadratic_program(np.zeros((1, 1)), np.array([1.0]),
                                 np.zeros((0, 1)), np.zeros(0))
        (x, y, z), rep = solve(prog, SolverOptions(tol=1e-8))
        assert rep.status == "optimal"
        assert abs(x[0]) <= 1e-6
        assert z[0] == pytest.approx(1.0, abs=1e-6)

    def test_equality_constrained(self):
        # min 1/2(x1^2 + x2^2) s.t. x1 + x2 = 2 -> (1, 1)
        prog = quadratic_program(np.eye(2), np.zeros(2),
                                 np.array([[1.0, 1.0]]), np.array([2.0]))
        (x, _, _), rep = solve(prog, SolverOptions(tol=1e-8))
        assert rep.status == "optimal"
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)


class TestStepLengths:
    def _state(self, x, z):
        n = len(x)
        prog = quadratic_program(np.eye(n), np.zeros(n), np.zeros((0, n)),
                                 np.zeros(0))
        st = initial_state(prog, SolverOptions())
        st.x = np.asarray(x, dtype=float)
        st.z = np.asarray(z, dtype=float)
        return st

    def test_nonneg_direction_full_step(self):
        st = self._state([1.0, 1.0], [1.0, 1.0])
        ap, ad = step_lengths(st, np.array([0.5, 2.0]), np.array([0.1, 0.0]))
        assert ap == 1.0 and ad == 1.0

    def test_single_blocking(self):
        st = self._state([1.0], [1.0])
        ap, _ = step_lengths(st, np.array([-2.0]), np.array([0.0]))
        assert ap == pytest.approx(0.4975)

    def test_min_over_components(self):
        st = self._state([1.0, 2.0], [1.0, 1.0])
        ap, _ = step_lengths(st, np.array([-4.0, -1.0]), np.zeros(2))
        assert ap == pytest.approx(0.995 * 0.25)

    def test_zero_direction(self):
        st = self._state([1.0], [1.0])
        assert step_lengths(st, np.zeros(1), np.zeros(1)) == (1.0, 1.0)


class TestTermination:
    def test_inclusive_boundary(self):
        assert check_termination(1e-6, 1e-6, 1e-6, 1e-6)

    def test_mu_blocks(self):
        assert not check_termination(1e-12, 1e-12, 1e-5, 1e-6)


class TestPenaltyUpdates:
    def test_rate_follows_mu(self):
        prog = quadratic_program(np.eye(2), np.zeros(2), np.zeros((0, 2)),
                                 np.zeros(0))
        st = random_state(prog, seed=1)
        st.mu = 1.0
        st.rho = 1e-3
        st.delta = 1e-3
        # force new mu = 0.1 via the iterate products
        st.x = np.array([0.1, 0.1])
        st.z = np.array([1.0, 1.0])
        update_penalties_and_estimates(st, SolverOptions(), 1.0, 1.0)
        assert st.mu == pytest.approx(0.1)
        assert st.rho == pytest.approx(1e-4)
        assert st.delta == pytest.approx(1e-4)

    def test_floor_respected(self):
        prog = quadratic_program(np.eye(1), np.zeros(1), np.zeros((0, 1)),
                                 np.zeros(0))
        st = random_state(prog, seed=2)
        st.mu = 1.0
        st.rho = st.delta = 2e-8
        st.x = np.array([1e-6])
        st.z = np.array([1e-6])
        update_penalties_and_estimates(st, SolverOptions(), 1.0, 1.0)
        assert st.rho == 1e-8 and st.delta == 1e-8

    def test_estimates_update_only_on_decrease(self):
        prog = quadratic_program(np.eye(2), np.zeros(2),
                                 np.array([[1.0, 1.0]]), np.array([1.0]))
        st = random_state(prog, seed=3)
        st.last_primal_norm = 1.0
        st.last_dual_norm = 1.0
        zeta_before = st.zeta.copy()
        update_penalties_and_estimates(st, SolverOptions(), 0.99, 0.99)
        np.testing.assert_array_equal(st.zeta, zeta_before)  # not enough decrease
        update_penalties_and_estimates(st, SolverOptions(), 0.5, 0.5)
        np.testing.assert_array_equal(st.zeta, st.x)
        np.testing.assert_array_equal(st.eta, st.y)


class TestSystemAssembly:
    def _program(self, seed=4, n=4, m=2, diag=True):
        rng = np.random.default_rng(seed)
        if diag:
            Q = np.diag(rng.uniform(0.5, 2.0, size=n))
        else:
            B = rng.standard_normal((n, n))
            Q = B @ B.T + np.eye(n)
        A = rng.standard_normal((m, n))
        return quadratic_program(Q, rng.standard_normal(n), A,
                                 rng.standard_normal(m))

    def test_augmented_matches_hand_assembly(self):
        prog = self._program(diag=False)
        st = random_state(prog, seed=5)
        system = AugmentedSystem(st, prog)
        r1, r2 = newton_rhs(st, prog, prog.gradient(st.x), 1.0)
        H = prog.Q.toarray() + np.diag(st.z / st.x) + st.rho * np.eye(4)
        K = np.block([[-H, prog.A.toarray().T],
                      [prog.A.toarray(), st.delta * np.eye(2)]])
        np.testing.assert_allclose(system.matrix.toarray(), K, atol=1e-12)
        # rhs against the definition
        g = prog.gradient(st.x)
        expected_r1 = (g - prog.A.T @ st.y + st.rho * (st.x - st.zeta)
                       - st.mu / st.x)
        np.testing.assert_allclose(r1, expected_r1, atol=1e-12)
        np.testing.assert_allclose(
            r2, prog.b - prog.A @ st.x - st.delta * (st.y - st.eta), atol=1e-12)

    def test_all_free_gives_zero_complementarity_block(self):
        rng = np.random.default_rng(6)
        prog = quadratic_program(np.eye(3), np.zeros(3),
                                 rng.standard_normal((1, 3)), np.ones(1),
                                 free=np.arange(3))
        st = random_state(prog, seed=7)
        system = AugmentedSystem(st, prog)
        block = system.matrix.toarray()[:3, :3]
        np.testing.assert_allclose(block, -(1.0 + st.rho) * np.eye(3),
                                   atol=1e-14)

    def test_matvec_agrees_with_matrix(self):
        prog = self._program(diag=False)
        st = random_state(prog, seed=8)
        system = AugmentedSystem(st, prog)
        v = np.random.default_rng(9).standard_normal(6)
        np.testing.assert_allclose(system.matvec(v), system.matrix @ v,
                                   atol=1e-10)

    def test_normal_equations_identity_case(self):
        prog = quadratic_program(np.eye(3) * 0.0, np.zeros(3), np.eye(3),
                                 np.ones(3))
        st = random_state(prog, seed=10)
        st.x = np.ones(3)
        st.z = np.ones(3)
        st.rho = 0.0
        st.delta = 0.0
        system = NormalEquations(st, prog)
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(system.matvec(v), v, atol=1e-14)

    def test_normal_equals_augmented_dy(self):
        prog = self._program(seed=11, n=10, m=4, diag=True)
        st = random_state(prog, seed=12)
        r1, r2 = newton_rhs(st, prog, prog.gradient(st.x), 1.0)
        normal = NormalEquations(st, prog)
        M = np.column_stack([normal.matvec(e) for e in np.eye(4)])
        dy_normal = np.linalg.solve(M, normal.rhs(r1, r2))
        system = AugmentedSystem(st, prog)
        sol = np.linalg.solve(system.matrix.toarray(), np.concatenate([r1, r2]))
        np.testing.assert_allclose(dy_normal, sol[10:], rtol=1e-10, atol=1e-10)

    def test_normal_operator_min_eigenvalue_at_least_delta(self):
        prog = self._program(seed=13, n=8, m=3, diag=True)
        st = random_state(prog, seed=14, delta=0.37)
        normal = NormalEquations(st, prog)
        M = np.column_stack([normal.matvec(e) for e in np.eye(3)])
        assert np.linalg.eigvalsh(M).min() >= 0.37 - 1e-12

    def test_normal_rejects_dense_hessian(self):
        prog = self._program(diag=False)
        st = random_state(prog, seed=15)
        with pytest.raises(UnsupportedStructureError):
            NormalEquations(st, prog)

    def test_sigma_one_rhs_is_perturbed_kkt_residual(self):
        prog = self._program(seed=16, diag=False)
        st = random_state(prog, seed=17)
        g = prog.gradient(st.x)
        r1, r2 = newton_rhs(st, prog, g, sigma=1.0)
        expected = (g - prog.A.T @ st.y + st.rho * (st.x - st.zeta)
                    - st.mu / st.x)
        np.testing.assert_allclose(r1, expected, atol=1e-13)


class TestSolveBehavior:
    def test_dz_zero_on_free_and_positivity(self):
        rng = np.random.default_rng(18)
        n, m = 6, 2
        Q = np.diag(rng.uniform(0.5, 2.0, size=n))
        prog = quadratic_program(Q, rng.standard_normal(n),
                                 rng.standard_normal((m, n)),
                                 rng.standard_normal(m),
                                 free=np.array([0, 1]))
        (x, y, z), rep = solve(prog, SolverOptions(tol=1e-8))
        assert rep.status == "optimal"
        np.testing.assert_array_equal(z[:2], 0.0)
        assert np.all(x[2:] > 0) and np.all(z[2:] > 0)

    def test_mu_equals_average_complementarity(self):
        inst = make_portfolio(seed=20)
        from sparseipm.problems import build_portfolio_qp
        prog = build_portfolio_qp(inst)
        (x, _, z), rep = solve(prog, SolverOptions(tol=1e-6))
        assert rep.status == "optimal"
        assert rep.mu_history[-1] >= 0

    def test_split_variable_consistency(self):
        # at optimality at most one of (x+, x-) per pair is away from zero
        inst = make_portfolio(seed=21, tau1=0.5, tau2=0.5)
        from sparseipm.problems import build_portfolio_qp
        prog = build_portfolio_qp(inst)
        tol = 1e-6
        (x, _, _), rep = solve(prog, SolverOptions(tol=tol))
        assert rep.status == "optimal"
        n = 12
        pair_min = np.minimum(x[:n], x[n:2 * n])
        assert np.all(pair_min <= 10 * tol)

    def test_three_paths_agree_on_diagonal_qp(self):
        rng = np.random.default_rng(22)
        n, m = 20, 6
        Q = np.diag(rng.uniform(0.5, 3.0, size=n))
        A = rng.standard_normal((m, n))
        x_feas = rng.uniform(0.5, 1.5, size=n)
        prog = quadratic_program(Q, rng.standard_normal(n), A, A @ x_feas)
        sols = {}
        for path in ("direct-augmented", "pcg-normal", "minres-augmented"):
            opts = SolverOptions(tol=1e-8, linear_solver=path,
                                 precond="identity" if path == "pcg-normal" else "auto",
                                 minres_maxit=200)
            (x, _, _), rep = solve(prog, opts)
            assert rep.status == "optimal", path
            sols[path] = prog.objective(x)
        vals = list(sols.values())
        assert max(vals) - min(vals) <= 1e-6 * (1 + abs(vals[0]))

    def test_fused_lasso_qp_matches_asb_oracle(self):
        # random portfolio model solved independently by split Bregman
        inst = make_portfolio(s=5, m=3, seed=23)
        from sparseipm.problems import build_portfolio_qp
        prog = build_portfolio_qp(inst)
        (x, _, _), rep = solve(prog, SolverOptions(tol=1e-8))
        assert rep.status == "optimal"
        obj_ip = inst.original_objective(prog.extract(x))
        w_ref, _ = baselines.asb_chol_solve(inst, tol=1e-12, maxit=50000)
        obj_ref = inst.original_objective(w_ref)
        assert abs(obj_ip - obj_ref) <= 1e-6 * (1 + abs(obj_ref))

    def test_report_json_schema(self):
        import json
        prog = quadratic_program(np.eye(2), -np.ones(2), np.zeros((0, 2)),
                                 np.zeros(0))
        _, rep = solve(prog, SolverOptions())
        doc = json.loads(rep.to_json())
        for key in ("status", "iters", "primal_inf", "dual_inf", "mu",
                    "time_s", "inner_iters"):
            assert key in doc
        assert doc["status"] == "optimal"
        assert len(doc["mu"]) >= 1

    def test_max_iterations_status(self):
        inst = make_portfolio(seed=24)
        from sparseipm.problems import build_portfolio_qp
        prog = build_portfolio_qp(inst)
        _, rep = solve(prog, SolverOptions(max_iter=2))
        assert rep.status == "max-iterations"
        assert rep.iterations == 2

    def test_bad_solver_name(self):
        prog = quadratic_program(np.eye(1), np.zeros(1), np.zeros((0, 1)),
                                 np.zeros(0))
        with pytest.raises(ValueError):
            solve(prog, SolverOptions(linear_solver="magic"))

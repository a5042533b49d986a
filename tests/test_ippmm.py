import dataclasses
import json
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

from sparseipm import baselines, ippmm, precond
from sparseipm.ippmm import (AugmentedSystem, IpPmmState, NormalEquations,
                             SaddleMatrix, SolverOptions, UnsupportedStructureError,
                             check_termination, initial_state, kkt_residuals,
                             newton_rhs, solve, step_lengths,
                             update_penalties_and_estimates)
from sparseipm.harness import gen_classification, gen_fused_lasso, gen_portfolio
from sparseipm.problems import (LogisticInstance, build_fused_lasso_ls,
                                build_logistic_l1, build_poisson_tv,
                                build_portfolio_qp, quadratic_program)
from planted import planted_qp
from test_precond import random_fused_lasso_layout
from test_problems import make_poisson, make_portfolio


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


def factored(cls, state, program):
    """A path's system, built for ``program`` and factored at ``state``."""
    system = cls(program, SolverOptions())
    system.factor(state)
    return system


def direct_matrix(state, program):
    """The unreduced saddle matrix [[-(Q + Θ + ρI), A'], [A, δI]] at
    ``state``, dense, from its definition."""
    H = program.Q.toarray() + np.diag(state.xi_diag() + state.rho)
    A = program.A.toarray()
    return np.block([[-H, A.T], [A, state.delta * np.eye(program.m)]])


def direct_step(state, program, r1, r2):
    """The direct path's (dx, dy) at ``state``, concatenated."""
    return np.concatenate(factored(SaddleMatrix, state, program).solve(r1, r2))


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
        update_penalties_and_estimates(st, 1.0, 1.0)
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
        update_penalties_and_estimates(st, 1.0, 1.0)
        assert st.rho == 1e-8 and st.delta == 1e-8

    def test_estimates_update_only_on_decrease(self):
        prog = quadratic_program(np.eye(2), np.zeros(2),
                                 np.array([[1.0, 1.0]]), np.array([1.0]))
        st = random_state(prog, seed=3)
        st.last_primal_norm = 1.0
        st.last_dual_norm = 1.0
        zeta_before = st.zeta.copy()
        update_penalties_and_estimates(st, 0.99, 0.99)
        np.testing.assert_array_equal(st.zeta, zeta_before)  # not enough decrease
        update_penalties_and_estimates(st, 0.5, 0.5)
        np.testing.assert_array_equal(st.zeta, st.x)
        np.testing.assert_array_equal(st.eta, st.y)
        # one residual falling is enough, whichever it is: a residual at
        # roundoff must not hold the estimates back
        for primal, dual in [(0.45, 0.9), (0.9, 0.45)]:
            st.x, st.y = st.x + 1.0, st.y + 1.0
            update_penalties_and_estimates(st, primal, dual)
            np.testing.assert_array_equal(st.zeta, st.x)
            np.testing.assert_array_equal(st.eta, st.y)
            assert (st.last_primal_norm, st.last_dual_norm) == (primal, dual)


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
        matrix = direct_matrix(st, prog)
        _, _, _, rp, gy, _ = kkt_residuals(st, prog)
        r1, r2 = newton_rhs(st, rp, gy, 1.0)
        H = prog.Q.toarray() + np.diag(st.z / st.x) + st.rho * np.eye(4)
        K = np.block([[-H, prog.A.toarray().T],
                      [prog.A.toarray(), st.delta * np.eye(2)]])
        np.testing.assert_allclose(matrix, K, atol=1e-12)
        np.testing.assert_allclose(direct_step(st, prog, r1, r2),
                                   np.linalg.solve(matrix, np.concatenate([r1, r2])),
                                   rtol=1e-10, atol=1e-10)
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
                                 nonneg=np.array([], dtype=int))
        st = random_state(prog, seed=7)
        matrix = direct_matrix(st, prog)
        block = matrix[:3, :3]
        np.testing.assert_allclose(block, -(1.0 + st.rho) * np.eye(3),
                                   atol=1e-14)
        r1, r2 = np.arange(1.0, 4.0), np.ones(1)
        np.testing.assert_allclose(direct_step(st, prog, r1, r2),
                                   np.linalg.solve(matrix, np.concatenate([r1, r2])),
                                   rtol=1e-12, atol=1e-12)

    def test_matvec_agrees_with_matrix(self):
        prog = self._program(diag=False)
        st = random_state(prog, seed=8)
        system = factored(AugmentedSystem, st, prog)
        # the system's unknowns: the columns in its band order, then dy
        order = np.concatenate([system.rows, prog.n + np.arange(prog.m)])
        matrix = direct_matrix(st, prog)[np.ix_(order, order)]
        v = np.random.default_rng(9).standard_normal(6)
        np.testing.assert_allclose(system.matvec(v), matrix @ v,
                                   atol=1e-10)

    @pytest.mark.parametrize("dropped", [[], [1, 4, 7]], ids=["all-active", "dropped"])
    def test_matvec_is_bit_identical_to_scatter_gather(self, dropped):
        prog = self._program(seed=30, n=10, m=4, diag=False)
        st = random_state(prog, seed=31)
        st.dropped[dropped] = True
        system = factored(AugmentedSystem, st, prog)
        assert system.na == prog.n  # a dropped variable's unknown is pinned
        pinned = np.isin(system.rows, dropped)
        assert np.array_equal(system.band.pinned, pinned)
        v = np.random.default_rng(32).standard_normal(system.na + prog.m)
        # the scatter, gather and concatenation the matvec used to do, on
        # the live unknowns; a pinned unknown's row is -v1
        v1, v2 = v[:system.na], v[system.na:]
        live = np.where(pinned, 0.0, v1)
        full = np.zeros(prog.n)
        full[system.rows] = live
        hv = prog.hess_action(st.x)(full)[system.rows]
        top = -(hv + system.diag_shift * live) + system.A_B.T @ v2
        top[pinned] = -v1[pinned]
        bottom = system.A_B @ live + system.delta * v2
        assert np.array_equal(system.matvec(v), np.concatenate([top, bottom]))

    def test_normal_equations_identity_case(self):
        prog = quadratic_program(np.eye(3) * 0.0, np.zeros(3), np.eye(3),
                                 np.ones(3))
        st = random_state(prog, seed=10)
        st.x = np.ones(3)
        st.z = np.ones(3)
        st.rho = 0.0
        st.delta = 0.0
        system = factored(NormalEquations, st, prog)
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(system.matvec(v), v, atol=1e-14)

    def test_normal_equals_augmented_dy(self):
        prog = self._program(seed=11, n=10, m=4, diag=True)
        st = random_state(prog, seed=12)
        _, _, _, rp, gy, _ = kkt_residuals(st, prog)
        r1, r2 = newton_rhs(st, rp, gy, 1.0)
        normal = factored(NormalEquations, st, prog)
        M = np.column_stack([normal.matvec(e) for e in np.eye(4)])
        dy_normal = np.linalg.solve(M, normal.rhs(r1, r2))
        matrix = direct_matrix(st, prog)
        sol = np.linalg.solve(matrix, np.concatenate([r1, r2]))
        np.testing.assert_allclose(dy_normal, sol[10:], rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(direct_step(st, prog, r1, r2), sol,
                                   rtol=1e-10, atol=1e-10)

    def test_normal_operator_min_eigenvalue_at_least_delta(self):
        prog = self._program(seed=13, n=8, m=3, diag=True)
        st = random_state(prog, seed=14, delta=0.37)
        normal = factored(NormalEquations, st, prog)
        M = np.column_stack([normal.matvec(e) for e in np.eye(3)])
        assert np.linalg.eigvalsh(M).min() >= 0.37 - 1e-12

    def test_normal_rejects_dense_hessian(self):
        prog = self._program(diag=False)
        st = random_state(prog, seed=15)
        with pytest.raises(UnsupportedStructureError):
            NormalEquations(prog, SolverOptions())

    def test_sigma_one_rhs_is_perturbed_kkt_residual(self):
        prog = self._program(seed=16, diag=False)
        st = random_state(prog, seed=17)
        g = prog.gradient(st.x)
        _, _, _, rp, gy, _ = kkt_residuals(st, prog)
        r1, r2 = newton_rhs(st, rp, gy, sigma=1.0)
        expected = (g - prog.A.T @ st.y + st.rho * (st.x - st.zeta)
                    - st.mu / st.x)
        np.testing.assert_allclose(r1, expected, atol=1e-13)

    @pytest.mark.parametrize("sigma", [0.0, 0.3], ids=["predictor", "corrector"])
    @pytest.mark.parametrize("dropped", [[], [1, 4, 7, 20, 33]],
                             ids=["all-active", "dropped"])
    def test_rhs_from_residuals_is_bit_identical_to_recomputed(self, dropped,
                                                               sigma):
        prog = self._program(seed=33, n=60, m=20, diag=False)
        st = random_state(prog, seed=34)
        st.dropped[dropped] = True
        soc = np.random.default_rng(35).standard_normal(prog.n) if sigma else None
        _, _, _, rp, gy, _ = kkt_residuals(st, prog)
        r1, r2 = newton_rhs(st, rp, gy, sigma, soc)
        # the formula newton_rhs used before it took b - Ax and grad - A'y
        old_r1 = prog.gradient(st.x) - prog.A.T @ st.y
        if sigma:
            old_r1 = old_r1 + sigma * st.rho * (st.x - st.zeta)
        ia = st.nonneg_active()
        barrier = np.zeros(prog.n)
        if sigma:
            barrier[ia] -= sigma * st.mu / st.x[ia]
            barrier[ia] += soc[ia] / st.x[ia]
        old_r1 = old_r1 + barrier
        old_r2 = prog.b - prog.A @ st.x - sigma * st.delta * (st.y - st.eta)
        assert np.array_equal(r1, old_r1)
        assert np.array_equal(r2, old_r2)


def record_calls(monkeypatch, owner, name, before=lambda a: a):
    """Route ``owner.name`` through a recorder: each call's first argument is
    kept in the returned list and passed on through ``before``."""
    calls, fn = [], getattr(owner, name)

    def recorded(a, *args, **kwargs):
        calls.append(a)
        return fn(before(a), *args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


class TestDirectPath:
    def test_step_matches_dense_solve_with_reused_and_restricted_order(
            self, monkeypatch):
        # 8 assets over 4 periods: w+ = x[:32], w- = x[32:64], 56 split pairs
        paired = build_portfolio_qp(gen_portfolio(8, 4, 0))
        # without pairs, every dropped variable is an unpaired one
        for prog in (paired, dataclasses.replace(paired, pairs=None)):
            orders = record_calls(monkeypatch, scipy.sparse.csgraph,
                                  "reverse_cuthill_mckee")
            bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
            st = random_state(prog, seed=41)
            Q, A = prog.Q.toarray(), prog.A.toarray()
            ctx = SaddleMatrix(prog, SolverOptions())  # one band for the whole sequence
            for change in ("first", "reused", "one-dropped", "both-dropped"):
                if change == "reused":
                    st.x = 1.5 * st.x
                    st.rho, st.delta = 1e-4, 1e-3
                elif change == "one-dropped":
                    st.dropped[2] = True   # w+_2; its partner w-_2 stays
                elif change == "both-dropped":
                    st.dropped[34] = True  # w-_2 as well
                ctx.factor(st)
                cols = st.active_indices()
                _, _, _, rp, gy, _ = kkt_residuals(st, prog)
                r1, r2 = newton_rhs(st, rp, gy, 0.5)
                # the unreduced system on the active set, every pair member kept
                H = Q[np.ix_(cols, cols)] + np.diag(st.xi_diag()[cols] + st.rho)
                K = np.block([[-H, A[:, cols].T],
                              [A[:, cols], st.delta * np.eye(prog.m)]])
                dx, dy = ctx.solve(r1, r2)
                expected = np.linalg.solve(K, np.concatenate([r1[cols], r2]))
                np.testing.assert_allclose(np.concatenate([dx[cols], dy]), expected,
                                           rtol=1e-10, atol=1e-10)
                assert not np.any(dx[st.dropped])
            assert len(orders) == 1  # the order is found once
            # one band for every factor, the pinned rows' included
            assert len(bands) == 4 and len({band.shape for band in bands}) == 1
            if prog is paired:
                # one unknown per w pair; the (d+, d-) slack pairs leave with their
                # 24 difference rows, and the 5 budget rows border K
                assert ctx.rows.size == 32 and ctx.B.size == 5
            else:
                assert ctx.rows.size == prog.n and ctx.B.size == prog.m

    def test_split_pairs_shrink_the_first_factor(self):
        # the benchmark's 40 x 12 portfolio: K holds w alone, one unknown per
        # asset and period, with half-bandwidth at most s = 40
        prog = build_portfolio_qp(gen_portfolio(40, 12, 1))
        system = factored(SaddleMatrix, initial_state(prog, SolverOptions()), prog)
        assert system.rows.size == 480 and system.B.size == 13
        band = system.band
        assert band.bw <= 40 and band.L.shape == (band.bw + 1, 480)

    @pytest.mark.parametrize("drop,cls", [
        pytest.param(drop, cls, id=prefix + drop)
        for prefix, cls in (("", SaddleMatrix), ("minres-", AugmentedSystem))
        for drop in ("none", "w member", "w pair", "slack member", "slack pair",
                     "border row")])
    def test_reduced_step_matches_dense_unreduced_solve(self, drop, cls):
        prog = build_portfolio_qp(make_portfolio())  # 4 assets, 3 periods
        n = 12  # x = [w+; w-; d+; d-], with 8 (d+, d-) pairs from x[24]
        st = random_state(prog, seed=47)
        st.inner_tol = 1e-12
        st.dropped[{"none": [], "w member": [2], "w pair": [5, n + 5],
                    "slack member": [2 * n + 1], "slack pair": [2 * n + 2, 2 * n + 10],
                    # every column of the initial-budget row: w+ and w- of period 1
                    "border row": [0, 1, 2, 3, n, n + 1, n + 2, n + 3]}[drop]] = True
        system = factored(cls, st, prog)
        # one unknown per w pair
        assert system.rows.size == n and system.R.size == 8 and system.B.size == 4
        assert_dense_step(system, st, prog)

    @pytest.mark.parametrize("drop", ["slack member", "slack pair"])
    def test_reduced_step_at_small_delta(self, drop):
        # a row whose slack pair is dropped whole keeps E = δ, which divides dy_R
        prog = build_portfolio_qp(make_portfolio())
        n = 12
        st = random_state(prog, seed=47, delta=1e-8)
        st.dropped[{"slack member": [2 * n + 1],
                    "slack pair": [2 * n + 2, 2 * n + 10]}[drop]] = True
        assert_dense_step(factored(SaddleMatrix, st, prog), st, prog)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pair_elimination_keeps_the_iterates(self, seed):
        prog = build_portfolio_qp(gen_portfolio(8, 4, seed))
        opts = SolverOptions(dropping=True, eps_drop=1e-4)
        _, paired = solve(prog, opts)
        _, plain = solve(dataclasses.replace(prog, pairs=None), opts)
        assert paired.status == plain.status == "optimal"
        assert paired.iterations == plain.iterations
        assert paired.drop_audit["dropped"] == plain.drop_audit["dropped"]
        assert paired.drop_audit["dropped"]
        assert paired.final_objective == pytest.approx(plain.final_objective,
                                                       rel=1e-12)

    @pytest.mark.parametrize("block,path", [
        pytest.param(block, path, id=block + suffix)
        for suffix, path in (("", "direct-augmented"), ("-minres", "minres-augmented"))
        for block in ("A", "Q")])
    def test_pair_columns_must_be_exact_negatives(self, block, path):
        prog = build_portfolio_qp(gen_portfolio(8, 4, 0))
        M = getattr(prog, block).tolil()
        M[0, 0] += 1e-12  # column 0 is w+_0; Q stays symmetric
        bad = dataclasses.replace(prog, **{block: M.tocsr()})
        with pytest.raises(ValueError, match="exact negatives"):
            solve(bad, SolverOptions(linear_solver=path))

    def test_wrong_inertia_is_numerical_failure(self, monkeypatch):
        # K with its sign flipped: the banded Cholesky factor breaks down
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded",
                             lambda band: -band)
        prog = build_portfolio_qp(gen_portfolio(8, 4, 0))
        _, rep = solve(prog, SolverOptions())
        assert rep.status == "numerical-failure"
        assert rep.iterations == 0 and len(bands) == 1
        assert json.loads(rep.to_json())["status"] == "numerical-failure"

    def test_border_breakdown_is_numerical_failure(self, monkeypatch):
        # δI + A_B K^-1 A_B' with its sign flipped: the dense factor breaks down
        borders = record_calls(monkeypatch, scipy.linalg, "cho_factor", lambda S: -S)
        prog = build_portfolio_qp(gen_portfolio(8, 4, 0))
        _, rep = solve(prog, SolverOptions())
        assert rep.status == "numerical-failure"
        assert rep.iterations == 0 and len(borders) == 1
        assert json.loads(rep.to_json())["status"] == "numerical-failure"

    def test_infinite_diagonal_raises_before_the_factor(self, monkeypatch):
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
        prog = dataclasses.replace(build_portfolio_qp(gen_portfolio(8, 4, 0)), pairs=None)
        st = random_state(prog, seed=41)
        st.x[0] = 0.0  # Θ = z/x is infinite on an unpaired variable
        with np.errstate(divide="ignore"), pytest.raises(np.linalg.LinAlgError):
            factored(SaddleMatrix, st, prog)
        assert bands == []

    @pytest.mark.parametrize("path", ["direct-augmented", "minres-augmented"])
    def test_dropping_solve_orders_once(self, monkeypatch, path):
        orders = record_calls(monkeypatch, scipy.sparse.csgraph, "reverse_cuthill_mckee")
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
        prog = build_portfolio_qp(gen_portfolio(8, 4, 0))
        _, rep = solve(prog, SolverOptions(linear_solver=path, dropping=True,
                                           eps_drop=1e-4))
        assert rep.status == "optimal" and rep.drop_audit["dropped"]
        assert len(orders) == 1
        # one pattern per solve: every factor has the same band
        assert len({band.shape for band in bands}) == 1

    @pytest.mark.parametrize("dropping", [False, True])
    def test_one_banded_factor_per_outer_iteration(self, monkeypatch, dropping):
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
        lus = record_calls(monkeypatch, scipy.sparse.linalg, "splu")
        prog = build_portfolio_qp(gen_portfolio(8, 4, 1))
        _, rep = solve(prog, SolverOptions(dropping=dropping, eps_drop=1e-4))
        assert rep.status == "optimal"
        assert len(bands) == rep.iterations
        assert lus == []  # no SuperLU factor on the direct path

    def test_fmri_direct_reaches_the_pcg_optimum(self):
        with pytest.warns(UserWarning, match="more samples than features"):
            inst, _ = gen_fused_lasso(10, (3, 3), 0)
        prog = build_fused_lasso_ls(inst)
        reports = [solve(prog, SolverOptions(tol=1e-8, linear_solver=path))[1]
                   for path in ("pcg-normal", "direct-augmented")]
        assert [rep.status for rep in reports] == ["optimal", "optimal"]
        pcg_rep, direct_rep = reports
        assert direct_rep.final_objective == pytest.approx(pcg_rep.final_objective,
                                                           rel=1e-7)


class TestSolveBehavior:
    def test_dz_zero_on_free_and_positivity(self):
        rng = np.random.default_rng(18)
        n, m = 6, 2
        Q = np.diag(rng.uniform(0.5, 2.0, size=n))
        prog = quadratic_program(Q, rng.standard_normal(n),
                                 rng.standard_normal((m, n)),
                                 rng.standard_normal(m),
                                 nonneg=np.arange(2, n))
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
            opts = SolverOptions(tol=1e-8, linear_solver=path)
            (x, _, _), rep = solve(prog, opts)
            assert rep.status == "optimal", path
            sols[path] = prog.objective(x)
        vals = list(sols.values())
        assert max(vals) - min(vals) <= 1e-6 * (1 + abs(vals[0]))

    @pytest.mark.filterwarnings("ignore:more samples than features")
    @pytest.mark.parametrize("path", ["direct-augmented", "minres-augmented",
                                      "pcg-normal"])
    @pytest.mark.parametrize("s, grid, seed, taus, tol", [
        (200, (6, 6, 6), 0, (1e-3, 1e-2), 1e-8),
        (100, (6, 6, 6), 1, (1e-3, 1e-3), 1e-8),
        (300, (6, 6, 6), 2, (1e-4, 1e-3), 1e-8),
        (10, (3, 3), 0, (), 1e-9),
        (10, (3, 3), 1, (), 1e-9),
        (10, (3, 3), 2, (), 1e-9)],
        ids=["6x6x6-s200-0", "6x6x6-s100-1", "6x6x6-s300-2", "3x3-0", "3x3-1", "3x3-2"])
    def test_fused_lasso_does_not_stall(self, path, s, grid, seed, taus, tol):
        # with the primal residual at roundoff, stale proximal estimates held
        # the dual residual above tol on each of these programs
        prog = build_fused_lasso_ls(gen_fused_lasso(s, grid, seed, *taus)[0])
        precond = "fmri-block" if path == "pcg-normal" else "auto"
        _, rep = solve(prog, SolverOptions(tol=tol, linear_solver=path,
                                           precond=precond))
        assert rep.status == "optimal"

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

    def test_cap_at_the_needed_iteration_count_is_optimal(self):
        prog = build_portfolio_qp(gen_portfolio(8, 4, 0))
        (x, _, _), rep = solve(prog, SolverOptions())
        assert rep.status == "optimal"
        (x_cap, _, _), capped = solve(prog, SolverOptions(max_iter=rep.iterations))
        assert capped.status == "optimal"
        assert capped.iterations == rep.iterations
        np.testing.assert_array_equal(x_cap, x)

    def test_max_iterations_history_ends_at_the_returned_point(self):
        prog = build_portfolio_qp(make_portfolio(seed=24))
        (x, _, z), rep = solve(prog, SolverOptions(max_iter=3))
        assert rep.status == "max-iterations" and rep.iterations == 3
        assert len(rep.primal_inf_history) == rep.iterations + 1
        assert len(rep.mu_history) == rep.iterations + 1
        primal = (float(np.linalg.norm(prog.b - prog.A @ x))
                  / (1.0 + np.linalg.norm(prog.b)))
        assert rep.primal_inf_history[-1] == primal
        ia = prog.nonneg
        assert rep.mu_history[-1] == float(x[ia] @ z[ia]) / ia.size

    @pytest.mark.parametrize("dropping", [False, True])
    def test_one_gradient_per_evaluation(self, dropping):
        # an evaluation that drops a variable forms the residuals once more
        prog = build_portfolio_qp(gen_portfolio(8, 4, 0))
        gradient, calls = prog.gradient, []
        prog.gradient = lambda x: calls.append(x) or gradient(x)
        _, rep = solve(prog, SolverOptions(dropping=dropping, eps_drop=1e-4))
        assert rep.status == "optimal"
        dropped_at = set()
        if dropping:
            dropped_at = {k for _, k in rep.drop_audit["dropped"]}
            assert dropped_at
        assert len(calls) == len(rep.primal_inf_history) + len(dropped_at)

    def test_bad_solver_name(self):
        prog = quadratic_program(np.eye(1), np.zeros(1), np.zeros((0, 1)),
                                 np.zeros(0))
        with pytest.raises(ValueError):
            solve(prog, SolverOptions(linear_solver="magic"))

    @pytest.mark.parametrize("kw", [{"tol": 0.0}, {"tol": -1.0},
                                    {"max_iter": 0}, {"max_iter": -3},
                                    {"dropping": True, "eps_drop": -1.0},
                                    {"dropping": True, "eps_drop": 0.0},
                                    {"precond": "bogus"},
                                    {"htilde_choice": "u_squared"},
                                    {"precond": "fmri-block"},
                                    {"linear_solver": "minres-augmented",
                                     "precond": "identity"}])
    def test_invalid_options_rejected(self, kw):
        # max_iter=1 ends before dropping would scan: the check is up front
        kw = {"max_iter": 1, **kw}
        prog = quadratic_program(np.eye(1), np.zeros(1), np.zeros((0, 1)),
                                 np.zeros(0))
        with pytest.raises(ValueError):
            solve(prog, SolverOptions(**kw))

    @pytest.mark.parametrize("x0", [np.ones(2), np.ones(8), np.full(5, np.nan),
                                    np.array([1.0, 1.0, np.inf, 1.0, 1.0]),
                                    np.ones((5, 1))],
                             ids=["short", "long", "nan", "inf", "column"])
    def test_invalid_start_rejected(self, x0):
        prog = quadratic_program(np.eye(5), np.zeros(5), np.ones((1, 5)),
                                 np.ones(1))
        with pytest.raises(ValueError, match="starting point"):
            solve(prog, SolverOptions(x0=x0))

    @pytest.mark.parametrize("path", ["direct-augmented", "pcg-normal",
                                      "minres-augmented"])
    def test_negative_hessian_diagonal_is_numerical_failure(self, path):
        # Q_00 = -5 on a free x_0: G = Q + Θ + ρ is negative there, which the
        # PCG path's weights and the augmented paths' Cholesky factors meet
        rng = np.random.default_rng(51)
        n, m = 12, 4
        qdiag = rng.uniform(0.5, 2.0, n)
        qdiag[0] = -5.0
        prog = quadratic_program(np.diag(qdiag), rng.standard_normal(n),
                                 rng.standard_normal((m, n)), rng.standard_normal(m),
                                 nonneg=np.arange(1, n))
        _, rep = solve(prog, SolverOptions(linear_solver=path))
        assert rep.status == "numerical-failure" and rep.iterations == 0

    def test_cholesky_breakdown_is_numerical_failure(self, monkeypatch):
        # the data rows' border with its sign flipped: its Cholesky factor
        # breaks down
        borders = record_calls(monkeypatch, scipy.linalg, "cho_factor", lambda S: -S)
        inst, _ = gen_fused_lasso(10, (4, 4), 0)
        prog = build_fused_lasso_ls(inst)
        _, rep = solve(prog, SolverOptions(linear_solver="pcg-normal",
                                           precond="fmri-block"))
        assert rep.status == "numerical-failure"
        assert rep.iterations == 0 and len(borders) == 1


def assert_dense_step(system, st, prog):
    """``system``'s step at ``st`` is the step of the unreduced system
    [[-(H + Θ + ρI), A'], [A, δI]] on the active set, and 0 on dropped
    variables; the rhs has values on dropped variables too."""
    act = st.active_indices()
    H = np.column_stack([prog.hess_action(st.x)(e) for e in np.eye(prog.n)])
    K = H[np.ix_(act, act)] + np.diag(st.xi_diag()[act] + st.rho)
    A = prog.A[:, act].toarray()
    M = np.block([[-K, A.T], [A, st.delta * np.eye(prog.m)]])
    rng = np.random.default_rng(42)
    r1, r2 = rng.standard_normal(prog.n), rng.standard_normal(prog.m)
    expected = np.linalg.solve(M, np.concatenate([r1[act], r2]))
    dx, dy = system.solve(r1, r2)
    got = np.concatenate([dx[act], dy])
    assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)
    assert not np.any(dx[st.dropped])


class TestSlackPairElimination:
    """The MINRES path eliminates slack pairs and their rows; its step must be
    the step of the unreduced system [[-(H + Θ + ρI), A'], [A, δI]]."""

    @staticmethod
    def program(family):
        if family == "poisson":
            return build_poisson_tv(make_poisson(size=6))
        rng = np.random.default_rng(40)
        return build_logistic_l1(LogisticInstance(
            rng.standard_normal((30, 4)), rng.choice([-1.0, 1.0], size=30), tau=0.05))

    @pytest.mark.parametrize("family,drop", [
        ("poisson", "none"), ("poisson", "one member"), ("poisson", "both members"),
        ("poisson", "w"), ("logistic", "none"), ("logistic", "one member"),
        ("logistic", "both members")])
    def test_reduced_step_matches_dense_unreduced_solve(self, family, drop):
        prog = self.program(family)
        st = random_state(prog, seed=41)
        p, q = prog.pairs
        st.dropped[{"none": [], "one member": [q[0]], "both members": [p[1], q[1]],
                    "w": [2]}[drop]] = True
        st.inner_tol = 1e-12
        system = factored(AugmentedSystem, st, prog)
        assert system.pairs.size == prog.pairs.size  # every declared pair is slack
        assert_dense_step(system, st, prog)

    @pytest.mark.parametrize("family", [pytest.param("poisson", marks=pytest.mark.xfail(
        strict=True, reason="the elimination of a row with E = δ = 1e-8 loses about "
        "1e-9 in relative accuracy (7e-10 with an exact inner solve, 1.1e-9 with "
        "MINRES); the MINRES path keeps eliminating that row")), "logistic"])
    def test_reduced_step_at_small_delta(self, family):
        # the row of a slack pair dropped whole keeps E = δ, which divides dy_R
        prog = self.program(family)
        st = random_state(prog, seed=41, delta=1e-8)
        p, q = prog.pairs
        st.dropped[[p[1], q[1]]] = True
        st.inner_tol = 1e-12
        assert_dense_step(factored(AugmentedSystem, st, prog), st, prog)

    def test_logistic_builds_no_schur_factor(self, monkeypatch):
        # every logistic row holds a slack pair, so A_B has no rows and the
        # preconditioner is the band of P alone
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
        borders = record_calls(monkeypatch, scipy.linalg, "cho_factor")
        inst, _, _ = gen_classification(200, 40, 2.0, 0.1, 0)
        _, rep = solve(build_logistic_l1(inst), SolverOptions(
            linear_solver="minres-augmented", htilde_choice="diag-h"))
        assert borders == [] and len(bands) == rep.iterations
        assert {band.shape[0] for band in bands} == {1}  # P is diagonal
        assert (rep.status, rep.iterations, rep.inner_iterations) == ("optimal", 9, 171)

    def test_planted_slack_rows_are_eliminated(self):
        prog, _ = planted_qp("slack", 30, 10, 0)
        system = factored(AugmentedSystem, random_state(prog, seed=43), prog)
        assert system.pairs.size == 10 and system.R.size == 4
        assert system.na == 30 and system.A_B.shape == (10, 30)

    def test_poisson_minres_runs_over_pixels_and_the_budget_row(self, monkeypatch):
        sizes = []
        minres = ippmm.minres

        def recorded(M, rhs, *args, **kwargs):
            sizes.append(rhs.size)
            return minres(M, rhs, *args, **kwargs)

        monkeypatch.setattr(ippmm, "minres", recorded)
        lus = record_calls(monkeypatch, scipy.sparse.linalg, "splu")
        prog = build_poisson_tv(make_poisson(size=8))
        _, rep = solve(prog, SolverOptions(linear_solver="minres-augmented",
                                           max_iter=3))
        assert rep.iterations == 3
        assert sizes == [64 + 1] * 6
        assert lus == []  # the preconditioner factors no SuperLU either


class TestLifecycle:
    """Each path's system is built once per solve, factored at every outer
    iterate and takes and returns full-length vectors."""

    @staticmethod
    def program(family):
        if family == "diagonal-slack":  # the planted slack QP with a diagonal Q
            prog, _ = planted_qp("slack", 30, 10, 0)
            rng = np.random.default_rng(44)
            return quadratic_program(sp.diags(prog.Q.diagonal()),
                                     rng.standard_normal(prog.n), prog.A, prog.b,
                                     pairs=prog.pairs)
        return TestSlackPairElimination.program(family)

    @pytest.mark.parametrize("cls,family", [
        (AugmentedSystem, "poisson"), (AugmentedSystem, "logistic"),
        (NormalEquations, "diagonal-slack")])
    def test_one_system_follows_the_active_set_as_it_shrinks(self, cls, family):
        prog = self.program(family)
        st = random_state(prog, seed=41)
        st.inner_tol = 1e-12
        system = cls(prog, SolverOptions())
        p, q = prog.pairs
        # all active, then one pair member, both members of another, a w variable
        for drop in ([], [q[0]], [p[1], q[1]], [2]):
            st.dropped[drop] = True
            system.factor(st)
            assert_dense_step(system, st, prog)

    @pytest.mark.parametrize("dropping", [False, True], ids=["keep", "drop"])
    @pytest.mark.parametrize("cls,path", [
        (SaddleMatrix, "direct-augmented"), (NormalEquations, "pcg-normal"),
        (AugmentedSystem, "minres-augmented")])
    def test_one_system_per_solve(self, monkeypatch, cls, path, dropping):
        built = []
        init = cls.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
        prog, _ = planted_qp("diagonal", 60, 20, 0)
        _, rep = solve(prog, SolverOptions(tol=1e-9, linear_solver=path,
                                           dropping=dropping))
        assert rep.status == "optimal" and rep.iterations >= 2
        assert len(built) == 1

    def test_report_counts_the_work_of_a_failed_iteration(self, monkeypatch):
        outcomes = []
        minres = ippmm.minres

        def recorded(*args, **kwargs):
            if len(outcomes) == 3:  # the corrector of the second iteration
                raise RuntimeError("breakdown")
            outcomes.append(minres(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(ippmm, "minres", recorded)
        prog, _ = planted_qp("plain", 30, 10, 0)
        _, rep = solve(prog, SolverOptions(linear_solver="minres-augmented"))
        assert rep.status == "numerical-failure" and rep.iterations == 1
        assert rep.inner_iterations == sum(out.iterations for out in outcomes) > 0

    @staticmethod
    def fmri_program(pairs=True):
        inst, _ = gen_fused_lasso(10, (4, 4), 0)
        prog = build_fused_lasso_ls(inst)
        return (prog if pairs else dataclasses.replace(prog, pairs=None)), inst

    @staticmethod
    def assert_fmri_blocks_follow(prog, drops):
        """After each drop of ``drops``, the fmri-block preconditioner is the
        inverse of the dense normal matrix on the active set, at δ = 1e-2
        and 1e-8, and the step is the dense one. Returns the system and the
        number of rows that border K at each factor."""
        st = random_state(prog, seed=45)
        st.inner_tol = 1e-12
        system = NormalEquations(prog, SolverOptions(linear_solver="pcg-normal",
                                                     precond="fmri-block"))
        r = np.random.default_rng(46).standard_normal(prog.m)
        borders = []
        for drop in drops:
            st.dropped[drop] = True
            act = st.active_indices()
            for st.delta in (1e-2, 1e-8):
                system.factor(st)
                borders.append(system.border.size)
                g = prog.hess_diag(st.x)[act] + st.xi_diag()[act] + st.rho
                P = precond.normal_equations_matrix(g, prog.A[:, act], st.delta)
                np.testing.assert_allclose(system._apply_inverse(r),
                                           np.linalg.solve(P, r), rtol=1e-9, atol=1e-12)
                assert_dense_step(system, st, prog)
        return system, borders

    def test_fmri_blocks_follow_the_active_set_as_it_shrinks(self):
        prog, inst = self.fmri_program()
        (s, q), ell = inst.data.shape, inst.tv.rows
        # all active, then a w member, a whole (w+, w-) pair, whose unknown
        # of the band is pinned, and a whole (d+, d-) pair
        system, borders = self.assert_fmri_blocks_follow(prog, (
            [], [s + 3], [s + 7, s + q + 7], [s + 2 * q + 5, s + 2 * q + ell + 5]))
        # one unknown per residual and per w pair; the (d+, d-) pairs leave with E
        assert system.rows.size == s + q and system.R.size == ell
        assert np.flatnonzero(system.band.pinned).size == 1
        # the data rows always border K; the row of the dropped (d+, d-)
        # pair keeps E = δ, which at 1e-8 is too small to eliminate it
        assert borders == [s] * 7 + [s + 1]

    def test_fmri_blocks_without_pairs(self):
        # every column is an unknown of the band, and E = δ on every row
        prog, inst = self.fmri_program(pairs=False)
        (s, q), ell = inst.data.shape, inst.tv.rows
        system, borders = self.assert_fmri_blocks_follow(prog, (
            [], [s + 3], [s + 2 * q + 5, s + 2 * q + ell + 5]))
        assert system.rows.size == s + 2 * q + 2 * ell and system.R.size == 0
        assert np.flatnonzero(system.band.pinned).size == 3
        # without a slack pair no row is eliminated: every row borders K
        assert borders == [s + ell] * 6

    def test_fmri_solve_factors_no_superlu(self, monkeypatch):
        lus = record_calls(monkeypatch, scipy.sparse.linalg, "splu")
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
        prog, _ = self.fmri_program()
        _, rep = solve(prog, SolverOptions(linear_solver="pcg-normal",
                                           precond="fmri-block", dropping=True))
        assert rep.status == "optimal"
        assert lus == [] and len(bands) == rep.iterations

    def test_fmri_pcg_takes_at_most_two_iterations_per_newton_solve(self):
        # the preconditioner is the normal matrix's exact inverse, on a
        # program with slack pairs and on one without
        runs = [(self.fmri_program()[0], SolverOptions(
                    linear_solver="pcg-normal", precond="fmri-block", dropping=True)),
                (planted_qp("diagonal", 60, 20, 0)[0], SolverOptions(
                    tol=1e-9, linear_solver="pcg-normal"))]
        for prog, options in runs:
            _, rep = solve(prog, options)
            assert rep.status == "optimal"
            assert rep.inner_iterations <= 2 * 2 * rep.iterations  # predictor and corrector

    @pytest.mark.filterwarnings("ignore:more samples than features")
    @pytest.mark.parametrize("s, seed, tau1, tau2", [(200, 0, 1e-3, 1e-2),
                                                     (300, 2, 1e-4, 1e-3)])
    def test_fmri_pcg_converges_where_w_is_nonzero(self, s, seed, tau1, tau2):
        prog = build_fused_lasso_ls(gen_fused_lasso(s, (6, 6, 6), seed, tau1, tau2)[0])
        (x, _, _), rep = solve(prog, SolverOptions(linear_solver="pcg-normal",
                                                   precond="fmri-block"))
        _, direct = solve(prog, SolverOptions())
        assert rep.status == direct.status == "optimal"
        assert np.abs(prog.extract(x)).max() > 1e-3
        assert rep.final_objective == pytest.approx(direct.final_objective, rel=1e-7)

    def test_fmri_band_breakdown_is_numerical_failure(self, monkeypatch):
        # the band K with its sign flipped: its Cholesky factor breaks down
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded",
                             lambda band: -band)
        prog, _ = self.fmri_program()
        _, rep = solve(prog, SolverOptions(linear_solver="pcg-normal",
                                           precond="fmri-block"))
        assert rep.status == "numerical-failure"
        assert rep.iterations == 0 and len(bands) == 1
        assert json.loads(rep.to_json())["status"] == "numerical-failure"

    def test_report_times_the_linear_algebra_of_a_failed_iteration(self, monkeypatch):
        def failing(self, r1, r2):
            time.sleep(0.05)
            raise np.linalg.LinAlgError("breakdown")

        monkeypatch.setattr(NormalEquations, "solve", failing)
        prog, _ = planted_qp("diagonal", 60, 20, 0)
        _, rep = solve(prog, SolverOptions(linear_solver="pcg-normal"))
        assert rep.status == "numerical-failure" and rep.iterations == 0
        assert rep.phase_times["linear_algebra_s"] >= 0.05


class TestNormalOperator:
    """The PCG path applies A G^-1 A' + δI as A_u D A_u' + diag(E), the
    normal matrix of the reduced system over the unknowns' columns A_u; its
    operator, rhs and step must be those of the unreduced A_act."""

    @staticmethod
    def program(qdiag=None, seed=20):
        """A fused-lasso-like program on ``random_fused_lasso_layout``:
        x = [r; w+; w-; d+; d-], Q = I on r (or ``qdiag``), with its
        (w+, w-) and (d+, d-) pairs; its s data rows hold no slack pair."""
        A, _, s, ell, D = random_fused_lasso_layout(seed)
        q, n = D.shape[1], A.shape[1]
        rng = np.random.default_rng(seed + 1)
        qdiag = np.r_[np.ones(s), np.zeros(n - s)] if qdiag is None else qdiag
        w, d = s + np.arange(q), s + 2 * q + np.arange(ell)
        prog = quadratic_program(sp.diags(qdiag), rng.standard_normal(n), A,
                                 rng.standard_normal(A.shape[0]),
                                 nonneg=np.arange(s, n),
                                 pairs=np.array([np.r_[w, d], np.r_[w + q, d + ell]]))
        return prog, s, q, ell

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("drop", ["none", "w member", "w pair", "slack pair"])
    def test_matches_the_dense_unreduced_operator(self, drop, delta):
        prog, s, q, ell = self.program()
        st = random_state(prog, seed=48, delta=delta)
        st.dropped[{"none": [], "w member": [s + 1], "w pair": [s + 2, s + q + 2],
                    "slack pair": [s + 2 * q + 3, s + 2 * q + ell + 3]}[drop]] = True
        st.inner_tol = 1e-12
        system = factored(NormalEquations, st, prog)
        assert system.A_u.shape == (prog.m, s + q)  # one column per unknown
        act = st.active_indices()
        g = prog.hess_diag(st.x)[act] + st.xi_diag()[act] + st.rho
        A = prog.A[:, act].toarray()
        N = (A / g) @ A.T + delta * np.eye(prog.m)
        M = np.column_stack([system.matvec(e) for e in np.eye(prog.m)])
        np.testing.assert_allclose(M, N, rtol=1e-13, atol=1e-13 * np.abs(N).max())
        rng = np.random.default_rng(49)
        r1, r2 = rng.standard_normal(prog.n), rng.standard_normal(prog.m)
        np.testing.assert_allclose(system.rhs(r1, r2), r2 + A @ (r1[act] / g),
                                   rtol=1e-13, atol=1e-13)
        # the step: dx from the returned dy by the unreduced formula
        dx, dy = system.solve(r1, r2)
        np.testing.assert_allclose(dx[act], (A.T @ dy - r1[act]) / g, rtol=1e-13,
                                   atol=1e-13 * np.abs(dx).max())
        assert_dense_step(system, st, prog)

    @pytest.mark.parametrize("path", ["direct-augmented", "pcg-normal"])
    def test_pair_columns_must_be_exact_negatives(self, path):
        prog, s, _, _ = self.program()
        A = prog.A.tolil()
        A[0, s] += 1e-12  # column s is w+_0
        with pytest.raises(ValueError, match="exact negatives"):
            solve(dataclasses.replace(prog, A=A.tocsr()), SolverOptions(linear_solver=path))

    def test_requires_positive_weights(self):
        prog, s, _, _ = self.program()
        st = random_state(prog, seed=50)
        qdiag = prog.Q.diagonal()
        qdiag[3] = -st.rho  # r_3 is free, so G = Q + ρ is 0 there
        bad, _, _, _ = self.program(qdiag)
        factored(NormalEquations, st, prog)
        with pytest.raises(ValueError, match="weights must be positive"):
            factored(NormalEquations, st, bad)


class TestMinresPath:
    """Five IP-PMM iterations of a small Poisson restoration on MINRES."""

    @staticmethod
    def program():
        from sparseipm.harness import builtin_image, gen_blur_instance
        from sparseipm.linops import BlurKernel
        from sparseipm.problems import build_poisson_tv
        img = builtin_image("squares", 16)
        kernel = BlurKernel("gaussian", img.shape, {"sigma": 1.0})
        inst, _ = gen_blur_instance(img, kernel, 100.0, 1.0, 0, lam=5e-3)
        return build_poisson_tv(inst)

    def test_hessian_action_is_built_once_per_iterate(self):
        prog = self.program()
        built = []
        hess_action = prog.hess_action

        def counted(x):
            built.append(x)
            return hess_action(x)

        prog.hess_action = counted
        _, rep = solve(prog, SolverOptions(linear_solver="minres-augmented",
                                           max_iter=5))
        assert rep.iterations == 5
        assert rep.inner_iterations > 2 * rep.iterations
        assert len(built) == rep.iterations

    @pytest.mark.parametrize("name", ["cholesky_banded", "cho_factor"])
    def test_factor_breakdown_is_numerical_failure(self, monkeypatch, name):
        # P's band, or the border δI + A_B P^-1 A_B' of the budget row, with
        # its sign flipped: its Cholesky factor breaks down
        calls = record_calls(monkeypatch, scipy.linalg, name, lambda M: -M)
        _, rep = solve(self.program(), SolverOptions(linear_solver="minres-augmented"))
        assert rep.status == "numerical-failure"
        assert rep.iterations == 0 and len(calls) == 1
        assert json.loads(rep.to_json())["status"] == "numerical-failure"

    def test_report_counts_unconverged_inner_solves(self, monkeypatch):
        import json
        from sparseipm import ippmm
        outcomes = []
        minres = ippmm.minres

        def recorded(*args, **kwargs):
            out = minres(*args, **kwargs)
            outcomes.append(out)
            return out

        monkeypatch.setattr(ippmm, "minres", recorded)
        # on the reduced system (slack pairs eliminated) a cap of 3 stops some
        # solves short and lets the others converge
        monkeypatch.setattr(ippmm, "INNER_MAXIT", 3)
        _, rep = solve(self.program(), SolverOptions(
            linear_solver="minres-augmented", max_iter=5))
        capped = sum(not out.converged for out in outcomes)
        assert len(outcomes) == 2 * rep.iterations
        assert 0 < capped < len(outcomes)
        assert rep.inner_capped == capped
        assert json.loads(rep.to_json())["inner_capped"] == capped


class TestInnerAccuracy:
    """One forcing rule sets the tolerance and cap of both Krylov paths."""

    @pytest.mark.parametrize("path,name", [("pcg-normal", "pcg"),
                                           ("minres-augmented", "minres")])
    def test_tolerance_follows_the_outer_residual(self, monkeypatch, path, name):
        calls = []
        krylov = getattr(ippmm, name)

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return krylov(*args, **kwargs)

        monkeypatch.setattr(ippmm, name, recorded)
        prog, _ = planted_qp("diagonal", 30, 10, 0)
        _, rep = solve(prog, SolverOptions(tol=1e-9, linear_solver=path))
        assert rep.status == "optimal"
        residual = np.maximum.reduce([rep.primal_inf_history, rep.dual_inf_history,
                                      rep.mu_history])[:rep.iterations]
        # predictor and corrector share their iteration's tolerance
        expected = np.repeat(np.clip(0.1 * residual, 1e-10, 1e-2), 2)
        assert [c["tol"] for c in calls] == pytest.approx(expected, rel=1e-15)
        assert {c["maxit"] for c in calls} == {ippmm.INNER_MAXIT}

    def test_logistic_benchmark_instance_reaches_optimal(self):
        # instance (0, 1) of the logistic-minres workload: the generator's
        # tau = 1/n, dropping on
        inst, _, _ = gen_classification(2000, 400, 2.0, 0.1, 3964924996)
        _, rep = solve(build_logistic_l1(inst), SolverOptions(
            linear_solver="minres-augmented", htilde_choice="diag-h",
            dropping=True, eps_drop=1e-6))
        assert rep.status == "optimal"
        assert not rep.drop_audit["violated"]

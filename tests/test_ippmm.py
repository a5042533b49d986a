import dataclasses
import json
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

from sparseipm import baselines, ippmm, precond, problems
from sparseipm.ippmm import (AugmentedSystem, IpPmmState, NormalEquations,
                             SaddleMatrix, SolverOptions, UnsupportedStructureError,
                             check_termination, initial_state, kkt_residuals,
                             newton_rhs, solve, step_lengths,
                             update_penalties_and_estimates)
from sparseipm.harness import gen_classification, gen_fused_lasso, gen_portfolio
from sparseipm.linops import BccbOperator, BlurKernel
from sparseipm.problems import (ConvexProgram, LogisticInstance, build_fused_lasso_ls,
                                build_logistic_l1, build_poisson_tv,
                                build_portfolio_qp, quadratic_program)
from planted import planted_qp
from test_krylov import reference_minres
from test_precond import random_fused_lasso_layout
from test_problems import (dense_hessian, dense_htilde, lumped_htilde, make_poisson,
                           make_portfolio, split_htilde)


def random_state(prog, seed=0, rho=1e-2, delta=1e-2):
    rng = np.random.default_rng(seed)
    opts = SolverOptions()
    state = initial_state(prog, opts)
    state.x[prog.nonneg] = rng.uniform(0.5, 2.0, size=prog.nonneg.size)
    free = np.setdiff1d(np.arange(prog.n), prog.nonneg)
    state.x[free] = rng.standard_normal(free.size)
    state.z[prog.nonneg] = rng.uniform(0.5, 2.0, size=prog.nonneg.size)
    state.y = rng.standard_normal(prog.m)
    state.zeta = state.x + 0.1 * rng.standard_normal(prog.n)
    state.eta = state.y + 0.1 * rng.standard_normal(prog.m)
    state.mu = state.complementarity()
    state.rho, state.delta = rho, delta
    return state


def factored(cls, state, program):
    """A path's system, built for ``program`` and factored at ``state``."""
    system = cls(program)
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
    system = factored(SaddleMatrix, state, program)
    return np.concatenate(system.solve(r1, r2, state.inner_tol))


def split_operator(M, na, gap):
    """blockdiag(L, L_S)^-1 M blockdiag(L, L_S)^-T of the dense saddle matrix
    M = [[-K, A_B'], [A_B, E_B]] over na unknowns, from its definition:
    P = LL' is K - ``gap`` and S = L_S L_S' = E_B + A_B P^-1 A_B'."""
    P, A_B = -M[:na, :na] - gap, M[na:, :na]
    S = M[na:, na:] + A_B @ np.linalg.solve(P, A_B.T)
    L = scipy.linalg.block_diag(np.linalg.cholesky(P), np.linalg.cholesky(S))
    return np.linalg.solve(L, np.linalg.solve(L, M).T).T


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

    @pytest.mark.parametrize("nonneg", ["one run", "indices"])
    def test_matches_the_boolean_gather_bit_for_bit(self, nonneg):
        # the state reads one run of non-negative coordinates through a slice
        # and any other set through its index array
        n, rng = 200, np.random.default_rng(53)
        ia = np.arange(20, 180) if nonneg == "one run" else np.sort(
            rng.choice(n, 150, replace=False))
        prog = quadratic_program(np.eye(n), np.zeros(n), np.zeros((0, n)), np.zeros(0),
                                 nonneg=ia)
        st = initial_state(prog, SolverOptions())
        assert isinstance(st.ia, slice if nonneg == "one run" else np.ndarray)

        def gathered(v, dv):  # the formula on a boolean mask
            neg = dv < 0
            if not np.any(neg):
                return 1.0
            return min(1.0, ippmm.BOUNDARY_FRACTION * float(np.min(-v[neg] / dv[neg])))

        for _ in range(20):
            st.x, st.z = rng.uniform(1e-6, 2.0, n), rng.uniform(1e-6, 2.0, n)
            dx = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
            dz = rng.standard_normal(n)
            assert step_lengths(st, dx, dz) == (gathered(st.x[ia], dx[ia]),
                                                gathered(st.z[ia], dz[ia]))
        # no negative entry on the non-negative set: full steps, whatever
        # the free coordinates do
        dx, free = np.abs(dx), np.setdiff1d(np.arange(n), ia)
        dx[free] = -1.0
        assert step_lengths(st, dx, np.zeros(n)) == (1.0, 1.0)


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

    @pytest.mark.parametrize("start,mu,penalty", [
        (None, 1.0, ippmm.PENALTY_START), (10.0, 10.0, ippmm.PENALTY_START),
        (0.1, 0.1, 0.1 * ippmm.PENALTY_START), (1e-9, 1e-9, ippmm.PENALTY_FLOOR)])
    def test_penalties_start_at_a_fraction_of_min_one_and_mu(self, start, mu, penalty):
        # unit start, then x0 = start * 1 with z = 1
        prog = quadratic_program(np.eye(3), np.zeros(3), np.zeros((0, 3)),
                                 np.zeros(0))
        x0 = None if start is None else np.full(3, start)
        st = initial_state(prog, SolverOptions(x0=x0))
        assert st.mu == pytest.approx(mu)
        assert st.rho == st.delta == pytest.approx(penalty)

    def test_penalties_of_a_program_without_bounded_variables_start_at_the_floor(self):
        # its mu is 0 throughout, so nothing would shrink them
        prog = quadratic_program(np.eye(3), np.zeros(3), np.ones((1, 3)), np.ones(1),
                                 nonneg=[])
        st = initial_state(prog, SolverOptions())
        assert st.mu == 0.0
        assert st.rho == st.delta == ippmm.PENALTY_FLOOR

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
        # the split operator of the dense saddle matrix: P is its (1,1) block
        # with H~ = diag Q in place of Q, so Δ = Q - diag Q
        prog = self._program(diag=False)
        st = random_state(prog, seed=8)
        system = factored(AugmentedSystem, st, prog)
        # the system's unknowns: the columns in its band order, then dy
        order = np.concatenate([system.rows, prog.n + np.arange(prog.m)])
        matrix = direct_matrix(st, prog)[np.ix_(order, order)]
        Q = prog.Q.toarray()[np.ix_(system.rows, system.rows)]
        T = split_operator(matrix, system.na, Q - np.diag(np.diag(Q)))
        v = np.random.default_rng(9).standard_normal(6)
        np.testing.assert_allclose(system.matvec(v), T @ v,
                                   atol=1e-10)

    # at-bound: unpaired unknowns 1, 4 and 7, a slack pair's plus member 10,
    # one member of the pair (20, 23) and both of the pair (21, 24)
    @pytest.mark.parametrize("members", [[], [1, 4, 7, 10, 20, 21, 24]],
                             ids=["all-active", "at-bound"])
    def test_matvec_is_bit_identical_to_scatter_gather(self, members):
        # the MINRES operator against the split operator of the dense reduced
        # matrix [[-K, A_B'], [A_B, δI]] from its definition, K = Q +
        # diag(1/e) + A_R' E_R^-1 A_R over the unknowns (e = e+ + e- on a
        # u); Q is diagonal, so H~ = Q and P = K
        prog, _ = planted_qp("diagonal-pairs", 10, 4, 30)
        st = random_state(prog, seed=31)
        at_bound(st, members)
        system = factored(AugmentedSystem, st, prog)
        (sp_, sq), (up, uq) = prog.pairs[:, :5], prog.pairs[:, 5:]  # slack pairs, u's
        R, B = np.arange(4, 8), np.arange(4)
        assert system.pairs.size == 10 and np.array_equal(np.unique(system.prow), R)
        A, rows = prog.A.toarray(), system.rows
        e = 1.0 / (st.xi_diag() + st.rho)
        E = st.delta + A[:, sp_] ** 2 @ (e[sp_] + e[sq])
        e[up] += e[uq]
        A_u = A[:, rows]
        K = (prog.Q.toarray()[np.ix_(rows, rows)] + np.diag(1.0 / e[rows])
             + A_u[R].T @ (A_u[R] / E[R, None]))
        matrix = np.block([[-K, A_u[B].T], [A_u[B], st.delta * np.eye(B.size)]])
        v = np.random.default_rng(32).standard_normal(system.na + prog.m - R.size)
        T = split_operator(matrix, system.na, 0.0)
        np.testing.assert_allclose(system.matvec(v), T @ v, rtol=1e-12, atol=1e-12)

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
        g = prog.Q.diagonal() + st.xi_diag() + st.rho  # G, diagonal
        dy_normal = np.linalg.solve(M, r2 + prog.A @ (r1 / g))
        matrix = direct_matrix(st, prog)
        sol = np.linalg.solve(matrix, np.concatenate([r1, r2]))
        np.testing.assert_allclose(dy_normal, sol[10:], rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(normal.solve(r1, r2, st.inner_tol)[1], sol[10:],
                                   rtol=1e-10, atol=1e-10)
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
            NormalEquations(prog)

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
    @pytest.mark.parametrize("members", [[], [1, 4, 7, 20, 33]],
                             ids=["all-active", "at-bound"])
    def test_rhs_from_residuals_is_bit_identical_to_recomputed(self, members,
                                                               sigma):
        prog = self._program(seed=33, n=60, m=20, diag=False)
        st = random_state(prog, seed=34)
        at_bound(st, members)
        soc = np.random.default_rng(35).standard_normal(prog.n) if sigma else None
        _, _, _, rp, gy, _ = kkt_residuals(st, prog)
        r1, r2 = newton_rhs(st, rp, gy, sigma, soc)
        # the formula newton_rhs used before it took b - Ax and grad - A'y
        old_r1 = prog.gradient(st.x) - prog.A.T @ st.y
        if sigma:
            old_r1 = old_r1 + sigma * st.rho * (st.x - st.zeta)
        ia = st.nonneg
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
    def test_step_matches_dense_solve_with_a_reused_order(self, monkeypatch):
        # 8 assets over 4 periods: w+ = x[:32], w- = x[32:64], 56 split pairs
        paired = build_portfolio_qp(gen_portfolio(8, 4, 0))
        # without pairs, every member at its bound is an unpaired variable
        for prog in (paired, dataclasses.replace(paired, pairs=None)):
            orders = record_calls(monkeypatch, scipy.sparse.csgraph,
                                  "reverse_cuthill_mckee")
            bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
            st = random_state(prog, seed=41)
            Q, A = prog.Q.toarray(), prog.A.toarray()
            ctx = SaddleMatrix(prog)  # one band for the whole sequence
            for change in ("first", "reused", "one-at-bound", "both-at-bound"):
                if change == "reused":
                    st.x = 1.5 * st.x
                    st.rho, st.delta = 1e-4, 1e-3
                elif change == "one-at-bound":
                    at_bound(st, [2])   # w+_2; its partner w-_2 stays
                elif change == "both-at-bound":
                    at_bound(st, [34])  # w-_2 as well
                ctx.factor(st)
                _, _, _, rp, gy, _ = kkt_residuals(st, prog)
                r1, r2 = newton_rhs(st, rp, gy, 0.5)
                # the unreduced system, every pair member kept
                H = Q + np.diag(st.xi_diag() + st.rho)
                K = np.block([[-H, A.T], [A, st.delta * np.eye(prog.m)]])
                dx, dy = ctx.solve(r1, r2, st.inner_tol)
                expected = np.linalg.solve(K, np.concatenate([r1, r2]))
                np.testing.assert_allclose(np.concatenate([dx, dy]), expected,
                                           rtol=1e-10, atol=1e-10)
            assert len(orders) == 1  # the order is found once
            # one band for every factor
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

    @pytest.mark.parametrize("members,cls", [
        pytest.param(members, cls, id=prefix + members)
        for prefix, cls in (("", SaddleMatrix), ("minres-", AugmentedSystem))
        for members in ("none", "w member", "w pair", "slack member", "slack pair",
                        "border row")])
    def test_reduced_step_matches_dense_unreduced_solve(self, members, cls):
        prog = build_portfolio_qp(make_portfolio())  # 4 assets, 3 periods
        n = 12  # x = [w+; w-; d+; d-], with 8 (d+, d-) pairs from x[24]
        st = random_state(prog, seed=47)
        st.inner_tol = 1e-12
        # the members put at their bound
        at_bound(st, {"none": [], "w member": [2], "w pair": [5, n + 5],
                      "slack member": [2 * n + 1], "slack pair": [2 * n + 2, 2 * n + 10],
                      # every column of the initial-budget row: w+ and w- of period 1
                      "border row": [0, 1, 2, 3, n, n + 1, n + 2, n + 3]}[members])
        system = factored(cls, st, prog)
        # one unknown per w pair
        assert system.rows.size == n and np.unique(system.prow).size == 8 and system.B.size == 4
        assert_dense_step(system, st, prog)

    @pytest.mark.parametrize("members", ["slack member", "slack pair"])
    def test_reduced_step_at_small_delta(self, members):
        # both members of the slack pair (d+_2, d-_2) at their bound leave
        # E = δ + a²(e+ + e-) ≈ δ on its row, which divides dy_R
        prog = build_portfolio_qp(make_portfolio())
        n = 12
        st = random_state(prog, seed=47, delta=1e-8)
        at_bound(st, {"slack member": [2 * n + 1],
                      "slack pair": [2 * n + 2, 2 * n + 10]}[members])
        assert_dense_step(factored(SaddleMatrix, st, prog), st, prog)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pair_elimination_keeps_the_iterates(self, seed):
        prog = build_portfolio_qp(gen_portfolio(8, 4, seed))
        _, paired = solve(prog, SolverOptions())
        _, plain = solve(dataclasses.replace(prog, pairs=None), SolverOptions())
        assert paired.status == plain.status == "optimal"
        assert paired.iterations == plain.iterations
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
    def test_solve_orders_once(self, monkeypatch, path):
        orders = record_calls(monkeypatch, scipy.sparse.csgraph, "reverse_cuthill_mckee")
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
        prog = build_portfolio_qp(gen_portfolio(8, 4, 0))
        _, rep = solve(prog, SolverOptions(linear_solver=path))
        assert rep.status == "optimal" and rep.iterations >= 2
        assert len(orders) == 1
        # one pattern per solve: every factor has the same band
        assert len(bands) == rep.iterations and len({band.shape for band in bands}) == 1

    # dropping is only checked: setting it, as the benchmark's workloads do,
    # changes no factor
    @pytest.mark.parametrize("dropping", [False, True])
    def test_one_banded_factor_per_outer_iteration(self, monkeypatch, dropping):
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
        lus = record_calls(monkeypatch, scipy.sparse.linalg, "splu")
        prog = build_portfolio_qp(gen_portfolio(8, 4, 1))
        _, rep = solve(prog, SolverOptions(dropping=dropping, eps_drop=1e-4))
        assert rep.status == "optimal"
        assert len(bands) == rep.iterations
        assert lus == []  # no SuperLU factor on the direct path

    def test_benchmark_instance_that_failed_the_drop_audit_is_optimal(self):
        # instance (1, 16) of the portfolio-direct workload, with its options:
        # it ended numerical-failure on the drop audit while dropping=True
        # dropped variables; the solver now only checks that option
        prog = build_portfolio_qp(gen_portfolio(40, 12, 3755104110))
        _, rep = solve(prog, SolverOptions(linear_solver="direct-augmented",
                                           dropping=True, eps_drop=1e-4))
        assert (rep.status, rep.iterations) == ("optimal", 11)
        assert rep.drop_audit is None

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

    @pytest.mark.parametrize("path", ["direct-augmented", "minres-augmented"])
    def test_program_without_bounded_variables_is_newton_fast(self, path):
        # no barrier: the solution is that of the KKT system
        # [[Q, -A'], [A, 0]] (x, y) = (-c, b), reached in a few Newton steps
        rng = np.random.default_rng(0)
        n, m = 30, 10
        M = rng.standard_normal((n, n))
        Q = M @ M.T / n + 1e-2 * np.eye(n)
        c, A, b = rng.standard_normal(n), rng.standard_normal((m, n)), rng.standard_normal(m)
        prog = quadratic_program(Q, c, A, b, nonneg=[])
        (x, y, _), rep = solve(prog, SolverOptions(tol=1e-9, linear_solver=path))
        assert rep.status == "optimal" and rep.iterations <= 3
        kkt = np.linalg.solve(np.block([[Q, -A.T], [A, np.zeros((m, m))]]),
                              np.concatenate([-c, b]))
        np.testing.assert_allclose(np.concatenate([x, y]), kkt, rtol=0, atol=1e-8)

    def test_mu_equals_average_complementarity(self):
        inst = make_portfolio(seed=20)
        prog = build_portfolio_qp(inst)
        (x, _, z), rep = solve(prog, SolverOptions(tol=1e-6))
        assert rep.status == "optimal"
        assert rep.mu_history[-1] >= 0

    def test_split_variable_consistency(self):
        # at optimality at most one of (x+, x-) per pair is away from zero
        inst = make_portfolio(seed=21, tau1=0.5, tau2=0.5)
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

    def test_three_paths_agree_without_a_hess_diag_oracle(self):
        # a bare ConvexProgram with a diagonal Q and no hess_diag: the PCG
        # path reads the Hessian diagonal from Q
        qdiag, c = np.array([2.0, 1.0, 3.0]), np.array([-1.0, -2.0, 0.5])
        Q = sp.diags(qdiag, format="csr")
        prog = ConvexProgram(
            A=sp.csr_matrix(np.ones((1, 3))), b=np.ones(1), nonneg=np.arange(3),
            objective=lambda x: 0.5 * float(x @ (Q @ x)) + float(c @ x),
            gradient=lambda x: Q @ x + c, hess_action=lambda x: (lambda v: Q @ v, qdiag),
            Q=Q)
        assert prog.hess_diag is None
        objectives = []
        for path in ("direct-augmented", "pcg-normal", "minres-augmented"):
            (x, _, _), rep = solve(prog, SolverOptions(tol=1e-8, linear_solver=path))
            assert rep.status == "optimal", path
            objectives.append(prog.objective(x))
        assert max(objectives) - min(objectives) <= 1e-8 * (1 + abs(objectives[0]))

    @pytest.mark.parametrize("path", ["direct-augmented", "pcg-normal",
                                      "minres-augmented"])
    def test_qp_without_non_negative_variables_matches_the_kkt_solution(self, path):
        # no complementarity: μ = 0 and the centering parameter is SIGMA_MIN
        rng = np.random.default_rng(52)
        n, m = 6, 2
        Q = np.diag(rng.uniform(0.5, 2.0, n))
        c, A, b = rng.standard_normal(n), rng.standard_normal((m, n)), rng.standard_normal(m)
        prog = quadratic_program(Q, c, A, b, nonneg=np.zeros(0, dtype=int))
        (x, y, _), rep = solve(prog, SolverOptions(tol=1e-8, linear_solver=path))
        assert rep.status == "optimal" and set(rep.mu_history) == {0.0}
        kkt = np.block([[Q, -A.T], [A, np.zeros((m, m))]])
        expected = np.linalg.solve(kkt, np.concatenate([-c, b]))
        np.testing.assert_allclose(np.concatenate([x, y]), expected, atol=1e-6)

    @pytest.mark.parametrize("path", ["direct-augmented", "pcg-normal",
                                      "minres-augmented"])
    def test_free_coordinate_inside_the_non_negative_set(self, path):
        # coordinate 3 is free, so the state indexes the others through their
        # index array; its twin moves it last and reads one run through a slice
        rng = np.random.default_rng(54)
        n, m, free = 9, 3, 3
        Q = np.diag(rng.uniform(0.5, 2.0, n))
        c, A = rng.standard_normal(n), rng.standard_normal((m, n))
        b = A @ rng.uniform(0.5, 1.5, n)
        perm = np.r_[np.delete(np.arange(n), free), free]
        programs = [quadratic_program(Q, c, A, b, nonneg=np.delete(np.arange(n), free)),
                    quadratic_program(Q[np.ix_(perm, perm)], c[perm], A[:, perm], b,
                                      nonneg=np.arange(n - 1))]
        objectives = []
        for prog, view in zip(programs, (np.ndarray, slice)):
            assert isinstance(initial_state(prog, SolverOptions()).ia, view)
            (x, _, z), rep = solve(prog, SolverOptions(tol=1e-9, linear_solver=path))
            assert rep.status == "optimal"
            assert np.all(x[prog.nonneg] > 0) and np.all(z[prog.nonneg] > 0)
            objectives.append(prog.objective(x))
        assert objectives[0] == pytest.approx(objectives[1], rel=0, abs=1e-8)

    def test_non_finite_residual_is_numerical_failure(self):
        prog = quadratic_program(np.eye(3), np.zeros(3), np.ones((1, 3)), np.ones(1))
        prog.gradient = lambda x: np.full(x.size, np.nan)
        prog.objective = lambda x: np.inf
        _, rep = solve(prog, SolverOptions())
        assert rep.status == "numerical-failure" and rep.iterations == 0
        assert len(rep.primal_inf_history) == len(rep.mu_history) == 1

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        # the report is strict JSON: its non-finite residual and objective are null
        doc = json.loads(rep.to_json(), parse_constant=reject)
        assert [record["dual"] for record in doc["records"]] == [None]
        assert doc["objective"] is None

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
        prog = build_portfolio_qp(inst)
        (x, _, _), rep = solve(prog, SolverOptions(tol=1e-8))
        assert rep.status == "optimal"
        obj_ip = inst.original_objective(prog.extract(x))
        w_ref, _ = baselines.asb_chol_solve(inst, tol=1e-12, maxit=50000)
        obj_ref = inst.original_objective(w_ref)
        assert abs(obj_ip - obj_ref) <= 1e-6 * (1 + abs(obj_ref))

    def test_report_json_schema(self):
        prog = quadratic_program(np.eye(2), -np.ones(2), np.zeros((0, 2)),
                                 np.zeros(0))
        _, rep = solve(prog, SolverOptions())
        doc = json.loads(rep.to_json())
        assert set(doc) == {"status", "iters", "time_s", "objective", "inner_iters",
                            "inner_capped", "records"}
        assert doc["status"] == "optimal"
        assert len(doc["records"]) >= 1 and all("mu" in record for record in doc["records"])

    def test_report_keeps_one_list_of_records(self):
        # the histories and the Krylov counts are views of the one list
        report = ippmm.SolveReport()
        lists = [f.name for f in dataclasses.fields(report)
                 if isinstance(getattr(report, f.name), list)]
        assert lists == ["records"]
        assert not hasattr(report, "inner_solves") and not hasattr(report, "phase_times")

    def test_report_json_nulls_non_finite_values_at_any_depth(self):
        doc = json.loads(ippmm.strict_json(
            {"a": np.nan, "b": [1.0, np.inf], "c": [{"d": -np.inf, "e": [np.nan, 2]}]}))
        assert doc == {"a": None, "b": [1.0, None], "c": [{"d": None, "e": [None, 2]}]}

    def test_max_iterations_status(self):
        inst = make_portfolio(seed=24)
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

    # dropping is only checked: setting it adds no evaluation
    @pytest.mark.parametrize("dropping", [False, True])
    def test_one_gradient_per_evaluation(self, dropping):
        prog = build_portfolio_qp(gen_portfolio(8, 4, 0))
        gradient, calls = prog.gradient, []
        prog.gradient = lambda x: calls.append(x) or gradient(x)
        _, rep = solve(prog, SolverOptions(dropping=dropping, eps_drop=1e-4))
        assert rep.status == "optimal"
        assert len(calls) == len(rep.primal_inf_history)

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
                                     "precond": "identity"},
                                    {"max_iter": 2.5}, {"max_iter": float("inf")},
                                    # True is neither tol = 1.0 nor one iteration
                                    {"tol": True}, {"tol": np.True_}, {"max_iter": True}])
    def test_invalid_options_rejected(self, kw):
        # max_iter=1: the checks run on construction, before any iteration
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

    def test_start_on_the_boundary_rejected(self):
        prog = quadratic_program(np.eye(3), np.zeros(3), np.ones((1, 3)), np.ones(1))
        with pytest.raises(ValueError, match="must be interior"):
            solve(prog, SolverOptions(x0=np.array([1.0, 0.0, 1.0])))

    def test_direct_path_needs_an_explicit_hessian(self):
        rng = np.random.default_rng(53)
        prog = build_logistic_l1(LogisticInstance(rng.standard_normal((20, 4)),
                                                  rng.choice([-1.0, 1.0], size=20), 0.05))
        with pytest.raises(UnsupportedStructureError, match="explicit quadratic"):
            solve(prog, SolverOptions(linear_solver="direct-augmented"))

    def test_minres_path_rejects_couplings_of_a_slack_pair_member(self):
        # logistic's (d+, d-) are slack pairs; H~ may not couple w_0 with d+_0
        rng = np.random.default_rng(54)
        prog = build_logistic_l1(LogisticInstance(rng.standard_normal((20, 4)),
                                                  rng.choice([-1.0, 1.0], size=20), 0.05))
        prog = dataclasses.replace(prog, couplings=np.array([[0], [5]]))
        with pytest.raises(UnsupportedStructureError, match="reduced unknowns"):
            solve(prog, SolverOptions(linear_solver="minres-augmented"))

    def test_minres_path_rejects_an_unknown_outside_the_hessian_block(self):
        # f = |x[:2]|^2 / 2 + c'x declares the block x[:2], but x_2, linear in
        # f and in no slack pair, is an unknown of the MINRES path
        c = np.array([-1.0, -2.0, 0.5])
        prog = ConvexProgram(
            A=sp.csr_matrix(np.ones((1, 3))), b=np.ones(1), nonneg=np.arange(3),
            objective=lambda x: 0.5 * float(x[:2] @ x[:2]) + float(c @ x),
            gradient=lambda x: np.r_[x[:2], 0.0] + c,
            hess_action=lambda x: (lambda v: v, np.ones(2)))
        with pytest.raises(UnsupportedStructureError, match="outside the Hessian block"):
            solve(prog, SolverOptions(linear_solver="minres-augmented"))

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


class TestBenchmarkHooks:
    """perfbench/run.py samples its reference kernel through the module-level
    ``kkt_residuals``, and perfbench/tracing.py times the step functions by
    name: a solve must keep calling each through ``ippmm``."""

    # calls per outer iteration: the predictor's and the corrector's rhs, the
    # predictor's and the step's lengths
    STEP_HOOKS = {"newton_rhs": 2, "predictor_corrector_step": 1, "step_lengths": 2,
                  "update_penalties_and_estimates": 1}

    @pytest.mark.parametrize("path", ["direct-augmented", "pcg-normal",
                                      "minres-augmented"])
    def test_solve_calls_every_hook_through_the_module(self, monkeypatch, path):
        calls = {name: record_calls(monkeypatch, ippmm, name)
                 for name in ("kkt_residuals", *self.STEP_HOOKS)}
        rng = np.random.default_rng(55)
        n, m = 12, 4
        A = rng.standard_normal((m, n))
        prog = quadratic_program(np.diag(rng.uniform(0.5, 2.0, n)), rng.standard_normal(n),
                                 A, A @ rng.uniform(0.5, 1.5, n))
        _, rep = solve(prog, SolverOptions(linear_solver=path))
        assert rep.status == "optimal" and rep.iterations >= 1
        assert len(calls["kkt_residuals"]) == len(rep.records)
        for name, per_iteration in self.STEP_HOOKS.items():
            assert len(calls[name]) >= per_iteration * rep.iterations, name


def assert_dense_step(system, st, prog):
    """``system``'s step at ``st`` is the step of the unreduced system
    [[-(H + Θ + ρI), A'], [A, δI]]."""
    K = dense_hessian(prog, st.x) + np.diag(st.xi_diag() + st.rho)
    A = prog.A.toarray()
    M = np.block([[-K, A.T], [A, st.delta * np.eye(prog.m)]])
    rng = np.random.default_rng(42)
    r1, r2 = rng.standard_normal(prog.n), rng.standard_normal(prog.m)
    expected = np.linalg.solve(M, np.concatenate([r1, r2]))
    got = np.concatenate(system.solve(r1, r2, st.inner_tol))
    assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)


def at_bound(st, members):
    """Put ``members`` of ``st``, non-negative variables, at x = 1e-6 with
    z = 1e6 (Θ = 1e12), so that e = 1/(Θ + ρ) is about 1e-12 on each."""
    assert np.isin(members, st.nonneg).all()
    st.x[members], st.z[members] = 1e-6, 1e6


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

    @pytest.mark.parametrize("family,members", [
        ("poisson", "none"), ("poisson", "one member"), ("poisson", "both members"),
        ("poisson", "w"), ("logistic", "none"), ("logistic", "one member"),
        ("logistic", "both members")])
    def test_reduced_step_matches_dense_unreduced_solve(self, family, members):
        prog = self.program(family)
        st = random_state(prog, seed=41)
        p, q = prog.pairs
        # the members put at their bound
        at_bound(st, {"none": [], "one member": [q[0]], "both members": [p[1], q[1]],
                      "w": [2]}[members])
        st.inner_tol = 1e-12
        system = factored(AugmentedSystem, st, prog)
        assert system.pairs.size == prog.pairs.size  # every declared pair is slack
        assert_dense_step(system, st, prog)

    LOSS = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="the elimination of a row with E ≈ δ = 1e-8 loses "
                             "about 1e-9 in relative accuracy (up to 2.63e-9 on Poisson "
                             "and 2.67e-9 on logistic over seeds 41-50); the MINRES path "
                             "keeps eliminating that row")

    @pytest.mark.parametrize("family,seeds", [
        pytest.param("poisson", range(41, 51), marks=LOSS, id="poisson"),
        pytest.param("logistic", [41], id="logistic"),
        pytest.param("logistic", range(41, 51), marks=LOSS, id="logistic-seeds-41-50")])
    def test_reduced_step_at_small_delta(self, family, seeds):
        # the row of a slack pair with both members at their bound has E ≈ δ,
        # which divides dy_R; every seed must pass, so the worst error over
        # them is judged
        prog = self.program(family)
        p, q = prog.pairs
        for seed in seeds:
            st = random_state(prog, seed=seed, delta=1e-8)
            at_bound(st, [p[1], q[1]])
            st.inner_tol = 1e-12
            assert_dense_step(factored(AugmentedSystem, st, prog), st, prog)

    def test_pixel_at_its_bound_keeps_its_couplings(self, monkeypatch):
        # an interior pixel at its bound: H~'s couplings reach the band on its
        # row and column as on every other
        prog = self.program("poisson")
        st = random_state(prog, seed=44)
        at_bound(st, [14])
        st.inner_tol = 1e-12
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
        system = factored(AugmentedSystem, st, prog)
        hess_action = prog.hess_action

        def uncoupled(x):
            action, htilde = hess_action(x)
            diag, c = split_htilde(prog, htilde)
            return action, np.r_[diag, np.zeros(c.size)]

        prog.hess_action = uncoupled
        factored(AugmentedSystem, st, prog)
        band, without = bands
        k = np.flatnonzero(system.rows == 14)[0]  # pixel 14's band position
        offsets = np.arange(1, min(k, system.band.bw) + 1)
        assert np.any(band[1:, k] != without[1:, k])  # its column below the diagonal
        assert np.any(band[offsets, k - offsets] != without[offsets, k - offsets])  # its row
        assert_dense_step(system, st, prog)

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
        assert (rep.status, rep.iterations, rep.inner_iterations) == ("optimal", 8, 102)

    def test_planted_slack_rows_are_eliminated(self):
        prog, _ = planted_qp("slack", 30, 10, 0)
        system = factored(AugmentedSystem, random_state(prog, seed=43), prog)
        assert system.pairs.size == 10 and np.unique(system.prow).size == 4
        assert system.na == 30 and system.band.A_Bt.shape == (30, 10)

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


def saddle_matvec(system):
    """The product with the saddle matrix M = [[-K, A_B'], [A_B, E_B]] of a
    factored ``AugmentedSystem``, from its definition, unknowns in band
    order; E_B = δ on its border rows, which hold no slack pair."""
    band, na = system.band, system.na

    def matvec(v):
        v1, v2 = v[:na], v[na:]
        block = np.zeros(system._block.size)  # the Hessian's argument
        block[system.rows] = v1
        K1 = (system._hess(block)[system.rows] + system.dt * v1
              + system.A_Rt @ ((band.A_R @ v1) / system.E_elim))
        return np.concatenate([band.A_Bt @ v2 - K1,
                               v1 @ band.A_Bt + system.E[system.border] * v2])
    return matvec


def preconditioned_minres_step(system, r1, r2, tol):
    """(dx, dy) and the iteration count of MINRES to ``tol`` on the saddle
    matrix [[-K, A_B'], [A_B, δI]] of a factored ``AugmentedSystem``, by the
    reference loop under the preconditioner blockdiag(P, S) from its band:
    the MINRES step before the split form, with dy_R = (rs_R - A_R xu)/E_R."""
    band, na = system.band, system.na
    rt, rs = system._reduced_rhs(r1, r2)
    u = rs[system.elim] / system.E_elim
    f = np.concatenate([rt - system.A_Rt @ u, rs[system.border]])
    sol, it, _ = reference_minres(
        saddle_matvec(system), f, precond=precond.build_aug_block_diag_precond(band).apply_inverse,
        tol=tol, maxit=ippmm.INNER_MAXIT)
    xu, dy = sol[:na], np.empty(rs.size)
    dy[system.elim] = u - (band.A_R @ xu) / system.E_elim
    dy[system.border] = sol[na:]
    return system._expand(r1, rt, xu, dy), it


class TestSplitOperator:
    """The MINRES path's operator blockdiag(L, L_S)^-1 M blockdiag(L, L_S)^-T."""

    def test_a_dominating_htilde_keeps_the_first_block_in_minus_one_to_zero(self):
        # at small shifts Θ + ρ, P is nearly H~ on the pixels, so the split
        # block -(I + L^-1 (H - H~) L^-T) = -L^-1 K L^-T reaches below -1
        # as soon as H~ does not dominate H: the lumped H~ >= H does
        prog = lumped_htilde(build_poisson_tv(make_poisson(size=8)))
        st = random_state(prog, seed=45, rho=1e-6)
        shift = np.random.default_rng(46).uniform(1e-4, 1e-2, prog.n)
        st.z = (shift - st.rho) * st.x  # Θ + ρ = shift
        system = factored(AugmentedSystem, st, prog)
        na = system.na
        T = np.column_stack([system.matvec(e)[:na] for e in np.eye(na + system.B.size)[:na]])
        eigs = np.linalg.eigvalsh(0.5 * (T + T.T))
        assert eigs.min() >= -1.0 - 1e-10 and eigs.max() < 0.0

    @pytest.mark.parametrize("family", ["poisson", "diagonal-pairs"])
    def test_solve_matches_the_preconditioned_minres_step(self, family):
        prog = (build_poisson_tv(make_poisson(size=8)) if family == "poisson"
                else planted_qp("diagonal-pairs", 10, 4, 30)[0])
        st = random_state(prog, seed=48)
        st.inner_tol = 1e-8
        system = factored(AugmentedSystem, st, prog)
        _, _, _, rp, gy, _ = kkt_residuals(st, prog)
        r1, r2 = newton_rhs(st, rp, gy, 0.5)
        got = np.concatenate(system.solve(r1, r2, st.inner_tol))
        (dx, dy), it = preconditioned_minres_step(system, r1, r2, st.inner_tol)
        expected = np.concatenate([dx, dy])
        assert abs(sum(out["iters"] for out in system.solves) - it) <= 1
        assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("family", ["poisson", "logistic"])
    def test_split_apply_returns_a_fresh_result_and_reads_v_only(self, family):
        # on logistic every row is eliminated: the border has no rows
        prog = (build_poisson_tv(make_poisson(size=8)) if family == "poisson"
                else TestSlackPairElimination.program("logistic"))
        system = factored(AugmentedSystem, random_state(prog, seed=49), prog)
        band, na, nb = system.band, system.na, system.B.size
        assert (nb == 0) == (family == "logistic")
        v = np.random.default_rng(50).standard_normal(na + nb)
        kept = v.copy()
        first, second = system.matvec(v), system.matvec(v)
        np.testing.assert_array_equal(v, kept)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)
        # against blockdiag(L, L_S)^-1 M blockdiag(L, L_S)^-T, dense
        n = na + nb
        T = np.column_stack([system.matvec(e) for e in np.eye(n)])
        M = np.column_stack([saddle_matvec(system)(e) for e in np.eye(n)])
        L = np.zeros((n, n))
        for t in range(band.bw + 1):  # L's t-th subdiagonal, from lower band storage
            L[np.arange(t, na), np.arange(na - t)] = band.L[t, :na - t]
        if nb:
            L[na:, na:] = np.tril(band.S)
        dense = scipy.linalg.solve_triangular(
            L, scipy.linalg.solve_triangular(L, M, lower=True).T, lower=True).T
        assert np.linalg.norm(T - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_gap_applies_the_factor_s_htilde(self, monkeypatch):
        # one system factored at two iterates: H~'s values are refilled
        prog = build_poisson_tv(make_poisson(size=8))
        system = AugmentedSystem(prog)
        w = np.random.default_rng(52).standard_normal(system.na)
        for seed in (53, 54):
            st = random_state(prog, seed=seed)
            system.factor(st)
            # with H = 0, Δw = -H~ w
            monkeypatch.setattr(system, "_hess", np.zeros_like)
            product = -system._gap(w)
            np.testing.assert_array_equal(product, system.htilde @ w)
            rows = system.rows
            dense = dense_htilde(prog, st.x)[np.ix_(rows, rows)] @ w
            np.testing.assert_allclose(product, dense, rtol=1e-14,
                                       atol=1e-14 * np.abs(dense).max())


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
    def test_one_system_follows_the_iterate(self, cls, family):
        prog = self.program(family)
        system = cls(prog)
        for seed in (41, 42, 43):
            st = random_state(prog, seed=seed)
            st.inner_tol = 1e-12
            system.factor(st)
            assert_dense_step(system, st, prog)

    @pytest.mark.parametrize("cls,family", [
        (AugmentedSystem, "poisson"), (AugmentedSystem, "logistic"),
        (NormalEquations, "diagonal-slack")])
    def test_one_system_follows_members_to_their_bound(self, cls, family):
        prog = self.program(family)
        st = random_state(prog, seed=41)
        st.inner_tol = 1e-12
        system = cls(prog)
        p, q = prog.pairs
        # none at its bound, then one pair member, both members of another and
        # a non-negative variable outside the pairs, if the program has one
        unpaired = np.setdiff1d(prog.nonneg, prog.pairs)[:1]
        for members in ([], [q[0]], [p[1], q[1]], unpaired):
            at_bound(st, members)
            system.factor(st)
            assert_dense_step(system, st, prog)

    # dropping is only checked: setting it builds the same one system
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
    def assert_fmri_blocks_match(prog, members):
        """After each set of ``members`` is put at its bound, the fmri-block
        preconditioner is the inverse of the dense normal matrix, at δ = 1e-2
        and 1e-8, and the step is the dense one. Returns the system and the
        number of rows that border K at each factor."""
        st = random_state(prog, seed=45)
        st.inner_tol = 1e-12
        system = NormalEquations(prog)
        r = np.random.default_rng(46).standard_normal(prog.m)
        borders = []
        for some in members:
            at_bound(st, some)
            for st.delta in (1e-2, 1e-8):
                system.factor(st)
                borders.append(system.border.size)
                g = prog.Q.diagonal() + st.xi_diag() + st.rho
                P = precond.normal_equations_matrix(g, prog.A, st.delta)
                np.testing.assert_allclose(system._apply_inverse(r),
                                           np.linalg.solve(P, r), rtol=1e-9, atol=1e-12)
                assert_dense_step(system, st, prog)
        return system, borders

    def test_fmri_blocks_match_the_dense_normal_matrix(self):
        prog, inst = self.fmri_program()
        (s, q), ell = inst.data.shape, inst.tv.rows
        # none at its bound, then a w member, a whole (w+, w-) pair and a
        # whole (d+, d-) pair
        system, borders = self.assert_fmri_blocks_match(prog, (
            [], [s + 3], [s + 7, s + q + 7], [s + 2 * q + 5, s + 2 * q + ell + 5]))
        # one unknown per residual and per w pair; the (d+, d-) pairs leave with E
        assert system.rows.size == s + q and np.unique(system.prow).size == ell
        # the data rows always border K; the row of the (d+, d-) pair at its
        # bound has E ≈ δ, which at 1e-8 is too small to eliminate it
        assert borders == [s] * 7 + [s + 1]

    def test_fmri_blocks_without_pairs(self):
        # every column is an unknown of the band, and E = δ on every row
        prog, inst = self.fmri_program(pairs=False)
        (s, q), ell = inst.data.shape, inst.tv.rows
        system, borders = self.assert_fmri_blocks_match(prog, (
            [], [s + 3], [s + 2 * q + 5, s + 2 * q + ell + 5]))
        assert system.rows.size == s + 2 * q + 2 * ell and system.prow.size == 0
        # without a slack pair no row is eliminated: every row borders K
        assert borders == [s + ell] * 6

    @pytest.mark.parametrize("seed,iterations", [(2838554749, 6), (950828772, 7)],
                             ids=["40-48", "45-44"])
    def test_fmri_benchmark_instance_that_failed_the_drop_audit_is_optimal(self, seed,
                                                                           iterations):
        # instances (40, 48) and (45, 44) of the fmri-pcg workload, with its
        # options: each ended numerical-failure on the drop audit while
        # dropping=True dropped variables; the solver now only checks that option
        inst, _ = gen_fused_lasso(60, (8, 8, 8), seed)
        _, rep = solve(build_fused_lasso_ls(inst), SolverOptions(
            linear_solver="pcg-normal", precond="fmri-block", dropping=True,
            eps_drop=1e-6))
        assert (rep.status, rep.iterations) == ("optimal", iterations)
        assert rep.drop_audit is None

    def test_fmri_solve_factors_no_superlu(self, monkeypatch):
        lus = record_calls(monkeypatch, scipy.sparse.linalg, "splu")
        bands = record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
        prog, _ = self.fmri_program()
        _, rep = solve(prog, SolverOptions(linear_solver="pcg-normal",
                                           precond="fmri-block"))
        assert rep.status == "optimal"
        assert lus == [] and len(bands) == rep.iterations

    def test_fmri_pcg_takes_at_most_two_iterations_per_newton_solve(self):
        # the preconditioner is the normal matrix's exact inverse, on a
        # program with slack pairs and on one without
        runs = [(self.fmri_program()[0], SolverOptions(
                    linear_solver="pcg-normal", precond="fmri-block")),
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

    def test_fmri_pcg_builds_one_band_where_slack_rows_border_it(self, monkeypatch):
        # a slack row over ELIMINATION_LOSS borders K in that factor alone:
        # the band is built once per solve, not again when those rows change
        bands = record_calls(monkeypatch, ippmm, "BorderedBand")
        loss_rows, factor = [], NormalEquations.factor

        def recorded(system, state):
            factor(system, state)
            loss_rows.append(system.border.size - system.B.size)

        monkeypatch.setattr(NormalEquations, "factor", recorded)
        prog = build_fused_lasso_ls(gen_fused_lasso(200, (6, 6, 6), 0, 1e-3, 1e-2)[0])
        _, rep = solve(prog, SolverOptions(linear_solver="pcg-normal", precond="fmri-block"))
        assert len(bands) == 1 and max(loss_rows) > 0
        _, direct = solve(prog, SolverOptions())
        assert (rep.status, rep.iterations) == ("optimal", direct.iterations)

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
        def failing(self, *args, **kwargs):
            time.sleep(0.05)
            raise np.linalg.LinAlgError("breakdown")

        monkeypatch.setattr(NormalEquations, "solve", failing)
        prog, _ = planted_qp("diagonal", 60, 20, 0)
        _, rep = solve(prog, SolverOptions(linear_solver="pcg-normal"))
        assert rep.status == "numerical-failure" and rep.iterations == 0
        assert rep.records[0]["linear_algebra_s"] >= 0.05

    def test_a_factor_that_fails_before_its_solves_records_none(self, monkeypatch):
        # G turns non-positive at the second factor, before any PCG solve:
        # that iteration's record holds no solve, not the first one's again
        refresh, calls = NormalEquations._refresh, []

        def failing(self, *args):
            calls.append(args)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("diagonal weights must be positive")
            return refresh(self, *args)

        monkeypatch.setattr(NormalEquations, "_refresh", failing)
        prog, _ = planted_qp("diagonal", 60, 20, 0)
        _, rep = solve(prog, SolverOptions(linear_solver="pcg-normal"))
        assert rep.status == "numerical-failure" and rep.iterations == 1
        first = sum(out["iters"] for out in rep.records[0]["solves"])
        assert first > 0 and rep.inner_iterations == first
        assert rep.records[1]["solves"] == []


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
    @pytest.mark.parametrize("members", ["none", "w member", "w pair", "slack pair"])
    def test_matches_the_dense_unreduced_operator(self, members, delta):
        prog, s, q, ell = self.program()
        st = random_state(prog, seed=48, delta=delta)
        # the members put at their bound
        at_bound(st, {"none": [], "w member": [s + 1], "w pair": [s + 2, s + q + 2],
                      "slack pair": [s + 2 * q + 3, s + 2 * q + ell + 3]}[members])
        st.inner_tol = 1e-12
        system = factored(NormalEquations, st, prog)
        assert system.A_u.shape == (prog.m, s + q)  # one column per unknown
        g = prog.Q.diagonal() + st.xi_diag() + st.rho
        A = prog.A.toarray()
        N = (A / g) @ A.T + delta * np.eye(prog.m)
        M = np.column_stack([system.matvec(e) for e in np.eye(prog.m)])
        np.testing.assert_allclose(M, N, rtol=1e-13, atol=1e-13 * np.abs(N).max())
        rng = np.random.default_rng(49)
        r1, r2 = rng.standard_normal(prog.n), rng.standard_normal(prog.m)
        # the step: dy solves N dy = r2 + A G^-1 r1, dx follows from dy by the
        # unreduced formula
        dx, dy = system.solve(r1, r2, st.inner_tol)
        np.testing.assert_allclose(N @ dy, r2 + A @ (r1 / g), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(dx, (A.T @ dy - r1) / g, rtol=1e-13,
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
        img = builtin_image("squares", 16)
        kernel = BlurKernel("gaussian", img.shape, {"sigma": 1.0})
        inst, _ = gen_blur_instance(img, kernel, 100.0, 1.0, 0, lam=5e-3)
        return build_poisson_tv(inst)

    def test_htilde_csr_holds_each_entry_once(self):
        # the CSR that each MINRES iteration subtracts is the program's H~
        # over the unknowns, in band order, refilled at each factor
        prog = self.program()
        system = AugmentedSystem(prog)
        for seed in (51, 52):
            st = random_state(prog, seed=seed)
            system.factor(st)
            rows = system.rows
            np.testing.assert_array_equal(system.htilde.toarray(),
                                          dense_htilde(prog, st.x)[np.ix_(rows, rows)])

    def test_diagonally_dominant_htilde_takes_fewer_minres_iterations(self):
        # against the same solve with the lumped H~ >= H, whose diagonal
        # carries each row's whole mass off the couplings: 627 against 892
        # MINRES iterations; two lumped H~ equal up to roundoff read 890 and
        # 892, so a fifth fewer is beyond roundoff
        reports = [solve(prog, SolverOptions(linear_solver="minres-augmented"))[1]
                   for prog in (self.program(), lumped_htilde(self.program()))]
        assert [rep.status for rep in reports] == ["optimal", "optimal"]
        assert reports[0].inner_iterations < 0.8 * reports[1].inner_iterations

    @pytest.mark.parametrize("family", ["gaussian", "motion", "out-of-focus"])
    def test_band_factors_with_u_squared_over_sixteen_decades(self, family):
        # u^2 = g / (Dw + a)^2 = g from 1e-8 to 1e8 at w ~ 0 and a = 1, with
        # Θ + ρ = 1e-8 on the pixels and slack rows of weight ~1e-8 in K:
        # P is nearly H~, diagonally dominant with a non-negative diagonal
        rng = np.random.default_rng(53)
        inst = make_poisson(size=16)
        inst.blur = BccbOperator(BlurKernel(family, (16, 16)))
        inst.observed = 10.0 ** rng.uniform(-8.0, 8.0, 256)
        prog = build_poisson_tv(inst)
        st = random_state(prog, seed=54, rho=1e-8)
        st.x[:] = 1.0
        st.x[:256] = 1e-12
        st.z[:] = 0.0
        system = factored(AugmentedSystem, st, prog)  # no LinAlgError
        H = dense_hessian(prog, st.x)[:256, :256]
        i, j = prog.couplings
        row_sum = np.bincount(prog.couplings.ravel(), np.tile(H[i, j], 2), minlength=256)
        rows = system.rows
        np.testing.assert_allclose(system.htilde.diagonal(),
                                   np.maximum(np.diag(H), row_sum)[rows],
                                   rtol=1e-12, atol=1e-14 * np.abs(H).max())

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

    @pytest.mark.parametrize("family, weights, per_solve", [("poisson", "_intensity", 2),
                                                            ("logistic", "_sigmoid_weights", 1)])
    def test_each_factor_evaluates_the_hessian_weights_once(self, monkeypatch, family,
                                                            weights, per_solve):
        # u2 = g/(Dw + a)^2 on Poisson and p(1 - p)/n on logistic: one call in
        # each of the k factors, one in the gradient of ``kkt_residuals`` at
        # each of the k + 1 iterates, and on Poisson one in the final objective
        if family == "poisson":
            prog = self.program()
        else:
            prog = build_logistic_l1(gen_classification(200, 40, 2.0, 0.1, 0)[0])
        calls = record_calls(monkeypatch, problems, weights)
        _, rep = solve(prog, SolverOptions(linear_solver="minres-augmented", max_iter=5))
        assert (rep.status, rep.iterations) == ("max-iterations", 5)
        assert len(calls) == 2 * rep.iterations + per_solve

    @pytest.mark.parametrize("family, k", [("poisson", 16 * 16), ("logistic", 40 + 1)])
    def test_the_hessian_acts_on_its_block_alone(self, family, k):
        # the Hessian block is the k pixels, or the s + 1 coefficients with the
        # bias: every vector that the action takes or returns has length k,
        # and each H~ holds k diagonal values and one per coupling
        if family == "poisson":
            prog = self.program()
        else:
            prog = build_logistic_l1(gen_classification(200, 40, 2.0, 0.1, 0)[0])
        hess_action, htildes, actions = prog.hess_action, [], []

        def recorded(x):
            action, htilde = hess_action(x)
            htildes.append(htilde.size)

            def act(v):
                out = action(v)
                actions.append((v.size, out.size))
                return out
            return act, htilde

        prog.hess_action = recorded
        _, rep = solve(prog, SolverOptions(linear_solver="minres-augmented", max_iter=5))
        assert (rep.status, rep.iterations) == ("max-iterations", 5) and prog.n > k
        assert htildes == [k + prog.couplings.shape[1]] * rep.iterations
        assert len(actions) >= rep.inner_iterations and set(actions) == {(k, k)}

    def test_logistic_factors_compute_only_the_hessian_weights(self, monkeypatch):
        # the gradient of ``kkt_residuals`` at each of the k + 1 iterates calls
        # logistic_oracle; the k factors take their weights without D'(g p)
        prog = build_logistic_l1(gen_classification(200, 40, 2.0, 0.1, 0)[0])
        calls = record_calls(monkeypatch, problems, "logistic_oracle")
        _, rep = solve(prog, SolverOptions(linear_solver="minres-augmented", max_iter=5))
        assert (rep.status, rep.iterations) == ("max-iterations", 5)
        assert len(calls) == rep.iterations + 1

    def test_couplings_in_the_preconditioner_save_minres_iterations(self):
        # the same solve with H~ lumped onto its diagonal, H~1 = D'u2, as the
        # band carries no couplings: at least 10% more MINRES iterations
        prog = self.program()
        _, rep = solve(prog, SolverOptions(linear_solver="minres-augmented"))
        hess_action = prog.hess_action

        def lumped(x):
            action, htilde = hess_action(x)
            diag, c = split_htilde(prog, htilde)
            diag = diag + np.bincount(prog.couplings.ravel(), np.tile(c, 2),
                                      minlength=diag.size)
            return action, np.r_[diag, np.zeros(c.size)]

        prog.hess_action = lumped
        _, lumped_rep = solve(prog, SolverOptions(linear_solver="minres-augmented"))
        assert rep.status == lumped_rep.status == "optimal"
        assert rep.inner_iterations <= 0.9 * lumped_rep.inner_iterations

    def test_corrector_starts_from_the_predictor(self, monkeypatch):
        # the corrector's rhs differs from the predictor's only by the
        # centring and second-order terms: started from the predictor's
        # split solution, the correctors take fewer MINRES iterations than
        # the same systems solved from zero
        calls, cold, minres = [], [], ippmm.minres

        def recorded(*args, **kwargs):
            calls.append((kwargs["x0"], minres(*args, **kwargs)))
            if kwargs["x0"] is not None:
                cold.append(minres(*args, **{**kwargs, "x0": None}))
            return calls[-1][1]

        monkeypatch.setattr(ippmm, "minres", recorded)
        _, rep = solve(self.program(), SolverOptions(linear_solver="minres-augmented"))
        assert rep.status == "optimal" and len(calls) == 2 * rep.iterations
        predictors, correctors = calls[0::2], calls[1::2]
        assert all(x0 is None for x0, _ in predictors)
        assert all(x0 is out.solution for (x0, _), (_, out) in zip(correctors, predictors))
        assert len(cold) == len(correctors)
        assert (sum(out.iterations for _, out in correctors)
                < sum(out.iterations for out in cold))

    def test_non_finite_krylov_data_is_numerical_failure(self):
        # a Hessian action that turns NaN in the third iteration: its
        # predictor's MINRES ends at once, and so does the solve
        prog = self.program()
        hess_action, built = prog.hess_action, []

        def action(x):
            built.append(x)
            h, htilde = hess_action(x)
            return (h if len(built) < 3 else (lambda w: h(w) * np.nan)), htilde

        prog.hess_action = action
        _, rep = solve(prog, SolverOptions(linear_solver="minres-augmented"))
        assert rep.status == "numerical-failure" and rep.iterations == 2
        last = json.loads(rep.to_json())["records"][-1]
        tol = min(ippmm.INNER_TOL_MAX, ippmm.PREDICTOR_FORCING * last["eta"])
        assert last["solves"] == [{"tol": tol, "iters": 0, "residual": 1.0,
                                   "converged": False}]
        assert rep.inner_capped == 1

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
        # the corrector solves to eta_k, the predictor to PREDICTOR_FORCING
        # times it, neither looser than INNER_TOL_MAX
        eta = np.clip(ippmm.FORCING * residual, ippmm.INNER_TOL_MIN, ippmm.INNER_TOL_MAX)
        predictor = np.minimum(ippmm.INNER_TOL_MAX, ippmm.PREDICTOR_FORCING * eta)
        expected = np.column_stack([predictor, eta]).ravel()
        assert np.any(predictor > eta)
        assert [c["tol"] for c in calls] == pytest.approx(expected, rel=1e-15)
        assert {c["maxit"] for c in calls} == {ippmm.INNER_MAXIT}

    def test_logistic_benchmark_instance_reaches_optimal(self):
        # instance (0, 1) of the logistic-minres workload: the generator's
        # tau = 1/n
        inst, _, _ = gen_classification(2000, 400, 2.0, 0.1, 3964924996)
        _, rep = solve(build_logistic_l1(inst), SolverOptions(
            linear_solver="minres-augmented", htilde_choice="diag-h"))
        assert rep.status == "optimal"

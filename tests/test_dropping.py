import numpy as np
import pytest

from sparseipm.dropping import XI, scan_and_drop, verify_dropped
from sparseipm.ippmm import SolverOptions, initial_state, kkt_residuals, solve
from sparseipm.problems import build_portfolio_qp, quadratic_program
from test_problems import make_portfolio


def make_state(prog, x, z, y=None, k=0):
    st = initial_state(prog, SolverOptions())
    st.x = np.asarray(x, dtype=float)
    st.z = np.asarray(z, dtype=float)
    if y is not None:
        st.y = np.asarray(y, dtype=float)
    st.k = k
    return st


def dual_residual(st, prog):
    """grad - A'y - z at the state, as the solver's evaluation forms it."""
    return kkt_residuals(st, prog)[5]


def grad_minus_aty(prog, x, y):
    """grad - A'y at (x, y), as the solver's final evaluation forms it."""
    st = make_state(prog, x, np.zeros(len(x)), y=y)
    return kkt_residuals(st, prog)[4]


def lp(c, A, b):
    n = len(c)
    return quadratic_program(np.zeros((n, n)), np.asarray(c, dtype=float),
                             np.asarray(A, dtype=float),
                             np.asarray(b, dtype=float))


class TestScanAndDrop:
    def test_condition_met_drops(self):
        # x tiny, z well separated, dual residual consistent
        prog = lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
        y = np.array([0.5])
        z = np.array([0.5, 0.5])
        # residual grad - A'y - z = 1 - 0.5 - 0.5 = 0 on both coordinates
        st = make_state(prog, [1e-5, 1.0], z, y=y, k=7)
        newly = scan_and_drop(st, dual_residual(st, prog), eps_drop=1e-4)
        assert newly.tolist() == [0]
        assert st.x[0] == 0.0 and st.z[0] == 0.0
        assert st.drop_log.tolist() == [[0, 7]]
        assert st.dropped[0] and not st.dropped[1]

    def test_small_dual_blocks_drop(self):
        prog = lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
        st = make_state(prog, [1e-5, 1.0], [1e-3, 1.0], y=np.array([0.0]))
        # z = 1e-3 < XI * eps_drop = 1e-2
        assert scan_and_drop(st, dual_residual(st, prog), eps_drop=1e-4).size == 0

    def test_dual_residual_blocks_drop(self):
        prog = lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
        st = make_state(prog, [1e-5, 1.0], [0.5, 0.5], y=np.array([5.0]))
        # residual = 1 - 5 - 0.5 far from zero
        assert scan_and_drop(st, dual_residual(st, prog), eps_drop=1e-4).size == 0

    def test_noop_when_away_from_bound(self):
        prog = lp([1.0, 1.0], [[1.0, 1.0]], [2.0])
        st = make_state(prog, [1.0, 1.0], [0.5, 0.5], y=np.array([0.5]))
        assert scan_and_drop(st, dual_residual(st, prog), eps_drop=1e-4).size == 0
        assert not st.dropped.any()

    def test_monotone_growth(self):
        prog = lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
        st = make_state(prog, [1e-5, 1.0], [0.5, 0.5], y=np.array([0.5]))
        scan_and_drop(st, dual_residual(st, prog), eps_drop=1e-4)
        first = st.dropped.copy()
        scan_and_drop(st, dual_residual(st, prog), eps_drop=1e-4)
        assert np.all(st.dropped >= first)

    def test_evaluation_with_drop_describes_the_dropped_state(self):
        prog = lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
        st = make_state(prog, [1e-5, 1.0], [0.5, 0.5], y=np.array([0.5]), k=4)
        evaluated = kkt_residuals(st, prog, eps_drop=1e-4)
        assert st.drop_log.tolist() == [[0, 4]] and st.x[0] == 0.0
        for got, fresh in zip(evaluated, kkt_residuals(st, prog)):
            np.testing.assert_array_equal(got, fresh)


def reference_scan_and_drop(state, rd, eps_drop):
    """The drop rule one index at a time: the reference for the array form."""
    newly = []
    for j in state.nonneg_active():
        if state.x[j] <= eps_drop and state.z[j] >= XI * eps_drop \
                and abs(rd[j]) <= eps_drop:
            state.dropped[j] = True
            state.x[j] = 0.0
            state.z[j] = 0.0
            state.drop_log = np.vstack([state.drop_log, [j, state.k]])
            newly.append(int(j))
    return newly


def test_array_drop_rule_matches_the_reference_loop():
    rng = np.random.default_rng(3)
    n = 60
    prog = lp(np.ones(n), np.ones((1, n)), [1.0])
    x = np.where(rng.random(n) < 0.5, rng.uniform(0, 2e-4, n), 1.0)
    z = rng.uniform(0.0, 0.05, n)
    rd = rng.uniform(-2e-4, 2e-4, n)
    states = [make_state(prog, x.copy(), z.copy(), k=9) for _ in range(2)]
    for st in states:
        st.dropped[:5] = True
        st.drop_log = np.array([(j, 3) for j in range(5)])
    got = scan_and_drop(states[0], rd, 1e-4)
    want = reference_scan_and_drop(states[1], rd, 1e-4)
    assert got.tolist() == want and len(got) > 5
    for name in ("dropped", "x", "z"):
        np.testing.assert_array_equal(getattr(states[0], name), getattr(states[1], name))
    np.testing.assert_array_equal(states[0].drop_log, states[1].drop_log)
    gy = rng.standard_normal(n)
    audit = verify_dropped(gy, states[0].drop_log)
    V = [j for j, _ in states[0].drop_log]
    np.testing.assert_array_equal(audit.multipliers, gy[V])
    assert audit.violated == [j for j in V if gy[j] <= 0]
    assert audit.to_dict() == {"dropped": [[j, k] for j, k in states[0].drop_log],
                               "multipliers": [float(gy[j]) for j in V],
                               "violated": audit.violated}


class TestVerifyDropped:
    def test_empty_audit(self):
        prog = lp([1.0], [[1.0]], [1.0])
        audit = verify_dropped(grad_minus_aty(prog, [1.0], [1.0]), [])
        assert audit.dropped.size == 0 and audit.violated == []
        assert audit.multipliers.size == 0

    def test_correct_drop_positive_multiplier(self):
        # min x1 + 2 x2 s.t. x1 + x2 = 1: optimum x = (1, 0), y = 1, z2 = 1
        prog = lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
        audit = verify_dropped(grad_minus_aty(prog, [1.0, 0.0], [1.0]),
                               [(1, 5)])
        assert audit.multipliers[0] == pytest.approx(1.0)
        assert audit.violated == []

    def test_wrong_drop_flagged(self):
        # dropping the cheap variable instead: its multiplier 1 - 2 = -1
        prog = lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
        audit = verify_dropped(grad_minus_aty(prog, [0.0, 1.0], [2.0]),
                               [(0, 3)])
        assert audit.multipliers[0] == pytest.approx(-1.0)
        assert audit.violated == [0]

    def test_audit_serialization(self):
        prog = lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
        audit = verify_dropped(grad_minus_aty(prog, [1.0, 0.0], [1.0]),
                               [(1, 5)])
        doc = audit.to_dict()
        assert doc["dropped"] == [[1, 5]]
        assert doc["violated"] == []


class TestDroppingInSolver:
    def test_solver_drop_matches_undropped_objective(self):
        inst = make_portfolio(s=6, m=3, seed=30)
        prog = build_portfolio_qp(inst)
        # tight tolerance: the comparison must not be dominated by the
        # remaining duality gap of either run
        opts_on = SolverOptions(tol=1e-9, dropping=True, eps_drop=1e-4)
        (x_on, _, _), rep_on = solve(prog, opts_on)
        (x_off, _, _), rep_off = solve(prog, SolverOptions(tol=1e-9))
        assert rep_on.status == "optimal"
        assert rep_off.status == "optimal"
        assert rep_on.drop_audit is not None
        assert rep_on.drop_audit["violated"] == []
        obj_on = inst.original_objective(prog.extract(x_on))
        obj_off = inst.original_objective(prog.extract(x_off))
        assert abs(obj_on - obj_off) <= 1e-6 * (1 + abs(obj_off))

    def test_dropped_variables_are_exact_zeros(self):
        inst = make_portfolio(s=6, m=3, seed=31)
        prog = build_portfolio_qp(inst)
        (x, _, _), rep = solve(prog, SolverOptions(tol=1e-6, dropping=True))
        dropped = [j for j, _ in rep.drop_audit["dropped"]]
        if dropped:
            np.testing.assert_array_equal(x[dropped], 0.0)

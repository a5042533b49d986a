import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from sparseipm.ippmm import NormalEquations, UnsupportedStructureError
from sparseipm.linops import BccbOperator, BlurKernel, make_tv_operator
from sparseipm.problems import (DomainError, FusedLassoLsInstance,
                                LogisticInstance, PoissonTvInstance,
                                PortfolioInstance, budget_constraints,
                                build_fused_lasso_ls, build_logistic_l1,
                                build_poisson_tv, build_portfolio_qp,
                                kl_gradient, kl_value, logistic_loss,
                                logistic_oracle, naive_portfolio,
                                quadratic_program)


def assert_same_csr(got, expected):
    """Equal shapes, and equal indptr, indices and data with their dtypes."""
    assert got.format == "csr" and got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def finite_diff_grad(f, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def make_portfolio(s=4, m=3, seed=0, tau1=1e-2, tau2=1e-2):
    rng = np.random.default_rng(seed)
    covs, rets = [], []
    for _ in range(m):
        B = rng.standard_normal((s, 2))
        covs.append(B @ B.T + 0.1 * np.eye(s))
        rets.append(rng.uniform(-0.05, 0.10, size=s))
    return PortfolioInstance(covariances=covs, returns=rets,
                             xi_init=1.0, xi_term=1.1, tau1=tau1, tau2=tau2)


class TestPortfolio:
    def test_rejects_indefinite_covariance(self):
        inst = make_portfolio()
        bad = list(inst.covariances)
        bad[0] = -np.eye(4)
        with pytest.raises(ValueError):
            PortfolioInstance(bad, inst.returns, 1.0, 1.1, 1e-2, 1e-2)

    @pytest.mark.parametrize("tau1, tau2", [(-1.0, 1e-2), (1e-2, -0.5), (np.inf, 1e-2),
                                            (1e-2, np.inf), (np.nan, 1e-2)])
    def test_rejects_negative_weights(self, tau1, tau2):
        # a negative weight makes the split program unbounded below; an
        # infinite one leaves its solve no finite gradient
        with pytest.raises(ValueError, match="non-negative"):
            make_portfolio(tau1=tau1, tau2=tau2)
        make_portfolio(tau1=0.0, tau2=0.0)  # zero stays valid

    def test_budget_matrix_small(self):
        # m=2, s=2: budget row, one self-financing row, terminal row
        inst = PortfolioInstance(
            covariances=[np.eye(2), np.eye(2)],
            returns=[np.array([0.1, 0.2]), np.array([0.0, 0.05])],
            xi_init=1.0, xi_term=1.2, tau1=0.0, tau2=0.0)
        A = budget_constraints(inst)[0].toarray()
        expected = np.array([
            [1.0, 1.0, 0.0, 0.0],
            [-1.1, -1.2, 1.0, 1.0],
            [0.0, 0.0, 1.0, 1.05],
        ])
        np.testing.assert_allclose(A, expected)

    def test_budget_matrix_matches_the_row_by_row_build(self):
        # the reference: each row assembled dense, block by block
        inst = make_portfolio(s=5, m=4, seed=7)
        m, s = inst.num_periods, inst.num_assets
        rows = np.zeros((m + 1, m * s))
        for j in range(m):
            rows[j, j * s:(j + 1) * s] = 1.0
            grow = 1.0 + np.asarray(inst.returns[j])
            rows[j + 1, j * s:(j + 1) * s] = grow if j == m - 1 else -grow
        assert_same_csr(budget_constraints(inst)[0], sp.csr_matrix(rows))

    def test_budget_rhs_follows_terminal_wealth_set_later(self):
        inst = make_portfolio(s=2, m=3)
        inst.xi_term = 1.3
        _, b = budget_constraints(inst)
        np.testing.assert_array_equal(b, [1.0, 0.0, 0.0, 1.3])

    def test_budget_rows_feasible_for_buy_and_hold(self):
        inst = make_portfolio(s=3, m=4, seed=1)
        # strategy: hold value-weighted positions so wealth propagates exactly
        w = np.empty(12)
        w[:3] = 1.0 / 3
        for j in range(1, 4):
            w[3 * j:3 * j + 3] = w[3 * (j - 1):3 * j] \
                * (1.0 + np.asarray(inst.returns[j - 1]))
        A, _ = budget_constraints(inst)
        r = A @ w
        assert abs(r[0] - 1.0) <= 1e-12
        np.testing.assert_allclose(r[1:4], 0.0, atol=1e-12)

    def test_split_qp_dimensions(self):
        # 48 assets over 9 periods gives the documented 1632-variable program
        inst = make_portfolio(s=48, m=9, seed=2)
        prog = build_portfolio_qp(inst)
        assert prog.n == 2 * 48 * (2 * 9 - 1) == 1632
        assert prog.m == 9 + 1 + 48 * 8

    def test_split_pairs_are_negated_columns(self):
        inst = make_portfolio(s=3, m=4, seed=1)
        prog = build_portfolio_qp(inst)
        n, l = 12, 9
        np.testing.assert_array_equal(prog.pairs[0], np.r_[:n, 2 * n:2 * n + l])
        np.testing.assert_array_equal(prog.pairs[1], prog.pairs[0] + np.r_[[n] * n, [l] * l])
        for M in (prog.A, prog.Q):
            assert (M[:, prog.pairs[0]] + M[:, prog.pairs[1]]).count_nonzero() == 0

    def test_split_objective_matches_original(self):
        inst = make_portfolio(seed=3)
        prog = build_portfolio_qp(inst)
        rng = np.random.default_rng(4)
        w = rng.standard_normal(12)
        L = prog.A  # build x consistent with the sign splitting
        wp, wm = np.maximum(w, 0), np.maximum(-w, 0)
        from sparseipm.linops import make_difference_operator
        d = make_difference_operator(3, 4).apply(w)
        dp, dm = np.maximum(d, 0), np.maximum(-d, 0)
        x = np.concatenate([wp, wm, dp, dm])
        assert prog.objective(x) == pytest.approx(inst.original_objective(w))
        np.testing.assert_allclose(prog.extract(x), w, atol=1e-14)

    def test_naive_portfolio_wealth_propagation(self):
        inst = make_portfolio(seed=5)
        w, terminal = naive_portfolio(inst)
        # period weights equal within each period
        W = w.reshape(3, 4)
        for row in W:
            assert np.ptp(row) <= 1e-14
        grow = 1.0 + np.asarray(inst.returns[-1])
        assert terminal == pytest.approx(float(grow @ W[-1]))


def normal_equations(prog):
    """The PCG path's system of ``prog``, which needs a diagonal ``Q``."""
    return NormalEquations(prog)


class TestQuadraticProgram:
    def test_diagonal_detection(self):
        prog = quadratic_program(np.diag([1.0, 2.0]), np.zeros(2),
                                 np.ones((1, 2)), np.array([1.0]))
        normal_equations(prog)
        # an off-diagonal entry stored as zero leaves Q diagonal
        stored_zero = sp.csr_matrix((np.array([1.0, 0.0, 2.0]), np.array([0, 1, 1]),
                                     np.array([0, 2, 3])), shape=(2, 2))
        normal_equations(dataclasses.replace(prog, Q=stored_zero))
        dense = quadratic_program(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                  np.zeros(2), np.ones((1, 2)), np.array([1.0]))
        with pytest.raises(UnsupportedStructureError):
            normal_equations(dense)

    def test_diagonal_flag_follows_q_only(self):
        prog = build_poisson_tv(make_poisson())
        assert prog.Q is None
        with pytest.raises(UnsupportedStructureError):
            normal_equations(prog)
        with pytest.raises(TypeError):  # no Hessian-diagonal oracle to set
            dataclasses.replace(prog, hess_diag=lambda x: prog.hess_action(x)[1])

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        Q = rng.standard_normal((5, 5))
        Q = Q @ Q.T
        c = rng.standard_normal(5)
        prog = quadratic_program(Q, c, np.zeros((0, 5)), np.zeros(0))
        x = rng.standard_normal(5)
        np.testing.assert_allclose(prog.gradient(x),
                                   finite_diff_grad(prog.objective, x),
                                   rtol=1e-5, atol=1e-6)

    def test_index_partition_enforced(self):
        for nonneg in ([0, 0], [2], [-1]):
            with pytest.raises(ValueError):
                quadratic_program(np.eye(2), np.zeros(2), np.zeros((0, 2)),
                                  np.zeros(0), nonneg=np.array(nonneg))
        prog = quadratic_program(np.eye(3), np.zeros(3), np.zeros((1, 3)),
                                 np.zeros(1), nonneg=np.array([2, 0]))
        assert (prog.m, prog.n) == (1, 3)
        assert np.setdiff1d(np.arange(prog.n), prog.nonneg).tolist() == [1]  # free
        assert prog.pairs.shape == (2, 0)  # no split pairs declared

    @pytest.mark.parametrize("pairs, message", [
        ([[0], [3]], "indices in"),          # out of range
        ([[0], [-1]], "indices in"),
        ([[0, 1]], "2 x p"),                 # not two rows
        ([[0, 0], [1, 2]], "repeat"),
        ([[0], [0]], "repeat"),
        ([[0], [2]], "non-negative"),        # 2 is free
    ])
    def test_pair_indices_enforced(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            quadratic_program(np.eye(3), np.zeros(3), np.zeros((0, 3)),
                              np.zeros(0), nonneg=np.array([0, 1]),
                              pairs=np.array(pairs))

    @pytest.mark.parametrize("couplings", [
        [[1], [1]],                          # a coordinate with itself
        [[0, 0], [2, 2]],                    # a pair twice
        [[0, 2], [2, 0]],                    # a pair twice, once reversed
    ])
    def test_coupling_indices_enforced(self, couplings):
        # H~ holds one value per coupling: the MINRES band adds it once, so a
        # second copy would reach only H~'s CSR product
        with pytest.raises(ValueError, match="each pair once"):
            quadratic_program(np.eye(3), np.zeros(3), np.zeros((0, 3)), np.zeros(0),
                              couplings=np.array(couplings))
        prog = quadratic_program(np.eye(3), np.zeros(3), np.zeros((0, 3)), np.zeros(0),
                                 couplings=np.array([[0, 1], [2, 2]]))
        assert prog.couplings.tolist() == [[0, 1], [2, 2]]

    # an index read through dtype=int would be truncated (1.9 -> 1), and a
    # boolean mask read as the indices 0 and 1 (True, False -> 1, 0)
    BAD_INDICES = pytest.mark.parametrize("bad", ["fraction", "mask"])

    @staticmethod
    def indexed(**fields):
        return quadratic_program(np.eye(3), np.zeros(3), np.zeros((0, 3)), np.zeros(0),
                                 **fields)

    @BAD_INDICES
    def test_nonneg_must_hold_integer_indices(self, bad):
        with pytest.raises(ValueError, match="nonneg must hold integer indices"):
            self.indexed(nonneg={"fraction": [1.9], "mask": [True, False, True]}[bad])
        for good in ([2, 0], np.array([2, 0]), np.array([2, 0], dtype=np.int32), [2.0, 0.0]):
            assert self.indexed(nonneg=good).nonneg.tolist() == [2, 0]

    @BAD_INDICES
    def test_pairs_must_hold_integer_indices(self, bad):
        with pytest.raises(ValueError, match="pairs must hold integer indices"):
            self.indexed(pairs={"fraction": [[0.5], [1]], "mask": [[True], [False]]}[bad])
        for good in ([[0], [1]], np.array([[0], [1]])):
            assert self.indexed(pairs=good).pairs.tolist() == [[0], [1]]

    @BAD_INDICES
    def test_couplings_must_hold_integer_indices(self, bad):
        with pytest.raises(ValueError, match="couplings must hold integer indices"):
            self.indexed(couplings={"fraction": [[0], [1.5]], "mask": [[True], [False]]}[bad])
        for good in ([[0], [2]], np.array([[0], [2]])):
            assert self.indexed(couplings=good).couplings.tolist() == [[0], [2]]

    @pytest.mark.parametrize("family", ["poisson", "logistic"])
    def test_constraints_match_the_block_build(self, family):
        # the reference: scipy's block assembly of [1' 0 0; L -I I] and [I -I I]
        if family == "poisson":
            inst = make_poisson()
            L, l = inst.tv.matrix, inst.tv.rows
            expected = sp.bmat([[sp.csr_matrix(np.ones((1, L.shape[1]))), None, None],
                                [L, -sp.eye(l), sp.eye(l)]], format="csr")
            got = build_poisson_tv(inst).A
        else:
            inst = LogisticInstance(np.random.default_rng(3).standard_normal((9, 4)),
                                    np.array([1.0, -1.0] * 4 + [1.0]), tau=0.1)
            eye = sp.eye(5)
            expected = sp.hstack([eye, -eye, eye], format="csr")
            got = build_logistic_l1(inst).A
        assert_same_csr(got, expected)

    def test_poisson_rejects_a_repeated_coupling(self):
        prog = build_poisson_tv(make_poisson())
        with pytest.raises(ValueError, match="each pair once"):
            dataclasses.replace(prog, couplings=np.c_[prog.couplings, prog.couplings[::-1, :1]])


class TestFusedLassoLs:
    def test_program_shapes(self):
        rng = np.random.default_rng(7)
        inst = FusedLassoLsInstance(
            data=rng.standard_normal((6, 8)),
            labels=rng.choice([-1.0, 1.0], size=6),
            grid=(2, 4), tau1=0.1, tau2=0.1)
        prog = build_fused_lasso_ls(inst)
        ell = make_tv_operator((2, 4)).rows
        assert prog.n == 6 + 2 * 8 + 2 * ell
        assert prog.m == 6 + ell
        normal_equations(prog)  # Q is diagonal

    def test_objective_matches_original_on_feasible_split(self):
        rng = np.random.default_rng(8)
        inst = FusedLassoLsInstance(
            data=rng.standard_normal((5, 6)),
            labels=rng.choice([-1.0, 1.0], size=5),
            grid=(6,), tau1=0.3, tau2=0.2)
        prog = build_fused_lasso_ls(inst)
        w = rng.standard_normal(6)
        L = make_tv_operator((6,))
        u = inst.data @ w
        d = L.apply(w)
        x = np.concatenate([u, np.maximum(w, 0), np.maximum(-w, 0),
                            np.maximum(d, 0), np.maximum(-d, 0)])
        assert prog.objective(x) == pytest.approx(inst.original_objective(w))
        np.testing.assert_allclose(prog.A @ x, prog.b, atol=1e-12)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            FusedLassoLsInstance(np.ones((2, 4)), np.array([0.5, 1.0]),
                                 (4,), 0.1, 0.1)

    def test_warns_on_tall_data(self):
        with pytest.warns(UserWarning):
            FusedLassoLsInstance(np.ones((5, 2)), np.ones(5), (2,), 0.1, 0.1)

    @pytest.mark.parametrize("tau1, tau2", [(-0.1, 0.1), (0.1, -0.1), (np.inf, 0.1),
                                            (0.1, np.inf), (0.1, np.nan)])
    def test_rejects_negative_weights(self, tau1, tau2):
        with pytest.raises(ValueError, match="non-negative"):
            FusedLassoLsInstance(np.ones((2, 4)), np.ones(2), (4,), tau1, tau2)
        FusedLassoLsInstance(np.ones((2, 4)), np.ones(2), (4,), 0.0, 0.0)


def split_htilde(prog, htilde):
    """H~'s diagonal over the Hessian block, the leading k coordinates, and
    its values on the couplings: k is H~'s length minus theirs."""
    k = htilde.size - prog.couplings.shape[1]
    return htilde[:k], htilde[k:]


def dense_hessian(prog, x):
    """The program's n x n Hessian at x: the action on each unit vector of
    the Hessian block, zero outside it."""
    hess, htilde = prog.hess_action(x)
    k = split_htilde(prog, htilde)[0].size
    H = np.zeros((prog.n, prog.n))
    H[:k, :k] = np.column_stack([hess(e) for e in np.eye(k)])
    return H


def dense_htilde(prog, x):
    """The program's n x n H~ at x, assembled dense from its diagonal and
    couplings, zero outside the Hessian block."""
    diag, c = split_htilde(prog, prog.hess_action(x)[1])
    dense = np.diag(np.r_[diag, np.zeros(prog.n - diag.size)])
    i, j = prog.couplings
    dense[i, j] = dense[j, i] = c
    return dense


def lumped_htilde(prog):
    """``prog`` with the Poisson H~ of earlier versions: H's couplings of the
    TV's pixel pairs, and the rest of each row lumped onto its diagonal,
    H~_jj = (H1)_j - sum_k H~_jk, so that H~ >= H."""
    def hess_action(x):
        hess, htilde = prog.hess_action(x)
        diag, c = split_htilde(prog, htilde)
        lumped = np.bincount(prog.couplings.ravel(), np.tile(c, 2), minlength=diag.size)
        return hess, np.concatenate([hess(np.ones(diag.size)) - lumped, c])
    return dataclasses.replace(prog, hess_action=hess_action)


def make_poisson(size=8, seed=9, lam=1e-2):
    rng = np.random.default_rng(seed)
    kernel = BlurKernel("gaussian", (size, size), {"sigma": 1.0})
    op = BccbOperator(kernel)
    truth = rng.uniform(1.0, 20.0, size=size * size)
    g = np.round(op.apply(truth) + 1.0)
    return PoissonTvInstance(blur=op, observed=g,
                             background=np.ones(size * size), lam=lam)


class TestPoissonTv:
    def test_kl_zero_at_exact_fit(self):
        inst = make_poisson()
        # with g = Dw + a exactly, the divergence vanishes
        op = inst.blur
        dense = np.column_stack([op.apply(e) for e in np.eye(op.cols)])
        w = np.linalg.lstsq(dense, inst.observed - 1.0, rcond=None)[0]
        assert kl_value(w, inst) >= -1e-8

    def test_gradient_matches_fd(self):
        inst = make_poisson()
        rng = np.random.default_rng(10)
        w = rng.uniform(1.0, 5.0, size=64)
        grad = kl_gradient(w, inst)
        fd = finite_diff_grad(lambda v: kl_value(v, inst), w, h=1e-5)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)

    def test_domain_error(self):
        inst = make_poisson()
        for oracle in (kl_value, kl_gradient):
            with pytest.raises(DomainError):
                oracle(np.full(64, -100.0), inst)

    def test_zero_count_terms_linear(self):
        # pixels with zero observed count contribute only their intensity
        op = BccbOperator(BlurKernel("identity", (2, 2)))
        inst = PoissonTvInstance(blur=op, observed=np.array([0.0, 0.0, 3.0, 0.0]),
                                 background=np.full(4, 0.5), lam=0.0)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        val = kl_value(w, inst)
        nu = w + 0.5
        expected = float(np.sum(nu - inst.observed)) + 3.0 * np.log(3.0 / nu[2])
        assert val == pytest.approx(expected)

    def test_hess_action_symmetric(self):
        inst = make_poisson()
        prog = build_poisson_tv(inst)
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(1.0, 5.0, size=64),
                            rng.uniform(0.1, 1.0, size=prog.n - 64)])
        u = rng.standard_normal(prog.n)
        v = rng.standard_normal(prog.n)
        H = dense_hessian(prog, x)
        huv = float(u @ (H @ v))
        hvu = float(v @ (H @ u))
        assert abs(huv - hvu) <= 1e-12 * max(1.0, abs(huv))

    @pytest.mark.parametrize("family", ["gaussian", "motion", "out-of-focus", "identity"])
    def test_hessian_approximation_is_diagonally_dominant(self, family):
        """H~ keeps H's couplings of the TV's pixel pairs, each >= 0, and
        raises each diagonal H_jj to at least its row's coupling sum, so H~
        is diagonally dominant with a non-negative diagonal; with the
        identity blur H is diagonal and H~ = H. H~ is zero on the pairs."""
        inst = make_poisson(seed=12)
        inst.blur = BccbOperator(BlurKernel(family, (8, 8)))
        prog = build_poisson_tv(inst)
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.uniform(1.0, 5.0, size=64),
                            rng.uniform(0.1, 1.0, size=prog.n - 64)])
        H = dense_hessian(prog, x)
        Ht = dense_htilde(prog, x)
        scale = np.abs(H).max()
        if family == "identity":
            # H_jj comes from one real FFT round trip
            np.testing.assert_allclose(Ht, H, rtol=1e-15, atol=0)
        i, j = prog.couplings
        c = H[i, j]
        np.testing.assert_allclose(Ht[i, j], c, rtol=0, atol=1e-14 * scale)
        assert c.min() >= -1e-14 * scale
        row_sum = np.bincount(prog.couplings.ravel(), np.tile(c, 2), minlength=64)
        np.testing.assert_allclose(np.diag(Ht)[:64], np.maximum(np.diag(H)[:64], row_sum),
                                   rtol=1e-12, atol=1e-14 * scale)
        off = np.abs(Ht - np.diag(np.diag(Ht))).sum(axis=1)
        assert np.all(np.diag(Ht) >= off - 1e-14 * scale)
        # the couplings are the TV's pixel pairs, each once
        L = inst.tv.matrix
        np.testing.assert_array_equal(
            sp.csr_matrix((np.ones(prog.couplings.shape[1]), prog.couplings),
                          shape=(64, 64)).toarray(),
            np.triu(abs(L.T @ L).toarray() > 0, 1))
        assert not np.any(Ht[64:])

    def test_intensity_budget_constraint(self):
        inst = make_poisson()
        prog = build_poisson_tv(inst)
        assert prog.b[0] == pytest.approx(inst.intensity_budget)
        row = prog.A[0].toarray().ravel()
        np.testing.assert_array_equal(row[:64], 1.0)
        np.testing.assert_array_equal(row[64:], 0.0)

    def test_negative_counts_rejected(self):
        op = BccbOperator(BlurKernel("identity", (2, 2)))
        with pytest.raises(ValueError):
            PoissonTvInstance(op, np.array([1.0, -1.0, 0.0, 2.0]),
                              np.ones(4), 1e-2)

    def test_negative_lambda_rejected(self):
        for lam in (-0.01, np.inf, np.nan):
            with pytest.raises(ValueError, match="non-negative and finite"):
                make_poisson(lam=lam)
        assert make_poisson(lam=0.0).lam == 0.0


class TestLogistic:
    def test_loss_stable_at_extremes(self):
        D = np.array([[1000.0], [-1000.0]])
        g = np.array([1.0, -1.0])
        assert logistic_loss(D, g, np.array([1.0])) == pytest.approx(0.0)
        assert np.isfinite(logistic_loss(D, g, np.array([-1.0])))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        D = rng.standard_normal((30, 6))
        g = rng.choice([-1.0, 1.0], size=30)
        w = rng.standard_normal(6)
        grad, _ = logistic_oracle(D, g, w)
        fd = finite_diff_grad(lambda v: logistic_loss(D, g, v), w)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_bias_column(self):
        inst = LogisticInstance(np.ones((3, 2)), np.array([1.0, -1.0, 1.0]),
                                tau=0.1)
        assert inst.design().shape == (3, 3)
        np.testing.assert_array_equal(inst.design()[:, -1], 1.0)

    @pytest.mark.parametrize("tau", [0.0, -0.1, np.inf, np.nan])
    def test_rejects_a_weight_not_positive_and_finite(self, tau):
        with pytest.raises(ValueError, match="positive and finite"):
            LogisticInstance(np.ones((3, 2)), np.array([1.0, -1.0, 1.0]), tau=tau)

    def test_replaced_instance_keeps_the_right_design(self):
        rng = np.random.default_rng(16)
        inst = LogisticInstance(rng.standard_normal((8, 3)),
                                rng.choice([-1.0, 1.0], size=8), tau=0.1)
        retau = dataclasses.replace(inst, tau=0.3)
        np.testing.assert_array_equal(retau.design(), inst.design())
        w = rng.standard_normal(inst.design().shape[1])
        assert retau.original_objective(w) == pytest.approx(
            inst.original_objective(w) + 0.2 * np.abs(w).sum())
        data = rng.standard_normal((5, 3))
        moved = dataclasses.replace(inst, data=data, labels=np.ones(5))
        np.testing.assert_array_equal(moved.design(),
                                      np.hstack([data, np.ones((5, 1))]))

    def test_split_program_structure(self):
        rng = np.random.default_rng(13)
        inst = LogisticInstance(rng.standard_normal((20, 4)),
                                rng.choice([-1.0, 1.0], size=20), tau=0.05)
        prog = build_logistic_l1(inst)
        s = 5  # 4 features + bias
        assert prog.n == 3 * s and prog.m == s
        w = rng.standard_normal(s)
        x = np.concatenate([w, np.maximum(w, 0), np.maximum(-w, 0)])
        np.testing.assert_allclose(prog.A @ x, prog.b, atol=1e-14)
        assert prog.objective(x) == pytest.approx(inst.original_objective(w))

    def test_htilde_is_the_dense_diagonal(self):
        rng = np.random.default_rng(14)
        inst = LogisticInstance(rng.standard_normal((15, 3)),
                                rng.choice([-1.0, 1.0], size=15), tau=0.05)
        prog = build_logistic_l1(inst)
        x = rng.standard_normal(prog.n)
        Ht = dense_htilde(prog, x)
        np.testing.assert_array_equal(Ht, np.diag(np.diag(Ht)))  # no couplings
        np.testing.assert_allclose(np.diag(Ht), np.diag(dense_hessian(prog, x)),
                                   rtol=1e-10, atol=1e-12)

    def test_lambda_max_is_gradient_norm_at_zero(self):
        rng = np.random.default_rng(15)
        inst = LogisticInstance(rng.standard_normal((25, 4)),
                                rng.choice([-1.0, 1.0], size=25), tau=0.05)
        D = inst.design()
        grad0, _ = logistic_oracle(D, inst.labels, np.zeros(D.shape[1]))
        assert inst.lambda_max() == np.max(np.abs(grad0))


@pytest.mark.parametrize("family", ["poisson", "logistic"])
def test_declared_pairs_are_slack_pairs(family):
    """The pairs contract of a program without Q: each member's column holds
    one entry of A, the two in the same row and exact negatives, and the
    Hessian vanishes on pair coordinates, so the MINRES path eliminates them.
    The split builder's part: the pairs are x[k:] after w = x[:k], where the
    gradient is the l1 weight and the Hessian block ends: H and H~ are zero."""
    rng = np.random.default_rng(17)
    if family == "poisson":
        inst = make_poisson(size=4)
        prog, k, weight = build_poisson_tv(inst), inst.blur.cols, inst.lam
    else:
        inst = LogisticInstance(rng.standard_normal((20, 4)),
                                rng.choice([-1.0, 1.0], size=20), tau=0.05)
        prog, k, weight = build_logistic_l1(inst), 5, inst.tau
    p, q = prog.pairs
    np.testing.assert_array_equal(np.sort(prog.pairs, axis=None), np.arange(k, prog.n))
    assert p.size == (prog.m - 1 if family == "poisson" else prog.m)
    A = prog.A.tocsc()
    assert np.all(np.diff(A.indptr)[prog.pairs] == 1)
    rows = A.indices[A.indptr[prog.pairs]]
    np.testing.assert_array_equal(rows[0], rows[1])
    np.testing.assert_array_equal(A[:, p].toarray(), -A[:, q].toarray())
    x = rng.uniform(1.0, 5.0, size=prog.n)
    diag, _ = split_htilde(prog, prog.hess_action(x)[1])
    assert diag.size == k <= prog.pairs.min()  # the Hessian block ends before the pairs
    H = dense_hessian(prog, x)
    assert not np.any(H[prog.pairs]) and not np.any(H[:, prog.pairs])
    assert np.all(prog.gradient(x)[prog.pairs] == weight)
    assert not np.any(dense_htilde(prog, x)[prog.pairs])
    np.testing.assert_array_equal(prog.extract(x), x[:k])

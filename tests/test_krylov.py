import numpy as np
import pytest
import scipy.sparse as sp

from sparseipm.krylov import (CholeskyFactor, NotPositiveDefiniteError,
                              minres, pcg)


def random_spd(n, rng, cond=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return Q @ np.diag(eigs) @ Q.T


class TestCholesky:
    def test_dense_solve(self):
        rng = np.random.default_rng(0)
        M = random_spd(12, rng)
        b = rng.standard_normal(12)
        np.testing.assert_allclose(CholeskyFactor(M).solve(b),
                                   np.linalg.solve(M, b), rtol=1e-10)

    def test_sparse_solve(self):
        rng = np.random.default_rng(1)
        n = 30
        T = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n)).tocsc()
        b = rng.standard_normal(n)
        x = CholeskyFactor(T).solve(b)
        np.testing.assert_allclose(T @ x, b, atol=1e-10)

    def test_dense_indefinite_raises_with_pivot(self):
        M = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            CholeskyFactor(M)
        assert err.value.pivot == 1

    def test_sparse_indefinite_raises(self):
        M = sp.diags([1.0, 1.0, -3.0]).tocsc()
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(M)

    def test_factor_reuse(self):
        rng = np.random.default_rng(2)
        M = random_spd(8, rng)
        factor = CholeskyFactor(M)
        for _ in range(3):
            b = rng.standard_normal(8)
            np.testing.assert_allclose(M @ factor.solve(b), b, atol=1e-9)


class TestPcg:
    def test_solves_spd(self):
        rng = np.random.default_rng(3)
        M = random_spd(25, rng, cond=100.0)
        b = rng.standard_normal(25)
        out = pcg(M, b, tol=1e-10, maxit=500)
        assert out.converged
        np.testing.assert_allclose(out.solution, np.linalg.solve(M, b),
                                   rtol=1e-6)

    def test_preconditioner_reduces_iterations(self):
        rng = np.random.default_rng(4)
        d = np.geomspace(1.0, 1e6, 40)
        M = np.diag(d)
        b = rng.standard_normal(40)
        plain = pcg(M, b, tol=1e-8, maxit=10000)
        precond = pcg(M, b, precond=lambda v: v / d, tol=1e-8, maxit=10000)
        assert precond.iterations < plain.iterations
        assert precond.iterations <= 3  # exact preconditioner

    def test_zero_rhs(self):
        out = pcg(np.eye(4), np.zeros(4))
        assert out.converged and out.iterations == 0

    def test_indefinite_breakdown(self):
        M = np.diag([1.0, -1.0])
        out = pcg(M, np.array([0.0, 1.0]), maxit=10)
        assert not out.converged
        assert out.breakdown_reason == "indefinite-matrix"

    def test_matvec_callable(self):
        rng = np.random.default_rng(5)
        M = random_spd(10, rng)
        b = rng.standard_normal(10)
        out = pcg(lambda v: M @ v, b, tol=1e-10, maxit=200)
        assert out.converged

    def test_residual_history_monotone_tail(self):
        rng = np.random.default_rng(6)
        M = random_spd(15, rng)
        out = pcg(M, rng.standard_normal(15), tol=1e-12, maxit=300)
        assert out.residual_history[0] == 1.0
        assert out.residual_history[-1] <= 1e-12


class TestMinres:
    def test_solves_indefinite_saddle(self):
        rng = np.random.default_rng(7)
        H = random_spd(10, rng)
        A = rng.standard_normal((4, 10))
        K = np.block([[-H, A.T], [A, 1e-2 * np.eye(4)]])
        b = rng.standard_normal(14)
        out = minres(K, b, tol=1e-10, maxit=200)
        assert out.converged
        np.testing.assert_allclose(K @ out.solution, b, atol=1e-7)

    def test_preconditioned(self):
        rng = np.random.default_rng(8)
        H = np.diag(rng.uniform(1.0, 50.0, size=12))
        A = rng.standard_normal((5, 12))
        delta = 0.1
        K = np.block([[-H, A.T], [A, delta * np.eye(5)]])
        S = A @ np.linalg.solve(H, A.T) + delta * np.eye(5)
        P = np.block([[H, np.zeros((12, 5))], [np.zeros((5, 12)), S]])
        Pinv = np.linalg.inv(P)
        b = rng.standard_normal(17)
        out = minres(K, b, precond=lambda v: Pinv @ v, tol=1e-10, maxit=100)
        # block-diagonal preconditioning clusters the spectrum: few iterations
        assert out.converged
        assert out.iterations < 17  # well under the dimension

    def test_agrees_with_dense_solve(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((9, 9))
        M = M + M.T
        b = rng.standard_normal(9)
        out = minres(M, b, tol=1e-12, maxit=500)
        np.testing.assert_allclose(out.solution, np.linalg.solve(M, b),
                                   rtol=1e-6, atol=1e-8)

    def test_zero_rhs(self):
        out = minres(np.eye(3), np.zeros(3))
        assert out.converged and out.iterations == 0

    def test_non_spd_preconditioner_flagged(self):
        M = np.diag([2.0, 3.0])
        out = minres(M, np.array([1.0, 0.5]),
                     precond=lambda v: np.array([-v[0], v[1]]), maxit=10)
        assert out.breakdown_reason == "non-spd-preconditioner"

    def test_maxit_respected(self):
        rng = np.random.default_rng(10)
        M = random_spd(50, rng, cond=1e8)
        out = minres(M, rng.standard_normal(50), tol=1e-16, maxit=5)
        assert out.iterations == 5
        assert not out.converged

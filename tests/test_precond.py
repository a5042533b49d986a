import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sparseipm import precond
from sparseipm.ippmm import NormalEquations, SolverOptions, initial_state
from sparseipm.krylov import BorderedBand, minres, pcg
from sparseipm.precond import (aug_spectral_report, augmented_matrix,
                               build_aug_block_diag_precond,
                               build_fmri_normal_precond,
                               identity_preconditioner,
                               normal_equations_matrix, spectral_check)
from sparseipm.problems import build_poisson_tv, quadratic_program
from test_krylov import reference_minres


def random_fused_lasso_layout(seed, s=4, q=9, grid=(3, 3)):
    """A = [[-I, D, -D, 0, 0], [0, L, -L, -I, I]] like the least-squares split."""
    from sparseipm.linops import make_tv_operator
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((s, q))
    L = make_tv_operator(grid).matrix
    ell = L.shape[0]
    A = sp.bmat([
        [-sp.eye(s), D, -D, None, None],
        [None, L, -L, -sp.eye(ell), sp.eye(ell)],
    ], format="csr")
    n = s + 2 * q + 2 * ell
    g = rng.uniform(0.5, 5.0, size=n)
    return A, g, s, ell, D


def fmri_block_precond(g, A, split, delta, q, at_bound=()):
    """The fmri-block preconditioner of ``random_fused_lasso_layout``, built
    by ``ippmm.NormalEquations`` on the program over x = [r; w+; w-; d+; d-]
    with its (w+, w-) and (d+, d-) pairs and no Hessian, at a point where
    G = g (x = 1, z = g, rho = 0) but on the variables ``at_bound``, which
    sit at x = 1e-6 with z = 1e6 (G = 1e12). The data rows border its band,
    and so does a TV row whose (d+, d-) pair sits at its bound at a small
    delta. Returns the preconditioner and the system."""
    ell = A.shape[0] - split
    n = A.shape[1]
    w, d = split + np.arange(q), split + 2 * q + np.arange(ell)
    prog = quadratic_program(sp.csr_matrix((n, n)), np.zeros(n), A, np.zeros(A.shape[0]),
                             pairs=np.array([np.r_[w, d], np.r_[w + q, d + ell]]))
    st = initial_state(prog, SolverOptions())
    st.x, st.z, st.rho, st.delta = np.ones(n), g.copy(), 0.0, delta
    st.x[list(at_bound)], st.z[list(at_bound)] = 1e-6, 1e6
    system = NormalEquations(prog, SolverOptions(linear_solver="pcg-normal"))
    system.factor(st)
    return build_fmri_normal_precond(system._apply_inverse), system


def aug_block_matrix(htilde, A, delta):
    """The aug-block preconditioner as a matrix: blockdiag(H~, A H~^-1 A' + delta I)."""
    S = A @ sp.diags(1.0 / htilde) @ A.T + delta * sp.eye(A.shape[0])
    return scipy.linalg.block_diag(np.diag(htilde), S.toarray())


def aug_block_precond(d, A_B, delta, A_R=None, w=()):
    """The aug-block preconditioner of P = diag(d) + A_R' diag(w) A_R and the
    rows A_B, applied from a factored ``BorderedBand`` to vectors in the
    order of d; no A_R means P is diagonal."""
    if A_R is None:
        A_R = sp.csr_matrix((0, d.size))
    band = BorderedBand(None, sp.csr_matrix(A_R), sp.csr_matrix(A_B))
    band.factor(d[band.order], np.asarray(w, dtype=float), delta)
    apply = build_aug_block_diag_precond(band).apply_inverse
    order = np.concatenate([band.order, np.arange(d.size, d.size + A_B.shape[0])])

    def apply_inverse(r):
        out = np.empty_like(r)
        out[order] = apply(r[order])
        return out

    return apply_inverse


class TestFmriNormalPrecond:
    def test_apply_matches_block_inverse(self):
        A, g, s, ell, D = random_fused_lasso_layout(0)
        q = D.shape[1]
        r = np.random.default_rng(1).standard_normal(s + ell)
        # every TV row eliminated, then every third one bordering K too: its
        # (d+, d-) pair at its bound leaves E ≈ delta = 1e-8
        third = s + 2 * q + np.arange(0, ell, 3)
        for delta, at_bound in [(1e-3, []), (1e-8, []), (1e-8, np.r_[third, third + ell])]:
            P, system = fmri_block_precond(g, A, s, delta, q, at_bound)
            assert system.border.size == s + len(at_bound) // 2
            G = g.copy()
            G[at_bound] = 1e12
            dense = normal_equations_matrix(G, A, delta)
            np.testing.assert_allclose(P.apply_inverse(r),
                                       np.linalg.solve(dense, r), rtol=1e-9,
                                       atol=1e-10)

    def test_pcg_converges_fast_with_block_precond(self):
        A, g, s, ell, D = random_fused_lasso_layout(3)
        delta = 1e-3
        M = normal_equations_matrix(g, A, delta)
        b = np.random.default_rng(4).standard_normal(s + ell)
        P, _ = fmri_block_precond(g, A, s, delta, D.shape[1])
        blocked = pcg(M.__matmul__, b, precond=P.apply_inverse, tol=1e-8, maxit=2000)
        assert blocked.converged and blocked.iterations <= 2


class TestAugBlockDiagPrecond:
    def test_apply_matches_dense_inverse(self):
        A, g, s, ell, _ = random_fused_lasso_layout(6)
        htilde = g + 0.5
        P = aug_block_precond(htilde, A, 1e-3)
        dense = aug_block_matrix(htilde, A, 1e-3)
        r = np.random.default_rng(7).standard_normal(dense.shape[0])
        np.testing.assert_allclose(P(r),
                                   np.linalg.solve(dense, r), rtol=1e-9,
                                   atol=1e-10)

    def test_rejects_nonpositive_diagonal(self):
        # the band factor breaks down on the negative pivot
        A, g, _, _, _ = random_fused_lasso_layout(8)
        g[0] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            aug_block_precond(g, A, 1e-3)

    @staticmethod
    def poisson_layout():
        """The diagonal d, the rows A_R with weights w = 1/E and the row A_B
        of a small Poisson program with its slack pairs and their rows
        eliminated, and P = diag(d) + A_R' E^-1 A_R dense: P is a 5-point
        pixel matrix, and A_B is the intensity-budget row, dense over the
        pixels."""
        from test_problems import make_poisson
        prog = build_poisson_tv(make_poisson(size=6))
        pixels = 36
        rng = np.random.default_rng(13)
        A_R = prog.A[1:, :pixels]
        E = rng.uniform(0.1, 10.0, size=A_R.shape[0])
        d = rng.uniform(0.1, 10.0, size=pixels)
        P = np.diag(d) + (A_R.T @ sp.diags(1.0 / E) @ A_R).toarray()
        return d, A_R, 1.0 / E, prog.A[:1, :pixels], P

    @pytest.mark.parametrize("delta", [1.0, 1e-8])
    def test_eliminated_rows_match_dense_inverse(self, delta):
        d, A_R, w, A, P = self.poisson_layout()
        pre = aug_block_precond(d, A, delta, A_R, w)
        schur = A @ np.linalg.solve(P, A.T.toarray()) + delta
        r = np.random.default_rng(14).standard_normal(P.shape[0] + 1)
        expected = np.linalg.solve(scipy.linalg.block_diag(P, schur), r)
        err = np.linalg.norm(pre(r) - expected)
        assert err <= 1e-10 * np.linalg.norm(expected)

    def test_raises_on_indefinite_schur_block(self):
        # P is positive definite and delta + A_B P^-1 A_B' is not, so the
        # border factor of the budget row is the factor that must fail
        d, A_R, w, A, P = self.poisson_layout()
        budget = (A @ np.linalg.solve(P, A.T.toarray())).item()
        assert budget > 0
        with pytest.raises(np.linalg.LinAlgError):
            aug_block_precond(d, A, -2.0 * budget, A_R, w)

    def test_minres_with_precond_converges(self):
        # MINRES on the split operator of a band whose P = H is the (1,1)
        # block exactly, so Δ = 0, runs the preconditioned iterates
        A, g, s, ell, _ = random_fused_lasso_layout(9)
        delta = 1e-3
        H = np.diag(g)
        K = augmented_matrix(H, A, delta)
        P = aug_block_precond(g, A, delta)
        b = np.random.default_rng(10).standard_normal(K.shape[0])
        band = BorderedBand(None, sp.csr_matrix((0, g.size)), sp.csr_matrix(A))
        band.factor(g[band.order], np.zeros(0), delta)
        band.split()
        out = minres(lambda v: band.split_apply(v, np.zeros_like),
                     band.split_rhs(b[:g.size][band.order], b[g.size:]), tol=1e-8, maxit=100)
        assert out.converged
        xu, y = band.unsplit(out.solution)
        x = np.empty(K.shape[0])
        x[band.order], x[g.size:] = xu, y
        np.testing.assert_allclose(K @ x, b, atol=1e-5)
        expected, it, _ = reference_minres(K, b, precond=P, tol=1e-8, maxit=100)
        np.testing.assert_allclose(x, expected, rtol=1e-9, atol=1e-9)
        assert abs(out.iterations - it) <= 1


class TestSpectralCheck:
    def test_identity_pair_all_unit(self):
        rep = spectral_check(np.eye(5), np.eye(5))
        assert rep.unit_count == 5

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(precond, "DENSE_MAX", 2)
        with pytest.raises(ValueError):
            spectral_check(np.eye(3), np.eye(3))

    def test_fmri_interval_bound(self):
        # eigenvalues of the block-preconditioned normal matrix in (chi, 2)
        from sparseipm.precond import fmri_spectral_report
        for seed in range(5):
            A, g, s, ell, D = random_fused_lasso_layout(seed, s=3 + seed)
            rho, delta = 1e-4, 1e-4
            rep = fmri_spectral_report(g, A, s // 1, rho, delta)
            assert rep.chi > 0
            assert rep.eigenvalues.min() > rep.chi - 1e-10
            assert rep.eigenvalues.max() < 2.0 + 1e-10
            rankD = np.linalg.matrix_rank(D)
            m = rep.eigenvalues.size
            # unit eigenvalue census from the theorem's lower bound
            assert rep.unit_count >= m - 2 * rankD - 1  # loose structural floor

    def test_aug_interval_bound_diag_choice(self):
        rng = np.random.default_rng(11)
        n, m = 12, 5
        B = rng.standard_normal((n, n))
        H = B @ B.T + 0.1 * np.eye(n)
        A = rng.standard_normal((m, n))
        htilde = np.diag(H).copy()
        rep = aug_spectral_report(H, A, htilde, delta=1e-3)
        tol = 1e-8
        assert rep.alpha_h <= 1.0 + tol <= rep.beta_h + 2 * tol
        neg = rep.eigenvalues[rep.eigenvalues < 0]
        pos = rep.eigenvalues[rep.eigenvalues > 0]
        assert np.all(neg >= -rep.beta_h - 1.0 - tol)
        assert np.all(neg <= -rep.alpha_h + tol)
        assert np.all(pos >= 1.0 / (1.0 + rep.beta_h) - tol)
        assert np.all(pos <= 1.0 + tol)

    def test_exact_diagonal_gives_unit_cluster(self):
        # H already diagonal: H~ = H makes alpha = beta = 1 and the positive
        # eigenvalues collapse onto {1} and [1/2, 1]
        rng = np.random.default_rng(12)
        n, m = 10, 4
        h = rng.uniform(0.5, 3.0, size=n)
        A = rng.standard_normal((m, n))
        rep = aug_spectral_report(np.diag(h), A, h, delta=1e-3)
        assert rep.alpha_h == pytest.approx(1.0, abs=1e-10)
        assert rep.beta_h == pytest.approx(1.0, abs=1e-10)
        pos = rep.eigenvalues[rep.eigenvalues > 0]
        assert np.all(pos >= 0.5 - 1e-10)


def test_identity_preconditioner_roundtrip():
    P = identity_preconditioner()
    v = np.arange(4.0)
    np.testing.assert_array_equal(P.apply_inverse(v), v)
    # its inverse, applied to each unit vector, assembles the identity
    dense = np.column_stack([P.apply_inverse(e) for e in np.eye(4)])
    np.testing.assert_array_equal(dense, np.eye(4))

import numpy as np
import pytest

from sparseipm.metrics import (UndefinedMetricError, corrected_overlap,
                               count_transactions, image_scores, mssim,
                               portfolio_ratios, threshold_solution)


class TestThresholdSolution:
    def test_small_tail_removed(self):
        w = np.array([1.0, 1e-6, 1e-6])
        out = threshold_solution(w, fraction=1e-4)
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    def test_large_entries_survive(self):
        w = np.array([1.0, 0.5, -0.25])
        np.testing.assert_array_equal(threshold_solution(w, fraction=1e-4), w)

    def test_removed_mass_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.standard_normal(50) * rng.choice([0.0, 1.0], size=50)
            w[0] = 1.0  # keep the vector nonzero
            frac = 10.0 ** rng.uniform(-6, -1)
            out = threshold_solution(w, fraction=frac)
            removed = np.abs(w - out).sum()
            assert removed <= frac * np.abs(w).sum() + 1e-15

    def test_nonpositive_fraction_is_identity(self):
        w = np.array([2.0, -3.0])
        out = threshold_solution(w, fraction=0.0)
        np.testing.assert_array_equal(out, w)
        assert out is not w

    def test_zero_vector_returned_as_copy(self):
        w = np.zeros(3)
        out = threshold_solution(w)
        np.testing.assert_array_equal(out, w)
        assert out is not w


class TestCountTransactions:
    def test_hand_example(self):
        # two assets, three periods: asset 1 trades twice, asset 2 once
        w = np.array([[0.5, 0.5],
                      [0.2, 0.5],
                      [0.6, 0.1]]).ravel()
        assert count_transactions(w, 3, eps=1e-4) == 3

    def test_static_portfolio(self):
        w = np.tile([0.3, 0.7], 4)
        assert count_transactions(w, 4, eps=1e-4) == 0

    def test_below_tolerance_ignored(self):
        w = np.array([0.5, 0.5 + 1e-6])
        assert count_transactions(w, 2, eps=1e-4) == 0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            count_transactions(np.ones(4), 2, eps=0.0)


class TestPortfolioRatios:
    def test_identical_portfolios_all_ones(self):
        w = np.array([0.5, 0.5, 0.4, 0.6])
        C = np.eye(4)
        assert portfolio_ratios(w, w, C, 2) == (1.0, 1.0, 1.0)

    def test_holding_ratio_counts_positive_entries(self):
        # 480 naive positions versus 72 optimal ones
        w_opt = np.zeros(480)
        w_opt[:72] = 1.0 / 72
        w_naive = np.full(480, 1.0 / 480)
        C = np.eye(480)
        _, ratio_h, _ = portfolio_ratios(w_opt, w_naive, C, 1)
        assert ratio_h == pytest.approx(480.0 / 72.0)

    def test_risk_ratio_hand_value(self):
        C = np.diag([1.0, 4.0])
        w_opt = np.array([1.0, 0.0])
        w_naive = np.array([0.5, 0.5])
        ratio, _, _ = portfolio_ratios(w_opt, w_naive, C, 1)
        # (0.25 + 1.0) / 1.0
        assert ratio == pytest.approx(1.25)

    def test_risk_ratio_scale_invariant(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((6, 3))
        C = B @ B.T + np.eye(6)
        w_opt = rng.uniform(0.1, 1.0, 6)
        w_naive = rng.uniform(0.1, 1.0, 6)
        r1, _, _ = portfolio_ratios(w_opt, w_naive, C, 2)
        r2, _, _ = portfolio_ratios(w_opt, w_naive, 10.0 * C, 2)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_no_trades_on_either_side(self):
        w = np.tile([0.5, 0.5], 3)
        _, _, ratio_t = portfolio_ratios(w, w, np.eye(6), 3)
        assert ratio_t == 1.0

    def test_empty_optimal_rejected(self):
        with pytest.raises(UndefinedMetricError):
            portfolio_ratios(np.zeros(2), np.ones(2), np.eye(2), 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            portfolio_ratios(np.ones(2), np.ones(3), np.eye(2), 1)


class TestCorrectedOverlap:
    def test_hand_value(self):
        # |Zi| = |Zj| = 10, intersection 9, q = 100:
        # (9 - 100 * 0.1 * 0.1) / 10 = 0.8
        wi = np.zeros(100)
        wj = np.zeros(100)
        wi[:10] = 1.0
        wj[1:11] = 1.0
        assert corrected_overlap(wi, wj, 100) == pytest.approx(0.8)

    def test_identical_dense_supports_give_small_score(self):
        # full supports overlap completely, but the expected overlap is also
        # full, so the corrected score vanishes
        w = np.ones(20)
        assert corrected_overlap(w, w, 20) == pytest.approx(0.0)

    def test_disjoint_supports_negative(self):
        wi = np.array([1.0, 1.0, 0.0, 0.0])
        wj = np.array([0.0, 0.0, 1.0, 1.0])
        assert corrected_overlap(wi, wj, 4) < 0

    def test_empty_support_rejected(self):
        with pytest.raises(UndefinedMetricError):
            corrected_overlap(np.zeros(4), np.ones(4), 4)


class TestMssim:
    def test_identical_images_score_one(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, size=(32, 32))
        assert mssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        # symmetric for images of one dynamic range (R is the reference's)
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 255, size=(24, 24))
        b = a + rng.normal(0, 10, size=(24, 24))
        b = a.min() + (b - b.min()) * (np.ptp(a) / np.ptp(b))
        assert mssim(a, b) == pytest.approx(mssim(b, a), abs=1e-12)

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 255, size=(20, 20))
        b = rng.uniform(0, 255, size=(20, 20))
        assert mssim(a, b) <= 1.0 + 1e-12

    def test_noise_lowers_score(self):
        rng = np.random.default_rng(6)
        ref = np.kron(rng.uniform(50, 200, size=(4, 4)), np.ones((8, 8)))
        noisy = ref + rng.normal(0, 25, size=ref.shape)
        assert mssim(noisy, ref) < mssim(ref, ref)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mssim(np.ones((4, 4)), np.ones((4, 5)))


class TestImageScores:
    def test_exact_match(self):
        img = np.full((16, 16), 100.0)
        img[4:8, 4:8] = 255.0
        rmse, psnr, ms = image_scores(img, img)
        assert rmse == 0.0
        assert psnr == np.inf
        assert ms == pytest.approx(1.0, abs=1e-12)

    def test_psnr_hand_value(self):
        # constant offset of 2.55 against a peak of 255 gives exactly 40 dB
        ref = np.full((16, 16), 100.0)
        ref[0, 0] = 255.0
        img = ref + 2.55
        rmse, psnr, _ = image_scores(img, ref)
        assert rmse == pytest.approx(2.55)
        assert psnr == pytest.approx(40.0)

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(7)
        ref = rng.uniform(10, 255, size=(16, 16))
        small = ref + rng.normal(0, 1, size=ref.shape)
        large = ref + rng.normal(0, 20, size=ref.shape)
        _, p_small, _ = image_scores(small, ref)
        _, p_large, _ = image_scores(large, ref)
        assert p_small > p_large

    def test_flat_input_needs_shape(self):
        w = np.ones(16)
        with pytest.raises(ValueError):
            image_scores(w, 2 * w)
        rmse, _, _ = image_scores(w, 2 * w, shape=(4, 4))
        assert rmse == pytest.approx(1.0)

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(UndefinedMetricError):
            image_scores(np.ones(4), np.zeros(4))


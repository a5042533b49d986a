"""Evaluation metrics: portfolio ratios, the corrected support overlap,
image-quality scores, and the solution-thresholding rule."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import convolve


class UndefinedMetricError(ValueError):
    """Metric denominator degenerates (e.g. empty optimal portfolio)."""


def threshold_solution(w: np.ndarray, fraction: float = 1e-4) -> np.ndarray:
    """Zero the smallest-magnitude entries whose cumulative absolute sum stays
    within ``fraction`` of the l1 norm; the zero vector comes back as a copy."""
    w = np.asarray(w, dtype=float)
    norm1 = np.abs(w).sum()
    if fraction <= 0:
        return w.copy()
    order = np.argsort(np.abs(w), kind="stable")
    cum = np.cumsum(np.abs(w)[order])
    kill = order[cum <= fraction * norm1]
    out = w.copy()
    out[kill] = 0.0
    return out


def count_transactions(w: np.ndarray, num_periods: int, eps: float) -> int:
    """Number of per-asset weight changes of magnitude >= eps between
    consecutive rebalancing dates."""
    if eps <= 0:
        raise ValueError("transaction tolerance must be positive")
    W = np.asarray(w, dtype=float).reshape(num_periods, -1)
    return int(np.count_nonzero(np.abs(np.diff(W, axis=0)) >= eps))


def portfolio_ratios(w_opt, w_naive, C, num_periods: int, eps: float = 1e-4):
    """Risk, holding-cost and transaction reduction factors of the optimal
    portfolio versus the naive benchmark.

    Active positions are the strictly positive weights; risk is w'Cw with the
    block covariance over all periods.
    """
    w_opt = np.asarray(w_opt, dtype=float)
    w_naive = np.asarray(w_naive, dtype=float)
    if w_opt.shape != w_naive.shape:
        raise ValueError("portfolios must have equal dimensions")
    Cmat = sp.csr_matrix(C)
    risk_opt = float(w_opt @ (Cmat @ w_opt))
    risk_naive = float(w_naive @ (Cmat @ w_naive))
    active_opt = int(np.count_nonzero(w_opt > 0))
    active_naive = int(np.count_nonzero(w_naive > 0))
    t_opt = count_transactions(w_opt, num_periods, eps)
    t_naive = count_transactions(w_naive, num_periods, eps)
    if risk_opt == 0 or active_opt == 0:
        raise UndefinedMetricError("optimal portfolio is empty")
    if t_opt == 0:
        if t_naive:
            raise UndefinedMetricError("optimal portfolio has no transactions")
        ratio_t = 1.0  # neither portfolio trades
    else:
        ratio_t = t_naive / t_opt
    return (risk_naive / risk_opt, active_naive / active_opt, ratio_t)


def corrected_overlap(wi: np.ndarray, wj: np.ndarray, q: int) -> float:
    """Support overlap of two weight vectors corrected by the expected
    overlap E = q * density_i * density_j of random supports."""
    Zi = set(np.flatnonzero(wi).tolist())
    Zj = set(np.flatnonzero(wj).tolist())
    if not Zi or not Zj:
        raise UndefinedMetricError("empty support")
    expected = q * (len(Zi) / q) * (len(Zj) / q)
    return (len(Zi & Zj) - expected) / max(len(Zi), len(Zj))


# ---------------------------------------------------------------------------
# Image quality


def _gaussian_window() -> np.ndarray:
    coords = np.arange(11) - 5.0
    g = np.exp(-coords ** 2 / (2.0 * 1.5 ** 2))
    win = np.outer(g, g)
    return win / win.sum()


def mssim(img: np.ndarray, ref: np.ndarray) -> float:
    """Mean structural similarity with the standard 11x11 Gaussian window
    (sigma = 1.5) and constants C1 = (0.01 R)^2, C2 = (0.03 R)^2, where the
    dynamic range R is that of ``ref`` (1 for a constant ``ref``)."""
    img = np.asarray(img, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if img.shape != ref.shape or img.ndim != 2:
        raise ValueError("expected two equal-shape 2-d images")
    dynamic_range = float(ref.max() - ref.min()) or 1.0
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    win = _gaussian_window()

    def smooth(a):
        return convolve(a, win, mode="nearest")

    mu1, mu2 = smooth(img), smooth(ref)
    mu1sq, mu2sq, mu12 = mu1 * mu1, mu2 * mu2, mu1 * mu2
    s1 = smooth(img * img) - mu1sq
    s2 = smooth(ref * ref) - mu2sq
    s12 = smooth(img * ref) - mu12
    ssim_map = ((2 * mu12 + c1) * (2 * s12 + c2)) \
        / ((mu1sq + mu2sq + c1) * (s1 + s2 + c2))
    return float(ssim_map.mean())


def image_scores(w: np.ndarray, w_ref: np.ndarray, shape=None):
    """(RMSE, PSNR, MSSIM) of a restored image against the reference.

    RMSE = ||w - w_ref|| / sqrt(n); PSNR = 20 log10(max(w_ref) / RMSE), with
    +inf when the images coincide; MSSIM needs 2-d arrays (or ``shape``).
    """
    w = np.asarray(w, dtype=float)
    w_ref = np.asarray(w_ref, dtype=float)
    if w.shape != w_ref.shape:
        raise ValueError("images must have equal dimensions")
    n = w.size
    rmse = float(np.linalg.norm(w - w_ref)) / np.sqrt(n)
    peak = float(w_ref.max())
    if peak <= 0:
        raise UndefinedMetricError("reference image has no positive peak")
    psnr = np.inf if rmse == 0 else 20.0 * np.log10(peak / rmse)
    if w.ndim == 1:
        if shape is None:
            raise ValueError("flat images need an explicit shape for MSSIM")
        w = w.reshape(shape)
        w_ref = w_ref.reshape(shape)
    return rmse, psnr, mssim(w, w_ref)

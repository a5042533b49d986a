"""Problem builders: each application family translated into a smooth convex
program via the split-variable reformulation, plus the objective oracles."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional
import warnings

import numpy as np
import scipy.sparse as sp

from .linops import BccbOperator, make_difference_operator, make_tv_operator


class DomainError(ValueError):
    """Objective oracle evaluated outside its domain."""


@dataclass
class ConvexProgram:
    """min f(x) s.t. A x = b, x_I >= 0, x_F free, with oracle callbacks.

    The sizes ``m, n`` come from ``A``; ``free`` is the complement of
    ``nonneg``. ``hessian_is_diagonal`` is set from ``Q`` on construction:
    true when the explicit Hessian ``Q`` is given and diagonal, which enables
    the normal-equations solver path. ``hess_action(x)`` returns the action
    v -> Hessian(x) v, so that work shared by all products at one point is done
    once per point. ``hess_diag_cheap`` is an optional
    inexpensive diagonal approximation of the f-Hessian used by the
    block-diagonal augmented preconditioner. Each column (x+, x-) of the
    2 x p index array ``pairs`` names a split pair of non-negative
    coordinates whose columns in ``A`` and ``Q`` are exact negatives. Without
    ``Q``, the Hessian of f must vanish on pair coordinates (f is at most
    linear in them). The direct and MINRES paths eliminate each slack pair,
    one whose two columns each hold a single entry of ``A`` in the same row,
    and that row with it; the direct path reduces every other pair to one
    unknown inside its Newton solve.
    """

    A: sp.csr_matrix
    b: np.ndarray
    nonneg: np.ndarray
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hess_action: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    hess_diag: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_diag_cheap: Optional[Callable[[np.ndarray], np.ndarray]] = None
    Q: Optional[sp.csr_matrix] = None
    row_split: Optional[int] = None  # leading dense rows, which border fmri-block's band
    extract: Optional[Callable[[np.ndarray], np.ndarray]] = None  # split x -> original w
    pairs: Optional[np.ndarray] = None  # 2 x p split pairs (x+, x-)

    def __post_init__(self):
        self.m, self.n = self.A.shape
        self.nonneg = np.asarray(self.nonneg, dtype=int)
        if np.any((self.nonneg < 0) | (self.nonneg >= self.n)):
            raise ValueError("nonneg indices must lie in {0..n-1}")
        free = np.ones(self.n, dtype=bool)
        free[self.nonneg] = False
        if np.count_nonzero(free) != self.n - self.nonneg.size:
            raise ValueError("nonneg indices must not repeat")
        self.free = np.flatnonzero(free)
        self.pairs = np.asarray(np.empty((2, 0)) if self.pairs is None else self.pairs,
                                dtype=int)
        if (self.pairs.ndim != 2 or len(self.pairs) != 2
                or np.any((self.pairs < 0) | (self.pairs >= self.n))):
            raise ValueError("pairs must be a 2 x p array of indices in {0..n-1}")
        paired = np.zeros(self.n, dtype=bool)
        paired[self.pairs] = True
        if np.count_nonzero(paired) != self.pairs.size:
            raise ValueError("pair indices must not repeat")
        if np.any(paired & free):
            raise ValueError("pair indices must be non-negative coordinates")
        self.hessian_is_diagonal = (
            self.Q is not None and (self.Q - sp.diags(self.Q.diagonal())).nnz == 0)


def quadratic_program(Q, c, A, b, nonneg=None, **kw) -> ConvexProgram:
    """Build a ConvexProgram for f(x) = 1/2 x'Qx + c'x with explicit Q; every
    coordinate is non-negative unless ``nonneg`` says otherwise."""
    Q = sp.csr_matrix(Q)
    c = np.asarray(c, dtype=float)
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    qdiag = Q.diagonal()
    return ConvexProgram(
        A=A, b=b, nonneg=np.arange(c.size) if nonneg is None else nonneg,
        objective=lambda x: 0.5 * float(x @ (Q @ x)) + float(c @ x),
        gradient=lambda x: Q @ x + c,
        hess_action=lambda x: lambda v: Q @ v,
        hess_diag=(lambda x: qdiag),
        hess_diag_cheap=(lambda x: qdiag),
        Q=Q, **kw,
    )


def split_l1_program(A, b, k, lam, nonneg, value, gradient, hess_action, hess_diag,
                     hess_diag_cheap) -> ConvexProgram:
    """Build a ConvexProgram for f(x) = phi(w) + lam * sum(x[k:]) with
    x = [w; d+; d-] and w = x[:k], from phi's oracles as functions of w; the
    gradient is lam and the Hessian action and diagonals are zero on the pairs."""
    n = A.shape[1]
    zeros = np.zeros(n - k)

    def padded_action(x):
        action = hess_action(x[:k])
        return lambda v: np.concatenate([action(v[:k]), zeros])

    return ConvexProgram(
        A=A, b=b, nonneg=nonneg,
        objective=lambda x: value(x[:k]) + lam * float(np.sum(x[k:])),
        gradient=lambda x: np.concatenate([gradient(x[:k]), np.full(n - k, lam)]),
        hess_action=padded_action,
        hess_diag=lambda x: np.concatenate([hess_diag(x[:k]), zeros]),
        hess_diag_cheap=lambda x: np.concatenate([hess_diag_cheap(x[:k]), zeros]),
        pairs=np.arange(k, n).reshape(2, -1), extract=lambda x: x[:k])


# ---------------------------------------------------------------------------
# Multi-period portfolio


@dataclass
class PortfolioInstance:
    """Multi-period mean-variance model with fused-lasso regularization; the
    block covariance and ``difference`` operator are built once, on construction."""

    covariances: list           # m blocks, each s x s SPD
    returns: list               # m vectors of per-period fractional returns
    xi_init: float
    xi_term: float
    tau1: float
    tau2: float

    @property
    def num_periods(self):
        return len(self.covariances)

    @property
    def num_assets(self):
        return len(self.covariances[0])

    def __post_init__(self):
        if self.num_periods < 2:
            raise ValueError("need at least 2 periods")
        if not (self.tau1 >= 0 and self.tau2 >= 0):  # NaN fails too
            raise ValueError("tau1 and tau2 must be non-negative")
        for j, C in enumerate(self.covariances):
            try:
                np.linalg.cholesky(np.asarray(C))
            except np.linalg.LinAlgError:
                raise ValueError(f"covariance block {j} is not positive definite")
        self._covariance = sp.block_diag(
            [np.asarray(C) for C in self.covariances], format="csr")
        self.difference = make_difference_operator(self.num_periods, self.num_assets)

    def block_covariance(self) -> sp.csr_matrix:
        return self._covariance

    def original_objective(self, w: np.ndarray) -> float:
        return (0.5 * float(w @ (self._covariance @ w)) + self.tau1 * np.abs(w).sum()
                + self.tau2 * np.abs(self.difference.apply(w)).sum())


def budget_constraints(inst: PortfolioInstance) -> tuple:
    """(m+1) x (m*s) self-financing constraint matrix and its right-hand side.

    Row 1 is the initial budget, rows 2..m carry wealth between consecutive
    periods, row m+1 fixes the expected terminal wealth. The right-hand side
    is formed here on each call, since ``xi_term`` may be set after
    construction.
    """
    m, s = inst.num_periods, inst.num_assets
    rows = []
    e = np.ones(s)
    for i in range(m + 1):
        blocks = [np.zeros(s)] * m
        if i < m:
            blocks[i] = e
        if i >= 1:
            grow = e + np.asarray(inst.returns[i - 1], dtype=float)
            blocks[i - 1] = (blocks[i - 1] - grow) if i < m else grow
        rows.append(np.concatenate(blocks))
    bbar = np.zeros(m + 1)
    bbar[0] = inst.xi_init
    bbar[m] = inst.xi_term
    return sp.csr_matrix(np.array(rows)), bbar


def build_portfolio_qp(inst: PortfolioInstance) -> ConvexProgram:
    """Split-variable QP with x = [w+; w-; d+; d-]."""
    m, s = inst.num_periods, inst.num_assets
    n = m * s
    l = (m - 1) * s
    C = inst.block_covariance()
    L = inst.difference.matrix
    Abar, bbar = budget_constraints(inst)

    Q = sp.bmat([
        [C, -C, None, None],
        [-C, C, None, None],
        [None, None, sp.csr_matrix((l, l)), None],
        [None, None, None, sp.csr_matrix((l, l))],
    ], format="csr")
    A = sp.bmat([
        [Abar, -Abar, None, None],
        [L, -L, -sp.eye(l), sp.eye(l)],
    ], format="csr")
    b = np.concatenate([bbar, np.zeros(l)])
    c = np.concatenate([
        np.full(2 * n, inst.tau1), np.full(2 * l, inst.tau2)])

    pairs = np.array([np.r_[:n, 2 * n:2 * n + l], np.r_[n:2 * n, 2 * n + l:2 * (n + l)]])
    prog = quadratic_program(Q, c, A, b, pairs=pairs)
    prog.extract = lambda x: x[:n] - x[n:2 * n]
    return prog


def naive_portfolio(inst: PortfolioInstance) -> tuple:
    """Equal-weight strategy with compounding wealth; returns (w, terminal)."""
    m, s = inst.num_periods, inst.num_assets
    wealth = inst.xi_init
    w = np.empty(m * s)
    for j in range(m):
        wj = np.full(s, wealth / s)
        w[j * s:(j + 1) * s] = wj
        wealth = float((np.ones(s) + np.asarray(inst.returns[j])) @ wj)
    return w, wealth


# ---------------------------------------------------------------------------
# Fused-lasso least squares (fMRI-type)


@dataclass
class FusedLassoLsInstance:
    """Least-squares classifier with l1 + anisotropic TV regularization; the
    TV operator ``tv`` on ``grid`` is built once, on construction."""

    data: np.ndarray            # s x q, rows are samples
    labels: np.ndarray          # in {-1, 1}
    grid: tuple                 # voxel grid dims; prod(grid) == q
    tau1: float
    tau2: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        s, q = self.data.shape
        if s < 1:
            raise ValueError("need at least 1 sample")
        if int(np.prod(self.grid)) != q:
            raise ValueError("grid does not match number of features")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1/+1")
        if not (self.tau1 >= 0 and self.tau2 >= 0):  # NaN fails too
            raise ValueError("tau1 and tau2 must be non-negative")
        if s > q:
            warnings.warn("more samples than features; model intended for s <= q")
        self.tv = make_tv_operator(self.grid)

    def original_objective(self, w: np.ndarray) -> float:
        s = self.data.shape[0]
        return (0.5 / s * float(np.sum((self.data @ w - self.labels) ** 2))
                + self.tau1 * np.abs(w).sum() + self.tau2 * np.abs(self.tv.apply(w)).sum())


def build_fused_lasso_ls(inst: FusedLassoLsInstance) -> ConvexProgram:
    """Split program with x = [u; w+; w-; d+; d-], u = Dw free; (w+, w-) and
    (d+, d-) are declared pairs."""
    s, q = inst.data.shape
    L = inst.tv.matrix
    l = inst.tv.rows
    D = sp.csr_matrix(inst.data)
    n = s + 2 * q + 2 * l
    A = sp.bmat([
        [-sp.eye(s), D, -D, None, None],
        [None, L, -L, -sp.eye(l), sp.eye(l)],
    ], format="csr")
    b = np.zeros(s + l)
    qdiag = np.concatenate([np.full(s, 1.0 / s), np.zeros(2 * q + 2 * l)])
    Q = sp.diags(qdiag, format="csr")
    c = np.concatenate([
        -inst.labels / s,
        np.full(2 * q, inst.tau1),
        np.full(2 * l, inst.tau2),
    ])
    w, d = s + np.arange(q), s + 2 * q + np.arange(l)
    prog = quadratic_program(Q, c, A, b, nonneg=np.arange(s, n), row_split=s,
                             pairs=np.array([np.r_[w, d], np.r_[w + q, d + l]]))
    prog.extract = lambda x: x[s:s + q] - x[s + q:s + 2 * q]
    # carry the constant ||y||^2/(2s) so values match the unsplit model
    const = float(inst.labels @ inst.labels) / (2.0 * s)
    quad = prog.objective
    prog.objective = lambda x: quad(x) + const
    return prog


# ---------------------------------------------------------------------------
# Poisson image restoration


@dataclass
class PoissonTvInstance:
    """TV-regularized Kullback-Leibler restoration model; the TV operator
    ``tv`` on the blur grid is built once, on construction."""

    blur: BccbOperator
    observed: np.ndarray        # g >= 0
    background: np.ndarray      # a > 0 keeps the logs finite
    lam: float

    def __post_init__(self):
        self.observed = np.asarray(self.observed, dtype=float)
        self.background = np.asarray(self.background, dtype=float)
        if np.any(self.observed < 0):
            raise ValueError("observed counts must be non-negative")
        if np.any(self.background <= 0):
            raise ValueError("background must be strictly positive")
        if not self.lam >= 0:
            raise ValueError("lam must be non-negative")
        self.tv = make_tv_operator(self.blur.grid)

    @property
    def intensity_budget(self) -> float:
        return float(np.sum(self.observed - self.background))

    def original_objective(self, w: np.ndarray) -> float:
        return kl_value(w, self) + self.lam * np.abs(self.tv.apply(w)).sum()


def _intensity(w, inst: PoissonTvInstance) -> np.ndarray:
    """The modelled mean Dw + a, which the KL terms need strictly positive."""
    nu = inst.blur.apply(w) + inst.background
    if np.any(nu <= 0):
        raise DomainError("non-positive intensity Dw + a")
    return nu


def kl_value(w, inst: PoissonTvInstance) -> float:
    """Kullback-Leibler divergence of (Dw + a) from g; terms with g_j = 0
    contribute only (Dw + a)_j."""
    g = inst.observed
    nu = _intensity(w, inst)
    pos = g > 0
    val = float(np.sum(nu - g))
    return val + float(np.sum(g[pos] * np.log(g[pos] / nu[pos])))


def kl_gradient(w, inst: PoissonTvInstance) -> np.ndarray:
    """Gradient D'(1 - g / (Dw + a)) of ``kl_value``."""
    return inst.blur.apply_transpose(1.0 - inst.observed / _intensity(w, inst))


def build_poisson_tv(inst: PoissonTvInstance) -> ConvexProgram:
    """Split program with x = [w; d+; d-], all non-negative."""
    n = inst.blur.cols
    L = inst.tv.matrix
    l = inst.tv.rows
    r = inst.intensity_budget
    if r <= 0:
        raise ValueError("degenerate intensity: sum(g - a) must be positive")
    A = sp.bmat([
        [sp.csr_matrix(np.ones((1, n))), None, None],
        [L, -sp.eye(l), sp.eye(l)],
    ], format="csr")

    def u2(w):
        return inst.observed / _intensity(w, inst) ** 2

    def hess_action(w):
        weights = u2(w)
        return lambda v: inst.blur.apply_transpose(weights * inst.blur.apply(v))

    # diag(D' U^2 D)_j = sum_i u2_i d_ij^2, via the squared-kernel operator
    blur_sq = inst.blur.squared_kernel_operator()
    return split_l1_program(
        A, np.concatenate([[r], np.zeros(l)]), n, inst.lam, np.arange(n + 2 * l),
        value=lambda w: kl_value(w, inst), gradient=lambda w: kl_gradient(w, inst),
        hess_action=hess_action, hess_diag=lambda w: blur_sq.apply_transpose(u2(w)),
        hess_diag_cheap=u2)


# ---------------------------------------------------------------------------
# l1-regularized logistic regression


@dataclass
class LogisticInstance:
    """Binary classification with logistic loss and l1 regularization; the
    design matrix, the data with an all-ones bias column appended, is built
    once, on construction."""

    data: np.ndarray            # n x s, rows are training points
    labels: np.ndarray          # in {-1, 1}
    tau: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1/+1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        self._design = np.hstack([self.data, np.ones((self.data.shape[0], 1))])

    def design(self) -> np.ndarray:
        """Data matrix with the all-ones bias column appended."""
        return self._design

    def original_objective(self, w: np.ndarray) -> float:
        return logistic_loss(self._design, self.labels, w) + self.tau * np.abs(w).sum()

    def lambda_max(self) -> float:
        """Smallest tau at which w = 0 is optimal: the infinity norm of the mean
        loss gradient at w = 0, the bias column included (it is penalized too)."""
        D = self._design
        grad, _ = logistic_oracle(D, self.labels, np.zeros(D.shape[1]))
        return float(np.max(np.abs(grad)))


def logistic_loss(D, g, w) -> float:
    # log(1 + e^-t) = max(-t, 0) + log(1 + e^-|t|), stable for large |t|
    t = g * (D @ w)
    return float(np.mean(np.maximum(-t, 0.0) + np.log1p(np.exp(-np.abs(t)))))


def logistic_oracle(D, g, w):
    """Gradient and Hessian weights of the mean logistic loss."""
    nsamp = D.shape[0]
    t = g * (D @ w)
    p = 1.0 / (1.0 + np.exp(np.clip(t, -500, 500)))  # sigmoid(-t)
    grad = -(D.T @ (g * p)) / nsamp
    hweights = p * (1.0 - p) / nsamp
    return grad, hweights


def build_logistic_l1(inst: LogisticInstance) -> ConvexProgram:
    """Split program with x = [w; d+; d-], w free and w = d+ - d-."""
    D = inst.design()
    D2 = D ** 2
    g = inst.labels
    s = D.shape[1]
    A = sp.hstack([sp.eye(s), -sp.eye(s), sp.eye(s)], format="csr")

    def hess_action(w):
        hw = logistic_oracle(D, g, w)[1]
        return lambda v: D.T @ (hw * (D @ v))

    def hess_diag(w):
        return D2.T @ logistic_oracle(D, g, w)[1]

    return split_l1_program(
        A, np.zeros(s), s, inst.tau, np.arange(s, 3 * s),
        value=lambda w: logistic_loss(D, g, w),
        gradient=lambda w: logistic_oracle(D, g, w)[0],
        hess_action=hess_action, hess_diag=hess_diag, hess_diag_cheap=hess_diag)

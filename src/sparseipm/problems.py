"""Problem builders: each application family translated into a smooth convex
program via the split-variable reformulation, plus the objective oracles."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional
import warnings

import numpy as np
import scipy.sparse as sp

from .linops import BccbOperator, LinearOperator, make_difference_operator, make_tv_operator


class DomainError(ValueError):
    """Objective oracle evaluated outside its domain."""


@dataclass
class ConvexProgram:
    """min f(x) s.t. A x = b, x_I >= 0, x_F free, with oracle callbacks.

    ``hessian_is_diagonal`` enables the normal-equations solver path; in that
    case ``hess_diag`` must return the (constant or state-dependent) diagonal.
    ``hess_diag_cheap`` is an optional inexpensive diagonal approximation of
    the f-Hessian used by the block-diagonal augmented preconditioner.
    """

    n: int
    m: int
    A: sp.csr_matrix
    b: np.ndarray
    nonneg: np.ndarray
    free: np.ndarray
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hess_action: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_diag: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_diag_cheap: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian_is_diagonal: bool = False
    Q: Optional[sp.csr_matrix] = None
    c: Optional[np.ndarray] = None
    row_split: Optional[int] = None  # first-block row count for the 2x2 preconditioner
    name: str = ""
    extract: Optional[Callable[[np.ndarray], np.ndarray]] = None  # split x -> original w

    def __post_init__(self):
        self.nonneg = np.asarray(self.nonneg, dtype=int)
        self.free = np.asarray(self.free, dtype=int)
        if np.intersect1d(self.nonneg, self.free).size:
            raise ValueError("nonneg and free index sets overlap")
        if self.nonneg.size + self.free.size != self.n:
            raise ValueError("nonneg and free sets must partition {0..n-1}")


def quadratic_program(Q, c, A, b, nonneg=None, free=None, **kw) -> ConvexProgram:
    """Build a ConvexProgram for f(x) = 1/2 x'Qx + c'x with explicit Q."""
    Q = sp.csr_matrix(Q)
    c = np.asarray(c, dtype=float)
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    n = c.size
    if nonneg is None and free is None:
        nonneg, free = np.arange(n), np.array([], dtype=int)
    elif nonneg is None:
        nonneg = np.setdiff1d(np.arange(n), free)
    elif free is None:
        free = np.setdiff1d(np.arange(n), nonneg)
    qdiag = Q.diagonal()
    is_diag = (Q - sp.diags(qdiag)).nnz == 0
    return ConvexProgram(
        n=n, m=A.shape[0], A=A, b=b, nonneg=nonneg, free=free,
        objective=lambda x: 0.5 * float(x @ (Q @ x)) + float(c @ x),
        gradient=lambda x: Q @ x + c,
        hess_action=lambda x, v: Q @ v,
        hess_diag=(lambda x: qdiag),
        hess_diag_cheap=(lambda x: qdiag),
        hessian_is_diagonal=is_diag,
        Q=Q, c=c, **kw,
    )


# ---------------------------------------------------------------------------
# Multi-period portfolio


@dataclass
class PortfolioInstance:
    """Multi-period mean-variance model with fused-lasso regularization."""

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
        for j, C in enumerate(self.covariances):
            try:
                np.linalg.cholesky(np.asarray(C))
            except np.linalg.LinAlgError:
                raise ValueError(f"covariance block {j} is not positive definite")

    def block_covariance(self) -> sp.csr_matrix:
        return sp.block_diag([np.asarray(C) for C in self.covariances], format="csr")

    def original_objective(self, w: np.ndarray) -> float:
        L = make_difference_operator(self.num_periods, self.num_assets)
        C = self.block_covariance()
        return (0.5 * float(w @ (C @ w)) + self.tau1 * np.abs(w).sum()
                + self.tau2 * np.abs(L.apply(w)).sum())


def budget_matrix(inst: PortfolioInstance) -> sp.csr_matrix:
    """(m+1) x (m*s) self-financing constraint matrix.

    Row 1 is the initial budget, rows 2..m carry wealth between consecutive
    periods, row m+1 fixes the expected terminal wealth.
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
    return sp.csr_matrix(np.array(rows))


def build_portfolio_qp(inst: PortfolioInstance) -> ConvexProgram:
    """Split-variable QP with x = [w+; w-; d+; d-]."""
    m, s = inst.num_periods, inst.num_assets
    n = m * s
    l = (m - 1) * s
    C = inst.block_covariance()
    L = make_difference_operator(m, s).matrix
    Abar = budget_matrix(inst)
    bbar = np.zeros(m + 1)
    bbar[0] = inst.xi_init
    bbar[m] = inst.xi_term

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

    prog = quadratic_program(Q, c, A, b, nonneg=np.arange(2 * (n + l)),
                             free=np.array([], dtype=int),
                             name="portfolio-qp")
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
    """Least-squares classifier with l1 + anisotropic TV regularization."""

    data: np.ndarray            # s x q, rows are samples
    labels: np.ndarray          # in {-1, 1}
    grid: tuple                 # voxel grid dims; prod(grid) == q
    tau1: float
    tau2: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        s, q = self.data.shape
        if int(np.prod(self.grid)) != q:
            raise ValueError("grid does not match number of features")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1/+1")
        if s > q:
            warnings.warn("more samples than features; model intended for s <= q")

    def original_objective(self, w: np.ndarray) -> float:
        L = make_tv_operator(self.grid)
        s = self.data.shape[0]
        return (0.5 / s * float(np.sum((self.data @ w - self.labels) ** 2))
                + self.tau1 * np.abs(w).sum() + self.tau2 * np.abs(L.apply(w)).sum())


def build_fused_lasso_ls(inst: FusedLassoLsInstance) -> ConvexProgram:
    """Split program with x = [u; w+; w-; d+; d-], u = Dw free."""
    s, q = inst.data.shape
    Lop = make_tv_operator(inst.grid)
    L = Lop.matrix
    l = Lop.rows
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
    prog = quadratic_program(Q, c, A, b, free=np.arange(s),
                             nonneg=np.arange(s, n),
                             row_split=s, name="fused-lasso-ls")
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
    """TV-regularized Kullback-Leibler restoration model."""

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

    @property
    def intensity_budget(self) -> float:
        return float(np.sum(self.observed - self.background))

    def original_objective(self, w: np.ndarray) -> float:
        L = make_tv_operator(self.blur.grid)
        val, _ = kl_value_grad(w, self, want_grad=False)
        return val + self.lam * np.abs(L.apply(w)).sum()


def kl_value_grad(w, inst: PoissonTvInstance, want_grad=True):
    """Kullback-Leibler divergence of (Dw + a) from g, and its gradient.

    Terms with g_j = 0 contribute only (Dw + a)_j.
    """
    g = inst.observed
    nu = inst.blur.apply(w) + inst.background
    if np.any(nu <= 0):
        raise DomainError("non-positive intensity Dw + a")
    pos = g > 0
    val = float(np.sum(nu - g))
    val += float(np.sum(g[pos] * np.log(g[pos] / nu[pos])))
    if not want_grad:
        return val, None
    grad = inst.blur.apply_transpose(1.0 - g / nu)
    return val, grad


def build_poisson_tv(inst: PoissonTvInstance) -> ConvexProgram:
    """Split program with x = [w; d+; d-], all non-negative."""
    n = inst.blur.cols
    Lop = make_tv_operator(inst.blur.grid)
    L = Lop.matrix
    l = Lop.rows
    r = inst.intensity_budget
    if r <= 0:
        raise ValueError("degenerate intensity: sum(g - a) must be positive")
    A = sp.bmat([
        [sp.csr_matrix(np.ones((1, n))), None, None],
        [L, -sp.eye(l), sp.eye(l)],
    ], format="csr")
    b = np.concatenate([[r], np.zeros(l)])
    nbar = n + 2 * l
    lam = inst.lam
    blur_sq = inst.blur.squared_kernel_operator()

    def objective(x):
        val, _ = kl_value_grad(x[:n], inst, want_grad=False)
        return val + lam * float(np.sum(x[n:]))

    def gradient(x):
        _, gw = kl_value_grad(x[:n], inst)
        return np.concatenate([gw, np.full(2 * l, lam)])

    def _u2(x):
        nu = inst.blur.apply(x[:n]) + inst.background
        if np.any(nu <= 0):
            raise DomainError("non-positive intensity Dw + a")
        return inst.observed / nu ** 2

    def hess_action(x, v):
        u2 = _u2(x)
        out = np.zeros(nbar)
        out[:n] = inst.blur.apply_transpose(u2 * inst.blur.apply(v[:n]))
        return out

    def hess_diag(x):
        # diag(D' U^2 D)_j = sum_i u2_i d_ij^2, via the squared-kernel operator
        return np.concatenate([blur_sq.apply_transpose(_u2(x)), np.zeros(2 * l)])

    def hess_diag_cheap(x):
        return np.concatenate([_u2(x), np.zeros(2 * l)])

    prog = ConvexProgram(
        n=nbar, m=l + 1, A=A, b=b,
        nonneg=np.arange(nbar), free=np.array([], dtype=int),
        objective=objective, gradient=gradient, hess_action=hess_action,
        hess_diag=hess_diag, hess_diag_cheap=hess_diag_cheap,
        hessian_is_diagonal=False, name="poisson-tv",
    )
    prog.extract = lambda x: x[:n]
    return prog


# ---------------------------------------------------------------------------
# l1-regularized logistic regression


@dataclass
class LogisticInstance:
    """Binary classification with logistic loss and l1 regularization."""

    data: np.ndarray            # n x s, rows are training points
    labels: np.ndarray          # in {-1, 1}
    tau: float
    add_bias: bool = True

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1/+1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def design(self) -> np.ndarray:
        """Data matrix with the all-ones bias column appended when enabled."""
        if self.add_bias:
            return np.hstack([self.data, np.ones((self.data.shape[0], 1))])
        return self.data

    def original_objective(self, w: np.ndarray) -> float:
        return logistic_loss(self.design(), self.labels, w) + self.tau * np.abs(w).sum()

    def lambda_max(self) -> float:
        """Smallest tau at which w = 0 is optimal: the infinity norm of the mean
        loss gradient at w = 0, the bias column included (it is penalized too)."""
        D = self.design()
        _, grad, _ = logistic_oracle(D, self.labels, np.zeros(D.shape[1]))
        return float(np.max(np.abs(grad)))


def logistic_loss(D, g, w) -> float:
    # log(1 + e^-t) = max(-t, 0) + log(1 + e^-|t|), stable for large |t|
    t = g * (D @ w)
    return float(np.mean(np.maximum(-t, 0.0) + np.log1p(np.exp(-np.abs(t)))))


def logistic_oracle(D, g, w):
    """Value, gradient and Hessian weights of the mean logistic loss."""
    nsamp = D.shape[0]
    t = g * (D @ w)
    val = float(np.mean(np.maximum(-t, 0.0) + np.log1p(np.exp(-np.abs(t)))))
    p = 1.0 / (1.0 + np.exp(np.clip(t, -500, 500)))  # sigmoid(-t)
    grad = -(D.T @ (g * p)) / nsamp
    hweights = p * (1.0 - p) / nsamp
    return val, grad, hweights


def build_logistic_l1(inst: LogisticInstance) -> ConvexProgram:
    """Split program with x = [w; d+; d-], w free and w = d+ - d-."""
    D = inst.design()
    g = inst.labels
    s = D.shape[1]
    nbar = 3 * s
    A = sp.hstack([sp.eye(s), -sp.eye(s), sp.eye(s)], format="csr")
    b = np.zeros(s)
    tau = inst.tau

    def objective(x):
        return logistic_loss(D, g, x[:s]) + tau * float(np.sum(x[s:]))

    def gradient(x):
        _, grad, _ = logistic_oracle(D, g, x[:s])
        return np.concatenate([grad, np.full(2 * s, tau)])

    def hess_action(x, v):
        _, _, hw = logistic_oracle(D, g, x[:s])
        out = np.zeros(nbar)
        out[:s] = D.T @ (hw * (D @ v[:s]))
        return out

    def hess_diag(x):
        _, _, hw = logistic_oracle(D, g, x[:s])
        return np.concatenate([(D ** 2).T @ hw, np.zeros(2 * s)])

    prog = ConvexProgram(
        n=nbar, m=s, A=A, b=b,
        free=np.arange(s), nonneg=np.arange(s, nbar),
        objective=objective, gradient=gradient, hess_action=hess_action,
        hess_diag=hess_diag, hess_diag_cheap=hess_diag,
        hessian_is_diagonal=False, name="logistic-l1",
    )
    prog.extract = lambda x: x[:s]
    return prog

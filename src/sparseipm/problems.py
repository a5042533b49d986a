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

    The sizes ``m, n`` come from ``A``. ``Q``, the explicit Hessian of a
    quadratic f, is what the direct path factors; the normal-equations path
    takes it only when it is diagonal.
    ``hess_action(x)`` returns, from one evaluation at x, the pair
    (action, H~) over the Hessian block, the leading k coordinates, outside
    which f is linear and the MINRES path's Newton solve has no unknown:
    the action v -> Hessian(x) v on the block, and H~, the approximation of
    the f-Hessian H that the MINRES preconditioner factors, as one vector
    of length k + c: its diagonal on the block, then its value on each
    column (i, j) of the 2 x c index array ``couplings``, the pairs of
    coordinates it couples (each once; none by default), a fixed pattern.
    Each column (x+, x-) of the 2 x p index array ``pairs`` names a split
    pair of non-negative coordinates whose columns in ``A`` and ``Q`` are
    exact negatives. Without ``Q``, the Hessian of f must vanish on pair
    coordinates (f is at most linear in them). Every solver path eliminates
    each slack pair, one whose two columns each hold a single entry of ``A``
    in the same row, and that row with it, and no other row, and reduces
    every other pair to one unknown inside its Newton solve.
    """

    A: sp.csr_matrix
    b: np.ndarray
    nonneg: np.ndarray
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hess_action: Callable[[np.ndarray], tuple]  # x -> (v -> H(x) v, H~)
    Q: Optional[sp.csr_matrix] = None
    extract: Optional[Callable[[np.ndarray], np.ndarray]] = None  # split x -> original w
    pairs: Optional[np.ndarray] = None  # 2 x p split pairs (x+, x-)
    couplings: Optional[np.ndarray] = None  # 2 x c coordinate pairs that H~ couples
    hess_diag = hess_diag_cheap = None  # not fields: only perfbench/tracing.py reads them

    def __post_init__(self):
        self.m, self.n = self.A.shape
        self.nonneg = self._indices("nonneg", self.nonneg)
        if np.any((self.nonneg < 0) | (self.nonneg >= self.n)):
            raise ValueError("nonneg indices must lie in {0..n-1}")
        free = np.ones(self.n, dtype=bool)
        free[self.nonneg] = False
        if np.count_nonzero(free) != self.n - self.nonneg.size:
            raise ValueError("nonneg indices must not repeat")
        self.pairs, self.couplings = map(self._index_pairs, ("pairs", "couplings"))
        paired = np.zeros(self.n, dtype=bool)
        paired[self.pairs] = True
        if np.count_nonzero(paired) != self.pairs.size:
            raise ValueError("pair indices must not repeat")
        if np.any(paired & free):
            raise ValueError("pair indices must be non-negative coordinates")
        i, j = self.couplings
        key = np.sort(np.minimum(i, j) * self.n + np.maximum(i, j))  # either order
        if np.any(i == j) or np.any(key[1:] == key[:-1]):
            raise ValueError("couplings must join two distinct coordinates, each pair once")

    def _index_pairs(self, name):
        """The field ``name`` as a 2 x p integer array of coordinates; None is
        empty."""
        value = getattr(self, name)
        value = self._indices(name, np.empty((2, 0)) if value is None else value)
        if value.ndim != 2 or len(value) != 2 or np.any((value < 0) | (value >= self.n)):
            raise ValueError(f"{name} must be a 2 x p array of indices in {{0..n-1}}")
        return value

    @staticmethod
    def _indices(name, value) -> np.ndarray:
        """``value`` as an integer array; a boolean mask or a non-integral
        value raises ValueError naming the field ``name``."""
        value = np.asarray(value)
        integral = value.dtype.kind in "iu" or value.dtype.kind == "f" and np.all(
            np.isfinite(value) & (np.trunc(value) == value))
        if value.size and not integral:
            raise ValueError(f"{name} must hold integer indices, not {value.dtype} values")
        return value.astype(int)


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
        hess_action=lambda x: (lambda v: Q @ v, qdiag),
        Q=Q, **kw,
    )


def split_l1_program(A, b, k, lam, nonneg, value, gradient, hess_action,
                     couplings=None) -> ConvexProgram:
    """Build a ConvexProgram for f(x) = phi(w) + lam * sum(x[k:]) with
    x = [w; d+; d-] and w = x[:k], from phi's oracles as functions of w (H~
    coupling the coordinates of ``couplings``); the gradient is lam on the
    pairs, and phi's Hessian over w is the program's Hessian block."""
    n = A.shape[1]
    return ConvexProgram(
        A=A, b=b, nonneg=nonneg,
        objective=lambda x: value(x[:k]) + lam * float(np.sum(x[k:])),
        gradient=lambda x: np.concatenate([gradient(x[:k]), np.full(n - k, lam)]),
        hess_action=lambda x: hess_action(x[:k]),
        pairs=np.arange(k, n).reshape(2, -1), couplings=couplings, extract=lambda x: x[:k])


def _assemble(shape, blocks) -> sp.csr_matrix:
    """The CSR matrix of ``shape`` that holds each block M of ``blocks``,
    given as (M, row offset, column offset), built in one COO step."""
    coo = [(M.tocoo(), i, j) for M, i, j in blocks]
    return sp.csr_matrix((np.concatenate([M.data for M, _, _ in coo]),
                          (np.concatenate([M.row + i for M, i, _ in coo]),
                           np.concatenate([M.col + j for M, _, j in coo]))), shape=shape)


def fused_qp_program(Qv, cv, Av, C, Aw, L, b, tau1, tau2) -> ConvexProgram:
    """Build the split QP of min 1/2 v'Qv v + cv'v + 1/2 w'Cw + tau1 |w|_1
    + tau2 |Lw|_1 s.t. Av v + Aw w = b (the fused lasso under linear
    constraints), with x = [v; w+; w-; d+; d-], v free, w = w+ - w- and
    Lw = d+ - d-, whose (w+, w-) and (d+, d-) are declared pairs."""
    nv, m, (l, q) = len(cv), len(b), L.shape
    n = nv + 2 * (q + l)
    C, Aw, L, eye = C.tocoo(), Aw.tocoo(), L.tocoo(), sp.eye(l, format="coo")
    Q = _assemble((n, n), [(Qv, 0, 0), (C, nv, nv), (-C, nv, nv + q), (-C, nv + q, nv),
                           (C, nv + q, nv + q)])
    A = _assemble((m + l, n), [(Av, 0, 0), (Aw, 0, nv), (-Aw, 0, nv + q), (L, m, nv),
                               (-L, m, nv + q), (-eye, m, n - 2 * l), (eye, m, n - l)])
    c = np.concatenate([cv, np.full(2 * q, tau1), np.full(2 * l, tau2)])
    w, d = nv + np.arange(q), nv + 2 * q + np.arange(l)
    return quadratic_program(Q, c, A, np.concatenate([b, np.zeros(l)]), nonneg=np.arange(nv, n),
                             pairs=np.array([np.r_[w, d], np.r_[w + q, d + l]]),
                             extract=lambda x: x[nv:nv + q] - x[nv + q:nv + 2 * q])


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
        if not (0 <= self.tau1 < np.inf and 0 <= self.tau2 < np.inf):  # NaN fails too
            raise ValueError("tau1 and tau2 must be non-negative and finite")
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
    # each weight of period j holds +1 in row j and its growth 1 + r_j in
    # row j + 1, negated there unless that is the terminal row m
    grow = 1.0 + np.concatenate(inst.returns, dtype=float)
    grow[:-s] *= -1.0
    row, col = np.repeat(np.arange(m), s), np.arange(m * s)
    Abar = sp.csr_matrix((np.r_[np.ones(m * s), grow], (np.r_[row, row + 1], np.r_[col, col])),
                         shape=(m + 1, m * s))
    return Abar, np.r_[inst.xi_init, np.zeros(m - 1), inst.xi_term]


def build_portfolio_qp(inst: PortfolioInstance) -> ConvexProgram:
    """Split-variable QP with x = [w+; w-; d+; d-]: ``fused_qp_program``
    with no free block."""
    Abar, bbar = budget_constraints(inst)
    return fused_qp_program(sp.csr_matrix((0, 0)), np.zeros(0), sp.csr_matrix((len(bbar), 0)),
                            inst.block_covariance(), Abar, inst.difference.matrix, bbar,
                            inst.tau1, inst.tau2)


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
        if not (0 <= self.tau1 < np.inf and 0 <= self.tau2 < np.inf):  # NaN fails too
            raise ValueError("tau1 and tau2 must be non-negative and finite")
        if s > q:
            warnings.warn("more samples than features; model intended for s <= q")
        self.tv = make_tv_operator(self.grid)

    def original_objective(self, w: np.ndarray) -> float:
        s = self.data.shape[0]
        return (0.5 / s * float(np.sum((self.data @ w - self.labels) ** 2))
                + self.tau1 * np.abs(w).sum() + self.tau2 * np.abs(self.tv.apply(w)).sum())


def build_fused_lasso_ls(inst: FusedLassoLsInstance) -> ConvexProgram:
    """Split program with x = [u; w+; w-; d+; d-]: ``fused_qp_program``
    with the free block u = Dw, whose Hessian is I/s."""
    s, q = inst.data.shape
    eye = sp.eye(s, format="coo")
    prog = fused_qp_program(eye / s, -inst.labels / s, -eye,
                            sp.coo_matrix((q, q)), sp.coo_matrix(inst.data), inst.tv.matrix,
                            np.zeros(s), inst.tau1, inst.tau2)
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
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be non-negative and finite")
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
    eye = sp.eye(l, format="coo")
    A = _assemble((1 + l, n + 2 * l), [(sp.coo_matrix(np.ones((1, n))), 0, 0), (L, 1, 0),
                                       (-eye, 1, n), (eye, 1, n + l)])

    # H~ keeps H's couplings of the pixel pairs (j, j + e_a) of the TV rows,
    # which the band of the MINRES preconditioner holds already, with the
    # diagonal max(H_jj, the row's sum of them). Every entry of H is >= 0, so
    # H~ is diagonally dominant with a non-negative diagonal.
    pixels = L.indices.reshape(-1, 2).T  # each TV row's (j, j + e_a), in its CSR order
    axis = (pixels[1] - pixels[0] == 1).astype(int)  # a = 1 has stride 1
    ends = pixels.ravel()

    def hess_action(w):
        weights = inst.observed / _intensity(w, inst) ** 2  # u2
        planes = inst.blur.couplings(weights).reshape(3, -1)
        h = planes[axis, pixels[0]]
        row_sum = np.bincount(ends, np.tile(h, 2), minlength=n)
        return (lambda v: inst.blur.apply_transpose(weights * inst.blur.apply(v)),
                np.concatenate([np.maximum(planes[2], row_sum), h]))

    return split_l1_program(
        A, np.concatenate([[r], np.zeros(l)]), n, inst.lam, np.arange(n + 2 * l),
        value=lambda w: kl_value(w, inst), gradient=lambda w: kl_gradient(w, inst),
        hess_action=hess_action, couplings=pixels)


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
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")
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


def _sigmoid_weights(D, g, w):
    """p = sigmoid(-t) at the margins t = g * (D w), and the weights p (1 - p) / n."""
    t = g * (D @ w)
    p = 1.0 / (1.0 + np.exp(np.clip(t, -500, 500)))
    return p, p * (1.0 - p) / D.shape[0]


def logistic_oracle(D, g, w):
    """Gradient and Hessian weights of the mean logistic loss."""
    p, hweights = _sigmoid_weights(D, g, w)
    return -(D.T @ (g * p)) / D.shape[0], hweights


def build_logistic_l1(inst: LogisticInstance) -> ConvexProgram:
    """Split program with x = [w; d+; d-], w free and w = d+ - d-."""
    D = inst.design()
    D2 = D ** 2
    g = inst.labels
    s = D.shape[1]
    eye = sp.eye(s, format="coo")
    A = _assemble((s, 3 * s), [(eye, 0, 0), (-eye, 0, s), (eye, 0, 2 * s)])

    def hess_action(w):  # H~ is diag H
        hw = _sigmoid_weights(D, g, w)[1]
        return lambda v: D.T @ (hw * (D @ v)), D2.T @ hw

    return split_l1_program(
        A, np.zeros(s), s, inst.tau, np.arange(s, 3 * s),
        value=lambda w: logistic_loss(D, g, w),
        gradient=lambda w: logistic_oracle(D, g, w)[0],
        hess_action=hess_action)

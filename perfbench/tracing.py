"""Layer spans recorded from outside the solver.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
module attributes, class methods and dictionary entries that ``sparseipm``
looks up at call time with timing wrappers, and puts every original back on
exit. A span's self time is its duration minus the time of the spans it
encloses. Callbacks of a built ``ConvexProgram`` and the ``apply_inverse`` of a
built ``Preconditioner`` are wrapped on the returned object.
"""
from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict

import scipy.sparse.linalg as spla

from sparseipm import dropping, harness, ippmm, krylov, linops, precond, problems

ORACLES = {"gradient": "problems.gradient", "hess_action": "problems.hess_action",
           "hess_diag": "problems.hess_diag", "hess_diag_cheap": "problems.hess_diag",
           "objective": "problems.objective"}


class _Spla:
    """Stand-in for ``ippmm.spla`` whose ``splu`` is traced; the Cholesky
    factors in ``krylov`` keep calling SciPy directly."""

    def __init__(self, tracer):
        self.splu = tracer.span("ippmm.lu_factor", spla.splu, tracer._lu_result)

    def __getattr__(self, name):
        return getattr(spla, name)


class _TracedLU:
    """SuperLU factor whose ``solve`` is a span; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.reset()
        self._patches = []   # (owner, attribute, original) while installed
        self._originals = []  # the same triples, kept after restoring

    def reset(self):
        """Start a new profile: span statistics and counters back to zero."""
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.in_solve_self_s = 0.0  # self time of spans inside ippmm.solve
        self._open = []  # child time accumulated by each open span
        self._solve_depth = 0

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call is a span; ``on_result(result, args,
        kwargs)`` may record counts and return a replacement result."""

        def traced(*args, **kwargs):
            t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if on_result is not None:
                result = on_result(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def region(self, name):
        """One span around the enclosed block of the benchmark's own code."""
        t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, t0)

    def _enter(self, name):
        self._open.append(0.0)
        self._solve_depth += name == "ippmm.solve"
        return time.perf_counter()

    def _exit(self, name, t0):
        dt = time.perf_counter() - t0
        own = dt - self._open.pop()
        self._solve_depth -= name == "ippmm.solve"
        self.calls[name] += 1
        self.total_s[name] += dt
        self.self_s[name] += own
        if self._solve_depth and name != "ippmm.solve":
            self.in_solve_self_s += own
        if self._open:
            self._open[-1] += dt

    # -- result hooks ------------------------------------------------------

    def _wrap_program(self, prog, args, kwargs):
        for field, name in ORACLES.items():
            fn = getattr(prog, field)
            if fn is not None:
                setattr(prog, field, self.span(name, fn))
        return prog

    def _wrap_precond(self, pre, args, kwargs):
        pre.apply_inverse = self.span("precond.apply", pre.apply_inverse)
        return pre

    def _krylov_outcome(self, name):
        def record(out, args, kwargs):
            self.counts[name + ".iters"] += out.iterations
            self.counts[name + ".converged"] += bool(out.converged)
            capped = (not out.converged and out.breakdown_reason is None
                      and out.iterations >= kwargs.get("maxit", 0))
            self.counts[name + ".capped"] += capped
            return out
        return record

    def _chol_result(self, factor, args, kwargs):
        if factor.is_sparse:
            nnz = factor._lu.nnz
        else:
            k = factor._c.shape[0]
            nnz = k * (k + 1) // 2
        self.counts["krylov.chol.nnz"] += nnz
        return factor

    def _lu_result(self, lu, args, kwargs):
        return _TracedLU(lu, self.span("ippmm.lu_solve", lu.solve))

    def _dropped(self, newly, args, kwargs):
        self.counts["dropping.dropped"] += len(newly)
        return newly

    def _audit(self, audit, args, kwargs):
        self.counts["dropping.audit_violations"] += len(audit.violated)
        return audit

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, result hook) for every wrapped name."""
        out = []
        for fn in ("gen_portfolio", "gen_fused_lasso", "gen_blur_instance",
                   "gen_classification"):
            out.append((harness, fn, "harness.generate", None))
        for fn in ("build_portfolio_qp", "build_fused_lasso_ls", "build_poisson_tv",
                   "build_logistic_l1"):
            out.append((problems, fn, "problems.build", self._wrap_program))
        for meth in ("apply", "apply_transpose"):
            out.append((linops.BccbOperator, meth, "linops.bccb", None))
        out.append((ippmm, "solve", "ippmm.solve", None))
        for cls in (ippmm.AugmentedSystem, ippmm.NormalEquations):
            out.append((cls, "__init__", "ippmm.assemble", None))
            out.append((cls, "matvec", "ippmm.matvec", None))
        out.append((ippmm, "kkt_residuals", "ippmm.residuals", None))
        out.append((ippmm, "newton_rhs", "ippmm.rhs", None))
        for fn in ("predictor_corrector_step", "step_lengths",
                   "update_penalties_and_estimates"):
            out.append((ippmm, fn, "ippmm.step", None))
        for key in ippmm._CONTEXTS:
            out.append((ippmm._CONTEXTS, key, "ippmm.context", None))
        # the solver calls the names bound into ippmm; patch both bindings
        for owner in (ippmm, krylov):
            out.append((owner, "minres", "krylov.minres",
                        self._krylov_outcome("krylov.minres")))
            out.append((owner, "pcg", "krylov.pcg", self._krylov_outcome("krylov.pcg")))
        out.append((precond, "CholeskyFactor", "krylov.chol", self._chol_result))
        out.append((krylov.CholeskyFactor, "solve", "krylov.chol_solve", None))
        for fn in ("build_fmri_normal_precond", "build_aug_block_diag_precond",
                   "identity_preconditioner"):
            out.append((precond, fn, "precond.build", self._wrap_precond))
        out.append((dropping, "scan_and_drop", "dropping.scan", self._dropped))
        out.append((dropping, "verify_dropped", "dropping.audit", self._audit))
        return out

    @staticmethod
    def _get(owner, attr):
        if isinstance(owner, dict):
            return owner[attr]
        return inspect.getattr_static(owner, attr)

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, name, hook in self._targets():
                original = self._get(owner, attr)
                self._patches.append((owner, attr, original))
                self._set(owner, attr, self.span(name, original, hook))
            self._patches.append((ippmm, "spla", ippmm.spla))
            ippmm.spla = _Spla(self)
            self._originals = list(self._patches)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                self._set(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped name holds its original object again."""
        return bool(self._originals) and all(
            self._get(owner, attr) is original
            for owner, attr, original in self._originals)

"""Command-line harness: synthetic instance generation, file IO (PGM images,
key=value configs), solver comparison runs and spectral diagnostics."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, ippmm, metrics, precond
from .linops import BLUR_PARAMETERS, BccbOperator, BlurKernel
from .problems import (FusedLassoLsInstance, LogisticInstance,
                       PoissonTvInstance, PortfolioInstance,
                       build_fused_lasso_ls, build_logistic_l1,
                       build_poisson_tv, build_portfolio_qp, naive_portfolio)


# ---------------------------------------------------------------------------
# Instance generators


def gen_portfolio(s: int, m: int, seed: int, tau1: float = 1e-2,
                  tau2: float = 1e-2) -> PortfolioInstance:
    """Synthetic multi-period market: factor-model covariances and uniform
    per-period returns; the terminal wealth target is the naive strategy's."""
    if s < 2 or m < 2:
        raise ValueError("need s >= 2 assets and m >= 2 periods")
    rng = np.random.default_rng(seed)
    covs, rets = [], []
    for _ in range(m):
        B = rng.standard_normal((s, max(1, s // 4)))
        covs.append(B @ B.T + 0.1 * np.eye(s))
        rets.append(rng.uniform(-0.05, 0.10, size=s))
    inst = PortfolioInstance(covariances=covs, returns=rets, xi_init=1.0,
                             xi_term=1.0, tau1=tau1, tau2=tau2)
    _, terminal = naive_portfolio(inst)
    inst.xi_term = terminal
    return inst


def gen_fused_lasso(s: int, grid, seed: int, tau1: float = 1e-1,
                    tau2: float = 1e-1):
    """Random-design classification over a voxel grid with a planted
    contiguous active region; returns (instance, planted weights)."""
    grid = tuple(int(g) for g in grid)
    q = int(np.prod(grid))
    rng = np.random.default_rng(seed)
    wbar = np.zeros(grid)
    # a contiguous active block covering roughly the first half of each axis
    block = tuple(slice(0, max(1, g // 2)) for g in grid)
    wbar[block] = 1.0
    wbar = wbar.ravel()
    D = rng.standard_normal((s, q))
    labels = np.sign(D @ wbar + 0.5 * rng.standard_normal(s))
    labels[labels == 0] = 1.0
    inst = FusedLassoLsInstance(data=D, labels=labels, grid=grid,
                                tau1=tau1, tau2=tau2)
    return inst, wbar


def gen_blur_instance(image: np.ndarray, kernel: BlurKernel, peak_counts: float,
                      background: float, seed: int, lam: float = 1e-2,
                      noise: bool = True):
    """Blur a ground-truth image, add a flat background and draw Poisson
    counts; returns (instance, true intensity vector)."""
    if not peak_counts > 0:
        raise ValueError("peak_counts must be positive")
    if not background > 0:
        raise ValueError("background must be positive")
    image = np.asarray(image, dtype=float)
    if image.shape != kernel.grid:
        raise ValueError("image shape does not match the kernel grid")
    wbar = (image * peak_counts).ravel()
    op = BccbOperator(kernel)
    mean = op.apply(wbar) + background
    if noise:
        rng = np.random.default_rng(seed)
        observed = rng.poisson(mean).astype(float)
    else:
        observed = mean
    inst = PoissonTvInstance(blur=op, observed=observed,
                             background=np.full(wbar.size, background), lam=lam)
    return inst, wbar


def gen_classification(n: int, s: int, separation: float = 1.0,
                       sparsity: float = 0.1, seed: int = 0,
                       test_fraction: float = 0.0):
    """Planted sparse linear model with Gaussian design; labels carry unit
    noise so finite separation keeps the classes overlapping. The instance
    has tau = 1/n.

    Returns (instance, planted weights, test set or None); there is no test
    set when ``test_fraction * n`` rounds to 0 rows."""
    if n < 1 or s < 1:
        raise ValueError("need n, s >= 1")
    if not 0 < sparsity <= 1:
        raise ValueError("sparsity must be in (0, 1]")
    if not np.isfinite(separation):
        raise ValueError("separation must be finite")
    if not 0 <= test_fraction <= 1:
        raise ValueError("test_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    k = max(1, int(round(sparsity * s)))
    wbar = np.zeros(s)
    support = rng.choice(s, size=k, replace=False)
    wbar[support] = separation * rng.choice([-1.0, 1.0], size=k) \
        * rng.uniform(0.5, 1.5, size=k)

    def draw(count):
        D = rng.standard_normal((count, s))
        g = np.sign(D @ wbar + rng.standard_normal(count))
        g[g == 0] = 1.0
        return D, g

    D, g = draw(n)
    inst = LogisticInstance(data=D, labels=g, tau=1.0 / n)
    count = int(round(test_fraction * n))
    return inst, wbar, (draw(count) if count > 0 else None)


def builtin_image(name: str, size: int) -> np.ndarray:
    """Piecewise-constant test patterns in [0, 1]."""
    if size < 8:
        raise ValueError("builtin images need size >= 8")
    img = np.full((size, size), 0.05)
    if name == "squares":
        q = size // 4
        img[q:2 * q, q:3 * q] = 0.5
        img[2 * q:3 * q, 2 * q:3 * q + q // 2] = 1.0
        img[q // 2:q, size - 2 * q:size - q] = 0.75
    elif name == "disk":
        ax = np.arange(size) - (size - 1) / 2.0
        dist = np.hypot(*np.meshgrid(ax, ax, indexing="ij"))
        img[dist <= size / 4.0] = 1.0
        img[dist <= size / 8.0] = 0.5
    else:
        raise ValueError(f"unknown builtin image {name!r}")
    return img


# ---------------------------------------------------------------------------
# File formats


class ParseError(ValueError):
    """Malformed input file, with location information."""


def parse_config(path) -> dict:
    """key=value configuration with '#' comments and blank lines."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            if not key.strip():
                raise ParseError(f"{path}:{lineno}: empty key")
            out[key.strip()] = value.strip()
    return out


def read_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) PGM image; returns (array, maxval)."""
    data = Path(path).read_bytes()
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] not in (10, 13):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: unexpected end of file at byte {start}")
        return data[start:pos]

    magic = next_token()
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"{path}: bad magic {magic!r}, expected P2 or P5")
    try:
        width, height, maxval = (int(next_token()) for _ in range(3))
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric header near byte {pos}") from exc
    if width < 1 or height < 1:
        raise ParseError(f"{path}: image size {width} x {height}, expected at least 1 x 1")
    if maxval <= 0 or maxval > 65535:
        raise ParseError(f"{path}: maxval {maxval} out of range")
    count = width * height
    if magic == b"P2":
        try:
            values = [int(next_token()) for _ in range(count)]
        except ParseError:
            raise ParseError(f"{path}: expected {count} pixel values")
        img = np.array(values, dtype=float)
    else:
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        if len(data) - pos < count * dtype.itemsize:
            raise ParseError(f"{path}: truncated pixel data at byte {pos}")
        raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        img = raw.astype(float)
    if np.any(img < 0):
        raise ParseError(f"{path}: pixel value below 0")
    if np.any(img > maxval):
        raise ParseError(f"{path}: pixel value exceeds maxval {maxval}")
    return img.reshape(height, width), maxval


def write_pgm(path, img: np.ndarray):
    """Write a 2-d array, rounded and clipped to [0, 255], as 8-bit PGM (P5)."""
    arr = np.clip(np.rint(np.asarray(img)), 0, 255)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.astype(np.uint8).tobytes())


def _write_text(path, text):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Problem families: one table drives every family subcommand


class Flag(NamedTuple):
    """One instance flag of a family; type ``bool`` makes an on/off switch."""

    name: str
    type: type
    default: object
    kw: dict = {}  # further argparse keywords


@dataclass(frozen=True)
class Family:
    """How the CLI poses, solves and scores one problem family."""

    help: str
    flags: tuple       # Flag entries for the instance and the baselines
    make: Callable     # args -> (instance, ground truth passed to ``score``)
    build: Callable    # instance -> ConvexProgram
    ippmm: Callable    # (args, instance) -> SolverOptions overrides
    baselines: dict    # solver name -> (instance, args) -> (w, report)
    header: tuple      # the family's scores.csv columns
    score: Callable    # (args, instance, truth, w) -> rows
    prune: float = 0.0  # a solver's |w| at or below this is scored as 0

    @property
    def solvers(self) -> list:
        return ["ippmm", *self.baselines]


def _score_portfolio(args, inst, _, w):
    w_naive, _ = naive_portfolio(inst)
    ratios = metrics.portfolio_ratios(w, w_naive, inst.block_covariance(),
                                      inst.num_periods, eps=args.trans_eps)
    return [[float(r) for r in ratios]]


def _score_fmri(args, inst, wbar, w):
    wt = metrics.threshold_solution(w)
    try:
        overlap = metrics.corrected_overlap(wt, wbar, w.size)
    except metrics.UndefinedMetricError:  # an empty support blanks only this cell
        overlap = ""
    return [[100.0 * np.count_nonzero(wt) / w.size, overlap]]


def _make_restore(args):
    if args.image in ("squares", "disk"):
        img = builtin_image(args.image, 32 if args.size is None else args.size)
    elif args.size is not None:
        raise ValueError("--size sets a builtin image's side; a PGM image keeps its own")
    else:
        pixels, maxval = read_pgm(args.image)
        img = pixels / maxval
    return gen_blur_instance(img, _make_kernel(args, img.shape), args.peak,
                             args.background, args.seed, lam=args.lam,
                             noise=not args.no_noise)


def _poisson_start(inst) -> np.ndarray:
    """Interior start: observed counts (floored away from zero) for w, slacks
    bracketing the initial TV field."""
    w0 = np.maximum(inst.observed - inst.background, 1e-2 * max(1.0, inst.observed.mean()))
    Lw0 = inst.tv.apply(w0)
    return np.concatenate([w0, np.maximum(Lw0, 0) + 1.0, np.maximum(-Lw0, 0) + 1.0])


def _score_restore(args, inst, wbar, w):
    shape = inst.blur.grid
    write_pgm(Path(args.out) / "restored.pgm", 255.0 * w.reshape(shape) / args.peak)
    rmse, psnr, ms = metrics.image_scores(w, wbar, shape=shape)
    return [[rmse, float(psnr), ms]]


def _make_classify(args):
    inst, wbar, test = gen_classification(args.n, args.s, args.separation,
                                          args.sparsity, args.seed,
                                          test_fraction=args.test_fraction)
    # the sparse regime: at the generator's tau = 1/n the optimum is dense
    return replace(inst, tau=0.1 * inst.lambda_max()), (wbar, test)


def _score_classify(args, inst, truth, w):
    wbar, test = truth
    wt = metrics.threshold_solution(w)
    wt_feat = wt[:wbar.size]
    density = 100.0 * np.count_nonzero(wt_feat) / wbar.size
    recovered = np.flatnonzero(wt_feat)
    planted = np.flatnonzero(wbar)
    recovery = (100.0 * len(set(recovered) & set(planted)) / max(1, len(planted)))
    rows = [["train", _accuracy(inst.design(), inst.labels, wt), density, recovery]]
    if test is not None:
        Dte, gte = test
        design = replace(inst, data=Dte, labels=gte).design()
        rows.append(["test", _accuracy(design, gte, wt), density, recovery])
    return rows


def _accuracy(D, labels, w) -> float:
    pred = np.sign(D @ w)
    pred[pred == 0] = 1.0
    return 100.0 * float(np.mean(pred == labels))


def _checked_float(test, what: str):
    """A float flag type that rejects a value failing ``test`` in argparse's
    error line, which names the flag; NaN fails each test below."""
    def parse(text):
        value = float(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = "float"  # argparse's name for a value float() rejects
    return parse


_POSITIVE = _checked_float(lambda v: 0 < v < np.inf, "positive and finite")
_NON_NEGATIVE = _checked_float(lambda v: 0 <= v < np.inf, "non-negative and finite")
_FINITE = _checked_float(np.isfinite, "finite")
_FRACTION = _checked_float(lambda v: 0 <= v <= 1, "in [0, 1]")
_BUDGET = Flag("--budget-seconds", _NON_NEGATIVE, None)

FAMILIES = {
    "portfolio": Family(
        help="multi-period portfolio selection",
        flags=(Flag("--s", int, 8), Flag("--m", int, 4),
               Flag("--tau1", _NON_NEGATIVE, 1e-2), Flag("--tau2", _NON_NEGATIVE, 1e-2),
               Flag("--trans-eps", _POSITIVE, 1e-4), _BUDGET),
        make=lambda a: (gen_portfolio(a.s, a.m, a.seed, a.tau1, a.tau2), None),
        build=build_portfolio_qp,
        ippmm=lambda a, inst: dict(linear_solver="direct-augmented"),
        baselines={"asb": lambda inst, a: baselines.asb_chol_solve(
            inst, time_budget=a.budget_seconds, **_limits(a))},
        header=("ratio", "ratio_h", "ratio_t"),
        score=_score_portfolio,
        prune=1e-4),
    "fmri": Family(
        help="fused-lasso least-squares classification",
        flags=(Flag("--s", int, 30), Flag("--grid", str, "4x4x4"),
               Flag("--tau1", _NON_NEGATIVE, 1e-1), Flag("--tau2", _NON_NEGATIVE, 1e-1), _BUDGET),
        make=lambda a: gen_fused_lasso(a.s, _parse_grid(a.grid), a.seed,
                                       a.tau1, a.tau2),
        build=build_fused_lasso_ls,
        ippmm=lambda a, inst: dict(linear_solver="pcg-normal"),
        baselines={
            "fista": lambda inst, a: baselines.fista_solve(
                inst, time_budget=a.budget_seconds, **_limits(a)),
            "admm": lambda inst, a: baselines.admm_fused_lasso(
                inst, time_budget=a.budget_seconds, **_limits(a))},
        header=("density_pct", "overlap"),
        score=_score_fmri,
        prune=1e-6),
    "restore": Family(
        help="Poisson image restoration",
        flags=(Flag("--image", str, "squares",
                    {"help": "builtin pattern name or PGM path"}),
               Flag("--size", int, None, {"help": "side of a builtin image (default 32)"}),
               Flag("--blur", str, "gaussian", {"choices": list(BLUR_PARAMETERS)}),
               Flag("--sigma", float, None), Flag("--len", float, None),
               Flag("--angle", float, None), Flag("--radius", float, None),
               Flag("--peak", _POSITIVE, 100.0), Flag("--background", _POSITIVE, 1.0),
               Flag("--lambda", _NON_NEGATIVE, 5e-3, {"dest": "lam"}),
               Flag("--no-noise", bool, False)),
        make=_make_restore,
        build=build_poisson_tv,
        ippmm=lambda a, inst: dict(linear_solver="minres-augmented",
                                   x0=_poisson_start(inst)),
        baselines={},
        header=("rmse", "psnr_db", "mssim"),
        score=_score_restore),
    "classify": Family(
        help="l1-regularized logistic regression",
        flags=(Flag("--n", int, 200), Flag("--s", int, 50),
               Flag("--separation", _FINITE, 2.0), Flag("--sparsity", float, 0.1),
               Flag("--test-fraction", _FRACTION, 0.25), _BUDGET),
        make=_make_classify,
        build=build_logistic_l1,
        ippmm=lambda a, inst: dict(linear_solver="minres-augmented"),
        baselines={"admm": lambda inst, a: baselines.admm_logistic(
            inst, time_budget=a.budget_seconds, **_limits(a))},
        header=("split", "accuracy_pct", "density_pct", "support_recovery_pct"),
        score=_score_classify,
        prune=1e-6),
}


# ---------------------------------------------------------------------------
# Subcommand handlers


def _exit_code(status: str) -> int:
    return 2 if status in ("numerical-failure", "max-iterations") else 0


def _solver_options(family: Family, args, inst) -> ippmm.SolverOptions:
    overrides = {name: getattr(args, name) for name in ("tol", "max_iter")
                 if getattr(args, name) is not None}
    return ippmm.SolverOptions(**{**family.ippmm(args, inst), **overrides})


def _limits(args) -> dict:
    """--tol and --max-iter as a baseline's own ``tol`` and ``maxit``, where set."""
    limits = {"tol": args.tol, "maxit": args.max_iter}
    return {key: value for key, value in limits.items() if value is not None}


def _cmd_family(args) -> int:
    """Solve one instance with each listed solver, write a report per solver
    and one scores.csv; the exit code is the worst outcome's."""
    family = FAMILIES[args.subcommand]
    solvers = args.solver.split(",")
    unknown = [name for name in solvers if name not in family.solvers]
    if unknown:
        print(f"unknown {args.subcommand} solver(s) {','.join(unknown)}; "
              f"expected some of {','.join(family.solvers)}", file=sys.stderr)
        return 1
    if len(set(solvers)) < len(solvers):
        print(f"repeated {args.subcommand} solver in {args.solver}", file=sys.stderr)
        return 1
    inst, truth = family.make(args)
    opts = _solver_options(family, args, inst)
    rows = []
    for solver in solvers:
        if solver == "ippmm":
            prog = family.build(inst)
            (x, _, _), report = ippmm.solve(prog, opts)
            w = prog.extract(x)
        else:
            w, report = family.baselines[solver](inst, args)
        _write_text(Path(args.out) / f"report_{solver}.json", report.to_json())
        run = [solver, report.status, report.iterations, report.time_s,
               inst.original_objective(w)]
        w = np.where(np.abs(w) > family.prune, w, 0.0)
        try:
            scores = family.score(args, inst, truth, w)
        except metrics.UndefinedMetricError as exc:
            print(f"{solver} scores unavailable: {exc}", file=sys.stderr)
            scores = [[""] * len(family.header)]
        rows += [run + score for score in scores]
    _write_csv(Path(args.out) / "scores.csv",
               ("solver", "status", "iters", "time_s", "objective", *family.header),
               rows)
    return max(_exit_code(row[1]) for row in rows)


def _cmd_spectest(args) -> int:
    grid = _parse_grid(args.grid or {"fmri": "3x3", "poisson": "8x8"}[args.family])
    rho = delta = 1e-2
    if args.family == "fmri":
        inst, _ = gen_fused_lasso(6 if args.s is None else args.s, grid, args.seed)
        prog = build_fused_lasso_ls(inst)
        precond.check_dense(prog.m)  # before any dense build
        gdiag = prog.Q.diagonal() + 1.0 + rho  # unit point: z/x = 1
        rep = precond.fmri_spectral_report(gdiag, prog.A, inst.data.shape[0],
                                           rho, delta)
        eigs = rep.eigenvalues
        ok = eigs.min() >= rep.chi - 1e-10 and eigs.max() <= 2.0 + 1e-10
    else:
        if args.s is not None:
            raise ParseError("--s sets the fmri sample count; the poisson check has none")
        if len(grid) != 2 or grid[0] != grid[1]:
            raise ParseError(f"poisson spectest needs a square 2-d grid, got {args.grid!r}")
        img = builtin_image("squares", grid[0])
        kernel = BlurKernel("gaussian", img.shape)
        inst, _ = gen_blur_instance(img, kernel, 50.0, 1.0, args.seed,
                                    noise=False)
        prog = build_poisson_tv(inst)
        precond.check_dense(prog.n + prog.m)  # before any dense build
        x = np.ones(prog.n)
        shift = 1.0 + rho
        hess, _ = prog.hess_action(x)
        block = np.column_stack([hess(e) for e in np.eye(inst.blur.cols)])  # the pixels
        H = np.pad(block, (0, prog.n - len(block))) + shift * np.eye(prog.n)
        u2 = inst.observed / (inst.blur.apply(x[:inst.blur.cols]) + inst.background) ** 2
        htilde = np.r_[u2, np.zeros(prog.n - u2.size)] + shift  # the paper's diag(u^2)
        rep = precond.aug_spectral_report(H, prog.A, htilde, delta)
        eigs = rep.eigenvalues
        neg = eigs[eigs < 0]
        pos = eigs[eigs > 0]
        tol = 1e-8
        ok = (np.all(neg >= -rep.beta_h - 1.0 - tol)
              and np.all(neg <= -rep.alpha_h + tol)
              and np.all(pos >= 1.0 / (1.0 + rep.beta_h) - tol)
              and np.all(pos <= 1.0 + tol))
    doc = {**rep.to_dict(), "interval_ok": bool(ok)}
    _write_text(Path(args.out) / "spectral.json", json.dumps(doc, indent=2))
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_grid(text) -> tuple:
    try:
        dims = tuple(int(part) for part in str(text).lower().split("x"))
    except ValueError:
        raise ParseError(f"bad grid spec {text!r}; expected like 4x4 or 2x2x2")
    if not dims or any(d < 2 for d in dims):
        raise ParseError(f"grid dimensions must all be >= 2, got {text!r}")
    return dims


def _make_kernel(args, shape) -> BlurKernel:
    """The --blur kernel from the kernel flags set; BlurKernel rejects the others."""
    flags = {"sigma": args.sigma, "length": args.len, "angle": args.angle,
             "radius": args.radius}
    params = {name: value for name, value in flags.items() if value is not None}
    return BlurKernel(args.blur, tuple(shape), params)


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--config", default=None,
                   help="key=value file; values become flag defaults")
    p.set_defaults(command_parser=p)


def _apply_config(p, path) -> None:
    """Make the entries of a key=value file defaults of the subcommand parser
    ``p``, each converted by its flag's own type; on/off flags take true/false."""
    flags = {opt: action for action in p._actions for opt in action.option_strings
             if action.dest not in ("help", "config")}
    defaults = {}
    for key, text in parse_config(path).items():
        action = flags.get("--" + key.replace("_", "-"))
        if action is None:
            raise ParseError(f"{path}: unknown key {key!r}")
        try:
            value = ({"true": True, "false": False}[text.lower()] if action.nargs == 0
                     else (action.type or str)(text))
        except (KeyError, ValueError, argparse.ArgumentTypeError):
            raise ParseError(f"{path}: bad value {text!r} for {key}") from None
        if action.choices and value not in action.choices:
            raise ParseError(f"{path}: {key} must be one of {action.choices}")
        defaults[action.dest] = value
    p.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparseipm")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, family in FAMILIES.items():
        p = sub.add_parser(name, help=family.help)
        p.set_defaults(run=_cmd_family, solver="ippmm")
        _add_common(p)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        for flag in family.flags:
            kind = {"action": "store_true"} if flag.type is bool else {"type": flag.type}
            p.add_argument(flag.name, default=flag.default, **kind, **flag.kw)
        if family.baselines:
            p.add_argument("--solver", default="ippmm",
                           help=f"comma-separated, some of {','.join(family.solvers)}")

    p = sub.add_parser("spectest", help="preconditioner eigenvalue check")
    p.set_defaults(run=_cmd_spectest)
    _add_common(p)
    p.add_argument("--family", default="fmri", choices=["fmri", "poisson"])
    p.add_argument("--s", type=int, default=None, help="fmri sample count (default 6)")
    p.add_argument("--grid", default=None, help="default: 3x3 for fmri, 8x8 for poisson")
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # a config file provides defaults; explicit flags still win
            _apply_config(args.command_parser, args.config)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except (OSError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

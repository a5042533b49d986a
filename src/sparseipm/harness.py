"""Command-line harness: synthetic instance generation, file IO (PGM images,
key=value configs), benchmark orchestration and spectral diagnostics."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, ippmm, metrics, precond
from .linops import BlurKernel, make_bccb_operator, make_tv_operator
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
    if peak_counts <= 0:
        raise ValueError("peak_counts must be positive")
    if background <= 0:
        raise ValueError("background must be positive")
    image = np.asarray(image, dtype=float)
    if image.shape != kernel.grid:
        raise ValueError("image shape does not match the kernel grid")
    wbar = (image * peak_counts).ravel()
    op = make_bccb_operator(kernel)
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
                       tau: float = None, test_fraction: float = 0.0):
    """Planted sparse linear model with Gaussian design; labels carry unit
    noise so finite separation keeps the classes overlapping.

    Returns (instance, planted weights, test set or None)."""
    if n < 1 or s < 1:
        raise ValueError("need n, s >= 1")
    if not 0 < sparsity <= 1:
        raise ValueError("sparsity must be in (0, 1]")
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
    inst = LogisticInstance(data=D, labels=g, tau=(1.0 / n if tau is None else tau))
    test = draw(int(round(test_fraction * n))) if test_fraction > 0 else None
    return inst, wbar, test


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
    if np.any(img > maxval):
        raise ParseError(f"{path}: pixel value exceeds maxval {maxval}")
    return img.reshape(height, width), maxval


def write_pgm(path, img: np.ndarray, maxval: int = 255, binary: bool = True):
    """Write a 2-d array of integers in [0, maxval] as PGM (P5 or P2)."""
    img = np.asarray(img)
    arr = np.clip(np.rint(img), 0, maxval).astype(np.uint16 if maxval > 255
                                                  else np.uint8)
    h, w = arr.shape
    header = f"{'P5' if binary else 'P2'}\n{w} {h}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(arr.astype(">u2" if maxval > 255 else np.uint8).tobytes())
        else:
            body = "\n".join(" ".join(str(v) for v in row) for row in arr)
            fh.write((body + "\n").encode("ascii"))


def _write_text(path, text):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Problem families: one table drives every family subcommand and bench


class Flag(NamedTuple):
    """One instance flag of a family; type ``bool`` makes an on/off switch."""

    name: str
    type: type
    default: object
    kw: dict = {}  # further argparse keywords

    @property
    def dest(self) -> str:
        return self.kw.get("dest", self.name[2:].replace("-", "_"))


@dataclass(frozen=True)
class Family:
    """How the CLI poses, solves and scores one problem family."""

    help: str
    flags: tuple       # Flag entries for the instance and the baselines
    make: Callable     # args -> (instance, ground truth passed to ``score``)
    build: Callable    # instance -> ConvexProgram
    ippmm: Callable    # (args, instance) -> SolverOptions overrides
    baselines: dict    # solver name -> (instance, args) -> (w, report)
    header: tuple      # scores.csv header
    score: Callable    # (args, instance, truth, w, options) -> scores.csv rows

    @property
    def solvers(self) -> list:
        return ["ippmm", *self.baselines]


def _thresholded(w):
    return metrics.threshold_solution(w) if np.any(w) else w


def _score_portfolio(args, inst, _, w, opts):
    if args.solver == "asb":
        # match the interior point run: prune entries below the drop level
        w = np.where(np.abs(w) > opts.eps_drop, w, 0.0)
    w_naive, _ = naive_portfolio(inst)
    ratios = metrics.portfolio_ratios(w, w_naive, inst.block_covariance(),
                                      inst.num_periods, eps=args.trans_eps)
    return [[float(r) for r in ratios]]


def _score_fmri(args, inst, _, w, opts):
    density = 100.0 * np.count_nonzero(_thresholded(w)) / w.size
    return [[inst.original_objective(w), density]]


def _make_restore(args):
    if args.image in ("squares", "disk"):
        img = builtin_image(args.image, args.size)
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
    Lw0 = make_tv_operator(inst.blur.grid).apply(w0)
    return np.concatenate([w0, np.maximum(Lw0, 0) + 1.0, np.maximum(-Lw0, 0) + 1.0])


def _score_restore(args, inst, wbar, w, opts):
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


def _score_classify(args, inst, truth, w, opts):
    wbar, test = truth
    wt = _thresholded(w)
    wt_feat = wt[:wbar.size]
    density = 100.0 * np.count_nonzero(wt_feat) / wbar.size
    recovered = np.flatnonzero(wt_feat)
    planted = np.flatnonzero(wbar)
    recovery = (100.0 * len(set(recovered) & set(planted)) / max(1, len(planted)))
    rows = [["train", _accuracy(inst.design(), inst.labels, wt), density, recovery]]
    if test is not None:
        Dte, gte = test
        Dte = np.hstack([Dte, np.ones((Dte.shape[0], 1))])
        rows.append(["test", _accuracy(Dte, gte, wt), density, recovery])
    return rows


def _accuracy(D, labels, w) -> float:
    pred = np.sign(D @ w)
    pred[pred == 0] = 1.0
    return 100.0 * float(np.mean(pred == labels))


_BUDGET = Flag("--budget-seconds", float, None)

FAMILIES = {
    "portfolio": Family(
        help="multi-period portfolio selection",
        flags=(Flag("--s", int, 8), Flag("--m", int, 4),
               Flag("--tau1", float, 1e-2), Flag("--tau2", float, 1e-2),
               Flag("--trans-eps", float, 1e-4)),
        make=lambda a: (gen_portfolio(a.s, a.m, a.seed, a.tau1, a.tau2), None),
        build=build_portfolio_qp,
        ippmm=lambda a, inst: dict(linear_solver="direct-augmented", eps_drop=1e-4),
        # the portfolio subcommand has no --budget-seconds; bench does
        baselines={"asb": lambda inst, a: baselines.asb_chol_solve(
            inst, tol=a.tol or 1e-6, time_budget=getattr(a, "budget_seconds", None))},
        header=("ratio", "ratio_h", "ratio_t"),
        score=_score_portfolio),
    "fmri": Family(
        help="fused-lasso least-squares classification",
        flags=(Flag("--s", int, 30), Flag("--grid", str, "4x4x4"),
               Flag("--tau1", float, 1e-1), Flag("--tau2", float, 1e-1), _BUDGET),
        make=lambda a: gen_fused_lasso(a.s, _parse_grid(a.grid), a.seed,
                                       a.tau1, a.tau2),
        build=build_fused_lasso_ls,
        ippmm=lambda a, inst: dict(linear_solver="pcg-normal",
                                   precond="fmri-block", eps_drop=1e-6),
        baselines={
            "fista": lambda inst, a: baselines.fista_solve(
                inst, time_budget=a.budget_seconds),
            "admm": lambda inst, a: baselines.admm_solve(
                inst, time_budget=a.budget_seconds)},
        header=("objective", "density_pct"),
        score=_score_fmri),
    "restore": Family(
        help="Poisson image restoration",
        flags=(Flag("--image", str, "squares",
                    {"help": "builtin pattern name or PGM path"}),
               Flag("--size", int, 32),
               Flag("--blur", str, "gaussian", {"choices": [
                   "gaussian", "motion", "out-of-focus", "identity"]}),
               Flag("--sigma", float, 1.0), Flag("--len", float, 5.0),
               Flag("--angle", float, 0.0), Flag("--radius", float, 2.0),
               Flag("--peak", float, 100.0), Flag("--background", float, 1.0),
               Flag("--lambda", float, 5e-3, {"dest": "lam"}),
               Flag("--htilde", str, "u-squared",
                    {"choices": ["u-squared", "diag-h"]}),
               Flag("--no-noise", bool, False)),
        make=_make_restore,
        build=build_poisson_tv,
        ippmm=lambda a, inst: dict(linear_solver="minres-augmented",
                                   htilde_choice=a.htilde, eps_drop=1e-6,
                                   x0=_poisson_start(inst)),
        baselines={},
        header=("rmse", "psnr_db", "mssim"),
        score=_score_restore),
    "classify": Family(
        help="l1-regularized logistic regression",
        flags=(Flag("--n", int, 200), Flag("--s", int, 50),
               Flag("--separation", float, 2.0), Flag("--sparsity", float, 0.1),
               Flag("--test-fraction", float, 0.25), _BUDGET),
        make=_make_classify,
        build=build_logistic_l1,
        ippmm=lambda a, inst: dict(linear_solver="minres-augmented",
                                   htilde_choice="diag-h", eps_drop=1e-6),
        baselines={"admm": lambda inst, a: baselines.admm_solve(
            inst, time_budget=a.budget_seconds)},
        header=("split", "accuracy_pct", "density_pct", "support_recovery_pct"),
        score=_score_classify),
}


# ---------------------------------------------------------------------------
# Subcommand handlers


def _exit_code(status: str) -> int:
    return 2 if status == "numerical-failure" else 0


def _solver_options(family: Family, args, inst) -> ippmm.SolverOptions:
    opts = ippmm.SolverOptions(dropping=True, **family.ippmm(args, inst))
    for name in ("tol", "max_iter", "eps_drop", "xi"):
        if getattr(args, name) is not None:
            setattr(opts, name, getattr(args, name))
    return opts


def _solve(family: Family, solver: str, inst, opts, args):
    """Run one solver on the instance and write its report; returns (w, report)."""
    if solver == "ippmm":
        prog = family.build(inst)
        (x, _, _), report = ippmm.solve(prog, opts)
        w = prog.extract(x)
    else:
        w, report = family.baselines[solver](inst, args)
    _write_text(Path(args.out) / f"report_{solver}.json", report.to_json())
    return w, report


def _cmd_family(args) -> int:
    family = FAMILIES[args.subcommand]
    inst, truth = family.make(args)
    opts = _solver_options(family, args, inst)
    w, report = _solve(family, args.solver, inst, opts, args)
    try:
        rows = family.score(args, inst, truth, w, opts)
        _write_csv(Path(args.out) / "scores.csv", family.header, rows)
    except metrics.UndefinedMetricError as exc:
        print(f"scores unavailable: {exc}", file=sys.stderr)
    return _exit_code(report.status)


def _cmd_bench(args) -> int:
    family = FAMILIES[args.family]
    solvers = args.solvers.split(",") if args.solvers else family.solvers
    unknown = [name for name in solvers if name not in family.solvers]
    if unknown:
        print(f"unknown {args.family} bench solver(s) {','.join(unknown)}; "
              f"expected some of {','.join(family.solvers)}", file=sys.stderr)
        return 1
    # bench flags default to None: the chosen family's defaults fill them, so
    # bench solves the instance its family subcommand solves
    for flag in family.flags:
        if getattr(args, flag.dest) is None:
            setattr(args, flag.dest, flag.default)
    inst, _ = family.make(args)
    opts = _solver_options(family, args, inst)
    rows = []
    for name in solvers:
        w, rep = _solve(family, name, inst, opts, args)
        rows.append([name, rep.status, rep.iterations, rep.time_s,
                     inst.original_objective(w)])
    _write_csv(Path(args.out) / "bench.csv",
               ["solver", "status", "iters", "time_s", "objective"], rows)
    return max(_exit_code(row[1]) for row in rows)


def _cmd_spectest(args) -> int:
    grid = _parse_grid(args.grid or {"fmri": "3x3", "poisson": "8x8"}[args.family])
    rho = delta = 1e-2
    if args.family == "fmri":
        inst, _ = gen_fused_lasso(args.s, grid, args.seed)
        prog = build_fused_lasso_ls(inst)
        x = np.ones(prog.n)
        gdiag = prog.hess_diag(x) + 1.0 + rho  # unit point: z/x = 1
        rep = precond.fmri_spectral_report(gdiag, prog.A, prog.row_split,
                                           rho, delta)
        eigs = rep.eigenvalues
        doc = rep.to_dict()
        doc["interval_ok"] = bool(eigs.min() >= rep.chi - 1e-10
                                  and eigs.max() <= 2.0 + 1e-10)
    else:
        if len(grid) != 2 or grid[0] != grid[1]:
            raise ParseError(f"poisson spectest needs a square 2-d grid, got {args.grid!r}")
        img = builtin_image("squares", grid[0])
        kernel = BlurKernel("gaussian", img.shape, {"sigma": 1.0})
        inst, _ = gen_blur_instance(img, kernel, 50.0, 1.0, args.seed,
                                    noise=False)
        prog = build_poisson_tv(inst)
        x = np.ones(prog.n)
        shift = 1.0 + rho
        H = np.column_stack([prog.hess_action(x, e)
                             for e in np.eye(prog.n)]) + shift * np.eye(prog.n)
        htilde = prog.hess_diag_cheap(x) + shift
        rep = precond.aug_spectral_report(H, prog.A, htilde, delta)
        eigs = rep.eigenvalues
        doc = rep.to_dict()
        neg = eigs[eigs < 0]
        pos = eigs[eigs > 0]
        tol = 1e-8
        doc["interval_ok"] = bool(
            np.all(neg >= -rep.beta_h - 1.0 - tol)
            and np.all(neg <= -rep.alpha_h + tol)
            and np.all(pos >= 1.0 / (1.0 + rep.beta_h) - tol)
            and np.all(pos <= 1.0 + tol))
    _write_text(Path(args.out) / "spectral.json", json.dumps(doc, indent=2))
    return 0 if doc["interval_ok"] else 2


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
    if args.blur == "gaussian":
        params = {"sigma": args.sigma}
    elif args.blur == "motion":
        params = {"length": args.len, "angle": args.angle}
    elif args.blur == "out-of-focus":
        params = {"radius": args.radius}
    else:
        params = {}
    return BlurKernel(args.blur, tuple(shape), params)


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--eps-drop", dest="eps_drop", type=float, default=None)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--config", default=None,
                   help="key=value file; values become flag defaults")


def _add_flag(p, flag: Flag, default):
    kind = {"action": "store_true"} if flag.type is bool else {"type": flag.type}
    p.add_argument(flag.name, default=default, **kind, **flag.kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparseipm")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    bench_flags = {}
    for name, family in FAMILIES.items():
        p = sub.add_parser(name, help=family.help)
        p.set_defaults(run=_cmd_family, solver="ippmm")
        _add_common(p)
        for flag in family.flags:
            _add_flag(p, flag, flag.default)
            bench_flags.setdefault(flag.name, flag)
        if family.baselines:
            p.add_argument("--solver", default="ippmm", choices=family.solvers)

    p = sub.add_parser("bench", help="run several solvers on one instance")
    p.set_defaults(run=_cmd_bench)
    _add_common(p)
    p.add_argument("--family", default="portfolio", choices=list(FAMILIES))
    p.add_argument("--solvers", default=None,
                   help="comma-separated; default: every solver of the family")
    for flag in bench_flags.values():
        _add_flag(p, flag, None)

    p = sub.add_parser("spectest", help="preconditioner eigenvalue check")
    p.set_defaults(run=_cmd_spectest)
    _add_common(p)
    p.add_argument("--family", default="fmri", choices=["fmri", "poisson"])
    p.add_argument("--s", type=int, default=6)
    p.add_argument("--grid", default=None, help="default: 3x3 for fmri, 8x8 for poisson")
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # a config file provides defaults; explicit flags still win
    if "--config" in argv:
        try:
            cfg = parse_config(argv[argv.index("--config") + 1])
        except (IndexError, OSError, ParseError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        extra = []
        for key, val in cfg.items():
            extra += [f"--{key.replace('_', '-')}", val]
        argv = argv[:1] + extra + argv[1:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

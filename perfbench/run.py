"""Solve benchmark for the three IP-PMM linear-solver paths.

    python3 perfbench/run.py --workload poisson-minres --seed 1 --seconds 30 --trace 0

Closed loop: one process, one caller, one solve at a time. Each solve gets a
freshly generated instance whose generator seed comes from ``--seed``. After a
short warm-up solve, the run generates, solves, checks and scores as many
instances as take about ``--seconds`` at the nominal pace of the workload, so
the instances of a run depend only on ``--seed`` and ``--seconds``. Each solve
is timed against a reference kernel run right before, during and after it.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` pairs every traced
solve with an untraced solve of the same instance and prints the per-layer
metrics. ``--workload all`` runs every
workload in its own process. The last line of standard output is the result
object; the line before it is a summary with the environment. See README.md.
"""
from __future__ import annotations

import os

# single-threaded baseline: pin BLAS/OpenMP before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

try:
    import sparseipm
except ImportError:
    sparseipm = None
if sparseipm is None or not Path(sparseipm.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: no sparseipm package under {SRC}")

from sparseipm import ippmm

from reference import Reference
from tracing import Tracer
from workloads import WORKLOADS, check_solve

WARMUP_ITERS = 3

# wall seconds of one timed instance (set-up, solve, reference kernel, check)
# at the commit that added this benchmark, on 2 CPUs with one BLAS thread
NOMINAL_S = {"portfolio-direct": 0.30, "fmri-pcg": 0.37, "poisson-minres": 5.8,
             "logistic-minres": 4.5}
# share of the nominal time spent on each reference measurement
REFERENCE_SHARE = 0.05
# median wall time of the reference kernel on the same machine; setup_s is
# reported in seconds at this reference speed
REFERENCE_NOMINAL_S = 5.5e-3
# set-ups timed per run at least; extra instances are built and dropped
MIN_SETUPS = 60
# a solve is sampled at its next outer iteration once this many seconds have
# passed since it started or was last sampled; each sample takes SAMPLE_S
SAMPLE_INTERVAL_S = 1.0
SAMPLE_S = 0.05
# a run this many times slower than planned stops early, to end in time
OVERRUN = 4.0

# (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = [("setup_s", "s"), ("solve_ref.p50", "ref"), ("solve_ref.tail", "ref"),
              ("outer_iters", "count"), ("objective", "1"), ("peak_rss_mb", "MB")]

_CALLS_SELF = ["problems.gradient", "problems.hess_action", "problems.hess_diag",
               "problems.objective", "linops.bccb", "ippmm.assemble", "ippmm.matvec",
               "krylov.minres", "krylov.pcg", "krylov.chol", "krylov.chol_solve",
               "precond.build", "precond.apply", "dropping.scan"]
_SELF_ONLY = ["ippmm.lu_factor", "ippmm.lu_solve", "ippmm.residuals", "ippmm.rhs",
              "ippmm.step"]
_TOTAL_ONLY = {"harness.generate.s": "harness.generate",
               "problems.build.s": "problems.build",
               "metrics.score.s": "metrics.score"}


def planned_solves(workload: str, seconds: float) -> int:
    """Instances in a run: as many as take ``seconds`` at the nominal pace."""
    return max(1, round(seconds / NOMINAL_S[workload]))


def instance_seed(seed: int, *index: int) -> int:
    """Generator seed of instance ``index`` of a run; (0,) is the warm-up and
    (i, k) with k >= 1 are set-up-only instances."""
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


def timed_setup(make, seed):
    t0 = time.perf_counter()
    case = make(seed)
    return case, time.perf_counter() - t0


def timed_solve(case):
    """Solve one case; returns (x or None, report or None, status, wall)."""
    t0 = time.perf_counter()
    try:
        (x, _, _), report = ippmm.solve(case.program, case.options)
    except Exception as exc:  # an escaping exception is a failed solve
        wall = time.perf_counter() - t0
        print(f"solve raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, None, f"exception:{type(exc).__name__}", wall
    return x, report, report.status, time.perf_counter() - t0


def warm_up(make, seed):
    case = make(instance_seed(seed, 0))
    case.options = dataclasses.replace(case.options, max_iter=WARMUP_ITERS)
    timed_solve(case)


def outcome(case, x, report, status, wall, setup_s):
    """Per-solve record: output check, scores and counts."""
    rec = {"status": status, "solve_s": wall, "setup_s": setup_s, "passed": False,
           "false_claim": False}
    if report is not None:
        rec.update(check_solve(case.program, case.options, x, report))
        rec.update(outer=report.iterations, inner=report.inner_iterations,
                   scores=case.score(x))
    return rec


def tail(values):
    """(value, percentile): the highest order statistic with ten samples
    beyond it, or the maximum when that would not lie above the median."""
    s = sorted(values)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def trimmed_mean(values, cut=0.1):
    """Mean without the lowest and highest ``cut`` share of the values."""
    s = sorted(values)
    k = int(cut * len(s))
    return statistics.mean(s[k:len(s) - k])


def _median(values):
    values = [v for v in values if np.isfinite(v)]
    return statistics.median(values) if values else None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "sparseipm").glob("*.py")))


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed):
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": {v: int(os.environ[v]) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": git_commit(), "seed": seed,
            "src_sparseipm_lines": src_lines()}


def summary(workload, seed, records):
    """Values that are printed but not gated: failure shares, inner
    iterations, final KKT residual and the family's quality score."""
    walls = [r["solve_s"] for r in records]
    wall_tail, pct = tail(walls)
    passed = sum(r["passed"] for r in records)
    done = [r for r in records if "scores" in r]
    quality = {k: _median([r["scores"][k] for r in done])
               for k in (done[0]["scores"] if done else {})}
    return {"workload": workload, "env": environment(seed), "solves": len(records),
            "statuses": dict(Counter(r["status"] for r in records)),
            "failed_frac": 1.0 - passed / len(records),
            "optimal_per_s": passed / sum(walls),
            "solve_s.p50": statistics.median(walls), "solve_s.tail": wall_tail,
            "solve_s.tail_percentile": pct, "solve_s.tail_samples": len(walls),
            "setup_wall_s": _median([r["setup_s"] for r in records]),
            "reference_s": _median([r.get("reference_s", np.nan) for r in records]),
            "inner_iters": _median([r["inner"] for r in done]),
            "kkt_final": _median([r["kkt_final"] for r in done]),
            "quality": quality}


def end_to_end(records):
    done = [r for r in records if "scores" in r]
    values = {
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(
            s for r in records for s in r["setup_ref"]),
        "solve_ref.p50": statistics.median(r["solve_ref"] for r in records),
        "solve_ref.tail": tail([r["solve_ref"] for r in records])[0],
        "outer_iters": trimmed_mean([r["outer"] for r in done]),
        "objective": _median([r["scores"]["objective"] for r in done]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_untraced(make, seed, solves, seconds, nominal):
    """``solves`` timed instances. Each solve time is also divided by the
    mean of the reference kernel's times right before, during and right
    after the solve; each set-up time by the time right before it."""
    reference = Reference()
    budget = REFERENCE_SHARE * nominal
    setups = -(-MIN_SETUPS // solves)
    warm_up(make, seed)
    reference.work()
    records = []
    stop = time.perf_counter() + OVERRUN * seconds
    before = reference.seconds(budget)
    for i in range(1, solves + 1):
        if time.perf_counter() > stop:
            print(f"stopped after {len(records)} of {solves} solves", file=sys.stderr)
            break
        case, setup_s = timed_setup(make, instance_seed(seed, i))
        walls = [setup_s] + [timed_setup(make, instance_seed(seed, i, k))[1]
                             for k in range(1, setups)]
        with reference.during(ippmm, "kkt_residuals", SAMPLE_INTERVAL_S,
                              SAMPLE_S) as sampled:
            x, report, status, wall = timed_solve(case)
        wall -= sampled["spent_s"]
        after = reference.seconds(budget)
        rec = outcome(case, x, report, status, wall, setup_s)
        rec["setup_ref"] = [w / before for w in walls]
        rec["reference_s"] = statistics.mean([before, *sampled["samples"], after])
        rec["solve_ref"] = wall / rec["reference_s"]
        records.append(rec)
        before = after
    return records


# ---------------------------------------------------------------------------
# traced run


def reconcile(tracer, report, wall):
    """Differences between the trace and the solve's own report; empty when
    they agree."""
    mismatches = []
    iters = tracer.counts["krylov.minres.iters"] + tracer.counts["krylov.pcg.iters"]
    if iters != report.inner_iterations:
        mismatches.append(f"krylov iters {iters} != inner_iterations "
                          f"{report.inner_iterations}")
    contexts = tracer.calls["ippmm.context"]
    # a step that raises ends the solve after a context build but before
    # the iteration is counted
    extra = 1 if report.status == "numerical-failure" else 0
    if not report.iterations <= contexts <= report.iterations + extra:
        mismatches.append(f"context builds {contexts} != iterations {report.iterations}")
    covered = tracer.in_solve_self_s + tracer.self_s["ippmm.solve"]
    if abs(covered - wall) > 1e-3 + 5e-3 * wall:
        mismatches.append(f"span self times {covered:.6f} s != solve wall {wall:.6f} s")
    return mismatches


def _frac(tally, key, calls):
    return tally["counts"][key] / calls if calls else 0.0


def per_layer(tally, solves, iterations, overhead):
    """Per-layer metrics: means per traced solve, fractions pooled."""
    calls, self_s, total_s = tally["calls"], tally["self_s"], tally["total_s"]
    out = {}
    for layer in _CALLS_SELF:
        out[layer + ".calls"] = (calls[layer] / solves, "count")
        out[layer + ".self_s"] = (self_s[layer] / solves, "s")
    for layer in _SELF_ONLY:
        out[layer + ".self_s"] = (self_s[layer] / solves, "s")
    for name, layer in _TOTAL_ONLY.items():
        out[name] = (total_s[layer] / solves, "s")
    out["problems.gradient.calls_per_iter"] = (
        calls["problems.gradient"] / iterations if iterations else 0.0, "ratio")
    out["ippmm.untraced_s"] = (self_s["ippmm.solve"] / solves, "s")
    for k in ("minres", "pcg"):
        name = "krylov." + k
        out[name + ".iters"] = (tally["counts"][name + ".iters"] / solves, "count")
        out[name + ".converged_frac"] = (_frac(tally, name + ".converged", calls[name]),
                                         "ratio")
        out[name + ".capped_frac"] = (_frac(tally, name + ".capped", calls[name]),
                                      "ratio")
    out["krylov.chol.nnz"] = (_frac(tally, "krylov.chol.nnz", calls["krylov.chol"]),
                              "count")
    for key in ("dropping.dropped", "dropping.audit_violations"):
        out[key] = (tally["counts"][key] / solves, "count")
    out["trace.overhead_s"] = (overhead, "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in sorted(out.items())}


def traced_solve(tracer, make, seed):
    """One traced set-up, solve and scoring; returns (record, report, mismatches)."""
    tracer.reset()
    with tracer.installed():
        case, setup_s = timed_setup(make, seed)
        x, report, status, wall = timed_solve(case)
        with tracer.region("metrics.score"):
            rec = outcome(case, x, report, status, wall, setup_s)
    mismatches = reconcile(tracer, report, wall) if report is not None else []
    if not tracer.restored():
        mismatches.append("a wrapped name was not restored")
    return rec, report, mismatches


def run_traced(make, seed, pairs, seconds):
    """``pairs`` pairs of (untraced, traced) solves of one instance."""
    tracer = Tracer()
    tally = {key: Counter() for key in ("calls", "self_s", "total_s", "counts")}
    warm_up(make, seed)
    records, untraced_walls, mismatches = [], [], []
    iterations = 0
    stop = time.perf_counter() + OVERRUN * seconds
    for i in range(1, pairs + 1):
        if time.perf_counter() > stop:
            print(f"stopped after {len(records)} of {pairs} pairs", file=sys.stderr)
            break
        # alternate which side of the pair runs first
        if i % 2:
            untraced_walls.append(timed_solve(make(instance_seed(seed, i)))[3])
        rec, report, found = traced_solve(tracer, make, instance_seed(seed, i))
        if not i % 2:
            untraced_walls.append(timed_solve(make(instance_seed(seed, i)))[3])
        records.append(rec)
        mismatches += found
        iterations += report.iterations if report is not None else 0
        for key, counter in tally.items():
            counter.update(getattr(tracer, key))
    overhead = (statistics.median(r["solve_s"] for r in records)
                - statistics.median(untraced_walls))
    return records, per_layer(tally, len(records), iterations, overhead), mismatches


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    make = WORKLOADS[args.workload]
    solves = planned_solves(args.workload, args.seconds)
    if args.trace:
        records, metrics, mismatches = run_traced(make, args.seed, max(1, solves // 2),
                                                  args.seconds)
    else:
        records = run_untraced(make, args.seed, solves, args.seconds,
                               NOMINAL_S[args.workload])
        metrics, mismatches = end_to_end(records), []
    for line in mismatches:
        print(f"trace mismatch: {line}", file=sys.stderr)
    info = summary(args.workload, args.seed, records)
    info["trace_reconciled"] = not mismatches if args.trace else None
    print(json.dumps({"summary": info}))
    failed = sum(not r["passed"] for r in records)
    correct = not mismatches and not any(r["false_claim"] for r in records)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the benchmark itself: the traced counts reconcile with the
solver's own report, wrappers are restored, the output check catches a false
``optimal`` and BENCHMARK.json names exactly the metrics the runs print.

    python3 -m pytest perfbench
"""
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

import run
from reference import Reference
from tracing import Tracer
from workloads import WORKLOADS, check_solve

from sparseipm import ippmm, krylov

# outer iterations per solve in these tests; the solve paths are unchanged
CAPS = {"portfolio-direct": None, "fmri-pcg": None, "poisson-minres": 25,
        "logistic-minres": 8}


def _capped(name):
    def make(seed):
        case = WORKLOADS[name](seed)
        if CAPS[name] is not None:
            case.options = dataclasses.replace(case.options, max_iter=CAPS[name])
        return case
    return make


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_reconcile_with_report(name):
    tracer = Tracer()
    rec, report, mismatches = run.traced_solve(tracer, _capped(name), 3)
    assert mismatches == []
    assert rec["status"] == report.status
    krylov_iters = tracer.counts["krylov.minres.iters"] + tracer.counts["krylov.pcg.iters"]
    assert krylov_iters == report.inner_iterations
    assert tracer.calls["ippmm.context"] == report.iterations
    covered = tracer.in_solve_self_s + tracer.self_s["ippmm.solve"]
    assert covered == pytest.approx(tracer.total_s["ippmm.solve"], rel=1e-9)
    assert tracer.restored()
    assert ippmm.minres is krylov.minres


def test_wrappers_restored_when_solve_raises():
    tracer = Tracer()
    original = ippmm.kkt_residuals
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert ippmm.kkt_residuals is not original
            1 / 0
    assert ippmm.kkt_residuals is original
    assert tracer.restored()


def test_escaping_exception_is_a_failed_solve():
    case = WORKLOADS["portfolio-direct"](1)
    case.options = dataclasses.replace(case.options, linear_solver="pcg-normal")
    x, report, status, _ = run.timed_solve(case)
    assert report is None and status == "exception:UnsupportedStructureError"
    assert not run.outcome(case, x, report, status, 0.0, 0.0)["passed"]


def test_output_check_catches_false_optimal():
    case = WORKLOADS["portfolio-direct"](1)
    (x, _, _), report = ippmm.solve(case.program, case.options)
    assert report.status == "optimal"
    assert check_solve(case.program, case.options, x, report)["passed"]
    moved = 1.01 * x  # A @ ones is zero for this program, so scale instead
    verdict = check_solve(case.program, case.options, moved, report)
    assert not verdict["passed"] and verdict["false_claim"]
    flipped = x.copy()
    flipped[case.program.nonneg[0]] = -1e-12
    assert check_solve(case.program, case.options, flipped, report)["false_claim"]


def test_tail_has_ten_samples_beyond_it():
    values = list(range(40))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    empty = {key: run.Counter() for key in ("calls", "self_s", "total_s", "counts")}
    layers = run.per_layer(empty, 1, 0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: v["unit"] for name, v in layers.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_run_size_depends_only_on_its_arguments():
    assert set(run.NOMINAL_S) == set(WORKLOADS)
    assert run.planned_solves("portfolio-direct", 35) == round(35 / 0.30)
    assert run.planned_solves("poisson-minres", 0.1) == 1


def test_reference_kernel_is_timed_over_its_budget():
    ref = Reference()
    assert ref.seconds() > 0
    t0 = time.perf_counter()
    ref.seconds(0.05)
    assert time.perf_counter() - t0 >= 0.05


def test_reference_samples_during_a_solve_and_restores():
    ref = Reference()
    original = ippmm.kkt_residuals
    case = WORKLOADS["portfolio-direct"](1)
    with ref.during(ippmm, "kkt_residuals", 0.0, 0.0) as sampled:
        _, report = ippmm.solve(case.program, case.options)
    assert ippmm.kkt_residuals is original
    assert len(sampled["samples"]) == report.iterations + 1  # one per KKT check
    assert sampled["spent_s"] >= sum(sampled["samples"])


def test_instance_seeds_follow_the_run_seed():
    assert run.instance_seed(5, 1) == run.instance_seed(5, 1)
    seeds = {run.instance_seed(s, i) for s in range(3) for i in range(3)}
    assert len(seeds) == 9
    a = WORKLOADS["fmri-pcg"](run.instance_seed(5, 1)).program.A
    b = WORKLOADS["fmri-pcg"](run.instance_seed(5, 1)).program.A
    assert np.array_equal(a.toarray(), b.toarray())

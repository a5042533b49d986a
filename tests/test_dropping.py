"""The solver does not drop variables. ``SolverOptions.dropping`` and
``eps_drop`` are only checked, ``SolveReport.drop_audit`` is always None and
``sparseipm.dropping`` keeps two names that raise, because the benchmark
harness in ``perfbench/`` still names all of them."""
import json

import numpy as np
import pytest

from planted import planted_qp
from sparseipm.dropping import scan_and_drop, verify_dropped
from sparseipm.ippmm import SolverOptions, solve


@pytest.mark.parametrize("name", [scan_and_drop, verify_dropped],
                         ids=["scan_and_drop", "verify_dropped"])
def test_removed_heuristic_raises(name):
    with pytest.raises(NotImplementedError, match="does not drop variables"):
        name()


@pytest.mark.parametrize("path", ["direct-augmented", "pcg-normal", "minres-augmented"])
def test_dropping_option_changes_no_iterate(path):
    prog, _ = planted_qp("diagonal-pairs", 60, 20, 0)
    (x, y, z), off = solve(prog, SolverOptions(tol=1e-9, linear_solver=path))
    (x_on, y_on, z_on), on = solve(prog, SolverOptions(
        tol=1e-9, linear_solver=path, dropping=True, eps_drop=1e-4))
    assert off.status == on.status == "optimal"
    for a, b in ((x, x_on), (y, y_on), (z, z_on)):
        assert np.array_equal(a, b)
    assert on.iterations == off.iterations
    assert on.inner_iterations == off.inner_iterations
    assert on.primal_inf_history == off.primal_inf_history
    assert on.dual_inf_history == off.dual_inf_history


def test_report_has_no_drop_audit():
    prog, _ = planted_qp("plain", 30, 10, 0)
    _, rep = solve(prog, SolverOptions(dropping=True, eps_drop=1e-4))
    assert rep.status == "optimal" and rep.drop_audit is None
    assert not any("drop" in key for key in json.loads(rep.to_json()))

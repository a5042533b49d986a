"""Every solver path against planted-KKT QPs, whose optimal value is known
without trusting any solver (see ``planted.py``)."""
import pytest

from planted import STRUCTURES, planted_qp
from sparseipm.ippmm import SolverOptions, solve


def paths(structure):
    """The paths that apply: the normal equations need a diagonal Q."""
    out = ["direct-augmented", "minres-augmented"]
    return out + ["pcg-normal"] if structure.startswith("diagonal") else out


CASES = [(structure, path, seed) for structure in STRUCTURES
         for path in paths(structure) for seed in (0, 1)]


# dropping is only checked: a solve with it set, as the benchmark's
# workloads set it, reaches the same optimum and reports no drop audit
@pytest.mark.parametrize("dropping", [False, True], ids=["keep", "drop"])
@pytest.mark.parametrize("structure,path,seed", CASES)
def test_path_reaches_the_planted_optimum(structure, path, seed, dropping):
    prog, f_star = planted_qp(structure, 60, 20, seed)
    _, rep = solve(prog, SolverOptions(tol=1e-9, linear_solver=path,
                                       dropping=dropping))
    assert rep.status == "optimal"
    assert rep.drop_audit is None
    assert abs(rep.final_objective - f_star) <= 1e-6 * max(1.0, abs(f_star))

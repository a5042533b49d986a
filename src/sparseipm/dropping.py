"""Variable-dropping heuristic: eliminate variables converging to zero and
verify multiplier signs post-hoc, both from residuals that
``ippmm.kkt_residuals`` formed."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

XI = 1e2  # a dropped variable's dual must be at least XI * eps_drop


@dataclass
class DropAudit:
    """Post-solve audit of the dropped index set V."""

    dropped: np.ndarray      # (index, evaluation) rows
    multipliers: np.ndarray  # recovered z on V
    violated: list           # indices with multiplier <= 0

    def to_dict(self):
        return {
            "dropped": self.dropped.tolist(),
            "multipliers": self.multipliers.tolist(),
            "violated": list(self.violated),
        }


def scan_and_drop(state, rd: np.ndarray, eps_drop: float) -> np.ndarray:
    """Move near-zero variables with well-separated duals into the dropped set.

    A non-negative, still-active variable j is dropped when x_j <= eps_drop,
    z_j >= XI * eps_drop and its dual residual ``rd`` = grad - A'y - z is
    within eps_drop; the log stamps it with ``state.k``, the evaluation that
    found it. Returns the newly dropped indices; mutates the state in place.
    """
    candidates = state.nonneg_active()
    mask = ((state.x[candidates] <= eps_drop)
            & (state.z[candidates] >= XI * eps_drop)
            & (np.abs(rd[candidates]) <= eps_drop))
    newly = candidates[mask]
    state.dropped[newly] = True
    state.x[newly] = 0.0
    state.z[newly] = 0.0
    state.drop_log = np.concatenate(
        [state.drop_log, np.column_stack([newly, np.full(newly.size, state.k)])])
    return newly


def verify_dropped(gy: np.ndarray, drop_log) -> DropAudit:
    """Recover multipliers on the dropped set and flag non-positive entries.

    ``gy`` is grad f(x*) - A'y* at the returned iterate, whose x* is zero on
    V, so z_V = gy_V; for quadratics this is c_V + (Q x*)_V - (A_{:,V})' y*.
    """
    dropped = np.asarray(drop_log, dtype=int).reshape(-1, 2)
    V = dropped[:, 0]
    return DropAudit(dropped, gy[V], V[gy[V] <= 0].tolist())

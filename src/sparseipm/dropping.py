"""Variable-dropping heuristic: eliminate variables converging to zero and
verify multiplier signs post-hoc, both from residuals that
``ippmm.kkt_residuals`` formed."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

XI = 1e2  # a dropped variable's dual must be at least XI * eps_drop


@dataclass
class DropAudit:
    """Post-solve audit of the dropped index set V."""

    dropped: list = field(default_factory=list)      # (index, evaluation) pairs
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))  # recovered z on V
    violated: list = field(default_factory=list)     # indices with multiplier <= 0

    def to_dict(self):
        return {
            "dropped": [[int(j), int(k)] for j, k in self.dropped],
            "multipliers": list(map(float, self.multipliers)),
            "violated": [int(j) for j in self.violated],
        }


def scan_and_drop(state, rd: np.ndarray, eps_drop: float) -> list:
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
    for j in newly:
        state.dropped[j] = True
        state.x[j] = 0.0
        state.z[j] = 0.0
        state.drop_log.append((int(j), int(state.k)))
    return list(map(int, newly))


def verify_dropped(gy: np.ndarray, drop_log) -> DropAudit:
    """Recover multipliers on the dropped set and flag non-positive entries.

    ``gy`` is grad f(x*) - A'y* at the returned iterate, whose x* is zero on
    V, so z_V = gy_V; for quadratics this is c_V + (Q x*)_V - (A_{:,V})' y*.
    """
    audit = DropAudit(dropped=list(drop_log))
    if not drop_log:
        return audit
    V = np.array([j for j, _ in drop_log], dtype=int)
    audit.multipliers = gy[V]
    audit.violated = [int(j) for j, zj in zip(V, gy[V]) if zj <= 0]
    return audit

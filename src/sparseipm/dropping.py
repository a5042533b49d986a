"""Variable-dropping heuristic: eliminate variables converging to zero and
verify multiplier signs post-hoc."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class DropAudit:
    """Post-solve audit of the dropped index set V."""

    dropped: list = field(default_factory=list)      # (index, iteration) pairs
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))  # recovered z on V
    violated: list = field(default_factory=list)     # indices with multiplier <= 0

    def to_dict(self):
        return {
            "dropped": [[int(j), int(k)] for j, k in self.dropped],
            "multipliers": list(map(float, self.multipliers)),
            "violated": [int(j) for j in self.violated],
        }


def scan_and_drop(state, program, eps_drop: float, xi: float) -> list:
    """Move near-zero variables with well-separated duals into the dropped set.

    A non-negative, still-active variable j is dropped when x_j <= eps_drop,
    z_j >= xi * eps_drop and its dual infeasibility is within eps_drop.
    Returns the newly dropped indices; mutates the state in place.
    """
    if eps_drop <= 0 or xi <= 0:
        raise ValueError("eps_drop and xi must be positive")
    rd = program.gradient(state.x) - program.A.T @ state.y - state.z
    candidates = state.nonneg_active()
    mask = ((state.x[candidates] <= eps_drop)
            & (state.z[candidates] >= xi * eps_drop)
            & (np.abs(rd[candidates]) <= eps_drop))
    newly = candidates[mask]
    for j in newly:
        state.dropped[j] = True
        state.x[j] = 0.0
        state.z[j] = 0.0
        state.drop_log.append((int(j), int(state.k)))
    return list(map(int, newly))


def verify_dropped(x_star, y_star, program, drop_log) -> DropAudit:
    """Recover multipliers on the dropped set and flag non-positive entries.

    Uses z_V = (grad f(x*))_V - (A_{:,V})' y*, with x* already expanded by
    zeros on V; for quadratics this is c_V + (Q x*)_V - (A_{:,V})' y*.
    """
    audit = DropAudit(dropped=list(drop_log))
    if not drop_log:
        return audit
    V = np.array([j for j, _ in drop_log], dtype=int)
    grad = program.gradient(x_star)
    zV = grad[V] - (program.A.T @ y_star)[V]
    audit.multipliers = zV
    audit.violated = [int(j) for j, zj in zip(V, zV) if zj <= 0]
    return audit


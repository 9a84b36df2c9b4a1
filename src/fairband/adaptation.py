"""The bandwidth recursion's projection, and the manager step built on it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set, Tuple

import numpy as np

from .core import (SUM_TOL, ApplicationSpec, PlatformSpec, SystemState,
                   fairness_vector, is_feasible)
from .errors import InvariantViolation


@dataclass(frozen=True)
class RmUpdateResult:
    new_bandwidths: np.ndarray
    observed_fairness: np.ndarray
    projections_hit: Set[int]


def _remove_excess(vnew: np.ndarray, excess: float, clipped: np.ndarray) -> np.ndarray:
    """Pull `excess` bandwidth back out of vnew, clipped apps first (in index
    order), then proportionally from everyone."""
    v = vnew.copy()
    for i in np.flatnonzero(clipped):
        if excess <= SUM_TOL:
            break
        take = min(v[i], excess)
        v[i] -= take
        excess -= take
    if excess > SUM_TOL:
        total = v.sum()
        if total > 0.0:
            v *= (total - excess) / total
    return v


def project_bandwidth(raw: np.ndarray, upper: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Project unconstrained bandwidths onto the feasible set; the last axis
    is the app axis.

    Each entry is clipped to [0, upper]. Where a row's sum then exceeds 1 the
    excess is removed, clipped apps first, then proportionally. Returns the
    projected bandwidths and the mask of apps the projection moved.
    """
    box = np.clip(raw, 0.0, upper)
    clipped = box != raw
    total = box.sum(axis=-1)
    over = total > 1.0 + SUM_TOL
    if not over.any():
        return box, clipped
    v = box.copy()
    rows, hit = v.reshape(-1, v.shape[-1]), clipped.reshape(-1, v.shape[-1])
    for r in np.flatnonzero(over):
        rows[r] = _remove_excess(rows[r], total.flat[r] - 1.0, hit[r])
    return v, clipped | (v != box)


def rm_step(state: SystemState,
            matchings: Sequence[float],
            specs: Sequence[ApplicationSpec],
            platform: PlatformSpec) -> RmUpdateResult:
    """One bandwidth-adaptation step.

    Each normalized bandwidth moves by step * F_i and is projected onto
    [0, max_total_bandwidth/cores], with any sum above 1 removed (see
    project_bandwidth).
    """
    vbar = state.bandwidths
    kappa = platform.cores
    if not is_feasible(kappa * vbar, kappa):
        raise InvariantViolation("input state is not a feasible allocation")
    lam = np.array([a.weight for a in specs], dtype=float)
    F = fairness_vector(matchings, vbar, lam)
    vnew, clipped = project_bandwidth(vbar + platform.step * F,
                                      platform.max_total_bandwidth / kappa)
    return RmUpdateResult(vnew, F, set(int(i) for i in np.flatnonzero(clipped)))

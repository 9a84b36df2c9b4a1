"""The bandwidth recursion's projection, and the manager step built on it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set, Tuple

import numpy as np

from .core import (SUM_TOL, ApplicationSpec, PlatformSpec, SystemState,
                   fairness_vector)
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
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project unconstrained bandwidths onto the feasible set; the last axis
    is the app axis.

    Each entry is clipped to [0, upper]. Where a row's sum then exceeds 1 the
    excess is removed, clipped apps first, then proportionally. Returns the
    projected bandwidths, the mask of apps the projection moved and the row
    sums after the clip. A row whose sum is at most 1 + SUM_TOL is the clip
    alone, so it is feasible; only a row above that had its excess removed.
    """
    box = np.minimum(np.maximum(raw, 0.0), upper)
    clipped = box != raw
    total = np.add.reduce(box, axis=-1)
    over = total > 1.0 + SUM_TOL
    # the ufunc reduce skips ndarray.any's Python wrapper
    if not np.logical_or.reduce(over, axis=None):
        return box, clipped, total
    v = box.copy()
    rows, hit = v.reshape(-1, v.shape[-1]), clipped.reshape(-1, v.shape[-1])
    for r in np.flatnonzero(over):
        rows[r] = _remove_excess(rows[r], total.flat[r] - 1.0, hit[r])
    return v, clipped | (v != box), total


def rm_step(state: SystemState,
            matchings: Sequence[float],
            specs: Sequence[ApplicationSpec],
            platform: PlatformSpec) -> RmUpdateResult:
    """One bandwidth-adaptation step.

    Each normalized bandwidth moves by step * F_i and is projected onto
    [0, platform.upper], with any sum above 1 removed (see
    project_bandwidth).
    """
    vbar = state.bandwidths
    if why := platform.breach(vbar, [a.id for a in specs]):
        raise InvariantViolation(
            f"input state is not a feasible allocation: {why}")
    lam = np.array([a.weight for a in specs], dtype=float)
    F = fairness_vector(matchings, vbar, lam)
    vnew, clipped, _ = project_bandwidth(vbar + platform.step * F,
                                         platform.upper)
    return RmUpdateResult(vnew, F, set(int(i) for i in np.flatnonzero(clipped)))

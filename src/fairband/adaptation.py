"""The bandwidth recursion's projection, and the manager step built on it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set, Tuple

import numpy as np

from .core import (LIMIT, SUM_TOL, ZERO, ApplicationSpec, PlatformSpec,
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

    Each entry is clipped to [0, upper]. Where a row's sum then exceeds
    LIMIT the excess is removed (see remove_excess). Returns the projected
    bandwidths v, the mask v != raw of apps the projection moved, and the
    row sums after the clip. A row whose sum is at most LIMIT is the clip
    alone, so it is feasible; only a row above that had its excess removed.
    """
    v = np.minimum(np.maximum(raw, ZERO), upper)
    total = np.add.reduce(v, axis=-1)
    remove_excess(v, raw, total)
    return v, v != raw, total


def remove_excess(v: np.ndarray, raw: np.ndarray, total) -> None:
    """Remove, in place, the excess of each row of the clipped bandwidths
    `v` whose sum `total` exceeds LIMIT; `raw` are the bandwidths before
    the clip. The apps the clip moved, v != raw, give theirs up first."""
    for row in map(tuple, np.argwhere(total > LIMIT)):
        v[row] = _remove_excess(v[row], total[row] - 1.0, v[row] != raw[row])


def rm_step(state: Tuple[np.ndarray, np.ndarray],
            matchings: Sequence[float],
            specs: Sequence[ApplicationSpec],
            platform: PlatformSpec) -> RmUpdateResult:
    """One bandwidth-adaptation step.

    Each normalized bandwidth moves by step * F_i and is projected onto
    [0, platform.upper], with any sum above LIMIT removed (see
    project_bandwidth).
    """
    _, vbar = state
    if why := platform.breach(vbar, [a.id for a in specs]):
        raise InvariantViolation(
            f"input state is not a feasible allocation: {why}")
    lam = np.array([a.weight for a in specs], dtype=float)
    F = fairness_vector(matchings, vbar, lam)
    vnew, clipped, _ = project_bandwidth(vbar + platform.step * F,
                                         platform.upper)
    return RmUpdateResult(vnew, F, set(int(i) for i in np.flatnonzero(clipped)))

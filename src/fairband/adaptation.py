"""The bandwidth recursion's projection, and the manager step built on it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set, Tuple

import numpy as np

from .core import (SUM_TOL, ZERO, ApplicationSpec, PlatformSpec,
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


def project_bandwidth(raw: np.ndarray, upper: float, out=None
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project unconstrained bandwidths onto the feasible set; the last axis
    is the app axis.

    Each entry is clipped to [0, upper]. Where a row's sum then exceeds 1 the
    excess is removed, clipped apps first, then proportionally. Returns the
    projected bandwidths, the mask of apps the projection moved and the row
    sums after the clip. A row whose sum is at most 1 + SUM_TOL is the clip
    alone, so it is feasible; only a row above that had its excess removed.
    `out`, when given, is the (bandwidths, mask) pair to write the first two
    into; either may be None, and a None mask is built only to remove an
    excess (else None is returned). `raw` must not be one of them.
    """
    v, clipped = (None, None) if out is None else out
    v = np.maximum(raw, ZERO, out=v)
    np.minimum(v, upper, out=v)
    if out is None or clipped is not None:
        clipped = np.not_equal(v, raw, out=clipped)
    total = np.add.reduce(v, axis=-1)
    over = total > 1.0 + SUM_TOL
    # one row's test is a numpy bool; the ufunc reduce over many rows skips
    # ndarray.any's Python wrapper
    if not (np.logical_or.reduce(over, axis=None) if over.ndim else over):
        return v, clipped, total
    clipped = np.not_equal(v, raw) if clipped is None else clipped
    box = v.copy()
    for row in map(tuple, np.argwhere(over)):
        v[row] = _remove_excess(box[row], total[row] - 1.0, clipped[row])
    np.logical_or(clipped, v != box, out=clipped)
    return v, clipped, total


def rm_step(state: Tuple[np.ndarray, np.ndarray],
            matchings: Sequence[float],
            specs: Sequence[ApplicationSpec],
            platform: PlatformSpec) -> RmUpdateResult:
    """One bandwidth-adaptation step.

    Each normalized bandwidth moves by step * F_i and is projected onto
    [0, platform.upper], with any sum above 1 removed (see
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

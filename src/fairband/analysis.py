"""Post-run verification: interpolation, deviation metrics, invariant sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import LIMIT, SUM_TOL, PlatformSpec
from .errors import ConfigurationError
from .simkernel import QUIET, Trajectory

# {app id: (times, values)}: per-app paths, piecewise constant with the value
# over [t_k, t_{k+1}) being the t_k sample
Paths = Dict[str, Tuple[np.ndarray, np.ndarray]]


def interpolate(trajectory: Trajectory, field: str) -> Paths:
    """One trajectory column as per-app paths."""
    if len(trajectory) == 0:
        raise ConfigurationError("cannot interpolate an empty trajectory")
    if field not in ("service", "bandwidth", "matching", "fairness"):
        raise ConfigurationError(f"unsupported field {field!r}")
    return trajectory.per_app(field)


def sup_deviation_per_app(paths_a: Paths, paths_b: Paths,
                          horizon: float) -> Dict[str, float]:
    """Exact sup over [0, horizon] of |a(t) - b(t)| per app: the largest gap
    at a breakpoint of either path, both piecewise constant on strictly
    increasing breakpoints; one difference over all rows when every app has
    the same breakpoints in both. Equal values differ by 0, two equal
    infinities too."""
    if set(paths_a) != set(paths_b):
        raise ConfigurationError("paths cover different app sets")
    end = horizon + SUM_TOL
    pairs = [(paths_a[aid], paths_b[aid]) for aid in paths_a]
    sizes = [len(ta) for (ta, _), _ in pairs]
    if 0 not in sizes and sizes == [len(tb) for _, (tb, _) in pairs]:
        ta, va, tb, vb = (np.concatenate([p[side][k] for p in pairs])
                          for side in (0, 1) for k in (0, 1))
        if np.array_equal(ta, tb):
            gap = np.abs(np.subtract(va, vb, out=np.zeros_like(va),
                                     where=va != vb))
            gap[ta > end] = 0.0
            heads = np.cumsum([0] + sizes[:-1])
            return dict(zip(paths_a, np.maximum.reduceat(gap, heads).tolist()))
    out = {}
    for aid, ((ta, va), (tb, vb)) in zip(paths_a, pairs):
        ta, tb = (t[:np.searchsorted(t, end, side="right")] for t in (ta, tb))
        ia = np.maximum(np.searchsorted(ta, tb, side="right") - 1, 0)
        ib = np.maximum(np.searchsorted(tb, ta, side="right") - 1, 0)
        a = np.concatenate((va[:len(ta)], va[ia]))
        b = np.concatenate((vb[ib], vb[:len(tb)]))
        gap = np.abs(np.subtract(a, b, out=np.zeros_like(a), where=a != b))
        out[aid] = float(gap.max()) if gap.size else 0.0
    return out


@dataclass(frozen=True)
class InvariantReport:
    feasibility_ok: bool
    starvation_ok: bool
    feasibility_violation_at: Optional[float]
    starvation_violation_at: Optional[float]
    max_sum: float
    min_bandwidth: float


def sweep_invariants(trajectory: Trajectory,
                     platform: PlatformSpec) -> InvariantReport:
    """Check the run against the feasibility and starvation guarantees,
    which a nan share or instant sum fails."""
    v = trajectory.bandwidth
    # each row's instant sum, added in numpy's pairwise order as breach and
    # the kernel add a row; inf - inf sums to nan, which fails below
    with np.errstate(**QUIET):
        sums = np.concatenate([np.empty(0)] + [np.repeat(
            np.add.reduce(v[b.lo:b.hi].reshape(b.T, b.n), axis=-1), b.n)
            for b in trajectory.blocks])
    # the first row of an instant whose sum, or some share, leaves the
    # feasible set, and the first starved row
    feas_at, starve_at = (float(trajectory.time[r][0]) if r.any() else None
                          for r in (~(sums <= LIMIT) | platform.outside(v),
                                    ~(v > platform.step)))
    return InvariantReport(feas_at is None, starve_at is None, feas_at,
                           starve_at, float(sums.max()) if sums.size else 0.0,
                           float(v.min()) if v.size else 0.0)


def convergence_report(trajectory: Trajectory, goal, tol: float,
                       window: int = 100
                       ) -> Tuple[bool, Optional[float], Dict[str, float]]:
    """Did the bandwidths settle at the goal?

    Settled means the final `window` manager instants all stay within tol of
    the goal bandwidth vector in max norm. Returns (settled, settle time,
    final |fairness| per app). The goal is ordered like the apps of every
    recorded instant; unless every instant holds the same ids in the same
    order, that is in one block, there is no verdict: (False, None, {}).
    """
    if not (tol > 0.0):
        raise ConfigurationError("tol must be positive")
    goal = np.asarray(goal, dtype=float)
    blocks, n = trajectory.blocks, len(goal)
    if len(blocks) != 1 or blocks[0].n != n:
        return False, None, {}
    T, ids = blocks[0].T, blocks[0].ids
    err = np.abs(trajectory.bandwidth.reshape(T, n) - goal)
    within = err.max(axis=1) <= tol
    settled = bool(within[-min(window, T):].all())
    # the first instant of the final run within tol, if there is one
    bad = np.flatnonzero(~within)
    first = bad[-1] + 1 if bad.size else 0
    settle_time = float(trajectory.time[first * n]) if first < T else None
    residuals = dict(zip(ids, np.abs(trajectory.fairness[-n:]).tolist()))
    return settled, settle_time, residuals

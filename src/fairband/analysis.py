"""Post-run verification: interpolation, deviation metrics, invariant sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import SUM_TOL, PlatformSpec
from .errors import ConfigurationError
from .simkernel import Trajectory


@dataclass(frozen=True)
class InterpolatedPath:
    """Piecewise-constant per-app paths over time.

    The value over [t_k, t_{k+1}) is the t_k sample (left-closed intervals).
    """
    values: Dict[str, Tuple[np.ndarray, np.ndarray]]

    def app_ids(self):
        return list(self.values)

    def value_at(self, app_id: str, t: float) -> float:
        times, vals = self.values[app_id]
        i = int(np.searchsorted(times, t, side="right")) - 1
        if i < 0:
            raise ConfigurationError(
                f"time {t} precedes the first sample of app {app_id!r}")
        return float(vals[i])


def interpolate(trajectory: Trajectory, field: str) -> InterpolatedPath:
    """Piecewise-constant interpolation of one trajectory column."""
    if len(trajectory) == 0:
        raise ConfigurationError("cannot interpolate an empty trajectory")
    if field not in ("service", "bandwidth", "matching", "fairness"):
        raise ConfigurationError(f"unsupported field {field!r}")
    return InterpolatedPath(trajectory.per_app(field))


def sup_deviation_per_app(path_a: InterpolatedPath, path_b: InterpolatedPath,
                          horizon: float) -> Dict[str, float]:
    """Exact sup over [0, horizon] of |a(t) - b(t)| per app.

    Both paths are piecewise constant, so the sup is attained on the merged
    breakpoint grid.
    """
    if set(path_a.values) != set(path_b.values):
        raise ConfigurationError("paths cover different app sets")
    out = {}
    for aid in path_a.values:
        ta, va = path_a.values[aid]
        tb, vb = path_b.values[aid]
        grid = np.union1d(ta, tb)
        grid = grid[grid <= horizon + SUM_TOL]
        ia = np.maximum(np.searchsorted(ta, grid, side="right") - 1, 0)
        ib = np.maximum(np.searchsorted(tb, grid, side="right") - 1, 0)
        out[aid] = float(np.max(np.abs(va[ia] - vb[ib]))) if grid.size else 0.0
    return out


def sup_deviation(path_a: InterpolatedPath, path_b: InterpolatedPath,
                  horizon: float) -> float:
    """Largest per-app sup deviation (see sup_deviation_per_app)."""
    per = sup_deviation_per_app(path_a, path_b, horizon)
    return max(per.values()) if per else 0.0


@dataclass(frozen=True)
class InvariantReport:
    feasibility_ok: bool
    starvation_ok: bool
    balance_ok: bool
    feasibility_violation_at: Optional[float]
    starvation_violation_at: Optional[float]
    balance_contained_at: Optional[float]
    max_sum: float
    min_bandwidth: float


def sweep_invariants(trajectory: Trajectory, platform: PlatformSpec,
                     zeta: Optional[float] = None) -> InvariantReport:
    """Check the run against the feasibility, starvation and balance
    guarantees."""
    v = trajectory.bandwidth
    times, inv = np.unique(trajectory.time, return_inverse=True)
    sums = np.bincount(inv, weights=v, minlength=len(times))
    cap = 1.0 / platform.cores

    box_bad = (v < -SUM_TOL) | (v > cap + SUM_TOL)
    sum_bad = sums > 1.0 + SUM_TOL
    feas_ok = not (box_bad.any() or sum_bad.any())
    feas_at = None
    if not feas_ok:
        cands = []
        if box_bad.any():
            cands.append(float(trajectory.time[box_bad][0]))
        if sum_bad.any():
            cands.append(float(times[sum_bad][0]))
        feas_at = min(cands)

    starve_bad = v <= platform.step
    starve_ok = not starve_bad.any()
    starve_at = None if starve_ok else float(trajectory.time[starve_bad][0])

    balance_ok = True
    contained_at = None
    if zeta is not None:
        over = np.bincount(inv, weights=(v > zeta + SUM_TOL).astype(float),
                           minlength=len(times)) > 0.0
        if over.any():
            last_bad = int(np.flatnonzero(over)[-1])
            if last_bad + 1 < len(times):
                contained_at = float(times[last_bad + 1])
            else:
                balance_ok = False
        else:
            contained_at = float(times[0])

    return InvariantReport(
        feasibility_ok=feas_ok,
        starvation_ok=starve_ok,
        balance_ok=balance_ok,
        feasibility_violation_at=feas_at,
        starvation_violation_at=starve_at,
        balance_contained_at=contained_at,
        max_sum=float(sums.max()) if sums.size else 0.0,
        min_bandwidth=float(v.min()) if v.size else 0.0,
    )


def convergence_report(trajectory: Trajectory, goal, tol: float,
                       window: int = 100
                       ) -> Tuple[bool, Optional[float], Dict[str, float]]:
    """Did the bandwidths settle at the goal?

    Settled means the final `window` manager instants all stay within tol of
    the goal bandwidth vector in max norm. Returns (settled, settle time,
    final |fairness| per app). The goal is ordered like the apps of every
    recorded instant; unless every instant holds the same ids in the same
    order, there is no verdict: (False, None, {}).
    """
    if not (tol > 0.0):
        raise ConfigurationError("tol must be positive")
    goal = np.asarray(goal, dtype=float)
    n = goal.shape[0]
    T, extra = divmod(len(trajectory), n)
    app, time = trajectory.app, trajectory.time
    if extra or not ((app.reshape(T, n) == app[:n]).all()
                     and (time.reshape(T, n) == time[::n, None]).all()):
        return False, None, {}
    times = time[::n]
    V = trajectory.bandwidth.reshape(T, n)
    err = np.max(np.abs(V - goal), axis=1)
    within = err <= tol
    settled = bool(within[-min(window, T):].all())
    settle_time: Optional[float] = None
    bad = np.flatnonzero(~within)
    if within.all():
        settle_time = float(times[0])
    elif bad[-1] + 1 < T:
        settle_time = float(times[bad[-1] + 1])
    residuals = {str(a): abs(float(p)) for a, p in
                 zip(app[-n:], trajectory.fairness[-n:])}
    return settled, settle_time, residuals

"""Deterministic multi-rate simulation engine.

The engine advances one logical timeline: at every resource-manager instant
it measures per-app matchings from the fluid job model (response = C / v),
applies the bandwidth recursion, and lets due applications apply their
service recursion. Applications may update on a slower grid than the manager
and may join or leave mid-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adaptation import rm_step
from .core import (SUM_TOL, ApplicationSpec, JobModel, PlatformSpec,
                   SystemState, fairness_vector, make_state)
from .errors import (AdmissionError, ConfigurationError, InvariantViolation,
                     MeasurementError)


def job_execution_requirement(model: JobModel, service: float) -> float:
    """Execution time of one job at the given service level."""
    if model.kind == "synthetic":
        return model.a * service + model.b
    if model.kind == "multimedia":
        return model.alpha * service
    if model.kind == "control":
        # constant execution time; alpha/beta keeps D*v/C == beta*v/s - 1 + 1
        return model.alpha / model.beta
    raise ConfigurationError(f"unknown job model kind {model.kind!r}")


def job_deadline(model: JobModel, service: float) -> float:
    """Deadline of one job; constant except for the control kind, where it
    shrinks with the sampling rate (alpha / s)."""
    if model.kind == "control":
        if not (service > 0.0):
            raise ConfigurationError("control model requires service > 0")
        return model.alpha / service
    return model.deadline


def measure_job(model: JobModel, service: float,
                bandwidth_unnormalized: float) -> Tuple[float, float, float]:
    """Run one fluid job: returns (deadline, response, matching).

    Response time is C / v. Zero bandwidth gives an infinite response and the
    limiting matching value -1.
    """
    C = job_execution_requirement(model, service)
    D = job_deadline(model, service)
    if bandwidth_unnormalized <= 0.0:
        return D, math.inf, -1.0
    R = C / bandwidth_unnormalized
    return D, R, D / R - 1.0


@dataclass(frozen=True)
class AsyncTimeline:
    """Update-instant bookkeeping: manager grid, per-app grids, design bound."""
    rm_instants: np.ndarray
    app_instants: List[np.ndarray]
    n_bar: int

    @property
    def horizon(self) -> float:
        return float(self.rm_instants[-1])


def build_timeline(rm_period: float, app_periods: Sequence[float],
                   horizon: float, n_bar: Optional[int] = None) -> AsyncTimeline:
    """Lay out manager and app update grids over [0, horizon].

    Every app period must be at least the manager period (so at least one
    manager update falls in each app interval) and at most n_bar manager
    periods.
    """
    if not (rm_period > 0.0) or not (horizon >= 0.0):
        raise ConfigurationError("rm_period must be positive and horizon non-negative")
    rm = np.arange(0.0, horizon + rm_period * 0.5, rm_period)
    apps = []
    worst = 1
    for i, p in enumerate(app_periods):
        if p < rm_period - SUM_TOL:
            raise ConfigurationError(
                f"app {i}: update period {p} below manager period {rm_period}; "
                "every app interval must contain at least one manager update")
        grid = np.arange(0.0, horizon + p * 0.5, p)
        counts = np.searchsorted(rm, grid[1:], side="left") - \
            np.searchsorted(rm, grid[:-1], side="left")
        worst_i = int(math.ceil(p / rm_period - SUM_TOL))
        worst = max(worst, worst_i, int(counts.max()) if counts.size else 1)
        apps.append(grid)
    bound = worst if n_bar is None else n_bar
    if worst > bound:
        raise ConfigurationError(
            f"an app interval spans {worst} manager updates, above the design bound {bound}")
    return AsyncTimeline(rm, apps, bound)


def timeline_indices(timeline: AsyncTimeline, t: float,
                     app: int) -> Tuple[int, int, int, int]:
    """Index bookkeeping at time t for one app.

    Returns (k_recent, m_recent, psi, n_elapsed):
      k_recent — index of the app's most recent update at or before t
      m_recent — index of the manager's most recent update at or before t
      psi      — index of the app update strictly before manager instant
                 m_recent (0 when there is none)
      n_elapsed — manager updates in the app interval ending at k_recent
                  (defined as the bound for the interval starting there)
    """
    rm = timeline.rm_instants
    grid = timeline.app_instants[app]
    if t < 0.0 or t > timeline.horizon + SUM_TOL:
        raise ConfigurationError(f"time {t} outside the run horizon")
    m = int(np.searchsorted(rm, t, side="right")) - 1
    k = int(np.searchsorted(grid, t, side="right")) - 1
    psi = int(np.searchsorted(grid, rm[m], side="left")) - 1
    psi = max(psi, 0)
    if k + 1 < len(grid):
        n = int(np.searchsorted(rm, grid[k + 1], side="left")
                - np.searchsorted(rm, grid[k], side="left"))
    else:
        n = int(np.searchsorted(rm, grid[k] + (grid[1] - grid[0] if len(grid) > 1 else 0.0),
                                side="left")
                - np.searchsorted(rm, grid[k], side="left")) if len(grid) > 1 else 1
        n = max(n, 1)
    return k, m, psi, max(n, 1)


@dataclass(frozen=True)
class MembershipEvent:
    """An application joining or leaving at a manager instant."""
    time: float
    action: str                       # "join" or "leave"
    spec: Optional[ApplicationSpec] = None
    app_id: Optional[str] = None

    def __post_init__(self):
        if self.action == "join":
            if self.spec is None:
                raise ConfigurationError("join event requires an application spec")
        elif self.action == "leave":
            if self.app_id is None:
                raise ConfigurationError("leave event requires an app id")
        else:
            raise ConfigurationError(f"unknown membership action {self.action!r}")


@dataclass
class Trajectory:
    """Columnar record of a run: one row per (manager instant, live app)."""
    time: np.ndarray
    app: np.ndarray                   # app id per row
    service: np.ndarray
    bandwidth: np.ndarray             # normalized
    deadline: np.ndarray
    response: np.ndarray
    matching: np.ndarray
    fairness: np.ndarray
    events: List[MembershipEvent] = field(default_factory=list)
    config: Dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.time)

    @cached_property
    def _groups(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """Rows grouped by app in one pass over the app column: the ids in
        first-appearance order, a row order that lists each app's rows
        together (the stable sort keeps their row order, which is time
        order) and the end of each app's block in that order. The columns
        are not reassigned after construction, so this is computed once."""
        index: Dict[str, int] = {}
        codes = np.fromiter((index.setdefault(a, len(index)) for a in self.app),
                            dtype=np.intp, count=len(self.app))
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(index)))
        return [str(a) for a in index], order, ends

    def app_ids(self) -> List[str]:
        """Distinct app ids in order of first appearance."""
        return list(self._groups[0])

    def per_app(self, fieldname: str) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Split a column into per-app (times, values) pairs in row order; an
        app that leaves and re-joins keeps one series."""
        ids, order, ends = self._groups
        times = self.time[order]
        values = getattr(self, fieldname)[order]
        starts = np.concatenate(([0], ends[:-1]))
        return {aid: (times[a:b], values[a:b])
                for aid, a, b in zip(ids, starts, ends)}

    @property
    def samples(self) -> List["Sample"]:
        return [Sample(float(self.time[r]), str(self.app[r]),
                       float(self.service[r]), float(self.bandwidth[r]),
                       float(self.deadline[r]), float(self.response[r]),
                       float(self.matching[r]), float(self.fairness[r]))
                for r in range(len(self.time))]


@dataclass(frozen=True)
class Sample:
    """One trajectory row as a value object."""
    time: float
    app_id: str
    service: float
    bandwidth: float
    deadline_measured: float
    response_measured: float
    matching: float
    fairness: float

    def __post_init__(self):
        if math.isfinite(self.response_measured):
            f = self.deadline_measured / self.response_measured - 1.0
            if abs(f - self.matching) > 1e-9:
                raise MeasurementError(
                    "sample matching inconsistent with its deadline/response pair")


def apply_membership_event(state: SystemState, event: MembershipEvent,
                           platform: PlatformSpec,
                           specs: Sequence[ApplicationSpec]
                           ) -> Tuple[SystemState, List[ApplicationSpec]]:
    """Resize the state for a join or leave; bandwidth is conserved through
    the unused pool."""
    specs = list(specs)
    s = state.services
    v = state.bandwidths
    if event.action == "join":
        if any(a.id == event.spec.id for a in specs):
            raise ConfigurationError(f"app id {event.spec.id!r} already live")
        seed = min(platform.step, state.unused)
        if seed <= 0.0:
            raise AdmissionError(
                f"cannot admit {event.spec.id!r}: no unused bandwidth for the seed")
        specs.append(event.spec)
        s = np.append(s, event.spec.initial_service)
        v = np.append(v, seed)
        return make_state(s, v), specs
    idx = next((i for i, a in enumerate(specs) if a.id == event.app_id), None)
    if idx is None:
        raise ConfigurationError(f"leave event for unknown app {event.app_id!r}")
    specs.pop(idx)
    return make_state(np.delete(s, idx), np.delete(v, idx)), specs


MODES = ("sync", "async_compensated", "async_uncompensated")


def run_scenario(scenario) -> Trajectory:
    """Advance one scenario over its whole horizon and record every manager
    instant. See the scenario module for the scenario object itself."""
    platform: PlatformSpec = scenario.platform
    specs: List[ApplicationSpec] = list(scenario.apps)
    mode = scenario.mode
    if mode == "ode_reference":
        from .reference import integrate_ode
        state = scenario.initial_state()
        return integrate_ode(state, specs, platform, platform.step,
                             scenario.horizon, rm_period=scenario.rm_period,
                             config=scenario.echo())
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}")
    eps = platform.step
    kappa = platform.cores
    steps = int(round(scenario.horizon / scenario.rm_period)) + 1
    if scenario.strict_bounds:
        lam = np.array([a.weight for a in specs], dtype=float)
        # sup|F| bound and the starvation guard 1 / ((L + 1) * cores)
        L = max(1.0, float(np.max(lam.sum() - lam))) if len(specs) else 1.0
        guard = 1.0 / ((L + 1.0) * kappa)
        if eps >= guard:
            raise ConfigurationError(
                f"strict mode: step {eps} not below the starvation guard {guard}")

    events = sorted(scenario.events, key=lambda e: e.time)
    for e in events:
        r = e.time / scenario.rm_period
        if abs(r - round(r)) > 1e-9:
            raise ConfigurationError(
                f"membership event at {e.time} is not aligned to a manager instant")
    ev_i = 0

    state = scenario.initial_state()
    state.validated(specs, platform)
    # per-app step counter since join; drives the update cadence and cold start
    age = {a.id: 0 for a in specs}

    rows_t: List[np.ndarray] = []
    rows_app: List[List[str]] = []
    cols = {k: [] for k in ("service", "bandwidth", "deadline", "response",
                            "matching", "fairness")}
    stride = max(1, int(getattr(scenario, "sample_stride", 1)))

    s = state.services.copy()
    v = state.bandwidths.copy()
    for k in range(steps):
        t = k * scenario.rm_period
        while ev_i < len(events) and events[ev_i].time <= t + 1e-9 * scenario.rm_period:
            e = events[ev_i]
            state = make_state(s, v)
            state, specs = apply_membership_event(state, e, platform, specs)
            s = state.services.copy()
            v = state.bandwidths.copy()
            if e.action == "join":
                age[e.spec.id] = 0
            else:
                age.pop(e.app_id, None)
            ev_i += 1
        n = len(specs)
        lam = np.array([a.weight for a in specs], dtype=float)
        D = np.empty(n)
        R = np.empty(n)
        f = np.empty(n)
        for i, a in enumerate(specs):
            if age[a.id] == 0:
                # cold start: no completed job yet, neutral measurement
                D[i] = job_deadline(a.model, s[i])
                R[i] = D[i]
                f[i] = 0.0
            else:
                D[i], R[i], f[i] = measure_job(a.model, s[i], kappa * v[i])
        F = fairness_vector(f, v, lam)
        if k % stride == 0 or k == steps - 1:
            rows_t.append(np.full(n, t))
            rows_app.append([a.id for a in specs])
            cols["service"].append(s.copy())
            cols["bandwidth"].append(v.copy())
            cols["deadline"].append(D.copy())
            cols["response"].append(R.copy())
            cols["matching"].append(f.copy())
            cols["fairness"].append(F.copy())

        if k == steps - 1:
            break
        # bandwidth recursion
        result = rm_step(make_state(s, v), f, specs, platform)
        v = np.asarray(result.new_bandwidths, dtype=float)
        if v.sum() > 1.0 + SUM_TOL or np.any(v < -SUM_TOL) \
                or np.any(v > 1.0 / kappa + SUM_TOL):
            raise InvariantViolation("bandwidth allocation left the feasible set",
                                     step=k)
        # service recursions for due apps
        for i, a in enumerate(specs):
            cadence = 1 if mode == "sync" else a.update_jobs
            if age[a.id] % cadence == 0:
                lo = a.min_service
                hi = a.max_service
                if mode == "async_compensated":
                    y = cadence * f[i]
                else:
                    y = f[i]
                s[i] = min(hi, max(lo, s[i] + eps * y)) if hi is not None \
                    else max(lo, s[i] + eps * y)
            age[a.id] += 1

    return Trajectory(
        time=np.concatenate(rows_t),
        app=np.array([a for row in rows_app for a in row], dtype=object),
        service=np.concatenate(cols["service"]),
        bandwidth=np.concatenate(cols["bandwidth"]),
        deadline=np.concatenate(cols["deadline"]),
        response=np.concatenate(cols["response"]),
        matching=np.concatenate(cols["matching"]),
        fairness=np.concatenate(cols["fairness"]),
        events=events,
        config=scenario.echo(),
    )

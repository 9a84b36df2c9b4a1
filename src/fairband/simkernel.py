"""Deterministic multi-rate simulation engine.

The engine advances one logical timeline: at every resource-manager instant
it measures per-app matchings from the fluid job model (response = C / v),
applies the bandwidth recursion, and lets due applications apply their
service recursion. Applications may update on a slower grid than the manager
and may join or leave mid-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .adaptation import project_bandwidth
from .core import (SUM_TOL, ApplicationSpec, JobModel, PlatformSpec,
                   SystemState, fairness_vector, is_feasible, make_state)
from .errors import AdmissionError, ConfigurationError, InvariantViolation


MODES = ("sync", "async_compensated", "async_uncompensated")


# the floating-point conditions the step kernel meets in normal operation:
# a synthetic app floored at s = 0 divides 0 by 0 in an unselected branch of
# measure, and a response that overflows is the zero-bandwidth limit. Every
# caller of measure or kernel_step runs under this state.
QUIET = dict(divide="ignore", invalid="ignore", over="ignore")

# the most manager instants x apps one run may record. Each app-step holds
# six float64 values in its epoch's full-resolution block (every instant,
# whatever the stride), then a time, an id and the six values again in the
# joined Trajectory, about 120 bytes in all, so this bounds a run's arrays
# at about 1.2 GB.
MAX_APP_STEPS = 10_000_000


def check_budget(steps: int, apps: int) -> None:
    """Reject a run of `steps` manager instants over `apps` apps that would
    exceed MAX_APP_STEPS, before anything of that size is allocated."""
    if steps * apps > MAX_APP_STEPS:
        raise ConfigurationError(
            f"horizon/rm_period gives {steps} manager instants; with {apps} "
            f"apps that is {steps * apps} app-steps, over the budget of "
            f"{MAX_APP_STEPS}: shorten horizon or raise rm_period")


def measure(job, service, bandwidth_unnormalized, cold=None):
    """Run one fluid job per app: returns (deadline, response, matching).

    `job` holds the coefficients (c1, c0, d0, d1) of JobModel.coefficients,
    as scalars or arrays whose last axis is the app axis. Response time is
    C / v; zero bandwidth gives an infinite response and the limiting
    matching value -1. The apps in the `cold` mask, with no job completed
    yet, read the neutral (D, D, 0); None means no app is cold. Callers run
    this under np.errstate(**QUIET).
    """
    c1, c0, d0, d1 = job
    s, vu = service, bandwidth_unnormalized
    D = np.where(d1 > 0.0, d1 / s, d0)
    R = np.where(vu > 0.0, (c1 * s + c0) / vu, np.inf)
    if cold is not None:
        R = np.where(cold, D, R)
    return D, R, D / R - 1.0


def measure_job(model: JobModel, service: float,
                bandwidth_unnormalized: float) -> Tuple[float, float, float]:
    """measure() for a single app, as plain floats."""
    # numpy scalars: a zero divisor gives inf or nan, not ZeroDivisionError
    with np.errstate(**QUIET):
        D, R, f = measure(model.coefficients, np.float64(service),
                          np.float64(bandwidth_unnormalized))
    return float(D), float(R), float(f)


@dataclass(frozen=True)
class Coefficients:
    """What the step kernel needs to know about the live apps of one
    membership epoch, compiled to arrays whose last axis is the app axis
    (a scalar broadcasts as the same value for every app).

    job is (c1, c0, d0, d1) of JobModel.coefficients; lam the weights; lo
    and hi the service floor and ceiling (inf when unbounded); cadence the
    manager instants between service updates; gain the factor on the
    observation. eps, kappa and upper are the step size, the core count
    and the per-app bandwidth cap max_total_bandwidth / cores.
    """
    job: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    lam: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cadence: np.ndarray
    gain: np.ndarray
    eps: float
    kappa: int
    upper: float


def compile_apps(specs: Sequence[ApplicationSpec], platform: PlatformSpec,
                 mode: str) -> Coefficients:
    """Coefficient arrays of the apps in `specs` under an engine mode: sync
    updates every app at every instant; both async modes follow each app's
    update_jobs, and async_compensated scales its observation by them."""
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}")
    job = np.array([a.model.coefficients for a in specs],
                   dtype=float).reshape(-1, 4).T.copy()
    cadence = np.array([1 if mode == "sync" else a.update_jobs
                        for a in specs], dtype=int)
    return Coefficients(
        job=tuple(job),
        lam=np.array([a.weight for a in specs], dtype=float),
        lo=np.array([a.min_service for a in specs], dtype=float),
        hi=np.array([math.inf if a.max_service is None else a.max_service
                     for a in specs], dtype=float),
        cadence=cadence,
        gain=cadence.astype(float) if mode == "async_compensated"
        else np.ones(len(specs)),
        eps=platform.step, kappa=platform.cores,
        upper=platform.max_total_bandwidth / platform.cores)


def project_service(c: Coefficients, services: np.ndarray) -> np.ndarray:
    """Clamp service levels onto each app's [floor, ceiling]."""
    return np.minimum(c.hi, np.maximum(c.lo, services))


def service_step(c: Coefficients, services: np.ndarray,
                 matchings: np.ndarray, due) -> np.ndarray:
    """The service recursion of the apps in the `due` mask: s + eps * gain
    * f, projected; the others keep their service."""
    s = services
    return np.where(due, project_service(c, s + c.eps * (c.gain * matchings)),
                    s)


def due_mask(c: Coefficients, since: np.ndarray, k0: int, k1: int
             ) -> np.ndarray:
    """(k1 - k0, n) bools: which apps update their service at each instant
    k0 <= k < k1, given the instant each joined. An app is due when the
    instants since it joined are a multiple of its cadence."""
    due = np.empty((k1 - k0, len(since)), dtype=bool)
    for cad in np.unique(c.cadence):
        cols = np.flatnonzero(c.cadence == cad)
        due[:, cols] = (np.arange(k0, k1) % cad)[:, None] == since[cols] % cad
    return due


class Step(NamedTuple):
    """One manager instant: what was measured at the entering state, and the
    state it leaves."""
    deadline: np.ndarray
    response: np.ndarray
    matching: np.ndarray
    fairness: np.ndarray
    services: np.ndarray
    bandwidths: np.ndarray
    clipped: np.ndarray             # apps the bandwidth projection moved
    total: np.ndarray               # bandwidth row sums before excess removal


def kernel_step(c: Coefficients, services: np.ndarray,
                bandwidths: np.ndarray, due, cold=None) -> Step:
    """Advance services and normalized bandwidths by one manager instant.

    Arrays have the app axis last and any leading axes, e.g. (S, n) for S
    scenarios side by side. `due` masks the apps that update their service
    at this instant (see due_mask); `cold` masks the apps at their cold
    start, the instant they joined, or is None when no app is. The phases
    are: measure every app, form the fairness signal, take the projected
    bandwidth step, then the service step of the due apps.

    The caller runs its step loop under np.errstate(**QUIET). A row whose
    `total` exceeds 1 + SUM_TOL had its excess removed; every other row is
    feasible by construction (see project_bandwidth).
    """
    s, v = services, bandwidths
    D, R, f = measure(c.job, s, c.kappa * v, cold)
    F = fairness_vector(f, v, c.lam)
    v_next, clipped, total = project_bandwidth(v + c.eps * F, c.upper)
    return Step(D, R, f, F, service_step(c, s, f, due), v_next, clipped,
                total)


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


# the per-row value columns of a Trajectory, in recording order
VALUES = ("service", "bandwidth", "deadline", "response", "matching",
          "fairness")


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

    @classmethod
    def from_records(cls, blocks) -> "Trajectory":
        """Join recorded epochs. Each block is (instant times, app ids, an
        (instants, len(VALUES), apps) array of the VALUES columns)."""
        return cls(
            time=np.concatenate([np.repeat(t, len(ids))
                                 for t, ids, _ in blocks]),
            app=np.concatenate([np.tile(np.array(ids, dtype=object), len(t))
                                for t, ids, _ in blocks]),
            **{name: np.concatenate([rec[:, j].ravel() for *_, rec in blocks])
               for j, name in enumerate(VALUES)})

    def per_app(self, fieldname: str) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Split a column into per-app (times, values) pairs in row order; an
        app that leaves and re-joins keeps one series."""
        ids, order, ends = self._groups
        times = self.time[order]
        values = getattr(self, fieldname)[order]
        starts = np.concatenate(([0], ends[:-1]))
        return {aid: (times[a:b], values[a:b])
                for aid, a, b in zip(ids, starts, ends)}


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


def run_scenario(scenario) -> Trajectory:
    """Advance one scenario over its whole horizon and record every manager
    instant. See the scenario module for the scenario object itself.

    Membership events split the run into epochs with a fixed app set; each
    epoch compiles its apps and their due masks once and steps them with
    kernel_step. An epoch whose state repeats bit for bit after L instants,
    L the lcm of its cadences, is filled by repetition from there on.
    """
    platform: PlatformSpec = scenario.platform
    specs: List[ApplicationSpec] = list(scenario.apps)
    if scenario.strict_bounds:
        from .reference import compute_bounds
        guard = compute_bounds(specs, platform).epsilon_star
        if platform.step >= guard:
            raise ConfigurationError(
                f"strict mode: step {platform.step} not below the starvation "
                f"guard {guard}")
    state = scenario.initial_state().validated(specs, platform)
    if scenario.mode == "ode_reference":
        from .reference import integrate_ode
        return integrate_ode(state, specs, platform, platform.step,
                             scenario.horizon, rm_period=scenario.rm_period)
    period = scenario.rm_period
    steps = scenario.steps
    check_budget(steps, len(specs) + sum(e.action == "join"
                                         for e in scenario.events))
    # an event applies at the instant nearest its time, which must lie
    # within 1e-9 periods of it; one before the run applies at instant 0
    by_instant: Dict[int, List[MembershipEvent]] = {}
    for e in sorted(scenario.events, key=lambda e: e.time):
        r = e.time / period
        k = round(r)
        if abs(r - k) > 1e-9:
            raise ConfigurationError(
                f"membership event at {e.time} is not aligned to a manager instant")
        by_instant.setdefault(max(0, k), []).append(e)
    recorded = np.zeros(steps, dtype=bool)
    recorded[::scenario.sample_stride] = True
    recorded[-1] = True

    s, v = state.services, state.bandwidths
    joined = {a.id: 0 for a in specs}
    edges = sorted({0, steps, *(k for k in by_instant if k < steps)})
    blocks = []
    limit = 1.0 + SUM_TOL
    with np.errstate(**QUIET):
        for k0, k1 in zip(edges, edges[1:]):
            for e in by_instant.get(k0, ()):
                state, specs = apply_membership_event(make_state(s, v), e,
                                                      platform, specs)
                s, v = state.services, state.bandwidths
                if e.action == "join":
                    joined[e.spec.id] = k0
            c = compile_apps(specs, platform, scenario.mode)
            if k0 < steps - 1 and not is_feasible(c.kappa * v, c.kappa):
                raise InvariantViolation(
                    "input state is not a feasible allocation", step=k0)
            since = np.array([joined[a.id] for a in specs], dtype=int)
            rec = np.empty((k1 - k0, len(VALUES), len(specs)))
            cold = since == k0
            # past the cold start an instant's step depends only on the
            # entering state and on the due masks, which repeat every L
            # instants; so once the state entering i equals, bit for bit,
            # the state entering i - L >= 1, every later row repeats the
            # rows from i - L, and so does each post-step check
            L = math.lcm(*c.cadence.tolist())
            check, ref = L, None
            for i, due in enumerate(due_mask(c, since, k0, k1)):
                if i == check:
                    # raw bytes, so that -0.0, nan and inf match exactly
                    key = s.tobytes() + v.tobytes()
                    if key == ref:
                        rec[i:] = rec[i - L + np.arange(k1 - k0 - i) % L]
                        last = i - L + (k1 - k0 - i) % L
                        s, v = rec[last, 0].copy(), rec[last, 1].copy()
                        break
                    check, ref = i + L, key
                r = kernel_step(c, s, v, due, cold)
                cold = None
                rec[i] = (s, v, r.deadline, r.response, r.matching, r.fairness)
                s, v = r.services, r.bandwidths
                # rows within the sum limit are the clip alone, in the box
                if r.total > limit and (v.sum() > limit or v.min() < -SUM_TOL
                                        or v.max() > c.upper + SUM_TOL):
                    raise InvariantViolation(
                        "bandwidth allocation left the feasible set",
                        step=k0 + i)
            keep = recorded[k0:k1]
            blocks.append(((np.flatnonzero(keep) + k0) * period,
                           [a.id for a in specs], rec[keep]))
    return Trajectory.from_records(blocks)

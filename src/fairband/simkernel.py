"""Deterministic multi-rate simulation engine.

The engine advances one logical timeline: at every resource-manager instant
it measures per-app matchings from the fluid job model (response = C / v),
applies the bandwidth recursion, and lets due applications apply their
service recursion. Applications may update on a slower grid than the manager
and may join or leave mid-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .adaptation import remove_excess
from .core import (LIMIT, ONE, SUM_TOL, ZERO, ApplicationSpec, JobModel,
                   PlatformSpec, fairness_vector)
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


def instants(horizon: float, period: float) -> int:
    """Manager instants 0, period, ... up to the one nearest horizon."""
    ratio = horizon / period
    if not math.isfinite(ratio):
        raise ConfigurationError(
            f"horizon/rm_period = {horizon}/{period} overflows: shorten "
            f"horizon or raise rm_period")
    return int(round(ratio)) + 1


def instant_time(k, period: float):
    """The time of manager instant k, an int or an int array. Every time a
    run records follows this one rule."""
    return k * period


def check_budget(steps: int, apps: int) -> None:
    """Reject a run of `steps` manager instants over `apps` apps that would
    exceed MAX_APP_STEPS, before anything of that size is allocated."""
    if steps * apps > MAX_APP_STEPS:
        raise ConfigurationError(
            f"horizon/rm_period gives {steps} manager instants; with {apps} "
            f"apps that is {steps * apps} app-steps, over the budget of "
            f"{MAX_APP_STEPS}: shorten horizon or raise rm_period")


def measure(job, service, bandwidth_unnormalized, cold=None, out=None,
            timed=None):
    """Run one fluid job per app: returns (deadline, response, matching).

    `job` holds the coefficients (c1, c0, d0, d1) of JobModel.coefficients,
    as scalars or arrays whose last axis is the app axis; d1 None means no
    app's deadline depends on s, so D is d0, and d0 None that D in `out`
    holds d0 already. Response time is C / v; a zero, negative or nan
    bandwidth gives an infinite response and the limiting matching value
    -1. The apps in the `cold` mask, with no job completed yet, read the
    neutral (D, D, 0); None means no app is cold. `out`, when given, is
    the three arrays of the state's shape to write (D, R, matching) into;
    `timed` is the d1 > 0 mask when the caller has it. Callers run this
    under np.errstate(**QUIET).
    """
    c1, c0, d0, d1 = job
    s, vu = service, bandwidth_unnormalized
    if out is None:
        shape = np.shape(s)
        out = np.empty(shape), np.empty(shape), np.empty(shape)
    D, R, f = out
    if d0 is not None:
        np.copyto(D, d0)
    if d1 is not None:
        np.divide(d1, s, out=D, where=d1 > ZERO if timed is None else timed)
    # the execution time C sits in f until the matching replaces it
    np.add(np.multiply(c1, s, out=f), c0, out=f)
    # every share positive (or none at all) needs no mask
    pos = np.greater(vu, ZERO)
    if np.count_nonzero(pos) == pos.size:
        np.divide(f, vu, out=R)
    else:
        R.fill(np.inf)
        np.divide(f, vu, out=R, where=pos)
    if cold is not None:
        np.copyto(R, D, where=cold)
    np.subtract(np.divide(D, R, out=f), ONE, out=f)
    return D, R, f


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
    """What the step kernel needs to know about a set of apps, as arrays
    whose last axis is the app axis (a scalar is the same for every app).

    job is (c1, c0, d0, d1) of JobModel.coefficients; lam the weights; lo
    and hi the service floor and ceiling (inf when unbounded); cadence the
    manager instants between service updates; gain the factor on the
    observation. eps, kappa and upper are the step size, the core count
    and the per-app bandwidth cap (PlatformSpec.upper).

    None in d1 or gain is the identity (no deadline depends on s; unit
    gain): the kernel skips it, as it skips kappa * v at kappa = 1. Each
    skip is exact: the result has the bits of d1 = 0, gain = 1. None in d0
    means the deadline row holds it already. eps and upper are held as
    read-only arrays (see core.ZERO), and lo and hi with a -0.0 made +0.0.

    The rest is derived once, for kernel_step: timed is the d1 > 0 mask,
    None with d1; low and high stack the (service, bandwidth) bounds,
    (lo, 0) and (hi, upper), and scale the factors (gain, 1), None with
    gain, each on a first axis of 2 over at least one more.
    """
    job: Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]
    lam: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cadence: np.ndarray
    gain: Optional[np.ndarray]
    eps: np.ndarray
    kappa: int
    upper: np.ndarray
    timed: Optional[np.ndarray] = field(init=False, repr=False)
    low: np.ndarray = field(init=False, repr=False)
    high: np.ndarray = field(init=False, repr=False)
    scale: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        d1 = self.job[3]
        eps, upper = (np.array(x, dtype=float) for x in (self.eps, self.upper))
        eps.flags.writeable = upper.flags.writeable = False
        # a clamp's tie returns the bound, so a +0.0 bound gives +0.0
        lo, hi = np.add(self.lo, ZERO), np.add(self.hi, ZERO)
        low, high = _stack(lo, ZERO), _stack(hi, upper)
        scale = None if self.gain is None else _stack(self.gain, ONE)
        # one number of axes, so the kernel tests that of one
        ndim = max(low.ndim, high.ndim, 0 if scale is None else scale.ndim)
        low, high, scale = (_lift(x, ndim) for x in (low, high, scale))
        for name, x in dict(timed=None if d1 is None else d1 > ZERO, eps=eps,
                            upper=upper, lo=lo, hi=hi, low=low, high=high,
                            scale=scale).items():
            object.__setattr__(self, name, x)


def _stack(top, bottom) -> np.ndarray:
    """top over a scalar bottom, as one array of a first axis of 2 over at
    least one more, so that it broadcasts against the kernel's (2, ..., n)
    rows."""
    rows = np.empty((2, *(np.shape(top) or (1,))))
    rows[0], rows[1] = top, bottom
    return rows


def _lift(rows: Optional[np.ndarray], ndim: int) -> Optional[np.ndarray]:
    """A stacked coefficient with axes of length 1 inserted after its first,
    to `ndim` axes: (2, n) bounds step (2, S, n) rows."""
    if rows is None or rows.ndim == ndim:
        return rows
    return rows.reshape(rows.shape[:1] + (1,) * (ndim - rows.ndim)
                        + rows.shape[1:])


def compile_apps(specs: Sequence[ApplicationSpec], platform: PlatformSpec,
                 mode: str) -> Coefficients:
    """Coefficient arrays of the apps in `specs` under an engine mode: sync
    updates every app at every instant; both async modes follow each app's
    update_jobs, and async_compensated scales its observation by them.
    d1 and gain are None when they are the identity for every app."""
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}")
    c1, c0, d0, d1 = np.array([a.model.coefficients for a in specs],
                              dtype=float).reshape(-1, 4).T
    cadence = np.array([1 if mode == "sync" else a.update_jobs
                        for a in specs], dtype=int)
    return gather(Coefficients(
        job=(c1, c0, d0, d1),
        lam=np.array([a.weight for a in specs], dtype=float),
        lo=np.array([a.min_service for a in specs], dtype=float),
        hi=np.array([math.inf if a.max_service is None else a.max_service
                     for a in specs], dtype=float),
        cadence=cadence,
        gain=cadence.astype(float) if mode == "async_compensated" else None,
        eps=platform.step, kappa=platform.cores, upper=platform.upper),
        np.arange(len(specs)))


def gather(c: Coefficients, live: np.ndarray) -> Coefficients:
    """The apps at the int indices `live` of the table `c`, in that order,
    with d1 and gain set to None where they are the identity for all of
    them."""
    c1, c0, d0, d1, gain = (x if x is None else x[live]
                            for x in (*c.job, c.gain))
    return replace(
        c, job=(c1, c0, d0, None if d1 is None or not (d1 > 0.0).any()
                else d1),
        lam=c.lam[live], lo=c.lo[live], hi=c.hi[live], cadence=c.cadence[live],
        gain=None if gain is None or (gain == 1.0).all() else gain)


def project_service(c: Coefficients, services: np.ndarray) -> np.ndarray:
    """Clamp service levels onto each app's [floor, ceiling]. Each clamp
    takes (value, bound), as kernel_step's does, so the two give the same
    bits."""
    return np.minimum(np.maximum(services, c.lo), c.hi)


def due_mask(c: Coefficients, since: np.ndarray, k0: int, k1: int
             ) -> np.ndarray:
    """(k1 - k0, n) bools: which apps update their service at each instant
    k0 <= k < k1, given the instant each joined. An app is due when the
    instants since it joined are a multiple of its cadence."""
    return (np.arange(k0, k1)[:, None] - since) % c.cadence == 0


def kernel_step(c: Coefficients, here: np.ndarray, there: np.ndarray, *,
                idle, cold=None) -> np.ndarray:
    """Advance services and normalized bandwidths by one manager instant,
    in place.

    `here` is the instant's record row, the len(VALUES) columns stacked on
    its first axis: the kernel reads the entering services and bandwidths
    from here[0:2] and writes (deadline, response, matching, fairness) into
    here[2:6]; it writes the leaving services and bandwidths into
    there[0:2]. Each column has the app axis last and any leading axes,
    e.g. (S, n) for S scenarios side by side. `idle` masks the apps that
    keep their service at this instant (~due_mask); `cold` masks the apps
    at their cold start, the instant they joined, or is None when no app
    is. The phases are: measure every app, form the fairness signal, then
    step both recursions as one (2, ...) block: the state here[0:2] plus
    eps * (gain * matching, fairness), clamped to (c.low, c.high), the box
    of project_service over that of project_bandwidth. The apps in `idle`
    then keep their service, and a row whose sum exceeds LIMIT has its
    excess removed.

    Returns the bandwidth row sums before excess removal. A row whose sum
    exceeds LIMIT had its excess removed; every other row is feasible by
    construction (see project_bandwidth). The caller runs its step loop
    under np.errstate(**QUIET).
    """
    # indexing takes the six views faster than unpacking the array
    s, v, D, R, f, F = (here[0], here[1], here[2], here[3], here[4],
                        here[5])
    measure(c.job, s, v if c.kappa == 1 else c.kappa * v, cold, (D, R, f),
            c.timed)
    fairness_vector(f, v, c.lam, out=F)
    low, high, scale = c.low, c.high, c.scale
    if low.ndim < here.ndim:
        low, high, scale = (_lift(x, here.ndim) for x in (low, high, scale))
    # the next row's (matching, fairness) columns hold the step until that
    # row's own instant overwrites them
    step = there[4:6]
    np.multiply(c.eps, here[4:6] if scale is None
                else np.multiply(scale, here[4:6], out=step), out=step)
    new = np.add(here[0:2], step, out=there[0:2])
    np.minimum(np.maximum(new, low, out=new), high, out=new)
    np.copyto(there[0], s, where=idle)
    total = np.add.reduce(there[1], axis=-1)
    # only a row above the limit recomputes the raw step v + eps * F, the
    # same bits as the clamp's operand. One row's test is a numpy bool; the
    # ufunc reduce over many rows skips ndarray.any's Python wrapper
    over = total > LIMIT
    if np.logical_or.reduce(over, axis=None) if over.ndim else over:
        remove_excess(there[1], np.add(v, step[1]), total)
    return total


# the per-row value columns of a Trajectory, in recording order
VALUES = ("service", "bandwidth", "deadline", "response", "matching",
          "fairness")


class Epoch(NamedTuple):
    """The instants k0 <= k < k1 of one live app set, in run_scenario."""
    k0: int
    k1: int
    ids: Tuple[str, ...]
    period: int                     # of the fill from some instant on, or 0
    steps: int                      # kernel_step calls


# rows lo <= r < hi of a Trajectory: T instants, each the n rows of `ids`
Block = NamedTuple("Block", [("lo", int), ("hi", int),
                             ("ids", Tuple[str, ...]), ("T", int), ("n", int)])


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
    # how the engine ran them; None when read from CSV or by the oracle
    epochs: Optional[List[Epoch]] = field(default=None, repr=False,
                                          compare=False)

    def __len__(self) -> int:
        return len(self.time)

    @cached_property
    def blocks(self) -> List[Block]:
        """The rows cut, once, into maximal runs of instants that hold the
        same ids in the same order; an instant is a run of equal times."""
        if not len(self):
            return []
        t, app = self.time, self.app
        heads = np.flatnonzero(np.r_[True, t[1:] != t[:-1], True])
        n = np.diff(heads)
        # a block starts where an instant's size, or the id at some place
        # in it, differs from the previous instant's
        prev = app[np.arange(len(app)) - np.repeat(np.r_[0, n[:-1]], n)]
        new = np.logical_or.reduceat(prev != app, heads[:-1])
        new[1:] |= n[1:] != n[:-1]
        cut = np.flatnonzero(np.r_[True, new[1:], True])
        rows = heads[cut].tolist()
        return [Block(lo, hi, tuple(app[lo:lo + m]), (hi - lo) // m, m)
                for lo, hi, m in zip(rows, rows[1:], n[cut[:-1]].tolist())]

    @cached_property
    def _groups(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """Rows grouped by app: the ids in first-appearance order, a stable
        row order that lists each app's rows together, and the end of each
        app's run in it. A block's rows take its ids' codes, tiled."""
        index: Dict[str, int] = {}
        codes = np.empty(len(self), dtype=np.intp)
        for b in self.blocks:
            codes[b.lo:b.hi].reshape(b.T, b.n)[:] = [
                index.setdefault(a, len(index)) for a in b.ids]
        ends = np.cumsum(np.bincount(codes, minlength=len(index)))
        return list(index), np.argsort(codes, kind="stable"), ends

    @classmethod
    def from_records(cls, blocks) -> "Trajectory":
        """Join recorded epochs. Each block is (instant times, app ids, an
        (instants, len(VALUES), apps) array of the VALUES columns), written
        into the joined columns through (instants, apps) views."""
        ends = np.cumsum([0] + [len(t) * len(ids) for t, ids, _ in blocks])
        time, app = np.empty(ends[-1]), np.empty(ends[-1], dtype=object)
        values = np.empty((len(VALUES), ends[-1]))
        for (t, ids, rec), lo, hi in zip(blocks, ends, ends[1:]):
            shape = (len(t), len(ids))
            time[lo:hi].reshape(shape)[:] = t[:, None]
            app[lo:hi].reshape(shape)[:] = np.array(ids, dtype=object)
            values[:, lo:hi].reshape(len(VALUES), *shape)[:] = rec.swapaxes(0, 1)
        return cls(time=time, app=app, **dict(zip(VALUES, values)))

    def rises_per_app(self) -> bool:
        """Whether each app's rows have strictly increasing times."""
        _, order, ends = self._groups
        t = self.time[order]
        rising = t[1:] > t[:-1]
        rising[ends[:-1] - 1] = True    # one app's last row, the next's first
        return bool(rising.all()) and not np.isnan(t).any()

    def per_app(self, fieldname: str) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Split a column into per-app (times, values) pairs in row order; an
        app that leaves and re-joins keeps one series."""
        ids, order, ends = self._groups
        times, values = self.time[order], getattr(self, fieldname)[order]
        return {aid: (times[a:b], values[a:b])
                for aid, a, b in zip(ids, np.r_[0, ends[:-1]], ends)}


def _nonfinite_matching(matching: np.ndarray, ids: Sequence[str]) -> str:
    """Where a post-step breach comes from: the first app whose matching at
    the instant is not finite, which turns the shares it feeds nan, though
    the app named out of the box may be another."""
    for j in np.flatnonzero(~np.isfinite(matching)):
        return f"; app {ids[j]}'s matching at this instant is {matching[j]}"
    return ""


def run_scenario(scenario) -> Trajectory:
    """Advance one scenario over its whole horizon and record every manager
    instant. See the scenario module for the scenario object itself.

    Every app the scenario admits is compiled once, into one table; its
    checked schedule splits the run into epochs, each an index array `live`
    into that table, stepped with kernel_step. An epoch whose state repeats
    bit for bit after L or 2L instants, L the lcm of its cadences, is filled
    by repetition from there on.
    """
    platform: PlatformSpec = scenario.platform
    s, v = scenario.initial_state()
    if scenario.mode == "ode_reference":
        from .reference import integrate_ode
        return integrate_ode((s, v), scenario.apps, platform, platform.step,
                             scenario.horizon, rm_period=scenario.rm_period)
    period, steps = scenario.rm_period, scenario.steps
    admitted = scenario.admitted
    check_budget(steps, len(admitted))
    table = compile_apps(admitted, platform, scenario.mode)
    # d0 is each row's deadline until its instant writes d1 / s, so the
    # kernel reads it from the record, not from the table
    d0, names = table.job[2], np.array([a.id for a in admitted], dtype=object)
    table = replace(table, job=(*table.job[:2], None, table.job[3]))
    live = np.arange(len(scenario.apps))
    since = np.zeros_like(live)
    edges = sorted({0, steps, *(k for k in scenario.schedule if k < steps)})
    blocks, epochs = [], []
    with np.errstate(**QUIET):
        for k0, k1 in zip(edges, edges[1:]):
            for row, join in scenario.schedule.get(k0, ()):
                if not join:
                    keep = live != row
                    live, since, s, v = (x[keep] for x in (live, since, s, v))
                    continue
                # a pool within SUM_TOL of empty is full, as the projection
                # reads a sum within SUM_TOL of 1
                pool = 1.0 - float(v.sum())
                if pool <= SUM_TOL:
                    raise AdmissionError(f"cannot admit {admitted[row].id!r}: "
                                         f"no unused bandwidth for the seed")
                # within the per-app cap that project_bandwidth enforces
                seed = min(platform.step, pool, platform.upper)
                live, since = np.append(live, row), np.append(since, k0)
                s = np.append(s, admitted[row].initial_service)
                v = np.append(v, seed)
            ids, c = tuple(names[live]), gather(table, live)
            if k0 < steps - 1 and (why := platform.breach(v, ids)):
                raise InvariantViolation(
                    f"input state is not a feasible allocation: {why}",
                    step=k0)
            # the record is the kernel's working memory: the state entering
            # instant i is rec[i, 0:2], and one extra row takes the state
            # the epoch leaves
            rec = np.empty((k1 - k0 + 1, len(VALUES), len(ids)))
            rec[0, 0], rec[0, 1], rec[:, 2] = s, v, d0[live]
            cold = since == k0
            # past the cold start an instant's step depends only on the
            # entering state and on the due masks, which repeat every L
            # instants; so once the state entering i equals, bit for bit,
            # the state entering i - P >= 1 for P = L or 2L, every later
            # row repeats the rows from i - P, and so does each post-step
            # check. 2L also catches a cycle whose period divides 2L but
            # not L, such as a 2-cycle at an odd L. The fill runs through
            # the extra row, so the state the epoch leaves is read from the
            # record whether it was stepped or filled.
            L = math.lcm(*c.cadence.tolist())
            check, refs, P, stepped = L, (), 0, k1 - k0
            for i, idle in enumerate(~due_mask(c, since, k0, k1)):
                if i == check:
                    # raw bytes, so that -0.0, nan and inf match exactly
                    key = rec[i, :2].tobytes()
                    P = next((m * L for m, ref in enumerate(refs, 1)
                              if ref == key), 0)
                    if P:
                        rec[i:] = rec[i - P + np.arange(len(rec) - i) % P]
                        stepped = i
                        break
                    check, refs = i + L, (key, *refs[:1])
                total = kernel_step(c, rec[i], rec[i + 1], idle=idle,
                                    cold=cold)
                cold = None
                # rows within the sum limit are the clip alone, in the box;
                # a nan sum is no such row
                if not total <= LIMIT and (why := platform.breach(
                        rec[i + 1, 1], ids)):
                    raise InvariantViolation(
                        f"bandwidth allocation left the feasible set: {why}"
                        + _nonfinite_matching(rec[i, 4], ids), step=k0 + i)
            s, v = rec[-1, 0], rec[-1, 1]
            blocks += [(instant_time(np.arange(ks.start, ks.stop, ks.step),
                                     period),
                        ids, rec[ks.start - k0:ks.stop - k0:ks.step])
                       for ks in scenario.recorded(k0, k1) if ks]
            epochs.append(Epoch(k0, k1, ids, P, stepped))
    return replace(Trajectory.from_records(blocks), epochs=epochs)

"""Pins on the engine's output: artifact digests, relations between modes,
and the checks that stop a run before or during its step loop.

Any change to the recursion's arithmetic or operation order moves the
digests; a re-pin needs a declared reason.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairband.adaptation as adaptation
import fairband.simkernel as simkernel
from fairband import (AdmissionError, ApplicationSpec, Coefficients,
                      ConfigurationError, InvariantViolation, JobModel,
                      MembershipEvent, PlatformSpec, Scenario, compile_apps,
                      fairness_vector, kernel_step, parse_scenario,
                      parse_scenario_text, run_scenario)
from fairband.cli import (EXIT_OK, main, read_trajectory_csv, run_bundle,
                          write_trajectory_csv)
from fairband.core import SUM_TOL
from fairband.simkernel import (QUIET, VALUES, Block, Trajectory, due_mask,
                                gather, instant_time, project_service)

COLUMNS = ("time",) + VALUES

# a control app, a synthetic app floored at 0, a multimedia app with a
# ceiling; cadences 1 and 3, a leave, a join, every third instant recorded
MIXED = """
name: mixed
mode: async_compensated
rm_period: 1.0
horizon: 60.0
sample_stride: 3
platform: {cores: 1, step: 0.04}
apps:
  - {id: ctl, weight: 0.6, min_service: 0.5, initial_service: 2.0,
     update_jobs: 3, model: {kind: control, alpha: 400.0, beta: 1.5}}
  - {id: syn, weight: 0.4, min_service: 0.0, initial_service: 1.0,
     update_jobs: 1, model: {kind: synthetic, a: 30.0, b: 200.0,
                             deadline: 300.0}}
  - {id: med, weight: 0.8, min_service: 1.0, max_service: 4.0,
     initial_service: 3.0, update_jobs: 3,
     model: {kind: multimedia, alpha: 200.0, deadline: 500.0}}
events:
  - {time: 20.0, action: leave, app: med}
  - {time: 31.0, action: join, app: {id: late, weight: 0.5, min_service: 1.0,
     initial_service: 2.0, update_jobs: 3,
     model: {kind: multimedia, alpha: 150.0, deadline: 400.0}}}
"""


def _mixed(**changes):
    s = parse_scenario_text(MIXED)
    if "step" in changes:
        changes["platform"] = dataclasses.replace(s.platform,
                                                  step=changes.pop("step"))
    return dataclasses.replace(s, **changes)


def _join_at(s, time):
    return dataclasses.replace(s, events=tuple(
        dataclasses.replace(e, time=time) if e.action == "join" else e
        for e in s.events))


def _short(preset, instants=400, **changes):
    s = parse_scenario(preset)
    return dataclasses.replace(s, horizon=(instants - 1) * s.rm_period,
                               **changes)


def _cores(s, cores):
    return dataclasses.replace(s, platform=dataclasses.replace(s.platform,
                                                               cores=cores))


def _tail_event(leave=3003, step=None):
    """async3 over 5,001 instants at stride 4: app2 leaves at instant
    `leave`, long after the first epoch settled into an exact cycle, so the
    state carried across comes from the fill; an app with cadence 3 joins
    at the next instant."""
    s = _short("async3", instants=5001, sample_stride=4)
    if step is not None:
        s = dataclasses.replace(s, platform=dataclasses.replace(s.platform,
                                                                step=step))
    late = dataclasses.replace(s.apps[1], id="late", update_jobs=3,
                               initial_bandwidth=None)
    return dataclasses.replace(s, events=(
        MembershipEvent(leave * s.rm_period, "leave", app_id="app2"),
        MembershipEvent((leave + 1) * s.rm_period, "join", spec=late)))


def _churn_app(i, kind, cadence):
    """App c<i> of the churn scenario; its parameters are spread by i."""
    x = (i * 7 % 11) / 10.0
    if kind == "synthetic":
        model = JobModel(kind=kind, a=10.0 + 40.0 * x, b=100.0 + 400.0 * x,
                         deadline=5000.0 - 4500.0 * x)
    elif kind == "multimedia":
        model = JobModel(kind=kind, alpha=10.0 + 40.0 * x,
                         deadline=100.0 + 400.0 * x)
    else:
        model = JobModel(kind=kind, alpha=100.0 + 900.0 * x,
                         beta=4.0 + 36.0 * x)
    return ApplicationSpec(
        id=f"c{i}", weight=1.0 - 0.9 * x,
        min_service=0.0 if kind == "synthetic" else 0.5,
        initial_service=1.0 + 2.0 * x, update_jobs=cadence, model=model)


def _churn(mode):
    """A small churn run over 100 instants: 8 live apps of the three job
    kinds at cadences 1/2/5/10; the oldest app leaves every 7 instants and
    a new one joins the next. Both control apps have left by instant 14, so
    no deadline depends on s until a control app joins at 22. Every app
    leaves at 90, so 90 is an empty epoch, and two join at 91."""
    cadences = (1, 2, 5, 10)
    kinds = ("control", "control") + ("synthetic", "multimedia") * 3
    apps = [_churn_app(i, kind, cadences[i % 4])
            for i, kind in enumerate(kinds)]
    live, events = [a.id for a in apps], []
    for m, k in enumerate(range(7, 90, 7)):
        events.append(MembershipEvent(float(k), "leave", app_id=live.pop(0)))
        spec = _churn_app(8 + m, ("synthetic", "multimedia", "control")[m % 3],
                          cadences[m % 4])
        events.append(MembershipEvent(k + 1.0, "join", spec=spec))
        live.append(spec.id)
    events += [MembershipEvent(90.0, "leave", app_id=a) for a in live]
    events += [MembershipEvent(91.0, "join", spec=_churn_app(i, kind, c))
               for i, kind, c in ((30, "control", 2), (31, "synthetic", 5))]
    return Scenario(platform=PlatformSpec(step=0.05), apps=tuple(apps),
                    rm_period=1.0, horizon=99.0, mode=mode,
                    events=tuple(events), name="churn")


def _wide():
    """300 apps cycling the three job kinds, in sync, over 30 instants: an
    instant sum adds 300 shares, so the order of the addition shows in its
    last bits."""
    kinds = ("synthetic", "multimedia", "control")
    return Scenario(platform=PlatformSpec(step=0.001),
                    apps=tuple(_churn_app(i, kinds[i % 3], 1)
                               for i in range(300)),
                    rm_period=1.0, horizon=29.0, name="wide")


def _rejoin_last():
    """async3 where the last app leaves and re-joins at one instant: a new
    epoch over the same id tuple."""
    s = _short("async3")
    back = dataclasses.replace(s.apps[-1], initial_bandwidth=None)
    return dataclasses.replace(s, events=(
        MembershipEvent(200 * s.rm_period, "leave", app_id=back.id),
        MembershipEvent(200 * s.rm_period, "join", spec=back)))


# the schedule's corner cases: an event before time 0 (listed last, applied
# at instant 0); a join listed before a leave at one instant, so the seed
# is what the leaver leaves unused (0.0082), not the step; a leave and a
# re-join of one id at one instant, the leave 1e-11 periods off it; and a
# join past the horizon
SCHEDULE = """
name: schedule
mode: async_compensated
rm_period: 2.0
horizon: 80.0
platform: {cores: 1, step: 0.05}
apps:
  - {id: a, weight: 0.7, min_service: 0.0, initial_service: 1.0,
     initial_bandwidth: 0.6, update_jobs: 1,
     model: {kind: synthetic, a: 30.0, b: 200.0, deadline: 300.0}}
  - {id: b, weight: 0.4, min_service: 0.5, initial_service: 2.0,
     initial_bandwidth: 0.39, update_jobs: 2,
     model: {kind: control, alpha: 400.0, beta: 1.5}}
  - {id: c, weight: 0.9, min_service: 1.0, initial_service: 3.0,
     initial_bandwidth: 0.01, update_jobs: 3,
     model: {kind: multimedia, alpha: 200.0, deadline: 500.0}}
events:
  - {time: 20.0, action: join, app: {id: d, weight: 0.5, min_service: 1.0,
     initial_service: 2.0, update_jobs: 2,
     model: {kind: multimedia, alpha: 150.0, deadline: 400.0}}}
  - {time: 20.0, action: leave, app: a}
  - {time: 39.99999999998, action: leave, app: b}
  - {time: 40.0, action: join, app: {id: b, weight: 0.8, min_service: 0.0,
     initial_service: 1.0, update_jobs: 3,
     model: {kind: synthetic, a: 10.0, b: 100.0, deadline: 800.0}}}
  - {time: 120.0, action: join, app: {id: e, weight: 0.5, min_service: 1.0,
     initial_service: 1.0, model: {kind: multimedia, alpha: 1.0,
                                   deadline: 1.0}}}
  - {time: -4.0, action: leave, app: c}
"""


PINNED = {
    "sync5": (lambda: _short("sync5"),
        "d21e38a3f7b946357ed8d1d031a44027bcee609551c129767d190710617228a6"),
    "async3-compensated": (lambda: _short("async3"),
        "2d4eec74461c4468e302f0085f41c44d7b94d23b36c1a37c5898d82b8980bba6"),
    "async3-uncompensated": (
        lambda: _short("async3", mode="async_uncompensated"),
        "e6ea87542932a5097df8e44a6ca5b07bf0090ae6dbfe349e917dcb5025ad7129"),
    "mixed": (_mixed,
        "a3ea5f40322b309554535c0245a7f090ffebaa359118caa4e6fe86240887bfa2"),
    # a step this large clips bandwidths, removes excess and starves apps;
    # it keeps the shares at the full allocation, so the join at 31 finds
    # no pool (test_join_into_a_full_allocation_is_refused) and the pin
    # ends at 30
    "mixed-step-1.5": (lambda: _mixed(step=1.5, horizon=30.0),
        "b44f9a43b9d69f11c81bf044d980b4ec1b4630746d7338932599f64c35f729e8"),
    # the same step with the join moved to the leave's instant 20, where
    # med's share (0.53) is unused: the joiner's cold start is clipped,
    # and so are 29 of the 40 instants after it, each with excess removed
    "mixed-step-1.5-join": (lambda: _join_at(_mixed(step=1.5), 20.0),
        "f89812a9314c221cf963f0ebaabffc78d78ca6fc6accd622bf590e50b20ae96c"),
    # these settle into an exact cycle from instant 1,035 (1,036 in sync),
    # and are filled from there
    "async3-5e7-compensated": (lambda: _short("async3", instants=5001),
        "5ca47c5dd2e310e70b54a96fa5f8ff05e17d33eb77f1f9e7292bbd4417ba1283"),
    "async3-5e7-sync": (lambda: _short("async3", instants=5001, mode="sync"),
        "628e826fca68e04e6031e323d01cf38bb2f6c5019f545c8c71a6df1f7c69bcb9"),
    # the first epoch is filled from instant 1,050 at a fixed point and
    # carries its state 3 instants into the 10-instant cycle
    "tail-event": (_tail_event,
        "66347f31a65a8726ad880319ace1d34318a375eb5a8b09a8b8f2435bf8ebfa38"),
    # at step 1.0 the first epoch settles into a 2-cycle from instant 48 and
    # is filled from 60; the state it carries is 1 instant into the cycle,
    # which differs from the state at the instant the fill began
    "tail-event-2-cycle": (lambda: _tail_event(leave=1001, step=1.0),
        "d16ed7a0644442a2d41b8b1c40103388d05f375a41dbb38bb15b8303511ab33c"),
    # two cores, so the measured bandwidth is kappa * v, which the kernel
    # skips at one core
    "async3-2-cores": (lambda: _cores(_short("async3"), 2),
        "4b87847ddb03058eb146182eb733c06c0a24987dcec6ef1ae6465901688cd1e3"),
    "sync5-2-cores": (lambda: _cores(_short("sync5"), 2),
        "921aaad59c4d5ca361935908c58ed4305946d2b26f82875cc67a45bb733d78ec"),
    "churn-compensated": (lambda: _churn("async_compensated"),
        "4a293bf9212d01f834d254b9c793f587ec4287b9577645de0fd2689e91329edb"),
    "churn-uncompensated": (lambda: _churn("async_uncompensated"),
        "7a9e30073bf3f4cc7f97e05dd32ea8e772c31755af2bbc862baddaaaf3c92957"),
    "schedule": (lambda: parse_scenario_text(SCHEDULE),
        "65a61f6a4a71a1695767ea7b423e8936a5de43db2d9d7b6d959d149b62195eab"),
    "wide": (_wide,
        "e1c3ea4e52bbdaf38588756fc580265deafe89707edc6b8f122ba7a76bf91a28"),
    "rejoin-last": (_rejoin_last,
        "9c1af58f25efe72869554ee3f8e5dfa307856a2c3fd109e0c0f85fe826c118ff"),
}


@pytest.mark.parametrize("name", PINNED)
def test_trajectory_digest_pinned(name, tmp_path):
    build, digest = PINNED[name]
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run_scenario(build()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# summary.json as run_bundle writes it: the invariant sweep, bounds,
# final values and the convergence verdict of five pinned runs. wide's
# max_sum pins that each instant's shares are added in row order (a
# pairwise sum moves it); rejoin-last's verdict, that two epochs over one
# id tuple are read as one
SUMMARY_PINNED = {
    "sync5": "d79f7e903f14f0451be5f5443999ca5de51dc679f59e41cda9468f33723816bb",
    "async3-5e7-compensated":
        "c12b017c25ead058cd466e6e86cc58bb20aac49b73dfd19b6e448fa4f170e723",
    "mixed": "05f6cc94cf5f23a869048e90c6625c3ca3a95dc2b9e632ccd95961915d0bf711",
    "wide": "6a56a7d7a2d7b4158afe76f00662bf71c28feea8176fad8c9bd2e9880b1a9432",
    "rejoin-last":
        "0ec6ba9125f01440c10b3288b69f7c9c867c0a5911a0a0a2c8e5de43bc8bea77",
}


@pytest.mark.parametrize("name", SUMMARY_PINNED)
def test_summary_digest_pinned(name, tmp_path):
    run_bundle(PINNED[name][0](), tmp_path)
    assert hashlib.sha256((tmp_path / "summary.json").read_bytes()) \
        .hexdigest() == SUMMARY_PINNED[name]


# compare.json of two run bundles: churn's two async modes share every
# breakpoint, and so do sync and the Euler oracle; two async3 runs that
# stop at different instants do not
COMPARE_PINNED = {
    "churn": (
        (lambda: _churn("async_compensated"),
         lambda: _churn("async_uncompensated")),
        "2bc4d56be9078a7445807dd3a196f236f2646de69b7481f5a948dba26f0344b0"),
    "sync5-ode-reference": (
        (lambda: _short("sync5"),
         lambda: _short("sync5", mode="ode_reference")),
        "a5aeca42ce4c69ede1c68daace0fcba0a209a25c2e13537e29343039e2cf28ae"),
    "async3-horizons": (
        (lambda: _short("async3"),
         lambda: _short("async3", instants=250, mode="async_uncompensated")),
        "1088f8e5d7eca7bc7c4384a1cb2175fd9b2b894e8c97b880385d5bbe445716e2"),
}


@pytest.mark.parametrize("name", COMPARE_PINNED)
def test_compare_digest_pinned(name, tmp_path, capsys):
    builds, digest = COMPARE_PINNED[name]
    dirs = [tmp_path / d for d in "ab"]
    for build, d in zip(builds, dirs):
        run_bundle(build(), d)
    out = tmp_path / "compare.json"
    assert main(["compare", *map(str, dirs), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# from instant 21 on the step-1.5 run holds sum(v) at 1 to rounding: the
# pool is empty in exact arithmetic when `late` joins at 31, and is 0.0
# there, so the join is refused; a rounding that left 1 - sum(v) a few
# ulps above 0 would seed it with that sliver
def test_join_into_a_full_allocation_is_refused():
    with pytest.raises(AdmissionError, match="cannot admit 'late': no unused"):
        run_scenario(_mixed(step=1.5))


@pytest.mark.parametrize("k", [1, 2, 1000, 2 ** 14])
def test_join_reads_a_pool_within_the_sum_tolerance_as_empty(k):
    # the initial shares leave 1 - sum(v) = k * 2**-53: up to k = 1000 that
    # is within SUM_TOL of an empty pool, which admission reads as full, as
    # the projection reads a sum within SUM_TOL of 1; 2**14 ulps is above
    s = _mixed()
    shares = (0.5, 0.25, 0.25 - k * 2.0 ** -53)
    s = dataclasses.replace(
        s, apps=tuple(dataclasses.replace(a, initial_bandwidth=x)
                      for a, x in zip(s.apps, shares)),
        events=tuple(dataclasses.replace(e, time=0.0) for e in s.events
                     if e.action == "join"))
    pool = 1.0 - float(s.initial_state()[1].sum())
    assert pool == k * 2.0 ** -53
    if pool > SUM_TOL:
        assert run_scenario(s).bandwidth[3] == pool
        return
    with pytest.raises(AdmissionError, match="cannot admit 'late': no unused"):
        run_scenario(s)


def _count_steps(monkeypatch):
    calls = [0]
    step = simkernel.kernel_step

    def counted(*args, **kwargs):
        calls[0] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(simkernel, "kernel_step", counted)
    return calls


def test_settled_epoch_is_filled_not_stepped(monkeypatch):
    calls = _count_steps(monkeypatch)
    run_scenario(_short("async3", instants=5001))
    assert calls[0] == 1050


# (Epoch.steps, Epoch.period) of every epoch: where each run settles into a
# cycle it fills, so a numerics change that delays a fill fails here by
# name, not only in a digest. Churn's epochs are shorter than any cycle.
CHURN_EPOCHS = [(7, 0)] + [(1, 0), (6, 0)] * 11 + [(1, 0), (5, 0), (1, 0),
                                                    (9, 0)]
SETTLES = {
    "async3-5e7-compensated": (PINNED["async3-5e7-compensated"][0],
                               [(1050, 10)]),
    "async3-2e7-uncompensated": (
        lambda: _short("async3", instants=2001, mode="async_uncompensated"),
        [(2001, 0)]),
    "sync5": (lambda: parse_scenario("sync5"), [(5001, 0)]),
    "churn-compensated": (PINNED["churn-compensated"][0], CHURN_EPOCHS),
    "churn-uncompensated": (PINNED["churn-uncompensated"][0], CHURN_EPOCHS),
}


@pytest.mark.parametrize("name", SETTLES)
def test_epochs_settle_where_pinned(name):
    build, want = SETTLES[name]
    assert [(e.steps, e.period) for e in run_scenario(build()).epochs] == want


def _without_fill(s, monkeypatch):
    """run_scenario(s) with an lcm past the last instant, so that the
    repeat check never runs and every instant is stepped."""
    with monkeypatch.context() as m:
        m.setattr(simkernel.math, "lcm", lambda *cadences: s.steps)
        return run_scenario(s)


# a filled epoch, then a leave and a join, so that the state the fill leaves
# seeds the next epoch; the uncompensated run settles only from 3,970, so
# its app leaves later
FILLED_THEN_EVENTS = {
    "async3-5e7-compensated": _tail_event,
    "async3-5e7-uncompensated": lambda: dataclasses.replace(
        _tail_event(leave=4500), mode="async_uncompensated"),
    "async3-5e7-2-cores": lambda: _cores(_tail_event(), 2),
}


@pytest.mark.parametrize("name", FILLED_THEN_EVENTS)
def test_fill_is_exact_across_events(name, monkeypatch):
    s = dataclasses.replace(FILLED_THEN_EVENTS[name](), sample_stride=1)
    filled = run_scenario(s)
    stepped = _without_fill(s, monkeypatch)
    # the first epoch is filled and ends in the leave
    assert len(filled.epochs) == 3 and filled.epochs[0].period > 0
    assert all(e.period == 0 for e in stepped.epochs)
    assert np.array_equal(filled.app, stepped.app)
    for column in COLUMNS:
        assert np.array_equal(getattr(filled, column).view(np.int64),
                              getattr(stepped, column).view(np.int64)), column


@pytest.mark.parametrize("build, stepped", [
    # L = 1; the state entering 567 equals the state entering 565
    (lambda: _short("sync5", instants=5001, platform=dataclasses.replace(
        parse_scenario("sync5").platform, step=1.0)), 567),
    # cadences 3/1/3, so L = 3; a 2-cycle from instant 45, first seen at a
    # multiple of L with lag 2L at instant 51
    (lambda: _mixed(events=(), step=0.6), 51),
], ids=["sync5-step-1.0", "mixed-step-0.6"])
def test_two_cycle_at_odd_lcm_is_filled(build, stepped, monkeypatch):
    s = build()
    stepped_run = _without_fill(s, monkeypatch)
    calls = _count_steps(monkeypatch)
    filled = run_scenario(s)
    assert calls[0] == stepped
    assert np.array_equal(filled.app, stepped_run.app)
    for name in COLUMNS:
        assert np.array_equal(getattr(filled, name).view(np.int64),
                              getattr(stepped_run, name).view(np.int64)), name


def test_unsettled_run_steps_every_instant(monkeypatch):
    # sync5's state never repeats bit for bit over its 5,001 instants
    s = parse_scenario("sync5")
    calls = _count_steps(monkeypatch)
    run_scenario(s)
    assert calls[0] == s.steps


def test_stride_takes_every_kth_row_across_the_fill():
    full = run_scenario(_short("async3", instants=5001))
    strided = run_scenario(_short("async3", instants=5001, sample_stride=7))
    n = 3
    instants = np.append(np.arange(0, 5001, 7), 5000)
    rows = (instants[:, None] * n + np.arange(n)).ravel()
    assert np.array_equal(strided.app, full.app[rows])
    for name in COLUMNS:
        assert np.array_equal(getattr(strided, name).view(np.int64),
                              getattr(full, name)[rows].view(np.int64)), name


def _every_app_each_instant(s):
    apps = tuple(dataclasses.replace(a, update_jobs=1) for a in s.apps)
    events = tuple(e if e.spec is None else dataclasses.replace(
        e, spec=dataclasses.replace(e.spec, update_jobs=1)) for e in s.events)
    return dataclasses.replace(s, apps=apps, events=events)


@pytest.mark.parametrize("build", [lambda: _short("async3"), _mixed])
@pytest.mark.parametrize("mode", ["async_compensated", "async_uncompensated"])
def test_async_with_unit_cadence_is_sync(build, mode):
    s = _every_app_each_instant(build())
    a = run_scenario(dataclasses.replace(s, mode=mode))
    b = run_scenario(dataclasses.replace(s, mode="sync"))
    assert np.array_equal(a.app, b.app)
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("cores", [1, 2])
def test_engine_matches_euler_oracle_on_every_job_kind(cores):
    # control, synthetic and multimedia apps, bounded and unbounded
    # ceilings: every branch of measure and of the service projection
    s = _cores(_mixed(events=(), sample_stride=1, mode="sync"), cores)
    engine = run_scenario(s)
    oracle = run_scenario(dataclasses.replace(s, mode="ode_reference"))
    assert oracle.epochs is None
    assert np.array_equal(engine.app, oracle.app)
    for name in COLUMNS:
        assert np.array_equal(getattr(engine, name).view(np.int64),
                              getattr(oracle, name).view(np.int64)), name


def test_negative_zero_floor_clamps_to_positive_zero():
    # sync5 with app5 a scarce synthetic app floored at -0.0: its service
    # falls onto the floor, which every clamp reads as +0.0, in the engine
    # and in the oracle alike
    s = _short("sync5")
    app5 = dataclasses.replace(
        s.apps[4], min_service=-0.0,
        model=dataclasses.replace(s.apps[4].model, b=2000.0))
    s = dataclasses.replace(s, apps=(*s.apps[:4], app5))
    engine = run_scenario(s)
    oracle = run_scenario(dataclasses.replace(s, mode="ode_reference"))
    for name in COLUMNS:
        assert np.array_equal(getattr(engine, name).view(np.int64),
                              getattr(oracle, name).view(np.int64)), name
    service = engine.service[engine.app == "app5"]
    floored = service[service == 0.0]
    assert len(floored) >= 100
    assert not np.signbit(floored).any()


# (c1, c0, d0, d1) of a control, a synthetic and a multimedia app
SELECTION_JOB = tuple(np.array(x) for x in zip(
    (0.0, 5.0, 0.0, 400.0), (30.0, 200.0, 300.0, 0.0),
    (200.0, 0.0, 500.0, 0.0)))
# (services, bandwidths) at the edge of measure's unmasked divide: a share
# that is +0.0, slightly negative (breach admits -1e-13), nan, or zero
# beside C = 0 (the multimedia app at s = 0); no app at all, where the
# divide is unmasked; and an (S, n) block with one row of zeros
SELECTION = {
    "zero": ([2.0, 1.0, 3.0], [0.3, 0.0, 0.2]),
    "negative": ([2.0, 1.0, 3.0], [0.3, -1e-13, 0.2]),
    "nan": ([2.0, 1.0, 3.0], [0.3, np.nan, 0.2]),
    "zero-by-zero": ([2.0, 1.0, 0.0], [0.3, 0.2, 0.0]),
    "empty": ([], []),
    "zero-row": ([[2.0, 1.0, 3.0]] * 3,
                 [[0.3, 0.2, 0.1], [0.0, 0.0, 0.0], [0.1, 0.5, 0.2]]),
}


def _masked_measure(job, s, vu, cold):
    """measure() as where(vu > 0, C / vu, inf) states it."""
    c1, c0, d0, d1 = job
    D = np.where(d1 > 0.0, d1 / s, d0)
    R = np.where(vu > 0.0, (c1 * s + c0) / vu, np.inf)
    if cold is not None:
        R = np.where(cold, D, R)
    return D, R, D / R - 1.0


@pytest.mark.parametrize("case", SELECTION)
def test_response_selection_matches_the_masked_form(case):
    s, v = (np.array(x, dtype=float) for x in SELECTION[case])
    n = s.shape[-1]
    job = tuple(x[:n] for x in SELECTION_JOB)
    coef = Coefficients(job=job, lam=np.full(n, 0.5), lo=np.zeros(n),
                        hi=np.full(n, np.inf), cadence=np.ones(n, dtype=int),
                        gain=None, eps=0.05, kappa=1, upper=1.0)
    for cold in (None, np.arange(n) == 0):
        with np.errstate(**QUIET):
            want = _masked_measure(job, s, v, cold)
            got = simkernel.measure(job, s, v, cold)
            rows = np.full((2, len(VALUES), *s.shape), np.nan)
            rows[0, 0], rows[0, 1] = s, v
            kernel_step(coef, rows[0], rows[1], idle=False, cold=cold)
            # the later phases, fed the masked form's matching
            F = fairness_vector(want[2], v, coef.lam)
            after = (project_service(coef, s + coef.eps * want[2]),
                     adaptation.project_bandwidth(v + coef.eps * F,
                                                  coef.upper)[0])
        for name, a, b in zip(("D", "R", "f", "F", "s'", "v'"),
                              (*got, F, *after),
                              (*want, rows[0, 5], rows[1, 0], rows[1, 1])):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        for j, a in enumerate(want):
            assert a.tobytes() == rows[0, 2 + j].tobytes(), VALUES[2 + j]


def test_compiled_identities_match_the_general_form():
    # no control app, unit gain, one core: compile_apps drops d1 and gain,
    # and the kernel skips kappa * v
    apps = tuple(a for a in _mixed().apps if a.id != "ctl")
    platform = _mixed().platform
    compiled = compile_apps(apps, platform, "sync")
    assert compiled.job[3] is None and compiled.gain is None \
        and compiled.kappa == 1
    n = len(apps)
    c1, c0, d0 = compiled.job[:3]
    general = dataclasses.replace(
        compiled, job=(c1, c0, d0, np.zeros(n)), gain=np.ones(n))
    rng = np.random.default_rng(3)
    S = 64
    # a floor of 0 and zero bandwidths reach the 0 / 0 and C / 0 branches
    s = np.where(rng.random((S, n)) < 0.1, 0.0,
                 rng.uniform(0.0, 5.0, (S, n)))
    v = np.where(rng.random((S, n)) < 0.1, 0.0,
                 rng.uniform(0.0, 1.0 / n, (S, n)))
    idle = rng.random((S, n)) < 0.5
    for cold in (None, rng.random((S, n)) < 0.5):
        out = []
        for coef in (general, compiled):
            # an entering row and the next, and the clipped mask
            rows = np.full((2, len(VALUES), S, n), np.nan)
            rows[0, 0], rows[0, 1] = s, v
            clipped = np.zeros((S, n), dtype=bool)
            with np.errstate(**QUIET):
                total = kernel_step(coef, rows[0], rows[1], idle=idle,
                                    cold=cold, clipped=clipped)
            out.append((rows, clipped, total))
        for name, a, b in zip(("rows", "clipped", "total"), *out):
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name


# ordinary values, and in half the blocks those at the edges of the
# kernel's arithmetic too (a nan in a row makes the whole row nan)
def _values(draw, *common, lo, hi):
    edges = [0.0, -0.0, np.nan, np.inf] if draw(st.booleans()) else []
    return st.sampled_from([*edges, *common]) | st.floats(lo, hi)


@st.composite
def _kernel_case(draw):
    """(Coefficients built for (n,) apps, an (n,) or (S, n) block of
    (services, bandwidths), idle, cold, whether to ask for the mask)."""
    n, ask = draw(st.integers(0, 8)), draw(st.booleans())
    shape = draw(st.sampled_from([(n,), (draw(st.integers(1, 3)), n)]))
    apps = st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)

    def row(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)),
                        dtype=float)

    lo = row(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 5.0))
    hi = np.where(row(st.booleans()) > 0.0, np.inf, lo + np.array(
        draw(apps)))
    d1 = draw(st.one_of(st.none(), apps.map(
        lambda x: np.where(np.array(x) > 2.5, x, 0.0))))
    coef = Coefficients(
        job=(np.array(draw(apps)), np.array(draw(apps)), row(
            st.floats(0.1, 10.0)), d1),
        lam=row(st.floats(0.0, 1.0)), lo=lo, hi=hi,
        cadence=np.ones(n, dtype=int),
        gain=draw(st.one_of(st.none(), st.lists(
            st.integers(1, 5), min_size=n, max_size=n).map(
                lambda x: np.array(x, dtype=float)))),
        # a step that underflows to -0.0 at the smallest eps
        eps=draw(st.sampled_from([5e-324, 0.05, 0.5]) | st.floats(1e-3, 2.0)),
        kappa=draw(st.sampled_from([1, 2])),
        upper=draw(st.sampled_from([0.5, 1.0]) | st.floats(0.05, 1.0)))
    size = int(np.prod(shape))
    block = [np.array(draw(st.lists(values, min_size=size, max_size=size)),
                      dtype=float).reshape(shape)
             for values in (_values(draw, 1.0, lo=0.0, hi=10.0),
                            _values(draw, 0.3, 0.6, lo=-0.1, hi=0.7))]
    # shares raised by 0.5 make rows that sum above 1
    block[1] += draw(st.sampled_from([0.0, 0.5]))
    masks = st.lists(st.booleans(), min_size=size, max_size=size).map(
        lambda x: np.array(x, dtype=bool).reshape(shape))
    idle = draw(st.one_of(st.just(False), masks))
    cold = draw(st.one_of(st.none(), masks))
    return coef, block, idle, cold, ask


@settings(max_examples=60, deadline=None)
@given(_kernel_case())
def test_fused_kernel_equals_its_phases(case):
    coef, (s, v), idle, cold, ask = case
    rows = np.full((2, len(VALUES), *s.shape), np.nan)
    rows[0, 0], rows[0, 1] = s, v
    clipped = np.zeros(s.shape, dtype=bool) if ask else None
    gain = 1.0 if coef.gain is None else coef.gain
    with np.errstate(**QUIET):
        total = kernel_step(coef, rows[0], rows[1], idle=idle, cold=cold,
                            clipped=clipped)
        # the phases one by one
        D, R, f = simkernel.measure(coef.job, s, coef.kappa * v, cold,
                                    timed=coef.timed)
        F = fairness_vector(f, v, coef.lam)
        v1, mask, sums = adaptation.project_bandwidth(v + coef.eps * F,
                                                      coef.upper)
        s1 = np.where(idle, s, project_service(
            coef, s + coef.eps * (gain * f)))
    want = [(D, rows[0, 2]), (R, rows[0, 3]), (f, rows[0, 4]),
            (F, rows[0, 5]), (s1, rows[1, 0]), (v1, rows[1, 1]),
            (sums, total)] + [(mask, clipped)] * ask
    for name, (a, b) in zip(("D", "R", "f", "F", "s'", "v'", "total",
                             "clipped"), want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        # where two nans meet, which one a ufunc returns depends on its
        # loop (vector body or scalar tail), so a nan's sign and payload
        # are not compared; every other value is, bit for bit
        nan = np.isnan(a) if a.dtype == float else np.zeros(a.shape, bool)
        assert np.array_equal(nan, np.isnan(b) if b.dtype == float
                              else nan), name
        assert a[~nan].tobytes() == b[~nan].tobytes(), name


@st.composite
def _table_and_live(draw):
    """(specs, mode, live): up to 6 apps of random job kinds, cadences and
    ceilings, and an ordered subset of their indices, possibly empty."""
    specs = []
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("synthetic", "multimedia", "control")))
        x = draw(st.floats(0.1, 10.0))
        # each kind is given only the coefficients it reads
        given = {"alpha": x, "a": x, "b": 2.0 * x, "deadline": 100.0 * x,
                 "beta": x}
        specs.append(ApplicationSpec(
            id=f"t{i}", weight=draw(st.floats(0.01, 1.0)), min_service=1.0,
            initial_service=1.0, update_jobs=draw(st.integers(1, 10)),
            max_service=draw(st.none() | st.floats(1.0, 5.0)),
            model=JobModel(kind=kind, **{key: given[key]
                                         for key in JobModel.READS[kind]})))
    live = draw(st.lists(st.integers(0, max(len(specs) - 1, 0)), unique=True,
                         max_size=len(specs)))
    return specs, draw(st.sampled_from(simkernel.MODES)), live


@settings(max_examples=60, deadline=None)
@given(_table_and_live())
def test_gathered_rows_equal_the_compiled_subset(case):
    specs, mode, live = case
    platform = PlatformSpec(cores=2, step=0.1)
    got = gather(compile_apps(specs, platform, mode),
                 np.array(live, dtype=np.intp))
    want = compile_apps([specs[i] for i in live], platform, mode)
    # the identities, stated without compile_apps
    assert (got.job[3] is None) == all(specs[i].model.kind != "control"
                                       for i in live)
    assert (got.gain is None) == (mode != "async_compensated" or all(
        specs[i].update_jobs == 1 for i in live))
    for name in ("lam", "lo", "hi", "cadence", "gain", "eps", "kappa",
                 "upper"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            a, b = np.asarray(a), np.asarray(b)
            assert (a.dtype, a.shape, a.tobytes()) \
                == (b.dtype, b.shape, b.tobytes()), name
    for j, (a, b) in enumerate(zip(got.job, want.job)):
        assert (a is None) == (b is None), j
        if a is not None:
            assert (a.dtype, a.shape, a.tobytes()) \
                == (b.dtype, b.shape, b.tobytes()), j


@pytest.mark.parametrize("name", ["mixed", "tail-event"])
def test_epoch_record_counts_steps_and_names_apps(name, monkeypatch):
    s = PINNED[name][0]()
    calls = _count_steps(monkeypatch)
    epochs = run_scenario(s).epochs
    assert sum(e.steps for e in epochs) == calls[0]
    assert [e.k0 for e in epochs] == [0] + [e.k1 for e in epochs[:-1]]
    assert epochs[-1].k1 == s.steps
    traj = run_scenario(dataclasses.replace(s, sample_stride=1))
    assert traj.epochs == epochs
    assert np.array_equal(traj.app, np.concatenate(
        [np.tile(np.array(e.ids, dtype=object), e.k1 - e.k0)
         for e in epochs]))
    assert "epochs" not in repr(traj)


def _blocks_by_loop(traj):
    """Trajectory.blocks one instant at a time: each run of rows of equal
    time joins the block before when it holds the same ids in that order."""
    blocks, lo = [], 0
    for _, rows in itertools.groupby(traj.time.tolist()):
        hi = lo + len(list(rows))
        ids = tuple(traj.app[lo:hi])
        if blocks and blocks[-1].ids == ids:
            blocks[-1] = blocks[-1]._replace(hi=hi, T=blocks[-1].T + 1)
        else:
            blocks.append(Block(lo, hi, ids, 1, hi - lo))
        lo = hi
    return blocks


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("name", ["churn-compensated", "churn-uncompensated",
                                  "schedule", "mixed"])
def test_blocks_start_at_epochs_and_survive_the_csv(name, stride, tmp_path):
    s = dataclasses.replace(PINNED[name][0](), sample_stride=stride)
    traj = run_scenario(s)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    blocks = traj.blocks
    assert blocks == _blocks_by_loop(traj)
    assert read_trajectory_csv(path).blocks == blocks
    # each block starts at the first recorded instant of an epoch over its
    # ids; an epoch over the ids of the one before need not start a block
    firsts = {float(instant_time(next(k for ks in s.recorded(e.k0, e.k1)
                                      for k in ks), s.rm_period)): e.ids
              for e in traj.epochs if any(s.recorded(e.k0, e.k1))}
    assert [firsts[traj.time[b.lo]] for b in blocks] == [b.ids for b in blocks]


def test_app_major_rows_cut_into_one_block_per_app():
    traj = run_scenario(_mixed())
    ids = list(dict.fromkeys(traj.app))
    order = np.argsort([ids.index(a) for a in traj.app], kind="stable")
    by_app = Trajectory(**{name: getattr(traj, name)[order]
                           for name in ("time", "app") + VALUES})
    assert by_app.blocks == _blocks_by_loop(by_app)
    assert [(b.ids, b.T) for b in by_app.blocks] \
        == [((a,), int((traj.app == a).sum())) for a in ids]
    for aid, (t, v) in traj.per_app("service").items():
        got = by_app.per_app("service")[aid]
        assert np.array_equal(got[0], t) and np.array_equal(got[1], v)


def test_rejoin_of_the_last_app_keeps_one_block():
    traj = run_scenario(_rejoin_last())
    assert len(traj.epochs) == 2 and len(traj.blocks) == 1


def test_batched_rows_match_single_runs():
    # the mixed scenario's first epoch at three step sizes, side by side as
    # (3, n) arrays; the largest step clips and removes excess in its row only
    base = _mixed(events=(), sample_stride=1, horizon=19.0)
    steps = (0.04, 0.3, 1.5)
    singles = [run_scenario(_mixed(events=(), sample_stride=1, horizon=19.0,
                                   step=eps)) for eps in steps]
    coef = dataclasses.replace(compile_apps(base.apps, base.platform, base.mode),
                               eps=np.array(steps)[:, None])
    s0, v0 = base.initial_state()
    s = np.tile(s0, (len(steps), 1))
    v = np.tile(v0, (len(steps), 1))
    n = len(base.apps)
    idle = ~due_mask(coef, np.zeros(n, dtype=int), 0, base.steps)
    # the batch's epoch record, one extra row for the state it leaves
    rec = np.empty((base.steps + 1, len(VALUES), len(steps), n))
    rec[0, 0], rec[0, 1] = s, v
    with np.errstate(**QUIET):
        for k in range(base.steps):
            kernel_step(coef, rec[k], rec[k + 1], idle=idle[k],
                        cold=True if k == 0 else None)
    for row, single in enumerate(singles):
        for j, name in enumerate(VALUES):
            want = getattr(single, name).reshape(base.steps, n)
            assert np.array_equal(rec[:-1, j, row], want), (row, name)



# ways an excess removal can leave the feasible set: the sum above 1, an
# entry below 0, an entry above the cap (0.5 here)
BREACHES = {
    "sum": lambda v: v,
    "negative": lambda v: np.where(np.arange(len(v)) == 0, -0.25, 0.0),
    "above-cap": lambda v: np.where(np.arange(len(v)) == 0, 0.75, 0.0),
}


@pytest.mark.parametrize("breach", BREACHES)
def test_infeasible_excess_removal_is_caught(monkeypatch, breach):
    s = _mixed(events=(), sample_stride=1, horizon=19.0, step=1.5)
    s = dataclasses.replace(s, platform=dataclasses.replace(
        s.platform, max_total_bandwidth=0.5))
    upper = compile_apps(s.apps, s.platform, s.mode).upper
    traj = run_scenario(s)
    # the first instant whose clipped bandwidth step sums above 1
    raw = traj.bandwidth + s.platform.step * traj.fairness
    box = np.minimum(np.maximum(raw, 0.0), upper).reshape(s.steps, -1)
    first = int(np.flatnonzero(box.sum(axis=1) > 1.0 + SUM_TOL)[0])
    monkeypatch.setattr(adaptation, "_remove_excess",
                        lambda vnew, excess, clipped: BREACHES[breach](vnew))
    with pytest.raises(InvariantViolation) as info:
        run_scenario(s)
    assert info.value.step == first
    if breach != "sum":
        assert f"app {s.apps[0].id} has" in str(info.value)


@pytest.mark.parametrize("mode", ["async_compensated", "ode_reference"])
def test_step_budget_is_checked_before_the_run(monkeypatch, mode):
    # 20 instants; the mixed run counts its three apps and the join
    s = _mixed(horizon=19.0)
    if mode == "ode_reference":
        s = _mixed(horizon=19.0, events=(), sample_stride=1, mode=mode)
    app_steps = s.steps * (len(s.apps) + len(
        [e for e in s.events if e.action == "join"]))
    monkeypatch.setattr(simkernel, "MAX_APP_STEPS", app_steps)
    run_scenario(s)
    monkeypatch.setattr(simkernel, "MAX_APP_STEPS", app_steps - 1)
    with pytest.raises(ConfigurationError, match="horizon/rm_period"):
        run_scenario(s)

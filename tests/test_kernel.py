"""Pins on the engine's output: artifact digests, relations between modes,
and the checks that stop a run before or during its step loop.

The digests were recorded from runs before the step kernel replaced the
per-app engine loop; any change to the recursion's arithmetic or operation
order moves them.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import fairband.adaptation as adaptation
import fairband.simkernel as simkernel
from fairband import (ConfigurationError, InvariantViolation,
                      MembershipEvent, compile_apps, kernel_step,
                      parse_scenario, parse_scenario_text, run_scenario)
from fairband.cli import run_bundle, write_trajectory_csv
from fairband.core import SUM_TOL
from fairband.simkernel import QUIET, VALUES, due_mask

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


def _short(preset, instants=400, **changes):
    s = parse_scenario(preset)
    return dataclasses.replace(s, horizon=(instants - 1) * s.rm_period,
                               **changes)


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


PINNED = {
    "sync5": (lambda: _short("sync5"),
        "d68892aa7e5d9ae4d60903d9f3534ba21918ba3e0a8685021f9d5199086b020a"),
    "async3-compensated": (lambda: _short("async3"),
        "8db5e173bb8fd8a45d947231d625832d9214956d6b0938f1fa26aef022a91ea6"),
    "async3-uncompensated": (
        lambda: _short("async3", mode="async_uncompensated"),
        "4f485d715c08ea655c32af57894deae4274d62d8f5aa8bbb767a995f9aef6467"),
    "mixed": (_mixed,
        "5b6791746e7e551c775e20b7540c733a713d9f596d542a2eae1d3099bfb3f3b2"),
    # a step this large clips bandwidths, removes excess and starves apps
    "mixed-step-1.5": (lambda: _mixed(step=1.5),
        "2e3d4bc51652a9714b940665f8a712ea463ec262147a20480257fd81de3fff95"),
    # these settle into an exact cycle from instant 1,035 (1,036 in sync);
    # their digests were recorded before settled epochs were filled
    "async3-5e7-compensated": (lambda: _short("async3", instants=5001),
        "dc7fb3ff11a20a9fab8d45ef525701eb1af8a3fb84b047edb6911be4a44e29c7"),
    "async3-5e7-sync": (lambda: _short("async3", instants=5001, mode="sync"),
        "046ed2f14003edc22b4d99c508785dd679e54dec539541cc669971ccdc8db610"),
    # the first epoch is filled from instant 1,050 at a fixed point and
    # carries its state 3 instants into the 10-instant cycle
    "tail-event": (_tail_event,
        "6d76e4e43f867db808ff7c94038295be10ba0cec19e08487fc0a78ae8e3b9284"),
    # at step 1.0 the first epoch settles into a 2-cycle from instant 48 and
    # is filled from 60; the state it carries is 1 instant into the cycle,
    # which differs from the state at the instant the fill began
    "tail-event-2-cycle": (lambda: _tail_event(leave=1001, step=1.0),
        "6f564de7d378612071eec35f47f37facb2715d990ffc1ff72783b62f21bf314d"),
}


@pytest.mark.parametrize("name", PINNED)
def test_trajectory_digest_pinned(name, tmp_path):
    build, digest = PINNED[name]
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run_scenario(build()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# summary.json as run_bundle writes it: the invariant sweep, bounds,
# final values and the convergence verdict of three pinned runs
SUMMARY_PINNED = {
    "sync5": "d5809c2d1aad04fccf4d7772106f6b2f900872225857d52e126493863c32cd44",
    "async3-5e7-compensated":
        "dbf2ff2d8372d951df437bda947a9ce3190c0588527e5121c6787ae13bc651bf",
    "mixed": "8c42e04e646b9e64a0b9d300afe587914ac0537ae68ef3b33c3e3a22a20fad9c",
}


@pytest.mark.parametrize("name", SUMMARY_PINNED)
def test_summary_digest_pinned(name, tmp_path):
    bundle = run_bundle(PINNED[name][0](), tmp_path)
    assert hashlib.sha256(bundle.summary_path.read_bytes()).hexdigest() \
        == SUMMARY_PINNED[name]


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
    assert calls[0] <= 1100


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


def test_batched_rows_match_single_runs():
    # the mixed scenario's first epoch at three step sizes, side by side as
    # (3, n) arrays; the largest step clips and removes excess in its row only
    base = _mixed(events=(), sample_stride=1, horizon=19.0)
    steps = (0.04, 0.3, 1.5)
    singles = [run_scenario(_mixed(events=(), sample_stride=1, horizon=19.0,
                                   step=eps)) for eps in steps]
    coef = dataclasses.replace(compile_apps(base.apps, base.platform, base.mode),
                               eps=np.array(steps)[:, None])
    state = base.initial_state()
    s = np.tile(state.services, (len(steps), 1))
    v = np.tile(state.bandwidths, (len(steps), 1))
    n = len(base.apps)
    due = due_mask(coef, np.zeros(n, dtype=int), 0, base.steps)
    with np.errstate(**QUIET):
        for k in range(base.steps):
            r = kernel_step(coef, s, v, due[k], True if k == 0 else None)
            for row, single in enumerate(singles):
                for name, got in zip(VALUES, (s, v, r.deadline, r.response,
                                              r.matching, r.fairness)):
                    want = getattr(single, name)[k * n:(k + 1) * n]
                    assert np.array_equal(got[row], want), (k, row, name)
            s, v = r.services, r.bandwidths



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

"""Pins on the engine's output: artifact digests, and relations between modes.

The digests were recorded from runs before the step kernel replaced the
per-app engine loop; any change to the recursion's arithmetic or operation
order moves them.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from fairband import (compile_apps, kernel_step, parse_scenario,
                      parse_scenario_text, run_scenario)
from fairband.cli import write_trajectory_csv
from fairband.simkernel import VALUES

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
}


@pytest.mark.parametrize("name", PINNED)
def test_trajectory_digest_pinned(name, tmp_path):
    build, digest = PINNED[name]
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run_scenario(build()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
    for k in range(base.steps):
        r = kernel_step(coef, s, v, k)
        for row, single in enumerate(singles):
            for name, got in zip(VALUES, (s, v, r.deadline, r.response,
                                          r.matching, r.fairness)):
                want = getattr(single, name)[k * n:(k + 1) * n]
                assert np.array_equal(got[row], want), (k, row, name)
        s, v = r.services, r.bandwidths


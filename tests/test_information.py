"""The abstract's "minimum information" claim, checked on recorded rows.

The resource manager reads only the matchings, the bandwidths and the
weights: each next bandwidth row is the projected fairness step of the row
before it. Each application reads only its own service and matching: a due
app's next service is its own projected step, and an app that is not due
keeps its service. Both relations are checked bit for bit at stride 1, at
every instant whose next row lies in the same epoch, from the recorded
rows and each app's own constants; no job model is read. They tie the
engine's in-place kernel to the phases the Euler oracle shares
(fairness_vector, project_bandwidth, project_service).
"""

import dataclasses

import numpy as np
import pytest

from fairband import compile_apps, fairness_vector, run_scenario
from fairband.adaptation import project_bandwidth
from fairband.simkernel import QUIET, project_service
from test_kernel import _churn, _cores, _mixed, _short

SCENARIOS = {
    "sync5": lambda: _short("sync5", instants=2001),
    "async3-5e7-compensated": lambda: _short("async3", instants=5001),
    "async3-5e7-uncompensated": lambda: _short(
        "async3", instants=5001, mode="async_uncompensated"),
    "async3-2-cores": lambda: _cores(_short("async3"), 2),
    "mixed": _mixed,
    "churn-compensated": lambda: _churn("async_compensated"),
    "churn-uncompensated": lambda: _churn("async_uncompensated"),
}


def _epochs(scenario, traj):
    """Per recorded epoch: its live specs in row order, the instant each
    joined, and its (instants, apps) service, bandwidth and matching
    blocks. The live set is replayed from the scenario's schedule."""
    live, start = [(spec, 0) for spec in scenario.apps], 0
    for e in traj.epochs:
        for row, join in scenario.schedule.get(e.k0, ()):
            spec = scenario.admitted[row]
            live = live + [(spec, e.k0)] if join else \
                [x for x in live if x[0].id != spec.id]
        assert tuple(spec.id for spec, _ in live) == e.ids
        shape = (e.k1 - e.k0, len(e.ids))
        end = start + shape[0] * shape[1]
        blocks = [getattr(traj, name)[start:end].reshape(shape)
                  for name in ("service", "bandwidth", "matching")]
        start = end
        yield e, [spec for spec, _ in live], \
            np.array([k for _, k in live], dtype=int), blocks
    assert start == len(traj)


def _assert_bitwise(got, want, what):
    same = got.view(np.int64) == want.view(np.int64)
    if not same.all():
        k, i = np.argwhere(~same)[0]
        pytest.fail(f"{what}: instant row {k}, app {i}: {got[k, i]!r} != "
                    f"{want[k, i]!r}")


@pytest.mark.parametrize("name", SCENARIOS)
def test_each_party_reads_only_its_own_information(name):
    s = dataclasses.replace(SCENARIOS[name](), sample_stride=1)
    traj = run_scenario(s)
    p = s.platform
    for e, specs, since, (S, V, Phi) in _epochs(s, traj):
        if e.k1 - e.k0 < 2:
            continue
        where = f"epoch at {e.k0}"
        # the manager: (phi, vbar, lambda) and the platform's step and cap
        lam = np.array([a.weight for a in specs])
        with np.errstate(**QUIET):
            raw = V[:-1] + p.step * fairness_vector(Phi[:-1], V[:-1], lam)
        _assert_bitwise(V[1:], project_bandwidth(raw, p.upper)[0],
                        f"bandwidth, {where}")
        # each app: its own (s, phi), step, gain, floor, ceiling and clock
        c = compile_apps(specs, p, s.mode)
        gain = 1.0 if c.gain is None else c.gain
        due = (np.arange(e.k0, e.k1 - 1)[:, None] - since) % c.cadence == 0
        with np.errstate(**QUIET):
            stepped = project_service(c, S[:-1] + p.step * (gain * Phi[:-1]))
        _assert_bitwise(np.where(due, S[1:], stepped), stepped,
                        f"service of a due app, {where}")
        _assert_bitwise(np.where(due, S[:-1], S[1:]), S[:-1],
                        f"service of an app not due, {where}")

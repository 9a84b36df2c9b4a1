"""The layers the benchmark's traced run reads stay callable and called.

bench/tracing.py spans the library calls named in its SPANNED list and
replays the per-step layers (measure_job, fairness_vector, make_state,
rm_step) on the states the engine recorded. A name that is removed, or no
longer called on the pipeline call that reads it, leaves a per-layer metric
without a value. This runs the bench's three-call pipeline once, small.
"""

import dataclasses
import sys
from pathlib import Path

from fairband import cli, parse_scenario_text
from fairband.scenario import emit
from test_kernel import MIXED

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402


def _write(scenario, path):
    path.write_text(emit(scenario))
    return str(path)


def test_traced_pipeline_spans_and_replays_every_layer(tmp_path, capsys):
    # the replay needs every instant recorded; MIXED has a leave and a join
    evented = dataclasses.replace(parse_scenario_text(MIXED), sample_stride=1)
    # the oracle takes no events: the same apps, the joiner from the start
    joiner = next(e.spec for e in evented.events if e.action == "join")
    fixed = dataclasses.replace(evented, events=(),
                                apps=evented.apps + (joiner,))
    a, b = tmp_path / "primary", tmp_path / "alternate"
    calls = {
        "run": ["run", _write(evented, tmp_path / "evented.yaml"),
                "--out", str(a)],
        "alt_run": ["run", _write(fixed, tmp_path / "fixed.yaml"),
                    "--mode", "ode_reference", "--out", str(b)],
        "compare": ["compare", str(a), str(b)],
    }
    tracer = tracing.Tracer()
    with tracer:
        for label, argv in calls.items():
            tracer.call = label
            assert cli.main(argv) == cli.EXIT_OK, label
    capsys.readouterr()
    assert tracer.missing == {}
    spanned = {(s["call"], s["name"]) for s in tracer.spans}
    for module, name in tracing.SPANNED:
        assert any(n == f"{module}.{name}" for _, n in spanned), name
    assert ("alt_run", "reference.integrate_ode") in spanned

    (scenario, *_), trajectory = tracer.kept["simkernel.run_scenario"]
    assert len(scenario.events) == 2
    failures = []
    values, why = tracing.replay(
        scenario, trajectory,
        lambda ok, what: ok or failures.append(what) or False)
    assert why == {}
    assert failures == []
    for key in ("measure_job", "fairness_vector", "make_state", "rm_step",
                "projection_steps", "excess_removal_steps"):
        assert key in values, key

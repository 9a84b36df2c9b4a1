import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from fairband import (ConfigurationError, MembershipEvent, Scenario,
                      parse_scenario, parse_scenario_text, run_scenario)
from fairband.cli import (CSV_HEADER, EXIT_INVARIANT, EXIT_IO, EXIT_OK,
                          EXIT_VALIDATION, _jsonable, main,
                          read_trajectory_csv, write_trajectory_csv)
from fairband.scenario import MS, emit, scenario_from_dict
from fairband.simkernel import Trajectory

README = Path(__file__).resolve().parent.parent / "README.md"
# ids the CSV cannot carry: a field separator, or not printable
BAD_IDS = ["a,b", "a\nb", "a\rb", "a\x85b", "a\u2028b"]
FLOAT_COLUMNS = ("time", "service", "bandwidth", "deadline", "response",
                 "matching", "fairness")


def _sync5_doc(**changes):
    """sync5 as a config document, with top-level keys replaced."""
    return {**yaml.safe_load(emit(parse_scenario("sync5"))), **changes}


def _row_by_row_csv(traj, path):
    """The writer write_trajectory_csv replaced, one `%` call per row: the
    reference its output must equal byte for byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in range(len(traj)):
            fh.write("%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                traj.time[r], traj.app[r], traj.service[r], traj.bandwidth[r],
                traj.deadline[r], traj.response[r], traj.matching[r],
                traj.fairness[r]))


def _assert_writers_agree(traj, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_trajectory_csv(traj, new)
    _row_by_row_csv(traj, ref)
    assert new.read_bytes() == ref.read_bytes()
    return new


class TestPresets:
    def test_sync5_shape(self):
        s = parse_scenario("sync5")
        assert len(s.apps) == 5
        assert [a.weight for a in s.apps] == [0.9, 0.7, 0.5, 0.3, 0.1]
        for a in s.apps:
            assert (a.model.a, a.model.b) == (20.0, 200.0)
            assert a.model.deadline == 1.0 * MS
            assert a.initial_service == 10.0
        assert s.platform.max_total_bandwidth == 0.9
        assert s.mode == "sync"

    def test_async3_shape(self):
        s = parse_scenario("async3")
        assert len(s.apps) == 3
        assert [a.weight for a in s.apps] == [0.1, 0.5, 0.8]
        assert [a.update_jobs for a in s.apps] == [10, 1, 1]
        for a in s.apps:
            assert a.model.deadline == 10.0 * MS
            assert (a.min_service, a.max_service) == (0.0, 20.0)
        assert s.platform.step == 0.03
        assert s.mode == "async_compensated"

    def test_presets_need_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert parse_scenario("sync5").name == "sync5"


class TestConfigFormat:
    def test_round_trip(self):
        for preset in ("sync5", "async3"):
            s = parse_scenario(preset)
            assert parse_scenario_text(emit(s)) == s

    def test_round_trip_with_events(self):
        base = parse_scenario("sync5")
        events = (MembershipEvent(2000.0, "leave", app_id="app5"),
                  MembershipEvent(3000.0, "join", spec=base.apps[4]))
        s = dataclasses.replace(base, events=events)
        assert parse_scenario_text(emit(s)) == s

    def test_missing_weight_names_field(self):
        text = """
rm_period: 1.0
horizon: 10.0
apps:
  - id: x
    min_service: 1.0
    initial_service: 1.0
    model: {kind: multimedia, alpha: 100.0, deadline: 80.0}
"""
        with pytest.raises(ConfigurationError, match=r"apps\[0\]\.weight"):
            parse_scenario_text(text)

    def test_millisecond_coefficients_scaled(self):
        text = """
rm_period: 1000.0
horizon: 10000.0
apps:
  - id: x
    weight: 0.5
    min_service: 0.0
    initial_service: 10.0
    model: {kind: synthetic, a: 40, b: 100, deadline: 10, coeff_unit: ms}
"""
        s = parse_scenario_text(text)
        m = s.apps[0].model
        assert (m.a, m.b, m.deadline) == (40000.0, 100000.0, 10000.0)

    def test_unknown_unit_rejected(self):
        text = """
rm_period: 1.0
horizon: 10.0
apps:
  - id: x
    weight: 0.5
    min_service: 1.0
    initial_service: 1.0
    model: {kind: multimedia, alpha: 100.0, deadline: 80.0, coeff_unit: s}
"""
        with pytest.raises(ConfigurationError, match="coeff_unit"):
            parse_scenario_text(text)

    def test_file_loading(self, tmp_path):
        path = tmp_path / "scn.yaml"
        path.write_text(emit(parse_scenario("sync5")))
        assert parse_scenario(str(path)) == parse_scenario("sync5")

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            parse_scenario("no-such-file.yaml")

    def test_readme_example_runs(self, tmp_path):
        block = re.search(r"```yaml\n(.*?)```", README.read_text(), re.S)
        cfg = tmp_path / "readme.yaml"
        cfg.write_text(block.group(1))
        s = parse_scenario(str(cfg))
        assert [e.action for e in s.events] == ["leave", "join"]
        assert s.events[0].app_id == "app1"
        assert s.events[1].spec.id == "app6"
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_OK

    @pytest.mark.parametrize("app_id", BAD_IDS)
    def test_app_id_csv_cannot_carry_rejected(self, app_id):
        doc = yaml.safe_load(emit(parse_scenario("sync5")))
        doc["apps"][2]["id"] = app_id
        with pytest.raises(ConfigurationError, match=r"apps\[2\]"):
            scenario_from_dict(doc)
        join = dict(doc["apps"][0], id=app_id)
        doc = yaml.safe_load(emit(parse_scenario("sync5")))
        doc["events"] = [{"time": 2000.0, "action": "join", "app": join}]
        with pytest.raises(ConfigurationError, match=r"events\[0\]\.app"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("key", ["horizon", "rm_period"])
    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_non_finite_clock_rejected(self, key, value):
        text = emit(parse_scenario("sync5"))
        text = re.sub(rf"^{key}: .*$", f"{key}: {value}", text, flags=re.M)
        with pytest.raises(ConfigurationError, match=key):
            parse_scenario_text(text)

    @pytest.mark.parametrize("edit, path", [
        (lambda d: d.update(speed=1), "scenario.speed"),
        (lambda d: d["platform"].update(steps=0.1), "platform.steps"),
        (lambda d: d["apps"][0].update(update_job=2), "apps[0].update_job"),
        (lambda d: d["apps"][1]["model"].update(dealine=5.0),
         "apps[1].model.dealine"),
        (lambda d: d.update(events=[{"time": 2000.0, "action": "leave",
                                     "app": "app1", "at": 3}]),
         "events[0].at"),
        (lambda d: d.update(events=[{"time": 2000.0, "action": "join",
                                     "app": dict(d["apps"][0], id="x",
                                                 weights=1)}]),
         "events[0].app.weights"),
        (lambda d: d["platform"].update(cores=2.5), "platform.cores"),
        (lambda d: d["apps"][2].update(update_jobs=2.5),
         "apps[2].update_jobs"),
        (lambda d: d.update(sample_stride=2.5), "scenario.sample_stride"),
        (lambda d: d.update(sample_stride=True), "scenario.sample_stride"),
        (lambda d: d.update(strict_bounds="no"), "scenario.strict_bounds"),
        (lambda d: d.update(strict_bounds=1), "scenario.strict_bounds"),
    ], ids=["top", "platform", "app", "model", "leave", "join", "cores",
            "update_jobs", "stride-2.5", "stride-true", "strict-str",
            "strict-int"])
    def test_ignored_or_altered_field_rejected(self, edit, path):
        doc = _sync5_doc()
        edit(doc)
        with pytest.raises(ConfigurationError, match=re.escape(path)):
            scenario_from_dict(doc)

    def test_integral_float_count_accepted(self):
        doc = _sync5_doc(sample_stride=2.0)
        doc["platform"]["cores"] = 2.0
        s = scenario_from_dict(doc)
        assert (s.sample_stride, s.platform.cores) == (2, 2)
        assert type(s.sample_stride) is int and type(s.platform.cores) is int

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    def test_libyaml_and_python_loaders_agree(self):
        base = parse_scenario("sync5")
        many = dataclasses.replace(base, apps=tuple(
            dataclasses.replace(base.apps[i % 5], id=f"app{i}",
                                weight=0.05 + 0.9 * i / 300)
            for i in range(300)))
        for s in (parse_scenario("sync5"), parse_scenario("async3"), many):
            text = emit(s)
            assert yaml.load(text, Loader=yaml.CSafeLoader) == \
                yaml.load(text, Loader=yaml.SafeLoader)
            assert parse_scenario_text(text) == s


class TestTrajectoryCsv:
    def test_round_trip_exact(self, tmp_path):
        s = dataclasses.replace(parse_scenario("sync5"), horizon=50.0 * MS)
        traj = run_scenario(s)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        for f in ("time", "service", "bandwidth", "deadline", "response",
                  "matching", "fairness"):
            assert np.array_equal(getattr(traj, f), getattr(back, f)), f
        assert list(back.app) == list(traj.app)

    def test_header(self, tmp_path):
        s = dataclasses.replace(parse_scenario("sync5"), horizon=2.0 * MS)
        path = tmp_path / "t.csv"
        write_trajectory_csv(run_scenario(s), path)
        first = path.read_text().splitlines()[0]
        assert first == "time,app,service,bandwidth,deadline,response,matching,fairness"

    def test_infinite_response_survives(self, tmp_path):
        from fairband.simkernel import Trajectory
        traj = Trajectory(time=np.array([0.0]), app=np.array(["x"], dtype=object),
                          service=np.array([1.0]), bandwidth=np.array([0.0]),
                          deadline=np.array([10.0]),
                          response=np.array([math.inf]),
                          matching=np.array([-1.0]), fairness=np.array([0.0]))
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert math.isinf(back.response[0])
        assert back.matching[0] == -1.0

    @pytest.mark.parametrize("rows", [1, 9])
    def test_round_trip_bit_patterns(self, tmp_path, rows):
        special = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan,
                            5e-324, 2.2250738585072009e-308, 1.0 / 3.0,
                            -1.7976931348623157e308])
        cols = {f: np.roll(special, k)[:rows] for k, f in enumerate(
            ("time", "service", "bandwidth", "deadline", "response",
             "matching", "fairness"))}
        ids = np.array(["x", "a b", "#c", "d#", "x", "\u00e9", "x", "y",
                        "z"][:rows], dtype=object)
        traj = Trajectory(app=ids, **cols)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        for f, col in cols.items():
            got = getattr(back, f)
            assert got.dtype == np.float64 and got.flags.c_contiguous, f
            assert np.array_equal(got.view(np.int64), col.view(np.int64)), f
        assert back.app.dtype == object and list(back.app) == list(ids)

    @pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
    def test_matches_row_by_row_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        # half the values come from a small pool, so chunks hold repeats
        pool = rng.standard_normal(7) * 10.0 ** rng.integers(-5, 6, 7)
        cols = {f: np.where(rng.random(rows) < 0.5,
                            rng.choice(pool, rows),
                            rng.standard_normal(rows) * 1e3)
                for f in FLOAT_COLUMNS}
        ids = rng.choice(np.array(["a", "b", "c#"], dtype=object), rows)
        path = _assert_writers_agree(Trajectory(app=ids, **cols), tmp_path)
        if rows == 0:
            assert path.read_text() == CSV_HEADER + "\n"

    def test_matches_row_by_row_writer_on_special_values(self, tmp_path):
        special = [-0.0, 0.0, 0.0, -0.0, math.nan, -math.nan, math.inf,
                   -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
                   1.0 / 3.0, 1.0 / 3.0, 0.1, -1.7976931348623157e308]
        values = np.array(special * 3)
        rows = len(values)
        traj = Trajectory(
            time=np.arange(rows) // 4,                     # int64 column
            app=np.array(["x", "y", "z"] * (rows // 3), dtype=object),
            service=np.resize(np.array(                    # float32 column
                [-0.0, 0.0, math.nan, math.inf, 1e-45, 0.1, 0.1],
                dtype=np.float32), rows),
            bandwidth=values, deadline=np.full(rows, 1e4),
            response=np.roll(values, 1), matching=np.roll(values, 2),
            fairness=values[::-1])
        _assert_writers_agree(traj, tmp_path)

    def test_writer_memory_is_bounded_by_a_chunk(self, tmp_path):
        # every value distinct: the most text any chunk can hold
        rows = 100_000
        rng = np.random.default_rng(0)
        traj = Trajectory(app=np.array(["app1", "app2"] * (rows // 2),
                                       dtype=object),
                          **{f: rng.random(rows) for f in FLOAT_COLUMNS})
        path = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's text is ~15 MB; a whole-file join would hold all of it
        assert path.stat().st_size > 10 * 2**20
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("body, what", [
        ("", "no data rows"),
        ("0,x,1,2,3,4,5,6\n0,y,1,2,3,4,5\n", "7 were found"),
        ("0,x,1,2,3,4,5,6\n0,y,1,2,3,4,5,6,7\n", "9 were found"),
        ("0,x,1,abc,3,4,5,6\n", "abc"),
    ])
    def test_malformed_file_names_path(self, tmp_path, body, what):
        path = tmp_path / "t.csv"
        path.write_text(
            "time,app,service,bandwidth,deadline,response,matching,fairness\n"
            + body)
        with pytest.raises(ConfigurationError) as info:
            read_trajectory_csv(path)
        assert str(path) in str(info.value) and what in str(info.value)


class TestCli:
    def test_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "sync5", "--horizon", str(100.0 * MS),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"]["name"] == "sync5"
        assert "bounds" in summary and "invariants" in summary

    def test_run_rejects_unknown_scenario(self, capsys):
        assert main(["run", "not-a-preset"]) == EXIT_VALIDATION

    def test_run_reports_invariant_breach_in_strict_mode(self, tmp_path):
        # one heavy app started below the step-size floor: starvation flag
        cfg = tmp_path / "s.yaml"
        cfg.write_text("""
name: starved
rm_period: 1.0
horizon: 50.0
mode: sync
strict_bounds: true
platform: {cores: 1, step: 0.06}
apps:
  - id: x
    weight: 1.0
    min_service: 1.0
    initial_service: 1.0
    initial_bandwidth: 0.05
    model: {kind: multimedia, alpha: 1000.0, deadline: 100.0}
""")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVARIANT

    def test_run_io_failure(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        code = main(["run", "sync5", "--horizon", str(5.0 * MS),
                     "--out", str(blocker / "out")])
        assert code == EXIT_IO

    def test_ode_reference_mode_matches_sync(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        horizon = str(200.0 * MS)
        assert main(["run", "sync5", "--horizon", horizon, "--out", str(a)]) == EXIT_OK
        assert main(["run", "sync5", "--horizon", horizon,
                     "--mode", "ode_reference", "--out", str(b)]) == EXIT_OK
        assert (a / "trajectory.csv").read_text() == (b / "trajectory.csv").read_text()

    def test_compare_self_is_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "sync5", "--horizon", str(100.0 * MS), "--out", str(out)])
        capsys.readouterr()
        assert main(["compare", str(out), str(out)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert all(v == 0.0 for v in report["fields"]["service"].values())
        assert report["within_bound"]

    @pytest.mark.parametrize("body", [
        "",                                    # header only
        "0,app1,10,0.2,1000,not-a-number,0,0\n",
        "0,app1,10,0.2,1000,1000,0\n",          # seven fields
    ])
    def test_compare_unreadable_trajectory_exits_2(self, tmp_path, capsys,
                                                   body):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["run", "sync5", "--horizon", str(5.0 * MS),
                         "--out", str(d)]) == EXIT_OK
        bad = b / "trajectory.csv"
        bad.write_text(bad.read_text().splitlines()[0] + "\n" + body)
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == EXIT_VALIDATION
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["{", "{}", "[]"])
    def test_compare_unreadable_summary_exits_2(self, tmp_path, capsys, body):
        a = tmp_path / "a"
        assert main(["run", "sync5", "--horizon", str(5.0 * MS),
                     "--out", str(a)]) == EXIT_OK
        (a / "summary.json").write_text(body)
        capsys.readouterr()
        assert main(["compare", str(a), str(a)]) == EXIT_VALIDATION
        assert str(a / "summary.json") in capsys.readouterr().err

    def test_bounds_zeta_with_zero_floor_exits_2(self, capsys):
        # every sync5 app has min_service 0.0
        assert main(["bounds", "sync5", "--zeta", "0.5"]) == EXIT_VALIDATION
        assert "min_service" in capsys.readouterr().err

    @pytest.mark.parametrize("field, extra", [
        ("events", {"events": [{"time": 2000.0, "action": "leave",
                                "app": "app5"}]}),
        ("sample_stride", {"sample_stride": 5}),
    ])
    def test_ode_reference_rejects_what_it_cannot_honour(self, tmp_path,
                                                         capsys, field, extra):
        doc = {**yaml.safe_load(emit(parse_scenario("sync5"))),
               "horizon": 20.0 * MS, **extra}
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "sync")]) \
            == EXIT_OK
        capsys.readouterr()
        assert main(["run", str(cfg), "--mode", "ode_reference",
                     "--out", str(tmp_path / "ode")]) == EXIT_VALIDATION
        assert field in capsys.readouterr().err
        assert not (tmp_path / "ode").exists()

    @pytest.mark.parametrize("app_id", BAD_IDS)
    def test_run_rejects_app_id_csv_cannot_carry(self, tmp_path, capsys,
                                                 app_id):
        doc = yaml.safe_load(emit(parse_scenario("sync5")))
        doc["apps"][3]["id"] = app_id
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        assert "apps[3]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.update(platform=[1]), "platform"),
        (lambda d: d.update(events=[1]), "events[0]"),
        (lambda d: d.update(events=5), "scenario.events"),
        (lambda d: d.update(horizon="abc"), "scenario.horizon"),
        (lambda d: d.update(rm_period="abc"), "scenario.rm_period"),
        (lambda d: d["platform"].update(step="abc"), "platform.step"),
        (lambda d: d.update(events=[{"time": "abc", "action": "leave",
                                     "app": "app1"}]), "events[0].time"),
        (lambda d: d["apps"][0].update(update_jobs=2**63), "update_jobs"),
    ] + [
        (lambda d, t=t: d.update(events=[{"time": t, "action": "leave",
                                          "app": "app1"}]), "events[0].time")
        for t in (math.nan, math.inf, -math.inf)
    ], ids=["platform-list", "event-int", "events-int", "horizon",
            "rm_period", "step", "event-time", "update_jobs-2**63",
            "event-time-nan", "event-time-inf", "event-time--inf"])
    def test_run_bad_field_exits_2_naming_it(self, tmp_path, capsys, edit,
                                             field):
        doc = _sync5_doc(horizon=5.0 * MS)
        edit(doc)
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # a YAML scalar of the wrong type is refused, not coerced by float() or
    # str(); the leave names an app whose id is the string "16", which a
    # coerced 16 would match
    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["apps"][0].update(weight=True), "apps[0].weight"),
        (lambda d: d["apps"][1].update(id=16), "apps[1].id"),
        (lambda d: (d["apps"][1].update(id="16"), d.update(events=[
            {"time": 2.0 * MS, "action": "leave", "app": 16}])),
         "events[0].app"),
        (lambda d: d.update(mode=1), "scenario.mode"),
        (lambda d: d.update(name=16), "scenario.name"),
    ], ids=["weight-bool", "id-int", "leave-int", "mode-int", "name-int"])
    def test_run_coerced_scalar_exits_2_naming_it(self, tmp_path, capsys,
                                                  edit, field):
        doc = _sync5_doc(horizon=5.0 * MS)
        edit(doc)
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_bandwidth_over_core_cap_names_cores_and_app(self, tmp_path,
                                                             capsys):
        # every sync5 app starts at 0.2, far above 1/cores here
        doc = _sync5_doc(horizon=5.0 * MS)
        doc["platform"]["cores"] = 2**63 - 1
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "platform.cores" in err and "app1" in err
        assert "initial_bandwidth" in err
        assert not (tmp_path / "out").exists()

    def test_ode_reference_validates_the_initial_state(self, tmp_path,
                                                       capsys):
        doc = _sync5_doc(horizon=5.0 * MS)
        doc["platform"]["cores"] = 2**63 - 1
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--mode", "ode_reference",
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "platform.cores" in err and "app1" in err
        assert not (tmp_path / "out").exists()

    def test_run_rejects_infinite_horizon(self, tmp_path, capsys):
        assert main(["run", "async3", "--horizon", "inf",
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "horizon" in capsys.readouterr().err

    def test_strict_guard_holds_in_every_mode(self, tmp_path, capsys):
        errors = []
        for mode in ("sync", "ode_reference"):
            assert main(["run", "sync5", "--mode", mode, "--strict",
                         "--step", "0.9", "--out", str(tmp_path / mode)]) \
                == EXIT_VALIDATION
            errors.append(capsys.readouterr().err)
        assert "step 0.9 not below the starvation guard 0.294" in errors[0]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("mode", ["sync", "ode_reference"])
    def test_run_over_step_budget_exits_2(self, tmp_path, capsys, mode):
        # 10**12 instants: rejected before any per-instant array exists
        assert main(["run", "sync5", "--mode", mode, "--horizon", "1e15",
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "horizon/rm_period" in err and "5 apps" in err
        assert not (tmp_path / "out").exists()

    def test_run_rejects_malformed_yaml(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text("rm_period: [1.0\napps: {\n")
        assert main(["run", str(cfg)]) == EXIT_VALIDATION
        assert "malformed config" in capsys.readouterr().err

    def test_json_output_is_strict(self):
        def no_constants(token):
            raise ValueError(f"non-standard JSON constant {token}")
        text = json.dumps(_jsonable({
            "inf": np.float64(math.inf), "nan": [np.float32(math.nan)],
            "neg": np.array([-math.inf, 1.5]), "n": np.int64(3),
            "flag": np.bool_(True), "py": math.inf}))
        assert json.loads(text, parse_constant=no_constants) == {
            "inf": "inf", "nan": ["nan"], "neg": ["-inf", 1.5], "n": 3,
            "flag": True, "py": "inf"}

    def test_bounds_verb(self, capsys):
        assert main(["bounds", "async3"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["n_bar"] == 10
        assert out["lambda_min"] == 0.1

    def test_solve_verb(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text("""
rm_period: 1.0
horizon: 10.0
platform: {cores: 1, step: 0.02}
apps:
  - id: x
    weight: 0.9
    min_service: 1.0
    initial_service: 1.0
    model: {kind: multimedia, alpha: 2000.0, deadline: 800.0}
  - id: y
    weight: 0.3
    min_service: 1.0
    initial_service: 1.0
    model: {kind: multimedia, alpha: 2000.0, deadline: 800.0}
""")
        assert main(["solve", str(cfg)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert sum(out["bandwidths"]) == pytest.approx(1.0, abs=1e-9)

    def test_uncompensated_summary_flags_slow_app(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "async3", "--mode", "async_uncompensated",
                     "--horizon", str(2000 * 10.0 * MS), "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        gaps = summary["convergence"]["fair_share_gap"]
        assert gaps["app1"] > 0.0

    def test_swapped_app_set_gets_no_settle_verdict(self, tmp_path):
        # app5 leaves and app6 joins at the same instant: the row count per
        # instant stays 5, but the bandwidth column changes app
        doc = _sync5_doc(horizon=2000.0 * MS)
        doc["events"] = [
            {"time": 1000.0 * MS, "action": "leave", "app": "app5"},
            {"time": 1000.0 * MS, "action": "join",
             "app": dict(doc["apps"][4], id="app6")}]
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        conv = json.loads((out / "summary.json").read_text())["convergence"]
        assert conv["settled"] is False
        assert conv["settle_time"] is None
        assert conv["final_fairness_residuals"] == {}

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from fairband import cli
from fairband import (ConfigurationError, MembershipEvent, parse_scenario,
                      parse_scenario_text, run_scenario)
from fairband.core import SUM_TOL, JobModel, PlatformSpec
from fairband.floattext import VECTOR_MIN
from fairband.cli import (CSV_HEADER, EXIT_INVARIANT, EXIT_IO, EXIT_OK,
                          EXIT_VALIDATION, _jsonable, main,
                          read_trajectory_csv, write_trajectory_csv)
from fairband.scenario import (_APP, _EVENT, _MODEL, _PLATFORM, _TABLES, _TOP,
                               MS, emit, scenario_from_dict)
from fairband.simkernel import Trajectory
from test_kernel import MIXED

README = Path(__file__).resolve().parent.parent / "README.md"
# ids the CSV cannot carry: a field separator, or not printable
BAD_IDS = ["a,b", "a\nb", "a\rb", "a\x85b", "a\u2028b"]
FLOAT_COLUMNS = ("time", "service", "bandwidth", "deadline", "response",
                 "matching", "fairness")


def _sync5_doc(**changes):
    """sync5 as a config document, with top-level keys replaced."""
    return {**yaml.safe_load(emit(parse_scenario("sync5"))), **changes}


def _config_argv(verb, edit):
    """argv(tmp_path) for `verb` on five instants of sync5, edited by
    `edit` and written to a config file in tmp_path."""
    def argv(tmp_path):
        doc = _sync5_doc(horizon=5.0 * MS)
        edit(doc)
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out = ["--out", str(tmp_path / "out")] if verb == "run" else []
        return [verb, str(cfg), *out]
    return argv


def _bad_header_argv(tmp_path):
    """argv(tmp_path) comparing two run folders whose CSV header is not the
    writer's."""
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "trajectory.csv").write_text("t,app\n0,app1\n")
    return ["compare", str(tmp_path / "a"), str(tmp_path / "b")]


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


def _with_distinct(rng, rows, distinct, special):
    """FLOAT_COLUMNS of `rows` rows that hold `distinct` distinct values
    among them, `special` of which are zeros, subnormals, inf, nan or
    magnitudes from 1e17, which the formatter prints through `%`."""
    values = rng.standard_normal(distinct) * 10.0 ** rng.integers(
        -20, 15, distinct)
    if special:
        few = [0.0, -0.0, math.inf, -math.inf, math.nan]
        tiny = np.arange(1, (special - len(few)) // 2 + 1).view(np.float64)
        huge = -(1e17 ** (1.0 + np.arange(special - len(few) - len(tiny))
                          * 2.0 ** -20))
        values[:special] = np.concatenate([few, -tiny, huge])
    assert len(np.unique(values.view(np.int64))) == distinct
    cells = np.concatenate([values, rng.choice(values, 7 * rows - distinct)])
    rng.shuffle(cells)
    return dict(zip(FLOAT_COLUMNS, cells.reshape(7, rows)))


def _assert_writers_agree(traj, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_trajectory_csv(traj, new)
    _row_by_row_csv(traj, ref)
    assert new.read_bytes() == ref.read_bytes()
    return new


# values a chunk may repeat, shared by every float column
CSV_POOL = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                     1.0 / 3.0, 0.1])
# printable text without ',', what an app id may be, often with a
# comment, template or non-ASCII character or a space: up to 4 characters,
# or 29 to 40, past the 29 bytes of a float field (hypothesis draws short
# text, so a longer cap alone drew no id over 20 bytes in 300 draws)
_ID_CHARS = st.sampled_from("#%s é") | st.characters(
    blacklist_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"),
    blacklist_characters=",")
CSV_IDS = (st.text(_ID_CHARS, max_size=4) |
           st.text(_ID_CHARS, min_size=29, max_size=40)) \
    .filter(str.isprintable)
SHORT_IDS = ("a", "b", "c#")
# an id of 40 UTF-8 bytes, wider than a float field
WIDE_ID = "\u00e9" * 17 + "\u2192\u221e"


@st.composite
def _csv_tables(draw):
    """A trajectory of 0 to 2,100 rows, so it may cross the writer's
    1,024-row chunk edge. Each float column holds values from CSV_POOL or
    arbitrary bit patterns; some tables have an int64 time column and a
    float32 service column, which holds signalling nans."""
    rows = draw(st.integers(0, 2100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    narrow = draw(st.booleans())
    cols = {}
    for f in FLOAT_COLUMNS:
        kind = np.dtype(np.float32 if narrow and f == "service" else float)
        cols[f] = (rng.choice(CSV_POOL, rows).astype(kind)
                   if draw(st.booleans()) else
                   rng.integers(0, 256, rows * kind.itemsize, np.uint8)
                   .view(kind))
    if narrow:
        cols["time"] = rng.integers(-10**6, 10**6, rows)
        # every eighth float32 pattern gets an all-ones exponent: an inf or
        # a nan, signalling when the top mantissa bit is clear
        cols["service"].view(np.uint32)[::8] |= 0x7f800000
    ids = np.array(draw(st.lists(CSV_IDS, min_size=1, max_size=5)),
                   dtype=object)
    return Trajectory(app=rng.choice(ids, rows), **cols)


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
        # MIXED holds all three job kinds, an explicit beta, unset optional
        # fields and a leave plus a join
        for s in (parse_scenario("sync5"), parse_scenario("async3"),
                  parse_scenario_text(MIXED)):
            assert parse_scenario_text(emit(s)) == s

    def test_round_trip_with_events(self):
        base = parse_scenario("sync5")
        # a joiner is seeded by the engine, so it carries no initial share
        rejoin = dataclasses.replace(base.apps[4], initial_bandwidth=None)
        events = (MembershipEvent(2000.0, "leave", app_id="app5"),
                  MembershipEvent(3000.0, "join", spec=rejoin))
        s = dataclasses.replace(base, events=events)
        assert parse_scenario_text(emit(s)) == s

    def test_library_model_with_an_unread_coefficient_rejected(self):
        # the echo writes only what a kind reads, so a multimedia model
        # given a = 5 would come back with a = 0 and compare unequal
        base = parse_scenario("sync5")
        with pytest.raises(ConfigurationError,
                           match="a is not read by a multimedia model"):
            JobModel(kind="multimedia", alpha=1.0, deadline=2.0, a=5.0)
        app = dataclasses.replace(
            base.apps[0], min_service=1.0,
            model=JobModel(kind="multimedia", alpha=1.0, deadline=2.0))
        s = dataclasses.replace(base, apps=(app, *base.apps[1:]))
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

    def test_readme_python_examples_run(self):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})

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

    # each check is a comparison, written so that a nan fails it; model.b
    # is nan-checked by the floor only where min_service is 0
    @pytest.mark.parametrize("edit", [
        lambda app: app.update(initial_service=math.nan),
        lambda app: app.update(max_service=math.nan),
        lambda app: app["model"].update(a=math.nan),
        lambda app: app.update(min_service=1.0, model=dict(app["model"],
                                                           b=math.nan)),
    ], ids=["initial_service", "max_service", "model.a", "model.b"])
    def test_nan_app_field_rejected(self, edit, tmp_path, capsys):
        doc = _sync5_doc(horizon=20000.0)
        edit(doc["apps"][1])
        cfg = tmp_path / "nan.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        assert "apps[1]" in capsys.readouterr().err
        doc = _sync5_doc(events=[{"time": 2000.0, "action": "join",
                                  "app": dict(doc["apps"][1], id="x")}])
        with pytest.raises(ConfigurationError, match=r"events\[0\]\.app"):
            scenario_from_dict(doc)

    # an infinite coefficient, or an overflowing or vanishing quotient of
    # two, passes every "> 0" test, so it is refused on its own: run would
    # step nan shares, and solve print a 0.0 share
    @pytest.mark.parametrize("model", [
        {"kind": "synthetic", "a": 20.0, "b": 200.0, "deadline": math.inf},
        {"kind": "synthetic", "a": math.inf, "b": 200.0, "deadline": 1000.0},
        {"kind": "synthetic", "a": 20.0, "b": math.inf, "deadline": 1000.0},
        {"kind": "multimedia", "alpha": math.inf, "deadline": 1000.0},
        {"kind": "control", "alpha": 200.0, "beta": math.inf},
        {"kind": "multimedia", "alpha": 1e-10, "deadline": 1e300},
        {"kind": "control", "alpha": 1e-300, "beta": 1e300},
    ], ids=["deadline", "a", "b", "alpha", "beta", "deadline/alpha",
            "alpha/beta"])
    @pytest.mark.parametrize("verb", ["run", "solve"])
    def test_non_finite_model_coefficient_rejected(self, tmp_path, capsys,
                                                   model, verb):
        doc = _sync5_doc(horizon=20000.0)
        for app in doc["apps"]:
            app["min_service"] = 1.0
        doc["apps"][1]["model"] = model
        cfg = tmp_path / "inf.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out = ["--out", str(tmp_path / "out")] if verb == "run" else []
        assert main([verb, str(cfg), *out]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "apps[1].model" in err and "finite" in err
        doc = _sync5_doc(events=[{"time": 2000.0, "action": "join",
                                  "app": dict(doc["apps"][1], id="x")}])
        with pytest.raises(ConfigurationError,
                           match=r"events\[0\]\.app.*finite"):
            scenario_from_dict(doc)

    # a given beta must be positive on every kind, so solve prints no
    # negative share
    @pytest.mark.parametrize("beta", [-2.0, 0.0, math.nan])
    @pytest.mark.parametrize("model", [
        {"kind": "synthetic", "a": 20.0, "b": 200.0, "deadline": 1000.0},
        {"kind": "multimedia", "alpha": 200.0, "deadline": 1000.0},
        {"kind": "control", "alpha": 200.0},
    ], ids=lambda m: m["kind"])
    def test_solve_refuses_a_non_positive_beta(self, tmp_path, capsys, model,
                                               beta):
        doc = _sync5_doc()
        for app in doc["apps"]:
            app["min_service"] = 1.0
        doc["apps"][1]["model"] = dict(model, beta=beta)
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["solve", str(cfg)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "apps[1].model" in err and "beta > 0" in err

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
        # a coefficient the model's kind does not read
        (lambda d: d["apps"][0].update(min_service=1.0, model={
            "kind": "multimedia", "alpha": 1.0, "deadline": 2.0, "a": 5.0}),
         "apps[0].model.a"),
        (lambda d: d["apps"][3].update(min_service=1.0, model={
            "kind": "control", "alpha": 1.0, "beta": 0.5, "deadline": 9.0}),
         "apps[3].model.deadline"),
        (lambda d: d["apps"][1]["model"].update(alpha=3.0),
         "apps[1].model.alpha"),
        (lambda d: d.update(events=[{"time": 2000.0, "action": "join",
                                     "app": {"id": "x", "weight": 0.5,
                                             "min_service": 1.0,
                                             "initial_service": 1.0,
                                             "model": {"kind": "multimedia",
                                                       "alpha": 1.0,
                                                       "deadline": 1.0,
                                                       "b": 7.0}}}]),
         "events[0].app.model.b"),
        (lambda d: d["apps"][2]["model"].update(kind="x"),
         "apps[2].model: unknown job model kind 'x'"),
    ], ids=["top", "platform", "app", "model", "leave", "join", "cores",
            "update_jobs", "stride-2.5", "stride-true", "strict-str",
            "strict-int", "multimedia-a", "control-deadline",
            "synthetic-alpha", "join-b", "unknown-kind"])
    def test_ignored_or_altered_field_rejected(self, edit, path):
        doc = _sync5_doc()
        edit(doc)
        with pytest.raises(ConfigurationError, match=re.escape(path)):
            scenario_from_dict(doc)

    def test_readme_names_every_config_key(self):
        # the configuration section names every key a config may hold, and
        # its Job models table lists exactly the coefficients each kind reads
        section = README.read_text().split("## Configuration format")[1]
        section = section.split("\n## ")[0]
        for table in (_TOP, _PLATFORM, _APP, _MODEL, _EVENT):
            for key in table:
                assert re.search(rf"(\b{key}:|`{key}`)", section), key
        rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, re.M))
        assert {kind: tuple(re.findall(r"`(\w+)`", keys))
                for kind, keys in rows.items()} == JobModel.READS

    def test_config_tables_agree(self):
        # a kind's quotient reads its own coefficients or beta, and the
        # model table has a reader for each of them
        for kind, reads in JobModel.READS.items():
            assert set(JobModel.QUOTIENT[kind]) <= {*reads, "beta"}
            assert {*reads, "kind", "beta", "coeff_unit"} \
                <= set(_TABLES[JobModel])

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
                                weight=0.05 + 0.9 * i / 300,
                                initial_bandwidth=None)
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

    @pytest.mark.parametrize("rows, distinct, special, names", [
        *(pytest.param(rows, None, 0, SHORT_IDS, id=str(rows))
          for rows in (0, 1, 1023, 1024, 1025, 2049)),
        # one chunk whose seven columns hold this many distinct values, on
        # either side of the formatter's switch to its vector path
        pytest.param(1024, VECTOR_MIN - 1, 0, SHORT_IDS,
                     id="below-the-switch"),
        pytest.param(1024, VECTOR_MIN, 0, SHORT_IDS, id="at-the-switch"),
        # and one where some of them are values only `%` prints
        pytest.param(1024, 3000, 500, SHORT_IDS, id="both-paths"),
        # an id wider than a float field, in the chunks on either side of
        # the first edge; this seed's third chunk, 5 rows, lacks it
        pytest.param(2053, None, 0, ("a", WIDE_ID, "c#"), id="wide-id"),
    ])
    def test_matches_row_by_row_writer(self, tmp_path, rows, distinct,
                                       special, names):
        rng = np.random.default_rng(rows)
        if distinct is None:
            # half the values come from a small pool, so chunks hold repeats
            pool = rng.standard_normal(7) * 10.0 ** rng.integers(-5, 6, 7)
            cols = {f: np.where(rng.random(rows) < 0.5,
                                rng.choice(pool, rows),
                                rng.standard_normal(rows) * 1e3)
                    for f in FLOAT_COLUMNS}
        else:
            cols = _with_distinct(rng, rows, distinct, special)
        ids = rng.choice(np.array(names, dtype=object), rows)
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

    @settings(max_examples=100, deadline=None)
    @given(_csv_tables())
    def test_writer_prints_and_reads_back_every_table(self, traj):
        with tempfile.TemporaryDirectory() as tmp:
            path = _assert_writers_agree(traj, Path(tmp))
            if not len(traj):
                return          # the reader refuses a table with no rows
            back = read_trajectory_csv(path)
        for f in FLOAT_COLUMNS:
            with np.errstate(invalid="ignore"):     # a signalling nan widens
                col = getattr(traj, f).astype(np.float64)
            got = getattr(back, f)
            nan = np.isnan(col)
            assert np.array_equal(np.isnan(got), nan), f
            assert np.array_equal(got[~nan].view(np.int64),
                                  col[~nan].view(np.int64)), f
        assert list(back.app) == list(traj.app)

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

    # a ',' or a line break would change the row's field count, and a 0
    # byte would drop out with a row's padding; an id that is not a str,
    # hashable or not, has no text. Each is refused in the second chunk,
    # by name
    @pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\0b", 7, ["a"]])
    def test_writer_refuses_ids_a_row_cannot_hold(self, tmp_path, bad):
        ids = np.array(["x"] * 1511, dtype=object)
        ids[1500] = bad
        traj = Trajectory(app=ids, **{f: np.zeros(len(ids))
                                      for f in FLOAT_COLUMNS})
        path = tmp_path / "t.csv"
        with pytest.raises(ConfigurationError, match=re.escape(repr(bad))):
            write_trajectory_csv(traj, path)
        # the first chunk's rows are not left behind as a shorter table
        assert not path.exists()

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


def _garble(sidecar: Path, how: str) -> None:
    """Leave a run's sidecar as it is, delete it, or garble it: one hex
    digit flipped, or bytes that are not text."""
    if how == "deleted":
        sidecar.unlink()
    elif how == "flipped":
        text = sidecar.read_text()
        sidecar.write_text("01"[text[0] == "0"] + text[1:])
    elif how == "binary":
        sidecar.write_bytes(b"\xff\xfe" + sidecar.read_bytes()[2:])


# run_bundle's sha256 sidecar decides how much of each CSV compare parses;
# the variants these tests refute trust a file's size or mtime instead
class TestDigestSidecar:
    def test_sidecar_is_the_csv_sha256(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "sync5", "--horizon", str(20.0 * MS),
                     "--out", str(out)]) == EXIT_OK
        csv = (out / "trajectory.csv").read_bytes()
        digest = hashlib.sha256(csv).hexdigest()
        assert (out / "trajectory.csv.sha256").read_bytes() \
            == f"{digest}  trajectory.csv\n".encode()
        assert write_trajectory_csv(read_trajectory_csv(out / "trajectory.csv"),
                                    tmp_path / "again.csv") == digest

    @pytest.mark.parametrize("pair", ["mixed", "async3"])
    def test_compare_json_does_not_depend_on_the_sidecars(
            self, tmp_path, capsys, monkeypatch, pair):
        if pair == "mixed":
            cfg = tmp_path / "mixed.yaml"
            cfg.write_text(MIXED)
            runs = ([str(cfg)], [str(cfg), "--mode", "async_uncompensated"])
        else:
            horizon = ["--horizon", str(300.0 * MS)]
            runs = (["async3", *horizon],
                    ["async3", *horizon, "--mode", "async_uncompensated"])
        reports, routes = {}, {}
        real = cli.read_trajectory_csv

        def spy(path, fields=cli.VALUES):
            routes[state].append(tuple(fields))
            return real(path, fields=fields)

        monkeypatch.setattr(cli, "read_trajectory_csv", spy)
        for state in ("present", "deleted", "flipped", "binary"):
            dirs = [tmp_path / state / d for d in "ab"]
            for argv, d in zip(runs, dirs):
                assert main(["run", *argv, "--out", str(d)]) == EXIT_OK
                _garble(d / "trajectory.csv.sha256", state)
            out = tmp_path / state / "compare.json"
            routes[state] = []
            assert main(["compare", *map(str, dirs), "--out", str(out)]) \
                == EXIT_OK
            reports[state] = out.read_bytes()
        capsys.readouterr()
        assert len(set(reports.values())) == 1
        assert routes.pop("present") == [("service", "bandwidth")] * 2
        assert all(r == [cli.VALUES] * 2 for r in routes.values())

    @pytest.mark.parametrize("sidecar", ["stale", "deleted"])
    def test_same_length_edit_of_an_unread_column_exits_2(
            self, tmp_path, capsys, sidecar):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["run", "sync5", "--horizon", str(20.0 * MS),
                         "--out", str(d)]) == EXIT_OK
        bad = b / "trajectory.csv"
        stat = bad.stat()
        header, first, *rest = bad.read_text().split("\n")
        cells = first.split(",")
        cells[5] = "x" * len(cells[5])              # response
        bad.write_text("\n".join([header, ",".join(cells), *rest]))
        # the same size and mtime as the file the sidecar was written for
        os.utime(bad, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert bad.stat().st_size == stat.st_size
        if sidecar == "deleted":
            (b / "trajectory.csv.sha256").unlink()
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(bad) in err and "x" * len(cells[5]) in err

    @pytest.mark.parametrize("table", ["mixed", "special"])
    @pytest.mark.parametrize("fields", [("service", "bandwidth"),
                                        ("bandwidth", "service"), ()])
    def test_field_subset_reads_the_same_bits(self, tmp_path, table, fields):
        path = tmp_path / "t.csv"
        if table == "mixed":
            traj = run_scenario(parse_scenario_text(MIXED))
        else:
            special = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan,
                                -math.nan, 5e-324, 1.0 / 3.0])
            traj = Trajectory(app=np.array(["x", "#y", "z é", "x"] * 2,
                                           dtype=object),
                              **{f: np.roll(special, k) for k, f in
                                 enumerate(FLOAT_COLUMNS)})
        write_trajectory_csv(traj, path)
        full, part = read_trajectory_csv(path), read_trajectory_csv(
            path, fields=fields)
        assert list(part.app) == list(full.app)
        for f in FLOAT_COLUMNS:
            got = getattr(part, f)
            assert got.dtype == np.float64 and len(got) == len(full), f
            if f == "time" or f in fields:
                assert np.array_equal(got.view(np.int64),
                                      getattr(full, f).view(np.int64)), f
            else:
                assert np.isnan(got).all() and not got.flags.writeable, f
        with pytest.raises(ValueError, match="app"):
            read_trajectory_csv(path, fields=("app",))


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

    def test_run_refuses_a_state_that_turns_nan(self, tmp_path, capsys):
        # ctl's deadline alpha/s overflows to inf at instant 0, so every
        # bandwidth steps to nan, whose sum fails no `> limit` test
        cfg = tmp_path / "s.yaml"
        cfg.write_text("""
name: overflow
rm_period: 1.0
horizon: 20.0
platform: {cores: 1, step: 0.05}
apps:
  - id: ctl
    weight: 1.0
    min_service: 1.0e-9
    initial_service: 1.0e-9
    model: {kind: control, alpha: 1.0e300, beta: 1.0}
  - id: syn
    weight: 1.0
    min_service: 0.0
    initial_service: 10.0
    model: {kind: synthetic, a: 20.0, b: 200.0, deadline: 1000.0}
""")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVARIANT
        assert re.search(r"invariant breach: step 0: .*app ctl has nan",
                         capsys.readouterr().err)

    def test_breach_names_the_app_whose_matching_is_not_finite(
            self, tmp_path, capsys):
        # as above with syn listed first: syn's share is the first out of
        # the box, but ctl's overflowing deadline is what made it nan
        cfg = tmp_path / "s.yaml"
        cfg.write_text("""
name: overflow
rm_period: 1.0
horizon: 20.0
platform: {cores: 1, step: 0.05}
apps:
  - id: syn
    weight: 1.0
    min_service: 0.0
    initial_service: 10.0
    model: {kind: synthetic, a: 20.0, b: 200.0, deadline: 1000.0}
  - id: ctl
    weight: 1.0
    min_service: 1.0e-9
    initial_service: 1.0e-9
    model: {kind: control, alpha: 1.0e300, beta: 1.0}
""")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVARIANT
        assert re.search(r"invariant breach: step 0: .*app syn has nan.*; "
                         r"app ctl's matching at this instant is nan$",
                         capsys.readouterr().err.strip())

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

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[::-1],
        lambda rows: rows[:8] + rows[7:],
        lambda rows: rows[:8] + ["nan," + rows[8].split(",", 1)[1]] + rows[9:],
    ], ids=["reversed", "duplicated-row", "nan-time"])
    def test_compare_rows_out_of_time_order_exit_2(self, tmp_path, capsys,
                                                   edit):
        # both files hold the same run, whose true sup is 0; read out of
        # order, the paths would differ by up to 0.6 in service
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["run", "sync5", "--horizon", "20000",
                         "--out", str(d)]) == EXIT_OK
        bad = b / "trajectory.csv"
        header, *rows = bad.read_text().splitlines()
        bad.write_text("\n".join([header, *edit(rows)]) + "\n")
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == EXIT_VALIDATION
        assert str(bad) in capsys.readouterr().err

    def test_compare_reads_rows_grouped_by_app(self, tmp_path, capsys):
        # each app's rows still rise when the file lists them app by app;
        # the last block is then an app that left at 20, not the run's end
        cfg = tmp_path / "mixed.yaml"
        cfg.write_text(MIXED)
        a, b, c = (tmp_path / d for d in "abc")
        assert main(["run", str(cfg), "--out", str(a)]) == EXIT_OK
        assert main(["run", str(cfg), "--mode", "async_uncompensated",
                     "--out", str(b)]) == EXIT_OK
        c.mkdir()
        header, *rows = (b / "trajectory.csv").read_text().splitlines()

        def block(row):                 # by app, med's rows last
            aid = row.split(",")[1]
            return aid == "med", aid

        rows.sort(key=block)            # stable: each app's rows stay in order
        (c / "trajectory.csv").write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        reports = []
        for other in (b, c):
            assert main(["compare", str(a), str(other)]) == EXIT_OK
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert reports[0]["horizon"] == 60.0

    def test_compare_names_the_apps_one_run_lacks(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "sync5", "--horizon", str(5.0 * MS),
                     "--out", str(a)]) == EXIT_OK
        assert main(["run", "async3", "--horizon", str(5.0 * MS),
                     "--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        for first, second in ((a, b), (b, a)):
            assert main(["compare", str(first), str(second)]) \
                == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert str(a) in err and str(b) in err
            assert f"{b} lacks app4, app5" in err
            assert f"{a} lacks none" in err

    @pytest.mark.parametrize("body", ["{", "{}", "[]"])
    def test_compare_unreadable_summary_exits_2(self, tmp_path, capsys, body):
        a = tmp_path / "a"
        assert main(["run", "sync5", "--horizon", str(5.0 * MS),
                     "--out", str(a)]) == EXIT_OK
        (a / "summary.json").write_text(body)
        capsys.readouterr()
        assert main(["compare", str(a), str(a)]) == EXIT_VALIDATION
        assert str(a / "summary.json") in capsys.readouterr().err

    # a deadline this long puts ell at inf, which summary.json writes as
    # the string "inf"; compare reads it back as the float. The model
    # gives beta, since its derived beta, deadline/a, would overflow too
    def test_compare_reads_a_non_finite_bound(self, tmp_path, capsys):
        doc = _sync5_doc(horizon=20.0 * MS)
        doc["apps"][1]["model"] = {"kind": "synthetic", "a": 1.0e-3,
                                   "b": 1.0e-3, "deadline": 1.0e308,
                                   "beta": 1.0}
        cfg, a = tmp_path / "s.yaml", tmp_path / "a"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(a)]) == EXIT_OK
        assert json.loads((a / "summary.json").read_text())["bounds"]["ell"] \
            == "inf"
        capsys.readouterr()
        assert main(["compare", str(a), str(a)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["equivalence_bound"] == "inf" and report["within_bound"]

    @pytest.mark.parametrize("key, value", [
        ("ell", "lots"), ("ell", [1.0]), ("ell", True), ("ell", None),
        ("step", "0.05")])
    def test_compare_refuses_a_bound_that_is_not_a_number(self, tmp_path,
                                                          capsys, key, value):
        a = tmp_path / "a"
        assert main(["run", "sync5", "--horizon", str(5.0 * MS),
                     "--out", str(a)]) == EXIT_OK
        summary = json.loads((a / "summary.json").read_text())
        where = summary["bounds"] if key == "ell" else \
            summary["scenario"]["platform"]
        where[key] = value
        (a / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["compare", str(a), str(a)]) == EXIT_VALIDATION
        assert str(a / "summary.json") in capsys.readouterr().err

    # a bool or a fraction would be truncated to a count of 1 or 2
    @pytest.mark.parametrize("n_bar", [True, 2.5, "3"])
    def test_compare_refuses_an_n_bar_that_is_not_an_integer(
            self, tmp_path, capsys, n_bar):
        a = tmp_path / "a"
        assert main(["run", "sync5", "--horizon", str(5.0 * MS),
                     "--out", str(a)]) == EXIT_OK
        summary = json.loads((a / "summary.json").read_text())
        summary["bounds"]["n_bar"] = n_bar
        (a / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["compare", str(a), str(a)]) == EXIT_VALIDATION
        assert str(a / "summary.json") in capsys.readouterr().err
        summary["bounds"]["n_bar"] = 3
        (a / "summary.json").write_text(json.dumps(summary))
        assert main(["compare", str(a), str(a)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["equivalence_bound"] \
            == 2.75

    # the strict guard is checked when the scenario is built, so every verb
    # that reads one refuses the step run refuses
    def test_every_verb_refuses_a_step_over_the_strict_guard(self, tmp_path,
                                                             capsys):
        def edit(d):
            d.update(strict_bounds=True)
            d["platform"].update(step=0.9)
            for app in d["apps"]:
                app.update(min_service=1.0)    # which solve reads

        errors = []
        for verb in ("run", "bounds", "solve"):
            assert main(_config_argv(verb, edit)(tmp_path)) == EXIT_VALIDATION
            errors.append(capsys.readouterr().err)
        assert errors == ["validation error: strict mode: step 0.9 not below "
                          "the starvation guard 0.29411764705882354\n"] * 3

    # a flag replaces the file's value before the Scenario checks it, so
    # --step rescues a strict config whose own step is over the guard, and
    # --mode a stride that ode_reference refuses
    def test_flags_apply_before_the_scenario_rules(self, tmp_path, capsys):
        def strict(d):
            d.update(strict_bounds=True)
            d["platform"].update(step=0.9)

        for verb in ("run", "bounds"):
            argv = _config_argv(verb, strict)(tmp_path)
            assert main([*argv, "--step", "0.05"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out.split("\n", 1)[1])[
            "epsilon_star"] == 0.29411764705882354
        argv = _config_argv(
            "run", lambda d: d.update(mode="ode_reference", sample_stride=2))
        assert main(argv(tmp_path)) == EXIT_VALIDATION
        assert main([*argv(tmp_path), "--mode", "sync"]) == EXIT_OK

    def test_duplicate_app_id_names_the_id_and_both_places(self, tmp_path,
                                                           capsys):
        argv = _config_argv("run", lambda d: d["apps"][2].update(id="app2"))
        assert main(argv(tmp_path)) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: apps[2].id: app id 'app2' is given twice "
            "(apps[1])\n")

    # each refusal, as main prints it; <tmp> stands for the test's folder
    @pytest.mark.parametrize("argv, err", [
        (_config_argv("run", lambda d: d["platform"].update(match_tol=0)),
         "validation error: platform: match_tol must be positive"),
        (_config_argv("run", lambda d: d["platform"].update(
            max_total_bandwidth=1.5)),
         "validation error: platform: max_total_bandwidth must be in (0, 1]"),
        (_config_argv("run", lambda d: d["apps"][0].update(max_service=5.0)),
         "validation error: apps[0]: app app1: initial_service above "
         "max_service"),
        (_config_argv("run", lambda d: d["apps"][0].update(
            initial_bandwidth=1.5)),
         "validation error: apps[0]: app app1: initial_bandwidth must be in "
         "[0, 1]"),
    ] + [
        (_config_argv("run", lambda d, model=model: d["apps"][0].update(
            model=model)),
         f"validation error: apps[0].model: {model['kind']} model requires "
         f"{key} > 0")
        for model, key in (
            ({"kind": "multimedia", "alpha": 1.0, "deadline": 0}, "deadline"),
            ({"kind": "control", "alpha": 0, "beta": 1.0}, "alpha"),
            ({"kind": "synthetic", "a": 1.0, "b": 1.0, "deadline": 0},
             "deadline"))
    ] + [
        (_config_argv("solve", lambda d: [app.update(min_service=1.0, model={
            "kind": "synthetic", "a": 0, "b": 200.0, "deadline": 1.0})
            for app in d["apps"]]),
         "validation error: synthetic model with a = 0 has no nominal "
         "matching coefficient"),
        (_config_argv("run", lambda d: d.update(sample_stride=0)),
         "validation error: sample_stride must be >= 1"),
        (_config_argv("run", lambda d: d.update(apps=[])),
         "validation error: a scenario needs at least one app"),
        (lambda tmp: ["solve", "sync5"],
         "validation error: stationary analysis requires min_service > 0"),
        (lambda tmp: ["bounds", "sync5", "--zeta", "2"],
         "validation error: zeta must lie in (0, 1)"),
        (_bad_header_argv, "validation error: <tmp>/a/trajectory.csv: "
         "unexpected CSV header 't,app'"),
        # sync5's five initial shares of 0.2 leave no pool to seed a joiner
        (_config_argv("run", lambda d: d.update(events=[{
            "time": 2.0 * MS, "action": "join", "app": {
                **{k: x for k, x in d["apps"][0].items()
                   if k != "initial_bandwidth"}, "id": "late"}}])),
         "error: cannot admit 'late': no unused bandwidth for the seed"),
    ], ids=["match_tol-0", "max_total_bandwidth-1.5", "max_service-low",
            "initial_bandwidth-1.5", "multimedia-deadline-0",
            "control-alpha-0", "synthetic-deadline-0", "solve-a-0",
            "sample_stride-0", "no-apps", "solve-zero-floor", "zeta-2",
            "csv-header", "join-full-pool"])
    def test_refusal_exits_2_with_its_message(self, tmp_path, capsys, argv,
                                              err):
        assert main(argv(tmp_path)) == EXIT_VALIDATION
        assert capsys.readouterr().err \
            == err.replace("<tmp>", str(tmp_path)) + "\n"

    # the schedule is checked when the scenario is built, so every verb
    # that reads a scenario refuses a bad one
    @pytest.mark.parametrize("event, field", [
        ({"time": 2.5 * MS, "action": "leave", "app": "app1"},
         "events[0].time"),
        ({"time": 2.0 * MS, "action": "leave", "app": "nobody"},
         "events[0].app: leave event for unknown app 'nobody'"),
    ], ids=["misaligned", "leave-unknown"])
    @pytest.mark.parametrize("verb", ["bounds", "solve"])
    def test_verbs_refuse_a_bad_schedule(self, tmp_path, capsys, verb, event,
                                         field):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(_sync5_doc(events=[event])))
        assert main([verb, str(cfg)]) == EXIT_VALIDATION
        assert field in capsys.readouterr().err

    # so is the initial allocation: sync5's five shares of 0.3 sum to 1.5
    @pytest.mark.parametrize("verb", ["bounds", "solve"])
    def test_verbs_refuse_an_infeasible_initial_allocation(self, tmp_path,
                                                           capsys, verb):
        doc = _sync5_doc()
        for app in doc["apps"]:
            app.update(min_service=1.0, initial_bandwidth=0.3)
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == ("validation error: initial_bandwidth: the sum is 1.5, "
                       "above 1; the cap comes from platform.max_total_"
                       "bandwidth 0.9 and platform.cores 1\n")
        assert main([verb, str(cfg)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == err
        base = parse_scenario("sync5")
        apps = tuple(dataclasses.replace(a, min_service=1.0,
                                         initial_bandwidth=0.3)
                     for a in base.apps)
        with pytest.raises(ConfigurationError, match="the sum is 1.5"):
            dataclasses.replace(base, apps=apps)

    @pytest.mark.parametrize("argv", [
        ["bounds", "sync5", "--mode", "sync"],
        ["bounds", "sync5", "--horizon", "1"],
        ["bounds", "sync5", "--strict"],
        ["solve", "sync5", "--step", "0.1"],
        ["solve", "sync5", "--mode", "sync"],
        ["solve", "sync5", "--horizon", "1"],
        ["solve", "sync5", "--strict"],
    ], ids=lambda argv: " ".join(argv[::2]))
    def test_verb_refuses_a_flag_it_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err

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
    ] + [
        # the bad event is listed second but applies first: errors count
        # events in config order
        (lambda d, bad=bad: d.update(events=[
            {"time": 3.0 * MS, "action": "leave", "app": "app2"}, bad]),
         field)
        for bad, field in (
            ({"time": 2.5 * MS, "action": "leave", "app": "app1"},
             "events[1].time"),
            ({"time": 2.0 * MS, "action": "leave", "app": "nobody"},
             "events[1].app"),
            ({"time": 2.0 * MS, "action": "join",
              "app": {"id": "app1", "weight": 0.5, "min_service": 1.0,
                      "initial_service": 1.0, "model": {
                          "kind": "multimedia", "alpha": 1.0,
                          "deadline": 1.0}}},
             "events[1].app.id"))
    ] + [
        # the engine seeds a joiner, so its initial_bandwidth is refused;
        # a join of a live id is named as such first
        (lambda d: d.update(events=[{"time": 2.0 * MS, "action": "join",
                                     "app": dict(d["apps"][0], id="x")}]),
         "events[0].app.initial_bandwidth"),
        (lambda d: d.update(events=[{"time": 2.0 * MS, "action": "join",
                                     "app": d["apps"][0]}]),
         "events[0].app.id"),
        # time / rm_period overflows a float
        (lambda d: d.update(rm_period=0.5, horizon=2.0, events=[
            {"time": 1.7e308, "action": "leave", "app": "app1"}]),
         "events[0].time/rm_period"),
        (lambda d: d.update(events=[{"time": 2.0 * MS, "action": "swap",
                                     "app": "app1"}]),
         "events[0].action must be join or leave"),
    ] + [
        # six instants; the leave of an unknown app and the join of a live
        # id both fall after the last one, and are refused all the same
        (lambda d: d.update(events=[
            {"time": 10.0 * MS, "action": "leave", "app": "nobody"},
            {"time": 20.0 * MS, "action": "join", "app": d["apps"][0]}]),
         "events[0].app: leave event for unknown app 'nobody'")
    ], ids=["platform-list", "event-int", "events-int", "horizon",
            "rm_period", "step", "event-time", "update_jobs-2**63",
            "event-time-nan", "event-time-inf", "event-time--inf",
            "event-misaligned", "leave-unknown", "join-live",
            "join-initial-bandwidth", "join-live-initial-bandwidth",
            "event-time-overflow", "unknown-action", "past-horizon"])
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

    def test_share_within_tolerance_of_a_two_core_cap_runs(self, tmp_path):
        # 7e-13 above the cap 1/2: inside the normalized tolerance SUM_TOL,
        # which every check of the feasible set applies alike
        doc = _sync5_doc(horizon=20.0 * MS)
        doc["platform"].update(cores=2, max_total_bandwidth=1.0)
        for app, v in zip(doc["apps"], [0.5000000000007] + [0.1] * 4):
            app["initial_bandwidth"] = v
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        for mode in ("sync", "async_compensated", "ode_reference"):
            assert main(["run", str(cfg), "--mode", mode,
                         "--out", str(tmp_path / mode)]) == EXIT_OK
        assert (tmp_path / "sync" / "trajectory.csv").read_bytes() \
            == (tmp_path / "ode_reference" / "trajectory.csv").read_bytes()

    def test_run_initial_share_above_the_cap_exits_2(self, tmp_path, capsys):
        doc = _sync5_doc(horizon=5.0 * MS)
        doc["platform"]["max_total_bandwidth"] = 0.5
        for app, v in zip(doc["apps"], [0.9] + [0.025] * 4):
            app["initial_bandwidth"] = v
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "app1" in err and "initial_bandwidth" in err
        assert "platform.max_total_bandwidth" in err
        assert not (tmp_path / "out").exists()

    def test_run_cores_beyond_float_range_exits_2(self, tmp_path, capsys):
        # the cap max_total_bandwidth / cores needs cores as a float
        doc = _sync5_doc(horizon=10.0 * MS)
        doc["platform"]["cores"] = 10**400
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        assert "platform: cores" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # an infinite step passes a test of step > 0 alone, and the first
    # stepped state is nan: the engine then breached, the oracle wrote nan
    # rows. Both refuse it, and so does the --step flag
    @pytest.mark.parametrize("mode", ["sync", "ode_reference"])
    def test_run_refuses_an_infinite_step(self, tmp_path, capsys, mode):
        doc = _sync5_doc(horizon=20.0 * MS)
        doc["platform"]["step"] = math.inf
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg), "--mode", mode,
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "platform: step must be positive and finite" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_refuses_an_infinite_step_flag(self, tmp_path, capsys):
        assert main(["run", "sync5", "--step", "inf",
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "validation error: step must be positive and finite" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # a key given twice in one mapping: YAML would keep the last value
    @pytest.mark.parametrize("old, new, field", [
        ("horizon: 5000000.0\n", "horizon: 5000000.0\nhorizon: 1000.0\n",
         "scenario.horizon"),
        ("  step: 0.05\n", "  step: 0.05\n  step: 0.5\n", "platform.step"),
        ("  weight: 0.7\n", "  weight: 0.7\n  weight: 0.1\n",
         "apps[1].weight"),
        ("    a: 20.0\n", "    a: 20.0\n    a: 30.0\n", "apps[0].model.a"),
    ], ids=["top", "platform", "app", "model"])
    def test_run_repeated_key_exits_2_naming_it(self, tmp_path, capsys, old,
                                                new, field):
        text = emit(parse_scenario("sync5"))
        assert old in text
        cfg = tmp_path / "s.yaml"
        cfg.write_text(text.replace(old, new, 1))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert field in err and "more than once" in err
        assert not (tmp_path / "out").exists()

    def test_merge_key_override_is_not_a_repeat(self):
        # `<<` merges the anchored app; the key given next to it overrides
        # the merged one, which YAML defines and is no repeated key
        text = re.sub(r"^apps:\n.*^events:", "events:",
                      emit(parse_scenario("sync5")), flags=re.M | re.S)
        text += ("apps:\n"
                 "- &base {id: a, weight: 0.9, min_service: 1.0,"
                 " initial_service: 2.0, model: {kind: multimedia,"
                 " alpha: 200.0, deadline: 500.0}}\n"
                 "- {<<: *base, id: b, weight: 0.5}\n")
        s = parse_scenario_text(text)
        assert [(a.id, a.weight) for a in s.apps] == [("a", 0.9), ("b", 0.5)]

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

    @pytest.mark.parametrize("mode, rm_period, horizon, why", [
        # 10**12 instants: rejected before any per-instant array exists
        ("sync", None, "1e15", "5 apps"),
        ("ode_reference", None, "1e15", "5 apps"),
        # more instants than a float can count
        ("sync", 1e-300, "1e10", "overflows"),
        ("ode_reference", 1e-300, "1e10", "overflows"),
    ], ids=["sync", "ode_reference", "overflow-sync", "overflow-ode_reference"])
    def test_run_over_step_budget_exits_2(self, tmp_path, capsys, mode,
                                          rm_period, horizon, why):
        scenario = "sync5"
        if rm_period is not None:
            scenario = str(tmp_path / "s.yaml")
            Path(scenario).write_text(
                yaml.safe_dump(_sync5_doc(rm_period=rm_period)))
        assert main(["run", scenario, "--mode", mode, "--horizon", horizon,
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "horizon/rm_period" in err and why in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["bounds", "solve"])
    def test_verb_refuses_an_overflowing_clock(self, tmp_path, capsys, verb):
        # the scenario counts its instants when it is built, to check its
        # schedule against the recorded ones
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(_sync5_doc(rm_period=1e-300,
                                                 horizon=1e10)))
        assert main([verb, str(cfg)]) == EXIT_VALIDATION
        assert "horizon/rm_period" in capsys.readouterr().err

    def test_run_rejects_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_bytes(b"name: x\xff\n" + emit(parse_scenario("sync5"))
                        .split("\n", 1)[1].encode())
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        assert f"{cfg}: malformed config" in capsys.readouterr().err
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
        joiner = dict(doc["apps"][4], id="app6")
        del joiner["initial_bandwidth"]     # the engine seeds a joiner
        doc["events"] = [
            {"time": 1000.0 * MS, "action": "leave", "app": "app5"},
            {"time": 1000.0 * MS, "action": "join", "app": joiner}]
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        conv = json.loads((out / "summary.json").read_text())["convergence"]
        assert conv["settled"] is False
        assert conv["settle_time"] is None
        assert conv["final_fairness_residuals"] == {}

    @staticmethod
    def _all_leave(tmp_path, time):
        """sync5 over 5,000 tu with every app leaving at `time`."""
        doc = _sync5_doc(horizon=5000.0, events=[
            {"time": time, "action": "leave", "app": a["id"]}
            for a in _sync5_doc()["apps"]])
        cfg = tmp_path / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        return cfg

    def test_run_with_no_app_at_any_instant_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._all_leave(tmp_path, 0.0)
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert "events" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["bounds", "solve"])
    def test_verb_with_no_app_at_any_instant_exits_2(self, tmp_path, capsys,
                                                     verb):
        # the schedule is checked when the scenario is built, so the verbs
        # that never run it refuse it as run does
        cfg = self._all_leave(tmp_path, 0.0)
        assert main([verb, str(cfg)]) == EXIT_VALIDATION
        assert "events: no app is live at any recorded instant" in \
            capsys.readouterr().err

    def test_finals_are_read_at_the_last_instant(self, tmp_path):
        # every app leaves at 1000, so no app is live at 5000, the last
        # instant: there are no finals and no convergence verdict
        out = tmp_path / "out"
        cfg = self._all_leave(tmp_path, 1000.0)
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_bandwidths"] == {}
        assert summary["final_services"] == {}
        assert "convergence" not in summary

    @pytest.mark.parametrize("platform, cap", [
        ("{cores: 2, step: 0.6}", 0.5),
        ("{cores: 1, step: 0.6, max_total_bandwidth: 0.4}", 0.4)],
        ids=["cores-2", "max-total-0.4"])
    def test_join_seed_stays_within_the_per_app_cap(self, tmp_path,
                                                    platform, cap):
        # an abundant app pinned at its service ceiling keeps 0.2 and leaves
        # 0.8 unused, so the seed min(step, unused) alone would be 0.6, above
        # the per-app cap max_total_bandwidth / cores
        cfg = tmp_path / "s.yaml"
        cfg.write_text("""
name: join-cap
rm_period: 1.0
horizon: 20.0
platform: %s
apps:
  - {id: a, weight: 0.5, min_service: 1.0, max_service: 1.0,
     initial_service: 1.0, initial_bandwidth: 0.2,
     model: {kind: multimedia, alpha: 1000.0, deadline: 10000.0}}
events:
  - {time: 5.0, action: join, app: {id: b, weight: 0.5, min_service: 1.0,
     initial_service: 1.0,
     model: {kind: multimedia, alpha: 1000.0, deadline: 800.0}}}
""" % platform)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        traj = read_trajectory_csv(out / "trajectory.csv")
        joiner = traj.per_app("bandwidth")["b"]
        assert joiner[0][0] == 5.0 and joiner[1][0] == cap


@st.composite
def _near_a_face(draw):
    """(cores, max_total_bandwidth, shares): normalized shares, each in the
    [0, 1] a config admits, with one of them put within a few SUM_TOL of
    the floor, the cap or the sum face of the feasible set."""
    cores = draw(st.sampled_from([1, 2, 3]))
    cap = draw(st.sampled_from([1.0, 0.5]))
    upper = cap / cores
    v = draw(st.lists(st.floats(0.0, upper), min_size=1, max_size=4))
    i = draw(st.integers(0, len(v) - 1))
    # the value of v[i] on the floor, the cap or the sum face
    face = draw(st.sampled_from([0.0, upper, 1.0 - (sum(v) - v[i])]))
    v[i] = min(1.0, max(0.0, face + draw(st.floats(-3.0, 3.0)) * SUM_TOL))
    return cores, cap, v


@settings(max_examples=30, deadline=None)
@given(_near_a_face())
def test_initial_state_admits_exactly_the_feasible_set(case):
    cores, cap, v = case
    doc = _sync5_doc(horizon=3.0 * MS)
    doc["platform"].update(cores=cores, max_total_bandwidth=cap)
    doc["apps"] = [dict(a, initial_bandwidth=x)
                   for a, x in zip(doc["apps"], v)]
    ids = [a["id"] for a in doc["apps"]]
    if PlatformSpec(**doc["platform"]).breach(v, ids):
        with pytest.raises(ConfigurationError, match="initial_bandwidth"):
            scenario_from_dict(doc)
        return
    # every feasible allocation is admitted and runs, in the engine and in
    # the oracle
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        cfg = Path(tmp) / "s.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        for mode in ("sync", "ode_reference"):
            assert main(["run", str(cfg), "--mode", mode,
                         "--out", str(Path(tmp) / mode)]) == EXIT_OK

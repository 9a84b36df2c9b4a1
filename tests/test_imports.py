"""Every name a fairband, test or bench module imports is used in it, and
a process imports only the modules its calls use."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import fairband
from fairband import emit, parse_scenario

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fairband"
BENCH = TESTS.parent / "bench"
MODULES = (sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
           + sorted(BENCH.glob("*.py")))
# the names `fairband` exports, by the submodule that defines each
PUBLIC = {
    "core": ["ApplicationSpec", "JobModel", "PlatformSpec",
             "fairness_vector", "make_state"],
    "adaptation": ["RmUpdateResult", "rm_step"],
    "simkernel": ["Coefficients", "Trajectory", "compile_apps",
                  "kernel_step", "measure_job", "run_scenario"],
    "reference": ["BalanceThresholds", "StationaryPoint", "TheoreticalBounds",
                  "asymptotic_fair_share", "balance_thresholds",
                  "compute_bounds", "equivalence_bound", "integrate_ode",
                  "solve_stationary_point", "starvation_step_threshold"],
    "analysis": ["InvariantReport", "convergence_report", "interpolate",
                 "sup_deviation_per_app", "sweep_invariants"],
    "scenario": ["PRESETS", "MembershipEvent", "Scenario", "emit",
                 "parse_scenario", "parse_scenario_text"],
    "errors": ["AdmissionError", "ConfigurationError", "ConvergenceError",
               "FairbandError", "InvariantViolation"],
}


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import List, Dict\n"
                           "x: Dict = {}\n") == [(1, "os"), (2, "List")]


def _bench_setup_code() -> str:
    """The code bench/run.py times a fresh interpreter's set-up with."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", "") == "SETUP_CODE")


def _loaded(code: str, *args: str):
    """The fairband and yaml modules a fresh interpreter holds after it runs
    `code` with argv[1] the directory fairband is imported from."""
    probe = ("\nprint(*sorted(m for m in sys.modules if m == 'yaml' or "
             "m.split('.')[0] == 'fairband'))")
    done = subprocess.run(
        [sys.executable, "-c", code + probe, str(SRC.parent), *args],
        capture_output=True, text=True, timeout=120, check=True)
    return set(done.stdout.split())


def test_bench_setup_loads_the_parser_alone():
    assert _loaded(_bench_setup_code(), "async3") == {
        "fairband", "fairband.scenario", "fairband.core", "fairband.errors",
        "fairband.simkernel", "fairband.adaptation"}


def test_package_import_runs_no_submodule():
    assert _loaded("import sys; sys.path.insert(0, sys.argv[1]); "
                   "import fairband") == {"fairband"}


def test_cli_import_leaves_out_yaml():
    loaded = _loaded("import sys; sys.path.insert(0, sys.argv[1]); "
                     "import fairband.cli")
    assert "fairband.cli" in loaded and "yaml" not in loaded


def test_reading_or_emitting_a_config_loads_yaml(tmp_path):
    cfg = tmp_path / "sync5.yaml"
    cfg.write_text(emit(parse_scenario("sync5")), encoding="utf-8")
    head = "import sys; sys.path.insert(0, sys.argv[1]); import fairband; "
    assert "yaml" in _loaded(head + "fairband.parse_scenario(sys.argv[2])",
                             str(cfg))
    assert "yaml" in _loaded(
        head + "fairband.emit(fairband.parse_scenario('sync5'))")


def test_public_names_resolve_to_their_submodules():
    assert fairband.__all__ == [n for names in PUBLIC.values() for n in names]
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"fairband.{module}")
        assert fairband.__getattr__(module) is sub
        for name in names:
            assert fairband.__getattr__(name) is getattr(sub, name)
            assert getattr(fairband, name) is getattr(sub, name)
    assert set(fairband.__all__) | set(PUBLIC) <= set(dir(fairband))
    with pytest.raises(AttributeError, match="no_such_name"):
        fairband.no_such_name

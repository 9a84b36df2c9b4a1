"""The CI workflow runs ROADMAP's tier-1 command on the Pythons it names,
with the test extra pyproject.toml declares. CI itself cannot run offline,
so this checks what it would run, and the warnings it fails on."""

import re
from pathlib import Path

import numpy as np
import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_workflow_runs_the_tier1_command():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    # YAML 1.1 reads the key `on` as True
    assert set(doc[True]) == {"push", "pull_request"}
    job = doc["jobs"]["tier1"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text(encoding="utf-8"))
    assert runs == ['python -m pip install ".[test]"', tier1.group(1)]


def test_test_extra_declares_the_test_tools():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"(\w+)', extra) == ["pytest", "hypothesis"]
    assert 'requires-python = ">=3.10"' in text


def _clamp_with_a_positional_out(module):
    """Run numpy's deprecated positional-`out` clamp from code whose module
    is named `module`."""
    code = compile("def clamp(x):\n    return np.maximum(x, 0.0, x)\n",
                   module.replace(".", "/") + ".py", "exec")
    scope = {"__name__": module, "np": np}
    exec(code, scope)
    return scope["clamp"](np.ones(3))


def test_numpy_deprecations_from_fairband_code_fail():
    with pytest.raises(DeprecationWarning, match="positional arguments"):
        _clamp_with_a_positional_out("fairband.simkernel")
    # attributed to any other module, the deprecation is only reported
    with pytest.warns(DeprecationWarning, match="positional arguments"):
        _clamp_with_a_positional_out("elsewhere")

"""Seeded workload definitions for the fairband benchmark.

Every workload is a closed loop with one client: three CLI calls, each
started only after the previous one returned. A primary ``run``, an
alternate ``run`` of the same scenario, then ``compare`` of the two output
directories. ``async3`` is the built-in preset; ``wide`` and ``churn`` are
YAML configs written here from the seed, so the program sees only files.

Sizes are fixed per workload; the seed changes weights, job models,
cadences and which apps leave, never how many apps, instants or rows there
are, so timings stay comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import yaml

RM_PERIOD = 1000.0      # time-units between manager instants
STEP = 0.01             # adaptation step; step * sum(weights) < 1 keeps
                        # every bandwidth and the unused pool positive

WIDE_APPS = 300
WIDE_INSTANTS = 30

CHURN_APPS = 30
CHURN_INSTANTS = 1000
CHURN_EVERY = 15        # one leave every CHURN_EVERY instants, a join next
CHURN_CADENCES = (1, 2, 5, 10)

# the preset runs 50,001 instants; it settles within 100, so 5,001 keep the
# fair-share check meaningful at a tenth of the time
ASYNC3_HORIZON = "5e7"             # 5,001 instants, 3 apps
ASYNC3_ROWS = 5001 * 3
ASYNC3_ALT_HORIZON = "2e7"         # 2,001 instants
ASYNC3_ALT_ROWS = 2001 * 3


@dataclass(frozen=True)
class Workload:
    """One seeded pipeline: what to run and what its outputs must be."""
    name: str
    scenario: str                  # preset name or config path
    primary: List[str]             # extra flags of the primary run
    alternate: List[str]           # extra flags of the alternate run
    rows: int                      # rows expected in the primary CSV
    alt_rows: int                  # rows expected in the alternate CSV
    params: Dict = field(default_factory=dict)
    # fair shares the primary run must end within 0.02 of (async3 only)
    final_shares: Optional[List[float]] = None
    # compare must report a sup deviation of exactly 0.0 (wide only)
    exact_compare: bool = False

    def calls(self, out: Path) -> List[List[str]]:
        """The three CLI argument lists, in pipeline order."""
        a, b = str(out / "primary"), str(out / "alternate")
        return [["run", self.scenario, *self.primary, "--out", a],
                ["run", self.scenario, *self.alternate, "--out", b],
                ["compare", a, b, "--out", str(out / "compare.json")]]


KINDS = ("synthetic", "multimedia", "control")

# parameter ranges (time-units); every app draws all of them and its job
# kind reads the ones it needs
RANGES = {
    "weight": (0.05, 1.0), "initial_service": (5.0, 15.0),
    "floor": (0.5, 1.0),            # min_service of multimedia and control
    "a": (10.0, 50.0), "b": (100.0, 500.0), "deadline": (500.0, 2000.0),
    "media_alpha": (10.0, 50.0), "control_alpha": (100.0, 1000.0),
    "beta": (0.5, 2.0),
}


def _apps(prefix: str, cadences: List[int], rng: random.Random
          ) -> List[Dict]:
    """One app per cadence entry, kinds cycling through KINDS.

    Parameters are a Latin-hypercube sample: each takes one value from each
    of len(cadences) equal strata of its range, in seeded order. Every seed
    thus spreads the values alike and only their assignment to apps moves,
    which keeps the work per seed, and so the timings, comparable.
    """
    n = len(cadences)
    col = {}
    for name, (lo, hi) in RANGES.items():
        strata = list(range(n))
        rng.shuffle(strata)
        col[name] = [lo + (hi - lo) * (k + rng.random()) / n for k in strata]
    apps = []
    for i, cadence in enumerate(cadences):
        kind = KINDS[i % len(KINDS)]
        if kind == "synthetic":
            model = {"a": col["a"][i], "b": col["b"][i],
                     "deadline": col["deadline"][i]}
        elif kind == "multimedia":
            model = {"alpha": col["media_alpha"][i],
                     "deadline": col["deadline"][i]}
        else:
            model = {"alpha": col["control_alpha"][i], "beta": col["beta"][i]}
        # synthetic jobs keep a positive execution time at s = 0, so their
        # floor may be 0; the other kinds divide by the service level
        apps.append({"id": f"{prefix}{i:03d}", "weight": col["weight"][i],
                     "min_service": 0.0 if kind == "synthetic"
                     else col["floor"][i],
                     "initial_service": col["initial_service"][i],
                     "update_jobs": cadence,
                     "model": {"kind": kind, **model}})
    return apps


def _doc(name: str, mode: str, instants: int, apps: List[Dict],
         events: List[Dict]) -> Dict:
    return {"name": name, "mode": mode, "rm_period": RM_PERIOD,
            "horizon": (instants - 1) * RM_PERIOD,
            "platform": {"cores": 1, "step": STEP, "match_tol": 0.05,
                         "max_total_bandwidth": 1.0},
            "apps": apps, "events": events}


def _write(doc: Dict, path: Path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return str(path)


def wide_config(seed: int, path: Path) -> str:
    """Many apps, few instants, synchronous: per-app cost dominates."""
    rng = random.Random(f"wide-{seed}")
    apps = _apps("w", [1] * WIDE_APPS, rng)
    return _write(_doc("wide", "sync", WIDE_INSTANTS, apps, []), path)


def churn_schedule() -> List[int]:
    """Instants at which one app leaves; each is followed by a join at the
    next instant, so the joiner is seeded from the leaver's bandwidth."""
    return list(range(CHURN_EVERY, CHURN_INSTANTS - 1, CHURN_EVERY))


def churn_config(seed: int, path: Path) -> str:
    """A live population of CHURN_APPS with mixed cadences; one app leaves
    every CHURN_EVERY instants and a fresh one joins on the next instant."""
    rng = random.Random(f"churn-{seed}")
    schedule = churn_schedule()
    n = CHURN_APPS + len(schedule)
    cadences = [CHURN_CADENCES[i % len(CHURN_CADENCES)] for i in range(n)]
    rng.shuffle(cadences)
    apps = _apps("c", cadences, rng)
    joiners = iter(apps[CHURN_APPS:])
    live = [a["id"] for a in apps[:CHURN_APPS]]
    events = []
    for k in schedule:
        gone = live.pop(rng.randrange(len(live)))
        joiner = next(joiners)
        live.append(joiner["id"])
        events += [{"time": k * RM_PERIOD, "action": "leave", "app": gone},
                   {"time": (k + 1) * RM_PERIOD, "action": "join",
                    "app": joiner}]
    return _write(_doc("churn", "async_compensated", CHURN_INSTANTS,
                       apps[:CHURN_APPS], events), path)


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under `work` and describe the pipeline."""
    if name == "async3":
        return Workload(
            name, "async3", ["--horizon", ASYNC3_HORIZON],
            ["--mode", "async_uncompensated", "--horizon", ASYNC3_ALT_HORIZON],
            ASYNC3_ROWS, ASYNC3_ALT_ROWS,
            params={"preset": "async3", "apps": 3, "instants": 5001,
                    "mode": "async_compensated",
                    "alternate": "async_uncompensated, horizon 2e7"},
            final_shares=[1 / 14, 5 / 14, 8 / 14])
    if name == "wide":
        rows = WIDE_APPS * WIDE_INSTANTS
        return Workload(
            name, wide_config(seed, work / "wide.yaml"), [],
            ["--mode", "ode_reference"], rows, rows,
            params={"apps": WIDE_APPS, "instants": WIDE_INSTANTS,
                    "kinds": "synthetic/multimedia/control", "update_jobs": 1,
                    "mode": "sync", "alternate": "ode_reference"},
            exact_compare=True)
    if name == "churn":
        leaves = len(churn_schedule())
        rows = CHURN_APPS * CHURN_INSTANTS - leaves
        return Workload(
            name, churn_config(seed, work / "churn.yaml"), [],
            ["--mode", "async_uncompensated"], rows, rows,
            params={"live_apps": CHURN_APPS, "instants": CHURN_INSTANTS,
                    "leave_every": CHURN_EVERY, "leaves": leaves,
                    "distinct_apps": CHURN_APPS + leaves,
                    "cadences": list(CHURN_CADENCES),
                    "mode": "async_compensated",
                    "alternate": "async_uncompensated"})
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("async3", "wide", "churn")

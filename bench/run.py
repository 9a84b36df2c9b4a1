"""fairband benchmark: three seeded CLI pipelines, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload async3 --seed 1 --seconds 35 --trace 0

Each workload (see workloads.py) is a closed loop with one client calling
``fairband.cli.main`` in this process, single-threaded: a primary ``run``,
an alternate ``run``, then ``compare`` of the two output directories. After
one untimed warm-up the pipeline repeats until the next repeat would end
past ``--seconds`` (at least three repeats); every repeat also times one
fresh interpreter's set-up. Each timing is rescaled to a fixed machine
speed (speed.py) and each metric is the median over the repeats.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` reports the per-layer metrics instead: each repeat runs the
pipeline once plainly and once with spans around the library's public
calls, then replays the per-step layers (tracing.py). Every output is
checked; the last stdout line is the JSON result, with the failed checks in
``failed``. Details, spans and the environment go to bench/out/<workload>/.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, so every repeat is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "out"
SPEC = ROOT / "BENCHMARK.json"

CALLS = ("run", "alt_run", "compare")
MIN_REPEATS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from fairband import scenario; "
              "scenario.parse_scenario(sys.argv[2])")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Checks:
    """Output checks; failed / attempted is the run's error rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def import_cli():
    """fairband.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import fairband
        from fairband import cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import fairband from {SRC}: {exc}")
    if SRC not in Path(fairband.__file__).resolve().parents:
        sys.exit(f"bench: fairband came from {fairband.__file__}, not {SRC}")
    return cli


def environment(seed: int) -> Dict:
    import numpy
    import yaml
    commit = None
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        top, head = git.stdout.split() if git.returncode == 0 else ("", "")
        if top and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "pyyaml": yaml.__version__,
            "libyaml": bool(yaml.__with_libyaml__), "commit": commit,
            "seed": seed, "threads": {v: os.environ[v] for v in THREAD_VARS},
            "ref_seconds": speed.REF_SECONDS}


def setup_interpreter(scenario: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports fairband and parses the scenario."""
    return subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                           scenario], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def call_cli(cli, argv: List[str], sink) -> int:
    with contextlib.redirect_stdout(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return -1


def pipeline(cli, wl: workloads.Workload, out: Path, checks: Checks,
             tracer: Optional[tracing.Tracer] = None
             ) -> Dict[str, Tuple[float, float]]:
    """One closed-loop pass of the three calls; (wall, rescaled) seconds
    per call."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    times = {}
    with open(os.devnull, "w") as sink:
        for label, argv in zip(CALLS, wl.calls(out)):
            if tracer is not None:
                tracer.call = label
            rc, wall, scaled = speed.measure(call_cli, cli, argv, sink)
            times[label] = (wall, scaled)
            checks.expect(rc == 0, f"{label} {' '.join(argv)}: exit {rc}")
    return times


def _no_constant(token: str):
    raise ValueError(f"non-finite number {token} is not JSON")


def load_strict(path: Path, checks: Checks) -> Optional[Dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_no_constant)
    except (OSError, ValueError) as exc:
        checks.expect(False, f"{path.name}: {exc}")
        return None
    checks.expect(True, f"{path} is strict JSON")
    return doc


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def verify(wl: workloads.Workload, out: Path, checks: Checks
           ) -> Tuple[str, str]:
    """Check one pipeline's artifacts; returns the two CSV digests."""
    for sub in ("primary", "alternate"):
        summary = load_strict(out / sub / "summary.json", checks)
        if summary is None:
            continue
        # starvation_ok may be false: on wide and churn the step exceeds
        # the per-app shares, which the report correctly flags
        checks.expect(summary.get("invariants", {}).get("feasibility_ok")
                      is True, f"{sub} summary: feasibility_ok is not true")
        if sub == "primary" and wl.final_shares:
            final = list(summary.get("final_bandwidths", {}).values())
            checks.expect(
                len(final) == len(wl.final_shares)
                and all(abs(v - s) <= 0.02
                        for v, s in zip(final, wl.final_shares)),
                f"final shares {final} not within 0.02 of {wl.final_shares}")
    report = load_strict(out / "compare.json", checks)
    if report is not None and wl.exact_compare:
        fields = report.get("fields", {})
        for name in ("service", "bandwidth"):
            per = fields.get(name, {})
            checks.expect(bool(per) and all(v == 0.0 for v in per.values()),
                          f"compare {name}: sup deviation not exactly 0.0")
    digests = []
    for sub in ("primary", "alternate"):
        try:
            digests.append(sha256(out / sub / "trajectory.csv"))
        except OSError as exc:
            checks.expect(False, f"{sub} trajectory.csv: {exc}")
            digests.append("")
    return digests[0], digests[1]


def read_back(cli, wl: workloads.Workload, out: Path, checks: Checks) -> None:
    for sub, rows in (("primary", wl.rows), ("alternate", wl.alt_rows)):
        try:
            got = len(cli.read_trajectory_csv(out / sub / "trajectory.csv"))
        except Exception as exc:
            checks.expect(False, f"{sub} trajectory.csv read back: {exc!r}")
            continue
        checks.expect(got == rows, f"{sub} trajectory.csv has {got} rows, "
                                   f"expected {rows}")


def repeat(seconds: float, once: Callable[[], None], minimum: int) -> int:
    """Call `once` while the next call is predicted to end within
    `seconds`, at least `minimum` times; returns the count."""
    start = perf_counter()
    count, last = 0, 0.0
    while count < minimum or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        once()
        last = perf_counter() - t0
        count += 1
    return count


# spans read per traced repeat: metric -> (pipeline call, span name)
SPAN_METRICS = {
    "scenario.parse_s": ("run", "scenario.parse_scenario"),
    "simkernel.run_scenario_s": ("run", "simkernel.run_scenario"),
    "reference.compute_bounds_s": ("run", "reference.compute_bounds"),
    "analysis.sweep_invariants_s": ("run", "analysis.sweep_invariants"),
    "cli.write_trajectory_csv_s": ("run", "cli.write_trajectory_csv"),
    "cli.run_bundle_s": ("run", "cli.run_bundle"),
    "analysis.interpolate_s": ("compare", "analysis.interpolate"),
    "analysis.sup_deviation_per_app_s": ("compare",
                                         "analysis.sup_deviation_per_app"),
    "cli.read_trajectory_csv_s": ("compare", "cli.read_trajectory_csv"),
    "reference.integrate_ode_s": ("alt_run", "reference.integrate_ode"),
}
REPLAYED = {"measure_job": "simkernel.measure_job_us",
            "fairness_vector": "core.fairness_vector_us",
            "make_state": "core.make_state_us",
            "rm_step": "adaptation.rm_step_us"}
# raw values that need the primary run's scenario and trajectory
FROM_TRAJECTORY = ("simkernel.steps", "simkernel.app_steps",
                   "simkernel.membership_events", "simkernel.distinct_apps",
                   *(f"replay.{k}" for k in (*REPLAYED, "rm_step_calls",
                                             "projection_steps",
                                             "excess_removal_steps")))


def layer_sample(tracer: tracing.Tracer, wl: workloads.Workload,
                 plain: Dict[str, Tuple[float, float]],
                 traced: Dict[str, Tuple[float, float]], out: Path,
                 checks: Checks) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Raw per-layer measurements of one traced repeat (rescaled seconds
    and counts), and the reason for each one that is missing."""
    raw: Dict[str, float] = {"plain_run_s": plain["run"][1],
                             "traced_run_s": traced["run"][1]}
    why: Dict[str, str] = {}
    for metric, (call, name) in SPAN_METRICS.items():
        s = tracer.seconds(call, name)
        if s is None:
            why[metric] = tracer.missing.get(name,
                                             f"{name} not called by {call}")
        else:
            wall, scaled = traced[call]
            raw[metric] = s * scaled / wall
    raw["cli.csv_bytes"] = (out / "primary" / "trajectory.csv").stat().st_size
    raw["ode_rows"] = wl.alt_rows

    if "simkernel.run_scenario" not in tracer.kept:
        why.update(dict.fromkeys(FROM_TRAJECTORY, "the primary run's "
                                 "run_scenario call was not captured"))
        return raw, why
    (scn, *_), traj = tracer.kept["simkernel.run_scenario"]
    raw["simkernel.steps"] = len(set(traj.time.tolist()))
    raw["simkernel.app_steps"] = len(traj)
    raw["simkernel.membership_events"] = len(scn.events)
    raw["simkernel.distinct_apps"] = len(set(traj.app.tolist()))
    try:
        replayed, rwhy = tracing.replay(scn, traj, checks.expect)
    except Exception as exc:
        replayed, rwhy = {}, dict.fromkeys(
            (k[len("replay."):] for k in FROM_TRAJECTORY
             if k.startswith("replay.")), f"replay failed: {exc!r}")
    raw.update({f"replay.{k}": v for k, v in replayed.items()})
    why.update({f"replay.{k}": r for k, r in rwhy.items()})

    # integrate_ode is on the pipeline only where the alternate run is
    # ode_reference; elsewhere it is timed once on the primary scenario
    if "reference.integrate_ode_s" not in raw:
        fn, reason = tracing.lookup("reference", "integrate_ode")
        try:
            if fn is None:
                raise LookupError(reason)
            ode, _, scaled = speed.measure(
                fn, scn.initial_state(), list(scn.apps), scn.platform,
                scn.platform.step, scn.horizon, scn.rm_period)
            raw["reference.integrate_ode_s"] = scaled
            raw["ode_rows"] = len(ode)
            why.pop("reference.integrate_ode_s", None)
        except Exception as exc:
            why["reference.integrate_ode_s"] = f"integrate_ode probe: {exc!r}"
    return raw, why


def derive_layers(raw: Dict[str, float], why: Dict[str, str], rows: int
                  ) -> Dict[str, float]:
    """Per-layer metrics from the median raw measurements; a metric whose
    inputs are missing gets a reason in `why` instead of a value."""
    val = {k: v for k, v in raw.items() if "." in k
           and not k.startswith("replay.")}

    def derive(metric: str, fn: Callable[[], float], *needs: str) -> None:
        gone = [n for n in needs if n not in raw]
        if gone:
            why[metric] = "; ".join(dict.fromkeys(why.get(n, f"no {n}")
                                                  for n in gone))
        else:
            val[metric] = fn()

    derive("cli.csv_rows_per_s",
           lambda: rows / raw["cli.write_trajectory_csv_s"],
           "cli.write_trajectory_csv_s")
    parts = ("simkernel.run_scenario_s", "reference.compute_bounds_s",
             "analysis.sweep_invariants_s", "cli.write_trajectory_csv_s")
    derive("cli.run_bundle_other_s",
           lambda: raw["cli.run_bundle_s"] - sum(raw[n] for n in parts),
           "cli.run_bundle_s", *parts)
    derive("trace.overhead_s",
           lambda: raw["traced_run_s"] - raw["plain_run_s"],
           "traced_run_s", "plain_run_s")
    derive("simkernel.us_per_step",
           lambda: raw["simkernel.run_scenario_s"] / raw["simkernel.steps"]
           * 1e6, "simkernel.run_scenario_s", "simkernel.steps")
    derive("simkernel.us_per_app_step",
           lambda: raw["simkernel.run_scenario_s"]
           / raw["simkernel.app_steps"] * 1e6,
           "simkernel.run_scenario_s", "simkernel.app_steps")
    for layer, metric in REPLAYED.items():
        derive(metric, lambda layer=layer: raw[f"replay.{layer}"]
               / max(raw[f"replay.{layer}_calls"], 1) * 1e6,
               f"replay.{layer}")
    # the residual makes replayed layers + loop_other = run_scenario exactly
    replayed = [f"replay.{layer}" for layer in REPLAYED]
    derive("simkernel.loop_other_us_per_step",
           lambda: (raw["simkernel.run_scenario_s"]
                    - sum(raw[n] for n in replayed))
           / raw["simkernel.steps"] * 1e6,
           "simkernel.run_scenario_s", "simkernel.steps", *replayed)
    for count in ("projection_steps", "excess_removal_steps"):
        derive(f"adaptation.{count}", lambda count=count:
               raw[f"replay.{count}"], f"replay.{count}")
    derive("adaptation.projection_ratio",
           lambda: raw["replay.projection_steps"]
           / max(raw["replay.rm_step_calls"], 1),
           "replay.projection_steps", "replay.rm_step_calls")
    derive("reference.us_per_app_step",
           lambda: raw["reference.integrate_ode_s"] / raw["ode_rows"] * 1e6,
           "reference.integrate_ode_s")
    return val


def trace_run(cli, wl: workloads.Workload, out: Path, seconds: float,
              checks: Checks, digests: List[Tuple[str, str]], work: Path
              ) -> Tuple[Dict[str, float], Dict[str, str], Dict, int]:
    """Traced repeats; returns (metrics, reasons, per-repeat raw, count)."""
    tracer = tracing.Tracer()
    samples: List[Dict[str, float]] = []
    why: Dict[str, str] = {}

    def once() -> None:
        plain = pipeline(cli, wl, out, checks)
        digests.append(verify(wl, out, checks))
        tracer.trace_id = len(samples)
        with tracer:
            traced = pipeline(cli, wl, out, checks, tracer)
        digests.append(verify(wl, out, checks))
        raw, reasons = layer_sample(tracer, wl, plain, traced, out, checks)
        tracer.kept.clear()
        samples.append(raw)
        why.update(reasons)

    count = repeat(seconds, once, 1)
    with open(work / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    raw: Dict[str, float] = {}
    for name in sorted({k for s in samples for k in s}):
        got = [s[name] for s in samples if name in s]
        if len(got) < len(samples):
            continue
        if isinstance(got[0], int):
            checks.expect(len(set(got)) == 1,
                          f"{name} differs across repeats: {got}")
            raw[name] = got[0]
        else:
            raw[name] = statistics.median(got)
    detail = {n: [s.get(n) for s in samples] for n in sorted(raw)}
    return derive_layers(raw, why, wl.rows), why, detail, count


def e2e_run(cli, wl: workloads.Workload, out: Path, seconds: float,
            checks: Checks, digests: List[Tuple[str, str]]
            ) -> Tuple[Dict[str, float], Dict[str, str], Dict, int]:
    """Plain repeats; returns (metrics, reasons, sample summary, count)."""
    names = ("setup_s",) + tuple(f"{c}_s" for c in CALLS)
    wall: Dict[str, List[float]] = {n: [] for n in names}
    scaled: Dict[str, List[float]] = {n: [] for n in names}

    def once() -> None:
        proc, w, s = speed.measure(setup_interpreter, wl.scenario)
        if checks.expect(proc.returncode == 0,
                         f"setup interpreter exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}"):
            wall["setup_s"].append(w)
            scaled["setup_s"].append(s)
        for call, (w, s) in pipeline(cli, wl, out, checks).items():
            wall[f"{call}_s"].append(w)
            scaled[f"{call}_s"].append(s)
        digests.append(verify(wl, out, checks))

    count = repeat(seconds, once, MIN_REPEATS)
    val: Dict[str, float] = {}
    why: Dict[str, str] = {}
    detail: Dict[str, Dict] = {}
    for n in names:
        if not scaled[n]:
            why[n] = "no sample succeeded"
            continue
        val[n] = statistics.median(scaled[n])
        detail[n] = {"rescaled": scaled[n], "wall": wall[n],
                     "wall_median": statistics.median(wall[n])}
    if "run_s" in val:
        val["app_steps_per_s"] = wl.rows / val["run_s"]
    val["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return val, why, detail, count


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    with open(SPEC, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, work)
    out = work / "pipeline"
    checks = Checks()
    env = environment(args.seed)
    digests: List[Tuple[str, str]] = []

    pipeline(cli, wl, out, checks)                     # untimed warm-up
    digests.append(verify(wl, out, checks))
    if args.trace:
        values, reasons, detail, env["repeats"] = trace_run(
            cli, wl, out, args.seconds, checks, digests, work)
    else:
        values, reasons, detail, env["repeats"] = e2e_run(
            cli, wl, out, args.seconds, checks, digests)

    read_back(cli, wl, out, checks)
    for i, what in enumerate(("primary", "alternate")):
        seen = sorted({d[i] for d in digests})
        checks.expect(len(seen) == 1,
                      f"{what} trajectory.csv differs across repeats: {seen}")

    metrics = {}
    for m in declared:
        name = m["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": m["unit"]}
        else:
            metrics[name] = {"value": None, "unit": m["unit"],
                             "reason": reasons.get(name, "not measured")}
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    error_rate = len(checks.failures) / max(checks.attempted, 1)
    report = {"workload": wl.name, "params": wl.params, "environment": env,
              "digests": {"primary": digests[0][0],
                          "alternate": digests[0][1]},
              "error_rate": error_rate, "failures": checks.failures,
              "detail": detail, "reasons": reasons, "result": result}
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(f"environment {json.dumps(env)}")
    print(f"workload {wl.name} params {json.dumps(wl.params)}")
    for name, m in metrics.items():
        shown = f"null ({m['reason']})" if m["value"] is None \
            else f"{m['value']:.6g}"
        print(f"  {name:34s} {shown} {m['unit']}")
    print(f"digest primary {digests[0][0]} alternate {digests[0][1]}")
    print(f"checks attempted {checks.attempted} failed "
          f"{len(checks.failures)} error_rate {error_rate:.6g}")
    for failure in checks.failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

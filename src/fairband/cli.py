"""Command-line front end: scenario ingestion, runs, artifact emission.

Verbs:
  run      execute a scenario, write trajectory CSV + summary JSON
  compare  sup deviation between two previously written run directories
  bounds   print the derived theoretical constants for a scenario
  solve    print the stationary allocation for a scenario

Exit codes: 0 success, 2 validation failure, 3 invariant breach, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import analysis, reference, scenario as scen
from .errors import (ConfigurationError, ConvergenceError, FairbandError,
                     InvariantViolation)
from .simkernel import Trajectory, run_scenario

CSV_HEADER = "time,app,service,bandwidth,deadline,response,matching,fairness"
# one record per CSV row; the app id is the only non-float field
_CSV_ROW = np.dtype([(name, object if name == "app" else float)
                     for name in CSV_HEADER.split(",")])
_CSV_LINE = ",".join(["%s"] * len(_CSV_ROW.names)) + "\n"
# rows formatted per write: the strings of one chunk are all the writer
# holds, where a whole-file join grows the process by the file's size
_CSV_CHUNK = 1024

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _format_distinct(column: np.ndarray) -> np.ndarray:
    """`%.17g` text of a float64 column, formatting each distinct bit
    pattern once (so -0.0 keeps its sign next to 0.0)."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist()))
    return np.array(text.split("\n"), dtype=object)[inverse]


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """One row per trajectory row, every float as `%.17g`, which
    read_trajectory_csv parses back bit for bit."""
    columns = [traj.app if name == "app" else
               np.ascontiguousarray(getattr(traj, name), dtype=np.float64)
               for name in _CSV_ROW.names]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for lo in range(0, len(traj), _CSV_CHUNK):
            hi = min(lo + _CSV_CHUNK, len(traj))
            cells = np.empty((hi - lo, len(columns)), dtype=object)
            for j, col in enumerate(columns):
                cells[:, j] = (col[lo:hi] if col is traj.app
                               else _format_distinct(col[lo:hi]))
            fh.write(_CSV_LINE * (hi - lo) % tuple(cells.ravel().tolist()))


def read_trajectory_csv(path: Path) -> Trajectory:
    """Read a file written by write_trajectory_csv.

    The rows stream through numpy's C reader, which parses `%.17g` text
    exactly (inf, nan and -0 included) and requires all eight fields on
    every row. A file that is not such a table, or has no rows, raises
    ConfigurationError naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ConfigurationError(
                    f"{path}: unexpected CSV header {header!r}")
            with warnings.catch_warnings():
                # an empty table is reported below, not as a warning
                warnings.simplefilter("ignore", UserWarning)
                # no comment character: app ids may contain '#'
                rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",",
                                  comments=None, ndmin=1)
    except ValueError as exc:
        raise ConfigurationError(
            f"{path}: malformed trajectory CSV: {exc}") from exc
    if rows.size == 0:
        raise ConfigurationError(f"{path}: no data rows")
    return Trajectory(**{name: rows[name].copy() for name in _CSV_ROW.names})


@dataclass(frozen=True)
class OutputBundle:
    trajectory_path: Path
    summary_path: Path
    report: Dict


def _jsonable(x):
    """Plain JSON values; non-finite floats become strings ("inf", "nan") so
    the output stays strict JSON."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def run_bundle(scenario: scen.Scenario, out_dir: Path) -> OutputBundle:
    """Execute a scenario and write its artifacts into out_dir."""
    traj = run_scenario(scenario)
    bounds = reference.compute_bounds(scenario.apps, scenario.platform,
                                      n_bar=max(a.update_jobs
                                                for a in scenario.apps))
    report_obj = analysis.sweep_invariants(traj, scenario.platform)
    lam = [a.weight for a in scenario.apps]
    shares = reference.asymptotic_fair_share(lam, scenario.platform.cores)
    summary: Dict = {
        "scenario": scenario.echo(),
        "bounds": dataclasses.asdict(bounds),
        "invariants": dataclasses.asdict(report_obj),
    }
    last_t = traj.time[-1]
    mask = traj.time == last_t
    final_v = {str(a): float(v) for a, v in zip(traj.app[mask],
                                                traj.bandwidth[mask])}
    summary["final_bandwidths"] = final_v
    summary["final_services"] = {str(a): float(v) for a, v in
                                 zip(traj.app[mask], traj.service[mask])}
    if len(final_v) == len(scenario.apps):
        settled, settle_time, residuals = analysis.convergence_report(
            traj, shares, tol=0.02)
        gaps = {a.id: final_v[a.id] - float(shares[i])
                for i, a in enumerate(scenario.apps) if a.id in final_v}
        summary["convergence"] = {
            "target_fair_shares": {a.id: float(shares[i])
                                   for i, a in enumerate(scenario.apps)},
            "settled": settled,
            "settle_time": settle_time,
            "final_fairness_residuals": residuals,
            "fair_share_gap": gaps,
            "unfair_apps": sorted(a for a, g in gaps.items()
                                  if g > scenario.platform.match_tol),
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / "trajectory.csv"
    summary_path = out_dir / "summary.json"
    write_trajectory_csv(traj, traj_path)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(summary), fh, indent=2)
        fh.write("\n")
    return OutputBundle(traj_path, summary_path, summary)


def compare_bundles(dir_a: Path, dir_b: Path) -> Dict:
    """Per-app sup deviation between two run directories, checked against the
    asynchronous-equivalence bound of the first bundle."""
    ta = read_trajectory_csv(dir_a / "trajectory.csv")
    tb = read_trajectory_csv(dir_b / "trajectory.csv")
    summary_path = dir_a / "summary.json"
    with open(summary_path, "r", encoding="utf-8") as fh:
        try:
            sa = json.load(fh)
            step = sa["scenario"]["platform"]["step"]
            ell, n_bar = sa["bounds"]["ell"], int(sa["bounds"]["n_bar"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"{summary_path}: unreadable run summary: {exc!r}") from exc
    horizon = float(min(ta.time[-1], tb.time[-1]))
    report: Dict = {"horizon": horizon, "fields": {}}
    lo, hi = reference.equivalence_bound(step, ell, n_bar)
    bound = lo + hi
    ok = True
    for fieldname in ("service", "bandwidth"):
        pa = analysis.interpolate(ta, fieldname)
        pb = analysis.interpolate(tb, fieldname)
        per = analysis.sup_deviation_per_app(pa, pb, horizon)
        report["fields"][fieldname] = per
        if fieldname == "service":
            ok = all(v <= bound for v in per.values())
    report["equivalence_bound"] = bound
    report["within_bound"] = ok
    return report


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fairband",
        description="Distributed CPU-bandwidth allocation simulator")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_scenario_opts(sp):
        sp.add_argument("scenario",
                        help="preset name (sync5, async3) or config file path")
        sp.add_argument("--mode", choices=scen.ALL_MODES,
                        help="override the scenario's engine mode")
        sp.add_argument("--horizon", type=float,
                        help="override the horizon (time-units)")
        sp.add_argument("--step", type=float, help="override the step size")
        sp.add_argument("--strict", action="store_true",
                        help="enforce the step-size starvation guard and fail "
                             "on any invariant report violation")

    rp = sub.add_parser("run", help="run a scenario and write artifacts")
    add_scenario_opts(rp)
    rp.add_argument("--out", default="fairband-out",
                    help="output directory (default fairband-out)")

    cp = sub.add_parser("compare", help="compare two run directories")
    cp.add_argument("dir_a")
    cp.add_argument("dir_b")
    cp.add_argument("--out", help="write the deviation report JSON here")

    bp = sub.add_parser("bounds", help="print theoretical constants")
    add_scenario_opts(bp)
    bp.add_argument("--zeta", type=float,
                    help="also print the balance thresholds at this zeta")

    vp = sub.add_parser("solve", help="print the stationary allocation")
    add_scenario_opts(vp)
    return p


def _load(args) -> scen.Scenario:
    s = scen.parse_scenario(args.scenario)
    changes = {}
    if getattr(args, "mode", None):
        changes["mode"] = args.mode
    if getattr(args, "horizon", None) is not None:
        changes["horizon"] = args.horizon
    if getattr(args, "strict", False):
        changes["strict_bounds"] = True
    if changes:
        s = dataclasses.replace(s, **changes)
    if getattr(args, "step", None) is not None:
        s = dataclasses.replace(
            s, platform=dataclasses.replace(s.platform, step=args.step))
    return s


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            s = _load(args)
            bundle = run_bundle(s, Path(args.out))
            rep = bundle.report["invariants"]
            print(f"wrote {bundle.trajectory_path} and {bundle.summary_path}")
            if s.strict_bounds and not (rep["feasibility_ok"]
                                        and rep["starvation_ok"]):
                print("strict mode: invariant report flagged a violation",
                      file=sys.stderr)
                return EXIT_INVARIANT
            return EXIT_OK
        if args.verb == "compare":
            report = compare_bundles(Path(args.dir_a), Path(args.dir_b))
            text = json.dumps(_jsonable(report), indent=2)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            print(text)
            return EXIT_OK
        if args.verb == "bounds":
            s = _load(args)
            bounds = reference.compute_bounds(
                s.apps, s.platform, n_bar=max(a.update_jobs for a in s.apps))
            out = dataclasses.asdict(bounds)
            if args.zeta is not None:
                out["balance"] = dataclasses.asdict(
                    reference.balance_thresholds(args.zeta, s.apps, s.platform,
                                                 bounds))
            print(json.dumps(_jsonable(out), indent=2))
            return EXIT_OK
        if args.verb == "solve":
            s = _load(args)
            point = reference.solve_stationary_point(s.apps, s.platform)
            print(json.dumps(_jsonable({
                "services": point.services,
                "bandwidths": point.bandwidths,
                "residuals": point.residuals,
                "capped": sorted(point.capped),
            }), indent=2))
            return EXIT_OK
        raise ConfigurationError(f"unknown verb {args.verb!r}")
    except InvariantViolation as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ConfigurationError, ConvergenceError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FairbandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

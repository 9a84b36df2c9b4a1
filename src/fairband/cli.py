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
import functools
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import analysis, reference, scenario as scen
from .errors import (ConfigurationError, ConvergenceError, FairbandError,
                     InvariantViolation)
from .simkernel import VALUES, Trajectory, run_scenario

CSV_HEADER = ",".join(("time", "app") + VALUES)
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


def _jsonable(x):
    """Plain JSON values; non-finite floats become strings ("inf", "nan") so
    the output stays strict JSON."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (np.ndarray, list, tuple, set)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def _number(x) -> float:
    """A float as _jsonable writes it: a JSON number, or the string of a
    non-finite one."""
    if isinstance(x, str) and x in ("inf", "-inf", "nan"):
        return float(x)
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise TypeError(f"{x!r} is not a number")


def run_bundle(scenario: scen.Scenario, out_dir: Path) -> Dict:
    """Execute a scenario, write trajectory.csv and summary.json into
    out_dir, and return the summary."""
    traj = run_scenario(scenario)
    bounds = reference.compute_bounds(scenario.apps, scenario.platform)
    report_obj = analysis.sweep_invariants(traj, scenario.platform)
    lam = [a.weight for a in scenario.apps]
    shares = reference.asymptotic_fair_share(lam, scenario.platform.cores)
    summary: Dict = {
        "scenario": scenario.echo(),
        "bounds": dataclasses.asdict(bounds),
        "invariants": dataclasses.asdict(report_obj),
    }
    # the finals are the last block's last instant when that is the run's
    # last instant, and none when no app is live there
    last = traj.blocks[-1]
    ids = last.ids if traj.time[last.hi - 1] == scenario.last_time else ()
    final = slice(last.hi - len(ids), last.hi)
    final_v = dict(zip(ids, traj.bandwidth[final].tolist()))
    summary["final_bandwidths"] = final_v
    summary["final_services"] = dict(zip(ids, traj.service[final].tolist()))
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
    write_trajectory_csv(traj, out_dir / "trajectory.csv")
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_jsonable(summary), indent=2) + "\n")
    return summary


def compare_bundles(dir_a: Path, dir_b: Path) -> Dict:
    """Per-app sup deviation between two run directories, checked against the
    asynchronous-equivalence bound of the first bundle."""
    paths = (dir_a / "trajectory.csv", dir_b / "trajectory.csv")
    ta, tb = (read_trajectory_csv(path) for path in paths)
    for path, traj in zip(paths, (ta, tb)):
        # the sup below reads each app's rows in time order
        if not traj.rises_per_app():
            raise ConfigurationError(
                f"{path}: an app's times are not strictly increasing")
    summary_path = dir_a / "summary.json"
    with open(summary_path, "r", encoding="utf-8") as fh:
        try:
            sa = json.load(fh)
            step = _number(sa["scenario"]["platform"]["step"])
            ell = _number(sa["bounds"]["ell"])
            n_bar = int(sa["bounds"]["n_bar"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"{summary_path}: unreadable run summary: {exc!r}") from exc
    horizon = float(min(ta.time.max(), tb.time.max()))
    bound = sum(reference.equivalence_bound(step, ell, n_bar))
    report: Dict = {"horizon": horizon, "fields": {}}
    for fieldname in ("service", "bandwidth"):
        report["fields"][fieldname] = analysis.sup_deviation_per_app(
            *(analysis.interpolate(t, fieldname) for t in (ta, tb)), horizon)
    report["equivalence_bound"] = bound
    report["within_bound"] = all(
        v <= bound for v in report["fields"]["service"].values())
    return report


# built once per process: parse_args leaves the parser as it was
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fairband",
        description="Distributed CPU-bandwidth allocation simulator")
    sub = p.add_subparsers(dest="verb", required=True)
    rp = sub.add_parser("run", help="run a scenario and write artifacts")
    cp = sub.add_parser("compare", help="compare two run directories")
    bp = sub.add_parser("bounds", help="print theoretical constants")
    vp = sub.add_parser("solve", help="print the stationary allocation")
    # each verb takes only the flags it reads; --zeta reads the step
    for sp in (rp, bp, vp):
        sp.add_argument("scenario",
                        help="preset name (sync5, async3) or config file path")
    rp.add_argument("--mode", choices=scen.ALL_MODES,
                    help="override the scenario's engine mode")
    rp.add_argument("--horizon", type=float,
                    help="override the horizon (time-units)")
    for sp in (rp, bp):
        sp.add_argument("--step", type=float, help="override the step size")
    rp.add_argument("--strict", action="store_true",
                    help="enforce the step-size starvation guard and fail "
                         "on any invariant report violation")
    rp.add_argument("--out", default="fairband-out",
                    help="output directory (default fairband-out)")
    cp.add_argument("dir_a")
    cp.add_argument("dir_b")
    cp.add_argument("--out", help="write the deviation report JSON here")
    bp.add_argument("--zeta", type=float,
                    help="also print the balance thresholds at this zeta")
    return p


def _load(args) -> scen.Scenario:
    """The scenario with the overrides the verb's flags give, if any."""
    s = scen.parse_scenario(args.scenario)
    changes = {"mode": getattr(args, "mode", None),
               "horizon": getattr(args, "horizon", None),
               "strict_bounds": getattr(args, "strict", False) or None}
    if getattr(args, "step", None) is not None:
        changes["platform"] = dataclasses.replace(s.platform, step=args.step)
    changes = {k: x for k, x in changes.items() if x is not None}
    return dataclasses.replace(s, **changes) if changes else s


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            s = _load(args)
            out = Path(args.out)
            rep = run_bundle(s, out)["invariants"]
            print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
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
            bounds = reference.compute_bounds(s.apps, s.platform)
            out = dataclasses.asdict(bounds)
            if args.zeta is not None:
                out["balance"] = dataclasses.asdict(
                    reference.balance_thresholds(args.zeta, s.apps, s.platform,
                                                 bounds))
            print(json.dumps(_jsonable(out), indent=2))
            return EXIT_OK
        if args.verb == "solve":      # the parser admits no other verb
            s = _load(args)
            point = reference.solve_stationary_point(s.apps, s.platform)
            print(json.dumps(_jsonable({
                "services": point.services,
                "bandwidths": point.bandwidths,
                "residuals": point.residuals,
                "capped": sorted(point.capped),
            }), indent=2))
            return EXIT_OK
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

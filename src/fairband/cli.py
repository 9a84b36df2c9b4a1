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
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from . import analysis, reference, scenario as scen
from .errors import (ConfigurationError, ConvergenceError, FairbandError,
                     InvariantViolation)
from .floattext import format_g17
from .simkernel import VALUES, Trajectory, run_scenario

CSV_HEADER = ",".join(("time", "app") + VALUES)
# one record per CSV row; the app id is the only non-float field
_CSV_ROW = np.dtype([(name, object if name == "app" else float)
                     for name in CSV_HEADER.split(",")])
# rows formatted per write: the bytes of one chunk are all the writer
# holds, where a whole-file join grows the process by the file's size
_CSV_CHUNK = 1024
_COMMA, _NEWLINE = (np.uint8(ord(c)) for c in ",\n")

# run_bundle records the CSV's sha256 here, as the line `sha256sum`
# prints, so `sha256sum -c` checks it
SIDECAR = "trajectory.csv.sha256"
_SIDECAR_LINE = "{}  trajectory.csv\n"
# the columns compare reads
COMPARED = ("service", "bandwidth")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def write_trajectory_csv(traj: Trajectory, path: Path) -> str:
    """One row per trajectory row, every float as `%.17g`, which
    read_trajectory_csv parses back bit for bit. Returns the sha256 hex
    digest of the bytes written. An app id must be a printable str
    without ',', as ApplicationSpec requires, or ConfigurationError
    names it and no file is left at `path`."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as fh:
            for data in _csv_bytes(traj):
                digest.update(data)
                fh.write(data)
    except ConfigurationError:
        # the rows before the refused id would read as a whole table
        Path(path).unlink()
        raise
    return digest.hexdigest()


def _csv_bytes(traj: Trajectory) -> Iterator[bytes]:
    """The header line, then the bytes of each _CSV_CHUNK rows."""
    # a signalling nan in a narrower float column widens to nan, which `%`
    # prints as such, without an invalid-cast warning
    with np.errstate(invalid="ignore"):
        floats = [np.ascontiguousarray(getattr(traj, name), dtype=np.float64)
                  for name in _CSV_ROW.names if name != "app"]
    yield (CSV_HEADER + "\n").encode("ascii")
    ids = _AppIds()
    for lo in range(0, len(traj), _CSV_CHUNK):
        rows = slice(lo, lo + _CSV_CHUNK)
        yield _chunk_bytes([col[rows] for col in floats],
                           ids.codes(traj.app[rows]), ids.utf8)


class _AppIds(dict):
    """Each app id met so far, to its place in `utf8`, which holds its
    UTF-8 once the id has been checked."""

    def __init__(self):
        super().__init__()
        self.utf8: List[bytes] = []

    def __missing__(self, app) -> int:
        # the rule ApplicationSpec applies: a row holds an id unquoted, and
        # a 0 byte would drop out with a row's padding
        if not isinstance(app, str) or "," in app or not app.isprintable():
            raise ConfigurationError(
                f"app id {app!r} cannot be written to a trajectory CSV: "
                f"it must be a printable string without ','")
        self[app] = len(self.utf8)
        self.utf8.append(app.encode("utf-8"))
        return self[app]

    def codes(self, apps: np.ndarray) -> np.ndarray:
        """The place of each id in `apps`."""
        try:
            return np.fromiter(map(self.__getitem__, apps), np.intp,
                               len(apps))
        except TypeError:
            # an id that cannot be hashed, so is not a str
            for app in apps:
                if not isinstance(app, str):
                    self.__missing__(app)
            raise


def _chunk_bytes(floats: List[np.ndarray], codes: np.ndarray,
                 utf8: List[bytes]) -> bytes:
    """The CSV rows of one chunk from its float columns and each row's app
    id as a place in `utf8`.

    A table holds the text of each distinct float bit pattern in the
    chunk (so -0.0 keeps its sign next to 0.0), then each id the chunk
    uses, one zero-padded row apiece whose last byte ends a field. Each
    CSV row gathers its eight fields from it; the 0 bytes drop out."""
    m = len(codes)
    bits, inverse = np.unique(np.stack(floats).view(np.int64).ravel(),
                              return_inverse=True)
    text = format_g17(bits.view(np.float64))
    # the ids the chunk uses, in order of place, and each one's table row
    row = np.zeros(len(utf8), np.intp)
    row[codes] = 1
    used = np.flatnonzero(row)
    row[used] = np.arange(len(text), len(text) + len(used))
    ids = np.array([utf8[c] for c in used])             # S<longest id>
    # no field needs the columns past the last one any value prints in
    cols = np.flatnonzero(text[:, :-1].any(axis=0))[-1] + 1
    width = max(cols, ids.itemsize) + 1
    table = np.zeros((len(text) + len(ids), width), np.uint8)
    table[:len(text), :cols] = text[:, :cols]
    table[len(text):, :ids.itemsize] = ids.view(np.uint8).reshape(
        len(ids), -1)
    # each field ends in a ',', but the last of a row, a float, in a newline
    table[:, -1] = _COMMA
    fields = np.empty((m, len(_CSV_ROW)), np.intp)
    fields[:, 0] = inverse[:m]
    fields[:, 1] = row[codes]
    fields[:, 2:] = inverse[m:].reshape(-1, m).T
    cells = table.view(f"V{width}").ravel().take(fields).view(np.uint8) \
        .reshape(m, -1, width)
    cells[:, -1, -1] = _NEWLINE
    return cells.tobytes().translate(None, b"\0")


def read_trajectory_csv(path: Path, fields: Sequence[str] = VALUES
                        ) -> Trajectory:
    """Read a file written by write_trajectory_csv.

    The rows stream through numpy's C reader, which parses `%.17g` text
    exactly (inf, nan and -0 included) and requires all eight fields on
    every row. A file that is not such a table, or has no rows, raises
    ConfigurationError naming the file.

    `fields` names the VALUES columns to parse besides `time` and `app`;
    each other one reads as a read-only nan column that allocates nothing.
    A subset is parsed through `usecols`, which accepts a row with fields
    missing or added past the last column read and never looks at the
    skipped fields, so pass one only for a file known to be the writer's
    bytes, as compare_bundles knows it from run_bundle's digest.
    """
    unknown = set(fields) - set(VALUES)
    if unknown:
        raise ValueError(f"not trajectory columns: {sorted(unknown)}")
    names = [n for n in _CSV_ROW.names if n not in VALUES or n in fields]
    subset = len(names) < len(_CSV_ROW.names)
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
                rows = np.loadtxt(
                    fh, dtype=np.dtype([(n, _CSV_ROW[n]) for n in names]),
                    delimiter=",", comments=None, ndmin=1,
                    usecols=([_CSV_ROW.names.index(n) for n in names]
                             if subset else None))
    except ValueError as exc:
        raise ConfigurationError(
            f"{path}: malformed trajectory CSV: {exc}") from exc
    if rows.size == 0:
        raise ConfigurationError(f"{path}: no data rows")
    unread = np.broadcast_to(np.nan, rows.shape)
    return Trajectory(**{name: rows[name].copy() if name in names else unread
                         for name in _CSV_ROW.names})


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
    """Execute a scenario, write trajectory.csv, its SIDECAR and
    summary.json into out_dir, and return the summary."""
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
    digest = write_trajectory_csv(traj, out_dir / "trajectory.csv")
    (out_dir / SIDECAR).write_text(_SIDECAR_LINE.format(digest),
                                   encoding="utf-8", newline="\n")
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_jsonable(summary), indent=2) + "\n")
    return summary


def _matches_sidecar(csv: Path) -> bool:
    """Whether the SIDECAR beside a run's trajectory.csv holds exactly the
    line run_bundle writes for the file's present bytes."""
    try:
        recorded = (csv.parent / SIDECAR).read_bytes()
    except OSError:
        return False        # no sidecar: compare checks every field
    digest = hashlib.sha256()
    with open(csv, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return recorded == _SIDECAR_LINE.format(digest.hexdigest()).encode()


def compare_bundles(dir_a: Path, dir_b: Path) -> Dict:
    """Per-app sup deviation between two run directories, checked against the
    asynchronous-equivalence bound of the first bundle."""
    paths = (dir_a / "trajectory.csv", dir_b / "trajectory.csv")
    # a file whose bytes are the ones run_bundle wrote and hashed cannot
    # fail the checks on the columns compare does not read
    ta, tb = (read_trajectory_csv(
        path, fields=COMPARED if _matches_sidecar(path) else VALUES)
        for path in paths)
    for path, traj in zip(paths, (ta, tb)):
        # the sup below reads each app's rows in time order
        if not traj.rises_per_app():
            raise ConfigurationError(
                f"{path}: an app's times are not strictly increasing")
    ids_a, ids_b = ({a for blk in t.blocks for a in blk.ids} for t in (ta, tb))
    if ids_a != ids_b:
        raise ConfigurationError(
            f"{dir_a} and {dir_b} hold different apps: " + "; ".join(
                f"{d} lacks {', '.join(sorted(ids)[:5]) or 'none'}"
                for d, ids in ((dir_a, ids_b - ids_a), (dir_b, ids_a - ids_b))))
    summary_path = dir_a / "summary.json"
    with open(summary_path, "r", encoding="utf-8") as fh:
        try:
            sa = json.load(fh)
            step = _number(sa["scenario"]["platform"]["step"])
            ell = _number(sa["bounds"]["ell"])
            # a bool or a float would be truncated to a count
            if type(n_bar := sa["bounds"]["n_bar"]) is not int:
                raise TypeError(f"n_bar {n_bar!r} is not an integer")
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"{summary_path}: unreadable run summary: {exc!r}") from exc
    horizon = float(min(ta.time.max(), tb.time.max()))
    bound = sum(reference.equivalence_bound(step, ell, n_bar))
    fields = {f: analysis.sup_deviation_per_app(
        *(analysis.interpolate(t, f) for t in (ta, tb)), horizon)
        for f in COMPARED}
    return {"horizon": horizon, "fields": fields, "equivalence_bound": bound,
            "within_bound": all(v <= bound for v in fields["service"].values())}


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
    """The scenario with the verb's flags in place before it is checked."""
    changes = {"mode": getattr(args, "mode", None),
               "horizon": getattr(args, "horizon", None),
               "strict_bounds": getattr(args, "strict", False) or None}
    return scen.parse_scenario(args.scenario, getattr(args, "step", None), **{
        k: x for k, x in changes.items() if x is not None})


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            s = _load(args)
            out = Path(args.out)
            rep = run_bundle(s, out)["invariants"]
            print(f"wrote {out / 'trajectory.csv'}, {out / SIDECAR} and "
                  f"{out / 'summary.json'}")
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

"""Per-layer timing of fairband from outside the library.

Two instruments, both used only by the traced run (``--trace 1``):

* ``Tracer`` wraps the public functions the CLI calls with spans for the
  duration of a ``with`` block and restores them afterwards. Spans stay in
  memory and are written out when the benchmark ends.
* ``replay`` times the per-step layers that sit inside ``run_scenario``'s
  loop, where no span can reach them without distorting the loop: it calls
  them again on the states the engine recorded and checks the results
  bit for bit against the trajectory.

Every function is looked up by module attribute. A function that a later
change removes or reshapes gives ``None`` plus a reason for the metrics that
need it, never a crash; the end-to-end metrics do not use this module.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import speed

# (module, function) pairs that get a span in the traced pipeline
SPANNED = (
    ("scenario", "parse_scenario"),
    ("simkernel", "run_scenario"),
    ("reference", "integrate_ode"),
    ("reference", "compute_bounds"),
    ("analysis", "sweep_invariants"),
    ("analysis", "interpolate"),
    ("analysis", "sup_deviation_per_app"),
    ("cli", "run_bundle"),
    ("cli", "compare_bundles"),
    ("cli", "write_trajectory_csv"),
    ("cli", "read_trajectory_csv"),
)

# spans whose arguments and result the replay needs, kept for the primary
# run only
KEPT = ("simkernel.run_scenario",)


def lookup(module: str, name: str) -> Tuple[Optional[Callable], str]:
    """fairband.<module>.<name>, or None and the reason it is unavailable."""
    try:
        mod = importlib.import_module(f"fairband.{module}")
    except ImportError as exc:
        return None, f"fairband.{module} not importable: {exc}"
    fn = getattr(mod, name, None)
    if not callable(fn):
        return None, f"fairband.{module}.{name} not found"
    return fn, ""


class Tracer:
    """Spans around the library's public calls while the block runs.

    A span records its name, the pipeline call it belongs to (``run``,
    ``alt_run`` or ``compare``), the pipeline's trace id, start, end and the
    index of the enclosing span. Every module-level binding of a wrapped
    function inside fairband is patched, so calls through ``from x import
    f`` names are caught too.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.missing: Dict[str, str] = {}
        self.kept: Dict[str, Tuple[tuple, object]] = {}
        self.call = ""
        self.trace_id = 0
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for module, name in SPANNED:
            fn, why = lookup(module, name)
            if fn is None:
                self.missing[f"{module}.{name}"] = why
                continue
            wrapper = self._spanned(f"{module}.{name}", fn)
            for mod in [m for k, m in sys.modules.items()
                        if k == "fairband" or k.startswith("fairband.")]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span = {"name": name, "call": self.call, "trace": self.trace_id,
                    "parent": self._open[-1] if self._open else None,
                    "start": perf_counter(), "end": None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._open.pop()
            if self.call == "run" and name in KEPT:
                self.kept[name] = (args, result)
            return result
        return wrapper

    def seconds(self, call: str, name: str) -> Optional[float]:
        """Total span time of `name` within `call` of the current trace."""
        hits = [s["end"] - s["start"] for s in self.spans
                if s["trace"] == self.trace_id and s["call"] == call
                and s["name"] == name]
        return sum(hits) if hits else None


def _timed(fn: Callable, args: List[tuple]) -> Tuple[float, list]:
    """Rescaled seconds for calling fn on every argument tuple, and the
    results."""
    out, _, scaled = speed.measure(lambda: [fn(*a) for a in args])
    return scaled, out


def replay(scenario, traj, expect: Callable[[bool, str], bool]
           ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Time measure_job, fairness_vector, make_state and rm_step on the
    recorded states of a stride-1 run, as often as the engine calls them.

    Each replayed result is checked bit for bit against the trajectory
    through `expect(ok, what)`. Returns (values, reasons for missing
    values); values are total seconds and call counts per layer plus the
    counts rm_step reports. Seconds are rescaled (speed.py).
    """
    values: Dict[str, float] = {}
    why: Dict[str, str] = {}
    platform = scenario.platform
    kappa = platform.cores
    specs = {a.id: a for a in scenario.apps}
    specs.update({e.spec.id: e.spec for e in scenario.events
                  if e.action == "join"})
    ids = traj.app.astype(str)
    _, edges = np.unique(traj.time, return_index=True)
    edges = np.append(edges, len(traj))
    blocks = [slice(edges[k], edges[k + 1]) for k in range(len(edges) - 1)]
    step_specs = [[specs[i] for i in ids[b]] for b in blocks]
    # an app's first row is its cold start, where the engine measures nothing
    cold = np.zeros(len(traj), dtype=bool)
    cold[np.unique(ids, return_index=True)[1]] = True

    measure_job, reason = lookup("simkernel", "measure_job")
    if measure_job is None:
        why["measure_job"] = reason
    else:
        rows = np.flatnonzero(~cold)
        bw = kappa * traj.bandwidth
        models = [specs[i].model for i in ids[rows]]
        dt, got = _timed(measure_job, list(zip(models, traj.service[rows],
                                               bw[rows])))
        values["measure_job"], values["measure_job_calls"] = dt, len(rows)
        want = np.column_stack((traj.deadline[rows], traj.response[rows],
                                traj.matching[rows]))
        expect(np.array_equal(np.array(got, dtype=float).reshape(want.shape),
                              want),
               "replayed measure_job differs from the recorded "
               "deadline/response/matching")

    fairness_vector, reason = lookup("core", "fairness_vector")
    if fairness_vector is None:
        why["fairness_vector"] = reason
    else:
        args = [(traj.matching[b], traj.bandwidth[b],
                 np.array([a.weight for a in sp], dtype=float))
                for b, sp in zip(blocks, step_specs)]
        dt, got = _timed(fairness_vector, args)
        values["fairness_vector"], values["fairness_vector_calls"] = \
            dt, len(args)
        expect(all(np.array_equal(F, traj.fairness[b])
                   for F, b in zip(got, blocks)),
               "replayed fairness_vector differs from the recorded fairness")

    # the engine builds a state and takes a bandwidth step at every instant
    # but the last
    make_state, reason = lookup("core", "make_state")
    states = None
    if make_state is None:
        why["make_state"] = reason
    else:
        dt, states = _timed(make_state, [(traj.service[b], traj.bandwidth[b])
                                         for b in blocks[:-1]])
        values["make_state"], values["make_state_calls"] = dt, len(states)

    rm_step, reason = lookup("adaptation", "rm_step")
    if rm_step is None or states is None:
        why.update(dict.fromkeys(("rm_step", "rm_step_calls",
                                  "projection_steps", "excess_removal_steps"),
                                 reason or why["make_state"]))
        return values, why
    import fairband.adaptation as adaptation
    excess = [0]
    remove_excess = getattr(adaptation, "_remove_excess", None)
    if callable(remove_excess):
        def counted(*args, **kwargs):
            excess[0] += 1
            return remove_excess(*args, **kwargs)
        adaptation._remove_excess = counted
    try:
        dt, got = _timed(rm_step, [(st, traj.matching[b], sp, platform)
                                   for st, b, sp in zip(states, blocks,
                                                        step_specs)])
    finally:
        if callable(remove_excess):
            adaptation._remove_excess = remove_excess
    values["rm_step"], values["rm_step_calls"] = dt, len(got)
    if callable(remove_excess):
        values["excess_removal_steps"] = excess[0]
    else:
        why["excess_removal_steps"] = \
            "fairband.adaptation._remove_excess not found"
    if all(hasattr(r, "projections_hit") for r in got):
        values["projection_steps"] = sum(1 for r in got if r.projections_hit)
    else:
        why["projection_steps"] = "rm_step result has no projections_hit"
    # pairs across a membership epoch boundary are resized in between
    compared = mismatched = 0
    for k, res in enumerate(got):
        nxt = blocks[k + 1]
        if not np.array_equal(ids[blocks[k]], ids[nxt]):
            continue
        compared += 1
        if not np.array_equal(np.asarray(res.new_bandwidths, dtype=float),
                              traj.bandwidth[nxt]):
            mismatched += 1
    expect(compared > 0 and mismatched == 0,
           f"replayed rm_step bandwidths differ from the next recorded row "
           f"at {mismatched} of {compared} steps")
    return values, why

"""Scenario definition, YAML config parsing and the built-in presets.

Parsed scenarios carry time-unit values; a job model's coefficients may be
given in milliseconds (`coeff_unit: ms`) of 1000 time-units each.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import ApplicationSpec, JobModel, PlatformSpec
from .errors import ConfigurationError
from .simkernel import MODES, instant_time, instants

MS = 1000.0  # time-units per millisecond


class _Mapping(dict):
    """A config mapping, with the keys its text gives more than once."""
    repeated: Tuple = ()


@functools.cache
def _loader():
    """The loader of every config read, built by the first read, which is
    the first to import PyYAML: a preset run never reads YAML."""
    import yaml

    # libyaml's loader when PyYAML was built with it; both build the same
    # document
    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        """The safe loader, except that each mapping notes the keys it
        repeats, where the safe loader silently keeps the last value. A key
        next to a `<<` merge overrides the merged one, as YAML defines; that
        is no repeat."""

        def construct_yaml_map(self, node):
            data = _Mapping()
            yield data
            # the mapping's own pairs, before its merges are flattened in
            pairs = list(node.value)
            data.update(self.construct_mapping(node))
            if len(data) == len(node.value):
                return          # no key given twice, none merged over
            # every key is constructed by now, so this reads them back
            keys = [self.construct_object(k) for k, _ in pairs
                    if k.tag != "tag:yaml.org,2002:merge"]
            data.repeated = tuple(k for k in data if keys.count(k) > 1)

    Loader.add_constructor("tag:yaml.org,2002:map", Loader.construct_yaml_map)
    return Loader


ALL_MODES = MODES + ("ode_reference",)


@dataclass(frozen=True)
class MembershipEvent:
    """A join (with a spec) or leave (by id); the Scenario checks it."""
    time: float
    action: str                       # "join" or "leave"
    spec: Optional[ApplicationSpec] = None
    app_id: Optional[str] = None

    @property
    def app(self):
        """The config's `app`: a join's spec, a leave's id."""
        return self.spec if self.action == "join" else self.app_id


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs: platform, apps, clocks, mode, events."""
    platform: PlatformSpec
    apps: Tuple[ApplicationSpec, ...]
    rm_period: float
    horizon: float
    mode: str = "sync"
    events: Tuple[MembershipEvent, ...] = ()
    strict_bounds: bool = False
    sample_stride: int = 1
    name: str = "scenario"
    # set from the checked events: every spec the run admits, in first-
    # appearance order, and {instant: [(row of admitted, is_join), ...]}
    admitted: Tuple[ApplicationSpec, ...] = field(init=False, repr=False,
                                                  compare=False)
    schedule: Dict[int, List[Tuple[int, bool]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "apps", tuple(self.apps))
        object.__setattr__(self, "events", tuple(self.events))
        if self.mode not in ALL_MODES:
            raise ConfigurationError(
                f"mode must be one of {', '.join(ALL_MODES)}, got {self.mode!r}")
        for key in ("rm_period", "horizon"):
            if not (0.0 < (x := getattr(self, key)) < math.inf):
                raise ConfigurationError(
                    f"{key} must be positive and finite, got {x}")
        if self.sample_stride < 1:
            raise ConfigurationError("sample_stride must be >= 1")
        # the Euler oracle records every instant of a fixed app set
        if self.mode == "ode_reference" and self.events:
            raise ConfigurationError("events are not supported in mode ode_reference")
        if self.mode == "ode_reference" and self.sample_stride != 1:
            raise ConfigurationError("sample_stride must be 1 in mode ode_reference")
        if not self.apps:
            raise ConfigurationError("a scenario needs at least one app")
        rows = {}  # live id -> row
        for i, a in enumerate(self.apps):
            if (j := rows.setdefault(a.id, i)) != i:
                raise ConfigurationError(
                    f"apps[{i}].id: app id {a.id!r} is given twice (apps[{j}])")
        # one pass over the events in time order, past the horizon too; each
        # applies at the instant within 1e-9 periods of its time, or at 0 if
        # before the run. Non-finite times come first, in the order given.
        p, admitted, schedule = self.rm_period, list(self.apps), {}
        # the live set holds from instant lo; seen: some app is live at a
        # recorded instant before lo
        lo, seen = 0, False
        for i, e in sorted(enumerate(self.events), key=lambda ie: (
                t if math.isfinite(t := ie[1].time / p) else -math.inf)):
            join, r = e.action == "join", e.time / p
            aid = getattr(e.spec, "id", None) if join else e.app_id
            # the first rule the event breaks names it
            why = (f"action must be join or leave, got {e.action!r}"
                   if e.action not in ("join", "leave") else
                   "app: a join needs a spec, a leave an app id"
                   if aid is None else
                   f"time must be finite, got {e.time}"
                   if not math.isfinite(e.time) else
                   f"time/rm_period = {e.time}/{p} overflows"
                   if not math.isfinite(r) else
                   f"time {e.time} falls between manager instants"
                   if abs(r - round(r)) > 1e-9 else
                   f"app.id: app id {aid!r} already live"
                   if join and aid in rows else
                   f"app: leave event for unknown app {aid!r}"
                   if not join and aid not in rows else
                   "app.initial_bandwidth: a joiner is seeded at min(step, "
                   "unused bandwidth, cap), so this key is not read"
                   if join and e.spec.initial_bandwidth is not None else "")
            if why:
                raise ConfigurationError(f"events[{i}].{why}")
            k = max(0, round(r))
            seen = seen or (bool(rows) and any(self.recorded(lo, k)))
            lo = k
            row = rows.pop(aid, len(admitted))  # a join takes the next row
            if join:
                rows[aid] = row
                admitted.append(e.spec)
            schedule.setdefault(k, []).append((row, join))
        if not (seen or (rows and any(self.recorded(lo, self.steps)))):
            raise ConfigurationError(
                "events: no app is live at any recorded instant, so the run "
                "records no rows")
        object.__setattr__(self, "admitted", tuple(admitted))
        object.__setattr__(self, "schedule", schedule)
        # so every verb refuses an allocation, or a strict step, run refuses
        self.initial_state()
        if self.strict_bounds:
            from .reference import compute_bounds
            guard = compute_bounds(self.apps, self.platform).epsilon_star
            if (step := self.platform.step) >= guard:
                raise ConfigurationError(f"strict mode: step {step} not below "
                                         f"the starvation guard {guard}")

    @property
    def steps(self) -> int:
        """Number of manager instants over the horizon."""
        return instants(self.horizon, self.rm_period)

    @property
    def last_time(self) -> float:
        """Time of the last manager instant, which every run records."""
        return instant_time(self.steps - 1, self.rm_period)

    def recorded(self, k0: int, k1: int) -> Tuple[range, range]:
        """The instants k0 <= k < k1 that a run records, as two ranges: the
        multiples of sample_stride below the last instant, then the last."""
        last, m = self.steps - 1, self.sample_stride
        return (range(k0 + -k0 % m, min(k1, last), m),
                range(max(k0, last), min(k1, last + 1)))

    def initial_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Starting (services, bandwidths); apps without an explicit initial
        bandwidth share the remainder equally, up to the per-app cap.
        Refuses an allocation the platform does not admit."""
        p = self.platform
        s = np.array([a.initial_service for a in self.apps], dtype=float)
        v = np.array([math.nan if a.initial_bandwidth is None
                      else a.initial_bandwidth for a in self.apps])
        unset = np.isnan(v)
        if unset.any():
            left = max(0.0, 1.0 - np.nansum(v))
            v[unset] = min(p.upper, left / int(unset.sum()))
        if why := p.breach(v, [a.id for a in self.apps]):
            raise ConfigurationError(
                f"initial_bandwidth: {why}; the cap comes from platform."
                f"max_total_bandwidth {p.max_total_bandwidth} and "
                f"platform.cores {p.cores}")
        return s, v

    def echo(self) -> Dict:
        """Plain-dict form of the scenario; emit() serializes exactly this."""
        return _plain(self)


def _plain(x):
    """A parsed value as a config writes it: a tuple as a list, a spec as
    the keys of its table with unset optional ones left out, and a job
    model as its kind, the coefficients the kind reads and a given beta."""
    if isinstance(x, tuple):
        return [_plain(y) for y in x]
    keys = (("kind", *x.READS[x.kind], "beta") if isinstance(x, JobModel)
            else _TABLES.get(type(x)))
    if keys is None:
        return x
    return {key: value if isinstance(value, (str, int, float))
            else _plain(value) for key in keys
            if (value := getattr(x, key)) is not None}


def _build(cls, fields: Dict, path: str):
    """cls(**fields), naming `path` in a ConfigurationError it raises."""
    try:
        return cls(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _mapping(d, path: str, keys) -> None:
    """Refuse anything but a mapping of the given keys, each given once."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{path} must be a mapping")
    for key in getattr(d, "repeated", ()):
        raise ConfigurationError(f"field {path}.{key} is given more than once")
    for key in d:
        if key not in keys:
            raise ConfigurationError(f"unknown field {path}.{key}")


def _want(d: Dict, key: str, path: str):
    if key not in d:
        raise ConfigurationError(f"missing required field {path}.{key}")
    return d[key]


def _float(value, where: str) -> float:
    """A number; a YAML boolean is refused rather than read as 0 or 1."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigurationError(f"{where} must be a number, got {value!r}")


def _optional_float(value, where: str) -> Optional[float]:
    """A number, or None for a field left unset."""
    return None if value is None else _float(value, where)


def _string(value, where: str) -> str:
    """A YAML string; a number or boolean is refused rather than converted."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{where} must be a string, got {value!r}")
    return value


def _integer(value, where: str) -> int:
    """An int, or a float with no fraction; anything else is refused rather
    than truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return value


def _boolean(value, where: str) -> bool:
    """true or false; a string or number is refused rather than converted."""
    if not isinstance(value, bool):
        raise ConfigurationError(
            f"{where} must be true or false, got {value!r}")
    return value


def _unit(value, where: str) -> float:
    """The time-units in one unit of a coeff_unit, tu or ms."""
    if value not in ("tu", "ms"):
        raise ConfigurationError(f"{where} must be 'tu' or 'ms'")
    return MS if value == "ms" else 1.0


def _verbatim(value, where: str):
    """The value as given, for a key whose owner checks it."""
    return value


def _entries(value, where: str, read, key: str) -> Tuple:
    """A config list, its i-th entry read by `read` as `key[i]`."""
    if not isinstance(value, list):
        raise ConfigurationError(f"{where} must be a list")
    return tuple(read(d, f"{key}[{i}]") for i, d in enumerate(value))


def _fields(cls, d, path: str) -> Dict:
    """The arguments of `cls` that mapping d gives, each key read by its
    reader in _TABLES[cls]; a field of cls without a default is required."""
    _mapping(d, path, _TABLES[cls])
    for key in _REQUIRED[cls]:
        _want(d, key, path)
    return {key: read(d[key], f"{path}.{key}")
            for key, read in _TABLES[cls].items() if key in d}


def _read(cls, d, path: str):
    """A `cls` (PlatformSpec or ApplicationSpec) from mapping d."""
    return _build(cls, _fields(cls, d, path), path)


def _parse_model(d, path: str) -> JobModel:
    fields = _fields(JobModel, d, path)
    # the unit scales every coefficient but beta, a pure number
    scale = fields.pop("coeff_unit", 1.0)
    fields.update({key: x * scale for key, x in fields.items()
                   if key not in ("kind", "beta")})
    # JobModel checks the kind and what it reads; the rest is refused here
    kind = fields["kind"]
    reads = ("kind", "beta", *(JobModel.READS.get(kind, ())
                               if isinstance(kind, str) else ()))
    model = _build(JobModel, {k: fields[k] for k in reads if k in fields},
                   path)
    for key in d:
        if key not in ("coeff_unit", *reads):
            raise ConfigurationError(
                f"field {path}.{key} is not read by a {kind} model")
    return model


def _parse_event(d, path: str) -> MembershipEvent:
    fields = _fields(MembershipEvent, d, path)
    # a join's app is an apps entry and a leave's an id; the Scenario
    # refuses any other action
    action, where = fields["action"], f"{path}.app"
    if action == "join":
        fields["spec"] = _read(ApplicationSpec, _want(fields, "app", path),
                               where)
    elif action == "leave":
        fields["app_id"] = _string(_want(fields, "app", path), where)
    fields.pop("app", None)
    return MembershipEvent(**fields)


# The keys each mapping of a config may hold, in the order echo() writes
# them, each with its reader: a key not listed is refused, a key whose
# class field has no default is required, and an absent key takes that
# default. A mapping or list below the top level is named from the root
# (platform, apps[i], events[i]), a top-level value as scenario.<key>.
_PLATFORM = {"cores": _integer, "step": _float, "match_tol": _float,
             "max_total_bandwidth": _float}
_APP = {"id": _string, "weight": _float, "min_service": _float,
        "initial_service": _float, "update_jobs": _integer,
        "model": _parse_model, "max_service": _optional_float,
        "initial_bandwidth": _optional_float}
# a kind accepts the coefficients JobModel.READS names, and beta
_MODEL = {"kind": _verbatim, "coeff_unit": _unit, "deadline": _float,
          "alpha": _float, "a": _float, "b": _float,
          "beta": _optional_float}
_EVENT = {"time": _float, "action": _verbatim, "app": _verbatim}
_TOP = {"name": _string, "mode": _string, "rm_period": _float,
        "horizon": _float, "strict_bounds": _boolean,
        "sample_stride": _integer,
        "platform": lambda d, _: _read(PlatformSpec, d, "platform"),
        "apps": lambda d, where: _entries(
            d, where, functools.partial(_read, ApplicationSpec), "apps"),
        "events": lambda d, where: _entries(
            [] if d is None else d, where, _parse_event, "events")}
_TABLES = {Scenario: _TOP, PlatformSpec: _PLATFORM, ApplicationSpec: _APP,
           JobModel: _MODEL, MembershipEvent: _EVENT}
# each class's fields without a default, which its mapping must give
_REQUIRED = {cls: tuple(f.name for f in dataclasses.fields(cls)
                        if f.init and f.default is dataclasses.MISSING)
             for cls in _TABLES}


def scenario_from_dict(doc: Dict, step: Optional[float] = None,
                       **changes) -> Scenario:
    """The Scenario of a config mapping, with `changes` in place of the
    fields they name and `step` of the platform's step before it is built."""
    _mapping(doc, "scenario", _TOP)
    # an absent platform takes every PlatformSpec default
    fields = {**_fields(Scenario, {"platform": {}, **doc}, "scenario"),
              **changes}
    if step is not None:
        fields["platform"] = dataclasses.replace(fields["platform"], step=step)
    return Scenario(**fields)


def emit(scenario: Scenario) -> str:
    """Serialize a scenario to the config text format."""
    import yaml
    return yaml.safe_dump(scenario.echo(), sort_keys=False)


def _sync5() -> Scenario:
    """Five equally loaded apps with descending weights on one core; the
    manager may hand at most 90% of the core to any app."""
    model = JobModel(kind="synthetic", a=20.0, b=200.0, deadline=1.0 * MS)
    return Scenario(
        platform=PlatformSpec(cores=1, step=0.05, match_tol=0.05,
                              max_total_bandwidth=0.9),
        apps=tuple(ApplicationSpec(
            id=f"app{i + 1}", weight=w, min_service=0.0, initial_service=10.0,
            update_jobs=1, initial_bandwidth=0.2, model=model)
            for i, w in enumerate((0.9, 0.7, 0.5, 0.3, 0.1))),
        rm_period=1.0 * MS, horizon=5000.0 * MS, mode="sync", name="sync5")


def _async3() -> Scenario:
    """Three heavily loaded apps, the least weighted one updating ten times
    slower than the manager; compensated asynchronous mode."""
    model = JobModel(kind="synthetic", a=40.0 * MS, b=100.0 * MS,
                     deadline=10.0 * MS)
    return Scenario(
        platform=PlatformSpec(cores=1, step=0.03, match_tol=0.05,
                              max_total_bandwidth=1.0),
        apps=tuple(ApplicationSpec(
            id=f"app{i + 1}", weight=w, min_service=0.0, max_service=20.0,
            initial_service=10.0, update_jobs=c, initial_bandwidth=1.0 / 3.0,
            model=model)
            for i, (w, c) in enumerate(zip((0.1, 0.5, 0.8), (10, 1, 1)))),
        rm_period=10.0 * MS, horizon=50000.0 * 10.0 * MS,
        mode="async_compensated", name="async3")


PRESETS = {"sync5": _sync5, "async3": _async3}


def parse_scenario(source: str, step: Optional[float] = None,
                   **changes) -> Scenario:
    """Load a scenario from a preset name or a config file path, with the
    changes scenario_from_dict makes; a preset is read as its echo."""
    if source in PRESETS:
        return scenario_from_dict(PRESETS[source]().echo(), step, **changes)
    try:
        with open(source, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise ConfigurationError(
            f"{source!r} is neither a preset ({', '.join(PRESETS)}) "
            "nor a readable file") from exc
    return scenario_from_dict(_document(data, f"{source}: "), step, **changes)


def parse_scenario_text(text: str) -> Scenario:
    """Parse a scenario from config text (round-trip partner of emit)."""
    return scenario_from_dict(_document(text, ""))


def _document(text, where: str):
    """The document of YAML text, or of bytes in a UTF encoding; `where`
    prefixes the message of a malformed one."""
    import yaml
    try:
        return yaml.load(text, Loader=_loader())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{where}malformed config: {exc}") from exc

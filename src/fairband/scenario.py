"""Scenario definition, YAML config parsing and the built-in presets.

A scenario file is a nested key-value (YAML) document. Job model
coefficients may be declared in milliseconds (`coeff_unit: ms`) or raw
time-units (`coeff_unit: tu`, the default); one millisecond is 1000
time-units. Parsed scenarios always carry time-unit values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import yaml

from .core import (ApplicationSpec, JobModel, PlatformSpec, SystemState,
                   make_state)
from .errors import ConfigurationError
from .simkernel import MODES, instant_time, instants

MS = 1000.0  # time-units per millisecond


class _Mapping(dict):
    """A config mapping, with the keys its text gives more than once."""
    repeated: Tuple = ()


# libyaml's loader when PyYAML was built with it; both build the same document
class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, except that each mapping notes the keys it repeats,
    where the safe loader silently keeps the last value. A key next to a
    `<<` merge overrides the merged one, as YAML defines; that is no
    repeat."""

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


_Loader.add_constructor("tag:yaml.org,2002:map", _Loader.construct_yaml_map)

ALL_MODES = MODES + ("ode_reference",)


@dataclass(frozen=True)
class MembershipEvent:
    """A join (with a spec) or leave (by id); the Scenario checks it."""
    time: float
    action: str                       # "join" or "leave"
    spec: Optional[ApplicationSpec] = None
    app_id: Optional[str] = None


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
        if not (0.0 < self.rm_period < math.inf):
            raise ConfigurationError(
                f"rm_period must be positive and finite, got {self.rm_period}")
        if not (0.0 < self.horizon < math.inf):
            raise ConfigurationError(
                f"horizon must be positive and finite, got {self.horizon}")
        if self.sample_stride < 1:
            raise ConfigurationError("sample_stride must be >= 1")
        # the Euler oracle records every instant of a fixed app set
        if self.mode == "ode_reference" and self.events:
            raise ConfigurationError("events are not supported in mode ode_reference")
        if self.mode == "ode_reference" and self.sample_stride != 1:
            raise ConfigurationError("sample_stride must be 1 in mode ode_reference")
        if not self.apps:
            raise ConfigurationError("a scenario needs at least one app")
        rows = {a.id: i for i, a in enumerate(self.apps)}  # live id -> row
        if len(rows) != len(self.apps):
            raise ConfigurationError("app ids must be unique")
        # one pass over the events in time order, past the horizon too; each
        # applies at the instant within 1e-9 periods of its time, or at 0 if
        # before the run. Non-finite times come first, in the order given.
        p, admitted, schedule = self.rm_period, list(self.apps), {}
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
            row = rows.pop(aid, len(admitted))  # a join takes the next row
            if join:
                rows[aid] = row
                admitted.append(e.spec)
            schedule.setdefault(max(0, round(r)), []).append((row, join))
        object.__setattr__(self, "admitted", tuple(admitted))
        object.__setattr__(self, "schedule", schedule)

    @property
    def steps(self) -> int:
        """Number of manager instants recorded over the horizon."""
        return instants(self.horizon, self.rm_period)

    @property
    def last_time(self) -> float:
        """Time of the last manager instant, which every run records."""
        return instant_time(self.steps - 1, self.rm_period)

    def initial_state(self) -> SystemState:
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
        return make_state(s, v)

    def echo(self) -> Dict:
        """Plain-dict form of the scenario; emit() serializes exactly this."""
        return {
            "name": self.name,
            "mode": self.mode,
            "rm_period": self.rm_period,
            "horizon": self.horizon,
            "strict_bounds": self.strict_bounds,
            "sample_stride": self.sample_stride,
            "platform": dataclasses.asdict(self.platform),
            "apps": [_app_dict(a) for a in self.apps],
            "events": [_event_dict(e) for e in self.events],
        }


def _app_dict(a: ApplicationSpec) -> Dict:
    m: Dict = {"kind": a.model.kind}
    if a.model.kind == "synthetic":
        m.update(a=a.model.a, b=a.model.b, deadline=a.model.deadline)
    elif a.model.kind == "multimedia":
        m.update(alpha=a.model.alpha, deadline=a.model.deadline)
    else:
        m.update(alpha=a.model.alpha)
    if a.model.beta is not None:
        m["beta"] = a.model.beta
    # an unset optional field is left out
    d = {key: getattr(a, key) for key in _APP
         if getattr(a, key) is not None}
    d["model"] = m
    return d


def _event_dict(e: MembershipEvent) -> Dict:
    if e.action == "join":
        return {"time": e.time, "action": "join", "app": _app_dict(e.spec)}
    return {"time": e.time, "action": "leave", "app": e.app_id}


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


def _parse_model(d, path: str) -> JobModel:
    _mapping(d, path, _MODEL_KEYS)
    kind = _want(d, "kind", path)
    unit = d.get("coeff_unit", "tu")
    if unit not in ("tu", "ms"):
        raise ConfigurationError(f"{path}.coeff_unit must be 'tu' or 'ms'")
    scale = MS if unit == "ms" else 1.0
    coeff = {key: _float(d.get(key, 0.0), f"{path}.{key}") * scale
             for key in ("deadline", "alpha", "a", "b")}
    beta = _optional_float(d.get("beta"), f"{path}.beta")
    try:
        return JobModel(kind=kind, beta=beta, **coeff)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


# the keys a platform or app mapping may hold, each with its reader; an
# absent key takes the spec's default, and apps echo in this order
_PLATFORM = {"cores": _integer, "step": _float, "match_tol": _float,
             "max_total_bandwidth": _float}
_APP = {"id": _string, "weight": _float, "min_service": _float,
        "initial_service": _float, "update_jobs": _integer,
        "model": _parse_model, "max_service": _optional_float,
        "initial_bandwidth": _optional_float}
# the keys the other mappings of a config may hold
_TOP_KEYS = ("name", "mode", "rm_period", "horizon", "strict_bounds",
             "sample_stride", "platform", "apps", "events")
_MODEL_KEYS = ("kind", "deadline", "alpha", "a", "b", "beta", "coeff_unit")
_EVENT_KEYS = ("time", "action", "app")


def _read(cls, table: Dict, d, path: str):
    """A `cls` (PlatformSpec or ApplicationSpec) from mapping d, each key
    read by its reader in `table`."""
    _mapping(d, path, table)
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            _want(d, f.name, path)
    fields = {key: read(d[key], f"{path}.{key}")
              for key, read in table.items() if key in d}
    try:
        return cls(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _parse_event(d, path: str) -> MembershipEvent:
    _mapping(d, path, _EVENT_KEYS)
    action = _want(d, "action", path)
    t = _float(_want(d, "time", path), f"{path}.time")
    if action == "join":
        return MembershipEvent(t, action, spec=_read(
            ApplicationSpec, _APP, _want(d, "app", path), f"{path}.app"))
    if action == "leave":
        return MembershipEvent(t, action, app_id=_string(
            _want(d, "app", path), f"{path}.app"))
    return MembershipEvent(t, action)    # the Scenario refuses the action


def scenario_from_dict(doc: Dict) -> Scenario:
    _mapping(doc, "scenario", _TOP_KEYS)
    platform = _read(PlatformSpec, _PLATFORM, doc.get("platform", {}),
                     "platform")
    apps_doc = _want(doc, "apps", "scenario")
    if not isinstance(apps_doc, list):
        raise ConfigurationError("scenario.apps must be a list")
    apps = [_read(ApplicationSpec, _APP, a, f"apps[{i}]")
            for i, a in enumerate(apps_doc)]
    events_doc = [] if doc.get("events") is None else doc["events"]
    if not isinstance(events_doc, list):
        raise ConfigurationError("scenario.events must be a list")
    events = [_parse_event(e, f"events[{i}]") for i, e in enumerate(events_doc)]
    strict = doc.get("strict_bounds", False)
    if not isinstance(strict, bool):
        raise ConfigurationError(
            f"scenario.strict_bounds must be true or false, got {strict!r}")
    return Scenario(
        platform=platform,
        apps=tuple(apps),
        rm_period=_float(_want(doc, "rm_period", "scenario"),
                         "scenario.rm_period"),
        horizon=_float(_want(doc, "horizon", "scenario"), "scenario.horizon"),
        mode=_string(doc.get("mode", "sync"), "scenario.mode"),
        events=tuple(events),
        strict_bounds=strict,
        sample_stride=_integer(doc.get("sample_stride", 1),
                               "scenario.sample_stride"),
        name=_string(doc.get("name", "scenario"), "scenario.name"),
    )


def emit(scenario: Scenario) -> str:
    """Serialize a scenario to the config text format."""
    return yaml.safe_dump(scenario.echo(), sort_keys=False)


def _sync5() -> Scenario:
    """Five equally loaded apps with descending weights on one core; the
    manager may hand at most 90% of the core to any app."""
    weights = (0.9, 0.7, 0.5, 0.3, 0.1)
    apps = tuple(
        ApplicationSpec(
            id=f"app{i + 1}",
            weight=w,
            min_service=0.0,
            initial_service=10.0,
            update_jobs=1,
            initial_bandwidth=0.2,
            model=JobModel(kind="synthetic", a=20.0, b=200.0, deadline=1.0 * MS),
        )
        for i, w in enumerate(weights)
    )
    return Scenario(
        platform=PlatformSpec(cores=1, step=0.05, match_tol=0.05,
                              max_total_bandwidth=0.9),
        apps=apps,
        rm_period=1.0 * MS,
        horizon=5000.0 * MS,
        mode="sync",
        name="sync5",
    )


def _async3() -> Scenario:
    """Three heavily loaded apps, the least weighted one updating ten times
    slower than the manager; compensated asynchronous mode."""
    weights = (0.1, 0.5, 0.8)
    cadence = (10, 1, 1)
    apps = tuple(
        ApplicationSpec(
            id=f"app{i + 1}",
            weight=w,
            min_service=0.0,
            max_service=20.0,
            initial_service=10.0,
            update_jobs=c,
            initial_bandwidth=1.0 / 3.0,
            model=JobModel(kind="synthetic", a=40.0 * MS, b=100.0 * MS,
                           deadline=10.0 * MS),
        )
        for i, (w, c) in enumerate(zip(weights, cadence))
    )
    return Scenario(
        platform=PlatformSpec(cores=1, step=0.03, match_tol=0.05,
                              max_total_bandwidth=1.0),
        apps=apps,
        rm_period=10.0 * MS,
        horizon=50000.0 * 10.0 * MS,
        mode="async_compensated",
        name="async3",
    )


PRESETS = {"sync5": _sync5, "async3": _async3}


def parse_scenario(source: str) -> Scenario:
    """Load a scenario from a preset name or a config file path."""
    if source in PRESETS:
        return PRESETS[source]()
    try:
        with open(source, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise ConfigurationError(
            f"{source!r} is neither a preset ({', '.join(PRESETS)}) "
            "nor a readable file") from exc
    return _from_yaml(data, f"{source}: ")


def parse_scenario_text(text: str) -> Scenario:
    """Parse a scenario from config text (round-trip partner of emit)."""
    return _from_yaml(text, "")


def _from_yaml(text, where: str) -> Scenario:
    """A scenario from YAML text, or from bytes in a UTF encoding; `where`
    prefixes the message of a malformed document."""
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{where}malformed config: {exc}") from exc
    return scenario_from_dict(doc)

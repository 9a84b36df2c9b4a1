"""Scenario definition, YAML config parsing and the built-in presets.

A scenario file is a nested key-value (YAML) document. Job model
coefficients may be declared in milliseconds (`coeff_unit: ms`) or raw
time-units (`coeff_unit: tu`, the default); one millisecond is 1000
time-units. Parsed scenarios always carry time-unit values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .core import (ApplicationSpec, JobModel, PlatformSpec, SystemState,
                   make_state)
from .errors import ConfigurationError
from .simkernel import MODES, MembershipEvent

MS = 1000.0  # time-units per millisecond

# libyaml's loader when PyYAML was built with it; both build the same document
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

ALL_MODES = MODES + ("ode_reference",)


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
        ids = [a.id for a in self.apps]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("app ids must be unique")

    @property
    def steps(self) -> int:
        """Number of manager instants recorded over the horizon."""
        return int(round(self.horizon / self.rm_period)) + 1

    def initial_state(self) -> SystemState:
        """Starting (services, bandwidths); apps without an explicit initial
        bandwidth share the remainder equally."""
        s = np.array([a.initial_service for a in self.apps], dtype=float)
        v = np.array([math.nan if a.initial_bandwidth is None
                      else a.initial_bandwidth for a in self.apps])
        unset = np.isnan(v)
        if unset.any():
            left = 1.0 - np.nansum(v)
            if left < 0.0:
                raise ConfigurationError("explicit initial bandwidths exceed 1")
            cap = min(1.0 / self.platform.cores,
                      self.platform.max_total_bandwidth / self.platform.cores)
            v[unset] = min(cap, left / int(unset.sum()))
        if v.sum() > 1.0 + 1e-12:
            raise ConfigurationError("initial bandwidths exceed the platform")
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
            "platform": {
                "cores": self.platform.cores,
                "step": self.platform.step,
                "match_tol": self.platform.match_tol,
                "max_total_bandwidth": self.platform.max_total_bandwidth,
            },
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
    d = {
        "id": a.id,
        "weight": a.weight,
        "min_service": a.min_service,
        "initial_service": a.initial_service,
        "update_jobs": a.update_jobs,
        "model": m,
    }
    if a.max_service is not None:
        d["max_service"] = a.max_service
    if a.initial_bandwidth is not None:
        d["initial_bandwidth"] = a.initial_bandwidth
    return d


def _event_dict(e: MembershipEvent) -> Dict:
    if e.action == "join":
        return {"time": e.time, "action": "join", "app": _app_dict(e.spec)}
    return {"time": e.time, "action": "leave", "app": e.app_id}


# the keys each mapping of a config may hold; any other key is refused
_TOP_KEYS = ("name", "mode", "rm_period", "horizon", "strict_bounds",
             "sample_stride", "platform", "apps", "events")
_PLATFORM_KEYS = ("cores", "step", "match_tol", "max_total_bandwidth")
_APP_KEYS = ("id", "weight", "min_service", "max_service", "initial_service",
             "initial_bandwidth", "update_jobs", "model")
_MODEL_KEYS = ("kind", "deadline", "alpha", "a", "b", "beta", "coeff_unit")
_EVENT_KEYS = ("time", "action", "app")


def _mapping(d, path: str, keys: Tuple[str, ...]) -> Dict:
    if not isinstance(d, dict):
        raise ConfigurationError(f"{path} must be a mapping")
    for key in d:
        if key not in keys:
            raise ConfigurationError(f"unknown field {path}.{key}")
    return d


def _want(d: Dict, key: str, path: str):
    if key not in d:
        raise ConfigurationError(f"missing required field {path}.{key}")
    return d[key]


def _float(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{where} must be a number, got {value!r}") from None


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
    beta = None if d.get("beta") is None else _float(d["beta"], f"{path}.beta")
    try:
        return JobModel(kind=kind, beta=beta, **coeff)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _parse_app(d, path: str) -> ApplicationSpec:
    _mapping(d, path, _APP_KEYS)
    fields = dict(
        id=str(_want(d, "id", path)),
        weight=_float(_want(d, "weight", path), f"{path}.weight"),
        min_service=_float(_want(d, "min_service", path),
                           f"{path}.min_service"),
        initial_service=_float(_want(d, "initial_service", path),
                               f"{path}.initial_service"),
        model=_parse_model(_want(d, "model", path), f"{path}.model"),
        max_service=None if d.get("max_service") is None
        else _float(d["max_service"], f"{path}.max_service"),
        update_jobs=_integer(d.get("update_jobs", 1), f"{path}.update_jobs"),
        initial_bandwidth=None if d.get("initial_bandwidth") is None
        else _float(d["initial_bandwidth"], f"{path}.initial_bandwidth"),
    )
    try:
        return ApplicationSpec(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _parse_event(d, path: str) -> MembershipEvent:
    _mapping(d, path, _EVENT_KEYS)
    action = _want(d, "action", path)
    t = _float(_want(d, "time", path), f"{path}.time")
    if action == "join":
        return MembershipEvent(
            t, "join", spec=_parse_app(_want(d, "app", path), f"{path}.app"))
    if action == "leave":
        return MembershipEvent(t, "leave", app_id=str(_want(d, "app", path)))
    raise ConfigurationError(f"{path}.action must be join or leave")


def scenario_from_dict(doc: Dict) -> Scenario:
    _mapping(doc, "scenario", _TOP_KEYS)
    pd = _mapping(doc.get("platform", {}), "platform", _PLATFORM_KEYS)
    platform = PlatformSpec(
        cores=_integer(pd.get("cores", 1), "platform.cores"),
        step=_float(pd.get("step", 0.05), "platform.step"),
        match_tol=_float(pd.get("match_tol", 0.05), "platform.match_tol"),
        max_total_bandwidth=_float(pd.get("max_total_bandwidth", 1.0),
                                   "platform.max_total_bandwidth"),
    )
    apps_doc = _want(doc, "apps", "scenario")
    if not isinstance(apps_doc, list):
        raise ConfigurationError("scenario.apps must be a list")
    apps = [_parse_app(a, f"apps[{i}]") for i, a in enumerate(apps_doc)]
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
        mode=str(doc.get("mode", "sync")),
        events=tuple(events),
        strict_bounds=strict,
        sample_stride=_integer(doc.get("sample_stride", 1),
                               "scenario.sample_stride"),
        name=str(doc.get("name", "scenario")),
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
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise ConfigurationError(
            f"{source!r} is neither a preset ({', '.join(PRESETS)}) "
            "nor a readable file") from exc
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{source}: malformed config: {exc}") from exc
    return scenario_from_dict(doc)


def parse_scenario_text(text: str) -> Scenario:
    """Parse a scenario from config text (round-trip partner of emit)."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc
    return scenario_from_dict(doc)

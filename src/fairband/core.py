"""Formula layer: matching functions, fairness measure, feasibility, models.

Everything here is stateless. Vectors are plain sequences or numpy arrays;
no function mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError

SCARCE = "scarce"
PERFECT = "perfect"
ABUNDANT = "abundant"

# absolute tolerance for bookkeeping identities (bandwidth sums etc.)
SUM_TOL = 1e-12
# the step kernel keeps update cadences in int64 arrays
MAX_UPDATE_JOBS = int(np.iinfo(np.int64).max)


def nominal_matching(beta: float, service: float, bandwidth: float) -> float:
    """Model form beta*v/s - 1 of the matching signal."""
    if not (service > 0.0):
        raise ConfigurationError(f"service level must be positive, got {service!r}")
    if bandwidth < 0.0:
        raise ConfigurationError(f"bandwidth must be non-negative, got {bandwidth!r}")
    if not (beta > 0.0):
        raise ConfigurationError(f"beta must be positive, got {beta!r}")
    return beta * bandwidth / service - 1.0


def classify_matching(f: float, delta: float) -> str:
    """Bucket a matching value: scarce below -delta, abundant above +delta."""
    if not (delta > 0.0):
        raise ConfigurationError(f"delta must be positive, got {delta!r}")
    if f < -delta:
        return SCARCE
    if f > delta:
        return ABUNDANT
    return PERFECT


def fairness_vector(matchings, bandwidths, weights) -> np.ndarray:
    """Weighted imbalance of every app; the last axis is the app axis.

    F_i = -(1 - vbar_i) * lam_i * min(phi_i, 0)
          + vbar_i * sum_{j != i} lam_j * min(phi_j, 0)

    `bandwidths` are normalized (vbar = v / cores), each in [0, 1/cores].
    """
    vbar = np.asarray(bandwidths)
    w = np.multiply(weights, np.minimum(matchings, 0.0))
    total = np.add.reduce(w, axis=-1, keepdims=True)
    return -(1.0 - vbar) * w + vbar * (total - w)


def is_feasible(bandwidths: Sequence[float], cores: int) -> bool:
    """True iff each un-normalized v_i is in [0, 1] and their sum is <= cores."""
    v = np.asarray(bandwidths, dtype=float)
    if v.size == 0:
        return True
    return bool(np.all(v >= -SUM_TOL) and np.all(v <= 1.0 + SUM_TOL)
                and v.sum() <= cores + SUM_TOL)


@dataclass(frozen=True)
class JobModel:
    """Workload description for one application.

    kind selects which coefficients are read:
      multimedia — execution time alpha*s, fixed deadline
      control    — fixed execution time alpha/beta, deadline alpha/s
      synthetic  — execution time a*s + b, fixed deadline
    beta is the coefficient of the nominal matching form beta*v/s - 1; when
    omitted it is derived (deadline/alpha for multimedia, deadline/a for
    synthetic), for control it must be given.
    """
    kind: str
    deadline: float = 0.0
    alpha: float = 0.0
    a: float = 0.0
    b: float = 0.0
    beta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("multimedia", "control", "synthetic"):
            raise ConfigurationError(f"unknown job model kind {self.kind!r}")
        if self.kind == "multimedia":
            if not (self.alpha > 0.0):
                raise ConfigurationError("multimedia model requires alpha > 0")
            if not (self.deadline > 0.0):
                raise ConfigurationError("multimedia model requires deadline > 0")
        elif self.kind == "control":
            if not (self.alpha > 0.0):
                raise ConfigurationError("control model requires alpha > 0")
            if self.beta is None or not (self.beta > 0.0):
                raise ConfigurationError("control model requires an explicit beta > 0")
        else:
            if self.a < 0.0 or self.b < 0.0:
                raise ConfigurationError("synthetic model requires a, b >= 0")
            if self.a == 0.0 and self.b == 0.0:
                raise ConfigurationError("synthetic model requires a + b > 0")
            if not (self.deadline > 0.0):
                raise ConfigurationError("synthetic model requires deadline > 0")

    @property
    def effective_beta(self) -> float:
        """Coefficient of the nominal matching form for this model."""
        if self.beta is not None:
            return self.beta
        if self.kind == "multimedia":
            return self.deadline / self.alpha
        if self.kind == "synthetic":
            if self.a == 0.0:
                raise ConfigurationError(
                    "synthetic model with a = 0 has no nominal matching coefficient")
            return self.deadline / self.a
        raise ConfigurationError("control model has no derivable beta")

    @property
    def coefficients(self) -> Tuple[float, float, float, float]:
        """(c1, c0, d0, d1): one job at service level s has execution time
        c1*s + c0 and deadline d0, or d1/s when d1 > 0."""
        if self.kind == "synthetic":
            return self.a, self.b, self.deadline, 0.0
        if self.kind == "multimedia":
            return self.alpha, 0.0, self.deadline, 0.0
        # alpha/beta keeps D*v/C == beta*v/s - 1 + 1
        return 0.0, self.alpha / self.beta, 0.0, self.alpha


@dataclass(frozen=True)
class ApplicationSpec:
    """Static description of one application."""
    id: str
    weight: float
    min_service: float
    initial_service: float
    model: JobModel
    max_service: Optional[float] = None
    update_jobs: int = 1
    initial_bandwidth: Optional[float] = None  # normalized; scenario-level default applies

    def __post_init__(self):
        # ids are written unquoted into trajectory.csv rows
        if not isinstance(self.id, str) or "," in self.id \
                or not self.id.isprintable():
            raise ConfigurationError(
                f"app id {self.id!r} must be a printable string without ','")
        if not (0.0 < self.weight <= 1.0):
            raise ConfigurationError(f"app {self.id}: weight must be in (0, 1]")
        # synthetic execution time a*s + b stays positive at s = 0 when b > 0,
        # so the floor may sit at 0 there; the other kinds divide by s
        floor_ok = (self.min_service > 0.0
                    or (self.model.kind == "synthetic" and self.model.b > 0.0
                        and self.min_service == 0.0))
        if not floor_ok:
            raise ConfigurationError(f"app {self.id}: min_service must be positive")
        if self.initial_service < self.min_service:
            raise ConfigurationError(f"app {self.id}: initial_service below min_service")
        if self.max_service is not None:
            if self.max_service < self.min_service:
                raise ConfigurationError(f"app {self.id}: max_service below min_service")
            if self.initial_service > self.max_service:
                raise ConfigurationError(f"app {self.id}: initial_service above max_service")
        if not (1 <= self.update_jobs <= MAX_UPDATE_JOBS):
            raise ConfigurationError(
                f"app {self.id}: update_jobs must be in [1, {MAX_UPDATE_JOBS}]")
        if self.initial_bandwidth is not None and not (0.0 <= self.initial_bandwidth <= 1.0):
            raise ConfigurationError(f"app {self.id}: initial_bandwidth must be in [0, 1]")


@dataclass(frozen=True)
class PlatformSpec:
    """Shared platform constants: core count, step size, tolerances, cap."""
    cores: int = 1
    step: float = 0.05
    match_tol: float = 0.05
    max_total_bandwidth: float = 1.0

    def __post_init__(self):
        if self.cores < 1:
            raise ConfigurationError("cores must be >= 1")
        if not (self.step > 0.0):
            raise ConfigurationError("step must be positive")
        if not (self.match_tol > 0.0):
            raise ConfigurationError("match_tol must be positive")
        if not (0.0 < self.max_total_bandwidth <= 1.0):
            raise ConfigurationError("max_total_bandwidth must be in (0, 1]")


@dataclass(frozen=True)
class SystemState:
    """Live (services, normalized bandwidths, unused bandwidth) triple."""
    services: np.ndarray
    bandwidths: np.ndarray
    unused: float

    def __post_init__(self):
        s = np.asarray(self.services, dtype=float)
        v = np.asarray(self.bandwidths, dtype=float)
        object.__setattr__(self, "services", s)
        object.__setattr__(self, "bandwidths", v)
        if s.shape != v.shape:
            raise ConfigurationError("services and bandwidths must have equal length")
        if abs(v.sum() + self.unused - 1.0) > SUM_TOL:
            raise ConfigurationError(
                f"bandwidth accounting broken: sum {v.sum()!r} + unused {self.unused!r} != 1")

    def validated(self, specs: Sequence[ApplicationSpec], platform: PlatformSpec) -> "SystemState":
        cap = 1.0 / platform.cores
        v = self.bandwidths
        bad = np.flatnonzero((v < -SUM_TOL) | (v > cap + SUM_TOL))
        if len(bad):
            i = bad[0]
            raise ConfigurationError(
                f"app {specs[i].id}: initial_bandwidth {v[i]} is outside "
                f"[0, 1/cores] = [0, {cap}], with cores from platform.cores "
                f"= {platform.cores}")
        for i, spec in enumerate(specs):
            if self.services[i] < spec.min_service - SUM_TOL:
                raise ConfigurationError(
                    f"app {spec.id}: service {self.services[i]} below floor {spec.min_service}")
        return self


def make_state(services, bandwidths) -> SystemState:
    """Build a SystemState, deriving unused bandwidth as 1 - sum(vbar)."""
    v = np.asarray(bandwidths, dtype=float)
    return SystemState(np.asarray(services, dtype=float), v, 1.0 - float(v.sum()))


def is_fair_allocation(state: SystemState,
                       specs: Sequence[ApplicationSpec],
                       platform: PlatformSpec,
                       tol: float) -> bool:
    """True iff every fairness measure is within tol of zero at this state."""
    if not (tol > 0.0):
        raise ConfigurationError("tol must be positive")
    lam = np.array([a.weight for a in specs])
    phi = np.array([
        nominal_matching(a.model.effective_beta, state.services[i],
                         platform.cores * state.bandwidths[i])
        for i, a in enumerate(specs)
    ])
    res = fairness_vector(phi, state.bandwidths, lam)
    return bool(np.max(np.abs(res)) <= tol)

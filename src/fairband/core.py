"""Formula layer: fairness measure, the feasible allocation, models.

Everything here is stateless. Vectors are plain sequences or numpy arrays;
no function mutates its arguments, except an `out` array it is handed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError

# absolute tolerance for bookkeeping identities (bandwidth sums etc.)
SUM_TOL = 1e-12
# the most a feasible bandwidth row may sum to; a projection removes the
# excess of a row above it
LIMIT = 1.0 + SUM_TOL
# the step kernel keeps update cadences in int64 arrays
MAX_UPDATE_JOBS = int(np.iinfo(np.int64).max)
# the kernel's literals as read-only arrays: a ufunc takes an array operand
# faster than a Python float, with the same bits
ZERO, ONE = np.array(0.0), np.array(1.0)
ZERO.flags.writeable = ONE.flags.writeable = False


def fairness_vector(matchings, bandwidths, weights, out=None) -> np.ndarray:
    """Weighted imbalance of every app; the last axis is the app axis.

    F_i = -(1 - vbar_i) * lam_i * min(phi_i, 0)
          + vbar_i * sum_{j != i} lam_j * min(phi_j, 0)

    `bandwidths` are normalized (vbar = v / cores), each in [0, 1/cores].
    The result is written into `out` when given. With w = lam * min(phi, 0)
    and T = sum_j w_j the sum above equals vbar_i * T - w_i, the form
    evaluated here in five ufunc calls; the float result lies within a few
    eps * sum|w| of the exact sum. The sum identity
    sum_i F_i = (sum_i vbar_i - 1) * T holds in real arithmetic.
    """
    w = np.multiply(weights, np.minimum(matchings, ZERO))
    total = np.add.reduce(w, axis=-1, keepdims=True)
    out = np.multiply(bandwidths, total, out=out)
    return np.subtract(out, w, out=out)


@dataclass(frozen=True)
class JobModel:
    """Workload description for one application.

    kind selects which coefficients are read:
      multimedia — execution time alpha*s, fixed deadline
      control    — fixed execution time alpha/beta, deadline alpha/s
      synthetic  — execution time a*s + b, fixed deadline
    beta is the coefficient of the nominal matching form beta*v/s - 1 and
    must be positive; when omitted it is derived (deadline/alpha for
    multimedia, deadline/a for synthetic), for control it must be given.
    """
    kind: str
    deadline: float = 0.0
    alpha: float = 0.0
    a: float = 0.0
    b: float = 0.0
    beta: Optional[float] = None
    # the coefficients each kind reads, in echo order; any kind may give beta
    READS = {"synthetic": ("a", "b", "deadline"),
             "multimedia": ("alpha", "deadline"),
             "control": ("alpha", "beta")}
    # the quotient each kind derives: control's execution time alpha/beta,
    # the others' beta when it is not given
    QUOTIENT = {"synthetic": ("deadline", "a"),
                "multimedia": ("deadline", "alpha"),
                "control": ("alpha", "beta")}

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in self.READS):
            raise ConfigurationError(f"unknown job model kind {self.kind!r}")
        if self.kind == "multimedia":
            if not (self.alpha > 0.0):
                raise ConfigurationError("multimedia model requires alpha > 0")
            if not (self.deadline > 0.0):
                raise ConfigurationError("multimedia model requires deadline > 0")
        elif self.kind == "control":
            if not (self.alpha > 0.0):
                raise ConfigurationError("control model requires alpha > 0")
            if self.beta is None:
                raise ConfigurationError("control model requires an explicit beta > 0")
        else:
            if not (self.a >= 0.0 and self.b >= 0.0):
                raise ConfigurationError("synthetic model requires a, b >= 0")
            if self.a == 0.0 and self.b == 0.0:
                raise ConfigurationError("synthetic model requires a + b > 0")
            if not (self.deadline > 0.0):
                raise ConfigurationError("synthetic model requires deadline > 0")
        # a given beta scales the nominal matching form of any kind
        if self.beta is not None and not (self.beta > 0.0):
            raise ConfigurationError(f"{self.kind} model requires beta > 0")
        # an unread coefficient would be dropped from the echo
        for key in ("deadline", "alpha", "a", "b"):
            if key not in self.READS[self.kind] and getattr(self, key) != 0.0:
                raise ConfigurationError(
                    f"{key} is not read by a {self.kind} model")
        # an infinite one passes every test above, and a quotient of two
        # finite ones may overflow or round to 0; either way a run would
        # step nan
        for key in ("deadline", "alpha", "a", "b", "beta"):
            if getattr(self, key) == math.inf:
                raise ConfigurationError(
                    f"{self.kind} model requires a finite {key}")
        num, den = self.QUOTIENT[self.kind]
        derived = self.kind == "control" or (self.beta is None
                                             and getattr(self, den) > 0.0)
        if derived and not (0.0 < getattr(self, num) / getattr(self, den)
                            < math.inf):
            raise ConfigurationError(f"{self.kind} model requires a finite, "
                                     f"nonzero {num}/{den}")

    @property
    def effective_beta(self) -> float:
        """Coefficient of the nominal matching form for this model."""
        if self.beta is not None:
            return self.beta
        # control models carry an explicit beta, multimedia a positive alpha
        num, den = self.QUOTIENT[self.kind]
        if getattr(self, den) == 0.0:
            raise ConfigurationError(f"{self.kind} model with {den} = 0 has "
                                     f"no nominal matching coefficient")
        return getattr(self, num) / getattr(self, den)

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
        if not (self.initial_service >= self.min_service):
            raise ConfigurationError(f"app {self.id}: initial_service below min_service")
        if self.max_service is not None:
            if not (self.max_service >= self.min_service):
                raise ConfigurationError(f"app {self.id}: max_service below min_service")
            if not (self.initial_service <= self.max_service):
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
        # the per-app cap `upper` needs cores as a float
        if not 1 <= self.cores <= sys.float_info.max:
            raise ConfigurationError(
                f"cores must be in [1, {sys.float_info.max!r}]")
        # an infinite step turns the first stepped state nan
        if not (0.0 < self.step < math.inf):
            raise ConfigurationError("step must be positive and finite")
        if not (self.match_tol > 0.0):
            raise ConfigurationError("match_tol must be positive")
        if not (0.0 < self.max_total_bandwidth <= 1.0):
            raise ConfigurationError("max_total_bandwidth must be in (0, 1]")

    @property
    def upper(self) -> float:
        """The per-app cap on a normalized bandwidth."""
        return self.max_total_bandwidth / self.cores

    def outside(self, v: np.ndarray) -> np.ndarray:
        """The mask of the normalized bandwidths `v` outside [0, upper], to
        within SUM_TOL; a nan share is outside."""
        # a negated test, so that a nan share fails it
        return ~((v >= -SUM_TOL) & (v <= self.upper + SUM_TOL))

    def breach(self, bandwidths, ids: Sequence[str]) -> Optional[str]:
        """None when the normalized bandwidths lie in [0, upper] and sum to
        at most LIMIT; otherwise the first app outside the box (named from
        `ids`) with its value, else the sum."""
        v = np.asarray(bandwidths, dtype=float)
        for i in np.flatnonzero(self.outside(v)):
            return f"app {ids[i]} has {v[i]}, outside [0, {self.upper}]"
        if not (v.sum() <= LIMIT):
            return f"the sum is {v.sum()}, above 1"
        return None


def make_state(services, bandwidths) -> Tuple[np.ndarray, np.ndarray]:
    """A state, the (services, normalized bandwidths) pair, as float arrays;
    the bench replays it into adaptation.rm_step."""
    return (np.asarray(services, dtype=float),
            np.asarray(bandwidths, dtype=float))

"""Theory calculators: ODE oracle, stationary points, closed-form bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from .adaptation import project_bandwidth
from .core import (SUM_TOL, ApplicationSpec, PlatformSpec, SystemState,
                   fairness_vector, nominal_matching)
from .errors import ConfigurationError, ConvergenceError
from .simkernel import (VALUES, Trajectory, check_budget, compile_apps,
                        project_service)


@dataclass(frozen=True)
class TheoreticalBounds:
    """Derived constants used by the invariant checkers.

    L bounds the fairness signal, ell bounds the service observation,
    epsilon_star is the starvation guard on the step size, n_bar bounds how
    many manager updates one app interval may span.
    """
    L: float
    lambda_min: float
    epsilon_star: float
    ell: float
    n_bar: int


def _sup_matching(spec: ApplicationSpec, cores: int) -> float:
    """Upper bound on the matching signal over the app's reachable states."""
    m = spec.model
    if m.kind == "synthetic":
        low = m.a * spec.min_service + m.b
        return cores * m.deadline / low - 1.0
    return m.effective_beta * cores / spec.min_service - 1.0


def compute_bounds(specs: Sequence[ApplicationSpec], platform: PlatformSpec,
                   n_bar: int = 1) -> TheoreticalBounds:
    lam = np.array([a.weight for a in specs], dtype=float)
    if lam.size == 0:
        raise ConfigurationError("at least one application is required")
    L = max(1.0, float(np.max(lam.sum() - lam)))
    sup_f = max(_sup_matching(a, platform.cores) for a in specs)
    ell = max(1.0, max(0.0, sup_f) + 1.0)
    return TheoreticalBounds(
        L=L,
        lambda_min=float(lam.min()),
        epsilon_star=1.0 / ((L + 1.0) * platform.cores),
        ell=ell,
        n_bar=max(1, n_bar),
    )


def starvation_step_threshold(specs: Sequence[ApplicationSpec],
                              platform: PlatformSpec,
                              bounds: TheoreticalBounds) -> float:
    """Largest step size provably keeping every bandwidth above the step.

    Near the floor an app's own scarcity pushes it up by at least
    lam_min * step while the crowd drags it down by at most
    (max beta*cores/min_service + n) * (L+1) * step^2; the threshold makes
    the first term win.
    """
    n = len(specs)
    demand = max(max(0.0, _sup_matching(a, platform.cores)) + 1.0 for a in specs)
    return bounds.lambda_min / ((demand + n) * (bounds.L + 1.0))


def asymptotic_fair_share(weights: Sequence[float], cores: int = 1) -> np.ndarray:
    """Limit shares min(1/cores, weight / total weight)."""
    lam = np.array(weights, dtype=float)
    if lam.size == 0:
        raise ConfigurationError("weights must be non-empty")
    if np.any(lam <= 0.0) or np.any(lam > 1.0):
        raise ConfigurationError("weights must lie in (0, 1]")
    return np.minimum(1.0 / cores, lam / lam.sum())


@dataclass(frozen=True)
class StationaryPoint:
    services: np.ndarray
    bandwidths: np.ndarray
    residuals: np.ndarray
    capped: Set[int]


def _stationary_residuals(vbar: np.ndarray, specs, platform) -> np.ndarray:
    lam = np.array([a.weight for a in specs], dtype=float)
    phi = np.array([
        nominal_matching(a.model.effective_beta, a.min_service,
                         platform.cores * vbar[i])
        for i, a in enumerate(specs)
    ])
    return fairness_vector(phi, vbar, lam)


def solve_stationary_point(specs: Sequence[ApplicationSpec],
                           platform: PlatformSpec,
                           tol: float = 1e-12,
                           max_iters: int = 100000) -> StationaryPoint:
    """Find a stationary allocation at the service floor.

    Under high demand (beta / min_service < 1 for every app, so every
    matching stays scarce) the allocation solves the fixed-point map
    vbar_i = min(1/cores, weight_i * phi_i / sum_j weight_j * phi_j) by
    damped successive substitution. Otherwise a zero-matching allocation is
    returned when one is feasible.
    """
    kappa = platform.cores
    lam = np.array([a.weight for a in specs], dtype=float)
    beta = np.array([a.model.effective_beta for a in specs], dtype=float)
    floor = np.array([a.min_service for a in specs], dtype=float)
    if np.any(floor <= 0.0):
        raise ConfigurationError("stationary analysis requires min_service > 0")
    demanding = np.all(beta / floor < 1.0)
    cap = 1.0 / kappa

    if not demanding:
        # zero-matching allocation: beta * kappa * vbar / floor = 1
        v0 = floor / (beta * kappa)
        if np.all(v0 <= cap + SUM_TOL) and v0.sum() <= 1.0 + SUM_TOL:
            v0 = np.minimum(v0, cap)
            return StationaryPoint(floor.copy(), v0,
                                   _stationary_residuals(v0, specs, platform),
                                   set())
        raise ConfigurationError(
            "no stationary point available: apps are not uniformly demanding "
            "and no zero-matching allocation is feasible")

    def mapping(v: np.ndarray) -> np.ndarray:
        phi = beta * kappa * v / floor - 1.0
        denom = lam @ phi
        return np.minimum(cap, lam * phi / denom)

    v = np.minimum(cap, lam / lam.sum())
    damping = 1.0
    prev_delta = math.inf
    last = None
    for _ in range(max_iters):
        nxt = mapping(v)
        delta = float(np.max(np.abs(nxt - v)))
        if delta <= tol:
            v = nxt
            break
        # oscillation: successive substitution bouncing, halve the step
        if last is not None and delta > prev_delta:
            damping = 0.5
        v = v + damping * (nxt - v)
        last, prev_delta = nxt, delta
    else:
        raise ConvergenceError(
            f"stationary-point iteration did not reach tol {tol} "
            f"within {max_iters} iterations",
            last_iterate=v, residual=prev_delta)
    capped = set(int(i) for i in np.flatnonzero(v >= cap - SUM_TOL))
    return StationaryPoint(floor.copy(), v,
                           _stationary_residuals(v, specs, platform), capped)


@dataclass(frozen=True)
class BalanceThresholds:
    zeta: float
    gamma_star: float
    n1: int
    n2: int
    n_star: int


def balance_thresholds(zeta: float, specs: Sequence[ApplicationSpec],
                       platform: PlatformSpec,
                       bounds: TheoreticalBounds) -> BalanceThresholds:
    """Population sizes beyond which every bandwidth is driven into [0, zeta]."""
    if not (0.0 < zeta < 1.0):
        raise ConfigurationError("zeta must lie in (0, 1)")
    if any(a.min_service <= 0.0 for a in specs):
        raise ConfigurationError(
            "balance thresholds require min_service > 0 for every app")
    kappa = platform.cores
    gamma = max(a.model.effective_beta * kappa * zeta / a.min_service - 1.0
                for a in specs)
    if gamma >= 0.0:
        raise ConfigurationError(
            f"zeta {zeta} too large: the matching can leave the scarce regime "
            f"(gamma {gamma} >= 0)")
    eps_l = platform.step * bounds.L
    if zeta <= eps_l:
        raise ConfigurationError(
            f"zeta {zeta} must exceed step * L = {eps_l}")
    lam = bounds.lambda_min
    base = math.floor((1.0 - zeta) / zeta)
    n1 = math.ceil(base + (-2.0 + zeta) / (zeta * gamma * lam))
    n2 = math.ceil(1.0 + base + (-2.0 + zeta - eps_l) / ((zeta - eps_l) * gamma * lam))
    return BalanceThresholds(zeta, gamma, int(n1), int(n2), int(max(n1, n2)))


def equivalence_bound(step: float, ell: float,
                      n_bar: int) -> Tuple[float, float]:
    """Sup-deviation bounds between the async, fictitious-sync and true sync
    service paths: (step*ell*(3*n_bar - 1), step*n_bar*ell)."""
    if not (step > 0.0):
        raise ConfigurationError("step must be positive")
    return step * ell * (3 * n_bar - 1), step * n_bar * ell


def integrate_ode(initial: SystemState, specs: Sequence[ApplicationSpec],
                  platform: PlatformSpec, tau_step: float, horizon: float,
                  rm_period: Optional[float] = None) -> Trajectory:
    """Projected explicit Euler on the coupled field (service rate, fairness).

    The field is evaluated through the job model, so with tau_step equal to
    the recursion step each Euler step reproduces one (bandwidth update,
    service update) pair of the synchronous engine exactly. Projections onto
    the service domain and the bandwidth box realize the minimal correction
    term of the constrained dynamics.
    """
    if not (tau_step > 0.0):
        raise ConfigurationError("tau_step must be positive")
    period = rm_period if rm_period is not None else 1.0
    steps = int(round(horizon / period)) + 1
    check_budget(steps, len(specs))
    c = compile_apps(specs, platform, "sync")
    c1, c0, d0, d1 = c.job
    kappa = platform.cores
    s = initial.services.copy()
    v = initial.bandwidths.copy()
    rec = np.empty((steps, len(VALUES), len(specs)))
    # a synthetic app floored at s = 0 divides 0 by 0 in the unselected branch
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(steps):
            D = np.where(d1 > 0.0, d1 / s, d0)
            if k == 0:
                # same neutral first step as the discrete engine
                R = D.copy()
                phi = np.zeros(len(specs))
            else:
                C = c1 * s + c0
                vu = kappa * v
                R = np.where(vu > 0.0, C / np.where(vu > 0.0, vu, 1.0),
                             math.inf)
                phi = np.where(np.isfinite(R), D / R - 1.0, -1.0)
            Phi = fairness_vector(phi, v, c.lam)
            rec[k] = (s, v, D, R, phi, Phi)
            if k == steps - 1:
                break
            v = project_bandwidth(v + tau_step * Phi, c.upper)[0]
            s = project_service(c, s + tau_step * phi)
    return Trajectory.from_records(
        [(np.arange(steps) * period, [a.id for a in specs], rec)])

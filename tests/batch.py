"""Vectorized multi-scenario runs for the bulk property suites.

Runs S synchronous single-core multimedia scenarios side by side as (S, n)
arrays through the library's kernel_step, so each row is bit-identical to
fairband.run_scenario on that scenario, and collects statistics over every
step. Inactive padding slots carry zero weight and zero bandwidth; their
bandwidth stays 0 and they add nothing to the fairness sums.
"""

from dataclasses import dataclass

import numpy as np

from fairband import Coefficients, kernel_step


@dataclass
class BatchResult:
    bandwidths: np.ndarray        # (S, n) final
    services: np.ndarray          # (S, n) final
    min_bandwidth: np.ndarray     # (S,) over active slots, all steps (post-start)
    max_sum: np.ndarray           # (S,) max bandwidth sum over all steps
    max_box_violation: float      # how far any bandwidth left [0, upper]
    sum_identity_error: float     # worst error of the sum identity, projection-free steps
    contained_from: np.ndarray    # (S,) step from which all bandwidths stayed <= zeta
    ever_left: np.ndarray         # (S,) True if some bandwidth re-crossed zeta after containment


def run_batch(alpha, deadline, lam, s0, v0, s_floor, eps, steps,
              active=None, upper=1.0, zeta=None):
    """Advance all scenarios `steps` times.

    alpha, deadline, lam, s0, v0, s_floor: (S, n) arrays (multimedia model,
    execution time alpha * s, fixed deadline). eps: (S, 1) or scalar step
    sizes. active: boolean (S, n) mask of real apps.
    """
    alpha = np.asarray(alpha, float)
    S, n = alpha.shape
    lam = np.asarray(lam, float)
    s = np.asarray(s0, float)
    v = np.asarray(v0, float)
    eps = np.broadcast_to(np.asarray(eps, float), (S, 1)) if np.ndim(eps) else \
        np.full((S, 1), float(eps))
    if active is None:
        active = np.ones((S, n), bool)
    coef = Coefficients(job=(alpha, 0.0, np.asarray(deadline, float), 0.0),
                        lam=lam, lo=np.asarray(s_floor, float), hi=np.inf,
                        cadence=1, gain=1.0, eps=eps, kappa=1, upper=upper)

    min_v = np.full(S, np.inf)
    max_sum = np.full(S, -np.inf)
    box_viol = 0.0
    ident_err = 0.0
    contained = np.full(S, -1)
    left = np.zeros(S, bool)
    big = np.where(active, 0.0, np.inf)  # padding never counts toward minima

    sums = v.sum(axis=1)
    for k in range(steps):
        r = kernel_step(coef, s, v, k)
        new_sums = r.bandwidths.sum(axis=1)
        # one-core accounting on steps the projection left alone:
        # (sum - 1) contracts by (1 + eps * sum lam*min(f, 0))
        drift = (sums - 1.0) * (1.0 + eps[:, 0] * (
            lam * np.minimum(r.matching, 0.0)).sum(axis=1))
        err = np.abs(new_sums - 1.0 - drift)
        ident_err = max(ident_err, float(err.max(
            where=~r.clipped.any(axis=1), initial=0.0)))
        s, v, sums = r.services, r.bandwidths, new_sums

        min_v = np.minimum(min_v, (v + big).min(axis=1))
        max_sum = np.maximum(max_sum, sums)
        box_viol = max(box_viol,
                       float(np.max(np.maximum(v - upper, -v), initial=0.0)))
        if zeta is not None:
            inside = np.all(np.where(active, v, 0.0) <= zeta, axis=1)
            newly = inside & (contained < 0)
            contained[newly] = k
            left |= (~inside) & (contained >= 0)

    return BatchResult(v, s, min_v, max_sum, box_viol, ident_err,
                       contained, left)

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
from fairband.simkernel import QUIET, VALUES

# instants per record: the kernel steps through one, then the statistics
# reduce it whole. A short record stays in cache while the kernel writes it;
# at (200, 8) one of 64 instants ran slower than two alternating rows.
CHUNK = 16


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

    # the kernel steps through a record of CHUNK instants, as run_scenario
    # steps through an epoch's: it reads the state entering instant i from
    # rec[i, 0:2] and writes the state leaving it into rec[i + 1, 0:2]. Each
    # chunk's statistics are then taken in whole-array operations.
    rec = np.empty((CHUNK + 1, len(VALUES), S, n))
    rec[0, 0], rec[0, 1] = s, v
    cold = True  # every app starts cold
    with np.errstate(**QUIET):
        for k0 in range(0, steps, CHUNK):
            m = min(CHUNK, steps - k0)
            for i in range(m):
                kernel_step(coef, rec[i], rec[i + 1], idle=False, cold=cold)
                cold = None
            # the bandwidth sums entering each instant and leaving the last
            sums = rec[:m + 1, 1].sum(axis=-1)
            v = rec[1:m + 1, 1]
            # the apps the projection moved: the bandwidths left each
            # instant against the raw step v + eps * F, the same bits as
            # the kernel's
            moved = v != rec[:m, 1] + eps * rec[:m, 5]
            # one-core accounting on steps the projection left alone:
            # (sum - 1) contracts by (1 + eps * sum lam*min(f, 0))
            drift = (sums[:-1] - 1.0) * (1.0 + eps[:, 0] * (
                lam * np.minimum(rec[:m, 4], 0.0)).sum(axis=-1))
            err = np.abs(sums[1:] - 1.0 - drift)
            # a nan bandwidth counts as moved by the projection (nan !=
            # nan), but its nan error is kept, not passed over
            ident_err = _fold(ident_err, err.max(
                axis=-1, where=~moved.any(axis=-1) | np.isnan(err),
                initial=0.0))

            min_v = np.minimum(min_v, (v + big).min(axis=(0, 2)))
            max_sum = np.maximum(max_sum, sums[1:].max(axis=0))
            box_viol = _fold(box_viol, np.maximum(v - upper, -v).max(
                axis=(1, 2), initial=0.0))
            if zeta is not None:
                inside = np.all(np.where(active, v, 0.0) <= zeta, axis=-1)
                # the first instant of the chunk each scenario is inside
                first = np.where(inside.any(axis=0), inside.argmax(axis=0), m)
                newly = (contained < 0) & (first < m)
                contained[newly] = k0 + first[newly]
                since = (contained >= 0) & (
                    np.arange(k0, k0 + m)[:, None] >= contained)
                left |= (~inside & since).any(axis=0)
            rec[0, :2] = rec[m, :2]

    return BatchResult(rec[0, 1], rec[0, 0], min_v, max_sum, box_viol,
                       ident_err, contained, left)


def _fold(acc: float, per_step: np.ndarray) -> float:
    """max(acc, x) over the per-step maxima x; a nan, once met, is kept, so
    a step whose state is nan fails every check on the statistic."""
    return float(np.maximum.reduce(per_step, initial=acc))

"""Wall times rescaled to a fixed machine speed.

On a shared host the CPU alternates between fast and slow phases that last
from about one to tens of seconds; the same call can take 1.7 times longer
in a slow phase, and a whole run can land in one. Raw wall times then
spread across runs far more than any useful regression bound.

``measure`` brackets the measured call with a short, fixed reference that
does not touch fairband and rescales the call's wall time by
REF_SECONDS / (mean reference time). A phase that slows both the call and
the reference cancels out; a change to fairband moves only the call.
README.md gives the spreads with and without rescaling.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Callable, Tuple

import numpy as np

# reference time that rescaled seconds are expressed at; the reference took
# about this long in the fast phase of the 2-core host the baseline was taken
# on, so rescaled and raw seconds agree there
REF_SECONDS = 0.002
REF_ITERATIONS = 10000
REF_OBJECTS = 20000


def _step(x: float) -> float:
    return x * 1.0000001 + 0.5


@functools.lru_cache(maxsize=1)
def _objects() -> np.ndarray:
    # distinct string objects, as the CSV reader makes one per row
    return np.array([str(i % 300) + "x" for i in range(REF_OBJECTS)],
                    dtype=object)


def reference() -> float:
    """Seconds for one pass of the reference: the work fairband does, in
    small. Python calls, float arithmetic and %.17g formatting feel the
    clock; element-wise comparison over scattered objects, as in
    Trajectory.per_app, also feels contention for the shared cache."""
    objects = _objects()
    t0 = perf_counter()
    for _ in range(3):
        objects == "7x"
    x = 0.0
    for i in range(REF_ITERATIONS):
        x = _step(x)
        if i % 8 == 0:
            "%.17g" % x
    return perf_counter() - t0


def measure(fn: Callable, *args) -> Tuple[object, float, float]:
    """Call fn(*args); returns (result, wall seconds, rescaled seconds)."""
    before = reference()
    t0 = perf_counter()
    result = fn(*args)
    wall = perf_counter() - t0
    after = reference()
    return result, wall, wall * 2.0 * REF_SECONDS / (before + after)

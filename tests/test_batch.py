"""The batch stepper's statistics, on inputs the acceptance suites do not
reach."""

import numpy as np

from batch import run_batch
from fairband import adaptation


def test_a_nan_state_fails_both_statistics():
    # one nan bandwidth: every later step is nan, and neither the box
    # violation nor the sum identity may read as a clean 0.0
    ones = np.ones((1, 3))
    res = run_batch(100.0 * ones, 100.0 * ones, ones, ones,
                    [[0.2, np.nan, 0.2]], ones, 0.01, 50)
    assert np.isnan(res.max_box_violation)
    assert np.isnan(res.sum_identity_error)


def test_the_identity_skips_the_steps_the_projection_moved(monkeypatch):
    # scenario 0 steps so far (eps = 1) that some raw share leaves [0, 0.8]
    # on every step past the cold start, and the clip leaves an excess on
    # most; scenario 1 never leaves the box. The sum identity holds only on
    # the steps the projection left alone, which the stepper derives from
    # its record as v != raw
    removals = []
    remove = adaptation._remove_excess
    monkeypatch.setattr(adaptation, "_remove_excess",
                        lambda *args: removals.append(1) or remove(*args))
    ones = np.ones((2, 3))
    res = run_batch([[50.0, 400.0, 400.0], [400.0, 50.0, 50.0]],
                    100.0 * ones, [[1.0, 1.0, 1.0], [1.0, 0.2, 0.2]], ones,
                    [[0.5, 0.3, 0.2], [0.45, 0.3, 0.2]], ones,
                    [[1.0], [0.05]], 64, upper=0.8)
    assert removals and res.min_bandwidth[0] == 0.0
    assert res.sum_identity_error <= 1e-12

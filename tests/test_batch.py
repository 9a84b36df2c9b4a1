"""The batch stepper's statistics, on inputs the acceptance suites do not
reach."""

import numpy as np

from batch import run_batch


def test_a_nan_state_fails_both_statistics():
    # one nan bandwidth: every later step is nan, and neither the box
    # violation nor the sum identity may read as a clean 0.0
    ones = np.ones((1, 3))
    res = run_batch(100.0 * ones, 100.0 * ones, ones, ones,
                    [[0.2, np.nan, 0.2]], ones, 0.01, 50)
    assert np.isnan(res.max_box_violation)
    assert np.isnan(res.sum_identity_error)

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from fairband import (ApplicationSpec, Coefficients, ConfigurationError,
                      InvariantViolation, JobModel, PlatformSpec, compile_apps,
                      fairness_vector, kernel_step, make_state, rm_step)
from fairband.adaptation import project_bandwidth
from fairband.core import SUM_TOL
from fairband.simkernel import QUIET, VALUES


def _specs(weights):
    model = JobModel(kind="multimedia", alpha=1.0, deadline=1.0)
    return [ApplicationSpec(id=f"a{i}", weight=w, min_service=1.0,
                            initial_service=1.0, model=model)
            for i, w in enumerate(weights)]


class TestObservedFairness:
    def test_hand_evaluated(self):
        # lam=(1,1), v=(0.4,0.4), f=(-0.5,0)
        F = fairness_vector([-0.5, 0], [0.4, 0.4], [1, 1])
        assert F == pytest.approx([0.3, -0.2], abs=1e-15)

    def test_all_abundant_vanishes(self):
        F = fairness_vector([0.1, 0.0, 2.0], [0.2, 0.3, 0.1], [0.5, 1.0, 0.9])
        assert not F.any()

    def test_magnitude_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(2, 9)
            lam = rng.uniform(0.01, 1.0, n)
            v = rng.uniform(0, 1.0 / n, n)
            f = rng.uniform(-1.0, 2.0, n)
            bound = max(1.0, float(np.max(lam.sum() - lam)))
            assert np.all(np.abs(fairness_vector(f, v, lam)) <= bound + 1e-12)


class TestRmStep:
    def test_hand_evaluated_step(self):
        specs = _specs([1.0, 1.0])
        platform = PlatformSpec(cores=1, step=0.1)
        res = rm_step(make_state([1, 1], [0.4, 0.4]), [-0.5, 0], specs, platform)
        assert res.new_bandwidths == pytest.approx([0.43, 0.38], abs=1e-15)
        assert res.observed_fairness == pytest.approx([0.3, -0.2], abs=1e-15)
        assert res.new_bandwidths.sum() <= 1.0
        assert res.projections_hit == set()

    def test_zero_matchings_fixed_point(self):
        specs = _specs([0.8, 0.4])
        res = rm_step(make_state([1, 1], [0.3, 0.5]), [0, 0], specs,
                      PlatformSpec(step=0.1))
        assert np.array_equal(res.new_bandwidths, [0.3, 0.5])

    def test_upper_projection_recorded(self):
        specs = _specs([1.0, 1.0])
        platform = PlatformSpec(cores=1, step=2.0)
        # app 0 scarce and weighted: big positive push, clipped at 1/cores
        res = rm_step(make_state([1, 1], [0.5, 0.1]), [-1.0, 0], specs, platform)
        assert 0 in res.projections_hit
        assert res.new_bandwidths[0] <= 1.0

    def test_lower_projection_recorded(self):
        specs = _specs([1.0, 1.0])
        platform = PlatformSpec(cores=1, step=2.0)
        res = rm_step(make_state([1, 1], [0.5, 0.4]), [0, -1.0], specs, platform)
        assert 0 in res.projections_hit
        assert res.new_bandwidths[0] == 0.0

    def test_cap_bounds_each_app(self):
        specs = _specs([1.0, 1.0])
        platform = PlatformSpec(cores=1, step=2.0, max_total_bandwidth=0.9)
        res = rm_step(make_state([1, 1], [0.5, 0.1]), [-1.0, 0], specs, platform)
        assert res.new_bandwidths.max() <= 0.9

    def test_infeasible_input_rejected(self):
        specs = _specs([1.0, 1.0, 1.0])
        bad = make_state([1, 1, 1], [0.5, 0.4, 0.3])
        with pytest.raises(InvariantViolation):
            rm_step(bad, [0, 0, 0], specs, PlatformSpec(step=0.1))

    def test_monotone_response(self):
        # deficiency raises the allocation, excess lowers it (absent clipping)
        specs = _specs([1.0, 1.0])
        res = rm_step(make_state([1, 1], [0.2, 0.4]), [-0.8, -0.1], specs,
                      PlatformSpec(step=0.01))
        F = res.observed_fairness
        assert F[0] > 0 and res.new_bandwidths[0] > 0.2
        assert F[1] < 0 and res.new_bandwidths[1] < 0.4

    def test_sum_identity_on_projection_free_steps(self):
        # one-core accounting: (sum - 1) contracts by (1 + eps * sum lam*min(f,0))
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            lam = rng.uniform(0.1, 1.0, n)
            v = rng.uniform(0.02, 0.9 / n, n)
            f = rng.uniform(-1.0, 1.0, n)
            specs = _specs(lam)
            eps = 0.05
            res = rm_step(make_state(np.ones(n), v), f, specs,
                          PlatformSpec(step=eps))
            if res.projections_hit:
                continue
            lhs = res.new_bandwidths.sum() - 1.0
            rhs = (v.sum() - 1.0) * (1.0 + eps * float(lam @ np.minimum(f, 0.0)))
            assert abs(lhs - rhs) <= 1e-12


class TestProjectBandwidth:
    @given(hnp.arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 8)),
                      elements=st.floats(-0.5, 1.5)),
           st.floats(0.05, 1.0))
    # the first row sums to 1.4 after the clip, so it has excess removed
    @example(np.array([[0.9, 0.6, -0.1], [0.2, 0.3, 0.1]]), 0.8)
    def test_feasible_and_batched_equals_rows(self, raw, upper):
        v, clipped, total = project_bandwidth(raw, upper)
        assert np.all((v >= 0.0) & (v <= upper))
        assert np.all(v.sum(axis=-1) <= 1.0 + SUM_TOL)
        assert np.array_equal(clipped, v != raw)
        box = np.minimum(np.maximum(raw, 0.0), upper)
        assert np.array_equal(total, box.sum(axis=-1))
        # rows within the sum limit are the clip alone
        within = total <= 1.0 + SUM_TOL
        assert np.array_equal(v[within], box[within])
        for row in range(len(raw)):
            v1, clipped1, total1 = project_bandwidth(raw[row], upper)
            assert np.array_equal(v1, v[row])
            assert np.array_equal(clipped1, clipped[row])
            assert total1 == total[row]


def _service(s, f, eps, lo, hi=np.inf, cadence=1):
    """One app's compensated service step, due at this instant, through
    kernel_step: at v = 1 the job C = 1 has response 1, so the deadline
    1 + f gives the matching f exactly."""
    coef = Coefficients(job=(0.0, 1.0, 1.0 + f, 0.0), lam=1.0, lo=lo, hi=hi,
                        cadence=cadence, gain=float(cadence), eps=eps,
                        kappa=1, upper=1.0)
    rows = np.zeros((2, len(VALUES), 1))
    rows[0, 0], rows[0, 1] = s, 1.0
    with np.errstate(**QUIET):
        kernel_step(coef, rows[0], rows[1], idle=False)
    assert rows[0, 4, 0] == f
    return float(rows[1, 0, 0])


class TestAppSteps:
    def test_sync_hand_evaluated(self):
        assert _service(10, -0.5, 0.03, 0.1) == pytest.approx(9.985, abs=1e-15)

    def test_sync_clip_at_floor(self):
        assert _service(10, -0.5, 0.03, 10) == 10

    def test_sync_zero_observation(self):
        assert _service(10, 0, 0.7, 0, 20) == 10

    def test_async_hand_evaluated(self):
        # 10 + 0.03 * 10 * (-0.5) = 9.85
        assert _service(10, -0.5, 0.03, 0, 20, cadence=10) == \
            pytest.approx(9.85, abs=1e-15)

    def test_async_clip(self):
        assert _service(10, -0.5, 0.3, 9, 20, cadence=10) == 9

    def test_async_upper_clip(self):
        assert _service(10, 1.0, 0.3, 0, 12, cadence=10) == 12

    def test_async_n1_equals_sync(self):
        # update_jobs 1 compiles to the same cadence and gain in every mode
        spec = _specs([0.5])[0]
        sync = compile_apps([spec], PlatformSpec(), "sync")
        for mode in ("async_compensated", "async_uncompensated"):
            coef = compile_apps([spec], PlatformSpec(), mode)
            assert coef.cadence == sync.cadence and coef.gain == sync.gain

    def test_async_rejects_bad_count(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(_specs([0.5])[0], update_jobs=0)

    def test_idle_mask_is_keyword_only(self):
        # the argument was once the due mask, its inverse; a positional call
        # must fail rather than update no app
        coef = Coefficients(job=(1.0, 0.0, 1.0, 0.0), lam=1.0, lo=0.0,
                            hi=np.inf, cadence=1, gain=None, eps=0.1,
                            kappa=1, upper=1.0)
        rows = np.ones((2, len(VALUES), 1))
        with pytest.raises(TypeError):
            kernel_step(coef, rows[0], rows[1], True)

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairband import (ApplicationSpec, ConfigurationError, JobModel,
                      PlatformSpec, classify_matching, fairness_vector,
                      is_fair_allocation, is_feasible, make_state,
                      measure_job, nominal_matching)


class TestMatchingFromMeasurement:
    # a multimedia job at unit service and bandwidth: R = C = alpha
    def _matching(self, deadline, response):
        model = JobModel(kind="multimedia", alpha=response, deadline=deadline)
        return measure_job(model, 1.0, 1.0)[2]

    def test_perfect(self):
        assert self._matching(10, 10) == 0

    def test_scarce(self):
        assert self._matching(1, 2) == -0.5

    def test_abundant(self):
        assert self._matching(3, 2) == 0.5

    @given(st.floats(min_value=1e-9, max_value=1e9),
           st.floats(min_value=1e-9, max_value=1e9),
           st.floats(min_value=0, max_value=1))
    def test_lower_bound(self, d, r, v):
        model = JobModel(kind="multimedia", alpha=r, deadline=d)
        assert measure_job(model, 1.0, v)[2] >= -1.0


class TestNominalMatching:
    def test_half_scarce(self):
        assert nominal_matching(2, 4, 1) == -0.5

    def test_zero_resources(self):
        assert nominal_matching(2, 4, 0) == -1

    def test_perfect_point(self):
        assert nominal_matching(1, 1, 1) == 0

    def test_rejects_non_positive_service(self):
        with pytest.raises(ConfigurationError):
            nominal_matching(2, 0, 1)

    @given(st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=0, max_value=1))
    def test_monotone_in_service_and_bandwidth(self, beta, s, s2, v):
        # more demanded computation can only worsen the matching
        lo, hi = sorted((s, s2))
        assert nominal_matching(beta, hi, v) <= nominal_matching(beta, lo, v)
        # more resources can only improve it
        assert nominal_matching(beta, s, v) >= nominal_matching(beta, s, v * 0.5)


class TestClassifyMatching:
    def test_bands(self):
        assert classify_matching(0, 0.05) == "perfect"
        assert classify_matching(-0.2, 0.05) == "scarce"
        assert classify_matching(0.2, 0.05) == "abundant"

    def test_band_edges(self):
        assert classify_matching(0.05, 0.05) == "perfect"
        assert classify_matching(-0.05, 0.05) == "perfect"

    def test_rejects_bad_delta(self):
        with pytest.raises(ConfigurationError):
            classify_matching(0, 0)


class TestFairnessMeasure:
    def test_symmetric_pair_is_fair(self):
        assert list(fairness_vector([-0.5, -0.5], [0.5, 0.5], [1, 1])) == [0, 0]

    def test_hand_evaluated_pair(self):
        F = fairness_vector([0, -1], [0.8, 0.2], [1, 1])
        assert F == pytest.approx([-0.8, 0.8], abs=1e-15)

    def test_zero_bandwidth_scarce_app_is_pushed_up(self):
        # starving app with a scarce matching: strictly positive measure
        assert fairness_vector([-0.7, -0.2], [0.0, 0.5], [0.4, 0.9])[0] > 0

    def test_balanced_ratio_gives_zero(self):
        # with all matchings scarce, the measure vanishes exactly when
        # v/(1-v) matches the weighted scarcity ratio
        lam = np.array([0.7, 0.3, 0.9])
        phi = np.array([-0.4, -0.8, -0.1])
        w = lam * (-phi)
        v = w / w.sum()
        res = fairness_vector(phi, v, lam)
        assert np.max(np.abs(res)) < 1e-12

    def test_all_abundant_is_fair_for_any_split(self):
        for v in ([0.1, 0.9], [0.5, 0.5], [0.0, 1.0]):
            assert not fairness_vector([0.3, 0.1], v, [1, 0.5]).any()


class TestFeasibility:
    def test_boundary_sum(self):
        assert is_feasible([0.5, 0.5], 1)

    def test_sum_exceeds_cores(self):
        assert not is_feasible([0.6, 0.6], 1)

    def test_per_core_cap(self):
        assert is_feasible([1.0, 1.0], 2)

    def test_negative_rejected(self):
        assert not is_feasible([-0.1, 0.5], 1)


class TestIsFairAllocation:
    def _specs(self, weights, beta=1.0, floor=1.0):
        return [ApplicationSpec(id=f"a{i}", weight=w, min_service=floor,
                                initial_service=floor,
                                model=JobModel(kind="multimedia", alpha=1.0,
                                               deadline=beta))
                for i, w in enumerate(weights)]

    def test_symmetric_state(self):
        specs = self._specs([1.0, 1.0], beta=0.5)
        state = make_state([1.0, 1.0], [0.5, 0.5])
        assert is_fair_allocation(state, specs, PlatformSpec(), 1e-9)

    def test_lopsided_state(self):
        specs = self._specs([1.0, 1.0], beta=0.5)
        state = make_state([1.0, 1.0], [0.9, 0.1])
        assert not is_fair_allocation(state, specs, PlatformSpec(), 1e-6)

    def test_all_abundant_always_fair(self):
        specs = self._specs([0.9, 0.3], beta=10.0)
        state = make_state([1.0, 1.0], [0.4, 0.3])
        assert is_fair_allocation(state, specs, PlatformSpec(), 1e-12)


class TestTypes:
    def test_state_accounting_enforced(self):
        from fairband.core import SystemState
        with pytest.raises(ConfigurationError):
            SystemState(np.array([1.0]), np.array([0.4]), 0.7)

    def test_make_state_balances(self):
        st_ = make_state([1.0, 2.0], [0.3, 0.3])
        assert st_.unused == pytest.approx(0.4, abs=1e-15)

    def test_job_model_validation(self):
        with pytest.raises(ConfigurationError):
            JobModel(kind="mystery")
        with pytest.raises(ConfigurationError):
            JobModel(kind="multimedia", alpha=0.0, deadline=1.0)
        with pytest.raises(ConfigurationError):
            JobModel(kind="control", alpha=1.0)  # beta required
        with pytest.raises(ConfigurationError):
            JobModel(kind="synthetic", a=0.0, b=0.0, deadline=1.0)

    def test_effective_beta(self):
        assert JobModel(kind="multimedia", alpha=4.0, deadline=2.0).effective_beta == 0.5
        assert JobModel(kind="synthetic", a=20.0, b=200.0, deadline=1000.0).effective_beta == 50.0
        assert JobModel(kind="control", alpha=100.0, beta=20.0).effective_beta == 20.0

    def test_application_spec_validation(self):
        model = JobModel(kind="multimedia", alpha=1.0, deadline=1.0)
        with pytest.raises(ConfigurationError):
            ApplicationSpec(id="x", weight=0.0, min_service=1.0,
                            initial_service=1.0, model=model)
        with pytest.raises(ConfigurationError):
            ApplicationSpec(id="x", weight=0.5, min_service=1.0,
                            initial_service=0.5, model=model)
        with pytest.raises(ConfigurationError):
            ApplicationSpec(id="x", weight=0.5, min_service=0.0,
                            initial_service=1.0, model=model)
        # a zero floor is fine when the execution time stays positive there
        synth = JobModel(kind="synthetic", a=20.0, b=200.0, deadline=1000.0)
        ApplicationSpec(id="x", weight=0.5, min_service=0.0,
                        initial_service=1.0, model=synth)

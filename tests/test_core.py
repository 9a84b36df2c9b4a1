from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fairband import (ApplicationSpec, ConfigurationError, JobModel,
                      PlatformSpec, fairness_vector, make_state, measure_job)


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

    # the paper's two sums, evaluated exactly in rationals from the float
    # inputs; the float result may differ by its rounding, at most about
    # (n/2 + 3) eps * sum|w| for n <= 8 apps, under the 8 eps * sum|w| here,
    # plus a subnormal step per operation where a product underflows
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda n: st.sampled_from(
        [(n,), (1, n), (3, n)])).flatmap(lambda shape: st.tuples(*(
            arrays(float, shape, elements=el) for el in (
                st.sampled_from([-1.0, 0.0, -0.0]) | st.floats(-1.0, 4.0),
                st.floats(0.0, 1.0), st.floats(0.0, 1.0))))))
    def test_matches_the_two_sum_form(self, args):
        phi, v, lam = args
        out = np.empty(phi.shape)
        assert fairness_vector(phi, v, lam, out=out) is out
        rows = (int(np.prod(phi.shape[:-1])), phi.shape[-1])
        w = [[Fraction(x) * min(Fraction(p), 0) for x, p in zip(*row)]
             for row in zip(lam.reshape(rows), phi.reshape(rows))]
        for got, wr, vr in zip(out.reshape(rows), w, v.reshape(rows)):
            bound = 8 * (Fraction(np.finfo(float).eps) * sum(map(abs, wr))
                         + Fraction(np.finfo(float).smallest_subnormal))
            for i, (g, vi) in enumerate(zip(got.tolist(), vr.tolist())):
                vi = Fraction(vi)
                exact = -(1 - vi) * wr[i] + vi * sum(wr[:i] + wr[i + 1:])
                assert abs(Fraction(g) - exact) <= bound


class TestFeasibility:
    # PlatformSpec.breach on normalized bandwidths of apps "a" and "b"
    def _breach(self, v, **platform):
        return PlatformSpec(**platform).breach(v, ["a", "b"])

    def test_boundary_sum(self):
        assert self._breach([0.5, 0.5], cores=1) is None

    def test_sum_exceeds_cores(self):
        assert self._breach([0.6, 0.6], cores=1) == "the sum is 1.2, above 1"

    def test_per_core_cap(self):
        assert self._breach([0.5, 0.5], cores=2) is None

    def test_negative_rejected(self):
        assert self._breach([-0.1, 0.5], cores=1) \
            == "app a has -0.1, outside [0, 1.0]"

    def test_above_cap_rejected(self):
        assert PlatformSpec(max_total_bandwidth=0.5).upper == 0.5
        assert self._breach([0.3, 0.6], max_total_bandwidth=0.5) \
            == "app b has 0.6, outside [0, 0.5]"


    def test_nan_rejected(self):
        # a nan share fails the box test, as it fails every comparison
        assert self._breach([np.nan, 0.1]) == "app a has nan, outside [0, 1.0]"


class TestTypes:
    def test_make_state_balances(self):
        s, v = make_state([1, 2], [0.3, 0.3])
        assert s.dtype == v.dtype == np.float64
        assert s.tolist() == [1.0, 2.0] and v.tolist() == [0.3, 0.3]

    def test_platform_cores_range(self):
        # the per-app cap max_total_bandwidth / cores needs cores as a float
        assert PlatformSpec(cores=2).cores == 2
        for cores in (0, 10**400):
            with pytest.raises(ConfigurationError, match="cores must be in"):
                PlatformSpec(cores=cores)

    def test_job_model_validation(self):
        with pytest.raises(ConfigurationError):
            JobModel(kind="mystery")
        with pytest.raises(ConfigurationError):
            JobModel(kind="multimedia", alpha=0.0, deadline=1.0)
        with pytest.raises(ConfigurationError):
            JobModel(kind="control", alpha=1.0)  # beta required
        with pytest.raises(ConfigurationError):
            JobModel(kind="synthetic", a=0.0, b=0.0, deadline=1.0)

    # a given beta must be positive on every kind; a nan fails the test too
    @pytest.mark.parametrize("beta", [-2.0, 0.0, np.nan])
    @pytest.mark.parametrize("kind, coefficients", [
        ("synthetic", dict(a=20.0, b=200.0, deadline=1000.0)),
        ("multimedia", dict(alpha=200.0, deadline=1000.0)),
        ("control", dict(alpha=200.0)),
    ], ids=["synthetic", "multimedia", "control"])
    def test_beta_must_be_positive(self, kind, coefficients, beta):
        with pytest.raises(ConfigurationError,
                           match=f"{kind} model requires .*beta > 0"):
            JobModel(kind=kind, beta=beta, **coefficients)

    # an infinite coefficient passes the "> 0" tests above
    @pytest.mark.parametrize("kind, coefficients", [
        ("synthetic", dict(a=20.0, b=200.0, deadline=1000.0, beta=1.0)),
        ("multimedia", dict(alpha=200.0, deadline=1000.0, beta=1.0)),
        ("control", dict(alpha=200.0, beta=1.0)),
    ], ids=["synthetic", "multimedia", "control"])
    def test_coefficients_must_be_finite(self, kind, coefficients):
        for key in coefficients:
            with pytest.raises(ConfigurationError,
                               match=f"{kind} model requires a finite {key}"):
                JobModel(kind=kind, **dict(coefficients, **{key: np.inf}))

    # a quotient of two finite coefficients may overflow or round to 0
    @pytest.mark.parametrize("kind, coefficients, quotient", [
        ("multimedia", dict(alpha=1e-10, deadline=1e300), "deadline/alpha"),
        ("multimedia", dict(alpha=1e300, deadline=1e-300), "deadline/alpha"),
        ("synthetic", dict(a=1e-10, b=1.0, deadline=1e300), "deadline/a"),
        ("control", dict(alpha=200.0, beta=1e-307), "alpha/beta"),
        ("control", dict(alpha=1e-300, beta=1e300), "alpha/beta"),
    ], ids=["multimedia-overflow", "multimedia-underflow",
            "synthetic-overflow", "control-overflow", "control-underflow"])
    def test_derived_coefficients_must_be_finite(self, kind, coefficients,
                                                 quotient):
        with pytest.raises(ConfigurationError, match=f"{kind} model requires "
                           f"a finite, nonzero {quotient}"):
            JobModel(kind=kind, **coefficients)

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

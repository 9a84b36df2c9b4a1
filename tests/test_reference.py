import math

import numpy as np
import pytest

from fairband import (ApplicationSpec, ConfigurationError, JobModel,
                      PlatformSpec, asymptotic_fair_share, balance_thresholds,
                      compute_bounds, equivalence_bound, integrate_ode, make_state,
                      solve_stationary_point, starvation_step_threshold)


def _demanding(weights, ratio=0.8, floor=1.0):
    """Apps whose matching stays scarce at any allocation (beta/floor < 1)."""
    return [ApplicationSpec(id=f"a{i}", weight=w, min_service=floor,
                            initial_service=floor,
                            model=JobModel(kind="multimedia",
                                           alpha=floor * 1000.0 / (ratio * floor),
                                           deadline=1000.0))
            for i, w in enumerate(weights)]


class TestBounds:
    def test_guard_values(self):
        specs = _demanding([0.5, 0.5])  # L = 1
        assert compute_bounds(specs, PlatformSpec(cores=1)).epsilon_star == 0.5
        assert compute_bounds(specs, PlatformSpec(cores=4)).epsilon_star == 0.125

    def test_guard_shrinks_with_L(self):
        prev = math.inf
        for L in (1, 2, 5, 20):
            b = compute_bounds(_demanding([1.0] * (L + 1)), PlatformSpec())
            assert b.L == L and b.epsilon_star < prev
            prev = b.epsilon_star

    def test_compute_bounds(self):
        specs = _demanding([0.1, 0.5, 0.8])
        b = compute_bounds(specs, PlatformSpec())
        assert b.L == pytest.approx(1.3)
        assert b.lambda_min == 0.1
        assert b.epsilon_star == pytest.approx(1.0 / 2.3)
        assert b.ell == 1.0  # matchings stay in [-1, 0): observation bound 1

    def test_starvation_threshold_below_guard(self):
        specs = _demanding([0.3, 0.9, 0.6])
        platform = PlatformSpec()
        b = compute_bounds(specs, platform)
        thr = starvation_step_threshold(specs, platform, b)
        assert 0 < thr < b.epsilon_star


class TestFairShares:
    def test_three_weights(self):
        shares = asymptotic_fair_share([0.1, 0.5, 0.8], 1)
        assert shares == pytest.approx([1 / 14, 5 / 14, 8 / 14], abs=1e-15)

    def test_five_weights_ordered(self):
        shares = asymptotic_fair_share([0.9, 0.7, 0.5, 0.3, 0.1], 1)
        assert shares.sum() == pytest.approx(1.0)
        assert all(shares[i] > shares[i + 1] for i in range(4))

    def test_core_cap_branch(self):
        shares = asymptotic_fair_share([0.9, 0.1], 4)
        assert shares[0] == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            asymptotic_fair_share([], 1)


class TestStationaryPoint:
    def test_identical_apps_split_evenly(self):
        for n in (2, 3, 5):
            specs = _demanding([0.7] * n)
            point = solve_stationary_point(specs, PlatformSpec())
            assert point.bandwidths == pytest.approx([1.0 / n] * n, abs=1e-10)
            assert np.max(np.abs(point.residuals)) < 1e-10

    def test_vanishing_demand_limit_matches_fair_shares(self):
        lam = [0.25, 0.6, 0.95]
        specs = _demanding(lam, ratio=1e-6)
        point = solve_stationary_point(specs, PlatformSpec())
        shares = asymptotic_fair_share(lam, 1)
        assert np.max(np.abs(point.bandwidths - shares)) < 1e-5

    def test_services_sit_at_floor(self):
        specs = _demanding([0.5, 0.5], floor=2.0)
        point = solve_stationary_point(specs, PlatformSpec())
        assert list(point.services) == [2.0, 2.0]

    def test_fixed_point_property(self):
        specs = _demanding([0.3, 0.8], ratio=0.6)
        point = solve_stationary_point(specs, PlatformSpec())
        # residual fairness vanishes for uncapped apps
        assert np.max(np.abs(point.residuals)) < 1e-10
        assert point.bandwidths.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_matching_branch(self):
        # lightly loaded apps: allocation solving matching = 0 exactly
        specs = [ApplicationSpec(id=f"a{i}", weight=0.5, min_service=1.0,
                                 initial_service=1.0,
                                 model=JobModel(kind="multimedia", alpha=100.0,
                                                deadline=400.0))
                 for i in range(2)]  # beta = 4 > floor
        point = solve_stationary_point(specs, PlatformSpec())
        assert point.bandwidths == pytest.approx([0.25, 0.25], abs=1e-12)
        assert np.max(np.abs(point.residuals)) < 1e-12

    def test_overloaded_light_apps_rejected(self):
        specs = [ApplicationSpec(id=f"a{i}", weight=0.5, min_service=1.0,
                                 initial_service=1.0,
                                 model=JobModel(kind="multimedia", alpha=1000.0,
                                                deadline=1100.0))
                 for i in range(4)]  # beta/floor = 1.1: neither regime fits
        with pytest.raises(ConfigurationError):
            solve_stationary_point(specs, PlatformSpec())


class TestBalanceThresholds:
    def _specs_for_gamma(self, zeta, gamma_star, lam):
        # beta/floor chosen so that beta*zeta/floor - 1 == gamma_star
        ratio = (1.0 + gamma_star) / zeta
        return [ApplicationSpec(id=f"a{i}", weight=lam, min_service=1.0,
                                initial_service=1.0,
                                model=JobModel(kind="multimedia",
                                               alpha=1000.0 / ratio,
                                               deadline=1000.0))
                for i in range(2)]

    def test_hand_evaluated_n1(self):
        specs = self._specs_for_gamma(0.1, -0.5, 0.5)
        platform = PlatformSpec(step=1e-9)
        bounds = compute_bounds(specs, platform)
        bt = balance_thresholds(0.1, specs, platform, bounds)
        assert bt.gamma_star == pytest.approx(-0.5, abs=1e-12)
        assert bt.n1 == 85

    def test_zeta_too_large_rejected(self):
        specs = self._specs_for_gamma(0.1, -0.5, 0.5)  # gamma >= 0 at zeta = 0.5
        platform = PlatformSpec(step=1e-9)
        bounds = compute_bounds(specs, platform)
        with pytest.raises(ConfigurationError):
            balance_thresholds(0.5, specs, platform, bounds)

    def test_zeta_below_step_times_L_rejected(self):
        specs = self._specs_for_gamma(0.1, -0.5, 0.5)
        platform = PlatformSpec(step=0.3)
        bounds = compute_bounds(specs, platform)
        with pytest.raises(ConfigurationError):
            balance_thresholds(0.1, specs, platform, bounds)

    def test_threshold_scaling(self):
        specs = self._specs_for_gamma(0.01, -0.99, 1.0)
        platform = PlatformSpec(step=1e-9)
        bounds = compute_bounds(specs, platform)
        products = []
        for zeta in (0.1, 0.05, 0.02, 0.01):
            bt = balance_thresholds(zeta, specs, platform, bounds)
            products.append(zeta * bt.n_star)
        assert max(products) / min(products) < 2.0


class TestEquivalenceBound:
    def test_hand_evaluated(self):
        assert equivalence_bound(0.03, 1.0, 10) == \
            (pytest.approx(0.87), pytest.approx(0.30))

    def test_degenerate_cadence(self):
        eps, ell = 0.07, 1.5
        assert equivalence_bound(eps, ell, 1) == \
            (pytest.approx(2 * eps * ell), pytest.approx(eps * ell))

    def test_vanishing_step(self):
        for eps in (1e-3, 1e-6, 1e-9):
            a, b = equivalence_bound(eps, 2.0, 5)
            assert a < 1e-2 * (eps / 1e-3) * 30 and b < a


class TestOdeOracle:
    def test_constant_at_stationary_point(self):
        specs = _demanding([0.4, 0.9], ratio=0.5)
        platform = PlatformSpec(step=0.02)
        point = solve_stationary_point(specs, platform)
        initial = make_state(point.services, point.bandwidths)
        traj = integrate_ode(initial, specs, platform, 0.02, 200.0, rm_period=1.0)
        for aid in traj.per_app("bandwidth"):
            _, v = traj.per_app("bandwidth")[aid]
            _, s = traj.per_app("service")[aid]
            assert np.max(np.abs(v - v[0])) < 1e-12
            assert np.max(np.abs(s - s[0])) < 1e-12

    def test_symmetric_pair_converges_to_even_split(self):
        specs = _demanding([0.8, 0.8])
        platform = PlatformSpec(step=0.05)
        initial = make_state([1.0, 1.0], [0.1, 0.6])
        traj = integrate_ode(initial, specs, platform, 0.05, 4000.0, rm_period=1.0)
        final = traj.bandwidth[traj.time == traj.time[-1]]
        assert final == pytest.approx([0.5, 0.5], abs=1e-3)

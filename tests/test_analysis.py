import dataclasses

import numpy as np
import pytest

from fairband import (ApplicationSpec, ConfigurationError, JobModel,
                      PlatformSpec, Scenario, convergence_report,
                      interpolate, run_scenario,
                      solve_stationary_point, sup_deviation,
                      sup_deviation_per_app, sweep_invariants)
from fairband.analysis import InterpolatedPath
from fairband.simkernel import Trajectory


def _path(times, values, aid="a0"):
    return InterpolatedPath({aid: (np.asarray(times, float),
                                   np.asarray(values, float))})


def _fake_trajectory(times, per_app_bandwidths, fairness=None):
    """Build a trajectory from explicit columns, one app per dict key."""
    rows_t, rows_a, rows_v = [], [], []
    for t, allocs in zip(times, per_app_bandwidths):
        for aid, v in allocs.items():
            rows_t.append(t)
            rows_a.append(aid)
            rows_v.append(v)
    n = len(rows_t)
    z = np.zeros(n)
    return Trajectory(time=np.array(rows_t, float),
                      app=np.array(rows_a, dtype=object),
                      service=np.ones(n), bandwidth=np.array(rows_v, float),
                      deadline=np.ones(n), response=np.ones(n), matching=z,
                      fairness=z if fairness is None
                      else np.array(fairness, float))


class TestPerApp:
    def test_matches_mask_per_app_with_rejoin(self):
        # b leaves after t=1 and re-joins at t=3; row order within an
        # instant varies, so ids interleave
        traj = _fake_trajectory(
            [0.0, 1.0, 2.0, 3.0, 4.0],
            [{"b": 0.11, "a": 0.12},
             {"a": 0.21, "b": 0.22, "c": 0.23},
             {"c": 0.31, "a": 0.32},
             {"b": 0.41, "c": 0.42, "a": 0.43},
             {"c": 0.51, "b": 0.52}])
        # the definition the one-pass grouping replaced: one mask per app
        expected = {}
        for aid in dict.fromkeys(traj.app):
            mask = traj.app == aid
            expected[aid] = (traj.time[mask], traj.bandwidth[mask])
        got = traj.per_app("bandwidth")
        assert list(got) == traj.app_ids() == ["b", "a", "c"]
        for aid, (times, values) in expected.items():
            assert np.array_equal(got[aid][0], times)
            assert np.array_equal(got[aid][1], values)
            assert np.all(np.diff(got[aid][0]) > 0.0)
        assert list(got["b"][0]) == [0.0, 1.0, 3.0, 4.0]


class TestInterpolation:
    def test_single_sample_constant(self):
        p = _path([0.0], [3.5])
        for t in (0.0, 1.0, 99.0):
            assert p.value_at("a0", t) == 3.5

    def test_left_closed_lookup(self):
        p = _path([0.0, 1.0, 2.0], [5.0, 7.0, 9.0])
        assert p.value_at("a0", 1.0) == 7.0
        assert p.value_at("a0", 1.999) == 7.0
        assert p.value_at("a0", 2.0) == 9.0

    def test_query_before_start_rejected(self):
        p = _path([1.0], [3.0])
        with pytest.raises(ConfigurationError):
            p.value_at("a0", 0.5)

    def test_interpolate_from_run(self):
        model = JobModel(kind="multimedia", alpha=1000.0, deadline=800.0)
        apps = (ApplicationSpec(id="x", weight=0.9, min_service=1.0,
                                initial_service=2.0, initial_bandwidth=0.4,
                                model=model),)
        traj = run_scenario(Scenario(platform=PlatformSpec(step=0.05),
                                     apps=apps, rm_period=1.0, horizon=20.0))
        p = interpolate(traj, "service")
        assert p.value_at("x", 0.0) == 2.0
        assert p.value_at("x", 0.5) == 2.0

    def test_empty_rejected(self):
        traj = _fake_trajectory([], [])
        with pytest.raises(ConfigurationError):
            interpolate(traj, "service")


class TestSupDeviation:
    def test_identical_paths(self):
        p = _path([0, 1, 2], [1.0, 2.0, 3.0])
        assert sup_deviation(p, p, 2.0) == 0.0

    def test_constant_offset(self):
        a = _path([0, 1, 2], [1.0, 2.0, 3.0])
        b = _path([0, 1, 2], [1.5, 2.5, 3.5])
        assert sup_deviation(a, b, 2.0) == 0.5

    def test_misaligned_breakpoints_exact(self):
        a = _path([0.0, 2.0], [0.0, 4.0])
        b = _path([0.0, 1.0], [0.0, 1.0])
        # on [1,2): a=0, b=1; on [2,inf): a=4, b=1
        assert sup_deviation(a, b, 3.0) == 3.0
        assert sup_deviation(a, b, 1.5) == 1.0

    def test_mismatched_apps_rejected(self):
        with pytest.raises(ConfigurationError):
            sup_deviation(_path([0], [1], "a"), _path([0], [1], "b"), 1.0)

    def test_metric_properties(self):
        rng = np.random.default_rng(9)
        grid = np.arange(0.0, 10.0)
        for _ in range(30):
            va, vb, vc = (rng.uniform(0, 5, len(grid)) for _ in range(3))
            a, b, c = (_path(grid, v) for v in (va, vb, vc))
            dab = sup_deviation(a, b, 9.0)
            dba = sup_deviation(b, a, 9.0)
            dac = sup_deviation(a, c, 9.0)
            dcb = sup_deviation(c, b, 9.0)
            assert dab == dba
            assert dab <= dac + dcb + 1e-12


class TestSweepInvariants:
    def test_clean_run(self):
        traj = _fake_trajectory(
            [0.0, 1.0, 2.0],
            [{"a0": 0.5}, {"a0": 0.6}, {"a0": 0.55}])
        rep = sweep_invariants(traj, PlatformSpec(step=0.01))
        assert rep.feasibility_ok and rep.starvation_ok
        assert rep.max_sum == 0.6
        assert rep.min_bandwidth == 0.5

    def test_feasibility_violation_timestamped(self):
        traj = _fake_trajectory(
            [0.0, 1.0, 2.0],
            [{"a0": 0.5, "a1": 0.4}, {"a0": 0.7, "a1": 0.4}, {"a0": 0.5, "a1": 0.4}])
        rep = sweep_invariants(traj, PlatformSpec(step=0.01))
        assert not rep.feasibility_ok
        assert rep.feasibility_violation_at == 1.0

    def test_starvation_violation_timestamped(self):
        traj = _fake_trajectory(
            [0.0, 1.0], [{"a0": 0.5}, {"a0": 0.005}])
        rep = sweep_invariants(traj, PlatformSpec(step=0.01))
        assert not rep.starvation_ok
        assert rep.starvation_violation_at == 1.0

    def test_balance_containment(self):
        traj = _fake_trajectory(
            [0.0, 1.0, 2.0, 3.0],
            [{"a0": 0.5}, {"a0": 0.2}, {"a0": 0.09}, {"a0": 0.08}])
        rep = sweep_invariants(traj, PlatformSpec(step=0.01), zeta=0.1)
        assert rep.balance_ok
        assert rep.balance_contained_at == 2.0

    def test_balance_escape_detected(self):
        traj = _fake_trajectory(
            [0.0, 1.0, 2.0],
            [{"a0": 0.09}, {"a0": 0.2}, {"a0": 0.2}])
        rep = sweep_invariants(traj, PlatformSpec(step=0.01), zeta=0.1)
        assert not rep.balance_ok

    def test_matches_brute_force_recheck(self):
        rng = np.random.default_rng(4)
        platform = PlatformSpec(step=0.05)
        for _ in range(20):
            vals = rng.uniform(0.0, 0.8, 6)
            traj = _fake_trajectory(range(6), [{"a0": v} for v in vals])
            rep = sweep_invariants(traj, platform)
            assert rep.feasibility_ok == all(0 <= v <= 1 for v in vals)
            assert rep.starvation_ok == all(v > platform.step for v in vals)
            assert rep.max_sum == vals.max()
            assert rep.min_bandwidth == vals.min()


class TestConvergenceReport:
    def test_already_at_target(self):
        traj = _fake_trajectory([0.0, 1.0, 2.0], [{"a0": 0.5}] * 3)
        settled, at, residuals = convergence_report(traj, np.array([0.5]), 0.01)
        assert settled and at == 0.0
        assert residuals == {"a0": 0.0}

    def test_settling_time_found(self):
        vals = [0.9, 0.7, 0.52, 0.505, 0.501]
        traj = _fake_trajectory(range(5), [{"a0": v} for v in vals])
        settled, at, _ = convergence_report(traj, np.array([0.5]), 0.03,
                                            window=3)
        assert settled and at == 2.0

    def test_not_settled(self):
        vals = [0.9, 0.5, 0.9, 0.5, 0.9]
        traj = _fake_trajectory(range(5), [{"a0": v} for v in vals])
        settled, at, _ = convergence_report(traj, np.array([0.5]), 0.03,
                                            window=3)
        assert not settled and at is None

    def test_simulated_convergence_to_solver_target(self):
        model = JobModel(kind="multimedia", alpha=2000.0, deadline=800.0)
        apps = tuple(ApplicationSpec(id=f"a{i}", weight=w, min_service=1.0,
                                     initial_service=1.0,
                                     initial_bandwidth=0.3, model=model)
                     for i, w in enumerate((0.9, 0.3)))
        platform = PlatformSpec(step=0.02)
        traj = run_scenario(Scenario(platform=platform, apps=apps,
                                     rm_period=1.0, horizon=4000.0))
        point = solve_stationary_point(apps, platform)
        settled, at, residuals = convergence_report(traj, point.bandwidths,
                                                   0.02)
        assert settled
        assert at is not None and at < 4000.0
        assert max(residuals.values()) < 0.05

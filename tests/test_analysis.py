import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairband import (ApplicationSpec, ConfigurationError, JobModel,
                      PlatformSpec, Scenario, convergence_report,
                      interpolate, run_scenario, solve_stationary_point,
                      sup_deviation_per_app, sweep_invariants)
from fairband.core import LIMIT, SUM_TOL
from fairband.simkernel import Coefficients, Trajectory


def _path(times, values, aid="a0"):
    return {aid: (np.asarray(times, float), np.asarray(values, float))}


def sup_deviation(paths_a, paths_b, horizon):
    """Largest per-app sup deviation."""
    return max(sup_deviation_per_app(paths_a, paths_b, horizon).values())


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
        assert list(got) == ["b", "a", "c"]
        for aid, (times, values) in expected.items():
            assert np.array_equal(got[aid][0], times)
            assert np.array_equal(got[aid][1], values)
            assert np.all(np.diff(got[aid][0]) > 0.0)
        assert list(got["b"][0]) == [0.0, 1.0, 3.0, 4.0]


class TestInterpolation:
    def test_interpolate_from_run(self):
        model = JobModel(kind="multimedia", alpha=1000.0, deadline=800.0)
        apps = (ApplicationSpec(id="x", weight=0.9, min_service=1.0,
                                initial_service=2.0, initial_bandwidth=0.4,
                                model=model),)
        traj = run_scenario(Scenario(platform=PlatformSpec(step=0.05),
                                     apps=apps, rm_period=1.0, horizon=20.0))
        times, values = interpolate(traj, "service")["x"]
        assert times[0] == 0.0 and times[1] > 0.5
        assert values[0] == 2.0

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

    def test_app_without_breakpoints_is_zero(self):
        a = {**_path([], [], "x"), **_path([0.0, 1.0], [1.0, 2.0], "y")}
        b = {**_path([], [], "x"), **_path([0.0, 1.0], [1.5, 2.0], "y")}
        assert sup_deviation_per_app(a, b, 1.0) == {"x": 0.0, "y": 0.5}

    @pytest.mark.parametrize("a, b", [
        (_path([0.0, 1.0], [math.inf, -math.inf]),
         _path([0.0, 1.0], [math.inf, -math.inf])),
        (_path([0.0, 1.0], [math.inf, math.inf]), _path([0.0], [math.inf]))],
        ids=["shared", "apart"])
    def test_equal_infinities_are_no_gap(self, a, b):
        # inf - inf is nan and warns; two paths that agree at an infinity
        # differ there by 0
        assert sup_deviation(a, b, 1.0) == 0.0

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


def union_grid_sup(paths_a, paths_b, horizon):
    """The definition sup_deviation_per_app is checked against: both paths
    read on their merged breakpoint grid up to the horizon, equal values
    (two equal infinities too) differing by 0."""
    out = {}
    for aid, (ta, va) in paths_a.items():
        tb, vb = paths_b[aid]
        grid = np.union1d(ta, tb)
        grid = grid[grid <= horizon + SUM_TOL]
        ia = np.maximum(np.searchsorted(ta, grid, side="right") - 1, 0)
        ib = np.maximum(np.searchsorted(tb, grid, side="right") - 1, 0)
        with np.errstate(invalid="ignore"):     # inf - inf, masked below
            gap = np.where(va[ia] == vb[ib], 0.0, np.abs(va[ia] - vb[ib]))
        out[aid] = float(np.max(gap)) if grid.size else 0.0
    return out


VALUES = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                    math.nan]),
                   st.floats(-10.0, 10.0))
# whole times and half-unit horizons: a horizon falls before the first
# breakpoint, on one, between two or past the last
TIMES = st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True)


@st.composite
def path_pairs(draw):
    """Paths of 1-8 apps for two runs. The runs share every app's
    breakpoints, cut one sorted grid into apps two ways (equal totals,
    unequal per-app lengths), or draw their breakpoints apart. Run b lists
    its apps in another order."""
    n = draw(st.integers(1, 8))
    layout = draw(st.sampled_from(["shared", "recut", "apart"]))
    if layout == "recut":
        grid = sorted(draw(st.lists(st.integers(0, 40), min_size=n,
                                    max_size=n + 8, unique=True)))
        cuts = st.lists(st.integers(1, max(len(grid) - 1, 1)), min_size=n - 1,
                        max_size=n - 1, unique=True).map(sorted)
        times = [np.split(grid, draw(cuts)) for _ in "ab"]
    else:
        times = [[sorted(draw(TIMES)) for _ in range(n)]]
        times.append(times[0] if layout == "shared"
                     else [sorted(draw(TIMES)) for _ in range(n)])
    ids = [f"a{i}" for i in range(n)]
    paths = [{aid: (np.array(t, float),
                    np.array(draw(st.lists(VALUES, min_size=len(t),
                                           max_size=len(t)))))
              for aid, t in zip(ids, side)} for side in times]
    order = draw(st.permutations(ids))
    return paths[0], {aid: paths[1][aid] for aid in order}


def _bits(per_app):
    return np.array(list(per_app.values())).view(np.int64)


@settings(max_examples=80, deadline=None)
@given(path_pairs(), st.integers(-4, 84).map(lambda k: k / 2.0))
@example(({"x": (np.array([0.0, 1.0]), np.array([1.0, 2.0])),
           "y": (np.array([2.0]), np.array([3.0]))},
          {"x": (np.array([0.0]), np.array([1.5])),
           "y": (np.array([1.0, 2.0]), np.array([0.0, 4.0]))}), 2.0)
@example(({"x": (np.array([3.0]), np.array([-0.0]))},
          {"x": (np.array([3.0]), np.array([math.nan]))}), 2.5)
def test_sup_matches_the_union_grid_bit_for_bit(pair, horizon):
    got = sup_deviation_per_app(*pair, horizon)
    want = union_grid_sup(*pair, horizon)
    assert list(got) == list(want) == list(pair[0])
    assert np.array_equal(_bits(got), _bits(want))


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

    def test_nan_share_flagged(self):
        # the nan share makes its instant's sum nan too
        traj = _fake_trajectory(
            [0.0, 1.0, 2.0],
            [{"a0": 0.5, "a1": 0.4}, {"a0": math.nan, "a1": 0.4},
             {"a0": 0.5, "a1": 0.4}])
        rep = sweep_invariants(traj, PlatformSpec(step=0.01))
        assert not rep.feasibility_ok and not rep.starvation_ok
        assert rep.feasibility_violation_at == 1.0
        assert rep.starvation_violation_at == 1.0
        assert math.isnan(rep.max_sum) and math.isnan(rep.min_bandwidth)

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


# platforms of cap 1, 0.9, 0.5 and 1/3
EDGE_PLATFORMS = [PlatformSpec(), PlatformSpec(max_total_bandwidth=0.9),
                  PlatformSpec(cores=2), PlatformSpec(cores=3)]


@st.composite
def _edge_row(draw):
    """(platform, row): up to 64 shares at the edges of the feasible set,
    the last one set, in half the rows, to bring the sum near LIMIT. From
    eight shares on, numpy's pairwise sum keeps eight partial sums, so a
    checker that adds a row one share at a time can disagree in the last
    bit."""
    platform = draw(st.sampled_from(EDGE_PLATFORMS))
    up = platform.upper
    edges = [-SUM_TOL, -2.0 * SUM_TOL, 0.0, -0.0, up, up + SUM_TOL,
             up - SUM_TOL, up + 2.0 * SUM_TOL, math.nan, math.inf, -math.inf]
    row = draw(st.lists(st.sampled_from(edges) | st.floats(-0.1, up + 0.1),
                        min_size=1, max_size=64))
    if draw(st.booleans()):
        target = draw(st.sampled_from([1.0, LIMIT, np.nextafter(LIMIT, 2.0),
                                       np.nextafter(LIMIT, 0.0),
                                       1.0 + 2.0 * SUM_TOL]))
        row[-1] = target - sum(row[:-1])
    return platform, np.array(row)


@settings(max_examples=150, deadline=None)
@given(_edge_row())
@example((PlatformSpec(), np.array([math.inf, -math.inf])))
@example((PlatformSpec(), np.array([0.5, LIMIT - 0.5])))
@example((PlatformSpec(cores=2), np.array([0.5 + SUM_TOL, 0.5])))
# 16 shares: the pairwise sum is LIMIT, a one-by-one sum an ulp above it
@example((PlatformSpec(), np.r_[[0.05] * 15, 0.2500000000010002]))
def test_every_checker_of_the_feasible_set_agrees(case):
    platform, v = case
    ids = [f"a{i}" for i in range(len(v))]
    feasible = not platform.outside(v).any() and v.sum() <= LIMIT
    assert (platform.breach(v, ids) is None) == feasible
    traj = _fake_trajectory([0.0], [dict(zip(ids, v))])
    assert sweep_invariants(traj, platform).feasibility_ok == feasible
    # the kernel's clamp onto its stacked bounds, (lo, 0) and (hi, upper):
    # a clamped row within LIMIT is in the box, so run_scenario skips its
    # breach test
    c = Coefficients(job=(0.0, 0.0, 1.0, None), lam=1.0, lo=0.0, hi=math.inf,
                     cadence=1, gain=None, eps=platform.step,
                     kappa=platform.cores, upper=platform.upper)
    with np.errstate(invalid="ignore"):
        row = np.minimum(np.maximum(v, c.low[1]), c.high[1])
    if row.sum() <= LIMIT:
        assert not platform.outside(row).any()


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

import math

import numpy as np
import pytest

from fairband import (AdmissionError, ApplicationSpec, ConfigurationError,
                      JobModel, MembershipEvent, PlatformSpec, Scenario,
                      compile_apps, measure_job, run_scenario)


def _app(i, weight=0.5, floor=1.0, s0=None, v0=0.2, cadence=1, model=None):
    model = model or JobModel(kind="multimedia", alpha=1000.0, deadline=800.0)
    return ApplicationSpec(id=f"a{i}", weight=weight, min_service=floor,
                           initial_service=s0 if s0 is not None else floor,
                           initial_bandwidth=v0, update_jobs=cadence,
                           model=model)


class TestJobModel:
    def test_synthetic_requirements(self):
        # at unit bandwidth the response is the execution requirement
        m = JobModel(kind="synthetic", a=20, b=200, deadline=1000)
        assert measure_job(m, 10, 1.0)[1] == 400
        m2 = JobModel(kind="synthetic", a=40, b=100, deadline=10000)
        assert measure_job(m2, 10, 1.0)[1] == 500

    def test_multimedia_requirement(self):
        m = JobModel(kind="multimedia", alpha=30, deadline=1000)
        assert measure_job(m, 4, 1.0)[1] == 120

    def test_measure_job_synthetic(self):
        m = JobModel(kind="synthetic", a=20, b=200, deadline=1000)
        d, r, f = measure_job(m, 10, 0.5)  # C = 400
        assert (d, r) == (1000, 800)
        assert f == 0.25

    def test_measure_job_control(self):
        m = JobModel(kind="control", alpha=100, beta=20)  # C = 5
        d, r, f = measure_job(m, 10, 0.5)
        assert (d, r) == (10, 10)
        assert f == 0

    def test_control_matches_nominal_form(self):
        m = JobModel(kind="control", alpha=100, beta=20)
        for s, v in ((5, 0.3), (10, 0.9), (2, 0.05)):
            _, _, f = measure_job(m, s, v)
            assert f == pytest.approx(20 * v / s - 1, abs=1e-12)

    def test_zero_bandwidth_limit(self):
        m = JobModel(kind="synthetic", a=20, b=200, deadline=1000)
        d, r, f = measure_job(m, 10, 0.0)
        assert math.isinf(r) and f == -1.0

    def test_doubling_bandwidth_halves_response(self):
        m = JobModel(kind="multimedia", alpha=100, deadline=500)
        _, r1, _ = measure_job(m, 3, 0.2)
        _, r2, _ = measure_job(m, 3, 0.4)
        assert r1 == 2 * r2


class TestTimeline:
    def test_synchronous_grids(self):
        # sync mode puts every app on the manager grid, whatever its cadence
        apps = [_app(0, cadence=10), _app(1, cadence=3)]
        assert list(compile_apps(apps, PlatformSpec(), "sync").cadence) == [1, 1]
        for mode in ("async_compensated", "async_uncompensated"):
            assert list(compile_apps(apps, PlatformSpec(), mode).cadence) == [10, 3]

    def test_cadence_ten(self):
        # the service moves only at every tenth manager instant, by ten
        # observations' worth
        apps = [_app(0, 0.9, s0=3.0, v0=0.3, cadence=10),
                _app(1, 0.5, v0=0.3)]
        traj = run_scenario(_scenario(apps, steps=100, mode="async_compensated"))
        t, s = traj.per_app("service")["a0"]
        moved = t[1:][np.diff(s) != 0.0]
        assert len(moved) > 0 and np.all(moved % 10 == 1)
        _, f = traj.per_app("matching")["a0"]
        k = int(moved[0]) - 1
        assert s[k + 1] == max(1.0, s[k] + 0.05 * (10 * f[k]))


def _scenario(apps, eps=0.05, steps=200, mode="sync", **kw):
    return Scenario(platform=PlatformSpec(cores=1, step=eps), apps=tuple(apps),
                    rm_period=1.0, horizon=float(steps), mode=mode, **kw)


class TestRunScenario:
    def test_deterministic(self):
        apps = [_app(0, 0.9, v0=0.3), _app(1, 0.2, v0=0.4)]
        a = run_scenario(_scenario(apps))
        b = run_scenario(_scenario(apps))
        for f in ("time", "service", "bandwidth", "matching", "fairness"):
            assert np.array_equal(getattr(a, f), getattr(b, f))

    def test_sample_identity(self):
        apps = [_app(0, 0.9, v0=0.3), _app(1, 0.2, v0=0.4)]
        traj = run_scenario(_scenario(apps, steps=50))
        finite = np.isfinite(traj.response)
        recon = traj.deadline[finite] / traj.response[finite] - 1.0
        assert np.max(np.abs(recon - traj.matching[finite])) < 1e-12

    def test_cold_start_is_neutral(self):
        apps = [_app(0, 0.9, v0=0.3)]
        traj = run_scenario(_scenario(apps, steps=5))
        assert traj.matching[0] == 0.0
        assert traj.fairness[0] == 0.0

    def test_measured_equals_nominal_for_multimedia(self):
        # the model premise: measurements coincide with the nominal form
        apps = [_app(0, 0.9, floor=1.0, s0=2.0, v0=0.3),
                _app(1, 0.4, floor=0.5, s0=1.0, v0=0.2)]
        traj = run_scenario(_scenario(apps, steps=100))
        for i, a in enumerate(apps):
            mask = traj.app == a.id
            s = traj.service[mask][1:]
            v = traj.bandwidth[mask][1:]
            f = traj.matching[mask][1:]
            beta = a.model.effective_beta
            assert np.max(np.abs(f - (beta * v / s - 1.0))) < 1e-12

    def test_strict_mode_rejects_large_step(self):
        apps = [_app(0, 0.9, v0=0.3), _app(1, 0.9, v0=0.3)]
        # the Scenario refuses the step when it is built
        with pytest.raises(ConfigurationError, match="strict mode: step 0.9"):
            _scenario(apps, eps=0.9, strict_bounds=True)

    def test_unknown_mode_rejected(self):
        apps = [_app(0)]
        with pytest.raises(ConfigurationError):
            _scenario(apps, mode="warp")

    def test_sample_stride(self):
        apps = [_app(0, 0.9, v0=0.3)]
        full = run_scenario(_scenario(apps, steps=100))
        thin = run_scenario(_scenario(apps, steps=100, sample_stride=10))
        assert len(thin) < len(full)
        assert thin.time[-1] == full.time[-1]
        assert thin.bandwidth[-1] == full.bandwidth[-1]


class TestMembership:
    # an event at time 0 applies before the first instant, so row 0 shows
    # the state it leaves
    def test_leave_returns_bandwidth(self):
        apps = [_app(0, v0=0.3), _app(1, v0=0.3)]
        events = (MembershipEvent(0.0, "leave", app_id="a0"),)
        traj = run_scenario(_scenario(apps, steps=5, events=events))
        first = traj.time == 0.0
        assert list(traj.app[first]) == ["a1"]
        assert 1.0 - traj.bandwidth[first].sum() == pytest.approx(0.7,
                                                                  abs=1e-15)

    def test_join_seed_is_step_capped_by_pool(self):
        apps = [_app(0, v0=0.5)]
        events = (MembershipEvent(0.0, "join", spec=_app(1, v0=None)),)
        traj = run_scenario(_scenario(apps, eps=0.03, steps=5, events=events))
        first = traj.time == 0.0
        assert list(traj.app[first]) == ["a0", "a1"]
        assert traj.bandwidth[first][-1] == 0.03
        assert 1.0 - traj.bandwidth[first].sum() == pytest.approx(0.47,
                                                                  abs=1e-15)

    def test_join_without_pool_rejected(self):
        apps = [_app(0, v0=1.0)]
        events = (MembershipEvent(0.0, "join", spec=_app(1, v0=None)),)
        with pytest.raises(AdmissionError):
            run_scenario(_scenario(apps, eps=0.03, steps=5, events=events))

    def test_events_inside_run(self):
        apps = [_app(0, 0.9, v0=0.3), _app(1, 0.5, v0=0.3)]
        events = (MembershipEvent(5.0, "join", spec=_app(2, 0.7, v0=None)),
                  MembershipEvent(120.0, "leave", app_id="a0"))
        traj = run_scenario(_scenario(apps, steps=200, events=events))
        ids_at = lambda t: set(traj.app[traj.time == t])
        assert ids_at(0.0) == {"a0", "a1"}
        assert ids_at(60.0) == {"a0", "a1", "a2"}
        assert ids_at(150.0) == {"a1", "a2"}
        # joined app starts from the step-sized seed, cold measurement
        row = (traj.time == 5.0) & (traj.app == "a2")
        assert traj.bandwidth[row][0] == 0.05
        assert traj.matching[row][0] == 0.0

    def test_prefix_unchanged_by_future_events(self):
        apps = [_app(0, 0.9, v0=0.3), _app(1, 0.5, v0=0.3)]
        events = (MembershipEvent(100.0, "leave", app_id="a1"),)
        plain = run_scenario(_scenario(apps, steps=200))
        with_ev = run_scenario(_scenario(apps, steps=200, events=events))
        pre_a = plain.bandwidth[plain.time < 100.0]
        pre_b = with_ev.bandwidth[with_ev.time < 100.0]
        assert np.array_equal(pre_a, pre_b)

    def test_misaligned_event_rejected(self):
        apps = [_app(0, 0.9, v0=0.3)]
        events = (MembershipEvent(50.5, "leave", app_id="a0"),)
        with pytest.raises(ConfigurationError, match=r"events\[0\]\.time"):
            _scenario(apps, steps=200, events=events)

    # a MembershipEvent is a plain record; the Scenario holding it checks it
    @pytest.mark.parametrize("event, message", [
        (MembershipEvent(5.0, "join"),
         r"events\[1\]\.app: a join needs a spec"),
        (MembershipEvent(5.0, "leave"),
         r"events\[1\]\.app: .*, a leave an app id"),
        (MembershipEvent(5.0, "swap", app_id="a0"),
         r"events\[1\]\.action must be join or leave, got 'swap'"),
    ], ids=["join-without-spec", "leave-without-id", "unknown-action"])
    def test_bad_event_refused_when_the_scenario_is_built(self, event,
                                                          message):
        events = (MembershipEvent(9.0, "leave", app_id="a0"), event)
        with pytest.raises(ConfigurationError, match=message):
            _scenario([_app(0, v0=0.3)], steps=10, events=events)

    def test_scenario_holds_the_checked_schedule(self):
        # a leave and a re-join of one id at instant 3, listed in reverse
        # time order; the re-joiner takes a new row of the run's app table
        apps = [_app(0, v0=0.3), _app(1, v0=0.3)]
        events = (MembershipEvent(3.0, "join", spec=_app(1, v0=None)),
                  MembershipEvent(3.0 - 1e-12, "leave", app_id="a1"),
                  MembershipEvent(-1.0, "join", spec=_app(2, v0=None)))
        s = _scenario(apps, steps=10, events=events)
        assert [a.id for a in s.admitted] == ["a0", "a1", "a2", "a1"]
        assert s.admitted[3] is events[0].spec
        assert s.schedule == {0: [(2, True)], 3: [(1, False), (3, True)]}

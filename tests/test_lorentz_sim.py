import math

import numpy as np
import pytest

from maglorentz import _rng, medium
from maglorentz import lorentz_sim as ls
from maglorentz.geometry import ParticleState, advance_free, unit_vector
from maglorentz.lorentz_sim import (ChatteringError, EventKind,
                                    TrajectoryStatus, event_rate_study,
                                    msd_estimate, simulate_trajectory)
from maglorentz.medium import ExplicitField, ObstacleField, scaling_from


def empty_params(eps=0.05, b=0.0):
    r = 1.0 / b if b > 0 else math.inf
    t = 2 * math.pi / b if b > 0 else math.inf
    return medium.ScalingParams(eps=eps, mu=1.0, eta=1.0, mu_eff=0.0,
                                b_magnitude=b, larmor_radius=r, t_larmor=t)


def register(ids):
    """Trajectory after ``register_hit`` saw ``ids`` in order, and the kinds."""
    tr = ls._Trajectory(ObstacleField(1, empty_params()),
                        ParticleState(np.zeros(2), 0.0), 1.0, (), 8)
    kinds = [tr.register_hit(oid, np.array([float(oid), 0.0]), 0.0, float(i))
             for i, oid in enumerate(ids)]
    return tr, kinds


class TestClassifyEvents:
    """Event kinds as ``register_hit`` assigns them from the id sequence."""

    def test_empty(self):
        tr, kinds = register([])
        assert kinds == [] and tr.events == [] and tr.hit_centers == {}

    def test_triple_same_obstacle(self):
        tr, kinds = register([1, 1, 1])
        assert kinds == [EventKind.FRESH, EventKind.SELF_RECOLLISION,
                         EventKind.SELF_RECOLLISION]
        assert [e.kind for e in tr.events] == kinds
        assert list(tr.hit_centers) == [1]

    def test_nonadjacent_repeat(self):
        tr, kinds = register([1, 2, 1, 3, 2])
        assert kinds == [EventKind.FRESH, EventKind.FRESH,
                         EventKind.RECOLLISION, EventKind.FRESH,
                         EventKind.RECOLLISION]
        # first-hit order, which fixes the near-miss candidate order
        assert list(tr.hit_centers) == [1, 2, 3]
        assert tr.hit_centers[2].tolist() == [2.0, 0.0]


class TestObstacleFreeFlight:
    def test_circling_forever(self):
        f = ObstacleField(1, empty_params(b=1.0))
        out = simulate_trajectory(
            f, ParticleState(np.array([0.0, 0.0]), 0.0), 25.0,
            np.linspace(0.0, 25.0, 40))
        assert out.status is TrajectoryStatus.CIRCLING_FOREVER
        assert out.status_time == 0.0
        assert len(out.events) == 0
        disp = np.hypot(*(out.sample_positions - np.array([0.0, 0.0])).T)
        assert disp.max() <= 2.0 + 1e-12
        # positions sit exactly on the orbit
        for t, pos in zip(out.sample_times, out.sample_positions):
            ref = advance_free(ParticleState(np.array([0.0, 0.0]), 0.0),
                               1.0, t).position
            assert np.allclose(pos, ref, atol=1e-12)

    def test_ballistic(self):
        f = ObstacleField(1, empty_params(b=0.0))
        st = ParticleState(np.array([0.5, -0.25]), 0.7)
        out = simulate_trajectory(f, st, 7.0, [1.0, 3.5, 7.0])
        assert out.status is TrajectoryStatus.COMPLETED
        for t, pos in zip(out.sample_times, out.sample_positions):
            assert np.allclose(pos, st.position + t * st.velocity, atol=1e-12)


class TestSingleObstacle:
    def test_head_on_reversal(self):
        params = empty_params(eps=0.1, b=0.0)
        f = ExplicitField(params, [(5.0, 0.0)], cell_size=1.0)
        out = simulate_trajectory(
            f, ParticleState(np.array([0.0, 0.0]), 0.0), 10.0, [10.0])
        assert len(out.events) == 1
        event = out.events[0]
        assert event.kind is EventKind.FRESH
        assert event.hit_time == pytest.approx(4.9, abs=1e-12)
        assert abs(event.impact_parameter) < 1e-12
        assert out.final_state.velocity_angle == pytest.approx(math.pi)
        assert out.final_state.position[0] == pytest.approx(-0.2, abs=1e-9)

    def test_inadmissible_start_rejected(self):
        params = empty_params(eps=0.5, b=0.0)
        f = ExplicitField(params, [(0.2, 0.0)], cell_size=5.0)
        with pytest.raises(ValueError, match="start"):
            simulate_trajectory(f, ParticleState(np.array([0.0, 0.0]), 0.0), 1.0)


def make_daisy_field(n_leaves, r=1.0, eps=0.1, phase=-0.9):
    """Obstacle placed for an exactly periodic daisy with ``n_leaves`` leaves."""
    beta = 2.0 * math.pi / n_leaves
    # distance from the orbit center solving the impact-angle relation
    delta = (eps * math.cos(beta)
             + math.sqrt(r * r - eps * eps * math.sin(beta) ** 2))
    params = medium.ScalingParams(eps=eps, mu=1.0, eta=1.0, mu_eff=0.0,
                                  b_magnitude=1.0 / r, larmor_radius=r,
                                  t_larmor=2 * math.pi * r)
    center = np.array([0.0, r])
    obstacle = center + delta * unit_vector(phase)
    return ExplicitField(params, [obstacle], cell_size=4 * r), obstacle


class TestDaisyTrapping:
    def test_periodic_three_daisy(self):
        f, obstacle = make_daisy_field(3)
        out = simulate_trajectory(
            f, ParticleState(np.array([0.0, 0.0]), 0.0), 80.0,
            np.linspace(0.0, 80.0, 33))
        assert out.status is TrajectoryStatus.TRAPPED_DAISY
        kinds = [e.kind for e in out.events]
        assert kinds[0] is EventKind.FRESH
        assert all(k is EventKind.SELF_RECOLLISION for k in kinds[1:])
        # trapped: every later sample stays within one orbit of the trap
        d = np.hypot(*(out.sample_positions - obstacle).T)
        assert d.max() <= 2 * (1.0 + 0.1) + 1e-9
        # impact parameter repeats exactly leaf to leaf
        b_vals = [e.impact_parameter for e in out.events]
        assert max(b_vals) - min(b_vals) < 1e-12

    def test_aperiodic_daisy_hits_event_cap(self):
        # an irrational leaf angle never closes; the cap flags chattering
        f, _ = make_daisy_field(math.pi)  # beta = 2 not a rational turn
        with pytest.raises(ChatteringError):
            simulate_trajectory(f, ParticleState(np.array([0.0, 0.0]), 0.0),
                                1e6, max_events=300)


class TestInvariants:
    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_event_times_and_speed(self, b):
        params = scaling_from(0.02, 1.0, 1.0, b)
        hits = 0
        for rep in range(30):
            f = ObstacleField(_rng.mix(17, rep), params)
            rng = _rng.generator(17, _rng.STREAM_START, rep)
            start = ls._draw_start(f, rng)
            out = simulate_trajectory(f, start, 4.0)
            times = [e.hit_time for e in out.events]
            assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
            assert all(abs(e.impact_parameter) <= params.eps for e in out.events)
            v = out.final_state.velocity
            assert float(v @ v) == pytest.approx(1.0, abs=1e-12)
            hits += len(out.events)
        assert hits > 50

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_each_cell_drawn_once_per_replica(self, b):
        # the start check and the flight read one cell cache
        f = ObstacleField(_rng.mix(17, 0), scaling_from(0.02, 1.0, 1.0, b))
        drawn = []
        draw = f.cell_points

        def counting(ix, iy):
            drawn.append((ix, iy))
            return draw(ix, iy)

        object.__setattr__(f, "cell_points", counting)
        start = ls._draw_start(f, _rng.generator(17, _rng.STREAM_START, 0))
        simulate_trajectory(f, start, 4.0)
        assert len(drawn) > 1 and len(drawn) == len(set(drawn))

    def test_no_self_recollision_without_field(self):
        params = scaling_from(0.05, 1.0, 1.0, 0.0)
        for rep in range(40):
            f = ObstacleField(_rng.mix(23, rep), params)
            rng = _rng.generator(23, _rng.STREAM_START, rep)
            start = ls._draw_start(f, rng)
            out = simulate_trajectory(f, start, 6.0)
            assert all(e.kind is not EventKind.SELF_RECOLLISION
                       for e in out.events)

    def test_deterministic_replay(self):
        params = scaling_from(0.02, 1.0, 1.0, 1.0)
        f1 = ObstacleField(404, params)
        f2 = ObstacleField(404, params)
        st = ParticleState(np.array([0.05, 0.07]), 0.3)
        a = simulate_trajectory(f1, st, 5.0, [1.0, 5.0])
        b = simulate_trajectory(f2, st, 5.0, [1.0, 5.0])
        assert len(a.events) == len(b.events)
        for e1, e2 in zip(a.events, b.events):
            assert e1.hit_time == e2.hit_time
            assert e1.obstacle_id == e2.obstacle_id
            assert e1.impact_parameter == e2.impact_parameter
        assert np.array_equal(a.sample_positions, b.sample_positions)

    def test_circling_fraction_two_sided(self):
        # annulus-void law at the trajectory level, 1e5 replicas
        eps = 0.01
        params = scaling_from(eps, 0.125, 1.0, 1.0)
        res = event_rate_study([eps], 1.0, 0.125, 1.0, 1e-3, 100_000,
                               seed=31, workers=4)
        p_ref = math.exp(-4 * math.pi * params.larmor_radius * eps
                         * params.mu_eff)
        se = math.sqrt(p_ref * (1 - p_ref) / 100_000)
        row = res.rows[0]
        assert abs(row.p_circling - p_ref) < 3 * se


class TestMsdEstimate:
    def test_obstacle_free_orbit_bounded(self):
        params = empty_params(b=1.0)
        res = msd_estimate(params, 4, [1.0, 5.0, 20.0], seed=3)
        assert np.all(res.msd <= 4.0 * 1.0 ** 2 + 1e-9)
        assert np.all(res.circling_fraction == 1.0)

    def test_obstacle_free_ballistic(self):
        params = empty_params(b=0.0)
        res = msd_estimate(params, 3, [1.0, 2.0, 4.0], seed=3)
        assert np.allclose(res.msd, np.array([1.0, 4.0, 16.0]), atol=1e-10)
        assert np.all(res.circling_fraction == 0.0)

    def test_worker_count_irrelevant(self):
        params = scaling_from(5e-3, 1.0, 1.0, 0.0)
        grid = [0.5, 1.0, 2.0]
        a = msd_estimate(params, 12, grid, seed=77, workers=1)
        b = msd_estimate(params, 12, grid, seed=77, workers=3)
        assert np.array_equal(a.msd, b.msd)
        assert np.array_equal(a.msd_se, b.msd_se)

    def test_short_time_ballistic_regime(self):
        # MSD(t) ~ t^2 well below the mean free time
        params = scaling_from(5e-3, 1.0, 1.0, 0.0)  # rate 2, free path 0.5
        res = msd_estimate(params, 200, [0.01, 0.02], seed=5)
        assert res.msd[0] == pytest.approx(1e-4, rel=0.02)
        assert res.msd[1] == pytest.approx(4e-4, rel=0.02)

    def test_all_aborted_raises(self):
        params = scaling_from(4e-3, 1.0, 2.0, 1.0)
        with pytest.raises(ChatteringError,
                           match="all 6 replicas at eps=0.004 reached max_events=1"):
            msd_estimate(params, 6, [2.0], seed=9, max_events=1)

    def test_fewer_than_two_left_raises(self):
        # one replica has no standard error; it used to come out as NaN
        params = scaling_from(4e-3, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="at least 2 replicas"):
            msd_estimate(params, 1, [0.5], seed=10)
        with pytest.raises(ChatteringError,
                           match="2 of 3 replicas at eps=0.004 reached "
                                 "max_events=2, fewer than 2 left"):
            msd_estimate(params, 3, [0.5], seed=10, max_events=2)


class TestEventRateStudy:
    def test_validation(self):
        with pytest.raises(ValueError):
            event_rate_study([0.5, 0.6], 1.0, 1.0, 1.0, 1.0, 10, 0)
        with pytest.raises(ValueError):
            event_rate_study([1.5], 1.0, 1.0, 1.0, 1.0, 10, 0)

    def test_eta_rule_forms(self):
        eps_list = [4e-3, 2e-3]
        by_value = event_rate_study(eps_list, 2.0, 1.0, 1.0, 0.5, 60, seed=9)
        by_call = event_rate_study(eps_list, lambda e: 2.0, 1.0, 1.0, 0.5, 60,
                                   seed=9)
        for a, b in zip(by_value.rows, by_call.rows):
            assert a == b
        assert all(r.eta == 2.0 for r in by_value.rows)

    def test_aborted_replicas_counted_per_radius(self):
        # a tiny event cap makes some replicas chatter; each rung counts its own
        eps_list, n, seed, t, cap = [4e-3, 2e-3], 30, 9, 0.5, 3
        res = event_rate_study(eps_list, 2.0, 1.0, 1.0, t, n, seed=seed,
                               max_events=cap)
        for i, (eps, row) in enumerate(zip(eps_list, res.rows)):
            params = scaling_from(eps, 1.0, 2.0, 1.0)
            aborted = 0
            for r in range(n):
                f = ObstacleField(_rng.mix(seed, 0xE5, i, r), params)
                rng = _rng.generator(seed, _rng.STREAM_START, i, r)
                try:
                    simulate_trajectory(f, ls._draw_start(f, rng), t,
                                        max_events=cap)
                except ChatteringError:
                    aborted += 1
            assert 0 < aborted < n
            assert row.n_aborted == aborted

    def test_all_aborted_radius_raises(self):
        # every replica of the first radius aborts on the cap
        with pytest.raises(ChatteringError,
                           match="all 10 replicas at eps=0.004 reached max_events=1"):
            event_rate_study([4e-3, 2e-3], 2.0, 1.0, 1.0, 0.5, 10, seed=9,
                             max_events=1)

    def test_one_process_pool_per_study(self, monkeypatch):
        made = []
        pool_class = ls.ProcessPoolExecutor

        def counting(*args, **kwargs):
            made.append(kwargs)
            return pool_class(*args, **kwargs)

        monkeypatch.setattr(ls, "ProcessPoolExecutor", counting)
        pooled = event_rate_study([4e-3, 2e-3], 2.0, 1.0, 1.0, 0.5, 8,
                                  seed=9, workers=2)
        assert len(made) == 1
        serial = event_rate_study([4e-3, 2e-3], 2.0, 1.0, 1.0, 0.5, 8,
                                  seed=9, workers=1)
        assert pooled.rows == serial.rows

    def test_recollision_rate_scales_down(self):
        res = event_rate_study([4e-3, 1e-3], 2.0, 1.0, 1.0, 3.0, 500, seed=13,
                               workers=4)
        p = res.probabilities("recollision")
        assert p[0] > p[1] > 0.0
        assert res.exponents["recollision"] > 0.2

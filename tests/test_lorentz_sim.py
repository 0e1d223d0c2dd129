import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maglorentz import _rng, medium
from maglorentz import lorentz_sim as ls
from maglorentz.geometry import (ParticleState, advance_free, first_arc_hit,
                                 first_ray_entry, impact_normal,
                                 larmor_center, unit_vector)
from maglorentz.lorentz_sim import (ChatteringError, EventKind,
                                    TrajectoryStatus, event_rate_study,
                                    msd_estimate, simulate_trajectory)
from maglorentz.medium import (ObstacleField, is_admissible_start,
                               scaling_from)

from explicit_field import ExplicitField
from geometry_reference import point_to_arc_distances


def empty_params(eps=0.05, b=0.0):
    return medium.ScalingParams(eps=eps, mu=0.0, eta=1.0, b_magnitude=b)


def register(ids):
    """Trajectory after ``register_hit`` saw ``ids`` in order, and the kinds."""
    tr = ls._Trajectory(ObstacleField(1, empty_params()),
                        ParticleState(np.zeros(2), 0.0), 1.0, ())
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
        assert tr.hit_centers[2] == (2.0, 0.0)


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
            ref = advance_free(0.0, 0.0, 0.0, 1.0, t)[:2]
            assert np.allclose(pos, ref, atol=1e-12)

    def test_ballistic(self):
        f = ObstacleField(1, empty_params(b=0.0))
        st = ParticleState(np.array([0.5, -0.25]), 0.7)
        out = simulate_trajectory(f, st, 7.0, [1.0, 3.5, 7.0])
        assert out.status is TrajectoryStatus.COMPLETED
        for t, pos in zip(out.sample_times, out.sample_positions):
            assert np.allclose(pos, st.position + t * st.velocity, atol=1e-12)

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_sample_at_t_max_is_the_final_position(self, b):
        # samples and the final state come from the one free-flight formula
        f = ObstacleField(1, empty_params(b=b))
        st = ParticleState(np.array([0.3125, -1.7]), 2.9)
        for t_max in (0.1, 7.0, 123.456):
            out = simulate_trajectory(f, st, t_max, [0.5 * t_max, t_max])
            assert out.sample_positions[-1].tolist() == \
                out.final_state.position.tolist()


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

    @pytest.mark.filterwarnings("ignore::maglorentz.medium.RegimeWarning")
    def test_obstacle_larger_than_cell(self):
        # eps = 4 cells: the hit disk's center lies three cell rows off the ray
        f = ExplicitField(scaling_from(0.1, 1.0, 1.0, 0.0), [(1.0, 0.09)],
                          cell_size=0.025)
        out = simulate_trajectory(
            f, ParticleState(np.array([0.0, 0.0]), 0.0), 2.0)
        assert len(out.events) == 1

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf])
    def test_bad_t_max_rejected(self, t_max):
        f = ObstacleField(1, scaling_from(0.05, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="t_max"):
            simulate_trajectory(
                f, ParticleState(np.array([0.05, 0.07]), 0.3), t_max)

    @pytest.mark.parametrize("times", [[0.5, math.nan], [math.nan],
                                       [-0.1], [1.5], [0.5, 0.2]])
    def test_bad_sample_times_rejected(self, times):
        f = ObstacleField(1, scaling_from(0.05, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="sample times"):
            simulate_trajectory(
                f, ParticleState(np.array([0.05, 0.07]), 0.3), 1.0, times)

    def test_inadmissible_start_rejected(self):
        params = empty_params(eps=0.5, b=0.0)
        f = ExplicitField(params, [(0.2, 0.0)], cell_size=5.0)
        with pytest.raises(ValueError, match="start"):
            simulate_trajectory(f, ParticleState(np.array([0.0, 0.0]), 0.0), 1.0)


class TestFieldRange:
    """Cells at any index hold addressable obstacles."""

    def test_start_beyond_cell_index_2_19(self):
        # every obstacle met within t_max lies within t_max + eps of the
        # start, so all of them sit at cell index 2**19 or beyond
        params = scaling_from(0.01, 1.0, 1.0, 0.0)
        f = ObstacleField(17, params)
        t_max = 2.0
        x = 2 ** 19 * f.cell_size + t_max + 2 * params.eps
        out = simulate_trajectory(
            f, ParticleState(np.array([x, -x]), 0.3), t_max)
        assert out.events
        assert all(e.obstacle_id[0] >= 2 ** 19 for e in out.events)


def make_daisy_field(n_leaves, r=1.0, eps=0.1, phase=-0.9):
    """Obstacle placed for an exactly periodic daisy with ``n_leaves`` leaves."""
    beta = 2.0 * math.pi / n_leaves
    # distance from the orbit center solving the impact-angle relation
    delta = (eps * math.cos(beta)
             + math.sqrt(r * r - eps * eps * math.sin(beta) ** 2))
    params = medium.ScalingParams(eps=eps, mu=0.0, eta=1.0,
                                  b_magnitude=1.0 / r)
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


def concatenated_cells(f, x_lo, x_hi, y_lo, y_hi):
    """Every center of the cells meeting a rectangle, in one array, and the
    cell of each row: the concatenated block query, rebuilt as an oracle."""
    s = f.cell_size
    cells = [(ix, iy)
             for ix in range(math.floor(x_lo / s), math.floor(x_hi / s) + 1)
             for iy in range(math.floor(y_lo / s), math.floor(y_hi / s) + 1)]
    chunks = [f.cell_points(*c) for c in cells]
    owners = [c for c, pts in zip(cells, chunks) for _ in range(len(pts))]
    return np.concatenate([np.empty((0, 2))] + chunks), owners


class TestArcSearch:
    """The piece walk finds the hit of one scan of the orbit's whole square.

    Most examples also re-bucket the obstacles into cells far below one
    piece, so that the walk's pieces, not the field's cells, decide what is
    scanned.
    """

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(eps=st.floats(0.005, 0.05), mu=st.floats(0.02, 3.0),
           b=st.floats(0.5, 4.0), seed=st.integers(0, 2 ** 32),
           u=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
           snap=st.booleans(), alpha=st.floats(0.0, 2 * math.pi),
           pitch=st.one_of(st.none(), st.floats(0.02, 0.2)))
    def test_matches_concatenated_cells(self, eps, mu, b, seed, u, snap,
                                        alpha, pitch):
        params = medium.ScalingParams(eps, mu, 1.0, b)
        field_ = ObstacleField(seed, params)
        u = np.array(u)
        x = u * field_.cell_size
        if snap:  # land a few eps from a center, so some starts are rejected
            pts, _ = concatenated_cells(field_, x[0], x[0], x[1], x[1])
            if len(pts):
                x = pts[np.argmin(np.sum((pts - x) ** 2, axis=1))] + u * eps

        pts, _ = concatenated_cells(field_, x[0] - eps, x[0] + eps,
                                    x[1] - eps, x[1] + eps)
        d2 = np.sum((pts - x) ** 2, axis=1)
        free = not len(pts) or np.min(d2) > eps ** 2
        assert is_admissible_start(field_, x) == free

        start = ParticleState(x, alpha)
        c = larmor_center(*start.position, start.velocity_angle, b)
        reach = params.larmor_radius + eps
        pts, owners = concatenated_cells(field_, c[0] - reach, c[0] + reach,
                                         c[1] - reach, c[1] + reach)
        f = field_
        if pitch is not None:  # cells of 2% to 20% of the orbit radius
            f = ExplicitField(params, pts,
                              cell_size=pitch * params.larmor_radius)
        got = ls._Trajectory(f, start, 1.0, ()).next_hit(1.0)
        want = (first_arc_hit(pts, c, start.velocity_angle, b, eps)
                if len(pts) else None)
        if want is None:
            assert got is None
            return
        length, k, n = want
        got_len, (ix, iy, row), got_n, got_c = got
        assert got_len == length
        assert np.array_equal(got_n, n) and np.array_equal(got_c, pts[k])
        assert np.array_equal(f.cell(ix, iy)[row], pts[k])
        if pitch is None:
            assert (ix, iy) == owners[k]

    def test_disk_above_the_highest_point_of_a_piece(self):
        # the orbit (radius 1 about the origin) starts at phase -pi/16, so
        # the fifth piece runs from phase 7 pi/16 to 9 pi/16 and its chord
        # lies at height sin(7 pi/16) = 0.981; the disk at (0, 1.0025) lies
        # across the orbit's top and only the sagitta pad reaches its cell
        eps = 0.005
        f = ExplicitField(empty_params(eps=eps, b=1.0), [(0.0, 1.0025)],
                          cell_size=0.01)
        phase = -math.pi / 16
        start = ParticleState(np.array([math.cos(phase), math.sin(phase)]),
                              phase + math.pi / 2)
        got = ls._Trajectory(f, start, 1.0, ()).next_hit(1.0)
        assert got is not None
        length, key, _, c = got
        want = first_arc_hit(np.array([[0.0, 1.0025]]), np.zeros(2),
                             start.velocity_angle, 1.0, eps)
        assert length == want[0] and key == (0, 100, 0)
        assert c.tolist() == [0.0, 1.0025]

    def test_leaving_a_disk_finds_the_next_one(self):
        # the particle sits on top of the disk at (1, -eps), moving away
        # from it; the orbit re-enters that disk only near sweep 2 pi, so
        # the first piece's cells already hold a hit, but the disk at phase
        # 3 pi/4, met pieces later, is hit first
        eps = 0.005
        far = np.array([math.cos(0.75 * math.pi), math.sin(0.75 * math.pi)])
        f = ExplicitField(empty_params(eps=eps, b=1.0), [(1.0, -eps), far],
                          cell_size=0.05)
        start = ParticleState(np.array([1.0, 0.0]), math.pi / 2)
        length, key, _, c = ls._Trajectory(f, start, 1.0, ()).next_hit(1.0)
        assert length == pytest.approx(0.75 * math.pi - eps, abs=1e-4)
        assert np.array_equal(c, far)
        assert np.array_equal(f.cell(*key[:2])[key[2]], far)


class TestRaySearch:
    """The segment scan agrees with a scan of every cell of the whole leg.

    The oracle runs the kernel cell by cell, so it checks the search's
    grouped scan, one kernel call on the concatenated cells of a piece.
    """

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(eps=st.floats(0.002, 0.05), density=st.floats(0.005, 0.3),
           seed=st.integers(0, 2 ** 32),
           u=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
           snap=st.sampled_from([(), (0,), (1,), (0, 1)]),
           alpha=st.one_of(st.floats(0.0, 2 * math.pi),
                           st.integers(0, 7).map(lambda k: k * math.pi / 4)),
           paths=st.floats(0.01, 8.0),
           pitch=st.one_of(st.none(), st.floats(0.25, 100.0)))
    # cells far below eps, and legs from near a corner that enter the
    # field cells around it and hit something there
    @example(eps=0.01, density=0.3, seed=5, u=(-0.5, -0.5), snap=(),
             alpha=0.3, paths=8.0, pitch=0.25)
    def test_matches_every_cell_of_the_leg(self, eps, density, seed, u, snap,
                                           alpha, paths, pitch):
        # density = mu_eff * eps^2, up to far beyond the dilute regime; the
        # start offset and the leg are sized in mean free paths, so a leg
        # from near the corner of four field cells crosses several of them
        # at low density, and many re-bucketed cells at any density
        params = medium.ScalingParams(eps, density / eps, 1.0, 0.0)
        field_ = ObstacleField(seed, params)
        s = field_.cell_size if pitch is None else pitch * eps
        mfp = eps / (2.0 * density)
        x = np.array(u) * mfp
        for axis in snap:  # start on a cell edge
            x[axis] = round(x[axis] / s) * s
        max_len = paths * mfp
        for turn in range(8):  # a fan of rays; multiples of pi/4 stay so
            start = ParticleState(x, alpha + turn * math.pi / 4)
            v = start.velocity
            end = x + max_len * v
            x_lo, x_hi = sorted((x[0], end[0]))
            y_lo, y_hi = sorted((x[1], end[1]))
            f = field_
            if pitch is not None:  # the same obstacles, cells finer or coarser
                pts, _ = concatenated_cells(f, x_lo - eps, x_hi + eps,
                                            y_lo - eps, y_hi + eps)
                f = ExplicitField(params, pts, cell_size=s)
            got = ls._Trajectory(f, start, 1.0, ()).next_hit(max_len)
            want = None
            for ix in range(math.floor((x_lo - eps) / s),
                            math.floor((x_hi + eps) / s) + 1):
                for iy in range(math.floor((y_lo - eps) / s),
                                math.floor((y_hi + eps) / s) + 1):
                    pts = f.cell_points(ix, iy)
                    found = (first_ray_entry(pts, x, v, eps, max_len)
                             if len(pts) else None)
                    if found and (want is None or found[0] < want[0]):
                        want = (found[0], ix, iy, pts[found[1]])
            if want is None:
                assert got is None
                continue
            tau, ix, iy, c = want
            got_tau, (cell_x, cell_y, row), got_n, got_c = got
            assert got_tau == tau
            assert np.array_equal(got_c, c)
            assert np.array_equal(got_n, impact_normal(*(x + tau * v), *c, eps))
            assert (cell_x, cell_y) == (ix, iy)
            assert np.array_equal(f.cell(ix, iy)[row], c)

    def test_far_candidate_does_not_stop_the_scan(self):
        # cells of 0.8 eps: the first segment's cells hold the disk at
        # (0.23, 0.095), entered at 0.199 past the segment end 0.08; the disk
        # at (0.245, 0), entered first at 0.145, lies in a cell met later
        f = ExplicitField(empty_params(eps=0.1), [(0.23, 0.095), (0.245, 0.0)],
                          cell_size=0.08)
        tr = ls._Trajectory(f, ParticleState(np.zeros(2), 0.0), 1.0, ())
        tau, key, _, c = tr.next_hit(1.0)
        assert tau == pytest.approx(0.145, abs=1e-12)
        assert c.tolist() == [0.245, 0.0]
        assert key == (3, 0, 0)


def _near_arc_center(o, r, phase0, sweep, eps, spot):
    """A point placed about the arc: on its circle's 2 eps band, near one
    of its ends, or anywhere in the orbit's square."""
    where, angle, factor = spot
    reach = ls.NEAR_MISS_FACTOR * eps
    if where == "band":  # radius R +- factor * 2 eps, factor 1 on the edge
        rad = r + math.copysign(factor * reach, math.cos(3 * angle))
        return o + rad * np.array([math.cos(angle), math.sin(angle)])
    if where in ("start", "end"):
        phase = phase0 + (sweep if where == "end" else 0.0)
        end = o + r * np.array([math.cos(phase), math.sin(phase)])
        return end + factor * reach * np.array([math.cos(angle),
                                                math.sin(angle)])
    return o + r * np.array([math.cos(angle), math.sin(3 * angle)])


class TestNearMissCut:
    """A B > 0 arc's near-miss test, with its circle cut, gives the verdict
    of the numpy distance oracle; a straight leg is not checked at all."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(eps=st.floats(1e-4, 0.05), b=st.floats(0.25, 8.0),
           pos=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           alpha=st.floats(0.0, 2 * math.pi),
           sweep=st.one_of(st.floats(0.0, 3 * math.pi),
                           st.sampled_from([0.0, math.pi, 2 * math.pi,
                                            2.5 * math.pi])),
           spots=st.lists(st.tuples(
               st.sampled_from(["band", "start", "end", "square"]),
               st.floats(0.0, 2 * math.pi),
               st.one_of(st.just(1.0), st.floats(0.0, 3.0))),
               min_size=1, max_size=12),
           excluded=st.one_of(st.none(), st.integers(0, 11)))
    def test_cut_counts_as_the_distance_test(self, eps, b, pos, alpha, sweep,
                                             spots, excluded):
        start = ParticleState(np.array(pos), alpha)
        tr = ls._Trajectory(ObstacleField(1, empty_params(eps=eps, b=b)),
                            start, 1.0, ())
        r = 1.0 / b
        o = larmor_center(*start.position, start.velocity_angle, b)
        phase0 = start.velocity_angle - 0.5 * math.pi
        ids = [(0, 0, i) for i in range(len(spots))]
        for oid, spot in zip(ids, spots):
            c = _near_arc_center(o, r, phase0, sweep, eps, spot)
            tr.register_hit(oid, c, 0.0, 0.0)
        hit_id = None if excluded is None else (0, 0, excluded)
        kept = [tr.hit_centers[oid] for oid in ids
                if oid not in (hit_id, tr.prev_id)]
        length = sweep * r
        want = bool(kept) and bool(np.any(
            point_to_arc_distances(np.asarray(kept), o, r, phase0, length / r)
            <= ls.NEAR_MISS_FACTOR * eps))
        tr.check_near_miss(length, hit_id)
        assert tr.near_miss == want

    def test_straight_leg_not_checked(self):
        # a hit center on the leg itself: no near miss without a field
        tr = ls._Trajectory(ObstacleField(1, empty_params(b=0.0)),
                            ParticleState(np.zeros(2), 0.0), 1.0, ())
        tr.register_hit((0, 0, 0), (0.5, 0.0), 0.0, 0.0)
        tr.register_hit((0, 0, 1), (-1.0, 0.0), 0.0, 0.0)
        tr.check_near_miss(1.0, None)
        assert not tr.near_miss


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

    def test_pool_no_larger_than_work(self, monkeypatch):
        # fork starts every worker of the pool at the first submit, so the
        # pool must not outnumber the chunks; this pool runs them in-process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(ls, "ProcessPoolExecutor", SerialPool)
        params = scaling_from(0.05, 1.0, 1.0, 0.0)
        one = msd_estimate(params, 3, [0.5], seed=4, workers=1)
        # nor the CPUs; a host that reports none gets one process
        for cpus, size in ((64, 3), (2, 2), (None, 1)):
            monkeypatch.setattr(ls.os, "cpu_count", lambda n=cpus: n)
            wide = msd_estimate(params, 3, [0.5], seed=4, workers=64)
            assert sizes.pop() == size and not sizes
            assert np.array_equal(wide.msd, one.msd)

    def test_short_time_ballistic_regime(self):
        # well below the mean free time MSD(t) is near t^2; the exact
        # expectation 2 (nu t - 1 + e^(-nu t)) / nu^2, with velocity
        # relaxation rate nu = 8 mu eta / 3, keeps the first-collision term
        # -nu t^3 / 3 (-1.8% at t = 0.02)
        params = scaling_from(5e-3, 1.0, 1.0, 0.0)  # rate 2, free path 0.5
        res = msd_estimate(params, 200, [0.01, 0.02], seed=5)
        nu = 8.0 / 3.0
        for got, t in zip(res.msd, (0.01, 0.02)):
            want = 2.0 * (nu * t - 1.0 + math.exp(-nu * t)) / nu ** 2
            assert got == pytest.approx(want, rel=0.02)

    def test_all_aborted_raises(self):
        params = scaling_from(4e-3, 1.0, 2.0, 1.0)
        with pytest.raises(ChatteringError,
                           match="all 6 replicas at eps=0.004 reached max_events=1"):
            msd_estimate(params, 6, [2.0], seed=9, max_events=1)

    def test_fewer_than_two_left_raises(self, monkeypatch):
        # one replica has no standard error; it used to come out as NaN
        params = scaling_from(4e-3, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="at least 2 replicas"):
            msd_estimate(params, 1, [0.5], seed=10)
        # about 20 collisions expected by t = 5, so every replica reaches
        # the cap whatever the field
        with pytest.raises(ChatteringError,
                           match="all 3 replicas at eps=0.004 reached "
                                 "max_events=2, fewer than 2 left"):
            msd_estimate(params, 3, [5.0], seed=10, max_events=2)
        # one replica left of three: the message counts the two aborted
        kept = ([0.1], TrajectoryStatus.COMPLETED, 5.0, False, False)
        monkeypatch.setattr(ls, "_run_replicas",
                            lambda *args: [[None, kept, None]])
        with pytest.raises(ChatteringError,
                           match="2 of 3 replicas at eps=0.004 reached "
                                 "max_events=2, fewer than 2 left"):
            msd_estimate(params, 3, [5.0], seed=10, max_events=2)


class TestEventRateStudy:
    def test_validation(self):
        with pytest.raises(ValueError):
            event_rate_study([0.5, 0.6], 1.0, 1.0, 1.0, 1.0, 10, 0)
        with pytest.raises(ValueError):
            event_rate_study([1.5], 1.0, 1.0, 1.0, 1.0, 10, 0)

    def test_no_field_refused_before_any_replica(self, monkeypatch):
        # near misses, the interference count, are only taken on arcs
        def no_run(*args):
            raise AssertionError("a replica ran")

        monkeypatch.setattr(ls, "_run_replicas", no_run)
        with pytest.raises(ValueError, match="b_magnitude > 0"):
            event_rate_study([4e-3, 2e-3], 2.0, 1.0, 0.0, 0.5, 10, seed=9)

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
        # two CPUs on any host, so the pool is not capped below two
        monkeypatch.setattr(ls.os, "cpu_count", lambda: 2)
        pooled = event_rate_study([4e-3, 2e-3], 2.0, 1.0, 1.0, 0.5, 8,
                                  seed=9, workers=2)
        assert made == [{"max_workers": 2}]
        serial = event_rate_study([4e-3, 2e-3], 2.0, 1.0, 1.0, 0.5, 8,
                                  seed=9, workers=1)
        assert pooled.rows == serial.rows

    def test_recollision_rate_scales_down(self):
        res = event_rate_study([4e-3, 1e-3], 2.0, 1.0, 1.0, 3.0, 500, seed=13,
                               workers=4)
        p = res.probabilities("recollision")
        assert p[0] > p[1] > 0.0
        assert res.exponents["recollision"] > 0.2


def record_text(records) -> str:
    """One line per replica record, every float in hex."""
    lines = []
    for rec in records:
        if rec is None:
            lines.append("aborted")
            continue
        sq, status, status_time, recollided, near_miss = rec
        lines.append(" ".join([*map(float.hex, sq), status.value,
                               float.hex(status_time), str(recollided),
                               str(near_miss)]))
    return "\n".join(lines)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenDigest:
    """Pinned SHA-256 digests of replica records and event probabilities.

    The hit geometry takes its transcendentals from the C library, writes
    every dot product as a plain ``a*b + c*d`` and leaves numpy only
    correctly rounded elementwise arithmetic (see ``maglorentz.geometry``),
    so these bytes must not depend on the numpy or BLAS build.  What still varies is the C library's ``sin``,
    ``cos``, ``atan2``, ``acos`` and ``hypot``, and numpy's Philox and
    Poisson streams, which draw the cells and the starts.  The scaling
    study's exponent fit (``np.polyfit`` goes through LAPACK) and the msd
    averages (numpy's SIMD reductions) are left out.
    """

    T_GRID = (10.0, 20.0, 30.0, 40.0)
    RECORDS = {
        0.0: "d1308016052152eec461a9c62b03b0c9d81115b292cd263e9b2f41a7acb41166",
        1.5: "fd66d2d05af5ee4601b4a73dcc9ae2f136119ddfcc319f5da7899ffa638e66c9",
    }
    SCALING = "4bc131d6adc0f03392094b8037aff5a4abb3d3cce6f28e4b2dd794e28b87eb14"

    @pytest.mark.parametrize("b", sorted(RECORDS))
    def test_replica_records(self, b):
        params = scaling_from(0.01, 1.0, 1.0, b)
        records = ls._replica_chunk(
            (params, 4242, (0xF1E1D,), (), 0, 8, self.T_GRID, self.T_GRID[-1],
             ls.DEFAULT_MAX_EVENTS))
        assert sha256(record_text(records)) == self.RECORDS[b]

    def test_scaling_probabilities(self):
        res = event_rate_study([4e-3, 2e-3, 1e-3], 1.0, 1.0, 1.5, 5.0, 24,
                               seed=77)
        assert sha256("\n".join(
            " ".join(float.hex(p) for p in (
                r.p_recollision, r.p_interference, r.p_daisy, r.p_circling))
            for r in res.rows)) == self.SCALING

import math

import numpy as np
import pytest

from maglorentz.geometry import (advance_free, arc_passes_within,
                                 deflection_from_impact, first_arc_hit,
                                 first_ray_entry, larmor_center, reflect)

from geometry_reference import direction, point_to_arc_distances

TWO_PI = 2.0 * math.pi


def position(st):
    """The position of a state ``(x, y, angle)``, as an array."""
    return np.array(st[:2])


class TestLarmorCenter:
    def test_unit_field_center_above(self):
        c = larmor_center(0.0, 0.0, 0.0, 1.0)
        assert np.allclose(c, [0.0, 1.0], atol=1e-15)

    def test_half_radius(self):
        c = larmor_center(0.0, 0.0, math.pi / 2, 2.0)
        assert np.allclose(c, [-0.5, 0.0], atol=1e-15)

    def test_distance_is_radius(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            st = (*rng.normal(size=2), rng.uniform(0, TWO_PI))
            c = larmor_center(*st, 1.0)
            assert math.hypot(*(c - position(st))) == pytest.approx(1.0, abs=1e-12)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            larmor_center(0.0, 0.0, 0.0, 0.0)


class TestAdvanceFree:
    def test_full_period_identity(self):
        st = (0.3, -1.2, 1.1)
        out = advance_free(*st, 2.5, TWO_PI / 2.5)
        assert np.allclose(out[:2], st[:2], atol=1e-12)
        assert out[2] == pytest.approx(st[2], abs=1e-12)

    def test_half_orbit_antipode(self):
        out = advance_free(0.0, 0.0, 0.0, 1.0, math.pi)
        assert np.allclose(out[:2], [0.0, 2.0], atol=1e-12)
        assert out[2] == pytest.approx(math.pi, abs=1e-12)

    def test_straight_flight(self):
        out = advance_free(0.0, 0.0, 0.0, 0.0, 3.0)
        assert np.allclose(out[:2], [3.0, 0.0])
        assert out[2] == 0.0

    def test_semigroup_and_speed(self):
        rng = np.random.default_rng(1)
        for b in (0.0, 0.7, 3.0):
            for _ in range(40):
                st = (*rng.normal(size=2), rng.uniform(0, TWO_PI))
                t1, t2 = rng.uniform(0, 2, size=2)
                one = advance_free(*st, b, t1 + t2)
                two = advance_free(*advance_free(*st, b, t1), b, t2)
                assert np.allclose(one[:2], two[:2], atol=1e-12)
                assert abs(math.remainder(one[2] - two[2], TWO_PI)) < 1e-12
                # unit speed: a step of h moves the particle by h
                h = 1e-6
                step = advance_free(*one, b, h)
                assert math.hypot(step[0] - one[0], step[1] - one[1]) == \
                    pytest.approx(h, rel=1e-6)


def hit_oracle(st, b, center, radius, horizon, step=1e-5):
    """Dense time stepping of the signed distance, bisection refinement."""
    def gap(tau):
        pos = position(advance_free(*st, b, tau))
        return math.hypot(*(pos - center)) - radius

    taus = np.arange(0.0, horizon + step, step)
    if b == 0.0:
        pos = position(st) + taus[:, None] * direction(st[2])
    else:
        orbit = larmor_center(*st, b)
        phase = st[2] - 0.5 * math.pi + b * taus
        pos = orbit + np.stack([np.cos(phase), np.sin(phase)], axis=1) / b
    g = np.hypot(pos[:, 0] - center[0], pos[:, 1] - center[1]) - radius
    crossings = np.flatnonzero((g[1:] <= 0.0) & (g[:-1] > 0.0))
    if len(crossings) == 0:
        return None
    lo, hi = float(taus[crossings[0]]), float(taus[crossings[0] + 1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def kernel_hit(st, b, centers, radius, horizon):
    """(tau, row, normal) of the first hit the production kernels report.

    B > 0 goes through ``first_arc_hit`` and B = 0 through
    ``first_ray_entry``, the calls the event-driven simulator makes.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if b == 0.0:
        return first_ray_entry(centers, st[:2], direction(st[2]), radius,
                               horizon)
    orbit = larmor_center(*st, b)
    got = first_arc_hit(centers, orbit, st[2], b, radius)
    return None if got is None or got[0] > horizon else got


def grazing_at(st, b, tau, center, radius):
    """|v.n| at flight time ``tau`` on the disk boundary."""
    after = advance_free(*st, b, tau)
    nvec = (position(after) - center) / radius
    return abs(float(direction(after[2]) @ nvec))


class TestFirstArcDiskHit:
    def test_straight_head_on(self):
        got = kernel_hit((0.0, 0.0, 0.0), 0.0, [5.0, 0.0], 0.1, 100.0)
        assert got is not None
        tau, _, n = got
        assert tau == pytest.approx(4.9, abs=1e-12)
        assert np.allclose(n, [-1.0, 0.0], atol=1e-12)

    def test_disk_outside_orbit_reach(self):
        got = kernel_hit((0.0, 0.0, 0.0), 1.0, [10.0, 10.0], 0.1, 100.0)
        assert got is None

    def test_orbit_top_hit_matches_oracle(self):
        st = (0.0, 0.0, 0.0)
        center = np.array([0.0, 2.0])
        got = kernel_hit(st, 1.0, center, 0.1, TWO_PI)
        assert got is not None
        tau, _, n = got
        ref = hit_oracle(st, 1.0, center, 0.1, TWO_PI)
        assert ref is not None
        assert tau == pytest.approx(ref, abs=1e-8)
        pos = position(advance_free(*st, 1.0, tau))
        assert math.hypot(*(pos - center)) == pytest.approx(0.1, abs=1e-12)
        assert np.allclose(n, (pos - center) / 0.1, atol=1e-9)

    def test_oracle_agreement_random(self):
        # mixed-field random configurations against the stepping oracle
        rng = np.random.default_rng(7)
        n_checked = 0
        for i in range(1000):
            b = 0.0 if i % 3 == 0 else float(rng.uniform(0.8, 8.0))
            st = (*rng.normal(scale=0.5, size=2), rng.uniform(0, TWO_PI))
            # bias half the disks toward the flight path so hits are common
            if i % 2 == 0:
                horizon0 = TWO_PI / b if b > 0 else 3.0
                on_path = position(
                    advance_free(*st, b, rng.uniform(0.1, horizon0)))
                center = on_path + rng.normal(scale=0.1, size=2)
            else:
                center = position(st) + rng.normal(scale=1.0, size=2)
            radius = float(rng.uniform(0.02, 0.3))
            if math.hypot(*(position(st) - center)) <= radius + 1e-3:
                continue
            horizon = TWO_PI / b if b > 0 else 3.0
            got = kernel_hit(st, b, center, radius, horizon)
            ref = hit_oracle(st, b, center, radius, horizon)
            if ref is not None and ref > horizon:
                ref = None
            # the stepping oracle cannot certify grazing contacts; skip the
            # disagreements that sit within the grazing tolerance band
            if (got is None) != (ref is None):
                if ref is not None:
                    assert grazing_at(st, b, ref, center, radius) < 1e-4
                continue
            if got is not None:
                assert got[0] == pytest.approx(ref, abs=1e-8)
                n_checked += 1
        assert n_checked > 300

    @pytest.mark.parametrize("b", [0.0, 2.0])
    def test_first_hit_among_many_disks(self, b):
        # the kernels pick the earliest of several candidate disks: their hit
        # is the minimum of the per-disk oracle times
        rng = np.random.default_rng(11)
        horizon = TWO_PI / b if b > 0 else 3.0
        n_disks = 6
        n_checked = 0
        for _ in range(40):
            st = (*rng.normal(scale=0.5, size=2), rng.uniform(0, TWO_PI))
            radius = float(rng.uniform(0.02, 0.2))
            on_path = [advance_free(*st, b, t)[:2]
                       for t in rng.uniform(0.1, horizon, size=n_disks)]
            centers = np.array(on_path) + rng.normal(scale=radius,
                                                     size=(n_disks, 2))
            if np.min(np.hypot(*(centers - position(st)).T)) <= radius + 1e-3:
                continue
            refs = [hit_oracle(st, b, c, radius, horizon) for c in centers]
            singles = [kernel_hit(st, b, c, radius, horizon) for c in centers]
            if any((got is None) != (ref is None)
                   for got, ref in zip(singles, refs)):
                for got, ref, c in zip(singles, refs, centers):
                    if got is None and ref is not None:
                        assert grazing_at(st, b, ref, c, radius) < 1e-4
                continue
            got = kernel_hit(st, b, centers, radius, horizon)
            hit_refs = [ref for ref in refs if ref is not None]
            assert (got is None) == (not hit_refs)
            if got is None:
                continue
            tau, k, _ = got
            assert tau == pytest.approx(min(hit_refs), abs=1e-8)
            assert tau == pytest.approx(
                min(s[0] for s in singles if s is not None), abs=1e-12)
            assert refs[k] == pytest.approx(tau, abs=1e-8)
            n_checked += 1
        assert n_checked >= 25

    def test_ray_hit_independent_of_grouping(self):
        # centers passed as one array give bitwise the hit of the earliest
        # cell passed on its own, so the search may group cells freely;
        # one-row cells are the ones a matrix-vector product rounds apart
        rng = np.random.default_rng(12)
        eps, max_len = 0.01, 3.0
        for _ in range(200):
            pos = rng.normal(scale=50.0, size=2)
            v = direction(rng.uniform(0, TWO_PI))
            side = np.array([-v[1], v[0]])
            cells = [pos + np.outer(rng.uniform(0.05, max_len, k), v)
                     + np.outer(rng.uniform(-eps, eps, k), side)
                     for k in rng.choice([1, 2, 30], size=8)]
            want = None
            for pts in cells:
                found = first_ray_entry(pts, pos, v, eps, max_len)
                if found and (want is None or found[0] < want[0]):
                    want = found
            got = first_ray_entry(np.concatenate(cells), pos, v, eps, max_len)
            assert got[0] == want[0]
            assert np.array_equal(got[2], want[2])


class TestNearMissDistances:
    """Distances to an arc against the nearest of 20k points on it."""

    N_SAMPLES = 20_000

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            center = rng.normal(size=2)
            radius = rng.uniform(0.3, 2.0)
            phase0 = rng.uniform(-math.pi, math.pi)
            sweep = rng.uniform(0.05, TWO_PI)
            pts = center + rng.uniform(-2.0, 2.0, size=(50, 2)) * radius
            phi = phase0 + np.linspace(0.0, sweep, self.N_SAMPLES)
            curve = center + radius * np.column_stack([np.cos(phi), np.sin(phi)])
            dense = np.min(np.hypot(pts[:, None, 0] - curve[None, :, 0],
                                    pts[:, None, 1] - curve[None, :, 1]), axis=1)
            yield rng, center, radius, phase0, sweep, pts, dense

    def test_arc(self):
        # the near-miss oracle of tests/geometry_reference.py
        for _, center, radius, phase0, sweep, pts, dense in self.cases(41):
            got = point_to_arc_distances(pts, center, radius, phase0, sweep)
            assert np.max(np.abs(got - dense)) < 1e-3 * radius * sweep

    def test_arc_passes_within(self):
        # points clear of the reach by more than the dense arc's error
        n_checked = 0
        for rng, center, radius, phase0, sweep, pts, dense in self.cases(43):
            reach = rng.uniform(0.01, 1.0) * radius
            clear = np.abs(dense - reach) > 1e-3 * radius * sweep
            for p, d in zip(pts[clear].tolist(), dense[clear]):
                assert arc_passes_within([p], center.tolist(), radius,
                                         phase0, sweep, reach) == (d <= reach)
                n_checked += 1
            # one point within reach is enough
            assert arc_passes_within(pts[clear].tolist(), center.tolist(),
                                     radius, phase0, sweep, reach) == bool(
                np.any(dense[clear] <= reach))
        assert n_checked >= 900


class TestReflect:
    def test_head_on_reversal(self):
        out = reflect(0.0, -1.0, 0.0)
        assert out == pytest.approx(math.pi, abs=1e-12)

    def test_grazing_unchanged(self):
        out = reflect(0.0, 0.0, 1.0)
        assert out == pytest.approx(0.0, abs=1e-12)

    def test_mirror_45_degrees(self):
        out = reflect(0.0, -math.sqrt(0.5), math.sqrt(0.5))
        assert out == pytest.approx(math.pi / 2, abs=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(0, TWO_PI)
            n = direction(rng.uniform(0, TWO_PI))
            assert reflect(reflect(a, *n), *n) == pytest.approx(a, abs=1e-12)

    def test_deflection_convention_consistency(self):
        # the angle shift of a reflection equals the signed deflection of the
        # impact parameter b = cross(v, n), modulo a full turn
        rng = np.random.default_rng(4)
        for _ in range(300):
            a = rng.uniform(0, TWO_PI)
            v = direction(a)
            # only approach-side normals qualify: v.n < 0
            n = direction(rng.uniform(0, TWO_PI))
            if float(v @ n) >= -1e-6:
                continue
            b = float(v[0] * n[1] - v[1] * n[0])
            shift = reflect(a, *n) - a
            expected = deflection_from_impact(b)
            assert abs(math.remainder(shift - expected, TWO_PI)) < 1e-10


class TestDeflection:
    def test_head_on(self):
        assert deflection_from_impact(0.0) == pytest.approx(math.pi)

    def test_grazing(self):
        assert deflection_from_impact(1.0) == pytest.approx(0.0, abs=1e-12)
        assert deflection_from_impact(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_right_angle(self):
        th = deflection_from_impact(math.sqrt(0.5))
        assert th == pytest.approx(math.pi / 2, abs=1e-12)
        assert math.cos(th) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_identity(self):
        rng = np.random.default_rng(5)
        b = rng.uniform(-1, 1, size=1000)
        assert np.allclose(np.cos(deflection_from_impact(b)), 2 * b * b - 1,
                           atol=1e-12)

    def test_domain_error(self):
        for b in (1.2, -1.2, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError):
                deflection_from_impact(b)


def self_recollision_angle(delta, larmor_radius, eps):
    """Half-angle at the obstacle between successive impacts, from the kernel.

    The orbit (center at the origin) meets an obstacle at ``(delta, 0)``;
    the angle between the kernel's impact normal and the direction from the
    obstacle to the orbit center is the self-recollision half-angle.  None
    when the kernel reports no impact.
    """
    obstacle = np.array([delta, 0.0])
    got = first_arc_hit(obstacle[None, :], np.zeros(2), 0.0,
                        1.0 / larmor_radius, eps)
    if got is None:
        return None
    return math.acos(float(got[2] @ (-obstacle / delta)))


class TestSelfRecollisionAngle:
    def test_outer_edge(self):
        beta = self_recollision_angle(1.1 - 1e-12, 1.0, 0.1)
        assert beta == pytest.approx(0.0, abs=1e-4)

    def test_inner_edge(self):
        beta = self_recollision_angle(0.9 + 1e-12, 1.0, 0.1)
        assert beta == pytest.approx(math.pi, abs=1e-4)

    def test_against_circle_intersection(self):
        # explicit intersection of the orbit circle with the obstacle circle
        delta, r, eps = 1.0, 1.0, 0.1
        beta = self_recollision_angle(delta, r, eps)
        assert beta == pytest.approx(math.acos(0.05), abs=1e-12)
        # oracle: intersection points of |p| = r and |p - (delta, 0)| = eps
        a = (delta ** 2 + eps ** 2 - r ** 2) / (2 * delta)
        h = math.sqrt(eps ** 2 - a ** 2)
        p1 = np.array([delta - a, h])
        obstacle = np.array([delta, 0.0])
        u = p1 - obstacle  # from the obstacle center toward one impact point
        angle_from_origin_dir = math.pi - math.atan2(abs(u[1]), u[0])
        assert beta == pytest.approx(angle_from_origin_dir, abs=1e-12)

    def test_monotone_decreasing(self):
        r, eps = 1.0, 0.1
        deltas = np.linspace(r - eps + 1e-9, r + eps - 1e-9, 200)
        betas = [self_recollision_angle(float(d), r, eps) for d in deltas]
        assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))

    def test_domain_errors(self):
        # outside the annulus R - eps < delta < R + eps the orbit never hits
        assert self_recollision_angle(0.8, 1.0, 0.1) is None
        assert self_recollision_angle(1.2, 1.0, 0.1) is None

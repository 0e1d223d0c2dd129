"""The float forms of the hit geometry give the bits of the array forms.

``geometry_reference`` keeps the array forms the event loop used to run
on.  Every length, row, coordinate, angle and normal component of the
float forms is compared with ``==``, over random inputs, near-grazing
contacts, contacts just past the departure guard, and candidate arrays of
0, 1 and many rows.  One difference is allowed: when two disks are met at
the same sweep, the array form broke the tie by numpy's argsort, whose
order among equal keys depends on the numpy build, and the float form
takes the lower row.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maglorentz.geometry import (DEPARTURE_GUARD, TWO_PI, ParticleState,
                                 advance_free, first_arc_hit,
                                 first_ray_entry, larmor_center, reflect,
                                 unit_vector)

import geometry_reference as ref

COORD = st.floats(-1e3, 1e3)
ANGLE = st.floats(0.0, TWO_PI, exclude_max=True)
FIELD = st.floats(0.05, 20.0)
ROWS = st.sampled_from([0, 1, 3, 40])
# where a disk sits relative to the leg: anywhere it can be hit, with an
# almost grazing contact, with its contact just past the departure guard,
# or out of reach
PLACEMENT = st.tuples(st.sampled_from(["hit", "grazing", "guard", "far"]),
                      st.floats(0.0, 1.0), st.floats(-1.0, 1.0))


def same_hit(got, want):
    if want is None:
        return got is None
    length, k, n = want
    return (got is not None and got[0] == length and got[1] == k
            and got[2][0] == n[0] and got[2][1] == n[1])


@st.composite
def arc_cases(draw):
    """(centers, orbit center, velocity angle, B, eps) of one arc search."""
    b = draw(FIELD)
    r = 1.0 / b
    eps = draw(st.floats(1e-4, 0.2)) * r
    o = np.array([draw(COORD), draw(COORD)])
    alpha = draw(ANGLE)
    phase0 = alpha - 0.5 * math.pi
    guard = DEPARTURE_GUARD * b
    n = draw(ROWS)
    centers = []
    for kind, u, w in draw(st.lists(PLACEMENT, min_size=n, max_size=n)):
        if kind == "far":
            centers.append(o + 3.0 * r * np.array([u, w]))
            continue
        # contact at sweep sw with normal at angle theta from -v, v.n < 0
        sw = guard * (1.0 + 1e-3 * w) if kind == "guard" else u * TWO_PI
        theta = 0.5 * math.pi * w
        if kind == "grazing":  # |v.n| = sin(delta), from 1e-14 to 1e-6
            theta = math.copysign(0.5 * math.pi - 10.0 ** (-14 + 8 * u), w)
        p = o + r * unit_vector(phase0 + sw)
        centers.append(p - eps * unit_vector(alpha + sw + math.pi + theta))
    return np.array(centers).reshape(-1, 2), o, alpha, b, eps


@st.composite
def ray_cases(draw):
    """(centers, position, direction, eps, max_len) of one ray search."""
    eps = draw(st.floats(1e-4, 0.1))
    max_len = draw(st.floats(1e-3, 10.0))
    x = np.array([draw(COORD), draw(COORD)])
    v = unit_vector(draw(ANGLE))
    side = np.array([-v[1], v[0]])
    n = draw(ROWS)
    centers = []
    for kind, u, w in draw(st.lists(PLACEMENT, min_size=n, max_size=n)):
        perp = eps * w
        if kind == "grazing":  # half-chord about 0, a few ulps either way
            perp = math.copysign(eps * (1.0 + 4e-16 * (2.0 * u - 1.0)), w)
        half = math.sqrt(max(eps * eps - perp * perp, 0.0))
        along = {"hit": (1.2 * u - 0.1) * max_len + half,
                 "grazing": u * max_len,
                 "guard": DEPARTURE_GUARD * (1.0 + 1e-3 * w) + half,
                 "far": (u + 2.0) * max_len + 2.0 * eps}[kind]
        centers.append(x + along * v + perp * side)
    return np.array(centers).reshape(-1, 2), x, v, eps, max_len


class TestFloatForms:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(x=COORD, y=COORD, alpha=ANGLE,
           b=st.one_of(st.just(0.0), FIELD), tau=st.floats(0.0, 50.0))
    def test_advance_free_and_larmor_center(self, x, y, alpha, b, tau):
        start = ParticleState(np.array([x, y]), alpha)
        want = ref.advance_free(start, b, tau)
        assert advance_free(x, y, alpha, b, tau) == (
            *want.position.tolist(), want.velocity_angle)
        if b > 0.0:
            assert larmor_center(x, y, alpha, b) == tuple(
                ref.larmor_center(start.position, alpha, b).tolist())

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(alpha=ANGLE, phi=ANGLE, grazing=st.one_of(
        st.none(), st.floats(-1e-9, 1e-9)))
    def test_reflect(self, alpha, phi, grazing):
        if grazing is not None:  # normal almost across the velocity
            phi = alpha + 0.5 * math.pi + grazing
        n = unit_vector(phi)
        assert reflect(alpha, *n.tolist()) == ref.reflect(alpha, n)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(case=arc_cases())
    def test_first_arc_hit(self, case):
        centers, o, alpha, b, eps = case
        want = ref.first_arc_hit(centers, o, alpha, b, eps)
        got = first_arc_hit(centers, tuple(o.tolist()), alpha, b, eps)
        if got is not None and want is not None and got[1] < want[1]:
            # a tie: the lower row is hit at the same length on its own
            alone = ref.first_arc_hit(centers[got[1]:got[1] + 1], o, alpha,
                                      b, eps)
            assert alone[0] == want[0]
            want = alone[0], got[1], alone[2]
        assert same_hit(got, want)

    def test_tie_goes_to_the_lower_row(self):
        # three copies of one disk
        o, alpha, b, eps = np.zeros(2), 0.0, 1.0, 0.1
        p = unit_vector(-0.5 * math.pi + 1.0)
        disk = p - eps * unit_vector(1.0 + math.pi + 0.3)
        centers = np.array([disk, disk, disk])
        got = first_arc_hit(centers, (0.0, 0.0), alpha, b, eps)
        assert got[1] == 0
        assert same_hit(got, ref.first_arc_hit(centers[:1], o, alpha, b, eps))

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(case=ray_cases())
    def test_first_ray_entry(self, case):
        centers, x, v, eps, max_len = case
        want = ref.first_ray_entry(centers, x, v, eps, max_len)
        got = first_ray_entry(centers, tuple(x.tolist()), tuple(v.tolist()),
                              eps, max_len)
        assert same_hit(got, want)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n=st.sampled_from([1, 3, 8, 17, 1000]),
           seed=st.integers(0, 2 ** 32), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_ray_squares_on_columns_equal_einsum(self, n, seed, scale):
        # the ray kernel sums a row's squares from its two columns, where
        # the array form took einsum of the row with itself
        rel = np.random.default_rng(seed).normal(0.0, scale, (n, 2))
        rx, ry = rel[:, 0], rel[:, 1]
        assert np.array_equal(rx * rx + ry * ry,
                              np.einsum("ij,ij->i", rel, rel))

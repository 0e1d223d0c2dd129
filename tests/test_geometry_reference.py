"""The float forms of the hit geometry against their references.

``larmor_center``, ``advance_free`` and ``first_ray_entry`` must give the
bits of the array forms the event loop used to run on: every length,
row, coordinate, angle and normal component is compared with ``==``.
``reflect`` and ``first_arc_hit`` take their transcendentals from the C
library and are held to 50-digit ``mpmath`` oracles instead, within a few
units of roundoff carried through the condition of each step.  The inputs
cover random placements, near-grazing contacts, contacts just past the
departure guard, and candidate arrays of 0, 1 and many rows.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maglorentz.geometry import (DEPARTURE_GUARD, GRAZING_TOL, TWO_PI,
                                 advance_free, first_arc_hit, first_ray_entry,
                                 larmor_center, reflect)

import geometry_reference as ref
from geometry_reference import direction

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


#: unit roundoff of a float
U = 2.0 ** -53
#: "a few ulp": the roundoffs of one step, carried through its condition
ULPS = 8


def arc_hit_tolerances(row, o, alpha, b, eps):
    """Error bounds of the float kernel's sweep, length, normal and v.n.

    The sweep adds rounded angles of up to a few pi and a clamped acos,
    whose error grows as 1/sin(gamma) near tangency; the contact point is
    rounded at the size of the orbit center's coordinates, and the normal
    divides that error by eps.
    """
    ox, oy = o
    r = 1.0 / b
    phase0 = alpha - 0.5 * math.pi
    sin_g = math.sin(row["gamma"])
    sweep = ULPS * U * (4.0 * math.pi + abs(phase0)) + (
        ULPS * U / sin_g if sin_g > 0.0 else math.inf)
    length = r * sweep + ULPS * U * row["length"]
    phase = sweep + ULPS * U * (abs(phase0) + TWO_PI)
    point = r * phase + ULPS * U * (abs(ox) + abs(oy) + r)
    normal = point / eps + ULPS * U
    vn = 2.0 * normal + phase + ULPS * U * (abs(alpha) + TWO_PI)
    return sweep, length, normal, vn


def arc_row_status(row, tol, o, b, eps):
    """"hit", "miss" or "maybe": whether the float kernel must take the
    row, must pass it over, or may do either because the row lies within
    its error bounds of the annulus, the departure guard, the grazing
    threshold or the 2 pi wrap of the sweep."""
    r = 1.0 / b
    band = ULPS * U * (r + eps) ** 2
    if row["inner"] < -band or row["outer"] < -band or "sweep" not in row:
        return "miss"
    sweep_tol, _, _, vn_tol = tol
    sw, guard = row["sweep"], DEPARTURE_GUARD * b
    statuses = {
        "miss" if row["vn"] > -GRAZING_TOL + vn_tol else
        "hit" if row["vn"] < -GRAZING_TOL - vn_tol else "maybe",
        "miss" if sweep_tol <= sw <= guard - sweep_tol else
        "hit" if guard + sweep_tol < sw < TWO_PI - sweep_tol else "maybe",
        "hit" if min(row["inner"], row["outer"]) > band else "maybe"}
    return min(statuses, key=["miss", "maybe", "hit"].index)


def check_arc_hit(got, centers, o, alpha, b, eps):
    """``got`` is a hit the exact geometry allows, within its bounds."""
    rows = ref.exact_arc_rows(centers, o, alpha, b, eps)
    tols = [arc_hit_tolerances(row, o, alpha, b, eps) if "sweep" in row
            else None for row in rows]
    status = [arc_row_status(row, tol, o, b, eps)
              for row, tol in zip(rows, tols)]
    hits = [k for k, st_ in enumerate(status) if st_ == "hit"]
    if got is None:
        assert not hits
        return
    length, k, (nx, ny) = got
    assert status[k] != "miss"
    row, (sweep_tol, length_tol, normal_tol, _) = rows[k], tols[k]
    # no sure hit comes clearly before the kernel's own sweep, which may
    # have wrapped past 2 pi where the exact one is near 0
    for j in hits:
        assert rows[j]["sweep"] + tols[j][0] >= length * b - 2.0 * sweep_tol
    assert abs(math.remainder(length - row["length"], TWO_PI / b)) \
        <= length_tol
    assert abs(nx - row["normal"][0]) <= normal_tol
    assert abs(ny - row["normal"][1]) <= normal_tol


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
        p = o + r * direction(phase0 + sw)
        centers.append(p - eps * direction(alpha + sw + math.pi + theta))
    return np.array(centers).reshape(-1, 2), o, alpha, b, eps


@st.composite
def ray_cases(draw):
    """(centers, position, direction, eps, max_len) of one ray search."""
    eps = draw(st.floats(1e-4, 0.1))
    max_len = draw(st.floats(1e-3, 10.0))
    x = np.array([draw(COORD), draw(COORD)])
    v = direction(draw(ANGLE))
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
        position = np.array([x, y])
        want_position, want_angle = ref.advance_free(position, alpha, b, tau)
        assert advance_free(x, y, alpha, b, tau) == (
            *want_position.tolist(), want_angle)
        if b > 0.0:
            assert larmor_center(x, y, alpha, b) == tuple(
                ref.larmor_center(position, alpha, b).tolist())

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(alpha=ANGLE, phi=ANGLE, grazing=st.one_of(
        st.none(), st.floats(-1e-9, 1e-9)))
    def test_reflect(self, alpha, phi, grazing):
        if grazing is not None:  # normal almost across the velocity
            phi = alpha + 0.5 * math.pi + grazing
        nx, ny = direction(phi).tolist()
        got = reflect(alpha, nx, ny)
        want = ref.exact_reflect(alpha, nx, ny)
        assert abs(math.remainder(got - want, TWO_PI)) \
            <= ULPS * U * TWO_PI

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(case=arc_cases())
    def test_first_arc_hit(self, case):
        centers, o, alpha, b, eps = case
        o = tuple(o.tolist())
        check_arc_hit(first_arc_hit(centers, o, alpha, b, eps), centers, o,
                      alpha, b, eps)

    def test_tie_goes_to_the_lower_row(self):
        # three copies of one disk
        alpha, b, eps = 0.0, 1.0, 0.1
        p = direction(-0.5 * math.pi + 1.0)
        disk = p - eps * direction(1.0 + math.pi + 0.3)
        centers = np.array([disk, disk, disk])
        got = first_arc_hit(centers, (0.0, 0.0), alpha, b, eps)
        assert got[1] == 0
        assert got == first_arc_hit(centers[:1], (0.0, 0.0), alpha, b, eps)
        check_arc_hit(got, centers, (0.0, 0.0), alpha, b, eps)

    def test_clamped_tangency_is_grazing(self):
        # near tangency the clamped acos is too coarse for the oracle to
        # place v.n against GRAZING_TOL; at a contact cosine that rounds to
        # 1 the contact is the tangency itself, v.n is rounding noise, and
        # the grazing rule must pass the disk over
        alpha, r, eps = 0.3, 1.0, 0.1
        u = direction(2.0)
        d = r + eps
        while True:  # the kernel's annulus test and contact cosine
            d = math.nextafter(d, 0.0)
            cx, cy = (d * u).tolist()
            d_sq = cx * cx + cy * cy
            e = math.sqrt(d_sq)
            if (d_sq < (r + eps) ** 2
                    and (e * e + r * r - eps * eps) / (2.0 * e * r) >= 1.0):
                break
        b = 1.0 / r
        assert first_arc_hit(np.array([[cx, cy]]), (0.0, 0.0), alpha, b,
                             eps) is None
        deeper = np.array([(r + 0.5 * eps) * u])
        assert first_arc_hit(deeper, (0.0, 0.0), alpha, b, eps) is not None

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

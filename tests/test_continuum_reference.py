"""The continuum Monte Carlo estimators against their grid forms.

``continuum_reference`` keeps the Green-Kubo reduction with a cosine per
path and grid point, and the annulus void count with every radius through
``np.hypot``.  The package sums each phase-table row (path, jumps taken)
over its run of grid times, so its Green-Kubo sums round differently:
they must match the grid form's within a bound derived from the
summation, while the grid, the circling fraction, the path count and the
jump counts behind each run must match exactly.  The package decides
``np.hypot`` only on the points of a squared-radius window, drawn and
counted in blocks, which relies on numpy computing each element to the
same bits in whatever array it sits; its points are drawn on tiles that
must list every tile of the grid that meets the annulus, which a
``Fraction`` oracle checks.  The deflection of an impact,
computed in place, must give the bits of its chain of temporaries.  Void
counts and deflections are compared with ``==`` and ``tobytes``.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maglorentz import _rng
from maglorentz import boltzmann_process as bp
from maglorentz import medium
from maglorentz.geometry import deflection_from_impact

import continuum_reference as ref

# (lumped, include_rotation, wandering_only)
ROUTES = [(True, False, False), (False, True, False), (False, False, False),
          (False, True, True), (False, False, True)]


def estimate(f, *args):
    """A Green-Kubo estimate, or its error message."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def assert_close(got, want, t_cut, spin, wandering):
    """``got`` has ``want``'s grid, circling fraction, path count or error,
    and its sums within their rounding.

    The two forms add the same cosines in other orders.  Each per-grid-time
    sum is off by about u = 2^-52 per path and per running-sum step, so its
    mean by (n_grid + n) u, and a path's integral by the same times t_cut,
    the largest weight sum.  With rotation the grid form rounds phase +
    spin before its cosine, which adds about u per radian of that sum; the
    bound counts the rotation's part, at most ``spin``.  The bound takes 8
    times the total.  ``vacf_se`` is compared squared, times the paths
    kept (``wandering``: the wandering ones), as the variance its square
    root would magnify near 0.
    """
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert (got.t_grid.tobytes(), got.circling_fraction, got.n_paths) == \
        (want.t_grid.tobytes(), want.circling_fraction, want.n_paths)
    kept = want.n_paths
    if wandering:
        kept -= round(want.circling_fraction * want.n_paths)
    tol = 8.0 * (len(want.t_grid) + want.n_paths + spin) * 2.0 ** -52
    assert np.all(np.abs(got.vacf - want.vacf) <= tol)
    assert np.all(np.abs(got.vacf_se ** 2 - want.vacf_se ** 2) * kept
                  <= 4.0 * tol)
    assert abs(got.d_estimate - want.d_estimate) <= tol * t_cut
    assert abs(got.std_error - want.std_error) <= tol * t_cut


def compare_routes(args, route):
    """The package's estimate against the grid form's, on one route."""
    lumped, rotation, wandering = route
    mu, period, n, t_cut, dt_quad, seed = args
    if lumped:
        got = estimate(bp.green_kubo_mc, *args)
        want = estimate(ref.green_kubo_mc, *args)
    else:
        got = estimate(bp.velocity_autocorrelation_paths, *args, rotation,
                       wandering)
        want = estimate(ref.vacf_mc, *args, False, rotation, wandering)
    assert_close(got, want, t_cut,
                 2.0 * math.pi * t_cut / period if rotation else 0.0,
                 wandering)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(mu=st.floats(0.05, 3.0),
       period=st.one_of(st.floats(0.05, 5.0), st.just(math.inf)),
       t_cut=st.floats(0.1, 4.0), dt_quad=st.floats(0.02, 0.5),
       n=st.integers(2, 60), seed=st.integers(0, 2 ** 32),
       block=st.sampled_from([5, 16, bp.GK_BLOCK]),
       route=st.sampled_from(ROUTES))
def test_green_kubo_matches_grid_form(mu, period, t_cut, dt_quad, n, seed,
                                      block, route):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bp, "block_paths", lambda *_: block)
        compare_routes((mu, period, n, t_cut, dt_quad, seed), route)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 30), lam=st.floats(0.0, 8.0),
       n_grid=st.integers(1, 40), seed=st.integers(0, 2 ** 32))
def test_row_runs_match_grid_form(n, lam, n_grid, seed):
    # a path's times in any order, some of them on grid times or past the
    # last one.  At each grid index exactly one row of each path covers it,
    # and it is the row of the jumps the grid form counts at or before that
    # time: the grid form's phase when every deflection is 1
    rng = np.random.default_rng(seed)
    counts = rng.poisson(lam, n)
    total = int(counts.sum())
    t_grid = np.arange(n_grid) * 0.25
    times = rng.integers(0, 4 * n_grid + 2, total) / 8.0
    first, stop = bp._row_runs(counts, np.searchsorted(t_grid, times),
                               n_grid)
    want = np.vstack([c for _, _, c in ref.phase_chunks(
        counts, times, np.ones(total), t_grid)])
    covered = np.zeros((n, n_grid), dtype=np.int64)
    got = np.zeros((n, n_grid), dtype=np.int64)
    row = 0
    for p in range(n):
        for c in range(counts[p] + 1):
            assert 0 <= first[row] <= stop[row] <= n_grid
            covered[p, first[row]:stop[row]] += 1
            got[p, first[row]:stop[row]] = c
            row += 1
    assert row == len(first) == len(stop)
    assert np.all(covered == 1)
    assert np.array_equal(got, want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mu=st.floats(0.05, 3.0),
       period=st.one_of(st.floats(0.05, 5.0), st.just(math.inf)),
       t_cut=st.floats(0.1, 4.0), dt_quad=st.floats(0.02, 0.5),
       n=st.integers(1, 40), seed=st.integers(0, 2 ** 32),
       lumped=st.booleans())
def test_grid_bins_match_search(mu, period, t_cut, dt_quad, n, seed, lumped):
    # with a grid, each jump's time gives way to the bin that searching the
    # grid for it gives; every other output and the draws stay.  The grid
    # holds every other jump time, so that those jumps fall on grid times
    plain = bp._block_jumps(mu, period, t_cut, n, _rng.generator(seed, 0xEF),
                            lumped)
    t_grid = np.union1d(bp._trapezoid_grid(t_cut, dt_quad)[0], plain[1][::2])
    binned = bp._block_jumps(mu, period, t_cut, n, _rng.generator(seed, 0xEF),
                             lumped, t_grid)
    assert np.array_equal(binned[1], np.searchsorted(t_grid, plain[1]))
    for a, b in zip(plain[:1] + plain[2:], binned[:1] + binned[2:]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lumped", [True, False])
def test_green_kubo_matches_grid_form_over_blocks(lumped):
    # two full blocks and a partial one, at the production block
    compare_routes((1.0, 1.0, 2 * bp.block_paths(1.0, 2.0) + 301, 2.0, 0.05,
                    777),
                   (True, False, False) if lumped else (False, True, False))


@pytest.mark.parametrize("n", [1, 2, 65_535, 65_536, 70_000])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(lam=st.sampled_from([0.0, 0.3, 3.0]),
       ties=st.sampled_from([2, 1000, None]), seed=st.integers(0, 2 ** 32))
def test_sorted_jumps_match_lexsort(n, lam, ties, seed):
    # uint8 path indices up to n = 256, uint16 up to 65,536, uint32 above;
    # each rate leaves paths without jumps; with ``ties``, the times take
    # that many values, so equal times fall within and across paths
    rng = np.random.default_rng(seed)
    counts = rng.poisson(lam, n)
    total = int(counts.sum())
    raw_t = rng.random(total) if ties is None else \
        rng.integers(0, ties, total) / ties
    path_of, times = bp._sorted_jumps(counts, raw_t)
    want_path = np.repeat(np.arange(n), counts)
    assert np.array_equal(path_of, want_path)
    want = ref.sorted_jump_times(raw_t, want_path)
    assert times.tobytes() == want.tobytes()
    # the grid bins, searched in the global order, are those of the
    # grouped times; with ``ties``, some times fall on grid times
    t_grid = np.arange(11) / 10
    assert np.array_equal(bp._sorted_jumps(counts, raw_t, t_grid)[1],
                          np.searchsorted(t_grid, want))


def shell_points(rng, rho, k):
    """``k`` points at random angles within 3 ulps of radius ``rho``."""
    a = rng.uniform(0.0, 2.0 * math.pi, k)
    scale = 1.0 + rng.integers(-3, 4, k) * np.finfo(float).eps
    return np.column_stack([rho * np.cos(a), rho * np.sin(a)]) * scale[:, None]


def blocks_of(pts, size):
    """``pts`` in consecutive blocks of ``size`` rows, the last one shorter."""
    return (pts[i:i + size] for i in range(0, len(pts), size))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(r=st.floats(0.01, 5.0), eps=st.floats(1e-3, 3.0),
       lam=st.floats(0.0, 30.0), n=st.integers(1, 60),
       shell=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 32))
def test_void_count_matches_hypot(r, eps, lam, n, shell, seed):
    # uniform points in the annulus's box, a share of them moved onto the
    # two boundary circles, where the window and hypot must agree
    rng = np.random.default_rng(seed)
    counts = rng.poisson(lam, n)
    total = int(counts.sum())
    half = r + eps
    pts = rng.random((total, 2)) * (2.0 * half) - half
    moved = rng.random(total) < shell
    on_outer = rng.random(total) < 0.5
    for mask, rho in ((moved & on_outer, r + eps), (moved & ~on_outer, r - eps)):
        pts[mask] = shell_points(rng, abs(rho), int(np.count_nonzero(mask)))
    want = ref.void_count(pts, counts, r, eps)
    # the points whole, and in blocks that split samples
    for size in (max(total, 1), 7, 1):
        assert medium._void_count(blocks_of(pts, size), counts, r, eps) == want


def boundary_points(r, eps):
    """Points on, and ulp steps inside and outside, both circles."""
    pts = []
    for rho in (r - eps, r + eps):
        if rho < 0.0:
            continue
        steps = np.array([np.nextafter(rho, -math.inf), rho,
                          np.nextafter(rho, math.inf)])
        zeros = np.zeros(3)
        pts += [np.column_stack([steps, zeros]),
                np.column_stack([zeros, -steps])]
        # x swept across the circle in ulp steps at fixed y, at 1,000 angles
        a = np.linspace(0.0, 2.0 * math.pi, 1001)[:-1]
        x, y = rho * np.cos(a), rho * np.sin(a)
        for k in range(-4, 5):
            pts.append(np.column_stack([x + k * np.spacing(x), y]))
    return np.concatenate(pts)


def test_boundary_points_defeat_an_unpadded_window():
    # on these points x*x + y*y and hypot order some points differently
    # against a circle, so a window without its margin would decide wrong
    r, eps = 1.0, 0.01
    pts = boundary_points(r, eps)
    sq = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    rad = np.hypot(pts[:, 0], pts[:, 1])
    rho = r - eps
    assert np.any((rad > rho) & ~(sq > rho * rho))


@pytest.mark.parametrize("r, eps", [(1.0, 0.01), (0.25, 0.5), (0.3, 0.3),
                                    (1e3, 1e-3), (0.5, 0.125),
                                    # squares that underflow: no window
                                    (1e-160, 2e-161)])
def test_void_count_on_the_boundaries(r, eps):
    pts = boundary_points(r, eps)
    rad = np.hypot(pts[:, 0], pts[:, 1])
    # the set meets each circle exactly and has points on both sides of it
    for rho in (r - eps, r + eps):
        if rho >= 0.0:
            assert np.any(rad == rho)
            assert np.any(rad < rho) or rho == 0.0
            assert np.any(rad > rho)
    n = len(pts)
    for counts in (np.ones(n, dtype=np.int64), np.array([n]),
                   np.array([3] * (n // 3) + [n % 3])):
        want = ref.void_count(pts, counts, r, eps)
        assert medium._void_count([pts], counts, r, eps) == want
        assert medium._void_count(blocks_of(pts, 7), counts, r, eps) == want
    # point by point: a point counts as a void sample exactly when hypot
    # puts it on or outside a circle
    inside = (rad > r - eps) & (rad < r + eps)
    assert medium._void_count([pts], np.ones(n, dtype=np.int64), r, eps) == \
        n - np.count_nonzero(inside)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(total=st.integers(0, 100), block=st.sampled_from([1, 7, 16, 128]),
       seed=st.integers(0, 2 ** 32))
def test_tile_blocks_continue_one_stream(total, block, seed):
    # the blocks are the points of one (total, 3) draw, placed on their
    # tiles, and leave the stream where that draw does
    s, tile_x, tile_y = medium._annulus_tiles(1.0, 0.3)
    gen = _rng.generator(seed, _rng.STREAM_ANNULUS)
    got = [pts.copy() for pts in medium._tile_blocks(
        gen, total, np.empty((block, 3)), s, tile_x, tile_y)]
    want = _rng.generator(seed, _rng.STREAM_ANNULUS)
    pts = ref.tile_points(want.random((total, 3)), s, tile_x, tile_y)
    assert np.concatenate(got + [np.empty((0, 2))]).tobytes() == pts.tobytes()
    assert gen.random() == want.random()


class FixedDraws:
    """A generator stand-in whose ``random(out=)`` hands out fixed rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def random(self, out):
        out[:] = self.rows[:len(out)]
        self.rows = self.rows[len(out):]
        return out


def test_tile_pick_stays_on_the_tiles():
    # the smallest draw takes the first tile and the largest the last
    s, tile_x, tile_y = medium._annulus_tiles(1.0, 0.3)
    top = 1.0 - 2.0 ** -53
    u = np.array([[0.0, 0.0, 0.0], [top, 0.5, 0.25], [0.5, top, top]])
    (pts,) = medium._tile_blocks(FixedDraws(u), 3, np.empty((3, 3)), s,
                                 tile_x, tile_y)
    assert pts.tobytes() == ref.tile_points(u, s, tile_x, tile_y).tobytes()
    assert pts[:2].tolist() == [[tile_x[0] * s, tile_y[0] * s],
                                [(tile_x[-1] + 0.5) * s,
                                 (tile_y[-1] + 0.25) * s]]


def square_meets_annulus(x0, x1, y0, y1, lo, hi):
    """Exactly: does the closed square [x0, x1] x [y0, y1] meet lo < |p| < hi?

    Its distances from the origin fill [near, far], so it meets the open
    annulus when near < hi and far > lo.  Every argument is a Fraction.
    """
    def nearest(a, b):
        return 0 if a <= 0 <= b else min(abs(a), abs(b))

    near = nearest(x0, x1) ** 2 + nearest(y0, y1) ** 2
    far = max(abs(x0), abs(x1)) ** 2 + max(abs(y0), abs(y1)) ** 2
    return near < hi * hi and (lo < 0 or far > lo * lo)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(eps=st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e),
       ratio=st.floats(-6.0, 7.0).map(lambda e: 10.0 ** e))
@example(eps=0.5, ratio=0.5)              # R < eps: no inner circle
@example(eps=0.25, ratio=1.0)             # R = eps
@example(eps=0.01, ratio=100.0)           # the continuum config's annulus
@example(eps=2e-161, ratio=5.0)           # squares that underflow
@example(eps=1e-3, ratio=1e6)             # R / eps >= 1e5: the grid cap binds
@example(eps=1e-5, ratio=1e5)
@example(eps=1.0, ratio=3.0)              # tile corners on the outer circle
@example(eps=1.0, ratio=4.0 + 5e-8)       # (3, 4) just inside the outer one
@example(eps=1.0, ratio=6.0 - 5e-8)       # (3, 4) just outside the inner one
def test_tiles_cover_the_annulus(eps, ratio):
    r = eps * ratio
    s, tile_x, tile_y = medium._annulus_tiles(r, eps)
    listed = set(zip(tile_x.tolist(), tile_y.tolist()))
    assert len(listed) == len(tile_x)
    assert s == max(eps, 2.0 * (r + eps) / medium._ANNULUS_GRID)
    # every tile of a grid a tile wider than the outer circle, with its
    # corners as the floats the points are placed between
    k = math.ceil((r + eps) / s) + 1
    assert k <= medium._ANNULUS_GRID // 2 + 2
    i = np.arange(-k, k, dtype=float)
    c0, c1 = i * s, (i + 1.0) * s
    near = np.where(c0 > 0.0, c0, np.where(c1 < 0.0, -c1, 0.0))
    far = np.maximum(np.abs(c0), np.abs(c1))
    # hypot has no underflow; a relative 1e-6 far exceeds its rounding, so
    # a tile outside this band cannot meet the annulus
    maybe = ((np.hypot(near[:, None], near) <= (r + eps) * (1.0 + 1e-6))
             & (np.hypot(far[:, None], far) >= (r - eps) * (1.0 - 1e-6)))
    band = {(i[a], i[b]) for a, b in zip(*np.nonzero(maybe))}
    # no tile is listed twice or far from the annulus, and every tile of
    # the band left out misses it exactly
    assert listed <= band
    lo, hi = Fraction(r - eps), Fraction(r + eps)
    for x, y in band - listed:
        corners = [Fraction(v) for v in (x * s, (x + 1.0) * s,
                                         y * s, (y + 1.0) * s)]
        assert not square_meets_annulus(*corners, lo, hi)


def annulus_params(eps, mu_eff, b):
    return medium.ScalingParams(eps=eps, mu=mu_eff * eps, eta=1.0,
                                b_magnitude=b)


def chunk_counts(params, n, seed):
    """Counts of each chunk ``empty_annulus_probability_mc`` draws."""
    seen = []
    count = medium._void_count

    def spy(blocks, counts, r, eps):
        seen.append(counts)
        return count(blocks, counts, r, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(medium, "_void_count", spy)
        medium.empty_annulus_probability_mc(params, (0.0, 0.0), n, seed)
    return seen


@pytest.mark.parametrize("eps, mu_eff, b, n", [
    (0.01, 25.0, 1.0, 2000),      # the continuum config's annulus
    (0.01, 25.0, 1.0, 40000),     # chunks of at most 2^15 samples
    (0.01, 5e4, 1.0, 27),         # about 1e4 points a sample
    (0.01, 5e5, 1.0, 45),         # about 1e5 points a sample: three chunks,
                                  # a sample spans about six blocks
    (0.5, 40.0, 4.0, 3000),       # R < eps: no inner circle
    (0.25, 80.0, 4.0, 3000),      # R = eps
    (2e-3, 200.0, 0.05, 7)])      # a wide annulus: the grid cap sets the
                                  # tile side, not eps
def test_annulus_estimate_matches_hypot(eps, mu_eff, b, n):
    params = annulus_params(eps, mu_eff, b)
    for seed in (2026, 7):
        est = medium.empty_annulus_probability_mc(params, (0.0, 0.0), n, seed)
        assert est.estimate == ref.empty_annulus_void(params, n, seed) / n


@pytest.mark.parametrize("eps, mu_eff, b, n, seed, shape", [
    # about 8 points a sample, so samples span blocks of 7, and 21 voids
    (0.01, 40.0, 1.0, 3000, 2026, "several"),
    # 231 points in the one chunk: 33 blocks of 7 exactly
    (0.01, 8.0, 1.0, 150, 2020, "multiple"),
    # no point in the one chunk: nothing is drawn, every sample is void
    (0.01, 1e-3, 1.0, 3, 2026, "empty")])
@pytest.mark.parametrize("block", [1, 7, medium._ANNULUS_BLOCK])
def test_annulus_estimate_in_any_block(eps, mu_eff, b, n, seed, shape, block):
    params = annulus_params(eps, mu_eff, b)
    (counts,) = chunk_counts(params, n, seed)
    total = int(counts.sum())
    assert {"several": counts.max() > 7, "multiple": total % 7 == 0,
            "empty": total == 0}[shape]
    want = ref.empty_annulus_void(params, n, seed) / n
    assert 0.0 < want <= 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(medium, "_ANNULUS_BLOCK", block)
        est = medium.empty_annulus_probability_mc(params, (0.0, 0.0), n, seed)
    assert est.estimate == want


# the ends and zeros of the domain, and the smallest normal and subnormal
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0 ** -1022, -(2.0 ** -1074)]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.sampled_from([0, 1, 7, 100_000]), seed=st.integers(0, 2 ** 32))
def test_deflection_matches_temporaries(n, seed):
    b = np.concatenate([EDGES, np.random.default_rng(seed).uniform(-1, 1, n)])
    assert deflection_from_impact(b).tobytes() == \
        ref.deflection_from_impact(b).tobytes()
    for x in [*EDGES, np.float64(0.25), np.array(-0.75)]:
        got, want = deflection_from_impact(x), ref.deflection_from_impact(x)
        assert type(got) is float
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want


def test_deflection_memory():
    # in place, the traced peak is the result plus a boolean mask; the
    # chain of temporaries peaks near 3.1 times the result
    b = np.random.default_rng(5).uniform(-1.0, 1.0, 1_000_000)
    tracemalloc.start()
    try:
        deflection_from_impact(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * b.nbytes

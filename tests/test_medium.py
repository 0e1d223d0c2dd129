import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maglorentz import _rng, medium
from maglorentz.medium import (AnnulusVoidEstimate, ObstacleField,
                               RegimeWarning, empty_annulus_probability_mc,
                               is_admissible_start, scaling_from)

from explicit_field import ExplicitField


def empty_params(eps=0.05, b=0.0):
    r = 1.0 / b if b > 0 else math.inf
    t = 2 * math.pi / b if b > 0 else math.inf
    return medium.ScalingParams(eps=eps, mu=0.0, eta=1.0, mu_eff=0.0,
                                b_magnitude=b, larmor_radius=r, t_larmor=t)


def b0_params(mu_eff, eps=1e-3):
    """B = 0 parameters of obstacle intensity mu_eff."""
    return medium.ScalingParams(eps=eps, mu=mu_eff * eps, eta=1.0, mu_eff=mu_eff,
                                b_magnitude=0.0, larmor_radius=math.inf,
                                t_larmor=math.inf)


def generator_cell(field, ix, iy):
    """Cell (ix, iy) drawn from its own Generator, outside the field object."""
    lam = field.params.mu_eff * field.cell_size ** 2
    gen = _rng.generator(field.master_seed, _rng.STREAM_FIELD_CELL, ix, iy)
    pts = gen.random((int(gen.poisson(lam)), 2))
    pts[:, 0] += ix
    pts[:, 1] += iy
    return pts * field.cell_size


class TestScalingParams:
    def test_intensity_formula(self):
        p = scaling_from(0.01, 1.0, 1.0)
        assert p.mu_eff == pytest.approx(100.0)

    def test_arithmetic_example(self):
        p = scaling_from(1e-4, 1.0, 2.0)
        assert p.mu_eff == pytest.approx(2e4)
        assert p.error_number == pytest.approx(0.32, rel=1e-12)

    def test_regime_warning_eta(self):
        with pytest.warns(RegimeWarning, match="eta"):
            scaling_from(0.01, 1.0, 10.0)

    def test_regime_warning_dense(self):
        with pytest.warns(RegimeWarning, match="dilute"):
            scaling_from(0.2, 3.0, 1.0)

    def test_dilute_threshold_itself_does_not_warn(self):
        # eta * mu * eps = 1 * 2 * 0.05 is 0.1 exactly; mu_eff * eps^2 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            p = scaling_from(0.05, 2.0, 1.0)
        assert p.dilute_number == 0.1
        with pytest.warns(RegimeWarning, match="dilute"):
            scaling_from(0.05, 2.000001, 1.0)

    def test_larmor_fields(self):
        p = scaling_from(0.01, 1.0, 1.0, b_magnitude=2.0)
        assert p.larmor_radius == pytest.approx(0.5)
        assert p.t_larmor == pytest.approx(math.pi)

    def test_invalid(self):
        with pytest.raises(ValueError):
            scaling_from(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            scaling_from(0.1, 0.0, 1.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 1.0, 0.0), (1e-3, math.nan, 1.0, 0.0),
        (1e-3, 1.0, math.nan, 0.0), (1e-3, 1.0, 1.0, math.nan),
        (math.inf, 1.0, 1.0, 0.0), (1e-3, math.inf, 1.0, 0.0),
        (1e-3, 1.0, math.inf, 0.0), (1e-3, 1.0, 1.0, math.inf)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            scaling_from(*args)


class TestObstacleField:
    def test_empty_intensity(self):
        f = ObstacleField(1, empty_params())
        assert len(f.cell_points(3, -2)) == 0

    def test_determinism_same_cell(self):
        p = scaling_from(0.05, 1.0, 1.0)
        f1 = ObstacleField(99, p)
        f2 = ObstacleField(99, p)
        a = f1.cell_points(5, 7)
        b = f2.cell_points(5, 7)
        assert np.array_equal(a, b)
        assert np.array_equal(a, f1.cell_points(5, 7))

    def test_query_order_irrelevant(self):
        p = scaling_from(0.05, 1.0, 1.0)
        cells = [(0, 0), (4, -3), (-2, 9), (1, 1)]
        first = [ObstacleField(7, p).cell_points(*c) for c in cells]
        second = [ObstacleField(7, p).cell_points(*c)
                  for c in reversed(cells)][::-1]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_points_inside_cell(self):
        p = scaling_from(0.05, 1.0, 1.0)
        f = ObstacleField(3, p)
        s = f.cell_size
        pts = f.cell_points(-4, 2)
        assert np.all(pts[:, 0] >= -4 * s) and np.all(pts[:, 0] < -3 * s)
        assert np.all(pts[:, 1] >= 2 * s) and np.all(pts[:, 1] < 3 * s)

    def test_mean_count_matches_intensity(self):
        # 1e5 cells; the mean count must sit within 3 standard errors
        p = scaling_from(0.05, 1.0, 1.0)
        f = ObstacleField(123, p)
        lam = p.mu_eff * f.cell_size ** 2
        n = 100_000
        counts = np.fromiter(
            (len(f.cell_points(i, 0)) for i in range(n)), dtype=float, count=n)
        se = math.sqrt(lam / n)
        assert abs(counts.mean() - lam) < 3 * se

    def test_translation_consistency(self):
        # per-cell count statistics do not depend on where the cells sit
        p = scaling_from(0.05, 1.0, 1.0)
        f = ObstacleField(5, p)
        blocks = {
            "near": [(i, j) for i in range(20) for j in range(25)],
            "far": [(i + 503, j - 890) for i in range(20) for j in range(25)],
        }
        stats = {}
        for name, cells in blocks.items():
            counts = np.array([len(f.cell_points(*c)) for c in cells], dtype=float)
            stats[name] = (counts.mean(), counts.var())
        lam = p.mu_eff * f.cell_size ** 2
        se = math.sqrt(lam / 500)
        assert abs(stats["near"][0] - stats["far"][0]) < 6 * se
        assert abs(stats["near"][1] - lam) < 0.3 * lam
        assert abs(stats["far"][1] - lam) < 0.3 * lam

    def test_cell_size_invariant_for_orbits(self):
        p = scaling_from(0.01, 1.0, 1.0, b_magnitude=1.0)
        f = ObstacleField(1, p)
        assert f.cell_size >= 2 * (p.larmor_radius + p.eps)

    def test_rectangle_cells_in_order_and_cell_memoized(self):
        f = ObstacleField(9, scaling_from(0.05, 1.0, 1.0))
        s = f.cell_size
        assert list(f.cells_meeting(-0.5 * s, 1.5 * s, 0.2 * s, 1.2 * s)) == [
            (ix, iy) for ix in (-1, 0, 1) for iy in (0, 1)]
        pts = f.cell(0, 1)
        assert np.array_equal(pts, f.cell_points(0, 1))
        assert f.cell(0, 1) is pts


class TestB0Pitch:
    @pytest.mark.parametrize("mu_eff", [1e-2, 1.0, 1e3, 1e7])
    def test_cell_holds_thirty_on_average(self, mu_eff):
        f = ObstacleField(1, b0_params(mu_eff))
        assert f.params.mu_eff * f.cell_size ** 2 == pytest.approx(30.0,
                                                                   rel=1e-12)

    def test_empty_field_pitch_finite(self):
        # mu_eff = 0 keeps 10 eps instead of sqrt(30 / 0)
        assert ObstacleField(1, empty_params(eps=0.05)).cell_size == \
            pytest.approx(0.5)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           ix=st.integers(-2 ** 40, 2 ** 40), iy=st.integers(-2 ** 40, 2 ** 40),
           mu_eff=st.floats(1e-2, 1e7))
    def test_cell_equals_generator_draw(self, seed, ix, iy, mu_eff):
        f = ObstacleField(seed, b0_params(mu_eff))
        for dx, dy in ((0, 0), (1, 0), (0, -1)):
            got = f.cell(ix + dx, iy + dy)
            assert np.array_equal(got, generator_cell(f, ix + dx, iy + dy))


def b_params(eps, mu_eff, b):
    """B > 0 parameters of obstacle intensity mu_eff."""
    return medium.ScalingParams(eps=eps, mu=mu_eff * eps, eta=1.0,
                                mu_eff=mu_eff, b_magnitude=b,
                                larmor_radius=1.0 / b, t_larmor=2 * math.pi / b)


# an x-range's start and width in cell units, from the cell's left edge:
# any value, or a whole number of strips, so ranges cross the cell's edges
# and start or end on strip edges
_CELL_X = st.one_of(st.floats(-0.3, 1.3),
                    st.integers(-3, medium.N_STRIPS + 3).map(
                        lambda j: j / medium.N_STRIPS))
_CELL_WIDTH = st.one_of(st.floats(0.0, 0.6),
                        st.integers(0, 64).map(lambda j: j / medium.N_STRIPS))


class TestSlab:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(eps=st.floats(1e-3, 0.05), mu_eff=st.floats(1.0, 4000.0),
           b=st.floats(0.5, 4.0), seed=st.integers(0, 2 ** 64 - 1),
           cells=st.lists(st.tuples(st.integers(-2 ** 30, 2 ** 30),
                                    st.integers(-3, 3)),
                          min_size=1, max_size=3),
           ranges=st.lists(st.tuples(_CELL_X, _CELL_WIDTH),
                           min_size=1, max_size=6))
    def test_slab_holds_every_center_of_the_range(self, eps, mu_eff, b, seed,
                                                  cells, ranges):
        f = ObstacleField(seed, b_params(eps, mu_eff, b))
        drawn = []
        draw = f.cell_points

        def counting_draw(ix, iy):
            drawn.append((ix, iy))
            return draw(ix, iy)

        object.__setattr__(f, "cell_points", counting_draw)
        s = f.cell_size
        for ix, iy in cells:
            for u, width in ranges:
                x_lo = (ix + u) * s
                x_hi = x_lo + width * s
                pts, first = f.slab(ix, iy, x_lo, x_hi)
                cell = f.cell(ix, iy)
                assert np.array_equal(pts, cell[first:first + len(pts)])
                inside = np.flatnonzero((cell[:, 0] >= x_lo)
                                        & (cell[:, 0] <= x_hi))
                assert np.all((inside >= first)
                              & (inside < first + len(pts)))
        assert sorted(set(drawn)) == sorted(drawn) == sorted(set(cells))

    def test_cell_stored_once_in_strip_order(self):
        f = ObstacleField(5, b_params(0.01, 200.0, 1.0))
        s = f.cell_size
        cell = f.cell(-3, 2)
        drawn = f.cell_points(-3, 2)
        key = np.clip(np.floor((drawn[:, 0] / s + 3) * medium.N_STRIPS),
                      0, medium.N_STRIPS - 1)
        # a stable sort of the draw by strip key: draw order within a strip
        assert not np.all(np.diff(key) >= 0)
        assert np.array_equal(cell, drawn[np.argsort(key, kind="stable")])
        pts, first = f.slab(-3, 2, -2.7 * s, -2.6 * s)
        assert first > 0 and len(pts) > 0
        assert np.shares_memory(pts, cell)
        assert f.cell(-3, 2) is cell

    def test_layout_follows_the_count(self):
        # a B > 0 cell of fewer than N_STRIPS centers (about 41 here) is
        # kept whole, in draw order
        f = ObstacleField(5, b_params(0.01, 10.0, 1.0))
        s = f.cell_size
        cell = f.cell(1, -2)
        assert 0 < len(cell) < medium.N_STRIPS
        assert np.array_equal(cell, generator_cell(f, 1, -2))
        pts, first = f.slab(1, -2, 1.4 * s, 1.5 * s)
        assert first == 0 and pts is cell
        # a B = 0 cell of N_STRIPS centers or more is stored in strip order
        drawn = np.random.default_rng(3).random((medium.N_STRIPS + 40, 2))
        drawn = drawn * 2.0 + (2.0, -4.0)  # all in cell (1, -2) of pitch 2
        g = ExplicitField(empty_params(eps=0.01), drawn, cell_size=2.0)
        cell = g.cell(1, -2)
        key = np.clip(np.floor((drawn[:, 0] / 2.0 - 1) * medium.N_STRIPS),
                      0, medium.N_STRIPS - 1)
        assert not np.array_equal(cell, drawn)
        assert np.array_equal(cell, drawn[np.argsort(key, kind="stable")])
        pts, first = g.slab(1, -2, 2.9, 3.0)
        assert first > 0 and 0 < len(pts) < len(cell)

    def test_whole_cell_and_empty_cell(self):
        f = ObstacleField(5, b_params(0.01, 200.0, 1.0))
        s = f.cell_size
        pts, first = f.slab(0, 0, -s, 2 * s)
        assert first == 0 and np.array_equal(pts, f.cell(0, 0))
        empty = ObstacleField(5, empty_params(b=1.0))
        pts, first = empty.slab(0, 0, 0.0, s)
        assert pts.shape == (0, 2) and first == 0
        # a B = 0 cell has no strips: every slab is the whole cell, in
        # draw order
        flat = ObstacleField(5, b0_params(1000.0))
        s = flat.cell_size
        cell = flat.cell(-2, 1)
        assert len(cell) > 0
        assert np.array_equal(cell, generator_cell(flat, -2, 1))
        for u, width in ((0.0, 1.0), (0.3, 0.01), (0.9, 0.0), (-1.0, 0.5),
                         (2.0, 3.0)):
            x_lo = (-2 + u) * s
            pts, first = flat.slab(-2, 1, x_lo, x_lo + width * s)
            assert first == 0 and np.array_equal(pts, cell)
            assert np.shares_memory(pts, cell)


class TestAdmissibleStart:
    def test_empty_field_always(self):
        f = ObstacleField(8, empty_params())
        assert is_admissible_start(f, (0.3, 0.4))

    def test_on_center_false(self):
        p = scaling_from(0.05, 2.0, 1.0)
        f = ObstacleField(21, p)
        pts = f.cell_points(0, 0)
        assert len(pts) > 0
        assert not is_admissible_start(f, pts[0])

    def test_rejection_rate(self):
        # acceptance fraction of uniform points matches the void probability
        p = scaling_from(0.05, 1.0, 1.0)  # mu_eff = 20
        f = ObstacleField(77, p)
        rng = np.random.default_rng(0)
        n = 100_000
        xs = rng.uniform(0.0, 10.0, size=(n, 2))
        rejected = sum(not is_admissible_start(f, x) for x in xs)
        p_reject = 1.0 - math.exp(-p.mu_eff * math.pi * p.eps ** 2)
        se = math.sqrt(p_reject * (1 - p_reject) / n)
        assert abs(rejected / n - p_reject) < 3 * se


class TestVoidProbability:
    def test_disk_void_statistics(self):
        # disjoint disks around distinct cell centers are independent
        p = scaling_from(0.05, 1.2, 1.0)  # mu_eff = 24, cell sqrt(30 / 24)
        f = ObstacleField(2024, p)
        s = f.cell_size
        r = 0.2
        n = 100_000
        void = 0
        cache = {}

        def col(ix):
            got = cache.get(ix)
            if got is None:
                got = [f.cell_points(ix, dy) for dy in (-1, 0, 1)]
                cache[ix] = got
                cache.pop(ix - 3, None)
            return got

        for i in range(n):
            cx = (i + 0.5) * s
            cy = 0.5 * s
            chunks = [c for ix in (i - 1, i, i + 1) for c in col(ix) if len(c)]
            if not chunks:
                void += 1
                continue
            pts = np.concatenate(chunks)
            d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
            void += bool(np.min(d2) > r * r)
        p_void = math.exp(-p.mu_eff * math.pi * r * r)
        se = math.sqrt(p_void * (1 - p_void) / n)
        assert abs(void / n - p_void) < 3 * se


class TestExplicitField:
    def test_bucketing(self):
        p = empty_params(eps=0.1)
        f = ExplicitField(p, [(0.5, 0.5), (5.0, 5.0)], cell_size=1.0)
        assert len(f.cell_points(0, 0)) == 1
        assert len(f.cell_points(5, 5)) == 1
        assert len(f.cell_points(2, 2)) == 0
        assert not is_admissible_start(f, (0.55, 0.5))
        assert is_admissible_start(f, (0.75, 0.5))


class TestAnnulusVoid:
    def test_empty_intensity_certain(self):
        est = empty_annulus_probability_mc(empty_params(b=1.0), (0, 0), 10, 1)
        assert est == AnnulusVoidEstimate(1.0, 0.0, 1.0)

    def test_no_field_error(self):
        with pytest.raises(ValueError):
            empty_annulus_probability_mc(empty_params(b=0.0), (0, 0), 10, 1)

    def test_closed_form_value(self):
        # mu_eff = 10, R = 1, eps = 0.01: exp(-0.4 pi)
        p = medium.ScalingParams(eps=0.01, mu=0.1, eta=1.0, mu_eff=10.0,
                                 b_magnitude=1.0, larmor_radius=1.0,
                                 t_larmor=2 * math.pi)
        est = empty_annulus_probability_mc(p, (0.0, 0.0), 100_000, seed=42)
        assert est.closed_form == pytest.approx(math.exp(-0.4 * math.pi), rel=1e-12)
        se = math.sqrt(est.closed_form * (1 - est.closed_form) / 100_000)
        assert abs(est.estimate - est.closed_form) < 3 * se

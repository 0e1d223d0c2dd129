import math
import tracemalloc
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
    return medium.ScalingParams(eps=eps, mu=0.0, eta=1.0, b_magnitude=b)


def field_params(mu_eff, b=0.0, eps=1e-3):
    """Parameters of obstacle intensity mu_eff (to rounding) at field b."""
    return medium.ScalingParams(eps=eps, mu=mu_eff * eps, eta=1.0,
                                b_magnitude=b)


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
        assert scaling_from(0.01, 1.0, 1.0, 2.0).larmor_radius == 0.5
        assert scaling_from(0.01, 1.0, 1.0).larmor_radius == math.inf

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

    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("mu_eff", [1e-2, 1.0, 1e3, 1e7])
    def test_cell_holds_cell_count_on_average(self, mu_eff, b):
        f = ObstacleField(1, field_params(mu_eff, b))
        assert f.params.mu_eff * f.cell_size ** 2 == pytest.approx(
            medium.CELL_COUNT, rel=1e-12)

    def test_rectangle_cells_in_order_and_cell_memoized(self):
        f = ObstacleField(9, scaling_from(0.05, 1.0, 1.0))
        s = f.cell_size
        assert list(f.cells_meeting(-0.5 * s, 1.5 * s, 0.2 * s, 1.2 * s)) == [
            (ix, iy) for ix in (-1, 0, 1) for iy in (0, 1)]
        pts = f.cell(0, 1)
        assert np.array_equal(pts, f.cell_points(0, 1))
        assert f.cell(0, 1) is pts


class TestB0Pitch:
    def test_empty_field_pitch_finite(self):
        # mu_eff = 0 keeps 10 eps instead of sqrt(CELL_COUNT / 0)
        assert ObstacleField(1, empty_params(eps=0.05)).cell_size == \
            pytest.approx(0.5)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           ix=st.integers(-2 ** 40, 2 ** 40), iy=st.integers(-2 ** 40, 2 ** 40),
           mu_eff=st.floats(1e-2, 1e7))
    def test_cell_equals_generator_draw(self, seed, ix, iy, mu_eff):
        f = ObstacleField(seed, field_params(mu_eff))
        g = ObstacleField(seed ^ 1, field_params(mu_eff))
        for dx, dy in ((0, 0), (1, 0), (0, -1)):
            key = ix + dx, iy + dy
            want = generator_cell(f, *key)
            assert np.array_equal(f.cell(*key), want)
            # drawn again by f after a draw of g: each draw rekeys its
            # field's one generator, so nothing of an earlier cell leaks
            assert np.array_equal(g.cell_points(*key),
                                  generator_cell(g, *key))
            assert np.array_equal(f.cell_points(*key), want)


def array_form_admissible(field_, x):
    """The start check as it was written on arrays, for comparison."""
    x = np.asarray(x, dtype=float)
    eps = field_.params.eps
    for ix, iy in field_.cells_meeting(x[0] - eps, x[0] + eps,
                                       x[1] - eps, x[1] + eps):
        pts = field_.cell(ix, iy)
        if len(pts) and np.min(np.sum((pts - x) ** 2, axis=1)) <= eps * eps:
            return False
    return True


@st.composite
def start_cases(draw):
    """(field, x): centers at distance eps from x, nudged by an ulp or not.

    On a dyadic grid the center x + eps along an axis is exact, so its
    squared distance is eps^2 to the bit; elsewhere it is eps up to the
    rounding of the offset.
    """
    if draw(st.booleans()):
        x = np.array([draw(st.integers(-2 ** 20, 2 ** 20)),
                      draw(st.integers(-2 ** 20, 2 ** 20))]) / 1024.0
        eps = draw(st.integers(1, 256)) / 4096.0
    else:
        x = np.array([draw(st.floats(-1e3, 1e3)),
                      draw(st.floats(-1e3, 1e3))])
        eps = draw(st.floats(1e-6, 0.2))
    centers = []
    for axis, angle, nudge in draw(st.lists(st.tuples(
            st.booleans(), st.floats(0.0, 2 * math.pi),
            st.sampled_from([-1, 0, 1])), min_size=1, max_size=6)):
        if axis:
            c = x.copy()
            c[int(angle) % 2] += eps if angle < math.pi else -eps
        else:
            c = x + eps * np.array([math.cos(angle), math.sin(angle)])
        if nudge:
            c = np.nextafter(c, c + nudge * np.inf)
        centers.append(c)
    cell = draw(st.floats(0.3, 5.0)) * eps
    return ExplicitField(empty_params(eps=eps), centers, cell_size=cell), x


class TestAdmissibleStart:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case=start_cases())
    def test_column_form_equals_array_form(self, case):
        f, x = case
        pts = np.concatenate([f.cell_points(*k) for k in list(f._centers)])
        dx, dy = pts[:, 0] - x[0], pts[:, 1] - x[1]
        assert np.array_equal(dx * dx + dy * dy,
                              np.sum((pts - x) ** 2, axis=1))
        assert is_admissible_start(f, x) == array_form_admissible(f, x)
        assert is_admissible_start(f, tuple(x.tolist())) == \
            array_form_admissible(f, x)

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
        p = scaling_from(0.05, 1.2, 1.0)  # mu_eff = 24
        f = ObstacleField(2024, p)
        s = f.cell_size
        r = 0.2
        n = 100_000
        void = 0
        for i in range(n):
            cx = (i + 0.5) * s
            cy = 0.5 * s
            # drawn, not read through the field's memo, which would keep
            # every cell
            pts = np.concatenate([
                f.cell_points(*key)
                for key in f.cells_meeting(cx - r, cx + r, cy - r, cy + r)])
            d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
            void += bool(len(d2) == 0 or np.min(d2) > r * r)
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
        p = medium.ScalingParams(eps=0.01, mu=0.1, eta=1.0, b_magnitude=1.0)
        est = empty_annulus_probability_mc(p, (0.0, 0.0), 100_000, seed=42)
        assert est.closed_form == pytest.approx(math.exp(-0.4 * math.pi), rel=1e-12)
        se = math.sqrt(est.closed_form * (1 - est.closed_form) / 100_000)
        assert abs(est.estimate - est.closed_form) < 3 * se

    def test_traced_peak(self):
        # about 1e6 points a sample, three samples: the points are drawn and
        # counted in blocks of one small buffer.  1.3 MB at numpy 2.4, where
        # drawing each two-sample chunk whole peaks at 52.0 MB
        p = field_params(2.45e5, b=1.0, eps=0.01)
        assert 0.99e6 < medium.annulus_box_mean(p) < 1e6
        tracemalloc.start()
        try:
            empty_annulus_probability_mc(p, (0.0, 0.0), 3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

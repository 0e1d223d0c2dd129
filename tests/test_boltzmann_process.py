import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from maglorentz import _rng
from maglorentz import boltzmann_process as bp
from maglorentz import operators as ops
from maglorentz.boltzmann_process import (circling_fraction_mc,
                                          green_kubo_mc,
                                          velocity_autocorrelation_paths)
from maglorentz.cli import MAX_GK_PATH_JUMPS

import continuum_reference as ref


def path_jumps(mu, period, n, t_max, seed):
    """``n`` path-resolved paths: (counts, times, theta, replay, circling)."""
    return bp._block_jumps(mu, period, t_max, n, _rng.generator(seed, 0xAB),
                           lumped=False)


def phases(counts, times, theta, t_grid, spin=None, chunk=2500):
    """Every path's phase on ``t_grid``, one row per path, by the grid form."""
    return np.vstack([phase for _, _, phase in ref.phase_chunks(
        counts, times, theta, np.asarray(t_grid, dtype=float), spin, chunk)])


def replay_runs(replay):
    """Number of replays directly after each scatter, in scatter order."""
    scatters = np.flatnonzero(replay == 0)
    return scatters, np.diff(np.append(scatters, len(replay))) - 1


class TestPathSampler:
    def test_vanishing_rate_circles(self):
        counts, times, theta, _, circling = path_jumps(1e-9, 1.0, 5, 10.0,
                                                       seed=1)
        assert circling.all()
        assert len(times) == 0 and not counts.any()
        # the angle evolves by pure rotation
        t = np.array([0.0, 0.25, 1.0])
        got = phases(counts, times, theta, t, spin=2 * math.pi * t)
        assert np.allclose(got, 2 * math.pi * t)

    def test_jump_times_sorted_and_kinds(self):
        counts, times, _, replay, circling = path_jumps(1.0, 0.7, 50, 20.0,
                                                        seed=3)
        bounds = np.cumsum(counts)[:-1]
        for c, t, kinds, circ in zip(counts, np.split(times, bounds),
                                     np.split(replay, bounds), circling):
            if c == 0:
                continue
            assert np.all(np.diff(t) > 0)
            # a replay can only follow a scatter: the first jump is a scatter
            assert kinds[0] == 0
            assert not circ
        assert not counts[circling].any()

    def test_no_scatter_fraction_matches_survival(self):
        mu, period = 1.0, 0.25  # mu T = 0.25: e^{-0.5} about 0.6065
        est = circling_fraction_mc(mu, period, 100_000, seed=4)
        assert est.survival_probability == pytest.approx(math.exp(-0.5), rel=1e-12)
        se = math.sqrt(est.survival_probability
                       * (1 - est.survival_probability) / 100_000)
        assert abs(est.fraction - est.survival_probability) < 3 * se

    def test_sampler_consistent_with_vectorized_fraction(self):
        mu, period = 1.0, 0.5
        n = 20_000
        circling = path_jumps(mu, period, n, 2.0, seed=5)[4]
        p_ref = math.exp(-2 * mu * period)
        se = math.sqrt(p_ref * (1 - p_ref) / n)
        assert abs(circling.sum() / n - p_ref) < 3.5 * se

    def test_circling_beyond_window(self):
        # period longer than the window: a path with no scatter in it
        # circles with probability exp(-2 mu (T - t_cut))
        mu, period, t_cut = 1.0, 0.5, 0.2
        n = 20_000
        counts, _, _, _, circling = path_jumps(mu, period, n, t_cut, seed=6)
        p_ref = math.exp(-2 * mu * period)
        se = math.sqrt(p_ref * (1 - p_ref) / n)
        assert abs(circling.sum() / n - p_ref) < 3.5 * se
        assert not counts[circling].any()

    def test_replay_run_geometric(self):
        # replays between consecutive scatters follow a geometric law with
        # success probability 1 - exp(-2 mu T); buckets are read inside a
        # window that always fits before t_max, so truncation cannot censor
        # long runs
        mu, period, t_max = 1.0, 0.4, 12.0
        w = math.exp(-2 * mu * period)
        window = 3 * period
        _, times, _, replay, _ = path_jumps(mu, period, 4000, t_max, seed=1)
        scatters, runs = replay_runs(replay)
        inside = times[scatters] <= t_max - window
        counts = np.bincount(np.minimum(runs[inside], 3), minlength=4)
        probs = np.array([(1 - w) * w ** k for k in range(3)] + [w ** 3])
        chi = stats.chisquare(counts, probs * counts.sum())
        assert chi.pvalue > 0.01

    def test_back_to_back_replay_survival(self):
        # P(at least k replays directly after a scatter) = exp(-2 mu k T)
        mu, period, t_max = 1.0, 0.3, 10.0
        _, times, _, replay, _ = path_jumps(mu, period, 3000, t_max, seed=7)
        scatters, runs = replay_runs(replay)
        # a truncated window would bias the tail
        runs = runs[times[scatters] + 3 * period <= t_max]
        n_scat = len(runs)
        for k in range(1, 4):
            p_ref = math.exp(-2 * mu * k * period)
            se = math.sqrt(p_ref * (1 - p_ref) / n_scat)
            assert abs(np.count_nonzero(runs >= k) / n_scat - p_ref) < 4 * se

    def test_uniform_measure_invariant(self):
        # uniform initial angles stay uniform after several mean free times
        mu, period = 1.0, 1.0
        t_probe = 5.0 / (2.0 * mu)
        n = 100_000
        a0 = np.random.default_rng(8).uniform(0, 2 * math.pi, n)
        counts, times, theta, _, _ = bp._block_jumps(
            mu, period, t_probe, n, _rng.generator(8, 0xCD), lumped=False)
        spin = np.array([2 * math.pi * t_probe / period])
        angles = (a0 + phases(counts, times, theta, [t_probe], spin)[:, 0]) \
            % (2 * math.pi)
        ks = stats.kstest(angles / (2 * math.pi), "uniform")
        assert ks.pvalue > 0.01


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mu=st.floats(0.05, 3.0), period=st.floats(0.05, 5.0),
       t_cut=st.floats(0.1, 10.0), n=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32))
def test_placements_share_scatters(mu, period, t_cut, n, seed):
    lumped = bp._block_jumps(mu, period, t_cut, n, _rng.generator(seed, 0xEF),
                             lumped=True)
    counts, times, theta, replay, circling = bp._block_jumps(
        mu, period, t_cut, n, _rng.generator(seed, 0xEF), lumped=False)
    # the same scatter clock: the path-resolved scatters are the lumped
    # jumps of the paths that do not circle
    lumped_path = np.repeat(np.arange(n), lumped[0])
    assert np.array_equal(times[replay == 0],
                          lumped[1][~circling[lumped_path]])
    # a path circles exactly when its first wait is longer than the period
    starts = np.cumsum(lumped[0]) - lumped[0]
    scattered = lumped[0] > 0
    assert np.array_equal(circling[scattered],
                          lumped[1][starts[scattered]] > period)
    assert not counts[circling].any()
    # sorted within each path and inside [0, t_cut]
    path = np.repeat(np.arange(n), counts)
    same_path = path[1:] == path[:-1]
    assert np.all(np.diff(times)[same_path] >= 0)
    assert np.all((times >= 0) & (times <= t_cut))
    # replay r lies r periods after its scatter, the run is maximal, and
    # the next scatter (or t_cut) comes after it
    scatter_of = np.maximum.accumulate(
        np.where(replay == 0, np.arange(len(replay)), 0))
    assert np.allclose(times - times[scatter_of], replay * period,
                       rtol=0, atol=1e-9 * t_cut)
    assert np.all(theta == theta[scatter_of])
    scatters, runs = replay_runs(replay)
    last = scatters + runs
    nxt = np.append(times[1:], t_cut)
    nxt[np.cumsum(counts)[counts > 0] - 1] = t_cut
    assert np.all(times[last] <= nxt[last])
    assert np.all(times[last] + period >= nxt[last] - 1e-9 * t_cut)


class TestGreenKubo:
    def test_zero_lag_autocorrelation_exact(self):
        est = green_kubo_mc(1.0, 1.0, 2000, 3.0, 0.05, seed=9)
        assert est.vacf[0] == 1.0

    def test_memoryless_limit_value(self):
        # enormous period: plain jump process, integral 3/(8 mu)
        est = green_kubo_mc(1.0, 1e6, 150_000, 6.0, 0.01, seed=10)
        assert est.circling_fraction == 0.0
        assert abs(est.d_estimate - 0.375) < 3 * est.std_error
        assert est.std_error < 0.01

    def test_matches_operator_route(self):
        mu, period = 1.0, 1.0
        op = ops.build_LG(mu, period, 16)
        d_ref = ops.diffusion_coefficient(op)
        est = green_kubo_mc(mu, period, 200_000, 6.0, 0.01, seed=11)
        assert abs(est.d_estimate - d_ref) < 3 * est.std_error

    def test_vacf_shape_is_exponential(self):
        mu, period = 1.0, 1.0
        op = ops.build_LG(mu, period, 16)
        lam1 = op.mode(1)
        est = green_kubo_mc(mu, period, 150_000, 3.0, 0.05, seed=12)
        for t_probe in (0.5, 1.0, 2.0):
            i = int(round(t_probe / 0.05))
            ref = math.exp(lam1 * t_probe)
            assert abs(est.vacf[i] - ref) < 4 * max(est.vacf_se[i], 1e-4)

    @settings(max_examples=200, deadline=None)
    @given(t_cut=st.floats(1e-3, 100.0), dt_quad=st.floats(1e-3, 1.0))
    def test_grid_is_numpys_arange(self, t_cut, dt_quad):
        # the grid and the CLI's cap on it read one count, np.arange's
        t_grid, _ = bp._trapezoid_grid(t_cut, dt_quad)
        ref = np.arange(0.0, t_cut + 0.5 * dt_quad, dt_quad)
        assert bp.grid_points(t_cut, dt_quad) == len(ref)
        assert t_grid.tobytes() == ref.tobytes()

    def test_circling_fraction_reported(self):
        est = green_kubo_mc(1.0, 1.0, 20_000, 3.0, 0.05, seed=13)
        p_ref = math.exp(-2.0)
        assert abs(est.circling_fraction - p_ref) < 4 * math.sqrt(
            p_ref * (1 - p_ref) / 20_000)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 1.0, 10, 1.0, 0.1), "mu"),
        ((math.inf, 1.0, 10, 1.0, 0.1), "mu"),
        ((1.0, math.nan, 10, 1.0, 0.1), "period"),
        ((1.0, 1.0, 10, math.nan, 0.1), "t_cut"),
        ((1.0, 1.0, 10, math.inf, 0.1), "t_cut"),
        ((1.0, 1.0, 10, 1.0, math.nan), "dt_quad")])
    def test_non_finite_rejected(self, args, name):
        with pytest.raises(ValueError, match=name):
            green_kubo_mc(*args, seed=1)
        with pytest.raises(ValueError, match=name):
            velocity_autocorrelation_paths(*args, seed=1)

    @pytest.mark.parametrize("mu, period, name", [
        (math.nan, 1.0, "mu"), (math.inf, 1.0, "mu"),
        (1.0, math.nan, "period")])
    def test_circling_non_finite_rejected(self, mu, period, name):
        with pytest.raises(ValueError, match=name):
            circling_fraction_mc(mu, period, 10, 1)

    def test_infinite_period_never_circles(self):
        assert circling_fraction_mc(1.0, math.inf, 10, 1).fraction == 0.0

    def test_traced_peak(self):
        # 20,000 paths of 12 expected jumps, about 240,000 jumps, in blocks
        # of 2,730 paths that expect 2^15 jumps: 1.7 MB at numpy 2.4.  One
        # block of all 20,000 paths peaks at 10.9 MB, and expanding
        # 2,500-path chunks onto the 601-point grid at 24.9 MB
        tracemalloc.start()
        try:
            green_kubo_mc(1, 1, 20_000, 6, 0.01, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_traced_peak_long_grid(self):
        # a 6,001-point grid with about 7 rows a path: the reduction's
        # arrays grow with a block's rows and the grid, not their product.
        # 2.2 MB at numpy 2.4; expanding chunks onto the grid peaks at
        # 127 MB
        tracemalloc.start()
        try:
            green_kubo_mc(0.05, 2, 20_000, 60, 0.01, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("lumped", [True, False])
    def test_traced_peak_many_jumps(self, lumped):
        # 200 expected jumps a path, 4 million in all: the memory is a
        # block's of 163 paths, 1.7 MB lumped and 2.4 MB path-resolved at
        # numpy 2.4.  Drawing and reducing all 20,000 paths as one block
        # peaks at 168 MB
        tracemalloc.start()
        try:
            if lumped:
                green_kubo_mc(25, 1, 20_000, 4, 1, 1)
            else:
                velocity_autocorrelation_paths(25, 1, 20_000, 4, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_fewer_than_two_paths_rejected(self):
        # one path has no standard error: fail instead of returning NaN
        with pytest.raises(ValueError, match="at least 2 paths"):
            green_kubo_mc(1.0, 1.0, 1, 3.0, 0.05, seed=9)
        # every path circles, so none is left to average
        with pytest.raises(ValueError, match="at least 2 paths"):
            velocity_autocorrelation_paths(1e-9, 1.0, 10, 3.0, 0.1, seed=1,
                                           wandering_only=True)

    def test_one_point_grid_rejected(self):
        # t_cut = dt_quad / 2 leaves the grid [0], whose trapezoid rule
        # would halve its one weight twice and report dt_quad / 4
        for route in (green_kubo_mc, velocity_autocorrelation_paths):
            with pytest.raises(ValueError, match="needs 2 points"):
                route(1.0, 1.0, 10, 0.005, 0.01, seed=1)
        t_cut = math.nextafter(0.005, 1.0)
        assert len(green_kubo_mc(1.0, 1.0, 10, t_cut, 0.01, seed=1).t_grid) == 2

    def test_lumped_refuses_unending_leaves(self):
        # exp(-2 mu period) rounds to 1: a scatter's geometric leaves would
        # have escape probability 0, which numpy's geometric refuses
        with pytest.raises(ValueError, match="mu \\* period is too small"):
            green_kubo_mc(1e-20, 1.0, 10, 1.0, 0.1, seed=1)
        # the path-resolved route draws no leaves: every path circles
        est = velocity_autocorrelation_paths(1e-20, 1.0, 10, 1.0, 0.1, seed=1)
        assert est.circling_fraction == 1.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mu=st.floats(1e-3, 1e3), t_cut=st.floats(1e-3, 1e4))
def test_block_paths_bounds(mu, t_cut):
    # a block holds at most GK_BLOCK paths, which together expect at most
    # GK_BLOCK jumps, and it is the largest such block; one path that
    # expects more is a block alone
    n = bp.block_paths(mu, t_cut)
    jumps = 2.0 * mu * t_cut
    assert 1 <= n <= bp.GK_BLOCK
    assert n == 1 or n * jumps <= bp.GK_BLOCK * (1 + 1e-12)
    assert n == bp.GK_BLOCK or (n + 1) * jumps > bp.GK_BLOCK


def test_block_paths_extremes():
    # the CLI's cap, 2 mu t_cut = 4 10^6 jumps a path: one path a block
    assert bp.block_paths(1.0, MAX_GK_PATH_JUMPS / 2) == 1
    # the quotient is not taken past the float range: 32768 / 2e-305
    # overflows, and 1e-200 * 1e-200 underflows to 0
    assert bp.block_paths(1e-305, 1.0) == bp.GK_BLOCK
    assert bp.block_paths(1e-200, 1e-200) == bp.GK_BLOCK


def digest(est):
    """SHA-256 of an estimate's D, its error, the vacf and the vacf's error."""
    h = hashlib.sha256()
    for a in (np.array([est.d_estimate, est.std_error]), est.vacf,
              est.vacf_se):
        h.update(a.tobytes())
    return h.hexdigest()


def libm_deflection(b_norm):
    """``deflection_from_impact`` with the C library's ``asin``: numpy's
    ``arcsin`` takes an AVX-512 form where the CPU has it, which rounds
    differently."""
    asin = np.fromiter(map(math.asin, np.abs(b_norm).tolist()), float,
                       len(b_norm))
    out = np.copysign(math.pi - 2.0 * asin, b_norm)
    out[b_norm == 0.0] = math.pi
    return out


class TestGoldenDigest:
    """Pinned SHA-256 digests of Green-Kubo estimates on both routes.

    Paths come in blocks of ``block_paths(mu, t_cut)``, each drawn and
    reduced whole from its own Philox stream, so a digest pins the draws,
    their order in the stream and the partition into blocks.  The digests
    were taken at numpy 2.4.
    The deflections take ``asin`` from the C library (``libm_deflection``);
    at numpy 2.4, ``cos``, ``sin`` and the sums gave the same bits with
    and without its AVX-512 and AVX2 kernels.  numpy 1.22 to 1.24 take
    float64 ``cos`` and ``sin`` from SVML's AVX-512 kernels where the CPU
    has them, so the pinned digests are not checked at the numpy floor.
    What else varies is the C library and numpy's Philox, Poisson and
    geometric streams.
    The lumped cases cover the geometric leaves by search (period 1), by
    inversion (mu 0.05, period 2) and left out (an infinite period); the
    path-resolved ones rotation, dropped circling paths and a period past
    ``t_cut``, which draws one more uniform per path.  At its first size
    each config spans several blocks (2,730 paths a block at 12 expected
    jumps a path, 4,096 at 8, 5,461 at 6), except the long period's, whose
    0.4 expected jumps a path fill one block of ``GK_BLOCK`` paths; at the
    second size, 500 paths, each is one block.
    """

    @pytest.fixture(autouse=True)
    def _libm_deflection(self, monkeypatch):
        monkeypatch.setattr(bp, "deflection_from_impact", libm_deflection)

    CONFIGS = {
        # (lumped, (mu, period, t_cut, dt_quad, seed), rotation, wandering)
        "lumped": (True, (1.0, 1.0, 6.0, 0.01, 777), False, False),
        "lumped-inversion": (True, (0.05, 2.0, 60.0, 0.05, 5), False, False),
        "lumped-no-leaves": (True, (1.0, math.inf, 4.0, 0.02, 11), False,
                             False),
        "path-rotation": (False, (1.0, 1.0, 4.0, 0.02, 21), True, False),
        "path-wandering": (False, (1.0, 1.0, 4.0, 0.02, 22), True, True),
        "path-long-period": (False, (0.1, 3.0, 2.0, 0.02, 23), True, False),
    }
    DIGESTS = {
        ("lumped", 50_000):
            "801a006477a2d8c5fc9dfe2a2a40845041a4c4b85751ffb1822ec0bb18dc1cef",
        ("lumped", 500):
            "5e3f88bef07f5b195d0f4700512ad391bfc792b82bf42ddb0e9f0e0940d52865",
        ("lumped-inversion", 30_000):
            "2fc0b47856ca81411f93158943882ceb015baa31ac9aea5f04bb3864b7cc2b97",
        ("lumped-inversion", 500):
            "bd8665a234ee5e7a3d0024dba9caa58e7bc1edbd944759843897b10cee705fb8",
        ("lumped-no-leaves", 30_000):
            "dbb79e1a63f3525ddc486d5753714ad9776c53b65fd9f992983dfd814235418b",
        ("lumped-no-leaves", 500):
            "baf9eb909166dfbe9d0440240a7f9bfba6ce5ad08afc07a6e99e46fa35d3eb70",
        ("path-rotation", 30_000):
            "fe94601e9de640bc16f37fab985f1c1caaa5e9e915f85e793ce8bac394c7a49f",
        ("path-rotation", 500):
            "a99c483cd24e1a6a98837448cacdff96ae3070b8903ef01d090fd822b5b00432",
        ("path-wandering", 30_000):
            "1ef32e4a81a28f95cc858cdf97d48afff5a604cab1da1a06f4a6fb776ea453d8",
        ("path-wandering", 500):
            "05c5c3b6352b30be964e94fe8ec642def5c55b2bd8e843e4a2a2058037b79236",
        ("path-long-period", 30_000):
            "4f6eeb39efea5d2e16fcc2cf8a1e2b8ec20d5aacef5375b2a02fda555f38cd28",
        ("path-long-period", 500):
            "6006901a6829728a96aeada5285cd4a94de5d2f38a79886947b142c26c0df55f",
    }

    def estimate(self, name, n_paths):
        lumped, (mu, period, t_cut, dt_quad, seed), rotation, wandering = \
            self.CONFIGS[name]
        if lumped:
            return green_kubo_mc(mu, period, n_paths, t_cut, dt_quad, seed)
        return velocity_autocorrelation_paths(
            mu, period, n_paths, t_cut, dt_quad, seed,
            include_rotation=rotation, wandering_only=wandering)

    @pytest.mark.parametrize("name, n_paths", list(DIGESTS))
    def test_estimate(self, name, n_paths):
        assert digest(self.estimate(name, n_paths)) == \
            self.DIGESTS[name, n_paths]


class TestPathRouteDiagnostic:
    def test_memoryless_limit_matches_jump_process(self):
        # with a huge period the path-resolved route is the plain process
        est = velocity_autocorrelation_paths(1.0, 1e6, 30_000, 6.0, 0.02,
                                             seed=14, include_rotation=False)
        assert est.circling_fraction == 0.0
        assert abs(est.d_estimate - 0.375) < 3 * est.std_error
        ell1 = -8.0 / 3.0
        for t_probe in (0.5, 1.5):
            i = int(round(t_probe / 0.02))
            assert abs(est.vacf[i] - math.exp(ell1 * t_probe)) < \
                4 * max(est.vacf_se[i], 1e-4)

    def test_infinite_period_is_the_memoryless_limit(self):
        # a scatter's time is kept, not offset by 0 * inf; no replay and no
        # circling fits in the window at either period, so the estimates
        # agree bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = velocity_autocorrelation_paths(
                1.0, math.inf, 1000, 3.0, 0.5, seed=1, include_rotation=False)
        ref = velocity_autocorrelation_paths(
            1.0, 1e6, 1000, 3.0, 0.5, seed=1, include_rotation=False)
        assert math.isfinite(est.d_estimate)
        assert est.d_estimate == ref.d_estimate
        assert np.array_equal(est.vacf, ref.vacf)

    def test_finite_period_gap_from_operator_route(self):
        # the path-resolved autocorrelation integral differs from the
        # operator value by a computable amount: replays spread over whole
        # periods delay decorrelation, and circling paths freeze it.
        # Renewal analysis of the sampler gives, without rotation and
        # conditioned on wandering paths,
        #     integral = -1/lambda_1 - w T / (1 - w).
        mu, period = 1.0, 1.0
        w = math.exp(-2 * mu * period)
        op = ops.build_LG(mu, period, 16)
        d_op = ops.diffusion_coefficient(op)
        pred = d_op - w * period / (1 - w)
        est = velocity_autocorrelation_paths(mu, period, 100_000, 24.0, 0.02,
                                             seed=15, include_rotation=False,
                                             wandering_only=True)
        assert abs(est.d_estimate - pred) < 4 * est.std_error
        # and it is nowhere near the operator value itself
        assert (d_op - est.d_estimate) > 10 * est.std_error

    def test_rotating_route_suppressed(self):
        # with rotation the integral collapses toward
        # Re[(1 - w)/(-lambda_1 - i B)]; check it is far below the operator
        # value, which is why the generator route feeds the estimate
        mu, period = 1.0, 1.0
        b = 2 * math.pi / period
        w = math.exp(-2 * mu * period)
        op = ops.build_LG(mu, period, 16)
        lam1 = op.mode(1)
        pred = ((1 - w) / (-lam1 - 1j * b)).real
        est = velocity_autocorrelation_paths(mu, period, 40_000, 12.0, 0.02,
                                             seed=16, include_rotation=True)
        assert abs(est.d_estimate - pred) < 5 * est.std_error

    @pytest.mark.parametrize("mu, period, t_cut", [
        (1.0, 1.0, 12.25), (0.5, 0.8, 3.3), (0.3, 2.0, 5.0)])
    def test_circling_term(self, mu, period, t_cut):
        # with rotation, a circling path keeps phase 0 and integrates the
        # pure oscillation, so with one seed the estimate is the wandering
        # paths' mean weighted by 1 - p_c plus p_c times the oscillation's
        # trapezoid sum; at (1, 1, 12.25) the term is 0.022 of 0.068.  The
        # two sides add the same path integrals, at most t_cut each, in
        # other orders
        est = velocity_autocorrelation_paths(mu, period, 2000, t_cut, 0.05,
                                             seed=3)
        wandering = velocity_autocorrelation_paths(
            mu, period, 2000, t_cut, 0.05, seed=3, wandering_only=True)
        t_grid, trap_w = bp._trapezoid_grid(t_cut, 0.05)
        p_c = est.circling_fraction
        term = p_c * np.sum(trap_w * np.cos(2 * math.pi / period * t_grid))
        want = (1 - p_c) * wandering.d_estimate + term
        assert abs(est.d_estimate - want) <= 16 * 2.0 ** -52 * t_cut


class TestPhaseLookup:
    def test_angle_accumulation(self):
        # one path with jumps at 1 and 3, a second one without jumps, one
        # path per chunk; a jump counts from its own time on
        counts = np.array([2, 0])
        t = np.array([0.5, 1.0, 2.0, 4.0])
        no_rot = phases(counts, np.array([1.0, 3.0]), np.array([0.5, 0.5]),
                        t, chunk=1)
        assert np.allclose(no_rot, [[0.0, 0.5, 0.5, 1.0], [0.0] * 4])
        # period 2: rotation adds 2 pi t / T on the grid
        with_rot = phases(counts, np.array([1.0, 3.0]), np.array([0.5, 0.5]),
                          t, spin=math.pi * t, chunk=1)
        assert np.allclose(with_rot, no_rot + math.pi * t)

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
        # one 20,000-path block of about 260,000 phase-table rows: the
        # reduction holds a few row arrays of 2.1 MB at a time.  10.9 MB at
        # numpy 2.4, of which the jump sampler alone peaks at 10.2 MB; a
        # reduction that expands 2,500-path chunks onto the 601-point grid
        # peaks at 24.9 MB
        tracemalloc.start()
        try:
            green_kubo_mc(1, 1, 20_000, 6, 0.01, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18e6

    def test_traced_peak_long_grid(self):
        # a 6,001-point grid with about 7 rows a path: the reduction's
        # arrays grow with the rows and the grid, not their product.
        # 6.4 MB at numpy 2.4; expanding chunks onto the grid peaks at
        # 127 MB
        tracemalloc.start()
        try:
            green_kubo_mc(0.05, 2, 20_000, 60, 0.01, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_fewer_than_two_paths_rejected(self):
        # one path has no standard error: fail instead of returning NaN
        with pytest.raises(ValueError, match="at least 2 paths"):
            green_kubo_mc(1.0, 1.0, 1, 3.0, 0.05, seed=9)
        # every path circles, so none is left to average
        with pytest.raises(ValueError, match="at least 2 paths"):
            velocity_autocorrelation_paths(1e-9, 1.0, 10, 3.0, 0.1, seed=1,
                                           wandering_only=True)


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

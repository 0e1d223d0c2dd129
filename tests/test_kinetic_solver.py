import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maglorentz import kinetic_solver as ks
from maglorentz import operators as ops


@pytest.fixture(scope="module")
def small_grid():
    return ks.SpectralGrid(2 * math.pi, 2, 32)


class TestGrid:
    def test_lattice_layout(self, small_grid):
        g = small_grid
        assert g.n_modes == 25
        assert np.array_equal(g.xi[g.index0], [0, 0])
        assert np.allclose(g.kvec[g.index0], [0.0, 0.0])
        # conjugate pairing maps xi to -xi
        assert np.array_equal(g.xi[g.conj_index], -g.xi)

    def test_validation(self):
        with pytest.raises(ValueError):
            ks.SpectralGrid(0.0, 2, 32)
        with pytest.raises(ValueError):
            ks.SpectralGrid(1.0, 2, 4)


class TestInitialField:
    def test_mass_normalized(self, small_grid):
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        assert f0.mass() == pytest.approx(1.0, abs=1e-14)

    def test_real_valued(self, small_grid):
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        assert f0.reality_defect() < 1e-14

    def test_gridpoint_values(self, small_grid):
        f0 = ks.make_initial_field(small_grid, 0.5, 2, 0.0)
        vals = f0.values
        base = 1.0 / (2 * math.pi * small_grid.l_box ** 2)
        i = int(np.flatnonzero((small_grid.xi == [2, 0]).all(axis=1))[0])
        assert np.allclose(vals[i], 0.25 * base)

    def test_mode_outside_lattice(self, small_grid):
        with pytest.raises(ValueError):
            ks.make_initial_field(small_grid, 0.5, 7, 0.0)


class TestTransportExactness:
    def test_plane_wave_advection(self, small_grid):
        # collisionless limit is integrated exactly by the propagator:
        # compare one long step against many short ones
        model = ks.KineticModel(1e-12, 1.0, 0.7, small_grid, k_cut=0)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        one = model.propagate(f0.values_hat, 0.8)
        many = f0.values_hat
        for _ in range(64):
            many = model.propagate(many, 0.8 / 64)
        assert np.max(np.abs(one - many)) < 1e-12

    def test_rotation_only_for_zero_mode(self, small_grid):
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.0, 0, 0.4)
        out = model.propagate(f0.values_hat, 0.3)
        # angle shift by eta*B*dt on the m = +/-1 harmonics
        shift = np.exp(-1j * 2.0 * 1.0 * 0.3)
        i0 = small_grid.index0
        assert out[i0, 1] == pytest.approx(f0.values_hat[i0, 1] * shift)
        assert out[i0, 0] == f0.values_hat[i0, 0]


class TestConservation:
    @pytest.mark.parametrize("b,mu,eta", [(0.0, 1.0, 2.0), (1.0, 1.0, 3.0),
                                          (7.9, 2.0, 4.0)])
    def test_mass_exact(self, small_grid, b, mu, eta):
        model = ks.KineticModel(mu, eta, b, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        res = ks.solve(model, f0, 0.4)
        assert np.max(np.abs(res.mass - res.mass[0])) == 0.0

    def test_reality_preserved(self, small_grid):
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        res = ks.solve(model, f0, 0.5)
        assert res.final.reality_defect() < 1e-12

    def test_homogeneous_stays_homogeneous(self, small_grid):
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.0, 0, 0.4)
        res = ks.solve(model, f0, 0.5)
        hat = res.final.values_hat
        off0 = np.delete(hat, small_grid.index0, axis=0)
        assert np.max(np.abs(off0)) == 0.0


class TestRelaxation:
    def test_harmonic_decay_rates(self):
        # with no spatial structure each harmonic decays at eta^2 |ell_m|
        grid = ks.SpectralGrid(2 * math.pi, 0, 32)
        mu, eta = 1.0, 2.0
        model = ks.KineticModel(mu, eta, 0.0, grid)
        f0 = ks.make_initial_field(grid, 0.0, 0, 0.4)
        # inject a second harmonic as well
        f0.values_hat[0, 2] = 0.1
        f0.values_hat[0, -2] = 0.1
        snaps = np.linspace(0.02, 0.1, 9)
        res = ks.solve(model, f0, 0.11, dt=5e-5, snapshot_times=snaps)
        ell = ops.build_L(mu, 16)
        for m in (1, 2):
            amps = np.array([abs(h[0, m]) for _, h in res.snapshots])
            ts = np.array([t for t, _ in res.snapshots])
            rate = -np.polyfit(ts, np.log(amps), 1)[0]
            expect = eta ** 2 * abs(ell.mode(m))
            assert rate == pytest.approx(expect, rel=1e-3)

    def test_memory_inactive_before_one_delay(self, small_grid):
        # solutions with and without the memory terms agree exactly while
        # t < delay: the truncated sum is causal
        mu, eta, b = 1.0, 2.0, 4.0
        with_mem = ks.KineticModel(mu, eta, b, small_grid)
        without = ks.KineticModel(mu, eta, b, small_grid, k_cut=0)
        assert with_mem.delay == pytest.approx(2 * math.pi / b / eta)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        horizon = 0.9 * with_mem.delay
        dt = horizon / 64
        a = ks.solve(with_mem, f0, horizon, dt=dt)
        c = ks.solve(without, f0, horizon, dt=dt)
        assert np.array_equal(a.final.values_hat, c.final.values_hat)

    def test_memory_active_after_one_delay(self, small_grid):
        mu, eta, b = 1.0, 2.0, 4.0
        with_mem = ks.KineticModel(mu, eta, b, small_grid)
        without = ks.KineticModel(mu, eta, b, small_grid, k_cut=0)
        horizon = 2.5 * with_mem.delay
        dt = horizon / 256
        a = ks.solve(with_mem, f0 := ks.make_initial_field(small_grid, 0.5, 1, 0.3),
                     horizon, dt=dt)
        c = ks.solve(without, f0, horizon, dt=dt)
        assert np.max(np.abs(a.final.values_hat - c.final.values_hat)) > 1e-10

    def test_instability_detected(self, small_grid):
        model = ks.KineticModel(1.0, 4.0, 0.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        with pytest.raises(ks.SolverInstabilityError):
            ks.solve(model, f0, 2.0, dt=0.05)  # far beyond the stability bound

    def test_non_finite_norm_detected(self, small_grid):
        # a NaN norm compares False against any bound; the guard still fires
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        model.b_magnitude = math.nan  # past the constructor's check
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        with pytest.raises(ks.SolverInstabilityError):
            ks.solve(model, f0, 0.1, dt=0.01)

    @pytest.mark.parametrize("mu,eta,b", [
        (math.nan, 2.0, 1.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan),
        (math.inf, 2.0, 1.0), (1.0, math.inf, 1.0), (1.0, 2.0, math.inf)])
    def test_non_finite_parameters_rejected(self, small_grid, mu, eta, b):
        with pytest.raises(ValueError, match="finite"):
            ks.KineticModel(mu, eta, b, small_grid)


class TestStepOrder:
    def test_second_order_convergence(self, small_grid):
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        ref = ks.solve(model, f0, 0.2, dt=0.2 / 4096).final.values_hat
        errs = []
        for n in (64, 128, 256):
            got = ks.solve(model, f0, 0.2, dt=0.2 / n).final.values_hat
            errs.append(np.max(np.abs(got - ref)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


class TestHistory:
    def test_step_at_other_dt_rejected(self, small_grid):
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        res = ks.solve(model, f0, 0.05, dt=0.01)
        with pytest.raises(ValueError, match="same dt"):
            ks.step(res.final, 0.02, model)

    def test_step_without_history_rejected(self, small_grid):
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        with pytest.raises(ValueError, match="history"):
            ks.step(f0, 0.01, model)

    def test_wrapped_ring_matches_full_history(self, small_grid, monkeypatch):
        # k_cut = 1 reaches one delay back, far less than the run: the ring
        # wraps many times and must read the same fields as a ring that
        # holds every step
        model = ks.KineticModel(1.0, 2.0, 4.0, small_grid, k_cut=1)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        ring = ks.solve(model, f0, 2.0, dt=0.01)
        assert ring.final.history.count > 2 * len(ring.final.history.buf)
        init = ks._History.__init__
        monkeypatch.setattr(ks._History, "__init__",
                            lambda self, shape, dt, capacity:
                            init(self, shape, dt, 1000))
        full = ks.solve(model, f0, 2.0, dt=0.01)
        assert np.array_equal(ring.final.values_hat, full.final.values_hat)

    def test_guard_before_allocation(self):
        # 10**12 slots: an allocation attempt would fail with numpy's own
        # message, not the guard's
        with pytest.raises(MemoryError, match="memory guard"):
            ks._History((169, 64), 0.01, 10 ** 12)

    def test_expired_time_rejected(self):
        hist = ks._History((2, 3), 0.5, 4)
        for i in range(10):
            hist.push(np.full((2, 3), float(i)))
        assert np.all(hist.modes_at(3.0) == 6.0)
        with pytest.raises(RuntimeError, match="no longer covers"):
            hist.modes_at(2.5)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 12), n_push=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_ring_matches_list(self, capacity, n_push, seed):
        # dt = 0.25 keeps step and half-step times exact in binary
        dt = 0.25
        rng = np.random.default_rng(seed)
        ref = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
               for _ in range(n_push)]
        hist = ks._History((2, 3), dt, capacity)
        for hat in ref:
            hist.push(hat)
        oldest = max(0, n_push - capacity)
        for i in range(oldest, n_push):
            assert np.array_equal(hist.modes_at(i * dt), ref[i])
            if i + 1 < n_push:
                mid = 0.5 * ref[i] + 0.5 * ref[i + 1]
                assert np.array_equal(hist.modes_at((i + 0.5) * dt), mid)
        if oldest:
            with pytest.raises(RuntimeError):
                hist.modes_at((oldest - 1) * dt)


class TestHeatReference:
    def test_initial_datum(self, small_grid):
        rho0 = np.linspace(0.1, 1.0, small_grid.n_modes)
        assert np.array_equal(
            ks.heat_reference(0.3, rho0, 0.0, small_grid), rho0)

    def test_zero_mode_constant(self, small_grid):
        rho0 = np.ones(small_grid.n_modes)
        out = ks.heat_reference(0.3, rho0, 5.0, small_grid)
        assert out[small_grid.index0] == 1.0

    def test_single_mode_factor(self):
        grid = ks.SpectralGrid(2 * math.pi, 1, 16)
        rho0 = np.zeros(grid.n_modes)
        i = int(np.flatnonzero((grid.xi == [1, 0]).all(axis=1))[0])
        rho0[i] = 1.0
        out = ks.heat_reference(0.375, rho0, 1.0, grid)
        assert out[i] == pytest.approx(math.exp(-0.375), rel=1e-12)


class TestHilbertCorrectors:
    def test_constant_profile_zero_correctors(self, small_grid):
        op = ops.build_LG(1.0, 2 * math.pi, 16)
        rho = np.zeros(small_grid.n_modes, dtype=complex)
        rho[small_grid.index0] = 1.0
        corr = ks.hilbert_correctors(rho, op, 1.0,
                                     ops.spatial_diffusivity(op), small_grid)
        assert np.max(np.abs(corr.g1_hat)) == 0.0
        assert np.max(np.abs(corr.g2_hat)) == 0.0

    def test_memoryless_first_corrector(self, small_grid):
        # g1 = -(3/(8 mu)) v . grad g0 when the memory vanishes
        mu = 1.0
        op = ops.build_LG(mu, math.inf, 16)
        rho = np.zeros(small_grid.n_modes, dtype=complex)
        i = int(np.flatnonzero((small_grid.xi == [1, 0]).all(axis=1))[0])
        rho[i] = 0.5
        corr = ks.hilbert_correctors(rho, op, 0.0,
                                     ops.spatial_diffusivity(op), small_grid)
        ikv = 1j * (small_grid.kvec[:, 0][:, None]
                    * np.cos(small_grid.angles)[None, :]
                    + small_grid.kvec[:, 1][:, None]
                    * np.sin(small_grid.angles)[None, :])
        expected = -(3.0 / (8.0 * mu)) * ikv * rho[:, None]
        got = np.fft.ifft(corr.g1_hat, axis=1)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_zero_angular_mean(self, small_grid):
        op = ops.build_LG(1.0, 2 * math.pi, 16)
        rho = np.zeros(small_grid.n_modes, dtype=complex)
        i = int(np.flatnonzero((small_grid.xi == [1, 1]).all(axis=1))[0])
        rho[i] = 1.0
        rho[small_grid.conj_index[i]] = 1.0
        corr = ks.hilbert_correctors(rho, op, 1.0,
                                     ops.spatial_diffusivity(op), small_grid)
        assert np.max(np.abs(corr.g1_hat[:, 0])) == 0.0
        assert np.max(np.abs(corr.g2_hat[:, 0])) == 0.0

    def test_wrong_diffusivity_rejected(self, small_grid):
        # the second corrector equation is solvable only for the induced
        # diffusivity: a mismatched coefficient must be refused
        op = ops.build_LG(1.0, 2 * math.pi, 16)
        rho = np.zeros(small_grid.n_modes, dtype=complex)
        i = int(np.flatnonzero((small_grid.xi == [1, 0]).all(axis=1))[0])
        rho[i] = 1.0
        with pytest.raises(ValueError, match="solvability"):
            ks.hilbert_correctors(rho, op, 1.0,
                                  2.0 * ops.spatial_diffusivity(op), small_grid)


class TestHilbertStudy:
    def test_residual_trend(self):
        grid = ks.SpectralGrid(2 * math.pi, 1, 32)
        f0 = ks.make_initial_field(grid, 0.5, 1, 0.2)
        rows = ks.hilbert_residual_study([3.0, 6.0], 1.0, 1.0, grid, f0, 0.3)
        assert rows[1].dist_heat < rows[0].dist_heat
        assert all(r.dist_hilbert1 < r.dist_heat for r in rows)

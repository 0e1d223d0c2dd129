import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maglorentz import kinetic_solver as ks
from maglorentz import operators as ops


@pytest.fixture(scope="module")
def small_grid():
    return ks.SpectralGrid(2 * math.pi, 32)


def lattice(n_x):
    """Every integer mode with |xi_i| <= n_x, in increasing order."""
    side = range(-n_x, n_x + 1)
    return np.array([(a, b) for a in side for b in side])


def row(modes, mode):
    """The row of ``modes`` that holds the integer mode ``mode``."""
    return int(np.flatnonzero((np.asarray(modes) == mode).all(axis=1))[0])


def on_lattice(fld, n_x, fill=None):
    """``fld`` carried on every mode |xi_i| <= n_x; ``fill`` on the others."""
    modes = lattice(n_x)
    hat = np.zeros((len(modes), fld.grid.n_v), dtype=complex)
    if fill is not None:
        hat[:] = fill
    at = [row(modes, m) for m in fld.modes]
    hat[at] = fld.values_hat
    return ks.KineticField(fld.grid, modes, hat, fld.time), at


def mass(fld):
    """Total integral over box and circle, from the carried (0, 0) row."""
    return ks._mass(fld.values_hat[row(fld.modes, (0, 0)), 0], fld.grid)


def reality_defect(fld):
    """Max deviation from the conjugate symmetry of a real-valued field.

    Each carried mode's samples are compared with the conjugate of those of
    its negative, which a real field must carry too.
    """
    conj = [row(fld.modes, -m) for m in fld.modes]
    gr = fld.values
    return float(np.max(np.abs(gr[conj] - np.conj(gr))))


class TestGrid:
    def test_wavevectors(self):
        grid = ks.SpectralGrid(2.0, 8)
        k, k_abs = grid.wavevectors(np.array([(0, 0), (3, -4)]))
        assert np.allclose(k, [[0.0, 0.0], [3 * math.pi, -4 * math.pi]])
        assert np.allclose(k_abs, [0.0, 5 * math.pi])

    def test_validation(self):
        with pytest.raises(ValueError):
            ks.SpectralGrid(0.0, 32)
        with pytest.raises(ValueError):
            ks.SpectralGrid(1.0, 4)

    @pytest.mark.parametrize("l_box", [math.nan, math.inf, -math.inf])
    def test_non_finite_box_rejected(self, l_box):
        with pytest.raises(ValueError, match="l_box"):
            ks.SpectralGrid(l_box, 8)


class TestInitialField:
    def test_mass_normalized(self, small_grid):
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        assert mass(f0) == pytest.approx(1.0, abs=1e-14)

    def test_real_valued(self, small_grid):
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        assert reality_defect(f0) < 1e-14

    def test_gridpoint_values(self, small_grid):
        f0 = ks.make_initial_field(small_grid, 0.5, 2, 0.0)
        vals = f0.values
        base = 1.0 / (2 * math.pi * small_grid.l_box ** 2)
        assert np.allclose(vals[row(f0.modes, (2, 0))], 0.25 * base)

    @pytest.mark.parametrize("amplitude,mode,carried", [
        (0.5, 2, [(-2, 0), (0, 0), (2, 0)]),
        (0.5, -1, [(-1, 0), (0, 0), (1, 0)]),
        (0.5, 0, [(0, 0)]),
        (0.0, 7, [(0, 0)]),  # no density wave: the mode is not used
        (0.5, -7, [(-7, 0), (0, 0), (7, 0)]),  # any mode: the CLI bounds it
    ])
    def test_carried_modes(self, small_grid, amplitude, mode, carried):
        f0 = ks.make_initial_field(small_grid, amplitude, mode, 0.3)
        assert f0.modes.tolist() == [list(m) for m in carried]
        assert f0.values_hat.shape == (len(carried), small_grid.n_v)

    def test_one_mode_per_row(self, small_grid):
        with pytest.raises(ValueError, match="one mode"):
            ks.KineticField(small_grid, [(0, 0)], np.zeros((2, 32)), 0.0)


class TestTransportExactness:
    def test_plane_wave_advection(self, small_grid):
        # collisionless limit is integrated exactly by the propagator:
        # compare one long step against many short ones
        model = ks.KineticModel(1.0, 1.0, 0.7, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        one = model.propagate(f0.values_hat, 0.8, f0.modes)
        many = f0.values_hat
        for _ in range(64):
            many = model.propagate(many, 0.8 / 64, f0.modes)
        assert np.max(np.abs(one - many)) < 1e-12

    def test_rotation_only_for_zero_mode(self, small_grid):
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.0, 0, 0.4)
        out = model.propagate(f0.values_hat, 0.3, f0.modes)
        # angle shift by eta*B*dt on the m = +/-1 harmonics
        shift = np.exp(-1j * 2.0 * 1.0 * 0.3)
        i0 = row(f0.modes, (0, 0))
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

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(mu=st.floats(0.2, 3.0), eta=st.floats(1.0, 4.0),
           b=st.one_of(st.just(0.0), st.floats(0.1, 8.0)),
           l_box=st.floats(1.0, 10.0), max_mode=st.integers(0, 3),
           n_v=st.sampled_from([8, 16, 32]), mode=st.floats(0.0, 1.0),
           rho_amplitude=st.floats(-0.9, 0.9),
           angle_amplitude=st.floats(-0.9, 0.9))
    def test_mass_exact_random(self, mu, eta, b, l_box, max_mode, n_v, mode,
                               rho_amplitude, angle_amplitude):
        grid = ks.SpectralGrid(l_box, n_v)
        model = ks.KineticModel(mu, eta, b, grid)
        f0 = ks.make_initial_field(grid, rho_amplitude, round(mode * max_mode),
                                   angle_amplitude)
        # past one delay (at least 0.196) whenever B >= 4 and eta = 4
        res = ks.solve(model, f0, 0.3)
        assert np.max(np.abs(res.mass - res.mass[0])) == 0.0

    def test_reality_preserved(self, small_grid):
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        res = ks.solve(model, f0, 0.5)
        assert reality_defect(res.final) < 1e-12

    @pytest.mark.parametrize("n_x,n_v,b", [(2, 16, 1.0), (6, 64, 4.0),
                                           (3, 32, 0.0)])
    def test_modes_never_couple(self, n_x, n_v, b):
        # a field that carries every mode |xi_i| <= n_x, with noise off the
        # datum, evolves the datum's rows bit for bit the same as the datum
        # alone: a field carries only the modes of its datum on this property
        grid = ks.SpectralGrid(2 * math.pi, n_v)
        model = ks.KineticModel(1.0, 2.0, b, grid)
        f0 = ks.make_initial_field(grid, 0.5, 1, 0.3)
        rng = np.random.default_rng(1)
        noise = rng.normal(size=(2, len(lattice(n_x)), n_v)) * 1e-4
        f1, at = on_lattice(f0, n_x, noise[0] + 1j * noise[1])
        a = ks.solve(model, f0, 1.0).final.values_hat
        c = ks.solve(model, f1, 1.0).final.values_hat
        assert np.all(np.any(np.delete(c, at, axis=0) != 0.0, axis=1))
        assert np.array_equal(a, c[at])

    def test_homogeneous_stays_homogeneous(self, small_grid):
        model = ks.KineticModel(1.0, 2.0, 1.0, small_grid)
        f0, at = on_lattice(ks.make_initial_field(small_grid, 0.0, 0, 0.4), 2)
        res = ks.solve(model, f0, 0.5)
        hat = res.final.values_hat
        off0 = np.delete(hat, at, axis=0)
        assert len(off0) == 24 and np.max(np.abs(off0)) == 0.0


class TestRelaxation:
    def test_harmonic_decay_rates(self):
        # with no spatial structure each harmonic decays at eta^2 |ell_m|
        grid = ks.SpectralGrid(2 * math.pi, 32)
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
        without = ks.KineticModel(mu, eta, b, small_grid)
        without.memory_rows = without.memory_rows[:0]
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
        without = ks.KineticModel(mu, eta, b, small_grid)
        without.memory_rows = without.memory_rows[:0]
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


class TestNoField:
    """At B = 0 the general memory code carries no term at all."""

    def test_no_memory_rows_and_plain_collision(self, small_grid):
        model = ks.KineticModel(0.7, 2.0, 0.0, small_grid)
        assert model.k_cut == 0
        assert model.memory_rows.shape == (0, small_grid.n_v)
        hat = ks.make_initial_field(small_grid, 0.5, 1, 0.3).values_hat
        hist = ks._History(len(hat), small_grid.n_v, 0.01, 4)
        for t in (0.0, 0.5, 1e6):
            assert np.array_equal(model.collision_rhs(hat, t, hist),
                                  hat * model.ell * model.eta ** 2)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(mu=st.floats(0.1, 5.0),
       b=st.one_of(st.just(0.0), st.floats(0.1, 10.0)))
def test_k_cut_is_the_default(mu, b):
    # the model keeps the operators' truncation, with or without a field
    model = ks.KineticModel(mu, 2.0, b, ks.SpectralGrid(2 * math.pi, 16))
    assert model.k_cut == ops.default_k_cut(mu, ops.cyclotron_period(b))


class TestSolveArguments:
    @pytest.fixture(scope="class")
    def problem(self):
        grid = ks.SpectralGrid(2 * math.pi, 16)
        model = ks.KineticModel(1.0, 2.0, 1.0, grid)
        return model, ks.make_initial_field(grid, 0.5, 1, 0.3)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
    def test_bad_t_end_rejected(self, problem, t_end):
        with pytest.raises(ValueError, match="t_end"):
            ks.solve(*problem, t_end)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_bad_dt_rejected(self, problem, dt):
        with pytest.raises(ValueError, match="dt"):
            ks.solve(*problem, 0.5, dt=dt)

    @pytest.mark.parametrize("times", [[math.nan, 0.25], [0.25, 0.6],
                                       [-0.1, 0.25]])
    def test_bad_snapshot_times_rejected(self, problem, times):
        # a NaN used to block every later snapshot; 0.6 was dropped and
        # -0.1 recorded at t = 0
        with pytest.raises(ValueError, match="snapshot_times"):
            ks.solve(*problem, 0.5, snapshot_times=times)

    def test_snapshots_at_both_ends(self, problem):
        res = ks.solve(*problem, 0.5, dt=0.01, snapshot_times=[0.5, 0.0, 0.25])
        assert [t for t, _ in res.snapshots] == pytest.approx([0.0, 0.25, 0.5])


class TestDiagnostics:
    def test_snapshots_and_final_hold_the_carried_rows(self):
        grid = ks.SpectralGrid(2 * math.pi, 16)
        model = ks.KineticModel(1.0, 2.0, 1.0, grid)
        f0 = ks.make_initial_field(grid, 0.5, 1, 0.3)
        res = ks.solve(model, f0, 0.5, dt=0.01, snapshot_times=[0.0, 0.3])
        assert len(res.times) == 51 and len(res.snapshots) == 2
        assert np.array_equal(res.final.modes, f0.modes)
        assert all(h.shape == (3, 16) for _, h in res.snapshots)
        # the first snapshot is the datum, and a copy of it
        assert np.array_equal(res.snapshots[0][1], f0.values_hat)
        assert res.snapshots[0][1] is not f0.values_hat

    def test_norms_of_the_full_lattice(self):
        # the records measure the carried rows; the lattice's other rows
        # are zero and add nothing but rounding
        grid = ks.SpectralGrid(2 * math.pi, 16)
        model = ks.KineticModel(1.0, 2.0, 1.0, grid)
        f0 = ks.make_initial_field(grid, 0.5, 1, 0.3)
        res = ks.solve(model, f0, 0.2, dt=0.01)
        final = on_lattice(res.final, 3)[0]
        hat = final.values_hat.copy()
        hat[:, 0] = 0.0
        assert res.dist_to_avg[-1] == pytest.approx(
            ks.field_norm_hat(hat, grid), rel=1e-15)
        rho0 = ks.angle_average_modes(on_lattice(f0, 3)[0])
        hat[:, 0] = final.values_hat[:, 0] - grid.n_v * ks.heat_reference(
            res.diffusivity, rho0, final.modes, 0.2, grid)
        assert res.dist_to_heat[-1] == pytest.approx(
            ks.field_norm_hat(hat, grid), rel=1e-15)

    def test_mass_zero_without_the_zero_mode(self):
        grid = ks.SpectralGrid(2 * math.pi, 16)
        model = ks.KineticModel(1.0, 2.0, 1.0, grid)
        f0 = ks.make_initial_field(grid, 0.5, 1, 0.3)
        f0.values_hat[row(f0.modes, (0, 0))] = 0.0
        # the (0, 0) row carried as zeros, or not carried at all
        f1 = ks.KineticField(grid, f0.modes[[0, 2]], f0.values_hat[[0, 2]],
                             0.0)
        for fld in (f0, f1):
            res = ks.solve(model, fld, 0.1, dt=0.01)
            assert np.all(res.mass == 0.0)
            assert np.all(res.dist_to_avg > 0.0)


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

    def test_step_continues_solve(self, small_grid):
        # delay 0.157 < 16/64: the continued step reads the memory too
        model = ks.KineticModel(0.5, 4.0, 10.0, small_grid)
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        dt = 1.0 / 64
        res = ks.solve(model, f0, 16 * dt, dt=dt)
        got = ks.step(res.final, dt, model)
        want = ks.solve(model, f0, 17 * dt, dt=dt).final
        assert got.time == want.time
        assert got.values_hat.shape == (3, small_grid.n_v)
        assert np.array_equal(got.modes, f0.modes)
        assert np.array_equal(got.values_hat, want.values_hat)

    def test_wrapped_ring_matches_full_history(self, small_grid, monkeypatch):
        # one memory row reaches one delay back, far less than the run: the
        # ring wraps many times and must read the same fields as a ring
        # that holds every step
        model = ks.KineticModel(1.0, 2.0, 4.0, small_grid)
        model.memory_rows = model.memory_rows[:1]
        f0 = ks.make_initial_field(small_grid, 0.5, 1, 0.3)
        ring = ks.solve(model, f0, 2.0, dt=0.01)
        assert ring.final.history.count > 2 * len(ring.final.history.buf)
        init = ks._History.__init__
        monkeypatch.setattr(ks._History, "__init__",
                            lambda self, n_rows, n_v, dt, capacity:
                            init(self, n_rows, n_v, dt, 1000))
        full = ks.solve(model, f0, 2.0, dt=0.01)
        assert np.array_equal(ring.final.values_hat, full.final.values_hat)

    def test_guard_before_allocation(self):
        # 10**12 slots: an allocation attempt would fail with numpy's own
        # message, not the guard's
        with pytest.raises(MemoryError, match="memory guard"):
            ks._History(169, 64, 0.01, 10 ** 12)

    def test_guard_counts_stored_rows(self):
        # the ring stores the 3 rows of the datum (0.85 MB); all 6561 rows
        # of the lattice |xi_i| <= 40 would need 1.7 GB, over the guard
        grid = ks.SpectralGrid(2 * math.pi, 64)
        model = ks.KineticModel(1.0, 8.0, 4.0, grid)
        f0 = ks.make_initial_field(grid, 0.5, 1, 0.3)
        res = ks.solve(model, f0, 0.2)
        assert res.final.history.buf.shape[1:] == (3, 64)
        assert np.max(np.abs(res.mass - res.mass[0])) == 0.0

    def test_expired_time_rejected(self):
        hist = ks._History(2, 3, 0.5, 4)
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
        hist = ks._History(2, 3, dt, capacity)
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
        modes = lattice(2)
        rho0 = np.linspace(0.1, 1.0, len(modes))
        assert np.array_equal(
            ks.heat_reference(0.3, rho0, modes, 0.0, small_grid), rho0)

    def test_zero_mode_constant(self, small_grid):
        modes = lattice(2)
        rho0 = np.ones(len(modes))
        out = ks.heat_reference(0.3, rho0, modes, 5.0, small_grid)
        assert out[row(modes, (0, 0))] == 1.0

    def test_single_mode_factor(self):
        grid = ks.SpectralGrid(2 * math.pi, 16)
        modes = lattice(1)
        rho0 = np.zeros(len(modes))
        i = row(modes, (1, 0))
        rho0[i] = 1.0
        out = ks.heat_reference(0.375, rho0, modes, 1.0, grid)
        assert out[i] == pytest.approx(math.exp(-0.375), rel=1e-12)


class TestHilbertCorrectors:
    def test_constant_profile_zero_correctors(self, small_grid):
        op = ops.build_LG(1.0, 2 * math.pi, 16)
        modes = lattice(2)
        rho = np.zeros(len(modes), dtype=complex)
        rho[row(modes, (0, 0))] = 1.0
        corr = ks.hilbert_correctors(rho, modes, op, 1.0,
                                     ops.spatial_diffusivity(op), small_grid)
        assert np.max(np.abs(corr.g1_hat)) == 0.0
        assert np.max(np.abs(corr.g2_hat)) == 0.0

    def test_memoryless_first_corrector(self, small_grid):
        # g1 = -(3/(8 mu)) v . grad g0 when the memory vanishes
        mu = 1.0
        op = ops.build_LG(mu, math.inf, 16)
        modes = lattice(2)
        rho = np.zeros(len(modes), dtype=complex)
        rho[row(modes, (1, 0))] = 0.5
        corr = ks.hilbert_correctors(rho, modes, op, 0.0,
                                     ops.spatial_diffusivity(op), small_grid)
        kvec = small_grid.wavevectors(modes)[0]
        ikv = 1j * (kvec[:, 0][:, None] * np.cos(small_grid.angles)[None, :]
                    + kvec[:, 1][:, None] * np.sin(small_grid.angles)[None, :])
        expected = -(3.0 / (8.0 * mu)) * ikv * rho[:, None]
        got = np.fft.ifft(corr.g1_hat, axis=1)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_zero_angular_mean(self, small_grid):
        op = ops.build_LG(1.0, 2 * math.pi, 16)
        modes = lattice(2)
        rho = np.zeros(len(modes), dtype=complex)
        rho[row(modes, (1, 1))] = 1.0
        rho[row(modes, (-1, -1))] = 1.0
        corr = ks.hilbert_correctors(rho, modes, op, 1.0,
                                     ops.spatial_diffusivity(op), small_grid)
        assert np.max(np.abs(corr.g1_hat[:, 0])) == 0.0
        assert np.max(np.abs(corr.g2_hat[:, 0])) == 0.0

    def test_wrong_diffusivity_rejected(self, small_grid):
        # the second corrector equation is solvable only for the induced
        # diffusivity: a mismatched coefficient must be refused
        op = ops.build_LG(1.0, 2 * math.pi, 16)
        modes = lattice(2)
        rho = np.zeros(len(modes), dtype=complex)
        rho[row(modes, (1, 0))] = 1.0
        with pytest.raises(ValueError, match="solvability"):
            ks.hilbert_correctors(rho, modes, op, 1.0,
                                  2.0 * ops.spatial_diffusivity(op), small_grid)


class TestHilbertStudy:
    def test_residual_trend(self):
        grid = ks.SpectralGrid(2 * math.pi, 32)
        f0 = ks.make_initial_field(grid, 0.5, 1, 0.2)
        rows = ks.hilbert_residual_study([3.0, 6.0], 1.0, 1.0, grid, f0, 0.3)
        assert rows[1].dist_heat < rows[0].dist_heat
        assert all(r.dist_hilbert1 < r.dist_heat for r in rows)

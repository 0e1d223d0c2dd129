"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS line with the measured numbers once its
assertions hold (run with ``-s`` to see them during the run).
"""

import math
import os

import numpy as np
import pytest

from maglorentz import boltzmann_process as bp
from maglorentz import kinetic_solver as ks
from maglorentz import lorentz_sim as ls
from maglorentz import medium
from maglorentz import operators as ops

WORKERS = min(4, os.cpu_count() or 1)


def report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_criterion_01_circling_probability():
    # field route: annulus-void frequency over 1e5 realizations
    params = medium.scaling_from(0.01, 1.0, 1.0, 1.0)
    assert params.mu_eff == pytest.approx(100.0)
    p_ref = math.exp(-4.0 * math.pi)
    n = 100_000
    est = medium.empty_annulus_probability_mc(params, (0.0, 0.0), n, seed=2026)
    assert est.closed_form == pytest.approx(p_ref, rel=1e-12)
    sigma = math.sqrt(p_ref * (1.0 - p_ref) / n)
    assert abs(est.estimate - p_ref) <= 3.0 * sigma

    # process route: survival of the first cyclotron period
    proc = bp.circling_fraction_mc(1.0, 2.0 * math.pi, n, seed=2027)
    assert proc.survival_probability == pytest.approx(p_ref, rel=1e-12)
    assert abs(proc.fraction - p_ref) <= 3.0 * sigma
    report(1, f"annulus void {est.estimate:.3g} and process fraction "
              f"{proc.fraction:.3g} both within 3 sigma of {p_ref:.6g}")


def test_criterion_02_memoryless_diffusion_coefficient():
    for mu in (0.5, 1.0, 2.0):
        op = ops.build_LG(mu, math.inf, 64)
        d = ops.diffusion_coefficient(op)
        assert abs(d - 3.0 / (8.0 * mu)) < 1e-10
    # first gain moment against the closed antiderivative of (2b^2-1)/2
    kappa1 = ops.build_K(64).mode(1)
    antiderivative = 0.5 * ((2.0 / 3.0 - 1.0) - (-2.0 / 3.0 + 1.0))
    assert antiderivative == pytest.approx(-1.0 / 3.0, abs=1e-16)
    assert abs(kappa1 - antiderivative) < 1e-12
    report(2, f"D(B=0) = 3/(8 mu) to 1e-10, kappa_1 = {kappa1:.15f}")


def test_criterion_03_three_route_inversion():
    mu, period = 1.0, 1.0
    lg = ops.build_LG(mu, period, 128)
    n = 256
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(100):
        g = rng.normal(size=n)
        coeffs = np.fft.fft(g)
        coeffs[0] = 0.0
        g = np.fft.ifft(coeffs).real
        direct = ops.invert_LG_direct(lg, g)
        neumann = ops.invert_LG_neumann(mu, period, g, tol=1e-10)
        split = ops.invert_split_series(mu, period, g, tol=1e-10)
        worst = max(worst,
                    float(np.max(np.abs(neumann - direct))),
                    float(np.max(np.abs(split - direct))),
                    float(np.max(np.abs(neumann - split))))
    assert worst < 1e-8
    report(3, f"direct/series/split inverses agree to {worst:.2e} "
              "on 100 random zero-mean functions")


def test_criterion_04_green_kubo_cross_validation():
    mu, period = 1.0, 1.0
    op = ops.build_LG(mu, period, 64)
    d_op = ops.diffusion_coefficient(op)
    est = bp.green_kubo_mc(mu, period, 1_000_000, t_cut=6.0, dt_quad=0.01,
                           seed=777)
    combined = est.std_error  # the operator route is deterministic
    assert abs(est.d_estimate - d_op) <= 2.0 * combined
    assert abs(est.d_estimate - d_op) / d_op <= 0.02
    assert combined / d_op <= 0.02
    report(4, f"D_mc = {est.d_estimate:.6f} +- {est.std_error:.6f} vs "
              f"operator {d_op:.6f} "
              f"({abs(est.d_estimate - d_op) / combined:.2f} sigma)")


def test_criterion_05_threshold_arithmetic():
    t_star = 0.5 * math.log(2.0 / (1.0 - ops.BETA))
    assert ops.T_STAR == pytest.approx(t_star, abs=1e-15)
    assert t_star > 0.75
    q = ops.neumann_contraction_factor(1.0, t_star)
    assert abs(q - 1.0) <= 1e-12
    # the discrepancy with the stated field range is reported, not erased
    assert ops.B_STAR < ops.B_STATED
    report(5, f"T* = {ops.T_STAR:.6f} > 3/4, q(T*) - 1 = {q - 1.0:.2e}; "
              f"B* = {ops.B_STAR:.4f} vs stated bound "
              f"{ops.B_STATED:.4f} (gap {ops.B_STATED - ops.B_STAR:.4f})")


def test_criterion_06_kinetic_relaxation_rate():
    mu, eta = 1.0, 4.0
    grid = ks.SpectralGrid(2.0 * math.pi, 0, 32)
    model = ks.KineticModel(mu, eta, 0.0, grid)
    f0 = ks.make_initial_field(grid, 0.0, 0, 0.5)
    expect = 2.0 * mu * eta ** 2 * (4.0 / 3.0)
    # fit over exactly one decade of decay of the first harmonic
    t_decade = math.log(10.0) / expect
    snaps = np.linspace(0.2 * t_decade, 1.2 * t_decade, 15)
    res = ks.solve(model, f0, 1.25 * t_decade, dt=2e-4, snapshot_times=snaps)
    # row 0 holds the (0, 0) mode, the only one the datum carries
    amps = np.array([abs(h[0, 1]) for _, h in res.snapshots])
    ts = np.array([t for t, _ in res.snapshots])
    assert amps[0] / amps[-1] == pytest.approx(10.0, rel=0.15)
    rate = -np.polyfit(ts, np.log(amps), 1)[0]
    assert abs(rate - expect) / expect < 0.01
    report(6, f"first-harmonic decay rate {rate:.4f} vs 8 mu eta^2 / 3 = "
              f"{expect:.4f} ({abs(rate - expect) / expect:.2%})")


def test_criterion_07_mass_conservation_grid():
    grid = ks.SpectralGrid(2.0 * math.pi, 1, 32)
    f0 = ks.make_initial_field(grid, 0.5, 1, 0.3)
    worst = 0.0
    for b in (1.0, 4.0, 7.9):
        for mu, eta in ((0.5, 2.0), (1.0, 3.0), (2.0, 4.0)):
            model = ks.KineticModel(mu, eta, b, grid)
            res = ks.solve(model, f0, 0.5)
            drift = float(np.max(np.abs(res.mass - res.mass[0]))) / 0.5
            worst = max(worst, drift)
            assert drift < 1e-12
    report(7, f"mass drift per unit time at most {worst:.2e} over the "
              "3x3 (mu, eta) x B grid including B = 7.9")


def test_criterion_08_hydrodynamic_trend():
    grid = ks.SpectralGrid(2.0 * math.pi, 2, 48)
    f0 = ks.make_initial_field(grid, 0.5, 1, 0.2)
    rows = ks.hilbert_residual_study([4.0, 8.0, 16.0], 1.0, 1.0, grid, f0,
                                     t_probe=0.5)
    dists = [r.dist_heat for r in rows]
    assert dists[1] < dists[0] and dists[2] < dists[1]
    assert all(r.dist_hilbert1 < r.dist_heat for r in rows)
    report(8, "heat-profile distance strictly decreases over eta in {4,8,16} "
              + "(" + ", ".join(f"{d:.2e}" for d in dists) + "); first "
              "corrector reduces it at every eta")


def test_criterion_09_event_scaling_shapes():
    eps_ladder = [4e-3, 2e-3, 1e-3, 5e-4]
    res = ls.event_rate_study(eps_ladder, 2.0, 1.0, 1.0, 5.0, 10_000,
                              seed=909, workers=WORKERS)
    p_rec = res.probabilities("recollision")
    assert np.all(np.diff(p_rec) < 0.0), f"recollision not decreasing: {p_rec}"
    exp_rec = res.exponents["recollision"]
    assert exp_rec >= 0.4
    p_daisy = res.probabilities("daisy")
    assert np.all(np.diff(p_daisy) <= 0.0)
    exp_daisy = res.exponents["daisy"]
    if np.any(p_daisy > 0.0):
        assert exp_daisy >= 0.9
        daisy_note = f"daisy exponent {exp_daisy:.2f}"
    else:
        # full-orbit survival is exp(-8 pi) here: trapping is unobservable
        # at any feasible replica count, so the decay clause holds vacuously
        daisy_note = "daisy probability identically zero (vacuous decay)"
    report(9, f"recollision p = {np.round(p_rec, 4).tolist()} "
              f"(exponent {exp_rec:.2f} >= 0.4); {daisy_note}")


def test_criterion_10_microscopic_msd_slope():
    # extended consistency run: microscopic mean squared displacement,
    # B = 0, against the operator-route coefficient.  The displacement
    # identity MSD(t) -> 2 D_gk t fixes the conversion: the late-time
    # least-squares slope over 2 must land within 10% of 3/8.
    params = medium.scaling_from(1e-3, 1.0, 1.0, 0.0)
    grid = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    res = ls.msd_estimate(params, 1200, grid, seed=20260301, workers=WORKERS)
    assert res.n_aborted == 0
    late = slice(2, None)
    slope = np.polyfit(res.time_grid[late], res.msd[late], 1)[0]
    d_hat = slope / 2.0
    d_ref = ops.diffusion_coefficient(ops.build_LG(1.0, math.inf, 64))
    assert d_ref == pytest.approx(0.375, abs=1e-10)
    assert abs(d_hat - d_ref) / d_ref <= 0.10
    report(10, f"late-time MSD slope / 2 = {d_hat:.4f} vs 3/8 "
               f"({abs(d_hat - d_ref) / d_ref:.2%} off)")

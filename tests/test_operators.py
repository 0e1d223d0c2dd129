import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maglorentz import operators as ops
from maglorentz.geometry import deflection_from_impact
from maglorentz.kinetic_solver import KineticModel, SpectralGrid


def closed_form_moment(j: int) -> float:
    """Independent oracle: -1/(4 j^2 - 1).

    From b = sin(phi): the moment is the elementary trigonometric integral
    int_0^{pi/2} cos(j (pi - 2 phi)) cos(phi) dphi, which telescopes to
    -1/(4 j^2 - 1); test_symbolic_moments verifies this formula itself by
    exact symbolic integration.
    """
    return 1.0 if j == 0 else -1.0 / (4.0 * j * j - 1.0)


def apply_grid(op: ops.AngularOperator, values: np.ndarray) -> np.ndarray:
    """Apply the operator to samples on a uniform angle grid (last axis)."""
    n = values.shape[-1]
    return np.fft.ifft(np.fft.fft(values, axis=-1) * op.fft_multipliers(n),
                       axis=-1)


def diffusion_tensor(op: ops.AngularOperator, n_grid: int = 512) -> np.ndarray:
    """2x2 tensor ``(1/2pi) int v_i ((-(L+M))^-1 v)_j dv`` by grid quadrature.

    Isotropy cross-check for the scalar route: the tensor is diagonal with
    equal entries ``-1/(2 lambda_1)`` and its trace equals
    ``diffusion_coefficient(op)``.
    """
    n_grid = min(n_grid, 2 * op.m_modes)
    alpha = 2.0 * math.pi * np.arange(n_grid) / n_grid
    comps = [np.cos(alpha), np.sin(alpha)]
    inv = op.fft_inverse(n_grid)
    out = np.empty((2, 2))
    for j in range(2):
        hj = -np.fft.ifft(np.fft.fft(comps[j]) * inv).real
        for i in range(2):
            out[i, j] = float(np.mean(comps[i] * hj))
    return out


def grid_kernel_apply(mode: int, mu: float, period: float, n_grid: int = 4096,
                      n_quad: int = 2048, k_cut: int | None = None):
    """Brute-force kernel action on exp(i m alpha) over an angle grid.

    Integrates over the surface-normal angle with the projected-flux weight
    (an independent parametrization of the impact integral) and reads off
    the multiplier by Fourier transform.
    """
    alpha = 2.0 * math.pi * np.arange(n_grid) / n_grid
    f = np.exp(1j * mode * alpha)
    x, w = np.polynomial.legendre.leggauss(n_quad)
    psi = 0.5 * math.pi * x  # normal direction relative to the velocity
    weight = 0.5 * math.pi * w * np.cos(psi)
    shift = math.pi - 2.0 * psi  # angle increment of one reflection
    if period == math.inf:
        k_terms = [0]
    else:
        if k_cut is None:
            k_cut = ops.default_k_cut(mu, period)
        k_terms = list(range(0, k_cut + 1))
    out = np.zeros_like(f)
    for k in k_terms:
        wk = math.exp(-2.0 * mu * k * period) if k else 1.0
        gain = np.exp(1j * mode * (k + 1) * shift) @ weight
        loss = np.exp(1j * mode * k * shift) @ weight
        out += mu * wk * (gain - loss) * f
    coeffs = np.fft.fft(out) / n_grid
    # multiplier = coefficient on the same harmonic
    return coeffs[mode % n_grid]


class TestMoments:
    def test_symbolic_moments(self):
        # exact symbolic integration certifies the closed form for small j
        import sympy as sp

        b = sp.Symbol("b")
        for j in range(0, 7):
            val = sp.integrate(
                sp.cos(j * (sp.pi - 2 * sp.asin(b))), (b, -1, 1)) / 2
            assert sp.simplify(
                val - sp.Rational(-1, 4 * j * j - 1 if j else -1)) == 0

    def test_closed_form_agreement(self):
        got = ops.deflection_cosine_moments(160)
        for j in range(161):
            assert got[j] == closed_form_moment(j)

    def test_first_moment_antiderivative(self):
        # (1/2) int (2 b^2 - 1) db over [-1, 1] = -1/3 by the antiderivative
        # (2 b^3 / 3 - b) / 2, evaluated in exact rationals
        val = Fraction(1, 2) * ((Fraction(2, 3) - 1) - (Fraction(-2, 3) + 1))
        assert val == Fraction(-1, 3)
        assert ops.deflection_cosine_moments(1)[1] == float(val)

    def test_exact_rational_moments(self):
        # every moment is the correctly rounded double of 1/(1 - 4 j^2), far
        # beyond the largest table the memory series asks for
        got = ops.deflection_cosine_moments(12_800)
        assert len(got) == 12_801
        for j in range(12_801):
            assert got[j] == float(Fraction(1, 1 - 4 * j * j))


def test_package_imports_no_scipy():
    # a fresh interpreter, so modules the test session loaded do not count
    src = str(Path(ops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import importlib, pkgutil, sys, maglorentz\n"
            "names = [m.name for m in pkgutil.iter_modules(maglorentz.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('maglorentz.' + name)\n"
            "print(len(names), 'scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    n_modules, has_scipy = out.stdout.split()
    assert int(n_modules) >= 8 and has_scipy == "False"


class TestBuildK:
    def test_mass_mode(self):
        k = ops.build_K(16)
        assert k.mode(0) == 1.0

    def test_first_harmonic(self):
        k = ops.build_K(16)
        assert k.mode(1) == pytest.approx(-1.0 / 3.0, abs=1e-13)

    def test_contraction_bound(self):
        k = ops.build_K(64)
        tail = [abs(k.mode(m)) for m in range(1, 65)]
        assert max(tail) <= ops.BETA


class TestBuildL:
    def test_modes(self):
        mu = 1.7
        ell = ops.build_L(mu, 32)
        assert ell.mode(0) == 0.0
        assert ell.mode(1) == pytest.approx(-8.0 * mu / 3.0, abs=1e-12)
        assert all(ell.mode(m) < 0.0 for m in range(1, 33))

    def test_even_and_real(self):
        ell = ops.build_L(1.0, 32)
        for m in range(33):
            assert ell.mode(m) == ell.mode(-m)
        assert np.isrealobj(ell.multipliers)


class TestBuildM:
    def test_mass_mode_zero(self):
        m = ops.build_M(1.0, 1.0, 16)
        assert m.mode(0) == 0.0

    def test_vanishes_without_memory(self):
        m = ops.build_M(1.0, 1e6, 16)
        assert np.all(m.multipliers == 0.0)

    @pytest.mark.parametrize("build, args, name", [
        (ops.build_L, (math.nan, 4), "mu"),
        (ops.build_L, (math.inf, 4), "mu"),
        (ops.build_M, (math.nan, 1.0, 4), "mu"),
        (ops.build_M, (math.inf, 1.0, 4), "mu"),
        (ops.build_M, (1.0, math.nan, 4), "period"),
        (ops.build_LG, (1.0, math.nan, 4), "period")])
    def test_non_finite_rejected(self, build, args, name):
        with pytest.raises(ValueError, match=name):
            build(*args)

    def test_infinite_period_has_no_memory(self):
        m = ops.build_M(1.0, math.inf, 16)
        assert ops.default_k_cut(1.0, math.inf) == 0
        assert np.all(m.multipliers == 0.0)

    def test_zero_k_cut_table_has_no_rows(self):
        assert ops.memory_mode_table(1.0, math.inf, 16).shape == (0, 17)

    @pytest.mark.parametrize("mu,period", [
        (1.0, 1.0), (0.25, 0.5), (3.0, 0.1), (1.0, 1e6)])
    def test_table_rows_are_the_default_cut(self, mu, period):
        assert (len(ops.memory_mode_table(mu, period, 16))
                == ops.default_k_cut(mu, period))

    @pytest.mark.parametrize("mu,m_modes", [(0.25, 8), (1.0, 64), (3.0, 17)])
    def test_infinite_period_full_operator_is_L(self, mu, m_modes):
        lg = ops.build_LG(mu, math.inf, m_modes)
        assert np.array_equal(lg.multipliers,
                              ops.build_L(mu, m_modes).multipliers)
        assert ops.default_k_cut(mu, math.inf) == 0

    def test_cyclotron_period(self):
        assert ops.cyclotron_period(0.0) == math.inf
        assert ops.cyclotron_period(4.0) == 0.5 * math.pi

    def test_weight_rounding_to_one_refused(self):
        # exp(-2 mu T) is 1.0 here and log(w) is 0: no truncation will do
        assert ops.survival_weight(1e-300, 1.0) == 1.0
        with pytest.raises(ValueError, match="memory series needs"):
            ops.default_k_cut(1e-300, 1.0)
        # every truncation goes through default_k_cut, so every entry refuses
        for entry in (ops.build_M, ops.build_LG, ops.memory_mode_table):
            with pytest.raises(ValueError, match="memory series needs"):
                entry(1e-300, 1.0, 16)
        with pytest.raises(ValueError, match="memory series needs"):
            KineticModel(1e-300, 2.0, 1.0, SpectralGrid(2 * math.pi, 16))

    def test_first_memory_multiplier_against_grid_kernel(self):
        mu, period = 1.0, 1.0
        m = ops.build_M(mu, period, 16)
        ell = ops.build_L(mu, 16)
        ref = grid_kernel_apply(1, mu, period,
                                k_cut=ops.default_k_cut(mu, period))
        assert abs(ref.imag) < 1e-10
        assert m.mode(1) + ell.mode(1) == pytest.approx(ref.real, abs=1e-10)

    def test_grid_multiplier_duality(self):
        mu, period = 1.0, 1.0
        lg = ops.build_LG(mu, period, 64)
        for mode in (1, 2, 3, 5, 9, 17, 33, 64):
            ref = grid_kernel_apply(mode, mu, period,
                                    k_cut=ops.default_k_cut(mu, period))
            assert abs(ref.imag) < 1e-10
            assert lg.mode(mode) == pytest.approx(ref.real, abs=1e-10)


class TestPositivity:
    def test_negative_definite_on_zero_mean(self):
        ell = ops.build_L(1.0, 128)
        rng = np.random.default_rng(11)
        n = 256
        for _ in range(1000):
            g = rng.normal(size=n)
            g -= g.mean()
            lg = apply_grid(ell, g).real
            assert float(g @ lg) < 0.0


class TestDirectInversion:
    def test_zero_in_zero_out(self):
        lg = ops.build_LG(1.0, 1.0, 16)
        g = np.zeros(32)
        assert np.all(ops.invert_LG_direct(lg, g) == 0.0)

    def test_memoryless_first_harmonic(self):
        mu = 1.0
        lg = ops.build_LG(mu, math.inf, 16)
        alpha = 2.0 * math.pi * np.arange(32) / 32
        h = ops.invert_LG_direct(lg, np.cos(alpha))
        expected = -3.0 / (8.0 * mu) * np.cos(alpha)
        assert np.max(np.abs(h - expected)) < 1e-12

    def test_roundtrip(self):
        lg = ops.build_LG(1.3, 0.9, 32)
        rng = np.random.default_rng(2)
        g = rng.normal(size=64) + 1j * rng.normal(size=64)
        g -= g.mean()
        h = ops.invert_LG_direct(lg, g)
        assert np.max(np.abs(apply_grid(lg, h) - g)) < 1e-12

    def test_mean_rejected(self):
        lg = ops.build_LG(1.0, 1.0, 8)
        g = np.ones(16)
        with pytest.raises(ValueError):
            ops.invert_LG_direct(lg, g)


class TestFftInverse:
    def test_singular_harmonic_rejected(self):
        op = ops.AngularOperator(np.array([0.0, 0.0, -1.0]))
        with pytest.raises(ops.NearSingularOperatorError):
            op.fft_inverse(4)

    def test_mean_maps_to_zero(self):
        k = ops.build_K(8)
        assert k.mode(0) == 1.0
        inv = k.fft_inverse(16)
        assert inv[0] == 0.0
        assert inv[1] == 1.0 / k.mode(1)
        assert inv[-1] == 1.0 / k.mode(-1)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m_modes=st.integers(1, 48), data=st.data())
def test_fft_layout_and_direct_roundtrip(m_modes, data):
    # the m >= 0 layout read in FFT order equals mode() at each bin, and the
    # modewise inverse undoes the operator on zero-mean grid functions
    n = data.draw(st.integers(1, 2 * m_modes), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    lg = ops.build_LG(1.3, 0.9, m_modes)
    lam = lg.fft_multipliers(n)
    for k in range(n):
        assert lam[k] == lg.mode(k if 2 * k < n else k - n)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    g -= g.mean()
    h = ops.invert_LG_direct(lg, g)
    assert np.max(np.abs(apply_grid(lg, h) - g)) < 1e-12


def random_zero_mean(rng, n):
    g = rng.normal(size=n)
    coeffs = np.fft.fft(g)
    coeffs[0] = 0.0
    return np.fft.ifft(coeffs).real


class TestSeriesRoutes:
    def test_neumann_zero(self):
        out = ops.invert_LG_neumann(1.0, 1.0, np.zeros(64))
        assert np.all(out == 0.0)

    def test_routes_match_direct(self):
        mu, period = 1.0, 1.0
        rng = np.random.default_rng(9)
        lg = ops.build_LG(mu, period, 32)
        for _ in range(20):
            g = random_zero_mean(rng, 64)
            direct = ops.invert_LG_direct(lg, g)
            neumann = ops.invert_LG_neumann(mu, period, g, tol=1e-10)
            split = ops.invert_split_series(mu, period, g, tol=1e-10)
            assert np.max(np.abs(neumann - direct)) < 1e-8
            assert np.max(np.abs(split - direct)) < 1e-8

    def test_contraction_factor_at_threshold(self):
        q = ops.neumann_contraction_factor(1.0, ops.T_STAR)
        assert abs(q - 1.0) <= 1e-12

    def test_refusal_below_threshold(self):
        bad_period = ops.T_STAR * 0.98
        with pytest.raises(ops.SeriesDivergenceError):
            ops.invert_LG_neumann(1.0, bad_period, random_zero_mean(
                np.random.default_rng(0), 32))

    def test_split_single_term_without_memory(self):
        mu = 2.0
        g = random_zero_mean(np.random.default_rng(1), 32)
        got = ops.invert_split_series(mu, math.inf, g, tol=1e-12)
        ell = ops.build_L(mu, 16)
        lam = ell.fft_multipliers(32)
        ref = np.fft.ifft(np.where(lam == 0.0, 0.0, np.fft.fft(g) /
                                   np.where(lam == 0.0, 1.0, lam)))
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_split_refusal(self):
        with pytest.raises(ops.SeriesDivergenceError):
            ops.invert_split_series(1.0, 0.2, random_zero_mean(
                np.random.default_rng(0), 32))

    def test_one_guard_for_both_routes(self):
        # the split bound |M| |L^-1| < 1 is the contraction factor < 1
        # rewritten; on the float periods around the threshold both routes
        # run or refuse together, including the one period where the
        # rewritten bound rounds below 1 and the factor does not
        g = random_zero_mean(np.random.default_rng(2), 32)
        period = ops.T_STAR
        for _ in range(20):
            period = math.nextafter(period, 0.0)
        for _ in range(40):
            refused = []
            for route in (ops.invert_LG_neumann, ops.invert_split_series):
                try:
                    route(1.0, period, g, max_terms=10)
                    refused.append(False)
                except ops.SeriesDivergenceError as exc:
                    refused.append("not guaranteed" in str(exc))
            assert refused[0] == refused[1] == (
                ops.neumann_contraction_factor(1.0, period) >= 1.0)
            period = math.nextafter(period, 1.0)


class TestDiffusion:
    def test_memoryless_value(self):
        for mu in (0.5, 1.0, 2.0):
            lg = ops.build_LG(mu, math.inf, 16)
            assert ops.diffusion_coefficient(lg) == pytest.approx(
                3.0 / (8.0 * mu), abs=1e-10)

    def test_long_period_tail(self):
        # survival weight below 1e-7 leaves the memoryless value within 1e-6
        mu = 1.0
        period = -math.log(1e-7) / (2 * mu) * 1.001
        lg = ops.build_LG(mu, period, 16)
        assert abs(ops.diffusion_coefficient(lg) - 0.375) < 1e-6

    def test_isotropy(self):
        lg = ops.build_LG(1.0, 1.0, 32)
        tens = diffusion_tensor(lg)
        d = ops.diffusion_coefficient(lg)
        assert tens[0, 0] == pytest.approx(tens[1, 1], abs=1e-12)
        assert abs(tens[0, 1]) < 1e-12 and abs(tens[1, 0]) < 1e-12
        assert tens[0, 0] + tens[1, 1] == pytest.approx(d, abs=1e-12)
        assert ops.spatial_diffusivity(lg) == pytest.approx(tens[0, 0], abs=1e-12)

    def test_memory_raises_diffusion(self):
        # replayed deflections keep some velocity coherence: D grows with memory
        d0 = ops.diffusion_coefficient(ops.build_LG(1.0, math.inf, 16))
        d1 = ops.diffusion_coefficient(ops.build_LG(1.0, 1.0, 16))
        assert d1 > d0

    def test_sweep_rows(self):
        # B = 8.3 sits between the derived series threshold (about 8.165)
        # and the stated admissible range boundary 8*pi/3 (about 8.378)
        rows = ops.diffusion_sweep(1.0, [0.0, 1.0, 8.0, 8.3])
        b, period, d_direct, d_markov, d_mem, converged = rows[0]
        assert b == 0.0 and period == math.inf
        assert d_direct == pytest.approx(0.375, abs=1e-12)
        assert d_mem == pytest.approx(0.0, abs=1e-12)
        assert converged
        assert rows[1][2] > 0.375  # memory contribution at B = 1
        assert rows[2][5]  # B = 8 still inside the series threshold
        assert not rows[3][5]  # B = 8.3 beyond it; direct route still works
        assert rows[3][2] > 0.375
        assert all(r[3] == pytest.approx(0.375) for r in rows)

    @pytest.mark.parametrize("mu", [1.0, 0.25])
    def test_sweep_rows_equal_a_64_mode_build(self, mu):
        # the rows read only lambda_1, so one harmonic gives the rows of a
        # 64-harmonic build bit for bit
        b_values = [0.1 * i for i in range(101)]
        d_markov = 3.0 / (8.0 * mu)
        expected = []
        for b in b_values:
            period = ops.cyclotron_period(b)
            d = -1.0 / ops.build_LG(mu, period, 64).mode(1)
            expected.append((b, period, d, d_markov, d - d_markov,
                             ops.neumann_contraction_factor(mu, period) < 1.0))
        assert ops.diffusion_sweep(mu, b_values) == expected


class TestThreshold:
    def test_values(self):
        assert ops.BETA == pytest.approx((math.pi - 2.0) / 2.0, abs=1e-15)
        assert ops.T_STAR == pytest.approx(
            0.5 * math.log(2.0 / (1.0 - ops.BETA)), abs=1e-15)
        assert ops.T_STAR > 0.75
        assert ops.B_STAR == pytest.approx(2.0 * math.pi / ops.T_STAR, abs=1e-12)
        assert ops.B_STAR < ops.B_STATED
        assert ops.B_STATED == pytest.approx(8.0 * math.pi / 3.0, abs=1e-15)
        assert ops.B_STATED - ops.B_STAR > 0.2

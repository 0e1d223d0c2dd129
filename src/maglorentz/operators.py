"""Angular collision operators on the velocity circle and their inverses.

Every operator here is rotation invariant, hence diagonal in the angular
Fourier basis: its whole content is a real, even sequence of multipliers
``lambda_m``.  The building block is the moment

    c_j = (1/2) * integral_{-1}^{1} cos(j * deflection(b)) db,

the j-fold deflection cosine averaged over a uniform normalized impact
parameter.  Since ``cos(deflection(b)) = 2 b^2 - 1``, the integrand is the
Chebyshev polynomial T_j(2 b^2 - 1) = T_2j(b), and the integral of an even
Chebyshev polynomial, ``integral_{-1}^{1} T_n(b) db = 2 / (1 - n^2)``, gives
the closed form ``c_j = 1 / (1 - 4 j^2)``.

Multipliers:

* gain-only kernel K:            kappa_m = c_m
* collision operator L:          ell_m   = 2 mu (c_m - 1)
* memory operator M:             m_m     = 2 mu sum_{k>=1} w^k (c_{m(k+1)} - c_{mk})
* full operator:                 lambda_m = ell_m + m_m

with the per-period survival weight ``w = exp(-2 mu T)`` for cyclotron
period T.  The memory series realizes repeated identical deflections off
the same obstacle, one per completed period.  It is truncated after
``default_k_cut`` terms and nowhere else: ``memory_mode_table`` has one row
per kept term, and no builder takes a cut of its own.  At B = 0 the period
is infinite, w = 0 and M vanishes: L + M is then the plain Lorentz gas's L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: contraction bound of the gain kernel on zero-mean functions
BETA = (math.pi - 2.0) / 2.0

# Inversion threshold of the series routes at mu = 1: T_STAR solves
# ``neumann_contraction_factor(1, T) = 1`` and B_STAR = 2 pi / T_STAR is its
# field.  The stated admissible range is B below B_STATED, i.e. a period
# above 3/4; it does not coincide with the derived sufficient threshold, and
# the gap B_STATED - B_STAR is left as a documented discrepancy.
T_STAR = 0.5 * math.log(2.0 / (1.0 - BETA))
B_STAR = 2.0 * math.pi / T_STAR
B_STATED = 8.0 * math.pi / 3.0

#: memory-series truncation guarantees a tail below this
MEMORY_TOL = 1e-14

_MAX_K_CUT = 512


class SeriesDivergenceError(RuntimeError):
    """A series inversion route refused to run: its sufficient condition fails."""


class NearSingularOperatorError(ArithmeticError):
    """A multiplier needed for inversion is numerically zero."""


def cyclotron_period(b: float) -> float:
    """Period 2 pi / B of the unit-speed orbit; infinite when B = 0."""
    return 2.0 * math.pi / b if b > 0.0 else math.inf


def survival_weight(mu: float, period: float) -> float:
    """Probability of completing one cyclotron period without scattering.

    It is exactly 0 without a field: exp(-inf) = 0.
    """
    return math.exp(-2.0 * mu * period)


def default_k_cut(mu: float, period: float) -> int:
    """Smallest truncation with ``survival_weight**k_cut < MEMORY_TOL``."""
    w = survival_weight(mu, period)
    if w == 0.0:
        return 0
    # w rounds to 1 below 2 mu T = 1e-16 or so: no truncation will do
    k = (int(math.ceil(math.log(MEMORY_TOL) / math.log(w))) + 1 if w < 1.0
         else math.inf)
    if k > _MAX_K_CUT:
        raise ValueError(
            f"memory series needs {k} terms at mu={mu}, T={period}; the period "
            "is too short for a truncated treatment")
    return k


@lru_cache(maxsize=64)
def deflection_cosine_moments(j_max: int) -> np.ndarray:
    """Moments c_0..c_jmax in closed form, ``c_j = 1 / (1 - 4 j^2)``.

    Each entry is the correctly rounded double of the exact rational: the
    denominator ``1 - 4 j^2`` is an exact double while ``4 j^2 < 2^53``
    (j below 4.7e7), and the one division rounds once.
    """
    j = np.arange(j_max + 1, dtype=float)
    return 1.0 / (1.0 - 4.0 * j * j)


@dataclass(frozen=True)
class AngularOperator:
    """Fourier-multiplier representation of an angular operator.

    ``multipliers[m]`` is the eigenvalue on the harmonics ``exp(+-i m alpha)``
    for m in [0, m_modes]; the operator is real and even in m, so the
    negative harmonics are not stored.
    """

    multipliers: np.ndarray

    @property
    def m_modes(self) -> int:
        return len(self.multipliers) - 1

    def mode(self, m: int) -> float:
        if abs(m) > self.m_modes:
            raise IndexError(f"harmonic {m} beyond truncation {self.m_modes}")
        return float(self.multipliers[abs(m)])

    def fft_multipliers(self, n_grid: int) -> np.ndarray:
        """Multipliers reordered to match ``numpy.fft.fft`` output bins."""
        m = np.abs(np.fft.fftfreq(n_grid, 1.0 / n_grid).astype(int))
        if np.max(m) > self.m_modes:
            raise ValueError(
                f"grid of {n_grid} points needs harmonics up to {n_grid // 2}, "
                f"operator holds {self.m_modes}")
        return self.multipliers[m]

    def fft_inverse(self, n_grid: int) -> np.ndarray:
        """Reciprocal multipliers in FFT order, 0 on the mean (m = 0).

        The one modewise inverse of the package: multiplying the FFT of a
        zero-mean function by it solves ``op h = g`` on the zero-mean
        subspace.  Raises if a harmonic m != 0 has a vanishing multiplier.
        """
        lam = self.fft_multipliers(n_grid)
        small = np.abs(lam) < 1e-13
        if np.any(small[1:]):
            raise NearSingularOperatorError(
                "a nonzero harmonic has a vanishing multiplier")
        inv = np.where(small, 0.0, 1.0 / np.where(small, 1.0, lam))
        inv[0] = 0.0
        return inv


def build_K(m_modes: int) -> AngularOperator:
    """Gain-only kernel: average of the post-collision value over impacts."""
    c = deflection_cosine_moments(m_modes)
    return AngularOperator(c)


def build_L(mu: float, m_modes: int) -> AngularOperator:
    """Memoryless collision operator, total scattering rate 2 mu."""
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be positive and finite")
    c = deflection_cosine_moments(m_modes)
    return AngularOperator(2.0 * mu * (c - 1.0))


def memory_mode_table(mu: float, period: float, m_modes: int) -> np.ndarray:
    """Per-delay multiplier table of the memory operator.

    Row k-1 (k = 1..k_cut) holds, for m in [0, m_modes],
    ``2 mu w^k (c_{m(k+1)} - c_{m k})``: the contribution of the k-th
    repeated deflection.  The row count k_cut is ``default_k_cut``'s, the
    one truncation of the memory series: none without a field, and a
    ``ValueError`` when w rounds to 1.  Summing rows gives the memory
    multipliers; the delayed kinetic solver applies row k to the field one
    period times k in the past.
    """
    k_cut = default_k_cut(mu, period)
    w = survival_weight(mu, period)
    c = deflection_cosine_moments(m_modes * (k_cut + 1))
    m = np.arange(m_modes + 1)
    rows = np.empty((k_cut, m_modes + 1))
    for k in range(1, k_cut + 1):
        rows[k - 1] = 2.0 * mu * w ** k * (c[m * (k + 1)] - c[m * k])
    rows[:, 0] = 0.0
    return rows


def build_M(mu: float, period: float, m_modes: int) -> AngularOperator:
    """Memory operator: repeated identical deflections, one per period."""
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be positive and finite")
    if not period > 0.0:
        raise ValueError("period must be positive (it may be infinite)")
    return AngularOperator(memory_mode_table(mu, period, m_modes).sum(axis=0))


def build_LG(mu: float, period: float, m_modes: int) -> AngularOperator:
    """Full collision operator with memory: L + M (L exactly at B = 0)."""
    return AngularOperator(build_L(mu, m_modes).multipliers
                           + build_M(mu, period, m_modes).multipliers)


def _check_zero_mean(g_hat_0: complex, scale: float):
    if abs(g_hat_0) > 1e-10 * max(scale, 1e-300):
        raise ValueError("input must have zero angular mean")


def invert_LG_direct(op: AngularOperator, g: np.ndarray) -> np.ndarray:
    """Solve (L + M) h = g modewise for zero-mean g on a uniform angle grid."""
    g = np.asarray(g, dtype=complex)
    _check_zero_mean(np.mean(g), float(np.max(np.abs(g))))
    return np.fft.ifft(np.fft.fft(g) * op.fft_inverse(len(g)))


def memory_norm_bound(mu: float, period: float) -> float:
    """Norm bound ``w/(1-w) (beta + 1)`` of M / (2 mu) on zero-mean functions.

    It sums ``w^k (beta + 1)`` over the delays k >= 1, with the survival
    weight w; both series bounds and the kinetic time step read it.
    """
    w = survival_weight(mu, period)
    return w / (1.0 - w) * (BETA + 1.0)


def neumann_contraction_factor(mu: float, period: float) -> float:
    """Operator-norm bound of the fixed-point map of the direct series.

    The inversion iterates ``h <- -g/(2 mu) + (K + M/(2 mu)) h``; the bound
    on zero-mean functions is ``beta + memory_norm_bound``.  The series is
    guaranteed convergent when this is below 1.
    """
    return BETA + memory_norm_bound(mu, period)


def _grid_series_setup(mu, period, g):
    """Checked input and memory multipliers of both series routes; the
    split bound ``|M| |L^-1| < 1`` is the contraction factor's rewritten."""
    q = neumann_contraction_factor(mu, period)
    if q >= 1.0:
        raise SeriesDivergenceError(
            f"contraction factor {q:.6f} >= 1: series not guaranteed convergent "
            f"(period {period:g} at or below the inversion threshold)")
    g = np.asarray(g, dtype=complex)
    n = len(g)
    _check_zero_mean(np.mean(g), float(np.max(np.abs(g))))
    mf = build_M(mu, period, n // 2).fft_multipliers(n)
    return g, n, mf


def _sum_series(g, ratio, out, tol, max_terms):
    """``ifft(sum_k out ratio^k fft(g))`` over k >= 0, per FFT bin.

    ``out=None`` stands for multipliers of 1, left unapplied: a complex
    product with 1 can flip the sign of a zero.  Terms are added until the
    newest one's grid maximum drops below ``tol`` times that of g.
    """
    u = np.fft.fft(g)
    total = u.copy() if out is None else out * u
    scale = float(np.max(np.abs(g))) or 1.0
    for _ in range(max_terms):
        u = ratio * u
        term = u if out is None else out * u
        total += term
        if np.max(np.abs(np.fft.ifft(term))) < tol * scale:
            return np.fft.ifft(total)
    raise SeriesDivergenceError("series did not settle within max_terms")


def invert_LG_neumann(mu: float, period: float, g: np.ndarray,
                      tol: float = 1e-10,
                      max_terms: int = 100_000) -> np.ndarray:
    """Series inversion of (L + M) h = g on a uniform angle grid.

    Iterates the fixed-point form ``h = -g/(2 mu) + (K + M/(2 mu)) h`` and
    sums partial terms until the newest term norm drops below ``tol``.
    Refuses when the contraction bound is not below 1.
    """
    g, n, mf = _grid_series_setup(mu, period, g)
    ratio = build_K(n // 2).fft_multipliers(n) + mf / (2.0 * mu)
    return _sum_series(g, ratio, None, tol, max_terms) * (-1.0 / (2.0 * mu))


def invert_split_series(mu: float, period: float, g: np.ndarray,
                        tol: float = 1e-10,
                        max_terms: int = 100_000) -> np.ndarray:
    """Inversion via ``h = sum_k L^-1 [M (-L)^-1]^k g`` on an angle grid.

    The k = 0 truncation is the memoryless inverse; higher terms add the
    memory corrections.  Refuses when ``|M| |L^-1|`` is not below 1.
    """
    g, n, mf = _grid_series_setup(mu, period, g)
    inv_ell = build_L(mu, n // 2).fft_inverse(n)
    return _sum_series(g, mf * (-inv_ell), inv_ell, tol, max_terms)


def diffusion_coefficient(op: AngularOperator) -> float:
    """Velocity-autocorrelation time integral via the first harmonic.

    The average of ``v . (-(L+M))^{-1} v`` over the unit circle reduces
    exactly to ``-1/lambda_1``.
    """
    lam1 = op.mode(1)
    if abs(lam1) < 1e-13:
        raise NearSingularOperatorError("first harmonic multiplier is numerically zero")
    return -1.0 / lam1


def spatial_diffusivity(op: AngularOperator) -> float:
    """Coefficient of the limiting heat equation, ``-1/(2 lambda_1)``.

    The mean squared displacement identity ``MSD(t) -> 2 D_gk t`` with the
    trace-form Green-Kubo integral ``D_gk = diffusion_coefficient(op)`` and
    the planar heat-equation convention ``MSD(t) -> 4 D_heat t`` fix
    ``D_heat = D_gk / 2``; equivalently it is either diagonal entry of the
    isotropic tensor ``(1/2pi) int v_i ((-(L+M))^-1 v)_j dv``.  Use this
    wherever a heat profile is compared against kinetic or microscopic
    dynamics.
    """
    return 0.5 * diffusion_coefficient(op)


def diffusion_sweep(mu: float, b_values):
    """Rows (B, T, D_direct, D_markovian_term, D_memory_sum, series_converged).

    ``D_direct`` reads only lambda_1, so one harmonic is built.
    ``D_markovian_term`` is the memoryless value 3/(8 mu); the memory sum is
    the remainder of the split series.  ``series_converged`` records whether
    the sufficient condition of the series routes holds at that field.
    """
    rows = []
    d_markov = 3.0 / (8.0 * mu)
    for b in b_values:
        b = float(b)
        period = cyclotron_period(b)
        op = build_LG(mu, period, 1)
        d_direct = diffusion_coefficient(op)
        converged = neumann_contraction_factor(mu, period) < 1.0
        rows.append((b, period, d_direct, d_markov, d_direct - d_markov,
                     converged))
    return rows

"""Spectral solver for the scaled kinetic equation with delayed memory.

The equation integrated here, in macroscopic time, is

    d_t f + eta (v . grad_x) f + eta B d_alpha f
        = eta^2 [ L f + sum_{k>=1} M_k f(t - k * delay) ],

on a periodic box times the velocity circle.  L and the per-delay memory
pieces M_k are the Fourier-diagonal operators of
:mod:`maglorentz.operators`; the delay equals the cyclotron period divided
by eta, so that in the unscaled (kinetic) time variable the memory looks
back exactly one period per term, while the weights inside M_k stay the
per-period survival probabilities.  The two readings (integrate in kinetic
time with delay T, or in macroscopic time with delay T/eta) are the same
function under t -> eta t; the macroscopic form is integrated directly.

Discretization: spatial Fourier modes on the box, a uniform angle grid
with FFT transforms, an exact integrating factor for transport plus
magnetic rotation (the phase integral along rotating characteristics is
elementary), and an explicit second-order two-step update for collision and
memory.  The equation is linear and translation invariant, so no spatial
mode couples to another, and a mode absent from the datum stays exactly
zero.  A field therefore carries only the integer wavevectors it occupies
(``KineticField.modes``, one per row): the datum of ``make_initial_field``
carries (0, 0) and +-(p, 0), and every step, diagnostic, snapshot and
result holds those rows alone.  The state is stored in angle *mode* space;
the m = 0 harmonic of the zero spatial mode, i.e. the total mass, is
touched by no transform and by identically zero collision multipliers, so
mass is conserved to the last bit by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators


class SolverInstabilityError(RuntimeError):
    """Norm growth exceeded the abort threshold during time stepping."""


@dataclass(frozen=True)
class SpectralGrid:
    """A box of period l_box and n_v angles."""

    l_box: float
    n_v: int
    angles: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.l_box < math.inf:
            raise ValueError("l_box must be positive and finite")
        if self.n_v < 8:
            raise ValueError("need n_v >= 8")
        object.__setattr__(
            self, "angles", 2.0 * math.pi * np.arange(self.n_v) / self.n_v)

    @property
    def angular_modes(self) -> np.ndarray:
        return np.fft.fftfreq(self.n_v, 1.0 / self.n_v).astype(int)

    def wavevectors(self, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Wavevectors 2 pi xi / l_box of integer modes xi, and their lengths."""
        k = 2.0 * math.pi * np.asarray(modes) / self.l_box
        return k, np.hypot(k[:, 0], k[:, 1])


class _History:
    """Fixed-capacity ring of past angle-mode fields, one per step of ``dt``.

    Each field holds ``n_rows`` rows, one per carried mode.  ``solve`` sizes
    the ring to what the delayed terms can reach, so it is allocated once,
    before the first step, and never grows.
    """

    _GUARD_BYTES = 1_500_000_000

    def __init__(self, n_rows: int, n_v: int, dt: float, capacity: int):
        if capacity * n_rows * n_v * 16 > self._GUARD_BYTES:
            raise MemoryError(
                "history buffer exceeds its memory guard; reduce the "
                "delay span, the grid, or raise dt")
        self.dt = dt
        self.buf = np.empty((capacity, n_rows, n_v), dtype=complex)
        self.count = 0    # total steps pushed so far
        self.prev_rhs: np.ndarray | None = None

    def push(self, hat: np.ndarray):
        self.buf[self.count % len(self.buf)] = hat
        self.count += 1

    def modes_at(self, t: float) -> np.ndarray:
        """Linear interpolation between stored steps (t in [0, t_now])."""
        x = t / self.dt
        i0 = int(math.floor(x))
        i0 = min(max(i0, 0), self.count - 1)
        i1 = min(i0 + 1, self.count - 1)
        cap = len(self.buf)
        if i0 < self.count - cap:
            raise RuntimeError("history no longer covers the requested delay")
        w = x - i0
        a = self.buf[i0 % cap]
        if i1 == i0 or w == 0.0:
            return a
        return (1.0 - w) * a + w * self.buf[i1 % cap]


@dataclass
class KineticField:
    """Solution state: angle-mode coefficients per carried spatial mode.

    ``values_hat[i, m]`` is the FFT (over the angle grid) of the spatial
    Fourier coefficient of the integer mode ``modes[i]``; every mode not
    carried is zero.  ``values`` reconstructs angle-grid samples.
    ``history`` carries the delayed-field ring buffer plus the previous
    collision evaluation between steps.
    """

    grid: SpectralGrid
    modes: np.ndarray
    values_hat: np.ndarray
    time: float
    history: _History | None = None

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=int)
        if self.modes.shape != (len(self.values_hat), 2):
            raise ValueError("need one mode (xi_1, xi_2) per row of values_hat")

    @property
    def values(self) -> np.ndarray:
        return np.fft.ifft(self.values_hat, axis=1)


def _mass(raw: complex, grid: SpectralGrid) -> float:
    """Total integral from the angle-mean coefficient of the (0, 0) mode."""
    return float(raw.real) * grid.l_box ** 2 * 2.0 * math.pi / grid.n_v


class KineticModel:
    """Precomputed multipliers and propagators for one parameter set.

    ``memory_rows`` holds the rows of ``operators.memory_mode_table``, one
    per delay k = 1..k_cut and none without a field; ``k_cut`` is their
    count, the one truncation that ``operators`` decides.  ``op`` is L + M.
    """

    def __init__(self, mu: float, eta: float, b_magnitude: float,
                 grid: SpectralGrid):
        if not (0.0 < mu < math.inf and 1.0 <= eta < math.inf
                and 0.0 <= b_magnitude < math.inf):
            raise ValueError("need finite mu > 0, eta >= 1, B >= 0")
        self.mu = mu
        self.eta = eta
        self.b_magnitude = b_magnitude
        self.grid = grid
        self.period = operators.cyclotron_period(b_magnitude)
        self.delay = self.period / eta
        m_modes = grid.n_v // 2
        self.ell = operators.build_L(mu, m_modes).fft_multipliers(grid.n_v)
        self.memory_rows = operators.memory_mode_table(
            mu, self.period, m_modes)[:, np.abs(grid.angular_modes)]
        self.op = operators.build_LG(mu, self.period, m_modes)
        self._propagators: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def k_cut(self) -> int:
        return len(self.memory_rows)

    # -- time step control ---------------------------------------------------

    def default_dt(self, safety: float = 0.1) -> float:
        """Stability-motivated step: collision stiffness binds, transport is exact."""
        mem_ratio = operators.memory_norm_bound(self.mu, self.period)
        return safety / (self.eta ** 2 * 2.0 * self.mu * (1.0 + mem_ratio))

    # -- elementary operators --------------------------------------------------

    def _propagator(self, dt: float, modes: np.ndarray):
        key = (dt, modes.tobytes())
        got = self._propagators.get(key)
        if got is None:
            g = self.grid
            k, k_abs = g.wavevectors(modes)
            omega = self.eta * self.b_magnitude
            shift = np.exp(-1j * g.angular_modes * omega * dt)
            moving = k_abs > 0.0
            kappa = self.eta * k_abs[moving, None]
            k_phase = np.arctan2(k[:, 1], k[:, 0])
            rel = g.angles[None, :] - k_phase[moving, None]
            if omega > 0.0:
                phase = (kappa / omega) * (np.sin(rel) - np.sin(rel - omega * dt))
            else:
                phase = kappa * np.cos(rel) * dt
            got = (shift, moving, np.exp(-1j * phase))
            self._propagators[key] = got
        return got

    def propagate(self, hat: np.ndarray, dt: float, modes: np.ndarray
                  ) -> np.ndarray:
        """Exact transport + rotation over dt (integrating factor).

        ``hat`` holds one row per integer mode of ``modes``.
        """
        shift, moving, pointwise = self._propagator(dt, modes)
        out = hat * shift
        moved = np.fft.ifft(out[moving], axis=1)
        moved *= pointwise
        out[moving] = np.fft.fft(moved, axis=1)
        return out

    def collision_rhs(self, hat: np.ndarray, t: float, history: _History
                      ) -> np.ndarray:
        """eta^2 (L + delayed memory) in angle-mode space."""
        out = hat * self.ell
        # none is active without a field: t / inf = 0
        k_active = min(self.k_cut, int(math.floor(t / self.delay + 1e-12)))
        for k in range(1, k_active + 1):
            out += self.memory_rows[k - 1] * history.modes_at(t - k * self.delay)
        return out * self.eta ** 2


def step(fld: KineticField, dt: float, model: KineticModel) -> KineticField:
    """Advance one macroscopic time step.

    Integrating-factor treatment of transport and rotation (exact), explicit
    second-order two-step update for collision and memory; the first step
    uses a predictor-corrector start.  The field's history ring, created by
    ``solve``, must have been filled by previous steps of the same spacing:
    a field without history or a different ``dt`` raises ``ValueError``.
    """
    hist = fld.history
    if hist is None or dt != hist.dt:
        raise ValueError("step needs the history of a solve at the same dt")
    hat, modes, t = fld.values_hat, fld.modes, fld.time
    rhs_now = model.collision_rhs(hat, t, hist)
    if hist.prev_rhs is None:
        pred = model.propagate(hat + dt * rhs_now, dt, modes)
        rhs_pred = model.collision_rhs(pred, t + dt, hist)
        new = model.propagate(hat + 0.5 * dt * rhs_now, dt, modes) \
            + 0.5 * dt * rhs_pred
    else:
        new = model.propagate(hat + 1.5 * dt * rhs_now, dt, modes) \
            - 0.5 * dt * model.propagate(hist.prev_rhs, 2.0 * dt, modes)
    hist.prev_rhs = rhs_now
    hist.push(new)
    return KineticField(fld.grid, modes, new, t + dt, hist)


@dataclass(frozen=True)
class SolveResult:
    times: np.ndarray
    mass: np.ndarray
    dist_to_avg: np.ndarray
    dist_to_heat: np.ndarray
    final: KineticField
    snapshots: list
    diffusivity: float


def field_norm_hat(hat: np.ndarray, grid: SpectralGrid) -> float:
    """L2 norm over box and circle from angle-mode coefficients."""
    total = float(np.sum(np.abs(hat) ** 2))
    return math.sqrt(total * grid.l_box ** 2 * 2.0 * math.pi / grid.n_v ** 2)


def heat_reference(d_coeff: float, rho0_modes: np.ndarray, modes: np.ndarray,
                   t: float, grid: SpectralGrid) -> np.ndarray:
    """Exact spatial-mode solution of d_t rho = d_coeff * Laplacian rho.

    ``rho0_modes[i]`` is the coefficient of the integer mode ``modes[i]``.
    """
    if d_coeff < 0.0:
        raise ValueError("diffusivity must be nonnegative")
    k_abs = grid.wavevectors(modes)[1]
    return np.asarray(rho0_modes) * np.exp(-d_coeff * k_abs ** 2 * t)


def make_initial_field(grid: SpectralGrid, rho_amplitude: float = 0.5,
                       rho_mode: int = 1, angle_amplitude: float = 0.0
                       ) -> KineticField:
    """Normalized product datum: (1 + a cos(2 pi p x1 / L)) (1 + c cos alpha).

    Total mass is exactly 1.  The field carries the modes (0, 0) and, when
    a and p are nonzero, +-(p, 0), in increasing order.
    """
    base = 1.0 / (2.0 * math.pi * grid.l_box ** 2)
    p = abs(rho_mode) if rho_amplitude else 0
    wave = 0.5 * rho_amplitude * base
    side, amps = ([-p, 0, p], [wave, base, wave]) if p else ([0], [base])
    modes = np.array([(a, 0) for a in side], dtype=int)
    hat = np.zeros((len(modes), grid.n_v), dtype=complex)
    for i, amp in enumerate(amps):
        hat[i, 0] = amp * grid.n_v
        if angle_amplitude:
            hat[i, 1] = 0.5 * angle_amplitude * amp * grid.n_v
            hat[i, -1] = 0.5 * angle_amplitude * amp * grid.n_v
    return KineticField(grid, modes, hat, 0.0, None)


def angle_average_modes(fld: KineticField) -> np.ndarray:
    """Spatial modes of the angular average of the field."""
    return fld.values_hat[:, 0] / fld.grid.n_v


def solve(model: KineticModel, f0: KineticField, t_end: float,
          dt: float | None = None, snapshot_times=()) -> SolveResult:
    """Integrate to ``t_end`` and track the standard diagnostics.

    Diagnostics per sampled step: exact mass, L2 distance to the angular
    average, and L2 distance to the heat profile driven by the model's
    spatial diffusivity (half the trace-form autocorrelation integral)
    started from the angular average of the datum.  A snapshot is taken at
    the first step at most half a step short of its time; the
    ``snapshot_times`` must lie within [0, t_end].
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if not (dt is None or 0.0 < dt < math.inf):
        raise ValueError("dt must be positive and finite")
    snaps_wanted = sorted(float(s) for s in snapshot_times)
    if not all(0.0 <= s <= t_end for s in snaps_wanted):
        raise ValueError("snapshot_times must lie within [0, t_end]")
    if dt is None:
        dt = model.default_dt()
    n_steps = int(math.ceil(t_end / dt))
    dt = t_end / n_steps
    diag_every = max(1, n_steps // 400)
    diffusivity = operators.spatial_diffusivity(model.op)
    rho0 = angle_average_modes(f0)
    grid, modes = model.grid, f0.modes
    # the (0, 0) row's place among the modes, if carried: the mass is 0
    # without it
    at0 = np.flatnonzero(~modes.any(axis=1))
    # the oldest delayed field read lies k_cut * delay back; without a field
    # k_cut is 0 and the delay infinite, and 0 * inf is NaN
    reach = math.ceil(model.k_cut * model.delay / dt) if model.k_cut else 0
    hist = _History(len(modes), grid.n_v, dt, min(n_steps + 1, reach + 4))
    fld = KineticField(grid, modes, f0.values_hat, f0.time, hist)
    hist.push(fld.values_hat)
    norm0 = field_norm_hat(fld.values_hat, grid)
    snaps: list[tuple[float, np.ndarray]] = []
    times, masses, d_avg, d_heat = [], [], [], []

    def record(f: KineticField):
        hat = f.values_hat.copy()
        times.append(f.time)
        masses.append(_mass(hat[at0, 0].sum(), grid))
        hat[:, 0] = 0.0
        d_avg.append(field_norm_hat(hat, grid))
        rho_t = heat_reference(diffusivity, rho0, modes, f.time, grid)
        hat[:, 0] = f.values_hat[:, 0] - rho_t * grid.n_v
        d_heat.append(field_norm_hat(hat, grid))

    def take_snapshots(f: KineticField):
        while snaps_wanted and snaps_wanted[0] <= f.time + 0.5 * dt:
            snaps.append((f.time, f.values_hat.copy()))
            snaps_wanted.pop(0)

    record(fld)
    take_snapshots(fld)
    for i in range(n_steps):
        fld = step(fld, dt, model)
        if (i + 1) % diag_every == 0 or i == n_steps - 1:
            record(fld)
        take_snapshots(fld)
        if not field_norm_hat(fld.values_hat, grid) <= 10.0 * norm0:
            raise SolverInstabilityError(
                f"norm above 10x the datum, or NaN, by t = {fld.time:g} "
                f"(dt = {dt:g}); reduce dt")
    return SolveResult(np.asarray(times), np.asarray(masses),
                       np.asarray(d_avg), np.asarray(d_heat), fld, snaps,
                       diffusivity)


@dataclass(frozen=True)
class HilbertCorrectors:
    """Leading corrector fields of the small-1/eta expansion.

    ``g1`` and ``g2`` are angle-mode arrays with zero angular mean at every
    spatial mode; ``g0_modes`` is the underlying spatial profile.  Row i of
    each belongs to the integer mode ``modes[i]`` they were solved on.
    """

    g0_modes: np.ndarray
    g1_hat: np.ndarray
    g2_hat: np.ndarray


def hilbert_correctors(g0_modes: np.ndarray, modes: np.ndarray,
                       op: "operators.AngularOperator", b_magnitude: float,
                       d_coeff: float, grid: SpectralGrid) -> HilbertCorrectors:
    """Solve the first two corrector equations around a spatial profile.

    ``g1`` solves  (collision) g1 = v . grad_x g0  modewise; ``g2`` solves
    (collision) g2 = d_t g0 + v . grad_x g1 + B d_alpha g1 with
    d_t g0 = d_coeff * Laplacian g0.  The angular mean of both right sides
    must vanish; that cancellation pins ``d_coeff`` to half the trace-form
    autocorrelation integral and is asserted here.  ``g0_modes[i]`` is the
    coefficient of the integer mode ``modes[i]``.
    """
    g0_modes = np.asarray(g0_modes, dtype=complex)
    k, k_abs = grid.wavevectors(modes)
    inv = op.fft_inverse(grid.n_v)
    ikv = 1j * (k[:, 0][:, None] * np.cos(grid.angles)[None, :]
                + k[:, 1][:, None] * np.sin(grid.angles)[None, :])
    rhs1 = ikv * g0_modes[:, None]
    rhs1_hat = np.fft.fft(rhs1, axis=1)
    scale = float(np.max(np.abs(rhs1_hat))) or 1.0
    if np.max(np.abs(rhs1_hat[:, 0])) > 1e-10 * scale:
        raise ValueError("first corrector equation violates solvability")
    rhs1_hat[:, 0] = 0.0
    g1_hat = rhs1_hat * inv

    g1_grid = np.fft.ifft(g1_hat, axis=1)
    dalpha_g1 = np.fft.ifft(1j * grid.angular_modes * g1_hat, axis=1)
    rhs2 = (d_coeff * (-k_abs ** 2) * g0_modes)[:, None] \
        + ikv * g1_grid + b_magnitude * dalpha_g1
    rhs2_hat = np.fft.fft(rhs2, axis=1)
    scale2 = float(np.max(np.abs(rhs2_hat))) or 1.0
    if np.max(np.abs(rhs2_hat[:, 0])) > 1e-8 * scale2:
        raise ValueError(
            "second corrector equation violates solvability; the supplied "
            "diffusivity is not the one induced by the collision operator")
    rhs2_hat[:, 0] = 0.0
    g2_hat = rhs2_hat * inv
    return HilbertCorrectors(g0_modes, g1_hat, g2_hat)


@dataclass(frozen=True)
class HilbertStudyRow:
    eta: float
    dist_heat: float
    dist_hilbert1: float


def hilbert_residual_study(eta_list, mu: float, b_magnitude: float,
                           grid: SpectralGrid, f0: KineticField,
                           t_probe: float, dt_safety: float = 0.1) -> list:
    """Distance of the kinetic solution to the heat profile across eta.

    For each eta the kinetic equation is solved to ``t_probe``; reported are
    the L2 distance to the heat profile and the distance after subtracting
    the first corrector over eta.  All of them are taken on the modes that
    ``f0`` carries.
    """
    rows = []
    rho0, modes = angle_average_modes(f0), f0.modes
    for eta in eta_list:
        model = KineticModel(mu, float(eta), b_magnitude, grid)
        res = solve(model, f0, t_probe, dt=model.default_dt(dt_safety))
        hat = res.final.values_hat
        rho_t = heat_reference(res.diffusivity, rho0, modes, t_probe, grid)
        diff = hat.copy()
        diff[:, 0] -= rho_t * grid.n_v
        dist_heat = field_norm_hat(diff, grid)
        corr = hilbert_correctors(rho_t, modes, model.op, b_magnitude,
                                  res.diffusivity, grid)
        diff1 = diff - corr.g1_hat / float(eta)
        dist_h1 = field_norm_hat(diff1, grid)
        rows.append(HilbertStudyRow(float(eta), dist_heat, dist_h1))
    return rows

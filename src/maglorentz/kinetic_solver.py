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

Discretization: spatial Fourier modes on the box (the equation is linear,
so modes never couple), a uniform angle grid with FFT transforms, an exact
integrating factor for transport plus magnetic rotation (the phase integral
along rotating characteristics is elementary), and an explicit second-order
two-step update for collision and memory.  The state is stored in angle
*mode* space; the m = 0 harmonic of the zero spatial mode, i.e. the total
mass, is touched by no transform and by identically zero collision
multipliers, so mass is conserved to the last bit by construction.
Because no mode couples to another, a lattice row that is zero in the
datum stays exactly zero: ``solve`` integrates and stores only the rows of
the datum's support, and scatters them into the full lattice for its
diagnostics, snapshots and result.
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
    """Spatial mode lattice |xi_i| <= n_x on a box of period l_box, n_v angles."""

    l_box: float
    n_x: int
    n_v: int
    xi: np.ndarray = field(init=False)
    kvec: np.ndarray = field(init=False)
    k_abs: np.ndarray = field(init=False)
    k_phase: np.ndarray = field(init=False)
    index0: int = field(init=False)
    conj_index: np.ndarray = field(init=False)
    angles: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.l_box < math.inf:
            raise ValueError("l_box must be positive and finite")
        if self.n_x < 0 or self.n_v < 8:
            raise ValueError("need n_x >= 0 and n_v >= 8")
        side = np.arange(-self.n_x, self.n_x + 1)
        xi = np.array([(a, b) for a in side for b in side], dtype=int)
        kvec = 2.0 * math.pi * xi / self.l_box
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "kvec", kvec)
        object.__setattr__(self, "k_abs", np.hypot(kvec[:, 0], kvec[:, 1]))
        object.__setattr__(self, "k_phase", np.arctan2(kvec[:, 1], kvec[:, 0]))
        lookup = {tuple(x): i for i, x in enumerate(xi)}
        object.__setattr__(self, "index0", lookup[(0, 0)])
        conj = np.array([lookup[(-a, -b)] for a, b in xi], dtype=int)
        object.__setattr__(self, "conj_index", conj)
        object.__setattr__(
            self, "angles", 2.0 * math.pi * np.arange(self.n_v) / self.n_v)

    @property
    def n_modes(self) -> int:
        return len(self.xi)

    @property
    def angular_modes(self) -> np.ndarray:
        return np.fft.fftfreq(self.n_v, 1.0 / self.n_v).astype(int)


class _History:
    """Fixed-capacity ring of past angle-mode fields, one per step of ``dt``.

    The ring holds the lattice rows ``rows`` only (``solve`` passes the
    datum's support).  ``solve`` sizes it to what the delayed terms can
    reach, so it is allocated once, before the first step, and never grows.
    """

    _GUARD_BYTES = 1_500_000_000

    def __init__(self, rows, n_v: int, dt: float, capacity: int):
        self.rows = np.asarray(rows, dtype=int)
        if capacity * len(self.rows) * n_v * 16 > self._GUARD_BYTES:
            raise MemoryError(
                "history buffer exceeds its memory guard; reduce the "
                "delay span, the grid, or raise dt")
        self.dt = dt
        self.buf = np.empty((capacity, len(self.rows), n_v), dtype=complex)
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
    """Solution state: angle-mode coefficients per spatial mode.

    ``values_hat[i, m]`` is the FFT (over the angle grid) of the spatial
    Fourier coefficient for lattice mode ``grid.xi[i]``.  ``values``
    reconstructs angle-grid samples.  ``history`` carries the delayed-field
    ring buffer plus the previous collision evaluation between steps.  The
    fields that ``solve`` passes to ``step`` hold only the rows
    ``history.rows``; ``SolveResult.final`` and the snapshots hold the full
    lattice.
    """

    grid: SpectralGrid
    values_hat: np.ndarray
    time: float
    history: _History | None = None

    @property
    def values(self) -> np.ndarray:
        return np.fft.ifft(self.values_hat, axis=1)

    def mass(self) -> float:
        """Total integral over box and circle; exactly invariant in time."""
        return _mass(self.values_hat[self.grid.index0, 0], self.grid)

    def reality_defect(self) -> float:
        """Max deviation from the conjugate symmetry of a real-valued field."""
        gr = self.values
        return float(np.max(np.abs(gr[self.grid.conj_index] - np.conj(gr))))


def _mass(raw: complex, grid: SpectralGrid) -> float:
    """Total integral from the angle-mean coefficient of the (0, 0) mode."""
    return float(raw.real) * grid.l_box ** 2 * 2.0 * math.pi / grid.n_v


class KineticModel:
    """Precomputed multipliers and propagators for one parameter set."""

    def __init__(self, mu: float, eta: float, b_magnitude: float,
                 grid: SpectralGrid, k_cut: int | None = None):
        if not (0.0 < mu < math.inf and 1.0 <= eta < math.inf
                and 0.0 <= b_magnitude < math.inf):
            raise ValueError("need finite mu > 0, eta >= 1, B >= 0")
        self.mu = mu
        self.eta = eta
        self.b_magnitude = b_magnitude
        self.grid = grid
        self.period = 2.0 * math.pi / b_magnitude if b_magnitude > 0.0 else math.inf
        self.delay = self.period / eta
        m_modes = grid.n_v // 2
        ell_op = operators.build_L(mu, m_modes)
        self.ell = ell_op.fft_multipliers(grid.n_v)
        if b_magnitude > 0.0:
            self.k_cut = (operators.default_k_cut(mu, self.period)
                          if k_cut is None else k_cut)
            table = operators.memory_mode_table(
                mu, self.period, m_modes, self.k_cut)
            m_abs = np.abs(grid.angular_modes)
            self.memory_rows = table[:, m_abs] if self.k_cut else \
                np.zeros((0, grid.n_v))
        else:
            self.k_cut = 0
            self.memory_rows = np.zeros((0, grid.n_v))
        self._propagators: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # -- time step control ---------------------------------------------------

    def default_dt(self, safety: float = 0.1) -> float:
        """Stability-motivated step: collision stiffness binds, transport is exact."""
        w = operators.survival_weight(self.mu, self.period)
        mem_ratio = (w / (1.0 - w)) * (operators.BETA + 1.0) if w else 0.0
        return safety / (self.eta ** 2 * 2.0 * self.mu * (1.0 + mem_ratio))

    # -- elementary operators --------------------------------------------------

    def _propagator(self, dt: float, rows: np.ndarray | None):
        key = (dt, None if rows is None else rows.tobytes())
        got = self._propagators.get(key)
        if got is None:
            g = self.grid
            sel = slice(None) if rows is None else rows
            omega = self.eta * self.b_magnitude
            shift = np.exp(-1j * g.angular_modes * omega * dt)
            moving = g.k_abs[sel] > 0.0
            kappa = self.eta * g.k_abs[sel][moving, None]
            rel = g.angles[None, :] - g.k_phase[sel][moving, None]
            if omega > 0.0:
                phase = (kappa / omega) * (np.sin(rel) - np.sin(rel - omega * dt))
            else:
                phase = kappa * np.cos(rel) * dt
            got = (shift, moving, np.exp(-1j * phase))
            self._propagators[key] = got
        return got

    def propagate(self, hat: np.ndarray, dt: float,
                  rows: np.ndarray | None = None) -> np.ndarray:
        """Exact transport + rotation over dt (integrating factor).

        ``hat`` holds the lattice rows ``rows``, by default all of them.
        """
        shift, moving, pointwise = self._propagator(dt, rows)
        out = hat * shift
        moved = np.fft.ifft(out[moving], axis=1)
        moved *= pointwise
        out[moving] = np.fft.fft(moved, axis=1)
        return out

    def collision_rhs(self, hat: np.ndarray, t: float, history: _History
                      ) -> np.ndarray:
        """eta^2 (L + delayed memory) in angle-mode space."""
        out = hat * self.ell
        if self.k_cut:
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
    Only the rows ``history.rows`` are advanced.  A full-lattice field, such
    as ``SolveResult.final``, must be zero on every other row, and the step
    returns it in the full lattice again.
    """
    hist = fld.history
    if hist is None or dt != hist.dt:
        raise ValueError("step needs the history of a solve at the same dt")
    rows = hist.rows
    hat = fld.values_hat
    full = len(hat) != len(rows)
    if full:
        if np.count_nonzero(hat) != np.count_nonzero(hat[rows]):
            raise ValueError("step continues a solve on the rows of its "
                             "datum; this field is nonzero on other rows")
        hat = hat[rows]
    t = fld.time
    rhs_now = model.collision_rhs(hat, t, hist)
    if hist.prev_rhs is None:
        pred = model.propagate(hat + dt * rhs_now, dt, rows)
        rhs_pred = model.collision_rhs(pred, t + dt, hist)
        new = model.propagate(hat + 0.5 * dt * rhs_now, dt, rows) \
            + 0.5 * dt * rhs_pred
    else:
        new = model.propagate(hat + 1.5 * dt * rhs_now, dt, rows) \
            - 0.5 * dt * model.propagate(hist.prev_rhs, 2.0 * dt, rows)
    hist.prev_rhs = rhs_now
    hist.push(new)
    if full:
        new = _full_lattice(new, rows, fld.grid)
    return KineticField(fld.grid, new, t + dt, hist)


def _full_lattice(hat: np.ndarray, rows: np.ndarray, grid: SpectralGrid
                  ) -> np.ndarray:
    """The lattice field that is ``hat`` on ``rows`` and zero elsewhere."""
    out = np.zeros((grid.n_modes, grid.n_v), dtype=complex)
    out[rows] = hat
    return out


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


def heat_reference(d_coeff: float, rho0_modes: np.ndarray, t: float,
                   grid: SpectralGrid) -> np.ndarray:
    """Exact spatial-mode solution of d_t rho = d_coeff * Laplacian rho."""
    if d_coeff < 0.0:
        raise ValueError("diffusivity must be nonnegative")
    return np.asarray(rho0_modes) * np.exp(-d_coeff * grid.k_abs ** 2 * t)


def make_initial_field(grid: SpectralGrid, rho_amplitude: float = 0.5,
                       rho_mode: int = 1, angle_amplitude: float = 0.0
                       ) -> KineticField:
    """Normalized product datum: (1 + a cos(2 pi p x1 / L)) (1 + c cos alpha).

    Total mass is exactly 1.
    """
    base = 1.0 / (2.0 * math.pi * grid.l_box ** 2)
    hat = np.zeros((grid.n_modes, grid.n_v), dtype=complex)

    def put(xi_pair, amp):
        hits = np.flatnonzero((grid.xi[:, 0] == xi_pair[0])
                              & (grid.xi[:, 1] == xi_pair[1]))
        if len(hits) == 0:
            raise ValueError(f"mode {xi_pair} outside the lattice")
        i = int(hits[0])
        hat[i, 0] += amp * grid.n_v
        if angle_amplitude:
            hat[i, 1] += 0.5 * angle_amplitude * amp * grid.n_v
            hat[i, -1] += 0.5 * angle_amplitude * amp * grid.n_v

    put((0, 0), base)
    if rho_amplitude and rho_mode:
        put((rho_mode, 0), 0.5 * rho_amplitude * base)
        put((-rho_mode, 0), 0.5 * rho_amplitude * base)
    return KineticField(grid, hat, 0.0, None)


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
    op = operators.build_LG(model.mu, model.period,
                            m_modes=max(model.grid.n_v // 2, 8))
    diffusivity = operators.spatial_diffusivity(op)
    rho0 = angle_average_modes(f0)
    grid = model.grid
    # modes never couple, so rows that are zero in the datum stay zero and
    # only the support is stepped and measured
    support = np.flatnonzero(np.any(f0.values_hat != 0.0, axis=1))
    # the (0, 0) row's place in the support, if any: the mass is 0 without it
    at0 = np.flatnonzero(support == grid.index0)
    # the oldest delayed field read lies k_cut * delay back; delay is
    # infinite without a field, where k_cut is 0
    reach = math.ceil(model.k_cut * model.delay / dt) if model.k_cut else 0
    hist = _History(support, grid.n_v, dt, min(n_steps + 1, reach + 4))
    fld = KineticField(grid, f0.values_hat[support], f0.time, hist)
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
        rho_t = heat_reference(diffusivity, rho0, f.time, grid)[support]
        hat[:, 0] = f.values_hat[:, 0] - rho_t * grid.n_v
        d_heat.append(field_norm_hat(hat, grid))

    def take_snapshots(f: KineticField):
        while snaps_wanted and snaps_wanted[0] <= f.time + 0.5 * dt:
            snaps.append((f.time, _full_lattice(f.values_hat, support, grid)))
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
    final = KineticField(grid, _full_lattice(fld.values_hat, support, grid),
                         fld.time, hist)
    return SolveResult(np.asarray(times), np.asarray(masses),
                       np.asarray(d_avg), np.asarray(d_heat), final, snaps,
                       diffusivity)


@dataclass(frozen=True)
class HilbertCorrectors:
    """Leading corrector fields of the small-1/eta expansion.

    ``g1`` and ``g2`` are angle-mode arrays with zero angular mean at every
    spatial mode; ``g0_modes`` is the underlying spatial profile.
    """

    g0_modes: np.ndarray
    g1_hat: np.ndarray
    g2_hat: np.ndarray


def hilbert_correctors(g0_modes: np.ndarray, op: "operators.AngularOperator",
                       b_magnitude: float, d_coeff: float, grid: SpectralGrid
                       ) -> HilbertCorrectors:
    """Solve the first two corrector equations around a spatial profile.

    ``g1`` solves  (collision) g1 = v . grad_x g0  modewise; ``g2`` solves
    (collision) g2 = d_t g0 + v . grad_x g1 + B d_alpha g1 with
    d_t g0 = d_coeff * Laplacian g0.  The angular mean of both right sides
    must vanish; that cancellation pins ``d_coeff`` to half the trace-form
    autocorrelation integral and is asserted here.
    """
    g0_modes = np.asarray(g0_modes, dtype=complex)
    inv = op.fft_inverse(grid.n_v)
    ikv = 1j * (grid.kvec[:, 0][:, None] * np.cos(grid.angles)[None, :]
                + grid.kvec[:, 1][:, None] * np.sin(grid.angles)[None, :])
    rhs1 = ikv * g0_modes[:, None]
    rhs1_hat = np.fft.fft(rhs1, axis=1)
    scale = float(np.max(np.abs(rhs1_hat))) or 1.0
    if np.max(np.abs(rhs1_hat[:, 0])) > 1e-10 * scale:
        raise ValueError("first corrector equation violates solvability")
    rhs1_hat[:, 0] = 0.0
    g1_hat = rhs1_hat * inv

    g1_grid = np.fft.ifft(g1_hat, axis=1)
    dalpha_g1 = np.fft.ifft(1j * grid.angular_modes * g1_hat, axis=1)
    rhs2 = (d_coeff * (-grid.k_abs ** 2) * g0_modes)[:, None] \
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
    the first corrector over eta.
    """
    rows = []
    rho0 = angle_average_modes(f0)
    period = 2.0 * math.pi / b_magnitude if b_magnitude > 0.0 else math.inf
    op = operators.build_LG(mu, period, m_modes=max(grid.n_v // 2, 8))
    diffusivity = operators.spatial_diffusivity(op)
    for eta in eta_list:
        model = KineticModel(mu, float(eta), b_magnitude, grid)
        res = solve(model, f0, t_probe, dt=model.default_dt(dt_safety))
        hat = res.final.values_hat
        rho_t = heat_reference(diffusivity, rho0, t_probe, grid)
        diff = hat.copy()
        diff[:, 0] -= rho_t * grid.n_v
        dist_heat = field_norm_hat(diff, grid)
        corr = hilbert_correctors(rho_t, op, b_magnitude, diffusivity, grid)
        diff1 = diff - corr.g1_hat / float(eta)
        dist_h1 = field_norm_hat(diff1, grid)
        rows.append(HilbertStudyRow(float(eta), dist_heat, dist_h1))
    return rows

"""Lazily generated Poisson field of disk obstacles on the unbounded plane.

The field is deterministic: the obstacle list of every grid cell is a pure
function of (master seed, cell index), drawn from a counter-based random
stream.  Trajectories of unbounded extent therefore see one consistent
infinite environment without it ever being stored, and concurrent readers
need no coordination.  A field object memoizes the cells it has served,
so its memory grows with the area queried; each replica gets its own.
Every cell holds ``CELL_COUNT`` obstacles on average, at any field
strength, and keeps its draw order; a search scans each cell it reaches
whole.

Obstacles may overlap each other; the underlying measure is pure Poisson
with no hard-core thinning.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _rng

_EMPTY_POINTS = np.empty((0, 2))

#: mean obstacle count of a cell
CELL_COUNT = 500


class RegimeWarning(UserWarning):
    """The requested parameters leave the dilute scaling regime."""


@dataclass(frozen=True)
class ScalingParams:
    """Physical parameters of one scaling point.

    ``mu_eff = eta * mu / eps`` is the obstacle intensity actually used to
    draw the field.  ``larmor_radius`` and ``t_larmor`` are the cyclotron
    radius 1/B and period 2*pi/B of the unit-speed particle (infinite when
    B = 0).
    """

    eps: float
    mu: float
    eta: float
    mu_eff: float
    b_magnitude: float
    larmor_radius: float
    t_larmor: float

    @property
    def dilute_number(self) -> float:
        """mu_eff * eps^2; must vanish for a dilute gas.

        Computed as eta * mu * eps, the same quantity without the rounding
        of mu_eff = eta * mu / eps, so the 0.1 threshold is met exactly.
        """
        return self.eta * self.mu * self.eps

    @property
    def grad_number(self) -> float:
        """mu_eff * eps; must diverge beyond the low-density baseline."""
        return self.mu_eff * self.eps

    @property
    def error_number(self) -> float:
        """eps^(1/2) * eta^5; controls the kinetic error at unit time."""
        return math.sqrt(self.eps) * self.eta ** 5


def scaling_from(eps: float, mu: float, eta: float, b_magnitude: float = 0.0
                 ) -> ScalingParams:
    """Build scaling parameters and warn when the regime checks fail."""
    if not (0.0 < eps < math.inf and 0.0 < mu < math.inf):
        raise ValueError("eps and mu must be positive and finite")
    if not 1.0 <= eta < math.inf:
        raise ValueError("eta must be finite and at least 1 "
                         "(no divergence slower than constant)")
    if not 0.0 <= b_magnitude < math.inf:
        raise ValueError("field magnitude must be finite and nonnegative")
    mu_eff = eta * mu / eps
    if b_magnitude > 0.0:
        r = 1.0 / b_magnitude
        t_larmor = 2.0 * math.pi / b_magnitude
    else:
        r = math.inf
        t_larmor = math.inf
    params = ScalingParams(eps, mu, eta, mu_eff, b_magnitude, r, t_larmor)
    if params.dilute_number > 0.1:
        warnings.warn(
            f"mu_eff*eps^2 = {params.dilute_number:.3g} > 0.1: gas is not dilute",
            RegimeWarning, stacklevel=2)
    if params.grad_number < 1.0:
        warnings.warn(
            f"mu_eff*eps = {params.grad_number:.3g} < 1: below the low-density baseline",
            RegimeWarning, stacklevel=2)
    if params.error_number > 1.0:
        warnings.warn(
            f"eps^(1/2)*eta^5 = {params.error_number:.3g} > 1: kinetic error bound "
            "exceeds unity at unit time", RegimeWarning, stacklevel=2)
    return params


def default_cell_size(params: ScalingParams) -> float:
    """Grid pitch sqrt(CELL_COUNT / mu_eff), at any field strength.

    A cell then holds CELL_COUNT obstacles on average: enough that the
    set-up of its generator is small next to the points it draws, few
    enough that a search scans whole cells.  An empty field (mu_eff = 0)
    keeps the finite pitch 10 eps.  No search needs this pitch (the hit
    walk and the start check hold for any cell size).  The pitch stays
    because it keys every cell's random stream: cell (ix, iy) is the
    pitch-sized square its stream fills, so another pitch would draw
    another field.
    """
    if params.mu_eff > 0.0:
        return math.sqrt(CELL_COUNT / params.mu_eff)
    return 10.0 * params.eps


class _CellCache:
    """Memo of drawn cells; every obstacle query.

    Row k of ``cell(ix, iy)`` is the obstacle keyed ``(ix, iy, k)``, in
    draw order.  Every query reads through ``cell``, so a replica's start
    check and its flight draw each cell once.  ``cells_meeting`` is the
    one cell enumeration of every search (the hit walk and the start
    check); it holds for any cell size.  Subclasses set ``_cells`` to an
    empty dict and provide ``cell_size`` and ``cell_points``.
    """

    def cell(self, ix: int, iy: int) -> np.ndarray:
        """Obstacle centers of one cell, the same object on every call."""
        pts = self._cells.get((ix, iy))
        if pts is None:
            pts = self._cells[ix, iy] = self.cell_points(ix, iy)
        return pts

    def cells_meeting(self, x_lo, x_hi, y_lo, y_hi):
        """(ix, iy) of every cell meeting the rectangle, ix outer, iy inner."""
        s = self.cell_size
        return itertools.product(
            range(int(math.floor(x_lo / s)), int(math.floor(x_hi / s)) + 1),
            range(int(math.floor(y_lo / s)), int(math.floor(y_hi / s)) + 1))


@dataclass(frozen=True)
class ObstacleField(_CellCache):
    """Deterministic lazy Poisson field keyed by a 64-bit master seed."""

    master_seed: int
    params: ScalingParams

    def __post_init__(self):
        object.__setattr__(self, "_cells", {})
        object.__setattr__(self, "cell_size", default_cell_size(self.params))

    def cell_points(self, cell_x: int, cell_y: int) -> np.ndarray:
        """Obstacle centers of one cell, identical on every call."""
        lam = self.params.mu_eff * self.cell_size ** 2
        if lam == 0.0:
            return _EMPTY_POINTS
        gen = _rng.generator(
            self.master_seed, _rng.STREAM_FIELD_CELL, cell_x, cell_y)
        count = int(gen.poisson(lam))
        if count == 0:
            return _EMPTY_POINTS
        pts = gen.random((count, 2))
        pts[:, 0] += cell_x
        pts[:, 1] += cell_y
        pts *= self.cell_size
        return pts


def is_admissible_start(field_, x) -> bool:
    """True when every obstacle center is strictly farther than eps from x.

    It scans every center of each cell that the square of half-side eps
    around x meets.
    """
    x = np.asarray(x, dtype=float)
    eps = field_.params.eps
    for ix, iy in field_.cells_meeting(x[0] - eps, x[0] + eps,
                                       x[1] - eps, x[1] + eps):
        pts = field_.cell(ix, iy)
        if len(pts) and np.min(np.sum((pts - x) ** 2, axis=1)) <= eps * eps:
            return False
    return True


@dataclass(frozen=True)
class AnnulusVoidEstimate:
    estimate: float
    std_error: float
    closed_form: float


def empty_annulus_probability_mc(params: ScalingParams, center, n_samples: int,
                                 seed: int) -> AnnulusVoidEstimate:
    """Monte Carlo estimate of the empty-orbit-annulus probability.

    Each sample is an independent field realization restricted to the square
    bounding the annulus with radii (R - eps, R + eps); the estimate is the
    fraction of realizations with no obstacle center in the annulus.  The
    closed-form comparison value is ``exp(-mu_eff * 4 pi R eps)``.  The
    field is homogeneous: ``center`` is unused.
    """
    if params.b_magnitude <= 0.0:
        raise ValueError("no orbit annulus without a magnetic field")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    r = params.larmor_radius
    eps = params.eps
    closed = math.exp(-params.mu_eff * 4.0 * math.pi * r * eps)
    if params.mu_eff == 0.0:
        return AnnulusVoidEstimate(1.0, 0.0, 1.0)
    half = r + eps
    lam_box = params.mu_eff * (2.0 * half) ** 2
    gen = _rng.generator(seed, _rng.STREAM_ANNULUS)
    void = 0
    chunk = max(1, min(n_samples, int(2e6 / max(lam_box, 1.0))))
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        counts = gen.poisson(lam_box, n)
        total = int(counts.sum())
        pts = gen.random((total, 2)) * (2.0 * half) - half
        rad = np.hypot(pts[:, 0], pts[:, 1])
        inside = (rad > r - eps) & (rad < r + eps)
        hits = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(inside, out=hits[1:])
        ends = np.cumsum(counts)
        starts = ends - counts
        void += int(np.count_nonzero(hits[ends] - hits[starts] == 0))
        done += n
        # free this chunk's arrays before the next chunk draws its own
        del pts, rad, inside, hits
    p = void / n_samples
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return AnnulusVoidEstimate(p, se, closed)

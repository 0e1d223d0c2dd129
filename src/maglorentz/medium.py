"""Lazily generated Poisson field of disk obstacles on the unbounded plane.

The field is deterministic: the obstacle list of every grid cell is a pure
function of (master seed, cell index), drawn from a counter-based random
stream.  Trajectories of unbounded extent therefore see one consistent
infinite environment without it ever being stored, and field objects of
one seed in different processes agree without coordination.  A field
object memoizes the cells it has served, so its memory grows with the
area queried, and it rekeys one Philox generator to each cell's stream
for that cell's draw, so it is not to be shared between threads; each
replica gets its own.
Every cell holds ``CELL_COUNT`` obstacles on average, at any field
strength, and keeps its draw order; a search scans each cell it reaches
whole.

Obstacles may overlap each other; the underlying measure is pure Poisson
with no hard-core thinning.  A Poisson field restricted to disjoint
regions gives independent fields, so the empty-orbit-annulus estimate
draws each sample's obstacles only on the tiles that cover the annulus.
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
    """Physical parameters of one scaling point: eps, mu, eta and B."""

    eps: float
    mu: float
    eta: float
    b_magnitude: float

    @property
    def mu_eff(self) -> float:
        """eta * mu / eps, the obstacle intensity the field is drawn at."""
        return self.eta * self.mu / self.eps

    @property
    def larmor_radius(self) -> float:
        """Cyclotron radius 1/B of the unit-speed particle (inf at B = 0)."""
        return 1.0 / self.b_magnitude if self.b_magnitude > 0.0 else math.inf

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
    params = ScalingParams(eps, mu, eta, b_magnitude)
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


class ObstacleField(_CellCache):
    """Deterministic lazy Poisson field keyed by a 64-bit master seed."""

    def __init__(self, master_seed: int, params: ScalingParams):
        self.master_seed = master_seed
        self.params = params
        self._cells = {}
        self.cell_size = default_cell_size(params)
        # rekeyed for each cell drawn; its own key is never drawn from
        self._gen = _rng.generator(master_seed, _rng.STREAM_FIELD_CELL)

    def cell_points(self, cell_x: int, cell_y: int) -> np.ndarray:
        """Obstacle centers of one cell, identical on every call."""
        lam = self.params.mu_eff * self.cell_size ** 2
        if lam == 0.0:
            return _EMPTY_POINTS
        gen = _rng.rekey(self._gen, self.master_seed, _rng.STREAM_FIELD_CELL,
                         cell_x, cell_y)
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
    around x meets.  A non-finite position is a ``ValueError``.
    """
    x, y = map(float, x)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"start position must be finite, got ({x}, {y})")
    eps = field_.params.eps
    for ix, iy in field_.cells_meeting(x - eps, x + eps, y - eps, y + eps):
        pts = field_.cell(ix, iy)
        if len(pts):
            dx = pts[:, 0] - x
            dy = pts[:, 1] - y
            if np.min(dx * dx + dy * dy) <= eps * eps:
                return False
    return True


@dataclass(frozen=True)
class AnnulusVoidEstimate:
    estimate: float
    std_error: float
    closed_form: float


# radii above this have squares of full relative precision; see _void_count
_TINY_RADIUS = 1e-140

# points per block of the annulus count: a block's draws and squares stay
# in cache.  Philox hands out the same doubles in blocks of any size, so
# the block is not part of the results
_ANNULUS_BLOCK = 2 ** 14

# the annulus tiles' grid is at most this many tiles across; see
# _annulus_tiles
_ANNULUS_GRID = 512


def _void_count(blocks, counts, r: float, eps: float) -> int:
    """Samples with no point strictly inside the annulus (r - eps, r + eps).

    ``blocks`` yields (m, 2) point arrays; sample i owns the next
    ``counts[i]`` points of their concatenation, which a block may split.
    A block is read before the next one is taken, so the blocks may share
    one buffer.  A squared-radius window picks the candidates; ``np.hypot``
    decides on them alone.  The window's 1e-9 relative margin far exceeds
    the rounding of ``x*x + y*y`` and of its bounds, so it keeps every
    point the decision accepts; a bound below ``_TINY_RADIUS``, where
    squares lose precision, is dropped (the lower one whenever r <= eps).
    """
    lo = (r - eps) ** 2 * (1.0 - 1e-9) if r - eps > _TINY_RADIUS else -math.inf
    hi = (r + eps) ** 2 * (1.0 + 1e-9) if r + eps > _TINY_RADIUS else math.inf
    ends = np.cumsum(counts)
    hit = np.zeros(len(counts), dtype=bool)
    start = 0
    for pts in blocks:
        x, y = pts[:, 0], pts[:, 1]
        sq = x * x + y * y
        cand = np.flatnonzero((sq > lo) & (sq < hi))
        rad = np.hypot(x[cand], y[cand])
        inside = cand[(rad > r - eps) & (rad < r + eps)]
        hit[np.searchsorted(ends, start + inside, side="right")] = True
        start += len(pts)
    return len(counts) - int(np.count_nonzero(hit))


def _annulus_tiles(r: float, eps: float):
    """Side ``s`` and lower-left corners, in units of s, of the annulus tiles.

    In units of ``s = max(eps, 2 (r + eps) / _ANNULUS_GRID)``, the tiles
    are the unit squares [i, i + 1] x [j, j + 1] whose closed square meets
    the open annulus (r - eps, r + eps).  A tile is kept when its nearest
    point is inside the outer circle and its farthest point outside the
    inner one, each with ``_void_count``'s 1e-9 relative margin, so
    rounding loses no tile that meets the annulus.  In units of s the outer
    radius lies in [1, _ANNULUS_GRID / 2], so no square underflows and the
    grid never grows with r / eps; when r <= eps there is no inner circle
    and every tile of the disk is kept.  The quadrant x, y >= 0 is found
    on one grid and mirrored into the other three.
    """
    s = max(eps, 2.0 * (r + eps) / _ANNULUS_GRID)
    outer = (r + eps) / s * (1.0 + 1e-9)
    inner = max(r - eps, 0.0) / s * (1.0 - 1e-9)
    a = np.arange(int(outer) + 1, dtype=float)
    near, far = a * a, (a + 1.0) ** 2
    qx, qy = np.nonzero((near[:, None] + near < outer * outer)
                        & (far[:, None] + far > inner * inner))
    x = np.concatenate([qx, -qx - 1, qx, -qx - 1]).astype(float)
    y = np.concatenate([qy, qy, -qy - 1, -qy - 1]).astype(float)
    return s, x, y


def _tile_blocks(gen, total: int, buf, s: float, tile_x, tile_y):
    """``total`` uniform points of the tiles, in blocks of buf's rows.

    Each block is drawn into ``buf`` (m, 3) over the previous one; together
    they are the rows of one ``gen.random((total, 3))`` call.  Column 0
    picks the tile ``floor(u n_tiles)``, clipped to the last one, and
    columns 1 and 2 become the point ``(corner + u) s``, yielded as a view
    of ``buf``.
    """
    n = len(tile_x)
    idx = np.empty(len(buf), dtype=np.intp)
    for start in range(0, total, len(buf)):
        u = gen.random(out=buf[:min(len(buf), total - start)])
        pick = np.multiply(u[:, 0], n, out=idx[:len(u)], casting="unsafe")
        np.minimum(pick, n - 1, out=pick)
        pts = u[:, 1:]
        pts[:, 0] += tile_x[pick]
        pts[:, 1] += tile_y[pick]
        pts *= s
        yield pts


def annulus_box_mean(params: ScalingParams) -> float:
    """Mean obstacle count of the square bounding the orbit annulus.

    The circling config rule caps it.  The annulus draw covers the annulus
    with tiles instead (``_annulus_tiles``), whose mean count is under 3
    times this (as R / eps falls to 0) and far less once R >> eps: 1/20 of
    it at R = 100 eps.
    """
    try:
        return params.mu_eff * (2.0 * (params.larmor_radius + params.eps)) ** 2
    except OverflowError:
        return math.inf


def empty_annulus_probability_mc(params: ScalingParams, center, n_samples: int,
                                 seed: int) -> AnnulusVoidEstimate:
    """Monte Carlo estimate of the empty-orbit-annulus probability.

    Each sample is an independent field realization restricted to the
    tiles of ``_annulus_tiles``, which cover the annulus with radii
    (R - eps, R + eps); a Poisson field restricted to a region is
    independent of the rest, so the estimate, the fraction of realizations
    with no obstacle center in the annulus, has the law of the whole
    field's.  The closed-form comparison value is
    ``exp(-mu_eff * 4 pi R eps)``.  The field is homogeneous: ``center`` is
    unused.  Samples are drawn in chunks of at most 2^15 samples and about
    2M points, each chunk's counts before its points; the points are drawn
    and counted ``_ANNULUS_BLOCK`` at a time into one small buffer, so
    memory does not grow with a sample's size.
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
    s, tile_x, tile_y = _annulus_tiles(r, eps)
    lam = params.mu_eff * s * s * len(tile_x)
    gen = _rng.generator(seed, _rng.STREAM_ANNULUS)
    void = 0
    chunk = max(1, min(n_samples, 2 ** 15, int(2e6 / max(lam, 1.0))))
    buf = np.empty((_ANNULUS_BLOCK, 3))
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        counts = gen.poisson(lam, n)
        blocks = _tile_blocks(gen, int(counts.sum()), buf, s, tile_x, tile_y)
        void += _void_count(blocks, counts, r, eps)
        done += n
    p = void / n_samples
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return AnnulusVoidEstimate(p, se, closed)

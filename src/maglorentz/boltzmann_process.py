"""Monte Carlo samplers for the memory-carrying velocity jump process.

Two closely related processes live here, and one block sampler,
``_block_jumps``, draws both.  They share the scattering clock (jumps at
total rate ``2 mu``) and the impact draws (a uniform normalized impact
parameter per scatter fixes its deflection); they differ only in where a
scatter's repeated deflections ("leaves") land:

* lumped (the process *generated by the static collision operator* of
  :mod:`maglorentz.operators`): each scatter applies a geometrically
  distributed number k of identical deflections in one go, with
  probability ``(1 - w) w^(k-1)`` and survival weight
  ``w = exp(-2 mu period)``.  Its velocity autocorrelation is exactly
  ``exp(lambda_1 t)``, so its time integral (``green_kubo_mc``)
  reproduces the operator-route coefficient ``-1/lambda_1``;
* path-resolved: while the next scatter is pending, every completed
  cyclotron period replays the stored deflection (the particle returns to
  the obstacle it just left with the same impact geometry), and a path
  that survives its entire first period without scattering is circling:
  its orbit annulus is empty, so it never scatters at all.  Spreading the
  replays over whole periods and freezing circling paths changes the
  autocorrelation integral by a computable amount;
  ``velocity_autocorrelation_paths`` exposes that route so the gap can be
  measured rather than hidden.

Both routes reduce their blocks the same way: a block's phase table holds
each path's accumulated deflection after each of its jumps, each row is
repeated over the grid times at which it is the path's phase, and the
trapezoid rule integrates the mean cosine.  Without rotation the cosine
is taken once per table row; with it, the magnetic rotation
``2 pi t / period`` is added on the grid and the cosine taken per path
and grid point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .geometry import deflection_from_impact
from .operators import survival_weight

# paths per sampled block; block i draws from its own stream
# generator(seed, <route's stream>, i), so this size is part of the results
GK_BLOCK_SIZE = 20_000


def _sorted_jumps(counts, raw_t):
    """Path of each jump, and the jump times sorted within each path.

    Path p owns the next ``counts[p]`` entries of ``raw_t``.  The times are
    sorted, then stably by path, whose index takes the smallest unsigned
    type that holds it: ``uint16`` at ``GK_BLOCK_SIZE``, which numpy's
    stable sort orders by radix.
    """
    n = len(counts)
    path_of = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), counts)
    order = np.argsort(raw_t)
    return path_of, raw_t[order][np.argsort(path_of[order], kind="stable")]


def _block_jumps(mu: float, period: float, t_cut: float, n: int, rng,
                 lumped: bool):
    """Jumps of ``n`` independent paths on [0, t_cut].

    Returns ``(counts, times, theta, replay, circling)``: the number of
    jumps of each path; the jump times, grouped by path and sorted within
    each path; each jump's deflection; each jump's replay number (0 for a
    scatter, r for the replay r periods after it); and whether each path
    circles.  Lumped jumps are all scatters and no path circles.
    """
    counts = rng.poisson(2.0 * mu * t_cut, n)
    total = int(counts.sum())
    path_of, jt = _sorted_jumps(counts, rng.random(total) * t_cut)
    if lumped:
        # geometric(1.0) still consumes draws, so test the escape probability
        escape = 1.0 - survival_weight(mu, period)
        leaves = rng.geometric(escape, total) if escape < 1.0 else \
            np.ones(total, dtype=np.int64)
        theta = deflection_from_impact(rng.uniform(-1.0, 1.0, total)) * leaves
        return (counts, jt, theta, np.zeros(total, dtype=np.int64),
                np.zeros(n, dtype=bool))
    theta = deflection_from_impact(rng.uniform(-1.0, 1.0, total))
    ends = np.cumsum(counts)
    scattered = counts > 0
    first = np.full(n, np.inf)
    first[scattered] = jt[ends[scattered] - counts[scattered]]
    circling = first > period
    if period > t_cut:
        # no scatter in the window: the first wait exceeds t_cut, and it
        # exceeds the period too with probability exp(-2 mu (T - t_cut))
        circling &= scattered | (rng.random(n) < survival_weight(
            mu, period - t_cut))
    # a scatter replays once per whole period before the next scatter, or
    # before t_cut for a path's last scatter
    nxt = np.append(jt[1:], t_cut)
    nxt[ends[scattered] - 1] = t_cut
    runs = np.where(circling[path_of], 0,
                    1 + np.floor((nxt - jt) / period).astype(np.int64))
    src = np.repeat(np.arange(total), runs)
    replay = np.arange(len(src)) - np.repeat(np.cumsum(runs) - runs, runs)
    # a scatter keeps its time: 0 * period is NaN at an infinite period
    times = jt[src]
    later = replay > 0
    times[later] += replay[later] * period
    return (np.bincount(path_of[src], minlength=n), times, theta[src], replay,
            circling)


def _phase_table(counts, theta):
    """Every path's phase after each number of its jumps, in one column.

    Row ``starts[p] + p + c`` (``starts`` the offset of path p's first
    jump) holds the summed deflection of path p's first c jumps, for c = 0
    to ``counts[p]``.
    """
    starts = np.cumsum(counts) - counts
    cs = np.concatenate([[0.0], np.cumsum(theta)])
    # path p's rows take cs[starts[p]] to cs[starts[p] + counts[p]]: cs with
    # each later path's first entry repeated once more, less its first entry
    return (np.insert(cs, starts[1:], cs[starts[1:]])
            - np.repeat(cs[starts], counts + 1))


def _phase_chunks(counts, times, table, t_grid, chunk=2500):
    """Entries of ``table`` on the time grid, ``chunk`` paths at a time.

    ``table`` holds a value for each row of ``_phase_table``: the phase or
    its cosine.  Yields ``(lo, hi, values)``: ``values[p - lo, k]`` is the
    entry of the row that holds path p's phase at ``t_grid[k]``, the sum
    of its jumps at or before that time.  Path p's row c holds from the
    grid time of its c-th jump to that of its next, so a chunk is one
    ``np.repeat`` of a slice of ``table``.  ``chunk`` caps the (paths x
    grid) arrays; each ``values`` is a new array, the caller's to overwrite.
    """
    n, n_grid = len(counts), len(t_grid)
    ends = np.cumsum(counts)
    starts = ends - counts
    bounds = np.append(starts + np.arange(n), len(table))  # first table rows
    # a jump counts from the first grid time at or after it (n_grid: never);
    # sorted within each path, so that row c starts at the c-th bin even
    # where a replay time rounds past the next scatter's.  This frame lives
    # through the chunk loop, so the per-jump arrays are freed here
    gbin = np.searchsorted(t_grid, times, side="left")
    key = np.repeat(np.arange(n) * (n_grid + 1), counts)
    gbin += key
    gbin.sort(kind="stable")
    gbin -= key
    del key
    first = np.insert(gbin, starts, 0)  # each table row's first grid time
    del gbin
    # a row holds until the next row's first grid time, a path's last row
    # to the end of the grid
    runs = np.append(first[1:], n_grid)
    runs[bounds[1:] - 1] = n_grid
    runs -= first
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        a, b = bounds[lo], bounds[hi]
        yield lo, hi, np.repeat(table[a:b], runs[a:b]).reshape(hi - lo,
                                                               n_grid)


@dataclass(frozen=True)
class CirclingEstimate:
    fraction: float
    std_error: float
    survival_probability: float


def circling_fraction_mc(mu: float, period: float, n_paths: int, seed: int
                         ) -> CirclingEstimate:
    """Fraction of paths that never scatter within their first period.

    Compared against the closed-form survival probability
    ``exp(-2 mu period)``.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if not 0.0 <= mu < math.inf:
        raise ValueError("mu must be nonnegative and finite")
    if not period > 0.0:
        raise ValueError("period must be positive (it may be infinite)")
    expected = survival_weight(mu, period) if mu > 0.0 else 1.0
    if mu == 0.0:
        return CirclingEstimate(1.0, 0.0, 1.0)
    rng = _rng.generator(seed, _rng.STREAM_CIRCLING)
    waits = rng.exponential(1.0 / (2.0 * mu), n_paths)
    frac = float(np.mean(waits > period))
    se = math.sqrt(max(frac * (1.0 - frac), 0.0) / n_paths)
    return CirclingEstimate(frac, se, expected)


@dataclass(frozen=True)
class GreenKuboEstimate:
    d_estimate: float
    std_error: float
    t_grid: np.ndarray
    vacf: np.ndarray
    vacf_se: np.ndarray
    circling_fraction: float
    n_paths: int


def grid_points(t_cut: float, dt_quad: float):
    """Points of the Green-Kubo grid on [0, t_cut] of spacing ``dt_quad``.

    It is ``np.arange``'s count from 0 to ``t_cut + dt_quad / 2``: the
    grid ends within half a step of ``t_cut``.  Inf when the count
    overflows.
    """
    n = (t_cut + 0.5 * dt_quad) / dt_quad
    return math.ceil(n) if n < math.inf else math.inf


def _trapezoid_grid(t_cut: float, dt_quad: float):
    """Uniform grid on [0, t_cut] of spacing ``dt_quad``, trapezoid weights."""
    t_grid = dt_quad * np.arange(grid_points(t_cut, dt_quad))
    trap_w = np.full(len(t_grid), dt_quad)
    trap_w[0] *= 0.5
    trap_w[-1] *= 0.5
    return t_grid, trap_w


def _vacf_mc(mu, period, n_paths, t_cut, dt_quad, seed, lumped,
             include_rotation, wandering_only) -> GreenKuboEstimate:
    """Trapezoid autocorrelation integral over ``n_paths`` sampled paths.

    Block i of ``GK_BLOCK_SIZE`` paths draws from ``generator(seed,
    STREAM_GK_BLOCK, i)`` when lumped, ``generator(seed, STREAM_GB_PATH,
    i)`` when path-resolved.  ``wandering_only`` drops circling paths from
    the average; ``circling_fraction`` is the fraction of sampled paths
    that circled.
    """
    for name, value in (("mu", mu), ("t_cut", t_cut), ("dt_quad", dt_quad)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if not period > 0.0:
        raise ValueError("period must be positive (it may be infinite)")
    t_grid, trap_w = _trapezoid_grid(t_cut, dt_quad)
    spin = 2.0 * math.pi / period * t_grid if include_rotation else None
    stream = _rng.STREAM_GK_BLOCK if lumped else _rng.STREAM_GB_PATH
    vsum = np.zeros(len(t_grid))
    vsq = np.zeros(len(t_grid))
    integrals = []
    n_circling = 0
    for block_idx, done in enumerate(range(0, n_paths, GK_BLOCK_SIZE)):
        counts, times, theta, _, circling = _block_jumps(
            mu, period, t_cut, min(GK_BLOCK_SIZE, n_paths - done),
            _rng.generator(seed, stream, block_idx), lumped)
        table = _phase_table(counts, theta)
        if spin is None:
            # a cosine per (path, jumps taken), not per path and grid point
            np.cos(table, out=table)
        s = np.zeros(len(t_grid))
        sq = np.zeros(len(t_grid))
        for lo, hi, cosvals in _phase_chunks(counts, times, table, t_grid):
            if wandering_only:
                cosvals = cosvals[~circling[lo:hi]]
            if spin is not None:
                # the table holds phases: rotate them and take the cosine
                cosvals += spin
                np.cos(cosvals, out=cosvals)
            s += cosvals.sum(axis=0)
            integrals.append(cosvals @ trap_w)
            np.square(cosvals, out=cosvals)
            sq += cosvals.sum(axis=0)
            del cosvals  # freed before the next chunk is gathered
        vsum += s
        vsq += sq
        n_circling += int(np.count_nonzero(circling))
    per_path = np.concatenate(integrals) if integrals else np.empty(0)
    kept = len(per_path)
    if kept < 2:
        raise ValueError(f"need at least 2 paths to average, got {kept}")
    vacf = vsum / kept
    var = np.maximum(vsq / kept - vacf ** 2, 0.0)
    return GreenKuboEstimate(
        float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(kept)),
        t_grid, vacf, np.sqrt(var / kept), n_circling / n_paths, n_paths)


def green_kubo_mc(mu: float, period: float, n_paths: int, t_cut: float,
                  dt_quad: float, seed: int) -> GreenKuboEstimate:
    """Trace-form autocorrelation integral of the operator-generated process.

    Estimates ``int_0^t_cut E[cos(angle(t) - angle(0))] dt`` by the
    trapezoid rule on a uniform grid of spacing ``dt_quad``, averaged over
    ``n_paths`` independent paths of the jump process generated by the
    static collision operator (geometric multi-leaf jumps at rate
    ``2 mu``).  The expectation decays like ``exp(lambda_1 t)``, so the
    estimate converges to the operator-route value ``-1/lambda_1``;
    ``t_cut`` must cover several relaxation times.  The reported circling
    fraction comes from the path-resolved first-period survival law.
    """
    est = _vacf_mc(mu, period, n_paths, t_cut, dt_quad, seed, lumped=True,
                   include_rotation=False, wandering_only=False)
    circ = circling_fraction_mc(mu, period, n_paths, _rng.mix(seed, 0xC1))
    return dataclasses.replace(est, circling_fraction=circ.fraction)


def velocity_autocorrelation_paths(mu: float, period: float, n_paths: int,
                                   t_cut: float, dt_quad: float, seed: int,
                                   include_rotation: bool = True,
                                   wandering_only: bool = False
                                   ) -> GreenKuboEstimate:
    """Autocorrelation of the path-resolved process (diagnostic route).

    With rotation included, circling paths contribute a pure oscillation
    that averages toward zero; with ``wandering_only`` they are dropped and
    the mean is taken over the surviving paths.  At finite ``mu * period``
    this route does not integrate to the operator value: replays spread
    over whole periods retard the angular decorrelation.
    """
    return _vacf_mc(mu, period, n_paths, t_cut, dt_quad, seed, lumped=False,
                    include_rotation=include_rotation,
                    wandering_only=wandering_only)

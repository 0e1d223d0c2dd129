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

Paths come in blocks of ``block_paths(mu, t_cut)``: as many as together
expect ``GK_BLOCK`` jumps, but at most ``GK_BLOCK`` paths (a path that
expects more is a block alone).  Each block draws from its own Philox
stream and is drawn and reduced whole, so the memory is a block's (times
the replays per scatter on the path-resolved route), a few MB whatever
``mu`` and ``t_cut``.
Both routes reduce their blocks the same way, in time and memory linear
in the jumps plus the grid.  A block's phase table holds each path's
accumulated deflection after each of its jumps, and each row is the
path's phase on one run of grid times, from its jump's grid bin to the
next jump's.  The mean cosine and its square on the grid are running sums
of the values that enter and leave at the runs' ends, and a path's
trapezoid integral sums each row's cosine times its run's weight.  With
rotation the phase gains ``2 pi t / period`` along the run, so each
cosine splits as ``cos(phi) cos(wt) - sin(phi) sin(wt)``: the sums run
over ``cos(phi)`` and ``sin(phi)`` and the weights carry the grid's
``cos(wt)`` and ``sin(wt)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .geometry import deflection_from_impact
from .operators import survival_weight

# the most paths, and the most expected jumps, of one sampled block: block
# i draws from its own stream generator(seed, <route's stream>, i), so the
# partition (block_paths) is part of the results
GK_BLOCK = 2 ** 15


def block_paths(mu: float, t_cut: float) -> int:
    """Paths of a Green-Kubo block: as many as expect ``GK_BLOCK`` jumps
    together, at ``2 mu t_cut`` a path, but at most ``GK_BLOCK`` and at
    least one.  The quotient stays finite however small ``mu t_cut``."""
    return max(1, int(GK_BLOCK / max(1.0, 2.0 * mu * t_cut)))


def _sorted_jumps(counts, raw_t, t_grid=None):
    """Path of each jump, and the jump times sorted within each path.

    Path p owns the next ``counts[p]`` entries of ``raw_t``.  The times are
    sorted, then stably by path, whose index takes the smallest unsigned
    type that holds it: at most ``uint16`` for a block of at most
    ``GK_BLOCK`` paths, which numpy's stable sort orders by radix.  Given
    ``t_grid``, each time is replaced by its grid bin, searched in the
    global order, where numpy starts each search from the bin of the time
    before.
    """
    n = len(counts)
    path_of = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), counts)
    order = np.argsort(raw_t)
    jt = raw_t[order]
    if t_grid is not None:
        jt = np.searchsorted(t_grid, jt)
    return path_of, jt[np.argsort(path_of[order], kind="stable")]


def _block_jumps(mu: float, period: float, t_cut: float, n: int, rng,
                 lumped: bool, t_grid=None):
    """Jumps of ``n`` independent paths on [0, t_cut].

    Returns ``(counts, times, theta, replay, circling)``: the number of
    jumps of each path; the jump times, grouped by path and sorted within
    each path; each jump's deflection; each jump's replay number (0 for a
    scatter, r for the replay r periods after it); and whether each path
    circles.  Lumped jumps are all scatters and no path circles.  Given
    ``t_grid``, each jump's time is replaced by its grid bin, the index of
    the first grid time at or after it (``len(t_grid)``: none).

    ``rng`` draws the ``poisson`` counts, then every jump time, then
    (lumped) each scatter's number of leaves, then each scatter's impact,
    then (path-resolved, period past ``t_cut``) one uniform per path.
    """
    counts = rng.poisson(2.0 * mu * t_cut, n)
    total = int(counts.sum())
    path_of, jt = _sorted_jumps(counts, rng.random(total) * t_cut,
                                t_grid if lumped else None)
    if lumped:
        # geometric(1.0) still consumes draws, so test the escape probability
        escape = 1.0 - survival_weight(mu, period)
        leaves = rng.geometric(escape, total) if escape < 1.0 else 1
        theta = deflection_from_impact(rng.uniform(-1.0, 1.0, total))
        theta *= leaves
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
    if t_grid is not None:
        times = np.searchsorted(t_grid, times)
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


def _row_runs(counts, bins, n_grid):
    """Grid run ``[first, stop)`` of each row of ``_phase_table``.

    ``bins`` holds each jump's grid bin, grouped by path.  Row c of path p
    is its phase from the c-th smallest of its bins (row 0 from index 0)
    to the next one, and its last row to the end of the grid: the rows of
    the jumps at or before each grid time.  The bins are sorted within
    each path because a replay time can round past the next scatter's.
    """
    starts = np.cumsum(counts) - counts
    key = np.repeat(np.arange(len(counts)) * (n_grid + 1), counts)
    bins = bins + key
    bins.sort(kind="stable")
    bins -= key
    del key
    first = np.insert(bins, starts, 0)
    stop = np.append(first[1:], n_grid)
    stop[starts + counts + np.arange(len(counts))] = n_grid
    return first, stop


def _run_sums(first, stop, values, n_grid):
    """Sum, at each grid index, of the values whose run covers it."""
    edges = np.bincount(first, values, n_grid + 1)
    edges -= np.bincount(stop, values, n_grid + 1)
    return np.cumsum(edges[:n_grid])


def _run_integrals(first, stop, values, cum):
    """Each row's value times its run's weight, ``cum`` the prefix sums of
    the grid's weights from 0."""
    weight = cum[stop]
    weight -= cum[first]
    weight *= values
    return weight


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

    Block i of ``block_paths(mu, t_cut)`` paths draws from
    ``generator(seed, STREAM_GK_BLOCK, i)`` when lumped, ``generator(seed,
    STREAM_GB_PATH, i)`` when path-resolved.  ``wandering_only`` drops
    circling paths from the average; ``circling_fraction`` is the fraction
    of sampled paths that circled.
    """
    for name, value in (("mu", mu), ("t_cut", t_cut), ("dt_quad", dt_quad)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if not period > 0.0:
        raise ValueError("period must be positive (it may be infinite)")
    if grid_points(t_cut, dt_quad) < 2:
        raise ValueError("the grid from 0 to t_cut by dt_quad needs 2 points")
    if lumped and survival_weight(mu, period) == 1.0:
        raise ValueError("mu * period is too small for the lumped process: "
                         "exp(-2 mu period) rounds to 1, so a scatter's "
                         "leaves never end")
    t_grid, trap_w = _trapezoid_grid(t_cut, dt_quad)
    n_grid = len(t_grid)
    if include_rotation:
        spin = 2.0 * math.pi / period * t_grid
        cos_wt, sin_wt = np.cos(spin), np.sin(spin)
        cos_2wt, sin_2wt = np.cos(2.0 * spin), np.sin(2.0 * spin)
        weights = (trap_w * cos_wt, trap_w * sin_wt)
    else:
        weights = (trap_w,)
    # each weight's sum over the grid before each index: a row's run
    # [first, stop) weighs cum[stop] - cum[first]
    cum = [np.concatenate([[0.0], np.cumsum(w)]) for w in weights]

    def block(n, rng, out):
        """One block's sums over its kept paths, of the cosine on the grid
        and of its square (with rotation, of cos(2 phi + 2 wt)); its number
        of kept paths, whose integrals it writes to the front of ``out``;
        and its number of circling paths."""
        counts, bins, theta, replay, circling = _block_jumps(
            mu, period, t_cut, n, rng, lumped, t_grid)
        # each array goes once used, so that no step holds more than
        # _block_jumps did
        del replay
        table = _phase_table(counts, theta)
        del theta
        first, stop = _row_runs(counts, bins, n_grid)
        del bins
        rows = counts + 1
        if wandering_only:
            # a circling path has one row, phase 0 on the whole grid
            keep = np.repeat(~circling, rows)
            table, first, stop = table[keep], first[keep], stop[keep]
            rows = rows[~circling]
        if include_rotation:
            sin = np.sin(table)
            cos = np.cos(table, out=table)
            s = cos_wt * _run_sums(first, stop, cos, n_grid)
            s -= sin_wt * _run_sums(first, stop, sin, n_grid)
            sq = cos_2wt * _run_sums(first, stop, cos * cos - sin * sin,
                                     n_grid)
            sq -= sin_2wt * _run_sums(first, stop, 2.0 * cos * sin, n_grid)
            row = _run_integrals(first, stop, cos, cum[0])
            row -= _run_integrals(first, stop, sin, cum[1])
        else:
            cos = np.cos(table, out=table)
            s = _run_sums(first, stop, cos, n_grid)
            sq = _run_sums(first, stop, cos * cos, n_grid)
            row = _run_integrals(first, stop, cos, cum[0])
        np.add.reduceat(row, np.cumsum(rows) - rows, out=out[:len(rows)])
        return s, sq, len(rows), int(np.count_nonzero(circling))

    stream = _rng.STREAM_GK_BLOCK if lumped else _rng.STREAM_GB_PATH
    size = block_paths(mu, t_cut)
    vsum = np.zeros(n_grid)
    vsq = np.zeros(n_grid)
    # one array for every path's integral, filled block by block: lists of
    # small arrays kept between the blocks' larger ones fragment the heap
    per_path = np.empty(n_paths)
    kept = 0
    n_circling = 0
    for block_idx, done in enumerate(range(0, n_paths, size)):
        s, sq, k, circling = block(
            min(size, n_paths - done),
            _rng.generator(seed, stream, block_idx), per_path[kept:])
        vsum += s
        vsq += sq
        kept += k
        n_circling += circling
    per_path = per_path[:kept]
    if kept < 2:
        raise ValueError(f"need at least 2 paths to average, got {kept}")
    if include_rotation:
        # cos^2 x = (1 + cos 2x) / 2, and each kept path has one value at
        # each grid time
        vsq = 0.5 * (kept + vsq)
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

    With rotation included, a circling path keeps phase 0 and contributes
    the pure oscillation ``cos(2 pi t / period)``, so circling paths add
    ``p_c sin(2 pi t_cut / period) / (2 pi / period)`` to the integral
    (``p_c`` the circling fraction), which vanishes when ``t_cut`` is a
    whole number of periods; with ``wandering_only`` they are dropped and
    the mean is taken over the surviving paths.  At finite ``mu * period``
    this route does not integrate to the operator value: replays spread
    over whole periods retard the angular decorrelation.
    """
    return _vacf_mc(mu, period, n_paths, t_cut, dt_quad, seed, lumped=False,
                    include_rotation=include_rotation,
                    wandering_only=wandering_only)

"""Monte Carlo samplers for the memory-carrying velocity jump process.

Two closely related processes live here, and one sampler,
``_jump_pieces``, draws both.  They share the scattering clock (jumps at
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

Paths come in blocks of ``GK_BLOCK_SIZE``, each drawn from its own Philox
stream, and a block is drawn and reduced in pieces of at most
``GK_PIECE_JUMPS`` scatters, cut between paths, so the memory is bounded
by a piece (times the replays per scatter on the path-resolved route)
and not by the block, ``mu`` or ``t_cut``.  A block's stream holds its
segments one after the other (the times, the leaves, the impacts), and
three cursors on it (``_rng.cursor``) read each piece's slice of them, so
the draws are those of the whole block at once.
Both routes reduce their blocks the same way, in time linear in the
jumps plus the grid.  A piece's phase table holds each path's
accumulated deflection after each of its jumps, and each row is the
path's phase on one run of grid times, from its jump's grid bin to the
next jump's.  The mean cosine and its square on the grid are running sums
of the values that enter and leave at the runs' ends, and a path's
trapezoid integral sums each row's cosine times its run's weight.  With
rotation the phase gains ``2 pi t / period`` along the run, so each
cosine splits as ``cos(phi) cos(wt) - sin(phi) sin(wt)``: the sums run
over ``cos(phi)`` and ``sin(phi)`` and the weights carry the grid's
``cos(wt)`` and ``sin(wt)``.  The pieces give the bits of one reduction
of the whole block: the running sum of the deflections continues from
piece to piece, and the values at the runs' ends are added into the
block's accumulators by ``np.add.at``, in the order one ``np.bincount``
over the block would add them.
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

# the most drawn jumps of one piece of a block: a block is reduced a piece
# at a time, so this bounds its memory; not part of the results
GK_PIECE_JUMPS = 2 ** 15


def _sorted_jumps(counts, raw_t, t_grid=None):
    """Path of each jump, and the jump times sorted within each path.

    Path p owns the next ``counts[p]`` entries of ``raw_t``.  The times are
    sorted, then stably by path, whose index takes the smallest unsigned
    type that holds it: at most ``uint16`` for a piece of a block of
    ``GK_BLOCK_SIZE``, which numpy's stable sort orders by radix.  Given ``t_grid``, each time is replaced
    by its grid bin, searched in the global order, where numpy starts each
    search from the bin of the time before.
    """
    n = len(counts)
    path_of = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), counts)
    order = np.argsort(raw_t)
    jt = raw_t[order]
    if t_grid is not None:
        jt = np.searchsorted(t_grid, jt)
    return path_of, jt[np.argsort(path_of[order], kind="stable")]


def _pieces(counts):
    """Path ranges ``[lo, hi)`` that cut a block into pieces of at most
    ``GK_PIECE_JUMPS`` drawn jumps; a path with more is a piece alone."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        hi = int(np.searchsorted(ends, ends[lo] - counts[lo] + GK_PIECE_JUMPS,
                                 "right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _jump_pieces(mu: float, period: float, t_cut: float, n: int, rng,
                 lumped: bool, t_grid=None):
    """Jumps of ``n`` independent paths on [0, t_cut], a piece at a time.

    Yields, for each piece of ``_pieces``, ``(counts, times, theta,
    replay, circling)``: the number of jumps of each of its paths; the jump
    times, grouped by path and sorted within each path; each jump's
    deflection; each jump's replay number (0 for a scatter, r for the
    replay r periods after it); and whether each path circles.  Lumped
    jumps are all scatters and no path circles.  Given ``t_grid``, each
    jump's time is replaced by its grid bin, the index of the first grid
    time at or after it (``len(t_grid)``: none).

    After the ``poisson`` counts, ``rng`` draws in one stream every jump
    time, then (lumped) each scatter's number of leaves, then each
    scatter's impact, then (path-resolved, period past ``t_cut``) one
    uniform per path.  A piece reads its slice of each segment from a
    cursor on that stream, so the draws are those of the whole block
    drawn at once.  A time or impact takes one raw draw and a number of
    leaves an unknown count, so the impacts' cursor is found by drawing
    the leaves once before.
    """
    counts = rng.poisson(2.0 * mu * t_cut, n)
    total = int(counts.sum())
    impacts = _rng.cursor(rng, total)
    leaves = late = None
    if lumped:
        # geometric(1.0) still consumes draws, so test the escape probability
        escape = 1.0 - survival_weight(mu, period)
        if escape < 1.0:
            leaves = _rng.cursor(rng, total)
            _rng.skip_geometric(impacts, escape, total, GK_PIECE_JUMPS)
    elif period > t_cut:
        late = _rng.cursor(rng, 2 * total)
    for lo, hi in _pieces(counts):
        counts_p = counts[lo:hi]
        m, n_p = int(counts_p.sum()), hi - lo
        path_of, jt = _sorted_jumps(counts_p, rng.random(m) * t_cut,
                                    t_grid if lumped else None)
        theta = deflection_from_impact(impacts.uniform(-1.0, 1.0, m))
        if lumped:
            if leaves is not None:
                theta *= leaves.geometric(escape, m)
            yield (counts_p, jt, theta, np.zeros(m, dtype=np.int64),
                   np.zeros(n_p, dtype=bool))
            continue
        ends = np.cumsum(counts_p)
        scattered = counts_p > 0
        first = np.full(n_p, np.inf)
        first[scattered] = jt[ends[scattered] - counts_p[scattered]]
        circling = first > period
        if late is not None:
            # no scatter in the window: the first wait exceeds t_cut, and it
            # exceeds the period too with probability exp(-2 mu (T - t_cut))
            circling &= scattered | (late.random(n_p) < survival_weight(
                mu, period - t_cut))
        # a scatter replays once per whole period before the next scatter, or
        # before t_cut for a path's last scatter
        nxt = np.append(jt[1:], t_cut)
        nxt[ends[scattered] - 1] = t_cut
        runs = np.where(circling[path_of], 0,
                        1 + np.floor((nxt - jt) / period).astype(np.int64))
        src = np.repeat(np.arange(m), runs)
        replay = np.arange(len(src)) - np.repeat(np.cumsum(runs) - runs, runs)
        # a scatter keeps its time: 0 * period is NaN at an infinite period
        times = jt[src]
        later = replay > 0
        times[later] += replay[later] * period
        if t_grid is not None:
            times = np.searchsorted(t_grid, times)
        yield (np.bincount(path_of[src], minlength=n_p), times, theta[src],
               replay, circling)


def _phase_table(counts, theta, carry=0.0):
    """Every path's phase after each number of its jumps, in one column.

    Row ``starts[p] + p + c`` (``starts`` the offset of path p's first
    jump) holds the summed deflection of path p's first c jumps, for c = 0
    to ``counts[p]``.  The phases are differences of the running sum of
    ``theta``; a later piece of a block passes the block's running sum
    so far as ``carry``, so the sum and its rounding run on across the
    pieces.  Returns the table and the running sum at its end.
    """
    starts = np.cumsum(counts) - counts
    cs = np.cumsum(np.concatenate([[carry], theta]))
    # path p's rows take cs[starts[p]] to cs[starts[p] + counts[p]]: cs with
    # each later path's first entry repeated once more, less its first entry
    return (np.insert(cs, starts[1:], cs[starts[1:]])
            - np.repeat(cs[starts], counts + 1)), cs[-1]


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
        # with rotation, the run sums of cos phi, sin phi, cos 2phi, sin 2phi
        edges = np.zeros((4 if include_rotation else 2, 2, n_grid + 1))
        kept = 0
        carry = 0.0
        n_circling = 0
        for counts, bins, theta, _, circling in _jump_pieces(
                mu, period, t_cut, n, rng, lumped, t_grid):
            table, carry = _phase_table(counts, theta, carry)
            del theta
            first, stop = _row_runs(counts, bins, n_grid)
            del bins
            rows = counts + 1
            n_circling += int(np.count_nonzero(circling))
            if wandering_only:
                # a circling path has one row, phase 0 on the whole grid
                keep = np.repeat(~circling, rows)
                table, first, stop = table[keep], first[keep], stop[keep]
                rows = rows[~circling]
            if include_rotation:
                sin = np.sin(table)
                cos = np.cos(table, out=table)
                values = (cos, sin, cos * cos - sin * sin, 2.0 * cos * sin)
                row = _run_integrals(first, stop, cos, cum[0])
                row -= _run_integrals(first, stop, sin, cum[1])
            else:
                cos = np.cos(table, out=table)
                values = (cos, cos * cos)
                row = _run_integrals(first, stop, cos, cum[0])
            # a row's value enters the sum at its run's start and leaves at
            # its stop; np.add.at adds in np.bincount's order, so the pieces
            # give the bits of one bincount over the block
            for e, v in zip(edges, values):
                np.add.at(e[0], first, v)
                np.add.at(e[1], stop, v)
            np.add.reduceat(row, np.cumsum(rows) - rows,
                            out=out[kept:kept + len(rows)])
            kept += len(rows)
        edges[:, 0] -= edges[:, 1]
        sums = np.cumsum(edges[:, 0, :n_grid], axis=1)
        if include_rotation:
            s = cos_wt * sums[0]
            s -= sin_wt * sums[1]
            sq = cos_2wt * sums[2]
            sq -= sin_2wt * sums[3]
        else:
            s, sq = sums
        return s, sq, kept, n_circling

    stream = _rng.STREAM_GK_BLOCK if lumped else _rng.STREAM_GB_PATH
    vsum = np.zeros(n_grid)
    vsq = np.zeros(n_grid)
    # one array for every path's integral, filled block by block: lists of
    # small arrays kept between the pieces' larger ones fragment the heap
    per_path = np.empty(n_paths)
    kept = 0
    n_circling = 0
    for block_idx, done in enumerate(range(0, n_paths, GK_BLOCK_SIZE)):
        s, sq, k, circling = block(
            min(GK_BLOCK_SIZE, n_paths - done),
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

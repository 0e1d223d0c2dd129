"""Grid forms of the continuum Monte Carlo estimators, kept as a reference.

These are the bodies the Green-Kubo reduction and the annulus void count
had before the per-jump phase table and the squared-radius prefilter:
the phase is looked up as ``cs[first + c] - cs[first]`` and its cosine
taken per path and grid point, and every point's radius goes through
``np.hypot``.  The jumps are the package's own, drawn a block at a time
by ``boltzmann_process._block_jumps`` in blocks of
``boltzmann_process.block_paths``.  A path's jump times are sorted by one
``lexsort``, and each chunk of annulus samples draws its points in one
call, on the package's tiles (``tests/test_continuum_reference.py``
checks those against an exact cover).  The deflection of an impact is
taken from a chain of full-size temporaries, where the package works in
place.  The package must return bit-identical results;
``tests/test_continuum_reference.py`` checks that it does.
"""

import dataclasses
import math

import numpy as np

from maglorentz import _rng
from maglorentz import boltzmann_process as bp
from maglorentz import medium


def phase_chunks(counts, times, theta, t_grid, spin=None, chunk=2500):
    """Each path's phase on the time grid, ``chunk`` paths at a time."""
    n, n_grid = len(counts), len(t_grid)
    ends = np.cumsum(counts)
    starts = ends - counts
    path_of = np.repeat(np.arange(n), counts)
    cs = np.concatenate([[0.0], np.cumsum(theta)])
    gbin = np.searchsorted(t_grid, times, side="left")
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        a, b = starts[lo], ends[hi - 1]
        slot = (path_of[a:b] - lo) * (n_grid + 1) + gbin[a:b]
        jumps = np.bincount(slot, minlength=(hi - lo) * (n_grid + 1))
        c = np.cumsum(jumps.reshape(hi - lo, n_grid + 1)[:, :n_grid], axis=1)
        first = starts[lo:hi, None]
        phase = cs[first + c] - cs[first]
        if spin is not None:
            phase += spin
        yield lo, hi, phase


def vacf_mc(mu, period, n_paths, t_cut, dt_quad, seed, lumped,
            include_rotation, wandering_only, chunk=2500):
    """``boltzmann_process._vacf_mc`` with a cosine per path and grid point.

    Blocks hold ``bp.block_paths(mu, t_cut)`` paths, looked up at call
    time.
    """
    t_grid, trap_w = bp._trapezoid_grid(t_cut, dt_quad)
    spin = 2.0 * math.pi / period * t_grid if include_rotation else None
    stream = _rng.STREAM_GK_BLOCK if lumped else _rng.STREAM_GB_PATH
    vsum = np.zeros(len(t_grid))
    vsq = np.zeros(len(t_grid))
    integrals = []
    n_circling = 0
    size = bp.block_paths(mu, t_cut)
    for block_idx, done in enumerate(range(0, n_paths, size)):
        counts, times, theta, _, circling = bp._block_jumps(
            mu, period, t_cut, min(size, n_paths - done),
            _rng.generator(seed, stream, block_idx), lumped)
        s = np.zeros(len(t_grid))
        sq = np.zeros(len(t_grid))
        for lo, hi, phase in phase_chunks(counts, times, theta, t_grid, spin,
                                          chunk):
            if wandering_only:
                phase = phase[~circling[lo:hi]]
            cosvals = np.cos(phase)
            s += cosvals.sum(axis=0)
            sq += (cosvals ** 2).sum(axis=0)
            integrals.append(cosvals @ trap_w)
        vsum += s
        vsq += sq
        n_circling += int(np.count_nonzero(circling))
    per_path = np.concatenate(integrals) if integrals else np.empty(0)
    kept = len(per_path)
    if kept < 2:
        raise ValueError(f"need at least 2 paths to average, got {kept}")
    vacf = vsum / kept
    var = np.maximum(vsq / kept - vacf ** 2, 0.0)
    return bp.GreenKuboEstimate(
        float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(kept)),
        t_grid, vacf, np.sqrt(var / kept), n_circling / n_paths, n_paths)


def green_kubo_mc(mu, period, n_paths, t_cut, dt_quad, seed, chunk=2500):
    est = vacf_mc(mu, period, n_paths, t_cut, dt_quad, seed, True, False,
                  False, chunk)
    circ = bp.circling_fraction_mc(mu, period, n_paths, _rng.mix(seed, 0xC1))
    return dataclasses.replace(est, circling_fraction=circ.fraction)


def sorted_jump_times(raw_t, path_of):
    """Jump times grouped by path and sorted within each path, by lexsort."""
    return raw_t[np.lexsort((raw_t, path_of))]


def void_count(pts, counts, r, eps):
    """Samples with no point inside the annulus, every radius by hypot."""
    rad = np.hypot(pts[:, 0], pts[:, 1])
    inside = (rad > r - eps) & (rad < r + eps)
    hits = np.zeros(len(pts) + 1, dtype=np.int64)
    np.cumsum(inside, out=hits[1:])
    ends = np.cumsum(counts)
    starts = ends - counts
    return int(np.count_nonzero(hits[ends] - hits[starts] == 0))


def tile_points(u, s, tile_x, tile_y):
    """The points placed on the tiles from draws ``u`` (m, 3), unblocked."""
    n = len(tile_x)
    tile = np.minimum(np.floor(u[:, 0] * n).astype(int), n - 1)
    return np.column_stack([(tile_x[tile] + u[:, 1]) * s,
                            (tile_y[tile] + u[:, 2]) * s])


def empty_annulus_void(params, n_samples, seed):
    """Void samples of ``medium.empty_annulus_probability_mc``'s draws.

    The tiles are the package's ``medium._annulus_tiles``; each chunk's
    points are one ``random((total, 3))`` draw: a tile from column 0, the
    point's offset in it from columns 1 and 2.
    """
    r, eps = params.larmor_radius, params.eps
    s, tile_x, tile_y = medium._annulus_tiles(r, eps)
    lam = params.mu_eff * s * s * len(tile_x)
    gen = _rng.generator(seed, _rng.STREAM_ANNULUS)
    void = 0
    chunk = max(1, min(n_samples, 2 ** 15, int(2e6 / max(lam, 1.0))))
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        counts = gen.poisson(lam, n)
        u = gen.random((int(counts.sum()), 3))
        void += void_count(tile_points(u, s, tile_x, tile_y), counts, r, eps)
        done += n
    return void


def deflection_from_impact(b_norm):
    """``sign(b) (pi - 2 asin|b|)``, +pi at b = 0, through temporaries."""
    b = np.asarray(b_norm, dtype=float)
    if np.any(np.abs(b) > 1.0):
        raise ValueError("normalized impact parameter must lie in [-1, 1]")
    out = np.where(
        b == 0.0, math.pi, np.sign(b) * (math.pi - 2.0 * np.arcsin(np.abs(b)))
    )
    if np.isscalar(b_norm) or getattr(b_norm, "shape", None) == ():
        return float(out)
    return out

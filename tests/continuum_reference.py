"""Grid forms of the continuum Monte Carlo estimators, kept as a reference.

These are the bodies the Green-Kubo reduction and the annulus void count
had before the per-jump phase table and the squared-radius prefilter:
the phase is looked up as ``cs[first + c] - cs[first]`` and its cosine
taken per path and grid point, and every point's radius goes through
``np.hypot``.  A block's jumps are drawn whole, each segment of its
stream in one call, where the package draws them a piece at a time
through cursors on the stream.  A path's jump times are sorted by one
``lexsort``, and each chunk of annulus samples draws its points in one
call.  The deflection of an impact is taken from a chain of full-size
temporaries, where the package works in place.  The package must return
bit-identical results; ``tests/test_continuum_reference.py`` checks that
it does.
"""

import dataclasses
import math

import numpy as np

from maglorentz import _rng
from maglorentz import boltzmann_process as bp
from maglorentz.operators import survival_weight


def block_jumps(mu, period, t_cut, n, rng, lumped, t_grid=None):
    """``boltzmann_process._jump_pieces``'s jumps of one block, drawn whole:
    ``(counts, times, theta, replay, circling)`` of all ``n`` paths."""
    counts = rng.poisson(2.0 * mu * t_cut, n)
    total = int(counts.sum())
    path_of, jt = bp._sorted_jumps(counts, rng.random(total) * t_cut,
                                   t_grid if lumped else None)
    if lumped:
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
        circling &= scattered | (rng.random(n) < survival_weight(
            mu, period - t_cut))
    nxt = np.append(jt[1:], t_cut)
    nxt[ends[scattered] - 1] = t_cut
    runs = np.where(circling[path_of], 0,
                    1 + np.floor((nxt - jt) / period).astype(np.int64))
    src = np.repeat(np.arange(total), runs)
    replay = np.arange(len(src)) - np.repeat(np.cumsum(runs) - runs, runs)
    times = jt[src]
    later = replay > 0
    times[later] += replay[later] * period
    if t_grid is not None:
        times = np.searchsorted(t_grid, times)
    return (np.bincount(path_of[src], minlength=n), times, theta[src], replay,
            circling)


def joined_pieces(*args, **kwargs):
    """The pieces of ``boltzmann_process._jump_pieces``, joined into one
    block's ``(counts, times, theta, replay, circling)``."""
    return tuple(np.concatenate(parts) for parts in
                 zip(*bp._jump_pieces(*args, **kwargs)))


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

    Blocks hold ``bp.GK_BLOCK_SIZE`` paths, read at call time.
    """
    t_grid, trap_w = bp._trapezoid_grid(t_cut, dt_quad)
    spin = 2.0 * math.pi / period * t_grid if include_rotation else None
    stream = _rng.STREAM_GK_BLOCK if lumped else _rng.STREAM_GB_PATH
    vsum = np.zeros(len(t_grid))
    vsq = np.zeros(len(t_grid))
    integrals = []
    n_circling = 0
    for block_idx, done in enumerate(range(0, n_paths, bp.GK_BLOCK_SIZE)):
        counts, times, theta, _, circling = block_jumps(
            mu, period, t_cut, min(bp.GK_BLOCK_SIZE, n_paths - done),
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


def empty_annulus_void(params, n_samples, seed):
    """Void samples of ``medium.empty_annulus_probability_mc``'s draws."""
    r, eps = params.larmor_radius, params.eps
    half = r + eps
    lam_box = params.mu_eff * (2.0 * half) ** 2
    gen = _rng.generator(seed, _rng.STREAM_ANNULUS)
    void = 0
    chunk = max(1, min(n_samples, int(2e6 / max(lam_box, 1.0))))
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        counts = gen.poisson(lam_box, n)
        pts = gen.random((int(counts.sum()), 2)) * (2.0 * half) - half
        void += void_count(pts, counts, r, eps)
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

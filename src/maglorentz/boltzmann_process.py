"""Monte Carlo samplers for the memory-carrying velocity jump process.

Two closely related processes live here.

``sample_velocity_path`` draws the *path-resolved* process: an exponential
scattering clock of total rate ``2 mu``; at each scattering a fresh uniform
impact parameter fixes a deflection that is stored; while the next
scattering is pending, every completed cyclotron period replays the stored
deflection (the particle returns to the obstacle it just left with the same
impact geometry).  A path that survives its entire first period without
scattering is circling: its orbit annulus is empty, so it never scatters at
all.  Between jumps the velocity angle drifts at the magnetic rotation rate
``2 pi / period``.

``green_kubo_mc`` instead samples the jump process *generated by the static
collision operator* of :mod:`maglorentz.operators`: jumps at rate ``2 mu``
where each jump applies a geometrically distributed number of identical
deflections in one go (number of leaves k with probability
``(1 - w) w^(k-1)``, survival weight ``w = exp(-2 mu period)``).  Its
velocity autocorrelation is exactly ``exp(lambda_1 t)``, so its time
integral reproduces the operator-route coefficient ``-1/lambda_1``.  The
path-resolved process spreads the replayed deflections over whole periods
and freezes circling paths, which changes the autocorrelation integral by a
computable amount; ``velocity_autocorrelation_paths`` exposes that route so
the gap can be measured rather than hidden.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .geometry import deflection_from_impact

# paths per block of green_kubo_mc; block i draws from its own stream
# generator(seed, STREAM_GK_BLOCK, i), so this size is part of the results
GK_BLOCK_SIZE = 20_000


class JumpKind(enum.IntEnum):
    SCATTER = 0
    REPLAY = 1


@dataclass(frozen=True)
class GBPath:
    """One sampled velocity path.

    The angle at time t is ``initial_angle + rotation_rate * t`` plus the
    sum of all jump deflections up to t.  ``impact_parameters`` holds the
    normalized impact parameter of scatter jumps and NaN for replays.
    """

    mu: float
    period: float
    t_max: float
    initial_angle: float
    jump_times: np.ndarray
    jump_kinds: np.ndarray
    deflections: np.ndarray
    impact_parameters: np.ndarray
    circling: bool

    @property
    def rotation_rate(self) -> float:
        return 2.0 * math.pi / self.period

    def jump_phase_at(self, times) -> np.ndarray:
        """Accumulated jump deflection at each query time."""
        times = np.asarray(times, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.deflections)])
        idx = np.searchsorted(self.jump_times, times, side="right")
        return cum[idx]

    def angles_at(self, times, include_rotation: bool = True) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        out = self.initial_angle + self.jump_phase_at(times)
        if include_rotation:
            out = out + self.rotation_rate * times
        return out


def sample_velocity_path(mu: float, period: float, v0_angle: float,
                         t_max: float, seed) -> GBPath:
    """Draw one path of the path-resolved process on [0, t_max].

    ``seed`` may be an integer or a ``numpy.random.Generator``.
    """
    if mu <= 0.0 or period <= 0.0:
        raise ValueError("mu and period must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else \
        _rng.generator(int(seed), _rng.STREAM_GB_PATH)
    times: list[float] = []
    kinds: list[int] = []
    defl: list[float] = []
    bpar: list[float] = []

    first_wait = rng.exponential(1.0 / (2.0 * mu))
    circling = first_wait > period
    if not circling:
        t = first_wait
        while t <= t_max:
            b = rng.uniform(-1.0, 1.0)
            theta = deflection_from_impact(b)
            times.append(t)
            kinds.append(JumpKind.SCATTER)
            defl.append(theta)
            bpar.append(b)
            wait = rng.exponential(1.0 / (2.0 * mu))
            n_replays = int(wait // period)
            for r in range(1, n_replays + 1):
                tr = t + r * period
                if tr > t_max:
                    break
                times.append(tr)
                kinds.append(JumpKind.REPLAY)
                defl.append(theta)
                bpar.append(math.nan)
            t += wait
    return GBPath(
        mu=mu, period=period, t_max=t_max, initial_angle=v0_angle,
        jump_times=np.asarray(times), jump_kinds=np.asarray(kinds, dtype=np.uint8),
        deflections=np.asarray(defl), impact_parameters=np.asarray(bpar),
        circling=circling,
    )


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
    if mu < 0.0 or period <= 0.0:
        raise ValueError("mu must be nonnegative and period positive")
    expected = math.exp(-2.0 * mu * period) if mu > 0.0 else 1.0
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


def _trapezoid_grid(t_cut: float, dt_quad: float):
    """Uniform grid on [0, t_cut] of spacing ``dt_quad``, trapezoid weights."""
    t_grid = np.arange(0.0, t_cut + 0.5 * dt_quad, dt_quad)
    trap_w = np.full(len(t_grid), dt_quad)
    trap_w[0] *= 0.5
    trap_w[-1] *= 0.5
    return t_grid, trap_w


def _generator_vacf_block(mu, leaf_escape_p, t_cut, t_grid, trap_w, n, rng):
    """VACF samples of the operator-generated jump process for one block.

    Returns (sum of cos over paths per grid point, sum of squares,
    per-path trapezoid integrals).
    """
    counts = rng.poisson(2.0 * mu * t_cut, n)
    total = int(counts.sum())
    raw_t = rng.random(total) * t_cut
    path_of = np.repeat(np.arange(n), counts)
    order = np.lexsort((raw_t, path_of))
    jt = raw_t[order]
    if leaf_escape_p < 1.0:
        leaves = rng.geometric(leaf_escape_p, total)
    else:
        leaves = np.ones(total, dtype=np.int64)
    theta = deflection_from_impact(rng.uniform(-1.0, 1.0, total)) * leaves
    # path p's phase after its first c jumps: cs[starts[p] + c] - cs[starts[p]]
    ends = np.cumsum(counts)
    starts = ends - counts
    cs = np.concatenate([[0.0], np.cumsum(theta)])
    # a jump counts from the first grid time at or after it (n_grid: never)
    n_grid = len(t_grid)
    gbin = np.searchsorted(t_grid, jt, side="left")
    vsum = np.zeros(n_grid)
    vsq = np.zeros(n_grid)
    per_path = np.empty(n)
    chunk = 2500  # caps the (paths x grid) scratch arrays
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        a, b = starts[lo], ends[hi - 1]
        slot = (path_of[a:b] - lo) * (n_grid + 1) + gbin[a:b]
        jumps = np.bincount(slot, minlength=(hi - lo) * (n_grid + 1))
        c = np.cumsum(jumps.reshape(hi - lo, n_grid + 1)[:, :n_grid], axis=1)
        first = starts[lo:hi, None]
        cosvals = np.cos(cs[first + c] - cs[first])
        vsum += cosvals.sum(axis=0)
        vsq += (cosvals ** 2).sum(axis=0)
        per_path[lo:hi] = cosvals @ trap_w
    return vsum, vsq, per_path


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
    if t_cut <= 0.0 or dt_quad <= 0.0:
        raise ValueError("t_cut and dt_quad must be positive")
    if mu <= 0.0 or period <= 0.0:
        raise ValueError("mu and period must be positive")
    w = math.exp(-2.0 * mu * period)
    t_grid, trap_w = _trapezoid_grid(t_cut, dt_quad)
    vsum = np.zeros(len(t_grid))
    vsq = np.zeros(len(t_grid))
    integrals = []
    done = 0
    block_idx = 0
    while done < n_paths:
        n = min(GK_BLOCK_SIZE, n_paths - done)
        rng = _rng.generator(seed, _rng.STREAM_GK_BLOCK, block_idx)
        s, sq, per_path = _generator_vacf_block(
            mu, 1.0 - w, t_cut, t_grid, trap_w, n, rng)
        vsum += s
        vsq += sq
        integrals.append(per_path)
        done += n
        block_idx += 1
    vacf = vsum / n_paths
    var = np.maximum(vsq / n_paths - vacf ** 2, 0.0)
    vacf_se = np.sqrt(var / n_paths)
    per_path = np.concatenate(integrals)
    d_hat = float(per_path.mean())
    d_se = float(per_path.std(ddof=1) / math.sqrt(n_paths))
    circ = circling_fraction_mc(mu, period, max(n_paths, 1), _rng.mix(seed, 0xC1))
    return GreenKuboEstimate(d_hat, d_se, t_grid, vacf, vacf_se,
                             circ.fraction, n_paths)


@dataclass(frozen=True)
class PathVacfEstimate:
    t_grid: np.ndarray
    vacf: np.ndarray
    vacf_se: np.ndarray
    d_estimate: float
    std_error: float
    wandering_fraction: float


def velocity_autocorrelation_paths(mu: float, period: float, n_paths: int,
                                   t_cut: float, dt_quad: float, seed: int,
                                   include_rotation: bool = True,
                                   wandering_only: bool = False
                                   ) -> PathVacfEstimate:
    """Autocorrelation of the path-resolved process (diagnostic route).

    With rotation included, circling paths contribute a pure oscillation
    that averages toward zero; with ``wandering_only`` they are dropped and
    the mean is taken over the surviving paths.  At finite ``mu * period``
    this route does not integrate to the operator value: replays spread
    over whole periods retard the angular decorrelation.
    """
    t_grid, trap_w = _trapezoid_grid(t_cut, dt_quad)
    acc = np.zeros(len(t_grid))
    acc_sq = np.zeros(len(t_grid))
    integrals = []
    kept = 0
    for i in range(n_paths):
        rng = _rng.generator(seed, _rng.STREAM_GB_PATH, i)
        path = sample_velocity_path(mu, period, 0.0, t_cut, rng)
        if wandering_only and path.circling:
            continue
        ang = path.angles_at(t_grid, include_rotation=include_rotation)
        c = np.cos(ang)
        acc += c
        acc_sq += c ** 2
        integrals.append(float(c @ trap_w))
        kept += 1
    if kept == 0:
        raise RuntimeError("all sampled paths were circling")
    vacf = acc / kept
    var = np.maximum(acc_sq / kept - vacf ** 2, 0.0)
    per_path = np.asarray(integrals)
    return PathVacfEstimate(
        t_grid, vacf, np.sqrt(var / kept),
        float(per_path.mean()),
        float(per_path.std(ddof=1) / math.sqrt(kept)),
        kept / n_paths,
    )

"""Event-driven simulation of the test particle among lazy Poisson obstacles.

Exact dynamics: circular-arc (or straight) free flight between events,
elastic reflection at each impact.  Obstacle queries enumerate only the
grid cells a flight leg can reach, so trajectories of unbounded extent run
against the infinite deterministic field of :mod:`maglorentz.medium`.
The hit geometry and the reflection are those of
:mod:`maglorentz.geometry`; this module walks the cells, runs the event
loop and keeps the books.  It keeps that module's one rule: the event loop
runs on Python floats and ``math``, and numpy does only elementwise
arithmetic over many rows (the squared displacements of a replica's
samples) and the statistics over replicas.

Event taxonomy per impact:

* fresh        - first contact with that obstacle,
* self-recollision - the immediately preceding impact hit the same obstacle
  (one more leaf of the current daisy),
* recollision  - an earlier, non-adjacent impact hit the same obstacle.

A trajectory terminates early as ``CIRCLING_FOREVER`` when its current
orbit annulus holds no obstacle center (the motion is then exactly
periodic) and as ``TRAPPED_DAISY`` when the impact parameter and impact
direction of a self-recollision streak repeat within tolerance, closing a
periodic flower.  Both outcomes keep producing exact positions for the
remaining sample times.

As a measurable stand-in for trajectory-tube interference, each arc is also
checked for near misses: passing within twice the obstacle radius of a
previously hit obstacle's center without touching it.  Straight legs
(B = 0) have no closed orbit and are not checked.  ``advance_free`` is the
one formula for a point on a leg: the hit walk takes its piece ends and
the samples their positions from it.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _rng
from .geometry import (TWO_PI, advance_free, arc_passes_within, first_arc_hit,
                       first_ray_entry, larmor_center, normalize_angle, reflect)
from .medium import (ObstacleField, ScalingParams, is_admissible_start,
                     scaling_from)

#: near-miss proxy distance, in units of the obstacle radius
NEAR_MISS_FACTOR = 2.0

#: tolerance for declaring a self-recollision streak periodic
DAISY_CLOSURE_TOL = 1e-9

#: swept angle of one arc piece of the hit walk
ARC_PIECE = math.pi / 8

#: leaves of a self-recollision streak that a new leaf is matched against
DAISY_MAX_LEAVES = 64

DEFAULT_MAX_EVENTS = 100_000


class ChatteringError(RuntimeError):
    """Event count exceeded the cap; the replica is aborted as pathological."""


class EventKind(enum.Enum):
    FRESH = "fresh"
    SELF_RECOLLISION = "self_recollision"
    RECOLLISION = "recollision"


class TrajectoryStatus(enum.Enum):
    COMPLETED = "completed"
    CIRCLING_FOREVER = "circling_forever"
    TRAPPED_DAISY = "trapped_daisy"


@dataclass(frozen=True)
class CollisionEvent:
    hit_time: float
    obstacle_id: tuple[int, int, int]  # (cell x, cell y, row in the cell)
    impact_parameter: float
    kind: EventKind


class Trajectory:
    """One event-driven run: its state while it runs, its record after.

    ``x``, ``y`` and ``alpha`` end as the final position and velocity
    angle; ``near_miss`` is always False without a field.
    """

    def __init__(self, field_, start: tuple[float, float, float],
                 t_max: float, sample_times):
        params = field_.params
        self.field = field_
        self.eps = params.eps
        self.b = params.b_magnitude
        self.radius = params.larmor_radius
        self.t_max = t_max
        self.x, self.y, self.alpha = start
        self.t = 0.0
        self.events: list[CollisionEvent] = []
        self.prev_id: tuple[int, int, int] | None = None
        # centers of the obstacles hit so far, in order of first hit
        self.hit_centers: dict[tuple[int, int, int], tuple[float, float]] = {}
        # the current self-recollision streak, one (b, normal phase, time,
        # x, y, angle) per leaf, position and angle after the reflection
        self.run: deque[tuple] = deque(maxlen=DAISY_MAX_LEAVES)
        self.near_miss = False
        self.status = TrajectoryStatus.COMPLETED
        self.status_time = t_max
        st = np.asarray(sample_times, dtype=float)
        if not (np.all(st >= 0.0) and np.all(st <= t_max)
                and np.all(np.diff(st) >= 0.0)):
            raise ValueError("sample times must be sorted within [0, t_max]")
        self.sample_times = st
        self.sample_positions = np.empty((len(st), 2))
        self.cursor = 0
        while self.cursor < len(st) and st[self.cursor] == 0.0:
            self.sample_positions[self.cursor] = self.x, self.y
            self.cursor += 1

    # -- sampling -----------------------------------------------------------

    def emit_samples(self, duration: float):
        """Record sample positions falling inside the current leg."""
        hi = int(np.searchsorted(self.sample_times, self.t + duration,
                                 side="right"))
        for i in range(self.cursor, hi):
            self.sample_positions[i] = advance_free(
                self.x, self.y, self.alpha, self.b,
                float(self.sample_times[i]) - self.t)[:2]
        self.cursor = hi

    def advance(self, duration: float):
        self.emit_samples(duration)
        self.x, self.y, self.alpha = advance_free(self.x, self.y, self.alpha,
                                                  self.b, duration)
        self.t += duration

    # -- near-miss proxy ----------------------------------------------------

    def check_near_miss(self, length: float, hit_id):
        """Flag a near miss on the next ``length`` of an arc; one is enough.

        A straight leg is never checked: without a field the trajectory
        has no closed orbit to pass back through its own tube.
        """
        if self.b == 0.0 or self.near_miss or not self.hit_centers:
            return
        exclude = {hit_id, self.prev_id}
        self.near_miss = arc_passes_within(
            (c for oid, c in self.hit_centers.items() if oid not in exclude),
            larmor_center(self.x, self.y, self.alpha, self.b), self.radius,
            self.alpha - 0.5 * math.pi, length / self.radius,
            NEAR_MISS_FACTOR * self.eps)

    # -- hit search ---------------------------------------------------------

    def next_hit(self, max_len: float):
        """(length, key, normal, center) of the first impact, or None.

        ``key`` is ``(ix, iy, row)``: the row of ``field.cell(ix, iy)`` hit.
        The leg is walked in pieces, a cell size of a ray or ``ARC_PIECE``
        of an arc's sweep.  Each piece scans every obstacle of the cells
        that its bounding box meets, widened by eps and, for an arc, by the
        piece's sagitta, the farthest the arc strays from its chord, all
        cells in one kernel call; the boxes of successive pieces overlap,
        so an obstacle may be scanned twice.  The kernel computes each row
        alone, so the earliest piece, cell and row wins a tie.  A disk
        entered at length <= hi has its center within eps of the leg on
        [0, hi], so the walk stops at the first piece end hi at or past the
        best hit.  A ray ends at ``max_len``.  An arc walks its whole
        revolution whatever ``max_len``: None then means the orbit holds no
        obstacle (exactly periodic motion), so the trajectory is circling
        forever.
        """
        x, y, alpha, eps, b = self.x, self.y, self.alpha, self.eps, self.b
        field_ = self.field
        if b > 0.0:
            r = self.radius
            cx, cy = larmor_center(x, y, alpha, b)
            step, end = ARC_PIECE * r, TWO_PI * r
            pad = eps + r * (1.0 - math.cos(0.5 * ARC_PIECE))

            def hit(pts):
                return first_arc_hit(pts, (cx, cy), alpha, b, eps)
        else:
            v = math.cos(alpha), math.sin(alpha)
            step, end, pad = field_.cell_size, max_len, eps

            def hit(pts):
                return first_ray_entry(pts, (x, y), v, eps, max_len)

        def scan(x_lo, x_hi, y_lo, y_hi):
            cells = [(key, field_.cell(*key))
                     for key in field_.cells_meeting(x_lo, x_hi, y_lo, y_hi)]
            pts = (cells[0][1] if len(cells) == 1
                   else np.concatenate([p for _, p in cells]))
            found = hit(pts) if len(pts) else None
            if found is None:
                return None
            length, k, n = found
            for key, p in cells:
                if k < len(p):
                    return length, (*key, k), n, p[k]
                k -= len(p)

        best = None
        hi = 0.0
        z = advance_free(x, y, alpha, b, hi)
        while (best is None or best[0] > hi) and hi < end:
            a = z
            hi = min(hi + step, end)
            z = advance_free(x, y, alpha, b, hi)
            found = scan(min(a[0], z[0]) - pad, max(a[0], z[0]) + pad,
                         min(a[1], z[1]) - pad, max(a[1], z[1]) + pad)
            if found is not None and (best is None or found[0] < best[0]):
                best = found
        return best

    # -- daisy bookkeeping ---------------------------------------------------

    def register_hit(self, hit_id, center, b_signed, hit_time):
        if hit_id == self.prev_id:
            kind = EventKind.SELF_RECOLLISION
        elif hit_id in self.hit_centers:
            kind = EventKind.RECOLLISION
        else:
            kind = EventKind.FRESH
            self.hit_centers[hit_id] = (float(center[0]), float(center[1]))
        self.events.append(CollisionEvent(
            hit_time=hit_time, obstacle_id=hit_id, impact_parameter=b_signed,
            kind=kind))
        self.prev_id = hit_id
        return kind

    def daisy_closure(self, b_signed, n_phase):
        """Index of the matching earlier leaf, or None."""
        for i, (b_old, phase_old, *_) in enumerate(self.run):
            db = abs(b_signed - b_old)
            dphi = abs(math.remainder(n_phase - phase_old, TWO_PI))
            if db <= DAISY_CLOSURE_TOL and dphi <= DAISY_CLOSURE_TOL:
                return i
        return None


def simulate_trajectory(field_, start, t_max: float, sample_times=(),
                        max_events: int = DEFAULT_MAX_EVENTS) -> Trajectory:
    """Run the exact event-driven dynamics from an admissible start.

    ``start`` is ``(x, y, angle)``, the angle taken modulo 2 pi.
    """
    x, y, alpha = map(float, start)
    if not all(map(math.isfinite, (x, y, alpha))):
        raise ValueError("start position and angle must be finite")
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    if not is_admissible_start(field_, (x, y)):
        raise ValueError("start position overlaps an obstacle")
    tr = Trajectory(field_, (x, y, normalize_angle(alpha)), t_max,
                    sample_times)

    while tr.t < t_max:
        if len(tr.events) >= max_events:
            raise ChatteringError(
                f"{len(tr.events)} events before t={tr.t:g}; chattering pathology")
        remaining = t_max - tr.t
        found = tr.next_hit(remaining)
        if found is None and tr.b > 0.0:
            tr.status = TrajectoryStatus.CIRCLING_FOREVER
            tr.status_time = tr.t
            tr.advance(remaining)
            break
        if found is None or found[0] >= remaining:
            tr.check_near_miss(remaining, None)
            tr.advance(remaining)
            break
        tau, hit_id, (nx, ny), c = found
        tr.check_near_miss(tau, hit_id)

        tr.advance(tau)
        b_signed = tr.eps * (math.cos(tr.alpha) * ny - math.sin(tr.alpha) * nx)
        kind = tr.register_hit(hit_id, c, b_signed, tr.t)

        n_phase = math.atan2(ny, nx)
        closed_at = None
        if kind is EventKind.SELF_RECOLLISION:
            closed_at = tr.daisy_closure(b_signed, n_phase)
        else:
            tr.run.clear()

        tr.alpha = reflect(tr.alpha, nx, ny)

        if closed_at is not None:
            tr.status = TrajectoryStatus.TRAPPED_DAISY
            tr.status_time = tr.t
            _replay_daisy(tr, closed_at)
            break

        tr.run.append((b_signed, n_phase, tr.t, tr.x, tr.y, tr.alpha))

    if tr.cursor < len(tr.sample_times):
        # stragglers within rounding distance of t_max
        tr.sample_positions[tr.cursor:] = tr.x, tr.y
        tr.cursor = len(tr.sample_times)
    return tr


def _replay_daisy(tr: Trajectory, closed_at: int):
    """Fill remaining samples by cycling the detected periodic flower."""
    cycle = list(tr.run)[closed_at:]
    durations = []
    for i, leaf in enumerate(cycle):
        t_next = cycle[i + 1][2] if i + 1 < len(cycle) else tr.t
        durations.append(t_next - leaf[2])
    period = sum(durations)
    remaining_idx = range(tr.cursor, len(tr.sample_times))
    targets = list(tr.sample_times[tr.cursor:]) + [tr.t_max]
    out = []
    for st in targets:
        rel = math.fmod(st - tr.t, period) if period > 0 else 0.0
        k = 0
        while k < len(durations) - 1 and rel > durations[k]:
            rel -= durations[k]
            k += 1
        x_k, y_k, alpha_k = cycle[k][3:]
        out.append(advance_free(x_k, y_k, alpha_k, tr.b, max(rel, 0.0)))
    for j, i in enumerate(remaining_idx):
        tr.sample_positions[i] = out[j][:2]
    tr.cursor = len(tr.sample_times)
    tr.x, tr.y, tr.alpha = out[-1]
    tr.t = tr.t_max


def _draw_start(field_, rng) -> tuple[float, float, float]:
    """Admissible ``(x, y, angle)``: uniform in one cell, uniform angle."""
    s = field_.cell_size
    for _ in range(10_000):
        x, y = (rng.random(2) * s).tolist()
        if is_admissible_start(field_, (x, y)):
            return x, y, rng.uniform(0.0, TWO_PI)
    raise RuntimeError("could not draw an admissible start")


def _replica_chunk(args):
    """Run replicas ``lo..hi-1`` of one rung; one record per replica.

    A record is ``(squared displacements at the sample times, status,
    status time, any recollision, any near miss)``, or None when the
    replica aborts on the event cap.
    """
    (params, seed, field_key, start_key, lo, hi, sample_times, t_max,
     max_events) = args
    records = []
    for r in range(lo, hi):
        field_ = ObstacleField(_rng.mix(seed, *field_key, r), params)
        rng = _rng.generator(seed, _rng.STREAM_START, *start_key, r)
        start = _draw_start(field_, rng)
        try:
            out = simulate_trajectory(field_, start, t_max, sample_times,
                                      max_events=max_events)
        except ChatteringError:
            records.append(None)
            continue
        dx, dy = (out.sample_positions - start[:2]).T
        recollided = any(ev.kind is EventKind.RECOLLISION for ev in out.events)
        records.append(((dx * dx + dy * dy).tolist(), out.status,
                        out.status_time, recollided, out.near_miss))
        del out  # the run holds its field: free the cells before the next
    return records


def _run_replicas(rungs, n_replicas: int, sample_times, t_max: float,
                  seed: int, workers: int, max_events: int):
    """Records of replicas ``0..n_replicas-1`` of every rung, rung by rung.

    A rung is ``(params, field key, start key)``: its replica ``r`` runs in
    the field ``mix(seed, *field key, r)`` from a start drawn from
    ``generator(seed, STREAM_START, *start key, r)``, so the records do not
    depend on ``workers``.  The chunks of all rungs share one process pool,
    no larger than ``workers``, the number of chunks or the CPU count.
    """
    per = (max(1, math.ceil(n_replicas / workers / 4)) if workers > 1
           else n_replicas)
    args = [(params, seed, field_key, start_key, lo, min(lo + per, n_replicas),
             sample_times, t_max, max_events)
            for params, field_key, start_key in rungs
            for lo in range(0, n_replicas, per)]
    if workers > 1 and len(args) > 1:
        size = min(workers, len(args), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size) as pool:
            chunks = list(pool.map(_replica_chunk, args))
    else:
        chunks = [_replica_chunk(a) for a in args]
    per_rung = len(chunks) // len(rungs)
    return [list(itertools.chain.from_iterable(chunks[i:i + per_rung]))
            for i in range(0, len(chunks), per_rung)]


@dataclass(frozen=True)
class MsdResult:
    time_grid: np.ndarray
    msd: np.ndarray
    msd_se: np.ndarray
    circling_fraction: np.ndarray
    n_replicas: int
    n_aborted: int


def msd_estimate(params: ScalingParams, n_replicas: int, time_grid, seed: int,
                 workers: int = 1, max_events: int = DEFAULT_MAX_EVENTS
                 ) -> MsdResult:
    """Mean squared displacement over independent fields and starts.

    Replicas that end up circling or trapped stay in the average (their
    displacement saturates); their cumulative fraction is reported per
    time-grid row.  Aborted (chattering) replicas are dropped and counted;
    ``ChatteringError`` is raised when fewer than 2 replicas are left, too
    few for a standard error.
    """
    time_grid = np.asarray(time_grid, dtype=float)
    if n_replicas < 2 or len(time_grid) == 0:
        raise ValueError("need at least 2 replicas and one time point")
    [records] = _run_replicas([(params, (0xF1E1D,), ())], n_replicas,
                              time_grid, float(time_grid[-1]), seed, workers,
                              max_events)
    sq = np.full((n_replicas, len(time_grid)), np.nan)
    nonwander = np.full(n_replicas, np.inf)
    for r, rec in enumerate(records):
        if rec is None:
            continue
        sq[r] = rec[0]
        if rec[1] is not TrajectoryStatus.COMPLETED:
            nonwander[r] = rec[2]
    ok = ~np.isnan(sq[:, 0])
    n_ok = int(np.count_nonzero(ok))
    if n_ok < 2:
        aborted = "all" if n_ok == 0 else f"{n_replicas - n_ok} of"
        raise ChatteringError(
            f"{aborted} {n_replicas} replicas at eps={params.eps:g} reached "
            f"max_events={max_events}, fewer than 2 left to average")
    msd = np.nanmean(sq, axis=0)
    msd_se = np.nanstd(sq, axis=0, ddof=1) / math.sqrt(n_ok)
    circ = np.array([np.mean(nonwander[ok] <= t) for t in time_grid])
    return MsdResult(time_grid, msd, msd_se, circ, n_replicas,
                     n_replicas - n_ok)


@dataclass(frozen=True)
class EventRateRow:
    eps: float
    eta: float
    p_recollision: float
    p_recollision_se: float
    p_interference: float
    p_interference_se: float
    p_daisy: float
    p_daisy_se: float
    p_circling: float
    p_circling_se: float
    n_aborted: int


@dataclass(frozen=True)
class EventRateResult:
    rows: list
    exponents: dict

    def probabilities(self, name: str) -> np.ndarray:
        return np.array([getattr(r, "p_" + name) for r in self.rows])


def _fit_exponent(eps: np.ndarray, p: np.ndarray) -> float:
    """Least-squares power-law exponent of p against eps (positive entries)."""
    keep = p > 0.0
    if np.count_nonzero(keep) < 2:
        return math.nan
    slope = np.polyfit(np.log(eps[keep]), np.log(p[keep]), 1)[0]
    return float(slope)


def event_rate_study(eps_list, eta_rule, mu: float, b_magnitude: float,
                     t: float, n_replicas: int, seed: int, workers: int = 1,
                     max_events: int = DEFAULT_MAX_EVENTS) -> EventRateResult:
    """Empirical event probabilities across a decreasing radius ladder.

    ``eta_rule`` maps each radius to its divergence factor: a constant or a
    callable.  Aborted (chattering) replicas are dropped and counted per
    radius; ``ChatteringError`` is raised when every replica of a radius
    aborts.  Power-law exponents are fitted on the positive probabilities
    of each event class (NaN when fewer than two radii show the event).
    The interference probability counts near misses, which only arcs have,
    so ``b_magnitude`` must be positive.
    """
    if not b_magnitude > 0.0:
        raise ValueError("the event rate study needs a field, b_magnitude > 0")
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if np.any(eps_arr <= 0.0) or np.any(eps_arr >= 1.0):
        raise ValueError("radii must lie in (0, 1)")
    if np.any(np.diff(eps_arr) >= 0.0):
        raise ValueError("radius ladder must be strictly decreasing")
    etas = [float(eta_rule(eps)) if callable(eta_rule) else float(eta_rule)
            for eps in eps_arr]
    rungs = [(scaling_from(eps, mu, eta, b_magnitude), (0xE5, i), (i,))
             for i, (eps, eta) in enumerate(zip(eps_arr, etas))]
    records = _run_replicas(rungs, n_replicas, (), t, seed, workers,
                            max_events)
    rows = []
    for eps, eta, recs in zip(eps_arr, etas, records):
        kept = [rec for rec in recs if rec is not None]
        if not kept:
            raise ChatteringError(
                f"all {n_replicas} replicas at eps={eps:g} reached "
                f"max_events={max_events}")
        flags = np.array(
            [(recollided, near_miss, status is TrajectoryStatus.TRAPPED_DAISY,
              status is TrajectoryStatus.CIRCLING_FOREVER)
             for _, status, _, recollided, near_miss in kept],
            dtype=np.int8).reshape(-1, 4)
        p = flags.mean(axis=0)
        se = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / len(kept))
        rows.append(EventRateRow(eps, eta, p[0], se[0], p[1], se[1],
                                 p[2], se[2], p[3], se[3],
                                 n_replicas - len(kept)))
    result = EventRateResult(rows, {})
    for name in ("recollision", "interference", "daisy", "circling"):
        result.exponents[name] = _fit_exponent(eps_arr,
                                               result.probabilities(name))
    return result

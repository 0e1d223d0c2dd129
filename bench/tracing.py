"""Spans recorded from outside the program, and the per-layer metrics.

``Tracer.install()`` replaces each public function listed in ``TARGETS`` by
a wrapper that records a span (name, start, end, parent span) around the
call.  The program itself is not modified.  Spans stay in memory and are
written out by ``Tracer.save()`` when the run ends.

Functions that ``lorentz_sim`` imports by value (``is_admissible_start``,
``advance_free``) are wrapped in ``lorentz_sim``'s namespace, where the
caller looks them up; wrapping them in their home module would record
nothing.  ``Tracer.missing()`` guards against exactly that: a workload's
expected span with zero calls fails the traced run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

# (span name, owner of the attribute under maglorentz, attribute).  The
# layer of a span is the text before its first dot.
TARGETS = (
    ("cli.validate", "cli", "validate"),
    ("cli.run", "cli", "run"),
    ("lorentz_sim.simulate_trajectory", "lorentz_sim", "simulate_trajectory"),
    ("medium.ObstacleField.cell_points", "medium.ObstacleField", "cell_points"),
    ("medium.is_admissible_start", "lorentz_sim", "is_admissible_start"),
    ("medium.empty_annulus_probability_mc", "medium",
     "empty_annulus_probability_mc"),
    ("_rng.generator", "_rng", "generator"),
    ("geometry.advance_free", "lorentz_sim", "advance_free"),
    ("boltzmann_process.green_kubo_mc", "boltzmann_process", "green_kubo_mc"),
    ("boltzmann_process.circling_fraction_mc", "boltzmann_process",
     "circling_fraction_mc"),
    ("operators.build_LG", "operators", "build_LG"),
    ("operators.memory_mode_table", "operators", "memory_mode_table"),
    ("operators.deflection_cosine_moments", "operators",
     "deflection_cosine_moments"),
    ("kinetic_solver.solve", "kinetic_solver", "solve"),
    ("kinetic_solver.step", "kinetic_solver", "step"),
    ("kinetic_solver.KineticModel.propagate", "kinetic_solver.KineticModel",
     "propagate"),
    ("kinetic_solver.KineticModel.collision_rhs", "kinetic_solver.KineticModel",
     "collision_rhs"),
)


def _owner(path: str):
    module, _, attr = path.partition(".")
    owner = importlib.import_module("maglorentz." + module)
    return getattr(owner, attr) if attr else owner


# -- counters taken from arguments and results at the span boundary ----------

def _count_trajectory(counts, args, kwargs, out):
    counts["events"] += len(out.events)
    counts["status:" + out.status.value] += 1


def _count_cell(counts, args, kwargs, out):
    counts["points"] += len(out)
    counts["nonempty_cells"] += len(out) > 0


def _count_annulus(counts, args, kwargs, out):
    counts["annulus_samples"] += args[2]


def _count_green_kubo(counts, args, kwargs, out):
    counts["gk_path_points"] += out.n_paths * len(out.t_grid)


def _count_step(counts, args, kwargs, out):
    counts["step_dof"] = max(counts["step_dof"], out.values_hat.size)


def _count_solve(counts, args, kwargs, out):
    counts["history_bytes"] = max(counts["history_bytes"],
                                  out.final.history.buf.nbytes)


HOOKS = {
    "lorentz_sim.simulate_trajectory": _count_trajectory,
    "medium.ObstacleField.cell_points": _count_cell,
    "medium.empty_annulus_probability_mc": _count_annulus,
    "boltzmann_process.green_kubo_mc": _count_green_kubo,
    "kinetic_solver.step": _count_step,
    "kinetic_solver.solve": _count_solve,
}


class Tracer:
    """In-memory span recorder for one traced run (one ``run_id``).

    Span storage is allocated once, up front, in arrays large enough that
    glibc maps them outside the heap, so recording spans leaves the
    program's heap alone.  Growing buffers on the heap changed the
    program's allocation pattern: on arc-ladder they halved its system
    (page-fault) time and made traced passes 20% faster than untraced ones.
    """

    CAPACITY = 1 << 23  # spans; pages are only touched when used

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_idx = np.zeros(self.CAPACITY, dtype=np.uint16)
        self._parent = np.zeros(self.CAPACITY, dtype=np.int64)
        self._start = np.zeros(self.CAPACITY)
        self._end = np.zeros(self.CAPACITY)
        self.n = 0
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._moments_info = None

    def wrap(self, name: str, fn, hook=None):
        """``fn`` wrapped so that every call records a span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        name_idx, parent = memoryview(self._name_idx), memoryview(self._parent)
        start, end = memoryview(self._start), memoryview(self._end)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            i = self.n
            self.n = i + 1  # IndexError below once CAPACITY spans are used
            name_idx[i] = nid
            parent[i] = stack[-1] if stack else -1
            stack.append(i)
            start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"raised:{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every target; ``uninstall()`` puts the originals back."""
        moments = _owner("operators").deflection_cosine_moments
        self._moments_info = (moments, moments.cache_info())
        for name, path, attr in TARGETS:
            owner = _owner(path)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, HOOKS.get(name)))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        moments, before = self._moments_info
        after = moments.cache_info()
        self.counts["moments_hits"] = after.hits - before.hits
        self.counts["moments_misses"] = after.misses - before.misses

    def arrays(self):
        """(name index, parent, start, end) of the recorded spans."""
        n = self.n
        return (self._name_idx[:n], self._parent[:n], self._start[:n],
                self._end[:n])

    def calls(self) -> dict[str, int]:
        counts = np.bincount(self.arrays()[0], minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def missing(self, expected) -> list[str]:
        """Expected span names that recorded no call."""
        calls = self.calls()
        return [name for name in expected if calls.get(name, 0) == 0]

    def save(self, path):
        name_idx, parent, start, end = self.arrays()
        np.savez(path, run_id=self.run_id, names=np.array(self.names),
                 name_idx=name_idx, parent=parent, start=start, end=end)


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the part of it covered by its children.

    Children may overlap each other; their union is clipped to the parent.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    covered = np.zeros(len(start))
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    s, e = start.tolist(), end.tolist()
    current, reach = -1, 0.0
    for c, p in zip(kids.tolist(), parent[kids].tolist()):
        if p != current:
            current, reach = p, s[p]
        lo = max(s[c], reach)
        hi = min(e[c], e[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with 10 samples above.

    Zeros when fewer than 11 samples exist.
    """
    n = len(values)
    if n < 11:
        return 0.0, 0.0, n
    return float(np.sort(values)[n - 11]), 100.0 * (n - 10) / n, n


# Per-layer metrics in report order: (name, unit).  BENCHMARK.json lists the
# same names; a metric a workload does not exercise reads 0.
PER_LAYER = (
    ("rng.generators", "count"), ("rng.generator_us", "us"),
    ("rng.self_s", "s"),
    ("medium.cells", "count"), ("medium.points", "count"),
    ("medium.nonempty_ratio", "ratio"), ("medium.cell_us", "us"),
    ("medium.self_s", "s"), ("medium.admissible_calls", "count"),
    ("medium.admissible_s", "s"), ("medium.annulus_samples_per_s", "1/s"),
    ("lorentz_sim.replicas", "count"), ("lorentz_sim.events", "count"),
    ("lorentz_sim.self_s", "s"), ("lorentz_sim.event_us", "us"),
    ("lorentz_sim.replica_ms.p50", "ms"), ("lorentz_sim.replica_ms.tail", "ms"),
    ("lorentz_sim.replica_ms.tail_pct", "%"),
    ("lorentz_sim.replica_ms.n", "count"),
    ("lorentz_sim.aborted_frac", "ratio"), ("lorentz_sim.circling_frac", "ratio"),
    ("lorentz_sim.trapped_frac", "ratio"),
    ("lorentz_sim.pool_efficiency", "ratio"),
    ("geometry.advance_free_calls", "count"), ("geometry.self_s", "s"),
    ("boltzmann_process.gk_s", "s"),
    ("boltzmann_process.gk_ns_per_path_point", "ns"),
    ("boltzmann_process.circling_s", "s"),
    ("operators.builds", "count"), ("operators.build_ms", "ms"),
    ("operators.moments_calls", "count"), ("operators.moments_s", "s"),
    ("operators.moments_cache_hit_ratio", "ratio"),
    ("kinetic_solver.steps", "count"), ("kinetic_solver.step_us.p50", "us"),
    ("kinetic_solver.step_us.tail", "us"),
    ("kinetic_solver.step_us.tail_pct", "%"),
    ("kinetic_solver.step_us.n", "count"),
    ("kinetic_solver.step_ns_per_dof", "ns"),
    ("kinetic_solver.propagate_s", "s"), ("kinetic_solver.collision_rhs_s", "s"),
    ("kinetic_solver.step_self_s", "s"), ("kinetic_solver.history_mb", "MB"),
    ("cli.validate_ms", "ms"), ("cli.self_s", "s"), ("cli.bytes_out", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``lorentz_sim.pool_efficiency`` and ``trace.overhead_frac`` compare
    whole passes and are filled in by the caller.
    """
    name_idx, parent, start, end = tracer.arrays()
    dur = end - start
    n = len(tracer.names)
    calls = dict(zip(tracer.names, np.bincount(name_idx, minlength=n).tolist()))
    total = dict(zip(tracer.names, np.bincount(name_idx, dur, n).tolist()))
    own = dict(zip(tracer.names,
                   np.bincount(name_idx, self_times(parent, start, end), n).tolist()))
    c = tracer.counts

    def durations(name, scale):
        return dur[name_idx == tracer.names.index(name)] * scale

    def mean(name, scale):
        return _ratio(total[name] * scale, calls[name])

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)

    replicas = calls["lorentz_sim.simulate_trajectory"]
    replica_ms = durations("lorentz_sim.simulate_trajectory", 1e3)
    replica_tail = tail(replica_ms)
    step_us = durations("kinetic_solver.step", 1e6)
    step_tail = tail(step_us)
    cells = calls["medium.ObstacleField.cell_points"]
    lorentz_self = layer_self("lorentz_sim")
    gk_s = total["boltzmann_process.green_kubo_mc"]
    moments_lookups = c["moments_hits"] + c["moments_misses"]
    return {
        "rng.generators": calls["_rng.generator"],
        "rng.generator_us": mean("_rng.generator", 1e6),
        "rng.self_s": layer_self("_rng"),
        "medium.cells": cells,
        "medium.points": c["points"],
        "medium.nonempty_ratio": _ratio(c["nonempty_cells"], cells),
        "medium.cell_us": mean("medium.ObstacleField.cell_points", 1e6),
        "medium.self_s": layer_self("medium"),
        "medium.admissible_calls": calls["medium.is_admissible_start"],
        "medium.admissible_s": total["medium.is_admissible_start"],
        "medium.annulus_samples_per_s": _ratio(
            c["annulus_samples"], total["medium.empty_annulus_probability_mc"]),
        "lorentz_sim.replicas": replicas,
        "lorentz_sim.events": c["events"],
        "lorentz_sim.self_s": lorentz_self,
        "lorentz_sim.event_us": _ratio(lorentz_self * 1e6, c["events"]),
        "lorentz_sim.replica_ms.p50": float(np.median(replica_ms)) if replicas else 0.0,
        "lorentz_sim.replica_ms.tail": replica_tail[0],
        "lorentz_sim.replica_ms.tail_pct": replica_tail[1],
        "lorentz_sim.replica_ms.n": replica_tail[2],
        "lorentz_sim.aborted_frac": _ratio(
            c["raised:lorentz_sim.simulate_trajectory:ChatteringError"], replicas),
        "lorentz_sim.circling_frac": _ratio(c["status:circling_forever"], replicas),
        "lorentz_sim.trapped_frac": _ratio(c["status:trapped_daisy"], replicas),
        "lorentz_sim.pool_efficiency": 0.0,
        "geometry.advance_free_calls": calls["geometry.advance_free"],
        "geometry.self_s": layer_self("geometry"),
        "boltzmann_process.gk_s": gk_s,
        "boltzmann_process.gk_ns_per_path_point": _ratio(gk_s * 1e9, c["gk_path_points"]),
        "boltzmann_process.circling_s": total["boltzmann_process.circling_fraction_mc"],
        "operators.builds": calls["operators.build_LG"],
        "operators.build_ms": mean("operators.build_LG", 1e3),
        "operators.moments_calls": calls["operators.deflection_cosine_moments"],
        "operators.moments_s": total["operators.deflection_cosine_moments"],
        "operators.moments_cache_hit_ratio": _ratio(c["moments_hits"], moments_lookups),
        "kinetic_solver.steps": len(step_us),
        "kinetic_solver.step_us.p50": float(np.median(step_us)) if len(step_us) else 0.0,
        "kinetic_solver.step_us.tail": step_tail[0],
        "kinetic_solver.step_us.tail_pct": step_tail[1],
        "kinetic_solver.step_us.n": step_tail[2],
        "kinetic_solver.step_ns_per_dof": _ratio(
            mean("kinetic_solver.step", 1e9), c["step_dof"]),
        "kinetic_solver.propagate_s": total["kinetic_solver.KineticModel.propagate"],
        "kinetic_solver.collision_rhs_s": total["kinetic_solver.KineticModel.collision_rhs"],
        "kinetic_solver.step_self_s": own["kinetic_solver.step"],
        "kinetic_solver.history_mb": c["history_bytes"] / 1e6,
        "cli.validate_ms": mean("cli.validate", 1e3),
        "cli.self_s": own["cli.run"],
        "cli.bytes_out": bytes_out,
        "trace.overhead_frac": 0.0,
    }

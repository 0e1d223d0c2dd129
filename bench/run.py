"""Benchmark of the maglorentz CLI experiments, end to end and per layer.

Usage::

    python3 bench/run.py --workload arc-ladder [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all        # every workload in turn

Each pass runs a workload's experiment calls (``cli.validate`` then
``cli.run``) in a fresh worker process, the way a user runs the CLI, and
checks the outputs.  Passes repeat until ``--seconds`` is used up (at least
two, so every digest is compared with a rerun of the same seed); timings
are medians over passes.  Set-up time is also sampled by a few workers that
stop right before the first experiment call.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced one-worker passes (plus a pass
at the workload's worker count when that is larger) and reports the
per-layer metrics of ``tracing.PER_LAYER``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run, with host details, goes to ``bench/out/``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170.0  # every worker is stopped by then; runs must end in 180 s
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# BLAS/OpenMP pools would otherwise size themselves to the host
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def host_info() -> dict:
    """Facts that make numbers from different hosts incomparable."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "commit": commit, "load_1m": os.getloadavg()[0],
    }


class Run:
    """Passes of one workload at one seed, and their aggregation."""

    def __init__(self, workload: str, seed: int | None, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workers = WORKLOADS[workload]["workers"]
        self.n_calls = len(WORKLOADS[workload]["calls"])
        self.work = OUT / "work"
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{name: "1" for name in THREAD_VARS})
        self.deadline = time.monotonic() + DEADLINE_S
        self.passes: list[dict] = []
        self.setups: list[float] = []

    def spawn(self, workers: int, traced: bool, setup_only: bool) -> dict | None:
        """Run one worker process; its result, or None if it failed."""
        index = len(self.passes) + len(self.setups)
        tag = f"{self.workload}-{index}"
        result_path = self.work / f"{tag}.json"
        result_path.unlink(missing_ok=True)
        job = {"workload": self.workload, "seed": self.seed, "workers": workers,
               "traced": traced, "setup_only": setup_only,
               "run_id": f"{self.workload}-seed{self.seed}-{index}",
               "result_path": str(result_path),
               "spans_path": str(OUT / f"spans-{self.workload}.npz"),
               "t_spawn": time.monotonic()}
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            cwd=self.work, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            log, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool
            log, _ = proc.communicate()
            log += "\nworker stopped at the run deadline"
        if proc.returncode == 0 and result_path.is_file():
            return json.loads(result_path.read_text())
        print(f"worker {tag} failed (exit {proc.returncode}):\n{log[-3000:]}",
              file=sys.stderr)
        return None

    def execute(self):
        self.work.mkdir(parents=True, exist_ok=True)
        began = time.monotonic()
        for _ in range(SETUP_PROBES):
            probe = self.spawn(self.workers, False, True)
            if probe is not None:
                self.setups.append(probe["setup_s"])
        # traced runs alternate which of the pair goes first
        pair = [(1, False), (1, True)]
        head = [(self.workers, False)] if self.workers > 1 else []
        min_cycles = 1 if self.trace else 2
        cycles = 0
        while True:
            started = time.monotonic()
            cycle = [(self.workers, False)]
            if self.trace:
                cycle = head + (pair if cycles % 2 == 0 else pair[::-1])
            for workers, traced in cycle:
                self.passes.append({"workers": workers, "traced": traced,
                                    "result": self.spawn(workers, traced, False)})
            cycles += 1
            now = time.monotonic()
            took = now - started
            if now + took > self.deadline:
                break
            if cycles >= min_cycles and now - began + took > self.seconds:
                break

    # -- aggregation -----------------------------------------------------------

    def outcome(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems): failed calls, with digest reruns."""
        attempted = failed = 0
        problems: list[str] = []
        reference: dict[str, dict] = {}
        for i, p in enumerate(self.passes):
            res = p["result"]
            attempted += self.n_calls
            if res is None:
                failed += self.n_calls
                problems.append(f"pass {i}: worker failed")
                continue
            for call in res["calls"]:
                errors = list(call["errors"])
                first = reference.setdefault(call["kind"], call["digests"])
                if call["digests"] != first:
                    errors.append("output digests differ from an earlier pass "
                                  "with the same seed")
                if errors:
                    failed += 1
                    problems.extend(f"pass {i} {call['kind']}: {e}" for e in errors)
        return attempted, failed, problems

    def _results(self, workers: int, traced: bool) -> list[dict]:
        return [p["result"] for p in self.passes
                if p["result"] is not None and p["workers"] == workers
                and p["traced"] == traced]

    @staticmethod
    def _wall(res: dict) -> float:
        return sum(call["seconds"] for call in res["calls"])

    def end_to_end(self) -> dict[str, float]:
        timed = self._results(self.workers, False)
        if not timed:
            return {}
        metrics = {
            "setup_s": statistics.median(
                self.setups + [r["setup_s"] for r in timed]),
            "wall_s": statistics.median(self._wall(r) for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        for i, (kind, _) in enumerate(WORKLOADS[self.workload]["calls"]):
            metrics[kind.replace("-", "_") + "_s"] = statistics.median(
                r["calls"][i]["seconds"] for r in timed)
        return metrics

    def per_layer(self) -> dict[str, float]:
        traced = self._results(1, True)
        base = self._results(1, False)
        if not traced or not base:
            return {}
        # median_low keeps each metric a value some pass measured
        layers = {name: statistics.median_low(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        base_wall = statistics.median(self._wall(r) for r in base)
        layers["trace.overhead_frac"] = statistics.median(
            self._wall(r) for r in traced) / base_wall - 1.0
        pooled = self._results(self.workers, False) if self.workers > 1 else []
        if pooled:
            layers["lorentz_sim.pool_efficiency"] = base_wall / (
                self.workers * statistics.median(self._wall(r) for r in pooled))
        return layers

    def missing_spans(self) -> list[str]:
        return sorted({name for r in self._results(1, True)
                       for name in r["missing_spans"]})

    def warnings(self) -> list[str]:
        return sorted({w for p in self.passes if p["result"]
                       for call in p["result"]["calls"] for w in call["warnings"]})


def run_workload(workload: str, seed: int | None, seconds: float,
                 trace: bool) -> int:
    host = host_info()
    run = Run(workload, seed, seconds, trace)
    run.execute()
    attempted, failed, problems = run.outcome()
    e2e = run.end_to_end()
    layers = run.per_layer() if trace else {}
    missing = run.missing_spans() if trace else []

    seed_text = "acceptance seeds" if seed is None else f"seed {seed}"
    print(f"== {workload} ({seed_text}, trace {int(trace)}): "
          f"{len(run.passes)} passes, {len(run.setups)} set-up probes")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:<40} {value:.6g} {units.get(name, 's')}")
    print(f"  {'failed_frac':<40} {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} calls)")
    for name, unit in PER_LAYER:
        if name in layers:
            print(f"  {name:<40} {layers[name]:.6g} {unit}")
    for w in run.warnings():
        print(f"  warning (not a failure): {w}")
    for problem in problems:
        print(f"  FAILED {problem}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "seconds": seconds, "host": host, "attempted": attempted,
              "failed": failed, "problems": problems, "end_to_end": e2e,
              "per_layer": layers, "warnings": run.warnings(),
              "passes": run.passes, "setup_probes": run.setups}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))

    if missing:
        print(f"error: wrapper coverage guard: {', '.join(missing)} recorded "
              f"zero calls on {workload}; a rename or a by-value import would "
              "make its layer read 0", file=sys.stderr)
        return 1
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": (layers if trace else e2e)[name], "unit": unit}
               for name, unit in wanted
               if name in (layers if trace else e2e)}
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of every generated config "
                             "(default: the acceptance seeds)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "maglorentz" / "__init__.py").is_file():
        print(f"error: no maglorentz sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status |= run_workload(name, args.seed, args.seconds, bool(args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())

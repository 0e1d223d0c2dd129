"""One pass of a workload in a fresh process; ``run.py`` starts it.

Usage: ``python3 bench/worker.py '<job json>'``.  The job names the
workload, seed, worker count, whether to trace, the parent's monotonic
clock reading just before the process was started (``t_spawn``) and the
file to write the result to.  The working directory receives the CLI
outputs.

Set-up is timed from ``t_spawn`` to the first experiment call, so it covers
interpreter start, imports and ``cli.validate``.  Each ``cli.run`` call is
timed on its own; output checks, digests and per-layer metrics are computed
after the last call, outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb * 1024 / 1e6


def run_pass(job: dict) -> dict:
    import workloads
    from maglorentz import cli

    tracer = None
    if job["traced"]:
        import tracing
        tracer = tracing.Tracer(job["run_id"])
        tracer.install()
    calls = [(kind, cli.validate(text, kind))
             for kind, text in workloads.configs(job["workload"], job["seed"])]
    result = {"setup_s": time.monotonic() - job["t_spawn"]}
    if job["setup_only"]:
        return result

    out_dir = Path(job["workload"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    records = []
    for kind, config in calls:
        rec = {"kind": kind, "errors": []}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                cli.run(config, str(out_dir / kind), job["workers"])
            except Exception:
                rec["errors"].append(traceback.format_exc())
            rec["seconds"] = time.perf_counter() - t0
        rec["warnings"] = sorted({f"{w.category.__name__}: {w.message}"
                                  for w in caught})
        records.append((rec, config))
    if tracer is not None:
        tracer.uninstall()
    result["peak_rss_mb"] = _peak_rss_mb()

    bytes_out = 0
    for rec, config in records:
        kind = rec["kind"]
        files = {p.name[len(kind):]: p.read_bytes()
                 for p in sorted(out_dir.glob(kind + "_*"))}
        rec["digests"] = {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}
        bytes_out += sum(len(v) for v in files.values())
        if not rec["errors"]:
            rec["errors"] = workloads.check_outputs(kind, config, files)
    result["calls"] = [rec for rec, _ in records]
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, bytes_out)
        result["missing_spans"] = tracer.missing(
            workloads.WORKLOADS[job["workload"]]["spans"])
        tracer.save(job["spans_path"])
    return result


def main(argv):
    job = json.loads(argv[1])
    bench = Path(__file__).resolve().parent
    # the checkout's sources come first, ahead of any installed copy
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    result = run_pass(job)
    Path(job["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Print the SHA-256 of every file the CLI writes for a fixed set of runs.

The runs are each config of ``test_cli.BASE_CONFIGS`` at ``--workers`` 1
and 3, and every call of every workload in ``bench/workloads.py`` (at its
own worker count and acceptance seeds).  A change meant to keep the outputs
byte-identical prints the same lines before and after it.  Run it from the
repository root against the package under test:

    PYTHONPATH=src python tests/cli_digests.py

Each line is ``<sha256>  <run>/<file>``; the output directory never enters
a file's bytes, so the lines do not depend on where the runs are written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]

from maglorentz.cli import main  # noqa: E402
from test_cli import BASE_CONFIGS  # noqa: E402
from workloads import WORKLOADS, configs  # noqa: E402


def runs():
    """(run name, kind, config text, workers) of every run, in order."""
    for kind, text in BASE_CONFIGS.items():
        for workers in (1, 3):
            yield f"base-{kind}-w{workers}", kind, text, workers
    for name in WORKLOADS:
        workers = WORKLOADS[name]["workers"]
        for i, (kind, text) in enumerate(configs(name)):
            yield f"bench-{name}-{i}-{kind}", kind, text, workers


def digests() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for run, kind, text, workers in runs():
            out = pathlib.Path(tmp, run)
            out.mkdir()
            cfg = out / "run.cfg"
            cfg.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([kind, "--config", str(cfg), "--out",
                             str(out / "run"), "--workers", str(workers)])
            if code != 0:
                raise SystemExit(f"{run}: exit code {code}")
            for path in sorted(out.glob("run_*")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {run}/{path.name}")
    return lines


if __name__ == "__main__":
    print("\n".join(digests()))

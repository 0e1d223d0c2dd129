"""Tests of the benchmark's own code: ``python3 -m pytest bench/test_bench.py``."""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ALL_SPANS = tuple(name for name, _, _ in tracing.TARGETS)

TINY = {
    "workers": 1,
    "calls": [
        ("scaling-study", {"eps_list": "4e-3, 2e-3", "mu": 1, "b": 1, "eta": 2,
                           "t": 1, "n_replicas": 4, "seed": 1}),
        ("msd", {"eps": 0.01, "mu": 1, "eta": 1, "t_grid": "0.5, 1.0",
                 "n_replicas": 3, "seed": 2}),
        ("green-kubo", {"mu": 1, "period": 1, "n_paths": 200, "t_cut": 1,
                        "dt_quad": 0.1, "seed": 3}),
        ("operator-sweep", {"mu": 1, "b_max": 1, "b_step": 0.5, "m_modes": 16,
                            "quadrature_order": 32}),
        ("kinetic", {"mu": 1, "b": 4, "eta": 2, "t_end": 0.05, "n_x": 1,
                     "n_v": 16}),
        ("circling", {"eps": 0.01, "mu": 0.25, "eta": 1, "b": 1,
                      "n_fields": 1000, "n_paths": 1000, "seed": 4}),
    ],
    "spans": ALL_SPANS,
}


def test_self_times_on_nested_tree():
    # 0 root [0, 10]; 1 a [1, 4] and 2 b [3, 6] overlap; 3 c [8, 12] runs
    # past its parent; 4 a1 [2, 3] is a child of a
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    own = tracing.self_times(parent, start, end)
    assert own.tolist() == [10.0 - 5.0 - 2.0, 2.0, 3.0, 4.0, 1.0]


def test_wrapped_spans_nest_and_self_times_add_up(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer("test")
    inner = tracer.wrap("mod.inner", lambda x: x + 1)
    outer = tracer.wrap("mod.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    name_idx, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name_idx] == ["mod.outer", "mod.inner",
                                                   "mod.inner"]
    assert parent.tolist() == [-1, 0, 0]
    own = tracing.self_times(parent, start, end)
    assert own.sum() == end[0] - start[0]
    assert tracer.calls() == {"mod.outer": 1, "mod.inner": 2}


def test_exceptions_are_counted_and_spans_closed():
    tracer = tracing.Tracer("test")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("mod.boom", boom)()
    assert tracer.counts["raised:mod.boom:ValueError"] == 1
    _, _, start, end = tracer.arrays()
    assert end[0] >= start[0] > 0.0


def test_coverage_guard_reports_spans_without_calls():
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert tracer.missing(["cli.run", "_rng.generator"]) == \
            ["cli.run", "_rng.generator"]
    finally:
        tracer.uninstall()


def test_install_restores_every_target():
    before = [tracing._owner(path).__dict__[attr]
              for _, path, attr in tracing.TARGETS]
    tracer = tracing.Tracer("test")
    tracer.install()
    tracer.uninstall()
    after = [tracing._owner(path).__dict__[attr]
             for _, path, attr in tracing.TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail(np.arange(10.0)) == (0.0, 0.0, 10)
    value, pct, n = tracing.tail(np.arange(1000.0))
    assert (value, pct, n) == (989.0, 99.0, 1000)


def _pass(tmp_path, traced):
    job = {"workload": "tiny", "seed": None, "workers": 1, "traced": traced,
           "setup_only": False, "run_id": "tiny", "t_spawn": time.monotonic(),
           "spans_path": str(tmp_path / "spans.npz")}
    return worker.run_pass(job)


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.chdir(tmp_path)
    plain = _pass(tmp_path, traced=False)
    traced = _pass(tmp_path, traced=True)
    assert [c["kind"] for c in plain["calls"]] == [k for k, _ in TINY["calls"]]
    for a, b in zip(plain["calls"], traced["calls"]):
        assert a["digests"] and a["digests"] == b["digests"], a["kind"]
    # every wrapped function ran, so the guard is quiet and the spans saved
    assert traced["missing_spans"] == []
    assert set(traced["layers"]) == {name for name, _ in tracing.PER_LAYER}
    saved = np.load(tmp_path / "spans.npz")
    assert str(saved["run_id"]) == "tiny" and len(saved["start"]) > 0


def test_seed_changes_only_seed_keys():
    for name in workloads.WORKLOADS:
        default = workloads.configs(name)
        seeded = workloads.configs(name, 12345)
        assert seeded == workloads.configs(name, 12345)
        assert [k for k, _ in default] == [k for k, _ in seeded]
        for (_, a), (_, b) in zip(default, seeded):
            for line_a, line_b in zip(a.splitlines(), b.splitlines(),
                                      strict=True):
                if line_a.startswith("seed ="):
                    assert line_b == "seed = 12345"
                else:
                    assert line_a == line_b


def test_msd_check_floors_the_standard_error():
    config = {"mu": 1.0}
    summary = json.dumps({"results": {"n_replicas": 20, "n_aborted": 0}})
    header = b"t,msd,msd_se,circling_frac\n"
    # reported se is tiny, but 22 is within 4 * 30/sqrt(20) of 30; 60 is not
    near = {"_summary.json": summary.encode(),
            "_msd.csv": header + b"40,22,0.5,0\n"}
    far = {"_summary.json": summary.encode(),
           "_msd.csv": header + b"40,60,2,0\n"}
    assert workloads.check_outputs("msd", config, near) == []
    assert workloads.check_outputs("msd", config, far)
    assert workloads.check_outputs("msd", config, {})[0].startswith("malformed")


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)

"""Tests for the benchmark's own logic: output checks, span arithmetic,
import-time parsing, span wrapping and metric names.

    python3 -m pytest perfbench
"""
import importlib
import json
import os
import re

import run
import tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = run.Workload("tiny", ("simulate",), ("grid:2x2",), 3 * 2, ("trace.csv", "summary.csv"),
                    {"trace.csv": 3, "summary.csv": 2, "stdout": 1})


def _outputs():
    return {"stdout": b"node 0\n",
            "trace.csv": b"round,node,clock\n0,0,0.25\n1,0,0.5\n",
            "summary.csv": b"node,min\n0,0.25\n"}


def test_output_check_catches_one_byte_change_in_trace_csv():
    good = _outputs()
    digest, problems = run.check_outputs(TINY, 5, good, None, {})
    assert problems == []
    golden = {"sha256": digest}
    assert run.check_outputs(TINY, run.DEFAULT_SEED, good, digest, golden)[1] == []

    bad = dict(good)
    bad["trace.csv"] = good["trace.csv"].replace(b"0.25", b"0.26")
    # another seed: caught by byte identity with the run's first invocation
    assert run.check_outputs(TINY, 5, bad, digest, {})[1] == [
        "outputs differ from the run's first invocation"]
    # the default seed: caught by the golden even without a reference
    assert run.check_outputs(TINY, run.DEFAULT_SEED, bad, None, golden)[1] == [
        "trace.csv: sha256 differs from the golden"]


def test_output_check_counts_lines_and_steady_values():
    short = dict(_outputs(), **{"trace.csv": b"round,node,clock\n0,0,0.25\n"})
    assert run.check_outputs(TINY, 5, short, None, {})[1] == [
        "trace.csv: 2 lines, expected 3"]

    steady = run.Workload("s", (), (), 2, (), {"stdout": 1})
    golden = {"values": [0.003, 0.004]}
    near = {"stdout": b"0.0030000000001, 0.004\n"}
    assert run.check_outputs(steady, 7, near, None, golden)[1] == []
    far = {"stdout": b"0.003, 0.00400001\n"}
    assert run.check_outputs(steady, 7, far, None, golden)[1] == [
        "stdout: steady-state values differ from the golden"]


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1, False),
        ("harness.run", 1.0, 4.0, 0, False),
        ("kernels.run_rounds", 1.5, 2.5, 1, False),
        ("harness.write_trace_csv", 5.0, 9.0, 0, False),
        ("harness.scaling_sweep", 6.0, 7.0, 3, True),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]

    record = {"spans": spans, "counts": dict.fromkeys(tracer.COUNT_NAMES, 0)}
    record["counts"]["harness.run_nodes"] = 4
    metrics = tracer.layer_metrics(record, [])
    assert metrics["cli.main.self_s"] == (3.0, "s")
    assert metrics["harness.run.self_s"] == (2.0, "s")
    assert metrics["kernels.run_rounds.s"] == (1.0, "s")
    assert metrics["kernels.run_rounds.calls"] == (1, "count")
    assert metrics["harness.errors"] == (1, "count")
    assert metrics["cli.errors"] == (0, "count")
    assert metrics["detector.filter_passes_per_node"] == (0.0, "ratio")
    trace_csv = b"round,node\n0,0\n1,0\n"
    metrics = tracer.layer_metrics(record, [], trace_csv)
    assert metrics["harness.trace_rows"] == (2, "count")
    assert metrics["harness.trace_bytes"] == (len(trace_csv), "bytes")


def test_import_seconds_counts_outermost_matching_modules():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy.linalg._misc",
        "import time:       200 |        300 |       scipy.linalg",
        "import time:       500 |        500 |       numpy",
        "import time:        50 |        850 |     hopsync.dynamics",
        "import time:        10 |        860 |   hopsync",
        "import time:        40 |        900 | hopsync.cli",
        "import time:        70 |         70 | scipy",
        "import time:        20 |         20 | json",
    ]
    assert tracer.import_seconds(lines, "hopsync") == 900e-6
    assert tracer.import_seconds(lines, "scipy") == 370e-6


def test_every_metric_name_is_well_formed_and_declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    sample = run.Sample(0, 2.0, 1.9, 60.0, b"", b"")
    end_to_end = run.end_to_end_metrics(run.WORKLOADS["halt_3x3"], [sample], [0.5])
    record = {"spans": [], "counts": dict.fromkeys(tracer.COUNT_NAMES, 0)}
    per_layer = set(tracer.layer_metrics(record, [])) | {"trace.overhead_s"}
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(end_to_end) == {m["name"] for m in declared["end_to_end"]}
    assert per_layer == {m["name"] for m in declared["per_layer"]}
    assert set(run.WORKLOADS) == {w["name"] for w in declared["workloads"]}


def test_recorder_wraps_callers_and_records_missing_names_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    monkeypatch.setattr(tracer, "WRAPS", tracer.WRAPS + (
        ("model.gone", "hopsync.model", "gone", "s", False),))
    cli = importlib.import_module("hopsync.cli")
    original = cli.generate_topology
    rec = tracer.Recorder()
    rec.install()
    try:
        assert cli.generate_topology is not original
        cli.generate_topology("grid:2x2")
    finally:
        rec.uninstall()
    assert cli.generate_topology is original
    assert rec.absent == ["model.gone"]
    assert [span[0] for span in rec.spans] == ["model.generate_topology"]

import csv
import hashlib
import math
import os
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopsync import harness
from hopsync.cli import main
from hopsync.detector import (DetectionEvent, detect, filter_response,
                              node_filter_input)
from hopsync.dynamics import steady_state_error
from hopsync.harness import (ConfigInvalid, RunTrace, SimConfig, SweepPoint,
                             SweepResult, initial_clocks, run,
                             run_error_recursion, scaling_sweep, summarize,
                             write_summary_csv, write_sweep_csv,
                             write_trace_csv)
from hopsync.model import (Topology, build_matrices, generate_topology,
                           grid_topology, has_spanning_path, line_topology,
                           random_topology)

GRID = grid_topology(4, 4)
# a seeded clustered-start run whose metrics mirror the reference experiment:
# instants 96-100, all minima below half a period, all 15 nodes firing
REFERENCE = dict(topology=GRID, delta_t=1e-3, n_max=500, seed=6,
                 init_min=0.43, init_max=0.53)


def test_config_defaults_and_validation():
    cfg = SimConfig(topology=GRID)
    assert cfg.init_max == 100 * cfg.delta_t
    assert cfg.n_max == 500 and cfg.p == 1.0
    with pytest.raises(ConfigInvalid):
        SimConfig(topology=GRID, delta_t=0.0)
    with pytest.raises(ConfigInvalid):
        SimConfig(topology=GRID, p=1.5)
    with pytest.raises(ConfigInvalid):
        SimConfig(topology=GRID, n_max=17)  # below k_guard + 7
    with pytest.raises(ConfigInvalid):
        SimConfig(topology=GRID, init_min=0.2, init_max=0.1)
    with pytest.raises(ConfigInvalid):
        SimConfig(topology=GRID, seed=-1)
    # round and seed counts must be whole numbers; integral floats are
    # stored as int
    for kwargs in (dict(n_max=100.5), dict(n_max="500"), dict(n_max=None),
                   dict(seed=2.5)):
        with pytest.raises(ConfigInvalid):
            SimConfig(topology=GRID, **kwargs)
    cfg = SimConfig(topology=GRID, n_max=100.0, seed=np.float64(3.0))
    assert (type(cfg.n_max), type(cfg.seed)) == (int, int)
    assert run(cfg).n_max == 100
    template = SimConfig(topology=grid_topology(2, 2), n_max=100)
    for seeds in (2.5, math.nan, "2"):
        with pytest.raises(ConfigInvalid):
            scaling_sweep([(2, 2)], template, seeds=seeds)
    assert (scaling_sweep([(2, 2)], template, seeds=2.0)
            == scaling_sweep([(2, 2)], template, seeds=2))


@pytest.mark.parametrize("field, value", [
    ("delta_t", math.nan), ("delta_t", math.inf), ("init_min", math.nan),
    ("init_min", -math.inf), ("init_max", math.nan), ("init_max", math.inf),
    ("n_max", math.nan), ("n_max", math.inf), ("seed", math.nan),
    ("seed", math.inf)])
def test_config_rejects_non_finite(field, value):
    kwargs = {"init_max": 1.0, field: value}
    with pytest.raises(ConfigInvalid):
        SimConfig(topology=GRID, **kwargs)


def test_config_rejects_overflow():
    # grid:2x2 has 3 ordinary nodes: max(|init_min|, |init_max|,
    # delta_t * n_max) may reach DBL_MAX / 11 and no further
    topo = grid_topology(2, 2)
    limit = sys.float_info.max / 11
    for kwargs in (dict(delta_t=1e306), dict(delta_t=limit / 400 * 1.001),
                   dict(init_min=-limit * 1.001),
                   dict(init_max=limit * 1.001, init_min=0.0)):
        with pytest.raises(ConfigInvalid):
            SimConfig(topology=topo, n_max=400, **kwargs)
    tr = run(SimConfig(topology=topo, n_max=400, delta_t=limit / 400 * 0.999,
                       p=0.5, halt_on_detect=True))
    assert np.all(np.isfinite(tr.times)) and np.all(np.isfinite(tr.errors))
    assert np.all(np.isfinite(tr.filter_outputs[3:-3]))
    # the sweep re-checks every size: 3x3 has 8 ordinary nodes
    template = SimConfig(topology=topo, n_max=400, delta_t=limit / 400 * 0.999)
    assert scaling_sweep([(2, 2)], template, seeds=2).points
    with pytest.raises(ConfigInvalid):
        scaling_sweep([(2, 2), (3, 3)], template, seeds=2)


def test_initial_clocks_seeded_range():
    cfg = SimConfig(topology=GRID, seed=5)
    t0 = initial_clocks(cfg)
    assert t0.shape == (15,)
    assert np.all((t0 >= 0.0) & (t0 <= 0.1))
    assert np.array_equal(t0, initial_clocks(cfg))
    assert not np.array_equal(t0, initial_clocks(SimConfig(topology=GRID,
                                                           seed=6)))


def test_run_deterministic_bitwise():
    cfg = SimConfig(topology=GRID, seed=9, p=0.6, n_max=200)
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.filter_outputs, b.filter_outputs, equal_nan=True)
    assert a.events == b.events


def test_trace_shapes_and_error_identity():
    cfg = SimConfig(topology=GRID, seed=2, n_max=120)
    tr = run(cfg)
    assert tr.times.shape == (121, 15)
    assert tr.errors.shape == (121, 15)
    assert tr.filter_outputs.shape == (121, 15)
    rounds = np.arange(121, dtype=np.float64)
    assert np.array_equal(tr.errors, cfg.delta_t * rounds[:, None] - tr.times)


def test_filter_outputs_window():
    cfg = SimConfig(topology=GRID, seed=2, n_max=120)
    tr = run(cfg)
    assert np.all(np.isnan(tr.filter_outputs[:3]))
    assert np.all(np.isnan(tr.filter_outputs[118:]))
    assert np.all(np.isfinite(tr.filter_outputs[3:118]))


def test_trace_matches_error_recursion_deterministic():
    for topo in (line_topology(3), grid_topology(3, 3)):
        cfg = SimConfig(topology=topo, seed=4, n_max=300)
        tr = run(cfg)
        ref = run_error_recursion(cfg)
        scale = max(np.max(np.abs(ref)), 1e-30)
        assert np.max(np.abs(tr.errors - ref)) / scale < 1e-9


def test_trace_matches_error_recursion_lossy():
    cfg = SimConfig(topology=GRID, seed=13, n_max=300, p=0.5)
    tr = run(cfg)
    ref = run_error_recursion(cfg)
    scale = max(np.max(np.abs(ref)), 1e-30)
    assert np.max(np.abs(tr.errors - ref)) / scale < 1e-9


def test_error_recursion_refuses_halting():
    # the dense recursion has no halting, so it cannot cross-check such a run
    cfg = SimConfig(topology=generate_topology("grid:3x3"), n_max=200, p=0.5,
                    halt_on_detect=True)
    with pytest.raises(ValueError, match="halt_on_detect"):
        run_error_recursion(cfg)


def test_single_node_constant_error_no_detection():
    cfg = SimConfig(topology=line_topology(2), delta_t=1.0, n_max=100, seed=0,
                    init_min=0.0, init_max=100.0)
    tr = run(cfg)
    assert np.all(tr.errors[1:, 0] == 1.0)
    assert tr.events == ()


def test_disconnected_flagged_but_simulated():
    topo = Topology(node_count=3, edges=((0, 3), (1, 2)))
    cfg = SimConfig(topology=topo, n_max=50)
    tr = run(cfg)
    assert not has_spanning_path(topo)
    assert tr.times.shape == (51, 3)


def test_reference_run_dip_structure():
    tr = run(SimConfig(**REFERENCE))
    ae = np.abs(tr.errors)
    mins = ae.min(axis=0)
    insts = ae.argmin(axis=0)
    ess = steady_state_error(build_matrices(GRID), 1e-3).ess
    assert insts.max() - insts.min() <= 10
    assert np.all(mins < 0.5e-3)
    assert np.all(mins < ess)


def test_reference_run_detections():
    tr = run(SimConfig(**REFERENCE))
    rows = summarize(tr)
    fired = [r for r in rows if r.detected_instant is not None]
    assert len(fired) >= 13
    ess = steady_state_error(build_matrices(GRID), 1e-3).ess
    for r in fired:
        assert r.detected_error_value <= ess[r.node_id]
        assert (r.min_error_instant - 2 <= r.detected_instant
                <= r.min_error_instant + 15)


def test_summary_semantics():
    tr = run(SimConfig(**REFERENCE))
    rows = summarize(tr)
    ae = np.abs(tr.errors)
    for r in rows:
        assert r.min_error_instant == int(ae[:, r.node_id].argmin())
        assert r.min_error_value == ae[r.min_error_instant, r.node_id]
        assert r.ss_error_instant == 500
        assert r.ss_error_value == ae[500, r.node_id]
        assert r.min_error_value <= r.ss_error_value
        if r.detected_instant is not None:
            assert r.detected_error_value == ae[r.detected_instant, r.node_id]
            assert r.min_error_value <= r.detected_error_value


def test_detection_at_min_instant_reads_min_value():
    # when the flagged instant coincides with the minimum instant the two
    # reported values are the same number
    hits = 0
    for seed in (6, 7, 18, 24):
        cfg = SimConfig(**{**REFERENCE, "seed": seed})
        for r in summarize(run(cfg)):
            if r.detected_instant == r.min_error_instant:
                assert r.detected_error_value == r.min_error_value
                hits += 1
    assert hits > 0


def test_no_detection_fields_absent():
    cfg = SimConfig(topology=line_topology(2), delta_t=1.0, n_max=100, seed=0,
                    init_max=100.0)
    rows = summarize(run(cfg))
    assert rows[0].detected_instant is None
    assert rows[0].detected_error_value is None


def test_halt_mode_freezes_and_prefix_matches():
    base = run(SimConfig(**REFERENCE))
    halt = run(SimConfig(**{**REFERENCE, "halt_on_detect": True}))
    first = min(e.detect_round for e in halt.events)
    assert np.array_equal(halt.times[:first + 1], base.times[:first + 1])
    for e in halt.events:
        col = halt.times[e.detect_round:, e.node_id]
        assert np.all(col == e.frozen_time)


def test_delta_t_doubling_keeps_instants():
    for dt in (1e-3,):
        small = run(SimConfig(topology=GRID, delta_t=dt, n_max=400, seed=3))
        big = run(SimConfig(topology=GRID, delta_t=2 * dt, n_max=400, seed=3))
        # power-of-two scaling is exact, so whole trajectories scale and
        # every per-node argmin and detection round is identical
        assert np.array_equal(big.times, 2.0 * small.times)
        im_s = np.abs(small.errors).argmin(axis=0)
        im_b = np.abs(big.errors).argmin(axis=0)
        assert np.array_equal(im_s, im_b)
        assert [e.target_round for e in big.events] == \
               [e.target_round for e in small.events]


def _oracle_sweep(sizes, template, seeds):
    """The original sweep: one full run() per (size, seed), then each run's
    node-average argmin of |e|; the line needs two distinct node counts."""
    points = []
    for rows, cols in sizes:
        topo = grid_topology(rows, cols, gateway="corner")
        vals = []
        for s in range(seeds):
            trace = run(replace(template, topology=topo,
                                seed=template.seed + s))
            vals.append(float(
                np.argmin(np.abs(trace.errors), axis=0).mean()))
        points.append(SweepPoint(node_count=rows * cols,
                                 instant_mean=float(np.mean(vals)),
                                 instant_min=float(np.min(vals)),
                                 instant_max=float(np.max(vals))))
    if len({p.node_count for p in points}) < 2:
        return SweepResult(tuple(points), None, None, None)
    x = np.array([p.node_count for p in points], dtype=np.float64)
    y = np.array([p.instant_mean for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = None if ss_tot == 0.0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return SweepResult(tuple(points), float(slope), float(intercept), r2)


SWEEP_TEMPLATES = {
    "lossy": dict(n_max=300, p=0.5, seed=3),
    "lossless": dict(n_max=300, p=1.0, seed=0, init_min=1.15, init_max=1.25),
    "halt": dict(n_max=400, p=0.7, seed=1, halt_on_detect=True),
}


@pytest.mark.parametrize("name", sorted(SWEEP_TEMPLATES))
def test_sweep_matches_per_seed_oracle(name):
    # all seeds of a size evolved as one batched state give the numbers
    # of one full run() per seed
    template = SimConfig(topology=grid_topology(2, 2),
                         **SWEEP_TEMPLATES[name])
    sizes = [(2, 2), (3, 3), (2, 4), (1, 5)]
    assert scaling_sweep(sizes, template, seeds=3) == \
        _oracle_sweep(sizes, template, 3)


# SHA-256 of sweep.csv as written by the per-seed sweep (one run() per seed),
# before the seeds of a size were evolved as one state.
SWEEP_RUNS = {
    "lossy": ([(2, 2), (3, 3), (2, 4), (4, 4)], 4,
              "4e00dfd34fc7b2e8dadb17a6d7b587c1fad271388460c55130bf5c73eb00df0f"),
    "halt": ([(2, 2), (3, 3), (4, 4)], 3,
             "e8c717c052b93940ca9080d7c8daad3bbbb8a53f04b2b168b64808abaada8500"),
}


@pytest.mark.parametrize("name", sorted(SWEEP_RUNS))
def test_sweep_csv_golden_hashes(tmp_path, name):
    sizes, seeds, digest = SWEEP_RUNS[name]
    template = SimConfig(topology=grid_topology(2, 2),
                         **SWEEP_TEMPLATES[name])
    write_sweep_csv(scaling_sweep(sizes, template, seeds=seeds),
                    tmp_path / "sweep.csv")
    data = (tmp_path / "sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name", ["lossy", "halt"])
def test_sweep_independent_of_block_size(monkeypatch, name):
    # one round per block against one block for the whole run
    template = SimConfig(topology=grid_topology(2, 2),
                         **SWEEP_TEMPLATES[name])
    sizes = [(2, 2), (3, 3)]
    results = []
    for cells in (1, 10**9):
        monkeypatch.setattr(harness, "_SWEEP_BLOCK_CELLS", cells)
        results.append(scaling_sweep(sizes, template, seeds=3))
    assert results[0] == results[1]


@pytest.mark.parametrize("sizes", [[(2, 2), (2, 2)], [(2, 8), (4, 4)]])
def test_sweep_fit_undefined_without_two_node_counts(sizes):
    # one node count gives no line: no slope, intercept or R^2, and no
    # warning from a degenerate least-squares fit
    template = SimConfig(topology=grid_topology(2, 2), n_max=100, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = scaling_sweep(sizes, template, seeds=2)
    assert (result.slope, result.intercept, result.r_squared) == \
        (None, None, None)
    assert len(result.points) == len(sizes)


def test_sweep_single_size_r2_undefined():
    template = SimConfig(topology=grid_topology(2, 2), n_max=300, seed=0)
    result = scaling_sweep([(2, 2)], template, seeds=2)
    assert result.r_squared is None and result.slope is None
    assert len(result.points) == 1


def test_sweep_point_fields():
    template = SimConfig(topology=grid_topology(2, 2), n_max=300, seed=0)
    result = scaling_sweep([(2, 2), (3, 3)], template, seeds=3)
    for p in result.points:
        assert p.instant_min <= p.instant_mean <= p.instant_max
    assert result.points[0].node_count == 4
    assert result.points[1].node_count == 9
    assert result.r_squared is not None


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_trace_csv_and_summary_take_n_from_the_arrays(tmp_path):
    # a trace with no config is written from its arrays alone: every
    # (round, node) cell of the 10 x 5 arrays, 5 summary rows
    t = np.arange(50.).reshape(10, 5)
    trace = RunTrace(config=None, times=t, errors=t, filter_outputs=t,
                     events=())
    write_trace_csv(trace, tmp_path / "trace.csv")
    rows = _read_csv(tmp_path / "trace.csv")[1:]
    assert [(int(r[0]), int(r[1]), float(r[2])) for r in rows] == [
        (r, i, t[r, i]) for r in range(10) for i in range(5)]
    summaries = summarize(trace)
    assert [s.node_id for s in summaries] == list(range(5))
    for s in summaries:
        col = [abs(float(r[3])) for r in rows if int(r[1]) == s.node_id]
        assert s.min_error_value == min(col)
        assert s.min_error_instant == col.index(min(col))
        assert s.ss_error_value == col[-1]


def test_trace_csv_schema(tmp_path):
    cfg = SimConfig(**{**REFERENCE, "n_max": 60})
    tr = run(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    rows = _read_csv(path)
    assert rows[0] == ["round", "node", "clock", "error", "filter_out",
                       "detected"]
    assert len(rows) == 1 + 61 * 15
    # row for (round 0, node 0): filter output undefined there
    assert rows[1][0] == "0" and rows[1][1] == "0"
    assert rows[1][4] == ""
    assert float(rows[1][2]) == tr.times[0, 0]
    # detected column marks each event's flagged instant exactly once
    flagged = [(int(r[0]), int(r[1])) for r in rows[1:] if r[5] == "1"]
    assert sorted(flagged) == sorted(
        (e.target_round, e.node_id) for e in tr.events)


def test_summary_csv_schema(tmp_path):
    tr = run(SimConfig(**REFERENCE))
    rows_mem = summarize(tr)
    path = tmp_path / "summary.csv"
    write_summary_csv(rows_mem, path)
    rows = _read_csv(path)
    assert rows[0] == ["node", "min_error_instant", "min_error_value",
                       "ss_error_instant", "ss_error_value",
                       "detected_instant", "detected_error_value"]
    assert len(rows) == 16
    for mem, row in zip(rows_mem, rows[1:]):
        assert int(row[0]) == mem.node_id
        assert float(row[2]) == mem.min_error_value  # repr round-trips
        assert float(row[4]) == mem.ss_error_value


def test_summary_csv_empty_detection_fields(tmp_path):
    cfg = SimConfig(topology=line_topology(2), delta_t=1.0, n_max=100,
                    seed=0, init_max=100.0)
    path = tmp_path / "summary.csv"
    write_summary_csv(summarize(run(cfg)), path)
    rows = _read_csv(path)
    assert rows[1][5] == "" and rows[1][6] == ""


def test_sweep_csv_schema(tmp_path):
    template = SimConfig(topology=grid_topology(2, 2), n_max=300, seed=0)
    result = scaling_sweep([(2, 2), (3, 3)], template, seeds=2)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    rows = _read_csv(path)
    assert rows[0] == ["nodes", "instant_mean", "instant_min", "instant_max"]
    assert [int(r[0]) for r in rows[1:]] == [4, 9]
    assert float(rows[1][1]) == result.points[0].instant_mean


# SHA-256 of the CSVs as written by the original one-row-at-a-time
# csv.writer implementation; any change to the output bytes shows here.
GOLDEN_SHA256 = {
    "reference": {
        "trace.csv": "526de01e17debebe5292caaa3bb5668a71d8e77a27bb0c6260510ea4faefac0a",
        "summary.csv": "d443c565c0538d1cd9b35a97d714e03a54cee530cea86f07d935fc213d1ddb8b",
    },
    "halt": {
        "trace.csv": "b9640dc52e7a7add6458d89fdb4cc862ced4fc87183f9e7a5144d0e22918d0d8",
        "summary.csv": "94121294427e8eb579767c3e2ab91aaef125aa5cf4541a0fccade65a5393f3df",
    },
}


@pytest.mark.parametrize("name, halt", [("reference", False), ("halt", True)])
def test_csv_golden_hashes(tmp_path, name, halt):
    tr = run(SimConfig(**{**REFERENCE, "halt_on_detect": halt}))
    write_trace_csv(tr, tmp_path / "trace.csv")
    write_summary_csv(summarize(tr), tmp_path / "summary.csv")
    for fname, digest in GOLDEN_SHA256[name].items():
        data = (tmp_path / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, fname


# Lossy runs on other topologies, two of them halting, hashed before run()
# filtered and scanned for flips a block of rounds at a time.
MORE_RUNS = {
    "random7": (dict(topology=generate_topology("random:7:0.5", seed=0),
                     p=0.7),
                "60dd5a5163c9e92492a8df44d927f38d31347bd3741eb33222c734121c021bf4",
                "3c041db2159e4494be1de81e86f3a3b082b6d9aede7ca30eac033f14bf68bf36"),
    "ring6_halt": (dict(topology=generate_topology("ring:6"), p=0.6,
                        halt_on_detect=True),
                   "e8c7522ab7d78aa2f8f678be88609b99fc82527c9d6d9036178c32bc16f6a361",
                   "2a190bf48fb5afb0b8d7ad9177ee60dfe93a4dd1028f738c33ab6c5cd85e3066"),
    "line5_halt": (dict(topology=generate_topology("line:5"), p=0.6,
                        halt_on_detect=True),
                   "155373068b384d136b6dc19c7f9a49300bf6644507183cb2e66de1cd9c99e62e",
                   "7ba8a56c229e7301ad60acafea91d962526a24b2a11e934fa89ab3cba3c00b76"),
}


@pytest.mark.parametrize("name", sorted(MORE_RUNS))
def test_more_golden_hashes(tmp_path, name):
    kwargs, trace_digest, summary_digest = MORE_RUNS[name]
    tr = run(SimConfig(**kwargs))
    write_trace_csv(tr, tmp_path / "trace.csv")
    write_summary_csv(summarize(tr), tmp_path / "summary.csv")
    for fname, digest in (("trace.csv", trace_digest),
                          ("summary.csv", summary_digest)):
        data = (tmp_path / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, fname


# Long halting runs, hashed before the halting loop stopped at the round
# every node had halted and drew its masks a round at a time: on the grid all
# 8 nodes halt by round 20; on the line 2 of 5 halt, so the loop runs on to
# n_max.
HALT_RUNS = {
    "grid3x3_all_halt": (dict(topology=generate_topology("grid:3x3"), p=0.5),
                         8,
                         "39639c3f62492c905186a4ac1d2869911dfce720c77e213a9dcfe078848a1d5c",
                         "581fe87b0d076b9ef621323ee51d0c3b4eb63af5bb5f9cf12bf5656bfe0b6457"),
    "line6_some_halt": (dict(topology=generate_topology("line:6"), p=0.6),
                        2,
                        "50c690a14e29982de0c680806133ec8158b518af92ce75e4673d99596702ec34",
                        "f3281b24ff74047834f16b01d36c19c2f947821680a56bfdb8d81bea969c81fb"),
}


@pytest.mark.parametrize("name", sorted(HALT_RUNS))
def test_long_halting_golden_hashes(tmp_path, monkeypatch, name):
    kwargs, halts, trace_digest, summary_digest = HALT_RUNS[name]
    calls = []
    stepper = harness.run_rounds
    monkeypatch.setattr(harness, "run_rounds",
                        lambda *a, **k: calls.append(1) or stepper(*a, **k))
    tr = run(SimConfig(**kwargs, seed=0, n_max=3000, halt_on_detect=True))
    assert len(tr.events) == halts
    if halts == tr.config.topology.node_count:
        # no round is stepped after the last node halts
        assert len(calls) == max(e.detect_round for e in tr.events)
    else:
        assert len(calls) == 3000
    write_trace_csv(tr, tmp_path / "trace.csv")
    write_summary_csv(summarize(tr), tmp_path / "summary.csv")
    for fname, digest in (("trace.csv", trace_digest),
                          ("summary.csv", summary_digest)):
        data = (tmp_path / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, fname


def test_halting_run_draws_masks_ahead(monkeypatch):
    # a halting run steps one round a block but draws its masks a block of
    # rounds at a time, not a round at a time
    kwargs = HALT_RUNS["line6_some_halt"][0]
    cfg = SimConfig(**kwargs, seed=0, n_max=3000, halt_on_detect=True)
    calls = []
    draw = harness._mask_block
    monkeypatch.setattr(harness, "_mask_block",
                        lambda *a: calls.append(1) or draw(*a))
    run(cfg)
    step = max(1, harness._TRACE_BLOCK_ROWS // cfg.topology.node_count)
    assert len(calls) <= math.ceil(3000 / step) + 1


def _stream(cfg, step):
    """_rounds' clocks and filter outputs, joined over its blocks, and each
    node's first flip."""
    clocks, ys = [], []
    for _, block, _, _, y, first in harness._rounds(cfg, [cfg.seed], step,
                                                    detect=True):
        clocks.append(block)
        ys.append(y)
    return np.concatenate(clocks), np.concatenate(ys), first


def test_halting_stream_independent_of_mask_lookahead():
    # masks drawn a round at a time or run()'s block of rounds ahead
    cfg = SimConfig(**HALT_RUNS["line6_some_halt"][0], seed=0, n_max=1500,
                    halt_on_detect=True)
    step = max(1, harness._TRACE_BLOCK_ROWS // cfg.topology.node_count)
    one, ahead = _stream(cfg, 1), _stream(cfg, step)
    assert np.array_equal(one[0], ahead[0])
    assert np.array_equal(one[1], ahead[1], equal_nan=True)
    assert np.array_equal(one[2], ahead[2])
    assert (one[2] >= 0).any()


@pytest.mark.parametrize("kwargs", [
    REFERENCE,
    {**REFERENCE, "p": 0.6, "n_max": 900},
    {**REFERENCE, "halt_on_detect": True, "p": 0.8},
    dict(topology=grid_topology(9, 9), p=0.5, n_max=300, seed=3),
])
def test_events_equal_per_column_detect(kwargs):
    # the block-wise scan in run() fires where offline detect() fires on
    # each node's own series, in halting runs too
    cfg = SimConfig(**kwargs)
    tr = run(cfg)
    want = []
    for i in range(tr.config.topology.node_count):
        x = node_filter_input(tr.times[:, i], cfg.delta_t)
        event = detect(x, cfg.detector, node_id=i, clocks=tr.times[:, i])
        if event is not None:
            want.append(event)
    assert list(tr.events) == want


def _oracle_fmt(v) -> str:
    f = float(v)
    return "" if np.isnan(f) else repr(f)


def _oracle_write_trace_csv(trace, path):
    """The original writer, one csv.writer row per (round, node)."""
    flagged = {(e.target_round, e.node_id) for e in trace.events}
    n = trace.times.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "node", "clock", "error", "filter_out",
                    "detected"])
        for rnd in range(trace.n_max + 1):
            for i in range(n):
                w.writerow([rnd, i,
                            repr(float(trace.times[rnd, i])),
                            repr(float(trace.errors[rnd, i])),
                            _oracle_fmt(trace.filter_outputs[rnd, i]),
                            1 if (rnd, i) in flagged else 0])


# floats whose repr or CSV cell is easy to get wrong: NaN, signed zero,
# subnormals, exponent-form reprs, infinities
_AWKWARD = [math.nan, -0.0, 0.0, 5e-324, 1.5e-310, 1e-05, 1e-04, 1e16, 1e15,
            -1e16, 1.7976931348623157e308, math.inf, -math.inf, 0.1, -2.5]


def _trace_of(times, errors, filter_outputs, events=()):
    """A RunTrace of the (rounds, N) arrays given and an event at each
    (target_round, node_id) of ``events``; the writer reads only the arrays
    and events."""
    return RunTrace(
        config=None, times=times, errors=errors,
        filter_outputs=filter_outputs,
        events=tuple(DetectionEvent(node_id=i, target_round=r, frozen_time=0.0)
                     for r, i in sorted(events, key=lambda e: e[1])))


def _hand_trace(n, n_max, pool, seed, events):
    """A RunTrace over n nodes and n_max + 1 rounds whose cells are drawn
    from ``pool``."""
    rng = np.random.default_rng(seed)
    pool = np.array(pool, dtype=np.float64)
    cells = lambda: pool[rng.integers(len(pool), size=(n_max + 1, n))]
    return _trace_of(cells(), cells(), cells(), events)


def _hold_clocks(trace, held):
    """``trace`` with each clock where ``held`` is True replaced by the same
    node's clock in the round before, as a halted node's clock holds."""
    times = trace.times.copy()
    for r in range(1, len(times)):
        times[r, held[r]] = times[r - 1, held[r]]
    return replace(trace, times=times)


def _same_bytes_as_oracle(trace):
    with tempfile.TemporaryDirectory() as d:
        new, old = os.path.join(d, "new.csv"), os.path.join(d, "old.csv")
        write_trace_csv(trace, new)
        _oracle_write_trace_csv(trace, old)
        with open(new, "rb") as a, open(old, "rb") as b:
            return a.read() == b.read()


@st.composite
def hand_traces(draw):
    n = draw(st.sampled_from([1, 2, 3, 7, 900, 4097]))
    n_max = draw(st.integers(0, 3 if n > 4096 else 40))
    pool = _AWKWARD + draw(st.lists(st.floats(), max_size=8))
    nodes = draw(st.sets(st.integers(0, n - 1), max_size=min(n, 5)))
    events = [(draw(st.integers(0, n_max)), i) for i in nodes]
    return _hand_trace(n, n_max, pool, draw(st.integers(0, 2**32)), events)


@st.composite
def held_hand_traces(draw):
    # clocks that repeat the round before, as a halted node's do, so a
    # block holds few distinct clocks and each is formatted once for many cells
    trace = draw(hand_traces())
    hold = draw(st.sampled_from([0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return _hold_clocks(trace, rng.random(trace.times.shape) < hold)


# node 0's clock is NaN in every round: a clock or error prints nan, and
# only an empty filter output prints as an empty cell
_NAN_CLOCK = np.array([[math.nan, 0.5]] * 9)
_NAN_FILTER = np.array([[math.nan, math.nan]] * 3 + [[0.25, math.nan]] * 6)
# a column of -0.0 beside one of 0.0 in each of the three float columns
_ZEROS = np.array([[-0.0, 0.0]] * 9)
# NaNs of distinct bit patterns (quiet, negative, signalling, with a
# payload): distinct keys to the formatter, each still nan or an empty cell
_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                  0x7FF8DEAD00000000], dtype=np.uint64).view(np.float64)
_NAN_BITS = np.stack([_NANS, np.roll(_NANS, 1), np.roll(_NANS, 2)])


@settings(max_examples=80, deadline=None)
@given(hand_traces() | held_hand_traces())
@example(_hand_trace(1, 0, _AWKWARD, 0, [(0, 0)]))
@example(_hand_trace(1, 30, _AWKWARD, 1, [(30, 0)]))
@example(_hand_trace(4097, 2, _AWKWARD, 2, [(0, 0), (2, 4096), (1, 17)]))
@example(_hand_trace(4096, 2, _AWKWARD, 3, [(0, 4095), (2, 0)]))
@example(_hand_trace(2048, 5, _AWKWARD, 4, [(1, 2047), (2, 0), (5, 5)]))
@example(_trace_of(_NAN_CLOCK, 1e-3 * np.arange(9.0)[:, None] - _NAN_CLOCK,
                   _NAN_FILTER, [(4, 0), (8, 1)]))
@example(_trace_of(_ZEROS, -_ZEROS, _ZEROS, [(0, 1)]))
@example(_hold_clocks(_hand_trace(2048, 5, _AWKWARD, 8, [(1, 2047)]),
                      np.ones((6, 2048), dtype=bool)))
@example(_trace_of(_NAN_BITS, _NAN_BITS[::-1], np.roll(_NAN_BITS, 1, axis=1),
                   [(1, 3)]))
def test_trace_csv_matches_csv_writer_oracle(trace):
    assert _same_bytes_as_oracle(trace)


@pytest.mark.parametrize("halt", [False, True])
@pytest.mark.parametrize("block_rows", [1, 15 * 7, 10**9])
def test_run_independent_of_block_size(monkeypatch, halt, block_rows):
    # one round per block puts every flip at a block's first row, so the
    # sign carried between blocks decides it
    cfg = SimConfig(**{**REFERENCE, "p": 0.7, "halt_on_detect": halt})
    want = run(cfg)
    monkeypatch.setattr(harness, "_TRACE_BLOCK_ROWS", block_rows)
    got = run(cfg)
    assert got.events == want.events
    assert np.array_equal(got.filter_outputs, want.filter_outputs,
                          equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), prob=st.floats(0.2, 1.0),
       p=st.floats(0.3, 1.0), halt=st.booleans(),
       block_rows=st.integers(1, 200), n_max=st.integers(18, 160),
       init=st.sampled_from([(0.0, 0.1), (0.43, 0.53)]),
       seed=st.integers(0, 2**32))
@example(n=10, prob=0.6, p=0.8, halt=True, block_rows=1, n_max=120,
         init=(0.43, 0.53), seed=0)
def test_stream_matches_per_column_detector(n, prob, p, halt, block_rows,
                                            n_max, init, seed):
    # whatever the block size, run()'s filter outputs are the filter of each
    # node's own detector input, its events are per-column detect(), and a
    # halted node's clock stays frozen from its decision round on
    cfg = SimConfig(topology=random_topology(n, prob, seed=seed), p=p,
                    n_max=n_max, seed=seed, init_min=init[0],
                    init_max=init[1], halt_on_detect=halt)
    saved = harness._TRACE_BLOCK_ROWS
    harness._TRACE_BLOCK_ROWS = block_rows
    try:
        tr = run(cfg)
    finally:
        harness._TRACE_BLOCK_ROWS = saved
    want_events = []
    for i in range(tr.config.topology.node_count):
        x = node_filter_input(tr.times[:, i], cfg.delta_t)
        y = tr.filter_outputs[:, i]
        assert y[3:-3].tobytes() == filter_response(x, cfg.detector).tobytes()
        assert np.all(np.isnan(y[:3])) and np.all(np.isnan(y[-3:]))
        event = detect(x, cfg.detector, node_id=i, clocks=tr.times[:, i])
        if event is not None:
            want_events.append(event)
    assert list(tr.events) == want_events
    if halt:
        for e in tr.events:
            assert np.all(tr.times[e.detect_round:, e.node_id] == e.frozen_time)


def test_trace_csv_matches_oracle_across_blocks():
    # 15 nodes and 600 rounds span several blocks, with a partial last one
    tr = run(SimConfig(**{**REFERENCE, "n_max": 600, "p": 0.7}))
    assert _same_bytes_as_oracle(tr)


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(harness, "_trace_workers", lambda blocks: workers)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_trace_csv_same_bytes_for_any_worker_count(monkeypatch, workers):
    # 32 cells a block: the hand traces hold 6, 5 and 1 blocks (8 workers
    # is more than any of them) and the runs 251 each, so spans of several
    # blocks, single blocks and no block at all are each formatted. The
    # halting run's blocks repeat most values, the p = 0.7 run's few
    monkeypatch.setattr(harness, "_TRACE_BLOCK_ROWS", 32)
    _force_workers(monkeypatch, workers)
    traces = [_hand_trace(2048, 5, _AWKWARD, 5, [(1, 2047), (2, 0), (5, 5)]),
              _hand_trace(3, 40, _AWKWARD, 6, [(39, 1), (0, 2)]),
              _hand_trace(1, 30, _AWKWARD, 7, [(30, 0)]),
              run(SimConfig(**{**REFERENCE, "p": 0.7})),
              run(SimConfig(**{**REFERENCE, "p": 0.5,
                               "halt_on_detect": True}))]
    for tr in traces:
        assert _same_bytes_as_oracle(tr)


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_trace_workers_bounded_by_cpus_and_blocks(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    counts = [harness._trace_workers(b) for b in range(2000)]
    assert counts[0] == counts[1] == 1
    assert all(1 <= w <= min(cpus, max(1, b)) for b, w in enumerate(counts))
    assert counts == sorted(counts) and counts[-1] == cpus


def test_trace_workers_bounded_by_affinity():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert all(1 <= harness._trace_workers(b) <= cpus for b in (1, 8, 10**6))


def test_trace_workers_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert harness._trace_workers(10**6) == 1


def test_short_trace_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked for a short trace")
    monkeypatch.setattr(harness, "_fork", no_fork)
    assert _same_bytes_as_oracle(_hand_trace(1, 30, _AWKWARD, 1, [(30, 0)]))
    assert _same_bytes_as_oracle(run(SimConfig(**REFERENCE)))


def _fail_blocks_from(monkeypatch, first_round, exc):
    """Two workers, 10 rounds a block on 15 nodes, and a _trace_block that
    raises ``exc`` for blocks from ``first_round`` on; returns the list
    the pid of every child forked is appended to."""
    monkeypatch.setattr(harness, "_TRACE_BLOCK_ROWS", 150)
    _force_workers(monkeypatch, 2)
    real_block, real_fork, pids = harness._trace_block, harness._fork, []

    def block(times, errors, filter_outputs, flagged, nodes, r0, r1):
        if r0 >= first_round:
            raise exc
        return real_block(times, errors, filter_outputs, flagged, nodes, r0,
                          r1)

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(harness, "_trace_block", block)
    monkeypatch.setattr(harness, "_fork", fork)
    return pids


def _assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_failing_child_raises_oserror_and_is_reaped(monkeypatch, tmp_path):
    # 501 rounds in 51 blocks: the child formats rounds 250..500
    tr = run(SimConfig(**REFERENCE))
    pids = _fail_blocks_from(monkeypatch, 250, RuntimeError("child fails"))
    with pytest.raises(OSError, match="worker"):
        write_trace_csv(tr, tmp_path / "trace.csv")
    _assert_reaped(pids)


def test_failing_parent_kills_and_reaps_children(monkeypatch, tmp_path):
    tr = run(SimConfig(**REFERENCE))
    pids = _fail_blocks_from(monkeypatch, 0, KeyError("parent fails"))
    with pytest.raises(KeyError, match="parent fails"):
        write_trace_csv(tr, tmp_path / "trace.csv")
    _assert_reaped(pids)


def test_cli_failing_child_exits_2(monkeypatch, tmp_path, capsys):
    pids = _fail_blocks_from(monkeypatch, 250, RuntimeError("child fails"))
    code = main(["simulate", "--topology", "grid:4x4", "--rounds", "500",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: cannot write output")
    assert "Traceback" not in err
    _assert_reaped(pids)


@pytest.mark.parametrize("first_round, exc", [
    (250, RuntimeError("child fails")),
    (0, KeyError("parent fails")),
    (250, KeyboardInterrupt()),
    (0, KeyboardInterrupt()),
])
def test_failed_write_leaves_the_earlier_file(monkeypatch, tmp_path,
                                              first_round, exc):
    # a write that fails or is interrupted, in the parent or in a child,
    # leaves neither a truncated trace.csv nor its own temporary file
    tr = run(SimConfig(**REFERENCE))
    path = tmp_path / "trace.csv"
    path.write_bytes(b"an earlier run\r\n")
    pids = _fail_blocks_from(monkeypatch, first_round, exc)
    with pytest.raises((OSError, type(exc))):
        write_trace_csv(tr, path)
    _assert_reaped(pids)
    assert os.listdir(tmp_path) == ["trace.csv"]
    assert path.read_bytes() == b"an earlier run\r\n"


@pytest.mark.parametrize("first_round, exc, code, err", [
    (250, RuntimeError("child fails"), 2, "error: cannot write output"),
    (0, KeyboardInterrupt(), 130, "error: interrupted\n"),
])
def test_cli_failed_write_leaves_no_file(monkeypatch, tmp_path, capsys,
                                         first_round, exc, code, err):
    pids = _fail_blocks_from(monkeypatch, first_round, exc)
    assert main(["simulate", "--topology", "grid:4x4", "--rounds", "500",
                 "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(err)
    _assert_reaped(pids)
    assert os.listdir(tmp_path) == []


def test_written_files_replace_and_take_the_umask_mode(tmp_path, capsys):
    # each file is created as open() creates one, and replaces what was
    # there; no temporary file is left
    (tmp_path / "trace.csv").write_bytes(b"x" * 10**6)
    old = os.umask(0o027)
    try:
        assert main(["simulate", "--topology", "grid:2x2", "--rounds", "40",
                     "--out", str(tmp_path)]) == 0
        assert main(["sweep", "--sizes", "2x2", "--rounds", "40", "--seeds",
                     "1", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert sorted(os.listdir(tmp_path)) == ["summary.csv", "sweep.csv",
                                            "trace.csv"]
    for name in os.listdir(tmp_path):
        assert os.stat(tmp_path / name).st_mode & 0o777 == 0o640
    assert len(_read_csv(tmp_path / "trace.csv")) == 1 + 41 * 3


def _oracle_summarize(trace):
    """The original summarize: the whole |errors| copy, one node at a time."""
    abs_err = np.abs(trace.errors)
    by_node = {e.node_id: e for e in trace.events}
    out = []
    for i in range(trace.times.shape[1]):
        col = abs_err[:, i]
        mi = int(np.argmin(col))
        event = by_node.get(i)
        det = event.target_round if event is not None else None
        out.append((i, mi, float(col[mi]), trace.n_max, float(col[-1]), det,
                    float(col[det]) if event is not None else None))
    return out


def _summary_tuples(trace):
    return [(s.node_id, s.min_error_instant, s.min_error_value,
             s.ss_error_instant, s.ss_error_value, s.detected_instant,
             s.detected_error_value) for s in summarize(trace)]


def _same_floats(a, b):
    return len(a) == len(b) and all(
        x == y or (isinstance(x, float) and x != x and y != y)
        for ra, rb in zip(a, b) for x, y in zip(ra, rb))


@settings(max_examples=40, deadline=None)
@given(hand_traces(), st.sampled_from([1, 5, 4096, 10**9]))
@example(_hand_trace(1, 30, [0.0, -0.0, 1.0], 5, [(7, 0)]), 1)
@example(_hand_trace(3, 20, [math.nan, 2.0, -1.0], 6, []), 2)
def test_summarize_matches_oracle(trace, block_rows):
    # ties (0.0 and -0.0 included) go to the first round and a NaN wins, in
    # any block of rounds, as the whole-column np.argmin decides
    saved = harness._TRACE_BLOCK_ROWS
    harness._TRACE_BLOCK_ROWS = block_rows
    try:
        got = _summary_tuples(trace)
    finally:
        harness._TRACE_BLOCK_ROWS = saved
    assert _same_floats(got, _oracle_summarize(trace))


def test_summarize_matches_oracle_on_runs():
    for kwargs in (REFERENCE, {**REFERENCE, "p": 0.6, "halt_on_detect": True}):
        tr = run(SimConfig(**kwargs))
        assert _summary_tuples(tr) == _oracle_summarize(tr)

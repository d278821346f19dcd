import contextlib
import csv
import hashlib
import io
import math
import os
import signal
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from typing import NamedTuple

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
from hopsync.kernels import filter_series
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


def test_config_halt_on_detect_is_true_or_false():
    # 2 once stepped one round at a time and froze no node (2 & True is 0),
    # and a string raised NumPy's TypeError inside the run
    for value in (2, -1, 0.5, 1.0, "no", "true", None):
        with pytest.raises(ConfigInvalid, match="halt_on_detect must be"):
            SimConfig(topology=GRID, halt_on_detect=value)
    for value, want in ((0, False), (1, True), (np.True_, True),
                        (np.False_, False), (True, True)):
        cfg = SimConfig(topology=GRID, halt_on_detect=value)
        assert cfg.halt_on_detect is want


def test_fields_of_the_wrong_type_raise_type_error():
    # not an AttributeError from deep inside the constructor
    with pytest.raises(TypeError, match="topology must be a Topology"):
        SimConfig(topology="grid:2x2")
    with pytest.raises(TypeError, match="detector must be a DetectorConfig"):
        SimConfig(topology=GRID, detector=None)
    with pytest.raises(TypeError, match="config must be a SimConfig"):
        RunTrace(config=None, times=np.zeros((3, 15)),
                 targets=np.full(15, -1))


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


@pytest.mark.parametrize("targets, error, match", [
    (np.full((1, 2), -1), ValueError, "shape"),
    (np.full(3, -1), ValueError, "shape"),
    (np.array([-1.0, 5.0]), TypeError, "integer array"),
    (np.array([False, True]), TypeError, "integer array"),
    ([-1, -2], ValueError, "-1 or a round"),
    ([18, -1], ValueError, "-1 or a round"),
    (np.array([2**64 - 1, 0], dtype=np.uint64), ValueError, "-1 or a round")])
def test_run_trace_refuses_bad_targets(targets, error, match):
    # line:3 has N = 2 and n_max = 20: a stop at m is decided at m + 3, so
    # each node's target is -1 or a round 0..17; one round per node, so a
    # node cannot stop twice
    cfg = SimConfig(topology=line_topology(3), n_max=20)
    tr = run(cfg)
    with pytest.raises(error, match=match):
        RunTrace(config=cfg, times=tr.times, targets=targets)
    with pytest.raises(error, match=match):
        replace(tr, targets=targets)
    last = replace(tr, targets=[-1, 17])
    assert last.targets.dtype == np.int64 and not last.targets.flags.writeable
    assert summarize(last)[1].detected_instant == 17
    assert last.events == (DetectionEvent(1, 17, tr.times[20, 1]),)


def test_run_trace_takes_times_as_a_float_array():
    # a nested list is the array it spells; times of any other rank than
    # rounds by nodes, or with no round or no node, are refused by name
    cfg = SimConfig(topology=line_topology(3), n_max=20)
    tr = run(cfg)
    listed = RunTrace(config=cfg, times=tr.times.tolist(),
                      targets=tr.targets)
    assert listed.times.dtype == np.float64
    assert np.array_equal(listed.times, tr.times)
    assert summarize(listed) == summarize(tr)
    for times in (tr.times[:, 0], tr.times[None], tr.times[:, :0],
                  tr.times[:0]):
        with pytest.raises(ValueError, match="times must be a 2-D array"):
            RunTrace(config=cfg, times=times, targets=tr.targets)


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


def test_sweep_refuses_no_sizes():
    template = SimConfig(topology=grid_topology(2, 2), n_max=100)
    with pytest.raises(ConfigInvalid, match="sizes must name at least one"):
        scaling_sweep([], template)


def test_sweep_reads_sizes_once():
    # an iterator of sizes gives the points its list gives
    template = SimConfig(topology=grid_topology(2, 2), n_max=100)
    sizes = [(2, 2), (3, 3)]
    assert (scaling_sweep(iter(sizes), template, seeds=2)
            == scaling_sweep(sizes, template, seeds=2))


def test_halting_sweep_draws_about_a_sweep_block(monkeypatch):
    # a halting run steps one round a block and draws as many rounds of
    # masks as hold about _SWEEP_BLOCK_CELLS bits, each lane counted as
    # grid:2x2's 4 links and its four 64-bit seed words, not a whole
    # evolution block of rounds for each of the 8 seeds
    template = SimConfig(topology=grid_topology(2, 2), n_max=20000, p=0.5,
                         halt_on_detect=True)
    draws = []
    draw = harness._mask_block
    monkeypatch.setattr(harness, "_mask_block",
                        lambda *a: draws.append(a[4] - a[3]) or draw(*a))
    scaling_sweep([(2, 2)], template, seeds=8)
    assert draws
    assert max(draws) <= harness._SWEEP_BLOCK_CELLS // (8 * (4 + 4 * 64))


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_trace_csv_and_summary_take_n_from_the_arrays(tmp_path):
    # a trace is written from its clocks' shape, not its config's n_max or
    # topology: every (round, node) cell of the 10 x 5 clocks, 5 summary rows
    t = np.arange(50.).reshape(10, 5)
    trace = RunTrace(config=_HAND_CONFIG, times=t, targets=np.full(5, -1))
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
    # a halting run steps one round a block but draws its masks many rounds
    # at a time, not a round at a time
    kwargs = HALT_RUNS["line6_some_halt"][0]
    cfg = SimConfig(**kwargs, seed=0, n_max=3000, halt_on_detect=True)
    calls = []
    draw = harness._mask_block
    monkeypatch.setattr(harness, "_mask_block",
                        lambda *a: calls.append(1) or draw(*a))
    run(cfg)
    step = max(1, harness._TRACE_BLOCK_ROWS // cfg.topology.node_count)
    assert len(calls) <= math.ceil(3000 / step) + 1


def test_run_draws_masks_far_ahead(monkeypatch):
    # a run that does not halt draws whole blocks of rounds holding about
    # _SWEEP_BLOCK_CELLS bits of masks a call, each lane's four seed words
    # counted, not one block: grid:30x30's 400 rounds take 4 calls, where
    # a block at a time took 100, and are still evolved in 100 blocks.
    # Masks are keyed by (seed, round): the clocks and the flags do not
    # change
    cfg = SimConfig(topology=grid_topology(30, 30), p=0.6, n_max=400)
    calls, steps = [], []
    draw, evolve = harness._mask_block, harness.run_rounds
    monkeypatch.setattr(harness, "_mask_block",
                        lambda *a: calls.append(1) or draw(*a))
    monkeypatch.setattr(harness, "run_rounds",
                        lambda *a, **k: steps.append(1) or evolve(*a, **k))
    far = run(cfg)
    assert (len(calls), len(steps)) == (4, 100)
    calls.clear()
    monkeypatch.setattr(harness, "_SWEEP_BLOCK_CELLS", 1)
    near = run(cfg)
    assert (len(calls), len(steps)) == (100, 200)
    assert far.times.tobytes() == near.times.tobytes()
    assert far.events == near.events


def _stream(cfg):
    """run(cfg)'s clocks and each node's flagged round, both from the round
    stream (see _rounds), which writes the clocks into the trace's array."""
    trace = run(cfg)
    return trace.times, trace.targets


def test_halting_stream_independent_of_mask_lookahead(monkeypatch):
    # masks drawn about _SWEEP_BLOCK_CELLS bits ahead or, with a budget of
    # one bit, a round at a time; the filter outputs are a function of the
    # clocks, so the clocks cover them
    cfg = SimConfig(**HALT_RUNS["line6_some_halt"][0], seed=0, n_max=1500,
                    halt_on_detect=True)
    ahead = _stream(cfg)
    draws = []
    draw = harness._mask_block
    monkeypatch.setattr(harness, "_mask_block",
                        lambda *a: draws.append(a[4] - a[3]) or draw(*a))
    monkeypatch.setattr(harness, "_SWEEP_BLOCK_CELLS", 1)
    one = _stream(cfg)
    assert set(draws) == {1}
    assert np.array_equal(one[0], ahead[0])
    assert np.array_equal(one[1], ahead[1])
    assert (one[1] >= 0).any()


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


def _oracle_errors(trace):
    """``trace``'s errors as run() computed them, over every round at
    once."""
    rounds = np.arange(trace.n_max + 1, dtype=np.float64)
    return trace.config.delta_t * rounds[:, None] - trace.times


def _oracle_arrays(trace):
    """``trace``'s errors and filter outputs as whole arrays, the filter
    taken over every column at once."""
    errors = _oracle_errors(trace)
    filter_outputs = np.full(errors.shape, math.nan)
    if len(errors) >= 7:
        filter_outputs[3:-3] = filter_series(np.abs(errors),
                                             trace.config.detector.c_f)
    return errors, filter_outputs


def _oracle_rows(times, errors, filter_outputs, targets, r0):
    """The rows the original writer gave rounds r0, r0+1, ... of these
    arrays, one csv.writer row per (round, node), flagging each node at its
    round in ``targets`` (-1: none)."""
    n = times.shape[1]
    out = io.StringIO(newline="")
    w = csv.writer(out)
    for j in range(len(times)):
        for i in range(n):
            w.writerow([r0 + j, i, repr(float(times[j, i])),
                        repr(float(errors[j, i])),
                        _oracle_fmt(filter_outputs[j, i]),
                        1 if targets[i] == r0 + j else 0])
    return out.getvalue()


def _oracle_write_trace_csv(trace, path):
    """The original writer, one csv.writer row per (round, node)."""
    targets = [-1] * trace.times.shape[1]
    for e in trace.events:
        targets[e.node_id] = e.target_round
    with open(path, "w", newline="") as fh:
        fh.write("round,node,clock,error,filter_out,detected\r\n")
        fh.write(_oracle_rows(trace.times, *_oracle_arrays(trace), targets,
                              0))


# floats whose repr or CSV cell is easy to get wrong: NaN, signed zero,
# subnormals, exponent-form reprs, infinities
_AWKWARD = [math.nan, -0.0, 0.0, 5e-324, 1.5e-310, 1e-05, 1e-04, 1e16, 1e15,
            -1e16, 1.7976931348623157e308, math.inf, -math.inf, 0.1, -2.5]
# the config of every hand trace: its delta_t and c_f derive the error and
# filter columns; the trace's own shape gives its rounds and nodes
_HAND_CONFIG = SimConfig(topology=line_topology(2), delta_t=1.0)


def _hand_cells(n, n_max, pool, seed, count):
    """``count`` arrays of n_max + 1 rounds by n nodes whose cells are drawn
    from ``pool``."""
    rng = np.random.default_rng(seed)
    pool = np.array(pool, dtype=np.float64)
    return [pool[rng.integers(len(pool), size=(n_max + 1, n))]
            for _ in range(count)]


def _hand_trace(n, n_max, pool, seed, events):
    """A RunTrace of _HAND_CONFIG whose clocks are drawn from ``pool``,
    flagging each (target_round, node_id) of ``events``."""
    times, = _hand_cells(n, n_max, pool, seed, 1)
    targets = np.full(n, -1)
    for r, i in events:
        targets[i] = r
    return RunTrace(config=_HAND_CONFIG, times=times, targets=targets)


def _fresh_block(block, work=None):
    """_trace_block's bytes of ``block``, laid out in ``work`` or, where it
    is None, in buffers made for this block alone."""
    rounds, n = block.times.shape
    if work is None:
        work = harness._block_work(rounds, n, block.r0 + rounds - 1)
    return harness._trace_block(block.times, block.errors,
                                block.filter_outputs, block.targets, block.r0,
                                work)


class _Block(NamedTuple):
    """_trace_block's arrays and each node's target round for rounds r0,
    r0+1, ..."""
    times: np.ndarray
    errors: np.ndarray
    filter_outputs: np.ndarray
    targets: np.ndarray
    r0: int


def _block_of(times, errors, filter_outputs, events=(), r0=0, seed=0):
    """A _Block of the (rounds, N) arrays given, flagging each (row,
    node_id) of ``events``. Every other node's target, drawn with ``seed``,
    is none (-1) or a round up to three before the block or after it, next
    to it most often: none of them must show."""
    rounds, n = times.shape
    rng = np.random.default_rng([seed, 1])
    k = rng.integers(0, 3, size=n)
    targets = np.where(rng.random(n) < 0.5, np.maximum(r0 - 1 - k, -1),
                       r0 + rounds + k)
    for r, i in events:
        targets[i] = r0 + r
    return _Block(times, errors, filter_outputs, targets, r0)


def _hand_block(n, n_max, pool, seed, events, r0=0):
    """A _Block over n nodes and n_max + 1 rounds whose cells, in all three
    columns, and out-of-block targets are drawn with ``seed``, the cells
    from ``pool``."""
    return _block_of(*_hand_cells(n, n_max, pool, seed, 3), events, r0, seed)


def _hold_clocks(block, held):
    """``block`` with each clock where ``held`` is True replaced by the same
    node's clock in the round before, as a halted node's clock holds."""
    times = block.times.copy()
    for r in range(1, len(times)):
        times[r, held[r]] = times[r - 1, held[r]]
    return block._replace(times=times)


def _same_bytes_as_oracle(trace):
    # a hand trace's clocks reach inf - inf and overflow in the filter,
    # which a run's never do
    with tempfile.TemporaryDirectory() as d, np.errstate(all="ignore"):
        new, old = os.path.join(d, "new.csv"), os.path.join(d, "old.csv")
        write_trace_csv(trace, new)
        _oracle_write_trace_csv(trace, old)
        with open(new, "rb") as a, open(old, "rb") as b:
            return a.read() == b.read()


@st.composite
def _hand_shapes(draw, last=0):
    """(n, n_max, pool, events) of a hand trace or block, whose events flag
    rounds up to ``last`` before n_max."""
    n = draw(st.sampled_from([1, 2, 3, 7, 900, 4097]))
    n_max = draw(st.integers(0, 3 if n > 4096 else 40))
    pool = _AWKWARD + draw(st.lists(st.floats(), max_size=8))
    nodes = draw(st.sets(st.integers(0, n - 1),
                         max_size=min(n, 5) if n_max >= last else 0))
    events = [(draw(st.integers(0, n_max - last)), i) for i in nodes]
    return n, n_max, pool, events


@st.composite
def hand_traces(draw):
    # a trace flags no round past n_max - 3 (see RunTrace): hand blocks
    # flag those rows
    n, n_max, pool, events = draw(_hand_shapes(last=3))
    return _hand_trace(n, n_max, pool, draw(st.integers(0, 2**32)), events)


@st.composite
def hand_blocks(draw):
    n, n_max, pool, events = draw(_hand_shapes())
    return _hand_block(n, n_max, pool, draw(st.integers(0, 2**32)), events,
                       draw(st.sampled_from([0, 1, 3, 10**6])))


@st.composite
def held_hand_blocks(draw):
    # clocks that repeat the round before, as a halted node's do, so a
    # block holds few distinct clocks and each is formatted once for many cells
    block = draw(hand_blocks())
    hold = draw(st.sampled_from([0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return _hold_clocks(block, rng.random(block.times.shape) < hold)


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
# repr's longest texts, 24 characters, and their positive twins
_LONGEST = [-2.2250738585072014e-308, -1.7976931348623157e308, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, 5e-324]


@settings(max_examples=80, deadline=None)
@given(hand_blocks() | held_hand_blocks())
@example(_hand_block(1, 0, _AWKWARD, 0, [(0, 0)]))
@example(_hand_block(1, 30, _AWKWARD, 1, [(30, 0)]))
@example(_hand_block(4097, 2, _AWKWARD, 2, [(0, 0), (2, 4096), (1, 17)]))
@example(_hand_block(4096, 2, _AWKWARD, 3, [(0, 4095), (2, 0)]))
@example(_hand_block(2048, 5, _AWKWARD, 4, [(1, 2047), (2, 0), (5, 5)]))
@example(_block_of(_NAN_CLOCK, 1e-3 * np.arange(9.0)[:, None] - _NAN_CLOCK,
                   _NAN_FILTER, [(4, 0), (8, 1)]))
@example(_block_of(_ZEROS, -_ZEROS, _ZEROS, [(0, 1)]))
@example(_hold_clocks(_hand_block(2048, 5, _AWKWARD, 8, [(1, 2047)]),
                      np.ones((6, 2048), dtype=bool)))
@example(_block_of(_NAN_BITS, _NAN_BITS[::-1], np.roll(_NAN_BITS, 1, axis=1),
                   [(1, 3)]))
@example(_hand_block(3, 6, _AWKWARD, 9, [(0, 2), (6, 0)], r0=10**6))
@example(_hand_block(6, 8, _LONGEST, 10, [(2, 5)]))
@example(_hand_block(11, 3, _AWKWARD, 11, [(0, 10), (1, 0), (2, 3)],
                     r0=9998))
def test_trace_csv_matches_csv_writer_oracle(block):
    # a block's bytes, from any three columns of any floats, are the rows
    # csv.writer wrote; targets outside the block do not show
    assert _fresh_block(block) == _oracle_rows(*block).encode("ascii")


# blocks of 4, 3, 1 and 2 rounds over rounds 5..104: the round field widens
# inside the blocks of rounds 9..11 and 99..101
_SPAN_BLOCKS = [(r0, r0 + k) for c in range(5, 105, 10)
                for r0, k in zip((c, c + 4, c + 7, c + 8), (4, 3, 1, 2))]


@pytest.mark.parametrize("n", [1, 3, 11])
def test_reused_block_buffers_give_unbuffered_bytes(n):
    # one span's buffers, sized for its largest block and its last round,
    # filled by blocks that are shorter, whose round field is narrower or
    # widens, and whose texts are shorter than the block's before (the
    # 24-character fallbacks, then one and three characters): each block's
    # bytes are those of buffers made for it alone, and csv.writer's rows
    work = harness._block_work(4, n, 104)
    pools = [_LONGEST, [0.5, -2.5, math.nan], _AWKWARD]
    for i, (r0, r1) in enumerate(_SPAN_BLOCKS):
        block = _hand_block(n, r1 - r0 - 1, pools[i % 3], i,
                            [(r1 - r0 - 1, n - 1)], r0)
        alone = _fresh_block(block)
        assert _fresh_block(block, work) == alone
        assert alone == _oracle_rows(*block).encode("ascii")


@settings(max_examples=40, deadline=None)
@given(hand_traces())
@example(_hand_trace(1, 30, _AWKWARD, 1, [(27, 0)]))
@example(_hand_trace(7, 40, [math.nan, -0.0, 1e16, math.inf], 2, [(3, 6)]))
def test_hand_trace_csv_matches_oracle(trace):
    # clocks of any floats: the columns derived block by block are the
    # whole-array ones
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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), prob=st.floats(0.2, 1.0),
       p=st.floats(0.3, 1.0), halt=st.booleans(),
       block_rows=st.integers(1, 200), derive_rounds=st.integers(1, 200),
       n_max=st.integers(18, 160),
       init=st.sampled_from([(0.0, 0.1), (0.43, 0.53)]),
       seed=st.integers(0, 2**32))
@example(n=10, prob=0.6, p=0.8, halt=True, block_rows=1, derive_rounds=1,
         n_max=120, init=(0.43, 0.53), seed=0)
@example(n=10, prob=0.6, p=0.8, halt=False, block_rows=200,
         derive_rounds=7, n_max=120, init=(0.43, 0.53), seed=0)
def test_derived_columns_match_stream(n, prob, p, halt, block_rows,
                                      derive_rounds, n_max, init, seed):
    # errors and filter_outputs of a run streamed in blocks of any length,
    # derived whole or in blocks of any length, are bit for bit the
    # whole-array oracle's
    cfg = SimConfig(topology=random_topology(n, prob, seed=seed), p=p,
                    n_max=n_max, seed=seed, init_min=init[0],
                    init_max=init[1], halt_on_detect=halt)
    saved = harness._TRACE_BLOCK_ROWS
    harness._TRACE_BLOCK_ROWS = block_rows
    try:
        tr = run(cfg)
    finally:
        harness._TRACE_BLOCK_ROWS = saved
    errors, filter_outputs = _oracle_arrays(tr)
    assert tr.errors.tobytes() == errors.tobytes()
    assert tr.filter_outputs.tobytes() == filter_outputs.tobytes()
    blocks = [harness._derived(tr, r0, min(r0 + derive_rounds, n_max + 1))
              for r0 in range(0, n_max + 1, derive_rounds)]
    assert np.concatenate([e for e, _ in blocks]).tobytes() == errors.tobytes()
    assert (np.concatenate([f for _, f in blocks]).tobytes()
            == filter_outputs.tobytes())


def _traced_peak(fn):
    """fn()'s result and the most memory it held at once beyond what was
    held when it was called, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_memory_bounded_by_the_clocks(monkeypatch, tmp_path):
    # run() holds the clocks and about one block beside them; summarize and
    # write_trace_csv add about one block, however many rounds there are
    _force_workers(monkeypatch, 1)
    cfg = SimConfig(topology=grid_topology(5, 5), p=0.6, n_max=6000)
    run(replace(cfg, n_max=100))  # one-time allocations: imports, caches
    tr, held = _traced_peak(lambda: run(cfg))
    assert held < 1.25 * tr.times.nbytes + 2**20
    added = []
    for n_max in (300, 1200):
        tr = run(replace(cfg, n_max=n_max))
        added.append(_traced_peak(lambda: write_trace_csv(
            tr, tmp_path / "trace.csv") or summarize(tr))[1])
    assert added[1] < added[0] + 2**16


def test_sweep_working_set_is_one_block():
    # a sweep's size holds, beside its per-(run, node) arrays, one block of
    # float64 cells (its clocks, then their |e|), run_rounds' tables, one
    # mask draw and the fold's bool array, all made once or reused; the
    # margin covers run_rounds' per-round gathers of the up contributions
    # (about 0.7 MiB here) and the small state. A new block per step, as an
    # output array or np.argmin's copy, is 2 MiB more
    cfg = SimConfig(topology=grid_topology(32, 32, gateway="corner"),
                    n_max=600, p=0.5)
    seeds = range(8)
    harness._min_error_instants(replace(cfg, n_max=20), seeds)  # caches
    _, held = _traced_peak(lambda: harness._min_error_instants(cfg, seeds))
    runs, n = len(seeds), cfg.topology.node_count
    eu, ev = cfg.topology.edge_arrays()
    step = harness._SWEEP_BLOCK_CELLS // (runs * n)
    rows = min(step, cfg.n_max + 1)
    draw = step * max(1, harness._SWEEP_BLOCK_CELLS // (
        runs * (len(eu) + 4 * 64) * step))
    block = (rows + 1) * runs * n * 8
    tables = 3 * 8 * runs * (len(eu) + int((ev < n).sum()))
    masks = draw * runs * len(eu)
    fold = rows * runs * n
    assert held < block + tables + masks + fold + 1.5 * 2**20


def test_trace_csv_matches_oracle_across_blocks():
    # 15 nodes and 600 rounds span several blocks, with a partial last one
    tr = run(SimConfig(**{**REFERENCE, "n_max": 600, "p": 0.7}))
    assert _same_bytes_as_oracle(tr)


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(harness, "_workers", lambda blocks: workers)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_trace_csv_same_bytes_for_any_worker_count(monkeypatch, workers):
    # 32 cells a block: the hand traces hold 6, 5 and 1 blocks (8 workers
    # is more than any of them) and the runs 251 each, so spans of several
    # blocks, single blocks and no block at all are each formatted. The
    # halting run's blocks repeat most values, the p = 0.7 run's few
    monkeypatch.setattr(harness, "_TRACE_BLOCK_ROWS", 32)
    _force_workers(monkeypatch, workers)
    traces = [_hand_trace(2048, 5, _AWKWARD, 5, [(1, 2047), (2, 0), (2, 5)]),
              _hand_trace(3, 40, _AWKWARD, 6, [(37, 1), (0, 2)]),
              _hand_trace(1, 30, _AWKWARD, 7, [(27, 0)]),
              run(SimConfig(**{**REFERENCE, "p": 0.7})),
              run(SimConfig(**{**REFERENCE, "p": 0.5,
                               "halt_on_detect": True}))]
    for tr in traces:
        assert _same_bytes_as_oracle(tr)


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_trace_workers_bounded_by_cpus_and_blocks(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    counts = [harness._workers(b) for b in range(2000)]
    assert counts[0] == counts[1] == 1
    assert all(1 <= w <= min(cpus, max(1, b)) for b, w in enumerate(counts))
    assert counts == sorted(counts) and counts[-1] == cpus


def test_trace_workers_bounded_by_affinity():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert all(1 <= harness._workers(b) <= cpus for b in (1, 8, 10**6))


def test_trace_workers_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert harness._workers(10**6) == 1


def test_short_trace_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked for a short trace")
    monkeypatch.setattr(harness, "_fork", no_fork)
    assert _same_bytes_as_oracle(_hand_trace(1, 30, _AWKWARD, 1, [(27, 0)]))
    assert _same_bytes_as_oracle(run(SimConfig(**REFERENCE)))


def _fail_blocks(monkeypatch, since, exc):
    """Two workers, 10 rounds a block on 15 nodes, so that this process
    formats rounds 0..249 of a 501-round trace and a child rounds 250..500,
    and a _trace_block that raises ``exc`` for the blocks of rounds from
    ``since`` on: at 250 the child's alone, and at 0 every block. Returns
    the list the pid of every child forked is appended to."""
    monkeypatch.setattr(harness, "_TRACE_BLOCK_ROWS", 150)
    _force_workers(monkeypatch, 2)
    real_block, real_fork, pids = harness._trace_block, harness._fork, []

    def block(times, errors, filter_outputs, targets, r0, work):
        if r0 >= since:
            raise exc
        return real_block(times, errors, filter_outputs, targets, r0, work)

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
    pids = _fail_blocks(monkeypatch, 250, RuntimeError("child fails"))
    with pytest.raises(OSError, match="worker .* RuntimeError: child fails"):
        write_trace_csv(tr, tmp_path / "trace.csv")
    _assert_reaped(pids)


def test_failing_parent_kills_and_reaps_children(monkeypatch, tmp_path):
    tr = run(SimConfig(**REFERENCE))
    pids = _fail_blocks(monkeypatch, 0, KeyError("parent fails"))
    with pytest.raises(KeyError, match="parent fails"):
        write_trace_csv(tr, tmp_path / "trace.csv")
    _assert_reaped(pids)


def test_cli_failing_child_exits_2(monkeypatch, tmp_path, capsys):
    # the child's exception reaches the user: one line that names it, and
    # neither a traceback nor a temporary file
    pids = _fail_blocks(monkeypatch, 250,
                        RuntimeError("child fails\n  on two lines"))
    code = main(["simulate", "--topology", "grid:4x4", "--rounds", "500",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: cannot write output")
    assert err.endswith(": RuntimeError: child fails on two lines\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    _assert_reaped(pids)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("since, exc", [
    (250, RuntimeError("child fails")),
    (0, KeyError("parent fails")),
    (250, KeyboardInterrupt()),
    (0, KeyboardInterrupt()),
])
def test_failed_write_leaves_the_earlier_file(monkeypatch, tmp_path,
                                              since, exc):
    # a write that fails or is interrupted, in the parent or in a child,
    # leaves neither a truncated trace.csv nor its own temporary file
    tr = run(SimConfig(**REFERENCE))
    path = tmp_path / "trace.csv"
    path.write_bytes(b"an earlier run\r\n")
    pids = _fail_blocks(monkeypatch, since, exc)
    with pytest.raises((OSError, type(exc))):
        write_trace_csv(tr, path)
    _assert_reaped(pids)
    assert os.listdir(tmp_path) == ["trace.csv"]
    assert path.read_bytes() == b"an earlier run\r\n"


@pytest.mark.parametrize("since, exc, code, err", [
    (250, RuntimeError("child fails"), 2, "error: cannot write output"),
    (0, KeyboardInterrupt(), 130, "error: interrupted\n"),
])
def test_cli_failed_write_leaves_no_file(monkeypatch, tmp_path, capsys,
                                         since, exc, code, err):
    pids = _fail_blocks(monkeypatch, since, exc)
    assert main(["simulate", "--topology", "grid:4x4", "--rounds", "500",
                 "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(err)
    _assert_reaped(pids)
    assert os.listdir(tmp_path) == []


def _placed_rounds(probe, workers, step, d):
    """The n_max of a run of ``probe``'s config cut short whose trace.csv
    splits first at round m + d, m a flagged round of ``probe``, when
    ``workers`` workers share it in blocks of ``step`` rounds; None where
    no flagged round allows that. The cut run flags m too: its flag
    depends on rounds up to m + 3 alone."""
    shortest = probe.config.detector.k_guard + 7  # as SimConfig allows
    for m in sorted(probe.targets[probe.targets >= 0].tolist()):
        split = m + d
        # workers * split rounds in whole blocks: the first span ends at split
        if split > 0 and split % step == 0 and (
                max(m + 3, shortest) <= workers * split - 1 <= probe.n_max):
            return workers * split - 1
    return None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(workers=st.sampled_from([1, 2, 3]), step=st.sampled_from([1, 2, 3]),
       p=st.sampled_from([0.3, 1.0]), halt=st.booleans(),
       seed=st.integers(0, 40), d=st.sampled_from([1, 0, -2]))
@example(workers=2, step=1, p=1.0, halt=False, seed=0, d=1)
@example(workers=2, step=1, p=0.3, halt=True, seed=1, d=0)
@example(workers=3, step=2, p=0.3, halt=False, seed=2, d=-2)
def test_cli_outputs_equal_the_one_process_writer(workers, step, p, halt,
                                                  seed, d):
    # simulate's trace.csv, formatted by any number of workers in blocks
    # of any length, and its summary.csv are the bytes of write_trace_csv
    # and write_summary_csv of run() in one process; a flagged round is
    # placed at the first split minus one, at it or two past it, where its
    # filter window straddles two spans
    topo = generate_topology("grid:3x3")
    cfg = SimConfig(topology=topo, n_max=120, p=p, seed=seed,
                    halt_on_detect=halt)
    n_max = _placed_rounds(run(cfg), workers, step, d) if workers > 1 else None
    cfg = replace(cfg, n_max=40 + seed if n_max is None else n_max)
    argv = ["simulate", "--topology", "grid:3x3", "--rounds", str(cfg.n_max),
            "--p", str(p), "--seed", str(seed)] + (
                ["--halt-on-detect"] if halt else [])
    saved = harness._TRACE_BLOCK_ROWS, harness._workers
    with tempfile.TemporaryDirectory() as out:
        try:
            harness._TRACE_BLOCK_ROWS = step * topo.node_count
            harness._workers = lambda blocks: workers
            with open(os.devnull, "w") as null, \
                    contextlib.redirect_stdout(null):
                assert main(argv + ["--out", out]) == 0
            harness._TRACE_BLOCK_ROWS = saved[0]
            harness._workers = lambda blocks: 1
            trace = run(cfg)
            write_trace_csv(trace, os.path.join(out, "one_trace.csv"))
            write_summary_csv(summarize(trace),
                              os.path.join(out, "one_summary.csv"))
        finally:
            harness._TRACE_BLOCK_ROWS, harness._workers = saved
        for name in ("trace.csv", "summary.csv"):
            with open(os.path.join(out, name), "rb") as a, \
                    open(os.path.join(out, f"one_{name}"), "rb") as b:
                assert a.read() == b.read(), name
    if n_max is not None:
        assert (trace.targets == (n_max + 1) // workers - d).any()


@pytest.mark.parametrize("exc, code, err", [
    (MemoryError(), 2, "error: out of memory"),
    (KeyboardInterrupt(), 130, "error: interrupted\n"),
])
def test_run_failing_forks_nothing_and_leaves_no_file(
        monkeypatch, tmp_path, capsys, exc, code, err):
    # the run is done before the writer forks: one that fails ends the
    # command with no child started and no file left, temporary or not
    monkeypatch.setattr(harness, "_TRACE_BLOCK_ROWS", 150)
    _force_workers(monkeypatch, 2)
    real_rounds = harness.run_rounds

    def no_fork():
        raise AssertionError("forked before the run was done")

    def evolve(t, eu, ev, masks, dt, round0, out, tables):
        if round0 >= 300:
            raise exc
        return real_rounds(t, eu, ev, masks, dt, round0=round0, out=out,
                           tables=tables)

    monkeypatch.setattr(harness, "_fork", no_fork)
    monkeypatch.setattr(harness, "run_rounds", evolve)
    assert main(["simulate", "--topology", "grid:4x4", "--rounds", "500",
                 "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(err)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("workers, ends", [(2, [0, 90, 181]),
                                           (3, [0, 60, 120, 181])])
def test_each_child_formats_its_span_and_this_process_the_first(
        monkeypatch, tmp_path, workers, ends):
    # 10 rounds a block on 15 nodes, 19 blocks: child w formats rounds
    # ends[w]..ends[w + 1] - 1 and this process rounds 0..ends[1] - 1; the
    # bytes are those of one process
    monkeypatch.setattr(harness, "_TRACE_BLOCK_ROWS", 150)
    _force_workers(monkeypatch, workers)
    log, real_block = tmp_path / "blocks", harness._trace_block
    log.write_text("")

    def block(*args):
        out = real_block(*args)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {args[4]}\n")
        return out

    def rounds():
        by_pid = {}
        for pid, r0 in (line.split() for line in log.read_text().splitlines()):
            by_pid.setdefault(int(pid), []).append(int(r0))
        return by_pid

    monkeypatch.setattr(harness, "_trace_block", block)
    cfg = SimConfig(**{**REFERENCE, "n_max": 180})
    trace = run(cfg)
    write_trace_csv(trace, tmp_path / "trace.csv")
    by_pid = rounds()
    assert by_pid.pop(os.getpid()) == list(range(0, ends[1], 10))
    assert sorted(map(sorted, by_pid.values())) == [
        list(range(r0, r1, 10)) for r0, r1 in zip(ends[1:], ends[2:])]
    monkeypatch.setattr(harness, "_trace_block", real_block)
    _force_workers(monkeypatch, 1)
    write_trace_csv(trace, tmp_path / "one.csv")
    assert ((tmp_path / "trace.csv").read_bytes()
            == (tmp_path / "one.csv").read_bytes())


def test_clocks_past_any_array_raise_memory_error():
    # more rounds than an array can index: MemoryError, as for rounds past
    # the memory, before anything is allocated or evolved
    cfg = SimConfig(topology=GRID, n_max=10 ** 19)

    def fails():
        with pytest.raises(MemoryError):
            run(cfg)

    assert _traced_peak(fails)[1] < 1 << 16


def _count_forks(monkeypatch):
    """Wraps harness._fork; returns the list the pid of every child forked
    is appended to."""
    real_fork, pids = harness._fork, []

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(harness, "_fork", fork)
    return pids


def test_forked_forks_every_child_on_entry(monkeypatch):
    # every child is forked before the with-block's first statement, so the
    # children work while the block does this process's share (the trace
    # writer's children format their spans while this process formats span
    # 0), and the parts come back in order of w
    pids = _count_forks(monkeypatch)

    def work(w, part):
        part.write(f"child {w}".encode())

    with harness._forked(work, 3) as reaped:
        forked = list(pids)
        for pid in forked:
            os.kill(pid, 0)  # forked and not yet reaped
        parts = [part.read() for part in reaped]
    assert len(forked) == 3
    assert parts == [b"child 1", b"child 2", b"child 3"]
    _assert_reaped(forked)
    with harness._forked(work, 0) as reaped:
        assert list(reaped) == []
    assert pids == forked


def test_forked_failing_fork_kills_the_children_before_it(monkeypatch):
    # the second fork fails on entry: the first child is killed and reaped
    # and the with-block never runs
    pids = _count_forks(monkeypatch)
    counted = harness._fork

    def fork():
        if pids:
            raise OSError("no more processes")
        return counted()

    monkeypatch.setattr(harness, "_fork", fork)
    with pytest.raises(OSError, match="no more processes"):
        with harness._forked(lambda w, part: time.sleep(60), 3):
            raise AssertionError("the with-block ran")
    _assert_reaped(pids)
    assert len(pids) == 1


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("name", sorted(SWEEP_TEMPLATES))
def test_sweep_same_for_any_worker_count(monkeypatch, tmp_path, name,
                                         workers):
    # sizes dealt to forked workers give the serial result and bytes: four
    # sizes (8 workers is more than there are, so one forks per size but
    # the first) and a single size, which never forks
    template = SimConfig(topology=grid_topology(2, 2),
                         **SWEEP_TEMPLATES[name])
    pids = _count_forks(monkeypatch)
    for sizes in ([(2, 2), (3, 3), (2, 4), (1, 5)], [(3, 3)]):
        _force_workers(monkeypatch, 1)
        serial = scaling_sweep(sizes, template, seeds=3)
        write_sweep_csv(serial, tmp_path / "serial.csv")
        assert pids == []
        _force_workers(monkeypatch, workers)
        forked = scaling_sweep(sizes, template, seeds=3)
        write_sweep_csv(forked, tmp_path / "forked.csv")
        assert forked == serial
        assert ((tmp_path / "forked.csv").read_bytes()
                == (tmp_path / "serial.csv").read_bytes())
        assert len(pids) == min(workers, len(sizes)) - 1
        if pids:
            _assert_reaped(pids)
        pids.clear()


def test_short_sweep_never_forks(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("forked for a short sweep")
    monkeypatch.setattr(harness, "_fork", no_fork)
    template = SimConfig(topology=grid_topology(2, 2),
                         **SWEEP_TEMPLATES["lossy"])
    assert scaling_sweep([(2, 2), (3, 3), (4, 4), (6, 6)], template,
                         seeds=4).points
    assert main(["sweep", "--sizes", "2x2,3x3,4x4,5x5", "--seeds", "5",
                 "--rounds", "1500", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (64, 3)])
def test_sweep_workers_from_its_cells(monkeypatch, cpus, workers):
    # the 1,359 ordinary nodes of 2x2..32x32, 601 rounds and 8 seeds hold
    # 24 blocks of _SWEEP_BLOCK_CELLS: 3 workers at most, as many as the
    # CPUs allow. Evolving is patched out: the sizes' instants are zeros
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(harness, "_min_error_instants", lambda cfg, seeds: (
        np.zeros((len(seeds), cfg.topology.node_count), dtype=np.int64)))
    pids = _count_forks(monkeypatch)
    template = SimConfig(topology=grid_topology(2, 2), n_max=600, p=0.5)
    sizes = [(k, k) for k in (2, 4, 8, 16, 32)]
    result = scaling_sweep(sizes, template, seeds=8)
    assert len(pids) == workers - 1
    assert [p.instant_max for p in result.points] == [0.0] * 5


def test_shares_deal_largest_first_to_least_loaded():
    assert harness._shares([3, 15, 63, 255, 1023], 2) == [[4], [3, 2, 1, 0]]
    assert harness._shares([5, 5, 5, 5], 3) == [[0, 3], [1], [2]]
    assert harness._shares([4, 3, 3, 2], 2) == [[0, 3], [1, 2]]
    assert harness._shares([7], 1) == [[0]]


def _fail_sizes(monkeypatch, nodes, exc):
    """Two workers, and a _min_error_instants that raises ``exc`` for the
    size of ``nodes`` ordinary nodes; returns the list the pid of every
    child forked is appended to."""
    _force_workers(monkeypatch, 2)
    real_instants = harness._min_error_instants

    def instants(cfg, seeds):
        if cfg.topology.node_count == nodes:
            raise exc
        return real_instants(cfg, seeds)

    monkeypatch.setattr(harness, "_min_error_instants", instants)
    return _count_forks(monkeypatch)


# this process evolves 4x4, the larger; the child 2x2
_FAILING_SIZES = [(2, 2), (4, 4)]


def test_sweep_failing_child_raises_oserror_and_is_reaped(monkeypatch):
    pids = _fail_sizes(monkeypatch, 3, RuntimeError("child fails"))
    template = SimConfig(topology=grid_topology(2, 2), n_max=200)
    with pytest.raises(OSError, match="worker"):
        scaling_sweep(_FAILING_SIZES, template, seeds=2)
    _assert_reaped(pids)


def test_sweep_failing_parent_kills_and_reaps_children(monkeypatch):
    pids = _fail_sizes(monkeypatch, 15, KeyError("parent fails"))
    template = SimConfig(topology=grid_topology(2, 2), n_max=200)
    with pytest.raises(KeyError, match="parent fails"):
        scaling_sweep(_FAILING_SIZES, template, seeds=2)
    _assert_reaped(pids)


def test_cli_sweep_failing_child_exits_2(monkeypatch, tmp_path, capsys):
    pids = _fail_sizes(monkeypatch, 3, RuntimeError("child fails"))
    code = main(["sweep", "--sizes", "2x2,4x4", "--seeds", "2", "--rounds",
                 "200", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: sweep failed: worker")
    assert err.count("\n") == 1 and "Traceback" not in err
    _assert_reaped(pids)
    assert os.listdir(tmp_path) == []


def test_oversized_seeds_refused_before_any_run(no_sweep_evolution):
    # 2x2's 4 links: 2**30 seeds draw 2**32 links a round, one more seed is
    # too many. Drawing clocks, evolving and forking are patched out, so a
    # regression fails here instead of running until killed
    template = SimConfig(topology=grid_topology(2, 2))
    for seeds in (2**30 + 1, 9999999999999):
        with pytest.raises(ConfigInvalid, match="seeds of the 2x2 grid"):
            scaling_sweep([(2, 2)], template, seeds=seeds)
    with pytest.raises(AssertionError, match="started evolving"):
        scaling_sweep([(2, 2)], template, seeds=2**30)


def test_every_size_checked_before_any_evolves(no_sweep_evolution):
    # a grid past the link limit, and a size whose config would overflow
    # (N + 8 = 202 times 1e306), are refused before the sizes ahead of them
    # evolve
    template = SimConfig(topology=grid_topology(2, 2))
    with pytest.raises(ValueError, match="links to build or draw"):
        scaling_sweep([(32, 32), (99999, 99999)], template, seeds=8)
    huge = replace(template, init_max=1e306)
    with pytest.raises(ConfigInvalid, match="overflow"):
        scaling_sweep([(2, 2), (14, 14)], huge, seeds=2)


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


class _Stop(Exception):
    pass


def _stop(signum, frame):
    raise _Stop


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"),
                    reason="signals cannot be blocked here")
def test_signal_between_replacements_waits(tmp_path, monkeypatch):
    # a SIGTERM sent as the first file is replaced is handled only once the
    # second is in place too
    paths = [tmp_path / "trace.csv", tmp_path / "summary.csv"]
    real_replace = os.replace

    def replace_and_signal(src, dst):
        real_replace(src, dst)
        if dst == paths[0]:
            os.kill(os.getpid(), signal.SIGTERM)
    monkeypatch.setattr(os, "replace", replace_and_signal)
    previous = signal.signal(signal.SIGTERM, _stop)
    try:
        with pytest.raises(_Stop):
            with harness._replacing_all(paths) as news:
                for new in news:
                    with open(new, "w") as fh:
                        fh.write("new")
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert sorted(os.listdir(tmp_path)) == ["summary.csv", "trace.csv"]
    assert [p.read_text() for p in paths] == ["new", "new"]


def _oracle_summarize(trace):
    """The original summarize: the whole |errors| copy, one node at a time."""
    abs_err = np.abs(_oracle_errors(trace))
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


_FOLD_VALUES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 2.5]


@st.composite
def split_blocks(draw):
    """A (rounds, ...) float array drawn from _FOLD_VALUES, so it holds
    NaN, both zeros, both infinities and ties, and its rounds split into
    blocks at random, as (r0, r1) pairs."""
    shape = (draw(st.integers(1, 24)),) + tuple(
        draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    values = draw(st.lists(st.sampled_from(_FOLD_VALUES),
                           min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    ends = sorted(draw(st.sets(st.integers(0, shape[0]))) | {0, shape[0]})
    return np.array(values).reshape(shape), list(zip(ends, ends[1:]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(split_blocks())
def test_min_rounds_is_one_argmin_over_all_rows(case):
    # over any split, each column's round and value are those of one
    # np.argmin over all its rows: the earliest tie (0.0 and -0.0 are
    # equal) and the first NaN, which wins over any number
    values, spans = case
    best, at = harness._min_rounds((r0, values[r0:r1]) for r0, r1 in spans)
    want = np.argmin(values, axis=0)
    assert at.tolist() == want.tolist()
    assert (best.tobytes()
            == np.take_along_axis(values, want[None], axis=0)[0].tobytes())


def test_summarize_matches_oracle_on_runs():
    for kwargs in (REFERENCE, {**REFERENCE, "p": 0.6, "halt_on_detect": True}):
        tr = run(SimConfig(**kwargs))
        assert _summary_tuples(tr) == _oracle_summarize(tr)

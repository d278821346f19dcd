import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsync.detector import (DetectionEvent, DetectorConfig, OnlineDetector,
                              SeriesTooShort, _first_flips, detect,
                              filter_response, node_filter_input,
                              scan_polarity)
from hopsync.dynamics import steady_state_error
from hopsync.harness import RunTrace, SimConfig, run, summarize
from hopsync.model import build_matrices, grid_topology, line_topology

CF1 = DetectorConfig(c_f=1.0)
DEFAULT = DetectorConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(c_f=0.9)
    with pytest.raises(ValueError):
        DetectorConfig(c_f=1.06)
    for k in (-1, math.inf, math.nan, 1.5):
        with pytest.raises(ValueError):
            DetectorConfig(k_guard=k)


def test_event_validation():
    DetectionEvent(node_id=0, target_round=11, frozen_time=0.0)
    assert DetectionEvent(node_id=np.int64(3), target_round=11.0,
                          frozen_time=0.0) == DetectionEvent(3, 11, 0.0)
    for node_id, target_round in [(0, -1), (0, 1.5), (0, float("nan")),
                                  (-2.5, 11), (-1, 11), ("0", 11)]:
        with pytest.raises(ValueError):
            DetectionEvent(node_id=node_id, target_round=target_round,
                           frozen_time=0.0)


def test_detect_round_is_target_round_plus_3():
    # the round a node acts is derived from the flagged instant, wherever
    # the event comes from: run(), detect() or the online detector
    assert [f.name for f in fields(DetectionEvent)] == [
        "node_id", "target_round", "frozen_time"]
    assert DetectionEvent(0, 11, 0.0).detect_round == 14
    cfg = SimConfig(topology=grid_topology(4, 4), n_max=200, seed=6,
                    init_min=0.43, init_max=0.53)
    events = list(run(cfg).events)
    x = np.abs(np.linspace(-1, 1, 60))
    events.append(detect(x, CF1))
    online = OnlineDetector(CF1)
    events.append(next(e for e in map(online.push, x) if e is not None))
    assert len(events) > 2
    for e in events:
        assert e.detect_round == e.target_round + 3
    with pytest.raises(TypeError):
        DetectionEvent(node_id=0, detect_round=14, target_round=11,
                       frozen_time=0.0)


def test_constant_series_exactly_zero():
    for c in (5.0, -3.25, 0.001, 123456.0):
        y = filter_response(np.full(40, c), CF1)
        assert np.all(y == 0.0)


def test_unit_ramp_exactly_3_6():
    y = filter_response(np.arange(200, dtype=float), CF1)
    assert np.all(y == 3.6)


def test_window_indexing():
    # output m covers 3 <= m <= len-4; length len-6
    y = filter_response(np.arange(30, dtype=float), CF1)
    assert len(y) == 24


def test_series_too_short():
    with pytest.raises(SeriesTooShort):
        filter_response(np.arange(6, dtype=float), CF1)


def test_offset_invariance_exact_on_integer_series():
    rng = np.random.default_rng(2)
    x = rng.integers(-50, 50, size=80).astype(float)
    for c in (7.0, -19.0, 1024.0):
        assert np.array_equal(filter_response(x + c, CF1),
                              filter_response(x, CF1))


def test_offset_invariance_float_series():
    rng = np.random.default_rng(3)
    x = rng.normal(size=80)
    base = filter_response(x, CF1)
    shifted = filter_response(x + 0.7303, CF1)
    assert np.allclose(shifted, base, rtol=0, atol=1e-12)


def test_scale_equivariance_power_of_two_exact():
    rng = np.random.default_rng(4)
    x = rng.normal(size=80)
    for cfg in (CF1, DEFAULT):
        assert np.array_equal(filter_response(2.0 * x, cfg),
                              2.0 * filter_response(x, cfg))


def test_scale_equivariance_general():
    rng = np.random.default_rng(5)
    x = rng.normal(size=80)
    for alpha in (3.7, -0.21):
        assert np.allclose(filter_response(alpha * x, CF1),
                           alpha * filter_response(x, CF1), rtol=1e-12)


def test_peak_series_sign_flip_near_vertex():
    m = np.arange(30, dtype=float)
    x = -((m - 10.0) ** 2)
    y = filter_response(x, CF1)
    # y[j] refers to sample j+3
    assert y[9 - 3] > 0 and y[11 - 3] < 0


def test_detect_on_peak_within_one_of_vertex():
    m = np.arange(40, dtype=float)
    for vertex in (15.0, 20.0):
        for cfg in (CF1, DEFAULT):
            x = -((m - vertex) ** 2)
            event = detect(x, cfg)
            assert event is not None
            assert abs(event.target_round - vertex) <= 1


def test_affine_never_detects_at_cf1():
    n = np.arange(300, dtype=float)
    for a in (0.0, 1.0, -2.5, 0.003):
        for b in (0.0, 50.0, -170.0):
            x = a * n + b
            y = filter_response(x, CF1)
            # constant 3.6*a output up to last-bit rounding; never flips sign
            assert np.allclose(y, 3.6 * a, rtol=0, atol=1e-12 * max(abs(a), 1))
            if a > 0:
                assert np.all(y > 0)
            elif a < 0:
                assert np.all(y < 0)
            assert detect(x, CF1) is None


def test_steep_crossing_affine_detects_at_default_cf():
    # at c_f != 1 the output is 0.9*(c_f-1)*x(m) + 1.8*a*(c_f+1), which
    # crosses zero when x passes -2002*a; the affine immunity is a c_f = 1
    # property
    n = np.arange(1100, dtype=float)
    x = n - 3000.0
    assert detect(x, DEFAULT) is not None


def test_short_series_no_detection():
    assert detect(np.arange(5, dtype=float), CF1) is None


@pytest.mark.parametrize("call", [
    lambda: detect(np.ones((30, 2)), CF1),
    lambda: detect(np.float64(3.0), CF1),
    lambda: scan_polarity(np.ones((30, 2)), 11),
    lambda: node_filter_input(np.ones((5, 2)), 0.001),
    # clocks are checked before filtering, so a too-short series or one
    # whose rule fires still rejects them
    lambda: detect(np.abs(np.linspace(-1, 1, 60)), CF1, clocks=np.zeros(5)),
    lambda: detect(np.ones(5), CF1, clocks=np.zeros(4)),
    lambda: detect(np.abs(np.linspace(-1, 1, 60)), CF1,
                   clocks=np.zeros((60, 2))),
], ids=["detect_2d", "detect_0d", "scan_polarity_2d", "node_filter_input_2d",
        "detect_short_clocks", "detect_too_short_series_clocks",
        "detect_2d_clocks"])
def test_not_one_dimensional_rejected(call):
    with pytest.raises(ValueError, match="one-dimensional"):
        call()


@pytest.mark.parametrize("k_guard, first_m", [
    (5.5, 0), (5, 2.5), (math.inf, 0), (math.nan, 0), ("5", 0), (-3, 0),
    (0, -1)])
def test_scan_rejects_bad_counts(k_guard, first_m):
    # DetectorConfig's rule for k_guard, and the same for first_m
    with pytest.raises(ValueError, match="^(k_guard|first_m) must be a"):
        scan_polarity(np.ones(30), k_guard, first_m)


@pytest.mark.parametrize("delta_t", [0.0, -1.0, math.nan, math.inf])
def test_node_filter_input_rejects_bad_delta_t(delta_t):
    with pytest.raises(ValueError,
                       match="^delta_t must be positive and finite$"):
        node_filter_input(np.ones(10), delta_t)


# +-0.0, NaN, +-inf, subnormals and the largest double, drawn among any
# float64 clocks
_ODD_CLOCKS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.5e-310,
               1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(clocks=st.lists(st.lists(st.one_of(st.sampled_from(_ODD_CLOCKS),
                                          st.floats()),
                                min_size=3, max_size=3),
                       min_size=1, max_size=40),
       delta_t=st.sampled_from([1.0, 0.001, 0.1, 5e-324]))
def test_node_filter_input_is_the_runs_abs_error(clocks, delta_t):
    # a node's detector input is the |e| a run reads, bit for bit
    trace = RunTrace(config=SimConfig(topology=line_topology(2),
                                      delta_t=delta_t),
                     times=clocks, targets=[-1] * 3)
    for i in range(trace.times.shape[1]):
        got = node_filter_input(trace.times[:, i], delta_t)
        want = np.abs(trace.errors[:, i])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_scan_first_flip():
    y = np.ones(60)
    y[40:] = -1.0
    assert scan_polarity(y, k_guard=11, first_m=0) == 40


def test_scan_early_flip_suppressed_not_deferred():
    y = np.ones(60)
    y[5:] = -1.0
    y[30:] = 1.0
    # the m=5 flip is below the guard and discarded; the next flip fires
    assert scan_polarity(y, k_guard=11, first_m=0) == 30


def test_scan_flip_held_through_guard_never_fires():
    y = np.ones(60)
    y[5:] = -1.0
    assert scan_polarity(y, k_guard=11, first_m=0) is None


def test_scan_zero_carry():
    y = np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0, -1.0])
    assert scan_polarity(y, k_guard=0, first_m=0) == 5
    same = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    assert scan_polarity(same, k_guard=0, first_m=0) is None
    all_zero = np.zeros(30)
    assert scan_polarity(all_zero, k_guard=0, first_m=0) is None


def test_detect_guard_boundary():
    # flip exactly at m = k_guard is accepted
    m = np.arange(40, dtype=float)
    x = -((m - 11.0) ** 2)
    event = detect(x, DetectorConfig(c_f=1.0, k_guard=11))
    assert event is not None and event.target_round >= 11


def test_detect_rounds_and_frozen_time():
    m = np.arange(40, dtype=float)
    x = -((m - 15.0) ** 2)
    clocks = np.arange(40, dtype=float) * 10.0
    event = detect(x, CF1, node_id=3, clocks=clocks)
    assert event.node_id == 3
    assert event.detect_round == event.target_round + 3
    assert event.frozen_time == clocks[event.detect_round]


@pytest.mark.parametrize("node_id", [-1, 1.5, math.nan])
def test_bad_node_id_is_refused_whether_or_not_the_rule_fires(node_id):
    # the online detector refuses it before any sample, so no event is lost
    # at the firing one; detect refuses it on a series that never fires too
    m = np.arange(40, dtype=float)
    with pytest.raises(ValueError, match="node_id"):
        OnlineDetector(DEFAULT, node_id=node_id)
    for x in (-((m - 15.0) ** 2), m, m[:3]):
        with pytest.raises(ValueError, match="node_id"):
            detect(x, CF1, node_id=node_id)


def test_online_bad_clock_at_the_firing_sample_keeps_the_event():
    # the clock is refused before the window or the polarity moves, so the
    # same sample pushed again with a good clock still fires
    m = np.arange(40, dtype=float)
    x = -((m - 15.0) ** 2)
    want = detect(x, CF1, clocks=m)
    online = OnlineDetector(CF1)
    for i in range(want.detect_round):
        assert online.push(x[i], clock=m[i]) is None
    with pytest.raises(ValueError):
        online.push(x[want.detect_round], clock="bad")
    assert online.push(x[want.detect_round],
                       clock=m[want.detect_round]) == want


def test_node_filter_input_rectifies_deviation():
    # |clock - round*delta_t|: V-shaped through a crossing, so the filter
    # sees an extremum there; the signed deviation would stay monotone
    dt = 1e-3
    t = np.array([0.0, 0.0025, 0.005])  # node ahead, then behind
    d = node_filter_input(t, dt)
    assert np.allclose(d, [0.0, 0.0015, 0.003])
    assert np.all(d >= 0.0)


def test_on_ramp_input_is_zero_and_silent():
    dt = 1e-3
    t = dt * np.arange(50, dtype=float)
    d = node_filter_input(t, dt)
    assert np.all(d == 0.0)
    assert detect(d, CF1) is None


def test_steady_trajectory_constant_input_no_false_fire():
    # a node lagging the ramp by a constant produces a constant input, so
    # the output is the constant 0.9*(c_f - 1)*lag and never flips
    dt = 1e-3
    lag = 0.0037
    t = dt * np.arange(80, dtype=float) - lag
    d = node_filter_input(t, dt)
    y = filter_response(d, DEFAULT)
    assert np.allclose(y, 0.9 * (1.002 - 1.0) * lag, rtol=1e-9)
    assert np.all(y > 0.0)
    assert detect(d, DEFAULT) is None


def _oracle_sign(v):
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def _oracle_scan_polarity(y, k_guard, first_m):
    """The original one-sample-at-a-time rule, kept as the reference."""
    prev = 0
    for j, val in enumerate(y):
        s = _oracle_sign(val)
        if s == 0:
            continue
        m = first_m + j
        if prev != 0 and s != prev and m >= k_guard:
            return m
        prev = s
    return None


# magnitudes whose sign is easy to get wrong: zeros of both signs, NaN,
# subnormals and huge values
_MAGNITUDES = [0.0, -0.0, math.nan, 5e-324, 1e-300, 0.5, 1.0, 3.6, 1e300]


@st.composite
def output_blocks(draw):
    """(L, N) filter outputs: runs of one polarity, zeros and NaN mixed in."""
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(1, 6))
    flip_p = draw(st.sampled_from([0.02, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    signs = np.cumprod(np.where(rng.random((rows, cols)) < flip_p, -1.0, 1.0),
                       axis=0) * rng.choice([-1.0, 1.0], size=cols)
    mags = np.array(_MAGNITUDES)[rng.integers(len(_MAGNITUDES), size=(rows, cols))]
    return signs * mags


@settings(max_examples=150, deadline=None)
@given(y=output_blocks(), k=st.integers(0, 20), first_m=st.sampled_from([0, 3]))
def test_first_flips_matches_scalar_oracle(y, k, first_m):
    m, _ = _first_flips(y, k, first_m, np.zeros(y.shape[1], np.int8))
    for i in range(y.shape[1]):
        want = _oracle_scan_polarity(y[:, i], k, first_m)
        assert m[i] == (-1 if want is None else want)
        assert scan_polarity(y[:, i], k, first_m) == want


@settings(max_examples=150, deadline=None)
@given(y=output_blocks(), k=st.integers(0, 20), first_m=st.sampled_from([0, 3]),
       cut=st.floats(0.0, 1.0))
def test_first_flips_split_carries_sign(y, k, first_m, cut):
    c = int(cut * y.shape[0])
    whole, _ = _first_flips(y, k, first_m, np.zeros(y.shape[1], np.int8))
    head, sign = _first_flips(y[:c], k, first_m, np.zeros(y.shape[1], np.int8))
    tail, _ = _first_flips(y[c:], k, first_m + c, sign)
    assert np.array_equal(np.where(head >= 0, head, tail), whole)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6),
       zeros=st.booleans(),
       cf=st.sampled_from([1.0, 1.002, 0.95, 1.05]),
       k=st.integers(0, 20))
def test_online_matches_offline(seed, zeros, cf, k):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=60)
    if zeros:
        x[rng.integers(0, 60, size=10)] = 0.0
    clocks = rng.normal(size=60)
    cfg = DetectorConfig(c_f=cf, k_guard=k)
    offline = detect(x, cfg, node_id=5, clocks=clocks)
    online = OnlineDetector(cfg, node_id=5)
    streamed = None
    for i in range(60):
        got = online.push(x[i], clock=clocks[i])
        if got is not None and streamed is None:
            streamed = got
    assert (offline is None) == (streamed is None)
    if offline is not None:
        assert streamed.target_round == offline.target_round
        assert streamed.detect_round == offline.detect_round
        assert streamed.frozen_time == offline.frozen_time


def test_detected_error_quality_on_grid_run():
    # end-to-end on the 16-node grid: every firing node's error at its
    # flagged instant is at or below its long-run error, and for most nodes
    # within 10x its minimum
    topo = grid_topology(4, 4)
    dt = 1e-3
    ess = steady_state_error(build_matrices(topo), dt).ess
    within, total = 0, 0
    for seed in (6, 7, 18):
        cfg = SimConfig(topology=topo, delta_t=dt, n_max=500, seed=seed,
                        init_min=0.43, init_max=0.53)
        rows = summarize(run(cfg))
        for row in rows:
            assert row.detected_instant is not None
            assert row.detected_error_value <= ess[row.node_id]
            total += 1
            if row.detected_error_value <= 10.0 * max(row.min_error_value,
                                                      1e-30):
                within += 1
    assert within > total / 2

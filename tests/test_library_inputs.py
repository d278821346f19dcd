"""The library's value types and topology generators, given any field or
argument values: each either constructs or refuses with ValueError or
TypeError, never with an error from deep inside the constructor
(AttributeError, IndexError, OverflowError). What constructs holds a float
in every real field and an int in every count."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopsync import (ChannelModel, ClockState, DetectionEvent, DetectorConfig,
                     ErrorState, RunTrace, SimConfig, SteadyStateResult,
                     SystemMatrices, Topology, grid_topology, line_topology,
                     node_filter_input, random_topology, ring_topology,
                     steady_state_error)

# zero, a negative zero, a subnormal, huge and non-finite floats, an int past
# 64 bits, a negative, a fraction, a bool, an int past a flag, a string and
# None: values that no field wants, each one of them somewhere
ODD = [0, -0.0, 1e-320, 1e308, math.nan, math.inf, 2**64, -1, 1.5, True, 2,
       "x", None]
ODDS = st.sampled_from(ODD)


def _valid(*values):
    return st.sampled_from(values)


GRID = grid_topology(2, 2)
IDS = _valid(0, 1, 2, 3)
# each field's valid values; a field whose list or tuple can also hold odd
# values has a (valid, odd) pair of strategies, any other draws ODD when odd
FIELDS = {
    SimConfig: dict(
        topology=_valid(GRID), delta_t=_valid(0.001, 0.5),
        n_max=_valid(500, 30), p=_valid(1.0, 0.5), seed=_valid(0, 7),
        init_min=_valid(0.0, -1.0), init_max=_valid(None, 0.1),
        detector=_valid(DetectorConfig()),
        halt_on_detect=_valid(False, True, 0, 1, np.True_)),
    DetectorConfig: dict(c_f=_valid(1.002, 0.95), k_guard=_valid(11, 0)),
    Topology: dict(
        node_count=_valid(3, 4),
        edges=(st.lists(st.tuples(IDS, IDS), max_size=4),
               ODDS | st.lists(st.tuples(IDS | ODDS, IDS | ODDS),
                               min_size=1, max_size=4))),
    RunTrace: dict(
        config=_valid(SimConfig(GRID)),
        times=_valid(np.zeros((5, 3)), [[0.0, 1.0, 2.0]] * 6),
        targets=(_valid(np.full(3, -1), [0, -1, 1]),
                 ODDS | st.lists(IDS | ODDS, min_size=1, max_size=4))),
    DetectionEvent: dict(node_id=_valid(0, 2), target_round=_valid(0, 5),
                         frozen_time=_valid(0.0, 1.5)),
    ChannelModel: dict(p=_valid(1.0, 0.5), seed=_valid(0, 2**70)),
    grid_topology: dict(rows=_valid(1, 2, 3.0), cols=_valid(2, 3)),
    line_topology: dict(n=_valid(2, 5.0)),
    ring_topology: dict(n=_valid(3, 6)),
    random_topology: dict(n=_valid(2, 6.0), edge_prob=_valid(0.0, 0.5, 1),
                          seed=_valid(0, 7.0, 2**70)),
    ClockState: dict(times=_valid(np.zeros(3), [0.0, 1.0]),
                     round=_valid(0, 5.0), delta_t=_valid(0.001, 1)),
    ErrorState: dict(errors=_valid(np.zeros(3), [0.0, -1.0])),
    SteadyStateResult: dict(ess=_valid(np.ones(3), [1.0])),
    SystemMatrices: dict(a=_valid(np.eye(2), [[0.5]]),
                         b=_valid(np.zeros(2), [0.5])),
}
# what each kind constructs holds a float in each of these fields, an int in
# each count and a read-only float64 array in each array
REALS = {SimConfig: ("delta_t", "p", "init_min", "init_max"),
         DetectorConfig: ("c_f",), DetectionEvent: ("frozen_time",),
         ChannelModel: ("p",), ClockState: ("delta_t",)}
COUNTS = {SimConfig: ("n_max", "seed"), DetectorConfig: ("k_guard",),
          Topology: ("node_count",),
          DetectionEvent: ("node_id", "target_round"),
          ChannelModel: ("seed",), ClockState: ("round",)}
ARRAYS = {ClockState: ("times",), ErrorState: ("errors",),
          SteadyStateResult: ("ess",), SystemMatrices: ("a", "b")}


@st.composite
def _cases(draw, kind):
    """(kind, field values) with one or two fields odd, the rest valid."""
    fields = FIELDS[kind]
    odd = draw(st.sets(st.sampled_from(sorted(fields)), min_size=1,
                       max_size=2))
    kwargs = {}
    for name, pools in fields.items():
        valid, wrong = pools if isinstance(pools, tuple) else (pools, ODDS)
        kwargs[name] = draw(wrong if name in odd else valid, label=name)
    return kind, kwargs


@settings(max_examples=900, deadline=None, derandomize=True)
@given(case=st.one_of([_cases(kind) for kind in FIELDS]))
@example(case=(Topology, dict(node_count=3, edges=[(0, 1.5), (1, 3)])))
@example(case=(SimConfig, dict(topology=GRID, halt_on_detect=2)))
@example(case=(SimConfig, dict(topology=GRID, halt_on_detect="no")))
@example(case=(SimConfig, dict(topology="grid:2x2")))
@example(case=(SimConfig, dict(topology=GRID, detector=None)))
@example(case=(DetectorConfig, dict(c_f=True)))
@example(case=(RunTrace, dict(config=SimConfig(GRID), times=np.zeros((5, 3)),
                              targets=np.array([True, False, False]))))
def test_constructs_or_refuses_by_value_or_type(case):
    kind, kwargs = case
    try:
        value = kind(**kwargs)
    except (ValueError, TypeError):
        return
    made = type(value)
    for name in REALS.get(made, ()):
        assert type(getattr(value, name)) is float, name
    for name in COUNTS.get(made, ()):
        assert type(getattr(value, name)) is int, name
    for name in ARRAYS.get(made, ()):
        array = getattr(value, name)
        assert array.dtype == np.float64 and not array.flags.writeable, name
    if kind is RunTrace:
        assert value.targets.dtype == np.int64
        assert not value.targets.flags.writeable
    if kind is SimConfig:
        # a flag, stored as the bool it spells
        assert value.halt_on_detect is bool(kwargs["halt_on_detect"])
    if kind is Topology:
        # exactly the ids it was given, each pair low-high, pairs sorted
        want = sorted(tuple(sorted(pair)) for pair in kwargs["edges"])
        assert value.edges == tuple(want)
        assert all(type(i) is int for pair in value.edges for i in pair)


@pytest.mark.parametrize("call, name", [
    (lambda: SimConfig(GRID, delta_t=True), "delta_t"),
    (lambda: SimConfig(GRID, p=True), "p"),
    (lambda: SimConfig(GRID, init_max=True), "init_max"),
    (lambda: SimConfig(GRID, init_min="0"), "init_min"),
    (lambda: SimConfig(GRID, p="0.5"), "p"),
    (lambda: ChannelModel(p=True), "p"),
    (lambda: DetectorConfig(c_f=True), "c_f"),
    (lambda: DetectorConfig(c_f="1"), "c_f"),
    (lambda: ClockState(np.zeros(2), 0, True), "delta_t"),
    (lambda: steady_state_error(GRID, True), "delta_t"),
    (lambda: node_filter_input(np.zeros(9), True), "delta_t"),
    (lambda: DetectionEvent(0, 1, "x"), "frozen_time"),
    (lambda: DetectionEvent(0, 1, np.True_), "frozen_time"),
])
def test_real_field_refuses_a_bool_or_a_string(call, name):
    # a bool is an int to Python, but no period, probability, gain or clock
    with pytest.raises(TypeError, match=f"^{name} must be a real number$"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: grid_topology(True, 2), "rows"),
    (lambda: line_topology(np.True_), "n"),
    (lambda: ChannelModel(1.0, seed=True), "seed"),
    (lambda: SimConfig(GRID, seed=True), "seed"),
    (lambda: SimConfig(GRID, n_max=np.True_), "n_max"),
    (lambda: DetectionEvent(True, 1, 0.0), "node_id"),
    (lambda: DetectionEvent(0, np.False_, 0.0), "target_round"),
    (lambda: DetectorConfig(k_guard=False), "k_guard"),
    (lambda: Topology(3, np.array([[True, False]])), "node id"),
    (lambda: Topology(3, ((np.True_, np.False_),)), "node id"),
])
def test_count_field_refuses_a_bool(call, name):
    # a bool is an int to Python, but no count, seed, round or node id
    with pytest.raises(TypeError, match=f"^{name} must be an integer, not a "
                                        f"bool$"):
        call()


def test_frozen_time_may_be_nan():
    # the detector's event when no clock is given
    assert math.isnan(DetectionEvent(0, 1, math.nan).frozen_time)

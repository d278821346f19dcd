"""The library's value types, given any field values: each either constructs
or refuses with ValueError or TypeError, never with an error from deep
inside the constructor (AttributeError, IndexError, OverflowError)."""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopsync import (ChannelModel, DetectionEvent, DetectorConfig, RunTrace,
                     SimConfig, Topology, grid_topology)

# zero, a negative zero, a subnormal, huge and non-finite floats, an int past
# 64 bits, a negative, a fraction, a bool, an int past a flag, a string and
# None: values that no field wants, each one of them somewhere
ODD = [0, -0.0, 1e-320, 1e308, math.nan, math.inf, 2**64, -1, 1.5, True, 2,
       "x", None]
ODDS = st.sampled_from(ODD)


def _valid(*values):
    return st.sampled_from(values)


GRID = grid_topology(2, 2)
EVENT = DetectionEvent(node_id=0, target_round=1, frozen_time=0.0)
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
        times=_valid(np.zeros((4, 3)), [[0.0, 1.0]]),
        events=(_valid((), (EVENT,)),
                ODDS | st.lists(_valid(EVENT) | ODDS, min_size=1,
                                max_size=2).map(tuple))),
    DetectionEvent: dict(node_id=_valid(0, 2), target_round=_valid(0, 5),
                         frozen_time=_valid(0.0, 1.5)),
    ChannelModel: dict(p=_valid(1.0, 0.5), seed=_valid(0, 2**70)),
}


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


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=st.one_of([_cases(kind) for kind in FIELDS]))
@example(case=(Topology, dict(node_count=3, edges=[(0, 1.5), (1, 3)])))
@example(case=(SimConfig, dict(topology=GRID, halt_on_detect=2)))
@example(case=(SimConfig, dict(topology=GRID, halt_on_detect="no")))
@example(case=(SimConfig, dict(topology="grid:2x2")))
@example(case=(SimConfig, dict(topology=GRID, detector=None)))
@example(case=(RunTrace, dict(config=SimConfig(GRID), times=np.zeros((4, 3)),
                              events=(1,))))
def test_constructs_or_refuses_by_value_or_type(case):
    kind, kwargs = case
    try:
        value = kind(**kwargs)
    except (ValueError, TypeError):
        return
    if kind is SimConfig:
        # a flag, stored as the bool it spells
        assert value.halt_on_detect is bool(kwargs["halt_on_detect"])
    if kind is Topology:
        # exactly the ids it was given, each pair low-high, pairs sorted
        want = sorted(tuple(sorted(pair)) for pair in kwargs["edges"])
        assert value.edges == tuple(want)
        assert all(type(i) is int for pair in value.edges for i in pair)

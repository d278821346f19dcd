import numpy as np

from hopsync import kernels
from hopsync.channel import ChannelModel, sample_masks
from hopsync.dynamics import ClockState, step
from hopsync.model import build_matrices, grid_topology


def _setup(p=0.7, rounds=120, seed=11):
    topo = grid_topology(4, 4)
    eu, ev = topo.edge_arrays()
    masks = sample_masks(ChannelModel(p=p, seed=seed), topo, rounds)
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(0.0, 0.1, topo.node_count)
    return topo, eu, ev, t0, masks


def test_run_matches_dense_steps():
    # the edge-wise kernel and the dense matrix recursion agree closely
    topo, eu, ev, t0, masks = _setup(p=1.0, rounds=200)
    out = kernels.run_rounds(t0, eu, ev, topo.node_count, masks, 1e-3)
    mats = build_matrices(topo)
    state = ClockState(times=t0, round=0, delta_t=1e-3)
    for rnd in range(200):
        state = step(state, mats)
        scale = max(np.max(np.abs(state.times)), 1e-30)
        assert np.max(np.abs(out[rnd + 1] - state.times)) / scale < 1e-9


def test_hold_when_no_edges():
    topo, eu, ev, t0, _ = _setup()
    masks = np.zeros((10, 24), dtype=bool)
    out = kernels.run_rounds(t0, eu, ev, topo.node_count, masks, 1e-3)
    for rnd in range(11):
        assert np.array_equal(out[rnd], t0)


def test_gateway_only_node_tracks_ramp():
    # one node, one gateway edge: clock copies delta_t * (round) each step
    from hopsync.model import line_topology
    topo = line_topology(2)
    eu, ev = topo.edge_arrays()
    masks = np.ones((5, 1), dtype=bool)
    out = kernels.run_rounds(np.array([9.9]), eu, ev, 1, masks, 1.0)
    assert np.array_equal(out[:, 0], [9.9, 0.0, 1.0, 2.0, 3.0, 4.0])


def test_round0_resumes_exactly():
    # split one long run into chained single-round calls at an offset
    topo, eu, ev, t0, masks = _setup(rounds=60)
    full = kernels.run_rounds(t0, eu, ev, topo.node_count, masks, 1e-3)
    t = t0.copy()
    for rnd in range(60):
        stepped = kernels.run_rounds(t, eu, ev, topo.node_count,
                                     masks[rnd:rnd + 1], 1e-3, round0=rnd)
        t = stepped[1]
        assert np.array_equal(t, full[rnd + 1])


def test_run_deterministic():
    topo, eu, ev, t0, masks = _setup()
    a = kernels.run_rounds(t0, eu, ev, topo.node_count, masks, 1e-3)
    b = kernels.run_rounds(t0, eu, ev, topo.node_count, masks, 1e-3)
    assert np.array_equal(a, b)


def test_filter_output_length():
    x = np.arange(50, dtype=float)
    assert len(kernels.filter_series(x, 1.0)) == 44


def test_filter_block_matches_columns():
    # a (samples, columns) block filters each column with the same bits
    rng = np.random.default_rng(1)
    x = rng.normal(size=(90, 13))
    for cf in (1.0, 1.002, 0.95):
        block = kernels.filter_series(x, cf)
        assert block.shape == (84, 13)
        for i in range(13):
            assert np.array_equal(block[:, i],
                                  kernels.filter_series(x[:, i].copy(), cf))

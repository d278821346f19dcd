import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopsync import dynamics
from hopsync.dynamics import (ClockState, DimensionMismatch, ErrorState,
                              NotConvergent, SteadyStateResult, error_of,
                              error_step, steady_state_error, step)
from hopsync.harness import SimConfig, run
from hopsync.model import (SystemMatrices, Topology, _averaging_entries,
                           _hop_levels, build_matrices, effective_matrices,
                           generate_topology, grid_topology, has_spanning_path,
                           line_topology, random_topology)

LINE = build_matrices(line_topology(3))
SINGLE = build_matrices(line_topology(2))


def test_step_line_example():
    state = ClockState(times=np.array([10.0, 6.0]), round=10, delta_t=1.0)
    nxt = step(state, LINE)
    assert nxt.round == 11
    assert np.array_equal(nxt.times, [8.0, 10.0])


def test_step_single_node_copies_ramp():
    state = ClockState(times=np.array([123.0]), round=0, delta_t=1.0)
    for n in range(1, 30):
        state = step(state, SINGLE)
        assert error_of(state).errors[0] == 1.0  # exactly delta_t, any start


def test_step_dimension_mismatch():
    state = ClockState(times=np.array([1.0, 2.0, 3.0]), round=0, delta_t=1.0)
    with pytest.raises(DimensionMismatch):
        step(state, LINE)


def test_error_of_examples():
    state = ClockState(times=np.array([4.5, 5.25]), round=5, delta_t=1.0)
    assert np.array_equal(error_of(state).errors, [0.5, -0.25])
    on_ramp = ClockState(times=np.full(2, 7.0), round=7, delta_t=1.0)
    assert np.array_equal(error_of(on_ramp).errors, [0.0, 0.0])


def test_error_step_examples():
    assert np.array_equal(
        error_step(ErrorState(errors=np.zeros(2)), LINE, 1.0).errors, [1.0, 1.0])
    fixed = error_step(ErrorState(errors=np.array([3.0, 4.0])), LINE, 1.0)
    assert np.array_equal(fixed.errors, [3.0, 4.0])  # steady-state fixed point
    assert np.array_equal(
        error_step(ErrorState(errors=np.array([7.0])), SINGLE, 1.0).errors, [1.0])


def test_steady_state_line_and_single():
    assert np.allclose(steady_state_error(SINGLE, 1.0).ess, [1.0], atol=1e-15)
    ess = steady_state_error(LINE, 1.0).ess
    assert np.allclose(ess, [3.0, 4.0], atol=1e-12)


def test_steady_state_hand_elimination_oracle():
    # (I - A) x = 1: forward-eliminate [[1, -0.5], [-1, 1]] by hand
    # row2 += row1 -> [[1, -0.5], [0, 0.5]] | [1, 2] -> x2 = 4, x1 = 3
    lhs = np.eye(2) - LINE.a
    hand = np.array([3.0, 4.0])
    assert np.allclose(lhs @ hand, [1.0, 1.0], atol=0)
    assert np.allclose(steady_state_error(LINE, 1.0).ess, hand, atol=1e-12)


def test_steady_state_matches_iterated_recursion():
    err = ErrorState(errors=np.zeros(2))
    for _ in range(10_000):
        err = error_step(err, LINE, 1.0)
    assert np.allclose(err.errors, steady_state_error(LINE, 1.0).ess, atol=1e-12)


def test_steady_state_delta_t_scaling_exact():
    mats = build_matrices(grid_topology(4, 4))
    small = steady_state_error(mats, 1e-3).ess
    big = steady_state_error(mats, 2e-3).ess
    assert np.array_equal(big, 2.0 * small)  # power-of-two scaling is exact


def test_steady_state_positive_on_connected():
    for topo in (line_topology(5), grid_topology(3, 4), random_topology(9, 0.8, 3)):
        ess = steady_state_error(build_matrices(topo), 1e-3).ess
        assert np.all(np.isfinite(ess)) and np.all(ess > 0)


def test_steady_state_not_convergent_when_disconnected():
    # components {gw, n0} and {n1, n2}: no isolated node, but unreachable pair
    topo = Topology(node_count=3, edges=((0, 3), (1, 2)))
    mats = build_matrices(topo)
    with pytest.raises(NotConvergent):
        steady_state_error(mats, 1e-3)


def _dense_steady_state(mats, delta_t):
    """The dense reference solve of (I - a) x = delta_t * 1."""
    return np.linalg.solve(np.eye(mats.n) - mats.a, np.full(mats.n, delta_t))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 25), prob=st.floats(0.05, 1.0),
       seed=st.integers(0, 10**6),
       dt=st.sampled_from([1e-3, 1.0, 0.37, 2.0**-20]))
def test_steady_state_topology_equals_matrices(n, prob, seed, dt):
    # the sparse entries built from the edges and the nonzeros of the dense
    # matrices give the same bits, and both agree with a dense solve; without
    # a spanning path there is no steady state
    topo = random_topology(n, prob, seed=seed)
    if not has_spanning_path(topo):
        with pytest.raises(NotConvergent):
            steady_state_error(topo, dt)
        return
    mats = build_matrices(topo)
    from_topo = steady_state_error(topo, dt).ess
    from_mats = steady_state_error(mats, dt).ess
    assert np.array_equal(from_topo, from_mats)
    want = _dense_steady_state(mats, dt)
    assert np.max(np.abs(from_topo - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("topo", [grid_topology(4, 4), grid_topology(60, 60),
                                  line_topology(7), random_topology(30, 0.3, 0)])
def test_steady_state_entry_points_bit_identical(topo):
    mats = build_matrices(topo)
    assert np.array_equal(steady_state_error(topo, 1e-3).ess,
                          steady_state_error(mats, 1e-3).ess)


@pytest.mark.parametrize("as_matrices, calls", [(False, 1), (True, 2)])
def test_steady_state_hop_level_searches(monkeypatch, as_matrices, calls):
    # a topology's links run both ways, so the levels of the reachability
    # search already are the levels over links taken both ways; matrices may
    # hold one-way links and need the second search
    topo = grid_topology(5, 5)
    seen = []

    def counted(*args):
        seen.append(args)
        return _hop_levels(*args)

    monkeypatch.setattr(dynamics, "_hop_levels", counted)
    system = build_matrices(topo) if as_matrices else topo
    got = steady_state_error(system, 1e-3).ess
    assert len(seen) == calls
    monkeypatch.undo()
    assert np.array_equal(got, steady_state_error(build_matrices(topo),
                                                  1e-3).ess)


def test_steady_state_one_way_link_skipping_a_level():
    # a one-way cycle gw -> 0 -> 1 -> ... -> 5 -> 0: along the links node 5
    # is 6 hops out, yet node 0 hears it, so hop levels taken one way would
    # not make (I - a) block tridiagonal
    n = 6
    a = np.zeros((n, n))
    a[np.arange(1, n), np.arange(n - 1)] = 1.0
    a[0, n - 1] = 0.25
    b = np.zeros(n)
    b[0] = 0.75
    mats = SystemMatrices(a, b)
    rows, cols = np.nonzero(a)
    src = np.concatenate([cols, [n]])
    dst = np.concatenate([rows, [0]])
    one_way = _hop_levels(n, src, dst)
    assert one_way[n - 1] - one_way[0] == n - 1
    want = _dense_steady_state(mats, 1e-3)
    got = steady_state_error(mats, 1e-3).ess
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("n", [3, 50])
def test_steady_state_one_level_wheel(n):
    # every node hears the gateway, so all of them form one level: a wheel
    # (a ring of n nodes around the gateway) is one dense block
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
    topo = Topology(node_count=n, edges=tuple(edges))
    mats = build_matrices(topo)
    got = steady_state_error(topo, 1e-3).ess
    want = _dense_steady_state(mats, 1e-3)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def test_steady_state_sparse_random_residual():
    # 2999 nodes in a few wide levels; a dense reference would be slow, so
    # check the residual of (I - a) x = delta_t * 1 from the sparse entries
    topo = generate_topology("random:3000:0.003")
    assert has_spanning_path(topo)
    dt = 1e-3
    x = steady_state_error(topo, dt).ess
    rows, cols, vals, _ = _averaging_entries(
        topo, np.ones(len(topo.edges), dtype=bool))
    ax = np.bincount(rows, weights=vals * x[cols], minlength=x.size)
    assert np.all(x >= dt)
    assert np.max(np.abs(x - ax - dt)) <= 1e-9 * dt


@st.composite
def _one_way_systems(draw):
    """Random SystemMatrices with one-way links and stochastic rows."""
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.05, 0.6))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, (n, n + 1)) * (rng.random((n, n + 1)) < density)
    w[:, :n][np.eye(n, dtype=bool)] = 0.0
    w[w.sum(axis=1) == 0, n] = 1.0  # a node hearing nothing hears the gateway
    w /= w.sum(axis=1, keepdims=True)
    return SystemMatrices(w[:, :n], w[:, n])


@settings(max_examples=80, deadline=None)
@given(mats=_one_way_systems())
def test_steady_state_one_way_links_match_dense(mats):
    n = mats.n
    rows, cols = np.nonzero(mats.a)
    heard = np.flatnonzero(mats.b)
    levels = _hop_levels(n, np.concatenate([cols, np.full(heard.size, n)]),
                         np.concatenate([rows, heard]))
    if levels.min() < 0:
        with pytest.raises(NotConvergent):
            steady_state_error(mats, 1.0)
        return
    want = _dense_steady_state(mats, 1.0)
    got = steady_state_error(mats, 1.0).ess
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


SPLIT = Topology(node_count=3, edges=((0, 3), (1, 2)))
# nodes 1..6 form a 2x3 grid that cannot hear the gateway; the LU of this
# singular (I - a) meets no exactly zero pivot, so only the reachability rule
# keeps it from returning finite garbage
SPLIT_GRID = Topology(node_count=7, edges=(
    (0, 7), (1, 2), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (5, 6)))


@pytest.mark.parametrize("system", [
    SPLIT,
    SPLIT_GRID,
    build_matrices(SPLIT_GRID),
    # node 1 has no neighbor at all
    Topology(node_count=2, edges=((0, 2),)),
    # node 0's only link is down, so it holds: a[0][0] = 1
    effective_matrices(Topology(node_count=2, edges=((0, 1), (1, 2))),
                       [False, True]),
    # hears the gateway, but its row of (a | b) sums to 1.5: (I - a) = 0
    SystemMatrices(np.array([[1.0]]), np.array([0.5])),
    SystemMatrices(np.array([[np.nan]]), np.array([1.0])),
], ids=["split-topology", "split-grid-topology", "split-grid-matrices",
        "isolated", "held", "singular", "nan"])
def test_steady_state_not_convergent_both_entry_points(system):
    with pytest.raises(NotConvergent):
        steady_state_error(system, 1e-3)


@pytest.mark.parametrize("delta_t", [0.0, -1.0, float("nan"), float("inf")])
def test_steady_state_rejects_bad_delta_t(delta_t):
    # SimConfig's rule: a non-positive period is as invalid as a NaN one
    with pytest.raises(ValueError, match="^delta_t must be positive and finite$"):
        steady_state_error(line_topology(3), delta_t)


@pytest.mark.parametrize("system", [
    grid_topology(1, 1), SystemMatrices(np.zeros((0, 0)), np.zeros(0))],
    ids=["topology", "matrices"])
def test_steady_state_rejects_empty_network(system):
    # no ordinary node has no steady state to report
    with pytest.raises(ValueError, match="no ordinary node"):
        steady_state_error(system, 1e-3)


def test_steady_state_overflow_not_convergent():
    # a stochastic row that barely leaks to the gateway: x = dt / 2**-52
    # overflows, which must raise rather than print inf
    eps = 2.0 ** -52
    mats = SystemMatrices(np.array([[1.0 - eps]]), np.array([eps]))
    assert steady_state_error(mats, 1.0).ess[0] == 2.0 ** 52
    with pytest.raises(NotConvergent):
        steady_state_error(mats, 1e300)


def test_steady_state_overflow_across_levels_not_convergent():
    # line:3 has two levels and x = (3, 4) * delta_t: the elimination
    # overflows between levels, which raises without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConvergent):
            steady_state_error(line_topology(3), 1e308)


def _evolve_clocks(mats, times0, delta_t, k):
    state = ClockState(times=times0, round=0, delta_t=delta_t)
    for _ in range(k):
        state = step(state, mats)
    return state


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), prob=st.floats(0.3, 1.0), seed=st.integers(0, 10**6),
       k=st.integers(1, 60))
def test_clock_and_error_paths_agree(n, prob, seed, k):
    # evolving clocks then differencing equals iterating the error recursion
    topo = random_topology(n, prob, seed=seed)
    try:
        mats = build_matrices(topo)
    except Exception:
        assume(False)
    rng = np.random.default_rng(seed)
    times0 = rng.uniform(0.0, 0.1, topo.node_count)
    dt = 1e-3
    state = _evolve_clocks(mats, times0, dt, k)
    err_direct = error_of(state).errors
    err = ErrorState(errors=-times0)
    for _ in range(k):
        err = error_step(err, mats, dt)
    scale = max(np.max(np.abs(err.errors)), 1e-30)
    assert np.max(np.abs(err_direct - err.errors)) / scale < 1e-9


def test_convergence_to_steady_state():
    for topo in (line_topology(3), grid_topology(4, 4)):
        mats = build_matrices(topo)
        dt = 1e-3
        ess = steady_state_error(mats, dt).ess
        err = ErrorState(errors=np.zeros(topo.node_count))
        for _ in range(5000):
            err = error_step(err, mats, dt)
        assert np.max(np.abs(err.errors - ess)) < 1e-6 * dt


def test_steady_state_trajectory_is_invariant():
    mats = build_matrices(grid_topology(3, 3))
    dt = 1e-3
    ess = steady_state_error(mats, dt).ess
    n = 17
    state = ClockState(times=dt * n - ess, round=n, delta_t=dt)
    nxt = step(state, mats)
    assert np.allclose(error_of(nxt).errors, ess, rtol=0, atol=1e-15)


def test_translation_invariance():
    # shifting all clocks and the reference ramp by c shifts outputs by c
    mats = build_matrices(grid_topology(3, 3))
    dt, c, k = 1e-3, 0.37, 40
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 0.1, 8)
    base, shifted = t.copy(), t + c
    for n in range(k):
        g = dt * n
        base = mats.a @ base + mats.b * g
        shifted = mats.a @ shifted + mats.b * (g + c)
    assert np.max(np.abs(shifted - (base + c))) < 1e-9


def test_dip_reaches_below_steady_state_broad_start():
    # wide uniform starts: the transient |error| minimum undercuts the
    # long-run error for every node on the 16-node grid, every seed
    topo = grid_topology(4, 4)
    dt = 1e-3
    ess = steady_state_error(build_matrices(topo), dt).ess
    for seed in range(25):
        cfg = SimConfig(topology=topo, delta_t=dt, n_max=200, seed=seed)
        mins = np.abs(run(cfg).errors).min(axis=0)
        assert np.all(mins < ess), f"seed {seed}"


def test_dip_below_half_delta_t_seeded():
    # deep dips (< 0.5 delta_t on all nodes at once) occur but are
    # seed-dependent; these starts reproduce them
    topo = grid_topology(4, 4)
    dt = 1e-3
    for seed in (18, 24, 33):
        cfg = SimConfig(topology=topo, delta_t=dt, n_max=200, seed=seed)
        mins = np.abs(run(cfg).errors).min(axis=0)
        assert np.all(mins < 0.5 * dt), f"seed {seed}"


def test_state_validation():
    with pytest.raises(ValueError):
        ClockState(times=np.array([1.0]), round=-1, delta_t=1.0)
    with pytest.raises(ValueError):
        ClockState(times=np.array([1.0]), round=0, delta_t=0.0)
    for dt in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError,
                           match="^delta_t must be positive and finite$"):
            ClockState(times=np.array([1.0]), round=0, delta_t=dt)
        with pytest.raises(ValueError,
                           match="^delta_t must be positive and finite$"):
            error_step(ErrorState(errors=np.zeros(2)), LINE, dt)
    for rnd in (1.5, math.nan, "2", None):
        with pytest.raises(ValueError, match="^round must be an integer$"):
            ClockState(times=np.array([1.0]), round=rnd, delta_t=1.0)
    state = ClockState(times=np.array([1.0]), round=2.0, delta_t=1.0)
    assert type(state.round) is int
    with pytest.raises(DimensionMismatch):
        error_step(ErrorState(errors=np.zeros(3)), LINE, 1.0)
    with pytest.raises(ValueError, match="^times must be a vector$"):
        ClockState(times=np.ones((2, 1)), round=0, delta_t=1.0)
    with pytest.raises(ValueError, match="^errors must be a vector$"):
        ErrorState(errors=np.ones((1, 2)))
    with pytest.raises(ValueError, match="^ess must be a vector$"):
        SteadyStateResult([[1.0, 2.0]])

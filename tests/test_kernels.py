import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopsync import kernels
from hopsync.channel import ChannelModel, sample_masks
from hopsync.dynamics import ClockState, step
from hopsync.model import (Topology, build_matrices, grid_topology,
                           random_topology)


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
    out = kernels.run_rounds(t0, eu, ev, masks, 1e-3)
    mats = build_matrices(topo)
    state = ClockState(times=t0, round=0, delta_t=1e-3)
    for rnd in range(200):
        state = step(state, mats)
        scale = max(np.max(np.abs(state.times)), 1e-30)
        assert np.max(np.abs(out[rnd + 1] - state.times)) / scale < 1e-9


def test_hold_when_no_edges():
    topo, eu, ev, t0, _ = _setup()
    masks = np.zeros((10, 24), dtype=bool)
    out = kernels.run_rounds(t0, eu, ev, masks, 1e-3)
    for rnd in range(11):
        assert np.array_equal(out[rnd], t0)


def test_gateway_only_node_tracks_ramp():
    # one node, one gateway edge: clock copies delta_t * (round) each step
    from hopsync.model import line_topology
    topo = line_topology(2)
    eu, ev = topo.edge_arrays()
    masks = np.ones((5, 1), dtype=bool)
    out = kernels.run_rounds(np.array([9.9]), eu, ev, masks, 1.0)
    assert np.array_equal(out[:, 0], [9.9, 0.0, 1.0, 2.0, 3.0, 4.0])


def test_round0_resumes_exactly():
    # split one long run into chained single-round calls at an offset
    topo, eu, ev, t0, masks = _setup(rounds=60)
    full = kernels.run_rounds(t0, eu, ev, masks, 1e-3)
    t = t0.copy()
    for rnd in range(60):
        stepped = kernels.run_rounds(t, eu, ev, masks[rnd:rnd + 1], 1e-3,
                                     round0=rnd)
        t = stepped[1]
        assert np.array_equal(t, full[rnd + 1])


def test_run_rounds_refuses_stale_positional_calls():
    # N is times0's width: a stale call that still passes it positionally
    # binds no argument to the wrong slot, it fails
    topo, eu, ev, t0, masks = _setup(rounds=5)
    with pytest.raises(TypeError):
        kernels.run_rounds(t0, eu, ev, topo.node_count, masks, 1e-3)
    with pytest.raises(TypeError):
        kernels.run_rounds(t0, eu, ev, masks, 1e-3, 0)


def test_run_deterministic():
    topo, eu, ev, t0, masks = _setup()
    a = kernels.run_rounds(t0, eu, ev, masks, 1e-3)
    b = kernels.run_rounds(t0, eu, ev, masks, 1e-3)
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


def _oracle_run_rounds(times0, edges_u, edges_v, n, masks, delta_t, round0=0):
    """The original single-run kernel: np.add.at per side, low side first."""
    out = np.empty((masks.shape[0] + 1, n))
    out[0] = times0
    t = np.array(times0, dtype=np.float64)
    text = np.empty(n + 1)
    for rnd in range(masks.shape[0]):
        au, avv = edges_u[masks[rnd]], edges_v[masks[rnd]]
        text[:n] = t
        text[n] = delta_t * (round0 + rnd)
        sums = np.zeros(n)
        counts = np.zeros(n, dtype=np.int64)
        np.add.at(sums, au, text[avv])
        np.add.at(counts, au, 1)
        w = avv < n
        np.add.at(sums, avv[w], t[au[w]])
        np.add.at(counts, avv[w], 1)
        t = np.where(counts > 0, sums / np.maximum(counts, 1), t)
        out[rnd + 1] = t
    return out


def _star(k):
    # every ordinary node's only link is to the gateway
    return Topology(node_count=k, edges=tuple((i, k) for i in range(k)))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 25), prob=st.floats(0.0, 1.0),
       star=st.booleans(), seed=st.integers(0, 2**32),
       runs=st.integers(1, 5), rounds=st.integers(0, 30),
       link_p=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
       round0=st.integers(0, 10**6),
       dt=st.sampled_from([1e-3, 1.0, 0.37, 2.0**-20]),
       nonfinite=st.booleans())
@example(n=2, prob=1.0, star=False, seed=0, runs=5, rounds=3, link_p=0.0,
         round0=0, dt=1.0, nonfinite=False)
@example(n=9, prob=0.0, star=True, seed=1, runs=3, rounds=12, link_p=0.5,
         round0=7, dt=1e-3, nonfinite=False)
@example(n=12, prob=0.4, star=False, seed=3, runs=4, rounds=20, link_p=0.5,
         round0=0, dt=1e-3, nonfinite=True)
def test_batched_rounds_equal_single_runs(n, prob, star, seed, runs, rounds,
                                          link_p, round0, dt, nonfinite):
    # S runs with a leading seed axis are bit for bit S single runs of the
    # old np.add.at kernel, whatever the topology, links and round offset;
    # the (N,) / (rounds, E) call shape gives the same bits too. NaN and
    # infinite clocks keep their bits as well (inf - inf makes a NaN, which
    # would warn as invalid)
    topo = _star(n - 1) if star else random_topology(n, prob, seed=seed)
    eu, ev = topo.edge_arrays()
    k = topo.node_count
    rng = np.random.default_rng(seed)
    t0 = rng.normal(scale=rng.choice([1e-3, 1.0, 1e6]), size=(runs, k))
    t0[rng.random((runs, k)) < 0.1] = -0.0
    if nonfinite:
        odd = rng.random((runs, k)) < 0.15
        t0[odd] = rng.choice([np.nan, np.inf, -np.inf], size=odd.sum())
    masks = rng.random((rounds, runs, len(eu))) < link_p
    with np.errstate(invalid="ignore"):
        got = kernels.run_rounds(t0, eu, ev, masks, dt, round0=round0)
        assert got.shape == (rounds + 1, runs, k)
        for j in range(runs):
            want = _oracle_run_rounds(t0[j], eu, ev, k, masks[:, j], dt,
                                      round0)
            assert got[:, j].tobytes() == want.tobytes()  # -0.0 included
            single = kernels.run_rounds(t0[j], eu, ev, masks[:, j], dt,
                                        round0=round0)
            assert single.shape == (rounds + 1, k)
            assert single.tobytes() == want.tobytes()


def _bits(values):
    """float64 bit patterns of ``values``, with one-ulp neighbours."""
    x = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        x = np.concatenate([np.nextafter(x, -np.inf), x,
                            np.nextafter(x, np.inf)])
    return x.view(np.uint64).tolist()


def _bit(value):
    return int(np.float64(value).view(np.uint64))


# the ends of the kernel's range, powers of 2 and of 10, whole numbers,
# repr's switch to exponent notation, 15-, 16- and 17-digit values, and
# values halfway between two 16-digit or two 17-digit decimals that both
# read back
_RANGE_ENDS = _bits([1e-10, 1e13, -1e-10, -1e13])
_POWERS = _bits([2.0 ** j for j in range(-40, 46, 3)]
                + [10.0 ** j for j in range(-11, 15)])
_WHOLE = _bits([1.0, 2.0, 3.0, 10.0, 255.0, 123456.0, 2.0**43 + 1.0,
                9999999999999.0, -7.0])
_EXPONENT_SWITCH = _bits([9.999999999999999e-05, 0.0001, 1e-05,
                          9.99999999999999e-05, 1e16, 1e-4 * 1.5])
_DIGITS = _bits([0.123456789012345, 0.1234567890123456,
                 0.12345678901234568, 1.2345678901234567e-07,
                 123456.78901234567, 2.0 / 3.0, 0.1, 0.3, 7e-10])
# repr's longest texts, 24 characters, all formatted by repr
_LONGEST = _bits([-2.2250738585072014e-308, -1.7976931348623157e308,
                  -5e-324, -1.0000000000000002e-300])
_TIES = _bits([9000000000.0078125, 9000000000.0234375, 9100000000.0390625,
               1234567890123.03125, 1234567890123.09375,
               123456789012.015625])


def _as_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.one_of(
    st.integers(0, 2**64 - 1),  # any pattern: NaNs, infinities, subnormals
    st.floats(1e-10, 1e13).map(_bit),
    st.floats(-1e13, -1e-10).map(_bit),
    st.floats(width=64).map(_bit),
    st.sampled_from(_bits([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                           2.2250738585072014e-308,
                           1.7976931348623157e308]))), max_size=60))
@example(bits=_RANGE_ENDS)
@example(bits=_POWERS)
@example(bits=_WHOLE)
@example(bits=_EXPONENT_SWITCH)
@example(bits=_DIGITS)
@example(bits=_TIES)
@example(bits=_LONGEST)
@example(bits=[])
def test_float_reprs_equal_repr(bits):
    # the kernel prints exactly repr's shortest round-trip digits, for every
    # float64 it formats itself and for those it hands to repr
    x = _as_floats(bits)
    got = kernels._float_texts(x)
    assert got.dtype == np.uint8 and got.shape == (x.size, 24)
    assert _texts(got) == [repr(v).encode() for v in x.tolist()]


def _texts(rows):
    """Each row of a _float_texts matrix without its NUL padding."""
    return [row.tobytes().rstrip(b"\0") for row in rows]


def test_float_reprs_across_chunks():
    # several chunks with values for repr between and within them
    rng = np.random.default_rng(20)
    x = np.concatenate([
        rng.integers(0, 2**64, 3000, dtype=np.uint64).view(np.float64),
        rng.uniform(-0.2, 0.2, 3000) * 10.0 ** rng.integers(-10, 13, 3000),
        _as_floats(_RANGE_ENDS + _POWERS + _WHOLE + _EXPONENT_SWITCH
                   + _DIGITS + _TIES + _LONGEST)])
    x = x[rng.permutation(x.size)]
    assert _texts(kernels._float_texts(x)) == [repr(v).encode()
                                               for v in x.tolist()]


def test_float_texts_into_a_used_buffer():
    # into a strided view of a buffer that held 24-character texts and
    # bytes no text has: every byte of each row is written again, the
    # 24th column included
    longest = _as_floats(_LONGEST)
    short = np.array([0.5, -2.5, 1e-05, 0.1, 0.0, 3.0])[:len(longest)]
    buffer = np.full((len(longest), 25), 0xFF, dtype=np.uint8)
    out = buffer[:, :-1]
    kernels._float_texts(longest, out=out)
    assert _texts(out) == [repr(v).encode() for v in longest.tolist()]
    got = kernels._float_texts(short, out=out[:len(short)])
    assert np.array_equal(got, kernels._float_texts(short))
    assert (buffer[:, -1] == 0xFF).all()

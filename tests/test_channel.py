import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopsync.channel import (ChannelModel, _mask_block, _seed_words,
                             effective_matrices, sample_mask, sample_masks)
from hopsync.model import (IsolatedNode, Topology, build_matrices,
                           grid_topology, line_topology, random_topology)

GRID = grid_topology(4, 4)


def test_p_one_all_edges_available():
    masks = sample_masks(ChannelModel(p=1.0, seed=0), GRID, 100)
    assert masks.shape == (100, 24)
    assert masks.all()


def test_p_zero_no_edges_available():
    masks = sample_masks(ChannelModel(p=0.0, seed=0), GRID, 100)
    assert not masks.any()


def test_mean_available_edges_binomial():
    # 24 edges at p=0.5: per-round mean within 3 standard errors of 12
    rounds = 10_000
    masks = sample_masks(ChannelModel(p=0.5, seed=0), GRID, rounds)
    mean = masks.sum(axis=1).mean()
    stderr = np.sqrt(24 * 0.25 / rounds)
    assert abs(mean - 12.0) < 3 * stderr


def test_same_seed_round_same_mask():
    model = ChannelModel(p=0.5, seed=42)
    a = sample_mask(model, GRID, 17)
    b = sample_mask(model, GRID, 17)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_mask(model, GRID, 18))


def test_masks_rows_match_single_queries():
    model = ChannelModel(p=0.3, seed=9)
    rows = sample_masks(model, GRID, 50)
    for rnd in (0, 1, 7, 49):
        assert np.array_equal(rows[rnd], sample_mask(model, GRID, rnd))


def test_mask_block_rows_match_single_queries():
    # one run per seed, seeds of mixed word counts, any start round, the
    # p = 0 and p = 1 shortcuts too
    seeds = [9, 2**32 + 1, 5, 2**64 + 7]
    for p in (0.3, 1.0, 0.0):
        block = _mask_block(p, seeds, 24, 13, 40)
        assert block.shape == (27, 4, 24)
        for rnd in range(13, 40):
            for j, seed in enumerate(seeds):
                assert np.array_equal(
                    block[rnd - 13, j],
                    sample_mask(ChannelModel(p=p, seed=seed), GRID, rnd))


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_empty_mask_blocks_keep_their_shape(p):
    model = ChannelModel(p=p, seed=3)
    assert sample_masks(model, GRID, 0).shape == (0, 24)
    assert _mask_block(p, [3, 4], 24, 7, 7).shape == (0, 2, 24)
    edgeless = Topology(node_count=1, edges=())
    assert sample_masks(model, edgeless, 6).shape == (6, 0)
    assert sample_mask(model, edgeless, 2**70).shape == (0,)


def _raw_mask(seed, rnd, p, n_edges):
    """A round's mask built the slow way, one SeedSequence and Generator per
    round: the definition the mask stream must reproduce bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, rnd]))
    return rng.random(n_edges) < p


# seeds of one, two, three and more uint32 words, and their boundaries
SEEDS = st.one_of(st.integers(0, 10**6), st.integers(2**32 - 3, 2**32 + 3),
                  st.integers(2**64 - 3, 2**64 + 3), st.integers(2**64, 2**160))
# rounds of one, two and three words; blocks crossing 2**32 and 2**64, and
# one whose low word wraps into the next
START_ROUNDS = st.one_of(st.integers(0, 10**6),
                         *(st.integers(b - 12, b + 3)
                           for b in (2**32, 2**33, 2**64)))


# seeds whose [seed, 1] heads are 2, 3, 4 and 6 words: with rounds of one
# and two words, or two and three, one block holds lanes of 3, 4, 5 and more
# words
MIXED_SEEDS = [5, 2**32 + 7, 2**64 + 1, 2**130]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=5),
       p=st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.01, 0.99),
       r0=START_ROUNDS, length=st.integers(1, 12))
@example(seeds=MIXED_SEEDS, p=0.5, r0=2**32 - 3, length=6)
@example(seeds=MIXED_SEEDS, p=0.4, r0=2**64 - 3, length=6)
@example(seeds=MIXED_SEEDS[::-1], p=0.6, r0=2**96 - 2, length=4)
def test_mask_block_matches_raw_construction(seeds, p, r0, length):
    # several seeds of mixed entropy word counts in one block; the lane
    # arithmetic emits no warning
    block = _mask_block(p, seeds, 24, r0, r0 + length)
    assert block.shape == (length, len(seeds), 24)
    for rnd in range(r0, r0 + length):
        for j, seed in enumerate(seeds):
            assert np.array_equal(block[rnd - r0, j],
                                  _raw_mask(seed, rnd, p, 24))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, rnd=st.integers(2**32 - 4, 2**32 + 4),
       p=st.floats(0.01, 0.99))
def test_sample_mask_near_round_word_boundary(seed, rnd, p):
    assert np.array_equal(sample_mask(ChannelModel(p=p, seed=seed), GRID, rnd),
                          _raw_mask(seed, rnd, p, 24))


def test_negative_round_rejected():
    # a negative round, or a block that ends before it starts, at every p
    for p in (0.0, 0.5, 1.0):
        model = ChannelModel(p=p, seed=0)
        for draw in (lambda: sample_mask(model, GRID, -1),
                     lambda: sample_masks(model, GRID, -1),
                     lambda: _mask_block(p, [0], 24, 5, 4)):
            with pytest.raises(ValueError, match="rounds must be nonnegative"):
                draw()


@pytest.mark.parametrize("rounds", [2.5, float("nan"), float("inf"), "3"])
def test_non_integral_round_rejected(rounds):
    model = ChannelModel(p=0.5, seed=0)
    with pytest.raises(ValueError, match="^rounds must be an integer$"):
        sample_masks(model, GRID, rounds)
    with pytest.raises(ValueError, match="^round must be an integer$"):
        sample_mask(model, GRID, rounds)
    assert np.array_equal(sample_masks(model, GRID, 3.0),
                          sample_masks(model, GRID, 3))
    assert np.array_equal(sample_mask(model, GRID, 2.0),
                          sample_mask(model, GRID, 2))


def test_seed_words_match_seed_sequence():
    # lanes of 3 to 8 words in one call, each row the words SeedSequence
    # hands PCG64, laid out as PCG64 reads them: contiguous native uint64
    rng = np.random.default_rng(5)
    width = np.repeat(np.arange(3, 9), 4)
    entropy = rng.integers(0, 2**32, (len(width), 8), dtype=np.uint32)
    entropy[1::4] = [0, 2**32 - 1] * 4  # words at the ends of their range
    entropy[np.arange(8) >= width[:, None]] = 0
    words = _seed_words(entropy, width)
    assert words.shape == (len(width), 4)
    for row, w, lane in zip(entropy, width, words):
        seq = np.random.SeedSequence([int(x) for x in row[:w]])
        assert np.array_equal(lane, seq.generate_state(4, np.uint64))
        assert lane.dtype == np.uint64 and lane.dtype.isnative
        assert lane.flags.c_contiguous


def test_mask_independent_of_horizon():
    model = ChannelModel(p=0.6, seed=4)
    short = sample_masks(model, GRID, 20)
    long = sample_masks(model, GRID, 200)
    assert np.array_equal(short, long[:20])


def test_effective_full_mask_equals_static():
    mats = build_matrices(GRID)
    eff = effective_matrices(GRID, np.ones(24, dtype=bool))
    assert np.array_equal(eff.a, mats.a)
    assert np.array_equal(eff.b, mats.b)


def test_effective_empty_mask_holds():
    eff = effective_matrices(GRID, np.zeros(24, dtype=bool))
    assert np.array_equal(eff.a, np.eye(15))
    assert np.array_equal(eff.b, np.zeros(15))


def test_effective_partial_line_example():
    # gw-n1-n2 with only the (n1, n2) edge up: the pair average each other
    topo = line_topology(3)
    gw_edge = tuple(e for e in topo.edges if topo.gateway_id in e)[0]
    mask = np.array([e != gw_edge for e in topo.edges])
    eff = effective_matrices(topo, mask)
    assert np.array_equal(eff.a, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(eff.b, [0.0, 0.0])


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(p=1.5, seed=0)
    with pytest.raises(ValueError):
        ChannelModel(p=0.5, seed=-1)


@pytest.mark.parametrize("seed", [1.5, float("nan"), float("inf"), "3", None])
def test_model_rejects_non_integral_seed(seed):
    # SimConfig's rule: a seed must be a whole number, not silently truncated
    with pytest.raises(ValueError, match="seed must be an integer"):
        ChannelModel(p=0.5, seed=seed)


@pytest.mark.parametrize("seed", [1.0, np.uint64(3), np.int32(2**31 - 1), True])
def test_model_integral_seed_draws_like_int(seed):
    model = ChannelModel(p=0.5, seed=seed)
    assert type(model.seed) is int and model.seed == seed
    assert np.array_equal(sample_masks(model, GRID, 5),
                          sample_masks(ChannelModel(p=0.5, seed=int(seed)),
                                       GRID, 5))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), rnd=st.integers(0, 1000),
       p=st.floats(0.05, 0.95))
def test_effective_rows_stochastic(seed, rnd, p):
    mask = sample_mask(ChannelModel(p=p, seed=seed), GRID, rnd)
    eff = effective_matrices(GRID, mask)
    sums = eff.a.sum(axis=1) + eff.b
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


def _oracle_matrices(topo, mask):
    """The original edge-by-edge loops, kept as the reference."""
    n = topo.node_count
    deg = np.zeros(n, dtype=np.int64)
    for k, (u, v) in enumerate(topo.edges):
        if mask[k]:
            deg[u] += 1
            if v < n:
                deg[v] += 1
    a = np.zeros((n, n))
    b = np.zeros(n)
    for k, (u, v) in enumerate(topo.edges):
        if not mask[k]:
            continue
        if v == n:
            b[u] = 1.0 / deg[u]
        else:
            a[u, v] = 1.0 / deg[u]
            a[v, u] = 1.0 / deg[v]
    for i in range(n):
        if deg[i] == 0:
            a[i, i] = 1.0
    return a, b, deg


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 14), prob=st.floats(0.0, 1.0),
       seed=st.integers(0, 10**6), p=st.floats(0.0, 1.0))
def test_matrices_match_loop_oracle(n, prob, seed, p):
    topo = random_topology(n, prob, seed)
    mask = np.random.default_rng(seed).random(len(topo.edges)) < p
    a, b, _ = _oracle_matrices(topo, mask)
    eff = effective_matrices(topo, mask)
    assert np.array_equal(eff.a, a) and np.array_equal(eff.b, b)
    # build_matrices is the all-edges case, refusing a node with no neighbor
    a, b, deg = _oracle_matrices(topo, np.ones(len(topo.edges), dtype=bool))
    if np.any(deg == 0):
        with pytest.raises(IsolatedNode) as err:
            build_matrices(topo)
        assert err.value.node_id == int(np.argmin(deg))
    else:
        mats = build_matrices(topo)
        assert np.array_equal(mats.a, a) and np.array_equal(mats.b, b)

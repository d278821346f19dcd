"""Stochastic link availability: one Bernoulli coin per undirected edge per
round. The effective (renormalized) averaging matrices for a round's mask are
built by model.effective_matrices.

Mask draws are keyed by (seed, round), so a round's mask never depends on the
horizon or on the order in which rounds are sampled. A round's coins are

    np.random.default_rng([seed, _MASK_STREAM, round]).random(n_edges) < p

bit for bit. Nearly all of the tens of microseconds that construction costs a
round go into SeedSequence's hashing, so _mask_block hashes a whole block of
(round, run) lanes at once: the entropy hashing, pool mixing and output
hashing run as uint32 array operations over one zero-padded array of the
lanes' entropy words, with each lane's word count beside it. Each lane's
hashed words then go to default_rng in place of its SeedSequence.

The bits are unchanged because nothing but the bookkeeping moved: the hash
constants never depend on the data, and a wrapping uint32 step gives the same
word on an array as on one value. Lanes of different word counts share one
array because SeedSequence hashes a pool word it has no entropy for as the
word 0, and a lane skips the mixing pass of each word past the pool that it
does not have. NumPy keeps SeedSequence and PCG64 stable across releases; the
tests compare the block against the construction above for seeds and rounds
of every word count.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import _MASK_STREAM, Topology, _check_probability, _count, _whole

# numpy.random.SeedSequence's constants (numpy/random/bit_generator.pyx):
# a pool of 4 uint32 words, the entropy hash (A) and output hash (B)
# multipliers, and the pool-mixing multipliers.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class ChannelModel:
    """Per-link availability probability and the seed driving every draw."""

    p: float
    seed: int = 0

    def __post_init__(self):
        _check_probability(self.p, "p")
        object.__setattr__(self, "seed", _count(self.seed, "seed"))


def sample_mask(model: ChannelModel, topo: Topology, round: int) -> np.ndarray:
    """Availability mask for one round, aligned with topo.edges order.

    Each edge is available independently with probability p; the same coin
    serves both directions. Identical (seed, topology, round) always produce
    the identical mask.
    """
    round = _whole(round, "round")
    return _mask_block(model.p, [model.seed], len(topo.edges),
                       round, round + 1)[0, 0]


def sample_masks(model: ChannelModel, topo: Topology, rounds: int) -> np.ndarray:
    """Masks for rounds 0..rounds-1 as a (rounds, n_edges) bool array."""
    return _mask_block(model.p, [model.seed], len(topo.edges), 0,
                       _whole(rounds, "rounds"))[:, 0]


def _mask_block(p: float, seeds, n_edges: int, r0: int, r1: int) -> np.ndarray:
    """Masks of rounds r0..r1-1 over ``n_edges`` edges for one run per seed,
    all at availability ``p``, as a (r1 - r0, runs, n_edges) bool array; row
    r - r0 holds sample_mask(ChannelModel(p, seed), topo, r) for each seed in
    turn.

    Each (round, seed) pair is a lane, and lane k fills row k of
    ``out.reshape(lanes, n_edges)``. Its SeedSequence entropy is the uint32
    words of [seed, _MASK_STREAM, round], written into one zero-padded
    (lanes, words) array with each lane's word count beside it; _seed_words
    hashes every lane from it at once into the words its SeedSequence would
    give, and default_rng draws the lane's coins from them: the same bits.
    """
    if r0 < 0 or r1 < r0:  # SeedSequence refuses a negative round
        raise ValueError("rounds must be nonnegative")
    shape = (r1 - r0, len(seeds), n_edges)
    if not 0.0 < p < 1.0:
        return np.full(shape, p >= 1.0)
    out = np.empty(shape, dtype=bool)
    if out.size == 0:
        return out
    heads = [_int_words(seed) + [_MASK_STREAM] for seed in seeds]
    tails = [_int_words(r) for r in range(r0, r1)]
    longest = max(map(len, tails))
    rounds = np.array([tail + [0] * (longest - len(tail)) for tail in tails],
                      np.uint32)
    width = np.add.outer(list(map(len, tails)), list(map(len, heads)))
    entropy = np.zeros(width.shape + (max(_POOL, width.max()),), np.uint32)
    for j, head in enumerate(heads):
        entropy[:, j, :len(head)] = head
        entropy[:, j, len(head):len(head) + longest] = rounds
    lanes = out.reshape(-1, n_edges)
    words = _seed_words(entropy.reshape(len(lanes), -1), width.ravel())
    draws, seed = np.empty(n_edges), _words_class()
    for row, lane in zip(lanes, words):
        np.random.default_rng(seed(lane)).random(out=draws)
        np.less(draws, p, out=row)
    return out


@functools.cache
def _words_class():
    """An ISeedSequence whose generate_state returns the words it was given;
    made on first use, so importing hopsync does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def _int_words(value: int) -> list:
    """``value``'s little-endian uint32 words, as SeedSequence splits an int
    (0 is one word)."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """Steps of SeedSequence's hash (hashmix, and generate_state's loop
    body), one per column of ``value``: xor with the hash constant, multiply
    by its successor, fold the high half into the low."""
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> _XSHIFT)


def _chain(init: int, mult: int, steps: int) -> tuple:
    """(xor, mul) uint32 arrays of the constants of ``steps`` successive hash
    steps whose hash constant starts at ``init`` and is multiplied by
    ``mult`` at each step. The constants never depend on the data."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]
# generate_state(4, np.uint64) hashes 8 uint32 words out of the pool, its
# words in turn twice over.
_OUTPUT_CHAIN = _chain(_INIT_B, _MULT_B, 2 * _POOL)
_OUTPUT_WORDS = np.arange(2 * _POOL) % _POOL


def _seed_words(entropy: np.ndarray, width: np.ndarray) -> np.ndarray:
    """``SeedSequence(row[:w]).generate_state(4, np.uint64)`` for each row of
    the (lanes, words) uint32 array ``entropy``, words >= 4, and the row's
    word count w in ``width``, as one (lanes, 4) C-contiguous native uint64
    array. Each row's words past its count are zeros. PCG64 reads a row's
    raw memory, so a strided or byte-swapped row would draw other coins.

    SeedSequence hashes the entropy into a 4-word pool (mix_entropy), then
    hashes the pool out into 8 uint32 words (generate_state). A pool word
    without entropy is hashed as the word 0, so the zero padding is exact in
    the pool; each word past the pool adds a pass that a row without that
    word skips. Every row takes the same hash steps before any pass it
    skips, so the hash constants are the same for all rows. The uint32
    arithmetic runs on arrays, which wrap without a warning.
    """
    words = entropy.shape[1]
    # mix_entropy hashes each pool word once, then each into the other
    # three (16 steps), then each word past the pool into all four
    xor, mul = _chain(_INIT_A, _MULT_A, _POOL * words)
    pool = _hash(entropy[:, :_POOL], xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src, dsts in enumerate(_OTHERS):
        hashed = _hash(pool[:, src, None], xor[k:k + 3], mul[k:k + 3])
        pool[:, dsts] = _mix(pool[:, dsts], hashed)
        k += 3
    for src in range(_POOL, words):
        hashed = _hash(entropy[:, src, None], xor[k:k + _POOL],
                       mul[k:k + _POOL])
        pool = np.where((width > src)[:, None], _mix(pool, hashed), pool)
        k += _POOL
    out = _hash(pool[:, _OUTPUT_WORDS], *_OUTPUT_CHAIN)
    # little-endian pairs of uint32 words are the uint64 words, as in
    # generate_state
    return out.astype("<u4", order="C").view("<u8").astype(np.uint64,
                                                            copy=False)

"""Stochastic link availability: one Bernoulli coin per undirected edge per
round. The effective (renormalized) averaging matrices for a round's mask are
built by model.effective_matrices, re-exported here.

Mask draws are keyed by (seed, round), so a round's mask never depends on the
horizon or on the order in which rounds are sampled. A round's coins are

    np.random.default_rng(np.random.SeedSequence([seed, 1, round]))
        .random(n_edges) < p

bit for bit. That construction costs tens of microseconds a round, nearly all
of it in building the SeedSequence and the PCG64 generator, so _mask_block
does the same arithmetic for a whole block of (run, round) lanes at once:
SeedSequence's entropy hashing and pool mixing as uint32 array operations
over the lanes, then PCG64's seeding of its 128-bit state from the pool's
four uint64 words in Python ints. Each lane's coins are then drawn from that
state by one reused Generator.

The bits are unchanged because nothing but the bookkeeping moved: the hash
constants never depend on the data, a wrapping uint32 step gives the same
word on an array as on one value, and each lane's PCG64 state is set whole
(state, increment, no buffered half-word), as PCG64's constructor leaves
it, so Generator.random draws what default_rng would. NumPy keeps
SeedSequence and PCG64 stable across releases; the tests compare the block
against the construction above for seeds and rounds of every word count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Topology, effective_matrices  # noqa: F401 (re-exported)

# Mask draws use stream 1 of the seed; initial clocks use stream 0 (see
# harness.py), so the two never collide.
_MASK_STREAM = 1

# numpy.random.SeedSequence's constants (numpy/random/bit_generator.pyx):
# a pool of 4 uint32 words, the entropy hash (A) and output hash (B)
# multipliers, and the pool-mixing multipliers.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True)
class ChannelModel:
    """Per-link availability probability and the seed driving every draw."""

    p: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must be in [0, 1]")
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _whole(value, name: str, error=ValueError) -> int:
    """``value`` as an int; ``error`` unless it is a whole number."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} must be an integer")


def sample_mask(model: ChannelModel, topo: Topology, round: int) -> np.ndarray:
    """Availability mask for one round, aligned with topo.edges order.

    Each edge is available independently with probability p; the same coin
    serves both directions. Identical (seed, topology, round) always produce
    the identical mask.
    """
    return _mask_block([model], topo, round, round + 1)[0, 0]


def sample_masks(model: ChannelModel, topo: Topology, rounds: int) -> np.ndarray:
    """Masks for rounds 0..rounds-1 as a (rounds, n_edges) bool array."""
    return _mask_block([model], topo, 0, rounds)[:, 0]


def _mask_block(models, topo: Topology, r0: int, r1: int) -> np.ndarray:
    """Masks of rounds r0..r1-1 for one run per model, as a
    (r1 - r0, runs, n_edges) bool array; row r - r0 holds sample_mask(model,
    topo, r) for each model in turn.

    Every lossy (run, round) pair is a lane whose SeedSequence entropy is
    the uint32 words of [seed, 1, round]. Lanes are grouped by word count
    (seeds from 2**32 and rounds from 2**32 have more words), each group is
    seeded at once by _pcg64_states, and each lane's coins are drawn by one
    PCG64 set to the lane's state: the same state default_rng would build
    from the lane's SeedSequence, so the same bits.
    """
    if r0 < 0:  # as SeedSequence refuses negative entropy
        raise ValueError("rounds must be nonnegative")
    n_edges = len(topo.edges)
    out = np.empty((r1 - r0, len(models), n_edges), dtype=bool)
    groups = {}  # entropy word count -> [(entropy, rows, model index)]
    for j, model in enumerate(models):
        if not 0.0 < model.p < 1.0:
            out[:, j] = model.p >= 1.0
            continue
        head = _int_words(model.seed) + [_MASK_STREAM]
        for a, b in _same_width_spans(r0, r1):
            entropy = _lane_entropy(head, a, b)
            groups.setdefault(entropy.shape[1], []).append(
                (entropy, range(a - r0, b - r0), j))
    if not groups:  # no lossy run, nothing to draw
        return out
    bitgen = np.random.PCG64(0)  # any seed: each lane sets the whole state
    gen = np.random.Generator(bitgen)
    draws = np.empty(n_edges)
    state = {"bit_generator": "PCG64", "state": None,
             "has_uint32": 0, "uinteger": 0}
    for parts in groups.values():
        states = _pcg64_states(np.concatenate([e for e, _, _ in parts]))
        lanes = ((row, j) for _, rows, j in parts for row in rows)
        for (row, j), lane in zip(lanes, states):
            state["state"] = lane
            bitgen.state = state
            gen.random(out=draws)
            np.less(draws, models[j].p, out=out[row, j])
    return out


def _int_words(value: int) -> list:
    """``value``'s little-endian uint32 words, as SeedSequence splits an int
    (0 is one word)."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _same_width_spans(r0: int, r1: int):
    """Split rounds r0..r1-1 into runs of rounds with the same word count."""
    while r0 < r1:
        top = 1 << (32 * len(_int_words(r0)))
        yield r0, min(r1, top)
        r0 = top


def _lane_entropy(head: list, a: int, b: int) -> np.ndarray:
    """SeedSequence entropy of [*head, r] for rounds r = a..b-1, which share
    a word count, as a (b - a, words) uint32 array. The rounds' words are
    0..b-a-1 added to a's words with carry."""
    words = _int_words(a)
    out = np.empty((b - a, len(head) + len(words)), np.uint32)
    out[:, :len(head)] = head
    carry = np.arange(b - a, dtype=np.uint64)
    for i, word in enumerate(words, len(head)):
        carry += np.uint64(word)
        out[:, i] = carry & np.uint64(_MASK32)
        carry >>= np.uint64(32)
    return out


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


# mix_entropy hashes each pool word once, then each pool word into the
# other three: 16 steps for up to 4 entropy words. Each word past the pool
# (seeds from 2**64, or from 2**32 with rounds from 2**32) adds 4 steps.
_ENTROPY_CHAIN = _chain(_INIT_A, _MULT_A, _POOL * _POOL)
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]
# generate_state(4, np.uint64) hashes 8 uint32 words out of the pool, its
# words in turn twice over.
_OUTPUT_CHAIN = _chain(_INIT_B, _MULT_B, 2 * _POOL)
_OUTPUT_WORDS = np.arange(2 * _POOL) % _POOL


def _pcg64_states(entropy: np.ndarray):
    """Yield PCG64 ``{"state", "inc"}`` dicts, one per row of the
    (lanes, words) uint32 array ``entropy``: the state of
    PCG64(SeedSequence(row)).

    SeedSequence hashes the entropy into a 4-word pool (mix_entropy), then
    hashes the pool out into 4 uint64 words (generate_state); PCG64 takes
    words 0-1 as its initial state and 2-3 as its stream, and steps its LCG
    twice (pcg_setseq_128_srandom_r). The uint32 arithmetic runs on arrays,
    which wrap without a warning; the 128-bit steps run on Python ints, one
    lane at a time, so no list of states is held.
    """
    lanes, words = entropy.shape
    xor, mul = _ENTROPY_CHAIN
    if words > _POOL:
        xor, mul = _chain(_INIT_A, _MULT_A, _POOL * words)
    pool = np.zeros((lanes, _POOL), np.uint32)
    pool[:, :words] = entropy[:, :_POOL]
    pool = _hash(pool, xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src, dsts in enumerate(_OTHERS):
        hashed = _hash(pool[:, src, None], xor[k:k + 3], mul[k:k + 3])
        pool[:, dsts] = _mix(pool[:, dsts], hashed)
        k += 3
    for src in range(_POOL, words):
        hashed = _hash(entropy[:, src, None], xor[k:k + _POOL],
                       mul[k:k + _POOL])
        pool = _mix(pool, hashed)
        k += _POOL
    out = _hash(pool[:, _OUTPUT_WORDS], *_OUTPUT_CHAIN)
    # little-endian pairs of uint32 words are the uint64 words, as in
    # generate_state
    for hi, lo, seq_hi, seq_lo in out.astype("<u4", order="C").view("<u8"):
        inc = ((int(seq_hi) << 65) | (int(seq_lo) << 1) | 1) & _MASK128
        yield {"state": ((inc + ((int(hi) << 64) | int(lo))) * _PCG_MULT + inc)
               & _MASK128, "inc": inc}

"""Stochastic link availability: one Bernoulli coin per undirected edge per
round. The effective (renormalized) averaging matrices for a round's mask are
built by model.effective_matrices, re-exported here.

Mask draws are keyed by (seed, round), so a round's mask never depends on the
horizon or on the order in which rounds are sampled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Topology, effective_matrices  # noqa: F401 (re-exported)

# Mask draws use stream 1 of the seed; initial clocks use stream 0 (see
# harness.py), so the two never collide.
_MASK_STREAM = 1


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
    topo, r) for each model in turn."""
    n_edges = len(topo.edges)
    out = np.empty((r1 - r0, len(models), n_edges), dtype=bool)
    for j, model in enumerate(models):
        if 0.0 < model.p < 1.0:
            for r in range(r0, r1):
                rng = np.random.default_rng(np.random.SeedSequence(
                    [int(model.seed), _MASK_STREAM, r]))
                out[r - r0, j] = rng.random(n_edges) < model.p
        else:
            out[:, j] = model.p >= 1.0
    return out

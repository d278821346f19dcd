"""Clock dynamics: the averaging step, the error recursion, and the
steady-state solve.

The gateway clock is the exact ramp delta_t * n. Ordinary clocks evolve by
T(n+1) = a @ T(n) + b * (delta_t * n); per-node errors are
e_i(n) = delta_t * n - t_i(n) and satisfy E(n+1) = a @ E(n) + delta_t * 1
whenever row i of (a | b) sums to one. The asymptotic error is the solution
of (I - a) x = delta_t * 1. Every link joins nodes at the same or adjacent
hop distance from the gateway, so (I - a) is block tridiagonal over those hop
levels, and it is solved level by level with one dense block per level.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .kernels import _error
from .model import (SystemMatrices, Topology, _averaging_entries,
                    _check_period, _count, _hop_levels)


def _vector(value, name: str) -> np.ndarray:
    """A read-only float64 copy of ``value``; ValueError unless it is 1-D."""
    v = np.asarray(value, dtype=np.float64).copy()
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    v.setflags(write=False)
    return v


class DimensionMismatch(ValueError):
    """State and matrices disagree on the node count."""


class NotConvergent(RuntimeError):
    """There is no finite steady state: some node has no path to the
    gateway, so (I - a) is singular and that node's error grows without
    bound, or the solve overflows."""


@dataclass(frozen=True)
class ClockState:
    """Node clocks at a round: times in seconds, the round counter, and delta_t."""

    times: np.ndarray
    round: int
    delta_t: float

    def __post_init__(self):
        object.__setattr__(self, "times", _vector(self.times, "times"))
        object.__setattr__(self, "delta_t", _check_period(self.delta_t))
        object.__setattr__(self, "round", _count(self.round, "round"))


@dataclass(frozen=True)
class ErrorState:
    """Per-node error vector e_i = delta_t * n - t_i, seconds."""

    errors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "errors", _vector(self.errors, "errors"))


@dataclass(frozen=True)
class SteadyStateResult:
    """Asymptotic per-node errors, seconds."""

    ess: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ess", _vector(self.ess, "ess"))


def step(state: ClockState, mats: SystemMatrices) -> ClockState:
    """One synchronous round: every node averages its neighbors' current
    values, with the gateway contributing the ramp value delta_t * round."""
    if mats.n != state.times.shape[0]:
        raise DimensionMismatch(
            f"matrices are {mats.n}x{mats.n} but state has {state.times.shape[0]} nodes")
    gateway_time = state.delta_t * state.round
    new_times = mats.a @ state.times + mats.b * gateway_time
    return ClockState(times=new_times, round=state.round + 1, delta_t=state.delta_t)


def error_of(state: ClockState) -> ErrorState:
    return ErrorState(errors=_error(state.delta_t, state.round, state.times))


def error_step(err: ErrorState, mats: SystemMatrices, delta_t: float) -> ErrorState:
    """One application of the error recursion E' = a @ E + delta_t * 1;
    delta_t must be positive and finite."""
    delta_t = _check_period(delta_t)
    if mats.n != err.errors.shape[0]:
        raise DimensionMismatch(
            f"matrices are {mats.n}x{mats.n} but error vector has {err.errors.shape[0]} entries")
    return ErrorState(errors=mats.a @ err.errors + delta_t)


def steady_state_error(system: Union[Topology, SystemMatrices],
                       delta_t: float) -> SteadyStateResult:
    """Solve (I - a) x = delta_t * 1 by block elimination over hop levels.

    ``system`` is a Topology, whose uniform-averaging entries are built
    straight from its edges without a dense (N, N) array, or a
    SystemMatrices, whose nonzeros are used. Both give the same bits for
    the same network. Memory is about the sum of the squared level sizes.

    Raises NotConvergent when some node cannot hear the gateway through a
    chain of nonzero weights (for a topology: when has_spanning_path is
    false). When the rows of (a | b) sum to one, that is exactly when
    (I - a) is singular; a singular level block or a non-finite solution
    raises it too. Raises ValueError unless delta_t is positive and finite,
    and for a network with no ordinary node.
    """
    delta_t = _check_period(delta_t)
    if isinstance(system, Topology):
        n = system.node_count
        rows, cols, vals, b = _averaging_entries(
            system, np.ones(len(system.edges), dtype=bool))
    else:
        n = system.n
        rows, cols = np.nonzero(system.a)
        vals, b = system.a[rows, cols], system.b
    if n == 0:
        raise ValueError("the network has no ordinary node")
    # node i hears node j if a[i][j] != 0, and the gateway (index n) if
    # b[i] != 0; every node must hear the gateway through some chain
    heard = np.flatnonzero(b)
    src = np.concatenate([cols, np.full(heard.size, n)])
    dst = np.concatenate([rows, heard])
    level = _hop_levels(n, src, dst)
    if level.min() < 0:
        raise NotConvergent("some node is unreachable from the gateway")
    # levels over the links taken both ways, so that a one-way link also
    # joins the same or adjacent levels; a topology's links already run both
    # ways
    if not isinstance(system, Topology):
        level = _hop_levels(n, np.concatenate([src, dst]),
                            np.concatenate([dst, src]))
    level = level[:n] - 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x = _solve_by_levels(level, rows, cols, vals, delta_t)
    except np.linalg.LinAlgError as err:
        raise NotConvergent(f"(I - a) is singular: {err}") from None
    if not np.all(np.isfinite(x)):
        raise NotConvergent("the steady-state error is not finite")
    return SteadyStateResult(ess=x)


def _solve_by_levels(level, rows, cols, vals, delta_t: float) -> np.ndarray:
    """Solve (I - a) x = delta_t * 1, where a[rows[k], cols[k]] = vals[k] and
    every nonzero joins nodes whose ``level`` (0..L-1) differs by at most one.

    Block Thomas elimination: with D_k, B_k and C_k the blocks of (I - a)
    from level k to levels k, k + 1 and from level k + 1 to level k,
    S_0 = D_0 and S_k+1 = D_k+1 - C_k S_k^-1 B_k, then back substitution.
    (I - a) is a nonsingular M-matrix when every row of (a | b) sums to one
    and every node hears the gateway, and so is every S_k, so no pivoting
    across levels is needed.
    """
    depth = int(level.max()) + 1
    by_level = np.argsort(level, kind="stable")
    start = np.searchsorted(level[by_level], np.arange(depth + 1))
    pos = np.empty(level.size, dtype=np.intp)  # a node's index in its level
    pos[by_level] = np.arange(level.size) - start[level[by_level]]
    # bucket the nonzeros by (row level, column level) in one sort
    key = 3 * level[rows] + level[cols] - level[rows] + 1
    order = np.argsort(key, kind="stable")
    cut = np.searchsorted(key[order], np.arange(3 * depth + 1))
    size = np.diff(start)

    def block(k: int, j: int) -> np.ndarray:
        """The block of (I - a) from level k to level k + j - 1."""
        out = np.zeros((size[k], size[k + j - 1]))
        t = order[cut[3 * k + j]:cut[3 * k + j + 1]]
        out[pos[rows[t]], pos[cols[t]]] = -vals[t]
        if j == 1:
            out.flat[::size[k] + 1] += 1.0
        return out

    s, h = block(0, 1), np.full(start[1], delta_t)
    steps = []  # S_k^-1 [B_k | h_k] for each level but the last
    for k in range(depth - 1):
        steps.append(np.linalg.solve(s, np.column_stack([block(k, 2), h])))
        c = block(k + 1, 0)
        s = block(k + 1, 1) - c @ steps[-1][:, :-1]
        h = delta_t - c @ steps[-1][:, -1]
    xs = [np.linalg.solve(s, h)]
    for sol in reversed(steps):
        xs.append(sol[:, -1] - sol[:, :-1] @ xs[-1])
    x = np.empty(level.size)
    x[by_level] = np.concatenate(xs[::-1])
    return x

"""Clock dynamics: the averaging step, the error recursion, and the
steady-state solve.

The gateway clock is the exact ramp delta_t * n. Ordinary clocks evolve by
T(n+1) = a @ T(n) + b * (delta_t * n); per-node errors are
e_i(n) = delta_t * n - t_i(n) and satisfy E(n+1) = a @ E(n) + delta_t * 1
whenever row i of (a | b) sums to one. The asymptotic error is the solution
of (I - a) x = delta_t * 1, solved sparsely: a has one nonzero per directed
link.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import SystemMatrices, Topology, _averaging_entries, _reaches_all


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
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1:
            raise ValueError("times must be a vector")
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")
        if self.round < 0:
            raise ValueError("round must be nonnegative")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)


@dataclass(frozen=True)
class ErrorState:
    """Per-node error vector e_i = delta_t * n - t_i, seconds."""

    errors: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.errors, dtype=np.float64).copy()
        if e.ndim != 1:
            raise ValueError("errors must be a vector")
        e.setflags(write=False)
        object.__setattr__(self, "errors", e)


@dataclass(frozen=True)
class SteadyStateResult:
    """Asymptotic per-node errors, seconds."""

    ess: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.ess, dtype=np.float64).copy()
        e.setflags(write=False)
        object.__setattr__(self, "ess", e)


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
    return ErrorState(errors=state.delta_t * state.round - state.times)


def error_step(err: ErrorState, mats: SystemMatrices, delta_t: float) -> ErrorState:
    """One application of the error recursion E' = a @ E + delta_t * 1."""
    if mats.n != err.errors.shape[0]:
        raise DimensionMismatch(
            f"matrices are {mats.n}x{mats.n} but error vector has {err.errors.shape[0]} entries")
    return ErrorState(errors=mats.a @ err.errors + delta_t)


def steady_state_error(system: Union[Topology, SystemMatrices],
                       delta_t: float) -> SteadyStateResult:
    """Solve (I - a) x = delta_t * 1 with a sparse LU of (I - a).

    ``system`` is a Topology, whose uniform-averaging entries are built
    straight from its edges without a dense (N, N) array, or a
    SystemMatrices, whose nonzeros are used. Both give the same bits for
    the same network.

    Raises NotConvergent when some node cannot hear the gateway through a
    chain of nonzero weights (for a topology: when has_spanning_path is
    false). When the rows of (a | b) sum to one, that is exactly when
    (I - a) is singular; an exactly zero pivot or a non-finite solution
    raises it too. Raises ValueError unless delta_t is positive and finite,
    and for a network with no ordinary node.
    """
    if not (math.isfinite(delta_t) and delta_t > 0):
        raise ValueError("delta_t must be positive and finite")
    # scipy is imported here, not at module level: it is most of the package's
    # import time and only this solve needs it
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import splu

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
    if not _reaches_all(n, np.concatenate([cols, np.full(heard.size, n)]),
                        np.concatenate([rows, heard])):
        raise NotConvergent("some node is unreachable from the gateway")
    diag = np.arange(n)
    m = coo_matrix((np.concatenate([np.ones(n), -vals]),
                    (np.concatenate([diag, rows]), np.concatenate([diag, cols]))),
                   shape=(n, n)).tocsc()
    # canonical (sorted, summed) form, so both kinds of input factor alike
    m.sum_duplicates()
    try:
        x = splu(m).solve(np.full(n, float(delta_t)))
    except RuntimeError as err:  # an exactly zero pivot
        raise NotConvergent(f"(I - a) is singular: {err}") from None
    if not np.all(np.isfinite(x)):
        raise NotConvergent("the steady-state error is not finite")
    return SteadyStateResult(ess=x)

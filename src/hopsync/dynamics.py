"""Clock dynamics: the averaging step, the error recursion, and the
steady-state solve.

The gateway clock is the exact ramp delta_t * n. Ordinary clocks evolve by
T(n+1) = a @ T(n) + b * (delta_t * n); per-node errors are
e_i(n) = delta_t * n - t_i(n) and satisfy E(n+1) = a @ E(n) + delta_t * 1
whenever row i of (a | b) sums to one. The asymptotic error is the solution
of (I - a) x = delta_t * 1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import SystemMatrices

# Pivot threshold, relative to the largest row norm, below which the
# steady-state solve is declared singular.
_SINGULAR_REL = 1e-12


class DimensionMismatch(ValueError):
    """State and matrices disagree on the node count."""


class NotConvergent(RuntimeError):
    """(I - a) is singular to working precision; some node is unreachable."""


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


def steady_state_error(mats: SystemMatrices, delta_t: float) -> SteadyStateResult:
    """Solve (I - a) x = delta_t * 1 by dense LU.

    Raises NotConvergent when a pivot falls below _SINGULAR_REL times the
    largest row norm of (I - a), which happens exactly when some node has no
    path to the gateway and the system is only marginally stable. Raises
    ValueError when delta_t is not finite.
    """
    if not math.isfinite(delta_t):
        raise ValueError("delta_t must be finite")
    # scipy is imported here, not at module level: it is most of the package's
    # import time and only this solve needs it
    from scipy.linalg import lu_factor, lu_solve

    n = mats.n
    if n == 0:
        return SteadyStateResult(ess=np.zeros(0))
    m = np.eye(n) - mats.a
    scale = np.abs(m).sum(axis=1).max()
    with warnings.catch_warnings():
        # exact singularity is an expected input here, reported as
        # NotConvergent below rather than as a warning
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < _SINGULAR_REL * scale:
        raise NotConvergent("some node is unreachable from the gateway; "
                            "(I - a) is singular to working precision")
    x = lu_solve((lu, piv), np.full(n, float(delta_t)), check_finite=False)
    return SteadyStateResult(ess=x)

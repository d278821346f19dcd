"""The seven-tap difference filter and the polarity-change stopping rule.

Each node runs one detector over its own rectified detrended clock series.
The filter output at index m compares a weighted look-ahead block of the
series against a weighted look-back block; its first sign change after the
guard period marks the transient dip, and the node can freeze its clock
there instead of waiting for steady state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import _LOOKAHEAD, _WINDOW, _error, filter_series
from .model import _check_period, _count


class SeriesTooShort(ValueError):
    """Fewer samples than one filter window."""


@dataclass(frozen=True)
class DetectorConfig:
    """Filter gain and guard length."""

    c_f: float = 1.002
    k_guard: int = 11

    def __post_init__(self):
        if not (0.95 <= self.c_f <= 1.05):
            raise ValueError("c_f must lie in [0.95, 1.05]")
        object.__setattr__(self, "k_guard", _count(self.k_guard, "k_guard"))


@dataclass(frozen=True)
class DetectionEvent:
    """A stopping decision.

    target_round is the flagged instant m (where the polarity change sits);
    detect_round = m + 3 is when the last sample feeding that output arrived
    and the node actually acts; frozen_time is the clock value it keeps.
    """

    node_id: int
    target_round: int
    frozen_time: float

    def __post_init__(self):
        object.__setattr__(self, "node_id", _count(self.node_id, "node_id"))
        object.__setattr__(self, "target_round",
                           _count(self.target_round, "target_round"))

    @property
    def detect_round(self) -> int:
        """The round the node acts: target_round + 3."""
        return self.target_round + _LOOKAHEAD


def filter_response(series, cfg: DetectorConfig) -> np.ndarray:
    """Filter outputs y(m) for m in [3, len(series)-4].

    y(m) = c_f*(0.2 x(m+3) + 0.5 x(m+2) + 0.2 x(m+1))
             - (0.2 x(m-1) + 0.5 x(m-2) + 0.2 x(m-3));
    entry j of the result is y(j+3). Outputs outside the window do not exist.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if x.shape[0] < _WINDOW:
        raise SeriesTooShort(f"need at least {_WINDOW} samples, got {x.shape[0]}")
    return filter_series(x, float(cfg.c_f))


def _first_flips(y, k_guard: int, first_m: int, prev):
    """The polarity rule over a (rows, nodes) block of filter outputs.

    Row j of ``y`` is the output at m = first_m + j. ``prev`` is each node's
    last nonzero polarity before the block (0 when it has none yet). Returns
    the first accepted flip m per node (-1 where none) and the polarity
    carried into the next block. A zero or NaN output carries the previous
    polarity: a flip is judged against the last nonzero output, and a zero
    never fires. Flips before the guard still update the carried polarity,
    so an early flip is suppressed rather than deferred.
    """
    if len(y) == 0:
        return np.full(prev.shape, -1), prev
    s = np.vstack([prev[None], (y > 0).astype(np.int8) - (y < 0)])
    rows = np.arange(s.shape[0])[:, None]
    # held[j]: the last nonzero polarity in s[:j + 1], where s[0] is prev
    held = np.take_along_axis(
        s, np.maximum.accumulate(np.where(s != 0, rows, 0), axis=0), axis=0)
    flip = s[1:] * held[:-1] < 0
    flip[:max(0, k_guard - first_m)] = False
    m = np.where(flip.any(axis=0), first_m + flip.argmax(axis=0), -1)
    return m, held[-1]


def scan_polarity(y, k_guard: int, first_m: int = _LOOKAHEAD) -> Optional[int]:
    """Index m of the first polarity change with m >= k_guard, else None.

    y[j] is the filter output at m = first_m + j; see _first_flips for the
    rule. k_guard and first_m must be nonnegative integers.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("filter outputs must be one-dimensional")
    k_guard, first_m = _count(k_guard, "k_guard"), _count(first_m, "first_m")
    m, _ = _first_flips(y[:, None], k_guard, first_m, np.zeros(1, np.int8))
    return None if m[0] < 0 else int(m[0])


def detect(series, cfg: DetectorConfig, node_id: int = 0,
           clocks=None) -> Optional[DetectionEvent]:
    """Run the stopping rule over a complete series.

    Returns the event for the first accepted polarity change, or None when
    the rule never fires (including series too short to produce any output).
    frozen_time is taken from ``clocks`` at the decision round when given.
    A series that is not one-dimensional, ``clocks`` that are not one value
    per sample, or a node_id that is not a nonnegative integer raise
    ValueError, whether or not the rule fires.
    """
    node_id = _count(node_id, "node_id")
    x = np.asarray(series, dtype=np.float64)
    if clocks is not None and np.shape(clocks) != x.shape[:1]:
        raise ValueError(
            "clocks must be one-dimensional with one value per sample")
    try:
        y = filter_response(x, cfg)
    except SeriesTooShort:
        return None
    m = scan_polarity(y, cfg.k_guard)
    if m is None:
        return None
    frozen = float(clocks[m + _LOOKAHEAD]) if clocks is not None else math.nan
    return DetectionEvent(node_id=node_id, target_round=m, frozen_time=frozen)


def node_filter_input(clock_series, delta_t: float) -> np.ndarray:
    """Rectified detrended series |t_i(n) - n*delta_t|, the detector input:
    |e| of kernels._error, so it has the bits of a run's |e|.

    A node computes this from its own clock, the exchange period, and its
    round counter. The error dip becomes a V-shaped extremum here, so the
    smoothed slope the filter estimates reverses sign right at the dip; the
    signed detrended series is monotone through the dip and would never
    produce a reversal. delta_t must be positive and finite.
    """
    t = np.asarray(clock_series, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("clock series must be one-dimensional")
    _check_period(delta_t)
    return np.abs(_error(delta_t, np.arange(t.shape[0]), t))


class OnlineDetector:
    """Incremental form of detect(): feed one sample per round.

    push() returns the DetectionEvent the moment the rule fires, and None
    before that and forever after. Produces exactly the same decision as the
    offline detect() on the same series. A node_id that is not a
    nonnegative integer raises ValueError here, before any sample, and a
    sample or clock that float() refuses raises at its push, before the
    detector's state changes, so no event is lost.
    """

    def __init__(self, cfg: DetectorConfig, node_id: int = 0):
        self.cfg = cfg
        self.node_id = _count(node_id, "node_id")
        self._window = []
        self._count = 0
        self._prev_sign = np.zeros(1, np.int8)
        self._fired = False

    def push(self, sample: float, clock: float = math.nan) -> Optional[DetectionEvent]:
        if self._fired:
            return None
        sample, clock = float(sample), float(clock)
        self._window.append(sample)
        if len(self._window) > _WINDOW:
            self._window.pop(0)
        self._count += 1
        if self._count < _WINDOW:
            return None
        y = filter_series(np.array(self._window)[:, None], self.cfg.c_f)
        m = self._count - 1 - _LOOKAHEAD
        found, self._prev_sign = _first_flips(y, self.cfg.k_guard, m,
                                              self._prev_sign)
        if found[0] < 0:
            return None
        event = DetectionEvent(node_id=self.node_id, target_round=m,
                               frozen_time=clock)
        self._fired = True
        return event

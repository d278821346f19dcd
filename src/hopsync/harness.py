"""Experiment harness: full runs, Table-style summaries, scaling sweeps, and
CSV emission.

A run evolves all clocks to the round budget. By default a node's detection
only records where it would have frozen; with halt_on_detect the node
actually drops out after its decision round (its clock stays frozen and its
links go silent), which changes the dynamics its neighbors see.
"""
from __future__ import annotations

import contextlib
import csv
import math
import os
import shutil
import signal
import sys
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelModel, _mask_block, sample_masks
from .detector import DetectionEvent, DetectorConfig, _first_flips
from .kernels import (_LOOKAHEAD, _TEXT_WIDTH, _WINDOW, _error, _float_texts,
                      filter_series, run_rounds)
from .model import (_INIT_STREAM, _MAX_LINKS, Topology, _check_period,
                    _check_probability, _count, _real, _whole,
                    effective_matrices, grid_topology)

_TRACE_HEADER = ["round", "node", "clock", "error", "filter_out", "detected"]
_SUMMARY_HEADER = ["node", "min_error_instant", "min_error_value",
                   "ss_error_instant", "ss_error_value",
                   "detected_instant", "detected_error_value"]
_SWEEP_HEADER = ["nodes", "instant_mean", "instant_min", "instant_max"]
# run() evolves, filters and detects, and trace.csv is formatted, in blocks of
# whole rounds holding about this many (round, node) cells (at least one
# round). Larger blocks are no faster and cost peak RSS.
_TRACE_BLOCK_ROWS = 4096
# scaling_sweep evolves all seeds of one size in blocks of whole rounds holding
# about this many (round, seed, node) cells (at least one round), one
# run_rounds call per block: fewer, larger blocks save per-call work and cost
# peak RSS.
_SWEEP_BLOCK_CELLS = 1 << 18
# Work forked between processes (see _workers) gives each at least this many
# of the blocks above, so a short trace or sweep runs in one process.
_BLOCKS_PER_WORKER = 8


class ConfigInvalid(ValueError):
    """A SimConfig field is out of range or inconsistent."""


def _default_init_max(delta_t: float) -> float:
    """SimConfig.init_max when not given: 100 round periods."""
    return 100.0 * delta_t


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs: topology, timing, channel, seed, detector.

    init_max defaults to _default_init_max(delta_t) when not given; initial
    clocks are uniform draws from [init_min, init_max]. halt_on_detect is
    stored as a bool and taken only as one (0 and 1 included). A topology or
    detector of another type raises TypeError.
    """

    topology: Topology
    delta_t: float = 0.001
    n_max: int = 500
    p: float = 1.0
    seed: int = 0
    init_min: float = 0.0
    init_max: Optional[float] = None
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    halt_on_detect: bool = False

    def __post_init__(self):
        for name, kind in (("topology", Topology),
                           ("detector", DetectorConfig)):
            if not isinstance(getattr(self, name), kind):
                raise TypeError(f"{name} must be a {kind.__name__}")
        flag = self.halt_on_detect
        if not (isinstance(flag, (int, np.integer, np.bool_))
                and flag in (0, 1)):
            raise ConfigInvalid("halt_on_detect must be true or false")
        object.__setattr__(self, "halt_on_detect", bool(flag))
        object.__setattr__(self, "delta_t",
                           _check_period(self.delta_t, ConfigInvalid))
        if self.init_max is None:
            object.__setattr__(self, "init_max", _default_init_max(self.delta_t))
        for name in ("init_min", "init_max"):
            object.__setattr__(self, name, _real(getattr(self, name), name,
                                                 ConfigInvalid))
        if not (math.isfinite(self.init_min) and math.isfinite(self.init_max)):
            raise ConfigInvalid("init_min and init_max must be finite")
        if self.init_min > self.init_max:
            raise ConfigInvalid("init_min must not exceed init_max")
        object.__setattr__(self, "p",
                           _check_probability(self.p, "p", ConfigInvalid))
        object.__setattr__(self, "seed", _count(self.seed, "seed",
                                                ConfigInvalid))
        object.__setattr__(self, "n_max", _whole(self.n_max, "n_max",
                                                 ConfigInvalid))
        if self.topology.node_count < 1:
            raise ConfigInvalid("topology must have at least one ordinary node")
        if self.n_max < self.detector.k_guard + _WINDOW:
            raise ConfigInvalid("n_max must be at least k_guard + 7")
        # Averaging keeps every clock in the convex hull of the initial
        # clocks and the gateway's references delta_t*k, k < n_max, so
        # |t| <= bound. A node's neighbour sum is then at most N*bound, |e|
        # at most 2*bound and a filter term at most 2*(1 + c_f)*2*bound
        # < 9*bound (c_f <= 1.05): none overflows while (N + 8)*bound does
        # not.
        bound = max(abs(self.init_min), abs(self.init_max),
                    self.delta_t * self.n_max)
        if not bound * (self.topology.node_count + 8) <= sys.float_info.max:
            raise ConfigInvalid(
                "delta_t * n_max and the initial clocks are too large: the "
                "clock, error or filter arithmetic would overflow")


@dataclass(frozen=True)
class RunTrace:
    """Complete run record: the clocks and each node's stop.

    times is an (n_max + 1, N) float64 array indexed by round then node,
    taken as np.asarray gives it (ValueError unless it is 2-D with at least
    one round and one node). targets[i] is node i's flagged round, -1 where
    it has none, stored as a read-only int64 copy: TypeError unless it is an
    integer (not bool) array, ValueError unless its shape is (N,) and each
    value is -1 or in 0..n_max - 3, since a stop at m is decided at round
    m + 3, which the trace must hold. A config of another type raises
    TypeError. events, errors and filter_outputs are derived from these
    each time they are read; filter_outputs is NaN where the filter window
    is undefined (see _error and _derived).
    """

    config: SimConfig
    times: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if not isinstance(self.config, SimConfig):
            raise TypeError("config must be a SimConfig")
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 2 or 0 in times.shape:
            raise ValueError(f"times must be a 2-D array of at least one round "
                             f"by one node, not of shape {times.shape}")
        object.__setattr__(self, "times", times)
        rows, n = times.shape
        targets = np.asarray(self.targets)
        if targets.dtype.kind not in "iu":
            raise TypeError("targets must be an integer array")
        if targets.shape != (n,):
            raise ValueError(f"targets must have shape ({n},), one round per "
                             f"node, not {targets.shape}")
        last = max(-1, rows - 1 - _LOOKAHEAD)  # -1 is always allowed
        if int(targets.min()) < -1 or int(targets.max()) > last:
            raise ValueError(
                f"targets must each be -1 or a round m whose decision round "
                f"m + 3 is in the trace's rounds 0..{rows - 1}")
        targets = targets.astype(np.int64)
        targets.flags.writeable = False
        object.__setattr__(self, "targets", targets)

    @property
    def n_max(self) -> int:
        return self.times.shape[0] - 1

    @property
    def events(self) -> Tuple[DetectionEvent, ...]:
        """One DetectionEvent per node with a target, in node order, whose
        frozen_time is the node's clock at its decision round."""
        nodes = np.flatnonzero(self.targets >= 0)
        rounds = self.targets[nodes]
        frozen = self.times[rounds + _LOOKAHEAD, nodes]
        return tuple(map(DetectionEvent, nodes.tolist(), rounds.tolist(),
                         frozen.tolist()))

    @property
    def errors(self) -> np.ndarray:
        """delta_t*r - t at every round r and node."""
        return _error(self.config.delta_t,
                      np.arange(self.n_max + 1)[:, None], self.times)

    @property
    def filter_outputs(self) -> np.ndarray:
        """The filter of |e| at every round and node, NaN in the first and
        last three rounds."""
        return _derived(self, 0, self.n_max + 1)[1]


@dataclass(frozen=True)
class NodeSummary:
    """Table-style row for one node.

    detected_instant is the flagged instant (the event's target round) and
    detected_error_value is |e| read at that instant; both are None when the
    rule never fired.
    """

    node_id: int
    min_error_instant: int
    min_error_value: float
    ss_error_instant: int
    ss_error_value: float
    detected_instant: Optional[int]
    detected_error_value: Optional[float]


@dataclass(frozen=True)
class SweepPoint:
    node_count: int
    instant_mean: float
    instant_min: float
    instant_max: float


@dataclass(frozen=True)
class SweepResult:
    points: Tuple[SweepPoint, ...]
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]


def initial_clocks(cfg: SimConfig) -> np.ndarray:
    rng = np.random.default_rng([int(cfg.seed), _INIT_STREAM])
    return rng.uniform(cfg.init_min, cfg.init_max, size=cfg.topology.node_count)


def run(cfg: SimConfig) -> RunTrace:
    """Evolve the system for cfg.n_max rounds and run every node's detector.

    Deterministic for a fixed config. A disconnected topology is simulated
    anyway: nodes the gateway does not reach never hear the reference. The
    clocks are filled a block of rounds at a time (see _rounds); too many
    rounds for any array raise MemoryError, as too many for memory do.
    """
    shape = (cfg.n_max + 1, cfg.topology.node_count)
    try:
        times = np.empty(shape)
    except ValueError as err:  # more values than an array can index
        raise MemoryError(f"cannot allocate {shape[0]} x {shape[1]} clocks: "
                          f"{err}") from err
    for r0, clocks, _, first in _rounds(cfg, [cfg.seed], _TRACE_BLOCK_ROWS,
                                        detect=True):
        times[r0:r0 + len(clocks)] = clocks[:, 0]
    return RunTrace(config=cfg, times=times, targets=first[0])


def _derived(trace: RunTrace, r0: int, r1: int):
    """Rounds r0..r1-1 of ``trace``'s errors and filter outputs, as
    (r1 - r0, N) arrays read from times[max(0, r0 - 3):r1 + 3] alone.

    The filter output at round m is filter_series of |e| over rounds
    m-3..m+3, NaN where those are not all in the trace. The error is
    _error's and the filter _rounds' detector input, and each output bit
    depends only on its inputs' bits, so the arrays are the same, bit for
    bit, whatever the split."""
    rows, cfg = trace.n_max + 1, trace.config
    a, b = max(0, r0 - _LOOKAHEAD), min(rows, r1 + _LOOKAHEAD)
    err = _error(cfg.delta_t, np.arange(a, b)[:, None], trace.times[a:b])
    out = np.full((r1 - r0, err.shape[1]), np.nan)
    lo, hi = max(r0, _LOOKAHEAD), min(r1, rows - _LOOKAHEAD)
    if lo < hi:
        out[lo - r0:hi - r0] = filter_series(
            np.abs(err[lo - _LOOKAHEAD - a:hi + _LOOKAHEAD - a]),
            cfg.detector.c_f)
    return err[r0 - a:r1 - a], out


def _rounds(cfg: SimConfig, seeds: Sequence[int], cells: int, detect: bool):
    """Evolve ``cfg`` once per seed in ``seeds`` as one (runs, N) state over
    rounds 0..n_max, a block of whole rounds at a time: about ``cells``
    (round, run, node) cells, at least one round.

    Yields (r0, clocks, err, first): the clocks of rounds r0, r0+1, ... as a
    (rounds, runs, N) array and err their |e| (see _error). With
    ``detect``, first holds each node's first polarity flip so far (-1
    where none), as in detector._first_flips, found in the filter of |e|;
    without it first stays -1. The last six |e| rows and each column's
    polarity are carried between blocks, so no output depends on the block
    length. The detector input (see detector.node_filter_input) is this
    |e|.

    A halting run (it needs ``detect``) steps one round per block. A node
    halts at the round its detector fires (the last sample of the window
    holding its first flip): its links go silent, so its clock holds. Once
    every node of every run has halted nothing changes again: no more rounds
    are stepped and the frozen clocks are yielded a block at a time.
    Masks are keyed by (seed, round) and do not depend on halting or on
    how many rounds one draw holds, so stopping early changes no draw. A
    mask draw has a fixed cost per call that a draw per round would pay on
    every round, so every run draws as many whole steps of rounds as hold
    about _SWEEP_BLOCK_CELLS bits, at least one step, each lane (one run's
    round) counted as its coins and its four 64-bit seed words: a network
    with few links does not draw thousands of lanes for a few bits each
    (see channel._mask_block). Each step takes its rounds from the front of
    the masks drawn but not yet stepped.
    """
    topo, n_max, halting = cfg.topology, cfg.n_max, cfg.halt_on_detect
    dt, det = cfg.delta_t, cfg.detector
    eu, ev = topo.edge_arrays()
    t = np.stack([initial_clocks(replace(cfg, seed=s)) for s in seeds])
    step = max(1, cells // t.size)
    unit = 1 if halting else step  # the rounds one run_rounds call steps
    draw = unit * max(1, _SWEEP_BLOCK_CELLS // (
        len(seeds) * (len(eu) + 4 * 64) * unit))
    first = np.full(t.shape, -1)
    tail = np.empty((0,) + t.shape)
    sign = np.zeros(t.size, np.int8)
    r0, block = 0, t[None]
    ahead = np.empty((0, len(seeds), len(eu)), dtype=bool)
    while True:
        err = _error(dt, np.arange(r0, r0 + len(block))[:, None, None], block)
        np.abs(err, out=err)
        if detect:
            x = np.concatenate([tail, err])
            y = filter_series(x, det.c_f)
            found, sign = _first_flips(y.reshape(len(y), t.size), det.k_guard,
                                       r0 - len(tail) + _LOOKAHEAD, sign)
            first = np.where(first < 0, found.reshape(t.shape), first)
            tail = x[1 - _WINDOW:]
        yield r0, block, err, first
        r0 += len(block)
        if r0 > n_max:
            return
        halted = halting & (first >= 0)
        if halted.all():
            block = np.broadcast_to(t, (min(step, n_max + 1 - r0),) + t.shape)
            continue
        if not len(ahead):
            ahead = _mask_block(cfg.p, seeds, len(eu), r0 - 1,
                                min(r0 - 1 + draw, n_max))
        masks, ahead = ahead[:unit], ahead[unit:]
        if halted.any():  # silence every edge touching a halted node
            live = np.concatenate(  # the gateway's column: it never halts
                [~halted, np.ones((len(seeds), 1), dtype=bool)], axis=1)
            masks = masks & live[:, eu] & live[:, ev]
        block = run_rounds(t, eu, ev, masks, dt, round0=r0 - 1)[1:]
        t = block[-1]


def run_error_recursion(cfg: SimConfig) -> np.ndarray:
    """Reference error path: iterate E' = a_eff @ E + delta_t directly.

    Used for cross-checks against the trace errors; shares the exact same
    mask stream as run(). The recursion has no halting, so a config with
    halt_on_detect raises ValueError.
    """
    if cfg.halt_on_detect:
        raise ValueError("run_error_recursion does not model halt_on_detect")
    topo = cfg.topology
    masks = sample_masks(ChannelModel(p=cfg.p, seed=cfg.seed), topo, cfg.n_max)
    t0 = initial_clocks(cfg)
    e = -t0.copy()
    out = np.empty((cfg.n_max + 1, topo.node_count))
    out[0] = e
    for rnd in range(cfg.n_max):
        mats = effective_matrices(topo, masks[rnd])
        e = mats.a @ e + cfg.delta_t
        out[rnd + 1] = e
    return out


def _min_rounds(blocks):
    """Each column's minimum over (r0, block) pairs, whose rows are rounds
    r0, r0+1, ..., and the round it is reached at.

    Over any split into blocks, ties go to the earliest round and a NaN wins
    over any number, as one np.argmin over all rows decides.
    """
    best = best_at = None
    for r0, block in blocks:
        at = np.argmin(block, axis=0)
        low = np.take_along_axis(block, at[None], axis=0)[0]
        at += r0
        if best is not None:
            better = (low < best) | (np.isnan(low) & ~np.isnan(best))
            low, at = np.where(better, low, best), np.where(better, at, best_at)
        best, best_at = low, at
    return best, best_at


def summarize(trace: RunTrace) -> List[NodeSummary]:
    """One NodeSummary per node from a complete trace.

    |e| (see _error) is folded into the per-node minimum a block of whole
    rounds at a time, so no array of the whole error is made. The |e| at
    each node's flagged round (see RunTrace) and at the last round are read
    from those clocks alone, the flagged ones with one gather.
    """
    dt, times, rows = trace.config.delta_t, trace.times, trace.n_max + 1
    step = max(1, _TRACE_BLOCK_ROWS // times.shape[1])
    best, best_at = _min_rounds(
        (r0, np.abs(_error(dt, np.arange(r0, min(r0 + step, rows))[:, None],
                           times[r0:r0 + step])))
        for r0 in range(0, rows, step))
    # a node without a target gathers the last round, which is never read
    targets = trace.targets
    picked = np.abs(_error(dt, targets,
                           times[targets, np.arange(times.shape[1])]))
    last = np.abs(_error(dt, trace.n_max, times[-1]))
    out = []
    for i, (at, low, ss, det, value) in enumerate(zip(
            best_at.tolist(), best.tolist(), last.tolist(), targets.tolist(),
            picked.tolist())):
        out.append(NodeSummary(
            node_id=i,
            min_error_instant=at,
            min_error_value=low,
            ss_error_instant=trace.n_max,
            ss_error_value=ss,
            detected_instant=det if det >= 0 else None,
            detected_error_value=value if det >= 0 else None,
        ))
    return out


def _min_error_instants(cfg: SimConfig, seeds: Sequence[int]) -> np.ndarray:
    """Each node's min-|e| round in each run, as a (runs, N) int array.

    The runs evolve as one state through _rounds, about _SWEEP_BLOCK_CELLS
    (round, run, node) cells a block, and each block's |e| folds into the
    running per-(run, node) minimum, so no RunTrace is built and no detector
    runs unless nodes halt.
    """
    return _min_rounds((r0, err) for r0, _, err, _ in _rounds(
        cfg, seeds, _SWEEP_BLOCK_CELLS, detect=cfg.halt_on_detect))[1]


def scaling_sweep(sizes: Sequence[Tuple[int, int]], template: SimConfig,
                  seeds: int = 5) -> SweepResult:
    """Mean min-error instant versus network size over grid topologies.

    Each size runs ``seeds`` seeds (template.seed, template.seed+1, ...) as
    one batched state; the per-run metric is the node-average min-|e|
    instant. Returns the per-size mean/min/max plus a least-squares line
    over (total nodes, mean instant) with its R-squared. The line is None
    unless at least two distinct node counts are swept, and R-squared is
    None when every mean instant is the same.

    Every size's grid and config is built and checked before any is
    evolved, so a bad size is refused without delay; so are more seeds
    than leave a size's per-round mask draw of seeds x links within
    _MAX_LINKS. Whole sizes are then dealt to _workers processes (at most
    one per size), largest estimated work first (see _shares): this
    process evolves its own share, and each forked child saves its sizes'
    (seeds, N) min-|e| rounds with np.save to a file that is read back here
    with np.load (see _forked). A size's rounds do not depend on the
    process that evolved them, so the result is the same for any number of
    workers. A child that fails raises OSError here.
    """
    seeds = _whole(seeds, "seeds", ConfigInvalid)
    if seeds < 1:
        raise ConfigInvalid("seeds must be at least 1")
    configs = []
    for rows, cols in sizes:
        cfg = replace(template,
                      topology=grid_topology(rows, cols, gateway="corner"))
        links = len(cfg.topology.edges)
        if seeds * links > _MAX_LINKS:
            raise ConfigInvalid(
                f"{seeds} seeds of the {rows}x{cols} grid draw "
                f"{seeds * links} links a round, more than the {_MAX_LINKS} "
                "allowed")
        configs.append(cfg)
    if not configs:
        raise ConfigInvalid("sizes must name at least one grid")
    runs = range(template.seed, template.seed + seeds)
    work = [cfg.topology.node_count * (cfg.n_max + 1) * seeds
            for cfg in configs]
    shares = _shares(work, min(len(configs),
                               _workers(sum(work) // _SWEEP_BLOCK_CELLS)))
    instants = [None] * len(configs)

    def evolve(w, part):
        for i in shares[w]:
            np.save(part, _min_error_instants(configs[i], runs))

    with _forked(evolve, len(shares) - 1) as reaped:
        for i in shares[0]:
            instants[i] = _min_error_instants(configs[i], runs)
        for w, part in enumerate(reaped, 1):
            for i in shares[w]:
                instants[i] = np.load(part)
    points = []
    for cfg, runs_instants in zip(configs, instants):
        vals = runs_instants.mean(axis=1).tolist()
        points.append(SweepPoint(node_count=cfg.topology.total_nodes,
                                 instant_mean=float(np.mean(vals)),
                                 instant_min=float(np.min(vals)),
                                 instant_max=float(np.max(vals))))
    if len({p.node_count for p in points}) < 2:
        return SweepResult(points=tuple(points), slope=None, intercept=None,
                           r_squared=None)
    x = np.array([p.node_count for p in points], dtype=np.float64)
    y = np.array([p.instant_mean for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = None if ss_tot == 0.0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return SweepResult(points=tuple(points), slope=float(slope),
                       intercept=float(intercept), r_squared=r2)


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if np.isnan(f):
        return ""
    return repr(f)


def _int_fields(start: int, count: int, last: Optional[int] = None
                ) -> np.ndarray:
    """The CSV fields ``f"{i},"`` of i = start..start+count-1 as a
    (count, width) uint8 matrix, NUL-padded on the left to the width of
    ``last``'s field (default: the last i's)."""
    last = start + count - 1 if last is None else last
    values = np.arange(start, start + count, dtype=np.int64)[:, None]
    scale = 10 ** np.arange(len(str(last)) - 1, -1, -1, dtype=np.int64)
    out = np.full((count, len(scale) + 1), ord(","), dtype=np.uint8)
    out[:, :-1] = values // scale % 10 + ord("0")
    out[:, :-2][values < scale[:-1]] = 0  # leading zeros
    return out


class _BlockWork(NamedTuple):
    """The buffers _trace_block lays out blocks of up to ``rounds`` rounds
    of N nodes in, rounds up to ``last`` (see _block_work)."""
    last: int
    nodes: np.ndarray  # _int_fields(0, N): each node's field and ','
    texts: np.ndarray  # (3 * rounds * N + 1, 25) uint8: each text and ','
    rows: np.ndarray   # (rounds, N, width) uint8: the rows, NUL-padded
    # rounds * N * width bytes that hold in turn the three float columns,
    # each cell's three texts and rows' nonzero bytes: each is last read
    # before the next is written
    spare: np.ndarray


def _block_work(rounds: int, n: int, last: int) -> _BlockWork:
    """A _BlockWork for blocks of up to ``rounds`` rounds of ``n`` nodes,
    none after round ``last``. Its pages are touched only as blocks use
    them, so a block that holds few distinct floats touches little of
    ``texts``."""
    nodes = _int_fields(0, n)
    width = len(str(last)) + 1 + nodes.shape[1] + 3 * (_TEXT_WIDTH + 1) + 3
    return _BlockWork(
        last, nodes,
        np.empty((3 * rounds * n + 1, _TEXT_WIDTH + 1), dtype=np.uint8),
        np.empty((rounds, n, width), dtype=np.uint8),
        np.empty(rounds * n * width, dtype=np.uint8))


def _trace_block(times, errors, filter_outputs, targets, r0,
                 work: _BlockWork) -> memoryview:
    """trace.csv rows for the (rounds, N) block arrays of rounds r0, r0+1,
    ..., exactly as ``csv.writer`` wrote them: ``repr`` floats, empty
    ``filter_out`` for NaN, CRLF endings. ``targets`` holds each node's
    flagged round, -1 where it has none (see RunTrace): ``detected`` is 1
    where it equals the row's round.

    Each row is laid out in one (rounds, N, width) uint8 matrix of
    fixed-width, NUL-padded fields: the round and the node with their ','
    each, the three floats with a ',' after each, the flag and CRLF. No CSV
    byte is NUL, so the nonzero bytes in order are the rows. Each distinct
    float of the three columns is formatted once, keyed by its bits so that
    -0.0 and 0.0 stay apart. Only ``filter_out``'s NaN cells are then
    blank: a NaN clock or error still prints ``nan``.

    The matrices are laid out in ``work``, made by _block_work for blocks
    of at least these rounds of these N nodes. Every byte a block reads
    from ``work`` is written by that block first, so the bytes do not
    depend on the blocks before. Returns the rows' bytes as a memoryview of
    a new array."""
    rounds, n = times.shape
    values = work.spare[:rounds * n * 3 * 8].view(np.float64).reshape(
        rounds, n, 3)
    values[..., 0], values[..., 1], values[..., 2] = (
        times, errors, filter_outputs)
    uniq, inv = np.unique(values.view(np.int64), return_inverse=True)
    # NumPy 1.x returns the inverse flat and 2.x in the input's shape
    inv = inv.reshape(rounds, n, 3)
    # each text with its ',', then a blank (just ',') for filter_out's NaN
    texts = work.texts[:len(uniq) + 1]
    _float_texts(uniq.view(np.float64), out=texts[:-1, :-1])
    texts[-1, :-1] = 0
    texts[:, -1] = ord(",")
    inv[..., 2][np.isnan(filter_outputs)] = len(uniq)
    cells = np.take(texts, inv, axis=0, mode="clip", out=work.spare[
        :inv.size * texts.shape[1]].reshape(inv.shape + texts.shape[1:]))
    keys = _int_fields(r0, rounds, work.last)
    a, b = keys.shape[1], keys.shape[1] + work.nodes.shape[1]
    rows = work.rows[:rounds]
    rows[:, :, :a] = keys[:, None]
    rows[:, :, a:b] = work.nodes
    rows[:, :, b:-3] = cells.reshape(rounds, n, -1)
    rows[:, :, -3:] = np.frombuffer(b"0\r\n", dtype=np.uint8)
    rows[targets == np.arange(r0, r0 + rounds)[:, None], -3] = ord("1")
    kept = work.spare[:rows.size].view(bool).reshape(rows.shape)
    return memoryview(rows[np.not_equal(rows, 0, out=kept)])


def _workers(blocks: int) -> int:
    """How many processes share work of ``blocks`` blocks: one per CPU this
    process may run on, but no more than leaves each at least
    _BLOCKS_PER_WORKER blocks, and one where the platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)),
                      blocks // _BLOCKS_PER_WORKER))


def _shares(work: Sequence[int], workers: int) -> List[List[int]]:
    """The indices of ``work`` dealt to ``workers`` workers, largest work
    first (the lower index among equals), each to the least loaded worker
    (the lowest numbered among equals), so worker 0 gets the largest."""
    loads, shares = [0] * workers, [[] for _ in range(workers)]
    for i in sorted(range(len(work)), key=lambda i: -work[i]):
        w = loads.index(min(loads))
        loads[w] += work[i]
        shares[w].append(i)
    return shares


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork in a process with threads (OpenBLAS
        # starts some). The child is safe: it only evolves rounds and
        # formats bytes from arrays it reads, takes no lock, calls no BLAS,
        # writes no stdout and always leaves through os._exit.
        warnings.filterwarnings(
            "ignore", message=r".*use of fork\(\) may lead to deadlocks",
            category=DeprecationWarning)
        return os.fork()


def _one_line(exc: BaseException) -> str:
    """``exc`` on one line: its type's name, then its text if it has any."""
    text = " ".join(str(exc).split())
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


@contextlib.contextmanager
def _forked(work, children: int, directory=None):
    """Children w = 1..``children``, forked in that order as the with-block
    is entered. Child w calls work(w, part), where ``part`` is an unlinked
    temporary binary file in ``directory`` (None: the default temporary
    directory), and leaves through os._exit: status 0 once work has
    returned and part is flushed, 1 on any exception, whose _one_line it
    first writes to a pipe that this process reads. The with-block, given
    the iterator ``reaped``, does this process's own share while they run.
    ``reaped`` reaps each child in order of w and yields its part rewound
    if it exited 0; otherwise it raises OSError naming the child's
    exception, or its exit status where it wrote none. Whatever ends the
    with-block, a failed fork, an exception or parts left unread, every
    child not yet reaped is killed (SIGKILL) and reaped, and every pipe and
    part is closed."""
    live = []  # (pid, part, cause) of each child not yet reaped

    def reaped():
        while live:
            pid, part, cause = live[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del live[0]
            if code != 0:
                line = cause.read().decode(errors="replace")
                raise OSError(f"worker {pid} failed: {line}" if line else
                              f"worker {pid} exited with status {code}")
            part.seek(0)
            yield part

    with contextlib.ExitStack() as stack:
        try:
            for w in range(1, children + 1):
                part = stack.enter_context(
                    tempfile.TemporaryFile(dir=directory))
                read, write = os.pipe()
                cause = stack.enter_context(open(read, "rb"))
                try:
                    pid = _fork()
                    if pid == 0:
                        code = 1
                        try:
                            work(w, part)
                            part.flush()
                            code = 0
                        except BaseException as exc:
                            with contextlib.suppress(BaseException):
                                os.set_blocking(write, False)  # never wait
                                os.write(write, _one_line(exc).encode())
                        finally:
                            os._exit(code)
                finally:
                    os.close(write)  # the child's exit alone ends the pipe
                live.append((pid, part, cause))
            yield reaped()
        finally:
            for pid, *_ in live:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


@contextlib.contextmanager
def _signals_held():
    """SIGINT and SIGTERM wait through the with-block and are delivered as
    it ends, where the platform can block signals."""
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                  {signal.SIGINT, signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


@contextlib.contextmanager
def _replacing_all(paths):
    """The names of new files beside each of ``paths``, for the with-block
    to write. Once it completes, each new file replaces its path, with
    SIGINT and SIGTERM held until all have (see _signals_held). On any
    exception, an interrupt included, the new files are deleted and every
    path is left as it was, so each file at a path is complete and they
    come from the same with-block."""
    news = [f"{os.fspath(path)}.{os.getpid()}.tmp" for path in paths]
    try:
        yield news
        with _signals_held():
            for new, path in zip(news, paths):
                os.replace(new, path)
    except BaseException:
        for new in news:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(new)
        raise


@contextlib.contextmanager
def _replacing(path, mode: str, **kwargs):
    """A new file beside ``path``, opened with ``mode`` and ``kwargs``,
    that replaces ``path`` once the with-block completes (see
    _replacing_all). The new file is created as ``open`` creates one, so
    the umask sets its mode."""
    with _replacing_all([path]) as (new,):
        fd = os.open(new, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, mode, **kwargs) as fh:
            yield fh


def write_trace_csv(trace: RunTrace, path) -> None:
    """Write trace.csv of ``trace`` to ``path``. Rows are (round, node)
    pairs, round-major. ``filter_out`` is empty where the filter window is
    undefined; ``detected`` is 1 exactly at a node's flagged instant, its
    entry of trace.targets.

    Whole rounds are derived (see _derived), formatted and written a block
    at a time, so memory beyond ``trace.times`` stays near one block per
    process whatever the run length. The rounds split into one contiguous
    span of whole blocks per worker (see _workers). A forked child (see
    _forked) formats each span w >= 1 into an unlinked temporary file in
    ``path``'s directory, while this process writes the header and span 0
    straight into the new file that replaces ``path`` (see _replacing), then
    appends, in span order, each child's file. Each span fills one set of
    block buffers, made once for its largest block (see _block_work). A
    cell's text depends on its value alone (see _trace_block), so the bytes
    are the same for any number of workers. A child that fails raises
    OSError here."""
    n = trace.times.shape[1]
    rounds = trace.n_max + 1
    step = max(1, _TRACE_BLOCK_ROWS // n)
    blocks = -(-rounds // step)
    workers = _workers(blocks)
    ends = [min(rounds, w * blocks // workers * step)
            for w in range(workers + 1)]

    def span(w, fh):
        r0, r1 = ends[w], ends[w + 1]
        work = _block_work(min(step, r1 - r0), n, r1 - 1)
        for a in range(r0, r1, step):
            b = min(a + step, rounds)
            fh.write(_trace_block(trace.times[a:b], *_derived(trace, a, b),
                                  trace.targets, a, work))

    with _forked(span, workers - 1,
                 os.path.dirname(os.path.abspath(path))) as reaped, \
            _replacing(path, "wb") as fh:
        fh.write((",".join(_TRACE_HEADER) + "\r\n").encode("ascii"))
        span(0, fh)
        for part in reaped:
            shutil.copyfileobj(part, fh)


def write_summary_csv(summaries: Sequence[NodeSummary], path) -> None:
    with _replacing(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SUMMARY_HEADER)
        for s in summaries:
            w.writerow([s.node_id, s.min_error_instant, _fmt(s.min_error_value),
                        s.ss_error_instant, _fmt(s.ss_error_value),
                        "" if s.detected_instant is None else s.detected_instant,
                        _fmt(s.detected_error_value)])


def write_sweep_csv(result: SweepResult, path) -> None:
    with _replacing(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SWEEP_HEADER)
        for p in result.points:
            w.writerow([p.node_count, _fmt(p.instant_mean),
                        _fmt(p.instant_min), _fmt(p.instant_max)])

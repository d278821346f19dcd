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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelModel, _mask_block, sample_masks
from .detector import DetectionEvent, DetectorConfig, _first_flips
from .kernels import (_LOOKAHEAD, _WINDOW, _float_reprs, filter_series,
                      run_rounds)
from .model import (_INIT_STREAM, Topology, _check_period,
                    _check_probability, _count, _whole, effective_matrices,
                    grid_topology)

_TRACE_HEADER = ["round", "node", "clock", "error", "filter_out", "detected"]
_SUMMARY_HEADER = ["node", "min_error_instant", "min_error_value",
                   "ss_error_instant", "ss_error_value",
                   "detected_instant", "detected_error_value"]
_SWEEP_HEADER = ["nodes", "instant_mean", "instant_min", "instant_max"]
# run() evolves, filters and detects, and trace.csv is formatted, in blocks of
# whole rounds holding about this many (round, node) cells (at least one
# round). Larger blocks are no faster and cost peak RSS. trace.csv's rounds
# split between its workers in whole blocks, at least _BLOCKS_PER_WORKER
# blocks to a worker, so a short trace is formatted in one process.
_TRACE_BLOCK_ROWS = 4096
_BLOCKS_PER_WORKER = 8
# scaling_sweep evolves all seeds of one size in blocks of whole rounds holding
# about this many (round, seed, node) cells (at least one round), one
# run_rounds call per block: fewer, larger blocks save per-call work and cost
# peak RSS.
_SWEEP_BLOCK_CELLS = 1 << 18


class ConfigInvalid(ValueError):
    """A SimConfig field is out of range or inconsistent."""


def _default_init_max(delta_t: float) -> float:
    """SimConfig.init_max when not given: 100 round periods."""
    return 100.0 * delta_t


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs: topology, timing, channel, seed, detector.

    init_max defaults to _default_init_max(delta_t) when not given; initial
    clocks are uniform draws from [init_min, init_max].
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
        _check_period(self.delta_t, ConfigInvalid)
        if self.init_max is None:
            object.__setattr__(self, "init_max", _default_init_max(self.delta_t))
        if not (math.isfinite(self.init_min) and math.isfinite(self.init_max)):
            raise ConfigInvalid("init_min and init_max must be finite")
        if self.init_min > self.init_max:
            raise ConfigInvalid("init_min must not exceed init_max")
        _check_probability(self.p, "p", ConfigInvalid)
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
    """Complete run record: clock/error/filter series and detection events.

    times, errors, filter_outputs are (n_max + 1, N) arrays indexed by round
    then node; filter_outputs is NaN where the filter window is undefined.
    """

    config: SimConfig
    times: np.ndarray
    errors: np.ndarray
    filter_outputs: np.ndarray
    events: Tuple[DetectionEvent, ...]

    @property
    def n_max(self) -> int:
        return self.times.shape[0] - 1


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
    anyway: nodes the gateway does not reach never hear the reference.
    """
    n = cfg.topology.node_count
    times = np.empty((cfg.n_max + 1, n), dtype=np.float64)
    filter_outputs = np.full((cfg.n_max + 1, n), np.nan)
    step = max(1, _TRACE_BLOCK_ROWS // n)
    for r0, clocks, _, m0, y, first in _rounds(cfg, [cfg.seed], step,
                                               detect=True):
        times[r0:r0 + len(clocks)] = clocks[:, 0]
        filter_outputs[m0:m0 + len(y)] = y[:, 0]
    flips = first[0]
    rounds = np.arange(cfg.n_max + 1, dtype=np.float64)
    errors = cfg.delta_t * rounds[:, None] - times
    events = tuple(
        DetectionEvent(node_id=int(i), target_round=int(m),
                       frozen_time=float(times[m + _LOOKAHEAD, i]))
        for i, m in zip(np.flatnonzero(flips >= 0), flips[flips >= 0]))
    return RunTrace(config=cfg, times=times, errors=errors,
                    filter_outputs=filter_outputs, events=events)


def _rounds(cfg: SimConfig, seeds: Sequence[int], step: int, detect: bool):
    """Evolve ``cfg`` once per seed in ``seeds`` as one (runs, N) state over
    rounds 0..n_max, a block of whole rounds at a time.

    Yields (r0, clocks, err, m0, y, first): the clocks of rounds r0, r0+1,
    ... as a (rounds, runs, N) array, about ``step`` rounds a block, and err
    their |e| = |delta_t*r - t|. With ``detect``, y holds the filter outputs
    of |e| at m = m0, m0+1, ... that the block completes, and first each
    node's first polarity flip so far (-1 where none), as in
    detector._first_flips; without it m0 and y are None and first stays -1.
    The last six |e| rows and each column's polarity are carried between
    blocks, so no output depends on ``step``. The detector input
    |t - n*delta_t| is |e|: the two differences are exact negatives.

    A halting run (it needs ``detect``) steps one round per block. A node
    halts at the round its detector fires (the last sample of the window
    holding its first flip): its links go silent, so its clock holds. Once
    every node of every run has halted nothing changes again: no more rounds
    are stepped and the frozen clocks are yielded ``step`` rounds a block.
    Masks are keyed by (seed, round) and do not depend on halting, so every
    run draws them ``step`` rounds at a time, a halting run ahead of the
    round it steps, and stopping early changes no draw. A mask draw has a
    fixed cost per call that a draw per round would pay on every round.
    """
    topo, n_max, halting = cfg.topology, cfg.n_max, cfg.halt_on_detect
    n, dt, det = topo.node_count, cfg.delta_t, cfg.detector
    eu, ev = topo.edge_arrays()
    to_gateway, ev_node = ev >= n, np.minimum(ev, n - 1)
    t = np.stack([initial_clocks(replace(cfg, seed=s)) for s in seeds])
    first = np.full(t.shape, -1)
    tail = np.empty((0,) + t.shape)
    sign = np.zeros(t.size, np.int8)
    m0 = y = None
    r0, block = 0, t[None]
    a0, ahead = 0, np.empty((0, len(seeds), len(eu)), dtype=bool)
    while True:
        r = np.arange(r0, r0 + len(block), dtype=np.float64)
        err = dt * r[:, None, None] - block
        np.abs(err, out=err)
        if detect:
            x = np.concatenate([tail, err])
            m0 = r0 - len(tail) + _LOOKAHEAD
            y = filter_series(x, det.c_f)
            found, sign = _first_flips(y.reshape(len(y), t.size),
                                       det.k_guard, m0, sign)
            first = np.where(first < 0, found.reshape(t.shape), first)
            tail = x[1 - _WINDOW:]
        yield r0, block, err, m0, y, first
        r0 += len(block)
        if r0 > n_max:
            return
        halted = halting & (first >= 0)
        if halted.all():
            block = np.broadcast_to(t, (min(step, n_max + 1 - r0),) + t.shape)
            continue
        if r0 - 1 == a0 + len(ahead):  # every mask drawn so far is used
            a0, ahead = r0 - 1, _mask_block(cfg.p, seeds, len(eu), r0 - 1,
                                            min(r0 - 1 + step, n_max))
        masks = ahead[r0 - 1 - a0:r0 - a0 if halting else None]
        if halted.any():  # silence every edge touching a halted node
            masks = masks & (~halted[:, eu]
                             & (to_gateway | ~halted[:, ev_node]))
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

    The per-node minimum of |e| is reduced a block of whole rounds at a time,
    so no copy of the whole error array is made.
    """
    errors = trace.errors
    step = max(1, _TRACE_BLOCK_ROWS // errors.shape[1])
    best, best_at = _min_rounds((r0, np.abs(errors[r0:r0 + step]))
                                for r0 in range(0, trace.n_max + 1, step))
    detected = {e.node_id: e.target_round for e in trace.events}
    ss = np.abs(errors[-1]).tolist()
    out = []
    for i, (at, low) in enumerate(zip(best_at.tolist(), best.tolist())):
        det = detected.get(i)
        out.append(NodeSummary(
            node_id=i,
            min_error_instant=at,
            min_error_value=low,
            ss_error_instant=trace.n_max,
            ss_error_value=ss[i],
            detected_instant=det,
            detected_error_value=(None if det is None
                                  else float(abs(errors[det, i]))),
        ))
    return out


def _min_error_instants(cfg: SimConfig, seeds: Sequence[int]) -> np.ndarray:
    """Each node's min-|e| round in each run, as a (runs, N) int array.

    The runs evolve as one state through _rounds, about _SWEEP_BLOCK_CELLS
    (round, run, node) cells a block, and each block's |e| folds into the
    running per-(run, node) minimum, so no RunTrace is built and no detector
    runs unless nodes halt.
    """
    step = max(1, _SWEEP_BLOCK_CELLS // (len(seeds) * cfg.topology.node_count))
    return _min_rounds((r0, err) for r0, _, err, *_ in _rounds(
        cfg, seeds, step, detect=cfg.halt_on_detect))[1]


def scaling_sweep(sizes: Sequence[Tuple[int, int]], template: SimConfig,
                  seeds: int = 5) -> SweepResult:
    """Mean min-error instant versus network size over grid topologies.

    Each size runs ``seeds`` seeds (template.seed, template.seed+1, ...) as
    one batched state; the per-run metric is the node-average min-|e|
    instant. Returns the per-size mean/min/max plus a least-squares line
    over (total nodes, mean instant) with its R-squared. The line is None
    unless at least two distinct node counts are swept, and R-squared is
    None when every mean instant is the same.
    """
    seeds = _whole(seeds, "seeds", ConfigInvalid)
    if seeds < 1:
        raise ConfigInvalid("seeds must be at least 1")
    points = []
    for rows, cols in sizes:
        topo = grid_topology(rows, cols, gateway="corner")
        vals = _min_error_instants(replace(template, topology=topo), range(
            template.seed, template.seed + seeds)).mean(axis=1).tolist()
        points.append(SweepPoint(node_count=rows * cols,
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


def _trace_block(times, errors, filter_outputs, flagged, nodes, r0,
                 r1) -> str:
    """trace.csv rows for rounds r0..r1-1, exactly as ``csv.writer`` wrote
    them: ``repr`` floats, empty ``filter_out`` for NaN, CRLF endings.
    ``flagged`` holds ``target_round * N + node_id`` for every event, sorted,
    and ``nodes`` the N strings ``f"{node_id},"``.

    Each distinct float of the three columns is formatted once, keyed by its
    bits so that -0.0 and 0.0 stay apart. Only ``filter_out``'s NaN cells
    are then blanked: a NaN clock or error still prints ``nan``."""
    n = times.shape[1]
    base = r0 * n
    keys = [k + s for k in [f"{r}," for r in range(r0, r1)] for s in nodes]
    detected = [",0"] * len(keys)
    lo, hi = np.searchsorted(flagged, (base, r1 * n))
    for k in flagged[lo:hi].tolist():
        detected[k - base] = ",1"
    t, e, f = times[r0:r1], errors[r0:r1], filter_outputs[r0:r1]
    uniq, inv = np.unique(np.stack([t, e, f]).view(np.int64),
                          return_inverse=True)
    cells = _float_reprs(uniq.view(np.float64))[inv.ravel()].reshape(3, -1)
    cells[2, np.isnan(f).ravel()] = ""
    clock, err, filt = cells.tolist()
    return "".join([f"{k}{c},{x},{y}{d}\r\n" for k, c, x, y, d in zip(
        keys, clock, err, filt, detected)])


def _trace_workers(blocks: int) -> int:
    """How many processes format a trace of ``blocks`` blocks: one per CPU
    this process may run on, but no more than leaves each at least
    _BLOCKS_PER_WORKER blocks, and one where the platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)),
                      blocks // _BLOCKS_PER_WORKER))


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork in a process with threads (OpenBLAS
        # starts some). The child is safe: it only formats strings from
        # arrays it reads, takes no lock, calls no BLAS, writes no stdout and
        # always leaves through os._exit.
        warnings.filterwarnings(
            "ignore", message=r".*use of fork\(\) may lead to deadlocks",
            category=DeprecationWarning)
        return os.fork()


@contextlib.contextmanager
def _replacing(path, mode: str, **kwargs):
    """A new file beside ``path``, opened with ``mode`` and ``kwargs``,
    that replaces ``path`` once the with-block completes. On any exception,
    an interrupt included, the new file is deleted and ``path`` is left as
    it was, so a file at ``path`` is always complete. The new file is
    created as ``open`` creates one, so the umask sets its mode."""
    new = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fd = os.open(new, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(new, path)
    except BaseException:
        os.unlink(new)
        raise


def write_trace_csv(trace: RunTrace, path) -> None:
    """Rows are (round, node) pairs, round-major. ``filter_out`` is empty
    where the filter window is undefined; ``detected`` is 1 exactly at a
    node's flagged instant.

    Whole rounds are formatted and written a block at a time, so memory
    beyond the trace arrays stays near one block per process whatever the
    run length. The rounds split into one contiguous span of whole blocks
    per worker (see _trace_workers). This process writes span 0 to a new
    file that replaces ``path`` once complete (see _replacing); a forked
    child formats each later span into an unlinked temporary file in
    ``path``'s directory, which is appended in span order once the child
    exits. A cell's text depends on its value alone (see _trace_block), so
    the bytes are the same for any number of workers. A child that fails
    raises OSError here."""
    n = trace.times.shape[1]
    flagged = np.sort(np.array(
        [e.target_round * n + e.node_id for e in trace.events],
        dtype=np.int64))
    nodes = [f"{i}," for i in range(n)]
    rounds = trace.n_max + 1
    step = max(1, _TRACE_BLOCK_ROWS // n)
    blocks = -(-rounds // step)
    workers = _trace_workers(blocks)
    ends = [min(rounds, w * blocks // workers * step)
            for w in range(workers + 1)]

    def span(fh, w):
        for r0 in range(ends[w], ends[w + 1], step):
            fh.write(_trace_block(trace.times, trace.errors,
                                  trace.filter_outputs, flagged, nodes, r0,
                                  min(r0 + step, rounds)).encode("ascii"))

    children = []  # (pid, temporary file) of each child not yet reaped
    with _replacing(path, "wb") as fh, contextlib.ExitStack() as parts:
        fh.write((",".join(_TRACE_HEADER) + "\r\n").encode("ascii"))
        fh.flush()  # a child must not inherit unwritten bytes
        try:
            for w in range(1, workers):
                part = parts.enter_context(tempfile.TemporaryFile(
                    dir=os.path.dirname(os.path.abspath(path))))
                pid = _fork()
                if pid == 0:
                    code = 1
                    try:
                        span(part, w)
                        part.flush()
                        code = 0
                    finally:
                        os._exit(code)
                children.append((pid, part))
            span(fh, 0)
            while children:
                pid, part = children[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if code != 0:
                    raise OSError(f"trace.csv worker {pid} exited with "
                                  f"status {code}")
                part.seek(0)
                shutil.copyfileobj(part, fh)
        finally:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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

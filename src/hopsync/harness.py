"""Experiment harness: full runs, Table-style summaries, scaling sweeps, and
CSV emission.

A run evolves all clocks to the round budget. By default a node's detection
only records where it would have frozen; with halt_on_detect the node
actually drops out after its decision round (its clock stays frozen and its
links go silent), which changes the dynamics its neighbors see.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelModel, _mask_block, sample_masks
from .detector import DetectionEvent, DetectorConfig, _first_flips
from .kernels import filter_series, run_rounds
from .model import Topology, effective_matrices, grid_topology, has_spanning_path

# Uniform initial clocks are drawn from stream 0 of the run seed; channel
# masks use stream 1 (see channel.py), so the two never collide.
_INIT_STREAM = 0

_TRACE_HEADER = ["round", "node", "clock", "error", "filter_out", "detected"]
_SUMMARY_HEADER = ["node", "min_error_instant", "min_error_value",
                   "ss_error_instant", "ss_error_value",
                   "detected_instant", "detected_error_value"]
_SWEEP_HEADER = ["nodes", "instant_mean", "instant_min", "instant_max"]
# trace.csv is formatted, and the filter and detector run, in blocks of whole
# rounds holding about this many (round, node) cells (at least one round).
# Larger blocks are no faster and cost peak RSS.
_TRACE_BLOCK_ROWS = 4096
# scaling_sweep evolves all seeds of one size in blocks of whole rounds holding
# about this many (round, seed, node) cells (at least one round), one
# run_rounds call per block: fewer, larger blocks save per-call work and cost
# peak RSS.
_SWEEP_BLOCK_CELLS = 1 << 18


class ConfigInvalid(ValueError):
    """A SimConfig field is out of range or inconsistent."""


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs: topology, timing, channel, seed, detector.

    init_max defaults to 100 * delta_t when not given; initial clocks are
    uniform draws from [init_min, init_max].
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
        if not (math.isfinite(self.delta_t) and self.delta_t > 0):
            raise ConfigInvalid("delta_t must be positive and finite")
        if self.init_max is None:
            object.__setattr__(self, "init_max", 100.0 * self.delta_t)
        if not (math.isfinite(self.init_min) and math.isfinite(self.init_max)):
            raise ConfigInvalid("init_min and init_max must be finite")
        if self.init_min > self.init_max:
            raise ConfigInvalid("init_min must not exceed init_max")
        if not (0.0 <= self.p <= 1.0):
            raise ConfigInvalid("p must be in [0, 1]")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigInvalid("seed must be a nonnegative integer")
        if self.topology.node_count < 1:
            raise ConfigInvalid("topology must have at least one ordinary node")
        if self.n_max < self.detector.k_guard + 7:
            raise ConfigInvalid("n_max must be at least k_guard + 7")


@dataclass(frozen=True)
class RunTrace:
    """Complete run record: clock/error/filter series and detection events.

    times, errors, filter_outputs are (n_max + 1, N) arrays indexed by round
    then node; filter_outputs is NaN where the filter window is undefined.
    """

    config: SimConfig
    topology: Topology
    connected: bool
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
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), _INIT_STREAM]))
    return rng.uniform(cfg.init_min, cfg.init_max, size=cfg.topology.node_count)


def run(cfg: SimConfig) -> RunTrace:
    """Evolve the system for cfg.n_max rounds and run every node's detector.

    Deterministic for a fixed config. A disconnected topology is simulated
    anyway and flagged via ``connected``.
    """
    topo = cfg.topology
    n = topo.node_count
    connected = has_spanning_path(topo)
    eu, ev = topo.edge_arrays()
    model = ChannelModel(p=cfg.p, seed=cfg.seed)
    t0 = initial_clocks(cfg)
    if cfg.halt_on_detect:
        times = np.empty((cfg.n_max + 1, n), dtype=np.float64)
        times[0] = t0
        last = 0
        stream = _run_halting(cfg, t0[None], eu, ev, [model])
        for last, t in enumerate(stream, 1):
            times[last] = t[0]
        times[last + 1:] = times[last]
    else:
        times = run_rounds(t0, eu, ev, n, sample_masks(model, topo, cfg.n_max),
                           cfg.delta_t)

    rounds = np.arange(cfg.n_max + 1, dtype=np.float64)
    errors = cfg.delta_t * rounds[:, None] - times
    # The detector input |t - n*delta_t| is |errors|: the two differences are
    # exact negatives. Filter and scan it a block of whole rounds at a time.
    # A halted node's series is frozen after its decision round, so the
    # offline scan finds the same first flip the halting loop acted on.
    det = cfg.detector
    filter_outputs = np.full((cfg.n_max + 1, n), np.nan)
    flips = np.full(n, -1)
    sign = np.zeros(n, np.int8)
    step = max(1, _TRACE_BLOCK_ROWS // n)
    for m0 in range(3, cfg.n_max - 2, step):
        m1 = min(m0 + step, cfg.n_max - 2)
        y = filter_series(np.abs(errors[m0 - 3:m1 + 3]), det.c_f)
        filter_outputs[m0:m1] = y
        found, sign = _first_flips(y, det.k_guard, m0, sign)
        flips = np.where(flips < 0, found, flips)
    events = tuple(
        DetectionEvent(node_id=int(i), detect_round=int(m) + 3,
                       target_round=int(m), frozen_time=float(times[m + 3, i]))
        for i, m in zip(np.flatnonzero(flips >= 0), flips[flips >= 0]))
    return RunTrace(config=cfg, topology=topo, connected=connected, times=times,
                    errors=errors, filter_outputs=filter_outputs, events=events)


def _run_halting(cfg: SimConfig, t0, eu, ev, models):
    """Round-by-round loop where detected nodes leave the exchange.

    Evolves one run per mask model in ``models`` at once from the (runs, N)
    clocks ``t0`` and yields the clocks of rounds 1, 2, ... A node halts at
    the round its detector fires (the last sample of the window holding the
    flip): its links go silent and its clock freezes. Once every node of
    every run has halted nothing changes again, so the generator stops and
    the remaining rounds repeat the last clocks it yielded. Masks are drawn a
    round at a time; the stream is keyed by (seed, round), so stopping early
    changes no draw. Only the last seven rounds are kept, for the filter.
    """
    topo = cfg.topology
    n = topo.node_count
    dt, det = cfg.delta_t, cfg.detector
    halted = np.zeros(t0.shape, dtype=bool)
    sign = np.zeros(t0.size, np.int8)
    window = np.repeat(t0[None], 7, axis=0)
    t = t0
    to_gateway = ev >= n
    ev_node = np.minimum(ev, n - 1)
    for rnd in range(1, cfg.n_max + 1):
        if halted.all():
            return
        # silence every edge touching a halted node, then advance one round
        row = _mask_block(models, topo, rnd - 1, rnd)
        row &= ~halted[:, eu] & (to_gateway | ~halted[:, ev_node])
        stepped = run_rounds(t, eu, ev, n, row, dt, round0=rnd - 1)
        t = np.where(halted, t, stepped[1])
        yield t
        window[:-1] = window[1:]
        window[-1] = t
        if rnd >= 6:
            # the filter output at m = rnd - 3 from the window rnd-6..rnd
            r = np.arange(rnd - 6, rnd + 1, dtype=np.float64)
            y = filter_series(np.abs(dt * r[:, None, None] - window), det.c_f)
            found, sign = _first_flips(y.reshape(1, -1), det.k_guard,
                                       rnd - 3, sign)
            halted |= found.reshape(halted.shape) >= 0


def run_error_recursion(cfg: SimConfig) -> np.ndarray:
    """Reference error path: iterate E' = a_eff @ E + delta_t directly.

    Used for cross-checks against the trace errors; shares the exact same
    mask stream as run().
    """
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


def _fold_min(best, best_at, block, r0: int):
    """Fold rows r0, r0+1, ... of ``block`` into a running per-column
    minimum ``best`` and the round ``best_at`` it was reached at.

    Start from ``best`` = +inf and ``best_at`` = 0. Over any split into
    blocks, ties go to the earliest round and a NaN wins over any number,
    as one np.argmin over all rows decides.
    """
    at = np.argmin(block, axis=0)
    low = np.take_along_axis(block, at[None], axis=0)[0]
    better = (low < best) | (np.isnan(low) & ~np.isnan(best))
    return np.where(better, low, best), np.where(better, at + r0, best_at)


def summarize(trace: RunTrace) -> List[NodeSummary]:
    """One NodeSummary per node from a complete trace.

    The per-node minimum of |e| is reduced a block of whole rounds at a time,
    so no copy of the whole error array is made.
    """
    errors = trace.errors
    n = trace.topology.node_count
    best = np.full(n, np.inf)
    best_at = np.zeros(n, dtype=np.int64)
    step = max(1, _TRACE_BLOCK_ROWS // n)
    for r0 in range(0, trace.n_max + 1, step):
        best, best_at = _fold_min(best, best_at,
                                  np.abs(errors[r0:r0 + step]), r0)
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


def _min_error_instants(cfgs: Sequence[SimConfig]) -> np.ndarray:
    """Each node's min-|e| round in each run, as a (runs, N) int array.

    The runs share everything but the seed and evolve as one (runs, N)
    state, a block of whole rounds per run_rounds call (one round when
    halting); each block's |e| folds into the running per-(run, node)
    minimum, so no RunTrace is built and no detector runs unless nodes halt.
    """
    cfg = cfgs[0]
    topo = cfg.topology
    n, dt = topo.node_count, cfg.delta_t
    eu, ev = topo.edge_arrays()
    models = [ChannelModel(p=c.p, seed=c.seed) for c in cfgs]
    t0 = np.stack([initial_clocks(c) for c in cfgs])
    step = max(1, _SWEEP_BLOCK_CELLS // t0.size)

    def blocks():
        """(r0, clocks of rounds r0, r0+1, ...) over rounds 0..n_max."""
        yield 0, t0[None]
        t = t0
        if cfg.halt_on_detect:
            last = 0
            for last, t in enumerate(_run_halting(cfg, t0, eu, ev, models), 1):
                yield last, t[None]
            # every node has halted: the clocks stay as they are
            for r0 in range(last + 1, cfg.n_max + 1, step):
                count = min(step, cfg.n_max + 1 - r0)
                yield r0, np.broadcast_to(t, (count,) + t.shape)
            return
        for r0 in range(0, cfg.n_max, step):
            masks = _mask_block(models, topo, r0, min(r0 + step, cfg.n_max))
            out = run_rounds(t, eu, ev, n, masks, dt, round0=r0)
            t = out[-1]
            yield r0 + 1, out[1:]

    best = np.full(t0.shape, np.inf)
    best_at = np.zeros(t0.shape, dtype=np.int64)
    for r0, block in blocks():
        r = np.arange(r0, r0 + len(block), dtype=np.float64)
        e = dt * r[:, None, None] - block
        best, best_at = _fold_min(best, best_at, np.abs(e, out=e), r0)
    return best_at


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
    if seeds < 1:
        raise ConfigInvalid("seeds must be at least 1")
    points = []
    for rows, cols in sizes:
        topo = grid_topology(rows, cols, gateway="corner")
        cfgs = [replace(template, topology=topo, seed=template.seed + s)
                for s in range(seeds)]
        vals = _min_error_instants(cfgs).mean(axis=1).tolist()
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


def _trace_block(times, errors, filter_outputs, flagged, r0, r1) -> str:
    """trace.csv rows for rounds r0..r1-1, exactly as ``csv.writer`` wrote
    them: ``repr`` floats, empty ``filter_out`` for NaN, CRLF endings.
    ``flagged`` holds ``target_round * N + node_id`` for every event."""
    n = times.shape[1]
    base = r0 * n
    keys = [f"{r},{i}," for r in range(r0, r1) for i in range(n)]
    detected = [",0"] * len(keys)
    for k in flagged:
        if base <= k < r1 * n:
            detected[k - base] = ",1"
    filt = ["" if v != v else repr(v)
            for v in filter_outputs[r0:r1].ravel().tolist()]
    return "".join([
        f"{k}{c},{e},{f}{d}\r\n" for k, c, e, f, d in zip(
            keys, map(repr, times[r0:r1].ravel().tolist()),
            map(repr, errors[r0:r1].ravel().tolist()), filt, detected)])


def write_trace_csv(trace: RunTrace, path) -> None:
    """Rows are (round, node) pairs, round-major. ``filter_out`` is empty
    where the filter window is undefined; ``detected`` is 1 exactly at a
    node's flagged instant.

    Whole rounds are formatted and written a block at a time, so memory
    beyond the trace arrays stays near one block whatever the run length."""
    n = trace.topology.node_count
    flagged = {e.target_round * n + e.node_id for e in trace.events}
    step = max(1, _TRACE_BLOCK_ROWS // n)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_TRACE_HEADER) + "\r\n")
        for r0 in range(0, trace.n_max + 1, step):
            fh.write(_trace_block(trace.times, trace.errors,
                                  trace.filter_outputs, flagged, r0,
                                  min(r0 + step, trace.n_max + 1)))


def write_summary_csv(summaries: Sequence[NodeSummary], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SUMMARY_HEADER)
        for s in summaries:
            w.writerow([s.node_id, s.min_error_instant, _fmt(s.min_error_value),
                        s.ss_error_instant, _fmt(s.ss_error_value),
                        "" if s.detected_instant is None else s.detected_instant,
                        _fmt(s.detected_error_value)])


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SWEEP_HEADER)
        for p in result.points:
            w.writerow([p.node_count, _fmt(p.instant_mean),
                        _fmt(p.instant_min), _fmt(p.instant_max)])

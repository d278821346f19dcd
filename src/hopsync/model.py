"""Topology representation, generators, and system-matrix construction.

A network holds N ordinary nodes plus one gateway. Internally the ordinary
nodes are labeled 0..N-1 and the gateway is the reserved index N; topology
files may spell the gateway as the literal ``gw`` or as that integer.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# Streams of the seed, one per kind of random draw: no two kinds share one.
_INIT_STREAM = 0      # initial clocks
_MASK_STREAM = 1      # per-round link masks
_TOPOLOGY_STREAM = 2  # random_topology's edges


def _whole(value, name: str, error=ValueError) -> int:
    """``value`` as an int; ``error`` unless it is a whole number."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} must be an integer")


def _count(value, name: str, error=ValueError) -> int:
    """``value`` as an int; ``error`` unless it is a nonnegative whole
    number."""
    n = _whole(value, name, error)
    if n < 0:
        raise error(f"{name} must be a nonnegative integer")
    return n


def _real(value, name: str, error=ValueError) -> float:
    """``value`` as a float; TypeError unless it is a real number and not a
    bool, ``error`` if it is past the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} must be finite") from None


def _check_period(delta_t, error=ValueError) -> float:
    """The round period ``delta_t`` as a float (see _real); ``error`` unless
    it is positive and finite."""
    delta_t = _real(delta_t, "delta_t", error)
    if not (math.isfinite(delta_t) and delta_t > 0):
        raise error("delta_t must be positive and finite")
    return delta_t


def _check_probability(value, name: str, error=ValueError) -> float:
    """``value`` as a float (see _real); ``error`` unless it is a
    probability, in [0, 1]."""
    value = _real(value, name, error)
    if not (0.0 <= value <= 1.0):
        raise error(f"{name} must be in [0, 1]")
    return value


# The most links a generated topology may build or draw: one per edge of a
# grid, line or ring, one per node pair of random:N:P. One draw and compare
# takes about 4.2 ns, so 2**32 pairs are about 18 s of drawing before any
# edge is kept. A spec past this is refused before anything is allocated,
# rather than left to run for minutes or to be killed for memory.
_MAX_LINKS = 2**32
# random_topology draws its pairs in whole rows of about this many pairs at a
# time, so its memory follows the edges kept, not the N(N-1)/2 pairs drawn.
_PAIR_CHUNK = 1 << 20
# Node ids are int64, the gateway's (node_count) and the out-of-range id
# node_count + 1 among them.
_MAX_NODE_COUNT = 2**63 - 2


def _check_links(count: int) -> None:
    """ValueError if a topology would build or draw more than _MAX_LINKS
    links."""
    if count > _MAX_LINKS:
        raise ValueError(f"{count} links to build or draw, more than the "
                         f"{_MAX_LINKS} allowed")


class InvalidPlacement(ValueError):
    """Gateway index out of range for the requested generator."""


class IsolatedNode(ValueError):
    """A node with no neighbors at all; it can never update."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"node {node_id} has no neighbors")


@dataclass(frozen=True)
class Topology:
    """Undirected network over ordinary nodes 0..node_count-1 and gateway node_count.

    ``edges`` is kept sorted and canonical (each pair ordered low-high), which
    fixes the accumulation order everywhere downstream and makes runs
    reproducible byte for byte. ``edge_arrays()`` gives the same edges as two
    read-only arrays, built once here.
    """

    node_count: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        n = _count(self.node_count, "node_count")
        if n > _MAX_NODE_COUNT:
            raise ValueError(f"node_count must be at most {_MAX_NODE_COUNT}")
        object.__setattr__(self, "node_count", n)
        e = _pairs(self.edges, n)
        fault = _edge_fault(n, e[:, 0], e[:, 1])
        if fault:
            raise ValueError(fault[1])
        e = np.sort(e, axis=1)[np.lexsort((e.max(axis=1), e.min(axis=1)))]
        object.__setattr__(self, "edges", tuple(map(tuple, e.tolist())))
        ends = e.T.copy()
        ends.flags.writeable = False
        object.__setattr__(self, "_ends", (ends[0], ends[1]))

    @property
    def gateway_id(self) -> int:
        """The gateway's index, always node_count."""
        return self.node_count

    @property
    def total_nodes(self) -> int:
        return self.node_count + 1

    def neighbors(self, i: int) -> list:
        """The ids of node ``i``'s neighbours, the gateway among them. ``i``
        is any id 0..node_count, the gateway's included; ValueError for any
        other."""
        i = _count(i, "node id")
        if i > self.node_count:
            raise ValueError(f"node id {i} out of range 0..{self.node_count}")
        eu, ev = self.edge_arrays()
        return np.concatenate([eu[ev == i], ev[eu == i]]).tolist()

    def edge_arrays(self):
        """Edge endpoints as two read-only int64 arrays (low side, high
        side), the same two on every call."""
        return self._ends


def _pairs(edges, n: int) -> np.ndarray:
    """``edges`` as (E, 2) int64; ValueError unless every id is a whole
    number (see _whole). An id beyond int64 stays out of 0..n."""
    e = np.asarray(edges)
    if e.dtype.kind not in "biu":
        e = np.clip(np.array([[_whole(i, "node id") for i in pair]
                              for pair in edges], dtype=object), -1, n + 1)
    return e.astype(np.int64, copy=False).reshape(len(edges), 2)


def _edge_fault(n: int, u, v):
    """The first edge (u[k], v[k]) out of range 0..n, a self-loop or a repeat
    of an earlier edge (either orientation), as (k, reason); None if there is
    none. An edge with several faults reports the first in that order."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    out, loop = (lo < 0) | (hi > n), lo == hi
    order = np.lexsort((hi, lo))  # stable: equal edges keep their order
    repeat = np.zeros(lo.size, dtype=bool)
    repeat[order[1:]] = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
    bad = np.flatnonzero(out | loop | repeat)
    if not bad.size:
        return None
    k = int(bad[0])
    if out[k]:
        return k, f"node id out of range 0..{n}"
    if loop[k]:
        return k, f"self-loop at node {lo[k]}"
    return k, f"duplicate edge ({lo[k]},{hi[k]})"


@dataclass(frozen=True)
class SystemMatrices:
    """Averaging matrix ``a`` over ordinary nodes and gateway weight vector ``b``.

    Row i of (a | b) is stochastic: each neighbor of node i, the gateway
    included, carries weight 1/C_i where C_i is the neighbor count. Both are
    held as read-only views of the arrays given, which are not copied and
    stay writeable: a later write to them shows in the matrices.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64).view()
        b = np.asarray(self.b, dtype=np.float64).view()
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise ValueError("a must be square and b its matching vector")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def build_matrices(topo: Topology) -> SystemMatrices:
    """Uniform-averaging matrices: a[i][j] = 1/C_i per neighbor, b[i] = 1/C_i
    if the gateway is a neighbor of i, zero otherwise.

    Raises IsolatedNode for any ordinary node with no neighbors at all.
    """
    mats = effective_matrices(topo, np.ones(len(topo.edges), dtype=bool))
    # there are no self-loops, so a[i][i] is nonzero only for a held node
    isolated = np.flatnonzero(np.diagonal(mats.a))
    if isolated.size:
        raise IsolatedNode(int(isolated[0]))
    return mats


def effective_matrices(topo: Topology, mask) -> SystemMatrices:
    """Averaging matrices restricted to the edges available this round.

    ``mask`` is aligned with topo.edges. Neighbor counts are taken over
    available edges only; a node with no available neighbor holds its value
    (a[i][i] = 1, b[i] = 0), so every row of (a | b) stays stochastic.
    """
    rows, cols, vals, b = _averaging_entries(topo, mask)
    n = topo.node_count
    a = np.zeros((n, n), dtype=np.float64)
    a[rows, cols] = vals
    return SystemMatrices(a, b)


def _averaging_entries(topo: Topology, mask):
    """The nonzeros of effective_matrices(topo, mask).a as (rows, cols, vals)
    triplets, one per available directed link plus one per held node, and
    the dense gateway weights ``b``: O(E) memory, no (N, N) array."""
    n = topo.node_count
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(topo.edges),):
        raise ValueError("mask length must equal the edge count")
    eu, ev = topo.edge_arrays()
    eu, ev = eu[mask], ev[mask]
    deg = np.bincount(np.concatenate([eu, ev]), minlength=n + 1)[:n]
    inv = 1.0 / np.maximum(deg, 1)
    b = np.zeros(n, dtype=np.float64)
    to_gw = ev == n
    b[eu[to_gw]] = inv[eu[to_gw]]
    u, v = eu[~to_gw], ev[~to_gw]
    held = np.flatnonzero(deg == 0)
    rows = np.concatenate([u, v, held])
    cols = np.concatenate([v, u, held])
    vals = np.concatenate([inv[u], inv[v], np.ones(held.size)])
    return rows, cols, vals, b


def has_spanning_path(topo: Topology) -> bool:
    """True iff every ordinary node is reachable from the gateway."""
    eu, ev = topo.edge_arrays()
    return bool(_hop_levels(topo.gateway_id, np.concatenate([eu, ev]),
                            np.concatenate([ev, eu])).min() >= 0)


def _hop_levels(n: int, src, dst) -> np.ndarray:
    """Breadth-first hop count from node n to each node 0..n along links
    src[k] -> dst[k]: node n is level 0, and an unreachable node is -1."""
    order = np.argsort(src)
    ptr = np.searchsorted(src[order], np.arange(n + 2)).tolist()
    out = dst[order].tolist()
    level = [-1] * n + [0]
    frontier = [n]
    hops = 0
    while frontier:
        hops += 1
        reached = []
        for x in frontier:
            for y in out[ptr[x]:ptr[x + 1]]:
                if level[y] < 0:
                    level[y] = hops
                    reached.append(y)
        frontier = reached
    return np.array(level)


def _canonicalize(total: int, gateway: int, edges) -> Topology:
    """Relabel (E, 2) edges over nodes 0..total-1 into canonical form: the
    gateway becomes total-1 and the nodes after it move down by one."""
    edges = np.where(edges == gateway, total - 1, edges - (edges > gateway))
    return Topology(node_count=total - 1, edges=edges)


def _resolve_gateway(gateway, total: int) -> int:
    if gateway == "corner" or gateway is None:
        return 0
    g = _whole(gateway, "gateway index", InvalidPlacement)
    if not (0 <= g < total):
        raise InvalidPlacement(f"gateway index {g} out of range for {total} nodes")
    return g


def grid_topology(rows: int, cols: int, gateway="corner") -> Topology:
    """Grid of rows*cols total nodes with 4-neighbor adjacency, row-major labels.

    ``gateway`` is a row-major index or "corner" (index 0, the top-left cell).
    """
    rows, cols = _whole(rows, "rows"), _whole(cols, "cols")
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    _check_links(rows * (cols - 1) + cols * (rows - 1))
    total = rows * cols
    g = _resolve_gateway(gateway, total)
    idx = np.arange(total).reshape(rows, cols)
    # each cell's link to its right-hand and to its lower neighbour
    right = np.stack([idx[:, :-1], idx[:, 1:]], axis=-1).reshape(-1, 2)
    down = np.stack([idx[:-1], idx[1:]], axis=-1).reshape(-1, 2)
    return _canonicalize(total, g, np.concatenate([right, down]))


def line_topology(n: int, gateway="corner") -> Topology:
    """Path on n total nodes; "corner" places the gateway at an end."""
    n = _whole(n, "n")
    if n < 2:
        raise ValueError("a line needs at least 2 total nodes")
    _check_links(n - 1)
    g = _resolve_gateway(gateway, n)
    return _canonicalize(n, g, np.arange(n - 1)[:, None] + [0, 1])


def ring_topology(n: int, gateway="corner") -> Topology:
    n = _whole(n, "n")
    if n < 3:
        raise ValueError("a ring needs at least 3 total nodes")
    _check_links(n)
    g = _resolve_gateway(gateway, n)
    return _canonicalize(n, g, (np.arange(n)[:, None] + [0, 1]) % n)


def random_topology(n: int, edge_prob: float, seed: int, gateway="corner") -> Topology:
    """Erdos-Renyi draw on n total nodes: each pair is an edge with edge_prob.

    Deterministic for fixed (n, edge_prob, seed). edge_prob=1 yields the
    complete graph regardless of seed. More than _MAX_LINKS pairs raise
    ValueError before anything is drawn.
    """
    n = _whole(n, "n")
    if n < 2:
        raise ValueError("a random topology needs at least 2 total nodes")
    edge_prob = _check_probability(edge_prob, "edge_prob")
    _check_links(n * (n - 1) // 2)
    g = _resolve_gateway(gateway, n)
    rng = np.random.default_rng([_count(seed, "seed"), _TOPOLOGY_STREAM])
    # One draw per pair (i, j), i < j, in row-major order: pair (i, j) is
    # draw ends[i] - n + j, where ends[i] counts the pairs of rows 0..i.
    # Generator.random gives the same doubles drawn whole or in pieces, so
    # drawing whole rows at a time changes no bit.
    ends = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    kept, row = [], 0
    while row < n - 1:
        first = ends[row] - (n - 1 - row)
        stop = max(row + 1, int(np.searchsorted(ends, first + _PAIR_CHUNK,
                                                "right")))
        at = first + np.flatnonzero(rng.random(ends[stop - 1] - first)
                                    < edge_prob)
        i = np.searchsorted(ends, at, "right")
        kept.append(np.stack([i, at - ends[i] + n], axis=1))
        row = stop
    return _canonicalize(n, g, np.concatenate(kept))


def generate_topology(kind: str, gateway="corner", seed: int = 0) -> Topology:
    """Build a topology from a compact spec string.

    Forms: ``grid:RxC``, ``line:N``, ``ring:N``, ``random:N:P``, ``file:PATH``.
    Counts are total nodes including the gateway. ``random`` uses ``seed``.
    ``line:1`` is accepted as the minimal single-node line (same as
    ``line:2``: one ordinary node plus the gateway). A ``file`` names its
    own gateway, so any ``gateway`` but "corner" raises ValueError there.
    """
    head, _, rest = kind.partition(":")
    if head == "grid":
        r, _, c = rest.partition("x")
        return grid_topology(int(r), int(c), gateway)
    if head == "line":
        n = int(rest)
        return line_topology(2 if n == 1 else n, gateway)
    if head == "ring":
        return ring_topology(int(rest), gateway)
    if head == "random":
        cnt, _, prob = rest.partition(":")
        return random_topology(int(cnt), float(prob), seed, gateway)
    if head == "file":
        if gateway != "corner":
            raise ValueError(f"gateway {gateway!r} given, but a file "
                             "topology names its own gateway")
        return load_topology(rest)
    raise ValueError(f"unknown topology kind {kind!r}")


def save_topology(topo: Topology, path) -> None:
    """Write the plain-text format: ``N <count>``, ``G gw``, ``E <i> <j>`` lines."""
    with open(path, "w") as fh:
        fh.write(f"N {topo.node_count}\n")
        fh.write("G gw\n")
        for u, v in topo.edges:
            us = "gw" if u == topo.gateway_id else str(u)
            vs = "gw" if v == topo.gateway_id else str(v)
            fh.write(f"E {us} {vs}\n")


def load_topology(path) -> Topology:
    """Parse the plain-text topology format written by save_topology.

    The gateway id may be the literal ``gw`` or the reserved integer N.
    Every malformed record raises a ValueError that starts ``path:line:``,
    at the first bad or repeated record or integer field, else at the first
    bad edge.
    """
    n = gw = None  # gw None also for the literal gw
    first = {}  # the line of the N and of the G record
    lines = []  # the line of each E record
    ends = []   # its two ids; None for the literal gw
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            head, *parts = line.split()
            tag = head.upper()
            want = {"N": 1, "G": 1, "E": 2}.get(tag)  # fields after the tag
            if want is None:
                raise ValueError(f"{path}:{ln}: unknown record {head!r}")
            if len(parts) != want:
                raise ValueError(f"{path}:{ln}: {tag} record needs {want} "
                                 f"field{'s' if want > 1 else ''}, got "
                                 f"{len(parts)}")
            if tag in first:
                raise ValueError(f"{path}:{ln}: a second {tag} record; the "
                                 f"first is on line {first[tag]}")
            if tag == "N":
                first[tag] = ln
                n = _int_field(path, ln, parts[0], "node count")
                if not 0 <= n <= _MAX_NODE_COUNT:
                    raise ValueError(f"{path}:{ln}: node count {n} out of "
                                     f"range 0..{_MAX_NODE_COUNT}")
            elif tag == "G":
                first[tag] = ln
                gw = (None if parts[0] == "gw"
                      else _int_field(path, ln, parts[0], "gateway id"))
            else:
                lines.append(ln)
                ends.append([None if tok == "gw"
                             else _int_field(path, ln, tok, "node id")
                             for tok in parts])
    for tag in "NG":
        if tag not in first:
            raise ValueError(f"{path}: missing {tag} record")
    if gw not in (None, n):
        raise ValueError(f"{path}:{first['G']}: gateway id must be 'gw' or "
                         f"the reserved index {n}")
    # the literal gw is the index n, known only once the N record is read
    pairs = _pairs([[n if x is None else x for x in e] for e in ends], n)
    fault = _edge_fault(n, pairs[:, 0], pairs[:, 1])
    if fault:
        raise ValueError(f"{path}:{lines[fault[0]]}: {fault[1]}")
    return Topology(node_count=n, edges=pairs)


def _int_field(path, ln: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(
            f"{path}:{ln}: {what} {tok!r} is not an integer") from None

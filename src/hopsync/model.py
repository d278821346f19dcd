"""Topology representation, generators, and system-matrix construction.

A network holds N ordinary nodes plus one gateway. Internally the ordinary
nodes are labeled 0..N-1 and the gateway is the reserved index N; topology
files may spell the gateway as the literal ``gw`` or as that integer.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np


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
    reproducible byte for byte.
    """

    node_count: int
    gateway_id: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count < 0:
            raise ValueError("node_count must be nonnegative")
        if self.gateway_id != self.node_count:
            raise ValueError("canonical form requires gateway_id == node_count")
        canon = []
        seen = set()
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            lo, hi = (i, j) if i < j else (j, i)
            if not (0 <= lo and hi <= self.gateway_id):
                raise ValueError(f"edge ({i},{j}) has an endpoint out of range")
            if (lo, hi) in seen:
                raise ValueError(f"duplicate edge ({lo},{hi})")
            seen.add((lo, hi))
            canon.append((lo, hi))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def total_nodes(self) -> int:
        return self.node_count + 1

    def neighbors(self, i: int) -> list:
        out = []
        for u, v in self.edges:
            if u == i:
                out.append(v)
            elif v == i:
                out.append(u)
        return out

    def edge_arrays(self):
        """Edge endpoints as two int64 arrays (low side, high side)."""
        if not self.edges:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        arr = np.asarray(self.edges, dtype=np.int64)
        return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


@dataclass(frozen=True)
class SystemMatrices:
    """Averaging matrix ``a`` over ordinary nodes and gateway weight vector ``b``.

    Row i of (a | b) is stochastic: each neighbor of node i, the gateway
    included, carries weight 1/C_i where C_i is the neighbor count.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
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
    if topo.node_count == 0:
        return True
    adj = {i: [] for i in range(topo.total_nodes)}
    for u, v in topo.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {topo.gateway_id}
    queue = deque([topo.gateway_id])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == topo.total_nodes


def _canonicalize(total: int, gateway: int, raw_edges: Iterable[Tuple[int, int]]) -> Topology:
    """Relabel a 0..total-1 node set with gateway at ``gateway`` into canonical form."""
    if not (0 <= gateway < total):
        raise InvalidPlacement(f"gateway index {gateway} out of range for {total} nodes")
    remap = {}
    nxt = 0
    for i in range(total):
        if i == gateway:
            remap[i] = total - 1
        else:
            remap[i] = nxt
            nxt += 1
    edges = tuple((remap[u], remap[v]) for u, v in raw_edges)
    return Topology(node_count=total - 1, gateway_id=total - 1, edges=edges)


def _resolve_gateway(gateway, total: int) -> int:
    if gateway == "corner" or gateway is None:
        return 0
    g = int(gateway)
    if not (0 <= g < total):
        raise InvalidPlacement(f"gateway index {g} out of range for {total} nodes")
    return g


def grid_topology(rows: int, cols: int, gateway="corner") -> Topology:
    """Grid of rows*cols total nodes with 4-neighbor adjacency, row-major labels.

    ``gateway`` is a row-major index or "corner" (index 0, the top-left cell).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    total = rows * cols
    g = _resolve_gateway(gateway, total)
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return _canonicalize(total, g, edges)


def line_topology(n: int, gateway="corner") -> Topology:
    """Path on n total nodes; "corner" places the gateway at an end."""
    if n < 2:
        raise ValueError("a line needs at least 2 total nodes")
    g = _resolve_gateway(gateway, n)
    return _canonicalize(n, g, [(i, i + 1) for i in range(n - 1)])


def ring_topology(n: int, gateway="corner") -> Topology:
    if n < 3:
        raise ValueError("a ring needs at least 3 total nodes")
    g = _resolve_gateway(gateway, n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _canonicalize(n, g, edges)


def random_topology(n: int, edge_prob: float, seed: int, gateway="corner") -> Topology:
    """Erdos-Renyi draw on n total nodes: each pair is an edge with edge_prob.

    Deterministic for fixed (n, edge_prob, seed). edge_prob=1 yields the
    complete graph regardless of seed.
    """
    if n < 2:
        raise ValueError("a random topology needs at least 2 total nodes")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must be in [0, 1]")
    g = _resolve_gateway(gateway, n)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((i, j))
    return _canonicalize(n, g, edges)


def generate_topology(kind: str, gateway="corner", seed: int = 0) -> Topology:
    """Build a topology from a compact spec string.

    Forms: ``grid:RxC``, ``line:N``, ``ring:N``, ``random:N:P``, ``file:PATH``.
    Counts are total nodes including the gateway. ``random`` uses ``seed``.
    ``line:1`` is accepted as the minimal single-node line (same as
    ``line:2``: one ordinary node plus the gateway).
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
    """
    n = None
    gw_spelled = None
    raw = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            tag = parts[0].upper()
            fields = {"N": 1, "G": 1, "E": 2}.get(tag)  # after the tag
            if fields is None:
                raise ValueError(f"{path}:{ln}: unknown record {parts[0]!r}")
            if len(parts) <= fields:
                raise ValueError(f"{path}:{ln}: {tag} record needs {fields} "
                                 f"field{'s' if fields > 1 else ''}")
            if tag == "N":
                n = int(parts[1])
            elif tag == "G":
                gw_spelled = parts[1]
            else:
                raw.append((parts[1], parts[2]))
    if n is None:
        raise ValueError(f"{path}: missing N record")
    if gw_spelled is None:
        raise ValueError(f"{path}: missing G record")
    if gw_spelled != "gw" and int(gw_spelled) != n:
        raise ValueError(f"{path}: gateway id must be 'gw' or the reserved index {n}")

    def resolve(tok: str) -> int:
        if tok == "gw":
            return n
        v = int(tok)
        if not (0 <= v <= n):
            raise ValueError(f"{path}: node id {v} out of range")
        return v

    edges = tuple((resolve(a), resolve(b)) for a, b in raw)
    return Topology(node_count=n, gateway_id=n, edges=edges)

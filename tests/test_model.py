import re
from collections import deque
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopsync import model
from hopsync.dynamics import NotConvergent, steady_state_error
from hopsync.model import (InvalidPlacement, IsolatedNode, SystemMatrices,
                           Topology, _hop_levels, build_matrices,
                           effective_matrices, generate_topology,
                           grid_topology, has_spanning_path, line_topology,
                           load_topology, random_topology, ring_topology,
                           save_topology)


def test_line3_matrices_pinned():
    # gw-n1-n2: n1 averages {gw, n2}, n2 averages {n1}
    topo = line_topology(3)
    mats = build_matrices(topo)
    assert np.array_equal(mats.a, [[0.0, 0.5], [1.0, 0.0]])
    assert np.array_equal(mats.b, [0.5, 0.0])


def test_single_node_matrices():
    topo = line_topology(2)
    mats = build_matrices(topo)
    assert np.array_equal(mats.a, [[0.0]])
    assert np.array_equal(mats.b, [1.0])


def test_grid_4x4_shape():
    topo = grid_topology(4, 4)
    assert topo.total_nodes == 16
    assert topo.node_count == 15
    assert topo.gateway_id == 15
    assert len(topo.edges) == 24


def test_grid_interior_rows_quarter():
    mats = build_matrices(grid_topology(4, 4))
    # at least one interior node: four entries of exactly 1/4
    interior = [i for i in range(15)
                if np.count_nonzero(mats.a[i]) + (mats.b[i] > 0) == 4]
    assert interior
    for i in interior:
        nz = mats.a[i][mats.a[i] > 0]
        assert np.all(nz == 0.25)


def test_row_sums_exactly_one_grid():
    mats = build_matrices(grid_topology(4, 4))
    sums = mats.a.sum(axis=1) + mats.b
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


def test_ring_and_line_counts():
    assert ring_topology(5).total_nodes == 5
    assert len(ring_topology(5).edges) == 5
    assert line_topology(4).total_nodes == 4
    assert len(line_topology(4).edges) == 3


def test_random_complete_graph():
    topo = random_topology(10, 1.0, seed=123)
    assert topo.total_nodes == 10
    assert len(topo.edges) == 45


def test_random_deterministic_for_seed():
    a = random_topology(12, 0.4, seed=7)
    b = random_topology(12, 0.4, seed=7)
    c = random_topology(12, 0.4, seed=8)
    assert a.edges == b.edges
    assert a.edges != c.edges


def _random_topology_loop(n, edge_prob, seed):
    """One rng.random() per pair (i, j), i < j, in row-major order."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((i, j))
    return edges


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40),
       prob=st.sampled_from([0.0, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**40))
def test_random_topology_matches_pairwise_loop(n, prob, seed):
    # one vector draw over the upper triangle gives the per-pair loop's bits
    edges = _random_topology_loop(n, prob, seed)
    # relabel like the corner gateway: node 0 becomes the gateway, i -> i - 1
    relabel = {0: n - 1, **{i: i - 1 for i in range(1, n)}}
    expected = Topology(n - 1,
                        tuple((relabel[i], relabel[j]) for i, j in edges))
    assert random_topology(n, prob, seed=seed) == expected


def _random_topology_whole(n, edge_prob, seed, gateway="corner"):
    """random_topology as it drew every pair at once, over an array of all
    N(N-1)/2 of them."""
    rng = np.random.default_rng([int(seed), 2])
    pairs = np.transpose(np.triu_indices(n, 1))
    keep = rng.random(len(pairs)) < edge_prob
    return model._canonicalize(n, model._resolve_gateway(gateway, n),
                               pairs[keep])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40),
       prob=st.sampled_from([0.0, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**40),
       chunk=st.sampled_from([1, 2, 7, 39, 64, 780, model._PAIR_CHUNK]))
def test_random_topology_in_chunks_equals_whole_draw(n, prob, seed, chunk):
    # drawn a few rows at a time, a chunk ending inside a row or not, the
    # edges are those of one draw over every pair
    with mock.patch.object(model, "_PAIR_CHUNK", chunk):
        got = random_topology(n, prob, seed=seed, gateway=seed % n)
    assert got == _random_topology_whole(n, prob, seed, gateway=seed % n)


@pytest.mark.parametrize("spec", [
    "random:2000000000:0.5", "random:92683:0.5", "grid:46342x46342",
    "line:4294967298", "ring:4294967297"])
def test_oversized_topology_refused_before_allocating(
        no_topology_allocation, spec):
    # each asks for more than 2**32 links; none may allocate or draw, so
    # the refusal does not depend on the machine's memory
    with pytest.raises(ValueError, match="links to build or draw"):
        generate_topology(spec)


@pytest.mark.parametrize("call, match", [
    (lambda: random_topology(1, 0.5, seed=0), "at least 2 total nodes"),
    (lambda: SystemMatrices(np.zeros((2, 2)), np.zeros(3)), "a must be square"),
    (lambda: SystemMatrices(np.zeros((2, 3)), np.zeros(2)), "a must be square"),
    (lambda: SystemMatrices(np.zeros(2), np.zeros(2)), "a must be square"),
    (lambda: effective_matrices(line_topology(3), [True]), "mask length"),
], ids=["random_one_node", "matrices_b_length", "matrices_not_square",
        "matrices_a_vector", "mask_length"])
def test_size_or_shape_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: grid_topology(2, 2.5), "cols must be an integer"),
    (lambda: grid_topology("2", 2), "rows must be an integer"),
    (lambda: line_topology(3.5), "n must be an integer"),
    (lambda: ring_topology("4"), "n must be an integer"),
    (lambda: random_topology(5.5, 0.5, seed=0), "n must be an integer"),
    (lambda: random_topology(5, 0.5, seed=1.5), "seed must be an integer"),
    (lambda: random_topology(5, 0.5, seed=-1),
     "seed must be a nonnegative integer"),
], ids=["grid_cols", "grid_rows", "line", "ring", "random_n",
        "random_seed_fraction", "random_seed_negative"])
def test_generator_count_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_generators_take_whole_floats():
    # as SimConfig takes n_max=100.0 for 100
    assert grid_topology(2, 2.0) == grid_topology(2, 2)
    assert line_topology(3.0) == line_topology(3)
    assert ring_topology(4.0) == ring_topology(4)
    assert random_topology(6.0, 0.5, seed=3.0) == random_topology(6, 0.5,
                                                                  seed=3)


def test_matrices_leave_the_given_arrays_writeable():
    # the matrices hold read-only views, not copies of a dense N x N array
    a, b = np.eye(2), np.zeros(2)
    mats = SystemMatrices(a, b)
    a[0, 0] = 0.25
    b[1] = 0.5
    assert not mats.a.flags.writeable and not mats.b.flags.writeable
    assert mats.a[0, 0] == 0.25 and mats.b[1] == 0.5


def test_link_limit_is_inclusive():
    # 2**32 links pass the check; one more is refused
    model._check_links(2**32)
    with pytest.raises(ValueError, match=f"{2**32 + 1} links"):
        model._check_links(2**32 + 1)


def test_spanning_path_cases():
    assert has_spanning_path(line_topology(3))
    assert has_spanning_path(grid_topology(4, 4))
    # components {gw, n0} and {n1, n2}
    split = Topology(node_count=3, edges=((0, 3), (1, 2)))
    assert not has_spanning_path(split)


def test_gateway_without_edges_unreachable():
    topo = Topology(node_count=2, edges=((0, 1),))
    assert not has_spanning_path(topo)
    mats = build_matrices(topo)
    assert np.all(mats.b == 0.0)


def test_isolated_node_rejected():
    topo = Topology(node_count=2, edges=((0, 2),))
    with pytest.raises(IsolatedNode):
        build_matrices(topo)


def test_invalid_gateway_placement():
    with pytest.raises(InvalidPlacement):
        grid_topology(2, 2, gateway=9)
    with pytest.raises(InvalidPlacement):
        line_topology(3, gateway=-1)
    # an index that is not a whole number is not truncated to one
    for gateway in (1.5, 3.7, "2", float("nan")):
        with pytest.raises(InvalidPlacement, match="must be an integer"):
            grid_topology(2, 2, gateway=gateway)
    assert grid_topology(2, 2, gateway=1.0) == grid_topology(2, 2, gateway=1)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(node_count=2, edges=((0, 0),))  # self loop
    with pytest.raises(ValueError):
        Topology(node_count=2, edges=((0, 1), (1, 0)))  # dup
    with pytest.raises(ValueError):
        Topology(node_count=2, edges=((0, 5),))  # out of range
    for count in (1.5, -1, "3", None, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^node_count must be a"):
            Topology(node_count=count, edges=())
    assert type(Topology(node_count=2.0, edges=()).node_count) is int


def test_gateway_id_is_node_count(tmp_path):
    # the gateway is always index node_count: derived, never passed or stored
    assert [f.name for f in fields(Topology)] == ["node_count", "edges"]
    path = tmp_path / "ring.topo"
    save_topology(ring_topology(6, gateway=2), path)
    for topo in (generate_topology("grid:4x4", gateway=5),
                 generate_topology("line:1"), generate_topology("ring:7"),
                 generate_topology("random:9:0.5", seed=3),
                 generate_topology(f"file:{path}"), load_topology(path)):
        assert topo.gateway_id == topo.node_count == topo.total_nodes - 1
    with pytest.raises(AttributeError):
        topo.gateway_id = 0
    with pytest.raises(TypeError):
        Topology(node_count=2, gateway_id=2, edges=())


def test_generate_topology_spellings():
    assert generate_topology("grid:4x4").total_nodes == 16
    assert generate_topology("line:3").total_nodes == 3
    assert generate_topology("ring:6").total_nodes == 6
    assert generate_topology("random:10:1.0").total_nodes == 10
    with pytest.raises(ValueError):
        generate_topology("torus:3x3")


def test_generate_line1_is_minimal_line():
    topo = generate_topology("line:1")
    assert topo.node_count == 1
    assert topo.total_nodes == 2


def test_file_round_trip(tmp_path):
    topo = grid_topology(3, 3, gateway=4)
    path = tmp_path / "grid.topo"
    save_topology(topo, path)
    back = load_topology(path)
    assert back == topo


def test_file_gateway_spellings(tmp_path):
    # the literal gw and the reserved index N both denote the gateway
    p1 = tmp_path / "a.topo"
    p1.write_text("# comment\nN 2\nG gw\nE 0 gw\nE 0 1\n")
    p2 = tmp_path / "b.topo"
    p2.write_text("N 2\nG 2\nE 0 2\nE 0 1\n")
    t1, t2 = load_topology(p1), load_topology(p2)
    assert t1 == t2
    assert t1.edges == ((0, 1), (0, 2))


def test_file_unknown_record(tmp_path):
    bad = tmp_path / "bad.topo"
    bad.write_text("N 2\nG gw\nX 0 1\n")
    with pytest.raises(ValueError):
        load_topology(bad)


@pytest.mark.parametrize("body, line", [
    ("N 2\nG gw\nE 0 1\nE 0\n", 4),
    ("# size first\nN\nG gw\nE 0 1\n", 2),
    ("N 2\nG\nE 0 1\n", 2),
    ("N 2\nG gw\nE 0 1 7\n", 3),          # an extra field
    ("N 2\nG gw\nE 0 1\nN 2 2\n", 4),
    ("N x\nG gw\nE 0 1\n", 1),           # not an integer
    ("N -1\nG gw\n", 1),
    ("N 2\nG foo\nE 0 1\n", 2),
    ("N 2\nG gw\nE 0 x\n", 3),
    ("N 2\nG 5\nE 0 1\n", 2),            # a gateway index other than N
    ("N 2\nG gw\nE 0 1\nE 1 0\n", 4),    # a duplicate edge
    ("N 2\nG gw\nE 0 3\n", 3),           # a node id out of range
    ("N 2\nG gw\nE 1 1\n", 3),           # a self-loop
    ("G gw\nE 0 gw\nE 0 2\nN 1\n", 3),    # ids are checked against a later N
    # an integer-field error is raised as the file is read, before any
    # edge-set error, even one on an earlier line, and before a missing N
    ("N 2\nG gw\nE 0 1\nE 1 0\nE 0 x\n", 5),
    ("N 2\nG gw\nE 1 1\nN x\n", 4),
    ("N 2\nE 0 5\nG foo\n", 3),
    ("G gw\nE 0 x\n", 2),
    # among edge-set errors, the first bad edge, whatever its fault
    ("N 2\nG gw\nE 1 1\nE 0 9\n", 3),
    ("N 2\nG gw\nE 0 9\nE 1 1\n", 3),
    ("N 2\nG gw\nE 0 1\nE 1 0\nE 2 2\n", 4),
    ("N 2\nG gw\nE 0 99999999999999999999\n", 3),  # beyond 64 bits
    # a second N or G record is refused as the file is read, not left to
    # win over the first
    ("N 3\nN 5\nG gw\nE 0 1\n", 2),
    ("G gw\nG 3\nN 3\nE 0 1\n", 2),
    ("N 2\nG gw\nE 0 1\nG 2\n", 4),
    ("N 2\nG gw\nE 0 x\nN 2\n", 3),
    ("N 2\nG gw\nN 2\nE 0 x\n", 3),
    # a missing record names the file alone
    ("G gw\nE 0 1\n", None),
    ("N 2\nE 0 1\n", None),
    ("# nothing\n", None),
])
def test_file_truncated_record(tmp_path, body, line):
    # a record missing a field, or otherwise malformed, names its file and
    # line, not an IndexError or a bare int() error
    bad = tmp_path / "bad.topo"
    bad.write_text(body)
    where = bad if line is None else f"{bad}:{line}"
    with pytest.raises(ValueError, match=f"^{where}: "):
        load_topology(bad)


def test_file_repeated_record_names_the_first(tmp_path):
    bad = tmp_path / "bad.topo"
    bad.write_text("# size\nN 3\nG gw\nE 0 1\nN 3\n")
    with pytest.raises(ValueError, match=f"^{bad}:5: a second N record; "
                                         "the first is on line 2$"):
        load_topology(bad)


def test_generate_topology_from_file(tmp_path):
    path = tmp_path / "ring.topo"
    save_topology(ring_topology(5), path)
    assert generate_topology(f"file:{path}") == ring_topology(5)


def test_file_topology_refuses_a_gateway(tmp_path):
    # a file names its own gateway: any placement but the default is refused,
    # not silently dropped
    path = tmp_path / "ring.topo"
    save_topology(ring_topology(5), path)
    for gateway in (0, 2, 5):
        with pytest.raises(ValueError, match="names its own gateway"):
            generate_topology(f"file:{path}", gateway=gateway)
    assert generate_topology(f"file:{path}", gateway="corner") == \
        ring_topology(5)


def test_node_count_past_int64_ids_refused(tmp_path):
    # the gateway's id, node_count, and node_count + 1 must be int64: a
    # larger count once raised OverflowError, in a file with a large id too
    big = model._MAX_NODE_COUNT
    assert Topology(big, [(0, big)]).edges == ((0, big),)
    with pytest.raises(ValueError, match="node_count must be at most"):
        Topology(big + 1, [(0, 2**64)])
    path = tmp_path / "big.topo"
    path.write_text(f"N {big + 1}\nG gw\nE 0 {2**64}\n")
    with pytest.raises(ValueError, match=f":1: node count {big + 1} out of"):
        load_topology(path)


def test_neighbors_include_gateway():
    topo = line_topology(3)
    assert set(topo.neighbors(0)) == {1, 2}
    assert set(topo.neighbors(1)) == {0}
    assert topo.neighbors(2) == [0]  # the gateway's own


@pytest.mark.parametrize("node", [-1, 3, 99, 1.5, float("nan"), "1", None])
def test_neighbors_refuse_an_id_that_is_not_a_node(node):
    # line:3 has ids 0..2, the gateway 2 included
    with pytest.raises(ValueError, match="^node id "):
        line_topology(3).neighbors(node)


def test_edge_arrays_orientation():
    eu, ev = grid_topology(3, 3).edge_arrays()
    assert eu.dtype == np.int64 and ev.dtype == np.int64
    assert np.all(eu < ev)


def test_edge_arrays_kept_read_only():
    topo = grid_topology(3, 3)
    eu, ev = topo.edge_arrays()
    assert np.array_equal(eu, [u for u, _ in topo.edges])
    assert np.array_equal(ev, [v for _, v in topo.edges])
    assert not eu.flags.writeable and not ev.flags.writeable
    again = topo.edge_arrays()
    assert again[0] is eu and again[1] is ev


def test_build_matrices_pure():
    topo = grid_topology(3, 3)
    m1, m2 = build_matrices(topo), build_matrices(topo)
    assert np.array_equal(m1.a, m2.a) and np.array_equal(m1.b, m2.b)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 20), prob=st.floats(0.2, 1.0), seed=st.integers(0, 10**6))
def test_row_sums_property(n, prob, seed):
    topo = random_topology(n, prob, seed=seed)
    try:
        mats = build_matrices(topo)
    except IsolatedNode:
        return
    sums = mats.a.sum(axis=1) + mats.b
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert np.all(mats.a >= 0.0) and np.all(mats.b >= 0.0)
    # entries positive exactly where an edge exists
    for i in range(topo.node_count):
        nbrs = set(topo.neighbors(i))
        for j in range(topo.node_count):
            assert (mats.a[i, j] > 0) == (j in nbrs)
        assert (mats.b[i] > 0) == (topo.gateway_id in nbrs)


# References for the graph layer: the per-edge loops the array code replaced.

def _edge_loop(n, edges):
    """Check and canonicalize edges one at a time. Returns (edges, None) or
    (None, (position, reason)) for the first bad edge; an edge with several
    faults reports its range first, then a self-loop, then a repeat."""
    canon, seen = [], set()
    for k, (i, j) in enumerate(edges):
        lo, hi = min(i, j), max(i, j)
        if lo < 0 or hi > n:
            return None, (k, f"node id out of range 0..{n}")
        if lo == hi:
            return None, (k, f"self-loop at node {lo}")
        if (lo, hi) in seen:
            return None, (k, f"duplicate edge ({lo},{hi})")
        seen.add((lo, hi))
        canon.append((lo, hi))
    return tuple(sorted(canon)), None


def _dict_bfs(topo):
    """True iff the gateway reaches every node, by a BFS over a dict."""
    adj = {i: [] for i in range(topo.total_nodes)}
    for u, v in topo.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {topo.gateway_id}
    queue = deque([topo.gateway_id])
    while queue:
        for y in adj[queue.popleft()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == topo.total_nodes


def _relabel_loop(total, gateway, raw):
    """Canonical (node_count, edges) of raw edges over 0..total-1: the
    gateway becomes total-1 and the nodes after it move down by one."""
    remap, nxt = {}, 0
    for i in range(total):
        if i == gateway:
            remap[i] = total - 1
        else:
            remap[i] = nxt
            nxt += 1
    edges, fault = _edge_loop(total - 1,
                              [(remap[u], remap[v]) for u, v in raw])
    assert fault is None
    return total - 1, edges


def _grid_loop(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return edges


def _neighbors_loop(topo, i):
    out = []
    for u, v in topo.edges:
        if u == i:
            out.append(v)
        elif v == i:
            out.append(u)
    return out


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(0, 6))
    ids = (st.integers(0, n) | st.integers(-3, n + 3)
           | st.sampled_from([2**63, -2**64, 10**30]))
    return n, draw(st.lists(st.tuples(ids, ids), max_size=12))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_edge_lists())
def test_edge_check_matches_loop(tmp_path, case):
    # reversed pairs, self-loops, repeats and out-of-range ids, ids beyond
    # 64 bits included: Topology and load_topology report the loop's first
    # bad edge and reason, or keep its canonical edges
    n, edges = case
    want, fault = _edge_loop(n, edges)
    path = tmp_path / "edges.topo"
    path.write_text(f"N {n}\nG gw\n"
                    + "".join(f"E {i} {j}\n" for i, j in edges))
    if fault is None:
        assert Topology(n, tuple(edges)).edges == want
        assert load_topology(path) == Topology(n, want)
    else:
        k, reason = fault
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            Topology(n, tuple(edges))
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}:{k + 3}: {re.escape(reason)}$")):
            load_topology(path)


def test_topology_refuses_ids_that_are_not_whole():
    # 1.5 was once truncated to node 1; a whole float is its integer, and
    # an int array keeps its ids
    for edges in ([(0, 1.5), (1, 3)], [(0, "1")], [(0, None)],
                  np.array([[0.0, 0.5]])):
        with pytest.raises(ValueError, match="node id must be an integer"):
            Topology(3, edges)
    assert Topology(3, [(0, 1.0), (3, 1)]).edges == ((0, 1), (1, 3))
    assert Topology(3, np.array([[3, 1], [0, 1]], np.int32)).edges == \
        ((0, 1), (1, 3))


@st.composite
def _topologies(draw):
    n = draw(st.integers(0, 10))
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    edges = (draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs
             else [])
    return Topology(n, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(topo=_topologies())
def test_spanning_path_matches_dict_bfs(topo):
    # sparse draws are often disconnected; the steady-state solve shares
    # the reachability rule
    reached = _dict_bfs(topo)
    assert has_spanning_path(topo) == reached
    if topo.node_count:
        if reached:
            assert np.all(np.isfinite(steady_state_error(topo, 1.0).ess))
        else:
            with pytest.raises(NotConvergent):
                steady_state_error(topo, 1.0)


def test_hop_levels_grid_is_manhattan_distance():
    # from the corner gateway, a grid cell is row + col hops out
    topo = grid_topology(5, 7)
    eu, ev = topo.edge_arrays()
    level = _hop_levels(topo.gateway_id, np.concatenate([eu, ev]),
                        np.concatenate([ev, eu]))
    cell = np.arange(1, 35)  # row-major cells; cell 0 is the gateway
    assert level[-1] == 0
    assert np.array_equal(level[:-1], cell // 7 + cell % 7)
    # one-way links: node 2 is reached only through node 1
    assert _hop_levels(3, np.array([3, 0, 1]), np.array([0, 1, 2])).tolist() \
        == [1, 2, 3, 0]
    assert _hop_levels(2, np.array([2]), np.array([0])).tolist() == [1, -1, 0]


def _check_generated(topo, total, gateway, raw):
    assert (topo.node_count, topo.edges) == _relabel_loop(total, gateway, raw)
    assert topo.gateway_id == total - 1
    for i in range(topo.total_nodes):
        assert topo.neighbors(i) == _neighbors_loop(topo, i)


def test_grid_line_ring_match_loops():
    # every shape in range at every gateway
    for rows in range(1, 7):
        for cols in range(1, 7):
            for g in range(rows * cols):
                _check_generated(grid_topology(rows, cols, g), rows * cols, g,
                                 _grid_loop(rows, cols))
    for n in range(2, 12):
        for g in range(n):
            _check_generated(line_topology(n, g), n, g,
                             [(i, i + 1) for i in range(n - 1)])
            if n >= 3:
                _check_generated(ring_topology(n, g), n, g,
                                 [(i, (i + 1) % n) for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 11),
       prob=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**40))
def test_random_topology_matches_loop_at_every_gateway(data, n, prob, seed):
    g = data.draw(st.integers(0, n - 1))
    _check_generated(random_topology(n, prob, seed, g), n, g,
                     _random_topology_loop(n, prob, seed))

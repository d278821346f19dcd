import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsync.model import (InvalidPlacement, IsolatedNode, Topology,
                           build_matrices, generate_topology, grid_topology,
                           has_spanning_path, line_topology, load_topology,
                           random_topology, ring_topology, save_topology)


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


def test_spanning_path_cases():
    assert has_spanning_path(line_topology(3))
    assert has_spanning_path(grid_topology(4, 4))
    # components {gw, n0} and {n1, n2}
    split = Topology(node_count=3, gateway_id=3, edges=((0, 3), (1, 2)))
    assert not has_spanning_path(split)


def test_gateway_without_edges_unreachable():
    topo = Topology(node_count=2, gateway_id=2, edges=((0, 1),))
    assert not has_spanning_path(topo)
    mats = build_matrices(topo)
    assert np.all(mats.b == 0.0)


def test_isolated_node_rejected():
    topo = Topology(node_count=2, gateway_id=2, edges=((0, 2),))
    with pytest.raises(IsolatedNode):
        build_matrices(topo)


def test_invalid_gateway_placement():
    with pytest.raises(InvalidPlacement):
        grid_topology(2, 2, gateway=9)
    with pytest.raises(InvalidPlacement):
        line_topology(3, gateway=-1)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(node_count=2, gateway_id=1, edges=())  # non-canonical gateway
    with pytest.raises(ValueError):
        Topology(node_count=2, gateway_id=2, edges=((0, 0),))  # self loop
    with pytest.raises(ValueError):
        Topology(node_count=2, gateway_id=2, edges=((0, 1), (1, 0)))  # dup
    with pytest.raises(ValueError):
        Topology(node_count=2, gateway_id=2, edges=((0, 5),))  # out of range


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
])
def test_file_truncated_record(tmp_path, body, line):
    # a record missing a field names its file and line, not an IndexError
    bad = tmp_path / "bad.topo"
    bad.write_text(body)
    with pytest.raises(ValueError, match=f"^{bad}:{line}: "):
        load_topology(bad)


def test_generate_topology_from_file(tmp_path):
    path = tmp_path / "ring.topo"
    save_topology(ring_topology(5), path)
    assert generate_topology(f"file:{path}") == ring_topology(5)


def test_neighbors_include_gateway():
    topo = line_topology(3)
    assert set(topo.neighbors(0)) == {1, 2}
    assert set(topo.neighbors(1)) == {0}


def test_edge_arrays_orientation():
    eu, ev = grid_topology(3, 3).edge_arrays()
    assert eu.dtype == np.int64 and ev.dtype == np.int64
    assert np.all(eu < ev)


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

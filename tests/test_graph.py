"""Core graph model and transformation tests."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlanroute.errors import UnknownVertexError, ValidationError
from qlanroute.graph import (
    InterQlanGraph,
    LabeledVertex,
    Qlan,
    client,
    client_graph,
    complement_graph,
    complement_neighborhood,
    delete_vertex,
    edges_as_names,
    graph_to_json,
    local_complement,
    make_edge,
    neighbors,
    super_node,
    to_dot,
    vertex_from_name,
    vertex_sort_key,
)

from helpers import (
    all_client_graphs,
    client_graphs,
    plain_graphs,
    random_client_graph,
    random_plain_graph,
)


# -- vertices and construction ------------------------------------------


def test_vertex_names():
    assert client(1, 3).name == "1.3"
    assert client(Qlan.Q2, 1).name == "2.1"
    assert super_node(1).name == "s1"


def test_a_vertex_is_its_qlan_and_index():
    assert LabeledVertex(Qlan.Q1, 0) == super_node(1) and super_node(1).is_super
    assert hash(LabeledVertex(Qlan.Q2, 0)) == hash(super_node(2))
    assert not client(2, 1).is_super
    # two objects of one (qlan, index) are one vertex: the graph keeps one
    g = InterQlanGraph([super_node(1), LabeledVertex(Qlan.Q1, 0), client(1, 1)], [])
    assert g.order == (client(1, 1), super_node(1))


def test_vertex_from_name_round_trip():
    for name in ["1.1", "2.14", "s1", "s2"]:
        assert vertex_from_name(name).name == name


@pytest.mark.parametrize("bad", ["", "3.1", "1.", "1.0", "s3", "x", "1,2", "1.-2"])
def test_vertex_from_name_rejects_garbage(bad):
    with pytest.raises(ValidationError):
        vertex_from_name(bad)


def test_client_indices_are_one_based():
    with pytest.raises(ValidationError):
        client(1, 0)


def test_no_self_loops():
    v = client(1, 1)
    with pytest.raises(ValidationError):
        make_edge(v, v)


def test_edge_needs_known_endpoints():
    g = client_graph(1, 1)
    with pytest.raises(UnknownVertexError):
        InterQlanGraph(frozenset(g.order), frozenset({make_edge(client(1, 1), client(2, 2))}))


def test_edges_are_canonical_regardless_of_order():
    a, b = client(1, 1), client(2, 1)
    g1 = InterQlanGraph(frozenset({a, b}), frozenset({(a, b)}))
    g2 = InterQlanGraph(frozenset({a, b}), frozenset({(b, a)}))
    assert g1 == g2


# -- neighbors -----------------------------------------------------------


def test_neighbors_isolated_vertex_is_empty():
    g = client_graph(2, 2)
    assert len(neighbors(g, client(1, 1))) == 0


def test_neighbors_single_edge():
    g = client_graph(1, 1, [(1, 1)])
    assert frozenset(neighbors(g, client(1, 1))) == frozenset({client(2, 1)})


def test_neighbors_unknown_vertex():
    g = client_graph(1, 1)
    with pytest.raises(UnknownVertexError, match="1.9"):
        neighbors(g, client(1, 9))


def test_neighbors_matches_independent_edge_scan():
    rng = random.Random(101)
    for _ in range(25):
        g = random_client_graph(rng, 3, 4)
        # oracle: adjacency rebuilt vertex by vertex from the raw edge list
        for v in frozenset(g.order):
            scanned = set()
            for (x, y) in g.edges:
                if x == v:
                    scanned.add(y)
                if y == v:
                    scanned.add(x)
            assert frozenset(neighbors(g, v)) == frozenset(scanned)


@given(plain_graphs())
def test_neighborhoods_are_tuples_in_canonical_order(g):
    for v in g.order:
        near = neighbors(g, v)
        assert isinstance(near, tuple) and list(near) == sorted(near, key=vertex_sort_key)
        if not v.is_super:
            far = complement_neighborhood(g, v)
            assert isinstance(far, tuple) and list(far) == sorted(far, key=vertex_sort_key)


# -- complement neighborhood ----------------------------------------------


def test_complement_neighborhood_complete_bipartite_is_empty():
    g = client_graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    for v in g.clients():
        assert len(complement_neighborhood(g, v)) == 0


def test_complement_neighborhood_edgeless_is_full_opposite_qlan():
    g = client_graph(2, 2)
    assert frozenset(complement_neighborhood(g, client(1, 1))) == frozenset(
        {client(2, 1), client(2, 2)}
    )


def test_complement_neighborhood_matches_set_difference():
    rng = random.Random(77)
    for _ in range(25):
        g = random_client_graph(rng, 3, 4)
        for v in g.clients():
            opposite = set(g.clients(v.qlan.other))
            expected = opposite - set(neighbors(g, v))
            assert frozenset(complement_neighborhood(g, v)) == frozenset(expected)


def test_complement_neighborhood_rejects_super():
    g = client_graph(1, 1, [(1, 1)])
    s = super_node(1)
    aug = InterQlanGraph(frozenset(g.order) | {s}, g.edges)
    with pytest.raises(ValidationError):
        complement_neighborhood(aug, s)


def test_complement_neighborhood_excludes_supers_from_members():
    a, b, s2 = client(1, 1), client(2, 1), super_node(2)
    g = InterQlanGraph(frozenset({a, b, s2}), frozenset())
    assert frozenset(complement_neighborhood(g, a)) == frozenset({b})


# -- local complementation -------------------------------------------------


def test_local_complement_at_isolated_vertex_is_identity():
    g = client_graph(2, 3, [(1, 2)])
    assert local_complement(g, client(2, 3)) == g


def test_local_complement_path_becomes_triangle():
    # path 1.1 -- 2.1 -- 1.2; complementing at the middle adds (1.1, 1.2),
    # an intra-QLAN edge, which intermediate graphs are allowed to carry
    a, b, c = client(1, 1), client(2, 1), client(1, 2)
    g = client_graph(2, 1, [(1, 1), (2, 1)])
    out = local_complement(g, b)
    assert out.edges == g.edges | {make_edge(a, c)}


def test_local_complement_involution_on_50_random_graphs():
    rng = random.Random(5)
    for _ in range(50):
        g = random_plain_graph(rng, max_vertices=10)
        for v in sorted(frozenset(g.order), key=lambda u: u.name)[:3]:
            assert local_complement(local_complement(g, v), v) == g


@given(plain_graphs(max_vertices=8), st.integers(min_value=0, max_value=10**6))
def test_local_complement_involution_property(g, pick):
    vs = sorted(frozenset(g.order), key=lambda u: u.name)
    v = vs[pick % len(vs)]
    assert local_complement(local_complement(g, v), v) == g


@given(plain_graphs(max_vertices=8), st.integers(min_value=0, max_value=10**6))
def test_local_complement_preserves_vertices(g, pick):
    vs = sorted(frozenset(g.order), key=lambda u: u.name)
    v = vs[pick % len(vs)]
    assert frozenset(local_complement(g, v).order) == frozenset(g.order)


def test_local_complement_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        local_complement(client_graph(1, 1), client(2, 9))


# -- vertex deletion --------------------------------------------------------


def test_delete_only_vertex_leaves_empty_graph():
    g = InterQlanGraph(frozenset({client(1, 1)}), frozenset())
    out = delete_vertex(g, client(1, 1))
    assert frozenset(out.order) == frozenset() and out.edges == frozenset()


def test_delete_from_edgeless_graph():
    g = client_graph(2, 2)
    out = delete_vertex(g, client(2, 2))
    assert frozenset(out.order) == frozenset(g.order) - {client(2, 2)}
    assert out.edges == frozenset()


def test_delete_star_hub_isolates_leaves():
    g = client_graph(1, 4, [(1, 1), (1, 2), (1, 3), (1, 4)])
    out = delete_vertex(g, client(1, 1))
    assert len(frozenset(out.order)) == 4
    assert out.edges == frozenset()


@given(plain_graphs(max_vertices=8), st.integers(min_value=0, max_value=10**6))
def test_delete_shrinks_vertex_set_by_one(g, pick):
    vs = sorted(frozenset(g.order), key=lambda u: u.name)
    v = vs[pick % len(vs)]
    assert len(frozenset(delete_vertex(g, v).order)) == len(frozenset(g.order)) - 1


# -- graph complement --------------------------------------------------------


def test_complement_of_complete_bipartite_is_edgeless():
    g = client_graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert complement_graph(g).edges == frozenset()


def test_complement_of_edgeless_is_complete_bipartite():
    g = client_graph(2, 2)
    assert len(complement_graph(g).edges) == 4


def test_complement_rejects_super_nodes():
    g = client_graph(1, 1, [(1, 1)])
    aug = InterQlanGraph(frozenset(g.order) | {super_node(1)}, g.edges)
    with pytest.raises(ValidationError):
        complement_graph(aug)


def test_complement_involution_exhaustive_2_plus_2():
    for g in all_client_graphs(2, 2):
        assert complement_graph(complement_graph(g)) == g


@given(client_graphs())
def test_complement_involution_property(g):
    assert complement_graph(complement_graph(g)) == g


@given(client_graphs())
def test_edge_counts_partition_all_cross_pairs(g):
    assert len(g.edges) + len(complement_graph(g).edges) == g.n1 * g.n2


@given(client_graphs())
def test_neighbors_and_complement_partition_opposite_qlan(g):
    for v in g.clients():
        near = frozenset(neighbors(g, v))
        far = frozenset(complement_neighborhood(g, v))
        assert near & far == frozenset()
        assert near | far == frozenset(g.clients(v.qlan.other))


# -- serialization -----------------------------------------------------------


def test_json_round_trip_client_graph():
    # the JSON holds what rebuilds the graph: the QLAN sizes, the supers
    # and the edges as name pairs in canonical order
    g = client_graph(3, 4, [(1, 2), (2, 2), (3, 4)])
    data = graph_to_json(g)
    assert (data["n1"], data["n2"]) == (3, 4)
    assert data["supers"] == {"s1": False, "s2": False}
    assert data["edges"] == edges_as_names(g) == [["1.1", "2.2"], ["1.2", "2.2"], ["1.3", "2.4"]]
    assert data["super_edges"] == []


def test_json_round_trip_with_supers():
    base = client_graph(2, 2, [(1, 1)])
    s1, s2 = super_node(1), super_node(2)
    g = InterQlanGraph(
        frozenset(base.order) | {s1, s2},
        base.edges | {make_edge(s1, s2), make_edge(client(1, 1), s2)},
    )
    data = graph_to_json(g)
    assert (data["n1"], data["n2"]) == (2, 2)
    assert data["supers"] == {"s1": True, "s2": True}
    assert data["edges"] == [["1.1", "2.1"]]
    assert data["super_edges"] == [["1.1", "s2"], ["s1", "s2"]]
    assert list(data["edges"]) + list(data["super_edges"]) == edges_as_names(g)


@given(plain_graphs())
def test_pickle_round_trip_keeps_the_graph(g):
    h = pickle.loads(pickle.dumps(g))
    assert h.order == g.order and h.rows == g.rows
    assert h == g and hash(h) == hash(g)
    assert h.edges == g.edges


def test_json_rejects_non_contiguous_clients():
    g = InterQlanGraph(frozenset({client(1, 2), client(2, 1)}), frozenset())
    with pytest.raises(ValidationError, match="contiguous"):
        graph_to_json(g)


def test_dot_export_structure():
    base = client_graph(2, 2, [(1, 2)])
    g = InterQlanGraph(frozenset(base.order) | {super_node(1)}, base.edges)
    dot = to_dot(g)
    lines = [ln.strip() for ln in dot.strip().splitlines()]
    assert lines[0].startswith("graph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    assert '"1.1" -- "2.2";' in lines or '"1.2" -- "2.2";' in lines
    # one visual class per population
    q1_style = next(ln for ln in lines if ln.startswith('"1.1"'))
    q2_style = next(ln for ln in lines if ln.startswith('"2.1"'))
    s_style = next(ln for ln in lines if ln.startswith('"s1"'))
    assert q1_style != q2_style != s_style
    assert dot.count("--") == len(g.edges)

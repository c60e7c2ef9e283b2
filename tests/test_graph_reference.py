"""The integer-indexed graph core against a reference on plain name-pair sets.

The reference below knows nothing of rows, positions or LabeledVertex: a
graph is a set of vertex names and a set of two-name frozensets, and each
operation is written straight from its definition. Random graphs of at
most 10 vertices, super-nodes and intra-QLAN edges included, go through both.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlanroute.errors import ValidationError
from qlanroute.graph import (
    InterQlanGraph,
    LabeledVertex,
    Qlan,
    complement_graph,
    delete_vertex,
    edges_as_names,
    graph_to_json,
    local_complement,
    neighbors,
    vertex_sort_key,
)
from qlanroute.switching import measure_x

# -- the reference: (names, edges) with edges a set of frozenset name pairs


def ref_of(g: InterQlanGraph) -> tuple[frozenset, frozenset]:
    return (frozenset(v.name for v in g.order),
            frozenset(frozenset((u.name, v.name)) for (u, v) in g.edges))


def ref_neighbors(ref, v: str) -> frozenset:
    return frozenset(u for e in ref[1] if v in e for u in e if u != v)


def ref_local_complement(ref, v: str):
    toggled = {frozenset(p) for p in combinations(sorted(ref_neighbors(ref, v)), 2)}
    return (ref[0], ref[1] ^ toggled)


def ref_delete(ref, v: str):
    return (ref[0] - {v}, frozenset(e for e in ref[1] if v not in e))


def ref_measure_x(ref, a: str, k0: str):
    h = ref_local_complement(ref_local_complement(ref, k0), a)
    return ref_local_complement(ref_delete(h, a), k0)


def ref_complement(ref):
    q1 = [n for n in ref[0] if n.startswith("1.")]
    q2 = [n for n in ref[0] if n.startswith("2.")]
    return (ref[0], frozenset(frozenset((a, b)) for a in q1 for b in q2
                              if frozenset((a, b)) not in ref[1]))


# -- random graphs through the public constructor


@st.composite
def small_graphs(draw, max_vertices: int = 10) -> InterQlanGraph:
    n1 = draw(st.integers(0, 4))
    n2 = draw(st.integers(0, 4))
    vertices = [LabeledVertex(Qlan.Q1, i) for i in range(1, n1 + 1)]
    vertices += [LabeledVertex(Qlan.Q2, j) for j in range(1, n2 + 1)]
    for q in Qlan:
        if draw(st.booleans()):  # the QLAN's super-node, index 0
            vertices.append(LabeledVertex(q, 0))
    if not vertices:
        vertices.append(LabeledVertex(Qlan.Q2, 1))
    vertices = vertices[:max_vertices]
    pairs = list(combinations(vertices, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v) if draw(st.booleans()) else (v, u) for (u, v), k in zip(pairs, keep) if k]
    return InterQlanGraph(vertices, edges)


def rebuilt(ref, like: InterQlanGraph) -> InterQlanGraph:
    """The reference result as a graph made by the public, validating constructor."""
    by_name = {v.name: v for v in like.order}
    return InterQlanGraph([by_name[n] for n in ref[0]],
                          [tuple(by_name[n] for n in e) for e in ref[1]])


def assert_same(got: InterQlanGraph, ref, like: InterQlanGraph) -> None:
    assert ref_of(got) == ref
    want = rebuilt(ref, like)
    assert got == want and hash(got) == hash(want)


@settings(max_examples=200)
@given(small_graphs())
def test_core_matches_the_name_pair_reference(g):
    ref = ref_of(g)
    for v in g.order:
        assert frozenset(neighbors(g, v)) == frozenset(
            u for u in g.order if u.name in ref_neighbors(ref, v.name))
        assert_same(local_complement(g, v), ref_local_complement(ref, v.name), g)
        assert_same(delete_vertex(g, v), ref_delete(ref, v.name), g)
        for k0 in g.order:
            if k0 == v:
                continue
            if k0.name in ref_neighbors(ref, v.name):
                post, record = measure_x(g, v, k0)
                assert_same(post, ref_measure_x(ref, v.name, k0.name), g)
                assert record.pre_graph is g and record.post_graph is post
            else:
                with pytest.raises(ValidationError):
                    measure_x(g, v, k0)
    if g.supers():
        with pytest.raises(ValidationError):
            complement_graph(g)
    else:
        assert_same(complement_graph(g), ref_complement(ref), g)


@settings(max_examples=200)
@given(small_graphs())
def test_views_and_export_follow_canonical_order(g):
    assert list(g.order) == sorted(frozenset(g.order), key=vertex_sort_key)
    canonical = sorted(g.edges, key=lambda e: (vertex_sort_key(e[0]), vertex_sort_key(e[1])))
    assert edges_as_names(g) == [[u.name, v.name] for (u, v) in canonical]
    assert g.edge_count == len(g.edges)
    assert InterQlanGraph(frozenset(g.order), g.edges) == g
    for q in Qlan:  # same rows over a different vertex: a different graph
        if not g.clients(q):
            continue
        swap = {g.clients(q)[-1]: LabeledVertex(q, 99)}  # stays last of its QLAN's clients
        h = InterQlanGraph([swap.get(v, v) for v in frozenset(g.order)],
                           [(swap.get(u, u), swap.get(v, v)) for (u, v) in g.edges])
        assert h.rows == g.rows and h != g
    for u, v in combinations(g.order, 2):
        assert g.has_edge(u, v) == (frozenset((u.name, v.name)) in ref_of(g)[1])
    data = graph_to_json(g)  # clients are contiguous from 1 here, so it serializes
    assert list(data["edges"]) + list(data["super_edges"]) == sorted(
        edges_as_names(g), key=lambda e: any(n.startswith("s") for n in e))

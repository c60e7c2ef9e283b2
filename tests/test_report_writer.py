"""The report writer cannot drift from the stdlib encoder.

``cli._json_report`` must equal ``json.dumps(obj, indent=2,
sort_keys=True)`` and one newline, byte for byte, on every JSON value,
including the spellings the encoder owns (``1e-09``, ``NaN``, ``-0.0``,
escaped non-ASCII), and on the reports' edge blocks, which it renders
straight from a graph's rows and appends again where one report repeats
a block.
"""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qlanroute.cli import _json_report
from qlanroute.errors import ValidationError
from qlanroute.graph import EdgeRows, InterQlanGraph, client, edges_as_names, graph_to_json, super_node
from qlanroute.switching import AugmentationCase, AugmentedGraph, records_to_json, run_pipeline


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


strings = st.text() | st.sampled_from(["", "é", "☃", "\U0001d11e", "\ud800", '"', "\\",
                                       "\n\t\r\x00\x1f\x7f", "1.1", "2.10", "%s", "%%"])
floats = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-9,
                                        1e16, 0.1, 5e-324])
ints = st.integers() | st.sampled_from([2**63, -(2**70), 10**30])
scalars = st.none() | st.booleans() | ints | floats | strings
# the edge lists of a trace, and shapes one step away from them
pairs = st.lists(st.lists(strings, min_size=2, max_size=2) | st.tuples(strings, strings), min_size=1)
near_pairs = st.lists(
    st.lists(strings, min_size=2, max_size=2)
    | st.tuples(strings, ints)
    | st.lists(strings, min_size=0, max_size=3)
    | st.lists(strings | ints, max_size=3),
    min_size=1,
)
flat_lists = st.lists(strings) | st.lists(ints) | st.lists(strings | ints | st.booleans())
keyed = (st.dictionaries(strings, scalars) | st.dictionaries(ints, scalars)
         | st.dictionaries(st.floats(), scalars) | st.dictionaries(st.booleans(), scalars)
         | st.dictionaries(st.none(), scalars))
values = st.recursive(
    scalars | pairs | near_pairs | flat_lists | keyed,
    lambda children: (st.lists(children) | st.tuples(children, children)
                      | st.dictionaries(strings, children)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(values)
@example([["1.1", "2.1"], ["1.1", "2.2"]])
@example({"pre": {"edges": [["1.1", "2.1"]]}, "post": {"edges": []}, "step": 0})
@example([["a", 1]])
@example([["a", "b", "c"], ["a", "b"]])
@example([["a", "b"], ("c", "d"), []])
@example(["a", 1, "b", 2])
def test_writer_equals_the_encoder(obj):
    assert _json_report(obj) == reference(obj)


@pytest.mark.parametrize("depth", [1, 5, 60])
def test_writer_equals_the_encoder_on_deep_nesting(depth):
    obj = [["1.1", "2.1"]]
    for level in range(depth):
        obj = {"level": level, "inner": [obj, (), {}, 1e-9]}
    assert _json_report(obj) == reference(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, [object()], {"a": {1, 2}}])
def test_writer_rejects_what_the_encoder_rejects(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        _json_report(obj)


# -- edge blocks rendered from rows ----------------------------------------------


@st.composite
def report_graphs(draw, supers: bool = True, min_clients: int = 0) -> InterQlanGraph:
    """Graphs ``graph_to_json`` serializes: clients 1..n per QLAN, either
    super-node or none, and an empty, single, dense or random edge set."""
    n1 = draw(st.integers(min_clients, 7))
    n2 = draw(st.integers(min_clients, 7))
    order = [client(1, i) for i in range(1, n1 + 1)] + [client(2, j) for j in range(1, n2 + 1)]
    order += [super_node(q) for q in (1, 2) if supers and draw(st.booleans())]
    pairs = list(combinations(order, 2))
    shape = draw(st.sampled_from(["empty", "single", "dense", "random"]))
    if shape == "empty" or not pairs:
        edges = []
    elif shape == "single":
        edges = [draw(st.sampled_from(pairs))]
    elif shape == "dense":
        edges = pairs
    else:
        edges = [p for p in pairs if draw(st.booleans())]
    return InterQlanGraph(order, edges)


def as_lists(obj):
    """``obj`` with every EdgeRows replaced by the name-pair list it stands for."""
    if isinstance(obj, EdgeRows):
        return edges_as_names(obj.graph, obj.mask)
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_lists(x) for x in obj]
    return obj


@settings(max_examples=200, deadline=None)
@given(report_graphs())
def test_result_graph_edge_blocks_render_as_the_encoder_would(g):
    data = graph_to_json(g)
    assert _json_report(data) == reference(as_lists(data))
    assert data == graph_to_json(g) == as_lists(data) and as_lists(data) == data
    for block in (data["edges"], data["super_edges"]):
        names = edges_as_names(block.graph, block.mask)
        assert list(block) == names and block == names and not block != names
        assert all(pair in block for pair in names)
    assert (data["edges"] == data["super_edges"]) == (as_lists(data["edges"]) == as_lists(data["super_edges"]))


@settings(max_examples=100, deadline=None)
@given(report_graphs(supers=False, min_clients=1), st.sampled_from(AugmentationCase), st.data())
def test_trace_edge_blocks_render_as_the_encoder_would(g, case, data):
    # pre and post snapshots carry super-nodes and the intra-QLAN edges that
    # local complementation makes; the retained clients come from the drawn graph
    retained = data.draw(st.sets(st.sampled_from(g.order), max_size=max(0, len(g.order) - 2)))
    try:
        _, records = run_pipeline(AugmentedGraph(g, case, retained))
    except ValidationError:  # every eligible k0 is retained: no trace
        assume(False)
    trace = records_to_json(records)
    assert _json_report(trace) == reference(as_lists(trace))


@settings(max_examples=100, deadline=None)
@given(report_graphs(), st.integers(-1, 2**9), st.lists(st.sampled_from(["list", "dict"]), max_size=4))
def test_an_edge_block_renders_at_any_depth(g, mask, wrappers):
    obj = EdgeRows(g, mask)
    for kind in wrappers:
        obj = [obj, 1] if kind == "list" else {"edges": obj, "n": None}
    assert _json_report(obj) == reference(as_lists(obj))


# -- a block the report repeats --------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(report_graphs())
def test_a_block_repeated_at_one_depth_renders_as_the_encoder_would(g):
    # a trace's post-graph of one step is the pre-graph of the next
    obj = [{"post": {"edges": EdgeRows(g)}}, {"pre": {"edges": EdgeRows(g)}}, EdgeRows(g), EdgeRows(g)]
    assert _json_report(obj) == reference(as_lists(obj))


@settings(max_examples=100, deadline=None)
@given(report_graphs())
def test_one_graph_at_two_depths_renders_as_the_encoder_would(g):
    obj = {"a": EdgeRows(g), "b": {"c": EdgeRows(g), "d": [EdgeRows(g)]}, "e": EdgeRows(g)}
    assert _json_report(obj) == reference(as_lists(obj))


@settings(max_examples=100, deadline=None)
@given(report_graphs(supers=False, min_clients=1), st.sampled_from(AugmentationCase))
def test_one_graph_under_two_masks_renders_as_the_encoder_would(g, case):
    # edges and super_edges are the same graph under complementary masks
    clients = InterQlanGraph(g.order, [(a, b) for a, b in g.edges if a.qlan != b.qlan])
    data = graph_to_json(AugmentedGraph(clients, case).graph)
    obj = [data, data, {"edges": data["super_edges"], "super_edges": data["edges"]}]
    assert _json_report(obj) == reference(as_lists(obj))


@settings(max_examples=50, deadline=None)
@given(st.lists(report_graphs(), min_size=2, max_size=6))
def test_no_block_carries_over_between_renders(graphs):
    # each graph is rebuilt and dropped after its render, so a later graph can
    # take a freed one's identity: only a memo kept across renders reuses it
    for g in graphs:
        assert _json_report(EdgeRows(InterQlanGraph(g.order, g.edges))) == reference(edges_as_names(g))
        assert _json_report({"edges": EdgeRows(InterQlanGraph(g.order, g.edges))}) == reference({"edges": edges_as_names(g)})


@settings(max_examples=100, deadline=None)
@given(values | report_graphs().map(graph_to_json))
def test_a_report_is_the_encoder_text_and_one_newline(obj):
    assert _json_report(obj) == reference(as_lists(obj))

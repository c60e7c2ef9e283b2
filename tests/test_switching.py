"""Augmentation and measurement-pipeline tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlanroute.errors import ValidationError
from qlanroute.graph import (
    InterQlanGraph,
    Qlan,
    client,
    client_graph,
    complement_graph,
    make_edge,
    super_node,
)
from qlanroute.oracle import replay_records
from qlanroute.switching import (
    AugmentationCase,
    AugmentedGraph,
    augment_case1,
    augment_case2,
    default_k0,
    eligible_k0,
    measure_x,
    records_to_json,
    run_pipeline,
)

from helpers import all_client_graphs, client_graphs, neighbors, other, random_client_graph

S1, S2 = super_node(1), super_node(2)


# -- augmentation -------------------------------------------------------


def test_augment_case1_single_link_exact_edges():
    g = client_graph(1, 1, [(1, 1)])
    aug = augment_case1(g)
    a, b = client(1, 1), client(2, 1)
    assert aug.graph.edges == frozenset(
        {make_edge(a, b), make_edge(S1, S2), make_edge(a, S2), make_edge(b, S1)}
    )
    assert aug.case is AugmentationCase.CASE_I


def test_augment_case1_edgeless_2_plus_2_has_five_edges():
    aug = augment_case1(client_graph(2, 2))
    assert len(aug.graph.edges) == 1 + 2 + 2


def test_augment_case1_edge_count_exhaustive_3_plus_3():
    for g in all_client_graphs(3, 3):
        aug = augment_case1(g)
        assert len(aug.graph.edges) == len(g.edges) + 1 + g.n1 + g.n2


def test_augment_case2_single_link_exact_edges():
    g = client_graph(1, 1, [(1, 1)])
    aug = augment_case2(g)
    a, b = client(1, 1), client(2, 1)
    assert aug.graph.edges == frozenset(
        {make_edge(a, b), make_edge(S1, S2), make_edge(a, S1), make_edge(b, S2)}
    )


def test_augment_case2_edgeless_2_plus_2_all_super_incident():
    aug = augment_case2(client_graph(2, 2))
    assert len(aug.graph.edges) == 5
    assert all(e[0].is_super or e[1].is_super for e in aug.graph.edges)


def test_augment_case2_degree_exhaustive_3_plus_3():
    for g in all_client_graphs(3, 3):
        aug = augment_case2(g)
        for v in g.clients():
            assert len(neighbors(aug.graph, v)) == len(neighbors(g, v)) + 1


@pytest.mark.parametrize("build", [augment_case1, augment_case2])
def test_augment_rejects_empty_qlan(build):
    with pytest.raises(ValidationError, match="empty QLAN"):
        build(client_graph(0, 3))


def test_augment_rejects_graph_with_super():
    g = client_graph(1, 1, [(1, 1)])
    with_super = InterQlanGraph(frozenset(g.order) | {S1}, g.edges)
    # an intra-QLAN edge makes a graph just as much not a client graph
    intra = InterQlanGraph(client_graph(2, 1).order, [make_edge(client(1, 1), client(1, 2))])
    for bad in (with_super, intra):
        for build in (augment_case1, augment_case2):
            with pytest.raises(ValidationError):
                build(bad)


def test_augment_rejects_unknown_retained_vertex():
    with pytest.raises(ValidationError):
        augment_case1(client_graph(2, 2), retain=[client(1, 7)])


@pytest.mark.parametrize("case", ["I", "II", None, 1])
def test_augment_rejects_a_case_that_is_not_an_augmentation_case(case):
    # the wiring tests `case is CASE_I`, so an unchecked "I" would wire Case II
    with pytest.raises(ValidationError, match="AugmentationCase"):
        AugmentedGraph(client_graph(1, 1), case)


def test_retained_clients_touch_no_super():
    g = client_graph(2, 2, [(1, 1), (2, 2)])
    r = client(1, 2)
    for aug in (augment_case1(g, [r]), augment_case2(g, [r])):
        assert not aug.graph.has_edge(r, S1)
        assert not aug.graph.has_edge(r, S2)


@pytest.mark.parametrize("build, to_opposite", [(augment_case1, True), (augment_case2, False)])
@settings(max_examples=100, deadline=None)
@given(g=client_graphs(), data=st.data())
def test_augment_matches_the_name_level_rule(build, to_opposite, g, data):
    """The README rule, spelled with names: s1 -- s2, and each non-retained
    client wired to the opposite QLAN's super-node (Case I) or its own (Case II).
    k0 candidates are the non-retained clients of QLAN 1 (Case I) or QLAN 2 (Case II)."""
    retained = data.draw(st.sets(st.sampled_from(g.clients())))
    aug = build(g, retained)
    supers = {Qlan.Q1: S1, Qlan.Q2: S2}
    switching = [c for c in g.clients() if c not in retained]
    wired = {make_edge(c, supers[other(c.qlan) if to_opposite else c.qlan]) for c in switching}
    assert aug.graph.edges == g.edges | {make_edge(S1, S2)} | wired
    k0_qlan = Qlan.Q1 if to_opposite else Qlan.Q2
    assert eligible_k0(aug) == tuple(c for c in switching if c.qlan is k0_qlan)


# -- single X measurement ---------------------------------------------------


def test_measure_single_edge_leaves_isolated_partner():
    g = client_graph(1, 1, [(1, 1)])
    post, record = measure_x(g, client(1, 1), client(2, 1))
    assert frozenset(post.order) == frozenset({client(2, 1)})
    assert post.edges == frozenset()
    assert record.measured_vertex == client(1, 1)


def test_measure_star_hub_hand_computed():
    # hub 1.1 with leaves 2.1, 2.2, 2.3; measuring the hub with k0 = 2.1
    # leaves 2.1 adjacent to the other leaves, which stay non-adjacent
    g = client_graph(1, 3, [(1, 1), (1, 2), (1, 3)])
    post, _ = measure_x(g, client(1, 1), client(2, 1))
    assert post.edges == frozenset(
        {make_edge(client(2, 1), client(2, 2)), make_edge(client(2, 1), client(2, 3))}
    )


def test_measure_requires_adjacent_k0():
    g = client_graph(2, 1, [(1, 1)])
    with pytest.raises(ValidationError, match="not adjacent"):
        measure_x(g, client(1, 1), client(1, 2))


def test_measure_requires_a_neighbor():
    g = client_graph(2, 1, [(1, 1)])
    with pytest.raises(ValidationError, match="requires a neighbor"):
        measure_x(g, client(1, 2), client(1, 1))


def test_measure_does_not_mutate_input():
    g = client_graph(2, 2, [(1, 1), (1, 2), (2, 1)])
    before = frozenset(g.edges)
    measure_x(g, client(1, 1), client(2, 1))
    assert g.edges == before


# -- pipelines --------------------------------------------------------------


def test_case1_single_link_switches_to_edgeless():
    g = client_graph(1, 1, [(1, 1)])
    final, records = run_pipeline(augment_case1(g))
    assert final == client_graph(1, 1)
    assert [r.measured_vertex.name for r in records] == ["s2", "s1"]


def test_case1_complete_bipartite_switches_to_edgeless():
    g = client_graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    final, _ = run_pipeline(augment_case1(g))
    assert final == complement_graph(g)
    assert final.edges == frozenset()


def test_case2_single_link_switches_to_edgeless():
    g = client_graph(1, 1, [(1, 1)])
    final, _ = run_pipeline(augment_case2(g))
    assert final == client_graph(1, 1)


def test_case2_edgeless_switches_to_complete_bipartite():
    g = client_graph(2, 2)
    final, _ = run_pipeline(augment_case2(g))
    assert final == complement_graph(g)
    assert len(final.edges) == 4


def test_case1_exhaustive_2_plus_2_every_k0():
    for g in all_client_graphs(2, 2):
        ref = complement_graph(g)
        aug = augment_case1(g)
        for k0 in eligible_k0(aug):
            final, _ = run_pipeline(aug, k0)
            assert final == ref


def test_case2_exhaustive_2_plus_2_every_k0():
    for g in all_client_graphs(2, 2):
        ref = complement_graph(g)
        aug = augment_case2(g)
        for k0 in eligible_k0(aug):
            final, _ = run_pipeline(aug, k0)
            assert final == ref


@settings(max_examples=60)
@given(client_graphs(max_n1=4, max_n2=4))
def test_pipeline_output_is_k0_independent(g):
    aug = augment_case1(g)
    results = {run_pipeline(aug, k0)[0] for k0 in eligible_k0(aug)}
    assert len(results) == 1


@given(client_graphs(max_n1=4, max_n2=4))
def test_pipeline_runs_exactly_two_measurements(g):
    final, records = run_pipeline(augment_case2(g))
    assert len(records) == 2
    assert not final.supers()


def test_pipeline_cost_is_six_tau_applications(monkeypatch):
    import qlanroute.switching as switching

    calls = []
    original = switching.local_complement

    def counting(g, v):
        calls.append(v)
        return original(g, v)

    monkeypatch.setattr(switching, "local_complement", counting)
    for g in (client_graph(1, 1, [(1, 1)]), client_graph(4, 4, [(1, 2), (3, 4)])):
        calls.clear()
        run_pipeline(augment_case1(g))
        assert len(calls) == 6  # three per measurement, independent of size


def test_default_k0_is_lowest_index_eligible():
    g = client_graph(3, 2, [(2, 1)])
    assert default_k0(augment_case1(g)) == client(1, 1)
    assert default_k0(augment_case1(g, retain=[client(1, 1)])) == client(1, 2)


def test_run_rejects_ineligible_k0():
    g = client_graph(2, 2, [(1, 1)])
    aug = augment_case1(g, retain=[client(1, 2)])
    with pytest.raises(ValidationError, match="not eligible"):
        run_pipeline(aug, client(1, 2))  # retained
    with pytest.raises(ValidationError, match="not eligible"):
        run_pipeline(aug, client(2, 1))  # wrong QLAN for Case I


def test_retaining_entire_qlan_leaves_no_k0():
    g = client_graph(2, 2, [(1, 1)])
    aug = augment_case1(g, retain=[client(1, 1), client(1, 2)])
    with pytest.raises(ValidationError, match="no valid k0"):
        run_pipeline(aug)


# -- partial switch -----------------------------------------------------------


def test_partial_switch_2_plus_2_keeps_retained_links():
    # all original links touch 1.2, which is retained: they must survive,
    # while the non-retained pairs flip to their complement
    g = client_graph(2, 2, [(2, 1), (2, 2)])
    retained = client(1, 2)
    final, _ = run_pipeline(augment_case1(g, [retained]))
    assert final.has_edge(retained, client(2, 1))
    assert final.has_edge(retained, client(2, 2))
    assert final.has_edge(client(1, 1), client(2, 1))  # was remote, now adjacent
    assert final.has_edge(client(1, 1), client(2, 2))


@settings(max_examples=60)
@given(client_graphs(max_n1=3, max_n2=3), st.integers(min_value=0, max_value=10**6),
       st.booleans())
def test_partial_switch_complements_exactly_the_non_retained_pairs(g, pick, case_two):
    clients = list(g.clients())
    retained = clients[pick % len(clients)]
    build = augment_case2 if case_two else augment_case1
    aug = build(g, [retained])
    if not eligible_k0(aug):
        return  # 1-client QLAN fully retained: no pipeline possible
    final, _ = run_pipeline(aug)
    for a in g.clients(Qlan.Q1):
        for b in g.clients(Qlan.Q2):
            if retained in (a, b):
                # observed behavior, certified by the oracle suite: retained
                # clients keep their original adjacency
                assert final.has_edge(a, b) == g.has_edge(a, b)
            else:
                assert final.has_edge(a, b) != g.has_edge(a, b)


def test_partial_switch_with_one_retained_client_per_qlan():
    rng = random.Random(29)
    for _ in range(20):
        g = random_client_graph(rng, 3, 3)
        retained = {client(1, rng.randint(1, 3)), client(2, rng.randint(1, 3))}
        aug = augment_case1(g, retained)
        final, _ = run_pipeline(aug)
        ref = complement_graph(g)
        for a in g.clients(Qlan.Q1):
            for b in g.clients(Qlan.Q2):
                expect = g if (a in retained or b in retained) else ref
                assert final.has_edge(a, b) == expect.has_edge(a, b)


# -- records, replay, traces ---------------------------------------------------


def test_replay_reproduces_recorded_chain():
    g = random_client_graph(random.Random(3), 3, 3)
    aug = augment_case1(g)
    final, records = run_pipeline(aug)
    assert replay_records(aug.graph, records) == final


def test_replay_rejects_tampered_chain():
    g = client_graph(2, 2, [(1, 1)])
    aug = augment_case1(g)
    _, records = run_pipeline(aug)
    tampered = [records[1], records[0]]
    with pytest.raises(ValidationError, match="inconsistent"):
        replay_records(aug.graph, tampered)


def test_trace_export_shape():
    g = client_graph(2, 2, [(1, 2)])
    _, records = run_pipeline(augment_case1(g))
    trace = records_to_json(records)
    assert [t["step"] for t in trace] == [0, 1]
    assert trace[0]["measured"] == "s2" and trace[1]["measured"] == "s1"
    assert trace[0]["k0"] == trace[1]["k0"]
    assert set(trace[0]["pre"]) == {"vertices", "edges"}
    # the first pre graph is the augmented graph: clients plus both supers
    assert set(trace[0]["pre"]["vertices"]) == {"1.1", "1.2", "2.1", "2.2", "s1", "s2"}


# -- measurement-order experiments (observational, no contract) -----------------


def test_mirror_order_with_fixed_mirror_k0_also_switches():
    # experiment: measuring s1 first and then s2, keeping one QLAN 2 client
    # as k0 for both steps, mirrors the pipeline and lands on the complement
    rng = random.Random(11)
    for _ in range(20):
        g = random_client_graph(rng, 3, 3)
        aug = augment_case1(g)
        k0 = next(iter(c for c in aug.graph.clients(Qlan.Q2) if aug.graph.has_edge(c, aug.s1)))
        mid, _ = measure_x(aug.graph, aug.s1, k0)
        assert k0 in frozenset(neighbors(mid, aug.s2))
        final, _ = measure_x(mid, aug.s2, k0)
        assert final == complement_graph(g)


def test_distinct_k0_per_step_works_only_within_the_designated_qlan():
    # experiment: the second measurement may use a different special
    # neighbor than the first, as long as it comes from the same QLAN the
    # pipeline draws k0 from; neighbors from the other QLAN derail the switch
    rng = random.Random(13)
    same_side_deviations = 0
    cross_side_deviations = 0
    cross_side_total = 0
    for _ in range(25):
        g = random_client_graph(rng, 3, 3)
        aug = augment_case1(g)
        ref = complement_graph(g)
        k0a = next(c for c in aug.graph.clients(Qlan.Q1) if aug.graph.has_edge(c, aug.s2))
        mid, _ = measure_x(aug.graph, aug.s2, k0a)
        for k0b in (v for v in frozenset(neighbors(mid, aug.s1)) if not v.is_super):
            final, _ = measure_x(mid, aug.s1, k0b)
            if k0b.qlan is Qlan.Q1:
                same_side_deviations += final != ref
            else:
                cross_side_total += 1
                cross_side_deviations += final != ref
    assert same_side_deviations == 0
    assert cross_side_total > 0 and cross_side_deviations > 0

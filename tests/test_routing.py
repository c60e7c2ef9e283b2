"""Baseline routing model and strategy-comparison tests."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlanroute.errors import UnknownVertexError, ValidationError
from qlanroute.graph import client, client_graph, complement_graph, make_edge
from qlanroute.routing import (
    COMPLEMENT,
    TQR,
    ComparisonReport,
    PhysicalTopology,
    RequestSet,
    RoutingReport,
    compare,
    execute_complement,
    find_path,
    run_tqr,
)
from qlanroute.switching import AugmentationCase, AugmentedGraph, run_pipeline

from helpers import all_client_graphs, physical_topologies, random_client_graph, reference_path


def topo(nodes, links, qubits=None):
    return PhysicalTopology(frozenset(nodes), frozenset(links), qubits or {})


def line(*nodes, qubits=None):
    return topo(nodes, list(zip(nodes, nodes[1:])), qubits)


# -- pathfinding -----------------------------------------------------------


def test_find_path_three_node_line():
    t = line("v1", "v2", "v3")
    assert find_path(t, "v1", "v3") == ["v1", "v2", "v3"]


def test_find_path_adjacent_pair():
    t = line("a", "b")
    assert find_path(t, "a", "b") == ["a", "b"]


def test_find_path_disconnected_is_empty():
    t = topo(["a", "b"], [])
    assert find_path(t, "a", "b") == []


def test_find_path_prefers_lexicographically_smallest():
    # two shortest routes a-b-d and a-c-d: the b route wins
    t = topo(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert find_path(t, "a", "d") == ["a", "b", "d"]


@settings(max_examples=150)
@given(physical_topologies())
def test_find_path_matches_the_reference_bfs_on_every_pair(t):
    for src in t.nodes:
        for dst in t.nodes:
            assert find_path(t, src, dst) == reference_path(t, src, dst)


def test_find_path_breaks_ties_by_name_not_by_number():
    # n10 sorts before n9 as a string: the tie between a-n9-z and a-n10-z
    # goes to n10
    t = topo(["a", "n9", "n10", "z"], [("a", "n9"), ("a", "n10"), ("n9", "z"), ("n10", "z")])
    assert find_path(t, "a", "z") == ["a", "n10", "z"]


def test_find_path_unknown_node():
    with pytest.raises(UnknownVertexError):
        find_path(line("a", "b"), "a", "zz")


def test_topology_validation():
    with pytest.raises(ValidationError, match="self-loop"):
        topo(["a"], [("a", "a")])
    with pytest.raises(UnknownVertexError):
        topo(["a"], [("a", "b")])
    with pytest.raises(ValidationError, match="communication qubit"):
        topo(["a"], [], {"a": 0})


def test_topology_rejects_a_budget_for_a_node_it_does_not_have():
    with pytest.raises(UnknownVertexError, match="'zz' is not a network node"):
        topo(["a", "b"], [("a", "b")], {"zz": 0})


@pytest.mark.parametrize("budget", [2.9, 1.0, "3", True, None])
def test_topology_rejects_a_budget_that_is_not_an_int(budget):
    # the scenario parser's rule: an int, not a bool, >= 1; nothing is coerced
    with pytest.raises(ValidationError, match=f"node b's communication qubits must be an integer >= 1, got {budget!r}"):
        topo(["a", "b"], [("a", "b")], {"a": 2, "b": budget})


def test_topology_checks_a_self_loop_before_its_endpoints():
    # "zz" is no node, but the self-loop is the fault reported
    with pytest.raises(ValidationError, match="self-loop") as err:
        topo(["a"], [("zz", "zz")])
    assert not isinstance(err.value, UnknownVertexError)


@pytest.mark.parametrize("link", [("a", "q"), ("q", "a")])
def test_topology_names_the_unknown_link_endpoint(link):
    with pytest.raises(UnknownVertexError, match="link endpoint 'q' is not a network node"):
        topo(["a", "b"], [("a", "b"), link])


def test_topology_canonicalises_reversed_links_by_name():
    # "n10" sorts before "n9" as a string
    t = topo(["a", "b", "n9", "n10"], [("b", "a"), ("n9", "n10"), ("n10", "b")])
    assert t.links == frozenset({("a", "b"), ("n10", "n9"), ("b", "n10")})
    assert find_path(t, "a", "n9") == ["a", "b", "n10", "n9"]


# -- the reactive baseline ----------------------------------------------------


def test_tqr_single_request_on_a_line():
    report = run_tqr(line("v1", "v2", "v3"), RequestSet((("v1", "v3"),)))
    assert report.rounds == 1
    assert report.swap_count == 1
    assert report.served == (0,)
    assert report.comm_qubit_peak["v2"] == 2


def test_tqr_shared_repeaters_with_two_qubits_serialize():
    # two requests transiting the same pair of 2-qubit repeaters run
    # one per round
    t = topo(
        ["v1", "v2", "v3", "v4", "v5", "v6"],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v5", "v2"), ("v3", "v6")],
        {n: 2 for n in ["v1", "v2", "v3", "v4", "v5", "v6"]},
    )
    report = run_tqr(t, RequestSet((("v1", "v4"), ("v5", "v6"))))
    assert report.rounds == 2
    assert sorted(report.served) == [0, 1]
    assert report.swap_count == 4


def test_tqr_disjoint_requests_with_ample_qubits_run_in_one_round():
    nodes = ["a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3"]
    links = [("a1", "a2"), ("a2", "a3"), ("b1", "b2"), ("b2", "b3"), ("c1", "c2"), ("c2", "c3")]
    t = topo(nodes, links, {n: 4 for n in nodes})
    report = run_tqr(t, RequestSet((("a1", "a3"), ("b1", "b3"), ("c1", "c3"))))
    assert report.rounds == 1
    assert len(report.served) == 3


def test_tqr_one_qubit_hub_serializes_contending_requests():
    # star around h: every path transits h, one per round on minimum hardware
    leaves = ["n1", "n2", "n3", "n4", "n5", "n6"]
    t = topo(leaves + ["h"], [(n, "h") for n in leaves])
    reqs = RequestSet((("n1", "n2"), ("n3", "n4"), ("n5", "n6")))
    report = run_tqr(t, reqs)
    assert report.rounds == 3
    assert sorted(report.served) == [0, 1, 2]
    assert report.comm_qubit_peak["h"] == 2  # time-shared demand exceeded capacity


def test_tqr_records_disconnected_requests():
    t = topo(["a", "b", "c"], [("a", "b")])
    report = run_tqr(t, RequestSet((("a", "c"), ("a", "b"))))
    assert report.failed == ((0, "disconnected"),)
    assert report.served == (1,)
    assert report.rounds == 1


def test_tqr_accounts_every_request_exactly_once():
    rng = random.Random(9)
    nodes = [f"n{i}" for i in range(8)]
    for _ in range(20):
        links = {(a, b) for a in nodes for b in nodes if a < b and rng.random() < 0.3}
        t = topo(nodes, links)
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        reqs = RequestSet(tuple(rng.sample(pairs, 5)))
        report = run_tqr(t, reqs)
        seen = sorted(report.served) + sorted(i for i, _ in report.failed)
        assert sorted(seen) == list(range(5))


def ref_tqr(t: PhysicalTopology, reqs: RequestSet):
    """The README's baseline rules, admission written out node by node.

    Greedy in input order, one batch per round; a path claims 1 qubit at
    each endpoint and 2 at each transit; a 1-qubit repeater still carries
    one transit alone (time-sharing); each served path costs length - 2 swaps.
    Paths come from the reference BFS, not from the package.
    """
    paths = [reference_path(t, s, d) for (s, d) in reqs]
    failed = tuple((i, "disconnected") for i, p in enumerate(paths) if not p)
    waiting = [i for i, p in enumerate(paths) if p]
    rounds, swaps, served = 0, 0, []
    peak = {n: 0 for n in t.nodes}
    while waiting:
        rounds += 1
        load = {n: 0 for n in t.nodes}
        batch = []
        for i in waiting:
            path = paths[i]
            claim = {path[0]: 1, path[-1]: 1}
            claim.update((n, 2) for n in path[1:-1])
            fits = True
            for n, q in claim.items():
                budget = t.comm_qubits[n]
                alone_on_one_qubit = budget == 1 and q == 2 and load[n] == 0
                if load[n] + q > budget and not alone_on_one_qubit:
                    fits = False
            if fits:
                for n, q in claim.items():
                    load[n] += q
                batch.append(i)
                swaps += len(path) - 2
        assert batch, "the time-sharing rule always admits the first waiting request"
        for n in t.nodes:
            peak[n] = max(peak[n], load[n])
        served += batch
        waiting = [i for i in waiting if i not in batch]
    return rounds, tuple(served), failed, swaps, peak


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tqr_admission_matches_the_readme_rules_on_mixed_budgets(seed):
    # up to 40 requests on up to 14 nodes: first-fit spans many rounds, and
    # 2- and 3-qubit nodes take the exact rule past the full-round masks
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(3, 14))]
    p = rng.choice([0.2, 0.35, 0.5])
    links = {(a, b) for a in nodes for b in nodes if a < b and rng.random() < p}
    t = topo(nodes, links, {n: rng.choice([1, 2, 3]) for n in nodes})
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    reqs = RequestSet(tuple(rng.choice(pairs) for _ in range(rng.randint(1, 40))))
    report = run_tqr(t, reqs)
    rounds, served, failed, swaps, peak = ref_tqr(t, reqs)
    assert report.rounds == rounds
    assert report.served == served
    assert report.failed == failed
    assert report.swap_count == swaps
    assert dict(report.comm_qubit_peak) == peak


@pytest.mark.parametrize("seed", range(4))
def test_tqr_matches_the_readme_rules_past_64_rounds_on_64_nodes(seed):
    # 600 requests on a sparse 56-node component and an 8-node island: the
    # round masks outgrow 64 bits, and every cross-island request fails
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(64)]
    links = set()
    for part in (nodes[:56], nodes[56:]):
        order = part[:]
        rng.shuffle(order)
        links |= {tuple(sorted(p)) for p in zip(order, order[1:])}
        links |= {(a, b) for a in part for b in part if a < b and rng.random() < 0.02}
    t = topo(nodes, links, {n: rng.choice([1, 1, 2, 3]) for n in nodes})
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    reqs = RequestSet(tuple(rng.choice(pairs) for _ in range(600)))
    report = run_tqr(t, reqs)
    rounds, served, failed, swaps, peak = ref_tqr(t, reqs)
    assert report.rounds == rounds > 64
    assert report.served == served
    assert report.failed == failed and failed
    assert report.swap_count == swaps
    assert dict(report.comm_qubit_peak) == peak


def test_request_set_rejects_loopback():
    with pytest.raises(ValidationError):
        RequestSet((("a", "a"),))


def test_request_set_rejects_numeric_names():
    # the number 1.10 would read as client "1.1"
    with pytest.raises(ValidationError, match=r"request 1 must hold two name strings, got \(1.1, '2.1'\)"):
        RequestSet((("1.2", "2.1"), (1.10, "2.1")))


# -- the proactive strategy ------------------------------------------------------


def test_complement_strategy_serves_all_complement_pairs_at_constant_cost():
    g = client_graph(3, 4, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 3)])
    comp = complement_graph(g)
    reqs = RequestSet(tuple((u.name, v.name) for (u, v) in sorted(
        ((u, v) for (u, v) in comp.edges), key=lambda e: (e[0].name, e[1].name))))
    report = execute_complement(g, reqs)
    assert report.strategy == COMPLEMENT
    assert report.rounds == 1
    assert report.measurement_count == 2
    assert report.swap_count == 0
    assert len(report.served) == len(reqs)
    assert report.failed == ()


def test_complement_strategy_serves_already_adjacent_pairs_at_zero_cost():
    g = client_graph(2, 2, [(1, 1)])
    report = execute_complement(g, RequestSet((("1.1", "2.1"), ("1.1", "2.2"))))
    assert sorted(report.served) == [0, 1]


def test_complement_strategy_empty_requests_still_runs_the_pipeline():
    g = client_graph(2, 2, [(1, 1)])
    report = execute_complement(g, RequestSet(()))
    assert report.rounds == 1 and report.measurement_count == 2
    skipped = execute_complement(g, RequestSet(()), run_when_empty=False)
    assert skipped.rounds == 0 and skipped.measurement_count == 0


def test_complement_strategy_rejects_unknown_endpoints():
    g = client_graph(2, 2)
    with pytest.raises(UnknownVertexError):
        execute_complement(g, RequestSet((("1.1", "2.9"),)))


def test_complement_strategy_fails_retained_remote_pairs():
    # (1.2, 2.2) was remote and 1.2 is retained: the switch cannot serve it
    g = client_graph(2, 2, [(2, 1)])
    report = execute_complement(g, RequestSet((("1.2", "2.2"), ("1.1", "2.2"))),
                                retain=[client(1, 2)])
    assert report.failed == ((0, "not a complement pair"),)
    assert report.served == (1,)


def test_complement_strategy_exhaustive_3_plus_3():
    for g in all_client_graphs(3, 3):
        comp_edges = complement_graph(g).edges
        if not comp_edges:
            continue
        reqs = RequestSet(tuple(sorted((u.name, v.name) for (u, v) in comp_edges)))
        report = execute_complement(g, reqs)
        assert len(report.served) == len(reqs) and not report.failed
        assert report.measurement_count == 2 and report.rounds == 1


def test_complement_served_set_matches_complement_edges_exactly():
    rng = random.Random(31)
    for _ in range(15):
        g = random_client_graph(rng, 3, 4)
        comp = complement_graph(g)
        pairs = [(a.name, b.name) for a in g.clients() if a.qlan.value == 1
                 for b in g.clients() if b.qlan.value == 2]
        reqs = RequestSet(tuple(pairs))
        report = execute_complement(g, reqs)
        for idx, (s, d) in enumerate(reqs):
            pair = make_edge(
                next(v for v in g.clients() if v.name == s),
                next(v for v in g.clients() if v.name == d),
            )
            should_serve = pair in comp.edges or pair in g.edges
            assert (idx in report.served) == should_serve


@pytest.mark.parametrize("case", [AugmentationCase.CASE_I, AugmentationCase.CASE_II])
@pytest.mark.parametrize("retain_count", [0, 2])
def test_served_rule_matches_name_level_adjacency(case, retain_count):
    # every client pair is requested, the pairs already adjacent in g among them
    rng = random.Random(47 + retain_count + 10 * (case is AugmentationCase.CASE_II))
    for _ in range(10):
        g = random_client_graph(rng, 4, 5)
        names = {v.name: v for v in g.order}
        reqs = RequestSet(tuple((a, b) for a in names for b in names if a < b))
        retain = rng.sample(list(g.order), retain_count)
        report = execute_complement(g, reqs, case=case, retain=retain)
        final, _ = run_pipeline(AugmentedGraph(g, case, retain))
        rule = [g.has_edge(names[s], names[d]) or final.has_edge(names[s], names[d])
                for s, d in reqs]
        assert any(g.has_edge(names[s], names[d]) for s, d in reqs)
        assert report.served == tuple(i for i, ok in enumerate(rule) if ok)
        assert report.failed == tuple((i, "not a complement pair")
                                      for i, ok in enumerate(rule) if not ok)


# -- comparison ---------------------------------------------------------------


def _fig1_like():
    g = client_graph(2, 2, [(1, 2), (2, 1)])
    t = topo(
        ["1.1", "1.2", "2.1", "2.2"],
        [("1.1", "1.2"), ("1.2", "2.1"), ("2.1", "2.2")],
    )
    reqs = RequestSet((("1.1", "2.1"), ("1.2", "2.2")))
    return t, g, reqs


def test_compare_serves_both_requests_in_one_round_where_tqr_needs_two():
    t, g, reqs = _fig1_like()
    report = compare(t, g, reqs)
    assert report.complement.rounds == 1
    assert report.tqr.rounds >= 2
    assert sorted(report.complement.served) == [0, 1]
    assert sorted(report.tqr.served) == [0, 1]
    assert report.rounds_ratio >= 2


def test_compare_single_adjacent_pair_is_one_round_for_both():
    g = client_graph(1, 1, [(1, 1)])
    t = topo(["1.1", "2.1"], [("1.1", "2.1")])
    report = compare(t, g, RequestSet((("1.1", "2.1"),)))
    assert report.tqr.rounds == 1 and report.complement.rounds == 1
    assert not report.tqr.failed and not report.complement.failed


def test_compare_rejects_mismatched_node_sets():
    _, g, reqs = _fig1_like()
    bad = topo(["1.1", "1.2", "2.1"], [("1.1", "1.2")])
    with pytest.raises(ValidationError, match="mismatch"):
        compare(bad, g, reqs)


def test_compare_axes_table_reports_measured_tools():
    t, g, reqs = _fig1_like()
    report = compare(t, g, reqs)
    axes = {a["axis"]: a for a in report.axes}
    assert axes["entanglement_distribution"] == {
        "axis": "entanglement_distribution", "tqr": "reactive", "complement": "proactive",
    }
    assert "2 measurements" in axes["key_tool"]["complement"]
    assert f"{report.tqr.swap_count} swaps" in axes["key_tool"]["tqr"]


def _report(strategy, rounds, swaps=0, measurements=0):
    return RoutingReport(strategy, rounds, swaps, measurements, (), (), {})


def test_a_comparison_report_is_its_two_reports():
    assert [f.name for f in dataclasses.fields(ComparisonReport)] == ["tqr", "complement"]
    with pytest.raises(TypeError):
        ComparisonReport(_report(TQR, 3), _report(COMPLEMENT, 1), 99.0, ())
    report = ComparisonReport(_report(TQR, 3, swaps=4), _report(COMPLEMENT, 1, measurements=2))
    assert report.rounds_ratio == 3.0
    key_tool = report.axes[-1]
    assert key_tool["tqr"] == "entanglement swapping (4 swaps)"
    assert key_tool["complement"] == "Pauli-X measurement (2 measurements)"
    assert ComparisonReport(_report(TQR, 3), _report(COMPLEMENT, 0)).rounds_ratio is None


def test_compare_hub_scenarios_serialize_by_request_count():
    # all paths transit the hub 1.1; k repeater-sharing requests need k rounds
    # under single-qubit hardware while the switch stays at one round
    rng = random.Random(8)
    for _ in range(10):
        g = random_client_graph(rng, 3, 4, p=0.4)
        comp = complement_graph(g)
        avoid_hub = [
            (u.name, v.name) for (u, v) in comp.edges if "1.1" not in (u.name, v.name)
        ]
        if len(avoid_hub) < 2:
            continue
        k = rng.randint(2, len(avoid_hub))
        reqs = RequestSet(tuple(sorted(avoid_hub)[:k]))
        names = [v.name for v in g.clients()]
        hub_topo = topo(names, [(n, "1.1") for n in names if n != "1.1"])
        report = compare(hub_topo, g, reqs)
        assert report.tqr.rounds >= k
        assert report.complement.rounds == 1
        assert len(report.complement.served) == k


def test_reports_serialize_to_plain_json_types():
    t, g, reqs = _fig1_like()
    data = compare(t, g, reqs).to_json()
    assert data["tqr"]["strategy"] == TQR
    assert data["complement"]["measurement_count"] == 2
    assert isinstance(data["rounds_ratio"], float)
    assert {a["axis"] for a in data["axes"]} == {
        "key_operation", "entanglement_resource", "entanglement_distribution", "key_tool",
    }

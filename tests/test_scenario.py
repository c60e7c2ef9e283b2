"""Scenario parsing, validation and generation tests."""

from __future__ import annotations

import json

import pytest

from qlanroute.errors import ValidationError
from qlanroute.graph import client, complement_graph
from qlanroute.scenario import (
    Scenario,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    parse_scenario,
    random_scenario,
    retained_vertices,
    scenario_graph,
    scenario_requests,
    scenario_topology,
)

from helpers import complement_pairs_of

GOOD = {
    "name": "demo",
    "qlan1": 2,
    "qlan2": 2,
    "inter_links": [["1.1", "2.2"]],
    "physical_links": [["1.1", "1.2"], ["1.2", "2.1"], ["2.1", "2.2"]],
    "comm_qubits": {"1.2": 3},
    "requests": [["1.1", "2.1"]],
    "retain": ["2.2"],
    "case": "II",
    "seed": 5,
}


def test_parse_good_scenario():
    sc = parse_scenario(dict(GOOD))
    assert (sc.n1, sc.n2, sc.case, sc.seed) == (2, 2, "II", 5)
    assert sc.inter_links == (("1.1", "2.2"),)
    assert sc.retain == ("2.2",)


@pytest.mark.parametrize(
    "patch, needle",
    [
        ({"qlan1": -1}, "qlan1"),
        ({"qlan1": "two"}, "qlan1"),
        ({"case": "III"}, "case"),
        ({"bogus": 1}, "bogus"),
        ({"inter_links": [["1.1"]]}, "inter_links[0]"),
        ({"inter_links": [["1.1", "1.2"]]}, "inside one QLAN"),
        ({"inter_links": [["1.1", "2.9"]]}, "unknown client"),
        ({"physical_links": [["1.1", "9.9"]]}, "unknown client"),
        ({"requests": [["2.1", "1.1"]]}, "QLAN 1 source"),
        ({"requests": [["1.1", "2.7"]]}, "requests[0]"),
        ({"retain": ["3.1"]}, "retain"),
        ({"comm_qubits": {"1.1": 0}}, "comm_qubits"),
        ({"comm_qubits": {"7.7": 1}}, "unknown node"),
        ({"seed": "x"}, "seed"),
        ({"run_when_empty": "yes"}, "run_when_empty"),
    ],
)
def test_parse_rejects_bad_fields(patch, needle):
    data = dict(GOOD)
    data.update(patch)
    with pytest.raises(ValidationError, match=needle.replace("[", "\\[").replace("]", "\\]")):
        parse_scenario(data)


def test_load_scenario_reports_json_line_context(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "qlan1": 2,\n  "qlan2": oops\n}\n')
    with pytest.raises(ValidationError, match="line 3"):
        load_scenario(bad)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")


def test_scenario_round_trip(tmp_path):
    sc = parse_scenario(dict(GOOD))
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(sc.to_json()))
    assert load_scenario(path) == sc


def test_builders_produce_consistent_objects():
    sc = parse_scenario(dict(GOOD))
    g = scenario_graph(sc)
    assert (g.n1, g.n2) == (2, 2)
    assert g.has_edge(client(1, 1), client(2, 2))
    t = scenario_topology(sc)
    assert t.comm_qubits["1.2"] == 3
    assert t.comm_qubits["1.1"] == 1  # defaulted
    reqs = scenario_requests(sc)
    assert list(reqs) == [("1.1", "2.1")]
    assert retained_vertices(sc) == (client(2, 2),)


def test_complement_pairs_listing():
    sc = Scenario(n1=2, n2=2, inter_links=(("1.1", "2.1"),))
    comp = complement_pairs_of(sc)
    assert comp == (("1.1", "2.2"), ("1.2", "2.1"), ("1.2", "2.2"))
    g = scenario_graph(sc)
    assert len(comp) == len(complement_graph(g).edges)


@pytest.mark.parametrize(
    "link",
    [("1.1", "1.2"), ("2.1", "2.2"), ("1.3", "2.1"), ("1.1", "2.3"), ("s1", "2.1")],
)
def test_scenario_graph_rejects_an_inter_link_that_does_not_join_both_qlans(link):
    # a hand-built Scenario skips parse_scenario's name checks
    sc = Scenario(n1=2, n2=2, inter_links=(link,))
    with pytest.raises(ValidationError, match="does not join"):
        scenario_graph(sc)


def test_random_scenario_is_seed_deterministic():
    a = random_scenario(123)
    b = random_scenario(123)
    c = random_scenario(124)
    assert a == b
    assert a != c
    assert a.seed == 123


@pytest.mark.parametrize("n1,n2", [(0, 3), (3, 0), (-1, 4), (4, -1), (1, 1)])
def test_random_scenario_rejects_sizes_without_an_inter_link_and_a_complement_pair(n1, n2):
    with pytest.raises(ValidationError, match="n1 \\* n2 >= 2"):
        random_scenario(7, n1=n1, n2=n2)


def test_random_scenario_is_well_formed():
    for seed, (n1, n2) in enumerate([(3, 4)] * 20 + [(1, 2), (2, 1)] * 10):
        sc = random_scenario(seed, n1=n1, n2=n2)
        parse_scenario(sc.to_json())  # revalidates every field
        assert len(sc.inter_links) >= 1
        assert 1 <= len(sc.requests) <= n1 * n2 - len(sc.inter_links)
        assert complement_pairs_of(sc)  # never fully connected
        # requests are complement pairs by construction
        assert set(sc.requests) <= set(complement_pairs_of(sc))
        # physical topology is connected: every request routes
        from qlanroute.routing import find_path

        t = scenario_topology(sc)
        for (s, d) in sc.requests:
            assert find_path(t, s, d)


def test_bundled_scenarios_load_and_validate():
    names = bundled_scenario_names()
    assert {"fig1", "fig2", "exhaustive_small"} <= set(names)
    for name in names:
        sc = load_bundled_scenario(name)
        assert sc.n1 >= 1 and sc.n2 >= 1


def test_bundled_fig1_requests_are_complement_pairs():
    sc = load_bundled_scenario("fig1")
    assert set(sc.requests) == set(complement_pairs_of(sc))
    assert all(q == 1 for q in scenario_topology(sc).comm_qubits.values())


def test_unknown_bundled_scenario():
    with pytest.raises(ValidationError, match="no bundled scenario"):
        load_bundled_scenario("fig99")

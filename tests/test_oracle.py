"""State-vector oracle tests: preparation, projection, corrections, verification."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings

from qlanroute.errors import (
    CapacityError,
    InternalAssertionError,
    UnknownVertexError,
    ValidationError,
)
from qlanroute.graph import (
    InterQlanGraph,
    client,
    client_graph,
    complement_graph,
    make_edge,
    super_node,
    vertex_sort_key,
)
from qlanroute import oracle
from qlanroute.oracle import (
    QuantumState,
    apply_x_corrections,
    describe_corrections,
    fidelity,
    prepare_graph_state,
    project_x,
    verify_pipeline,
    x_correction_ops,
)
from qlanroute.switching import (
    augment_case1,
    augment_case2,
    measure_x,
    run_pipeline,
)

from helpers import plain_graphs, random_client_graph, random_plain_graph, stabilizer_expectation

INV_SQRT2 = 1 / np.sqrt(2)


# -- preparation ----------------------------------------------------------


def test_prepare_single_vertex_is_plus_state():
    g = InterQlanGraph(frozenset({client(1, 1)}), frozenset())
    state = prepare_graph_state(g)
    assert np.allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_prepare_two_vertex_edge_hand_amplitudes():
    g = client_graph(1, 1, [(1, 1)])
    state = prepare_graph_state(g)
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_prepare_orders_clients_then_supers():
    base = client_graph(2, 1, [(1, 1)])
    g = InterQlanGraph(frozenset(base.order) | {super_node(2)}, base.edges)
    state = prepare_graph_state(g)
    assert [v.name for v in state.qubit_order] == ["1.1", "1.2", "2.1", "s2"]


def test_prepare_respects_capacity_bound():
    with pytest.raises(CapacityError, match="14"):
        prepare_graph_state(client_graph(8, 7))


def test_prepare_satisfies_all_stabilizer_generators():
    rng = random.Random(21)
    for _ in range(10):
        g = random_plain_graph(rng, max_vertices=8)
        state = prepare_graph_state(g)
        for v in frozenset(g.order):
            assert stabilizer_expectation(state, g, v) == pytest.approx(1.0, abs=1e-10)


def test_stabilizer_expectation_detects_wrong_graph():
    g = client_graph(1, 1, [(1, 1)])
    wrong = client_graph(1, 1)
    state = prepare_graph_state(wrong)
    assert stabilizer_expectation(state, g, client(1, 1)) != pytest.approx(1.0, abs=1e-3)


# -- projection -------------------------------------------------------------


def test_project_plus_on_edge_state_gives_plus_after_correction():
    # hand computation on the 4 amplitudes: projecting X=+1 on qubit 1.1 of
    # the CZ|++> state leaves |0> on 2.1; the byproduct rotation turns it
    # into |+>, the graph state of the single remaining vertex
    g = client_graph(1, 1, [(1, 1)])
    state = prepare_graph_state(g)
    reduced = project_x(state, client(1, 1), +1)
    assert np.allclose(reduced.amplitudes, [1.0, 0.0])
    corrected = apply_x_corrections(reduced, x_correction_ops(g, client(1, 1), client(2, 1), +1))
    assert np.allclose(corrected.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_projection_branches_have_equal_weight():
    # independent 4-amplitude computation of the pre-renormalization norms
    g = client_graph(1, 1, [(1, 1)])
    psi = prepare_graph_state(g).amplitudes.reshape(2, 2)
    flipped = psi[::-1, :]  # X on qubit 0
    for sign in (+1, -1):
        branch = (psi + sign * flipped) / 2
        assert np.linalg.norm(branch) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_project_removes_the_measured_qubit():
    g = client_graph(2, 2, [(1, 1), (2, 2)])
    state = prepare_graph_state(g)
    reduced = project_x(state, client(1, 2), -1)
    assert reduced.n == 3
    assert client(1, 2) not in reduced.qubit_order


def test_project_forced_minus_on_isolated_vertex_is_internal_error():
    g = client_graph(1, 1)
    state = prepare_graph_state(g)
    with pytest.raises(InternalAssertionError, match="zero norm"):
        project_x(state, client(1, 1), -1)


def test_project_rejects_an_outcome_other_than_plus_or_minus_one():
    state = prepare_graph_state(client_graph(1, 1, [(1, 1)]))
    with pytest.raises(ValidationError, match="must be \\+1 or -1"):
        project_x(state, client(1, 1), 0)


def test_post_measurement_marginals_are_stabilizer_like():
    # every single-qubit reduced density matrix of the post-measurement
    # state must have eigenvalues in {0, 1/2, 1}
    rng = random.Random(3)
    for _ in range(6):
        g = random_plain_graph(rng, max_vertices=8, p=0.5)
        vs = [v for v in frozenset(g.order) if len([e for e in g.edges if v in e]) > 0]
        if not vs:
            continue
        state = prepare_graph_state(g)
        reduced = project_x(state, vs[0], +1)
        t = reduced.tensor()
        for axis in range(reduced.n):
            mat = np.moveaxis(t, axis, 0).reshape(2, -1)
            rho = mat @ mat.conj().T
            for ev in np.linalg.eigvalsh(rho):
                assert min(abs(ev), abs(ev - 0.5), abs(ev - 1.0)) < 1e-9


# -- corrections: the module's central sweep -----------------------------------


def test_corrected_state_matches_graph_rule_for_both_outcomes():
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        g = random_plain_graph(rng, max_vertices=10, p=0.45)
        candidates = [v for v in frozenset(g.order) if any(v in e for e in g.edges)]
        if not candidates:
            continue
        a = rng.choice(sorted(candidates, key=lambda v: v.name))
        nbrs = sorted({x for e in g.edges if a in e for x in e if x != a}, key=lambda v: v.name)
        k0 = rng.choice(nbrs)
        rule_graph, _ = measure_x(g, a, k0)
        target = prepare_graph_state(rule_graph)
        for outcome in (+1, -1):
            state = prepare_graph_state(g)
            reduced = project_x(state, a, outcome)
            corrected = apply_x_corrections(reduced, x_correction_ops(g, a, k0, outcome))
            assert fidelity(corrected, target) == pytest.approx(1.0, abs=1e-9)
            checked += 1


def ref_correction_ops(g, a, k0, outcome):
    """The byproduct table evaluated on neighbor sets scanned from the edge list."""
    def nbrs(v):
        return {x for e in g.edges if v in e for x in e if x != v}

    if outcome == +1:
        targets, rotation = nbrs(a) - nbrs(k0) - {k0}, "ry-"
    else:
        targets, rotation = nbrs(k0) - nbrs(a) - {a}, "ry+"
    return [("z", b) for b in sorted(targets, key=vertex_sort_key)] + [(rotation, k0)]


@settings(max_examples=100)
@given(plain_graphs())
def test_correction_ops_match_the_set_reference(g):
    for a in g.order:
        for k0 in g.order:
            if k0 != a and g.has_edge(a, k0):
                for outcome in (+1, -1):
                    assert x_correction_ops(g, a, k0, outcome) == ref_correction_ops(g, a, k0, outcome)


def test_correction_rejects_non_neighbor_k0():
    g = client_graph(2, 1, [(1, 1)])
    state = prepare_graph_state(g)
    reduced = project_x(state, client(1, 1), +1)
    with pytest.raises(ValidationError, match="adjacent"):
        apply_x_corrections(reduced, x_correction_ops(g, client(1, 1), client(1, 2), +1))


# -- fidelity ------------------------------------------------------------------


def test_fidelity_of_identical_states_is_one():
    g = client_graph(2, 2, [(1, 2)])
    s = prepare_graph_state(g)
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_basis_states():
    order = (client(1, 1),)
    zero = QuantumState(np.array([1, 0], dtype=complex), order)
    one = QuantumState(np.array([0, 1], dtype=complex), order)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_plus_versus_zero():
    order = (client(1, 1),)
    plus = QuantumState(np.array([INV_SQRT2, INV_SQRT2]), order)
    zero = QuantumState(np.array([1, 0], dtype=complex), order)
    assert fidelity(plus, zero) == pytest.approx(0.7071067811865476, abs=1e-12)


def test_fidelity_aligns_permuted_qubit_orders():
    g = client_graph(1, 1, [(1, 1)])
    a = prepare_graph_state(g)
    flipped_order = (a.qubit_order[1], a.qubit_order[0])
    b = QuantumState(a.tensor().transpose(1, 0).reshape(-1), flipped_order)
    assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_rejects_mismatched_states():
    a = prepare_graph_state(client_graph(1, 1))
    b = prepare_graph_state(client_graph(1, 2))
    with pytest.raises(ValidationError, match="dimension"):
        fidelity(a, b)
    c = prepare_graph_state(client_graph(2, 0))
    with pytest.raises(ValidationError, match="vertex sets"):
        fidelity(a, c)


def test_quantum_state_validates_norm_and_order():
    with pytest.raises(ValidationError, match="norm"):
        QuantumState(np.array([1.0, 1.0]), (client(1, 1),))
    with pytest.raises(ValidationError, match="length"):
        QuantumState(np.array([1.0, 0, 0]), (client(1, 1),))
    with pytest.raises(UnknownVertexError):
        prepare_graph_state(client_graph(1, 1)).qubit_index(client(2, 9))


# -- pipeline verification -------------------------------------------------------


def test_verify_single_link_case1_all_four_branches():
    g = client_graph(1, 1, [(1, 1)])
    aug = augment_case1(g)
    final, records = run_pipeline(aug)
    report = verify_pipeline(aug.graph, records, final)
    assert report.passed
    assert len(report.branches) == 4
    assert report.min_fidelity == pytest.approx(1.0, abs=1e-9)
    assert {b.outcome_string for b in report.branches} == {"++", "+-", "-+", "--"}


def test_verify_case2_edgeless_2_plus_2_against_complete_bipartite():
    g = client_graph(2, 2)
    aug = augment_case2(g)
    final, records = run_pipeline(aug)
    assert final == complement_graph(g)
    report = verify_pipeline(aug.graph, records, final)
    assert report.passed and report.min_fidelity == pytest.approx(1.0, abs=1e-9)


def test_verify_flags_corrupted_claim():
    g = client_graph(2, 2, [(1, 1)])
    aug = augment_case1(g)
    final, records = run_pipeline(aug)
    toggled = make_edge(client(1, 1), client(2, 1))
    edges = set(final.edges) ^ {toggled}
    corrupted = InterQlanGraph(frozenset(final.order), frozenset(edges))
    report = verify_pipeline(aug.graph, records, corrupted)
    assert not report.passed
    # graph states one edge apart overlap at exactly 1/2
    assert report.max_fidelity <= 0.5 + 1e-9


def test_verify_accepts_forced_branch_subset():
    g = client_graph(1, 1, [(1, 1)])
    aug = augment_case1(g)
    final, records = run_pipeline(aug)
    report = verify_pipeline(aug.graph, records, final, branches=[(+1, -1)])
    assert report.passed and len(report.branches) == 1
    assert report.branches[0].outcome_string == "+-"


@pytest.mark.parametrize("augment", [augment_case1, augment_case2])
def test_verify_branches_are_independent_of_each_other(augment):
    # every branch starts from one shared input state: a branch run alone
    # must match the same branch of the full run, and reruns must agree
    g = random_client_graph(random.Random(5), 3, 3)
    aug = augment(g)
    final, records = run_pipeline(aug)
    full = verify_pipeline(aug.graph, records, final)
    assert len(full.branches) == 4
    for b in full.branches:
        alone = verify_pipeline(aug.graph, records, final, branches=[b.outcomes]).branches[0]
        assert (alone.outcomes, alone.fidelity, alone.corrections) == (b.outcomes, b.fidelity, b.corrections)
    again = verify_pipeline(aug.graph, records, final)
    assert again.to_json(normalize=True) == full.to_json(normalize=True)


def test_verify_evaluates_each_byproduct_once(monkeypatch):
    # one evaluation per (measurement, outcome) feeds both the branch note
    # and the corrections: 4 on a two-measurement verify, not one per use
    g = random_client_graph(random.Random(5), 3, 3)
    aug = augment_case1(g)
    final, records = run_pipeline(aug)
    calls = []

    def counted(*args):
        calls.append(args)
        return x_correction_ops(*args)

    monkeypatch.setattr(oracle, "x_correction_ops", counted)
    report = verify_pipeline(aug.graph, records, final)
    assert len(calls) == 4
    assert report.passed and len(report.branches) == 4
    for b in report.branches:
        assert b.corrections == tuple(
            f"{r.measured_vertex.name}:{s:+d} -> " + describe_corrections(
                x_correction_ops(r.pre_graph, r.measured_vertex, r.special_neighbor, s))
            for r, s in zip(records, b.outcomes)
        )


def test_verify_rejects_inconsistent_records():
    g = client_graph(2, 2, [(1, 2)])
    aug = augment_case1(g)
    final, records = run_pipeline(aug)
    with pytest.raises(ValidationError, match="inconsistent"):
        verify_pipeline(aug.graph, list(reversed(records)), final)


def test_verify_rejects_oversized_graphs():
    g = client_graph(7, 6)
    aug = augment_case1(g)  # 15 vertices with the supers
    final, records = run_pipeline(aug)
    with pytest.raises(CapacityError):
        verify_pipeline(aug.graph, records, final)


def test_verify_report_serialization_shape():
    g = client_graph(1, 1, [(1, 1)])
    aug = augment_case1(g)
    final, records = run_pipeline(aug)
    report = verify_pipeline(aug.graph, records, final)
    data = report.to_json()
    assert data["passed"] is True
    assert len(data["branches"]) == 4
    assert {"outcomes", "fidelity", "passed", "corrections"} <= set(data["branches"][0])
    # one correction note per measurement, each ending in the Y rotation on k0
    for b in data["branches"]:
        assert len(b["corrections"]) == 2
        assert all("Y) on 1.1" in note for note in b["corrections"])
    assert isinstance(data["wall_time_s"], float)
    assert report.to_json(normalize=True)["wall_time_s"] is None


def test_canonical_order_is_stable():
    g = client_graph(2, 2)
    aug = augment_case1(g)
    order = prepare_graph_state(aug.graph).qubit_order
    assert [v.name for v in order] == ["1.1", "1.2", "2.1", "2.2", "s1", "s2"]

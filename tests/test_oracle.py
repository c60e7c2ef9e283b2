"""State-vector oracle tests: preparation, projection, corrections, verification."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import random
import typing
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    FIDELITY_TOL,
    BranchResult,
    QuantumState,
    VerificationReport,
    apply_x_corrections,
    describe_corrections,
    fidelity,
    prepare_graph_state,
    project_x,
    verify_pipeline,
    x_correction_ops,
)
from qlanroute.switching import (
    MeasurementRecord,
    augment_case1,
    augment_case2,
    eligible_k0,
    measure_x,
    run_pipeline,
)

from helpers import (
    client_graphs,
    plain_graphs,
    random_client_graph,
    random_plain_graph,
    random_states,
    reference_apply_x_corrections,
    reference_prepare_graph_state,
    reference_project_x,
    stabilizer_expectation,
    tensor,
)

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


def test_sign_tables_are_built_once_per_size_and_shared_read_only():
    parity_sign, index = oracle._sign_tables(9)
    assert oracle._sign_tables(9)[0] is parity_sign and oracle._sign_tables(9)[1] is index
    assert parity_sign.tolist() == [(-1) ** bin(x).count("1") for x in range(256)]
    assert index.tolist() == list(range(256))
    with pytest.raises(ValueError):
        parity_sign[0] = 0.0


@settings(max_examples=150)
@given(st.one_of(plain_graphs(max_vertices=14), client_graphs(max_n1=7, max_n2=7)))
def test_prepare_matches_the_per_edge_reference_exactly(g):
    state = prepare_graph_state(g)
    assert state.qubit_order == g.order
    assert np.array_equal(state.amplitudes, reference_prepare_graph_state(g).amplitudes)


# -- projection -------------------------------------------------------------


@settings(max_examples=150)
@given(random_states())
def test_project_matches_the_flip_reference_on_every_axis(state):
    for v in state.qubit_order:
        for outcome in (+1, -1):
            got, ref = project_x(state, v, outcome), reference_project_x(state, v, outcome)
            assert got.qubit_order == ref.qubit_order
            assert np.allclose(got.amplitudes, ref.amplitudes, rtol=0, atol=1e-12)


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
        t = tensor(reduced)
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


@settings(max_examples=150)
@given(random_states(), st.data())
def test_corrections_match_the_tensordot_reference(state, data):
    order = state.qubit_order
    z_targets = data.draw(st.lists(st.sampled_from(order), unique=True))
    rotation = data.draw(st.sampled_from(["ry-", "ry+"]))
    ops = [("z", v) for v in z_targets] + [(rotation, data.draw(st.sampled_from(order)))]
    got = apply_x_corrections(state, ops)
    assert np.allclose(got.amplitudes, reference_apply_x_corrections(state, ops).amplitudes,
                       rtol=0, atol=1e-12)
    assert not np.shares_memory(got.amplitudes, state.amplitudes)


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


def test_fidelity_rejects_permuted_qubit_orders():
    # a state built from a graph has the graph's one canonical order, so
    # two orders of one vertex set are a caller's mistake, not a transpose
    g = client_graph(1, 1, [(1, 1)])
    a = prepare_graph_state(g)
    flipped_order = (a.qubit_order[1], a.qubit_order[0])
    b = QuantumState(tensor(a).transpose(1, 0).reshape(-1), flipped_order)
    with pytest.raises(ValidationError, match="order their qubits differently"):
        fidelity(a, b)


def test_fidelity_rejects_mismatched_states():
    a = prepare_graph_state(client_graph(1, 1))
    b = prepare_graph_state(client_graph(1, 2))
    with pytest.raises(ValidationError, match="dimension"):
        fidelity(a, b)
    c = prepare_graph_state(client_graph(2, 0))
    with pytest.raises(ValidationError, match="vertex sets"):
        fidelity(a, c)


def _zero_state(order) -> QuantumState:
    amps = np.zeros(2 ** len(order))
    amps[0] = 1
    return QuantumState(amps, order)


@pytest.mark.parametrize("a, b", [
    ((client(1, 1),), (client(1, 1), client(2, 1))),
    ((client(2, 1),), (client(1, 1), client(2, 1))),
    ((client(1, 1), client(2, 1)), (client(1, 1), client(2, 1), super_node(1))),
    ((), (client(1, 1),)),
])
def test_fidelity_rejects_states_of_different_sizes(a, b):
    with pytest.raises(ValidationError):
        fidelity(_zero_state(a), _zero_state(b))
    with pytest.raises(ValidationError):
        fidelity(_zero_state(b), _zero_state(a))


def test_fidelity_rejects_states_over_different_vertex_sets():
    # one size, other vertices: two projections of one state on different qubits
    s = prepare_graph_state(client_graph(1, 2, [(1, 1), (1, 2)]))
    a, b = project_x(s, client(2, 1), +1), project_x(s, client(2, 2), +1)
    assert a.n == b.n
    with pytest.raises(ValidationError):
        fidelity(a, b)
    for x, y in [((client(1, 1),), (client(2, 1),)),
                 ((client(1, 1), client(2, 1)), (super_node(1), super_node(2)))]:
        with pytest.raises(ValidationError):
            fidelity(_zero_state(x), _zero_state(y))


def test_quantum_state_validates_norm_and_order():
    with pytest.raises(ValidationError, match="norm"):
        QuantumState(np.array([1.0, 1.0]), (client(1, 1),))
    with pytest.raises(ValidationError, match="length"):
        QuantumState(np.array([1.0, 0, 0]), (client(1, 1),))
    with pytest.raises(UnknownVertexError):
        prepare_graph_state(client_graph(1, 1)).qubit_index(client(2, 9))
    with pytest.raises(ValidationError, match="distinct"):
        QuantumState(np.array([1.0, 0, 0, 0]), (client(1, 1), client(1, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quantum_state_rejects_a_non_finite_norm(bad):
    # a NaN norm fails every comparison, so it must fail the check, not pass it
    with pytest.raises(ValidationError, match="norm"):
        QuantumState(np.array([bad, 0.0]), (client(1, 1),))
    with pytest.raises(ValidationError, match="norm"):
        QuantumState(np.array([bad, 0.0], dtype=complex), (client(1, 1),))


def test_quantum_state_keeps_real_amplitudes_and_makes_the_rest_complex():
    order = (client(1, 1),)
    real = np.array([0.6, 0.8])
    assert QuantumState(real, order).amplitudes is real
    for amps in ([1, 0], np.array([1, 0], dtype=np.float32), [0.6 + 0j, 0.8j]):
        assert QuantumState(amps, order).amplitudes.dtype == complex
    assert prepare_graph_state(client_graph(2, 2, [(1, 2)])).amplitudes.dtype == np.float64


def test_annotations_name_numpy_without_a_runtime_np_global():
    # numpy is imported inside the functions that use it; a type checker
    # reads ``np`` from the TYPE_CHECKING import, and no module global
    # ``np`` is left for later code to use without importing it
    assert not hasattr(oracle, "np")
    guarded = [stmt for node in ast.parse(inspect.getsource(oracle)).body
               if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
               for stmt in node.body]
    assert [(a.name, a.asname) for stmt in guarded for a in stmt.names] == [("numpy", "np")]
    type_checking_ns = {**vars(oracle), "np": np}
    hints = typing.get_type_hints(QuantumState, globalns=type_checking_ns)
    assert hints["amplitudes"] is np.ndarray


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


@pytest.mark.parametrize("augment", [augment_case1, augment_case2])
def test_verify_branches_are_independent_of_each_other(augment):
    # branches share their first step inside the walk: each branch of the
    # full run must equal the same branch computed alone from a fresh
    # input state, and reruns must agree
    g = random_client_graph(random.Random(5), 3, 3)
    aug = augment(g)
    final, records = run_pipeline(aug)
    full = verify_pipeline(aug.graph, records, final)
    assert [b.outcome_string for b in full.branches] == ["++", "+-", "-+", "--"]
    target = prepare_graph_state(final)
    for b in full.branches:
        state = prepare_graph_state(aug.graph)
        for r, s in zip(records, b.outcomes):
            ops = x_correction_ops(r.pre_graph, r.measured_vertex, r.special_neighbor, s)
            state = apply_x_corrections(project_x(state, r.measured_vertex, s), ops)
        assert b.fidelity == fidelity(state, target)
        assert b.passed
    # a report holds no clock: a rerun on the same inputs is an equal value
    assert verify_pipeline(aug.graph, records, final) == full


def _as_complex(g):
    state = prepare_graph_state(g)
    return QuantumState(state.amplitudes.astype(complex), state.qubit_order)


@settings(max_examples=200, deadline=None)
@given(client_graphs(max_n1=6, max_n2=6), st.sampled_from([augment_case1, augment_case2]),
       st.booleans(), st.data())
def test_real_and_complex_amplitudes_give_equal_reports(g, augment, corrupt, data):
    # every operator of a verify is real; carrying the same amplitudes as
    # complex must not move a single bit of any fidelity
    aug = augment(g, data.draw(st.sets(st.sampled_from(g.clients()))))
    assume(eligible_k0(aug))
    final, records = run_pipeline(aug)
    claimed = final
    if corrupt:  # the CLI's --corrupt: toggle the edge between the first client of each QLAN
        edges = final.edges ^ {make_edge(client(1, 1), client(2, 1))}
        claimed = InterQlanGraph(frozenset(final.order), edges)
    real = verify_pipeline(aug.graph, records, claimed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "prepare_graph_state", _as_complex)
        as_complex = verify_pipeline(aug.graph, records, claimed)
    assert real == as_complex
    assert [b.fidelity.hex() for b in real.branches] == [b.fidelity.hex() for b in as_complex.branches]
    assert real.passed is not corrupt


def test_verify_shares_the_first_measurement_between_branches(monkeypatch):
    # each corrected state after the first measurement feeds both branches
    # that start with its outcome: 2 + 4 projections and corrections, not 8;
    # the input and the claimed graph are each prepared once
    g = random_client_graph(random.Random(5), 3, 3)
    aug = augment_case1(g)
    final, records = run_pipeline(aug)
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn in (prepare_graph_state, project_x, apply_x_corrections):
        monkeypatch.setattr(oracle, fn.__name__, counted(fn))
    report = verify_pipeline(aug.graph, records, final)
    assert report.passed and len(report.branches) == 4
    assert calls == {"prepare_graph_state": 2, "project_x": 6, "apply_x_corrections": 6}


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


def test_a_hand_built_record_with_a_non_adjacent_k0_is_rejected():
    # measure_x checks k0 before it builds a record; a record built by hand
    # is caught where it is read, by the replay and by the byproduct table
    g = client_graph(2, 2, [(1, 2)])
    aug = augment_case1(g)  # Case I: s2 is wired to the QLAN 1 clients only
    final, records = run_pipeline(aug)
    k0 = client(2, 1)
    assert not aug.graph.has_edge(aug.s2, k0)
    bad = MeasurementRecord(aug.s2, k0, aug.graph, records[0].post_graph)
    with pytest.raises(ValidationError, match="not adjacent"):
        verify_pipeline(aug.graph, [bad, records[1]], final)
    with pytest.raises(ValidationError, match="not adjacent"):
        x_correction_ops(bad.pre_graph, bad.measured_vertex, bad.special_neighbor, +1)


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
    assert "wall_time_s" not in data  # the CLI times the call, not the report


def test_a_branch_verdict_is_read_from_its_fidelity():
    assert [f.name for f in dataclasses.fields(BranchResult)] == ["outcomes", "fidelity", "corrections"]
    with pytest.raises(TypeError):
        BranchResult((1, 1), 0.5, True, ())
    edge = 1.0 - FIDELITY_TOL
    assert BranchResult((1, 1), edge, ()).passed
    assert not BranchResult((1, 1), float(np.nextafter(edge, 0.0)), ()).passed
    # a report cannot claim more than its numbers
    data = VerificationReport((BranchResult((1, 1), 0.5, ()),)).to_json()
    assert (data["passed"], data["min_fidelity"], data["branches"][0]["passed"]) == (False, 0.5, False)


def test_canonical_order_is_stable():
    g = client_graph(2, 2)
    aug = augment_case1(g)
    order = prepare_graph_state(aug.graph).qubit_order
    assert [v.name for v in order] == ["1.1", "1.2", "2.1", "2.2", "s1", "s2"]

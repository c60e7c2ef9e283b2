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
    delete_vertex,
    make_edge,
    super_node,
    vertex_sort_key,
)
from qlanroute import oracle
from qlanroute.oracle import (
    FIDELITY_TOL,
    BranchResult,
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
    assert np.allclose(prepare_graph_state(g), [INV_SQRT2, INV_SQRT2])


def test_prepare_two_vertex_edge_hand_amplitudes():
    g = client_graph(1, 1, [(1, 1)])
    assert np.allclose(prepare_graph_state(g), [0.5, 0.5, 0.5, -0.5])


def test_prepare_orders_clients_then_supers():
    base = client_graph(2, 1, [(1, 1)])
    g = InterQlanGraph(frozenset(base.order) | {super_node(2)}, base.edges)
    assert [v.name for v in g.order] == ["1.1", "1.2", "2.1", "s2"]
    # qubit i is g.order[i]: the one edge, 1.1-2.1, flips the sign where
    # qubits 0 and 2 are both set, whatever qubits 1 and 3 hold
    t = prepare_graph_state(g).reshape(2, 2, 2, 2)
    assert np.array_equal(np.sign(t[1, :, 1, :]), -np.ones((2, 2)))
    assert (t > 0).sum() == 12


def test_prepare_respects_capacity_bound():
    with pytest.raises(CapacityError, match="14"):
        prepare_graph_state(client_graph(8, 7))


def test_prepare_satisfies_all_stabilizer_generators():
    rng = random.Random(21)
    for _ in range(10):
        g = random_plain_graph(rng, max_vertices=8)
        psi = prepare_graph_state(g)
        for v in frozenset(g.order):
            assert stabilizer_expectation(psi, g, v) == pytest.approx(1.0, abs=1e-10)


def test_stabilizer_expectation_detects_wrong_graph():
    g = client_graph(1, 1, [(1, 1)])
    wrong = client_graph(1, 1)
    psi = prepare_graph_state(wrong)
    assert stabilizer_expectation(psi, g, client(1, 1)) != pytest.approx(1.0, abs=1e-3)


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
    psi = prepare_graph_state(g)
    assert psi.dtype == np.float64 and psi.shape == (2 ** len(g.order),)
    assert np.array_equal(psi, reference_prepare_graph_state(g))


# -- projection -------------------------------------------------------------


@settings(max_examples=150)
@given(random_states())
def test_project_matches_the_flip_reference_on_every_axis(state):
    psi, g = state
    for v in g.order:
        for outcome in (+1, -1):
            got, ref = project_x(psi, g, v, outcome), reference_project_x(psi, g, v, outcome)
            assert got.shape == ref.shape == (psi.size // 2,)
            assert np.allclose(got, ref, rtol=0, atol=1e-12)


def test_project_plus_on_edge_state_gives_plus_after_correction():
    # hand computation on the 4 amplitudes: projecting X=+1 on qubit 1.1 of
    # the CZ|++> state leaves |0> on 2.1; the byproduct rotation turns it
    # into |+>, the graph state of the single remaining vertex
    g = client_graph(1, 1, [(1, 1)])
    reduced = project_x(prepare_graph_state(g), g, client(1, 1), +1)
    assert np.allclose(reduced, [1.0, 0.0])
    post, _ = measure_x(g, client(1, 1), client(2, 1))
    corrected = apply_x_corrections(reduced, post, x_correction_ops(g, client(1, 1), client(2, 1), +1))
    assert np.allclose(corrected, [INV_SQRT2, INV_SQRT2])


def test_projection_branches_have_equal_weight():
    # independent 4-amplitude computation of the pre-renormalization norms
    g = client_graph(1, 1, [(1, 1)])
    psi = prepare_graph_state(g).reshape(2, 2)
    flipped = psi[::-1, :]  # X on qubit 0
    for sign in (+1, -1):
        branch = (psi + sign * flipped) / 2
        assert np.linalg.norm(branch) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_project_removes_the_measured_qubit():
    g = client_graph(2, 2, [(1, 1), (2, 2)])
    reduced = project_x(prepare_graph_state(g), g, client(1, 2), -1)
    assert reduced.shape == (2 ** 3,)
    # the state now belongs to the graph without 1.2, which has no qubit for it
    with pytest.raises(UnknownVertexError):
        project_x(reduced, delete_vertex(g, client(1, 2)), client(1, 2), +1)


def test_project_forced_minus_on_isolated_vertex_is_internal_error():
    g = client_graph(1, 1)
    with pytest.raises(InternalAssertionError, match="zero norm"):
        project_x(prepare_graph_state(g), g, client(1, 1), -1)


def test_project_rejects_an_outcome_other_than_plus_or_minus_one():
    g = client_graph(1, 1, [(1, 1)])
    with pytest.raises(ValidationError, match="must be \\+1 or -1"):
        project_x(prepare_graph_state(g), g, client(1, 1), 0)


def test_post_measurement_marginals_are_stabilizer_like():
    # every single-qubit reduced density matrix of the post-measurement
    # state must have eigenvalues in {0, 1/2, 1}
    rng = random.Random(3)
    for _ in range(6):
        g = random_plain_graph(rng, max_vertices=8, p=0.5)
        vs = [v for v in frozenset(g.order) if len([e for e in g.edges if v in e]) > 0]
        if not vs:
            continue
        reduced = project_x(prepare_graph_state(g), g, vs[0], +1)
        t = tensor(reduced)
        for axis in range(t.ndim):
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
            reduced = project_x(prepare_graph_state(g), g, a, outcome)
            corrected = apply_x_corrections(reduced, rule_graph, x_correction_ops(g, a, k0, outcome))
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
    psi, g = state
    z_targets = data.draw(st.lists(st.sampled_from(g.order), unique=True))
    rotation = data.draw(st.sampled_from(["ry-", "ry+"]))
    ops = [("z", v) for v in z_targets] + [(rotation, data.draw(st.sampled_from(g.order)))]
    got = apply_x_corrections(psi, g, ops)
    assert np.allclose(got, reference_apply_x_corrections(psi, g, ops), rtol=0, atol=1e-12)
    assert not np.shares_memory(got, psi)


def test_correction_rejects_non_neighbor_k0():
    g = client_graph(2, 1, [(1, 1)])
    reduced = project_x(prepare_graph_state(g), g, client(1, 1), +1)
    with pytest.raises(ValidationError, match="adjacent"):
        apply_x_corrections(reduced, delete_vertex(g, client(1, 1)),
                            x_correction_ops(g, client(1, 1), client(1, 2), +1))


# -- fidelity ------------------------------------------------------------------


def test_fidelity_of_identical_states_is_one():
    s = prepare_graph_state(client_graph(2, 2, [(1, 2)]))
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_basis_states():
    zero, one = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_plus_versus_zero():
    plus, zero = np.array([INV_SQRT2, INV_SQRT2]), np.array([1, 0], dtype=complex)
    assert fidelity(plus, zero) == pytest.approx(0.7071067811865476, abs=1e-12)


def test_fidelity_rejects_mismatched_states():
    a = prepare_graph_state(client_graph(1, 1))
    b = prepare_graph_state(client_graph(1, 2))
    with pytest.raises(ValidationError, match="dimension"):
        fidelity(a, b)
    # client_graph(2, 0) has a's size over other vertices; a vector carries
    # no vertices, so the graph is refused where verify_pipeline meets the claim
    aug = augment_case1(client_graph(1, 1, [(1, 1)]))
    final, records = run_pipeline(aug)
    assert final.order == client_graph(1, 1).order
    with pytest.raises(ValidationError, match="vertices"):
        verify_pipeline(aug.graph, records, client_graph(2, 0))


def _zero_state(order) -> np.ndarray:
    """|0...0> over the qubits ``order``: a vector of length 2**len(order)."""
    amps = np.zeros(2 ** len(order))
    amps[0] = 1
    return amps


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
    # one size, other vertices: two projections of one state on different
    # qubits. The vectors cannot tell them apart; the graphs that order them
    # can, and verify_pipeline refuses a claim over the other vertex set
    g = client_graph(1, 2, [(1, 1), (1, 2)])
    s = prepare_graph_state(g)
    a_graph, a_record = measure_x(g, client(2, 1), client(1, 1))
    b_graph, _ = measure_x(g, client(2, 2), client(1, 1))
    a, b = project_x(s, g, client(2, 1), +1), project_x(s, g, client(2, 2), +1)
    assert a.shape == b.shape and set(a_graph.order) != set(b_graph.order)
    with pytest.raises(ValidationError):
        verify_pipeline(g, [a_record], b_graph)
    # pipelines that leave x, against claims over y of the same size
    pair = client_graph(1, 1, [(1, 1)])
    one, one_record = measure_x(pair, client(2, 1), client(1, 1))
    aug = augment_case1(pair)
    two, two_records = run_pipeline(aug)
    for start, records, out, x, y in [
        (pair, [one_record], one, (client(1, 1),), (client(2, 1),)),
        (aug.graph, two_records, two,
         (client(1, 1), client(2, 1)), (super_node(1), super_node(2))),
    ]:
        assert out.order == x
        with pytest.raises(ValidationError):
            verify_pipeline(start, records, InterQlanGraph(frozenset(y), frozenset()))


def _switched(links=((1, 1),)):
    """A 2+2 Case I switch: the augmented graph, its output, its records
    and the CLI's --corrupt claim (the 1.1-2.1 edge toggled)."""
    aug = augment_case1(client_graph(2, 2, links))
    final, records = run_pipeline(aug)
    corrupted = InterQlanGraph(frozenset(final.order),
                               final.edges ^ {make_edge(client(1, 1), client(2, 1))})
    return aug, final, records, corrupted


def test_verify_rejects_a_claimed_graph_over_other_vertices():
    # the leaves are states of the replayed output graph, so a claimed graph
    # must have its vertex order: one of another size, or of the same size
    # over other vertices, has no state to compare, whatever its edges
    aug = augment_case1(client_graph(1, 2, [(1, 1)]))
    final, records = run_pipeline(aug)
    assert [v.name for v in final.order] == ["1.1", "2.1", "2.2"]
    for claimed in [
        client_graph(1, 1, [(1, 1)]),
        client_graph(2, 2),
        client_graph(2, 1, [(1, 1)]),
        InterQlanGraph(frozenset({client(1, 1), client(2, 1), super_node(1)}), frozenset()),
        aug.graph,
        InterQlanGraph(frozenset(), frozenset()),
    ]:
        with pytest.raises(ValidationError, match="claimed graph has vertices"):
            verify_pipeline(aug.graph, records, claimed)
    assert verify_pipeline(aug.graph, records, final).passed


def test_quantum_state_validates_norm_and_order(monkeypatch):
    # norm: fidelity is |<a|b>| and a branch passes on fidelity >= 1 - 1e-9,
    # so a kernel that scaled its output up could lift even the corrupted
    # claim to a pass; verify_pipeline checks each leaf's norm instead
    aug, final, records, corrupted = _switched()
    for kernel in (prepare_graph_state, project_x, apply_x_corrections):
        for factor in (2.0, 1.5, 0.9):
            def scaled(*args, kernel=kernel, factor=factor):
                return kernel(*args) * factor

            with monkeypatch.context() as m:
                m.setattr(oracle, kernel.__name__, scaled)
                for claimed in (final, corrupted):
                    with pytest.raises(InternalAssertionError, match="norm"):
                        verify_pipeline(aug.graph, records, claimed)
    # order: the graph beside a state orders its qubits, and has none for
    # a vertex outside it
    g = client_graph(1, 1, [(1, 1)])
    psi = prepare_graph_state(g)
    with pytest.raises(UnknownVertexError):
        project_x(psi, g, client(2, 9), +1)
    with pytest.raises(UnknownVertexError):
        apply_x_corrections(psi, g, [("z", client(2, 9))])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quantum_state_rejects_a_non_finite_norm(monkeypatch, bad):
    # a NaN norm fails every comparison, so the leaf check must fail on it,
    # not pass it; only the leaves are poisoned, so no kernel reads the value
    aug, final, records, _ = _switched()

    def poisoned(psi, g, ops):
        psi = apply_x_corrections(psi, g, ops)
        if g == final:
            psi[0] = bad
        return psi

    monkeypatch.setattr(oracle, "apply_x_corrections", poisoned)
    with pytest.raises(InternalAssertionError, match="norm"):
        verify_pipeline(aug.graph, records, final)


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
    assert typing.get_type_hints(prepare_graph_state, globalns=type_checking_ns)["return"] is np.ndarray
    assert typing.get_type_hints(project_x, globalns=type_checking_ns)["psi"] is np.ndarray


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
        psi = prepare_graph_state(aug.graph)
        for r, s in zip(records, b.outcomes):
            ops = x_correction_ops(r.pre_graph, r.measured_vertex, r.special_neighbor, s)
            psi = apply_x_corrections(project_x(psi, r.pre_graph, r.measured_vertex, s),
                                      r.post_graph, ops)
        assert b.fidelity == fidelity(psi, target)
        assert b.passed
    # a report holds no clock: a rerun on the same inputs is an equal value
    assert verify_pipeline(aug.graph, records, final) == full


def _as_complex(g):
    return prepare_graph_state(g).astype(complex)


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
    # the graph's order is the oracle's qubit order: qubit i is order[i]
    assert [v.name for v in aug.graph.order] == ["1.1", "1.2", "2.1", "2.2", "s1", "s2"]
    assert prepare_graph_state(aug.graph).shape == (2 ** 6,)

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them
on success). Tolerances are pinned here and nowhere else."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from qlanroute.cli import main as cli_main
from qlanroute.graph import (
    Qlan,
    client_graph,
    complement_graph,
    local_complement,
    make_edge,
    InterQlanGraph,
)
from qlanroute.oracle import verify_pipeline
from qlanroute.routing import PhysicalTopology, RequestSet, compare, execute_complement
from qlanroute.scenario import (
    load_bundled_scenario,
    scenario_graph,
    scenario_requests,
    scenario_topology,
)
from qlanroute.switching import (
    AugmentationCase,
    augment_case1,
    augment_case2,
    eligible_k0,
    run_pipeline,
)

from helpers import all_client_graphs, random_client_graph, random_plain_graph

FIDELITY_TOL = 1e-9
SWEEP_SIZES = [(n1, n2) for n1 in (1, 2, 3) for n2 in (1, 2, 3)]


@contextmanager
def criterion(num: int, description: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num}] PASS: {description} ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.2f}s"


def test_criterion_1_case1_exhaustive_equality():
    with criterion(
        1,
        "Case I pipeline equals the declarative complement on every graph "
        "with 1..3 clients per QLAN, for every valid k0",
        budget_s=10.0,
    ):
        graphs = 0
        runs = 0
        for n1, n2 in SWEEP_SIZES:
            for g in all_client_graphs(n1, n2):
                reference = complement_graph(g)
                aug = augment_case1(g)
                k0s = eligible_k0(aug)
                assert len(k0s) == n1
                for k0 in k0s:
                    final, records = run_pipeline(aug, k0)
                    assert final == reference
                    assert len(records) == 2
                    runs += 1
                graphs += 1
        assert graphs == sum(2 ** (a * b) for a, b in SWEEP_SIZES)
        print(f"  swept {graphs} graphs, {runs} pipeline runs", end=" ")


def test_criterion_2_case2_exhaustive_equality():
    with criterion(
        2,
        "Case II pipeline equals the declarative complement on the same "
        "exhaustive sweep",
        budget_s=10.0,
    ):
        runs = 0
        for n1, n2 in SWEEP_SIZES:
            for g in all_client_graphs(n1, n2):
                reference = complement_graph(g)
                aug = augment_case2(g)
                k0s = eligible_k0(aug)
                assert len(k0s) == n2
                for k0 in k0s:
                    final, _ = run_pipeline(aug, k0)
                    assert final == reference
                    runs += 1
        print(f"  {runs} pipeline runs", end=" ")


def _random_oracle_instance(rng: random.Random):
    # total qubits = n1 + n2 + 2 <= 10
    n1 = rng.randint(1, 4)
    n2 = rng.randint(1, min(4, 8 - n1))
    g = random_client_graph(rng, n1, n2, p=rng.choice([0.3, 0.5, 0.7]))
    case = rng.choice([AugmentationCase.CASE_I, AugmentationCase.CASE_II])
    aug = (augment_case1 if case is AugmentationCase.CASE_I else augment_case2)(g)
    k0 = rng.choice(eligible_k0(aug))
    return g, aug, k0


def test_criterion_3_oracle_certification_with_negative_control():
    with criterion(
        3,
        "state-vector oracle certifies >= 200 random pipeline runs at "
        "fidelity 1 on every outcome branch; a toggled edge is caught",
        budget_s=120.0,
    ):
        rng = random.Random(2025)
        for instance in range(200):
            g, aug, k0 = _random_oracle_instance(rng)
            final, records = run_pipeline(aug, k0)
            assert final == complement_graph(g)
            report = verify_pipeline(aug.graph, records, final)
            assert len(report.branches) == 4
            assert report.passed
            assert report.min_fidelity >= 1.0 - FIDELITY_TOL

        # negative control: one toggled edge in the claimed graph
        g, aug, k0 = _random_oracle_instance(rng)
        final, records = run_pipeline(aug, k0)
        q1, q2 = final.clients(Qlan.Q1), final.clients(Qlan.Q2)
        toggled = make_edge(q1[0], q2[0])
        corrupted = InterQlanGraph(frozenset(final.order), frozenset(set(final.edges) ^ {toggled}))
        report = verify_pipeline(aug.graph, records, corrupted)
        assert not report.passed
        assert report.min_fidelity <= 0.5 + FIDELITY_TOL


def test_criterion_4_constant_cost_versus_serialized_baseline():
    with criterion(
        4,
        "complement cost is 2 measurements / 1 round for every request-set "
        "size; single-qubit TQR serializes repeater-sharing requests; the "
        "bundled fig1 scenario shows 1 round vs >= 2",
    ):
        rng = random.Random(88)

        # constant cost across every possible request-set size on random 3+4
        scenarios = 0
        while scenarios < 10:
            g = random_client_graph(rng, 3, 4)
            comp_pairs = sorted(
                (u.name, v.name) for (u, v) in complement_graph(g).edges
            )
            if not comp_pairs:
                continue
            scenarios += 1
            for k in range(1, len(comp_pairs) + 1):
                report = execute_complement(g, RequestSet(tuple(comp_pairs[:k])))
                assert report.measurement_count == 2
                assert report.rounds == 1
                assert len(report.served) == k and not report.failed

        # k repeater-sharing requests serialize under single-qubit hardware
        checked = 0
        while checked < 10:
            g = random_client_graph(rng, 3, 4, p=0.4)
            avoid_hub = sorted(
                (u.name, v.name)
                for (u, v) in complement_graph(g).edges
                if "1.1" not in (u.name, v.name)
            )
            if len(avoid_hub) < 2:
                continue
            checked += 1
            k = rng.randint(2, len(avoid_hub))
            names = [v.name for v in g.clients()]
            hub = PhysicalTopology(
                frozenset(names),
                frozenset((n, "1.1") for n in names if n != "1.1"),
                {},
            )
            report = compare(hub, g, RequestSet(tuple(avoid_hub[:k])))
            assert report.tqr.rounds >= k
            assert report.complement.rounds == 1

        # the bundled two-request scenario: simultaneous vs serialized
        sc = load_bundled_scenario("fig1")
        assert all(q == 1 for q in scenario_topology(sc).comm_qubits.values())
        report = compare(scenario_topology(sc), scenario_graph(sc), scenario_requests(sc))
        assert report.complement.rounds == 1
        assert report.tqr.rounds >= 2
        assert sorted(report.complement.served) == [0, 1]


def test_criterion_5_involution_suite():
    with criterion(
        5,
        "local complementation and graph complement are involutions; edge "
        "counts of a graph and its complement partition the cross pairs",
        budget_s=5.0,
    ):
        rng = random.Random(500)
        for _ in range(500):
            g = random_plain_graph(rng, max_vertices=10)
            vs = sorted(frozenset(g.order), key=lambda u: u.name)
            v = vs[rng.randrange(len(vs))]
            assert local_complement(local_complement(g, v), v) == g
        for g in all_client_graphs(3, 3):
            assert complement_graph(complement_graph(g)) == g
            assert len(g.edges) + len(complement_graph(g).edges) == 9


def test_criterion_6_partial_switch_oracle_certified():
    with criterion(
        6,
        "partial switches complement exactly the non-retained pairs, pass "
        "oracle verification, and treat retained-incident edges consistently",
    ):
        rng = random.Random(60)
        behaviors = set()
        scenarios = 0
        while scenarios < 50:
            n1 = rng.randint(2, 4)
            n2 = rng.randint(2, min(4, 8 - n1))
            g = random_client_graph(rng, n1, n2)
            retained = rng.choice(sorted(g.clients(), key=lambda v: v.name))
            case = rng.choice([AugmentationCase.CASE_I, AugmentationCase.CASE_II])
            build = augment_case1 if case is AugmentationCase.CASE_I else augment_case2
            aug = build(g, [retained])
            if not eligible_k0(aug):
                continue
            scenarios += 1
            final, records = run_pipeline(aug)

            reference = complement_graph(g)
            preserved = True
            for a in g.clients(Qlan.Q1):
                for b in g.clients(Qlan.Q2):
                    if retained in (a, b):
                        preserved &= final.has_edge(a, b) == g.has_edge(a, b)
                    else:
                        assert final.has_edge(a, b) == reference.has_edge(a, b)
            behaviors.add("retained pairs keep original adjacency" if preserved else "other")

            report = verify_pipeline(aug.graph, records, final)
            assert report.passed
            assert report.min_fidelity >= 1.0 - FIDELITY_TOL
        assert len(behaviors) == 1, f"inconsistent retained-edge behavior: {behaviors}"
        print(f"  observed across {scenarios} scenarios: {behaviors.pop()}", end=" ")


def test_criterion_7_sweep_reports_are_byte_deterministic(tmp_path):
    with criterion(
        7,
        "a seeded comparison sweep writes byte-identical normalized reports "
        "across two runs",
    ):
        runner = CliRunner()
        outs = [tmp_path / "run_a", tmp_path / "run_b"]
        for out in outs:
            result = runner.invoke(
                cli_main,
                ["sweep", "--count", "12", "--seed", "2024", "--out", str(out), "--normalize"],
            )
            assert result.exit_code == 0, result.output
        for name in ("sweep.csv", "sweep.json"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

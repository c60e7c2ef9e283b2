"""Seeded inputs and package-independent output checks for each workload.

Nothing here imports qlanroute: the expected results are computed from
plain name-pair sets, so a check cannot share a defect with the code it
checks. Every op is one CLI invocation; its scenario file is written and
its expected result computed before any timing starts.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    argv: list[str]
    expect_code: int
    outputs: tuple[str, ...]
    check: Callable[[Path], None]  # raises CheckFailed on a wrong output


def _names(qlan: int, n: int) -> list[str]:
    return [f"{qlan}.{i}" for i in range(1, n + 1)]


def _random_links(rng: random.Random, n1: int, n2: int, p: float) -> list[tuple[str, str]]:
    return [(a, b) for a in _names(1, n1) for b in _names(2, n2) if rng.random() < p]


def _case(k: int) -> str:
    # Cases alternate, and the special op of every group of four (retained
    # or corrupt) falls on Case I and Case II in turn.
    return "I" if (k + k // 4) % 2 == 0 else "II"


class CheckFailed(Exception):
    """An op's output differs from the benchmark's own reference."""


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


# -- complement ------------------------------------------------------------


def _check_complement(n1: int, n2: int, expected: frozenset[tuple[str, str]]):
    def check(out: Path) -> None:
        graph = _read_json(out / "result_graph.json")
        if (graph.get("n1"), graph.get("n2")) != (n1, n2):
            raise CheckFailed(f"result_graph.json is {graph.get('n1')}+{graph.get('n2')}, "
                              f"expected {n1}+{n2}")
        if any(graph.get("supers", {}).values()) or graph.get("super_edges"):
            raise CheckFailed("result_graph.json still holds a super-node")
        got = {tuple(sorted(e)) for e in graph.get("edges", [])}
        if got != expected:
            raise CheckFailed(f"result_graph.json edges differ from the reference complement "
                              f"({len(got - expected)} extra, {len(expected - got)} missing)")
        summary = _read_json(out / "summary.json")
        if summary.get("measurements") != 2:
            raise CheckFailed(f"summary.json reports {summary.get('measurements')} "
                              "measurements, expected 2")
    return check


def complement_ops(rng: random.Random, size: dict, gen: dict, work: Path, out: Path) -> list[Op]:
    n1, n2 = size["n1"], size["n2"]
    q1, q2 = _names(1, n1), _names(2, n2)
    keep = min(gen["retain_per_qlan"], n1 - 1, n2 - 1)
    ops = []
    for k in range(gen["pool"]):
        links = set(_random_links(rng, n1, n2, gen["inter_link_prob"]))
        retain: list[str] = []
        if k % gen["retain_every"] == gen["retain_every"] - 1:
            retain = sorted(rng.sample(q1, keep)) + sorted(rng.sample(q2, keep))
        held = set(retain)
        # A full switch flips every cross pair; a partial one flips only the
        # pairs with no retained endpoint.
        expected = frozenset(
            (a, b) for a in q1 for b in q2
            if ((a, b) in links) != (a not in held and b not in held)
        )
        path = work / f"complement-{k}.json"
        path.write_text(json.dumps({
            "name": f"complement-{k}", "qlan1": n1, "qlan2": n2,
            "inter_links": sorted(links), "retain": retain, "case": _case(k),
        }))
        ops.append(Op(
            argv=["complement", "--scenario", str(path), "--out", str(out)],
            expect_code=0,
            outputs=("result_graph.json", "trace.json", "summary.json"),
            check=_check_complement(n1, n2, expected),
        ))
    return ops


# -- compare ---------------------------------------------------------------


def _hops(adj: dict[str, set[str]], src: str) -> dict[str, int]:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def _check_compare(n_requests: int, swaps: int):
    everyone = list(range(n_requests))

    def check(out: Path) -> None:
        report = _read_json(out / "comparison.json")
        comp, tqr = report.get("complement", {}), report.get("tqr", {})
        if (comp.get("rounds"), comp.get("measurement_count")) != (1, 2):
            raise CheckFailed(f"complement side used {comp.get('rounds')} rounds and "
                              f"{comp.get('measurement_count')} measurements, expected 1 and 2")
        if sorted(comp.get("served", [])) != everyone or comp.get("failed"):
            raise CheckFailed("complement side did not serve every request")
        if sorted(tqr.get("served", [])) != everyone or tqr.get("failed"):
            raise CheckFailed("TQR side did not serve every request")
        if tqr.get("swap_count") != swaps:
            raise CheckFailed(f"TQR swap_count {tqr.get('swap_count')}, "
                              f"expected {swaps} from hop distances")
        rounds = tqr.get("rounds")
        if not isinstance(rounds, int) or not 1 <= rounds <= n_requests:
            raise CheckFailed(f"TQR rounds {rounds} outside 1..{n_requests}")
    return check


def compare_ops(rng: random.Random, size: dict, gen: dict, work: Path, out: Path) -> list[Op]:
    n1, n2 = size["n1"], size["n2"]
    names = sorted(_names(1, n1) + _names(2, n2))
    ops = []
    for k in range(gen["pool"]):
        links = set(_random_links(rng, n1, n2, gen["inter_link_prob"]))
        if len(links) == n1 * n2:  # keep at least one complement pair to request
            links.remove(rng.choice(sorted(links)))
        # Connected physical topology: a random spanning path plus extra links.
        order = names[:]
        rng.shuffle(order)
        physical = {tuple(sorted(p)) for p in zip(order, order[1:])}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if (a, b) not in physical and rng.random() < gen["extra_physical_link_prob"]:
                    physical.add((a, b))
        requests = [(a, b) for a in _names(1, n1) for b in _names(2, n2) if (a, b) not in links]
        rng.shuffle(requests)
        adj: dict[str, set[str]] = {n: set() for n in names}
        for a, b in physical:
            adj[a].add(b)
            adj[b].add(a)
        dist = {src: _hops(adj, src) for src in {s for s, _ in requests}}
        swaps = sum(dist[s][d] - 1 for s, d in requests)
        path = work / f"compare-{k}.json"
        path.write_text(json.dumps({
            "name": f"compare-{k}", "qlan1": n1, "qlan2": n2,
            "inter_links": sorted(links), "physical_links": sorted(physical),
            "comm_qubits": {n: gen["comm_qubits"] for n in names},
            "requests": requests, "case": "I",
        }))
        ops.append(Op(
            argv=["compare", "--scenario", str(path), "--out", str(out)],
            expect_code=0,
            outputs=("comparison.json",),
            check=_check_compare(len(requests), swaps),
        ))
    return ops


# -- verify ----------------------------------------------------------------


def _check_verify(corrupt: bool):
    def check(out: Path) -> None:
        report = _read_json(out / "verification.json")
        if corrupt:
            if report.get("passed") is not False:
                raise CheckFailed("the oracle accepted a corrupted graph")
            return
        branches = report.get("branches", [])
        if report.get("passed") is not True or len(branches) != 4:
            raise CheckFailed(f"verification passed={report.get('passed')} with "
                              f"{len(branches)} branches, expected True with 4")
        fid = report.get("min_fidelity")
        if not isinstance(fid, float) or fid < 1 - FIDELITY_TOL:
            raise CheckFailed(f"min_fidelity {fid} below 1 - {FIDELITY_TOL}")
    return check


def verify_ops(rng: random.Random, size: dict, gen: dict, work: Path, out: Path) -> list[Op]:
    n1, n2 = size["n1"], size["n2"]
    ops = []
    for k in range(gen["pool"]):
        corrupt = k % gen["corrupt_every"] == gen["corrupt_every"] - 1
        path = work / f"verify-{k}.json"
        path.write_text(json.dumps({
            "name": f"verify-{k}", "qlan1": n1, "qlan2": n2,
            "inter_links": _random_links(rng, n1, n2, gen["inter_link_prob"]),
            "case": _case(k),
        }))
        ops.append(Op(
            argv=["verify", "--scenario", str(path), "--out", str(out)]
            + (["--corrupt"] if corrupt else []),
            expect_code=1 if corrupt else 0,
            outputs=("verification.json",),
            check=_check_verify(corrupt),
        ))
    return ops


GENERATORS = {"complement": complement_ops, "compare": compare_ops, "verify": verify_ops}


def build_ops(name: str, spec: dict, seed: int, smoke: bool, work: Path, out: Path) -> list[Op]:
    """The workload's op pool, the same for the same (name, seed, smoke)."""
    rng = random.Random(f"{name}/{seed}")
    size = spec["smoke_size"] if smoke else spec["size"]
    return GENERATORS[spec["command"]](rng, size, spec["generator"], work, out)

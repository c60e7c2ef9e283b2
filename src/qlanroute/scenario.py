"""Scenario files: the one config that drives graphs, topologies and requests.

A scenario is a JSON object:

    {
      "name": "fig1",                  // optional label
      "qlan1": 2, "qlan2": 2,          // client counts
      "inter_links": [["1.1","2.2"]],  // artificial cross-QLAN edges
      "physical_links": [["1.1","1.2"]],
      "comm_qubits": {"1.1": 1},       // per node, default 1
      "requests": [["1.1","2.1"]],     // source in QLAN 1, destination in QLAN 2
      "retain": ["1.2"],               // clients excluded from the switch
      "case": "I",                     // "I" or "II"
      "seed": 7,
      "run_when_empty": true           // run the pipeline even with no requests
    }

The same file feeds both strategies, which keeps the physical and
artificial descriptions of one scenario consistent by construction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import ValidationError
from .graph import (
    InterQlanGraph,
    LabeledVertex,
    client_graph,
    complement_graph,
    edges_as_names,
    vertex_from_name,
)
from .routing import PhysicalTopology, RequestSet
from .switching import AugmentationCase


@dataclass(frozen=True)
class Scenario:
    n1: int
    n2: int
    inter_links: tuple[tuple[str, str], ...] = ()
    physical_links: tuple[tuple[str, str], ...] = ()
    comm_qubits: Mapping[str, int] = field(default_factory=dict)
    requests: tuple[tuple[str, str], ...] = ()
    retain: tuple[str, ...] = ()
    case: str = "I"
    seed: int = 0
    run_when_empty: bool = True
    name: str = ""

    @property
    def augmentation_case(self) -> AugmentationCase:
        return AugmentationCase(self.case)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "qlan1": self.n1,
            "qlan2": self.n2,
            "inter_links": [list(e) for e in self.inter_links],
            "physical_links": [list(e) for e in self.physical_links],
            "comm_qubits": {k: self.comm_qubits[k] for k in sorted(self.comm_qubits)},
            "requests": [list(r) for r in self.requests],
            "retain": list(self.retain),
            "case": self.case,
            "seed": self.seed,
            "run_when_empty": self.run_when_empty,
        }


def _field_error(source: str, fld: str, problem: str) -> ValidationError:
    return ValidationError(f"{source}: field {fld!r} {problem}")


def _int_field(data: dict, fld: str, source: str, minimum: int = 0) -> int:
    value = data.get(fld)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise _field_error(source, fld, f"must be an integer >= {minimum}, got {value!r}")
    return value


def _pair_list(data: dict, fld: str, source: str) -> tuple[tuple[str, str], ...]:
    raw = data.get(fld, [])
    if not isinstance(raw, list):
        raise _field_error(source, fld, f"must be a list of 2-item name pairs, got {type(raw).__name__}")
    out = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise _field_error(source, f"{fld}[{k}]", f"must be a 2-item pair, got {entry!r}")
        out.append((str(entry[0]), str(entry[1])))
    return tuple(out)


def parse_scenario(data: dict, source: str = "scenario") -> Scenario:
    """Validate a decoded scenario object, naming the offending field on error."""
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: top level must be a JSON object")
    known = {
        "name", "qlan1", "qlan2", "inter_links", "physical_links", "comm_qubits",
        "requests", "retain", "case", "seed", "run_when_empty",
    }
    for key in data:
        if key not in known:
            raise _field_error(source, key, "is not a recognized scenario field")
    n1 = _int_field(data, "qlan1", source)
    n2 = _int_field(data, "qlan2", source)
    case = data.get("case", "I")
    if case not in ("I", "II"):
        raise _field_error(source, "case", f'must be "I" or "II", got {case!r}')
    comm_raw = data.get("comm_qubits", {})
    if not isinstance(comm_raw, dict):
        raise _field_error(source, "comm_qubits", "must be an object mapping node names to integers")
    comm = {}
    for node, q in comm_raw.items():
        if not isinstance(q, int) or isinstance(q, bool) or q < 1:
            raise _field_error(source, f"comm_qubits[{node!r}]", f"must be an integer >= 1, got {q!r}")
        comm[str(node)] = q
    retain_raw = data.get("retain", [])
    if not isinstance(retain_raw, list):
        raise _field_error(source, "retain", "must be a list of client names")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _field_error(source, "seed", f"must be an integer, got {seed!r}")
    run_when_empty = data.get("run_when_empty", True)
    if not isinstance(run_when_empty, bool):
        raise _field_error(source, "run_when_empty", f"must be a boolean, got {run_when_empty!r}")
    sc = Scenario(
        n1=n1,
        n2=n2,
        inter_links=_pair_list(data, "inter_links", source),
        physical_links=_pair_list(data, "physical_links", source),
        comm_qubits=comm,
        requests=_pair_list(data, "requests", source),
        retain=tuple(str(r) for r in retain_raw),
        case=case,
        seed=seed,
        run_when_empty=run_when_empty,
        name=str(data.get("name", "")),
    )
    _cross_validate(sc, source)
    return sc


def _client_names(sc: Scenario) -> set[str]:
    return {f"1.{i}" for i in range(1, sc.n1 + 1)} | {f"2.{j}" for j in range(1, sc.n2 + 1)}


def _cross_validate(sc: Scenario, source: str) -> None:
    names = _client_names(sc)
    for fld, pairs in (("inter_links", sc.inter_links), ("physical_links", sc.physical_links)):
        for (a, b) in pairs:
            for end in (a, b):
                if end not in names:
                    raise _field_error(source, fld, f"names unknown client {end!r}")
    for (a, b) in sc.inter_links:
        if a.split(".")[0] == b.split(".")[0]:
            raise _field_error(source, "inter_links", f"({a}, {b}) stays inside one QLAN")
    for k, (s, d) in enumerate(sc.requests):
        if s not in names or d not in names:
            raise _field_error(source, f"requests[{k}]", f"names unknown client in ({s}, {d})")
        if not (s.startswith("1.") and d.startswith("2.")):
            raise _field_error(
                source, f"requests[{k}]",
                f"({s}, {d}) must run from a QLAN 1 source to a QLAN 2 destination",
            )
    for r in sc.retain:
        if r not in names:
            raise _field_error(source, "retain", f"names unknown client {r!r}")
    for node in sc.comm_qubits:
        if node not in names:
            raise _field_error(source, "comm_qubits", f"names unknown node {node!r}")


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file; errors carry line/field context."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nesting is too deep to parse") from None
    return parse_scenario(data, source=str(path))


# -- builders ------------------------------------------------------------


def scenario_graph(sc: Scenario) -> InterQlanGraph:
    q1 = {f"1.{i}": i for i in range(1, sc.n1 + 1)}
    q2 = {f"2.{j}": j for j in range(1, sc.n2 + 1)}
    links = []
    for (a, b) in sc.inter_links:
        if a in q2 and b in q1:
            a, b = b, a
        if a not in q1 or b not in q2:
            raise ValidationError(
                f"inter-link ({a}, {b}) does not join a QLAN 1 and a QLAN 2 client "
                f"of a {sc.n1}+{sc.n2} network"
            )
        links.append((q1[a], q2[b]))
    return client_graph(sc.n1, sc.n2, links)


def scenario_topology(sc: Scenario) -> PhysicalTopology:
    return PhysicalTopology(
        nodes=frozenset(_client_names(sc)),
        links=frozenset(sc.physical_links),
        comm_qubits=dict(sc.comm_qubits),
    )


def scenario_requests(sc: Scenario) -> RequestSet:
    return RequestSet(tuple(sc.requests))


def retained_vertices(sc: Scenario) -> tuple[LabeledVertex, ...]:
    return tuple(vertex_from_name(r) for r in sc.retain)


# -- random scenarios (sweeps) -------------------------------------------


RANDOM_LINK_PROB = 0.5
RANDOM_EXTRA_PHYSICAL_PROB = 0.3


def random_scenario(seed: int, n1: int = 3, n2: int = 4) -> Scenario:
    """Seed-deterministic scenario: random inter-links, a connected random
    physical topology, single-qubit nodes, and requests drawn from the
    complement pairs.

    Needs at least one client per QLAN and two client pairs in all
    (``n1 * n2 >= 2``): the graph keeps at least one inter-link and at
    least one complement pair to request, which a 1+1 network cannot hold.
    """
    if n1 < 1 or n2 < 1 or n1 * n2 < 2:
        raise ValidationError(
            f"random scenarios need n1 >= 1, n2 >= 1 and n1 * n2 >= 2, got {n1}+{n2}"
        )
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, n1 + 1) for j in range(1, n2 + 1)]
    links = [p for p in pairs if rng.random() < RANDOM_LINK_PROB]
    if not links:  # an Inter-QLAN needs at least one inter-link
        links = [rng.choice(pairs)]
    if len(links) == len(pairs):  # keep at least one complement pair to request
        links.remove(rng.choice(links))
    inter_links = tuple((f"1.{i}", f"2.{j}") for (i, j) in sorted(links))

    names = sorted(_client_names(Scenario(n1=n1, n2=n2)))
    order = names[:]
    rng.shuffle(order)
    physical = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    for a in names:
        for b in names:
            if a < b and (a, b) not in physical and rng.random() < RANDOM_EXTRA_PHYSICAL_PROB:
                physical.add((a, b))

    complement_pairs = sorted(set(pairs) - set(links))
    k = rng.randint(1, len(complement_pairs))
    chosen = rng.sample(complement_pairs, k)
    requests = tuple((f"1.{i}", f"2.{j}") for (i, j) in chosen)

    return Scenario(
        n1=n1,
        n2=n2,
        inter_links=inter_links,
        physical_links=tuple(sorted(physical)),
        comm_qubits={},
        requests=requests,
        retain=(),
        seed=seed,
        name=f"random-{seed}",
    )


def complement_pairs_of(sc: Scenario) -> tuple[tuple[str, str], ...]:
    """Name pairs that the switch will connect, in deterministic order."""
    return tuple((a, b) for a, b in edges_as_names(complement_graph(scenario_graph(sc))))


# -- bundled scenarios -----------------------------------------------------


def bundled_scenario_names() -> tuple[str, ...]:
    pkg = resources.files("qlanroute.scenarios")
    return tuple(sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json")))


def load_bundled_scenario(name: str) -> Scenario:
    pkg = resources.files("qlanroute.scenarios")
    candidate = pkg / f"{name}.json"
    if not candidate.is_file():
        raise ValidationError(
            f"no bundled scenario named {name!r}; available: {', '.join(bundled_scenario_names())}"
        )
    data = json.loads(candidate.read_text())
    return parse_scenario(data, source=f"bundled:{name}")

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

Parsing checks each name pair once, against the client names of the
scenario's size, which are made once per size and shared with the
builders: ``scenario_graph`` reads each inter-link's endpoints from the
same name-to-position table. Well-formed pair lists are checked by set
tests on whole columns; only a list that fails them is walked pair by
pair, which names the first offending pair.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import ValidationError
from .graph import (
    InterQlanGraph,
    LabeledVertex,
    client_graph,
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


class _Roster(NamedTuple):
    """The client names of an ``n1 + n2`` scenario."""

    q1: frozenset[str]
    q2: frozenset[str]
    position: Mapping[str, int]  # canonical order: "1.i" at i - 1, "2.j" at n1 + j - 1


@functools.lru_cache(maxsize=8)
def _roster(n1: int, n2: int) -> _Roster:
    """Made once per size and shared, so ``position`` is read-only."""
    q1 = [f"1.{i}" for i in range(1, n1 + 1)]
    q2 = [f"2.{j}" for j in range(1, n2 + 1)]
    position = MappingProxyType({name: k for k, name in enumerate(q1 + q2)})
    return _Roster(frozenset(q1), frozenset(q2), position)


def _pair_list(data: dict, fld: str, source: str, roster: _Roster) -> tuple[tuple[str, str], ...]:
    """Field ``fld`` as pairs of client names. An inter-link must join the
    two QLANs, in either order; a request must run from QLAN 1 to QLAN 2.

    Pairs are walked one by one, each name looked up in ``roster``, which
    names the first offender. A name must be a string: the number ``1.10``
    would read as ``"1.1"``, another client. A list that passes the set
    tests below, on whole columns, is accepted without the walk: it holds
    only 2-item pairs of client names, each from QLAN 1 to QLAN 2 unless
    they are physical links. That saves about 1 ms of a 64+64 complement
    op's 11 ms (2-vCPU host).
    """
    raw = data.get(fld, [])
    if not isinstance(raw, list):
        raise _field_error(source, fld, f"must be a list of 2-item name pairs, got {type(raw).__name__}")
    if set(map(type, raw)) <= {list, tuple} and set(map(len, raw)) <= {2}:
        flat = list(chain.from_iterable(raw))
        try:
            if fld == "physical_links":
                known = roster.position.keys() >= set(flat)
            else:
                known = roster.q1.issuperset(flat[0::2]) and roster.q2.issuperset(flat[1::2])
        except TypeError:  # an unhashable name: the walk reports it
            known = False
        if known:
            # a list comprehension: tuple(zip(...)) here left peak RSS higher in long runs
            return tuple([(a, b) for a, b in raw])
    n1, get = len(roster.q1), roster.position.get
    out = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise _field_error(source, f"{fld}[{k}]", f"must be a 2-item pair, got {entry!r}")
        a, b = entry
        if not (isinstance(a, str) and isinstance(b, str)):
            raise _field_error(source, f"{fld}[{k}]", f"must hold two name strings, got {entry!r}")
        i, j = get(a), get(b)
        if fld == "requests":
            if i is None or j is None:
                raise _field_error(source, f"requests[{k}]", f"names unknown client in ({a}, {b})")
            if not i < n1 <= j:
                raise _field_error(source, f"requests[{k}]",
                                   f"({a}, {b}) must run from a QLAN 1 source to a QLAN 2 destination")
        else:
            if i is None or j is None:
                raise _field_error(source, fld, f"names unknown client {(a if i is None else b)!r}")
            if fld == "inter_links" and (i < n1) == (j < n1):
                raise _field_error(source, fld, f"({a}, {b}) stays inside one QLAN")
        out.append((a, b))
    return tuple(out)


def parse_scenario(data: dict, source: str = "scenario") -> Scenario:
    """Validate a decoded scenario object, naming the offending field on error.

    Every client name is checked once, against the client names of the
    scenario's size, made once per size.
    """
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
        if not isinstance(node, str):
            raise _field_error(source, "comm_qubits", f"must be keyed by node name strings, got {node!r}")
        if not isinstance(q, int) or isinstance(q, bool) or q < 1:
            raise _field_error(source, f"comm_qubits[{node!r}]", f"must be an integer >= 1, got {q!r}")
        comm[node] = q
    retain_raw = data.get("retain", [])
    if not isinstance(retain_raw, list):
        raise _field_error(source, "retain", "must be a list of client names")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _field_error(source, "seed", f"must be an integer, got {seed!r}")
    run_when_empty = data.get("run_when_empty", True)
    if not isinstance(run_when_empty, bool):
        raise _field_error(source, "run_when_empty", f"must be a boolean, got {run_when_empty!r}")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise _field_error(source, "name", f"must be a string, got {name!r}")
    roster = _roster(n1, n2)
    pairs = {fld: _pair_list(data, fld, source, roster)
             for fld in ("inter_links", "physical_links", "requests")}
    for k, r in enumerate(retain_raw):
        if not isinstance(r, str):
            raise _field_error(source, f"retain[{k}]", f"must be a name string, got {r!r}")
        if r not in roster.position:
            raise _field_error(source, "retain", f"names unknown client {r!r}")
    for node in comm:
        if node not in roster.position:
            raise _field_error(source, "comm_qubits", f"names unknown node {node!r}")
    return Scenario(
        n1=n1,
        n2=n2,
        comm_qubits=comm,
        retain=tuple(retain_raw),
        case=case,
        seed=seed,
        run_when_empty=run_when_empty,
        name=name,
        **pairs,
    )


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
    """The client graph of ``sc``'s inter-links, in either orientation."""
    n1, position = sc.n1, _roster(sc.n1, sc.n2).position
    rows = [0] * len(position)
    for (a, b) in sc.inter_links:
        try:
            i, j = position[a], position[b]
        except KeyError:  # not a client: fails the QLAN test below
            i = j = -1
        if (i < n1) == (j < n1):
            raise ValidationError(
                f"inter-link ({a}, {b}) does not join a QLAN 1 and a QLAN 2 client "
                f"of a {sc.n1}+{sc.n2} network"
            )
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return client_graph(sc.n1, sc.n2)._with_rows(rows)


def scenario_topology(sc: Scenario) -> PhysicalTopology:
    return PhysicalTopology(
        nodes=frozenset(_roster(sc.n1, sc.n2).position),
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

    names = sorted(_roster(n1, n2).position)
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


# -- bundled scenarios -----------------------------------------------------


def bundled_scenario_names() -> tuple[str, ...]:
    from importlib import resources

    pkg = resources.files("qlanroute.scenarios")
    return tuple(sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json")))


def load_bundled_scenario(name: str) -> Scenario:
    from importlib import resources

    pkg = resources.files("qlanroute.scenarios")
    candidate = pkg / f"{name}.json"
    if not candidate.is_file():
        raise ValidationError(
            f"no bundled scenario named {name!r}; available: {', '.join(bundled_scenario_names())}"
        )
    data = json.loads(candidate.read_text())
    return parse_scenario(data, source=f"bundled:{name}")

"""Strategy comparison: reactive pathfinding with swapping vs the proactive switch.

Two ways to serve remote source-destination requests between the QLANs:

* the traditional baseline (TQR): discover a shortest path on the
  physical topology per request, generate link-level entanglement along
  it, swap at the repeaters. Entanglement is produced reactively, after
  the path is known, and competes for communication qubits.
* the complement strategy: assume the augmented graph state was
  distributed proactively, run the two-measurement switch once, and every
  request whose endpoints are complement-adjacent holds a direct virtual
  link, all in the same round.

Each strategy returns one :class:`RoutingReport`; a caller that needs
the switch's graphs or records runs :func:`run_pipeline` itself.

Baseline cost model
-------------------
The comparison needs concrete accounting, so the baseline uses this
model (documented here as the repository's model and driven by the
scenario file):

* requests are admitted greedily in input order, one batch per round;
  :func:`run_tqr` computes this as one first-fit pass, each request
  placed in the lowest round whose earlier members leave it room, which
  admits exactly the per-round batches;
* an admitted path claims 1 communication qubit at each endpoint and 2
  at each transit repeater (one per adjacent link) for that round;
* a repeater owning a single communication qubit can still carry one
  path per round by time-sharing link generation, the minimum-hardware
  guarantee; concurrent paths through it must wait, so contending
  requests serialize round by round;
* link-level generation always succeeds, and an admitted request costs
  path length minus 2 swap operations.

``comm_qubit_peak`` reports demand units (2 per transit), so a value
above a node's capacity marks a round where the time-sharing guarantee
kicked in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InternalAssertionError, UnknownVertexError, ValidationError
from .graph import InterQlanGraph, bit_indices, validate_client_graph
from .switching import AugmentationCase, augment_case1, augment_case2, run_pipeline

TQR = "TQR"
COMPLEMENT = "Complement"


@dataclass(frozen=True)
class PhysicalTopology:
    """The physical network: node ids, undirected links, qubit budgets.

    Node ``i`` is ``sorted(nodes)[i]``, and ``_rows[i]`` is its adjacency
    as an int mask, built once at construction. The BFS layers around a
    destination are cached on the first request for it, as one mask per
    hop distance. Bit order is name order, so the lowest set bit of a mask
    is its smallest name.
    """

    nodes: frozenset[str]
    links: frozenset[tuple[str, str]]
    comm_qubits: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        canon = set()
        for (a, b) in self.links:
            if a == b:
                raise ValidationError(f"physical link ({a}, {b}) is a self-loop")
            for end in (a, b):
                if end not in self.nodes:
                    raise UnknownVertexError(f"link endpoint {end!r} is not a network node")
            canon.add((min(a, b), max(a, b)))
        object.__setattr__(self, "links", frozenset(canon))
        budgets = {n: int(self.comm_qubits.get(n, 1)) for n in self.nodes}
        for n, q in budgets.items():
            if q < 1:
                raise ValidationError(f"node {n} needs at least one communication qubit, got {q}")
        object.__setattr__(self, "comm_qubits", budgets)
        names = tuple(sorted(self.nodes))
        index = {n: i for i, n in enumerate(names)}
        rows = [0] * len(names)
        for (a, b) in canon:
            i, j = index[a], index[b]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_layers", {})

    def _layers_to(self, dst: int) -> list[int]:
        """BFS frontier masks around node ``dst``, nearest first (cached)."""
        layers = self._layers.get(dst)
        if layers is None:
            rows = self._rows
            frontier = seen = 1 << dst
            layers = []
            while frontier:
                layers.append(frontier)
                reach = 0
                for i in bit_indices(frontier):
                    reach |= rows[i]
                frontier = reach & ~seen
                seen |= frontier
            self._layers[dst] = layers
        return layers


@dataclass(frozen=True)
class RequestSet:
    """Ordered source-destination pairs; ids are list positions."""

    requests: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        canon = tuple((str(s), str(d)) for (s, d) in self.requests)
        for (s, d) in canon:
            if s == d:
                raise ValidationError(f"request ({s}, {d}) has identical endpoints")
        object.__setattr__(self, "requests", canon)

    def __iter__(self):
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class RoutingReport:
    strategy: str
    rounds: int
    swap_count: int
    measurement_count: int
    served: tuple[int, ...]
    failed: tuple[tuple[int, str], ...]
    comm_qubit_peak: Mapping[str, int]

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "rounds": self.rounds,
            "swap_count": self.swap_count,
            "measurement_count": self.measurement_count,
            "served": list(self.served),
            "failed": [[i, reason] for (i, reason) in self.failed],
            "comm_qubit_peak": {n: self.comm_qubit_peak[n] for n in sorted(self.comm_qubit_peak)},
        }


def find_path(topo: PhysicalTopology, src: str, dst: str) -> list[str]:
    """Shortest path by hop count, lexicographically smallest on ties.

    Returns [] when src and dst are disconnected.
    """
    for end in (src, dst):
        if end not in topo.nodes:
            raise UnknownVertexError(f"node {end!r} is not in the topology")
    if src == dst:
        return [src]
    cur = topo._index[src]
    layers = topo._layers_to(topo._index[dst])
    at = 1 << cur
    for hops, layer in enumerate(layers):
        if layer & at:
            break
    else:
        return []
    # walking from src toward dst, always taking the smallest neighbor one
    # layer closer (the lowest set bit), yields the lexicographically
    # smallest shortest path
    rows, names = topo._rows, topo._names
    path = [src]
    for k in range(hops - 1, -1, -1):
        step = rows[cur] & layers[k]
        cur = (step & -step).bit_length() - 1
        path.append(names[cur])
    return path


def run_tqr(topo: PhysicalTopology, reqs: RequestSet) -> RoutingReport:
    """Reactive baseline: per-round greedy admission under qubit budgets.

    One first-fit pass in input order puts each request in the lowest
    round whose earlier members leave it room. That is exactly the batch
    the round-by-round greedy scan would admit it to: when that scan
    reaches request i in round r, the round holds only earlier requests.
    """
    cap = topo.comm_qubits
    failed: list[tuple[int, str]] = []
    placed: list[tuple[int, int]] = []  # (round, request index)
    loads: list[dict[str, int]] = []  # per round: node -> demand units claimed
    # per node, a mask of the rounds where its usage is at least its budget;
    # such a node has no room for any demand d, since usage + d > max(cap, d)
    full = dict.fromkeys(topo.nodes, 0)
    peak = dict.fromkeys(topo.nodes, 0)
    swaps = 0
    for i, (src, dst) in enumerate(reqs):
        path = find_path(topo, src, dst)
        if not path:
            failed.append((i, "disconnected"))
            continue
        # (node, demand, limit): 1 qubit at each endpoint, 2 at each transit;
        # max(cap, 2): a 1-qubit repeater still carries one lone transit, time-shared
        need = [(n, 2, max(cap[n], 2)) for n in path[1:-1]]
        need += ((src, 1, cap[src]), (dst, 1, cap[dst]))
        ruled_out = 0
        for n, _, _ in need:
            ruled_out |= full[n]
        # only existing rounds are ruled out, so the scan stops at the
        # latest at the fresh round, which is empty and so always has room:
        # 0 + d <= max(cap, d) with every budget at least 1
        while True:
            r = ((ruled_out + 1) & ~ruled_out).bit_length() - 1  # lowest round not ruled out
            if r == len(loads):
                loads.append({})
                break
            if all(loads[r].get(n, 0) + d <= limit for n, d, limit in need):
                break
            ruled_out |= 1 << r  # a node with a budget of 2 or more is short
        load = loads[r]
        for n, d, _ in need:
            used = load[n] = load.get(n, 0) + d
            if used >= cap[n]:
                full[n] |= 1 << r
            if used > peak[n]:
                peak[n] = used
        placed.append((r, i))
        swaps += len(need) - 2  # one swap per transit node
    return RoutingReport(
        strategy=TQR,
        rounds=len(loads),
        swap_count=swaps,
        measurement_count=0,
        served=tuple(i for _, i in sorted(placed)),
        failed=tuple(failed),
        comm_qubit_peak=peak,
    )


def execute_complement(
    g: InterQlanGraph,
    reqs: RequestSet,
    case: AugmentationCase = AugmentationCase.CASE_I,
    retain: Iterable = (),
    run_when_empty: bool = True,
) -> RoutingReport:
    """Run the proactive strategy and report which requests it serves.

    Endpoints already adjacent in ``g`` are served at zero cost. All
    other requests are served exactly when their pair appears in the
    switched graph, all within the single pipeline round.
    """
    validate_client_graph(g)
    known = {v.name: i for i, v in enumerate(g.order)}  # a client graph: every vertex a client
    resolved = []
    for i, (s, d) in enumerate(reqs):
        for name in (s, d):
            if name not in known:
                raise UnknownVertexError(f"request endpoint {name!r} is not a client of the graph")
        resolved.append((i, known[s], known[d]))
    if not resolved and not run_when_empty:
        return RoutingReport(COMPLEMENT, 0, 0, 0, (), (), {v.name: 0 for v in g.order})
    retained = frozenset(retain)
    aug = (augment_case1 if case is AugmentationCase.CASE_I else augment_case2)(g, retained)
    final, records = run_pipeline(aug)
    if final.order != g.order:
        raise InternalAssertionError("the switched graph does not keep the client order")
    served: list[int] = []
    failed: list[tuple[int, str]] = []
    for (i, u, v) in resolved:
        if (g.rows[u] | final.rows[u]) >> v & 1:  # adjacent in g or in final
            served.append(i)
        else:
            failed.append((i, "not a complement pair"))
    # proactive: every node holds exactly its one graph-state qubit
    peak = {v.name: 1 for v in aug.graph.order}
    return RoutingReport(
        strategy=COMPLEMENT,
        rounds=1,
        swap_count=0,
        measurement_count=len(records),
        served=tuple(served),
        failed=tuple(failed),
        comm_qubit_peak=peak,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side run of both strategies on one scenario."""

    tqr: RoutingReport
    complement: RoutingReport
    rounds_ratio: float | None  # None when the complement side ran no round
    axes: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "tqr": self.tqr.to_json(),
            "complement": self.complement.to_json(),
            "rounds_ratio": self.rounds_ratio,
            "axes": [dict(a) for a in self.axes],
        }


def compare(
    topo: PhysicalTopology,
    g: InterQlanGraph,
    reqs: RequestSet,
    case: AugmentationCase = AugmentationCase.CASE_I,
    retain: Iterable = (),
    run_when_empty: bool = True,
) -> ComparisonReport:
    """Run both strategies on one scenario and tabulate the four axes."""
    client_names = {v.name for v in g.clients()}
    if client_names != set(topo.nodes):
        missing = sorted(client_names ^ set(topo.nodes))
        raise ValidationError(
            f"scenario mismatch: physical and artificial node sets differ at {missing}"
        )
    tqr_report = run_tqr(topo, reqs)
    comp_report = execute_complement(g, reqs, case, retain, run_when_empty)
    ratio = tqr_report.rounds / comp_report.rounds if comp_report.rounds else None
    axes = (
        {"axis": "key_operation", "tqr": "path selection", "complement": "graph manipulation"},
        {"axis": "entanglement_resource", "tqr": "EPR pairs", "complement": "graph state"},
        {"axis": "entanglement_distribution", "tqr": "reactive", "complement": "proactive"},
        {
            "axis": "key_tool",
            "tqr": f"entanglement swapping ({tqr_report.swap_count} swaps)",
            "complement": f"Pauli-X measurement ({comp_report.measurement_count} measurements)",
        },
    )
    return ComparisonReport(
        tqr=tqr_report,
        complement=comp_report,
        rounds_ratio=ratio,
        axes=axes,
    )

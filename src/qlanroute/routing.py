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

Baseline cost model
-------------------
The comparison needs concrete accounting, so the baseline uses this
model (documented here as the repository's model and driven by the
scenario file):

* requests are admitted greedily in input order, one batch per round;
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

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InternalAssertionError, UnknownVertexError, ValidationError
from .graph import InterQlanGraph, validate_client_graph
from .switching import (
    AugmentationCase,
    AugmentedGraph,
    MeasurementRecord,
    augment_case1,
    augment_case2,
    run_pipeline,
)

TQR = "TQR"
COMPLEMENT = "Complement"


@dataclass(frozen=True)
class PhysicalTopology:
    """The physical network: node ids, undirected links, qubit budgets.

    The sorted adjacency lists are built once, at construction, and the
    hop distances to each destination once, on the first request for it.
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
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for (a, b) in self.links:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "_adj", {n: sorted(vs) for n, vs in adj.items()})
        object.__setattr__(self, "_dist", {})

    def _hops_to(self, dst: str) -> dict[str, int]:
        """Hop distance to ``dst`` from every node that can reach it (BFS, cached)."""
        dist = self._dist.get(dst)
        if dist is None:
            dist = {dst: 0}
            queue = deque([dst])
            while queue:
                cur = queue.popleft()
                for nxt in self._adj[cur]:
                    if nxt not in dist:
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
            self._dist[dst] = dist
        return dist


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
    dist = topo._hops_to(dst)
    if src not in dist:
        return []
    # walking from src toward dst, always taking the smallest eligible
    # neighbor (adjacency lists are sorted), yields the lexicographically
    # smallest shortest path
    path = [src]
    cur = src
    while cur != dst:
        step = dist[cur] - 1
        cur = next(n for n in topo._adj[cur] if dist.get(n) == step)
        path.append(cur)
    return path


def _path_demands(path: Sequence[str]) -> dict[str, int]:
    demands = {path[0]: 1, path[-1]: 1}
    for node in path[1:-1]:
        demands[node] = 2
    return demands


def run_tqr(topo: PhysicalTopology, reqs: RequestSet) -> RoutingReport:
    """Reactive baseline: per-round greedy admission under qubit budgets."""
    cap = topo.comm_qubits
    needs: dict[int, list[tuple[str, int, int]]] = {}  # (node, demand, limit) along each path
    failed: list[tuple[int, str]] = []
    pending: list[int] = []
    for i, (src, dst) in enumerate(reqs):
        path = find_path(topo, src, dst)
        if not path:
            failed.append((i, "disconnected"))
        else:
            # max(cap, d): a 1-qubit repeater still carries one lone transit, time-shared
            needs[i] = [(n, d, max(cap[n], d)) for n, d in _path_demands(path).items()]
            pending.append(i)
    rounds = 0
    swaps = 0
    served: list[int] = []
    peak: dict[str, int] = {n: 0 for n in topo.nodes}
    while pending:
        rounds += 1
        usage: dict[str, int] = defaultdict(int)
        admitted: list[int] = []
        for i in pending:
            need = needs[i]
            for n, d, limit in need:
                if usage[n] + d > limit:
                    break
            else:
                for n, d, _ in need:
                    usage[n] += d
                admitted.append(i)
                swaps += len(need) - 2  # one swap per transit node
        if not admitted:
            # unreachable under the minimum-hardware guarantee; guard anyway
            failed.extend((i, "insufficient communication qubits") for i in pending)
            break
        for node, used in usage.items():
            peak[node] = max(peak[node], used)
        served.extend(admitted)
        done = set(admitted)
        pending = [i for i in pending if i not in done]
    return RoutingReport(
        strategy=TQR,
        rounds=rounds,
        swap_count=swaps,
        measurement_count=0,
        served=tuple(served),
        failed=tuple(failed),
        comm_qubit_peak=peak,
    )


@dataclass(frozen=True)
class ComplementRun:
    """Everything a complement-strategy execution produced."""

    report: RoutingReport
    augmented: AugmentedGraph | None
    final_graph: InterQlanGraph | None
    records: tuple[MeasurementRecord, ...]


def execute_complement(
    g: InterQlanGraph,
    reqs: RequestSet,
    case: AugmentationCase = AugmentationCase.CASE_I,
    retain: Iterable = (),
    run_when_empty: bool = True,
) -> ComplementRun:
    """Run the proactive strategy and keep the pipeline artifacts.

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
        report = RoutingReport(COMPLEMENT, 0, 0, 0, (), (), {v.name: 0 for v in g.order})
        return ComplementRun(report, None, None, ())
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
    report = RoutingReport(
        strategy=COMPLEMENT,
        rounds=1,
        swap_count=0,
        measurement_count=len(records),
        served=tuple(served),
        failed=tuple(failed),
        comm_qubit_peak=peak,
    )
    return ComplementRun(report, aug, final, tuple(records))


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
    comp_report = execute_complement(g, reqs, case, retain, run_when_empty).report
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

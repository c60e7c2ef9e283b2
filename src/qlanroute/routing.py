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

The baseline works on node indices: :class:`PhysicalTopology` numbers
its nodes in name order, and :func:`find_path` and :func:`run_tqr`
share one walk over its cached BFS layers, so the lexicographic tie
rule exists once. Names come back only in the report.

Baseline cost model
-------------------
The comparison needs concrete accounting, so the baseline uses this
model (documented here as the repository's model and driven by the
scenario file):

* requests are admitted greedily in input order, one batch per round;
  :func:`run_tqr` computes this as one first-fit pass over node indices,
  each request placed in the lowest round that none of its nodes has
  marked full, which admits exactly the per-round batches;
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

    Node ``i`` is ``sorted(nodes)[i]``, so index order is name order.
    One pass over ``links`` checks each link (a self-loop first, then its
    endpoints), sets its two bits in the int adjacency rows ``_rows`` and
    keeps it as ``(a, b)`` with ``a < b``. ``_caps[i]`` is node ``i``'s
    budget: 1 by default, else an ``int`` (not a ``bool``) >= 1, the
    scenario parser's rule; a budget for a name that is no node raises.
    The BFS layers around a destination are cached on the first request
    for it, as one mask per hop distance; the lowest set bit of a mask is
    its smallest name.
    """

    nodes: frozenset[str]
    links: frozenset[tuple[str, str]]
    comm_qubits: Mapping[str, int]

    def __post_init__(self) -> None:
        nodes = frozenset(self.nodes)
        names = tuple(sorted(nodes))
        index = {n: i for i, n in enumerate(names)}
        rows = [0] * len(names)
        canon = set()
        for (a, b) in self.links:
            if a == b:
                raise ValidationError(f"physical link ({a}, {b}) is a self-loop")
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise UnknownVertexError(f"link endpoint {(a if i is None else b)!r} is not a network node")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            canon.add((a, b) if i < j else (b, a))
        for n in self.comm_qubits:
            if n not in index:
                raise UnknownVertexError(f"comm_qubits node {n!r} is not a network node")
        caps = [self.comm_qubits.get(n, 1) for n in names]
        for n, q in zip(names, caps):
            if not isinstance(q, int) or isinstance(q, bool) or q < 1:
                raise ValidationError(f"node {n}'s communication qubits must be an integer >= 1, got {q!r}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "links", frozenset(canon))
        object.__setattr__(self, "comm_qubits", dict(zip(names, caps)))
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_caps", caps)
        object.__setattr__(self, "_layers", [None] * len(names))

    def _layers_to(self, dst: int) -> list[int]:
        """BFS frontier masks around node ``dst``, nearest first (cached)."""
        layers = self._layers[dst]
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

    def _transits(self, src: int, dst: int) -> list[int] | None:
        """Inner nodes, in walk order, of the lexicographically smallest
        shortest path from ``src`` to ``dst != src``; None when disconnected.
        Stepping to the smallest neighbour one layer closer (the lowest set
        bit) at each hop yields that path.
        """
        layers = self._layers_to(dst)
        at = 1 << src
        for hops, layer in enumerate(layers):
            if layer & at:
                break
        else:
            return None
        rows, cur, inner = self._rows, src, []
        for k in range(hops - 1, 0, -1):
            step = rows[cur] & layers[k]
            cur = (step & -step).bit_length() - 1
            inner.append(cur)
        return inner


@dataclass(frozen=True)
class RequestSet:
    """Ordered source-destination pairs; ids are list positions."""

    requests: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        canon = tuple((s, d) for (s, d) in self.requests)
        for k, (s, d) in enumerate(canon):
            if not (isinstance(s, str) and isinstance(d, str)):
                raise ValidationError(f"request {k} must hold two name strings, got ({s!r}, {d!r})")
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
        if end not in topo._index:
            raise UnknownVertexError(f"node {end!r} is not in the topology")
    if src == dst:
        return [src]
    inner = topo._transits(topo._index[src], topo._index[dst])
    if inner is None:
        return []
    return [src, *(topo._names[i] for i in inner), dst]


def run_tqr(topo: PhysicalTopology, reqs: RequestSet) -> RoutingReport:
    """Reactive baseline: per-round greedy admission under qubit budgets.

    One first-fit pass in input order puts each request in the lowest
    round where every node on its path has room: exactly the batch the
    round-by-round greedy scan would admit it to, since when that scan
    reaches request i in round r, the round holds only earlier requests.
    Room is two round masks per node: ``full1[v]`` holds the rounds where
    ``usage + 1 <= cap`` fails (no room as an endpoint), ``full2[v]`` those
    where ``usage + 2 <= max(cap, 2)`` fails (no room as a transit). A
    round past the last is empty and has room for any demand, since every
    budget is at least 1.
    """
    index, cap = topo._index, topo._caps
    n = len(cap)
    try:
        ends = [(index[s], index[d]) for s, d in reqs]
    except KeyError as exc:
        raise UnknownVertexError(f"node {exc.args[0]!r} is not in the topology") from None
    # a node turns full for an endpoint unit at usage >= cap, and for two
    # transit units at usage >= max(cap, 2) - 1 (a 1-qubit repeater still
    # carries one lone transit, time-shared)
    cap2 = [max(c - 1, 1) for c in cap]
    full1, full2 = [0] * n, [0] * n
    peak = [0] * n
    loads: list[list[int]] = []  # per round: demand units claimed, by node
    failed: list[tuple[int, str]] = []
    placed: list[tuple[int, int]] = []  # (round, request index)
    swaps = 0
    for i, (src, dst) in enumerate(ends):
        inner = topo._transits(src, dst)
        if inner is None:
            failed.append((i, "disconnected"))
            continue
        taken = full1[src] | full1[dst]
        for v in inner:
            taken |= full2[v]
        r = (~taken & (taken + 1)).bit_length() - 1  # lowest round not taken
        if r == len(loads):
            loads.append([0] * n)
        load, bit = loads[r], 1 << r
        load[src] += 1
        load[dst] += 1
        for v in inner:
            load[v] += 2
        for v in (src, dst, *inner):
            used = load[v]
            if used >= cap[v]:
                full1[v] |= bit
            if used >= cap2[v]:
                full2[v] |= bit
            if used > peak[v]:
                peak[v] = used
        placed.append((r, i))
        swaps += len(inner)  # one swap per transit node
    return RoutingReport(
        strategy=TQR,
        rounds=len(loads),
        swap_count=swaps,
        measurement_count=0,
        served=tuple(i for _, i in sorted(placed)),
        failed=tuple(failed),
        comm_qubit_peak=dict(zip(topo._names, peak)),
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
    switched graph, all within the single pipeline round. ``g`` must be a
    client graph, which :class:`AugmentedGraph` or the skip path checks.
    """
    known = {v.name: i for i, v in enumerate(g.order)}
    resolved = []
    for i, (s, d) in enumerate(reqs):
        for name in (s, d):
            if name not in known:
                raise UnknownVertexError(f"request endpoint {name!r} is not a client of the graph")
        resolved.append((i, known[s], known[d]))
    if not resolved and not run_when_empty:
        validate_client_graph(g)
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
    """Side-by-side run of both strategies on one scenario: the two reports,
    from which the rounds ratio and the four axes are read."""

    tqr: RoutingReport
    complement: RoutingReport

    @property
    def rounds_ratio(self) -> float | None:  # None when the complement side ran no round
        return self.tqr.rounds / self.complement.rounds if self.complement.rounds else None

    @property
    def axes(self) -> tuple[dict, ...]:
        return (
            {"axis": "key_operation", "tqr": "path selection", "complement": "graph manipulation"},
            {"axis": "entanglement_resource", "tqr": "EPR pairs", "complement": "graph state"},
            {"axis": "entanglement_distribution", "tqr": "reactive", "complement": "proactive"},
            {
                "axis": "key_tool",
                "tqr": f"entanglement swapping ({self.tqr.swap_count} swaps)",
                "complement": f"Pauli-X measurement ({self.complement.measurement_count} measurements)",
            },
        )

    def to_json(self) -> dict:
        return {
            "tqr": self.tqr.to_json(),
            "complement": self.complement.to_json(),
            "rounds_ratio": self.rounds_ratio,
            "axes": list(self.axes),
        }


def compare(
    topo: PhysicalTopology,
    g: InterQlanGraph,
    reqs: RequestSet,
    case: AugmentationCase = AugmentationCase.CASE_I,
    retain: Iterable = (),
    run_when_empty: bool = True,
) -> ComparisonReport:
    """Run both strategies on one scenario, the baseline first."""
    client_names = {v.name for v in g.clients()}
    if client_names != set(topo.nodes):
        missing = sorted(client_names ^ set(topo.nodes))
        raise ValidationError(
            f"scenario mismatch: physical and artificial node sets differ at {missing}"
        )
    return ComparisonReport(run_tqr(topo, reqs), execute_complement(g, reqs, case, retain, run_when_empty))

"""Inter-QLAN graph model and the pure graph transformations built on it.

Two QLANs hold client nodes joined by cross-QLAN inter-links, the
artificial topology enabled by a shared multipartite entanglement
resource. This module owns the vertex and graph types plus the operations
everything else is built on: neighborhoods, local complementation, vertex
deletion and the bipartite complement.

All operations are persistent: they return new graphs and never mutate
their inputs, so callers can keep pre/post snapshots for verification.

Edges are stored canonically, one entry per undirected edge, ordered by
vertex sort key; which QLAN each endpoint belongs to is carried by the
vertex labels, not by storage order. Intermediate graphs produced by the
measurement pipeline may legitimately contain intra-QLAN edges, so
bipartiteness of inter-links is validated only at pipeline boundaries
(see :func:`validate_client_graph`), not in the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable

from .errors import UnknownVertexError, ValidationError


class Qlan(Enum):
    """Which of the two QLANs a vertex lives in."""

    Q1 = 1
    Q2 = 2

    @property
    def other(self) -> "Qlan":
        return Qlan.Q2 if self is Qlan.Q1 else Qlan.Q1


class Role(Enum):
    CLIENT = "client"
    SUPER = "super"


@dataclass(frozen=True, repr=False)
class LabeledVertex:
    """A network node tagged with its QLAN, an index and a role.

    Client indices are 1-based to match the textual ``"1.3"`` naming.
    Super-nodes added by augmentation use index 0; a promoted super keeps
    the index it had as a client. Either way a QLAN holds at most one
    super-node, so super names are simply ``"s1"`` and ``"s2"``.
    """

    qlan: Qlan
    index: int
    role: Role = Role.CLIENT

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValidationError(f"vertex index must be non-negative, got {self.index}")

    @property
    def name(self) -> str:
        if self.role is Role.SUPER:
            return f"s{self.qlan.value}"
        return f"{self.qlan.value}.{self.index}"

    @property
    def is_super(self) -> bool:
        return self.role is Role.SUPER

    def __repr__(self) -> str:
        return self.name


def vertex_sort_key(v: LabeledVertex) -> tuple[bool, int, int]:
    """Canonical ordering: clients row-major by (qlan, index), supers last."""
    return (v.role is Role.SUPER, v.qlan.value, v.index)


def client(qlan: int | Qlan, index: int) -> LabeledVertex:
    """Client vertex ``<qlan>.<index>`` with a 1-based index."""
    q = qlan if isinstance(qlan, Qlan) else Qlan(qlan)
    if index < 1:
        raise ValidationError(f"client indices are 1-based, got {index}")
    return LabeledVertex(q, index, Role.CLIENT)


def super_node(qlan: int | Qlan, index: int = 0) -> LabeledVertex:
    q = qlan if isinstance(qlan, Qlan) else Qlan(qlan)
    return LabeledVertex(q, index, Role.SUPER)


def vertex_from_name(name: str) -> LabeledVertex:
    """Parse ``"1.3"`` / ``"2.1"`` client names and ``"s1"`` / ``"s2"``."""
    if name in ("s1", "s2"):
        return super_node(int(name[1]))
    qlan_part, sep, index_part = name.partition(".")
    if sep and qlan_part in ("1", "2") and index_part.isdigit() and int(index_part) >= 1:
        return client(int(qlan_part), int(index_part))
    raise ValidationError(f"cannot parse vertex name {name!r} (expected '1.i', '2.j', 's1' or 's2')")


Edge = tuple[LabeledVertex, LabeledVertex]


def make_edge(u: LabeledVertex, v: LabeledVertex) -> Edge:
    """Canonical undirected edge; rejects self-loops."""
    if u == v:
        raise ValidationError(f"self-loop at {u.name} is not allowed")
    a, b = sorted((u, v), key=vertex_sort_key)
    return (a, b)


def is_cross_edge(e: Edge) -> bool:
    return e[0].qlan is not e[1].qlan


@dataclass(frozen=True)
class Neighborhood:
    """The set of vertices adjacent to ``center`` in some graph."""

    center: LabeledVertex
    members: frozenset[LabeledVertex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if self.center in self.members:
            raise ValidationError(f"neighborhood of {self.center.name} cannot contain itself")

    def __contains__(self, v: LabeledVertex) -> bool:
        return v in self.members

    def __iter__(self):
        return iter(sorted(self.members, key=vertex_sort_key))

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class InterQlanGraph:
    """The two-QLAN artificial topology: vertices plus undirected edges.

    The constructor canonicalizes edges and enforces only structural
    sanity (endpoints present, no self-loops, unique (qlan, index)
    positions, at most one super-node per QLAN). Cross-QLAN-only linking
    is a boundary condition of the pipeline, not of the type, because
    local complementation legitimately creates intra-QLAN edges on
    intermediate graphs.
    """

    vertices: frozenset[LabeledVertex]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges", frozenset(make_edge(u, v) for (u, v) in self.edges))
        positions: dict[tuple[Qlan, int], LabeledVertex] = {}
        for v in self.vertices:
            prev = positions.setdefault((v.qlan, v.index), v)
            if prev != v:
                raise ValidationError(
                    f"vertices {prev.name} and {v.name} occupy the same (qlan, index) position"
                )
        for q in Qlan:
            supers = [v for v in self.vertices if v.qlan is q and v.is_super]
            if len(supers) > 1:
                raise ValidationError(f"QLAN {q.value} has more than one super-node")
        for (u, v) in self.edges:
            for end in (u, v):
                if end not in self.vertices:
                    raise UnknownVertexError(f"edge endpoint {end.name} is not a vertex of the graph")

    # -- views ---------------------------------------------------------

    def clients(self, qlan: Qlan | None = None) -> tuple[LabeledVertex, ...]:
        sel = [v for v in self.vertices if not v.is_super and (qlan is None or v.qlan is qlan)]
        return tuple(sorted(sel, key=vertex_sort_key))

    def supers(self) -> tuple[LabeledVertex, ...]:
        return tuple(sorted((v for v in self.vertices if v.is_super), key=vertex_sort_key))

    @property
    def n1(self) -> int:
        return len(self.clients(Qlan.Q1))

    @property
    def n2(self) -> int:
        return len(self.clients(Qlan.Q2))

    def has_edge(self, u: LabeledVertex, v: LabeledVertex) -> bool:
        return make_edge(u, v) in self.edges

    def __contains__(self, v: LabeledVertex) -> bool:
        return v in self.vertices


def client_graph(n1: int, n2: int, links: Iterable[tuple[int, int]] = ()) -> InterQlanGraph:
    """Client-only Inter-QLAN on ``n1 + n2`` vertices.

    ``links`` are (i, j) pairs of 1-based client indices meaning an
    inter-link between clients ``1.i`` and ``2.j``.
    """
    if n1 < 0 or n2 < 0:
        raise ValidationError("QLAN sizes must be non-negative")
    vertices = {client(Qlan.Q1, i) for i in range(1, n1 + 1)}
    vertices |= {client(Qlan.Q2, j) for j in range(1, n2 + 1)}
    edges = set()
    for (i, j) in links:
        if not (1 <= i <= n1 and 1 <= j <= n2):
            raise ValidationError(f"inter-link ({i}, {j}) is out of range for a {n1}+{n2} graph")
        edges.add(make_edge(client(Qlan.Q1, i), client(Qlan.Q2, j)))
    return InterQlanGraph(frozenset(vertices), frozenset(edges))


def _require_vertex(g: InterQlanGraph, v: LabeledVertex) -> None:
    if v not in g.vertices:
        raise UnknownVertexError(f"vertex {v.name} is not in the graph")


def neighbors(g: InterQlanGraph, v: LabeledVertex) -> Neighborhood:
    """All vertices adjacent to ``v``, in either QLAN, super-nodes included."""
    _require_vertex(g, v)
    members = set()
    for (a, b) in g.edges:
        if a == v:
            members.add(b)
        elif b == v:
            members.add(a)
    return Neighborhood(v, frozenset(members))


def complement_neighborhood(g: InterQlanGraph, v: LabeledVertex) -> Neighborhood:
    """Opposite-QLAN clients that are remote from (not adjacent to) ``v``.

    Defined for client vertices of the Inter-QLAN proper; super-nodes are
    excluded both as centers and as members.
    """
    _require_vertex(g, v)
    if v.is_super:
        raise ValidationError(
            f"complement neighborhood is defined for client vertices, not super-node {v.name}"
        )
    adjacent = neighbors(g, v).members
    remote = {u for u in g.clients(v.qlan.other) if u not in adjacent}
    return Neighborhood(v, frozenset(remote))


def local_complement(g: InterQlanGraph, v: LabeledVertex) -> InterQlanGraph:
    """Toggle every edge between two neighbors of ``v``; everything else stays.

    The involution tau underlying the X-measurement rule. Intermediate
    results can carry intra-QLAN edges; that is expected and legal here.
    """
    nbrs = sorted(neighbors(g, v).members, key=vertex_sort_key)
    edges = set(g.edges)
    for a, b in combinations(nbrs, 2):
        e = make_edge(a, b)
        if e in edges:
            edges.remove(e)
        else:
            edges.add(e)
    return InterQlanGraph(g.vertices, frozenset(edges))


def delete_vertex(g: InterQlanGraph, v: LabeledVertex) -> InterQlanGraph:
    """Remove ``v`` and every edge incident to it."""
    _require_vertex(g, v)
    return InterQlanGraph(
        frozenset(u for u in g.vertices if u != v),
        frozenset(e for e in g.edges if v not in e),
    )


def complement_graph(g: InterQlanGraph) -> InterQlanGraph:
    """The complement Inter-QLAN: same clients, exactly the missing cross pairs.

    This is the declarative reference answer that the measurement
    pipeline must reproduce. Defined on the client-only graph; raises if
    a super-node is present.
    """
    if g.supers():
        raise ValidationError("complement is defined on the client-only graph, super-node present")
    edges = {
        make_edge(a, b)
        for a in g.clients(Qlan.Q1)
        for b in g.clients(Qlan.Q2)
        if not g.has_edge(a, b)
    }
    return InterQlanGraph(g.vertices, frozenset(edges))


def validate_client_graph(g: InterQlanGraph) -> None:
    """Boundary check: client-only and every edge joins the two QLANs."""
    if g.supers():
        names = ", ".join(s.name for s in g.supers())
        raise ValidationError(f"expected a client-only graph, found super-node(s) {names}")
    for e in g.edges:
        if not is_cross_edge(e):
            raise ValidationError(
                f"edge ({e[0].name}, {e[1].name}) stays inside one QLAN; "
                "inter-links must join the two QLANs"
            )


# -- serialization -----------------------------------------------------


def sorted_edges(g: InterQlanGraph) -> list[Edge]:
    return sorted(g.edges, key=lambda e: (vertex_sort_key(e[0]), vertex_sort_key(e[1])))


def edges_as_names(g: InterQlanGraph) -> list[list[str]]:
    return [[u.name, v.name] for (u, v) in sorted_edges(g)]


def graph_to_json(g: InterQlanGraph) -> dict:
    """Serialize to the textual schema used by scenario and report files.

    Requires client indices to be contiguous (1..n per QLAN) so that the
    ``n1`` / ``n2`` counts identify the client population; names, not
    internal indices, are the serialized identity of super-nodes.
    """
    for q in Qlan:
        got = [v.index for v in g.clients(q)]
        if got != list(range(1, len(got) + 1)):
            raise ValidationError(
                f"QLAN {q.value} client indices {got} are not contiguous from 1; "
                "this graph has no serialized form"
            )
    supers = {s.name for s in g.supers()}
    client_edges = [e for e in sorted_edges(g) if not (e[0].is_super or e[1].is_super)]
    super_edges = [e for e in sorted_edges(g) if e[0].is_super or e[1].is_super]
    return {
        "n1": g.n1,
        "n2": g.n2,
        "edges": [[u.name, v.name] for (u, v) in client_edges],
        "supers": {"s1": "s1" in supers, "s2": "s2" in supers},
        "super_edges": [[u.name, v.name] for (u, v) in super_edges],
    }


def graph_from_json(data: dict) -> InterQlanGraph:
    try:
        n1, n2 = int(data["n1"]), int(data["n2"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"graph object needs integer 'n1' and 'n2' fields: {exc}") from None
    vertices = {client(Qlan.Q1, i) for i in range(1, n1 + 1)}
    vertices |= {client(Qlan.Q2, j) for j in range(1, n2 + 1)}
    supers = data.get("supers", {})
    for name, present in supers.items():
        if name not in ("s1", "s2"):
            raise ValidationError(f"unknown super-node key {name!r}")
        if present:
            vertices.add(vertex_from_name(name))
    edges = set()
    for pair in list(data.get("edges", [])) + list(data.get("super_edges", [])):
        if len(pair) != 2:
            raise ValidationError(f"edge entry {pair!r} must name exactly two vertices")
        u, v = (vertex_from_name(n) for n in pair)
        edges.add(make_edge(u, v))
    return InterQlanGraph(frozenset(vertices), frozenset(edges))


_DOT_STYLE = {
    "q1": 'shape=circle, style=filled, fillcolor="#f2a3a3"',
    "q2": 'shape=box, style=filled, fillcolor="#a3c4f2"',
    "super": 'shape=doublecircle, style=filled, fillcolor="#f4d35e"',
}


def to_dot(g: InterQlanGraph, name: str = "interqlan") -> str:
    """DOT export with one visual class per QLAN and a distinct super style."""
    lines = [f"graph {name} {{"]
    for v in sorted(g.vertices, key=vertex_sort_key):
        if v.is_super:
            style = _DOT_STYLE["super"]
        elif v.qlan is Qlan.Q1:
            style = _DOT_STYLE["q1"]
        else:
            style = _DOT_STYLE["q2"]
        lines.append(f'  "{v.name}" [{style}];')
    for (u, v) in sorted_edges(g):
        lines.append(f'  "{u.name}" -- "{v.name}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Inter-QLAN graph model and the pure graph transformations built on it.

Two QLANs hold client nodes joined by cross-QLAN inter-links, the
artificial topology enabled by a shared multipartite entanglement
resource. This module owns the vertex and graph types plus the operations
everything else is built on: local complementation, vertex deletion and
the bipartite complement.

Storage is integer-indexed, the representation graph-state simulators use
(Anders & Briegel, arXiv:quant-ph/0504117): a graph keeps its vertices in
canonical order (:func:`vertex_sort_key`: QLAN 1 clients, QLAN 2
clients, then the super-nodes) and one Python ``int`` adjacency row per
vertex, bit ``j`` of row ``i`` set when vertex ``i`` is adjacent to vertex
``j``. Local complementation at ``v`` is one XOR per neighbor of ``v``,
deletion compresses one bit out of every row, and the bipartite
complement is one mask operation per client. Walking the rows in index
order yields the edges already in canonical order, so export never sorts.
:func:`graph_to_json` puts an :class:`EdgeRows` where an edge list goes:
a value backed by the rows, which the report writer renders without
building the list of name pairs. Client graphs of one size share their
vertex objects, made once.

A :class:`LabeledVertex` is its ``(qlan, index)``, index 0 being the
QLAN's one super-node. Vertex objects and their names appear only at the
boundaries: the public constructor, lookups by vertex, and export. The
transformations build their results straight from rows and skip
re-validation, because their invariants hold by construction.

All operations are persistent: they return new graphs and never mutate
their inputs, so callers can keep pre/post snapshots for verification.
Intermediate graphs produced by the measurement pipeline may legitimately
contain intra-QLAN edges, so bipartiteness of inter-links is validated
only at pipeline boundaries (see :func:`validate_client_graph`), not in
the constructor.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import UnknownVertexError, ValidationError


class Qlan(Enum):
    """Which of the two QLANs a vertex lives in."""

    Q1 = 1
    Q2 = 2


@dataclass(frozen=True, repr=False)
class LabeledVertex:
    """A network node: its QLAN and its index there, which are its identity.

    Index 0 is the QLAN's super-node, named ``"s1"`` or ``"s2"``; client
    indices are 1-based to match the textual ``"1.3"`` naming. The name,
    sort key and hash are computed once, when the vertex is made.
    """

    qlan: Qlan
    index: int
    name: str = field(init=False, compare=False)
    sort_key: tuple[bool, int, int] = field(init=False, compare=False)
    _hash: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValidationError(f"vertex index must be non-negative, got {self.index}")
        name = f"{self.qlan.value}.{self.index}" if self.index else f"s{self.qlan.value}"
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sort_key", (self.index == 0, self.qlan.value, self.index))
        object.__setattr__(self, "_hash", hash((self.qlan.value, self.index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_super(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return self.name


# canonical order, clients row-major by (qlan, index) and supers last; an
# attrgetter because every lookup bisects with it, 3-4x faster than a def
vertex_sort_key = attrgetter("sort_key")


def client(qlan: int | Qlan, index: int) -> LabeledVertex:
    """Client vertex ``<qlan>.<index>`` with a 1-based index."""
    q = qlan if isinstance(qlan, Qlan) else Qlan(qlan)
    if index < 1:
        raise ValidationError(f"client indices are 1-based, got {index}")
    return LabeledVertex(q, index)


def super_node(qlan: int | Qlan) -> LabeledVertex:
    """The super-node ``s<qlan>``: index 0 of its QLAN."""
    return LabeledVertex(qlan if isinstance(qlan, Qlan) else Qlan(qlan), 0)


def vertex_from_name(name: str) -> LabeledVertex:
    """Parse ``"1.3"`` / ``"2.1"`` client names and ``"s1"`` / ``"s2"``: a
    vertex's own name only, so not ``"1.01"``, which would read as ``1.1``."""
    if name in ("s1", "s2"):
        return super_node(int(name[1]))
    qlan_part, sep, index_part = name.partition(".")
    # isdecimal, not isdigit: int() rejects digits such as "\u00b2"
    if sep and qlan_part in ("1", "2") and index_part.isdecimal() and int(index_part) >= 1:
        v = client(int(qlan_part), int(index_part))
        if v.name == name:
            return v
    raise ValidationError(f"cannot parse vertex name {name!r} (expected '1.i', '2.j', 's1' or 's2')")


Edge = tuple[LabeledVertex, LabeledVertex]


def make_edge(u: LabeledVertex, v: LabeledVertex) -> Edge:
    """Canonical undirected edge; rejects self-loops."""
    if u == v:
        raise ValidationError(f"self-loop at {u.name} is not allowed")
    a, b = sorted((u, v), key=vertex_sort_key)
    return (a, b)


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_SUPERS_START = (True, 0, 0)  # sorts after every client key, before every super key
_Q2_START = (False, 2, 0)


class InterQlanGraph:
    """The two-QLAN artificial topology: vertices plus undirected edges.

    Stored as ``order``, the vertices in canonical order, and ``rows``,
    one adjacency bitmask per vertex in that order (bit ``j`` of
    ``rows[i]`` joins ``order[i]`` and ``order[j]``), and nothing else.
    ``edges``, the frozenset of canonical ``(u, v)`` tuples, and the hash
    are built from the rows on each call.

    The public constructor enforces structural sanity: endpoints present
    and no self-loops. A vertex is its ``(qlan, index)``, so two vertices
    never share a position and a QLAN has at most one super-node (index
    0). Cross-QLAN-only linking is a boundary condition of the
    pipeline, not of the type, because local complementation legitimately
    creates intra-QLAN edges on intermediate graphs. Graphs are immutable;
    equality and hashing compare vertices and edges.
    """

    __slots__ = ("order", "rows")

    def __init__(self, vertices: Iterable[LabeledVertex], edges: Iterable[Edge]) -> None:
        canon = [make_edge(u, v) for (u, v) in edges]
        order = tuple(sorted(frozenset(vertices), key=vertex_sort_key))
        pos = {v: i for i, v in enumerate(order)}
        rows = [0] * len(order)
        for (u, v) in canon:
            for end in (u, v):
                if end not in pos:
                    raise UnknownVertexError(f"edge endpoint {end.name} is not a vertex of the graph")
            i, j = pos[u], pos[v]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        self._init(order, tuple(rows))

    def _init(self, order: tuple, rows: tuple) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _from_rows(cls, order: tuple, rows) -> "InterQlanGraph":
        """Package-internal constructor for transforms whose invariants hold by
        construction: ``order`` canonical and ``rows`` symmetric with an empty
        diagonal. Nothing is re-checked."""
        g = object.__new__(cls)
        g._init(order, tuple(rows))
        return g

    def _with_rows(self, rows) -> "InterQlanGraph":
        return InterQlanGraph._from_rows(self.order, rows)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"InterQlanGraph is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (InterQlanGraph._from_rows, (self.order, self.rows))

    @property
    def edges(self) -> frozenset[Edge]:
        order = self.order
        return frozenset((order[i], v) for i, tail in upper_neighbors(self, -1, order) for v in tail)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def position(self, v: LabeledVertex) -> int:
        """Index of ``v`` in ``order``; raises UnknownVertexError if absent."""
        i = self._find(v)
        if i < 0:
            raise UnknownVertexError(f"vertex {v.name} is not in the graph")
        return i

    def row(self, v: LabeledVertex) -> int:
        """The adjacency bitmask of ``v``; raises UnknownVertexError if absent."""
        return self.rows[self.position(v)]

    def bit(self, v: LabeledVertex) -> int:
        """``1 << position(v)``, or 0 when ``v`` is not a vertex of the graph."""
        i = self._find(v)
        return 0 if i < 0 else 1 << i

    def _find(self, v: LabeledVertex) -> int:
        order, key = self.order, v.sort_key
        i = bisect_left(order, key, key=vertex_sort_key)
        return i if i < len(order) and order[i].sort_key == key else -1

    def _client_bounds(self) -> tuple[int, int]:
        """(number of QLAN 1 clients, number of clients): the order's block ends."""
        order, key = self.order, vertex_sort_key
        return bisect_left(order, _Q2_START, key=key), bisect_left(order, _SUPERS_START, key=key)

    def client_mask(self, qlan: Qlan | None = None) -> int:
        """Bitmask of the clients, of one QLAN or of both."""
        n1, nc = self._client_bounds()
        if qlan is None:
            return (1 << nc) - 1
        return (1 << n1) - 1 if qlan is Qlan.Q1 else (1 << nc) - (1 << n1)

    def clients(self, qlan: Qlan | None = None) -> tuple[LabeledVertex, ...]:
        n1, nc = self._client_bounds()
        if qlan is None:
            return self.order[:nc]
        return self.order[:n1] if qlan is Qlan.Q1 else self.order[n1:nc]

    def supers(self) -> tuple[LabeledVertex, ...]:
        return self.order[self._client_bounds()[1]:]

    @property
    def n1(self) -> int:
        return self._client_bounds()[0]

    @property
    def n2(self) -> int:
        n1, nc = self._client_bounds()
        return nc - n1

    def has_edge(self, u: LabeledVertex, v: LabeledVertex) -> bool:
        if u == v:
            raise ValidationError(f"self-loop at {u.name} is not allowed")
        i, j = self._find(u), self._find(v)
        return i >= 0 and j >= 0 and bool(self.rows[i] >> j & 1)

    def __contains__(self, v: LabeledVertex) -> bool:
        return isinstance(v, LabeledVertex) and self._find(v) >= 0

    def __eq__(self, other) -> bool:
        if other.__class__ is not InterQlanGraph:
            return NotImplemented
        return self.order == other.order and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.order, self.rows))

    def __repr__(self) -> str:
        return f"InterQlanGraph(vertices={list(self.order)}, edges={edges_as_names(self)})"


@functools.lru_cache(maxsize=8)
def _edgeless(n1: int, n2: int) -> InterQlanGraph:
    """The ``n1 + n2`` clients with no edge, made once per size: graphs are
    immutable, so every client graph of that size shares its vertices."""
    order = tuple(LabeledVertex(Qlan.Q1, i) for i in range(1, n1 + 1))
    order += tuple(LabeledVertex(Qlan.Q2, j) for j in range(1, n2 + 1))
    return InterQlanGraph._from_rows(order, [0] * (n1 + n2))


def client_graph(n1: int, n2: int, links: Iterable[tuple[int, int]] = ()) -> InterQlanGraph:
    """Client-only Inter-QLAN on ``n1 + n2`` vertices.

    ``links`` are (i, j) pairs of 1-based client indices meaning an
    inter-link between clients ``1.i`` and ``2.j``.
    """
    if n1 < 0 or n2 < 0:
        raise ValidationError("QLAN sizes must be non-negative")
    rows = [0] * (n1 + n2)
    for (i, j) in links:
        if not (1 <= i <= n1 and 1 <= j <= n2):
            raise ValidationError(f"inter-link ({i}, {j}) is out of range for a {n1}+{n2} graph")
        a, b = i - 1, n1 + j - 1
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return _edgeless(n1, n2)._with_rows(rows)


def local_complement(g: InterQlanGraph, v: LabeledVertex) -> InterQlanGraph:
    """Toggle every edge between two neighbors of ``v``; everything else stays.

    The involution tau underlying the X-measurement rule: for each
    neighbor ``u`` of ``v``, ``rows[u] ^= N(v) & ~bit(u)``. Intermediate
    results can carry intra-QLAN edges; that is expected and legal here.
    """
    nv = g.row(v)
    rows = list(g.rows)
    for u in bit_indices(nv):
        rows[u] ^= nv & ~(1 << u)
    return g._with_rows(rows)


def delete_vertex(g: InterQlanGraph, v: LabeledVertex) -> InterQlanGraph:
    """Remove ``v`` and every edge incident to it."""
    i = g.position(v)
    low = (1 << i) - 1
    rows = [(r & low) | (r >> (i + 1) << i) for r in g.rows[:i] + g.rows[i + 1:]]
    return InterQlanGraph._from_rows(g.order[:i] + g.order[i + 1:], rows)


def complement_graph(g: InterQlanGraph) -> InterQlanGraph:
    """The complement Inter-QLAN: same clients, exactly the missing cross pairs.

    This is the declarative reference answer that the measurement
    pipeline must reproduce. Defined on the client-only graph; raises if
    a super-node is present.
    """
    if g.supers():
        raise ValidationError("complement is defined on the client-only graph, super-node present")
    q1, q2 = g.client_mask(Qlan.Q1), g.client_mask(Qlan.Q2)
    n1 = g.n1
    rows = [q2 & ~r for r in g.rows[:n1]] + [q1 & ~r for r in g.rows[n1:]]
    return g._with_rows(rows)


def first_intra_qlan_edge(g: InterQlanGraph) -> Edge | None:
    """The first client edge, in canonical order, that stays inside one QLAN."""
    for q in Qlan:
        side = g.client_mask(q)
        for i in bit_indices(side):
            hit = g.rows[i] & side & ~((2 << i) - 1)
            if hit:
                return (g.order[i], g.order[(hit & -hit).bit_length() - 1])
    return None


def validate_client_graph(g: InterQlanGraph) -> None:
    """Boundary check: client-only and every edge joins the two QLANs."""
    if g.supers():
        names = ", ".join(s.name for s in g.supers())
        raise ValidationError(f"expected a client-only graph, found super-node(s) {names}")
    e = first_intra_qlan_edge(g)
    if e is not None:
        raise ValidationError(
            f"edge ({e[0].name}, {e[1].name}) stays inside one QLAN; "
            "inter-links must join the two QLANs"
        )


# -- serialization -----------------------------------------------------


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def upper_neighbors(g: InterQlanGraph, mask: int, items: Sequence) -> Iterator[tuple[int, Iterator]]:
    """Each vertex ``i`` with an edge to a later vertex inside ``mask``, and
    ``items[j]`` for each such neighbor ``j``, ascending.

    Read in order, the ``(i, j)`` pairs are the edges in canonical order.
    The neighbors are picked by ``compress`` over the row's bits, so no
    position list is built.
    """
    for i, r in enumerate(g.rows):
        upper = r & mask & ~((2 << i) - 1)
        if upper:
            yield i, compress(items, bin(upper)[:1:-1].encode().translate(_BITS))


def edges_as_names(g: InterQlanGraph, mask: int = -1) -> list[list[str]]:
    """Edges as name pairs in canonical order; ``mask`` keeps those whose
    second endpoint is in it."""
    names = [v.name for v in g.order]
    return [[names[i], name] for i, tail in upper_neighbors(g, mask, names) for name in tail]


class EdgeRows:
    """``edges_as_names(graph, mask)`` as a read-only value backed by the rows.

    Reports hold it in place of the name-pair list: the report writer
    renders it straight from the rows. Iterating it and ``in`` behave as on
    the list, and it compares equal to that list and to any ``EdgeRows`` of
    the same edges. It is not a list: ``+``, indexing and ``json.dumps``
    need ``list(...)`` of it.
    """

    __slots__ = ("graph", "mask")

    def __init__(self, graph: InterQlanGraph, mask: int = -1) -> None:
        self.graph = graph
        self.mask = mask

    def __iter__(self) -> Iterator[list[str]]:
        return iter(edges_as_names(self.graph, self.mask))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (EdgeRows, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # equal to a list, so unhashable like one


def graph_to_json(g: InterQlanGraph) -> dict:
    """Serialize to the textual schema used by scenario and report files.

    Requires client indices to be contiguous (1..n per QLAN) so that the
    ``n1`` / ``n2`` counts identify the client population; names, not
    internal indices, are the serialized identity of super-nodes. The two
    edge blocks are :class:`EdgeRows`, not lists: they iterate and compare
    equal as the name-pair lists, and ``cli._json_report`` writes them, but
    ``json.dumps`` needs ``list(...)`` of each.
    """
    for q in Qlan:
        got = [v.index for v in g.clients(q)]
        if got != list(range(1, len(got) + 1)):
            raise ValidationError(
                f"QLAN {q.value} client indices {got} are not contiguous from 1; "
                "this graph has no serialized form"
            )
    # supers come last in the order, so an edge touches one exactly when
    # its second endpoint is a super
    clients = g.client_mask()
    supers = {s.name for s in g.supers()}
    return {
        "n1": g.n1,
        "n2": g.n2,
        "edges": EdgeRows(g, clients),
        "supers": {"s1": "s1" in supers, "s2": "s2" in supers},
        "super_edges": EdgeRows(g, ~clients),
    }


_DOT_STYLE = {
    "q1": 'shape=circle, style=filled, fillcolor="#f2a3a3"',
    "q2": 'shape=box, style=filled, fillcolor="#a3c4f2"',
    "super": 'shape=doublecircle, style=filled, fillcolor="#f4d35e"',
}


def to_dot(g: InterQlanGraph) -> str:
    """DOT export with one visual class per QLAN and a distinct super style."""
    lines = ["graph interqlan {"]
    for v in g.order:
        if v.is_super:
            style = _DOT_STYLE["super"]
        elif v.qlan is Qlan.Q1:
            style = _DOT_STYLE["q1"]
        else:
            style = _DOT_STYLE["q2"]
        lines.append(f'  "{v.name}" [{style}];')
    for u, v in edges_as_names(g):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

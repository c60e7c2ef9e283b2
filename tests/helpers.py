"""Shared generators and independent references for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import deque

import numpy as np
from hypothesis import strategies as st

from qlanroute.errors import ValidationError
from qlanroute.graph import (
    InterQlanGraph,
    LabeledVertex,
    Qlan,
    bit_indices,
    client,
    client_graph,
    complement_graph,
    edges_as_names,
    make_edge,
    super_node,
)
from qlanroute.routing import PhysicalTopology
from qlanroute.scenario import Scenario, scenario_graph


def index_pairs(n1: int, n2: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n1 + 1) for j in range(1, n2 + 1)]


def all_client_graphs(n1: int, n2: int):
    """Every bipartite client graph on n1 + n2 vertices, 2**(n1*n2) of them."""
    pairs = index_pairs(n1, n2)
    for bits in range(2 ** len(pairs)):
        yield client_graph(n1, n2, [p for k, p in enumerate(pairs) if bits >> k & 1])


def random_client_graph(rng: random.Random, n1: int, n2: int, p: float = 0.5) -> InterQlanGraph:
    return client_graph(n1, n2, [pair for pair in index_pairs(n1, n2) if rng.random() < p])


def random_plain_graph(rng: random.Random, max_vertices: int = 10, p: float = 0.4) -> InterQlanGraph:
    """Arbitrary graph over both QLANs: intra-QLAN edges and supers allowed.

    Mirrors the intermediate graphs that local complementation produces.
    """
    n1 = rng.randint(1, max(1, max_vertices // 2))
    n2 = rng.randint(1, max(1, max_vertices - n1 - 2))
    vertices = [client(Qlan.Q1, i) for i in range(1, n1 + 1)]
    vertices += [client(Qlan.Q2, j) for j in range(1, n2 + 1)]
    if rng.random() < 0.5:
        vertices.append(super_node(Qlan.Q1))
    if rng.random() < 0.5:
        vertices.append(super_node(Qlan.Q2))
    edges = {
        make_edge(u, v)
        for u, v in itertools.combinations(vertices, 2)
        if rng.random() < p
    }
    return InterQlanGraph(frozenset(vertices), frozenset(edges))


@st.composite
def client_graphs(draw, max_n1: int = 4, max_n2: int = 4) -> InterQlanGraph:
    n1 = draw(st.integers(min_value=1, max_value=max_n1))
    n2 = draw(st.integers(min_value=1, max_value=max_n2))
    pairs = index_pairs(n1, n2)
    mask = draw(st.integers(min_value=0, max_value=2 ** len(pairs) - 1))
    return client_graph(n1, n2, [p for k, p in enumerate(pairs) if mask >> k & 1])


@st.composite
def physical_topologies(draw, max_nodes: int = 14) -> PhysicalTopology:
    """Nodes "n0", "n1", ...: from eleven on, name order is not index order
    ("n10" < "n9"). Each node falls in one of up to three parts with no
    links between them, so many topologies are disconnected. Budgets 1-3.
    """
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = [f"n{i}" for i in range(n)]
    part = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    p = draw(st.sampled_from([0.15, 0.3, 0.5]))
    links = {
        (a, b) if rng.random() < 0.5 else (b, a)
        for (i, a), (j, b) in itertools.combinations(enumerate(names), 2)
        if part[i] == part[j] and rng.random() < p
    }
    budgets = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    return PhysicalTopology(frozenset(names), frozenset(links), dict(zip(names, budgets)))


@st.composite
def plain_graphs(draw, max_vertices: int = 10) -> InterQlanGraph:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_plain_graph(random.Random(seed), max_vertices=max_vertices)


@st.composite
def random_states(draw, max_qubits: int = 10) -> tuple[np.ndarray, InterQlanGraph]:
    """A normalised complex state on 1..max_qubits qubits, Gaussian
    amplitudes, and the graph ``client_graph(n, 0)`` that orders its qubits."""
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps), client_graph(n, 0)


# -- independent references ----------------------------------------------------
#
# A state is an amplitude vector; the graph passed beside it orders its
# qubits, qubit i being vertex g.order[i].


def tensor(psi: np.ndarray) -> np.ndarray:
    """The amplitudes as a (2,)*n tensor, qubit i on axis i."""
    return psi.reshape((2,) * (psi.size.bit_length() - 1))


def apply_pauli(psi: np.ndarray, g: InterQlanGraph, kind: str, v: LabeledVertex) -> np.ndarray:
    """Apply a single-qubit Pauli (kind 'X' or 'Z') to vertex v."""
    axis = g.position(v)
    t = tensor(psi)
    if kind == "Z":
        t = t.copy()
        idx: list = [slice(None)] * t.ndim
        idx[axis] = 1
        t[tuple(idx)] *= -1
    elif kind == "X":
        t = np.flip(t, axis=axis)
    else:
        raise ValueError(f"unknown Pauli kind {kind!r}")
    return t.reshape(-1)


def reference_prepare_graph_state(g: InterQlanGraph) -> np.ndarray:
    """|+>^n on the (2,)*n tensor, then one strided sign flip per edge (CZ)."""
    n = len(g.order)
    psi = np.full((2,) * n, 2 ** (-n / 2), dtype=complex)
    edges = [(i, j) for i, row in enumerate(g.rows) for j in range(i + 1, n) if row >> j & 1]
    for (i, j) in edges:
        idx: list = [slice(None)] * n
        idx[i] = 1
        idx[j] = 1
        psi[tuple(idx)] *= -1
    return psi.reshape(-1)


def reference_project_x(psi: np.ndarray, g: InterQlanGraph, v: LabeledVertex,
                        outcome: int) -> np.ndarray:
    """The whole branch ``(t + outcome * X_v t) / 2`` built with ``np.flip``,
    renormalised, with the measured qubit's 0 slice kept."""
    axis = g.position(v)
    t = tensor(psi)
    flipped = np.flip(t, axis=axis)
    branch = (t + flipped if outcome == +1 else t - flipped) / 2
    idx: list = [slice(None)] * branch.ndim
    idx[axis] = 0
    reduced = branch[tuple(idx)] / float(np.linalg.norm(branch)) * np.sqrt(2)
    return reduced.reshape(-1)


_REFERENCE_ROTATIONS = {
    "ry-": np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2),  # exp(-i pi/4 Y)
    "ry+": np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2),  # exp(+i pi/4 Y)
}


def reference_apply_x_corrections(psi: np.ndarray, g: InterQlanGraph, ops) -> np.ndarray:
    """Each Z through :func:`apply_pauli`, each rotation as a 2x2 matrix
    contracted into the qubit's tensor axis."""
    for kind, target in ops:
        if kind == "z":
            psi = apply_pauli(psi, g, "Z", target)
        else:
            axis = g.position(target)
            t = np.tensordot(_REFERENCE_ROTATIONS[kind], tensor(psi), axes=([1], [axis]))
            psi = np.moveaxis(t, 0, axis).reshape(-1)
    return psi


def other(q: Qlan) -> Qlan:
    """The QLAN that is not ``q``."""
    return Qlan.Q2 if q is Qlan.Q1 else Qlan.Q1


def neighbors(g: InterQlanGraph, v: LabeledVertex) -> tuple[LabeledVertex, ...]:
    """All vertices adjacent to ``v``, in either QLAN, super-nodes included,
    in canonical order."""
    order = g.order
    return tuple(order[k] for k in bit_indices(g.row(v)))


def complement_neighborhood(g: InterQlanGraph, v: LabeledVertex) -> tuple[LabeledVertex, ...]:
    """Opposite-QLAN clients that are remote from (not adjacent to) ``v``, in
    canonical order.

    Defined for client vertices of the Inter-QLAN proper; super-nodes are
    excluded both as centers and as members.
    """
    row = g.row(v)
    if v.is_super:
        raise ValidationError(
            f"complement neighborhood is defined for client vertices, not super-node {v.name}"
        )
    order = g.order
    return tuple(order[k] for k in bit_indices(g.client_mask(other(v.qlan)) & ~row))


def stabilizer_expectation(psi: np.ndarray, g: InterQlanGraph, v: LabeledVertex) -> float:
    """<psi| X_v prod_{u in N(v)} Z_u |psi>, real part, for a state ``psi``
    whose qubits ``g`` orders.

    Equals 1 for every vertex exactly when ``psi`` is the graph state
    of ``g``; independent of how the state was prepared or corrected.
    """
    phi = apply_pauli(psi, g, "X", v)
    for u in neighbors(g, v):
        phi = apply_pauli(phi, g, "Z", u)
    return float(np.real(np.vdot(psi, phi)))


def complement_pairs_of(sc: Scenario) -> tuple[tuple[str, str], ...]:
    """Name pairs that the switch will connect, in deterministic order."""
    return tuple((a, b) for a, b in edges_as_names(complement_graph(scenario_graph(sc))))


def reference_path(topo: PhysicalTopology, src: str, dst: str) -> list[str]:
    """Shortest path by hop count, lexicographically smallest on ties; []
    when disconnected.

    A BFS from ``dst`` over sorted name-level adjacency lists, read from
    ``topo.nodes`` and ``topo.links`` only; the walk from ``src`` takes
    the smallest neighbor one hop closer at every step.
    """
    adj: dict[str, list[str]] = {n: [] for n in topo.nodes}
    for (a, b) in topo.links:
        adj[a].append(b)
        adj[b].append(a)
    for vs in adj.values():
        vs.sort()
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    if src not in dist:
        return []
    path = [src]
    while path[-1] != dst:
        step = dist[path[-1]] - 1
        path.append(next(n for n in adj[path[-1]] if dist.get(n) == step))
    return path

"""Shared generators and independent references for the test suite."""

from __future__ import annotations

import itertools
import random

import numpy as np
from hypothesis import strategies as st

from qlanroute.graph import (
    InterQlanGraph,
    LabeledVertex,
    Qlan,
    client,
    client_graph,
    complement_graph,
    edges_as_names,
    make_edge,
    neighbors,
    super_node,
)
from qlanroute.oracle import QuantumState
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
def plain_graphs(draw, max_vertices: int = 10) -> InterQlanGraph:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_plain_graph(random.Random(seed), max_vertices=max_vertices)


# -- independent references ----------------------------------------------------


def apply_pauli(state: QuantumState, kind: str, v: LabeledVertex) -> QuantumState:
    """Apply a single-qubit Pauli (kind 'X' or 'Z') to vertex v."""
    axis = state.qubit_index(v)
    t = state.tensor()
    if kind == "Z":
        t = t.copy()
        idx: list = [slice(None)] * t.ndim
        idx[axis] = 1
        t[tuple(idx)] *= -1
    elif kind == "X":
        t = np.flip(t, axis=axis)
    else:
        raise ValueError(f"unknown Pauli kind {kind!r}")
    return QuantumState(t.reshape(-1), state.qubit_order)


def stabilizer_expectation(state: QuantumState, g: InterQlanGraph, v: LabeledVertex) -> float:
    """<psi| X_v prod_{u in N(v)} Z_u |psi>, real part.

    Equals 1 for every vertex exactly when ``state`` is the graph state
    of ``g``; independent of how the state was prepared or corrected.
    """
    phi = apply_pauli(state, "X", v)
    for u in neighbors(g, v):
        phi = apply_pauli(phi, "Z", u)
    return float(np.real(np.vdot(state.amplitudes, phi.amplitudes)))


def complement_pairs_of(sc: Scenario) -> tuple[tuple[str, str], ...]:
    """Name pairs that the switch will connect, in deterministic order."""
    return tuple((a, b) for a, b in edges_as_names(complement_graph(scenario_graph(sc))))

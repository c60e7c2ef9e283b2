"""Brute-force state-vector verifier for the graph-level measurement rules.

Graph states are prepared densely, one qubit per vertex in |+> followed by
a controlled-Z per edge, and projective X measurements with
outcome-dependent local corrections are replayed against the graph-rule
results: the corrected post-measurement state must match the graph state
of the rule output with fidelity 1 on every outcome branch.

Conventions
-----------
* Qubit ``i`` of a prepared state is vertex ``g.order[i]``, the graph's
  canonical order (row-major by (qlan, index), super-nodes last), and the
  order is recorded on every state so amplitude vectors are comparable
  across runs.
* ``amplitudes`` is a dense complex vector of length 2**n; qubit i owns
  axis i of the (2,)*n reshape, i.e. bit i counted from the most
  significant end.
* Tolerances: 1e-10 for norms, 1e-9 for fidelity assertions. Double
  precision throughout. Capacity is capped at 14 qubits.

Correction table
----------------
After an X measurement on vertex a with special neighbor k0, with
neighborhoods N taken in the pre-measurement graph, the post-projection
state is returned to graph-state form by:

    outcome +1:  exp(-i pi/4 Y_k0)  then  Z_b for b in N(a) \\ (N(k0) u {k0})
    outcome -1:  exp(+i pi/4 Y_k0)  then  Z_b for b in N(k0) \\ (N(a) u {a})

Each Z-target set is one mask over the pre-measurement adjacency rows,
``row(a) & ~row(k0) & ~bit(k0)`` for +1 and the mirror for -1, listed in
bit order, which is the canonical order.

This is the standard local-byproduct table for graph-state X measurements
(Hein, Duer, Eisert, Raussendorf, Van den Nest, Briegel, "Entanglement in
graph states and its applications", arXiv:quant-ph/0602096, Sec. 2); the
rotation-sign branch matching our CZ and projector conventions is pinned
by the fidelity sweep in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import CapacityError, InternalAssertionError, UnknownVertexError, ValidationError
from .graph import InterQlanGraph, LabeledVertex, bit_indices, edge_indices, neighbors
from .switching import MeasurementRecord, measure_x

MAX_QUBITS = 14
NORM_TOL = 1e-10
FIDELITY_TOL = 1e-9

_RY_MINUS = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)  # exp(-i pi/4 Y)
_RY_PLUS = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)  # exp(+i pi/4 Y)


@dataclass(frozen=True)
class QuantumState:
    """Dense amplitude vector over the live vertices of a graph."""

    amplitudes: np.ndarray
    qubit_order: tuple[LabeledVertex, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "qubit_order", tuple(self.qubit_order))
        n = len(self.qubit_order)
        if len(set(self.qubit_order)) != n:
            raise ValidationError("qubit_order must map distinct vertices to qubits")
        if amps.shape != (2**n,):
            raise ValidationError(
                f"amplitude vector has length {amps.shape}, expected ({2 ** n},) for {n} qubits"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def n(self) -> int:
        return len(self.qubit_order)

    def qubit_index(self, v: LabeledVertex) -> int:
        try:
            return self.qubit_order.index(v)
        except ValueError:
            raise UnknownVertexError(f"vertex {v.name} is not live in this state") from None

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n)


@dataclass(frozen=True)
class MeasurementOutcome:
    vertex: LabeledVertex
    basis: str
    result: int

    def __post_init__(self) -> None:
        if self.result not in (+1, -1):
            raise ValidationError(f"measurement result must be +1 or -1, got {self.result}")


def prepare_graph_state(g: InterQlanGraph) -> QuantumState:
    """|+>^n followed by one CZ per edge; qubit ``i`` is ``g.order[i]``."""
    n = len(g.order)
    if n > MAX_QUBITS:
        raise CapacityError(
            f"{n} qubits exceed the {MAX_QUBITS}-qubit dense-vector capacity; use a smaller graph"
        )
    psi = np.full((2,) * n, 2 ** (-n / 2), dtype=complex)
    for (i, j) in edge_indices(g):
        idx: list = [slice(None)] * n
        idx[i] = 1
        idx[j] = 1
        psi[tuple(idx)] *= -1
    return QuantumState(psi.reshape(-1), g.order)


def _apply_z(tensor: np.ndarray, axis: int) -> np.ndarray:
    out = tensor.copy()
    idx: list = [slice(None)] * tensor.ndim
    idx[axis] = 1
    out[tuple(idx)] *= -1
    return out


def _apply_1q(tensor: np.ndarray, axis: int, matrix: np.ndarray) -> np.ndarray:
    out = np.tensordot(matrix, tensor, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def apply_pauli(state: QuantumState, kind: str, v: LabeledVertex) -> QuantumState:
    """Apply a single-qubit Pauli (kind 'X' or 'Z') to vertex v.

    Used by the stabilizer-expectation oracle; independent of how the
    state was prepared.
    """
    axis = state.qubit_index(v)
    t = state.tensor()
    if kind == "Z":
        t = _apply_z(t, axis)
    elif kind == "X":
        t = np.flip(t, axis=axis)
    else:
        raise ValidationError(f"unknown Pauli kind {kind!r}")
    return QuantumState(t.reshape(-1), state.qubit_order)


def stabilizer_expectation(state: QuantumState, g: InterQlanGraph, v: LabeledVertex) -> float:
    """<psi| X_v prod_{u in N(v)} Z_u |psi>, real part.

    Equals 1 for every vertex exactly when ``state`` is the graph state
    of ``g``.
    """
    phi = apply_pauli(state, "X", v)
    for u in neighbors(g, v):
        phi = apply_pauli(phi, "Z", u)
    return float(np.real(np.vdot(state.amplitudes, phi.amplitudes)))


def project_x(
    state: QuantumState,
    v: LabeledVertex,
    forced_outcome: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[QuantumState, MeasurementOutcome]:
    """Projective X measurement on ``v``; removes the measured qubit.

    The outcome is sampled 50/50 from ``rng`` unless ``forced_outcome``
    pins it. After projection the measured qubit sits in a product |+> or
    |-> and is factored out.
    """
    axis = state.qubit_index(v)
    t = state.tensor()
    flipped = np.flip(t, axis=axis)
    branches = {+1: (t + flipped) / 2, -1: (t - flipped) / 2}
    norms = {s: float(np.linalg.norm(b)) for s, b in branches.items()}
    if forced_outcome is not None:
        if forced_outcome not in (+1, -1):
            raise ValidationError(f"forced outcome must be +1 or -1, got {forced_outcome}")
        outcome = forced_outcome
    else:
        if rng is None:
            rng = np.random.default_rng()
        p_plus = norms[+1] ** 2 / (norms[+1] ** 2 + norms[-1] ** 2)
        outcome = +1 if rng.random() < p_plus else -1
    if norms[outcome] < NORM_TOL:
        raise InternalAssertionError(
            f"X projection on {v.name} with outcome {outcome:+d} has zero norm; "
            "this cannot happen for a non-isolated vertex of a graph state"
        )
    projected = branches[outcome] / norms[outcome]
    idx: list = [slice(None)] * projected.ndim
    idx[axis] = 0
    reduced = projected[tuple(idx)] * np.sqrt(2)
    order = tuple(u for u in state.qubit_order if u != v)
    return (
        QuantumState(reduced.reshape(-1), order),
        MeasurementOutcome(vertex=v, basis="X", result=outcome),
    )


def x_correction_ops(
    g_pre: InterQlanGraph,
    v: LabeledVertex,
    k0: LabeledVertex,
    outcome: int,
) -> list[tuple[str, LabeledVertex]]:
    """The local byproduct operators for one X measurement, per the table above:
    the Z targets in canonical order, then the rotation on ``k0``."""
    i, j = g_pre.position(v), g_pre.position(k0)
    row_v, row_k0 = g_pre.rows[i], g_pre.rows[j]
    if not row_v >> j & 1:
        raise ValidationError(f"k0 {k0.name} was not adjacent to {v.name} before the measurement")
    if outcome == +1:
        z_targets = row_v & ~row_k0 & ~(1 << j)
        rotation = "ry-"
    elif outcome == -1:
        z_targets = row_k0 & ~row_v & ~(1 << i)
        rotation = "ry+"
    else:
        raise ValidationError(f"outcome must be +1 or -1, got {outcome}")
    order = g_pre.order
    ops: list[tuple[str, LabeledVertex]] = [("z", order[b]) for b in bit_indices(z_targets)]
    ops.append((rotation, k0))
    return ops


def describe_corrections(ops: Sequence[tuple[str, LabeledVertex]]) -> str:
    text = {"z": "Z on {}", "ry-": "exp(-i pi/4 Y) on {}", "ry+": "exp(+i pi/4 Y) on {}"}
    return "; ".join(text[kind].format(v.name) for kind, v in ops)


def apply_x_corrections(
    state: QuantumState,
    g_pre: InterQlanGraph,
    v: LabeledVertex,
    k0: LabeledVertex,
    outcome: int,
) -> QuantumState:
    """Undo the measurement byproducts so the state is a graph state again.

    The corrected state equals the graph state of the X-measurement graph
    rule applied to ``g_pre`` at ``v`` with special neighbor ``k0``, up to
    global phase.
    """
    t = state.tensor()
    for kind, target in x_correction_ops(g_pre, v, k0, outcome):
        axis = state.qubit_index(target)
        if kind == "z":
            t = _apply_z(t, axis)
        else:
            t = _apply_1q(t, axis, _RY_MINUS if kind == "ry-" else _RY_PLUS)
    return QuantumState(t.reshape(-1), state.qubit_order)


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>| with ``b`` aligned to ``a``'s qubit order."""
    if a.n != b.n:
        raise ValidationError(f"dimension mismatch: {a.n} vs {b.n} qubits")
    if set(a.qubit_order) != set(b.qubit_order):
        raise ValidationError("states are over different vertex sets")
    if a.qubit_order == b.qubit_order:
        bt = b.amplitudes
    else:
        axes = [b.qubit_order.index(v) for v in a.qubit_order]
        bt = np.transpose(b.tensor(), axes).reshape(-1)
    return float(abs(np.vdot(a.amplitudes, bt)))


# -- pipeline verification ----------------------------------------------


@dataclass(frozen=True)
class BranchResult:
    outcomes: tuple[int, ...]
    fidelity: float
    passed: bool
    corrections: tuple[str, ...]

    @property
    def outcome_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.outcomes)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    branches: tuple[BranchResult, ...]
    min_fidelity: float
    max_fidelity: float
    tolerance: float
    wall_time_s: float

    def to_json(self, normalize: bool = False) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "min_fidelity": self.min_fidelity,
            "max_fidelity": self.max_fidelity,
            "wall_time_s": None if normalize else self.wall_time_s,
            "branches": [
                {
                    "outcomes": b.outcome_string,
                    "fidelity": b.fidelity,
                    "passed": b.passed,
                    "corrections": list(b.corrections),
                }
                for b in self.branches
            ],
        }


def replay_records(g: InterQlanGraph, records: Sequence[MeasurementRecord]) -> InterQlanGraph:
    """Re-apply each recorded step from ``g`` and check it reproduces its post graph.

    Returns the final graph; raises ValidationError on an empty list or an
    inconsistent chain (a step that does not start from the running graph,
    or a post graph that does not match the rule).
    """
    if not records:
        raise ValidationError("verification needs at least one measurement record")
    cur = g
    for r in records:
        if r.pre_graph != cur:
            raise ValidationError(
                f"inconsistent records: step {r.step_index} does not start from the running graph"
            )
        cur, _ = measure_x(cur, r.measured_vertex, r.special_neighbor, r.step_index)
        if cur != r.post_graph:
            raise ValidationError(
                f"inconsistent records: step {r.step_index} post graph does not match the rule"
            )
    return cur


def verify_pipeline(
    g: InterQlanGraph,
    pipeline: Sequence[MeasurementRecord],
    claimed: InterQlanGraph,
    branches: Sequence[tuple[int, ...]] | None = None,
) -> VerificationReport:
    """Certify that a measurement pipeline really produces ``claimed``.

    Prepares the graph state of ``g`` once and, from it, replays every
    recorded measurement for each outcome combination (all 2**k by
    default, or the ``branches`` subset), applies the byproduct
    corrections, and compares against the graph state of ``claimed``.
    Branches share the start state safely because every step returns a
    new array. Success means every branch reaches fidelity 1 within 1e-9.
    """
    if len(g.order) > MAX_QUBITS:
        raise CapacityError(
            f"{len(g.order)} qubits exceed the {MAX_QUBITS}-qubit capacity; use a smaller graph"
        )
    replay_records(g, pipeline)
    if branches is None:
        branches = list(product((+1, -1), repeat=len(pipeline)))
    t0 = time.perf_counter()
    target = prepare_graph_state(claimed)
    start = prepare_graph_state(g)
    results = []
    for combo in branches:
        if len(combo) != len(pipeline):
            raise ValidationError(
                f"branch {combo} does not assign one outcome per measurement"
            )
        state = start
        notes = []
        for record, outcome in zip(pipeline, combo):
            state, _ = project_x(state, record.measured_vertex, forced_outcome=outcome)
            ops = x_correction_ops(
                record.pre_graph, record.measured_vertex, record.special_neighbor, outcome
            )
            state = apply_x_corrections(
                state, record.pre_graph, record.measured_vertex, record.special_neighbor, outcome
            )
            notes.append(f"{record.measured_vertex.name}:{outcome:+d} -> {describe_corrections(ops)}")
        f = fidelity(state, target)
        results.append(
            BranchResult(
                outcomes=tuple(combo),
                fidelity=f,
                passed=bool(f >= 1.0 - FIDELITY_TOL),
                corrections=tuple(notes),
            )
        )
    fids = [b.fidelity for b in results]
    return VerificationReport(
        passed=all(b.passed for b in results),
        branches=tuple(results),
        min_fidelity=min(fids),
        max_fidelity=max(fids),
        tolerance=FIDELITY_TOL,
        wall_time_s=time.perf_counter() - t0,
    )

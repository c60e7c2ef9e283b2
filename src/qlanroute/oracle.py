"""Brute-force state-vector verifier for the graph-level measurement rules.

Graph states are prepared densely, one qubit per vertex in |+> followed by
a controlled-Z per edge, and projective X measurements with
outcome-dependent local corrections are replayed against the graph-rule
results: the corrected post-measurement state must match the graph state
of the rule output with fidelity 1 on every outcome branch.

Conventions
-----------
* A :class:`QuantumState` is its ``amplitudes`` and its ``qubit_order``;
  a qubit's axis is its position in the order, also kept in a dict: a
  verify looks up about 40 axes, and ``tuple.index`` is about 15 times
  slower per lookup.
* Qubit ``i`` of a prepared state is vertex ``g.order[i]``, the graph's
  canonical order (row-major by (qlan, index), super-nodes last), and the
  order is recorded on every state so amplitude vectors are comparable
  across runs. A projection drops one qubit and keeps the others in
  order, so states over one vertex set share one qubit order:
  :func:`fidelity` compares them as they are and rejects two orders.
* ``amplitudes`` is a dense vector of length 2**n; qubit i owns axis i
  of the (2,)*n reshape, i.e. bit i counted from the most significant
  end. Every state the oracle builds is real (``float64``): |+>, the CZ
  signs, the X projector, Z and the byproduct rotations
  exp(-+i pi/4 Y) = (I -+ iY)/sqrt(2), with iY = [[0, 1], [-1, 0]], are
  all real, so no imaginary part ever appears and a complex vector would
  only double the memory traffic. :class:`QuantumState` keeps a
  ``float64`` input as it is and still turns any other input into
  ``complex``; every kernel takes either.
* Tolerances: 1e-10 for norms, 1e-9 for fidelity assertions. Double
  precision throughout. Capacity is capped at 14 qubits.
* Outcomes are forced, never sampled: :func:`verify_pipeline` walks the
  whole outcome tree, one level per recorded measurement, and
  :func:`project_x` builds only the branch it is given. Branches share
  their first outcomes by construction: the corrected state after the
  first measurement feeds both branches that start with its outcome, so
  the four branches of a switch take 6 projections, not 8.
* A :class:`VerificationReport` is a value: its branches, no clock and no
  stored verdict. A branch passes when its fidelity is within 1e-9 of 1,
  so a report cannot claim more than its numbers, and two verifications
  of one run compare equal. The CLI times the call and writes the time.

Kernels
-------
Every single-qubit step reads the contiguous view
``t = amplitudes.reshape(2**axis, 2, rest)`` of qubit ``axis``: ``t[:, 0]``
and ``t[:, 1]`` are the halves where the qubit is 0 and 1. A projection
returns ``t[:, 0] +- t[:, 1]`` normalised; a Z negates ``t[:, 1]`` of one
copy in place; a Y rotation replaces both halves by their sum and
difference and scales by 1/sqrt(2). A graph state is built from the
adjacency rows by doubling once per qubit, without a pass per edge; the
``(-1)**popcount`` sign table and the index array it reads are built once
per qubit count, on first use, never at import.

numpy is imported inside the functions that build or transform
amplitudes, not at module level: the CLI imports this module for every
command, and only ``verify`` and ``complement --oracle`` run the oracle.

Correction table
----------------
After an X measurement on vertex a with special neighbor k0, with
neighborhoods N taken in the pre-measurement graph, the post-projection
state is returned to graph-state form by:

    outcome +1:  exp(-i pi/4 Y_k0)  then  Z_b for b in N(a) \\ (N(k0) u {k0})
    outcome -1:  exp(+i pi/4 Y_k0)  then  Z_b for b in N(k0) \\ (N(a) u {a})

Each Z-target set is one mask over the pre-measurement adjacency rows,
``row(a) & ~row(k0) & ~bit(k0)`` for +1 and the mirror for -1, listed in
bit order, which is the canonical order. A verification evaluates the
table once per (measurement, outcome); that one list feeds both the
branch's correction note and :func:`apply_x_corrections`.

This is the standard local-byproduct table for graph-state X measurements
(Hein, Duer, Eisert, Raussendorf, Van den Nest, Briegel, "Entanglement in
graph states and its applications", arXiv:quant-ph/0602096, Sec. 2); the
rotation-sign branch matching our CZ and projector conventions is pinned
by the fidelity sweep in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .errors import CapacityError, InternalAssertionError, UnknownVertexError, ValidationError
from .graph import InterQlanGraph, LabeledVertex, bit_indices
from .switching import MeasurementRecord, measure_x

if TYPE_CHECKING:
    import numpy as np

MAX_QUBITS = 14
NORM_TOL = 1e-10
FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class QuantumState:
    """Dense amplitude vector over the live vertices of a graph."""

    amplitudes: np.ndarray
    qubit_order: tuple[LabeledVertex, ...]
    _axis: dict[LabeledVertex, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        import numpy as np

        amps = np.asarray(self.amplitudes)
        if amps.dtype != np.float64:
            amps = amps.astype(complex, copy=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "qubit_order", tuple(self.qubit_order))
        n = len(self.qubit_order)
        axis = dict(zip(self.qubit_order, range(n)))
        if len(axis) != n:
            raise ValidationError("qubit_order must map distinct vertices to qubits")
        object.__setattr__(self, "_axis", axis)
        if amps.shape != (2**n,):
            raise ValidationError(
                f"amplitude vector has length {amps.shape}, expected ({2 ** n},) for {n} qubits"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
            raise ValidationError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def n(self) -> int:
        return len(self.qubit_order)

    def qubit_index(self, v: LabeledVertex) -> int:
        try:
            return self._axis[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v.name} is not live in this state") from None


@lru_cache(maxsize=None)
def _sign_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(-1)**popcount(x)`` and ``x`` for ``x`` below ``2**(n-1)``, the
    tables an ``n``-qubit preparation doubles with: built on first use,
    then kept read-only for every later state of ``n`` qubits."""
    import numpy as np

    parity_sign = np.ones(1 << n >> 1)  # doubled up to 2**(n-1)
    size = 1
    while size < len(parity_sign):
        np.negative(parity_sign[:size], out=parity_sign[size:2 * size])
        size *= 2
    index = np.arange(len(parity_sign))
    parity_sign.flags.writeable = index.flags.writeable = False
    return parity_sign, index


def prepare_graph_state(g: InterQlanGraph) -> QuantumState:
    """|+>^n followed by one CZ per edge; qubit ``i`` is ``g.order[i]``.

    Amplitude ``x`` is ``2**(-n/2)`` times -1 per edge with both ends set
    in ``x``. The vector doubles once per qubit, last qubit first: with
    ``psi[:size]`` the state of the qubits after qubit ``k``, the block
    ``psi[size:2*size]`` where ``k`` is 1 is ``psi[:size]`` times -1 per
    neighbor of ``k`` set in the index, read from a table of
    ``(-1)**popcount``.
    """
    import numpy as np

    n = len(g.order)
    if n > MAX_QUBITS:
        raise CapacityError(
            f"{n} qubits exceed the {MAX_QUBITS}-qubit dense-vector capacity; use a smaller graph"
        )
    parity_sign, index = _sign_tables(n)
    psi = np.empty(1 << n)
    psi[0] = 2 ** (-n / 2)
    size = 1
    for row in reversed(g.rows):
        # qubit j is index bit n-1-j, so the qubits after k are the bits below size
        later = int(f"{row:0{n}b}"[::-1], 2) & (size - 1)
        np.multiply(psi[:size], parity_sign[index[:size] & later], out=psi[size:2 * size])
        size *= 2
    return QuantumState(psi, g.order)


def project_x(state: QuantumState, v: LabeledVertex, outcome: int) -> QuantumState:
    """Projective X measurement on ``v`` with its ``outcome`` forced; removes
    the measured qubit.

    On the view ``t = amplitudes.reshape(2**axis, 2, rest)`` the forced
    branch ``(t + outcome * X_v t) / 2`` is ``h / 2`` in the half where
    ``v`` is 0 and ``outcome * h / 2`` in the other, with
    ``h = t[:, 0] + outcome * t[:, 1]``: the measured qubit sits in a
    product |+> or |-> and is factored out, leaving ``h`` normalised.
    """
    import numpy as np

    if outcome not in (+1, -1):
        raise ValidationError(f"forced outcome must be +1 or -1, got {outcome}")
    axis = state.qubit_index(v)
    t = state.amplitudes.reshape(1 << axis, 2, -1)
    reduced = t[:, 0] + t[:, 1] if outcome == +1 else t[:, 0] - t[:, 1]
    norm = float(np.linalg.norm(reduced))
    if norm < NORM_TOL * np.sqrt(2):  # the branch itself has norm ``norm / sqrt(2)``
        raise InternalAssertionError(
            f"X projection on {v.name} with outcome {outcome:+d} has zero norm; "
            "this cannot happen for a non-isolated vertex of a graph state"
        )
    reduced /= norm
    order = state.qubit_order[:axis] + state.qubit_order[axis + 1:]
    return QuantumState(reduced.reshape(-1), order)


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
    state: QuantumState, ops: Sequence[tuple[str, LabeledVertex]]
) -> QuantumState:
    """Apply the byproduct operators ``ops`` so the state is a graph state again.

    With ``ops = x_correction_ops(g_pre, v, k0, outcome)`` applied to what
    ``project_x(state, v, outcome)`` left, the corrected state equals the
    graph state of the X-measurement graph rule applied to ``g_pre`` at
    ``v`` with special neighbor ``k0``, up to global phase.
    """
    import numpy as np

    amps = state.amplitudes.copy()
    for kind, target in ops:
        t = amps.reshape(1 << state.qubit_index(target), 2, -1)
        low, high = t[:, 0], t[:, 1]
        if kind == "z":
            high *= -1
        else:
            # exp(-i pi/4 Y): (low, high) -> (low - high, high + low) / sqrt(2)
            # exp(+i pi/4 Y): (low, high) -> (low + high, high - low) / sqrt(2)
            combine, update = (np.subtract, np.add) if kind == "ry-" else (np.add, np.subtract)
            new_low = combine(low, high)
            update(high, low, out=high)
            low[...] = new_low
            amps *= 1 / np.sqrt(2)  # not sqrt(0.5), one ulp above: the golden reports use this
    return QuantumState(amps, state.qubit_order)


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>| of two states over the same qubits in the same order.

    Every state built from a graph has the graph's canonical qubit order,
    so states over one vertex set are never permuted against each other.
    Equal orders are the one check: they mean one dimension and one vertex
    set.
    """
    import numpy as np

    if a.qubit_order != b.qubit_order:
        raise ValidationError(
            f"states order their qubits differently: dimension {a.n} vs {b.n}, "
            f"vertex sets {[v.name for v in a.qubit_order]} vs {[v.name for v in b.qubit_order]}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


# -- pipeline verification ----------------------------------------------


@dataclass(frozen=True)
class BranchResult:
    outcomes: tuple[int, ...]
    fidelity: float
    corrections: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.fidelity >= 1.0 - FIDELITY_TOL

    @property
    def outcome_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.outcomes)


@dataclass(frozen=True)
class VerificationReport:
    """Every outcome branch of one verification; the verdict is read from them.

    A pure function of the verified run: it holds no clock, so two
    verifications of the same inputs compare equal.
    """

    branches: tuple[BranchResult, ...]

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.branches)

    @property
    def min_fidelity(self) -> float:
        return min(b.fidelity for b in self.branches)

    @property
    def max_fidelity(self) -> float:
        return max(b.fidelity for b in self.branches)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": FIDELITY_TOL,
            "min_fidelity": self.min_fidelity,
            "max_fidelity": self.max_fidelity,
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
    for step, r in enumerate(records):
        if r.pre_graph != cur:
            raise ValidationError(
                f"inconsistent records: step {step} does not start from the running graph"
            )
        cur, _ = measure_x(cur, r.measured_vertex, r.special_neighbor)
        if cur != r.post_graph:
            raise ValidationError(
                f"inconsistent records: step {step} post graph does not match the rule"
            )
    return cur


def verify_pipeline(
    g: InterQlanGraph,
    pipeline: Sequence[MeasurementRecord],
    claimed: InterQlanGraph,
) -> VerificationReport:
    """Certify that a measurement pipeline really produces ``claimed``.

    Prepares the graph state of ``g`` once and walks the outcome tree one
    recorded measurement at a time: each state of a level is projected on
    both outcomes and corrected, so the level after measurement ``k`` holds
    the 2**(k+1) corrected states, ``+`` before ``-``. Branches share the
    steps of their common first outcomes by construction, so two
    measurements take 6 projections, not 8. Every leaf is compared against
    the graph state of ``claimed``; success means every branch reaches
    fidelity 1 within 1e-9. A ``g`` over the 14-qubit capacity raises
    :class:`CapacityError` from :func:`prepare_graph_state`, before any
    amplitude is allocated.
    """
    replay_records(g, pipeline)
    level = [((), prepare_graph_state(g))]  # (outcomes so far, corrected state)
    target = prepare_graph_state(claimed)
    # the byproducts depend only on (measurement, outcome): evaluate each once
    byproducts = {}
    for k, r in enumerate(pipeline):
        for s in (+1, -1):
            ops = x_correction_ops(r.pre_graph, r.measured_vertex, r.special_neighbor, s)
            byproducts[k, s] = ops, f"{r.measured_vertex.name}:{s:+d} -> {describe_corrections(ops)}"
    for k, r in enumerate(pipeline):
        v = r.measured_vertex
        level = [(combo + (s,), apply_x_corrections(project_x(state, v, s), byproducts[k, s][0]))
                 for combo, state in level for s in (+1, -1)]
    return VerificationReport(tuple(
        BranchResult(
            outcomes=combo,
            fidelity=fidelity(state, target),
            corrections=tuple(byproducts[k, s][1] for k, s in enumerate(combo)),
        )
        for combo, state in level
    ))

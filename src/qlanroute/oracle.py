"""Brute-force state-vector verifier for the graph-level measurement rules.

Graph states are prepared densely, one qubit per vertex in |+> followed by
a controlled-Z per edge, and projective X measurements with
outcome-dependent local corrections are replayed against the graph-rule
results: the corrected post-measurement state must match the graph state
of the rule output with fidelity 1 on every outcome branch.

Conventions
-----------
* A state is a plain amplitude vector, and a graph owns its qubit
  order: qubit ``i`` of a state of ``g`` is vertex ``g.order[i]``, the
  canonical order (row-major by (qlan, index), super-nodes last).
  :func:`project_x` and :func:`apply_x_corrections` take that graph
  beside the vector and find each axis with ``g.position(v)``. A
  projection drops one qubit and keeps the others in order, so the
  result is a state of the post-measurement graph, whose order is the
  pre-measurement order without the measured vertex.
* A vector has length 2**n; qubit i owns axis i of the (2,)*n reshape,
  i.e. bit i counted from the most significant end. Every state the
  oracle builds is real (``float64``): |+>, the CZ signs, the X
  projector, Z and the byproduct rotations
  exp(-+i pi/4 Y) = (I -+ iY)/sqrt(2), with iY = [[0, 1], [-1, 0]], are
  all real, so no imaginary part ever appears and a complex vector would
  only double the memory traffic. The kernels take a complex vector as
  well.
* Tolerances: 1e-10 for norms, 1e-9 for fidelity assertions. Double
  precision throughout. Capacity is capped at 14 qubits.
* Outcomes are forced, never sampled: :func:`verify_pipeline` walks the
  whole outcome tree, one level per recorded measurement, and
  :func:`project_x` builds only the branch it is given. Branches share
  their first outcomes by construction: the corrected state after the
  first measurement feeds both branches that start with its outcome, so
  the four branches of a switch take 6 projections, not 8.
* :func:`verify_pipeline` checks the states once, where they meet the
  claim: the claimed graph must have the replayed output's order, and
  every leaf and the claimed graph's state must have norm 1 within 1e-10
  (a NaN norm fails too). A branch passes on a fidelity of at least
  1 - 1e-9, a one-sided test, so without the norm check a kernel that
  scaled a state up could pass it.
* A :class:`VerificationReport` is a value: its branches, no clock and no
  stored verdict. A branch's verdict is read from its fidelity, so a
  report cannot claim more than its numbers, and two verifications of
  one run compare equal. The CLI times the call and writes the time.

Kernels
-------
Every single-qubit step reads the contiguous view
``t = psi.reshape(2**axis, 2, rest)`` of qubit ``axis``: ``t[:, 0]``
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

    outcome +1:  Z_b for b in N(a) \\ (N(k0) u {k0}),  and exp(-i pi/4 Y_k0)
    outcome -1:  Z_b for b in N(k0) \\ (N(a) u {a}),   and exp(+i pi/4 Y_k0)

k0 is never a Z target (the +1 set excludes it, and the -1 set lies in
N(k0)), so every operator acts on its own qubit and they all commute.
Each Z-target set is one mask over the pre-measurement adjacency rows,
``row(a) & ~row(k0) & ~bit(k0)`` for +1 and the mirror for -1.
:func:`x_correction_ops` lists the Z targets in bit order, which is the
canonical order, and the rotation last; :func:`apply_x_corrections`
applies them in that order, and a branch's correction note in
``verification.json`` reads in it. A verification evaluates the table
once per (measurement, outcome); that one list feeds both the note and
the corrections.

This is the standard local-byproduct table for graph-state X measurements
(Hein, Duer, Eisert, Raussendorf, Van den Nest, Briegel, "Entanglement in
graph states and its applications", arXiv:quant-ph/0602096, Sec. 2); the
rotation-sign branch matching our CZ and projector conventions is pinned
by the fidelity sweep in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .errors import CapacityError, InternalAssertionError, ValidationError
from .graph import InterQlanGraph, LabeledVertex, bit_indices
from .switching import MeasurementRecord, measure_x

if TYPE_CHECKING:
    import numpy as np

MAX_QUBITS = 14
NORM_TOL = 1e-10
FIDELITY_TOL = 1e-9


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


def prepare_graph_state(g: InterQlanGraph) -> np.ndarray:
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
    return psi


def project_x(psi: np.ndarray, g: InterQlanGraph, v: LabeledVertex, outcome: int) -> np.ndarray:
    """Projective X measurement on ``v`` of a state ``psi`` of ``g``, with its
    ``outcome`` forced; removes the measured qubit.

    On the view ``t = psi.reshape(2**axis, 2, rest)`` the forced
    branch ``(t + outcome * X_v t) / 2`` is ``h / 2`` in the half where
    ``v`` is 0 and ``outcome * h / 2`` in the other, with
    ``h = t[:, 0] + outcome * t[:, 1]``: the measured qubit sits in a
    product |+> or |-> and is factored out, leaving ``h`` normalised.
    """
    import numpy as np

    if outcome not in (+1, -1):
        raise ValidationError(f"forced outcome must be +1 or -1, got {outcome}")
    t = psi.reshape(1 << g.position(v), 2, -1)
    reduced = t[:, 0] + t[:, 1] if outcome == +1 else t[:, 0] - t[:, 1]
    norm = float(np.linalg.norm(reduced))
    if norm < NORM_TOL * np.sqrt(2):  # the branch itself has norm ``norm / sqrt(2)``
        raise InternalAssertionError(
            f"X projection on {v.name} with outcome {outcome:+d} has zero norm; "
            "this cannot happen for a non-isolated vertex of a graph state"
        )
    reduced /= norm
    return reduced.reshape(-1)


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
    psi: np.ndarray, g: InterQlanGraph, ops: Sequence[tuple[str, LabeledVertex]]
) -> np.ndarray:
    """Apply the byproduct operators ``ops`` to a copy of the state ``psi`` of
    ``g``, in list order, so it is a graph state again.

    With ``ops = x_correction_ops(g_pre, v, k0, outcome)`` applied to what
    ``project_x(psi, g_pre, v, outcome)`` left, and ``g`` the graph that
    ``measure_x(g_pre, v, k0)`` returns, the corrected state equals the
    graph state of ``g`` up to global phase.
    """
    import numpy as np

    amps = psi.copy()
    for kind, target in ops:
        t = amps.reshape(1 << g.position(target), 2, -1)
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
    return amps


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| of two state vectors over the same qubits; vectors of two
    lengths hold two qubit counts and raise :class:`ValidationError`."""
    import numpy as np

    if a.shape != b.shape:
        raise ValidationError(f"states of dimension {a.size} and {b.size} cannot be compared")
    return float(abs(np.vdot(a, b)))


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
    measurements take 6 projections, not 8. Each projection reads its
    axes from the record's pre graph and each correction from its post
    graph; the replay has proved that these chain. Every leaf is compared
    against the graph state of ``claimed``, which must have the replayed
    output's vertex order, and each of these states must have norm 1;
    success means every branch reaches fidelity 1 within 1e-9. A ``g`` over the 14-qubit
    capacity raises :class:`CapacityError` from
    :func:`prepare_graph_state`, before any amplitude is allocated.
    """
    import numpy as np

    out = replay_records(g, pipeline)
    if claimed.order != out.order:
        raise ValidationError(
            f"the claimed graph has vertices {[v.name for v in claimed.order]}, "
            f"the pipeline leaves {[v.name for v in out.order]}"
        )
    level = [((), prepare_graph_state(g))]  # (outcomes so far, corrected state)
    target = prepare_graph_state(claimed)
    # the byproducts depend only on (measurement, outcome): evaluate each once
    byproducts = {}
    for k, r in enumerate(pipeline):
        for s in (+1, -1):
            ops = x_correction_ops(r.pre_graph, r.measured_vertex, r.special_neighbor, s)
            byproducts[k, s] = ops, f"{r.measured_vertex.name}:{s:+d} -> {describe_corrections(ops)}"
    for k, r in enumerate(pipeline):
        pre, post, v = r.pre_graph, r.post_graph, r.measured_vertex
        level = [(combo + (s,), apply_x_corrections(project_x(psi, pre, v, s), post, byproducts[k, s][0]))
                 for combo, psi in level for s in (+1, -1)]
    for psi in [target] + [psi for _, psi in level]:
        norm = float(np.linalg.norm(psi))
        if not abs(norm - 1.0) <= NORM_TOL:  # also catches a NaN norm
            raise InternalAssertionError(f"a state of norm {norm}, not 1, reached the fidelity test")
    return VerificationReport(tuple(
        BranchResult(
            outcomes=combo,
            fidelity=fidelity(psi, target),
            corrections=tuple(byproducts[k, s][1] for k, s in enumerate(combo)),
        )
        for combo, psi in level
    ))

"""Super-node augmentation and the pipeline that switches a network to its complement.

A pair of super-nodes, one per QLAN and joined by an inter-link, is wired
into the client population in one of two ways:

* Case I: each super-node connects to every non-retained client of the
  opposite QLAN.
* Case II: each super-node connects to every non-retained client of its
  own QLAN. That graph intentionally carries intra-QLAN edges, a
  deliberate relaxation of the cross-QLAN-only rule.

Measuring the two super-nodes in the X basis, s2 first and then s1 with a
fixed special neighbor k0, removes them and leaves the clients holding the
complement topology: remote client pairs become adjacent and vice versa.
:func:`run_pipeline` is the one entry point for that switch, whichever
case built the augmented graph and whether or not clients are retained.
The cost is constant, two measurements, no matter how many clients or
requests are involved. Clients listed as retained are left out of the
switch simply by not wiring them to the super-nodes.

:class:`AugmentedGraph` adds and wires the super-nodes itself, from one
Case I/II rule, so an augmented graph is valid by construction: the
pipeline checks the inputs, never the wiring.

At graph level an X measurement on vertex ``a`` with special neighbor
``k0`` acts as ``tau_k0( tau_a( tau_k0(G) ) - a )``. The graph rule is
outcome-independent; outcome-dependent local byproducts live at the state
level and are handled by the oracle's correction layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Iterable, Sequence

from .errors import InternalAssertionError, ValidationError
from .graph import (
    EdgeRows,
    InterQlanGraph,
    LabeledVertex,
    Qlan,
    bit_indices,
    delete_vertex,
    first_intra_qlan_edge,
    local_complement,
    super_node,
    validate_client_graph,
)


class AugmentationCase(Enum):
    """How the super-nodes attach to the clients: "I" remote, "II" local."""

    CASE_I = "I"
    CASE_II = "II"


@dataclass(frozen=True)
class AugmentedGraph:
    """A client graph ``base`` plus two fresh super-nodes wired by ``case``.

    ``retained`` clients keep their original inter-links: they are
    adjacent to neither super-node and sit out the complement switch.
    The constructor checks its inputs, ``case`` an :class:`AugmentationCase`
    member among them, and wires ``graph`` itself, so an AugmentedGraph is
    valid by construction.
    """

    base: InterQlanGraph
    case: AugmentationCase
    retained: frozenset[LabeledVertex] = field(default_factory=frozenset)
    graph: InterQlanGraph = field(init=False, compare=False)

    s1: ClassVar[LabeledVertex] = super_node(Qlan.Q1)
    s2: ClassVar[LabeledVertex] = super_node(Qlan.Q2)

    def __post_init__(self) -> None:
        g = self.base
        validate_client_graph(g)
        if not isinstance(self.case, AugmentationCase):
            raise ValidationError(f"augmentation case must be an AugmentationCase, got {self.case!r}")
        if g.n1 == 0 or g.n2 == 0:
            raise ValidationError("empty QLAN: augmentation needs at least one client per QLAN")
        retained = frozenset(self.retained)
        for r in retained:
            if r not in g:
                raise ValidationError(f"retained vertex {r.name} is not in the graph")
        held = sum(g.bit(r) for r in retained)
        q1, q2 = g.client_mask(Qlan.Q1) & ~held, g.client_mask(Qlan.Q2) & ~held
        # Case I wires each switching client to the opposite QLAN's super-node,
        # Case II to its own QLAN's super-node
        to_s1, to_s2 = (q2, q1) if self.case is AugmentationCase.CASE_I else (q1, q2)
        # the supers go last in canonical order: s1 at position n, s2 at n + 1
        n = len(g.order)
        b1, b2 = 1 << n, 1 << (n + 1)
        rows = list(g.rows) + [to_s1 | b2, to_s2 | b1]
        for i in bit_indices(to_s1):
            rows[i] |= b1
        for i in bit_indices(to_s2):
            rows[i] |= b2
        graph = InterQlanGraph._from_rows(g.order + (self.s1, self.s2), rows)
        object.__setattr__(self, "retained", retained)
        object.__setattr__(self, "graph", graph)


@dataclass(frozen=True)
class MeasurementRecord:
    """One X measurement step: who was measured, with which k0, and the
    graphs immediately before and after. A step is its position in the
    pipeline's list of records. :func:`measure_x` checks k0's adjacency;
    the oracle's replay re-runs it on every record it is handed."""

    measured_vertex: LabeledVertex
    special_neighbor: LabeledVertex
    pre_graph: InterQlanGraph
    post_graph: InterQlanGraph


def augment_case1(g: InterQlanGraph, retain: Iterable[LabeledVertex] = ()) -> AugmentedGraph:
    """Add fresh super-nodes wired to the opposite QLAN's non-retained clients."""
    return AugmentedGraph(g, AugmentationCase.CASE_I, retain)


def augment_case2(g: InterQlanGraph, retain: Iterable[LabeledVertex] = ()) -> AugmentedGraph:
    """Add fresh super-nodes wired to their own QLAN's non-retained clients."""
    return AugmentedGraph(g, AugmentationCase.CASE_II, retain)


# -- measurement -------------------------------------------------------


def measure_x(g: InterQlanGraph, a: LabeledVertex,
              k0: LabeledVertex) -> tuple[InterQlanGraph, MeasurementRecord]:
    """X-measure vertex ``a`` using neighbor ``k0``: tau_k0(tau_a(tau_k0(g)) - a).

    Deterministic given (g, a, k0); the record captures the step for
    audit, replay and state-level verification.
    """
    if not g.row(a):
        raise ValidationError(f"X-measurement requires a neighbor, but {a.name} is isolated")
    if not g.has_edge(a, k0):
        raise ValidationError(f"k0 {k0.name} is not adjacent to the measured vertex {a.name}")
    h = local_complement(g, k0)
    h = local_complement(h, a)
    h = delete_vertex(h, a)
    post = local_complement(h, k0)
    return post, MeasurementRecord(a, k0, g, post)


def eligible_k0(aug: AugmentedGraph) -> tuple[LabeledVertex, ...]:
    """Clients usable as the special neighbor: the clients adjacent to s2.

    The wiring puts only non-retained clients there, of QLAN 1 in Case I
    and of QLAN 2 in Case II.
    """
    g = aug.graph
    return tuple(g.order[i] for i in bit_indices(g.row(aug.s2) & g.client_mask()))


def default_k0(aug: AugmentedGraph) -> LabeledVertex:
    """Lowest-index eligible client. The output never depends on the choice."""
    candidates = eligible_k0(aug)
    if not candidates:
        raise ValidationError("no valid k0 exists: every eligible client is retained or missing")
    return candidates[0]


def run_pipeline(
    aug: AugmentedGraph, k0: LabeledVertex | None = None
) -> tuple[InterQlanGraph, list[MeasurementRecord]]:
    """The switch: X-measure s2 then s1 with the special neighbor ``k0``.

    The result keeps the base graph's clients, in either case: a cross
    pair with neither end retained is complemented, a pair with a
    retained end keeps its input adjacency, and no intra-QLAN edge
    appears. With no retained clients that is exactly the complement of
    the base graph. ``k0`` defaults to :func:`default_k0`; the output
    never depends on the choice.
    """
    if k0 is None:
        k0 = default_k0(aug)
    elif k0 not in eligible_k0(aug):
        raise ValidationError(
            f"k0 {k0.name} is not eligible: it must be a non-retained "
            f"{'QLAN 1' if aug.case is AugmentationCase.CASE_I else 'QLAN 2'} client adjacent to s2"
        )
    s1, s2 = aug.s1, aug.s2
    g1, rec1 = measure_x(aug.graph, s2, k0)
    if not g1.has_edge(s1, k0):
        raise InternalAssertionError(
            f"k0 {k0.name} should be adjacent to s1 after the first measurement; it is not"
        )
    g2, rec2 = measure_x(g1, s1, k0)
    if g2.supers():
        raise InternalAssertionError("pipeline output still contains a super-node")
    e = first_intra_qlan_edge(g2)
    if e is not None:
        raise InternalAssertionError(
            f"pipeline output has intra-QLAN edge ({e[0].name}, {e[1].name})"
        )
    return g2, [rec1, rec2]


# -- trace export ------------------------------------------------------


def _graph_snapshot(g: InterQlanGraph) -> dict:
    return {
        "vertices": [v.name for v in g.order],
        "edges": EdgeRows(g),
    }


def records_to_json(records: Sequence[MeasurementRecord]) -> list[dict]:
    """Ordered trace of a pipeline run, for audit and replay."""
    return [
        {
            "step": step,
            "measured": r.measured_vertex.name,
            "k0": r.special_neighbor.name,
            "pre": _graph_snapshot(r.pre_graph),
            "post": _graph_snapshot(r.post_graph),
        }
        for step, r in enumerate(records)
    ]

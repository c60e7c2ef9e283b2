"""qlanroute: graph-complement switching for entanglement routing between two QLANs.

The package turns the pathfinding problem "entangle these remote
source-destination pairs" into a single constant-cost graph manipulation:
augment the inter-QLAN graph state with two super-nodes, X-measure them,
and every remote client pair becomes adjacent at once. A dense
state-vector oracle certifies each graph-level step, and a routing
simulator quantifies the strategy against the traditional
swap-along-a-path baseline.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    InternalAssertionError,
    QlanRouteError,
    UnknownVertexError,
    ValidationError,
)
from .graph import client_graph
from .oracle import replay_records, verify_pipeline
from .routing import compare, execute_complement, run_tqr
from .scenario import load_scenario, scenario_graph, scenario_requests, scenario_topology
from .switching import augment_case1, augment_case2, run_pipeline

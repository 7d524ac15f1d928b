"""Power domination, twin classes, and resolving sets on finite simple graphs.

The package also generates the fractal cubic network family and checks
the monitoring and landmark invariants that make that family interesting:
both its power domination number and its resolving power domination
number grow as 4 to the power of the network dimension.
"""

from .core import (
    Bounds,
    Graph,
    GraphError,
    LimitExceeded,
    VertexSet,
    bfs_distances,
    build_graph,
    closed_neighborhood,
    components,
    diameter,
    induced_subgraph,
    is_connected,
)
from .fcn import (
    canonical_power_dominating_set,
    fractal_cubic_network,
)
from .formats import (
    from_edgelist_text,
    from_json_text,
    load_graph,
    loads_graph,
    to_dot,
    to_edgelist_text,
    to_json_text,
)
from .oracle import OracleResult, brute_force
from .powerdom import (
    Propagation,
    PropagationTrace,
    greedy_power_dominating_set,
    is_power_dominating_set,
    monitoring_closure,
    power_domination_bounds,
    trace_to_text,
    twin_lower_bound,
)
from .report import build_report, degree_histogram, report_to_json, verify_report
from .resolving import (
    greedy_resolving_set,
    is_resolving_power_dominating,
    is_resolving_set,
    metric_dimension,
    metric_dimension_bounds,
    resolving_power_domination_bounds,
    twin_resolving_lower_bound,
)
from .twins import (
    TwinPartition,
    twin_partition,
    twin_report,
)
from .version import VERSION as __version__

__all__ = [
    "Bounds",
    "Graph",
    "GraphError",
    "LimitExceeded",
    "VertexSet",
    "bfs_distances",
    "build_graph",
    "closed_neighborhood",
    "components",
    "diameter",
    "induced_subgraph",
    "is_connected",
    "canonical_power_dominating_set",
    "fractal_cubic_network",
    "from_edgelist_text",
    "from_json_text",
    "load_graph",
    "loads_graph",
    "to_dot",
    "to_edgelist_text",
    "to_json_text",
    "OracleResult",
    "brute_force",
    "Propagation",
    "PropagationTrace",
    "greedy_power_dominating_set",
    "is_power_dominating_set",
    "monitoring_closure",
    "power_domination_bounds",
    "trace_to_text",
    "twin_lower_bound",
    "build_report",
    "degree_histogram",
    "report_to_json",
    "verify_report",
    "greedy_resolving_set",
    "is_resolving_power_dominating",
    "is_resolving_set",
    "metric_dimension",
    "metric_dimension_bounds",
    "resolving_power_domination_bounds",
    "twin_resolving_lower_bound",
    "TwinPartition",
    "twin_partition",
    "twin_report",
    "__version__",
]

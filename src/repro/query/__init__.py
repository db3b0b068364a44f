"""Query workloads, the engine protocol, the scatter–gather planner,
the cold-cache harness and the concurrent serving layer."""

from repro.query.cluster import (
    ClusterError,
    ClusterRouter,
    ClusterUpdateReport,
    ShardServerHandle,
)
from repro.query.engine import CallableEngine, QueryEngine
from repro.query.benchmarks import (
    BenchmarkSpec,
    PAPER_LSS_FRACTION,
    PAPER_SN_FRACTION,
    QUERY_COUNT,
    SCALED_LSS_FRACTION,
    SCALED_SN_FRACTION,
    lss_benchmark,
    sn_benchmark,
)
from repro.query.executor import (
    QueryRunResult,
    run_knn_queries,
    run_point_queries,
    run_queries,
)
from repro.query.knn import expanding_radius_knn
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.prefetch import (
    PrefetchArea,
    Prefetcher,
    SessionTracker,
    TrajectoryModel,
)
from repro.query.service import (
    MODE_PROCESS,
    MODE_THREAD,
    QueryService,
    ServiceReport,
    UpdateReport,
)
from repro.query.workload import (
    random_points,
    random_range_queries,
    trajectory_range_queries,
)

__all__ = [
    "BenchmarkSpec",
    "CallableEngine",
    "ClusterError",
    "ClusterRouter",
    "ClusterUpdateReport",
    "MODE_PROCESS",
    "MODE_THREAD",
    "PAPER_LSS_FRACTION",
    "PAPER_SN_FRACTION",
    "PrefetchArea",
    "Prefetcher",
    "QUERY_COUNT",
    "QueryEngine",
    "QueryPlan",
    "QueryPlanner",
    "QueryRunResult",
    "QueryService",
    "SCALED_LSS_FRACTION",
    "SCALED_SN_FRACTION",
    "ServiceReport",
    "SessionTracker",
    "ShardServerHandle",
    "TrajectoryModel",
    "UpdateReport",
    "expanding_radius_knn",
    "lss_benchmark",
    "random_points",
    "random_range_queries",
    "run_knn_queries",
    "run_point_queries",
    "run_queries",
    "sn_benchmark",
    "trajectory_range_queries",
]

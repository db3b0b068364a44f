"""Query execution harness: cold caches, per-category accounting.

Runs a batch of queries against any
:class:`~repro.query.engine.QueryEngine` over a :class:`PageStore`,
clearing the buffer pool (and the decode memo) before every query
exactly as the paper does ("Before each query is executed, the OS
caches and disk buffers are cleared").  Alongside page reads, the
harness aggregates page-*decode* counters, so CPU-side parsing work is
reported next to the I/O every figure measures.

Three entry points share one accounting loop:

* :func:`run_queries` — ``(N, 6)`` boxes through ``range_query``.
* :func:`run_point_queries` — ``(N, 3)`` points through the engine's
  own ``point_query`` (not a caller-side degenerate-box conversion), so
  point workloads get the same cold-cache accounting through whatever
  specialized path an engine has.
* :func:`run_knn_queries` — ``(N, 3)`` points through ``knn_query``.

The harness is planner-aware: engines that expose ``last_plan`` (the
sharded index) get their per-query shard routing collected into
:attr:`QueryRunResult.per_query_shards`, so shard pruning is reported
next to the per-category page reads it saves.  For a sharded engine,
pass its ``store`` facade (a
:class:`~repro.storage.pagestore.PageStoreGroup`) as the *store*
argument — cache clearing and stat snapshots fan out to every shard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.storage.diskmodel import DiskModel
from repro.storage.pagestore import PageStore
from repro.storage.stats import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    CATEGORY_RTREE_INTERNAL,
    CATEGORY_RTREE_LEAF,
    CATEGORY_SEED_INTERNAL,
)


@dataclass
class QueryRunResult:
    """Aggregated outcome of one benchmark run on one index."""

    index_name: str
    query_count: int = 0
    result_elements: int = 0
    reads_by_category: dict = field(default_factory=dict)
    #: Logical page decodes by decode kind ("metadata" / "element").
    decodes_by_kind: dict = field(default_factory=dict)
    #: Decodes absorbed by the store's decode memo, by decode kind.
    decode_hits_by_kind: dict = field(default_factory=dict)
    cpu_seconds: float = 0.0
    #: Peak BFS bookkeeping bytes per query (FLAT only), for Sec. VII-E.2.
    bookkeeping_bytes: list = field(default_factory=list)
    per_query_reads: list = field(default_factory=list)
    per_query_results: list = field(default_factory=list)
    #: Shards each query was routed to (planner-aware engines only).
    per_query_shards: list = field(default_factory=list)

    # -- totals ----------------------------------------------------------

    @property
    def total_page_reads(self) -> int:
        return sum(self.reads_by_category.values())

    def reads_in(self, *categories: str) -> int:
        return sum(self.reads_by_category.get(c, 0) for c in categories)

    @property
    def total_page_decodes(self) -> int:
        """Full page decodes performed across all decode kinds."""
        return sum(self.decodes_by_kind.values())

    def decodes_in(self, *kinds: str) -> int:
        return sum(self.decodes_by_kind.get(k, 0) for k in kinds)

    @property
    def pages_per_result(self) -> float:
        """Page reads per result element (Figs. 3, 15, 19)."""
        if self.result_elements == 0:
            return float("nan")
        return self.total_page_reads / self.result_elements

    @property
    def mean_shards_touched(self) -> float:
        """Average shards a query was scattered to (sharded engines)."""
        if not self.per_query_shards:
            return float("nan")
        return float(np.mean(self.per_query_shards))

    # -- derived breakdowns ------------------------------------------------

    @property
    def hierarchy_reads(self) -> int:
        """Non-payload reads: R-Tree non-leaf or FLAT seed+metadata pages."""
        return self.reads_in(
            CATEGORY_RTREE_INTERNAL, CATEGORY_SEED_INTERNAL, CATEGORY_METADATA
        )

    @property
    def payload_reads(self) -> int:
        """Payload reads: R-Tree leaf or FLAT object pages."""
        return self.reads_in(CATEGORY_RTREE_LEAF, CATEGORY_OBJECT)

    def simulated_seconds(self, disk: DiskModel | None = None) -> float:
        """End-to-end simulated time (I/O model + measured CPU)."""
        disk = disk or DiskModel()
        return disk.total_seconds(self.total_page_reads, self.cpu_seconds)


def _run_batch(
    index,
    execute,
    store: PageStore,
    items: np.ndarray,
    index_name: str,
    clear_cache_between: bool,
) -> QueryRunResult:
    """The shared accounting loop: cold caches, per-query stat diffs."""
    result = QueryRunResult(index_name=index_name or type(index).__name__)
    for item in items:
        if clear_cache_between:
            store.clear_cache()
        before = store.stats.snapshot()
        t0 = time.perf_counter()
        hits = execute(item)
        result.cpu_seconds += time.perf_counter() - t0
        delta = store.stats.diff(before)

        result.query_count += 1
        result.result_elements += len(hits)
        result.per_query_reads.append(delta.total_reads)
        result.per_query_results.append(len(hits))
        for category, reads in delta.reads.items():
            result.reads_by_category[category] = (
                result.reads_by_category.get(category, 0) + reads
            )
        for kind, decodes in delta.decode_misses.items():
            result.decodes_by_kind[kind] = (
                result.decodes_by_kind.get(kind, 0) + decodes
            )
        for kind, hit_count in delta.decode_hits.items():
            result.decode_hits_by_kind[kind] = (
                result.decode_hits_by_kind.get(kind, 0) + hit_count
            )
        crawl = getattr(index, "last_crawl_stats", None)
        if crawl is not None:
            result.bookkeeping_bytes.append(crawl.bookkeeping_bytes)
        plan = getattr(index, "last_plan", None)
        if plan is not None:
            result.per_query_shards.append(len(plan.shards_selected))
    return result


def run_queries(
    index,
    store: PageStore,
    queries: np.ndarray,
    index_name: str = "",
    clear_cache_between: bool = True,
) -> QueryRunResult:
    """Execute every range query, cold-cached, and aggregate the accounting.

    *index* is any :class:`~repro.query.engine.QueryEngine`; the harness
    only calls ``range_query`` and (optionally) reads
    ``last_crawl_stats`` / ``last_plan``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != 6:
        raise ValueError(f"expected (N, 6) query boxes, got {queries.shape}")
    return _run_batch(
        index, index.range_query, store, queries, index_name, clear_cache_between
    )


def run_point_queries(
    index,
    store: PageStore,
    points: np.ndarray,
    index_name: str = "",
    clear_cache_between: bool = True,
) -> QueryRunResult:
    """Point-query variant (Fig. 2's overlap probe).

    Drives the engine's own ``point_query`` — the same cold-cache
    accounting as range batches, through whatever specialized
    point-lookup path the engine implements.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {points.shape}")
    return _run_batch(
        index, index.point_query, store, points, index_name, clear_cache_between
    )


def run_knn_queries(
    index,
    store: PageStore,
    points: np.ndarray,
    k: int,
    index_name: str = "",
    clear_cache_between: bool = True,
) -> QueryRunResult:
    """kNN variant: each point through ``knn_query(point, k)``.

    Gives the kNN crawl the same per-category cold-cache accounting as
    the paper's range workloads, so engines compare on page reads.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {points.shape}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return _run_batch(
        index,
        lambda point: index.knn_query(point, k),
        store,
        points,
        index_name,
        clear_cache_between,
    )

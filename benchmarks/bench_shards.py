"""Micro-benchmark: sharded FLAT vs monolithic — range and kNN scaling.

Builds the monolithic FLAT index and :class:`ShardedFLATIndex` at
several shard counts over the same microcircuit density step, then
measures two workloads per configuration:

* **range** — the SN benchmark (Figs. 12/13) through the planner-aware
  cold-cache harness, so shard pruning shows up next to the
  per-category page reads it saves;
* **kNN** — random query points through the expanding-radius crawl
  (monolithic) and the MINDIST-ordered shard walk (sharded), pinned to
  a brute-force k-nearest baseline.

On top of the single-threaded accounting, each shard count is served
through :class:`QueryService` at increasing worker counts — one pool
task per query, whose worker clone prunes, crawls the touched shards
in turn and merges — reporting throughput vs shard count and worker
count.

Run ``python benchmarks/bench_shards.py`` to print a summary and emit
``BENCH_shards.json`` (the scale-out trajectory artifact tracked
across PRs).
"""

from __future__ import annotations

import numpy as np

from bench_common import describe_workload, finish, workload_parser
from repro.core import FLATIndex, ShardedFLATIndex
from repro.data.microcircuit import build_microcircuit
from repro.geometry import mbr_distance_to_point
from repro.query import (
    BenchmarkSpec,
    QueryService,
    SCALED_SN_FRACTION,
    random_points,
    run_knn_queries,
    run_queries,
)
from repro.storage import PageStore

#: Default workload: the SN benchmark at reproduction scale plus a kNN
#: probe batch, swept over shard and worker counts.
N_ELEMENTS = 20_000
VOLUME_SIDE = 15.0
QUERY_COUNT = 60
KNN_QUERY_COUNT = 30
KNN_K = 10
SEED = 7
SHARD_COUNTS = (1, 2, 4, 8)
WORKER_COUNTS = (1, 2, 4)


def _run_stats(run) -> dict:
    stats = {
        "total_page_reads": run.total_page_reads,
        "reads_by_category": dict(run.reads_by_category),
        "result_elements": run.result_elements,
        "cpu_seconds": run.cpu_seconds,
    }
    if run.per_query_shards:
        stats["mean_shards_touched"] = run.mean_shards_touched
    return stats


def _serve(index, queries, knn_points, k, workers: int) -> dict:
    with QueryService(index, workers=workers) as service:
        range_report = service.run(queries, "range")
        knn_report = service.run_knn(knn_points, k, "knn")
    return {
        "workers": workers,
        "range_qps": range_report.throughput_qps,
        "range_page_reads": range_report.total_page_reads,
        "shard_tasks": range_report.shard_tasks,
        "shards_pruned": range_report.shards_pruned,
        "knn_qps": knn_report.throughput_qps,
        "knn_page_reads": knn_report.total_page_reads,
        "range_per_query_results": range_report.per_query_results,
    }


def run_shard_bench(
    n_elements: int = N_ELEMENTS,
    volume_side: float = VOLUME_SIDE,
    query_count: int = QUERY_COUNT,
    seed: int = SEED,
    shard_counts=SHARD_COUNTS,
    worker_counts=WORKER_COUNTS,
    knn_query_count: int = KNN_QUERY_COUNT,
    knn_k: int = KNN_K,
) -> dict:
    """Build monolithic + sharded indexes; measure and cross-check both."""
    circuit = build_microcircuit(n_elements, side=volume_side, seed=seed)
    mbrs = circuit.mbrs()
    store = PageStore()
    flat = FLATIndex.build(store, mbrs, space_mbr=circuit.space_mbr)
    spec = BenchmarkSpec("SN", SCALED_SN_FRACTION, query_count)
    queries = spec.queries(circuit.space_mbr, seed=seed + 202)
    knn_points = random_points(circuit.space_mbr, knn_query_count, seed=seed + 404)

    mono_range = run_queries(flat, store, queries, "flat-monolithic")
    mono_knn = run_knn_queries(flat, store, knn_points, knn_k, "flat-monolithic")

    # Brute-force kNN baseline: k smallest (distance, id) per point.
    brute = []
    for point in knn_points:
        dists = mbr_distance_to_point(mbrs, point)
        brute.append(np.lexsort((np.arange(len(mbrs)), dists))[:knn_k])

    knn_matches_brute = all(
        np.array_equal(flat.knn_query(point, knn_k), expected)
        for point, expected in zip(knn_points, brute)
    )

    shard_runs = []
    sharded_range_match = True
    sharded_knn_match = True
    for target in shard_counts:
        sharded = ShardedFLATIndex.build(
            mbrs, target, space_mbr=circuit.space_mbr
        )
        range_run = run_queries(
            sharded, sharded.store, queries, f"flat-{target}-shards"
        )
        knn_run = run_knn_queries(
            sharded, sharded.store, knn_points, knn_k, f"flat-{target}-shards"
        )
        # Element-id-level pin, not just result counts.
        sharded_range_match &= all(
            np.array_equal(sharded.range_query(query), flat.range_query(query))
            for query in queries
        )
        sharded_knn_match &= all(
            np.array_equal(sharded.knn_query(point, knn_k), expected)
            for point, expected in zip(knn_points, brute)
        )
        serving = [
            _serve(sharded, queries, knn_points, knn_k, workers)
            for workers in worker_counts
        ]
        sharded_range_match &= all(
            run["range_per_query_results"] == mono_range.per_query_results
            for run in serving
        )
        for run in serving:
            del run["range_per_query_results"]  # bulky; summarized in checks
        shard_runs.append(
            {
                "target_shards": target,
                "actual_shards": sharded.shard_count,
                "shard_elements": sharded.shard_element_counts(),
                "range": _run_stats(range_run),
                "knn": _run_stats(knn_run),
                "serving": serving,
            }
        )

    return {
        "benchmark": "shards",
        "workload": {
            "figure": "fig13",
            "benchmark": "SN",
            "n_elements": n_elements,
            "volume_side": volume_side,
            "volume_fraction": SCALED_SN_FRACTION,
            "query_count": query_count,
            "knn_query_count": knn_query_count,
            "knn_k": knn_k,
            "seed": seed,
        },
        "monolithic": {"range": _run_stats(mono_range), "knn": _run_stats(mono_knn)},
        "shard_runs": shard_runs,
        "checks": {
            "sharded_results_match_monolithic": sharded_range_match,
            "knn_matches_brute_force": bool(knn_matches_brute),
            "sharded_knn_matches_brute_force": bool(sharded_knn_match),
            "throughput_positive": all(
                run["range_qps"] > 0 and run["knn_qps"] > 0
                for entry in shard_runs
                for run in entry["serving"]
            ),
        },
    }


def main(argv=None) -> int:
    parser = workload_parser(
        __doc__.splitlines()[0],
        elements=N_ELEMENTS,
        side=VOLUME_SIDE,
        queries=QUERY_COUNT,
        seed=SEED,
        out="BENCH_shards.json",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=list(SHARD_COUNTS),
        help="shard counts to sweep",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=list(WORKER_COUNTS),
        help="worker counts to sweep",
    )
    parser.add_argument("--knn-queries", type=int, default=KNN_QUERY_COUNT)
    parser.add_argument("--knn-k", type=int, default=KNN_K)
    args = parser.parse_args(argv)
    report = run_shard_bench(
        args.elements,
        args.side,
        args.queries,
        args.seed,
        tuple(args.shards),
        tuple(args.workers),
        args.knn_queries,
        args.knn_k,
    )

    print(describe_workload(report))
    mono = report["monolithic"]
    print(f"monolithic: range reads={mono['range']['total_page_reads']} "
          f"knn reads={mono['knn']['total_page_reads']}")
    for entry in report["shard_runs"]:
        rng_stats, knn_stats = entry["range"], entry["knn"]
        print(f"  shards={entry['actual_shards']}: "
              f"range reads={rng_stats['total_page_reads']} "
              f"(touched {rng_stats.get('mean_shards_touched', 1):.2f}), "
              f"knn reads={knn_stats['total_page_reads']}")
        for run in entry["serving"]:
            print(f"    workers={run['workers']}: "
                  f"range {run['range_qps']:8.1f} q/s "
                  f"({run['shard_tasks']} tasks, {run['shards_pruned']} pruned), "
                  f"knn {run['knn_qps']:8.1f} q/s")
    return finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())

"""Micro-benchmark: query latency under snapshot-isolated update storms.

Builds a sharded FLAT index over one microcircuit density step and
serves the SN range workload through
:class:`~repro.query.service.QueryService` in three phases:

* **before** — steady-state serving, no writers;
* **during** — an updater thread applies insert+delete batches through
  :meth:`~repro.query.service.QueryService.apply_updates` (each commit
  is a merge: the shards it touches are bulkloaded afresh beside the
  served generation, which is then atomically swapped out) while the
  query loop keeps serving;
* **after** — steady-state serving on the final generation.

Reported per phase: query throughput, mean latency and page reads per
query; for the storm itself: update throughput (elements applied per
second) and per-commit wall time.  The correctness gate re-checks a
sample of the served queries against a brute-force scan of the final
element set — served results must be exact after any number of commits.
The read-cost gate serves the same queries from a fresh
:meth:`~repro.core.sharded.ShardedFLATIndex.build` of the final live set:
page reads per query after the storm must be within 10 % of it
(``reads_after_storm_within_10pct_of_bulkload``) — merges must not let
read cost drift with turnover.

A second, **sustained-stream** section measures the LSM-style write
path: a tight updater loop pushes insert+delete batches through the
service at several ``delta_threshold`` settings (0 = every commit is a
merge) while a query loop keeps serving.  Each
frontier point reports sustained ingest rate (elements per second of
commit wall time), p50/p95 commit latency and p50/p95 query latency
during the stream — the ingest-rate vs. query-latency frontier the
delta layer buys.  Exactness is gated twice per point: mid-stream with
a non-empty delta attached (``served_results_exact_with_delta``) and
after :meth:`~repro.query.service.QueryService.flush_delta` drained
everything into pages (``served_results_exact_after_storm``).  The
top-threshold point's ingest rate is gated at ``--ingest-gate``
elements/s (default 25 000; pass 0 to disable, e.g. on shared CI).

Run ``python benchmarks/bench_updates.py`` to print a summary and emit
``BENCH_updates.json`` (the update-trajectory artifact tracked across
PRs).
"""

from __future__ import annotations

import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bench_common import describe_workload, finish, workload_parser
from repro.core import (
    FLATIndex,
    ShardedFLATIndex,
    restore_index,
    snapshot_index,
)
from repro.data.microcircuit import build_microcircuit
from repro.geometry.intersect import boxes_intersect_box
from repro.query import (
    MODE_PROCESS,
    BenchmarkSpec,
    QueryService,
    SCALED_SN_FRACTION,
)
from repro.storage import PageStore

#: Default workload: the SN benchmark's fixed-volume boxes over a
#: microcircuit, sized for stable numbers in a few seconds.
N_ELEMENTS = 20_000
VOLUME_SIDE = 15.0
QUERY_COUNT = 60
SEED = 13
SHARD_COUNT = 4
WORKERS = 4
UPDATE_BATCHES = 8
BATCH_INSERTS = 400
BATCH_DELETES = 400
#: Sustained-stream defaults: steady-state churn (inserts == deletes,
#: stable index size — merge cost scales with the live index, so a
#: growth stream measures index growth, not the write path) with
#: enough batches to cross several merge boundaries at the top
#: threshold.  The query loop serves a paced background load (one
#: batch every ``STREAM_QUERY_PAUSE`` seconds) rather than saturating
#: every core, so the frontier measures the write path under serving,
#: not CPU starvation on small hosts.
STREAM_BATCHES = 24
STREAM_INSERTS = 1500
STREAM_DELETES = 1500
STREAM_QUERY_PAUSE = 0.5
FRONTIER_THRESHOLDS = (0, 4000, 16000)
INGEST_GATE = 25_000.0


def _phase_stats(name: str, reports: list) -> dict:
    queries = sum(r.query_count for r in reports)
    wall = sum(r.wall_seconds for r in reports)
    reads = sum(r.total_page_reads for r in reports)
    return {
        "phase": name,
        "query_count": queries,
        "wall_seconds": wall,
        "throughput_qps": queries / wall if wall > 0 else float("nan"),
        "mean_latency_ms": 1000.0 * wall / queries if queries else float("nan"),
        "page_reads_per_query": reads / queries if queries else float("nan"),
    }


def run_updates_bench(
    n_elements: int = N_ELEMENTS,
    volume_side: float = VOLUME_SIDE,
    query_count: int = QUERY_COUNT,
    seed: int = SEED,
    shard_count: int = SHARD_COUNT,
    workers: int = WORKERS,
    update_batches: int = UPDATE_BATCHES,
    batch_inserts: int = BATCH_INSERTS,
    batch_deletes: int = BATCH_DELETES,
) -> dict:
    """Serve queries before/during/after an update storm; return the report."""
    circuit = build_microcircuit(n_elements, side=volume_side, seed=seed)
    mbrs = circuit.mbrs()
    index = ShardedFLATIndex.build(
        mbrs, shard_count=shard_count, space_mbr=circuit.space_mbr
    )
    spec = BenchmarkSpec("SN", SCALED_SN_FRACTION, query_count)
    queries = spec.queries(circuit.space_mbr, seed=seed + 404)

    live = {i: mbrs[i] for i in range(len(mbrs))}
    rng = np.random.default_rng(seed + 1)
    commits: list = []

    def one_batch(service: QueryService) -> None:
        lo = rng.uniform(circuit.space_mbr[:3], circuit.space_mbr[3:],
                         size=(batch_inserts, 3))
        inserts = np.concatenate(
            [lo, lo + rng.uniform(0.01, 0.5, size=(batch_inserts, 3))], axis=1
        )
        deletable = np.fromiter(live, dtype=np.int64, count=len(live))
        deletes = rng.choice(deletable, size=min(batch_deletes, len(deletable)),
                             replace=False)
        report = service.apply_updates(inserts=inserts, delete_ids=deletes)
        for gid, mbr in zip(report.inserted_ids, inserts):
            live[int(gid)] = mbr
        for gid in deletes:
            del live[int(gid)]
        commits.append(report)

    with QueryService(index, workers=workers) as service:
        before = [service.run(queries, "before") for _ in range(2)]

        storm_done = threading.Event()

        def storm() -> None:
            try:
                for _ in range(update_batches):
                    one_batch(service)
            finally:
                storm_done.set()

        during: list = []
        updater = threading.Thread(target=storm, name="updater")
        updater.start()
        while not storm_done.is_set():
            during.append(service.run(queries, "during"))
        updater.join()

        after = [service.run(queries, "after") for _ in range(2)]
        final_version = service.current_version

        # Exactness gate: the served results on the final generation
        # must match a brute-force scan of the tracked element set.
        ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
        boxes = np.stack([live[int(i)] for i in ids])
        exact = all(
            np.array_equal(
                service.submit(query).result(),
                ids[boxes_intersect_box(boxes, query)],
            )
            for query in queries
        )

    # The read-cost bar: a fresh bulkload of the final live set, served
    # the same way.  A merge rebuilds the shards it touches, so the
    # stormed index should read about what the fresh one reads.
    fresh = ShardedFLATIndex.build(
        boxes, shard_count=shard_count, space_mbr=circuit.space_mbr
    )
    with QueryService(fresh, workers=workers) as service:
        bulkload = [service.run(queries, "bulkload") for _ in range(2)]

    updated = sum(c.update_count for c in commits)
    commit_wall = sum(c.wall_seconds for c in commits)
    phases = [
        _phase_stats("before", before),
        _phase_stats("during", during),
        _phase_stats("after", after),
    ]
    fresh_reads = _phase_stats("bulkload", bulkload)["page_reads_per_query"]
    reads_ratio = phases[2]["page_reads_per_query"] / fresh_reads
    return {
        "benchmark": "updates",
        "workload": {
            "benchmark": "SN",
            "n_elements": n_elements,
            "volume_side": volume_side,
            "volume_fraction": SCALED_SN_FRACTION,
            "query_count": query_count,
            "seed": seed,
            "shard_count": shard_count,
            "workers": workers,
            "update_batches": update_batches,
            "batch_inserts": batch_inserts,
            "batch_deletes": batch_deletes,
        },
        "phases": phases,
        "updates": {
            "commits": len(commits),
            "elements_applied": updated,
            "throughput_eps": updated / commit_wall if commit_wall > 0 else 0.0,
            "mean_commit_seconds": commit_wall / len(commits) if commits else 0.0,
            "final_version": final_version,
            "final_element_count": len(live),
        },
        "fresh_bulkload": {
            "page_reads_per_query": fresh_reads,
            "reads_after_storm_over_bulkload": reads_ratio,
        },
        "checks": {
            "served_results_exact_after_storm": exact,
            "reads_after_storm_within_10pct_of_bulkload": reads_ratio <= 1.10,
            "all_commits_published": final_version == update_batches,
            "update_throughput_positive": updated > 0 and commit_wall > 0,
            "query_throughput_positive": all(
                p["throughput_qps"] > 0 for p in phases
            ),
            "queries_served_during_storm": phases[1]["query_count"] > 0,
        },
    }


# -- the sustained-stream frontier ---------------------------------------


def _latency_ms(samples, points=(50, 95)) -> dict:
    """p50/p95 of a latency sample list, in milliseconds."""
    if not len(samples):
        return {}
    values = np.percentile(np.asarray(samples) * 1000.0, points)
    return {f"p{p}": float(v) for p, v in zip(points, values)}


@contextmanager
def _restored_snapshot(index, directory: Path):
    """Snapshot *index* into *directory* and yield the restored engine."""
    snapshot_index(index, directory)
    restored = restore_index(directory)
    try:
        yield restored
    finally:
        restored.store.close()


def _served_exact(service: QueryService, live: dict, queries) -> bool:
    ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    boxes = np.stack([live[int(i)] for i in ids])
    return all(
        np.array_equal(
            service.submit(query).result(),
            ids[boxes_intersect_box(boxes, query)],
        )
        for query in queries
    )


def _stream_point(
    circuit,
    mbrs: np.ndarray,
    queries: np.ndarray,
    workers: int,
    delta_threshold: int,
    stream_batches: int,
    batch_inserts: int,
    batch_deletes: int,
    seed: int,
    query_pause: float = STREAM_QUERY_PAUSE,
) -> dict:
    """One frontier point: a tight update stream at one delta threshold.

    The stream serves in **process mode** over a restored snapshot:
    query CPU lives in worker processes, so the measured ingest rate is
    the write path's own cost (absorb + merge + publish), not a
    GIL-starvation artifact of the query load — the same reason the
    serving benchmark runs its scaling sweep across processes.  An
    absorbed commit ships nothing to the workers (they keep serving the
    committed generation and the service corrects their answers with
    the delta); each merge publishes the next on-disk generation.
    Warm worker caches (the sustained-serving regime, not the paper's
    cold-accounting one) keep the background load realistic.
    """
    index = FLATIndex.build(PageStore(), mbrs, space_mbr=circuit.space_mbr)
    live = {i: mbrs[i] for i in range(len(mbrs))}
    rng = np.random.default_rng(seed)
    commits: list = []
    stream_done = threading.Event()
    stream_wall = [0.0]

    def fresh_inserts(count: int) -> np.ndarray:
        lo = rng.uniform(
            circuit.space_mbr[:3], circuit.space_mbr[3:], size=(count, 3)
        )
        return np.concatenate(
            [lo, lo + rng.uniform(0.01, 0.5, size=(count, 3))], axis=1
        )

    with tempfile.TemporaryDirectory(prefix="bench-updates-") as tmp, \
            _restored_snapshot(index, Path(tmp) / "gen") as restored, \
            QueryService(
                restored, workers=workers, mode=MODE_PROCESS,
                clear_cache_per_query=False,
                delta_threshold=delta_threshold,
            ) as service:

        def stream() -> None:
            t0 = time.perf_counter()
            try:
                for _ in range(stream_batches):
                    inserts = fresh_inserts(batch_inserts)
                    pool = np.fromiter(live, dtype=np.int64, count=len(live))
                    deletes = rng.choice(
                        pool, size=min(batch_deletes, len(pool)), replace=False
                    )
                    report = service.apply_updates(
                        inserts=inserts, delete_ids=deletes
                    )
                    for gid, mbr in zip(report.inserted_ids, inserts):
                        live[int(gid)] = mbr
                    for gid in deletes:
                        del live[int(gid)]
                    commits.append(report)
            finally:
                stream_wall[0] = time.perf_counter() - t0
                stream_done.set()

        # The paced background load serves a slice of the workload per
        # cycle; on small hosts a saturating query loop would only
        # measure CPU starvation, not the write path.  Exactness checks
        # below still use the full query set.
        stream_queries = queries[: min(len(queries), 20)]
        during: list = []
        updater = threading.Thread(target=stream, name="stream-updater")
        updater.start()
        while not stream_done.is_set():
            during.append(service.run(stream_queries, "stream"))
            if query_pause > 0:
                stream_done.wait(query_pause)
        updater.join()

        # Mid-stream bar: served answers must be exact *while a delta
        # is attached*.  If the stream happened to end right on a merge
        # boundary, absorb one small batch (outside the ingest
        # accounting) so the check genuinely exercises the overlay.
        exact_with_delta = True
        if delta_threshold > 0:
            if service.delta_size == 0:
                pad = fresh_inserts(50)
                pad_report = service.apply_updates(inserts=pad)
                for gid, mbr in zip(pad_report.inserted_ids, pad):
                    live[int(gid)] = mbr
            exact_with_delta = (
                service.delta_size > 0 and _served_exact(service, live, queries)
            )
        # Post-flush bar: a forced generation boundary drains the delta
        # into pages and the answers must not move.
        service.flush_delta()
        exact_after = service.delta_size == 0 and _served_exact(
            service, live, queries
        )

    applied = sum(c.update_count for c in commits)
    commit_wall = sum(c.wall_seconds for c in commits)
    merges = sum(1 for c in commits if c.merged)
    return {
        "delta_threshold": delta_threshold,
        "commits": len(commits),
        "merges": merges,
        "absorbed_commits": len(commits) - merges,
        "elements_applied": applied,
        "ingest_eps": applied / commit_wall if commit_wall > 0 else 0.0,
        "commit_wall_seconds": commit_wall,
        "stream_wall_seconds": stream_wall[0],
        "commit_latency_ms": _latency_ms([c.wall_seconds for c in commits]),
        "query_latency_ms": _latency_ms(
            [lat for r in during for lat in r.latencies_seconds]
        ),
        "queries_served_during_stream": sum(r.query_count for r in during),
        "final_element_count": len(live),
        "served_results_exact_with_delta": exact_with_delta,
        "served_results_exact_after_storm": exact_after,
    }


def run_sustained_stream(
    n_elements: int = N_ELEMENTS,
    volume_side: float = VOLUME_SIDE,
    query_count: int = QUERY_COUNT,
    seed: int = SEED,
    workers: int = WORKERS,
    stream_batches: int = STREAM_BATCHES,
    batch_inserts: int = STREAM_INSERTS,
    batch_deletes: int = STREAM_DELETES,
    thresholds=FRONTIER_THRESHOLDS,
    ingest_gate: float = INGEST_GATE,
    query_pause: float = STREAM_QUERY_PAUSE,
) -> dict:
    """The ingest-rate vs. query-latency frontier across delta thresholds."""
    circuit = build_microcircuit(n_elements, side=volume_side, seed=seed)
    mbrs = circuit.mbrs()
    spec = BenchmarkSpec("SN", SCALED_SN_FRACTION, query_count)
    queries = spec.queries(circuit.space_mbr, seed=seed + 808)
    points = [
        _stream_point(
            circuit, mbrs, queries, workers, int(threshold),
            stream_batches, batch_inserts, batch_deletes, seed + 31 * pos,
            query_pause,
        )
        for pos, threshold in enumerate(thresholds)
    ]
    gated = points[-1]
    return {
        "frontier": points,
        "ingest_gate_eps": ingest_gate,
        "gated_threshold": gated["delta_threshold"],
        "gated_ingest_eps": gated["ingest_eps"],
    }


def main(argv=None) -> int:
    parser = workload_parser(
        __doc__.splitlines()[0],
        elements=N_ELEMENTS,
        side=VOLUME_SIDE,
        queries=QUERY_COUNT,
        seed=SEED,
        out="BENCH_updates.json",
    )
    parser.add_argument("--shards", type=int, default=SHARD_COUNT)
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument("--update-batches", type=int, default=UPDATE_BATCHES)
    parser.add_argument("--batch-inserts", type=int, default=BATCH_INSERTS)
    parser.add_argument("--batch-deletes", type=int, default=BATCH_DELETES)
    parser.add_argument("--stream-batches", type=int, default=STREAM_BATCHES)
    parser.add_argument("--stream-inserts", type=int, default=STREAM_INSERTS)
    parser.add_argument("--stream-deletes", type=int, default=STREAM_DELETES)
    parser.add_argument(
        "--thresholds", type=int, nargs="+",
        default=list(FRONTIER_THRESHOLDS),
        help="delta_threshold frontier points; the last one is gated",
    )
    parser.add_argument(
        "--ingest-gate", type=float, default=INGEST_GATE,
        help="minimum sustained ingest (elements/s) at the last "
             "threshold; 0 disables the gate",
    )
    parser.add_argument(
        "--stream-query-pause", type=float, default=STREAM_QUERY_PAUSE,
        help="pause between query batches during the stream (a paced "
             "background serving load; 0 saturates the pool)",
    )
    args = parser.parse_args(argv)
    report = run_updates_bench(
        args.elements,
        args.side,
        args.queries,
        args.seed,
        args.shards,
        args.workers,
        args.update_batches,
        args.batch_inserts,
        args.batch_deletes,
    )
    sustained = run_sustained_stream(
        args.elements,
        args.side,
        args.queries,
        args.seed,
        args.workers,
        args.stream_batches,
        args.stream_inserts,
        args.stream_deletes,
        args.thresholds,
        args.ingest_gate,
        args.stream_query_pause,
    )
    report["sustained"] = sustained
    points = sustained["frontier"]
    report["checks"].update(
        {
            "sustained_exact_with_delta": all(
                p["served_results_exact_with_delta"] for p in points
            ),
            "sustained_exact_after_flush": all(
                p["served_results_exact_after_storm"] for p in points
            ),
            "sustained_ingest_meets_gate": (
                args.ingest_gate <= 0
                or sustained["gated_ingest_eps"] >= args.ingest_gate
            ),
            "delta_layer_absorbs_commits": any(
                p["absorbed_commits"] > 0
                for p in points
                if p["delta_threshold"] > 0
            ),
        }
    )

    print(describe_workload(report))
    for phase in report["phases"]:
        print(
            f"  {phase['phase']:6s}: {phase['throughput_qps']:8.1f} q/s, "
            f"{phase['mean_latency_ms']:6.2f} ms/query, "
            f"{phase['page_reads_per_query']:7.1f} page reads/query"
        )
    updates = report["updates"]
    print(
        f"  storm : {updates['throughput_eps']:8.1f} elements/s over "
        f"{updates['commits']} commits "
        f"({updates['mean_commit_seconds'] * 1000:.1f} ms/commit), "
        f"final generation {updates['final_version']}"
    )
    fresh = report["fresh_bulkload"]
    print(
        f"  fresh bulkload of the final live set: "
        f"{fresh['page_reads_per_query']:7.1f} page reads/query "
        f"(after the storm: {fresh['reads_after_storm_over_bulkload']:.2f}x)"
    )
    print("sustained stream (ingest vs. latency frontier):")
    for point in points:
        commit_p50 = point["commit_latency_ms"].get("p50", float("nan"))
        commit_p95 = point["commit_latency_ms"].get("p95", float("nan"))
        query_p50 = point["query_latency_ms"].get("p50", float("nan"))
        query_p95 = point["query_latency_ms"].get("p95", float("nan"))
        print(
            f"  threshold={point['delta_threshold']:<6d} "
            f"{point['ingest_eps']:9.0f} el/s  "
            f"commit p50={commit_p50:7.1f}ms p95={commit_p95:7.1f}ms  "
            f"query p50={query_p50:6.1f}ms p95={query_p95:6.1f}ms  "
            f"({point['absorbed_commits']}/{point['commits']} absorbed, "
            f"{point['merges']} merges)"
        )
    return finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())

"""Per-layer metrics of the traced run, and what each one should move.

Layers are named by module.  Each layer row states which end-to-end
metric its numbers should move, on the workloads where the layer does
the work, and the workload where it is bypassed (where the prediction
for a change to that layer is "no change").  Per-query values divide by
the queries of the traced phase; times are demand-path times unless the
name says otherwise (staging crawls are charged to ``query.prefetch``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from perfbench.tracing import STAGING, self_times, under_staging


@dataclass(frozen=True)
class Layer:
    """A layer's row; its metrics are BENCHMARK.json's names under ``name.``."""

    name: str
    moves: str
    works_in: str
    bypassed_in: str


LAYERS = (
    Layer("query.service",
          "ref_speed_qps, ref_speed_latency_p50_ms; "
          "commits: query.service.commit_cpu_ms, ingest_eps, commit_p50_ms",
          "sessions-prefetch, churn", "hotspot-delta64"),
    Layer("query.prefetch",
          "page_reads_per_query, ref_speed_latency_p50_ms, ref_speed_qps; "
          "success_rate",
          "sessions-prefetch", "hotspot-delta64, churn"),
    Layer("core.flat_index",
          "ref_speed_qps; setup_s; "
          "query.service.commit_cpu_ms (write path)",
          "all (crawl), churn (write path)",
          "hotspot-delta64, sessions-prefetch (write path)"),
    Layer("core.seed_index",
          "ref_speed_latency_p50_ms, ref_speed_qps", "all", "none (every query seeds)"),
    Layer("core.delta", "ref_speed_latency_p50_ms, ref_speed_qps", "churn",
          "hotspot-delta64, sessions-prefetch"),
    Layer("core.snapshot",
          "setup_s; churn latency tail (printed), stored_bytes_per_user_byte, "
          "query.service.commit_cpu_ms",
          "all (set-up), churn (publish, worker re-restore)", "none"),
    Layer("storage.pagestore", "page_reads_per_query", "all", "none"),
    Layer("storage.buffer", "page_reads_per_query, ref_speed_qps, peak_rss_mb",
          "hotspot-delta64", "sessions-prefetch, churn"),
    Layer("storage.decoded_cache", "ref_speed_qps", "all", "none"),
    Layer("storage.serial",
          "ref_speed_qps, ref_speed_latency_p50_ms", "all", "none"),
    Layer("storage.codec",
          "ref_speed_qps, ref_speed_latency_p50_ms; setup_s",
          "hotspot-delta64", "sessions-prefetch, churn (raw is the identity codec)"),
    Layer("storage.filestore",
          "ref_speed_qps; stored_bytes_per_user_byte, query.service.commit_cpu_ms",
          "all (reads); churn (writes)", "none"),
    Layer("storage.diskmodel", "moves only with page_reads_per_query, never with CPU",
          "all", "none"),
    Layer("trace", "-", "all", "none"),
    Layer("wall", "as measured, steal and machine speed included: the raw view "
          "of ref_speed_*", "all", "none"),
)


def modeled_io_ms(store, reads_per_query: float) -> float:
    """``DiskModel`` I/O time per query at the store's mean stored page size."""
    from repro.storage import DiskModel

    backend = store.backend
    sizes = [backend.stored_bytes(p) for p in range(len(backend))]
    page_bytes = max(1, int(round(sum(sizes) / max(1, len(sizes)))))
    return DiskModel(page_bytes=page_bytes).random_read_ms * reads_per_query


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def per_layer_metrics(state: dict, tracer, traced, untraced, store,
                      tail: float) -> dict:
    """Every per-layer metric from one traced phase (plus its untraced twin).

    The ``wall.*`` and commit figures come from the untraced phase.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    queries = [root for root in tracer.requests
               if root.name == "request.query" and root.end is not None]
    rids = {root.request for root in queries}
    q = max(1, len(queries))

    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    crawl_start, crawl_time = {}, defaultdict(float)
    commit_spans = defaultdict(list)
    staging = []
    setup_encode = 0.0
    for span in spans:
        if span.end is None:
            continue
        name = span.name
        if under_staging(span):
            if name == STAGING:
                staging.append(span.duration)
            continue
        if span.request in rids:
            total[name] += span.duration
            own[name] += selfs[id(span)]
            calls[name] += 1
            if name == "core.flat_index.range_query":
                crawl_time[span.request] += span.duration
                crawl_start[span.request] = min(
                    crawl_start.get(span.request, span.start), span.start
                )
        elif span.request is None:
            if name == "storage.codec.encode":
                setup_encode += span.duration
        elif name != "request.commit":
            commit_spans[name].append(span.duration)

    counts = tracer.counts()
    stats = traced.stats
    reads = stats.total_reads
    latencies = [root.duration for root in queries]
    merged = [c["merged"] for c in traced.commits]
    updates = commit_spans["query.service.apply_updates"]
    absorb = [t for t, m in zip(updates, merged) if not m]
    merges = [t for t, m in zip(updates, merged) if m]
    # Submit to crawl start; the client opens each request right before
    # it submits.  Staging after the answer is not part of the crawl.
    queued = [crawl_start[root.request] - root.start for root in queries
              if root.request in crawl_start]
    outside = [root.duration - crawl_time[root.request] for root in queries
               if root.request in crawl_start]
    ingest = untraced.commits
    commit_wall = sum(c["seconds"] for c in ingest)
    extras = traced.extras
    prefetch_hits = stats.total_prefetch_hits
    staged = extras.get("staged", 0)
    merges_per_episode = sum(merged) / max(1, traced.passes)
    decode_ms = total["storage.codec.decode"] * 1e3 / q

    def hit_rate(kind: str) -> float:
        hits = stats.decode_hits.get(kind, 0)
        looked = hits + stats.decode_misses.get(kind, 0)
        return hits / looked if looked else 0.0

    parts = state["parts"]
    values = {
        "query.service.queue_wait_ms": _mean(queued) * 1e3,
        "query.service.self_ms": _mean(outside) * 1e3,
        "query.service.absorb_ms": _mean(absorb) * 1e3,
        "query.service.merge_ms": _mean(merges) * 1e3,
        "query.service.ingest_eps": (
            sum(c["elements"] for c in ingest) / commit_wall if commit_wall else 0.0
        ),
        "query.service.commit_p50_ms": (
            float(np.median([c["seconds"] for c in ingest])) * 1e3 if ingest else 0.0
        ),
        # Mean, so that the merges (a few commits in each episode) count.
        "query.service.commit_cpu_ms": _mean([c["cpu"] for c in ingest]) * 1e3,
        "query.prefetch.stage_ms": _mean(staging) * 1e3,
        "query.prefetch.windows_per_query": len(staging) / q,
        "query.prefetch.hit_rate": (
            prefetch_hits / (reads + prefetch_hits) if reads + prefetch_hits else 0.0
        ),
        "query.prefetch.consumed_per_staged": (
            extras.get("consumed", 0) / staged if staged else 0.0
        ),
        "query.prefetch.reads_per_query": (
            sum(extras.get("prefetch_reads", {}).values()) / q
        ),
        "query.prefetch.failures": extras.get("failures", 0),
        "core.flat_index.crawl_self_ms": own["core.flat_index.range_query"] * 1e3 / q,
        "core.flat_index.records_per_query": counts["query.records"] / q,
        "core.flat_index.results_per_object_page": (
            counts["query.results"] / counts["query.object_pages"]
            if counts["query.object_pages"] else 0.0
        ),
        "core.flat_index.build_s": parts["build_s"],
        "core.flat_index.fork_ms": _mean(commit_spans["core.flat_index.fork"]) * 1e3,
        "core.flat_index.apply_batch_ms": (
            _mean(commit_spans["core.flat_index.apply_batch"]) * 1e3
        ),
        "core.seed_index.seed_ms": total["core.seed_index.seed_query"] * 1e3 / q,
        "core.seed_index.fetch_ms": own["core.seed_index.fetch_records_batch"] * 1e3 / q,
        "core.seed_index.fetch_calls_per_query": (
            calls["core.seed_index.fetch_records_batch"] / q
        ),
        "core.delta.overlay_ms": total["core.delta.overlay"] * 1e3 / q,
        "core.delta.rows_at_query": (
            counts["query.delta_rows"] / calls["core.flat_index.range_query"]
            if calls["core.flat_index.range_query"] else 0.0
        ),
        "core.snapshot.export_s": parts["export_s"],
        "core.snapshot.restore_s": parts["restore_s"],
        "core.snapshot.publish_ms": (
            _mean(commit_spans["core.snapshot.publish_fork_generation"]) * 1e3
        ),
        "core.snapshot.worker_restore_ms": (
            total["core.snapshot.restore_index"] * 1e3 / q
        ),
        "storage.pagestore.reads_per_query.object": stats.reads.get("object", 0) / q,
        "storage.pagestore.reads_per_query.metadata": (
            stats.reads.get("metadata", 0) / q
        ),
        "storage.pagestore.reads_per_query.seed_internal": (
            stats.reads.get("seed_internal", 0) / q
        ),
        "storage.pagestore.read_calls_per_query": calls["storage.pagestore.read"] / q,
        "storage.pagestore.read_self_ms": own["storage.pagestore.read"] * 1e3 / q,
        "storage.pagestore.logical_bytes_per_query": reads * 4096 / q,
        "storage.pagestore.physical_bytes_per_query": counts["query.physical_bytes"] / q,
        "storage.buffer.hit_rate": (
            stats.cache_hits / (stats.cache_hits + reads + prefetch_hits)
            if stats.cache_hits + reads + prefetch_hits else 0.0
        ),
        "storage.buffer.evictions_per_query": (
            counts["query.storage.buffer.evictions"] / q
        ),
        "storage.buffer.charged_bytes": extras.get("charged_bytes", 0.0),
        "storage.buffer.held_bytes": extras.get("held_bytes", 0.0),
        "storage.decoded_cache.hit_rate.metadata": hit_rate("metadata"),
        "storage.decoded_cache.hit_rate.element": hit_rate("element"),
        "storage.serial.decode_metadata_ms": (
            total["storage.serial.decode_metadata_page"] * 1e3 / q
        ),
        "storage.serial.decode_metadata_calls_per_query": (
            calls["storage.serial.decode_metadata_page"] / q
        ),
        "storage.serial.decode_element_ms": (
            total["storage.serial.decode_element_page"] * 1e3 / q
        ),
        "storage.serial.decode_element_calls_per_query": (
            calls["storage.serial.decode_element_page"] / q
        ),
        "storage.codec.decode_ms": decode_ms,
        "storage.codec.decode_share": (
            decode_ms / (_mean(latencies) * 1e3) if latencies else 0.0
        ),
        "storage.codec.decode_calls_per_query": calls["storage.codec.decode"] / q,
        "storage.codec.decodes_per_physical_read": (
            calls["storage.codec.decode"] / reads if reads else 0.0
        ),
        "storage.codec.encode_s": setup_encode,
        "storage.filestore.payload_ms": own["storage.filestore.payload"] * 1e3 / q,
        "storage.filestore.commit_ms": _mean(
            commit_spans["storage.filestore.commit_generation"]
            + commit_spans["storage.filestore.append_overlay_generation"]
        ) * 1e3,
        "storage.filestore.bytes_appended_per_merge": (
            extras.get("appended_bytes", 0) / merges_per_episode
            if merges_per_episode else 0.0
        ),
        "storage.diskmodel.modeled_io_ms_per_query": modeled_io_ms(
            store, untraced.pass_reads / max(1, untraced.pass_queries)
        ),
        "trace.unattributed_ms": _mean([selfs[id(root)] for root in queries]) * 1e3,
        # Traced over untraced throughput, both in CPU time per query.
        "trace.overhead": (
            (untraced.cpu / untraced.queries) / (traced.cpu / traced.queries)
        ),
        "wall.qps": untraced.queries / untraced.wall,
        "wall.latency_p50_ms": float(np.percentile(untraced.latencies, 50)) * 1e3,
        "wall.latency_tail_ms": float(np.percentile(untraced.latencies, tail)) * 1e3,
        "wall.cpu_steal_share": untraced.stolen,
    }
    return values

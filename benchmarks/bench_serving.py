"""Micro-benchmark: snapshot → restore → serve (Fig. 13 SN workload).

Builds FLAT over one microcircuit density step in memory, snapshots it
to disk, reopens it over the mmap-backed file store, and serves the SN
benchmark through :class:`~repro.query.service.QueryService` across a
(mode × workers × cache) matrix — thread workers at batch 1 (the
legacy pinned path) and process workers over shared mmap pages with the
multi-query batched crawl, cold caches (the paper's regime: every query
drops its worker's buffer pool + decode memo) and warm (caches accumulate
across queries).  The restored index must return exactly the per-query
results and per-category page reads of the in-memory build; every cold
run, whatever its mode or batching, must reproduce the harness's page
reads byte-exactly.  On top of that equivalence each run reports
throughput, p50/p95/p99 latency and per-worker scaling efficiency, and
the 4-process-worker cold run is gated at ≥ 2.5× the single-worker
cold baseline.

Run ``python benchmarks/bench_serving.py`` to print a summary and emit
``BENCH_serving.json`` (the serving-trajectory artifact tracked across
PRs).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from bench_common import describe_workload, finish, workload_parser
from repro.core import FLATIndex
from repro.data.microcircuit import build_microcircuit
from repro.query import (
    MODE_PROCESS,
    MODE_THREAD,
    BenchmarkSpec,
    QueryService,
    SCALED_SN_FRACTION,
    run_queries,
    trajectory_range_queries,
)
from repro.storage import PageStore

#: Default workload: the SN benchmark (Figs. 12/13) at reproduction
#: scale, enough queries for stable throughput numbers.
N_ELEMENTS = 25_000
VOLUME_SIDE = 15.0
QUERY_COUNT = 120
SEED = 7
WORKER_COUNTS = (1, 2, 4, 8)
MODES = (MODE_THREAD, MODE_PROCESS)
#: Queries per joint-crawl task in process mode; thread mode serves at
#: batch 1 (the per-query path whose decode counters are pinned).
PROCESS_BATCH = 30
#: Cold throughput a ≥4-process-worker run must reach, as a multiple of
#: the single-worker cold baseline.
SPEEDUP_GATE = 2.5

#: Cold session throughput the prefetch-enabled run must reach on the
#: structure-following workload, vs the prefetch-free cold baseline.
PREFETCH_SPEEDUP_GATE = 1.25
#: Minimum fraction of the correlated session's logical demand reads
#: the prefetcher must absorb.
PREFETCH_HIT_RATE_GATE = 0.25
#: Allowed throughput loss on the *uncorrelated* workload with
#: prefetching enabled (the model must gate itself off there).
UNCORRELATED_TOLERANCE = 0.02
#: Timed session runs per configuration; the best one is compared
#: (sub-second single-stream runs are noisy).
PREFETCH_REPEATS = 3


def _serve(index, queries, workers: int, cold: bool, mode: str,
           batch: int) -> dict:
    with QueryService(
        index,
        workers=workers,
        clear_cache_per_query=cold,
        mode=mode,
        batch_queries=batch,
    ) as service:
        # Warm the pool up before timing: spawning worker processes and
        # shipping them the engine is a one-off setup cost, not serving
        # throughput (thread pools get the same treatment for parity).
        for future in [service.submit(q) for q in queries[:workers]]:
            future.result()
        report = service.run(queries, "flat-served")
    latency = report.latency_percentiles()
    return {
        "mode": mode,
        "batch_queries": batch,
        "workers": workers,
        "cache": "cold" if cold else "warm",
        "wall_seconds": report.wall_seconds,
        "throughput_qps": report.throughput_qps,
        "latency_ms": {k: v * 1000.0 for k, v in latency.items()},
        "total_page_reads": report.total_page_reads,
        "cache_hits": report.cache_hits,
        "workers_used": report.workers_used,
        "result_elements": report.result_elements,
        "per_query_results": report.per_query_results,
    }


def _annotate_efficiency(runs: list) -> None:
    """Scaling efficiency = qps / (workers × same-config 1-worker qps)."""
    baselines = {
        (r["mode"], r["cache"], r["batch_queries"]): r["throughput_qps"]
        for r in runs
        if r["workers"] == 1
    }
    for r in runs:
        base = baselines.get((r["mode"], r["cache"], r["batch_queries"]))
        if base and base > 0:
            r["scaling_efficiency"] = r["throughput_qps"] / (r["workers"] * base)


def run_serving_bench(
    n_elements: int = N_ELEMENTS,
    volume_side: float = VOLUME_SIDE,
    query_count: int = QUERY_COUNT,
    seed: int = SEED,
    worker_counts=WORKER_COUNTS,
    snapshot_dir: Path | None = None,
    modes=MODES,
    process_batch: int = PROCESS_BATCH,
) -> dict:
    """Build, snapshot, restore and serve; return the full comparison."""
    circuit = build_microcircuit(n_elements, side=volume_side, seed=seed)
    store = PageStore()
    flat = FLATIndex.build(store, circuit.mbrs(), space_mbr=circuit.space_mbr)
    spec = BenchmarkSpec("SN", SCALED_SN_FRACTION, query_count)
    queries = spec.queries(circuit.space_mbr, seed=seed + 202)

    built = run_queries(flat, store, queries, "flat-built")

    own_tmp = None
    if snapshot_dir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="flat-snapshot-")
        snapshot_dir = Path(own_tmp.name)
    try:
        flat.snapshot(snapshot_dir)
        restored = FLATIndex.restore(snapshot_dir)
        try:
            restored_run = run_queries(
                restored, restored.store, queries, "flat-restored"
            )
            runs = []
            for mode in modes:
                batch = process_batch if mode == MODE_PROCESS else 1
                for workers in worker_counts:
                    runs.append(
                        _serve(restored, queries, workers, True, mode, batch)
                    )
                    runs.append(
                        _serve(restored, queries, workers, False, mode, batch)
                    )
        finally:
            restored.store.close()
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()

    _annotate_efficiency(runs)
    cold_runs = [r for r in runs if r["cache"] == "cold"]
    # The speedup baseline: single-worker cold, preferring the legacy
    # thread/batch=1 configuration when it is part of the sweep.
    cold_single = min(
        cold_runs,
        key=lambda r: (r["workers"], r["mode"] != MODE_THREAD, r["batch_queries"]),
    )
    served_match = all(
        r["per_query_results"] == built.per_query_results for r in runs
    )
    for r in runs:
        del r["per_query_results"]  # bulky; equivalence is summarized in checks
    checks = {
        "restored_identical_results": built.per_query_results
        == restored_run.per_query_results,
        "restored_identical_page_reads": built.reads_by_category
        == restored_run.reads_by_category,
        "served_identical_results": served_match,
        # Every cold run — thread or process, batched or not — must
        # charge exactly the harness's physical page reads.
        "served_cold_reads_match_harness": all(
            r["total_page_reads"] == built.total_page_reads for r in cold_runs
        ),
        "throughput_positive": all(r["throughput_qps"] > 0 for r in runs),
    }
    gated = [
        r
        for r in cold_runs
        if r["mode"] == MODE_PROCESS and r["workers"] >= 4
    ]
    if gated and cold_single["throughput_qps"] > 0:
        best = max(r["throughput_qps"] for r in gated)
        speedup = best / cold_single["throughput_qps"]
        checks["process_cold_speedup_vs_single_worker"] = speedup >= SPEEDUP_GATE
    else:
        speedup = None
    return {
        "benchmark": "serving",
        "workload": {
            "figure": "fig13",
            "benchmark": "SN",
            "n_elements": n_elements,
            "volume_side": volume_side,
            "volume_fraction": SCALED_SN_FRACTION,
            "query_count": query_count,
            "seed": seed,
        },
        "built": {
            "total_page_reads": built.total_page_reads,
            "result_elements": built.result_elements,
        },
        "restored": {
            "total_page_reads": restored_run.total_page_reads,
            "result_elements": restored_run.result_elements,
        },
        "serving": runs,
        "process_cold_speedup": speedup,
        "speedup_gate": SPEEDUP_GATE if speedup is not None else None,
        "checks": checks,
    }


def _serve_pair(index, queries, session_id: str, repeats: int) -> dict:
    """Baseline and prefetch-enabled runs of one session, interleaved.

    Every repetition measures the prefetch-free and the prefetch-enabled
    configuration back to back on fresh services (fresh caches, fresh
    trajectory model) and the fastest run of each is kept.  Interleaving
    matters on a shared machine: slow phases (frequency scaling,
    background load) then hit both configurations alike instead of
    biasing whichever configuration happened to run second.
    """
    best = {False: None, True: None}
    for _ in range(repeats):
        for prefetch in (False, True):
            with QueryService(
                index, workers=1, clear_cache_per_query=True, prefetch=prefetch
            ) as service:
                report = service.run_session(queries, session_id, "flat-session")
            if (
                best[prefetch] is None
                or report.throughput_qps > best[prefetch].throughput_qps
            ):
                best[prefetch] = report
    return {
        "baseline": _session_report_dict(best[False], False),
        "prefetch": _session_report_dict(best[True], True),
    }


def _session_report_dict(report, prefetch: bool) -> dict:
    latency = report.latency_percentiles()
    return {
        "prefetch": prefetch,
        "wall_seconds": report.wall_seconds,
        "throughput_qps": report.throughput_qps,
        "latency_ms": {k: v * 1000.0 for k, v in latency.items()},
        "total_page_reads": report.total_page_reads,
        "reads_by_category": report.reads_by_category,
        "prefetch_hits_by_category": report.prefetch_hits_by_category,
        "total_prefetch_hits": report.total_prefetch_hits,
        "total_prefetch_reads": report.total_prefetch_reads,
        "prefetch_staged": report.prefetch_staged,
        "prefetch_consumed": report.prefetch_consumed,
        "prefetch_wasted": report.prefetch_wasted,
        "prefetch_hit_rate": report.prefetch_hit_rate,
        "result_elements": report.result_elements,
        "per_query_results": report.per_query_results,
    }


def _accounting_identity(baseline: dict, prefetched: dict) -> bool:
    """reads + prefetch_hits per category == the prefetch-free reads."""
    categories = (
        set(baseline["reads_by_category"])
        | set(prefetched["reads_by_category"])
        | set(prefetched["prefetch_hits_by_category"])
    )
    return all(
        prefetched["reads_by_category"].get(c, 0)
        + prefetched["prefetch_hits_by_category"].get(c, 0)
        == baseline["reads_by_category"].get(c, 0)
        for c in categories
    )


def _results_byte_identical(index, queries, session_id: str) -> bool:
    """Prefetch-enabled served ids == the engine's own, element for element."""
    expected = [index.range_query(q) for q in queries]
    with QueryService(
        index, workers=1, clear_cache_per_query=True, prefetch=True
    ) as service:
        return all(
            np.array_equal(service.submit(q, session_id=session_id).result(), want)
            for q, want in zip(queries, expected)
        )


def run_prefetch_bench(
    n_elements: int = N_ELEMENTS,
    volume_side: float = VOLUME_SIDE,
    query_count: int = QUERY_COUNT,
    seed: int = SEED,
    snapshot_dir: Path | None = None,
    repeats: int = PREFETCH_REPEATS,
    speedup_gate: float = PREFETCH_SPEEDUP_GATE,
    uncorrelated_tolerance: float = UNCORRELATED_TOLERANCE,
) -> dict:
    """Trajectory-session serving: prefetch on/off × correlated/uncorrelated.

    The correlated workload walks its boxes along a synthetic neuron
    branch — the access pattern the trajectory model is built for; the
    gate requires the prefetch-enabled cold session to beat the
    prefetch-free cold baseline by :data:`PREFETCH_SPEEDUP_GATE`.  The
    uncorrelated workload is the ordinary random-SN benchmark — there
    the model must gate itself off, and throughput must stay within
    :data:`UNCORRELATED_TOLERANCE` of the baseline.  Both ways, results
    stay byte-identical and ``demand reads + prefetch hits`` equals the
    prefetch-free demand reads per page category.
    """
    circuit = build_microcircuit(n_elements, side=volume_side, seed=seed)
    store = PageStore()
    flat = FLATIndex.build(store, circuit.mbrs(), space_mbr=circuit.space_mbr)
    correlated = trajectory_range_queries(
        circuit.space_mbr, SCALED_SN_FRACTION, query_count, seed=seed + 303
    )
    uncorrelated = BenchmarkSpec("SN", SCALED_SN_FRACTION, query_count).queries(
        circuit.space_mbr, seed=seed + 202
    )

    own_tmp = None
    if snapshot_dir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="flat-snapshot-")
        snapshot_dir = Path(own_tmp.name)
    try:
        flat.snapshot(snapshot_dir)
        restored = FLATIndex.restore(snapshot_dir)
        try:
            runs = {
                "correlated": _serve_pair(restored, correlated, "corr", repeats),
                "uncorrelated": _serve_pair(
                    restored, uncorrelated, "rand", repeats
                ),
            }
            byte_identical = _results_byte_identical(
                restored, correlated, "verify"
            )
        finally:
            restored.store.close()
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()

    corr, rand = runs["correlated"], runs["uncorrelated"]
    speedup = (
        corr["prefetch"]["throughput_qps"] / corr["baseline"]["throughput_qps"]
    )
    rand_ratio = (
        rand["prefetch"]["throughput_qps"] / rand["baseline"]["throughput_qps"]
    )
    checks = {
        "correlated_identical_results": (
            byte_identical
            and corr["prefetch"]["per_query_results"]
            == corr["baseline"]["per_query_results"]
        ),
        "uncorrelated_identical_results": (
            rand["prefetch"]["per_query_results"]
            == rand["baseline"]["per_query_results"]
        ),
        "correlated_read_accounting_identity": _accounting_identity(
            corr["baseline"], corr["prefetch"]
        ),
        "uncorrelated_read_accounting_identity": _accounting_identity(
            rand["baseline"], rand["prefetch"]
        ),
        "prefetch_cold_speedup": speedup >= speedup_gate,
        "prefetch_hit_rate": (
            corr["prefetch"]["prefetch_hit_rate"] >= PREFETCH_HIT_RATE_GATE
        ),
        "uncorrelated_no_regression": (
            rand_ratio >= 1.0 - uncorrelated_tolerance
        ),
    }
    for section in runs.values():
        for run in section.values():
            del run["per_query_results"]  # bulky; summarized in checks
    return {
        "benchmark": "prefetch",
        "workload": {
            "benchmark": "SN-trajectory",
            "n_elements": n_elements,
            "volume_side": volume_side,
            "volume_fraction": SCALED_SN_FRACTION,
            "query_count": query_count,
            "seed": seed,
            "repeats": repeats,
        },
        "sessions": runs,
        "prefetch_cold_speedup": speedup,
        "speedup_gate": speedup_gate,
        "uncorrelated_qps_ratio": rand_ratio,
        "uncorrelated_tolerance": uncorrelated_tolerance,
        "hit_rate_gate": PREFETCH_HIT_RATE_GATE,
        "checks": checks,
    }


def main(argv=None) -> int:
    parser = workload_parser(
        __doc__.splitlines()[0],
        elements=N_ELEMENTS,
        side=VOLUME_SIDE,
        queries=QUERY_COUNT,
        seed=SEED,
        out="BENCH_serving.json",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=list(WORKER_COUNTS),
        help="worker counts to sweep",
    )
    parser.add_argument(
        "--modes", nargs="+", choices=[MODE_THREAD, MODE_PROCESS],
        default=list(MODES), help="execution modes to sweep",
    )
    parser.add_argument(
        "--batch", type=int, default=PROCESS_BATCH,
        help="queries per joint-crawl task in process mode",
    )
    parser.add_argument(
        "--snapshot-dir", type=Path, default=None,
        help="where to write the snapshot (default: a temporary directory)",
    )
    parser.add_argument(
        "--prefetch", action="store_true",
        help="run the trajectory-prefetch session benchmark instead of "
        "the mode/worker sweep (artifact: BENCH_prefetch.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=PREFETCH_REPEATS,
        help="timed session runs per configuration (--prefetch only)",
    )
    parser.add_argument(
        "--speedup-gate", type=float, default=PREFETCH_SPEEDUP_GATE,
        help="correlated cold-speedup gate for --prefetch; 0 disables "
        "(CI runners measure scheduling noise, not the prefetcher)",
    )
    parser.add_argument(
        "--uncorrelated-tolerance", type=float,
        default=UNCORRELATED_TOLERANCE,
        help="allowed uncorrelated q/s loss for --prefetch; 1 disables",
    )
    args = parser.parse_args(argv)
    if args.prefetch:
        if args.out == parser.get_default("out"):
            args.out = args.out.with_name("BENCH_prefetch.json")
        report = run_prefetch_bench(
            args.elements,
            args.side,
            args.queries,
            args.seed,
            args.snapshot_dir,
            args.repeats,
            args.speedup_gate,
            args.uncorrelated_tolerance,
        )
        print(describe_workload(report))
        for name, section in report["sessions"].items():
            for label, run in section.items():
                p50 = run["latency_ms"].get("p50", float("nan"))
                p95 = run["latency_ms"].get("p95", float("nan"))
                print(
                    f"  {name:12s} {label:8s}: {run['throughput_qps']:8.1f} q/s "
                    f"p50={p50:6.2f}ms p95={p95:6.2f}ms "
                    f"({run['total_page_reads']} reads, "
                    f"{run['total_prefetch_hits']} prefetch hits, "
                    f"hit rate {run['prefetch_hit_rate']:.2f})"
                )
        print(
            f"prefetch cold speedup: {report['prefetch_cold_speedup']:.2f}x "
            f"(gate {report['speedup_gate']}x); uncorrelated qps ratio "
            f"{report['uncorrelated_qps_ratio']:.3f}"
        )
        return finish(report, args.out)
    report = run_serving_bench(
        args.elements,
        args.side,
        args.queries,
        args.seed,
        tuple(args.workers),
        args.snapshot_dir,
        tuple(args.modes),
        args.batch,
    )

    print(describe_workload(report))
    for run in report["serving"]:
        p50 = run["latency_ms"].get("p50", float("nan"))
        eff = run.get("scaling_efficiency")
        eff_text = f" eff={eff:4.2f}" if eff is not None else ""
        print(f"  {run['mode']:7s} b={run['batch_queries']:<3d} "
              f"workers={run['workers']} {run['cache']:4s}: "
              f"{run['throughput_qps']:8.1f} q/s p50={p50:6.1f}ms{eff_text} "
              f"({run['total_page_reads']} page reads, "
              f"{run['cache_hits']} cache hits)")
    if report["process_cold_speedup"] is not None:
        print(f"process cold speedup vs single worker: "
              f"{report['process_cold_speedup']:.2f}x (gate {SPEEDUP_GATE}x)")
    return finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())

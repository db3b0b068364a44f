"""Micro-benchmark: compressed page codecs at larger-than-RAM scale.

Builds one microcircuit dataset (millions of elements by default),
exports the same FLAT index under every page codec (``raw`` and
``delta64``), and serves an identical cold range-query workload from
each store with the buffer pool *byte*-constrained below the workload's
raw working set — the serving regime the codecs exist for.  The OS
page cache is dropped (``posix_fadvise``/``madvise DONTNEED``) around
every query so the byte-budgeted pool is the only cache that persists
across queries.

The workload is a **hotspot**: query boxes keep the benchmark's SN
extents but their centers concentrate in a sub-volume (default 5 % of
the space).  The pool budget (default 2.5 % of the raw ``pages.dat``)
is chosen *between* the two working sets: the hotspot's raw pages do
not fit, its delta64 blobs do — so the raw store keeps paying physical
reads for pages the compressed store holds resident.  That is the
larger-than-RAM effect at byte granularity, not a modeling artifact.

What the artifact records, per codec:

* ``pages.dat`` size and the compression ratio vs raw (gated, default
  ``>= 2x``);
* measured cold throughput (q/s) and the physical page reads behind it
  — the same charged byte budget holds ~3x more delta64 pages, so the
  compressed store misses less — plus the physical bytes those reads
  fetched;
* what the pool charges (``pool_resident_bytes``) beside the bytes it
  really holds (``pool_held_bytes``): a page read for its bytes is
  pooled inflated, so a later hit never runs the codec, while a
  metadata leaf read only to be charged is pooled as its stored blob —
  so a delta64 pool holds more than its charge, less than its pages
  inflated;
* modeled I/O seconds from :class:`~repro.storage.diskmodel.DiskModel`
  with ``page_bytes`` set to the codec's mean physical blob size — the
  paper-grade 10 kRPM SAS estimate of the same read counts.

Exactness always gates the exit code: every query must return
element-id-identical results under every codec, and a sample of
logical pages must compare byte-equal across stores.

Run ``python benchmarks/bench_scale.py`` to print a summary and emit
``BENCH_scale.json``.  CI runs a small-but-larger-than-pool smoke
(``--elements 60000 --ratio-gate 1.5``).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from bench_common import describe_workload, finish, workload_parser
from repro.core import FLATIndex, restore_index, snapshot_index
from repro.query import BenchmarkSpec, SCALED_SN_FRACTION
from repro.storage import BufferPool, DiskModel, PageStore
from repro.storage.filestore import PAGES_FILENAME

N_ELEMENTS = 2_000_000
VOLUME_SIDE = 70.0
QUERY_COUNT = 400
SEED = 7
CODECS = ("raw", "delta64")
POOL_FRACTION = 0.025
HOTSPOT_FRACTION = 0.05
RATIO_GATE = 2.0
SAMPLE_PAGES = 512


def _hotspot_queries(spec, space_mbr, hotspot_fraction, seed) -> np.ndarray:
    """SN-sized query boxes with centers inside a central sub-volume.

    The boxes keep the benchmark's per-query extents (same per-query
    page counts as the uniform workload); only their *centers* are
    drawn from a cube covering ``hotspot_fraction`` of the volume, so
    successive queries revisit the same pages — the reuse a buffer
    pool exists to absorb.
    """
    boxes = spec.queries(space_mbr, seed=seed)
    extents = boxes[:, 3:] - boxes[:, :3]
    lo, hi = space_mbr[:3], space_mbr[3:]
    span = hi - lo
    side = hotspot_fraction ** (1.0 / 3.0)  # volume -> per-axis fraction
    hot_lo = lo + span * (0.5 - side / 2.0)
    hot_hi = lo + span * (0.5 + side / 2.0)
    rng = np.random.default_rng(seed + 1)
    centers = rng.uniform(hot_lo, hot_hi, size=(len(boxes), 3))
    return np.concatenate(
        [centers - extents / 2.0, centers + extents / 2.0], axis=1
    )


def _export(flat, workdir, codec) -> dict:
    """Snapshot *flat* under *codec*; return directory + size accounting."""
    directory = Path(workdir) / codec
    start = time.perf_counter()
    snapshot_index(flat, directory, codec=codec)
    wall = time.perf_counter() - start
    data_bytes = (directory / PAGES_FILENAME).stat().st_size
    return {
        "directory": directory,
        "codec": codec,
        "pages_dat_bytes": int(data_bytes),
        "logical_pages": len(flat.store),
        "mean_blob_bytes": data_bytes / max(1, len(flat.store)),
        "snapshot_seconds": wall,
    }


def _page_sample(n_pages, sample, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    count = min(sample, n_pages)
    return rng.choice(n_pages, size=count, replace=False)


def _cold_run(directory, queries, byte_budget, disk: DiskModel,
              mean_blob_bytes: float) -> tuple:
    """Serve *queries* cold through a byte-budgeted pool; return results.

    The buffer pool is the only cache that survives a query: decoded
    pages are dropped per query and the OS cache is dropped around each
    one, so every pool miss is a genuinely cold physical read.
    """
    flat = restore_index(directory, buffer=BufferPool(byte_capacity=byte_budget))
    store = flat.store
    drop = getattr(store.backend, "drop_os_cache", lambda: None)
    try:
        results = []
        drop()
        start = time.perf_counter()
        for query in queries:
            store.decoded.clear()
            results.append(flat.range_query(query))
            drop()
        wall = time.perf_counter() - start
        physical_reads = store.stats.total_reads
        modeled = DiskModel(
            seek_ms=disk.seek_ms,
            rotational_ms=disk.rotational_ms,
            transfer_mb_per_s=disk.transfer_mb_per_s,
            page_bytes=max(1, int(round(mean_blob_bytes))),
        )
        run = {
            "cold_qps": len(queries) / wall if wall > 0 else float("inf"),
            "wall_seconds": wall,
            "physical_reads": int(physical_reads),
            "physical_bytes_read": int(store.stats.total_physical_bytes_read),
            "cache_hits": int(store.stats.cache_hits),
            "modeled_io_seconds": modeled.io_seconds(physical_reads),
            "pool_resident_pages": len(store.buffer),
            "pool_resident_bytes": int(store.buffer.resident_bytes),
            "pool_held_bytes": int(store.buffer.held_bytes),
        }
        return results, run
    finally:
        store.close()


def run_scale_bench(
    n_elements: int = N_ELEMENTS,
    volume_side: float = VOLUME_SIDE,
    query_count: int = QUERY_COUNT,
    seed: int = SEED,
    codecs=CODECS,
    pool_fraction: float = POOL_FRACTION,
    hotspot_fraction: float = HOTSPOT_FRACTION,
    ratio_gate: float = RATIO_GATE,
    sample_pages: int = SAMPLE_PAGES,
) -> dict:
    """Export one index under every codec and race the cold workloads."""
    from repro.data.microcircuit import build_microcircuit

    build_start = time.perf_counter()
    circuit = build_microcircuit(n_elements, side=volume_side, seed=seed)
    flat = FLATIndex.build(PageStore(), circuit.mbrs(),
                           space_mbr=circuit.space_mbr)
    build_seconds = time.perf_counter() - build_start
    spec = BenchmarkSpec("SN", SCALED_SN_FRACTION, query_count)
    queries = _hotspot_queries(
        spec, circuit.space_mbr, hotspot_fraction, seed + 202
    )
    disk = DiskModel()

    with tempfile.TemporaryDirectory(prefix="flatscale-") as workdir:
        stores = {codec: _export(flat, workdir, codec) for codec in codecs}
        raw_bytes = stores["raw"]["pages_dat_bytes"]
        byte_budget = max(1, int(raw_bytes * pool_fraction))

        # Byte-exact pin: the logical pages are codec-invariant.
        sample = _page_sample(len(flat.store), sample_pages, seed + 303)
        restored = {
            codec: restore_index(info["directory"])
            for codec, info in stores.items()
        }
        try:
            pages_identical = all(
                restored[codec].store.read_silent(int(pid))
                == flat.store.read_silent(int(pid))
                for codec in codecs
                for pid in sample
            )
        finally:
            for index in restored.values():
                index.store.close()

        runs = {}
        results = {}
        for codec, info in stores.items():
            results[codec], runs[codec] = _cold_run(
                info["directory"], queries, byte_budget, disk,
                info["mean_blob_bytes"],
            )

    results_identical = all(
        np.array_equal(results[codec][i], results["raw"][i])
        for codec in codecs
        for i in range(len(queries))
    )
    ratios = {
        codec: raw_bytes / info["pages_dat_bytes"]
        for codec, info in stores.items()
    }
    raw_io = runs["raw"]["modeled_io_seconds"]
    for run in runs.values():
        run["modeled_io_speedup_vs_raw"] = (
            raw_io / run["modeled_io_seconds"]
            if run["modeled_io_seconds"] > 0 else float("inf")
        )
    checks = {
        "results_identical_across_codecs": bool(results_identical),
        "logical_pages_identical_across_codecs": bool(pages_identical),
        "delta64_ratio_meets_gate": bool(ratios["delta64"] >= ratio_gate),
        "delta64_reads_not_worse": (
            runs["delta64"]["physical_reads"] <= runs["raw"]["physical_reads"]
        ),
    }

    return {
        "benchmark": "scale",
        "workload": {
            "figure": "fig13",
            "benchmark": "SN",
            "n_elements": n_elements,
            "volume_side": volume_side,
            "volume_fraction": SCALED_SN_FRACTION,
            "query_count": query_count,
            "seed": seed,
            "build_seconds": build_seconds,
            "pool_fraction": pool_fraction,
            "hotspot_fraction": hotspot_fraction,
            "pool_byte_budget": byte_budget,
            "ratio_gate": ratio_gate,
            "sampled_pages": int(len(sample)),
        },
        "stores": {
            codec: {key: value for key, value in info.items()
                    if key != "directory"}
            for codec, info in stores.items()
        },
        "compression_ratio_vs_raw": ratios,
        "runs": runs,
        "checks": checks,
    }


def main(argv=None) -> int:
    parser = workload_parser(
        __doc__.splitlines()[0],
        elements=N_ELEMENTS,
        side=VOLUME_SIDE,
        queries=QUERY_COUNT,
        seed=SEED,
        out="BENCH_scale.json",
    )
    parser.add_argument(
        "--pool-fraction", type=float, default=POOL_FRACTION,
        help="buffer-pool byte budget as a fraction of the raw pages.dat",
    )
    parser.add_argument(
        "--hotspot", type=float, default=HOTSPOT_FRACTION,
        help="fraction of the volume query centers concentrate in",
    )
    parser.add_argument(
        "--ratio-gate", type=float, default=RATIO_GATE,
        help="minimum raw/delta64 pages.dat ratio gating the exit code",
    )
    parser.add_argument("--sample-pages", type=int, default=SAMPLE_PAGES)
    args = parser.parse_args(argv)
    report = run_scale_bench(
        args.elements,
        args.side,
        args.queries,
        args.seed,
        pool_fraction=args.pool_fraction,
        hotspot_fraction=args.hotspot,
        ratio_gate=args.ratio_gate,
        sample_pages=args.sample_pages,
    )

    print(describe_workload(report))
    raw_bytes = report["stores"]["raw"]["pages_dat_bytes"]
    print(f"pool byte budget: {report['workload']['pool_byte_budget']:,} "
          f"of {raw_bytes:,} raw bytes "
          f"({report['workload']['pool_fraction']:.0%})")
    for codec, info in report["stores"].items():
        run = report["runs"][codec]
        ratio = report["compression_ratio_vs_raw"][codec]
        print(f"  {codec:8s}: pages.dat {info['pages_dat_bytes']:12,} B "
              f"({ratio:4.2f}x), cold {run['cold_qps']:8.2f} q/s, "
              f"{run['physical_reads']:8d} physical reads "
              f"({run['physical_bytes_read']:,} B), "
              f"modeled I/O {run['modeled_io_seconds']:8.2f} s, "
              f"pool charged {run['pool_resident_bytes']:,} B / "
              f"held {run['pool_held_bytes']:,} B")
    return finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())

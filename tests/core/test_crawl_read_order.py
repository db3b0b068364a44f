"""The crawl's read order, page by page, against a level-by-level BFS.

The differential tests pin the *set* of pages a crawl reads under
cleared, unbounded caches.  Behind a byte-budgeted LRU pool the *order*
matters too: it decides which pages are still pooled, so a kernel that
reads the same pages in another order moves reads, cache hits and
evictions.  This pins the order: after the seed descent, each BFS level
reads its distinct metadata leaves in ascending page id, then the object
pages of its records whose page MBR meets the query, in ascending record
id.  The reference below walks that BFS from ``fetch_record`` on an
unlogged twin index and replays the reads on its own store.
"""

import numpy as np
import pytest

from repro.core import FLATIndex
from repro.data.microcircuit import build_microcircuit
from repro.geometry.intersect import boxes_intersect_box
from repro.query import BenchmarkSpec, SCALED_SN_FRACTION
from repro.storage import BufferPool, MemoryPageBackend, PageStore

QUERIES = 40


@pytest.fixture(scope="module")
def setup():
    circuit = build_microcircuit(6000, side=15.0, seed=8)
    flat = FLATIndex.build(PageStore(), circuit.mbrs(), space_mbr=circuit.space_mbr)
    queries = BenchmarkSpec("SN", SCALED_SN_FRACTION, QUERIES).queries(
        circuit.space_mbr, seed=9
    )
    return flat, queries


def delta64_engine(flat, byte_capacity):
    """*flat* served from a delta64 copy of its pages behind a pool of
    *byte_capacity* stored bytes."""
    backend = MemoryPageBackend(codec="delta64")
    for page_id in range(len(flat.store)):
        backend.append(flat.store.read_silent(page_id), flat.store.category(page_id))
    return flat.with_store(PageStore(
        buffer=BufferPool(byte_capacity=byte_capacity), backend=backend
    ))


def log_reads(store) -> list:
    """Append every ``store.read`` page id to the returned list."""
    log: list = []
    read = store.read

    def logged(page_id):
        log.append(page_id)
        return read(page_id)

    store.read = logged
    return log


def reference_crawl(engine, oracle, query) -> None:
    """Seed *engine*, then make the crawl's reads level by level on its
    store, taking the records from *oracle*'s ``fetch_record``."""
    store, seed = engine.store, engine.seed_index
    seeded = seed.seed_query(query)
    frontier = [] if seeded is None else [seeded[0].record_id]
    visited = set(frontier)
    while frontier:
        records = [oracle.fetch_record(rid) for rid in frontier]
        for leaf in sorted({int(seed.record_page[rid]) for rid in frontier}):
            store.read(leaf)
        for record in records:
            if boxes_intersect_box(record.page_mbr[None, :], query)[0]:
                store.read(record.object_page_id)
        frontier = sorted({
            neighbor
            for record in records
            if boxes_intersect_box(record.partition_mbr[None, :], query)[0]
            for neighbor in record.neighbor_ids
        } - visited)
        visited.update(frontier)


def test_crawl_reads_in_level_order_behind_a_small_pool(setup):
    flat, queries = setup
    # Pool 40 % of the stored bytes the queries touch, as the hotspot
    # benchmark does, so pages are evicted and read again.
    probe = delta64_engine(flat, None)
    for query in queries:
        probe.range_query(query)
    touched = probe.store.buffer.page_ids()
    budget = int(0.4 * sum(probe.store.stored_bytes(p) for p in touched))

    kernel, reference = delta64_engine(flat, budget), delta64_engine(flat, budget)
    kernel_log, reference_log = log_reads(kernel.store), log_reads(reference.store)
    for query in queries:
        kernel.store.decoded.clear()
        got = kernel.range_query(query)
        reference.store.decoded.clear()
        reference_crawl(reference, flat.seed_index, query)
        assert np.array_equal(got, flat.range_query_scalar(query))

    assert kernel_log == reference_log
    ran, want = kernel.store, reference.store
    assert ran.stats.reads == want.stats.reads
    assert ran.stats.cache_hits == want.stats.cache_hits > 0
    assert ran.buffer.evictions == want.buffer.evictions > 0

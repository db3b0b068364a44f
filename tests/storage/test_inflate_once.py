"""Inflate once: a compressed store runs its codec once per physical read.

``PageStore.read`` checks bounds, then the buffer pool, and calls
``backend.payload`` — the call where a ``delta64`` store inflates —
only on a pool miss; a pool hit is one dict lookup.  These tests spy on
``Delta64Codec.decode`` and pin that count against the physical reads,
pin that the reorder changes no result and no counter, that a closed
store still refuses pooled pages, and the physical-byte accounting
that sits beside the (logical) page reads.
"""

import numpy as np
import pytest

from repro.core import FLATIndex, restore_index, snapshot_index
from repro.query import Prefetcher
from repro.query.workload import random_range_queries
from repro.storage import (
    BufferPool,
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    FilePageStore,
    IOStats,
    MemoryPageBackend,
    OBJECT_PAGE_CAPACITY,
    PAGE_SIZE,
    PageStore,
    PageStoreError,
)
from repro.storage.codec import Delta64Codec
from repro.storage.serial import encode_element_page

SPACE = np.array([0.0, 0.0, 0.0, 100.0, 100.0, 100.0])
GRID = 2.0**-16


def grid_mbrs(n, seed=0):
    """Random MBRs snapped to the microcircuit grid (delta64's target)."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    mbrs = np.concatenate([lo, lo + rng.uniform(0.01, 2, size=(n, 3))], axis=1)
    return np.round(mbrs / GRID) * GRID


def counters(stats):
    """Every ``IOStats`` counter except the (codec-dependent) bytes."""
    return (stats.reads, stats.cache_hits, stats.decode_hits,
            stats.decode_misses, stats.prefetch_hits)


@pytest.fixture
def decodes(monkeypatch):
    """Categories of every ``Delta64Codec.decode`` call, in order."""
    calls = []
    original = Delta64Codec.decode

    def spy(self, blob, category):
        calls.append(category)
        return original(self, blob, category)

    monkeypatch.setattr(Delta64Codec, "decode", spy)
    return calls


@pytest.fixture(scope="module")
def flat():
    return FLATIndex.build(PageStore(), grid_mbrs(3000, seed=4),
                           space_mbr=SPACE)


@pytest.fixture(scope="module")
def queries():
    return random_range_queries(SPACE, 0.001, 30, seed=11)


@pytest.fixture(scope="module")
def exports(flat, tmp_path_factory):
    """The same index exported under both codecs."""
    root = tmp_path_factory.mktemp("inflate-once")
    return {codec: snapshot_index(flat, root / codec, codec=codec)
            for codec in ("raw", "delta64")}


def delta64_file_page_store(directory, pages=6, **kwargs):
    with FilePageStore.create(directory, codec="delta64") as store:
        for i in range(pages):
            store.allocate(
                encode_element_page(grid_mbrs(OBJECT_PAGE_CAPACITY, seed=i)),
                CATEGORY_OBJECT,
            )
    return FilePageStore.open(directory, **kwargs)


def hotspot_pass(index, queries):
    """Serve *queries* in turn through *index*'s pool, kept across
    queries, with decoded pages dropped per query (the hotspot regime)."""
    store = index.store
    before = store.stats.snapshot()
    results = []
    for query in queries:
        store.decoded.clear()
        results.append(index.range_query(query))
    return results, store.stats.diff(before)


class TestPoolHitsSkipTheCodec:
    def test_k_reads_of_one_page_inflate_once(self, tmp_path, decodes):
        store = delta64_file_page_store(
            tmp_path / "s", buffer=BufferPool(byte_capacity=4 * PAGE_SIZE)
        )
        decodes.clear()  # encoding verifies each blob through decode
        try:
            k = 5
            payloads = {store.read(2) for _ in range(k)}
            assert len(payloads) == 1
            assert decodes == [CATEGORY_OBJECT]
            assert store.stats.total_reads == 1
            assert store.stats.cache_hits == k - 1
        finally:
            store.close()

    def test_restored_store_decodes_once_per_physical_read(
        self, exports, queries, decodes
    ):
        # A pool smaller than the workload's pages: hits, misses and
        # evictions all happen across the pass.
        restored = restore_index(
            exports["delta64"], buffer=BufferPool(byte_capacity=8 * PAGE_SIZE)
        )
        try:
            decodes.clear()
            _results, diff = hotspot_pass(restored, queries)
            assert diff.cache_hits > 0
            assert len(decodes) == diff.total_reads > 0
        finally:
            restored.store.close()

    def test_memory_backend_decodes_once_per_physical_read(
        self, flat, queries, decodes
    ):
        backend = MemoryPageBackend(codec="delta64")
        for page_id in range(len(flat.store)):
            backend.append(flat.store.read_silent(page_id),
                           flat.store.category(page_id))
        engine = flat.with_store(PageStore(
            buffer=BufferPool(byte_capacity=8 * PAGE_SIZE), backend=backend
        ))
        decodes.clear()
        results, diff = hotspot_pass(engine, queries)
        assert diff.cache_hits > 0
        assert len(decodes) == diff.total_reads > 0
        for got, query in zip(results, queries):
            assert np.array_equal(got, flat.range_query(query))

    def test_results_and_counters_match_a_raw_export(self, exports, queries):
        runs = {}
        for codec, directory in exports.items():
            restored = restore_index(
                directory, buffer=BufferPool(capacity=12)
            )
            try:
                runs[codec] = hotspot_pass(restored, queries)
            finally:
                restored.store.close()
        raw_results, raw_stats = runs["raw"]
        d64_results, d64_stats = runs["delta64"]
        for got, want in zip(d64_results, raw_results):
            assert np.array_equal(got, want)
        assert counters(d64_stats) == counters(raw_stats)
        assert raw_stats.cache_hits > 0
        assert (d64_stats.total_physical_bytes_read
                < raw_stats.total_physical_bytes_read)

    def test_consumed_prefetch_inflates_once(self, exports, queries, decodes):
        restored = restore_index(exports["delta64"])
        try:
            prefetcher = Prefetcher(restored)
            store = restored.store.view()
            engine = restored.with_store(store)
            prefetcher.attach_store(store)
            query = queries[0]
            assert prefetcher.prefetch(query) > 0
            decodes.clear()
            before = store.stats.snapshot()
            engine.range_query(query)
            engine.range_query(query)  # warm: every read is a pool hit
            diff = store.stats.diff(before)
            assert diff.total_reads == 0
            assert diff.cache_hits > 0
            # The staged page cost its inflate on the demand read that
            # consumed it, and none on the later hits.
            assert len(decodes) == diff.total_prefetch_hits > 0
        finally:
            restored.store.close()


class TestClosedStoreRefusesPooledPages:
    def test_store(self, tmp_path):
        store = delta64_file_page_store(tmp_path / "s")
        store.read(0)
        assert 0 in store.buffer
        store.close()
        with pytest.raises(PageStoreError, match="closed"):
            store.read(0)

    def test_view(self, tmp_path):
        store = delta64_file_page_store(tmp_path / "s")
        view = store.view()
        view.read(0)
        assert 0 in view.buffer
        store.close()
        with pytest.raises(PageStoreError, match="closed"):
            view.read(0)

    def test_fork_of_a_closed_store(self, tmp_path):
        store = delta64_file_page_store(tmp_path / "s")
        fork = store.fork()
        fork.read(0)
        store.close()
        with pytest.raises(PageStoreError, match="closed"):
            fork.read(0)


class TestPhysicalBytes:
    def test_raw_physical_bytes_equal_logical(self, exports, queries):
        restored = restore_index(exports["raw"])
        try:
            for query in queries:
                restored.store.clear_cache()
                restored.range_query(query)
            stats = restored.store.stats
            assert stats.total_reads > 0
            assert stats.total_physical_bytes_read == stats.total_bytes_read
            for category in stats.reads:
                assert (stats.physical_bytes[category]
                        == stats.bytes_read_in(category))
        finally:
            restored.store.close()

    def test_delta64_physical_bytes_are_missed_blob_lengths(
        self, exports, queries
    ):
        restored = restore_index(exports["delta64"])
        store = restored.store
        try:
            want: dict = {}
            for query in queries:
                store.clear_cache()
                restored.range_query(query)
                # An unbounded pool cleared before the query holds
                # exactly the pages the query missed.
                for page_id in store.buffer.page_ids():
                    category = store.category(page_id)
                    want[category] = (want.get(category, 0)
                                      + store.backend.stored_bytes(page_id))
            assert store.stats.physical_bytes == want
            assert (store.stats.total_physical_bytes_read
                    < store.stats.total_bytes_read)
        finally:
            store.close()

    def test_cold_group_charges_serial_physical_bytes(self, exports, queries):
        restored = restore_index(exports["delta64"])
        store = restored.store
        try:
            for query in queries:
                store.clear_cache()
                restored.range_query(query)
            serial = dict(store.stats.physical_bytes)
            store.stats.reset()
            restored.range_query_multi(queries)
            assert store.stats.physical_bytes == serial
        finally:
            store.close()

    def test_snapshot_diff_merge_reset_round_trip(self):
        stats = IOStats()
        stats.record_read(CATEGORY_OBJECT, 2, 1500)
        before = stats.snapshot()
        stats.record_read(CATEGORY_OBJECT, 1, 700)
        stats.record_read(CATEGORY_METADATA)
        delta = stats.diff(before)
        assert delta.physical_bytes == {CATEGORY_OBJECT: 700,
                                        CATEGORY_METADATA: PAGE_SIZE}
        rebuilt = before.snapshot()
        rebuilt.merge(delta)
        assert rebuilt.physical_bytes == stats.physical_bytes
        assert rebuilt.total_physical_bytes_read == 2200 + PAGE_SIZE
        assert rebuilt.total_bytes_read == 4 * PAGE_SIZE
        stats.reset()
        assert stats.total_physical_bytes_read == 0

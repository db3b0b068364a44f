"""Inflate on parse: a compressed store inflates a page only for bytes.

``PageStore.read`` checks bounds, then the buffer pool, and calls the
backend only on a pool miss; a pool hit is one dict lookup.  A read
that needs the page's bytes calls ``backend.payload`` — the call where
a ``delta64`` store inflates.  The one read that needs none, the seed
index's read of a metadata leaf its record table already holds
(``read_metadata(parse=False)``), calls ``backend.blob`` and pools the
stored blob as is; a later hit that needs the bytes inflates it in
place.  These tests spy on ``Delta64Codec.decode`` and pin its count at
object reads + seed-internal reads + metadata parses, pin that pooling
blobs changes no result, no counter, no pool order and no pool charge,
that a closed store still refuses pooled pages and blobs, and the
physical-byte accounting that sits beside the (logical) page reads.
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
    CATEGORY_SEED_INTERNAL,
    DECODE_METADATA,
    FilePageBackend,
    IOStats,
    MemoryPageBackend,
    OBJECT_PAGE_CAPACITY,
    OverlayPageBackend,
    PAGE_SIZE,
    PageStore,
    PageStoreError,
)
from repro.storage.codec import Delta64Codec
from repro.storage.serial import decode_metadata_page, encode_element_page

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
def wide_queries():
    """Queries wide enough that a small pool evicts and re-reads leaves."""
    return random_range_queries(SPACE, 0.01, 30, seed=11)


#: A pool budget a few stored pages wide: hits, misses, evictions and
#: physical re-reads of parsed leaves all happen in a pass.
SMALL_POOL = 4 * PAGE_SIZE


@pytest.fixture(scope="module")
def exports(flat, tmp_path_factory):
    """The same index exported under both codecs."""
    root = tmp_path_factory.mktemp("inflate-once")
    return {codec: snapshot_index(flat, root / codec, codec=codec)
            for codec in ("raw", "delta64")}


def delta64_file_page_store(directory, pages=6, **kwargs):
    FilePageBackend.commit_generation(
        directory,
        [(encode_element_page(grid_mbrs(OBJECT_PAGE_CAPACITY, seed=i)),
          CATEGORY_OBJECT) for i in range(pages)],
        "delta64",
    )
    return PageStore(backend=FilePageBackend.open(directory), **kwargs)


def hotspot_pass(index, queries, before_query=None):
    """Serve *queries* in turn through *index*'s pool, kept across
    queries, with decoded pages dropped per query (the hotspot regime).

    *before_query*, if given, runs before each query."""
    store = index.store
    before = store.stats.snapshot()
    results = []
    for query in queries:
        if before_query is not None:
            before_query()
        store.decoded.clear()
        results.append(index.range_query(query))
    return results, store.stats.diff(before)


def inflates_needed(diff):
    """Pages a pass must inflate: every object and seed-internal read,
    and every metadata parse (a leaf read without a parse needs no
    bytes)."""
    return (diff.reads_in(CATEGORY_OBJECT, CATEGORY_SEED_INTERNAL)
            + diff.parses.get(DECODE_METADATA, 0))


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

    def test_restored_store_inflates_reads_that_need_bytes(
        self, exports, wide_queries, decodes
    ):
        restored = restore_index(
            exports["delta64"], buffer=BufferPool(byte_capacity=SMALL_POOL)
        )
        try:
            decodes.clear()
            _results, diff = hotspot_pass(restored, wide_queries)
            assert diff.cache_hits > 0
            # Leaves the record table holds are read again physically
            # after eviction; those reads inflate nothing.
            assert (diff.reads[CATEGORY_METADATA]
                    > diff.parses[DECODE_METADATA] > 0)
            assert len(decodes) == inflates_needed(diff) > 0
        finally:
            restored.store.close()

    def test_memory_backend_inflates_reads_that_need_bytes(
        self, flat, wide_queries, decodes
    ):
        backend = MemoryPageBackend(codec="delta64")
        for page_id in range(len(flat.store)):
            backend.append(flat.store.read_silent(page_id),
                           flat.store.category(page_id))
        engine = flat.with_store(PageStore(
            buffer=BufferPool(byte_capacity=SMALL_POOL), backend=backend
        ))
        engine.seed_index.records.clear()
        decodes.clear()
        results, diff = hotspot_pass(engine, wide_queries)
        assert diff.cache_hits > 0
        assert diff.reads[CATEGORY_METADATA] > diff.parses[DECODE_METADATA] > 0
        assert len(decodes) == inflates_needed(diff) > 0
        for got, query in zip(results, wide_queries):
            assert np.array_equal(got, flat.range_query(query))

    def test_results_and_counters_match_a_raw_export(self, exports, queries):
        # Each store's pool is unbounded and kept across the pass; that
        # a byte budget evicts alike whether leaves are pooled as blobs
        # or inflated is test_restored_store_inflates_reads_that_need_bytes.
        runs = {}
        for codec, directory in exports.items():
            restored = restore_index(directory)
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
            store.prefetch_area = prefetcher.area
            query = queries[0]
            assert prefetcher.prefetch(query) > 0
            decodes.clear()
            before = store.stats.snapshot()
            engine.range_query(query)
            engine.range_query(query)  # warm: every read is a pool hit
            diff = store.stats.diff(before)
            assert diff.total_reads == 0
            assert diff.cache_hits > 0
            # A staged page costs its inflate on the demand read that
            # consumed it if that read needs the bytes, and none on the
            # later hits.  The staging crawl parsed every leaf into the
            # shared record table, so a consumed leaf costs none.
            consumed_leaves = diff.prefetch_hits.get(CATEGORY_METADATA, 0)
            assert consumed_leaves > 0
            assert DECODE_METADATA not in diff.parses
            assert (len(decodes) == diff.total_prefetch_hits - consumed_leaves
                    > 0)
        finally:
            restored.store.close()


class TestLeavesPoolAsBlobs:
    def test_parsing_every_leaf_charges_the_same(
        self, exports, wide_queries, decodes
    ):
        # The same pass twice: once as served, once with the record
        # table dropped before every query, so every leaf a query reads
        # first is parsed (and inflated).  Pooling blobs must not change
        # what is charged, in what order pages sit in the pool or what
        # the pool is charged — only what is inflated.
        runs = []
        for drop_table in (False, True):
            restored = restore_index(
                exports["delta64"], buffer=BufferPool(byte_capacity=SMALL_POOL)
            )
            store = restored.store
            seed = restored.seed_index
            pools = []

            def before_query():
                pools.append((store.buffer.page_ids(),
                              store.buffer.resident_bytes))
                if drop_table:
                    seed.records.clear()

            try:
                decodes.clear()
                results, diff = hotspot_pass(restored, wide_queries,
                                             before_query)
                before_query()
                runs.append((results, diff, pools, len(decodes)))
            finally:
                store.close()
        served, served_stats, served_pools, served_inflates = runs[0]
        parsed, parsed_stats, parsed_pools, parsed_inflates = runs[1]
        for got, want in zip(served, parsed):
            assert np.array_equal(got, want)
        assert counters(served_stats) == counters(parsed_stats)
        assert served_stats.physical_bytes == parsed_stats.physical_bytes
        assert served_pools == parsed_pools
        assert (served_stats.parses[DECODE_METADATA]
                < parsed_stats.parses[DECODE_METADATA])
        assert served_inflates == inflates_needed(served_stats)
        assert served_inflates < parsed_inflates

    def test_pooled_leaf_is_its_stored_blob(self, exports, decodes):
        restored = restore_index(exports["delta64"])
        store = restored.store
        try:
            leaf = restored.seed_index.leaf_page_ids[0]
            decodes.clear()
            assert store.read_metadata(leaf, parse=False) is None
            assert decodes == []
            assert store.stats.reads == {CATEGORY_METADATA: 1}
            assert (store.stats.physical_bytes[CATEGORY_METADATA]
                    == store.stored_bytes(leaf))
            # The pool holds the one leaf, at its stored length.
            assert store.buffer.page_ids() == [leaf]
            assert store.buffer.held_bytes == store.stored_bytes(leaf) < PAGE_SIZE
        finally:
            store.close()

    def test_pooled_blob_parsed_after_table_clear(
        self, exports, wide_queries, decodes
    ):
        # A byte budget no query fills: nothing is evicted, and the
        # pool's charge is tracked.
        restored = restore_index(
            exports["delta64"], buffer=BufferPool(byte_capacity=1 << 24)
        )
        store = restored.store
        seed = restored.seed_index
        query = wide_queries[0]
        try:
            want = restored.range_query(query)  # parses the leaves it reads
            store.clear_cache()
            restored.range_query(query)  # the table holds them: blobs pooled
            pooled = store.buffer.page_ids()
            charged = store.buffer.resident_bytes
            assert charged == sum(store.stored_bytes(p) for p in pooled)
            leaves = [p for p in pooled
                      if store.category(p) == CATEGORY_METADATA]
            assert leaves
            blob_bytes = sum(store.stored_bytes(leaf) for leaf in leaves)
            assert (store.buffer.held_bytes
                    == blob_bytes + PAGE_SIZE * (len(pooled) - len(leaves)))

            seed.records.clear()
            store.decoded.clear()
            decodes.clear()
            before = store.stats.snapshot()
            got = restored.range_query(query)
            diff = store.stats.diff(before)
            assert np.array_equal(got, want)
            # Every leaf parsed again from its pooled blob: pool hits,
            # no physical read, one inflate each, replaced in place.
            assert diff.total_reads == 0
            assert diff.parses[DECODE_METADATA] == len(leaves)
            assert decodes == [CATEGORY_METADATA] * len(leaves)
            assert store.buffer.page_ids() == pooled
            assert store.buffer.resident_bytes == charged
            assert store.buffer.held_bytes == PAGE_SIZE * len(pooled)
            table = seed.records
            for leaf in leaves:
                rows = decode_metadata_page(store.read_silent(leaf))
                for rid, (page_mbr, partition_mbr, object_page_id, nbrs) in zip(
                    seed.leaf_record_ids[leaf].tolist(), rows
                ):
                    row = table.record(rid)
                    assert np.array_equal(row.page_mbr, page_mbr)
                    assert np.array_equal(row.partition_mbr, partition_mbr)
                    assert row.object_page_id == object_page_id
                    assert row.neighbor_ids == tuple(nbrs)
        finally:
            store.close()


def pool_page(store, page_id):
    """Pool *page_id* inflated, through a plain read."""
    store.read(page_id)


def pool_blob(store, page_id):
    """Pool *page_id* uninflated, the way a leaf the table holds is."""
    store.read_metadata(page_id, parse=False)
    assert store.buffer.held_bytes == store.stored_bytes(page_id) < PAGE_SIZE


@pytest.mark.parametrize("pool", [pool_page, pool_blob], ids=["page", "blob"])
class TestClosedStoreRefusesPooledPages:
    def test_store(self, tmp_path, pool):
        store = delta64_file_page_store(tmp_path / "s")
        pool(store, 0)
        assert 0 in store.buffer
        store.close()
        with pytest.raises(PageStoreError, match="closed"):
            store.read(0)
        with pytest.raises(PageStoreError, match="closed"):
            store.read_metadata(0, parse=False)

    def test_view(self, tmp_path, pool):
        store = delta64_file_page_store(tmp_path / "s")
        view = store.view()
        pool(view, 0)
        assert 0 in view.buffer
        store.close()
        with pytest.raises(PageStoreError, match="closed"):
            view.read(0)
        with pytest.raises(PageStoreError, match="closed"):
            view.read_metadata(0, parse=False)

    def test_overlay_of_a_closed_store(self, tmp_path, pool):
        store = delta64_file_page_store(tmp_path / "s")
        overlay = PageStore(backend=OverlayPageBackend(store.backend))
        pool(overlay, 0)
        store.close()
        with pytest.raises(PageStoreError, match="closed"):
            overlay.read(0)
        with pytest.raises(PageStoreError, match="closed"):
            overlay.read_metadata(0, parse=False)


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

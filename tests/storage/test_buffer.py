"""Tests for the LRU buffer pool, including byte-budgeted behaviour."""

import numpy as np
import pytest

from repro.core import FLATIndex
from repro.query.prefetch import PrefetchArea
from repro.storage import CATEGORY_OBJECT, PAGE_SIZE, BufferPool, PageStore


class TestBufferPoolCounters:
    def test_lookups_counts_hits_and_misses(self):
        # The pool counts only its evictions; the store's IOStats counts
        # every lookup, as a pool hit, a physical read or a prefetch hit.
        store = PageStore(buffer=BufferPool(byte_capacity=2 * PAGE_SIZE))
        ids = [store.allocate(bytes([i]) * PAGE_SIZE, CATEGORY_OBJECT)
               for i in range(3)]
        area = PrefetchArea()
        store.prefetch_area = area
        area.stage(ids[2])
        # read 0, hit 0, read 1, prefetch hit 2 (evicts 0), read 0
        # (evicts 1), hit 2.
        for index in (0, 0, 1, 2, 0, 2):
            store.read(ids[index])
        stats = store.stats
        assert stats.cache_hits == 2
        assert stats.reads == {CATEGORY_OBJECT: 3}
        assert stats.prefetch_hits == {CATEGORY_OBJECT: 1}
        assert store.buffer.evictions == 2
        assert store.buffer.page_ids() == [ids[0], ids[2]]
        lookups = stats.cache_hits + stats.total_reads + stats.total_prefetch_hits
        assert lookups == 6
        assert stats.cache_hits / lookups == pytest.approx(1 / 3)

    def test_repr_reports_state(self):
        pool = BufferPool(byte_capacity=2)
        pool.put(0, b"a")
        pool.get(0)
        text = repr(pool)
        assert "byte_capacity=2" in text
        assert "size=1" in text
        assert "evictions=0" in text
        assert "unbounded" in repr(BufferPool())

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(byte_capacity=0)


class TestBoundedCapacity:
    def test_lru_eviction_order_and_counter(self):
        pool = BufferPool(byte_capacity=2)
        pool.put(0, b"a")
        pool.put(1, b"b")
        pool.get(0)  # 1 is now least recently used
        pool.put(2, b"c")
        assert pool.evictions == 1
        assert 1 not in pool
        assert 0 in pool and 2 in pool
        assert len(pool) == 2

    def test_reput_recharges_only_with_a_cost(self):
        # A put of a pooled id replaces its value in place: without a
        # cost its charge is kept (a blob inflated on a hit), with one
        # the charge becomes the new cost.
        pool = BufferPool(byte_capacity=10)
        pool.put(1, b"aa", cost=2)
        pool.put(1, b"aaaa")
        assert pool.resident_bytes == 2 and pool.held_bytes == 4
        pool.put(1, b"aaaa", cost=4)
        pool.put(2, b"bbbbbb", cost=6)
        assert pool.resident_bytes == 10 and pool.evictions == 0
        pool.put(3, b"c", cost=1)
        assert pool.page_ids() == [2, 3]
        assert pool.resident_bytes == 7 and pool.evictions == 1

    def test_clear_empties_the_charge_and_keeps_evictions(self):
        pool = BufferPool(byte_capacity=4)
        for page_id in range(3):
            pool.put(page_id, b"xx", cost=2)
        assert pool.evictions == 1
        pool.clear()
        assert len(pool) == 0
        assert pool.resident_bytes == 0 and pool.held_bytes == 0
        pool.put(5, b"yyyy", cost=4)  # the whole budget, nothing to evict
        assert pool.page_ids() == [5] and pool.evictions == 1

    def test_reinsert_does_not_evict(self):
        pool = BufferPool(byte_capacity=2)
        pool.put(0, b"a")
        pool.put(1, b"b")
        pool.put(0, b"a2")
        assert pool.evictions == 0
        assert pool.get(0) == b"a2"

    def test_cache_sensitivity_of_query_io(self):
        # The same query workload on the same index: an unbounded pool
        # absorbs every repeated read within a query, a tiny pool must
        # evict (counted) and re-read pages, so physical I/O can only
        # grow and the decoded result must stay identical.
        rng = np.random.default_rng(21)
        lo = rng.uniform(0, 100, size=(2500, 3))
        mbrs = np.concatenate([lo, lo + 1.5], axis=1)
        query = np.array([10.0, 10, 10, 70, 70, 70])

        unbounded_store = PageStore()
        flat = FLATIndex.build(unbounded_store, mbrs)
        unbounded_store.clear_cache()
        before = unbounded_store.stats.snapshot()
        expected = flat.range_query(query)
        unbounded_reads = unbounded_store.stats.diff(before).total_reads

        tiny = BufferPool(byte_capacity=2 * PAGE_SIZE)
        tiny_store = PageStore(buffer=tiny)
        flat_tiny = FLATIndex.build(tiny_store, mbrs)
        tiny_store.clear_cache()
        before = tiny_store.stats.snapshot()
        out = flat_tiny.range_query(query)
        tiny_reads = tiny_store.stats.diff(before).total_reads

        assert np.array_equal(out, expected)
        assert tiny.evictions > 0
        assert len(tiny) <= 2
        assert tiny.resident_bytes <= 2 * PAGE_SIZE
        assert tiny_reads >= unbounded_reads

"""Tests for the PageStore, BufferPool and IOStats."""

import numpy as np
import pytest

from repro.storage import (
    BufferPool,
    CATEGORY_OBJECT,
    CATEGORY_RTREE_INTERNAL,
    CATEGORY_RTREE_LEAF,
    IOStats,
    PAGE_SIZE,
    PageStore,
    PageStoreError,
)
from repro.storage.serial import encode_element_page


def make_page(seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 1, size=(5, 3))
    return encode_element_page(np.concatenate([lo, lo + 1], axis=1))


class TestAllocation:
    def test_sequential_ids(self):
        store = PageStore()
        assert store.allocate(make_page(0), CATEGORY_OBJECT) == 0
        assert store.allocate(make_page(1), CATEGORY_OBJECT) == 1
        assert len(store) == 2

    def test_wrong_size_rejected(self):
        store = PageStore()
        with pytest.raises(PageStoreError):
            store.allocate(b"short", CATEGORY_OBJECT)

    def test_unknown_category_rejected(self):
        store = PageStore()
        with pytest.raises(PageStoreError):
            store.allocate(make_page(), "mystery")

    def test_size_accounting(self):
        store = PageStore()
        store.allocate(make_page(0), CATEGORY_OBJECT)
        store.allocate(make_page(1), CATEGORY_RTREE_LEAF)
        store.allocate(make_page(2), CATEGORY_RTREE_INTERNAL)
        assert store.size_bytes == 3 * PAGE_SIZE
        assert store.pages_in(CATEGORY_OBJECT) == 1
        assert store.bytes_in(CATEGORY_RTREE_LEAF, CATEGORY_RTREE_INTERNAL) == 2 * PAGE_SIZE


class TestReadAccounting:
    def test_read_counts_category(self):
        store = PageStore()
        pid = store.allocate(make_page(), CATEGORY_OBJECT)
        store.read(pid)
        assert store.stats.reads == {CATEGORY_OBJECT: 1}

    def test_repeated_read_served_from_buffer(self):
        store = PageStore()
        pid = store.allocate(make_page(), CATEGORY_OBJECT)
        store.read(pid)
        store.read(pid)
        store.read(pid)
        assert store.stats.total_reads == 1
        assert store.stats.cache_hits == 2

    def test_clear_cache_forces_physical_read(self):
        store = PageStore()
        pid = store.allocate(make_page(), CATEGORY_OBJECT)
        store.read(pid)
        store.clear_cache()
        store.read(pid)
        assert store.stats.total_reads == 2

    def test_every_store_has_a_pool(self):
        # A store always reads through a pool: an unbounded one unless
        # it is given a budgeted one, and a view gets a pool of its own.
        store = PageStore()
        view = store.view()
        for each in (store, view, PageStore(buffer=None)):
            assert type(each.buffer) is BufferPool
            assert each.buffer.byte_capacity is None
        assert view.buffer is not store.buffer
        pid = store.allocate(make_page(), CATEGORY_OBJECT)
        store.read(pid)
        view.read(pid)
        view.read(pid)
        assert store.stats.total_reads == view.stats.total_reads == 1
        assert (store.stats.cache_hits, view.stats.cache_hits) == (0, 1)
        assert pid in store.buffer and pid in view.buffer

    def test_read_silent_is_free(self):
        store = PageStore()
        pid = store.allocate(make_page(), CATEGORY_OBJECT)
        store.read_silent(pid)
        assert store.stats.total_reads == 0

    def test_out_of_range_read(self):
        store = PageStore()
        with pytest.raises(PageStoreError):
            store.read(0)

    def test_category_lookup(self):
        store = PageStore()
        pid = store.allocate(make_page(), CATEGORY_RTREE_LEAF)
        assert store.category(pid) == CATEGORY_RTREE_LEAF

    def test_read_returns_allocated_payload(self):
        store = PageStore()
        payload = make_page(42)
        pid = store.allocate(payload, CATEGORY_OBJECT)
        assert store.read(pid) == payload


class TestBufferPool:
    def test_lru_eviction_order(self):
        pool = BufferPool(byte_capacity=2)
        pool.put(1, b"a")
        pool.put(2, b"b")
        pool.get(1)  # refresh 1; 2 is now LRU
        pool.put(3, b"c")
        assert 1 in pool
        assert 2 not in pool
        assert 3 in pool
        assert pool.evictions == 1

    def test_unbounded_never_evicts(self):
        pool = BufferPool()
        for i in range(1000):
            pool.put(i, b"x")
        assert len(pool) == 1000
        assert pool.evictions == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(byte_capacity=0)

    def test_put_existing_updates(self):
        pool = BufferPool(byte_capacity=1)
        pool.put(1, b"a")
        pool.put(1, b"b")
        assert pool.get(1) == b"b"
        assert pool.evictions == 0

    def test_clear(self):
        pool = BufferPool()
        pool.put(1, b"a")
        pool.clear()
        assert 1 not in pool


class TestIOStats:
    def test_snapshot_diff(self):
        stats = IOStats()
        stats.record_read(CATEGORY_OBJECT, 5)
        before = stats.snapshot()
        stats.record_read(CATEGORY_OBJECT, 3)
        stats.record_read(CATEGORY_RTREE_LEAF)
        delta = stats.diff(before)
        assert delta.reads == {CATEGORY_OBJECT: 3, CATEGORY_RTREE_LEAF: 1}

    def test_merge(self):
        a = IOStats()
        a.record_read(CATEGORY_OBJECT, 2)
        b = IOStats()
        b.record_read(CATEGORY_OBJECT, 1)
        b.record_read(CATEGORY_RTREE_LEAF, 4)
        b.record_cache_hit()
        a.merge(b)
        assert a.reads == {CATEGORY_OBJECT: 3, CATEGORY_RTREE_LEAF: 4}
        assert a.cache_hits == 1

    def test_bytes_read(self):
        stats = IOStats()
        stats.record_read(CATEGORY_OBJECT, 2)
        assert stats.total_bytes_read == 2 * PAGE_SIZE
        assert stats.bytes_read_in(CATEGORY_OBJECT) == 2 * PAGE_SIZE
        assert stats.bytes_read_in(CATEGORY_RTREE_LEAF) == 0

    def test_reads_in_multiple_categories(self):
        stats = IOStats()
        stats.record_read(CATEGORY_OBJECT, 2)
        stats.record_read(CATEGORY_RTREE_LEAF, 3)
        assert stats.reads_in(CATEGORY_OBJECT, CATEGORY_RTREE_LEAF) == 5

    def test_reset(self):
        stats = IOStats()
        stats.record_read(CATEGORY_OBJECT)
        stats.record_cache_hit()
        stats.reset()
        assert stats.total_reads == 0
        assert stats.cache_hits == 0

    def test_repr_readable(self):
        stats = IOStats()
        stats.record_read(CATEGORY_OBJECT)
        assert "object" in repr(stats)

"""Tests for the decoded-page cache and the store's decoded-read API."""

import numpy as np
import pytest

from repro.storage import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    DECODE_ELEMENT,
    DECODE_METADATA,
    DecodedPageCache,
    IOStats,
    PageStore,
)
from repro.storage.serial import encode_element_page, encode_metadata_page


def element_page(store, n=5, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 50, size=(n, 3))
    mbrs = np.concatenate([lo, lo + 1.0], axis=1)
    return store.allocate(encode_element_page(mbrs), CATEGORY_OBJECT), mbrs


def metadata_page(store):
    records = [
        (np.arange(6, dtype=float), np.arange(6, dtype=float) + 1, 7, [1, 2]),
        (np.arange(6, dtype=float) * 2, np.arange(6, dtype=float), 9, []),
    ]
    return store.allocate(encode_metadata_page(records), CATEGORY_METADATA)


class TestDecodedPageCache:
    def test_memoizes_decodes(self):
        cache = DecodedPageCache()
        calls = []

        def decoder(payload):
            calls.append(payload)
            return len(payload)

        assert cache.get_or_decode("element", 3, b"abc", decoder) == 3
        assert cache.get_or_decode("element", 3, b"abc", decoder) == 3
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.lookups == 2
        assert cache.hit_rate == pytest.approx(0.5)

    def test_kinds_do_not_collide(self):
        cache = DecodedPageCache()
        cache.get_or_decode("element", 1, b"x", lambda p: "element")
        assert cache.get_or_decode("metadata", 1, b"x", lambda p: "metadata") == (
            "metadata"
        )
        assert len(cache) == 2

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = DecodedPageCache()
        cache.get_or_decode("element", 1, b"x", len)
        cache.clear()
        assert len(cache) == 0
        cache.get_or_decode("element", 1, b"x", len)
        assert cache.misses == 2

    def test_bounded_capacity_evicts_lru(self):
        cache = DecodedPageCache(capacity=2)
        cache.get_or_decode("element", 1, b"a", len)
        cache.get_or_decode("element", 2, b"bb", len)
        cache.get_or_decode("element", 1, b"a", len)  # refresh 1
        cache.get_or_decode("element", 3, b"ccc", len)
        assert cache.evictions == 1
        assert ("element", 2) not in cache
        assert ("element", 1) in cache and ("element", 3) in cache

    def test_touch_counts_like_a_memoized_decode(self):
        cache = DecodedPageCache()
        stats = IOStats()
        cache.touch("metadata", 5, stats)
        cache.touch("metadata", 5, stats)
        assert stats.decode_misses == {"metadata": 1}
        assert stats.decode_hits == {"metadata": 1}
        assert stats.parses == {}
        cache.clear()
        cache.touch("metadata", 5, stats)
        assert stats.decode_misses == {"metadata": 2}

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DecodedPageCache(capacity=0)

    def test_repr(self):
        cache = DecodedPageCache(capacity=4)
        cache.get_or_decode("element", 1, b"a", len)
        text = repr(cache)
        assert "capacity=4" in text and "misses=1" in text


class TestStoreDecodedReads:
    def test_read_elements_cached_decodes_once(self):
        store = PageStore()
        page_id, mbrs = element_page(store)
        a = store.read_elements(page_id)
        b = store.read_elements(page_id)
        assert a is b
        assert np.array_equal(a, mbrs)
        assert store.stats.decode_misses == {DECODE_ELEMENT: 1}
        assert store.stats.decode_hits == {DECODE_ELEMENT: 1}

    def test_read_metadata_counts_logically_and_parses_on_request(self):
        # No decoded metadata is memoized: the caller decides each parse,
        # while the logical counters follow the per-query protocol.
        store = PageStore()
        page_id = metadata_page(store)
        a = store.read_metadata(page_id)
        assert store.read_metadata(page_id, parse=False) is None
        b = store.read_metadata(page_id)
        assert a is not b and len(a) == len(b) == 2
        assert store.stats.decode_misses == {DECODE_METADATA: 1}
        assert store.stats.decode_hits == {DECODE_METADATA: 2}
        assert store.stats.parses == {DECODE_METADATA: 2}
        assert store.stats.reads == {CATEGORY_METADATA: 1}
        assert store.stats.cache_hits == 2
        assert len(store.decoded) == 1

    def test_uncached_reads_always_decode(self):
        store = PageStore()
        page_id = metadata_page(store)
        a = store.read_metadata(page_id, cached=False)
        b = store.read_metadata(page_id, cached=False)
        assert a is not b
        assert store.stats.decodes_in(DECODE_METADATA) == 2
        assert store.stats.total_decode_hits == 0

    def test_clear_cache_invalidates_decoded_pages(self):
        store = PageStore()
        page_id, _mbrs = element_page(store)
        store.read_elements(page_id)
        store.clear_cache()
        assert len(store.decoded) == 0
        store.read_elements(page_id)
        assert store.stats.decodes_in(DECODE_ELEMENT) == 2

    def test_read_elements_many_uses_cache(self):
        store = PageStore()
        ids = [element_page(store, seed=s)[0] for s in range(3)]
        first = store.read_elements_many(ids + ids)
        assert store.stats.decodes_in(DECODE_ELEMENT) == 3
        assert store.stats.decode_hits == {DECODE_ELEMENT: 3}
        for a, b in zip(first[:3], first[3:]):
            assert a is b

    def test_decode_counters_survive_snapshot_diff_merge_reset(self):
        store = PageStore()
        page_id, _mbrs = element_page(store)
        before = store.stats.snapshot()
        store.read_elements(page_id)
        store.read_elements(page_id)
        delta = store.stats.diff(before)
        assert delta.decode_misses == {DECODE_ELEMENT: 1}
        assert delta.decode_hits == {DECODE_ELEMENT: 1}

        other = delta.snapshot()
        delta.merge(other)
        assert delta.decodes_in(DECODE_ELEMENT) == 2
        assert "decodes=" in repr(delta)
        delta.reset()
        assert delta.total_decodes == 0 and delta.total_decode_hits == 0

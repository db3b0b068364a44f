"""Tests for the store's decode memo and its decoded-read API."""

import numpy as np

from repro.query.prefetch import PrefetchArea
from repro.storage import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    DECODE_ELEMENT,
    DECODE_METADATA,
    PAGE_SIZE,
    BufferPool,
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
    """The store's decoded-page cache: the memo ``PageStore.decoded``."""

    def test_memoizes_decodes(self):
        # The memo is the store's, not the pool's: a page the one-page
        # pool evicted is read again but not parsed again.
        store = PageStore(buffer=BufferPool(byte_capacity=PAGE_SIZE))
        first, mbrs = element_page(store, seed=0)
        second, _mbrs = element_page(store, seed=1)
        a = store.read_elements(first)
        store.read_elements(second)
        b = store.read_elements(first)
        assert a is b
        assert np.array_equal(a, mbrs)
        assert store.buffer.evictions == 2
        assert store.stats.reads == {CATEGORY_OBJECT: 3}
        assert store.stats.parses == {DECODE_ELEMENT: 2}
        assert store.stats.decode_misses == {DECODE_ELEMENT: 2}
        assert store.stats.decode_hits == {DECODE_ELEMENT: 1}

    def test_kinds_do_not_collide(self):
        # A leaf lookup and an element decode of one page id are two
        # entries: the lookup's ``True`` is never taken for an array.
        store = PageStore()
        page_id, mbrs = element_page(store)
        assert store.read_metadata(page_id, parse=False) is None
        elements = store.read_elements(page_id)
        assert np.array_equal(elements, mbrs)
        assert len(store.decoded) == 2
        assert store.decoded[DECODE_METADATA, page_id] is True
        assert store.decoded[DECODE_ELEMENT, page_id] is elements
        assert store.stats.decode_misses == {DECODE_METADATA: 1,
                                             DECODE_ELEMENT: 1}
        assert store.stats.parses == {DECODE_ELEMENT: 1}

    def test_clear_drops_entries_but_keeps_counters(self):
        store = PageStore()
        element_id, _mbrs = element_page(store)
        leaf_id = metadata_page(store)
        store.read_elements(element_id)
        store.read_metadata(leaf_id, parse=False)
        counted = store.stats.snapshot()
        store.clear_cache()
        assert store.decoded == {} and len(store.buffer) == 0
        assert store.stats == counted
        store.read_elements(element_id)
        store.read_metadata(leaf_id, parse=False)
        assert store.stats.decode_misses == {DECODE_ELEMENT: 2,
                                             DECODE_METADATA: 2}
        assert store.stats.decode_hits == {}

    def test_staged_array_enters_the_memo_uncounted(self):
        # Consuming a staged page plants its decoded array in the memo
        # without a count; the read that follows is a decode hit.
        store = PageStore()
        page_id, mbrs = element_page(store)
        area = PrefetchArea()
        store.prefetch_area = area
        staged = mbrs.copy()
        area.stage(page_id)
        area.stage_decoded(page_id, DECODE_ELEMENT, staged)
        assert store.read_elements(page_id) is staged
        assert store.decoded[DECODE_ELEMENT, page_id] is staged
        assert store.stats.reads == {}
        assert store.stats.prefetch_hits == {CATEGORY_OBJECT: 1}
        assert store.stats.decode_hits == {DECODE_ELEMENT: 1}
        assert store.stats.decode_misses == {} and store.stats.parses == {}

    def test_views_keep_their_own_memo(self):
        store = PageStore()
        page_id, _mbrs = element_page(store)
        view = store.view()
        a = store.read_elements(page_id)
        assert view.decoded == {}
        b = view.read_elements(page_id)
        assert a is not b and np.array_equal(a, b)
        assert store.stats.decode_misses == view.stats.decode_misses == {
            DECODE_ELEMENT: 1}


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

    def test_metadata_lookup_counts_like_a_memoized_decode(self):
        # A leaf lookup that parses nothing is a logical miss the first
        # time since clear_cache and a hit after, as a memoized decode.
        store = PageStore()
        page_id = metadata_page(store)
        store.read_metadata(page_id, parse=False)
        store.read_metadata(page_id, parse=False)
        assert store.stats.decode_misses == {DECODE_METADATA: 1}
        assert store.stats.decode_hits == {DECODE_METADATA: 1}
        assert store.stats.parses == {}
        store.clear_cache()
        store.read_metadata(page_id, parse=False)
        assert store.stats.decode_misses == {DECODE_METADATA: 2}

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

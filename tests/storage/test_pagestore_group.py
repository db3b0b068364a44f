"""Direct coverage for :class:`repro.storage.pagestore.PageStoreGroup`.

The facade was previously exercised only through the sharded serving
stack; these tests pin its contract in isolation: counter merging,
cache/close fan-out, and category arithmetic with overlapping
category sets.
"""

import numpy as np
import pytest

from repro.storage import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    CATEGORY_SEED_INTERNAL,
    FilePageBackend,
    PAGE_SIZE,
    PageStore,
    PageStoreError,
    PageStoreGroup,
)
from repro.storage.serial import encode_element_page


def make_page(seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 1, size=(4, 3))
    return encode_element_page(np.concatenate([lo, lo + 1], axis=1))


@pytest.fixture
def group():
    stores = [PageStore(), PageStore(), PageStore()]
    # Store 0: 2 object pages; store 1: 1 object + 2 metadata;
    # store 2: 1 seed-internal page.
    stores[0].allocate(make_page(0), CATEGORY_OBJECT)
    stores[0].allocate(make_page(1), CATEGORY_OBJECT)
    stores[1].allocate(make_page(2), CATEGORY_OBJECT)
    stores[1].allocate(make_page(3), CATEGORY_METADATA)
    stores[1].allocate(make_page(4), CATEGORY_METADATA)
    stores[2].allocate(make_page(5), CATEGORY_SEED_INTERNAL)
    return stores, PageStoreGroup(stores)


class TestConstruction:
    def test_empty_group_rejected(self):
        with pytest.raises(PageStoreError):
            PageStoreGroup([])


class TestStatsAggregation:
    def test_merges_counters_across_members(self, group):
        stores, facade = group
        stores[0].read(0)
        stores[0].read(0)  # buffered: cache hit on member 0
        stores[1].read(1)  # metadata read on member 1
        stores[1].read_elements(0)  # object read + decode on member 1
        merged = facade.stats
        assert merged.reads == {CATEGORY_OBJECT: 2, CATEGORY_METADATA: 1}
        assert merged.cache_hits == 1
        assert merged.total_decodes == 1

    def test_merged_stats_support_snapshot_diff(self, group):
        stores, facade = group
        stores[2].read(0)
        before = facade.stats.snapshot()
        stores[0].read(1)
        delta = facade.stats.diff(before)
        assert delta.reads == {CATEGORY_OBJECT: 1}
        assert delta.total_reads == 1

    def test_pruned_members_contribute_zero(self, group):
        stores, facade = group
        before = facade.stats.snapshot()
        stores[1].read(0)  # only member 1 serves this "query"
        delta = facade.stats.diff(before)
        assert delta.total_reads == 1


class TestFanOut:
    def test_clear_cache_reaches_every_member(self, group):
        stores, facade = group
        for store in stores:
            store.read(0)
            assert len(store.buffer) == 1
        facade.clear_cache()
        for store in stores:
            assert len(store.buffer) == 0

    def test_close_reaches_closable_members(self, tmp_path):
        FilePageBackend.commit_generation(tmp_path / "s",
                                          [(make_page(9), CATEGORY_OBJECT)])
        file_store = PageStore(backend=FilePageBackend.open(tmp_path / "s"))
        memory_store = PageStore()  # nothing to release; must be tolerated
        facade = PageStoreGroup([file_store, memory_store])
        facade.close()
        with pytest.raises(PageStoreError):
            file_store.read(0)


class TestCategoryArithmetic:
    def test_pages_in_single_category(self, group):
        _stores, facade = group
        assert facade.pages_in(CATEGORY_OBJECT) == 3
        assert facade.pages_in(CATEGORY_METADATA) == 2
        assert facade.pages_in(CATEGORY_SEED_INTERNAL) == 1

    def test_pages_in_overlapping_categories(self, group):
        _stores, facade = group
        # Categories spanning several members sum without double count.
        assert facade.pages_in(CATEGORY_OBJECT, CATEGORY_METADATA) == 5
        assert (
            facade.pages_in(
                CATEGORY_OBJECT, CATEGORY_METADATA, CATEGORY_SEED_INTERNAL
            )
            == 6
        )
        # Repeating a category must not double-count pages either.
        assert facade.pages_in(CATEGORY_OBJECT, CATEGORY_OBJECT) == 3

    def test_bytes_in_matches_pages_in(self, group):
        _stores, facade = group
        assert facade.bytes_in(CATEGORY_OBJECT) == 3 * PAGE_SIZE
        assert (
            facade.bytes_in(CATEGORY_OBJECT, CATEGORY_METADATA) == 5 * PAGE_SIZE
        )

    def test_len_and_size_bytes(self, group):
        stores, facade = group
        assert len(facade) == sum(len(s) for s in stores) == 6
        assert facade.size_bytes == 6 * PAGE_SIZE

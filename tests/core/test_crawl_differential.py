"""Differential guarantee: the batched crawl equals the scalar crawl.

The frontier-batched BFS in ``FLATIndex.range_query`` must read exactly
the same set of pages and return exactly the same element ids as the
record-at-a-time reference crawl (``range_query_scalar``), on every
dataset and query.  These tests pin that property on random uniform
data, on the microcircuit generator, and through the batch record API
itself.  Both crawls share ``SeedIndex.seed_query``, so the seed phase
has its own reference: a record-at-a-time descent over raw pages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FLATIndex
from repro.core.seed_index import query_keys
from repro.data.microcircuit import build_microcircuit
from repro.geometry.intersect import boxes_intersect_box
from repro.query import BenchmarkSpec, SCALED_SN_FRACTION
from repro.storage import DECODE_METADATA, PageStore
from repro.storage.serial import (
    decode_element_page,
    decode_metadata_page,
    decode_node_page,
)


def random_mbrs(n, seed=0, span=100.0, extent=2.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, extent, size=(n, 3))], axis=1)


def traced_pages(store, fn, query):
    """Run ``fn(query)`` cold-cached, recording every page id read."""
    pages = []
    original_read = store.read

    def read(page_id):
        pages.append(page_id)
        return original_read(page_id)

    store.clear_cache()
    store.read = read
    try:
        result = fn(query)
    finally:
        store.read = original_read
    return result, pages


def assert_crawls_identical(flat, store, query):
    new_result, new_pages = traced_pages(store, flat.range_query, query)
    old_result, old_pages = traced_pages(store, flat.range_query_scalar, query)
    assert np.array_equal(new_result, old_result)
    assert set(new_pages) == set(old_pages)


def reference_seed(flat, query):
    """Record-at-a-time seed descent over raw pages, without the store.

    The seed phase as it ran before the record table: each leaf is
    decoded from its raw bytes and its records are tested one by one
    in slot order.  Returns ``(record fields or None, matching slots,
    probed object pages, reads per category)``, where the reads are the
    distinct pages touched — what a cold store charges.
    """
    store, seed = flat.store, flat.seed_index
    touched: dict = {}

    def page(page_id):
        touched[page_id] = store.category(page_id)
        return store.read_silent(page_id)

    def reads():
        counts: dict = {}
        for category in touched.values():
            counts[category] = counts.get(category, 0) + 1
        return counts

    probed = []
    stack = [(seed.root_id, seed.height)]
    while stack:
        page_id, level = stack.pop()
        if level == 0:
            ids = seed.leaf_record_ids[page_id]
            records = decode_metadata_page(page(page_id))
            for slot, (page_mbr, partition_mbr, object_page_id, nbrs) in enumerate(
                records
            ):
                if not boxes_intersect_box(page_mbr[None, :], query)[0]:
                    continue
                probed.append(int(object_page_id))
                elements = decode_element_page(page(int(object_page_id)))
                mask = boxes_intersect_box(elements, query)
                if mask.any():
                    record = (int(ids[slot]), page_mbr, partition_mbr,
                              int(object_page_id), tuple(nbrs))
                    return record, np.flatnonzero(mask), probed, reads()
            continue
        child_ids, child_mbrs, _leaf = decode_node_page(page(page_id))
        for cid in child_ids[boxes_intersect_box(child_mbrs, query)][::-1]:
            stack.append((int(cid), level - 1))
    return None, None, probed, reads()


def assert_seed_matches_reference(flat, query):
    """``seed_query`` on a cold cache, with a cold and then a warm record
    table, against :func:`reference_seed`."""
    store, seed = flat.store, flat.seed_index
    want, want_slots, want_probed, want_reads = reference_seed(flat, query)
    seed.records.clear()
    for _table in ("cold", "warm"):
        store.clear_cache()
        before = store.stats.snapshot()
        seeded = seed.seed_query(query)
        assert store.stats.diff(before).reads == want_reads
        assert seed.last_probe_object_page_ids == want_probed
        if want is None:
            assert seeded is None
            continue
        record, slots = seeded
        rid, page_mbr, partition_mbr, object_page_id, neighbor_ids = want
        assert record.record_id == rid
        assert np.array_equal(record.page_mbr, page_mbr)
        assert np.array_equal(record.partition_mbr, partition_mbr)
        assert record.object_page_id == object_page_id
        assert record.neighbor_ids == neighbor_ids
        assert np.array_equal(slots, want_slots)
        # The returned record owns its arrays: no view of the table.
        assert not np.shares_memory(record.page_mbr, seed.records.bounds)
        assert not np.shares_memory(record.partition_mbr, seed.records.bounds)


class TestSeedDifferential:
    @pytest.mark.parametrize("n", [40, 800, 3000])
    def test_random_queries(self, n):
        flat = FLATIndex.build(PageStore(), random_mbrs(n, seed=n + 2))
        rng = np.random.default_rng(n + 3)
        for _ in range(15):
            lo = rng.uniform(-5, 105, size=3)
            query = np.concatenate([lo, lo + rng.uniform(0.05, 20, size=3)])
            assert_seed_matches_reference(flat, query)

    def test_microcircuit_sn_boxes(self):
        circuit = build_microcircuit(6000, side=15.0, seed=3)
        flat = FLATIndex.build(PageStore(), circuit.mbrs(),
                               space_mbr=circuit.space_mbr)
        queries = BenchmarkSpec("SN", SCALED_SN_FRACTION, 20).queries(
            circuit.space_mbr, seed=5
        )
        for query in queries:
            assert_seed_matches_reference(flat, query)

    def test_empty_queries(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(1500, seed=6))
        outside = np.array([500.0, 500, 500, 501, 501, 501])
        assert reference_seed(flat, outside)[0] is None
        assert_seed_matches_reference(flat, outside)
        # Tiny boxes inside the space: the reference probes candidate
        # object pages and finds no element in any of them.
        rng = np.random.default_rng(7)
        probed_misses = 0
        for _ in range(60):
            lo = rng.uniform(0, 100, size=3)
            query = np.concatenate([lo, lo + 0.05])
            record, _slots, probed, _reads = reference_seed(flat, query)
            if record is None:
                probed_misses += bool(probed)
                assert_seed_matches_reference(flat, query)
        assert probed_misses


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2**31), st.integers(0, 2**31))
def test_seed_differential_property(n, data_seed, query_seed):
    flat = FLATIndex.build(PageStore(), random_mbrs(n, seed=data_seed))
    rng = np.random.default_rng(query_seed)
    lo = rng.uniform(-10, 100, size=3)
    query = np.concatenate([lo, lo + rng.uniform(0, 30, size=3)])
    assert_seed_matches_reference(flat, query)


class TestDifferentialUniform:
    @pytest.mark.parametrize("n", [40, 500, 2500])
    def test_random_queries_read_same_pages(self, n):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(n, seed=n))
        rng = np.random.default_rng(n + 1)
        for _ in range(12):
            lo = rng.uniform(-5, 105, size=3)
            query = np.concatenate([lo, lo + rng.uniform(0.5, 30, size=3)])
            assert_crawls_identical(flat, store, query)

    def test_physical_read_counters_match(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(3000, seed=1))
        query = np.array([20.0, 20, 20, 70, 70, 70])

        store.clear_cache()
        before = store.stats.snapshot()
        flat.range_query(query)
        new_reads = store.stats.diff(before).reads

        store.clear_cache()
        before = store.stats.snapshot()
        flat.range_query_scalar(query)
        old_reads = store.stats.diff(before).reads
        assert new_reads == old_reads

    def test_batched_crawl_decodes_fewer_metadata_pages(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(4000, seed=2))
        query = np.array([10.0, 10, 10, 80, 80, 80])

        store.clear_cache()
        before = store.stats.snapshot()
        flat.range_query(query)
        batched = store.stats.diff(before).decodes_in(DECODE_METADATA)

        store.clear_cache()
        before = store.stats.snapshot()
        flat.range_query_scalar(query)
        scalar = store.stats.diff(before).decodes_in(DECODE_METADATA)
        assert batched < scalar
        # The batched engine decodes each touched metadata page once.
        assert batched <= flat.metadata_page_count


class TestDifferentialMicrocircuit:
    def test_sn_style_queries(self):
        circuit = build_microcircuit(6000, side=15.0, seed=3)
        store = PageStore()
        flat = FLATIndex.build(store, circuit.mbrs(), space_mbr=circuit.space_mbr)
        rng = np.random.default_rng(4)
        space = circuit.space_mbr
        span = space[3:] - space[:3]
        for frac in (5e-6, 5e-3):
            side = span * frac ** (1 / 3)
            for _ in range(8):
                lo = space[:3] + rng.uniform(0, 1, size=3) * (span - side)
                query = np.concatenate([lo, lo + side])
                assert_crawls_identical(flat, store, query)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**31), st.integers(0, 2**31))
def test_differential_property(n, data_seed, query_seed):
    store = PageStore()
    flat = FLATIndex.build(store, random_mbrs(n, seed=data_seed))
    rng = np.random.default_rng(query_seed)
    lo = rng.uniform(-10, 100, size=3)
    query = np.concatenate([lo, lo + rng.uniform(0, 40, size=3)])
    assert_crawls_identical(flat, store, query)

    # The same query in a group beside its duplicate and an empty box:
    # each answer is the scalar crawl's, and cold, the group reads what
    # a serial cold loop over the same boxes reads.
    group = np.stack([query, np.array([500.0, 500, 500, 501, 501, 501]), query])
    want = flat.range_query_scalar(query)
    before = store.stats.snapshot()
    for box in group:
        store.clear_cache()
        flat.range_query(box)
    serial_reads = store.stats.diff(before).reads
    for cold in (True, False):
        store.clear_cache()
        before = store.stats.snapshot()
        got = flat.range_query_multi(group, cold=cold)
        assert np.array_equal(got[0], want)
        assert np.array_equal(got[2], want)
        assert got[1].size == 0
        if cold:
            assert store.stats.diff(before).reads == serial_reads


class TestRecordTableAPI:
    """``fetch_records_batch`` reads the leaves and returns the record
    table; rows are read from the table by record id."""

    def test_table_rows_match_scalar_fetch(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(1500, seed=5))
        seed = flat.seed_index
        rng = np.random.default_rng(6)
        ids = rng.choice(seed.record_count, size=min(60, seed.record_count),
                         replace=False)
        table = seed.fetch_records_batch(ids)
        assert table is seed.records
        for record_id in ids.tolist():
            record = seed.fetch_record(record_id)
            assert np.array_equal(
                table.bounds[record_id],
                np.concatenate([record.page_mbr[:3], -record.page_mbr[3:],
                                record.partition_mbr[:3],
                                -record.partition_mbr[3:]]),
            )
            assert table.object_page_ids[record_id] == record.object_page_id
            start = table.neighbor_starts[record_id]
            end = start + table.neighbor_counts[record_id]
            assert tuple(table.neighbor_ids[start:end]) == record.neighbor_ids
            row = table.record(record_id)
            assert row.record_id == record.record_id
            assert np.array_equal(row.page_mbr, record.page_mbr)
            assert np.array_equal(row.partition_mbr, record.partition_mbr)
            assert row.object_page_id == record.object_page_id
            assert row.neighbor_ids == record.neighbor_ids

    def test_bounds_answer_both_guards(self):
        """One comparison with the query keys equals both closed MBR
        tests, boxes that only touch a row's MBR included."""
        flat = FLATIndex.build(PageStore(), random_mbrs(1200, seed=14))
        seed = flat.seed_index
        ids = np.arange(seed.record_count)
        table = seed.fetch_records_batch(ids)
        records = [seed.fetch_record(rid) for rid in ids.tolist()]
        page_mbrs = np.stack([r.page_mbr for r in records])
        partition_mbrs = np.stack([r.partition_mbr for r in records])
        rng = np.random.default_rng(15)
        boxes = [np.concatenate([lo, lo + rng.uniform(0, 30, size=3)])
                 for lo in rng.uniform(-10, 100, size=(20, 3))]
        # Boxes whose faces lie exactly on a row's faces.
        boxes += [np.concatenate([mbr[3:], mbr[3:] + 1]) for mbr in page_mbrs[:5]]
        boxes += [np.concatenate([mbr[:3] - 1, mbr[:3]])
                  for mbr in partition_mbrs[:5]]
        keys = query_keys(np.stack(boxes))
        for box, key in zip(boxes, keys):
            meets = (table.bounds[ids] <= key).reshape(-1, 2, 6).all(axis=2)
            assert np.array_equal(meets[:, 0], boxes_intersect_box(page_mbrs, box))
            assert np.array_equal(meets[:, 1],
                                  boxes_intersect_box(partition_mbrs, box))

    def test_fetch_decodes_each_leaf_once(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(2000, seed=7))
        seed = flat.seed_index
        store.clear_cache()
        before = store.stats.snapshot()
        seed.fetch_records_batch(np.arange(seed.record_count))
        delta = store.stats.diff(before)
        assert delta.decodes_in(DECODE_METADATA) == flat.metadata_page_count
        assert seed.records.leaves == set(seed.leaf_page_ids)

    def test_empty_fetch_reads_nothing(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(100, seed=8))
        before = store.stats.snapshot()
        table = flat.seed_index.fetch_records_batch(np.empty(0, dtype=np.int64))
        assert table is flat.seed_index.records
        assert store.stats.diff(before).total_reads == 0
        assert not table.leaves

    def test_out_of_range_batch_rejected(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(100, seed=9))
        with pytest.raises(ValueError):
            flat.seed_index.fetch_records_batch([flat.seed_index.record_count])


class TestResultCountRegression:
    def test_result_count_zero_when_crawl_finds_nothing(self):
        # A query that seeds but yields no intersecting elements must
        # still leave result_count == 0 (it was previously left unset on
        # the early-return path).  Force the situation via a query that
        # misses everything: seeding fails, crawl returns empty.
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(300, seed=11))
        out = flat.range_query(np.array([500.0, 500, 500, 501, 501, 501]))
        assert len(out) == 0
        assert flat.last_crawl_stats.result_count == 0

        out = flat.range_query_scalar(np.array([500.0, 500, 500, 501, 501, 501]))
        assert len(out) == 0
        assert flat.last_crawl_stats.result_count == 0

    def test_result_count_always_matches_result_length(self):
        store = PageStore()
        mbrs = random_mbrs(800, seed=12)
        flat = FLATIndex.build(store, mbrs)
        rng = np.random.default_rng(13)
        for _ in range(20):
            lo = rng.uniform(-20, 110, size=3)
            query = np.concatenate([lo, lo + rng.uniform(0.1, 15, size=3)])
            out = flat.range_query(query)
            assert flat.last_crawl_stats.result_count == len(out)

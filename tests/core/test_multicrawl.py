"""Differential guarantee: the multi-query joint crawl equals the
serial crawl — per-query ids byte-identical, per-query cold page-read
accounting byte-identical — on memory stores and on restored
mmap-backed file stores, duplicates and empty-result queries included.

Decode counters are *not* pinned: the joint BFS decodes each touched
page once per group, which is the optimization.
"""

import numpy as np
import pytest

from repro.core import FLATIndex, restore_index, snapshot_index
from repro.query import run_queries
from repro.query.workload import random_range_queries
from repro.storage import PageStore

SPACE = np.array([0.0, 0.0, 0.0, 100.0, 100.0, 100.0])


def random_mbrs(n, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2, size=(n, 3))], axis=1)


@pytest.fixture(scope="module")
def setup():
    store = PageStore()
    flat = FLATIndex.build(store, random_mbrs(4000, seed=2))
    queries = random_range_queries(SPACE, 0.0008, 40, seed=9)
    # Guarantee at least one certainly-empty query in the workload.
    empty = np.array([[300.0, 300, 300, 301, 301, 301]])
    queries = np.vstack([queries, empty])
    serial = [flat.range_query(q) for q in queries]
    return flat, store, queries, serial


def cold_reads(flat, store, queries):
    """Per-category reads of the serial cold-cache loop."""
    store.clear_cache()
    before = store.stats.snapshot()
    for query in queries:
        store.clear_cache()
        flat.range_query(query)
    return dict(store.stats.diff(before).reads)


class TestResultsIdentical:
    def test_per_query_ids_match_serial(self, setup):
        flat, _store, queries, serial = setup
        batched = flat.range_query_multi(queries)
        assert len(batched) == len(serial)
        for got, want in zip(batched, serial):
            assert np.array_equal(got, want)

    def test_includes_empty_result_queries(self, setup):
        flat, _store, queries, serial = setup
        batched = flat.range_query_multi(queries)
        assert len(batched[-1]) == 0
        assert batched[-1].dtype == np.int64

    def test_warm_mode_same_ids(self, setup):
        flat, _store, queries, serial = setup
        batched = flat.range_query_multi(queries, cold=False)
        for got, want in zip(batched, serial):
            assert np.array_equal(got, want)

    def test_empty_group(self, setup):
        flat, _store, _queries, _serial = setup
        assert flat.range_query_multi(np.empty((0, 6))) == []

    def test_single_query_group(self, setup):
        flat, _store, queries, serial = setup
        batched = flat.range_query_multi(queries[:1])
        assert len(batched) == 1
        assert np.array_equal(batched[0], serial[0])


class TestColdAccountingIdentical:
    def test_reads_match_serial_cold_loop(self, setup):
        flat, store, queries, _serial = setup
        want = cold_reads(flat, store, queries)
        before = store.stats.snapshot()
        flat.range_query_multi(queries)
        got = dict(store.stats.diff(before).reads)
        assert got == want

    def test_duplicate_queries_each_charged(self, setup):
        # Two identical queries in one group must charge every touched
        # page twice — the paper's metric is per-query, and a batch of
        # clones is the worst case for physical sharing.
        flat, store, queries, _serial = setup
        single = queries[:1]
        want_single = cold_reads(flat, store, single)
        doubled = np.vstack([single, single])
        before = store.stats.snapshot()
        flat.range_query_multi(doubled)
        got = dict(store.stats.diff(before).reads)
        assert got == {k: 2 * v for k, v in want_single.items() if v}

    def test_warm_mode_reads_fewer_pages(self, setup):
        flat, store, queries, _serial = setup
        want_cold = sum(cold_reads(flat, store, queries).values())
        store.clear_cache()
        before = store.stats.snapshot()
        flat.range_query_multi(queries, cold=False)
        got_warm = sum(store.stats.diff(before).reads.values())
        assert 0 < got_warm < want_cold


class TestFileStore:
    def test_restored_store_ids_and_reads_match(self, setup, tmp_path):
        flat, _store, queries, serial = setup
        snapshot_index(flat, tmp_path)
        restored = restore_index(tmp_path)
        want = cold_reads(restored, restored.store, queries)
        before = restored.store.stats.snapshot()
        batched = restored.range_query_multi(queries)
        got = dict(restored.store.stats.diff(before).reads)
        for a, b in zip(batched, serial):
            assert np.array_equal(a, b)
        assert got == want
        restored.store.close()


def chunked(flat, store, queries, group_size):
    """Per-query ids and the stat diff of cold ``range_query_multi``
    calls over *group_size*-query chunks, as the service's batch path
    makes them."""
    before = store.stats.snapshot()
    hits = []
    for first in range(0, len(queries), group_size):
        hits.extend(flat.range_query_multi(queries[first:first + group_size]))
    return hits, store.stats.diff(before)


class TestChunkedGroups:
    @pytest.mark.parametrize("group_size", [1, 7, 1000])
    def test_chunks_charge_the_serial_cold_loop(self, setup, group_size):
        flat, store, queries, serial = setup
        want = cold_reads(flat, store, queries)
        hits, diff = chunked(flat, store, queries, group_size)
        assert len(hits) == len(serial)
        for got, ids in zip(hits, serial):
            assert np.array_equal(got, ids)
        assert dict(diff.reads) == want

    def test_a_dense_group_decodes_less_than_the_serial_loop(self, setup):
        # The whole point of the joint crawl: pages touched by several
        # queries of one group decode once.  A denser workload (queries
        # overlap heavily) makes the amortization visible; reads still
        # stay byte-identical to the serial loop.
        flat, store, _queries, _serial = setup
        dense = random_range_queries(SPACE, 0.01, 30, seed=4)
        serial_run = run_queries(flat, store, dense, "serial")
        _hits, diff = chunked(flat, store, dense, 30)
        assert dict(diff.reads) == serial_run.reads_by_category
        assert diff.total_decodes < serial_run.total_page_decodes

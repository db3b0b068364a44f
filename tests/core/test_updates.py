"""Differential pin for the FLAT write path.

Every mutation rebuilds the live set (``FLATIndex.apply_batch`` adopts
``merged``).  The acceptance bar: after *any* tested interleaving of
inserts and deletes — clustered storms, deletes down to a handful of
elements, and space growth past the build's box — range, point and kNN
queries must answer byte-identically to a FLAT index rebuilt from
scratch on the same surviving element set, both for an in-memory index
and for one restored from a snapshot, whose rebuilds land on overlays
over the read-only file backend (the path a served index takes).
"""

import numpy as np
import pytest

from repro.core import FLATIndex
from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import mbr_distance_to_point
from repro.storage import BufferPool, PageStore, PageStoreError
from repro.storage.pagestore import OverlayPageBackend

PAGE_CAPACITY = 12


def random_mbrs(n, seed=0, span=100.0, extent=2.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, extent, size=(n, 3))], axis=1)


def random_queries(count, seed, lo=-30.0, hi=160.0):
    rng = np.random.default_rng(seed)
    corners = rng.uniform(lo, hi, size=(count, 3))
    extents = rng.uniform(1.0, 45.0, size=(count, 3))
    return np.concatenate([corners, corners + extents], axis=1)


class Oracle:
    """Tracks the live element set and answers queries three ways."""

    def __init__(self, mbrs):
        self.live = {i: mbrs[i] for i in range(len(mbrs))}

    def insert(self, ids, mbrs):
        for eid, mbr in zip(ids, mbrs):
            self.live[int(eid)] = mbr

    def delete(self, ids):
        for eid in ids:
            del self.live[int(eid)]

    def arrays(self):
        ids = np.fromiter(sorted(self.live), dtype=np.int64, count=len(self.live))
        boxes = (
            np.stack([self.live[int(i)] for i in ids])
            if len(ids)
            else np.empty((0, 6))
        )
        return ids, boxes

    def rebuilt(self):
        """A from-scratch FLAT over the live set (local ids = positions)."""
        ids, boxes = self.arrays()
        if not len(ids):
            return ids, None
        return ids, FLATIndex.build(PageStore(), boxes, page_capacity=PAGE_CAPACITY)

    def assert_equivalent(self, flat, query_seed):
        ids, rebuilt = self.rebuilt()
        queries = random_queries(12, query_seed)
        for query in queries:
            got = flat.range_query(query)
            if rebuilt is None:
                assert len(got) == 0
                continue
            # Pin against the scratch rebuild (ids mapped to global)...
            scratch = ids[rebuilt.range_query(query)]
            assert np.array_equal(got, scratch)
            # ...and against brute force, so a shared blind spot in the
            # crawl cannot hide behind the rebuild.
            _, boxes = self.arrays()
            assert np.array_equal(got, ids[boxes_intersect_box(boxes, query)])
        if rebuilt is not None:
            point = queries[0][:3]
            assert np.array_equal(
                flat.point_query(point), ids[rebuilt.point_query(point)]
            )
            k = min(9, len(ids))
            assert np.array_equal(flat.knn_query(point, k),
                                  ids[rebuilt.knn_query(point, k)])


@pytest.fixture(params=["memory", "file"])
def make_index(request, tmp_path):
    """Builds the index under test: in memory, or restored from a snapshot."""
    restored = []

    def factory(mbrs):
        flat = FLATIndex.build(PageStore(), mbrs, page_capacity=PAGE_CAPACITY)
        if request.param == "memory":
            return flat
        directory = tmp_path / f"snapshot-{len(restored)}"
        flat.snapshot(directory)
        restored.append(FLATIndex.restore(directory))
        return restored[-1]

    yield factory
    for index in restored:
        index.store.close()


class TestDifferentialInterleavings:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleaving_matches_rebuild(self, make_index, seed):
        rng = np.random.default_rng(seed)
        mbrs = random_mbrs(400, seed=seed)
        flat = make_index(mbrs)
        oracle = Oracle(mbrs)
        for step in range(6):
            if rng.random() < 0.55 or len(oracle.live) < 50:
                new = random_mbrs(
                    int(rng.integers(20, 90)),
                    seed=1000 * seed + step,
                    span=float(rng.uniform(80, 180)),
                )
                oracle.insert(flat.insert(new), new)
            else:
                pool = np.fromiter(sorted(oracle.live), dtype=np.int64,
                                   count=len(oracle.live))
                victims = rng.choice(
                    pool, size=int(rng.integers(20, len(pool) // 2)), replace=False
                )
                flat.delete(victims)
                oracle.delete(victims)
            oracle.assert_equivalent(flat, query_seed=31 * seed + step)

    def test_split_storm_into_one_region(self, make_index):
        # Hammer one partition until it splits repeatedly.
        mbrs = random_mbrs(150, seed=3)
        flat = make_index(mbrs)
        oracle = Oracle(mbrs)
        records_before = flat.seed_index.record_count
        rng = np.random.default_rng(4)
        for step in range(3):
            lo = np.full((60, 3), 50.0) + rng.uniform(0, 0.5, size=(60, 3))
            clustered = np.concatenate([lo, lo + 0.1], axis=1)
            oracle.insert(flat.insert(clustered), clustered)
            oracle.assert_equivalent(flat, query_seed=50 + step)
        assert flat.seed_index.record_count > records_before

    def test_delete_storm_forces_merges(self, make_index):
        mbrs = random_mbrs(500, seed=5)
        flat = make_index(mbrs)
        records_before = flat.seed_index.record_count
        oracle = Oracle(mbrs)
        rng = np.random.default_rng(6)
        survivors = set(rng.choice(len(mbrs), size=40, replace=False).tolist())
        victims = [i for i in range(len(mbrs)) if i not in survivors]
        for chunk in np.array_split(np.asarray(victims), 4):
            flat.delete(chunk)
            oracle.delete(chunk)
            oracle.assert_equivalent(flat, query_seed=int(chunk[0]))
        # The survivors fill far fewer pages, hence records.
        assert flat.seed_index.record_count < records_before // 4

    def test_outlier_inserts_grow_the_space(self, make_index):
        # Elements far outside the build box, in opposite directions:
        # the covered space must grow so the crawl can reach both.
        mbrs = random_mbrs(200, seed=7, span=10.0)
        flat = make_index(mbrs)
        oracle = Oracle(mbrs)
        far = np.array(
            [
                [200.0, 200, 200, 201, 201, 201],
                [-300.0, -300, -300, -299, -299, -299],
                [200.0, -300, 5, 201, -299, 6],
            ]
        )
        oracle.insert(flat.insert(far), far)
        oracle.assert_equivalent(flat, query_seed=70)
        # A giant query touching both outliers sees them all.
        got = flat.range_query(np.array([-400.0, -400, -400, 400, 400, 400]))
        assert len(got) == len(oracle.live)

    def test_wipe_and_reinsert(self, make_index):
        mbrs = random_mbrs(120, seed=8)
        flat = make_index(mbrs)
        flat.delete(np.arange(len(mbrs)))
        assert flat.element_count == 0
        everything = np.array([-50.0, -50, -50, 200, 200, 200])
        assert len(flat.range_query(everything)) == 0
        assert len(flat.knn_query(np.zeros(3), 5)) == 0
        fresh = random_mbrs(60, seed=9)
        new_ids = flat.insert(fresh)
        # Deleted ids are never reused.
        assert new_ids.min() == len(mbrs)
        oracle = Oracle(np.empty((0, 6)))
        oracle.insert(new_ids, fresh)
        oracle.assert_equivalent(flat, query_seed=90)


class TestUpdateApi:
    def test_insert_returns_monotonic_ids(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(100, seed=1),
                               page_capacity=PAGE_CAPACITY)
        first = flat.insert(random_mbrs(10, seed=2))
        second = flat.insert(random_mbrs(10, seed=3))
        assert np.array_equal(first, np.arange(100, 110))
        assert np.array_equal(second, np.arange(110, 120))
        assert flat.element_count == 120

    def test_empty_batches_are_noops(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(50, seed=1))
        assert len(flat.insert(np.empty((0, 6)))) == 0
        flat.delete(np.empty(0, dtype=np.int64))
        assert flat.element_count == 50

    def test_delete_unknown_id_raises(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(50, seed=1))
        with pytest.raises(KeyError, match="unknown element ids"):
            flat.delete([50])
        flat.delete([7])
        with pytest.raises(KeyError, match="unknown element ids"):
            flat.delete([7])  # double delete

    def test_delete_unknown_ids_are_all_named(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(50, seed=1))
        with pytest.raises(KeyError, match=r"unknown element ids: \[77, 99\]"):
            flat.delete([3, 99, 4, 77])

    def test_failed_delete_batch_mutates_nothing(self):
        # One bad id must not leave the batch's valid ids half-removed.
        mbrs = random_mbrs(200, seed=2)
        flat = FLATIndex.build(PageStore(), mbrs, page_capacity=PAGE_CAPACITY)
        everything = np.array([-10.0, -10, -10, 120, 120, 120])
        with pytest.raises(KeyError, match="unknown element ids"):
            flat.delete([3, 4, 999])
        assert flat.element_count == 200
        assert len(flat.range_query(everything)) == 200
        flat.delete([3, 4])  # the valid ids are still deletable
        assert flat.element_count == 198

    def test_duplicate_ids_in_delete_batch_raise(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(50, seed=1))
        with pytest.raises(ValueError, match="duplicate element id"):
            flat.delete([5, 5])
        assert flat.element_count == 50

    def test_restored_index_mutates_onto_an_overlay(self, tmp_path):
        mbrs = random_mbrs(80, seed=1)
        flat = FLATIndex.build(PageStore(), mbrs)
        flat.snapshot(tmp_path / "snap")
        restored = FLATIndex.restore(tmp_path / "snap")
        store = restored.store
        try:
            fork = restored.fork()
            new = random_mbrs(5, seed=3)
            new_ids = fork.insert(new)
            restored.delete([5])
            assert isinstance(restored.store.backend, OverlayPageBackend)
            assert restored.store.backend.base is store.backend
            assert restored.element_count == 79
            assert fork.element_count == 85
            deleted = Oracle(mbrs)
            deleted.delete([5])
            deleted.assert_equivalent(restored, query_seed=4)
            grown = Oracle(mbrs)
            grown.insert(new_ids, new)
            grown.assert_equivalent(fork, query_seed=5)
        finally:
            store.close()


class TestRebuildStore:
    """A rebuild's store keeps the replaced store's pool budget and
    counts, and closing it releases a restored index's file."""

    @staticmethod
    def bounded():
        return {"buffer": BufferPool(byte_capacity=262144)}

    @staticmethod
    def insert_after_queries(flat):
        """Serve a few queries, then insert; the replaced store and its
        counts before the insert."""
        for query in random_queries(3, seed=8):
            flat.range_query(query)
        replaced, before = flat.store, flat.store.stats.snapshot()
        assert before.total_reads > 0
        flat.insert(random_mbrs(10, seed=9))
        return replaced, before

    @staticmethod
    def assert_carried_over(store, replaced, before, rebuilt_pages):
        assert store is not replaced and store.buffer is not replaced.buffer
        assert store.buffer.byte_capacity == 262144
        assert store.stats.reads == before.reads
        assert store.stats.cache_hits == before.cache_hits
        assert store.stats.decode_misses == before.decode_misses
        assert sum(store.stats.diff(before).writes.values()) == rebuilt_pages

    def test_memory_rebuild_keeps_bounds_and_counts(self):
        flat = FLATIndex.build(PageStore(**self.bounded()),
                               random_mbrs(300, seed=7),
                               page_capacity=PAGE_CAPACITY)
        replaced, before = self.insert_after_queries(flat)
        self.assert_carried_over(flat.store, replaced, before, len(flat.store))

    def test_restored_rebuild_keeps_bounds_and_counts(self, tmp_path):
        FLATIndex.build(PageStore(), random_mbrs(300, seed=7),
                        page_capacity=PAGE_CAPACITY).snapshot(tmp_path / "snap")
        flat = FLATIndex.restore(tmp_path / "snap", **self.bounded())
        try:
            replaced, before = self.insert_after_queries(flat)
            self.assert_carried_over(flat.store, replaced, before,
                                     len(flat.store) - len(replaced))
        finally:
            flat.store.close()

    def test_closing_a_mutated_restored_index_releases_its_file(self, tmp_path):
        FLATIndex.build(PageStore(), random_mbrs(80, seed=1)).snapshot(
            tmp_path / "snap"
        )
        restored = FLATIndex.restore(tmp_path / "snap")
        backend = restored.store.backend
        mapping = backend._mmap
        restored.delete([0])
        assert restored.store.backend.base is backend
        restored.store.close()
        assert backend.closed and mapping.closed
        with pytest.raises(PageStoreError, match="closed"):
            restored.range_query(np.array([0.0, 0, 0, 100, 100, 100]))


class TestForkIsolation:
    def test_fork_never_perturbs_base(self):
        mbrs = random_mbrs(300, seed=10)
        flat = FLATIndex.build(PageStore(), mbrs, page_capacity=PAGE_CAPACITY)
        queries = random_queries(10, seed=11)
        baseline = [flat.range_query(q) for q in queries]
        fork = flat.fork()
        fork.insert(random_mbrs(120, seed=12, span=200.0))
        fork.delete(np.arange(0, 150))
        for query, expected in zip(queries, baseline):
            assert np.array_equal(flat.range_query(query), expected)
        oracle = Oracle(mbrs)
        oracle.insert(np.arange(300, 420), random_mbrs(120, seed=12, span=200.0))
        oracle.delete(np.arange(0, 150))
        oracle.assert_equivalent(fork, query_seed=13)

    def test_chained_forks(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(100, seed=14),
                               page_capacity=PAGE_CAPACITY)
        fork1 = flat.fork()
        fork1.delete([0, 1, 2])
        fork2 = fork1.fork()
        fork2.insert(random_mbrs(30, seed=15))
        assert flat.element_count == 100
        assert fork1.element_count == 97
        assert fork2.element_count == 127

    def test_knn_directories_rebuilt_after_mutation(self):
        mbrs = random_mbrs(200, seed=16)
        flat = FLATIndex.build(PageStore(), mbrs, page_capacity=PAGE_CAPACITY)
        point = np.array([50.0, 50, 50])
        flat.knn_query(point, 5)  # populate the kNN directories
        new = random_mbrs(40, seed=17)
        new_ids = flat.insert(new)
        ids = np.concatenate([np.arange(len(mbrs)), new_ids])
        boxes = np.concatenate([mbrs, new], axis=0)
        dists = mbr_distance_to_point(boxes, point)
        expected = ids[np.lexsort((ids, dists))[:5]]
        assert np.array_equal(flat.knn_query(point, 5), expected)

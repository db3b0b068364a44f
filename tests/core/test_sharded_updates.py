"""Write path of the sharded index: routing, widening, fork, restore.

Updates route to shards by element centroid; an insert whose MBR falls
outside every shard box widens the routed shard's box (and the
planner's copy) so pruning stays exact.  Every touched shard is
rebuilt (``ShardedFLATIndex.merged``) and replaces the old shard
object.  The differential bar matches the monolithic one: after any
tested interleaving, query answers are byte-identical to a
scratch-rebuilt index over the surviving elements.
"""

import numpy as np
import pytest

from repro.core import ShardedFLATIndex
from repro.storage import BufferPool, PageStore
from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import mbr_center, mbr_contains_mbr, mbr_distance_to_point


def random_mbrs(n, seed=0, span=100.0, extent=2.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, extent, size=(n, 3))], axis=1)


def random_queries(count, seed, lo=-60.0, hi=260.0):
    rng = np.random.default_rng(seed)
    corners = rng.uniform(lo, hi, size=(count, 3))
    return np.concatenate(
        [corners, corners + rng.uniform(2.0, 60.0, size=(count, 3))], axis=1
    )


def assert_exact(index, live, query_seed):
    ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    boxes = np.stack([live[int(i)] for i in ids])
    for query in random_queries(12, query_seed):
        assert np.array_equal(
            index.range_query(query), ids[boxes_intersect_box(boxes, query)]
        )
    point = boxes[0, :3]
    dists = mbr_distance_to_point(boxes, point)
    k = min(8, len(ids))
    assert np.array_equal(
        index.knn_query(point, k), ids[np.lexsort((ids, dists))[:k]]
    )


class TestRouting:
    def test_insert_routes_to_containing_shard(self):
        mbrs = random_mbrs(600, seed=1)
        index = ShardedFLATIndex.build(mbrs, shard_count=4, page_capacity=16)
        shards = list(index.shards)
        target = shards[2]
        center = mbr_center(target.mbr[None, :])[0]
        element = np.concatenate([center - 0.05, center + 0.05])
        (gid,) = index.insert(element[None, :])
        # Only the routed shard is rebuilt; it replaces the old object.
        rebuilt = index.shards[2]
        assert rebuilt is not target
        assert len(rebuilt.element_ids) == len(target.element_ids) + 1
        assert int(rebuilt.element_ids[-1]) == int(gid)
        for pos in (0, 1, 3):
            assert index.shards[pos] is shards[pos]

    def test_outlier_insert_widens_shard_and_planner(self):
        mbrs = random_mbrs(600, seed=2)
        index = ShardedFLATIndex.build(mbrs, shard_count=4, page_capacity=16)
        outlier = np.array([[500.0, 500, 500, 504, 504, 504]])
        (gid,) = index.insert(outlier)
        routed = index._element_shard[int(gid)]
        shard = index.shards[routed]
        assert bool(mbr_contains_mbr(shard.mbr, outlier[0]))
        assert bool(mbr_contains_mbr(index.planner.shard_mbrs[routed], outlier[0]))
        # Pruning stays exact: a query at the outlier finds it.
        hit = index.range_query(np.array([499.0, 499, 499, 505, 505, 505]))
        assert np.array_equal(hit, np.array([gid]))

    def test_every_element_stays_inside_its_shard_box(self):
        mbrs = random_mbrs(500, seed=3)
        index = ShardedFLATIndex.build(mbrs, shard_count=4, page_capacity=16)
        index.insert(random_mbrs(200, seed=4, span=300.0))
        index.delete(list(range(0, 150)))
        live = dict(index._routing_directory())
        for gid, pos in live.items():
            shard = index.shards[pos]
            local = int(np.searchsorted(shard.element_ids, gid))
            assert int(shard.element_ids[local]) == gid

    def test_delete_unknown_id_raises(self):
        index = ShardedFLATIndex.build(random_mbrs(100, seed=5), shard_count=2)
        with pytest.raises(KeyError, match="unknown element ids"):
            index.delete([100])
        index.delete([4])
        with pytest.raises(KeyError, match="unknown element ids"):
            index.delete([4])

    def test_failed_delete_batch_mutates_nothing(self):
        # A bad id must not strand valid ids half-removed from routing.
        index = ShardedFLATIndex.build(random_mbrs(100, seed=6), shard_count=2)
        with pytest.raises(KeyError, match=r"unknown element ids: \[999\]"):
            index.delete([7, 8, 999])
        assert index.element_count == 100
        index.delete([7, 8])  # still deletable after the failed batch
        assert index.element_count == 98
        with pytest.raises(ValueError, match="duplicate element id"):
            index.delete([9, 9])


class TestShardedDifferential:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_interleaving_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        mbrs = random_mbrs(800, seed=seed + 10)
        index = ShardedFLATIndex.build(mbrs, shard_count=5, page_capacity=16)
        live = {i: mbrs[i] for i in range(len(mbrs))}
        for step in range(5):
            if rng.random() < 0.55 or len(live) < 100:
                new = random_mbrs(
                    int(rng.integers(40, 120)),
                    seed=100 * seed + step,
                    span=float(rng.uniform(80, 260)),
                )
                for gid, mbr in zip(index.insert(new), new):
                    live[int(gid)] = mbr
            else:
                pool = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
                victims = rng.choice(
                    pool, size=int(rng.integers(50, len(pool) // 2)), replace=False
                )
                index.delete(victims)
                for gid in victims:
                    del live[int(gid)]
            assert_exact(index, live, query_seed=7 * seed + step)
        assert index.element_count == len(live)

    def test_matches_scratch_rebuilt_sharded_index(self):
        mbrs = random_mbrs(600, seed=20)
        index = ShardedFLATIndex.build(mbrs, shard_count=4, page_capacity=16)
        new = random_mbrs(150, seed=21, span=200.0)
        new_ids = index.insert(new)
        index.delete(list(range(0, 200)))
        live = {i: mbrs[i] for i in range(200, len(mbrs))}
        for gid, mbr in zip(new_ids, new):
            live[int(gid)] = mbr
        ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
        boxes = np.stack([live[int(i)] for i in ids])
        rebuilt = ShardedFLATIndex.build(boxes, shard_count=4, page_capacity=16)
        for query in random_queries(15, seed=22):
            assert np.array_equal(
                index.range_query(query), ids[rebuilt.range_query(query)]
            )


class TestShardedForkAndRestore:
    def test_fork_isolation_including_widening(self):
        mbrs = random_mbrs(500, seed=30)
        index = ShardedFLATIndex.build(mbrs, shard_count=3, page_capacity=16)
        planner_boxes = index.planner.shard_mbrs.copy()
        fork = index.fork()
        fork.insert(np.array([[900.0, 900, 900, 901, 901, 901]]))
        fork.delete([0, 1])
        # The base's planner and shard boxes are untouched.
        assert np.array_equal(index.planner.shard_mbrs, planner_boxes)
        assert index.element_count == 500
        assert fork.element_count == 499
        far = np.array([899.0, 899, 899, 902, 902, 902])
        assert len(index.range_query(far)) == 0
        assert len(fork.range_query(far)) == 1

    def test_restored_fork_rejects_previously_deleted_ids(self, tmp_path):
        # The routing directory is rebuilt after restore; ids deleted
        # before the snapshot must not resurface as deletable (a stale
        # entry would pass validation and corrupt the batch).
        mbrs = random_mbrs(300, seed=40)
        index = ShardedFLATIndex.build(mbrs, shard_count=3, page_capacity=16)
        index.delete([5, 6, 7])
        index.snapshot(tmp_path / "sh")
        restored = ShardedFLATIndex.restore(tmp_path / "sh")
        try:
            fork = restored.fork()
            with pytest.raises(KeyError, match=r"unknown element ids: \[5\]"):
                fork.delete([10, 5])
            # The failed batch left everything intact.
            assert fork.element_count == 297
            fork.delete([10])
            assert fork.element_count == 296
            assert sum(fork.shard_element_counts()) == 296
        finally:
            restored.close()

    def test_restored_index_mutates_onto_overlays(self, tmp_path):
        from repro.storage.pagestore import OverlayPageBackend

        mbrs = random_mbrs(200, seed=41)
        index = ShardedFLATIndex.build(mbrs, shard_count=2)
        index.snapshot(tmp_path / "sh")
        restored = ShardedFLATIndex.restore(tmp_path / "sh")
        try:
            before = list(restored.shards)
            new = random_mbrs(3, seed=42)
            gids = restored.insert(new)
            restored.delete([0])
            assert restored.element_count == 202
            rebuilt = [shard for shard, old in zip(restored.shards, before)
                       if shard is not old]
            assert rebuilt
            for shard in rebuilt:
                assert isinstance(shard.store.backend, OverlayPageBackend)
            live = {i: mbrs[i] for i in range(1, 200)}
            live.update(zip(gids.tolist(), new))
            assert_exact(restored, live, query_seed=43)
        finally:
            restored.close()

    def test_close_releases_every_shard_after_a_mutation(self, tmp_path):
        ShardedFLATIndex.build(random_mbrs(200, seed=41), shard_count=2).snapshot(
            tmp_path / "sh"
        )
        restored = ShardedFLATIndex.restore(tmp_path / "sh")
        before = list(restored.shards)
        bases = [shard.store.backend for shard in before]
        restored.delete([0, 1, 2, 3])
        assert any(shard is not old for shard, old in zip(restored.shards, before))
        restored.close()
        assert [base.closed for base in bases] == [True] * len(bases)

    def test_a_rebuilt_shard_keeps_its_store_bounds_and_counts(self):
        index = ShardedFLATIndex.build(
            random_mbrs(400, seed=44), shard_count=2,
            store_factory=lambda _shard_id: PageStore(
                buffer=BufferPool(byte_capacity=262144),
            ),
        )
        index.range_query(np.array([-10.0, -10, -10, 110, 110, 110]))
        before = list(index.shards)
        counts = [shard.store.stats.snapshot() for shard in before]
        index.delete([0, 1, 2, 3])
        rebuilt = [(shard, old, count)
                   for shard, old, count in zip(index.shards, before, counts)
                   if shard is not old]
        assert rebuilt
        for shard, old, count in rebuilt:
            store = shard.store
            assert store is not old.store
            assert store.buffer.byte_capacity == 262144
            assert count.total_reads > 0
            assert store.stats.reads == count.reads
            assert store.stats.cache_hits == count.cache_hits
            assert sum(store.stats.diff(count).writes.values()) == len(store)

    def test_mutated_snapshot_round_trip_and_watermark(self, tmp_path):
        mbrs = random_mbrs(400, seed=31)
        index = ShardedFLATIndex.build(mbrs, shard_count=3, page_capacity=16)
        index.insert(random_mbrs(80, seed=32, span=150.0))
        index.delete(list(range(0, 120)))
        index.snapshot(tmp_path / "sharded")
        restored = ShardedFLATIndex.restore(tmp_path / "sharded")
        try:
            for query in random_queries(10, seed=33):
                assert np.array_equal(
                    restored.range_query(query), index.range_query(query)
                )
            fork = restored.fork()
            (gid,) = fork.insert(random_mbrs(1, seed=34))
            assert int(gid) == index._next_id  # deleted ids never reused
        finally:
            restored.close()

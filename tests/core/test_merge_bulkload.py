"""A merge is a bulkload of the live set, every element id kept.

``FLATIndex.merged`` reads the committed elements, drops the deleted
ids, adds the inserted rows and bulkloads the result in ascending id
order.  The pins: the merged index *is* a fresh bulkload of its live set
(page payloads, categories, directories, watermark and cold reads), its
answers equal brute force — monolithic, sharded (untouched shards carried
over as the same objects) and after a merge that deletes everything —
and ``build``'s new ``element_ids`` / ``next_id`` inputs behave.

It is also the one write path: ``FLATIndex.apply_batch`` (with its
``insert`` / ``delete`` wrappers) and a ``ClusterRouter.apply_updates``
roll leave, page for page, what ``merged`` builds from the same batch,
and a roll publishes only the shards the batch touched.
"""

import numpy as np
import pytest

from repro.core import FLATIndex, ShardedFLATIndex
from repro.core.delta import DeltaIndex
from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import (
    mbr_center,
    mbr_distance_to_point,
    mbr_union,
    mbr_union_many,
)
from repro.storage import PageStore


def random_mbrs(n, seed=0, span=100.0, extent=2.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, extent, size=(n, 3))], axis=1)


def random_queries(count, seed, lo=-10.0, hi=110.0):
    rng = np.random.default_rng(seed)
    corners = rng.uniform(lo, hi, size=(count, 3))
    return np.concatenate(
        [corners, corners + rng.uniform(3.0, 25.0, size=(count, 3))], axis=1
    )


def turnover(live: dict, next_id: int, share: float, seed: int):
    """One merge's batch: ``share`` of the live set deleted, as many
    elements inserted (some outside the space), as a drained delta."""
    rng = np.random.default_rng(seed)
    count = max(1, int(share * len(live)))
    ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    deletes = np.sort(rng.choice(ids, size=count, replace=False))
    inserts = random_mbrs(count, seed=seed + 1, span=112.0)
    insert_ids = np.arange(next_id, next_id + count, dtype=np.int64)
    for gid in deletes:
        del live[int(gid)]
    for gid, mbr in zip(insert_ids, inserts):
        live[int(gid)] = mbr
    # The watermark passes ids a delta consumed without a live row.
    return insert_ids, inserts, deletes, next_id + count + 3


def live_arrays(live: dict):
    ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    boxes = (np.stack([live[int(i)] for i in ids]) if len(ids)
             else np.empty((0, 6)))
    return ids, boxes


def assert_exact(index, live: dict, seed: int):
    """Range, point and kNN answers equal brute force over *live*."""
    ids, boxes = live_arrays(live)
    for query in random_queries(15, seed):
        want = ids[boxes_intersect_box(boxes, query)] if len(ids) else ids
        assert np.array_equal(index.range_query(query), want)
    rng = np.random.default_rng(seed)
    for point in rng.uniform(-5, 115, size=(4, 3)):
        want = ids[boxes_intersect_box(boxes, np.concatenate([point, point]))] \
            if len(ids) else ids
        assert np.array_equal(index.point_query(point), want)
        k = min(7, len(ids))
        dists = mbr_distance_to_point(boxes, point)
        assert np.array_equal(
            index.knn_query(point, 7), ids[np.lexsort((ids, dists))[:k]]
        )


def cold_reads(index, queries) -> list:
    reads = []
    for query in queries:
        index.store.clear_cache()
        before = index.store.stats.snapshot()
        index.range_query(query)
        reads.append(index.store.stats.diff(before).total_reads)
    return reads


def assert_same_index(got, want, queries) -> None:
    """*got* is page for page *want*: page payloads and categories,
    object-page directory, element count, watermark and cold reads."""
    store, reference = got.store, want.store
    assert len(store) == len(reference)
    pages = range(len(reference))
    assert [store.read_silent(p) for p in pages] == [
        reference.read_silent(p) for p in pages
    ]
    assert [store.category(p) for p in pages] == [
        reference.category(p) for p in pages
    ]
    assert list(got.object_page_element_ids) == list(
        want.object_page_element_ids
    )
    for page, page_ids in want.object_page_element_ids.items():
        assert np.array_equal(got.object_page_element_ids[page], page_ids)
    assert got.element_count == want.element_count
    assert got.next_element_id == want.next_element_id
    assert cold_reads(got, queries) == cold_reads(want, queries)


class TestMergedIsAFreshBulkload:
    @pytest.mark.parametrize("codec", [None, "delta64"])
    def test_pages_directories_and_cold_reads_match(self, codec):
        from repro.storage.pagestore import MemoryPageBackend

        mbrs = random_mbrs(3000, seed=1)
        space = np.array([0.0, 0, 0, 102, 102, 102])
        base = FLATIndex.build(
            PageStore(backend=MemoryPageBackend(codec=codec)), mbrs,
            space_mbr=space, page_capacity=24, seed_fanout=6,
        )
        live = {i: mbrs[i] for i in range(len(mbrs))}
        batch = turnover(live, base.next_element_id, 0.10, seed=2)
        merged = base.merged(*batch)

        ids, boxes = live_arrays(live)
        grown = mbr_union(base.covering_mbr(), mbr_union_many(batch[1]))
        reference = FLATIndex.build(
            PageStore(), boxes, space_mbr=grown, page_capacity=24,
            seed_fanout=6, element_ids=ids, next_id=batch[3],
        )
        assert merged.store.backend.codec == base.store.backend.codec
        assert_same_index(merged, reference, random_queries(40, seed=3))
        assert merged.element_count == len(live)
        assert merged.next_element_id == batch[3]
        assert merged.page_capacity == 24
        assert merged.seed_index.fanout == 6
        assert_exact(merged, live, seed=4)

    def test_base_is_left_untouched(self):
        mbrs = random_mbrs(800, seed=5)
        base = FLATIndex.build(PageStore(), mbrs, page_capacity=16)
        pages = [base.store.read_silent(p) for p in range(len(base.store))]
        live = {i: mbrs[i] for i in range(len(mbrs))}
        before = dict(live)
        base.merged(*turnover(live, base.next_element_id, 0.2, seed=6))
        assert [base.store.read_silent(p) for p in range(len(base.store))] == pages
        assert base.element_count == len(mbrs)
        assert_exact(base, before, seed=7)

    def test_repeated_merges_match_a_delta_replay(self):
        # Drained deltas, merged one after another, serve exactly.
        mbrs = random_mbrs(1200, seed=8)
        index = FLATIndex.build(PageStore(), mbrs, page_capacity=16)
        live = {i: mbrs[i] for i in range(len(mbrs))}
        for round_number in range(4):
            delta = DeltaIndex(next_id=index.next_element_id)
            inserted = delta.insert(random_mbrs(90, seed=20 + round_number,
                                                span=120.0))
            delta.delete(inserted[:10], index.contains_elements)
            victims = np.fromiter(sorted(live), dtype=np.int64)[::13][:80]
            delta.delete(victims, index.contains_elements)
            insert_ids, insert_mbrs, deletes, next_id = delta.drain()
            for gid in victims:
                del live[int(gid)]
            for gid, mbr in zip(insert_ids, insert_mbrs):
                live[int(gid)] = mbr
            index = index.merged(insert_ids, insert_mbrs, deletes, next_id)
            assert index.next_element_id == next_id
            assert index.element_count == len(live)
        assert_exact(index, live, seed=9)

    def test_bad_batches_raise_before_building(self):
        mbrs = random_mbrs(300, seed=10)
        base = FLATIndex.build(PageStore(), mbrs, page_capacity=16)
        none = np.empty(0, np.int64), np.empty((0, 6))
        with pytest.raises(KeyError, match="unknown element ids: \\[900, 901\\]"):
            base.merged(*none, [3, 900, 901], 300)
        with pytest.raises(ValueError, match="duplicate element id 3"):
            base.merged(*none, [3, 4, 3], 300)
        with pytest.raises(ValueError, match="collide"):
            base.merged([5], random_mbrs(1, seed=11), [], 300)
        with pytest.raises(ValueError, match="1 ids for 2 elements"):
            base.merged([300], random_mbrs(2, seed=12), [], 302)


class TestEmptyLiveSet:
    def test_merge_that_deletes_everything_then_refills(self):
        mbrs = random_mbrs(500, seed=13)
        base = FLATIndex.build(PageStore(), mbrs, page_capacity=16)
        space = base.covering_mbr()
        empty = base.merged(np.empty(0, np.int64), np.empty((0, 6)),
                            np.arange(500), 500)
        assert empty.element_count == 0
        assert empty.next_element_id == 500
        assert empty.object_page_count == 1
        assert np.array_equal(empty.covering_mbr(), space)
        assert_exact(empty, {}, seed=14)
        assert not empty.contains_elements([0, 499]).any()
        refill = random_mbrs(40, seed=15)
        full = empty.merged(np.arange(500, 540), refill, [], 540)
        assert_exact(full, {500 + i: m for i, m in enumerate(refill)}, seed=16)

    def test_build_tiles_a_given_space_with_one_empty_page(self):
        space = np.array([0.0, 0, 0, 10, 10, 10])
        index = FLATIndex.build(PageStore(), np.empty((0, 6)), space_mbr=space)
        assert index.element_count == 0
        assert np.array_equal(index.covering_mbr(), space)
        assert index.range_query(space).size == 0
        with pytest.raises(ValueError, match="empty data set"):
            FLATIndex.build(PageStore(), np.empty((0, 6)))


class TestBuildIds:
    def test_default_ids_are_positions(self):
        mbrs = random_mbrs(400, seed=17)
        plain = FLATIndex.build(PageStore(), mbrs, page_capacity=16)
        named = FLATIndex.build(PageStore(), mbrs, page_capacity=16,
                                element_ids=np.arange(400))
        assert plain.next_element_id == named.next_element_id == 400
        for page, ids in plain.object_page_element_ids.items():
            assert np.array_equal(named.object_page_element_ids[page], ids)

    def test_named_ids_and_watermark(self):
        mbrs = random_mbrs(300, seed=18)
        ids = np.arange(300) * 3 + 7
        index = FLATIndex.build(PageStore(), mbrs, page_capacity=16,
                                element_ids=ids)
        assert index.next_element_id == int(ids[-1]) + 1
        assert_exact(index, dict(zip(ids.tolist(), mbrs)), seed=19)
        with pytest.raises(ValueError, match="does not pass"):
            FLATIndex.build(PageStore(), mbrs, element_ids=ids, next_id=10)
        with pytest.raises(ValueError, match="shape"):
            FLATIndex.build(PageStore(), mbrs, element_ids=ids[:5])


class TestContainsElements:
    def test_answers_follow_every_mutation(self):
        mbrs = random_mbrs(600, seed=20)
        index = FLATIndex.build(PageStore(), mbrs, page_capacity=16)
        probe = np.array([-1, 0, 599, 600, 12, 10**9])
        assert index.contains_elements(probe).tolist() == [
            False, True, True, False, True, False
        ]
        index.delete([12])
        assert index.contains_elements(probe).tolist() == [
            False, True, True, False, False, False
        ]
        (gid,) = index.insert(random_mbrs(1, seed=21))
        assert index.contains_elements([gid, 12]).tolist() == [True, False]


class TestShardedMerge:
    def test_only_touched_shards_rebuild(self):
        mbrs = random_mbrs(2400, seed=22)
        index = ShardedFLATIndex.build(mbrs, shard_count=4, page_capacity=16)
        live = {i: mbrs[i] for i in range(len(mbrs))}
        target = index.shards[1]
        # Deletes from shard 1 only; inserts centred in its box, one of
        # them protruding so the shard box must widen.
        victims = np.sort(target.element_ids[::9][:40])
        center = mbr_center(target.mbr[None, :])[0]
        inserts = np.concatenate([center - 0.2, center + 0.2])[None, :].repeat(5, 0)
        inserts[0, 3:] = target.mbr[3:] + 4.0
        insert_ids = np.arange(2400, 2405)
        merged = index.merged(insert_ids, inserts, victims, 2405)
        for gid in victims:
            del live[int(gid)]
        for gid, mbr in zip(insert_ids, inserts):
            live[int(gid)] = mbr

        assert merged.shards[1] is not index.shards[1]
        for pos in (0, 2, 3):
            assert merged.shards[pos] is index.shards[pos]
        assert np.all(merged.planner.shard_mbrs[1][3:] >= inserts[0, 3:])
        assert np.array_equal(merged.shards[1].mbr, merged.planner.shard_mbrs[1])
        # The base keeps serving its own generation.
        assert index.element_count == 2400
        assert np.array_equal(index.shards[1].element_ids, target.element_ids)
        assert merged.element_count == len(live)
        assert merged.next_element_id == 2405
        assert_exact(merged, live, seed=23)
        assert merged.contains_elements([int(victims[0]), 2404]).tolist() == [
            False, True
        ]

    def test_sharded_merge_matches_brute_force_and_empties(self):
        mbrs = random_mbrs(1500, seed=24)
        index = ShardedFLATIndex.build(mbrs, shard_count=3, page_capacity=16)
        live = {i: mbrs[i] for i in range(len(mbrs))}
        batch = turnover(live, index.next_element_id, 0.15, seed=25)
        merged = index.merged(*batch)
        assert_exact(merged, live, seed=26)
        assert merged.next_element_id == batch[3]
        # The merge's base keeps serving its own shards.
        assert index.element_count == 1500
        emptied = merged.merged(np.empty(0, np.int64), np.empty((0, 6)),
                                np.fromiter(sorted(live), np.int64), batch[3])
        assert emptied.element_count == 0
        assert_exact(emptied, {}, seed=27)


class TestOneWritePath:
    """apply_batch, insert, delete and a cluster roll are merges."""

    @pytest.mark.parametrize("codec", [None, "delta64"])
    def test_apply_batch_is_merged_page_for_page(self, codec):
        from repro.storage.pagestore import MemoryPageBackend

        mbrs = random_mbrs(2000, seed=29)
        base = FLATIndex.build(
            PageStore(backend=MemoryPageBackend(codec=codec)), mbrs,
            page_capacity=20, seed_fanout=5,
        )
        pages = [base.store.read_silent(p) for p in range(len(base.store))]
        live = {i: mbrs[i] for i in range(len(mbrs))}
        batch = turnover(live, base.next_element_id, 0.10, seed=30)
        fork = base.fork()
        inserted = fork.apply_batch(insert_mbrs=batch[1], delete_ids=batch[2],
                                    insert_ids=batch[0], next_id=batch[3])
        assert np.array_equal(inserted, batch[0])
        assert fork.store.backend.codec == base.store.backend.codec
        assert_same_index(fork, base.merged(*batch), random_queries(30, seed=31))
        assert_exact(fork, live, seed=32)
        # The fork's base, and its pages, are as they were.
        assert [base.store.read_silent(p) for p in range(len(base.store))] == pages
        assert base.element_count == 2000

    def test_insert_and_delete_assign_ids_and_merge(self):
        mbrs = random_mbrs(900, seed=33)
        index = FLATIndex.build(PageStore(), mbrs, page_capacity=16)
        queries = random_queries(20, seed=34)
        new = random_mbrs(30, seed=35, span=130.0)
        want = index.merged(np.arange(900, 930), new, [], 930)
        assert np.array_equal(index.insert(new), np.arange(900, 930))
        assert_same_index(index, want, queries)
        want = index.merged(np.empty(0, np.int64), np.empty((0, 6)),
                            [3, 905, 400], 930)
        index.delete([3, 905, 400])
        assert_same_index(index, want, queries)
        # An empty batch rebuilds nothing but may advance the watermark.
        store = index.store
        assert index.apply_batch(next_id=950).size == 0
        assert index.store is store
        assert index.next_element_id == 950
        assert np.array_equal(index.insert(random_mbrs(2, seed=36)), [950, 951])

    def test_a_roll_publishes_fresh_bulkloads_of_touched_shards_only(
            self, tmp_path):
        from repro.core.snapshot import restore_index
        from repro.query.cluster import ClusterRouter
        from repro.storage.filestore import FilePageBackend, latest_generation
        from repro.storage.pagestore import OverlayPageBackend

        mbrs = random_mbrs(1600, seed=37)
        index = ShardedFLATIndex.build(mbrs, shard_count=4, page_capacity=16)
        root, replicas = tmp_path / "root", tmp_path / "replicas"
        index.snapshot(root)
        target = index.shards[2]
        victims = np.sort(target.element_ids[::7][:30])
        center = mbr_center(target.mbr[None, :])[0]
        inserts = np.concatenate([center - 0.3, center + 0.3])[None, :].repeat(6, 0)
        inserts[0, 3:] = target.mbr[3:] + 3.0  # widens the shard box
        live = {i: mbrs[i] for i in range(len(mbrs))}
        with ClusterRouter.launch(root, replica_root=replicas) as router:
            report = router.apply_updates(insert_mbrs=inserts,
                                          delete_ids=victims)
            for gid in victims:
                del live[int(gid)]
            for gid, mbr in zip(report.inserted_ids, inserts):
                live[int(gid)] = mbr
            assert np.array_equal(report.inserted_ids, np.arange(1600, 1606))
            assert report.shards_updated == [2]
            assert report.generations == {2: 1}
            assert [ship["shard"] for ship in report.shipping] == [2]
            assert all(not ship["full_copy"] for ship in report.shipping)
            ids, boxes = live_arrays(live)
            for query in random_queries(10, seed=38):
                assert np.array_equal(router.range_query(query),
                                      ids[boxes_intersect_box(boxes, query)])
        for pos in (0, 1, 3):
            shard_dir = ShardedFLATIndex.shard_directory(root, pos)
            assert latest_generation(shard_dir) == 0
            assert latest_generation(
                ShardedFLATIndex.shard_directory(replicas, pos)) == 0
        # The rolled generation is a fresh bulkload of the shard's live
        # set, on the page ids past generation 0 it was published at.
        rolled = ShardedFLATIndex.restore(root)
        shard_dir = ShardedFLATIndex.shard_directory(root, 2)
        element_ids = rolled.shards[2].element_ids
        members = [gid for gid in element_ids.tolist() if gid in live]
        fresh_store = PageStore(
            backend=OverlayPageBackend(FilePageBackend.open(shard_dir, 0))
        )
        fresh = FLATIndex.build(
            fresh_store, np.stack([live[gid] for gid in members]),
            space_mbr=target.index.covering_mbr(), page_capacity=16,
            element_ids=np.searchsorted(element_ids, members),
            next_id=len(element_ids),
        )
        queries = random_queries(10, seed=39)
        for directory in (shard_dir,
                          ShardedFLATIndex.shard_directory(replicas, 2)):
            restored = restore_index(directory, generation=1)
            try:
                assert_same_index(restored, fresh, queries)
            finally:
                restored.store.close()
        rolled.close()
        fresh_store.backend.base.close()

"""Snapshot-isolated serving: queries keep answering during commits.

``QueryService.apply_updates`` builds the next generation beside the
served one and swaps it in atomically.  The contract under test: every served query reflects
exactly one committed generation — the full pre-update state or the
full post-update state, never a torn mix — and queries racing a commit
keep completing.
"""

import threading

import numpy as np
import pytest

from repro.core import FLATIndex, ShardedFLATIndex
from repro.geometry.intersect import boxes_intersect_box
from repro.query.service import KEPT_GENERATIONS, QueryService
from repro.rtree import bulkload_rtree
from repro.storage import PageStore


def random_mbrs(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2.0, size=(n, 3))], axis=1)


def random_queries(count, seed):
    rng = np.random.default_rng(seed)
    corners = rng.uniform(-10, 110, size=(count, 3))
    return np.concatenate(
        [corners, corners + rng.uniform(5.0, 30.0, size=(count, 3))], axis=1
    )


def expected(live, query):
    ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    boxes = np.stack([live[int(i)] for i in ids])
    return ids[boxes_intersect_box(boxes, query)]


@pytest.fixture(params=["flat", "sharded"])
def served_index(request):
    mbrs = random_mbrs(1500, seed=1)
    if request.param == "flat":
        index = FLATIndex.build(PageStore(), mbrs, page_capacity=32)
    else:
        index = ShardedFLATIndex.build(mbrs, shard_count=3, page_capacity=32)
    return index, mbrs


class TestApplyUpdates:
    def test_commit_swaps_results_atomically(self, served_index):
        index, mbrs = served_index
        queries = random_queries(8, seed=2)
        inserts = random_mbrs(200, seed=3, span=120.0)
        deletes = np.arange(0, 400)
        pre = {i: mbrs[i] for i in range(len(mbrs))}
        post = {i: mbrs[i] for i in range(400, len(mbrs))}
        for offset, mbr in enumerate(inserts):
            post[len(mbrs) + offset] = mbr

        with QueryService(index, workers=3) as service:
            before = service.run(queries, "pre")
            assert before.per_query_results == [
                len(expected(pre, q)) for q in queries
            ]
            report = service.apply_updates(inserts=inserts, delete_ids=deletes)
            assert report.version == 1
            assert service.current_version == 1
            assert np.array_equal(
                report.inserted_ids,
                np.arange(len(mbrs), len(mbrs) + len(inserts)),
            )
            assert report.deleted_count == len(deletes)
            assert report.element_count == len(post)
            assert report.update_count == len(inserts) + len(deletes)
            for query in queries:
                assert np.array_equal(
                    service.submit(query).result(), expected(post, query)
                )

    def test_queries_racing_a_commit_see_one_generation(self, served_index):
        index, mbrs = served_index
        queries = random_queries(6, seed=4)
        inserts = random_mbrs(150, seed=5, span=130.0)
        deletes = np.arange(0, 300)
        pre = {i: mbrs[i] for i in range(len(mbrs))}
        post = {i: mbrs[i] for i in range(300, len(mbrs))}
        for offset, mbr in enumerate(inserts):
            post[len(mbrs) + offset] = mbr
        pre_expected = {i: expected(pre, q) for i, q in enumerate(queries)}
        post_expected = {i: expected(post, q) for i, q in enumerate(queries)}

        torn: list = []
        with QueryService(index, workers=4) as service:

            def storm():
                for _round in range(8):
                    futures = [service.submit(q) for q in queries]
                    for i, future in enumerate(futures):
                        got = future.result()
                        if not (
                            np.array_equal(got, pre_expected[i])
                            or np.array_equal(got, post_expected[i])
                        ):
                            torn.append((i, got))

            reader = threading.Thread(target=storm)
            reader.start()
            service.apply_updates(inserts=inserts, delete_ids=deletes)
            reader.join()
            assert not torn
            # After the storm every query sees the committed state.
            for i, query in enumerate(queries):
                assert np.array_equal(
                    service.submit(query).result(), post_expected[i]
                )

    def test_sequential_commits_bump_versions(self, served_index):
        index, _mbrs = served_index
        with QueryService(index, workers=2) as service:
            for round_number in range(1, 4):
                report = service.apply_updates(
                    inserts=random_mbrs(20, seed=round_number)
                )
                assert report.version == round_number
            assert service.current_version == 3

    def test_worker_accounting_survives_many_commits(self, served_index):
        # Clones of superseded generations are retired, but neither the
        # distinct-thread count nor the lifetime I/O totals may drift.
        index, _mbrs = served_index
        queries = random_queries(4, seed=20)
        service = QueryService(index, workers=2)
        try:
            for round_number in range(8):
                service.run(queries, "round")
                service.apply_updates(inserts=random_mbrs(5, seed=round_number))
            service.run(queries, "final")
            assert service.workers_started <= 2
            total = service.aggregate_stats()
            assert total.total_reads > 0
            # 2 threads, each caching at most KEPT_GENERATIONS clones.
            assert len(service._engines) <= 2
            for engines in service._engines.values():
                assert len(engines) <= KEPT_GENERATIONS
        finally:
            service.close()

    def test_concurrent_updaters_conflict_cleanly(self, served_index):
        index, _mbrs = served_index
        with QueryService(index, workers=2) as service:
            first_forked = threading.Event()
            second_done = threading.Event()
            original_merged = index.merged

            def stalling_merged(*batch):
                merged = original_merged(*batch)
                first_forked.set()
                assert second_done.wait(timeout=10)
                return merged

            index.merged = stalling_merged
            try:
                errors: list = []

                def slow_updater():
                    try:
                        service.apply_updates(inserts=random_mbrs(5, seed=1))
                    except RuntimeError as exc:
                        errors.append(exc)

                slow = threading.Thread(target=slow_updater)
                slow.start()
                assert first_forked.wait(timeout=10)
                index.merged = original_merged  # the racer merges normally
                service.apply_updates(inserts=random_mbrs(5, seed=2))
                second_done.set()
                slow.join()
                # The slower commit must refuse to overwrite the faster
                # one instead of silently dropping its updates.
                assert len(errors) == 1
                assert "concurrent apply_updates" in str(errors[0])
                assert service.current_version == 1
            finally:
                index.merged = original_merged
                second_done.set()

    def test_engine_without_fork_is_rejected(self):
        tree = bulkload_rtree(PageStore(), random_mbrs(200, seed=6), "str")
        with QueryService(tree, workers=1) as service:
            with pytest.raises(RuntimeError, match="does not support updates"):
                service.apply_updates(inserts=random_mbrs(1, seed=7))

    def test_updates_on_restored_snapshot(self, tmp_path):
        # A read-only mmap-backed snapshot serves updates through the
        # in-RAM overlay fork.
        mbrs = random_mbrs(600, seed=8)
        FLATIndex.build(PageStore(), mbrs, page_capacity=32).snapshot(
            tmp_path / "snap"
        )
        restored = FLATIndex.restore(tmp_path / "snap")
        try:
            queries = random_queries(5, seed=9)
            live = {i: mbrs[i] for i in range(len(mbrs))}
            with QueryService(restored, workers=2) as service:
                service.run(queries, "cold")
                inserts = random_mbrs(50, seed=10, span=140.0)
                report = service.apply_updates(
                    inserts=inserts, delete_ids=np.arange(0, 100)
                )
                for gid, mbr in zip(report.inserted_ids, inserts):
                    live[int(gid)] = mbr
                for gid in range(100):
                    del live[gid]
                for query in queries:
                    assert np.array_equal(
                        service.submit(query).result(), expected(live, query)
                    )
        finally:
            restored.store.close()

    def test_updates_visible_to_knn_and_range(self, served_index):
        index, _mbrs = served_index
        with QueryService(index, workers=2) as service:
            outlier = np.array([[400.0, 400, 400, 401, 401, 401]])
            report = service.apply_updates(inserts=outlier)
            (gid,) = report.inserted_ids
            got = service.submit(
                np.array([399.0, 399, 399, 402, 402, 402])
            ).result()
            assert np.array_equal(got, np.array([gid]))
            knn = service.run_knn(np.array([[400.5, 400.5, 400.5]]), k=1)
            assert knn.query_count == 1
            assert knn.per_query_results == [1]

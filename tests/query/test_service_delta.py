"""Serving under the LSM-style write path: absorb, merge, flush.

With ``delta_threshold > 0`` the service buffers update batches in an
in-RAM delta over the committed base index and merges into pages only
at generation boundaries.  The contract under test: every commit —
absorbed or merged — is a full snapshot-isolated version whose served
answers are exactly the surviving element set, across thread and
process modes, monolithic and sharded indexes, and across the
absorb→merge boundary itself.  Workers serve only committed
generations and the service corrects every query kind where answers
are gathered, so an absorbed commit leaves every worker warm.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import FLATIndex, ShardedFLATIndex, restore_index, snapshot_index
from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import mbr_distance_to_point
from repro.query import MODE_PROCESS, MODE_THREAD, QueryService
from repro.query import service as service_module
from repro.storage import PageStore


def random_mbrs(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2.0, size=(n, 3))], axis=1)


def random_queries(count, seed):
    rng = np.random.default_rng(seed)
    corners = rng.uniform(-10, 160, size=(count, 3))
    return np.concatenate(
        [corners, corners + rng.uniform(5.0, 30.0, size=(count, 3))], axis=1
    )


def expected(live, query):
    ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    boxes = np.stack([live[int(i)] for i in ids])
    return ids[boxes_intersect_box(boxes, query)]


def assert_serving_exact(service, live, queries):
    for query in queries:
        assert np.array_equal(service.submit(query).result(), expected(live, query))


@pytest.fixture(params=["flat", "sharded"])
def served_index(request):
    mbrs = random_mbrs(1200, seed=1)
    if request.param == "flat":
        index = FLATIndex.build(PageStore(), mbrs, page_capacity=32)
    else:
        index = ShardedFLATIndex.build(mbrs, shard_count=3, page_capacity=32)
    return index, mbrs


class TestAbsorbAndMerge:
    def test_small_batches_absorb_until_threshold(self, served_index):
        index, mbrs = served_index
        queries = random_queries(6, seed=2)
        live = {i: mbrs[i] for i in range(len(mbrs))}
        with QueryService(index, workers=3, delta_threshold=200) as service:
            for round_number in range(1, 4):
                inserts = random_mbrs(30, seed=round_number, span=140.0)
                deletes = list(range(10 * round_number, 10 * round_number + 10))
                report = service.apply_updates(
                    inserts=inserts, delete_ids=deletes
                )
                assert report.version == round_number
                assert not report.merged
                for gid, mbr in zip(report.inserted_ids, inserts):
                    live[int(gid)] = mbr
                for gid in deletes:
                    del live[gid]
                assert report.delta_elements == service.delta_size > 0
                assert report.element_count == len(live)
                assert_serving_exact(service, live, queries)
            # The threshold crossing merges everything buffered.
            big = random_mbrs(200, seed=9, span=140.0)
            report = service.apply_updates(inserts=big)
            assert report.merged
            assert report.delta_elements == 0
            assert service.delta_size == 0
            for gid, mbr in zip(report.inserted_ids, big):
                live[int(gid)] = mbr
            assert report.element_count == len(live)
            assert_serving_exact(service, live, queries)

    def test_flush_delta_forces_a_generation_boundary(self, served_index):
        index, mbrs = served_index
        live = {i: mbrs[i] for i in range(len(mbrs))}
        with QueryService(index, workers=2, delta_threshold=10_000) as service:
            assert service.flush_delta() is None  # nothing buffered
            inserts = random_mbrs(25, seed=3, span=120.0)
            absorbed = service.apply_updates(
                inserts=inserts, delete_ids=list(range(0, 5))
            )
            assert not absorbed.merged
            for gid, mbr in zip(absorbed.inserted_ids, inserts):
                live[int(gid)] = mbr
            for gid in range(5):
                del live[gid]
            flushed = service.flush_delta()
            assert flushed is not None and flushed.merged
            assert flushed.version == absorbed.version + 1
            assert flushed.update_count == 0  # the flush itself adds nothing
            assert flushed.element_count == len(live)
            assert service.delta_size == 0
            assert_serving_exact(service, live, random_queries(8, seed=4))

    def test_merge_interval_triggers_boundary(self, served_index):
        index, _mbrs = served_index
        with QueryService(
            index, workers=2, delta_threshold=10_000,
            merge_interval_seconds=0.05,
        ) as service:
            first = service.apply_updates(inserts=random_mbrs(5, seed=5))
            time.sleep(0.06)
            second = service.apply_updates(inserts=random_mbrs(5, seed=6))
            assert second.merged
            assert service.delta_size == 0
            # first may or may not have merged depending on timing of
            # service construction; the interval bound is what matters.
            assert first.version == 1 and second.version == 2

    def test_threshold_zero_is_legacy_immediate_merge(self, served_index):
        index, _mbrs = served_index
        with QueryService(index, workers=2) as service:
            report = service.apply_updates(inserts=random_mbrs(3, seed=7))
            assert report.merged
            assert report.delta_elements == 0
            assert service.delta_size == 0

    def test_absorbed_deletes_validate_atomically(self, served_index):
        index, _mbrs = served_index
        with QueryService(index, workers=2, delta_threshold=1000) as service:
            service.apply_updates(inserts=random_mbrs(10, seed=8))
            version = service.current_version
            size = service.delta_size
            with pytest.raises(KeyError, match=r"unknown element ids: \[9999\]"):
                service.apply_updates(delete_ids=[3, 9999])
            assert service.current_version == version
            assert service.delta_size == size
            # Ids inserted through the delta are deletable through it.
            service.apply_updates(delete_ids=[3])
            assert service.current_version == version + 1

    def test_delta_visible_to_knn(self, served_index):
        index, _mbrs = served_index
        with QueryService(index, workers=2, delta_threshold=1000) as service:
            outlier = np.array([[400.0, 400, 400, 401, 401, 401]])
            report = service.apply_updates(inserts=outlier)
            assert not report.merged
            (gid,) = report.inserted_ids
            knn = service.run_knn(np.array([[400.5, 400.5, 400.5]]), k=1)
            assert knn.per_query_results == [1]
            got = service.submit(np.array([399.0, 399, 399, 402, 402, 402]))
            assert np.array_equal(got.result(), np.array([gid]))

    def test_ctor_rejects_bad_delta_parameters(self, served_index):
        index, _mbrs = served_index
        with pytest.raises(ValueError, match="delta_threshold"):
            QueryService(index, delta_threshold=-1)
        with pytest.raises(ValueError, match="merge_interval_seconds"):
            QueryService(index, merge_interval_seconds=0.0)


class TestInterleavedStream:
    def test_random_stream_stays_exact_across_boundaries(self, served_index):
        # The service-level differential pin: a random stream of small
        # batches absorbs and merges as the threshold dictates, and
        # after every commit the served answers equal brute force.
        index, mbrs = served_index
        rng = np.random.default_rng(11)
        live = {i: mbrs[i] for i in range(len(mbrs))}
        queries = random_queries(5, seed=12)
        merges = 0
        with QueryService(index, workers=3, delta_threshold=120) as service:
            for step in range(12):
                if rng.random() < 0.7 or len(live) < 200:
                    new = random_mbrs(
                        int(rng.integers(10, 60)), seed=100 + step, span=150.0
                    )
                    report = service.apply_updates(inserts=new)
                    for gid, mbr in zip(report.inserted_ids, new):
                        live[int(gid)] = mbr
                else:
                    pool = np.fromiter(
                        sorted(live), dtype=np.int64, count=len(live)
                    )
                    victims = rng.choice(
                        pool, size=int(rng.integers(10, 50)), replace=False
                    )
                    report = service.apply_updates(delete_ids=victims)
                    for gid in victims:
                        del live[int(gid)]
                merges += report.merged
                assert report.element_count == len(live)
                assert_serving_exact(service, live, queries)
            final = service.flush_delta()
            if final is not None:
                merges += 1
            assert merges >= 1  # the stream crossed at least one boundary
            assert service.delta_size == 0
            assert_serving_exact(service, live, queries)


class TestProcessModeDelta:
    def test_absorbed_and_merged_commits_across_processes(self, tmp_path):
        mbrs = random_mbrs(800, seed=20)
        flat = FLATIndex.build(PageStore(), mbrs, page_capacity=32)
        snapshot_index(flat, tmp_path / "snap")
        restored = restore_index(tmp_path / "snap")
        live = {i: mbrs[i] for i in range(len(mbrs))}
        queries = random_queries(6, seed=21)
        try:
            with QueryService(
                restored, workers=2, mode=MODE_PROCESS, delta_threshold=500
            ) as service:
                assert_serving_exact(service, live, queries)
                inserts = random_mbrs(40, seed=22, span=130.0)
                report = service.apply_updates(
                    inserts=inserts, delete_ids=list(range(0, 30))
                )
                assert not report.merged
                for gid, mbr in zip(report.inserted_ids, inserts):
                    live[int(gid)] = mbr
                for gid in range(30):
                    del live[gid]
                # Workers keep serving the unchanged base generation;
                # the service corrects their answers with the delta.
                assert_serving_exact(service, live, queries)
                flushed = service.flush_delta()
                assert flushed is not None and flushed.merged
                assert_serving_exact(service, live, queries)
                more = random_mbrs(10, seed=23, span=130.0)
                report = service.apply_updates(inserts=more)
                assert not report.merged
                for gid, mbr in zip(report.inserted_ids, more):
                    live[int(gid)] = mbr
                assert_serving_exact(service, live, queries)
        finally:
            restored.store.close()

    def test_memory_store_absorbs_exactly(self):
        # An absorbed commit ships nothing to the workers, so a
        # memory-backed process service serves it like any other.
        mbrs = random_mbrs(300, seed=24)
        flat = FLATIndex.build(PageStore(), mbrs)
        live = {i: mbrs[i] for i in range(len(mbrs))}
        with QueryService(
            flat, workers=1, mode=MODE_PROCESS, delta_threshold=100
        ) as service:
            inserts = random_mbrs(2, seed=25)
            report = service.apply_updates(inserts=inserts, delete_ids=[4, 9])
            assert not report.merged
            for gid, mbr in zip(report.inserted_ids, inserts):
                live[int(gid)] = mbr
            del live[4], live[9]
            assert_serving_exact(service, live, random_queries(6, seed=26))

    def test_first_merge_requires_snapshot_directory(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(300, seed=24))
        with QueryService(
            flat, workers=1, mode=MODE_PROCESS, delta_threshold=100
        ) as service:
            service.apply_updates(inserts=random_mbrs(2, seed=25))
            with pytest.raises(RuntimeError, match="snapshot directory"):
                service.flush_delta()


class TestAbsorbedCommitsKeepWorkersWarm:
    @pytest.mark.parametrize("mode", [MODE_THREAD, MODE_PROCESS])
    def test_absorbed_commit_reads_and_parses_nothing(self, tmp_path, mode):
        mbrs = random_mbrs(1500, seed=40)
        snapshot_index(
            FLATIndex.build(PageStore(), mbrs, page_capacity=32),
            tmp_path / "snap",
        )
        restored = restore_index(tmp_path / "snap")
        queries = random_queries(8, seed=41)
        context = (
            multiprocessing.get_context("fork") if mode == MODE_PROCESS else None
        )

        def one_pass(service):
            before = service.aggregate_stats().snapshot()
            service.run(queries)
            io = service.aggregate_stats().diff(before)
            return io.total_reads, io.parses.get("metadata", 0)

        try:
            with QueryService(
                restored, workers=1, mode=mode, mp_context=context,
                clear_cache_per_query=False, delta_threshold=1000,
            ) as service:
                reads, parses = one_pass(service)
                assert reads > 0 and parses > 0
                report = service.apply_updates(
                    inserts=random_mbrs(5, seed=42), delete_ids=[1, 2]
                )
                assert not report.merged
                assert one_pass(service) == (0, 0)
                # A merge is a new generation: its clone starts cold.
                assert service.flush_delta().merged
                reads, parses = one_pass(service)
                assert reads > 0 and parses > 0
        finally:
            restored.store.close()


class TestGatherPoint:
    """Every query kind is corrected by the delta its query captured."""

    K = 5

    @pytest.fixture(params=["flat-thread", "flat-process", "sharded-thread"])
    def delta_service(self, request, tmp_path):
        kind, mode = request.param.split("-")
        mbrs = random_mbrs(900, seed=50)
        if kind == "flat":
            index = FLATIndex.build(PageStore(), mbrs, page_capacity=32)
            if mode == MODE_PROCESS:
                snapshot_index(index, tmp_path / "snap")
                index = restore_index(tmp_path / "snap")
        else:
            index = ShardedFLATIndex.build(mbrs, shard_count=3, page_capacity=32)
        points = np.array([[20.0, 20, 20], [50.0, 60, 70], [90.0, 10, 40]])
        # Tombstones hide every point's nearest committed elements ...
        nearest = np.unique(np.concatenate([
            np.argsort(mbr_distance_to_point(mbrs, point))[: self.K]
            for point in points
        ]))
        # ... and memtable elements sit outside the committed space box.
        outliers = np.array([
            [300.0, 300, 300, 301, 301, 301],
            [-50.0, 20, 20, -49, 21, 21],
        ])
        inserts = np.vstack([random_mbrs(20, seed=51), outliers])
        points = np.vstack([points, outliers[:, :3] + 0.5])
        queries = np.vstack([
            np.hstack([points - 8.0, points + 8.0]),
            random_queries(4, seed=52),
        ])
        live = {i: mbrs[i] for i in range(len(mbrs))}
        # Monolithic runs group queries, so grouped answers are
        # corrected query by query too.
        batch = 3 if kind == "flat" else 1
        try:
            with QueryService(
                index, workers=2, mode=mode, batch_queries=batch,
                delta_threshold=10_000,
            ) as service:
                report = service.apply_updates(
                    inserts=inserts, delete_ids=nearest
                )
                assert not report.merged
                for gid, mbr in zip(report.inserted_ids, inserts):
                    live[int(gid)] = mbr
                for gid in nearest:
                    del live[int(gid)]
                yield service, live, queries, points
        finally:
            if mode == MODE_PROCESS:
                index.store.close()

    def test_every_query_kind_matches_brute_force(self, delta_service,
                                                  monkeypatch):
        service, live, queries, points = delta_service
        ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
        boxes = np.stack([live[int(i)] for i in ids])
        want_range = [ids[boxes_intersect_box(boxes, q)] for q in queries]
        want_knn = []
        for point in points:
            dists = mbr_distance_to_point(boxes, point)
            want_knn.append(ids[np.lexsort((ids, dists))[: self.K]])

        for query, want in zip(queries, want_range):
            assert np.array_equal(service.submit(query).result(), want)

        # run, run_session and run_knn report counts; the spy sees the
        # answers those counts are taken from.
        gathered = []
        corrected = service_module._corrected

        def spy(*args, **kwargs):
            answers = corrected(*args, **kwargs)
            gathered.extend(answers)
            return answers

        monkeypatch.setattr(service_module, "_corrected", spy)
        for serve, want in (
            (lambda: service.run(queries), want_range),
            (lambda: service.run_session(queries, "walker"), want_range),
            (lambda: service.run_knn(points, self.K), want_knn),
        ):
            gathered.clear()
            report = serve()
            assert report.per_query_results == [len(w) for w in want]
            assert len(gathered) == len(want)
            for got, expect in zip(gathered, want):
                assert np.array_equal(got, expect)

"""Tests for the concurrent QueryService (monolithic and scatter–gather)."""

import sys
import threading

import numpy as np
import pytest

from repro.core import FLATIndex, ShardedFLATIndex
from repro.query import (
    BenchmarkSpec,
    QueryService,
    SCALED_SN_FRACTION,
    run_knn_queries,
    run_queries,
)
from repro.storage import PageStore


def build_flat(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    mbrs = np.concatenate([lo, lo + rng.uniform(0.01, 2, size=(n, 3))], axis=1)
    store = PageStore()
    return FLATIndex.build(store, mbrs), store


@pytest.fixture(scope="module")
def served_setup():
    flat, store = build_flat()
    space = np.array([0.0, 0, 0, 102, 102, 102])
    queries = BenchmarkSpec("SN", SCALED_SN_FRACTION, 30).queries(space, seed=1)
    serial = run_queries(flat, store, queries, "serial")
    return flat, store, queries, serial


class TestServedResults:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_match_serial_harness(self, served_setup, workers):
        flat, _store, queries, serial = served_setup
        with QueryService(flat, workers=workers) as service:
            report = service.run(queries, "served")
        assert report.per_query_results == serial.per_query_results
        assert report.result_elements == serial.result_elements
        assert report.query_count == serial.query_count

    def test_cold_page_reads_match_serial_harness(self, served_setup):
        # Cold-cache serving reproduces the paper's accounting exactly,
        # no matter how many workers split the batch.
        flat, _store, queries, serial = served_setup
        with QueryService(flat, workers=4) as service:
            report = service.run(queries)
        assert report.reads_by_category == serial.reads_by_category
        assert report.decodes_by_kind == serial.decodes_by_kind

    def test_cold_physical_bytes_match_a_serial_loop(self, served_setup,
                                                     tmp_path):
        """A report carries its batch's whole demand ``IOStats``: over a
        delta64 restore, the stored bytes the workers' reads fetched,
        per category, as a serial cold loop counts them."""
        flat, _store, queries, _serial = served_setup
        flat.snapshot(tmp_path / "delta64", codec="delta64")
        index = FLATIndex.restore(tmp_path / "delta64")
        try:
            before = index.store.stats.snapshot()
            for query in queries:
                index.store.clear_cache()
                index.range_query(query)
            want = index.store.stats.diff(before)
            with QueryService(index, workers=2) as service:
                report = service.run(queries)
        finally:
            index.store.close()
        assert want.total_physical_bytes_read < want.total_bytes_read
        assert report.stats.physical_bytes == want.physical_bytes
        assert report.reads_by_category == dict(sorted(want.reads.items()))

    def test_warm_serving_reads_fewer_pages(self, served_setup):
        flat, _store, queries, serial = served_setup
        with QueryService(flat, workers=1, clear_cache_per_query=False) as service:
            report = service.run(queries)
        assert report.per_query_results == serial.per_query_results
        assert report.total_page_reads < serial.total_page_reads
        assert report.cache_hits > 0

    def test_submit_single_queries(self, served_setup):
        flat, _store, queries, serial = served_setup
        with QueryService(flat, workers=2) as service:
            futures = [service.submit(q) for q in queries[:5]]
            lengths = [len(f.result()) for f in futures]
        assert lengths == serial.per_query_results[:5]


class TestWorkerIsolation:
    def test_main_store_stats_untouched(self, served_setup):
        flat, store, queries, _serial = served_setup
        before = store.stats.snapshot()
        with QueryService(flat, workers=2) as service:
            service.run(queries)
        assert store.stats.diff(before).total_reads == 0

    def test_report_counts_workers_used(self, served_setup):
        flat, _store, queries, _serial = served_setup
        with QueryService(flat, workers=2) as service:
            report = service.run(queries)
            assert 1 <= report.workers_used <= 2
            assert service.workers_started == report.workers_used

    def test_aggregate_stats_accumulate_across_runs(self, served_setup):
        flat, _store, queries, serial = served_setup
        with QueryService(flat, workers=2) as service:
            service.run(queries)
            service.run(queries)
            total = service.aggregate_stats()
        assert total.total_reads == 2 * serial.total_page_reads

    def test_lifetime_totals_survive_concurrent_clients(self, served_setup):
        """Every finished task folds into the lifetime totals exactly
        once, however the done-callbacks of concurrent workers
        interleave: tiny queries keep the callbacks overlapping, and a
        short switch interval preempts them mid-update."""
        flat, store, _queries, _serial = served_setup
        rng = np.random.default_rng(11)
        corners = rng.uniform(0, 100, size=(200, 3))
        queries = np.concatenate([corners, corners + 0.01], axis=1)
        serial = run_queries(flat, store, queries, "serial")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(flat, workers=8) as service:

                def client():
                    futures = [service.submit(q) for q in queries]
                    for future in futures:
                        future.result(timeout=60)

                for _round in range(3):
                    clients = [threading.Thread(target=client) for _ in range(4)]
                    for thread in clients:
                        thread.start()
                    for thread in clients:
                        thread.join(timeout=120)
                    assert not any(thread.is_alive() for thread in clients)
                total = service.aggregate_stats()
        finally:
            sys.setswitchinterval(interval)
        assert total.reads == {
            c: 12 * n for c, n in serial.reads_by_category.items()
        }

    def test_successive_runs_report_only_their_own_io(self, served_setup):
        flat, _store, queries, serial = served_setup
        with QueryService(flat, workers=2) as service:
            first = service.run(queries)
            second = service.run(queries)
        assert first.reads_by_category == serial.reads_by_category
        assert second.reads_by_category == serial.reads_by_category


@pytest.fixture(scope="module")
def sharded_setup():
    rng = np.random.default_rng(2)
    lo = rng.uniform(0, 100, size=(3000, 3))
    mbrs = np.concatenate([lo, lo + rng.uniform(0.01, 2, size=(3000, 3))], axis=1)
    sharded = ShardedFLATIndex.build(mbrs, 4)
    space = np.array([0.0, 0, 0, 102, 102, 102])
    queries = BenchmarkSpec("SN", SCALED_SN_FRACTION, 24).queries(space, seed=3)
    serial = run_queries(sharded, sharded.store, queries, "serial")
    return sharded, queries, serial


class TestScatterGather:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_match_planner_harness(self, sharded_setup, workers):
        sharded, queries, serial = sharded_setup
        with QueryService(sharded, workers=workers) as service:
            report = service.run(queries, "served")
        assert report.per_query_results == serial.per_query_results
        assert report.result_elements == serial.result_elements

    def test_cold_reads_match_planner_harness(self, sharded_setup):
        sharded, queries, serial = sharded_setup
        with QueryService(sharded, workers=4) as service:
            report = service.run(queries)
        assert report.reads_by_category == serial.reads_by_category
        assert report.decodes_by_kind == serial.decodes_by_kind

    def test_one_task_per_touched_shard(self, sharded_setup):
        sharded, queries, serial = sharded_setup
        with QueryService(sharded, workers=2) as service:
            report = service.run(queries)
        assert report.shard_tasks == sum(serial.per_query_shards)
        assert report.shards_pruned == (
            len(queries) * sharded.shard_count - report.shard_tasks
        )
        assert report.shards_pruned > 0

    def test_submit_gathers_shards(self, sharded_setup):
        sharded, queries, _serial = sharded_setup
        with QueryService(sharded, workers=2) as service:
            futures = [service.submit(q) for q in queries[:5]]
            results = [f.result() for f in futures]
        for query, got in zip(queries[:5], results):
            assert np.array_equal(got, sharded.range_query(query))

    def test_source_stores_untouched(self, sharded_setup):
        sharded, queries, _serial = sharded_setup
        before = sharded.store.stats.snapshot()
        with QueryService(sharded, workers=2) as service:
            service.run(queries)
        assert sharded.store.stats.diff(before).total_reads == 0

    def test_served_knn_matches_direct(self, sharded_setup):
        sharded, _queries, _serial = sharded_setup
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 100, size=(9, 3))
        expected = [sharded.knn_query(p, 6) for p in points]
        with QueryService(sharded, workers=3) as service:
            report = service.run_knn(points, 6, "knn")
        assert report.query_count == len(points)
        assert report.per_query_results == [len(ids) for ids in expected]
        knn_serial = run_knn_queries(sharded, sharded.store, points, 6)
        assert report.reads_by_category == knn_serial.reads_by_category
        # The MINDIST walk's pruning is reported, not just the range path's.
        assert report.shard_tasks == sum(knn_serial.per_query_shards)
        assert report.shards_pruned == (
            len(points) * sharded.shard_count - report.shard_tasks
        )
        assert report.shards_pruned > 0

    def test_gather_future_timeout_is_overall(self, sharded_setup):
        sharded, queries, _serial = sharded_setup
        with QueryService(sharded, workers=2) as service:
            future = service.submit(queries[0])
            # Generous overall deadline: must resolve well within it.
            assert isinstance(future.result(timeout=30.0), np.ndarray)
            assert future.done()


class TestServedKnnMonolithic:
    def test_served_knn_matches_harness(self, served_setup):
        flat, store, _queries, _serial = served_setup
        rng = np.random.default_rng(8)
        points = rng.uniform(0, 100, size=(8, 3))
        knn_serial = run_knn_queries(flat, store, points, 5)
        with QueryService(flat, workers=2) as service:
            report = service.run_knn(points, 5)
        assert report.per_query_results == knn_serial.per_query_results
        assert report.reads_by_category == knn_serial.reads_by_category

    def test_run_knn_validation(self, served_setup):
        flat, *_ = served_setup
        with QueryService(flat, workers=1) as service:
            with pytest.raises(ValueError):
                service.run_knn(np.zeros((4, 6)), 5)
            with pytest.raises(ValueError):
                service.run_knn(np.zeros((4, 3)), 0)


class TestServiceLifecycle:
    def test_closed_service_rejects_work(self, served_setup):
        flat, _store, queries, _serial = served_setup
        service = QueryService(flat, workers=1)
        service.close()
        assert service.closed
        with pytest.raises(RuntimeError, match="closed"):
            service.run(queries)
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(queries[0])
        with pytest.raises(RuntimeError, match="closed"):
            service.run_knn(queries[:, :3], 3)
        service.close()  # idempotent

    def test_close_is_idempotent_and_thread_safe(self, served_setup):
        flat, _store, queries, serial = served_setup
        service = QueryService(flat, workers=2)
        report = service.run(queries)
        assert report.per_query_results == serial.per_query_results
        threads = [threading.Thread(target=service.close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()
        assert service.closed

    def test_close_waits_for_inflight_queries(self, served_setup):
        flat, _store, queries, serial = served_setup
        service = QueryService(flat, workers=2)
        futures = [service.submit(q) for q in queries]
        service.close()  # shutdown(wait=True): all futures completed
        assert [len(f.result()) for f in futures] == serial.per_query_results

    def test_invalid_worker_count(self, served_setup):
        flat, *_ = served_setup
        with pytest.raises(ValueError):
            QueryService(flat, workers=0)

    def test_invalid_query_shape(self, served_setup):
        flat, *_ = served_setup
        with QueryService(flat, workers=1) as service:
            with pytest.raises(ValueError):
                service.run(np.zeros((4, 3)))

    def test_throughput_reported(self, served_setup):
        flat, _store, queries, _serial = served_setup
        with QueryService(flat, workers=2) as service:
            report = service.run(queries)
        assert report.throughput_qps > 0
        assert report.wall_seconds > 0

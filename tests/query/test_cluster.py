"""The distributed serving tier pinned to the monolithic oracle.

Every answer the cluster gives — scattered range/point/kNN batches,
delta-overlaid gathers, queries racing a rolling update, queries after
a server was killed — must be byte-identical to the same query against
the in-process :class:`~repro.core.sharded.ShardedFLATIndex`.  The
shard servers are real processes talking over sockets; the tests keep
the fleets small (3 shards) so the suite stays fast.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import DeltaIndex, ShardedFLATIndex
from repro.query import ClusterError, ClusterRouter, Prefetcher
from repro.query.workload import (
    random_points,
    random_range_queries,
    trajectory_range_queries,
)

SPACE = np.array([0.0, 0.0, 0.0, 100.0, 100.0, 100.0])
SHARDS = 3


def random_mbrs(n, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2.0, size=(n, 3))], axis=1)


@pytest.fixture(scope="module")
def snapshot_root(tmp_path_factory):
    """A sharded snapshot root plus its in-RAM oracle and a query mix.

    Shared read-only across the module — tests that publish new
    generations (rolling updates) build their own private roots.
    """
    oracle = ShardedFLATIndex.build(random_mbrs(2500, seed=1), SHARDS,
                                    space_mbr=SPACE)
    assert oracle.shard_count == SHARDS
    root = tmp_path_factory.mktemp("cluster-root")
    oracle.snapshot(root)
    queries = random_range_queries(SPACE, 0.001, 16, seed=7)
    points = random_points(SPACE, 8, seed=3)
    return root, oracle, queries, points


@pytest.fixture()
def cluster(snapshot_root, tmp_path):
    root, _oracle, _queries, _points = snapshot_root
    with ClusterRouter.launch(root, replica_root=tmp_path / "replicas") as router:
        yield router


@pytest.fixture()
def cluster_no_replicas(snapshot_root):
    root, _oracle, _queries, _points = snapshot_root
    with ClusterRouter.launch(root) as router:
        yield router


class TestClusterPinnedToOracle:
    def test_range_queries_byte_identical(self, snapshot_root, cluster_no_replicas):
        _root, oracle, queries, _points = snapshot_root
        for query in queries:
            got = cluster_no_replicas.range_query(query)
            assert np.array_equal(got, oracle.range_query(query))
            assert got.dtype == np.int64

    def test_point_queries_byte_identical(self, snapshot_root, cluster_no_replicas):
        _root, oracle, _queries, points = snapshot_root
        for point in points:
            assert np.array_equal(
                cluster_no_replicas.point_query(point),
                oracle.point_query(point),
            )

    def test_knn_byte_identical_with_distances(self, snapshot_root,
                                               cluster_no_replicas):
        _root, oracle, _queries, points = snapshot_root
        for point in points:
            ids, dists = cluster_no_replicas.knn_query(
                point, 9, return_distances=True
            )
            want_ids, want_dists = oracle.knn_query(
                point, 9, return_distances=True
            )
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(dists, want_dists)

    def test_batch_run_matches_and_reports_scatter(self, snapshot_root,
                                                   cluster_no_replicas):
        _root, oracle, queries, _points = snapshot_root
        results, report = cluster_no_replicas.run(queries)
        for got, query in zip(results, queries):
            assert np.array_equal(got, oracle.range_query(query))
        assert report.query_count == len(queries)
        assert report.per_query_results == [len(ids) for ids in results]
        assert report.shard_requests + report.shards_pruned == len(queries) * SHARDS
        assert report.total_page_reads > 0
        assert report.servers_lost == 0
        assert report.throughput_qps > 0

    def test_planner_prunes_before_any_request(self, snapshot_root,
                                               cluster_no_replicas):
        _root, oracle, queries, _points = snapshot_root
        cluster_no_replicas.range_query(queries[0])
        oracle.range_query(queries[0])
        assert (cluster_no_replicas.last_plan.shards_selected
                == oracle.last_plan.shards_selected)

    def test_status_reports_fleet(self, cluster_no_replicas):
        status = cluster_no_replicas.status()
        assert [entry["shard"] for entry in status] == list(range(SHARDS))
        assert all(entry["generation"] == 0 for entry in status)
        assert all(entry["element_count"] > 0 for entry in status)
        # Every shard server is its own process.
        assert len({entry["pid"] for entry in status}) == SHARDS

    def test_server_error_is_surfaced_not_fatal(self, snapshot_root,
                                                cluster_no_replicas):
        _root, oracle, queries, _points = snapshot_root
        with pytest.raises(ClusterError, match="server error"):
            cluster_no_replicas._request_one(0, ("knn", np.zeros(3), 0, True))
        # The server survived the bad request and keeps serving.
        assert np.array_equal(
            cluster_no_replicas.range_query(queries[0]),
            oracle.range_query(queries[0]),
        )

    def test_unknown_request_rejected(self, cluster_no_replicas):
        with pytest.raises(ClusterError, match="unknown cluster request") as raised:
            cluster_no_replicas._request_one(0, ("frobnicate",))
        # The server returns the exception object; the router keeps the
        # "Type: msg" text and chains the original.
        assert str(raised.value) == (
            "shard 0 server error: ValueError: unknown cluster request 'frobnicate'"
        )
        assert type(raised.value.__cause__) is ValueError

    def test_error_reply_mid_batch_leaves_the_connection_in_step(
            self, snapshot_root, cluster_no_replicas):
        _root, _oracle, queries, _points = snapshot_root
        probe = ("range", queries[0], True, None)
        expected, _stats = cluster_no_replicas._request_one(0, probe)
        with pytest.raises(ClusterError, match="unknown cluster request"):
            cluster_no_replicas._request_many(
                [(0, ("frobnicate",)), (0, ("range", SPACE, True, None))]
            )
        # The full-space reply was read with the batch, so the next
        # request gets its own answer.
        got, _stats = cluster_no_replicas._request_one(0, probe)
        assert np.array_equal(got, expected)


class TestClusterAccounting:
    def test_report_merges_every_counter_like_the_in_process_run(
        self, tmp_path
    ):
        """The router totals the servers' whole ``IOStats`` diffs.

        A 2-shard fleet over a ``delta64`` root, served cold, counts the
        same per-category reads, physical bytes, cache hits and decode
        misses as the in-process shard set run cold over the same boxes.
        """
        built = ShardedFLATIndex.build(random_mbrs(2000, seed=4), 2,
                                       space_mbr=SPACE)
        assert built.shard_count == 2
        built.snapshot(tmp_path / "root", codec="delta64")
        queries = random_range_queries(SPACE, 0.002, 12, seed=5)
        oracle = ShardedFLATIndex.restore(tmp_path / "root")
        before = oracle.store.stats.snapshot()
        for query in queries:
            oracle.store.clear_cache()
            oracle.range_query(query)
        want = oracle.store.stats.diff(before)
        oracle.close()
        with ClusterRouter.launch(tmp_path / "root") as router:
            _results, report = router.run(queries)
        # Reads, physical bytes, cache hits and decode counters alike.
        assert report.stats == want
        assert want.cache_hits and want.total_decodes
        # delta64 pages are stored compressed: physical < logical bytes.
        assert want.total_physical_bytes_read < want.total_bytes_read
        assert report.reads_by_category == dict(sorted(want.reads.items()))
        assert report.total_page_reads == want.total_reads


class TestTrajectorySessions:
    def test_session_prefetches_and_keeps_accounting_exact(
        self, snapshot_root, cluster_no_replicas
    ):
        """Session ids survive the scatter path: servers prefetch along
        the trajectory, results stay byte-identical, and demand reads +
        prefetch hits equal the session-free run's reads per category.

        The baseline batch runs first: a server attaches its staging
        area on the first request carrying a session id, so ordering
        keeps the baseline genuinely prefetch-free.
        """
        _root, oracle, _queries, _points = snapshot_root
        walk = trajectory_range_queries(SPACE, 2e-5, 24, seed=13)
        baseline_results, baseline = cluster_no_replicas.run(walk)
        assert baseline.session_id is None
        assert baseline.total_prefetch_hits == 0
        results, report = cluster_no_replicas.run(walk, session_id="tracer")
        assert report.session_id == "tracer"
        for got, base, query in zip(results, baseline_results, walk):
            assert np.array_equal(got, base)
            assert np.array_equal(got, oracle.range_query(query))
        assert report.total_prefetch_hits > 0
        categories = (
            set(baseline.reads_by_category)
            | set(report.reads_by_category)
            | set(report.prefetch_hits_by_category)
        )
        for c in categories:
            assert (
                report.reads_by_category.get(c, 0)
                + report.prefetch_hits_by_category.get(c, 0)
                == baseline.reads_by_category.get(c, 0)
            ), f"category {c} violates the accounting identity"

    def test_single_query_accepts_session_id(self, snapshot_root,
                                             cluster_no_replicas):
        _root, oracle, queries, _points = snapshot_root
        got = cluster_no_replicas.range_query(queries[0], session_id="solo")
        assert np.array_equal(got, oracle.range_query(queries[0]))


    def test_status_counts_swallowed_staging_failures(self, snapshot_root,
                                                      monkeypatch):
        """A shard server whose staging crawls raise keeps answering
        exactly, and its ``status`` reply counts every failure."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("servers inherit the patched prefetcher only by fork")
        root, oracle, _queries, _points = snapshot_root
        walk = trajectory_range_queries(SPACE, 2e-5, 24, seed=13)
        with ClusterRouter.launch(root) as router:
            router.run(walk, session_id="tracer")
            healthy = router.status()

        def fail(self, box):
            raise RuntimeError("staging crawl failed")

        monkeypatch.setattr(Prefetcher, "prefetch", fail)
        with ClusterRouter.launch(root) as router:
            results, _report = router.run(walk, session_id="tracer")
            failing = router.status()
        for got, query in zip(results, walk):
            assert np.array_equal(got, oracle.range_query(query))
        assert [entry["prefetch_failures"] for entry in healthy] == [0] * SHARDS
        assert sum(entry["prefetch_failures"] for entry in failing) > 0


class TestConnectionGenerations:
    def test_connection_keeps_at_most_kept_generations(self, tmp_path):
        """A connection driven through many reloads retires old clones.

        Each reload is followed by a session range query, so every
        generation gets an engine clone and a prefetcher on the
        connection; only the KEPT_GENERATIONS most recently used may
        stay alive.
        """
        from repro.core import (
            FLATIndex,
            publish_fork_generation,
            restore_index,
            snapshot_index,
        )
        from repro.query.cluster import _ShardServer
        from repro.query.service import KEPT_GENERATIONS
        from repro.storage import PageStore

        built = FLATIndex.build(PageStore(), random_mbrs(800, seed=3),
                                space_mbr=SPACE)
        snapshot_index(built, tmp_path)
        index = restored = restore_index(tmp_path)
        server = _ShardServer(tmp_path, 0, np.arange(built.next_element_id))
        engines, sessions = server.connection_state()
        served = [server.current[1]]
        walk = trajectory_range_queries(SPACE, 2e-5, 7, seed=13)
        generation = 0
        for step, query in enumerate(walk):
            if step:
                fork = index.fork()
                fork.apply_batch(insert_mbrs=random_mbrs(5, seed=step))
                _directory, generation = publish_fork_generation(
                    fork, expected_base=generation
                )
                index = fork
                reload = ("reload", generation, np.arange(fork.next_element_id))
                assert server.dispatch(reload, engines, sessions) == generation
                served.append(server.current[1])
            hits, _stats = server.dispatch(
                ("range", query, True, "walker"), engines, sessions
            )
            oracle = restore_index(tmp_path, generation=generation)
            assert np.array_equal(hits, oracle.range_query(query))
            oracle.store.close()
            assert len(engines) <= KEPT_GENERATIONS
        assert generation == len(walk) - 1
        assert len(sessions) == 1
        for each in served + [restored]:
            each.store.close()


class TestDeltaOverlayAtGather:
    def test_range_and_knn_with_delta(self, snapshot_root, cluster_no_replicas):
        # The oracle's committed answers, corrected by the same delta
        # with the same gather rule, are what the router must return.
        _root, oracle, queries, points = snapshot_root
        delta = DeltaIndex(next_id=oracle.next_element_id)
        delta.insert(random_mbrs(40, seed=9))
        # Tombstones also hide every point's nearest committed elements,
        # so the walk must gather more than k.
        nearest = [oracle.knn_query(point, 3) for point in points]
        delta.delete(
            np.union1d(np.arange(0, 30, 3), np.concatenate(nearest)),
            oracle.contains_elements,
        )
        cluster_no_replicas.delta = delta
        assert cluster_no_replicas.live_element_count == (
            oracle.element_count + delta.element_delta
        )
        for query in queries:
            assert np.array_equal(
                cluster_no_replicas.range_query(query),
                delta.overlay(oracle.range_query(query), query),
            )
        for point in points:
            base = oracle.knn_query(
                point, 9 + delta.tombstone_count, return_distances=True
            )
            assert np.array_equal(
                cluster_no_replicas.knn_query(point, 9),
                delta.knn_overlay(point, 9, *base)[0],
            )


class TestFailover:
    def test_replica_takes_over_dead_primary(self, snapshot_root, cluster):
        _root, oracle, queries, points = snapshot_root
        cluster.kill_server(1, "primary")
        results, report = cluster.run(queries)
        for got, query in zip(results, queries):
            assert np.array_equal(got, oracle.range_query(query))
        # The death is discovered lazily, by the first failed request.
        assert cluster.servers_lost == 1
        for point in points:
            assert np.array_equal(
                cluster.knn_query(point, 5), oracle.knn_query(point, 5)
            )

    def test_shard_loss_raises_instead_of_partial_results(self, cluster):
        cluster.kill_server(0, "primary")
        cluster.kill_server(0, "replica")
        with pytest.raises(ClusterError, match="no live server"):
            # Full-space box: guaranteed to touch shard 0.
            cluster.range_query(SPACE)

    def test_no_replica_shard_loss_raises(self, snapshot_root,
                                          cluster_no_replicas):
        _root, _oracle, queries, _points = snapshot_root
        probe = ("range", queries[0], True, None)
        expected = [cluster_no_replicas._request_one(pos, probe)[0]
                    for pos in (0, 1)]
        cluster_no_replicas.kill_server(2, "primary")
        with pytest.raises(ClusterError, match="no live server"):
            cluster_no_replicas.range_query(SPACE)
        # The surviving servers' full-space replies were read before the
        # error surfaced: each answers the next request, not that one.
        for pos, ids in zip((0, 1), expected):
            assert np.array_equal(cluster_no_replicas._request_one(pos, probe)[0], ids)

    def test_launch_ships_full_copy_once(self, cluster):
        log = cluster.replication_log
        assert len(log) == SHARDS
        assert all(entry["full_copy"] for entry in log)
        assert all(entry["pages_sent"] > 0 for entry in log)


class TestRollingUpdate:
    def _batch(self, oracle, seed):
        rng = np.random.default_rng(seed)
        inserts = random_mbrs(60, seed=seed + 1)
        live = np.flatnonzero(
            oracle.contains_elements(np.arange(oracle.next_element_id))
        )
        deletes = rng.choice(live, size=40, replace=False).astype(np.int64)
        return inserts, deletes

    def _private_cluster(self, tmp_path, n_elements=1500, seed=5,
                         replicas=True):
        oracle = ShardedFLATIndex.build(random_mbrs(n_elements, seed=seed),
                                        SHARDS, space_mbr=SPACE)
        root = tmp_path / "root"
        oracle.snapshot(root)
        replica_root = (tmp_path / "replicas") if replicas else None
        return oracle, ClusterRouter.launch(root, replica_root=replica_root)

    def test_mid_roll_queries_match_mixed_oracle(self, tmp_path):
        oracle, cluster = self._private_cluster(tmp_path)
        queries = random_range_queries(SPACE, 0.001, 12, seed=7)
        with cluster:
            inserts, deletes = self._batch(oracle, seed=11)
            new_oracle = oracle.fork()
            new_ids = new_oracle.apply_batch(
                insert_mbrs=inserts, delete_ids=deletes
            )
            done = []

            def on_shard(pos, generation):
                done.append(pos)
                # The fleet state right now: rolled shards serve the new
                # generation, the rest the old one, under the (grow-only)
                # widened planner — exactly this mixed oracle.
                mixed = ShardedFLATIndex(
                    [new_oracle.shards[i] if i in done else oracle.shards[i]
                     for i in range(oracle.shard_count)],
                    new_oracle.planner,
                    new_oracle.element_count,
                )
                for query in queries:
                    assert np.array_equal(
                        cluster.range_query(query), mixed.range_query(query)
                    )

            report = cluster.apply_updates(
                insert_mbrs=inserts, delete_ids=deletes,
                on_shard_updated=on_shard,
            )
            assert np.array_equal(report.inserted_ids, new_ids)
            assert report.shards_updated == done
            assert report.element_count == new_oracle.element_count
            # After the roll: the whole fleet answers from the new state.
            results, _ = cluster.run(queries)
            for got, query in zip(results, queries):
                assert np.array_equal(got, new_oracle.range_query(query))

    def test_roll_ships_only_increments_to_replicas(self, tmp_path):
        oracle, cluster = self._private_cluster(tmp_path, seed=13)
        with cluster:
            inserts, deletes = self._batch(oracle, seed=13)
            fork = oracle.fork()
            fork.apply_batch(insert_mbrs=inserts, delete_ids=deletes)
            report = cluster.apply_updates(
                insert_mbrs=inserts, delete_ids=deletes
            )
            assert report.shipping, "replicated cluster must ship every roll"
            assert [e["shard"] for e in report.shipping] == report.shards_updated
            for entry in report.shipping:
                assert not entry["full_copy"]
                # Strictly fewer pages than the new generation holds in
                # total — unchanged pages never travel again.
                total_pages = len(fork.shards[entry["shard"]].index.store)
                assert 0 < entry["pages_sent"] < total_pages

    def test_repeated_rolls_and_fresh_restore(self, tmp_path):
        """Two successive rolls, then a from-scratch restore of the root.

        Uses a private snapshot root: the rolls publish generations into
        the directory, which must not leak into the shared fixtures.
        """
        oracle = ShardedFLATIndex.build(random_mbrs(1200, seed=21), SHARDS,
                                        space_mbr=SPACE)
        root = tmp_path / "root"
        oracle.snapshot(root)
        queries = random_range_queries(SPACE, 0.001, 10, seed=23)
        current = oracle
        with ClusterRouter.launch(root) as router:
            for seed in (31, 37):
                inserts, deletes = self._batch(current, seed=seed)
                fork = current.fork()
                fork.apply_batch(insert_mbrs=inserts, delete_ids=deletes)
                router.apply_updates(insert_mbrs=inserts, delete_ids=deletes)
                current = fork
                results, _ = router.run(queries)
                for got, query in zip(results, queries):
                    assert np.array_equal(got, current.range_query(query))
            assert router.shard_generations() == {
                pos: 2 for pos in range(SHARDS)
            }
        restored = ShardedFLATIndex.restore(root)
        try:
            assert restored.element_count == current.element_count
            for query in queries:
                assert np.array_equal(
                    restored.range_query(query), current.range_query(query)
                )
        finally:
            restored.close()

    def test_update_during_failover_keeps_serving(self, tmp_path):
        """A roll with a dead primary lands on the replica and serves."""
        oracle = ShardedFLATIndex.build(random_mbrs(1200, seed=41), SHARDS,
                                        space_mbr=SPACE)
        root = tmp_path / "root"
        oracle.snapshot(root)
        queries = random_range_queries(SPACE, 0.001, 10, seed=43)
        with ClusterRouter.launch(root,
                                  replica_root=tmp_path / "replicas") as router:
            router.kill_server(0, "primary")
            # Discover the death before the roll so the roll skips it.
            router.run(queries)
            inserts, deletes = self._batch(oracle, seed=47)
            fork = oracle.fork()
            fork.apply_batch(insert_mbrs=inserts, delete_ids=deletes)
            router.apply_updates(insert_mbrs=inserts, delete_ids=deletes)
            results, _ = router.run(queries)
            for got, query in zip(results, queries):
                assert np.array_equal(got, fork.range_query(query))


class TestLifecycle:
    def test_closed_cluster_rejects_queries(self, snapshot_root):
        root, _oracle, queries, _points = snapshot_root
        router = ClusterRouter.launch(root)
        router.close()
        with pytest.raises(ClusterError, match="closed"):
            router.range_query(queries[0])
        router.close()  # idempotent

    def test_close_reaps_every_server_process(self, snapshot_root, tmp_path):
        root, _oracle, queries, _points = snapshot_root
        router = ClusterRouter.launch(root, replica_root=tmp_path / "replicas")
        router.range_query(queries[0])
        processes = [h.process for h in router._primaries
                     + [r for r in router._replicas if r is not None]]
        router.close()
        assert all(not process.is_alive() for process in processes)
        # Each server stopped on the loop's stop request, not by terminate().
        assert [process.exitcode for process in processes] == [0] * len(processes)

"""The distributed serving tier pinned to the monolithic oracle.

Every answer the cluster gives — scattered range/point/kNN batches,
delta-overlaid gathers, queries racing a rolling update, queries after
a server was killed — must be byte-identical to the same query against
the in-process :class:`~repro.core.sharded.ShardedFLATIndex`.  The
shard servers are real processes, pool workers each joined to the
router by a Pipe; the tests keep the fleets small (3 shards) so the
suite stays fast.
"""

import multiprocessing
import os
import pickle
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import DeltaIndex, ShardedFLATIndex, restore_index
from repro.query import (
    MODE_PROCESS,
    ClusterError,
    ClusterRouter,
    Prefetcher,
    QueryService,
)
from repro.query import cluster as cluster_module
from repro.query import service as service_module
from repro.query.service import _process_run_group
from repro.query.workload import (
    random_points,
    random_range_queries,
    trajectory_range_queries,
)
from repro.storage.stats import IOStats

SPACE = np.array([0.0, 0.0, 0.0, 100.0, 100.0, 100.0])
SHARDS = 3
#: A kNN task for k = 0 on shard 0: the server raises answering it.
KNN_K0 = (0, _process_run_group, (np.zeros((1, 3)), True, None, 0))


def range_task(pos, box):
    """The router's cold range task for one box on shard *pos*."""
    return pos, _process_run_group, (np.asarray(box)[None, :], True)


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
            cluster_no_replicas._request_many([KNN_K0])
        # The server survived the bad request and keeps serving.
        assert np.array_equal(
            cluster_no_replicas.range_query(queries[0]),
            oracle.range_query(queries[0]),
        )

    def test_unknown_request_rejected(self, snapshot_root,
                                      cluster_no_replicas):
        _root, oracle, queries, _points = snapshot_root
        handle = cluster_no_replicas._endpoint(0)
        handle.send(("frobnicate",))  # not an (fn, args, kwargs) task
        with pytest.raises(ClusterError) as raised:
            cluster_no_replicas._unwrap(handle.recv(), 0)
        # The server returns the exception object; the router keeps the
        # "Type: msg" text and chains the original.
        cause = raised.value.__cause__
        assert type(cause) is ValueError
        assert str(raised.value) == f"shard 0 server error: ValueError: {cause}"
        assert np.array_equal(
            cluster_no_replicas.range_query(queries[0]),
            oracle.range_query(queries[0]),
        )

    def test_error_reply_mid_batch_leaves_the_connection_in_step(
            self, snapshot_root, cluster_no_replicas):
        _root, _oracle, queries, _points = snapshot_root
        probe = range_task(0, queries[0])
        ((expected, _stats, _prefetch),) = cluster_no_replicas._gather([probe])
        with pytest.raises(ClusterError, match="server error"):
            cluster_no_replicas._request_many([KNN_K0, range_task(0, SPACE)])
        # The full-space reply was read with the batch, so the next
        # request gets its own answer.
        ((got, _stats, _prefetch),) = cluster_no_replicas._gather([probe])
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

    def test_replies_carry_the_prefetch_report(self, snapshot_root,
                                               cluster_no_replicas):
        """The report counts the staging's reads, staged and consumed
        pages as ``ServiceReport`` does: a staging with its connection's
        next answer, a consumption with the answer whose reads hit."""
        walk = trajectory_range_queries(SPACE, 2e-5, 24, seed=13)
        _results, baseline = cluster_no_replicas.run(walk)
        assert baseline.prefetch_staged == baseline.prefetch_consumed == 0
        assert baseline.prefetch_reads_by_category == {}
        _results, report = cluster_no_replicas.run(walk, session_id="tracer")
        assert report.prefetch_staged > 0
        assert 0 < report.prefetch_consumed <= report.prefetch_staged
        assert report.prefetch_consumed <= report.total_prefetch_hits
        assert sum(report.prefetch_reads_by_category.values()) > 0
        assert list(report.prefetch_reads_by_category) == sorted(
            report.prefetch_reads_by_category)
        for c in set(baseline.reads_by_category) | set(report.reads_by_category):
            assert (report.reads_by_category.get(c, 0)
                    + report.prefetch_hits_by_category.get(c, 0)
                    == baseline.reads_by_category.get(c, 0))

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
        """A connection whose tasks name ever newer generations retires
        old clones and closes their stores.

        One worker loop over one ``WorkerEngines(owns_indexes=True)``,
        as a shard-server connection runs it, serves a session's range
        tasks; each names the next published generation, so every
        generation gets an engine clone and a prefetcher on the
        connection, and only the KEPT_GENERATIONS most recently used may
        stay alive.
        """
        from repro.core import (
            FLATIndex,
            publish_fork_generation,
            restore_index,
            snapshot_index,
        )
        from repro.query import SessionTracker
        from repro.query.service import (
            KEPT_GENERATIONS,
            WorkerEngines,
            read_reply,
            serve_requests,
        )
        from repro.storage import PageStore

        built = FLATIndex.build(PageStore(), random_mbrs(800, seed=3),
                                space_mbr=SPACE)
        snapshot_index(built, tmp_path)
        index = restore_index(tmp_path)
        engines = WorkerEngines(prefetch=True, owns_indexes=True)
        client, server = multiprocessing.Pipe()
        loop = threading.Thread(target=serve_requests, args=(server, engines))
        loop.start()
        sessions = SessionTracker()
        restored = {}
        walk = trajectory_range_queries(SPACE, 2e-5, 7, seed=13)
        generation = 0
        for step, query in enumerate(walk):
            if step:
                fork = index.fork()
                fork.apply_batch(insert_mbrs=random_mbrs(5, seed=step))
                _directory, generation = publish_fork_generation(fork)
                # The next rebuild must sit on the published generation.
                index.store.close()
                index = restore_index(tmp_path, generation=generation)
            task = (_process_run_group, (
                generation, (str(tmp_path), generation), query[None, :], True,
                sessions.hint("walker", query),
            ), {})
            client.send_bytes(pickle.dumps(task))
            ok, (_pid, (hits,), _stats, _prefetch, _s, _shards) = read_reply(client)
            assert ok
            assert np.array_equal(hits, index.range_query(query))
            assert len(engines) <= KEPT_GENERATIONS
            restored[generation] = engines._entries[generation][2]
        client.send_bytes(pickle.dumps(None))
        loop.join(60)
        assert not loop.is_alive()
        assert generation == len(walk) - 1
        kept = set(engines._entries)
        assert len(kept) == KEPT_GENERATIONS
        for each, old in restored.items():
            # An evicted generation's store is closed with it.
            assert old.store.backend.closed == (each not in kept)
            old.store.close()
        index.store.close()
        client.close()
        server.close()


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
        probes = [range_task(pos, queries[0]) for pos in (0, 1)]
        expected = [ids for ids, _stats, _prefetch
                    in cluster_no_replicas._gather(probes)]
        cluster_no_replicas.kill_server(2, "primary")
        with pytest.raises(ClusterError, match="no live server"):
            cluster_no_replicas.range_query(SPACE)
        # The surviving servers' full-space replies were read before the
        # error surfaced: each answers the next request, not that one.
        for probe, ids in zip(probes, expected):
            ((got, _stats, _prefetch),) = cluster_no_replicas._gather([probe])
            assert np.array_equal(got, ids)

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
                # Exactly the shard's rebuild travels (the oracle's
                # in-memory rebuild holds the same pages); the
                # generation it extends never travels again.
                rebuilt = len(fork.shards[entry["shard"]].index.store)
                assert entry["pages_sent"] == rebuilt

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


    def test_replica_serves_the_rolled_generation_from_its_own_directory(
            self, tmp_path):
        """Roll with replicas, kill every rolled primary, then query: each
        replica restores the new generation from its own directory.

        The dead primaries' directories are moved away first, so a task
        that named a primary's directory would fail to restore."""
        oracle, cluster = self._private_cluster(tmp_path, seed=17)
        queries = np.vstack([random_range_queries(SPACE, 0.001, 12, seed=19),
                             SPACE])
        with cluster:
            inserts, deletes = self._batch(oracle, seed=19)
            fork = oracle.fork()
            fork.apply_batch(insert_mbrs=inserts, delete_ids=deletes)
            report = cluster.apply_updates(insert_mbrs=inserts,
                                           delete_ids=deletes)
            assert report.shards_updated
            for pos in report.shards_updated:
                cluster.kill_server(pos, "primary")
                directory = cluster._primaries[pos].directory
                directory.rename(directory.with_name(directory.name + "-gone"))
            results, batch = cluster.run(queries)
            for got, query in zip(results, queries):
                assert np.array_equal(got, fork.range_query(query))
            assert batch.servers_lost == len(report.shards_updated)
            status = cluster.status()
            for pos in report.shards_updated:
                assert status[pos]["pid"] == cluster._replicas[pos].process.pid
                assert status[pos]["generation"] == report.generations[pos]
                assert status[pos]["element_count"] == (
                    fork.shards[pos].index.element_count
                )


class TestOneShardParity:
    def test_a_one_shard_cluster_serves_a_session_as_a_one_worker_pool(
            self, tmp_path):
        """The same walk through ``ClusterRouter.run`` over a one-shard
        root and through a one-worker process ``QueryService`` over that
        shard's directory accounts identically: one session model at the
        front, the same task, the same staging rule.

        ``run_session``'s last query reports its own staging; a server
        reports a staging with the connection's next answer, so the
        cluster side adds the report of one more (session-free) task.
        """
        built = ShardedFLATIndex.build(random_mbrs(20000, seed=6), 1,
                                       space_mbr=SPACE)
        root = tmp_path / "root"
        built.snapshot(root)
        walk = trajectory_range_queries(SPACE, 2e-5, 32, seed=13)
        with ClusterRouter.launch(root) as router:
            results, cluster = router.run(walk, session_id="walker")
            ((_ids, _stats, last),) = router._gather([range_task(0, walk[-1])])
        index = restore_index(ShardedFLATIndex.shard_directory(root, 0))
        try:
            with QueryService(index, workers=1, mode=MODE_PROCESS,
                              prefetch=True) as service:
                pool = service.run_session(walk, "walker")
        finally:
            index.store.close()
        assert [len(ids) for ids in results] == pool.per_query_results
        assert pool.total_prefetch_hits > 0
        assert cluster.reads_by_category == pool.reads_by_category
        assert cluster.prefetch_hits_by_category == pool.prefetch_hits_by_category
        staging = IOStats()
        staging.reads.update(cluster.prefetch_reads_by_category)
        staging.merge(last["io"])
        assert staging.reads == pool.prefetch_reads_by_category
        assert cluster.prefetch_staged + last["staged"] == pool.prefetch_staged
        assert cluster.prefetch_consumed == pool.prefetch_consumed


def data_files(pid, under) -> set:
    """The ``.dat`` files below *under* that process *pid* holds open
    or maps, from ``/proc``."""
    proc = Path("/proc") / str(pid)
    names = set()
    for fd in (proc / "fd").iterdir():
        try:
            names.add(os.readlink(fd))
        except OSError:  # closed since the listing
            pass
    for line in (proc / "maps").read_text().splitlines():
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            names.add(fields[5])
    return {Path(name) for name in names
            if name.endswith(".dat") and Path(name).is_relative_to(under)}


class TestLifecycle:
    def test_server_dying_before_it_answers_raises_cluster_error(
            self, snapshot_root, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("servers inherit the patched loop only by fork")
        root, _oracle, _queries, _points = snapshot_root

        def refuse(conn, engines):
            raise OSError("cannot serve")

        monkeypatch.setattr(service_module, "serve_requests", refuse)
        running = set(multiprocessing.active_children())
        with pytest.raises(ClusterError, match=r"^shard server 0 \(primary\) "
                           r"exited with code 1 before it answered$"):
            ClusterRouter.launch(root)
        assert set(multiprocessing.active_children()) == running

    def test_silent_server_raises_cluster_error(self, snapshot_root,
                                                monkeypatch):
        """A server that never answers its warm-up fails the launch once
        the start bound runs out, and is stopped with the fleet."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("servers inherit the patched loop only by fork")
        root, _oracle, _queries, _points = snapshot_root

        def silent(conn, engines):
            time.sleep(2.0)
            return False

        monkeypatch.setattr(service_module, "serve_requests", silent)
        monkeypatch.setattr(cluster_module, "START_TIMEOUT", 0.2)
        running = set(multiprocessing.active_children())
        with pytest.raises(ClusterError, match=r"^shard server 0 \(primary\) "
                           r"did not answer within 0.2 s$"):
            ClusterRouter.launch(root)
        assert set(multiprocessing.active_children()) == running

    def test_each_server_holds_only_its_own_data_file(self, tmp_path):
        """Every server starts before the router restores its control
        replica, so no server inherits another shard's data file: each
        one's descriptors and mappings name a ``.dat`` file of the fleet
        only in the directory its own tasks name."""
        if not Path("/proc/self/maps").exists():
            pytest.skip("needs /proc")
        built = ShardedFLATIndex.build(random_mbrs(2500, seed=8), SHARDS,
                                       space_mbr=SPACE)
        built.snapshot(tmp_path / "root")
        fleet = tmp_path.resolve()
        with ClusterRouter.launch(tmp_path / "root",
                                  replica_root=tmp_path / "replicas") as router:
            handles = router._primaries + router._replicas
            assert len(handles) == 2 * SHARDS
            for handle in handles:
                held = data_files(handle.process.pid, fleet)
                assert held, f"{handle.role} {handle.shard_id} holds no data file"
                assert {path.parent for path in held} == {
                    handle.directory.resolve()
                }

    def test_failed_warm_up_stops_every_server(self, snapshot_root, tmp_path,
                                               monkeypatch):
        """Every server restores its generation before ``launch``
        returns; a restore that fails there stops the whole fleet."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("servers inherit the patched restore only by fork")
        root, _oracle, _queries, _points = snapshot_root

        def broken(generation, spec):
            raise RuntimeError(f"cannot restore {spec}")

        monkeypatch.setattr(service_module, "_restore_generation", broken)
        running = set(multiprocessing.active_children())
        with pytest.raises(ClusterError, match="RuntimeError: cannot restore"):
            ClusterRouter.launch(root, replica_root=tmp_path / "replicas")
        assert set(multiprocessing.active_children()) == running

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

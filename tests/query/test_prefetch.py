"""Trajectory prefetching: model gating, staging, and the accounting law.

The load-bearing property is the **accounting identity**: prefetching
only ever moves reads earlier, so for any query sequence and *any*
interleaving of prefetch crawls with demand queries,

    demand_reads[c] + prefetch_hits[c] == reads[c] of a prefetch-free run

per page category, with byte-identical results — on the in-memory
backend and the mmap-backed file store alike.  A hypothesis test pins
that law under arbitrary interleavings; deterministic tests pin the
model's confidence gating and the service/session integration in
thread and process modes (a sharded service refuses prefetch: sharded
sessions prefetch through ``ClusterRouter``).
"""

import multiprocessing
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FLATIndex, ShardedFLATIndex
from repro.geometry.intersect import boxes_intersect_box
from repro.query import (
    MODE_PROCESS,
    ClusterRouter,
    PrefetchArea,
    Prefetcher,
    QueryService,
    SessionTracker,
    TrajectoryModel,
    trajectory_range_queries,
)
from repro.query.prefetch import (
    HISTORY,
    INFLATE,
    LOOKAHEAD,
    MAX_SPEED_RATIO,
    MIN_ALIGNMENT,
    MIN_HISTORY,
)
from repro.storage import PageStore
from repro.storage.serial import decode_node_page

SPACE = np.array([0.0, 0.0, 0.0, 102.0, 102.0, 102.0])


def build_flat(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    mbrs = np.concatenate([lo, lo + rng.uniform(0.01, 2, size=(n, 3))], axis=1)
    store = PageStore()
    return FLATIndex.build(store, mbrs), store


def walk_boxes(count=10, start=(20.0, 20.0, 20.0), step=(3.0, 2.0, 1.0),
               edge=6.0):
    """A perfectly straight query walk — always above the gates."""
    centers = np.asarray(start) + np.outer(np.arange(count), np.asarray(step))
    half = edge / 2.0
    return np.concatenate([centers - half, centers + half], axis=1)


# -- the staging area ----------------------------------------------------


class TestPrefetchArea:
    def test_take_is_non_consuming(self):
        area = PrefetchArea()
        area.stage(7)
        area.stage_decoded(7, "metadata", "decoded")
        assert area.take(7) == {"metadata": "decoded"}
        assert area.take(7) == {"metadata": "decoded"}

    def test_consumed_counts_distinct_pages(self):
        area = PrefetchArea()
        for page in (1, 2, 3):
            area.stage(page)
        area.take(1)
        area.take(1)
        area.take(2)
        area.take(99)  # never staged
        assert area.counters() == {"staged": 3, "consumed": 2}

    def test_stage_is_idempotent(self):
        area = PrefetchArea()
        area.stage(5)
        area.stage(5)
        assert area.counters()["staged"] == 1
        assert len(area) == 1

    def test_lru_eviction_past_capacity(self):
        area = PrefetchArea(capacity=2)
        area.stage(1)
        area.stage(2)
        area.take(1)
        area.stage(3)  # evicts page 1 (LRU)
        assert 1 not in area
        assert area.take(1) is None
        assert area.counters() == {"staged": 3, "consumed": 1}

    def test_stage_decoded_noop_when_unstaged(self):
        area = PrefetchArea()
        area.stage_decoded(4, "metadata", "decoded")
        assert area.take(4) is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PrefetchArea(capacity=0)


# -- the trajectory model ------------------------------------------------


class TestTrajectoryModel:
    def test_too_little_history_predicts_nothing(self):
        model = TrajectoryModel()
        for box in walk_boxes(2):
            model.observe(box)
        assert model.observed == 2
        assert model.predict() is None

    def test_straight_walk_prediction_covers_next_box(self):
        boxes = walk_boxes(6)
        model = TrajectoryModel()
        for box in boxes[:5]:
            model.observe(box)
        predicted = model.predict()
        assert predicted is not None
        assert np.all(predicted[:3] <= boxes[5][:3])
        assert np.all(predicted[3:] >= boxes[5][3:])

    def test_erratic_session_is_gated_off(self):
        rng = np.random.default_rng(11)
        model = TrajectoryModel()
        for _ in range(5):
            lo = rng.uniform(0, 90, size=3)
            model.observe(np.concatenate([lo, lo + 5.0]))
        assert model.predict() is None

    def test_teleporting_speed_is_gated_off(self):
        model = TrajectoryModel()
        # Same direction, but one step is 50x the others.
        for x in (0.0, 1.0, 2.0, 102.0):
            model.observe(np.array([x, 0, 0, x + 4, 4, 4]))
        assert model.predict() is None

    def test_stationary_session_predicts_the_same_spot(self):
        box = np.array([10.0, 10, 10, 16, 16, 16])
        model = TrajectoryModel()
        for _ in range(4):
            model.observe(box)
        predicted = model.predict()
        assert predicted is not None
        assert np.all(predicted[:3] <= box[:3])
        assert np.all(predicted[3:] >= box[3:])

    def test_lookahead_window_contains_single_step(self):
        model = TrajectoryModel()
        for box in walk_boxes(5):
            model.observe(box)
        one = model.predict()
        window = model.predict(lookahead=3)
        assert np.all(window[:3] <= one[:3])
        assert np.all(window[3:] >= one[3:])
        assert np.any(window[3:] > one[3:])  # genuinely wider downstream

    def test_lookahead_validation(self):
        with pytest.raises(ValueError):
            TrajectoryModel().predict(lookahead=0)

    @pytest.mark.parametrize("kwargs", [
        {"HISTORY": 1},
        {"MIN_HISTORY": 6, "HISTORY": 5},
        {"MIN_ALIGNMENT": 2.0},
        {"MAX_SPEED_RATIO": 0.5},
        {"INFLATE": 0.9},
        {"LOOKAHEAD": 0},
    ])
    def test_config_validation(self, kwargs):
        """The model's settings are module constants: they keep the
        ranges the model relies on, and each setting here leaves one."""
        assert settings_in_range(MODEL_SETTINGS)
        assert not settings_in_range({**MODEL_SETTINGS, **kwargs})


#: The trajectory model's settings, by constant name.
MODEL_SETTINGS = {
    "HISTORY": HISTORY,
    "MIN_HISTORY": MIN_HISTORY,
    "MIN_ALIGNMENT": MIN_ALIGNMENT,
    "MAX_SPEED_RATIO": MAX_SPEED_RATIO,
    "INFLATE": INFLATE,
    "LOOKAHEAD": LOOKAHEAD,
}


def settings_in_range(settings: dict) -> bool:
    """Whether trajectory-model *settings* keep the ranges the model
    relies on: a history long enough to hold a step and at least the
    boxes a prediction needs, an alignment gate that is a cosine, and a
    speed ratio, inflation and lookahead of at least one."""
    return (2 <= settings["MIN_HISTORY"] <= settings["HISTORY"]
            and -1.0 <= settings["MIN_ALIGNMENT"] <= 1.0
            and settings["MAX_SPEED_RATIO"] >= 1.0
            and settings["INFLATE"] >= 1.0
            and settings["LOOKAHEAD"] >= 1)


# -- staging crawl + accounting identity ---------------------------------


@pytest.fixture(scope="module")
def backed_indexes(tmp_path_factory):
    """The same index over the memory backend and the mmap file store."""
    flat, _store = build_flat(n=2000, seed=3)
    snap = tmp_path_factory.mktemp("prefetch-snap")
    flat.snapshot(snap)
    restored = FLATIndex.restore(snap)
    yield {"memory": flat, "file": restored}
    restored.store.close()


def run_cold_baseline(index, queries):
    """Per-query results and physical reads of a prefetch-free clone."""
    store = index.store.view()
    engine = index.with_store(store)
    results, reads = [], []
    for query in queries:
        store.clear_cache()
        before = store.stats.snapshot()
        results.append(engine.range_query(query))
        reads.append(dict(store.stats.diff(before).reads))
    return results, reads


box_strategy = st.tuples(
    st.floats(0.0, 95.0), st.floats(0.0, 95.0), st.floats(0.0, 95.0),
    st.floats(0.5, 8.0),
).map(lambda t: np.array([t[0], t[1], t[2],
                          t[0] + t[3], t[1] + t[3], t[2] + t[3]]))


class TestAccountingIdentity:
    @pytest.mark.parametrize("backing", ["memory", "file"])
    @settings(max_examples=20, deadline=None)
    @given(
        queries=st.lists(box_strategy, min_size=2, max_size=5),
        prefetch_plan=st.lists(
            st.lists(box_strategy, max_size=2), min_size=5, max_size=5
        ),
    )
    def test_any_interleaving_is_read_exact(self, backed_indexes, backing,
                                            queries, prefetch_plan):
        """Arbitrary prefetches interleaved with arbitrary queries
        change neither the results nor the per-category read law."""
        index = backed_indexes[backing]
        base_results, base_reads = run_cold_baseline(index, queries)

        prefetcher = Prefetcher(index)
        store = index.store.view()
        engine = index.with_store(store)
        store.prefetch_area = prefetcher.area
        for query, base_ids, base_read, boxes in zip(
            queries, base_results, base_reads, prefetch_plan
        ):
            for box in boxes:
                prefetcher.prefetch(box)
            store.clear_cache()
            before = store.stats.snapshot()
            got = engine.range_query(query)
            diff = store.stats.diff(before)
            assert np.array_equal(got, base_ids)
            categories = (
                set(base_read) | set(diff.reads) | set(diff.prefetch_hits)
            )
            for c in categories:
                assert (
                    diff.reads.get(c, 0) + diff.prefetch_hits.get(c, 0)
                    == base_read.get(c, 0)
                ), f"category {c} violates the accounting identity"

    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_prefetching_the_query_box_absorbs_reads(self, backed_indexes,
                                                     backing):
        index = backed_indexes[backing]
        query = walk_boxes(1)[0]
        base_results, base_reads = run_cold_baseline(index, [query])

        prefetcher = Prefetcher(index)
        store = index.store.view()
        engine = index.with_store(store)
        store.prefetch_area = prefetcher.area
        assert prefetcher.prefetch(query) > 0
        store.clear_cache()
        before = store.stats.snapshot()
        got = engine.range_query(query)
        diff = store.stats.diff(before)
        assert np.array_equal(got, base_results[0])
        # The staging crawl covers a superset of the demand page set, so
        # every demand read is absorbed.
        assert diff.total_reads == 0
        assert sum(diff.prefetch_hits.values()) == sum(base_reads[0].values())
        counters = prefetcher.area.counters()
        assert counters["consumed"] > 0
        assert counters["staged"] >= counters["consumed"]


# -- the staged page set --------------------------------------------------


def reference_staged_pages(index, window) -> set:
    """The staging protocol, rebuilt from the raw pages.

    Descend to every seed leaf whose key meets *window*, then BFS from
    all of those leaves' records over partition-box hits.  The staged
    set is the internal pages on the way down, every leaf the BFS
    reaches, and each reached object page whose page box meets the
    window.
    """
    seed = index.seed_index
    records = {record.record_id: record for record in seed.iter_records()}
    staged: set = set()
    start: list = []
    stack = [(seed.root_id, seed.height)]
    while stack:
        page_id, level = stack.pop()
        if level == 0:
            start.extend(int(rid) for rid in seed.leaf_record_ids[page_id])
            continue
        staged.add(page_id)
        child_ids, child_mbrs, _leaf = decode_node_page(
            index.store.read_silent(page_id)
        )
        for cid in child_ids[boxes_intersect_box(child_mbrs, window)]:
            stack.append((int(cid), level - 1))
    visited = set(start)
    queue = deque(start)
    while queue:
        record = records[queue.popleft()]
        staged.add(int(seed.record_page[record.record_id]))
        if boxes_intersect_box(record.page_mbr[None, :], window)[0]:
            staged.add(record.object_page_id)
        if boxes_intersect_box(record.partition_mbr[None, :], window)[0]:
            for rid in record.neighbor_ids:
                if rid not in visited:
                    visited.add(rid)
                    queue.append(rid)
    return staged


def assert_area_holds_exactly(area, expected: set) -> None:
    assert len(area) == len(expected)
    assert all(page in area for page in expected)


STAGING_WINDOWS = [
    walk_boxes(1)[0],
    np.array([10.0, 40, 30, 35, 52, 44]),  # a multi-step lookahead window
    np.array([60.0, 5, 70, 61, 6, 71]),
    np.array([300.0, 300, 300, 301, 301, 301]),  # outside the data
]


@pytest.fixture(scope="module")
def sharded_index():
    rng = np.random.default_rng(8)
    lo = rng.uniform(0, 100, size=(2500, 3))
    mbrs = np.concatenate([lo, lo + rng.uniform(0.01, 2, size=(2500, 3))], axis=1)
    return ShardedFLATIndex.build(mbrs, 3, space_mbr=SPACE)


class TestStagedPageSet:
    @pytest.mark.parametrize("backing", ["memory", "file"])
    @pytest.mark.parametrize("window", STAGING_WINDOWS)
    def test_prefetch_stages_exactly_the_protocol_set(self, backed_indexes,
                                                      backing, window):
        index = backed_indexes[backing]
        prefetcher = Prefetcher(index)
        prefetcher.prefetch(window)
        assert_area_holds_exactly(
            prefetcher.area, reference_staged_pages(index, window)
        )

    @pytest.mark.parametrize("window", STAGING_WINDOWS)
    def test_sharded_prefetch_stages_exactly_per_shard(self, sharded_index,
                                                       window):
        """A sharded session stages shard by shard, as the shard servers
        of a ``ClusterRouter`` do: each shard's prefetcher serves that
        shard as one monolithic index and stages exactly its protocol
        set."""
        for shard in sharded_index.shards:
            prefetcher = Prefetcher(shard.index)
            prefetcher.prefetch(window)
            assert_area_holds_exactly(
                prefetcher.area, reference_staged_pages(shard.index, window)
            )


class TestSessionTracker:
    def test_one_staging_window_per_covered_stretch(self):
        tracker = SessionTracker()
        boxes = walk_boxes(count=12)
        hints = [tracker.hint("walker", box) for box in boxes]
        # No prediction before MIN_HISTORY boxes were observed.
        assert all(hint is None for hint in hints[:MIN_HISTORY - 1])
        windows = [hint for hint in hints if hint is not None]
        assert 0 < len(windows) < len(boxes) - MIN_HISTORY + 1
        model = TrajectoryModel()
        for box in boxes[:MIN_HISTORY]:
            model.observe(box)
        assert np.array_equal(windows[0], model.predict(LOOKAHEAD))

    def test_sessions_are_lru_bounded(self):
        tracker = SessionTracker()
        box = walk_boxes(count=1)[0]
        for session in range(SessionTracker.KEPT_SESSIONS + 2):
            tracker.hint(session, box)
        assert len(tracker) == SessionTracker.KEPT_SESSIONS


# -- service integration -------------------------------------------------


@pytest.fixture(scope="module")
def session_setup():
    flat, store = build_flat(n=4000, seed=2)
    queries = trajectory_range_queries(SPACE, 5e-5, 25, seed=9)
    expected = [flat.range_query(q) for q in queries]
    return flat, queries, expected


def run_session_reports(index, queries, prefetch, **kwargs):
    with QueryService(
        index, workers=1, clear_cache_per_query=True, prefetch=prefetch,
        **kwargs,
    ) as service:
        return service.run_session(queries, "walker", "prefetch-test")


class TestServiceSessions:
    def test_thread_session_results_identical(self, session_setup):
        flat, queries, expected = session_setup
        with QueryService(
            flat, workers=1, clear_cache_per_query=True, prefetch=True
        ) as service:
            for query, want in zip(queries, expected):
                got = service.submit(query, session_id="walker").result()
                assert np.array_equal(got, want)
            assert service.prefetch_failures == 0

    def test_thread_session_accounting_identity(self, session_setup):
        flat, queries, _expected = session_setup
        baseline = run_session_reports(flat, queries, prefetch=False)
        prefetched = run_session_reports(flat, queries, prefetch=True)
        assert prefetched.session_id == "walker"
        assert prefetched.prefetch_enabled
        assert not baseline.prefetch_enabled
        assert prefetched.total_prefetch_hits > 0
        assert 0.0 < prefetched.prefetch_hit_rate <= 1.0
        categories = (
            set(baseline.reads_by_category)
            | set(prefetched.reads_by_category)
            | set(prefetched.prefetch_hits_by_category)
        )
        for c in categories:
            assert (
                prefetched.reads_by_category.get(c, 0)
                + prefetched.prefetch_hits_by_category.get(c, 0)
                == baseline.reads_by_category.get(c, 0)
            )
        assert prefetched.prefetch_staged >= prefetched.prefetch_consumed

    def test_process_session_accounting_identity(self, session_setup):
        flat, queries, expected = session_setup
        baseline = run_session_reports(
            flat, queries, prefetch=False, mode=MODE_PROCESS
        )
        prefetched = run_session_reports(
            flat, queries, prefetch=True, mode=MODE_PROCESS
        )
        assert prefetched.total_prefetch_hits > 0
        categories = (
            set(baseline.reads_by_category)
            | set(prefetched.reads_by_category)
            | set(prefetched.prefetch_hits_by_category)
        )
        for c in categories:
            assert (
                prefetched.reads_by_category.get(c, 0)
                + prefetched.prefetch_hits_by_category.get(c, 0)
                == baseline.reads_by_category.get(c, 0)
            )

    def test_sharded_session_results_identical(self, tmp_path):
        """A sharded session prefetches shard by shard on the shard
        servers of a ``ClusterRouter``, and every answer is the sharded
        index's own."""
        rng = np.random.default_rng(4)
        lo = rng.uniform(0, 100, size=(3000, 3))
        mbrs = np.concatenate(
            [lo, lo + rng.uniform(0.01, 2, size=(3000, 3))], axis=1
        )
        sharded = ShardedFLATIndex.build(mbrs, 3, space_mbr=SPACE)
        sharded.snapshot(tmp_path)
        queries = trajectory_range_queries(SPACE, 5e-5, 20, seed=21)
        expected = [sharded.range_query(q) for q in queries]
        with ClusterRouter.launch(tmp_path) as router:
            results, report = router.run(queries, session_id="walker")
            for got, want in zip(results, expected):
                assert np.array_equal(got, want)
            assert report.prefetch_staged > 0
            assert all(shard["prefetch_failures"] == 0
                       for shard in router.status())

    def test_sharded_service_refuses_prefetch(self):
        """A sharded service serves without prefetch: a sharded session
        prefetches through ``ClusterRouter`` instead."""
        rng = np.random.default_rng(4)
        lo = rng.uniform(0, 100, size=(300, 3))
        mbrs = np.concatenate(
            [lo, lo + rng.uniform(0.01, 2, size=(300, 3))], axis=1
        )
        sharded = ShardedFLATIndex.build(mbrs, 3, space_mbr=SPACE)
        with pytest.raises(ValueError, match="ClusterRouter"):
            QueryService(sharded, workers=2, prefetch=True)

    def test_uncorrelated_session_never_stages(self, session_setup):
        flat, _queries, _expected = session_setup
        rng = np.random.default_rng(5)
        lo = rng.uniform(0, 90, size=(10, 3))
        random_queries = np.concatenate([lo, lo + 5.0], axis=1)
        report = run_session_reports(flat, random_queries, prefetch=True)
        assert report.total_prefetch_hits == 0
        assert report.prefetch_staged == 0
        assert report.total_prefetch_reads == 0

    def test_staging_failures_are_counted_in_both_modes(self, session_setup,
                                                         monkeypatch):
        """A staging crawl that raises never fails the query, and the
        service counts it whether a thread or a worker process ran it."""
        flat, queries, expected = session_setup

        def fail(self, box):
            raise RuntimeError("staging crawl failed")

        # Forked workers inherit the patched class.
        monkeypatch.setattr(Prefetcher, "prefetch", fail)
        fork = {"mode": MODE_PROCESS,
                "mp_context": multiprocessing.get_context("fork")}
        failures = {}
        for name, kwargs in (("thread", {}), ("process", fork)):
            with QueryService(flat, workers=1, clear_cache_per_query=True,
                              prefetch=True, **kwargs) as service:
                report = service.run_session(queries, "walker")
                failures[name] = service.prefetch_failures
            assert report.query_count == len(queries)
        assert failures["process"] == failures["thread"] > 0

        # The submit path counts through the task's done-callback.
        with QueryService(flat, workers=1, clear_cache_per_query=True,
                          prefetch=True, **fork) as service:
            for query, want in zip(queries, expected):
                got = service.submit(query, session_id="walker").result()
                assert np.array_equal(got, want)
        assert service.prefetch_failures == failures["thread"]

    def test_thread_and_process_sessions_account_identically(
            self, session_setup, monkeypatch):
        """Both modes stage a session's hint in the worker, after the
        answer: slowing every demand query down cannot let a staging
        crawl overlap the query that carried its hint, so one worker
        reads, stages and consumes the same pages in either mode."""
        flat, queries, _expected = session_setup
        crawl = FLATIndex.range_query

        def slow_range_query(self, query):
            time.sleep(0.02)
            return crawl(self, query)

        # Forked workers inherit the patched class.
        monkeypatch.setattr(FLATIndex, "range_query", slow_range_query)
        fork = {"mode": MODE_PROCESS,
                "mp_context": multiprocessing.get_context("fork")}
        thread = run_session_reports(flat, queries, prefetch=True)
        process = run_session_reports(flat, queries, prefetch=True, **fork)
        assert thread.total_prefetch_hits > 0
        for name in ("reads_by_category", "prefetch_hits_by_category",
                     "prefetch_reads_by_category", "prefetch_staged",
                     "prefetch_consumed"):
            assert getattr(thread, name) == getattr(process, name), name

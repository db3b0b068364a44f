"""Answer first, then stage: a process-side worker sends its answer
before it stages the session's next window, and every staging is still
accounted for.

A pool process and a shard-server connection stage a task's prefetch
hint once the reply is sent and before they read their next request,
so a staging crawl never delays the answer that carried its hint, and
the worker's stores see the same page sequence as a worker that stages
before it answers.  Staging reports ride with the worker's next answer;
the last query of a ``run_session`` batch stages before its task
returns, and a stopped pool worker hands its last report to
``close()``, so no failure goes uncounted.  Every wait is bounded.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.core import FLATIndex, ShardedFLATIndex
from repro.query import (
    MODE_PROCESS,
    ClusterRouter,
    Prefetcher,
    QueryService,
    SessionTracker,
    trajectory_range_queries,
)
from repro.storage import PageStore

SPACE = np.array([0.0, 0.0, 0.0, 102.0, 102.0, 102.0])
FORK = multiprocessing.get_context("fork")
#: Bound on any wait that should end at once.
WAIT = 60.0
#: Bound on an answer that must not wait for a held staging crawl.
ANSWER_WAIT = 10.0
MODES = {"thread": {}, "process": {"mode": MODE_PROCESS, "mp_context": FORK}}


def random_mbrs(n, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2, size=(n, 3))], axis=1)


@pytest.fixture(scope="module")
def walk_setup():
    flat = FLATIndex.build(PageStore(), random_mbrs(4000, seed=2))
    walk = trajectory_range_queries(SPACE, 5e-5, 25, seed=9)
    return flat, walk


@pytest.fixture(scope="module")
def cluster_root(tmp_path_factory):
    sharded = ShardedFLATIndex.build(random_mbrs(2500, seed=1), 3,
                                     space_mbr=SPACE)
    root = tmp_path_factory.mktemp("answer-first-root")
    sharded.snapshot(root)
    return root, trajectory_range_queries(SPACE, 2e-5, 24, seed=13)


def hinted_queries(walk) -> list:
    """Positions of the walk's queries that carry a prefetch hint: one
    session model at the front, as ``QueryService`` and
    ``ClusterRouter`` keep it, whose due window rides with every task
    of the query."""
    tracker = SessionTracker()
    return [i for i, box in enumerate(walk)
            if tracker.hint("walker", box) is not None]


def held_until(release):
    """A ``Prefetcher.prefetch`` that starts only once *release* is set."""
    stage = Prefetcher.prefetch

    def prefetch(self, box):
        release.wait(WAIT)
        return stage(self, box)

    return prefetch


def fail(self, box):
    raise RuntimeError("staging crawl failed")


def submit_walk(service, walk) -> list:
    """Submit the walk one query at a time; each query's demand I/O."""
    spent = []
    for box in walk:
        before = service.aggregate_stats()
        service.submit(box, session_id="walker").result(timeout=WAIT)
        spent.append(service.aggregate_stats().diff(before))
    return spent


class TestAnswerLeavesBeforeStaging:
    def test_pool_process_answers_while_its_staging_is_held(
            self, walk_setup, monkeypatch):
        flat, walk = walk_setup
        first = hinted_queries(walk)[0]
        # Created before the worker forks, so both sides share it.
        release = FORK.Event()
        monkeypatch.setattr(Prefetcher, "prefetch", held_until(release))
        with QueryService(flat, workers=1, prefetch=True,
                          **MODES["process"]) as service:
            submit_walk(service, walk[:first])
            future = service.submit(walk[first], session_id="walker")
            try:
                answer = future.result(timeout=ANSWER_WAIT)
                assert not release.is_set()
            finally:
                release.set()
            assert np.array_equal(answer, flat.range_query(walk[first]))
            (process,) = submit_walk(service, walk[first + 1:first + 2])
        with QueryService(flat, workers=1, prefetch=True) as service:
            thread = submit_walk(service, walk[:first + 2])[-1]
        # The next query consumes the window the held staging staged.
        assert thread.total_prefetch_hits > 0
        assert process.reads == thread.reads
        assert process.prefetch_hits == thread.prefetch_hits

    def test_shard_server_answers_while_its_staging_is_held(
            self, cluster_root, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("servers share the event and the patch only by fork")
        root, walk = cluster_root
        release = multiprocessing.Event()
        monkeypatch.setattr(Prefetcher, "prefetch", held_until(release))
        reports = {}
        for name in ("held", "free"):
            if name == "free":
                release.set()
            with ClusterRouter.launch(root) as router:
                first = hinted_queries(walk)[0]
                for box in walk[:first]:
                    router.run(box[None, :], session_id="walker")
                answered = []
                helper = threading.Thread(
                    target=lambda: answered.append(
                        router.run(walk[first][None, :], session_id="walker")
                    ),
                    daemon=True,
                )
                helper.start()
                try:
                    helper.join(ANSWER_WAIT)
                    assert answered, "the answer waited for the staging"
                    assert release.is_set() == (name == "free")
                finally:
                    release.set()
                    helper.join(WAIT)
                _results, reports[name] = router.run(
                    walk[first + 1][None, :], session_id="walker"
                )
        held, free = reports["held"], reports["free"]
        assert free.total_prefetch_hits > 0
        assert held.reads_by_category == free.reads_by_category
        assert held.prefetch_hits_by_category == free.prefetch_hits_by_category


class TestEveryStagingFailureIsCounted:
    """Each hint the session sends is one staging; when every staging
    raises, ``prefetch_failures`` counts each one."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_when_run_session_returns(self, walk_setup, monkeypatch, mode):
        flat, walk = walk_setup
        hints = hinted_queries(walk)
        # The last query carries a hint: its staging must be counted too.
        assert hints[-1] == len(walk) - 1
        monkeypatch.setattr(Prefetcher, "prefetch", fail)
        with QueryService(flat, workers=1, prefetch=True,
                          **MODES[mode]) as service:
            report = service.run_session(walk, "walker")
            assert service.prefetch_failures == len(hints)
        assert report.query_count == len(walk)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_on_the_submit_path_after_close(self, walk_setup, monkeypatch,
                                            mode):
        flat, walk = walk_setup
        monkeypatch.setattr(Prefetcher, "prefetch", fail)
        with QueryService(flat, workers=1, prefetch=True,
                          **MODES[mode]) as service:
            submit_walk(service, walk)
        assert service.prefetch_failures == len(hinted_queries(walk))

"""The process-mode pool: one duplex Pipe per worker process.

Failure behaviour (a task that raises, a reply that does not pickle, a
worker that dies, a close racing another close, a service dropped
without a close), a many-thread stress run, and serving under the non-fork start methods, checked against a
thread-mode service.  Every wait has a timeout, so a hang fails the
test instead of stalling the suite.
"""

import gc
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import FLATIndex, restore_index, snapshot_index
from repro.query import (
    MODE_PROCESS,
    QueryService,
    random_range_queries,
    trajectory_range_queries,
)
from repro.query.workload import random_points
from repro.storage import PageStore

SPACE = np.array([0.0, 0.0, 0.0, 100.0, 100.0, 100.0])
FORK = multiprocessing.get_context("fork")
WAIT = 60.0


class WorkerFault(Exception):
    """Raised inside a worker process by the tests below."""


class TwoArgumentError(Exception):
    """Pickles, but does not unpickle: ``args`` holds one of its two."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def echo(value):
    return value


def make_lock():
    return threading.Lock()


def raise_two_argument_error():
    raise TwoArgumentError(7, "no rebuild")


def random_mbrs(n, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 98, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2.0, size=(n, 3))], axis=1)


@pytest.fixture(scope="module")
def flat():
    return FLATIndex.build(PageStore(), random_mbrs(2000, seed=4))


@pytest.fixture(scope="module")
def queries():
    return random_range_queries(SPACE, 0.001, 12, seed=5)


def pool_workers(service):
    """``(process, reader thread)`` of every worker of *service*'s pool."""
    return [(process, reader) for process, reader, _conn in service._pool._workers]


def assert_stopped(service):
    for process, reader in pool_workers(service):
        assert not process.is_alive()
        assert not reader.is_alive()


def within(call, *args, **kwargs):
    """*call*'s value (or error), run on a helper thread: a call that
    takes no timeout of its own fails the test after WAIT seconds
    instead of hanging it."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call(*args, **kwargs)
        except BaseException as exc:  # re-raised below, in the test
            outcome["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(WAIT)
    assert not helper.is_alive(), f"{call.__name__} still waiting after {WAIT} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestFailures:
    def test_task_error_reraises_its_type(self, flat, queries, monkeypatch):
        def fail(self, query):
            raise WorkerFault("crawl failed")

        # Forked workers inherit the patched class.
        monkeypatch.setattr(FLATIndex, "range_query", fail)
        with QueryService(flat, workers=2, mode=MODE_PROCESS,
                          mp_context=FORK) as service:
            with pytest.raises(WorkerFault, match="crawl failed") as raised:
                service.submit(queries[0]).result(timeout=WAIT)
            # The worker's traceback rides along as the cause.
            assert "in fail" in str(raised.value.__cause__)
            with pytest.raises(WorkerFault, match="crawl failed"):
                within(service.run, queries)
            # A raising task does not cost the pool its worker.
            assert service._pool.submit(echo, 7).result(timeout=WAIT) == 7
            within(service.close)
        assert_stopped(service)

    def test_unpicklable_values_fail_their_task_only(self, flat):
        with QueryService(flat, workers=1, mode=MODE_PROCESS) as service:
            pool = service._pool
            with pytest.raises(TypeError, match="pickle"):
                pool.submit(make_lock).result(timeout=WAIT)
            with pytest.raises(TypeError, match="pickle"):
                pool.submit(echo, threading.Lock()).result(timeout=WAIT)
            # An error that does not unpickle comes back as the unpickling
            # error, and the reader thread lives on.
            with pytest.raises(TypeError, match="missing 1 required"):
                pool.submit(raise_two_argument_error).result(timeout=WAIT)
            assert pool.submit(echo, "still serving").result(
                timeout=WAIT) == "still serving"
            within(service.close)
        assert_stopped(service)

    def test_killed_worker_breaks_the_pool(self, flat, queries):
        service = QueryService(flat, workers=1, mode=MODE_PROCESS)
        try:
            pool = service._pool
            pid = pool.submit(os.getpid).result(timeout=WAIT)
            assert [process.pid for process, _r in pool_workers(service)] == [pid]
            sleeping = pool.submit(time.sleep, WAIT)
            queued = pool.submit(echo, 1)
            time.sleep(0.2)  # let the worker start sleeping
            os.kill(pid, signal.SIGKILL)
            for future in (sleeping, queued):
                with pytest.raises(BrokenProcessPool):
                    future.result(timeout=WAIT)
            with pytest.raises(BrokenProcessPool):
                service.submit(queries[0]).result(timeout=WAIT)
            with pytest.raises(BrokenProcessPool):
                within(service.run, queries)
        finally:
            within(service.close)
        assert_stopped(service)

    def test_close_from_two_threads_waits_for_in_flight_tasks(self, flat):
        service = QueryService(flat, workers=2, mode=MODE_PROCESS)
        # Two tasks run, two wait in the queue.
        futures = [service._pool.submit(time.sleep, 0.3) for _ in range(4)]
        closers = [threading.Thread(target=service.close) for _ in range(2)]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join(WAIT)
            assert not closer.is_alive()
        assert all(future.done() for future in futures)
        assert [future.result(timeout=0) for future in futures] == [None] * 4
        assert_stopped(service)
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(np.zeros(6))

    def test_dropped_service_stops_its_workers(self, flat, queries):
        service = QueryService(flat, workers=2, mode=MODE_PROCESS)
        within(service.run, queries)
        processes = [process for process, _reader in pool_workers(service)]
        # The reader threads keep the pool alive; dropping the service
        # must still stop its workers.
        del service
        gc.collect()
        for process in processes:
            process.join(WAIT)
            assert not process.is_alive()


class TestStress:
    def test_every_thread_gets_its_own_echoes(self, flat):
        threads, per_thread = 8, 150
        got = {}
        errors = []
        barrier = threading.Barrier(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(flat, workers=4, mode=MODE_PROCESS) as service:

                def client(tid):
                    try:
                        barrier.wait(WAIT)
                        futures = [service._pool.submit(echo, (tid, i))
                                   for i in range(per_thread)]
                        got[tid] = [f.result(timeout=WAIT) for f in futures]
                    except Exception as exc:  # reported below
                        errors.append(exc)

                clients = [threading.Thread(target=client, args=(tid,))
                           for tid in range(threads)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(WAIT)
                    assert not thread.is_alive()
                within(service.close)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for tid in range(threads):
            assert got[tid] == [(tid, i) for i in range(per_thread)]
        assert_stopped(service)


# -- start methods -------------------------------------------------------


@pytest.fixture(scope="module")
def restored(tmp_path_factory):
    built = FLATIndex.build(PageStore(), random_mbrs(3000, seed=8),
                            space_mbr=SPACE)
    directory = tmp_path_factory.mktemp("pool-snapshot")
    snapshot_index(built, directory)
    index = restore_index(directory)
    yield index
    index.store.close()


def serve_everything(index, queries, **kwargs) -> dict:
    """Answers and demand reads of submit, run, run_session and run_knn."""
    session = trajectory_range_queries(SPACE, 5e-5, 16, seed=9)
    points = random_points(SPACE, 6, seed=3)
    with QueryService(index, workers=1, prefetch=True, **kwargs) as service:
        ids = [service.submit(q).result(timeout=WAIT) for q in queries]
        submitted = service.aggregate_stats().reads
        ran = within(service.run, queries)
        walked = within(service.run_session, session, "walker")
        knn = within(service.run_knn, points, k=4)
        within(service.close)
    return {
        "submit": ([a.tolist() for a in ids], submitted),
        "run": (ran.per_query_results, ran.reads_by_category),
        "run_session": (walked.per_query_results, walked.reads_by_category,
                        walked.prefetch_hits_by_category,
                        walked.prefetch_reads_by_category,
                        walked.prefetch_staged, walked.prefetch_consumed),
        "run_knn": (knn.per_query_results, knn.reads_by_category),
    }


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_non_fork_start_methods_serve_like_threads(restored, queries, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    thread = serve_everything(restored, queries)
    process = serve_everything(restored, queries, mode=MODE_PROCESS,
                               mp_context=multiprocessing.get_context(method))
    assert thread["run_session"][2], "the session should consume staged pages"
    for call in thread:
        assert process[call] == thread[call], call

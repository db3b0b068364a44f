"""Concurrent query serving: one task body over per-worker generation caches.

The build/measure harness (:func:`repro.query.executor.run_queries`)
is deliberately single-threaded — the paper's figures are per-query
page-read counts.  Serving is the other regime: one index, many
concurrent readers, throughput as the metric.  ``QueryService``
bridges the two without giving up the accounting:

* every worker — a pool thread or a pool process — owns one
  :class:`WorkerEngines` cache holding, per index generation, a
  stat-isolated engine clone over :meth:`~repro.storage.pagestore.PageStore.view`
  stores (:meth:`FLATIndex.with_store
  <repro.core.flat_index.FLATIndex.with_store>` for a monolithic index,
  :meth:`ShardedFLATIndex.with_views
  <repro.core.sharded.ShardedFLATIndex.with_views>` for a sharded one),
  so buffer pools, decode memos, crawl scratch and
  :class:`~repro.storage.stats.IOStats` are worker-private while the
  page bytes (e.g. one read-only ``mmap``) are shared;
* every task runs one body, :meth:`WorkerEngines.serve`: answer the
  task's queries on the worker's clone and diff the clone's counters.
  The task's prefetch hint is staged after the answer: by a pool
  thread before its task returns, by a pool process (and a shard
  server) once its reply is sent and before it reads the next
  request.  The task returns its results, its
  :class:`~repro.storage.stats.IOStats` *delta* and its prefetch
  counts, and the parent merges the deltas in submission order —
  deterministic totals regardless of worker completion order;
* a **sharded** index is served like any other engine: one task per
  query, on the worker's clone, whose own ``range_query`` prunes,
  crawls the touched shards in turn and merges.
  :attr:`ServiceReport.shard_tasks` / :attr:`ServiceReport.shards_pruned`
  come from the clone's ``last_plan``;
* in the cold-cache regime the merged totals reproduce the
  single-threaded harness exactly, shard pruning included.

**Execution modes.**  Thread workers share the interpreter, so a
CPU-bound crawl serializes on the GIL no matter the pool size.
``mode="process"`` runs the same tasks across *processes*: the index
is pickled once into each worker (a read-only mmap-backed store
pickles as its ``(directory, generation)`` spec and reattaches by
remapping — page bytes never cross the pipe, and every process shares
the same OS page cache).  Each worker process is joined to the service
by one duplex ``multiprocessing`` Pipe: a task is sent from the
submitting thread as soon as a worker is free (else it waits in one
FIFO), and one reader thread per worker takes each reply, hands the
worker its next queued task and resolves the task's future.  Every
shard server (:mod:`repro.query.cluster`) is the same worker process,
started by the same :func:`_start_worker` with no generation 0: both
run :func:`serve_requests`, answer the same :func:`_process_run_group`
task on the process's :class:`WorkerEngines`, restore a generation
they do not hold from the ``(directory, generation)`` spec the task
carries, and stage the window the answer left once the reply is sent,
so the client turns the answer around while the worker stages.  A task
that raises comes back as the exception object itself, so the caller
re-raises its type, and a worker that dies breaks the pool
(``BrokenProcessPool``).  Thread tasks and process tasks return
the same tuple, so both modes aggregate through one path.
``batch_queries`` additionally groups in-flight queries into one
:meth:`FLATIndex.range_query_multi
<repro.core.flat_index.FLATIndex.range_query_multi>` joint crawl per
task, amortizing per-page decode work across every query in the group
while the cold-cache accounting stays per-query byte-exact.

**Queries under updates.**  :meth:`QueryService.apply_updates` changes
the served index with snapshot isolation: a merge builds the next
generation as a new index (:meth:`FLATIndex.merged
<repro.core.flat_index.FLATIndex.merged>`, a bulkload of the live set
on a store of its own), so in-flight queries keep crawling the
untouched old generation; the commit then atomically swaps the
service's current index, and workers clone the new generation on their
next task.  A :meth:`~QueryService.run` or :meth:`~QueryService.run_knn`
batch executes entirely against the generation current when it
started, and :meth:`~QueryService.submit` and each session query
against the one current when they were submitted — a result is never a
torn mix of pre- and post-update state.  In process mode the commit
additionally *publishes* the rebuild as the next on-disk snapshot
generation (:func:`~repro.core.snapshot.publish_fork_generation`) and
reopens it as the service's base; tasks carry the generation they
captured and its ``(directory, generation)`` spec, and a worker process
lazily restores that exact generation the first time a task reaches it
— the same isolation guarantee, across address spaces.

**The delta layer.**  Restructuring pages on every commit caps ingest
at a few thousand elements per second.  With ``delta_threshold > 0``
the service instead runs an LSM-style write path: small batches are
*absorbed* into an in-RAM :class:`~repro.core.delta.DeltaIndex`
(memtable + tombstones) over the committed base index, and only once
the buffered delta crosses the threshold (or :meth:`flush_delta`
forces it) is the whole delta *merged* — a generation boundary, where
the live set is bulkloaded afresh, like an LSM merge rewriting its
run, instead of patching pages in place.  Both kinds of commit are full service
versions with the same copy-on-write discipline (the delta is copied, the copy
absorbs the batch, the copy is published), so snapshot isolation is
unchanged.  The delta never reaches a worker: workers only ever serve
committed generations, and the service corrects each answer with the
delta its query captured where answers are gathered — ranges through
:meth:`~repro.core.delta.DeltaIndex.overlay`, kNN through
:meth:`~repro.core.delta.DeltaIndex.knn_overlay` over the base's top
``k + tombstone_count``.  An absorbed commit therefore publishes and
ships nothing and leaves every worker's engine, buffer pool and record
table warm, and the paper's page-read accounting stays byte-exact.

**Trajectory prefetching.**  Spatial analysis sessions issue box after
box along latent structures, so consecutive queries are strongly
correlated (SCOUT, PVLDB 2012).  With ``prefetch=True`` the service
feeds each session's boxes to a
:class:`~repro.query.prefetch.SessionTracker` (queries name their
session via ``session_id`` on :meth:`submit` / :meth:`run_session`),
which extrapolates the next boxes; a confident prediction travels with
the query's task as a *hint*, and the worker stages the predicted
window into its own prefetch area after answering: a pool thread
before its task returns (a thread's future resolves only then), a pool
process once its answer is sent and before it reads its next task —
off the query's blocking path, while the client turns the answer
around.  The session models stay at the front, where every query of a
session passes: here, and in :class:`~repro.query.cluster.ClusterRouter`
for a shard-server fleet.  Either way the worker's stores see the same
page sequence, so reads, prefetch hits and staged pages repeat
exactly.  A process
worker reports a staging (its I/O, pages staged and failure) with its
next answer; the last query of a :meth:`~QueryService.run_session`
batch stages before its task returns, so a session's report holds
every staging it started, and a stopped worker hands what it still
holds to :meth:`~QueryService.close`.
A session whose queries move between the threads or processes of a
multi-worker pool can therefore miss the window another worker staged.
Demand accounting stays meaningful either way: a staged page consumed
by a query counts as a ``prefetch_hit`` in its category (never a
physical read), so ``demand reads + prefetch hits`` equals the reads
of a prefetch-free run byte-for-byte, results are byte-identical, and
the prefetcher's own I/O is reported separately (see
:mod:`repro.query.prefetch`).

Works with any engine exposing ``range_query`` plus ``store`` and
``with_store`` (or ``shards``/``planner``/``with_views`` for the
sharded layout); page payloads of a published generation are immutable,
so concurrent reads need no locking anywhere in the storage layer.
Sharded indexes are served by the thread pool only, without prefetch:
a sharded session prefetches shard by shard through
:class:`~repro.query.cluster.ClusterRouter`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing.pool import ExceptionWithTraceback

import numpy as np

from repro.core.delta import DeltaIndex
from repro.query.prefetch import Prefetcher, SessionTracker
from repro.storage.pagestore import PageStoreError
from repro.storage.stats import IOStats

#: Execution modes of :class:`QueryService`.
MODE_THREAD = "thread"
MODE_PROCESS = "process"

_NEEDS_SNAPSHOT = (
    "process-mode merges need an index restored from a snapshot directory "
    "(worker processes restore merged generations from disk); "
    "snapshot_index() + restore_index() first"
)

#: Index generations one worker keeps cloned: tasks submitted just
#: before a merge may still arrive for an older generation, so a few
#: stay warm before the least recently used is dropped.
KEPT_GENERATIONS = 4


@dataclass
class ServiceReport:
    """Aggregated outcome of one query batch served concurrently."""

    index_name: str
    worker_count: int
    #: ``"thread"`` or ``"process"`` — how the batch was executed.
    execution_mode: str = MODE_THREAD
    #: Queries grouped per joint-crawl task (1 = one task per query).
    batch_queries: int = 1
    query_count: int = 0
    result_elements: int = 0
    wall_seconds: float = 0.0
    #: Per-query submit-to-done latency, in request order.  Queries
    #: grouped into one task share their task's latency.
    latencies_seconds: list = field(default_factory=list)
    #: Physical page reads summed over the batch's task deltas.
    reads_by_category: dict = field(default_factory=dict)
    #: Logical page decodes by decode kind, summed over the tasks.
    decodes_by_kind: dict = field(default_factory=dict)
    cache_hits: int = 0
    #: Workers (threads or processes) that ran at least one task.
    workers_used: int = 0
    #: Shards visited (sharded indexes; one per touched shard per
    #: query, from the planner's decision for the query).
    shard_tasks: int = 0
    #: Shard executions skipped by planner pruning, summed over queries.
    shards_pruned: int = 0
    per_query_results: list = field(default_factory=list)
    #: Session the batch belonged to (``run_session`` only).
    session_id: str | None = None
    #: Whether the serving service had trajectory prefetching on.
    prefetch_enabled: bool = False
    #: Demand reads absorbed by staged prefetched pages, per category.
    #: Separate from :attr:`reads_by_category` so the paper's exactness
    #: pins stay meaningful: ``reads + prefetch_hits`` per category
    #: equals the reads of a prefetch-disabled run.
    prefetch_hits_by_category: dict = field(default_factory=dict)
    #: Physical page reads the *prefetcher* performed, per category —
    #: reads moved earlier, never part of the demand totals.  Like
    #: :attr:`prefetch_staged`, counted with the answer that reports
    #: the staging: a pool thread's own answer; in process mode the
    #: worker's next answer (a ``run_session`` batch's last query
    #: reports its own), so a batch can include a staging an earlier
    #: ``submit`` started.
    prefetch_reads_by_category: dict = field(default_factory=dict)
    #: Pages staged into prefetch areas by the stagings this batch's
    #: answers report.
    prefetch_staged: int = 0
    #: Staged pages consumed by demand reads during this batch, counted
    #: with the answer whose reads consumed them.
    prefetch_consumed: int = 0

    @property
    def total_page_reads(self) -> int:
        return sum(self.reads_by_category.values())

    @property
    def total_prefetch_hits(self) -> int:
        """Demand reads absorbed by prefetched pages."""
        return sum(self.prefetch_hits_by_category.values())

    @property
    def total_prefetch_reads(self) -> int:
        """Physical reads the prefetcher performed on its own store."""
        return sum(self.prefetch_reads_by_category.values())

    @property
    def prefetch_wasted(self) -> int:
        """Pages staged during this batch but (so far) never consumed."""
        return max(0, self.prefetch_staged - self.prefetch_consumed)

    @property
    def prefetch_hit_rate(self) -> float:
        """Fraction of logical demand reads absorbed by prefetching."""
        logical = self.total_page_reads + self.total_prefetch_hits
        return self.total_prefetch_hits / logical if logical else 0.0

    @property
    def throughput_qps(self) -> float:
        """Served queries per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.query_count / self.wall_seconds

    def latency_percentiles(self) -> dict:
        """p50/p95/p99 of per-query latency, in seconds (empty if untracked)."""
        if not self.latencies_seconds:
            return {}
        p50, p95, p99 = np.percentile(self.latencies_seconds, [50, 95, 99])
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


@dataclass
class UpdateReport:
    """Outcome of one atomically committed update batch."""

    #: Version the commit published: commits so far, absorbed or
    #: merged.  The initial index is version 0, so the first commit
    #: reports 1.
    version: int
    #: Ids assigned to the batch's inserted elements.
    inserted_ids: np.ndarray
    #: Elements deleted by the batch.
    deleted_count: int
    #: Live elements after the commit.
    element_count: int
    #: Absorb or merge (rebuild + publish) + commit wall time.
    wall_seconds: float
    #: ``True`` when this commit restructured pages (a generation
    #: boundary); ``False`` when the batch was absorbed into the in-RAM
    #: delta layer.
    merged: bool = True
    #: Buffered delta size (memtable rows + tombstones) after the
    #: commit; 0 after every merge.
    delta_elements: int = 0

    @property
    def update_count(self) -> int:
        return len(self.inserted_ids) + self.deleted_count


def _is_sharded(index) -> bool:
    return hasattr(index, "shards") and hasattr(index, "with_views")


# -- the worker side -----------------------------------------------------
#
# A pool thread, a pool process and a shard server all serve the same
# way: the worker's own WorkerEngines answers the task on its clone of
# the task's generation, then stages the task's hint.  A pool process
# and a shard server are the same worker process.


class WorkerEngines:
    """One serving worker: its engine clones, one per index generation,
    and the task body every serving worker runs.

    :meth:`get` returns the worker's ``(engine, prefetcher)`` for a
    generation, building both on first use from the index ``load()``
    returns: the engine is a stat-isolated clone over store views, and
    with *prefetch* the clone's store consumes from the area of the
    generation's :class:`~repro.query.prefetch.Prefetcher` from its
    first query on.  A task that captured generation *g* therefore
    always runs on a clone of *g* — the snapshot-isolation guarantee —
    and only the :data:`KEPT_GENERATIONS` most recently used generations
    stay alive.  With *owns_indexes*, an evicted generation's own index
    store is closed as well (pool processes and shard servers restore
    theirs privately).

    :meth:`serve` answers a task and leaves its prefetch hint pending;
    :meth:`stage` stages it.  A pool thread stages before its task
    returns.  A pool process and a shard server stage once the answer
    is sent, before they read their next request
    (:func:`serve_requests`' after-reply step), so the client's next
    step overlaps the staging while the worker's stores see the same
    page sequence either way.  A staging's report waits in
    :meth:`unreported` until the worker's next answer takes it.
    """

    def __init__(self, prefetch: bool = False, owns_indexes: bool = False):
        self.prefetch = prefetch
        self._owns_indexes = owns_indexes
        #: generation -> (engine clone, Prefetcher or None, source index)
        self._entries: OrderedDict = OrderedDict()
        #: ``(prefetcher, hint)`` the last answer left to stage, or ``None``.
        self._pending = None
        #: Prefetch I/O, pages staged and failures no answer reported yet.
        self._unreported = {"io": IOStats(), "staged": 0, "failures": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, generation: int, load) -> tuple:
        entry = self._entries.get(generation)
        if entry is not None:
            self._entries.move_to_end(generation)
            return entry[:2]
        index = load()
        if _is_sharded(index):
            engine = index.with_views()
        else:
            engine = index.with_store(index.store.view())
        prefetcher = None
        if self.prefetch:
            prefetcher = Prefetcher(index)
            engine.store.prefetch_area = prefetcher.area
        self._entries[generation] = (engine, prefetcher, index)
        while len(self._entries) > KEPT_GENERATIONS:
            old = self._entries.popitem(last=False)[1][2]
            if self._owns_indexes:
                old.store.close()
        return engine, prefetcher

    def serve(self, generation: int, load, queries, cold: bool, hint=None,
              k: int | None = None, stage_now: bool = True) -> tuple:
        """Answer one task on the clone of *generation* (see :meth:`get`).

        *queries* is an ``(n, 6)`` group of range boxes — one joint
        :meth:`~repro.core.flat_index.FLATIndex.range_query_multi` crawl
        when ``n > 1`` — or, with *k*, one ``(1, 3)`` kNN point.  *cold*
        drops the clone's caches before each query (the paper's cold-cache
        regime).  *hint* is a predicted window for the generation's
        prefetcher: the answer leaves it pending for :meth:`stage`, which
        runs before this returns when *stage_now* is set.

        Returns ``(results, IOStats delta, prefetch info, seconds, shard
        counts)``: one answer per query — a sorted id array, or the kNN
        point's ``(ids, distances)`` top *k*; the demand I/O the clone's
        store counted; ``None`` without a prefetcher, else a dict of the
        staged pages this answer ``"consumed"`` and of the prefetcher's
        I/O (``"io"``), pages ``"staged"`` and ``"failures"`` in the
        stagings no earlier answer reported (:meth:`unreported`); the
        answer's wall seconds; and ``(shards visited, shards pruned)``
        from a sharded clone's ``last_plan`` (zeros for a monolithic
        engine).
        """
        engine, prefetcher = self.get(generation, load)
        store = engine.store
        if prefetcher is not None:
            consumed = prefetcher.area.counters()["consumed"]
        before = store.stats.snapshot()
        t0 = time.perf_counter()
        if len(queries) > 1:
            results = engine.range_query_multi(queries, cold=cold)
        else:
            if cold:
                store.clear_cache()
            if k is None:
                results = [engine.range_query(queries[0])]
            else:
                results = [engine.knn_query(queries[0], k, return_distances=True)]
        seconds = time.perf_counter() - t0
        delta = store.stats.diff(before)
        plan = getattr(engine, "last_plan", None)
        shards = (0, 0) if plan is None else (len(plan.shards_selected),
                                              plan.shards_pruned)
        info = None
        if prefetcher is not None:
            consumed = prefetcher.area.counters()["consumed"] - consumed
            if hint is not None:
                self._pending = (prefetcher, hint)
            if stage_now:
                self.stage()
            info = dict(self.unreported(), consumed=consumed)
        return results, delta, info, seconds, shards

    def stage(self) -> int:
        """Stage the window the last answer left pending, if any.

        A staging crawl that raises is swallowed — prediction must never
        fail a query — and counted.  Returns its failures (0 or 1); its
        prefetch I/O, pages staged and failures wait in
        :meth:`unreported`.
        """
        if self._pending is None:
            return 0
        (prefetcher, hint), self._pending = self._pending, None
        # Only a staging crawl reads through the prefetcher's store.
        io, staged = prefetcher.io_stats(), prefetcher.area.counters()["staged"]
        failed = 0
        try:
            prefetcher.prefetch(hint)
        except Exception:
            failed = 1
        report = self._unreported
        report["io"].merge(prefetcher.io_stats().diff(io))
        report["staged"] += prefetcher.area.counters()["staged"] - staged
        report["failures"] += failed
        return failed

    def unreported(self) -> dict:
        """Take the prefetch I/O (``"io"``), pages ``"staged"`` and
        ``"failures"`` of the stagings no answer has reported yet."""
        report = self._unreported
        self._unreported = {"io": IOStats(), "staged": 0, "failures": 0}
        return report


# A pool process and a shard server are one kind of worker process,
# started by _start_worker and joined to its client by a duplex Pipe.
# It runs one loop, serve_requests, over (fn, args, kwargs) tasks, the
# function pickled by reference.  A reply is (True, value) or (False,
# exception): the exception object itself, so the caller can raise its
# type, with the worker's traceback as its __cause__.  Once a reply is
# sent, the loop stages the window the answer left.  Generation 0
# arrives pickled with a pool worker's start; every other generation
# (and every generation a shard server serves) is restored lazily from
# the (directory, generation) spec its task carries.

#: Connection failures that mean the peer is gone.
CLOSED_ERRORS = (EOFError, OSError)

#: The worker process's :class:`WorkerEngines`, set by :func:`serve_requests`.
_WORKER: WorkerEngines | None = None

#: The caller's end of every worker's Pipe, in the process that started
#: the worker.  A forked worker inherits copies of them all, its own
#: front end included, and closes them before it serves, so a front
#: that dies, even by SIGKILL, leaves its workers an end-of-file.
_FRONT_ENDS: weakref.WeakSet = weakref.WeakSet()


def _send(conn, data) -> bool:
    """Send *data* on *conn*; ``False`` if the peer is gone."""
    try:
        conn.send_bytes(data)
    except CLOSED_ERRORS:
        return False
    return True


def read_reply(conn) -> tuple:
    """The next ``(ok, value)`` reply on *conn*.

    Raises one of :data:`CLOSED_ERRORS` once the peer is gone; a reply
    that does not unpickle comes back as ``(False, its error)``.
    """
    data = conn.recv_bytes()
    try:
        return pickle.loads(data)
    except Exception as exc:
        return False, exc


def serve_requests(conn, engines: WorkerEngines) -> bool:
    """The one worker loop: run every task on *conn* until it ends.

    A task ``(fn, args, kwargs)`` runs with *engines* as the process's
    generation cache (what :func:`_process_run_group` serves from) and
    is answered with ``(True, fn(*args, **kwargs))``, or with
    ``(False, exc)`` when unpickling or running it raised *exc* (the
    traceback arrives as ``exc.__cause__``); a value that does not
    pickle is answered with its pickling error.  Once each reply is
    sent, and before the next task is read, :meth:`WorkerEngines.stage`
    stages the window the answer left.  Returns ``True`` at a ``None``
    task — the stop request, which gets no reply — and ``False`` once
    the peer is gone.
    """
    global _WORKER
    _WORKER = engines
    while True:
        try:
            data = conn.recv_bytes()
        except CLOSED_ERRORS:
            return False
        try:
            task = pickle.loads(data)
            if task is None:
                return True
            fn, args, kwargs = task
            reply = (True, fn(*args, **kwargs))
        except Exception as exc:  # answered; the worker serves on
            reply = (False, ExceptionWithTraceback(exc, exc.__traceback__))
        try:
            data = pickle.dumps(reply)
        except Exception as exc:  # a value or error that does not pickle
            data = pickle.dumps((False, exc))
        if not _send(conn, data):
            return False
        engines.stage()


#: The request that stops a pool worker.
_STOP = pickle.dumps(None)

#: Why a task of a broken pool fails.
_BROKEN = "a worker process exited unasked; the pool is not usable anymore"


def _pool_worker(conn, payload: bytes | None, prefetch: bool) -> None:
    """A worker process: load generation 0 from *payload*, then run
    tasks from *conn* until they stop or the front's end closes.  A
    shard server's *payload* is ``None``: it restores every generation
    from the spec its tasks carry.  Stopped, it sends what no answer
    reported as one last ``(None, report)`` message."""
    for front in list(_FRONT_ENDS):  # inherited through a fork
        front.close()
    engines = WorkerEngines(prefetch, owns_indexes=True)
    if payload is not None:
        index = pickle.loads(payload)
        engines.get(0, lambda: index)
    if serve_requests(conn, engines):
        _send(conn, pickle.dumps((None, engines.unreported())))


def _start_worker(context, payload: bytes | None, prefetch: bool) -> tuple:
    """Start one worker process, a pool process or a shard server: a
    daemon *context* process running :func:`_pool_worker`, joined to the
    caller by a duplex Pipe whose child end is closed here and whose
    caller's end joins :data:`_FRONT_ENDS`.  Returns ``(process, the
    caller's end)``."""
    conn, child = context.Pipe()
    _FRONT_ENDS.add(conn)
    process = context.Process(target=_pool_worker, daemon=True,
                              args=(child, payload, prefetch))
    process.start()
    child.close()
    return process, conn


def _restore_generation(generation: int, spec):
    """Restore one committed generation in a worker process from its spec."""
    if spec is None:
        raise RuntimeError(
            f"worker process has no engine for generation {generation} and "
            "the task carried no snapshot spec to restore it from"
        )
    from repro.core.flat_index import FLATIndex

    return FLATIndex.restore(spec[0], generation=spec[1])


def _process_run_group(generation: int, spec, queries, cold: bool, hint=None,
                       k: int | None = None, stage_now: bool = False) -> tuple:
    """A worker process's task: :meth:`WorkerEngines.serve` on the
    process's clone of *generation*, restored from *spec* on
    first use.  The hint is staged after the reply is sent unless
    *stage_now* asks for it before.

    Returns ``(pid, *WorkerEngines.serve(...))``.
    """
    return (os.getpid(), *_WORKER.serve(
        generation, lambda: _restore_generation(generation, spec), queries,
        cold, hint, k, stage_now,
    ))


def _worker_status(generation: int, spec) -> tuple:
    """A status task: ``(pid, element count of generation, stagings no
    answer reported yet)``, restoring *generation* from *spec* if the
    worker does not hold it."""
    engine, _prefetcher = _WORKER.get(
        generation, lambda: _restore_generation(generation, spec)
    )
    return os.getpid(), int(engine.element_count), _WORKER.unreported()


class _ProcessPool:
    """*workers* processes, each joined to the service by one duplex Pipe.

    :meth:`submit` pickles a task in the calling thread (a task that
    does not pickle raises there) and sends it as soon as a worker is
    free; otherwise the task waits in one FIFO, so no task queues
    behind a slow one while another worker is idle.  One reader thread
    per worker takes each reply, hands that worker the next queued
    task, then resolves the task's future.  A worker that exits
    unasked breaks the pool: its task, every queued task and every
    later :meth:`submit` fail with ``BrokenProcessPool``.  A stopped
    worker's last message, the staging report no answer carried, is
    kept for :meth:`shutdown`.
    """

    def __init__(self, workers: int, context, payload: bytes, prefetch: bool):
        # Re-entrant: a garbage collection inside a locked section may
        # run the owning service's finalizer, which calls stop().
        self._lock = threading.RLock()
        #: ``(future, pickled task)`` pairs waiting for a free worker.
        self._queue: deque = deque()
        #: Connections of free workers.
        self._idle: list = []
        #: Connection -> the future of the task its worker runs.
        self._running: dict = {}
        self._closing = self._broken = False
        #: Staging reports stopped workers sent back.
        self._unreported: list = []
        #: ``(process, reader thread, connection)`` per worker.
        self._workers = []
        for _ in range(workers):
            process, conn = _start_worker(context, payload, prefetch)
            reader = threading.Thread(target=self._read, args=(conn,), daemon=True)
            self._workers.append((process, reader, conn))
            self._idle.append(conn)
        # Readers start once every worker is forked: no fork sees them.
        for _process, reader, _conn in self._workers:
            reader.start()

    def submit(self, fn, *args, **kwargs) -> Future:
        future = Future()
        data = pickle.dumps((fn, args, kwargs))
        with self._lock:
            if self._broken:
                raise BrokenProcessPool(_BROKEN)
            if self._closing:
                raise RuntimeError("cannot schedule new futures after shutdown")
            self._queue.append((future, data))
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            self._dispatch(conn)
        return future

    def _dispatch(self, conn) -> None:
        """Send the free worker on *conn* the next queued task; else idle
        it, or stop it once the pool closes."""
        with self._lock:
            while self._queue:
                future, data = self._queue.popleft()
                if future.set_running_or_notify_cancel():  # else cancelled
                    self._running[conn] = future
                    break
            else:  # nothing queued
                if not self._closing:
                    self._idle.append(conn)
                    return
                data = _STOP
        _send(conn, data)  # a dead worker's reader fails the task

    def _read(self, conn) -> None:
        """One worker's reader thread."""
        while True:
            try:
                ok, value = read_reply(conn)
            except CLOSED_ERRORS:
                break
            if ok is None:  # the stopped worker's last message
                self._unreported.append(value)
                continue
            future = self._running.pop(conn)
            # The worker's next task goes out before this one's
            # done-callbacks run.
            self._dispatch(conn)
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        with self._lock:
            lost = self._running.pop(conn, None)
            if lost is None and self._closing:
                return  # stopped as asked
            self._broken = True
            failed = [f for f, _data in self._queue
                      if f.set_running_or_notify_cancel()]
            self._queue.clear()
        for future in failed + ([] if lost is None else [lost]):
            future.set_exception(BrokenProcessPool(_BROKEN))

    def stop(self) -> None:
        """Have every worker stop once the tasks submitted so far are
        done; returns at once."""
        with self._lock:
            self._closing = True
            idle, self._idle = self._idle, []
        for conn in idle:
            _send(conn, _STOP)

    def shutdown(self) -> list:
        """:meth:`stop`, then wait for every worker and reader to end.

        Returns, once, the staging reports the stopped workers sent back
        (:meth:`WorkerEngines.unreported`).
        """
        self.stop()
        for process, reader, conn in self._workers:
            reader.join()
            process.join()
            conn.close()
        reports, self._unreported = self._unreported, []
        return reports


# -- the gather side -----------------------------------------------------


def _corrected(delta, queries, results, k: int | None = None) -> list:
    """One task's answers, corrected for the delta its queries captured.

    Range results are sorted id arrays, corrected by
    :meth:`~repro.core.delta.DeltaIndex.overlay`.  A kNN result is the
    committed base's ``(ids, distances)`` top ``k + tombstone_count``
    (the task asked for that many), cut to the top *k* by
    :meth:`~repro.core.delta.DeltaIndex.knn_overlay`.
    """
    if k is not None:
        ((ids, dists),) = results
        if delta is not None:
            ids, _dists = delta.knn_overlay(queries[0], k, ids, dists)
        return [ids]
    if delta is None:
        return results
    return [delta.overlay(ids, query) for ids, query in zip(results, queries)]


class _ProcessFuture:
    """The future :meth:`QueryService.submit` returns, in either mode.

    *absorb* runs once, as the task's done-callback, and folds its stat
    delta and worker into the service's lifetime accounting;
    ``result()`` returns the single query's id array, corrected for the
    *delta* the query captured, only after that, so a caller that reads
    the answer and then the service's totals sees the task in them.
    The name predates thread tasks returning the same tuple; the
    repository benchmark's tracer patches it.
    """

    def __init__(self, future, absorb, delta, queries):
        self._future = future
        self._delta = delta
        self._queries = queries
        # The callback must not reference this wrapper: the future keeps
        # its callbacks, and a cycle back to it would keep the service
        # alive until the next full garbage collection.
        absorbed = self._absorbed = threading.Event()

        def done(finished) -> None:
            try:
                absorb(finished)
            finally:
                absorbed.set()

        future.add_done_callback(done)

    def result(self, timeout=None):
        value = self._future.result(timeout)
        self._absorbed.wait()
        return _corrected(self._delta, self._queries, value[1])[0]

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        return self._future.cancel()


def _as_array(values, width: int, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != width:
        raise ValueError(f"expected (N, {width}) {what}, got {values.shape}")
    return values


class QueryService:
    """Serve queries from a thread or process pool over one shared index.

    Parameters
    ----------
    index:
        A built (or restored) index.  Monolithic engines expose
        ``range_query``, ``store`` and ``with_store`` (e.g.
        :class:`~repro.core.flat_index.FLATIndex`); sharded engines
        expose ``shards``, ``planner`` and ``with_views``
        (:class:`~repro.core.sharded.ShardedFLATIndex`).
    workers:
        Pool size; each worker serves from its own store view(s).
    clear_cache_per_query:
        ``True`` (default) reproduces the paper's cold-cache regime —
        each worker drops its buffer pool and decode memo before
        every query.  ``False`` serves warm: caches accumulate across
        queries within each worker.
    mode:
        ``"thread"`` (default) or ``"process"``.  Process workers
        start with the service, each joined to it by one duplex Pipe,
        and get the index pickled once at start; a read-only
        mmap-backed store reattaches by remapping its snapshot
        directory, so page bytes are shared through the OS page cache.
        Sharded indexes are thread-only.
    batch_queries:
        Queries grouped per pool task in :meth:`run`; groups larger
        than one are served by a single joint
        :meth:`~repro.core.flat_index.FLATIndex.range_query_multi`
        crawl (per-query cold accounting preserved).  Sharded indexes
        require the default of 1.
    mp_context:
        Optional :mod:`multiprocessing` context for the process pool
        (defaults to the platform default).
    delta_threshold:
        Buffered-work limit (memtable rows + tombstones) of the in-RAM
        delta layer.  ``0`` (default) disables the layer: every
        :meth:`apply_updates` merges — rebuilds the live set —
        immediately.  Positive values absorb update batches into the
        delta and merge only once the buffered size reaches the
        threshold — the LSM-style fast write path, and the one to use
        for small commits, since a merge costs time in proportion to
        the live set.
    prefetch:
        Enable trajectory prefetching: queries submitted with a
        ``session_id`` feed a per-session
        :class:`~repro.query.prefetch.TrajectoryModel`, and confident
        next-box predictions ride with the query's task; the worker
        stages them after answering.  Results and demand accounting
        are unchanged — hits move into
        :attr:`ServiceReport.prefetch_hits_by_category`.  Sharded
        indexes are served without prefetch; serve sharded sessions
        through :class:`~repro.query.cluster.ClusterRouter`.
    """

    def __init__(self, index, workers: int = 4, clear_cache_per_query: bool = True,
                 mode: str = MODE_THREAD, batch_queries: int = 1,
                 mp_context=None, delta_threshold: int = 0,
                 prefetch: bool = False):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if delta_threshold < 0:
            raise ValueError(
                f"delta_threshold must be >= 0, got {delta_threshold}"
            )
        if mode not in (MODE_THREAD, MODE_PROCESS):
            raise ValueError(
                f"mode must be {MODE_THREAD!r} or {MODE_PROCESS!r}, got {mode!r}"
            )
        if not isinstance(batch_queries, int) or batch_queries < 1:
            raise ValueError(
                f"batch_queries must be a positive int, got {batch_queries!r}"
            )
        if _is_sharded(index) and mode == MODE_PROCESS:
            raise ValueError(
                "sharded indexes are served by thread workers only; their "
                "shard set does not travel across processes"
            )
        if _is_sharded(index) and prefetch:
            raise ValueError(
                "sharded indexes are served without prefetch; a sharded "
                "session prefetches shard by shard through ClusterRouter"
            )
        if _is_sharded(index) and batch_queries > 1:
            raise ValueError(
                "batch_queries > 1 needs a monolithic index; sharded "
                "serving runs one task per query"
            )
        if batch_queries > 1 and not hasattr(index, "range_query_multi"):
            raise ValueError(
                f"batch_queries > 1 needs an engine with range_query_multi; "
                f"{type(index).__name__} has none"
            )
        #: The committed index workers serve; merges start here.
        self._base = index
        #: Buffered :class:`DeltaIndex`, or ``None`` — copy-on-write:
        #: commits copy it, mutate the copy and publish the copy.
        self._delta = None
        self.delta_threshold = int(delta_threshold)
        #: Commits so far, absorbed or merged.
        self._version = 0
        #: Merges so far: the generation of :attr:`_base`, under which
        #: every worker caches its clone of it.
        self._generation = 0
        #: ``(directory, generation)`` a worker process restores
        #: :attr:`_base` from: the last merge's publish, or ``None`` for
        #: generation 0, which every worker process starts with.
        self._spec = None
        #: Whether the service restored :attr:`_base` itself (after a
        #: process-mode merge) and so closes its store on :meth:`close`.
        self._owns_base = False
        self.worker_count = workers
        self.clear_cache_per_query = clear_cache_per_query
        self._mode = mode
        self._batch = batch_queries
        #: Session models live in the parent: hints are computed at
        #: dispatch and travel with the task.
        self._sessions = SessionTracker() if prefetch else None
        #: Thread mode: pool thread ident -> that thread's WorkerEngines.
        self._engines: dict = {}
        #: Lifetime totals of finished tasks: demand I/O, the workers
        #: that ran them, and swallowed staging failures.
        self._stats = IOStats()
        self._workers: set = set()
        self._prefetch_failures = 0
        self._stats_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        #: Serializes apply_updates callers and guards the swap of the
        #: served state (version, generation, base, spec, delta).
        self._commit_lock = threading.Lock()
        if mode == MODE_PROCESS:
            with_store = getattr(index, "with_store", None)
            clean = index if with_store is None else with_store(index.store.view())
            self._pool = _ProcessPool(
                workers, mp_context or multiprocessing.get_context(),
                pickle.dumps(clean), prefetch,
            )
            # The pool's reader threads keep it alive, so a service
            # dropped unclosed stops its workers here.
            weakref.finalize(self, self._pool.stop)
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="query-worker"
            )
        self._closed = False

    # -- dispatch -------------------------------------------------------

    def _current(self) -> tuple:
        """The ``(generation, base, spec, delta)`` a query runs against."""
        with self._commit_lock:
            return self._generation, self._base, self._spec, self._delta

    def _thread_task(self, generation: int, index, queries, hint, k) -> tuple:
        """A pool thread's task: :meth:`WorkerEngines.serve` on its clone
        of *generation*.  A thread's future resolves only when the task
        returns, so the hint is staged before that."""
        ident = threading.get_ident()
        engines = self._engines.get(ident)
        if engines is None:
            engines = self._engines[ident] = WorkerEngines(self.prefetch_enabled)
        return (ident, *engines.serve(generation, lambda: index, queries,
                                      self.clear_cache_per_query, hint, k))

    def _task(self, current: tuple, queries, hint=None, k=None,
              stage_now: bool = False):
        """Submit one task against a captured ``(generation, base, spec,
        delta)``; a kNN task asks the base for ``k + tombstone_count``.
        A process task stages its hint after its reply unless
        *stage_now*."""
        generation, index, spec, delta = current
        if k is not None and delta is not None:
            k += delta.tombstone_count
        if self._mode == MODE_PROCESS:
            return self._pool.submit(
                _process_run_group, generation, spec, queries,
                self.clear_cache_per_query, hint, k, stage_now,
            )
        return self._pool.submit(self._thread_task, generation, index, queries,
                                 hint, k)

    def _hint(self, session_id, query):
        """The window to stage after *query*, or ``None``."""
        if self._sessions is None or session_id is None:
            return None
        return self._sessions.hint(session_id, query)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "QueryService is closed; create a new service to submit queries"
            )

    # -- prefetching ----------------------------------------------------

    @property
    def prefetch_enabled(self) -> bool:
        """Whether trajectory prefetching is on for this service."""
        return self._sessions is not None

    @property
    def prefetch_failures(self) -> int:
        """Staging crawls that raised (and were swallowed), in either mode.

        Counted once the answer reporting the staging is in: a pool
        thread's own answer; in process mode the worker's next answer,
        except that a ``run_session`` batch's last query reports its
        own and :meth:`close` adds what stopped workers still held.
        """
        return self._prefetch_failures

    # -- serving --------------------------------------------------------

    def submit(self, query, session_id: str | None = None):
        """Enqueue one range query; returns a future of its sorted ids.

        With prefetching enabled, a *session_id* scopes the query to
        one analysis session: the box feeds that session's trajectory
        model, and a confident prediction rides with the task, which
        stages it after answering — for the session's *next* query.  A
        process worker stages once this answer is sent and reports the
        staging with its next answer (or to :meth:`close`).
        """
        self._check_open()
        query = np.asarray(query, dtype=np.float64)
        current = self._current()
        future = self._task(current, query[None, :], self._hint(session_id, query))
        return _ProcessFuture(future, self._absorb_future, current[3],
                              query[None, :])

    def run(self, queries, index_name: str = "") -> ServiceReport:
        """Serve a whole batch; results aggregate into the report.

        Queries are dispatched to the pool all at once, one task per
        ``batch_queries``-sized group, against the generation current
        when the batch starts, and collected in request order; the
        report's counters are the task deltas merged in submission
        order.
        """
        self._check_open()
        queries = _as_array(queries, 6, "query boxes")
        current = self._current()
        report = self._report(current[1], index_name, batch_queries=self._batch)
        groups = [queries[first:first + self._batch]
                  for first in range(0, len(queries), self._batch)]
        self._run_batch(current, report, groups)
        return report

    def run_session(self, queries, session_id: str,
                    index_name: str = "") -> ServiceReport:
        """Serve one session's query sequence, strictly in order.

        A session is one analysis client following a structure, so its
        queries execute sequentially (each result returns before the
        next box is submitted) — that is exactly the access pattern the
        trajectory model learns from.  Each query captures the current
        generation and is one task; with prefetching enabled, the
        prediction made when query *i* is submitted is staged by the
        worker right after it answers *i*, ready for query *i+1* — a
        process worker once answer *i* is sent, while this thread
        prepares *i+1*.  The last query's window is staged before its
        task returns, so the report and :attr:`prefetch_failures` hold
        every staging the session started.  Works with prefetching off
        too, as a sequential-latency baseline.

        The report separates the session's demand I/O from prefetch
        I/O: ``reads_by_category`` + ``prefetch_hits_by_category`` per
        category equals the demand reads of a prefetch-free run, and
        ``prefetch_reads_by_category`` / ``prefetch_staged`` /
        ``prefetch_consumed`` describe the prefetcher's own work.
        """
        self._check_open()
        queries = _as_array(queries, 6, "query boxes")
        report = self._report(self._base, index_name, session_id=session_id,
                              prefetch_enabled=self.prefetch_enabled)
        outcomes = []
        deltas = []
        t0 = time.perf_counter()
        for i, query in enumerate(queries):
            current = self._current()
            hint = self._hint(session_id, query)
            t_submit = time.perf_counter()
            # The last query stages before its task returns, so the
            # report holds every staging the session started.
            task = self._task(current, query[None, :], hint,
                              stage_now=i == len(queries) - 1)
            outcomes.append(task.result())
            report.latencies_seconds.append(time.perf_counter() - t_submit)
            deltas.append(current[3])
        report.wall_seconds = time.perf_counter() - t0
        self._merge(report, outcomes, deltas, queries[:, None, :])
        return report

    def run_knn(self, points, k: int, index_name: str = "") -> ServiceReport:
        """Serve a kNN batch: one pool task per query point.

        Sharded clones prune and order shards internally per point, so
        the dispatch here stays at query granularity.
        """
        self._check_open()
        points = _as_array(points, 3, "points")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        current = self._current()
        report = self._report(current[1], index_name)
        self._run_batch(current, report, [p[None, :] for p in points], k)
        return report

    def _report(self, index, index_name: str, **fields) -> ServiceReport:
        return ServiceReport(
            index_name=index_name or type(index).__name__,
            worker_count=self.worker_count,
            execution_mode=self._mode,
            **fields,
        )

    def _run_batch(self, current: tuple, report: ServiceReport, groups,
                   k=None) -> None:
        """Submit every group at once; merge the outcomes in order."""
        report.latencies_seconds = [0.0] * sum(len(group) for group in groups)

        def stamp(first: int, count: int):
            """Done-callback writing a task's submit-to-done latency
            into its member queries' slots (disjoint slots, no lock)."""
            t_submit = time.perf_counter()

            def done(_future) -> None:
                elapsed = time.perf_counter() - t_submit
                report.latencies_seconds[first:first + count] = [elapsed] * count

            return done

        futures = []
        first = 0
        t0 = time.perf_counter()
        for group in groups:
            future = self._task(current, group, k=k)
            future.add_done_callback(stamp(first, len(group)))
            futures.append(future)
            first += len(group)
        outcomes = [future.result() for future in futures]
        report.wall_seconds = time.perf_counter() - t0
        self._merge(report, outcomes, [current[3]] * len(groups), groups, k)

    def _merge(self, report: ServiceReport, outcomes: list, deltas: list,
               groups: list, k=None) -> None:
        """Fold task outcomes, in submission order, into *report* and
        the lifetime totals.

        Each task's answers are corrected for the delta its queries
        captured (``deltas[i]`` for the queries ``groups[i]``).
        """
        results = []
        demand = IOStats()
        prefetch_io = IOStats()
        workers: set = set()
        failures = 0
        for outcome, delta, group in zip(outcomes, deltas, groups):
            worker, task_results, io, prefetch, _seconds, shards = outcome
            results.extend(_corrected(delta, group, task_results, k))
            demand.merge(io)
            workers.add(worker)
            report.shard_tasks += shards[0]
            report.shards_pruned += shards[1]
            if prefetch is not None:
                prefetch_io.merge(prefetch["io"])
                report.prefetch_staged += prefetch["staged"]
                report.prefetch_consumed += prefetch["consumed"]
                failures += prefetch["failures"]
        self._absorb(demand, workers, failures)
        report.query_count = len(results)
        report.per_query_results = [len(hits) for hits in results]
        report.result_elements = sum(report.per_query_results)
        report.workers_used = len(workers)
        # Sorted keys: reports of identical batches compare equal (and
        # serialize identically) regardless of worker scheduling.
        report.reads_by_category = dict(sorted(demand.reads.items()))
        report.decodes_by_kind = dict(sorted(demand.decode_misses.items()))
        report.cache_hits = demand.cache_hits
        report.prefetch_hits_by_category = dict(sorted(demand.prefetch_hits.items()))
        report.prefetch_reads_by_category = dict(sorted(prefetch_io.reads.items()))

    # -- updates --------------------------------------------------------

    def apply_updates(self, inserts=None, delete_ids=None,
                      force_merge: bool = False) -> UpdateReport:
        """Atomically apply an insert+delete batch with snapshot isolation.

        Every commit is a full service version with copy-on-write
        discipline, in one of two shapes:

        * **Absorbed** (``delta_threshold > 0`` and the buffered work
          stays under it): the batch lands in a *copy* of the current
          :class:`~repro.core.delta.DeltaIndex` and the commit swaps in
          the new delta over the unchanged base index — no page is
          touched, which is what makes sustained ingest cheap.
        * **Merged** (threshold crossed, ``force_merge=True``, or
          ``delta_threshold == 0``):
          the accumulated delta plus this batch drains into
          :meth:`~repro.core.flat_index.FLATIndex.merged`, which
          bulkloads the live set afresh — every element id kept, only
          the touched shards of a sharded index — on a store of its
          own: a generation boundary that leaves the index a fresh
          bulkload would build, so read cost does not drift with
          turnover.  A merge costs time in proportion to the live set,
          not to the batch, so small commits belong in the delta layer.

        Either way, queries in flight keep reading the exact version
        (pages *and* delta) they captured at submit time; queries
        submitted after the swap see all of the batch — never a torn
        mix.  Updates are expected to flow through a single updater: a
        second ``apply_updates`` racing a commit is detected and
        rejected with ``RuntimeError`` (its batch is discarded, never
        silently merged or dropped); in process mode it can surface
        first as a :class:`~repro.storage.pagestore.PageStoreError`
        from the superseded generation (its store closed, or the
        directory advanced past it).

        In process mode a merge additionally *publishes* the rebuild as
        the next on-disk snapshot generation before the swap, so worker
        processes can restore it, and the service reopens that
        generation as its base (the rebuilt pages do not stay in RAM);
        this requires the served index to live on a restored snapshot
        directory (an mmap-backed store).  An absorbed commit publishes
        and ships nothing: workers keep serving the unchanged base
        generation, warm, and the service corrects their answers with
        the new delta.  A commit rejected
        by the concurrent-commit check may leave its already-published
        generation orphaned on disk — harmless, since workers only ever
        restore generations a task names explicitly.
        """
        self._check_open()
        if not hasattr(self._base, "merged"):
            raise RuntimeError(
                f"{type(self._base).__name__} does not support updates "
                "(no merged()); serve a FLAT or sharded FLAT index"
            )
        with self._commit_lock:
            base = self._base
            delta = self._delta
        t0 = time.perf_counter()
        # Absorb the batch into a copy of the delta first, whatever the
        # commit shape: validation (duplicate/unknown delete ids) is
        # atomic against RAM state, id assignment continues the base
        # watermark exactly as a direct apply_batch would, and the
        # merge path below simply drains the copy.
        new_delta = (
            DeltaIndex(next_id=base.next_element_id)
            if delta is None
            else delta.copy()
        )
        inserted = np.empty(0, dtype=np.int64)
        if inserts is not None and len(inserts):
            inserted = new_delta.insert(inserts)
        deleted = 0
        if delete_ids is not None and len(delete_ids):
            new_delta.delete(delete_ids, base.contains_elements)
            deleted = len(delete_ids)
        merge = (
            force_merge
            or self.delta_threshold <= 0
            or new_delta.size >= self.delta_threshold
        )
        spec = None
        if merge:
            merged = base.merged(*new_delta.drain())
            if self._mode == MODE_PROCESS:
                from repro.core.snapshot import (
                    publish_fork_generation,
                    restore_index,
                )
                from repro.storage.pagestore import SnapshotError

                try:
                    directory, published = publish_fork_generation(merged)
                except SnapshotError:
                    # A base another publisher superseded surfaces as
                    # is — not a setup error.
                    raise
                except PageStoreError as exc:
                    raise RuntimeError(_NEEDS_SNAPSHOT) from exc
                spec = (str(directory), int(published))
                # Serve the next merge from the published generation, so
                # the service holds none of the rebuilt pages in RAM.
                merged = restore_index(directory, generation=published)
            element_count = merged.element_count
        else:
            element_count = base.element_count + new_delta.element_delta
        stale = None
        with self._commit_lock:
            if self._base is not base or self._delta is not delta:
                # A concurrent commit slipped in between capture and
                # swap; its updates would be silently dropped by
                # publishing this state.  Serialize apply_updates
                # callers instead.
                raise RuntimeError(
                    "concurrent apply_updates detected; serialize update "
                    "batches through a single updater"
                )
            self._version += 1
            version = self._version
            if merge:
                if self._owns_base:
                    stale = self._base
                self._base = merged
                self._owns_base = spec is not None
                self._delta = None
                self._generation += 1
                self._spec = spec
            else:
                self._delta = new_delta
        if stale is not None:
            # Only an updater reads the base in process mode.
            stale.store.close()
        return UpdateReport(
            version=version,
            inserted_ids=inserted,
            deleted_count=deleted,
            element_count=element_count,
            wall_seconds=time.perf_counter() - t0,
            merged=merge,
            delta_elements=0 if merge else new_delta.size,
        )

    def flush_delta(self) -> UpdateReport | None:
        """Merge any buffered delta into pages now — a forced generation
        boundary.  Returns the commit's report, or ``None`` when
        nothing was buffered."""
        with self._commit_lock:
            delta = self._delta
        if delta is None or delta.is_empty:
            return None
        return self.apply_updates(force_merge=True)

    @property
    def delta_size(self) -> int:
        """Buffered delta work (memtable rows + tombstones); 0 when none."""
        with self._commit_lock:
            return 0 if self._delta is None else self._delta.size

    # -- accounting -----------------------------------------------------

    def _absorb(self, demand: IOStats, workers: set, failures: int) -> None:
        """Fold finished tasks into the lifetime counters."""
        with self._stats_lock:
            self._stats.merge(demand)
            self._workers.update(workers)
            self._prefetch_failures += failures

    def _absorb_future(self, future) -> None:
        """Done-callback of a :meth:`submit` task."""
        if future.cancelled() or future.exception() is not None:
            return
        worker, _results, delta, prefetch, _seconds, _shards = future.result()
        self._absorb(delta, {worker}, prefetch["failures"] if prefetch else 0)

    # -- introspection --------------------------------------------------

    def aggregate_stats(self) -> IOStats:
        """Lifetime demand I/O counters merged over every finished task."""
        total = IOStats()
        with self._stats_lock:
            total.merge(self._stats)
        return total

    @property
    def current_version(self) -> int:
        """Commits so far, absorbed or merged (0 initially)."""
        with self._commit_lock:
            return self._version

    @property
    def execution_mode(self) -> str:
        """``"thread"`` or ``"process"``."""
        return self._mode

    @property
    def batch_queries(self) -> int:
        """Queries grouped per joint-crawl pool task in :meth:`run`."""
        return self._batch

    @property
    def workers_started(self) -> int:
        """Workers that have finished at least one task ever.

        Counts distinct threads (thread mode) or worker pids (process
        mode), not engine clones — a worker that cloned several update
        generations still counts once.
        """
        with self._stats_lock:
            return len(self._workers)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down.

        Idempotent and safe to call from several threads: *every*
        caller returns only once all in-flight queries finished and
        every pool thread or worker process has stopped (a second
        caller waits for the first).  ``submit``/``run`` after close
        raise :class:`RuntimeError` instead of queueing onto a dead
        pool.
        """
        with self._lifecycle_lock:
            self._closed = True
            # Stopped process workers hand back the stagings no answer
            # reported; pool threads stage before their tasks return.
            for report in self._pool.shutdown() or ():
                self._absorb(IOStats(), set(), report["failures"])
            with self._commit_lock:
                if self._owns_base:
                    self._base.store.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

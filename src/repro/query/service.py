"""Concurrent query serving over per-worker store views, shard-aware.

The build/measure harness (:func:`repro.query.executor.run_queries`)
is deliberately single-threaded — the paper's figures are per-query
page-read counts.  Serving is the other regime: one index, many
concurrent readers, throughput as the metric.  ``QueryService``
bridges the two without giving up the accounting:

* every worker thread lazily gets its **own** engine clone
  (:meth:`FLATIndex.with_store <repro.core.flat_index.FLATIndex.with_store>`
  for a monolithic index, :meth:`ShardedFLATIndex.with_views
  <repro.core.sharded.ShardedFLATIndex.with_views>` for a sharded one)
  over stat-isolated :meth:`~repro.storage.pagestore.PageStore.view`
  stores, so buffer pools, decoded-page caches, per-query crawl scratch
  and :class:`~repro.storage.stats.IOStats` are all thread-private
  while the page bytes (e.g. one read-only ``mmap``) are shared;
* for a **sharded** index, :meth:`QueryService.run` executes
  scatter–gather: the planner prunes shards per query, one pool task is
  submitted per *touched* shard (so one slow shard never serializes the
  others), and the per-shard sorted ids merge in request order —
  :attr:`ServiceReport.shard_tasks` / :attr:`ServiceReport.shards_pruned`
  record the scatter;
* per-worker counters aggregate into one :class:`ServiceReport`; in the
  cold-cache regime the totals reproduce the single-threaded harness
  exactly, shard pruning included.

**Execution modes.**  Thread workers share the interpreter, so a
CPU-bound crawl serializes on the GIL no matter the pool size.
``mode="process"`` runs the same serving protocol across *processes*:
the index is pickled once into each worker (a read-only mmap-backed
store pickles as its ``(directory, generation)`` spec and reattaches by
remapping — page bytes never cross the pipe, and every process shares
the same OS page cache), each task returns its result ids plus the
worker store's :class:`~repro.storage.stats.IOStats` *delta*, and the
parent merges deltas in submission order — deterministic totals
regardless of worker completion order, same
:class:`~repro.storage.pagestore.PageStoreGroup`-style counter
arithmetic as the thread path.  ``batch_queries`` additionally groups
in-flight queries into one :meth:`FLATIndex.range_query_multi
<repro.core.flat_index.FLATIndex.range_query_multi>` joint crawl per
task, amortizing per-page decode work across every query in the group
while the cold-cache accounting stays per-query byte-exact.

**Queries under updates.**  :meth:`QueryService.apply_updates` mutates
the served index with snapshot isolation: the update batch is applied
to a copy-on-write *fork* (:meth:`FLATIndex.fork
<repro.core.flat_index.FLATIndex.fork>`) of the current generation, so
in-flight queries keep crawling the untouched old generation; the
commit then atomically swaps the service's current index, and worker
threads pick up clones of the new generation on their next query.
Every query executes entirely against the single generation captured
when it was submitted — a result is never a torn mix of pre- and
post-update state.  In process mode the commit additionally *publishes*
the fork as the next on-disk snapshot generation
(:func:`~repro.core.snapshot.publish_fork_generation`); tasks carry the
``(directory, generation)`` spec of the version they captured, and a
worker process lazily restores that exact generation the first time a
post-commit task reaches it — the same isolation guarantee, across
address spaces.

**The delta layer.**  Restructuring pages on every commit caps ingest
at a few thousand elements per second.  With ``delta_threshold > 0``
the service instead runs an LSM-style write path: small batches are
*absorbed* into an in-RAM :class:`~repro.core.delta.DeltaIndex`
(memtable + tombstones) attached to the committed base index, and only
once the buffered delta crosses the threshold (or
``merge_interval_seconds`` elapses, or :meth:`flush_delta` forces it)
is the whole delta *merged* into pages through one bulk
:meth:`~repro.core.flat_index.FLATIndex.apply_batch` on a fork — a
generation boundary.  Both kinds of commit are full service versions
with the same copy-on-write discipline (the delta is copied, the copy
absorbs the batch, the copy is published), so snapshot isolation is
unchanged; queries against a delta-carrying version answer from the
committed pages and correct the result in RAM, leaving the paper's
page-read accounting byte-exact.  In process mode an absorbed commit
ships ``(directory, generation, pickled delta)`` — workers restore the
unchanged base generation and attach the delta.

**Trajectory prefetching.**  Spatial analysis sessions issue box after
box along latent structures, so consecutive queries are strongly
correlated (SCOUT, PVLDB 2012).  With ``prefetch=True`` the service
tracks each session's recent boxes in a per-session
:class:`~repro.query.prefetch.TrajectoryModel` (queries name their
session via ``session_id`` on :meth:`submit` / :meth:`run_session`),
extrapolates the next box, and warms the worker stores *before* that
query arrives: in thread mode a dedicated background thread crawls the
predicted box on a never-cleared staging clone and stages every touched
page into a shared :class:`~repro.query.prefetch.PrefetchArea`; in
process mode the prediction piggybacks on the query dispatch as a
*warm hint* the worker processes after answering, staging into its
process-local area.  The foreground query is never blocked or
reordered — prefetching is strictly off the critical path.  Demand
accounting stays meaningful: a staged page consumed by a query counts
as a ``prefetch_hit`` in its category (never a physical read), so
``demand reads + prefetch hits`` equals the reads of a prefetch-free
run byte-for-byte, results are byte-identical, and the prefetcher's
own I/O is reported separately (see :mod:`repro.query.prefetch`).

Works with any engine exposing ``range_query`` plus ``store`` and
``with_store`` (or ``shards``/``planner``/``with_views`` for the
sharded layout); page payloads of a published generation are immutable,
so concurrent reads need no locking anywhere in the storage layer.
Sharded indexes are served by the thread pool only (their scatter state
does not travel across processes).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.delta import DeltaIndex
from repro.query.planner import QueryPlanner
from repro.query.prefetch import PrefetchConfig, Prefetcher, TrajectoryModel
from repro.storage.pagestore import PageStoreError
from repro.storage.stats import IOStats

#: Execution modes of :class:`QueryService`.
MODE_THREAD = "thread"
MODE_PROCESS = "process"


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
    #: Physical page reads summed over every worker's stat view.
    reads_by_category: dict = field(default_factory=dict)
    #: Full page decodes by decode kind, summed over workers.
    decodes_by_kind: dict = field(default_factory=dict)
    cache_hits: int = 0
    #: Worker threads that actually served at least one query.
    workers_used: int = 0
    #: Shard executions dispatched (sharded indexes; one per touched
    #: shard per query — individual pool tasks for range batches,
    #: in-task MINDIST-walk visits for kNN batches).
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
    #: reads moved earlier, never part of the demand totals.
    prefetch_reads_by_category: dict = field(default_factory=dict)
    #: Pages staged into prefetch areas during this batch.
    prefetch_staged: int = 0
    #: Staged pages consumed by demand reads during this batch.
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

    #: Generation number the commit published.  The initial index is
    #: generation 0, so the first commit reports 1.
    version: int
    #: Ids assigned to the batch's inserted elements.
    inserted_ids: np.ndarray
    #: Elements deleted by the batch.
    deleted_count: int
    #: Live elements after the commit.
    element_count: int
    #: Fork + mutate + commit wall time.
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


# -- process-mode worker side -------------------------------------------
#
# Everything a ProcessPoolExecutor worker runs lives at module level so
# it pickles by reference.  Each worker process keeps a small cache of
# engines keyed by generation: generation 0 arrives pickled through the
# pool initializer; later generations are restored lazily from the
# (directory, generation) spec a post-commit task carries.  Every task
# returns (pid, results, stats delta, wall seconds): the parent never
# shares mutable state with workers, so stat aggregation is pure
# counter arithmetic on the returned deltas.

#: Engine generations alive in this worker process (version -> engine).
_PROCESS_ENGINES: OrderedDict | None = None

#: Per-generation trajectory prefetchers of this worker process
#: (version -> Prefetcher), populated only when the service enabled
#: prefetching; each generation's engine store consumes from its own
#: prefetcher's process-local area.
_PROCESS_PREFETCHERS: dict | None = None

#: Prefetch knobs shipped through the pool initializer (None = off).
_PROCESS_PREFETCH_CONFIG: PrefetchConfig | None = None

#: Generations a worker keeps warm before closing the oldest (matches
#: the thread pool's per-thread clone retention).
_PROCESS_KEPT_VERSIONS = 4


def _process_worker_init(payload: bytes, prefetch_config=None) -> None:
    global _PROCESS_ENGINES, _PROCESS_PREFETCHERS, _PROCESS_PREFETCH_CONFIG
    _PROCESS_ENGINES = OrderedDict([(0, pickle.loads(payload))])
    _PROCESS_PREFETCH_CONFIG = prefetch_config
    _PROCESS_PREFETCHERS = {}


def _process_prefetcher(version: int):
    """This process's prefetcher for one generation (None when off)."""
    if _PROCESS_PREFETCH_CONFIG is None:
        return None
    prefetcher = _PROCESS_PREFETCHERS.get(version)
    if prefetcher is None:
        engine = _PROCESS_ENGINES[version]
        prefetcher = Prefetcher(engine, _PROCESS_PREFETCH_CONFIG)
        prefetcher.attach_store(engine.store)
        _PROCESS_PREFETCHERS[version] = prefetcher
        for stale in [v for v in _PROCESS_PREFETCHERS if v not in _PROCESS_ENGINES]:
            del _PROCESS_PREFETCHERS[stale]
    return prefetcher


def _process_prefetch_delta(prefetcher, io_before, counters_before) -> dict:
    """Prefetch accounting accrued since the given snapshots.

    Snapshots are taken at task start, so the delta covers both the
    demand phase (where staged pages are *consumed*) and the hint crawl
    (where pages are *staged*); a worker process runs its tasks
    serially, so per-task intervals tile its timeline exactly.
    """
    io_delta = prefetcher.io_stats().diff(io_before)
    counters = prefetcher.counters()
    return {
        "reads": io_delta.reads,
        "staged": counters["staged"] - counters_before["staged"],
        "consumed": counters["consumed"] - counters_before["consumed"],
    }


def _process_engine(version: int, spec):
    """This process's engine for one generation, restoring on miss."""
    engines = _PROCESS_ENGINES
    engine = engines.get(version)
    if engine is not None:
        engines.move_to_end(version)
        return engine
    if spec is None:
        raise RuntimeError(
            f"worker process has no engine for generation {version} and "
            "the task carried no snapshot spec to restore it from"
        )
    from repro.core.flat_index import FLATIndex

    directory, generation = spec[0], spec[1]
    engine = FLATIndex.restore(directory, generation=generation)
    if len(spec) > 2 and spec[2] is not None:
        # An absorbed commit: the base generation on disk is unchanged
        # and the version's delta travels pickled with the spec.
        engine = engine.with_delta(pickle.loads(spec[2]))
    engines[version] = engine
    while len(engines) > _PROCESS_KEPT_VERSIONS:
        _stale, old = engines.popitem(last=False)
        close = getattr(old.store, "close", None)
        if close is not None:
            close()
    return engine


def _process_run_group(version: int, spec, queries, cold: bool,
                       batched: bool, hint=None) -> tuple:
    """Serve one query group in a worker process.

    Returns ``(pid, per-query id arrays, IOStats delta, prefetch info,
    exec seconds)``; the prefetch info counts a failed hint crawl under
    ``"failures"``.  *hint* is an optional predicted next box: the
    worker warms its process-local prefetch area with it *after*
    answering the demand queries (the warm hint piggybacks on the
    dispatch — prefetching never blocks the foreground query).
    """
    engine = _process_engine(version, spec)
    # Created before the demand work: the demand store must consult
    # this generation's area from the very first task.
    prefetcher = _process_prefetcher(version)
    pf_io = pf_counters = None
    if prefetcher is not None:
        pf_io = prefetcher.io_stats()
        pf_counters = prefetcher.counters()
    store = engine.store
    before = store.stats.snapshot()
    t0 = time.perf_counter()
    if batched and len(queries) > 1:
        results = engine.range_query_multi(queries, cold=cold)
    else:
        results = []
        for query in queries:
            if cold:
                store.clear_cache()
            results.append(engine.range_query(query))
    elapsed = time.perf_counter() - t0
    demand_delta = store.stats.diff(before)
    prefetch_info = None
    if prefetcher is not None:
        failures = 0
        if hint is not None:
            try:
                prefetcher.prefetch(hint)
            except Exception:
                # Advisory: a failed hint crawl must not fail the task,
                # but the parent counts it.
                failures = 1
        prefetch_info = _process_prefetch_delta(prefetcher, pf_io, pf_counters)
        prefetch_info["failures"] = failures
    return os.getpid(), results, demand_delta, prefetch_info, elapsed


def _process_run_knn(version: int, spec, point, k: int, cold: bool) -> tuple:
    """Serve one kNN query in a worker process."""
    engine = _process_engine(version, spec)
    store = engine.store
    before = store.stats.snapshot()
    t0 = time.perf_counter()
    if cold:
        store.clear_cache()
    hits = engine.knn_query(point, k)
    elapsed = time.perf_counter() - t0
    return os.getpid(), [hits], store.stats.diff(before), None, elapsed


class _ProcessFuture:
    """Unwraps a worker-task future for :meth:`QueryService.submit`.

    ``result()`` returns the single query's id array; the task's stat
    delta and worker pid were already absorbed into the service's
    lifetime accounting by a done-callback (exactly once per task).
    """

    def __init__(self, future):
        self._future = future

    def result(self, timeout=None):
        _pid, results, _delta, _prefetch, _elapsed = self._future.result(timeout)
        return results[0]

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        return self._future.cancel()


class GatherFuture:
    """Joins the per-shard futures of one scattered query.

    Quacks enough like :class:`concurrent.futures.Future` for callers
    of :meth:`QueryService.submit`: ``result()`` blocks until every
    shard task finished and returns the merged sorted ids.
    """

    def __init__(self, futures, merge):
        self._futures = futures
        self._merge = merge

    def result(self, timeout=None):
        # One overall deadline across all shard futures, so the Future
        # timeout contract holds regardless of the shard count.
        deadline = None if timeout is None else time.monotonic() + timeout
        parts = []
        for future in self._futures:
            remaining = None if deadline is None else deadline - time.monotonic()
            parts.append(future.result(remaining))
        return self._merge(parts)

    def done(self) -> bool:
        return all(future.done() for future in self._futures)

    def cancel(self) -> bool:
        return all([future.cancel() for future in self._futures])


class QueryService:
    """Serve queries from a thread or process pool over one shared index.

    Parameters
    ----------
    index:
        A built (or restored) index.  Monolithic engines expose
        ``range_query``, ``store`` and ``with_store`` (e.g.
        :class:`~repro.core.flat_index.FLATIndex`); sharded engines
        expose ``shards``, ``planner`` and ``with_views``
        (:class:`~repro.core.sharded.ShardedFLATIndex`) and are served
        scatter–gather.
    workers:
        Thread-pool size; each thread serves from its own store view(s).
    clear_cache_per_query:
        ``True`` (default) reproduces the paper's cold-cache regime —
        each worker drops the relevant buffer and decoded-page cache
        before every query (per touched shard, for sharded indexes).
        ``False`` serves warm: caches accumulate across queries within
        each worker.
    mode:
        ``"thread"`` (default) or ``"process"``.  Process workers get
        the index pickled once via the pool initializer; a read-only
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
        :meth:`apply_updates` merges into pages immediately, the
        pre-delta behaviour.  Positive values absorb update batches
        into the delta and merge only once the buffered size reaches
        the threshold — the LSM-style fast write path.
    merge_interval_seconds:
        Optional staleness bound: a commit also merges when this much
        wall time passed since the last generation boundary, however
        small the delta.
    prefetch:
        Enable trajectory prefetching: queries submitted with a
        ``session_id`` feed a per-session
        :class:`~repro.query.prefetch.TrajectoryModel`, and confident
        next-box predictions warm the worker stores off the critical
        path (background thread in thread mode, post-answer warm hint
        in process mode).  Results and demand accounting are unchanged
        — hits move into :attr:`ServiceReport.prefetch_hits_by_category`.
    prefetch_config:
        Optional :class:`~repro.query.prefetch.PrefetchConfig`
        overriding the model/staging knobs (requires ``prefetch=True``).
    """

    #: Per-thread engine clones kept for superseded generations: tasks
    #: submitted just before a commit may still arrive for an older
    #: version, so a few stay warm before being dropped.
    _KEPT_VERSIONS = 4

    #: Per-session trajectory models remembered before LRU eviction.
    _KEPT_SESSIONS = 1024

    def __init__(self, index, workers: int = 4, clear_cache_per_query: bool = True,
                 mode: str = MODE_THREAD, batch_queries: int = 1,
                 mp_context=None, delta_threshold: int = 0,
                 merge_interval_seconds: float | None = None,
                 prefetch: bool = False,
                 prefetch_config: PrefetchConfig | None = None):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if delta_threshold < 0:
            raise ValueError(
                f"delta_threshold must be >= 0, got {delta_threshold}"
            )
        if merge_interval_seconds is not None and merge_interval_seconds <= 0:
            raise ValueError(
                "merge_interval_seconds must be positive or None, got "
                f"{merge_interval_seconds}"
            )
        if mode not in (MODE_THREAD, MODE_PROCESS):
            raise ValueError(
                f"mode must be {MODE_THREAD!r} or {MODE_PROCESS!r}, got {mode!r}"
            )
        if not isinstance(batch_queries, int) or batch_queries < 1:
            raise ValueError(
                f"batch_queries must be a positive int, got {batch_queries!r}"
            )
        self._index = index
        #: The committed, delta-free index (always == ``_index`` while
        #: no delta is buffered); forks and merges start here.
        self._base = index
        #: Buffered :class:`DeltaIndex`, or ``None`` — copy-on-write:
        #: commits copy it, mutate the copy and publish the copy.
        self._delta = getattr(index, "delta", None)
        self.delta_threshold = int(delta_threshold)
        self.merge_interval_seconds = merge_interval_seconds
        self._last_merge = time.monotonic()
        self._version = 0
        self.worker_count = workers
        self.clear_cache_per_query = clear_cache_per_query
        self._sharded = hasattr(index, "shards") and hasattr(index, "with_views")
        if self._sharded and mode == MODE_PROCESS:
            raise ValueError(
                "sharded indexes are served by thread workers only; their "
                "scatter state does not travel across processes"
            )
        if self._sharded and batch_queries > 1:
            raise ValueError(
                "batch_queries > 1 needs a monolithic index; sharded "
                "serving scatters per query"
            )
        if batch_queries > 1 and not hasattr(index, "range_query_multi"):
            raise ValueError(
                f"batch_queries > 1 needs an engine with range_query_multi; "
                f"{type(index).__name__} has none"
            )
        self._mode = mode
        self._batch = batch_queries
        if prefetch_config is not None and not prefetch:
            raise ValueError("prefetch_config given but prefetch is False")
        self._prefetch_cfg = (
            (prefetch_config or PrefetchConfig()) if prefetch else None
        )
        #: session id -> TrajectoryModel, LRU-bounded (shared by both
        #: modes: prediction always happens in the parent, at submit).
        self._session_models: OrderedDict = OrderedDict()
        self._session_lock = threading.Lock()
        #: version -> Prefetcher (thread mode only; process workers own
        #: theirs), plus retired-generation prefetch accounting so a
        #: commit never loses staged/consumed/read totals.
        self._prefetchers: OrderedDict = OrderedDict()
        self._prefetch_lock = threading.Lock()
        self._retired_prefetch_stats = IOStats()
        self._retired_prefetch_counters = {"staged": 0, "consumed": 0}
        self._prefetch_failures = 0
        self._prefetch_pool = None
        if prefetch and mode == MODE_THREAD:
            self._prefetch_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="prefetch"
            )
        #: version -> snapshot spec a worker process can restore that
        #: version from: ``(directory, generation)`` after a merge
        #: commit, ``(directory, generation, pickled delta)`` after an
        #: absorbed commit.  Generation 0 is shipped pickled through
        #: the pool initializer, so it needs no spec.
        self._gen_specs: dict = {0: None}
        #: On-disk generation of the last commit this service published
        #: (initially the served index's own generation, if file-backed)
        #: — pins the single-writer lineage check at publish time.
        backend = getattr(getattr(index, "store", None), "backend", None)
        self._published_gen = getattr(backend, "generation", None)
        #: Snapshot directory of the served index, if file-backed —
        #: absorbed commits in process mode name it in their spec.
        directory = getattr(backend, "directory", None)
        self._snapshot_dir = None if directory is None else str(directory)
        #: Lifetime counters returned by process-worker tasks.
        self._process_stats = IOStats()
        self._worker_pids: set = set()
        self._process_lock = threading.Lock()
        self._local = threading.local()
        self._worker_states: list = []
        #: Lifetime counters of retired clones (superseded generations)
        #: plus the distinct threads that ever served, so retiring a
        #: clone never loses accounting.
        self._retired_stats = IOStats()
        self._worker_threads: set = set()
        self._states_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        #: Serializes apply_updates callers and guards the (version,
        #: index) pair swap.
        self._commit_lock = threading.Lock()
        if mode == MODE_PROCESS:
            with_store = getattr(index, "with_store", None)
            clean = index if with_store is None else with_store(index.store.view())
            payload = pickle.dumps(clean)
            context = mp_context or multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_process_worker_init,
                initargs=(payload, self._prefetch_cfg),
            )
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="query-worker"
            )
        self._closed = False

    # -- worker state ---------------------------------------------------

    def _current(self) -> tuple:
        """The (version, index, snapshot spec) queries run against."""
        with self._commit_lock:
            return self._version, self._index, self._gen_specs.get(self._version)

    def _worker(self, version: int, index):
        """This thread's (engine, store) pair for one index generation.

        For a sharded index the engine is a full per-worker clone with
        one view per shard, and the store is the clone's
        :class:`~repro.storage.pagestore.PageStoreGroup` facade — so the
        batch-level stat aggregation is identical in both modes.
        Clones are keyed by generation: a task that captured generation
        *g* at submit time always executes on a clone of *g*, no matter
        when a commit lands — that is the snapshot-isolation guarantee.
        """
        states = getattr(self._local, "states", None)
        if states is None:
            states = self._local.states = {}
        state = states.get(version)
        if state is None:
            if self._sharded:
                clone = index.with_views()
                state = (clone, clone.store)
            else:
                store = index.store.view()
                clone = index.with_store(store)
                state = (clone, store)
            if self._prefetch_cfg is not None and self._mode == MODE_THREAD:
                # Every worker clone of a generation consumes from that
                # generation's shared staging area(s).
                self._prefetcher(version, index).attach(clone)
            states[version] = state
            evicted = [v for v in states if v <= version - self._KEPT_VERSIONS]
            with self._states_lock:
                self._worker_states.append(state)
                self._worker_threads.add(threading.get_ident())
                for stale in evicted:
                    # Retired clones must not pin memory forever, but
                    # their lifetime counters stay part of the totals.
                    stale_state = states.pop(stale)
                    self._retired_stats.merge(stale_state[1].stats)
                    self._worker_states.remove(stale_state)
        return state

    def _execute(self, version: int, index, query: np.ndarray) -> np.ndarray:
        engine, store = self._worker(version, index)
        if self.clear_cache_per_query:
            store.clear_cache()
        return engine.range_query(query)

    def _execute_group(self, version: int, index, queries) -> list:
        """One thread task serving a query group via the joint crawl."""
        engine, store = self._worker(version, index)
        if len(queries) > 1:
            return engine.range_query_multi(
                queries, cold=self.clear_cache_per_query
            )
        if self.clear_cache_per_query:
            store.clear_cache()
        return [engine.range_query(queries[0])]

    def _execute_shard(self, version: int, index, shard_id: int,
                       query: np.ndarray) -> np.ndarray:
        """One scatter task: crawl a single shard on this worker's view."""
        engine, _store = self._worker(version, index)
        shard = engine.shards[shard_id]
        if self.clear_cache_per_query:
            shard.store.clear_cache()
        local = shard.index.range_query(query)
        return shard.to_global(local) if local.size else local

    def _execute_knn(self, version: int, index, point: np.ndarray,
                     k: int) -> tuple:
        """One kNN task; also returns the clone's plan (sharded engines)."""
        engine, store = self._worker(version, index)
        if self.clear_cache_per_query:
            store.clear_cache()
        hits = engine.knn_query(point, k)
        return hits, getattr(engine, "last_plan", None)

    #: Per-shard sorted ids merge exactly: shards partition the elements.
    _merge_shard_parts = staticmethod(QueryPlanner.merge_sorted_ids)

    def _shard_merge(self, index, query):
        """The gather-side merge for one scattered query.

        Shard tasks crawl committed pages only; a delta attached to the
        captured index generation is applied here, at the gather point,
        so the per-shard accounting never sees it.
        """
        delta = getattr(index, "delta", None)
        if delta is None or delta.is_empty:
            return self._merge_shard_parts
        return lambda parts: self._merge_shard_parts(parts, delta, query)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "QueryService is closed; create a new service to submit queries"
            )

    # -- prefetching ----------------------------------------------------

    @property
    def prefetch_enabled(self) -> bool:
        """Whether trajectory prefetching is on for this service."""
        return self._prefetch_cfg is not None

    @property
    def prefetch_failures(self) -> int:
        """Staging crawls that raised (and were swallowed), in either mode."""
        return self._prefetch_failures

    def _prefetcher(self, version: int, index) -> Prefetcher:
        """The shared thread-mode prefetcher of one index generation.

        Generations are retired in step with the worker clones
        (:attr:`_KEPT_VERSIONS`); a retired prefetcher's I/O and
        staged/consumed totals fold into lifetime counters first, so
        commits never lose prefetch accounting.
        """
        with self._prefetch_lock:
            prefetcher = self._prefetchers.get(version)
            if prefetcher is None:
                prefetcher = Prefetcher(index, self._prefetch_cfg)
                self._prefetchers[version] = prefetcher
                stale_versions = [
                    v for v in self._prefetchers
                    if v <= version - self._KEPT_VERSIONS
                ]
                for stale in stale_versions:
                    retired = self._prefetchers.pop(stale)
                    self._retired_prefetch_stats.merge(retired.io_stats())
                    counters = retired.counters()
                    for key in self._retired_prefetch_counters:
                        self._retired_prefetch_counters[key] += counters[key]
            return prefetcher

    def _session_hint(self, session_id, query):
        """Feed *query* to the session's model; the window to stage or None.

        Returns the ``lookahead``-step predicted window — but only when
        the next predicted box is not already inside the window staged
        for this session, so a confident straight-line session pays one
        staging crawl per *window*, not per query.
        """
        if self._prefetch_cfg is None or session_id is None:
            return None
        with self._session_lock:
            entry = self._session_models.get(session_id)
            if entry is None:
                entry = {"model": TrajectoryModel(self._prefetch_cfg),
                         "covered": None}
                self._session_models[session_id] = entry
                while len(self._session_models) > self._KEPT_SESSIONS:
                    self._session_models.popitem(last=False)
            else:
                self._session_models.move_to_end(session_id)
            model = entry["model"]
            model.observe(query)
            next_box = model.predict()
            if next_box is None:
                entry["covered"] = None
                return None
            covered = entry["covered"]
            if (covered is not None
                    and np.all(covered[:3] <= next_box[:3])
                    and np.all(covered[3:] >= next_box[3:])):
                return None
            window = model.predict(self._prefetch_cfg.lookahead)
            entry["covered"] = window
            return window

    def _do_prefetch(self, version: int, index, box) -> None:
        """Background-thread crawl of one predicted box."""
        try:
            self._prefetcher(version, index).prefetch(box)
        except Exception:
            # Prefetching is advisory: a failed prediction crawl must
            # never surface into the serving path.
            self._prefetch_failures += 1

    def _schedule_prefetch(self, version: int, index, hint) -> None:
        """Queue a predicted box behind the foreground dispatch."""
        if hint is None or self._prefetch_pool is None:
            return
        self._prefetch_pool.submit(self._do_prefetch, version, index, hint)

    def _drain_prefetch_pool(self) -> None:
        """Wait for queued prefetches (single worker => FIFO barrier)."""
        if self._prefetch_pool is not None:
            self._prefetch_pool.submit(lambda: None).result()

    def _prefetch_totals(self) -> tuple:
        """Lifetime ``(IOStats, staged/consumed)`` across prefetchers."""
        stats = IOStats()
        totals = {"staged": 0, "consumed": 0}
        with self._prefetch_lock:
            stats.merge(self._retired_prefetch_stats)
            for key in totals:
                totals[key] += self._retired_prefetch_counters[key]
            prefetchers = list(self._prefetchers.values())
        for prefetcher in prefetchers:
            stats.merge(prefetcher.io_stats())
            counters = prefetcher.counters()
            totals["staged"] += counters["staged"]
            totals["consumed"] += counters["consumed"]
        return stats, totals

    # -- serving --------------------------------------------------------

    def submit(self, query, session_id: str | None = None):
        """Enqueue one range query; returns a future.

        Monolithic indexes get one pool task per query; sharded indexes
        get one task per planner-selected shard joined by a
        :class:`GatherFuture`.

        With prefetching enabled, a *session_id* scopes the query to
        one analysis session: the box feeds that session's trajectory
        model, and a confident prediction warms the worker stores for
        the session's *next* query — strictly behind the foreground
        dispatch, never blocking or reordering it.
        """
        self._check_open()
        query = np.asarray(query, dtype=np.float64)
        version, index, spec = self._current()
        hint = self._session_hint(session_id, query)
        if self._mode == MODE_PROCESS:
            future = self._pool.submit(
                _process_run_group, version, spec, query[None, :],
                self.clear_cache_per_query, False, hint,
            )
            future.add_done_callback(self._absorb_process_future)
            return _ProcessFuture(future)
        if not self._sharded:
            future = self._pool.submit(self._execute, version, index, query)
            self._schedule_prefetch(version, index, hint)
            return future
        shard_ids = index.planner.shards_for_box(query)
        futures = [
            self._pool.submit(self._execute_shard, version, index, int(sid), query)
            for sid in shard_ids
        ]
        gather = GatherFuture(futures, self._shard_merge(index, query))
        self._schedule_prefetch(version, index, hint)
        return gather

    def run(self, queries, index_name: str = "") -> ServiceReport:
        """Serve a whole batch; results aggregate into the report.

        Queries are dispatched to the pool all at once (every per-shard
        task of every query, for sharded indexes; one task per
        ``batch_queries``-sized group otherwise) and collected in
        request order; the report's counters are the exact difference
        the workers' :class:`IOStats` accumulated during this batch —
        diffed store views in thread mode, returned per-task deltas
        merged in submission order in process mode.
        """
        self._check_open()
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != 6:
            raise ValueError(f"expected (N, 6) query boxes, got {queries.shape}")
        version, index, spec = self._current()
        report = ServiceReport(
            index_name=index_name or type(index).__name__,
            worker_count=self.worker_count,
            execution_mode=self._mode,
            batch_queries=self._batch,
        )
        before = {} if self._mode == MODE_PROCESS else self._snapshot_worker_stats()
        latencies = [0.0] * len(queries)

        def stamp(first: int, count: int):
            """Done-callback writing this task's submit-to-done latency
            into each member query's slot (disjoint slots, no lock)."""
            t_submit = time.perf_counter()

            def done(_future) -> None:
                elapsed = time.perf_counter() - t_submit
                for qi in range(first, first + count):
                    latencies[qi] = elapsed

            return done

        t0 = time.perf_counter()
        if self._sharded:
            results = self._run_scatter_gather(version, index, queries, report)
        elif self._mode == MODE_PROCESS:
            results = self._run_process_groups(
                version, spec, queries, report, stamp
            )
        elif self._batch == 1:
            futures = []
            for qi, query in enumerate(queries):
                future = self._pool.submit(self._execute, version, index, query)
                future.add_done_callback(stamp(qi, 1))
                futures.append(future)
            results = [future.result() for future in futures]
        else:
            futures = []
            for first in range(0, len(queries), self._batch):
                group = queries[first:first + self._batch]
                future = self._pool.submit(
                    self._execute_group, version, index, group
                )
                future.add_done_callback(stamp(first, len(group)))
                futures.append(future)
            results = [ids for future in futures for ids in future.result()]
        report.wall_seconds = time.perf_counter() - t0
        if not self._sharded:
            report.latencies_seconds = latencies

        report.query_count = len(results)
        report.per_query_results = [len(hits) for hits in results]
        report.result_elements = sum(report.per_query_results)
        if self._mode != MODE_PROCESS:
            self._aggregate_batch_stats(report, before)
        return report

    def _run_process_groups(self, version: int, spec, queries,
                            report: ServiceReport, stamp) -> list:
        """Dispatch query groups to the process pool; merge in order.

        Each task's :class:`IOStats` delta is merged in submission
        order (never completion order), so repeated runs of the same
        batch produce identical reports no matter how the OS schedules
        the workers.
        """
        batched = self._batch > 1
        futures = []
        for first in range(0, len(queries), self._batch):
            group = queries[first:first + self._batch]
            future = self._pool.submit(
                _process_run_group, version, spec, group,
                self.clear_cache_per_query, batched,
            )
            future.add_done_callback(stamp(first, len(group)))
            futures.append(future)
        results: list = []
        delta = IOStats()
        pids: set = set()
        for future in futures:
            pid, group_results, task_delta, _prefetch, _elapsed = future.result()
            results.extend(group_results)
            delta.merge(task_delta)
            pids.add(pid)
        self._absorb_process_batch(pids, delta)
        report.workers_used = len(pids)
        report.reads_by_category = dict(sorted(delta.reads.items()))
        report.decodes_by_kind = dict(sorted(delta.decode_misses.items()))
        report.cache_hits = delta.cache_hits
        if delta.prefetch_hits:
            report.prefetch_hits_by_category = dict(
                sorted(delta.prefetch_hits.items())
            )
        return results

    def run_session(self, queries, session_id: str,
                    index_name: str = "") -> ServiceReport:
        """Serve one session's query sequence, strictly in order.

        A session is one analysis client following a structure, so its
        queries execute sequentially (each result returns before the
        next box is submitted) — that is exactly the access pattern the
        trajectory model learns from.  Each query goes through the same
        dispatch as :meth:`submit`: with prefetching enabled, the
        prediction made when query *i* is submitted warms the caches
        for query *i+1* while *i* is being answered (thread mode) or
        right after it (process-mode warm hint).  Works with
        prefetching off too, as a sequential-latency baseline.

        The report separates the session's demand I/O from prefetch
        I/O: ``reads_by_category`` + ``prefetch_hits_by_category`` per
        category equals the demand reads of a prefetch-free run, and
        ``prefetch_reads_by_category`` / ``prefetch_staged`` /
        ``prefetch_consumed`` describe the prefetcher's own work.
        """
        self._check_open()
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != 6:
            raise ValueError(f"expected (N, 6) query boxes, got {queries.shape}")
        report = ServiceReport(
            index_name=index_name or type(self._index).__name__,
            worker_count=self.worker_count,
            execution_mode=self._mode,
            session_id=session_id,
            prefetch_enabled=self.prefetch_enabled,
        )
        if self._mode == MODE_PROCESS:
            results = self._run_session_process(queries, session_id, report)
        else:
            results = self._run_session_thread(queries, session_id, report)
        report.query_count = len(results)
        report.per_query_results = [len(hits) for hits in results]
        report.result_elements = sum(report.per_query_results)
        return report

    def _run_session_thread(self, queries, session_id, report) -> list:
        before = self._snapshot_worker_stats()
        pf_io_before, pf_counters_before = self._prefetch_totals()
        latencies = []
        results = []
        t0 = time.perf_counter()
        for query in queries:
            t_submit = time.perf_counter()
            future = self.submit(query, session_id=session_id)
            results.append(future.result())
            latencies.append(time.perf_counter() - t_submit)
        report.wall_seconds = time.perf_counter() - t0
        # The last query's prefetch may still be in flight; it can no
        # longer help this session, but the report's staging totals
        # must be complete — drain outside the measured wall time.
        self._drain_prefetch_pool()
        report.latencies_seconds = latencies
        self._aggregate_batch_stats(report, before)
        pf_io, pf_counters = self._prefetch_totals()
        pf_delta = pf_io.diff(pf_io_before)
        report.prefetch_reads_by_category = dict(sorted(pf_delta.reads.items()))
        report.prefetch_staged = (
            pf_counters["staged"] - pf_counters_before["staged"]
        )
        report.prefetch_consumed = (
            pf_counters["consumed"] - pf_counters_before["consumed"]
        )
        return results

    def _run_session_process(self, queries, session_id, report) -> list:
        delta = IOStats()
        prefetch_reads: dict = {}
        staged = consumed = failures = 0
        pids: set = set()
        latencies = []
        results = []
        t0 = time.perf_counter()
        for query in queries:
            version, _index, spec = self._current()
            hint = self._session_hint(session_id, query)
            t_submit = time.perf_counter()
            future = self._pool.submit(
                _process_run_group, version, spec, query[None, :],
                self.clear_cache_per_query, False, hint,
            )
            pid, group_results, task_delta, prefetch_info, _elapsed = (
                future.result()
            )
            latencies.append(time.perf_counter() - t_submit)
            results.append(group_results[0])
            delta.merge(task_delta)
            pids.add(pid)
            if prefetch_info is not None:
                for category, n in prefetch_info["reads"].items():
                    prefetch_reads[category] = (
                        prefetch_reads.get(category, 0) + n
                    )
                staged += prefetch_info["staged"]
                consumed += prefetch_info["consumed"]
                failures += prefetch_info["failures"]
        report.wall_seconds = time.perf_counter() - t0
        report.latencies_seconds = latencies
        self._absorb_process_batch(pids, delta, failures)
        report.workers_used = len(pids)
        report.reads_by_category = dict(sorted(delta.reads.items()))
        report.decodes_by_kind = dict(sorted(delta.decode_misses.items()))
        report.cache_hits = delta.cache_hits
        if delta.prefetch_hits:
            report.prefetch_hits_by_category = dict(
                sorted(delta.prefetch_hits.items())
            )
        report.prefetch_reads_by_category = dict(sorted(prefetch_reads.items()))
        report.prefetch_staged = staged
        report.prefetch_consumed = consumed
        return results

    def run_knn(self, points, k: int, index_name: str = "") -> ServiceReport:
        """Serve a kNN batch: one pool task per query point.

        Sharded clones prune and order shards internally per point, so
        the scatter here stays at query granularity.
        """
        self._check_open()
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        version, index, spec = self._current()
        report = ServiceReport(
            index_name=index_name or type(index).__name__,
            worker_count=self.worker_count,
            execution_mode=self._mode,
        )
        before = {} if self._mode == MODE_PROCESS else self._snapshot_worker_stats()
        latencies = [0.0] * len(points)

        def stamp(qi: int):
            t_submit = time.perf_counter()

            def done(_future) -> None:
                latencies[qi] = time.perf_counter() - t_submit

            return done

        t0 = time.perf_counter()
        results = []
        if self._mode == MODE_PROCESS:
            futures = []
            for qi, p in enumerate(points):
                future = self._pool.submit(
                    _process_run_knn, version, spec, p, k,
                    self.clear_cache_per_query,
                )
                future.add_done_callback(stamp(qi))
                futures.append(future)
            delta = IOStats()
            pids: set = set()
            for future in futures:
                pid, hits, task_delta, _prefetch, _elapsed = future.result()
                results.append(hits[0])
                delta.merge(task_delta)
                pids.add(pid)
            self._absorb_process_batch(pids, delta)
            report.workers_used = len(pids)
            report.reads_by_category = dict(sorted(delta.reads.items()))
            report.decodes_by_kind = dict(sorted(delta.decode_misses.items()))
            report.cache_hits = delta.cache_hits
        else:
            futures = []
            for qi, p in enumerate(points):
                future = self._pool.submit(self._execute_knn, version, index, p, k)
                future.add_done_callback(stamp(qi))
                futures.append(future)
            for future in futures:
                hits, plan = future.result()
                results.append(hits)
                if plan is not None:
                    report.shard_tasks += len(plan.shards_selected)
                    report.shards_pruned += plan.shards_pruned
        report.wall_seconds = time.perf_counter() - t0
        report.latencies_seconds = latencies

        report.query_count = len(results)
        report.per_query_results = [len(hits) for hits in results]
        report.result_elements = sum(report.per_query_results)
        if self._mode != MODE_PROCESS:
            self._aggregate_batch_stats(report, before)
        return report

    def _run_scatter_gather(self, version: int, index, queries,
                            report: ServiceReport) -> list:
        """Dispatch one task per (query, touched shard); gather in order."""
        planner = index.planner
        shard_count = len(index.shards)
        scattered = []
        for query in queries:
            shard_ids = planner.shards_for_box(query)
            report.shard_tasks += len(shard_ids)
            report.shards_pruned += shard_count - len(shard_ids)
            scattered.append(
                [
                    self._pool.submit(
                        self._execute_shard, version, index, int(sid), query
                    )
                    for sid in shard_ids
                ]
            )
        return [
            self._shard_merge(index, query)(
                [future.result() for future in futures]
            )
            for query, futures in zip(queries, scattered)
        ]

    # -- updates --------------------------------------------------------

    def apply_updates(self, inserts=None, delete_ids=None,
                      force_merge: bool = False) -> UpdateReport:
        """Atomically apply an insert+delete batch with snapshot isolation.

        Every commit is a full service version with copy-on-write
        discipline, in one of two shapes:

        * **Absorbed** (``delta_threshold > 0`` and the buffered work
          stays under it): the batch lands in a *copy* of the current
          :class:`~repro.core.delta.DeltaIndex` and the commit swaps in
          the unchanged base index with the new delta attached — no
          page is touched, which is what makes sustained ingest cheap.
        * **Merged** (threshold crossed, ``merge_interval_seconds``
          elapsed, ``force_merge=True``, or ``delta_threshold == 0``):
          the accumulated delta plus this batch drains through one bulk
          :meth:`~repro.core.flat_index.FLATIndex.apply_batch` into a
          copy-on-write fork of the base — a generation boundary whose
          commit-wide link repair and metadata flush amortize over the
          whole drained delta.

        Either way, queries in flight keep reading the exact version
        (pages *and* delta) they captured at submit time; queries
        submitted after the swap see all of the batch — never a torn
        mix.  Updates are expected to flow through a single updater: a
        second ``apply_updates`` racing a commit is detected and
        rejected with ``RuntimeError`` (its batch is discarded, never
        silently merged or dropped).

        In process mode a merge additionally *publishes* the fork as
        the next on-disk snapshot generation before the swap, so worker
        processes can restore it; this requires the served index to
        live on a restored snapshot directory (an mmap-backed store).
        An absorbed commit publishes nothing — its spec names the
        unchanged base generation plus the pickled delta.  A commit
        rejected by the concurrent-commit check may leave its
        already-published generation orphaned on disk — harmless, since
        workers only ever restore generations a task names explicitly.
        """
        self._check_open()
        if not hasattr(self._index, "fork"):
            raise RuntimeError(
                f"{type(self._index).__name__} does not support updates "
                "(no fork()); serve a FLAT or sharded FLAT index"
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
            or (
                self.merge_interval_seconds is not None
                and time.monotonic() - self._last_merge
                >= self.merge_interval_seconds
            )
        )
        spec = None
        generation = None
        if merge:
            fork = base.fork()
            drain_ids, drain_mbrs, drain_deletes, next_id = new_delta.drain()
            fork.apply_batch(
                insert_mbrs=drain_mbrs,
                delete_ids=drain_deletes,
                insert_ids=drain_ids,
                next_id=next_id,
            )
            if self._mode == MODE_PROCESS:
                from repro.core.snapshot import publish_fork_generation
                from repro.storage.pagestore import SnapshotError

                try:
                    directory, generation = publish_fork_generation(
                        fork, expected_base=self._published_gen
                    )
                except SnapshotError:
                    # Lineage violations (another publisher advanced the
                    # directory) surface as-is — not a setup error.
                    raise
                except PageStoreError as exc:
                    raise RuntimeError(
                        "process-mode updates need an index restored from a "
                        "snapshot directory (worker processes restore "
                        "committed generations from disk); snapshot_index() "
                        "+ restore_index() first"
                    ) from exc
                spec = (str(directory), int(generation))
            new_index = fork
        else:
            new_index = base.with_delta(new_delta)
            if self._mode == MODE_PROCESS:
                if self._snapshot_dir is None or self._published_gen is None:
                    raise RuntimeError(
                        "process-mode updates need an index restored from a "
                        "snapshot directory (worker processes restore "
                        "committed generations from disk); snapshot_index() "
                        "+ restore_index() first"
                    )
                spec = (
                    self._snapshot_dir,
                    int(self._published_gen),
                    pickle.dumps(new_delta),
                )
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
            self._index = new_index
            self._version += 1
            version = self._version
            if merge:
                self._base = new_index
                self._delta = None
                self._last_merge = time.monotonic()
            else:
                self._delta = new_delta
            if spec is not None:
                self._gen_specs[version] = spec
                if generation is not None:
                    self._published_gen = generation
        return UpdateReport(
            version=version,
            inserted_ids=inserted,
            deleted_count=deleted,
            element_count=(
                new_index.element_count
                if merge
                else new_index.live_element_count
            ),
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

    def _snapshot_worker_stats(self) -> dict:
        """Per-store counter snapshots, keyed by the store objects.

        The stores themselves are the keys (not ``id(store)``): the
        strong references keep a store diffable for the whole batch
        even if a racing commit evicts its clone mid-batch, and a
        recycled object id can never alias another store's snapshot.
        """
        with self._states_lock:
            return {
                store: store.stats.snapshot()
                for _engine, store in self._worker_states
            }

    def _aggregate_batch_stats(self, report: ServiceReport, before: dict) -> None:
        delta = IOStats()
        with self._states_lock:
            stores = [store for _engine, store in self._worker_states]
        # Union of the stores alive now and the stores alive at batch
        # start: clones evicted mid-batch still contribute their delta.
        for store in before:
            if store not in stores:
                stores.append(store)
        for store in stores:
            prior = before.get(store)
            worker_delta = store.stats.diff(prior) if prior else store.stats
            if (worker_delta.total_reads or worker_delta.cache_hits
                    or worker_delta.total_prefetch_hits):
                report.workers_used += 1
            delta.merge(worker_delta)
        # Sorted keys: reports of identical batches compare equal (and
        # serialize identically) regardless of worker scheduling.
        report.reads_by_category = dict(sorted(delta.reads.items()))
        report.decodes_by_kind = dict(sorted(delta.decode_misses.items()))
        report.cache_hits = delta.cache_hits
        if delta.prefetch_hits:
            report.prefetch_hits_by_category = dict(
                sorted(delta.prefetch_hits.items())
            )

    def _absorb_process_batch(self, pids: set, delta: IOStats,
                              prefetch_failures: int = 0) -> None:
        """Fold one batch's merged worker deltas into lifetime counters."""
        with self._process_lock:
            self._process_stats.merge(delta)
            self._worker_pids.update(pids)
            self._prefetch_failures += prefetch_failures

    def _absorb_process_future(self, future) -> None:
        """Done-callback of a :meth:`submit`-path process task."""
        if future.cancelled() or future.exception() is not None:
            return
        pid, _results, delta, prefetch, _elapsed = future.result()
        self._absorb_process_batch(
            {pid}, delta, prefetch["failures"] if prefetch else 0
        )

    # -- introspection --------------------------------------------------

    def aggregate_stats(self) -> IOStats:
        """Lifetime I/O counters merged across every worker view.

        Includes the counters of clones retired by update commits and,
        in process mode, every delta returned by worker tasks.
        """
        total = IOStats()
        with self._states_lock:
            states = list(self._worker_states)
            total.merge(self._retired_stats)
        for _engine, store in states:
            total.merge(store.stats)
        with self._process_lock:
            total.merge(self._process_stats)
        return total

    @property
    def current_version(self) -> int:
        """Generation number of the currently served index (0 initially)."""
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
        """Workers that have served at least one query ever.

        Counts distinct threads (thread mode) or worker pids (process
        mode), not engine clones — a worker that rebuilt its engine
        across update generations still counts once.
        """
        if self._mode == MODE_PROCESS:
            with self._process_lock:
                return len(self._worker_pids)
        with self._states_lock:
            return len(self._worker_threads)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the thread pool down.

        Idempotent and safe to call from several threads: *every*
        caller returns only once the pool has shut down and all
        in-flight queries finished (``ThreadPoolExecutor.shutdown`` is
        itself idempotent, so later callers simply join the same
        shutdown).  ``submit``/``run`` after close raise
        :class:`RuntimeError` instead of queueing onto a dead pool.
        """
        with self._lifecycle_lock:
            self._closed = True
        if self._prefetch_pool is not None:
            self._prefetch_pool.shutdown(wait=True)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

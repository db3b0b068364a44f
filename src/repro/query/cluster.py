"""Distributed serving tier: shard servers behind a scatter–gather router.

Everything below one machine's worker pool already exists in this repo:
gap-free spatial shards with an exact MBR-pruning
:class:`~repro.query.planner.QueryPlanner` (PR 3), numbered
copy-on-write snapshot generations published by atomic rename (PR 4),
and ``(directory, generation)`` reattach across process boundaries
(PR 6).  This module promotes those pieces to a serving *fleet*:

* :class:`ShardServerHandle` / :func:`_serve_shard` — one **shard
  server** process per shard.  Each server restores its shard's
  :class:`~repro.core.flat_index.FLATIndex` from the shard's snapshot
  directory at a pinned generation (a read-only mmap — co-located
  servers share page bytes through the OS page cache) and answers
  range / point / kNN requests over a
  :mod:`multiprocessing.connection` listener (length-prefixed pickle
  frames on an ``AF_UNIX`` socket, authkey-authenticated).  Each
  connection is one serving worker, exactly like a
  :class:`~repro.query.service.QueryService` pool worker: it runs the
  pool processes' request/reply loop,
  :func:`~repro.query.service.serve_requests`, owns a
  :class:`~repro.query.service.WorkerEngines` cache and a
  :class:`~repro.query.prefetch.SessionTracker`, and answers a range
  request with :func:`~repro.query.service.serve_task` — staging a
  session's predicted window after the answer.  A request that raises
  is answered with the exception object; the router raises
  :class:`ClusterError` (``shard N server error: Type: msg``) chained
  from it, and the server keeps serving.  Servers return
  **global** element ids: the shard's local→global id map travels to
  the server at launch and with every reload.
* :class:`ClusterRouter` — the query tier's front door.  It keeps a
  *control replica* of the whole sharded index (a read-only
  :meth:`~repro.core.sharded.ShardedFLATIndex.restore` of the same
  snapshot root) for planner state and update computation, scatters
  each query to exactly the planner-selected servers, and merges the
  per-shard sorted ids at the gather point with
  :meth:`QueryPlanner.merge_sorted_ids
  <repro.query.planner.QueryPlanner.merge_sorted_ids>`.  A
  :class:`~repro.core.delta.DeltaIndex` attached to the router is
  applied there and nowhere else: servers only ever answer from a
  committed generation, as :class:`~repro.query.service.QueryService`
  workers do.
  Batches pipeline: up to a window of requests stay in flight per
  server, so aggregate throughput scales with the server count.
* **Replication & failover** — a replica fleet is populated by
  *shipping* each shard's snapshot generation directory
  (:func:`~repro.core.snapshot.ship_index_generation`): ``pages.dat``
  is append-only and generations are copy-on-write, so an up-to-date
  replica receives only the tail pages a new generation appended,
  never the unchanged prefix.  When a server dies mid-request the
  router marks it, replays the in-flight requests of that connection
  on the shard's replica and keeps routing there — reads are
  idempotent, so replay is safe.
* **Rolling updates** — :meth:`ClusterRouter.apply_updates` applies an
  insert/delete batch to a copy-on-write fork of the control replica
  (the same fork-swap commit the single-machine service uses), then
  walks the touched shards one at a time: publish the shard's next
  generation in place, ship the increment to the replica, tell both
  servers to ``reload`` (an atomic index swap inside the server), and
  only then move to the next shard.  The fleet serves continuously;
  a query observes, per shard, either the old or the new generation —
  never a torn page state — and the planner adopts the fork's
  (grow-only) widened shard boxes up front so pruning stays exact
  throughout the roll.

The router is single-threaded by design (one logical request stream
per server connection); run several routers for concurrent fronts.
Correctness is pinned in ``tests/query/test_cluster.py`` and
``benchmarks/bench_cluster.py``: every response — mid-roll, after a
server kill — is byte-identical to the monolithic
:class:`~repro.core.sharded.ShardedFLATIndex` oracle; with a delta
attached, to the oracle's answers corrected by the same delta.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Client, Listener
from pathlib import Path

import numpy as np

from repro.geometry.mbr import point_as_box
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.prefetch import PrefetchConfig, SessionTracker
from repro.query.service import (
    CLOSED_ERRORS,
    WorkerEngines,
    read_reply,
    serve_requests,
    serve_task,
)
from repro.storage.stats import IOStats

# repro.core imports stay function-local: repro.core.flat_index imports
# repro.query at module level, so a top-level import here would close an
# import cycle through the two packages' __init__ modules.

#: Requests kept in flight per server connection during a batch.  The
#: protocol is strictly request/reply-in-order per connection, so the
#: window bounds the reply bytes parked in socket buffers (avoiding a
#: send-side stall against a server that cannot flush replies).
PIPELINE_WINDOW = 32

_EMPTY_IDS = np.empty(0, dtype=np.int64)


class ClusterError(RuntimeError):
    """A cluster operation failed: a shard lost every server, a server
    reported an exception, or the fleet could not be launched."""


# -- server side ---------------------------------------------------------
#
# One process per shard server.  The process restores the shard index
# from its snapshot directory, then serves request/reply streams: one
# handler thread per accepted connection, running the loop QueryService
# pool processes run (serve_requests).  Each connection is a serving
# worker like a QueryService pool worker — it owns one WorkerEngines
# (stat-isolated clones of the newest generations over the single shared
# mmap, each with its prefetcher) and one SessionTracker, and answers
# range requests with the same serve_task body.


class _ShardServer:
    """In-process state of one shard server."""

    def __init__(self, shard_dir, generation: int, element_ids):
        from repro.core.snapshot import restore_index

        self.shard_dir = Path(shard_dir)
        self._swap_lock = threading.Lock()
        self.prefetch_config = PrefetchConfig()
        #: Staging crawls that raised, over every connection (reported
        #: by ``status``; a failed prediction never fails its query).
        self.prefetch_failures = 0
        self._failures_lock = threading.Lock()
        index = restore_index(self.shard_dir, generation=generation)
        #: ``(generation, index, local->global id map)`` — swapped
        #: atomically by ``reload``; handlers read it once per request.
        #: A connection's next request after a reload clones the new
        #: index while requests already executing finish on the old
        #: clone — the server-side fork-swap.
        self.current = (
            int(generation),
            index,
            np.asarray(element_ids, dtype=np.int64),
        )

    def connection_state(self) -> tuple:
        """A new connection's ``(WorkerEngines, SessionTracker)``.

        Sessions live on the connection: a router funnels all its
        sessions through its single connection to each server, and each
        connection is served by exactly one handler thread.
        """
        return (WorkerEngines(self.prefetch_config),
                SessionTracker(self.prefetch_config))

    # -- request dispatch ----------------------------------------------

    def dispatch(self, request: tuple, engines: WorkerEngines,
                 sessions: SessionTracker):
        """Answer one request on a connection's engines and sessions."""
        kind = request[0]
        if kind in ("range", "knn"):
            generation, index, element_ids = self.current
            engine, prefetcher = engines.get(generation, lambda: index)
        if kind == "range":
            _kind, query, cold, session_id = request
            query = np.asarray(query, dtype=np.float64)
            hint = None if session_id is None else sessions.hint(session_id, query)
            results, diff, prefetch, _seconds, _shards = serve_task(
                engine, prefetcher, query[None, :], cold, hint
            )
            if prefetch["failures"]:
                with self._failures_lock:
                    self.prefetch_failures += prefetch["failures"]
            local = results[0]
            hits = element_ids[local] if local.size else _EMPTY_IDS
            return hits, diff
        if kind == "knn":
            _kind, point, k, cold = request
            if cold:
                engine.store.clear_cache()
            local, dists = engine.knn_query(
                np.asarray(point, dtype=np.float64), int(k),
                return_distances=True,
            )
            hits = element_ids[local] if local.size else _EMPTY_IDS
            return hits, dists
        if kind == "reload":
            from repro.core.snapshot import restore_index

            _kind, generation, element_ids = request
            generation = int(generation)
            with self._swap_lock:
                if generation != self.current[0]:
                    index = restore_index(self.shard_dir, generation=generation)
                    self.current = (
                        generation,
                        index,
                        np.asarray(element_ids, dtype=np.int64),
                    )
            return generation
        if kind == "status":
            generation, index, element_ids = self.current
            return {
                "generation": generation,
                "element_count": int(index.element_count),
                "pid": os.getpid(),
                "prefetch_failures": self.prefetch_failures,
            }
        raise ValueError(f"unknown cluster request {kind!r}")

    def serve_connection(self, conn, listener) -> None:
        """Serve one connection with the pool workers' loop,
        :func:`~repro.query.service.serve_requests`; a request that
        raises is answered with its exception, and the server lives on.
        The loop's stop request (``None``) shuts the server down."""
        engines, sessions = self.connection_state()
        try:
            stopped = serve_requests(
                conn, lambda request: self.dispatch(request, engines, sessions)
            )
        finally:
            conn.close()
        if stopped:
            listener.close()
            # The main thread is parked in ``listener.accept()``, which a
            # cross-thread close does not reliably wake on Linux — exit
            # the process here instead.
            os._exit(0)


def _serve_shard(shard_dir, generation, element_ids, address, authkey,
                 ready) -> None:
    """Entry point of a shard-server process."""
    server = _ShardServer(shard_dir, generation, element_ids)
    listener = Listener(address, family="AF_UNIX", authkey=authkey)
    ready.send(("ready", os.getpid()))
    ready.close()
    while True:
        try:
            conn = listener.accept()
        except OSError:
            break  # listener closed by a stop request
        threading.Thread(
            target=server.serve_connection,
            args=(conn, listener),
            daemon=True,
        ).start()


# -- router side ---------------------------------------------------------


class ShardServerHandle:
    """The router's endpoint for one shard-server process.

    Wraps the process handle, the socket address and a lazily opened
    :func:`multiprocessing.connection.Client`.  ``alive`` is the
    *router's belief*: it flips to ``False`` only when a request
    actually fails, so killing a process externally is discovered the
    way a real fleet discovers it — by a dead connection.
    """

    def __init__(self, shard_id: int, role: str, directory, address: str,
                 authkey: bytes, process):
        self.shard_id = shard_id
        #: ``"primary"`` or ``"replica"``.
        self.role = role
        #: The snapshot directory this server restores generations from.
        self.directory = Path(directory)
        self.address = address
        self.authkey = authkey
        self.process = process
        self.alive = True
        self._conn = None

    def _connection(self):
        if self._conn is None:
            self._conn = Client(self.address, family="AF_UNIX",
                                authkey=self.authkey)
        return self._conn

    def send(self, message) -> None:
        self._connection().send(message)

    def recv(self):
        return read_reply(self._connection())

    def request(self, message):
        """One synchronous request/reply exchange (no pipelining)."""
        self.send(message)
        return self.recv()

    def close_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def kill(self) -> None:
        """Hard-kill the server process (failure injection for tests).

        Deliberately leaves ``alive`` untouched: the router must
        *discover* the death through a failed request, exactly as it
        would a crashed machine.
        """
        self.process.terminate()
        self.process.join(timeout=10)


def _start_shard_server(shard_id: int, role: str, directory, generation: int,
                        element_ids, runtime_dir, authkey: bytes,
                        start_timeout: float = 60.0) -> ShardServerHandle:
    """Launch one shard-server process and wait until it listens."""
    # Socket paths must stay under the AF_UNIX limit (~107 bytes), so
    # the runtime directory is kept short and names are terse.
    address = str(Path(runtime_dir) / f"{role[0]}{shard_id}.sock")
    parent_end, child_end = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=_serve_shard,
        args=(str(directory), int(generation), element_ids, address, authkey,
              child_end),
        name=f"shard-server-{shard_id}-{role}",
        daemon=True,
    )
    process.start()
    child_end.close()
    if not parent_end.poll(start_timeout):
        process.terminate()
        raise ClusterError(
            f"shard server {shard_id} ({role}) did not come up within "
            f"{start_timeout}s"
        )
    parent_end.recv()
    parent_end.close()
    return ShardServerHandle(shard_id, role, directory, address, authkey,
                             process)


@dataclass
class ClusterReport:
    """Aggregated outcome of one query batch served by the cluster."""

    query_count: int = 0
    result_elements: int = 0
    wall_seconds: float = 0.0
    #: Requests actually sent to shard servers (one per touched shard
    #: per query).
    shard_requests: int = 0
    #: Shard executions skipped by planner pruning, summed over queries.
    shards_pruned: int = 0
    #: Every server's per-request :class:`~repro.storage.stats.IOStats`
    #: diff, merged: reads, physical bytes, cache hits, decode counters
    #: and prefetch hits, as an in-process run would count them.
    stats: IOStats = field(default_factory=IOStats)
    per_query_results: list = field(default_factory=list)
    #: Session id the batch was served under (``None`` = no prefetching).
    session_id: str | None = None
    #: Servers the router declared dead while serving this batch.
    servers_lost: int = 0

    @property
    def reads_by_category(self) -> dict:
        """Physical page reads summed over every server's replies."""
        return dict(sorted(self.stats.reads.items()))

    @property
    def prefetch_hits_by_category(self) -> dict:
        """Demand reads absorbed by server-side prefetch areas.

        Kept separate from physical reads so the accounting identity
        ``reads + prefetch_hits == prefetch-free reads`` is checkable at
        the router.
        """
        return dict(sorted(self.stats.prefetch_hits.items()))

    @property
    def total_page_reads(self) -> int:
        return self.stats.total_reads

    @property
    def total_prefetch_hits(self) -> int:
        return self.stats.total_prefetch_hits

    @property
    def throughput_qps(self) -> float:
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.query_count / self.wall_seconds


@dataclass
class ClusterUpdateReport:
    """Outcome of one rolling update across the fleet."""

    inserted_ids: np.ndarray
    deleted_count: int
    #: Live elements after the commit.
    element_count: int
    #: Shard positions updated, in roll order.
    shards_updated: list
    #: Shard position -> generation the roll published.
    generations: dict
    #: Per-shard replica shipping accounting (empty without replicas).
    shipping: list
    wall_seconds: float = 0.0


class ClusterRouter:
    """Scatter–gather front door of a shard-server fleet.

    Built with :meth:`launch`, which restores the control replica,
    starts one primary server per shard and (optionally) replicates
    every shard into a second fleet.  Not thread-safe: a router owns
    one logical request stream per server connection.
    """

    def __init__(self, root, control, primaries: list,
                 replicas: list, runtime_dir,
                 clear_cache_per_query: bool = True,
                 _owns_runtime_dir: bool = False):
        self._root = Path(root)
        self._control = control
        self._primaries = primaries
        #: Replica handles, positionally aligned with primaries (``None``
        #: entries for shards without a replica).
        self._replicas = replicas
        self._runtime_dir = Path(runtime_dir)
        self._owns_runtime_dir = _owns_runtime_dir
        self.clear_cache_per_query = clear_cache_per_query
        self.planner: QueryPlanner = control.planner
        #: Optional :class:`~repro.core.delta.DeltaIndex` (global ids)
        #: applied to every answer at the gather point: ranges through
        #: :meth:`~repro.core.delta.DeltaIndex.overlay`, kNN through
        #: :meth:`~repro.core.delta.DeltaIndex.knn_overlay`.
        self.delta = None
        #: Servers declared dead so far (discovered through failed
        #: requests; every one triggered a failover or a shard loss).
        self.servers_lost = 0
        #: Planner decision of the most recent single query.
        self.last_plan: QueryPlan | None = None
        self._generations = {
            pos: int(shard.index.store.generation)
            for pos, shard in enumerate(control.shards)
        }
        self._closed = False

    # -- construction ---------------------------------------------------

    @classmethod
    def launch(cls, root, replica_root=None, runtime_dir=None,
               clear_cache_per_query: bool = True) -> "ClusterRouter":
        """Bring up a cluster over a sharded snapshot *root*.

        One primary server per shard serves the shard's latest
        generation.  With *replica_root*, every shard's generation
        directory is first shipped there
        (:func:`~repro.core.snapshot.ship_index_generation` — a full
        copy on the fresh directories, incremental ever after) and a
        replica server is started per shard; the router fails over to
        replicas automatically.  *runtime_dir* holds the socket files
        (kept short for ``AF_UNIX``; a private temp directory by
        default).
        """
        from repro.core.sharded import ShardedFLATIndex
        from repro.core.snapshot import ship_index_generation

        root = Path(root)
        control = ShardedFLATIndex.restore(root)
        owns_runtime = runtime_dir is None
        if owns_runtime:
            runtime_dir = tempfile.mkdtemp(prefix="flatclu-")
        authkey = os.urandom(16)
        primaries: list = []
        replicas: list = []
        shipping: list = []
        try:
            for pos, shard in enumerate(control.shards):
                directory = ShardedFLATIndex.shard_directory(root, pos)
                generation = int(shard.index.store.generation)
                primaries.append(_start_shard_server(
                    pos, "primary", directory, generation, shard.element_ids,
                    runtime_dir, authkey,
                ))
                if replica_root is None:
                    replicas.append(None)
                    continue
                replica_dir = ShardedFLATIndex.shard_directory(
                    replica_root, pos
                )
                shipping.append(ship_index_generation(
                    directory, replica_dir, generation
                ).as_dict())
                replicas.append(_start_shard_server(
                    pos, "replica", replica_dir, generation,
                    shard.element_ids, runtime_dir, authkey,
                ))
        except BaseException:
            for handle in primaries + [h for h in replicas if h is not None]:
                handle.process.terminate()
            control.close()
            raise
        router = cls(root, control, primaries, replicas, runtime_dir,
                     clear_cache_per_query, _owns_runtime_dir=owns_runtime)
        #: Launch-time replica shipping accounting (one entry per shard).
        router.replication_log = shipping
        return router

    # -- endpoints ------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._primaries)

    @property
    def element_count(self) -> int:
        """Live committed elements (the control replica's count)."""
        return self._control.element_count

    @property
    def live_element_count(self) -> int:
        """Committed elements plus the attached delta's net change."""
        if self.delta is None:
            return self.element_count
        return self.element_count + self.delta.element_delta

    def shard_generations(self) -> dict:
        """Shard position -> generation the fleet currently serves."""
        return dict(self._generations)

    def _endpoints(self, pos: int) -> list:
        handles = [self._primaries[pos]]
        if self._replicas[pos] is not None:
            handles.append(self._replicas[pos])
        return handles

    def _endpoint(self, pos: int) -> ShardServerHandle:
        """The live server currently responsible for shard *pos*."""
        for handle in self._endpoints(pos):
            if handle.alive:
                return handle
        raise ClusterError(
            f"shard {pos} has no live server (primary and replica both "
            "lost); results would be incomplete"
        )

    def _mark_dead(self, handle: ShardServerHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        handle.close_connection()
        self.servers_lost += 1

    @staticmethod
    def _unwrap(reply, pos: int):
        ok, payload = reply
        if not ok:
            raise ClusterError(
                f"shard {pos} server error: {type(payload).__name__}: {payload}"
            ) from payload
        return payload

    def _request_one(self, pos: int, message):
        """One request with automatic failover to the shard's replica."""
        while True:
            handle = self._endpoint(pos)
            try:
                reply = handle.request(message)
            except CLOSED_ERRORS:
                self._mark_dead(handle)
                continue
            return self._unwrap(reply, pos)

    def _request_many(self, requests: list) -> list:
        """Serve ``(shard_pos, message)`` requests, pipelined per server.

        Requests to one connection are answered strictly in order, so
        per-handle FIFOs pair replies with requests.  A connection that
        dies mid-stream pushes its unanswered requests back onto the
        work queue; they re-resolve to the shard's next live endpoint
        (reads are idempotent, so a request the dead server may have
        already executed is safely re-run).  An error reply, or a shard
        left with no live server, raises only once every request sent
        has its reply read, so no connection is left holding the answer
        to a request its next caller did not send.
        """
        replies = [None] * len(requests)
        pending: dict = {}
        work = deque(enumerate(requests))

        def drain_one(handle, queue) -> None:
            try:
                reply = handle.recv()
            except CLOSED_ERRORS:
                self._mark_dead(handle)
                work.extendleft(reversed([(i, (pos, msg))
                                          for i, pos, msg in queue]))
                queue.clear()
                return
            i, pos, _msg = queue.popleft()
            replies[i] = (reply, pos)

        try:
            while work or any(pending.values()):
                if not work:
                    for handle, queue in pending.items():
                        if queue:
                            drain_one(handle, queue)
                    continue
                i, (pos, message) = work.popleft()
                handle = self._endpoint(pos)
                queue = pending.setdefault(handle, deque())
                if len(queue) >= PIPELINE_WINDOW:
                    drain_one(handle, queue)
                    work.appendleft((i, (pos, message)))
                    continue
                try:
                    handle.send(message)
                except CLOSED_ERRORS:
                    self._mark_dead(handle)
                    work.appendleft((i, (pos, message)))
                    continue
                queue.append((i, pos, message))
        finally:
            # A batch cut short by a lost shard still reads the replies
            # it is owed.
            for handle, queue in pending.items():
                while queue:
                    drain_one(handle, queue)
        return [self._unwrap(reply, pos) for reply, pos in replies]

    # -- querying -------------------------------------------------------

    def range_query(self, query: np.ndarray,
                    session_id: str | None = None) -> np.ndarray:
        """Scatter the box to the selected servers, gather sorted ids.

        With a *session_id*, every touched server also feeds the box to
        its per-session trajectory model and warms its buffer pool for
        the predicted next box — results are byte-identical either way.
        """
        results, _report = self.run(
            np.asarray(query, dtype=np.float64)[None, :], session_id
        )
        return results[0]

    def point_query(self, point: np.ndarray) -> np.ndarray:
        """Element ids whose MBR contains *point* (degenerate range)."""
        return self.range_query(point_as_box(point))

    def knn_query(self, point: np.ndarray, k: int,
                  return_distances: bool = False):
        """The *k* nearest elements, MINDIST-ordered walk over servers.

        The shard walk of :meth:`ShardedFLATIndex.knn_query
        <repro.core.sharded.ShardedFLATIndex.knn_query>`
        (:meth:`QueryPlanner.knn_walk
        <repro.query.planner.QueryPlanner.knn_walk>`), with each visited
        server contributing its exact local top k as global ids.  With a
        :attr:`delta`, the walk gathers the committed top
        ``k + tombstone_count`` and
        :meth:`~repro.core.delta.DeltaIndex.knn_overlay` corrects it.
        """
        self._check_open()
        point = np.asarray(point, dtype=np.float64).reshape(3)
        cold = self.clear_cache_per_query
        delta = self.delta

        def visit(pos: int, shard_k: int) -> tuple:
            return self._request_one(pos, ("knn", point, shard_k, cold))

        base_k = k if delta is None else k + delta.tombstone_count
        best_ids, best_dists, self.last_plan = self.planner.knn_walk(
            point, base_k, visit
        )
        if delta is not None:
            best_ids, best_dists = delta.knn_overlay(
                point, k, best_ids, best_dists
            )
        if return_distances:
            return best_ids, best_dists
        return best_ids

    def run(self, queries: np.ndarray,
            session_id: str | None = None) -> tuple:
        """Serve a whole range batch; returns ``(results, report)``.

        Every (query, touched shard) pair becomes one pipelined server
        request — up to :data:`PIPELINE_WINDOW` in flight per server —
        so the shard servers crawl concurrently and aggregate
        throughput scales with the fleet size.  Results come back in
        request order, merged per query at the gather point.

        A *session_id* is forwarded with every request: each server
        then runs its own trajectory model over the boxes it sees and
        prefetches for the predicted next one.  Each reply carries the
        server's whole :class:`~repro.storage.stats.IOStats` diff for
        the request; the report merges them with
        :meth:`~repro.storage.stats.IOStats.merge`, which keeps
        prefetch hits separate from physical reads.
        """
        self._check_open()
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != 6:
            raise ValueError(f"expected (N, 6) query boxes, got {queries.shape}")
        report = ClusterReport(session_id=session_id)
        lost_before = self.servers_lost
        requests: list = []
        spans: list = []
        cold = self.clear_cache_per_query
        for query in queries:
            selected = self.planner.shards_for_box(query)
            self.last_plan = QueryPlan(
                self.shard_count, [int(pos) for pos in selected]
            )
            spans.append((len(requests), len(selected), query))
            report.shard_requests += len(selected)
            report.shards_pruned += self.shard_count - len(selected)
            requests.extend(
                (int(pos), ("range", query, cold, session_id))
                for pos in selected
            )
        t0 = time.perf_counter()
        replies = self._request_many(requests)
        report.wall_seconds = time.perf_counter() - t0
        results = []
        for start, count, query in spans:
            parts = []
            for ids, stats in replies[start:start + count]:
                parts.append(ids)
                report.stats.merge(stats)
            ids = QueryPlanner.merge_sorted_ids(parts)
            if self.delta is not None:
                ids = self.delta.overlay(ids, query)
            results.append(ids)
        report.query_count = len(results)
        report.per_query_results = [len(ids) for ids in results]
        report.result_elements = sum(report.per_query_results)
        report.servers_lost = self.servers_lost - lost_before
        return results, report

    def status(self) -> list:
        """One status dict per shard, from its currently serving server."""
        self._check_open()
        return [
            dict(self._request_one(pos, ("status",)), shard=pos)
            for pos in range(self.shard_count)
        ]

    # -- rolling updates ------------------------------------------------

    def apply_updates(self, insert_mbrs=None, delete_ids=None,
                      on_shard_updated=None) -> ClusterUpdateReport:
        """Apply an insert/delete batch as a rolling, shard-by-shard update.

        The batch lands on a copy-on-write fork of the control replica
        (routing, shard-box widening and id assignment are exactly
        :meth:`ShardedFLATIndex.apply_batch
        <repro.core.sharded.ShardedFLATIndex.apply_batch>`), then the
        touched shards roll one at a time: the shard's next generation
        is published in place (atomic manifest rename), the increment
        is shipped to the shard's replica, and both servers swap to the
        new generation via ``reload``.  Untouched shards are never
        contacted.  The fleet serves throughout; after each shard
        finishes, *on_shard_updated(pos, generation)* fires — the hook
        the exactness harnesses use to query mid-roll.

        The planner adopts the fork's widened shard boxes *before* any
        server swaps: boxes only grow, so pruning stays exact against
        old and new generations alike.  After the roll the root's shard
        manifest is refreshed
        (:meth:`~repro.core.sharded.ShardedFLATIndex.write_shard_manifest`)
        and the control replica re-restores from disk, so repeated
        update batches never stack overlay forks.
        """
        from repro.core.sharded import ShardedFLATIndex
        from repro.core.snapshot import (
            publish_fork_generation,
            ship_index_generation,
        )

        self._check_open()
        t0 = time.perf_counter()
        fork = self._control.fork()
        inserted = fork.apply_batch(
            insert_mbrs=insert_mbrs, delete_ids=delete_ids
        )
        deleted = 0 if delete_ids is None else len(np.atleast_1d(
            np.asarray(delete_ids, dtype=np.int64)
        ))
        # Widened boxes are safe for every generation (grow-only), and
        # queries racing the roll must already see them for shards whose
        # new generation lands mid-batch.
        self.planner = fork.planner
        touched = []
        for pos, shard in enumerate(fork.shards):
            backend = shard.index.store.backend
            if backend.overrides or len(backend) != len(backend.base):
                touched.append(pos)

        generations: dict = {}
        shipping: list = []
        for pos in touched:
            shard = fork.shards[pos]
            _directory, generation = publish_fork_generation(
                shard.index, expected_base=self._generations[pos]
            )
            self._generations[pos] = generation
            generations[pos] = generation
            reload = ("reload", generation, shard.element_ids)
            primary = self._primaries[pos]
            if primary.alive:
                try:
                    self._unwrap(primary.request(reload), pos)
                except CLOSED_ERRORS:
                    self._mark_dead(primary)
            replica = self._replicas[pos]
            if replica is not None:
                shipping.append(dict(
                    ship_index_generation(
                        primary.directory, replica.directory, generation
                    ).as_dict(),
                    shard=pos,
                ))
                if replica.alive:
                    try:
                        self._unwrap(replica.request(reload), pos)
                    except CLOSED_ERRORS:
                        self._mark_dead(replica)
            # A shard whose every server died mid-roll can no longer
            # serve — surface it now rather than on the next query.
            self._endpoint(pos)
            if on_shard_updated is not None:
                on_shard_updated(pos, generation)

        # Refresh the on-disk root manifest and swap the control replica
        # to a clean restore, so the next fork starts from plain
        # mmap-backed stores instead of a growing overlay chain.
        fork.write_shard_manifest(self._root)
        new_control = ShardedFLATIndex.restore(self._root)
        old_control = self._control
        self._control = new_control
        self.planner = new_control.planner
        old_control.close()

        return ClusterUpdateReport(
            inserted_ids=inserted,
            deleted_count=deleted,
            element_count=new_control.element_count,
            shards_updated=touched,
            generations=generations,
            shipping=shipping,
            wall_seconds=time.perf_counter() - t0,
        )

    # -- failure injection / lifecycle ----------------------------------

    def kill_server(self, pos: int, role: str = "primary") -> None:
        """Hard-kill one server process (tests and failover drills).

        The router's routing state is left untouched: the death is
        discovered by the next request that hits the dead connection,
        which is exactly the failover path being drilled.
        """
        handle = (self._primaries if role == "primary" else self._replicas)[pos]
        if handle is None:
            raise ClusterError(f"shard {pos} has no {role} server")
        handle.kill()

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError("cluster is closed")

    def close(self) -> None:
        """Shut the fleet down: graceful shutdown, then terminate."""
        if self._closed:
            return
        self._closed = True
        handles = [h for h in self._primaries + self._replicas
                   if h is not None]
        for handle in handles:
            if handle.alive and handle.process.is_alive():
                try:
                    handle.send(None)  # the stop request: no reply
                except Exception:
                    pass
            handle.close_connection()
        for handle in handles:
            handle.process.join(timeout=10)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=10)
        self._control.close()
        if self._owns_runtime_dir:
            for entry in self._runtime_dir.glob("*.sock"):
                try:
                    entry.unlink()
                except OSError:
                    pass
            try:
                self._runtime_dir.rmdir()
            except OSError:
                pass

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Distributed serving tier: shard servers behind a scatter–gather router.

Everything below one machine's worker pool already exists in this repo:
gap-free spatial shards with an exact MBR-pruning
:class:`~repro.query.planner.QueryPlanner`, numbered append-only
snapshot generations published by atomic rename, and ``(directory,
generation)`` reattach across process boundaries.  This module promotes
those pieces to a serving *fleet*:

* :class:`ShardServerHandle` — one **shard server** process per shard
  and role, a :class:`~repro.query.service.QueryService` pool worker on
  a Pipe: the pool's own start function,
  :func:`~repro.query.service._start_worker`, starts it with no
  generation 0, and it runs the pool processes' task loop,
  :func:`~repro.query.service.serve_requests`, answering the same
  ``_process_run_group`` task a pool process does.  The server holds
  no index, id map or session model: a task names the generation it
  wants and the ``(directory, generation)`` spec it is restored from on
  first use (a read-only mmap — co-located servers share page bytes
  through the OS page cache).  It answers with **shard-local** element
  ids; a session's window is staged once the reply is sent and before
  the server's next task is read.  A task that raises is answered with
  the exception object; the router raises :class:`ClusterError`
  (``shard N server error: Type: msg``) chained from it, and the
  server keeps serving.
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
  workers do.  The router maps each shard's local ids to global ids
  with the id map of the generation it serves, keeps one trajectory
  model per session (:class:`~repro.query.prefetch.SessionTracker`,
  over every box the session sends) and sends a due window as the
  hint of the session query's tasks, as ``QueryService`` does; it
  counts each shard's staging failures from the answers.
  Batches pipeline: up to a window of requests stay in flight per
  server, so aggregate throughput scales with the server count.  A
  batch is reported as a ``QueryService`` batch is: a
  :class:`~repro.query.service.ServiceReport`, folded from the same
  task outcomes by :func:`~repro.query.service.fold_outcomes`.
* **Replication & failover** — a replica fleet is populated by
  *shipping* each shard's snapshot generation directory
  (:func:`~repro.core.snapshot.ship_index_generation`): ``pages.dat``
  is append-only and a generation only appends, so an up-to-date
  replica receives only the tail pages a new generation appended,
  never the unchanged prefix; a relaunch over a replica that already
  holds the served generation ships nothing.  When a server dies
  mid-request the router marks it, replays the in-flight requests of
  that server on the shard's replica and keeps routing there — reads
  are idempotent, so replay is safe.
* **Rolling updates** — :meth:`ClusterRouter.apply_updates` computes
  the commit a ``QueryService`` computes
  (:func:`~repro.query.service.absorb_batch`, drained into
  :meth:`~repro.core.sharded.ShardedFLATIndex.merged`, the bulkload a
  single-machine merge runs), which rebuilds every shard the batch
  touches, then walks the rebuilt shards one at a time: publish the
  shard's rebuild as its next generation, ship that tail increment to
  the replica, then switch the shard's ``(generation, id map)`` pair
  in one assignment — the next task names the new generation, and
  each server restores it from its own directory.  The fleet serves
  continuously; a query observes, per shard, either the old or the
  new generation — never a torn page state — and the planner adopts
  the merge's (grow-only) widened shard boxes up front so pruning
  stays exact throughout the roll.  The root's ``shards.json`` names
  every shard's served generation and is rewritten only after the
  last shard, so a restore or a launch after a roll that died midway
  serves the pre-roll state.

The router is single-threaded by design: one logical request stream
per server, over the Pipe it started the server with.  Correctness is
pinned in ``tests/query/test_cluster.py`` and
``benchmarks/bench_cluster.py``: every response — mid-roll, after a
server kill — is byte-identical to the monolithic
:class:`~repro.core.sharded.ShardedFLATIndex` oracle; with a delta
attached, to the oracle's answers corrected by the same delta.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.geometry.mbr import point_as_box
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.prefetch import SessionTracker
from repro.query.service import (
    CLOSED_ERRORS,
    MODE_PROCESS,
    ServiceReport,
    _process_run_group,
    _start_worker,
    _worker_status,
    absorb_batch,
    fold_outcomes,
    read_reply,
)
from repro.storage.filestore import ShipStats, manifest_filename

# repro.core imports stay function-local: repro.core.flat_index imports
# repro.query at module level, so a top-level import here would close an
# import cycle through the two packages' __init__ modules.

#: Requests kept in flight per server during a batch.  The protocol is
#: strictly request/reply-in-order per Pipe, so the window bounds the
#: reply bytes parked in socket buffers (avoiding a send-side stall
#: against a server that cannot flush replies).
PIPELINE_WINDOW = 32

#: Seconds :meth:`ClusterRouter.launch` waits for a server's first reply.
START_TIMEOUT = 60.0


class ClusterError(RuntimeError):
    """A cluster operation failed: a shard lost every server, a server
    reported an exception, or the fleet could not be launched."""


# -- router side ---------------------------------------------------------


class ShardServerHandle:
    """The router's endpoint for one shard-server process.

    The server is a :class:`~repro.query.service.QueryService` pool
    worker: :func:`~repro.query.service._start_worker` starts it with no
    generation 0 and hands back ``process`` and ``conn``, the router's
    end of its duplex Pipe.  ``alive`` is the *router's belief*: it
    flips to ``False`` only when a request actually fails, so killing a
    process externally is discovered the way a real fleet discovers it —
    by a dead connection.
    """

    def __init__(self, shard_id: int, role: str, directory):
        self.shard_id = shard_id
        #: ``"primary"`` or ``"replica"``.
        self.role = role
        #: The snapshot directory this server restores generations from.
        self.directory = Path(directory)
        self.process, self.conn = _start_worker(
            multiprocessing.get_context(), None, True
        )
        self.alive = True

    def send(self, message) -> None:
        self.conn.send(message)

    def recv(self):
        return read_reply(self.conn)

    def kill(self) -> None:
        """Hard-kill the server process (failure injection for tests).

        Deliberately leaves ``alive`` untouched: the router must
        *discover* the death through a failed request, exactly as it
        would a crashed machine.
        """
        self.process.terminate()
        self.process.join(timeout=10)


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

    Built with :meth:`launch`, which starts one primary server per
    shard and (optionally) one replica per shard, restores the control
    replica and replicates every shard into the replicas' directories.
    Not thread-safe: a router owns one logical request stream per
    server.
    """

    def __init__(self, root, clear_cache_per_query: bool = True):
        self._root = Path(root)
        #: Primary handles, one per shard, filled by :meth:`launch`.
        self._primaries: list = []
        #: Replica handles, positionally aligned with primaries (``None``
        #: entries for shards without a replica).
        self._replicas: list = []
        #: The control replica (see :meth:`_adopt`); :meth:`launch`
        #: restores it once every server has started.
        self._control = None
        self.clear_cache_per_query = clear_cache_per_query
        self.planner: QueryPlanner | None = None
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
        #: Shard position -> ``(generation served, its local->global id
        #: map)``; a roll replaces a shard's pair in one assignment.
        self._served: dict = {}
        #: One trajectory model per session, over every box the session
        #: sends; a due window rides with the session query's tasks.
        self._sessions = SessionTracker()
        #: Staging crawls that raised, per shard, as the answers report them.
        self._prefetch_failures = Counter()
        self._closed = False

    # -- construction ---------------------------------------------------

    @classmethod
    def launch(cls, root, replica_root=None,
               clear_cache_per_query: bool = True) -> "ClusterRouter":
        """Bring up a cluster over a sharded snapshot *root*.

        One primary server per shard serves the shard's latest
        generation.  With *replica_root*, every shard's generation
        directory is shipped there
        (:func:`~repro.core.snapshot.ship_index_generation` — a full
        copy on the fresh directories, incremental ever after) and a
        replica server is started per shard; the router fails over to
        replicas automatically.

        Every server, primary and replica, starts first: a server
        restores lazily, so it needs only the shard count from the
        root's manifest, and no server inherits a file of the control
        replica, which is restored next.  The replicas are shipped
        after that — a replica directory that already holds the served
        generation, its manifest byte-identical to the primary's (an
        earlier launch's ship), is not shipped again and logs a
        zero-byte entry — then every server restores its shard's
        generation (a status task) before this returns.  A server that
        exits before it answers raises :class:`ClusterError` (``shard
        server N (role) exited with code C before it answered``), and so
        does one silent for :data:`START_TIMEOUT` seconds; every other
        reply owed is read first, and a launch that fails stops every
        server it started.
        """
        from repro.core.sharded import ShardedFLATIndex
        from repro.core.snapshot import ship_index_generation

        root = Path(root)
        shard_directory = ShardedFLATIndex.shard_directory
        router = cls(root, clear_cache_per_query)
        #: Launch-time replica shipping accounting (one entry per shard).
        router.replication_log = []
        try:
            for pos in range(ShardedFLATIndex.read_meta(root)["shard_count"]):
                router._primaries.append(
                    ShardServerHandle(pos, "primary", shard_directory(root, pos))
                )
                router._replicas.append(None if replica_root is None else (
                    ShardServerHandle(pos, "replica",
                                      shard_directory(replica_root, pos))
                ))
            router._adopt(ShardedFLATIndex.restore(root))
            for primary, replica in zip(router._primaries, router._replicas):
                if replica is None:
                    continue
                generation = router._served[primary.shard_id][0]
                name = manifest_filename(generation)
                held = replica.directory / name
                if held.exists() and held.read_bytes() == (
                        primary.directory / name).read_bytes():
                    ship = ShipStats(generation, 0, 0, full_copy=False)
                else:
                    ship = ship_index_generation(
                        primary.directory, replica.directory, generation)
                router.replication_log.append(ship.as_dict())
            router._warm_up()
        except BaseException:
            router.close()
            raise
        return router

    def _adopt(self, control) -> None:
        """Route with the restored shard set *control*: its planner and,
        per shard, the generation it restored and that one's id map."""
        self._control = control
        self.planner = control.planner
        self._served = {
            pos: (int(shard.index.store.backend.generation),
                  np.asarray(shard.element_ids, dtype=np.int64))
            for pos, shard in enumerate(control.shards)
        }

    def _warm_up(self) -> None:
        """Every server restores its generation now, all at once, not on
        the first query.  Every reply is read before an error raises, so
        each server reads its stop request, not a reset connection."""
        handles = [(pos, handle) for pos in range(self.shard_count)
                   for handle in self._endpoints(pos)]
        for pos, handle in handles:
            try:
                handle.send(self._task(handle, pos, _worker_status, ()))
            except CLOSED_ERRORS:
                pass  # the server is gone; its read below says so
        replies, lost = [], []
        for pos, handle in handles:
            try:
                if handle.conn.poll(START_TIMEOUT):
                    replies.append((handle.recv(), pos))
                    continue
                problem = f"did not answer within {START_TIMEOUT:g} s"
            except CLOSED_ERRORS:
                handle.process.join(START_TIMEOUT)
                problem = (f"exited with code {handle.process.exitcode} "
                           "before it answered")
            lost.append(f"shard server {pos} ({handle.role}) {problem}")
        if lost:
            raise ClusterError(lost[0])
        for reply, pos in replies:
            self._unwrap(reply, pos)

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
        return {pos: served[0] for pos, served in self._served.items()}

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
        self.servers_lost += 1

    def _task(self, handle: ShardServerHandle, pos: int, fn, args) -> tuple:
        """The task ``fn(generation, spec, *args)`` for shard *pos* on
        *handle*: the generation the shard serves, restored from
        *handle*'s own directory."""
        generation = self._served[pos][0]
        spec = (str(handle.directory), generation)
        return fn, (generation, spec, *args), {}

    @staticmethod
    def _unwrap(reply, pos: int):
        ok, payload = reply
        if not ok:
            raise ClusterError(
                f"shard {pos} server error: {type(payload).__name__}: {payload}"
            ) from payload
        return payload

    def _request_many(self, requests: list) -> list:
        """Run ``(shard_pos, fn, args)`` tasks, pipelined per server.

        Each goes out as :meth:`_task` builds it for the endpoint it is
        sent to.  Requests to one connection are answered strictly in
        order, so per-handle FIFOs pair replies with requests.  A
        connection that dies mid-stream pushes its unanswered requests
        back onto the work queue; they re-resolve to the shard's next
        live endpoint, naming that endpoint's directory (reads are
        idempotent, so a request the dead server may have already
        executed is safely re-run).  An error reply, or a shard left
        with no live server, raises only once every request sent has
        its reply read, so no connection is left holding the answer to
        a request its next caller did not send.
        """
        replies = [None] * len(requests)
        pending: dict = {}
        work = deque(enumerate(requests))

        def drain_one(handle, queue) -> None:
            try:
                reply = handle.recv()
            except CLOSED_ERRORS:
                self._mark_dead(handle)
                work.extendleft(reversed(queue))
                queue.clear()
                return
            i, (pos, _fn, _args) = queue.popleft()
            replies[i] = (reply, pos)

        try:
            while work or any(pending.values()):
                if not work:
                    for handle, queue in pending.items():
                        if queue:
                            drain_one(handle, queue)
                    continue
                item = work.popleft()
                pos, fn, args = item[1]
                handle = self._endpoint(pos)
                queue = pending.setdefault(handle, deque())
                if len(queue) >= PIPELINE_WINDOW:
                    drain_one(handle, queue)
                    work.appendleft(item)
                    continue
                try:
                    handle.send(self._task(handle, pos, fn, args))
                except CLOSED_ERRORS:
                    self._mark_dead(handle)
                    work.appendleft(item)
                    continue
                queue.append(item)
        finally:
            # A batch cut short by a lost shard still reads the replies
            # it is owed.
            for handle, queue in pending.items():
                while queue:
                    drain_one(handle, queue)
        return [self._unwrap(reply, pos) for reply, pos in replies]

    def _gather(self, requests: list) -> list:
        """:meth:`_request_many` over ``_process_run_group`` tasks; one
        outcome per request, as the task returns it but with its answer
        in global ids (ids, or kNN ``(ids, distances)``), its staging
        failures counted for its shard."""
        gathered = []
        for (pos, _fn, _args), reply in zip(requests,
                                              self._request_many(requests)):
            pid, (answer,), stats, prefetch, seconds, shards = reply
            element_ids = self._served[pos][1]
            if isinstance(answer, tuple):
                answer = (element_ids[answer[0]], answer[1])
            else:
                answer = element_ids[answer]
            self._prefetch_failures[pos] += prefetch["failures"]
            gathered.append((pid, (answer,), stats, prefetch, seconds, shards))
        return gathered

    # -- querying -------------------------------------------------------

    def range_query(self, query: np.ndarray,
                    session_id: str | None = None) -> np.ndarray:
        """Scatter the box to the selected servers, gather sorted ids.

        With a *session_id*, the box also feeds the session's trajectory
        model, and every touched server warms its buffer pool for a due
        predicted window — results are byte-identical either way.
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
            ((_pid, (answer,), *_rest),) = self._gather(
                [(pos, _process_run_group, (point[None, :], cold, None, shard_k))]
            )
            return answer

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

        With a *session_id*, each box feeds the session's trajectory
        model at the router, and a due window rides as the hint of that
        query's requests: each server stages it once its reply is sent
        and reports the staging with its next answer on the connection.
        Returns a :class:`~repro.query.service.ServiceReport`, folded by
        :func:`~repro.query.service.fold_outcomes` as a ``QueryService``
        batch is: each reply's whole
        :class:`~repro.storage.stats.IOStats` diff merges into
        ``stats`` (prefetch hits kept apart from physical reads), its
        prefetch info (staging reads, staged and consumed pages) into
        the prefetch fields; ``shard_tasks`` counts the requests sent,
        ``workers_used`` the servers that answered.  Servers lost during
        the batch show in :attr:`servers_lost`.
        """
        self._check_open()
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != 6:
            raise ValueError(f"expected (N, 6) query boxes, got {queries.shape}")
        report = ServiceReport(
            index_name=type(self._control).__name__,
            worker_count=self.shard_count,
            execution_mode=MODE_PROCESS,
            session_id=session_id,
            prefetch_enabled=session_id is not None,
        )
        requests: list = []
        spans: list = []
        cold = self.clear_cache_per_query
        for query in queries:
            selected = self.planner.shards_for_box(query)
            self.last_plan = QueryPlan(
                self.shard_count, [int(pos) for pos in selected]
            )
            spans.append((len(requests), len(selected), query))
            report.shard_tasks += len(selected)
            report.shards_pruned += self.shard_count - len(selected)
            hint = (None if session_id is None
                    else self._sessions.hint(session_id, query))
            requests.extend(
                (int(pos), _process_run_group, (query[None, :], cold, hint))
                for pos in selected
            )
        t0 = time.perf_counter()
        outcomes = self._gather(requests)
        report.wall_seconds = time.perf_counter() - t0
        results = []
        for start, count, query in spans:
            ids = QueryPlanner.merge_sorted_ids(
                [answers[0] for _pid, answers, *_rest
                 in outcomes[start:start + count]]
            )
            if self.delta is not None:
                ids = self.delta.overlay(ids, query)
            results.append(ids)
        fold_outcomes(report, outcomes, results)
        return results, report

    def status(self) -> list:
        """One status dict per shard, from its currently serving server:
        the generation the shard serves, its element count, the server's
        pid and the shard's staging failures so far."""
        self._check_open()
        replies = self._request_many(
            [(pos, _worker_status, ()) for pos in range(self.shard_count)]
        )
        status = []
        for pos, (pid, element_count, unreported) in enumerate(replies):
            self._prefetch_failures[pos] += unreported["failures"]
            status.append({
                "shard": pos,
                "generation": self._served[pos][0],
                "element_count": element_count,
                "pid": pid,
                "prefetch_failures": self._prefetch_failures[pos],
            })
        return status

    # -- rolling updates ------------------------------------------------

    def apply_updates(self, insert_mbrs=None, delete_ids=None,
                      on_shard_updated=None) -> ClusterUpdateReport:
        """Apply an insert/delete batch as a rolling, shard-by-shard update.

        The commit is the one a ``QueryService`` computes: the batch is
        absorbed into a fresh delta over the control replica
        (:func:`~repro.query.service.absorb_batch` — ids from the
        watermark, deletes validated atomically) and drained into
        :meth:`ShardedFLATIndex.merged
        <repro.core.sharded.ShardedFLATIndex.merged>`, which routes it,
        widens shard boxes and rebuilds every shard the batch touches on
        an overlay over the shard's directory.  The shards ``merged``
        replaced — found by object identity — then roll one at a time:
        the rebuild is published as the shard's next generation (atomic
        manifest rename), that increment is shipped to the shard's
        replica, and the shard's ``(generation, id map)`` pair switches
        in one assignment; each server restores the new generation from
        its own directory when a task first names it.  Untouched shards
        are never published.  The fleet
        serves throughout; after each shard finishes,
        *on_shard_updated(pos, generation)* fires — the hook the
        exactness harnesses use to query mid-roll.

        The planner adopts the merge's widened shard boxes *before* any
        shard switches: boxes only grow, so pruning stays exact against
        old and new generations alike.  After the roll the root's shard
        manifest is refreshed with every shard's served generation
        (:meth:`~repro.core.sharded.ShardedFLATIndex.write_shard_manifest`)
        and the control replica re-restores from disk, so the next batch
        rebuilds on each shard's latest generation.  A roll that dies
        before that leaves the root naming the generations it named
        before, so a restore or a launch serves the pre-roll state.
        """
        from repro.core.sharded import ShardedFLATIndex
        from repro.core.snapshot import (
            publish_fork_generation,
            ship_index_generation,
        )

        self._check_open()
        t0 = time.perf_counter()
        delta, inserted, deleted = absorb_batch(self._control, None,
                                                insert_mbrs, delete_ids)
        merged = self._control.merged(*delta.drain())
        # Widened boxes are safe for every generation (grow-only), and
        # queries racing the roll must already see them for shards whose
        # new generation lands mid-batch.
        self.planner = merged.planner
        touched = [
            pos for pos, (old, new) in enumerate(
                zip(self._control.shards, merged.shards)
            ) if new is not old
        ]

        generations: dict = {}
        shipping: list = []
        for pos in touched:
            shard = merged.shards[pos]
            _directory, generation = publish_fork_generation(shard.index)
            generations[pos] = generation
            replica = self._replicas[pos]
            if replica is not None:
                shipping.append(dict(
                    ship_index_generation(
                        self._primaries[pos].directory, replica.directory,
                        generation,
                    ).as_dict(),
                    shard=pos,
                ))
            # Published and shipped: the shard's next task names the new
            # generation, and each server restores it on first use.
            self._served[pos] = (
                generation, np.asarray(shard.element_ids, dtype=np.int64)
            )
            if on_shard_updated is not None:
                on_shard_updated(pos, generation)

        # Refresh the on-disk root manifest and swap the control replica
        # to a clean restore of each shard's latest generation, the only
        # base a shard's next rebuild can be published over.
        merged.write_shard_manifest(self._root, [
            self._served[pos][0] for pos in range(self.shard_count)
        ])
        old_control = self._control
        self._adopt(ShardedFLATIndex.restore(self._root))
        old_control.close()

        return ClusterUpdateReport(
            inserted_ids=inserted,
            deleted_count=deleted,
            element_count=self._control.element_count,
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
            handle.conn.close()
        for handle in handles:
            handle.process.join(timeout=10)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=10)
        if self._control is not None:
            self._control.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

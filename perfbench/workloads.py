"""The benchmark's workloads: inputs, set-up, timed phase, answer checks.

Every workload is driven by one closed-loop client: it sends the next
query only after the previous answer returned.  Inputs (the dataset
from ``build_microcircuit`` and the query boxes) are generated from the
seed; the program only ever sees MBRs and boxes.  Each timed phase runs
for the requested seconds and at least as many queries as the
workload's tail percentile needs (see :func:`perfbench.measure.samples_for`);
answers are stored and compared to the brute-force oracle after the
clock stops.

A *pass* is one trip through a workload's fixed query list (or, for
churn, one *episode* of a fixed number of commits).
``page_reads_per_query`` is counted over the first complete pass, so it
repeats exactly between runs of one seed however many passes a run
completes.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.measure import (
    BruteForce,
    CpuTimer,
    PeakMemory,
    child_pids,
    cpu_ticks,
    directory_bytes,
    samples_for,
    stolen_share,
)

_clock = time.perf_counter

#: Bytes of one user element: an MBR of six float64 coordinates.
ELEMENT_BYTES = 48


@dataclass
class Phase:
    """What one timed phase measured."""

    wall: float = 0.0
    #: CPU seconds of the benchmark's processes over the timed phase.
    cpu: float = 0.0
    #: Busy and stolen CPU ticks of the guest over the intervals ``wall``
    #: covers (:func:`perfbench.measure.cpu_ticks`).
    ticks: tuple = (0, 0)
    latencies: list = field(default_factory=list)
    #: Per-query CPU seconds of the serving processes while in flight.
    cpu_latencies: list = field(default_factory=list)
    #: ``(answer key, ids or None)`` per query, in order.
    answers: list = field(default_factory=list)
    errors: int = 0
    #: Queries attempted that produced no answer and no timing.
    lost: int = 0
    #: Demand reads / queries of the first complete pass.
    pass_reads: int = 0
    pass_queries: int = 0
    passes: int = 0
    #: Demand I/O counters over the whole phase.
    stats: object = None
    peak_rss_mib: float = 0.0
    commits: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def queries(self) -> int:
        return len(self.latencies)

    def add_ticks(self, before: tuple) -> None:
        """Count the guest's CPU ticks since the *before* reading toward ``wall``."""
        after = cpu_ticks()
        self.ticks = (self.ticks[0] + after[0] - before[0],
                      self.ticks[1] + after[1] - before[1])

    @property
    def stolen(self) -> float:
        """Share of the guest's runnable CPU time the hypervisor stole in ``wall``."""
        return stolen_share((0, 0), self.ticks)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    notes: list = field(default_factory=list)


class Workload:
    """One named workload: inputs, set-up, timed phase, checks, regime, close."""

    name = ""
    #: Percentile of the latency tail each run prints; every run serves
    #: at least the queries the tail rule needs for it.
    tail_percentile = 99.0

    def __init__(self, **scale):
        for key, value in scale.items():
            if not hasattr(self, key):
                raise TypeError(f"{type(self).__name__} has no scale knob {key!r}")
            setattr(self, key, value)

    @property
    def min_queries(self) -> int:
        return samples_for(self.tail_percentile)

    # -- shared helpers --------------------------------------------------

    def _circuit(self, seed: int):
        from repro.data.microcircuit import build_microcircuit

        circuit = build_microcircuit(self.elements, side=self.side, seed=seed)
        return circuit.mbrs(), circuit.space_mbr

    @staticmethod
    def _build_export(mbrs, space, directory: Path, codec: str, parts: dict):
        from repro.core import FLATIndex, snapshot
        from repro.storage import PageStore

        t0 = _clock()
        flat = FLATIndex.build(PageStore(), mbrs, space_mbr=space)
        t1 = _clock()
        snapshot.snapshot_index(flat, directory, codec=codec)
        t2 = _clock()
        parts["build_s"] = t1 - t0
        parts["export_s"] = t2 - t1
        return flat

    @staticmethod
    def _restore(directory: Path, parts: dict, **kwargs):
        from repro.core import snapshot

        t0 = _clock()
        index = snapshot.restore_index(directory, **kwargs)
        parts["restore_s"] = _clock() - t0
        return index

    def check(self, oracle_answers: dict, phases) -> Verdict:
        """Compare every stored answer to the oracle's for its key."""
        verdict = Verdict()
        for phase in phases:
            verdict.attempted += phase.queries + phase.lost + len(phase.commits)
            verdict.failed += phase.errors
            for key, ids in phase.answers:
                if ids is None:
                    continue
                if not np.array_equal(ids, oracle_answers[key]):
                    verdict.mismatches += 1
        verdict.failed += verdict.mismatches
        return verdict


def _static_oracle(mbrs: np.ndarray, queries: np.ndarray) -> dict:
    oracle = BruteForce(mbrs)
    return {i: oracle.query(q) for i, q in enumerate(queries)}


def _time_query(call, phase: Phase, key, tracer, cpu):
    """Run one closed-loop query; record latencies, answer or error."""
    c0 = cpu()
    t0 = _clock()
    if tracer is not None:
        tracer.begin_request("query", t0)
    try:
        ids = call()
    except Exception:  # noqa: BLE001 - counted into error_rate
        ids = None
        phase.errors += 1
    t1 = _clock()
    c1 = cpu()
    if tracer is not None:
        tracer.end_request(t1)
    phase.latencies.append(t1 - t0)
    phase.cpu_latencies.append(c1 - c0)
    phase.answers.append((key, ids))
    return t1


# ---------------------------------------------------------------------------


def _closed_loop(call, stats, queries, seconds, tracer, min_queries,
                 after_query=None, probe=None) -> Phase:
    """Closed-loop ``call(query)`` over *queries*, cycled in passes.

    *stats* returns the demand :class:`IOStats` the queries charge;
    *after_query* runs after each query, outside its timing, and so do
    the *probe*'s ticks.
    """
    phase = Phase()
    n = len(queries)
    start_stats = stats().snapshot()
    pass_end_stats = start_stats
    cpu = CpuTimer()
    c_start = cpu()
    ticks = cpu_ticks()
    t_start = _clock()
    deadline = t_start + seconds
    i = 0
    while True:
        query = queries[i % n]
        t1 = _time_query(lambda q=query: call(q), phase, i % n, tracer, cpu)
        if after_query is not None:
            after_query()
        if probe is not None:
            probe.tick()
        i += 1
        if i == n:
            pass_end_stats = stats().snapshot()
        phase.passes = i // n
        if t1 >= deadline and i >= min_queries and phase.passes:
            break
    phase.wall = _clock() - t_start
    phase.cpu = cpu() - c_start
    phase.add_ticks(ticks)
    phase.stats = stats().diff(start_stats)
    phase.pass_reads = pass_end_stats.diff(start_stats).total_reads
    phase.pass_queries = n
    return phase


# ---------------------------------------------------------------------------


class HotspotDelta64(Workload):
    """A delta64 store behind a byte-budgeted pool smaller than the hotspot."""

    name = "hotspot-delta64"
    elements = 250_000
    side = 36.0
    queries = 480
    #: Share of the volume the query centres fall into: the hotspot of
    #: ``benchmarks/bench_scale.py`` (``HOTSPOT_FRACTION``).
    hot_fraction = 0.05
    #: Pool budget as a share of the hotspot working set's stored bytes.
    pool_share = 0.4
    #: Queries replayed (the end of the list) to bring the pool to the
    #: state every pass starts from.
    warmup = 48
    setups = 3

    def inputs(self, seed: int) -> dict:
        from repro.query import SCALED_SN_FRACTION, random_range_queries

        mbrs, space = self._circuit(seed)
        boxes = random_range_queries(
            space, SCALED_SN_FRACTION, self.queries, seed=seed + 1
        )
        # bench_scale's hotspot: SN extents, centres drawn from a central
        # cube.  Kept as a copy so that a change to that script cannot
        # move this benchmark's inputs.
        extents = boxes[:, 3:] - boxes[:, :3]
        lo, span = space[:3], space[3:] - space[:3]
        side = self.hot_fraction ** (1.0 / 3.0)
        rng = np.random.default_rng(seed + 2)
        centres = rng.uniform(lo + span * (0.5 - side / 2), lo + span * (0.5 + side / 2),
                              size=(len(boxes), 3))
        queries = np.concatenate([centres - extents / 2, centres + extents / 2], axis=1)
        return {"mbrs": mbrs, "space": space, "queries": queries,
                "hot_pages": _working_set(mbrs, space, queries)}

    def setup(self, inputs: dict, directory: Path) -> dict:
        from repro.storage import BufferPool
        from repro.storage.filestore import FilePageBackend

        parts: dict = {}
        self._build_export(inputs["mbrs"], inputs["space"], directory, "delta64", parts)
        backend = FilePageBackend.open(directory)
        stored = sum(backend.stored_bytes(p) for p in inputs["hot_pages"])
        backend.close()
        budget = int(self.pool_share * stored)
        index = self._restore(directory, parts, buffer=BufferPool(byte_capacity=budget))
        store = index.store
        for query in inputs["queries"][-self.warmup:]:
            store.decoded.clear()
            index.range_query(query)
        return {"dir": directory, "index": index, "budget": budget,
                "hot_stored_bytes": stored, "parts": parts,
                "live": len(inputs["mbrs"])}

    def timed(self, state: dict, inputs: dict, seconds: float, tracer=None,
              probe=None) -> Phase:
        index = state["index"]
        store = index.store
        pool = store.buffer
        charged, held = [], []

        def call(query):
            store.decoded.clear()
            return index.range_query(query)

        def sample_pool():
            # What the pool charges against its budget, beside the bytes
            # it really holds.
            charged.append(pool.resident_bytes)
            held.append(sum(len(page) for page in pool._pages.values()))

        phase = _closed_loop(call, lambda: store.stats, inputs["queries"], seconds,
                             tracer, self.min_queries,
                             None if tracer is None else sample_pool, probe)
        if charged:
            phase.extras["charged_bytes"] = float(np.mean(charged))
            phase.extras["held_bytes"] = float(np.mean(held))
        return phase

    def verify(self, state: dict, inputs: dict, phases) -> Verdict:
        return self.check(_static_oracle(inputs["mbrs"], inputs["queries"]), phases)

    def regime(self, state: dict, inputs: dict) -> dict:
        from repro.storage.constants import PAGE_SIZE

        store = state["index"].store
        pages = len(inputs["hot_pages"])
        return {
            "elements": len(inputs["mbrs"]),
            "pages": len(store),
            "snapshot_bytes": directory_bytes(state["dir"]),
            "codec": "delta64",
            "hot_fraction_of_volume": self.hot_fraction,
            "buffer_pool": (
                f"LRU, byte budget {state['budget']} B charged at stored size, "
                "kept across queries"
            ),
            "hotspot_working_set": (
                f"{pages} pages = {pages * PAGE_SIZE} B raw, "
                f"{state['hot_stored_bytes']} B stored"
            ),
            "pool_smaller_than_working_set": state["budget"] < state["hot_stored_bytes"],
            "decoded_cache": "unbounded, emptied before every query",
            "os_page_cache": "left alone",
            "delta": "off",
            "prefetch": "off",
            "threads": "client only (FLATIndex.range_query called directly)",
            "processes": 1,
        }

    def close(self, state: dict) -> None:
        state["index"].store.close()


class _TimedTask:
    """A worker-task future that records the task's CPU seconds at ``result()``.

    The CPU runs from submit to the returned result, on *cpu* (the
    client and the worker process).  Under a tracer the task is one
    query request, and the worker's spans join it.
    """

    def __init__(self, future, cpu, sink: list, tracer):
        self._future = future
        self._cpu = cpu
        self._sink = sink
        self._tracer = tracer
        self._start = cpu()

    def result(self, timeout=None):
        value = self._future.result(timeout)
        if self._start is not None:
            self._sink.append(self._cpu() - self._start)
            self._start = None
            if self._tracer is not None:
                self._tracer.adopt_task_result(value)
                self._tracer.end_request()
        return value


def _working_set(mbrs, space, queries) -> list:
    """Ids of the pages one pass over *queries* touches.

    Measured on an in-RAM build of the same index (page ids are those
    of the exported snapshot), so the pool budget can be set from it
    before set-up.
    """
    from repro.core import FLATIndex
    from repro.storage import PageStore

    index = FLATIndex.build(PageStore(), mbrs, space_mbr=space)
    for query in queries:
        index.range_query(query)
    return index.store.buffer.page_ids()


# ---------------------------------------------------------------------------


class SessionsPrefetch(Workload):
    """Structure-following analyst sessions served with prefetching on."""

    name = "sessions-prefetch"
    elements = 250_000
    side = 36.0
    sessions = 48
    session_length = 32
    setups = 3

    def inputs(self, seed: int) -> dict:
        from repro.query import SCALED_SN_FRACTION, trajectory_range_queries

        mbrs, space = self._circuit(seed)
        sessions = [
            trajectory_range_queries(
                space, SCALED_SN_FRACTION, self.session_length,
                seed=seed * 1000 + 7 + s,
            )
            for s in range(self.sessions)
        ]
        return {"mbrs": mbrs, "space": space, "sessions": sessions,
                "queries": np.concatenate(sessions)}

    def _service(self, index, inputs: dict):
        from repro.query import MODE_PROCESS, QueryService

        service = QueryService(index, workers=1, mode=MODE_PROCESS,
                               clear_cache_per_query=True, prefetch=True)
        # A session-less query starts the worker process and its engine;
        # it feeds no trajectory model.
        service.submit(inputs["queries"][0]).result()
        return service

    def setup(self, inputs: dict, directory: Path) -> dict:
        parts: dict = {}
        self._build_export(inputs["mbrs"], inputs["space"], directory, "raw", parts)
        index = self._restore(directory, parts)
        service = self._service(index, inputs)
        return {"dir": directory, "index": index, "service": service,
                "parts": parts, "live": len(inputs["mbrs"]), "fresh": True}

    def timed(self, state: dict, inputs: dict, seconds: float, tracer=None,
              probe=None) -> Phase:
        from repro.storage import IOStats

        phase = Phase()
        phase.stats = IOStats()
        totals = {"prefetch_reads": {}, "staged": 0, "consumed": 0, "failures": 0,
                  "session_logical": []}
        memory = PeakMemory()
        deadline = _clock() + seconds
        done = False
        while not done:
            service = state["service"] if state.pop("fresh", False) else None
            if service is None:
                state["service"].close()
                service = state["service"] = self._service(state["index"], inputs)
            cpu = CpuTimer(child_pids())
            tasks = self._capture(service, cpu, phase, tracer)
            failures_before = service.prefetch_failures
            stats_before = service.aggregate_stats().snapshot()
            c_pass = cpu()
            ticks = cpu_ticks()
            t_pass = _clock()
            for s, queries in enumerate(inputs["sessions"]):
                self._session(service, s, queries, phase, totals, tasks)
                if probe is not None:
                    probe.tick()
                done = (_clock() >= deadline and phase.queries >= self.min_queries
                        and phase.passes > 0)
                if done:
                    break
            phase.wall += _clock() - t_pass
            phase.cpu += cpu() - c_pass
            phase.add_ticks(ticks)
            # Each pass has its own worker process: sample its mark
            # before the next pass replaces it.
            phase.peak_rss_mib = max(phase.peak_rss_mib, memory.sample())
            phase.stats.merge(service.aggregate_stats().diff(stats_before))
            totals["failures"] += service.prefetch_failures - failures_before
            if not phase.passes:
                phase.pass_reads = phase.stats.total_reads
                phase.pass_queries = phase.queries
            phase.passes += 1
        assert len(phase.cpu_latencies) == phase.queries, "a query timed twice or never"
        phase.extras.update(totals)
        return phase

    @staticmethod
    def _capture(service, cpu, phase: Phase, tracer) -> list:
        """Time every worker task *service*'s sessions submit; return the list.

        In process mode ``run_session`` hands each query to the worker
        pool itself, one task at a time, and waits for its result.
        """
        pool = service._pool
        submit = pool.submit
        tasks: list = []

        def capture(fn, *args, **kwargs):
            if tracer is not None:
                tracer.begin_request("query")
            task = _TimedTask(submit(fn, *args, **kwargs), cpu, phase.cpu_latencies,
                              tracer)
            tasks.append(task)
            return task

        pool.submit = capture
        return tasks

    def _session(self, service, s, queries, phase, totals, tasks) -> None:
        """Serve session *s* through ``run_session``; record what it did."""
        tasks.clear()
        timed_before = len(phase.cpu_latencies)
        try:
            report = service.run_session(queries, f"session-{s}")
        except Exception:  # noqa: BLE001 - counted into error_rate
            phase.errors += len(queries)
            phase.lost += len(queries)
            del phase.cpu_latencies[timed_before:]
            return
        phase.latencies.extend(report.latencies_seconds)
        # A task's result is (pid, per-query ids, ...); one query each.
        phase.answers.extend(
            (s * self.session_length + j, task.result()[1][0])
            for j, task in enumerate(tasks)
        )
        logical: dict = {}
        for counts in (report.reads_by_category, report.prefetch_hits_by_category):
            for c, n in counts.items():
                logical[c] = logical.get(c, 0) + n
        totals["session_logical"].append((s, logical))
        for c, n in report.prefetch_reads_by_category.items():
            totals["prefetch_reads"][c] = totals["prefetch_reads"].get(c, 0) + n
        totals["staged"] += report.prefetch_staged
        totals["consumed"] += report.prefetch_consumed

    def verify(self, state: dict, inputs: dict, phases) -> Verdict:
        verdict = self.check(_static_oracle(inputs["mbrs"], inputs["queries"]), phases)
        # demand reads + prefetch hits == the prefetch-free reads, per
        # category and per session.
        index = state["index"]
        store = index.store.view()
        clone = index.with_store(store)
        expected = []
        for queries in inputs["sessions"]:
            before = store.stats.snapshot()
            for query in queries:
                store.clear_cache()
                clone.range_query(query)
            expected.append(store.stats.diff(before).reads)
        broken = sum(
            1
            for phase in phases
            for s, logical in phase.extras["session_logical"]
            if logical != expected[s]
        )
        if broken:
            verdict.failed += broken
            verdict.notes.append(
                f"prefetch accounting identity broken in {broken} session(s)"
            )
        return verdict

    def regime(self, state: dict, inputs: dict) -> dict:
        store = state["index"].store
        return {
            "elements": len(inputs["mbrs"]),
            "pages": len(store),
            "snapshot_bytes": directory_bytes(state["dir"]),
            "codec": "raw",
            "sessions_per_pass": f"{self.sessions} x {self.session_length} queries, "
                                 "one session at a time, fresh service per pass",
            "mode": "process, 1 worker",
            "buffer_pool": "unbounded per worker view, emptied before every query",
            "decoded_cache": "unbounded, emptied before every query",
            "delta": "off",
            "prefetch": "on (trajectory model, default PrefetchConfig)",
            "threads": "client; the worker process answers, then stages the "
                       "hint's window before it returns the result",
            "processes": 2,
        }

    def close(self, state: dict) -> None:
        state["service"].close()
        state["index"].store.close()


# ---------------------------------------------------------------------------


class Churn(Workload):
    """Steady-state churn beside warm SN queries, in process mode."""

    name = "churn"
    elements = 100_000
    side = 27.0
    queries = 300
    batch = 1000
    delta_threshold = 8000
    batches_per_episode = 8
    #: Warm queries after each commit.  No measured workload sets this
    #: ratio; it is chosen so that the first query after a commit (a new
    #: version: the worker re-restores and starts cold) is one in
    #: sixteen, beyond the median and inside the p99 tail, and so that
    #: the merges of the episodes a run needs for 1000 queries fit in it.
    #: Commit cost is reported apart from the per-query figures, so the
    #: ratio does not weigh it in.
    queries_per_batch = 16
    warmup = 4
    setups = 3

    def inputs(self, seed: int) -> dict:
        from repro.data.microcircuit import build_microcircuit
        from repro.query import SCALED_SN_FRACTION, random_range_queries

        mbrs, space = self._circuit(seed)
        queries = random_range_queries(
            space, SCALED_SN_FRACTION, self.queries, seed=seed + 1
        )
        pool = build_microcircuit(
            self.batch * self.batches_per_episode, side=self.side, seed=seed + 2
        ).mbrs()
        return {"mbrs": mbrs, "space": space, "queries": queries,
                "inserts": pool, "delete_seed": seed + 3}

    def _service(self, index, inputs: dict):
        from repro.query import MODE_PROCESS, QueryService

        service = QueryService(
            index, workers=1, mode=MODE_PROCESS, clear_cache_per_query=False,
            delta_threshold=self.delta_threshold,
        )
        for query in inputs["queries"][: self.warmup]:
            service.submit(query).result()
        return service

    def setup(self, inputs: dict, directory: Path) -> dict:
        parts: dict = {}
        self._build_export(inputs["mbrs"], inputs["space"], directory / "gen", "raw",
                           parts)
        index = self._restore(directory / "gen", parts)
        service = self._service(index, inputs)
        return {"dir": directory, "episode_dir": directory / "gen",
                "template": directory / "template", "index": index,
                "service": service, "parts": parts, "live": len(inputs["mbrs"]),
                "fresh": True, "episodes": 0}

    def _new_episode(self, state: dict, inputs: dict) -> None:
        from repro.core import snapshot

        state["service"].close()
        state["index"].store.close()
        state["episodes"] += 1
        episode_dir = state["dir"] / f"episode-{state['episodes']}"
        shutil.copytree(state["template"], episode_dir)
        shutil.rmtree(state["episode_dir"])
        state["episode_dir"] = episode_dir
        state["index"] = snapshot.restore_index(episode_dir)
        state["service"] = self._service(state["index"], inputs)

    def timed(self, state: dict, inputs: dict, seconds: float, tracer=None,
              probe=None) -> Phase:
        from repro.storage import IOStats
        from repro.storage.filestore import PAGES_FILENAME

        phase = Phase()
        phase.stats = IOStats()
        memory = PeakMemory()
        queries = inputs["queries"]
        n = len(queries)
        if not state["template"].exists():
            # Generation 0, kept for the episodes after the first.
            shutil.copytree(state["episode_dir"], state["template"])
        deadline = _clock() + seconds
        while True:
            if not state.pop("fresh", False):
                self._new_episode(state, inputs)
            service = state["service"]
            data_file = state["episode_dir"] / PAGES_FILENAME
            bytes_before = data_file.stat().st_size
            rng = np.random.default_rng(inputs["delete_seed"])
            live = np.ones(len(inputs["mbrs"]), dtype=bool)
            start_stats = service.aggregate_stats().snapshot()
            cpu = CpuTimer(child_pids())
            memory.reset()
            commit_wall = commit_cpu = 0.0
            c_episode = cpu()
            t_episode = _clock()
            for b in range(self.batches_per_episode):
                inserts = inputs["inserts"][b * self.batch:(b + 1) * self.batch]
                deletes = rng.choice(np.flatnonzero(live), size=self.batch,
                                     replace=False)
                if tracer is not None:
                    tracer.begin_request("commit")
                c0 = cpu()
                t0 = _clock()
                try:
                    report = service.apply_updates(inserts=inserts, delete_ids=deletes)
                except Exception:  # noqa: BLE001 - counted into error_rate
                    report = None
                    phase.errors += 1
                t1 = _clock()
                c1 = cpu()
                commit_wall += t1 - t0
                commit_cpu += c1 - c0
                if tracer is not None:
                    tracer.end_request(t1)
                if report is not None:
                    live = np.concatenate(
                        [live, np.ones(len(report.inserted_ids), dtype=bool)]
                    )
                    live[deletes] = False
                    phase.commits.append({
                        "seconds": t1 - t0, "cpu": c1 - c0, "merged": report.merged,
                        "elements": report.update_count,
                    })
                # Steal is counted over the queries only: a merge keeps
                # both vCPUs busy and would dilute it.
                ticks = cpu_ticks()
                for j in range(self.queries_per_batch):
                    k = (b * self.queries_per_batch + j) % n
                    query = queries[k]
                    _time_query(lambda q=query: service.submit(q).result(), phase,
                                (b, k), tracer, cpu)
                    if probe is not None:
                        probe.tick()
                phase.add_ticks(ticks)
            # The per-query figures leave the commits out; those are
            # reported on their own (phase.commits).
            phase.wall += _clock() - t_episode - commit_wall
            phase.cpu += cpu() - c_episode - commit_cpu
            phase.peak_rss_mib = max(phase.peak_rss_mib, memory.sample())
            episode_stats = service.aggregate_stats().diff(start_stats)
            phase.stats.merge(episode_stats)
            if not phase.passes:
                phase.pass_reads = episode_stats.total_reads
                phase.pass_queries = self.batches_per_episode * self.queries_per_batch
            phase.passes += 1
            phase.extras["live"] = int(live.sum())
            phase.extras["appended_bytes"] = data_file.stat().st_size - bytes_before
            phase.extras["stored_bytes"] = directory_bytes(state["episode_dir"])
            if _clock() >= deadline and phase.queries >= self.min_queries:
                break
        return phase

    def oracle(self, inputs: dict) -> dict:
        """Oracle answers per ``(batch, query)``, replaying one episode's commits.

        Inserted ids continue the base watermark in commit order, and
        deletes are drawn from the same seeded generator as the client.
        """
        oracle = BruteForce(np.concatenate([inputs["mbrs"], inputs["inserts"]]))
        live = np.zeros(len(oracle.ids), dtype=bool)
        live[: len(inputs["mbrs"])] = True
        rng = np.random.default_rng(inputs["delete_seed"])
        answers = {}
        n = len(inputs["queries"])
        base = len(inputs["mbrs"])
        for b in range(self.batches_per_episode):
            known = base + b * self.batch
            deletes = rng.choice(np.flatnonzero(live[:known]), size=self.batch,
                                 replace=False)
            live[known:known + self.batch] = True
            live[deletes] = False
            for j in range(self.queries_per_batch):
                k = (b * self.queries_per_batch + j) % n
                answers[(b, k)] = oracle.query(inputs["queries"][k], live)
        return answers

    def verify(self, state: dict, inputs: dict, phases) -> Verdict:
        return self.check(self.oracle(inputs), phases)

    def regime(self, state: dict, inputs: dict) -> dict:
        return {
            "elements": len(inputs["mbrs"]),
            "pages_at_start": len(state["index"].store),
            "snapshot_bytes_at_start": directory_bytes(state["template"]),
            "codec": "raw",
            "delta": (
                f"threshold {self.delta_threshold} rows, batches of {self.batch} "
                f"inserts + {self.batch} deletes, merge only at the threshold "
                "(no merge interval)"
            ),
            "episode": (
                f"{self.batches_per_episode} commits, {self.queries_per_batch} warm "
                "SN queries after each, from a fresh copy of generation 0"
            ),
            "flush_policy": (
                "merges fsync pages.dat in append_overlay_generation; manifests "
                "and index files are renamed into place without fsync"
            ),
            "buffer_pool": "unbounded per worker engine, warm across queries of a version",
            "decoded_cache": "unbounded, warm across queries of a version",
            "prefetch": "off",
            "threads": "client (commits) + 1 query worker process",
            "processes": 2,
        }

    def close(self, state: dict) -> None:
        state["service"].close()
        state["index"].store.close()


WORKLOADS = {cls.name: cls for cls in (HotspotDelta64, SessionsPrefetch, Churn)}

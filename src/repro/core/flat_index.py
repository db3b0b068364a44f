"""FLAT: the two-phase (seed + crawl) range-query index.

Build (Sec. V): STR-partition the space (Algorithm 1), write one object
page per partition, compute neighbor partitions via a temporary R-Tree,
pack the resulting metadata records into the seed tree's leaves.

Query (Sec. VI, Algorithm 2): find one intersecting page through the
seed index, then breadth-first-search the neighbor graph — reading an
object page only if the record's *page MBR* intersects the query and
expanding neighbors only if its *partition MBR* does.

The BFS is the crawl kernel in :mod:`repro.core.crawl`, which runs one
whole *frontier* at a time over ``(record, query)`` pairs:
:meth:`FLATIndex.range_query` is a group of one and
:meth:`FLATIndex.range_query_multi` a group of many.  The original
record-at-a-time crawl is kept as :meth:`FLATIndex.range_query_scalar`
— the reference implementation a differential test holds the kernel to
(same pages read, same element ids returned).

Known deviation from the paper's pseudocode: Algorithm 2 as printed
only marks pages visited when their page MBR intersects the query, so
two mutually-neighboring records whose partitions (but not pages)
intersect the query would re-enqueue each other forever.  We mark
*records* visited on first enqueue, which terminates and provably reads
the same set of pages.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import (
    mbr_distance_to_point,
    mbr_union_many,
    point_as_box,
    validate_mbrs,
)
from repro.query.knn import expanding_radius_knn
from repro.storage.buffer import BufferPool
from repro.storage.constants import OBJECT_PAGE_CAPACITY
from repro.storage.pagestore import (
    MemoryPageBackend,
    OverlayPageBackend,
    PageStore,
)
from repro.storage.serial import decode_element_page, encode_element_page
from repro.storage.stats import CATEGORY_OBJECT, IOStats
from repro.core.crawl import crawl
from repro.core.metadata import MetadataRecord
from repro.core.neighbors import compute_neighbors, neighbor_counts
from repro.core.partition import compute_partitions
from repro.core.seed_index import SeedIndex


@dataclass
class BuildReport:
    """Timings and statistics of one FLAT build (Fig. 10's breakdown)."""

    partitioning_seconds: float = 0.0
    finding_neighbors_seconds: float = 0.0
    packing_seconds: float = 0.0
    partition_count: int = 0
    pointer_counts: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def total_seconds(self) -> float:
        return (
            self.partitioning_seconds
            + self.finding_neighbors_seconds
            + self.packing_seconds
        )


@dataclass
class CrawlStats:
    """Per-query bookkeeping of the breadth-first search (Sec. VII-E.2)."""

    seeded: bool = False
    records_dequeued: int = 0
    #: Unique object pages read this query, seed-phase probes included.
    #: Each page is counted once even when the crawl revisits a page the
    #: seed phase already probed, so on a cold cache this equals the
    #: query's object-category buffer-miss reads in ``IOStats`` (the
    #: paper's per-query object-read metric).
    object_pages_read: int = 0
    #: Peak queued entries: deque length (scalar crawl) or frontier
    #: size (batched crawl; always <= the scalar peak for one query).
    max_queue_length: int = 0
    #: Visited-set footprint, measured as 8 bytes per visited record id
    #: in *both* engines so the metric stays comparable (the batched
    #: crawl's reusable bitmask is persistent index state, like the
    #: record table, not per-query bookkeeping).
    visited_bytes: int = 0
    result_count: int = 0

    @property
    def bookkeeping_bytes(self) -> int:
        """Peak queue footprint: one 8-byte record id per queued entry.

        This is the paper's Sec. VII-E.2 metric (it counts the BFS
        queue); the visited set is accounted separately in
        :attr:`visited_bytes`.
        """
        return self.max_queue_length * 8

    @property
    def total_bookkeeping_bytes(self) -> int:
        """Queue plus visited-set footprint (everything the crawl retains)."""
        return self.bookkeeping_bytes + self.visited_bytes


class FLATIndex:
    """A bulkloaded FLAT index over a simulated page store."""

    def __init__(
        self,
        store: PageStore,
        seed_index: SeedIndex,
        object_page_element_ids: dict,
        element_count: int,
        build_report: BuildReport,
        page_capacity: int = OBJECT_PAGE_CAPACITY,
        next_id: int | None = None,
    ):
        self.store = store
        self.seed_index = seed_index
        #: object page id -> original element ids, in slot order.
        self.object_page_element_ids = object_page_element_ids
        #: Live elements.
        self.element_count = element_count
        #: Per-object-page element cap the index was built with (and
        #: every rebuild of it keeps).
        self.page_capacity = page_capacity
        #: Element-id watermark: ids of deleted elements are never
        #: reused, so id-indexed directories size to this, not to
        #: :attr:`element_count`.
        self._next_id = element_count if next_id is None else next_id
        self.build_report = build_report
        self.last_crawl_stats: CrawlStats | None = None
        #: Expanding-radius rounds of the most recent :meth:`knn_query`.
        self.last_knn_rounds: int = 0
        #: Reusable visited bitmask of the crawl kernel (per clone;
        #: managed by :func:`~repro.core.crawl.crawl`).
        self._visited_scratch: np.ndarray | None = None
        #: kNN directories — ``element_page``/``element_slot`` (element
        #: id -> object page / slot, built lazily) and ``cover`` (the
        #: covering box, see :meth:`covering_mbr`).  A plain dict shared
        #: *by reference* across :meth:`with_store` clones, so whichever
        #: index or worker clone builds them first publishes them to
        #: every sibling (the values are deterministic, so a concurrent
        #: double-build is benign).
        self._knn_state: dict = {}
        #: Sorted ids of the live elements, built on the first
        #: :meth:`contains_elements` (a rebuild carries its own).
        self._live_ids: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        store: PageStore,
        element_mbrs: np.ndarray,
        space_mbr: np.ndarray | None = None,
        page_capacity: int = OBJECT_PAGE_CAPACITY,
        seed_fanout: int | None = None,
        spatial_metadata_grouping: bool = True,
        element_ids: np.ndarray | None = None,
        next_id: int | None = None,
    ) -> "FLATIndex":
        """Bulkload FLAT over *element_mbrs* (Algorithm 1 + data layout).

        ``seed_fanout`` optionally caps the seed tree's internal fanout
        (kept in lockstep with the R-Tree baselines by the experiments'
        depth-matched configurations).  ``spatial_metadata_grouping``
        controls how metadata records are packed onto seed-tree leaves
        (STR tiles vs raw partition order; ablation knob).

        ``element_ids`` names the rows (default: their positions) and
        ``next_id`` sets the id watermark (default: one past the largest
        id) — how :meth:`merged` rebuilds a live set keeping every
        element id.  With a *space_mbr*, an empty *element_mbrs* builds
        one empty partition covering it.
        """
        element_mbrs = validate_mbrs(element_mbrs)
        if page_capacity > OBJECT_PAGE_CAPACITY:
            raise ValueError(
                f"page_capacity {page_capacity} exceeds the 4K page's "
                f"{OBJECT_PAGE_CAPACITY}-element capacity"
            )
        if element_ids is not None:
            element_ids = np.asarray(element_ids, dtype=np.int64)
            if element_ids.shape != (len(element_mbrs),):
                raise ValueError(
                    f"element_ids has shape {element_ids.shape} for "
                    f"{len(element_mbrs)} elements"
                )
            top = int(element_ids.max()) + 1 if len(element_ids) else 0
            if next_id is None:
                next_id = top
            elif next_id < top:
                raise ValueError(
                    f"next_id {next_id} does not pass the largest element "
                    f"id {top - 1}"
                )
        report = BuildReport()

        t0 = time.perf_counter()
        partitions = compute_partitions(element_mbrs, page_capacity, space_mbr)
        report.partitioning_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        compute_neighbors(partitions)
        report.finding_neighbors_seconds = time.perf_counter() - t0
        report.partition_count = len(partitions)
        report.pointer_counts = neighbor_counts(partitions)

        t0 = time.perf_counter()
        object_page_element_ids = {}
        records = []
        for i, partition in enumerate(partitions):
            payload = encode_element_page(element_mbrs[partition.element_ids])
            page_id = store.allocate(payload, CATEGORY_OBJECT)
            object_page_element_ids[page_id] = (
                partition.element_ids if element_ids is None
                else element_ids[partition.element_ids]
            )
            records.append(
                MetadataRecord(
                    record_id=i,
                    page_mbr=partition.page_mbr,
                    partition_mbr=partition.partition_mbr,
                    object_page_id=page_id,
                    neighbor_ids=tuple(partition.neighbors),
                )
            )
        seed_index = SeedIndex.build(
            store,
            records,
            fanout=seed_fanout,
            spatial_grouping=spatial_metadata_grouping,
        )
        report.packing_seconds = time.perf_counter() - t0

        index = cls(
            store,
            seed_index,
            object_page_element_ids,
            len(element_mbrs),
            report,
            page_capacity=page_capacity,
            next_id=next_id,
        )
        # The partitions tile the space box gap-free, so their union is
        # the space this build covered.
        index._knn_state["cover"] = mbr_union_many(
            np.stack([partition.partition_mbr for partition in partitions])
        )
        return index

    def merged(self, insert_ids, insert_mbrs, delete_ids,
               next_id: int) -> "FLATIndex":
        """This index with one batch applied, bulkloaded afresh: a merge.

        Reads every committed element once (``read_silent``: a merge is
        construction, not query I/O), drops *delete_ids*, adds the
        *insert_ids* / *insert_mbrs* rows and bulkloads the live set in
        ascending id order with :meth:`build` — the index a fresh
        bulkload of the same live set gives, page for page, with every
        element id kept and the watermark at least *next_id*.  The space
        is :meth:`covering_mbr` grown to the inserts; page capacity and
        seed fanout are this index's.  The arguments are a drained
        delta's (:meth:`~repro.core.delta.DeltaIndex.drain`), and
        *delete_ids* must be live committed elements (``KeyError`` names
        every missing id, duplicates raise ``ValueError``).

        This index is left as it is — readers may still crawl it — and
        the result lives on a store of its own (:meth:`_rebuild_store`).
        """
        insert_mbrs = validate_mbrs(np.atleast_2d(insert_mbrs))
        insert_ids = np.atleast_1d(np.asarray(insert_ids, dtype=np.int64))
        if len(insert_ids) != len(insert_mbrs):
            raise ValueError(
                f"insert_ids has {len(insert_ids)} ids for "
                f"{len(insert_mbrs)} elements"
            )
        deletes = np.sort(np.atleast_1d(np.asarray(delete_ids, dtype=np.int64)))
        twice = deletes[1:][deletes[1:] == deletes[:-1]]
        if len(twice):
            raise ValueError(f"duplicate element id {twice[0]} in delete batch")
        missing = deletes[~self.contains_elements(deletes)]
        if len(missing):
            raise KeyError(f"unknown element ids: {missing.tolist()}")
        pages = self.object_page_element_ids
        ids = np.concatenate(list(pages.values()))
        mbrs = np.concatenate(
            [decode_element_page(self.store.read_silent(page)) for page in pages]
        )
        kept = ~np.isin(ids, deletes)
        ids = np.concatenate([ids[kept], insert_ids])
        mbrs = np.concatenate([mbrs[kept], insert_mbrs])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError("insert_ids collide with live element ids")
        top = int(ids[-1]) + 1 if len(ids) else 0
        rebuilt = FLATIndex.build(
            self._rebuild_store(),
            mbrs[order],
            # Algorithm 1 grows the space to cover the inserts.
            space_mbr=self.covering_mbr(),
            page_capacity=self.page_capacity,
            seed_fanout=self.seed_index.fanout,
            element_ids=ids,
            next_id=max(self._next_id, int(next_id), top),
        )
        rebuilt._live_ids = ids
        return rebuilt

    def _rebuild_store(self) -> PageStore:
        """The empty store a rebuild of this index allocates into.

        A rebuild shares no page with the index it replaces.  An
        in-memory index rebuilds into a new memory backend with the same
        codec; an index on a snapshot into a fresh overlay over the
        snapshot's read-only file backend (an overlay's own pages are
        left behind).  The overlay's page ids start past that
        generation's page table, so publishing the rebuild never reuses
        a logical page id of a published generation —
        ``categories.bin`` is one sidecar for every generation of a
        directory.  The new store's pool keeps this store's byte budget,
        and its :class:`IOStats` continue this store's counts.
        """
        store = self.store
        backend = store.backend
        if isinstance(backend, MemoryPageBackend):
            backend = MemoryPageBackend(codec=backend.codec)
        else:
            backend = OverlayPageBackend(getattr(backend, "base", backend))
        rebuilt = PageStore(BufferPool(store.buffer.byte_capacity), backend)
        rebuilt.stats = store.stats.snapshot()
        return rebuilt

    # -- persistence -------------------------------------------------------

    def snapshot(self, directory, codec="raw") -> "Path":
        """Export this index (pages + directories) into *directory*.

        The snapshot is self-describing and reopenable with
        :meth:`restore`; see :mod:`repro.core.snapshot` for the layout.
        *codec* selects the physical page codec of the exported store
        (:mod:`repro.storage.codec`) — queries against the restore are
        byte-identical either way.  Exporting writes generation 0 of a
        fresh directory; a rebuild of the restored index publishes the
        next one with :func:`~repro.core.snapshot.publish_fork_generation`.
        """
        from repro.core.snapshot import snapshot_index

        return snapshot_index(self, directory, codec=codec)

    @classmethod
    def restore(cls, directory, generation=None, buffer=None) -> "FLATIndex":
        """Reopen a snapshot over a read-only mmap-backed file store.

        Loads the latest published generation unless *generation* names
        an older one.  Queries against the restored index read the same
        pages and return the same element ids as against the original
        build.
        """
        from repro.core.snapshot import restore_index

        return restore_index(directory, generation=generation, buffer=buffer)

    def with_store(self, store: PageStore) -> "FLATIndex":
        """A shallow clone of this index served from *store*.

        *store* must expose the same page ids (typically a
        :meth:`~repro.storage.pagestore.PageStore.view` of this index's
        store).  Directories — the record directory and record table,
        the object-page element ids, the build report — are shared
        read-only; per-query scratch state is per-clone, so each serving
        worker can crawl concurrently over its own stat-isolated store.
        """
        clone = FLATIndex(
            store,
            self.seed_index.with_store(store),
            self.object_page_element_ids,
            self.element_count,
            self.build_report,
            page_capacity=self.page_capacity,
            next_id=self._next_id,
        )
        # Immutable index state: clones share the holder itself, so the
        # kNN directories are built at most once across all clones no
        # matter who runs the first kNN query.
        clone._knn_state = self._knn_state
        return clone

    def fork(self) -> "FLATIndex":
        """A clone that can be mutated independently of this index.

        A :meth:`with_store` clone over this index's own store: a
        mutation of the clone (:meth:`apply_batch`) rebuilds onto a
        store of its own and the clone adopts the rebuild, so this index
        and every reader still crawling it are never perturbed.
        """
        return self.with_store(self.store)

    # -- updates --------------------------------------------------------------
    #
    # One write path: every mutation is a merge.  :meth:`apply_batch`
    # (and :meth:`insert` / :meth:`delete` over it) assigns ids from the
    # watermark, then :meth:`merged` bulkloads the live set afresh and
    # the index adopts the rebuild wholesale — page for page what
    # Algorithm 1 builds from the same elements, so read cost never
    # drifts with turnover.  A rebuild lands on a store of its own
    # (:meth:`_rebuild_store`), so with_store clones, forks and readers
    # still crawling the old pages are never perturbed.  The cost is a
    # rebuild of the live set per commit: small commits belong in a
    # :class:`~repro.core.delta.DeltaIndex`, which
    # :meth:`repro.query.service.QueryService.apply_updates` drains into
    # :meth:`merged`.

    def insert(self, element_mbrs: np.ndarray) -> np.ndarray:
        """Insert elements; returns their newly assigned element ids.

        A rebuild of the live set (see :meth:`apply_batch`); the covered
        space grows to enclose the inserts.
        """
        return self.apply_batch(insert_mbrs=element_mbrs)

    def delete(self, element_ids) -> None:
        """Delete elements by id; unknown ids raise ``KeyError``.

        A rebuild of the live set (see :meth:`apply_batch`).
        """
        self.apply_batch(delete_ids=element_ids)

    def apply_batch(
        self,
        insert_mbrs: np.ndarray | None = None,
        delete_ids=None,
        *,
        insert_ids: np.ndarray | None = None,
        next_id: int | None = None,
    ) -> np.ndarray:
        """Apply one commit's inserts and deletes: a merge, adopted in place.

        Inserts take ids from the watermark, in batch order (or replay
        already-assigned *insert_ids*, a drained delta's); *next_id*
        advances the watermark past ids the caller consumed.  Then
        :meth:`merged` bulkloads the live set and this index adopts the
        rebuild wholesale — store, seed tree and directories — so it is
        page for page what ``merged`` builds from the same batch.

        ``delete_ids`` must name live elements of this index (ids being
        inserted by the same call are not yet visible to the delete
        phase); unknown ids raise ``KeyError`` naming every missing id,
        duplicates raise ``ValueError``, and validation runs before
        anything is replaced.  An empty batch is a cheap no-op that may
        still advance the watermark.  Returns the inserted elements' ids.
        """
        return merge_in_place(self, insert_mbrs, delete_ids, insert_ids,
                              next_id)

    # -- querying -------------------------------------------------------------

    def range_query(self, query: np.ndarray) -> np.ndarray:
        """All element ids whose MBR intersects *query* (Algorithm 2).

        Seeds one record, then runs the crawl kernel
        (:func:`~repro.core.crawl.crawl`) as a group of one.  Visits
        exactly the record set (and reads exactly the page set) of
        :meth:`range_query_scalar` — the guards depend only on the
        record, not on the path the BFS took to it.
        """
        query = np.asarray(query, dtype=np.float64)
        stats = CrawlStats()
        self.last_crawl_stats = stats
        seeded = self.seed_index.seed_query(query)
        stats.seeded = seeded is not None
        start = np.asarray(
            [] if seeded is None else [seeded[0].record_id], dtype=np.int64
        )
        (out,) = crawl(
            self, query[None, :], start, np.zeros_like(start), stats=stats,
            probed=self.seed_index.last_probe_object_page_ids,
        )
        return out

    def range_query_scalar(self, query: np.ndarray) -> np.ndarray:
        """Record-at-a-time reference crawl (the original Algorithm 2 loop).

        Kept verbatim as the behavioural baseline: fetches one metadata
        record per dequeue (re-decoding its leaf every time) and reads
        matching object pages one by one.  The differential test pins
        :meth:`range_query` to this implementation's page-read set and
        result set; the crawl micro-benchmark measures the decode work
        the batched engine saves over it.
        """
        query = np.asarray(query, dtype=np.float64)
        stats = CrawlStats()
        self.last_crawl_stats = stats

        seeded = self.seed_index.seed_query(query)
        pages_read = set(self.seed_index.last_probe_object_page_ids)
        stats.object_pages_read = len(pages_read)
        if seeded is None:
            return np.empty(0, dtype=np.int64)
        start_record, _slots = seeded
        stats.seeded = True

        results: list = []
        queue: deque = deque([start_record.record_id])
        enqueued = {start_record.record_id}
        while queue:
            stats.max_queue_length = max(stats.max_queue_length, len(queue))
            record_id = queue.popleft()
            stats.records_dequeued += 1
            record = self.seed_index.fetch_record(record_id)

            if boxes_intersect_box(record.page_mbr[None, :], query)[0]:
                elements = self.store.read_elements(
                    record.object_page_id, cached=False
                )
                pages_read.add(record.object_page_id)
                stats.object_pages_read = len(pages_read)
                mask = boxes_intersect_box(elements, query)
                if mask.any():
                    results.append(
                        self.object_page_element_ids[record.object_page_id][mask]
                    )

            if boxes_intersect_box(record.partition_mbr[None, :], query)[0]:
                for neighbor_id in record.neighbor_ids:
                    if neighbor_id not in enqueued:
                        enqueued.add(neighbor_id)
                        queue.append(neighbor_id)

        stats.visited_bytes = len(enqueued) * 8
        if not results:
            stats.result_count = 0
            return np.empty(0, dtype=np.int64)
        out = np.sort(np.concatenate(results))
        stats.result_count = len(out)
        return out

    def range_query_multi(self, queries: np.ndarray, cold: bool = True) -> list:
        """Serve a batch of range queries with one joint crawl.

        Returns one sorted id array per query, each exactly
        :meth:`range_query`'s answer: every query is seeded on its own,
        then the crawl kernel (:func:`~repro.core.crawl.crawl`) walks
        the whole group in one BFS over ``(record, query)`` pairs.

        ``cold=False`` serves the group warm through this store's
        caches.  ``cold=True`` reproduces the paper's regime per query:
        caches are cleared before each seed, the crawl reads through a
        private :meth:`~repro.storage.pagestore.PageStore.view` (one
        physical read and decode per touched page per group), and each
        query is charged every unique page it touched — a ``(page,
        query)`` matrix minus what its seed descent already paid — so
        read totals equal a serial cold loop's.  Cache and decode hits
        of the crawl are not reproduced.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        count = len(queries)
        if count == 0:
            return []
        store = self.store
        stats = CrawlStats()
        self.last_crawl_stats = stats
        starts = np.full(count, -1, dtype=np.int64)
        probed: list = []
        seed_reads = np.zeros((len(store), count), dtype=bool) if cold else None
        for qi, query in enumerate(queries):
            if cold:
                store.clear_cache()
            seeded = self.seed_index.seed_query(query)
            if cold:
                # The unbounded buffer was cleared just before this seed,
                # so it holds exactly the pages the descent read (and
                # charged natively) for this query.
                seed_reads[store.buffer.page_ids(), qi] = True
            probed.extend(
                page * count + qi
                for page in self.seed_index.last_probe_object_page_ids
            )
            if seeded is not None:
                starts[qi] = seeded[0].record_id
        alive = np.flatnonzero(starts >= 0)
        stats.seeded = bool(alive.size)
        engine = self.with_store(store.view()) if cold else self
        charged = np.zeros_like(seed_reads) if cold else None
        results = crawl(
            engine, queries, starts[alive], alive, stats=stats, probed=probed,
            charged=charged,
        )
        if cold:
            per_page = (charged & ~seed_reads).sum(axis=1)
            for page in np.flatnonzero(per_page).tolist():
                pages = int(per_page[page])
                store.stats.record_read(
                    store.backend.category(page), pages,
                    pages * store.stored_bytes(page),
                )
            crawled = engine.store.stats
            store.stats.merge(
                IOStats(decode_misses=crawled.decode_misses, parses=crawled.parses)
            )
        return results

    def point_query(self, point: np.ndarray) -> np.ndarray:
        """Element ids whose MBR contains *point* (degenerate range query)."""
        return self.range_query(point_as_box(point))

    def knn_query(
        self, point: np.ndarray, k: int, return_distances: bool = False
    ) -> np.ndarray:
        """The *k* elements nearest to *point*, as an expanding-radius crawl.

        FLAT has no hierarchy to best-first search, so kNN runs the
        shared expanding-radius skeleton
        (:func:`~repro.query.knn.expanding_radius_knn`) over the seeded
        BFS: crawl a growing box, confirm candidates whose MBR distance
        is within the radius, stop when ``k`` are confirmed — typically
        one or two rounds thanks to the density-estimated first radius
        (:attr:`last_knn_rounds`).

        Results are sorted by ``(distance, element id)``; ties are
        broken by id, matching the brute-force baseline the tests pin
        against.  ``return_distances=True`` additionally returns the
        matching distances (used by the sharded planner's pruning).
        """
        stats = CrawlStats()

        def crawl(box):
            ids = self.range_query(box)
            round_stats = self.last_crawl_stats
            stats.seeded = stats.seeded or round_stats.seeded
            stats.records_dequeued += round_stats.records_dequeued
            stats.max_queue_length = max(
                stats.max_queue_length, round_stats.max_queue_length
            )
            stats.visited_bytes = max(
                stats.visited_bytes, round_stats.visited_bytes
            )
            # Each box contains every earlier one, so the last round's
            # unique-page count is the crawl's page footprint.
            stats.object_pages_read = round_stats.object_pages_read
            return ids

        ids, dists, rounds = expanding_radius_knn(
            point,
            k,
            element_count=self.element_count,
            cover=self.covering_mbr(),
            range_query=crawl,
            distances=self._element_distances,
        )
        stats.result_count = len(ids)
        self.last_crawl_stats = stats
        self.last_knn_rounds = rounds
        if return_distances:
            return ids, dists
        return ids

    def _element_distances(self, ids: np.ndarray, point: np.ndarray) -> np.ndarray:
        """MBR distances of the given element ids to *point*.

        Reads go through the store (buffer pool + decode memo), so pages
        the crawl just visited cost no further physical I/O.
        """
        if "element_page" not in self._knn_state:
            # Sized to the id watermark, not the live count: deleted
            # element ids leave holes that are never looked up.
            page = np.empty(self._next_id, dtype=np.int64)
            slot = np.empty(self._next_id, dtype=np.int64)
            for page_id, element_ids in self.object_page_element_ids.items():
                page[element_ids] = page_id
                slot[element_ids] = np.arange(len(element_ids))
            self._knn_state["element_slot"] = slot
            self._knn_state["element_page"] = page
        element_page = self._knn_state["element_page"]
        element_slot = self._knn_state["element_slot"]
        dists = np.empty(len(ids), dtype=np.float64)
        pages = element_page[ids]
        for page_id in np.unique(pages):
            mask = pages == page_id
            elements = self.store.read_elements(int(page_id))
            boxes = elements[element_slot[ids[mask]]]
            dists[mask] = mbr_distance_to_point(boxes, point)
        return dists

    def covering_mbr(self) -> np.ndarray:
        """The box covering all partitions (the build's effective space).

        Partition MBRs tile the space gap-free, so their union is
        exactly the space box passed to — or derived by — :meth:`build`.
        :meth:`build` keeps that box (a rebuild's grown to its
        inserts), and a restore reads it from the generation's index
        files, both shared across :meth:`with_store` clones.  Only
        an index restored from files written without the box computes
        it, once, from the metadata records.
        """
        if "cover" not in self._knn_state:
            boxes = np.stack(
                [record.partition_mbr for record in self.seed_index.iter_records()]
            )
            self._knn_state["cover"] = mbr_union_many(boxes)
        return self._knn_state["cover"]

    # -- introspection -----------------------------------------------------------

    @property
    def next_element_id(self) -> int:
        """The id watermark: the id the next inserted element receives.

        Deleted ids are never reused, so this only ever advances — a
        :class:`~repro.core.delta.DeltaIndex` built over this index
        seeds its own watermark from here.
        """
        return self._next_id

    def contains_elements(self, element_ids) -> np.ndarray:
        """Boolean mask of which *element_ids* are live committed elements.

        Answers from a sorted array of the live ids, built once from
        :attr:`object_page_element_ids` (a rebuild carries its own);
        purely an in-RAM lookup, valid on restored snapshots too.  This
        is the base-index membership test a
        :class:`~repro.core.delta.DeltaIndex` validates its deletes
        against.
        """
        element_ids = np.atleast_1d(np.asarray(element_ids, dtype=np.int64))
        live = self._live_ids
        if live is None:
            live = self._live_ids = np.sort(
                np.concatenate(list(self.object_page_element_ids.values()))
            )
        if not len(live):
            return np.zeros(len(element_ids), dtype=bool)
        at = np.minimum(np.searchsorted(live, element_ids), len(live) - 1)
        return live[at] == element_ids

    @property
    def object_page_count(self) -> int:
        return len(self.object_page_element_ids)

    @property
    def metadata_page_count(self) -> int:
        return len(self.seed_index.leaf_page_ids)

    @property
    def seed_internal_page_count(self) -> int:
        return self.seed_index.internal_node_count()

    def pointer_count_histogram(self) -> dict:
        """Neighbor pointer count -> number of partitions (Fig. 20)."""
        values, counts = np.unique(self.build_report.pointer_counts, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def merge_in_place(index, insert_mbrs, delete_ids, insert_ids,
                   next_id) -> np.ndarray:
    """The one write path of :class:`FLATIndex` and
    :class:`~repro.core.sharded.ShardedFLATIndex`: apply a batch to
    *index* as a merge it adopts wholesale.

    Inserts take ids from the watermark unless *insert_ids* replays
    assigned ones; the watermark passes them and *next_id*; then
    ``index.merged`` rebuilds and *index* takes over every attribute of
    the rebuild.  Returns the inserted ids.
    """
    if insert_mbrs is None:
        insert_mbrs = np.empty((0, 6))
    insert_mbrs = validate_mbrs(np.atleast_2d(insert_mbrs))
    delete_ids = np.atleast_1d(np.asarray(
        [] if delete_ids is None else delete_ids, dtype=np.int64))
    watermark = index.next_element_id
    if insert_ids is None:
        insert_ids = np.arange(watermark, watermark + len(insert_mbrs))
    insert_ids = np.atleast_1d(np.asarray(insert_ids, dtype=np.int64))
    if len(insert_ids):
        watermark = max(watermark, int(insert_ids.max()) + 1)
    if next_id is not None:
        watermark = max(watermark, int(next_id))
    if len(insert_mbrs) or len(delete_ids):
        rebuilt = index.merged(insert_ids, insert_mbrs, delete_ids, watermark)
        index.__dict__.update(rebuilt.__dict__)
    index._next_id = watermark
    return insert_ids

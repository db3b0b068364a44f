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

from repro.geometry.intersect import boxes_intersect_box, pairwise_intersects
from repro.geometry.mbr import (
    mbr_center,
    mbr_contains_mbr,
    mbr_distance_to_point,
    mbr_union,
    mbr_union_many,
    mbr_volume,
    point_as_box,
    validate_mbrs,
)
from repro.query.knn import expanding_radius_knn
from repro.storage.constants import (
    NODE_FANOUT,
    OBJECT_PAGE_CAPACITY,
    PAGE_HEADER_BYTES,
    PAGE_SIZE,
)
from repro.storage.pagestore import PageStore, PageStoreError
from repro.storage.serial import (
    decode_element_page,
    encode_element_page,
    encode_metadata_page,
    metadata_record_bytes,
)
from repro.storage.stats import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    CATEGORY_SEED_INTERNAL,
    IOStats,
)
from repro.core.crawl import crawl
from repro.core.metadata import MetadataRecord
from repro.core.neighbors import compute_neighbors, neighbor_counts
from repro.core.partition import compute_partitions
from repro.core.seed_index import SeedIndex
from repro.rtree.rtree import pack_upper_levels
from repro.rtree.str_bulk import str_groups


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
class _MutableState:
    """In-RAM maintenance directories of a mutable FLAT index.

    Built lazily on the first :meth:`FLATIndex.insert` /
    :meth:`FLATIndex.delete` from the serialized metadata records; the
    write path keeps them in sync with the pages it rewrites.  Arrays
    are indexed by record id (dead records keep their slot, flagged by
    ``live``); ``space_mbr`` is the box the partition boxes tile
    gap-free — the invariant the crawl's completeness proof rests on.
    """

    page_mbrs: np.ndarray         # (R, 6) per-record page MBRs.
    partition_mbrs: np.ndarray    # (R, 6) per-record partition MBRs.
    object_page_ids: np.ndarray   # (R,) object page of each record; -1 dead.
    neighbors: list               # per-record sets of neighbor record ids.
    live: np.ndarray              # (R,) bool.
    element_page: dict            # element id -> object page id.
    record_of_page: dict          # object page id -> record id.
    space_mbr: np.ndarray         # (6,) box tiled by the partitions.
    #: Seed-leaf page id -> cached union of its records' page MBRs (the
    #: leaf's key in the tree).  Lets a flush detect that no key moved
    #: and skip repacking the upper levels entirely.
    leaf_mbrs: dict = field(default_factory=dict)


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
        #: Live elements (deletes decrement, inserts increment).
        self.element_count = element_count
        #: Per-object-page element cap the index was built with; the
        #: write path splits pages that would exceed it.
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
        #: Lazily built kNN directories — ``element_page``/``element_slot``
        #: (element id -> object page / slot) and ``cover`` (the covering
        #: box).  A plain dict shared *by reference* across
        #: :meth:`with_store` clones, so whichever index or worker clone
        #: builds them first publishes them to every sibling (the values
        #: are deterministic, so a concurrent double-build is benign).
        self._knn_state: dict = {}
        #: Maintenance directories of the write path, built lazily on
        #: the first mutation (:class:`_MutableState`).
        self._mut: _MutableState | None = None
        #: Records created by splits in the current batch, as
        #: ``(new_record_id, sibling_record_id)`` — flushed onto leaves
        #: next to their sibling by :meth:`_flush_metadata`.
        self._pending_records: list = []
        #: Records retired by merges in the current batch.
        self._dead_records: set = set()
        #: While a batch is applying, the set of record ids whose links
        #: need recomputing: every partition-box change parks its record
        #: here, and :meth:`_repair_links_bulk` settles the whole set
        #: once per commit.  ``None`` outside a batch.
        self._deferred_links: set | None = None

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
    ) -> "FLATIndex":
        """Bulkload FLAT over *element_mbrs* (Algorithm 1 + data layout).

        ``seed_fanout`` optionally caps the seed tree's internal fanout
        (kept in lockstep with the R-Tree baselines by the experiments'
        depth-matched configurations).  ``spatial_metadata_grouping``
        controls how metadata records are packed onto seed-tree leaves
        (STR tiles vs raw partition order; ablation knob).
        """
        element_mbrs = validate_mbrs(element_mbrs)
        if page_capacity > OBJECT_PAGE_CAPACITY:
            raise ValueError(
                f"page_capacity {page_capacity} exceeds the 4K page's "
                f"{OBJECT_PAGE_CAPACITY}-element capacity"
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
            object_page_element_ids[page_id] = partition.element_ids
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

        return cls(
            store,
            seed_index,
            object_page_element_ids,
            len(element_mbrs),
            report,
            page_capacity=page_capacity,
        )

    # -- persistence -------------------------------------------------------

    def snapshot(self, directory, codec="raw") -> "Path":
        """Export this index (pages + directories) into *directory*.

        The snapshot is self-describing and reopenable with
        :meth:`restore`; see :mod:`repro.core.snapshot` for the layout.
        *codec* selects the physical page codec of the exported store
        (:mod:`repro.storage.codec`) — queries against the restore are
        byte-identical either way.  Exporting writes generation 0 of a
        fresh directory; an index living on a writable file store
        publishes further generations in place with
        :meth:`snapshot_generation`.
        """
        from repro.core.snapshot import snapshot_index

        return snapshot_index(self, directory, codec=codec)

    def snapshot_generation(self) -> int:
        """Publish the current state as the next snapshot generation.

        Copy-on-write: only pages touched since the last generation
        occupy new space in the data file, and every earlier generation
        stays restorable.  Requires an index built on a writable
        :class:`~repro.storage.filestore.FilePageStore`.
        """
        from repro.core.snapshot import snapshot_generation

        return snapshot_generation(self)

    @classmethod
    def restore(cls, directory, generation=None, buffer=None,
                decoded=None) -> "FLATIndex":
        """Reopen a snapshot over a read-only mmap-backed file store.

        Loads the latest published generation unless *generation* names
        an older one.  Queries against the restored index read the same
        pages and return the same element ids as against the original
        build.
        """
        from repro.core.snapshot import restore_index

        return restore_index(
            directory, generation=generation, buffer=buffer, decoded=decoded
        )

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
        """A copy-on-write clone that can be mutated independently.

        The forked index serves the same pages through a forked store
        (unchanged payloads shared, see
        :meth:`~repro.storage.pagestore.PageStore.fork`) and gets its
        own copies of every directory the write path touches, so
        ``insert``/``delete`` on the fork never perturb this index or
        any reader still crawling it.  This is the unit of the serving
        layer's snapshot isolation: mutate a fork, then atomically swap
        readers over to it.
        """
        store = self.store.fork()
        seed = self.seed_index
        seed_copy = SeedIndex(
            store,
            seed.root_id,
            seed.height,
            list(seed.leaf_page_ids),
            seed.record_page.copy(),
            seed.record_slot.copy(),
            dict(seed.leaf_record_ids),
            fanout=seed.fanout,
        )
        clone = FLATIndex(
            store,
            seed_copy,
            dict(self.object_page_element_ids),
            self.element_count,
            self.build_report,
            page_capacity=self.page_capacity,
            next_id=self._next_id,
        )
        # The write path replaces directory values wholesale (it never
        # mutates shared arrays in place), so shallow dict copies above
        # are enough.
        clone._knn_state = dict(self._knn_state)
        if self._mut is not None:
            # Copy the maintenance directories rather than letting the
            # fork rebuild them from pages: commits on a long-lived
            # service would otherwise pay an O(index) metadata decode
            # for every batch, however small.
            mut = self._mut
            clone._mut = _MutableState(
                page_mbrs=mut.page_mbrs.copy(),
                partition_mbrs=mut.partition_mbrs.copy(),
                object_page_ids=mut.object_page_ids.copy(),
                neighbors=[set(links) for links in mut.neighbors],
                live=mut.live.copy(),
                element_page=dict(mut.element_page),
                record_of_page=dict(mut.record_of_page),
                space_mbr=mut.space_mbr.copy(),
                # Values are replaced wholesale on recompute, so a
                # shallow copy keeps the caches independent.
                leaf_mbrs=dict(mut.leaf_mbrs),
            )
        return clone

    # -- updates --------------------------------------------------------------
    #
    # The write path maintains the build's three crawl invariants:
    #
    # 1. the partition boxes cover ``space_mbr`` gap-free (splits tile a
    #    partition's box, merges only *union* boxes, and growing the
    #    space extends every partition on the grown face through the new
    #    slab);
    # 2. every partition box contains its page MBR;
    # 3. two records are linked iff their partition boxes intersect
    #    (repaired exactly after every box change — discovery runs as
    #    one vectorized in-RAM scan, mirroring the build's temporary
    #    R-Tree, while page writes stay limited to the affected records'
    #    leaves).
    #
    # Together these keep Algorithm 2 complete after any interleaving of
    # inserts and deletes: the differential tests pin a mutated index's
    # range/point/kNN answers to a from-scratch rebuild.
    #
    # Mutating an index that has live :meth:`with_store` clones is not
    # supported — clones share directories by reference.  Concurrent
    # serving uses :meth:`fork` + commit instead (see
    # :meth:`repro.query.service.QueryService.apply_updates`).

    def insert(self, element_mbrs: np.ndarray) -> np.ndarray:
        """Insert elements; returns their newly assigned element ids.

        Each element routes to the live partition whose box contains
        its center (smallest such box; the nearest box once the space
        has been grown to cover outliers).  Pages that would exceed
        :attr:`page_capacity` split in two along the longest axis of
        their partition box; affected metadata records are rewritten in
        their seed leaves and the seed tree's internal levels are
        repacked once per batch.
        """
        return self.apply_batch(insert_mbrs=element_mbrs)

    def delete(self, element_ids) -> None:
        """Delete elements by id; unknown ids raise ``KeyError``.

        Deletes shrink page MBRs exactly but never shrink partition
        boxes (shrinking could open a coverage gap the crawl would fall
        into).  A page left under a quarter of :attr:`page_capacity`
        merges into the neighbor whose box union grows least, retiring
        its record.
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
        """Apply one commit's inserts and deletes as a single bulk pass.

        This is the write path proper: :meth:`insert` and :meth:`delete`
        are thin wrappers over it, and a delta merge replays its whole
        memtable through one call.  The batch pays its structural costs
        once per commit, not once per element —

        * elements are routed to partitions in one vectorized pass and
          each touched object page is decoded/rewritten once;
        * link repair is deferred: every box change parks its record id
          and :meth:`_repair_links_bulk` recomputes the affected
          adjacency exactly, once, against the batch's *final* partition
          boxes (links are a pure function of those boxes, so one repair
          against the final boxes equals a repair after every change);
        * seed leaves are rewritten and the upper levels repacked in the
          single end-of-batch :meth:`_flush_metadata`.

        ``delete_ids`` must name live elements of this index (ids being
        inserted by the same call are not yet visible to the delete
        phase); unknown ids raise ``KeyError`` naming every missing id,
        duplicates raise ``ValueError``, and validation runs before any
        state is touched.  An empty batch is a cheap no-op.

        ``insert_ids`` / ``next_id`` let a delta merge replay its
        already-assigned element ids and advance the id watermark past
        ids the delta consumed (inserted-then-deleted elements never
        reach pages but their ids must stay retired).  Returns the
        inserted elements' ids.
        """
        if insert_mbrs is None:
            insert_mbrs = np.empty((0, 6), dtype=np.float64)
        insert_mbrs = validate_mbrs(np.atleast_2d(insert_mbrs))
        if delete_ids is None:
            delete_ids = np.empty(0, dtype=np.int64)
        delete_ids = np.atleast_1d(np.asarray(delete_ids, dtype=np.int64))
        if insert_ids is not None:
            new_ids = np.atleast_1d(np.asarray(insert_ids, dtype=np.int64))
            if len(new_ids) != len(insert_mbrs):
                raise ValueError(
                    f"insert_ids has {len(new_ids)} ids for "
                    f"{len(insert_mbrs)} elements"
                )
        else:
            new_ids = np.arange(
                self._next_id, self._next_id + len(insert_mbrs), dtype=np.int64
            )
        if not len(insert_mbrs) and not len(delete_ids):
            # Cheap no-op: no page, directory or store access.  The
            # watermark may still advance (a drained delta whose every
            # insert was deleted again still consumed those ids).
            if next_id is not None:
                self._next_id = max(self._next_id, int(next_id))
            return new_ids
        self._check_mutable()
        mut = self._ensure_mutable()
        # Validate the whole delete batch before touching anything: a
        # bad id must not leave pages half-mutated with the metadata
        # unflushed.
        if len(delete_ids):
            unique: set = set()
            missing: list = []
            for eid in delete_ids:
                eid = int(eid)
                if eid in unique:
                    raise ValueError(
                        f"duplicate element id {eid} in delete batch"
                    )
                unique.add(eid)
                if eid not in mut.element_page:
                    missing.append(eid)
            if missing:
                raise KeyError(f"unknown element ids: {sorted(missing)}")
        dirty: set = set()
        self._deferred_links = set()
        try:
            if len(insert_mbrs):
                batch_box = mbr_union_many(insert_mbrs)
                if not bool(mbr_contains_mbr(mut.space_mbr, batch_box)):
                    self._grow_space(batch_box, dirty)
                self._next_id = max(self._next_id, int(new_ids.max()) + 1)
                routed = self._route_batch(mbr_center(insert_mbrs))
                # Group the batch by routed record so each touched object
                # page is decoded and rewritten once per batch, not once
                # per element (on file stores every rewrite appends a
                # whole physical page).
                per_record: dict = {}
                for pos, rid in enumerate(routed):
                    per_record.setdefault(int(rid), []).append(pos)
                for rid, positions in per_record.items():
                    page_id = int(mut.object_page_ids[rid])
                    ids = np.append(
                        self.object_page_element_ids[page_id], new_ids[positions]
                    )
                    mbrs = np.vstack(
                        [self._page_elements(page_id), insert_mbrs[positions]]
                    )
                    self._place(rid, page_id, ids, mbrs, dirty)
                self.element_count += len(new_ids)
            if len(delete_ids):
                # Group by object page: one decode/rewrite per touched
                # page, with the underflow check on the page's final count.
                per_page: dict = {}
                for eid in delete_ids:
                    eid = int(eid)
                    per_page.setdefault(mut.element_page.pop(eid), []).append(eid)
                for page_id, eids in per_page.items():
                    self._remove_elements(
                        page_id, np.asarray(eids, dtype=np.int64), dirty
                    )
                self.element_count -= len(delete_ids)
            self._repair_links_bulk(dirty)
        finally:
            self._deferred_links = None
        if next_id is not None:
            self._next_id = max(self._next_id, int(next_id))
        self._flush_metadata(dirty)
        self._invalidate_query_state()
        return new_ids

    # -- update internals -----------------------------------------------------

    def _check_mutable(self) -> None:
        """Fail *before* any in-RAM state is touched on read-only stores.

        Discovering the read-only backend mid-batch (on the first page
        rewrite) would leave the maintenance directories desynced from
        the pages; restored snapshots mutate through :meth:`fork`.
        """
        if not self.store.backend.writable:
            raise PageStoreError(
                "index store is read-only (restored snapshot); fork() the "
                "index and mutate the fork"
            )

    def _ensure_mutable(self) -> _MutableState:
        """Build the maintenance directories from the serialized records."""
        if self._mut is not None:
            return self._mut
        count = self.seed_index.record_count
        page_mbrs = np.zeros((count, 6), dtype=np.float64)
        partition_mbrs = np.zeros((count, 6), dtype=np.float64)
        object_page_ids = np.full(count, -1, dtype=np.int64)
        neighbors = [set() for _ in range(count)]
        live = np.zeros(count, dtype=bool)
        for record in self.seed_index.iter_records():
            rid = record.record_id
            page_mbrs[rid] = record.page_mbr
            partition_mbrs[rid] = record.partition_mbr
            object_page_ids[rid] = record.object_page_id
            neighbors[rid] = set(record.neighbor_ids)
            live[rid] = True
        element_page = {
            int(eid): page_id
            for page_id, ids in self.object_page_element_ids.items()
            for eid in ids
        }
        record_of_page = {
            int(object_page_ids[rid]): int(rid) for rid in np.flatnonzero(live)
        }
        # The build tiles the space box exactly and stretches partitions
        # only within it, so the union of live partition boxes *is* the
        # covered space; inserts grow it explicitly from here on.
        self._mut = _MutableState(
            page_mbrs=page_mbrs,
            partition_mbrs=partition_mbrs,
            object_page_ids=object_page_ids,
            neighbors=neighbors,
            live=live,
            element_page=element_page,
            record_of_page=record_of_page,
            space_mbr=mbr_union_many(partition_mbrs[live]),
        )
        return self._mut

    def _invalidate_query_state(self) -> None:
        self._knn_state.clear()
        self.seed_index.records.clear()

    def _page_elements(self, page_id: int) -> np.ndarray:
        """Current element MBRs of an object page (maintenance read)."""
        return decode_element_page(self.store.read_silent(page_id))

    def _live_records(self) -> np.ndarray:
        return np.flatnonzero(self._mut.live)

    def _route_batch(self, centers: np.ndarray) -> np.ndarray:
        """The record whose partition receives each element center.

        An element goes to the smallest live partition box containing
        its center, ties to the lowest record id; a center outside
        every partition goes to the nearest box.  The whole batch is
        routed as a chunked containment matrix; chunks bound it at a
        few million cells, so memory stays flat however large the
        batch.
        """
        mut = self._mut
        live_ids = self._live_records()
        boxes = mut.partition_mbrs[live_ids]
        vols = mbr_volume(boxes)
        out = np.empty(len(centers), dtype=np.int64)
        chunk = max(1, 4_000_000 // max(1, len(live_ids)))
        for start in range(0, len(centers), chunk):
            sub = centers[start:start + chunk]
            inside = np.all(
                (boxes[:, None, :3] <= sub[None, :, :])
                & (sub[None, :, :] <= boxes[:, None, 3:]),
                axis=2,
            )  # (live, sub)
            # argmin's first-hit tie-break is the lowest record id:
            # live_ids ascends and vols is aligned to it.
            best = np.argmin(np.where(inside, vols[:, None], np.inf), axis=0)
            out[start:start + len(sub)] = live_ids[best]
            for j in np.flatnonzero(~inside.any(axis=0)):
                out[start + j] = live_ids[
                    np.argmin(mbr_distance_to_point(boxes, sub[j]))
                ]
        return out

    def _grow_space(self, needed: np.ndarray, dirty: set) -> None:
        """Extend the covered space box to enclose *needed*.

        Growing a face pushes every partition box touching the old face
        out to the new one, so the boundary partitions tile the new
        slab and the gap-free invariant survives; their links are then
        repaired.  This is what keeps far-outlier inserts crawlable —
        a lone stretched "finger" into uncovered space could strand
        results behind a connectivity gap.
        """
        mut = self._mut
        grown: set = set()
        live_ids = self._live_records()
        new_space = mbr_union(mut.space_mbr, needed)
        for face in range(6):
            if new_space[face] == mut.space_mbr[face]:
                continue
            boxes = mut.partition_mbrs[live_ids]
            touching = live_ids[boxes[:, face] == mut.space_mbr[face]]
            mut.partition_mbrs[touching, face] = new_space[face]
            grown.update(int(rid) for rid in touching)
        mut.space_mbr = new_space
        dirty.update(grown)
        self._deferred_links.update(grown)

    def _repair_links_bulk(self, dirty: set) -> None:
        """Settle the batch's deferred link repairs in one exact pass.

        Every record whose partition box changed this batch gets its
        neighbor set recomputed against *all* live partition boxes via
        a chunked intersection matrix, with symmetric add/remove diffs
        applied and the affected leaves marked dirty.  A link ``(a, b)``
        changes only if ``a``'s or ``b``'s box changed, and any such
        record is in the deferred set — so recomputing the deferred
        records' rows repairs the whole adjacency.  Records retired
        mid-batch were already scrubbed symmetrically by
        :meth:`_try_merge` and are skipped.
        """
        pending = self._deferred_links
        self._deferred_links = None
        if not pending:
            return
        mut = self._mut
        live_ids = self._live_records()
        todo = np.asarray(
            sorted(rid for rid in pending if mut.live[rid]), dtype=np.int64
        )
        if not todo.size:
            return
        chunk = max(1, 4_000_000 // max(1, len(live_ids)))
        for start in range(0, len(todo), chunk):
            sub = todo[start:start + chunk]
            hits = pairwise_intersects(
                mut.partition_mbrs[sub], mut.partition_mbrs[live_ids]
            )
            for row, rid in enumerate(sub):
                rid = int(rid)
                new_set = {
                    int(h) for h in live_ids[hits[row]] if int(h) != rid
                }
                old_set = mut.neighbors[rid]
                if new_set == old_set:
                    continue
                for gone in old_set - new_set:
                    mut.neighbors[gone].discard(rid)
                    dirty.add(gone)
                for come in new_set - old_set:
                    mut.neighbors[come].add(rid)
                    dirty.add(come)
                mut.neighbors[rid] = new_set
                dirty.add(rid)

    def _set_object_page(self, rid: int, page_id: int, ids: np.ndarray,
                         mbrs: np.ndarray, dirty: set) -> None:
        """Rewrite one record's object page and refresh its boxes."""
        mut = self._mut
        self.store.rewrite(page_id, encode_element_page(mbrs))
        self.object_page_element_ids[page_id] = ids
        if len(mbrs):
            page_mbr = mbr_union_many(mbrs)
        else:
            # An emptied page keeps a degenerate point box at its
            # partition's lower corner: never matches real queries in
            # practice, always stays inside the partition box, and
            # keeps every MBR finite for serialization and STR packing.
            corner = mut.partition_mbrs[rid][:3]
            page_mbr = np.concatenate([corner, corner])
        if not np.array_equal(page_mbr, mut.page_mbrs[rid]):
            mut.page_mbrs[rid] = page_mbr
            dirty.add(rid)
        widened = mbr_union(mut.partition_mbrs[rid], page_mbr)
        if not np.array_equal(widened, mut.partition_mbrs[rid]):
            mut.partition_mbrs[rid] = widened
            dirty.add(rid)
            self._deferred_links.add(rid)

    def _place(self, rid: int, page_id: int, ids: np.ndarray,
               mbrs: np.ndarray, dirty: set) -> None:
        """Settle *ids*/*mbrs* as record *rid*'s elements, splitting as
        long as they exceed the page capacity."""
        mut = self._mut
        if len(ids) <= self.page_capacity:
            for eid in ids:
                mut.element_page[int(eid)] = page_id
            self._set_object_page(rid, page_id, ids, mbrs, dirty)
            return
        self._split(rid, page_id, ids, mbrs, dirty)

    def _split(self, rid: int, page_id: int, ids: np.ndarray,
               mbrs: np.ndarray, dirty: set) -> None:
        """Split an overfull partition in two along its longest axis.

        The two half-boxes tile the old partition box exactly (cut at
        the midpoint between the straddling element centers), each then
        stretched to its own page MBR — the same shape Algorithm 1
        produces, so all build invariants carry over.  The second half
        becomes a brand-new record on a freshly allocated object page;
        a half still overfull after a batched insert simply splits
        again (recursively, via :meth:`_place`).
        """
        mut = self._mut
        part_box = mut.partition_mbrs[rid].copy()
        axis = int(np.argmax(part_box[3:] - part_box[:3]))
        centers = mbr_center(mbrs)[:, axis]
        order = np.argsort(centers, kind="stable")
        half = len(order) // 2
        low, high = order[:half], order[half:]
        cut = 0.5 * (centers[low[-1]] + centers[high[0]])

        box_low, box_high = part_box.copy(), part_box.copy()
        box_low[axis + 3] = cut
        box_high[axis] = cut

        # Register the new record with a placeholder empty page; the
        # recursive placement below writes the real contents (and may
        # split further).
        new_rid = len(mut.live)
        corner = box_high[:3]
        new_page_id = self.store.allocate(
            encode_element_page(np.empty((0, 6))), CATEGORY_OBJECT
        )
        mut.page_mbrs = np.vstack(
            [mut.page_mbrs, np.concatenate([corner, corner])[None, :]]
        )
        mut.partition_mbrs = np.vstack([mut.partition_mbrs, box_high[None, :]])
        mut.object_page_ids = np.append(mut.object_page_ids, new_page_id)
        mut.neighbors.append(set())
        mut.live = np.append(mut.live, True)
        mut.record_of_page[new_page_id] = new_rid
        self.object_page_element_ids[new_page_id] = np.empty(0, dtype=np.int64)
        seed = self.seed_index
        seed.record_page = np.append(seed.record_page, -1)
        seed.record_slot = np.append(seed.record_slot, -1)
        # The new record spills from the splitting record's leaf, so it
        # lands next to its spatial sibling (or on a fresh leaf).
        self._pending_records.append((new_rid, rid))

        mut.partition_mbrs[rid] = box_low
        self._place(rid, page_id, ids[low], mbrs[low], dirty)
        self._place(new_rid, new_page_id, ids[high], mbrs[high], dirty)
        dirty.add(rid)
        dirty.add(new_rid)
        self._deferred_links.update((rid, new_rid))

    def _remove_elements(self, page_id: int, eids: np.ndarray,
                         dirty: set) -> None:
        """Drop a batch's elements from one object page (one rewrite)."""
        mut = self._mut
        rid = mut.record_of_page[page_id]
        ids = self.object_page_element_ids[page_id]
        keep = ~np.isin(ids, eids)
        self._set_object_page(
            rid, page_id, ids[keep], self._page_elements(page_id)[keep], dirty
        )
        remaining = int(keep.sum())
        if remaining == 0 or remaining * 4 < self.page_capacity:
            self._try_merge(rid, dirty)

    def _try_merge(self, rid: int, dirty: set) -> None:
        """Fold an underfull record into a neighbor, if one has room.

        The surviving partition box becomes the union of both boxes —
        a superset, so coverage is preserved — and the retired record
        is unlinked everywhere.  With no roomy neighbor (or none at
        all) the record simply stays, possibly empty.
        """
        mut = self._mut
        my_page = int(mut.object_page_ids[rid])
        my_ids = self.object_page_element_ids[my_page]
        room = [
            nbr
            for nbr in sorted(mut.neighbors[rid])
            if len(self.object_page_element_ids[int(mut.object_page_ids[nbr])])
            + len(my_ids)
            <= self.page_capacity
        ]
        if not room:
            return
        target = min(
            room,
            key=lambda nbr: (
                float(
                    mbr_volume(
                        mbr_union(mut.partition_mbrs[nbr], mut.partition_mbrs[rid])
                    )
                ),
                nbr,
            ),
        )
        target_page = int(mut.object_page_ids[target])
        merged_ids = np.append(self.object_page_element_ids[target_page], my_ids)
        merged_mbrs = np.vstack(
            [self._page_elements(target_page), self._page_elements(my_page)]
        )
        for eid in my_ids:
            mut.element_page[int(eid)] = target_page
        mut.partition_mbrs[target] = mbr_union(
            mut.partition_mbrs[target], mut.partition_mbrs[rid]
        )
        dirty.add(target)
        self._set_object_page(target, target_page, merged_ids, merged_mbrs, dirty)

        # Retire the merged-away record.
        mut.live[rid] = False
        mut.object_page_ids[rid] = -1
        del mut.record_of_page[my_page]
        del self.object_page_element_ids[my_page]
        for nbr in mut.neighbors[rid]:
            mut.neighbors[nbr].discard(rid)
            dirty.add(nbr)
        mut.neighbors[rid] = set()
        dirty.discard(rid)
        self._dead_records.add(rid)
        self._deferred_links.add(target)

    def _flush_metadata(self, dirty: set) -> None:
        """Rewrite affected seed leaves, then repack the upper levels.

        Changed records are re-encoded on their current leaf; records
        that no longer fit (neighbor lists grew) spill — together with
        brand-new records — onto freshly allocated leaves.  Internal
        levels are rebuilt once per batch from the final leaf set, so
        seed descents always see fresh key MBRs.
        """
        mut = self._mut
        seed = self.seed_index
        new_records = self._pending_records
        dead_records = self._dead_records
        self._pending_records = []
        self._dead_records = set()
        if not dirty and not new_records and not dead_records:
            return

        touched = {}
        for rid in dirty:
            leaf = int(seed.record_page[rid])
            if leaf >= 0:
                touched.setdefault(leaf, list(seed.leaf_record_ids[leaf]))
        for rid in dead_records:
            leaf = int(seed.record_page[rid])
            if leaf >= 0:
                rids = touched.setdefault(leaf, list(seed.leaf_record_ids[leaf]))
                rids.remove(rid)
                seed.record_page[rid] = -1
                seed.record_slot[rid] = -1
        for new_rid, sibling in new_records:
            leaf = int(seed.record_page[sibling])
            if leaf >= 0:
                touched.setdefault(leaf, list(seed.leaf_record_ids[leaf])).append(
                    new_rid
                )
            else:  # sibling itself is still pending (several splits deep)
                touched.setdefault(-1, [])
                touched[-1].append(new_rid)

        budget = PAGE_SIZE - PAGE_HEADER_BYTES
        keys_moved = False
        overflow = list(touched.pop(-1, []))
        for leaf, rids in touched.items():
            kept, used = [], 0
            for rid in rids:
                size = metadata_record_bytes(len(mut.neighbors[rid]))
                if used + size > budget:
                    overflow.append(rid)
                    continue
                kept.append(rid)
                used += size
            if not kept:
                seed.leaf_page_ids.remove(leaf)
                del seed.leaf_record_ids[leaf]
                mut.leaf_mbrs.pop(leaf, None)
                keys_moved = True
                continue
            self._write_leaf(leaf, kept, allocate=False)
            key = mbr_union_many(mut.page_mbrs[seed.leaf_record_ids[leaf]])
            cached = mut.leaf_mbrs.get(leaf)
            if cached is None or not np.array_equal(cached, key):
                mut.leaf_mbrs[leaf] = key
                keys_moved = True

        while overflow:
            chunk, used = [], 0
            while overflow:
                size = metadata_record_bytes(len(mut.neighbors[overflow[0]]))
                if chunk and used + size > budget:
                    break
                used += size
                chunk.append(overflow.pop(0))
            new_leaf = self._write_leaf(None, chunk, allocate=True)
            mut.leaf_mbrs[new_leaf] = mbr_union_many(
                mut.page_mbrs[seed.leaf_record_ids[new_leaf]]
            )
            keys_moved = True

        # Repack the internal levels only when some leaf key actually
        # moved (or a leaf appeared/vanished): rewrites that touch only
        # neighbor lists leave every existing internal page valid, so a
        # small batch does not pay — or allocate — the whole upper tree.
        if not keys_moved:
            return
        for leaf in seed.leaf_page_ids:
            if leaf not in mut.leaf_mbrs:  # first flush populates lazily
                mut.leaf_mbrs[leaf] = mbr_union_many(
                    mut.page_mbrs[seed.leaf_record_ids[leaf]]
                )
        seed.root_id, seed.height = pack_upper_levels(
            self.store,
            seed.leaf_page_ids,
            np.stack([mut.leaf_mbrs[leaf] for leaf in seed.leaf_page_ids]),
            str_groups,
            CATEGORY_SEED_INTERNAL,
            NODE_FANOUT if seed.fanout is None else seed.fanout,
        )

    def _write_leaf(self, leaf, rids: list, allocate: bool) -> int:
        """Serialize *rids* onto one seed leaf; update the directory."""
        mut = self._mut
        seed = self.seed_index
        payload = encode_metadata_page(
            [
                (
                    mut.page_mbrs[rid],
                    mut.partition_mbrs[rid],
                    int(mut.object_page_ids[rid]),
                    sorted(mut.neighbors[rid]),
                )
                for rid in rids
            ]
        )
        if allocate:
            leaf = self.store.allocate(payload, CATEGORY_METADATA)
            seed.leaf_page_ids.append(leaf)
        else:
            self.store.rewrite(leaf, payload)
        ids = np.asarray(rids, dtype=np.int64)
        seed.leaf_record_ids[leaf] = ids
        seed.record_page[ids] = leaf
        seed.record_slot[ids] = np.arange(len(ids))
        return leaf

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

        Reads go through the store (buffer + decoded cache), so pages
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

        Computed once from the metadata records (partition MBRs tile the
        space gap-free, so their union is exactly the space box passed
        to — or derived by — :meth:`build`), cached and shared across
        :meth:`with_store` clones; restored indexes recover it the same
        way.
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

        Answers from the element directory (built lazily, then cached);
        purely an in-RAM lookup, valid on read-only restored snapshots
        too.  This is the base-index membership test a
        :class:`~repro.core.delta.DeltaIndex` validates its deletes
        against.
        """
        element_ids = np.atleast_1d(np.asarray(element_ids, dtype=np.int64))
        element_page = self._ensure_mutable().element_page
        return np.fromiter(
            (int(eid) in element_page for eid in element_ids),
            dtype=bool,
            count=len(element_ids),
        )

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

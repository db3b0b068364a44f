"""The seed index: an R-Tree whose leaves hold FLAT's metadata records.

Two roles (Sec. V-B.1/V-B.2):

* **Seeding** — find *one* metadata record whose object page contains an
  element intersecting the query, following a single root-to-leaf path
  (with backtracking only for nearly-empty queries).
* **Record storage** — metadata records are packed into the seed tree's
  leaf pages so that following a neighbor pointer costs at most one
  (usually buffered) metadata-page read.  Records are grouped onto
  leaves by STR tiling of their page MBRs, so each leaf covers a compact
  region and a crawl touches few distinct metadata pages.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass

import numpy as np

from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import mbr_union_many
from repro.storage.pagestore import PageStore
from repro.storage.serial import (
    decode_metadata_page,
    decode_node_page,
    encode_metadata_page,
)
from repro.storage.stats import CATEGORY_METADATA, CATEGORY_SEED_INTERNAL
from repro.core.metadata import (
    MetadataRecord,
    group_records_spatially,
    pack_records_into_pages,
)
from repro.rtree.rtree import pack_upper_levels
from repro.rtree.str_bulk import str_groups


@dataclass(frozen=True)
class RecordBatch:
    """A struct-of-arrays view of many metadata records at once.

    Produced by :meth:`SeedIndex.fetch_records_batch`; the crawl kernel
    consumes whole BFS frontiers in this form so intersection tests run
    as single vectorized calls instead of per-record Python loops.
    Neighbor pointers are stored in CSR form: the neighbors of row ``i``
    are ``neighbor_ids[neighbor_offsets[i]:neighbor_offsets[i + 1]]``.
    """

    record_ids: np.ndarray        #: (N,) record ids, in request order.
    page_mbrs: np.ndarray         #: (N, 6) page MBRs.
    partition_mbrs: np.ndarray    #: (N, 6) partition MBRs.
    object_page_ids: np.ndarray   #: (N,) object page ids.
    neighbor_offsets: np.ndarray  #: (N + 1,) CSR row offsets.
    neighbor_ids: np.ndarray      #: (M,) concatenated neighbor record ids.

    def __len__(self) -> int:
        return len(self.record_ids)

    def neighbors_of(self, mask: np.ndarray) -> np.ndarray:
        """Concatenated neighbor ids of the rows selected by *mask*."""
        selected = np.flatnonzero(mask)
        if selected.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.neighbor_offsets[selected]
        lengths = self.neighbor_offsets[selected + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Vectorized CSR row gather: offset each row's arange to its start.
        row_ends = np.cumsum(lengths)
        shift = np.repeat(starts - (row_ends - lengths), lengths)
        return self.neighbor_ids[np.arange(total) + shift]


class RecordTable:
    """The metadata records of one index generation, as id-indexed arrays.

    Filled leaf by leaf from the decoded pages a crawl reads anyway, so
    each leaf is copied in once per generation and a frontier gathers
    its rows with one fancy index.  Shared by :meth:`SeedIndex.with_store`
    clones (loads lock: thread-mode workers crawl siblings at once); a
    cache, so never pickled, and dropped when the write path rewrites
    leaves.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.clear()

    def __reduce__(self):
        return (RecordTable, ())

    def clear(self) -> None:
        """Forget every row."""
        #: Leaf page ids whose records are loaded.
        self.leaves: set = set()
        self.page_mbrs = self.partition_mbrs = np.empty((0, 6))
        self.object_page_ids = self.neighbor_counts = np.empty(0, dtype=np.int64)
        self.neighbors: list = []

    def load(self, leaf: int, record_ids: np.ndarray, records: list,
             record_count: int) -> None:
        """Copy one decoded leaf's *records* into the rows *record_ids*."""
        with self._lock:
            if leaf in self.leaves:
                return
            if not self.leaves:
                self.page_mbrs = np.empty((record_count, 6), dtype=np.float64)
                self.partition_mbrs = np.empty((record_count, 6), dtype=np.float64)
                self.object_page_ids = np.empty(record_count, dtype=np.int64)
                self.neighbor_counts = np.zeros(record_count, dtype=np.int64)
                self.neighbors = [None] * record_count
            for rid, (page_mbr, partition_mbr, object_page_id, nbrs) in zip(
                record_ids.tolist(), records
            ):
                self.page_mbrs[rid] = page_mbr
                self.partition_mbrs[rid] = partition_mbr
                self.object_page_ids[rid] = object_page_id
                self.neighbors[rid] = np.asarray(nbrs, dtype=np.int64)
                self.neighbor_counts[rid] = len(nbrs)
            self.leaves.add(leaf)


class SeedIndex:
    """Seed tree + metadata records for one FLAT index."""

    def __init__(
        self,
        store: PageStore,
        root_id: int,
        height: int,
        leaf_page_ids: list,
        record_page: np.ndarray,
        record_slot: np.ndarray,
        leaf_record_ids: dict,
        fanout: int | None = None,
    ):
        self.store = store
        self.root_id = root_id
        #: Internal levels above the metadata leaf pages.
        self.height = height
        #: Internal fanout cap the tree was built with (``None`` = full
        #: page fanout); the write path rebuilds upper levels with it.
        self.fanout = fanout
        self.leaf_page_ids = leaf_page_ids
        #: record id -> metadata leaf page id (what an on-disk neighbor
        #: pointer would encode directly).
        self.record_page = record_page
        #: record id -> slot within its leaf page.
        self.record_slot = record_slot
        #: leaf page id -> record ids stored on it, in slot order.
        self.leaf_record_ids = leaf_record_ids
        #: Object page ids probed (read + decoded) by the most recent
        #: :meth:`seed_query` call, in probe order.  The crawl kernel
        #: consults this so a page the seed phase already read is not
        #: counted again in :class:`~repro.core.flat_index.CrawlStats`.
        self.last_probe_object_page_ids: list = []
        #: Decoded records of this generation (:class:`RecordTable`).
        self.records = RecordTable()

    @property
    def record_count(self) -> int:
        return len(self.record_page)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, store: PageStore, records: list, fanout: int | None = None,
              spatial_grouping: bool = True) -> "SeedIndex":
        """Pack *records* into leaves (STR-grouped) and build the tree.

        ``fanout`` caps the internal-node entry count; ``None`` uses the
        full 4 K page fanout.  Experiments lower it in lockstep with the
        R-Tree baselines for a fair depth-matched comparison.

        ``spatial_grouping=False`` packs records in raw partition order
        instead of STR tiles — kept for the metadata-locality ablation
        benchmark (it produces slab-shaped metadata pages and many more
        metadata reads per crawl).
        """
        if not records:
            raise ValueError("cannot build a seed index without records")
        page_mbrs = np.stack([r.page_mbr for r in records])
        sizes = [r.serialized_bytes() for r in records]
        if spatial_grouping:
            groups = group_records_spatially(page_mbrs, sizes)
        else:
            groups = [
                np.arange(start, end)
                for start, end in pack_records_into_pages(sizes)
            ]

        leaf_page_ids = []
        leaf_mbrs = np.empty((len(groups), 6), dtype=np.float64)
        record_page = np.empty(len(records), dtype=np.int64)
        record_slot = np.empty(len(records), dtype=np.int64)
        leaf_record_ids = {}
        for gi, group in enumerate(groups):
            chunk = [records[i] for i in group]
            payload = encode_metadata_page(
                [
                    (r.page_mbr, r.partition_mbr, r.object_page_id, r.neighbor_ids)
                    for r in chunk
                ]
            )
            page_id = store.allocate(payload, CATEGORY_METADATA)
            leaf_page_ids.append(page_id)
            ids = np.asarray(group, dtype=np.int64)
            leaf_record_ids[page_id] = ids
            record_page[ids] = page_id
            record_slot[ids] = np.arange(len(ids))
            # Leaf entry key: union of the record page MBRs on the leaf
            # (the paper indexes each record with its page MBR as key).
            leaf_mbrs[gi] = mbr_union_many(page_mbrs[ids])

        from repro.storage.constants import NODE_FANOUT

        root_id, height = pack_upper_levels(
            store,
            leaf_page_ids,
            leaf_mbrs,
            str_groups,
            CATEGORY_SEED_INTERNAL,
            NODE_FANOUT if fanout is None else fanout,
        )
        return cls(
            store,
            root_id,
            height,
            leaf_page_ids,
            record_page,
            record_slot,
            leaf_record_ids,
            fanout=fanout,
        )

    def with_store(self, store: PageStore) -> "SeedIndex":
        """A shallow clone reading its pages from *store*.

        The tree layout, record directory and record table are shared
        read-only (all index structures are bulkloaded and immutable);
        only the store — and with it the caches and I/O accounting — is
        swapped.  Used to give each serving worker a stat-isolated view
        of one index.
        """
        clone = copy.copy(self)
        clone.store = store
        clone.last_probe_object_page_ids = []
        return clone

    # -- record access ------------------------------------------------------

    def fetch_record(self, record_id: int) -> MetadataRecord:
        """Read one metadata record (costs its leaf page on buffer miss).

        This is the scalar reference accessor: it re-decodes the whole
        leaf page on every call, exactly as the original per-record
        crawl did.  Hot paths use :meth:`fetch_records_batch`, which
        decodes each touched leaf at most once per query.
        """
        if not 0 <= record_id < self.record_count:
            raise ValueError(f"record id {record_id} out of range")
        leaf_page_id = int(self.record_page[record_id])
        raw = self.store.read_metadata(leaf_page_id, cached=False)
        page_mbr, partition_mbr, object_page_id, neighbor_ids = raw[
            int(self.record_slot[record_id])
        ]
        return MetadataRecord(
            record_id=record_id,
            page_mbr=page_mbr,
            partition_mbr=partition_mbr,
            object_page_id=int(object_page_id),
            neighbor_ids=tuple(neighbor_ids),
        )

    def fetch_records_batch(self, record_ids) -> RecordBatch:
        """Read many metadata records as one struct-of-arrays batch.

        Every distinct leaf the ids sit on is read once through the
        store, in ascending page order, so the buffer pool and the
        decoded-page cache see — and count — exactly those reads.  The
        rows come from the generation's :class:`RecordTable`, which
        copies a leaf's decoded records once, not once per batch.
        """
        ids = np.atleast_1d(np.asarray(record_ids, dtype=np.int64))
        if ids.size and not (0 <= ids.min() and ids.max() < self.record_count):
            raise ValueError("record id out of range in batch")
        table = self.records
        for leaf in np.unique(self.record_page[ids]).tolist():
            records = self.store.read_metadata(leaf)
            if leaf not in table.leaves:
                table.load(
                    leaf, self.leaf_record_ids[leaf], records, self.record_count
                )
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(table.neighbor_counts[ids], out=offsets[1:])
        neighbor_ids = np.concatenate(
            [table.neighbors[rid] for rid in ids.tolist()]
            or [np.empty(0, np.int64)]
        )
        return RecordBatch(
            record_ids=ids,
            page_mbrs=table.page_mbrs[ids],
            partition_mbrs=table.partition_mbrs[ids],
            object_page_ids=table.object_page_ids[ids],
            neighbor_offsets=offsets,
            neighbor_ids=neighbor_ids,
        )

    def iter_records(self):
        """Yield every record without I/O accounting (analysis/tests)."""
        for leaf_page_id in self.leaf_page_ids:
            raw = decode_metadata_page(self.store.read_silent(leaf_page_id))
            ids = self.leaf_record_ids[leaf_page_id]
            for slot, (page_mbr, partition_mbr, object_page_id, nbrs) in enumerate(raw):
                yield MetadataRecord(
                    record_id=int(ids[slot]),
                    page_mbr=page_mbr,
                    partition_mbr=partition_mbr,
                    object_page_id=int(object_page_id),
                    neighbor_ids=tuple(nbrs),
                )

    # -- seeding -------------------------------------------------------------

    def seed_query(self, query: np.ndarray):
        """Find one record whose object page holds an element in *query*.

        Depth-first descent reading only intersecting paths; at each
        metadata leaf, candidate records (page MBR intersecting the
        query) have their object page probed until one contains a truly
        intersecting element (Sec. V-B.1).  Returns ``(record,
        matching_element_slots)`` or ``None`` when the query is empty.

        Decoded leaves and probed object pages go through the store's
        decoded-page cache, so the crawl that follows never re-decodes a
        page the seed phase already parsed.
        """
        query = np.asarray(query, dtype=np.float64)
        probed: list = []
        self.last_probe_object_page_ids = probed
        stack = [(self.root_id, self.height)]
        while stack:
            page_id, level = stack.pop()
            if level == 0:
                raw = self.store.read_metadata(page_id)
                ids = self.leaf_record_ids[page_id]
                for slot, (page_mbr, partition_mbr, object_page_id, nbrs) in enumerate(
                    raw
                ):
                    if not boxes_intersect_box(page_mbr[None, :], query)[0]:
                        continue
                    probed.append(int(object_page_id))
                    elements = self.store.read_elements(int(object_page_id))
                    mask = boxes_intersect_box(elements, query)
                    if mask.any():
                        record = MetadataRecord(
                            record_id=int(ids[slot]),
                            page_mbr=page_mbr,
                            partition_mbr=partition_mbr,
                            object_page_id=int(object_page_id),
                            neighbor_ids=tuple(nbrs),
                        )
                        return record, np.flatnonzero(mask)
                continue
            child_ids, child_mbrs, _leaf = decode_node_page(self.store.read(page_id))
            mask = boxes_intersect_box(child_mbrs, query)
            for cid in child_ids[mask][::-1]:
                stack.append((int(cid), level - 1))
        return None

    def leaves_meeting(self, box: np.ndarray) -> list:
        """Leaf page ids whose tree key meets *box*, in depth-first order.

        Reads every internal page on the way down through the store; the
        leaves themselves are not read.
        """
        leaves: list = []
        stack = [(self.root_id, self.height)]
        while stack:
            page_id, level = stack.pop()
            if level == 0:
                leaves.append(page_id)
                continue
            child_ids, child_mbrs, _leaf = decode_node_page(self.store.read(page_id))
            for cid in child_ids[boxes_intersect_box(child_mbrs, box)]:
                stack.append((int(cid), level - 1))
        return leaves

    # -- introspection ---------------------------------------------------------

    def internal_node_count(self) -> int:
        """Number of internal (non-leaf) seed tree pages."""
        count = 0
        stack = [(self.root_id, self.height)]
        while stack:
            page_id, level = stack.pop()
            if level == 0:
                continue
            count += 1
            child_ids, _mbrs, _leaf = decode_node_page(self.store.read_silent(page_id))
            for cid in child_ids:
                stack.append((int(cid), level - 1))
        return count

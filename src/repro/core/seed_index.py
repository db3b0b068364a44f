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

A parsed leaf's records live in the generation's :class:`RecordTable`
as id-indexed arrays (signed guard bounds, object page ids and a CSR of
neighbor ids): the one decoded form the seed phase and the crawl read.
"""

from __future__ import annotations

import copy
import threading
from itertools import chain

import numpy as np

from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import mbr_union_many
from repro.storage.pagestore import PageStore, PageStoreError
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


#: Sign of each :attr:`RecordTable.bounds` column: a row holds ``[lo,
#: -hi]`` of its page MBR, then ``[lo, -hi]`` of its partition MBR.
_SIGNS = np.array([1.0, 1, 1, -1, -1, -1] * 2)


def query_keys(queries: np.ndarray) -> np.ndarray:
    """The ``(Q, 12)`` keys ``[hi, -lo, hi, -lo]`` of ``(Q, 6)`` boxes.

    A table row's page MBR meets box ``q`` exactly when
    ``bounds[row, :6] <= key[q, :6]`` in every column, and its partition
    MBR when ``bounds[row, 6:] <= key[q, 6:]``: ``lo <= q_hi`` and
    ``q_lo <= hi``, the second negated.  Negation is exact, so this is
    the closed intersection test, bit for bit.
    """
    queries = np.atleast_2d(queries)
    half = np.concatenate([queries[:, 3:], -queries[:, :3]], axis=1)
    return np.concatenate([half, half], axis=1)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d integer array, by one sort and a neighbor
    compare: numpy 2's hashing ``np.unique`` costs several times more
    at frontier sizes (tens to thousands of ids)."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class RecordTable:
    """The metadata records of one index generation, as id-indexed arrays.

    The only decoded form of a metadata leaf: a crawl still reads every
    leaf it touches through the store, but a leaf is parsed only while
    it is missing here, so each leaf is parsed once per generation.
    Row ``rid`` of :attr:`bounds` holds ``[page_lo, -page_hi,
    partition_lo, -partition_hi]``, so one comparison with
    :func:`query_keys` answers both crawl guards for a whole frontier.
    Neighbor lists are one CSR: the neighbors of ``rid`` are
    ``neighbor_ids[neighbor_starts[rid]:][:neighbor_counts[rid]]``,
    appended leaf by leaf; the flat array is replaced when it grows, so
    read it after every load, never across one.  Shared by
    :meth:`SeedIndex.with_store` clones (loads lock: thread-mode workers
    crawl siblings at once); a cache, so never pickled.  Leaves never
    change once written: a mutation rebuilds the index, and the rebuild
    starts a table of its own.
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
        self.bounds = np.empty((0, 12))
        self.object_page_ids = self.neighbor_starts = np.empty(0, dtype=np.int64)
        self.neighbor_counts = self.neighbor_ids = np.empty(0, dtype=np.int64)
        self._neighbors_used = 0

    def load(self, leaf: int, record_ids: np.ndarray, records: list,
             record_count: int) -> None:
        """Copy one decoded leaf's *records* into the rows *record_ids*
        (every leaf holds at least one record)."""
        if len(records) != len(record_ids):
            raise PageStoreError(
                f"metadata leaf page {leaf} holds {len(records)} records, "
                f"but the seed index places {len(record_ids)} on it"
            )
        with self._lock:
            if leaf in self.leaves:
                return
            if not self.leaves:
                self.bounds = np.empty((record_count, 12))
                self.object_page_ids = np.empty(record_count, dtype=np.int64)
                self.neighbor_starts = np.empty(record_count, dtype=np.int64)
                self.neighbor_counts = np.empty(record_count, dtype=np.int64)
            page_mbrs, partition_mbrs, object_page_ids, neighbors = zip(*records)
            self.bounds[record_ids] = np.hstack([page_mbrs, partition_mbrs]) * _SIGNS
            self.object_page_ids[record_ids] = object_page_ids
            counts = np.fromiter(map(len, neighbors), np.int64, len(neighbors))
            start = self._neighbors_used
            end = start + int(counts.sum())
            if end > len(self.neighbor_ids):
                # Replaced, not resized in place: readers holding the old
                # array still see every row loaded before this one.
                grown = np.empty(max(end, 2 * len(self.neighbor_ids)), np.int64)
                grown[:start] = self.neighbor_ids[:start]
                self.neighbor_ids = grown
            self.neighbor_ids[start:end] = np.fromiter(
                chain.from_iterable(neighbors), np.int64, end - start
            )
            self.neighbor_starts[record_ids] = start + np.cumsum(counts) - counts
            self.neighbor_counts[record_ids] = counts
            self._neighbors_used = end
            # Last: a reader that finds the leaf here reads its rows
            # without the lock.
            self.leaves.add(leaf)

    def record(self, rid: int) -> MetadataRecord:
        """Row *rid* as a :class:`MetadataRecord` that owns its arrays."""
        mbrs = self.bounds[rid] * _SIGNS
        start = self.neighbor_starts[rid]
        neighbors = self.neighbor_ids[start:start + self.neighbor_counts[rid]]
        return MetadataRecord(
            record_id=rid,
            page_mbr=mbrs[:6],
            partition_mbr=mbrs[6:],
            object_page_id=int(self.object_page_ids[rid]),
            neighbor_ids=tuple(neighbors.tolist()),
        )


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
        #: page fanout); a rebuild of the index keeps it.
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
        parses each leaf at most once per generation.
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

    def _read_leaf(self, leaf: int) -> None:
        """Read one metadata leaf through the store, parsing it into the
        record table only if the table lacks it."""
        table = self.records
        records = self.store.read_metadata(leaf, parse=leaf not in table.leaves)
        if records is not None:
            table.load(leaf, self.leaf_record_ids[leaf], records, self.record_count)

    def fetch_records_batch(self, record_ids) -> RecordTable:
        """Read the metadata leaves of many records; return the record table.

        Every distinct leaf the ids sit on is read once through the
        store, in ascending page order, so the buffer pool and the
        logical decode counters see exactly those reads.  Returns the
        generation's :class:`RecordTable`, whose arrays are indexed by
        record id; it parses a leaf once, not once per batch or per
        query.  A later load may replace the table's arrays, so take
        them from the table after this call and keep none across the
        next one.
        """
        ids = np.atleast_1d(np.asarray(record_ids, dtype=np.int64))
        if ids.size and not (0 <= ids.min() and ids.max() < self.record_count):
            raise ValueError("record id out of range in batch")
        for leaf in sorted_unique(self.record_page[ids]).tolist():
            self._read_leaf(leaf)
        return self.records

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

        Each leaf on the way is read through the store and its rows are
        tested with one comparison of their record-table bounds with the
        query's key (:func:`query_keys`); candidates are probed in slot
        order.  Probed object pages go
        through the store's decode memo, so the crawl that
        follows never re-decodes a page the seed phase already parsed.
        """
        query = np.asarray(query, dtype=np.float64)
        key = query_keys(query)[0, :6]
        probed: list = []
        self.last_probe_object_page_ids = probed
        table = self.records
        stack = [(self.root_id, self.height)]
        while stack:
            page_id, level = stack.pop()
            if level == 0:
                self._read_leaf(page_id)
                ids = self.leaf_record_ids[page_id]
                hits = ids[(table.bounds[ids, :6] <= key).all(axis=1)]
                for rid in hits.tolist():
                    object_page_id = int(table.object_page_ids[rid])
                    probed.append(object_page_id)
                    elements = self.store.read_elements(object_page_id)
                    mask = boxes_intersect_box(elements, query)
                    if mask.any():
                        return table.record(rid), np.flatnonzero(mask)
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

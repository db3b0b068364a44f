"""The LSM-style in-memory delta layer over a committed FLAT generation.

Restructuring every update batch into pages is what capped ingest at a
few thousand elements per second: each commit paid page rewrites, link
repair and a seed-leaf flush however small the batch.  The delta layer
buys back that cost the way an LSM tree does — small commits land in a
RAM *memtable* (inserted elements) plus a *tombstone set* (deleted
committed ids), and only at a generation boundary is the accumulated
delta merged: :meth:`~repro.core.flat_index.FLATIndex.merged`
bulkloads the live set — the committed elements minus the tombstones,
plus the memtable — afresh, every element id kept, the way an LSM merge
rewrites its run instead of patching pages in place.  Patching pages
leaves split and under-full pages behind, so a patched index's read
cost drifts up with turnover; a rebuilt one reads like a fresh
bulkload.

Engines never see the delta: they answer from the committed pages of
one generation only, and the delta is applied where answers are
gathered — in :class:`~repro.query.service.QueryService` and at
:class:`~repro.query.cluster.ClusterRouter`'s gather.  A range answer
goes through :meth:`DeltaIndex.overlay` (tombstoned ids dropped, the
memtable's matching elements merged in), a kNN answer through
:meth:`DeltaIndex.knn_overlay`.  The delta is pure RAM and never
touches the page store, so the paper's page-read accounting — the
byte-exact pins every crawl test rests on — is untouched by it.

A ``DeltaIndex`` is treated as *immutable once served*: the serving
layer copies it (:meth:`copy`), absorbs a batch into the copy, and
atomically publishes the copy as the next service version — the same
copy-on-write discipline the page generations use, so in-flight queries
keep reading the delta they captured.  Ids are assigned from the base
index's watermark (monotonic, never reused), which keeps any
interleaving of delta-absorbed and merged updates byte-identical to a
scratch rebuild of the surviving element set.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import mbr_distance_to_point, validate_mbrs


class DeltaIndex:
    """Memtable of inserted elements plus tombstones over a base index.

    ``next_id`` seeds the element-id watermark — pass the base index's
    ``next_element_id`` so delta-assigned ids continue the committed
    sequence exactly as a direct ``apply_batch`` would have.
    """

    def __init__(self, next_id: int = 0):
        #: Element-id watermark; inserts assign from here, monotonically.
        self.next_id = int(next_id)
        #: Ids the watermark started at (merge bookkeeping/diagnostics).
        self.base_next_id = int(next_id)
        #: Memtable rows, in arrival order.  Rows of elements deleted
        #: again before any merge stay allocated but drop out of
        #: ``_live`` — their ids are consumed, never reused.
        self._insert_ids = np.empty(0, dtype=np.int64)
        self._insert_mbrs = np.empty((0, 6), dtype=np.float64)
        self._live = np.empty(0, dtype=bool)
        #: id -> memtable row, live rows only.
        self._row_of: dict = {}
        #: Committed (base) element ids deleted while buffered here.
        self._tombstones: set = set()
        #: ``(sorted tombstone ids, live memtable ids, their MBRs)``,
        #: built on the first query of this delta version and dropped
        #: by every mutation.  A served delta is never mutated (commits
        #: mutate a :meth:`copy`), so a served delta builds them once;
        #: two threads racing to build them build equal arrays.
        self._arrays: tuple | None = None

    # -- mutation --------------------------------------------------------

    def insert(self, element_mbrs: np.ndarray) -> np.ndarray:
        """Buffer elements in the memtable; returns their assigned ids."""
        element_mbrs = validate_mbrs(np.atleast_2d(element_mbrs))
        new_ids = np.arange(
            self.next_id, self.next_id + len(element_mbrs), dtype=np.int64
        )
        if not len(element_mbrs):
            return new_ids
        first_row = len(self._insert_ids)
        self._insert_ids = np.concatenate([self._insert_ids, new_ids])
        self._insert_mbrs = np.vstack([self._insert_mbrs, element_mbrs])
        self._live = np.concatenate(
            [self._live, np.ones(len(new_ids), dtype=bool)]
        )
        for offset, eid in enumerate(new_ids):
            self._row_of[int(eid)] = first_row + offset
        self.next_id += len(new_ids)
        self._arrays = None
        return new_ids

    def delete(self, element_ids, base_contains) -> None:
        """Record deletions: memtable rows die, base ids get tombstones.

        ``base_contains(ids)`` must return a boolean mask of which ids
        are live elements of the committed base index.  Ids found
        neither in the memtable nor in the base raise ``KeyError``
        naming every missing id; duplicates in the batch raise
        ``ValueError``.  Validation is atomic — a bad batch leaves the
        delta untouched.
        """
        element_ids = np.atleast_1d(np.asarray(element_ids, dtype=np.int64))
        if not len(element_ids):
            return
        seen: set = set()
        memtable_kills: list = []
        base_kills: list = []
        unknown: list = []
        in_base = np.asarray(base_contains(element_ids), dtype=bool)
        for eid, base_hit in zip(element_ids, in_base):
            eid = int(eid)
            if eid in seen:
                raise ValueError(f"duplicate element id {eid} in delete batch")
            seen.add(eid)
            if eid in self._row_of:
                memtable_kills.append(eid)
            elif bool(base_hit) and eid not in self._tombstones:
                base_kills.append(eid)
            else:
                unknown.append(eid)
        if unknown:
            raise KeyError(f"unknown element ids: {sorted(unknown)}")
        for eid in memtable_kills:
            self._live[self._row_of.pop(eid)] = False
        self._tombstones.update(base_kills)
        self._arrays = None

    # -- introspection ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._row_of and not self._tombstones

    @property
    def pending_inserts(self) -> int:
        """Live memtable elements awaiting a merge."""
        return len(self._row_of)

    @property
    def tombstone_count(self) -> int:
        return len(self._tombstones)

    @property
    def size(self) -> int:
        """Buffered work: live memtable rows plus tombstones.

        The serving layer's merge trigger — a generation boundary is
        declared once this crosses the configured threshold.
        """
        return len(self._row_of) + len(self._tombstones)

    @property
    def element_delta(self) -> int:
        """Net live-element change the delta represents."""
        return len(self._row_of) - len(self._tombstones)

    def __repr__(self) -> str:
        return (
            f"DeltaIndex(pending_inserts={self.pending_inserts}, "
            f"tombstones={self.tombstone_count}, next_id={self.next_id})"
        )

    # -- querying --------------------------------------------------------

    def _query_arrays(self) -> tuple:
        """``(sorted tombstones, live memtable ids, their MBRs)``.

        Memtable ids are assigned in ascending order and rows kept in
        arrival order, so the live ids come out sorted too.
        """
        arrays = self._arrays
        if arrays is None:
            rows = np.flatnonzero(self._live)
            dead = np.fromiter(
                self._tombstones, dtype=np.int64, count=len(self._tombstones)
            )
            arrays = self._arrays = (
                np.sort(dead), self._insert_ids[rows], self._insert_mbrs[rows]
            )
        return arrays

    def range_hits(self, query: np.ndarray) -> np.ndarray:
        """Memtable element ids whose MBR intersects the query box, sorted."""
        _dead, ids, mbrs = self._query_arrays()
        if not len(ids):
            return ids
        return ids[boxes_intersect_box(mbrs, np.asarray(query))]

    def tombstoned(self, element_ids: np.ndarray) -> np.ndarray:
        """Boolean mask of ids deleted by this delta."""
        dead = self._query_arrays()[0]
        element_ids = np.asarray(element_ids, dtype=np.int64)
        if not len(dead) or not len(element_ids):
            return np.zeros(len(element_ids), dtype=bool)
        at = np.minimum(np.searchsorted(dead, element_ids), len(dead) - 1)
        return dead[at] == element_ids

    def overlay(self, base_ids: np.ndarray, query: np.ndarray) -> np.ndarray:
        """A base crawl's sorted result, corrected for this delta.

        Tombstoned ids are masked out and memtable hits merged in; the
        two id sets are disjoint (memtable ids are above the base
        watermark), so a concatenate-and-sort is an exact merge.
        """
        kept = base_ids[~self.tombstoned(base_ids)]
        hits = self.range_hits(query)
        if not len(hits):
            return kept
        if not len(kept):
            return hits
        return np.sort(np.concatenate([kept, hits]))

    def knn_overlay(self, point: np.ndarray, k: int, base_ids: np.ndarray,
                    base_dists: np.ndarray) -> tuple:
        """The *k* nearest live elements to *point*, as ``(ids, distances)``.

        *base_ids* / *base_dists* must be the committed base's exact top
        ``k + tombstone_count`` by ``(distance, id)``: at most
        :attr:`tombstone_count` deleted elements can precede a live
        element of the true top *k*, so dropping the tombstoned ids
        leaves every live base element that can still make it.  Every
        live memtable row joins as a candidate — the memtable is bounded
        by the merge threshold, so that is cheaper than any pruning —
        and the first *k* by ``(distance, id)`` win, the tie-break of
        every engine and of the brute-force baseline.
        """
        alive = ~self.tombstoned(base_ids)
        _dead, live_ids, live_mbrs = self._query_arrays()
        ids = np.concatenate([base_ids[alive], live_ids])
        dists = np.concatenate([
            base_dists[alive],
            mbr_distance_to_point(live_mbrs, np.asarray(point)),
        ])
        keep = np.lexsort((ids, dists))[:k]
        return ids[keep], dists[keep]

    # -- lifecycle -------------------------------------------------------

    def copy(self) -> "DeltaIndex":
        """An independent copy (the serving layer's copy-on-write unit)."""
        clone = DeltaIndex(self.base_next_id)
        clone.next_id = self.next_id
        clone._insert_ids = self._insert_ids.copy()
        clone._insert_mbrs = self._insert_mbrs.copy()
        clone._live = self._live.copy()
        clone._row_of = dict(self._row_of)
        clone._tombstones = set(self._tombstones)
        return clone

    def drain(self) -> tuple:
        """The merge payload: ``(insert_ids, insert_mbrs, delete_ids, next_id)``.

        Only live memtable rows are replayed (elements inserted and
        deleted again inside the delta's lifetime never reach pages);
        ``next_id`` carries the watermark so the merged index advances
        past the consumed ids either way.  The delta itself is left
        untouched — the caller publishes a fresh one after the merge.
        """
        delete_ids, insert_ids, insert_mbrs = self._query_arrays()
        return insert_ids, insert_mbrs, delete_ids, self.next_id

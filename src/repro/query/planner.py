"""The scatter–gather query planner over spatial shards.

A sharded index splits the space into K gap-free shard boxes (coarse
STR tiles, stretched to enclose their elements exactly like FLAT's own
partitions).  The planner is the pure-geometry half of query routing:
given a query it decides which shards can possibly contribute — every
element MBR is contained in its shard's box, so a shard whose box does
not intersect the query is *provably* irrelevant and is pruned before
any I/O happens.  For kNN it orders shards by MINDIST so the executor
can stop as soon as the next shard is farther than the current k-th
candidate.

The planner never touches stores or engines; the sharded index and the
serving layer consume its decisions, and :class:`QueryPlan` records
them so harnesses can report shard pruning next to the paper's
per-category page accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.intersect import boxes_intersect_box, boxes_intersect_point
from repro.geometry.mbr import mbr_distance_to_point, mbr_union, validate_mbrs


@dataclass
class QueryPlan:
    """What the planner decided for one query (scatter accounting)."""

    #: Total shards in the index.
    shard_count: int
    #: Shard ids the query was actually sent to, in execution order.
    shards_selected: list = field(default_factory=list)

    @property
    def shards_pruned(self) -> int:
        """Shards skipped without any I/O."""
        return self.shard_count - len(self.shards_selected)


class QueryPlanner:
    """Route queries to shards by MBR intersection / MINDIST ordering."""

    def __init__(self, shard_mbrs: np.ndarray):
        self.shard_mbrs = validate_mbrs(shard_mbrs)
        if len(self.shard_mbrs) == 0:
            raise ValueError("a planner needs at least one shard MBR")

    @property
    def shard_count(self) -> int:
        return len(self.shard_mbrs)

    def widen_shard(self, shard_id: int, box: np.ndarray) -> None:
        """Grow one shard's box to additionally enclose *box*.

        The write path calls this when an insert routed to a shard
        falls outside its current box: pruning is exact only while
        every element MBR is contained in its shard's box, so the box
        must widen before the element lands.  Boxes only ever grow —
        a widened shard can be pruned less, never wrongly.
        """
        self.shard_mbrs[shard_id] = mbr_union(self.shard_mbrs[shard_id], box)

    def copy(self) -> "QueryPlanner":
        """An independent planner over copied shard boxes (for merges)."""
        return QueryPlanner(self.shard_mbrs.copy())

    # -- routing -------------------------------------------------------

    def shards_for_box(self, query: np.ndarray) -> np.ndarray:
        """Ids of shards whose box intersects the ``(6,)`` query box.

        Exact pruning: every element MBR is contained in its shard box,
        so the skipped shards cannot hold any result.
        """
        query = np.asarray(query, dtype=np.float64)
        return np.flatnonzero(boxes_intersect_box(self.shard_mbrs, query))

    def shards_for_point(self, point: np.ndarray) -> np.ndarray:
        """Ids of shards whose box contains the ``(3,)`` point."""
        point = np.asarray(point, dtype=np.float64)
        return np.flatnonzero(boxes_intersect_point(self.shard_mbrs, point))

    def shards_by_distance(self, point: np.ndarray) -> tuple:
        """All shard ids ordered by MINDIST to *point* (ties by id).

        The kNN executor walks this order and stops once the next
        shard's distance exceeds its k-th best candidate — the shard
        analogue of best-first search.
        """
        point = np.asarray(point, dtype=np.float64)
        dists = mbr_distance_to_point(self.shard_mbrs, point)
        order = np.lexsort((np.arange(len(dists)), dists))
        return order, dists[order]

    def knn_walk(self, point: np.ndarray, k: int, visit) -> tuple:
        """The *k* nearest elements, walking shards in MINDIST order.

        ``visit(shard_id, k)`` returns one shard's exact local top *k*
        as ``(global ids, distances)``.  The walk stops when the next
        shard's box is strictly farther than the current k-th
        candidate — it cannot contain anything closer, nor an
        equal-distance element that would win the id tie-break from a
        *strictly* farther box.

        Returns ``(ids, distances, QueryPlan)``.
        """
        point = np.asarray(point, dtype=np.float64).reshape(3)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        best_ids = np.empty(0, dtype=np.int64)
        best_dists = np.empty(0, dtype=np.float64)
        selected = []
        order, shard_dists = self.shards_by_distance(point)
        for sid, shard_dist in zip(order, shard_dists):
            if len(best_ids) >= k and shard_dist > best_dists[-1]:
                break
            hit_ids, hit_dists = visit(int(sid), k)
            selected.append(int(sid))
            ids = np.concatenate([best_ids, hit_ids])
            dists = np.concatenate([best_dists, hit_dists])
            keep = np.lexsort((ids, dists))[:k]
            best_ids, best_dists = ids[keep], dists[keep]
        return best_ids, best_dists, QueryPlan(self.shard_count, selected)

    # -- merging -------------------------------------------------------

    @staticmethod
    def merge_sorted_ids(parts) -> np.ndarray:
        """Merge per-shard sorted id arrays into one sorted result.

        Shards partition the element set, so the parts are disjoint and
        a concatenate-and-sort is an exact merge.
        """
        parts = [part for part in parts if len(part)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

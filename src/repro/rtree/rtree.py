"""Disk-backed R-Tree: structure, queries and bottom-up packing.

One R-Tree node occupies exactly one page.  Leaf pages store element
MBRs (85 per 4 K page, as in the paper's setup); internal pages store
(child pointer, child MBR) entries.  All query methods charge page reads
to the backing :class:`~repro.storage.pagestore.PageStore`, which is
what every figure of the paper measures.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

import numpy as np

from repro.geometry.intersect import boxes_intersect_box, boxes_intersect_point
from repro.geometry.mbr import mbr_distance_to_point, mbr_union_many, validate_mbrs
from repro.storage.constants import NODE_FANOUT, OBJECT_PAGE_CAPACITY
from repro.storage.pagestore import PageStore
from repro.storage.serial import (
    decode_element_page,
    decode_node_page,
    encode_element_page,
    encode_node_page,
)

# Leaf element pages are decoded through the store's decode memo
# (PageStore.read_elements) on the query paths, so repeated visits to a
# leaf within one query cost one decode; validate() keeps the direct
# decoder since read_silent carries no accounting.


class RTree:
    """A bulkloaded, read-only R-Tree over a simulated page store.

    Instances are produced by :func:`build_rtree` (or by flushing a
    dynamic :class:`~repro.rtree.rstar.RStarTree`); they are never
    mutated afterwards, matching the paper's bulkload-only setting.

    Attributes
    ----------
    store:
        The backing page store (shared with other indexes in benchmarks).
    root_id:
        Page id of the root node page.
    height:
        Number of *node* levels; leaf element pages sit below level 1
        internal nodes, so a tree over a single leaf page has height 1.
    leaf_element_ids:
        Mapping ``leaf page id -> (N_leaf,) array`` of original data-set
        element ids, in on-page slot order.  Kept in memory: the paper
        stores bare 48-byte MBRs on pages and uses elements "as primary
        keys to retrieve further information".
    """

    def __init__(
        self,
        store: PageStore,
        root_id: int,
        height: int,
        leaf_element_ids: dict,
        element_count: int,
        leaf_category: str,
        internal_category: str,
    ):
        self.store = store
        self.root_id = root_id
        self.height = height
        self.leaf_element_ids = leaf_element_ids
        self.element_count = element_count
        self.leaf_category = leaf_category
        self.internal_category = internal_category

    # -- queries ---------------------------------------------------------

    def range_query(self, query: np.ndarray) -> np.ndarray:
        """All element ids whose MBR intersects the query box.

        Standard R-Tree descent: every node whose MBR intersects the
        query is read — with dense data many sibling MBRs overlap the
        query region, which is exactly the overlap I/O the paper
        quantifies.
        """
        query = np.asarray(query, dtype=np.float64)
        results: list = []
        queue = deque([(self.root_id, self.height)])
        while queue:
            page_id, level = queue.popleft()
            if level == 0:
                mbrs = self.store.read_elements(page_id)
                mask = boxes_intersect_box(mbrs, query)
                if mask.any():
                    results.append(self.leaf_element_ids[page_id][mask])
                continue
            child_ids, child_mbrs, _leaf = decode_node_page(self.store.read(page_id))
            mask = boxes_intersect_box(child_mbrs, query)
            for cid in child_ids[mask]:
                queue.append((int(cid), level - 1))
        if not results:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(results))

    def point_query(self, point: np.ndarray) -> np.ndarray:
        """All element ids whose MBR contains the point.

        The paper uses point queries as the overlap probe (Fig. 2): in
        an overlap-free tree the pages read equal the tree height.
        """
        point = np.asarray(point, dtype=np.float64)
        results: list = []
        queue = deque([(self.root_id, self.height)])
        while queue:
            page_id, level = queue.popleft()
            if level == 0:
                mbrs = self.store.read_elements(page_id)
                mask = boxes_intersect_point(mbrs, point)
                if mask.any():
                    results.append(self.leaf_element_ids[page_id][mask])
                continue
            child_ids, child_mbrs, _leaf = decode_node_page(self.store.read(page_id))
            mask = boxes_intersect_point(child_mbrs, point)
            for cid in child_ids[mask]:
                queue.append((int(cid), level - 1))
        if not results:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(results))

    def knn_query(
        self, point: np.ndarray, k: int, return_distances: bool = False
    ) -> np.ndarray:
        """The *k* elements nearest to *point*: classic best-first search.

        A priority queue ordered by MINDIST (distance from the point to
        a box) holds tree nodes, leaf pages and individual elements; a
        page is read only when its distance reaches the head of the
        queue, so the search provably reads the fewest pages any
        MBR-based algorithm can.  At equal distance, pages order before
        elements (an unexpanded page could still hide an equally-near
        element) and elements order by id — making ties deterministic
        and identical to the brute-force baseline's ``(distance, id)``
        order.
        """
        point = np.asarray(point, dtype=np.float64).reshape(3)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        #: Heap entries: (distance, kind, tiebreak, payload); kind 0 =
        #: page (payload: (page_id, level)), kind 1 = element (tiebreak
        #: is the element id itself, so equal-distance elements pop in
        #: id order).
        counter = itertools.count()
        heap = [(0.0, 0, next(counter), (self.root_id, self.height))]
        out_ids: list = []
        out_dists: list = []
        while heap and len(out_ids) < k:
            dist, kind, tiebreak, payload = heapq.heappop(heap)
            if kind == 1:
                out_ids.append(tiebreak)
                out_dists.append(dist)
                continue
            page_id, level = payload
            if level == 0:
                mbrs = self.store.read_elements(page_id)
                dists = mbr_distance_to_point(mbrs, point)
                for d, eid in zip(dists, self.leaf_element_ids[page_id]):
                    heapq.heappush(heap, (float(d), 1, int(eid), None))
            else:
                child_ids, child_mbrs, _leaf = decode_node_page(
                    self.store.read(page_id)
                )
                dists = mbr_distance_to_point(child_mbrs, point)
                for d, cid in zip(dists, child_ids):
                    heapq.heappush(
                        heap, (float(d), 0, next(counter), (int(cid), level - 1))
                    )
        ids = np.asarray(out_ids, dtype=np.int64)
        if return_distances:
            return ids, np.asarray(out_dists, dtype=np.float64)
        return ids

    def first_hit(self, query: np.ndarray):
        """Depth-first search for *one* leaf page holding a matching element.

        This is the paper's seed operation: "instead of having to follow
        all paths, only one single path has to be followed from the root
        of the tree to one of the leafs" (Sec. IV).  Returns
        ``(leaf_page_id, element_ids)`` of the first leaf containing an
        intersecting element, or ``None`` for an empty query — in which
        case all ambiguous paths were exhausted (the paper's "rare case
        of nearly or completely empty queries").
        """
        query = np.asarray(query, dtype=np.float64)
        stack = [(self.root_id, self.height)]
        while stack:
            page_id, level = stack.pop()
            if level == 0:
                mbrs = self.store.read_elements(page_id)
                mask = boxes_intersect_box(mbrs, query)
                if mask.any():
                    return page_id, self.leaf_element_ids[page_id][mask]
                continue
            child_ids, child_mbrs, _leaf = decode_node_page(self.store.read(page_id))
            mask = boxes_intersect_box(child_mbrs, query)
            # Push in reverse so the first intersecting child is explored
            # first (plain left-to-right DFS).
            for cid in child_ids[mask][::-1]:
                stack.append((int(cid), level - 1))
        return None

    # -- introspection -----------------------------------------------------

    def node_count(self) -> int:
        """Number of internal node pages (the paper's "non-leaf pages")."""
        count = 0
        queue = deque([(self.root_id, self.height)])
        while queue:
            page_id, level = queue.popleft()
            if level == 0:
                continue
            count += 1
            child_ids, _mbrs, _leaf = decode_node_page(self.store.read_silent(page_id))
            for cid in child_ids:
                queue.append((int(cid), level - 1))
        return count

    def leaf_count(self) -> int:
        """Number of leaf element pages."""
        return len(self.leaf_element_ids)

    def validate(self, element_mbrs: np.ndarray) -> None:
        """Structural soundness check (used by the test suite).

        Verifies: every child MBR is contained in its parent entry's MBR,
        every element appears exactly once, leaf/node capacities hold.
        """
        seen = []
        queue = deque([(self.root_id, self.height, None)])
        while queue:
            page_id, level, parent_mbr = queue.popleft()
            if level == 0:
                mbrs = decode_element_page(self.store.read_silent(page_id))
                ids = self.leaf_element_ids[page_id]
                if len(mbrs) != len(ids):
                    raise AssertionError("leaf id table out of sync with page")
                if len(mbrs) > OBJECT_PAGE_CAPACITY:
                    raise AssertionError("leaf page over capacity")
                if parent_mbr is not None and len(mbrs):
                    enclosing = mbr_union_many(mbrs)
                    if not (
                        np.all(parent_mbr[:3] <= enclosing[:3] + 1e-12)
                        and np.all(enclosing[3:] <= parent_mbr[3:] + 1e-12)
                    ):
                        raise AssertionError("leaf elements escape parent MBR")
                if not np.allclose(mbrs, element_mbrs[ids]):
                    raise AssertionError("leaf page stores wrong element MBRs")
                seen.append(ids)
                continue
            child_ids, child_mbrs, _leaf = decode_node_page(
                self.store.read_silent(page_id)
            )
            if len(child_ids) > NODE_FANOUT:
                raise AssertionError("node page over fanout")
            if parent_mbr is not None:
                if not (
                    np.all(parent_mbr[:3] <= child_mbrs[:, :3].min(axis=0) + 1e-12)
                    and np.all(
                        child_mbrs[:, 3:].max(axis=0) <= parent_mbr[3:] + 1e-12
                    )
                ):
                    raise AssertionError("child MBRs escape parent MBR")
            for cid, cmbr in zip(child_ids, child_mbrs):
                queue.append((int(cid), level - 1, cmbr))
        all_ids = np.sort(np.concatenate(seen)) if seen else np.empty(0, np.int64)
        if len(all_ids) != self.element_count or not np.array_equal(
            all_ids, np.arange(self.element_count)
        ):
            raise AssertionError("tree does not contain every element exactly once")


def pack_upper_levels(
    store: PageStore,
    child_page_ids: list,
    child_mbrs: np.ndarray,
    grouper,
    category: str,
    fanout: int = NODE_FANOUT,
) -> tuple:
    """Build internal levels bottom-up over already-written child pages.

    ``grouper(mbrs, capacity)`` returns the per-level grouping (STR
    tiles, Hilbert runs, PR-Tree priority groups, ...).  ``fanout``
    defaults to the 4 K page's 72 entries; experiments may lower it to
    depth-match the paper's much larger trees (see
    ``ExperimentConfig.node_fanout``).  Returns
    ``(root_page_id, extra_levels)``.
    """
    if not 2 <= fanout <= NODE_FANOUT:
        raise ValueError(f"fanout must be in [2, {NODE_FANOUT}], got {fanout}")
    level_ids = list(child_page_ids)
    level_mbrs = np.asarray(child_mbrs, dtype=np.float64)
    levels = 0
    leaf_flag = True  # the first packed level points at element pages
    while len(level_ids) > 1 or levels == 0:
        groups = grouper(level_mbrs, fanout)
        next_ids = []
        next_mbrs = np.empty((len(groups), 6), dtype=np.float64)
        for g, group in enumerate(groups):
            ids = np.array([level_ids[i] for i in group], dtype=np.uint64)
            mbrs = level_mbrs[group]
            page = encode_node_page(ids, mbrs, leaf_flag)
            next_ids.append(store.allocate(page, category))
            next_mbrs[g] = mbr_union_many(mbrs)
        level_ids = next_ids
        level_mbrs = next_mbrs
        levels += 1
        leaf_flag = False
    return level_ids[0], levels


def build_rtree(
    store: PageStore,
    element_mbrs: np.ndarray,
    grouper,
    leaf_category: str,
    internal_category: str,
    leaf_capacity: int = OBJECT_PAGE_CAPACITY,
    fanout: int = NODE_FANOUT,
) -> RTree:
    """Bulkload an R-Tree: group elements into leaves, pack levels above.

    ``grouper`` defines the variant (see :mod:`repro.rtree.str_bulk`,
    :mod:`repro.rtree.hilbert`, :mod:`repro.rtree.prtree`,
    :mod:`repro.rtree.tgs`); it is applied per level, as each original
    algorithm prescribes.
    """
    element_mbrs = validate_mbrs(element_mbrs)
    if len(element_mbrs) == 0:
        raise ValueError("cannot bulkload an empty data set")

    groups = grouper(element_mbrs, leaf_capacity)
    leaf_ids = []
    leaf_mbrs = np.empty((len(groups), 6), dtype=np.float64)
    leaf_element_ids = {}
    for g, group in enumerate(groups):
        mbrs = element_mbrs[group]
        page_id = store.allocate(encode_element_page(mbrs), leaf_category)
        leaf_ids.append(page_id)
        leaf_element_ids[page_id] = np.asarray(group, dtype=np.int64)
        leaf_mbrs[g] = mbr_union_many(mbrs)

    root_id, levels = pack_upper_levels(
        store, leaf_ids, leaf_mbrs, grouper, internal_category, fanout
    )
    return RTree(
        store,
        root_id,
        levels,
        leaf_element_ids,
        len(element_mbrs),
        leaf_category,
        internal_category,
    )

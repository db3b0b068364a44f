"""Dynamic R*-Tree [3] (Beckmann, Kriegel, Schneider, Seeger).

The paper compares only against *bulkloaded* R-Trees "because bulkloaded
trees outperform other R-Tree variants such as the R*-Tree, primarily
due to better page utilization" (Sec. VII).  We implement the R*-Tree
anyway — with ChooseSubtree's minimum-overlap rule, the margin-driven
split and forced reinsertion — so that this claim itself is
reproducible (see the ablation benchmark).

Trees are built in memory by repeated insertion and then *flushed* to a
page store, yielding the same read-only disk representation as the
bulkloaded variants so that all query-time accounting is identical.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.mbr import (
    mbr_center,
    mbr_margin,
    mbr_overlap_volume,
    mbr_union,
    mbr_union_many,
    mbr_volume,
)
from repro.storage.constants import NODE_FANOUT, OBJECT_PAGE_CAPACITY
from repro.storage.pagestore import PageStore
from repro.storage.serial import encode_element_page, encode_node_page
from repro.rtree.rtree import RTree

#: R* forced-reinsert fraction ("p = 30 % of M performed best").
REINSERT_FRACTION = 0.3
#: Minimum node fill as a fraction of capacity ("m = 40 % performs best").
MIN_FILL_FRACTION = 0.4


class _Node:
    """In-memory R*-Tree node; a leaf holds element ids, an internal
    node holds child nodes."""

    __slots__ = ("mbr", "children", "element_ids", "parent")

    def __init__(self, leaf: bool):
        self.mbr = None
        self.children = None if leaf else []
        self.element_ids = [] if leaf else None
        self.parent = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def entry_count(self) -> int:
        return len(self.element_ids if self.is_leaf else self.children)


class RStarTree:
    """An insertion-built R*-Tree over element MBRs."""

    def __init__(self, element_mbrs: np.ndarray):
        self._mbrs = np.ascontiguousarray(element_mbrs, dtype=np.float64)
        if self._mbrs.ndim != 2 or self._mbrs.shape[1] != 6:
            raise ValueError(f"expected (N, 6) MBRs, got {self._mbrs.shape}")
        self._root = _Node(leaf=True)
        self._height = 1  # levels of nodes, leaves included
        self._count = 0

    # -- public API -------------------------------------------------------

    @classmethod
    def from_mbrs(cls, element_mbrs: np.ndarray) -> "RStarTree":
        """Build by inserting every element in index order."""
        tree = cls(element_mbrs)
        for element_id in range(len(tree._mbrs)):
            tree.insert(element_id)
        return tree

    def insert(self, element_id: int) -> None:
        """Insert one element (R* insertion with forced reinsert)."""
        if not 0 <= element_id < len(self._mbrs):
            raise ValueError(f"element id {element_id} out of range")
        # One forced-reinsert pass is allowed per level per insertion.
        self._overflowed_levels: set = set()
        self._insert_at_level(element_id, self._mbrs[element_id], target_level=0)
        self._count += 1

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        return self._height

    def flush(
        self, store: PageStore, leaf_category: str, internal_category: str
    ) -> RTree:
        """Serialize to a read-only disk R-Tree (one node per page)."""
        if self._count == 0:
            raise ValueError("cannot flush an empty R*-Tree")
        leaf_element_ids = {}

        def write(node: _Node) -> tuple:
            if node.is_leaf:
                ids = np.asarray(node.element_ids, dtype=np.int64)
                page = encode_element_page(self._mbrs[ids])
                page_id = store.allocate(page, leaf_category)
                leaf_element_ids[page_id] = ids
                return page_id, node.mbr
            entries = [write(child) for child in node.children]
            child_ids = np.array([e[0] for e in entries], dtype=np.uint64)
            child_mbrs = np.stack([e[1] for e in entries])
            page = encode_node_page(child_ids, child_mbrs, node.children[0].is_leaf)
            return store.allocate(page, internal_category), node.mbr

        if self._root.is_leaf:
            # Wrap the single leaf in a one-entry root node so the disk
            # tree always has at least one internal level.
            leaf_id, leaf_mbr = write(self._root)
            root_page = encode_node_page(
                np.array([leaf_id], dtype=np.uint64), leaf_mbr[None, :], True
            )
            root_id = store.allocate(root_page, internal_category)
            height = 1
        else:
            root_id, _ = write(self._root)
            height = self._height - 1  # disk height counts internal levels
        return RTree(
            store,
            root_id,
            height,
            leaf_element_ids,
            self._count,
            leaf_category,
            internal_category,
        )

    # -- insertion machinery ------------------------------------------------

    def _node_level(self, node: _Node) -> int:
        """Level of *node*: leaves are level 0."""
        level = 0
        probe = node
        while not probe.is_leaf:
            probe = probe.children[0]
            level += 1
        return level

    def _insert_at_level(self, payload, payload_mbr, target_level: int) -> None:
        node = self._choose_subtree(payload_mbr, target_level)
        if node.is_leaf:
            node.element_ids.append(payload)
        else:
            node.children.append(payload)
            payload.parent = node
        node.mbr = payload_mbr.copy() if node.mbr is None else mbr_union(
            node.mbr, payload_mbr
        )
        self._adjust_upward(node.parent, payload_mbr)
        capacity = OBJECT_PAGE_CAPACITY if node.is_leaf else NODE_FANOUT
        if node.entry_count() > capacity:
            self._overflow_treatment(node, target_level)

    def _adjust_upward(self, node: _Node | None, added_mbr) -> None:
        while node is not None:
            node.mbr = added_mbr.copy() if node.mbr is None else mbr_union(
                node.mbr, added_mbr
            )
            node = node.parent

    def _choose_subtree(self, payload_mbr, target_level: int) -> _Node:
        node = self._root
        level = self._height - 1
        while level > target_level:
            child_mbrs = np.stack([c.mbr for c in node.children])
            enlarged = mbr_union(child_mbrs, payload_mbr)
            if level == target_level + 1 and node.children[0].is_leaf:
                # R* rule: into the child needing the least *overlap*
                # enlargement when children are leaves.
                overlap_delta = np.empty(len(node.children))
                for i in range(len(node.children)):
                    others = np.delete(child_mbrs, i, axis=0)
                    before = mbr_overlap_volume(child_mbrs[i], others).sum()
                    after = mbr_overlap_volume(enlarged[i], others).sum()
                    overlap_delta[i] = after - before
                area_delta = mbr_volume(enlarged) - mbr_volume(child_mbrs)
                best = np.lexsort((mbr_volume(child_mbrs), area_delta, overlap_delta))[0]
            else:
                area_delta = mbr_volume(enlarged) - mbr_volume(child_mbrs)
                best = np.lexsort((mbr_volume(child_mbrs), area_delta))[0]
            node = node.children[int(best)]
            level -= 1
        return node

    def _entry_mbrs(self, node: _Node) -> np.ndarray:
        if node.is_leaf:
            return self._mbrs[np.asarray(node.element_ids, dtype=np.int64)]
        return np.stack([c.mbr for c in node.children])

    def _overflow_treatment(self, node: _Node, level: int) -> None:
        if node is not self._root and level not in self._overflowed_levels:
            self._overflowed_levels.add(level)
            self._reinsert(node, level)
        else:
            self._split_node(node, level)

    def _reinsert(self, node: _Node, level: int) -> None:
        """R* forced reinsert: re-route the 30 % farthest-from-center entries."""
        entry_mbrs = self._entry_mbrs(node)
        center = mbr_center(node.mbr)
        dist = np.linalg.norm(mbr_center(entry_mbrs) - center, axis=1)
        n_reinsert = max(1, int(REINSERT_FRACTION * node.entry_count()))
        order = np.argsort(dist)  # close first; far entries get reinserted
        keep, expel = order[:-n_reinsert], order[-n_reinsert:]

        if node.is_leaf:
            entries = [node.element_ids[i] for i in expel]
            node.element_ids = [node.element_ids[i] for i in keep]
        else:
            entries = [node.children[i] for i in expel]
            node.children = [node.children[i] for i in keep]
        self._recompute_mbr(node)
        self._recompute_ancestors(node)
        for entry in entries:
            if node.is_leaf:
                self._insert_at_level(entry, self._mbrs[entry], target_level=0)
            else:
                self._insert_at_level(entry, entry.mbr, target_level=level)

    def _split_node(self, node: _Node, level: int) -> None:
        """R* topological split: axis by min margin sum, distribution by
        min overlap (ties: min area)."""
        entry_mbrs = self._entry_mbrs(node)
        count = len(entry_mbrs)
        capacity = OBJECT_PAGE_CAPACITY if node.is_leaf else NODE_FANOUT
        min_fill = max(1, int(MIN_FILL_FRACTION * capacity))

        best = None  # (overlap, area, axis_order, split_pos)
        for axis in range(3):
            for corner in (axis, axis + 3):
                order = np.argsort(entry_mbrs[:, corner], kind="stable")
                sorted_mbrs = entry_mbrs[order]
                prefix = np.empty_like(sorted_mbrs)
                np.minimum.accumulate(sorted_mbrs[:, :3], axis=0, out=prefix[:, :3])
                np.maximum.accumulate(sorted_mbrs[:, 3:], axis=0, out=prefix[:, 3:])
                suffix = np.empty_like(sorted_mbrs)
                rev = sorted_mbrs[::-1]
                np.minimum.accumulate(rev[:, :3], axis=0, out=suffix[:, :3])
                np.maximum.accumulate(rev[:, 3:], axis=0, out=suffix[:, 3:])
                suffix = suffix[::-1]
                for k in range(min_fill, count - min_fill + 1):
                    left, right = prefix[k - 1], suffix[k]
                    margin = mbr_margin(left) + mbr_margin(right)
                    overlap = mbr_overlap_volume(left, right)
                    area = mbr_volume(left) + mbr_volume(right)
                    key = (float(overlap), float(area), float(margin))
                    if best is None or key < best[0]:
                        best = (key, order, k)
        __, order, k = best
        left_idx, right_idx = order[:k], order[k:]

        sibling = _Node(leaf=node.is_leaf)
        if node.is_leaf:
            ids = node.element_ids
            node.element_ids = [ids[i] for i in left_idx]
            sibling.element_ids = [ids[i] for i in right_idx]
        else:
            children = node.children
            node.children = [children[i] for i in left_idx]
            sibling.children = [children[i] for i in right_idx]
            for child in sibling.children:
                child.parent = sibling
        self._recompute_mbr(node)
        self._recompute_mbr(sibling)

        parent = node.parent
        if parent is None:
            new_root = _Node(leaf=False)
            new_root.children = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            self._recompute_mbr(new_root)
            self._root = new_root
            self._height += 1
            return
        parent.children.append(sibling)
        sibling.parent = parent
        self._recompute_ancestors(node)
        if parent.entry_count() > NODE_FANOUT:
            self._overflow_treatment(parent, level + 1)

    def _recompute_mbr(self, node: _Node) -> None:
        node.mbr = mbr_union_many(self._entry_mbrs(node))

    def _recompute_ancestors(self, node: _Node) -> None:
        probe = node.parent
        while probe is not None:
            self._recompute_mbr(probe)
            probe = probe.parent

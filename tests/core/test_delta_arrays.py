"""The delta's query arrays, built once per delta version.

``DeltaIndex`` answers ``tombstoned``, ``overlay`` and ``knn_overlay``
from a sorted tombstone array and the live memtable rows, built on the
first query and dropped by every mutation.  The pin: over random deltas
— including a ``copy()`` mutated after the original served queries, and
an original mutated after it served — all three equal a reference built
from plain Python sets on every call.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeltaIndex
from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import mbr_distance_to_point

#: Base elements the deltas sit over: ids 0..BASE-1.
BASE = 40


def boxes_of(cells) -> np.ndarray:
    """Unit boxes on an integer grid, so ties and touches are common."""
    lo = np.asarray(cells, dtype=np.float64).reshape(-1, 3)
    return np.concatenate([lo, lo + 1.0], axis=1)


class Reference:
    """The delta's semantics over sets and dicts, rebuilt every call."""

    def __init__(self, delta: DeltaIndex):
        self.rows = {
            int(eid): delta._insert_mbrs[row]
            for eid, row in delta._row_of.items()
        }
        self.dead = set(delta._tombstones)

    def tombstoned(self, ids):
        return np.array([int(i) in self.dead for i in ids], dtype=bool)

    def overlay(self, base_ids, query):
        kept = {int(i) for i in base_ids if int(i) not in self.dead}
        hits = {eid for eid, mbr in self.rows.items()
                if boxes_intersect_box(mbr[None, :], query)[0]}
        return np.array(sorted(kept | hits), dtype=np.int64)

    def knn_overlay(self, point, k, base_ids, base_dists):
        pairs = [(float(d), int(i)) for i, d in zip(base_ids, base_dists)
                 if int(i) not in self.dead]
        pairs += [(float(mbr_distance_to_point(mbr[None, :], point)[0]), eid)
                  for eid, mbr in self.rows.items()]
        return np.array([eid for _d, eid in sorted(pairs)[:k]], dtype=np.int64)


def apply_ops(delta: DeltaIndex, ops) -> None:
    """Insert boxes or delete ids; invalid deletes are skipped."""
    def base_contains(ids):
        return np.asarray(ids) < BASE

    for kind, payload in ops:
        if kind == "insert":
            delta.insert(boxes_of(payload))
        else:
            ids = sorted(set(payload))
            live = [i for i in ids if i in delta._row_of
                    or (i < BASE and i not in delta._tombstones)]
            if live:
                delta.delete(live, base_contains)


def check(delta: DeltaIndex, base_cells, queries, points, k):
    """Every query kind against the reference, twice (cold and built)."""
    reference = Reference(delta)
    base_ids = np.arange(BASE, dtype=np.int64)
    base_boxes = boxes_of(base_cells)
    for _round in range(2):
        assert np.array_equal(delta.tombstoned(base_ids),
                              reference.tombstoned(base_ids))
        for query in queries:
            hit = base_ids[boxes_intersect_box(base_boxes, query)]
            assert np.array_equal(delta.overlay(hit, query),
                                  reference.overlay(hit, query))
        for point in points:
            dists = mbr_distance_to_point(base_boxes, point)
            order = np.lexsort((base_ids, dists))[: k + delta.tombstone_count]
            ids, got = delta.knn_overlay(point, k, base_ids[order], dists[order])
            assert np.array_equal(
                ids,
                reference.knn_overlay(point, k, base_ids[order], dists[order]),
            )
            assert np.all(np.diff(got) >= 0)


_CELL = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(_CELL, min_size=1, max_size=6)),
        st.tuples(st.just("delete"),
                  st.lists(st.integers(0, BASE + 30), min_size=1, max_size=8)),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    base_cells=st.lists(_CELL, min_size=BASE, max_size=BASE),
    first=_OPS,
    later=_OPS,
    query_cells=st.lists(st.tuples(_CELL, _CELL), min_size=1, max_size=4),
    point_cells=st.lists(_CELL, min_size=1, max_size=3),
    k=st.integers(1, 10),
)
def test_query_arrays_match_a_set_reference(base_cells, first, later,
                                            query_cells, point_cells, k):
    queries = [
        np.concatenate([np.minimum(a, b), np.maximum(a, b) + 0.5]).astype(float)
        for a, b in (map(np.asarray, pair) for pair in query_cells)
    ]
    points = [np.asarray(cell, dtype=np.float64) + 0.25 for cell in point_cells]
    delta = DeltaIndex(next_id=BASE)
    apply_ops(delta, first)
    check(delta, base_cells, queries, points, k)
    # A commit mutates a copy of the served delta: the copy answers for
    # its own state and the served original does not move.
    served = Reference(delta)
    copy = delta.copy()
    apply_ops(copy, later)
    check(copy, base_cells, queries, points, k)
    assert Reference(delta).dead == served.dead
    check(delta, base_cells, queries, points, k)
    # Mutating a delta that already served drops its arrays.
    apply_ops(delta, later)
    check(delta, base_cells, queries, points, k)
    insert_ids, insert_mbrs, deletes, next_id = delta.drain()
    reference = Reference(delta)
    assert insert_ids.tolist() == sorted(reference.rows)
    assert deletes.tolist() == sorted(reference.dead)
    assert next_id == delta.next_id

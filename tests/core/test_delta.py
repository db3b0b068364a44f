"""The in-memory delta layer: memtable semantics and the rebuild pin.

Two bars.  First, ``DeltaIndex`` itself behaves like a tiny index:
watermarked monotonic ids, atomic delete validation (``KeyError``
naming every unknown id), exact overlay arithmetic for ranges and kNN.
Second — the differential pin the whole LSM-style write path rests on —
*any* interleaving of delta-absorbed batches, generation-boundary
merges and queries answers byte-identically to a scratch-rebuilt index
over the surviving elements, on memory stores and on restored file
stores, and correcting answers with a delta never changes the
committed crawl's page accounting.  Engines never see the delta: the
answers here are corrected the way the gather points
(``QueryService``, ``ClusterRouter``) correct them, by
:class:`GatherOverlay`.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeltaIndex, FLATIndex
from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import mbr_distance_to_point, point_as_box
from repro.storage import PageStore


def random_mbrs(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2.0, size=(n, 3))], axis=1)


def random_queries(count, seed, lo=-20.0, hi=220.0):
    rng = np.random.default_rng(seed)
    corners = rng.uniform(lo, hi, size=(count, 3))
    return np.concatenate(
        [corners, corners + rng.uniform(3.0, 40.0, size=(count, 3))], axis=1
    )


def live_arrays(live):
    ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    boxes = np.stack([live[int(i)] for i in ids])
    return ids, boxes


class GatherOverlay:
    """A committed index's answers, corrected by *delta* at the gather.

    The rule ``QueryService`` and ``ClusterRouter`` apply: a range
    answer goes through ``DeltaIndex.overlay``; a kNN answer asks the
    base for its top ``k + tombstone_count`` and goes through
    ``DeltaIndex.knn_overlay``.
    """

    def __init__(self, index, delta):
        self.index = index
        self.delta = delta

    @property
    def live_element_count(self):
        return self.index.element_count + self.delta.element_delta

    def range_query(self, query):
        return self.delta.overlay(self.index.range_query(query), query)

    def point_query(self, point):
        return self.range_query(point_as_box(point))

    def knn_query(self, point, k):
        ids, dists = self.index.knn_query(
            point, k + self.delta.tombstone_count, return_distances=True
        )
        return self.delta.knn_overlay(point, k, ids, dists)[0]


class TestDeltaIndex:
    def test_insert_assigns_watermarked_monotonic_ids(self):
        delta = DeltaIndex(next_id=40)
        first = delta.insert(random_mbrs(3, seed=1))
        second = delta.insert(random_mbrs(2, seed=2))
        assert np.array_equal(first, np.array([40, 41, 42]))
        assert np.array_equal(second, np.array([43, 44]))
        assert delta.next_id == 45
        assert delta.pending_inserts == 5

    def test_delete_splits_memtable_kills_from_tombstones(self):
        delta = DeltaIndex(next_id=10)
        ids = delta.insert(random_mbrs(4, seed=3))
        base_live = lambda ids: np.asarray(ids) < 10  # noqa: E731
        delta.delete([int(ids[1]), 5], base_live)
        assert delta.pending_inserts == 3
        assert delta.tombstone_count == 1
        assert delta.size == 4
        assert delta.element_delta == 2
        # The killed memtable row never resurfaces in hits or drains.
        everywhere = np.array([-1e9, -1e9, -1e9, 1e9, 1e9, 1e9])
        assert int(ids[1]) not in delta.range_hits(everywhere)
        drain_ids, drain_mbrs, drain_deletes, next_id = delta.drain()
        assert int(ids[1]) not in drain_ids
        assert len(drain_ids) == len(drain_mbrs) == 3
        assert np.array_equal(drain_deletes, np.array([5]))
        assert next_id == 14

    def test_delete_validation_is_atomic_and_names_unknown_ids(self):
        delta = DeltaIndex(next_id=10)
        delta.insert(random_mbrs(2, seed=4))
        base_live = lambda ids: np.asarray(ids) < 10  # noqa: E731
        with pytest.raises(KeyError, match=r"unknown element ids: \[77, 99\]"):
            delta.delete([10, 99, 3, 77], base_live)
        # Nothing was half-applied.
        assert delta.pending_inserts == 2
        assert delta.tombstone_count == 0
        with pytest.raises(ValueError, match="duplicate element id"):
            delta.delete([3, 3], base_live)
        # A tombstoned id is no longer deletable.
        delta.delete([3], base_live)
        with pytest.raises(KeyError, match=r"unknown element ids: \[3\]"):
            delta.delete([3], base_live)

    def test_overlay_masks_and_merges_sorted(self):
        delta = DeltaIndex(next_id=100)
        mbrs = np.array(
            [[0.0, 0, 0, 1, 1, 1], [50.0, 50, 50, 51, 51, 51]]
        )
        delta.insert(mbrs)
        delta.delete([7], lambda ids: np.ones(len(ids), dtype=bool))
        query = np.array([-1.0, -1, -1, 2, 2, 2])
        out = delta.overlay(np.array([3, 7, 120], dtype=np.int64), query)
        assert np.array_equal(out, np.array([3, 100, 120]))
        assert out.dtype == np.int64

    def test_copy_is_independent(self):
        delta = DeltaIndex(next_id=0)
        delta.insert(random_mbrs(2, seed=5))
        clone = delta.copy()
        clone.insert(random_mbrs(1, seed=6))
        clone.delete([0], lambda ids: np.zeros(len(ids), dtype=bool))
        assert delta.pending_inserts == 2
        assert delta.next_id == 2
        assert clone.pending_inserts == 2  # one inserted, one killed
        assert clone.next_id == 3

    def test_empty_delta_overlay_is_passthrough(self):
        delta = DeltaIndex(next_id=9)
        assert delta.is_empty
        base = np.array([1, 2, 3], dtype=np.int64)
        out = delta.overlay(base, np.array([0.0, 0, 0, 1, 1, 1]))
        assert np.array_equal(out, base)


@settings(max_examples=60, deadline=None)
@given(
    base_cells=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        min_size=1, max_size=30,
    ),
    memtable_cells=st.lists(
        st.tuples(st.integers(-2, 6), st.integers(-2, 6), st.integers(-2, 6)),
        max_size=10,
    ),
    dead=st.sets(st.integers(0, 29), max_size=12),
    point=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    k=st.integers(1, 12),
)
def test_knn_overlay_is_exact_with_ties_by_id(
    base_cells, memtable_cells, dead, point, k
):
    # Unit boxes on an integer grid: many elements share a distance,
    # so the (distance, id) tie-break decides the answer.
    def boxes(cells):
        lo = np.asarray(cells, dtype=np.float64).reshape(-1, 3)
        return np.concatenate([lo, lo + 1.0], axis=1)

    base = boxes(base_cells)
    point = np.asarray(point, dtype=np.float64) + 0.5
    delta = DeltaIndex(next_id=len(base))
    new_ids = delta.insert(boxes(memtable_cells))
    tombstones = sorted(i for i in dead if i < len(base))
    delta.delete(tombstones, lambda ids: np.asarray(ids) < len(base))

    # The base's exact top k + tombstone_count, as an engine returns it.
    base_ids = np.arange(len(base), dtype=np.int64)
    base_dists = mbr_distance_to_point(base, point)
    top = np.lexsort((base_ids, base_dists))[: k + delta.tombstone_count]
    ids, dists = delta.knn_overlay(point, k, base_ids[top], base_dists[top])

    live = {i: base[i] for i in range(len(base)) if i not in tombstones}
    live.update(zip(new_ids.tolist(), boxes(memtable_cells)))
    live_ids, live_boxes = live_arrays(live) if live else (
        np.empty(0, dtype=np.int64), np.empty((0, 6))
    )
    live_dists = mbr_distance_to_point(live_boxes, point)
    want = np.lexsort((live_ids, live_dists))[:k]
    assert np.array_equal(ids, live_ids[want])
    assert np.array_equal(dists, live_dists[want])


class TestDeltaOverlayOnFLAT:
    def test_attached_delta_corrects_all_query_kinds(self):
        mbrs = random_mbrs(500, seed=10)
        index = FLATIndex.build(PageStore(), mbrs, page_capacity=16)
        delta = DeltaIndex(next_id=index.next_element_id)
        new = random_mbrs(60, seed=11, span=150.0)
        new_ids = delta.insert(new)
        delta.delete(list(range(0, 80)), index.contains_elements)
        served = GatherOverlay(index, delta)

        live = {i: mbrs[i] for i in range(80, len(mbrs))}
        for gid, mbr in zip(new_ids, new):
            live[int(gid)] = mbr
        ids, boxes = live_arrays(live)
        assert served.live_element_count == len(live)
        for query in random_queries(15, seed=12):
            assert np.array_equal(
                served.range_query(query), ids[boxes_intersect_box(boxes, query)]
            )
        point = boxes[0, :3]
        contains = np.all(
            (boxes[:, :3] <= point) & (point <= boxes[:, 3:]), axis=1
        )
        assert np.array_equal(served.point_query(point), ids[contains])
        dists = mbr_distance_to_point(boxes, point)
        for k in (1, 8, 40):
            assert np.array_equal(
                served.knn_query(point, k), ids[np.lexsort((ids, dists))[:k]]
            )

    def test_delta_never_touches_page_accounting(self):
        mbrs = random_mbrs(800, seed=13)
        store = PageStore()
        index = FLATIndex.build(store, mbrs, page_capacity=16)
        queries = random_queries(10, seed=14, lo=0.0, hi=100.0)

        def per_query_reads(engine):
            out = []
            for query in queries:
                store.clear_cache()
                before = store.stats.snapshot()
                engine.range_query(query)
                out.append(dict(store.stats.diff(before).reads))
            return out

        bare = per_query_reads(index)
        delta = DeltaIndex(next_id=index.next_element_id)
        delta.insert(random_mbrs(50, seed=15))
        delta.delete(list(range(0, 40)), index.contains_elements)
        assert per_query_reads(GatherOverlay(index, delta)) == bare


# -- the interleaving pin ------------------------------------------------


def _assert_matches_brute_force(served, live, query_seed):
    ids, boxes = live_arrays(live)
    for query in random_queries(6, query_seed):
        assert np.array_equal(
            served.range_query(query), ids[boxes_intersect_box(boxes, query)]
        )
    point = boxes[0, :3]
    dists = mbr_distance_to_point(boxes, point)
    k = min(6, len(ids))
    assert np.array_equal(
        served.knn_query(point, k), ids[np.lexsort((ids, dists))[:k]]
    )


def _drive_interleaving(index, mbrs, seed, ops):
    """Replay *ops* through delta absorption + boundary merges, checking
    the served view against brute force after every step, and finally
    against a scratch-rebuilt index (the byte-identical pin)."""
    rng = np.random.default_rng(seed)
    live = {i: mbrs[i] for i in range(len(mbrs))}
    delta = DeltaIndex(next_id=index.next_element_id)
    for step, op in enumerate(ops):
        if op == "delete" and len(live) > 60:
            pool = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
            victims = rng.choice(
                pool, size=int(rng.integers(5, 40)), replace=False
            )
            delta.delete(victims, index.contains_elements)
            for gid in victims:
                del live[int(gid)]
        elif op == "merge":
            drain_ids, drain_mbrs, drain_deletes, next_id = delta.drain()
            fork = index.fork()
            fork.apply_batch(
                insert_mbrs=drain_mbrs,
                delete_ids=drain_deletes,
                insert_ids=drain_ids,
                next_id=next_id,
            )
            index = fork
            delta = DeltaIndex(next_id=index.next_element_id)
        else:  # insert (also the fallback when too few elements remain)
            new = random_mbrs(
                int(rng.integers(5, 35)),
                seed=1000 * seed % (2**31) + step,
                span=float(rng.uniform(80, 200)),
            )
            for gid, mbr in zip(delta.insert(new), new):
                live[int(gid)] = mbr
        _assert_matches_brute_force(
            GatherOverlay(index, delta), live,
            query_seed=(seed + step) % (2**31),
        )
    # Final bar: a scratch rebuild over the surviving elements answers
    # byte-identically (local rebuild ids map positionally to ours).
    ids, boxes = live_arrays(live)
    rebuilt = FLATIndex.build(PageStore(), boxes, page_capacity=16)
    served = GatherOverlay(index, delta)
    for query in random_queries(8, seed % (2**31)):
        assert np.array_equal(
            served.range_query(query), ids[rebuilt.range_query(query)]
        )


_OPS = st.lists(
    st.sampled_from(["insert", "delete", "merge"]), min_size=1, max_size=6
)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31), ops=_OPS)
def test_interleavings_pin_to_scratch_rebuild_memory_store(seed, ops):
    mbrs = random_mbrs(300, seed=seed % 97)
    index = FLATIndex.build(PageStore(), mbrs, page_capacity=16)
    _drive_interleaving(index, mbrs, seed, ops)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31), ops=_OPS)
def test_interleavings_pin_to_scratch_rebuild_file_store(seed, ops):
    mbrs = random_mbrs(300, seed=seed % 89)
    with tempfile.TemporaryDirectory() as tmp:
        FLATIndex.build(PageStore(), mbrs, page_capacity=16).snapshot(
            Path(tmp) / "snap"
        )
        restored = FLATIndex.restore(Path(tmp) / "snap")
        try:
            _drive_interleaving(restored, mbrs, seed, ops)
        finally:
            restored.store.close()

"""Serving merges: every ``apply_updates`` merge is a bulkload.

In process mode a merge publishes the rebuilt index as the next on-disk
generation — its pages take logical ids past the latest published page
table, so the shared ``categories.bin`` never changes under an earlier
generation — and the service reopens that generation as its base, so it
holds none of the rebuilt pages in RAM.  In thread mode each merge
builds into a fresh store over the committed base, so the pages a served
store holds stay bounded however many merges ran.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import FLATIndex, ShardedFLATIndex, restore_index, snapshot_index
from repro.geometry.intersect import boxes_intersect_box
from repro.query import MODE_PROCESS, QueryService
from repro.storage import PageStore
from repro.storage.filestore import CATEGORIES_FILENAME, FilePageBackend
from repro.storage.pagestore import MemoryPageBackend, OverlayPageBackend


def random_mbrs(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2.0, size=(n, 3))], axis=1)


def random_queries(count, seed):
    rng = np.random.default_rng(seed)
    corners = rng.uniform(-10, 110, size=(count, 3))
    return np.concatenate(
        [corners, corners + rng.uniform(5.0, 30.0, size=(count, 3))], axis=1
    )


def expected(live: dict, query):
    ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    boxes = np.stack([live[int(i)] for i in ids])
    return ids[boxes_intersect_box(boxes, query)]


def churn(service, live: dict, seed: int, count: int = 60):
    """One commit of *count* inserts and *count* deletes; updates *live*."""
    rng = np.random.default_rng(seed)
    inserts = random_mbrs(count, seed=seed, span=105.0)
    pool = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    deletes = rng.choice(pool, size=count, replace=False)
    report = service.apply_updates(inserts=inserts, delete_ids=deletes)
    for gid in deletes:
        del live[int(gid)]
    for gid, mbr in zip(report.inserted_ids, inserts):
        live[int(gid)] = mbr
    return report


def referenced_pages(index) -> set:
    """Every page id one index generation's directories point at."""
    seed = index.seed_index
    return {*index.object_page_element_ids, *seed.leaf_page_ids, seed.root_id}


class TestProcessModeMerges:
    def test_generations_append_and_reopen(self, tmp_path):
        mbrs = random_mbrs(1500, seed=1)
        directory = tmp_path / "snap"
        snapshot_index(FLATIndex.build(PageStore(), mbrs, page_capacity=32),
                       directory)
        restored = restore_index(directory)
        queries = random_queries(10, seed=2)
        live = {i: mbrs[i] for i in range(len(mbrs))}
        states = {0: dict(live)}
        sidecars = {0: (directory / CATEGORIES_FILENAME).read_bytes()}
        context = multiprocessing.get_context("fork")
        try:
            with QueryService(restored, workers=1, mode=MODE_PROCESS,
                              mp_context=context) as service:
                for generation in (1, 2):
                    report = churn(service, live, seed=10 + generation)
                    assert report.merged
                    states[generation] = dict(live)
                    sidecars[generation] = (
                        directory / CATEGORIES_FILENAME
                    ).read_bytes()
                    base = service._base
                    # The service serves the next merge from the
                    # published generation, holding no overlay pages.
                    assert isinstance(base.store.backend, FilePageBackend)
                    assert base.store.backend.generation == generation
                    for query in queries:
                        assert np.array_equal(service.submit(query).result(),
                                              expected(live, query))
            assert base.store.backend.closed
        finally:
            restored.store.close()

        page_counts = {}
        for generation, state in states.items():
            index = restore_index(directory, generation=generation)
            try:
                page_counts[generation] = len(index.store)
                for query in queries:
                    assert np.array_equal(index.range_query(query),
                                          expected(state, query))
                if generation:
                    # A rebuild's pages all sit past the page table of
                    # the generation it was built from.
                    assert min(referenced_pages(index)) >= page_counts[generation - 1]
            finally:
                index.store.close()
        for generation in (1, 2):
            earlier = page_counts[generation - 1]
            assert sidecars[generation][:earlier] == sidecars[generation - 1][:earlier]
            assert sidecars[2][:earlier] == sidecars[generation - 1][:earlier]


def held_pages(store) -> int:
    """Pages a served store holds in RAM."""
    backend = store.backend
    if isinstance(backend, OverlayPageBackend):
        return len(backend.tail_pages())
    assert isinstance(backend, MemoryPageBackend)
    return len(backend)


class TestThreadModeMerges:
    @pytest.mark.parametrize("layout", ["memory", "restored", "sharded"])
    def test_sixteen_merges_keep_held_pages_bounded(self, layout, tmp_path):
        mbrs = random_mbrs(1500, seed=3)
        if layout == "sharded":
            index = ShardedFLATIndex.build(mbrs, shard_count=3, page_capacity=32)
        else:
            index = FLATIndex.build(PageStore(), mbrs, page_capacity=32)
        if layout == "restored":
            snapshot_index(index, tmp_path / "snap")
            index = restore_index(tmp_path / "snap")
        live = {i: mbrs[i] for i in range(len(mbrs))}
        queries = random_queries(8, seed=4)
        try:
            with QueryService(index, workers=2) as service:
                for round_number in range(16):
                    assert churn(service, live, seed=100 + round_number).merged
                served = service._base
                for query in queries:
                    assert np.array_equal(service.submit(query).result(),
                                          expected(live, query))
        finally:
            if layout == "restored":
                index.store.close()
        ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
        boxes = np.stack([live[int(i)] for i in ids])
        if layout == "sharded":
            fresh = ShardedFLATIndex.build(boxes, shard_count=3, page_capacity=32)
            held = sum(held_pages(shard.store) for shard in served.shards)
        else:
            fresh = FLATIndex.build(PageStore(), boxes, page_capacity=32)
            held = held_pages(served.store)
        assert held <= 2 * len(fresh.store)

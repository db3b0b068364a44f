"""The crawl kernel's shared state: the per-generation record table.

Every crawl reads its frontier rows from the seed index's
:class:`~repro.core.seed_index.RecordTable`.  The table is shared by
``with_store`` clones and forks (same pages), a mutation rebuilds the
index with a fresh one, and it is never pickled;
the visited bitmask stays per clone, so sibling clones may crawl at
the same time.  Its flat neighbor array is replaced when a load
outgrows it, so a crawl reads it again after every frontier's fetch.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core import FLATIndex
from repro.storage import PageStore, PageStoreError
from repro.storage.serial import decode_metadata_page, encode_metadata_page


def random_mbrs(n, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2, size=(n, 3))], axis=1)


def random_queries(count, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-5, 95, size=(count, 3))
    return np.concatenate([lo, lo + rng.uniform(1, 20, size=(count, 3))], axis=1)


def build(n=3000, seed=1):
    return FLATIndex.build(PageStore(), random_mbrs(n, seed=seed))


def test_clones_and_forks_share_the_table_until_a_mutation():
    flat = build()
    flat.range_query(np.array([10.0, 10, 10, 40, 40, 40]))
    table = flat.seed_index.records
    assert table.leaves
    clone = flat.with_store(flat.store.view())
    assert clone.seed_index.records is table
    assert clone._visited_scratch is not flat._visited_scratch
    fork = flat.fork()
    assert fork.seed_index.records is table
    loaded = set(table.leaves)
    fork.delete([0])
    assert fork.seed_index.records is not table
    assert set(table.leaves) == loaded


def test_update_drops_the_table_and_answers_stay_exact():
    flat = build().fork()
    queries = random_queries(10, seed=2)
    for query in queries:
        flat.range_query(query)
    assert flat.seed_index.records.leaves
    flat.insert(random_mbrs(400, seed=3))
    assert not flat.seed_index.records.leaves
    rebuilt = FLATIndex.build(
        PageStore(), np.vstack([random_mbrs(3000, seed=1), random_mbrs(400, seed=3)])
    )
    for query in queries:
        assert np.array_equal(flat.range_query(query), rebuilt.range_query(query))


def test_table_is_not_pickled():
    flat = build()
    flat.range_query(np.array([0.0, 0, 0, 100, 100, 100]))
    copy = pickle.loads(pickle.dumps(flat))
    assert not copy.seed_index.records.leaves
    query = np.array([20.0, 20, 20, 50, 50, 50])
    assert np.array_equal(copy.range_query(query), flat.range_query(query))


def test_each_frontier_reads_the_neighbor_array_its_fetch_left():
    """A cold crawl loads leaves frontier by frontier and the flat
    neighbor array is replaced between two of them.  Every array the
    table has let go is overwritten with ids no record has, so a crawl
    that read one would fail; answers are still the scalar crawl's."""
    flat = build()
    seed = flat.seed_index
    query = np.array([10.0, 10, 10, 60, 60, 60])
    want = flat.range_query_scalar(query)
    seed.records.clear()
    arrays = []
    fetch = seed.fetch_records_batch

    def spy(record_ids):
        table = fetch(record_ids)
        for array in arrays:
            if array is not table.neighbor_ids:
                array.fill(np.iinfo(np.int64).max)
        arrays.append(table.neighbor_ids)
        return table

    seed.fetch_records_batch = spy
    assert np.array_equal(flat.range_query(query), want)
    # Replaced after the first frontier: an array taken once per crawl
    # would be stale in a later one.
    assert any(array is not arrays[0] for array in arrays[1:])


def test_a_leaf_with_a_wrong_record_count_raises_a_typed_error():
    flat = build()
    seed = flat.seed_index
    leaf = next(leaf for leaf in seed.leaf_page_ids
                if len(seed.leaf_record_ids[leaf]) > 1)
    records = decode_metadata_page(flat.store.read_silent(leaf))
    # A copy of the store, page for page, with the leaf one record short.
    store = PageStore()
    for page_id in range(len(flat.store)):
        payload = flat.store.read_silent(page_id)
        if page_id == leaf:
            payload = encode_metadata_page(records[:-1])
        store.allocate(payload, flat.store.category(page_id))
    seed = flat.with_store(store).seed_index
    seed.records.clear()
    with pytest.raises(
        PageStoreError,
        match=(f"metadata leaf page {leaf} holds {len(records) - 1} records, "
               f"but the seed index places {len(records)} on it"),
    ):
        seed.fetch_records_batch(seed.leaf_record_ids[leaf])
    assert leaf not in seed.records.leaves


def run_threads(targets, timeout=60):
    """Run one thread per target with a tiny switch interval; join all.

    Returns the exceptions the targets raised.
    """
    errors: list = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_sibling_clones_fill_one_cold_table_concurrently():
    """More threads than cores, switching often, all filling one cold
    table leaf by leaf: a lost or torn row would change a fetched row."""
    flat = build(n=6000, seed=4)
    seed = flat.seed_index
    want = {record.record_id: record for record in seed.iter_records()}
    leaves = [seed.leaf_record_ids[leaf] for leaf in seed.leaf_page_ids]
    clones = [flat.with_store(flat.store.view()).seed_index for _ in range(6)]
    bad: list = []
    for round_ in range(40):
        seed.records.clear()
        barrier = threading.Barrier(len(clones), timeout=30)

        def fetch(pos, clone):
            barrier.wait()
            order = np.random.default_rng(round_ * 10 + pos).permutation(len(leaves))
            for leaf in order:
                table = clone.fetch_records_batch(leaves[leaf])
                for rid in leaves[leaf].tolist():
                    row, record = table.record(rid), want[rid]
                    if not (
                        np.array_equal(row.page_mbr, record.page_mbr)
                        and np.array_equal(row.partition_mbr, record.partition_mbr)
                        and row.object_page_id == record.object_page_id
                        and row.neighbor_ids == record.neighbor_ids
                    ):
                        bad.append((round_, pos, rid))

        bad.extend(run_threads(
            [lambda pos=pos, clone=clone: fetch(pos, clone)
             for pos, clone in enumerate(clones)]
        ))
    assert not bad


def test_sibling_clones_crawl_concurrently():
    flat = build(n=6000, seed=4)
    queries = random_queries(40, seed=5)
    expected = [flat.range_query(query) for query in queries]
    flat.seed_index.records.clear()
    clones = [flat.with_store(flat.store.view()) for _ in range(6)]
    got: dict = {}

    def serve(pos, clone):
        got[pos] = [clone.range_query(query) for query in queries]

    assert not run_threads(
        [lambda pos=pos, clone=clone: serve(pos, clone)
         for pos, clone in enumerate(clones)]
    )
    assert sorted(got) == list(range(len(clones)))
    for results in got.values():
        for ids, want in zip(results, expected):
            assert np.array_equal(ids, want)

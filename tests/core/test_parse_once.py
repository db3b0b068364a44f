"""Parse once: each metadata leaf is parsed once per index generation.

A crawl reads every metadata leaf it touches through the store, so the
buffer pool and the read counters see every read, but the leaf is
*parsed* only while the generation's
:class:`~repro.core.seed_index.RecordTable` lacks it.  Two counters
describe that split: the *logical* decodes (``decode_misses`` /
``decode_hits``) follow the per-query decoded-cache protocol whatever
the table holds, and the *physical* parses (``IOStats.parses``) count
what ran.  The parse calls ``decode_metadata_page`` through
``repro.storage.pagestore``'s module global, where a tracer wrapping
that name sees it.  A fork and a mutated index start from an empty
table, so they parse again.
"""

import numpy as np
import pytest

from repro.core import FLATIndex, ShardedFLATIndex, restore_index, snapshot_index
from repro.data.microcircuit import build_microcircuit
from repro.geometry.intersect import boxes_intersect_box
from repro.query import (
    BenchmarkSpec,
    ClusterRouter,
    MODE_PROCESS,
    QueryService,
    SCALED_SN_FRACTION,
)
from repro.query.workload import random_range_queries
from repro.storage import (
    CATEGORY_METADATA,
    DECODE_ELEMENT,
    DECODE_METADATA,
    IOStats,
    PageStore,
)
from repro.storage import pagestore

SPACE = np.array([0.0, 0.0, 0.0, 100.0, 100.0, 100.0])


def random_mbrs(n, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2.0, size=(n, 3))], axis=1)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """A microcircuit FLAT index exported under ``delta64``, SN boxes."""
    circuit = build_microcircuit(5000, side=12.0, seed=3)
    flat = FLATIndex.build(PageStore(), circuit.mbrs(),
                           space_mbr=circuit.space_mbr)
    queries = BenchmarkSpec("SN", SCALED_SN_FRACTION, 24).queries(
        circuit.space_mbr, seed=11
    )
    directory = tmp_path_factory.mktemp("parse-once") / "delta64"
    snapshot_index(flat, directory, codec="delta64")
    return directory, queries


@pytest.fixture
def parse_calls(monkeypatch):
    """Calls of ``decode_metadata_page`` through pagestore's module global."""
    calls = []
    original = pagestore.decode_metadata_page

    def counting(payload):
        calls.append(len(payload))
        return original(payload)

    monkeypatch.setattr(pagestore, "decode_metadata_page", counting)
    return calls


def cold_pass(index, queries):
    """Serve *queries* cold; the store counters it moved and the
    metadata leaves it read."""
    store = index.store
    leaves: set = set()
    original = store.read

    def read(page_id):
        if store.category(page_id) == CATEGORY_METADATA:
            leaves.add(page_id)
        return original(page_id)

    before = store.stats.snapshot()
    store.read = read
    try:
        answers = []
        for query in queries:
            store.clear_cache()
            answers.append(index.range_query(query))
    finally:
        del store.read
    return store.stats.diff(before), leaves, answers


class TestRestoredIndex:
    def test_one_parse_per_leaf_per_generation(self, exported, parse_calls):
        directory, queries = exported
        index = restore_index(directory)
        try:
            first, leaves, answers = cold_pass(index, queries)
            assert leaves
            assert first.parses[DECODE_METADATA] == len(leaves)
            assert len(parse_calls) == len(leaves)
            second, again, repeat = cold_pass(index, queries)
        finally:
            index.store.close()
        assert again == leaves
        assert DECODE_METADATA not in second.parses
        assert len(parse_calls) == len(leaves)
        for got, want in zip(repeat, answers):
            assert np.array_equal(got, want)

    def test_logical_counters_do_not_depend_on_the_table(self, exported):
        directory, queries = exported
        index = restore_index(directory)
        try:
            first, _leaves, _answers = cold_pass(index, queries)
            assert index.seed_index.records.leaves
            second, _leaves, _answers = cold_pass(index, queries)
        finally:
            index.store.close()
        assert second.decode_misses == first.decode_misses
        assert second.decode_hits == first.decode_hits
        assert second.reads == first.reads
        assert second.physical_bytes == first.physical_bytes
        assert first.decode_misses[DECODE_METADATA] > first.parses[DECODE_METADATA]
        # Element pages keep their decoded cache: every miss is a parse.
        assert second.parses[DECODE_ELEMENT] == second.decode_misses[DECODE_ELEMENT]

    def test_the_scalar_reference_still_parses_every_fetch(self, exported):
        directory, queries = exported
        index = restore_index(directory)
        try:
            store = index.store
            store.clear_cache()
            before = store.stats.snapshot()
            index.range_query_scalar(queries[0])
            delta = store.stats.diff(before)
        finally:
            index.store.close()
        assert delta.parses[DECODE_METADATA] == delta.decode_misses[DECODE_METADATA]


class TestCounterPlumbing:
    def test_parses_survive_snapshot_diff_merge_reset(self):
        stats = IOStats()
        stats.record_parse(DECODE_METADATA)
        before = stats.snapshot()
        stats.record_parse(DECODE_METADATA)
        stats.record_parse(DECODE_ELEMENT)
        assert before.parses == {DECODE_METADATA: 1}
        delta = stats.diff(before)
        assert delta.parses == {DECODE_METADATA: 1, DECODE_ELEMENT: 1}
        delta.merge(stats)
        assert delta.parses == {DECODE_METADATA: 3, DECODE_ELEMENT: 2}
        delta.reset()
        assert delta.parses == {}

    def test_parses_reach_process_mode_aggregate_stats(self, exported):
        directory, queries = exported
        oracle = restore_index(directory)
        try:
            want, leaves, _answers = cold_pass(oracle, queries)
        finally:
            oracle.store.close()
        index = restore_index(directory)
        try:
            with QueryService(index, workers=1, mode=MODE_PROCESS) as service:
                service.run(queries)
                total = service.aggregate_stats()
        finally:
            index.store.close()
        # One worker restores the generation once and parses each leaf
        # the first time it needs it — exactly the in-process count.
        assert total.parses[DECODE_METADATA] == len(leaves)
        assert total.parses == want.parses
        assert total.decode_misses == want.decode_misses

    def test_parses_reach_the_cluster_report(self, tmp_path):
        built = ShardedFLATIndex.build(random_mbrs(2000, seed=4), 2,
                                       space_mbr=SPACE)
        assert built.shard_count == 2
        built.snapshot(tmp_path / "root", codec="delta64")
        queries = random_range_queries(SPACE, 0.002, 12, seed=5)
        oracle = ShardedFLATIndex.restore(tmp_path / "root")
        before = oracle.store.stats.snapshot()
        for query in queries:
            oracle.store.clear_cache()
            oracle.range_query(query)
        want = oracle.store.stats.diff(before)
        oracle.close()
        with ClusterRouter.launch(tmp_path / "root") as router:
            _results, report = router.run(queries)
        assert want.parses[DECODE_METADATA] > 0
        assert report.stats.parses == want.parses


class TestFreshTables:
    def test_a_fork_parses_again(self, exported):
        directory, queries = exported
        base = restore_index(directory)
        try:
            _stats, leaves, answers = cold_pass(base, queries)
            fork = base.fork()
            stats, fork_leaves, fork_answers = cold_pass(fork, queries)
        finally:
            base.store.close()
        assert fork_leaves == leaves
        assert stats.parses[DECODE_METADATA] == len(leaves)
        for got, want in zip(fork_answers, answers):
            assert np.array_equal(got, want)

    def test_a_mutation_parses_again(self):
        mbrs = random_mbrs(3000, seed=2)
        flat = FLATIndex.build(PageStore(), mbrs)
        query = np.array([10.0, 10, 10, 60, 60, 60])
        flat.range_query(query)
        assert flat.seed_index.records.leaves
        store = flat.store
        before = store.stats.snapshot()
        store.clear_cache()
        flat.range_query(query)
        assert DECODE_METADATA not in store.stats.diff(before).parses

        inserted = random_mbrs(20, seed=9) * 0.5 + 20
        new_ids = flat.insert(inserted)
        assert not flat.seed_index.records.leaves
        before = store.stats.snapshot()
        store.clear_cache()
        got = flat.range_query(query)
        assert store.stats.diff(before).parses[DECODE_METADATA] > 0
        everything = np.concatenate([mbrs, inserted])
        ids = np.concatenate([np.arange(len(mbrs)), new_ids])
        want = np.sort(ids[boxes_intersect_box(everything, query)])
        assert np.array_equal(got, want)

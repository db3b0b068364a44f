"""Snapshot/restore round-trip guarantees for FLAT.

The acceptance bar: an index built in memory, snapshotted to a
directory and restored over the mmap-backed file store must return
byte-identical query results *and* page-read counts — pinned here on
the Fig. 13 SN workload (the microcircuit structural-neighborhood
benchmark) and on uniform data.
"""

import json

import numpy as np
import pytest

from repro.core import FLATIndex, restore_index, snapshot_index
from repro.core import seed_index as seed_index_module
from repro.core.snapshot import index_arrays_filename, index_meta_filename
from repro.data.microcircuit import build_microcircuit
from repro.geometry.mbr import mbr_union_many
from repro.query import BenchmarkSpec, SCALED_SN_FRACTION, run_queries
from repro.storage import FilePageStore, PageStore, PageStoreError, SnapshotError
from repro.storage import pagestore as pagestore_module


def random_mbrs(n, seed=0, span=100.0, extent=2.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, extent, size=(n, 3))], axis=1)


@pytest.fixture(scope="module")
def sn_round_trip(tmp_path_factory):
    """One built + restored index pair on the Fig. 13 SN workload."""
    circuit = build_microcircuit(8000, side=15.0, seed=3)
    store = PageStore()
    flat = FLATIndex.build(store, circuit.mbrs(), space_mbr=circuit.space_mbr)
    queries = BenchmarkSpec("SN", SCALED_SN_FRACTION, 40).queries(
        circuit.space_mbr, seed=11
    )
    directory = tmp_path_factory.mktemp("snapshots") / "sn"
    flat.snapshot(directory)
    restored = FLATIndex.restore(directory)
    yield flat, store, restored, queries, directory
    restored.store.close()


class TestFig13SNEquivalence:
    def test_byte_identical_results(self, sn_round_trip):
        flat, store, restored, queries, _ = sn_round_trip
        for query in queries:
            store.clear_cache()
            restored.store.clear_cache()
            expected = flat.range_query(query)
            got = restored.range_query(query)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_identical_page_read_counts(self, sn_round_trip):
        flat, store, restored, queries, _ = sn_round_trip
        built = run_queries(flat, store, queries, "built")
        reopened = run_queries(restored, restored.store, queries, "restored")
        assert reopened.per_query_results == built.per_query_results
        assert reopened.per_query_reads == built.per_query_reads
        assert reopened.reads_by_category == built.reads_by_category
        assert reopened.decodes_by_kind == built.decodes_by_kind

    def test_restored_pages_byte_identical(self, sn_round_trip):
        flat, store, restored, _, _ = sn_round_trip
        assert len(restored.store) == len(store)
        for page_id in range(len(store)):
            assert restored.store.read_silent(page_id) == store.read_silent(page_id)
            assert restored.store.category(page_id) == store.category(page_id)

    def test_restored_store_is_mmap_backed(self, sn_round_trip):
        _, _, restored, _, _ = sn_round_trip
        assert isinstance(restored.store, FilePageStore)
        assert not restored.store.backend.writable


class TestRestoredDirectories:
    def test_directories_match(self, sn_round_trip):
        flat, _, restored, _, _ = sn_round_trip
        assert restored.element_count == flat.element_count
        assert restored.object_page_count == flat.object_page_count
        seed, restored_seed = flat.seed_index, restored.seed_index
        assert restored_seed.root_id == seed.root_id
        assert restored_seed.height == seed.height
        assert restored_seed.leaf_page_ids == seed.leaf_page_ids
        assert np.array_equal(restored_seed.record_page, seed.record_page)
        assert np.array_equal(restored_seed.record_slot, seed.record_slot)
        for page_id, ids in seed.leaf_record_ids.items():
            assert np.array_equal(restored_seed.leaf_record_ids[page_id], ids)
        for page_id, ids in flat.object_page_element_ids.items():
            assert np.array_equal(restored.object_page_element_ids[page_id], ids)

    def test_build_report_round_trips(self, sn_round_trip):
        flat, _, restored, _, _ = sn_round_trip
        assert restored.build_report.partition_count == (
            flat.build_report.partition_count
        )
        assert np.array_equal(
            restored.build_report.pointer_counts, flat.build_report.pointer_counts
        )
        assert restored.pointer_count_histogram() == flat.pointer_count_histogram()

    def test_snapshot_files_present(self, sn_round_trip):
        *_, directory = sn_round_trip
        assert (directory / index_arrays_filename(0)).exists()
        meta = json.loads((directory / index_meta_filename(0)).read_text())
        assert meta["index"] == "FLAT"


class TestBuildTimings:
    TIMINGS = ("partitioning_seconds", "finding_neighbors_seconds",
               "packing_seconds")

    def test_index_file_size_does_not_depend_on_the_timings(self, tmp_path):
        flat = FLATIndex.build(PageStore(), random_mbrs(300, seed=2))
        sizes = []
        for seconds in (0.1, 0.123456789012):
            for name in self.TIMINGS:
                setattr(flat.build_report, name, seconds)
            directory = tmp_path / f"snap-{seconds}"
            snapshot_index(flat, directory)
            sizes.append((directory / index_meta_filename(0)).stat().st_size)
            restored = restore_index(directory)
            for name in self.TIMINGS:
                value = getattr(restored.build_report, name)
                assert value == float(f"{seconds:.9e}")
                assert value == pytest.approx(seconds, rel=1e-9)
            restored.store.close()
        assert sizes[0] == sizes[1]

    def test_numeric_timings_of_older_files_still_open(self, tmp_path):
        flat = FLATIndex.build(PageStore(), random_mbrs(200, seed=3))
        snapshot_index(flat, tmp_path / "snap")
        meta_path = tmp_path / "snap" / index_meta_filename(0)
        meta = json.loads(meta_path.read_text())
        for name in self.TIMINGS:
            meta["build_report"][name] = 0.123456789012
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
        restored = restore_index(tmp_path / "snap")
        for name in self.TIMINGS:
            assert getattr(restored.build_report, name) == 0.123456789012
        restored.store.close()


def computed_cover(index):
    """The union of every partition box, read from the metadata leaves."""
    return mbr_union_many(np.stack(
        [record.partition_mbr for record in index.seed_index.iter_records()]
    ))


@pytest.fixture
def leaf_parses(monkeypatch):
    """Leaf pages parsed, through either name a parse is made by."""
    calls = []
    for module in (seed_index_module, pagestore_module):
        original = module.decode_metadata_page

        def counting(payload, original=original):
            calls.append(len(payload))
            return original(payload)

        monkeypatch.setattr(module, "decode_metadata_page", counting)
    return calls


class TestCarriedCover:
    """The covered space box rides with the index and its files, so
    ``covering_mbr()`` — asked by every merge — parses no leaf."""

    def batch(self, index, seed):
        rng = np.random.default_rng(seed)
        ids = np.concatenate(list(index.object_page_element_ids.values()))
        deletes = np.sort(rng.choice(ids, size=200, replace=False))
        # Some inserts fall outside the space, growing it.
        inserts = random_mbrs(200, seed=seed, span=120.0)
        start = index.next_element_id
        return (np.arange(start, start + 200, dtype=np.int64), inserts,
                deletes, start + 200)

    def test_built_restored_and_merged_carry_the_union(self, tmp_path):
        flat = FLATIndex.build(PageStore(), random_mbrs(3000, seed=5))
        assert np.array_equal(flat.covering_mbr(), computed_cover(flat))
        flat.snapshot(tmp_path / "snap")
        restored = restore_index(tmp_path / "snap")
        try:
            assert np.array_equal(restored.covering_mbr(), computed_cover(flat))
            merged = restored.merged(*self.batch(restored, seed=6))
            assert np.array_equal(merged.covering_mbr(), computed_cover(merged))
            assert not np.array_equal(merged.covering_mbr(),
                                      flat.covering_mbr())
        finally:
            restored.store.close()

    def test_write_path_carries_its_grown_space(self, tmp_path):
        flat = FLATIndex.build(PageStore(), random_mbrs(3000, seed=7))
        _ids, inserts, deletes, _next_id = self.batch(flat, seed=8)
        flat.apply_batch(insert_mbrs=inserts, delete_ids=deletes)
        assert np.array_equal(flat.covering_mbr(), computed_cover(flat))
        flat.snapshot(tmp_path / "snap")
        restored = restore_index(tmp_path / "snap")
        try:
            assert np.array_equal(restored.covering_mbr(), computed_cover(flat))
        finally:
            restored.store.close()

    def test_restore_and_merge_parse_no_leaf(self, tmp_path, leaf_parses):
        flat = FLATIndex.build(PageStore(), random_mbrs(3000, seed=9))
        flat.snapshot(tmp_path / "snap")
        restored = restore_index(tmp_path / "snap")
        try:
            restored.covering_mbr()
            restored.merged(*self.batch(restored, seed=10))
            assert leaf_parses == []
        finally:
            restored.store.close()

    def test_older_files_compute_the_cover(self, tmp_path, leaf_parses):
        flat = FLATIndex.build(PageStore(), random_mbrs(3000, seed=11))
        flat.snapshot(tmp_path / "snap")
        meta_path = tmp_path / "snap" / index_meta_filename(0)
        meta = json.loads(meta_path.read_text())
        del meta["cover"]
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
        restored = restore_index(tmp_path / "snap")
        try:
            assert np.array_equal(restored.covering_mbr(), flat.covering_mbr())
            assert len(leaf_parses) == restored.metadata_page_count
        finally:
            restored.store.close()


class TestSnapshotErrors:
    def test_restore_missing_directory(self, tmp_path):
        with pytest.raises(PageStoreError):
            restore_index(tmp_path / "missing")

    def test_restore_bad_format_version(self, tmp_path):
        flat = FLATIndex.build(PageStore(), random_mbrs(200, seed=1))
        snapshot_index(flat, tmp_path / "snap")
        meta_path = tmp_path / "snap" / index_meta_filename(0)
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(PageStoreError):
            restore_index(tmp_path / "snap")


class TestGenerations:
    """Versioned snapshots of a mutable, file-backed index."""

    def test_mutate_publish_restore_each_generation(self, tmp_path):
        mbrs = random_mbrs(300, seed=6)
        store = FilePageStore.create(tmp_path / "idx")
        flat = FLATIndex.build(store, mbrs, page_capacity=16)
        query = np.array([20.0, 20, 20, 70, 70, 70])
        assert flat.snapshot_generation() == 0
        expected_gen0 = flat.range_query(query)

        extra = random_mbrs(80, seed=7, span=120.0)
        flat.insert(extra)
        flat.delete(np.arange(0, 100))
        assert flat.snapshot_generation() == 1
        expected_gen1 = flat.range_query(query)
        store.close()

        gen0 = FLATIndex.restore(tmp_path / "idx", generation=0)
        latest = FLATIndex.restore(tmp_path / "idx")
        try:
            assert np.array_equal(gen0.range_query(query), expected_gen0)
            assert np.array_equal(latest.range_query(query), expected_gen1)
            assert latest.element_count == 280
        finally:
            gen0.store.close()
            latest.store.close()

    def test_generations_share_unchanged_pages(self, tmp_path):
        from repro.storage.filestore import PAGES_FILENAME

        mbrs = random_mbrs(300, seed=8)
        store = FilePageStore.create(tmp_path / "idx")
        flat = FLATIndex.build(store, mbrs, page_capacity=16)
        flat.snapshot_generation()
        size_after_first = (tmp_path / "idx" / PAGES_FILENAME).stat().st_size
        flat.delete([0])  # touches one object page + metadata
        flat.snapshot_generation()
        size_after_second = (tmp_path / "idx" / PAGES_FILENAME).stat().st_size
        store.close()
        grown_pages = (size_after_second - size_after_first) // 4096
        # Copy-on-write: far fewer new physical pages than the store holds.
        assert 0 < grown_pages < len(flat.store) // 2

    def test_restore_skips_store_only_generations(self, tmp_path):
        # close() after unmanifested mutations publishes a store-only
        # generation; the default restore must fall back to the newest
        # generation that carries index files instead of failing.
        mbrs = random_mbrs(200, seed=14)
        store = FilePageStore.create(tmp_path / "idx")
        flat = FLATIndex.build(store, mbrs, page_capacity=16)
        flat.snapshot_generation()  # generation 0, with index files
        query = np.array([10.0, 10, 10, 80, 80, 80])
        expected = flat.range_query(query)
        flat.insert(random_mbrs(20, seed=15))
        store.close()  # publishes store generation 1, no index files
        restored = FLATIndex.restore(tmp_path / "idx")
        try:
            assert restored.store.generation == 0
            assert np.array_equal(restored.range_query(query), expected)
        finally:
            restored.store.close()

    def test_fork_copies_maintenance_state(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(200, seed=16),
                               page_capacity=16)
        flat.delete([0, 1])  # builds the maintenance directories
        fork = flat.fork()
        # The fork starts from a copy instead of an O(index) rebuild...
        assert fork._mut is not None
        # ...and the copy is independent of the base.
        fork.delete([2])
        assert 2 in flat._mut.element_page
        assert 2 not in fork._mut.element_page

    def test_snapshot_generation_requires_writable_file_store(self):
        flat = FLATIndex.build(PageStore(), random_mbrs(100, seed=9))
        with pytest.raises(PageStoreError, match="writable"):
            flat.snapshot_generation()

    def test_export_into_own_directory_rejected(self, tmp_path):
        store = FilePageStore.create(tmp_path / "idx")
        flat = FLATIndex.build(store, random_mbrs(100, seed=10))
        with pytest.raises(PageStoreError, match="own directory"):
            flat.snapshot(tmp_path / "idx")
        store.close()

    def test_mutated_memory_index_exports_dead_records(self, tmp_path):
        # Merges leave retired record slots; the export/restore pair
        # must round-trip them (restored leaf directory skips them).
        mbrs = random_mbrs(400, seed=11)
        flat = FLATIndex.build(PageStore(), mbrs, page_capacity=12)
        flat.delete(np.arange(0, 350))
        assert int(flat._mut.live.sum()) < flat.seed_index.record_count
        flat.snapshot(tmp_path / "snap")
        restored = FLATIndex.restore(tmp_path / "snap")
        try:
            query = np.array([-10.0, -10, -10, 120, 120, 120])
            assert np.array_equal(
                restored.range_query(query), flat.range_query(query)
            )
            fork = restored.fork()
            fork.insert(random_mbrs(30, seed=12))
            assert fork.element_count == 80
        finally:
            restored.store.close()


class TestIndexSnapshotRobustness:
    def _exported(self, tmp_path):
        flat = FLATIndex.build(PageStore(), random_mbrs(150, seed=13))
        snapshot_index(flat, tmp_path / "snap")
        return tmp_path / "snap"

    def test_corrupt_index_manifest(self, tmp_path):
        directory = self._exported(tmp_path)
        path = directory / index_meta_filename(0)
        path.write_text(path.read_text()[:25])
        with pytest.raises(SnapshotError, match="truncated or not valid JSON"):
            restore_index(directory)

    @pytest.mark.parametrize("cover", [[0.0, 1.0], "box", ["x"] * 6])
    def test_malformed_cover(self, tmp_path, cover):
        directory = self._exported(tmp_path)
        path = directory / index_meta_filename(0)
        meta = json.loads(path.read_text())
        meta["cover"] = cover
        path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotError, match="malformed cover"):
            restore_index(directory)

    def test_missing_array_bundle(self, tmp_path):
        directory = self._exported(tmp_path)
        (directory / index_arrays_filename(0)).unlink()
        with pytest.raises(SnapshotError, match="missing index array bundle"):
            restore_index(directory)

    @pytest.fixture
    def store_opens(self, monkeypatch):
        """Directories ``FilePageStore.open`` was called on."""
        opened = []
        original = FilePageStore.open

        def spy(directory, *args, **kwargs):
            opened.append(directory)
            return original(directory, *args, **kwargs)

        monkeypatch.setattr(FilePageStore, "open", spy)
        return opened

    @pytest.mark.parametrize("field", ["seed_root_id", "seed_height",
                                       "element_count"])
    def test_missing_manifest_field(self, tmp_path, store_opens, field):
        # Refused before the store opens, so no pages.dat is left open.
        directory = self._exported(tmp_path)
        path = directory / index_meta_filename(0)
        meta = json.loads(path.read_text())
        del meta[field]
        path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotError) as raised:
            restore_index(directory)
        assert str(raised.value) == (
            f"snapshot directory {directory}: index manifest {path.name} "
            f"is missing the {field!r} field"
        )
        assert store_opens == []

    def test_missing_array(self, tmp_path, store_opens):
        directory = self._exported(tmp_path)
        path = directory / index_arrays_filename(0)
        with np.load(path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files
                      if name != "record_slot"}
        np.savez(path, **arrays)
        with pytest.raises(SnapshotError) as raised:
            restore_index(directory)
        assert str(raised.value) == (
            f"snapshot directory {directory}: index array bundle {path.name} "
            "is missing the 'record_slot' field"
        )
        assert store_opens == []

    def test_missing_index_manifest_for_generation(self, tmp_path):
        directory = self._exported(tmp_path)
        (directory / index_meta_filename(0)).unlink()
        # Explicitly requested generations fail loudly...
        with pytest.raises(SnapshotError, match="no index manifest"):
            restore_index(directory, generation=0)
        # ...and the default path reports no restorable index at all.
        with pytest.raises(SnapshotError, match="no index snapshot generations"):
            restore_index(directory)


class TestWithStore:
    def test_clone_over_view_matches_original(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(2000, seed=2))
        clone = flat.with_store(store.view())
        rng = np.random.default_rng(5)
        for _ in range(10):
            lo = rng.uniform(-5, 105, size=3)
            query = np.concatenate([lo, lo + rng.uniform(0.5, 20, size=3)])
            store.clear_cache()
            expected = flat.range_query(query)
            clone.store.clear_cache()
            assert np.array_equal(clone.range_query(query), expected)
            # Stats accumulate on the view, not on the original store.
            assert clone.store.stats.total_reads > 0
        assert store.stats.total_reads > 0  # original's own queries

    def test_clone_stats_isolated(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(800, seed=4))
        before = store.stats.snapshot()
        clone = flat.with_store(store.view())
        clone.range_query(np.array([10.0, 10, 10, 40, 40, 40]))
        assert store.stats.diff(before).total_reads == 0
        assert clone.store.stats.total_reads > 0

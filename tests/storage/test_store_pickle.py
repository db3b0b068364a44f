"""Cross-process plumbing of the file store.

Two properties carry process-mode serving:

* a *read-only* mmap-backed backend pickles as its ``(directory,
  generation)`` spec and reattaches by remapping — page payloads never
  cross a pipe, every process shares the OS page cache;
* ``append_overlay_generation`` publishes a rebuild's pages — the data
  file grows only by the pages the rebuild appended, every earlier
  generation stays restorable byte-for-byte, and a rebuild over a
  generation a later one superseded is refused before anything is
  written.
"""

import pickle

import numpy as np
import pytest

from repro.core import FLATIndex, publish_fork_generation, restore_index, snapshot_index
from repro.storage import (
    PAGE_SIZE,
    FilePageBackend,
    PageStore,
    PageStoreError,
    SnapshotError,
    list_generations,
)


def random_mbrs(n, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2.0, size=(n, 3))], axis=1)


@pytest.fixture()
def snapshot_dir(tmp_path):
    flat = FLATIndex.build(PageStore(), random_mbrs(1200, seed=3))
    snapshot_index(flat, tmp_path)
    return tmp_path


class TestBackendPickle:
    def test_read_only_backend_round_trips(self, snapshot_dir):
        backend = FilePageBackend.open(snapshot_dir)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.directory == backend.directory
        assert clone.generation == backend.generation
        assert len(clone) == len(backend)
        for page_id in range(len(backend)):
            assert clone.payload(page_id) == backend.payload(page_id)
            assert clone.category(page_id) == backend.category(page_id)
        clone.close()
        backend.close()

    def test_read_only_store_round_trips(self, snapshot_dir):
        store = PageStore(backend=FilePageBackend.open(snapshot_dir))
        clone = pickle.loads(pickle.dumps(store))
        for page_id in range(len(store)):
            assert clone.read_silent(page_id) == store.read_silent(page_id)
        # The clone's caches and stats start fresh — stat isolation is
        # what lets worker processes report clean per-task deltas.
        assert clone.stats.total_reads == 0
        clone.close()
        store.close()

    def test_restored_index_round_trips(self, snapshot_dir):
        restored = restore_index(snapshot_dir)
        clone = pickle.loads(pickle.dumps(restored))
        query = np.array([20.0, 20, 20, 60, 60, 60])
        assert np.array_equal(clone.range_query(query), restored.range_query(query))
        clone.store.close()
        restored.store.close()


def cold_reads(directory, generation, queries) -> dict:
    """Per-category cold reads of *queries* on one restored generation."""
    index = restore_index(directory, generation=generation)
    try:
        for query in queries:
            index.store.clear_cache()
            index.range_query(query)
        return dict(index.store.stats.reads)
    finally:
        index.store.close()


class TestRebuildPublish:
    def test_file_grows_by_the_rebuild_only(self, snapshot_dir):
        data_file = snapshot_dir / "pages.dat"
        size_before = data_file.stat().st_size
        restored = restore_index(snapshot_dir)
        page_count = len(restored.store)

        fork = restored.fork()
        fork.insert(random_mbrs(30, seed=5))
        tail_count = len(fork.store.backend.tail_pages())
        assert len(fork.store) == page_count + tail_count
        directory, generation = publish_fork_generation(fork)
        assert (directory, generation) == (snapshot_dir, 1)

        # The rebuild's pages were appended, and nothing else: the
        # committed store is never copied alongside the new tail.
        assert data_file.stat().st_size - size_before == tail_count * PAGE_SIZE
        restored.store.close()

    @pytest.mark.parametrize("codec", ["raw", "delta64"])
    def test_publish_over_a_superseded_generation_is_refused(self, tmp_path,
                                                             codec):
        directory = tmp_path / codec
        flat = FLATIndex.build(PageStore(), random_mbrs(3000, seed=11))
        snapshot_index(flat, directory, codec=codec)
        corners = np.random.default_rng(12).uniform(0, 90, size=(40, 3))
        queries = np.hstack([corners, corners + 6.0])
        g0 = restore_index(directory)
        try:
            a = g0.merged(np.arange(3000, 3050), random_mbrs(50, seed=13),
                          [], 3050)
            assert publish_fork_generation(a) == (directory, 1)
            # b rebuilds a, but its overlay still sits on generation 0:
            # its page ids restart where a's did.
            b = a.merged(np.arange(3050, 3150), random_mbrs(100, seed=14),
                         [], 3150)
            files = {path.name: path.read_bytes()
                     for path in directory.iterdir()}
            gen1 = restore_index(directory, generation=1)
            categories = list(gen1.store.backend.iter_categories())
            gen1.store.close()
            reads = cold_reads(directory, 1, queries)
            with pytest.raises(SnapshotError,
                               match="generation 0, which generation 1"):
                publish_fork_generation(b)
        finally:
            g0.store.close()
        assert {path.name: path.read_bytes()
                for path in directory.iterdir()} == files
        gen1 = restore_index(directory, generation=1)
        assert list(gen1.store.backend.iter_categories()) == categories
        gen1.store.close()
        assert cold_reads(directory, 1, queries) == reads

    def test_old_generation_stays_restorable(self, snapshot_dir):
        restored = restore_index(snapshot_dir)
        query = np.array([10.0, 10, 10, 70, 70, 70])
        want = restored.range_query(query)
        pre_bytes = [
            restored.store.read_silent(pid) for pid in range(len(restored.store))
        ]

        fork = restored.fork()
        fork.insert(random_mbrs(40, seed=7))
        fork.delete(np.arange(25))
        publish_fork_generation(fork)
        fork_ids = fork.range_query(query)
        restored.store.close()

        assert list_generations(snapshot_dir)[-1] == 1
        old = restore_index(snapshot_dir, generation=0)
        assert np.array_equal(old.range_query(query), want)
        for pid, payload in enumerate(pre_bytes):
            assert old.store.read_silent(pid) == payload
        old.store.close()

        new = restore_index(snapshot_dir, generation=1)
        assert np.array_equal(new.range_query(query), fork_ids)
        new.store.close()

    def test_publish_requires_overlay_over_file_store(self, snapshot_dir):
        memory_index = FLATIndex.build(PageStore(), random_mbrs(300, seed=9))
        fork = memory_index.fork()
        with pytest.raises(PageStoreError, match="restored snapshot"):
            publish_fork_generation(fork)


class TestTracedWriterNames:
    """The benchmark's tracer times the export through
    ``FilePageBackend.commit_generation`` and a rebuild's publish through
    ``repro.core.snapshot.append_overlay_generation``, and churn's
    ``storage.filestore.commit_ms`` averages the spans of both names, so
    the export must run the first and a rebuild's publish must not."""

    def test_only_the_export_runs_commit_generation(self, tmp_path,
                                                    monkeypatch):
        calls = []
        original = FilePageBackend.commit_generation

        def spy(directory, *args, **kwargs):
            calls.append(directory)
            return original(directory, *args, **kwargs)

        monkeypatch.setattr(FilePageBackend, "commit_generation", spy)
        flat = FLATIndex.build(PageStore(), random_mbrs(300, seed=21))
        snapshot_index(flat, tmp_path / "idx")
        assert calls == [tmp_path / "idx"]
        restored = restore_index(tmp_path / "idx")
        try:
            restored.insert(random_mbrs(10, seed=22))
            assert publish_fork_generation(restored) == (tmp_path / "idx", 1)
        finally:
            restored.store.close()
        assert calls == [tmp_path / "idx"]

"""Incremental snapshot shipping — the cluster's replication primitive.

``pages.dat`` is append-only and a generation only appends (an update
rebuilds the live set onto pages past the previous table), so a replica
that already holds generation *g* needs only the data-file tail to reach
*g+n*.  These tests pin the contract: the shipped directory restores
byte-identical to the source at every generation, repeat ships move
only the pages the new generation appended, and diverged lineages are
refused rather than silently merged.
"""

import numpy as np
import pytest

from repro.core import (
    FLATIndex,
    publish_fork_generation,
    restore_index,
    ship_index_generation,
    snapshot_index,
)
from repro.storage import (
    PAGE_SIZE,
    PageStore,
    SnapshotError,
    list_generations,
    ship_store_generation,
)


def random_mbrs(n, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, 2.0, size=(n, 3))], axis=1)


def publish_next_generation(directory, seed):
    """Fork the latest generation, mutate it, publish the next one."""
    base = restore_index(directory)
    fork = base.fork()
    fork.insert(random_mbrs(25, seed=seed))
    # Disjoint per-seed id ranges: successive generations never try to
    # re-delete an element an earlier generation already removed.
    fork.delete(np.arange(seed * 10, seed * 10 + 10))
    _dir, generation = publish_fork_generation(fork)
    base.store.close()
    return generation


def assert_stores_byte_identical(source_dir, dest_dir, generation):
    src = restore_index(source_dir, generation=generation)
    dst = restore_index(dest_dir, generation=generation)
    try:
        assert len(dst.store) == len(src.store)
        for page_id in range(len(src.store)):
            assert dst.store.read_silent(page_id) == src.store.read_silent(
                page_id
            )
            assert dst.store.category(page_id) == src.store.category(page_id)
        query = np.array([10.0, 10, 10, 80, 80, 80])
        assert np.array_equal(dst.range_query(query), src.range_query(query))
        assert dst.element_count == src.element_count
    finally:
        src.store.close()
        dst.store.close()


@pytest.fixture()
def source_dir(tmp_path):
    flat = FLATIndex.build(PageStore(), random_mbrs(5000, seed=1))
    directory = tmp_path / "source"
    snapshot_index(flat, directory)
    return directory


class TestIncrementalShipping:
    def test_fresh_replica_gets_one_full_copy(self, source_dir, tmp_path):
        replica = tmp_path / "replica"
        report = ship_index_generation(source_dir, replica)
        assert report.full_copy
        assert not report.incremental
        assert report.generation == 0
        # Default codec is raw: the data tail is exactly page-sized.
        assert report.pages_sent * PAGE_SIZE <= report.bytes_sent
        assert report.index_bytes_sent > 0
        assert report.as_dict()["pages_sent"] == report.pages_sent
        assert_stores_byte_identical(source_dir, replica, 0)

    def test_rebuilt_generations_ship_only_their_tail(self, source_dir,
                                                      tmp_path):
        """Several rebuilt generations; each ship moves only the new tail."""
        replica = tmp_path / "replica"
        ship_index_generation(source_dir, replica)
        for seed in (3, 5, 7):
            generation = publish_next_generation(source_dir, seed)
            report = ship_index_generation(source_dir, replica, generation)
            assert report.generation == generation
            assert not report.full_copy
            assert report.incremental
            # The increment is exactly the generation's rebuild — the
            # committed prefix never travels again.
            shipped = restore_index(source_dir, generation=generation)
            previous = restore_index(source_dir, generation=generation - 1)
            try:
                rebuilt = (shipped.object_page_count
                           + shipped.metadata_page_count
                           + shipped.seed_internal_page_count)
                assert report.pages_sent == rebuilt
                assert len(shipped.store) == len(previous.store) + rebuilt
            finally:
                shipped.store.close()
                previous.store.close()
            assert_stores_byte_identical(source_dir, replica, generation)
        assert list_generations(replica) == list_generations(source_dir)

    def test_replica_can_skip_generations(self, source_dir, tmp_path):
        """A lagging replica catches up straight to the latest generation."""
        replica = tmp_path / "replica"
        ship_index_generation(source_dir, replica)
        for seed in (4, 6, 8):
            publish_next_generation(source_dir, seed)
        report = ship_index_generation(source_dir, replica)  # latest = 3
        assert report.generation == 3
        assert not report.full_copy
        assert_stores_byte_identical(source_dir, replica, 3)
        # The skipped intermediate manifests were never shipped.
        assert list_generations(replica) == [0, 3]

    def test_earlier_generations_stay_restorable_on_replica(self, source_dir,
                                                            tmp_path):
        replica = tmp_path / "replica"
        ship_index_generation(source_dir, replica)
        before = restore_index(source_dir, generation=0)
        query = np.array([10.0, 10, 10, 80, 80, 80])
        want = before.range_query(query)
        before.store.close()
        generation = publish_next_generation(source_dir, 9)
        ship_index_generation(source_dir, replica, generation)
        # The append-only discipline holds on the replica too: shipping
        # the new tail never disturbed generation 0's pages.
        old = restore_index(replica, generation=0)
        assert np.array_equal(old.range_query(query), want)
        old.store.close()


class TestShippingRefusals:
    def test_older_or_equal_generation_refused(self, source_dir, tmp_path):
        replica = tmp_path / "replica"
        ship_index_generation(source_dir, replica)
        with pytest.raises(SnapshotError, match="older-or-equal"):
            ship_store_generation(source_dir, replica, 0)

    def test_split_brain_lineage_refused(self, source_dir, tmp_path):
        """Both directories published their own generation 1: refuse.

        Shipping onto a replica whose history diverged would graft the
        source's tail onto foreign pages — the byte-compare of the
        replica's latest manifest against the source's same-generation
        manifest catches it.
        """
        replica = tmp_path / "replica"
        ship_index_generation(source_dir, replica)
        # Rogue writer on the replica: its own, different generation 1.
        base = restore_index(replica)
        rogue = base.fork()
        rogue.insert(random_mbrs(60, seed=23))
        publish_fork_generation(rogue)
        base.store.close()
        publish_next_generation(source_dir, 11)
        publish_next_generation(source_dir, 13)
        with pytest.raises(SnapshotError, match="diverged lineage"):
            ship_store_generation(source_dir, replica, 2)

    def test_refused_ship_writes_nothing_into_the_replica(self, source_dir,
                                                          tmp_path):
        """A ship refused as older-or-equal leaves every replica byte alone.

        The replica published its own generation 1; shipping the
        source's generation 1 onto it is refused, and the replica's
        generation 1 must still restore with its own answers — the
        index files may not land before the store's checks pass.
        """
        replica = tmp_path / "replica"
        ship_index_generation(source_dir, replica)
        base = restore_index(replica)
        rogue = base.fork()
        rogue.insert(random_mbrs(60, seed=23))
        rogue.delete(np.arange(40, 70))
        publish_fork_generation(rogue)
        queries = [np.array([10.0, 10, 10, 80, 80, 80]),
                   np.array([40.0, 0, 20, 60, 100, 50])]
        want = [rogue.range_query(query) for query in queries]
        base.store.close()
        publish_next_generation(source_dir, 11)
        before = {path.name: path.read_bytes() for path in replica.iterdir()}
        with pytest.raises(SnapshotError, match="older-or-equal"):
            ship_index_generation(source_dir, replica, 1)
        assert {path.name: path.read_bytes()
                for path in replica.iterdir()} == before
        restored = restore_index(replica, generation=1)
        try:
            for query, ids in zip(queries, want):
                assert np.array_equal(restored.range_query(query), ids)
            assert restored.element_count == rogue.element_count
        finally:
            restored.store.close()

    def test_empty_source_refused(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SnapshotError, match="no page-store manifest"):
            ship_store_generation(tmp_path / "empty", tmp_path / "replica")

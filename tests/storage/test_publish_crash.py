"""Crash every generation publisher at every write, fsync and rename.

Process-crash model: bytes a write handed to the kernel survive, the
process that wrote them does not.  The harness interposes on the store
writer's calls — file writes made through :mod:`repro.storage.filestore`,
``os.fsync`` and ``os.replace`` — and raises at the k-th call, for every
k; a write that crashes lands its first half (a torn write).  That sees
every write of every publisher because no other module of the package
writes, fsyncs or renames a file (``tests/storage/test_one_writer.py``).
After each crash of an export, a fork publish, a merge's publish (a
rebuilt index on a fresh overlay) and a replica ship, the directory's
latest generation is the old one or the new one, byte-identical in
pages, categories and SN answers, and a second publish succeeds.  Power
loss, where unfsynced bytes vanish too, is not modelled here.
"""

import builtins
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    FLATIndex,
    ShardedFLATIndex,
    publish_fork_generation,
    restore_index,
    ship_index_generation,
    snapshot_index,
)
from repro.data.microcircuit import build_microcircuit
from repro.query import BenchmarkSpec, SCALED_SN_FRACTION
from repro.storage import PageStore, SnapshotError, latest_generation
from repro.storage import filestore

_MANIFEST = re.compile(r"manifest-\d{6}\.json")


class Crash(Exception):
    """The simulated death of the publishing process."""


class Interposer:
    """Records the writer's writes, fsyncs and renames; crashes at the k-th.

    Installed over :mod:`repro.storage.filestore`'s ``open`` and ``os``,
    so it sees exactly the calls of the one writer.  ``calls`` holds
    ``(op, file name)`` pairs; a directory's name ends in ``/``.
    """

    def __init__(self, crash_at=None):
        self.crash_at = crash_at
        self.calls = []
        self.names = {}

    def point(self, op, name):
        self.calls.append((op, name))
        if len(self.calls) == self.crash_at:
            raise Crash(f"{op} {name}")

    def open(self, path, mode="r", *args, **kwargs):
        handle = builtins.open(path, mode, *args, **kwargs)
        if mode.startswith("r") and "+" not in mode:
            return handle
        self.names[handle.fileno()] = Path(path).name
        return _WriteHandle(handle, self)

    def install(self, monkeypatch):
        monkeypatch.setattr(filestore, "open", self.open, raising=False)
        monkeypatch.setattr(filestore, "os", _InterposedOs(self))


class _WriteHandle:
    """A writable file whose every ``write`` is a crash point."""

    def __init__(self, handle, interposer):
        self._handle = handle
        self._interposer = interposer

    def write(self, data):
        try:
            self._interposer.point("write", self._interposer.names[self.fileno()])
        except Crash:
            self._handle.write(bytes(data)[: len(data) // 2])
            raise
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class _InterposedOs:
    """The ``os`` module, with ``fsync`` and ``replace`` as crash points."""

    def __init__(self, interposer):
        self._interposer = interposer

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, path, flags, *args):
        fd = os.open(path, flags, *args)
        self._interposer.names[fd] = Path(path).name + "/"
        return fd

    def fsync(self, fd):
        self._interposer.point("fsync", self._interposer.names[fd])
        os.fsync(fd)

    def replace(self, src, dst):
        self._interposer.point("rename", Path(dst).name)
        os.replace(src, dst)


# -- the indexes under test ------------------------------------------------


@pytest.fixture(scope="module")
def circuit():
    circuit = build_microcircuit(600, side=6.0, seed=3)
    queries = BenchmarkSpec("SN", SCALED_SN_FRACTION, 8).queries(
        circuit.space_mbr, seed=11
    )
    return circuit.mbrs(), circuit.space_mbr, queries


def state_of(index, queries):
    """Pages, categories and SN answers of an index, for comparison."""
    store = index.store
    return (
        [store.read_silent(page_id) for page_id in range(len(store))],
        [store.category(page_id) for page_id in range(len(store))],
        [index.range_query(query).tolist() for query in queries],
    )


def restored_state(directory, generation, queries):
    restored = restore_index(directory, generation=generation)
    try:
        return state_of(restored, queries)
    finally:
        restored.store.close()


def mutate(index, mbrs, seed):
    """One deterministic commit's worth of inserts and deletes."""
    rng = np.random.default_rng(seed)
    live = np.flatnonzero(index.contains_elements(np.arange(len(mbrs))))
    index.insert(mbrs[rng.choice(len(mbrs), size=12, replace=False)] + 0.01)
    index.delete(rng.choice(live, size=8, replace=False))


def publish_next(directory, circuit, seed=99):
    """The next fork publish onto whatever generation survived."""
    mbrs, _space, queries = circuit
    base = restore_index(directory)
    fork = base.fork()
    mutate(fork, mbrs, seed)
    _directory, generation = publish_fork_generation(fork)
    want = state_of(fork, queries)
    base.store.close()
    return generation, want


class Export:
    """``snapshot_index`` of an in-memory index into a fresh directory."""

    def __init__(self, circuit, templates):
        mbrs, space, queries = circuit
        self.circuit = circuit
        self.flat = FLATIndex.build(PageStore(), mbrs, space_mbr=space,
                                    page_capacity=16)
        self.generations = {0: state_of(self.flat, queries)}
        self.old, self.new = None, 0

    def prepare(self, directory):
        self.directory = directory

    def publish(self):
        snapshot_index(self.flat, self.directory)

    def abandon(self):
        pass

    def republish(self, survivor):
        if survivor is None:
            snapshot_index(self.flat, self.directory)
            return 0, self.generations[0]
        return publish_next(self.directory, self.circuit)


class ForkPublish:
    """``publish_fork_generation`` of a fork of a restored generation."""

    def __init__(self, circuit, templates):
        mbrs, space, queries = circuit
        self.circuit = circuit
        self.template = templates / "fork"
        flat = FLATIndex.build(PageStore(), mbrs, space_mbr=space,
                               page_capacity=16)
        snapshot_index(flat, self.template)
        self.old, self.new = 0, 1
        self.prepare(templates / "fork-reference")
        self.generations = {0: state_of(flat, queries),
                            1: state_of(self.fork, queries)}
        self.abandon()

    def prepare(self, directory):
        self.directory = directory
        shutil.copytree(self.template, directory)
        self.base = restore_index(directory)
        self.fork = self.base.fork()
        mutate(self.fork, self.circuit[0], seed=5)

    def publish(self):
        publish_fork_generation(self.fork)

    def abandon(self):
        self.base.store.close()

    def republish(self, survivor):
        return publish_next(self.directory, self.circuit)


def merge_batch(index, mbrs, seed):
    """One deterministic merge's drained batch over *index*."""
    rng = np.random.default_rng(seed)
    first = index.next_element_id
    live = np.flatnonzero(index.contains_elements(np.arange(first)))
    inserts = mbrs[rng.choice(len(mbrs), size=12, replace=False)] + 0.01
    deletes = np.sort(rng.choice(live, size=8, replace=False))
    return np.arange(first, first + 12), inserts, deletes, first + 12


class MergePublish:
    """``publish_fork_generation`` of a merge: the live set rebuilt."""

    def __init__(self, circuit, templates):
        mbrs, space, queries = circuit
        self.circuit = circuit
        self.template = templates / "merge"
        flat = FLATIndex.build(PageStore(), mbrs, space_mbr=space,
                               page_capacity=16)
        snapshot_index(flat, self.template)
        self.old, self.new = 0, 1
        self.prepare(templates / "merge-reference")
        self.generations = {0: state_of(flat, queries),
                            1: state_of(self.merged, queries)}
        self.abandon()

    def prepare(self, directory):
        self.directory = directory
        shutil.copytree(self.template, directory)
        self.base = restore_index(directory)
        self.merged = self.base.merged(
            *merge_batch(self.base, self.circuit[0], seed=5)
        )

    def publish(self):
        publish_fork_generation(self.merged)

    def abandon(self):
        self.base.store.close()

    def republish(self, survivor):
        base = restore_index(self.directory)
        merged = base.merged(*merge_batch(base, self.circuit[0], seed=99))
        _directory, generation = publish_fork_generation(merged)
        want = state_of(merged, self.circuit[2])
        base.store.close()
        return generation, want


class Ship:
    """``ship_index_generation`` of generation 1 onto a replica of 0."""

    def __init__(self, circuit, templates):
        mbrs, space, queries = circuit
        self.source = templates / "ship-source"
        flat = FLATIndex.build(PageStore(), mbrs, space_mbr=space,
                               page_capacity=16)
        snapshot_index(flat, self.source)
        for seed in (5, 6):
            publish_next(self.source, circuit, seed=seed)
        self.template = templates / "ship-replica"
        ship_index_generation(self.source, self.template, 0)
        self.generations = {
            g: restored_state(self.source, g, queries) for g in (0, 1, 2)
        }
        self.old, self.new = 0, 1

    def prepare(self, directory):
        self.directory = directory
        shutil.copytree(self.template, directory)

    def publish(self):
        ship_index_generation(self.source, self.directory, 1)

    def abandon(self):
        pass

    def republish(self, survivor):
        ship_index_generation(self.source, self.directory, survivor + 1)
        return survivor + 1, self.generations[survivor + 1]


PUBLISHERS = {"export": Export, "fork": ForkPublish, "merge": MergePublish,
              "ship": Ship}


@pytest.fixture(scope="module", params=sorted(PUBLISHERS))
def publisher(request, circuit, tmp_path_factory):
    return PUBLISHERS[request.param](
        circuit, tmp_path_factory.mktemp(f"templates-{request.param}")
    )


def recorded_publish(publisher, directory, monkeypatch, crash_at=None):
    """Prepare, then publish under an interposer; returns the interposer."""
    publisher.prepare(directory)
    interposer = Interposer(crash_at)
    with monkeypatch.context() as patch:
        interposer.install(patch)
        publisher.publish()
    return interposer


class TestCrashAtEveryPoint:
    def test_every_crash_point_leaves_old_or_new_generation(
        self, publisher, circuit, tmp_path, monkeypatch
    ):
        queries = circuit[2]
        reference = recorded_publish(publisher, tmp_path / "reference",
                                     monkeypatch)
        publisher.abandon()
        points = len(reference.calls)
        assert points > 0
        for k in range(1, points + 1):
            directory = tmp_path / f"crash-{k}"
            with pytest.raises(Crash):
                recorded_publish(publisher, directory, monkeypatch, crash_at=k)
            publisher.abandon()
            survivor = latest_generation(directory)
            assert survivor in (publisher.old, publisher.new), (k, survivor)
            if survivor is not None:
                assert restored_state(directory, survivor, queries) == (
                    publisher.generations[survivor]
                ), f"crash at {reference.calls[k - 1]} changed generation {survivor}"
            generation, want = publisher.republish(survivor)
            assert latest_generation(directory) == generation
            assert restored_state(directory, generation, queries) == want
            assert not list(directory.glob("*.tmp"))
            shutil.rmtree(directory)


class TestPublishOrder:
    def test_data_then_fsynced_files_then_manifest_between_directory_fsyncs(
        self, publisher, tmp_path, monkeypatch
    ):
        calls = recorded_publish(publisher, tmp_path / "d", monkeypatch).calls
        publisher.abandon()
        renames = [i for i, (op, _name) in enumerate(calls) if op == "rename"]
        assert renames, calls
        data_sync = calls.index(("fsync", "pages.dat"))
        assert data_sync < renames[0]
        for i in renames:
            scratch = calls[i][1] + ".tmp"
            last_write = max(j for j in range(i) if calls[j] == ("write", scratch))
            assert ("fsync", scratch) in calls[last_write:i], calls[i]
        manifest = [i for i in renames if _MANIFEST.fullmatch(calls[i][1])]
        assert len(manifest) == 1
        (m,) = manifest
        directory_syncs = [
            i for i, (op, name) in enumerate(calls)
            if op == "fsync" and name.endswith("/")
        ]
        before = [i for i in renames if i < m]
        assert any(max(before) < i < m for i in directory_syncs), calls
        assert any(i > m for i in directory_syncs), calls


class TestShardRoot:
    """The root manifest of a sharded snapshot under a crash."""

    @pytest.fixture()
    def root(self, circuit, tmp_path, monkeypatch):
        """A published root, the updated index and its publish's calls."""
        mbrs, space, _queries = circuit
        sharded = ShardedFLATIndex.build(mbrs, 2, space_mbr=space)
        directory = tmp_path / "root"
        sharded.snapshot(directory)
        watermark = sharded.next_element_id
        sharded.insert(mbrs[:5] + 0.01)
        reference = Interposer()
        shutil.copytree(directory, tmp_path / "reference")
        with monkeypatch.context() as patch:
            reference.install(patch)
            sharded.write_shard_manifest(tmp_path / "reference")
        return directory, sharded, watermark, reference.calls

    @staticmethod
    def crashed_copy(directory, sharded, k, monkeypatch):
        trial = directory.parent / f"crash-{k}"
        shutil.copytree(directory, trial)
        with monkeypatch.context() as patch:
            Interposer(crash_at=k).install(patch)
            with pytest.raises(Crash):
                sharded.write_shard_manifest(trial)
        return trial

    def test_crash_during_bundle_write_keeps_the_old_root(self, root,
                                                          monkeypatch):
        directory, sharded, watermark, calls = root
        k = calls.index(("write", "shards.npz.tmp")) + 1
        trial = self.crashed_copy(directory, sharded, k, monkeypatch)
        for name in ("shards.npz", "shards.json"):
            assert (trial / name).read_bytes() == (directory / name).read_bytes()
        restored = ShardedFLATIndex.restore(trial)
        assert restored.next_element_id == watermark
        restored.close()

    def test_root_without_a_checksum_still_opens(self, root):
        """Roots written before ``bundle_crc32`` existed carry no field."""
        directory, _sharded, watermark, _calls = root
        meta_path = directory / "shards.json"
        meta = json.loads(meta_path.read_text())
        del meta["bundle_crc32"]
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
        restored = ShardedFLATIndex.restore(directory)
        assert restored.next_element_id == watermark
        restored.close()

    def test_crash_between_the_two_renames_is_refused(self, root,
                                                      monkeypatch):
        directory, sharded, _watermark, calls = root
        bundle = calls.index(("rename", "shards.npz"))
        manifest = calls.index(("rename", "shards.json"))
        # The call at 0-based index k - 1 is the one that never ran.
        for k in range(bundle + 2, manifest + 2):
            trial = self.crashed_copy(directory, sharded, k, monkeypatch)
            with pytest.raises(SnapshotError, match="checksum"):
                ShardedFLATIndex.restore(trial)

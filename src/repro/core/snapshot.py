"""Persist a built FLAT index to a directory and reopen it from disk.

A snapshot directory holds numbered, copy-on-write *generations*:

* ``pages.dat`` / ``categories.bin`` / ``manifest-NNNNNN.json`` — the
  page store (see :mod:`repro.storage.filestore`): the data file is
  append-only, each generation's manifest carries the page-translation
  table of that moment, so unchanged pages are shared byte-for-byte
  between generations and older generations stay restorable.
* ``index-NNNNNN.npz`` — that generation's in-RAM directories: the
  record directory (``record_page`` / ``record_slot``), the seed tree's
  leaf page ids, the object-page → element-id mapping (CSR form) and
  the build report's pointer-count histogram.
* ``index-NNNNNN.json`` — scalars: element count, id watermark, page
  capacity, seed root/height/fanout, the covered space box, build
  timings, a format version.

``snapshot_index`` exports an index into a fresh directory as
generation 0; ``snapshot_generation`` publishes the current state of an
index living on a *writable* file store as the next generation in
place (rewritten pages were already append-redirected, so this is the
cheap path the mutable serving stack uses); ``publish_fork_generation``
publishes a fork of a restored generation; ``ship_index_generation``
copies one generation into a replica.  All four hand the generation's
two index files, as bytes, to the store's one writer
(:func:`~repro.storage.filestore.publish_generation`), which writes
them after the store's own checks pass and before the store manifest,
each through a temp name, an fsync and a rename.  A crash before the
manifest's rename leaves the previous generation the latest one,
byte-identical; after it, the new generation is complete.
``restore_index`` reopens the latest generation — or any older one —
over a read-only ``mmap``-backed
:class:`~repro.storage.filestore.FilePageStore`; queries against the
restored index read the same pages and return the same elements as
against the original (pinned by tests on the Fig. 13 SN workload).
Malformed directories surface as
:class:`~repro.storage.pagestore.SnapshotError`.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.storage.codec import DEFAULT_CODEC
from repro.storage.filestore import (
    FilePageBackend,
    FilePageStore,
    append_overlay_generation,
    latest_generation,
    list_generations,
    require_keys,
    ship_store_generation,
    write_store_snapshot,
)
from repro.storage.pagestore import OverlayPageBackend, PageStoreError, SnapshotError

#: Bumped on any incompatible change to the index serialization.
#: Version 2 introduced numbered generations and the write-path fields
#: (id watermark, page capacity, seed fanout, dead-record slots).
INDEX_FORMAT_VERSION = 2

#: Fields of ``index-N.json`` and arrays of ``index-N.npz`` that a
#: restore cannot do without.
_REQUIRED_META = ("element_count", "seed_root_id", "seed_height")
_REQUIRED_ARRAYS = ("record_page", "record_slot", "leaf_page_ids",
                    "object_page_ids", "object_page_offsets",
                    "object_page_element_ids", "pointer_counts")


def index_meta_filename(generation: int) -> str:
    """Scalar manifest of one index generation."""
    return f"index-{generation:06d}.json"


def index_arrays_filename(generation: int) -> str:
    """Array bundle of one index generation."""
    return f"index-{generation:06d}.npz"


def _index_files(flat, generation: int) -> dict:
    """One generation's ``index-*.json``/``index-*.npz`` pair, as bytes."""
    seed = flat.seed_index
    object_page_ids = np.fromiter(
        flat.object_page_element_ids.keys(),
        dtype=np.int64,
        count=len(flat.object_page_element_ids),
    )
    element_id_lists = [
        np.asarray(flat.object_page_element_ids[int(pid)], dtype=np.int64)
        for pid in object_page_ids
    ]
    offsets = np.zeros(len(element_id_lists) + 1, dtype=np.int64)
    if element_id_lists:
        np.cumsum([len(ids) for ids in element_id_lists], out=offsets[1:])
        values = (
            np.concatenate(element_id_lists)
            if offsets[-1]
            else np.empty(0, dtype=np.int64)
        )
    else:
        values = np.empty(0, dtype=np.int64)

    arrays = io.BytesIO()
    np.savez_compressed(
        arrays,
        record_page=seed.record_page,
        record_slot=seed.record_slot,
        leaf_page_ids=np.asarray(seed.leaf_page_ids, dtype=np.int64),
        object_page_ids=object_page_ids,
        object_page_offsets=offsets,
        object_page_element_ids=values,
        pointer_counts=np.asarray(flat.build_report.pointer_counts, dtype=np.int64),
    )

    report = flat.build_report
    meta = {
        "format_version": INDEX_FORMAT_VERSION,
        "index": "FLAT",
        "generation": generation,
        "element_count": int(flat.element_count),
        "next_element_id": int(flat._next_id),
        "page_capacity": int(flat.page_capacity),
        "seed_root_id": int(seed.root_id),
        "seed_height": int(seed.height),
        "seed_fanout": seed.fanout,
        # The space the partitions tile, so a restore need not parse
        # every metadata leaf to learn it.
        "cover": flat.covering_mbr().tolist(),
        # Timings in a fixed-width form, so the file's size does not
        # vary from build to build; ``float()`` reads them back.
        "build_report": {
            "partitioning_seconds": f"{report.partitioning_seconds:.9e}",
            "finding_neighbors_seconds": (
                f"{report.finding_neighbors_seconds:.9e}"
            ),
            "packing_seconds": f"{report.packing_seconds:.9e}",
            "partition_count": int(report.partition_count),
        },
    }
    return {
        index_meta_filename(generation): (json.dumps(meta, indent=2) + "\n").encode(),
        index_arrays_filename(generation): arrays.getvalue(),
    }


def snapshot_index(flat, directory, codec=DEFAULT_CODEC) -> Path:
    """Export *flat* (a built ``FLATIndex``) into *directory* as generation 0.

    *codec* selects the physical page codec of the target store (see
    :mod:`repro.storage.codec`); the logical pages — and therefore every
    query answer and read count — are codec-invariant, so exporting the
    same index under ``raw`` and ``delta64`` yields byte-identical
    restores over very differently sized ``pages.dat`` files.  The
    export is :func:`~repro.storage.filestore.write_store_snapshot`
    with the index files published beside the store, so a crash
    mid-export leaves no generation behind.  Exporting into the index's
    own directory is refused; :func:`snapshot_generation` publishes in
    place.
    """
    return write_store_snapshot(flat.store, directory, codec=codec,
                                files=_index_files(flat, 0))


def snapshot_generation(flat) -> int:
    """Publish the current state of a file-backed index as a new generation.

    Requires ``flat.store`` to be a *writable*
    :class:`~repro.storage.filestore.FilePageStore` (an index built
    directly on disk).  Unchanged pages are shared with every earlier
    generation; the index files and the store manifest are published
    by the store's one writer, so a partial write never becomes
    restorable.  Returns the generation.
    """
    backend = flat.store.backend
    if not isinstance(backend, FilePageBackend) or not backend.writable:
        raise PageStoreError(
            "snapshot_generation() needs an index built on a writable "
            "FilePageStore; use snapshot_index() to export other stores"
        )
    generation = 0 if backend.generation is None else backend.generation + 1
    return backend.commit_generation(_index_files(flat, generation))


def publish_fork_generation(flat, expected_base: int | None = None) -> tuple:
    """Publish a forked index as the next on-disk generation of its base.

    *flat* must be a fork of a restored snapshot — an index whose store
    is an :class:`~repro.storage.pagestore.OverlayPageBackend` over a
    read-only mmap-backed :class:`~repro.storage.filestore.FilePageBackend`.
    The overlay's changed pages are appended to the base directory
    (copy-on-write: the fork's parent generation and every older one
    stay restorable) and published with this generation's index files
    by :func:`~repro.storage.filestore.append_overlay_generation`, the
    manifest last.  Returns ``(directory, generation)`` — the spec a
    reader in *any* process needs to restore exactly this committed
    state.

    *expected_base* pins the generation this commit believes is the
    directory's latest: if another publisher advanced the directory in
    the meantime, the commit is refused with
    :class:`~repro.storage.pagestore.SnapshotError` instead of silently
    forking the lineage (a serial publisher passes the generation of
    its own last publish — or of its original restore, before the
    first one).  Publishing is single-writer per directory.

    This is how cross-process serving propagates update commits: the
    committing process publishes, worker processes lazily
    :meth:`~repro.core.flat_index.FLATIndex.restore` the named
    generation on their first post-commit task.
    """
    backend = flat.store.backend
    base = getattr(backend, "base", None)
    if not isinstance(backend, OverlayPageBackend) or not isinstance(
        base, FilePageBackend
    ):
        raise PageStoreError(
            "publish_fork_generation() needs a fork of a restored snapshot "
            "(an overlay over a read-only file store); snapshot the index "
            "to disk and fork the restored copy instead"
        )
    directory = base.directory
    latest = latest_generation(directory)
    if expected_base is not None and latest != expected_base:
        raise SnapshotError(
            f"snapshot directory {directory}: commit built on generation "
            f"{expected_base} but the directory has advanced to {latest}; "
            "generation publishing is single-writer per directory"
        )
    return directory, append_overlay_generation(
        backend, _index_files(flat, latest + 1)
    )


def ship_index_generation(source_dir, dest_dir, generation=None):
    """Replicate one *index* generation into a replica directory.

    The index-level face of
    :func:`~repro.storage.filestore.ship_store_generation`: ships the
    store's incremental page tail with the shipped generation's
    ``index-NNNNNN.json``/``.npz`` pair, so the replica directory is
    restorable with :func:`restore_index` at exactly that generation.
    The index files ride inside the store ship: they are written only
    after its lineage checks pass, and before its manifest publishes,
    so a refused ship writes nothing and a half-shipped replica never
    exposes a restorable generation it does not fully hold.

    Returns the store ship's
    :class:`~repro.storage.filestore.ShipStats` with the index-file
    bytes filled into ``index_bytes_sent``.
    """
    source_dir = Path(source_dir)
    if generation is None:
        generation = latest_generation(source_dir)
        if generation is None:
            raise SnapshotError(
                f"no page-store manifest generations in {source_dir}"
            )
    files = {}
    for name in (index_meta_filename(generation), index_arrays_filename(generation)):
        source_path = source_dir / name
        if not source_path.exists():
            raise SnapshotError(
                f"snapshot directory {source_dir} has no index files for "
                f"generation {generation} (missing {name})"
            )
        files[name] = source_path.read_bytes()
    report = ship_store_generation(source_dir, dest_dir, generation, files)
    report.index_bytes_sent = sum(len(payload) for payload in files.values())
    return report


def restore_index(directory, generation=None, buffer=None, decoded=None):
    """Reopen a snapshot generation as a ``FLATIndex`` over an mmap store.

    ``generation=None`` picks the latest published generation.
    ``buffer`` / ``decoded`` configure the restored store's caches,
    exactly as in the :class:`~repro.storage.pagestore.PageStore`
    constructor.  The heavy page payloads stay on disk; only the
    directories (a few arrays) are loaded into RAM.
    """
    from repro.core.flat_index import BuildReport, FLATIndex
    from repro.core.seed_index import SeedIndex

    directory = Path(directory)
    if generation is None:
        # Latest generation carrying index files.  A plain store flush
        # (e.g. FilePageStore.close after unmanifested mutations) may
        # publish a store-only generation; skip those rather than fail.
        candidates = [
            g
            for g in list_generations(directory)
            if (directory / index_meta_filename(g)).exists()
        ]
        if not candidates:
            raise SnapshotError(f"no index snapshot generations in {directory}")
        generation = candidates[-1]
    meta_path = directory / index_meta_filename(generation)
    if not meta_path.exists():
        raise SnapshotError(
            f"snapshot directory {directory} has no index manifest for "
            f"generation {generation} (missing {meta_path.name})"
        )
    try:
        meta = json.loads(meta_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"snapshot directory {directory}: index manifest {meta_path.name} "
            f"is truncated or not valid JSON ({exc})"
        ) from None
    version = meta.get("format_version")
    if version != INDEX_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot directory {directory}: index snapshot format "
            f"{version!r} in {meta_path.name} does not match this build's "
            f"{INDEX_FORMAT_VERSION}"
        )
    require_keys(directory, f"index manifest {meta_path.name}", meta,
                 _REQUIRED_META)
    cover = meta.get("cover")
    if cover is not None:
        try:
            cover = np.asarray(cover, dtype=np.float64).reshape(6)
        except (TypeError, ValueError):
            raise SnapshotError(
                f"snapshot directory {directory}: index manifest "
                f"{meta_path.name} holds a malformed cover {meta['cover']!r}"
            ) from None
    arrays_path = directory / index_arrays_filename(generation)
    if not arrays_path.exists():
        raise SnapshotError(
            f"snapshot directory {directory}: missing index array bundle "
            f"{arrays_path.name}"
        )

    with np.load(arrays_path) as bundle:
        require_keys(directory, f"index array bundle {arrays_path.name}",
                     bundle.files, _REQUIRED_ARRAYS)
        record_page = bundle["record_page"]
        record_slot = bundle["record_slot"]
        leaf_page_ids = [int(pid) for pid in bundle["leaf_page_ids"]]
        object_page_ids = bundle["object_page_ids"]
        offsets = bundle["object_page_offsets"]
        values = bundle["object_page_element_ids"]
        pointer_counts = bundle["pointer_counts"]

    # Leaf page id -> record ids in slot order, rebuilt from the record
    # directory (one lexsort instead of a per-leaf scan).  Records
    # retired by merges carry a -1 leaf and are skipped.
    alive = np.flatnonzero(record_page >= 0)
    order = alive[np.lexsort((record_slot[alive], record_page[alive]))]
    boundaries = np.flatnonzero(np.diff(record_page[order])) + 1
    leaf_record_ids = {
        int(record_page[group[0]]): group
        for group in (np.split(order, boundaries) if len(order) else [])
    }

    object_page_element_ids = {
        int(pid): values[offsets[i]:offsets[i + 1]]
        for i, pid in enumerate(object_page_ids)
    }

    store = FilePageStore.open(
        directory, generation=generation, buffer=buffer, decoded=decoded
    )
    seed_fanout = meta.get("seed_fanout")
    seed = SeedIndex(
        store,
        root_id=int(meta["seed_root_id"]),
        height=int(meta["seed_height"]),
        leaf_page_ids=leaf_page_ids,
        record_page=record_page,
        record_slot=record_slot,
        leaf_record_ids=leaf_record_ids,
        fanout=None if seed_fanout is None else int(seed_fanout),
    )
    report_meta = meta.get("build_report", {})
    report = BuildReport(
        partitioning_seconds=float(report_meta.get("partitioning_seconds", 0.0)),
        finding_neighbors_seconds=float(
            report_meta.get("finding_neighbors_seconds", 0.0)
        ),
        packing_seconds=float(report_meta.get("packing_seconds", 0.0)),
        partition_count=int(report_meta.get("partition_count", 0)),
        pointer_counts=pointer_counts,
    )
    element_count = int(meta["element_count"])
    from repro.storage.constants import OBJECT_PAGE_CAPACITY

    index = FLATIndex(
        store,
        seed,
        object_page_element_ids,
        element_count,
        report,
        page_capacity=int(meta.get("page_capacity", OBJECT_PAGE_CAPACITY)),
        next_id=int(meta.get("next_element_id", element_count)),
    )
    if cover is not None:
        # Older files lack the box; covering_mbr() then computes it.
        index._knn_state["cover"] = cover
    return index

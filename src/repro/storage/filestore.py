"""File-backed page storage: one data file, versioned manifests.

The in-memory :class:`~repro.storage.pagestore.PageStore` is perfect
for build-and-measure experiments but every run pays the full bulkload.
This module is the durable half of the storage layer:

* ``pages.dat`` is strictly **append-only**: every allocation appends
  one physical page, and a written page never changes.  A logical page
  id is mapped to its physical slot through a **page-translation
  table** (directories written before updates became rebuilds may
  still map a page to a later slot).
* A **snapshot** publishes a numbered manifest generation
  (``manifest-000000.json``, ``manifest-000001.json``, ...) holding the
  translation table of that moment.  A new generation only appends:
  an update rebuilds the live set onto new pages past the previous
  table, so every older manifest keeps describing a fully consistent
  store, and a replica holding generation *g* needs only the bytes
  appended since.
* Every generation — an export, a rebuild publish, a replica ship — is
  written by one :func:`publish_generation`, in one order: cut
  ``pages.dat`` back to the bytes already committed, append the new
  blobs and fsync it; write each small file (category sidecar, index
  files) to a temp name, fsync it and rename it into place; fsync the
  directory; publish the manifest the same way; fsync the directory
  again.  The manifest is the commit point.  A process that dies
  anywhere before its rename leaves the previous generation the latest
  one, intact: the data tail past its ``data_bytes`` is garbage the
  next publish cuts off, the sidecar only ever grows, and stray index
  files or ``*.tmp`` names belong to no manifest.
* New pages reach a directory one way: the export
  (:func:`write_store_snapshot`, through
  :meth:`FilePageBackend.commit_generation`) and a rebuild's publish
  (:func:`append_overlay_generation`) both stream them through one
  private page writer, which encodes each page with the directory's
  codec, writes it and drops it, extending the previous generation's
  page table.
* :class:`FilePageBackend` is read-only: :meth:`FilePageBackend.open`
  maps the committed prefix of the data file with :mod:`mmap` and
  serves page reads as slices of the mapping; it loads the **latest**
  generation by default and any older one via ``generation=``.

A one-byte-per-logical-page category sidecar (``categories.bin``)
completes the directory; logical pages never change category, so the
sidecar is append-only in content and any generation reads a prefix of
it.  Malformed or incomplete directories surface as
:class:`~repro.storage.pagestore.SnapshotError` naming the directory
and the problem.

Accounting semantics are identical to the memory store: the backend
only supplies bytes; buffer pool, decode memo and per-category
:class:`~repro.storage.stats.IOStats` live in the owning store.
"""

from __future__ import annotations

import json
import mmap
import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.storage.codec import DEFAULT_CODEC, StoredBlob, get_codec
from repro.storage.constants import PAGE_SIZE
from repro.storage.pagestore import (
    OverlayPageBackend,
    PageStore,
    PageStoreError,
    SnapshotError,
)
from repro.storage.stats import ALL_CATEGORIES

#: Files making up one on-disk page store.
PAGES_FILENAME = "pages.dat"
CATEGORIES_FILENAME = "categories.bin"

#: Bumped on any incompatible change to the directory layout.  Version 2
#: introduced numbered manifest generations and the page-translation
#: table (version-1 directories had a single flat ``manifest.json``).
#: Version 3 introduced page codecs: physical pages are variable-length
#: blobs located by a per-generation ``segments`` offset table, and the
#: manifest records the ``codec`` that produced them.  Version-2
#: directories still open — they are exactly version 3 with the ``raw``
#: codec and fixed ``PAGE_SIZE`` segments.
STORE_FORMAT_VERSION = 3

#: Manifest versions this build reads.
SUPPORTED_STORE_FORMATS = (2, 3)

_CATEGORY_CODE = {name: code for code, name in enumerate(ALL_CATEGORIES)}
_MANIFEST_RE = re.compile(r"manifest-(\d{6})\.json$")


def manifest_filename(generation: int) -> str:
    """The manifest file name of one snapshot generation."""
    if generation < 0:
        raise ValueError(f"generation must be non-negative, got {generation}")
    return f"manifest-{generation:06d}.json"


def list_generations(directory) -> list:
    """All published snapshot generations in *directory*, ascending."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _MANIFEST_RE.fullmatch(entry.name)
        if match:
            found.append(int(match.group(1)))
    return sorted(found)


def latest_generation(directory):
    """The newest published generation in *directory*, or ``None``."""
    generations = list_generations(directory)
    return generations[-1] if generations else None


def _fsync_directory(directory: Path) -> None:
    """Make the renames inside *directory* durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_files(directory, files: dict) -> None:
    """Write small files into *directory* so that none is ever torn.

    Each ``name -> bytes`` entry is written to ``name.tmp``, fsynced and
    renamed over ``name``, in order; then the directory is fsynced.  A
    crash leaves each file either whole and old or whole and new.
    """
    directory = Path(directory)
    for name, payload in files.items():
        scratch = directory / (name + ".tmp")
        with open(scratch, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, directory / name)
    _fsync_directory(directory)


def publish_generation(directory, generation: int, data_bytes: int, blobs,
                       tables, files=None) -> None:
    """Publish one snapshot generation into *directory*.

    The one writer of every store directory, in one fixed order:

    1. cut ``pages.dat`` to *data_bytes* (the bytes already committed),
       append *blobs* and fsync it;
    2. call *tables* for the generation's ``(sidecar, manifest)`` bytes
       — a streamed generation knows its page table only once its last
       blob is written — and write the category sidecar and every
       extra ``name -> bytes`` entry of *files* (a generation's index
       files) with :func:`publish_files`, which fsyncs the directory
       after them;
    3. publish the manifest as ``manifest-<generation>.json`` the same
       way.

    The manifest rename is the commit point: until it lands, the latest
    generation is the previous one and reads exactly as before.
    """
    directory = Path(directory)
    with open(directory / PAGES_FILENAME, "ab") as handle:
        handle.truncate(data_bytes)
        for blob in blobs:
            handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    sidecar, manifest = tables()
    publish_files(directory, {CATEGORIES_FILENAME: sidecar, **(files or {})})
    publish_files(directory, {manifest_filename(generation): manifest})


def _publish_pages(directory: Path, previous, pages, files,
                   codec=None) -> int:
    """Publish *pages* as the generation after *previous*; the one page writer.

    *pages* yields ``(payload, category)`` pairs in page-id order.  Each
    is encoded with the directory's codec — *previous*'s, or *codec*
    for a fresh directory (*previous* ``None``) — handed to
    :func:`publish_generation` and dropped before the next is encoded;
    a ``raw`` page is its own blob.  The page table, segments and
    category sidecar extend *previous*'s.  Returns the new generation.
    """
    table, segments, codes, committed = [], [], bytearray(), 0
    if previous is not None:
        manifest = _load_manifest(directory, previous)
        codec = manifest["codec"]
        table = [int(slot) for slot in manifest["page_table"]]
        segments = [
            (int(offset), int(length)) for offset, length in manifest["segments"]
        ]
        committed = int(manifest["data_bytes"])
        codes += (directory / CATEGORIES_FILENAME).read_bytes()[
            :int(manifest["page_count"])
        ]
    codec = get_codec(codec)
    generation = 0 if previous is None else previous + 1
    data_bytes = committed

    def blobs():
        nonlocal data_bytes
        for payload, category in pages:
            blob = payload if codec.name == "raw" else codec.encode(
                payload, category
            )
            codes.append(_CATEGORY_CODE[category])
            table.append(len(segments))
            segments.append((data_bytes, len(blob)))
            data_bytes += len(blob)
            yield blob

    def tables():
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "page_size": PAGE_SIZE,
            "generation": generation,
            "codec": codec.name,
            "page_count": len(codes),
            "physical_page_count": len(segments),
            "data_bytes": data_bytes,
            "page_table": table,
            "segments": segments,
        }
        return bytes(codes), (json.dumps(manifest) + "\n").encode()

    publish_generation(directory, generation, committed, blobs(), tables,
                       files)
    return generation


def require_keys(directory, source: str, present, keys) -> None:
    """Raise :class:`SnapshotError` naming *directory*, *source* (the
    file) and the first of *keys* that *present* lacks."""
    for key in keys:
        if key not in present:
            raise SnapshotError(
                f"snapshot directory {directory}: {source} is missing the "
                f"{key!r} field"
            )


def _load_manifest(directory: Path, generation: int) -> dict:
    """Read and structurally validate one generation's manifest."""
    path = directory / manifest_filename(generation)
    if not path.exists():
        raise SnapshotError(
            f"snapshot directory {directory} has no generation {generation} "
            f"(missing {path.name})"
        )
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"snapshot directory {directory}: manifest {path.name} is "
            f"truncated or not valid JSON ({exc})"
        ) from None
    if not isinstance(manifest, dict):
        raise SnapshotError(
            f"snapshot directory {directory}: manifest {path.name} does not "
            "hold a JSON object"
        )
    version = manifest.get("format_version")
    if version not in SUPPORTED_STORE_FORMATS:
        raise SnapshotError(
            f"snapshot directory {directory}: store format version {version!r} "
            f"in {path.name} does not match this build's {STORE_FORMAT_VERSION}"
        )
    if manifest.get("page_size") != PAGE_SIZE:
        raise SnapshotError(
            f"snapshot directory {directory}: store was written with "
            f"{manifest.get('page_size')}-byte pages, this build uses {PAGE_SIZE}"
        )
    required = ["page_count", "physical_page_count", "page_table"]
    if version >= 3:
        required += ["codec", "segments", "data_bytes"]
    require_keys(directory, f"manifest {path.name}", manifest, required)
    physical = int(manifest["physical_page_count"])
    if version == 2:
        # A v2 store is a v3 store avant la lettre: raw codec, one
        # fixed-size segment per physical page.  Normalizing here lets
        # every consumer speak v3 and old directories open unmigrated.
        manifest = dict(manifest)
        manifest["codec"] = "raw"
        manifest["segments"] = [
            [slot * PAGE_SIZE, PAGE_SIZE] for slot in range(physical)
        ]
        manifest["data_bytes"] = physical * PAGE_SIZE
    else:
        segments = manifest["segments"]
        if len(segments) != physical:
            raise SnapshotError(
                f"snapshot directory {directory}: manifest {path.name} holds "
                f"{len(segments)} segments for {physical} physical pages"
            )
    return manifest


class FilePageBackend:
    """Page payloads of one published generation, read-only.

    :meth:`open` maps the committed prefix of a store directory's data
    file through :mod:`mmap`, for the latest generation or an explicitly
    requested older one.  Page reads are slices of the mapping, safely
    shareable between any number of stores and threads.  Pages are
    written only by the store writer: :meth:`commit_generation` exports
    generation 0 of a fresh directory, :func:`append_overlay_generation`
    appends a rebuild.
    """

    #: No page is ever allocated on a published generation.
    writable = False

    def __init__(self, directory: Path, categories: list, table: list,
                 segments: list, generation: int, codec):
        self.directory = directory
        #: The published generation this backend maps.
        self.generation = generation
        self._categories = categories
        #: Logical page id -> physical slot (index into ``_segments``).
        self._table = table
        #: Physical slot -> ``(offset, length)`` in ``pages.dat``.
        self._segments = segments
        self._codec = get_codec(codec)
        self._raw_codec = self._codec.name == "raw"
        self._file = None
        self._mmap = None
        #: Set by :meth:`close`; stores check it before their buffer
        #: pool, so no read is served after close.
        self.closed = False

    # -- the export and the reader -------------------------------------

    @classmethod
    def commit_generation(cls, directory, pages, codec=DEFAULT_CODEC,
                          files=None) -> int:
        """Publish *pages* as generation 0 of a fresh store in *directory*.

        *pages* yields ``(payload, category)`` pairs in page-id order;
        *codec* names the physical page codec every page is stored
        under (see :mod:`repro.storage.codec`), recorded in the
        manifest.  The extra ``name -> bytes`` *files* (an index's
        files) are published with it, before its manifest.  Refuses a
        directory that already holds published generations: its
        ``pages.dat`` would be cut back, invalidating every manifest
        that references its pages.  Returns the generation, 0.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        existing = latest_generation(directory)
        if existing is not None:
            raise PageStoreError(
                f"{directory} already holds a page store (generation "
                f"{existing}); exporting into it would cut back its pages"
            )
        return _publish_pages(directory, None, pages, files, codec)

    @classmethod
    def open(cls, directory, generation=None) -> "FilePageBackend":
        """Map an on-disk store read-only, latest generation by default.

        The page codec comes from the generation's manifest, so readers
        never need to know how a store was written.
        """
        directory = Path(directory)
        if generation is None:
            generation = latest_generation(directory)
            if generation is None:
                raise SnapshotError(
                    f"no page-store manifest generations in {directory}"
                )
        manifest = _load_manifest(directory, generation)
        page_count = int(manifest["page_count"])
        physical_count = int(manifest["physical_page_count"])
        data_bytes = int(manifest["data_bytes"])
        table = [int(slot) for slot in manifest["page_table"]]
        segments = [
            (int(offset), int(length))
            for offset, length in manifest["segments"]
        ]
        try:
            codec = get_codec(manifest["codec"])
        except ValueError as exc:
            raise SnapshotError(
                f"snapshot directory {directory}: {exc}"
            ) from None
        if len(table) != page_count:
            raise SnapshotError(
                f"snapshot directory {directory}: page table holds "
                f"{len(table)} entries for {page_count} pages"
            )
        if any(not 0 <= slot < physical_count for slot in table):
            raise SnapshotError(
                f"snapshot directory {directory}: page table references a "
                f"physical slot outside the committed {physical_count} pages"
            )
        if any(
            offset < 0 or length < 0 or offset + length > data_bytes
            for offset, length in segments
        ):
            raise SnapshotError(
                f"snapshot directory {directory}: segment table references "
                f"bytes outside the committed {data_bytes}"
            )
        sidecar = directory / CATEGORIES_FILENAME
        if not sidecar.exists():
            raise SnapshotError(
                f"snapshot directory {directory}: missing category sidecar "
                f"{CATEGORIES_FILENAME}"
            )
        codes = sidecar.read_bytes()
        if len(codes) < page_count:
            raise SnapshotError(
                f"snapshot directory {directory}: category sidecar has "
                f"{len(codes)} entries for {page_count} pages"
            )
        try:
            categories = [ALL_CATEGORIES[code] for code in codes[:page_count]]
        except IndexError:
            raise SnapshotError(
                f"snapshot directory {directory}: corrupt category sidecar"
            ) from None
        backend = cls(directory, categories, table, segments, generation,
                      codec)
        data_path = directory / PAGES_FILENAME
        if not data_path.exists():
            raise SnapshotError(
                f"snapshot directory {directory}: missing data file "
                f"{PAGES_FILENAME}"
            )
        backend._file = open(data_path, "rb")
        size = os.fstat(backend._file.fileno()).st_size
        if size < data_bytes:
            backend._file.close()
            raise SnapshotError(
                f"snapshot directory {directory}: data file holds {size} "
                f"bytes, generation {generation} needs {data_bytes}"
            )
        if data_bytes:
            # Map exactly the committed prefix; uncommitted tail bytes
            # from a later aborted snapshot stay invisible.
            backend._mmap = mmap.mmap(
                backend._file.fileno(), data_bytes, access=mmap.ACCESS_READ
            )
        return backend

    # -- backend protocol ----------------------------------------------

    def payload(self, page_id: int) -> bytes:
        stored = self.blob(page_id)
        return stored if self._raw_codec else stored.inflate()

    def blob(self, page_id: int):
        """The page as stored, not inflated: a :class:`StoredBlob`, or
        the logical bytes on a ``raw`` store (its blob is the page)."""
        self._check_open()
        offset, length = self._segments[self._table[page_id]]
        blob = self._mmap[offset:offset + length]
        if self._raw_codec:
            return blob
        return StoredBlob(blob, self._codec, self._categories[page_id])

    def stored_bytes(self, page_id: int) -> int:
        """Physical bytes this page occupies on disk (its blob length)."""
        return self._segments[self._table[page_id]][1]

    @property
    def codec(self) -> str:
        """Name of the codec this store's physical pages are encoded with."""
        return self._codec.name

    def drop_os_cache(self) -> None:
        """Best-effort eviction of this store's pages from the OS cache.

        The scale benchmark uses this to measure genuinely cold reads:
        ``posix_fadvise(DONTNEED)`` drops the clean page-cache pages
        backing ``pages.dat`` and ``madvise`` zaps the mapping's
        resident pages.  A no-op where unsupported.
        """
        if self.closed:
            return
        try:
            os.posix_fadvise(
                self._file.fileno(), 0, 0, os.POSIX_FADV_DONTNEED
            )
        except (AttributeError, OSError):
            pass
        if self._mmap is not None:
            try:
                self._mmap.madvise(mmap.MADV_DONTNEED)
            except (AttributeError, ValueError, OSError):
                pass

    def category(self, page_id: int) -> str:
        return self._categories[page_id]

    def iter_categories(self):
        return iter(self._categories)

    def __len__(self) -> int:
        return len(self._categories)

    def close(self) -> None:
        """Release the mapping and the file; idempotent."""
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise PageStoreError(f"store in {self.directory} is closed")

    # -- pickling --------------------------------------------------------
    #
    # A backend pickles as (directory, generation) and reattaches by
    # reopening the mmap on unpickle.  The page bytes never travel
    # through the pickle stream: every process maps the same committed
    # prefix of pages.dat, so the OS page cache is shared across
    # process-mode serving workers for free.

    def __getstate__(self) -> dict:
        self._check_open()
        return {
            "directory": str(self.directory),
            "generation": self.generation,
            "codec": self._codec.name,
        }

    def __setstate__(self, state: dict) -> None:
        fresh = FilePageBackend.open(state["directory"], state["generation"])
        # The manifest is the source of truth for the codec; a mismatch
        # with what the pickling process saw means the directory was
        # swapped out underneath the spec.
        expected = state.get("codec")
        if expected is not None and fresh.codec != expected:
            raise SnapshotError(
                f"snapshot directory {state['directory']}: generation "
                f"{state['generation']} is encoded with codec "
                f"{fresh.codec!r}, the worker spec expected {expected!r}"
            )
        self.__dict__.update(fresh.__dict__)


def append_overlay_generation(overlay: OverlayPageBackend, files=None) -> int:
    """Publish an overlay's pages as the next generation of its base.

    The overlay must sit on a :class:`FilePageBackend` opened at the
    directory's latest generation.  Its pages — ids past that
    generation's page table — are streamed by the store's page writer
    onto the end of the base directory's ``pages.dat`` (after cutting
    any unreachable tail a crashed publisher left behind) and published
    with :func:`publish_generation`, the extra ``name -> bytes`` *files*
    (the index's files for that generation) beside the sidecar.  Every
    earlier generation stays restorable — committed physical pages are
    never touched.

    An overlay over a superseded generation is refused with
    :class:`~repro.storage.pagestore.SnapshotError` before anything is
    written: its page ids restart at its base's table length, so they
    would reuse ids a later generation published, and the shared
    ``categories.bin`` would change their categories.  Publishing is
    single-writer per directory.  Returns the new generation number.
    """
    base = getattr(overlay, "base", None)
    if not isinstance(overlay, OverlayPageBackend) or not isinstance(
        base, FilePageBackend
    ):
        raise PageStoreError(
            "only a rebuild of a restored snapshot (an overlay over a file "
            f"store) publishes a generation, got {type(overlay).__name__}"
        )
    directory = base.directory
    latest = latest_generation(directory)
    if latest != base.generation:
        raise SnapshotError(
            f"snapshot directory {directory}: the overlay sits on generation "
            f"{base.generation}, which generation {latest} superseded; "
            "restore the latest generation and rebuild on it"
        )
    return _publish_pages(directory, latest, overlay.tail_pages(), files)


@dataclass
class ShipStats:
    """Transfer accounting of one generation ship.

    ``pages_sent``/``bytes_sent`` count what actually moved (with a
    compressing codec the bytes are the *compressed* tail);
    ``full_copy`` distinguishes a fresh replica's initial copy from the
    incremental ships that follow.  ``index_bytes_sent`` is filled by
    :func:`~repro.core.snapshot.ship_index_generation` for the
    index-level files riding along.
    """

    generation: int
    pages_sent: int
    bytes_sent: int
    full_copy: bool
    index_bytes_sent: int = 0

    @property
    def incremental(self) -> bool:
        return not self.full_copy

    def as_dict(self) -> dict:
        """A JSON-ready dict (benchmark reports, logs)."""
        return {
            "generation": self.generation,
            "pages_sent": self.pages_sent,
            "bytes_sent": self.bytes_sent,
            "full_copy": self.full_copy,
            "index_bytes_sent": self.index_bytes_sent,
        }


def _data_range(path: Path, start: int, stop: int):
    """Yield bytes ``[start, stop)`` of a source data file in chunks."""
    with open(path, "rb") as handle:
        handle.seek(start)
        while start < stop:
            chunk = handle.read(min(stop - start, 1 << 20))
            if not chunk:
                raise SnapshotError(
                    f"snapshot directory {path.parent}: data file is shorter "
                    f"than the shipped generation's {stop} bytes"
                )
            start += len(chunk)
            yield chunk


def ship_store_generation(source_dir, dest_dir, generation=None,
                          files=None) -> ShipStats:
    """Replicate one store generation from *source_dir* into *dest_dir*.

    The shipping primitive of the distributed serving tier: because
    ``pages.dat`` is strictly append-only and a generation only appends,
    a replica that already holds generation *g* needs only the
    data-file **tail** past its own committed prefix to hold generation
    *g+n* — pages of earlier generations are never re-sent.  A fresh
    (empty) destination receives the full committed prefix once; every
    later ship moves just the pages the shipped generation appended.

    The copy is published by :func:`publish_generation`, the extra
    ``name -> bytes`` *files* (the index's files for that generation)
    beside the sidecar, so a ship that dies mid-transfer leaves the
    destination at its previous generation with (at worst)
    unreferenced tail bytes the next ship cuts off.

    The destination must be a prefix of the source's lineage: its
    latest manifest has to byte-match the source's manifest of the same
    generation, otherwise the directories diverged (different writer)
    and the ship is refused with :class:`SnapshotError`.  Every check
    runs before the first byte is written.

    Returns a :class:`ShipStats` with the transfer accounting.  With a
    compressing codec the tail that moves is the *compressed* tail —
    replication pays the same shrunken byte bill as the disk.
    """
    source_dir = Path(source_dir)
    dest_dir = Path(dest_dir)
    if generation is None:
        generation = latest_generation(source_dir)
        if generation is None:
            raise SnapshotError(
                f"no page-store manifest generations in {source_dir}"
            )
    manifest = _load_manifest(source_dir, generation)
    physical = int(manifest["physical_page_count"])
    data_bytes = int(manifest["data_bytes"])

    dest_dir.mkdir(parents=True, exist_ok=True)
    dest_latest = latest_generation(dest_dir)
    if dest_latest is not None and dest_latest >= generation:
        raise SnapshotError(
            f"replica {dest_dir} already holds generation {dest_latest}; "
            f"cannot ship older-or-equal generation {generation}"
        )
    if dest_latest is not None:
        # Lineage check: the replica's latest manifest must be the
        # source's manifest of the same generation, byte-identical —
        # otherwise the replica belongs to a different writer history
        # and its page prefix cannot be trusted.
        source_twin = source_dir / manifest_filename(dest_latest)
        if not source_twin.exists():
            raise SnapshotError(
                f"replica {dest_dir} holds generation {dest_latest} but the "
                f"source {source_dir} has no such manifest — diverged lineage"
            )
        dest_manifest_path = dest_dir / manifest_filename(dest_latest)
        if source_twin.read_bytes() != dest_manifest_path.read_bytes():
            raise SnapshotError(
                f"replica {dest_dir} generation {dest_latest} does not match "
                f"the source's — diverged lineage; re-replicate from scratch"
            )
        dest_manifest = _load_manifest(dest_dir, dest_latest)
        dest_physical = int(dest_manifest["physical_page_count"])
        dest_data_bytes = int(dest_manifest["data_bytes"])
    else:
        dest_physical = 0
        dest_data_bytes = 0

    source_data = source_dir / PAGES_FILENAME
    if not source_data.exists():
        raise SnapshotError(
            f"snapshot directory {source_dir}: missing data file "
            f"{PAGES_FILENAME}"
        )
    # Replicas read a prefix of the sidecar per generation, so the
    # source's whole (small) file travels; the manifest travels
    # verbatim, so the next ship's lineage byte-compare holds.
    sidecar = (source_dir / CATEGORIES_FILENAME).read_bytes()
    manifest_bytes = (source_dir / manifest_filename(generation)).read_bytes()
    publish_generation(
        dest_dir, generation, dest_data_bytes,
        _data_range(source_data, dest_data_bytes, data_bytes),
        lambda: (sidecar, manifest_bytes), files,
    )
    return ShipStats(
        generation=int(generation),
        pages_sent=physical - dest_physical,
        bytes_sent=data_bytes - dest_data_bytes + len(sidecar)
        + len(manifest_bytes),
        full_copy=dest_latest is None,
    )


def write_store_snapshot(store: PageStore, directory,
                         codec=DEFAULT_CODEC, files=None) -> Path:
    """Copy every page of *store* into a new on-disk store directory.

    Pages are read silently (no I/O accounting — snapshotting is not a
    query) and land in the same page-id order, so pointers baked into
    index structures stay valid verbatim in the reopened store.  The
    copy is published as generation 0 of the target directory by
    :meth:`FilePageBackend.commit_generation`, one page at a time,
    encoded with *codec* — exporting under a different codec than the
    source is how a store is re-compressed (or decompressed), since the
    logical pages are codec-invariant.  The extra ``name -> bytes``
    *files* (an index's files) are published with it, before its
    manifest.
    """
    directory = Path(directory)
    source_dir = getattr(store.backend, "directory", None)
    if source_dir is not None and Path(source_dir).resolve() == directory.resolve():
        # Publishing into the directory the source store maps would cut
        # back the very pages.dat it reads.
        raise PageStoreError(
            f"cannot snapshot a store into its own directory {directory}"
        )
    FilePageBackend.commit_generation(
        directory,
        ((store.read_silent(page_id), store.category(page_id))
         for page_id in range(len(store))),
        codec, files,
    )
    return directory

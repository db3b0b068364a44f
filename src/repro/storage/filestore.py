"""File-backed page storage: one data file, versioned copy-on-write manifests.

The in-memory :class:`~repro.storage.pagestore.PageStore` is perfect
for build-and-measure experiments but every run pays the full bulkload.
This module is the durable half of the storage layer, now with a write
path:

* ``pages.dat`` is strictly **append-only**: every allocation *and
  every rewrite* appends a new physical page.  A logical page id is
  mapped to its current physical slot through a **page-translation
  table**, so rewriting page 7 appends its new payload and repoints the
  table entry — the old physical page is never touched (append-redirect).
* A **snapshot** publishes a numbered manifest generation
  (``manifest-000000.json``, ``manifest-000001.json``, ...) holding the
  translation table of that moment.  Generations are copy-on-write:
  physical pages never change once written, so every older manifest
  keeps describing a fully consistent store and unchanged pages are
  shared byte-for-byte between generations.
* Every generation — an export, an in-place commit, a fork publish, a
  replica ship — is written by one :func:`publish_generation`, in one
  order: cut ``pages.dat`` back to the bytes already committed, append
  the new blobs and fsync it; write each small file (category sidecar,
  index files) to a temp name, fsync it and rename it into place; fsync
  the directory; publish the manifest the same way; fsync the directory
  again.  The manifest is the commit point.  A process that dies
  anywhere before its rename leaves the previous generation the latest
  one, intact: the data tail past its ``data_bytes`` is garbage the
  next publish cuts off, the sidecar only ever grows, and stray index
  files or ``*.tmp`` names belong to no manifest.
* :meth:`FilePageBackend.open` maps the committed prefix of the data
  file read-only with :mod:`mmap` and serves page reads as slices of
  the mapping; it loads the **latest** generation by default and any
  older one via ``generation=``.

A one-byte-per-logical-page category sidecar (``categories.bin``)
completes the directory; logical pages never change category, so the
sidecar is append-only in content and any generation reads a prefix of
it.  Malformed or incomplete directories surface as
:class:`~repro.storage.pagestore.SnapshotError` naming the directory
and the problem.

Accounting semantics are identical to the memory store: the backend
only supplies bytes; buffer pool, decoded-page cache and per-category
:class:`~repro.storage.stats.IOStats` live in the owning store.
"""

from __future__ import annotations

import json
import mmap
import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.storage.buffer import BufferPool
from repro.storage.codec import DEFAULT_CODEC, StoredBlob, get_codec
from repro.storage.constants import PAGE_SIZE
from repro.storage.decoded_cache import DecodedPageCache
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


def publish_generation(directory, generation: int, manifest: bytes,
                       sidecar: bytes, data_bytes: int, blobs=(),
                       files=None) -> None:
    """Publish one snapshot generation into *directory*.

    The one writer of every store directory, in one fixed order:

    1. cut ``pages.dat`` to *data_bytes* (the bytes already committed),
       append *blobs* and fsync it;
    2. write the category *sidecar* and every extra ``name -> bytes``
       entry of *files* (a generation's index files) with
       :func:`publish_files`, which fsyncs the directory after them;
    3. publish *manifest* as ``manifest-<generation>.json`` the same
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
    publish_files(directory, {CATEGORIES_FILENAME: sidecar, **(files or {})})
    publish_files(directory, {manifest_filename(generation): manifest})


def _table_files(generation: int, codec: str, categories: list, table: list,
                 segments: list, data_bytes: int) -> tuple:
    """Sidecar and manifest bytes of a generation built from its table."""
    manifest = {
        "format_version": STORE_FORMAT_VERSION,
        "page_size": PAGE_SIZE,
        "generation": generation,
        "codec": codec,
        "page_count": len(categories),
        "physical_page_count": len(segments),
        "data_bytes": data_bytes,
        "page_table": list(table),
        "segments": [list(segment) for segment in segments],
    }
    return (bytes(_CATEGORY_CODE[c] for c in categories),
            (json.dumps(manifest) + "\n").encode())


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
    """Page payloads in a single append-only data file.

    Two modes:

    * :meth:`create` — appends physical pages to the data file as pages
      are allocated or rewritten (reads go through :func:`os.pread`, so
      build-time read-back works); :meth:`commit_generation` publishes
      the current translation table as a new numbered manifest.
    * :meth:`open` — maps the committed prefix of the data file
      read-only through :mod:`mmap`, for the latest generation or an
      explicitly requested older one.  Page reads are slices of the
      mapping, safely shareable between any number of stores and
      threads; :meth:`append`/:meth:`rewrite` are rejected.
    """

    def __init__(self, directory: Path, writable: bool, categories: list,
                 table: list, segments: list, data_bytes: int, generation,
                 codec=DEFAULT_CODEC):
        self.directory = directory
        self.writable = writable
        #: Latest published generation, or ``None`` before the first commit.
        self.generation = generation
        self._categories = categories
        #: Logical page id -> physical slot (index into ``_segments``).
        self._table = table
        #: Physical slot -> ``(offset, length)`` in ``pages.dat``.
        self._segments = segments
        #: Bytes of ``pages.dat`` written so far (committed or not).
        self._data_bytes = data_bytes
        self._codec = get_codec(codec)
        self._raw_codec = self._codec.name == "raw"
        self._file = None
        self._mmap = None
        #: Set by :meth:`close`/:meth:`discard`; stores check it before
        #: their buffer pool, so no read is served after close.
        self.closed = False
        #: Appends/rewrites not yet visible to ``os.pread``.
        self._unflushed_writes = False
        #: Appends/rewrites since the last published generation.
        self._dirty = False

    # -- constructors --------------------------------------------------

    @classmethod
    def create(cls, directory, codec=DEFAULT_CODEC) -> "FilePageBackend":
        """Start a new writable on-disk store in *directory*.

        *codec* names the physical page codec every page is stored
        under (see :mod:`repro.storage.codec`); it is recorded in every
        manifest the store publishes.  Refuses a directory that already
        holds published generations: ``pages.dat`` would be truncated,
        invalidating every manifest that references its pages.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        existing = latest_generation(directory)
        if existing is not None:
            raise PageStoreError(
                f"{directory} already holds a page store (generation "
                f"{existing}); creating would truncate its pages"
            )
        backend = cls(
            directory,
            writable=True,
            categories=[],
            table=[],
            segments=[],
            data_bytes=0,
            generation=None,
            codec=codec,
        )
        backend._file = open(directory / PAGES_FILENAME, "wb+")
        return backend

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
        backend = cls(
            directory,
            writable=False,
            categories=categories,
            table=table,
            segments=segments,
            data_bytes=data_bytes,
            generation=generation,
            codec=codec,
        )
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

    def append(self, payload: bytes, category: str) -> int:
        self._check_open()
        if not self.writable:
            raise PageStoreError("store was opened read-only")
        page_id = len(self._categories)
        self._categories.append(category)
        self._table.append(self._write_physical(payload, category))
        return page_id

    def rewrite(self, page_id: int, payload: bytes) -> None:
        """Append-redirect: new physical page, repointed table entry."""
        self._check_open()
        if not self.writable:
            raise PageStoreError("store was opened read-only")
        self._table[page_id] = self._write_physical(
            payload, self._categories[page_id]
        )

    def _write_physical(self, payload: bytes, category: str) -> int:
        blob = payload if self._raw_codec else self._codec.encode(
            payload, category
        )
        self._file.write(blob)
        self._segments.append((self._data_bytes, len(blob)))
        self._data_bytes += len(blob)
        self._unflushed_writes = True
        self._dirty = True
        return len(self._segments) - 1

    def fork(self):
        """Copy-on-write clone of a *read-only* backend (RAM overlay).

        The mmap-backed base keeps serving unchanged pages; appends and
        rewrites on the fork live in the overlay.  Writable backends
        cannot fork — their translation table may still change under
        the overlay — so publish a generation and fork the reopened
        store instead.
        """
        from repro.storage.pagestore import OverlayPageBackend

        self._check_open()
        if self.writable:
            raise PageStoreError(
                "cannot fork a writable file backend; publish a snapshot "
                "generation and fork the reopened (read-only) store"
            )
        return OverlayPageBackend(self)

    def payload(self, page_id: int) -> bytes:
        stored = self.blob(page_id)
        return stored if self._raw_codec else stored.inflate()

    def blob(self, page_id: int):
        """The page as stored, not inflated: a :class:`StoredBlob`, or
        the logical bytes on a ``raw`` store (its blob is the page)."""
        self._check_open()
        offset, length = self._segments[self._table[page_id]]
        if self._mmap is not None:
            blob = self._mmap[offset:offset + length]
        else:
            if self._unflushed_writes:
                self._file.flush()
                self._unflushed_writes = False
            blob = os.pread(self._file.fileno(), length, offset)
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

    @property
    def data_bytes(self) -> int:
        """Bytes of ``pages.dat`` written so far (committed or not)."""
        return self._data_bytes

    def drop_os_cache(self) -> None:
        """Best-effort eviction of this store's pages from the OS cache.

        The scale benchmark uses this to measure genuinely cold reads:
        ``posix_fadvise(DONTNEED)`` drops the clean page-cache pages
        backing ``pages.dat`` and ``madvise`` zaps the mapping's
        resident pages.  A no-op where unsupported.
        """
        if self.closed or self._file is None:
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

    # -- persistence ---------------------------------------------------

    def commit_generation(self, files=None) -> int:
        """Publish the current state as the next snapshot generation.

        The pages are already in ``pages.dat``; :func:`publish_generation`
        makes them durable, then publishes the sidecar, the extra
        ``name -> bytes`` *files* (an index's files for this generation)
        and last the manifest, so either the new generation exists
        completely or not at all.  Returns the new generation number.
        """
        self._check_open()
        if not self.writable:
            raise PageStoreError("store was opened read-only")
        self._file.flush()
        self._unflushed_writes = False
        generation = 0 if self.generation is None else self.generation + 1
        sidecar, manifest = _table_files(
            generation, self._codec.name, self._categories, self._table,
            self._segments, self._data_bytes,
        )
        publish_generation(self.directory, generation, manifest, sidecar,
                           self._data_bytes, files=files)
        self.generation = generation
        self._dirty = False
        return generation

    def flush(self) -> None:
        """Publish a generation if anything changed since the last one."""
        self._check_open()
        if not self.writable:
            return
        if self._dirty or self.generation is None:
            self.commit_generation()

    def close(self) -> None:
        """Flush (if writable) and release the file/mapping.

        The file is released even when the closing commit raises; the
        error still propagates, and the last complete generation stays
        the published one.
        """
        if self.closed:
            return
        try:
            if self.writable:
                self.flush()
        finally:
            self._release()

    def discard(self) -> None:
        """Release the file *without* publishing a new generation.

        Called when writing a store is abandoned mid-way — and by an
        export after its one commit: generations are only ever
        published by :meth:`commit_generation`, so an uncommitted tail
        of ``pages.dat`` stays unreachable instead of silently passing
        :meth:`open`'s consistency checks.
        """
        if not self.closed:
            self._release()

    def _release(self) -> None:
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
    # A read-only backend pickles as (directory, generation) and
    # reattaches by reopening the mmap on unpickle.  The page bytes
    # never travel through the pickle stream: every process maps the
    # same committed prefix of pages.dat, so the OS page cache is
    # shared across process-mode serving workers for free.

    def __getstate__(self) -> dict:
        if self.writable:
            raise PageStoreError(
                "cannot pickle a writable file backend; publish a snapshot "
                "generation and pickle the reopened (read-only) store"
            )
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
    """Publish an overlay's changes as the next generation of its base.

    The overlay must sit on a read-only :class:`FilePageBackend`; its
    override/tail pages are appended to the base directory's
    ``pages.dat`` (after cutting any unreachable tail a crashed
    publisher left behind) and a new generation is published with
    :func:`publish_generation`, the extra ``name -> bytes`` *files*
    (the index's files for that generation) beside the sidecar.  The
    write is *incremental*: a page whose payload already matches what
    the latest generation maps is not re-appended, so successive
    commits grow the data file only by the pages they actually
    changed.  Every earlier generation stays restorable — committed
    physical pages are never touched.

    Publishing is single-writer: the caller must be the only publisher
    for the directory (the serving layer serializes commits through
    ``apply_updates``).  Returns the new generation number.
    """
    if not isinstance(overlay, OverlayPageBackend):
        raise PageStoreError(
            f"expected an OverlayPageBackend, got {type(overlay).__name__}"
        )
    base = overlay.base
    if not isinstance(base, FilePageBackend):
        raise PageStoreError(
            "overlay base is not a file-backed store; only forks of "
            "restored snapshots can publish generations in place"
        )
    directory = base.directory
    latest = latest_generation(directory)
    if latest is None:
        raise SnapshotError(f"no published generations in {directory}")
    manifest = _load_manifest(directory, latest)
    codec = get_codec(manifest["codec"])
    committed = data_bytes = int(manifest["data_bytes"])
    segments = [
        (int(offset), int(length)) for offset, length in manifest["segments"]
    ]
    table = [int(slot) for slot in manifest["page_table"]]
    if len(table) > len(overlay):
        raise SnapshotError(
            f"snapshot directory {directory}: generation {latest} holds "
            f"{len(table)} pages but the overlay only knows {len(overlay)} — "
            "another publisher is writing this directory"
        )
    categories = list(overlay.iter_categories())
    tail = overlay.tail_pages()
    base_len = len(base)
    blobs = []

    with open(directory / PAGES_FILENAME, "rb") as handle:

        def changed(slot: int, payload: bytes, category: str) -> bool:
            # Compare *logical* bytes: with a compressing codec the
            # stored blob for an identical payload need not be
            # byte-stable across encoder versions.
            offset, length = segments[slot]
            blob = os.pread(handle.fileno(), length, offset)
            return codec.decode(blob, category) != payload

        def append(payload: bytes, category: str) -> int:
            nonlocal data_bytes
            blobs.append(codec.encode(payload, category))
            segments.append((data_bytes, len(blobs[-1])))
            data_bytes += len(blobs[-1])
            return len(segments) - 1

        for page_id in sorted(overlay.overrides):
            payload = overlay.overrides[page_id]
            category = categories[page_id]
            if changed(table[page_id], payload, category):
                table[page_id] = append(payload, category)
        for offset, (payload, category) in enumerate(tail):
            page_id = base_len + offset
            if page_id < len(table):
                # Tail page already committed by an earlier generation;
                # re-append only if rewritten since.
                if changed(table[page_id], payload, category):
                    table[page_id] = append(payload, category)
            else:
                table.append(append(payload, category))

    generation = latest + 1
    sidecar, manifest = _table_files(
        generation, codec.name, categories, table, segments, data_bytes
    )
    publish_generation(directory, generation, manifest, sidecar, committed,
                       blobs, files)
    return generation


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
    ``pages.dat`` is strictly append-only and generations are
    copy-on-write, a replica that already holds generation *g* needs
    only the data-file **tail** past its own committed prefix to hold
    generation *g+n* — unchanged pages are never re-sent.  A fresh
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
        dest_dir, generation, manifest_bytes, sidecar, dest_data_bytes,
        _data_range(source_data, dest_data_bytes, data_bytes), files,
    )
    return ShipStats(
        generation=int(generation),
        pages_sent=physical - dest_physical,
        bytes_sent=data_bytes - dest_data_bytes + len(sidecar)
        + len(manifest_bytes),
        full_copy=dest_latest is None,
    )


class FilePageStore(PageStore):
    """A :class:`PageStore` whose pages live in an on-disk file.

    Same category-tagged accounting, buffer pool and decoded-page cache
    as the memory store — only the byte backend differs.  Use
    :meth:`create` to build a new store on disk and :meth:`open` to map
    a published generation read-only (the latest by default);
    :meth:`PageStore.view` hands out stat-isolated stores over the same
    mapping for concurrent readers, and :meth:`PageStore.fork` gives a
    mutable copy-on-write overlay of a read-only store.
    """

    def __init__(
        self,
        backend: FilePageBackend,
        buffer: BufferPool | None = None,
        decoded: DecodedPageCache | None = None,
    ):
        super().__init__(buffer=buffer, decoded=decoded, backend=backend)

    @classmethod
    def create(cls, directory, buffer=None, decoded=None,
               codec=DEFAULT_CODEC) -> "FilePageStore":
        return cls(FilePageBackend.create(directory, codec=codec),
                   buffer, decoded)

    @classmethod
    def open(cls, directory, generation=None, buffer=None,
             decoded=None) -> "FilePageStore":
        return cls(FilePageBackend.open(directory, generation), buffer, decoded)

    @property
    def directory(self) -> Path:
        return self.backend.directory

    @property
    def codec(self) -> str:
        """Name of the physical page codec (from the manifest)."""
        return self.backend.codec

    @property
    def generation(self):
        """Latest published generation, or ``None`` before the first."""
        return self.backend.generation

    def snapshot(self) -> int:
        """Publish the current pages as a new numbered generation."""
        return self.backend.commit_generation()

    def flush(self) -> None:
        self.backend.flush()

    def close(self) -> None:
        self.backend.close()

    def discard(self) -> None:
        """Abandon a store being written; see :meth:`FilePageBackend.discard`."""
        self.backend.discard()

    def __enter__(self) -> "FilePageStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An exception mid-write must not publish a valid-looking
        # manifest over a partial page file.
        if exc_type is not None and self.backend.writable:
            self.discard()
        else:
            self.close()


def write_store_snapshot(store: PageStore, directory,
                         codec=DEFAULT_CODEC, files=None) -> Path:
    """Copy every page of *store* into a new on-disk store directory.

    Pages are read silently (no I/O accounting — snapshotting is not a
    query) and land in the same page-id order, so pointers baked into
    index structures stay valid verbatim in the reopened store.  The
    copy is published as generation 0 of the target directory, encoded
    with *codec* — exporting under a different codec than the source is
    how a store is re-compressed (or decompressed), since the logical
    pages are codec-invariant.  The extra ``name -> bytes`` *files* (an
    index's files) are published with it, before its manifest.
    """
    directory = Path(directory)
    source_dir = getattr(store.backend, "directory", None)
    if source_dir is not None and Path(source_dir).resolve() == directory.resolve():
        # Creating the target truncates pages.dat — the very file the
        # source store is mmapping — losing the store and SIGBUS-ing
        # the process on the next page read.
        raise PageStoreError(
            f"cannot snapshot a store into its own directory {directory}"
        )
    target = FilePageBackend.create(directory, codec=codec)
    try:
        for page_id in range(len(store)):
            target.append(store.read_silent(page_id), store.category(page_id))
        target.commit_generation(files)
    finally:
        target.discard()
    return directory

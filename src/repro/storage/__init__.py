"""Simulated disk storage: 4 KiB pages, byte-exact layout, I/O accounting.

The paper's evaluation is defined almost entirely in terms of *disk page
reads* (all approaches store data in 4 K pages, 85 spatial elements per
page, Sec. VII-A).  This package provides a faithful, instrumented
substitute for the authors' SAS disk array:

* :class:`~repro.storage.pagestore.PageStore` — an append-only page
  store; every page belongs to a *category* (object page, R-Tree leaf,
  metadata, ...) and every read is counted per category.  Page bytes
  live behind a pluggable backend; :meth:`PageStore.view` hands out
  stat-isolated stores over the same pages for concurrent readers.
* :class:`~repro.storage.filestore.FilePageBackend` — the pages of one
  published generation of an on-disk store, mapped read-only through
  ``mmap`` (build-once/reopen-many; the substrate of index snapshots and
  the serving layer).  New pages reach a directory only through the
  store writer in :mod:`~repro.storage.filestore`: an export, a
  rebuild's publish, a replica ship.
* :class:`~repro.storage.buffer.BufferPool` — an LRU page buffer that
  models the OS page cache, unbounded or byte-budgeted.  Beside it each
  store keeps a decode memo (:attr:`PageStore.decoded`), so a crawl
  decodes each touched element page at most once per query.  The paper
  clears caches before every query; the query executor does the same
  via :meth:`PageStore.clear_cache`, which empties both.
* :class:`~repro.storage.diskmodel.DiskModel` — converts page-read
  counts into simulated I/O time for a 10 kRPM SAS disk, reproducing the
  paper's observation that query time is I/O-bound (97.8–98.8 %).
* :mod:`~repro.storage.serial` — byte-exact page encodings (every page
  is exactly ``PAGE_SIZE`` bytes).
"""

from repro.storage.constants import (
    MBR_BYTES,
    NODE_ENTRY_BYTES,
    NODE_FANOUT,
    OBJECT_PAGE_CAPACITY,
    PAGE_SIZE,
)
from repro.storage.stats import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    CATEGORY_RTREE_INTERNAL,
    CATEGORY_RTREE_LEAF,
    CATEGORY_SEED_INTERNAL,
    DECODE_ELEMENT,
    DECODE_METADATA,
    IOStats,
)
from repro.storage.buffer import BufferPool
from repro.storage.codec import (
    DEFAULT_CODEC,
    Delta64Codec,
    PageCodec,
    RawCodec,
    available_codecs,
    get_codec,
    register_codec,
)
from repro.storage.diskmodel import DiskModel
from repro.storage.pagestore import (
    MemoryPageBackend,
    OverlayPageBackend,
    PageStore,
    PageStoreError,
    PageStoreGroup,
    SnapshotError,
)
from repro.storage.filestore import (
    FilePageBackend,
    ShipStats,
    append_overlay_generation,
    latest_generation,
    list_generations,
    manifest_filename,
    ship_store_generation,
    write_store_snapshot,
)

__all__ = [
    "BufferPool",
    "DECODE_ELEMENT",
    "DECODE_METADATA",
    "DEFAULT_CODEC",
    "CATEGORY_METADATA",
    "CATEGORY_OBJECT",
    "CATEGORY_RTREE_INTERNAL",
    "CATEGORY_RTREE_LEAF",
    "CATEGORY_SEED_INTERNAL",
    "Delta64Codec",
    "DiskModel",
    "FilePageBackend",
    "IOStats",
    "MBR_BYTES",
    "MemoryPageBackend",
    "NODE_ENTRY_BYTES",
    "NODE_FANOUT",
    "OBJECT_PAGE_CAPACITY",
    "OverlayPageBackend",
    "PAGE_SIZE",
    "PageCodec",
    "PageStore",
    "PageStoreError",
    "PageStoreGroup",
    "RawCodec",
    "ShipStats",
    "SnapshotError",
    "append_overlay_generation",
    "available_codecs",
    "get_codec",
    "latest_generation",
    "list_generations",
    "manifest_filename",
    "register_codec",
    "ship_store_generation",
    "write_store_snapshot",
]

"""The simulated disk: a store of fixed-size pages with a write path.

The paper's indexes are bulkloaded (Sec. IV: "we focus on developing a
bulkloading approach and do not consider updates"), so allocation is
append-only and a freshly built store is never mutated while its
figures are measured.  On top of that read-only substrate this module
grows an *update surface*:

* :meth:`PageStore.rewrite` replaces the payload of an existing page
  (category unchanged), invalidating the store's own caches;
* ``fork()`` produces a copy-on-write clone of a backend — unchanged
  page payloads are shared (``bytes`` are immutable), rewrites on the
  fork never touch the original — which is what versioned serving
  builds its snapshot isolation on;
* :class:`OverlayPageBackend` adds the same copy-on-write semantics
  over a *read-only* base (e.g. an ``mmap``-backed snapshot), keeping
  rewrites and appends in RAM while base pages stay on disk.

Reads are counted per page *category* unless absorbed by the attached
buffer pool.
"""

from __future__ import annotations

from repro.storage.buffer import BufferPool
from repro.storage.codec import StoredBlob, get_codec
from repro.storage.constants import PAGE_SIZE
from repro.storage.decoded_cache import (
    DECODE_ELEMENT,
    DECODE_METADATA,
    DecodedPageCache,
)
from repro.storage.serial import decode_element_page, decode_metadata_page
from repro.storage.stats import ALL_CATEGORIES, IOStats


class PageStoreError(Exception):
    """Raised for invalid page ids, payload sizes, or categories."""


class SnapshotError(PageStoreError):
    """A snapshot directory is missing, incomplete, or malformed.

    Raised by the file store's :meth:`~repro.storage.filestore.FilePageBackend.open`
    and the index-level ``restore`` paths instead of surfacing raw
    ``KeyError``/``FileNotFoundError``; the message always names the
    directory and what exactly is malformed.
    """


class MemoryPageBackend:
    """In-RAM page payloads: the default, build-anywhere backend.

    A backend owns only the page *bytes* and their categories; caching,
    accounting and decoding live in :class:`PageStore`, so any number of
    stat-isolated stores (see :meth:`PageStore.view`) can share one
    backend.  The file/mmap counterpart is
    :class:`repro.storage.filestore.FilePageBackend`.

    With ``codec`` set (a name from :mod:`repro.storage.codec`), pages
    are held *compressed* in RAM and decoded by :meth:`payload` — the
    in-memory mirror of a compressed file store, for fitting more pages
    into the same footprint at a decode cost per *physical* read (the
    store calls :meth:`payload` only on a buffer-pool miss of a read
    that needs the page's bytes, and :meth:`blob` on one that does not).
    """

    #: Memory backends always accept :meth:`append`.
    writable = True
    #: Memory backends are never closed (see :meth:`PageStore.read`).
    closed = False

    def __init__(self, codec: str | None = None):
        if codec is not None:
            codec = get_codec(codec)
            if codec.name == "raw":
                codec = None
        self._codec = codec
        self._pages: list[bytes] = []
        self._categories: list[str] = []

    @property
    def codec(self) -> str:
        """Name of the codec page bytes are held under."""
        return "raw" if self._codec is None else self._codec.name

    def append(self, payload: bytes, category: str) -> int:
        """Store one page payload; returns the new page id."""
        page_id = len(self._pages)
        if self._codec is not None:
            payload = self._codec.encode(payload, category)
        self._pages.append(payload)
        self._categories.append(category)
        return page_id

    def rewrite(self, page_id: int, payload: bytes) -> None:
        """Replace one page's payload in place (category unchanged).

        ``bytes`` payloads are immutable, so rebinding the slot never
        mutates bytes a :meth:`fork` sibling may still be reading.
        """
        if self._codec is not None:
            payload = self._codec.encode(payload, self._categories[page_id])
        self._pages[page_id] = payload

    def fork(self) -> "MemoryPageBackend":
        """A copy-on-write clone sharing every current page payload.

        Only the id -> payload lists are copied (O(pages) pointer
        copies); the payloads themselves are shared immutable ``bytes``.
        Appends and rewrites on either side are invisible to the other.
        """
        clone = MemoryPageBackend()
        clone._codec = self._codec
        clone._pages = list(self._pages)
        clone._categories = list(self._categories)
        return clone

    def payload(self, page_id: int) -> bytes:
        """The logical bytes of a page (bounds already checked by the store)."""
        stored = self.blob(page_id)
        return stored if self._codec is None else stored.inflate()

    def blob(self, page_id: int):
        """The page as held, not inflated: a :class:`StoredBlob` under a
        codec, the logical bytes otherwise."""
        if self._codec is None:
            return self._pages[page_id]
        return StoredBlob(
            self._pages[page_id], self._codec, self._categories[page_id]
        )

    def stored_bytes(self, page_id: int) -> int:
        """Bytes this page actually occupies in RAM (its blob length)."""
        return len(self._pages[page_id])

    def category(self, page_id: int) -> str:
        return self._categories[page_id]

    def iter_categories(self):
        """Yield every page's category, in page-id order."""
        return iter(self._categories)

    def __len__(self) -> int:
        return len(self._pages)


class OverlayPageBackend:
    """Copy-on-write page backend over a read-only base backend.

    Rewrites of base pages land in an in-RAM override table and appends
    accumulate in an in-RAM tail, while unmodified pages keep being
    served by the base (typically a read-only ``mmap``-backed
    :class:`~repro.storage.filestore.FilePageBackend`).  This is how a
    restored snapshot becomes mutable without copying its pages: the
    serving layer forks a restored index, applies updates to the
    overlay, and commits by swapping readers to the forked store.

    Forking an overlay again copies only the override/tail tables; the
    base is shared by every generation in the chain.
    """

    writable = True

    def __init__(self, base):
        if getattr(base, "writable", False):
            raise PageStoreError(
                "an overlay needs a read-only base backend (a writable base "
                "could change pages underneath the overlay)"
            )
        self._base = base
        self._base_len = len(base)
        #: base page id -> replacement payload (only rewritten pages).
        self._overrides: dict = {}
        #: Payloads of pages appended past the base (ids >= _base_len).
        self._tail: list = []
        self._tail_categories: list = []

    def append(self, payload: bytes, category: str) -> int:
        page_id = self._base_len + len(self._tail)
        self._tail.append(payload)
        self._tail_categories.append(category)
        return page_id

    def rewrite(self, page_id: int, payload: bytes) -> None:
        if page_id >= self._base_len:
            self._tail[page_id - self._base_len] = payload
        else:
            self._overrides[page_id] = payload

    def fork(self) -> "OverlayPageBackend":
        """A copy-on-write clone: same base, copied override/tail tables."""
        clone = OverlayPageBackend.__new__(OverlayPageBackend)
        clone._base = self._base
        clone._base_len = self._base_len
        clone._overrides = dict(self._overrides)
        clone._tail = list(self._tail)
        clone._tail_categories = list(self._tail_categories)
        return clone

    @property
    def closed(self) -> bool:
        """True once the base is closed: the overlay reads through it."""
        return getattr(self._base, "closed", False)

    def _own(self, page_id: int):
        """The overlay's own (uncompressed) payload of a page, or ``None``
        for an unchanged base page."""
        if page_id >= self._base_len:
            return self._tail[page_id - self._base_len]
        return self._overrides.get(page_id)

    def payload(self, page_id: int) -> bytes:
        own = self._own(page_id)
        return self._base.payload(page_id) if own is None else own

    def blob(self, page_id: int):
        """The page as stored: the base's blob, or the overlay's own page."""
        own = self._own(page_id)
        return self._base.blob(page_id) if own is None else own

    def stored_bytes(self, page_id: int) -> int:
        """Physical bytes of a page: overlay pages sit uncompressed in
        RAM, unchanged pages report the base's stored size."""
        if page_id >= self._base_len or page_id in self._overrides:
            return PAGE_SIZE
        stored = getattr(self._base, "stored_bytes", None)
        return PAGE_SIZE if stored is None else stored(page_id)

    def category(self, page_id: int) -> str:
        if page_id >= self._base_len:
            return self._tail_categories[page_id - self._base_len]
        return self._base.category(page_id)

    def iter_categories(self):
        yield from self._base.iter_categories()
        yield from self._tail_categories

    def __len__(self) -> int:
        return self._base_len + len(self._tail)

    # -- publishing introspection ---------------------------------------
    #
    # Generation publishing (repro.storage.filestore.append_overlay_generation)
    # folds an overlay's changes back into its base directory; these
    # read-only accessors expose exactly what changed.  Treat the
    # returned containers as frozen.

    @property
    def base(self):
        """The read-only backend unchanged pages are served from."""
        return self._base

    @property
    def overrides(self) -> dict:
        """Base page id -> replacement payload, rewritten pages only."""
        return self._overrides

    def tail_pages(self):
        """``(payload, category)`` pairs appended past the base, in order."""
        return list(zip(self._tail, self._tail_categories))


class PageStoreGroup:
    """A read-side facade over several stores (one per index shard).

    A sharded index keeps one :class:`PageStore` per shard so that page
    ids, caches and I/O counters stay shard-local.  Harnesses, however,
    speak to *one* store (``clear_cache`` before a query, ``stats``
    snapshot/diff around it) — this facade lets them drive the whole
    shard set unchanged: :attr:`stats` merges every member's counters
    into one fresh :class:`IOStats` (whose ``snapshot``/``diff`` then
    work as usual), and cache clearing fans out to all members.  Shards
    a query planner prunes simply contribute zero deltas.
    """

    def __init__(self, stores):
        self.stores = list(stores)
        if not self.stores:
            raise PageStoreError("a store group needs at least one store")

    @property
    def stats(self) -> IOStats:
        """Member counters merged into one fresh :class:`IOStats`."""
        merged = IOStats()
        for store in self.stores:
            merged.merge(store.stats)
        return merged

    def clear_cache(self) -> None:
        for store in self.stores:
            store.clear_cache()

    def close(self) -> None:
        """Close every member store that supports closing."""
        for store in self.stores:
            close = getattr(store, "close", None)
            if close is not None:
                close()

    def __len__(self) -> int:
        return sum(len(store) for store in self.stores)

    def pages_in(self, *categories: str) -> int:
        return sum(store.pages_in(*categories) for store in self.stores)

    def bytes_in(self, *categories: str) -> int:
        return sum(store.bytes_in(*categories) for store in self.stores)

    @property
    def size_bytes(self) -> int:
        return sum(store.size_bytes for store in self.stores)


class PageStore:
    """Append-only page store with category-tagged I/O accounting.

    Parameters
    ----------
    buffer:
        Optional :class:`BufferPool` absorbing repeated reads.  By
        default an *unbounded* pool is attached, modeling the OS page
        cache within one query; call :meth:`clear_cache` to simulate the
        paper's cache clearing between queries.
    decoded:
        Optional :class:`DecodedPageCache` memoizing decoded element
        pages and counting metadata lookups (the CPU-side analogue of
        the buffer pool), invalidated together with the buffer by
        :meth:`clear_cache`.
    backend:
        Where the page bytes live.  Defaults to a fresh
        :class:`MemoryPageBackend`; pass a shared backend (or use
        :meth:`view`) to get multiple stores with independent caches and
        stats over the same pages — e.g. one per serving worker.
    """

    def __init__(
        self,
        buffer: BufferPool | None = None,
        decoded: DecodedPageCache | None = None,
        backend=None,
    ):
        self.backend = MemoryPageBackend() if backend is None else backend
        self.buffer = BufferPool() if buffer is None else buffer
        self.decoded = DecodedPageCache() if decoded is None else decoded
        self.stats = IOStats()
        #: Set by :meth:`read_metadata` for its one :meth:`read` of a
        #: leaf it will not parse: that read needs no page bytes.  Like
        #: the pool and the stats, it assumes one reader thread per
        #: store (concurrent readers each take a :meth:`view`).
        self._blob_read = False
        #: Optional staging area a trajectory prefetcher fills ahead of
        #: the next query (see :mod:`repro.query.prefetch`).  When set,
        #: a buffer-missed read first checks the area: a staged page is
        #: consumed without physical I/O and counted as a *prefetch hit*
        #: — the read happened earlier, on the prefetcher's store.  The
        #: serving layer gives each worker's view of a generation the
        #: area of that worker's own prefetcher; ``None`` (the default)
        #: keeps the read path byte-identical to the pre-prefetch engine.
        self.prefetch_area = None

    def view(
        self,
        buffer: BufferPool | None = None,
        decoded: DecodedPageCache | None = None,
    ) -> "PageStore":
        """A stat-isolated store over the same pages.

        The returned store shares this store's backend (same page ids,
        same bytes) but has its own buffer pool, decoded-page cache and
        :class:`IOStats`, so concurrent readers never contend on — or
        pollute — each other's caches and counters.
        """
        return PageStore(buffer=buffer, decoded=decoded, backend=self.backend)

    # -- allocation ----------------------------------------------------

    def allocate(self, payload: bytes, category: str) -> int:
        """Persist a page and return its page id.

        The payload must be exactly one page; categories must be one of
        :data:`repro.storage.stats.ALL_CATEGORIES` so that breakdown
        figures can attribute every read.
        """
        if len(payload) != PAGE_SIZE:
            raise PageStoreError(
                f"page payload must be exactly {PAGE_SIZE} bytes, got {len(payload)}"
            )
        if category not in ALL_CATEGORIES:
            raise PageStoreError(f"unknown page category: {category!r}")
        if not self.backend.writable:
            raise PageStoreError("cannot allocate pages on a read-only backend")
        page_id = self.backend.append(payload, category)
        self.stats.record_write(category)
        return page_id

    def rewrite(self, page_id: int, payload: bytes) -> None:
        """Replace an existing page's payload (its category is kept).

        The write is charged to the page's category and this store's
        own buffer/decoded caches are invalidated for the page.  Sibling
        :meth:`view` stores are *not* invalidated — concurrent readers
        are expected to serve from an immutable generation and pick up
        rewrites only at a commit point (see
        :meth:`repro.query.service.QueryService.apply_updates`).
        """
        if len(payload) != PAGE_SIZE:
            raise PageStoreError(
                f"page payload must be exactly {PAGE_SIZE} bytes, got {len(payload)}"
            )
        self._check_bounds(page_id)
        if not self.backend.writable:
            raise PageStoreError("cannot rewrite pages on a read-only backend")
        rewrite = getattr(self.backend, "rewrite", None)
        if rewrite is None:
            raise PageStoreError(
                f"backend {type(self.backend).__name__} does not support rewrite"
            )
        rewrite(page_id, payload)
        self.stats.record_write(self.backend.category(page_id))
        if self.buffer is not None:
            self.buffer.discard(page_id)
        if self.decoded is not None:
            self.decoded.discard(page_id)

    def fork(self) -> "PageStore":
        """A copy-on-write clone of this store (fresh caches and stats).

        Unchanged page payloads are shared with this store; appends and
        rewrites on the fork are invisible here and vice versa.  Memory
        backends fork natively; a read-only file backend forks into an
        :class:`OverlayPageBackend` that keeps modifications in RAM.
        The returned store is always a plain :class:`PageStore`.
        """
        fork = getattr(self.backend, "fork", None)
        if fork is None:
            raise PageStoreError(
                f"backend {type(self.backend).__name__} does not support fork; "
                "snapshot the store and fork the restored copy instead"
            )
        return PageStore(backend=fork())

    # -- reading -------------------------------------------------------

    def read(self, page_id: int) -> bytes:
        """Fetch a page, counting a physical read on buffer miss.

        The order is the cost model: bounds first, then the buffer pool,
        and the backend only on a pool miss.  A read of a closed backend
        raises before the pool is asked, so a pooled page is not served
        after ``close()`` either.

        A page inflates only when a read needs its bytes.  A miss calls
        ``backend.payload`` — where a compressed store inflates — and
        pools the logical page; a hit is one dict lookup.  The one read
        that needs no bytes is :meth:`read_metadata`'s read of a leaf it
        will not parse: its miss calls ``backend.blob`` and pools the
        stored blob as is (a :class:`~repro.storage.codec.StoredBlob`
        under a codec other than ``raw``).  A later hit that needs the
        bytes inflates that blob once and replaces it in place, keeping
        its recency and its charge; it still counts as a hit.  Either
        way the miss is charged the page's stored bytes, so the
        counters, the pool's order and its charge do not depend on
        whether a page was inflated.

        A buffer miss consults the attached prefetch area (if any)
        before charging physical I/O: consuming a staged page counts a
        *prefetch hit* in its category instead of a read, and a decoded
        element array staged with the page seeds this store's decoded
        cache — the work moved earlier, it never disappears, so
        ``reads + prefetch_hits`` always equals the reads of a
        prefetch-free run.  A physical read records the page's stored
        bytes next to the read.
        """
        self._check_bounds(page_id)
        backend = self.backend
        if backend.closed:
            raise PageStoreError(f"cannot read page {page_id}: the store is closed")
        buffer = self.buffer
        if buffer is not None:
            cached = buffer.get(page_id)
            if cached is not None:
                self.stats.record_cache_hit()
                if type(cached) is StoredBlob and not self._blob_read:
                    cached = cached.inflate()
                    buffer.put(page_id, cached)
                return cached
        if self._blob_read:
            payload = backend.blob(page_id)
        else:
            payload = backend.payload(page_id)
        if buffer is not None:
            if buffer.byte_capacity is None:
                buffer.put(page_id, payload)
            else:
                # A byte-budgeted pool charges each page its *physical*
                # footprint: compressed stores fit more pages into the
                # same budget — the larger-than-RAM win.
                buffer.put(page_id, payload, self.stored_bytes(page_id))
        area = self.prefetch_area
        if area is not None:
            staged = area.take(page_id)
            if staged is not None:
                self.stats.record_prefetch_hit(backend.category(page_id))
                if self.decoded is not None:
                    for kind, decoded in staged.items():
                        self.decoded.seed(kind, page_id, decoded)
                return payload
        self.stats.record_read(
            backend.category(page_id), 1, self.stored_bytes(page_id)
        )
        return payload

    # -- decoded reads -------------------------------------------------

    def read_metadata(self, page_id: int, cached: bool = True,
                      parse: bool = True) -> list | None:
        """Read a metadata page, count its decode, and parse it if *parse*.

        The page always goes through :meth:`read`, so it is charged and
        pooled like any page.  The *logical* decode is counted under the
        decoded-cache protocol — a miss the first time the page is read
        since :meth:`clear_cache`, a hit after — or, with
        ``cached=False`` (the scalar reference path), as a miss every
        time.  Parsing is the caller's decision: the seed index keeps
        each leaf's records in its per-generation
        :class:`~repro.core.seed_index.RecordTable` and passes
        ``parse=False`` (returning ``None``) once the table holds the
        leaf.  Such a read needs no bytes, so a pool miss fetches the
        leaf's stored blob and pools it without inflating it (see
        :meth:`read`).  A parse that runs is counted in ``stats.parses``
        and calls this module's ``decode_metadata_page``.
        """
        if parse:
            payload = self.read(page_id)
        else:
            self._blob_read = True
            try:
                self.read(page_id)
            finally:
                self._blob_read = False
        if cached:
            self.decoded.touch(DECODE_METADATA, page_id, self.stats)
        else:
            self.stats.record_decode(DECODE_METADATA, hit=False)
        if not parse:
            return None
        self.stats.record_parse(DECODE_METADATA)
        return decode_metadata_page(payload)

    def read_elements(self, page_id: int, cached: bool = True):
        """Read + decode an element page (object page or R-Tree leaf)."""
        payload = self.read(page_id)
        if not cached:
            self.stats.record_decode(DECODE_ELEMENT, hit=False)
            self.stats.record_parse(DECODE_ELEMENT)
            return decode_element_page(payload)
        return self.decoded.get_or_decode(
            DECODE_ELEMENT, page_id, payload, decode_element_page, self.stats
        )

    def read_elements_many(self, page_ids) -> list:
        """Decoded element arrays for a batch of pages.

        Exactly :meth:`read_elements` per page — one definition of the
        read+decode path, so the accounting is :meth:`read`'s, read for
        read.
        """
        return [self.read_elements(int(page_id)) for page_id in page_ids]

    def read_silent(self, page_id: int) -> bytes:
        """Fetch a page without any accounting (index construction only).

        Bulkloading reads its own just-written pages; the paper's
        build-time figures measure wall-clock, not page reads, so
        construction-time access is not charged as query I/O.
        """
        self._check_bounds(page_id)
        return self.backend.payload(page_id)

    def stored_bytes(self, page_id: int) -> int:
        """Bytes one physical read of the page fetches: the backend's
        stored blob length, or ``PAGE_SIZE`` for a backend that keeps
        pages verbatim and reports no size."""
        stored = getattr(self.backend, "stored_bytes", None)
        return PAGE_SIZE if stored is None else stored(page_id)

    def _check_bounds(self, page_id: int) -> None:
        if not 0 <= page_id < len(self.backend):
            raise PageStoreError(
                f"page id {page_id} out of range (store has {len(self.backend)} pages)"
            )

    # -- cache control ---------------------------------------------------

    def clear_cache(self) -> None:
        """Drop buffered pages *and* decoded pages (per-query cache clearing)."""
        if self.buffer is not None:
            self.buffer.clear()
        if self.decoded is not None:
            self.decoded.clear()

    # -- introspection ---------------------------------------------------

    def category(self, page_id: int) -> str:
        """The category a page was allocated under."""
        self._check_bounds(page_id)
        return self.backend.category(page_id)

    def __len__(self) -> int:
        return len(self.backend)

    def pages_in(self, *categories: str) -> int:
        """Number of allocated pages in the given categories."""
        return sum(1 for c in self.backend.iter_categories() if c in categories)

    def bytes_in(self, *categories: str) -> int:
        """Allocated bytes in the given categories."""
        return self.pages_in(*categories) * PAGE_SIZE

    @property
    def size_bytes(self) -> int:
        """Total allocated bytes (index size, as in Fig. 11/22)."""
        return len(self.backend) * PAGE_SIZE

"""The simulated disk: a store of fixed-size pages.

The paper's indexes are bulkloaded (Sec. IV: "we focus on developing a
bulkloading approach and do not consider updates"), so allocation is
append-only and a page is never changed once written.  Updates keep
that: every mutation rebuilds the live set onto a store of its own
(:meth:`~repro.core.flat_index.FLATIndex.merged`): a new
:class:`MemoryPageBackend` for an in-memory index, or an
:class:`OverlayPageBackend` over a restored snapshot's read-only
``mmap``-backed file backend — its own pages appended in RAM past the
base's, the base's pages still served from disk — until it is
published as the base directory's next generation.  A store over a
file backend is a plain :class:`PageStore`; :meth:`PageStore.close`
releases the file, through an overlay too.

Reads are counted per page *category* unless absorbed by the store's
buffer pool.
"""

from __future__ import annotations

from repro.storage.buffer import BufferPool
from repro.storage.codec import StoredBlob, get_codec
from repro.storage.constants import PAGE_SIZE
from repro.storage.serial import decode_element_page, decode_metadata_page
from repro.storage.stats import (
    ALL_CATEGORIES,
    DECODE_ELEMENT,
    DECODE_METADATA,
    IOStats,
)


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
    """Append-only page backend over a read-only base backend.

    Pages appended to the overlay accumulate in an in-RAM tail past the
    base's pages, while the base's own pages keep being served by the
    base (typically a read-only ``mmap``-backed
    :class:`~repro.storage.filestore.FilePageBackend`).  This is where a
    rebuild of a restored index lands: its pages take ids past the base
    generation's page table, and
    :func:`~repro.storage.filestore.append_overlay_generation` publishes
    them as the base directory's next generation.
    """

    writable = True

    def __init__(self, base):
        self._base = base
        self._base_len = len(base)
        #: Payloads of pages appended past the base (ids >= _base_len).
        self._tail: list = []
        self._tail_categories: list = []

    def append(self, payload: bytes, category: str) -> int:
        page_id = self._base_len + len(self._tail)
        self._tail.append(payload)
        self._tail_categories.append(category)
        return page_id

    @property
    def closed(self) -> bool:
        """True once the base is closed: the overlay reads through it."""
        return self._base.closed

    def close(self) -> None:
        """Close the base the overlay reads through."""
        self._base.close()

    def payload(self, page_id: int) -> bytes:
        if page_id >= self._base_len:
            return self._tail[page_id - self._base_len]
        return self._base.payload(page_id)

    def blob(self, page_id: int):
        """The page as stored: the base's blob, or the overlay's own page."""
        if page_id >= self._base_len:
            return self._tail[page_id - self._base_len]
        return self._base.blob(page_id)

    def stored_bytes(self, page_id: int) -> int:
        """Physical bytes of a page: overlay pages sit uncompressed in
        RAM, base pages report the base's stored size."""
        if page_id >= self._base_len:
            return PAGE_SIZE
        return self._base.stored_bytes(page_id)

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
    # appends an overlay's pages to its base directory.

    @property
    def base(self):
        """The read-only backend the base's pages are served from."""
        return self._base

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
        """Close every member store (see :meth:`PageStore.close`)."""
        for store in self.stores:
            store.close()

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
        The :class:`BufferPool` absorbing repeated reads.  By default an
        *unbounded* pool, modeling the OS page cache within one query;
        pass ``BufferPool(byte_capacity=...)`` for a fixed memory grant.
        Call :meth:`clear_cache` to simulate the paper's cache clearing
        between queries.
    backend:
        Where the page bytes live.  Defaults to a fresh
        :class:`MemoryPageBackend`; pass a shared backend (or use
        :meth:`view`) to get multiple stores with independent caches and
        stats over the same pages — e.g. one per serving worker.
    """

    def __init__(self, buffer: BufferPool | None = None, backend=None):
        self.backend = MemoryPageBackend() if backend is None else backend
        self.buffer = BufferPool() if buffer is None else buffer
        #: The decode memo, emptied with the pool by :meth:`clear_cache`:
        #: ``(decode kind, page id)`` -> a decoded element array, or
        #: ``True`` for a metadata leaf looked up since the last clear
        #: (a leaf's decoded form is the seed index's record table).
        #: Decoded arrays are shared between callers: read-only.  A page
        #: never changes once written, so no entry goes stale.
        self.decoded: dict = {}
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

    def view(self) -> "PageStore":
        """A stat-isolated store over the same pages.

        The returned store shares this store's backend (same page ids,
        same bytes) but has its own buffer pool, decode memo and
        :class:`IOStats`, so concurrent readers never contend on — or
        pollute — each other's caches and counters.
        """
        return PageStore(backend=self.backend)

    def close(self) -> None:
        """Release the file and mapping the pages are read from, if any.

        Closes a backend that has a ``close`` — a file backend, or an
        overlay over one — and is a no-op on a memory backend.  Every
        store over the backend (each :meth:`view`) is closed with it.
        """
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "PageStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        element array staged with the page enters this store's decode
        memo uncounted — the work moved earlier, it never disappears, so
        ``reads + prefetch_hits`` always equals the reads of a
        prefetch-free run.  A physical read records the page's stored
        bytes next to the read.
        """
        self._check_bounds(page_id)
        backend = self.backend
        if backend.closed:
            raise PageStoreError(f"cannot read page {page_id}: the store is closed")
        buffer = self.buffer
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
        # A byte-budgeted pool charges each page its *physical*
        # footprint: compressed stores fit more pages into the same
        # budget — the larger-than-RAM win.
        stored = backend.stored_bytes(page_id)
        buffer.put(page_id, payload, stored)
        area = self.prefetch_area
        if area is not None:
            staged = area.take(page_id)
            if staged is not None:
                self.stats.record_prefetch_hit(backend.category(page_id))
                for kind, decoded in staged.items():
                    self.decoded[kind, page_id] = decoded
                return payload
        self.stats.record_read(backend.category(page_id), 1, stored)
        return payload

    # -- decoded reads -------------------------------------------------

    def read_metadata(self, page_id: int, cached: bool = True,
                      parse: bool = True) -> list | None:
        """Read a metadata page, count its decode, and parse it if *parse*.

        The page always goes through :meth:`read`, so it is charged and
        pooled like any page.  The *logical* decode is counted through
        the decode memo — a miss the first time the page is read since
        :meth:`clear_cache`, a hit after — or, with
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
        key = DECODE_METADATA, page_id
        self.stats.record_decode(DECODE_METADATA, hit=cached and key in self.decoded)
        if cached:
            self.decoded[key] = True
        if not parse:
            return None
        self.stats.record_parse(DECODE_METADATA)
        return decode_metadata_page(payload)

    def read_elements(self, page_id: int, cached: bool = True):
        """Read + decode an element page (object page or R-Tree leaf).

        The decoded array comes from the decode memo when it holds the
        page (a decode hit), else from one parse that the memo keeps;
        with ``cached=False`` (the scalar reference path) every call
        parses and the memo is left alone.
        """
        payload = self.read(page_id)
        key = DECODE_ELEMENT, page_id
        elements = self.decoded.get(key) if cached else None
        self.stats.record_decode(DECODE_ELEMENT, hit=elements is not None)
        if elements is None:
            self.stats.record_parse(DECODE_ELEMENT)
            elements = decode_element_page(payload)
            if cached:
                self.decoded[key] = elements
        return elements

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
        stored blob length."""
        return self.backend.stored_bytes(page_id)

    def _check_bounds(self, page_id: int) -> None:
        if not 0 <= page_id < len(self.backend):
            raise PageStoreError(
                f"page id {page_id} out of range (store has {len(self.backend)} pages)"
            )

    # -- cache control ---------------------------------------------------

    def clear_cache(self) -> None:
        """Drop buffered pages *and* decoded pages (per-query cache clearing)."""
        self.buffer.clear()
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

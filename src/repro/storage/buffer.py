"""An LRU buffer pool modeling the OS page cache.

The paper runs every query on cold caches ("Before each query is
executed, the OS caches and disk buffers are cleared") but pages fetched
*during* one query stay resident — the machine has 4 GB of RAM and the
working set of a single query is far smaller.  The query executor
therefore attaches an unbounded pool and clears it between queries; a
byte-budgeted pool models a fixed memory grant smaller than the
working set.
"""

from __future__ import annotations

from collections import OrderedDict


class BufferPool:
    """A least-recently-used page buffer.

    ``byte_capacity=None`` means unbounded (the within-a-query OS
    cache).  With a ``byte_capacity`` each :meth:`put` charges the
    entry's cost (its physical stored size, passed by the caller, or
    ``len(page)``), and LRU entries are evicted until the budget holds.
    This is how the scale benchmark models a fixed grant over stores
    whose physical pages differ in size — a compressed store fits
    proportionally more pages into the same *charged* budget.

    What a :class:`~repro.storage.pagestore.PageStore` pools is what its
    read needed (see :meth:`~repro.storage.pagestore.PageStore.read`):
    the inflated page for a read of its bytes — so a later hit skips the
    codec — and the stored blob as is, a
    :class:`~repro.storage.codec.StoredBlob`, for a metadata leaf read
    only to be charged.  A hit on a blob that needs the bytes inflates
    it once, and the store replaces it in place.  Every value supports
    ``len()``: the RAM the pool holds (:attr:`held_bytes`) counts
    inflated pages at their logical size and blobs at their stored one,
    so over a compressed store it exceeds the charge
    (:attr:`resident_bytes`) by the inflated pages alone.  Hits and
    misses are counted by the store's
    :class:`~repro.storage.stats.IOStats`, not here.
    """

    def __init__(self, byte_capacity: int | None = None):
        if byte_capacity is not None and byte_capacity <= 0:
            raise ValueError(
                f"byte_capacity must be positive or None, got {byte_capacity}"
            )
        self.byte_capacity = byte_capacity
        #: page id -> pooled value: page bytes or a stored blob.
        self._pages: OrderedDict = OrderedDict()
        self._costs: dict[int, int] = {}
        self._resident_bytes = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def get(self, page_id: int) -> bytes | None:
        """Return the cached page and refresh its recency, or ``None``."""
        page = self._pages.get(page_id)
        if page is not None:
            self._pages.move_to_end(page_id)
        return page

    def put(self, page_id: int, page: bytes, cost: int | None = None) -> None:
        """Insert a page, evicting least recently used entries if full.

        *cost* is the bytes charged against ``byte_capacity`` (the
        page's physical stored size); it defaults to ``len(page)`` and
        is ignored by pools without a byte budget.  Putting a pooled id
        again replaces its value; without a *cost* its charge is kept.
        """
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self._pages[page_id] = page
            if self.byte_capacity is not None and cost is not None:
                self._resident_bytes += cost - self._costs[page_id]
                self._costs[page_id] = cost
            return
        if self.byte_capacity is not None:
            cost = len(page) if cost is None else cost
            while self._pages and self._resident_bytes + cost > self.byte_capacity:
                self._evict_one()
            self._costs[page_id] = cost
            self._resident_bytes += cost
        self._pages[page_id] = page

    def _evict_one(self) -> None:
        evicted_id, _page = self._pages.popitem(last=False)
        self._resident_bytes -= self._costs.pop(evicted_id)
        self.evictions += 1

    @property
    def resident_bytes(self) -> int:
        """Bytes currently charged against ``byte_capacity``."""
        return self._resident_bytes

    @property
    def held_bytes(self) -> int:
        """Bytes of the pages actually held (the sum of their lengths).

        A store charges every page its stored size but pools a page it
        read for its bytes *inflated*, so over a compressed store this
        exceeds :attr:`resident_bytes`.
        """
        return sum(len(page) for page in self._pages.values())

    def clear(self) -> None:
        """Drop every cached page (the paper's cache clearing step)."""
        self._pages.clear()
        self._costs.clear()
        self._resident_bytes = 0

    def page_ids(self) -> list:
        """The keys currently resident, in insertion (LRU) order.

        On an unbounded pool cleared before a query this is exactly the
        set of pages that query has physically read so far — the
        multi-query crawl uses it to capture the seed phase's charged
        pages before switching to batched accounting.
        """
        return list(self._pages.keys())

    def __repr__(self) -> str:
        cap = "unbounded" if self.byte_capacity is None else self.byte_capacity
        return (
            f"BufferPool(byte_capacity={cap}, size={len(self)}, "
            f"evictions={self.evictions})"
        )

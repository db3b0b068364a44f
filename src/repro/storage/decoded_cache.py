"""Memoized page decoding: the CPU-side counterpart of the buffer pool.

The buffer pool absorbs repeated *physical* reads, but every consumer
still paid :func:`~repro.storage.serial.decode_element_page` on each
access — so a crawl re-parsing the same page for every record that
points at it spent CPU proportional to frontier size instead of to the
pages actually touched.  :class:`DecodedPageCache` memoizes the decoded
element arrays per page id, turning repeated decodes into dictionary
hits.

Metadata leaves are not held here: the seed index parses each leaf once
per index generation into its
:class:`~repro.core.seed_index.RecordTable`, the only decoded form of a
leaf.  The cache still *counts* metadata lookups the way it counts
element ones (:meth:`DecodedPageCache.touch`), so the logical decode
counters in :class:`~repro.storage.stats.IOStats` keep describing the
per-query protocol whatever the table already holds.

Decoded objects are shared between callers and must be treated as
read-only.  The write path invalidates single entries through
:meth:`DecodedPageCache.discard` when a page is rewritten in place;
:meth:`clear` drops everything, mirroring the paper's between-query
cache clearing.
"""

from __future__ import annotations

from repro.storage.buffer import BufferPool

#: Decode kinds, used as counter keys in :class:`~repro.storage.stats.IOStats`.
DECODE_METADATA = "metadata"
DECODE_ELEMENT = "element"


class DecodedPageCache:
    """Per-page-id memo of decoded page contents.

    ``capacity=None`` means unbounded (the within-a-query working set);
    a bounded cache evicts in LRU order.  The LRU mechanics are the
    buffer pool's, reused with ``(kind, page_id)`` keys and decoded
    objects as values, so there is exactly one eviction implementation
    in the storage layer.
    """

    def __init__(self, capacity: int | None = None):
        self._pool = BufferPool(capacity)

    # -- access --------------------------------------------------------

    def get_or_decode(self, kind: str, page_id: int, payload: bytes, decoder,
                      stats=None):
        """The decoded *payload*, decoding (and memoizing) at most once.

        ``stats`` is an optional :class:`~repro.storage.stats.IOStats`
        that receives per-kind decode hit/miss counts, so query harnesses
        can report decode work next to page reads.
        """
        key = (kind, page_id)
        cached = self._pool.get(key)
        if stats is not None:
            stats.record_decode(kind, hit=cached is not None)
        if cached is not None:
            return cached
        if stats is not None:
            stats.record_parse(kind)
        decoded = decoder(payload)
        self._pool.put(key, decoded)
        return decoded

    def touch(self, kind: str, page_id: int, stats=None) -> None:
        """Count one lookup of a page whose decoded form lives elsewhere.

        A hit if the page was touched (or decoded) since the last
        :meth:`clear`, else a miss that remembers it — the same entry
        and LRU slot a memoized decode takes, so the logical counts
        match :meth:`get_or_decode`'s.  Only counts: whether the page
        gets parsed is its owner's decision, never this entry's.
        """
        key = (kind, page_id)
        hit = self._pool.get(key) is not None
        if stats is not None:
            stats.record_decode(kind, hit=hit)
        if not hit:
            self._pool.put(key, True)

    def seed(self, kind: str, page_id: int, decoded) -> None:
        """Insert an already-decoded page without touching any counter.

        Used by the prefetch consumption path: the decode happened
        earlier, on the prefetcher's store (and was counted there), so
        planting its result here must not register as a hit or miss.
        """
        self._pool.put((kind, page_id), decoded)

    def discard(self, page_id: int) -> None:
        """Drop any decoded form of one page (write-path invalidation)."""
        self._pool.discard((DECODE_METADATA, page_id))
        self._pool.discard((DECODE_ELEMENT, page_id))

    def clear(self) -> None:
        """Drop every decoded page (paired with buffer-pool clearing)."""
        self._pool.clear()

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, key: tuple) -> bool:
        return key in self._pool

    @property
    def capacity(self) -> int | None:
        return self._pool.capacity

    @property
    def hits(self) -> int:
        return self._pool.hits

    @property
    def misses(self) -> int:
        return self._pool.misses

    @property
    def evictions(self) -> int:
        return self._pool.evictions

    @property
    def lookups(self) -> int:
        """Total accesses (hits + misses)."""
        return self._pool.lookups

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that skipped a decode."""
        return self._pool.hit_rate

    def __repr__(self) -> str:
        cap = "unbounded" if self.capacity is None else self.capacity
        return (
            f"DecodedPageCache(capacity={cap}, size={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )

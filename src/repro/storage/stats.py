"""Per-category I/O accounting.

Every figure in the paper's evaluation is a page-read (or derived
bytes-read) measurement broken down by page category — e.g. Fig. 14
splits FLAT reads into seed-tree / metadata / object pages and PR-Tree
reads into leaf / non-leaf pages.  ``IOStats`` keeps those counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.constants import PAGE_SIZE

#: FLAT object pages and R-Tree leaf element payload pages.
CATEGORY_OBJECT = "object"
#: Seed-tree leaf pages holding FLAT metadata records.
CATEGORY_METADATA = "metadata"
#: Seed-tree internal (hierarchy) pages.
CATEGORY_SEED_INTERNAL = "seed_internal"
#: R-Tree leaf pages (the pages storing the 85 element MBRs).
CATEGORY_RTREE_LEAF = "rtree_leaf"
#: R-Tree internal pages ("non-leaf pages" in the paper's terminology).
CATEGORY_RTREE_INTERNAL = "rtree_internal"

ALL_CATEGORIES = (
    CATEGORY_OBJECT,
    CATEGORY_METADATA,
    CATEGORY_SEED_INTERNAL,
    CATEGORY_RTREE_LEAF,
    CATEGORY_RTREE_INTERNAL,
)

#: Decode kinds: the keys of the decode counters below and of a store's
#: decode memo (:attr:`~repro.storage.pagestore.PageStore.decoded`).
DECODE_METADATA = "metadata"
DECODE_ELEMENT = "element"


@dataclass
class IOStats:
    """Mutable counters of page reads/writes, split by page category.

    Alongside the I/O counters, *decode* counters track the CPU-side
    work of parsing fetched pages, in two kinds like the bytes below
    (:data:`DECODE_METADATA` / :data:`DECODE_ELEMENT`).  *Logical*
    decodes follow the per-query protocol of the store's decode memo
    (:attr:`~repro.storage.pagestore.PageStore.decoded`, emptied by
    ``clear_cache``): ``decode_misses[kind]`` counts the first lookup
    of a page since then and ``decode_hits[kind]`` every later one —
    what the paper-style figures and the crawl benchmark's decode
    reduction read.  *Physical* parses (:attr:`parses`) count the
    parses that actually ran.  For element pages the two agree; a
    metadata leaf is parsed once per index generation into the seed
    index's record table, so its physical parses fall far below its
    logical misses.

    Bytes come in two kinds.  *Logical* bytes (:attr:`total_bytes_read`,
    :meth:`bytes_read_in`) are ``reads * PAGE_SIZE`` — what the paper's
    figures plot, whatever the codec.  *Physical* bytes
    (:attr:`physical_bytes`) are what the reads actually fetched: each
    read's stored blob length, which a compressed store keeps below
    ``PAGE_SIZE``.
    """

    reads: dict = field(default_factory=dict)
    writes: dict = field(default_factory=dict)
    cache_hits: int = 0
    decode_hits: dict = field(default_factory=dict)
    decode_misses: dict = field(default_factory=dict)
    #: Demand reads absorbed by a staged prefetch (per category).  A
    #: prefetch hit is a read whose physical I/O happened *earlier*, on
    #: the prefetcher's store — so for any query sequence,
    #: ``reads[c] + prefetch_hits[c]`` equals the ``reads[c]`` a
    #: prefetch-disabled run would have charged.
    prefetch_hits: dict = field(default_factory=dict)
    #: Stored bytes the physical reads fetched (per category).
    physical_bytes: dict = field(default_factory=dict)
    #: Page parses that actually ran (per decode kind).
    parses: dict = field(default_factory=dict)

    def record_read(self, category: str, pages: int = 1,
                    stored_bytes: int | None = None) -> None:
        """Count *pages* physical page reads in *category*.

        *stored_bytes* is what the reads fetched from the backend; it
        defaults to ``pages * PAGE_SIZE``, the size of an uncompressed
        page.
        """
        self.reads[category] = self.reads.get(category, 0) + pages
        if stored_bytes is None:
            stored_bytes = pages * PAGE_SIZE
        self.physical_bytes[category] = (
            self.physical_bytes.get(category, 0) + stored_bytes
        )

    def record_write(self, category: str, pages: int = 1) -> None:
        """Count *pages* page writes in *category*."""
        self.writes[category] = self.writes.get(category, 0) + pages

    def record_cache_hit(self) -> None:
        """Count a read absorbed by the buffer pool (no physical I/O)."""
        self.cache_hits += 1

    def record_prefetch_hit(self, category: str, pages: int = 1) -> None:
        """Count *pages* demand reads served from staged prefetched pages."""
        self.prefetch_hits[category] = self.prefetch_hits.get(category, 0) + pages

    def record_decode(self, kind: str, hit: bool) -> None:
        """Count one page-decode lookup of the given kind."""
        target = self.decode_hits if hit else self.decode_misses
        target[kind] = target.get(kind, 0) + 1

    def record_parse(self, kind: str) -> None:
        """Count one page parse that actually ran, of the given kind."""
        self.parses[kind] = self.parses.get(kind, 0) + 1

    def reads_in(self, *categories: str) -> int:
        """Total physical reads across the given categories."""
        return sum(self.reads.get(c, 0) for c in categories)

    @property
    def total_reads(self) -> int:
        """Total physical page reads across all categories."""
        return sum(self.reads.values())

    @property
    def total_bytes_read(self) -> int:
        """Total *logical* bytes read: ``total_reads * PAGE_SIZE``."""
        return self.total_reads * PAGE_SIZE

    def bytes_read_in(self, *categories: str) -> int:
        """*Logical* bytes read across the given categories."""
        return self.reads_in(*categories) * PAGE_SIZE

    @property
    def total_physical_bytes_read(self) -> int:
        """Total stored bytes the physical reads fetched."""
        return sum(self.physical_bytes.values())

    def decodes_in(self, *kinds: str) -> int:
        """Full page decodes performed across the given decode kinds."""
        return sum(self.decode_misses.get(k, 0) for k in kinds)

    @property
    def total_decodes(self) -> int:
        """Total full page decodes (decode-memo misses + uncached)."""
        return sum(self.decode_misses.values())

    @property
    def total_decode_hits(self) -> int:
        """Total decodes absorbed by the decode memo."""
        return sum(self.decode_hits.values())

    @property
    def total_prefetch_hits(self) -> int:
        """Total demand reads absorbed by staged prefetched pages."""
        return sum(self.prefetch_hits.values())

    def snapshot(self) -> "IOStats":
        """A frozen copy (for before/after differencing)."""
        return IOStats(
            dict(self.reads),
            dict(self.writes),
            self.cache_hits,
            dict(self.decode_hits),
            dict(self.decode_misses),
            dict(self.prefetch_hits),
            dict(self.physical_bytes),
            dict(self.parses),
        )

    @staticmethod
    def _dict_diff(now: dict, before: dict) -> dict:
        return {c: n - before.get(c, 0) for c, n in now.items() if n - before.get(c, 0)}

    def diff(self, before: "IOStats") -> "IOStats":
        """Counters accumulated since the *before* snapshot."""
        return IOStats(
            self._dict_diff(self.reads, before.reads),
            self._dict_diff(self.writes, before.writes),
            self.cache_hits - before.cache_hits,
            self._dict_diff(self.decode_hits, before.decode_hits),
            self._dict_diff(self.decode_misses, before.decode_misses),
            self._dict_diff(self.prefetch_hits, before.prefetch_hits),
            self._dict_diff(self.physical_bytes, before.physical_bytes),
            self._dict_diff(self.parses, before.parses),
        )

    def merge(self, other: "IOStats") -> None:
        """Accumulate *other*'s counters into this object."""
        for mine, theirs in (
            (self.reads, other.reads),
            (self.writes, other.writes),
            (self.decode_hits, other.decode_hits),
            (self.decode_misses, other.decode_misses),
            (self.prefetch_hits, other.prefetch_hits),
            (self.physical_bytes, other.physical_bytes),
            (self.parses, other.parses),
        ):
            for key, n in theirs.items():
                mine[key] = mine.get(key, 0) + n
        self.cache_hits += other.cache_hits

    def reset(self) -> None:
        """Zero all counters."""
        self.reads.clear()
        self.writes.clear()
        self.cache_hits = 0
        self.decode_hits.clear()
        self.decode_misses.clear()
        self.prefetch_hits.clear()
        self.physical_bytes.clear()
        self.parses.clear()

    def __repr__(self) -> str:
        parts = ", ".join(f"{c}={n}" for c, n in sorted(self.reads.items()))
        return (
            f"IOStats(reads: {parts or 'none'}, cache_hits={self.cache_hits}, "
            f"decodes={self.total_decodes}, decode_hits={self.total_decode_hits})"
        )

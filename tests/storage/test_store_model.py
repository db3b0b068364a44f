"""A stateful model test of one store's read path.

A Hypothesis state machine drives one :class:`PageStore` over a
``delta64`` memory backend — element and metadata pages alternating —
behind a buffer pool that is unbounded or budgeted at one to three
times the largest stored page, with a :class:`PrefetchArea` attached.
Its rules read pages, leaves (parsed or only charged) and element
arrays, clear the caches and stage pages with or without a decoded
array.  A plain model keeps the pool's LRU order (and whether each
entry is a stored blob or an inflated page), the decode memo, the
staged pages and the counters it expects (an :class:`IOStats` of its
own); after every step the store must agree with it:

* every :class:`IOStats` counter equals the expected one;
* ``buffer.page_ids()`` is the model's LRU order and ``evictions`` its
  eviction count;
* a budgeted pool's ``resident_bytes`` is the stored size of what it
  holds, within the budget, and ``held_bytes`` counts a pooled blob at
  its stored size and an inflated page at ``PAGE_SIZE``;
* returned bytes, records and arrays equal the logical page, and a
  memo hit returns the very array the memo took.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.query.prefetch import PrefetchArea
from repro.storage import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    DECODE_ELEMENT,
    DECODE_METADATA,
    PAGE_SIZE,
    BufferPool,
    IOStats,
    MemoryPageBackend,
    PageStore,
)
from repro.storage.serial import (
    decode_element_page,
    decode_metadata_page,
    encode_element_page,
    encode_metadata_page,
)

GRID = 2.0**-16
PAGES = 8


def element_payload(page_id):
    """An object page of grid-snapped MBRs; sizes differ per page."""
    rng = np.random.default_rng(page_id)
    count = 10 + 10 * page_id
    lo = rng.uniform(0, 100, size=(count, 3))
    mbrs = np.concatenate([lo, lo + rng.uniform(0.01, 2, size=(count, 3))], axis=1)
    return encode_element_page(np.round(mbrs / GRID) * GRID)


def metadata_payload(page_id):
    """A seed leaf of a few records with neighbor lists."""
    rng = np.random.default_rng(page_id)
    records = []
    for slot in range(2 + page_id):
        lo = np.round(rng.uniform(0, 50, size=3) / GRID) * GRID
        records.append((np.concatenate([lo, lo + 1.0]),
                        np.concatenate([lo - 0.5, lo + 2.0]),
                        slot, list(range(slot))))
    return encode_metadata_page(records)


#: The logical pages: even ids are object pages, odd ids metadata leaves.
LOGICAL = [element_payload(p) if p % 2 == 0 else metadata_payload(p)
           for p in range(PAGES)]
CATEGORIES = [CATEGORY_OBJECT if p % 2 == 0 else CATEGORY_METADATA
              for p in range(PAGES)]
ELEMENT_PAGES = list(range(0, PAGES, 2))
METADATA_PAGES = list(range(1, PAGES, 2))


def records_key(records):
    """Metadata records in a comparable form."""
    return [(tuple(page_mbr), tuple(partition_mbr), int(object_page),
             tuple(int(n) for n in neighbors))
            for page_mbr, partition_mbr, object_page, neighbors in records]


class StoreModel(RuleBasedStateMachine):
    @initialize(budget_pages=st.one_of(st.none(), st.integers(1, 3)))
    def open_store(self, budget_pages):
        backend = MemoryPageBackend(codec="delta64")
        for payload, category in zip(LOGICAL, CATEGORIES):
            backend.append(payload, category)
        self.stored = [backend.stored_bytes(p) for p in range(PAGES)]
        assert max(self.stored) < PAGE_SIZE
        self.budget = (None if budget_pages is None
                       else budget_pages * max(self.stored))
        self.store = PageStore(BufferPool(self.budget), backend)
        self.area = PrefetchArea()
        self.store.prefetch_area = self.area
        #: page id -> True if pooled as a stored blob, False if inflated.
        self.pool = OrderedDict()
        self.evictions = 0
        #: (decode kind, page id) -> True (a leaf) or the memoized array.
        self.memo = {}
        #: page id -> {decode kind: staged array}; taken: consumed ids.
        self.staged = {}
        self.taken = set()
        self.expected = IOStats()

    # -- the model ------------------------------------------------------

    def model_read(self, page_id, blob=False):
        """One ``PageStore.read``; *blob* for a read that needs no bytes."""
        if page_id in self.pool:
            self.expected.record_cache_hit()
            self.pool.move_to_end(page_id)
            self.pool[page_id] = self.pool[page_id] and blob
            return
        if self.budget is not None:
            while self.pool and (self.charged() + self.stored[page_id]
                                 > self.budget):
                self.pool.popitem(last=False)
                self.evictions += 1
        self.pool[page_id] = blob
        category = CATEGORIES[page_id]
        if page_id in self.staged:
            self.expected.record_prefetch_hit(category)
            self.taken.add(page_id)
            for kind, decoded in self.staged[page_id].items():
                self.memo[kind, page_id] = decoded
            return
        self.expected.record_read(category, 1, self.stored[page_id])

    def charged(self):
        return sum(self.stored[p] for p in self.pool)

    # -- rules ------------------------------------------------------------

    @rule(page_id=st.integers(0, PAGES - 1))
    def read(self, page_id):
        payload = self.store.read(page_id)
        self.model_read(page_id)
        assert payload == LOGICAL[page_id]

    @rule(page_id=st.sampled_from(METADATA_PAGES), cached=st.booleans(),
          parse=st.booleans())
    def read_metadata(self, page_id, cached, parse):
        records = self.store.read_metadata(page_id, cached=cached, parse=parse)
        self.model_read(page_id, blob=not parse)
        key = DECODE_METADATA, page_id
        self.expected.record_decode(DECODE_METADATA,
                                    hit=cached and key in self.memo)
        if cached:
            self.memo[key] = True
        if not parse:
            assert records is None
            return
        self.expected.record_parse(DECODE_METADATA)
        assert records_key(records) == records_key(
            decode_metadata_page(LOGICAL[page_id]))

    @rule(page_id=st.sampled_from(ELEMENT_PAGES), cached=st.booleans())
    def read_elements(self, page_id, cached):
        elements = self.store.read_elements(page_id, cached=cached)
        self.model_read(page_id)
        key = DECODE_ELEMENT, page_id
        hit = cached and key in self.memo
        self.expected.record_decode(DECODE_ELEMENT, hit=hit)
        if hit:
            assert elements is self.memo[key]
        else:
            self.expected.record_parse(DECODE_ELEMENT)
            if cached:
                self.memo[key] = elements
        assert np.array_equal(elements, decode_element_page(LOGICAL[page_id]))

    @rule()
    def clear_cache(self):
        self.store.clear_cache()
        self.pool.clear()
        self.memo.clear()

    @rule(page_id=st.integers(0, PAGES - 1), with_array=st.booleans())
    def stage(self, page_id, with_array):
        self.area.stage(page_id)
        entry = self.staged.setdefault(page_id, {})
        if with_array and page_id in ELEMENT_PAGES:
            staged = decode_element_page(LOGICAL[page_id])
            self.area.stage_decoded(page_id, DECODE_ELEMENT, staged)
            entry[DECODE_ELEMENT] = staged

    # -- invariants ---------------------------------------------------

    @precondition(lambda self: hasattr(self, "store"))
    @invariant()
    def counters_match(self):
        assert self.store.stats == self.expected
        assert self.area.counters() == {"staged": len(self.staged),
                                        "consumed": len(self.taken)}

    @precondition(lambda self: hasattr(self, "store"))
    @invariant()
    def pool_matches(self):
        pool = self.store.buffer
        assert pool.page_ids() == list(self.pool)
        assert pool.evictions == self.evictions
        if self.budget is not None:
            assert pool.resident_bytes == self.charged() <= self.budget
        assert pool.held_bytes == sum(
            self.stored[p] if blob else PAGE_SIZE
            for p, blob in self.pool.items())


StoreModel.TestCase.settings = settings(stateful_step_count=40)
TestStoreModel = StoreModel.TestCase

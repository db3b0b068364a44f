"""SCOUT-style trajectory prefetching for the serving layer.

Spatial analyses issue *sequences* of range queries that follow latent
anatomical structures (SCOUT, Tauheed et al., PVLDB 2012 — the same
group as the FLAT paper): a session tracing a neuron branch asks for
box after box along the fiber, so consecutive boxes are strongly
correlated.  This module exploits that correlation to warm a worker's
buffer pool *before* the next query arrives:

* :class:`TrajectoryModel` tracks one session's recent query boxes and
  extrapolates the next box from the centroid velocity and the recent
  extents — with confidence gating, so a session whose boxes jump
  around unpredictably prefetches nothing at all;
* :class:`Prefetcher` crawls the predicted window with the demand
  crawl kernel (:func:`~repro.core.crawl.crawl`, filter off, started at
  every record on the seed leaves whose key meets the window) on a
  private **staging clone** of one monolithic index whose caches are
  never cleared, and stages every page the crawl touches into a
  :class:`PrefetchArea` (a sharded session prefetches shard by shard,
  on each shard server of a :class:`~repro.query.cluster.ClusterRouter`);
* the worker's own demand store consults its prefetcher's area on
  every buffer miss (:meth:`PageStore.read
  <repro.storage.pagestore.PageStore.read>`): a staged page is consumed
  without physical I/O and counted as a **prefetch hit** in its
  category, and a staged element page's decoded array enters the
  worker store's decode memo.  Metadata leaves carry no staged decoded
  form: the staging clone shares the generation's record table with
  every worker clone, so the staging crawl's parse already serves them;
* :class:`SessionTracker` keeps one model per session and decides when
  a query's prediction is worth a staging crawl: the window is staged
  once, and re-staging waits until the next predicted box walks out of
  it.

Every serving worker — a pool thread, a pool process or a shard
server — owns its prefetchers (one per index generation, see
:class:`~repro.query.service.WorkerEngines`) and stages a hint only
after answering the query that carried it: a pool thread before its
task returns, a pool process or a shard server once the answer is sent
and before it reads its next request.  The staging then runs while the
client reads the answer and submits its next query, and the worker's
stores see the same page sequence either way.

**Accounting contract.**  Prefetching only ever moves reads *earlier*
— it never changes what a query returns or which pages it logically
touches.  Demand-side counters keep prefetch hits separate from
physical reads, so for any query sequence and any interleaving of
prefetches with queries::

    demand_reads[c] + prefetch_hits[c]  ==  reads[c] of a prefetch-free run

per page category ``c``, and results are byte-identical.  The
prefetcher's own physical reads (typically far fewer — its warm caches
carry overlap from box to box) are reported separately as
``prefetch_reads``, and ``staged - consumed`` counts wasted prefetches.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque

import numpy as np

from repro.storage.pagestore import PageStore
from repro.storage.stats import DECODE_ELEMENT, IOStats

#: Query boxes remembered per session.
HISTORY = 5
#: Observed boxes required before any prediction is attempted.
MIN_HISTORY = 3
#: Minimum cosine similarity between consecutive step vectors; a
#: session whose heading flips around is gated off and prefetches
#: nothing.
MIN_ALIGNMENT = 0.5
#: Maximum ratio between the fastest and slowest recent step; a session
#: that teleports is unpredictable however straight the average heading
#: looks.
MAX_SPEED_RATIO = 4.0
#: Predicted extents are inflated by this factor to absorb prediction
#: error (volume cost is cubic — keep it modest).
INFLATE = 1.25
#: Future steps one staging crawl covers (the predicted window is the
#: union box of this many extrapolated boxes); the serving layer skips
#: re-prefetching while the next predicted box is still inside the last
#: staged window.
LOOKAHEAD = 3
#: Staged pages kept per area before LRU eviction.
AREA_CAPACITY = 8192


class PrefetchArea:
    """Thread-safe staging area between one prefetcher and its readers.

    Maps page ids to the decoded forms staged with them (the page bytes
    themselves live in the shared backend — memory list or read-only
    mmap — so the area never copies payloads).  ``take`` does *not*
    remove an entry: a trajectory's consecutive boxes overlap, so one
    staged page absorbs the demand reads of several queries until LRU
    eviction pushes it out (the prefetcher staging a multi-step window
    once, instead of re-crawling per query, is where the CPU saving
    comes from).  ``consumed`` counts *distinct* staged pages that
    absorbed at least one demand read, so ``staged - consumed`` is the
    number of prefetched pages that never helped — true waste.

    Entries evict in LRU order past ``capacity``; an evicted entry that
    was never taken simply stays wasted.
    """

    def __init__(self, capacity: int = AREA_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: page id -> {decode kind: decoded object}
        self._staged: OrderedDict = OrderedDict()
        #: staged page ids that absorbed at least one demand read.
        self._taken: set = set()
        self.staged = 0
        self.consumed = 0

    def stage(self, page_id: int) -> None:
        """Mark one page as prefetched (idempotent while staged)."""
        with self._lock:
            if page_id in self._staged:
                self._staged.move_to_end(page_id)
                return
            self._staged[page_id] = {}
            self.staged += 1
            while len(self._staged) > self.capacity:
                evicted, _entry = self._staged.popitem(last=False)
                self._taken.discard(evicted)

    def stage_decoded(self, page_id: int, kind: str, decoded) -> None:
        """Attach a decoded form to a staged page (no-op if unstaged)."""
        with self._lock:
            entry = self._staged.get(page_id)
            if entry is not None:
                entry[kind] = decoded

    def take(self, page_id: int):
        """Absorb one demand read: the staged decoded forms, or ``None``."""
        if not self._staged:
            # Cheap common-case exit: an attached-but-idle area must not
            # cost demand reads a lock acquisition per buffer miss.
            return None
        with self._lock:
            entry = self._staged.get(page_id)
            if entry is not None and page_id not in self._taken:
                self._taken.add(page_id)
                self.consumed += 1
            return entry

    def counters(self) -> dict:
        """A snapshot of the staged/consumed totals."""
        with self._lock:
            return {"staged": self.staged, "consumed": self.consumed}

    def __len__(self) -> int:
        return len(self._staged)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._staged


class StagingPageStore(PageStore):
    """The prefetcher's store: every page it reads is staged.

    A warm, never-cleared view over the served backend — consecutive
    predicted boxes overlap heavily along a trajectory, so most staging
    reads are absorbed by this store's own caches and the prefetcher's
    *physical* read count stays far below the pages it stages.  Decoded
    element pages are staged alongside, so a consuming worker skips the
    decode too (the prefetcher already paid it); metadata leaves need no
    staged form, since their one parse lands in the shared record table.
    """

    def __init__(self, backend, area: PrefetchArea):
        super().__init__(backend=backend)
        self.area = area

    def read(self, page_id: int) -> bytes:
        payload = super().read(page_id)
        self.area.stage(page_id)
        return payload

    def read_elements(self, page_id: int, cached: bool = True):
        elements = super().read_elements(page_id, cached)
        self.area.stage_decoded(page_id, DECODE_ELEMENT, elements)
        return elements


class TrajectoryModel:
    """Per-session next-box predictor: velocity/extent extrapolation.

    Keeps the last :data:`HISTORY` observed boxes.  A prediction is the
    last centroid advanced by the mean recent step, wrapped in the mean
    recent extents inflated by :data:`INFLATE` — but only when the
    session is *confidently* on a trajectory: at least
    :data:`MIN_HISTORY` boxes, steps aligned (pairwise cosine above
    :data:`MIN_ALIGNMENT`) and of comparable magnitude (at most
    :data:`MAX_SPEED_RATIO` apart).  A stationary session (steps ~0)
    predicts the current box again — re-fetching the same neighborhood
    is the one prediction that is always safe.
    """

    def __init__(self):
        self._boxes: deque = deque(maxlen=HISTORY)

    def observe(self, box: np.ndarray) -> None:
        """Record one executed query box of this session."""
        box = np.asarray(box, dtype=np.float64).reshape(6)
        self._boxes.append(tuple(float(v) for v in box))

    @property
    def observed(self) -> int:
        """Boxes seen so far (capped at the history window)."""
        return len(self._boxes)

    def predict(self, lookahead: int = 1) -> np.ndarray | None:
        """The predicted query window, or ``None`` when confidence gates it.

        ``lookahead=1`` is the next box alone; larger values return the
        union box of the next *lookahead* extrapolated steps — one
        staging crawl then covers several future queries, so the
        prefetcher does not have to re-crawl per query.

        Scalar arithmetic throughout: this runs on the foreground path
        for *every* session query — including unpredictable sessions
        that never prefetch — so a handful of boxes must not pay a
        dozen numpy dispatches.
        """
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        boxes = self._boxes
        if len(boxes) < MIN_HISTORY:
            return None
        centers = [
            (
                (b[0] + b[3]) * 0.5,
                (b[1] + b[4]) * 0.5,
                (b[2] + b[5]) * 0.5,
            )
            for b in boxes
        ]
        steps = [
            (c1[0] - c0[0], c1[1] - c0[1], c1[2] - c0[2])
            for c0, c1 in zip(centers, centers[1:])
        ]
        speeds = [math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2]) for s in steps]
        last_box = boxes[-1]
        scale = max(
            last_box[3] - last_box[0],
            last_box[4] - last_box[1],
            last_box[5] - last_box[2],
        )
        fastest = max(speeds)
        if fastest <= 1e-12 * max(scale, 1.0):
            # Stationary session: predict the spot it keeps querying.
            step = (0.0, 0.0, 0.0)
        else:
            slowest = min(speeds)
            if slowest <= 0.0:
                return None
            if fastest / slowest > MAX_SPEED_RATIO:
                return None
            for i in range(len(steps) - 1):
                a, b = steps[i], steps[i + 1]
                dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
                if dot < MIN_ALIGNMENT * speeds[i] * speeds[i + 1]:
                    return None
            n = float(len(steps))
            step = (
                sum(s[0] for s in steps) / n,
                sum(s[1] for s in steps) / n,
                sum(s[2] for s in steps) / n,
            )
        m = float(len(boxes))
        scale_half = INFLATE * 0.5 / m
        center = centers[-1]
        out = np.empty(6, dtype=np.float64)
        for k in range(3):
            half = sum(b[k + 3] - b[k] for b in boxes) * scale_half
            first = center[k] + step[k]
            last = center[k] + lookahead * step[k]
            if first > last:
                first, last = last, first
            out[k] = first - half
            out[k + 3] = last + half
        return out


class SessionTracker:
    """Per-session trajectory models behind one covered-window rule.

    :meth:`hint` feeds a session's query box to its
    :class:`TrajectoryModel` and returns the :data:`LOOKAHEAD`-step
    window to stage — but only when the next predicted box is not already
    inside the window last staged for that session, so a confident
    straight-line session pays one staging crawl per *window*, not per
    query.  Sessions are kept in LRU order up to :attr:`KEPT_SESSIONS`.
    """

    #: Sessions remembered before the least recently used is dropped.
    KEPT_SESSIONS = 1024

    def __init__(self):
        self._lock = threading.Lock()
        #: session id -> [TrajectoryModel, last staged window or None]
        self._sessions: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._sessions)

    def hint(self, session_id, box: np.ndarray) -> np.ndarray | None:
        """Observe *box* for the session; the window to stage, or None."""
        with self._lock:
            entry = self._sessions.get(session_id)
            if entry is None:
                entry = self._sessions[session_id] = [TrajectoryModel(), None]
                while len(self._sessions) > self.KEPT_SESSIONS:
                    self._sessions.popitem(last=False)
            else:
                self._sessions.move_to_end(session_id)
            model, covered = entry
            model.observe(box)
            next_box = model.predict()
            if next_box is None:
                entry[1] = None
                return None
            if (covered is not None
                    and np.all(covered[:3] <= next_box[:3])
                    and np.all(covered[3:] >= next_box[3:])):
                return None
            entry[1] = model.predict(LOOKAHEAD)
            return entry[1]


class Prefetcher:
    """Warms a generation's buffer pool ahead of a session's next box.

    Owns one staging clone of a monolithic index whose caches are never
    cleared, plus the :class:`PrefetchArea` a worker's demand store
    consumes from once the worker sets the store's ``prefetch_area`` to
    :attr:`area`; :meth:`prefetch` crawls one predicted box.

    One prefetcher belongs to one index generation of one worker: page
    ids are only meaningful within a generation, so each worker builds
    a fresh prefetcher per generation it serves and drops it with the
    generation's engine clone.
    """

    def __init__(self, index):
        self._lock = threading.Lock()
        self.area = PrefetchArea()
        self._store = StagingPageStore(index.store.backend, self.area)
        self._engine = index.with_store(self._store)

    def prefetch(self, box: np.ndarray) -> int:
        """Crawl *box* on the staging clone, staging every touched page.

        Staging needs the *page set* of a crawl, not its result ids, so
        this runs the demand crawl kernel (:func:`~repro.core.crawl.crawl`)
        with the element filter off, started at *all* records of the
        seed leaves whose key meets the window (the descent to them
        stages the internal pages above) instead of at one seed record.
        Expansion uses the demand rule with the wider window, and BFS
        closure is monotone in its start set, so the staged pages are a
        **superset** of the pages any demand query inside the window
        reads — including leaves whose tree key misses the window but
        that the BFS reaches over neighbor links.  Extras count as
        waste, never as hits that did not happen.

        Returns the number of pages newly staged.  Serialized
        internally: the staging clone's caches are not thread-safe, so
        concurrent predictions for different sessions take turns.
        """
        # Function-local: repro.core imports repro.query at module level.
        from repro.core.crawl import crawl

        box = np.asarray(box, dtype=np.float64).reshape(6)
        with self._lock:
            before = self.area.staged
            seed = self._engine.seed_index
            leaves = seed.leaves_meeting(box)
            if leaves:
                rids = np.concatenate([seed.leaf_record_ids[leaf] for leaf in leaves])
                crawl(self._engine, box[None, :], rids,
                      np.zeros(len(rids), dtype=np.int64), collect=False)
            return self.area.staged - before

    def io_stats(self) -> IOStats:
        """A snapshot of the staging clone's physical I/O."""
        return self._store.stats.snapshot()

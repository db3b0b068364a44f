"""Span tracing of the program's public layer boundaries, from outside.

The traced run wraps each layer's functions at runtime (nothing under
``src/`` changes) and records one :class:`Span` per call: name, start,
end, parent, thread and request id.  Spans stay in memory until the run
ends and are analysed in :mod:`perfbench.layers`.

Request attribution follows the benchmark's single closed-loop client:
the client opens a *request* (a root span) around each query or commit,
and a span that starts with nothing else open on its thread becomes a
child of the request in flight, whichever thread it runs on.

A worker process forked while the tracer is installed inherits the
wrappers.  Its task wrapper ships the spans recorded during the task
back with the task's result, and the client side re-parents them under
the request that was waiting for it (:meth:`Tracer.adopt_task_result`).
``time.perf_counter`` reads the system-wide monotonic clock, so
timestamps of both processes compare directly.  A worker task that
carries a prefetch hint stages the hint's window after it answered and
before it returns, so the staging crawl is charged to the query whose
hint scheduled it; spans and counts under it are *staging*, not demand
work (:func:`under_staging`).
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter

#: Wrapped functions: ``(module, class or None, attribute, span name)``.
SPAN_TARGETS = (
    ("repro.query.service", "QueryService", "submit", "query.service.submit"),
    ("repro.query.service", "QueryService", "apply_updates",
     "query.service.apply_updates"),
    ("repro.query.prefetch", "Prefetcher", "prefetch", "query.prefetch.prefetch"),
    ("repro.core.flat_index", "FLATIndex", "range_query",
     "core.flat_index.range_query"),
    ("repro.core.flat_index", "FLATIndex", "fork", "core.flat_index.fork"),
    ("repro.core.flat_index", "FLATIndex", "apply_batch",
     "core.flat_index.apply_batch"),
    ("repro.core.seed_index", "SeedIndex", "seed_query",
     "core.seed_index.seed_query"),
    ("repro.core.seed_index", "SeedIndex", "fetch_records_batch",
     "core.seed_index.fetch_records_batch"),
    ("repro.core.delta", "DeltaIndex", "overlay", "core.delta.overlay"),
    ("repro.core.snapshot", None, "snapshot_index", "core.snapshot.snapshot_index"),
    ("repro.core.snapshot", None, "restore_index", "core.snapshot.restore_index"),
    ("repro.core.snapshot", None, "publish_fork_generation",
     "core.snapshot.publish_fork_generation"),
    # snapshot.py calls the filestore function through its own import.
    ("repro.core.snapshot", None, "append_overlay_generation",
     "storage.filestore.append_overlay_generation"),
    ("repro.storage.filestore", "FilePageBackend", "payload",
     "storage.filestore.payload"),
    ("repro.storage.filestore", "FilePageBackend", "commit_generation",
     "storage.filestore.commit_generation"),
    # PageStore.read_metadata / read_elements call the decoders through
    # pagestore's module globals.
    ("repro.storage.pagestore", None, "decode_metadata_page",
     "storage.serial.decode_metadata_page"),
    ("repro.storage.pagestore", None, "decode_element_page",
     "storage.serial.decode_element_page"),
)

#: Span name of one process-worker task (recorded inside the worker).
PROCESS_TASK = "query.service.process_task"

#: Span name of one staging crawl (a prefetch window).
STAGING = "query.prefetch.prefetch"

#: The tracer installed in this process (inherited by forked workers).
_ACTIVE = None
#: The program's own process-worker task function while wrapped.
_RUN_GROUP = None


class Span:
    """One timed call.  ``parent`` is a :class:`Span` or ``None``."""

    __slots__ = ("name", "start", "end", "parent", "thread", "request")

    def __init__(self, name, start, parent, thread, request):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls while :meth:`installed`."""

    def __init__(self):
        self.spans: list = []
        #: Request id -> its root span (``request.query`` / ``request.commit``).
        self.requests: list = []
        self._request = None
        self._local = threading.local()
        self._thread_counts: list = []
        self._patches: list = []
        self.pid = os.getpid()

    # -- requests ------------------------------------------------------

    def begin_request(self, kind: str, start: float | None = None) -> int:
        """Open the next request (one in flight at a time); returns its id."""
        rid = len(self.requests)
        root = Span(f"request.{kind}", _clock() if start is None else start,
                    None, self._thread(), rid)
        self.requests.append(root)
        self.spans.append(root)
        self._request = rid
        return rid

    def end_request(self, end: float | None = None) -> None:
        """Close the request in flight."""
        self.requests[self._request].end = _clock() if end is None else end
        self._request = None

    # -- recording -----------------------------------------------------

    def _thread(self):
        return (os.getpid(), threading.get_ident())

    def _stack(self) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.counts = Counter()
            self._thread_counts.append(local.counts)
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        start = _clock()
        if stack:
            top = stack[-1]
            span = Span(name, start, top, top.thread, top.request)
        else:
            rid = self._request
            parent = None if rid is None else self.requests[rid]
            span = Span(name, start, parent, self._thread(), rid)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self._local.stack.pop()

    def kind(self, span) -> str:
        """What a span was done for: ``query``, ``commit``, ``staging`` or ``none``."""
        if under_staging(span):
            return "staging"
        if span is None or span.request is None:
            return "none"
        return self.requests[span.request].name.split(".", 1)[1]

    def count(self, span, key: str, n=1) -> None:
        """Add *n* to ``<kind of span>.<key>`` (per thread; see :meth:`counts`)."""
        stack = self._stack()
        if span is None and stack:
            span = stack[-1]
        self._local.counts[f"{self.kind(span)}.{key}"] += n

    def detach(self) -> None:
        """Forget the request in flight (no request is open)."""
        self._request = None

    def counts(self) -> Counter:
        total = Counter()
        for counts in self._thread_counts:
            total.update(counts)
        return total

    def adopt_task_result(self, raw) -> None:
        """Take in the spans a traced worker task's result carries, if any."""
        trace = getattr(raw, "trace", None)
        if trace is not None:
            raw.trace = None
            self._adopt(*trace)

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, span, args, result)
            return result

        self._patch(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        global _ACTIVE, _RUN_GROUP
        from repro.query import service
        from repro.storage import codec, pagestore
        from repro.storage.buffer import BufferPool

        for module_name, class_name, attr, name in SPAN_TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            hooks = _HOOKS.get(name, {})
            self._wrap(owner, attr, name, **hooks)
        for codec_class in {type(codec.get_codec(c)) for c in codec.available_codecs()}:
            self._wrap(codec_class, "decode", "storage.codec.decode")
            self._wrap(codec_class, "encode", "storage.codec.encode")
        self._wrap_read(pagestore.PageStore)
        self._wrap_counter(BufferPool, "_evict_one", "storage.buffer.evictions")
        self._patch(service._ProcessFuture, "result",
                    _merging_result(self, service._ProcessFuture.result))
        _RUN_GROUP = service._process_run_group
        self._patch(service, "_process_run_group", traced_process_run_group)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE, _RUN_GROUP
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _ACTIVE = _RUN_GROUP = None

    def _wrap_read(self, page_store_class) -> None:
        """``PageStore.read`` plus the physical bytes of each demand miss."""
        from repro.storage.constants import PAGE_SIZE

        original = page_store_class.read
        tracer = self

        @functools.wraps(original)
        def read(store, page_id):
            before = sum(store.stats.reads.values())
            span = tracer.open("storage.pagestore.read")
            try:
                payload = original(store, page_id)
            finally:
                tracer.close(span)
            if sum(store.stats.reads.values()) != before:
                stored = getattr(store.backend, "stored_bytes", None)
                size = PAGE_SIZE if stored is None else stored(page_id)
                tracer.count(span, "physical_bytes", size)
            return payload

        self._patch(page_store_class, "read", read)

    def _wrap_counter(self, owner, attr, key) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count(None, key)
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    # -- process workers -----------------------------------------------

    def _reset_after_fork(self) -> None:
        self.spans = []
        self.requests = []
        self._request = None
        self._local = threading.local()
        self._thread_counts = []
        self.pid = os.getpid()

    def _drain(self) -> tuple:
        spans, counts = self.spans, self.counts()
        self.spans = []
        self._thread_counts = []
        self._local = threading.local()
        return spans, counts

    def _adopt(self, spans, counts) -> None:
        """Re-parent a worker task's spans under the request in flight."""
        rid = self._request
        root = None if rid is None else self.requests[rid]
        kind = self.kind(root)
        for span in spans:
            span.request = rid
            if span.parent is None:
                span.parent = root
        self.spans.extend(spans)
        self._stack()
        for key, n in counts.items():
            self._local.counts[key.replace("none.", kind + ".", 1)] += n


class _TracedResult(tuple):
    """A worker task's result tuple with the task's spans riding along."""

    def __new__(cls, result, trace=None):
        obj = super().__new__(cls, result)
        obj.trace = trace
        return obj

    def __getnewargs__(self):
        return (tuple(self),)


def traced_process_run_group(*args, **kwargs):
    """Stands in for the service's process-worker task while tracing."""
    tracer = _ACTIVE
    if tracer is None or _RUN_GROUP is None:
        # A worker that did not inherit the tracer (a non-fork start
        # method) serves untraced.
        from repro.query import service

        return service._process_run_group(*args, **kwargs)
    if tracer.pid != os.getpid():
        tracer._reset_after_fork()
    span = tracer.open(PROCESS_TASK)
    try:
        result = _RUN_GROUP(*args, **kwargs)
    finally:
        tracer.close(span)
    return _TracedResult(result, tracer._drain())


def _merging_result(tracer, original):
    @functools.wraps(original)
    def result(future, timeout=None):
        value = original(future, timeout)
        tracer.adopt_task_result(future._future.result())
        return value

    return result


# -- hooks ---------------------------------------------------------------


def _after_range_query(tracer, span, args, result) -> None:
    index = args[0]
    crawl = index.last_crawl_stats
    delta = getattr(index, "delta", None)
    tracer.count(span, "records", crawl.records_dequeued)
    tracer.count(span, "object_pages", crawl.object_pages_read)
    tracer.count(span, "results", len(result))
    tracer.count(span, "delta_rows", 0 if delta is None else delta.size)


_HOOKS = {
    "core.flat_index.range_query": {"after": _after_range_query},
}


# -- analysis ------------------------------------------------------------


def under_staging(span) -> bool:
    """Whether *span* is a staging crawl or runs inside one."""
    while span is not None:
        if span.name == STAGING:
            return True
        span = span.parent
    return False


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals (empty ones ignored)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """``id(span) -> self seconds``: duration minus what children cover.

    Children are clipped to their parent's interval and their union is
    subtracted, so overlapping children on other threads count once.
    Spans that never closed are skipped.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.end is not None:
            children[id(span.parent)].append(span)
    result = {}
    for span in spans:
        if span.end is None:
            continue
        kids = children.get(id(span))
        covered = 0.0
        if kids:
            covered = union_length(
                (max(k.start, span.start), min(k.end, span.end)) for k in kids
            )
        result[id(span)] = span.duration - covered
    return result

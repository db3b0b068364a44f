"""The uniform query-engine interface every index implements.

The benchmark harness (:func:`repro.query.executor.run_queries`) drives
all indexes — FLAT, every R-Tree variant, and the DLS connectivity
baseline — through the same two methods, so adding an index to an
experiment never needs harness changes:

* ``range_query(box) -> element ids`` — all elements whose MBR
  intersects the ``(6,)`` query box, sorted ascending.
* ``point_query(point) -> element ids`` — all elements whose MBR
  contains the ``(3,)`` point (a degenerate range query).
* ``knn_query(point, k) -> element ids`` — the ``k`` elements whose
  MBRs are nearest the point (Euclidean MINDIST), sorted by
  ``(distance, id)``.  FLAT answers it with an expanding-radius crawl,
  the R-Trees with classic best-first search, the sharded index with a
  MINDIST-ordered walk over shards.

The protocol is structural (:func:`typing.runtime_checkable`): classes
implement it by shape, without importing this module.  Engines that
additionally expose ``last_crawl_stats`` (FLAT) get their per-query BFS
bookkeeping collected by the harness; page-read and page-decode
accounting always comes from the backing store's ``stats``.

**Committed state only.**  An engine answers from one committed
generation of its pages and nothing else.  The in-RAM
:class:`~repro.core.delta.DeltaIndex` of the write path is applied
where answers are gathered —
:class:`~repro.query.service.QueryService` and
:class:`~repro.query.cluster.ClusterRouter` — never inside an engine:
a range answer through :meth:`~repro.core.delta.DeltaIndex.overlay`,
and a kNN answer through :meth:`~repro.core.delta.DeltaIndex.knn_overlay`
over the engine's top ``k + tombstone_count``.  The correction is pure
RAM, so an engine's page-read and decode accounting is that of its
committed generation.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.geometry.mbr import point_as_box


@runtime_checkable
class QueryEngine(Protocol):
    """Structural interface of a range-queryable index."""

    def range_query(self, query: np.ndarray) -> np.ndarray:
        """Element ids whose MBR intersects the ``(6,)`` query box."""
        ...

    def point_query(self, point: np.ndarray) -> np.ndarray:
        """Element ids whose MBR contains the ``(3,)`` point."""
        ...

    def knn_query(self, point: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` elements nearest the ``(3,)`` point, by MBR distance."""
        ...


class CallableEngine:
    """Adapt a bare range-query callable into a :class:`QueryEngine`.

    Used to benchmark alternative crawl implementations of an existing
    index (e.g. ``CallableEngine(flat.range_query_scalar, flat)`` drives
    the scalar reference crawl through the standard harness while still
    surfacing the index's ``last_crawl_stats``).
    """

    def __init__(self, range_fn: Callable, source: Any = None):
        self._range_fn = range_fn
        self._source = source

    def range_query(self, query: np.ndarray) -> np.ndarray:
        return self._range_fn(query)

    def point_query(self, point: np.ndarray) -> np.ndarray:
        return self._range_fn(point_as_box(point))

    def knn_query(self, point: np.ndarray, k: int, return_distances: bool = False):
        """Delegate kNN to the source index (range callables can't confirm
        distances on their own)."""
        knn = getattr(self._source, "knn_query", None)
        if knn is None:
            raise NotImplementedError(
                "the wrapped callable's source exposes no knn_query"
            )
        return knn(point, k, return_distances=return_distances)

    @property
    def last_crawl_stats(self):
        return getattr(self._source, "last_crawl_stats", None)

"""The crawl kernel: Algorithm 2's neighbor-link BFS, in one place.

A FLAT query seeds one metadata record, then breadth-first searches the
neighbor graph: a record whose *page MBR* meets the query has its object
page read, and one whose *partition MBR* meets it enqueues its neighbors
(Sec. VI).  :func:`crawl` runs that search over ``(record, query)``
pairs, one whole frontier per step: both guards run as vectorized
predicates over the frontier's :class:`~repro.core.seed_index.RecordBatch`
and the visited set is a bitmask indexed by ``record * queries + query``.
The guards depend only on the record and the query box, so a pair is
explored exactly when a one-query crawl would visit the record.

Callers differ only in their start pairs and in whether hit pages are
filtered into results: ``FLATIndex.range_query`` (one query from its
seed record), ``FLATIndex.range_query_multi`` (a group, each query from
its own seed record) and the prefetcher's staging crawl (one window from
every record on the seed leaves whose key meets it, filter off).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.intersect import boxes_intersect_box


def _meets(mbrs: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Row-wise closed intersection of ``(N, 6)`` MBRs with ``(N | 1, 6)`` boxes."""
    return np.all(
        (mbrs[:, :3] <= boxes[:, 3:]) & (boxes[:, :3] <= mbrs[:, 3:]), axis=1
    )


def crawl(index, queries, rids, qids, collect=True, stats=None, probed=(),
          charged=None):
    """Breadth-first search of *index* from the pairs ``(rids[i], qids[i])``.

    Frontier records come from ``index.seed_index.fetch_records_batch``
    and hit object pages are read through ``index.store``.  With
    *collect*, returns one sorted id array per query; without, ``None``.
    *stats* (a :class:`~repro.core.flat_index.CrawlStats`) receives the
    BFS counters; *probed* holds the ``page * len(queries) + query`` keys
    the seed phase already read, so ``object_pages_read`` counts each
    page once per query.  *charged*, a ``(pages, queries)`` boolean
    matrix, gets every pair's metadata leaf and hit object page marked.
    """
    seed = index.seed_index
    count = len(queries)
    # Per clone, never shared: thread-mode workers crawl sibling clones
    # at the same time.  Reused across crawls, so no crawl pays an
    # O(record_count) allocation.
    size = seed.record_count * count
    visited = index._visited_scratch
    if visited is None or len(visited) < size:
        visited = index._visited_scratch = np.zeros(size, dtype=bool)
    else:
        visited[:size] = False
    visited[rids * count + qids] = True

    found = [[] for _ in range(count)]
    hits = [np.asarray(probed, dtype=np.int64)]
    dequeued = peak = 0
    while rids.size:
        dequeued += len(rids)
        peak = max(peak, len(rids))
        batch = seed.fetch_records_batch(rids)
        boxes = queries if count == 1 else queries[qids]

        page_hits = _meets(batch.page_mbrs, boxes)
        pages = batch.object_page_ids[page_hits]
        page_qids = qids[page_hits]
        hits.append(pages * count + page_qids)
        if charged is not None:
            charged[seed.record_page[rids], qids] = True
            charged[pages, page_qids] = True
        elements = index.store.read_elements_many(pages)
        if collect:
            for page, qi, page_elements in zip(
                pages.tolist(), page_qids.tolist(), elements
            ):
                mask = boxes_intersect_box(page_elements, queries[qi])
                if mask.any():
                    found[qi].append(index.object_page_element_ids[page][mask])

        expand = _meets(batch.partition_mbrs, boxes)
        neighbors = batch.neighbors_of(expand)
        if not neighbors.size:
            break
        if count > 1:
            lengths = np.diff(batch.neighbor_offsets)[expand]
            neighbors = neighbors * count + np.repeat(qids[expand], lengths)
        keys = np.unique(neighbors)
        keys = keys[~visited[keys]]
        visited[keys] = True
        rids, qids = np.divmod(keys, count)

    if stats is not None:
        stats.records_dequeued = dequeued
        stats.max_queue_length = peak
        # 8 bytes per visited pair, the scalar crawl's visited-set measure.
        stats.visited_bytes = dequeued * 8
        stats.object_pages_read = len(np.unique(np.concatenate(hits)))
    if not collect:
        return None
    results = [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in found
    ]
    if stats is not None:
        stats.result_count = sum(len(ids) for ids in results)
    return results

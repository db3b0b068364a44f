"""The crawl kernel: Algorithm 2's neighbor-link BFS, in one place.

A FLAT query seeds one metadata record, then breadth-first searches the
neighbor graph: a record whose *page MBR* meets the query has its object
page read, and one whose *partition MBR* meets it enqueues its neighbors
(Sec. VI).  :func:`crawl` runs that search over ``(record, query)``
pairs, one whole frontier per step, straight over the generation's
:class:`~repro.core.seed_index.RecordTable`: one comparison of the
frontier's bounds rows with the query keys answers both guards, the
expanding rows' neighbors are one CSR gather, and the visited set is a
bitmask indexed by ``record * queries + query``.  The guards depend
only on the record and the query box, so a pair is explored exactly
when a one-query crawl would visit the record.

Each frontier reads its distinct metadata leaves in ascending page
order, then its hit object pages in ascending ``(record, query)``
order, the start pairs excepted (read in the order given), and filters
all the hit pages' elements in one comparison.

Callers differ only in their start pairs and in whether hit pages are
filtered into results: ``FLATIndex.range_query`` (one query from its
seed record), ``FLATIndex.range_query_multi`` (a group, each query from
its own seed record) and the prefetcher's staging crawl (one window from
every record on the seed leaves whose key meets it, filter off).
"""

from __future__ import annotations

import numpy as np

from repro.core.seed_index import query_keys, sorted_unique


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

    qkeys = query_keys(queries)
    found, found_qids = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    hits = [np.asarray(probed, dtype=np.int64)]
    dequeued = peak = 0
    while rids.size:
        dequeued += len(rids)
        peak = max(peak, len(rids))
        # The table's arrays are read after every fetch: a load may
        # replace them.
        table = seed.fetch_records_batch(rids)
        guards = table.bounds[rids] <= (qkeys if count == 1 else qkeys[qids])
        page_hits, expand = guards.reshape(-1, 2, 6).all(axis=2).T

        pages = table.object_page_ids[rids[page_hits]]
        page_qids = qids[page_hits]
        hits.append(pages * count + page_qids)
        if charged is not None:
            charged[seed.record_page[rids], qids] = True
            charged[pages, page_qids] = True
        elements = index.store.read_elements_many(pages)
        if collect and elements:
            element_qids = np.repeat(page_qids, [len(e) for e in elements])
            mbrs = np.concatenate(elements)
            boxes = queries if count == 1 else queries[element_qids]
            meets = (mbrs[:, :3] <= boxes[:, 3:]) & (boxes[:, :3] <= mbrs[:, 3:])
            # Three column ANDs: numpy reduces rows of three more slowly.
            mask = meets[:, 0] & meets[:, 1] & meets[:, 2]
            ids = np.concatenate(
                [index.object_page_element_ids[page] for page in pages.tolist()]
            )
            found.append(ids[mask])
            found_qids.append(element_qids[mask])

        rows = rids[expand]
        lengths = table.neighbor_counts[rows]
        # CSR row gather: offset each row's arange to its start.
        shift = np.repeat(
            table.neighbor_starts[rows] - np.cumsum(lengths) + lengths, lengths
        )
        neighbors = table.neighbor_ids[np.arange(len(shift)) + shift]
        if count > 1:
            neighbors = neighbors * count + np.repeat(qids[expand], lengths)
        pairs = sorted_unique(neighbors[~visited[neighbors]])
        visited[pairs] = True
        rids, qids = np.divmod(pairs, count) if count > 1 else (pairs, pairs * 0)

    if stats is not None:
        stats.records_dequeued = dequeued
        stats.max_queue_length = peak
        # 8 bytes per visited pair, the scalar crawl's visited-set measure.
        stats.visited_bytes = dequeued * 8
        stats.object_pages_read = len(sorted_unique(np.concatenate(hits)))
    if not collect:
        return None
    ids, owners = np.concatenate(found), np.concatenate(found_qids)
    order = np.lexsort((ids, owners))
    if stats is not None:
        stats.result_count = len(ids)
    return np.split(ids[order], np.searchsorted(owners[order], np.arange(1, count)))

#!/usr/bin/env python
"""Interleaved updates and queries against a served sharded index.

Builds a sharded FLAT index over a synthetic microcircuit, serves it
through :class:`~repro.query.service.QueryService`, and then alternates
query batches with snapshot-isolated update commits
(``apply_updates``).  The service runs the delta layer: a commit whose
buffered work stays under ``delta_threshold`` is absorbed into the
in-RAM delta (workers keep serving the committed generation and the
service corrects their answers), and the commit that crosses it merges
everything buffered into a copy-on-write fork that is swapped in
atomically.  After every commit the served answers are checked against
a brute-force scan of the tracked element set; the script exits 1 on
any mismatch.

Run:  python examples/update_workload.py
"""

import sys

import numpy as np

from repro.core import ShardedFLATIndex
from repro.data import build_microcircuit
from repro.geometry.intersect import boxes_intersect_box
from repro.query import QueryService

#: Each commit buffers up to 1000 rows (500 inserts + 500 deletes, less
#: deletes of rows still buffered), so the first two commits are
#: absorbed and the third merges.
DELTA_THRESHOLD = 2500


def served_exactly(service, live, queries) -> bool:
    """Whether every query's served answer equals a brute-force scan."""
    ids = np.fromiter(sorted(live), dtype=np.int64, count=len(live))
    boxes = np.stack([live[int(i)] for i in ids])
    return all(
        np.array_equal(service.submit(q).result(),
                       ids[boxes_intersect_box(boxes, q)])
        for q in queries
    )


def main() -> int:
    # 1. Build a sharded index over ~15k cylinders and start serving.
    circuit = build_microcircuit(15_000, side=18.0, seed=21)
    mbrs = circuit.mbrs()
    index = ShardedFLATIndex.build(mbrs, shard_count=4,
                                   space_mbr=circuit.space_mbr)
    live = {i: mbrs[i] for i in range(len(mbrs))}
    print(f"serving {index.element_count} elements over "
          f"{index.shard_count} shards")

    rng = np.random.default_rng(22)
    corners = rng.uniform(circuit.space_mbr[:3], circuit.space_mbr[3:] - 3.0,
                          size=(12, 3))
    queries = np.concatenate([corners, corners + 3.0], axis=1)

    exact = True
    with QueryService(index, workers=4,
                      delta_threshold=DELTA_THRESHOLD) as service:
        report = service.run(queries, "sharded")
        print(f"steady state: {report.throughput_qps:7.1f} q/s, "
              f"{report.result_elements} result elements "
              f"(version {service.current_version})")

        # 2. Interleave update commits with query batches.
        for round_number in range(3):
            lo = rng.uniform(circuit.space_mbr[:3], circuit.space_mbr[3:],
                             size=(500, 3))
            inserts = np.concatenate([lo, lo + 0.3], axis=1)
            deletable = np.fromiter(live, dtype=np.int64, count=len(live))
            deletes = rng.choice(deletable, size=500, replace=False)

            update = service.apply_updates(inserts=inserts, delete_ids=deletes)
            for gid, mbr in zip(update.inserted_ids, inserts):
                live[int(gid)] = mbr
            for gid in deletes:
                del live[int(gid)]
            shape = "merged" if update.merged else "absorbed"
            print(f"commit {update.version} ({shape}): "
                  f"+{len(update.inserted_ids)} -{update.deleted_count} "
                  f"elements in {update.wall_seconds * 1000:.0f} ms "
                  f"({update.element_count} live, "
                  f"{update.delta_elements} buffered)")

            report = service.run(queries, "sharded")
            # 3. Served answers must be exact after every commit.
            commit_exact = served_exactly(service, live, queries)
            exact = exact and commit_exact
            print(f"  after commit: {report.throughput_qps:7.1f} q/s, "
                  f"{report.result_elements} result elements, "
                  f"exact: {commit_exact}")

    print(f"exact results after every commit: {exact}")
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())

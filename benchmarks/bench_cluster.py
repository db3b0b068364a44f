"""Micro-benchmark: the distributed serving tier vs the in-process oracle.

Snapshots the SN microcircuit workload into sharded roots and serves it
through :class:`~repro.query.cluster.ClusterRouter` fleets of increasing
size, measuring aggregate cold-cache throughput per server count.  Every
configuration is pinned element-id-identical to the in-RAM
:class:`~repro.core.sharded.ShardedFLATIndex` oracle.  Two fault drills
run on a replicated fleet:

* **failover** — kill a primary mid-workload; the batch must finish on
  the replica with byte-identical results and exactly one server lost;
* **rolling update** — apply an insert/delete batch shard-by-shard while
  querying; after every shard swap the answers must match the mixed
  old/new-generation oracle, and post-roll the fork oracle — with every
  replica ship incremental (each rebuilt shard's tail increment, never a
  full copy); the roll's shipped bytes per rolled row are recorded.

Exactness checks always gate the exit code.  The throughput-scaling
check can be disabled with ``--scaling-gate 0`` for shared CI runners
where wall-clock scaling is unreliable (the measurements are still
recorded in the artifact).

Run ``python benchmarks/bench_cluster.py`` to print a summary and emit
``BENCH_cluster.json``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from bench_common import describe_workload, finish, workload_parser
from repro.core import ShardedFLATIndex
from repro.data.microcircuit import build_microcircuit
from repro.query import BenchmarkSpec, ClusterRouter, SCALED_SN_FRACTION, random_points

N_ELEMENTS = 20_000
VOLUME_SIDE = 15.0
QUERY_COUNT = 60
SEED = 7
SERVER_COUNTS = (1, 2, 4)
KNN_QUERY_COUNT = 10
KNN_K = 10
UPDATE_INSERTS = 200
UPDATE_DELETES = 100
MID_ROLL_QUERIES = 12


def _random_inserts(space_mbr, count, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(space_mbr[:3], space_mbr[3:] - 1.0, size=(count, 3))
    return np.concatenate(
        [lo, lo + rng.uniform(0.01, 1.0, size=(count, 3))], axis=1
    )


def _random_deletes(oracle, count, seed):
    rng = np.random.default_rng(seed)
    live = np.flatnonzero(
        oracle.contains_elements(np.arange(oracle.next_element_id))
    )
    return rng.choice(live, size=min(count, len(live)), replace=False).astype(
        np.int64
    )


def _exact(results, oracle, queries) -> bool:
    return all(
        np.array_equal(got, oracle.range_query(query))
        for got, query in zip(results, queries)
    )


def _serve_sweep(workdir, mbrs, space_mbr, queries, knn_points, knn_k,
                 server_counts) -> tuple:
    """One cluster per server count: cold q/s plus oracle exactness."""
    runs = []
    exact = True
    knn_exact = True
    for target in server_counts:
        oracle = ShardedFLATIndex.build(mbrs, target, space_mbr=space_mbr)
        root = Path(workdir) / f"sweep-{target}"
        oracle.snapshot(root)
        with ClusterRouter.launch(root) as router:
            results, report = router.run(queries)
            exact &= _exact(results, oracle, queries)
            knn_exact &= all(
                np.array_equal(
                    router.knn_query(point, knn_k),
                    oracle.knn_query(point, knn_k),
                )
                for point in knn_points
            )
            runs.append(
                {
                    "target_servers": target,
                    "actual_servers": router.shard_count,
                    "cold_qps": report.throughput_qps,
                    "wall_seconds": report.wall_seconds,
                    "total_page_reads": report.total_page_reads,
                    "shard_requests": report.shard_requests,
                    "shards_pruned": report.shards_pruned,
                    "result_elements": report.result_elements,
                }
            )
    return runs, exact, knn_exact


def _failover_drill(workdir, mbrs, space_mbr, queries, server_count) -> dict:
    """Kill a primary mid-workload; the replica must finish it exactly."""
    oracle = ShardedFLATIndex.build(mbrs, server_count, space_mbr=space_mbr)
    root = Path(workdir) / "failover"
    oracle.snapshot(root)
    with ClusterRouter.launch(
        root, replica_root=Path(workdir) / "failover-replicas"
    ) as router:
        warm_results, _ = router.run(queries)
        router.kill_server(0, "primary")
        results, report = router.run(queries)
        return {
            "server_count": router.shard_count,
            "pre_kill_exact": _exact(warm_results, oracle, queries),
            "post_kill_exact": _exact(results, oracle, queries),
            "servers_lost": report.servers_lost,
            "post_kill_qps": report.throughput_qps,
            "launch_full_copies": sum(
                1 for entry in router.replication_log if entry["full_copy"]
            ),
            # The launch ships' transfer accounting (ShipStats.as_dict()):
            # what replication actually paid in bytes on the wire.
            "launch_replication": router.replication_log,
            "launch_bytes_sent": sum(
                entry["bytes_sent"] + entry["index_bytes_sent"]
                for entry in router.replication_log
            ),
        }


def _rolling_update_drill(workdir, mbrs, space_mbr, queries, server_count,
                          insert_count, delete_count, seed) -> dict:
    """Roll an update across the fleet while querying; pin every step."""
    oracle = ShardedFLATIndex.build(mbrs, server_count, space_mbr=space_mbr)
    root = Path(workdir) / "roll"
    oracle.snapshot(root)
    inserts = _random_inserts(space_mbr, insert_count, seed + 808)
    deletes = _random_deletes(oracle, delete_count, seed + 909)
    new_oracle = oracle.fork()
    new_oracle.apply_batch(insert_mbrs=inserts, delete_ids=deletes)
    mid_queries = queries[:MID_ROLL_QUERIES]
    mid_exact = True
    done = []

    with ClusterRouter.launch(
        root, replica_root=Path(workdir) / "roll-replicas"
    ) as router:

        def on_shard(pos, generation):
            nonlocal mid_exact
            done.append(pos)
            mixed = ShardedFLATIndex(
                [new_oracle.shards[i] if i in done else oracle.shards[i]
                 for i in range(oracle.shard_count)],
                new_oracle.planner,
                new_oracle.element_count,
            )
            for query in mid_queries:
                mid_exact &= np.array_equal(
                    router.range_query(query), mixed.range_query(query)
                )

        report = router.apply_updates(
            insert_mbrs=inserts, delete_ids=deletes, on_shard_updated=on_shard
        )
        results, _ = router.run(queries)
        ship_bytes = sum(
            entry["bytes_sent"] + entry["index_bytes_sent"]
            for entry in report.shipping
        )
        rows = len(report.inserted_ids) + report.deleted_count
        return {
            "server_count": router.shard_count,
            "shards_rolled": len(report.shards_updated),
            "inserts": int(len(report.inserted_ids)),
            "deletes": int(report.deleted_count),
            "roll_wall_seconds": report.wall_seconds,
            "mid_roll_exact": mid_exact,
            "post_roll_exact": _exact(results, new_oracle, queries),
            "shipping": report.shipping,
            "ship_bytes_sent": ship_bytes,
            "ship_bytes_per_row": ship_bytes / rows if rows else 0.0,
            "incremental_ships": all(
                not entry["full_copy"] for entry in report.shipping
            ),
        }


def run_cluster_bench(
    n_elements: int = N_ELEMENTS,
    volume_side: float = VOLUME_SIDE,
    query_count: int = QUERY_COUNT,
    seed: int = SEED,
    server_counts=SERVER_COUNTS,
    knn_query_count: int = KNN_QUERY_COUNT,
    knn_k: int = KNN_K,
    update_inserts: int = UPDATE_INSERTS,
    update_deletes: int = UPDATE_DELETES,
    scaling_gate: bool = True,
) -> dict:
    """Sweep fleet sizes and run both fault drills; cross-check all of it."""
    circuit = build_microcircuit(n_elements, side=volume_side, seed=seed)
    mbrs = circuit.mbrs()
    spec = BenchmarkSpec("SN", SCALED_SN_FRACTION, query_count)
    queries = spec.queries(circuit.space_mbr, seed=seed + 202)
    knn_points = random_points(circuit.space_mbr, knn_query_count,
                               seed=seed + 404)
    drill_servers = max(server_counts)

    with tempfile.TemporaryDirectory(prefix="flatbench-") as workdir:
        sweep, sweep_exact, knn_exact = _serve_sweep(
            workdir, mbrs, circuit.space_mbr, queries, knn_points, knn_k,
            server_counts,
        )
        failover = _failover_drill(
            workdir, mbrs, circuit.space_mbr, queries, drill_servers
        )
        roll = _rolling_update_drill(
            workdir, mbrs, circuit.space_mbr, queries, drill_servers,
            update_inserts, update_deletes, seed,
        )

    qps = {run["actual_servers"]: run["cold_qps"] for run in sweep}
    scaling = (
        len(qps) < 2
        or qps[max(qps)] > qps[min(qps)]
    )
    checks = {
        "cluster_results_match_oracle": bool(sweep_exact),
        "cluster_knn_matches_oracle": bool(knn_exact),
        "post_kill_results_exact": bool(
            failover["pre_kill_exact"] and failover["post_kill_exact"]
        ),
        "failover_lost_exactly_one_server": failover["servers_lost"] == 1,
        "mid_roll_results_exact": bool(roll["mid_roll_exact"]),
        "post_roll_results_exact": bool(roll["post_roll_exact"]),
        "replication_ships_increments_only": bool(roll["incremental_ships"]),
    }
    if scaling_gate:
        checks["aggregate_qps_scales_with_servers"] = bool(scaling)

    return {
        "benchmark": "cluster",
        "workload": {
            "figure": "fig13",
            "benchmark": "SN",
            "n_elements": n_elements,
            "volume_side": volume_side,
            "volume_fraction": SCALED_SN_FRACTION,
            "query_count": query_count,
            "knn_query_count": knn_query_count,
            "knn_k": knn_k,
            "update_inserts": update_inserts,
            "update_deletes": update_deletes,
            "seed": seed,
        },
        "serve_sweep": sweep,
        "failover": failover,
        "rolling_update": roll,
        "qps_scaling_observed": bool(scaling),
        "checks": checks,
    }


def main(argv=None) -> int:
    parser = workload_parser(
        __doc__.splitlines()[0],
        elements=N_ELEMENTS,
        side=VOLUME_SIDE,
        queries=QUERY_COUNT,
        seed=SEED,
        out="BENCH_cluster.json",
    )
    parser.add_argument(
        "--servers", type=int, nargs="+", default=list(SERVER_COUNTS),
        help="shard-server counts to sweep",
    )
    parser.add_argument("--knn-queries", type=int, default=KNN_QUERY_COUNT)
    parser.add_argument("--knn-k", type=int, default=KNN_K)
    parser.add_argument("--update-inserts", type=int, default=UPDATE_INSERTS)
    parser.add_argument("--update-deletes", type=int, default=UPDATE_DELETES)
    parser.add_argument(
        "--scaling-gate", type=int, default=1,
        help="gate the exit code on q/s scaling with server count "
             "(pass 0 on shared CI runners; exactness is always gated)",
    )
    args = parser.parse_args(argv)
    report = run_cluster_bench(
        args.elements,
        args.side,
        args.queries,
        args.seed,
        tuple(args.servers),
        args.knn_queries,
        args.knn_k,
        args.update_inserts,
        args.update_deletes,
        scaling_gate=bool(args.scaling_gate),
    )

    print(describe_workload(report))
    for run in report["serve_sweep"]:
        print(f"  servers={run['actual_servers']}: "
              f"cold {run['cold_qps']:8.1f} q/s "
              f"({run['shard_requests']} requests, "
              f"{run['shards_pruned']} pruned, "
              f"{run['total_page_reads']} page reads)")
    failover = report["failover"]
    print(f"failover: post-kill {failover['post_kill_qps']:8.1f} q/s, "
          f"exact={failover['post_kill_exact']}, "
          f"lost={failover['servers_lost']}; launch replication "
          f"{failover['launch_full_copies']} full copies, "
          f"{failover['launch_bytes_sent']:,} bytes")
    roll = report["rolling_update"]
    sent = sum(entry["pages_sent"] for entry in roll["shipping"])
    print(f"rolling update: {roll['shards_rolled']} shards in "
          f"{roll['roll_wall_seconds']:.3f}s, mid-roll exact="
          f"{roll['mid_roll_exact']}, post-roll exact="
          f"{roll['post_roll_exact']}, {sent} pages / "
          f"{roll['ship_bytes_sent']:,} bytes shipped "
          f"({roll['ship_bytes_per_row']:,.0f} bytes per rolled row)")
    return finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())

"""FLAT — the paper's primary contribution.

Public entry point: :class:`~repro.core.flat_index.FLATIndex`.

>>> from repro.core import FLATIndex
>>> from repro.storage import PageStore
>>> index = FLATIndex.build(PageStore(), element_mbrs)
>>> hits = index.range_query(query_box)
"""

from repro.core.delta import DeltaIndex
from repro.core.flat_index import BuildReport, CrawlStats, FLATIndex
from repro.core.metadata import MetadataRecord, pack_records_into_pages
from repro.core.neighbors import compute_neighbors, neighbor_counts
from repro.core.partition import Partition, compute_partitions, coverage_gaps_exist
from repro.core.seed_index import SeedIndex
from repro.core.sharded import Shard, ShardedFLATIndex
from repro.core.snapshot import (
    publish_fork_generation,
    restore_index,
    ship_index_generation,
    snapshot_index,
)

__all__ = [
    "BuildReport",
    "CrawlStats",
    "DeltaIndex",
    "FLATIndex",
    "MetadataRecord",
    "Partition",
    "SeedIndex",
    "Shard",
    "ShardedFLATIndex",
    "compute_neighbors",
    "compute_partitions",
    "coverage_gaps_exist",
    "neighbor_counts",
    "pack_records_into_pages",
    "publish_fork_generation",
    "restore_index",
    "ship_index_generation",
    "snapshot_index",
]

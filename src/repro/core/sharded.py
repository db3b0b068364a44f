"""FLAT, horizontally sharded: K spatial shards behind one query planner.

The monolithic :class:`~repro.core.flat_index.FLATIndex` serves one
store; this module scales the same design out.  The space is split into
K *shards* by reusing Algorithm 1's partitioning at coarse granularity
(:func:`~repro.core.partition.compute_partitions` with a per-shard
capacity of ``ceil(n / K)``), which inherits both crawl-critical
properties for free: the shard boxes tile the space gap-free, and every
shard box is stretched to enclose the MBRs of its elements.  Each shard
then gets its own complete FLAT index — its own page store, seed tree
and neighbor graph — over its elements only.

Queries go through a :class:`~repro.query.planner.QueryPlanner`: shards
whose box misses the query are pruned before any I/O (exact, because
element containment in the shard box is guaranteed), the rest crawl
independently, and the per-shard sorted results merge by concatenation
(shards partition the element set).  kNN visits shards in MINDIST
order and stops when the next shard is farther than the current k-th
candidate.  The planner's decision for the most recent query is kept in
:attr:`ShardedFLATIndex.last_plan` so harnesses report pruning next to
the paper's page accounting.

A shard set is never changed in place.  A write is a merge:
:meth:`ShardedFLATIndex.merged` routes a drained batch to shards by
centroid (widening a box an insert protrudes from, so pruning stays
exact) and returns a new shard set in which every touched shard is
bulkloaded afresh; untouched shards are carried over as the same
objects, which is how a cluster roll finds the shards it must publish.
Both serving tiers reach it through one commit
(:func:`~repro.query.service.absorb_batch`): ids from the watermark,
deletes validated atomically, the batch drained into ``merged``.

Persistence composes the monolithic machinery: ``snapshot()`` writes a
shard manifest plus one self-describing FLAT snapshot directory per
shard (each with its own ``pages.dat``), and ``restore()`` reopens
every shard as a :class:`~repro.storage.pagestore.PageStore` over a
read-only mmap-backed :class:`~repro.storage.filestore.FilePageBackend`,
at the generation the root's ``shards.json`` names for it — the one its
id map in ``shards.npz`` belongs to.  A merge of a restored shard set
rebuilds onto overlays over those backends;
:meth:`ShardedFLATIndex.close` closes every shard's backend either way.
"""

from __future__ import annotations

import io
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.geometry.mbr import (
    mbr_center,
    mbr_contains_mbr,
    mbr_contains_point,
    mbr_distance_to_point,
    mbr_volume,
    point_as_box,
    validate_mbrs,
)
from repro.query.planner import QueryPlan, QueryPlanner
from repro.storage.constants import OBJECT_PAGE_CAPACITY
from repro.storage.filestore import publish_files
from repro.storage.pagestore import (
    PageStore,
    PageStoreError,
    PageStoreGroup,
    SnapshotError,
)
from repro.core.flat_index import CrawlStats, FLATIndex
from repro.core.partition import compute_partitions
from repro.core.snapshot import restore_index, snapshot_index

#: Manifest + array bundle of a sharded snapshot directory.
SHARD_META_FILENAME = "shards.json"
SHARD_ARRAYS_FILENAME = "shards.npz"

#: Bumped on any incompatible change to the shard-set serialization.
#: Version 2 tracks the write path (generational per-shard snapshots,
#: global element-id watermark).
SHARDED_FORMAT_VERSION = 2


def _shard_dirname(shard_id: int) -> str:
    return f"shard-{shard_id:04d}"


@dataclass
class Shard:
    """One spatial shard: a complete FLAT index over its own store.

    ``element_ids`` maps the shard-local ids the inner index returns to
    the data set's global ids; it is kept sorted ascending so local
    ``(distance, id)`` tie-breaks agree with global ones.
    """

    shard_id: int
    #: The shard's gap-free space box (encloses all member element MBRs).
    mbr: np.ndarray
    #: Global element ids of the shard's members, ascending.
    element_ids: np.ndarray
    index: FLATIndex
    store: PageStore

    @property
    def element_count(self) -> int:
        """Live elements in this shard.

        Not ``len(element_ids)`` — that array keeps stale slots for
        deleted elements so local→global lookups stay positional.
        """
        return self.index.element_count

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Map shard-local result ids to global ids (order-preserving)."""
        return self.element_ids[local_ids]


class ShardedFLATIndex:
    """K spatial FLAT shards behind one scatter–gather query planner."""

    def __init__(self, shards: list, planner: QueryPlanner, element_count: int,
                 next_id: int | None = None):
        self.shards = shards
        self.planner = planner
        #: Live elements across all shards.
        self.element_count = element_count
        #: Global element-id watermark (deleted ids are never reused).
        self._next_id = element_count if next_id is None else next_id
        #: Lazily built ``global element id -> shard position`` map
        #: (the write path's routing directory).
        self._element_shard: dict | None = None
        #: One facade over every shard's store, so single-store harnesses
        #: (``run_queries``, ``QueryService``) drive the shard set as is.
        self.store = PageStoreGroup([shard.store for shard in shards])
        #: Planner decision of the most recent query.
        self.last_plan: QueryPlan | None = None
        #: Crawl bookkeeping of the most recent query, aggregated over
        #: the touched shards.
        self.last_crawl_stats: CrawlStats | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        element_mbrs: np.ndarray,
        shard_count: int,
        space_mbr: np.ndarray | None = None,
        page_capacity: int = OBJECT_PAGE_CAPACITY,
        seed_fanout: int | None = None,
        store_factory=None,
    ) -> "ShardedFLATIndex":
        """Shard *element_mbrs* spatially and bulkload FLAT per shard.

        ``shard_count`` is the target; the actual count (``len(shards)``)
        is whatever the coarse STR tiling produces for it — usually the
        target exactly, occasionally off by the cube rounding.
        ``store_factory(shard_id)`` supplies each shard's store (default:
        a fresh in-memory :class:`PageStore` per shard).
        """
        element_mbrs = validate_mbrs(element_mbrs)
        if shard_count <= 0:
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        shard_capacity = max(1, math.ceil(len(element_mbrs) / shard_count))
        coarse = compute_partitions(element_mbrs, shard_capacity, space_mbr)

        shards = []
        for shard_id, partition in enumerate(coarse):
            members = np.sort(partition.element_ids)
            store = (
                PageStore() if store_factory is None else store_factory(shard_id)
            )
            index = FLATIndex.build(
                store,
                element_mbrs[members],
                space_mbr=partition.partition_mbr,
                page_capacity=page_capacity,
                seed_fanout=seed_fanout,
            )
            shards.append(
                Shard(
                    shard_id=shard_id,
                    mbr=np.asarray(partition.partition_mbr, dtype=np.float64),
                    element_ids=members,
                    index=index,
                    store=store,
                )
            )
        planner = QueryPlanner(np.stack([shard.mbr for shard in shards]))
        return cls(shards, planner, len(element_mbrs))

    def with_views(self) -> "ShardedFLATIndex":
        """A shallow clone where every shard serves from a store view.

        The sharded analogue of :meth:`FLATIndex.with_store`: directories
        and page bytes are shared, caches and I/O counters are private
        to the clone — one clone per serving worker.
        """
        shards = []
        for shard in self.shards:
            view = shard.store.view()
            shards.append(
                Shard(
                    shard_id=shard.shard_id,
                    mbr=shard.mbr,
                    element_ids=shard.element_ids,
                    index=shard.index.with_store(view),
                    store=view,
                )
            )
        return ShardedFLATIndex(
            shards, self.planner, self.element_count, next_id=self._next_id
        )

    # -- updates ---------------------------------------------------------

    def _routing_directory(self) -> dict:
        """``global element id -> shard position``, built on first use.

        Rebuilt from each shard's *live* local ids (its object-page
        directory), never from ``element_ids`` — that array keeps stale
        slots for deleted elements so ``searchsorted`` stays valid, and
        including them here would let already-deleted ids pass delete
        validation after a snapshot/restore round trip.
        """
        if self._element_shard is None:
            routing = {}
            for pos, shard in enumerate(self.shards):
                for local_ids in shard.index.object_page_element_ids.values():
                    for local in local_ids:
                        routing[int(shard.element_ids[int(local)])] = pos
            self._element_shard = routing
        return self._element_shard

    def _route(self, insert_mbrs: np.ndarray, new_ids: np.ndarray,
               delete_ids: np.ndarray) -> tuple:
        """Validate one batch and route it to shards.

        Returns ``(inserts, deletes)``: shard position -> the
        ``(global id, mbr)`` pairs that land there, and shard position
        -> the global ids deleted there.  Deletes are validated before
        anything moves (``KeyError`` names every missing id, duplicates
        raise ``ValueError``).  An insert routes to the shard whose box
        contains its centroid (smallest such box; the closest box for
        outliers), and a box its MBR protrudes from widens in the
        planner first, so pruning stays exact.  The routing directory
        gains the inserted ids and loses the deleted ones, and the id
        watermark passes the inserted ids.
        """
        routing = self._routing_directory()
        if len(delete_ids):
            unique: set = set()
            missing: list = []
            for gid in delete_ids:
                gid = int(gid)
                if gid in unique:
                    raise ValueError(
                        f"duplicate element id {gid} in delete batch"
                    )
                unique.add(gid)
                if gid not in routing:
                    missing.append(gid)
            if missing:
                raise KeyError(f"unknown element ids: {sorted(missing)}")

        per_shard_inserts: dict = {}
        if len(insert_mbrs):
            self._next_id = max(self._next_id, int(new_ids.max()) + 1)
            centers = mbr_center(insert_mbrs)
            boxes = self.planner.shard_mbrs
            for gid, mbr, center in zip(new_ids, insert_mbrs, centers):
                inside = np.flatnonzero(mbr_contains_point(boxes, center))
                if inside.size:
                    pos = int(inside[np.argmin(mbr_volume(boxes[inside]))])
                else:
                    pos = int(np.argmin(mbr_distance_to_point(boxes, center)))
                if not bool(mbr_contains_mbr(boxes[pos], mbr)):
                    self.planner.widen_shard(pos, mbr)
                per_shard_inserts.setdefault(pos, []).append((int(gid), mbr))
                routing[int(gid)] = pos
        per_shard_deletes: dict = {}
        for gid in delete_ids:
            gid = int(gid)
            per_shard_deletes.setdefault(routing.pop(gid), []).append(gid)
        return per_shard_inserts, per_shard_deletes

    def merged(self, insert_ids, insert_mbrs, delete_ids,
               next_id: int) -> "ShardedFLATIndex":
        """This shard set with one batch applied, the touched shards
        bulkloaded afresh: a merge.

        The sharded mirror of :meth:`FLATIndex.merged
        <repro.core.flat_index.FLATIndex.merged>`.  The batch routes
        through :meth:`_route` on a copy of the planner and routing
        directory; each shard that
        gains or loses an element is rebuilt by its index's ``merged``
        (shard-local ids kept, inserts appended to its id map), and
        every other shard is carried over as the same object.  This
        index is left as it is.  *insert_ids* exceed every id of the set
        (a drained delta's come from the watermark), so each shard's id
        map stays sorted and local ``(distance, id)`` tie-breaks agree
        with global ones.
        """
        insert_mbrs = validate_mbrs(np.atleast_2d(insert_mbrs))
        insert_ids = np.atleast_1d(np.asarray(insert_ids, dtype=np.int64))
        if len(insert_ids) != len(insert_mbrs):
            raise ValueError(
                f"insert_ids has {len(insert_ids)} ids for "
                f"{len(insert_mbrs)} elements"
            )
        delete_ids = np.atleast_1d(np.asarray(delete_ids, dtype=np.int64))
        routing = dict(self._routing_directory())
        out = ShardedFLATIndex(list(self.shards), self.planner.copy(),
                               self.element_count, next_id=self._next_id)
        out._element_shard = routing
        per_shard_inserts, per_shard_deletes = out._route(
            insert_mbrs, insert_ids, delete_ids
        )
        for pos in sorted(set(per_shard_inserts) | set(per_shard_deletes)):
            shard = out.shards[pos]
            gids, local_mbrs = _slice(per_shard_inserts.get(pos))
            first = len(shard.element_ids)
            index = shard.index.merged(
                np.arange(first, first + len(gids)),
                local_mbrs,
                np.searchsorted(
                    shard.element_ids,
                    np.asarray(per_shard_deletes.get(pos, []), dtype=np.int64),
                ),
                first + len(gids),
            )
            out.shards[pos] = Shard(
                shard_id=shard.shard_id,
                mbr=out.planner.shard_mbrs[pos],
                element_ids=np.append(shard.element_ids, gids),
                index=index,
                store=index.store,
            )
        out.store = PageStoreGroup([shard.store for shard in out.shards])
        out.element_count += len(insert_ids) - len(delete_ids)
        out._next_id = max(out._next_id, int(next_id))
        return out

    # -- querying --------------------------------------------------------

    def range_query(self, query: np.ndarray) -> np.ndarray:
        """Scatter the box to intersecting shards, gather sorted ids."""
        query = np.asarray(query, dtype=np.float64)
        selected = self.planner.shards_for_box(query)
        plan = QueryPlan(len(self.shards), [int(sid) for sid in selected])
        stats = CrawlStats()
        parts = []
        for sid in selected:
            shard = self.shards[sid]
            local = shard.index.range_query(query)
            _merge_crawl_stats(stats, shard.index.last_crawl_stats)
            if local.size:
                parts.append(shard.to_global(local))
        out = QueryPlanner.merge_sorted_ids(parts)
        stats.result_count = len(out)
        self.last_plan = plan
        self.last_crawl_stats = stats
        return out

    def point_query(self, point: np.ndarray) -> np.ndarray:
        """Element ids whose MBR contains *point* (degenerate range query)."""
        return self.range_query(point_as_box(point))

    def knn_query(
        self, point: np.ndarray, k: int, return_distances: bool = False
    ) -> np.ndarray:
        """The *k* nearest elements across shards, best-first over shards.

        Shards are visited in MINDIST order; each contributes its local
        top k (exact, via FLAT's expanding-radius crawl), and the walk
        stops when the next shard's box is strictly farther than the
        current k-th candidate — it cannot contain anything closer, nor
        an equal-distance element that would win the id tie-break from
        a *strictly* farther box (:meth:`QueryPlanner.knn_walk
        <repro.query.planner.QueryPlanner.knn_walk>`).
        """
        point = np.asarray(point, dtype=np.float64).reshape(3)
        stats = CrawlStats()

        def visit(sid: int, shard_k: int) -> tuple:
            shard = self.shards[sid]
            local, dists = shard.index.knn_query(
                point, shard_k, return_distances=True
            )
            _merge_crawl_stats(stats, shard.index.last_crawl_stats)
            return shard.to_global(local), dists

        best_ids, best_dists, self.last_plan = self.planner.knn_walk(
            point, k, visit
        )
        stats.result_count = len(best_ids)
        self.last_crawl_stats = stats
        if return_distances:
            return best_ids, best_dists
        return best_ids

    # -- persistence -----------------------------------------------------

    @staticmethod
    def shard_directory(root, shard_id: int) -> Path:
        """The snapshot subdirectory of one shard under a sharded root.

        Each shard's directory is a complete, self-describing FLAT
        snapshot (its own ``pages.dat`` and numbered generations) — the
        unit the distributed serving tier ships to replicas and hands
        to shard servers.
        """
        return Path(root) / _shard_dirname(shard_id)

    def snapshot(self, directory, codec="raw") -> Path:
        """Serialize the shard set: manifest + one FLAT snapshot per shard.

        *codec* selects every shard store's physical page codec (see
        :mod:`repro.storage.codec`).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for shard in self.shards:
            snapshot_index(
                shard.index,
                directory / _shard_dirname(shard.shard_id),
                codec=codec,
            )
        self.write_shard_manifest(directory, [0] * len(self.shards))
        return directory

    def write_shard_manifest(self, directory, generations) -> Path:
        """Publish just the root manifest + array bundle into *directory*.

        The per-shard snapshot directories version themselves (numbered
        generations published in place by the write path), but the
        root-level shard boxes, id maps and watermark live here, with
        *generations*: per shard position, the generation of the shard's
        directory those id maps belong to (all 0 at an export).  The
        cluster's rolling update calls this after publishing per-shard
        generations so a fresh :meth:`restore` of the root sees the
        updated shard set; until then the root names the generations it
        named before, so a roll that dies between shards leaves a root
        that still restores its old state.

        Both files go through the store writer's small-file step
        (:func:`~repro.storage.filestore.publish_files`: temp name,
        fsync, rename, directory fsync), bundle first.  The manifest
        records the bundle's CRC-32, so a crash between the two renames
        — a new bundle beside the old manifest — is refused by
        :meth:`restore` instead of pairing new id maps with an old
        watermark.
        """
        directory = Path(directory)
        offsets = np.zeros(len(self.shards) + 1, dtype=np.int64)
        # Offsets over the raw id maps (stale slots included) — the
        # restored arrays must be positionally identical.
        np.cumsum([len(shard.element_ids) for shard in self.shards], out=offsets[1:])
        arrays = io.BytesIO()
        np.savez_compressed(
            arrays,
            shard_mbrs=np.stack([shard.mbr for shard in self.shards]),
            element_offsets=offsets,
            element_ids=np.concatenate(
                [shard.element_ids for shard in self.shards]
            ),
        )
        bundle = arrays.getvalue()
        meta = {
            "format_version": SHARDED_FORMAT_VERSION,
            "index": "ShardedFLAT",
            "shard_count": len(self.shards),
            "element_count": int(self.element_count),
            "next_element_id": int(self._next_id),
            "generations": [int(generation) for generation in generations],
            "bundle_crc32": zlib.crc32(bundle),
        }
        publish_files(directory, {SHARD_ARRAYS_FILENAME: bundle})
        publish_files(directory, {
            SHARD_META_FILENAME: (json.dumps(meta, indent=2) + "\n").encode()
        })
        return directory

    @staticmethod
    def read_meta(directory) -> dict:
        """The root manifest (``shards.json``) of a sharded snapshot."""
        meta_path = Path(directory) / SHARD_META_FILENAME
        if not meta_path.exists():
            raise PageStoreError(f"no sharded-index snapshot in {directory}")
        meta = json.loads(meta_path.read_text())
        if meta.get("format_version") != SHARDED_FORMAT_VERSION:
            raise PageStoreError(
                f"unsupported sharded snapshot format {meta.get('format_version')!r}"
            )
        return meta

    @classmethod
    def restore(cls, directory) -> "ShardedFLATIndex":
        """Reopen a sharded snapshot, every shard over a read-only mmap.

        Each shard restores at the generation the root's manifest names
        for it, the one its id map belongs to — after a cluster roll
        refreshes the root (:meth:`write_shard_manifest`), a restore here
        reproduces the fleet's committed state, and a generation a
        roll published without refreshing the root is not served.  A
        root written before the manifest named generations restores
        each shard's latest.
        """
        directory = Path(directory)
        meta = cls.read_meta(directory)
        bundle = (directory / SHARD_ARRAYS_FILENAME).read_bytes()
        expected = meta.get("bundle_crc32")  # absent in older roots
        if expected is not None and zlib.crc32(bundle) != expected:
            raise SnapshotError(
                f"sharded snapshot {directory}: {SHARD_ARRAYS_FILENAME} does "
                f"not match the checksum in {SHARD_META_FILENAME} (a root "
                "publish died between its two renames)"
            )
        with np.load(io.BytesIO(bundle)) as arrays:
            shard_mbrs = arrays["shard_mbrs"]
            offsets = arrays["element_offsets"]
            element_ids = arrays["element_ids"]

        generations = meta.get("generations")  # absent in older roots
        shards = []
        for shard_id in range(int(meta["shard_count"])):
            index = restore_index(
                directory / _shard_dirname(shard_id),
                generation=None if generations is None else generations[shard_id],
            )
            shards.append(
                Shard(
                    shard_id=shard_id,
                    mbr=shard_mbrs[shard_id],
                    element_ids=element_ids[offsets[shard_id]:offsets[shard_id + 1]],
                    index=index,
                    store=index.store,
                )
            )
        planner = QueryPlanner(shard_mbrs)
        element_count = int(meta["element_count"])
        return cls(
            shards,
            planner,
            element_count,
            next_id=int(meta.get("next_element_id", element_count)),
        )

    def close(self) -> None:
        """Close every shard store's file backend (restored sets)."""
        self.store.close()

    # -- introspection ---------------------------------------------------

    @property
    def next_element_id(self) -> int:
        """The global id watermark (deleted ids are never reused)."""
        return self._next_id

    def contains_elements(self, element_ids) -> np.ndarray:
        """Boolean mask of which global ids are live committed elements.

        Pure in-RAM lookup against the routing directory (built lazily,
        then cached) — see :meth:`FLATIndex.contains_elements`.
        """
        element_ids = np.atleast_1d(np.asarray(element_ids, dtype=np.int64))
        routing = self._routing_directory()
        return np.fromiter(
            (int(gid) in routing for gid in element_ids),
            dtype=bool,
            count=len(element_ids),
        )

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_element_counts(self) -> list:
        """Elements per shard, in shard-id order (balance diagnostics)."""
        return [shard.element_count for shard in self.shards]


def _slice(entries) -> tuple:
    """``(global ids, mbrs)`` arrays of one shard's routed inserts."""
    if not entries:
        return np.empty(0, dtype=np.int64), np.empty((0, 6), dtype=np.float64)
    return (np.array([gid for gid, _mbr in entries], dtype=np.int64),
            np.stack([mbr for _gid, mbr in entries]))


def _merge_crawl_stats(total: CrawlStats, part: CrawlStats | None) -> None:
    """Fold one shard's per-query crawl bookkeeping into the aggregate.

    Sums are taken where shards own disjoint resources (records, pages,
    visited sets); the queue peak is a max because shard crawls run one
    at a time within a single query.
    """
    if part is None:
        return
    total.seeded = total.seeded or part.seeded
    total.records_dequeued += part.records_dequeued
    total.object_pages_read += part.object_pages_read
    total.max_queue_length = max(total.max_queue_length, part.max_queue_length)
    total.visited_bytes += part.visited_bytes

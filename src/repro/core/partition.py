"""Algorithm 1: FLAT's space partitioning.

FLAT segments the entire space into partitions, one disk page per
partition, with two properties required for correct crawling
(Sec. V-B / VI):

1. **No empty space** — the union of all partition boxes covers the
   whole (bounding) space, so neighbor pointers exist across any gap a
   range query could fall into.
2. **Partition MBR encloses page MBR** — each partition box is
   stretched to contain the MBR of the elements stored on its page, so
   a page whose elements protrude beyond its tile can never be missed.

The partitioning itself is STR (Sec. V-A): sort element centers on x,
cut into ``pn = ceil((n/pagesize)^(1/3))`` slabs at midpoints between
adjacent centers; recurse on y within each slab and z within each beam.
Because the cuts are made in *center space* and extended to the space
bounds, the raw tiles form an exact, gap-free tiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.mbr import mbr_center, mbr_union, mbr_union_many, validate_mbrs
from repro.rtree.str_bulk import str_run_sizes


@dataclass
class Partition:
    """One FLAT partition: a disk page worth of elements plus its boxes.

    Attributes
    ----------
    element_ids:
        Indices into the data set of the elements stored on this page.
    page_mbr:
        MBR of the elements on the page (solid boxes in the paper's
        Fig. 6).
    partition_mbr:
        The tile box stretched to enclose ``page_mbr`` (dashed boxes).
    neighbors:
        Partition indices whose partition MBRs intersect this one
        (filled by :mod:`repro.core.neighbors`).
    """

    element_ids: np.ndarray
    page_mbr: np.ndarray
    partition_mbr: np.ndarray
    neighbors: list = field(default_factory=list)


def _cut_points(sorted_values: np.ndarray, run_size: int, lo: float, hi: float):
    """Boundaries of consecutive runs of *run_size* over sorted keys.

    The outer boundaries are the space bounds; interior boundaries fall
    at the midpoint between the adjacent centers of consecutive runs, so
    the resulting intervals tile ``[lo, hi]`` exactly.  Run sizes are
    multiples of the page capacity (canonical STR), so only the last
    run is smaller — the 100 % fill factor of the paper's setup.
    """
    n = len(sorted_values)
    run_size = max(1, run_size)
    sizes = [min(run_size, n - at) for at in range(0, n, run_size)]
    bounds = [lo]
    at = 0
    for size in sizes[:-1]:
        at += size
        bounds.append(0.5 * (sorted_values[at - 1] + sorted_values[at]))
    bounds.append(hi)
    return bounds, sizes


def compute_partitions(
    element_mbrs: np.ndarray,
    page_capacity: int,
    space_mbr: np.ndarray | None = None,
) -> list:
    """Run Algorithm 1's partitioning step (no neighbors yet).

    Returns the partitions in STR tile order — the order in which FLAT
    also packs object pages, preserving spatial locality (Sec. V-B.3).
    """
    element_mbrs = validate_mbrs(element_mbrs)
    if page_capacity <= 0:
        raise ValueError(f"page_capacity must be positive, got {page_capacity}")
    n = len(element_mbrs)
    if n == 0:
        if space_mbr is None:
            raise ValueError("cannot partition an empty data set")
        # No elements but a space to tile: one empty partition covering
        # it, its page MBR a point at the space's lower corner (the box
        # the write path gives an emptied page).
        space_mbr = np.asarray(space_mbr, dtype=np.float64)
        corner = space_mbr[:3]
        return [Partition(element_ids=np.empty(0, dtype=np.int64),
                          page_mbr=np.concatenate([corner, corner]),
                          partition_mbr=space_mbr.copy())]

    if space_mbr is None:
        space_mbr = mbr_union_many(element_mbrs)
    else:
        space_mbr = np.asarray(space_mbr, dtype=np.float64)
        enclosing = mbr_union_many(element_mbrs)
        # The space box must cover the data; otherwise tiles would not.
        space_mbr = mbr_union(space_mbr, enclosing)

    centers = mbr_center(element_mbrs)
    slab_size, beam_size = str_run_sizes(n, page_capacity)

    partitions: list = []

    x_order = np.argsort(centers[:, 0], kind="stable")
    x_bounds, x_sizes = _cut_points(
        centers[x_order, 0], slab_size, float(space_mbr[0]), float(space_mbr[3])
    )
    x_at = 0
    for xi, x_size in enumerate(x_sizes):
        x_slab = x_order[x_at : x_at + x_size]
        x_at += x_size
        y_order = x_slab[np.argsort(centers[x_slab, 1], kind="stable")]
        y_bounds, y_sizes = _cut_points(
            centers[y_order, 1],
            beam_size(len(x_slab)),
            float(space_mbr[1]),
            float(space_mbr[4]),
        )
        y_at = 0
        for yi, y_size in enumerate(y_sizes):
            y_beam = y_order[y_at : y_at + y_size]
            y_at += y_size
            z_order = y_beam[np.argsort(centers[y_beam, 2], kind="stable")]
            z_bounds, z_sizes = _cut_points(
                centers[z_order, 2],
                page_capacity,
                float(space_mbr[2]),
                float(space_mbr[5]),
            )
            z_at = 0
            for zi, z_size in enumerate(z_sizes):
                tile = z_order[z_at : z_at + z_size]
                z_at += z_size
                page_mbr = mbr_union_many(element_mbrs[tile])
                tile_box = np.array(
                    [
                        x_bounds[xi],
                        y_bounds[yi],
                        z_bounds[zi],
                        x_bounds[xi + 1],
                        y_bounds[yi + 1],
                        z_bounds[zi + 1],
                    ]
                )
                # Algorithm 1: "stretch partitionMBR to contain pageMBR".
                partition_mbr = mbr_union(tile_box, page_mbr)
                partitions.append(
                    Partition(
                        element_ids=np.asarray(tile, dtype=np.int64),
                        page_mbr=page_mbr,
                        partition_mbr=partition_mbr,
                    )
                )
    return partitions


def coverage_gaps_exist(partitions: list, space_mbr: np.ndarray, samples: int = 4096,
                        seed: int = 0) -> bool:
    """Monte-Carlo check of the no-empty-space property (test helper).

    Samples random points in the space box and reports whether any point
    falls outside every partition MBR.
    """
    rng = np.random.default_rng(seed)
    space_mbr = np.asarray(space_mbr, dtype=np.float64)
    pts = rng.uniform(space_mbr[:3], space_mbr[3:], size=(samples, 3))
    boxes = np.stack([p.partition_mbr for p in partitions])
    lo_ok = boxes[None, :, :3] <= pts[:, None, :]
    hi_ok = pts[:, None, :] <= boxes[None, :, 3:]
    covered = np.any(np.all(lo_ok & hi_ok, axis=2), axis=1)
    return not bool(covered.all())

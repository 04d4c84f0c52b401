"""Dependent-partitioning operators (Regent's partitioning sublanguage).

These mirror the operators of Treichler et al., *Dependent Partitioning*
(OOPSLA'16), which Regent exposes and the paper relies on (§2.1): ``equal``
and ``block`` partitions, partitions by field, images and preimages of
functions/pointer fields, images under constant grid offsets, set
operations on partitions, and restriction.
Each operator records the statically provable disjointness of its result —
the only property the control replication compiler needs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .index_space import IndexSpace
from .intervals import IntervalSet, expand_ranges, stack_intervals
from .partition import Partition
from .rects import Rect
from .region import PhysicalInstance, Region

__all__ = [
    "partition_equal",
    "partition_block",
    "partition_blocks_nd",
    "partition_by_field",
    "partition_by_image",
    "partition_by_offsets",
    "partition_by_preimage",
    "partition_intersection",
    "partition_difference",
    "partition_union",
    "partition_restrict",
    "partition_from_subsets",
]


def _ncolors(colors: IndexSpace | int) -> int:
    return colors.size if isinstance(colors, IndexSpace) else int(colors)


def _cspace(colors: IndexSpace | int) -> IndexSpace | None:
    return colors if isinstance(colors, IndexSpace) else None


def partition_equal(region: Region, colors: IndexSpace | int,
                    name: str | None = None) -> Partition:
    """Split a region into roughly equal-sized contiguous chunks (disjoint)."""
    n = _ncolors(colors)
    if n <= 0:
        raise ValueError("need at least one color")
    pts = region.index_set
    total = pts.count
    # Chunk by rank within the sorted point order so chunks are contiguous
    # runs of the region's (possibly sparse) point set.
    cuts = [total * c // n for c in range(n + 1)]
    idx = pts.to_indices()
    subsets = [IntervalSet.from_indices(idx[cuts[c]:cuts[c + 1]]) for c in range(n)]
    return Partition(region, subsets, disjoint=True, name=name,
                     color_space=_cspace(colors))


def partition_block(region: Region, colors: IndexSpace | int,
                    name: str | None = None) -> Partition:
    """Block partition of a dense 1D range (paper Fig. 2, ``block``)."""
    n = _ncolors(colors)
    lo, hi = region.index_set.bounds
    if region.index_set.count != hi - lo:
        # Sparse index set: fall back to equal chunking of the point list.
        return partition_equal(region, colors, name=name)
    size = hi - lo
    subsets = [IntervalSet.from_range(lo + size * c // n, lo + size * (c + 1) // n)
               for c in range(n)]
    return Partition(region, subsets, disjoint=True, name=name,
                     color_space=_cspace(colors))


def partition_blocks_nd(region: Region, tiles: Sequence[int],
                        name: str | None = None) -> Partition:
    """Tile a structured region into a grid of rectangular blocks (disjoint).

    ``tiles[d]`` is the number of blocks along dimension ``d``; the color of
    block ``(i0, i1, ...)`` is its row-major linearization.
    """
    ispace = region.ispace
    if ispace.shape is None:
        raise TypeError("partition_blocks_nd requires a structured region")
    shape = ispace.shape
    tiles = tuple(int(t) for t in tiles)
    if len(tiles) != len(shape):
        raise ValueError(f"need one tile count per dimension ({len(shape)}), got {tiles}")
    per_dim = []
    for extent, t in zip(shape, tiles):
        per_dim.append([(extent * c // t, extent * (c + 1) // t) for c in range(t)])
    subsets = []
    for coord in np.ndindex(*tiles):
        lo = tuple(per_dim[d][coord[d]][0] for d in range(len(shape)))
        hi = tuple(per_dim[d][coord[d]][1] for d in range(len(shape)))
        subsets.append(ispace.rect_subset(Rect(lo, hi)))
    return Partition(region, subsets, disjoint=True, name=name)


def partition_by_field(region: Region, colors: IndexSpace | int,
                       instance: PhysicalInstance, field: str,
                       name: str | None = None) -> Partition:
    """Partition by a color field: point ``p`` goes to color ``field[p]``.

    Disjoint by construction (a point has one color).  Points whose color is
    out of range [0, n) are left out of every subregion.
    """
    n = _ncolors(colors)
    pts = region.index_set.to_indices()
    vals = np.asarray(instance.fields[field][instance.localize(pts)], dtype=np.int64)
    subsets = []
    for c in range(n):
        subsets.append(IntervalSet.from_indices(pts[vals == c]))
    return Partition(region, subsets, disjoint=True, name=name,
                     color_space=_cspace(colors))


def _image_values(src_points: np.ndarray,
                  func: Callable[[np.ndarray], np.ndarray] | None,
                  instance: PhysicalInstance | None, field: str | None) -> np.ndarray:
    if func is not None:
        vals = np.asarray(func(src_points), dtype=np.int64)
    else:
        assert instance is not None and field is not None
        vals = np.asarray(instance.fields[field][instance.localize(src_points)], dtype=np.int64)
    return vals.reshape(-1)


def partition_by_image(target: Region, source: Partition,
                       func: Callable[[np.ndarray], np.ndarray] | None = None,
                       instance: PhysicalInstance | None = None,
                       field: str | None = None,
                       name: str | None = None) -> Partition:
    """Image partition (paper Fig. 2, ``image``): color ``i`` holds
    ``{ f(p) | p in source[i] }``.

    ``f`` is given either as a vectorized function over point arrays or as a
    pointer field (possibly with multiple pointers per element, e.g. the two
    endpoints of a wire).  The result is *assumed aliased*: the function is
    unconstrained, so no static disjointness is claimed (paper §2.1).
    """
    if (func is None) == (instance is None or field is None):
        raise ValueError("provide exactly one of func= or (instance=, field=)")
    subsets = []
    for c in source.colors:
        pts = source.subset(c).to_indices()
        if pts.size == 0:
            subsets.append(IntervalSet.empty())
            continue
        vals = _image_values(pts, func, instance, field)
        vals = vals[(vals >= 0) & (vals < target.ispace.size)]
        subsets.append(IntervalSet.from_indices(vals) & target.index_set)
    return Partition(target, subsets, disjoint=False, name=name,
                     color_space=source.color_space)


def partition_by_offsets(target: Region, source: Partition,
                         offsets: Sequence[Sequence[int]] | np.ndarray,
                         name: str | None = None) -> Partition:
    """Image under constant grid offsets: color ``i`` holds ``{ p + d | p in
    source[i], d in offsets, p + d inside the grid in every dimension }``,
    restricted to ``target``'s points.

    This is :func:`partition_by_image` of a stencil's neighbor map (the
    ghost partition of paper §2.1), computed on row runs instead of points:
    each subset's intervals are cut at the row ends of the last dimension,
    every run is moved by every offset (its row by the leading coordinates,
    dropped if that leaves the grid; its ends by the last coordinate,
    clipped to the row), and the moved runs are linearized.  O(row runs x
    offsets), whatever the point count.  Aliased, as an image is.
    """
    shape = target.ispace.shape
    if shape is None or source.parent.ispace.shape != shape:
        raise TypeError("partition_by_offsets requires a target and a source "
                        "over one structured shape")
    offsets = np.asarray(offsets, dtype=np.int64).reshape(len(offsets), len(shape))
    lead, width = np.array(shape[:-1], dtype=np.int64), shape[-1]
    row_strides = np.array([np.prod(shape[d + 1:-1]) for d in range(len(lead))],
                           dtype=np.int64)
    ivals, color = stack_intervals([source.subset(c) for c in source.colors])
    # Row runs: (color, row, first column, column past the end).
    first_row = ivals[:, 0] // width
    nrows = (ivals[:, 1] - 1) // width - first_row + 1
    row = expand_ranges(first_row, nrows)
    k = np.repeat(np.arange(ivals.shape[0]), nrows)
    lo = np.maximum(ivals[k, 0] - row * width, 0)
    hi = np.minimum(ivals[k, 1] - row * width, width)
    # Every run against every offset: (runs, offsets).
    coords = (row[None, :] // row_strides[:, None]) % lead[:, None]
    moved = coords[:, :, None] + offsets[:, :-1].T[:, None, :]
    inside = ((moved >= 0) & (moved < lead[:, None, None])).all(axis=0)
    start = np.clip(lo[:, None] + offsets[:, -1], 0, width)
    stop = np.clip(hi[:, None] + offsets[:, -1], 0, width)
    keep = inside & (start < stop)
    # Linearize under composite keys ``color * span + point``: ``span``
    # exceeds every point, so one normalization merges runs within a color
    # and never across two.
    span = target.ispace.size + 1
    base = (row[:, None] + offsets[:, :-1] @ row_strides) * width
    base += color[k, None] * span
    merged = IntervalSet(np.column_stack((base[keep] + start[keep],
                                          base[keep] + stop[keep]))).intervals
    owner = merged[:, 0] // span
    cuts = np.searchsorted(owner, np.arange(source.num_colors + 1))
    subsets = [IntervalSet._from_normalized(merged[a:b] - c * span)
               & target.index_set
               for c, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))]
    return Partition(target, subsets, disjoint=False, name=name,
                     color_space=source.color_space)


def partition_by_preimage(source: Region, target: Partition,
                          func: Callable[[np.ndarray], np.ndarray] | None = None,
                          instance: PhysicalInstance | None = None,
                          field: str | None = None,
                          name: str | None = None) -> Partition:
    """Preimage partition: color ``i`` holds ``{ p | f(p) in target[i] }``.

    When ``f`` is single-valued and ``target`` is disjoint, the preimage is
    provably disjoint (each point maps to at most one target subregion);
    with a multi-pointer field the result is aliased.
    """
    if (func is None) == (instance is None or field is None):
        raise ValueError("provide exactly one of func= or (instance=, field=)")
    pts = source.index_set.to_indices()
    if func is not None:
        vals = np.asarray(func(pts), dtype=np.int64)
    else:
        assert instance is not None and field is not None
        vals = np.asarray(instance.fields[field][instance.localize(pts)], dtype=np.int64)
    multi = vals.ndim > 1
    vals2d = vals.reshape(pts.shape[0], -1)
    subsets = []
    for c in target.colors:
        tgt = target.subset(c)
        mask = tgt.contains_points(vals2d.reshape(-1)).reshape(vals2d.shape).any(axis=1)
        subsets.append(IntervalSet.from_indices(pts[mask]))
    disjoint = target.disjoint and not multi
    return Partition(source, subsets, disjoint=disjoint, name=name,
                     color_space=target.color_space)


def partition_intersection(a: Partition, b: Partition, name: str | None = None) -> Partition:
    """Pairwise intersection by color: result[i] = a[i] ∩ b[i]."""
    if a.parent.root is not b.parent.root:
        raise ValueError("partitions must be of the same region tree")
    n = max(a.num_colors, b.num_colors)
    subsets = []
    for c in range(n):
        sa = a.subset(c) if c < a.num_colors else IntervalSet.empty()
        sb = b.subset(c) if c < b.num_colors else IntervalSet.empty()
        subsets.append(sa & sb)
    return Partition(a.parent, subsets, disjoint=a.disjoint or b.disjoint, name=name,
                     color_space=a.color_space or b.color_space)


def partition_difference(a: Partition, b: Partition, name: str | None = None) -> Partition:
    """Pairwise difference by color: result[i] = a[i] - b[i]."""
    if a.parent.root is not b.parent.root:
        raise ValueError("partitions must be of the same region tree")
    subsets = [a.subset(c) - (b.subset(c) if c < b.num_colors else IntervalSet.empty())
               for c in a.colors]
    return Partition(a.parent, subsets, disjoint=a.disjoint, name=name,
                     color_space=a.color_space)


def partition_union(a: Partition, b: Partition, name: str | None = None) -> Partition:
    """Pairwise union by color: result[i] = a[i] ∪ b[i] (aliased in general)."""
    if a.parent.root is not b.parent.root:
        raise ValueError("partitions must be of the same region tree")
    n = max(a.num_colors, b.num_colors)
    subsets = []
    for c in range(n):
        sa = a.subset(c) if c < a.num_colors else IntervalSet.empty()
        sb = b.subset(c) if c < b.num_colors else IntervalSet.empty()
        subsets.append(sa | sb)
    return Partition(a.parent, subsets, disjoint=False, name=name,
                     color_space=a.color_space or b.color_space)


def partition_restrict(part: Partition, subregion: Region,
                       name: str | None = None) -> Partition:
    """Restrict each subset of ``part`` to ``subregion``'s points.

    The result is a partition *of* ``subregion`` — the workhorse of the
    hierarchical private/ghost idiom (paper §4.5, e.g. ``PB ∩ all_private``).
    Disjointness is inherited from ``part``.
    """
    if part.parent.root is not subregion.root:
        raise ValueError("partition and subregion must be of the same region tree")
    subsets = [part.subset(c) & subregion.index_set for c in part.colors]
    return Partition(subregion, subsets, disjoint=part.disjoint, name=name,
                     color_space=part.color_space)


def partition_from_subsets(region: Region, subsets: Sequence[IntervalSet],
                           disjoint: bool | None = None,
                           name: str | None = None) -> Partition:
    """Escape hatch: build a partition from explicit subsets.

    With ``disjoint=None`` the disjointness is *computed* dynamically —
    matching Regent's behaviour for arbitrary colorings, which are verified
    rather than assumed.
    """
    p = Partition(region, list(subsets),
                  disjoint=False if disjoint is None else disjoint, name=name)
    if disjoint is None:
        p.disjoint = p.compute_disjoint()
    return p

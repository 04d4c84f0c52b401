"""Dependent-partitioning operators (Regent's partitioning sublanguage).

These mirror the operators of Treichler et al., *Dependent Partitioning*
(OOPSLA'16), which Regent exposes and the paper relies on (§2.1): ``equal``
and ``block`` partitions, partitions by field, images and preimages of
functions/pointer fields, images under constant grid offsets, set
operations on partitions, and restriction.
Each operator records the statically provable disjointness of its result —
the only property the control replication compiler needs — and builds its
:class:`~repro.regions.partition.ColourTable` with no Python step per colour.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .index_space import IndexSpace
from .interval_join import overlap_join
from .intervals import IntervalSet, clip_rows, expand_ranges
from .partition import ColourTable, Partition
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


def _table(region: Region, keys: IntervalSet, n: int) -> ColourTable:
    """The table of ``n`` colours from composite keys over ``region``'s
    tree (the key space :class:`Partition` expects)."""
    return ColourTable.from_keys(keys, n, region.ispace.size + 1)


def partition_equal(region: Region, colors: IndexSpace | int,
                    name: str | None = None) -> Partition:
    """Split a region into roughly equal-sized contiguous chunks (disjoint):
    colour ``c`` holds the points of rank ``total * c // n`` up to
    ``total * (c + 1) // n`` in the region's sorted point order."""
    n = _ncolors(colors)
    if n <= 0:
        raise ValueError("need at least one color")
    ivals = region.index_set.intervals
    upto = np.concatenate(([0], np.cumsum(ivals[:, 1] - ivals[:, 0])))
    cuts = upto[-1] * np.arange(n + 1) // n
    # Each non-empty chunk's rank range clipped to the intervals' ranks.
    colour = np.flatnonzero(cuts[1:] > cuts[:-1])
    row, ranks = clip_rows(np.column_stack((cuts[colour], cuts[colour + 1])),
                           np.column_stack((upto[:-1], upto[1:])))
    k = np.searchsorted(upto, ranks[:, 0], side="right") - 1
    keys = ranks + (ivals[k, 0] - upto[k] + colour[row] * (region.ispace.size + 1))[:, None]
    return Partition(region, _table(region, IntervalSet._from_normalized(keys), n),
                     disjoint=True, name=name, color_space=_cspace(colors))


# Block partition of a dense 1D range (paper Fig. 2, ``block``): colour ``c``
# is ``[lo + size * c // n, lo + size * (c + 1) // n)``, the equal chunks.
partition_block = partition_equal


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
    cuts = [extent * np.arange(t + 1) // t for extent, t in zip(shape, tiles)]
    # Every grid row (leading coordinates) against every block column: a
    # run whose block is the row's block along each leading dimension.
    row = np.arange(math.prod(shape[:-1]))
    coords = np.unravel_index(row, shape[:-1]) if len(shape) > 1 else ()
    tile = [np.searchsorted(c, x, side="right")[:, None] - 1
            for c, x in zip(cuts, coords)]
    colour = np.ravel_multi_index(
        tuple(np.broadcast_arrays(*tile, np.arange(tiles[-1])[None, :])), tiles)
    width = shape[-1]
    key = colour * (ispace.size + 1) + row[:, None] * width
    keys = IntervalSet(np.column_stack(((key + cuts[-1][:-1]).ravel(),
                                        (key + cuts[-1][1:]).ravel())))
    return Partition(region, _table(region, keys, math.prod(tiles)),
                     disjoint=True, name=name)


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
    keep = (vals >= 0) & (vals < n)
    keys = IntervalSet.from_indices(vals[keep] * (region.ispace.size + 1) + pts[keep])
    return Partition(region, _table(region, keys, n), disjoint=True, name=name,
                     color_space=_cspace(colors))


def _image_values(points: np.ndarray,
                  func: Callable[[np.ndarray], np.ndarray] | None,
                  instance: PhysicalInstance | None,
                  field: str | None) -> tuple[np.ndarray, bool]:
    """``f(points)`` as ``(n, k)``, row ``r`` holding the images of
    ``points[r]``, and whether ``f`` gave a row (not one value) per point."""
    if (func is None) == (instance is None or field is None):
        raise ValueError("provide exactly one of func= or (instance=, field=)")
    if func is not None:
        vals = np.asarray(func(points), dtype=np.int64)
    else:
        vals = np.asarray(instance.fields[field][instance.localize(points)],
                          dtype=np.int64)
    if vals.ndim == 0 or vals.shape[0] != points.shape[0]:
        raise ValueError(f"image of {points.shape[0]} points has shape "
                         f"{vals.shape}: need one row per point, (n,) or (n, k)")
    return vals.reshape(vals.shape[0], math.prod(vals.shape[1:])), vals.ndim > 1


def partition_by_image(target: Region, source: Partition,
                       func: Callable[[np.ndarray], np.ndarray] | None = None,
                       instance: PhysicalInstance | None = None,
                       field: str | None = None,
                       name: str | None = None) -> Partition:
    """Image partition (paper Fig. 2, ``image``): color ``i`` holds
    ``{ f(p) | p in source[i] }``, restricted to ``target``'s points.

    ``f`` is given either as a vectorized function over point arrays or as a
    pointer field (possibly with multiple pointers per element, e.g. the two
    endpoints of a wire).  Either way ``f(pts)`` has shape ``(n,)`` or
    ``(n, k)``, row ``r`` holding the images of ``pts[r]``; any other
    length raises ``ValueError``.  ``f`` is called once, on every colour's
    points together.  The result is *assumed aliased*: the function is
    unconstrained, so no static disjointness is claimed (paper §2.1).
    """
    ivals, colour = source.colour_table.rows()
    lengths = ivals[:, 1] - ivals[:, 0]
    pts = expand_ranges(ivals[:, 0], lengths)
    vals, _ = _image_values(pts, func, instance, field)
    colour = np.repeat(np.repeat(colour, lengths), vals.shape[1])
    vals = vals.reshape(-1)
    keep = target.index_set.contains_points(vals)
    keys = IntervalSet.from_indices(colour[keep] * (target.ispace.size + 1)
                                    + vals[keep])
    return Partition(target, _table(target, keys, source.num_colors),
                     disjoint=False, name=name, color_space=source.color_space)


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
    ivals, color = source.colour_table.rows()
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
    # Linearize under the composite keys: one normalization merges runs
    # within a color and never across two; one clip restricts to target.
    base = (row[:, None] + offsets[:, :-1] @ row_strides) * width
    base += color[k, None] * (target.ispace.size + 1)
    merged = IntervalSet(np.column_stack((base[keep] + start[keep],
                                          base[keep] + stop[keep])))
    table = _table(target, merged, source.num_colors).clip(target.index_set)
    return Partition(target, table, disjoint=False, name=name,
                     color_space=source.color_space)


def partition_by_preimage(source: Region, target: Partition,
                          func: Callable[[np.ndarray], np.ndarray] | None = None,
                          instance: PhysicalInstance | None = None,
                          field: str | None = None,
                          name: str | None = None) -> Partition:
    """Preimage partition: color ``i`` holds ``{ p | f(p) in target[i] }``.

    ``f`` follows :func:`partition_by_image`'s contract.  When ``f`` is
    single-valued and ``target`` is disjoint, the preimage is provably
    disjoint (each point maps to at most one target subregion); with a
    multi-pointer field the result is aliased.
    """
    pts = source.index_set.to_indices()
    vals, multi = _image_values(pts, func, instance, field)
    # Every (value, target colour) with the value in that colour: one join
    # of the values as unit intervals against the target's table.
    flat = vals.reshape(-1)
    point = np.repeat(np.arange(pts.size), vals.shape[1])
    i, colour, _, _ = overlap_join(np.column_stack((flat, flat + 1)), point,
                                   *target.colour_table.rows())
    keys = IntervalSet.from_indices(colour * (source.ispace.size + 1) + pts[i])
    return Partition(source, _table(source, keys, target.num_colors),
                     disjoint=target.disjoint and not multi, name=name,
                     color_space=target.color_space)


def _pairwise(a: Partition, b: Partition, op, n: int, disjoint: bool,
              name: str | None, color_space) -> Partition:
    """Colour ``c`` of the result is ``op(a[c], b[c])``: one ``op`` on the
    two tables' keys, which share the tree's key space."""
    if a.parent.root is not b.parent.root:
        raise ValueError("partitions must be of the same region tree")
    keys = op(a.colour_table.stacked, b.colour_table.stacked)
    return Partition(a.parent, _table(a.parent, keys, n), disjoint=disjoint,
                     name=name, color_space=color_space)


def partition_intersection(a: Partition, b: Partition, name: str | None = None) -> Partition:
    """Pairwise intersection by color: result[i] = a[i] ∩ b[i]."""
    return _pairwise(a, b, IntervalSet.intersection, max(a.num_colors, b.num_colors),
                     a.disjoint or b.disjoint, name, a.color_space or b.color_space)


def partition_difference(a: Partition, b: Partition, name: str | None = None) -> Partition:
    """Pairwise difference by color: result[i] = a[i] - b[i]."""
    return _pairwise(a, b, IntervalSet.difference, a.num_colors, a.disjoint,
                     name, a.color_space)


def partition_union(a: Partition, b: Partition, name: str | None = None) -> Partition:
    """Pairwise union by color: result[i] = a[i] ∪ b[i] (aliased in general)."""
    return _pairwise(a, b, IntervalSet.union, max(a.num_colors, b.num_colors),
                     False, name, a.color_space or b.color_space)


def partition_restrict(part: Partition, subregion: Region,
                       name: str | None = None) -> Partition:
    """Restrict each subset of ``part`` to ``subregion``'s points.

    The result is a partition *of* ``subregion`` — the workhorse of the
    hierarchical private/ghost idiom (paper §4.5, e.g. ``PB ∩ all_private``).
    Disjointness is inherited from ``part``.
    """
    if part.parent.root is not subregion.root:
        raise ValueError("partition and subregion must be of the same region tree")
    return Partition(subregion, part.colour_table.clip(subregion.index_set),
                     disjoint=part.disjoint, name=name,
                     color_space=part.color_space)


def partition_from_subsets(region: Region, subsets: Sequence[IntervalSet],
                           disjoint: bool | None = None,
                           name: str | None = None) -> Partition:
    """Escape hatch: build a partition from explicit subsets.

    With ``disjoint=None`` the disjointness is *computed* dynamically —
    matching Regent's behaviour for arbitrary colorings, which are verified
    rather than assumed.
    """
    p = Partition(region, subsets,
                  disjoint=False if disjoint is None else disjoint, name=name)
    if disjoint is None:
        p.disjoint = p.compute_disjoint()
    return p

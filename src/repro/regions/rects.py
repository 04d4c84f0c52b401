"""Dense n-dimensional rectangles and their linearization.

Structured index spaces are rectangular grids whose points are linearized
in C (row-major) order.  A :class:`Rect` is a half-open box ``[lo, hi)`` in
each dimension.  Rectangles are the unit of the structured shallow
intersection test (paper §3.3: "for structured regions, we use a bounding
volume hierarchy").

:func:`row_major_boxes` goes the other way for a 2-D grid: it describes
an ordered array of point ids as the few boxes it is made of, so that a
kernel can move each box with one slice assignment instead of scattering
or gathering every point through an index array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .intervals import IntervalSet

__all__ = ["Rect", "rect_to_intervals", "row_major_boxes"]


@dataclass(frozen=True)
class Rect:
    """A half-open box: ``lo[d] <= x[d] < hi[d]`` for each dimension ``d``."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError(f"rank mismatch: lo={self.lo} hi={self.hi}")
        object.__setattr__(self, "lo", tuple(int(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(int(x) for x in self.hi))

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def empty(self) -> bool:
        return any(h <= l for l, h in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        if self.empty:
            return 0
        v = 1
        for l, h in zip(self.lo, self.hi):
            v *= h - l
        return v

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(max(0, h - l) for l, h in zip(self.lo, self.hi))

    def intersect(self, other: "Rect") -> "Rect":
        if self.dim != other.dim:
            raise ValueError("rank mismatch")
        return Rect(
            tuple(max(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(min(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def overlaps(self, other: "Rect") -> bool:
        return not self.intersect(other).empty

    def contains_point(self, point: Sequence[int]) -> bool:
        return all(l <= p < h for l, p, h in zip(self.lo, point, self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        if other.empty:
            return True
        return all(sl <= ol and oh <= sh for sl, ol, oh, sh in zip(self.lo, other.lo, other.hi, self.hi))

    def union_bounds(self, other: "Rect") -> "Rect":
        """Smallest rect containing both (a bounding box, not a set union)."""
        if self.empty:
            return other
        if other.empty:
            return self
        return Rect(
            tuple(min(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(max(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def iter_points(self) -> Iterator[tuple[int, ...]]:
        if self.empty:
            return
        ranges = [range(l, h) for l, h in zip(self.lo, self.hi)]
        idx = [r.start for r in ranges]
        dim = self.dim
        while True:
            yield tuple(idx)
            d = dim - 1
            while d >= 0:
                idx[d] += 1
                if idx[d] < ranges[d].stop:
                    break
                idx[d] = ranges[d].start
                d -= 1
            if d < 0:
                return

    def __repr__(self) -> str:
        return f"Rect(lo={self.lo}, hi={self.hi})"


def rect_to_intervals(rect: Rect, shape: tuple[int, ...]) -> IntervalSet:
    """Linearize ``rect`` inside a row-major grid of the given ``shape``.

    Every row of the rectangle (all dims fixed except the last) is one
    contiguous run of linear indices.
    """
    if rect.dim != len(shape):
        raise ValueError(f"rect rank {rect.dim} does not match shape rank {len(shape)}")
    clipped = rect.intersect(Rect((0,) * len(shape), tuple(shape)))
    if clipped.empty:
        return IntervalSet.empty()
    if clipped.dim == 1:
        return IntervalSet.from_range(clipped.lo[0], clipped.hi[0])
    strides = np.ones(len(shape), dtype=np.int64)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    # Cartesian product of all leading dims; last dim is a contiguous run.
    lead_ranges = [np.arange(l, h, dtype=np.int64) for l, h in zip(clipped.lo[:-1], clipped.hi[:-1])]
    grids = np.meshgrid(*lead_ranges, indexing="ij") if lead_ranges else []
    base = np.zeros(1, dtype=np.int64) if not grids else sum(
        g.ravel() * strides[d] for d, g in enumerate(grids)
    )
    starts = base + clipped.lo[-1] * strides[-1]
    stops = base + clipped.hi[-1] * strides[-1]
    return IntervalSet(np.column_stack((starts, stops)))


def row_major_boxes(ids: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The boxes an ordered array of row-major point ids is made of.

    ``ids[s]`` is the grid point held at slot ``s`` of some array.  Each
    returned row ``(slot, x, y, h, w)`` says that slots
    ``slot:slot + h*w``, read as an ``h x w`` array, hold grid rows
    ``x:x+h`` and columns ``y:y+w``.  Runs of consecutive ids, cut at row
    ends, are stacked into one box while ``x`` steps by one and ``y`` and
    the width agree.  The boxes cover exactly ``ids`` in slot order, so a
    block of a ``partition_blocks_nd`` partition is one box; in the worst
    case every box is one row.  O(n) numpy plus O(runs).
    """
    if len(shape) != 2:
        raise ValueError(f"row_major_boxes needs a 2-D shape, got {shape}")
    ids = np.asarray(ids, dtype=np.int64)
    if not ids.size:
        return np.zeros((0, 5), dtype=np.int64)
    width = int(shape[1])
    cut = np.empty(ids.size, dtype=bool)
    cut[0] = True
    np.not_equal(ids[1:], ids[:-1] + 1, out=cut[1:])
    cut |= ids % width == 0
    slot = np.flatnonzero(cut)
    run = np.diff(slot, append=ids.size)
    x, y = np.divmod(ids[slot], width)
    new = np.empty(slot.size, dtype=bool)
    new[0] = True
    new[1:] = ((x[1:] != x[:-1] + 1) | (y[1:] != y[:-1])
               | (run[1:] != run[:-1]))
    first = np.flatnonzero(new)
    height = np.diff(first, append=slot.size)
    return np.column_stack((slot[first], x[first], y[first], height,
                            run[first]))

"""Bounding volume hierarchy for structured shallow intersections.

Paper §3.3: "For structured regions, we use a bounding volume hierarchy"
to find which pairs of subregions overlap.  Subregions of a structured
region linearize to many row intervals, so an interval join would handle
one entry per row; a BVH over the subregions' n-dimensional bounding boxes
answers the same which-pairs question with one entry per subregion.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .intervals import IntervalSet
from .rects import Rect, bounding_rect_of_intervals

__all__ = ["BVH", "structured_intersection_pairs"]


class _Node:
    __slots__ = ("rect", "left", "right", "items")

    def __init__(self, rect: Rect, left=None, right=None, items=None):
        self.rect = rect
        self.left = left
        self.right = right
        self.items = items  # leaf payload: list of (rect, label)


class BVH:
    """A median-split BVH over labeled rectangles."""

    LEAF_SIZE = 4

    def __init__(self, rects: Sequence[Rect], labels: Sequence[int] | None = None):
        items = [(r, (labels[i] if labels is not None else i))
                 for i, r in enumerate(rects) if not r.empty]
        self.root = self._build(items) if items else None

    def _build(self, items: list[tuple[Rect, int]]) -> _Node:
        bounds = items[0][0]
        for r, _ in items[1:]:
            bounds = bounds.union_bounds(r)
        if len(items) <= self.LEAF_SIZE:
            return _Node(bounds, items=list(items))
        # Split along the widest axis at the median of box centers.
        extents = bounds.extents
        axis = int(np.argmax(extents))
        items.sort(key=lambda rl: rl[0].lo[axis] + rl[0].hi[axis])
        mid = len(items) // 2
        return _Node(bounds, left=self._build(items[:mid]), right=self._build(items[mid:]))

    def query(self, rect: Rect) -> list[int]:
        """Labels of all rectangles whose boxes overlap ``rect``."""
        if self.root is None or rect.empty:
            return []
        out: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.rect.overlaps(rect):
                continue
            if node.items is not None:
                out.extend(label for r, label in node.items if r.overlaps(rect))
            else:
                stack.append(node.left)
                stack.append(node.right)
        return out


def structured_intersection_pairs(a_sets: Sequence[IntervalSet],
                                  b_sets: Sequence[IntervalSet],
                                  shape: tuple[int, ...]) -> list[tuple[int, int]]:
    """Candidate overlap pairs via bounding boxes in grid coordinates.

    This is the *shallow* phase: bounding boxes may overlap even when the
    exact point sets do not, so callers must follow with the complete
    (exact) intersection; the paper's pipeline does exactly that.
    """
    a_rects = [bounding_rect_of_intervals(s, shape) for s in a_sets]
    b_rects = [bounding_rect_of_intervals(s, shape) for s in b_sets]
    if not any(not r.empty for r in a_rects) or not any(not r.empty for r in b_rects):
        return []
    if len(a_rects) <= len(b_rects):
        tree = BVH(a_rects)
        pairs = {(i, j) for j, rb in enumerate(b_rects) for i in tree.query(rb)}
    else:
        tree = BVH(b_rects)
        pairs = {(i, j) for i, ra in enumerate(a_rects) for j in tree.query(ra)}
    return sorted(pairs)

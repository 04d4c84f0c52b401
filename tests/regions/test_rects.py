"""Tests for rectangles and their linearization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.regions import (
    IntervalSet,
    Rect,
    ispace,
    partition_blocks_nd,
    rect_to_intervals,
    region,
    row_major_boxes,
)


class TestRect:
    def test_basic(self):
        r = Rect((0, 0), (2, 3))
        assert r.dim == 2 and r.volume == 6 and not r.empty
        assert r.extents == (2, 3)

    def test_empty(self):
        assert Rect((0, 0), (0, 3)).empty
        assert Rect((5,), (3,)).volume == 0

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            Rect((0,), (1, 2))

    def test_intersect(self):
        a = Rect((0, 0), (4, 4))
        b = Rect((2, 2), (6, 6))
        assert a.intersect(b) == Rect((2, 2), (4, 4))
        assert a.overlaps(b)
        assert not a.overlaps(Rect((4, 0), (5, 5)))  # half-open: no overlap

    def test_contains(self):
        r = Rect((1, 1), (4, 4))
        assert r.contains_point((1, 3)) and not r.contains_point((4, 3))
        assert r.contains_rect(Rect((2, 2), (3, 3)))
        assert r.contains_rect(Rect((2, 2), (2, 2)))  # empty always contained
        assert not r.contains_rect(Rect((0, 0), (2, 2)))

    def test_union_bounds(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((3, 3), (4, 4))
        assert a.union_bounds(b) == Rect((0, 0), (4, 4))
        assert Rect((1, 1), (1, 1)).union_bounds(b) == b

    def test_iter_points(self):
        pts = list(Rect((0, 0), (2, 2)).iter_points())
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert list(Rect((0,), (0,)).iter_points()) == []


class TestLinearization:
    def test_1d(self):
        got = rect_to_intervals(Rect((2,), (5,)), (10,))
        assert got == IntervalSet.from_range(2, 5)

    def test_2d_rows(self):
        got = rect_to_intervals(Rect((1, 1), (3, 3)), (4, 4))
        # rows 1 and 2, columns 1..2 -> linear {5,6, 9,10}
        assert got.to_indices().tolist() == [5, 6, 9, 10]

    def test_clips_to_shape(self):
        got = rect_to_intervals(Rect((-5, -5), (1, 10)), (4, 4))
        assert got == IntervalSet.from_range(0, 4)

    def test_3d_matches_numpy(self):
        shape = (3, 4, 5)
        r = Rect((1, 0, 2), (3, 3, 5))
        got = rect_to_intervals(r, shape).to_indices()
        grid = np.zeros(shape, dtype=bool)
        grid[1:3, 0:3, 2:5] = True
        assert got.tolist() == np.flatnonzero(grid.ravel()).tolist()

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            rect_to_intervals(Rect((0,), (1,)), (4, 4))


def expand_boxes(boxes, shape):
    """The ids the boxes say each slot holds, in slot order; checks that
    the boxes tile the slots ``0..n`` in order and lie in the grid."""
    out, end = [], 0
    for s, x, y, h, w in boxes.tolist():
        assert s == end and h >= 1 and w >= 1
        assert 0 <= x and x + h <= shape[0] and 0 <= y and y + w <= shape[1]
        rows = np.arange(x, x + h)[:, None] * shape[1]
        out.append((rows + np.arange(y, y + w)).ravel())
        end = s + h * w
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64), end


@st.composite
def rect_unions(draw):
    """``(ids, shape)``: a union of random rectangles on a random grid,
    its points in one of three slot orders: sorted, rectangle by
    rectangle in random order, or shuffled."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    taken = np.zeros(shape, dtype=bool)
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        x0 = draw(st.integers(0, shape[0] - 1))
        y0 = draw(st.integers(0, shape[1] - 1))
        x1 = draw(st.integers(x0 + 1, shape[0]))
        y1 = draw(st.integers(y0 + 1, shape[1]))
        box = np.zeros(shape, dtype=bool)
        box[x0:x1, y0:y1] = True
        parts.append(np.flatnonzero(box & ~taken))
        taken |= box
    order = draw(st.sampled_from(["sorted", "by_rect", "shuffled"]))
    if order == "sorted":
        ids = np.flatnonzero(taken)
    else:
        parts = draw(st.permutations(parts))
        ids = (np.concatenate(parts) if parts
               else np.zeros(0, dtype=np.int64))
        if order == "shuffled":
            ids = np.array(draw(st.permutations(ids.tolist())),
                           dtype=np.int64)
    return ids, shape


class TestRowMajorBoxes:
    @given(rect_unions())
    def test_boxes_cover_the_points_in_slot_order(self, case):
        ids, shape = case
        boxes = row_major_boxes(ids, shape)
        got, end = expand_boxes(boxes, shape)
        assert end == ids.size
        assert got.tolist() == ids.tolist()

    @given(st.integers(1, 9), st.integers(1, 9), st.data())
    def test_full_width_runs_wrap_into_at_most_three_boxes(self, h, w, data):
        # One run of consecutive ids that wraps rows: a partial first row,
        # the full rows between (stacked), a partial last row.
        start = data.draw(st.integers(0, h * w - 1))
        stop = data.draw(st.integers(start + 1, h * w))
        ids = np.arange(start, stop)
        boxes = row_major_boxes(ids, (h, w))
        assert expand_boxes(boxes, (h, w))[0].tolist() == ids.tolist()
        assert len(boxes) <= 3
        if start % w == 0 and stop % w == 0:
            assert boxes.tolist() == [[0, start // w, 0, (stop - start) // w,
                                       w]]

    def test_single_point_and_empty(self):
        assert row_major_boxes(np.array([7]), (3, 4)).tolist() == [
            [0, 1, 3, 1, 1]]
        empty = row_major_boxes(np.zeros(0, dtype=np.int64), (3, 4))
        assert empty.shape == (0, 5)

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            row_major_boxes(np.arange(3), (3,))

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4),
           st.integers(1, 4), st.data())
    def test_block_colours_are_one_box_each(self, h, w, gx, gy, data):
        # A colour of a block partition is one box; a shard's run of
        # consecutive colours is one box per colour once blocks are two
        # rows tall (a single column of blocks stacks into one box, and
        # one-row blocks side by side make one run).
        gx, gy = min(gx, h), min(gy, w)
        part = partition_blocks_nd(region(ispace(shape=(h, w)), {"v": float}),
                                   (gx, gy))
        points = [part[c].index_set.to_indices() for c in part.colors]
        for pts in points:
            assert len(row_major_boxes(pts, (h, w))) == 1
        lo = data.draw(st.integers(0, len(points) - 1))
        hi = data.draw(st.integers(lo + 1, len(points)))
        ids = np.concatenate(points[lo:hi])
        boxes = row_major_boxes(ids, (h, w))
        assert expand_boxes(boxes, (h, w))[0].tolist() == ids.tolist()
        if gy == 1:
            assert len(boxes) == 1
        elif h // gx >= 2:
            assert len(boxes) == hi - lo
        else:
            assert len(boxes) <= hi - lo

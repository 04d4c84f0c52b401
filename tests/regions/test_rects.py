"""Tests for rectangles and their linearization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.regions import IntervalSet, Rect, bounding_rect_of_intervals, rect_to_intervals


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

    def test_bounding_rect_roundtrip(self):
        shape = (6, 7)
        r = Rect((2, 1), (5, 6))
        ivals = rect_to_intervals(r, shape)
        assert bounding_rect_of_intervals(ivals, shape) == r

    def test_bounding_rect_empty(self):
        br = bounding_rect_of_intervals(IntervalSet.empty(), (4, 4))
        assert br.empty

    @given(st.tuples(st.integers(1, 6), st.integers(1, 6)),
           st.data())
    def test_bounding_rect_contains_all_points(self, shape, data):
        lo = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        hi = tuple(data.draw(st.integers(l + 1, s)) for l, s in zip(lo, shape))
        r = Rect(lo, hi)
        ivals = rect_to_intervals(r, shape)
        br = bounding_rect_of_intervals(ivals, shape)
        for p in ivals.to_indices():
            assert br.contains_point(np.unravel_index(p, shape))

    def test_bounding_rect_of_run_crossing_a_row(self):
        # {2..5} on 4x4 is (0, 2), (0, 3), (1, 0), (1, 1): the box of the two
        # end points alone would be [0, 2) x [1, 3) and miss two of them.
        br = bounding_rect_of_intervals(IntervalSet.from_range(2, 6), (4, 4))
        assert br == Rect((0, 0), (2, 4))

    @given(st.sampled_from([(7,), (4, 4), (3, 4, 5), (2, 3, 2, 3)]), st.data())
    def test_bounding_rect_is_tight_for_arbitrary_runs(self, shape, data):
        # Linearized runs that are no rectangle's rows: the box must be the
        # exact per-dimension extent of the points, in any rank.
        size = int(np.prod(shape))
        runs = data.draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(1, size)),
                                  min_size=1, max_size=3))
        ivals = IntervalSet([(s, min(s + n, size)) for s, n in runs])
        coords = np.array(np.unravel_index(ivals.to_indices(), shape))
        br = bounding_rect_of_intervals(ivals, shape)
        assert br.lo == tuple(coords.min(axis=1).tolist())
        assert br.hi == tuple((coords.max(axis=1) + 1).tolist())

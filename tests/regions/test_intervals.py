"""Unit and property tests for the interval-set algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions import IntervalSet


def iset(*idx):
    return IntervalSet.from_indices(list(idx))


class TestConstruction:
    def test_empty(self):
        s = IntervalSet.empty()
        assert len(s) == 0 and not s
        assert s.to_indices().size == 0
        assert s.num_intervals == 0

    def test_from_range(self):
        s = IntervalSet.from_range(3, 7)
        assert list(s) == [3, 4, 5, 6]
        assert s.num_intervals == 1

    def test_from_empty_range(self):
        assert IntervalSet.from_range(5, 5).count == 0
        assert IntervalSet.from_range(7, 3).count == 0

    def test_from_indices_coalesces(self):
        s = iset(1, 2, 3, 5, 6, 9)
        assert s.num_intervals == 3
        assert s.count == 6

    def test_from_indices_dedupes(self):
        assert iset(4, 4, 4, 5).count == 2

    def test_overlapping_pairs_normalize(self):
        s = IntervalSet([(0, 5), (3, 8), (8, 10)])
        assert s.num_intervals == 1
        assert s == IntervalSet.from_range(0, 10)

    def test_adjacent_intervals_merge(self):
        s = IntervalSet([(0, 3), (3, 6)])
        assert s.num_intervals == 1

    def test_empty_pairs_dropped(self):
        s = IntervalSet([(5, 5), (9, 3)])
        assert not s

    def test_bounds(self):
        assert iset(2, 9).bounds == (2, 10)
        assert IntervalSet.empty().bounds == (0, 0)


class TestQueries:
    def test_contains(self):
        s = iset(1, 2, 3, 7)
        assert 2 in s and 7 in s
        assert 0 not in s and 4 not in s and 8 not in s

    def test_contains_points_vectorized(self):
        s = iset(1, 2, 3, 7)
        got = s.contains_points(np.array([0, 1, 3, 4, 7, 100]))
        assert got.tolist() == [False, True, True, False, True, False]

    def test_to_indices_roundtrip(self):
        idx = [0, 1, 5, 6, 7, 42]
        assert IntervalSet.from_indices(idx).to_indices().tolist() == idx

    def test_iter(self):
        assert list(iset(3, 1, 2)) == [1, 2, 3]

    def test_repr_small_and_large(self):
        assert "[1, 4)" in repr(iset(1, 2, 3))
        many = IntervalSet.from_indices(list(range(0, 100, 2)))
        assert "intervals" in repr(many)


class TestAlgebra:
    def test_union(self):
        assert (iset(1, 2) | iset(2, 3)) == iset(1, 2, 3)

    def test_intersection(self):
        assert (iset(1, 2, 3, 8) & iset(2, 3, 4, 8)) == iset(2, 3, 8)

    def test_difference(self):
        assert (iset(1, 2, 3, 8) - iset(2, 8)) == iset(1, 3)

    def test_disjoint_union_count(self):
        a, b = iset(1, 2), iset(5, 6)
        assert (a | b).count == 4

    def test_intersects_early_out(self):
        a = IntervalSet.from_range(0, 10)
        assert a.intersects(iset(9))
        assert not a.intersects(iset(10, 11))

    def test_intersection_count(self):
        a = IntervalSet.from_range(0, 100)
        b = IntervalSet.from_indices([5, 50, 99, 150])
        assert a.intersection_count(b) == 3

    def test_issubset(self):
        assert iset(2, 3).issubset(IntervalSet.from_range(0, 5))
        assert not iset(2, 7).issubset(IntervalSet.from_range(0, 5))

    def test_isdisjoint(self):
        assert iset(1).isdisjoint(iset(2))
        assert not iset(1, 2).isdisjoint(iset(2, 3))

    def test_shift(self):
        assert iset(1, 2).shift(10) == iset(11, 12)
        assert IntervalSet.empty().shift(5) == IntervalSet.empty()

    def test_eq_hash(self):
        assert iset(1, 2) == iset(1, 2)
        assert hash(iset(1, 2)) == hash(IntervalSet.from_range(1, 3))
        assert iset(1) != iset(2)
        assert iset(1) != "not a set"


points = st.lists(st.integers(min_value=0, max_value=200), max_size=40)
# (start, length) runs, possibly overlapping one another.
runs = st.lists(st.tuples(st.integers(0, 300), st.integers(1, 100)), max_size=8)


def as_set(run_list):
    """The IntervalSet of some runs and the same points as a Python set."""
    pts = set().union(*(range(s, s + n) for s, n in run_list))
    return IntervalSet([(s, s + n) for s, n in run_list]), pts


class TestProperties:
    @given(points, points)
    def test_union_matches_sets(self, a, b):
        got = IntervalSet.from_indices(a) | IntervalSet.from_indices(b)
        assert got.to_indices().tolist() == sorted(set(a) | set(b))

    @given(points, points)
    def test_intersection_matches_sets(self, a, b):
        got = IntervalSet.from_indices(a) & IntervalSet.from_indices(b)
        assert got.to_indices().tolist() == sorted(set(a) & set(b))

    @given(points, points)
    def test_difference_matches_sets(self, a, b):
        got = IntervalSet.from_indices(a) - IntervalSet.from_indices(b)
        assert got.to_indices().tolist() == sorted(set(a) - set(b))

    @given(points, points)
    def test_intersects_consistent(self, a, b):
        sa, sb = IntervalSet.from_indices(a), IntervalSet.from_indices(b)
        assert sa.intersects(sb) == bool(set(a) & set(b))
        assert sa.intersection_count(sb) == len(set(a) & set(b))
        assert sa.isdisjoint(sb) == set(a).isdisjoint(b)
        assert sa.issubset(sb) == set(a).issubset(b)
        assert (sa | sb).issubset(sb) == set(a).issubset(b)

    @given(runs, runs)
    def test_algebra_on_long_intervals(self, a, b):
        # Few long runs instead of many short ones: one interval of either
        # side can span several of the other's.
        (sa, pa), (sb, pb) = as_set(a), as_set(b)
        assert (sa & sb).to_indices().tolist() == sorted(pa & pb)
        assert (sa - sb).to_indices().tolist() == sorted(pa - pb)
        assert sa.intersection_count(sb) == len(pa & pb)
        assert sa.issubset(sb) == pa.issubset(pb)
        assert sa.isdisjoint(sb) == pa.isdisjoint(pb)
        for s in (sa & sb, sa - sb):
            iv = s.intervals  # still normal: sorted, non-empty, non-adjacent
            assert (iv[:, 0] < iv[:, 1]).all() and (iv[:-1, 1] < iv[1:, 0]).all()

    @given(runs, st.lists(st.integers(-10, 420), max_size=30))
    def test_below_is_the_rank_function(self, a, xs):
        s, pts = as_set(a)
        want = [sum(1 for p in pts if p < x) for x in xs]
        assert s.below(np.array(xs, dtype=np.int64)).tolist() == want
        assert s.below(s.to_indices()).tolist() == list(range(s.count))

    @given(st.lists(points, max_size=8))
    def test_union_all_matches_sets(self, lists):
        got = IntervalSet.union_all([IntervalSet.from_indices(l) for l in lists])
        assert got.to_indices().tolist() == sorted(set().union(*lists))
        chained = IntervalSet.empty()
        for l in lists:
            chained = chained | IntervalSet.from_indices(l)
        assert got == chained

    @given(st.lists(st.integers(0, 60), max_size=80),
           st.sampled_from([1, 3, 40, 10_000]), st.booleans())
    def test_from_indices_paths_agree(self, raw, stride, presorted):
        # stride 1/3 -> dense input (byte-mask path), 40/10000 -> sparse
        # (sort path); raw repeats values and is unsorted unless presorted.
        idx = np.array(sorted(raw) if presorted else raw, dtype=np.int64) * stride
        got = IntervalSet.from_indices(idx)
        uniq = np.unique(idx)
        assert got.to_indices().tolist() == uniq.tolist()
        assert got.count == uniq.size
        assert got == IntervalSet([(p, p + 1) for p in uniq.tolist()])
        assert got == IntervalSet.from_indices(idx.tolist())

    @given(points)
    def test_normalization_invariants(self, a):
        s = IntervalSet.from_indices(a)
        iv = s.intervals
        # Intervals sorted, non-empty, non-adjacent.
        assert all(iv[i, 0] < iv[i, 1] for i in range(iv.shape[0]))
        assert all(iv[i, 1] < iv[i + 1, 0] for i in range(iv.shape[0] - 1))

    @given(points, points)
    def test_demorgan_via_difference(self, a, b):
        u = IntervalSet.from_range(0, 201)
        sa, sb = IntervalSet.from_indices(a), IntervalSet.from_indices(b)
        lhs = u - (sa | sb)
        rhs = (u - sa) & (u - sb)
        assert lhs == rhs


class TestMoreEdgeCases:
    def test_negative_points(self):
        s = IntervalSet([(-5, -2), (-1, 3)])
        assert s.count == 7
        assert -3 in s and -6 not in s
        assert s.shift(5).bounds == (0, 8)

    def test_large_sparse_merge(self):
        import numpy as np
        a = IntervalSet.from_indices(np.arange(0, 10_000, 2))
        b = IntervalSet.from_indices(np.arange(1, 10_000, 2))
        assert (a | b) == IntervalSet.from_range(0, 9_999 + 1)
        assert (a & b).count == 0

    def test_intersection_count_no_materialization(self):
        a = IntervalSet.from_range(0, 1_000_000)
        b = IntervalSet.from_range(500_000, 1_500_000)
        assert a.intersection_count(b) == 500_000

    def test_difference_splits_interval(self):
        a = IntervalSet.from_range(0, 10)
        b = IntervalSet.from_indices([3, 4, 7])
        got = a - b
        assert got.num_intervals == 3
        assert got.to_indices().tolist() == [0, 1, 2, 5, 6, 8, 9]


class TestExpandRanges:
    @given(st.lists(st.tuples(st.integers(-10**6, 10**6),
                              st.sampled_from([0, 1, 3, 700, 5000])),
                    max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_equals_concatenated_aranges(self, ranges):
        # Empty ranges anywhere, and ranges far apart in either direction.
        from repro.regions.intervals import expand_ranges
        lo = np.array([r[0] for r in ranges], dtype=np.int64)
        counts = np.array([r[1] for r in ranges], dtype=np.int64)
        got = expand_ranges(lo, counts)
        want = np.concatenate([np.arange(a, a + n, dtype=np.int64)
                               for a, n in zip(lo.tolist(), counts.tolist())]
                              + [np.zeros(0, dtype=np.int64)])
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

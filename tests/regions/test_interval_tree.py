"""Tests for shallow intersection pairs and their interval-tree oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions import IntervalSet, shallow_intersection_pairs
from repro.regions.partition import ColourTable

from tests.interval_tree_oracle import IntervalTree


def pairs(a_sets, b_sets):
    return shallow_intersection_pairs(ColourTable(a_sets), ColourTable(b_sets))


def brute_pairs(a_sets, b_sets):
    return sorted((i, j) for i in range(len(a_sets)) for j in range(len(b_sets))
                  if a_sets[i].intersects(b_sets[j]))


class TestIntervalTree:
    def test_empty_tree(self):
        t = IntervalTree.from_interval_sets([])
        assert t.query(0, 100).size == 0

    def test_single_interval(self):
        t = IntervalTree.from_interval_sets([IntervalSet.from_range(5, 10)])
        assert t.query(7, 8).tolist() == [0]
        assert t.query(10, 12).size == 0  # half-open
        assert t.query(0, 5).size == 0

    def test_query_set(self):
        sets = [IntervalSet.from_range(0, 4), IntervalSet.from_range(10, 14),
                IntervalSet.from_indices([6, 20])]
        t = IntervalTree.from_interval_sets(sets)
        hits = t.query_set(IntervalSet.from_indices([3, 6, 11]))
        assert hits.tolist() == [0, 1, 2]
        assert t.query_set(IntervalSet.empty()).size == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            IntervalTree(np.array([0]), np.array([1, 2]), np.array([0]))

    def test_duplicate_labels_ok(self):
        s = IntervalSet.from_indices([0, 2, 4])  # three intervals, one label
        t = IntervalTree.from_interval_sets([s])
        assert set(t.query(0, 5).tolist()) == {0}

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 10)),
                    min_size=1, max_size=30),
           st.integers(0, 60), st.integers(1, 10))
    @settings(max_examples=60)
    def test_query_matches_bruteforce(self, intervals, qlo, qlen):
        starts = np.array([s for s, _ in intervals])
        stops = np.array([s + l for s, l in intervals])
        labels = np.arange(len(intervals))
        t = IntervalTree(starts, stops, labels)
        got = sorted(set(t.query(qlo, qlo + qlen).tolist()))
        want = sorted(i for i, (s, l) in enumerate(intervals)
                      if s < qlo + qlen and s + l > qlo)
        assert got == want


class TestShallowPairs:
    def test_empty_sides(self):
        assert pairs([], [IntervalSet.from_range(0, 2)]) == []
        assert pairs([IntervalSet.empty()], [IntervalSet.empty()]) == []

    def test_block_vs_halo(self):
        blocks = [IntervalSet.from_range(i * 10, (i + 1) * 10) for i in range(4)]
        halos = [IntervalSet.from_range(max(0, i * 10 - 2), min(40, (i + 1) * 10 + 2))
                 for i in range(4)]
        assert pairs(blocks, halos) == brute_pairs(blocks, halos)

    @given(st.lists(st.lists(st.integers(0, 80), max_size=12), min_size=1, max_size=8),
           st.lists(st.lists(st.integers(0, 80), max_size=12), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_matches_bruteforce(self, a_lists, b_lists):
        a_sets = [IntervalSet.from_indices(l) for l in a_lists]
        b_sets = [IntervalSet.from_indices(l) for l in b_lists]
        assert pairs(a_sets, b_sets) == brute_pairs(a_sets, b_sets)

    def test_asymmetric_sizes_use_smaller_tree(self):
        # Exercise both branches of the size heuristic.
        a = [IntervalSet.from_range(0, 5)]
        b = [IntervalSet.from_indices([i]) for i in range(20)]
        assert pairs(a, b) == brute_pairs(a, b)
        assert pairs(b, a) == brute_pairs(b, a)

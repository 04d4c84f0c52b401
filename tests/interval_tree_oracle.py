"""Static augmented interval tree: the oracle for the overlap join.

Paper §3.3: shallow intersections determine *which* pairs of subregions
overlap without computing the overlap extent.  This recursive tree with a
Python-stack query answered that in ``src/`` until the array-at-a-time join
of :mod:`repro.regions.interval_join` replaced it; it is kept here, as it
was, so the tests can hold the join to the same answers.

The tree here is the classic array-based construction: intervals sorted by
start form an implicit balanced BST; each node is augmented with the
maximum stop in its subtree, which prunes whole subtrees whose intervals
all end before the query begins.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.regions import IntervalSet

__all__ = ["IntervalTree", "tree_intersection_pairs"]


class IntervalTree:
    """Overlap queries over a fixed collection of labeled intervals."""

    def __init__(self, starts: np.ndarray, stops: np.ndarray, labels: np.ndarray):
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if not (starts.shape == stops.shape == labels.shape):
            raise ValueError("starts/stops/labels must have equal length")
        order = np.argsort(starts, kind="stable")
        self.starts = starts[order]
        self.stops = stops[order]
        self.labels = labels[order]
        self.n = self.starts.shape[0]
        # max_stop[i] = max stop over the implicit BST subtree rooted at the
        # midpoint of segment [lo, hi) containing i; computed recursively.
        self.max_stop = np.zeros(self.n, dtype=np.int64)
        self._build(0, self.n)

    @classmethod
    def from_interval_sets(cls, sets: Sequence[IntervalSet]) -> "IntervalTree":
        """Build from one label per interval set (the set's index)."""
        chunks_s, chunks_e, chunks_l = [], [], []
        for label, s in enumerate(sets):
            iv = s.intervals
            if iv.shape[0]:
                chunks_s.append(iv[:, 0])
                chunks_e.append(iv[:, 1])
                chunks_l.append(np.full(iv.shape[0], label, dtype=np.int64))
        if not chunks_s:
            return cls(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
        return cls(np.concatenate(chunks_s), np.concatenate(chunks_e), np.concatenate(chunks_l))

    def _build(self, lo: int, hi: int) -> int:
        if lo >= hi:
            return -1
        mid = (lo + hi) // 2
        m = self.stops[mid]
        left = self._build(lo, mid)
        right = self._build(mid + 1, hi)
        if left >= 0:
            m = max(m, self.max_stop[(lo + mid) // 2])
        if right >= 0:
            m = max(m, self.max_stop[(mid + 1 + hi) // 2])
        self.max_stop[mid] = m
        return mid

    def query(self, qstart: int, qstop: int) -> np.ndarray:
        """Labels of all intervals overlapping ``[qstart, qstop)`` (with dups)."""
        out: list[int] = []
        stack = [(0, self.n)]
        while stack:
            lo, hi = stack.pop()
            if lo >= hi:
                continue
            mid = (lo + hi) // 2
            if self.max_stop[mid] <= qstart:
                continue  # nothing in this subtree ends after the query start
            # Left subtree can always contain overlaps (starts are smaller).
            stack.append((lo, mid))
            if self.starts[mid] < qstop:
                if self.stops[mid] > qstart:
                    out.append(int(self.labels[mid]))
                stack.append((mid + 1, hi))
            # else: this node and the whole right subtree start >= qstop.
        return np.asarray(out, dtype=np.int64)

    def query_set(self, s: IntervalSet) -> np.ndarray:
        """Unique labels of intervals overlapping any interval of ``s``."""
        if self.n == 0 or not s:
            return np.empty(0, dtype=np.int64)
        hits = [self.query(int(lo), int(hi)) for lo, hi in s.intervals]
        return np.unique(np.concatenate(hits)) if hits else np.empty(0, dtype=np.int64)


def tree_intersection_pairs(a_sets: Sequence[IntervalSet],
                            b_sets: Sequence[IntervalSet]) -> list[tuple[int, int]]:
    """All pairs ``(i, j)`` with ``a_sets[i] ∩ b_sets[j] != ∅``.

    Builds an interval tree over the smaller side and queries with the
    larger, so the cost is ``O((Na + Nb) log N)`` for bounded-overlap
    inputs rather than the all-pairs product.
    """
    na = sum(s.num_intervals for s in a_sets)
    nb = sum(s.num_intervals for s in b_sets)
    pairs: set[tuple[int, int]] = set()
    if na == 0 or nb == 0:
        return []
    if na <= nb:
        tree = IntervalTree.from_interval_sets(a_sets)
        for j, s in enumerate(b_sets):
            for i in tree.query_set(s):
                pairs.add((int(i), j))
    else:
        tree = IntervalTree.from_interval_sets(b_sets)
        for i, s in enumerate(a_sets):
            for j in tree.query_set(s):
                pairs.add((i, int(j)))
    return sorted(pairs)

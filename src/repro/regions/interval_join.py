"""Overlap join of two families of interval sets (paper §3.3).

Both intersection phases of an unstructured region are read off one join:
stack each side's intervals with the label of the set they belong to, sort
by start, and enumerate the overlapping interval pairs.  *Shallow*
intersections — which pairs of subregions overlap — are the distinct label
pairs of the join; *complete* intersections — the exact shared elements —
are its rows clipped and grouped by label pair.

The join is output-sensitive.  An interval pair ``(q, t)`` overlaps in
exactly one of two ways: ``t`` starts inside ``q`` (``q.start <= t.start <
q.stop``), or ``q`` starts strictly inside ``t``.  With both sides sorted by
start, each way is a contiguous index range per interval, found with two
``searchsorted`` calls and expanded without a Python loop — so the cost is
``O((Na + Nb) log N + K)`` for ``K`` overlapping interval pairs, and one very
long interval costs its own overlaps, never a scan of the other side.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Sequence

import numpy as np

from .intervals import IntervalSet, expand_ranges, stack_intervals
from .partition import ColourTable

__all__ = ["PairTable", "overlap_join", "exact_intersections",
           "shallow_intersection_pairs"]


def overlap_join(a: np.ndarray, ai: np.ndarray, b: np.ndarray, bj: np.ndarray):
    """Every overlapping (row of ``a``, row of ``b``): ``a`` and ``b`` are
    ``(k, 2)`` tables of ``[start, stop)`` rows, ``ai`` and ``bj`` the
    label of each row (a partition's :meth:`ColourTable.rows`).

    Returns ``(i, j, a_rows, b_rows)``, one entry per overlapping row
    pair: the two labels and the two rows.
    """
    order = np.argsort(a[:, 0])
    a, ai = a[order], ai[order]
    order = np.argsort(b[:, 0])
    b, bj = b[order], bj[order]
    # b intervals that start inside each a interval ...
    lo = np.searchsorted(b[:, 0], a[:, 0], side="left")
    n = np.searchsorted(b[:, 0], a[:, 1], side="left") - lo
    q1, t1 = np.repeat(np.arange(a.shape[0]), n), expand_ranges(lo, n)
    # ... and a intervals that start strictly inside each b interval.
    lo = np.searchsorted(a[:, 0], b[:, 0], side="right")
    n = np.searchsorted(a[:, 0], b[:, 1], side="left") - lo
    q2, t2 = expand_ranges(lo, n), np.repeat(np.arange(b.shape[0]), n)
    q, t = np.concatenate((q1, q2)), np.concatenate((t1, t2))
    return ai[q], bj[t], a[q], b[t]


def shallow_intersection_pairs(a: ColourTable, b: ColourTable) -> list[tuple[int, int]]:
    """All colour pairs ``(i, j)`` with ``a``'s ``i`` ∩ ``b``'s ``j`` != ∅, sorted."""
    i, j, _, _ = overlap_join(*a.rows(), *b.rows())
    nb = b.num_colours
    return [divmod(key, nb) for key in np.unique(i * nb + j).tolist()]


class PairTable(Mapping):
    """The non-empty intersections ``a_sets[i] ∩ b_sets[j]`` of a join, as
    columns: pair ``p`` is ``(src[p], dst[p])``, the pairs sorted by
    ``(src, dst)``, and its points are the disjoint sorted intervals
    ``intervals[offsets[p]:offsets[p + 1]]``.

    A read-only ``Mapping`` from ``(i, j)`` to that
    :class:`~repro.regions.intervals.IntervalSet`, built on lookup; the
    runtime reads the columns.  Sorted by source colour, so the pairs of
    a block of source colours are one slice (:meth:`src_range`); the
    pairs into a block of destination colours are one slice of the
    destination order (:meth:`dst_range`).
    """

    __slots__ = ("src", "dst", "offsets", "intervals", "_by_dst")

    def __init__(self, src: np.ndarray, dst: np.ndarray, offsets: np.ndarray,
                 intervals: np.ndarray):
        self.src = src
        self.dst = dst
        self.offsets = offsets
        self.intervals = intervals
        self._by_dst = None

    @classmethod
    def from_mapping(cls, pairs: Mapping) -> "PairTable":
        """The table of ``{(i, j): IntervalSet}``; empty sets are dropped."""
        keys = sorted(k for k, pts in pairs.items() if pts)
        sets = [pairs[k] for k in keys]
        ivals, _ = stack_intervals(sets)
        ij = np.array(keys, dtype=np.int64).reshape(-1, 2)
        offsets = np.cumsum([0] + [s.num_intervals for s in sets],
                            dtype=np.int64)
        return cls(ij[:, 0].copy(), ij[:, 1].copy(), offsets,
                   ivals.astype(np.int64).reshape(-1, 2))

    @classmethod
    def concat(cls, tables: Sequence["PairTable"]) -> "PairTable":
        """The tables one after another (each one's pairs after the
        previous one's, which keeps the order sorted when their source
        colours are)."""
        if len(tables) == 1:
            return tables[0]
        shift = np.cumsum([0] + [t.intervals.shape[0] for t in tables[:-1]])
        return cls(np.concatenate([t.src for t in tables]),
                   np.concatenate([t.dst for t in tables]),
                   np.concatenate([[0]] + [t.offsets[1:] + s for t, s in
                                           zip(tables, shift)]),
                   np.concatenate([t.intervals for t in tables]))

    # -- columns ---------------------------------------------------------
    @property
    def nrows(self) -> np.ndarray:
        """Per pair, its number of intervals."""
        return np.diff(self.offsets)

    @property
    def count(self) -> int:
        """Points in all pairs together."""
        return int((self.intervals[:, 1] - self.intervals[:, 0]).sum())

    def select(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(nrows, intervals)`` of the pairs ``idx``: each one's row
        count and all their rows, in that order."""
        first = self.offsets[idx]
        nrows = self.offsets[idx + 1] - first
        return nrows, self.intervals[expand_ranges(first, nrows)]

    def src_range(self, lo: int, hi: int) -> np.ndarray:
        """The pairs whose source colour is in ``[lo, hi)``, in order."""
        a, b = np.searchsorted(self.src, (lo, hi))
        return np.arange(a, b)

    def dst_range(self, lo: int, hi: int) -> np.ndarray:
        """The pairs whose destination colour is in ``[lo, hi)``, in
        order (one slice of the destination order, built once)."""
        if self._by_dst is None:
            order = np.argsort(self.dst, kind="stable")
            self._by_dst = (order, self.dst[order])
        order, ranked = self._by_dst
        a, b = np.searchsorted(ranked, (lo, hi))
        return np.sort(order[a:b])

    # -- Mapping view ------------------------------------------------------
    def __len__(self) -> int:
        return self.src.size

    def __iter__(self):
        return zip(self.src.tolist(), self.dst.tolist())

    def __getitem__(self, key) -> IntervalSet:
        i, j = key
        a, b = np.searchsorted(self.src, (i, i + 1))
        p = a + int(np.searchsorted(self.dst[a:b], j))
        if p == b or self.dst[p] != j:
            raise KeyError(key)
        return IntervalSet._from_normalized(
            self.intervals[self.offsets[p]:self.offsets[p + 1]])


def exact_intersections(i: np.ndarray, j: np.ndarray, a_rows: np.ndarray,
                        b_rows: np.ndarray) -> PairTable:
    """The :class:`PairTable` of ``a_sets[i] ∩ b_sets[j]`` from (a
    selection of) the rows of :func:`overlap_join`; only non-empty
    intersections have rows."""
    lo = np.maximum(a_rows[:, 0], b_rows[:, 0])
    hi = np.minimum(a_rows[:, 1], b_rows[:, 1])
    order = np.lexsort((lo, j, i))
    i, j = i[order], j[order]
    # The clip of two normal sets is normal once sorted by start, so each
    # (i, j) group of rows is an interval table as it stands.
    pieces = np.column_stack((lo[order], hi[order])).astype(np.int64,
                                                           copy=False)
    first = np.flatnonzero(np.concatenate(
        ([i.size > 0], (i[1:] != i[:-1]) | (j[1:] != j[:-1]))))
    offsets = np.append(first, i.size).astype(np.int64)
    return PairTable(i[first].astype(np.int64, copy=False),
                     j[first].astype(np.int64, copy=False), offsets,
                     pieces.reshape(-1, 2))

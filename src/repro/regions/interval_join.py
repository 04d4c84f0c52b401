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

from typing import Sequence

import numpy as np

from .intervals import IntervalSet, expand_ranges, stack_intervals

__all__ = ["overlap_join", "exact_intersections", "shallow_intersection_pairs"]


def overlap_join(a_sets: Sequence[IntervalSet], b_sets: Sequence[IntervalSet]):
    """Every overlapping (interval of ``a_sets[i]``, interval of ``b_sets[j]``).

    Returns ``(i, j, a_rows, b_rows)``, one entry per overlapping interval
    pair: the two set labels and the two ``[start, stop)`` intervals.
    """
    a, ai = stack_intervals(a_sets)
    b, bj = stack_intervals(b_sets)
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


def shallow_intersection_pairs(a_sets: Sequence[IntervalSet],
                               b_sets: Sequence[IntervalSet]) -> list[tuple[int, int]]:
    """All pairs ``(i, j)`` with ``a_sets[i] ∩ b_sets[j] != ∅``, sorted."""
    i, j, _, _ = overlap_join(a_sets, b_sets)
    nb = len(b_sets)
    return [divmod(key, nb) for key in np.unique(i * nb + j).tolist()]


def exact_intersections(i: np.ndarray, j: np.ndarray, a_rows: np.ndarray,
                        b_rows: np.ndarray) -> dict[tuple[int, int], IntervalSet]:
    """``{(i, j): a_sets[i] ∩ b_sets[j]}`` from (a selection of) the rows of
    :func:`overlap_join`; only non-empty intersections have rows."""
    if i.size == 0:
        return {}
    lo = np.maximum(a_rows[:, 0], b_rows[:, 0])
    hi = np.minimum(a_rows[:, 1], b_rows[:, 1])
    order = np.lexsort((lo, j, i))
    i, j = i[order], j[order]
    # The clip of two normal sets is normal once sorted by start, so each
    # (i, j) group of rows is an interval table as it stands.
    pieces = np.column_stack((lo[order], hi[order]))
    first = np.flatnonzero(np.concatenate(
        ([True], (i[1:] != i[:-1]) | (j[1:] != j[:-1]))))
    counts = np.add.reduceat(pieces[:, 1] - pieces[:, 0], first)
    stop = first[1:].tolist() + [i.size]
    return {(ci, cj): IntervalSet._from_normalized(pieces[s:e], n)
            for ci, cj, s, e, n in zip(i[first].tolist(), j[first].tolist(),
                                       first.tolist(), stop, counts.tolist())}

"""Interval-set algebra over integer points.

An :class:`IntervalSet` is the canonical representation of a set of
(linearized) index points: a sorted array of disjoint half-open intervals
``[start, stop)``.  All region index sets, partition colors, and dynamic
intersection results are interval sets.  The representation is compact for
the contiguous blocks produced by ``block``/``equal`` partitioning and
degrades gracefully (one interval per point) for arbitrary image sets.

Every set operation and query is array-at-a-time: there is no Python step
per interval.  Two primitives carry the algebra — the rank function
:meth:`IntervalSet.below` (prefix sum of interval lengths plus one
``searchsorted``) for counting and containment, and :func:`expand_ranges`
for enumerating index ranges without a per-range ``arange``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["IntervalSet", "clip_rows", "expand_ranges", "sorted_distinct",
           "stack_intervals"]


def expand_ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lo[k], lo[k] + counts[k])`` over all ``k``,
    built in the output alone: a range's first slot holds the step from the
    previous range's last point, every other slot 1, and one cumsum."""
    keep = counts > 0
    lo, counts = lo[keep], counts[keep]
    ends = np.cumsum(counts)
    out = np.ones(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    out[ends[:-1]] = lo[1:] - lo[:-1] - counts[:-1] + 1
    out[:1] = lo[:1]
    return np.cumsum(out, out=out)


def sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, sorted: one sort and one comparison.
    Plain ``np.unique`` would do, but its first call imports ``numpy.ma``
    (it asks ``np.ma.is_masked``), which a run has no other use for."""
    x = np.sort(np.ravel(x))
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def stack_intervals(sets: Sequence["IntervalSet"]) -> tuple[np.ndarray, np.ndarray]:
    """All intervals of ``sets`` as one ``(k, 2)`` table, plus the position
    in ``sets`` each row came from."""
    if not sets:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    labels = np.repeat(np.arange(len(sets)), [s.num_intervals for s in sets])
    return np.concatenate([s.intervals for s in sets]), labels


def clip_rows(rows: np.ndarray, ivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every non-empty ``[start, stop)`` row of ``rows``, in any order,
    clipped to the normal intervals ``ivals``: per piece the row it came
    from, and the pieces, in row order (within a row, in ``ivals`` order)."""
    lo = np.searchsorted(ivals[:, 1], rows[:, 0], side="right")
    counts = np.searchsorted(ivals[:, 0], rows[:, 1], side="left") - lo
    row = np.repeat(np.arange(rows.shape[0]), counts)
    k = expand_ranges(lo, counts)
    return row, np.column_stack((np.maximum(rows[row, 0], ivals[k, 0]),
                                 np.minimum(rows[row, 1], ivals[k, 1])))


def _normalize_pairs(pairs: np.ndarray) -> np.ndarray:
    """Sort, drop empty intervals, and merge adjacent/overlapping ones."""
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    pairs = pairs[pairs[:, 1] > pairs[:, 0]]
    if pairs.shape[0] == 0:
        return pairs.reshape(0, 2)
    order = np.argsort(pairs[:, 0], kind="stable")
    pairs = pairs[order]
    # Coalesce: an interval starts a new run iff its start exceeds the
    # running maximum stop of everything before it.
    stops = np.maximum.accumulate(pairs[:, 1])
    new_run = np.empty(pairs.shape[0], dtype=bool)
    new_run[0] = True
    new_run[1:] = pairs[1:, 0] > stops[:-1]
    run_ids = np.cumsum(new_run) - 1
    nruns = run_ids[-1] + 1
    out = np.empty((nruns, 2), dtype=np.int64)
    out[:, 0] = pairs[new_run, 0]
    # Last element of each run in `stops` is the run's stop.
    last_of_run = np.empty(pairs.shape[0], dtype=bool)
    last_of_run[:-1] = new_run[1:]
    last_of_run[-1] = True
    out[:, 1] = stops[last_of_run]
    return out


class IntervalSet:
    """An immutable set of int64 points stored as disjoint sorted intervals."""

    __slots__ = ("_ivals", "_count", "_rank")

    def __init__(self, pairs: np.ndarray | Sequence[tuple[int, int]] = ()):
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self._ivals = _normalize_pairs(arr)
        self._ivals.setflags(write=False)
        self._count = int((self._ivals[:, 1] - self._ivals[:, 0]).sum())
        self._rank = None  # prefix tables of below(), built on first use

    # -- constructors -----------------------------------------------------
    @classmethod
    def empty(cls) -> "IntervalSet":
        return _EMPTY

    @classmethod
    def from_range(cls, start: int, stop: int) -> "IntervalSet":
        if stop <= start:
            return _EMPTY
        return cls(np.array([[start, stop]], dtype=np.int64))

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "IntervalSet":
        idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices),
                         dtype=np.int64).reshape(-1)
        if idx.size == 0:
            return _EMPTY
        lo, hi = int(idx.min()), int(idx.max())
        if hi - lo <= 4 * idx.size:
            # Dense: mark the points in a byte mask (zero-padded at both
            # ends) and read the runs off its edges — no sort at all.
            mask = np.zeros(hi - lo + 3, dtype=bool)
            mask[idx - (lo - 1)] = True
            edges = np.flatnonzero(mask[1:] != mask[:-1]) + lo
            return cls._from_normalized(edges.reshape(-1, 2))
        if np.any(idx[1:] < idx[:-1]):
            idx = np.sort(idx)
        # Duplicates have difference 0 and so never break a run.
        breaks = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate((idx[:1], idx[breaks + 1]))
        stops = np.concatenate((idx[breaks], idx[-1:])) + 1
        return cls._from_normalized(np.column_stack((starts, stops)))

    @classmethod
    def union_all(cls, sets: Iterable["IntervalSet"]) -> "IntervalSet":
        """Union of any number of sets: one concatenate, one normalize."""
        sets = [s for s in sets if s._count]
        if len(sets) <= 1:
            return sets[0] if sets else _EMPTY
        return cls(np.concatenate([s._ivals for s in sets]))

    @classmethod
    def _from_normalized(cls, ivals: np.ndarray, count: int | None = None) -> "IntervalSet":
        out = cls.__new__(cls)
        ivals = np.ascontiguousarray(ivals, dtype=np.int64)
        ivals.setflags(write=False)
        out._ivals = ivals
        out._count = int((ivals[:, 1] - ivals[:, 0]).sum()) if count is None else count
        out._rank = None
        return out

    # -- basic queries -----------------------------------------------------
    @property
    def intervals(self) -> np.ndarray:
        """The ``(k, 2)`` array of disjoint sorted ``[start, stop)`` pairs."""
        return self._ivals

    @property
    def count(self) -> int:
        """Number of points in the set."""
        return self._count

    @property
    def num_intervals(self) -> int:
        return self._ivals.shape[0]

    @property
    def bounds(self) -> tuple[int, int]:
        """Smallest half-open range covering the set; ``(0, 0)`` if empty."""
        if self._count == 0:
            return (0, 0)
        return (int(self._ivals[0, 0]), int(self._ivals[-1, 1]))

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self._ivals:
            yield from range(int(lo), int(hi))

    def __contains__(self, point: int) -> bool:
        i = np.searchsorted(self._ivals[:, 0], point, side="right") - 1
        return i >= 0 and point < self._ivals[i, 1]

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership test; returns a boolean array."""
        points = np.asarray(points, dtype=np.int64)
        if self._count == 0:
            return np.zeros(points.shape, dtype=bool)
        i = np.searchsorted(self._ivals[:, 0], points, side="right") - 1
        ok = i >= 0
        stops = np.where(ok, self._ivals[np.maximum(i, 0), 1], 0)
        return ok & (points < stops)

    def to_indices(self) -> np.ndarray:
        """Materialize the set as a sorted int64 point array."""
        return expand_ranges(self._ivals[:, 0], self._ivals[:, 1] - self._ivals[:, 0])

    def below(self, x: np.ndarray | int) -> np.ndarray:
        """Rank function: how many points of the set are ``< x`` (vectorized).

        For a point of the set this is its position in :meth:`to_indices`.
        """
        return self.locate(x)[0]

    def locate(self, x: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`below` of ``x`` and whether ``x`` is in the set, at one
        ``searchsorted``."""
        if self._rank is None:
            # upto[n]: points in the first n intervals; before[n]: where the
            # n-th of them stops (a far-off sentinel for "none of them").
            lengths = self._ivals[:, 1] - self._ivals[:, 0]
            self._rank = (np.concatenate(([0], np.cumsum(lengths))),
                          np.concatenate(([_FAR_BELOW], self._ivals[:, 1])))
        upto, before = self._rank
        n = np.searchsorted(self._ivals[:, 0], x, side="right")  # intervals starting <= x
        stop = before[n]
        # All of the first n intervals, less what the last of them holds
        # at or above x; x is in the set iff that last one stops above it.
        return upto[n] - np.maximum(stop - x, 0), stop > x

    # -- set algebra ---------------------------------------------------------
    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not self:
            return other
        if not other:
            return self
        return IntervalSet(np.concatenate((self._ivals, other._ivals)))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self._ivals, other._ivals
        if self._bounds_miss(other):
            return _EMPTY
        if a.shape[0] > b.shape[0]:
            a, b = b, a
        # Clipping two normal sets pair by pair, in a-then-b order, yields
        # sorted, disjoint, non-adjacent pieces: already normal.
        _, pieces = clip_rows(a, b)
        return IntervalSet._from_normalized(pieces) if pieces.size else _EMPTY

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        if self._bounds_miss(other):
            return self
        # Intersect with the complement of ``other`` over the joint bounds:
        # the gaps before, between and after its intervals.
        b = other._ivals
        lo, hi = min(self._ivals[0, 0], b[0, 0]), max(self._ivals[-1, 1], b[-1, 1])
        gaps = np.column_stack((np.concatenate(([lo], b[:, 1])), np.concatenate((b[:, 0], [hi]))))
        return self.intersection(IntervalSet._from_normalized(gaps[gaps[:, 0] < gaps[:, 1]]))

    def _bounds_miss(self, other: "IntervalSet") -> bool:
        """Quick reject: an operand is empty or the bounding ranges miss."""
        a, b = self._ivals, other._ivals
        return (self._count == 0 or other._count == 0
                or a[0, 0] >= b[-1, 1] or b[0, 0] >= a[-1, 1])

    def intersection_count(self, other: "IntervalSet") -> int:
        """Number of shared points, without materializing the intersection."""
        if self._bounds_miss(other):
            return 0
        rank = other.below(self._ivals)  # of every start and every stop
        return int((rank[:, 1] - rank[:, 0]).sum())

    def intersects(self, other: "IntervalSet") -> bool:
        """True iff the two sets share at least one point."""
        return self.intersection_count(other) > 0

    def issubset(self, other: "IntervalSet") -> bool:
        return self.intersection_count(other) == self._count

    def isdisjoint(self, other: "IntervalSet") -> bool:
        return self.intersection_count(other) == 0

    def shift(self, offset: int) -> "IntervalSet":
        if self._count == 0:
            return self
        return IntervalSet._from_normalized(self._ivals + np.int64(offset))

    # -- dunder --------------------------------------------------------------
    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivals.shape == other._ivals.shape and bool(np.all(self._ivals == other._ivals))

    def __hash__(self) -> int:
        return hash(self._ivals.tobytes())

    def __repr__(self) -> str:
        if self.num_intervals <= 4:
            body = ", ".join(f"[{lo}, {hi})" for lo, hi in self._ivals)
        else:
            body = f"{self.num_intervals} intervals, bounds [{self.bounds[0]}, {self.bounds[1]})"
        return f"IntervalSet({body}; n={self._count})"


_FAR_BELOW = np.iinfo(np.int64).min // 2  # minus any point: no overflow
_EMPTY = IntervalSet._from_normalized(np.empty((0, 2), dtype=np.int64))

"""Partitions: named families of subregions.

A partition maps colors ``0..n-1`` to subregions of a parent region.  As in
Regent, partitions need not be mathematical partitions: subregions may
overlap (*aliased*) and need not cover the parent (*incomplete*).  The
``disjoint`` flag records what is *statically provable* from the operator
that built the partition — the property the control replication analysis
consumes (paper §2.1): ``block``/``equal``/``by_field`` partitions are
disjoint, ``image`` partitions are assumed aliased because the image
function is unconstrained.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

import numpy as np

from .index_space import IndexSpace
from .intervals import IntervalSet, stack_intervals
from .region import Region

__all__ = ["ColourTable", "Partition"]

_counter = itertools.count()


class ColourTable:
    """All colours' subsets of a partition stacked as one interval set
    over composite keys ``colour * span + (point - base)``, with the
    volume prefix of the colours.

    ``span`` exceeds every coordinate's distance from ``base``, so no
    colour's keys reach the next colour's.  A point's rank in ``stacked``
    is then its slot in its colour's instance plus ``prefix[colour]``:
    one :meth:`~repro.regions.intervals.IntervalSet.below` places rows of
    any colours at once.  Colour ``c``'s intervals are the stacked rows
    ``row_offsets[c]:row_offsets[c + 1]`` (:meth:`intervals`).
    """

    __slots__ = ("stacked", "base", "span", "prefix", "row_offsets")

    def __init__(self, subsets: Sequence[IntervalSet]):
        ivals, colour = stack_intervals(subsets)
        self.base = int(ivals.min()) if ivals.size else 0
        self.span = (int(ivals.max()) - self.base + 1) if ivals.size else 1
        self.stacked = IntervalSet._from_normalized(
            np.reshape(ivals - self.base + (colour * self.span)[:, None],
                       (-1, 2)))
        self.prefix = np.cumsum([0] + [s.count for s in subsets],
                                dtype=np.int64)
        self.row_offsets = np.cumsum([0] + [s.num_intervals for s in subsets],
                                     dtype=np.int64)

    def intervals(self, lo: int, hi: int) -> np.ndarray:
        """The intervals of colours ``lo .. hi - 1``, in colour order."""
        rows = self.row_offsets[lo:hi + 1]
        colour = np.repeat(np.arange(lo, hi), np.diff(rows))
        return (self.stacked.intervals[rows[0]:rows[-1]] + self.base
                - (colour * self.span)[:, None])

    def ranks(self, colours: np.ndarray, ivals: np.ndarray) -> np.ndarray:
        """Per row ``ivals[k]`` of colour ``colours[k]``: the rank of its
        first point among all stacked points.  Every row must lie in its
        colour's subset."""
        if ivals.size and (ivals.min() < self.base
                           or ivals.max() >= self.base + self.span):
            raise IndexError("points outside the partition")
        rank = self.stacked.below(ivals - self.base
                                  + (colours * self.span)[:, None])
        if np.any(rank[:, 1] - rank[:, 0] != ivals[:, 1] - ivals[:, 0]):
            raise IndexError("points not covered by their colour")
        return rank[:, 0]


class Partition:
    """A family of subregions of ``parent`` indexed by color."""

    def __init__(self, parent: Region, subsets: Sequence[IntervalSet] | Mapping[int, IntervalSet],
                 disjoint: bool, name: str | None = None,
                 color_space: IndexSpace | None = None):
        self.uid = next(_counter)
        self.parent = parent
        if isinstance(subsets, Mapping):
            n = (max(subsets) + 1) if subsets else 0
            self._subsets = [subsets.get(i, IntervalSet.empty()) for i in range(n)]
        else:
            self._subsets = list(subsets)
        # One containment evaluation for the whole family: an interval lies
        # in the parent iff the parent has as many points in it as it spans.
        ivals, owner = stack_intervals(self._subsets)
        rank = parent.index_set.below(ivals)
        outside = np.flatnonzero(rank[:, 1] - rank[:, 0] != ivals[:, 1] - ivals[:, 0])
        if outside.size:
            raise ValueError(f"subset {owner[outside[0]]} is not contained in "
                             f"parent region {parent.name}")
        self.disjoint = bool(disjoint)
        self.name = name or f"partition{self.uid}"
        self.color_space = color_space
        self._subregions: dict[int, Region] = {}
        self._colour_table: ColourTable | None = None
        parent.partitions.append(self)

    # -- queries -------------------------------------------------------------
    @property
    def num_colors(self) -> int:
        return len(self._subsets)

    @property
    def colors(self) -> range:
        return range(len(self._subsets))

    def subset(self, color: int) -> IntervalSet:
        return self._subsets[color]

    @property
    def colour_table(self) -> ColourTable:
        """The :class:`ColourTable` of the subsets, built on first use."""
        if self._colour_table is None:
            self._colour_table = ColourTable(self._subsets)
        return self._colour_table

    def __getitem__(self, color: int) -> Region:
        """The subregion for ``color`` (created lazily, cached)."""
        color = int(color)
        if color not in self._subregions:
            if not 0 <= color < len(self._subsets):
                raise IndexError(f"color {color} out of range for {self.name}")
            self._subregions[color] = Region(
                self.parent.ispace, self.parent.fspace,
                index_set=self._subsets[color],
                parent_partition=self, color=color)
        return self._subregions[color]

    def __iter__(self) -> Iterator[Region]:
        for c in self.colors:
            yield self[c]

    def __len__(self) -> int:
        return len(self._subsets)

    # -- verification ----------------------------------------------------------
    def compute_disjoint(self) -> bool:
        """Actual (dynamic) disjointness: total point count equals union count."""
        return sum(s.count for s in self._subsets) == self.union_of_subsets().count

    def compute_complete(self) -> bool:
        """True iff the subregions cover the parent region exactly."""
        return self.union_of_subsets() == self.parent.index_set

    def union_of_subsets(self) -> IntervalSet:
        return IntervalSet.union_all(self._subsets)

    def __repr__(self) -> str:
        kind = "disjoint" if self.disjoint else "aliased"
        return f"Partition({self.name}, {self.num_colors} colors, {kind}, of {self.parent.name})"

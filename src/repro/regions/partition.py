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

__all__ = ["Partition"]

_counter = itertools.count()


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

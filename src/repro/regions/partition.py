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
from .intervals import IntervalSet, clip_rows, expand_ranges, stack_intervals
from .region import Region

__all__ = ["ColourTable", "Partition"]

_counter = itertools.count()


class ColourTable:
    """All colours' subsets as one immutable interval set over composite
    keys ``colour * span + (point - base)``, with CSR row offsets per
    colour and the colours' volume prefix.  ``span`` exceeds every point's
    distance from ``base`` by at least one, so normalizing keys never
    merges two colours, and a point's rank in ``stacked`` is its slot in
    its colour's instance plus ``prefix[colour]``.  A partition's table
    keys its region tree (``base`` 0, ``span`` the index space size plus
    one), so the tables of one tree combine key for key."""

    __slots__ = ("stacked", "base", "span", "prefix", "row_offsets", "num_colours")

    def __init__(self, subsets: Sequence[IntervalSet], base: int | None = None,
                 span: int | None = None):
        ivals, colour = stack_intervals(subsets)
        base = (int(ivals.min()) if ivals.size else 0) if base is None else base
        span = (int(ivals.max()) - base + 1 if ivals.size else 1) if span is None else span
        keys = np.reshape(ivals - base + (colour * span)[:, None], (-1, 2))
        self._fill(IntervalSet._from_normalized(keys), base, span,
                   np.searchsorted(colour, np.arange(len(subsets) + 1)))

    @classmethod
    def from_keys(cls, keys: IntervalSet, num_colours: int, span: int,
                  base: int = 0) -> "ColourTable":
        """The table of normal composite ``keys`` of colours below ``num_colours``."""
        out = cls.__new__(cls)
        out._fill(keys, base, span, np.searchsorted(
            keys.intervals[:, 0], np.arange(num_colours + 1) * span))
        return out

    def _fill(self, stacked: IntervalSet, base: int, span: int,
              row_offsets: np.ndarray) -> None:
        self.stacked, self.base, self.span = stacked, base, span
        self.row_offsets = row_offsets.astype(np.int64, copy=False)
        ivals = stacked.intervals
        self.prefix = np.concatenate(([0], np.cumsum(ivals[:, 1] - ivals[:, 0])))[
            self.row_offsets]
        self.num_colours = self.row_offsets.size - 1

    def rows(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The intervals of colours ``lo .. hi - 1`` (all by default), in
        colour order, and per row its colour."""
        rows = self.row_offsets[lo:(self.num_colours if hi is None else hi) + 1]
        colour = np.repeat(np.arange(lo, lo + rows.size - 1), np.diff(rows))
        return (self.stacked.intervals[rows[0]:rows[-1]] + self.base
                - (colour * self.span)[:, None]), colour

    def take(self, colours) -> "ColourTable":
        """The table whose colour ``k`` is this one's ``colours[k]`` (empty
        where that is out of range): one gather of rows."""
        colours = np.asarray(colours, dtype=np.int64).reshape(-1)
        valid = (colours >= 0) & (colours < self.num_colours)
        old = np.where(valid, colours, 0)
        first = self.row_offsets[old]
        nrows = np.where(valid, self.row_offsets[old + 1] - first, 0)
        shift = np.repeat((np.arange(colours.size) - old) * self.span, nrows)
        out = ColourTable.__new__(ColourTable)
        out._fill(IntervalSet._from_normalized(
            self.stacked.intervals[expand_ranges(first, nrows)] + shift[:, None]),
            self.base, self.span, np.concatenate(([0], np.cumsum(nrows))))
        return out

    def clip(self, points: IntervalSet) -> "ColourTable":
        """Every colour's subset intersected with ``points``: one clip of
        the rows."""
        ivals, colour = self.rows()
        row, pieces = clip_rows(ivals, points.intervals)
        keys = pieces + (colour[row] * self.span - self.base)[:, None]
        return ColourTable.from_keys(IntervalSet._from_normalized(keys),
                                     self.num_colours, self.span, self.base)

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
    """A family of subregions of ``parent`` indexed by color: ``subsets``
    is a list of sets, a ``{color: set}`` mapping or a :class:`ColourTable`
    keyed for ``parent``'s tree."""

    def __init__(self, parent: Region,
                 subsets: Sequence[IntervalSet] | Mapping[int, IntervalSet] | ColourTable,
                 disjoint: bool, name: str | None = None,
                 color_space: IndexSpace | None = None):
        self.uid = next(_counter)
        self.parent = parent
        span = parent.ispace.size + 1
        if isinstance(subsets, Mapping):  # colour c >= 0: the value at key c, or empty
            keys = np.fromiter(subsets, np.int64, len(subsets))
            where = np.full(max(keys.max(initial=-1) + 1, 0), -1)
            where[keys[keys >= 0]] = np.flatnonzero(keys >= 0)
            subsets = ColourTable(list(subsets.values()), 0, span).take(where)
        elif not isinstance(subsets, ColourTable):
            subsets = ColourTable(subsets, base=0, span=span)
        if (subsets.base, subsets.span) != (0, span):
            raise ValueError(f"colour table keyed by base {subsets.base}, span "
                             f"{subsets.span}: {parent.name} needs base 0, span {span}")
        self.colour_table = subsets
        # One containment evaluation for the whole family: an interval lies
        # in the parent iff the parent has as many points in it as it spans.
        ivals, owner = subsets.rows()
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
        return self.colour_table.num_colours

    @property
    def colors(self) -> range:
        return range(self.num_colors)

    def subset(self, color: int) -> IntervalSet:
        """The points of ``color``: its subregion's index set."""
        return self[color].index_set

    def __getitem__(self, color: int) -> Region:
        """The subregion for ``color`` (created lazily, cached), its index
        set a slice of the colour table."""
        color = int(color)
        if color not in self._subregions:
            if not 0 <= color < self.num_colors:
                raise IndexError(f"color {color} out of range for {self.name}")
            t = self.colour_table
            a, b = t.row_offsets[color:color + 2]
            points = IntervalSet._from_normalized(
                t.stacked.intervals[a:b] - color * t.span,
                int(t.prefix[color + 1] - t.prefix[color]))
            # Two shard threads may make it at once: both keep the first.
            return self._subregions.setdefault(color, Region(
                self.parent.ispace, self.parent.fspace, index_set=points,
                parent_partition=self, color=color))
        return self._subregions[color]

    def __iter__(self) -> Iterator[Region]:
        for c in self.colors:
            yield self[c]

    def __len__(self) -> int:
        return self.num_colors

    # -- verification ----------------------------------------------------------
    def compute_disjoint(self) -> bool:
        """Actual (dynamic) disjointness: total point count equals union count."""
        return int(self.colour_table.prefix[-1]) == self.union_of_subsets().count

    def compute_complete(self) -> bool:
        """True iff the subregions cover the parent region exactly."""
        return self.union_of_subsets() == self.parent.index_set

    def union_of_subsets(self) -> IntervalSet:
        return IntervalSet(self.colour_table.rows()[0])

    def __repr__(self) -> str:
        kind = "disjoint" if self.disjoint else "aliased"
        return f"Partition({self.name}, {self.num_colors} colors, {kind}, of {self.parent.name})"

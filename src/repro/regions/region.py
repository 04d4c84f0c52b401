"""Logical regions and physical instances.

A *logical region* names a set of points (a subset of an index space)
together with a field space — it carries no storage.  Storage lives in
*physical instances*.  This split is the heart of the paper's data model:

* In the **shared-memory** implementation of region semantics, every
  subregion's instance is a view onto its root region's single instance
  (writes to a subregion are immediately visible through the parent).
* In the **distributed-memory** implementation produced by control
  replication, each subregion gets its *own* instance and the compiler
  makes all coherence copies explicit (paper §3, opening).  The SPMD
  executor hands each instance its rows of a per-shard block through the
  ``allocator=`` protocol: the colours one shard owns sit consecutively,
  in colour order, in one array per field, and no two instances share
  memory.

Both implementations are provided here; the functional executors pick one.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .index_space import IndexSpace
from .intervals import IntervalSet, expand_ranges

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .partition import Partition

__all__ = ["FieldSpace", "Region", "PhysicalInstance", "region", "lca_may_alias"]

_counter = itertools.count()


class FieldSpace:
    """Named fields with numpy dtypes and optional per-element shapes."""

    def __init__(self, fields: Mapping[str, object]):
        self._fields: dict[str, tuple[np.dtype, tuple[int, ...]]] = {}
        for name, spec in fields.items():
            if isinstance(spec, tuple):
                dtype, elem_shape = spec
            else:
                dtype, elem_shape = spec, ()
            self._fields[name] = (np.dtype(dtype), tuple(elem_shape))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._fields)

    def dtype(self, name: str) -> np.dtype:
        return self._fields[name][0]

    def elem_shape(self, name: str) -> tuple[int, ...]:
        return self._fields[name][1]

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __iter__(self):
        return iter(self._fields)

    def items(self):
        return self._fields.items()

    def __repr__(self) -> str:
        return f"FieldSpace({', '.join(self._fields)})"


class Region:
    """A logical region: a named subset of an index space plus fields.

    Root regions are created with :func:`region`; subregions are created by
    partitioning (see :mod:`repro.regions.partition`).  The parent links and
    per-partition disjointness flags form the runtime region tree used by
    the dynamic dependence analysis, and mirror the compile-time symbolic
    tree of paper §2.3.
    """

    def __init__(self, ispace: IndexSpace, fspace: FieldSpace,
                 index_set: IntervalSet | None = None,
                 parent_partition: "Partition | None" = None,
                 color: int | None = None, name: str | None = None):
        self.uid = next(_counter)
        self.ispace = ispace
        self.fspace = fspace
        self.index_set = ispace.points if index_set is None else index_set
        self.parent_partition = parent_partition
        self.color = color
        self.partitions: list["Partition"] = []
        if parent_partition is None:
            self.name = name or f"region{self.uid}"
            self.depth = 0
        else:
            self.name = name or f"{parent_partition.name}[{color}]"
            self.depth = parent_partition.parent.depth + 1

    # -- tree navigation -----------------------------------------------------
    @property
    def parent(self) -> "Region | None":
        return self.parent_partition.parent if self.parent_partition is not None else None

    @property
    def root(self) -> "Region":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> list["Region"]:
        """This region and all its ancestors, nearest first."""
        out = [self]
        while out[-1].parent is not None:
            out.append(out[-1].parent)
        return out

    @property
    def volume(self) -> int:
        return self.index_set.count

    def __repr__(self) -> str:
        return f"Region({self.name}, n={self.volume})"


def region(ispace: IndexSpace, fields: Mapping[str, object] | FieldSpace,
           name: str | None = None) -> Region:
    """Create a root logical region (Regent's ``region`` constructor)."""
    fspace = fields if isinstance(fields, FieldSpace) else FieldSpace(fields)
    return Region(ispace, fspace, name=name)


def lca_may_alias(r1: Region, r2: Region) -> bool:
    """Region-tree aliasing test (paper §2.3), on the *runtime* tree.

    Walk both regions to their least common ancestor.  If the children of
    the LCA along the two paths descend through the same disjoint partition
    with different colors, the regions are provably disjoint; otherwise
    they may alias.  Regions in different trees never alias.
    """
    if r1.root is not r2.root:
        return False
    if r1 is r2:
        return True
    a1 = {id(r): i for i, r in enumerate(r1.ancestors())}
    path2 = r2.ancestors()
    for j, anc in enumerate(path2):
        if id(anc) in a1:
            i = a1[id(anc)]
            # anc is the LCA. If either region *is* the LCA, containment.
            if i == 0 or j == 0:
                return True
            child1 = r1.ancestors()[i - 1]
            child2 = path2[j - 1]
            if (child1.parent_partition is child2.parent_partition
                    and child1.parent_partition is not None
                    and child1.parent_partition.disjoint
                    and child1.color != child2.color):
                return False
            return True
    return True  # pragma: no cover - unreachable (roots match)


class PhysicalInstance:
    """Storage for (a subset of) a region's points.

    ``index_set`` enumerates the global points this instance holds, in
    sorted order; field arrays are indexed by local slot (the rank of the
    point within ``index_set``).

    ``allocator`` customizes where the field arrays live: it is called as
    ``allocator(shape, dtype)`` and must return a zero-initialized array.
    The default allocates ordinary process-private memory; the procs SPMD
    backend passes :meth:`repro.regions.shm.SharedMemoryArena.allocate` so
    instances are visible to every forked shard process.
    """

    def __init__(self, region: Region, index_set: IntervalSet | None = None,
                 allocator=None):
        self.region = region
        self.index_set = region.index_set if index_set is None else index_set
        self._points = None  # the point array, built on first use
        n = self.index_set.count
        alloc = np.zeros if allocator is None else allocator
        self.fields: dict[str, np.ndarray] = {
            fname: alloc((n, *eshape), dtype)
            for fname, (dtype, eshape) in region.fspace.items()
        }

    @classmethod
    def for_region(cls, region: Region) -> "PhysicalInstance":
        return cls(region)

    @property
    def num_points(self) -> int:
        return self.index_set.count

    @property
    def points(self) -> np.ndarray:
        """Sorted global point array this instance covers, built on first
        use.  Two shard threads may build it at once; both compute the
        same array, so whichever store lands last is as good."""
        if self._points is None:
            self._points = self.index_set.to_indices()
        return self._points

    def localize(self, points: np.ndarray | IntervalSet) -> np.ndarray:
        """Map global points to local slots. Points must be covered."""
        if isinstance(points, IntervalSet):
            return expand_ranges(*self.localize_runs(points.intervals))
        pts = self.points
        slots = np.searchsorted(pts, points)
        if slots.size and (np.any(slots >= pts.shape[0]) or np.any(pts[slots] != points)):
            raise IndexError("points not covered by this instance")
        return slots

    def localize_runs(self, ivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map each global ``[start, stop)`` row of ``ivals`` to its run of
        local slots, as ``(first slots, lengths)`` — a point's slot is its
        rank in ``index_set``, so no point array is materialized.  Every
        interval must be covered."""
        return _covered_runs(self.index_set, ivals)

    def covers(self, points: IntervalSet) -> bool:
        return points.issubset(self.index_set)

    def field_view(self, fname: str, points: IntervalSet):
        """Return ``(array, writeback)`` exposing ``points`` of a field.

        When the requested points are exactly this instance's points
        (however many runs they form — every distributed instance of a 2-D
        tile), or a single contiguous run of them, the array is the field
        array or a true numpy slice view of it (zero copy, writes land
        directly) and ``writeback`` is ``None``.  Otherwise the array is
        a gathered copy and ``writeback()`` scatters it back — callers
        with write privileges must invoke it after mutating.
        """
        arr = self.fields[fname]
        if points is self.index_set or points == self.index_set:
            return arr, None
        if points.num_intervals == 1:
            lo, hi = points.bounds
            pts = self.points
            start = int(np.searchsorted(pts, lo))
            stop = start + (hi - lo)
            if (start < pts.shape[0] and pts[start] == lo
                    and stop <= pts.shape[0] and pts[stop - 1] == hi - 1
                    and stop - start == points.count):
                return arr[start:stop], None
        slots = self.localize(points)
        gathered = arr[slots]

        def writeback(data=gathered, slots=slots, arr=arr):
            arr[slots] = data

        return gathered, writeback

    # -- data movement ---------------------------------------------------------
    def copy_from(self, src: "PhysicalInstance", points: IntervalSet,
                  fields: Iterable[str] | None = None,
                  redop: str | None = None) -> int:
        """Copy (or reduce) ``points`` of the given fields from ``src``.

        Returns the number of points moved.  With ``redop`` set, applies the
        named associative/commutative operator instead of overwriting
        (paper §4.3 reduction copies).
        """
        if not points:
            return 0
        dst_slots = self.localize(points)
        src_slots = src.localize(points)
        names = list(fields) if fields is not None else list(self.fields)
        for fname in names:
            data = src.fields[fname][src_slots]
            if redop is None:
                self.fields[fname][dst_slots] = data
            else:
                apply_reduction(self.fields[fname], dst_slots, data, redop)
        return int(points.count)

    def fill(self, fields: Iterable[str] | None, value) -> None:
        names = list(fields) if fields is not None else list(self.fields)
        for fname in names:
            self.fields[fname][...] = value

    def __repr__(self) -> str:
        return f"PhysicalInstance({self.region.name}, n={self.num_points})"


def _covered_runs(index_set: IntervalSet, ivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rank = index_set.below(ivals)
    lengths = ivals[:, 1] - ivals[:, 0]
    if np.any(rank[:, 1] - rank[:, 0] != lengths):
        raise IndexError("points not covered by this instance")
    return rank[:, 0], lengths


_REDUCTION_UFUNCS = {
    "+": np.add,
    "*": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}

_REDUCTION_IDENTITY = {
    "+": 0,
    "*": 1,
    "min": np.inf,
    "max": -np.inf,
}


def reduction_identity(redop: str, dtype: np.dtype) -> object:
    """Identity element of a reduction operator for a given dtype."""
    ident = _REDUCTION_IDENTITY[redop]
    dtype = np.dtype(dtype)
    if dtype.kind in "iu" and redop == "min":
        return np.iinfo(dtype).max
    if dtype.kind in "iu" and redop == "max":
        return np.iinfo(dtype).min
    return ident


def apply_reduction(dst: np.ndarray, slots: np.ndarray, data: np.ndarray, redop: str) -> None:
    """Fold ``data`` into ``dst[slots]`` with the named operator.

    Uses ``ufunc.at`` so repeated slots (aliased reduction targets) fold
    correctly rather than racing.
    """
    try:
        ufunc = _REDUCTION_UFUNCS[redop]
    except KeyError:
        raise ValueError(f"unknown reduction operator {redop!r}") from None
    ufunc.at(dst, slots, data)

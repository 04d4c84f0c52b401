"""Privilege-checked accessors handed to task bodies.

A task body never touches physical instances directly; it receives one
:class:`RegionView` per region argument.  The view enforces the declared
privileges at every access (Regent enforces this in its type system; we
enforce it dynamically) and hides where the data physically lives — the
same task body runs unmodified over a root instance (shared-memory mode)
or a shard-local instance (distributed mode).  A :class:`PlacedView` is
the distributed-mode form: its instance covers its region exactly, so its
field arrays are fixed when it is built and a check is one dict hit.
"""

from __future__ import annotations

import numpy as np

from ..regions.intervals import IntervalSet
from ..regions.region import PhysicalInstance, Region, apply_reduction
from .privileges import Privilege, PrivilegeError

__all__ = ["GeometryView", "PlacedView", "RegionView"]



class RegionView:
    """A task's window onto one region argument.

    Field data is exposed as dense local arrays indexed by *local slot*
    (the rank of the point within the region's sorted point set); use
    :meth:`localize` to translate global point ids (e.g. mesh pointers)
    into slots.
    """

    def __init__(self, region: Region, instance: PhysicalInstance,
                 privilege: Privilege, task_name: str | None = None):
        self.region = region
        self.instance = instance
        self.privilege = privilege
        self.task_name = task_name  # named by a privilege error
        self._cache: dict[str, tuple[np.ndarray, object]] = {}
        self._written: set[str] = set()
        self._points: np.ndarray | None = None

    # -- geometry -----------------------------------------------------------
    @property
    def n(self) -> int:
        return self.region.index_set.count

    @property
    def index_set(self) -> IntervalSet:
        return self.region.index_set

    @property
    def points(self) -> np.ndarray:
        """Sorted global point ids of this region."""
        if self._points is None:
            self._points = self.region.index_set.to_indices()
        return self._points

    @property
    def offsets(self) -> np.ndarray:
        """CSR over the view's point tasks: task ``j``'s points are
        ``points[offsets[j]:offsets[j + 1]]``.  One task here."""
        return np.array([0, self.n], dtype=np.int64)

    def localize(self, global_ids: np.ndarray, seg=None) -> np.ndarray:
        """Translate global point ids into local slots of this view.

        ``seg[k]`` names the point task (an index into :attr:`offsets`)
        whose points ``global_ids[k]`` is looked up in; a view of one
        point task ignores it.
        """
        slots, ok = self.maybe_localize(global_ids, seg)
        if not np.all(ok):
            raise IndexError(f"global ids not contained in region {self.region.name}")
        return slots

    def maybe_localize(self, global_ids: np.ndarray,
                       seg=None) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`localize` but tolerant: returns ``(slots, mask)``.

        ``mask`` is True where the id is contained; slots of missing ids are
        clamped (do not use them).  This is how task bodies route unstructured
        pointers between the private/shared/ghost views of a §4.5 region tree.
        """
        pts = self.points
        if pts.shape[0] == 0:
            ids = np.asarray(global_ids)
            return np.zeros(ids.shape, dtype=np.int64), np.zeros(ids.shape, dtype=bool)
        slots = np.searchsorted(pts, global_ids)
        clamped = np.minimum(slots, pts.shape[0] - 1)
        ok = pts[clamped] == global_ids
        return clamped, ok

    # -- data access -----------------------------------------------------------
    def _field_array(self, field: str) -> np.ndarray:
        if field not in self._cache:
            arr, writeback = self.instance.field_view(field, self.region.index_set)
            self._cache[field] = (arr, writeback)
        return self._cache[field][0]

    def read(self, field: str) -> np.ndarray:
        """Local array for a field this task may read. Do not mutate."""
        if not self.privilege.allows_read(field):
            raise self._denied("read", field)
        return self._field_array(field)

    def write(self, field: str) -> np.ndarray:
        """Local array for a field this task may write; mutate in place."""
        if not self.privilege.allows_write(field):
            raise self._denied("write", field)
        self._written.add(field)
        return self._field_array(field)

    def reduce(self, field: str, slots: np.ndarray, values: np.ndarray, redop: str) -> None:
        """Fold ``values`` into ``field[slots]`` with the named operator."""
        if not self.privilege.allows_reduce(field, redop):
            raise self._denied(f"reduce({redop})", field)
        self._written.add(field)
        apply_reduction(self._field_array(field), slots, values, redop)

    # -- lifecycle --------------------------------------------------------------
    def finalize(self) -> None:
        """Write gathered copies of written fields back to the instance."""
        for field in self._written:
            _, writeback = self._cache[field]
            if writeback is not None:
                writeback()
        self._cache.clear()
        self._written.clear()

    def _denied(self, what: str, field: str) -> PrivilegeError:
        who = "task" if self.task_name is None else f"task {self.task_name}"
        return PrivilegeError(
            f"{who} holds {self.privilege} on {self.region.name}; "
            f"cannot {what} field {field!r}")

    def __repr__(self) -> str:
        return f"RegionView({self.region.name}, {self.privilege})"


class PlacedView(RegionView):
    """A :class:`RegionView` over field arrays fixed when it is built.

    ``arrays`` are ``{field: array}`` covering the region's points exactly
    (a distributed instance's fields, by construction), so every access is
    the whole array: no gather, no writeback, and the same arrays on every
    call.  The privilege is resolved into one dict per access kind, so a
    check is one dict hit and a miss raises :class:`PrivilegeError`.
    """

    def __init__(self, region: Region, instance: PhysicalInstance | None,
                 privilege: Privilege, task_name: str | None = None,
                 arrays: dict[str, np.ndarray] | None = None):
        super().__init__(region, instance, privilege, task_name)
        if arrays is None:
            arrays = instance.fields
        p = privilege
        self._readable = {f: a for f, a in arrays.items() if p.allows_read(f)}
        self._writable = {f: a for f, a in arrays.items()
                          if p.allows_write(f)}
        # A write privilege folds with any operator; a reduce privilege
        # with its own only.
        self._reducible = (self._writable if p.write else
                           {f: a for f, a in arrays.items()
                            if p.redop is not None
                            and p.allows_reduce(f, p.redop)})
        self._redop = None if p.write else p.redop

    def read(self, field: str) -> np.ndarray:
        try:
            return self._readable[field]
        except KeyError:
            raise self._denied("read", field) from None

    def write(self, field: str) -> np.ndarray:
        try:
            return self._writable[field]
        except KeyError:
            raise self._denied("write", field) from None

    def reduce(self, field: str, slots, values, redop: str) -> None:
        arr = self._reducible.get(field)
        if arr is None or (self._redop is not None and redop != self._redop):
            raise self._denied(f"reduce({redop})", field)
        apply_reduction(arr, slots, values, redop)

    def __repr__(self) -> str:
        return f"PlacedView({self.region.name}, {self.privilege})"


class GeometryView:
    """What a task's inspector sees of one argument: geometry, never data.

    A plan is built once and reused for every later call on the same
    regions, so anything it derived from field values would go stale
    without a trace.  Wrapping the view makes that unrepresentable:
    ``points``/``n``/``offsets``/``index_set``/``localize``/
    ``maybe_localize`` pass through to the wrapped view, every data
    accessor raises.
    """

    __slots__ = ("_view", "_task_name")

    def __init__(self, view, task_name: str):
        self._view = view
        self._task_name = task_name

    @property
    def region(self) -> Region:
        return self._view.region

    @property
    def n(self) -> int:
        return self._view.n

    @property
    def index_set(self) -> IntervalSet:
        return self._view.index_set

    @property
    def points(self) -> np.ndarray:
        return self._view.points

    @property
    def offsets(self) -> np.ndarray:
        return self._view.offsets

    def localize(self, global_ids: np.ndarray, seg=None) -> np.ndarray:
        return self._view.localize(global_ids, seg)

    def maybe_localize(self, global_ids: np.ndarray,
                       seg=None) -> tuple[np.ndarray, np.ndarray]:
        return self._view.maybe_localize(global_ids, seg)

    def _no_data(self, what: str, field: str):
        raise PrivilegeError(
            f"inspector of task {self._task_name} sees geometry only; "
            f"cannot {what} field {field!r} of {self.region.name}")

    def read(self, field: str):
        self._no_data("read", field)

    def write(self, field: str):
        self._no_data("write", field)

    def reduce(self, field: str, slots, values, redop: str) -> None:
        self._no_data(f"reduce({redop})", field)

    def __repr__(self) -> str:
        return f"GeometryView({self.region.name})"

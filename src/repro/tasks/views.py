"""Privilege-checked accessors handed to task bodies.

A task body never touches physical instances directly; it receives one
:class:`RegionView` per region argument.  The view enforces the declared
privileges at every access (Regent enforces this in its type system; we
enforce it dynamically) and hides where the data physically lives — the
same task body runs unmodified over a root instance (shared-memory mode),
a shard-local instance (distributed mode), or a temporary reduction
instance (paper §4.3).
"""

from __future__ import annotations

import numpy as np

from ..regions.intervals import IntervalSet
from ..regions.region import PhysicalInstance, Region, apply_reduction
from .privileges import Privilege, PrivilegeError

__all__ = ["GeometryView", "RegionView"]


class RegionView:
    """A task's window onto one region argument.

    Field data is exposed as dense local arrays indexed by *local slot*
    (the rank of the point within the region's sorted point set); use
    :meth:`localize` to translate global point ids (e.g. mesh pointers)
    into slots.
    """

    def __init__(self, region: Region, instance: PhysicalInstance,
                 privilege: Privilege,
                 reduction_instance: PhysicalInstance | None = None):
        self.region = region
        self.instance = instance
        self.privilege = privilege
        self.reduction_instance = reduction_instance
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

    def localize(self, global_ids: np.ndarray) -> np.ndarray:
        """Translate global point ids into local slots of this view."""
        slots, ok = self.maybe_localize(global_ids)
        if not np.all(ok):
            raise IndexError(f"global ids not contained in region {self.region.name}")
        return slots

    def maybe_localize(self, global_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
            raise PrivilegeError(
                f"task holds {self.privilege} on {self.region.name}; cannot read field {field!r}")
        return self._field_array(field)

    def write(self, field: str) -> np.ndarray:
        """Local array for a field this task may write; mutate in place."""
        if not self.privilege.allows_write(field):
            raise PrivilegeError(
                f"task holds {self.privilege} on {self.region.name}; cannot write field {field!r}")
        self._written.add(field)
        return self._field_array(field)

    def reduce(self, field: str, slots: np.ndarray, values: np.ndarray, redop: str) -> None:
        """Fold ``values`` into ``field[slots]`` with the named operator.

        With a pure reduce privilege in distributed mode, the fold targets a
        temporary reduction instance (initialized to the operator identity)
        rather than the data itself; the runtime later applies it with
        reduction copies (paper §4.3).
        """
        if not self.privilege.allows_reduce(field, redop):
            raise PrivilegeError(
                f"task holds {self.privilege} on {self.region.name}; "
                f"cannot reduce({redop}) field {field!r}")
        if self.reduction_instance is not None and self.privilege.redop is not None:
            tgt_inst = self.reduction_instance
            arr, writeback = tgt_inst.field_view(field, self.region.index_set)
            apply_reduction(arr, slots, values, redop)
            if writeback is not None:
                writeback()
            return
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

    def __repr__(self) -> str:
        return f"RegionView({self.region.name}, {self.privilege})"


class GeometryView:
    """What a task's inspector sees of one argument: geometry, never data.

    A plan is built once and reused for every later call on the same
    regions, so anything it derived from field values would go stale
    without a trace.  Wrapping the view makes that unrepresentable:
    ``points``/``n``/``index_set``/``localize``/``maybe_localize`` pass
    through to the wrapped view, every data accessor raises.
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

    def localize(self, global_ids: np.ndarray) -> np.ndarray:
        return self._view.localize(global_ids)

    def maybe_localize(self, global_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._view.maybe_localize(global_ids)

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

"""Task declarations.

A task is a Python function plus a declaration of privileges on its region
parameters (paper §2.1, Fig. 2).  Region parameters come first in the
signature, one per privilege; any remaining parameters are scalars passed
by value.  Tasks may return a scalar (a future); index launches can fold
returned scalars with an associative reduction operator (paper §4.4).

A task may also declare an *inspector* (``@task(..., inspect=fn)``): the
loop-invariant half of an inspector–executor split.  ``fn(*views)`` sees
the geometry of the region arguments and nothing else, and its result —
the *plan*: index arrays, routing tables, scratch buffers — is handed to
the body as keyword-only ``plan`` on every call.  When it runs is the
runtime's business, never the app's: once per distinct (task, argument
regions), through the memo the caller of :meth:`Task.bound` owns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from ..regions.region import PhysicalInstance, Region
from .privileges import Privilege
from .views import GeometryView, RegionView

__all__ = ["Task", "call_task", "task"]

_counter = itertools.count()


@dataclass
class Task:
    """A declared task: body + per-region-argument privileges."""

    fn: Callable[..., Any]
    privileges: tuple[Privilege, ...]
    name: str
    uid: int = field(default_factory=lambda: next(_counter))
    leaf: bool = True  # leaf tasks launch no subtasks; informational
    # The app author's promise that the body is *point-batchable*: it
    # computes each point's result from coordinates and field values
    # alone, treating ``view.points`` as an unordered set and localizing
    # ids only segmented (``localize(ids, seg)``, ``seg[k]`` the point
    # task of ``ids[k]``, from ``view.offsets``; never ``index_set``), so
    # running one call over the union of several point tasks' views
    # produces the same per-point results as running the tasks one by
    # one.  A shard then lowers an index launch of it to a single body
    # call over its block rows (repro.runtime.launch_plan).
    batchable: bool = False
    # ``inspect(*views) -> plan``: see the module docstring.  May depend
    # only on view geometry and on constants it closes over.
    inspect: Callable[..., Any] | None = None

    @property
    def num_region_args(self) -> int:
        return len(self.privileges)

    def bound(self, views: Sequence[Any], plans: dict) -> Callable[..., Any]:
        """The body every executor calls for ``views``: ``fn`` itself, or
        ``fn`` with its plan bound when the task has an inspector.

        ``plans`` memoises the inspector per (task, argument regions).  A
        plan may own scratch, so the memo belongs to exactly one thread
        of control (an executor, one shard's plan) and is never shared.
        """
        if self.inspect is None:
            return self.fn
        key = (self.uid, *(v.region.uid for v in views))
        try:
            plan = plans[key]
        except KeyError:
            plan = plans[key] = self.inspect(
                *(GeometryView(v, self.name) for v in views))
        return partial(self.fn, plan=plan)

    def __call__(self, *args, **kwargs):
        """Direct invocation — used by executors after views are built."""
        return self.fn(*args, **kwargs)

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:
        privs = ", ".join(repr(p) for p in self.privileges)
        return f"Task({self.name}; {privs})"


def task(privileges: Sequence[Privilege], name: str | None = None,
         leaf: bool = True, batchable: bool = False,
         inspect: Callable[..., Any] | None = None,
         ) -> Callable[[Callable[..., Any]], Task]:
    """Decorator declaring a task.

    Example::

        @task(privileges=[RW("b"), R("a")])
        def TF(B, A):
            B.write("b")[:] = f(A.read("a"))

    With an inspector the pointer chasing is hoisted out of the body::

        def route(B, A):
            return A.localize(h[B.points])

        @task(privileges=[RW("b"), R("a")], inspect=route)
        def TG(B, A, *, plan):
            B.write("b")[:] = A.read("a")[plan]
    """
    privs = tuple(privileges)

    def decorate(fn: Callable[..., Any]) -> Task:
        return Task(fn=fn, privileges=privs, name=name or fn.__name__,
                    leaf=leaf, batchable=batchable, inspect=inspect)

    return decorate


def call_task(task: Task, args: Sequence[Any],
              instance_of: Callable[[Region], PhysicalInstance],
              plans: dict) -> Any:
    """Run one task call: the sequential executor's reference path.

    SPMD shards run lowered calls instead (see
    :mod:`repro.runtime.launch_plan`).

    ``args`` is the call's argument list in signature order, region
    arguments still as :class:`Region` objects: each becomes a
    privilege-checked view of ``instance_of(region)``, the body (with its
    plan, see :meth:`Task.bound`) runs, and gathered copies of written
    fields are scattered back.
    """
    views: list[RegionView] = []
    call_args = list(args)
    for pos, arg in enumerate(call_args):
        if isinstance(arg, Region):
            view = RegionView(arg, instance_of(arg),
                              task.privileges[len(views)], task.name)
            views.append(view)
            call_args[pos] = view
    result = task.bound(views, plans)(*call_args)
    for view in views:
        view.finalize()
    return result

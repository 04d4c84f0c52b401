"""Tasks, privileges, and privilege-checked region views."""

from .checking import TaskContext, check_subtask_call, current_context, task_context
from .privileges import NO_ACCESS, Privilege, PrivilegeError, R, Reduce, RW
from .task import Task, call_task, task
from .views import GeometryView, PlacedView, RegionView

__all__ = [
    "GeometryView",
    "NO_ACCESS",
    "PlacedView",
    "Privilege",
    "PrivilegeError",
    "R",
    "RW",
    "Reduce",
    "RegionView",
    "Task",
    "TaskContext",
    "call_task",
    "check_subtask_call",
    "current_context",
    "task",
    "task_context",
]

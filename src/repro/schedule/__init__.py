"""Task scheduling: LPT, semi-dynamic LPT, and DAG list scheduling."""

from .listsched import DagSchedule, list_schedule
from .lpt import Schedule, lpt_schedule
from .metrics import graham_bound, makespan_lower_bound, speedup_estimate
from .semidynamic import SemiDynamicScheduler
from .task import Task, TaskGraph, dependency_levels

__all__ = [
    "DagSchedule",
    "list_schedule",
    "Schedule",
    "lpt_schedule",
    "graham_bound",
    "makespan_lower_bound",
    "speedup_estimate",
    "SemiDynamicScheduler",
    "Task",
    "TaskGraph",
    "dependency_levels",
]

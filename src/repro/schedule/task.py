"""Tasks and task graphs.

"The parallelization stage of the code generator groups all small
assignments into one task and splits large assignments obtained from the
equations into several tasks for computation.  The dependence relation
between the tasks determines the communication between them.  This forms a
directed acyclic graph which is the input to the scheduler" (section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["Task", "TaskGraph", "dependency_levels"]


@dataclass
class Task:
    """One schedulable unit of right-hand-side work.

    ``assignments`` maps output names to (a textual form of) their defining
    expressions; the executable body lives in the generated program and is
    looked up by ``task_id``.  ``weight`` is the statically estimated
    execution time in seconds (cost model); the semi-dynamic scheduler
    replaces it with measured times at run time.
    """

    task_id: int
    name: str
    outputs: tuple[str, ...]
    inputs: tuple[str, ...]
    weight: float
    num_ops: int = 0
    #: ids of tasks whose outputs this task consumes (intra-step dependencies)
    depends_on: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("task weight must be non-negative")

    def __str__(self) -> str:
        return f"task#{self.task_id}({self.name}, w={self.weight:.3g})"


class TaskGraph:
    """A DAG of tasks, indexed by ``task_id`` (contiguous from 0)."""

    def __init__(self, tasks: Sequence[Task]) -> None:
        self.tasks: tuple[Task, ...] = tuple(tasks)
        for i, task in enumerate(self.tasks):
            if task.task_id != i:
                raise ValueError("task ids must be contiguous from 0")
        for task in self.tasks:
            for dep in task.depends_on:
                if not (0 <= dep < len(self.tasks)) or dep == task.task_id:
                    raise ValueError(
                        f"task {task.task_id} has invalid dependency {dep}"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        state = [0] * len(self.tasks)  # 0 white, 1 grey, 2 black

        def visit(i: int) -> None:
            stack = [(i, iter(self.tasks[i].depends_on))]
            state[i] = 1
            while stack:
                node, it = stack[-1]
                for dep in it:
                    if state[dep] == 1:
                        raise ValueError("task graph contains a cycle")
                    if state[dep] == 0:
                        state[dep] = 1
                        stack.append((dep, iter(self.tasks[dep].depends_on)))
                        break
                else:
                    state[node] = 2
                    stack.pop()

        for i in range(len(self.tasks)):
            if state[i] == 0:
                visit(i)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, task_id: int) -> Task:
        return self.tasks[task_id]

    @property
    def total_weight(self) -> float:
        return sum(t.weight for t in self.tasks)

    @property
    def max_weight(self) -> float:
        return max((t.weight for t in self.tasks), default=0.0)

    def independent(self) -> bool:
        """True when no intra-step dependencies exist (the common case for
        explicit ODE right-hand sides: "all tasks are currently independent
        of each other", section 3.2.3)."""
        return all(not t.depends_on for t in self.tasks)

    def critical_path_weight(self) -> float:
        """Weight of the heaviest dependency chain (lower bound on makespan
        regardless of processor count)."""
        memo: dict[int, float] = {}

        def longest(i: int) -> float:
            if i in memo:
                return memo[i]
            task = self.tasks[i]
            best = max((longest(d) for d in task.depends_on), default=0.0)
            memo[i] = best + task.weight
            return memo[i]

        return max((longest(i) for i in range(len(self.tasks))), default=0.0)

    def with_weights(self, weights: Sequence[float]) -> "TaskGraph":
        """A copy with task weights replaced (semi-dynamic rescheduling)."""
        if len(weights) != len(self.tasks):
            raise ValueError("need one weight per task")
        import dataclasses

        return TaskGraph(
            [
                dataclasses.replace(t, weight=float(w))
                for t, w in zip(self.tasks, weights)
            ]
        )


def dependency_levels(graph: TaskGraph) -> list[list[int]]:
    """Group task ids into topological levels (same level = no mutual
    dependencies; levels execute as barrier-separated phases, and task
    fusion merges only within one)."""
    level: dict[int, int] = {}

    def compute(i: int) -> int:
        if i in level:
            return level[i]
        deps = graph[i].depends_on
        value = 0 if not deps else 1 + max(compute(d) for d in deps)
        level[i] = value
        return value

    for i in range(len(graph)):
        compute(i)
    depth = 1 + max(level.values(), default=0)
    out: list[list[int]] = [[] for _ in range(depth)]
    for i in range(len(graph)):
        out[level[i]].append(i)
    return out

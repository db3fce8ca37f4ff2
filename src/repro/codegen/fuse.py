"""Task fusion: merge fine-grained tasks into dispatch-amortising ones.

The partitioner (:mod:`repro.codegen.tasks`) sizes tasks for the paper's
compiled Fortran target, where per-task overhead is a function call.  Our
executable target is interpreted Python with a supervisor/worker runtime,
where per-task *dispatch* (schedule lookup, message assembly, result
validation) costs orders of magnitude more than the cost model's
``task_overhead`` — fine enough tasks make every parallel executor slower
than serial (the inverted-Figure-12 problem, ROADMAP open item 1).

:func:`fuse_plan` is the corrective pass: it greedily merges small tasks
into fused tasks whose body cost exceeds a dispatch-cost threshold, in the
coarsening spirit of Peleš & Klus's block-structure exploitation
(arXiv:1505.00838).  The merge

* respects dependency order — only tasks on the same topological level of
  the task graph are merged, so no cycle can form and every partial-sum
  producer still completes before its combiner,
* respects the analysis partition's SCC blocks — candidates are ordered
  by the subsystem of their output states, so assignments from one
  strongly connected block land in the same fused task (locality; fewer
  cross-block state reads per task),
* preserves a minimum task count (``min_tasks``) so fusion cannot
  collapse a parallelisable plan into a serial one,
* is numerics-neutral: fused bodies are the concatenation of the member
  bodies in deterministic order, evaluating exactly the same expressions
  into exactly the same result slots (bit-identical by construction; the
  per-task CSE in codegen extracts structurally identical temporaries).

The compiler pipeline runs this as the ``fuse_tasks`` pass between
``tasks`` and ``codegen``; both the python and numpy backends then emit
the fused task functions, since they generate from ``plan.bodies``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..schedule.task import Task, TaskGraph, dependency_levels
from .costmodel import CostModel, DEFAULT_COST_MODEL
from .tasks import TaskBody, TaskPlan

__all__ = [
    "DEFAULT_FUSE_MIN_TASKS",
    "FusionStats",
    "auto_fuse_threshold",
    "fuse_plan",
]

#: lower bound on the fused plan's task count (when the unfused plan has
#: at least this many): keeps work divisible across a typical small pool
DEFAULT_FUSE_MIN_TASKS = 8

#: auto threshold = this many cost-model task overheads of body work per
#: fused task — the compile-time stand-in for the measured Python dispatch
#: cost (the runtime auto-tuner refines it; see SemiDynamicScheduler)
_AUTO_THRESHOLD_OVERHEADS = 64.0


@dataclass(frozen=True)
class FusionStats:
    """What the ``fuse_tasks`` pass did, for ``--explain`` and metrics."""

    tasks_before: int
    tasks_after: int
    threshold: float
    #: body cost (seconds, cost-model units) of every fused-plan task
    fused_costs: tuple[float, ...]

    @property
    def merged(self) -> int:
        return self.tasks_before - self.tasks_after

    def cost_histogram(self, bins: int = 6) -> list[tuple[str, int]]:
        """Histogram of fused-task body costs in threshold-relative bands."""
        if not self.fused_costs or self.threshold <= 0:
            return []
        edges = [0.25, 0.5, 1.0, 2.0, 4.0]
        labels = ["<0.25t", "0.25-0.5t", "0.5-1t", "1-2t", "2-4t", ">=4t"]
        counts = [0] * len(labels)
        for cost in self.fused_costs:
            ratio = cost / self.threshold
            for b, edge in enumerate(edges):
                if ratio < edge:
                    counts[b] += 1
                    break
            else:
                counts[-1] += 1
        return [(label, count) for label, count in zip(labels, counts)]

    def summary(self) -> str:
        hist = ", ".join(
            f"{label}: {count}"
            for label, count in self.cost_histogram() if count
        )
        return (
            f"fused {self.tasks_before} -> {self.tasks_after} tasks "
            f"(threshold {self.threshold:.3g}s"
            + (f"; cost histogram {hist}" if hist else "")
            + ")"
        )


def auto_fuse_threshold(
    plan: TaskPlan, cost_model: CostModel, min_tasks: int
) -> float:
    """Default fusion threshold for ``plan``.

    Large enough that each fused task amortises interpreted-Python
    dispatch (``_AUTO_THRESHOLD_OVERHEADS`` × the cost model's per-task
    overhead), but capped so the fused plan keeps at least ``min_tasks``
    tasks' worth of divisible work.
    """
    total = sum(
        cost_model.expr_cost(a.expr) * a.count
        for body in plan.bodies
        for a in body.assignments
    )
    floor = _AUTO_THRESHOLD_OVERHEADS * cost_model.task_overhead
    if total <= 0 or min_tasks < 1:
        return floor
    return min(floor, max(total / min_tasks, cost_model.task_overhead))


def _block_key(
    task: Task, blocks: Mapping[str, int] | None
) -> tuple[int, ...]:
    """Sort key grouping tasks by the SCC blocks of their output states."""
    if not blocks:
        return ()
    keys = sorted({
        blocks[target.split(":", 2)[1]]
        for target in task.outputs
        if ":" in target and target.split(":", 2)[1] in blocks
    })
    return tuple(keys) if keys else (len(blocks),)


def fuse_plan(
    plan: TaskPlan,
    cost_model: CostModel | None = None,
    threshold: float | None = None,
    min_tasks: int = DEFAULT_FUSE_MIN_TASKS,
    blocks: Mapping[str, int] | None = None,
) -> tuple[TaskPlan, FusionStats]:
    """Merge small tasks of ``plan`` into fused tasks of >= ``threshold``
    body cost.

    ``blocks`` optionally maps state names to SCC-block indices (the
    analysis partition's ``membership``); merge candidates are ordered by
    block so fused tasks align with the partitioner's blocks.  Returns the
    fused plan (which may be ``plan`` itself when nothing fuses) and a
    :class:`FusionStats` record.
    """
    cost_model = cost_model or plan.cost_model or DEFAULT_COST_MODEL
    if threshold is None:
        threshold = auto_fuse_threshold(plan, cost_model, min_tasks)
    if threshold <= 0:
        raise ValueError("fusion threshold must be positive")

    # Weight by assignment cardinality: an array assignment stands for
    # ``count`` member instances, so its real per-round cost is the
    # template's times the index-set size (not one equation's worth).
    body_cost = [
        sum(cost_model.expr_cost(a.expr) * a.count for a in body.assignments)
        for body in plan.bodies
    ]
    levels = dependency_levels(plan.graph)

    # -- group per level -------------------------------------------------------
    # Same-level tasks are mutually independent (levels are longest-path
    # depths), so merging within a level can never create a cycle.
    groups: list[list[int]] = []
    for level in levels:
        small = [tid for tid in level if body_cost[tid] < threshold]
        big = [tid for tid in level if body_cost[tid] >= threshold]
        groups.extend([tid] for tid in big)
        if not small:
            continue
        # Walk candidates in SCC-block order, packing neighbours until the
        # running group exceeds the threshold: block-local assignments fuse
        # together instead of scattering LPT-style across fused tasks.
        small.sort(key=lambda tid: (_block_key(plan.graph[tid], blocks), tid))
        current: list[int] = []
        current_cost = 0.0
        for tid in small:
            current.append(tid)
            current_cost += body_cost[tid]
            if current_cost >= threshold:
                groups.append(current)
                current, current_cost = [], 0.0
        if current:
            # Leftover below threshold: merge into the previous fused
            # group of this level when one exists, else emit as-is.
            if groups and groups[-1][0] in small:
                groups[-1].extend(current)
            else:
                groups.append(current)

    if len(groups) < min(min_tasks, plan.num_tasks):
        # Fusion would over-coarsen (e.g. a tiny model): re-run with the
        # threshold that yields ~min_tasks equal-cost tasks.
        total = sum(body_cost)
        relaxed = total / max(min_tasks, 1)
        if 0 < relaxed < threshold:
            return fuse_plan(
                plan, cost_model, relaxed, min_tasks=1, blocks=blocks
            )
        stats = FusionStats(
            tasks_before=plan.num_tasks,
            tasks_after=plan.num_tasks,
            threshold=threshold,
            fused_costs=tuple(body_cost),
        )
        return plan, stats

    if len(groups) == plan.num_tasks:
        stats = FusionStats(
            tasks_before=plan.num_tasks,
            tasks_after=plan.num_tasks,
            threshold=threshold,
            fused_costs=tuple(body_cost),
        )
        return plan, stats

    # -- rebuild bodies + graph -------------------------------------------------
    # Deterministic order: groups sorted by their smallest member keeps the
    # fused ids stable across runs; members inside a group stay in original
    # task order so assignment evaluation order is reproducible.
    groups = [sorted(g) for g in groups]
    groups.sort(key=lambda g: g[0])
    old_to_new: dict[int, int] = {}
    for new_id, group in enumerate(groups):
        for tid in group:
            old_to_new[tid] = new_id

    bodies: list[TaskBody] = []
    tasks: list[Task] = []
    fused_costs: list[float] = []
    for new_id, group in enumerate(groups):
        members = [plan.graph[tid] for tid in group]
        assignments = tuple(
            a for tid in group for a in plan.bodies[tid].assignments
        )
        if len(group) == 1:
            name = members[0].name
        else:
            name = f"fused[{new_id}]"
        inputs = tuple(sorted({s for m in members for s in m.inputs}))
        outputs = tuple(a.target for a in assignments)
        deps = tuple(sorted({
            old_to_new[d] for m in members for d in m.depends_on
            if old_to_new[d] != new_id
        }))
        cost = sum(body_cost[tid] for tid in group)
        fused_costs.append(cost)
        weight = cost_model.task_overhead + cost
        bodies.append(TaskBody(new_id, name, assignments))
        tasks.append(Task(
            task_id=new_id,
            name=name,
            outputs=outputs,
            inputs=inputs,
            weight=weight,
            num_ops=sum(m.num_ops for m in members),
            depends_on=deps,
        ))

    fused = TaskPlan(
        bodies=tuple(bodies),
        graph=TaskGraph(tasks),
        partial_slots=plan.partial_slots,
        cost_model=cost_model,
    )
    stats = FusionStats(
        tasks_before=plan.num_tasks,
        tasks_after=fused.num_tasks,
        threshold=threshold,
        fused_costs=tuple(fused_costs),
    )
    return fused, stats

"""The parallel RHS facade handed to the ODE solvers.

"The system of ODEs is a function y'(t) = f(y(t), t) …  The function
should be side-effect free" (section 2.4): to a solver, the parallelised
right-hand side is just another callable.  Two facades are provided:

* :class:`ParallelRHS` — wraps a real executor (serial, threaded or
  process-based); the numerics are produced by the generated task
  functions under the current schedule, and measured per-task times can
  drive the semi-dynamic LPT,
* :class:`VirtualTimeParallelRHS` — additionally advances a *virtual
  parallel clock* via the discrete-event simulator, so a full bearing
  simulation can report the RHS-calls/second a given machine model would
  achieve (the integrated version of Figure 12).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..codegen.program import GeneratedProgram
from ..schedule.lpt import lpt_schedule
from ..schedule.semidynamic import SemiDynamicScheduler
from .machine import MachineModel
from .simulator import simulate_round
from .process_executor import ProcessExecutor
from .supervisor import SerialExecutor, ThreadedExecutor

__all__ = ["ParallelRHS", "VirtualTimeParallelRHS"]


class ParallelRHS:
    """Solver-facing ``f(t, y) -> ydot`` backed by scheduled task execution.

    The results vector is a per-instance scratch buffer, re-zeroed (not
    reallocated) between calls so fault-injection "skipped output" slots
    read 0.0 exactly as with a fresh buffer.  The returned ``ydot`` is a
    copy of the buffer's state-slot view by default; ``copy_output=False``
    returns the view itself — zero allocations per call, valid only for
    callers that consume the result before the next call (the multistep
    solvers keep a history of returned arrays, so they need copies).

    ``stage_chunk`` sets how many Runge–Kutta stages :meth:`eval_stages`
    ships per worker round-trip (the K-stage round protocol): an integer
    K >= 1, or ``"auto"`` (default) to pick K from a one-shot dispatch
    microcalibration on first use — K = 1 wherever dispatch is free
    (serial), larger K where a round-trip costs real time relative to a
    stage's compute.
    """

    def __init__(
        self,
        program: GeneratedProgram,
        executor: SerialExecutor | ThreadedExecutor | ProcessExecutor | None = None,
        params: np.ndarray | None = None,
        scheduler: SemiDynamicScheduler | None = None,
        feed_measurements: bool = False,
        copy_output: bool = True,
        stage_chunk: int | str = "auto",
    ) -> None:
        if feed_measurements and scheduler is None:
            raise ValueError(
                "feed_measurements=True requires a scheduler: measured "
                "task times have nowhere to go, so the run would silently "
                "use the static LPT schedule; pass "
                "scheduler=SemiDynamicScheduler(...) or drop "
                "feed_measurements"
            )
        self.program = program
        self.executor = executor or SerialExecutor(program)
        self.params = (
            program.param_vector() if params is None
            else np.asarray(params, dtype=float)
        )
        expected = program.param_vector().size
        if self.params.size != expected:
            # Checked here so the serial facade is covered too: native
            # tasks read the vector through a raw pointer, unchecked.
            raise ValueError(
                f"parameter vector has {self.params.size} entries, program "
                f"expects {expected}"
            )
        if stage_chunk != "auto" and (
            not isinstance(stage_chunk, int) or stage_chunk < 1
        ):
            raise ValueError("stage_chunk must be an integer >= 1 or 'auto'")
        self.scheduler = scheduler
        self.feed_measurements = feed_measurements
        self.copy_output = copy_output
        self.stage_chunk = stage_chunk
        self._auto_chunk: int | None = None
        self.ncalls = 0
        #: the executor's structured fault/retry log, when it keeps one
        self.events = getattr(self.executor, "events", None)
        self._res = program.results_buffer()
        self._out_view = self._res[: program.num_states]

    def _feed_scheduler(self) -> None:
        if self.scheduler is None or not self.feed_measurements:
            return
        # A K-stage chunk accumulates K rounds into last_task_times;
        # divide back to per-round so the LPT estimates stay in seconds
        # per evaluation regardless of chunking.
        rounds = getattr(self.executor, "last_times_rounds", 1) or 1
        times = self.executor.last_task_times
        if rounds > 1:
            times = times / rounds
        self.scheduler.observe(times.tolist())

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        res = self._res
        res.fill(0.0)
        schedule = (
            self.scheduler.schedule if self.scheduler is not None else None
        )
        self.executor.evaluate(t, y, self.params, res, schedule)
        self._feed_scheduler()
        self.ncalls += 1
        if self.copy_output:
            return self._out_view.copy()
        return self._out_view

    def _resolve_stage_chunk(self, max_stages: int) -> int:
        if self.stage_chunk != "auto":
            return min(int(self.stage_chunk), max_stages)
        if self._auto_chunk is None:
            # One-shot microcalibration: what does an empty worker
            # round-trip cost on THIS executor, right now?
            measure = getattr(self.executor, "measure_dispatch_overhead",
                              None)
            d = float(measure()) if measure is not None else 0.0
            if self.scheduler is not None:
                self.scheduler.calibrate_dispatch(d)
                self._auto_chunk = self.scheduler.recommend_stage_chunk(
                    max_stages=max_stages
                )
            elif d <= 0.0:
                self._auto_chunk = 1
            else:
                weights = sum(
                    t.weight for t in self.program.task_graph.tasks
                )
                workers = getattr(self.executor, "num_workers", 1)
                stage = weights / max(workers, 1)
                k = int(np.ceil(d / max(0.25 * stage, 1e-9)))
                self._auto_chunk = int(np.clip(k, 1, max_stages))
        return max(1, min(self._auto_chunk, max_stages))

    def eval_stages(
        self, t: float, y: np.ndarray, h_dir: float, k: np.ndarray,
        a_rows, c, start: int = 1,
    ) -> None:
        """Fill Runge–Kutta stage rows ``k[start:]`` in chunks of up to
        ``stage_chunk`` stages per executor dispatch.

        Row ``i`` receives the RHS at ``y + h_dir * (k[:i].T @ a_rows[i])``
        and ``t + c[i] * h_dir`` — bit-identical to calling the facade
        once per stage, whatever the chunking, because every executor
        reproduces the serial operand layout (see
        ``SerialExecutor.evaluate_stages``).
        """
        nstages = len(c)
        schedule = (
            self.scheduler.schedule if self.scheduler is not None else None
        )
        chunk = self._resolve_stage_chunk(max(nstages - start, 1))
        i = start
        while i < nstages:
            j = min(i + chunk, nstages)
            self.executor.evaluate_stages(
                t, y, self.params, k, a_rows, c, h_dir, i, j, self._res,
                schedule,
            )
            self._feed_scheduler()
            self.ncalls += j - i
            i = j

    def close(self) -> None:
        self.executor.close()


class VirtualTimeParallelRHS(ParallelRHS):
    """A :class:`ParallelRHS` that also accumulates simulated parallel time.

    Every call evaluates the tasks for real (correct numerics) and then
    charges the round's duration on ``machine`` with ``num_workers`` to a
    virtual clock, using either the static cost-model weights or the
    measured per-task times (``time_source="measured"``).
    """

    #: the virtual clock is charged per __call__, so the K-stage fast
    #: path is disabled: solvers probe ``getattr(f, "eval_stages", None)``
    #: and fall back to one call per stage, which bills every round
    eval_stages = None

    def __init__(
        self,
        program: GeneratedProgram,
        machine: MachineModel,
        num_workers: int,
        params: np.ndarray | None = None,
        scheduler: SemiDynamicScheduler | None = None,
        time_source: str = "static",
        full_state: bool = True,
    ) -> None:
        if time_source not in ("static", "measured"):
            raise ValueError("time_source must be 'static' or 'measured'")
        # Measured times flow into the virtual clock directly (below);
        # they additionally feed the scheduler only when one is present.
        super().__init__(
            program, SerialExecutor(program), params, scheduler,
            feed_measurements=(time_source == "measured"
                               and scheduler is not None),
        )
        self.machine = machine
        self.num_workers = num_workers
        self.time_source = time_source
        self.full_state = full_state
        self.virtual_time = 0.0
        self._static_schedule = lpt_schedule(program.task_graph, num_workers)

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        out = super().__call__(t, y)
        schedule = (
            self.scheduler.schedule if self.scheduler is not None
            else self._static_schedule
        )
        times = (
            self.executor.last_task_times.tolist()
            if self.time_source == "measured" else None
        )
        breakdown = simulate_round(
            self.program.task_graph,
            schedule,
            self.machine,
            self.program.num_states,
            task_times=times,
            full_state=self.full_state,
        )
        self.virtual_time += breakdown.round_time
        return out

    @property
    def rhs_calls_per_second(self) -> float:
        if self.virtual_time == 0:
            return 0.0
        return self.ncalls / self.virtual_time

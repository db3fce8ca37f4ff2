"""Real supervisor/worker execution of generated task functions.

This is the executable counterpart of the simulator: a pool of persistent
workers evaluates the generated per-task RHS functions each round, writing
into disjoint slots of a shared results buffer (so no locking is needed),
with a barrier between dependency levels (partial-sum tasks before their
combining tasks).

The paper runs this one scheme (section 3.2.3) on a shared-memory machine
and on a message-passing one; only the message transport differs.  So
does this module: :class:`_PoolExecutor` holds the round protocol once —
dispatch, the hardened level barrier, the recovery ladder, K-stage rounds
— and :func:`serve` holds the worker side once.  A *transport* supplies
what really differs between kinds of worker: how round buffers are bound
and gathered, how a job reaches a worker and a reply comes back, how
liveness is established, how a worker is killed, and the in-round stage
barrier.  :class:`ThreadedExecutor` picks the thread transport below
(queues, the caller's ndarrays, ``threading.Barrier``);
:class:`~repro.runtime.process_executor.ProcessExecutor` picks the
process transport (pipes, POSIX shared memory, heartbeats).
:class:`SerialExecutor` is the independent one-processor oracle both
must match bit for bit.

Under the CPython GIL the *threaded* pool yields concurrency, not
wall-clock speedup, unless the tasks are native (``backend="c"`` releases
the GIL); it exists to run the actual protocol end-to-end — real
schedules, real per-task timings for the semi-dynamic LPT, and
bit-identical numerics versus the serial RHS.  The discrete-event
:mod:`repro.runtime.simulator` remains the way to study machines larger
than the host.

Fault tolerance
---------------
The original protocol assumed every worker finishes every round; a single
crashed or hung worker deadlocked the supervisor at the level barrier.
The pool instead:

* waits on the barrier with a bounded timeout and checks worker
  liveness, so a dead worker is detected rather than waited on forever,
* re-runs a failed task on its original worker under a
  :class:`RetryPolicy` (bounded attempts + exponential backoff), then
  reassigns it to a healthy worker, then runs it inline on the
  supervisor, before finally declaring the round unrecoverable,
* validates each task's output slots for NaN/Inf before the barrier
  releases (silent numerical faults become retryable task failures),
* kills (where the transport can) every worker it gives up on, so an
  abandoned worker cannot write a stale result into a later round,
* degrades the pool to :class:`SerialExecutor` semantics — all tasks run
  inline on the supervisor thread — once too many workers have died,
* records every fault, retry, reassignment, death and degradation in a
  :class:`~repro.runtime.events.RuntimeEvents` log.

Task re-execution is safe because tasks are side-effect free on disjoint
``res`` slots: re-running one with the same ``(t, y, p)`` writes the same
bytes, which is what keeps recovered rounds bit-identical to
:class:`SerialExecutor`.
"""

from __future__ import annotations

import queue
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..codegen.program import GeneratedProgram
from ..schedule.lpt import Schedule, lpt_schedule
from ..schedule.task import dependency_levels
from .events import RuntimeEvents
from .faults import WORKER_THREAD_PREFIX, FaultInjector, WorkerKill

__all__ = [
    "RetryPolicy",
    "SerialExecutor",
    "TaskFailure",
    "ThreadedExecutor",
    "dependency_levels",
]


class TaskFailure(RuntimeError):
    """A task could not be completed after retries, reassignment and an
    inline attempt.  ``task_id`` and the last underlying ``cause`` are
    attached for post-mortem inspection."""

    def __init__(self, task_id: int, cause: BaseException | None,
                 detail: str = "") -> None:
        message = f"task evaluation failed in a worker (task {task_id}"
        if detail:
            message += f", {detail}"
        message += ")"
        super().__init__(message)
        self.task_id = task_id
        self.cause = cause


class _NonFiniteOutput(RuntimeError):
    """Internal marker: a task completed but produced NaN/Inf outputs."""


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor fights for a failing task.

    ``max_attempts`` bounds executions per worker placement (the original
    worker gets ``max_attempts`` tries, the reassignment target gets
    ``max_attempts`` more, the inline fallback gets one).  Backoff between
    same-worker retries is ``backoff * backoff_factor**(attempt-1)``
    seconds, capped at ``max_backoff``.
    """

    max_attempts: int = 3
    backoff: float = 0.002
    backoff_factor: float = 2.0
    max_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return min(self.backoff * self.backoff_factor ** (attempt - 1),
                   self.max_backoff)


def _stage_state(k: np.ndarray, i: int, a_rows, h_dir: float,
                 y: np.ndarray, out: np.ndarray) -> None:
    """``out = y + h_dir * (k[:i].T @ a_rows[i])``, formed exactly as the
    serial solver loop forms it: the same contiguous ``k`` layout feeds
    the same ``matmul``, which is what keeps every executor bit-identical
    to it."""
    np.matmul(k[:i].T, a_rows[i], out=out)
    out *= h_dir
    out += y


def _evaluate_stagewise(
    executor, t, y, p, k, a_rows, c, h_dir, start, stop, res, schedule,
    accumulate: bool = False,
) -> None:
    """Runge–Kutta stages ``start .. stop-1``, one ``executor.evaluate``
    round per stage, filling rows of ``k`` in place.

    This is :meth:`SerialExecutor.evaluate_stages` and the pessimistic
    path of the pools: every stage goes through the executor's own
    ``evaluate``, so on a pool an aborted optimistic round loses only its
    head start, never any fault tolerance.  The stage state is recomputed
    from the caller's ``k``, so recovered chunks stay bit-identical.
    ``accumulate`` sums the stages' task times, one round per stage, as
    a K-stage chunk does; otherwise the last stage's times are kept.
    """
    n = executor.program.num_states
    y_stage = np.empty(n, dtype=float)
    times = executor.last_task_times
    total = np.zeros_like(times) if accumulate else None
    for i in range(start, stop):
        _stage_state(k, i, a_rows, h_dir, y, y_stage)
        res.fill(0.0)
        executor.evaluate(t + c[i] * h_dir, y_stage, p, res, schedule)
        k[i] = res[:n]
        if accumulate:
            total += times
    if accumulate and stop > start:
        times[:] = total
        executor.last_times_rounds = stop - start
    else:
        executor.last_times_rounds = 1


class SerialExecutor:
    """Evaluates all tasks in the supervisor thread (the 1-processor case),
    measuring per-task wall times for the semi-dynamic scheduler."""

    def __init__(
        self,
        program: GeneratedProgram,
        injector: FaultInjector | None = None,
        events: RuntimeEvents | None = None,
    ) -> None:
        self.program = program
        #: every task, level after level: one runner call per round
        self._order = tuple(
            tid for level in dependency_levels(program.task_graph)
            for tid in level
        )
        self.last_task_times = np.zeros(program.num_tasks)
        #: rounds accumulated in last_task_times (stage chunks accumulate
        #: one round per stage; scheduler feeds divide by this)
        self.last_times_rounds = 1
        self.events = events
        self.injector = injector
        self._run = program.task_runner(injector)

    def evaluate(
        self, t: float, y: np.ndarray, p: np.ndarray, res: np.ndarray,
        schedule=None,
    ) -> None:
        """Evaluate every task in dependency order (``schedule`` is
        accepted for executor-interface parity and ignored: one processor
        has nothing to balance)."""
        times = self.last_task_times
        # Clear stale measurements so an aborted evaluation can never leave
        # the semi-dynamic LPT scheduling from a mix of rounds.
        times[:] = 0.0
        if self.injector is not None:
            self.injector.begin_round()
        self._run(self._order, t, y, p, res, times)

    def evaluate_stages(
        self, t: float, y: np.ndarray, p: np.ndarray, k: np.ndarray,
        a_rows, c, h_dir: float, start: int, stop: int, res: np.ndarray,
        schedule=None,
    ) -> None:
        """Evaluate Runge–Kutta stages ``start .. stop-1`` of the tableau
        ``(a_rows, c)``, filling rows of ``k`` in place.

        This is the reference shape of the K-stage round protocol every
        executor implements: stage ``i`` evaluates the RHS at
        ``y + h_dir * (k[:i].T @ a_rows[i])``.  On one processor there is
        no round-trip to amortise, so this is simply the per-stage loop.
        """
        _evaluate_stagewise(self, t, y, p, k, a_rows, c, h_dir, start, stop,
                            res, schedule)

    def measure_dispatch_overhead(self, trials: int = 5) -> float:
        """Per-round dispatch cost: zero for in-thread evaluation."""
        return 0.0

    def close(self) -> None:  # symmetry with the pools
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the round protocol: what crosses the transport -----------------------------


class _Job(NamedTuple):
    """One dispatch to one worker: the control message, and all of it.

    No array is in it — the arrays of a round are bound by the transport
    — so it is also exactly what crosses a pipe.  ``stop == 0`` is a
    plain round: ``tasks`` is this worker's task ids for one dependency
    level.  Otherwise it is an optimistic K-stage chunk and ``tasks``
    holds one tuple of task ids per dependency level — empty ones
    included, so every participant performs the same number of barrier
    waits.
    """

    epoch: int
    round_index: int
    t: float
    tasks: tuple
    h_dir: float = 0.0
    start: int = 0
    stop: int = 0
    a_rows: tuple = ()
    c: tuple = ()
    participants: tuple = ()
    #: bound on one in-round barrier wait, seconds
    timeout: float = 0.0


class _Reply(NamedTuple):
    """A worker's answer to one :class:`_Job`."""

    epoch: int
    worker: int
    #: plain rounds: the task ids that finished, in order
    completed: tuple
    error: BaseException | None
    failed_tid: int | None
    #: payloads of ``fault_injected`` events of an injector the
    #: supervisor cannot see (one living in a worker process)
    fired: tuple = ()


class _Buffers(NamedTuple):
    """The arrays one worker evaluates a job against."""

    y: np.ndarray
    p: np.ndarray
    res: np.ndarray | None
    #: K-stage chunks: the already-known stage rows ``[:start]``
    k: np.ndarray | None = None
    #: K-stage chunks: one results row per stage of the chunk
    stage_res: np.ndarray | None = None


def serve(job: _Job, worker_id: int, run, times: np.ndarray,
          bufs: _Buffers, barrier) -> _Reply:
    """The worker side of the protocol: run one job, return its reply.

    Both transports run this same function — as the thread target's body
    and inside the worker process's main loop.  It makes one task-runner
    call (``run(ids, t, y, p, res, times)``, see
    :meth:`~repro.codegen.program.GeneratedProgram.task_runner`) per
    dependency level: the transport is crossed once per job, and native
    tasks cross the FFI once per level, never per task.  ``barrier`` has
    ``threading.Barrier``'s ``wait(timeout)`` and ``abort()`` and is only
    used by K-stage chunks.

    In a K-stage chunk every participating worker advances the stage
    state itself and meets the others at ``barrier`` after each
    dependency level — no supervisor round-trip between stages.  It
    keeps a *private contiguous* copy ``kk`` of the stage rows so its
    ``matmul`` sees exactly the serial solver's operand layout
    (bit-identity).  Any fault aborts the barrier, so the whole pool
    bails out in one phase and the supervisor re-runs the chunk through
    the hardened per-stage path.  Task times are written per stage into
    a private ``laps`` row and added into ``times`` when the chunk ends,
    so a chunk accumulates one round per stage.

    :class:`WorkerKill` (a simulated crash) propagates: the caller must
    die without a farewell message — exactly the failure the liveness
    check and the bounded barrier exist to survive.
    """
    completed: tuple = ()
    error: BaseException | None = None
    failed_tid: int | None = None
    ids: tuple = ()  # the task list being run, () between runner calls
    try:
        y, p = bufs.y, bufs.p
        if not job.stop:
            ids = job.tasks
            run(ids, job.t, y, p, bufs.res, times)
            completed = ids
        else:
            n = y.shape[0]
            c = np.asarray(job.c, dtype=np.float64)
            a_rows = [np.asarray(row, dtype=np.float64)
                      for row in job.a_rows]
            kk = np.empty((len(c), n), dtype=np.float64)
            kk[:job.start] = bufs.k[:job.start, :n]
            y_stage = np.empty(n, dtype=np.float64)
            laps = np.zeros((job.stop - job.start, times.shape[0]))
            for i in range(job.start, job.stop):
                _stage_state(kk, i, a_rows, job.h_dir, y, y_stage)
                ti = job.t + c[i] * job.h_dir
                row = bufs.stage_res[i - job.start]
                for ids in job.tasks:
                    run(ids, ti, y_stage, p, row, laps[i - job.start])
                    ids = ()
                    barrier.wait(job.timeout)
                kk[i] = row[:n]
            mine = [tid for level in job.tasks for tid in level]
            times[mine] += laps[:, mine].sum(axis=0)
    except WorkerKill:
        raise
    except threading.BrokenBarrierError as exc:
        error = exc  # somebody else aborted the round
    except BaseException as exc:  # noqa: BLE001 - forwarded
        if job.stop:
            barrier.abort()
        error = exc
        # A per-task runner names the task that raised; a failing batch
        # call is charged to the first task of its list.
        failed_tid = getattr(exc, "failed_task", ids[0] if ids else None)
        if not job.stop and failed_tid in ids:
            completed = ids[:ids.index(failed_tid)]
    # Always reply — a swallowed failure here would stall the supervisor
    # until the barrier timeout.
    return _Reply(job.epoch, worker_id, completed, error, failed_tid)


# -- the pool core ----------------------------------------------------------------


class _PoolExecutor:
    """The supervisor side of the round protocol, over any transport.

    Each round the supervisor binds ``(y, p, res)`` to the transport and
    sends every worker its task list for the current dependency level; a
    barrier separates levels.  Results land in disjoint ``res`` slots.

    See the module docstring for the fault-tolerance semantics; all the
    knobs have safe defaults (``retry_policy=RetryPolicy()``,
    ``level_timeout=30`` seconds, output validation on).

    A transport provides ``times`` (the per-task wall-time array workers
    write), ``max_stages`` (tableau rows a K-stage chunk may carry) and:

    ``bind(y, p, res) -> _Buffers``
        make a round's arrays visible to the workers; returns the arrays
        the supervisor itself must read and write for that round.
    ``bind_stages(y, p, res, k, start, nstages, participants) -> stage_res``
        the same for a K-stage chunk, plus a fresh in-round barrier for
        ``participants``; returns the zeroed per-stage results rows, each
        laid out like ``res``.
    ``gather(res, times)``
        bring results (``res`` may be ``None``) and task times back.
    ``send(worker, job) -> bool``
        False when the worker can no longer be reached.
    ``replies(workers, timeout) -> [(worker, reply | None), ...]``
        whatever arrived within ``timeout``; ``None`` is end-of-stream
        from that worker.
    ``alive(worker)``, ``why_dead(worker)``, ``kill(worker)``
    ``abort_stages(epoch)``
        break the in-round barrier of that epoch's chunk.
    ``close(join_timeout) -> [worker, ...]``
        stop everything; returns the workers that did not stop in time.
    """

    def __init__(
        self,
        program: GeneratedProgram,
        num_workers: int,
        *,
        injector: FaultInjector | None = None,
        events: RuntimeEvents | None = None,
        retry_policy: RetryPolicy | None = None,
        level_timeout: float = 30.0,
        validate_outputs: bool = True,
        min_workers: int = 1,
        join_timeout: float = 5.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if level_timeout <= 0:
            raise ValueError("level_timeout must be positive")
        if min_workers < 0:
            raise ValueError("min_workers must be non-negative")
        self.program = program
        self.num_workers = num_workers
        self._levels = dependency_levels(program.task_graph)
        self._num_params = int(program.param_vector().size)
        self.last_task_times = np.zeros(program.num_tasks)
        #: rounds accumulated into last_task_times by the previous call
        #: (K for a stage chunk, 1 for a plain round); scheduler feeds
        #: divide by this to recover per-round task times
        self.last_times_rounds = 1

        self.events = events if events is not None else RuntimeEvents()
        self.injector = injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.level_timeout = level_timeout
        self.validate_outputs = validate_outputs
        self.min_workers = min_workers
        self.join_timeout = join_timeout

        #: the LPT schedule of rounds that are not handed one
        self._default_schedule = lpt_schedule(program.task_graph, num_workers)
        #: the task runner: the workers' and the supervisor's own (inline
        #: fallback / degraded mode)
        self._run = program.task_runner(injector)
        self._slots = [
            np.asarray(program.task_output_slots(tid), dtype=int)
            for tid in range(program.num_tasks)
        ]
        self._closing = False
        self._epoch = 0  # bumped per dispatch; stale replies dropped
        self._round = -1
        self._dead: set[int] = set()
        self.degraded = False
        #: set by the subclass constructor, once the options are validated
        self._transport = None

    # -- liveness and degradation -----------------------------------------------

    def _healthy_workers(self) -> list[int]:
        return [w for w in range(self.num_workers)
                if w not in self._dead and self._transport.alive(w)]

    def _sweep(self) -> list[int]:
        """The healthy workers, after recording as dead any that stopped
        since the pool last looked — so a worker that died *between*
        rounds is logged, not just silently remapped around."""
        healthy = []
        for w in range(self.num_workers):
            if w in self._dead:
                continue
            if self._transport.alive(w):
                healthy.append(w)
            else:
                self._mark_dead(w, self._transport.why_dead(w))
        return healthy

    def _mark_dead(self, worker_id: int, reason: str) -> None:
        if worker_id in self._dead:
            return
        self._dead.add(worker_id)
        # Make death final: an abandoned-but-running worker must never
        # write a stale result into the buffer of a later round.
        self._transport.kill(worker_id)
        self.events.record("worker_dead", worker=worker_id, reason=reason)
        if (not self.degraded
                and len(self._healthy_workers()) < max(self.min_workers, 1)):
            self.degraded = True
            self.events.record(
                "degraded", healthy=len(self._healthy_workers()),
                min_workers=self.min_workers,
            )
            warnings.warn(
                f"{type(self).__name__} degraded to serial execution: "
                f"{len(self._dead)} of {self.num_workers} workers dead",
                RuntimeWarning,
                stacklevel=3,
            )

    def _send(self, worker_id: int, job: _Job) -> bool:
        if self._transport.send(worker_id, job):
            return True
        self._mark_dead(worker_id, "pipe closed")
        return False

    def _log_fired(self, reply: _Reply | None) -> None:
        """Log the faults a worker-side injector fired for ``reply``.

        Called on every reply read, before any is dropped as stale: the
        faults in a dropped reply fired all the same.
        """
        if reply is not None:
            for fired in reply.fired:
                self.events.record("fault_injected", **fired)

    # -- inline execution ---------------------------------------------------------

    def _validate_task_outputs(self, tid: int, res: np.ndarray) -> None:
        slots = self._slots[tid]
        if slots.size and not np.all(np.isfinite(res[slots])):
            raise _NonFiniteOutput(
                f"task {tid} produced non-finite output"
            )

    def _run_inline(self, tid: int, t: float, bufs: _Buffers,
                    cause: BaseException | None = None) -> None:
        """Execute one task on the supervisor thread (last-resort path and
        the degraded mode), with the same timing and validation; a
        failure here is final.  ``cause`` is what drove the task off its
        workers, kept when the inline run fails less informatively."""
        try:
            self._run((tid,), t, bufs.y, bufs.p, bufs.res,
                      self._transport.times)
            if self.validate_outputs:
                self._validate_task_outputs(tid, bufs.res)
        except _NonFiniteOutput as exc:
            raise TaskFailure(tid, cause or exc, "non-finite output") from exc
        except Exception as exc:
            raise TaskFailure(tid, exc) from exc

    # -- the hardened barrier ---------------------------------------------------

    def _run_level(self, level: list[int], assignment, t: float,
                   bufs: _Buffers, round_index: int) -> None:
        """Dispatch one dependency level and survive worker failures.

        ``outstanding`` maps worker -> tasks currently assigned to it; a
        task bounces original-worker retries -> reassignment -> inline
        before :class:`TaskFailure` is raised.
        """
        healthy = set(self._sweep())
        if self.degraded:
            for tid in level:
                self._run_inline(tid, t, bufs)
            return
        policy = self.retry_policy
        transport = self._transport
        self._epoch += 1
        epoch = self._epoch

        outstanding: dict[int, list[int]] = {}
        pending: dict[int, list[int]] = {}
        for tid in level:
            w = assignment[tid]
            if w not in healthy:
                # Scheduled worker already dead: remap to any healthy one.
                w = min(healthy, key=lambda h: len(pending.get(h, [])),
                        default=-1)
            pending.setdefault(w, []).append(tid)

        inline_tasks = pending.pop(-1, [])
        #: executions so far per task, per placement stage
        attempts: dict[int, int] = {tid: 0 for tid in level}
        #: tasks that already exhausted a reassignment placement
        reassigned: set[int] = set()

        def dispatch(worker_id: int, task_ids: list[int]) -> None:
            outstanding[worker_id] = list(task_ids)
            job = _Job(epoch, round_index, t, tuple(task_ids))
            if not self._send(worker_id, job):
                del outstanding[worker_id]
                fail_over(task_ids, worker_id, None)

        def fail_over(task_ids: list[int], from_worker: int,
                      cause: BaseException | None) -> None:
            """Move tasks off ``from_worker`` to another idle worker, or run
            them inline when there is none."""
            if not task_ids:
                return
            targets = [w for w in self._healthy_workers()
                       if w not in outstanding and w != from_worker]
            fresh = [tid for tid in task_ids if tid not in reassigned]
            burnt = [tid for tid in task_ids if tid in reassigned]
            if fresh and targets:
                target = targets[0]
                for tid in fresh:
                    reassigned.add(tid)
                    attempts[tid] = 0
                self.events.record(
                    "task_reassigned", tasks=tuple(fresh),
                    from_worker=from_worker, to_worker=target,
                )
                dispatch(target, fresh)
            else:
                burnt = burnt + (fresh if not targets else [])
            if burnt:
                self.events.record(
                    "task_inline", tasks=tuple(burnt),
                    from_worker=from_worker,
                )
            for tid in burnt:
                self._run_inline(tid, t, bufs, cause)

        def abandon(worker_id: int, reason: str) -> None:
            task_ids = outstanding.pop(worker_id)
            self._mark_dead(worker_id, reason)
            fail_over(task_ids, worker_id, None)

        # Claim every placement before the first send: a failed send must
        # not fail over onto a worker whose own job is still to go out
        # (its reply to the first job would be taken for both).
        outstanding.update(pending)
        for w, task_ids in pending.items():
            dispatch(w, task_ids)
        # Tasks that never had a live worker run inline immediately.
        fail_over(inline_tasks, -1, None)

        deadline = time.monotonic() + self.level_timeout
        while outstanding:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Barrier timeout: every still-outstanding worker is hung
                # (or died unnoticed).  Abandon them and fail their tasks
                # over; any eventual stale reply is dropped by epoch.
                for w in list(outstanding):
                    self.events.record(
                        "worker_timeout", worker=w,
                        tasks=tuple(outstanding[w]),
                        timeout=self.level_timeout,
                    )
                    abandon(w, "round timeout")
                deadline = time.monotonic() + self.level_timeout
                continue

            arrived = transport.replies(outstanding, min(remaining, 0.05))
            if not arrived:
                # Liveness check: a worker that died outside a task (or
                # was killed, by an injected fault or a real SIGKILL)
                # never replies.
                for w in list(outstanding):
                    if not transport.alive(w):
                        abandon(w, transport.why_dead(w))
                continue

            for w, reply in arrived:
                self._log_fired(reply)
                if w not in outstanding:
                    continue
                if reply is None:
                    abandon(w, transport.why_dead(w))
                    continue
                if reply.epoch != epoch or reply.worker != w:
                    continue  # stale reply from an abandoned dispatch
                task_ids = outstanding.pop(w)
                completed = reply.completed
                error, failed_tid = reply.error, reply.failed_tid

                # Validate outputs of everything the worker claims done.
                bad_output: int | None = None
                if self.validate_outputs:
                    for tid in completed:
                        try:
                            self._validate_task_outputs(tid, bufs.res)
                        except _NonFiniteOutput as exc:
                            bad_output = tid
                            error = exc
                            failed_tid = tid
                            self.events.record(
                                "task_nonfinite", task=tid, worker=w,
                            )
                            break

                if error is None:
                    continue  # worker finished its list cleanly

                assert failed_tid is not None
                if bad_output is None:
                    self.events.record(
                        "task_error", task=failed_tid, worker=w,
                        error=type(error).__name__,
                    )
                done_ok = (completed if bad_output is None
                           else completed[: completed.index(bad_output)])
                still_todo = [tid for tid in task_ids if tid not in done_ok]
                attempts[failed_tid] += 1

                if (attempts[failed_tid] < policy.max_attempts
                        and w not in self._dead and transport.alive(w)):
                    delay = policy.delay(attempts[failed_tid])
                    if delay > 0:
                        time.sleep(delay)
                    self.events.record(
                        "task_retry", task=failed_tid, worker=w,
                        attempt=attempts[failed_tid] + 1,
                    )
                    dispatch(w, still_todo)
                else:
                    fail_over(still_todo, w, error)

    # -- public API -------------------------------------------------------------

    def _check_call(self, p, schedule: Schedule | None):
        """Checks common to both entry points; returns ``(p, schedule)``
        with the defaults filled in."""
        if self._closing:
            raise RuntimeError("executor is closed")
        if schedule is None:
            schedule = self._default_schedule
        if schedule.num_workers != self.num_workers:
            raise ValueError(
                f"schedule is for {schedule.num_workers} workers, pool has "
                f"{self.num_workers}"
            )
        # Native tasks read ``p`` through a raw pointer with no bounds
        # check, and a short vector would otherwise walk the whole
        # recovery ladder into a misleading TaskFailure.
        p = np.asarray(p, dtype=float)
        if p.size != self._num_params:
            raise ValueError(
                f"parameter vector has {p.size} entries, program expects "
                f"{self._num_params}"
            )
        return p, schedule

    def _begin_round(self) -> int:
        self._round += 1
        if self.injector is not None:
            return self.injector.begin_round()
        return self._round

    def evaluate(
        self,
        t: float,
        y: np.ndarray,
        p: np.ndarray,
        res: np.ndarray,
        schedule: Schedule | None = None,
    ) -> None:
        """Run one RHS round under ``schedule`` (defaults to LPT)."""
        p, schedule = self._check_call(p, schedule)
        self._ladder_round(t, y, p, res, schedule, self._begin_round())

    def _ladder_round(self, t, y, p, res, schedule: Schedule,
                      round_index: int) -> None:
        """One round over the transport, level by level through the
        hardened barrier of :meth:`_run_level`."""
        bufs = self._transport.bind(y, p, res)
        # Clear stale measurements so an aborted evaluation can never leave
        # the semi-dynamic LPT scheduling from a mix of rounds.
        self._transport.times[:] = 0.0
        try:
            for level in self._levels:
                self._run_level(level, schedule.assignment, t, bufs,
                                round_index)
        finally:
            self._transport.gather(res, self.last_task_times)
            self.last_times_rounds = 1

    # -- K-stage rounds ---------------------------------------------------------

    def evaluate_stages(
        self, t: float, y: np.ndarray, p: np.ndarray, k: np.ndarray,
        a_rows, c, h_dir: float, start: int, stop: int, res: np.ndarray,
        schedule: Schedule | None = None,
    ) -> None:
        """Evaluate RK stages ``start .. stop-1`` with one dispatch per
        worker instead of one per stage.

        Optimistic fast path: every participating worker receives the
        whole chunk up front and advances stage-local state itself,
        meeting the others at the transport's in-round barrier per
        dependency level — no supervisor round-trip between stages (see
        :func:`serve`).  On ANY fault (exception, crash, hang past the
        barrier timeout, non-finite output) the round aborts and the
        chunk re-runs through :func:`_evaluate_stagewise`, which
        preserves the full retry → reassign → inline → degrade ladder.
        Safe because tasks are pure functions of ``(t, y, p)`` writing
        disjoint slots: re-execution writes the same bytes.
        """
        p, schedule = self._check_call(p, schedule)
        if stop <= start:
            return
        round_index = self._begin_round()
        transport = self._transport
        alive = set(self._sweep())
        # Per-worker task lists per level (dead workers' tasks remapped).
        worker_levels: dict[int, list[list[int]]] = {}
        num_levels = len(self._levels)
        if alive and not self.degraded and len(c) <= transport.max_stages:
            for li, level in enumerate(self._levels):
                for tid in level:
                    w = schedule.assignment[tid]
                    if w not in alive:
                        w = min(alive, key=lambda h: sum(
                            len(lv) for lv in worker_levels.get(h, ())
                        ))
                    rows = worker_levels.setdefault(
                        w, [[] for _ in range(num_levels)]
                    )
                    rows[li].append(tid)
        participants = tuple(sorted(worker_levels))
        if not participants:
            _evaluate_stagewise(self, t, y, p, k, a_rows, c, h_dir, start,
                                stop, res, schedule)
            return

        nstages = stop - start
        n = self.program.num_states
        stage_res = transport.bind_stages(y, p, res, k, start, nstages,
                                          participants)
        transport.times[:] = 0.0
        self._epoch += 1
        epoch = self._epoch
        waiting: set[int] = set()
        ok = True
        for w in participants:
            job = _Job(
                epoch, round_index, float(t),
                tuple(tuple(lv) for lv in worker_levels[w]),
                float(h_dir), start, stop, a_rows, c, participants,
                self.level_timeout,
            )
            if self._send(w, job):
                waiting.add(w)
            else:
                ok = False  # a missing participant: the barrier cannot fill

        deadline = (time.monotonic()
                    + self.level_timeout * nstages * num_levels + 1.0)
        while ok and waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Whole-chunk timeout: abandon the round; late workers
                # exit through the aborted barrier and their stale
                # replies are dropped by epoch.
                ok = False
                break
            arrived = transport.replies(waiting, min(remaining, 0.05))
            lost = [w for w, reply in arrived if reply is None]
            if not arrived:
                lost = [w for w in waiting if not transport.alive(w)]
            for w in lost:
                # A crashed participant never replies and never reaches
                # the barrier.  Its tasks move to the survivors when the
                # chunk re-runs through the hardened path.
                waiting.discard(w)
                self._mark_dead(w, transport.why_dead(w))
                self.events.record(
                    "task_reassigned",
                    tasks=tuple(tid for lv in worker_levels[w]
                                for tid in lv),
                    from_worker=w, to_worker=-1,
                )
                ok = False
            for w, reply in arrived:
                self._log_fired(reply)
                if (reply is None or w not in waiting
                        or reply.epoch != epoch or reply.worker != w):
                    continue  # straggler from an abandoned dispatch
                waiting.discard(w)
                if reply.error is not None:
                    ok = False
                    if not isinstance(reply.error,
                                      threading.BrokenBarrierError):
                        self.events.record(
                            "stage_task_error", task=reply.failed_tid,
                            worker=w, error=type(reply.error).__name__,
                        )
        if ok and self.validate_outputs and not np.all(
            np.isfinite(stage_res)
        ):
            ok = False
            self.events.record("stage_nonfinite", start=start, stop=stop)
        if not ok:
            # Release any participant still at (or on its way to) the
            # barrier, so the survivors bail out now.
            transport.abort_stages(epoch)
            self.events.record(
                "stage_round_aborted", start=start, stop=stop,
            )
            # Invalidate the optimistic round before re-running: bump the
            # epoch so any straggler reply is recognisably stale.
            self._epoch += 1
            _evaluate_stagewise(self, t, y, p, k, a_rows, c, h_dir, start,
                                stop, res, schedule)
            return
        k[start:stop] = stage_res[:, :n]
        res[:] = stage_res[nstages - 1]
        transport.gather(None, self.last_task_times)
        self.last_times_rounds = nstages

    def measure_dispatch_overhead(self, trials: int = 5) -> float:
        """One-shot microcalibration: seconds per empty dispatch round.

        Times a full supervisor→workers→supervisor round-trip carrying no
        tasks — the fixed cost every per-stage round pays, and what the
        granularity auto-tuner amortises by batching K stages per trip.
        A pool that runs everything inline has no dispatch to amortise:
        0.0, so the tuner picks K = 1 for it.
        """
        transport = self._transport
        healthy = self._healthy_workers()
        samples = []
        while (len(samples) < max(1, trials) and healthy
               and not self.degraded):
            self._epoch += 1
            job = _Job(self._epoch, self._round, 0.0, ())
            t0 = time.perf_counter()
            waiting = {w for w in healthy if self._send(w, job)}
            deadline = time.monotonic() + self.level_timeout
            while waiting and time.monotonic() < deadline:
                arrived = transport.replies(waiting, 0.05)
                if not arrived:
                    waiting = {w for w in waiting if transport.alive(w)}
                for w, reply in arrived:
                    self._log_fired(reply)
                    if reply is None or (reply.epoch == job.epoch
                                         and reply.worker == w):
                        waiting.discard(w)
            samples.append(time.perf_counter() - t0)
            healthy = self._healthy_workers()
        return float(np.median(samples)) if samples else 0.0

    def close(self) -> None:
        """Shut the pool down; idempotent and safe under a half-dead pool.

        Workers get a farewell and ``join_timeout`` to stop; what the
        transport does with the ones that do not (and with anything else
        it owns) is in its own ``close``."""
        if self._closing:
            return
        self._closing = True
        if self._transport is None:
            return
        for w in self._transport.close(self.join_timeout):
            self.events.record("close_timeout", worker=w,
                               timeout=self.join_timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort leak guard
        try:
            self.close()
        except Exception:
            pass


# -- the thread transport ---------------------------------------------------------


class _ThreadTransport:
    """Worker threads in the supervisor's address space.

    Nothing is copied: a round's buffers are the caller's own ndarrays,
    handed to each worker by reference next to its job, and workers write
    task times straight into the executor's ``last_task_times``.  Jobs go
    down one ``queue.Queue`` per worker and replies come back on a shared
    one; the in-round stage barrier is a ``threading.Barrier``, a fresh
    one per chunk so an aborted round leaves no broken generation behind.
    """

    #: a chunk lives in ordinary memory, so any tableau fits
    max_stages = sys.maxsize

    def __init__(self, num_workers: int, run, times: np.ndarray) -> None:
        self.run = run
        self.times = times
        self.zombies: list[int] = []
        self._inboxes = [queue.Queue() for _ in range(num_workers)]
        self._done: queue.Queue = queue.Queue()
        #: (buffers, barrier) of the round being dispatched
        self._round: tuple = (None, None)
        self._threads = []
        for w in range(num_workers):
            thread = threading.Thread(
                target=self._worker_loop, args=(w,), daemon=True,
                name=f"{WORKER_THREAD_PREFIX}{w}",
            )
            thread.start()
            self._threads.append(thread)

    def _worker_loop(self, worker_id: int) -> None:
        inbox = self._inboxes[worker_id]
        while True:
            item = inbox.get()
            if item is None:
                return
            job, bufs, barrier = item
            try:
                reply = serve(job, worker_id, self.run, self.times, bufs,
                              barrier)
            except WorkerKill:
                return  # simulated crash: die silently
            self._done.put(reply)

    def bind(self, y, p, res):
        bufs = _Buffers(y, p, res)
        self._round = (bufs, None)
        return bufs

    def bind_stages(self, y, p, res, k, start, nstages, participants):
        stage_res = np.zeros((nstages, res.size))
        self._round = (_Buffers(y, p, None, k, stage_res),
                       threading.Barrier(len(participants)))
        return stage_res

    def gather(self, res, times) -> None:
        pass  # workers wrote the caller's arrays directly

    def send(self, worker_id: int, job: _Job) -> bool:
        self._inboxes[worker_id].put((job, *self._round))
        return True

    def replies(self, workers, timeout: float):
        try:
            reply = self._done.get(timeout=timeout)
        except queue.Empty:
            return []
        return [(reply.worker, reply)]

    def alive(self, worker_id: int) -> bool:
        return self._threads[worker_id].is_alive()

    def why_dead(self, worker_id: int) -> str:
        return "thread died"

    def kill(self, worker_id: int) -> None:
        pass  # a thread cannot be killed; it is only never used again

    def abort_stages(self, epoch: int) -> None:
        self._round[1].abort()

    def close(self, join_timeout: float) -> list[int]:
        """Workers that fail to join within ``join_timeout`` are recorded
        in ``zombies`` and reported with a :class:`RuntimeWarning` (they
        are daemon threads, so they cannot outlive the process)."""
        for inbox in self._inboxes:
            inbox.put(None)
        for w, thread in enumerate(self._threads):
            thread.join(timeout=join_timeout)
            if thread.is_alive():
                self.zombies.append(w)
        if self.zombies:
            warnings.warn(
                f"ThreadedExecutor.close: worker(s) {self.zombies} "
                f"did not join within {join_timeout}s (left as daemon "
                "zombies)",
                RuntimeWarning,
                stacklevel=3,
            )
        return self.zombies


class ThreadedExecutor(_PoolExecutor):
    """Persistent worker threads executing scheduled task lists: the
    round protocol of :class:`_PoolExecutor` over the thread transport.

    A native program run without a fault injector takes the glue's
    thread pool instead (``NativeModule.pool``): a round is one C call
    that releases the GIL once, the calling thread runs worker 0's share,
    and ``num_workers - 1`` pthreads run the others', with a barrier
    after each dependency level and no Python in between.  A round whose
    results are not finite (under ``validate_outputs``), or in which a
    worker misses ``level_timeout``, is re-run through the hardened
    barrier on the thread transport, whose threads are parked until then,
    so the recovery ladder and its events are those of any other round.
    A missed deadline also retires the pool for good.

    Options (all keyword-only): ``injector``, ``events``,
    ``retry_policy``, ``level_timeout``, ``validate_outputs``,
    ``min_workers``, ``join_timeout`` — see :class:`_PoolExecutor`.
    """

    def __init__(self, program: GeneratedProgram, num_workers: int,
                 **options) -> None:
        #: the glue's thread pool, while native rounds are on
        self._pool = None
        super().__init__(program, num_workers, **options)
        self._transport = _ThreadTransport(
            num_workers, self._run, self.last_task_times
        )
        native = program.native_module
        if native is None or self.injector is not None:
            return
        try:
            self._pool = native.pool(num_workers, self._levels,
                                     self.level_timeout)
        except OSError:  # no threads to be had: the transport serves
            return
        #: the schedule the pool's task tables were built for
        self._pool_schedule: Schedule | None = None
        owned = np.unique(np.concatenate(self._slots)) if self._slots else ()
        #: the result slots a round writes, checked for NaN/Inf
        self._checked = (slice(None) if len(owned) == program.num_states
                         + program.num_partials else owned)

    @property
    def zombie_workers(self) -> list[int]:
        """Workers that did not join within ``join_timeout`` at close."""
        return self._transport.zombies

    def _pool_round(self, t, y, p, res, schedule: Schedule) -> bool:
        """One round on the pool; False sends it to the ladder."""
        pool = self._pool
        if schedule is not self._pool_schedule:
            pool.assign(schedule.assignment)
            self._pool_schedule = schedule
        try:
            done = pool.round(t, y, p, res, self.last_task_times)
        except ValueError:  # a buffer the tasks cannot take: as today
            return False
        if not done:
            self._retire_pool()
            return False
        self.last_times_rounds = 1
        return (not self.validate_outputs
                or bool(np.isfinite(res[self._checked]).all()))

    def _retire_pool(self) -> None:
        """A worker missed ``level_timeout``: stop the pool for good."""
        pool, self._pool = self._pool, None
        stuck = pool.close(self.join_timeout)
        self.events.record("pool_retired", reason="round timeout",
                           timeout=self.level_timeout, stuck_threads=stuck)

    def evaluate(
        self,
        t: float,
        y: np.ndarray,
        p: np.ndarray,
        res: np.ndarray,
        schedule: Schedule | None = None,
    ) -> None:
        """Run one RHS round under ``schedule`` (defaults to LPT)."""
        p, schedule = self._check_call(p, schedule)
        round_index = self._begin_round()
        if self._pool is None or not self._pool_round(t, y, p, res,
                                                      schedule):
            self._ladder_round(t, y, p, res, schedule, round_index)

    def evaluate_stages(
        self, t: float, y: np.ndarray, p: np.ndarray, k: np.ndarray,
        a_rows, c, h_dir: float, start: int, stop: int, res: np.ndarray,
        schedule: Schedule | None = None,
    ) -> None:
        """On the pool, one round per stage: a round costs about what a
        chunk's in-round barrier does, and the stage states stay the
        serial solver's ``matmul``.  Otherwise the K-stage chunk of
        :meth:`_PoolExecutor.evaluate_stages`."""
        if self._pool is None:
            super().evaluate_stages(t, y, p, k, a_rows, c, h_dir, start,
                                    stop, res, schedule)
            return
        p, schedule = self._check_call(p, schedule)
        _evaluate_stagewise(self, t, y, p, k, a_rows, c, h_dir, start, stop,
                            res, schedule, accumulate=True)

    def measure_dispatch_overhead(self, trials: int = 5) -> float:
        """On the pool: seconds per empty pool round."""
        samples = []
        while self._pool is not None and len(samples) < max(1, trials):
            t0 = time.perf_counter()
            if not self._pool.empty_round():
                self._retire_pool()
                break
            samples.append(time.perf_counter() - t0)
        if self._pool is None:
            return super().measure_dispatch_overhead(trials)
        return float(np.median(samples))

    def close(self) -> None:
        """Join the pool's threads, then close the transport."""
        pool, self._pool = getattr(self, "_pool", None), None
        if pool is not None:
            stuck = pool.close(self.join_timeout)
            if stuck:
                self.events.record("close_timeout", pool_threads=stuck,
                                   timeout=self.join_timeout)
        super().close()

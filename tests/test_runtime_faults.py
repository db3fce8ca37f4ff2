"""Fault-tolerance tests: the scripted fault matrix for the hardened
supervisor/worker runtime.

Every injector mode is exercised against every recovery outcome — retry on
the same worker succeeds, reassignment to a healthy worker succeeds, the
pool degrades to serial execution, or the fault is unrecoverable — and
every recovered evaluation is asserted bit-identical to
``SerialExecutor`` (tasks are pure functions of ``(t, y, p)`` on disjoint
slots, so recovery must not change a single bit).

The ladder is one implementation over two transports, so a case that
does not depend on the kind of worker is written once, as a ``check_*``
function taking the pool class, and run on both pools: from the classes
below for ``ThreadedExecutor`` and from ``tests/test_process_executor.py``
for ``ProcessExecutor``.  ``TestCoreOverFakeTransport`` drives the same
core with no workers at all.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ParallelRHS,
    ProcessExecutor,
    RetryPolicy,
    RuntimeEvents,
    SerialExecutor,
    TaskFailure,
    ThreadedExecutor,
)
from repro.runtime.supervisor import (
    _Buffers,
    _PoolExecutor,
    dependency_levels,
    serve,
)
from repro.schedule import lpt_schedule
from repro.solver import solve_ivp
from repro.solver.rk import DOPRI_A, DOPRI_C

RECOVERABLE_MODES = ("raise", "nan", "inf")
POOLS = [ThreadedExecutor, ProcessExecutor]


@pytest.fixture(scope="module")
def program(compiled_small_bearing):
    return compiled_small_bearing.program


@pytest.fixture(scope="module")
def reference(program):
    """The serial result vector every recovered round must reproduce."""
    res = program.results_buffer()
    SerialExecutor(program).evaluate(
        0.0, program.start_vector(), program.param_vector(), res
    )
    return res


def _evaluate(executor, program):
    res = program.results_buffer()
    executor.evaluate(0.0, program.start_vector(), program.param_vector(),
                      res)
    return res


def _task_on_worker(program, num_workers, worker):
    """A task id the default LPT schedule places on ``worker``."""
    schedule = lpt_schedule(program.task_graph, num_workers)
    for tid in range(program.num_tasks):
        if schedule.assignment[tid] == worker:
            return tid
    pytest.skip(f"no task scheduled on worker {worker}")


# -- cases that hold for either pool ---------------------------------------------


def check_retry_recovers(pool, program, reference, mode):
    """A count=1 fault: the first re-execution on the same worker is
    clean, and the round is bit-identical."""
    tid = _task_on_worker(program, 2, worker=0)
    events = RuntimeEvents()
    injector = FaultInjector(
        [FaultSpec(task_id=tid, mode=mode, worker=0, count=1)],
        events=events,
    )
    with pool(program, 2, injector=injector, events=events) as executor:
        res = _evaluate(executor, program)
    assert np.array_equal(res, reference)
    assert events.count("fault_injected") == 1
    assert events.count("task_retry") == 1
    assert events.count("task_reassigned") == 0
    assert events.count("task_nonfinite") == (0 if mode == "raise" else 1)
    assert not executor.degraded


def check_persistent_fault_moves_off_the_worker(pool, program, reference,
                                                mode):
    """Retries on worker 0 keep failing, so the task leaves it: to worker
    1 if that one is idle by then, inline if it is still busy — never
    "reassigned" back to worker 0."""
    tid = _task_on_worker(program, 2, worker=0)
    events = RuntimeEvents()
    injector = FaultInjector(
        [FaultSpec(task_id=tid, mode=mode, worker=0, count=-1)],
        events=events,
    )
    with pool(program, 2, injector=injector, events=events) as executor:
        res = _evaluate(executor, program)
    assert np.array_equal(res, reference)
    (moved,) = (events.of_kind("task_reassigned")
                + events.of_kind("task_inline"))
    assert tid in moved.data["tasks"]
    assert moved.data["from_worker"] == 0
    if moved.kind == "task_reassigned":
        assert moved.data["to_worker"] != moved.data["from_worker"]


def check_hung_worker_hits_round_timeout(pool, program, reference):
    tid = _task_on_worker(program, 2, worker=0)
    events = RuntimeEvents()
    injector = FaultInjector(
        [FaultSpec(task_id=tid, mode="hang", worker=0, hang_seconds=1.5,
                   count=1)],
        events=events,
    )
    with pool(program, 2, injector=injector, events=events,
              level_timeout=0.3) as executor:
        start = time.monotonic()
        res = _evaluate(executor, program)
        assert time.monotonic() - start < 10.0  # no deadlock
        assert np.array_equal(res, reference)
    assert events.count("worker_timeout") == 1
    assert events.count("worker_dead") == 1


def check_kill_reassigns_dead_workers_tasks(pool, program, reference):
    """A worker dies inside a task with no farewell message; the round
    must complete bit-identically with the recovery logged, not
    deadlock."""
    tid = _task_on_worker(program, 2, worker=0)
    events = RuntimeEvents()
    injector = FaultInjector(
        [FaultSpec(task_id=tid, mode="kill", worker=0, count=1)],
        events=events,
    )
    with pool(program, 2, injector=injector, events=events,
              level_timeout=5.0) as executor:
        res = _evaluate(executor, program)
        assert np.array_equal(res, reference)
        # The dead worker's tasks went *somewhere* on the recovery
        # ladder: reassigned if the survivor was idle at detection
        # time, inline on the supervisor if it was still busy.
        assert (events.count("task_reassigned")
                + events.count("task_inline")
                + events.count("worker_timeout")) >= 1
        # The pool keeps working with the surviving worker.
        assert np.array_equal(_evaluate(executor, program), reference)
    assert events.count("worker_dead") == 1
    assert events.of_kind("worker_dead")[0].data["worker"] == 0


def check_all_workers_dead_degrades(pool, program, reference):
    events = RuntimeEvents()
    specs = [
        FaultSpec(task_id=tid, mode="kill", worker=w, count=1)
        for w in range(2)
        for tid in [_task_on_worker(program, 2, w)]
    ]
    injector = FaultInjector(specs, events=events)
    with pytest.warns(RuntimeWarning, match="degraded to serial"):
        with pool(program, 2, injector=injector, events=events,
                  level_timeout=5.0) as executor:
            res = _evaluate(executor, program)
            assert np.array_equal(res, reference)
            assert executor.degraded
    assert events.count("worker_dead") == 2
    assert events.count("degraded") == 1


def check_closed_executor_rejects_work(pool, program):
    executor = pool(program, num_workers=1)
    executor.close()
    executor.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        _evaluate(executor, program)


def check_schedule_mismatch(pool, program):
    schedule = lpt_schedule(program.task_graph, 5)
    with pool(program, num_workers=2) as executor:
        with pytest.raises(ValueError, match="schedule is for 5"):
            executor.evaluate(
                0.0, program.start_vector(), program.param_vector(),
                program.results_buffer(), schedule,
            )


@pytest.mark.parametrize("kind", ["serial", "thread", "process"])
def test_wrong_param_length(program, kind):
    """A short parameter vector is refused before any task sees it (native
    tasks would read past its end), at the facade for every executor and
    at ``evaluate`` of both pools."""
    make = {"serial": SerialExecutor,
            "thread": lambda p: ThreadedExecutor(p, num_workers=1),
            "process": lambda p: ProcessExecutor(p, num_workers=1)}[kind]
    with make(program) as executor:
        with pytest.raises(ValueError, match="parameter vector"):
            ParallelRHS(program, executor, params=np.zeros(1))
        if kind == "serial":
            return
        with pytest.raises(ValueError, match="parameter vector"):
            executor.evaluate(0.0, program.start_vector(), np.zeros(1),
                              program.results_buffer())
        k = np.zeros((7, program.num_states))
        with pytest.raises(ValueError, match="parameter vector"):
            executor.evaluate_stages(
                0.0, program.start_vector(), np.zeros(1), k, DOPRI_A,
                DOPRI_C, 1e-6, 1, 7, program.results_buffer(),
            )
        assert executor.events.total_recorded == 0  # no ladder walked


@pytest.mark.parametrize("pool", POOLS)
def test_degraded_pool_reports_no_dispatch_overhead(program, pool):
    """A pool that runs everything inline has no round-trip to amortise,
    even if a worker is left that could answer one; reporting it made the
    K auto-tuner pick K > 1 for a degraded pool."""
    tid = _task_on_worker(program, 2, worker=0)
    injector = FaultInjector(
        [FaultSpec(task_id=tid, mode="kill", worker=0, count=1)]
    )
    with pool(program, 2, injector=injector, min_workers=2,
              level_timeout=5.0) as executor:
        assert executor.measure_dispatch_overhead(trials=2) > 0.0
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            _evaluate(executor, program)
        assert executor.degraded
        assert executor.measure_dispatch_overhead(trials=2) == 0.0
        rhs = ParallelRHS(program, executor, stage_chunk="auto")
        assert rhs._resolve_stage_chunk(6) == 1


@pytest.mark.parametrize("pool", POOLS)
def test_task_failure_carries_the_worker_side_error(program, pool):
    """The task raises on every worker and only poisons its output
    inline, so the cause on the TaskFailure can only have come from a
    worker."""
    tid = _task_on_worker(program, 2, worker=0)
    plan = [FaultSpec(task_id=tid, mode="raise", worker=w, count=-1)
            for w in range(2)]
    plan.append(FaultSpec(task_id=tid, mode="nan", count=-1))
    with pool(program, 2, injector=FaultInjector(plan)) as executor:
        with pytest.raises(TaskFailure, match="non-finite") as excinfo:
            _evaluate(executor, program)
    assert excinfo.value.task_id == tid
    assert isinstance(excinfo.value.cause, InjectedFault)


# -- the core, driven without workers --------------------------------------------


class _OpenBarrier:
    """The in-round barrier of a transport whose workers run one after
    the other: nobody to wait for."""

    def wait(self, timeout):
        pass

    def abort(self):
        pass


class FakeTransport:
    """A scripted transport with no threads, processes or sleeps.

    ``send`` runs the job on the spot through the real worker-side
    ``serve`` and hands the reply to ``script(transport, worker, job,
    reply)``, which returns what "arrives" at the supervisor: the reply
    itself, a doctored or stale one, ``None`` for end-of-stream, or
    nothing at all (after adding the worker to ``dead``, or the core
    waits out its ``level_timeout``).
    """

    max_stages = 8

    def __init__(self, executor, script):
        self.run = executor.program.task_runner()
        self.times = executor.last_task_times
        self.script = script
        self.dead: set[int] = set()         # alive() is False
        self.unreachable: set[int] = set()  # send() fails
        self.sent: list = []
        self.killed: list[int] = []
        self.aborted: list[int] = []
        self.bufs = None
        self._arrived: list = []

    def bind(self, y, p, res):
        self.bufs = _Buffers(y, p, res)
        return self.bufs

    def bind_stages(self, y, p, res, k, start, nstages, participants):
        stage_res = np.zeros((nstages, res.size))
        self.bufs = _Buffers(y, p, None, k, stage_res)
        return stage_res

    def gather(self, res, times):
        pass

    def send(self, worker, job):
        if worker in self.unreachable:
            return False
        self.sent.append((worker, job))
        reply = serve(job, worker, self.run, self.times, self.bufs,
                      _OpenBarrier())
        self._arrived += [
            (worker, r) for r in self.script(self, worker, job, reply)
        ]
        return True

    def replies(self, workers, timeout):
        arrived, self._arrived = self._arrived, []
        return arrived

    def alive(self, worker):
        return worker not in self.dead

    def why_dead(self, worker):
        return "scripted death"

    def kill(self, worker):
        self.killed.append(worker)

    def abort_stages(self, epoch):
        self.aborted.append(epoch)

    def close(self, join_timeout):
        return []


class FakePool(_PoolExecutor):
    def __init__(self, program, num_workers, script, **options):
        options.setdefault("retry_policy", RetryPolicy(backoff=0.0))
        super().__init__(program, num_workers, **options)
        self._transport = FakeTransport(self, script)


def deliver(transport, worker, job, reply):
    return [reply]


def failing(tid, workers):
    """Every dispatch of ``tid`` to one of ``workers`` comes back failed
    on it (plain rounds only)."""

    def script(transport, worker, job, reply):
        if worker in workers and not job.stop and tid in job.tasks:
            reply = reply._replace(
                completed=job.tasks[: job.tasks.index(tid)],
                error=RuntimeError("scripted"), failed_tid=tid,
            )
        return [reply]

    return script


def dying(workers):
    """The first job sent to each of ``workers`` kills it silently."""

    def script(transport, worker, job, reply):
        if worker in workers:
            transport.dead.add(worker)
            return []
        return [reply]

    return script


class TestCoreOverFakeTransport:
    """The round protocol and the recovery ladder, deterministically: the
    transport interface is small enough to fake in memory."""

    def kinds(self, pool):
        return [e.kind for e in pool.events]

    def test_clean_round_sends_one_job_per_worker_and_level(
        self, program, reference
    ):
        with FakePool(program, 2, deliver) as pool:
            assert np.array_equal(_evaluate(pool, program), reference)
            schedule = lpt_schedule(program.task_graph, 2)
            for worker, job in pool._transport.sent:
                assert all(schedule.assignment[t] == worker
                           for t in job.tasks)
            assert sorted(t for _, job in pool._transport.sent
                          for t in job.tasks) == list(range(program.num_tasks))
            assert pool.events.total_recorded == 0
            assert pool.last_task_times.sum() > 0

    def test_ladder_retry_then_reassign_then_inline(self, program, reference):
        tid = _task_on_worker(program, 2, worker=1)
        # Worker 1 fails the task every time: retried there, then moved.
        with FakePool(program, 2, failing(tid, {1})) as pool:
            assert np.array_equal(_evaluate(pool, program), reference)
            assert self.kinds(pool) == [
                "task_error", "task_retry", "task_error", "task_retry",
                "task_error", "task_reassigned",
            ]
            moved = pool.events.of_kind("task_reassigned")[0].data
            assert moved["from_worker"] == 1 and moved["to_worker"] == 0
            # A retry carries only what is still to do, from the failed
            # task on.
            retries = [job for w, job in pool._transport.sent
                       if w == 1 and tid in job.tasks][1:]
            assert len(retries) == 2
            assert all(job.tasks[0] == tid for job in retries)
        # Both workers fail it: the supervisor runs it inline.
        with FakePool(program, 2, failing(tid, {0, 1})) as pool:
            assert np.array_equal(_evaluate(pool, program), reference)
            assert self.kinds(pool).count("task_error") == 6
            inline = pool.events.of_kind("task_inline")[0].data
            assert tid in inline["tasks"] and inline["from_worker"] == 0
            assert not pool.degraded

    def test_no_reassignment_to_the_failing_worker(self, program, reference):
        # A task of worker 0's in a level that keeps worker 1 busy too.
        assignment = lpt_schedule(program.task_graph, 2).assignment
        level = next(
            lv for lv in dependency_levels(program.task_graph)
            if {assignment[t] for t in lv} == {0, 1}
        )
        tid = next(t for t in level if assignment[t] == 0)
        attempts = RetryPolicy().max_attempts
        fail = failing(tid, {0})
        held, failures = [], []

        def script(transport, worker, job, reply):
            if worker == 1 and set(job.tasks) & set(level):
                held.append(reply)
                return []
            (reply,) = fail(transport, worker, job, reply)
            if reply.error is not None:
                failures.append(reply)
            return [reply]

        with FakePool(program, 2, script) as pool:
            transport = pool._transport
            send = transport.send

            def send_then_release(worker, job):
                # Worker 1 answers right after worker 0's last failure on
                # tid, so it is still busy when that failure is handled.
                sent = send(worker, job)
                if len(failures) == attempts and held:
                    transport._arrived += [(1, r) for r in held]
                    held.clear()
                return sent

            transport.send = send_then_release
            assert np.array_equal(_evaluate(pool, program), reference)
            assert pool.events.count("task_reassigned") == 0
            inline = pool.events.of_kind("task_inline")[0].data
            assert tid in inline["tasks"] and inline["from_worker"] == 0
            assert [w for w, job in pool._transport.sent
                    if tid in job.tasks] == [0] * attempts

    def test_deaths_reassign_then_degrade(self, program, reference):
        with FakePool(program, 2, dying({0})) as pool:
            assert np.array_equal(_evaluate(pool, program), reference)
            transport = pool._transport
            assert transport.killed == [0]  # death is made final
            dead = pool.events.of_kind("worker_dead")[0].data
            assert dead == {"worker": 0, "reason": "scripted death"}
            assert pool.events.count("task_reassigned") >= 1
            assert not pool.degraded
            # Later rounds remap the dead worker's tasks up front.
            sent = len(transport.sent)
            assert np.array_equal(_evaluate(pool, program), reference)
            assert all(w == 1 for w, _ in transport.sent[sent:])
            # The last worker goes too: serial from here on.
            transport.script = dying({1})
            with pytest.warns(RuntimeWarning, match="degraded to serial"):
                assert np.array_equal(_evaluate(pool, program), reference)
            assert pool.degraded and pool.events.count("degraded") == 1
            sent = len(transport.sent)
            assert np.array_equal(_evaluate(pool, program), reference)
            assert len(transport.sent) == sent
            assert pool.measure_dispatch_overhead() == 0.0

    def test_stale_and_duplicate_replies_are_dropped(self, program, reference):
        def script(transport, worker, job, reply):
            stale = reply._replace(
                epoch=reply.epoch - 1, error=RuntimeError("old"),
                failed_tid=0,
            )
            return [stale, reply, reply._replace(error=RuntimeError("dup"))]

        with FakePool(program, 2, script) as pool:
            assert np.array_equal(_evaluate(pool, program), reference)
            assert pool.events.total_recorded == 0

    def test_stale_reply_still_logs_its_fired_faults(self, program,
                                                     reference):
        """A process worker's injector sends what fired home in its reply;
        the faults in a reply dropped as stale fired all the same."""
        fired = {"task": 0, "mode": "nan", "round": 0, "worker": 0}
        pending = [fired]

        def script(transport, worker, job, reply):
            stale = reply._replace(epoch=reply.epoch - 1,
                                   fired=tuple(pending))
            pending.clear()
            return [stale, reply]

        with FakePool(program, 2, script) as pool:
            assert np.array_equal(_evaluate(pool, program), reference)
            assert self.kinds(pool) == ["fault_injected"]
            assert pool.events.of_kind("fault_injected")[0].data == fired

    def test_end_of_stream_and_failed_send(self, program, reference):
        def eof(transport, worker, job, reply):
            if worker == 0:
                transport.dead.add(0)
                return [None]
            return [reply]

        with FakePool(program, 2, eof) as pool:
            assert np.array_equal(_evaluate(pool, program), reference)
            assert pool.events.count("worker_dead") == 1
        with FakePool(program, 2, deliver) as pool:
            pool._transport.unreachable.add(0)
            assert np.array_equal(_evaluate(pool, program), reference)
            dead = pool.events.of_kind("worker_dead")[0].data
            assert dead == {"worker": 0, "reason": "pipe closed"}
            # Worker 1 was sent each of its jobs once: a failed send must
            # not fail over onto a worker whose own job is still to go out.
            epochs = [job.epoch for w, job in pool._transport.sent]
            assert len(epochs) == len(set(epochs))

    def test_silent_worker_runs_into_the_round_timeout(
        self, program, reference
    ):
        tid = _task_on_worker(program, 2, worker=0)

        def script(transport, worker, job, reply):
            return [] if worker == 0 else [reply]

        with FakePool(program, 2, script, level_timeout=1e-3) as pool:
            assert np.array_equal(_evaluate(pool, program), reference)
            timeout = pool.events.of_kind("worker_timeout")[0].data
            assert timeout["worker"] == 0 and tid in timeout["tasks"]
            assert pool._transport.killed == [0]

    def _stages(self, executor, program):
        y, p = program.start_vector(), program.param_vector()
        res = program.results_buffer()
        k = np.zeros((7, program.num_states))
        executor.evaluate(0.0, y, p, res)
        k[0] = res[: program.num_states]
        executor.evaluate_stages(0.0, y, p, k, DOPRI_A, DOPRI_C, 1e-6, 1, 7,
                                 res)
        return k

    def test_optimistic_chunk_on_one_worker(self, program):
        expected = self._stages(SerialExecutor(program), program)
        with FakePool(program, 1, deliver) as pool:
            assert np.array_equal(self._stages(pool, program), expected)
            assert [job.stop for _, job in pool._transport.sent][-1] == 7
            assert pool.last_times_rounds == 6
            assert pool.events.total_recorded == 0

    def test_chunk_abort_and_per_stage_replay(self, program):
        expected = self._stages(SerialExecutor(program), program)
        held = []

        def script(transport, worker, job, reply):
            if not job.stop:
                # Stragglers of the aborted chunk turn up mid-replay.
                late, held[:] = list(held), []
                return late + [reply]
            if worker == 1:
                return [reply._replace(error=RuntimeError("scripted"),
                                       failed_tid=3)]
            held.append(reply._replace(
                error=threading.BrokenBarrierError()))
            return []

        with FakePool(program, 2, script) as pool:
            assert np.array_equal(self._stages(pool, program), expected)
            assert self.kinds(pool) == ["stage_task_error",
                                        "stage_round_aborted"]
            error = pool.events.of_kind("stage_task_error")[0].data
            assert error == {"task": 3, "worker": 1, "error": "RuntimeError"}
            chunk_epochs = {job.epoch for _, job in pool._transport.sent
                            if job.stop}
            assert pool._transport.aborted == list(chunk_epochs)
            assert pool.last_times_rounds == 1

    def test_chunk_straggler_still_logs_its_fired_faults(self, program):
        """Worker 1's broken-barrier reply ends the chunk before worker 0's
        reply, which carries the fault that broke it, is read; that reply
        turns up as a straggler during the replay."""
        expected = self._stages(SerialExecutor(program), program)
        fired = {"task": 3, "mode": "raise", "round": 1, "worker": 0}
        held = []

        def script(transport, worker, job, reply):
            if not job.stop:
                late, held[:] = list(held), []
                return late + [reply]
            if worker == 0:
                held.append(reply._replace(
                    error=InjectedFault("scripted"), failed_tid=3,
                    fired=(fired,),
                ))
                return []
            return [reply._replace(error=threading.BrokenBarrierError())]

        with FakePool(program, 2, script) as pool:
            assert np.array_equal(self._stages(pool, program), expected)
            assert self.kinds(pool) == ["stage_round_aborted",
                                        "fault_injected"]
            assert pool.events.of_kind("fault_injected")[0].data == fired

    def test_nonfinite_stage_row_aborts_the_chunk(self, program):
        expected = self._stages(SerialExecutor(program), program)

        def script(transport, worker, job, reply):
            if job.stop:
                transport.bufs.stage_res[2, 0] = np.inf
            return [reply]

        with FakePool(program, 1, script) as pool:
            assert np.array_equal(self._stages(pool, program), expected)
            assert self.kinds(pool) == ["stage_nonfinite",
                                        "stage_round_aborted"]


class TestFaultSpec:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec(task_id=0, mode="explode")

    def test_bad_count(self):
        with pytest.raises(ValueError):
            FaultSpec(task_id=0, mode="raise", count=0)

    def test_negative_task(self):
        with pytest.raises(ValueError):
            FaultSpec(task_id=-1, mode="raise")

    def test_random_plan_deterministic(self):
        a = FaultInjector.random_plan(8, 10, rate=0.3, seed=42)
        b = FaultInjector.random_plan(8, 10, rate=0.3, seed=42)
        assert a.plan == b.plan
        assert a.plan  # rate 0.3 over 80 cells: practically certain

    def test_reset_rearms(self, program):
        inj = FaultInjector([FaultSpec(task_id=0, mode="raise", count=1)])
        run = program.task_runner(inj)
        assert inj.remaining() == 1
        inj.begin_round()
        with pytest.raises(InjectedFault):
            run((0,), 0.0, program.start_vector(), program.param_vector(),
                program.results_buffer(), np.zeros(program.num_tasks))
        assert inj.remaining() == 0
        inj.reset()
        assert inj.remaining() == 1 and inj.round_index == -1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_exponential_capped_delay(self):
        p = RetryPolicy(backoff=0.01, backoff_factor=2.0, max_backoff=0.03)
        assert p.delay(1) == pytest.approx(0.01)
        assert p.delay(2) == pytest.approx(0.02)
        assert p.delay(5) == pytest.approx(0.03)  # capped


class TestRetrySucceeds:
    """count=1 faults: the first re-execution on the same worker is clean."""

    @pytest.mark.parametrize("mode", RECOVERABLE_MODES)
    def test_bit_identical_after_retry(self, program, reference, mode):
        check_retry_recovers(ThreadedExecutor, program, reference, mode)

    def test_hang_within_deadline_is_transparent(self, program, reference):
        # A bounded hang shorter than the level deadline is just a slow
        # task: no retry, no reassignment, identical results.
        events = RuntimeEvents()
        injector = FaultInjector(
            [FaultSpec(task_id=0, mode="hang", hang_seconds=0.05, count=1)],
            events=events,
        )
        with ThreadedExecutor(program, 2, injector=injector, events=events,
                              level_timeout=10.0) as executor:
            res = _evaluate(executor, program)
        assert np.array_equal(res, reference)
        assert events.count("worker_timeout") == 0


class TestReassignmentSucceeds:
    """Worker-pinned unlimited faults: retries on the original worker keep
    failing, so the task moves off it and succeeds elsewhere."""

    @pytest.mark.parametrize("mode", RECOVERABLE_MODES)
    def test_bit_identical_after_reassignment(self, program, reference, mode):
        check_persistent_fault_moves_off_the_worker(
            ThreadedExecutor, program, reference, mode
        )

    def test_kill_reassigns_dead_workers_tasks(self, program, reference):
        check_kill_reassigns_dead_workers_tasks(ThreadedExecutor, program,
                                                reference)


class TestDegradation:
    def test_min_workers_threshold_degrades_to_serial(
        self, program, reference
    ):
        # min_workers=2: losing a single worker of two demotes the pool.
        tid = _task_on_worker(program, 2, worker=0)
        events = RuntimeEvents()
        injector = FaultInjector(
            [FaultSpec(task_id=tid, mode="kill", worker=0, count=1)],
            events=events,
        )
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            with ThreadedExecutor(program, 2, injector=injector,
                                  events=events, min_workers=2,
                                  level_timeout=5.0) as executor:
                res = _evaluate(executor, program)
                assert np.array_equal(res, reference)
                assert executor.degraded
                # Subsequent rounds run serially, still bit-identical.
                assert np.array_equal(_evaluate(executor, program), reference)
        assert events.count("degraded") == 1

    def test_all_workers_dead_degrades(self, program, reference):
        check_all_workers_dead_degrades(ThreadedExecutor, program, reference)


class TestUnrecoverable:
    @pytest.mark.parametrize("mode", RECOVERABLE_MODES)
    def test_everywhere_failing_task_raises_task_failure(
        self, program, mode
    ):
        # Unpinned, unlimited: fails on the original worker, the
        # reassignment target, and the inline fallback.
        injector = FaultInjector(
            [FaultSpec(task_id=0, mode=mode, count=-1)]
        )
        with ThreadedExecutor(program, 2, injector=injector) as executor:
            with pytest.raises(TaskFailure,
                               match="task evaluation failed"):
                _evaluate(executor, program)
            assert executor.events.count("task_retry") > 0

    def test_task_failure_carries_task_id(self, program):
        injector = FaultInjector(
            [FaultSpec(task_id=2, mode="raise", count=-1)]
        )
        with ThreadedExecutor(program, 2, injector=injector) as executor:
            with pytest.raises(TaskFailure) as excinfo:
                _evaluate(executor, program)
        assert excinfo.value.task_id == 2


class TestBarrierDeadlockRegression:
    """The seed's latent deadlock: ``self._done.get()`` blocked forever if
    a worker thread died without signalling (e.g. killed by an injected
    fault before the completion message).  The hardened barrier must
    detect the death via liveness checks / the bounded timeout instead."""

    def test_worker_killed_outside_signalling_does_not_deadlock(
        self, program, reference
    ):
        injector = FaultInjector(
            [FaultSpec(task_id=0, mode="kill", count=1)]
        )
        with ThreadedExecutor(program, 1, injector=injector,
                              level_timeout=5.0) as executor:
            # Sole worker dies: evaluation must degrade inline, not hang.
            with pytest.warns(RuntimeWarning, match="degraded to serial"):
                res = _evaluate(executor, program)
        assert np.array_equal(res, reference)
        assert executor.degraded

    def test_hung_worker_hits_barrier_timeout(self, program, reference):
        check_hung_worker_hits_round_timeout(ThreadedExecutor, program,
                                             reference)


class TestClose:
    def test_close_is_idempotent(self, program):
        executor = ThreadedExecutor(program, 2)
        executor.close()
        executor.close()  # second close must be a no-op
        assert executor.zombie_workers == []

    def test_close_after_worker_deaths(self, program):
        specs = [
            FaultSpec(task_id=tid, mode="kill", worker=w, count=1)
            for w in range(2)
            for tid in [_task_on_worker(program, 2, w)]
        ]
        executor = ThreadedExecutor(
            program, 2, injector=FaultInjector(specs), level_timeout=5.0
        )
        with pytest.warns(RuntimeWarning):
            _evaluate(executor, program)
        executor.close()  # must not raise or hang on dead threads
        executor.close()
        assert executor.zombie_workers == []

    def test_close_reports_zombie_workers(self, program):
        events = RuntimeEvents()
        injector = FaultInjector(
            [FaultSpec(task_id=0, mode="hang", hang_seconds=1.0, count=1)],
            events=events,
        )
        executor = ThreadedExecutor(program, 1, injector=injector,
                                    events=events, level_timeout=0.2,
                                    join_timeout=0.1)
        with pytest.warns(RuntimeWarning, match="degraded"):
            _evaluate(executor, program)  # times out, degrades inline
        with pytest.warns(RuntimeWarning, match="did not join"):
            executor.close()
        assert executor.zombie_workers == [0]
        assert events.count("close_timeout") == 1


class TestStaleTaskTimes:
    def test_serial_executor_zeroes_times_each_round(self, program):
        injector = FaultInjector(
            [FaultSpec(task_id=program.num_tasks - 1, mode="raise",
                       count=1)]
        )
        executor = SerialExecutor(program, injector=injector)
        y, p = program.start_vector(), program.param_vector()
        with pytest.raises(InjectedFault):
            executor.evaluate(0.0, y, p, program.results_buffer())
        # The aborted round must not leave the failed task's slot holding
        # the previous round's measurement (the semi-dynamic LPT would
        # otherwise schedule from a mix of rounds).
        assert executor.last_task_times[program.num_tasks - 1] == 0.0

    def test_threaded_executor_zeroes_times_each_round(self, program):
        with ThreadedExecutor(program, 2) as executor:
            _evaluate(executor, program)
            before = executor.last_task_times.copy()
            assert before.sum() > 0
            executor.last_task_times[:] = 7.0
            _evaluate(executor, program)
            assert np.all(executor.last_task_times < 7.0)


class TestCorruption:
    def test_corrupt_mode_writes_scripted_value(self, program):
        # 'corrupt' is the silent-fault mode NaN validation cannot catch:
        # it documents the detection boundary.
        tid = 0
        slot = program.task_output_slots(tid)[0]
        injector = FaultInjector(
            [FaultSpec(task_id=tid, mode="corrupt", corrupt_value=123.5,
                       count=1)]
        )
        executor = SerialExecutor(program, injector=injector)
        res = program.results_buffer()
        executor.evaluate(0.0, program.start_vector(),
                          program.param_vector(), res)
        assert res[slot] == 123.5


class TestEndToEndSimulation:
    def test_killed_worker_mid_simulation_bit_identical(
        self, program
    ):
        """Acceptance: a scripted kill of a single worker mid-round
        completes the simulation bit-identical to ``SerialExecutor``,
        with the retry/reassignment recorded in the event log."""
        y0 = program.start_vector()
        span = (0.0, 0.02)

        serial_rhs = ParallelRHS(program, SerialExecutor(program))
        expected = solve_ivp(serial_rhs, span, y0, method="rk45")

        tid = _task_on_worker(program, 2, worker=0)
        events = RuntimeEvents()
        injector = FaultInjector(
            [FaultSpec(task_id=tid, mode="kill", worker=0, round_index=5,
                       count=1)],
            events=events,
        )
        executor = ThreadedExecutor(program, 2, injector=injector,
                                    events=events, level_timeout=5.0)
        threaded_rhs = ParallelRHS(program, executor)
        try:
            result = solve_ivp(threaded_rhs, span, y0, method="rk45")
        finally:
            executor.close()

        assert result.success and expected.success
        assert np.array_equal(result.ts, expected.ts)
        assert np.array_equal(result.ys, expected.ys)
        assert events.count("fault_injected") == 1
        assert events.count("worker_dead") == 1
        assert events.count("task_reassigned") >= 1

    def test_random_fault_storm_recovers_bit_identical(self, program):
        """Seeded random raise/nan faults across many rounds: every round
        recovers to the exact serial result."""
        y, p = program.start_vector(), program.param_vector()
        reference = program.results_buffer()
        SerialExecutor(program).evaluate(0.0, y, p, reference)

        events = RuntimeEvents()
        injector = FaultInjector.random_plan(
            program.num_tasks, num_rounds=15, rate=0.05,
            modes=("raise", "nan"), seed=7, events=events,
        )
        with ThreadedExecutor(program, 3, injector=injector,
                              events=events) as executor:
            for _ in range(15):
                res = program.results_buffer()
                executor.evaluate(0.0, y, p, res)
                assert np.array_equal(res, reference)
        assert events.count("fault_injected") == injector.fired

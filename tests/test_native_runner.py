"""The task runner: native tasks cross the FFI once per worker per level.

Every executor evaluates a task list through one call,
``runner(ids, t, y, p, res, times)``.  A ``backend="c"`` program's runner
is the generated ``run_tasks`` entry (one foreign call, one GIL release,
for a whole list); Python programs take ``run_each``, the per-task loop;
a fault injector wraps either and still hands every unfaulted span to
the real runner.  These tests hold the batch path to the per-task one:
bit-identical solves across executor × fusion × K, the per-task times the
semi-dynamic scheduler feeds on (assigned in plain rounds, accumulated in
K-stage chunks), the in-chunk barrier a worker with an empty level must
still reach, a reloaded unit, and the fault ladder under K-stage chunks.
The last section holds the glue's thread pool, which runs a native
``ThreadedExecutor``'s rounds, to the same standard: bit-identical
rounds and solves, schedules, task times, its threads' lifetime and idle
CPU, and the ladder it falls back to.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import time

import numpy as np
import pytest

from repro.apps.bearing2d import BearingParams, build_bearing2d
from repro.apps.bearing3d import Bearing3dParams, build_bearing3d
from repro.codegen.native import find_compiler, load_native_module
from repro.codegen.program import run_each
from repro.frontend import compile_model
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    ParallelRHS,
    ProcessExecutor,
    RetryPolicy,
    RuntimeEvents,
    SerialExecutor,
    TaskFailure,
    ThreadedExecutor,
)
from repro.runtime.supervisor import _Buffers, _Job, dependency_levels, serve
from repro.schedule import SemiDynamicScheduler, lpt_schedule
from repro.schedule.lpt import Schedule
from repro.solver import solve_ivp
from repro.solver.rk import DOPRI_A, DOPRI_C

needs_cc = pytest.mark.skipif(find_compiler() is None,
                              reason="no C compiler on PATH")

_BUILDERS = {
    "bearing2d": lambda: build_bearing2d(BearingParams(num_rollers=4)),
    "bearing3d-8": lambda: build_bearing3d(
        Bearing3dParams(num_rollers=8, contact_harmonics=3)
    ),
    # the paper's bearing: a combine task makes a second dependency level
    "bearing2d-10": lambda: build_bearing2d(BearingParams(num_rollers=10)),
}
#: model -> solve span of the bit-identity matrix
SPANS = {"bearing2d": 0.01, "bearing3d-8": 0.004}

EXECUTORS = {
    "serial": SerialExecutor,
    "thread": lambda program, **kw: ThreadedExecutor(program, 2, **kw),
    "process": lambda program, **kw: ProcessExecutor(program, 2, **kw),
}


@pytest.fixture(scope="module", autouse=True)
def _isolated_native_cache(tmp_path_factory):
    """Point the default native cache at a per-run directory."""
    old = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(
        tmp_path_factory.mktemp("native-cache")
    )
    yield
    if old is None:
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    else:
        os.environ["REPRO_NATIVE_CACHE"] = old


@pytest.fixture(scope="module")
def programs():
    """(model, fuse) -> native program, compiled once."""
    cache: dict = {}

    def get(model: str, fuse: bool = True):
        if (model, fuse) not in cache:
            program = compile_model(
                _BUILDERS[model](), backend="c", fuse=fuse
            ).program
            assert program.native_module is not None, (
                program.native_fallback_reason
            )
            cache[model, fuse] = program
        return cache[model, fuse]

    return get


def _solve(program, executor, stage_chunk: int, t_end: float):
    rhs = ParallelRHS(program, executor, stage_chunk=stage_chunk)
    return solve_ivp(rhs, (0.0, t_end), program.start_vector(),
                     method="rk45", rtol=1e-6, atol=1e-9)


def _stages(program, executor, schedule=None):
    """RK stages 1..6 of one DOPRI step in a single chunk, from a
    serially computed first stage."""
    y, p = program.start_vector(), program.param_vector()
    n = program.num_states
    res = program.results_buffer()
    SerialExecutor(program).evaluate(0.0, y, p, res)
    k = np.zeros((7, n))
    k[0] = res[:n]
    executor.evaluate_stages(0.0, y, p, k, DOPRI_A, DOPRI_C, 1e-6, 1, 7,
                             program.results_buffer(), schedule)
    return k


# -- the runner is the batch entry, under an injector too ------------------------


@needs_cc
def test_native_programs_run_tasks_in_one_call(programs):
    program = programs("bearing2d")
    native = program.native_module
    assert program.task_runner() is native.run_tasks
    # A fault plan wraps the runner.
    assert program.task_runner(FaultInjector()) is not native.run_tasks


def _counting(program):
    """``program`` with a native module whose every task-runner call, batch
    or one-task, goes through a recorder; returns (program, calls)."""
    native = copy.copy(program.native_module)
    run_tasks, calls = native.run_tasks, []

    def counted(ids, t, y, p, res, times):
        calls.append(tuple(ids))
        run_tasks(ids, t, y, p, res, times)

    scratch = np.empty(program.num_tasks)
    native.run_tasks = counted
    native.tasks = [
        lambda t, y, p, res, ids=(k,): counted(ids, t, y, p, res, scratch)
        for k in range(program.num_tasks)
    ]
    return dataclasses.replace(program, native_module=native), calls


@needs_cc
def test_injected_levels_stay_one_run_tasks_call(programs):
    """Under an injector, a level with nothing armed is one ``run_tasks``
    call; an armed task splits its level around itself."""
    program, calls = _counting(programs("bearing2d-10"))
    levels = dependency_levels(program.task_graph)
    y, p = program.start_vector(), program.param_vector()
    expected = program.results_buffer()
    SerialExecutor(program).evaluate(0.0, y, p, expected)

    first = tuple(levels[0])
    tid = first[len(first) // 2]
    injector = FaultInjector([FaultSpec(task_id=tid, mode="corrupt",
                                        round_index=1)])
    with ThreadedExecutor(program, 1, injector=injector) as executor:
        calls.clear()
        res = program.results_buffer()
        executor.evaluate(0.0, y, p, res)  # round 0: nothing armed
        assert calls == [tuple(level) for level in levels]
        assert np.array_equal(res, expected)

        calls.clear()
        executor.evaluate(0.0, y, p, program.results_buffer())  # round 1
        at = first.index(tid)
        split = [s for s in (first[:at], (tid,), first[at + 1:]) if s]
        assert calls == split + [tuple(level) for level in levels[1:]]


@needs_cc
@pytest.mark.parametrize("model", list(SPANS))
def test_run_tasks_equals_per_task_calls(programs, model):
    program = programs(model)
    y, p = program.start_vector() + 1e-3, program.param_vector()
    order = tuple(tid for level in dependency_levels(program.task_graph)
                  for tid in level)
    batch, each = program.results_buffer(), program.results_buffer()
    times = np.zeros(program.num_tasks)
    program.native_module.run_tasks(order, 0.1, y, p, batch, times)
    run_each(program.task_callables())(order, 0.1, y, p, each,
                                       np.zeros(program.num_tasks))
    assert np.array_equal(batch, each)
    assert np.all(times > 0)


# -- bit-identical solves ---------------------------------------------------------


@pytest.fixture(scope="module")
def per_task_solution(programs):
    """The per-task reference: a serial solve whose runner is the
    per-task loop over the one-task native calls."""
    cache: dict = {}

    def get(model: str):
        if model not in cache:
            program = programs(model)
            executor = SerialExecutor(program)
            executor._run = run_each(program.task_callables())
            cache[model] = _solve(program, executor, 1, SPANS[model])
        return cache[model]

    return get


@needs_cc
@pytest.mark.parametrize("stage_chunk", [1, 6])
@pytest.mark.parametrize("kind", list(EXECUTORS))
@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("model", list(SPANS))
def test_solves_bit_identical(programs, per_task_solution, model, fuse, kind,
                              stage_chunk):
    program = programs(model, fuse)
    with EXECUTORS[kind](program) as executor:
        sol = _solve(program, executor, stage_chunk, SPANS[model])
    want = per_task_solution(model)
    assert sol.success and len(sol.ts) > 5
    assert np.array_equal(sol.ts, want.ts)
    assert np.array_equal(sol.ys, want.ys)


# -- task times ---------------------------------------------------------------------


def _unit_run(ids, t, y, p, res, times):
    """A runner whose every task takes exactly one 'second'."""
    for tid in ids:
        times[tid] = 1.0


class _CountingBarrier:
    def __init__(self):
        self.waits = 0

    def wait(self, timeout):
        self.waits += 1

    def abort(self):
        pass


def test_serve_assigns_times_in_rounds_and_accumulates_in_chunks():
    n = 2
    times = np.full(3, 5.0)
    bufs = _Buffers(np.zeros(n), np.zeros(0), np.zeros(n))
    reply = serve(_Job(1, 0, 0.0, (0, 2)), 0, _unit_run, times, bufs, None)
    assert reply.completed == (0, 2) and reply.error is None
    assert times.tolist() == [1.0, 5.0, 1.0]  # assigned, not added

    # Three stages over two levels; this worker's second level is empty,
    # and it still meets the others at the barrier after it.
    barrier = _CountingBarrier()
    bufs = _Buffers(np.zeros(n), np.zeros(0), None, np.zeros((7, n)),
                    np.zeros((3, n)))
    job = _Job(2, 0, 0.0, ((1,), ()), 1e-3, 1, 4, DOPRI_A, DOPRI_C, (0, 1),
               1.0)
    reply = serve(job, 0, _unit_run, times, bufs, barrier)
    assert reply.error is None
    assert barrier.waits == 3 * 2
    assert times.tolist() == [1.0, 5.0 + 3.0, 1.0]  # one round per stage


def test_serve_reports_the_failed_task():
    def boom(t, y, p, res):
        raise ValueError("boom")

    def ok(t, y, p, res):
        pass

    bufs = _Buffers(np.zeros(1), np.zeros(0), np.zeros(1))
    times = np.zeros(3)
    reply = serve(_Job(1, 0, 0.0, (2, 0, 1)), 0, run_each([ok, boom, ok]),
                  times, bufs, None)
    assert isinstance(reply.error, ValueError)
    assert (reply.completed, reply.failed_tid) == ((2, 0), 1)

    def batch(ids, t, y, p, res, times):
        raise RuntimeError("one call for the whole list")

    reply = serve(_Job(1, 0, 0.0, (2, 0, 1)), 0, batch, times, bufs, None)
    assert (reply.completed, reply.failed_tid) == ((), 2)


@needs_cc
@pytest.mark.parametrize("kind", list(EXECUTORS))
def test_every_task_timed(programs, kind):
    program = programs("bearing3d-8")
    y, p = program.start_vector(), program.param_vector()
    with EXECUTORS[kind](program) as executor:
        executor.evaluate(0.0, y, p, program.results_buffer())
        assert executor.last_times_rounds == 1
        assert np.all(executor.last_task_times > 0)
        _stages(program, executor)
        assert executor.last_times_rounds == (1 if kind == "serial" else 6)
        assert np.all(executor.last_task_times > 0)


@needs_cc
@pytest.mark.parametrize("kind", ["thread", "process"])
def test_empty_level_in_a_chunk_reaches_the_barrier(programs, kind):
    """Worker 0 gets only the first level's tasks and worker 1 only the
    later levels': each has an empty level in every stage of the chunk."""
    program = programs("bearing2d-10")
    levels = dependency_levels(program.task_graph)
    assert len(levels) >= 2
    first = set(levels[0])
    assignment = tuple(0 if tid in first else 1
                       for tid in range(program.num_tasks))
    schedule = Schedule(2, assignment, (1.0, 1.0))
    expected = _stages(program, SerialExecutor(program))
    events = RuntimeEvents()
    with EXECUTORS[kind](program, events=events,
                         level_timeout=5.0) as executor:
        got = _stages(program, executor, schedule)
        assert executor.last_times_rounds == 6
    assert np.array_equal(got, expected)
    assert events.total_recorded == 0  # no abort, no replay


# -- a second load of the same unit ----------------------------------------------


@needs_cc
def test_reloaded_unit_agrees_bit_for_bit(programs):
    """A second ``dlopen`` of the built unit (what a process worker does)
    computes what the first does, alone and under the thread pool."""
    program = programs("bearing3d-8")
    module = program.native_module
    again = load_native_module(module.path, module.native,
                               str(module.glue_path))
    assert again is not module and again.glue_path == module.glue_path

    y, p = program.start_vector() + 1e-3, program.param_vector()
    order = tuple(range(program.num_tasks))
    outs = []
    for loaded in (module, again):
        res, times = program.results_buffer(), np.zeros(program.num_tasks)
        loaded.run_tasks(order, 0.1, y, p, res, times)
        assert np.all(times > 0)
        outs.append(res)
    assert np.array_equal(*outs)

    reloaded = dataclasses.replace(program, native_module=again)
    with ThreadedExecutor(reloaded, 2) as executor:
        assert np.array_equal(_stages(reloaded, executor),
                              _stages(program, SerialExecutor(program)))


# -- faults inside K-stage chunks --------------------------------------------------


@needs_cc
@pytest.mark.parametrize("mode", ["raise", "nan", "kill"])
@pytest.mark.parametrize("kind", ["thread", "process"])
def test_chunk_fault_takes_the_per_task_runner_and_recovers(
    programs, kind, mode
):
    program = programs("bearing2d")
    assignment = lpt_schedule(program.task_graph, 2).assignment
    tid = assignment.index(0)
    expected = _stages(program, SerialExecutor(program))
    events = RuntimeEvents()
    injector = FaultInjector(
        [FaultSpec(task_id=tid, mode=mode, worker=0, count=1)],
        events=events,
    )
    with EXECUTORS[kind](program, injector=injector, events=events,
                         level_timeout=5.0) as executor:
        got = _stages(program, executor)
    assert np.array_equal(got, expected)
    assert events.count("stage_round_aborted") == 1
    # The fault fired inside a wrapped task, so the chunk ran per task (a
    # process worker killed mid-task carries nothing home).
    fired = 0 if (kind, mode) == ("process", "kill") else 1
    assert events.count("fault_injected") == fired
    if mode == "kill":
        assert events.count("worker_dead") == 1


# -- the glue's thread pool --------------------------------------------------------
#
# A native program run by a ThreadedExecutor without an injector takes the
# glue's pthread pool: one C call per round, the caller as worker 0, a
# barrier after each level.

POOL_SPANS = {"bearing3d-8": 0.004, "bearing2d-10": 0.01}


def _pool_threads() -> dict[int, str]:
    """tid -> name of this process's pool threads."""
    threads = {}
    for task in os.scandir("/proc/self/task"):
        try:
            with open(f"{task.path}/comm") as f:
                name = f.read().strip()
        except OSError:  # the thread exited meanwhile
            continue
        if name.startswith("repro-pool-"):
            threads[int(task.name)] = name
    return threads


def _cpu_ticks(tid: int) -> int:
    """utime + stime of one thread of this process, in clock ticks."""
    with open(f"/proc/self/task/{tid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


class _Recording:
    """A pool whose ``assign`` calls are noted."""

    def __init__(self, pool):
        self.pool = pool
        self.assigned: list[tuple] = []

    def assign(self, assignment):
        self.assigned.append(tuple(assignment))
        self.pool.assign(assignment)

    def __getattr__(self, name):
        return getattr(self.pool, name)


@needs_cc
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("model", list(POOL_SPANS))
def test_pool_rounds_and_solves_bit_identical(programs, model, fuse,
                                              workers):
    program = programs(model, fuse)
    levels = dependency_levels(program.task_graph)
    if model == "bearing2d-10":
        assert len(levels) == 2 and program.num_partials > 0
        if fuse and workers == 2:  # one worker has nothing in level 2
            owner = lpt_schedule(program.task_graph, 2).assignment
            assert {owner[tid] for tid in levels[1]} != {0, 1}
    y = program.start_vector() + 1e-3
    p = program.param_vector()
    expected = program.results_buffer()
    SerialExecutor(program).evaluate(0.1, y, p, expected)
    want = _solve(program, SerialExecutor(program), 1, POOL_SPANS[model])
    events = RuntimeEvents()
    with ThreadedExecutor(program, workers, events=events) as executor:
        assert executor._pool is not None
        res = program.results_buffer()
        executor.evaluate(0.1, y, p, res)
        assert np.array_equal(res, expected)
        for stage_chunk in (1, 6):
            sol = _solve(program, executor, stage_chunk, POOL_SPANS[model])
            assert np.array_equal(sol.ts, want.ts)
            assert np.array_equal(sol.ys, want.ys)
            assert sol.stats == want.stats
        assert executor._pool is not None
    assert events.total_recorded == 0


class _Alternating(SemiDynamicScheduler):
    """Swaps between the LPT schedule and its mirror image every few
    observations, so the assignment really changes mid-solve."""

    def observe(self, measured):
        super().observe(measured)
        if self.steps_since_reschedule == 0:
            lpt = lpt_schedule(self.graph, self.num_workers)
            if self.num_reschedules % 2:
                last = self.num_workers - 1
                lpt = Schedule(self.num_workers,
                               tuple(last - w for w in lpt.assignment),
                               lpt.loads[::-1])
            self._schedule = lpt
        return self._schedule


@needs_cc
def test_pool_honours_a_schedule_that_changes_mid_solve(programs):
    program = programs("bearing2d-10", False)
    want = _solve(program, SerialExecutor(program), 1, 0.01)
    with ThreadedExecutor(program, 2) as executor:
        executor._pool = recording = _Recording(executor._pool)
        scheduler = _Alternating(program.task_graph, 2, reschedule_every=5)
        rhs = ParallelRHS(program, executor, scheduler=scheduler,
                          feed_measurements=True)
        sol = solve_ivp(rhs, (0.0, 0.01), program.start_vector(),
                        method="rk45", rtol=1e-6, atol=1e-9)
    assert np.array_equal(sol.ys, want.ys)
    # every new schedule reached the pool's tables before its next round
    # (the last one may have come after the last round)
    assert scheduler.num_reschedules >= 4
    assert (scheduler.num_reschedules <= len(recording.assigned)
            <= scheduler.num_reschedules + 1)
    assert len(set(recording.assigned)) == 2


@needs_cc
def test_pool_fills_last_task_times(programs):
    program = programs("bearing3d-8")
    y, p = program.start_vector(), program.param_vector()
    with ThreadedExecutor(program, 2) as executor:
        assert executor._pool is not None
        executor.last_task_times[:] = -1.0
        executor.evaluate(0.0, y, p, program.results_buffer())
        assert executor.last_times_rounds == 1
        assert np.all(executor.last_task_times > 0)
        once = executor.last_task_times.copy()
        _stages(program, executor)
        assert executor.last_times_rounds == 6  # one round per stage
        assert executor.last_task_times.sum() > once.sum()


@needs_cc
def test_close_joins_the_pool_threads_and_is_idempotent(programs):
    program = programs("bearing3d-8")
    before = _pool_threads()
    executor = ThreadedExecutor(program, 3)
    started = set(_pool_threads()) - set(before)
    assert len(started) == 2  # the caller is worker 0
    executor.evaluate(0.0, program.start_vector(), program.param_vector(),
                      program.results_buffer())
    executor.close()
    assert not started & set(_pool_threads())
    executor.close()
    with pytest.raises(RuntimeError, match="closed"):
        executor.evaluate(0.0, program.start_vector(),
                          program.param_vector(), program.results_buffer())


@needs_cc
def test_an_idle_pool_uses_no_cpu(programs):
    program = programs("bearing3d-8")
    before = set(_pool_threads())
    with ThreadedExecutor(program, 2) as executor:
        executor.evaluate(0.0, program.start_vector(),
                          program.param_vector(), program.results_buffer())
        (tid,) = set(_pool_threads()) - before
        time.sleep(0.05)  # past the barrier's spin budget
        idle = _cpu_ticks(tid)
        time.sleep(0.2)
        assert _cpu_ticks(tid) == idle


@needs_cc
def test_an_armed_injector_selects_the_python_transport(programs):
    program, calls = _counting(programs("bearing3d-8"))
    y, p = program.start_vector(), program.param_vector()
    with ThreadedExecutor(program, 2) as executor:
        assert executor._pool is not None
        executor.evaluate(0.0, y, p, program.results_buffer())
    assert calls == []  # the pool calls the unit's C code directly
    with ThreadedExecutor(program, 2, injector=FaultInjector()) as executor:
        assert executor._pool is None
        executor.evaluate(0.0, y, p, program.results_buffer())
    assert sorted(tid for ids in calls for tid in ids) == list(
        range(program.num_tasks)
    )


def _one_bad_task(program):
    """(state index, task) such that a NaN in that state makes exactly
    that task's output non-finite."""
    p = program.param_vector()
    slots = [program.task_output_slots(tid)
             for tid in range(program.num_tasks)]
    for i in range(program.num_states):
        y = program.start_vector()
        y[i] = np.nan
        res = program.results_buffer()
        SerialExecutor(program).evaluate(0.0, y, p, res)
        bad = [tid for tid, s in enumerate(slots)
               if not np.all(np.isfinite(res[list(s)]))]
        if len(bad) == 1:
            return i, bad[0]
    raise AssertionError("no state feeds a single task")


@needs_cc
@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_output_walks_the_ladder(programs, workers):
    """The pool's round is re-run on the thread transport, whose ladder
    records what it records for any other executor's round."""
    program = programs("bearing3d-8")
    i, tid = _one_bad_task(program)
    y = program.start_vector()
    y[i] = np.nan
    logs = []
    for injector in (None, FaultInjector()):
        events = RuntimeEvents()
        with ThreadedExecutor(program, workers, injector=injector,
                              events=events,
                              retry_policy=RetryPolicy(backoff=0.0)
                              ) as executor:
            assert (executor._pool is None) == (injector is not None)
            with pytest.raises(TaskFailure) as failure:
                executor.evaluate(0.0, y, program.param_vector(),
                                  program.results_buffer())
            assert failure.value.task_id == tid
            assert (executor._pool is None) == (injector is not None)
        logs.append([(e.kind, e.data) for e in events])
    pool_log, transport_log = logs
    assert pool_log[0] == ("task_nonfinite", pool_log[0][1])
    assert pool_log[0][1]["task"] == tid
    if workers == 1:  # nowhere to reassign to: the order is fixed
        assert pool_log == transport_log
        assert [kind for kind, _ in pool_log] == [
            "task_nonfinite", "task_retry", "task_nonfinite", "task_retry",
            "task_nonfinite", "task_inline",
        ]


class _TimingOut:
    """A pool whose every round misses its deadline."""

    def __init__(self):
        self.closed = False

    def assign(self, assignment):
        pass

    def round(self, t, y, p, out, times):
        return False

    def close(self, join_timeout):
        self.closed = True
        return 0


@needs_cc
def test_a_missed_deadline_retires_the_pool(programs):
    program = programs("bearing2d-10")
    y, p = program.start_vector() + 1e-3, program.param_vector()
    expected = program.results_buffer()
    SerialExecutor(program).evaluate(0.1, y, p, expected)
    events = RuntimeEvents()
    with ThreadedExecutor(program, 2, events=events) as executor:
        real = executor._pool
        executor._pool = stub = _TimingOut()
        res = program.results_buffer()
        executor.evaluate(0.1, y, p, res)  # re-run on the thread transport
        assert np.array_equal(res, expected)
        assert stub.closed and executor._pool is None
        executor.evaluate(0.1, y, p, res)
        assert np.array_equal(res, expected)
        assert executor.measure_dispatch_overhead(3) > 0  # the transport's
        real.close(1.0)
    assert [e.kind for e in events] == ["pool_retired"]

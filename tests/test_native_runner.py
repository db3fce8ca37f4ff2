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
"""

from __future__ import annotations

import copy
import dataclasses
import os

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
    RuntimeEvents,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.runtime.supervisor import _Buffers, _Job, dependency_levels, serve
from repro.schedule import lpt_schedule
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

"""Process-executor tests: shared-memory supervisor/worker pool.

The contract under test is the ISSUE 5 acceptance bar: ``ProcessExecutor``
is a drop-in peer of ``SerialExecutor``/``ThreadedExecutor`` — the same
``evaluate(t, y, p, res, schedule)`` call, *bit-identical* results on all
four example models (tasks are pure functions of ``(t, y, p)`` writing
disjoint slots, so process boundaries must not change a single bit) — and
the pool survives worker processes dying mid-round (including SIGKILL)
without deadlocking, recording every recovery step in RuntimeEvents.
"""

from __future__ import annotations

import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.apps import (
    Bearing3dParams,
    BearingParams,
    build_bearing2d,
    build_bearing3d,
    build_powerplant,
    build_servo,
)
from repro.frontend import compile_model
from repro.runtime import (
    ParallelRHS,
    ProcessExecutor,
    RuntimeEvents,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.schedule import SemiDynamicScheduler

from .test_runtime_faults import (
    check_all_workers_dead_degrades,
    check_closed_executor_rejects_work,
    check_hung_worker_hits_round_timeout,
    check_kill_reassigns_dead_workers_tasks,
    check_persistent_fault_moves_off_the_worker,
    check_retry_recovers,
    check_schedule_mismatch,
)

#: the four example models, kept small enough for per-test pools
MODEL_BUILDERS = {
    "servo": build_servo,
    "powerplant": build_powerplant,
    "bearing2d": lambda: build_bearing2d(BearingParams(num_rollers=4)),
    "bearing3d": lambda: build_bearing3d(
        Bearing3dParams(num_rollers=4, contact_harmonics=2)
    ),
}


@pytest.fixture(scope="module", params=sorted(MODEL_BUILDERS))
def any_program(request):
    return compile_model(MODEL_BUILDERS[request.param]()).program


@pytest.fixture(scope="module")
def program(compiled_small_bearing):
    return compiled_small_bearing.program


def _serial_reference(program, t, y, p):
    res = program.results_buffer()
    SerialExecutor(program).evaluate(t, y, p, res)
    return res


@pytest.fixture(scope="module")
def reference(program):
    return _serial_reference(program, 0.0, program.start_vector(),
                             program.param_vector())


class TestEquivalenceMatrix:
    """Bit-identical ``ydot`` across serial/thread/process on all four
    example models, at the start vector and at a perturbed state."""

    def test_executors_bit_identical(self, any_program):
        program = any_program
        p = program.param_vector()
        rng = np.random.default_rng(7)
        states = [
            (0.0, program.start_vector()),
            (0.375, program.start_vector()
             * (1.0 + 0.01 * rng.standard_normal(program.num_states))),
        ]
        refs = [_serial_reference(program, t, y, p) for t, y in states]
        with ThreadedExecutor(program, num_workers=2) as threaded, \
                ProcessExecutor(program, num_workers=2) as procs:
            for executor in (threaded, procs):
                for (t, y), ref in zip(states, refs):
                    res = program.results_buffer()
                    executor.evaluate(t, y, p, res)
                    np.testing.assert_array_equal(res, ref)

    def test_many_rounds_and_measured_times(self, program):
        p = program.param_vector()
        y = program.start_vector()
        ref = _serial_reference(program, 0.0, y, p)
        with ProcessExecutor(program, num_workers=2) as executor:
            for _ in range(10):
                res = program.results_buffer()
                executor.evaluate(0.0, y, p, res)
                np.testing.assert_array_equal(res, ref)
            # Measured per-task wall times crossed back through shared
            # memory — the semi-dynamic LPT's feedback signal.
            assert executor.last_task_times.sum() > 0
            assert (executor.last_task_times >= 0).all()

    def test_parallel_rhs_facade(self, program):
        with ProcessExecutor(program, num_workers=2) as executor:
            f = ParallelRHS(program, executor)
            y = program.start_vector()
            np.testing.assert_array_equal(f(0.0, y), program.rhs(0.0, y))
            assert f.ncalls == 1

    def test_semidynamic_feedback_loop(self, program):
        scheduler = SemiDynamicScheduler(program.task_graph, 2,
                                         reschedule_every=2)
        with ProcessExecutor(program, num_workers=2) as executor:
            f = ParallelRHS(program, executor, scheduler=scheduler,
                            feed_measurements=True)
            y = program.start_vector()
            expected = program.rhs(0.0, y)
            for _ in range(4):
                np.testing.assert_array_equal(f(0.0, y), expected)
        assert scheduler.num_reschedules == 2


class TestValidation:
    def test_invalid_construction(self, program):
        with pytest.raises(ValueError):
            ProcessExecutor(program, num_workers=0)
        with pytest.raises(ValueError):
            ProcessExecutor(program, num_workers=1, level_timeout=0.0)
        with pytest.raises(ValueError):
            ProcessExecutor(program, num_workers=1,
                            heartbeat_interval=1.0, heartbeat_timeout=0.5)

    def test_schedule_mismatch(self, program):
        check_schedule_mismatch(ProcessExecutor, program)

    def test_closed_executor_rejects_work(self, program):
        check_closed_executor_rejects_work(ProcessExecutor, program)


class TestProcessFaults:
    """The pool-independent cases (``check_*``, shared with the thread
    pool's suite) plus what only a process can suffer: a SIGKILL from
    outside."""

    def test_sigkilled_worker_mid_round_recovers(self, program, reference):
        # The injected kill is a real one here: the worker SIGKILLs
        # itself inside the task (no farewell message, heartbeat stops,
        # pipe EOFs).
        check_kill_reassigns_dead_workers_tasks(ProcessExecutor, program,
                                                reference)

    def test_externally_sigkilled_worker_between_rounds(self, program):
        p = program.param_vector()
        y = program.start_vector()
        ref = _serial_reference(program, 0.0, y, p)
        events = RuntimeEvents()
        with ProcessExecutor(program, num_workers=2,
                             events=events) as executor:
            res = program.results_buffer()
            executor.evaluate(0.0, y, p, res)
            os.kill(executor._transport.procs[0].pid, signal.SIGKILL)
            executor._transport.procs[0].join(timeout=5.0)
            res2 = program.results_buffer()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                executor.evaluate(0.0, y, p, res2)
            np.testing.assert_array_equal(res2, ref)
            assert events.count("worker_dead") == 1

    def test_raise_retries_on_same_worker(self, program, reference):
        check_retry_recovers(ProcessExecutor, program, reference, "raise")

    @pytest.mark.parametrize("mode", ["nan", "inf"])
    def test_nonfinite_output_caught_and_recovered(self, program, reference,
                                                   mode):
        check_retry_recovers(ProcessExecutor, program, reference, mode)

    @pytest.mark.parametrize("mode", ["raise", "nan", "inf"])
    def test_persistent_fault_moves_off_the_worker(self, program, reference,
                                                   mode):
        check_persistent_fault_moves_off_the_worker(
            ProcessExecutor, program, reference, mode
        )

    def test_hung_worker_hits_round_timeout(self, program, reference):
        check_hung_worker_hits_round_timeout(ProcessExecutor, program,
                                             reference)

    def test_injected_kills_on_all_workers_degrade(self, program, reference):
        check_all_workers_dead_degrades(ProcessExecutor, program, reference)

    def test_all_workers_dead_degrades_to_serial(self, program):
        p = program.param_vector()
        y = program.start_vector()
        ref = _serial_reference(program, 0.0, y, p)
        events = RuntimeEvents()
        with ProcessExecutor(program, num_workers=2,
                             events=events) as executor:
            for proc in executor._transport.procs:
                os.kill(proc.pid, signal.SIGKILL)
            for proc in executor._transport.procs:
                proc.join(timeout=5.0)
            res = program.results_buffer()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                executor.evaluate(0.0, y, p, res)
            np.testing.assert_array_equal(res, ref)
            assert executor.degraded
            assert events.count("degraded") == 1


class TestResourceHygiene:
    def test_close_unlinks_all_shared_memory(self, program):
        executor = ProcessExecutor(program, num_workers=2)
        names = [shm.name for shm in executor._transport.blocks.segments.values()]
        # y, p, res, times, hb + the K-stage blocks kst, sres, prog, ctl
        assert len(names) == 9
        executor.close()
        shm_dir = "/dev/shm"
        if os.path.isdir(shm_dir):
            leftovers = [n for n in names
                         if os.path.exists(os.path.join(shm_dir, n))]
            assert leftovers == []

    def test_close_survives_dead_pool(self, program):
        executor = ProcessExecutor(program, num_workers=2)
        for proc in executor._transport.procs:
            os.kill(proc.pid, signal.SIGKILL)
        executor.close()
        assert executor._transport.blocks.segments == {}

    def test_sigkilled_supervisor_leaves_no_orphans_or_segments(self):
        """SIGKILL the *supervisor* process: the orphan watchdog must
        take the workers down with it (under fork a worker inherits
        sibling pipe ends, so it never sees EOF), and with every
        tracker-pipe holder gone the resource tracker unlinks the shm
        segments.  Regression: workers used to survive forever and pin
        the segments."""
        import subprocess
        import sys

        script = (
            "import os, sys, time\n"
            "from repro.apps import build_bearing2d, BearingParams\n"
            "from repro.frontend import compile_model\n"
            "from repro.runtime import ProcessExecutor\n"
            "program = compile_model(\n"
            "    build_bearing2d(BearingParams(num_rollers=4))).program\n"
            "ex = ProcessExecutor(program, num_workers=2)\n"
            "print('|'.join(str(p.pid) for p in ex._transport.procs), flush=True)\n"
            "print('|'.join(s.name for s in ex._transport.blocks.segments.values()), flush=True)\n"
            "time.sleep(60)\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            worker_pids = [int(x) for x in
                           proc.stdout.readline().split("|")]
            segment_names = proc.stdout.readline().split("|")
            assert len(worker_pids) == 2 and len(segment_names) == 9
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

            def workers_gone() -> bool:
                for pid in worker_pids:
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        continue
                    return False
                return True

            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not workers_gone():
                time.sleep(0.1)
            assert workers_gone(), "workers outlived a SIGKILL'd supervisor"
            if os.path.isdir("/dev/shm"):
                deadline = time.monotonic() + 10.0
                leftovers = segment_names
                while time.monotonic() < deadline and leftovers:
                    leftovers = [n for n in segment_names
                                 if os.path.exists(os.path.join(
                                     "/dev/shm", n.lstrip("/")))]
                    time.sleep(0.1)
                assert leftovers == [], f"leaked segments: {leftovers}"
        finally:
            proc.kill()
            for name in segment_names:
                try:
                    os.unlink(os.path.join("/dev/shm", name.lstrip("/")))
                except OSError:
                    pass


class TestRebuildSpec:
    def test_spec_is_picklable_and_rebuilds(self, program):
        import pickle

        spec = pickle.loads(pickle.dumps(program.rebuild_spec()))
        assert spec.num_tasks == program.num_tasks
        assert spec.task_slots == tuple(
            program.task_output_slots(tid)
            for tid in range(program.num_tasks)
        )
        run = spec.build_runner()
        y = program.start_vector()
        p = program.param_vector()
        res = program.results_buffer()
        times = np.zeros(program.num_tasks)
        ref = _serial_reference(program, 0.0, y, p)
        from repro.runtime import dependency_levels

        for level in dependency_levels(program.task_graph):
            run(tuple(level), 0.0, y, p, res, times)
        np.testing.assert_array_equal(res, ref)
        assert np.all(times > 0)

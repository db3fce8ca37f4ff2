"""Runtime tests: machine models, message accounting, the discrete-event
simulator, real executors, and the parallel-RHS facades."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    IDEAL_MACHINE,
    MachineModel,
    PARSYTEC_GCPP,
    SPARCCENTER_2000,
    ParallelRHS,
    SerialExecutor,
    ThreadedExecutor,
    VirtualTimeParallelRHS,
    broadcast_bytes,
    dependency_levels,
    gather_bytes,
    simulate_round,
    simulate_run,
    speedup_curve,
    worker_message_bytes,
)
from repro.schedule import SemiDynamicScheduler, Task, TaskGraph, lpt_schedule

from .test_runtime_faults import (
    check_closed_executor_rejects_work,
    check_schedule_mismatch,
)


def _graph(weights, deps=None):
    deps = deps or {}
    return TaskGraph(
        [
            Task(i, f"t{i}", (f"der:s{i}",), ("s0",), w,
                 depends_on=tuple(deps.get(i, ())))
            for i, w in enumerate(weights)
        ]
    )


class TestMachineModel:
    def test_message_time(self):
        m = MachineModel("m", 4, message_latency=1e-5, byte_cost=1e-7)
        assert m.message_time(1) == pytest.approx(1e-5)
        assert m.message_time(101) == pytest.approx(1e-5 + 100e-7)
        assert m.message_time(0) == 0.0

    def test_contention_below_knee(self):
        assert SPARCCENTER_2000.contention_factor(7) == 1.0
        assert SPARCCENTER_2000.contention_factor(10) > 1.0

    def test_no_knee(self):
        assert PARSYTEC_GCPP.contention_factor(60) == 1.0

    def test_paper_latencies(self):
        # "A message of 1 byte takes 4 us ... and 140 us" (section 4).
        assert SPARCCENTER_2000.message_time(1) == pytest.approx(4e-6)
        assert PARSYTEC_GCPP.message_time(1) == pytest.approx(140e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel("m", 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MachineModel("m", 1, -1.0, 0.0)
        with pytest.raises(ValueError):
            MachineModel("m", 1, 0.0, 0.0, compute_speed=0.0)


class TestMessages:
    def test_broadcast_full_state(self):
        assert broadcast_bytes(10) == 8 * 11  # states + t

    def test_broadcast_needed_only(self):
        assert broadcast_bytes(10, full_state=False, needed=3) == 8 * 4

    def test_worker_bytes(self):
        g = _graph([1.0, 1.0, 1.0])
        s = lpt_schedule(g, 2)
        down, up = worker_message_bytes(g, s, 0, num_states=3)
        assert down == 8 * 4
        assert up == 8 * len(s.tasks_of(0))

    def test_gather_totals(self):
        g = _graph([1.0, 1.0])
        s = lpt_schedule(g, 2)
        stats = gather_bytes(g, s, num_states=2)
        assert stats.num_messages == 4  # 2 down + 2 up


class TestSimulateRound:
    def test_single_worker_no_comm(self):
        g = _graph([1.0, 2.0])
        s = lpt_schedule(g, 1)
        b = simulate_round(g, s, PARSYTEC_GCPP, num_states=2)
        assert b.round_time == pytest.approx(3.0)
        assert b.send_time == 0.0

    def test_ideal_machine_perfect_speedup(self):
        g = _graph([1.0] * 8)
        s1 = lpt_schedule(g, 1)
        s8 = lpt_schedule(g, 8)
        t1 = simulate_round(g, s1, IDEAL_MACHINE, 8).round_time
        t8 = simulate_round(g, s8, IDEAL_MACHINE, 8).round_time
        assert t1 / t8 == pytest.approx(8.0)

    def test_latency_hurts_small_tasks(self):
        g = _graph([1e-5] * 8)  # tiny tasks vs 140 us messages
        s = lpt_schedule(g, 4)
        serial = simulate_round(g, lpt_schedule(g, 1), PARSYTEC_GCPP, 8)
        parallel = simulate_round(g, s, PARSYTEC_GCPP, 8)
        assert parallel.round_time > serial.round_time

    def test_compute_speed_scaling(self):
        g = _graph([1.0])
        fast = MachineModel("f", 1, 0.0, 0.0, compute_speed=2.0)
        b = simulate_round(g, lpt_schedule(g, 1), fast, 1)
        assert b.round_time == pytest.approx(0.5)

    def test_task_time_override(self):
        g = _graph([1.0, 1.0])
        s = lpt_schedule(g, 1)
        b = simulate_round(g, s, IDEAL_MACHINE, 2, task_times=[5.0, 5.0])
        assert b.round_time == pytest.approx(10.0)

    def test_wrong_time_count(self):
        g = _graph([1.0])
        with pytest.raises(ValueError):
            simulate_round(g, lpt_schedule(g, 1), IDEAL_MACHINE, 1,
                           task_times=[1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 1e-2), min_size=1, max_size=20),
        st.integers(1, 8),
    )
    def test_round_time_bounds_property(self, weights, workers):
        """Simulated round time is at least the compute lower bound and at
        most the fully serial time plus all communication."""
        g = _graph(weights)
        s = lpt_schedule(g, workers)
        b = simulate_round(g, s, SPARCCENTER_2000, len(weights))
        lower = max(max(weights), sum(weights) / workers)
        assert b.round_time >= lower * 0.999 / SPARCCENTER_2000.compute_speed
        total_comm = 2 * workers * SPARCCENTER_2000.message_time(
            8 * (len(weights) + 1)
        )
        upper = (sum(weights) + total_comm) * SPARCCENTER_2000.contention_factor(
            workers
        )
        assert b.round_time <= upper * 1.001 + 1e-12


class TestSimulateRun:
    def test_total_accumulates(self):
        g = _graph([1e-3] * 4)
        report = simulate_run(g, IDEAL_MACHINE, 2, 4, num_rounds=10)
        assert report.num_rounds == 10
        assert report.total_time == pytest.approx(10 * report.round_times[0])

    def test_semidynamic_adapts(self):
        g = _graph([1e-3] * 8)
        scheduler = SemiDynamicScheduler(g, 2, reschedule_every=2,
                                         smoothing=1.0)

        def sampler(r, tid):
            # Task 0 becomes dominant halfway through.
            return 50e-3 if (tid == 0 and r >= 10) else 1e-3

        report = simulate_run(
            g, IDEAL_MACHINE, 2, 8, num_rounds=40,
            task_time_sampler=sampler, scheduler=scheduler,
        )
        assert report.num_reschedules > 0
        # After adaptation, rounds should approach the balanced optimum
        # (task0 alone: 50 ms vs 7 ms on the other worker -> 50 ms round).
        assert report.round_times[-1] == pytest.approx(50e-3, rel=0.05)

    def test_static_vs_dynamic_with_variable_load(self):
        rng = np.random.default_rng(3)
        g = _graph([1e-3] * 12)
        variable = rng.uniform(0.5e-3, 4e-3, size=(60, 12))

        def sampler(r, tid):
            return float(variable[r, tid])

        static = simulate_run(g, IDEAL_MACHINE, 3, 12, 60,
                              task_time_sampler=sampler)
        dynamic = simulate_run(
            g, IDEAL_MACHINE, 3, 12, 60, task_time_sampler=sampler,
            scheduler=SemiDynamicScheduler(g, 3, reschedule_every=1,
                                           smoothing=1.0),
        )
        # Dynamic rescheduling should not be (much) worse.
        assert dynamic.total_time <= static.total_time * 1.10

    def test_validation(self):
        g = _graph([1.0])
        with pytest.raises(ValueError):
            simulate_run(g, IDEAL_MACHINE, 1, 1, num_rounds=0)


class TestSpeedupCurve:
    def test_shared_memory_shape(self):
        # 64 equal 100-us tasks on the low-latency shared-memory machine:
        # near-linear speedup at small counts, knee past 7 workers.
        g = _graph([1e-4] * 64)
        curve = dict(speedup_curve(g, SPARCCENTER_2000, 64, range(1, 17)))
        assert curve[4] > 3.0 * curve[1]
        assert curve[7] > 5.0 * curve[1]
        gain_after_knee = curve[12] / curve[8]
        assert gain_after_knee < 1.3

    def test_distributed_memory_peak(self):
        # Small tasks + 140 us latency: throughput peaks then declines.
        g = _graph([2e-4] * 64)
        curve = speedup_curve(g, PARSYTEC_GCPP, 64, range(1, 17))
        rates = [r for _, r in curve]
        peak = rates.index(max(rates)) + 1
        assert 2 <= peak <= 12
        assert rates[-1] < max(rates)

    def test_invalid_worker_count(self):
        g = _graph([1.0])
        with pytest.raises(ValueError):
            speedup_curve(g, IDEAL_MACHINE, 1, [0])


class TestExecutors:
    def test_dependency_levels(self):
        g = _graph([1.0, 1.0, 1.0], deps={2: [0, 1]})
        levels = dependency_levels(g)
        assert levels == [[0, 1], [2]]

    def test_serial_executor_matches_rhs(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        executor = SerialExecutor(program)
        y = program.start_vector()
        p = program.param_vector()
        res = program.results_buffer()
        executor.evaluate(0.0, y, p, res)
        assert np.allclose(res[: program.num_states], program.rhs(0.0, y, p))
        assert executor.last_task_times.sum() > 0

    def test_threaded_executor_matches_serial(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        serial = program.rhs(0.0, program.start_vector(),
                             program.param_vector())
        with ThreadedExecutor(program, num_workers=3) as executor:
            res = program.results_buffer()
            executor.evaluate(0.0, program.start_vector(),
                              program.param_vector(), res)
            assert np.allclose(res[: program.num_states], serial)

    def test_threaded_executor_many_rounds(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        y = program.start_vector()
        p = program.param_vector()
        expected = program.rhs(0.0, y, p)
        with ThreadedExecutor(program, num_workers=2) as executor:
            for _ in range(20):
                res = program.results_buffer()
                executor.evaluate(0.0, y, p, res)
                assert np.allclose(res[: program.num_states], expected)

    def test_threaded_executor_schedule_mismatch(self, compiled_small_bearing):
        check_schedule_mismatch(ThreadedExecutor,
                                compiled_small_bearing.program)

    def test_closed_executor_rejects_work(self, compiled_small_bearing):
        check_closed_executor_rejects_work(ThreadedExecutor,
                                           compiled_small_bearing.program)


class TestParallelRhsFacades:
    def test_parallel_rhs_matches_serial(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        f = ParallelRHS(program)
        y = program.start_vector()
        assert np.allclose(f(0.0, y), program.rhs(0.0, y))
        assert f.ncalls == 1

    def test_virtual_time_accumulates(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        f = VirtualTimeParallelRHS(program, SPARCCENTER_2000, num_workers=4)
        y = program.start_vector()
        f(0.0, y)
        f(0.0, y)
        assert f.virtual_time > 0
        assert f.rhs_calls_per_second > 0
        assert f.ncalls == 2

    def test_virtual_time_fewer_workers_slower(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        y = program.start_vector()
        times = {}
        for w in (1, 4):
            f = VirtualTimeParallelRHS(program, IDEAL_MACHINE, num_workers=w)
            f(0.0, y)
            times[w] = f.virtual_time
        assert times[4] < times[1]

    def test_measured_time_source(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        f = VirtualTimeParallelRHS(
            program, SPARCCENTER_2000, num_workers=2, time_source="measured"
        )
        f(0.0, program.start_vector())
        assert f.virtual_time > 0

    def test_bad_time_source(self, compiled_small_bearing):
        with pytest.raises(ValueError):
            VirtualTimeParallelRHS(
                compiled_small_bearing.program, SPARCCENTER_2000, 2,
                time_source="guess",
            )

    def test_feed_measurements_without_scheduler_rejected(
        self, compiled_small_bearing
    ):
        # feed_measurements=True with scheduler=None used to silently
        # drop every measurement and run the static LPT forever; the
        # misconfiguration must fail loudly at construction instead.
        program = compiled_small_bearing.program
        with pytest.raises(ValueError, match="requires a scheduler"):
            ParallelRHS(program, feed_measurements=True)
        # The valid configuration still works and feeds the scheduler.
        scheduler = SemiDynamicScheduler(program.task_graph, 1,
                                         reschedule_every=1)
        f = ParallelRHS(program, scheduler=scheduler,
                        feed_measurements=True)
        f(0.0, program.start_vector())
        assert scheduler.num_reschedules == 1
        f.close()

    def test_measured_virtual_time_without_scheduler_still_works(
        self, compiled_small_bearing
    ):
        # VirtualTimeParallelRHS consumes measured times directly (for
        # the virtual clock); it must not trip the new scheduler guard.
        f = VirtualTimeParallelRHS(
            compiled_small_bearing.program, SPARCCENTER_2000,
            num_workers=2, time_source="measured",
        )
        assert f.feed_measurements is False
        f(0.0, compiled_small_bearing.program.start_vector())
        assert f.virtual_time > 0


class TestExecutorFailureInjection:
    def test_worker_exception_propagates_not_deadlocks(
        self, compiled_small_bearing
    ):
        """A task raising inside a worker must surface in evaluate() —
        never deadlock the supervisor barrier."""
        program = compiled_small_bearing.program
        y = program.start_vector().copy()
        y[:] = np.nan  # NaNs flow through arithmetic...
        bad_y = np.array([object()] * program.num_states, dtype=object)

        with ThreadedExecutor(program, num_workers=2) as executor:
            res = program.results_buffer()
            with pytest.raises(RuntimeError, match="task evaluation failed"):
                # object() inputs blow up inside the generated arithmetic.
                executor.evaluate(0.0, bad_y, program.param_vector(), res)
            # The pool must remain usable afterwards.
            res2 = program.results_buffer()
            executor.evaluate(0.0, program.start_vector(),
                              program.param_vector(), res2)
            expected = program.rhs(0.0, program.start_vector(),
                                   program.param_vector())
            assert np.allclose(res2[: program.num_states], expected)

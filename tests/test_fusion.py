"""Task fusion + K-stage round tests.

Three layers:

* the ``fuse_tasks`` compiler pass — merge counts, dependency-order
  safety, determinism, the ``--no-fuse`` escape hatch, the ``--explain``
  metrics, and the cache-fingerprint coverage of the fusion options,
* the bit-identity matrix — serial/thread/process executors x
  fused/unfused programs x stage chunks K in {1, 2, full}: every
  combination must reproduce the plain per-stage serial solve *bit for
  bit* on all four example apps,
* the fault matrix under fusion — kill/hang/raise/nan mid-fused-task
  during an optimistic K-stage round must recover through the hardened
  ladder, still bit-identical.
"""

from __future__ import annotations

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
from repro.codegen.fuse import FusionStats
from repro.compiler import CompileOptions
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
from repro.runtime.supervisor import dependency_levels
from repro.schedule.semidynamic import SemiDynamicScheduler
from repro.solver.common import SolverOptions
from repro.solver.rk import rk45_adaptive


class _PlainRHS(ParallelRHS):
    """ParallelRHS without the K-stage fast path: the solver falls back
    to one ``__call__`` per stage — the bit-identity reference."""

    eval_stages = None


def _solve(rhs, program, tspan):
    return rk45_adaptive(rhs, tspan, program.start_vector(),
                         SolverOptions(max_steps=30))


# -- the fuse_tasks pass ----------------------------------------------------


class TestFusePass:
    def test_small_tasks_merge_on_the_paper_bearing(self, bearing_model):
        fused = compile_model(bearing_model)
        unfused = compile_model(bearing_model, fuse=False)
        assert unfused.program.num_tasks > fused.program.num_tasks
        m = fused.report.metrics
        assert m["fuse_tasks_before"] == unfused.program.num_tasks
        assert m["fuse_tasks_after"] == fused.program.num_tasks
        assert m["fuse_threshold"] > 0

    def test_fused_plan_keeps_dependency_order(self, bearing_model):
        program = compile_model(bearing_model).program
        levels = dependency_levels(program.task_graph)
        seen: set[int] = set()
        for level in levels:
            for tid in level:
                deps = program.task_graph[tid].depends_on
                assert set(deps) <= seen
            seen.update(level)

    def test_fusion_is_deterministic(self, bearing_model):
        a = compile_model(bearing_model).program
        b = compile_model(bearing_model).program
        assert a.module.source == b.module.source
        assert [t.weight for t in a.task_graph.tasks] == [
            t.weight for t in b.task_graph.tasks
        ]

    def test_no_fuse_escape_hatch_reports_skip(self, bearing_model):
        report = compile_model(bearing_model, fuse=False).report
        assert "fuse_tasks" in report.skipped_passes
        assert "fuse_tasks_before" not in report.metrics

    def test_explain_renders_fusion_lines(self, bearing_model):
        text = str(compile_model(bearing_model).report)
        assert "fuse_tasks" in text
        assert "fuse tasks:" in text
        assert "fused cost histogram:" in text

    def test_threshold_override_caps_merging(self, bearing_model):
        # A near-zero threshold makes every task "big enough" already.
        cm = compile_model(bearing_model, fuse_threshold=1e-30)
        assert (cm.report.metrics["fuse_tasks_after"]
                == cm.report.metrics["fuse_tasks_before"])

    def test_fingerprint_covers_fusion_options(self):
        base = CompileOptions().codegen_fingerprint()
        assert CompileOptions(fuse=False).codegen_fingerprint() != base
        assert (CompileOptions(fuse_threshold=1e-3).codegen_fingerprint()
                != base)

    def test_fusion_stats_histogram_bands(self):
        stats = FusionStats(tasks_before=10, tasks_after=4, threshold=1.0,
                            fused_costs=(0.1, 0.3, 0.9, 1.5))
        assert stats.merged
        hist = dict(stats.cost_histogram())
        assert hist["<0.25t"] == 1
        assert hist["0.25-0.5t"] == 1
        assert hist["0.5-1t"] == 1
        assert hist["1-2t"] == 1
        assert sum(hist.values()) == 4


# -- the bit-identity matrix ------------------------------------------------


MATRIX_MODELS = {
    "servo": build_servo,
    "powerplant": build_powerplant,
    "bearing2d": lambda: build_bearing2d(BearingParams(num_rollers=10)),
    "bearing3d": lambda: build_bearing3d(
        Bearing3dParams(num_rollers=4, contact_harmonics=4)
    ),
}
MATRIX_SPANS = {
    "servo": (0.0, 0.05),
    "powerplant": (0.0, 0.05),
    "bearing2d": (0.0, 1e-4),
    "bearing3d": (0.0, 1e-4),
}


@pytest.mark.parametrize("name", sorted(MATRIX_MODELS))
class TestBitIdentityMatrix:
    def _matrix(self, name, make_executor, chunks):
        """Solve under every (fusion, K) combination and compare against
        the plain per-stage serial reference of the same program."""
        tspan = MATRIX_SPANS[name]
        model = MATRIX_MODELS[name]()
        for fused in (True, False):
            program = compile_model(model, fuse=fused).program
            ref = _solve(_PlainRHS(program), program, tspan)
            assert ref.success
            executor = make_executor(program)
            try:
                for chunk in chunks:
                    rhs = ParallelRHS(program, executor, stage_chunk=chunk)
                    result = _solve(rhs, program, tspan)
                    label = (name, fused, type(executor).__name__, chunk)
                    assert result.success, label
                    assert np.array_equal(result.ts, ref.ts), label
                    assert np.array_equal(result.ys, ref.ys), label
            finally:
                executor.close()

    def test_serial_stage_path(self, name):
        self._matrix(name, lambda p: SerialExecutor(p), (1, 2, 6))

    def test_threaded_stage_rounds(self, name):
        self._matrix(
            name, lambda p: ThreadedExecutor(p, num_workers=2), (1, 2, 6)
        )

    def test_process_stage_rounds(self, name):
        self._matrix(
            name, lambda p: ProcessExecutor(p, num_workers=2), (1, 2, 6)
        )


# -- the fault matrix under fusion ------------------------------------------


@pytest.fixture(scope="module")
def fused_bearing():
    """The paper's 10-roller bearing, fused (38 -> 8 tasks): every task
    is a real multi-member fused task, so a fault lands mid-fusion."""
    return compile_model(build_bearing2d(BearingParams(num_rollers=10)))


@pytest.mark.parametrize("mode,extra,level_timeout", [
    ("raise", {}, 1.0),
    ("kill", {}, 1.0),
    # The hang must outlive the barrier deadline, or it is just a slow
    # task and the optimistic round completes normally.
    ("hang", {"hang_seconds": 1.5}, 0.5),
    ("nan", {}, 1.0),
])
@pytest.mark.parametrize("executor_cls", [ThreadedExecutor, ProcessExecutor])
def test_fault_mid_fused_stage_round_recovers_bit_identical(
    fused_bearing, executor_cls, mode, extra, level_timeout
):
    program = fused_bearing.program
    tspan = (0.0, 1e-4)
    ref = _solve(_PlainRHS(program), program, tspan)

    events = RuntimeEvents()
    injector = FaultInjector(
        [FaultSpec(task_id=2, mode=mode, round_index=3, count=1, **extra)],
        events=events,
    )
    executor = executor_cls(program, num_workers=2, injector=injector,
                            events=events, level_timeout=level_timeout)
    rhs = ParallelRHS(program, executor, stage_chunk=6)
    try:
        result = _solve(rhs, program, tspan)
    finally:
        rhs.close()
    assert result.success
    assert np.array_equal(result.ts, ref.ts)
    assert np.array_equal(result.ys, ref.ys)
    # The optimistic round aborted and the chunk re-ran supervised.
    assert events.count("stage_round_aborted") >= 1


# -- the K auto-tuner -------------------------------------------------------


class TestAutoTuner:
    def test_uncalibrated_scheduler_recommends_k1(self, compiled_servo):
        s = SemiDynamicScheduler(compiled_servo.program.task_graph, 4)
        assert s.recommend_stage_chunk() == 1

    def test_expensive_dispatch_recommends_full_chunk(self, compiled_servo):
        s = SemiDynamicScheduler(compiled_servo.program.task_graph, 4)
        s.calibrate_dispatch(10.0)  # absurdly slow dispatch
        assert s.recommend_stage_chunk(max_stages=6) == 6

    def test_dispatch_calibration_validates(self, compiled_servo):
        s = SemiDynamicScheduler(compiled_servo.program.task_graph, 2)
        with pytest.raises(ValueError):
            s.calibrate_dispatch(-1.0)

    def test_fusion_threshold_recommendation_positive(self, compiled_servo):
        s = SemiDynamicScheduler(compiled_servo.program.task_graph, 2)
        s.calibrate_dispatch(1e-3)
        assert s.recommend_fusion_threshold() > 0

    def test_serial_dispatch_is_free(self, compiled_servo):
        assert SerialExecutor(
            compiled_servo.program
        ).measure_dispatch_overhead() == 0.0

    def test_threaded_dispatch_is_measurable(self, compiled_servo):
        with ThreadedExecutor(compiled_servo.program, 2) as executor:
            overhead = executor.measure_dispatch_overhead(trials=3)
        assert overhead > 0.0

    def test_auto_chunk_on_serial_resolves_to_one(self, compiled_servo):
        rhs = ParallelRHS(compiled_servo.program, stage_chunk="auto")
        assert rhs._resolve_stage_chunk(6) == 1

    def test_stage_chunk_validation(self, compiled_servo):
        with pytest.raises(ValueError):
            ParallelRHS(compiled_servo.program, stage_chunk=0)
        with pytest.raises(ValueError):
            ParallelRHS(compiled_servo.program, stage_chunk="sometimes")

    def test_stage_times_fed_per_round(self, compiled_servo):
        """A K-stage chunk accumulates K rounds of task times; the
        scheduler feed must divide them back to per-round scale."""
        program = compiled_servo.program
        scheduler = SemiDynamicScheduler(program.task_graph, 2,
                                         reschedule_every=1)
        with ThreadedExecutor(program, 2) as executor:
            rhs = ParallelRHS(program, executor, scheduler=scheduler,
                              feed_measurements=True, stage_chunk=6)
            from repro.solver.rk import DOPRI_A, DOPRI_C

            y = program.start_vector()
            k = np.empty((7, y.size))
            k[0] = rhs(0.0, y)
            rhs.eval_stages(0.0, y, 1e-8, k, DOPRI_A, DOPRI_C)
            assert executor.last_times_rounds == 6
            assert np.all(np.isfinite(scheduler.estimates))
            assert np.all(scheduler.estimates >= 0)

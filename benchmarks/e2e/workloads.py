"""The four permanent workloads and the constants of the run protocol.

Every count below is a constant of the benchmark: it is the same on every
commit, so two runs of two commits measure the same amount of work.  The
counts are calibrated for ``--seconds RUN_SECONDS`` (the value in
``BENCHMARK.json``); another ``--seconds`` scales the repetition counts,
never the integration spans (the golden files pin those).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.apps import (
    Bearing3dParams,
    BearingParams,
    build_bearing2d,
    build_bearing3d,
)

#: the ``--seconds`` the counts below are calibrated for
RUN_SECONDS = 30
#: this host has two vCPUs; both parallel workloads use exactly two workers
NUM_WORKERS = 2
RTOL, ATOL = 1e-6, 1e-9

#: timed solves per run.  The ISSUE asks for 11 and allows 9 when the gate's
#: cap on a run (about 37 s) binds; with solves of 1.2-1.5 s it does.
SOLVES = 9
#: timed RHS batches after each solve, over RHS_POINTS seeded state points:
#: 27 short batches, not 11 of 0.3 s, because single batches of the process
#: pool scatter by 35 % and the median of 9 kept half of that
RHS_BATCHES_PER_SOLVE = 3
RHS_POINTS = 64
#: fresh interpreters timed for setup_s, spread over the run
SETUP_PROBES = 3
#: executor constructions (and closes) timed for compile_solve_s
EXECUTOR_STARTS = 5

#: traced run: (untraced, traced) solve pairs, individually timed RHS calls
#: (the ISSUE asks for at least 2 000 samples behind each p99)
TRACE_SOLVE_PAIRS = 4
TRACE_RHS_SAMPLES = 4096
TRACE_TASK_SAMPLES = 200
TRACE_SERIAL_SOLVES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    #: repo root -> compile_context keyword (``model=`` or ``source=``)
    inputs: Callable[[Path], dict[str, Any]]
    #: CompileOptions keywords (caches are added per repetition)
    options: dict[str, Any]
    #: "thread", "process" or None (direct ``make_rhs()``, no runtime)
    executor: str | None
    method: str
    t_end: float
    #: span of the ``--quick`` solves (has its own golden entry)
    quick_t_end: float
    #: untimed solves through the timed path run for this long first
    warmup_s: float
    #: RHS calls per timed batch (about 0.1 s on the reference host)
    rhs_batch: int
    #: timed {cold, warm} compile pairs after the discarded one: as many of
    #: the ISSUE's 5 as the gate's cap on a run leaves room for
    compile_reps: int

    @property
    def needs_cc(self) -> bool:
        return self.options.get("backend") == "c"


def _bearing3d(root: Path) -> dict[str, Any]:
    return {
        "model": build_bearing3d(
            Bearing3dParams(num_rollers=8, contact_harmonics=3)
        )
    }


def _bearing2d_32(root: Path) -> dict[str, Any]:
    return {"model": build_bearing2d(BearingParams(num_rollers=32))}


def _bearing2d_source(root: Path) -> dict[str, Any]:
    path = root / "examples" / "models" / "bearing2d.om"
    return {"source": path.read_text()}


WORKLOADS: tuple[Workload, ...] = (
    # The runtime does nearly all the work: a round is ~450 us around
    # ~2 us of native bodies, so dispatch and barrier work shows here and
    # nowhere else; compile is half cc.
    Workload(
        name="b3d_c_thread2",
        inputs=_bearing3d,
        options={"backend": "c"},
        executor="thread",
        method="rk45",
        t_end=0.045,
        quick_t_end=0.004,
        warmup_s=4.0,
        rhs_batch=180,
        compile_reps=2,
    ),
    # Same model through the other transport: POSIX shm + pipes and
    # interpreted bodies, so an executor change that helps threads at the
    # cost of processes (or the reverse) shows; no cc in compile.
    Workload(
        name="b3d_py_proc2",
        inputs=_bearing3d,
        options={"backend": "python"},
        executor="process",
        method="rk45",
        t_end=0.085,
        quick_t_end=0.005,
        warmup_s=4.0,
        rhs_batch=200,
        compile_reps=5,
    ),
    # Bypasses the runtime: direct make_rhs(), a solver-bound solve
    # (~10 us per evaluation around a ~2 us native body), and the cold
    # compile array mode pays today — scalarize + codegen + cc.
    Workload(
        name="b2d32_array_c_serial",
        inputs=_bearing2d_32,
        options={"backend": "c", "flatten_mode": "array"},
        executor=None,
        method="rk45",
        t_end=1.45,
        quick_t_end=0.05,
        warmup_s=1.0,
        rhs_batch=27000,
        compile_reps=2,
    ),
    # The only workload that runs the parser, symbolic differentiation,
    # the Adams/BDF/LSODA steppers with Newton and LU, and an interpreted
    # RHS body that dominates the solve; bypasses runtime and native build.
    Workload(
        name="b2d_src_py_lsoda",
        inputs=_bearing2d_source,
        options={"backend": "python", "jacobian": True},
        executor=None,
        method="lsoda",
        t_end=0.5,
        quick_t_end=0.05,
        warmup_s=1.0,
        rhs_batch=2200,
        compile_reps=2,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Plan:
    """Repetition counts of one run (constants at ``RUN_SECONDS``)."""

    t_end: float
    golden_key: str
    #: the first compile pair of a full run is discarded
    discard_first_compile: bool
    compile_reps: int
    solves: int
    setup_probes: int
    warmup_s: float
    rhs_batch: int
    executor_starts: int
    #: traced run: (untraced, traced) solve pairs, individually timed calls
    trace_solve_pairs: int
    trace_rhs_samples: int


def make_plan(wl: Workload, seconds: float, quick: bool) -> Plan:
    if quick:
        # 1 compile repetition, 3 short solves, no warm-up; no bounds apply.
        return Plan(
            t_end=wl.quick_t_end, golden_key="quick",
            discard_first_compile=False, compile_reps=1, solves=3,
            setup_probes=1, warmup_s=0.0,
            rhs_batch=max(64, wl.rhs_batch // 20), executor_starts=1,
            trace_solve_pairs=2, trace_rhs_samples=512,
        )
    scale = seconds / RUN_SECONDS
    return Plan(
        t_end=wl.t_end, golden_key="full", discard_first_compile=True,
        compile_reps=max(1, round(wl.compile_reps * scale)),
        solves=max(3, round(SOLVES * scale)),
        setup_probes=SETUP_PROBES,
        warmup_s=wl.warmup_s * min(scale, 1.0), rhs_batch=wl.rhs_batch,
        executor_starts=EXECUTOR_STARTS,
        trace_solve_pairs=TRACE_SOLVE_PAIRS,
        trace_rhs_samples=TRACE_RHS_SAMPLES,
    )

"""The traced run: per-layer metrics from spans around the calls into ``repro``.

Layer names are the package names under ``src/repro/``.  The decomposition
the numbers support (README, "Reading a traced run"):

* compile wall = sum of pass spans + ``compiler.node_count_s`` +
  ``compiler.pass_overhead_s``;
* traced solve = ``solver.self_s`` + ``solver.rhs_s`` + ``solver.jac_s``,
  exactly, because self time is the solve span minus the leaf spans
  recorded inside it;
* a round = ``runtime.dispatch_us`` + the critical-path share of
  ``codegen.task_body_us`` + the facade.

Metrics of a layer a workload bypasses read 0 (the runtime on the two
serial workloads, the parser on the three programmatic ones).
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

from repro.runtime import dependency_levels
from repro.schedule import lpt_schedule
from repro.solver import solve_ivp
from repro.symbolic import Sym, diff, free_symbols, intern_cache_clear

import golden
from protocol import (
    CompilePair,
    Ops,
    RhsPath,
    Session,
    compile_pair,
    first_compile,
    spread_over,
    events_problems,
    in_run_reference,
    rhs_problems,
    solve,
    solve_problems,
    state_points,
    timed_rhs_path,
    timed_solve,
)
from spans import Trace, traced_rhs
from workloads import (
    ATOL,
    NUM_WORKERS,
    RHS_POINTS,
    RTOL,
    TRACE_SERIAL_SOLVES,
    TRACE_TASK_SAMPLES,
)

med = statistics.median

#: rk45 fills its six trial stages with one ``eval_stages`` call per step
STAGES_PER_STEP = 6

#: pass name -> per-layer metric (several passes may share one)
PASS_LAYER = {
    "parse": "language.parse_s",
    "flatten": "model.flatten_s",
    "typecheck": "model.flatten_s",
    "scalarize": "model.scalarize_s",
    "partition": "analysis.partition_s",
    "transform": "codegen.transform_s",
    "verify": "codegen.verify_s",
    "tasks": "codegen.tasks_s",
    "fuse_tasks": "codegen.tasks_s",
    "codegen": "codegen.emit_s",
    "link_native": "codegen.native_build_s",
    "link": "codegen.link_s",
    "fingerprint": "compiler.fingerprint_s",
    "cache-lookup": "compiler.cache_lookup_s",
    "cache-store": "compiler.cache_store_s",
}
#: the pass manager's expression-node counting around every pass
NODE_COUNT = "compiler.node_count_s"
LAYER_TIMES = sorted({*PASS_LAYER.values(), NODE_COUNT})


def p99(values: list[float]) -> float:
    return float(np.percentile(values, 99))


def _layer_times(trace: Trace, compile_spans: list[int]) -> list[dict[str, float]]:
    """Per traced compile: time per layer metric, plus wall and residue."""
    out = []
    for index in compile_spans:
        row = dict.fromkeys(LAYER_TIMES, 0.0)
        children = trace.children(index)
        for name, dur in children.items():
            row[PASS_LAYER.get(name.removeprefix("pass."), NODE_COUNT)] += dur
        row["wall"] = trace.duration(index)
        row["overhead"] = row["wall"] - sum(children.values())
        out.append(row)
    return out


def compile_layers(trace: Trace, pairs: list[CompilePair]) -> dict[str, float]:
    cold = _layer_times(trace, [p.cold_span for p in pairs])
    warm = _layer_times(trace, [p.warm_span for p in pairs])
    m = {name: med(row[name] for row in cold) for name in LAYER_TIMES}
    # What a populated cache leaves of the compile: the lookup, the dlopen.
    m["compiler.cache_lookup_s"] = med(
        r["compiler.cache_lookup_s"] for r in warm
    )
    m["codegen.native_load_warm_s"] = med(
        r["codegen.native_build_s"] for r in warm
    )
    m["compiler.cold_traced_s"] = med(r["wall"] for r in cold)
    m["compiler.warm_traced_s"] = med(r["wall"] for r in warm)
    m["compiler.pass_overhead_s"] = med(r["overhead"] for r in cold)
    m["compiler.pass_overhead_pct"] = 100.0 * med(
        r["overhead"] / r["wall"] for r in cold
    )
    return m


def _jacobian_pairs(system) -> list[tuple]:
    """The structurally non-zero (rhs, state) pairs of the ODE system."""
    states = {Sym(name) for name in system.state_names}
    return [
        (rhs, sym) for rhs in system.rhs
        for sym in sorted(free_symbols(rhs) & states, key=lambda v: v.name)
    ]


def count_layers(s: Session, pair: CompilePair) -> dict[str, float]:
    """Sizes and counts of one cold compile; must repeat exactly."""
    ctx = pair.cold
    program = ctx.program
    native = ctx.native_source
    pairs = _jacobian_pairs(ctx.system)
    jac_derive_s = 0.0
    if s.wl.options.get("jacobian"):
        intern_cache_clear()
        t0 = perf_counter()
        for rhs, sym in pairs:
            diff(rhs, sym)
        jac_derive_s = perf_counter() - t0
    artifacts = (pair.caches / "artifacts").glob("*.json")
    return {
        "analysis.num_sccs": ctx.metrics["num_subsystems"],
        "symbolic.expr_nodes": ctx.expr_node_count(),
        "symbolic.intern_cache_size": pair.intern_after_cold,
        "symbolic.jac_derive_s": jac_derive_s,
        "codegen.num_tasks": program.num_tasks,
        "codegen.num_tasks_unfused": ctx.metrics["fuse_tasks_before"],
        "codegen.generated_lines": program.module.num_lines,
        "codegen.cse_count": (
            program.module.num_cse_serial + program.module.num_cse_parallel
        ),
        "codegen.c_source_bytes": (
            len(native.source.encode()) if native is not None else 0
        ),
        "codegen.so_bytes": (
            program.native_module.path.stat().st_size
            if program.native_module is not None else 0
        ),
        "codegen.jac_nonzeros": len(pairs),
        "compiler.artifact_bytes": sum(p.stat().st_size for p in artifacts),
    }


def task_body_times(program) -> list[float]:
    """Median seconds of a direct call of each task function."""
    y = program.start_vector()
    p = program.param_vector()
    res = program.results_buffer()
    out = []
    for task in program.task_callables():
        samples = []
        for _ in range(TRACE_TASK_SAMPLES):
            t0 = perf_counter()
            task(0.0, y, p, res)
            samples.append(perf_counter() - t0)
        out.append(med(samples))
    return out


def schedule_layers(program, bodies: list[float]) -> tuple[dict, float]:
    """LPT cost and balance; also the critical-path body time of a round."""
    graph = program.task_graph
    samples = []
    for _ in range(TRACE_TASK_SAMPLES):
        t0 = perf_counter()
        schedule = lpt_schedule(graph, NUM_WORKERS)
        samples.append(perf_counter() - t0)
    loads = [0.0] * NUM_WORKERS
    for tid, worker in enumerate(schedule.assignment):
        loads[worker] += bodies[tid]
    critical = 0.0
    for level in dependency_levels(graph):
        per_worker = [0.0] * NUM_WORKERS
        for tid in level:
            per_worker[schedule.assignment[tid]] += bodies[tid]
        critical += max(per_worker)
    return {
        "schedule.lpt_s": med(samples),
        "schedule.imbalance": schedule.imbalance,
        "schedule.measured_imbalance": max(loads) / (sum(loads) / len(loads)),
    }, critical


def resolved_stage_chunk(s: Session, path: RhsPath, y0: np.ndarray) -> int:
    """Stages per executor dispatch: the K that ``stage_chunk="auto"`` chose.

    Read off a one-step solve by noting the stage ranges the facade hands
    to ``executor.evaluate_stages``.
    """
    executor = path.executor
    inner = executor.evaluate_stages
    widths = []

    def noting(t, y, p, k, a_rows, c, h_dir, start, stop, *rest):
        widths.append(stop - start)
        return inner(t, y, p, k, a_rows, c, h_dir, start, stop, *rest)

    executor.evaluate_stages = noting
    try:
        solve_ivp(path.f, (0.0, 1e-9), y0, method=s.wl.method,
                  rtol=RTOL, atol=ATOL)
    finally:
        del executor.evaluate_stages
    return max(widths)


def runtime_layers(
    s: Session, trace: Trace, path: RhsPath, program, y0: np.ndarray,
    rounds: list[float], warm_steps: list[float], critical_body: float,
    solve_s: float,
) -> dict[str, float]:
    """The worker pool's numbers; only the two parallel workloads have one."""
    executor = path.executor
    serial_path = RhsPath(program.make_rhs(), path.jac)
    serial = [
        timed_solve(s, serial_path, y0)[0] for _ in range(TRACE_SERIAL_SOLVES)
    ]
    steps = trace.leaves["rhs.stages"]
    return {
        "dispatch_us": 1e6 * executor.measure_dispatch_overhead(25),
        "round_us": 1e6 * med(rounds),
        "round_p99_us": 1e6 * p99(rounds),
        "stage_round_us": 1e6 * med(steps) / STAGES_PER_STEP,
        "stage_chunk": resolved_stage_chunk(s, path, y0),
        "overhead_share": 1.0 - critical_body / med(rounds),
        "warmup_round_us_first": (
            1e6 * med(warm_steps[:200]) / STAGES_PER_STEP if warm_steps else 0.0
        ),
        "warmup_round_us_last": (
            1e6 * med(warm_steps[-200:]) / STAGES_PER_STEP if warm_steps else 0.0
        ),
        "serial_solve_s": med(serial),
        "speedup_vs_serial": med(serial) / solve_s,
        "events_total": executor.events.total_recorded,
        "retries": (
            executor.events.count("task_retry")
            + executor.events.count("rhs_retry")
        ),
        "degraded": int(executor.degraded),
    }


RUNTIME_KEYS = (
    "dispatch_us", "round_us", "round_p99_us", "stage_round_us",
    "stage_chunk", "overhead_share", "warmup_round_us_first",
    "warmup_round_us_last", "serial_solve_s", "speedup_vs_serial",
    "events_total", "retries", "degraded",
)


def run_traced(s: Session, ops: Ops, seed: int) -> dict[str, float]:
    """Steps 2-5 with spans; returns every per-layer metric."""
    trace = Trace()
    wl, plan = s.wl, s.plan
    parallel = wl.executor is not None
    first, pairs = first_compile(s, ops, trace)
    compile_at = spread_over(
        plan.compile_reps - len(pairs), plan.trace_solve_pairs
    )
    program = first.cold.program
    y0 = program.start_vector()
    bodies = task_body_times(program)
    m = {"codegen.task_body_us": 1e6 * sum(bodies)}
    sched, critical_body = schedule_layers(program, bodies)
    m.update(sched)

    with timed_rhs_path(s, program) as (path, starts, closes):
        f = traced_rhs(trace, path.f)
        jac = (
            trace.wrap_leaf("jac.call", path.jac)
            if path.jac is not None else None
        )
        leaves = trace.leaves
        for name in ("rhs.stages", "jac.call"):
            leaves.setdefault(name, [])
        reference = in_run_reference(s, program)
        # Warm-up through the traced facade, so the first and last steps
        # show which scheduling regime the timed region starts in.
        deadline = perf_counter() + plan.warmup_s
        while perf_counter() < deadline:
            solve(s, f, jac, y0)
        warm_steps = list(leaves["rhs.stages"])

        # Pairs of untraced and traced solves with the traced compile pairs
        # spread between them, as in the untraced protocol.  The difference
        # within a solve pair is what tracing costs; the traced one
        # decomposes into self, RHS and Jacobian time.
        untraced_s, traced_s, self_s, rhs_s, jac_s = [], [], [], [], []
        in_solve = {name: [] for name in leaves}
        for i in range(plan.trace_solve_pairs):
            for _ in range(compile_at.count(i)):
                pairs.append(compile_pair(s, ops, trace))
            dt, result = timed_solve(s, path, y0)
            untraced_s.append(dt)
            ops.record("solve", solve_problems(s, result, reference))
            marks = {name: len(durs) for name, durs in leaves.items()}
            gc.collect()
            with trace.span("solve") as index:
                result = solve(s, f, jac, y0)
            ops.record("traced solve", solve_problems(s, result, reference))
            inside = {
                name: leaves[name][mark:] for name, mark in marks.items()
            }
            for name, durs in inside.items():
                in_solve[name].extend(durs)
            traced_s.append(trace.duration(index))
            rhs_s.append(
                sum(inside["rhs.call"]) + sum(inside["rhs.stages"])
            )
            jac_s.append(sum(inside["jac.call"]))
            self_s.append(traced_s[-1] - rhs_s[-1] - jac_s[-1])
        stats = result.stats
        m.update(compile_layers(trace, pairs))
        m.update(count_layers(s, pairs[-1]))

        # Individually timed calls through the RHS path (and, where that
        # is a pool, through the direct make_rhs() too) over the seeded
        # points.
        points = state_points(y0, seed)
        expected = [program.rhs(0.0, y) for y in points]
        mark = len(leaves["rhs.call"])
        for i in range(plan.trace_rhs_samples):
            f(0.0, points[i % RHS_POINTS])
        rounds = leaves["rhs.call"][mark:]
        ops.record("RHS samples", rhs_problems(path.f, points, expected))
        if parallel:
            direct = trace.wrap_leaf("rhs.direct", program.make_rhs())
            for i in range(plan.trace_rhs_samples):
                direct(0.0, points[i % RHS_POINTS])
            direct_calls = leaves["rhs.direct"]
        else:
            direct_calls = rounds
        m["codegen.rhs_direct_us"] = 1e6 * med(direct_calls)
        m["codegen.rhs_direct_p99_us"] = 1e6 * p99(direct_calls)

        runtime = dict.fromkeys(RUNTIME_KEYS, 0.0)
        if parallel:
            runtime = runtime_layers(
                s, trace, path, program, y0, rounds, warm_steps,
                critical_body, med(untraced_s),
            )
        m.update({f"runtime.{k}": v for k, v in runtime.items()})
        ops.record("runtime events", events_problems(path.executor))
    m["runtime.executor_start_s"] = med(starts) if parallel else 0.0
    m["runtime.executor_close_s"] = med(closes) if parallel else 0.0

    m.update({f"solver.{k}": v for k, v in golden.stats_obj(stats).items()})
    m["solver.accept_ratio"] = stats.naccepted / stats.nsteps
    jac_call_s = med(in_solve["jac.call"]) if in_solve["jac.call"] else 0.0
    m["solver.jac_call_us"] = 1e6 * jac_call_s
    m["solver.solve_traced_s"] = med(traced_s)
    m["solver.rhs_s"] = med(rhs_s)
    m["solver.jac_s"] = med(jac_s)
    m["solver.self_s"] = med(self_s)
    m["solver.self_us_per_step"] = 1e6 * med(self_s) / stats.nsteps
    # Does "count x median call" reproduce the solve?  The residue says how
    # far the medians above are from the sums they summarise.
    if in_solve["rhs.stages"]:
        per_eval_s = med(in_solve["rhs.stages"]) / STAGES_PER_STEP
    else:
        per_eval_s = med(in_solve["rhs.call"])
    modelled = (
        med(self_s) + stats.nfev * per_eval_s + stats.njev * jac_call_s
    )
    m["solver.model_residual_pct"] = (
        100.0 * abs(modelled - med(traced_s)) / med(traced_s)
    )
    m["solver.final_rel_err"] = golden.rel_err(result.y_final, s.golden)
    m["trace_overhead_pct"] = (
        100.0 * (med(traced_s) - med(untraced_s)) / med(untraced_s)
    )
    return m

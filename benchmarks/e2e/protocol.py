"""The run protocol: set-up, compile pairs and set-up probes spread between
timed solves and RHS batches, teardown and hygiene.

Everything here drives ``repro`` through its public entry points only.
The traced run (``layers.py``) reuses these pieces with a :class:`Trace`;
the end-to-end numbers always come from :func:`run_end_to_end`, untraced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import glob
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

import repro.symbolic
from repro.codegen.native import NativeCache
from repro.compiler import (
    ArtifactCache,
    CompilationContext,
    CompileOptions,
    PassManager,
    build_default_manager,
    compile_context,
)
from repro.runtime import (
    SHM_PREFIX,
    ParallelRHS,
    ProcessExecutor,
    ThreadedExecutor,
)
from repro.solver import solve_ivp

import golden
from spans import Trace
from workloads import (
    ATOL,
    NUM_WORKERS,
    RHS_BATCHES_PER_SOLVE,
    RHS_POINTS,
    RTOL,
    Plan,
    Workload,
)

#: Private cache roots live here (never ~/.cache/repro).  Inside the
#: checkout and not in the system temp directory, because the gate lets a
#: benchmark write only inside its checkout; the root .gitignore names it.
WORK_DIR = ".bench_work"


class Ops:
    """Operations attempted and failed: every compile, solve, RHS batch
    and check is one operation; a check that misses fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Session:
    wl: Workload
    plan: Plan
    inputs: dict[str, Any]
    #: the golden entry for this plan's span, and the oracle RHS at start
    golden: dict
    rhs_start: np.ndarray
    work: Path
    home_cache: list
    _caches: int = 0

    def fresh_caches(self) -> Path:
        self._caches += 1
        return self.work / f"caches-{self._caches}"


def _home_cache_snapshot() -> list:
    """Names, sizes and mtimes under ~/.cache/repro (must not change)."""
    base = Path.home() / ".cache" / "repro"
    return sorted(
        (str(p), p.stat().st_size, p.stat().st_mtime_ns)
        for p in base.rglob("*")
    ) if base.exists() else []


def setup(wl: Workload, plan: Plan, root: Path) -> Session:
    """Step 1 after the imports: model (or source text), golden, temp roots."""
    inputs = wl.inputs(root)
    gold = golden.load(wl)
    base = root / WORK_DIR
    base.mkdir(exist_ok=True)
    return Session(
        wl=wl, plan=plan, inputs=inputs, golden=gold[plan.golden_key],
        rhs_start=np.asarray(gold["rhs_start"]),
        work=Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=base)),
        home_cache=_home_cache_snapshot(),
    )


def teardown(s: Session) -> None:
    shutil.rmtree(s.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Compile phase
# ---------------------------------------------------------------------------


def compile_once(s: Session, caches: Path, trace: Trace | None = None):
    """One ``compile_context`` against the cache roots under ``caches``.

    Fresh cache objects every time, so a warm compile reads the disk level
    another process would see, not this process's memory level.  Traced,
    the same pipeline runs with a span around each ``Pass.run`` and around
    the manager's node counting between them.
    """
    options = CompileOptions(
        cache=ArtifactCache(caches / "artifacts"),
        native_cache=NativeCache(caches / "native"),
        **s.wl.options,
    )
    if trace is None:
        return compile_context(options=options, **s.inputs)
    with trace.span("compile"):
        ctx = CompilationContext(options=options, **s.inputs)
        # The manager counts expression nodes before and after every pass;
        # that is its own time, not any pass's.
        ctx.expr_node_count = trace.wrap("node_count", ctx.expr_node_count)
        PassManager(
            dataclasses.replace(p, run=trace.wrap(f"pass.{p.name}", p.run))
            for p in build_default_manager().passes
        ).run(ctx)
    return ctx


def _compile_problems(wl: Workload, ctx, hit: bool) -> list[str]:
    problems = []
    if bool(ctx.metrics.get("cache_hit")) is not hit:
        problems.append(f"artifact cache_hit is not {hit}")
    if wl.needs_cc:
        if ctx.program.backend != "c":
            problems.append(
                f"fell back to backend {ctx.program.backend!r} "
                f"({ctx.program.native_fallback_reason})"
            )
        elif bool(ctx.metrics.get("native_cache_hit")) is not hit:
            problems.append(f"native_cache_hit is not {hit}")
    return problems


@dataclass
class CompilePair:
    """One {cold, warm} repetition: times, contexts, and where it cached."""

    cold_s: float
    warm_s: float
    cold: Any
    warm: Any
    caches: Path
    #: interned expression nodes right after the cold compile
    intern_after_cold: int
    #: span indices of the two compiles when traced
    cold_span: int = -1
    warm_span: int = -1


def compile_pair(s: Session, ops: Ops, trace: Trace | None = None) -> CompilePair:
    """One repetition: empty caches -> cold compile -> identical warm one."""
    caches = s.fresh_caches()
    repro.symbolic.intern_cache_clear()
    gc.collect()
    mark = len(trace.spans) if trace is not None else 0
    t0 = perf_counter()
    cold = compile_once(s, caches, trace)
    cold_s = perf_counter() - t0
    intern = repro.symbolic.intern_cache_size()
    t0 = perf_counter()
    warm = compile_once(s, caches, trace)
    warm_s = perf_counter() - t0
    pair = CompilePair(cold_s, warm_s, cold, warm, caches, intern)
    if trace is not None:
        pair.cold_span, pair.warm_span = (
            i for i in range(mark, len(trace.spans))
            if trace.spans[i][0] == "compile"
        )
    ops.record("cold compile", _compile_problems(s.wl, cold, False))
    ops.record("warm compile", _compile_problems(s.wl, warm, True))
    return pair


# ---------------------------------------------------------------------------
# Solve and RHS phases
# ---------------------------------------------------------------------------


@dataclass
class RhsPath:
    """The callable the solver is handed, and the pool behind it if any."""

    f: Callable
    jac: Callable | None
    executor: Any = None

    def close(self) -> None:
        if self.executor is not None:
            self.f.close()


def open_rhs_path(wl: Workload, program) -> RhsPath:
    jac = program.make_jac() if wl.options.get("jacobian") else None
    if wl.executor is None:
        return RhsPath(program.make_rhs(), jac)
    pool = ThreadedExecutor if wl.executor == "thread" else ProcessExecutor
    executor = pool(program, num_workers=NUM_WORKERS)
    return RhsPath(
        ParallelRHS(program, executor, stage_chunk="auto"), jac, executor
    )


@contextlib.contextmanager
def timed_rhs_path(s: Session, program) -> Iterator[tuple[RhsPath, list, list]]:
    """Open the RHS path ``executor_starts`` times; keep the last one open.

    Yields it with the construction and ``close()`` times; the close on
    the way out is timed into the same list.
    """
    starts, closes = [], []

    def timed_close(path: RhsPath) -> None:
        t0 = perf_counter()
        path.close()
        closes.append(perf_counter() - t0)

    for i in range(s.plan.executor_starts):
        if i:
            timed_close(path)
        t0 = perf_counter()
        path = open_rhs_path(s.wl, program)
        starts.append(perf_counter() - t0)
    try:
        yield path, starts, closes
    finally:
        timed_close(path)


def in_run_reference(s: Session, program):
    """What every timed solve of a parallel workload must equal bit for bit."""
    if s.wl.executor is None:
        return None
    return golden.serial_reference(s.wl, program, s.plan.t_end)


def solve(s: Session, f: Callable, jac: Callable | None, y0: np.ndarray):
    return solve_ivp(
        f, (0.0, s.plan.t_end), y0, method=s.wl.method, jac=jac,
        rtol=RTOL, atol=ATOL,
    )


def warm_up(s: Session, f: Callable, jac: Callable | None, y0: np.ndarray) -> None:
    """Untimed solves through the timed path for ``warmup_s`` seconds.

    Through ``solve_ivp``, not bare RHS calls: on this VM a thread pool's
    rounds stay cheap while the scheduler keeps every thread on one vCPU
    and settle at several times that once a worker migrates, and the
    K-stage rounds the solver drives migrate on their own schedule.
    """
    deadline = perf_counter() + s.plan.warmup_s
    while perf_counter() < deadline:
        solve(s, f, jac, y0)


def solve_problems(s: Session, result, reference) -> list[str]:
    """Every timed solve is checked; a miss is a failed operation."""
    problems = []
    if not result.success:
        return [f"solver failed: {result.message}"]
    if reference is not None and not np.array_equal(
        result.y_final, reference.y_final
    ):
        problems.append("final state differs from the in-run serial solve")
    err = golden.rel_err(result.y_final, s.golden)
    if not err <= s.golden["tol"]:
        problems.append(f"deviates from golden state by {err:.3g} "
                        f"> {s.golden['tol']:.3g}")
    counts = golden.stats_obj(result.stats)
    if counts != s.golden["stats"]:
        problems.append(f"solver counts {counts} differ from golden")
    return problems


def timed_solve(s: Session, path: RhsPath, y0: np.ndarray):
    gc.collect()
    t0 = perf_counter()
    result = solve(s, path.f, path.jac, y0)
    return perf_counter() - t0, result


def state_points(y0: np.ndarray, seed: int) -> list[np.ndarray]:
    """The seeded inputs: the only thing ``--seed`` changes."""
    rng = np.random.default_rng(seed)
    return [
        y0 + 0.1 * (1.0 + np.abs(y0)) * rng.standard_normal(y0.size)
        for _ in range(RHS_POINTS)
    ]


def rhs_problems(f: Callable, points, expected) -> list[str]:
    for y, want in zip(points, expected):
        got = f(0.0, y)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(want))))
        if not np.all(np.isfinite(got)):
            return ["non-finite RHS output"]
        if not np.allclose(got, want, rtol=1e-9, atol=tol):
            return ["RHS output differs from the serial generated RHS"]
    return []


def rhs_batcher(s: Session, ops: Ops, path: RhsPath, program, seed: int):
    """Step 4: returns ``batch(b) -> calls per second`` over the seeded points.

    The timed batches are interleaved with the timed solves, one after
    each, so both sample the same stretches of host noise.
    """
    y0 = program.start_vector()
    got = path.f(0.0, y0)
    scale = 1e-9 * float(np.max(np.abs(s.rhs_start)))
    ops.record("RHS at the start vector", [] if np.allclose(
        got, s.rhs_start, rtol=1e-9, atol=scale
    ) else ["differs from the oracle RHS in the golden file"])
    points = state_points(y0, seed)
    expected = [program.rhs(0.0, y) for y in points]
    calls = [points[i % RHS_POINTS] for i in range(s.plan.rhs_batch)]
    f = path.f

    def batch(b: int) -> float:
        gc.collect()
        t0 = perf_counter()
        for y in calls:
            f(0.0, y)
        rate = len(calls) / (perf_counter() - t0)
        ops.record(f"RHS batch {b}", rhs_problems(f, points, expected))
        return rate

    return batch


# ---------------------------------------------------------------------------
# Teardown checks and memory
# ---------------------------------------------------------------------------


def events_problems(executor) -> list[str]:
    if executor is None:
        return []
    problems = []
    if executor.events.total_recorded:
        problems.append(f"runtime events: {executor.events.kinds()}")
    if executor.degraded:
        problems.append("executor degraded to serial")
    return problems


def worker_peak_rss_mb() -> float:
    """Largest peak RSS (VmHWM) among the live worker processes."""
    peak = 0.0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


def harness_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_processes() -> list[str]:
    """``pid (name) state`` of every process whose parent is this one."""
    me, found = os.getpid(), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            text = Path(stat).read_text()
        except OSError:
            continue  # ended while we were looking
        head, _, tail = text.rpartition(")")
        state, ppid = tail.split()[:2]
        if int(ppid) == me:
            found.append(f"{head}) {state}")
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The pools' workers are joined by ``close()``; any still alive (a path
    out that skipped it) is killed and joined here.  What is left then is
    the one child this process never asked for by name: the first
    ``SharedMemory`` of a ``ProcessExecutor`` starts ``multiprocessing``'s
    resource tracker, which runs until its pipe closes, i.e. until *after*
    this process has exited, and nobody waits for it.  So close its pipe
    and wait for it here, once the workers that inherited the pipe are gone.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def hygiene(s: Session, ops: Ops) -> None:
    """After teardown: nothing left behind, nothing outside touched."""
    mine = glob.glob(f"/dev/shm/{SHM_PREFIX}_{os.getpid()}_*")
    ops.record("no shm segment left", [f"left {mine}"] if mine else [])
    children = multiprocessing.active_children()
    ops.record("no live worker child",
               [f"alive: {children}"] if children else [])
    stop_children()
    left = child_processes()
    ops.record("no child process of any kind left",
               [f"left: {left}"] if left else [])
    ops.record("private cache roots removed",
               [f"{s.work} still exists"] if s.work.exists() else [])
    ops.record("~/.cache/repro untouched",
               [] if _home_cache_snapshot() == s.home_cache
               else ["contents changed during the run"])


# ---------------------------------------------------------------------------
# The untraced run
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1
        else (values[0],) * 3
    )
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "min": min(values), "max": max(values), "values": values}


def spread_over(count: int, slots: int) -> list[int]:
    """Before which of ``slots`` timed solves each of ``count`` things runs."""
    return [k * slots // count for k in range(count)]


def setup_probe(s: Session) -> float:
    """Wall time of a fresh interpreter doing step 1 and nothing else."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--setup-probe", s.wl.name]
    if s.plan.golden_key == "quick":
        cmd.append("--quick")
    t0 = perf_counter()
    subprocess.run(cmd, check=True)
    return perf_counter() - t0


#: Iterations of the reference loop, and the seconds they take on this host
#: at its usual speed.  The second is a constant of proportion only: it makes
#: times at reference speed read like the times this host shows, and a change
#: of it rescales both sides of every comparison alike.
REFERENCE_LOOP_N = 400_000
REFERENCE_LOOP_S = 0.0185


def reference_loop() -> float:
    """Seconds for a fixed piece of interpreter-bound work, none of it ours."""
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc += i * i
    return perf_counter() - t0


def first_compile(s: Session, ops: Ops, trace: Trace | None = None):
    """The run's first compile pair -> (it, the timed pairs so far).

    It pays the first-use costs of a compile (lazy imports, the toolchain
    probe, the page cache of ``cc``) and its program is the one solved; a
    full run discards its times, a ``--quick`` run has no other.
    """
    first = compile_pair(s, ops, trace)
    return first, [] if s.plan.discard_first_compile else [first]


def run_end_to_end(s: Session, ops: Ops, seed: int) -> tuple[dict, dict]:
    """Steps 1-5 untraced; returns (end-to-end metrics, printed detail).

    After the warm-up the run is the timed solves, each followed by an RHS
    batch, with the compile pairs and the set-up probes spread evenly
    between them: this host's speed moves in plateaus of seconds to
    minutes, and a phase that fits inside one plateau reports the plateau,
    not the code.

    Plateaus that outlast a run move every median of the run together, by
    12-37 % between runs of unchanged code, whatever the repetitions
    (README, "What the numbers are like on this host").  So the reference
    loop is timed before every timed operation, and every time of the run
    is reported at reference speed: as timed, times (the loop's usual time
    / its median time in this run).  One factor per run, the same for every
    metric of every workload; the medians as timed are printed beside it.
    """
    plan = s.plan
    first, pairs = first_compile(s, ops)
    compile_at = spread_over(plan.compile_reps - len(pairs), plan.solves)
    probe_at = spread_over(plan.setup_probes, plan.solves)
    program = first.cold.program
    y0 = program.start_vector()
    probes, solve_s, rates, loops = [], [], [], []
    with timed_rhs_path(s, program) as (path, starts, closes):
        reference = in_run_reference(s, program)
        rhs_batch = rhs_batcher(s, ops, path, program, seed)
        warm_up(s, path.f, path.jac, y0)
        for i in range(plan.solves):
            for _ in range(probe_at.count(i)):
                loops.append(reference_loop())
                probes.append(setup_probe(s))
            for _ in range(compile_at.count(i)):
                loops.append(reference_loop())
                pairs.append(compile_pair(s, ops))
            loops.append(reference_loop())
            dt, result = timed_solve(s, path, y0)
            ops.record(f"solve {i}", solve_problems(s, result, reference))
            solve_s.append(dt)
            for _ in range(RHS_BATCHES_PER_SOLVE):
                loops.append(reference_loop())
                rates.append(rhs_batch(len(rates)))
        loops.append(reference_loop())
        ops.record("runtime events", events_problems(path.executor))
        worker_rss = worker_peak_rss_mb()
    med = statistics.median
    cold_s = [p.cold_s for p in pairs]
    warm_s = [p.warm_s for p in pairs]
    as_timed = {
        "setup_s": med(probes),
        "compile_cold_s": med(cold_s),
        "compile_warm_s": med(warm_s),
        "solve_s": med(solve_s),
        "compile_solve_s": (
            med(cold_s) + med(starts) + med(solve_s) + med(closes)
        ),
    }
    host_speed = REFERENCE_LOOP_S / med(loops)
    metrics = {name: t * host_speed for name, t in as_timed.items()}
    metrics["rhs_calls_per_s"] = med(rates) / host_speed
    metrics["peak_rss_mb"] = harness_peak_rss_mb() + worker_rss
    detail = {
        "backend": program.backend,
        "num_states": program.num_states,
        "setup_s as timed": quartiles(probes),
        "compile_cold_s as timed": quartiles(cold_s),
        "compile_warm_s as timed": quartiles(warm_s),
        "solve_s as timed": quartiles(solve_s),
        "compile_solve_s as timed": as_timed["compile_solve_s"],
        "rhs_calls_per_s as timed": quartiles(rates),
        "reference_loop_s": quartiles(loops),
        "host_speed": host_speed,
        "executor_start_s": med(starts),
        "executor_close_s": med(closes),
        "worker_peak_rss_mb": worker_rss,
    }
    return metrics, detail

"""Command-line interface: the ObjectMath pipeline from a shell.

::

    python -m repro analyze  model.om           # SCC partition + levels
    python -m repro compile  model.om --explain # per-pass timing + caching
    python -m repro codegen  model.om -t f90    # emit Fortran 90 / C / Python
    python -m repro simulate model.om --t-end 5 # compile + integrate
    python -m repro graph    model.om           # DOT of the dependency SCCs

Model files use the ObjectMath-like syntax of :mod:`repro.language` (see
``examples/quickstart.py`` for the dialect).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import partition, partition_to_dot
from .codegen import (
    generate_c,
    generate_fortran,
    write_start_file,
)

from .frontend import CompiledModel
from .language import load_model
from .solver import solve_ivp

__all__ = ["main"]


def _load(path: str, cache_dir: str | None = None, **options) -> CompiledModel:
    """Compile the model file; with ``cache_dir``, through the artifact
    cache there, so a repeat run of unchanged text does not parse."""
    from .compiler import ArtifactCache, CompileOptions, compile_context

    source = Path(path).read_text()
    cache = ArtifactCache(cache_dir) if cache_dir else None
    return CompiledModel.from_context(compile_context(
        source=source, options=CompileOptions(cache=cache, **options)
    ))


def _cmd_analyze(args: argparse.Namespace) -> int:
    compiled = _load(args.model, args.cache_dir)
    print(compiled.summary())
    print()
    print(compiled.partition.summary())
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    compiled = _load(args.model, args.cache_dir)
    dot = partition_to_dot(compiled.partition, name=compiled.name)
    if args.output:
        Path(args.output).write_text(dot)
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .compiler import (
        ArtifactCache,
        CompileError,
        CompileOptions,
        PipelineReport,
        compile_context,
    )

    source = Path(args.model).read_text()
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    options = CompileOptions(
        backend=args.backend,
        flatten_mode=args.flatten_mode,
        jacobian=args.jacobian,
        shared_cse=args.shared_cse,
        fuse=not args.no_fuse,
        fuse_threshold=args.fuse_threshold,
        cache=cache,
        dump_after=tuple(args.dump_after or ()),
        collect_errors=True,
    )
    try:
        ctx = compile_context(source=source, options=options)
    except CompileError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    report = PipelineReport.from_context(ctx)
    if args.explain:
        print(report)
    else:
        print(
            f"# compiled {report.model} in {report.total_wall_s * 1e3:.2f} ms"
            f" (cache {report.cache_status},"
            f" hash {report.model_hash[:12]})"
        )
    for name, text in ctx.dumps.items():
        print(f"# ---- dump after pass {name} ----")
        print(text)
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json())
        print(f"# wrote {args.report}")
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    backend = "numpy" if args.target == "numpy" else "python"
    compiled = _load(args.model, args.cache_dir, shared_cse=args.shared_cse,
                     backend=backend)
    system = compiled.system
    plan = compiled.program.plan
    if args.target == "f90":
        out = generate_fortran(system, plan, mode=args.mode).source
    elif args.target == "c":
        out = generate_c(system, plan, mode=args.mode).source
    elif args.target == "numpy":
        out = compiled.program.vector_module.source
    else:
        out = compiled.program.module.source
    if args.output:
        Path(args.output).write_text(out)
        print(f"wrote {args.output}")
    else:
        print(out)
    return 0


def _cmd_startfile(args: argparse.Namespace) -> int:
    compiled = _load(args.model)
    target = args.output or (Path(args.model).stem + ".start")
    write_start_file(compiled.system, target)
    print(f"wrote {target}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .runtime.checkpoint import (
        CheckpointError,
        Checkpointer,
        load_checkpoint,
    )
    from .runtime.events import RuntimeEvents
    from .solver.recovery import RecoveryPolicy, SolverFailure

    compiled = _load(args.model, args.cache_dir, backend=args.backend,
                     fuse=not args.no_fuse)
    program = compiled.program
    y0 = program.start_vector()
    params = program.param_vector()
    if args.start_file:
        from .codegen import apply_start_file, read_start_file

        y0_list, p_list = apply_start_file(
            compiled.system, read_start_file(args.start_file)
        )
        y0 = np.asarray(y0_list)
        params = np.asarray(p_list)
    events = RuntimeEvents()
    if args.deadline is not None or args.max_job_retries > 0:
        # Supervised-job path: wall-clock deadline, bounded retries with
        # backoff, resume-from-checkpoint on retry, circuit-breaker tier
        # routing (see repro.runtime.jobs).
        return _simulate_supervised(args, compiled, events, y0, params)
    rhs_facade = None
    if args.executor != "serial":
        # Route the RHS through the supervisor/worker runtime: generated
        # scalar tasks under an LPT schedule, evaluated by a thread pool
        # (protocol fidelity) or a process pool (true multi-core).
        from .runtime import ParallelRHS, ProcessExecutor, ThreadedExecutor

        if args.workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            return 2
        executor_cls = (ThreadedExecutor if args.executor == "thread"
                        else ProcessExecutor)
        if args.stage_chunk != "auto":
            try:
                stage_chunk = int(args.stage_chunk)
            except ValueError:
                print("error: --stage-chunk must be an integer or 'auto'",
                      file=sys.stderr)
                return 2
            if stage_chunk < 1:
                print("error: --stage-chunk must be >= 1", file=sys.stderr)
                return 2
        else:
            stage_chunk = "auto"
        executor = executor_cls(program, num_workers=args.workers,
                                events=events)
        rhs_facade = ParallelRHS(program, executor, params=params,
                                 stage_chunk=stage_chunk)
        f = rhs_facade
    elif args.backend == "numpy":
        # The vectorized module evaluates unbatched states too (its
        # ``[..., i]`` indexing is shape-agnostic), so a single
        # trajectory can ride the ufunc RHS.
        f = program.make_rhs_batch(params)
    else:
        f = program.make_rhs(params)

    method = args.method
    resume = None
    if args.resume:
        try:
            resume = load_checkpoint(args.resume)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        method = resume.method
        ckpt_hash = resume.meta.get("model_hash")
        if ckpt_hash and compiled.model_hash and ckpt_hash != compiled.model_hash:
            print(
                f"warning: checkpoint was written by a different model "
                f"(hash {ckpt_hash[:12]} != {compiled.model_hash[:12]}); "
                f"state layout may not match", file=sys.stderr,
            )
        events.record("checkpoint_resumed", path=args.resume, t=resume.t,
                      method=method)
        print(f"# resuming from {args.resume} at t = {resume.t:g} "
              f"(method {method})")
    checkpointer = None
    if args.checkpoint:
        checkpointer = Checkpointer(
            args.checkpoint, every=args.checkpoint_every, events=events,
            # The content hash lets a resume detect that the checkpoint
            # was written by a structurally different model.
            meta={"model": compiled.name, "model_hash": compiled.model_hash},
        )
    recovery = RecoveryPolicy(max_retries=args.max_retries) \
        if args.max_retries > 0 else None

    try:
        result = solve_ivp(
            f, (args.t_start, args.t_end), y0, method=method,
            rtol=args.rtol, atol=args.atol,
            recovery=recovery, checkpointer=checkpointer, resume=resume,
        )
    except SolverFailure as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        if checkpointer is not None and checkpointer.nsaved:
            print(f"# last checkpoint: {args.checkpoint} "
                  f"(resume with --resume {args.checkpoint})",
                  file=sys.stderr)
        return 1
    finally:
        if rhs_facade is not None:
            rhs_facade.close()
    if not result.success:
        print(f"solver failed: {result.message}", file=sys.stderr)
        return 1
    if checkpointer is not None and checkpointer.nsaved:
        print(f"# wrote {checkpointer.nsaved} checkpoint(s) to "
              f"{args.checkpoint}")
    runtime_line = None
    if rhs_facade is not None:
        runtime_line = (f"# executor: {args.executor} x{args.workers}, "
                        f"{rhs_facade.ncalls} parallel RHS rounds")
        if events.kinds():
            runtime_line += f" ({events.summary()})"
    return _report_result(args, compiled, result, runtime_line)


def _report_result(args, compiled, result, runtime_line=None) -> int:
    """Shared result reporting for the direct and supervised solve paths."""
    if compiled.report is not None:
        print(f"# {compiled.report.compile_breakdown()}")
    if runtime_line is not None:
        print(runtime_line)
    print(
        f"# {compiled.name}: {result.stats.naccepted} steps, "
        f"{result.stats.nfev} RHS evaluations, method {result.method}"
    )
    names = compiled.system.state_names
    if args.csv:
        from .visualizer import save_csv

        save_csv(result, names, args.csv)
        print(f"# wrote {args.csv}")
    if args.plot:
        from .visualizer import plot_result

        print(plot_result(result, names, args.plot))
    if args.json:
        print(json.dumps({
            "t": float(result.t_final),
            "y": {n: float(v) for n, v in zip(names, result.y_final)},
        }, indent=2))
    else:
        width = max(len(n) for n in names)
        print(f"# final state at t = {result.t_final:g}")
        for name, value in zip(names, result.y_final):
            print(f"{name.ljust(width)}  {value: .12g}")
    return 0


def _simulate_supervised(args, compiled, events, y0, params) -> int:
    """`simulate --deadline/--max-job-retries`: run through JobManager."""
    from .runtime.jobs import JobManager, JobRetryPolicy, JobSpec
    from .solver.recovery import RecoveryPolicy

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    retry = JobRetryPolicy(
        max_retries=max(0, args.max_job_retries), backoff=args.backoff,
    )
    recovery = (RecoveryPolicy(max_retries=args.max_retries)
                if args.max_retries > 0 else None)
    spec = JobSpec(
        name=compiled.name,
        program=compiled.program,
        model_hash=compiled.model_hash,
        backend=args.backend,
        t_span=(args.t_start, args.t_end),
        method=args.method,
        rtol=args.rtol,
        atol=args.atol,
        y0=np.asarray(y0, dtype=float),
        params=np.asarray(params, dtype=float),
        executor=args.executor,
        workers=args.workers,
        deadline=args.deadline,
        retry=retry,
        recovery=recovery,
        checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    with JobManager(events=events) as manager:
        job = manager.submit(spec)
    if job.failure is not None:
        f = job.failure
        print(f"job failed [{f.kind}] after {f.attempts} attempt(s): "
              f"{f.reason}", file=sys.stderr)
        if args.checkpoint:
            print(f"# resume with --resume {args.checkpoint}",
                  file=sys.stderr)
        return 1
    result = job.result
    runtime_line = (
        f"# job: {len(job.attempts)} attempt(s), executor "
        f"{job.executor_used}"
        + (f" (requested {args.executor})"
           if job.executor_used != args.executor else "")
    )
    if events.kinds():
        runtime_line += f" ({events.summary()})"
    return _report_result(args, compiled, result, runtime_line)


_APPS = {
    "bearing2d": lambda: __import__(
        "repro.apps", fromlist=["build_bearing2d"]
    ).build_bearing2d(),
    "powerplant": lambda: __import__(
        "repro.apps", fromlist=["build_powerplant"]
    ).build_powerplant(),
    "servo": lambda: __import__(
        "repro.apps", fromlist=["build_servo"]
    ).build_servo(),
}


def _cmd_export_app(args: argparse.Namespace) -> int:
    from .language import unparse_model

    if args.app not in _APPS:
        print(f"error: unknown app {args.app!r}; choose from "
              f"{sorted(_APPS)}", file=sys.stderr)
        return 2
    model = _APPS[args.app]()
    text = unparse_model(model)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _add_cache_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", metavar="PATH",
                   help="content-addressed artifact cache directory; an "
                        "unchanged model skips analysis and codegen, and "
                        "unchanged source text skips the parser too")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ObjectMath-reproduction pipeline (PPoPP 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="flatten, type-check and partition")
    p.add_argument("model")
    _add_cache_dir(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("graph", help="emit the SCC partition as DOT")
    p.add_argument("model")
    p.add_argument("-o", "--output")
    _add_cache_dir(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser(
        "compile",
        help="run the pass pipeline with per-pass timing and caching",
    )
    p.add_argument("model")
    p.add_argument("--backend", default="python",
                   choices=("python", "numpy", "c"),
                   help="executable backend to generate ('c' compiles the "
                        "generated tasks natively, falling back to python "
                        "when no C toolchain is available)")
    p.add_argument("--flatten-mode", default="scalar",
                   choices=("scalar", "array"),
                   help="'array' keeps instance families symbolic (one "
                        "template slice per class) through analysis and "
                        "codegen; 'scalar' enumerates every instance")
    p.add_argument("--jacobian", action="store_true",
                   help="additionally generate the analytic Jacobian")
    p.add_argument("--shared-cse", action="store_true",
                   help="parallel-CSE task mode (see `codegen --shared-cse`)")
    p.add_argument("--no-fuse", action="store_true",
                   help="disable the fuse_tasks coarsening pass "
                        "(A/B debugging)")
    p.add_argument("--fuse-threshold", type=float, default=None,
                   metavar="S",
                   help="fused-task body-cost threshold in cost-model "
                        "seconds (default: automatic)")
    p.add_argument("--explain", action="store_true",
                   help="print the per-pass wall-time/node-count table")
    _add_cache_dir(p)
    p.add_argument("--dump-after", action="append", metavar="PASS",
                   help="print a context snapshot after the named pass "
                        "(repeatable; '*' dumps after every pass)")
    p.add_argument("--report", metavar="PATH",
                   help="write the structured PipelineReport JSON to PATH")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("codegen", help="emit generated code")
    p.add_argument("model")
    p.add_argument("-t", "--target", choices=("f90", "c", "python", "numpy"),
                   default="f90")
    p.add_argument("--mode", choices=("parallel", "serial"),
                   default="parallel")
    p.add_argument("--shared-cse", action="store_true",
                   help="compute large shared subexpressions in dedicated "
                        "producer tasks (section 3.3's parallel-CSE mode)")
    p.add_argument("-o", "--output")
    _add_cache_dir(p)
    p.set_defaults(func=_cmd_codegen)

    p = sub.add_parser("startfile", help="write the start-value file")
    p.add_argument("model")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_startfile)

    p = sub.add_parser(
        "export-app",
        help="write one of the built-in applications as .om source",
    )
    p.add_argument("app", choices=sorted(_APPS))
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export_app)

    p = sub.add_parser("simulate", help="compile and integrate")
    p.add_argument("model")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--method", default="lsoda",
                   choices=("lsoda", "adams", "bdf", "rk45", "rk4"))
    p.add_argument("--backend", default="python",
                   choices=("python", "numpy", "c"),
                   help="executable backend: scalar generated Python "
                        "(default), the vectorized NumPy module, or the "
                        "natively compiled C module (GIL-releasing tasks; "
                        "python fallback without a toolchain)")
    p.add_argument("--executor", default="serial",
                   choices=("serial", "thread", "process"),
                   help="RHS evaluation strategy: plain serial calls "
                        "(default), the GIL-bound thread pool, or the "
                        "multi-core process pool with shared-memory "
                        "state exchange (runs the generated scalar "
                        "tasks under an LPT schedule)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="worker count for --executor thread/process "
                        "(default 2)")
    p.add_argument("--no-fuse", action="store_true",
                   help="disable the fuse_tasks coarsening pass "
                        "(A/B debugging)")
    p.add_argument("--stage-chunk", default="auto", metavar="K",
                   help="solver stages shipped per worker round-trip for "
                        "--executor thread/process: an integer 1-6 or "
                        "'auto' (default; calibrated from measured "
                        "dispatch overhead)")
    p.add_argument("--rtol", type=float, default=1e-6)
    p.add_argument("--atol", type=float, default=1e-9)
    p.add_argument("--start-file", help="start-value file overriding defaults")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="periodically checkpoint solver state to PATH "
                        "(atomic, versioned; survives crashes)")
    p.add_argument("--checkpoint-every", type=int, default=25,
                   metavar="STEPS",
                   help="accepted steps between checkpoints (default 25)")
    p.add_argument("--resume", metavar="PATH",
                   help="resume integration from a checkpoint written by "
                        "--checkpoint (method/state restored from the file)")
    p.add_argument("--max-retries", type=int, default=0, metavar="N",
                   help="recover from RHS failures/non-finite values by "
                        "shrinking the step and retrying up to N times "
                        "(0 disables recovery)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="wall-clock budget for the whole run in seconds; "
                        "routes the solve through the supervised job "
                        "layer, which terminates it with a structured "
                        "failure when the budget elapses")
    p.add_argument("--max-job-retries", type=int, default=0, metavar="N",
                   help="retry the whole solve up to N times on failure "
                        "(exponential backoff, resume from the newest "
                        "valid checkpoint; 0 = direct unsupervised solve "
                        "unless --deadline is given)")
    p.add_argument("--backoff", type=float, default=0.05, metavar="S",
                   help="base backoff between job retries in seconds, "
                        "doubled per retry with deterministic jitter "
                        "(default 0.05)")
    p.add_argument("--json", action="store_true",
                   help="print the final state as JSON")
    p.add_argument("--csv", help="write the full trajectory as CSV")
    p.add_argument("--plot", nargs="+", metavar="STATE",
                   help="ASCII-plot the named states")
    _add_cache_dir(p)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0  # e.g. `| head` closed the stream; not an error
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

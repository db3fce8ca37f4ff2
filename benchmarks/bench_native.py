"""Native C backend benchmark: compiled RHS throughput and build cost.

Measures what ``backend="c"`` (this PR's tentpole) actually buys:

1. **RHS throughput** on the bearing apps — the native ``RHS``, called
   through the ``_native`` glue extension, vs the generated pure-Python and NumPy back ends,
   single-trajectory evaluations per second.
2. **End-to-end integration** — a fixed-step rk4 solve of the 3-D
   bearing driven by the native RHS vs the Python one.
3. **Compile cost** — cold native build (cc fork + dlopen) vs a fully
   warm recompile, compared against the pure-Python artifact-cache hit:
   the warm native path must stay an O(ms) overhead, not a recompile.

Usable both as a pytest-benchmark module and as a standalone smoke
check::

    python benchmarks/bench_native.py --quick

The standalone run writes ``benchmarks/results/BENCH_native.json`` and
exits non-zero if native is *slower* than the Python backend anywhere
(CI's regression tripwire).  The full run additionally asserts the
headline ratios: native RHS ≥ 5× Python on bearing3d, and a warm-cache
native compile adding < 50 ms over a pure-Python cache hit.  Skips
cleanly (exit 0, stub JSON) on machines without a C toolchain.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _report import emit, table  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"


def _builders():
    from repro.apps import (
        Bearing3dParams,
        BearingParams,
        build_bearing2d,
        build_bearing3d,
    )

    return {
        "bearing2d": lambda: build_bearing2d(BearingParams(num_rollers=10)),
        "bearing3d": lambda: build_bearing3d(
            Bearing3dParams(num_rollers=8, contact_harmonics=3)
        ),
    }


def _compile(build, backend: str):
    from repro.frontend import compile_model

    return compile_model(build(), backend=backend).program


def _time(fn, reps: int) -> float:
    """Best-of-3 wall time for ``reps`` calls of ``fn``."""
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_rhs_throughput(app: str, build, reps: int) -> dict:
    """Single-trajectory RHS evals/second: python vs numpy vs native."""
    programs = {b: _compile(build, b) for b in ("python", "numpy", "c")}
    native = programs["c"]
    assert native.backend == "c", (
        f"native build fell back: {native.native_fallback_reason}"
    )
    y0 = native.start_vector()
    rng = np.random.default_rng(0)
    y = y0 + 0.1 * (1 + np.abs(y0)) * rng.standard_normal(y0.size)
    times = {}
    for backend, program in programs.items():
        f = program.make_rhs()
        f(0.0, y)  # warm (dispatch, first-call caches)
        times[backend] = _time(lambda f=f: f(0.0, y), reps)
    return {
        "app": app,
        "num_states": native.num_states,
        "evals_per_s": {b: reps / t for b, t in times.items()},
        "native_vs_python": times["python"] / times["c"],
        "native_vs_numpy": times["numpy"] / times["c"],
    }


def bench_solve(build, quick: bool) -> dict:
    """Fixed-step rk4 bearing3d solve: native RHS vs Python RHS."""
    from repro.solver import solve_ivp

    t_span = (0.0, 0.001 if quick else 0.005)
    opts = dict(method="rk4", max_step=1e-6)
    out = {}
    finals = {}
    for backend in ("python", "c"):
        program = _compile(build, backend)
        f = program.make_rhs()
        start = time.perf_counter()
        result = solve_ivp(f, t_span, program.start_vector(), **opts)
        out[backend] = time.perf_counter() - start
        finals[backend] = result.ys[-1]
    worst = float(
        np.max(
            np.abs(finals["c"] - finals["python"])
            / (1.0 + np.abs(finals["python"]))
        )
    )
    return {
        "t_span": list(t_span),
        "python_seconds": out["python"],
        "native_seconds": out["c"],
        "speedup": out["python"] / out["c"],
        "max_rel_final_diff": worst,
    }


def bench_compile_cost(build) -> dict:
    """Cold vs warm native compile, against the pure-Python cache hit."""
    from repro.codegen.native import NativeCache
    from repro.compiler import ArtifactCache, CompileOptions, compile_context

    def timed_compile(backend, cache, native_cache):
        opts = CompileOptions(
            backend=backend, cache=cache, native_cache=native_cache
        )
        start = time.perf_counter()
        ctx = compile_context(model=build(), options=opts)
        return time.perf_counter() - start, ctx

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        py_cache = ArtifactCache(tmp / "py")
        timed_compile("python", py_cache, None)
        t_py_warm, ctx = timed_compile("python", py_cache, None)
        assert ctx.metrics["cache_hit"] is True

        c_cache = ArtifactCache(tmp / "c")
        native_cache = NativeCache(tmp / "native")
        t_c_cold, ctx_cold = timed_compile("c", c_cache, native_cache)
        assert ctx_cold.metrics["native_cache_hit"] is False
        t_c_warm, ctx_warm = timed_compile("c", c_cache, native_cache)
        assert ctx_warm.metrics["cache_hit"] is True
        assert ctx_warm.metrics["native_cache_hit"] is True
        link_warm = next(
            m for m in ctx_warm.pass_metrics if m["name"] == "link_native"
        )
    return {
        "python_warm_ms": t_py_warm * 1e3,
        "native_cold_ms": t_c_cold * 1e3,
        "native_warm_ms": t_c_warm * 1e3,
        "native_build_cold_ms": ctx_cold.metrics["native_build_ms"],
        "warm_link_native_ms": link_warm["wall_s"] * 1e3,
        "warm_overhead_ms": (t_c_warm - t_py_warm) * 1e3,
    }


def run(quick: bool) -> dict:
    reps = 200 if quick else 2000
    builders = _builders()
    return {
        "quick": quick,
        "rhs_throughput": [
            bench_rhs_throughput(app, build, reps)
            for app, build in builders.items()
        ],
        "solve_bearing3d": bench_solve(builders["bearing3d"], quick),
        "compile_cost": bench_compile_cost(builders["bearing2d"]),
    }


def _report(results: dict) -> None:
    rows = [
        [
            r["app"],
            r["num_states"],
            f"{r['evals_per_s']['python']:.0f}",
            f"{r['evals_per_s']['numpy']:.0f}",
            f"{r['evals_per_s']['c']:.0f}",
            f"{r['native_vs_python']:.2f}x",
        ]
        for r in results["rhs_throughput"]
    ]
    lines = table(
        ["app", "n", "python evals/s", "numpy evals/s", "native evals/s",
         "vs python"],
        rows,
    )
    sol = results["solve_bearing3d"]
    cc = results["compile_cost"]
    lines += [
        "",
        f"bearing3d rk4 solve to t={sol['t_span'][1]}:",
        f"  python {sol['python_seconds']:.3f} s, "
        f"native {sol['native_seconds']:.3f} s ({sol['speedup']:.2f}x), "
        f"max rel diff {sol['max_rel_final_diff']:.2e}",
        "",
        "compile cost (bearing2d):",
        f"  cold native build  {cc['native_cold_ms']:.1f} ms "
        f"(cc+dlopen {cc['native_build_cold_ms']:.1f} ms)",
        f"  warm native        {cc['native_warm_ms']:.1f} ms "
        f"(link_native {cc['warm_link_native_ms']:.2f} ms)",
        f"  warm python        {cc['python_warm_ms']:.1f} ms "
        f"(warm native overhead {cc['warm_overhead_ms']:.1f} ms)",
    ]
    emit("BENCH_native", "Native C backend vs interpreted back ends", lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions; only the slower-than-python tripwire",
    )
    args = parser.parse_args(argv)

    from repro.codegen.native import find_compiler

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_native.json"
    if find_compiler() is None:
        out_path.write_text(
            json.dumps({"skipped": "no C compiler on PATH"}, indent=2)
            + "\n"
        )
        print(f"SKIP: no C compiler on PATH; wrote stub {out_path}")
        return 0

    results = run(args.quick)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    _report(results)
    print(f"wrote {out_path}")

    failures = []
    for row in results["rhs_throughput"]:
        if row["native_vs_python"] < 1.0:
            failures.append(
                f"native RHS slower than python on {row['app']} "
                f"({row['native_vs_python']:.2f}x)"
            )
    if results["solve_bearing3d"]["max_rel_final_diff"] > 1e-9:
        failures.append("native rk4 solve diverged from python results")
    if not args.quick:
        b3d = next(
            r for r in results["rhs_throughput"] if r["app"] == "bearing3d"
        )
        if b3d["native_vs_python"] < 5.0:
            failures.append(
                f"native RHS speedup on bearing3d is "
                f"{b3d['native_vs_python']:.2f}x (target >= 5x)"
            )
        if results["compile_cost"]["warm_overhead_ms"] >= 50.0:
            failures.append(
                f"warm native compile adds "
                f"{results['compile_cost']['warm_overhead_ms']:.1f} ms "
                f"over a pure-Python cache hit (target < 50 ms)"
            )

    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


# -- pytest-benchmark entry points ------------------------------------------


def test_native_rhs_bearing3d(benchmark):
    builders = _builders()
    program = _compile(builders["bearing3d"], "c")
    assert program.backend == "c"
    f = program.make_rhs()
    y = program.start_vector() + 0.01
    out = benchmark(f, 0.0, y)
    assert np.all(np.isfinite(out))


def test_native_backend_report():
    """Full comparison; persists BENCH_native.json for EXPERIMENTS.md."""
    assert main([]) == 0


if __name__ == "__main__":
    raise SystemExit(main())

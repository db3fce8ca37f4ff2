"""Native C backend (``backend="c"``): agreement, caching, degradation.

The acceptance bar for the native backend is *bit-level trust*: the same
model compiled natively must agree with the Python backend to 1e-12 on
the RHS, every task slot, and the sparse SCC-block analytic Jacobian
(against the scalarized dense oracle), across serial/threaded executors
and fused/unfused plans, on all four example apps.  The build layer is
tested for content-addressed reuse (< 50 ms warm path), bounded on-disk
growth (eviction events), and graceful degradation to the Python backend
when the machine has no C toolchain — a structured diagnostic, never a
traceback.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.apps.bearing2d import BearingParams, build_bearing2d
from repro.apps.bearing3d import Bearing3dParams, build_bearing3d
from repro.apps.powerplant import build_powerplant
from repro.apps.servo import build_servo
from repro.codegen import native as native_layer
from repro.codegen.gen_c import NativeSource, generate_c_tasks
from repro.codegen.native import (
    NativeCache,
    NativeUnavailable,
    build_native_module,
    find_compiler,
    load_native_module,
)
from repro.compiler import ArtifactCache, CompileOptions, compile_context
from repro.frontend import compile_model
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    ParallelRHS,
    RuntimeEvents,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.solver import solve_ivp

HAS_CC = find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")

TOL = 1e-12

_BUILDERS = {
    "servo": build_servo,
    "powerplant": build_powerplant,
    "bearing2d": lambda: build_bearing2d(BearingParams(num_rollers=4)),
    "bearing3d": lambda: build_bearing3d(
        Bearing3dParams(num_rollers=4, contact_harmonics=2)
    ),
}
APPS = tuple(_BUILDERS)


@pytest.fixture(scope="module", autouse=True)
def _isolated_native_cache(tmp_path_factory):
    """Point the default native cache at a per-run directory."""
    root = tmp_path_factory.mktemp("native-cache")
    old = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(root)
    yield root
    if old is None:
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    else:
        os.environ["REPRO_NATIVE_CACHE"] = old


@pytest.fixture(scope="module")
def programs():
    """(app, fuse) → (python program, native program), compiled once."""
    cache: dict = {}

    def get(app: str, fuse: bool = True):
        key = (app, fuse)
        if key not in cache:
            model = _BUILDERS[app]()
            py = compile_model(model, jacobian=True, fuse=fuse).program
            c = compile_model(
                model, jacobian=True, fuse=fuse, backend="c"
            ).program
            cache[key] = (py, c)
        return cache[key]

    return get


def _probe_states(program, count: int = 3):
    """Deterministic off-equilibrium probe points."""
    y0 = program.start_vector()
    rng = np.random.default_rng(42)
    for k in range(count):
        yield 0.1 + 0.3 * k, y0 + 0.05 * rng.standard_normal(y0.size)


def _evaluate(executor_cls, program, t, y, num_workers=2):
    res = program.results_buffer()
    if executor_cls is SerialExecutor:
        SerialExecutor(program).evaluate(
            t, y, program.param_vector(), res
        )
        return res
    with executor_cls(program, num_workers) as executor:
        executor.evaluate(t, y, program.param_vector(), res)
    return res


@needs_cc
class TestNumericalAgreement:
    @pytest.mark.parametrize("app", APPS)
    def test_rhs_agreement(self, programs, app):
        py, c = programs(app)
        assert c.native_module is not None, c.native_fallback_reason
        assert c.backend == "c"
        for t, y in _probe_states(py):
            got = c.rhs(t, y)
            want = py.rhs(t, y)
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(got - want) <= TOL * scale)

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("fuse", [True, False],
                             ids=["fused", "unfused"])
    @pytest.mark.parametrize(
        "executor_cls", [SerialExecutor, ThreadedExecutor],
        ids=["serial", "thread"],
    )
    def test_task_agreement_across_executors(
        self, programs, app, fuse, executor_cls
    ):
        """Every results-vector slot (states + partials) agrees."""
        py, c = programs(app, fuse)
        assert c.native_module is not None
        assert c.num_tasks == py.num_tasks
        t, y = next(_probe_states(py))
        res_c = _evaluate(executor_cls, c, t, y)
        res_py = _evaluate(SerialExecutor, py, t, y)
        scale = np.maximum(np.abs(res_py), 1.0)
        assert np.all(np.abs(res_c - res_py) <= TOL * scale)

    @pytest.mark.parametrize("app", APPS)
    def test_sparse_jacobian_vs_dense_oracle(self, programs, app):
        """Native sparse JAC == the scalarized dense Python oracle."""
        py, c = programs(app)
        assert c.native_module is not None
        assert c.native_module.jac_sparse is not None
        jac_c = c.make_jac()
        jac_py = py.make_jac()
        src = c.native_module.native
        n = py.num_states
        pattern = set(zip(src.jac_rows, src.jac_cols))
        for t, y in _probe_states(py):
            got = jac_c(t, y)
            want = jac_py(t, y)
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(got - want) <= TOL * scale)
            # Entries outside the sparse pattern are structural zeros in
            # the oracle too: the pattern is exact, not conservative.
            mask = np.ones((n, n), dtype=bool)
            for i, j in pattern:
                mask[i, j] = False
            assert np.all(want[mask] == 0.0)

    def test_end_to_end_solve_agreement(self, programs):
        py, c = programs("bearing2d")
        sol_py = solve_ivp(
            py.make_rhs(), (0.0, 0.05), py.start_vector(), method="rk4",
            max_step=1e-3,
        )
        sol_c = solve_ivp(
            c.make_rhs(), (0.0, 0.05), c.start_vector(), method="rk4",
            max_step=1e-3,
        )
        # Fixed-step RK4 runs the identical step sequence, so the only
        # divergence source would be the RHS itself.
        assert np.allclose(sol_c.ys, sol_py.ys, rtol=1e-9, atol=1e-12)


@needs_cc
class TestSparsePattern:
    def test_pattern_grouped_by_scc_block(self):
        cm = compile_model(
            _BUILDERS["bearing2d"](), jacobian=True, backend="c"
        )
        src = cm.program.native_module.native
        membership = cm.partition.membership
        state_names = cm.system.state_names
        block_seq = [
            membership[state_names[i]] for i in src.jac_rows
        ]
        # Rows are visited one SCC block at a time: the block id sequence
        # never revisits an earlier block.
        seen: list = []
        for b in block_seq:
            if not seen or seen[-1] != b:
                assert b not in seen
                seen.append(b)

    def test_nnz_is_sparse_on_bearing(self):
        cm = compile_model(
            _BUILDERS["bearing2d"](), jacobian=True, backend="c"
        )
        src = cm.program.native_module.native
        n = cm.program.num_states
        assert 0 < src.jac_nnz < n * n


@needs_cc
class TestFaultMatrixWithNativeTasks:
    """The recovery ladder must work unchanged when tasks are native."""

    @pytest.mark.parametrize("mode", ["raise", "hang", "nan"])
    def test_recovers_and_matches_serial(self, programs, mode):
        py, c = programs("bearing2d")
        assert c.native_module is not None
        reference = _evaluate(SerialExecutor, c, 0.0, c.start_vector())
        events = RuntimeEvents()
        spec = dict(task_id=1, mode=mode, count=1)
        if mode == "hang":
            spec["hang_seconds"] = 0.05
        injector = FaultInjector([FaultSpec(**spec)], events=events)
        with ThreadedExecutor(
            c, 2, injector=injector, events=events
        ) as executor:
            res = c.results_buffer()
            executor.evaluate(
                0.0, c.start_vector(), c.param_vector(), res
            )
        assert np.array_equal(res, reference)
        assert events.count("fault_injected") == 1
        if mode in ("raise", "nan"):
            assert events.count("task_retry") == 1


class TestGracefulDegradation:
    def test_no_toolchain_falls_back_to_python(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
        native_layer._reset_toolchain_probe()
        try:
            ctx = compile_context(
                model=build_servo(),
                options=CompileOptions(backend="c", jacobian=True),
            )
            program = ctx.program
            assert program is not None
            assert program.native_module is None
            assert program.backend == "python"
            assert program.native_fallback_reason == "no_compiler"
            assert ctx.metrics["native_unavailable"] == "no_compiler"
            warnings = [
                d for d in ctx.diagnostics if d.severity == "warning"
            ]
            assert any("native backend unavailable" in d.message
                       for d in warnings)
            # Still fully executable through the Python module.
            out = program.rhs(0.0, program.start_vector())
            assert np.all(np.isfinite(out))
            assert program.make_jac() is not None
        finally:
            native_layer._reset_toolchain_probe()

    def test_no_toolchain_report_has_structured_reason(
        self, monkeypatch, tmp_path
    ):
        from repro.compiler import PipelineReport

        monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
        native_layer._reset_toolchain_probe()
        try:
            cm = compile_model(build_servo(), backend="c")
            report = cm.report
            assert report.metrics["native_unavailable"] == "no_compiler"
            text = "\n".join(report.summary_lines())
            assert "native unavailable" in text
            assert "fell back" in text
        finally:
            native_layer._reset_toolchain_probe()

    @needs_cc
    def test_compile_failure_degrades_not_raises(self, tmp_path):
        bad = NativeSource(
            source="this is not C at all;",
            name="broken", num_states=1, num_partials=0,
            num_tasks=0, num_params=0, has_jacobian=False,
            jac_rows=(), jac_cols=(), num_lines=1, num_cse=0,
        )
        with pytest.raises(NativeUnavailable) as exc:
            build_native_module(bad, cache=NativeCache(tmp_path))
        assert exc.value.reason == "compile_failed"


@needs_cc
class TestNativeCache:
    def _tiny(self, tag: int) -> NativeSource:
        source = "\n".join([
            f"/* tiny model {tag} */",
            "int NUM_STATES(void) { return 1; }",
            "int NUM_PARTIALS(void) { return 0; }",
            "int NUM_TASKS(void) { return 0; }",
            "void RHS(double t, const double *yin, const double *p, "
            "double *yout)",
            f"{{ (void)t; (void)p; yout[0] = yin[0] * {tag}.0; }}",
            "void run_tasks(double t, const double *yin, const double *p, "
            "double *yout, const int *ids, int n, double *times)",
            "{ (void)t; (void)yin; (void)p; (void)yout; (void)ids; (void)n;"
            " (void)times; }",
            "void START(double *y0) { y0[0] = 1.0; }",
            "void PARAMS(double *pout) { (void)pout; }",
        ])
        return NativeSource(
            source=source, name=f"tiny{tag}", num_states=1,
            num_partials=0, num_tasks=0, num_params=0, has_jacobian=False,
            jac_rows=(), jac_cols=(), num_lines=source.count("\n") + 1,
            num_cse=0,
        )

    def test_warm_reuse_within_process(self, tmp_path):
        cache = NativeCache(tmp_path)
        src = self._tiny(7)
        _, cold = build_native_module(src, cache=cache)
        _, warm = build_native_module(src, cache=cache)
        assert cold["cache_hit"] is False
        assert warm["cache_hit"] is True and warm["level"] == "memory"
        assert warm["build_ms"] < 50.0

    def test_warm_reuse_across_processes_is_a_dlopen(self, tmp_path):
        cache = NativeCache(tmp_path)
        src = self._tiny(8)
        build_native_module(src, cache=cache)
        fresh = NativeCache(tmp_path)  # simulates a new process
        module, info = build_native_module(src, cache=fresh)
        assert info["cache_hit"] is True and info["level"] == "disk"
        out = np.empty(1)
        module.rhs(0.0, np.array([3.0]), np.empty(0), out)
        assert out[0] == 24.0

    def test_eviction_drops_oldest_and_records_event(self, tmp_path):
        events = RuntimeEvents()
        cache = NativeCache(tmp_path, max_entries=2, events=events)
        keys = []
        for tag in (1, 2, 3):
            src = self._tiny(tag)
            build_native_module(src, cache=cache)
            keys.append(native_layer.native_key(src))
            # Distinct mtimes so the LRU order is unambiguous.
            so = cache.so_path(keys[-1])
            os.utime(so, (so.stat().st_atime, so.stat().st_mtime + tag))
        remaining = sorted(p.stem for p in tmp_path.glob("*.so"))
        assert len(remaining) == 2
        assert keys[0] not in remaining
        assert cache.evictions == 1
        evts = [e for e in events if e.kind == "native_cache_evicted"]
        assert len(evts) == 1 and evts[0].data["key"] == keys[0]

    def test_size_bound_eviction(self, tmp_path):
        cache = NativeCache(tmp_path, max_bytes=1)
        for tag in (4, 5):
            build_native_module(self._tiny(tag), cache=cache)
        # Bounds force everything but the newest object out.
        assert len(list(tmp_path.glob("*.so"))) == 1
        assert cache.evictions == 1

    def test_toolchain_fingerprint_in_key(self):
        src = self._tiny(9)
        key = native_layer.native_key(src)
        assert key is not None and len(key) == 64
        assert native_layer.native_key(src) == key


def _compile_glue_builds(monkeypatch) -> list:
    """Forget this process's glue and record each glue compile after."""
    monkeypatch.setattr(native_layer, "_glue", None)
    builds: list = []
    compile_ = native_layer._compile

    def counting(cc, src, out, *extra):
        if src == native_layer.GLUE_SOURCE:
            builds.append(out)
        compile_(cc, src, out, *extra)

    monkeypatch.setattr(native_layer, "_compile", counting)
    return builds


#: a fresh interpreter loads a worker's native module from a pickled spec
#: with no compiler to rebuild anything: only the shipped files can load
_WORKER = """
import pickle, sys
import numpy as np
from repro.codegen import native
spec, y, p, res = pickle.load(open(sys.argv[1], "rb"))
module = spec._build_native()
module.run_tasks(tuple(range(spec.num_tasks)), 0.1, y, p, res,
                 np.zeros(spec.num_tasks))
pickle.dump((native._glue.__file__, res), sys.stdout.buffer)
"""


@needs_cc
class TestGlue:
    """The one CPython extension that calls every native unit."""

    def test_built_once_per_process_across_cache_roots(
        self, tmp_path, monkeypatch
    ):
        builds = _compile_glue_builds(monkeypatch)
        first, second = (TestNativeCache()._tiny(tag) for tag in (11, 12))
        a, _ = build_native_module(first, cache=NativeCache(tmp_path / "a"))
        b, _ = build_native_module(second, cache=NativeCache(tmp_path / "b"))
        assert len(builds) == 1
        assert a.glue_path == b.glue_path
        assert a.glue_path.parent == tmp_path / "a" / "glue"
        assert not (tmp_path / "b" / "glue").exists()
        out = np.empty(1)
        assert b.rhs(0.0, np.array([2.0]), np.empty(0), out) is out
        assert out[0] == 24.0

    def test_eviction_keeps_the_glue_and_workers_load_it(
        self, tmp_path, monkeypatch
    ):
        import pickle
        import subprocess
        import sys

        from repro.runtime import ProcessExecutor

        builds = _compile_glue_builds(monkeypatch)
        root = tmp_path / "native"
        programs = [
            compile_context(model=build(), options=CompileOptions(
                backend="c",
                native_cache=NativeCache(root, max_entries=1),
            )).program
            for build in (build_servo, build_powerplant)
        ]
        assert [p.backend for p in programs] == ["c", "c"]
        assert len(list(root.glob("*.so"))) == 1  # the servo unit went
        (glue,) = (root / "glue").iterdir()
        assert len(builds) == 1
        assert programs[1].native_module.glue_path == glue
        before = glue.stat()

        program = programs[1]
        y, p = program.start_vector(), program.param_vector()
        reference = _evaluate(SerialExecutor, program, 0.1, y)
        with ProcessExecutor(program, num_workers=1) as executor:
            res = program.results_buffer()
            executor.evaluate(0.1, y, p, res)
        assert np.array_equal(res, reference)

        spec_file = tmp_path / "spec.pkl"
        spec_file.write_bytes(pickle.dumps(
            (program.rebuild_spec(), y, p, program.results_buffer())
        ))
        env = dict(os.environ, REPRO_CC=str(tmp_path / "no-such-cc"),
                   REPRO_NATIVE_CACHE=str(tmp_path / "empty"))
        proc = subprocess.run(
            [sys.executable, "-c", _WORKER, str(spec_file)],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        glue_file, worker_res = pickle.loads(proc.stdout)
        assert glue_file == str(glue)
        assert np.array_equal(worker_res, reference)
        after = glue.stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino, before.st_mtime_ns
        )
        assert not (tmp_path / "empty").exists()

    def test_layout_and_exports_are_checked_at_load(self, tmp_path):
        tiny = TestNativeCache()._tiny(13)
        module, _ = build_native_module(tiny, cache=NativeCache(tmp_path))
        cases = {
            "layout mismatch": dataclasses.replace(tiny, num_states=2),
            "does not export JAC_NNZ": dataclasses.replace(
                tiny, has_jacobian=True, jac_rows=(0,), jac_cols=(0,)
            ),
        }
        for message, wrong in cases.items():
            with pytest.raises(NativeUnavailable, match=message) as exc:
                load_native_module(module.path, wrong)
            assert exc.value.reason == "load_failed"
        with pytest.raises(NativeUnavailable, match="cannot load"):
            load_native_module(tmp_path / "missing.so", tiny)

    def test_missing_headers_fall_back_to_python(
        self, tmp_path, monkeypatch
    ):
        _compile_glue_builds(monkeypatch)
        empty = tmp_path / "include"
        empty.mkdir()
        monkeypatch.setattr(native_layer, "_python_include",
                            lambda: str(empty))
        cm = compile_model(build_servo(), backend="c")
        program = cm.program
        assert program.backend == "python"
        assert program.native_fallback_reason == "no_python_headers"
        assert cm.report.metrics["native_unavailable"] == "no_python_headers"
        assert "native unavailable: no_python_headers" in "\n".join(
            cm.report.summary_lines()
        )
        out = program.rhs(0.0, program.start_vector())
        assert np.all(np.isfinite(out))


def _bad_buffers(n: int) -> dict:
    """name -> a buffer of ``n`` float64 values gone wrong one way."""
    return {
        "short": np.zeros(n - 1),
        "long": np.zeros(n + 1),
        "float32": np.zeros(n, dtype=np.float32),
        "strided": np.zeros(2 * n)[::2],
        "list": [0.0] * n,
    }


@needs_cc
class TestBufferChecks:
    """Every native call checks every buffer before the C code runs."""

    @pytest.mark.parametrize("how", sorted(_bad_buffers(2)))
    @pytest.mark.parametrize("which", ["y", "p", "out"])
    def test_rhs_names_the_bad_buffer(self, programs, which, how):
        _, c = programs("bearing3d")
        module = c.native_module
        args = {"y": c.start_vector(), "p": c.param_vector(),
                "out": np.empty(c.num_states)}
        args[which] = _bad_buffers(args[which].size)[how]
        with pytest.raises(ValueError, match=rf"^{which}\b"):
            module.rhs(0.0, args["y"], args["p"], args["out"])

    @pytest.mark.parametrize("which", ["y", "p", "out", "times"])
    def test_run_tasks_names_the_bad_buffer(self, programs, which):
        _, c = programs("bearing3d")
        args = {"y": c.start_vector(), "p": c.param_vector(),
                "out": c.results_buffer(), "times": np.zeros(c.num_tasks)}
        args[which] = args[which][:-1]
        with pytest.raises(ValueError, match=rf"^{which} has"):
            c.native_module.run_tasks((0,), 0.0, *args.values())

    def test_run_tasks_rejects_unknown_ids(self, programs):
        _, c = programs("bearing3d")
        for bad in (-1, c.num_tasks):
            with pytest.raises(ValueError, match=r"^ids\[1\]"):
                c.native_module.run_tasks(
                    (0, bad), 0.0, c.start_vector(), c.param_vector(),
                    c.results_buffer(), np.zeros(c.num_tasks),
                )

    def test_read_only_output_is_rejected(self, programs):
        _, c = programs("bearing3d")
        out = np.empty(c.num_states)
        out.flags.writeable = False
        with pytest.raises(ValueError, match="^out is read-only"):
            c.native_module.rhs(0.0, c.start_vector(), c.param_vector(), out)

    def test_start_and_params_match_the_python_module(self, programs):
        py, c = programs("bearing3d")
        assert np.array_equal(c.native_module.start(), py.start_vector())
        assert np.array_equal(c.native_module.params(), py.param_vector())
        with pytest.raises(ValueError, match="^out has"):
            c.native_module._unit.start(np.empty(c.num_states + 1))

    def test_make_rhs_rejects_a_short_state(self, programs):
        """The native RHS used to read past a 5-value y and return n."""
        _, c = programs("bearing3d")
        f = c.make_rhs()
        with pytest.raises(ValueError, match="^y has 5 float64 values"):
            f(0.0, c.start_vector()[:5])
        jac = c.make_jac()
        with pytest.raises(ValueError, match="^y has"):
            jac(0.0, np.zeros(c.num_states + 1))

    @pytest.mark.parametrize("backend", ["python", "c"])
    @pytest.mark.parametrize("size", [-1, 1])
    def test_program_rhs_rejects_wrong_lengths(self, programs, backend,
                                               size):
        program = programs("bearing3d")[backend == "c"]
        assert program.backend == backend
        y = np.zeros(program.num_states + size)
        p = np.zeros(program.param_vector().size + size)
        with pytest.raises(ValueError, match="^y "):
            program.rhs(0.0, y)
        with pytest.raises(ValueError, match="^p "):
            program.rhs(0.0, program.start_vector(), p)


@needs_cc
class TestPipelineIntegration:
    def test_artifact_cache_roundtrip_restores_native(self, tmp_path):
        cache = ArtifactCache(tmp_path / "artifacts")
        opts = CompileOptions(backend="c", jacobian=True, cache=cache)
        ctx1 = compile_context(model=build_servo(), options=opts)
        assert ctx1.metrics["cache_hit"] is False
        assert ctx1.program.native_module is not None
        cache.drop_memory()  # simulate a process restart
        ctx2 = compile_context(model=build_servo(), options=opts)
        assert ctx2.metrics["cache_hit"] is True
        assert ctx2.program.native_module is not None
        assert ctx2.native_source == ctx1.native_source
        t, y = 0.2, ctx1.program.start_vector() + 0.01
        assert np.array_equal(
            ctx2.program.rhs(t, y), ctx1.program.rhs(t, y)
        )

    @pytest.mark.parametrize("app", ["servo", "powerplant", "bearing2d"])
    def test_warm_hit_program_is_the_cold_program(self, app, tmp_path):
        root = tmp_path / "artifacts"
        ctxs = [
            compile_context(
                model=_BUILDERS[app](),
                options=CompileOptions(
                    backend="c", cache=ArtifactCache(root),
                    native_cache=NativeCache(tmp_path / "native"),
                ),
            )
            for _ in range(2)
        ]
        assert [c.metrics["cache_hit"] for c in ctxs] == [False, True]
        cold, warm = (c.program for c in ctxs)
        assert warm.backend == cold.backend == "c"
        assert warm.module.source == cold.module.source
        assert ctxs[1].native_source == ctxs[0].native_source
        assert list(warm.task_graph) == list(cold.task_graph)
        assert [warm.task_output_slots(i) for i in range(warm.num_tasks)] \
            == [cold.task_output_slots(i) for i in range(cold.num_tasks)]
        assert all(a is b for a, b in zip(warm.system.rhs, cold.system.rhs))
        assert warm.plan.bodies == cold.plan.bodies
        y, p = cold.start_vector() + 0.01, cold.param_vector()
        assert np.array_equal(warm.rhs(0.2, y), cold.rhs(0.2, y))  # native
        a, b = np.empty_like(y), np.empty_like(y)
        cold.module.rhs(0.2, y, p, a)
        warm.module.rhs(0.2, y, p, b)
        assert np.array_equal(a, b)

    def test_warm_native_link_is_fast(self, tmp_path):
        """Warm-cache native compile: link_native adds < 50 ms."""
        cache = ArtifactCache(tmp_path / "artifacts")
        opts = CompileOptions(backend="c", cache=cache)
        compile_context(model=build_servo(), options=opts)
        ctx = compile_context(model=build_servo(), options=opts)
        assert ctx.metrics["cache_hit"] is True
        assert ctx.metrics["native_cache_hit"] is True
        ran = {m["name"]: m for m in ctx.pass_metrics
               if m["status"] == "ran"}
        assert ran["link_native"]["wall_s"] < 0.050

    def test_explain_reports_native_build(self):
        cm = compile_model(build_servo(), backend="c")
        text = "\n".join(cm.report.summary_lines())
        assert "link_native" in text
        assert "native build:" in text

    def test_cache_key_differs_from_python_backend(self):
        from repro.compiler import artifact_key, model_fingerprint

        h = model_fingerprint(build_servo().flatten())
        assert artifact_key(h, CompileOptions(backend="c")) != \
            artifact_key(h, CompileOptions(backend="python"))

    def test_process_executor_rebuilds_native(self, programs):
        from repro.runtime import ProcessExecutor

        _, c = programs("bearing2d")
        assert c.native_module is not None
        spec = c.rebuild_spec()
        assert spec.native_source is not None
        reference = _evaluate(SerialExecutor, c, 0.0, c.start_vector())
        with ProcessExecutor(c, num_workers=2) as executor:
            res = c.results_buffer()
            executor.evaluate(
                0.0, c.start_vector(), c.param_vector(), res
            )
        assert np.array_equal(res, reference)

    def test_program_spec_survives_missing_so(self, programs, tmp_path):
        """Workers rebuild from source when the parent's .so vanished."""
        _, c = programs("servo")
        spec = c.rebuild_spec()
        import dataclasses

        spec = dataclasses.replace(
            spec,
            native_so_path=str(tmp_path / "gone.so"),
            native_cache_root=str(tmp_path / "fresh-cache"),
        )
        run = spec.build_runner()
        order = tuple(range(c.num_tasks))
        res, want = c.results_buffer(), c.results_buffer()
        times = np.zeros(c.num_tasks)
        run(order, 0.1, c.start_vector(), c.param_vector(), res, times)
        assert (tmp_path / "fresh-cache").is_dir()  # rebuilt, not loaded
        c.task_runner()(order, 0.1, c.start_vector(), c.param_vector(),
                        want, times)
        assert np.array_equal(res, want)

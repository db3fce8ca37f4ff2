"""Tests of the pass-based compiler driver (repro.compiler).

Covers: bit-identical equivalence with the pre-refactor monolithic
pipeline on all four example models, pass-manager mechanics
(registration contracts, run_until/skip), content-addressed artifact
caching (memory and disk, asserted via the metrics dict), early backend
validation, keyword-argument validation, diagnostics provenance, the
per-pass observability surfaced through ``CompiledModel.summary()`` and
the ``repro compile`` CLI verb.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import partition
from repro.apps import (
    BearingParams,
    Bearing3dParams,
    build_bearing2d,
    build_bearing3d,
    build_powerplant,
    build_servo,
)
from repro.codegen import (
    ArraySystem,
    GeneratedProgram,
    generate_numpy,
    generate_program,
    generate_python,
    make_array_system,
    make_ode_system,
    partition_tasks,
    verify_compilable,
)
from repro.codegen.fuse import fuse_plan
from repro.codegen.native import NativeCache, find_compiler
from repro.compiler import (
    ArtifactCache,
    CACHE_SKIPPED_PASSES,
    CompilationContext,
    CompileError,
    CompileOptions,
    Pass,
    PassManager,
    PipelineReport,
    build_default_manager,
    compile_context,
    model_fingerprint,
)
import repro.compiler.cache as cache_module
from repro.frontend import CompiledModel, compile_model, compile_source
from repro.model import check_types
from repro.runtime import RuntimeEvents

#: tests here call intern_cache_clear()
pytestmark = pytest.mark.usefixtures("intern_table_restored")


_BUILDERS = {
    "servo": build_servo,
    "powerplant": build_powerplant,
    "bearing2d": lambda: build_bearing2d(BearingParams(num_rollers=4)),
    "bearing3d": lambda: build_bearing3d(
        Bearing3dParams(num_rollers=4, contact_harmonics=2)
    ),
}


def _monolith_compile(model, backend):
    """The pre-refactor frontend.compile_model with its back half, inlined
    verbatim (plus the fuse_tasks coarsening both paths now run, fed the
    same SCC blocks) — an oracle independent of the pass pipeline."""
    flat = model.flatten()
    check_types(flat)
    part = partition(flat)
    system = make_ode_system(flat)
    report = verify_compilable(system)
    plan, _ = fuse_plan(partition_tasks(system), blocks=part.membership)
    return GeneratedProgram(
        system=system, plan=plan, module=generate_python(system, plan=plan),
        verify_report=report,
        vector_module=(generate_numpy(system, plan=plan)
                       if backend == "numpy" else None),
    )


class TestMonolithEquivalence:
    """The pass driver must reproduce the monolith bit for bit."""

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_identical_generated_source_and_rhs(self, name, backend):
        old = _monolith_compile(_BUILDERS[name](), backend)
        new = compile_model(_BUILDERS[name](), backend=backend).program

        assert new.module.source == old.module.source
        if backend == "numpy":
            assert new.vector_module is not None
            assert new.vector_module.source == old.vector_module.source
        else:
            assert new.vector_module is None

        y0 = old.start_vector()
        assert np.array_equal(new.rhs(0.0, y0), old.rhs(0.0, y0))

    def test_task_plan_and_reports_match(self):
        model = _BUILDERS["bearing2d"]()
        old = _monolith_compile(model, "python")
        new = compile_model(_BUILDERS["bearing2d"]()).program
        assert new.num_tasks == old.num_tasks
        assert [t.weight for t in new.task_graph] == \
            [t.weight for t in old.task_graph]
        assert new.verify_report == old.verify_report
        assert new.plan.partial_slots == old.plan.partial_slots


class TestSeededSystem:
    """generate_program is the default pipeline on a context seeded with
    the ODE system: the front half skips by rule, the back half runs."""

    FRONT = {"source-alias", "parse", "flatten", "typecheck", "fingerprint",
             "cache-lookup", "scalarize", "partition", "transform",
             "cache-store"}

    def test_front_passes_skip_as_caller_supplied(self):
        system = make_ode_system(build_servo().flatten())
        ctx = CompilationContext(system=system)
        build_default_manager().run(ctx)
        skipped = ctx.metrics["passes_skipped"]
        assert set(skipped) == self.FRONT | {"link_native"}
        assert {skipped[name] for name in self.FRONT} == {
            "caller supplied an OdeSystem"
        }
        assert ctx.metrics["passes_ran"] == [
            "verify", "tasks", "fuse_tasks", "codegen", "link",
        ]

    def test_array_system_is_expanded_only_when_a_feature_needs_it(self):
        flat = build_bearing2d(BearingParams(num_rollers=4)).flatten(
            mode="array"
        )
        array = make_array_system(flat)
        assert isinstance(generate_program(array).system, ArraySystem)
        program = generate_program(array, jacobian=True)
        assert program.system.state_names == array.expand().state_names
        assert not isinstance(program.system, ArraySystem)
        assert program.make_jac() is not None

    def test_options_are_validated(self):
        system = make_ode_system(build_servo().flatten())
        with pytest.raises(ValueError, match="unknown backend"):
            generate_program(system, backend="fortran")


class TestPassManager:
    def test_default_pipeline_order(self):
        manager = build_default_manager()
        names = manager.pass_names
        assert names.index("flatten") < names.index("typecheck")
        assert names.index("partition") < names.index("codegen")
        assert names[-1] == "cache-store"

    def test_duplicate_name_rejected(self):
        manager = build_default_manager()
        with pytest.raises(ValueError, match="duplicate pass"):
            manager.register(Pass("flatten", lambda ctx: None))

    def test_requires_contract_checked_at_registration(self):
        manager = PassManager()
        with pytest.raises(ValueError, match="requires"):
            manager.register(
                Pass("needs-flat", lambda ctx: None, requires=("flat",))
            )

    def test_register_after(self):
        manager = build_default_manager()
        manager.register(
            Pass("custom", lambda ctx: None, requires=("flat",)),
            after="flatten",
        )
        names = manager.pass_names
        assert names.index("custom") == names.index("flatten") + 1

    def test_run_until_stops_early(self):
        ctx = compile_context(model=build_servo(), until="partition")
        assert ctx.partition is not None
        assert ctx.system is None
        assert ctx.program is None

    def test_skip_pass(self):
        ctx = compile_context(model=build_servo(), skip=("typecheck",))
        assert ctx.types is None
        assert ctx.program is not None
        skipped = ctx.metrics["passes_skipped"]
        assert skipped["typecheck"] == "skipped by caller"

    def test_skip_unknown_pass_rejected(self):
        with pytest.raises(KeyError, match="unknown pass"):
            compile_context(model=build_servo(), skip=("no-such-pass",))

    def test_skipping_load_bearing_pass_fails_loudly(self):
        with pytest.raises(CompileError, match="missing required artifact"):
            compile_context(model=build_servo(), skip=("transform",))

    def test_per_pass_metrics_recorded(self):
        ctx = compile_context(model=build_servo())
        ran = {m["name"]: m for m in ctx.pass_metrics if m["status"] == "ran"}
        for name in ("flatten", "typecheck", "partition", "transform",
                     "verify", "tasks", "codegen", "link"):
            assert name in ran
            assert ran[name]["wall_s"] >= 0.0
        assert ran["flatten"]["nodes_after"] > 0
        assert ctx.metrics["compile_wall_s"] > 0.0

    def test_dump_after_snapshots(self):
        ctx = compile_context(
            model=build_servo(),
            options=CompileOptions(dump_after=("transform", "codegen")),
        )
        assert set(ctx.dumps) == {"transform", "codegen"}
        assert "system" in ctx.dumps["transform"]
        assert "def RHS" in ctx.dumps["codegen"]


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        a = build_servo().flatten()
        b = build_servo().flatten()
        assert model_fingerprint(a) == model_fingerprint(b)

    def test_differs_between_models(self):
        servo = build_servo().flatten()
        plant = build_powerplant().flatten()
        assert model_fingerprint(servo) != model_fingerprint(plant)

    def test_options_change_cache_key(self):
        from repro.compiler import artifact_key

        h = model_fingerprint(build_servo().flatten())
        assert artifact_key(h, CompileOptions(backend="python")) != \
            artifact_key(h, CompileOptions(backend="numpy"))
        assert artifact_key(h, CompileOptions()) != \
            artifact_key(h, CompileOptions(jacobian=True))


class TestArtifactCache:
    def test_second_compile_hits_and_skips(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        opts = CompileOptions(backend="numpy", cache=cache)

        ctx1 = compile_context(model=build_servo(), options=opts)
        assert ctx1.metrics["cache_hit"] is False
        assert ctx1.metrics["passes_skipped"].keys().isdisjoint(
            CACHE_SKIPPED_PASSES
        )

        ctx2 = compile_context(model=build_servo(), options=opts)
        # The acceptance assertion: the metrics dict proves analysis and
        # codegen were skipped on the hit.
        assert ctx2.metrics["cache_hit"] is True
        for name in CACHE_SKIPPED_PASSES:
            assert ctx2.metrics["passes_skipped"][name] == "artifact cache hit"
        assert ctx2.program.module.source == ctx1.program.module.source

    def test_disk_reload_across_cache_instances(self, tmp_path):
        root = tmp_path / "cache"
        opts1 = CompileOptions(backend="numpy", jacobian=True,
                               cache=ArtifactCache(root))
        ctx1 = compile_context(model=build_servo(), options=opts1)

        # Fresh cache object: memory empty, must come back from disk.
        opts2 = CompileOptions(backend="numpy", jacobian=True,
                               cache=ArtifactCache(root))
        ctx2 = compile_context(model=build_servo(), options=opts2)
        assert ctx2.metrics["cache_hit"] is True

        y0 = ctx1.program.start_vector()
        assert np.array_equal(ctx2.program.rhs(0.0, y0),
                              ctx1.program.rhs(0.0, y0))
        jac1, jac2 = ctx1.program.make_jac(), ctx2.program.make_jac()
        assert jac1 is not None and jac2 is not None
        assert np.array_equal(jac2(0.0, y0), jac1(0.0, y0))
        Y = np.tile(y0, (3, 1))
        assert np.array_equal(ctx2.program.rhs_batch(0.0, Y),
                              ctx1.program.rhs_batch(0.0, Y))
        assert ctx2.partition.num_subsystems == ctx1.partition.num_subsystems
        assert ctx2.plan.partial_slots == ctx1.plan.partial_slots
        assert ctx2.verify_report == ctx1.verify_report

    def test_different_options_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        compile_context(model=build_servo(),
                        options=CompileOptions(cache=cache))
        ctx = compile_context(
            model=build_servo(),
            options=CompileOptions(cache=cache, jacobian=True),
        )
        assert ctx.metrics["cache_hit"] is False

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        opts = CompileOptions(cache=cache)
        ctx = compile_context(model=build_servo(), options=opts)
        artifact = root / f"{ctx.cache_key}.json"
        assert artifact.exists()
        artifact.write_text("{not json")

        ctx2 = compile_context(
            model=build_servo(),
            options=CompileOptions(cache=ArtifactCache(root)),
        )
        assert ctx2.metrics["cache_hit"] is False
        assert ctx2.program is not None

    def test_artifact_follows_the_dag_not_its_expansion(self, tmp_path):
        """Count-based tripwire (no timing): a hit decodes each distinct
        node once — the tree form of this model is 126 565 nodes and a
        1.8 MB file with the C unit, 0.9 MB without."""
        from repro.symbolic import intern_cache_clear, intern_cache_size

        root = tmp_path / "cache"
        intern_cache_clear()
        cold = compile_context(
            model=build_bearing2d(BearingParams(num_rollers=32)),
            options=CompileOptions(cache=ArtifactCache(root)),
        )
        interned = intern_cache_size()
        warm = compile_context(
            model=build_bearing2d(BearingParams(num_rollers=32)),
            options=CompileOptions(cache=ArtifactCache(root)),
        )
        assert warm.metrics["cache_hit"] is True
        assert warm.system == cold.system
        assert warm.plan.bodies == cold.plan.bodies
        assert all(a is b for a, b in zip(warm.system.rhs, cold.system.rhs))
        artifact = root / f"{cold.cache_key}.json"
        assert len(json.loads(artifact.read_text())["nodes"]) <= 1.2 * interned
        assert artifact.stat().st_size < 700_000

    def test_eviction_bounds_aliases_orphaned_by_package_builds(
        self, tmp_path, monkeypatch
    ):
        """Each stand-in package build writes one more alias for the same
        text; the bounded store drops the oldest, never the live one."""
        events = RuntimeEvents()
        for build in range(5):
            monkeypatch.setattr(cache_module, "package_digest",
                                lambda build=build: f"build {build}")
            cache = ArtifactCache(tmp_path, events=events)
            assert cache.sources.max_entries == 256  # the native default
            cache.sources.max_entries = 2
            ctx = compile_context(source=_CLI_MODEL,
                                  options=CompileOptions(cache=cache))
            assert not ctx.source_hit
            aliases = list((tmp_path / "sources").glob("*.json"))
            assert len(aliases) == min(build + 1, 2)
            assert cache.sources.path(ctx.source_key) in aliases
        evicted = [e for e in events if e.kind == "cache_evicted"]
        assert len(evicted) == 3
        assert len(list(tmp_path.glob("*.json"))) == 1  # one artifact
        assert _source_compile(tmp_path).source_hit

    def test_alias_hits_refresh_their_age(self, tmp_path):
        import os

        cold = _source_compile(tmp_path)
        alias = ArtifactCache(tmp_path).sources.path(cold.source_key)
        os.utime(alias, (0, 0))
        assert _source_compile(tmp_path).source_hit
        assert alias.stat().st_mtime > 0

    def test_memory_only_cache(self):
        cache = ArtifactCache()
        opts = CompileOptions(cache=cache)
        compile_context(model=build_servo(), options=opts)
        ctx = compile_context(model=build_servo(), options=opts)
        assert ctx.metrics["cache_hit"] is True
        assert cache.hits == 1 and cache.misses == 1


class TestEarlyValidation:
    def test_unknown_backend_lists_all_four(self):
        with pytest.raises(ValueError, match="unknown backend") as exc:
            compile_model(build_servo(), backend="mlir")
        text = str(exc.value)
        for name in ("python", "numpy", "c", "fortran"):
            assert name in text

    def test_backend_typo_suggestion(self):
        with pytest.raises(ValueError, match="did you mean 'python'"):
            compile_model(build_servo(), backend="pyton")

    def test_validated_before_any_pass_runs(self):
        # The options object itself rejects the backend, so not even
        # flattening happens — previously this surfaced after the whole
        # front half of the pipeline had run.
        with pytest.raises(ValueError, match="unknown backend"):
            CompileOptions(backend="wasm")

    def test_compile_source_unknown_kwarg_with_suggestion(self):
        with pytest.raises(TypeError, match="did you mean 'jacobian'"):
            compile_source("MODEL m; END m;", jacobain=True)

    def test_compile_source_unknown_kwarg_lists_options(self):
        with pytest.raises(TypeError, match="valid options"):
            compile_source("MODEL m; END m;", totally_bogus=1)


def _bad_types_model():
    """Flattens fine but fails type derivation (wrong call arity)."""
    from repro.model import Model, ModelClass
    from repro.symbolic.expr import Call

    cls = ModelClass("C")
    x = cls.state("x", start=1.0)
    cls.ode(x, Call("atan2", [x]), label="Eq")
    model = Model("bad")
    model.instance("I", cls)
    return model


class TestDiagnostics:
    def test_strict_mode_preserves_exception_and_records_provenance(self):
        from repro.model.typecheck import TypeError_

        ctx = CompilationContext(model=_bad_types_model())
        with pytest.raises(TypeError_, match="atan2 expects 2"):
            build_default_manager().run(ctx)
        assert len(ctx.errors) == 1
        diag = ctx.errors[0]
        assert diag.pass_name == "typecheck"
        assert diag.model == "bad"
        assert "atan2" in diag.message

    def test_collect_mode_raises_single_compile_error(self):
        ctx = CompilationContext(
            model=_bad_types_model(),
            options=CompileOptions(collect_errors=True),
        )
        with pytest.raises(CompileError) as exc:
            build_default_manager().run(ctx)
        assert "typecheck" in str(exc.value)
        assert "bad" in str(exc.value)
        assert exc.value.diagnostics[0].pass_name == "typecheck"

    def test_failed_pass_recorded_in_metrics(self):
        ctx = CompilationContext(model=_bad_types_model())
        with pytest.raises(Exception):
            build_default_manager().run(ctx)
        statuses = {m["name"]: m["status"] for m in ctx.pass_metrics}
        assert statuses["typecheck"] == "failed"


class TestObservabilitySurface:
    def test_compiled_model_summary_reports_compile_time(self):
        compiled = compile_model(build_servo())
        text = compiled.summary()
        assert "compile" in text
        assert "codegen" in text
        assert compiled.model_hash is not None

    def test_pipeline_report_roundtrips_json(self):
        compiled = compile_model(build_servo())
        obj = json.loads(compiled.report.to_json())
        assert obj["model"] == "servo"
        assert obj["model_hash"] == compiled.model_hash
        names = [p["name"] for p in obj["passes"]]
        assert "codegen" in names and "transform" in names
        assert obj["total_wall_s"] > 0

    def test_report_query_helpers(self):
        report = compile_model(build_servo()).report
        assert report.ran("codegen")
        assert not report.ran("parse")
        assert report.pass_wall_s("codegen") >= 0.0
        with pytest.raises(KeyError):
            report.pass_wall_s("no-such-pass")


_CLI_MODEL = """
MODEL pipe_cli;
CLASS Osc
  STATE x := 1.0;
  STATE v := 0.0;
  PARAMETER k := 4.0;
  EQUATION Eq[1] := der(x) == v;
  EQUATION Eq[2] := der(v) == -k * x;
END Osc;
INSTANCE A INHERITS Osc;
END pipe_cli;
"""


class TestCompileCli:
    @pytest.fixture()
    def model_file(self, tmp_path):
        path = tmp_path / "model.om"
        path.write_text(_CLI_MODEL)
        return str(path)

    def test_explain_prints_pass_table(self, model_file, capsys):
        from repro.cli import main

        assert main(["compile", model_file, "--explain"]) == 0
        out = capsys.readouterr().out
        for fragment in ("compile pipeline", "model hash:", "codegen",
                         "transform", "total:"):
            assert fragment in out

    def test_report_json_written(self, model_file, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "results" / "pipeline.json"
        assert main([
            "compile", model_file, "--report", str(report_path),
        ]) == 0
        obj = json.loads(report_path.read_text())
        assert obj["model"] == "pipe_cli"
        assert any(p["name"] == "codegen" for p in obj["passes"])

    def test_cache_dir_hit_on_second_invocation(self, model_file, tmp_path,
                                                capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        assert main(["compile", model_file, "--explain",
                     "--cache-dir", cache_dir]) == 0
        assert "cache: miss/disabled" in capsys.readouterr().out
        assert main(["compile", model_file, "--explain",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache: hit" in out
        assert "skipped (artifact cache hit)" in out

    def test_dump_after(self, model_file, capsys):
        from repro.cli import main

        assert main(["compile", model_file, "--dump-after", "codegen"]) == 0
        out = capsys.readouterr().out
        assert "dump after pass codegen" in out
        assert "def RHS" in out

    def test_bad_model_reports_diagnostic_not_traceback(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        bad = tmp_path / "bad.om"
        bad.write_text("MODEL b; CLASS C STATE x := ; END C; END b;")
        assert main(["compile", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error[parse]" in err
        assert "Traceback" not in err


def _source_compile(root, source=_CLI_MODEL, **options):
    """One compile of source text on a fresh cache object over ``root``."""
    return compile_context(source=source, options=CompileOptions(
        cache=ArtifactCache(root), **options))


class TestSourceAlias:
    """A warm compile of unchanged source text reads one alias entry and
    the artifact it names: nothing is parsed."""

    FRONT = ("parse", "flatten", "typecheck", "fingerprint", "cache-lookup")

    @pytest.mark.parametrize("backend", ["python", "numpy", "c"])
    def test_warm_compile_skips_the_front_half(self, tmp_path, backend):
        if backend == "c" and find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        options = {"backend": backend, "jacobian": True}
        if backend == "c":
            options["native_cache"] = NativeCache(tmp_path / "native")
        cold = _source_compile(tmp_path, **options)
        warm = _source_compile(tmp_path, **options)
        assert not cold.cache_hit and not cold.source_hit
        assert warm.cache_hit and warm.source_hit
        assert warm.metrics["cache_hit"] and warm.metrics["source_cache_hit"]
        skipped = warm.metrics["passes_skipped"]
        assert {skipped[name] for name in self.FRONT} == {
            "source text cache hit"
        }
        for name in CACHE_SKIPPED_PASSES:
            assert skipped[name] == "artifact cache hit"
        assert warm.model is None and warm.flat is None and warm.types is None
        assert (warm.model_hash, warm.cache_key) == (
            cold.model_hash, cold.cache_key
        )
        new, old = warm.program, cold.program
        assert new.module.source == old.module.source
        if backend == "numpy":
            assert new.vector_module.source == old.vector_module.source
        if backend == "c":
            assert warm.native_source == cold.native_source
            assert warm.metrics["native_cache_hit"] is True
            assert new.backend == "c"
        y0 = old.start_vector()
        assert np.array_equal(new.rhs(0.0, y0), old.rhs(0.0, y0))
        assert np.array_equal(new.make_jac()(0.0, y0),
                              old.make_jac()(0.0, y0))

    def test_compiled_model_derives_the_front_half_on_first_access(
        self, tmp_path
    ):
        from repro.solver import solve_ivp

        cold = CompiledModel.from_context(_source_compile(tmp_path))
        warm = CompiledModel.from_context(_source_compile(tmp_path))
        assert warm.context.source_hit
        assert warm.name == cold.name == "pipe_cli"
        assert warm.model_hash == cold.model_hash
        # compiling and solving read none of model / flat / types
        program = warm.program
        solve_ivp(program.make_rhs(), (0.0, 1.0), program.start_vector())
        assert "_front" not in vars(warm)
        assert model_fingerprint(warm.flat) == cold.model_hash
        assert warm.model.name == cold.model.name
        assert warm.types.num_checked_nodes == cold.types.num_checked_nodes
        assert warm.summary().splitlines()[:4] == \
            cold.summary().splitlines()[:4]

    def test_layout_edit_misses_the_alias_but_hits_the_model_key(
        self, tmp_path
    ):
        edit = _CLI_MODEL.replace("\n", "\n\n")
        cold = _source_compile(tmp_path)
        edited = _source_compile(tmp_path, source=edit)
        assert edited.cache_hit and not edited.source_hit
        assert "parse" in edited.metrics["passes_ran"]
        assert edited.cache_key == cold.cache_key
        # the model-key hit still writes the edited text's alias
        assert "cache-store" in edited.metrics["passes_ran"]
        assert _source_compile(tmp_path, source=edit).source_hit
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert len(list((tmp_path / "sources").glob("*.json"))) == 2

    def test_extra_classes_never_use_the_alias(self, tmp_path):
        for _ in range(2):
            ctx = compile_context(
                source=_CLI_MODEL, extra_classes={},
                options=CompileOptions(cache=ArtifactCache(tmp_path)),
            )
            assert ctx.metrics["passes_skipped"]["source-alias"] == (
                "extra classes are not in the source text"
            )
            assert "parse" in ctx.metrics["passes_ran"]
        assert ctx.cache_hit and not ctx.source_hit
        assert not (tmp_path / "sources").exists()

    def test_another_package_build_misses(self, tmp_path, monkeypatch):
        cold = _source_compile(tmp_path)
        monkeypatch.setattr(cache_module, "package_digest",
                            lambda: "another build")
        warm = _source_compile(tmp_path)
        assert warm.cache_hit and not warm.source_hit
        assert warm.source_key != cold.source_key
        assert _source_compile(tmp_path).source_hit

    def test_eviction_bounds_aliases_orphaned_by_package_builds(
        self, tmp_path, monkeypatch
    ):
        """Each stand-in package build writes one more alias for the same
        text; the bounded store drops the oldest, never the live one."""
        events = RuntimeEvents()
        for build in range(5):
            monkeypatch.setattr(cache_module, "package_digest",
                                lambda build=build: f"build {build}")
            cache = ArtifactCache(tmp_path, events=events)
            assert cache.sources.max_entries == 256  # the native default
            cache.sources.max_entries = 2
            ctx = compile_context(source=_CLI_MODEL,
                                  options=CompileOptions(cache=cache))
            assert not ctx.source_hit
            aliases = list((tmp_path / "sources").glob("*.json"))
            assert len(aliases) == min(build + 1, 2)
            assert cache.sources.path(ctx.source_key) in aliases
        evicted = [e for e in events if e.kind == "cache_evicted"]
        assert len(evicted) == 3
        assert len(list(tmp_path.glob("*.json"))) == 1  # one artifact
        assert _source_compile(tmp_path).source_hit

    def test_alias_hits_refresh_their_age(self, tmp_path):
        import os

        cold = _source_compile(tmp_path)
        alias = ArtifactCache(tmp_path).sources.path(cold.source_key)
        os.utime(alias, (0, 0))
        assert _source_compile(tmp_path).source_hit
        assert alias.stat().st_mtime > 0

    def test_memory_only_cache(self):
        cache = ArtifactCache()
        options = CompileOptions(cache=cache)
        compile_context(source=_CLI_MODEL, options=options)
        ctx = compile_context(source=_CLI_MODEL, options=options)
        assert ctx.source_hit
        assert cache.sources.hits == 1 and cache.sources.misses == 1

    def test_cli_explain_and_report_on_a_hit(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "model.om"
        path.write_text(_CLI_MODEL)
        cache_dir = str(tmp_path / "cache")
        for name in ("cold", "warm"):
            assert main(["compile", str(path), "--explain", "--cache-dir",
                         cache_dir, "--report",
                         str(tmp_path / f"{name}.json")]) == 0
        out = capsys.readouterr().out
        assert "cache: hit (source text)" in out
        assert "skipped (source text cache hit)" in out
        cold, warm = (json.loads((tmp_path / f"{name}.json").read_text())
                      for name in ("cold", "warm"))
        assert warm["model"] == cold["model"] == "pipe_cli"
        assert warm["model_hash"] == cold["model_hash"]
        assert warm["cache_hit"] and warm["metrics"]["source_cache_hit"]
        ran = [p["name"] for p in warm["passes"] if p["status"] == "ran"]
        assert ran == ["source-alias", "link"]

"""The Figure-7 stages re-wrapped as registered passes.

Each compiler stage that used to be a bare function call inside
``frontend.compile_model`` is a first-class :class:`~repro.compiler.manager.Pass`
here, declaring what it consumes and produces on the
:class:`~repro.compiler.context.CompilationContext`:

=============  =========================  ==========================
pass           requires                   provides
=============  =========================  ==========================
parse          (source)                   model
flatten        (model)                    flat
typecheck      flat                       types
fingerprint    flat                       model_hash, cache_key
cache-lookup   flat                       (partition … vector_module)
scalarize      flat                       flat (scalar)
partition      flat                       partition
transform      flat                       system
verify         system                     verify_report
tasks          system                     plan
fuse_tasks     plan                       plan (fused)
codegen        system, plan               module, vector_module, native_source
link_native    system, plan               native_module (backend="c")
link           system, plan, module       program
cache-store    program                    —
=============  =========================  ==========================

``partition`` through ``codegen`` are skipped on an artifact-cache hit
(``link_native`` deliberately is not: a hit restores the C translation
unit, and the native pass re-``dlopen``-s the machine-local build
product — or rebuilds it once if this machine has never seen the model);
``parse``/``flatten`` are skipped when the caller already supplies a
model / flat model.  With ``jacobian=True`` the ``codegen`` pass derives
the analytic Jacobian once (:func:`~repro.symbolic.diff.jacobian_entries`)
and hands the same entries to every printer.  ``scalarize`` only acts on
array flat models whose array path cannot serve the compile: a flatten
fallback, no instance families, or a feature that needs scalar equations
(:func:`~repro.codegen.program.scalarize_reason`: analytic Jacobian,
shared CSE, ``backend="c"``).  It lowers back to the scalar enumeration
and the rest of the pipeline proceeds classically.

The driver functions at the bottom (:func:`compile_context`,
:func:`build_default_manager`) are what the :mod:`repro.frontend` facade
and the ``repro compile`` CLI verb call.
"""

from __future__ import annotations

from ..analysis import ArrayPartition, partition as run_partition
from ..codegen.gen_numpy import generate_numpy
from ..codegen.gen_python import generate_python
from ..codegen.program import GeneratedProgram, scalarize_reason
from ..codegen.tasks import partition_tasks, partition_tasks_array
from ..codegen.transform import ArraySystem, make_array_system, make_ode_system
from ..codegen.verify import verify_compilable
from ..model import check_types
from ..model.flatten import ArrayFlatModel, FlatModel
from ..symbolic.diff import jacobian_entries
from .cache import CompiledArtifacts, artifact_key, model_fingerprint
from .context import CompilationContext, CompileOptions
from .manager import Pass, PassManager

__all__ = [
    "build_default_manager",
    "compile_context",
    "DEFAULT_PASS_NAMES",
]


# ---------------------------------------------------------------------------
# Pass bodies
# ---------------------------------------------------------------------------


def _run_parse(ctx: CompilationContext) -> None:
    from ..language import load_model

    ctx.model = load_model(ctx.source, ctx.extra_classes)


def _skip_parse(ctx: CompilationContext) -> str | None:
    if ctx.source is None:
        return "no source text (programmatic model)"
    return None


def _run_flatten(ctx: CompilationContext) -> None:
    ctx.flat = ctx.model.flatten(mode=ctx.options.flatten_mode)


def _skip_flatten(ctx: CompilationContext) -> str | None:
    if ctx.flat is not None:
        return "caller supplied a flat model"
    return None


def _run_typecheck(ctx: CompilationContext) -> None:
    ctx.types = check_types(ctx.flat)
    ctx.metrics["type_checked_nodes"] = ctx.types.num_checked_nodes
    # Flatten-shape metrics live here (not in the flatten pass) so they
    # are recorded even when the caller supplied the flat model directly.
    flat = ctx.flat
    if isinstance(flat, ArrayFlatModel):
        ctx.metrics["flatten_mode"] = "array"
        ctx.metrics["num_array_equations"] = flat.num_array_equations
        ctx.metrics["num_symbolic_equations"] = flat.num_symbolic_equations
        ctx.metrics["slice_cardinalities"] = flat.slice_cardinalities()
        ctx.metrics["scalarize_expansion_factor"] = flat.expansion_factor
        if flat.fallback_reason:
            ctx.metrics["flatten_fallback"] = flat.fallback_reason
    else:
        ctx.metrics["flatten_mode"] = "scalar"


def _run_fingerprint(ctx: CompilationContext) -> None:
    ctx.model_hash = model_fingerprint(ctx.flat)
    ctx.cache_key = artifact_key(ctx.model_hash, ctx.options)
    ctx.metrics["model_hash"] = ctx.model_hash
    ctx.metrics["cache_key"] = ctx.cache_key


def _run_cache_lookup(ctx: CompilationContext) -> None:
    hit = ctx.options.cache.load(ctx.cache_key)
    ctx.metrics["cache_hit"] = hit is not None
    if hit is None:
        return
    ctx.cache_hit = True
    ctx.partition = hit.partition
    ctx.system = hit.system
    ctx.verify_report = hit.verify_report
    ctx.plan = hit.plan
    ctx.module = hit.module
    ctx.vector_module = hit.vector_module
    ctx.native_source = hit.native_source


def _skip_when_no_cache(ctx: CompilationContext) -> str | None:
    if ctx.options.cache is None:
        return "caching disabled"
    return None


def _skip_when_cached(ctx: CompilationContext) -> str | None:
    if ctx.cache_hit:
        return "artifact cache hit"
    return None


def _scalarize_trigger(
    flat: ArrayFlatModel, options: CompileOptions
) -> str | None:
    """Why the array path cannot serve this compile (None = it can)."""
    if flat.fallback_reason:
        return f"flatten fallback: {flat.fallback_reason}"
    if not flat.groups:
        return "no instance families"
    return scalarize_reason(
        options.jacobian, options.shared_cse, options.backend
    )


def _run_scalarize(ctx: CompilationContext) -> None:
    reason = _scalarize_trigger(ctx.flat, ctx.options)
    ctx.metrics["scalarized"] = True
    ctx.metrics["scalarize_reason"] = reason
    ctx.flat = ctx.flat.scalarize()


def _skip_scalarize(ctx: CompilationContext) -> str | None:
    if ctx.cache_hit:
        return "artifact cache hit"
    if not isinstance(ctx.flat, ArrayFlatModel):
        return "scalar flat model"
    if _scalarize_trigger(ctx.flat, ctx.options) is None:
        return "array path supported end-to-end"
    return None


def _run_analysis_partition(ctx: CompilationContext) -> None:
    ctx.partition = run_partition(ctx.flat)
    ctx.metrics["num_subsystems"] = ctx.partition.num_subsystems
    ctx.metrics["num_levels"] = ctx.partition.num_levels


def _run_transform(ctx: CompilationContext) -> None:
    flat = ctx.flat
    if (
        isinstance(flat, ArrayFlatModel)
        and flat.groups
        and not flat.fallback_reason
    ):
        ctx.system = make_array_system(flat)
    else:
        ctx.system = make_ode_system(flat)


def _run_verify(ctx: CompilationContext) -> None:
    ctx.verify_report = verify_compilable(ctx.system)


def _run_tasks(ctx: CompilationContext) -> None:
    opts = ctx.options
    if isinstance(ctx.system, ArraySystem):
        ctx.plan = partition_tasks_array(
            ctx.system,
            cost_model=opts.cost_model,
            group_threshold=opts.group_threshold,
        )
        ctx.metrics["num_array_tasks"] = sum(
            1
            for b in ctx.plan.bodies
            if any(a.count > 1 for a in b.assignments)
        )
    else:
        ctx.plan = partition_tasks(
            ctx.system,
            cost_model=opts.cost_model,
            group_threshold=opts.group_threshold,
            split_threshold=opts.split_threshold,
            shared_cse=opts.shared_cse,
        )
    ctx.metrics["num_tasks"] = ctx.plan.num_tasks


def _run_fuse_tasks(ctx: CompilationContext) -> None:
    from ..codegen.fuse import fuse_plan

    opts = ctx.options
    blocks = None
    if ctx.partition is not None:
        part = ctx.partition
        if isinstance(part, ArrayPartition) and not isinstance(
            ctx.system, ArraySystem
        ):
            # Array analysis but scalar plan (scalarize ran after
            # partition was cached, or the caller mixed artifacts):
            # expand set vertices to scalar names so block keys match.
            blocks = part.expanded_membership()
        else:
            blocks = part.membership
    ctx.plan, stats = fuse_plan(
        ctx.plan,
        cost_model=opts.cost_model,
        threshold=opts.fuse_threshold,
        blocks=blocks,
    )
    ctx.metrics["num_tasks"] = ctx.plan.num_tasks
    ctx.metrics["fuse_tasks_before"] = stats.tasks_before
    ctx.metrics["fuse_tasks_after"] = stats.tasks_after
    ctx.metrics["fuse_threshold"] = stats.threshold
    ctx.metrics["fuse_cost_histogram"] = stats.cost_histogram()


def _skip_fuse(ctx: CompilationContext) -> str | None:
    if ctx.cache_hit:
        return "artifact cache hit"
    if not ctx.options.fuse:
        return "fusion disabled (fuse=False)"
    return None


def _scc_blocks(ctx: CompilationContext) -> dict[str, int] | None:
    """State-name → SCC-block membership for the current plan's names."""
    if ctx.partition is None:
        return None
    part = ctx.partition
    if isinstance(part, ArrayPartition) and not isinstance(
        ctx.system, ArraySystem
    ):
        return part.expanded_membership()
    return part.membership


def _run_codegen(ctx: CompilationContext) -> None:
    opts = ctx.options
    # The analytic Jacobian is derived once here and printed by every
    # backend; a cache hit skips this pass, derivation included.
    jac_entries = None
    if opts.jacobian:
        jac_entries = jacobian_entries(ctx.system.rhs, ctx.system.state_names)
        ctx.metrics["jac_nonzeros"] = len(jac_entries)
    ctx.module = generate_python(
        ctx.system,
        plan=ctx.plan,
        jacobian=opts.jacobian,
        jac_entries=jac_entries,
    )
    if opts.backend == "numpy":
        ctx.vector_module = generate_numpy(
            ctx.system,
            plan=ctx.plan,
            jacobian=opts.jacobian,
            jac_entries=jac_entries,
        )
    if opts.backend == "c":
        from ..codegen.gen_c import generate_c_tasks

        ctx.native_source = generate_c_tasks(
            ctx.system,
            plan=ctx.plan,
            jacobian=opts.jacobian,
            blocks=_scc_blocks(ctx),
            jac_entries=jac_entries,
        )


def _run_link_native(ctx: CompilationContext) -> None:
    """Compile/load the native module (``backend="c"`` only).

    Runs on cache hits too — the artifact cache restores the translation
    unit, and this pass turns it back into a loaded module (a dlopen on a
    warm native cache, a single ``cc`` invocation otherwise).  A missing
    toolchain degrades to the Python backend: the failure is recorded as
    the ``native_unavailable`` metric plus a warning diagnostic, never an
    exception.
    """
    from ..codegen.gen_c import generate_c_tasks
    from ..codegen.native import NativeUnavailable, build_native_module

    if ctx.native_source is None:
        # Defensive: an artifact stored by a caller that bypassed codegen.
        ctx.native_source = generate_c_tasks(
            ctx.system,
            plan=ctx.plan,
            jacobian=ctx.options.jacobian,
            blocks=_scc_blocks(ctx),
        )
    try:
        module, info = build_native_module(
            ctx.native_source, cache=ctx.options.native_cache
        )
    except NativeUnavailable as exc:
        ctx.metrics["native_unavailable"] = exc.reason
        ctx.diagnose(
            "link_native",
            f"native backend unavailable ({exc.reason}): {exc}; "
            f"falling back to backend='python'",
            severity="warning",
        )
        return
    ctx.native_module = module
    ctx.metrics["native_cache_hit"] = info["cache_hit"]
    ctx.metrics["native_build_ms"] = info["build_ms"]
    ctx.metrics["native_ffi"] = info["ffi"]


def _skip_link_native(ctx: CompilationContext) -> str | None:
    if ctx.options.backend != "c":
        return "backend is not 'c'"
    return None


def _run_link(ctx: CompilationContext) -> None:
    ctx.program = GeneratedProgram(
        system=ctx.system,
        plan=ctx.plan,
        module=ctx.module,
        verify_report=ctx.verify_report,
        vector_module=ctx.vector_module,
        native_module=ctx.native_module,
        native_fallback_reason=ctx.metrics.get("native_unavailable"),
    )
    ctx.metrics["num_cse_serial"] = ctx.module.num_cse_serial
    ctx.metrics["num_cse_parallel"] = ctx.module.num_cse_parallel
    ctx.metrics["generated_lines"] = ctx.module.num_lines


def _run_cache_store(ctx: CompilationContext) -> None:
    ctx.options.cache.store(
        ctx.cache_key,
        CompiledArtifacts(
            partition=ctx.partition,
            system=ctx.system,
            verify_report=ctx.verify_report,
            plan=ctx.plan,
            module=ctx.module,
            vector_module=ctx.vector_module,
            native_source=ctx.native_source,
        ),
        model_hash=ctx.model_hash,
    )


def _skip_store(ctx: CompilationContext) -> str | None:
    if ctx.options.cache is None:
        return "caching disabled"
    if ctx.cache_hit:
        return "artifact cache hit (already stored)"
    if isinstance(ctx.system, ArraySystem):
        return "array-system artifacts not cacheable (flatten_mode=array)"
    return None


# ---------------------------------------------------------------------------
# Default pipeline
# ---------------------------------------------------------------------------


def build_default_manager() -> PassManager:
    """The standard Figure-7 pipeline as an ordered, inspectable object."""
    return PassManager([
        Pass("parse", _run_parse, requires=(), provides=("model",),
             description="ObjectMath-like source text → Model",
             skip_when=_skip_parse),
        Pass("flatten", _run_flatten, requires=(), provides=("flat",),
             description="OO model → flat equation system",
             skip_when=_skip_flatten),
        Pass("typecheck", _run_typecheck, requires=("flat",),
             provides=("types",),
             description="type derivation and structural checking"),
        Pass("fingerprint", _run_fingerprint, requires=("flat",),
             provides=("model_hash", "cache_key"),
             description="content hash of flat model + codegen options"),
        Pass("cache-lookup", _run_cache_lookup, requires=("cache_key",),
             provides=("partition", "system", "verify_report", "plan",
                       "module", "vector_module", "native_source"),
             description="restore artifacts on a content-hash hit",
             skip_when=_skip_when_no_cache),
        Pass("scalarize", _run_scalarize, requires=("flat",),
             provides=("flat",),
             description="lower array flat model to scalar enumeration "
                         "when the array path can't serve the options",
             skip_when=_skip_scalarize),
        Pass("partition", _run_analysis_partition, requires=("flat",),
             provides=("partition",),
             description="dependency graph → SCC partition + levels",
             skip_when=_skip_when_cached),
        Pass("transform", _run_transform, requires=("flat",),
             provides=("system",),
             description="expression transformer → explicit ODE system",
             skip_when=_skip_when_cached),
        Pass("verify", _run_verify, requires=("system",),
             provides=("verify_report",),
             description="compilable-subset verifier",
             skip_when=_skip_when_cached),
        Pass("tasks", _run_tasks, requires=("system",), provides=("plan",),
             description="task partitioning (group/split, cost model)",
             skip_when=_skip_when_cached),
        Pass("fuse_tasks", _run_fuse_tasks, requires=("plan",),
             provides=("plan",),
             description="merge small tasks until dispatch cost amortises",
             skip_when=_skip_fuse),
        Pass("codegen", _run_codegen, requires=("system", "plan"),
             provides=("module", "vector_module", "native_source"),
             description="analytic Jacobian (once) + CSE + code emission "
                         "(python / numpy / C sources)",
             skip_when=_skip_when_cached),
        Pass("link_native", _run_link_native,
             requires=("system", "plan"),
             provides=("native_module",),
             description="compile + dlopen the C translation unit "
                         "(content-addressed native cache)",
             skip_when=_skip_link_native),
        Pass("link", _run_link,
             requires=("system", "plan", "module", "verify_report"),
             provides=("program",),
             description="assemble the GeneratedProgram"),
        Pass("cache-store", _run_cache_store,
             requires=("program", "cache_key"), provides=(),
             description="persist artifacts under the content hash",
             skip_when=_skip_store),
    ])


DEFAULT_PASS_NAMES = build_default_manager().pass_names

#: passes skipped when (and only when) the artifact cache hits — the whole
#: analysis and code-generation middle of the pipeline.  ``scalarize`` also
#: skips on a hit but is deliberately not listed: it additionally skips on
#: every scalar-mode compile, so it is not a cache-hit indicator.
CACHE_SKIPPED_PASSES = (
    "partition", "transform", "verify", "tasks", "fuse_tasks", "codegen",
)


def compile_context(
    source: str | None = None,
    model=None,
    flat: FlatModel | None = None,
    options: CompileOptions | None = None,
    extra_classes=None,
    until: str | None = None,
    skip=(),
) -> CompilationContext:
    """Run the default pipeline over one input and return the context.

    Exactly one of ``source`` / ``model`` / ``flat`` should be given (a
    ``model`` alongside ``flat`` is allowed and recorded as provenance).
    """
    ctx = CompilationContext(
        options=options or CompileOptions(),
        source=source,
        extra_classes=extra_classes,
        model=model,
        flat=flat,
    )
    manager = build_default_manager()
    manager.run(ctx, until=until, skip=skip)
    return ctx

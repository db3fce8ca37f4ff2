"""Shared state of one compilation: options, artifacts, diagnostics, metrics.

The paper's Figure 7 pipeline (flatten → type derivation → dependency
analysis → transformation → task partitioning → code generation) is driven
here as a sequence of passes over one :class:`CompilationContext`.  Each
pass reads the artifacts earlier passes produced and publishes its own;
the context also carries a diagnostics sink (problems reported with model
and pass provenance instead of bare stack traces) and a metrics dict the
observability layer (``repro compile --explain``) renders.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import TYPE_CHECKING, Any

from ..codegen.costmodel import CostModel, DEFAULT_COST_MODEL

if TYPE_CHECKING:  # pragma: no cover - import cycle guards for typing only
    from ..analysis import Partition
    from ..codegen import GeneratedProgram, OdeSystem, TaskPlan, VerifyReport
    from ..codegen.gen_numpy import NumpyModule
    from ..codegen.gen_python import PythonModule
    from ..codegen.gen_c import NativeSource
    from ..codegen.native import NativeCache, NativeModule
    from ..model import FlatModel, TypeReport
    from ..model.instance import Model
    from .cache import ArtifactCache

__all__ = [
    "EXECUTABLE_BACKENDS",
    "SOURCE_ONLY_BACKENDS",
    "CompileOptions",
    "Diagnostic",
    "CompileError",
    "CompilationContext",
    "unknown_backend_message",
]

#: backends that produce an executable :class:`GeneratedProgram` module
EXECUTABLE_BACKENDS = ("python", "numpy", "c")
#: source-only emission targets (``repro codegen`` / generate_fortran)
SOURCE_ONLY_BACKENDS = ("fortran",)


def unknown_backend_message(backend: object) -> str:
    """One-line diagnostic for an unrecognised / non-executable backend.

    Always contains the phrase ``unknown backend`` and names every valid
    backend (`python`, `numpy`, `c`, `fortran`) so the error is actionable
    without reading the docs.
    """
    known = EXECUTABLE_BACKENDS + SOURCE_ONLY_BACKENDS
    hint = ""
    if isinstance(backend, str):
        close = difflib.get_close_matches(backend, known, n=1, cutoff=0.6)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
    return (
        f"unknown backend {backend!r} for compilation{hint}; valid backends: "
        f"'python', 'numpy', 'c' (executable; 'c' compiles natively via "
        f"cffi/ctypes) — 'fortran' is a source-only target emitted via "
        f"`repro codegen -t f90` or generate_fortran"
    )


@dataclass(frozen=True)
class CompileOptions:
    """Everything that parameterises one compilation.

    The fields up to ``fuse_threshold`` are the keyword arguments of
    :func:`repro.frontend.compile_model`; the infrastructure knobs after
    them (``cache``, ``native_cache``, ``dump_after``, ``collect_errors``)
    are only reachable through the driver API and the CLI, so the public
    facade signature stays frozen.
    """

    cost_model: CostModel = DEFAULT_COST_MODEL
    jacobian: bool = False
    group_threshold: float | None = None
    split_threshold: float | None = None
    shared_cse: bool = False
    backend: str = "python"
    #: "scalar" enumerates every instance at flatten time (the classic
    #: path); "array" keeps instance families symbolic — one template per
    #: class × slice — through analysis and codegen.  The ``scalarize``
    #: pass lowers to scalar equations when the flat model fell back or has
    #: no instance families, or when a requested feature needs them
    #: (analytic Jacobian, shared CSE, ``backend="c"``)
    flatten_mode: str = "scalar"
    #: run the fuse_tasks pass (merge small tasks up to fuse_threshold)
    fuse: bool = True
    #: fused-task body-cost threshold in cost-model seconds (None = auto)
    fuse_threshold: float | None = None
    #: content-addressed artifact cache (None disables caching)
    cache: "ArtifactCache | None" = None
    #: native build-product cache for ``backend="c"`` (None = the
    #: process-wide default at ``~/.cache/repro/native``); infrastructure
    #: like ``cache``, so deliberately not part of the codegen fingerprint
    native_cache: "NativeCache | None" = None
    #: pass names after which a textual context snapshot is recorded
    dump_after: tuple[str, ...] = ()
    #: collect pass failures as diagnostics and raise one CompileError
    #: instead of letting the original exception escape
    collect_errors: bool = False

    def __post_init__(self) -> None:
        if self.backend not in EXECUTABLE_BACKENDS:
            raise ValueError(unknown_backend_message(self.backend))
        if self.flatten_mode not in ("scalar", "array"):
            raise ValueError(
                f"unknown flatten_mode {self.flatten_mode!r}; "
                f"valid modes: 'scalar', 'array'"
            )

    def codegen_fingerprint(self) -> dict[str, Any]:
        """The option values that affect generated code (cache-key part)."""
        return {
            "backend": self.backend,
            "flatten_mode": self.flatten_mode,
            "jacobian": self.jacobian,
            "group_threshold": self.group_threshold,
            "split_threshold": self.split_threshold,
            "shared_cse": self.shared_cse,
            "fuse": self.fuse,
            "fuse_threshold": self.fuse_threshold,
            "cost_model": {
                f.name: getattr(self.cost_model, f.name)
                for f in dataclass_fields(self.cost_model)
            },
        }


@dataclass(frozen=True)
class Diagnostic:
    """One problem reported by a pass, with provenance."""

    severity: str  # "error" | "warning"
    pass_name: str
    message: str
    model: str = ""
    equation: str = ""

    def __str__(self) -> str:
        where = self.model or "<unknown model>"
        if self.equation:
            where += f", equation {self.equation}"
        return f"{self.severity}[{self.pass_name}] {where}: {self.message}"


class CompileError(ValueError):
    """A compilation failed; carries the collected diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = tuple(diagnostics)
        lines = [str(d) for d in self.diagnostics] or ["compilation failed"]
        super().__init__("; ".join(lines))


@dataclass
class CompilationContext:
    """Mutable state threaded through the pass pipeline.

    Artifact fields start as ``None`` and are filled in by the pass that
    *provides* them (declared in :mod:`repro.compiler.passes`); the pass
    manager checks the requires/provides contract before running a pass.
    """

    options: CompileOptions = field(default_factory=CompileOptions)
    #: ObjectMath-like source text (when compiling from text)
    source: str | None = None
    extra_classes: Any = None
    # -- artifacts, in pipeline order -------------------------------------
    model: "Model | None" = None
    flat: "FlatModel | None" = None
    types: "TypeReport | None" = None
    partition: "Partition | None" = None
    system: "OdeSystem | None" = None
    verify_report: "VerifyReport | None" = None
    plan: "TaskPlan | None" = None
    module: "PythonModule | None" = None
    vector_module: "NumpyModule | None" = None
    #: executable C translation unit (backend="c"; cached like the modules)
    native_source: "NativeSource | None" = None
    #: loaded native module, or None when the toolchain is unavailable
    #: (the ``native_unavailable`` metric then records why)
    native_module: "NativeModule | None" = None
    program: "GeneratedProgram | None" = None
    # -- caching ----------------------------------------------------------
    model_hash: str | None = None
    cache_key: str | None = None
    cache_hit: bool = False
    # -- observability -----------------------------------------------------
    diagnostics: list[Diagnostic] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    #: per-pass records appended by the pass manager (dicts; see PassManager)
    pass_metrics: list[dict[str, Any]] = field(default_factory=list)
    #: textual snapshots recorded for --dump-after
    dumps: dict[str, str] = field(default_factory=dict)

    @property
    def model_name(self) -> str:
        if self.flat is not None:
            return self.flat.name
        if self.model is not None:
            return self.model.name
        return ""

    # -- diagnostics -------------------------------------------------------

    def diagnose(
        self,
        pass_name: str,
        message: str,
        severity: str = "error",
        equation: str = "",
    ) -> Diagnostic:
        diag = Diagnostic(
            severity=severity,
            pass_name=pass_name,
            message=message,
            model=self.model_name,
            equation=equation,
        )
        self.diagnostics.append(diag)
        return diag

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    # -- observability helpers --------------------------------------------

    def expr_node_count(self) -> int:
        """Expression nodes currently live in the richest artifact.

        Used by the pass manager to report before/after node counts: the
        ODE system supersedes the flat model once the transformer has run.
        Tree sizes are memoised per interned node, so this is O(roots).
        """
        from ..symbolic.expr import count_nodes

        if self.system is not None:
            # ArraySystem carries templates once; count what is held in
            # memory (symbolic size), not the scalar-equivalent expansion.
            rhs = getattr(self.system, "rhs", None)
            if rhs is None:
                rhs = self.system.symbolic_rhs
            return sum(count_nodes(r) for r in rhs)
        if self.flat is not None:
            flat = self.flat
            return sum(
                count_nodes(eq.rhs)
                for eq in (*flat.odes, *flat.explicit_algs, *flat.implicit)
            ) + sum(count_nodes(eq.lhs) for eq in flat.implicit)
        return 0

    def snapshot(self) -> str:
        """A human-readable dump of the current artifacts (--dump-after)."""
        parts: list[str] = []
        if self.model is not None:
            parts.append(f"model: {self.model!r}")
        if self.flat is not None:
            parts.append(f"flat: {self.flat!r}")
            parts.extend(f"  {eq}" for eq in self.flat.odes[:50])
        if self.types is not None:
            parts.append(
                f"types: {self.types.num_checked_equations} equations, "
                f"{self.types.num_checked_nodes} nodes checked"
            )
        if self.partition is not None:
            parts.append(self.partition.summary())
        if self.system is not None:
            parts.append(f"system: {self.system!r}")
        if self.plan is not None:
            parts.append(self.plan.summary())
        if self.module is not None:
            parts.append(f"generated source ({self.module.num_lines} lines):")
            parts.append(self.module.source)
        return "\n".join(parts) if parts else "<empty context>"

"""Structured per-compilation report: where compile time goes.

:class:`PipelineReport` is the observability artifact of the pass-based
driver — per-pass wall time, expression-node counts before/after, CSE hit
counts, cache status, and the model content hash.  It renders as an
aligned text table (``repro compile --explain``) and serialises to JSON
(the ``benchmarks/results/BENCH_pipeline.json`` CI smoke artifact).

Not to be confused with :class:`repro.analysis.PipelineReport`, which
simulates *pipeline parallelism between subsystems* at run time; this one
reports on the compiler's own pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .context import CompilationContext

__all__ = ["PipelineReport"]


@dataclass(frozen=True)
class PipelineReport:
    """Immutable summary of one run through the pass pipeline."""

    model: str
    model_hash: str | None
    backend: str
    cache_hit: bool
    total_wall_s: float
    #: per-pass dicts: name, wall_s, nodes_before, nodes_after, status, skip_reason
    passes: tuple[dict[str, Any], ...]
    metrics: dict[str, Any] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    @classmethod
    def from_context(cls, ctx: CompilationContext) -> "PipelineReport":
        return cls(
            model=ctx.model_name,
            model_hash=ctx.model_hash,
            backend=ctx.options.backend,
            cache_hit=ctx.cache_hit,
            total_wall_s=float(ctx.metrics.get("compile_wall_s", 0.0)),
            passes=tuple(dict(m) for m in ctx.pass_metrics),
            metrics={
                k: v for k, v in ctx.metrics.items()
                if isinstance(v, (int, float, str, bool))
                or k in ("fuse_cost_histogram", "slice_cardinalities")
            },
            diagnostics=tuple(str(d) for d in ctx.diagnostics),
        )

    # -- queries ----------------------------------------------------------

    def pass_wall_s(self, name: str) -> float:
        for m in self.passes:
            if m["name"] == name:
                return float(m["wall_s"])
        raise KeyError(name)

    def ran(self, name: str) -> bool:
        return any(
            m["name"] == name and m["status"] == "ran" for m in self.passes
        )

    @property
    def skipped_passes(self) -> tuple[str, ...]:
        return tuple(
            m["name"] for m in self.passes if m["status"] == "skipped"
        )

    # -- rendering --------------------------------------------------------

    def to_obj(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "model_hash": self.model_hash,
            "backend": self.backend,
            "cache_hit": self.cache_hit,
            "total_wall_s": self.total_wall_s,
            "passes": list(self.passes),
            "metrics": dict(self.metrics),
            "diagnostics": list(self.diagnostics),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_obj(), indent=indent)

    def summary_lines(self) -> list[str]:
        """The ``--explain`` table."""
        lines = [
            f"compile pipeline for model {self.model!r} "
            f"(backend {self.backend}):",
            f"  model hash: {self.model_hash or '<not computed>'}",
            f"  cache: {'hit' if self.cache_hit else 'miss/disabled'}",
            f"  {'pass':<12} {'time':>10}  {'nodes':>13}  status",
        ]
        for m in self.passes:
            if m["status"] == "ran":
                nodes = f"{m['nodes_before']}->{m['nodes_after']}"
                status = "ran"
                timing = f"{m['wall_s'] * 1e3:8.2f}ms"
            else:
                nodes = "-"
                status = f"skipped ({m['skip_reason']})"
                timing = "-"
            lines.append(
                f"  {m['name']:<12} {timing:>10}  {nodes:>13}  {status}"
            )
        lines.append(f"  total: {self.total_wall_s * 1e3:.2f} ms")
        for key in ("num_cse_serial", "num_cse_parallel", "num_tasks",
                    "num_array_tasks", "num_subsystems", "generated_lines",
                    "jac_nonzeros"):
            if key in self.metrics:
                lines.append(f"  {key.replace('_', ' ')}: {self.metrics[key]}")
        if self.metrics.get("flatten_mode") == "array":
            lines.append(
                f"  array equations: "
                f"{self.metrics.get('num_array_equations', 0)} templates "
                f"of {self.metrics.get('num_symbolic_equations', 0)} "
                f"symbolic equations"
            )
            cards = self.metrics.get("slice_cardinalities") or {}
            if cards:
                per_slice = ", ".join(
                    f"{base}[{count}]" for base, count in sorted(cards.items())
                )
                lines.append(f"  slice cardinalities: {per_slice}")
            factor = self.metrics.get("scalarize_expansion_factor")
            if factor is not None:
                lines.append(f"  scalarize expansion factor: {factor:.2f}x")
            if "flatten_fallback" in self.metrics:
                lines.append(
                    f"  flatten fallback: {self.metrics['flatten_fallback']}"
                )
            if self.metrics.get("scalarized"):
                lines.append(
                    f"  scalarized: {self.metrics.get('scalarize_reason')}"
                )
        if "native_build_ms" in self.metrics:
            what = (
                "native cache hit"
                if self.metrics.get("native_cache_hit")
                else "compiled"
            )
            lines.append(
                f"  native build: {self.metrics['native_build_ms']:.2f} ms "
                f"({what}, ffi {self.metrics.get('native_ffi', '?')})"
            )
        if "native_unavailable" in self.metrics:
            lines.append(
                f"  native unavailable: "
                f"{self.metrics['native_unavailable']} "
                f"(fell back to backend='python')"
            )
        if "fuse_tasks_before" in self.metrics:
            lines.append(
                f"  fuse tasks: {self.metrics['fuse_tasks_before']} -> "
                f"{self.metrics['fuse_tasks_after']} "
                f"(threshold {self.metrics['fuse_threshold']:.3g}s)"
            )
            hist = self.metrics.get("fuse_cost_histogram") or ()
            bands = ", ".join(
                f"{label}: {count}" for label, count in hist if count
            )
            if bands:
                lines.append(f"  fused cost histogram: {bands}")
        for diag in self.diagnostics:
            lines.append(f"  ! {diag}")
        return lines

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())

    def compile_breakdown(self) -> str:
        """One compact line for CompiledModel.summary(): pass → time."""
        parts = []
        for m in self.passes:
            if m["status"] == "ran" and m["wall_s"] > 0:
                parts.append(f"{m['name']} {m['wall_s'] * 1e3:.1f}ms")
        joined = ", ".join(parts) if parts else "no passes ran"
        cache = " [cache hit]" if self.cache_hit else ""
        return (
            f"compile {self.total_wall_s * 1e3:.1f} ms{cache}: {joined}"
        )

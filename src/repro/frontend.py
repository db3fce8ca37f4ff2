"""One-call pipeline: model → analysis → code generation (Figure 7).

"An application problem is described as an object oriented mathematical
model.  This model can then be inspected, transformed, and used for
generation of parallel code which is combined with library routines,
compiled and run on a parallel MIMD computer."

:func:`compile_model` runs the whole compiler: flatten, type-check,
dependency analysis, expression transformation, verification, task
partitioning and Python code generation, returning everything a user
needs to simulate or benchmark the model.

Both entry points are thin facades over the pass-based driver in
:mod:`repro.compiler`: the same stages now run as registered passes with
per-pass wall-time/node-count observability (see
:meth:`CompiledModel.summary` and ``repro compile --explain``) and an
optional content-addressed artifact cache.  The facade signatures are
frozen; driver-only knobs (caching, ``--dump-after`` snapshots,
diagnostic collection) live on :class:`repro.compiler.CompileOptions`.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass, field
from typing import Mapping, Union

from .analysis import Partition
from .codegen import (
    CostModel,
    DEFAULT_COST_MODEL,
    GeneratedProgram,
    OdeSystem,
)
from .compiler import CompileOptions, PipelineReport, compile_context
from .model import FlatModel, Model, TypeReport
from .model.classes import ModelClass

__all__ = ["CompiledModel", "compile_model", "compile_source"]


@dataclass
class CompiledModel:
    """Everything the pipeline produces for one model."""

    model: Model | None
    flat: FlatModel
    types: TypeReport
    partition: Partition
    system: OdeSystem
    program: GeneratedProgram
    #: per-pass observability record from the driver (None for hand-built
    #: instances; always set by compile_model/compile_source)
    report: PipelineReport | None = field(default=None, compare=False)

    @property
    def name(self) -> str:
        return self.flat.name

    @property
    def model_hash(self) -> str | None:
        """Content hash of the flattened model (cache key ingredient).

        Recorded in checkpoint metadata so a resumed run can detect that
        it is being resumed against a different model.
        """
        return self.report.model_hash if self.report is not None else None

    def summary(self) -> str:
        lines = [
            f"model {self.name}:",
            f"  {self.flat.num_states} states, "
            f"{len(self.flat.parameters)} parameters, "
            f"{self.flat.num_equations} equations",
            f"  {self.partition.num_subsystems} SCC(s) on "
            f"{self.partition.num_levels} level(s)",
            f"  {self.program.num_tasks} task(s), "
            f"{self.program.module.num_lines} generated lines, "
            f"{self.program.module.num_cse_serial} global CSEs / "
            f"{self.program.module.num_cse_parallel} per-task CSEs",
        ]
        if self.report is not None:
            lines.append(f"  {self.report.compile_breakdown()}")
        return "\n".join(lines)


def compile_model(
    model: Union[Model, FlatModel],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    jacobian: bool = False,
    group_threshold: float | None = None,
    split_threshold: float | None = None,
    shared_cse: bool = False,
    backend: str = "python",
    flatten_mode: str = "scalar",
    fuse: bool = True,
    fuse_threshold: float | None = None,
) -> CompiledModel:
    """Run the full pipeline on a model (programmatic or already flat).

    ``backend="numpy"`` additionally compiles the vectorized NumPy module
    (see :mod:`repro.codegen.gen_numpy`), enabling batched evaluation.

    ``flatten_mode="array"`` keeps instance families symbolic — one
    template equation slice per class — from flattening through code
    generation, making compile time scale with class structure rather
    than instance count; the ``scalarize`` pass lowers back to the scalar
    enumeration automatically when the model has no instance families or
    a requested feature (analytic Jacobian, shared CSE, ``backend="c"``)
    needs scalar equations.  When ``model`` is already flat the requested
    mode has no effect on flattening itself.

    ``fuse=False`` disables the ``fuse_tasks`` coarsening pass (A/B
    debugging escape hatch, also reachable as ``repro compile --no-fuse``);
    ``fuse_threshold`` overrides the automatic dispatch-amortising
    body-cost threshold (cost-model seconds per fused task).
    """
    options = CompileOptions(
        cost_model=cost_model,
        jacobian=jacobian,
        group_threshold=group_threshold,
        split_threshold=split_threshold,
        shared_cse=shared_cse,
        backend=backend,
        flatten_mode=flatten_mode,
        fuse=fuse,
        fuse_threshold=fuse_threshold,
    )
    if isinstance(model, FlatModel):
        ctx = compile_context(flat=model, options=options)
    else:
        ctx = compile_context(model=model, options=options)
    return CompiledModel(
        model=ctx.model,
        flat=ctx.flat,
        types=ctx.types,
        partition=ctx.partition,
        system=ctx.system,
        program=ctx.program,
        report=PipelineReport.from_context(ctx),
    )


#: keyword arguments compile_source may forward to compile_model
_COMPILE_KWARGS = tuple(
    name for name in inspect.signature(compile_model).parameters
    if name != "model"
)


def compile_source(
    source: str,
    extra_classes: Mapping[str, ModelClass] | None = None,
    **kwargs,
) -> CompiledModel:
    """Parse ObjectMath-like source text and run the full pipeline."""
    for key in kwargs:
        if key not in _COMPILE_KWARGS:
            close = difflib.get_close_matches(key, _COMPILE_KWARGS, n=1,
                                              cutoff=0.6)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise TypeError(
                f"compile_source() got an unexpected keyword argument "
                f"{key!r}{hint} (valid options: {', '.join(_COMPILE_KWARGS)})"
            )
    options = CompileOptions(**kwargs)
    ctx = compile_context(
        source=source, options=options, extra_classes=extra_classes
    )
    return CompiledModel(
        model=ctx.model,
        flat=ctx.flat,
        types=ctx.types,
        partition=ctx.partition,
        system=ctx.system,
        program=ctx.program,
        report=PipelineReport.from_context(ctx),
    )

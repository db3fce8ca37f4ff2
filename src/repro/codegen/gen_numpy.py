"""NumPy back end: the batched dialect of the module emitter.

Where :mod:`repro.codegen.gen_python` emits scalar code (one ``math`` call
per elementary function, one float per state), this back end emits the
data-parallel variant the paper's Fortran 90 target hints at: every state
becomes a *column* of a stacked state array ``Y`` of shape ``(batch, n)``,
elementary functions lower to NumPy ufuncs, conditionals (the bearing
contact / no-contact logic) lower to ``where``/boolean masks, and the
global CSE temporaries become whole array intermediates.  One generated
call then advances an arbitrary number of independent trajectories —
different initial conditions and (optionally) different parameter sets —
at ufunc speed.

The module is printed by the same emitter as the scalar one
(:func:`~repro.codegen.gen_python.emit_module`), with the same CSE
structure, task plan and slot layout; the :data:`NUMPY` dialect indexes
the trailing axis, renames the entry points and lowers the two family
constructs to whole-axis operations:

* ``RHS_V(t, Y, p, out)`` — batched serial RHS with global CSE.  ``Y`` and
  ``out`` have shape ``(batch, n)`` (a plain ``(n,)`` vector also works:
  all indexing is ``[..., i]``), ``t`` is a scalar or ``(batch,)`` array,
  and ``p`` is a shared ``(m,)`` vector or per-trajectory ``(batch, m)``,
* ``TASKS_V`` — batched per-task functions ``task_v_k(t, Y, p, res)`` with
  per-task CSE, writing into ``res`` of shape ``(batch, n + partials)``,
* ``JAC_V(t, Y, p, jac)`` — optional batched analytic Jacobian writing the
  structurally nonzero entries of ``jac`` of shape ``(batch, n, n)``,
* ``START()`` / ``PARAMS()`` — identical to the scalar module.

An instance family's member axis becomes a strided column slice, so its
template prints once as one ufunc statement over all members, and a family
sum becomes ``.sum(axis=-1)`` over that slice.

``where`` evaluates both branches, so generated bodies run under
``errstate(all='ignore')``: lanes on the untaken side of a conditional may
produce transient NaN/inf that the mask then discards — the selected
values are bit-identical to the scalar backend's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..symbolic.builders import FUNCTIONS
from .gen_python import (
    Dialect,
    JacEntries,
    _Emitter,
    _free_names,
    _Reduction,
    _Slice,
    emit_module,
)
from .tasks import TaskPlan
from .transform import ArraySystem, OdeSystem

__all__ = ["NUMPY", "NumpyModule", "generate_numpy", "load_numpy_module"]


@dataclass
class NumpyModule:
    """Generated vectorized Python/NumPy source plus its compiled namespace."""

    source: str
    namespace: dict
    num_states: int
    num_partials: int
    num_cse_serial: int
    num_cse_parallel: int

    @property
    def rhs_v(self) -> Callable:
        return self.namespace["RHS_V"]

    @property
    def tasks_v(self) -> list[Callable]:
        return self.namespace["TASKS_V"]

    @property
    def jac_v(self) -> Callable | None:
        return self.namespace.get("JAC_V")

    @property
    def start(self) -> Callable:
        return self.namespace["START"]

    @property
    def params(self) -> Callable:
        return self.namespace["PARAMS"]

    @property
    def num_lines(self) -> int:
        return self.source.count("\n") + 1


def _ufunc_names() -> dict[str, object]:
    """The NumPy callables the generated code references by bare name."""
    ns: dict[str, object] = {}
    for spec in FUNCTIONS.values():
        name = spec.numpy_name or spec.name
        ns[name] = getattr(np, name)
    ns["where"] = np.where
    ns["errstate"] = np.errstate
    return ns


def _strided(base: int, count: int, stride: int, j: int) -> str:
    """Slice of offset ``j`` in every member: shape ``(..., count)``."""
    return f"{base + j}:{base + count * stride}:{stride}"


def _renamer(em: _Emitter, s: _Slice, member_tag: str) -> Callable[[str], str]:
    """Identifiers inside a member-axis statement: member slots keyed
    ``name + member_tag``, the slice's temporaries plain, everything else
    keyed ``name + "@c"`` (its keep-dim binding)."""
    local = {sym.name for sym, _ in s.temps}

    def rename(nm: str) -> str:
        if nm in s.member:
            return em.names(nm + member_tag)
        return em.names(nm if nm in local else nm + "@c")

    return rename


def _bind_members(em: _Emitter, s: _Slice, rename: Callable) -> list[str]:
    """Member slots bind to strided slices of shape ``(..., count)``, one
    column per member; every other name binds keep-dim (``Y[..., i:i+1]``
    / ``_col(t)``) so it broadcasts along the member axis."""
    fam, indent = s.fam, em.d.indent
    lines = []
    for nm in sorted(s.used):
        if nm in s.state_j:
            view = "Y[..., " + _strided(
                fam.state_base, fam.count, fam.state_stride, s.state_j[nm]
            ) + "]"
        elif nm in s.param_j:
            view = "p[..., " + _strided(
                fam.param_base, fam.count, fam.param_stride, s.param_j[nm]
            ) + "]"
        elif nm == em.system.free_var:
            view = "_col(t)"
        elif nm in em.state_index:
            i = em.state_index[nm]
            view = f"Y[..., {i}:{i + 1}]"
        elif nm in em.param_index:
            i = em.param_index[nm]
            view = f"p[..., {i}:{i + 1}]"
        else:
            raise ValueError(f"cannot bind symbol {nm!r} in generated array code")
        lines.append(f"{indent}{rename(nm)} = {view}")
    return lines


def _slice_family(
    em: _Emitter, s: _Slice, js: Sequence[int], out: str
) -> tuple[list[str], set[str]]:
    """The template evaluates for every member in one ufunc statement per
    state suffix; the section binds everything it reads itself."""
    fam, indent = s.fam, em.d.indent
    rename = _renamer(em, s, "")
    lines = _bind_members(em, s, rename)
    for sym, definition in s.temps:
        lines.append(
            f"{indent}{em.names(sym.name)} = {em.code(definition, rename)}"
        )
    for j, expr in zip(js, s.exprs):
        cols = _strided(fam.state_base, fam.count, fam.state_stride, j)
        lines.append(f"{indent}{out}[..., {cols}] = {em.code(expr, rename)}")
    return lines, set()


def _sum_reduce(
    em: _Emitter, reductions: Sequence[_Reduction]
) -> tuple[list[str], set[str]]:
    """Each sum body evaluates over the member axis (member slots keyed
    ``name + "@m"``) and collapses with ``.sum(axis=-1)`` back to a plain
    batch column; a folded body binds plain columns.  The section binds
    everything it reads itself."""
    indent = em.d.indent
    lines: list[str] = []
    for r in reductions:
        for sym, body in r.folded:
            lines.extend(em.bind(sorted(_free_names([body]))))
            lines.append(
                f"{indent}{em.names(sym.name)} = {r.fam.count} * "
                f"({em.code(body)})"
            )
        s = r.body
        if s is None:
            continue
        rename = _renamer(em, s, "@m")
        lines.extend(_bind_members(em, s, rename))
        for sym, definition in s.temps:
            lines.append(
                f"{indent}{em.names(sym.name)} = {em.code(definition, rename)}"
            )
        for sym, expr in zip(r.sums, s.exprs):
            lines.append(
                f"{indent}{em.names(sym.name)} = "
                f"({em.code(expr, rename)}).sum(axis=-1)"
            )
    return lines, set()


NUMPY = Dialect(
    module="gen_numpy",
    language="numpy",
    state="Y",
    rhs="RHS_V",
    task="task_v_",
    tasks="TASKS_V",
    jac="JAC_V",
    batched=True,
    family=_slice_family,
    reduce=_sum_reduce,
    reserved=("Y", "np", "_col") + tuple(_ufunc_names()),
    # lifts a per-trajectory vector (``t`` of shape ``(batch,)``) to a
    # trailing length-1 axis so it broadcasts against member-axis slices
    # of shape ``(batch, count)``; scalars pass through
    prelude=(
        "def _col(x):\n"
        "    return x[..., None] if getattr(x, 'ndim', 0) else x"
    ),
)


def generate_numpy(
    system: OdeSystem | ArraySystem,
    plan: TaskPlan | None = None,
    jacobian: bool = False,
    cse_min_ops: int = 1,
    jac_entries: JacEntries | None = None,
) -> NumpyModule:
    """Generate and compile the vectorized NumPy RHS module for ``system``.

    Same arguments, task plan, CSE structure and slot layout as
    :func:`~repro.codegen.gen_python.generate_python`, so the two backends
    are drop-in interchangeable and numerically equivalent lane by lane.
    With ``Y`` of shape ``(batch, n)`` a family slice has shape
    ``(batch, count)``: one generated statement advances every member of
    every trajectory.
    """
    plan, source, num_serial, num_parallel = emit_module(
        NUMPY, system, plan, jacobian, cse_min_ops, jac_entries
    )
    namespace = _ufunc_names()
    exec(compile(source, f"<generated-numpy {system.name}>", "exec"), namespace)
    return NumpyModule(
        source=source,
        namespace=namespace,
        num_states=system.num_states,
        num_partials=len(plan.partial_slots),
        num_cse_serial=num_serial,
        num_cse_parallel=num_parallel,
    )


def load_numpy_module(
    source: str,
    num_states: int,
    num_partials: int,
    num_cse_serial: int = 0,
    num_cse_parallel: int = 0,
    name: str = "cached",
) -> NumpyModule:
    """Rebuild a :class:`NumpyModule` from previously generated source.

    Counterpart of :func:`repro.codegen.gen_python.load_python_module` for
    the vectorized backend: one ``exec`` against the ufunc namespace.
    """
    namespace = _ufunc_names()
    exec(compile(source, f"<cached-numpy {name}>", "exec"), namespace)
    return NumpyModule(
        source=source,
        namespace=namespace,
        num_states=num_states,
        num_partials=num_partials,
        num_cse_serial=num_cse_serial,
        num_cse_parallel=num_cse_parallel,
    )

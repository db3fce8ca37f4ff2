"""NumPy back end: generate a batched, vectorized RHS module.

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

The module contains the batched counterparts of the scalar entry points:

* ``RHS_V(t, Y, p, out)`` — batched serial RHS with global CSE.  ``Y`` and
  ``out`` have shape ``(batch, n)`` (a plain ``(n,)`` vector also works:
  all indexing is ``[..., i]``), ``t`` is a scalar or ``(batch,)`` array,
  and ``p`` is a shared ``(m,)`` vector or per-trajectory ``(batch, m)``,
* ``TASKS_V`` — batched per-task functions ``task_v_k(t, Y, p, res)`` with
  per-task CSE, writing into ``res`` of shape ``(batch, n + partials)``,
* ``JAC_V(t, Y, p, jac)`` — optional batched analytic Jacobian writing the
  structurally nonzero entries of ``jac`` of shape ``(batch, n, n)``,
* ``START()`` / ``PARAMS()`` — identical to the scalar module.

``where`` evaluates both branches, so generated bodies run under
``errstate(all='ignore')``: lanes on the untaken side of a conditional may
produce transient NaN/inf that the mask then discards — the selected
values are bit-identical to the scalar backend's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..symbolic.builders import FUNCTIONS
from ..symbolic.cse import cse, cse_grouped
from ..symbolic.expr import Expr, Sym, free_symbols
from ..symbolic.printer import code as expr_code
from .gen_python import JacEntries, NameTable, _hoist_reduces, _jac_entries
from .tasks import Assignment, TaskPlan, partition_tasks, partition_tasks_array
from .transform import ArraySystem, FamilyLayout, OdeSystem

__all__ = ["NumpyModule", "generate_numpy", "load_numpy_module"]


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


#: identifiers the NameTable must never hand out in generated numpy code
_RESERVED = ("Y", "np", "where", "errstate", "_col") + tuple(
    spec.numpy_name or spec.name for spec in FUNCTIONS.values()
)

#: source of the broadcast helper for array-mode family sections: lifts a
#: per-trajectory vector (``t`` of shape ``(batch,)``) to a trailing
#: length-1 axis so it broadcasts against member-axis slices
#: of shape ``(batch, count)``; scalars pass through.
_COL_HELPER = (
    "def _col(x):\n"
    "    return x[..., None] if getattr(x, 'ndim', 0) else x"
)


def _vector_binding_lines(
    exprs: Sequence[Expr],
    system: OdeSystem,
    names: NameTable,
    partial_index: Mapping[str, int],
    indent: str,
    local: frozenset[str] = frozenset(),
) -> list[str]:
    """Emit column bindings for every symbol the expressions reference.

    States become ``Y[..., i]`` views, parameters ``p[..., j]`` (which
    broadcasts for both shared and per-trajectory parameter stacks), and
    partial-sum inputs ``res[..., n + k]``.
    """
    used: set[str] = set()
    for e in exprs:
        used.update(s.name for s in free_symbols(e))
    used -= local
    lines = []
    state_index = {s: i for i, s in enumerate(system.state_names)}
    param_index = {s: i for i, s in enumerate(system.param_names)}
    n = len(system.state_names)
    for name in sorted(used):
        ident = names(name)
        if name == system.free_var:
            if ident != "t":
                lines.append(f"{indent}{ident} = t")
        elif name in state_index:
            lines.append(f"{indent}{ident} = Y[..., {state_index[name]}]")
        elif name in param_index:
            lines.append(f"{indent}{ident} = p[..., {param_index[name]}]")
        elif name in partial_index:
            lines.append(f"{indent}{ident} = res[..., {n + partial_index[name]}]")
        else:
            raise ValueError(f"cannot bind symbol {name!r} in generated code")
    return lines


def generate_numpy(
    system: OdeSystem,
    plan: TaskPlan | None = None,
    jacobian: bool = False,
    cse_min_ops: int = 1,
    jac_entries: JacEntries | None = None,
) -> NumpyModule:
    """Generate and compile the vectorized NumPy RHS module for ``system``.

    Mirrors :func:`~repro.codegen.gen_python.generate_python` — same CSE
    structure, same task plan, same slot layout, same ``jac_entries`` —
    so the two backends are drop-in interchangeable and numerically
    equivalent lane by lane.

    An :class:`~repro.codegen.transform.ArraySystem` takes the array path:
    each family's member axis becomes a strided column slice and the
    template prints once as one ufunc statement covering all members (see
    :func:`_generate_numpy_array`).
    """
    if isinstance(system, ArraySystem):
        return _generate_numpy_array(system, plan, jacobian, cse_min_ops)
    if plan is None:
        plan = partition_tasks(system)

    names = NameTable(reserved=_RESERVED)
    n = system.num_states
    partial_index = {slot: i for i, slot in enumerate(plan.partial_slots)}

    lines: list[str] = [
        '"""Generated by repro.codegen.gen_numpy — do not edit."""',
        "",
    ]

    # -- batched serial RHS with global CSE -----------------------------------
    serial = cse(list(system.rhs), symbol_prefix="g_cse", min_ops=cse_min_ops)
    lines.append("def RHS_V(t, Y, p, out):")
    lines.append("    with errstate(all='ignore'):")
    body_exprs = [d for _, d in serial.replacements] + list(serial.exprs)
    serial_locals = frozenset(s.name for s, _ in serial.replacements)
    lines.extend(
        _vector_binding_lines(
            body_exprs, system, names, {}, "        ", serial_locals
        )
    )
    for sym, definition in serial.replacements:
        lines.append(
            f"        {names(sym.name)} = "
            f"{expr_code(definition, 'numpy', names)}"
        )
    for i, expr in enumerate(serial.exprs):
        lines.append(f"        out[..., {i}] = {expr_code(expr, 'numpy', names)}")
    lines.append("    return out")
    lines.append("")

    # -- batched per-task functions with per-task CSE --------------------------
    groups = [[a.expr for a in body.assignments] for body in plan.bodies]
    task_cses = cse_grouped(groups, symbol_prefix="l_cse", min_ops=cse_min_ops)
    num_cse_parallel = sum(r.num_extracted for r in task_cses)

    task_names: list[str] = []
    for body, result in zip(plan.bodies, task_cses):
        fn = f"task_v_{body.task_id}"
        task_names.append(fn)
        task_table = NameTable(reserved=_RESERVED)
        lines.append(f"def {fn}(t, Y, p, res):")
        lines.append("    with errstate(all='ignore'):")
        body_exprs = [d for _, d in result.replacements] + list(result.exprs)
        task_locals = frozenset(s.name for s, _ in result.replacements)
        lines.extend(
            _vector_binding_lines(
                body_exprs, system, task_table, partial_index, "        ",
                task_locals,
            )
        )
        for sym, definition in result.replacements:
            lines.append(
                f"        {task_table(sym.name)} = "
                f"{expr_code(definition, 'numpy', task_table)}"
            )
        state_index = {s: i for i, s in enumerate(system.state_names)}
        for assignment, expr in zip(body.assignments, result.exprs):
            text = expr_code(expr, "numpy", task_table)
            if assignment.is_partial:
                slot = n + partial_index[assignment.target]
                lines.append(f"        res[..., {slot}] = {text}")
            else:
                lines.append(
                    f"        res[..., {state_index[assignment.state]}] = {text}"
                )
        lines.append("")

    lines.append(f"TASKS_V = [{', '.join(task_names)}]")
    lines.append("")

    # -- batched analytic Jacobian ---------------------------------------------
    if jacobian:
        jac_names = NameTable(reserved=_RESERVED)
        entries = _jac_entries(system, jac_entries)
        jac_cse = cse(
            [e for _, _, e in entries], symbol_prefix="j_cse",
            min_ops=cse_min_ops,
        )
        lines.append("def JAC_V(t, Y, p, jac):")
        lines.append("    with errstate(all='ignore'):")
        body_exprs = [d for _, d in jac_cse.replacements] + list(jac_cse.exprs)
        jac_locals = frozenset(s.name for s, _ in jac_cse.replacements)
        lines.extend(
            _vector_binding_lines(
                body_exprs, system, jac_names, {}, "        ", jac_locals
            )
        )
        for sym, definition in jac_cse.replacements:
            lines.append(
                f"        {jac_names(sym.name)} = "
                f"{expr_code(definition, 'numpy', jac_names)}"
            )
        for (i, j, _), expr in zip(entries, jac_cse.exprs):
            lines.append(
                f"        jac[..., {i}, {j}] = "
                f"{expr_code(expr, 'numpy', jac_names)}"
            )
        lines.append("    return jac")
        lines.append("")

    # -- start values and parameters -------------------------------------------
    lines.append("def START():")
    lines.append(f"    return {list(system.start_values)!r}")
    lines.append("")
    lines.append("def PARAMS():")
    lines.append(f"    return {list(system.param_values)!r}")
    lines.append("")
    lines.append(f"STATE_NAMES = {list(system.state_names)!r}")
    lines.append(f"PARAM_NAMES = {list(system.param_names)!r}")
    lines.append(f"NUM_PARTIALS = {len(plan.partial_slots)}")
    lines.append("")

    source = "\n".join(lines)
    namespace = _ufunc_names()
    exec(compile(source, f"<generated-numpy {system.name}>", "exec"), namespace)

    return NumpyModule(
        source=source,
        namespace=namespace,
        num_states=n,
        num_partials=len(plan.partial_slots),
        num_cse_serial=serial.num_extracted,
        num_cse_parallel=num_cse_parallel,
    )


def _family_section_v(
    fam: FamilyLayout,
    suffix_exprs: Sequence[tuple[int, Expr]],
    replacements: Sequence[tuple[Sym, Expr]],
    system: ArraySystem,
    names: NameTable,
    out_var: str,
    indent: str,
) -> list[str]:
    """One family's vectorized section: strided member-axis slices.

    The representative's state ``suffix j`` binds to
    ``Y[..., base+j : base+count*stride : stride]`` — shape ``(..., count)``,
    one column per member — so the template expression evaluates for every
    member in a single ufunc statement.  Symbols *outside* the family
    (singleton states, shared parameters, ``t``) bind keep-dim
    (``Y[..., i:i+1]`` / ``_col(t)``) so they broadcast along the member
    axis; the section is self-contained and emits its own bindings.
    """
    rep = fam.representative
    state_j = {rep + s: j for j, s in enumerate(fam.state_suffixes)}
    param_j = {rep + s: j for j, s in enumerate(fam.param_suffixes)}
    state_index = {s: i for i, s in enumerate(system.state_names)}
    param_index = {s: i for i, s in enumerate(system.param_names)}

    local = {s.name for s, _ in replacements}
    used: set[str] = set()
    for e in [d for _, d in replacements] + [e for _, e in suffix_exprs]:
        used.update(s.name for s in free_symbols(e))
    used -= local

    plain = set(state_j) | set(param_j) | local

    def rename(nm: str) -> str:
        return names(nm) if nm in plain else names(nm + "@c")

    def state_slice(j: int) -> str:
        start = fam.state_base + j
        stop = fam.state_base + fam.count * fam.state_stride
        return f"{start}:{stop}:{fam.state_stride}"

    def param_slice(j: int) -> str:
        start = fam.param_base + j
        stop = fam.param_base + fam.count * fam.param_stride
        return f"{start}:{stop}:{fam.param_stride}"

    lines: list[str] = []
    for nm in sorted(used):
        if nm in state_j:
            lines.append(
                f"{indent}{names(nm)} = Y[..., {state_slice(state_j[nm])}]"
            )
        elif nm in param_j:
            lines.append(
                f"{indent}{names(nm)} = p[..., {param_slice(param_j[nm])}]"
            )
        elif nm == system.free_var:
            lines.append(f"{indent}{rename(nm)} = _col(t)")
        elif nm in state_index:
            i = state_index[nm]
            lines.append(f"{indent}{rename(nm)} = Y[..., {i}:{i + 1}]")
        elif nm in param_index:
            i = param_index[nm]
            lines.append(f"{indent}{rename(nm)} = p[..., {i}:{i + 1}]")
        else:
            raise ValueError(
                f"cannot bind symbol {nm!r} in generated array code"
            )
    for sym, definition in replacements:
        lines.append(
            f"{indent}{names(sym.name)} = "
            f"{expr_code(definition, 'numpy', rename)}"
        )
    for j, expr in suffix_exprs:
        lines.append(
            f"{indent}{out_var}[..., {state_slice(j)}] = "
            f"{expr_code(expr, 'numpy', rename)}"
        )
    return lines


def _reduce_section_v(
    red_groups,
    system: ArraySystem,
    fam_by_base: Mapping[str, FamilyLayout],
    names: NameTable,
    cse_min_ops: int,
    indent: str,
) -> tuple[list[str], int]:
    """Strided-sum lowering of hoisted family sums (see
    :func:`~repro.codegen.gen_python._hoist_reduces`).

    Each reduction body evaluates over the member axis — representative
    references bind to strided slices of shape ``(..., count)``, keyed
    ``name + "@m"``; everything else binds keep-dim (``Y[..., i:i+1]`` /
    ``_col(t)``) so it broadcasts along that axis — and collapses with
    ``.sum(axis=-1)`` back to a plain batch column.  A body with no
    representative references folds to ``count * body`` over plain column
    bindings.  The section is self-contained and emits its own bindings;
    returns ``(lines, num_cse_extracted)``.
    """
    lines: list[str] = []
    num_cse = 0
    state_index = {s: i for i, s in enumerate(system.state_names)}
    param_index = {s: i for i, s in enumerate(system.param_names)}

    def bind_plain(nm: str) -> list[str]:
        ident = names(nm)
        if nm == system.free_var:
            return [] if ident == "t" else [f"{indent}{ident} = t"]
        if nm in state_index:
            return [f"{indent}{ident} = Y[..., {state_index[nm]}]"]
        if nm in param_index:
            return [f"{indent}{ident} = p[..., {param_index[nm]}]"]
        raise ValueError(f"cannot bind symbol {nm!r} in generated array code")

    for g, ((family, start, count), pairs) in enumerate(red_groups.items()):
        fam = fam_by_base.get(family)
        if (
            fam is None
            or fam.count != count
            or fam.representative != f"{family}{start}"
        ):
            raise ValueError(
                f"reduction over {family}[{start}..{start + count - 1}] "
                f"does not match any family layout"
            )
        rep = fam.representative
        state_j = {rep + s: j for j, s in enumerate(fam.state_suffixes)}
        param_j = {rep + s: j for j, s in enumerate(fam.param_suffixes)}
        member = set(state_j) | set(param_j)

        loop_pairs = []
        for sym, node in pairs:
            body_syms = {s.name for s in free_symbols(node.body)}
            if body_syms & member:
                loop_pairs.append((sym, node))
            else:
                for nm in sorted(body_syms):
                    lines.extend(bind_plain(nm))
                lines.append(
                    f"{indent}{names(sym.name)} = {count} * "
                    f"({expr_code(node.body, 'numpy', names)})"
                )
        if not loop_pairs:
            continue
        bc = cse(
            [node.body for _s, node in loop_pairs],
            symbol_prefix=f"r{g}_cse",
            min_ops=cse_min_ops,
        )
        num_cse += bc.num_extracted
        local = {s.name for s, _ in bc.replacements}

        def rename(nm: str, _member=member, _local=local) -> str:
            if nm in _member:
                return names(nm + "@m")
            if nm in _local:
                return names(nm)
            return names(nm + "@c")

        used: set[str] = set()
        for e in [d for _, d in bc.replacements] + list(bc.exprs):
            used.update(s.name for s in free_symbols(e))
        used -= local
        stray = [
            nm for nm in used
            if nm.partition(".")[0] == rep and nm not in member
        ]
        if stray:
            raise ValueError(
                f"family {family}: unbindable representative symbols "
                f"{stray[:5]!r} in reduction body"
            )

        def state_slice(j: int) -> str:
            lo = fam.state_base + j
            hi = fam.state_base + fam.count * fam.state_stride
            return f"{lo}:{hi}:{fam.state_stride}"

        def param_slice(j: int) -> str:
            lo = fam.param_base + j
            hi = fam.param_base + fam.count * fam.param_stride
            return f"{lo}:{hi}:{fam.param_stride}"

        for nm in sorted(used):
            if nm in state_j:
                lines.append(
                    f"{indent}{rename(nm)} = "
                    f"Y[..., {state_slice(state_j[nm])}]"
                )
            elif nm in param_j:
                lines.append(
                    f"{indent}{rename(nm)} = "
                    f"p[..., {param_slice(param_j[nm])}]"
                )
            elif nm == system.free_var:
                lines.append(f"{indent}{rename(nm)} = _col(t)")
            elif nm in state_index:
                i = state_index[nm]
                lines.append(f"{indent}{rename(nm)} = Y[..., {i}:{i + 1}]")
            elif nm in param_index:
                i = param_index[nm]
                lines.append(f"{indent}{rename(nm)} = p[..., {i}:{i + 1}]")
            else:
                raise ValueError(
                    f"cannot bind symbol {nm!r} in generated array code"
                )
        for sym, definition in bc.replacements:
            lines.append(
                f"{indent}{names(sym.name)} = "
                f"{expr_code(definition, 'numpy', rename)}"
            )
        for (sym, _node), body in zip(loop_pairs, bc.exprs):
            lines.append(
                f"{indent}{names(sym.name)} = "
                f"({expr_code(body, 'numpy', rename)}).sum(axis=-1)"
            )
    return lines, num_cse


def _generate_numpy_array(
    system: ArraySystem,
    plan: TaskPlan | None,
    jacobian: bool,
    cse_min_ops: int,
) -> NumpyModule:
    """Array-mode NumPy back end: member axis as strided column slices.

    The batch axis composes with the member axis into 2-D lanes: with ``Y``
    of shape ``(batch, n)``, each family binding has shape
    ``(batch, count)`` and one generated statement advances every member of
    every trajectory.  Generated source size is O(class structure).
    """
    if jacobian:
        raise ValueError(
            "analytic Jacobian requires scalar equations; compile with "
            "flatten_mode='scalar' (the compiler scalarizes automatically)"
        )
    if plan is None:
        plan = partition_tasks_array(system)

    n = system.num_states
    fam_by_base = {f.base: f for f in system.families}

    lines: list[str] = [
        '"""Generated by repro.codegen.gen_numpy (array mode) — do not '
        'edit."""',
        "",
        _COL_HELPER,
        "",
    ]

    # -- batched serial RHS ----------------------------------------------------
    names = NameTable(reserved=_RESERVED)
    singleton_exprs, red_groups = _hoist_reduces(
        [e for _i, e in system.singleton_rhs]
    )
    red_locals = {s.name for pairs in red_groups.values() for s, _ in pairs}
    serial = cse(singleton_exprs, symbol_prefix="g_cse", min_ops=cse_min_ops)
    serial_locals = frozenset(
        s.name for s, _ in serial.replacements
    ) | red_locals
    num_cse_serial = serial.num_extracted
    red_lines, red_cse = _reduce_section_v(
        red_groups, system, fam_by_base, names, cse_min_ops, "        "
    )
    num_cse_serial += red_cse

    lines.append("def RHS_V(t, Y, p, out):")
    lines.append("    with errstate(all='ignore'):")
    body_exprs = [d for _, d in serial.replacements] + list(serial.exprs)
    lines.extend(
        _vector_binding_lines(
            body_exprs, system, names, {}, "        ", serial_locals
        )
    )
    lines.extend(red_lines)
    for sym, definition in serial.replacements:
        lines.append(
            f"        {names(sym.name)} = "
            f"{expr_code(definition, 'numpy', names)}"
        )
    for (i, _e), expr in zip(system.singleton_rhs, serial.exprs):
        lines.append(
            f"        out[..., {i}] = {expr_code(expr, 'numpy', names)}"
        )
    for k, fam in enumerate(system.families):
        fc = cse(
            list(fam.template_rhs),
            symbol_prefix=f"f{k}_cse",
            min_ops=cse_min_ops,
        )
        num_cse_serial += fc.num_extracted
        lines.extend(
            _family_section_v(
                fam,
                list(enumerate(fc.exprs)),
                fc.replacements,
                system,
                names,
                "out",
                "        ",
            )
        )
    lines.append("    return out")
    lines.append("")

    # -- batched per-task functions --------------------------------------------
    num_cse_parallel = 0
    task_names: list[str] = []
    state_index = {s: i for i, s in enumerate(system.state_names)}

    for body in plan.bodies:
        fn = f"task_v_{body.task_id}"
        task_names.append(fn)
        tnames = NameTable(reserved=_RESERVED)

        scalar_assigns = [a for a in body.assignments if a.count == 1]
        fam_assigns: dict[str, list[Assignment]] = {}
        for a in body.assignments:
            if a.count > 1:
                fam_assigns.setdefault(a.state.partition("[")[0], []).append(a)

        scalar_exprs, t_red_groups = _hoist_reduces(
            [a.expr for a in scalar_assigns]
        )
        t_red_locals = {
            s.name for pairs in t_red_groups.values() for s, _ in pairs
        }
        scalar_cse = cse(
            scalar_exprs, symbol_prefix="l_cse", min_ops=cse_min_ops
        )
        scalar_locals = frozenset(
            s.name for s, _ in scalar_cse.replacements
        ) | t_red_locals
        t_red_lines, t_red_cse = _reduce_section_v(
            t_red_groups, system, fam_by_base, tnames, cse_min_ops,
            "        ",
        )
        num_cse_parallel += scalar_cse.num_extracted + t_red_cse

        lines.append(f"def {fn}(t, Y, p, res):")
        lines.append("    with errstate(all='ignore'):")
        body_exprs = [d for _, d in scalar_cse.replacements] + list(
            scalar_cse.exprs
        )
        lines.extend(
            _vector_binding_lines(
                body_exprs, system, tnames, {}, "        ", scalar_locals
            )
        )
        lines.extend(t_red_lines)
        for sym, definition in scalar_cse.replacements:
            lines.append(
                f"        {tnames(sym.name)} = "
                f"{expr_code(definition, 'numpy', tnames)}"
            )
        for a, expr in zip(scalar_assigns, scalar_cse.exprs):
            lines.append(
                f"        res[..., {state_index[a.state]}] = "
                f"{expr_code(expr, 'numpy', tnames)}"
            )
        for k, (base, assigns) in enumerate(fam_assigns.items()):
            fam = fam_by_base[base]
            fc = cse(
                [a.expr for a in assigns],
                symbol_prefix=f"f{k}_cse",
                min_ops=cse_min_ops,
            )
            num_cse_parallel += fc.num_extracted
            suffix_exprs = [
                (fam.state_suffixes.index(a.state[len(base) + 3:]), e)
                for a, e in zip(assigns, fc.exprs)
            ]
            lines.extend(
                _family_section_v(
                    fam, suffix_exprs, fc.replacements, system, tnames,
                    "res", "        ",
                )
            )
        lines.append("")

    lines.append(f"TASKS_V = [{', '.join(task_names)}]")
    lines.append("")

    # -- start values and parameters -------------------------------------------
    lines.append("def START():")
    lines.append(f"    return {list(system.start_values)!r}")
    lines.append("")
    lines.append("def PARAMS():")
    lines.append(f"    return {list(system.param_values)!r}")
    lines.append("")
    lines.append(f"STATE_NAMES = {list(system.state_names)!r}")
    lines.append(f"PARAM_NAMES = {list(system.param_names)!r}")
    lines.append("NUM_PARTIALS = 0")
    lines.append("")

    source = "\n".join(lines)
    namespace = _ufunc_names()
    exec(compile(source, f"<generated-numpy {system.name}>", "exec"), namespace)

    return NumpyModule(
        source=source,
        namespace=namespace,
        num_states=n,
        num_partials=0,
        num_cse_serial=num_cse_serial,
        num_cse_parallel=num_cse_parallel,
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

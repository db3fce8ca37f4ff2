"""Python back end: generate an executable RHS module.

Where the paper emits Fortran 90 / C++ and compiles with the platform
compilers, this reproduction's *executable* target is Python source
compiled with :func:`compile`/``exec`` — same pipeline shape, importable
result.  The module contains:

* ``RHS(t, y, p, out)`` — the serial right-hand side, optimised with
  *global* CSE over all equations together (the paper's serial mode),
* ``TASKS`` — a list of per-task functions ``task_k(t, y, p, res)``, each
  optimised with *per-task* CSE only ("No subexpressions are shared between
  the tasks", section 3.2); partial-sum slots live in ``res`` after the
  state-derivative slots,
* ``JAC(t, y, p, jac)`` — optional analytic Jacobian (section 3.2.1),
* ``START()`` / ``PARAMS()`` — generated start-value and parameter vectors
  (the paper generates these so users keep the model's variable names).
"""

from __future__ import annotations

import keyword
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..symbolic.cse import cse, cse_grouped
from ..symbolic.diff import jacobian_entries
from ..symbolic.expr import Expr, Reduce, Sym, free_symbols, preorder
from ..symbolic.printer import code as expr_code
from ..symbolic.subs import substitute
from .tasks import Assignment, TaskPlan, partition_tasks, partition_tasks_array
from .transform import ArraySystem, FamilyLayout, OdeSystem

__all__ = ["NameTable", "PythonModule", "generate_python", "load_python_module"]


class NameTable:
    """Maps flattened model names to unique legal identifiers."""

    _TRANSLATE = str.maketrans(
        {".": "_", "[": "_", "]": "", ":": "_", "#": "_", ",": "_",
         " ": "", "(": "_", ")": "", "@": "_"}
    )

    def __init__(self, reserved: Sequence[str] = ()) -> None:
        self._map: dict[str, str] = {}
        self._used: set[str] = set(reserved) | {"t", "y", "p", "out", "res", "jac"}

    def __call__(self, name: str) -> str:
        hit = self._map.get(name)
        if hit is not None:
            return hit
        base = name.translate(self._TRANSLATE)
        if not base or base[0].isdigit():
            base = "v_" + base
        if keyword.iskeyword(base):
            base += "_"
        candidate = base
        suffix = 1
        while candidate in self._used:
            candidate = f"{base}_{suffix}"
            suffix += 1
        self._used.add(candidate)
        self._map[name] = candidate
        return candidate


@dataclass
class PythonModule:
    """Generated Python source plus its compiled namespace."""

    source: str
    namespace: dict
    num_states: int
    num_partials: int
    num_cse_serial: int
    num_cse_parallel: int

    @property
    def rhs(self) -> Callable:
        return self.namespace["RHS"]

    @property
    def tasks(self) -> list[Callable]:
        return self.namespace["TASKS"]

    @property
    def jac(self) -> Callable | None:
        return self.namespace.get("JAC")

    @property
    def start(self) -> Callable:
        return self.namespace["START"]

    @property
    def params(self) -> Callable:
        return self.namespace["PARAMS"]

    @property
    def num_lines(self) -> int:
        return self.source.count("\n") + 1


def _sign(value: float) -> float:
    if value > 0:
        return 1.0
    if value < 0:
        return -1.0
    return 0.0


def _base_namespace() -> dict:
    ns = {name: getattr(math, name) for name in (
        "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
        "sinh", "cosh", "tanh", "exp", "log", "sqrt",
    )}
    ns["abs"] = abs
    ns["min"] = min
    ns["max"] = max
    ns["sign"] = _sign
    return ns


def _bind_names(
    used: Sequence[str],
    system: OdeSystem | ArraySystem,
    names: NameTable,
    partial_index: Mapping[str, int],
    indent: str,
) -> list[str]:
    """Emit local bindings for the given (sorted) symbol names."""
    lines = []
    state_index = {s: i for i, s in enumerate(system.state_names)}
    param_index = {s: i for i, s in enumerate(system.param_names)}
    n = len(system.state_names)
    for name in used:
        ident = names(name)
        if name == system.free_var:
            if ident != "t":
                lines.append(f"{indent}{ident} = t")
        elif name in state_index:
            lines.append(f"{indent}{ident} = y[{state_index[name]}]")
        elif name in param_index:
            lines.append(f"{indent}{ident} = p[{param_index[name]}]")
        elif name in partial_index:
            lines.append(f"{indent}{ident} = res[{n + partial_index[name]}]")
        else:
            raise ValueError(f"cannot bind symbol {name!r} in generated code")
    return lines


def _binding_lines(
    exprs: Sequence[Expr],
    system: OdeSystem | ArraySystem,
    names: NameTable,
    partial_index: Mapping[str, int],
    indent: str,
    local: frozenset[str] = frozenset(),
) -> list[str]:
    """Emit local bindings for every symbol the expressions reference,
    skipping ``local`` names (CSE temporaries defined in the body)."""
    used: set[str] = set()
    for e in exprs:
        used.update(s.name for s in free_symbols(e))
    used -= local
    return _bind_names(sorted(used), system, names, partial_index, indent)


#: analytic Jacobian entries ``(row, column, expr)`` in ``(i, j)`` order
JacEntries = Sequence[tuple[int, int, Expr]]


def _jac_entries(
    system: OdeSystem, entries: JacEntries | None = None
) -> JacEntries:
    """``entries`` when the caller derived the Jacobian already (the
    ``codegen`` pass derives it once for every backend), else one
    :func:`~repro.symbolic.diff.jacobian_entries` sweep."""
    if entries is None:
        return jacobian_entries(system.rhs, system.state_names)
    return entries


def generate_python(
    system: OdeSystem,
    plan: TaskPlan | None = None,
    jacobian: bool = False,
    cse_min_ops: int = 1,
    jac_entries: JacEntries | None = None,
) -> PythonModule:
    """Generate and compile the Python RHS module for ``system``.

    ``plan`` defaults to :func:`~repro.codegen.tasks.partition_tasks` with
    default thresholds.  ``jacobian=True`` additionally emits the analytic
    Jacobian (one statement per structurally non-zero entry — opt in for
    large systems) from ``jac_entries``, derived here when not given.

    An :class:`~repro.codegen.transform.ArraySystem` takes the array path:
    one member loop per family instead of one statement per member, so the
    generated text is sized by class structure (see
    :func:`_generate_python_array`).
    """
    if isinstance(system, ArraySystem):
        return _generate_python_array(system, plan, jacobian, cse_min_ops)
    if plan is None:
        plan = partition_tasks(system)

    names = NameTable()
    n = system.num_states
    partial_index = {slot: i for i, slot in enumerate(plan.partial_slots)}

    lines: list[str] = [
        '"""Generated by repro.codegen.gen_python — do not edit."""',
        "",
    ]

    # -- serial RHS with global CSE -------------------------------------------
    serial = cse(list(system.rhs), symbol_prefix="g_cse", min_ops=cse_min_ops)
    lines.append("def RHS(t, y, p, out):")
    body_exprs = [d for _, d in serial.replacements] + list(serial.exprs)
    serial_locals = frozenset(s.name for s, _ in serial.replacements)
    lines.extend(
        _binding_lines(body_exprs, system, names, {}, "    ", serial_locals)
    )
    for sym, definition in serial.replacements:
        lines.append(
            f"    {names(sym.name)} = "
            f"{expr_code(definition, 'python', names)}"
        )
    for i, expr in enumerate(serial.exprs):
        lines.append(f"    out[{i}] = {expr_code(expr, 'python', names)}")
    lines.append("    return out")
    lines.append("")

    # -- per-task functions with per-task CSE ----------------------------------
    groups = [[a.expr for a in body.assignments] for body in plan.bodies]
    task_cses = cse_grouped(groups, symbol_prefix="l_cse", min_ops=cse_min_ops)
    num_cse_parallel = sum(r.num_extracted for r in task_cses)

    task_names: list[str] = []
    for body, result in zip(plan.bodies, task_cses):
        fn = f"task_{body.task_id}"
        task_names.append(fn)
        task_names_table = NameTable()
        lines.append(f"def {fn}(t, y, p, res):")
        body_exprs = [d for _, d in result.replacements] + list(result.exprs)
        task_locals = frozenset(s.name for s, _ in result.replacements)
        lines.extend(
            _binding_lines(
                body_exprs, system, task_names_table, partial_index, "    ",
                task_locals,
            )
        )
        for sym, definition in result.replacements:
            lines.append(
                f"    {task_names_table(sym.name)} = "
                f"{expr_code(definition, 'python', task_names_table)}"
            )
        state_index = {s: i for i, s in enumerate(system.state_names)}
        for assignment, expr in zip(body.assignments, result.exprs):
            text = expr_code(expr, "python", task_names_table)
            if assignment.is_partial:
                slot = n + partial_index[assignment.target]
                lines.append(f"    res[{slot}] = {text}")
            else:
                lines.append(f"    res[{state_index[assignment.state]}] = {text}")
        lines.append("")

    lines.append(f"TASKS = [{', '.join(task_names)}]")
    lines.append("")

    # -- analytic Jacobian ------------------------------------------------------
    if jacobian:
        jac_names = NameTable()
        entries = _jac_entries(system, jac_entries)
        jac_cse = cse(
            [e for _, _, e in entries], symbol_prefix="j_cse", min_ops=cse_min_ops
        )
        lines.append("def JAC(t, y, p, jac):")
        body_exprs = [d for _, d in jac_cse.replacements] + list(jac_cse.exprs)
        jac_locals = frozenset(s.name for s, _ in jac_cse.replacements)
        lines.extend(
            _binding_lines(body_exprs, system, jac_names, {}, "    ", jac_locals)
        )
        for sym, definition in jac_cse.replacements:
            lines.append(
                f"    {jac_names(sym.name)} = "
                f"{expr_code(definition, 'python', jac_names)}"
            )
        # 2-D ndarray indexing: one tuple index per entry instead of the
        # chained jac[i][j], which materialises a row view per assignment.
        for (i, j, _), expr in zip(entries, jac_cse.exprs):
            lines.append(
                f"    jac[{i}, {j}] = {expr_code(expr, 'python', jac_names)}"
            )
        lines.append("    return jac")
        lines.append("")

    # -- start values and parameters --------------------------------------------
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
    namespace = _base_namespace()
    exec(compile(source, f"<generated {system.name}>", "exec"), namespace)

    return PythonModule(
        source=source,
        namespace=namespace,
        num_states=n,
        num_partials=len(plan.partial_slots),
        num_cse_serial=serial.num_extracted,
        num_cse_parallel=num_cse_parallel,
    )


def _family_section(
    fam: FamilyLayout,
    suffix_exprs: Sequence[tuple[int, Expr]],
    replacements: Sequence[tuple[Sym, Expr]],
    names: NameTable,
    out_var: str,
    indent: str = "    ",
) -> tuple[list[str], set[str]]:
    """One family's member loop: index-arithmetic bindings + slot writes.

    ``suffix_exprs`` pairs each state-suffix index ``j`` with its (CSE'd)
    template expression.  Returns ``(lines, outer_names)`` — the symbols the
    loop body references that are *not* the representative's own slice and
    must be bound by the caller before the loop (singleton states, shared
    parameters, the free variable, CSE temps excluded).
    """
    rep = fam.representative
    state_j = {rep + s: j for j, s in enumerate(fam.state_suffixes)}
    param_j = {rep + s: j for j, s in enumerate(fam.param_suffixes)}

    local = {s.name for s, _ in replacements}
    used: set[str] = set()
    for e in [d for _, d in replacements] + [e for _, e in suffix_exprs]:
        used.update(s.name for s in free_symbols(e))
    used -= local

    rep_states = sorted(n for n in used if n in state_j)
    rep_params = sorted(n for n in used if n in param_j)
    stray = [
        n for n in used
        if n.partition(".")[0] == rep and n not in state_j and n not in param_j
    ]
    if stray:
        raise ValueError(
            f"family {fam.base}: unbindable representative symbols "
            f"{stray[:5]!r} (not in state/param layout)"
        )
    outer = {n for n in used if n not in state_j and n not in param_j}

    inner = indent + "    "
    lines = [f"{indent}for _i in range({fam.count}):"]
    lines.append(f"{inner}_sb = {fam.state_base} + _i * {fam.state_stride}")
    if rep_params:
        lines.append(
            f"{inner}_pb = {fam.param_base} + _i * {fam.param_stride}"
        )
    for n in rep_states:
        lines.append(f"{inner}{names(n)} = y[_sb + {state_j[n]}]")
    for n in rep_params:
        lines.append(f"{inner}{names(n)} = p[_pb + {param_j[n]}]")
    for sym, definition in replacements:
        lines.append(
            f"{inner}{names(sym.name)} = "
            f"{expr_code(definition, 'python', names)}"
        )
    for j, expr in suffix_exprs:
        lines.append(
            f"{inner}{out_var}[_sb + {j}] = "
            f"{expr_code(expr, 'python', names)}"
        )
    return lines, outer


def _hoist_reduces(
    exprs: Sequence[Expr],
) -> tuple[list[Expr], dict[tuple[str, int, int], list[tuple[Sym, Reduce]]]]:
    """Pull every symbolic family sum out of ``exprs`` into ``_red{k}`` temps.

    The code printer has no lowering for :class:`Reduce`; instead each
    distinct reduction (hash-consing makes duplicates pointer-equal) is
    replaced by a temp symbol that the backend computes ahead of the
    statements using it — a member loop here, a strided ``.sum(axis=-1)``
    in the NumPy backend.  Returns the rewritten expressions plus
    ``{(family, start, count): [(temp, reduce), ...]}`` in first-seen
    order.
    """
    temps: dict[Expr, Sym] = {}
    groups: dict[tuple[str, int, int], list[tuple[Sym, Reduce]]] = {}
    for e in exprs:
        for node in preorder(e):
            if isinstance(node, Reduce) and node not in temps:
                sym = Sym(f"_red{len(temps)}")
                temps[node] = sym
                groups.setdefault(
                    (node.family, node.start, node.count), []
                ).append((sym, node))
    if not temps:
        return list(exprs), {}
    return [substitute(e, temps) for e in exprs], groups


def _reduce_section(
    red_groups: Mapping[tuple[str, int, int], Sequence[tuple[Sym, Reduce]]],
    fam_by_base: Mapping[str, FamilyLayout],
    names: NameTable,
    cse_min_ops: int,
    indent: str = "    ",
) -> tuple[list[str], set[str], int]:
    """Member-loop lowering of hoisted family sums.

    One loop per family accumulates all of that family's sums.
    Representative state/parameter references inside the bodies bind to
    member slices through index arithmetic, keyed ``name + "@m"`` in the
    NameTable so a literal first-member reference elsewhere in the function
    keeps its own binding.  Everything else the bodies reference is
    returned in the outer set for the caller to bind before the loop.  A
    body with no representative references folds to ``count * body`` —
    the coefficient the canonical sum of identical terms carries.

    Returns ``(lines, outer_names, num_cse_extracted)``.
    """
    lines: list[str] = []
    outer: set[str] = set()
    num_cse = 0
    inner = indent + "    "
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

        def rename(nm: str, _member=member) -> str:
            return names(nm + "@m") if nm in _member else names(nm)

        loop_pairs: list[tuple[Sym, Reduce]] = []
        for sym, node in pairs:
            body_syms = {s.name for s in free_symbols(node.body)}
            if body_syms & member:
                loop_pairs.append((sym, node))
            else:
                outer |= body_syms
                lines.append(
                    f"{indent}{names(sym.name)} = {count} * "
                    f"({expr_code(node.body, 'python', names)})"
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
        rep_states = sorted(nm for nm in used if nm in state_j)
        rep_params = sorted(nm for nm in used if nm in param_j)
        outer |= {nm for nm in used if nm not in member}

        for sym, _node in loop_pairs:
            lines.append(f"{indent}{names(sym.name)} = 0.0")
        lines.append(f"{indent}for _ri in range({count}):")
        lines.append(
            f"{inner}_rb = {fam.state_base} + _ri * {fam.state_stride}"
        )
        if rep_params:
            lines.append(
                f"{inner}_rpb = {fam.param_base} + _ri * {fam.param_stride}"
            )
        for nm in rep_states:
            lines.append(f"{inner}{rename(nm)} = y[_rb + {state_j[nm]}]")
        for nm in rep_params:
            lines.append(f"{inner}{rename(nm)} = p[_rpb + {param_j[nm]}]")
        for sym, definition in bc.replacements:
            lines.append(
                f"{inner}{names(sym.name)} = "
                f"{expr_code(definition, 'python', rename)}"
            )
        for (sym, _node), body in zip(loop_pairs, bc.exprs):
            lines.append(
                f"{inner}{names(sym.name)} += "
                f"{expr_code(body, 'python', rename)}"
            )
    return lines, outer, num_cse


def _array_suffix_index(a: Assignment, fam: FamilyLayout) -> int:
    """State-suffix index of an array assignment within its family."""
    suffix = a.state[len(fam.base) + 3:]  # strip "<base>[*]"
    return fam.state_suffixes.index(suffix)


def _generate_python_array(
    system: ArraySystem,
    plan: TaskPlan | None,
    jacobian: bool,
    cse_min_ops: int,
) -> PythonModule:
    """Array-mode Python back end: one member loop per family.

    The serial RHS and every task body iterate ``for _i in range(count)``
    with index arithmetic (``_sb = state_base + _i * stride``) binding the
    representative's identifiers to member slices — the loop body IS the
    template, printed once.  Generated source size is O(class structure).
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
        '"""Generated by repro.codegen.gen_python (array mode) — do not '
        'edit."""',
        "",
    ]

    # -- serial RHS: singleton writes, then one loop per family ----------------
    names = NameTable()
    singleton_exprs, red_groups = _hoist_reduces(
        [e for _i, e in system.singleton_rhs]
    )
    red_locals = {
        s.name for pairs in red_groups.values() for s, _ in pairs
    }
    serial = cse(singleton_exprs, symbol_prefix="g_cse", min_ops=cse_min_ops)
    serial_locals = frozenset(
        s.name for s, _ in serial.replacements
    ) | red_locals
    num_cse_serial = serial.num_extracted
    red_lines, red_outer, red_cse = _reduce_section(
        red_groups, fam_by_base, names, cse_min_ops
    )
    num_cse_serial += red_cse

    fam_sections: list[list[str]] = []
    outer_needed: set[str] = set()
    for k, fam in enumerate(system.families):
        fc = cse(
            list(fam.template_rhs),
            symbol_prefix=f"f{k}_cse",
            min_ops=cse_min_ops,
        )
        num_cse_serial += fc.num_extracted
        section, outer = _family_section(
            fam,
            list(enumerate(fc.exprs)),
            fc.replacements,
            names,
            "out",
        )
        fam_sections.append(section)
        outer_needed |= outer

    body_exprs = [d for _, d in serial.replacements] + list(serial.exprs)
    for e in body_exprs:
        outer_needed.update(s.name for s in free_symbols(e))
    outer_needed |= red_outer
    outer_needed -= serial_locals

    lines.append("def RHS(t, y, p, out):")
    lines.extend(_bind_names(sorted(outer_needed), system, names, {}, "    "))
    lines.extend(red_lines)
    for sym, definition in serial.replacements:
        lines.append(
            f"    {names(sym.name)} = "
            f"{expr_code(definition, 'python', names)}"
        )
    for (i, _e), expr in zip(system.singleton_rhs, serial.exprs):
        lines.append(f"    out[{i}] = {expr_code(expr, 'python', names)}")
    for section in fam_sections:
        lines.extend(section)
    lines.append("    return out")
    lines.append("")

    # -- per-task functions -----------------------------------------------------
    num_cse_parallel = 0
    task_names: list[str] = []
    state_index = {s: i for i, s in enumerate(system.state_names)}

    for body in plan.bodies:
        fn = f"task_{body.task_id}"
        task_names.append(fn)
        tnames = NameTable()

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
        t_red_lines, t_red_outer, t_red_cse = _reduce_section(
            t_red_groups, fam_by_base, tnames, cse_min_ops
        )
        num_cse_parallel += scalar_cse.num_extracted + t_red_cse

        sections: list[list[str]] = []
        needed: set[str] = set(t_red_outer)
        for k, (base, assigns) in enumerate(fam_assigns.items()):
            fam = fam_by_base[base]
            fc = cse(
                [a.expr for a in assigns],
                symbol_prefix=f"f{k}_cse",
                min_ops=cse_min_ops,
            )
            num_cse_parallel += fc.num_extracted
            suffix_exprs = [
                (_array_suffix_index(a, fam), e)
                for a, e in zip(assigns, fc.exprs)
            ]
            section, outer = _family_section(
                fam, suffix_exprs, fc.replacements, tnames, "res"
            )
            sections.append(section)
            needed |= outer

        body_exprs = [d for _, d in scalar_cse.replacements] + list(
            scalar_cse.exprs
        )
        for e in body_exprs:
            needed.update(s.name for s in free_symbols(e))
        needed -= scalar_locals

        lines.append(f"def {fn}(t, y, p, res):")
        lines.extend(_bind_names(sorted(needed), system, tnames, {}, "    "))
        lines.extend(t_red_lines)
        for sym, definition in scalar_cse.replacements:
            lines.append(
                f"    {tnames(sym.name)} = "
                f"{expr_code(definition, 'python', tnames)}"
            )
        for a, expr in zip(scalar_assigns, scalar_cse.exprs):
            lines.append(
                f"    res[{state_index[a.state]}] = "
                f"{expr_code(expr, 'python', tnames)}"
            )
        for section in sections:
            lines.extend(section)
        lines.append("")

    lines.append(f"TASKS = [{', '.join(task_names)}]")
    lines.append("")

    # -- start values and parameters --------------------------------------------
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
    namespace = _base_namespace()
    exec(compile(source, f"<generated {system.name}>", "exec"), namespace)

    return PythonModule(
        source=source,
        namespace=namespace,
        num_states=n,
        num_partials=0,
        num_cse_serial=num_cse_serial,
        num_cse_parallel=num_cse_parallel,
    )


def load_python_module(
    source: str,
    num_states: int,
    num_partials: int,
    num_cse_serial: int = 0,
    num_cse_parallel: int = 0,
    name: str = "cached",
) -> PythonModule:
    """Rebuild a :class:`PythonModule` from previously generated source.

    The artifact cache (:mod:`repro.compiler.cache`) persists the generated
    text; re-entry is a single ``exec`` against the stock math namespace —
    no CSE, no expression printing, no task partitioning.
    """
    namespace = _base_namespace()
    exec(compile(source, f"<cached {name}>", "exec"), namespace)
    return PythonModule(
        source=source,
        namespace=namespace,
        num_states=num_states,
        num_partials=num_partials,
        num_cse_serial=num_cse_serial,
        num_cse_parallel=num_cse_parallel,
    )

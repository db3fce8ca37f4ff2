"""Python back end, and the module emitter it shares with the NumPy one.

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

One emitter prints this layout for both executable targets, this one and
the batched :mod:`repro.codegen.gen_numpy`; a :class:`Dialect` fixes what
they print differently: the indexing (``y[i]`` or ``Y[..., i]``), the
entry names, the ``errstate`` wrapper of the batched target, and the two
lowerings that really differ.  An instance family's section becomes a
member loop here and a strided slice there; a family sum (``Reduce``)
becomes an accumulation loop here and ``.sum(axis=-1)`` there.  A scalar
:class:`~repro.codegen.transform.OdeSystem` is the case with no families:
every state is a singleton, and the partial-sum slots of split sums are
read and written like any other slot.
"""

from __future__ import annotations

import keyword
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from ..symbolic.cse import cse
from ..symbolic.diff import jacobian_entries
from ..symbolic.expr import Expr, Reduce, Sym, free_symbols
from ..symbolic.printer import code as expr_code
from ..symbolic.subs import substitute
from .tasks import TaskPlan, partition_tasks, partition_tasks_array
from .transform import ArraySystem, FamilyLayout, OdeSystem

__all__ = [
    "Dialect",
    "NameTable",
    "PythonModule",
    "emit_module",
    "generate_python",
    "load_python_module",
]


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


def _rpow(base: float, exponent: float) -> float:
    """``base ** exponent`` for an exponent that is not an integral
    constant, raising where Python's power of a negative float is a
    ``complex``: NumPy's scalar power gives ``nan`` there, and the raise
    sends a call on Python floats back to its ndarray arguments
    (:func:`repro.codegen.program.call_on_floats`)."""
    value = base**exponent
    if value.__class__ is complex:
        raise ValueError(f"complex power {base!r} ** {exponent!r}")
    return value


def _base_namespace() -> dict:
    ns = {name: getattr(math, name) for name in (
        "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
        "sinh", "cosh", "tanh", "exp", "log", "sqrt",
    )}
    ns["abs"] = abs
    ns["min"] = min
    ns["max"] = max
    ns["sign"] = _sign
    ns["_rpow"] = _rpow
    return ns


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


def _free_names(exprs: Iterable[Expr]) -> set[str]:
    used: set[str] = set()
    for e in exprs:
        used.update(s.name for s in free_symbols(e))
    return used


# ---------------------------------------------------------------------------
# Family statements shared by both dialects' lowerings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Slice:
    """Template statements over one family, CSE'd as one scope.

    ``used`` is every name the statements read besides their own
    temporaries.  A representative name in it is a member slot —
    ``state_j`` / ``param_j`` give its offset within a member — and any
    other name lives outside the family.
    """

    fam: FamilyLayout
    temps: tuple[tuple[Sym, Expr], ...]
    exprs: tuple[Expr, ...]
    used: frozenset[str]
    state_j: Mapping[str, int]
    param_j: Mapping[str, int]

    @property
    def member(self) -> set[str]:
        return self.state_j.keys() | self.param_j.keys()


def _slice(
    fam: FamilyLayout, exprs: Sequence[Expr], prefix: str, min_ops: int,
    where: str,
) -> _Slice:
    scope = cse(list(exprs), symbol_prefix=prefix, min_ops=min_ops)
    rep = fam.representative
    state_j = {rep + s: j for j, s in enumerate(fam.state_suffixes)}
    param_j = {rep + s: j for j, s in enumerate(fam.param_suffixes)}
    used = _free_names(
        [d for _, d in scope.replacements] + list(scope.exprs)
    ) - {s.name for s, _ in scope.replacements}
    stray = [
        n for n in used
        if n.partition(".")[0] == rep and n not in state_j and n not in param_j
    ]
    if stray:
        raise ValueError(
            f"family {fam.base}: unbindable representative symbols "
            f"{stray[:5]!r} {where}"
        )
    return _Slice(
        fam, scope.replacements, scope.exprs, frozenset(used), state_j,
        param_j,
    )


@dataclass(frozen=True)
class _Reduction:
    """One family's hoisted sums.

    A body with no member reference folds to ``count * body`` — the
    coefficient the canonical sum of identical terms carries.  The other
    bodies share one member pass: ``sums[k]`` accumulates ``body.exprs[k]``.
    """

    fam: FamilyLayout
    folded: tuple[tuple[Sym, Expr], ...]
    sums: tuple[Sym, ...]
    body: _Slice | None


def _hoist_reduces(
    exprs: Sequence[Expr],
) -> tuple[list[Expr], dict[tuple[str, int, int], list[tuple[Sym, Reduce]]]]:
    """Pull every symbolic family sum out of ``exprs`` into ``_red{k}`` temps.

    The code printer has no lowering for :class:`Reduce`; instead each
    distinct reduction (hash-consing makes duplicates pointer-equal) is
    replaced by a temp symbol that the dialect computes ahead of the
    statements using it.  The walk visits each distinct node once.
    Returns the rewritten expressions plus
    ``{(family, start, count): [(temp, reduce), ...]}`` in first-seen
    (preorder) order.
    """
    temps: dict[Expr, Sym] = {}
    groups: dict[tuple[str, int, int], list[tuple[Sym, Reduce]]] = {}
    seen: set[Expr] = set()
    for e in exprs:
        stack = [e]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if isinstance(node, Reduce):
                sym = Sym(f"_red{len(temps)}")
                temps[node] = sym
                groups.setdefault(
                    (node.family, node.start, node.count), []
                ).append((sym, node))
            stack.extend(reversed(node.args))
    if not temps:
        return list(exprs), {}
    return [substitute(e, temps) for e in exprs], groups


def _reductions(
    red_groups: Mapping[tuple[str, int, int], Sequence[tuple[Sym, Reduce]]],
    fam_by_base: Mapping[str, FamilyLayout],
    min_ops: int,
) -> list[_Reduction]:
    out: list[_Reduction] = []
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
        member = {rep + s for s in fam.state_suffixes + fam.param_suffixes}
        folded: list[tuple[Sym, Expr]] = []
        looped: list[tuple[Sym, Expr]] = []
        for sym, node in pairs:
            has_member = _free_names([node.body]) & member
            (looped if has_member else folded).append((sym, node.body))
        body = None
        if looped:
            body = _slice(
                fam, [b for _s, b in looped], f"r{g}_cse", min_ops,
                "in reduction body",
            )
        out.append(_Reduction(
            fam, tuple(folded), tuple(s for s, _b in looped), body
        ))
    return out


# ---------------------------------------------------------------------------
# The module emitter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dialect:
    """What the Python and NumPy module targets print differently."""

    #: generating module, named in the header line
    module: str
    #: :func:`~repro.symbolic.printer.code` language
    language: str
    #: name of the state-vector argument
    state: str
    #: entry names: serial RHS, task-function prefix, task list, Jacobian
    rhs: str
    task: str
    tasks: str
    jac: str
    #: index the trailing axis (``Y[..., i]``) and run every body under
    #: ``errstate(all='ignore')``
    batched: bool
    #: ``(emitter, slice, suffix indices, output var) -> (lines, outer)``:
    #: one family section; ``outer`` names are bound by the caller
    family: Callable
    #: ``(emitter, reductions) -> (lines, outer)``: hoisted family sums
    reduce: Callable
    #: identifiers the NameTable must never hand out
    reserved: tuple[str, ...] = ()
    #: helper source printed ahead of the entry points of array modules
    prelude: str = ""

    @property
    def indent(self) -> str:
        return "        " if self.batched else "    "

    def at(self, var: str, index: object) -> str:
        return f"{var}[..., {index}]" if self.batched else f"{var}[{index}]"


class _Emitter:
    """Prints one module — RHS, TASKS, optional JAC, START/PARAMS — in one
    dialect.  ``names`` is the NameTable of the function being printed."""

    def __init__(
        self,
        dialect: Dialect,
        system: OdeSystem | ArraySystem,
        plan: TaskPlan,
        cse_min_ops: int,
    ) -> None:
        self.d = dialect
        self.system = system
        self.plan = plan
        self.min_ops = cse_min_ops
        self.fam_by_base = {f.base: f for f in system.families}
        n = system.num_states
        self.state_index = {s: i for i, s in enumerate(system.state_names)}
        self.param_index = {s: i for i, s in enumerate(system.param_names)}
        self.slot_index = {
            slot: n + k for k, slot in enumerate(plan.partial_slots)
        }
        self.names = NameTable(reserved=dialect.reserved)
        self.lines: list[str] = []

    def code(self, expr: Expr, rename: Callable | None = None) -> str:
        return expr_code(
            expr, self.d.language, self.names if rename is None else rename
        )

    def bind(self, used: Sequence[str]) -> list[str]:
        """Bindings of the free variable, states, parameters and
        partial-sum slots among ``used`` (in the given order)."""
        d, indent = self.d, self.d.indent
        lines = []
        for name in used:
            ident = self.names(name)
            if name == self.system.free_var:
                if ident != "t":
                    lines.append(f"{indent}{ident} = t")
            elif name in self.state_index:
                at = d.at(d.state, self.state_index[name])
                lines.append(f"{indent}{ident} = {at}")
            elif name in self.param_index:
                lines.append(
                    f"{indent}{ident} = {d.at('p', self.param_index[name])}"
                )
            elif name in self.slot_index:
                lines.append(
                    f"{indent}{ident} = {d.at('res', self.slot_index[name])}"
                )
            else:
                raise ValueError(f"cannot bind symbol {name!r} in generated code")
        return lines

    def function(
        self,
        name: str,
        out: str,
        writes: Sequence[tuple[object, Expr]],
        sections: Sequence[tuple[FamilyLayout, Sequence[tuple[int, Expr]]]] = (),
        prefix: str = "g_cse",
        start: int = 0,
        returns: bool = True,
    ) -> tuple[int, int]:
        """Print ``def name(t, <state>, p, out)``.

        ``writes`` are ``(index into out, expr)`` singleton statements, CSE'd
        as one scope with temporaries numbered from ``start``; ``sections``
        are ``(family, [(state suffix index, template)])``, one CSE scope
        each.  Returns ``(temporaries of the singleton scope, all
        temporaries)``.
        """
        d, indent = self.d, self.d.indent
        self.names = NameTable(reserved=d.reserved)
        exprs, red_groups = _hoist_reduces([e for _i, e in writes])
        scope = cse(
            exprs, symbol_prefix=prefix, min_ops=self.min_ops,
            start_index=start,
        )
        reductions = _reductions(red_groups, self.fam_by_base, self.min_ops)
        red_lines, needed = d.reduce(self, reductions)
        num_cse = scope.num_extracted + sum(
            len(r.body.temps) for r in reductions if r.body is not None
        )
        section_lines: list[str] = []
        for k, (fam, targets) in enumerate(sections):
            s = _slice(
                fam, [e for _j, e in targets], f"f{k}_cse", self.min_ops,
                "(not in state/param layout)",
            )
            num_cse += len(s.temps)
            lines, outer = d.family(self, s, [j for j, _e in targets], out)
            section_lines.extend(lines)
            needed |= outer
        needed |= _free_names(
            [dfn for _, dfn in scope.replacements] + list(scope.exprs)
        )
        needed -= {s.name for s, _ in scope.replacements}
        needed -= {s.name for pairs in red_groups.values() for s, _ in pairs}

        lines = self.lines
        lines.append(f"def {name}(t, {d.state}, p, {out}):")
        if d.batched:
            lines.append("    with errstate(all='ignore'):")
        lines.extend(self.bind(sorted(needed)))
        lines.extend(red_lines)
        for sym, definition in scope.replacements:
            lines.append(
                f"{indent}{self.names(sym.name)} = {self.code(definition)}"
            )
        for (i, _e), expr in zip(writes, scope.exprs):
            lines.append(f"{indent}{d.at(out, i)} = {self.code(expr)}")
        lines.extend(section_lines)
        if returns:
            lines.append(f"    return {out}")
        lines.append("")
        return scope.num_extracted, num_cse

    def module(self, jac: JacEntries | None) -> tuple[str, int, int]:
        """The module source plus its serial and per-task CSE counts."""
        d, system, plan = self.d, self.system, self.plan
        families = system.families
        mode = " (array mode)" if families else ""
        self.lines = [
            f'"""Generated by repro.codegen.{d.module}{mode} — do not edit."""',
            "",
        ]
        if families and d.prelude:
            self.lines += [d.prelude, ""]

        # -- serial RHS with global CSE -------------------------------------
        _, num_cse_serial = self.function(
            d.rhs, "out", system.singleton_rhs,
            [(fam, list(enumerate(fam.template_rhs))) for fam in families],
        )

        # -- per-task functions with per-task CSE ----------------------------
        num_cse_parallel = 0
        next_temp = 0
        task_names: list[str] = []
        for body in plan.bodies:
            writes: list[tuple[int, Expr]] = []
            by_family: dict[str, tuple[FamilyLayout, list]] = {}
            for a in body.assignments:
                if a.is_array:
                    fam = self.fam_by_base[a.state.partition("[")[0]]
                    suffix = a.state[len(fam.base) + 3:]  # strip "<base>[*]"
                    by_family.setdefault(fam.base, (fam, []))[1].append(
                        (fam.state_suffixes.index(suffix), a.expr)
                    )
                elif a.is_partial:
                    writes.append((self.slot_index[a.target], a.expr))
                else:
                    writes.append((self.state_index[a.state], a.expr))
            fn = f"{d.task}{body.task_id}"
            task_names.append(fn)
            scope_temps, all_temps = self.function(
                fn, "res", writes, list(by_family.values()),
                prefix="l_cse", start=next_temp, returns=False,
            )
            next_temp += scope_temps
            num_cse_parallel += all_temps
        self.lines += [f"{d.tasks} = [{', '.join(task_names)}]", ""]

        # -- analytic Jacobian -------------------------------------------------
        # One tuple index per entry (``jac[i, j]``) instead of the chained
        # jac[i][j], which materialises a row view per assignment.
        if jac is not None:
            self.function(
                d.jac, "jac", [(f"{i}, {j}", e) for i, j, e in jac],
                prefix="j_cse",
            )

        # -- start values and parameters ---------------------------------------
        self.lines += [
            "def START():",
            f"    return {list(system.start_values)!r}",
            "",
            "def PARAMS():",
            f"    return {list(system.param_values)!r}",
            "",
            f"STATE_NAMES = {list(system.state_names)!r}",
            f"PARAM_NAMES = {list(system.param_names)!r}",
            f"NUM_PARTIALS = {len(plan.partial_slots)}",
            "",
        ]
        return "\n".join(self.lines), num_cse_serial, num_cse_parallel


def emit_module(
    dialect: Dialect,
    system: OdeSystem | ArraySystem,
    plan: TaskPlan | None = None,
    jacobian: bool = False,
    cse_min_ops: int = 1,
    jac_entries: JacEntries | None = None,
) -> tuple[TaskPlan, str, int, int]:
    """Print the module for ``system`` in ``dialect``.

    ``plan`` defaults to the scalar or array partitioner with default
    thresholds.  Returns ``(plan, source, num_cse_serial,
    num_cse_parallel)``.
    """
    if isinstance(system, ArraySystem):
        if jacobian:
            raise ValueError(
                "analytic Jacobian requires scalar equations; compile with "
                "flatten_mode='scalar' (the compiler scalarizes automatically)"
            )
        if plan is None:
            plan = partition_tasks_array(system)
    elif plan is None:
        plan = partition_tasks(system)
    jac = _jac_entries(system, jac_entries) if jacobian else None
    source, num_serial, num_parallel = _Emitter(
        dialect, system, plan, cse_min_ops
    ).module(jac)
    return plan, source, num_serial, num_parallel


# ---------------------------------------------------------------------------
# The Python dialect: member loops
# ---------------------------------------------------------------------------


def _loop_family(
    em: _Emitter, s: _Slice, js: Sequence[int], out: str
) -> tuple[list[str], set[str]]:
    """One member loop: index arithmetic (``_sb = state_base + _i *
    stride``) binds the representative's identifiers to each member's
    slots, so the loop body IS the template, printed once."""
    fam, indent = s.fam, em.d.indent
    inner = indent + "    "
    rep_states = sorted(n for n in s.used if n in s.state_j)
    rep_params = sorted(n for n in s.used if n in s.param_j)
    lines = [
        f"{indent}for _i in range({fam.count}):",
        f"{inner}_sb = {fam.state_base} + _i * {fam.state_stride}",
    ]
    if rep_params:
        lines.append(f"{inner}_pb = {fam.param_base} + _i * {fam.param_stride}")
    for n in rep_states:
        lines.append(f"{inner}{em.names(n)} = y[_sb + {s.state_j[n]}]")
    for n in rep_params:
        lines.append(f"{inner}{em.names(n)} = p[_pb + {s.param_j[n]}]")
    for sym, definition in s.temps:
        lines.append(f"{inner}{em.names(sym.name)} = {em.code(definition)}")
    for j, expr in zip(js, s.exprs):
        lines.append(f"{inner}{out}[_sb + {j}] = {em.code(expr)}")
    return lines, set(s.used - s.member)


def _loop_reduce(
    em: _Emitter, reductions: Sequence[_Reduction]
) -> tuple[list[str], set[str]]:
    """One accumulation loop per family over all of that family's sums.

    Member references inside the bodies are keyed ``name + "@m"`` in the
    NameTable, so a literal first-member reference elsewhere in the
    function keeps its own binding.
    """
    indent = em.d.indent
    inner = indent + "    "
    lines: list[str] = []
    outer: set[str] = set()
    for r in reductions:
        fam = r.fam
        for sym, body in r.folded:
            outer |= _free_names([body])
            lines.append(
                f"{indent}{em.names(sym.name)} = {fam.count} * "
                f"({em.code(body)})"
            )
        s = r.body
        if s is None:
            continue

        def rename(nm: str, _member=s.member) -> str:
            return em.names(nm + "@m") if nm in _member else em.names(nm)

        rep_states = sorted(nm for nm in s.used if nm in s.state_j)
        rep_params = sorted(nm for nm in s.used if nm in s.param_j)
        outer |= s.used - s.member
        for sym in r.sums:
            lines.append(f"{indent}{em.names(sym.name)} = 0.0")
        lines.append(f"{indent}for _ri in range({fam.count}):")
        lines.append(f"{inner}_rb = {fam.state_base} + _ri * {fam.state_stride}")
        if rep_params:
            lines.append(
                f"{inner}_rpb = {fam.param_base} + _ri * {fam.param_stride}"
            )
        for nm in rep_states:
            lines.append(f"{inner}{rename(nm)} = y[_rb + {s.state_j[nm]}]")
        for nm in rep_params:
            lines.append(f"{inner}{rename(nm)} = p[_rpb + {s.param_j[nm]}]")
        for sym, definition in s.temps:
            lines.append(
                f"{inner}{em.names(sym.name)} = {em.code(definition, rename)}"
            )
        for sym, expr in zip(r.sums, s.exprs):
            lines.append(
                f"{inner}{em.names(sym.name)} += {em.code(expr, rename)}"
            )
    return lines, outer


PYTHON = Dialect(
    module="gen_python",
    language="python",
    state="y",
    rhs="RHS",
    task="task_",
    tasks="TASKS",
    jac="JAC",
    batched=False,
    family=_loop_family,
    reduce=_loop_reduce,
    reserved=tuple(_base_namespace()),
)


def generate_python(
    system: OdeSystem | ArraySystem,
    plan: TaskPlan | None = None,
    jacobian: bool = False,
    cse_min_ops: int = 1,
    jac_entries: JacEntries | None = None,
) -> PythonModule:
    """Generate and compile the Python RHS module for ``system``.

    ``plan`` defaults to :func:`~repro.codegen.tasks.partition_tasks` (or
    :func:`~repro.codegen.tasks.partition_tasks_array`) with default
    thresholds.  ``jacobian=True`` additionally emits the analytic
    Jacobian (one statement per structurally non-zero entry — opt in for
    large systems) from ``jac_entries``, derived here when not given; an
    :class:`~repro.codegen.transform.ArraySystem` refuses it.  Each
    family of an array system prints as one member loop, so the generated
    text is sized by class structure.
    """
    plan, source, num_serial, num_parallel = emit_module(
        PYTHON, system, plan, jacobian, cse_min_ops, jac_entries
    )
    namespace = _base_namespace()
    exec(compile(source, f"<generated {system.name}>", "exec"), namespace)
    return PythonModule(
        source=source,
        namespace=namespace,
        num_states=system.num_states,
        num_partials=len(plan.partial_slots),
        num_cse_serial=num_serial,
        num_cse_parallel=num_parallel,
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

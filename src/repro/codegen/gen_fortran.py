"""Fortran 90 back end.

Reproduces the artifact shape of Figure 11: one ``subroutine RHS`` whose
body is a ``select case (workerid)`` with the task bodies of each worker
inlined ("the generated code for all right-hand sides have been put into
the single subroutine RHS.  The derivatives have been replaced by the
variables xdot and ydot").

Two modes are generated:

* **parallel** — per-task CSE, one ``case`` per worker (given a schedule)
  or per task; no subexpression crosses a case,
* **serial** — a straight-line subroutine with global CSE over all
  equations, the mode the paper contrasts in section 3.3 (10 913 lines /
  4 642 CSEs parallel vs 4 301 lines / 1 840 CSEs serial for the 2D
  bearing).

The emitted source is valid-looking Fortran 90 meant for inspection and
statistics, not compiled here (no Fortran toolchain in this environment);
the executable path is :mod:`repro.codegen.gen_python`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..schedule.lpt import Schedule
from ..symbolic.cse import cse, cse_grouped
from ..symbolic.expr import Expr, free_symbols
from ..symbolic.printer import code as expr_code
from .gen_python import NameTable, _jac_entries
from .tasks import TaskPlan, partition_tasks
from .transform import OdeSystem

__all__ = ["FortranSource", "generate_fortran"]


@dataclass(frozen=True)
class FortranSource:
    """Generated Fortran 90 source with the statistics the paper reports."""

    source: str
    num_lines: int
    num_declaration_lines: int
    num_statement_lines: int
    num_cse: int
    mode: str

    def __str__(self) -> str:
        return (
            f"Fortran90[{self.mode}]: {self.num_lines} lines "
            f"({self.num_declaration_lines} declarations), "
            f"{self.num_cse} common subexpressions"
        )


def _emit_loads(
    exprs: Sequence[Expr],
    replacements: Sequence[tuple],
    system: OdeSystem,
    partial_index: Mapping[str, int],
    names: NameTable,
    decls: list[str],
    indent: str,
) -> list[str]:
    """Emit loads of every symbol the body reads, then its CSE temporaries."""
    n = len(system.state_names)
    state_index = {s: i for i, s in enumerate(system.state_names)}
    param_index = {s: i for i, s in enumerate(system.param_names)}
    local = {sym.name for sym, _ in replacements}

    used: set[str] = set()
    for e in exprs:
        used.update(s.name for s in free_symbols(e))
    for _, d in replacements:
        used.update(s.name for s in free_symbols(d))
    used -= local

    lines: list[str] = []
    for name in sorted(used):
        ident = names(name)
        if name == system.free_var:
            lines.append(f"{indent}{ident} = t")
        elif name in state_index:
            lines.append(f"{indent}{ident} = yin({state_index[name] + 1})")
        elif name in param_index:
            lines.append(f"{indent}{ident} = p({param_index[name] + 1})")
        elif name in partial_index:
            lines.append(f"{indent}{ident} = yout({n + partial_index[name] + 1})")
        else:
            raise ValueError(f"cannot bind symbol {name!r} in Fortran codegen")
        decls.append(ident)

    for sym, definition in replacements:
        ident = names(sym.name)
        decls.append(ident)
        lines.append(
            f"{indent}{ident} = {expr_code(definition, 'fortran', names)}"
        )
    return lines


def _emit_case_body(
    exprs_with_targets: Sequence[tuple[str, Expr]],
    replacements: Sequence[tuple],
    system: OdeSystem,
    partial_index: Mapping[str, int],
    names: NameTable,
    decls: list[str],
    indent: str,
) -> list[str]:
    """Emit loads, CSE temporaries and stores for one case body."""
    n = len(system.state_names)
    state_index = {s: i for i, s in enumerate(system.state_names)}
    lines = _emit_loads(
        [e for _, e in exprs_with_targets], replacements, system,
        partial_index, names, decls, indent,
    )
    for target, expr in exprs_with_targets:
        text = expr_code(expr, "fortran", names)
        if not target.startswith("der:"):
            slot = n + partial_index[target] + 1
            lines.append(f"{indent}yout({slot}) = {text}")
        else:
            state = target.split(":", 1)[1]
            dot = names(f"{state}dot")
            decls.append(dot)
            lines.append(f"{indent}{dot} = {text}")
            lines.append(f"{indent}yout({state_index[state] + 1}) = {dot}")
    return lines


def generate_fortran(
    system: OdeSystem,
    plan: TaskPlan | None = None,
    schedule: Schedule | None = None,
    mode: str = "parallel",
    cse_min_ops: int = 1,
    jacobian: bool = False,
) -> FortranSource:
    """Generate Fortran 90 source for ``system``.

    ``mode="parallel"`` emits the ``select case (workerid)`` SPMD form; with
    a ``schedule`` each case holds one worker's tasks, otherwise one case
    per task.  ``mode="serial"`` emits the straight-line global-CSE form.
    ``jacobian=True`` additionally emits the analytic ``JAC`` subroutine
    (section 3.2.1: "an extra function that computes the Jacobian,
    instead of having the solver doing it internally").
    """
    if mode not in ("parallel", "serial"):
        raise ValueError(f"unknown mode {mode!r}")
    if plan is None:
        plan = partition_tasks(system)

    n = system.num_states
    n_out = n + len(plan.partial_slots)
    partial_index = {slot: i for i, slot in enumerate(plan.partial_slots)}
    names = NameTable(reserved=["workerid", "yin", "yout", "p", "t", "dp"])

    header = [
        f"! Generated by repro.codegen.gen_fortran for model {system.name}",
        f"! {n} state variables, {len(system.param_names)} parameters",
        "",
    ]
    decls: list[str] = []
    body: list[str] = []
    num_cse = 0

    if mode == "serial":
        result = cse(list(system.rhs), symbol_prefix="cse", min_ops=cse_min_ops)
        num_cse = result.num_extracted
        targets = [
            (f"der:{s}", e) for s, e in zip(system.state_names, result.exprs)
        ]
        body.extend(
            _emit_case_body(
                targets, result.replacements, system, partial_index, names,
                decls, "  ",
            )
        )
        sig = "subroutine RHS(t, yin, p, yout)"
        dims = [
            "  integer, parameter :: dp = kind(1.0d0)",
            "  real(dp), intent(in) :: t",
            f"  real(dp), intent(in) :: yin({n})",
            f"  real(dp), intent(in) :: p({max(len(system.param_names), 1)})",
            f"  real(dp), intent(out) :: yout({n})",
        ]
    else:
        groups = [[a.expr for a in b.assignments] for b in plan.bodies]
        results = cse_grouped(groups, symbol_prefix="cse", min_ops=cse_min_ops)
        num_cse = sum(r.num_extracted for r in results)

        if schedule is not None:
            case_tasks: list[list[int]] = [
                list(schedule.tasks_of(w)) for w in range(schedule.num_workers)
            ]
        else:
            case_tasks = [[b.task_id] for b in plan.bodies]

        body.append("  select case (workerid)")
        for case_no, task_ids in enumerate(case_tasks, start=1):
            body.append(f"  case ({case_no})")
            for tid in task_ids:
                plan_body = plan.bodies[tid]
                result = results[tid]
                targets = [
                    (a.target, e)
                    for a, e in zip(plan_body.assignments, result.exprs)
                ]
                body.extend(
                    _emit_case_body(
                        targets, result.replacements, system, partial_index,
                        names, decls, "    ",
                    )
                )
        body.append("  end select")
        sig = "subroutine RHS(workerid, t, yin, p, yout)"
        dims = [
            "  integer, parameter :: dp = kind(1.0d0)",
            "  integer, intent(in) :: workerid",
            "  real(dp), intent(in) :: t",
            f"  real(dp), intent(in) :: yin({n})",
            f"  real(dp), intent(in) :: p({max(len(system.param_names), 1)})",
            f"  real(dp), intent(inout) :: yout({n_out})",
        ]

    # One declaration line per local, as the paper's generator did
    # ("10913 lines of Fortran 90 code, of which 4709 lines are variable
    # declarations", section 3.3).
    seen: set[str] = set()
    decl_lines = []
    for ident in decls:
        if ident not in seen:
            seen.add(ident)
            decl_lines.append(f"  real(dp) :: {ident}")

    lines = header + [sig] + dims + decl_lines + body + [
        "end subroutine RHS",
        "",
    ]

    # Generated start-value subroutine (section 3.2: variable names from
    # the ObjectMath model remain usable; start values read without
    # recompilation come from repro.codegen.startvalues).
    lines.append("subroutine START(y0)")
    lines.append("  integer, parameter :: dp = kind(1.0d0)")
    lines.append(f"  real(dp), intent(out) :: y0({n})")
    for i, (name, value) in enumerate(
        zip(system.state_names, system.start_values), start=1
    ):
        lines.append(f"  y0({i}) = {value!r}_dp  ! {name}")
    lines.append("end subroutine START")

    if jacobian:
        jac_names = NameTable(reserved=["t", "yin", "p", "dfdy", "dp"])
        entries = _jac_entries(system)
        jac_cse = cse(
            [e for _, _, e in entries], symbol_prefix="jcse",
            min_ops=cse_min_ops,
        )
        jac_decls: list[str] = []
        jac_body = _emit_loads(
            jac_cse.exprs, jac_cse.replacements, system, {}, jac_names,
            jac_decls, "  ",
        )
        lines.append("")
        lines.append("subroutine JAC(t, yin, p, dfdy)")
        lines.append("  integer, parameter :: dp = kind(1.0d0)")
        lines.append("  real(dp), intent(in) :: t")
        lines.append(f"  real(dp), intent(in) :: yin({n})")
        lines.append(
            f"  real(dp), intent(in) :: p({max(len(system.param_names), 1)})"
        )
        lines.append(f"  real(dp), intent(out) :: dfdy({n},{n})")
        seen_jac: set[str] = set()
        for ident in jac_decls:
            if ident not in seen_jac:
                seen_jac.add(ident)
                lines.append(f"  real(dp) :: {ident}")
        lines.append("  dfdy = 0.0_dp")
        lines.extend(jac_body)
        for (i, j, _), expr in zip(entries, jac_cse.exprs):
            lines.append(
                f"  dfdy({i + 1},{j + 1}) = "
                f"{expr_code(expr, 'fortran', jac_names)}"
            )
        lines.append("end subroutine JAC")

    source = "\n".join(lines)
    total = len(lines)
    return FortranSource(
        source=source,
        num_lines=total,
        num_declaration_lines=len(decl_lines) + len(dims),
        num_statement_lines=total - len(decl_lines) - len(dims),
        num_cse=num_cse,
        mode=mode,
    )

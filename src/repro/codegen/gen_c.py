"""C back end.

The ObjectMath code generator also emitted C++ (Figure 8/9).  This back end
produces a C translation unit with the same structure as the Fortran one:
``RHS`` as a ``switch (workerid)`` in parallel mode or straight-line code in
serial mode, plus the generated start-value function.

Two emitters live here:

* :func:`generate_c` — the inspectable textual artifact (``repro codegen
  -t c``), mirroring the Fortran back end, and
* :func:`generate_c_tasks` — a self-contained *executable* translation
  unit (:class:`NativeSource`): serial ``RHS``, one exported ``task_k``
  entry point per (possibly fused) task body, the ``run_tasks`` batch
  entry over them, the sparse SCC-block analytic Jacobian, and the
  start/parameter vectors.  The native build layer
  (:mod:`repro.codegen.native`) compiles it into a loadable shared object
  for ``backend="c"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..schedule.lpt import Schedule
from ..symbolic.cse import cse, cse_grouped
from ..symbolic.expr import Expr, free_symbols
from ..symbolic.printer import code as expr_code
from .gen_python import JacEntries, NameTable, _jac_entries
from .tasks import TaskPlan, partition_tasks
from .transform import OdeSystem

__all__ = ["CSource", "NativeSource", "generate_c", "generate_c_tasks"]


@dataclass(frozen=True)
class CSource:
    """Generated C source plus statistics."""

    source: str
    num_lines: int
    num_cse: int
    mode: str

    def __str__(self) -> str:
        return f"C[{self.mode}]: {self.num_lines} lines, {self.num_cse} CSEs"


#: ``static inline`` so a model that never calls sign() still compiles
#: under ``-Wall -Werror`` (unused static inline functions do not warn).
_SIGN_HELPER = (
    "static inline double sign(double v) "
    "{ return v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0); }"
)


@dataclass(frozen=True)
class NativeSource:
    """A self-contained executable C translation unit plus its interface.

    Everything here is plain strings/ints/tuples: the object pickles for
    :class:`~repro.codegen.program.ProgramSpec` (process-pool workers
    rebuild native modules from it) and serialises into the artifact
    cache.  ``jac_rows``/``jac_cols`` record the sparse Jacobian
    pattern (row-major within each SCC block) so the Python wrapper can
    scatter values without calling back into C.
    """

    source: str
    name: str
    num_states: int
    num_partials: int
    num_tasks: int
    num_params: int
    has_jacobian: bool
    jac_rows: tuple[int, ...]
    jac_cols: tuple[int, ...]
    num_lines: int
    num_cse: int

    @property
    def jac_nnz(self) -> int:
        return len(self.jac_rows)

    def __str__(self) -> str:
        jac = f", jac nnz={self.jac_nnz}" if self.has_jacobian else ""
        return (
            f"C[native]: {self.num_lines} lines, {self.num_tasks} tasks, "
            f"{self.num_cse} CSEs{jac}"
        )


def _emit_loads(
    exprs: Sequence[Expr],
    replacements: Sequence[tuple],
    system: OdeSystem,
    partial_index: Mapping[str, int],
    names: NameTable,
    indent: str,
    emitted: set[str] | None = None,
) -> list[str]:
    """Loads of every symbol the body reads (minus ``emitted``), then its
    CSE temporaries."""
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
    if emitted is not None:
        used -= emitted
        emitted |= used

    lines: list[str] = []
    for name in sorted(used):
        ident = names(name)
        if name == system.free_var:
            lines.append(f"{indent}const double {ident} = t;")
        elif name in state_index:
            lines.append(
                f"{indent}const double {ident} = yin[{state_index[name]}];"
            )
        elif name in param_index:
            lines.append(
                f"{indent}const double {ident} = p[{param_index[name]}];"
            )
        elif name in partial_index:
            lines.append(
                f"{indent}const double {ident} = "
                f"yout[{n + partial_index[name]}];"
            )
        else:
            raise ValueError(f"cannot bind symbol {name!r} in C codegen")

    for sym, definition in replacements:
        ident = names(sym.name)
        lines.append(
            f"{indent}const double {ident} = "
            f"{expr_code(definition, 'c', names)};"
        )
    return lines


def _emit_block(
    targets: Sequence[tuple[str, Expr]],
    replacements: Sequence[tuple],
    system: OdeSystem,
    partial_index: Mapping[str, int],
    names: NameTable,
    indent: str,
    emitted: set[str] | None = None,
) -> list[str]:
    n = len(system.state_names)
    state_index = {s: i for i, s in enumerate(system.state_names)}
    lines = _emit_loads(
        [e for _, e in targets], replacements, system, partial_index,
        names, indent, emitted,
    )
    for target, expr in targets:
        text = expr_code(expr, "c", names)
        if not target.startswith("der:"):
            lines.append(f"{indent}yout[{n + partial_index[target]}] = {text};")
        else:
            state = target.split(":", 1)[1]
            lines.append(f"{indent}yout[{state_index[state]}] = {text};")
    return lines


def generate_c(
    system: OdeSystem,
    plan: TaskPlan | None = None,
    schedule: Schedule | None = None,
    mode: str = "parallel",
    cse_min_ops: int = 1,
    jacobian: bool = False,
) -> CSource:
    """Generate C source for ``system`` (see :func:`generate_fortran`).

    ``jacobian=True`` additionally emits the analytic ``JAC`` function
    (section 3.2.1's user-supplied Jacobian, generated)."""
    if mode not in ("parallel", "serial"):
        raise ValueError(f"unknown mode {mode!r}")
    if plan is None:
        plan = partition_tasks(system)

    n = system.num_states
    partial_index = {slot: i for i, slot in enumerate(plan.partial_slots)}

    lines: list[str] = [
        f"/* Generated by repro.codegen.gen_c for model {system.name} */",
        "#include <math.h>",
        "",
        _SIGN_HELPER,
        "",
    ]
    num_cse = 0

    if mode == "serial":
        names = NameTable(reserved=["t", "yin", "p", "yout"])
        result = cse(list(system.rhs), symbol_prefix="cse", min_ops=cse_min_ops)
        num_cse = result.num_extracted
        lines.append(
            "void RHS(double t, const double *yin, const double *p, "
            "double *yout)"
        )
        lines.append("{")
        targets = [
            (f"der:{s}", e) for s, e in zip(system.state_names, result.exprs)
        ]
        lines.extend(
            _emit_block(
                targets, result.replacements, system, partial_index, names,
                "  ",
            )
        )
        lines.append("}")
    else:
        groups = [[a.expr for a in b.assignments] for b in plan.bodies]
        results = cse_grouped(groups, symbol_prefix="cse", min_ops=cse_min_ops)
        num_cse = sum(r.num_extracted for r in results)
        if schedule is not None:
            case_tasks = [
                list(schedule.tasks_of(w)) for w in range(schedule.num_workers)
            ]
        else:
            case_tasks = [[b.task_id] for b in plan.bodies]

        lines.append(
            "void RHS(int workerid, double t, const double *yin, "
            "const double *p, double *yout)"
        )
        lines.append("{")
        lines.append("  switch (workerid) {")
        for case_no, task_ids in enumerate(case_tasks, start=1):
            lines.append(f"  case {case_no}: {{")
            # Block-scoped names: fresh table per case keeps C legal; the
            # emitted set deduplicates loads shared by the case's tasks.
            names = NameTable(reserved=["t", "yin", "p", "yout", "workerid"])
            emitted: set[str] = set()
            for tid in task_ids:
                body = plan.bodies[tid]
                result = results[tid]
                targets = [
                    (a.target, e)
                    for a, e in zip(body.assignments, result.exprs)
                ]
                lines.extend(
                    _emit_block(
                        targets, result.replacements, system, partial_index,
                        names, "    ", emitted,
                    )
                )
            lines.append("    break;")
            lines.append("  }")
        lines.append("  }")
        lines.append("}")

    if jacobian:
        names = NameTable(reserved=["t", "yin", "p", "dfdy", "n"])
        entries = _jac_entries(system)
        jac_cse = cse(
            [e for _, _, e in entries], symbol_prefix="jcse",
            min_ops=cse_min_ops,
        )
        lines.append("")
        lines.append(
            "void JAC(double t, const double *yin, const double *p, "
            "double *dfdy)"
        )
        lines.append("{")
        nn = system.num_states
        lines.append(
            f"  for (int k = 0; k < {nn * nn}; ++k) dfdy[k] = 0.0;"
        )
        lines.extend(
            _emit_loads(
                jac_cse.exprs, jac_cse.replacements, system, {}, names, "  "
            )
        )
        for (i, j, _), expr in zip(entries, jac_cse.exprs):
            lines.append(
                f"  dfdy[{i * nn + j}] = {expr_code(expr, 'c', names)};"
            )
        lines.append("}")

    lines.append("")
    lines.append("void START(double *y0)")
    lines.append("{")
    for i, (name, value) in enumerate(
        zip(system.state_names, system.start_values)
    ):
        lines.append(f"  y0[{i}] = {value!r};  /* {name} */")
    lines.append("}")

    source = "\n".join(lines)
    return CSource(
        source=source, num_lines=len(lines), num_cse=num_cse, mode=mode
    )


# ---------------------------------------------------------------------------
# Executable translation unit (backend="c")
# ---------------------------------------------------------------------------

_ARGS = "double t, const double *yin, const double *p, double *yout"


def _row_blocks(
    system: OdeSystem, blocks: Mapping[str, int] | None
) -> list[int] | None:
    """SCC block of each state (None without a partition).

    ``blocks`` is the analysis partition's state-name → SCC-block
    membership; states the partition does not know (defensive) sort last.
    """
    if not blocks:
        return None
    fallback = 1 + max(blocks.values(), default=-1)
    return [blocks.get(s, fallback) for s in system.state_names]


_RUN_ARGS = _ARGS + ", const int *ids, int n, double *times"


def _run_tasks_lines(num_tasks: int) -> list[str]:
    """The batch entry: a table of the task pointers and one loop over
    the listed ids, timing each task from the previous one's end."""
    signature = f"void run_tasks({_RUN_ARGS})"
    if not num_tasks:
        return [
            "", signature, "{",
            "  (void)t; (void)yin; (void)p; (void)yout; (void)ids; (void)n;"
            " (void)times;",
            "}",
        ]
    table = ", ".join(f"task_{k}" for k in range(num_tasks))
    return [
        "",
        "typedef void (*task_fn)(double, const double *, const double *, "
        "double *);",
        f"static task_fn const TASK_TABLE[{num_tasks}] = {{{table}}};",
        "",
        signature,
        "{",
        "  struct timespec a, b;",
        "  clock_gettime(CLOCK_MONOTONIC, &a);",
        "  for (int k = 0; k < n; ++k) {",
        "    TASK_TABLE[ids[k]](t, yin, p, yout);",
        "    clock_gettime(CLOCK_MONOTONIC, &b);",
        "    times[ids[k]] = (double)(b.tv_sec - a.tv_sec)",
        "                    + 1e-9 * (double)(b.tv_nsec - a.tv_nsec);",
        "    a = b;",
        "  }",
        "}",
    ]


def generate_c_tasks(
    system: OdeSystem,
    plan: TaskPlan | None = None,
    jacobian: bool = False,
    cse_min_ops: int = 1,
    blocks: Mapping[str, int] | None = None,
    jac_entries: JacEntries | None = None,
) -> NativeSource:
    """Emit the executable C translation unit for ``backend="c"``.

    Exports (all ``double`` buffers are caller-allocated):

    * ``RHS(t, yin, p, yout)`` — serial global-CSE evaluation writing the
      ``num_states`` derivatives,
    * ``task_<k>(t, yin, p, yout)`` — one entry point per (fused) task
      body of ``plan``, writing its slots of the shared results vector
      (states first, partial sums after — the Python backend's layout),
    * ``run_tasks(t, yin, p, yout, ids, n, times)`` — calls the ``n``
      tasks listed in ``ids`` in order, through a static table of the
      ``task_<k>`` pointers, and writes each one's ``CLOCK_MONOTONIC``
      wall time in seconds into ``times[id]``: a worker's whole task list
      of a level in one foreign call,
    * with ``jacobian=True``: ``JAC(t, yin, p, vals)`` writing only the
      structurally nonzero ``jac_entries`` (derived here when not given;
      ordered per SCC block via ``blocks``), plus ``JAC_NNZ()`` /
      ``JAC_PATTERN(rows, cols)``,
    * ``START(y0)`` / ``PARAMS(pout)`` and the ``NUM_*()`` layout probes
      the loader cross-checks against this object.

    The unit is self-contained (``<math.h>`` and ``<time.h>`` only) and
    compiles warning-free under ``-Wall -Werror``.
    """
    if plan is None:
        plan = partition_tasks(system)

    n = system.num_states
    partial_index = {slot: i for i, slot in enumerate(plan.partial_slots)}
    num_partials = len(plan.partial_slots)
    num_tasks = len(plan.bodies)

    lines: list[str] = [
        f"/* Generated by repro.codegen.gen_c (native) "
        f"for model {system.name} */",
        "#define _POSIX_C_SOURCE 199309L  /* clock_gettime */",
        "#include <math.h>",
        "#include <time.h>",
        "",
        _SIGN_HELPER,
        "",
        f"int NUM_STATES(void) {{ return {n}; }}",
        f"int NUM_PARTIALS(void) {{ return {num_partials}; }}",
        f"int NUM_TASKS(void) {{ return {num_tasks}; }}",
        "",
    ]
    num_cse = 0

    # -- serial RHS (global CSE over the full system) ----------------------
    names = NameTable(reserved=["t", "yin", "p", "yout"])
    result = cse(list(system.rhs), symbol_prefix="cse", min_ops=cse_min_ops)
    num_cse += result.num_extracted
    lines.append(f"void RHS({_ARGS})")
    lines.append("{")
    targets = [
        (f"der:{s}", e) for s, e in zip(system.state_names, result.exprs)
    ]
    lines.extend(
        _emit_block(
            targets, result.replacements, system, partial_index, names, "  "
        )
    )
    lines.append("}")

    # -- one exported entry point per (fused) task body --------------------
    groups = [[a.expr for a in b.assignments] for b in plan.bodies]
    results = cse_grouped(groups, symbol_prefix="cse", min_ops=cse_min_ops)
    num_cse += sum(r.num_extracted for r in results)
    for body, result in zip(plan.bodies, results):
        fn = f"task_{body.task_id}"
        lines.append("")
        lines.append(f"/* {body.name} */")
        lines.append(f"void {fn}({_ARGS})")
        lines.append("{")
        names = NameTable(reserved=["t", "yin", "p", "yout"])
        targets = [
            (a.target, e) for a, e in zip(body.assignments, result.exprs)
        ]
        lines.extend(
            _emit_block(
                targets, result.replacements, system, partial_index, names,
                "  ",
            )
        )
        lines.append("}")
    lines.extend(_run_tasks_lines(num_tasks))

    # -- sparse SCC-block Jacobian -----------------------------------------
    jac_rows: tuple[int, ...] = ()
    jac_cols: tuple[int, ...] = ()
    if jacobian:
        entries = _jac_entries(system, jac_entries)
        block_of = _row_blocks(system, blocks)
        if block_of is not None:
            # Row-major within the row state's SCC block, so JAC walks one
            # diagonal block at a time — the iteration order of Peleš &
            # Klus's block-sparse evaluation.
            entries = sorted(
                entries, key=lambda e: (block_of[e[0]], e[0], e[1])
            )
        jac_rows = tuple(i for i, _, _ in entries)
        jac_cols = tuple(j for _, j, _ in entries)
        nnz = len(entries)
        names = NameTable(reserved=["t", "yin", "p", "vals"])
        jac_cse = cse(
            [e for _, _, e in entries], symbol_prefix="jcse",
            min_ops=cse_min_ops,
        )
        num_cse += jac_cse.num_extracted
        lines.append("")
        lines.append(f"int JAC_NNZ(void) {{ return {nnz}; }}")
        lines.append("")
        lines.append("void JAC_PATTERN(int *rows, int *cols)")
        lines.append("{")
        if nnz:
            rows_text = ", ".join(str(i) for i in jac_rows)
            cols_text = ", ".join(str(j) for j in jac_cols)
            lines.append(f"  static const int r[] = {{{rows_text}}};")
            lines.append(f"  static const int c[] = {{{cols_text}}};")
            lines.append(
                f"  for (int k = 0; k < {nnz}; ++k) "
                "{ rows[k] = r[k]; cols[k] = c[k]; }"
            )
        else:
            lines.append("  (void)rows; (void)cols;")
        lines.append("}")
        lines.append("")
        lines.append(
            "void JAC(double t, const double *yin, const double *p, "
            "double *vals)"
        )
        lines.append("{")
        lines.extend(
            _emit_loads(
                jac_cse.exprs, jac_cse.replacements, system, {}, names, "  "
            )
        )
        if not entries:
            lines.append("  (void)t; (void)yin; (void)p; (void)vals;")
        last_block: int | None = None
        for k, ((i, j, _), expr) in enumerate(zip(entries, jac_cse.exprs)):
            if block_of is not None and block_of[i] != last_block:
                last_block = block_of[i]
                lines.append(f"  /* SCC block {last_block} */")
            lines.append(
                f"  vals[{k}] = {expr_code(expr, 'c', names)};"
                f"  /* d f[{i}] / d y[{j}] */"
            )
        lines.append("}")

    # -- start values and parameters ---------------------------------------
    lines.append("")
    lines.append("void START(double *y0)")
    lines.append("{")
    if not system.state_names:
        lines.append("  (void)y0;")
    for i, (name, value) in enumerate(
        zip(system.state_names, system.start_values)
    ):
        lines.append(f"  y0[{i}] = {float(value)!r};  /* {name} */")
    lines.append("}")
    lines.append("")
    lines.append("void PARAMS(double *pout)")
    lines.append("{")
    if not system.param_names:
        lines.append("  (void)pout;")
    for i, (name, value) in enumerate(
        zip(system.param_names, system.param_values)
    ):
        lines.append(f"  pout[{i}] = {float(value)!r};  /* {name} */")
    lines.append("}")

    return NativeSource(
        source="\n".join(lines),
        name=system.name,
        num_states=n,
        num_partials=num_partials,
        num_tasks=num_tasks,
        num_params=len(system.param_names),
        has_jacobian=bool(jacobian),
        jac_rows=jac_rows,
        jac_cols=jac_cols,
        num_lines=len(lines),
        num_cse=num_cse,
    )

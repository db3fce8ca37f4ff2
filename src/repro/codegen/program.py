"""GeneratedProgram: the bundled output of the whole code generator.

One object carrying everything downstream consumers need: the executable
serial RHS and per-task functions (Python back end), the task plan and
graph for the scheduler/runtime, optional analytic Jacobian, start values,
and the code-size statistics used by the section 3.3 benchmarks.

Three executable back ends are available (``generate_program(backend=...)``
or ``compile_model(backend=...)``):

* ``"python"`` — the scalar module only (the default; one float per state,
  ``math`` calls, the target of the threaded runtime),
* ``"numpy"``  — additionally compiles the vectorized module of
  :mod:`repro.codegen.gen_numpy`, enabling the batched entry points
  (``rhs_batch`` / ``make_rhs_batch`` / ``make_jac_batch``) used by
  :func:`repro.solver.batch.solve_ivp_batch` and the ensemble runtime,
* ``"c"``      — additionally compiles the generated tasks natively
  (:mod:`repro.codegen.gen_c` + :mod:`repro.codegen.native`): the serial
  RHS, every task entry point, and the sparse SCC-block Jacobian run as
  machine code that releases the GIL, so the threaded executors scale
  across cores.  When no C toolchain exists the program degrades to the
  Python module and records ``native_fallback_reason``.

The scalar module is always generated, so schedulers, executors and the
fault-tolerance layer behave identically whichever backend is selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..schedule.task import TaskGraph
from .costmodel import CostModel, DEFAULT_COST_MODEL
from .gen_c import NativeSource
from .gen_numpy import NumpyModule
from .gen_python import PythonModule
from .tasks import TaskPlan
from .transform import ArraySystem, OdeSystem
from .verify import VerifyReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.faults import FaultInjector
    from .native import NativeModule

__all__ = [
    "GeneratedProgram",
    "ProgramSpec",
    "as_floats",
    "call_on_floats",
    "generate_program",
    "run_each",
    "scalarize_reason",
]


#: ``runner(ids, t, y, p, res, times)``: evaluate the tasks of the tuple
#: ``ids`` in order into ``res`` and write each one's wall time, in
#: seconds, to ``times[id]`` — the one call every executor makes
TaskRunner = Callable[..., None]


_F64 = np.dtype(float)

#: the types of ``t`` whose arithmetic with a Python float rounds as it
#: does with a NumPy float64 (a float32 ``t`` times a Python float is a
#: float32, times a float64 it is a float64)
_EXACT_T = frozenset((float, int, np.float64))


def as_floats(v):
    """``v.tolist()`` — a list of Python floats — when ``v`` is a 1-D
    float64 ndarray, else ``v`` itself: the ``y`` or ``p`` argument of
    :func:`call_on_floats`, converted once per call or per closure."""
    if v.__class__ is np.ndarray and v.dtype == _F64 and v.ndim == 1:
        return v.tolist()
    return v


def call_on_floats(fn: Callable, t, y, p, out, fy, fp) -> None:
    """Run a generated Python body ``fn(t, y, p, out)`` on Python floats.

    ``fy`` and ``fp`` are :func:`as_floats` of ``y`` and ``p``.  Indexing a
    list yields Python floats, whose arithmetic is the same IEEE double
    arithmetic as NumPy's scalar math at half the cost, so ``out`` gets
    the same bits.  Where NumPy returns ``inf`` or ``nan`` from ``x**-1``
    at 0, an overflowing power or a fractional power of a negative base,
    Python raises (the last through the namespace's ``_rpow``), and the
    same call runs again on ``y`` and ``p``: its values, warnings and
    exception are then those of the ndarray call.  A call whose arguments
    did not convert, or whose ``t`` would round differently against a
    Python float, runs on ``y`` and ``p`` directly.
    """
    if fy is y or fp is p or t.__class__ not in _EXACT_T:
        fn(t, y, p, out)
        return
    try:
        fn(t, fy, fp, out)
    except Exception:
        fn(t, y, p, out)


def run_each(tasks: Sequence[Callable]) -> TaskRunner:
    """The task runner over per-task callables: one Python call per task.

    Serves the Python backend: ``y`` and ``p`` convert to Python floats
    once per call, and each task runs through :func:`call_on_floats`.  A
    task's exception (the one its re-run on the ndarrays raises)
    propagates unchanged, tagged with that task's id as ``failed_task``,
    so the pool's worker side can tell which of ``ids`` completed before
    it.
    """

    def run(ids, t, y, p, res, times) -> None:
        fy, fp = as_floats(y), as_floats(p)
        tid = None
        try:
            for tid in ids:
                started = perf_counter()
                call_on_floats(tasks[tid], t, y, p, res, fy, fp)
                times[tid] = perf_counter() - started
        except BaseException as exc:
            exc.failed_task = tid
            raise

    return run


def scalarize_reason(
    jacobian: bool, shared_cse: bool, backend: str
) -> str | None:
    """Why these features need scalar equations (None = array mode
    serves them): per-entry differentiation, cross-equation CSE and native
    emission have no array lowering."""
    if jacobian:
        return "analytic Jacobian requires scalar equations"
    if shared_cse:
        return "shared-CSE tasks require scalar equations"
    if backend == "c":
        return "native C backend requires scalar equations"
    return None


@dataclass(frozen=True)
class ProgramSpec:
    """A picklable rebuild recipe for a program's executable parts.

    Modules produced by ``exec`` cannot cross a process boundary, so the
    process pool (:class:`repro.runtime.ProcessExecutor`) ships this spec
    to each worker instead: generated source text plus the few integers
    and slot tables a worker needs to re-``exec`` the module in its own
    interpreter and evaluate tasks against the shared results buffer.
    Everything here is plain strings/ints/tuples, so the spec pickles
    under any multiprocessing start method.
    """

    name: str
    source: str
    num_states: int
    num_partials: int
    num_tasks: int
    #: per-task output indices into the results vector (state slots first,
    #: partial-sum slots after), used by worker-side fault injection
    task_slots: tuple[tuple[int, ...], ...]
    #: native rebuild recipe (backend="c"): plain strings/ints/tuples, so
    #: the spec still pickles under any multiprocessing start method
    native_source: NativeSource | None = None
    #: the unit's native_key and the cache root the parent built it in:
    #: a worker that finds ``<key>.so`` there only runs ``dlopen``, and
    #: one that does not (or finds it corrupt) builds it through the cache
    native_key: str | None = None
    native_cache_root: str | None = None
    #: the glue extension the parent loaded; workers import the same file
    native_glue_path: str | None = None

    def build_module(self) -> PythonModule:
        """Re-``exec`` the generated source into a fresh namespace."""
        from .gen_python import load_python_module

        return load_python_module(
            self.source, self.num_states, self.num_partials, name=self.name
        )

    def build_runner(self) -> TaskRunner:
        """The task runner (:meth:`GeneratedProgram.task_runner`), rebuilt
        in the calling interpreter; a worker under a fault plan wraps it
        with :meth:`~repro.runtime.FaultInjector.wrap_runner`."""
        native = self._build_native()
        if native is not None:
            return native.run_tasks
        return run_each(self.build_module().tasks)

    def _build_native(self) -> "NativeModule | None":
        """The native module, or None for a Python program.

        Loaded from the shipped cache root exactly as the parent loads
        it; None too when the object is gone and the worker's machine
        lacks a toolchain, and the caller degrades silently to the
        Python module — the numerics are identical either way.
        """
        if self.native_source is None:
            return None
        from .native import NativeCache, NativeUnavailable, build_native_module

        try:
            module, _ = build_native_module(
                self.native_source, cache=NativeCache(self.native_cache_root),
                glue=self.native_glue_path, key=self.native_key,
            )
            return module
        except NativeUnavailable:
            return None


@dataclass
class GeneratedProgram:
    """A compiled, schedulable right-hand-side program."""

    system: OdeSystem | ArraySystem
    plan: TaskPlan
    module: PythonModule
    verify_report: VerifyReport
    #: vectorized NumPy module (``generate_program(backend="numpy")``)
    vector_module: NumpyModule | None = None
    #: natively compiled module (``generate_program(backend="c")``);
    #: None when not requested or when the toolchain was unavailable
    native_module: "NativeModule | None" = None
    #: why backend="c" degraded to python (None = no fallback happened)
    native_fallback_reason: str | None = None
    #: lazy cache for task_output_slots (state and partial slot indices)
    _slot_index: tuple | None = field(default=None, init=False, repr=False)
    #: cached default parameter vector (built once from PARAMS())
    _params: np.ndarray | None = field(default=None, init=False, repr=False)

    # -- convenience accessors -------------------------------------------------

    @property
    def num_states(self) -> int:
        return self.system.num_states

    @property
    def num_tasks(self) -> int:
        return self.plan.num_tasks

    @property
    def task_graph(self) -> TaskGraph:
        return self.plan.graph

    @property
    def num_partials(self) -> int:
        return self.module.num_partials

    @property
    def backend(self) -> str:
        """The richest backend available: ``"c"``, ``"numpy"`` or ``"python"``."""
        if self.native_module is not None:
            return "c"
        return "numpy" if self.vector_module is not None else "python"

    def start_vector(self) -> np.ndarray:
        return np.asarray(self.module.start(), dtype=float)

    def param_vector(self) -> np.ndarray:
        """The generated default parameter vector (a fresh copy).

        The underlying vector is materialised from the generated
        ``PARAMS()`` list once and cached; callers receive copies so the
        cache cannot be mutated through the return value.
        """
        if self._params is None:
            self._params = np.asarray(self.module.params(), dtype=float)
        return self._params.copy()

    def _default_params(self) -> np.ndarray:
        """The cached parameter vector itself (hot paths; do not mutate)."""
        if self._params is None:
            self._params = np.asarray(self.module.params(), dtype=float)
        return self._params

    # -- execution ------------------------------------------------------------

    def rhs(self, t: float, y: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
        """Serial RHS evaluation: returns a fresh ``ydot`` array.

        A ``y`` or ``p`` of the wrong length raises ``ValueError`` naming
        it, on every backend (the native glue checks its own buffers).
        """
        if p is None:
            p = self._default_params()
        y = np.ascontiguousarray(y, dtype=float)
        out = np.empty(self.num_states, dtype=float)
        if self.native_module is not None:
            self.native_module.rhs(t, y, p, out)
            return out
        for name, v, n in (
            ("y", y, self.num_states), ("p", p, self._default_params().size)
        ):
            if np.shape(v) != (n,):
                raise ValueError(
                    f"{name} has shape {np.shape(v)}, expected ({n},)"
                )
        call_on_floats(
            self.module.rhs, t, y, p, out, as_floats(y), as_floats(p)
        )
        return out

    def make_rhs(self, p: np.ndarray | None = None) -> Callable:
        """A ``f(t, y) -> ydot`` closure for the ODE solvers.

        Uses the native RHS when this program was compiled with
        ``backend="c"`` (same numbers to the last bit modulo libm; the
        native build forbids FP contraction).  The Python RHS runs on
        Python floats (:func:`call_on_floats`): ``p`` converts once here,
        ``y`` once per call, and the result is bit-identical to the call
        on the ndarrays at about half its cost.
        """
        params = self._default_params() if p is None else np.asarray(p, float)
        if self.native_module is not None:
            native_rhs = self.native_module.rhs
            n = self.num_states

            def f(t: float, y: np.ndarray) -> np.ndarray:
                out = np.empty(n, dtype=float)
                native_rhs(
                    t, np.ascontiguousarray(y, dtype=float), params, out
                )
                return out

            return f
        rhs = self.module.rhs
        n = self.num_states
        fp = as_floats(params)

        def f(t: float, y: np.ndarray) -> np.ndarray:
            out = np.empty(n, dtype=float)
            call_on_floats(rhs, t, y, params, out, as_floats(y), fp)
            return out

        return f

    def make_jac(self, p: np.ndarray | None = None) -> Callable | None:
        """A ``jac(t, y) -> ndarray`` closure, if the Jacobian was generated.

        The returned closure reuses one zeroed ``(n, n)`` workspace between
        calls: the generated code writes every structurally nonzero entry
        on each call and the structural zeros never change, so no per-call
        allocation or re-zeroing is needed.  Callers that hold the result
        across calls see it updated in place (the Newton loops in the
        implicit solvers re-factorise from it immediately).

        With a native module the sparse ``JAC`` evaluates only the
        structurally nonzero entries (per SCC block) and scatters them
        through a precomputed flat index — the dense workspace interface
        the solvers consume is unchanged.  The Python ``JAC`` runs on
        Python floats, as :meth:`make_rhs`'s RHS does.
        """
        params = self._default_params() if p is None else np.asarray(p, float)
        n = self.num_states
        native = self.native_module
        if native is not None and native.jac_sparse is not None:
            jac_fn = native.jac_sparse
            src = native.native
            nnz = src.jac_nnz
            flat = (
                np.asarray(src.jac_rows, dtype=np.intp) * n
                + np.asarray(src.jac_cols, dtype=np.intp)
            )
            vals = np.empty(nnz, dtype=float)
            workspace = np.zeros((n, n), dtype=float)
            flat_view = workspace.reshape(-1)

            def jac(t: float, y: np.ndarray) -> np.ndarray:
                jac_fn(t, np.ascontiguousarray(y, dtype=float), params, vals)
                flat_view[flat] = vals
                return workspace

            return jac
        if self.module.jac is None:
            return None
        jac_fn = self.module.jac
        workspace = np.zeros((n, n), dtype=float)
        fp = as_floats(params)

        def jac(t: float, y: np.ndarray) -> np.ndarray:
            call_on_floats(jac_fn, t, y, params, workspace, as_floats(y), fp)
            return workspace

        return jac

    # -- batched execution (numpy backend) -------------------------------------

    def _require_vector_module(self) -> NumpyModule:
        if self.vector_module is None:
            raise ValueError(
                "this program was generated with backend='python'; "
                "regenerate with generate_program(..., backend='numpy') "
                "for batched evaluation"
            )
        return self.vector_module

    def rhs_batch(
        self,
        t: float | np.ndarray,
        Y: np.ndarray,
        p: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized RHS over stacked states ``Y`` of shape ``(batch, n)``.

        ``t`` may be a scalar or a ``(batch,)`` array; ``p`` a shared
        ``(m,)`` vector or a per-trajectory ``(batch, m)`` stack.  Writes
        into ``out`` when given (shape of ``Y``), else allocates.
        """
        vm = self._require_vector_module()
        if p is None:
            p = self._default_params()
        if out is None:
            out = np.empty_like(Y, dtype=float)
        vm.rhs_v(t, Y, p, out)
        return out

    def make_rhs_batch(self, p: np.ndarray | None = None) -> Callable:
        """A batched ``f(t, Y) -> Ydot`` closure (fresh output per call)."""
        vm = self._require_vector_module()
        params = self._default_params() if p is None else np.asarray(p, float)
        rhs_v = vm.rhs_v

        def f(t, Y: np.ndarray) -> np.ndarray:
            out = np.empty_like(Y, dtype=float)
            rhs_v(t, Y, params, out)
            return out

        return f

    def make_jac_batch(self, p: np.ndarray | None = None) -> Callable | None:
        """A batched ``jac(t, Y) -> (batch, n, n)`` closure, if generated."""
        vm = self._require_vector_module()
        if vm.jac_v is None:
            return None
        params = self._default_params() if p is None else np.asarray(p, float)
        jac_v = vm.jac_v
        n = self.num_states

        def jac(t, Y: np.ndarray) -> np.ndarray:
            out = np.zeros(Y.shape[:-1] + (n, n), dtype=float)
            jac_v(t, Y, params, out)
            return out

        return jac

    def task_callables(self) -> list[Callable]:
        """The per-task functions the executors dispatch.

        Native tasks when the program was compiled with ``backend="c"``
        (they release the GIL, so :class:`~repro.runtime.ThreadedExecutor`
        runs them truly in parallel), otherwise the Python module's task
        functions.  Same ``task(t, y, p, res)`` signature and results-
        vector layout either way.
        """
        if self.native_module is not None:
            return self.native_module.tasks
        return self.module.tasks

    def task_runner(self, injector: "FaultInjector | None" = None) -> TaskRunner:
        """The one call the executors make to evaluate a task list.

        Native programs run the whole list in one ``run_tasks`` call,
        Python programs take :func:`run_each`; a fault ``injector`` wraps
        either (:meth:`~repro.runtime.FaultInjector.wrap_runner`).
        """
        native = self.native_module
        run = native.run_tasks if native is not None else run_each(
            self.module.tasks
        )
        if injector is None:
            return run
        return injector.wrap_runner(run, self._all_task_slots())

    def eval_task(
        self, task_id: int, t: float, y: np.ndarray, p: np.ndarray,
        res: np.ndarray,
    ) -> None:
        """Evaluate one task into the shared results vector ``res``
        (length ``num_states + num_partials``)."""
        self.task_callables()[task_id](t, y, p, res)

    def results_buffer(self) -> np.ndarray:
        return np.zeros(self.num_states + self.num_partials, dtype=float)

    def rebuild_spec(self) -> ProgramSpec:
        """A :class:`ProgramSpec` from which worker processes re-create
        the scalar module (source + layout; no live code objects)."""
        native = self.native_module
        shipped = {} if native is None else {
            "native_source": native.native,
            "native_key": native.path.stem,
            "native_cache_root": str(native.path.parent),
            "native_glue_path": str(native.glue_path),
        }
        return ProgramSpec(
            name=self.system.name,
            source=self.module.source,
            num_states=self.num_states,
            num_partials=self.num_partials,
            num_tasks=self.num_tasks,
            task_slots=self._all_task_slots(),
            **shipped,
        )

    def task_output_slots(self, task_id: int) -> tuple[int, ...]:
        """Indices in the results vector written by ``task_id``.

        ``der:<state>`` targets map to the state-derivative slots
        ``[0, num_states)``; partial-sum and shared-CSE targets map to the
        auxiliary slots after them — the same layout the generated task
        bodies write.  Array targets (``der:<base>[*]<suffix>``) expand to
        every member's slot, so the worker-side consumers (fault injection,
        supervisor output validation, shared-memory slot copies) see the
        true write set.  The runtime's fault injector and NaN/Inf output
        validation are both driven by this mapping.
        """
        if self._slot_index is None:
            state_index = {
                name: i for i, name in enumerate(self.system.state_names)
            }
            partial_index = {
                slot: self.num_states + i
                for i, slot in enumerate(self.plan.partial_slots)
            }
            array_slots = {
                f"der:{fam.base}[*]{suffix}": fam.state_slots(j)
                for fam in self.system.families
                for j, suffix in enumerate(fam.state_suffixes)
            }
            self._slot_index = (state_index, partial_index, array_slots)
        state_index, partial_index, array_slots = self._slot_index
        slots: list[int] = []
        for target in self.plan.bodies[task_id].outputs():
            if target in array_slots:
                slots.extend(array_slots[target])
            elif target.startswith("der:"):
                slots.append(state_index[target.split(":", 2)[1]])
            else:
                slots.append(partial_index[target])
        return tuple(slots)

    def _all_task_slots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            self.task_output_slots(tid) for tid in range(self.num_tasks)
        )

    def __repr__(self) -> str:
        return (
            f"<GeneratedProgram {self.system.name}: {self.num_states} states, "
            f"{self.num_tasks} tasks, {self.module.num_lines} generated lines, "
            f"backend={self.backend}>"
        )


def generate_program(
    system: OdeSystem | ArraySystem,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    jacobian: bool = False,
    group_threshold: float | None = None,
    split_threshold: float | None = None,
    shared_cse: bool = False,
    backend: str = "python",
    fuse: bool = True,
    fuse_threshold: float | None = None,
) -> GeneratedProgram:
    """Run the back half of the compiler on an already-built system.

    This is the programmatic equivalent of Figure 9's code-generator
    pipeline (compilable-subset verifier, parallelization, CSE, code
    emission), and it is the compiler's own: the keywords become a
    :class:`~repro.compiler.CompileOptions` and the default pass pipeline
    runs on a context seeded with ``system``.  The front passes skip as
    "caller supplied an OdeSystem" — an :class:`ArraySystem` that needs
    scalar equations is expanded by the ``scalarize`` pass — and
    ``verify`` → ``tasks`` → ``fuse_tasks`` → ``codegen`` →
    ``link_native`` → ``link`` run as under
    :func:`~repro.frontend.compile_model`.  With no analysis partition,
    fusion and the native Jacobian's block order see no SCC blocks.

    The keywords are those of ``compile_model``: ``backend="numpy"`` adds
    the vectorized module, ``backend="c"`` the native one (degrading to
    Python with ``native_fallback_reason`` set when no C toolchain is
    available), ``fuse=False`` disables task fusion.
    """
    from ..compiler.context import CompilationContext, CompileOptions
    from ..compiler.passes import build_default_manager

    options = CompileOptions(
        cost_model=cost_model, jacobian=jacobian,
        group_threshold=group_threshold, split_threshold=split_threshold,
        shared_cse=shared_cse, backend=backend, fuse=fuse,
        fuse_threshold=fuse_threshold,
    )
    ctx = CompilationContext(options=options, system=system)
    build_default_manager().run(ctx)
    return ctx.program

"""Top-level initial-value-problem API.

"An initial value problem is solved numerically by applying a general,
pre-written ODE-solver to the equation system" (section 2.2).  This module
is that pre-written front door: :func:`solve_ivp` dispatches to any of the
implemented methods and optionally resamples the solution at requested
output points with cubic Hermite interpolation.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .adams import adams_adaptive
from .bdf import bdf_adaptive
from .common import RhsFn, SolverOptions, SolverResult, hermite
from .jacobian import AnalyticJacobian, JacobianProvider
from .lsoda import lsoda_adaptive
from .recovery import RecoveryPolicy
from .rk import rk4_fixed, rk45_adaptive

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.checkpoint import Checkpoint, Checkpointer

__all__ = ["solve_ivp", "METHODS", "hermite_resample"]

METHODS = ("lsoda", "adams", "bdf", "rk45", "rk4")


def hermite_resample(
    result: SolverResult,
    f: RhsFn,
    t_eval: Sequence[float],
) -> SolverResult:
    """Resample ``result`` at ``t_eval`` with cubic Hermite interpolation.

    Derivative values at the stored points are recomputed from the RHS
    (costing one evaluation per stored point actually used); accuracy is
    O(h^4), matched to the methods' typical working orders.
    """
    ts = result.ts
    ys = result.ys
    t_eval_arr = np.asarray(t_eval, dtype=float)
    direction = 1.0 if ts[-1] >= ts[0] else -1.0
    lo = min(ts[0], ts[-1]) - 1e-12 * max(1.0, abs(ts[0]))
    hi = max(ts[0], ts[-1]) + 1e-12 * max(1.0, abs(ts[-1]))
    if np.any(t_eval_arr < lo) or np.any(t_eval_arr > hi):
        raise ValueError("t_eval points outside the integrated span")

    f_cache: dict[int, np.ndarray] = {}

    def f_at(i: int) -> np.ndarray:
        if i not in f_cache:
            f_cache[i] = f(float(ts[i]), ys[i])
            result.stats.nfev += 1
        return f_cache[i]

    out = np.empty((t_eval_arr.size, ys.shape[1]))
    # Locate each query in the step sequence.
    ordered = ts if direction > 0 else ts[::-1]
    for row, tq in enumerate(t_eval_arr):
        pos = int(np.searchsorted(ordered, tq))
        pos = min(max(pos, 1), len(ts) - 1)
        i = pos if direction > 0 else len(ts) - 1 - pos
        i0, i1 = (i - 1, i) if direction > 0 else (i + 1, i)
        t0f, t1f = float(ts[i0]), float(ts[i1])
        h = t1f - t0f
        if h == 0:
            out[row] = ys[i1]
            continue
        out[row] = hermite((tq - t0f) / h, h, ys[i0], f_at(i0), ys[i1],
                           f_at(i1))

    return SolverResult(
        ts=t_eval_arr,
        ys=out,
        success=result.success,
        message=result.message,
        stats=result.stats,
        method=result.method,
        method_log=result.method_log,
    )


def solve_ivp(
    f: RhsFn,
    t_span: tuple[float, float],
    y0: Sequence[float],
    method: str = "lsoda",
    jac: Callable[[float, np.ndarray], np.ndarray] | JacobianProvider | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    t_eval: Sequence[float] | None = None,
    first_step: float | None = None,
    max_step: float = np.inf,
    max_steps: int = 100_000,
    num_steps: int = 1000,
    recovery: RecoveryPolicy | None = None,
    checkpointer: "Checkpointer | str | Path | None" = None,
    resume: "Checkpoint | str | Path | None" = None,
) -> SolverResult:
    """Solve an initial value problem ``y' = f(t, y)``.

    ``method`` is one of :data:`METHODS`.  ``jac`` (a callable or a
    :class:`~repro.solver.jacobian.JacobianProvider`) is used by the
    implicit families; without it a finite-difference Jacobian is built
    internally.  ``num_steps`` applies to the fixed-step ``rk4`` method
    only.

    The fault-tolerance extensions apply to the adaptive methods:
    ``recovery`` is a :class:`~repro.solver.recovery.RecoveryPolicy` for
    RHS exceptions and non-finite values (shrink the step and retry, then
    raise a structured :class:`~repro.solver.recovery.SolverFailure`);
    ``checkpointer`` (a :class:`~repro.runtime.checkpoint.Checkpointer`
    or a path) writes periodic checkpoints; ``resume`` (a
    :class:`~repro.runtime.checkpoint.Checkpoint` or a path) restarts
    from one — the checkpointed ``(t, y)`` replaces ``t_span[0]``/``y0``
    and the stepper history is restored.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if resume is not None or checkpointer is not None:
        from ..runtime.checkpoint import Checkpointer, load_checkpoint

        if isinstance(checkpointer, (str, Path)):
            checkpointer = Checkpointer(checkpointer)
        if isinstance(resume, (str, Path)):
            resume = load_checkpoint(resume)
        if resume is not None and resume.method != method:
            raise ValueError(
                f"checkpoint was written by method {resume.method!r}; "
                f"pass method={resume.method!r} to resume it"
            )
    if method == "rk4" and (recovery is not None or checkpointer is not None
                            or resume is not None):
        raise ValueError(
            "recovery/checkpoint/resume require an adaptive method "
            "(rk45, adams, bdf, lsoda)"
        )
    options = SolverOptions(
        rtol=rtol,
        atol=atol,
        first_step=first_step,
        max_step=max_step,
        max_steps=max_steps,
    )
    provider: JacobianProvider | None
    if jac is None:
        provider = None
    elif isinstance(jac, JacobianProvider):
        provider = jac
    else:
        provider = AnalyticJacobian(jac)

    ft = dict(recovery=recovery, checkpointer=checkpointer, resume=resume)
    if method == "rk4":
        result = rk4_fixed(f, t_span, y0, num_steps=num_steps)
    elif method == "rk45":
        result = rk45_adaptive(f, t_span, y0, options, **ft)
    elif method == "adams":
        result = adams_adaptive(f, t_span, y0, options, **ft)
    elif method == "bdf":
        result = bdf_adaptive(f, t_span, y0, options, jac=provider, **ft)
    else:
        result = lsoda_adaptive(f, t_span, y0, options, jac=provider, **ft)

    if t_eval is not None and result.success:
        result = hermite_resample(result, f, t_eval)
    return result

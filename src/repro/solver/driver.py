"""The one adaptive loop: every method is a :class:`Stepper` under
:func:`drive`.

In the paper the ODE solver is the supervisor that calls the parallel RHS
each step; here that supervisor is written once.  A stepper (Dormand–Prince,
Adams, BDF, or LSODA switching between the last two) owns its state, its
step attempt and its error control; :func:`drive` owns resume, the
``max_steps`` limit (checked before every attempt), the RHS-failure retry
ladder, step underflow, the ``ts``/``ys`` record, the checkpoint hook (once
per accepted step, after the stepper is done with it) and the result.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .common import (
    RhsFn,
    SolverOptions,
    SolverResult,
    Stats,
    StepUnderflow,
    initial_step,
    validate_tspan,
)
from .recovery import (
    GuardedRhs,
    RecoveryPolicy,
    RhsError,
    SolverFailure,
    construct_with_retry,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.checkpoint import Checkpoint, Checkpointer

__all__ = ["Stepper", "drive"]


class Stepper:
    """What :func:`drive` needs of a method.

    ``t``/``y`` are the last accepted point, ``h`` the step the next
    attempt tries; ``order`` and ``family`` go into checkpoints.
    """

    family: str
    order: int
    #: the method order the first-step heuristic assumes
    start_order = 1

    def __init__(self, f: RhsFn, t0: float, y0: np.ndarray,
                 direction: float, options: SolverOptions, stats: Stats,
                 h0: float | None = None) -> None:
        """Evaluate ``f(t0, y0)``, pick the first step and :meth:`setup`.

        The first step is ``h0`` (a resumed run's checkpointed step), else
        ``options.first_step``, else :func:`initial_step` (one more RHS
        call); never below 1e-14.
        """
        self.f, self.direction = f, direction
        self.options, self.stats = options, stats
        self.t = float(t0)
        self.y = np.asarray(y0, dtype=float).copy()
        f0 = f(self.t, self.y)
        stats.nfev += 1
        first = options.first_step if h0 is None else h0
        if first is not None:
            h = min(abs(first), options.max_step)
        else:
            h = initial_step(f, self.t, self.y, f0, direction,
                             self.start_order, options.rtol, options.atol,
                             options.max_step)
            stats.nfev += 1
        self.h = max(h, 1e-14)
        self.setup(f0)

    def setup(self, f0: np.ndarray) -> None:
        """Build the method's own state from ``f0 = f(t, y)``."""

    def attempt(self, t_bound: float) -> bool:
        """Try one step toward ``t_bound``: True if accepted (``t``/``y``
        advanced, ``h`` is the next step), False if rejected (``h``
        shrunk).  Raises :class:`~repro.solver.common.StepUnderflow`;
        lets the RHS's :class:`~repro.solver.recovery.RhsError` through."""
        raise NotImplementedError

    def reduce_step(self, factor: float) -> None:
        """Shrink ``h`` by ``factor`` after an RHS failure."""
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        """Checkpoint fields this stepper adds to t, y, h and order."""
        return {}

    def restore(self, ckpt: "Checkpoint") -> None:
        """Put back what :meth:`snapshot` saved; the stepper was just
        built at ``(ckpt.t, ckpt.y)`` with ``h0=ckpt.h``."""

    def step(self, t_bound: float) -> bool:
        """Attempt until one step is accepted; False on step underflow."""
        try:
            while not self.attempt(t_bound):
                pass
        except StepUnderflow:
            return False
        return True


def drive(
    name: str, build: Callable[..., Stepper], f: RhsFn,
    t_span: tuple[float, float], y0: Sequence[float], options: SolverOptions,
    recovery: RecoveryPolicy | None = None,
    checkpointer: "Checkpointer | None" = None,
    resume: "Checkpoint | None" = None,
) -> SolverResult:
    """Integrate ``f`` with the stepper ``build(f, t0, y0, direction,
    options, stats, h0)`` returns; ``name`` labels results, failures and
    checkpoints.

    With ``recovery`` the RHS is a :class:`~repro.solver.recovery.GuardedRhs`
    and an :class:`~repro.solver.recovery.RhsError` shrinks the step and
    retries, up to ``max_retries`` failed attempts in a row (an attempt
    whose RHS calls all answer resets the count), before it surfaces as a
    :class:`~repro.solver.recovery.SolverFailure`.  ``resume`` replaces
    ``t_span[0]``/``y0`` with the checkpointed state.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    h0 = None
    if resume is not None:
        t0, y0, h0 = float(resume.t), resume.y, resume.h
    direction = validate_tspan(t0, t1)
    y0_arr = np.asarray(y0, dtype=float)
    stats = Stats()
    rhs = f if recovery is None else GuardedRhs(f)
    stepper = construct_with_retry(
        lambda: build(rhs, t0, y0_arr, direction, options, stats, h0),
        recovery, name, t0, y0_arr,
    )
    if resume is not None:
        stepper.restore(resume)
    ts = [t0]
    ys = [stepper.y.copy()]

    def result(success: bool, message: str) -> SolverResult:
        return SolverResult(np.array(ts), np.array(ys), success, message,
                            stats, name)

    def make_checkpoint() -> "Checkpoint":
        from ..runtime.checkpoint import Checkpoint

        return Checkpoint(
            method=name, t=stepper.t, y=stepper.y.copy(), h=stepper.h,
            direction=direction, order=stepper.order,
            stats=dataclasses.asdict(stats), **stepper.snapshot(),
        )

    attempt = stepper.attempt
    retries = 0
    while (t1 - stepper.t) * direction > 0:
        if stats.nsteps >= options.max_steps:
            return result(
                False, f"maximum step count {options.max_steps} exceeded"
            )
        try:
            accepted = attempt(t1)
        except StepUnderflow:
            return result(False, "step size underflow")
        except RhsError as exc:
            retries += 1
            if recovery is None or retries > recovery.max_retries:
                raise SolverFailure(
                    name, stepper.t, stepper.y, retries, str(exc),
                    ts=np.array(ts), ys=np.array(ys), cause=exc,
                ) from exc
            stepper.reduce_step(recovery.shrink_factor)
            continue
        retries = 0
        if accepted:
            ts.append(stepper.t)
            ys.append(stepper.y.copy())
            if checkpointer is not None:
                checkpointer.step(make_checkpoint)

    if checkpointer is not None:
        checkpointer.flush()
    return result(True, "reached end of span")

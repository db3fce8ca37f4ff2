"""Explicit Runge–Kutta methods.

Single-step ("intermediate extrapolations", section 2.4) methods: the
classic fixed-step RK4 and the adaptive Dormand–Prince 5(4) embedded pair
with FSAL.  RK45 is also the history bootstrapper for the multistep
methods and the reference method in the cross-validation tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .common import (
    MAX_FACTOR,
    MIN_FACTOR,
    RhsFn,
    SolverOptions,
    SolverResult,
    Stats,
    StepUnderflow,
    error_norm,
    step_factor,
    validate_tspan,
)
from .driver import Stepper, drive
from .recovery import RecoveryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.checkpoint import Checkpoint, Checkpointer

__all__ = [
    "rk4_fixed", "rk45_adaptive", "Rk45Stepper",
    "DOPRI_A", "DOPRI_B5", "DOPRI_B4", "DOPRI_C",
]

# Dormand–Prince 5(4) tableau.
DOPRI_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DOPRI_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DOPRI_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DOPRI_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
#: embedded error weights (b5 − b4), hoisted out of the step loop
_DOPRI_E = DOPRI_B5 - DOPRI_B4


def rk4_fixed(
    f: RhsFn,
    t_span: tuple[float, float],
    y0: Sequence[float],
    num_steps: int,
) -> SolverResult:
    """Classic fourth-order Runge–Kutta with ``num_steps`` uniform steps."""
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    t0, t1 = float(t_span[0]), float(t_span[1])
    validate_tspan(t0, t1)
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / num_steps
    stats = Stats()

    ts = [t0]
    ys = [y.copy()]
    t = t0
    for _ in range(num_steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        stats.nfev += 4
        stats.nsteps += 1
        stats.naccepted += 1
        ts.append(t)
        ys.append(y.copy())

    return SolverResult(
        ts=np.array(ts),
        ys=np.array(ys),
        success=True,
        message="completed fixed-step integration",
        stats=stats,
        method="rk4",
    )


class Rk45Stepper(Stepper):
    """Adaptive Dormand–Prince 5(4) with FSAL and PI-free standard control.

    ``k[0]`` is the FSAL slot ``f(t, y)``.  An RHS with ``eval_stages``
    (a :class:`~repro.runtime.parallel_rhs.ParallelRHS`) fills the six
    trial stages in one call, at best one executor dispatch per K stages
    instead of one per stage.
    """

    family = "rk45"
    order = 5
    start_order = 4

    def setup(self, f0: np.ndarray) -> None:
        self.stage_eval = getattr(self.f, "eval_stages", None)
        n = self.y.size
        self.k = np.empty((7, n), dtype=float)
        self.k[0] = f0
        # Reusable per-step workspaces: the stage argument, the candidate
        # state, and the error vector are written in place each step
        # instead of allocated anew (the candidate buffer is swapped with
        # ``y`` on acceptance; the driver stores copies of ``y``).
        self._y_stage = np.empty(n, dtype=float)
        self._y_new = np.empty(n, dtype=float)
        self._err = np.empty(n, dtype=float)

    def reduce_step(self, factor: float) -> None:
        """Shrink after a failed stage evaluation, which counts as a
        rejected step; the FSAL slot ``k[0]`` is still valid."""
        self.stats.nrejected += 1
        self.h *= factor

    def attempt(self, t_bound: float) -> bool:
        options, stats, k = self.options, self.stats, self.k
        t, y, direction = self.t, self.y, self.direction
        h = min(self.h, abs(t_bound - t), options.max_step)
        if h < options.min_step or t + h * direction == t:
            raise StepUnderflow
        self.h = h
        stats.nsteps += 1

        if self.stage_eval is not None:
            self.stage_eval(t, y, h * direction, k, DOPRI_A, DOPRI_C)
        else:
            f, y_stage = self.f, self._y_stage
            for i in range(1, 7):
                np.matmul(k[:i].T, DOPRI_A[i], out=y_stage)
                y_stage *= h * direction
                y_stage += y
                k[i] = f(t + DOPRI_C[i] * h * direction, y_stage)
        stats.nfev += 6

        y_new, err = self._y_new, self._err
        np.matmul(k.T, DOPRI_B5, out=y_new)
        y_new *= h * direction
        y_new += y
        np.matmul(k.T, _DOPRI_E, out=err)
        err *= h
        norm = error_norm(err, y, y_new, options.rtol, options.atol)

        self.h = h * step_factor(norm, 4, MIN_FACTOR, MAX_FACTOR)
        if not norm <= 1.0:  # a NaN norm rejects too
            stats.nrejected += 1
            return False
        self.t = t + h * direction
        self.y, self._y_new = y_new, y  # old state becomes next workspace
        k[0] = k[6]  # FSAL
        stats.naccepted += 1
        return True


def rk45_adaptive(
    f: RhsFn, t_span: tuple[float, float], y0: Sequence[float],
    options: SolverOptions = SolverOptions(),
    recovery: RecoveryPolicy | None = None,
    checkpointer: "Checkpointer | None" = None,
    resume: "Checkpoint | None" = None,
) -> SolverResult:
    """Integrate with :class:`Rk45Stepper`; ``recovery``, ``checkpointer``
    and ``resume`` as in :func:`~repro.solver.driver.drive`."""
    return drive("rk45", Rk45Stepper, f, t_span, y0, options, recovery,
                 checkpointer, resume)

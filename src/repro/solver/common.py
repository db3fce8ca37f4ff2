"""Shared solver infrastructure: options, error norms, results.

The paper's solver is LSODA from ODEPACK [Hindmarsh; Petzold] — a
variable-step, variable-order code that switches between Adams (nonstiff)
and BDF (stiff) multistep families.  This subpackage rebuilds that solver
structure from scratch; see :mod:`repro.solver.lsoda` for the switching
driver.  "The system of ODEs is a function y'(t) = f(y(t), t) … The
function should be side-effect free to allow as much parallelism as
possible to be extracted" (section 2.4) — every method here treats the RHS
as an opaque callable, which is exactly what lets the parallel RHS facade
(:mod:`repro.runtime.parallel_rhs`) slot in transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "MAX_FACTOR",
    "MIN_FACTOR",
    "SAFETY",
    "SolverOptions",
    "SolverResult",
    "StepUnderflow",
    "Stats",
    "error_norm",
    "hermite",
    "initial_step",
    "step_factor",
    "validate_tspan",
]

RhsFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and step-size limits shared by every method."""

    rtol: float = 1e-6
    atol: float = 1e-9
    first_step: float | None = None
    max_step: float = np.inf
    min_step: float = 0.0
    max_steps: int = 100_000

    def __post_init__(self) -> None:
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.min_step < 0:
            raise ValueError("min_step must be non-negative")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class Stats:
    """Work counters, LSODA-style."""

    nfev: int = 0
    njev: int = 0
    nlu: int = 0
    nsteps: int = 0
    naccepted: int = 0
    nrejected: int = 0
    newton_iters: int = 0
    method_switches: int = 0


@dataclass
class SolverResult:
    """Solution of an initial value problem.

    ``ts`` are the accepted step points (or the requested ``t_eval``
    points), ``ys`` the states row-per-point.  ``success`` is False when
    the solver hit ``max_steps`` or the step size underflowed; ``message``
    explains.
    """

    ts: np.ndarray
    ys: np.ndarray
    success: bool
    message: str
    stats: Stats
    method: str
    #: per-accepted-step method family, for LSODA switch inspection
    method_log: list[str] = field(default_factory=list)

    @property
    def y_final(self) -> np.ndarray:
        return self.ys[-1]

    @property
    def t_final(self) -> float:
        return float(self.ts[-1])

    def __repr__(self) -> str:
        return (
            f"<SolverResult {self.method}: {len(self.ts)} points, "
            f"nfev={self.stats.nfev}, success={self.success}>"
        )


def error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
               rtol: float, atol: float) -> float:
    """Weighted RMS error norm (the ODEPACK convention)."""
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def validate_tspan(t0: float, t1: float) -> float:
    """Return the integration direction (+1/-1); reject empty spans."""
    if t1 == t0:
        raise ValueError("integration span is empty (t1 == t0)")
    return 1.0 if t1 > t0 else -1.0


def hermite(s, h: float, y0, dy0, y1, dy1):
    """Cubic Hermite interpolation at fraction ``s`` of a step of length
    ``h`` with end values ``y0``/``y1`` and derivatives ``dy0``/``dy1``."""
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return h00 * y0 + h10 * h * dy0 + h01 * y1 + h11 * h * dy1


#: the step-size controller's safety factor and default factor bounds
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


def step_factor(norm: float, order: int, lo: float, hi: float) -> float:
    """The one step-size rule: ``SAFETY * norm ** (-1 / (order + 1))``
    clamped to ``[lo, hi]``; a zero error norm grows by ``hi`` and a NaN
    one shrinks by ``lo``."""
    if norm == 0.0:
        return hi
    return min(hi, max(lo, SAFETY * norm ** (-1.0 / (order + 1))))


class StepUnderflow(Exception):
    """The next step is below ``min_step`` or no longer moves ``t``."""


def initial_step(
    f: RhsFn,
    t0: float,
    y0: np.ndarray,
    f0: np.ndarray,
    direction: float,
    order: int,
    rtol: float,
    atol: float,
    max_step: float,
) -> float:
    """Starting step-size heuristic (Hairer, Nørsett & Wanner, II.4).

    Costs one extra RHS evaluation.
    """
    scale = atol + np.abs(y0) * rtol
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1

    y1 = y0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (order + 1))
    return min(100 * h0, h1, max_step)

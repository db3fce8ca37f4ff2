"""Adams–Bashforth–Moulton multistep methods (nonstiff family).

The nonstiff half of the LSODA replacement: a PECE predictor–corrector of
variable order 1–4 with variable step size.  History is kept as RHS values
on a uniform grid; on step-size changes the grid is rebuilt by local
polynomial interpolation over a window of recent evaluations (the same
idea, if not the same bookkeeping, as ODEPACK's variable-coefficient
formulation).  The Milne device — the predictor/corrector difference —
provides the local error estimate.

"The computed solution … consists of a large number of calculated
approximations where every approximation depends on the previous one"
(section 2.2): each PECE step costs exactly two RHS evaluations, which is
what makes the RHS the hot spot the paper parallelises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .common import (
    RhsFn,
    SolverOptions,
    SolverResult,
    StepUnderflow,
    error_norm,
    step_factor,
)
from .driver import Stepper, drive
from .recovery import RecoveryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.checkpoint import Checkpoint, Checkpointer

__all__ = ["AdamsStepper", "adams_adaptive", "AB_COEFFS", "AM_COEFFS", "MILNE_C"]

MAX_ORDER = 4
_WINDOW = 3 * MAX_ORDER + 2

#: Adams–Bashforth predictor coefficients for orders 1..4 (newest first).
AB_COEFFS = {
    1: np.array([1.0]),
    2: np.array([3.0, -1.0]) / 2.0,
    3: np.array([23.0, -16.0, 5.0]) / 12.0,
    4: np.array([55.0, -59.0, 37.0, -9.0]) / 24.0,
}

#: Adams–Moulton corrector coefficients (f_new first, then history).
AM_COEFFS = {
    1: np.array([1.0]),
    2: np.array([1.0, 1.0]) / 2.0,
    3: np.array([5.0, 8.0, -1.0]) / 12.0,
    4: np.array([9.0, 19.0, -5.0, 1.0]) / 24.0,
}

#: Milne-device constants: local error ≈ MILNE_C[k] * (y_corrected - y_predicted).
MILNE_C = {1: 1.0 / 2.0, 2: 1.0 / 6.0, 3: 1.0 / 10.0, 4: 19.0 / 270.0}

#: |Adams–Moulton error constants|: local error at order j ≈
#: AM_ERR[j] * h * ∇^j f (backward difference of the RHS history).
AM_ERR = {1: 1.0 / 2.0, 2: 1.0 / 12.0, 3: 1.0 / 24.0, 4: 19.0 / 720.0}

#: binomial coefficients for backward differences ∇^j f, j = 1..4
_BDIFF = {
    1: np.array([1.0, -1.0]),
    2: np.array([1.0, -2.0, 1.0]),
    3: np.array([1.0, -3.0, 3.0, -1.0]),
    4: np.array([1.0, -4.0, 6.0, -4.0, 1.0]),
}

_MAX_GROWTH = 2.0
_MIN_SHRINK = 0.1


def _interpolate_window(
    ts: Sequence[float],
    fs: Sequence[np.ndarray],
    tq: float,
    npoints: int,
) -> np.ndarray:
    """Lagrange interpolation at ``tq`` through the ``npoints`` window
    entries nearest to ``tq`` (entries are time-ordered, newest last)."""
    idx = sorted(range(len(ts)), key=lambda i: abs(ts[i] - tq))[:npoints]
    result = np.zeros_like(fs[0])
    for i in idx:
        weight = 1.0
        for j in idx:
            if j != i:
                weight *= (tq - ts[j]) / (ts[i] - ts[j])
        result = result + weight * fs[i]
    return result


class AdamsStepper(Stepper):
    """One-step-at-a-time ABM integrator (run by :func:`adams_adaptive`
    and inside :class:`~repro.solver.lsoda.LsodaStepper`)."""

    family = "adams"

    def setup(self, f0: np.ndarray) -> None:
        self.order = 1
        # Uniform-grid history, newest first; _grid_h is its spacing
        # (self.h is the *desired* next step, which may differ until the
        # history is re-gridded).
        self._f_hist: list[np.ndarray] = [f0]
        self._grid_h = self.h
        # Raw evaluation window for re-gridding, time-ordered (oldest first).
        self._raw_t: list[float] = [self.t]
        self._raw_f: list[np.ndarray] = [f0]
        self._reject_streak = 0

    # -- internal helpers ------------------------------------------------------

    def _remember(self, t: float, fval: np.ndarray) -> None:
        self._raw_t.append(t)
        self._raw_f.append(fval)
        if len(self._raw_t) > _WINDOW:
            self._raw_t.pop(0)
            self._raw_f.pop(0)

    def _regrid(self, new_h: float) -> None:
        """Re-grid the uniform history to spacing ``new_h``.

        Interpolates as many past points as the raw window supports (up to
        ``MAX_ORDER``); the order is clamped to the points available but is
        otherwise preserved, so a step-size change does not restart the
        method at order 1.
        """
        span = abs(self._raw_t[-1] - self._raw_t[0])
        supported = 1
        for k in range(2, MAX_ORDER + 1):
            if (k - 1) * new_h <= span * (1 + 1e-12):
                supported = k
        npoints = min(len(self._raw_t), MAX_ORDER + 1)
        self._f_hist = [self._raw_f[-1]] + [
            _interpolate_window(self._raw_t, self._raw_f,
                                self.t - k * new_h * self.direction, npoints)
            for k in range(1, supported)
        ]
        self.h = new_h
        self._grid_h = new_h
        self.order = min(self.order, supported)

    def _select_order_and_step(self, h: float) -> None:
        """Classical Adams order/step selection after an accepted step.

        Estimates the local error the method *would* commit at orders
        ``k-1``, ``k`` and ``k+1`` from backward differences of the RHS
        history (local error at order j ≈ AM_ERR[j] · h · ∇^j f), then
        keeps the order with the best step-growth factor.  This is the
        ODEPACK selection rule adapted to the uniform-grid history.
        """
        options = self.options
        k = self.order
        best_factor = 0.0
        best_order = k
        for j in (k - 1, k, k + 1):
            if j < 1 or j > MAX_ORDER or len(self._f_hist) < j + 1:
                continue
            coeffs = _BDIFF[j]
            dj = coeffs @ np.array(self._f_hist[: j + 1])
            err_j = AM_ERR[j] * h * dj
            norm_j = error_norm(err_j, self.y, self.y, options.rtol, options.atol)
            factor_j = step_factor(norm_j, j, 0.0, _MAX_GROWTH)
            if factor_j > best_factor:
                best_factor = factor_j
                best_order = j
        self.order = best_order
        # Hysteresis: avoid re-gridding for marginal changes.
        if best_factor > 1.2 or best_factor < 0.9:
            self.h = min(self.h * max(best_factor, _MIN_SHRINK),
                         options.max_step)

    def reduce_step(self, factor: float) -> None:
        """Shrink the step after an external (RHS) failure and re-grid the
        history so the next attempt uses the smaller step."""
        self._regrid(max(self.h * factor, 1e-14))

    def snapshot(self) -> dict[str, Any]:
        return {"history": {
            "kind": "adams",
            "grid_h": self._grid_h,
            "f_hist": [fv.tolist() for fv in self._f_hist],
            "raw_t": list(self._raw_t),
            "raw_f": [fv.tolist() for fv in self._raw_f],
            "reject_streak": self._reject_streak,
        }}

    def restore(self, ckpt: "Checkpoint") -> None:
        history = ckpt.history
        if not history:
            return
        self.order = int(ckpt.order)
        self._grid_h = float(history["grid_h"])
        self._f_hist = [np.asarray(fv, float) for fv in history["f_hist"]]
        self._raw_t = [float(tv) for tv in history["raw_t"]]
        self._raw_f = [np.asarray(fv, float) for fv in history["raw_f"]]
        self._reject_streak = int(history["reject_streak"])

    def attempt(self, t_bound: float) -> bool:
        """One PECE attempt; the Milne device accepts or rejects it."""
        options = self.options
        h = min(self.h, abs(t_bound - self.t), options.max_step)
        if h < options.min_step or self.t + h * self.direction == self.t:
            raise StepUnderflow
        if h != self._grid_h:
            self._regrid(h)

        k = min(self.order, len(self._f_hist))
        hist = np.array(self._f_hist[:k])
        hd = h * self.direction

        y_pred = self.y + hd * (AB_COEFFS[k] @ hist)
        t_new = self.t + hd
        f_pred = self.f(t_new, y_pred)
        self.stats.nfev += 1

        am = AM_COEFFS[k]
        y_corr = self.y + hd * (
            am[0] * f_pred + (am[1:] @ hist[: k - 1] if k > 1 else 0.0)
        )
        err = MILNE_C[k] * (y_corr - y_pred)
        norm = error_norm(err, self.y, y_corr, options.rtol, options.atol)
        self.stats.nsteps += 1

        if norm <= 1.0:
            f_new = self.f(t_new, y_corr)
            self.stats.nfev += 1
            self.t = t_new
            self.y = y_corr
            self._f_hist.insert(0, f_new)
            del self._f_hist[MAX_ORDER + 1 :]
            self._remember(t_new, f_new)
            self.stats.naccepted += 1
            self._reject_streak = 0
            self._select_order_and_step(h)
            return True

        self.stats.nrejected += 1
        self._reject_streak += 1
        if self._reject_streak >= 2 and self.order > 1:
            self.order -= 1
        self._regrid(h * step_factor(norm, k, _MIN_SHRINK, 0.7))
        return False


def adams_adaptive(
    f: RhsFn, t_span: tuple[float, float], y0: Sequence[float],
    options: SolverOptions = SolverOptions(),
    recovery: RecoveryPolicy | None = None,
    checkpointer: "Checkpointer | None" = None,
    resume: "Checkpoint | None" = None,
) -> SolverResult:
    """Integrate with the variable-order ABM method alone (no switching);
    ``recovery``, ``checkpointer`` and ``resume`` as in
    :func:`~repro.solver.driver.drive`."""
    return drive("adams", AdamsStepper, f, t_span, y0, options, recovery,
                 checkpointer, resume)

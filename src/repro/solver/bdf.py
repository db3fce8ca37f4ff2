"""BDF multistep methods (stiff family).

The stiff half of the LSODA replacement: variable-order BDF(1–5) with
quasi-constant step size, a modified-Newton corrector with reused LU
factorisations, and Jacobian reuse across steps.  The formulation follows
the classic fixed-leading-coefficient implementation (Shampine & Reichelt's
ode15s / SciPy's BDF): the solution history is carried as backward
differences ``D`` that are rescaled when the step size changes.

"If the method used by the ODE-solver is implicit, the extrapolation point
is dependent on itself and calculated by iteration.  In that case it can be
necessary to calculate the Jacobian matrix" (section 2.4) — the Newton
iteration below is that loop, and :class:`~repro.solver.jacobian`
provides either the solver-internal finite-difference Jacobian or the
generated analytic one.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .common import (
    MAX_FACTOR,
    MIN_FACTOR,
    SAFETY,
    RhsFn,
    SolverOptions,
    SolverResult,
    Stats,
    StepUnderflow,
    step_factor,
)
from .driver import Stepper, drive
from .jacobian import FiniteDifferenceJacobian, JacobianProvider
from .recovery import RecoveryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.checkpoint import Checkpoint, Checkpointer

__all__ = ["BdfStepper", "bdf_adaptive"]

MAX_ORDER = 5
NEWTON_MAXITER = 4

_KAPPA = np.array([0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0])
_GAMMA = np.hstack((0.0, np.cumsum(1.0 / np.arange(1, MAX_ORDER + 1))))
_ALPHA = (1.0 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1.0 / np.arange(1, MAX_ORDER + 2)


def _compute_R(order: int, factor: float) -> np.ndarray:
    """The difference-rescaling matrix for a step-size change."""
    I = np.arange(1, order + 1)[:, None]
    J = np.arange(1, order + 1)
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1.0
    return np.cumprod(M, axis=0)


def _rms_norm(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x)))


class BdfStepper(Stepper):
    """One-step-at-a-time BDF integrator."""

    family = "bdf"

    def __init__(self, f: RhsFn, t0: float, y0: np.ndarray,
                 direction: float, options: SolverOptions, stats: Stats,
                 h0: float | None = None, *,
                 jac: JacobianProvider | None = None) -> None:
        self.jac_provider = jac or FiniteDifferenceJacobian(f, np.size(y0))
        super().__init__(f, t0, y0, direction, options, stats, h0)

    def setup(self, f0: np.ndarray) -> None:
        self.n = self.y.size
        self.order = 1
        self.n_equal_steps = 0
        self.D = np.zeros((MAX_ORDER + 3, self.n))
        self.D[0] = self.y
        self.D[1] = f0 * self.h * self.direction

        self._J: np.ndarray | None = None
        self._LU = None
        self._lu_h: float | None = None
        self._jac_fresh = False

    # -- linear algebra helpers -----------------------------------------------

    def _refresh_jacobian(self) -> None:
        f0 = self.f(self.t, self.y)
        self.stats.nfev += 1 + self.jac_provider.rhs_evals_per_call
        self._J = self.jac_provider(self.t, self.y, f0)
        self.stats.njev += 1
        self._jac_fresh = True
        self._LU = None

    def _factorise(self, c: float) -> None:
        # SciPy loads with the first factorisation, not with repro.solver
        from scipy.linalg import lu_factor

        assert self._J is not None
        self._LU = lu_factor(np.eye(self.n) - c * self._J)
        self._lu_h = self.h
        self.stats.nlu += 1

    def _change_step(self, factor: float) -> None:
        factor = max(MIN_FACTOR, min(factor, MAX_FACTOR))
        new_h = self.h * factor
        new_h = min(new_h, self.options.max_step)
        factor = new_h / self.h
        if factor != 1.0:
            R = _compute_R(self.order, factor)
            U = _compute_R(self.order, 1.0)
            RU = R.dot(U)
            self.D[: self.order + 1] = RU.T.dot(self.D[: self.order + 1])
            self.h = new_h
        self.n_equal_steps = 0
        self._LU = None

    def reduce_step(self, factor: float) -> None:
        """Shrink the step after an external (RHS) failure; the difference
        table is rescaled and the LU factorisation invalidated."""
        self._change_step(factor)

    def snapshot(self) -> dict[str, Any]:
        return {"history": {"kind": "bdf", "D": self.D.tolist(),
                            "n_equal_steps": self.n_equal_steps}}

    def restore(self, ckpt: "Checkpoint") -> None:
        """The Jacobian and LU are rebuilt on demand, so a resumed run is
        not bit-identical to an uninterrupted one."""
        if ckpt.history:
            self.order = int(ckpt.order)
            self.D = np.asarray(ckpt.history["D"], dtype=float)
            self.n_equal_steps = int(ckpt.history["n_equal_steps"])

    # -- the Newton corrector -----------------------------------------------------

    def _solve_corrector(
        self,
        t_new: float,
        y_predict: np.ndarray,
        c: float,
        psi: np.ndarray,
        scale: np.ndarray,
    ) -> tuple[bool, np.ndarray, np.ndarray]:
        """Modified-Newton iteration; returns (converged, y, d)."""
        from scipy.linalg import lu_solve

        d = np.zeros(self.n)
        y = y_predict.copy()
        dy_norm_old: float | None = None
        tol = max(10 * np.finfo(float).eps / self.options.rtol, 0.03)

        for _ in range(NEWTON_MAXITER):
            fval = self.f(t_new, y)
            self.stats.nfev += 1
            self.stats.newton_iters += 1
            if not np.all(np.isfinite(fval)):
                return False, y, d
            dy = lu_solve(self._LU, c * fval - psi - d)
            dy_norm = _rms_norm(dy / scale)
            rate = None if dy_norm_old is None or dy_norm_old == 0 else (
                dy_norm / dy_norm_old
            )
            if rate is not None and (
                rate >= 1 or rate ** (NEWTON_MAXITER) / (1 - rate) * dy_norm > tol
            ):
                return False, y, d
            y = y + dy
            d = d + dy
            if dy_norm == 0 or (
                rate is not None and rate / (1 - rate) * dy_norm < tol
            ):
                return True, y, d
            dy_norm_old = dy_norm
        return False, y, d

    # -- public stepping API --------------------------------------------------------

    def attempt(self, t_bound: float) -> bool:
        """One Newton-corrected attempt; the error test accepts or
        rejects it (Newton failures shrink the step within it)."""
        options = self.options
        if self.h > options.max_step:
            self._change_step(options.max_step / self.h)
        remaining = abs(t_bound - self.t)
        # Clamp to the boundary; _change_step bounds each factor at
        # MIN_FACTOR, so iterate until the step actually fits (never
        # step past t_bound).
        while self.h > remaining * (1.0 + 1e-12) and remaining > 0:
            self._change_step(remaining / self.h)
        order = self.order
        while True:
            h = self.h
            if h < options.min_step or self.t + h * self.direction == self.t:
                raise StepUnderflow
            t_new = self.t + h * self.direction
            y_predict = self.D[: order + 1].sum(axis=0)
            scale = options.atol + options.rtol * np.abs(y_predict)
            psi = self.D[1 : order + 1].T.dot(
                _GAMMA[1 : order + 1]
            ) / _ALPHA[order]
            c = h * self.direction / _ALPHA[order]
            if self._J is None:
                self._refresh_jacobian()
            if self._LU is None or self._lu_h != self.h:
                self._factorise(c)
            converged, y_new, d = self._solve_corrector(
                t_new, y_predict, c, psi, scale
            )
            if converged:
                break
            if not self._jac_fresh:
                self._refresh_jacobian()
                continue
            # Fresh Jacobian and still no convergence: reduce the step.
            self._change_step(0.5)
            self.stats.nrejected += 1

        self.stats.nsteps += 1
        scale = options.atol + options.rtol * np.abs(y_new)
        error = _ERROR_CONST[order] * d
        error_norm_value = _rms_norm(error / scale)

        if error_norm_value > 1.0:
            self.stats.nrejected += 1
            self._change_step(
                step_factor(error_norm_value, order, MIN_FACTOR, MAX_FACTOR)
            )
            return False

        # -- accepted -------------------------------------------------------
        self.stats.naccepted += 1
        self.n_equal_steps += 1
        self.t = t_new
        self.y = y_new
        self._jac_fresh = False

        D = self.D
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if self.n_equal_steps < order + 1:
            return True

        # Order and step-size selection.
        if order > 1:
            error_m = _ERROR_CONST[order - 1] * D[order]
            error_m_norm = _rms_norm(error_m / scale)
        else:
            error_m_norm = np.inf
        if order < MAX_ORDER:
            error_p = _ERROR_CONST[order + 1] * D[order + 2]
            error_p_norm = _rms_norm(error_p / scale)
        else:
            error_p_norm = np.inf

        error_norms = np.array(
            [error_m_norm, error_norm_value, error_p_norm]
        )
        with np.errstate(divide="ignore"):
            factors = error_norms ** (
                -1.0 / np.arange(order, order + 3)
            )
        delta_order = int(np.argmax(factors)) - 1
        self.order = order = order + delta_order
        factor = min(MAX_FACTOR, SAFETY * float(np.max(factors)))
        self._change_step(factor)
        return True


def bdf_adaptive(
    f: RhsFn, t_span: tuple[float, float], y0: Sequence[float],
    options: SolverOptions = SolverOptions(),
    jac: JacobianProvider | None = None,
    recovery: RecoveryPolicy | None = None,
    checkpointer: "Checkpointer | None" = None,
    resume: "Checkpoint | None" = None,
) -> SolverResult:
    """Integrate with the BDF method alone (no family switching);
    ``recovery``, ``checkpointer`` and ``resume`` as in
    :func:`~repro.solver.driver.drive`."""
    return drive("bdf", functools.partial(BdfStepper, jac=jac), f, t_span,
                 y0, options, recovery, checkpointer, resume)

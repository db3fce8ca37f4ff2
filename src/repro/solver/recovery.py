"""Shared RHS-failure recovery for every stepper family.

The solvers treat the right-hand side as an opaque callable (section 2.4);
when that callable is the parallel runtime, it can fail in ways a pure
function cannot — a worker dies, an injected fault fires, a task emits
NaN.  This module is the one policy for those failures, applied by the
adaptive loop every method runs under (:func:`repro.solver.driver.drive`):

* :class:`GuardedRhs` wraps the RHS and converts both raised exceptions
  and non-finite return values into a typed :class:`RhsError`,
* on :class:`RhsError` the loop shrinks the step by
  ``RecoveryPolicy.shrink_factor`` and retries, up to
  ``RecoveryPolicy.max_retries`` consecutive failed attempts,
* exhausted recovery surfaces a structured :class:`SolverFailure`
  carrying the last good ``(t, y)`` and the partial trajectory, so a
  caller (or the checkpoint layer) can restart from known-good state.

Without a policy exceptions propagate raw and non-finite values flow
into the error norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import RhsFn

__all__ = [
    "GuardedRhs",
    "RecoveryPolicy",
    "RhsError",
    "SolverFailure",
    "construct_with_retry",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Shrink-and-retry policy for RHS failures inside a stepper.

    ``max_retries`` bounds *consecutive* failed attempts (any attempt
    whose RHS calls all answer, accepted or rejected, resets the count);
    each retry multiplies the step size by ``shrink_factor``.
    """

    max_retries: int = 5
    shrink_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if not (0.0 < self.shrink_factor < 1.0):
            raise ValueError("shrink_factor must be in (0, 1)")


class RhsError(RuntimeError):
    """The RHS raised, or returned non-finite values, at time ``t``."""

    def __init__(self, t: float, cause: BaseException | None = None,
                 non_finite: bool = False) -> None:
        reason = ("non-finite RHS value" if non_finite
                  else f"RHS raised {type(cause).__name__}")
        super().__init__(f"{reason} at t={t:g}")
        self.t = t
        self.cause = cause
        self.non_finite = non_finite


class SolverFailure(RuntimeError):
    """Recovery exhausted: a structured failure with the last good state.

    ``t_last``/``y_last`` are the most recent *accepted* solver state;
    ``ts``/``ys`` hold the partial trajectory up to that point, so the
    caller can checkpoint, re-mesh, or resume with different settings.
    """

    def __init__(
        self,
        method: str,
        t_last: float,
        y_last: np.ndarray,
        retries: int,
        reason: str,
        ts: np.ndarray | None = None,
        ys: np.ndarray | None = None,
        cause: BaseException | None = None,
    ) -> None:
        super().__init__(
            f"{method}: unrecoverable RHS failure after {retries} "
            f"shrink-and-retry attempts at t={t_last:g} ({reason})"
        )
        self.method = method
        self.t_last = float(t_last)
        self.y_last = np.asarray(y_last, dtype=float).copy()
        self.retries = retries
        self.reason = reason
        self.ts = ts
        self.ys = ys
        self.cause = cause


class GuardedRhs:
    """RHS wrapper that converts failures into :class:`RhsError`.

    Counts failures (``nerrors``) and distinguishes raised exceptions from
    silently non-finite values; the adaptive loop uses it only when a
    :class:`RecoveryPolicy` is active, so the unguarded fast path is
    untouched.
    """

    def __init__(self, f: RhsFn) -> None:
        self.f = f
        self.nerrors = 0
        if getattr(f, "eval_stages", None) is not None:
            self.eval_stages = self._eval_stages

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return self._guarded(t, self.f, (t, y))

    def _eval_stages(self, t, y, hd, k, a, c) -> None:
        """The K-stage path of an RHS with ``eval_stages``: the trial
        stages ``k[1:]`` it fills are checked like one return value."""
        self._guarded(t, self.f.eval_stages, (t, y, hd, k, a, c), k[1:])

    def _guarded(self, t: float, fn, args: tuple, out=None):
        try:
            ret = fn(*args)
        except RhsError:
            self.nerrors += 1
            raise
        except Exception as exc:
            self.nerrors += 1
            raise RhsError(t, cause=exc) from exc
        if not np.all(np.isfinite(ret if out is None else out)):
            self.nerrors += 1
            raise RhsError(t, non_finite=True)
        return ret


def construct_with_retry(factory, policy: RecoveryPolicy | None,
                         method: str, t0: float, y0: np.ndarray):
    """Run ``factory`` (stepper construction / point RHS evaluation),
    retrying on :class:`RhsError`.

    Step shrinking cannot help a failure at a fixed evaluation point, but
    transient runtime faults (a worker retry that eventually lands) can
    clear on re-evaluation; bounded by ``policy.max_retries``.
    """
    retries = 0
    while True:
        try:
            return factory()
        except RhsError as exc:
            retries += 1
            if policy is None or retries > policy.max_retries:
                raise SolverFailure(
                    method, t0, y0, retries, str(exc), cause=exc
                ) from exc

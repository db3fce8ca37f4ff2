"""LSODA-style stiffness-switching driver.

"We have used a solver named LSODA from the ODE-solver package ODEPACK.
…  It is one of the solvers which implements BDF (backward differentiation
formulas) methods, which are usually used to solve stiff ODEs" (section
3.2.1).  LSODA [Petzold 1983] automatically selects between the nonstiff
Adams family and the stiff BDF family.

This driver reproduces that structure: it integrates with
:class:`~repro.solver.adams.AdamsStepper` until a stiffness indicator
(step size × estimated Jacobian spectral radius, the classic stability-
bound test) says the step size is stability-limited, then switches to
:class:`~repro.solver.bdf.BdfStepper`; it switches back when the BDF step
is far inside the explicit stability region.  The spectral radius is
estimated by nonlinear power iteration on RHS differences, so no Jacobian
is formed while running the nonstiff family.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .adams import AdamsStepper
from .bdf import BdfStepper
from .common import RhsFn, SolverOptions, SolverResult, Stats
from .driver import Stepper, drive
from .jacobian import JacobianProvider
from .recovery import RecoveryPolicy, RhsError, construct_with_retry

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.checkpoint import Checkpoint, Checkpointer

__all__ = ["LsodaStepper", "lsoda_adaptive", "estimate_spectral_radius"]

#: switch Adams -> BDF when h * rho exceeds this (AB4's real-axis stability
#: interval is about 0.3; the margin keeps borderline problems on Adams)
STIFF_THRESHOLD = 0.6
#: switch BDF -> Adams when h * rho falls below this
NONSTIFF_THRESHOLD = 0.1
#: steps between stiffness checks
CHECK_EVERY = 25
#: the switching state a checkpoint's ``driver`` dict holds
_COUNTERS = ("steps_since_check", "switch_votes", "grace")


def estimate_spectral_radius(
    f: RhsFn,
    t: float,
    y: np.ndarray,
    f0: np.ndarray,
    stats: Stats | None = None,
    iters: int = 8,
    seed: int = 0,
) -> float:
    """Estimate the spectral radius of ``df/dy`` by power iteration on
    finite RHS differences (costs ``iters`` RHS evaluations)."""
    n = y.size
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v_norm = np.linalg.norm(v)
    if v_norm == 0:
        return 0.0
    v /= v_norm
    eps = np.sqrt(np.finfo(float).eps) * max(float(np.linalg.norm(y)), 1.0)
    rho = 0.0
    for _ in range(iters):
        fv = f(t, y + eps * v)
        if stats is not None:
            stats.nfev += 1
        jv = (fv - f0) / eps
        norm = float(np.linalg.norm(jv))
        if norm == 0.0 or not np.isfinite(norm):
            break
        rho = norm
        v = jv / norm
    return rho


class LsodaStepper(Stepper):
    """An Adams or BDF stepper that switches family on its own.

    The stiffness check and the switch happen inside the accepted step
    that reaches :data:`CHECK_EVERY`, so a checkpoint taken after it holds
    the post-check counters and family, and a resumed run checks and
    switches exactly where the uninterrupted one does.
    """

    def __init__(self, f: RhsFn, t0: float, y0: np.ndarray,
                 direction: float, options: SolverOptions, stats: Stats,
                 h0: float | None = None, *, family: str = "adams",
                 jac: JacobianProvider | None = None,
                 recovery: RecoveryPolicy | None = None,
                 method_log: list[str] | None = None) -> None:
        self.f, self.direction = f, direction
        self.options, self.stats = options, stats
        self.jac, self.recovery = jac, recovery
        #: the family of every accepted step, in order
        self.method_log = [] if method_log is None else method_log
        self.inner = self._build(family, t0, y0, h0)
        self.steps_since_check = 0
        #: consecutive checks agreeing that a switch is warranted
        #: (debounce: one noisy spectral-radius estimate must not flip
        #: the family)
        self.switch_votes = 0
        self.grace = 0

    def _build(self, family: str, t: float, y: np.ndarray,
               h0: float | None) -> AdamsStepper | BdfStepper:
        if family == "bdf":
            return BdfStepper(self.f, t, y, self.direction, self.options,
                              self.stats, h0, jac=self.jac)
        return AdamsStepper(self.f, t, y, self.direction, self.options,
                            self.stats, h0)

    t = property(lambda self: self.inner.t)
    y = property(lambda self: self.inner.y)
    h = property(lambda self: self.inner.h)
    order = property(lambda self: self.inner.order)
    family = property(lambda self: self.inner.family)

    def reduce_step(self, factor: float) -> None:
        self.inner.reduce_step(factor)

    def snapshot(self) -> dict[str, Any]:
        return {**self.inner.snapshot(), "family": self.inner.family,
                "driver": {k: getattr(self, k) for k in _COUNTERS}}

    def restore(self, ckpt: "Checkpoint") -> None:
        self.inner.restore(ckpt)
        for k in _COUNTERS:
            setattr(self, k, int((ckpt.driver or {}).get(k, 0)))

    def attempt(self, t_bound: float) -> bool:
        if not self.inner.attempt(t_bound):
            return False
        self.method_log.append(self.inner.family)
        self.steps_since_check += 1
        if (self.steps_since_check >= CHECK_EVERY
                and (t_bound - self.t) * self.direction > 0):
            self.steps_since_check = 0
            if self.grace > 0:
                self.grace -= 1
            else:
                self._check_stiffness()
        return True

    def _check_stiffness(self) -> None:
        inner, stats = self.inner, self.stats
        try:
            f_now = self.f(inner.t, inner.y)
            stats.nfev += 1
            rho = estimate_spectral_radius(self.f, inner.t, inner.y, f_now,
                                           stats)
        except RhsError:
            # The stiffness probe is advisory; a transient RHS fault here
            # just skips this check rather than failing the run.
            return
        h_rho = inner.h * rho
        wants_switch = (
            inner.family == "adams" and h_rho > STIFF_THRESHOLD
        ) or (inner.family == "bdf" and h_rho < NONSTIFF_THRESHOLD)
        self.switch_votes = self.switch_votes + 1 if wants_switch else 0
        if self.switch_votes < 2:
            return
        self.switch_votes = 0
        self.grace = 2
        stats.method_switches += 1
        target = "bdf" if inner.family == "adams" else "adams"
        # The new family starts as a fresh run would: options.first_step
        # or the heuristic, never a resumed run's checkpointed step.
        self.inner = construct_with_retry(
            lambda: self._build(target, inner.t, inner.y, None),
            self.recovery, "lsoda", inner.t, inner.y,
        )


def lsoda_adaptive(
    f: RhsFn, t_span: tuple[float, float], y0: Sequence[float],
    options: SolverOptions = SolverOptions(),
    jac: JacobianProvider | None = None,
    recovery: RecoveryPolicy | None = None,
    checkpointer: "Checkpointer | None" = None,
    resume: "Checkpoint | None" = None,
) -> SolverResult:
    """Integrate with automatic Adams/BDF switching (:class:`LsodaStepper`);
    ``recovery``, ``checkpointer`` and ``resume`` as in
    :func:`~repro.solver.driver.drive`.  Checkpoints also record the
    active family and the switching counters."""
    method_log: list[str] = []

    def build(rhs, t0, y0, direction, options, stats, h0):
        return LsodaStepper(
            rhs, t0, y0, direction, options, stats, h0,
            family=getattr(resume, "family", None) or "adams",
            jac=jac, recovery=recovery, method_log=method_log,
        )

    result = drive("lsoda", build, f, t_span, y0, options, recovery,
                   checkpointer, resume)
    result.method_log = method_log
    return result

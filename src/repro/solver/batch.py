"""Batched ensemble integration: many independent IVPs in lockstep.

The scaling direction of the roadmap — one process serving many concurrent
simulations — wants the *solver* batched, not just the RHS: advancing 64
trajectories one ``solve_ivp`` at a time pays 64× the Python interpreter
overhead per step, while a vectorized RHS (the NumPy code-generation
back end) amortises it across the whole stack.

:func:`solve_ivp_batch` advances a stack of independent initial-condition
/ parameter sets through one adaptive integrator in lockstep:

* the RHS is the *batched* signature ``f(t, Y) -> Ydot`` over states of
  shape ``(batch, n)``, where ``t`` may be a ``(batch,)`` array (the
  closures from ``GeneratedProgram.make_rhs_batch`` and the runtime's
  ``EnsembleRHS`` facade have exactly this shape),
* every trajectory keeps its **own** clock, step size and error control;
  acceptance and rejection are per-trajectory boolean masks, so a stiff
  lane re-tries with a smaller step while its neighbours advance,
* finished or failed lanes are frozen (masked out) and the loop runs
  until every lane either reached ``t1`` or failed.

Two method families are implemented, mirroring the scalar drivers:

* ``"rk45"`` — Dormand–Prince 5(4) with FSAL, the tableau shared with
  :func:`repro.solver.rk.rk45_adaptive`,
* ``"adams"`` — an Adams–Bashforth–Moulton PECE with a per-trajectory
  order ramp (1 → 4): a lane restarts at order one whenever *its* step
  size changes (the uniform-grid history is invalid there) and regains
  one order per accepted step, the classic fixed-coefficient strategy.

Lanes whose trial step produces non-finite values treat the step as
rejected and shrink, which is the masked analogue of the scalar solvers'
recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adams import AB_COEFFS, AM_COEFFS, MILNE_C
from .common import (MAX_FACTOR, MIN_FACTOR, SAFETY, SolverResult, Stats,
                     validate_tspan)
from .rk import DOPRI_A, DOPRI_B4, DOPRI_B5, DOPRI_C

__all__ = ["solve_ivp_batch", "BatchResult", "BATCH_METHODS"]

BATCH_METHODS = ("rk45", "adams")

#: Adams order-indexed coefficient tables, zero-padded to rectangular form
#: so a ``(batch,)`` order vector can gather its rows in one fancy index.
_AB_MAT = np.zeros((5, 4))
_AM_MAT = np.zeros((5, 5))
for _q, _c in AB_COEFFS.items():
    _AB_MAT[_q, : len(_c)] = _c
for _q, _c in AM_COEFFS.items():
    _AM_MAT[_q, : len(_c)] = _c
_MILNE = np.array([np.inf] + [MILNE_C[q] for q in (1, 2, 3, 4)])


@dataclass
class BatchResult:
    """Results of one lockstep ensemble integration.

    ``results[i]`` is the i-th trajectory's :class:`SolverResult`, exactly
    as a sequential ``solve_ivp`` call would have produced (its ``stats``
    count that lane's logical work).  ``nsweeps`` counts batched RHS
    evaluations — the number of times the vectorized ``f`` ran over the
    whole stack, the quantity that actually costs wall-clock time.
    """

    results: list[SolverResult]
    nsweeps: int
    method: str

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, i: int) -> SolverResult:
        return self.results[i]

    @property
    def all_success(self) -> bool:
        return all(r.success for r in self.results)

    @property
    def ys_final(self) -> np.ndarray:
        return np.stack([r.y_final for r in self.results])

    def __repr__(self) -> str:
        ok = sum(r.success for r in self.results)
        return (
            f"<BatchResult {self.method}: {len(self.results)} trajectories, "
            f"{ok} succeeded, {self.nsweeps} batched RHS sweeps>"
        )


def _rms_norm(err: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per-trajectory weighted RMS norm; non-finite lanes norm to +inf."""
    with np.errstate(all="ignore"):
        norm = np.sqrt(np.mean((err / scale) ** 2, axis=-1))
    return np.where(np.isfinite(norm), norm, np.inf)


def _initial_steps(
    f, t0: float, Y: np.ndarray, F0: np.ndarray, direction: float,
    order: int, rtol: float, atol: float, max_step: float,
) -> np.ndarray:
    """Vectorized Hairer–Nørsett–Wanner starting-step heuristic (one sweep)."""
    with np.errstate(all="ignore"):
        scale = atol + np.abs(Y) * rtol
        d0 = np.sqrt(np.mean((Y / scale) ** 2, axis=-1))
        d1 = np.sqrt(np.mean((F0 / scale) ** 2, axis=-1))
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        Y1 = Y + h0[:, None] * direction * F0
        F1 = f(t0 + h0 * direction, Y1)
        d2 = np.sqrt(np.mean(((F1 - F0) / scale) ** 2, axis=-1)) / h0
        tiny = (d1 <= 1e-15) & (d2 <= 1e-15)
        h1 = np.where(
            tiny,
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(np.maximum(d1, d2), 1e-300))
            ** (1.0 / (order + 1)),
        )
        h = np.minimum(np.minimum(100 * h0, h1), max_step)
    return np.where(np.isfinite(h) & (h > 0), h, 1e-6)


class _Recorder:
    """Per-trajectory accepted-point storage and work counters."""

    def __init__(self, t0: float, Y: np.ndarray) -> None:
        batch = Y.shape[0]
        self.ts = [[t0] for _ in range(batch)]
        self.ys = [[Y[i].copy()] for i in range(batch)]
        self.stats = [Stats() for _ in range(batch)]
        self.failed_message = [""] * batch

    def record(self, lanes: np.ndarray, t: np.ndarray, Y: np.ndarray) -> None:
        for i in np.nonzero(lanes)[0]:
            self.ts[i].append(float(t[i]))
            self.ys[i].append(Y[i].copy())

    def fail(self, lanes: np.ndarray, message: str) -> None:
        for i in np.nonzero(lanes)[0]:
            self.failed_message[i] = message

    def build(self, method: str, nsweeps: int) -> BatchResult:
        results = []
        for i in range(len(self.ts)):
            message = self.failed_message[i] or "reached end of span"
            results.append(
                SolverResult(
                    ts=np.array(self.ts[i]),
                    ys=np.array(self.ys[i]),
                    success=not self.failed_message[i],
                    message=message,
                    stats=self.stats[i],
                    method=method,
                )
            )
        return BatchResult(results=results, nsweeps=nsweeps, method=method)


def _charge(stats_list, lanes: np.ndarray, **counts: int) -> None:
    for i in np.nonzero(lanes)[0]:
        s = stats_list[i]
        for name, value in counts.items():
            setattr(s, name, getattr(s, name) + value)


def solve_ivp_batch(
    f,
    t_span: tuple[float, float],
    Y0: Sequence[Sequence[float]] | np.ndarray,
    method: str = "rk45",
    rtol: float = 1e-6,
    atol: float = 1e-9,
    first_step: float | None = None,
    max_step: float = np.inf,
    max_steps: int = 100_000,
) -> BatchResult:
    """Integrate a stack of independent IVPs ``Y' = f(t, Y)`` in lockstep.

    ``Y0`` has shape ``(batch, n)``; ``f`` is a batched RHS accepting a
    ``(batch,)`` time array (``GeneratedProgram.make_rhs_batch`` /
    ``EnsembleRHS`` qualify).  Per-trajectory adaptive stepping: each lane
    has its own step size and error control, and lanes accept, reject,
    finish or fail independently through boolean masks.  Returns a
    :class:`BatchResult` of per-trajectory :class:`SolverResult`\\ s.
    """
    if method not in BATCH_METHODS:
        raise ValueError(
            f"unknown batch method {method!r}; choose from {BATCH_METHODS}"
        )
    t0, t1 = float(t_span[0]), float(t_span[1])
    direction = validate_tspan(t0, t1)
    Y = np.array(Y0, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y0 must have shape (batch, num_states)")
    if method == "rk45":
        return _rk45_batch(
            f, t0, t1, direction, Y, rtol, atol, first_step, max_step,
            max_steps,
        )
    return _adams_batch(
        f, t0, t1, direction, Y, rtol, atol, first_step, max_step, max_steps
    )


# ---------------------------------------------------------------------------
# Dormand–Prince 5(4), batched
# ---------------------------------------------------------------------------


def _rk45_batch(
    f, t0, t1, direction, Y, rtol, atol, first_step, max_step, max_steps
) -> BatchResult:
    batch, n = Y.shape
    rec = _Recorder(t0, Y)
    nsweeps = 0

    K = np.empty((7, batch, n))
    # Copy the seed evaluation out of the RHS's buffer immediately: an
    # output-reusing RHS (EnsembleRHS) overwrites its return value on the
    # next sweep, and both the FSAL slot and the starting-step heuristic
    # need it after that.
    K[0] = f(np.full(batch, t0), Y)
    nsweeps += 1
    _charge(rec.stats, np.ones(batch, bool), nfev=1)
    if first_step is not None:
        h = np.full(batch, min(abs(first_step), max_step))
    else:
        h = _initial_steps(f, t0, Y, K[0], direction, 4, rtol, atol, max_step)
        nsweeps += 1
        _charge(rec.stats, np.ones(batch, bool), nfev=1)
    h = np.maximum(h, 1e-14)

    t = np.full(batch, t0)
    active = np.ones(batch, bool)
    steps = np.zeros(batch, dtype=int)

    while active.any():
        over = active & (steps >= max_steps)
        if over.any():
            rec.fail(over, f"maximum step count {max_steps} exceeded")
            active &= ~over
            if not active.any():
                break
        h_eff = np.minimum(np.minimum(h, np.abs(t1 - t)), max_step)
        underflow = active & (t + h_eff * direction == t)
        if underflow.any():
            rec.fail(underflow, "step size underflow")
            active &= ~underflow
            if not active.any():
                break
        steps += active
        _charge(rec.stats, active, nsteps=1, nfev=6)

        hd = (h_eff * direction)[:, None]
        for i in range(1, 7):
            dY = np.tensordot(DOPRI_A[i], K[:i], axes=1) * hd
            K[i] = f(t + DOPRI_C[i] * h_eff * direction, Y + dY)
        nsweeps += 6

        with np.errstate(all="ignore"):
            Ynew = Y + hd * np.tensordot(DOPRI_B5, K, axes=1)
            err = h_eff[:, None] * np.tensordot(DOPRI_B5 - DOPRI_B4, K, axes=1)
            scale = atol + rtol * np.maximum(np.abs(Y), np.abs(Ynew))
        norm = _rms_norm(err, scale)

        accept = active & (norm <= 1.0)
        reject = active & ~accept

        t = np.where(accept, t + h_eff * direction, t)
        Y = np.where(accept[:, None], Ynew, Y)
        K[0] = np.where(accept[:, None], K[6], K[0])  # FSAL
        rec.record(accept, t, Y)
        _charge(rec.stats, accept, naccepted=1)
        _charge(rec.stats, reject, nrejected=1)

        with np.errstate(all="ignore"):
            grow = np.where(
                norm == 0.0,
                MAX_FACTOR,
                np.minimum(MAX_FACTOR, SAFETY * norm ** -0.2),
            )
            shrink = np.maximum(MIN_FACTOR, SAFETY * norm ** -0.2)
        factor = np.where(accept, grow, np.where(reject, shrink, 1.0))
        h = np.where(active, h_eff * factor, h)

        done = accept & ((t1 - t) * direction <= 0)
        active &= ~done

    return rec.build("rk45", nsweeps)


# ---------------------------------------------------------------------------
# Adams–Bashforth–Moulton PECE, batched, per-lane order ramp
# ---------------------------------------------------------------------------


def _adams_batch(
    f, t0, t1, direction, Y, rtol, atol, first_step, max_step, max_steps
) -> BatchResult:
    batch, n = Y.shape
    rec = _Recorder(t0, Y)
    nsweeps = 0

    # RHS history, newest first, on each lane's own uniform grid.  Seven
    # entries, not four: rows 0..3 feed the order-≤4 formulas, and the
    # deeper tail is what lets a step doubling keep full order — at
    # exactly 2× the even-indexed entries (t, t−2h, t−4h, t−6h) fall on
    # the new grid, a four-deep order-4 history.
    F = np.zeros((7, batch, n))
    F[0] = f(np.full(batch, t0), Y)
    nsweeps += 1
    _charge(rec.stats, np.ones(batch, bool), nfev=1)
    if first_step is not None:
        h = np.full(batch, min(abs(first_step), max_step))
    else:
        h = _initial_steps(f, t0, Y, F[0], direction, 1, rtol, atol, max_step)
        nsweeps += 1
        _charge(rec.stats, np.ones(batch, bool), nfev=1)
    h = np.minimum(np.maximum(h, 1e-14), max_step)

    t = np.full(batch, t0)
    # Per-lane count of history entries valid at the lane's *current*
    # uniform spacing (1..7); the step order is ``min(depth, 4)``.  The
    # scalar stepper re-grids by interpolation on spacing changes; here a
    # generic spacing change restarts the ramp at depth one and regains
    # one entry per accepted step, while the doubling fast path keeps
    # full order via the even-index gather.
    depth = np.ones(batch, dtype=int)
    active = np.ones(batch, bool)
    steps = np.zeros(batch, dtype=int)
    # Speculative-growth rollback state: a doubled step that is rejected
    # on its first attempt restores the saved spacing-h history instead of
    # collapsing the lane to order one (the death-spiral otherwise: every
    # overshoot would restart the ramp from an order-1-sized step).
    grew = np.zeros(batch, bool)
    F1_save = np.zeros((batch, n))
    F3_save = np.zeros((batch, n))
    h_save = np.zeros(batch)
    # Accepted steps a lane must wait after a rolled-back doubling before
    # probing again — without it a lane at its stability boundary would
    # pay one rejected double for every accepted step.
    cooldown = np.zeros(batch, dtype=int)

    while active.any():
        over = active & (steps >= max_steps)
        if over.any():
            rec.fail(over, f"maximum step count {max_steps} exceeded")
            active &= ~over
            if not active.any():
                break
        h_eff = np.minimum(h, np.abs(t1 - t))
        # A clamped final step changes the lane's grid spacing, so its
        # history depth collapses to one (F[0] is still f at the current
        # point, valid for an order-one step at any spacing).
        depth = np.where(active & (h_eff < h), 1, depth)
        underflow = active & (t + h_eff * direction == t)
        if underflow.any():
            rec.fail(underflow, "step size underflow")
            active &= ~underflow
            if not active.any():
                break
        steps += active
        _charge(rec.stats, active, nsteps=1, nfev=2)

        k = np.minimum(depth, 4)  # per-lane formula order this attempt
        hd = (h_eff * direction)[:, None]
        t_new = t + h_eff * direction
        with np.errstate(all="ignore"):
            # Predict (AB_k over each lane's own history prefix).
            pred = Y + hd * np.einsum("bj,jbn->bn", _AB_MAT[k], F[:4])
            f_pred = f(t_new, pred)
            # Correct (AM_k: the f_new term plus the history tail).
            corr = Y + hd * (
                _AM_MAT[k, 0][:, None] * f_pred
                + np.einsum("bj,jbn->bn", _AM_MAT[k, 1:], F[:4])
            )
            err = _MILNE[k][:, None] * (corr - pred)
            scale = atol + rtol * np.maximum(np.abs(Y), np.abs(corr))
        nsweeps += 1
        norm = _rms_norm(err, scale)

        accept = active & (norm <= 1.0)
        reject = active & ~accept

        if accept.any():
            f_corr = f(t_new, corr)  # the final E of PECE, kept as history
            nsweeps += 1
            F[1:] = np.where(accept[None, :, None], F[:6], F[1:])
            F[0] = np.where(accept[:, None], f_corr, F[0])
        t = np.where(accept, t_new, t)
        Y = np.where(accept[:, None], corr, Y)
        rec.record(accept, t, Y)
        _charge(rec.stats, accept, naccepted=1)
        _charge(rec.stats, reject, nrejected=1)

        # Each accepted step deepens the valid uniform history by one.
        depth = np.where(accept, np.minimum(depth + 1, 7), depth)

        with np.errstate(all="ignore"):
            shrink = np.clip(
                SAFETY * norm ** (-1.0 / (k + 1.0)), MIN_FACTOR, 1.0
            )
        # A rejected first attempt after a doubling rolls the growth back:
        # the pre-doubling history is still valid at the saved spacing, so
        # the lane resumes at full depth instead of restarting the ramp.
        rollback = reject & grew
        plain_reject = reject & ~grew
        if rollback.any():
            rb = rollback[:, None]
            F[2] = np.where(rb, F[1], F[2])  # F[1] still holds the old row 2
            F[1] = np.where(rb, F1_save, F[1])
            F[3] = np.where(rb, F3_save, F[3])
            h = np.where(rollback, h_save, h)
            depth = np.where(rollback, 7, depth)
            cooldown = np.where(rollback, 16, cooldown)
        h = np.where(plain_reject, h_eff * shrink, h)
        depth = np.where(plain_reject, 1, depth)
        grew &= ~(accept | reject)  # attempt completed either way
        cooldown = np.where(accept, np.maximum(cooldown - 1, 0), cooldown)

        # Growth: double the step for comfortably converged lanes with a
        # full seven-deep history.  The even-index gather (rows 0,2,4,6 →
        # 0,1,2,3; rows 4..6 untouched) re-grids to spacing 2h at full
        # order-4 depth — the vectorizable special case of the scalar
        # stepper's interpolating re-grid.  norm < 0.02 keeps the doubled
        # step's predicted error (≈ 2^5 × norm at order 4) under one.
        can_grow = accept & (depth >= 7) & (norm < 0.02) & (cooldown == 0)
        if can_grow.any():
            cg = can_grow[:, None]
            F1_save = np.where(cg, F[1], F1_save)
            F3_save = np.where(cg, F[3], F3_save)
            h_save = np.where(can_grow, h, h_save)
            F[1] = np.where(cg, F[2], F[1])
            F[2] = np.where(cg, F[4], F[2])
            F[3] = np.where(cg, F[6], F[3])
            h = np.where(can_grow, np.minimum(h * 2.0, max_step), h)
            depth = np.where(can_grow, 4, depth)
            grew |= can_grow

        done = accept & ((t1 - t) * direction <= 0)
        active &= ~done

    return rec.build("adams", nsweeps)

"""The one adaptive driver: tripwire pins and the loop's own rules.

rk45, adams, bdf and lsoda run under one loop (``repro.solver.driver``).
The pins below were computed before the four per-method loops were folded
into it; any drift in step sequence, work counts or checkpoint payload
shows up here first.  ``Stats`` pins are exact counts; the ``ys`` and
checkpoint pins are sha256 digests of the float bytes, so they also catch
a change in floating-point evaluation order.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.runtime import Checkpointer, load_checkpoint
from repro.solver import RecoveryPolicy, solve_ivp


def oscillator(t, y):
    return np.array([y[1], -4.0 * y[0] - 0.1 * y[1]])


def vdp5(t, y):
    """Van der Pol, mu = 5: LSODA switches Adams -> BDF -> Adams on (0, 20)."""
    return np.array([y[1], 5.0 * (1 - y[0] ** 2) * y[1] - y[0]])


def robertson(t, y):
    return np.array([
        -0.04 * y[0] + 1e4 * y[1] * y[2],
        0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] ** 2,
        3e7 * y[1] ** 2,
    ])


PROBLEMS = {
    "osc": (oscillator, (0.0, 10.0), [1.0, 0.0], dict(rtol=1e-8, atol=1e-10)),
    "vdp5": (vdp5, (0.0, 20.0), [2.0, 0.0], dict(rtol=1e-6, atol=1e-9)),
    "robertson": (robertson, (0.0, 40.0), [1.0, 0.0, 0.0],
                  dict(rtol=1e-4, atol=1e-8)),
}

#: (method, problem) -> (Stats fields in declaration order, sha256[:16] of ys)
RUN_PINS = {
    ("rk45", "osc"): ((1580, 0, 0, 263, 249, 14, 0, 0), "bd1e45b607caaa39"),
    ("rk45", "vdp5"): ((2120, 0, 0, 353, 312, 41, 0, 0), "3916df57264da19c"),
    ("adams", "osc"): ((1147, 0, 0, 579, 566, 13, 0, 0), "eed316c8e848c1a6"),
    ("adams", "vdp5"): ((1420, 0, 0, 762, 656, 106, 0, 0), "6360f36ba5237cec"),
    ("bdf", "osc"): ((763, 1, 68, 379, 379, 0, 758, 0), "0519ca127448620e"),
    ("bdf", "vdp5"): ((1772, 2, 183, 778, 682, 96, 1764, 0), "cbc30ec9cf9603f0"),
    ("bdf", "robertson"): ((187, 3, 25, 74, 69, 5, 173, 0), "ec737196c88417bf"),
    ("lsoda", "osc"): ((1345, 0, 0, 579, 566, 13, 0, 0), "eed316c8e848c1a6"),
    ("lsoda", "vdp5"): ((1808, 1, 48, 812, 690, 122, 422, 2), "561c46594e6678ca"),
    ("lsoda", "robertson"): ((274, 2, 15, 135, 97, 38, 106, 1), "795d4640a281d892"),
}

#: method -> pin of a vdp5 run whose RHS raises on calls 40..42, under
#: RecoveryPolicy(max_retries=5)
RECOVERY_PINS = {
    "rk45": ((2144, 0, 0, 360, 314, 46, 0, 0), "4606717cabf92760"),
    "adams": ((1489, 0, 0, 806, 681, 125, 0, 0), "6cc14a713d423b86"),
    "bdf": ((1772, 2, 188, 788, 693, 95, 1764, 0), "3c59d9af97b5d5b4"),
    "lsoda": ((1732, 0, 0, 806, 681, 125, 0, 0), "6cc14a713d423b86"),
}

#: rk45 on the servo model through ParallelRHS.eval_stages (K = 6)
STAGES_PIN = ((2012, 0, 0, 335, 267, 68, 0, 0), "2d95e8191aa8075e")

#: method -> sha256[:16] of the checkpoint file and of its ``.1``
#: generation after vdp5 on (0, 3) with Checkpointer(every=10)
CHECKPOINT_PINS = {
    "rk45": ("6485e77d2e63e35e", "a6a4e07e8bbfc0fc"),
    "adams": ("ba61db7a7f339c9b", "eaf6f32ae2c8907a"),
    "bdf": ("ec0c4e4827d97d3d", "78563bcc5613875f"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _pin(result):
    stats = tuple(dataclasses.asdict(result.stats).values())
    return stats, _digest(np.ascontiguousarray(result.ys).tobytes())


class FlakyRhs:
    """Raises on a window of call numbers (count-based, so only retries
    get past it)."""

    def __init__(self, f, fail_from, fail_until):
        self.f = f
        self.ncalls = 0
        self.fail_from = fail_from
        self.fail_until = fail_until

    def __call__(self, t, y):
        self.ncalls += 1
        if self.fail_from <= self.ncalls <= self.fail_until:
            raise ValueError(f"injected RHS failure (call {self.ncalls})")
        return self.f(t, y)


class Killed(Exception):
    """Stands in for a process crash in the middle of a solve."""


class KillAt:
    def __init__(self, f, ncall):
        self.f = f
        self.ncall = ncall
        self.ncalls = 0

    def __call__(self, t, y):
        self.ncalls += 1
        if self.ncalls == self.ncall:
            raise Killed
        return self.f(t, y)


class TestPins:
    @pytest.mark.parametrize("method,problem", sorted(RUN_PINS))
    def test_uninterrupted_run(self, method, problem):
        f, span, y0, tol = PROBLEMS[problem]
        result = solve_ivp(f, span, y0, method=method, **tol)
        assert result.success
        assert _pin(result) == RUN_PINS[method, problem]

    @pytest.mark.parametrize("method", sorted(RECOVERY_PINS))
    def test_recovered_run(self, method):
        f, span, y0, tol = PROBLEMS["vdp5"]
        result = solve_ivp(FlakyRhs(f, 40, 42), span, y0, method=method,
                           recovery=RecoveryPolicy(max_retries=5), **tol)
        assert result.success
        assert _pin(result) == RECOVERY_PINS[method]

    @pytest.mark.parametrize("policy", (None, RecoveryPolicy()))
    def test_rk45_through_eval_stages(self, compiled_servo, policy):
        from repro.runtime import ParallelRHS, SerialExecutor

        program = compiled_servo.program
        rhs = ParallelRHS(program, SerialExecutor(program), stage_chunk=6)
        assert rhs.eval_stages is not None
        result = solve_ivp(rhs, (0.0, 2.0), program.start_vector(),
                           method="rk45", recovery=policy)
        assert result.success
        assert _pin(result) == STAGES_PIN

    @pytest.mark.parametrize("method", sorted(CHECKPOINT_PINS))
    def test_checkpoint_payload(self, tmp_path, method):
        f, _, y0, tol = PROBLEMS["vdp5"]
        path = tmp_path / "ck.json"
        solve_ivp(f, (0.0, 3.0), y0, method=method,
                  checkpointer=Checkpointer(path, every=10), **tol)
        older = path.with_name(path.name + ".1")
        assert (_digest(path.read_bytes()), _digest(older.read_bytes())) \
            == CHECKPOINT_PINS[method]


class TestLoopRules:
    @pytest.mark.parametrize("method", ("rk45", "adams", "bdf", "lsoda"))
    @pytest.mark.parametrize("max_steps", (20, 50))
    def test_max_steps_bounds_every_attempt(self, method, max_steps):
        result = solve_ivp(oscillator, (0.0, 3.0), [1.0, 0.0], method=method,
                           rtol=1e-10, atol=1e-13, max_steps=max_steps)
        assert not result.success
        assert "maximum step count" in result.message
        assert result.stats.nsteps <= max_steps

    def test_nan_error_norm_rejects_the_rk45_step(self):
        """Without a recovery policy a NaN stage makes a NaN error norm;
        the step is rejected and shrunk by MIN_FACTOR, not accepted."""
        ncalls = [0]

        def decay_with_one_nan(t, y):
            ncalls[0] += 1
            return np.array([np.nan]) if ncalls[0] == 5 else -y

        result = solve_ivp(decay_with_one_nan, (0.0, 1.0), [1.0],
                           method="rk45")
        assert result.success
        assert tuple(dataclasses.asdict(result.stats).values()) == (
            50, 0, 0, 8, 7, 1, 0, 0)
        assert np.all(np.isfinite(result.ys))

    @pytest.mark.parametrize("ncall", (200, 700, 1200))
    def test_lsoda_resume_is_bit_identical_across_switches(
        self, tmp_path, ncall
    ):
        """Killed before the first switch, right on a stiffness check,
        and after both switches: every resume lands on the same bits."""
        f, span, y0, tol = PROBLEMS["vdp5"]
        full = solve_ivp(f, span, y0, method="lsoda", **tol)
        assert full.stats.method_switches == 2
        path = tmp_path / "ck.json"
        with pytest.raises(Killed):
            solve_ivp(KillAt(f, ncall), span, y0, method="lsoda",
                      checkpointer=Checkpointer(path, every=1), **tol)
        assert 0.0 < load_checkpoint(path).t < span[1]
        resumed = solve_ivp(f, span, y0, method="lsoda", resume=path, **tol)
        assert resumed.success
        np.testing.assert_array_equal(resumed.y_final, full.y_final)

    @pytest.mark.parametrize("method", ("rk45", "adams", "bdf"))
    def test_single_family_resume(self, tmp_path, method):
        """rk45 and adams resume bit-identically; bdf rebuilds its Jacobian
        and LU on resume, so it only lands within solver tolerance."""
        f, span, y0, tol = PROBLEMS["vdp5"]
        full = solve_ivp(f, span, y0, method=method, **tol)
        path = tmp_path / "ck.json"
        with pytest.raises(Killed):
            solve_ivp(KillAt(f, 700), span, y0, method=method,
                      checkpointer=Checkpointer(path, every=1), **tol)
        resumed = solve_ivp(f, span, y0, method=method, resume=path, **tol)
        assert resumed.success
        if method == "bdf":
            np.testing.assert_allclose(resumed.y_final, full.y_final,
                                       rtol=0, atol=1e-5)
        else:
            np.testing.assert_array_equal(resumed.y_final, full.y_final)

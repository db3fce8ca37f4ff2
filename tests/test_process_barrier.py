"""The process pool's in-round stage barrier (``_ShmBarrier``).

Two threads stand in for two worker processes: each holds its own
``_ShmBarrier`` on one set of shared blocks, exactly as two workers of a
K-stage chunk do.  The barrier spins on ``sched_yield`` for a bounded
window before it naps, keeps its epoch-namespaced ticks and its
epoch-valued abort flag, and times out into an abort.  The last test runs
the barrier for real: an rk45 solve through a two-process pool, whose
chunks meet at it after every dependency level.
"""

from __future__ import annotations

import os
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import Bearing3dParams, build_bearing3d
from repro.frontend import compile_model
from repro.runtime import ParallelRHS, ProcessExecutor, SerialExecutor
from repro.runtime import process_executor
from repro.runtime.process_executor import (
    SHM_PREFIX,
    _ShmBarrier,
    _SharedBlocks,
    _TICK_STRIDE,
)
from repro.runtime.supervisor import _Job
from repro.solver import solve_ivp

#: big enough that a partner a few milliseconds late is always inside it
_WIDE_WINDOW = 5.0


@pytest.fixture
def blocks():
    spec = SimpleNamespace(num_states=2, num_partials=0, num_tasks=1)
    tag = f"{SHM_PREFIX}_{os.getpid()}_barrier_test"
    shared = _SharedBlocks(tag, spec, num_params=1, num_workers=3,
                           create=True)
    yield shared
    shared.release()


def barrier(blocks, worker, epoch=1, participants=(0, 1)):
    job = _Job(epoch, 0, 0.0, (), participants=participants)
    return _ShmBarrier(blocks, worker, job)


def arrive_later(bar, delay, timeout=5.0):
    """Start a thread that reaches ``bar`` after ``delay`` seconds; the
    returned list receives the exception it left with, if any."""
    outcome: list = []

    def run():
        threading.Event().wait(delay)  # no time.sleep: that is counted
        try:
            bar.wait(timeout)
        except threading.BrokenBarrierError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def test_a_partner_inside_the_spin_window_costs_no_nap(blocks, monkeypatch):
    monkeypatch.setattr(process_executor, "_YIELD_SPIN_S", _WIDE_WINDOW)
    naps = []
    real_sleep = time.sleep
    monkeypatch.setattr(time, "sleep",
                        lambda s: (naps.append(s), real_sleep(s)))
    mine, theirs = barrier(blocks, 0), barrier(blocks, 1)
    for _ in range(3):  # consecutive levels of one chunk
        thread, outcome = arrive_later(theirs, 0.003)
        mine.wait(timeout=5.0)
        thread.join(5.0)
        assert not outcome
    assert naps == []
    assert list(blocks.prog[:2]) == [_TICK_STRIDE + 3] * 2


def test_the_default_window_outlasts_a_stage():
    # bearing3d-8's stage is ~0.1 ms of compute per worker; the window must
    # hold a whole one, and stay far below any level timeout.
    assert 1e-3 <= process_executor._YIELD_SPIN_S <= 0.01


def test_a_late_partner_is_met_after_the_window(blocks, monkeypatch):
    monkeypatch.setattr(process_executor, "_YIELD_SPIN_S", 0.001)
    mine, theirs = barrier(blocks, 0), barrier(blocks, 1)
    thread, outcome = arrive_later(theirs, 0.05)
    mine.wait(timeout=5.0)
    thread.join(5.0)
    assert not outcome


def test_a_stale_epoch_tick_does_not_satisfy_a_later_barrier(blocks):
    # A straggler of epoch 1 got far ahead before its round was abandoned.
    blocks.prog[1] = 1 * _TICK_STRIDE + 50
    later = barrier(blocks, 0, epoch=2)
    start = time.monotonic()
    with pytest.raises(threading.BrokenBarrierError):
        later.wait(timeout=0.05)
    assert time.monotonic() - start >= 0.05  # timed out, not satisfied
    assert blocks.ctl[0] == 2


def test_a_stale_abort_does_not_break_a_later_barrier(blocks):
    blocks.ctl[0] = 1  # epoch 1 was aborted
    mine, theirs = barrier(blocks, 0, epoch=2), barrier(blocks, 1, epoch=2)
    thread, outcome = arrive_later(theirs, 0.002)
    mine.wait(timeout=5.0)
    thread.join(5.0)
    assert not outcome


def test_abort_breaks_every_participant(blocks):
    everyone = (0, 1, 2)
    waiting = [arrive_later(barrier(blocks, w, participants=everyone), 0.0,
                            timeout=30.0) for w in (0, 1)]
    threading.Event().wait(0.02)  # both are inside wait() by now
    start = time.monotonic()
    barrier(blocks, 2, participants=everyone).abort()
    for thread, outcome in waiting:
        thread.join(5.0)
        assert not thread.is_alive()
        assert len(outcome) == 1
    assert time.monotonic() - start < 5.0


def test_a_missing_partner_times_out_and_aborts(blocks):
    alone = barrier(blocks, 0)
    start = time.monotonic()
    with pytest.raises(threading.BrokenBarrierError):
        alone.wait(timeout=0.05)
    assert time.monotonic() - start >= 0.05
    assert blocks.ctl[0] == 1
    # the abort reaches a partner that turns up afterwards at once
    start = time.monotonic()
    with pytest.raises(threading.BrokenBarrierError):
        barrier(blocks, 1).wait(timeout=5.0)
    assert time.monotonic() - start < 1.0


def test_rk45_through_two_processes_equals_the_serial_solve():
    program = compile_model(build_bearing3d(
        Bearing3dParams(num_rollers=8, contact_harmonics=3)
    )).program
    y0 = program.start_vector()

    def solve(executor):
        with executor:
            rhs = ParallelRHS(program, executor, stage_chunk=6)
            return solve_ivp(rhs, (0.0, 0.002), y0, method="rk45")

    serial = solve(SerialExecutor(program))
    pool = ProcessExecutor(program, num_workers=2)
    pooled = solve(pool)
    assert np.array_equal(pooled.y_final, serial.y_final)
    assert pooled.stats == serial.stats
    assert serial.stats.nfev > 20
    assert pool.events.total_recorded == 0  # no chunk fell back

"""Deterministic, scriptable fault injection for generated task functions.

The supervisor/worker protocol (section 3.2.3) assumes every worker
evaluates its partition successfully every round.  To test and benchmark
the fault-tolerance machinery that drops that assumption, a
:class:`FaultInjector` wraps the generated per-task functions and fires
scripted :class:`FaultSpec` entries:

``raise``
    raise :class:`InjectedFault` instead of computing,
``hang``
    sleep a bounded number of seconds, then compute normally (a slow or
    temporarily wedged worker),
``nan`` / ``inf``
    compute normally, then overwrite the task's output slots with
    non-finite values (a silent numerical fault),
``corrupt``
    compute normally, then overwrite one output slot with a wrong finite
    value (a silent data fault),
``kill``
    raise :class:`WorkerKill`, which the worker loop deliberately lets
    terminate the thread (a worker process SIGKILLs itself) *without*
    signalling the supervisor — the crashed-worker scenario that
    deadlocked the original barrier.

Specs are matched per task, optionally per round and per worker, and burn
out after ``count`` firings, so a scenario like "task 3 fails twice on
worker 0, then succeeds" is one line of test code.  Randomised plans are
available via :meth:`FaultInjector.random_plan` from a seeded generator;
nothing in the injector reads an unseeded RNG or the wall clock (apart
from the bounded ``hang`` sleep), so fault schedules are reproducible.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .events import RuntimeEvents

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..codegen.program import GeneratedProgram

__all__ = [
    "FAULT_MODES",
    "STORAGE_FAULT_KINDS",
    "STORAGE_OPS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "StorageFaultInjector",
    "StorageFaultSpec",
    "WorkerKill",
    "current_worker_id",
]

FAULT_MODES = ("raise", "hang", "nan", "inf", "corrupt", "kill")

#: storage-layer fault kinds fired by :class:`StorageFaultInjector`
STORAGE_FAULT_KINDS = ("torn_write", "bit_flip", "stale_lock", "slow_io")

#: IO operations the storage layers expose as fault hook points
STORAGE_OPS = (
    "cache_store", "cache_load", "checkpoint_save", "checkpoint_load",
)

#: thread-name prefix assigned by the executor to pool workers (a worker
#: process gives it to its main thread); the injector parses it to
#: implement per-worker fault specs
WORKER_THREAD_PREFIX = "rhs-worker-"


class InjectedFault(RuntimeError):
    """An artificial task failure raised by ``mode='raise'``."""


class WorkerKill(BaseException):
    """Terminates the executing worker thread without notifying the
    supervisor (simulated crash).  Derives from ``BaseException`` so the
    worker loop's normal ``Exception`` forwarding does not catch it."""


def current_worker_id() -> int | None:
    """The pool worker id of the calling thread, or ``None`` when running
    on the supervisor (serial / inline degraded execution)."""
    name = threading.current_thread().name
    if name.startswith(WORKER_THREAD_PREFIX):
        suffix = name[len(WORKER_THREAD_PREFIX):]
        try:
            return int(suffix)
        except ValueError:
            return None
    return None


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    ``round_index`` restricts the fault to a single RHS round (0-based,
    counted per injector); ``worker`` restricts it to executions on one
    pool worker (inline/supervisor executions never match a worker-pinned
    spec, which is what lets reassignment and degradation succeed).
    ``count`` firings are allowed before the spec burns out; ``-1`` means
    unlimited.
    """

    task_id: int
    mode: str
    round_index: int | None = None
    worker: int | None = None
    count: int = 1
    hang_seconds: float = 0.05
    corrupt_value: float = 1.0e300
    corrupt_slot: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; choose from {FAULT_MODES}"
            )
        if self.task_id < 0:
            raise ValueError("task_id must be non-negative")
        if self.count == 0 or self.count < -1:
            raise ValueError("count must be positive or -1 (unlimited)")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")


class FaultInjector:
    """Wraps generated task functions to fire scripted faults.

    The executor calls :meth:`begin_round` once per RHS evaluation and
    runs tasks through :meth:`wrap_tasks`; everything else is bookkeeping.
    """

    def __init__(
        self,
        plan: Iterable[FaultSpec] = (),
        seed: int = 0,
        events: RuntimeEvents | None = None,
    ) -> None:
        self.plan: list[FaultSpec] = list(plan)
        self.seed = seed
        self.events = events
        self.round_index = -1
        self.fired = 0
        self._remaining: dict[int, int] = {
            i: spec.count for i, spec in enumerate(self.plan)
        }
        self._lock = threading.Lock()

    # -- plan construction ------------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultInjector":
        with self._lock:
            self.plan.append(spec)
            self._remaining[len(self.plan) - 1] = spec.count
        return self

    @classmethod
    def random_plan(
        cls,
        num_tasks: int,
        num_rounds: int,
        rate: float = 0.02,
        modes: Sequence[str] = ("raise", "nan", "inf"),
        seed: int = 0,
        events: RuntimeEvents | None = None,
    ) -> "FaultInjector":
        """A seeded random fault plan: each (task, round) cell fails with
        probability ``rate`` using a mode drawn uniformly from ``modes``."""
        if not (0.0 <= rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")
        rng = np.random.default_rng(seed)
        specs: list[FaultSpec] = []
        for r in range(num_rounds):
            for tid in range(num_tasks):
                if rng.random() < rate:
                    mode = modes[int(rng.integers(len(modes)))]
                    specs.append(FaultSpec(task_id=tid, mode=mode,
                                           round_index=r))
        return cls(specs, seed=seed, events=events)

    # -- runtime hooks ----------------------------------------------------------

    def begin_round(self) -> int:
        """Advance the round counter (called once per executor round)."""
        with self._lock:
            self.round_index += 1
            return self.round_index

    def _claim(self, task_id: int) -> FaultSpec | None:
        """Find, and atomically consume one firing of, a matching spec."""
        worker = current_worker_id()
        with self._lock:
            for i, spec in enumerate(self.plan):
                if spec.task_id != task_id:
                    continue
                if (spec.round_index is not None
                        and spec.round_index != self.round_index):
                    continue
                if spec.worker is not None and spec.worker != worker:
                    continue
                left = self._remaining[i]
                if left == 0:
                    continue
                if left > 0:
                    self._remaining[i] = left - 1
                self.fired += 1
                return spec
        return None

    def wrap_tasks(
        self, program: "GeneratedProgram"
    ) -> list[Callable[[float, np.ndarray, np.ndarray, np.ndarray], None]]:
        """Return the program's task functions wrapped with fault hooks."""
        return self.wrap(
            program.task_callables(),
            [program.task_output_slots(tid)
             for tid in range(program.num_tasks)],
        )

    def wrap(self, tasks: Sequence[Callable], slots: Sequence[Sequence[int]]):
        """Wrap task functions given as plain callables plus their output
        slots — all a worker process has of the program."""
        return [
            self._wrap_one(tid, fn, slots[tid])
            for tid, fn in enumerate(tasks)
        ]

    def _wrap_one(self, task_id: int, fn, slots):
        def task(t: float, y: np.ndarray, p: np.ndarray,
                 res: np.ndarray) -> None:
            spec = self._claim(task_id)
            if spec is None:
                fn(t, y, p, res)
                return
            if self.events is not None:
                self.events.record(
                    "fault_injected", task=task_id, mode=spec.mode,
                    round=self.round_index, worker=current_worker_id(),
                )
            if spec.mode == "raise":
                raise InjectedFault(
                    f"injected failure in task {task_id} "
                    f"(round {self.round_index})"
                )
            if spec.mode == "kill":
                raise WorkerKill(
                    f"injected worker kill in task {task_id} "
                    f"(round {self.round_index})"
                )
            if spec.mode == "hang":
                time.sleep(spec.hang_seconds)
                fn(t, y, p, res)
                return
            # Silent output faults: compute, then poison the output slots.
            fn(t, y, p, res)
            if spec.mode == "nan":
                for s in slots:
                    res[s] = np.nan
            elif spec.mode == "inf":
                for s in slots:
                    res[s] = np.inf
            else:  # corrupt
                target = (spec.corrupt_slot if spec.corrupt_slot is not None
                          else (slots[0] if slots else None))
                if target is not None:
                    res[target] = spec.corrupt_value

        task.__name__ = f"faulty_task_{task_id}"
        return task

    # -- introspection ----------------------------------------------------------

    def remaining(self) -> int:
        """Total firings still armed (unlimited specs count as 1 each)."""
        with self._lock:
            return sum(1 if c == -1 else c for c in self._remaining.values())

    def reset(self) -> None:
        """Re-arm every spec and rewind the round counter."""
        with self._lock:
            self.round_index = -1
            self.fired = 0
            self._remaining = {i: s.count for i, s in enumerate(self.plan)}

    def __repr__(self) -> str:
        return (
            f"<FaultInjector {len(self.plan)} specs, fired={self.fired}, "
            f"round={self.round_index}>"
        )


# ---------------------------------------------------------------------------
# Storage faults: the crash windows of the cache and checkpoint layers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StorageFaultSpec:
    """One scripted storage fault.

    ``op`` selects the hook point (one of :data:`STORAGE_OPS`, or ``"*"``
    for any); ``kind`` is one of :data:`STORAGE_FAULT_KINDS`:

    ``torn_write``
        the payload handed to the writer is truncated at
        ``truncate_fraction`` of its length — the on-disk image a crash
        between ``write`` and ``fsync`` would leave,
    ``bit_flip``
        one payload byte (position drawn from the injector's seeded RNG)
        has a bit flipped — silent media corruption,
    ``stale_lock``
        a background thread grabs the target's advisory lock and holds it
        for ``hold_seconds`` before releasing — the abandoned-lock-holder
        scenario a lock-acquisition timeout must survive,
    ``slow_io``
        the IO call is delayed by ``delay_seconds`` — a degraded disk or
        saturated NFS mount.

    ``count`` firings are allowed before the spec burns out (``-1`` =
    unlimited), matching :class:`FaultSpec` semantics.
    """

    op: str
    kind: str
    count: int = 1
    delay_seconds: float = 0.02
    hold_seconds: float = 0.1
    truncate_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in STORAGE_FAULT_KINDS:
            raise ValueError(
                f"unknown storage fault kind {self.kind!r}; choose from "
                f"{STORAGE_FAULT_KINDS}"
            )
        if self.op != "*" and self.op not in STORAGE_OPS:
            raise ValueError(
                f"unknown storage op {self.op!r}; choose from "
                f"{STORAGE_OPS} or '*'"
            )
        if self.count == 0 or self.count < -1:
            raise ValueError("count must be positive or -1 (unlimited)")
        if not (0.0 <= self.truncate_fraction < 1.0):
            raise ValueError("truncate_fraction must be in [0, 1)")
        if self.delay_seconds < 0 or self.hold_seconds < 0:
            raise ValueError("delays must be non-negative")


class StorageFaultInjector:
    """Scripted faults for the storage layers (cache + checkpoints).

    The cache and checkpoint writers call :meth:`before_io` ahead of each
    IO operation, :meth:`filter_payload` on the bytes about to be written,
    and :meth:`before_lock` ahead of each advisory lock acquisition.
    Without a matching armed spec every hook is the identity, so the hooks
    cost one method call on the (already IO-bound) storage path.

    All randomness (bit positions for ``bit_flip``) comes from a generator
    seeded at construction; fault schedules are reproducible.
    """

    def __init__(
        self,
        plan: Iterable[StorageFaultSpec] = (),
        seed: int = 0,
        events: RuntimeEvents | None = None,
    ) -> None:
        self.plan: list[StorageFaultSpec] = list(plan)
        self.seed = seed
        self.events = events
        self.fired = 0
        self._rng = np.random.default_rng(seed)
        self._remaining: dict[int, int] = {
            i: spec.count for i, spec in enumerate(self.plan)
        }
        self._lock = threading.Lock()
        self._holders: list[threading.Thread] = []

    def add(self, spec: StorageFaultSpec) -> "StorageFaultInjector":
        with self._lock:
            self.plan.append(spec)
            self._remaining[len(self.plan) - 1] = spec.count
        return self

    def _claim(self, op: str, kinds: tuple[str, ...]) -> StorageFaultSpec | None:
        with self._lock:
            for i, spec in enumerate(self.plan):
                if spec.kind not in kinds:
                    continue
                if spec.op != "*" and spec.op != op:
                    continue
                left = self._remaining[i]
                if left == 0:
                    continue
                if left > 0:
                    self._remaining[i] = left - 1
                self.fired += 1
                return spec
        return None

    def _record(self, spec: StorageFaultSpec, op: str, path) -> None:
        if self.events is not None:
            self.events.record(
                "fault_injected", layer="storage", fault_kind=spec.kind,
                op=op, path=str(path),
            )

    # -- hooks (called by cache.py / checkpoint.py) ------------------------

    def before_io(self, op: str, path) -> None:
        """Fire ``slow_io`` ahead of a read or write."""
        spec = self._claim(op, ("slow_io",))
        if spec is None:
            return
        self._record(spec, op, path)
        time.sleep(spec.delay_seconds)

    def filter_payload(self, op: str, path, data: bytes) -> bytes:
        """Fire ``torn_write``/``bit_flip`` on the bytes being written."""
        spec = self._claim(op, ("torn_write", "bit_flip"))
        if spec is None or not data:
            return data
        self._record(spec, op, path)
        if spec.kind == "torn_write":
            return data[: max(1, int(len(data) * spec.truncate_fraction))]
        pos = int(self._rng.integers(len(data)))
        bit = 1 << int(self._rng.integers(8))
        corrupted = bytearray(data)
        corrupted[pos] ^= bit
        return bytes(corrupted)

    def before_lock(self, op: str, lock_path) -> None:
        """Fire ``stale_lock``: hold the advisory lock from a background
        thread so the caller's acquisition has to wait (or time out).  The
        holder lets go as a store lock holder does, unlinking the lock
        file before the unlock, so nothing is left behind."""
        spec = self._claim(op, ("stale_lock",))
        if spec is None:
            return
        self._record(spec, op, lock_path)
        import fcntl
        from pathlib import Path

        lock_path = Path(lock_path)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - flock unavailable
            os.close(fd)
            return
        hold = spec.hold_seconds

        def _release_later() -> None:
            time.sleep(hold)
            try:
                lock_path.unlink(missing_ok=True)
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

        holder = threading.Thread(target=_release_later, daemon=True,
                                  name="stale-lock-holder")
        holder.start()
        with self._lock:
            self._holders.append(holder)

    # -- introspection -----------------------------------------------------

    def remaining(self) -> int:
        with self._lock:
            return sum(1 if c == -1 else c for c in self._remaining.values())

    def drain(self, timeout: float = 5.0) -> None:
        """Join any background lock holders (test teardown hygiene)."""
        with self._lock:
            holders, self._holders = self._holders, []
        for h in holders:
            h.join(timeout)

    def __repr__(self) -> str:
        return (
            f"<StorageFaultInjector {len(self.plan)} specs, "
            f"fired={self.fired}>"
        )

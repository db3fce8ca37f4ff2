"""Structured runtime event log for the fault-tolerance layer.

Every recoverable incident in the supervisor/worker runtime and the solver
recovery path — an injected fault firing, a task retry, a reassignment to
a healthy worker, a worker declared dead, degradation to serial execution,
a checkpoint written or restored, a job retried or a circuit breaker
tripping — is recorded as a :class:`RuntimeEvent` in a
:class:`RuntimeEvents` log.  Tests and benchmarks assert on the log
instead of scraping stderr, and a long-running simulation can dump it for
post-mortem analysis.

Events carry a monotonically increasing sequence number rather than a
wall-clock timestamp by default, so logs from deterministic fault plans
compare equal across runs.

The log is a bounded ring buffer: a long-lived service process (the
job-supervision layer runs soaks of thousands of jobs against one log)
must not grow memory without bound, so once ``maxlen`` events are held the
oldest are dropped and counted in :attr:`RuntimeEvents.dropped_events`.
Sequence numbers keep increasing across drops, so ``events[i].seq`` still
identifies an event globally even after the head has been evicted.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = ["DEFAULT_MAXLEN", "RuntimeEvent", "RuntimeEvents"]

#: canonical event kinds emitted by the runtime (other kinds are allowed;
#: this tuple documents the vocabulary and is used by ``summary()`` ordering)
EVENT_KINDS = (
    "fault_injected",
    "task_error",
    "task_nonfinite",
    "task_retry",
    "task_reassigned",
    "worker_timeout",
    "worker_dead",
    "degraded",
    "close_timeout",
    "pool_retired",
    "rhs_retry",
    "solver_failure",
    "checkpoint_saved",
    "checkpoint_resumed",
    "checkpoint_fallback",
    "cache_quarantined",
    "cache_evicted",
    "cache_lock_timeout",
    "job_submitted",
    "job_attempt",
    "job_retry",
    "job_rerouted",
    "job_completed",
    "job_failed",
    "circuit_open",
    "circuit_half_open",
    "circuit_closed",
)

#: default ring-buffer capacity; generous for any single run, bounded for
#: long-lived service processes
DEFAULT_MAXLEN = 65_536


@dataclass(frozen=True)
class RuntimeEvent:
    """One incident: a ``kind`` tag plus free-form structured payload."""

    seq: int
    kind: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        payload = " ".join(f"{k}={v}" for k, v in self.data.items())
        return f"[{self.seq}] {self.kind}" + (f" {payload}" if payload else "")

    def to_obj(self) -> dict[str, Any]:
        """JSON-encodable form (payload values coerced via ``str`` when
        they are not natively encodable)."""
        data: dict[str, Any] = {}
        for k, v in self.data.items():
            if isinstance(v, (str, int, float, bool)) or v is None:
                data[k] = v
            else:
                data[k] = str(v)
        return {"seq": self.seq, "kind": self.kind, "data": data}


class RuntimeEvents:
    """An append-only, queryable, bounded log of :class:`RuntimeEvent`.

    Thread-safe for appends (workers and the supervisor may record
    concurrently); reads take a snapshot.  ``maxlen`` bounds the number of
    retained events (``None`` = unbounded); evicted events are counted in
    :attr:`dropped_events`.
    """

    def __init__(self, maxlen: int | None = DEFAULT_MAXLEN) -> None:
        import threading

        if maxlen is not None and maxlen < 1:
            raise ValueError("maxlen must be >= 1 (or None for unbounded)")
        self.maxlen = maxlen
        self.dropped_events = 0
        self._seq = 0
        self._events: deque[RuntimeEvent] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def record(self, kind: str, **data: Any) -> RuntimeEvent:
        with self._lock:
            event = RuntimeEvent(seq=self._seq, kind=kind, data=data)
            self._seq += 1
            if self.maxlen is not None and len(self._events) == self.maxlen:
                self.dropped_events += 1
            self._events.append(event)
        return event

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded, including ones dropped from the ring."""
        return self._seq

    def __iter__(self) -> Iterator[RuntimeEvent]:
        return iter(list(self._events))

    def of_kind(self, kind: str) -> list[RuntimeEvent]:
        return [e for e in list(self._events) if e.kind == kind]

    def count(self, kind: str) -> int:
        return len(self.of_kind(kind))

    def kinds(self) -> dict[str, int]:
        """Histogram of event kinds, in first-seen order."""
        out: dict[str, int] = {}
        for e in list(self._events):
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped_events = 0

    def dump_jsonl(self, path: str | Path) -> Path:
        """Write the retained events as JSON lines (one event per line),
        prefixed by a header line with the drop count — the post-mortem
        artifact uploaded by the chaos CI job."""
        path = Path(path)
        snapshot = list(self._events)
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "header": "repro-runtime-events",
                "retained": len(snapshot),
                "total_recorded": self.total_recorded,
                "dropped_events": self.dropped_events,
            }) + "\n")
            for e in snapshot:
                fh.write(json.dumps(e.to_obj()) + "\n")
        return path

    def summary(self) -> str:
        hist = self.kinds()
        if not hist:
            return "no runtime events"
        parts = [f"{k}={v}" for k, v in hist.items()]
        text = f"{len(self._events)} events: " + ", ".join(parts)
        if self.dropped_events:
            text += f" (+{self.dropped_events} dropped)"
        return text

    def __repr__(self) -> str:
        return f"<RuntimeEvents {self.summary()}>"

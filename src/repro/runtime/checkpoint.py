"""Periodic checkpoint/restart of solver state.

A long-running simulation should survive a crash of the *process*, not
just of a worker thread.  This module defines a versioned on-disk
checkpoint format holding everything needed to resume integration from
the last accepted step:

* solver state: ``t``, ``y``, the current step size ``h``, method order
  and the multistep history (Adams RHS history / BDF backward-difference
  table), plus the LSODA driver's family and switching counters,
* runtime state: the RNG seed and the measured per-task times that feed
  the semi-dynamic LPT scheduler, so a resumed run schedules from the
  same estimates instead of cold static weights,
* solver work counters (``Stats``) and free-form metadata.

Checkpoints are JSON (small state vectors; human-inspectable) and are
written **crash-consistently**: serialize to ``<path>.tmp``, ``fsync`` the
file so the bytes are durable, ``os.replace`` into place, then ``fsync``
the containing directory so the rename itself survives a power loss.  A
CRC-32 of the canonical payload is embedded and re-verified on load, so a
torn or bit-flipped file is detected instead of deserialised into garbage.
Saves **rotate**: the previous checkpoint is kept as ``<path>.1`` (up to
``keep`` generations), and :func:`load_checkpoint` falls back to the most
recent generation that validates — a corrupted latest checkpoint costs one
checkpoint interval of progress, never the whole run.  The ``version``
field is checked on load: readers reject formats they do not understand
instead of misinterpreting them.

:class:`Checkpointer` is the driver-facing hook: the adaptive solver
loops call :meth:`Checkpointer.step` after every accepted step and the
checkpoint is written every ``every`` steps (and once more at the end of
integration via :meth:`flush`).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..store import fsync_directory
from .events import RuntimeEvents

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import StorageFaultInjector

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "Checkpointer",
    "load_checkpoint",
    "restore_stepper",
    "rotated_paths",
    "save_checkpoint",
    "snapshot_stepper",
]

CHECKPOINT_VERSION = 1
_MAGIC = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or version-incompatible checkpoint."""


@dataclass
class Checkpoint:
    """One resumable solver state (see the module docstring)."""

    method: str
    t: float
    y: np.ndarray
    h: float
    direction: float
    order: int = 1
    #: LSODA's active family ("adams"/"bdf"); None for single-family methods
    family: str | None = None
    #: stepper-specific history payload (from :func:`snapshot_stepper`)
    history: dict[str, Any] = field(default_factory=dict)
    #: driver-level counters (LSODA switching state)
    driver: dict[str, Any] = field(default_factory=dict)
    #: solver work counters at checkpoint time
    stats: dict[str, int] = field(default_factory=dict)
    rng_seed: int | None = None
    #: measured per-task seconds feeding the semi-dynamic LPT
    task_times: list[float] | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)


def _jsonify(obj: Any) -> Any:
    """Recursively convert numpy containers to JSON-encodable values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _payload_crc(payload: dict[str, Any]) -> int:
    """CRC-32 of the canonical (sorted-key, compact) payload JSON, with
    any embedded ``crc`` field excluded."""
    body = {k: v for k, v in payload.items() if k != "crc"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(text.encode())


def rotated_paths(path: Path, keep: int) -> list[Path]:
    """The retained generations for ``path``: itself, then ``.1``…``.keep-1``
    (newest first)."""
    return [path] + [
        path.with_name(f"{path.name}.{i}") for i in range(1, keep)
    ]


def save_checkpoint(
    ckpt: Checkpoint,
    path: str | Path,
    keep: int = 3,
    faults: "StorageFaultInjector | None" = None,
) -> Path:
    """Crash-consistently write ``ckpt`` to ``path``.

    Serialize to ``<path>.tmp``, fsync, rotate the previous generations
    (``path`` → ``path.1`` → … up to ``keep`` files total), rename the
    temp file into place and fsync the directory.  A crash at any point
    leaves at least one complete, CRC-valid earlier generation on disk.
    ``keep=1`` disables rotation (the previous file is simply replaced).

    ``faults`` is the storage-fault hook used by the chaos harness: it may
    delay the write (``slow_io``) or hand back a truncated/bit-flipped
    payload (``torn_write``/``bit_flip``), simulating the crash windows
    this path defends against.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        payload = {"format": _MAGIC, **_jsonify(asdict(ckpt))}
        payload["crc"] = _payload_crc(payload)
        data = json.dumps(payload).encode()
        if faults is not None:
            faults.before_io("checkpoint_save", path)
            data = faults.filter_payload("checkpoint_save", path, data)
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        # Serialization (or an injected fault) died mid-write: remove the
        # partial temp file instead of leaving it to be mistaken for a
        # pending checkpoint by a later crash-recovery scan.
        tmp.unlink(missing_ok=True)
        raise
    generations = rotated_paths(path, keep)
    for older, newer in zip(reversed(generations), reversed(generations[:-1])):
        if newer.exists():
            os.replace(newer, older)
    os.replace(tmp, path)
    fsync_directory(path.parent if path.parent != Path("") else Path("."))
    return path


def _load_one(path: Path) -> Checkpoint:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint")
    crc = payload.pop("crc", None)
    if crc is not None and crc != _payload_crc(payload):
        raise CheckpointError(
            f"corrupt checkpoint {path}: CRC mismatch "
            f"(stored {crc}, computed {_payload_crc(payload)})"
        )
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} unsupported "
            f"(reader understands version {CHECKPOINT_VERSION})"
        )
    required = ("method", "t", "y", "h", "direction")
    missing = [k for k in required if k not in payload]
    if missing:
        raise CheckpointError(f"checkpoint {path} missing fields {missing}")
    payload.pop("format")
    try:
        return Checkpoint(**payload)
    except TypeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc


def load_checkpoint(
    path: str | Path,
    fallback: bool = True,
    keep: int = 3,
    events: RuntimeEvents | None = None,
) -> Checkpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    With ``fallback=True`` (the default) a corrupt or unreadable latest
    generation falls back to ``<path>.1`` … ``<path>.{keep-1}``, returning
    the newest one that validates and recording a ``checkpoint_fallback``
    event; only when every generation fails does the original error
    propagate.
    """
    path = Path(path)
    candidates = rotated_paths(path, keep) if fallback else [path]
    first_error: CheckpointError | None = None
    for i, candidate in enumerate(candidates):
        try:
            ckpt = _load_one(candidate)
        except CheckpointError as exc:
            if first_error is None:
                first_error = exc
            continue
        if i > 0 and events is not None:
            events.record(
                "checkpoint_fallback", path=str(path),
                used=str(candidate), generation=i,
                reason=str(first_error),
            )
        return ckpt
    assert first_error is not None
    raise first_error


# -- stepper snapshot/restore (duck-typed over the solver families) ------------


def snapshot_stepper(stepper) -> dict[str, Any]:
    """History payload for an Adams or BDF stepper (rk has no history)."""
    family = getattr(stepper, "family", None)
    if family == "adams":
        return {
            "kind": "adams",
            "grid_h": stepper._grid_h,
            "f_hist": [fv.tolist() for fv in stepper._f_hist],
            "raw_t": list(stepper._raw_t),
            "raw_f": [fv.tolist() for fv in stepper._raw_f],
            "reject_streak": stepper._reject_streak,
        }
    if family == "bdf":
        return {
            "kind": "bdf",
            "D": stepper.D.tolist(),
            "n_equal_steps": stepper.n_equal_steps,
        }
    return {}


def restore_stepper(stepper, ckpt: Checkpoint) -> None:
    """Restore order/step/history saved by :func:`snapshot_stepper`.

    The stepper must already be positioned at ``(ckpt.t, ckpt.y)`` (the
    drivers construct it there with ``first_step=ckpt.h``); this fills in
    the multistep history so the resumed trajectory continues at the
    checkpointed order instead of restarting at order 1.
    """
    history = ckpt.history or {}
    kind = history.get("kind")
    stepper.h = float(ckpt.h)
    if kind == "adams":
        stepper.order = int(ckpt.order)
        stepper._grid_h = float(history["grid_h"])
        stepper._f_hist = [np.asarray(fv, float) for fv in history["f_hist"]]
        stepper._raw_t = [float(tv) for tv in history["raw_t"]]
        stepper._raw_f = [np.asarray(fv, float) for fv in history["raw_f"]]
        stepper._reject_streak = int(history["reject_streak"])
    elif kind == "bdf":
        stepper.order = int(ckpt.order)
        stepper.D = np.asarray(history["D"], dtype=float)
        stepper.n_equal_steps = int(history["n_equal_steps"])
        # Jacobian and LU are rebuilt on demand after a restart.
        stepper._J = None
        stepper._LU = None
        stepper._lu_h = None
        stepper._jac_fresh = False


class Checkpointer:
    """Periodic checkpoint writer driven by the solver loops.

    ``every`` is in accepted steps.  ``make`` callbacks passed to
    :meth:`step` build the :class:`Checkpoint` lazily, so non-checkpoint
    steps cost one integer increment.
    """

    def __init__(
        self,
        path: str | Path,
        every: int = 25,
        events: RuntimeEvents | None = None,
        rng_seed: int | None = None,
        task_times_source: Callable[[], list[float] | None] | None = None,
        meta: dict[str, Any] | None = None,
        keep: int = 3,
        faults: "StorageFaultInjector | None" = None,
    ) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.path = Path(path)
        self.every = every
        self.keep = keep
        self.faults = faults
        self.events = events
        self.rng_seed = rng_seed
        self.task_times_source = task_times_source
        self.meta = dict(meta or {})
        self.steps_since_save = 0
        self.nsaved = 0
        self.last_checkpoint: Checkpoint | None = None
        self._pending: Callable[[], Checkpoint] | None = None

    def _finalize(self, ckpt: Checkpoint) -> Checkpoint:
        if self.rng_seed is not None and ckpt.rng_seed is None:
            ckpt.rng_seed = self.rng_seed
        if self.task_times_source is not None and ckpt.task_times is None:
            times = self.task_times_source()
            ckpt.task_times = (None if times is None
                               else [float(v) for v in times])
        ckpt.meta = {**self.meta, **ckpt.meta}
        return ckpt

    def step(self, make: Callable[[], Checkpoint]) -> bool:
        """Register one accepted step; write a checkpoint when due."""
        self.steps_since_save += 1
        self._pending = make
        if self.steps_since_save < self.every:
            return False
        self._save(make())
        return True

    def flush(self) -> bool:
        """Write the most recent accepted state if it is newer than the
        last checkpoint on disk (called at the end of integration)."""
        if self._pending is None or self.steps_since_save == 0:
            return False
        self._save(self._pending())
        return True

    def _save(self, ckpt: Checkpoint) -> None:
        ckpt = self._finalize(ckpt)
        save_checkpoint(ckpt, self.path, keep=self.keep, faults=self.faults)
        self.last_checkpoint = ckpt
        self.nsaved += 1
        self.steps_since_save = 0
        if self.events is not None:
            self.events.record(
                "checkpoint_saved", path=str(self.path), t=ckpt.t,
                method=ckpt.method, n=self.nsaved,
            )

"""One crash-safe, multi-process store of content-addressed files.

Both compile caches keep their files here: the artifact cache's
``<key>.json`` and the native cache's built ``<key>.so``.  This module
imports nothing from the package, so ``codegen`` can use it without
importing ``compiler``.  A file is published atomically and durably
(unique temp file, fsync, ``os.replace``, directory fsync); a bounded
per-key ``flock`` serialises redundant work across processes; and a
file that fails to load is moved to ``quarantine/`` with a
``cache_quarantined`` event instead of being re-read as a miss forever.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime.events import RuntimeEvents
    from .runtime.faults import StorageFaultInjector

__all__ = ["DiskStore", "fsync_directory"]


def fsync_directory(path: Path) -> None:
    """Flush directory metadata so a completed rename survives a crash
    (best-effort: a platform that cannot must not break the write)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


class DiskStore:
    """Files ``<root>/<key><suffix>`` and the counters of a cache on them.

    ``root=None`` is a memory-only cache; callers check it before any
    file operation.  ``events`` receives ``cache_quarantined`` and
    ``cache_lock_timeout`` incidents; ``faults`` is the chaos harness's
    storage-fault hook.
    """

    def __init__(
        self,
        root: str | Path | None,
        suffix: str,
        events: "RuntimeEvents | None" = None,
        faults: "StorageFaultInjector | None" = None,
        lock_timeout: float = 10.0,
    ) -> None:
        if lock_timeout <= 0:
            raise ValueError("lock_timeout must be positive")
        self.root = Path(root) if root is not None else None
        self.suffix = suffix
        self.events = events
        self.faults = faults
        self.lock_timeout = lock_timeout
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.lock_timeouts = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    @contextlib.contextmanager
    def lock(self, key: str, op: str) -> Iterator[bool]:
        """Hold ``locks/<key>.lock``; yield False if ``lock_timeout``
        ran out first (a stale holder), and the caller goes on without it:
        the atomic rename keeps last-writer-wins correctness.  The file is
        unlinked while still held, so none leak; a concurrent opener of
        the doomed inode just re-locks, benign for this advisory use."""
        lock_path = self.root / "locks" / f"{key}.lock"
        if self.faults is not None:
            self.faults.before_lock(op, lock_path)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.lock_timeout
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        acquired = False
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(0.005)
            if not acquired:
                self.lock_timeouts += 1
                if self.events is not None:
                    self.events.record(
                        "cache_lock_timeout", key=key, op=op,
                        timeout=self.lock_timeout,
                    )
            try:
                yield acquired
            finally:
                if acquired:
                    with contextlib.suppress(OSError):
                        lock_path.unlink()
                    fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def publish(self, key: str, write: Callable[[Path], None]) -> None:
        """Atomically publish what ``write(tmp)`` puts into a temp file
        unique per process and thread (writers past a lock timeout never
        clobber each other's); it is removed if anything fails."""
        path = self.path(key)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            write(tmp)
            fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        fsync_directory(self.root)

    def quarantine(self, key: str, reason: str) -> None:
        """Move ``<key><suffix>`` aside so the next writer starts clean and
        operators can post-mortem the bad bytes."""
        try:
            qdir = self.root / "quarantine"
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / (
                f"{key}.{os.getpid()}.{self.quarantined}{self.suffix}"
            )
            os.replace(self.path(key), target)
        except OSError:  # pragma: no cover - racing unlink/move is fine
            target = None
        self.quarantined += 1
        if self.events is not None:
            self.events.record(
                "cache_quarantined", key=key, reason=reason,
                moved_to=str(target) if target is not None else None,
            )

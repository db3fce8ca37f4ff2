"""Native build + load layer for ``backend="c"``.

Takes the executable translation unit emitted by
:func:`repro.codegen.gen_c.generate_c_tasks`, compiles it once per
machine with the system C compiler, and calls it through one
hand-written, model-independent CPython extension, ``_native.c`` (the
*glue*).  The glue opens a unit with ``dlopen`` and hands back plain Python
callables with the exact signatures the runtime already uses —
``fn(t, y, p, out)`` writing into caller-owned float64 buffers, and the
task runner ``run_tasks(ids, t, y, p, out, times)`` that evaluates a
whole task list in one call.  Each is one ``METH_FASTCALL`` call that
checks every buffer and releases the GIL around the C code.  The glue's
``Pool`` goes one step further: a pthread pool that runs a whole round
— every dependency level, a barrier after each — in one call, which is
how :class:`~repro.runtime.ThreadedExecutor` runs native programs.  The
generated units never include ``<Python.h>``; the glue is built once per
(machine, toolchain, interpreter) into ``glue/`` under the cache and
imported once per process.

Build products are content-addressed: the cache key digests the C
source, the compile flags, and the compiler's version line, so a model
compiles natively exactly once per (machine, toolchain) and every later
compile — in this process or any other — is a ``dlopen``.  The on-disk
store (default ``$REPRO_NATIVE_CACHE`` or ``~/.cache/repro/native``) is
the artifact cache's :class:`~repro.store.DiskStore`: objects are
published with fsync and an atomic rename under a per-key lock, and one
that fails to load is quarantined and rebuilt.  It is bounded: size/count
eviction drops the oldest ``.so`` files and records a
``native_cache_evicted`` event, so long-lived hosts don't accumulate
unbounded build products.

Numerical discipline: sources are compiled with ``-ffp-contract=off`` so
the compiler cannot contract ``a*b + c`` into an FMA — that single flag
is what keeps native results within 1e-12 of the Python backend (both
call the same libm; CPython's ``math`` does too).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import threading
import time
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..store import DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES, DiskStore
from .gen_c import NativeSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.events import RuntimeEvents

__all__ = [
    "CFLAGS",
    "NativeCache",
    "NativeModule",
    "NativeUnavailable",
    "build_native_module",
    "default_native_cache_dir",
    "find_compiler",
    "get_default_native_cache",
    "load_native_module",
    "native_key",
]

#: compile flags; ``-ffp-contract=off`` is load-bearing (see module doc),
#: ``-fno-math-errno`` lets libm calls inline without errno bookkeeping;
#: ``-O1`` because a unit's straight-line arithmetic runs no faster at
#: ``-O2``, which builds it in about 1.5x the time
CFLAGS = ("-O1", "-fPIC", "-shared", "-fno-math-errno", "-ffp-contract=off")


class NativeUnavailable(RuntimeError):
    """The native backend cannot run here; carries a structured reason.

    ``reason`` is a short machine-readable code (``no_compiler``,
    ``no_python_headers``, ``compile_failed``, ``load_failed``) surfaced as the
    ``native_unavailable`` metric so callers fall back to the Python
    backend with a diagnostic instead of a traceback.
    """

    def __init__(self, reason: str, detail: str) -> None:
        self.reason = reason
        super().__init__(detail)


# ---------------------------------------------------------------------------
# Toolchain discovery
# ---------------------------------------------------------------------------

_probe_lock = threading.Lock()
_probe_cache: dict[str, Any] = {}


def _probe_toolchain() -> dict[str, Any]:
    """Locate a C compiler and capture its version line (cached).

    ``$REPRO_CC`` overrides discovery; otherwise ``cc``/``gcc``/``clang``
    are tried in order.  Returns ``{"cc": [argv0] | None, "version": str,
    "reason": str}``.
    """
    with _probe_lock:
        if _probe_cache:
            return _probe_cache
        candidates = []
        env = os.environ.get("REPRO_CC")
        if env:
            candidates.append(env)
        else:
            candidates.extend(["cc", "gcc", "clang"])
        result: dict[str, Any] = {
            "cc": None,
            "version": "",
            "reason": f"no C compiler found (tried {', '.join(candidates)}; "
                      f"set $REPRO_CC to override)",
        }
        for cand in candidates:
            path = shutil.which(cand)
            if path is None:
                continue
            try:
                proc = subprocess.run(
                    [path, "--version"], capture_output=True, text=True,
                    timeout=30,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if proc.returncode != 0:
                continue
            result = {
                "cc": [path],
                "version": (proc.stdout or "").splitlines()[0]
                if proc.stdout else cand,
                "reason": "",
            }
            break
        _probe_cache.update(result)
        return _probe_cache


def _reset_toolchain_probe() -> None:
    """Forget the cached probe (tests that monkeypatch $REPRO_CC)."""
    with _probe_lock:
        _probe_cache.clear()


def find_compiler() -> list[str] | None:
    """The compiler argv prefix, or ``None`` when no toolchain exists."""
    return _probe_toolchain()["cc"]


def native_key(native: NativeSource) -> str | None:
    """Content address of the build product (None without a compiler).

    Digests the C source, the flags, and the compiler version line: a
    toolchain upgrade or flag change rebuilds rather than trusting a
    stale object.
    """
    probe = _probe_toolchain()
    if probe["cc"] is None:
        return None
    return _digest(native.source, "\n".join(CFLAGS), probe["version"])


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _compile(cc: list[str], src: Path, out: Path, *extra: str) -> None:
    """``cc CFLAGS -o out src extra...``, or :class:`NativeUnavailable`."""
    cmd = [*cc, *CFLAGS, "-o", str(out), str(src), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise NativeUnavailable(
            "compile_failed", f"native build failed: {exc}"
        ) from exc
    if proc.returncode != 0:
        tail = (proc.stderr or "").strip().splitlines()[-8:]
        raise NativeUnavailable(
            "compile_failed",
            f"{' '.join(cmd)} failed (exit {proc.returncode}): "
            + " | ".join(tail),
        )


# ---------------------------------------------------------------------------
# The glue: one hand-written CPython extension that calls every unit
# ---------------------------------------------------------------------------

#: the glue's source; the only C here that includes ``<Python.h>``
GLUE_SOURCE = Path(__file__).with_name("_native.c")

_glue_lock = threading.Lock()
_glue: ModuleType | None = None


def _python_include() -> str:
    return sysconfig.get_paths()["include"]


def _build_glue(cache_root: Path) -> Path:
    """Build the glue into ``cache_root/glue`` unless it is already there.

    Keyed by the glue source, the flags, the compiler's version line, the
    interpreter's ABI tag and the header directory.  It lives in its own
    subdirectory so the cache's ``*.so`` eviction never reaches it.
    """
    probe = _probe_toolchain()
    if probe["cc"] is None:
        raise NativeUnavailable("no_compiler", probe["reason"])
    include = _python_include()
    key = _digest(
        GLUE_SOURCE.read_text(), "\n".join(CFLAGS), probe["version"],
        str(sysconfig.get_config_var("SOABI")), include,
    )
    store = DiskStore(cache_root / "glue", ".so")
    name = f"_native-{key[:16]}"
    if not store.path(name).exists():
        if not (Path(include) / "Python.h").is_file():
            raise NativeUnavailable(
                "no_python_headers",
                f"Python.h not found under {include}: the native backend "
                f"needs the Python development headers",
            )
        try:
            store.publish(name, lambda tmp: _compile(
                probe["cc"], GLUE_SOURCE, tmp, f"-I{include}", "-ldl",
                "-pthread",
            ))
        except OSError as exc:
            raise NativeUnavailable(
                "compile_failed", f"glue build failed: {exc}"
            ) from exc
    return store.path(name)


def _load_glue(cache_root: Path, shipped: str | None = None) -> ModuleType:
    """The glue module, imported once per process.

    ``shipped`` is the path a parent process loaded it from; a worker
    imports that file when it exists, and otherwise builds (or finds) its
    own under ``cache_root``.
    """
    global _glue
    with _glue_lock:
        if _glue is None:
            if shipped is not None and Path(shipped).exists():
                path = Path(shipped)
            else:
                path = _build_glue(cache_root)
            spec = importlib.util.spec_from_file_location(
                "repro.codegen._native", path
            )
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError as exc:
                raise NativeUnavailable(
                    "load_failed", f"cannot load the glue {path}: {exc}"
                ) from exc
            _glue = module
        return _glue


class NativeModule:
    """A loaded native translation unit, called through the glue.

    ``rhs`` and ``jac_sparse`` have the runtime's ``fn(t, y, p, out)``
    shape and write into the caller's contiguous float64 buffers.
    ``run_tasks(ids, t, y, p, out, times)`` is the task runner: the tasks
    of the tuple ``ids`` in order, in one C call (one GIL release), each
    one's wall time written to ``times[id]``.  ``tasks[k]`` is a one-task
    ``run_tasks`` call.  :meth:`pool` starts the glue's thread pool over
    this unit.  Every call checks its buffers and raises
    ``ValueError`` naming a wrong one.  ``native`` keeps the
    :class:`NativeSource` and ``glue_path`` the glue's file, so
    :class:`~repro.codegen.program.ProgramSpec` can ship both to
    process-pool workers.
    """

    def __init__(
        self, path: Path, native: NativeSource, glue: ModuleType
    ) -> None:
        self.path = path
        self.native = native
        self.glue_path = Path(glue.__file__)
        self._pool_type = glue.Pool
        self._unit = glue.open(
            str(path), native.num_states, native.num_partials,
            native.num_tasks, native.num_params,
            native.jac_nnz if native.has_jacobian else -1,
        )
        self.rhs = self._unit.rhs
        self.run_tasks = self._unit.run_tasks
        self.jac_sparse = self._unit.jac if native.has_jacobian else None
        times = np.empty(native.num_tasks)
        self.tasks = [
            _one_task(self.run_tasks, k, times)
            for k in range(native.num_tasks)
        ]

    def pool(self, num_workers: int, levels, timeout: float):
        """The glue's ``Pool``: ``num_workers - 1`` threads that run whole
        rounds of this unit's tasks with the caller, ``levels`` (task ids
        per dependency level) one after another, a barrier wait after
        each bounded by ``timeout`` seconds.  See ``_native.c``."""
        return self._pool_type(self._unit, num_workers, levels, timeout)

    def start(self) -> np.ndarray:
        return self._unit.start(np.empty(self.native.num_states))

    def params(self) -> np.ndarray:
        return self._unit.params(np.empty(self.native.num_params))

    def __repr__(self) -> str:
        return f"<NativeModule {self.native.name}: {self.path.name}>"


def _one_task(run_tasks: Callable, k: int, times: np.ndarray) -> Callable:
    """Task ``k`` as ``fn(t, y, p, out)``; its time goes to scratch."""
    ids = (k,)

    def task(t, y, p, out):
        run_tasks(ids, t, y, p, out, times)

    return task


def load_native_module(
    path: Path, native: NativeSource, glue: str | None = None
) -> NativeModule:
    """``dlopen`` a built object through the glue.

    The glue is the file ``glue`` when given and present, else built or
    found beside ``path``.  The object's layout probes (``NUM_STATES`` …)
    are cross-checked against the :class:`NativeSource` so a wrong object
    can never be called with mismatched buffers.
    """
    path = Path(path)
    try:
        return NativeModule(path, native, _load_glue(path.parent, glue))
    except OSError as exc:
        raise NativeUnavailable("load_failed", str(exc)) from exc


# ---------------------------------------------------------------------------
# The bounded on-disk cache of build products
# ---------------------------------------------------------------------------


def default_native_cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "native"


class NativeCache(DiskStore):
    """Built ``<key>.so`` files in a :class:`~repro.store.DiskStore`, plus
    the table of modules this process has loaded from them (append-only:
    a shared object cannot be safely unloaded).

    The disk level is **bounded**: after every build, the oldest objects
    (by mtime — loads touch their object, so this is LRU-ish) are evicted
    until at most ``max_entries`` files / ``max_bytes`` bytes remain,
    recording a ``native_cache_evicted`` event per victim.
    """

    evict_event = "native_cache_evicted"

    def __init__(
        self,
        root: str | Path | None = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        events: "RuntimeEvents | None" = None,
    ) -> None:
        super().__init__(
            root if root is not None else default_native_cache_dir(),
            ".so", events, max_entries=max_entries, max_bytes=max_bytes,
        )
        self._modules: dict[str, NativeModule] = {}

    so_path = DiskStore.path

    def open(
        self, key: str, native: NativeSource, glue: ModuleType
    ) -> tuple[NativeModule, str]:
        """The loaded module for ``key`` and the level that answered:
        ``"memory"``, ``"disk"`` or ``"build"``.  An object that fails to
        load is quarantined and rebuilt once; if that one fails too, this
        raises ``load_failed`` rather than loop."""
        module = self._modules.get(key)
        if module is not None:
            self.hits += 1
            return module, "memory"
        path = self.path(key)
        for retry in (False, True):
            built = self._build(key, native)
            try:
                module = NativeModule(path, native, glue)
                break
            except OSError as exc:
                self.quarantine(key, f"load_failed: {exc}")
                if built or retry:
                    raise NativeUnavailable("load_failed", str(exc)) from exc
        if built:
            self.misses += 1
        else:
            self.hits += 1
            self.touch(key)
        self._modules[key] = module
        return module, "build" if built else "disk"

    def _build(self, key: str, native: NativeSource) -> bool:
        """Build and publish ``<key>.so`` unless it exists; True if built.
        The check is repeated under the key's lock, so a builder that
        waited on a concurrent one loads its object, not ``cc`` again."""
        path = self.path(key)
        if path.exists():
            return False
        probe = _probe_toolchain()
        if probe["cc"] is None:
            raise NativeUnavailable("no_compiler", probe["reason"])
        with self.lock(key, "native_build"):
            if path.exists():
                return False
            try:
                self.publish(
                    key, lambda tmp: _build_unit(probe["cc"], native, tmp)
                )
            except OSError as exc:
                raise NativeUnavailable(
                    "compile_failed", f"native build failed: {exc}"
                ) from exc
        if self.events is not None:
            self.events.record(
                "native_build", key=key, model=native.name,
                compiler=probe["version"],
            )
        self.evict(protect=path)
        return True

    def evict(self, protect: Path | None = None) -> list[str]:
        """Drop the oldest ``.so`` files beyond the size/count bounds."""
        evicted = super().evict(protect)
        for key in evicted:
            self._modules.pop(key, None)
        return evicted

    def __repr__(self) -> str:
        return (
            f"<NativeCache {self.root}: {len(self._modules)} loaded, "
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.evictions} evicted>"
        )


_default_cache_lock = threading.Lock()
_default_cache: NativeCache | None = None


def get_default_native_cache() -> NativeCache:
    """The process-wide cache at :func:`default_native_cache_dir`."""
    global _default_cache
    with _default_cache_lock:
        if (
            _default_cache is None
            or _default_cache.root != default_native_cache_dir()
        ):
            _default_cache = NativeCache()
        return _default_cache


# ---------------------------------------------------------------------------
# Build driver
# ---------------------------------------------------------------------------


def _build_unit(cc: list[str], native: NativeSource, out: Path) -> None:
    """Compile the unit's source into ``out`` (a store temp file)."""
    src = out.with_suffix(".c")
    try:
        src.write_text(native.source + "\n")
        _compile(cc, src, out, "-lm")
    finally:
        src.unlink(missing_ok=True)


def build_native_module(
    native: NativeSource,
    cache: NativeCache | None = None,
    glue: str | None = None,
    key: str | None = None,
) -> tuple[NativeModule, dict[str, Any]]:
    """Compile (or reuse) and load the native module for ``native``.

    ``glue`` is a shipped glue path, as for :func:`load_native_module`;
    ``key`` is the unit's :func:`native_key` if the caller has it (a
    process-pool worker gets its parent's and, finding the object, only
    runs ``dlopen``).  Returns ``(module, info)``, ``info`` recording
    ``cache_hit`` (memory or disk) and ``build_ms`` for ``--explain``.
    Raises :class:`NativeUnavailable` when no compiler or no Python
    headers exist, or the build or load fails — callers degrade to the
    Python backend.
    """
    cache = cache if cache is not None else get_default_native_cache()
    t0 = time.perf_counter()
    key = key if key is not None else native_key(native)
    if key is None:
        raise NativeUnavailable("no_compiler", _probe_toolchain()["reason"])
    # the glue first: missing headers skip the cc run
    module, level = cache.open(key, native, _load_glue(cache.root, glue))
    return module, {
        "cache_hit": level != "build",
        "level": level,
        "key": key,
        "build_ms": (time.perf_counter() - t0) * 1e3,
    }

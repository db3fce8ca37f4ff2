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
checks every buffer and releases the GIL around the C code, so
:class:`~repro.runtime.ThreadedExecutor` gets true multi-core
parallelism from native tasks.  The generated units never include
``<Python.h>``; the glue is built once per (machine, toolchain,
interpreter) into ``glue/`` under the cache and imported once per
process.

Build products are content-addressed: the cache key digests the C
source, the compile flags, and the compiler's version line, so a model
compiles natively exactly once per (machine, toolchain) and every later
compile — in this process or any other — is a ``dlopen``.  The on-disk
store (default ``$REPRO_NATIVE_CACHE`` or ``~/.cache/repro/native``) is
bounded: size/count eviction drops the oldest ``.so`` files and records
a ``native_cache_evicted`` event, so long-lived hosts don't accumulate
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
#: ``-fno-math-errno`` lets libm calls inline without errno bookkeeping
CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-math-errno", "-ffp-contract=off")


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
    target = cache_root / "glue" / f"_native-{key[:16]}.so"
    if not target.exists():
        if not (Path(include) / "Python.h").is_file():
            raise NativeUnavailable(
                "no_python_headers",
                f"Python.h not found under {include}: the native backend "
                f"needs the Python development headers",
            )
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            _compile(probe["cc"], GLUE_SOURCE, tmp, f"-I{include}", "-ldl")
            os.replace(tmp, target)
        except OSError as exc:
            raise NativeUnavailable(
                "compile_failed", f"glue build failed: {exc}"
            ) from exc
        finally:
            tmp.unlink(missing_ok=True)
    return target


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
    ``run_tasks`` call.  Every call checks its buffers and raises
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

    def start(self) -> np.ndarray:
        return self._unit.start(np.empty(self.num_states))

    def params(self) -> np.ndarray:
        return self._unit.params(np.empty(self.native.num_params))

    @property
    def num_states(self) -> int:
        return self.native.num_states

    @property
    def num_tasks(self) -> int:
        return self.native.num_tasks

    @property
    def source(self) -> str:
        return self.native.source

    def __repr__(self) -> str:
        return (
            f"<NativeModule {self.native.name}: {self.num_tasks} tasks, "
            f"{self.path.name}>"
        )


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


class NativeCache:
    """Content-addressed store of built ``.so`` files plus loaded modules.

    Two levels, mirroring :class:`~repro.compiler.cache.ArtifactCache`:
    an in-process table of already-``dlopen``-ed modules (a shared object
    cannot be safely unloaded, so this layer is append-only and bounded
    by the number of distinct models a process compiles), and the on-disk
    ``<key>.so`` store shared across processes.

    The disk layer is **bounded**: after every store, the oldest objects
    (by mtime — loads touch their object, so this is LRU-ish) are evicted
    until at most ``max_entries`` files / ``max_bytes`` bytes remain,
    recording a ``native_cache_evicted`` event per victim.  Stores are
    atomic renames; concurrent builders of the same key race benignly to
    an identical artifact.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        max_entries: int = 256,
        max_bytes: int = 512 * 1024 * 1024,
        events: "RuntimeEvents | None" = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root) if root is not None else (
            default_native_cache_dir()
        )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.events = events
        self._modules: dict[str, NativeModule] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def so_path(self, key: str) -> Path:
        return self.root / f"{key}.so"

    def get_module(self, key: str) -> NativeModule | None:
        return self._modules.get(key)

    def put_module(self, key: str, module: NativeModule) -> None:
        self._modules[key] = module

    def store(self, key: str, built_so: Path) -> Path:
        """Atomically publish a freshly built object, then evict."""
        self.root.mkdir(parents=True, exist_ok=True)
        target = self.so_path(key)
        os.replace(built_so, target)
        self.evict(protect=target)
        return target

    def evict(self, protect: Path | None = None) -> int:
        """Drop oldest ``.so`` files beyond the size/count bounds."""
        try:
            entries = [
                (p, p.stat()) for p in self.root.glob("*.so")
            ]
        except OSError:  # pragma: no cover - cache dir vanished
            return 0
        entries.sort(key=lambda e: e[1].st_mtime)
        total = sum(st.st_size for _, st in entries)
        evicted = 0
        for path, st in entries:
            if len(entries) - evicted <= 1:
                break  # always keep the newest object
            within = (
                len(entries) - evicted <= self.max_entries
                and total <= self.max_bytes
            )
            if within:
                break
            if protect is not None and path == protect:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            self._modules.pop(path.stem, None)
            total -= st.st_size
            evicted += 1
            self.evictions += 1
            if self.events is not None:
                self.events.record(
                    "native_cache_evicted",
                    key=path.stem, size=st.st_size,
                    reason=f"bounds: max_entries={self.max_entries}, "
                           f"max_bytes={self.max_bytes}",
                )
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


def build_native_module(
    native: NativeSource,
    cache: NativeCache | None = None,
    events: "RuntimeEvents | None" = None,
    glue: str | None = None,
) -> tuple[NativeModule, dict[str, Any]]:
    """Compile (or reuse) and load the native module for ``native``.

    ``glue`` is a shipped glue path, as for :func:`load_native_module`.
    Returns ``(module, info)`` where ``info`` records ``cache_hit``
    (memory or disk) and ``build_ms`` for the ``--explain`` report.
    Raises :class:`NativeUnavailable` when no compiler or no Python
    headers exist or the build fails — callers degrade to the Python
    backend.
    """
    cache = cache if cache is not None else get_default_native_cache()
    t0 = time.perf_counter()
    probe = _probe_toolchain()
    if probe["cc"] is None:
        raise NativeUnavailable("no_compiler", probe["reason"])
    _load_glue(cache.root, glue)  # first: missing headers skip the cc run
    key = native_key(native)
    assert key is not None

    module = cache.get_module(key)
    if module is not None:
        cache.hits += 1
        return module, {
            "cache_hit": True, "level": "memory", "key": key,
            "build_ms": (time.perf_counter() - t0) * 1e3,
        }

    so_path = cache.so_path(key)
    cache_hit = so_path.exists()
    if cache_hit:
        cache.hits += 1
        # Touch for the cache's mtime-ordered eviction (LRU-ish).
        try:
            os.utime(so_path)
        except OSError:  # pragma: no cover - read-only cache dir
            pass
    else:
        cache.misses += 1
        # Build in the cache directory itself so the publishing rename
        # never crosses a filesystem boundary; unique names per process.
        tag = f"{key}.{os.getpid()}"
        src = cache.root / f"{tag}.c"
        tmp_so = cache.root / f"{tag}.so.tmp"
        try:
            cache.root.mkdir(parents=True, exist_ok=True)
            src.write_text(native.source + "\n")
            _compile(probe["cc"], src, tmp_so, "-lm")
            cache.store(key, tmp_so)
        except OSError as exc:
            raise NativeUnavailable(
                "compile_failed", f"native build failed: {exc}"
            ) from exc
        finally:
            src.unlink(missing_ok=True)
            tmp_so.unlink(missing_ok=True)
        if events is not None:
            events.record(
                "native_build", key=key, model=native.name,
                compiler=probe["version"],
            )

    module = load_native_module(so_path, native, glue)
    cache.put_module(key, module)
    return module, {
        "cache_hit": cache_hit,
        "level": "disk" if cache_hit else "build",
        "key": key,
        "build_ms": (time.perf_counter() - t0) * 1e3,
    }

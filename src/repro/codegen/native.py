"""Native build + load layer for ``backend="c"``.

Takes the executable translation unit emitted by
:func:`repro.codegen.gen_c.generate_c_tasks`, compiles it once per
machine with the system C compiler, and loads the shared object through
cffi's ABI mode (fallback: ctypes) into plain Python callables with the
exact signatures the runtime already uses — ``fn(t, y, p, out)`` writing
into caller-owned float64 buffers, and the task runner
``run_tasks(ids, t, y, p, out, times)`` that evaluates a whole task list
in one call.  Both FFI paths release the GIL for the duration of the C
call, so :class:`~repro.runtime.ThreadedExecutor` gets true multi-core
parallelism from native tasks.

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

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
import time
from pathlib import Path
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
    ``compile_failed``, ``load_failed``) surfaced as the
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
    h = hashlib.sha256()
    for part in (native.source, "\n".join(CFLAGS), probe["version"]):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Loading (cffi preferred, ctypes fallback; both release the GIL)
# ---------------------------------------------------------------------------


class NativeModule:
    """A loaded native translation unit: plain Python callables over C.

    ``rhs`` / ``tasks[k]`` / ``jac_sparse`` all have the runtime's
    ``fn(t, y, p, out)`` shape and write into the caller's contiguous
    float64 buffers.  ``run_tasks(ids, t, y, p, out, times)`` is the
    task runner: the tasks of the tuple ``ids`` in order, in one foreign
    call (one GIL release), each one's wall time written to
    ``times[id]``.  ``native`` keeps the :class:`NativeSource` so
    :class:`~repro.codegen.program.ProgramSpec` can ship the rebuild
    recipe to process-pool workers.
    """

    def __init__(
        self,
        path: Path,
        native: NativeSource,
        ffi_kind: str,
        rhs: Callable,
        tasks: list[Callable],
        run_tasks: Callable,
        jac_sparse: Callable | None,
        start: Callable,
        params: Callable,
    ) -> None:
        self.path = path
        self.native = native
        self.ffi_kind = ffi_kind
        self.rhs = rhs
        self.tasks = tasks
        self.run_tasks = run_tasks
        self.jac_sparse = jac_sparse
        self.start = start
        self.params = params

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
            f"ffi={self.ffi_kind}, {self.path.name}>"
        )


#: id tuples a task runner keeps as C ``int`` arrays; a schedule has a
#: handful, the cap bounds a pool that keeps reassigning
_MAX_ID_ARRAYS = 1024


def _id_arrays(convert: Callable) -> Callable:
    """``ids -> convert(ids)``, cached per id tuple."""
    cache: dict[tuple, Any] = {}

    def get(ids: tuple):
        arr = cache.get(ids)
        if arr is None:
            if len(cache) >= _MAX_ID_ARRAYS:
                cache.clear()
            arr = cache[ids] = convert(ids)
        return arr

    return get


def _load_cffi(path: Path, native: NativeSource):
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(native.cdef)
    lib = ffi.dlopen(str(path))
    from_buffer = ffi.from_buffer

    def wrap(cfn):
        def call(t, y, p, out):
            cfn(
                t,
                from_buffer("double[]", y),
                from_buffer("double[]", p),
                from_buffer("double[]", out),
            )
            return out

        return call

    def vec(cfn, n):
        def call():
            out = np.empty(n, dtype=float)
            cfn(from_buffer("double[]", out))
            return out

        return call

    def batch(cfn):
        id_array = _id_arrays(lambda ids: ffi.new("int[]", ids))

        def run(ids, t, y, p, out, times):
            if ids:
                cfn(
                    t,
                    from_buffer("double[]", y),
                    from_buffer("double[]", p),
                    from_buffer("double[]", out),
                    id_array(ids),
                    len(ids),
                    from_buffer("double[]", times),
                )

        return run

    return lib, wrap, vec, batch


def _load_ctypes(path: Path, native: NativeSource):
    lib = ctypes.CDLL(str(path))
    c_double, c_int = ctypes.c_double, ctypes.c_int
    PD = ctypes.POINTER(c_double)
    exported = ["RHS", "START", "PARAMS"] + [
        f"task_{k}" for k in range(native.num_tasks)
    ]
    if native.has_jacobian:
        exported.append("JAC")
    for name in exported:
        fn = getattr(lib, name)
        fn.restype = None
        if name in ("START", "PARAMS"):
            fn.argtypes = [PD]
        else:
            fn.argtypes = [c_double, PD, PD, PD]
    lib.run_tasks.restype = None
    lib.run_tasks.argtypes = [
        c_double, PD, PD, PD, ctypes.POINTER(c_int), c_int, PD,
    ]
    for name in ("NUM_STATES", "NUM_PARTIALS", "NUM_TASKS"):
        fn = getattr(lib, name)
        fn.restype = c_int
        fn.argtypes = []

    def wrap(cfn):
        def call(t, y, p, out):
            cfn(
                t,
                y.ctypes.data_as(PD),
                p.ctypes.data_as(PD),
                out.ctypes.data_as(PD),
            )
            return out

        return call

    def vec(cfn, n):
        def call():
            out = np.empty(n, dtype=float)
            cfn(out.ctypes.data_as(PD))
            return out

        return call

    def batch(cfn):
        id_array = _id_arrays(lambda ids: (c_int * len(ids))(*ids))

        def run(ids, t, y, p, out, times):
            if ids:
                cfn(
                    t,
                    y.ctypes.data_as(PD),
                    p.ctypes.data_as(PD),
                    out.ctypes.data_as(PD),
                    id_array(ids),
                    len(ids),
                    times.ctypes.data_as(PD),
                )

        return run

    return lib, wrap, vec, batch


def load_native_module(path: Path, native: NativeSource) -> NativeModule:
    """``dlopen`` a built object and wrap its exports as Python callables.

    Prefers cffi ABI mode; falls back to ctypes when cffi is missing
    (``$REPRO_NATIVE_FFI=ctypes`` forces the fallback for testing).  The
    module's layout probes (``NUM_STATES`` …) are cross-checked against
    the :class:`NativeSource` so a wrong object can never be silently
    called with mismatched buffers.
    """
    path = Path(path)
    forced = os.environ.get("REPRO_NATIVE_FFI", "")
    try:
        try:
            if forced == "ctypes":
                raise ImportError("ctypes forced via $REPRO_NATIVE_FFI")
            lib, wrap, vec, batch = _load_cffi(path, native)
            ffi_kind = "cffi"
        except ImportError:
            lib, wrap, vec, batch = _load_ctypes(path, native)
            ffi_kind = "ctypes"
    except OSError as exc:
        raise NativeUnavailable(
            "load_failed", f"cannot load native module {path}: {exc}"
        ) from exc
    got = (
        int(lib.NUM_STATES()), int(lib.NUM_PARTIALS()), int(lib.NUM_TASKS())
    )
    want = (native.num_states, native.num_partials, native.num_tasks)
    if got != want:
        raise NativeUnavailable(
            "load_failed",
            f"native module {path} layout mismatch: "
            f"(states, partials, tasks) = {got}, expected {want}",
        )
    jac_sparse = wrap(lib.JAC) if native.has_jacobian else None
    return NativeModule(
        path=path,
        native=native,
        ffi_kind=ffi_kind,
        rhs=wrap(lib.RHS),
        tasks=[
            wrap(getattr(lib, f"task_{k}")) for k in range(native.num_tasks)
        ],
        run_tasks=batch(lib.run_tasks),
        jac_sparse=jac_sparse,
        start=vec(lib.START, native.num_states),
        params=vec(lib.PARAMS, native.num_params),
    )


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
) -> tuple[NativeModule, dict[str, Any]]:
    """Compile (or reuse) and load the native module for ``native``.

    Returns ``(module, info)`` where ``info`` records ``cache_hit``
    (memory or disk), ``build_ms`` and ``ffi`` for the ``--explain``
    report.  Raises :class:`NativeUnavailable` when no compiler exists or
    the build fails — callers degrade to the Python backend.
    """
    cache = cache if cache is not None else get_default_native_cache()
    t0 = time.perf_counter()
    probe = _probe_toolchain()
    if probe["cc"] is None:
        raise NativeUnavailable("no_compiler", probe["reason"])
    key = native_key(native)
    assert key is not None

    module = cache.get_module(key)
    if module is not None:
        cache.hits += 1
        return module, {
            "cache_hit": True, "level": "memory", "key": key,
            "build_ms": (time.perf_counter() - t0) * 1e3,
            "ffi": module.ffi_kind,
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
        cache.root.mkdir(parents=True, exist_ok=True)
        # Build in the cache directory itself so the publishing rename
        # never crosses a filesystem boundary; unique names per process.
        tag = f"{key}.{os.getpid()}"
        src = cache.root / f"{tag}.c"
        tmp_so = cache.root / f"{tag}.so.tmp"
        try:
            src.write_text(native.source + "\n")
            cmd = [*probe["cc"], *CFLAGS, "-o", str(tmp_so), str(src), "-lm"]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=300
            )
            if proc.returncode != 0:
                tail = (proc.stderr or "").strip().splitlines()[-8:]
                raise NativeUnavailable(
                    "compile_failed",
                    f"{' '.join(cmd)} failed "
                    f"(exit {proc.returncode}): " + " | ".join(tail),
                )
            cache.store(key, tmp_so)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise NativeUnavailable(
                "compile_failed", f"native build failed: {exc}"
            ) from exc
        finally:
            for leftover in (src, tmp_so):
                try:
                    leftover.unlink()
                except OSError:
                    pass
        if events is not None:
            events.record(
                "native_build", key=key, model=native.name,
                compiler=probe["version"],
            )

    module = load_native_module(so_path, native)
    cache.put_module(key, module)
    return module, {
        "cache_hit": cache_hit,
        "level": "disk" if cache_hit else "build",
        "key": key,
        "build_ms": (time.perf_counter() - t0) * 1e3,
        "ffi": module.ffi_kind,
    }

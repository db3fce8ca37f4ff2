"""Crash-consistent storage: checkpoint CRC/rotation/fallback, artifact
cache quarantine and advisory locking, quarantine and rebuild of a corrupt
native object, storage fault injection, and the bounded runtime event
log."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro.compiler.cache as cache_module
from repro.codegen.native import NativeCache, find_compiler
from repro.compiler import (
    ArtifactCache,
    CompileOptions,
    artifact_key,
    compile_context,
)
from repro.runtime import (
    Checkpoint,
    CheckpointError,
    Checkpointer,
    RuntimeEvents,
    StorageFaultInjector,
    StorageFaultSpec,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.checkpoint import rotated_paths
from repro.runtime.events import DEFAULT_MAXLEN

_SRC = """
MODEL storosc;
CLASS Osc
  STATE x := 1.0;
  STATE v := 0.0;
  PARAMETER k := 4.0;
  EQUATION Eq[1] := der(x) == v;
  EQUATION Eq[2] := der(v) == -k * x;
END Osc;
INSTANCE A INHERITS Osc;
END storosc;
"""


def make_ckpt(t=1.0):
    return Checkpoint(
        method="rk45", t=t, y=np.array([1.0, 2.0]), h=0.1, direction=1.0,
        order=5,
    )


class TestCheckpointCrc:
    def test_round_trip_carries_valid_crc(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(make_ckpt(), path)
        payload = json.loads(path.read_text())
        assert isinstance(payload["crc"], int)
        ckpt = load_checkpoint(path)
        assert ckpt.t == 1.0

    def test_bit_flip_is_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(make_ckpt(), path, keep=1)
        raw = bytearray(path.read_bytes())
        # flip one bit inside the numeric payload (not the crc field)
        pos = raw.find(b'"t": 1.0')
        if pos < 0:
            pos = len(raw) // 2
        raw[pos + 6] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, fallback=False)

    def test_torn_write_is_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(make_ckpt(), path, keep=1)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, fallback=False)

    def test_no_stale_tmp_after_save(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(make_ckpt(), path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_serialization_removes_tmp(self, tmp_path):
        path = tmp_path / "c.ckpt"
        bad = make_ckpt()
        bad.meta = {"unserializable": object()}
        with pytest.raises(TypeError):
            save_checkpoint(bad, path)
        assert not list(tmp_path.glob("*.tmp"))
        assert not path.exists()


class TestCheckpointRotation:
    def test_generations_rotate_newest_first(self, tmp_path):
        path = tmp_path / "c.ckpt"
        for t in (1.0, 2.0, 3.0, 4.0):
            save_checkpoint(make_ckpt(t), path, keep=3)
        gens = rotated_paths(path, 3)
        assert [p.exists() for p in gens] == [True, True, True]
        assert load_checkpoint(gens[0], fallback=False).t == 4.0
        assert load_checkpoint(gens[1], fallback=False).t == 3.0
        assert load_checkpoint(gens[2], fallback=False).t == 2.0
        # keep=3 means generation .3 never appears
        assert not path.with_name(path.name + ".3").exists()

    def test_keep_one_disables_rotation(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(make_ckpt(1.0), path, keep=1)
        save_checkpoint(make_ckpt(2.0), path, keep=1)
        assert load_checkpoint(path).t == 2.0
        assert not path.with_name(path.name + ".1").exists()

    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        events = RuntimeEvents()
        path = tmp_path / "c.ckpt"
        save_checkpoint(make_ckpt(1.0), path, keep=3)
        save_checkpoint(make_ckpt(2.0), path, keep=3)
        path.write_text("garbage")
        ckpt = load_checkpoint(path, keep=3, events=events)
        assert ckpt.t == 1.0
        fb = events.of_kind("checkpoint_fallback")
        assert len(fb) == 1
        assert fb[0].data["generation"] == 1

    def test_all_generations_corrupt_raises_first_error(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(make_ckpt(1.0), path, keep=2)
        save_checkpoint(make_ckpt(2.0), path, keep=2)
        for p in rotated_paths(path, 2):
            p.write_text("garbage")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path, keep=2)

    def test_checkpointer_threads_keep_through(self, tmp_path):
        path = tmp_path / "c.ckpt"
        cp = Checkpointer(path, every=1, keep=2)
        for t in (1.0, 2.0):
            cp.step(lambda t=t: make_ckpt(t))
        assert load_checkpoint(path.with_name(path.name + ".1"),
                               fallback=False).t == 1.0


class TestCheckpointStorageFaults:
    def test_injected_torn_write_recovers_via_rotation(self, tmp_path):
        events = RuntimeEvents()
        path = tmp_path / "c.ckpt"
        save_checkpoint(make_ckpt(1.0), path, keep=3)
        faults = StorageFaultInjector(
            [StorageFaultSpec(op="checkpoint_save", kind="torn_write")],
            events=events,
        )
        save_checkpoint(make_ckpt(2.0), path, keep=3, faults=faults)
        assert events.count("fault_injected") == 1
        ckpt = load_checkpoint(path, keep=3, events=events)
        assert ckpt.t == 1.0  # torn latest fell back one generation
        assert events.count("checkpoint_fallback") == 1

    def test_injected_bit_flip_is_seeded_and_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"

        def corrupted_bytes(seed):
            faults = StorageFaultInjector(
                [StorageFaultSpec(op="checkpoint_save", kind="bit_flip")],
                seed=seed,
            )
            save_checkpoint(make_ckpt(2.0), path, keep=1, faults=faults)
            return path.read_bytes()

        first = corrupted_bytes(7)
        second = corrupted_bytes(7)
        assert first == second  # same seed, same flipped bit
        with pytest.raises(CheckpointError):
            load_checkpoint(path, fallback=False)

    def test_slow_io_only_delays(self, tmp_path):
        path = tmp_path / "c.ckpt"
        faults = StorageFaultInjector(
            [StorageFaultSpec(op="checkpoint_save", kind="slow_io",
                              delay_seconds=0.0)],
        )
        save_checkpoint(make_ckpt(3.0), path, faults=faults)
        assert load_checkpoint(path).t == 3.0
        assert faults.fired == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            StorageFaultSpec(op="cache_store", kind="explode")
        with pytest.raises(ValueError, match="op"):
            StorageFaultSpec(op="nonsense", kind="slow_io")
        with pytest.raises(ValueError):
            StorageFaultSpec(op="*", kind="torn_write",
                             truncate_fraction=1.0)

    def test_burn_out_and_wildcard_op(self, tmp_path):
        faults = StorageFaultInjector(
            [StorageFaultSpec(op="*", kind="slow_io", count=2,
                              delay_seconds=0.0)],
        )
        path = tmp_path / "c.ckpt"
        for _ in range(4):
            save_checkpoint(make_ckpt(), path, faults=faults)
        assert faults.fired == 2
        assert faults.remaining() == 0


def compile_into(cache, source=_SRC):
    ctx = compile_context(
        source=source, options=CompileOptions(cache=cache)
    )
    return ctx


class TestCacheCrashConsistency:
    def test_store_leaves_no_tmp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        compile_into(cache)
        files = list((tmp_path / "cache").glob("*"))
        assert any(p.suffix == ".json" for p in files)
        assert not any(p.name.endswith(".tmp") for p in files)

    def test_corrupt_artifact_is_quarantined_not_silently_missed(
        self, tmp_path
    ):
        events = RuntimeEvents()
        root = tmp_path / "cache"
        cache = ArtifactCache(root, events=events)
        ctx = compile_into(cache)
        artifact = root / f"{ctx.cache_key}.json"
        artifact.write_text("{not json")
        cache.drop_memory()  # simulate a fresh process
        assert cache.load(ctx.cache_key) is None
        assert cache.quarantined == 1
        assert not artifact.exists()
        assert len(list((root / "quarantine").glob("*.json"))) == 1
        assert events.count("cache_quarantined") == 1
        # the quarantined slot is clean: a recompile repopulates it
        again = compile_into(cache)
        cache.drop_memory()
        assert cache.load(again.cache_key) is not None

    def test_quarantined_bytes_are_preserved_for_post_mortem(self,
                                                             tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        ctx = compile_into(cache)
        artifact = root / f"{ctx.cache_key}.json"
        artifact.write_text("evidence")
        cache.drop_memory()
        cache.load(ctx.cache_key)
        (entry,) = (root / "quarantine").glob("*.json")
        assert entry.read_text() == "evidence"

    def test_injected_torn_store_round_trips_to_quarantine(self, tmp_path):
        events = RuntimeEvents()
        faults = StorageFaultInjector(
            [StorageFaultSpec(op="cache_store", kind="torn_write")],
            events=events,
        )
        root = tmp_path / "cache"
        cache = ArtifactCache(root, events=events, faults=faults)
        ctx = compile_into(cache)  # store is torn on disk
        cache.drop_memory()
        assert cache.load(ctx.cache_key) is None  # quarantined
        assert cache.quarantined == 1

    def test_clear_removes_locks_and_quarantine(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        ctx = compile_into(cache)
        (root / f"{ctx.cache_key}.json").write_text("junk")
        cache.drop_memory()
        cache.load(ctx.cache_key)
        cache.clear()
        assert not list(root.glob("*.json"))
        assert not list((root / "quarantine").glob("*"))
        assert not list((root / "locks").glob("*"))


class TestSourceAliasFaults:
    """A damaged source alias is quarantined, never raised: the compile
    parses, hits the model key, and writes the alias again."""

    #: the text differs from ``_SRC`` in layout only: its compile hits the
    #: model key, so its cache-store writes nothing but the alias
    EDIT = _SRC.replace("\n", "\n\n")

    def recovers(self, root):
        events = RuntimeEvents()
        cache = ArtifactCache(root, events=events)
        ctx = compile_into(cache, self.EDIT)
        assert ctx.cache_hit and not ctx.source_hit
        assert cache.sources.quarantined == 1 and cache.quarantined == 0
        assert events.count("cache_quarantined") == 1
        assert len(list((root / "sources" / "quarantine").glob("*"))) == 1
        assert compile_into(ArtifactCache(root), self.EDIT).source_hit

    @pytest.mark.parametrize("kind", ["torn_write", "bit_flip"])
    def test_injected_fault_on_the_alias_write(self, tmp_path, kind):
        root = tmp_path / "cache"
        compile_into(ArtifactCache(root))
        faults = StorageFaultInjector(
            [StorageFaultSpec(op="cache_store", kind=kind)], seed=3,
        )
        compile_into(ArtifactCache(root, faults=faults), self.EDIT)
        assert faults.fired == 1
        self.recovers(root)

    def test_alias_naming_a_missing_artifact(self, tmp_path):
        root = tmp_path / "cache"
        compile_into(ArtifactCache(root))
        ctx = compile_into(ArtifactCache(root), self.EDIT)
        # a self-consistent entry for a model this cache never stored
        model_hash = "0" * 64
        ghost = artifact_key(model_hash, ctx.options)
        (root / "sources" / f"{ctx.source_key}.json").write_text(json.dumps({
            "format": cache_module.ARTIFACT_FORMAT, "cache_key": ghost,
            "model_hash": model_hash,
        }))
        self.recovers(root)

    def test_every_single_bit_flip_is_caught(self, tmp_path):
        """Not just the seeded one: a flip anywhere in the entry — the
        format, a key name, either hash — is a quarantined miss."""
        root = tmp_path / "cache"
        ctx = compile_into(ArtifactCache(root))
        path = root / "sources" / f"{ctx.source_key}.json"
        good = path.read_bytes()
        for pos in range(0, len(good), 7):
            for bit in (0, 5):
                flipped = bytearray(good)
                flipped[pos] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                cache = ArtifactCache(root)
                assert cache.load_source(ctx.source_key, ctx.options) is None
                assert cache.sources.quarantined == 1
        path.write_bytes(good)
        assert compile_into(ArtifactCache(root)).source_hit


def _deep_chain(obj):
    # sin(sin(...sin(x))) 3 000 deep, then summed: the decoder itself is
    # iterative, the canonical ordering of the sum is not
    nodes = obj["nodes"]
    base = len(nodes)
    nodes.append(["sym", [], "deep_chain_x"])
    for i in range(3000):
        nodes.append(["call", [base + i], "sin"])
    nodes.append(["sym", [], "deep_chain_y"])
    nodes.append(["add", [base + 3000, base + 3001]])
    obj["system"]["rhs"][0] = base + 3002
    return obj


def _at(obj, steps):
    for step in steps:
        obj = obj[step]
    return obj


def _set(*steps, to):
    def tamper(obj):
        _at(obj, steps[:-1])[steps[-1]] = to
        return obj
    return tamper


def _drop_last(*steps):
    def tamper(obj):
        _at(obj, steps).pop()
        return obj
    return tamper


#: artifacts that are valid JSON but not a valid artifact: parsed object ->
#: the object (or the raw text) to put in its place
_MALFORMED = {
    "not an object": lambda obj: [],
    "module source is not python": _set("module", "source", to="def (:\n"),
    "json nested past the recursion limit":
        lambda obj: "[" * 200_000 + "]" * 200_000,
    "3000-deep expression": _deep_chain,
    "truncated system.rhs": _drop_last("system", "rhs"),
    "truncated start_values": _drop_last("system", "start_values"),
    "truncated param_values": _drop_last("system", "param_values"),
    "truncated body roots": _drop_last("plan", "bodies", 0, "roots"),
    "body/task id mismatch": _set("plan", "bodies", 0, "task_id", to=99),
    "forward child index": lambda obj: dict(
        obj, nodes=[["add", [1, 2]]] + obj["nodes"]),
    "negative root index": _set("system", "rhs", 0, to=-1),
    "float root index": _set("system", "rhs", 0, to=0.0),
    "node table missing": lambda obj: {
        k: v for k, v in obj.items() if k != "nodes"},
    "node row too short": lambda obj: dict(obj, nodes=[["add"]]),
}


class TestMalformedArtifacts:
    """Valid JSON of the wrong shape is a quarantined miss, never a
    traceback and never a hit."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_is_quarantined_miss(self, tmp_path, case):
        events = RuntimeEvents()
        root = tmp_path / "cache"
        cache = ArtifactCache(root, events=events)
        ctx = compile_into(cache)
        artifact = root / f"{ctx.cache_key}.json"
        tampered = _MALFORMED[case](json.loads(artifact.read_text()))
        artifact.write_text(
            tampered if isinstance(tampered, str) else json.dumps(tampered)
        )
        cache.drop_memory()
        assert cache.load(ctx.cache_key) is None
        assert cache.quarantined == 1
        assert events.count("cache_quarantined") == 1
        assert not artifact.exists()
        # and the compiler recovers through the ordinary miss path
        again = compile_into(cache)
        assert not again.cache_hit
        cache.drop_memory()
        assert compile_into(cache).cache_hit

    def test_old_format_artifact_is_quarantined(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        ctx = compile_into(cache)
        artifact = root / f"{ctx.cache_key}.json"
        obj = json.loads(artifact.read_text())
        obj["format"] = 2
        artifact.write_text(json.dumps(obj))
        cache.drop_memory()
        assert cache.load(ctx.cache_key) is None
        assert cache.quarantined == 1

    @pytest.mark.skipif(find_compiler() is None,
                        reason="no C compiler on PATH")
    def test_native_unit_without_run_tasks_never_reaches_the_loader(
        self, tmp_path, monkeypatch
    ):
        """A backend="c" artifact from before the native unit exported
        run_tasks (format 3) sits under another key, and its bytes under
        the current key are quarantined: the compile rebuilds a unit that
        has the entry instead of failing to bind it."""
        root = tmp_path / "cache"
        native_cache = NativeCache(tmp_path / "native")

        def compile_c(cache):
            return compile_context(source=_SRC, options=CompileOptions(
                backend="c", cache=cache, native_cache=native_cache))

        ctx = compile_c(ArtifactCache(root))
        artifact = root / f"{ctx.cache_key}.json"
        obj = json.loads(artifact.read_text())
        unit = obj["native_source"]
        unit["source"] = unit["source"].replace("run_tasks", "old_entry")
        obj["format"] = 3
        with monkeypatch.context() as patched:
            patched.setattr(cache_module, "ARTIFACT_FORMAT", 3)
            old_key = artifact_key(ctx.model_hash, ctx.options)
        assert old_key != ctx.cache_key
        stale = json.dumps(obj)
        (root / f"{old_key}.json").write_text(stale)
        artifact.write_text(stale)

        events = RuntimeEvents()
        again = compile_c(ArtifactCache(root, events=events))
        assert not again.cache_hit
        assert events.count("cache_quarantined") == 1
        assert (root / f"{old_key}.json").exists()  # never read
        program = again.program
        assert program.backend == "c"
        assert program.task_runner() is program.native_module.run_tasks
        assert compile_c(ArtifactCache(root)).cache_hit

    @pytest.mark.skipif(find_compiler() is None,
                        reason="no C compiler on PATH")
    @pytest.mark.parametrize("fmt", [4, 5])
    def test_native_unit_with_a_cdef_is_a_quarantined_miss(
        self, tmp_path, monkeypatch, fmt
    ):
        """Format 4 stored the unit with a cffi ``cdef`` block, which
        :class:`NativeSource` no longer has: such bytes under the current
        key — labelled 4, or mislabelled 5 — are quarantined and the
        compile rebuilds, never a TypeError out of the load."""
        root = tmp_path / "cache"
        native_cache = NativeCache(tmp_path / "native")

        def compile_c(cache):
            return compile_context(source=_SRC, options=CompileOptions(
                backend="c", cache=cache, native_cache=native_cache))

        ctx = compile_c(ArtifactCache(root))
        with monkeypatch.context() as patched:
            patched.setattr(cache_module, "ARTIFACT_FORMAT", 4)
            assert artifact_key(ctx.model_hash, ctx.options) != ctx.cache_key
        artifact = root / f"{ctx.cache_key}.json"
        obj = json.loads(artifact.read_text())
        obj["native_source"]["cdef"] = "void RHS(double t);"
        obj["format"] = fmt
        artifact.write_text(json.dumps(obj))

        events = RuntimeEvents()
        again = compile_c(ArtifactCache(root, events=events))
        assert not again.cache_hit
        assert events.count("cache_quarantined") == 1
        assert again.program.backend == "c"
        assert compile_c(ArtifactCache(root)).cache_hit


#: a fresh interpreter on a native cache root: compile ``_SRC`` with
#: backend="c", or rebuild the task runner of a pickled ProgramSpec
_FRESH_PROCESS = """
import json, pickle, sys
import numpy as np
from repro.codegen.native import NativeCache
from repro.compiler import CompileOptions, compile_context
from repro.runtime import RuntimeEvents

root, what = sys.argv[1], sys.argv[2]
if what == "compile":
    events = RuntimeEvents()
    ctx = compile_context(source=sys.stdin.read(), options=CompileOptions(
        backend="c", native_cache=NativeCache(root, events=events)))
    print(json.dumps({
        "backend": ctx.program.backend,
        "native_cache_hit": ctx.metrics.get("native_cache_hit"),
        "quarantined": events.count("cache_quarantined"),
    }))
else:
    spec, y, p = pickle.load(sys.stdin.buffer)
    run = spec.build_runner()
    res = np.zeros(spec.num_states + spec.num_partials)
    run(tuple(range(spec.num_tasks)), 0.1, y, p, res,
        np.zeros(spec.num_tasks))
    print(json.dumps({"runner": type(run).__name__, "res": res.tolist()}))
"""


def _in_fresh_process(root, what, stdin: bytes) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, str(root), what],
        input=stdin, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def _corrupt(path):
    """Replace ``path`` with garbage under a new inode: writing in place
    would SIGBUS any process that has the object mapped."""
    tmp = path.with_name("garbage.tmp")
    tmp.write_bytes(b"not an ELF\n")
    os.replace(tmp, path)


@pytest.mark.skipif(find_compiler() is None, reason="no C compiler on PATH")
class TestCorruptNativeObject:
    """A ``<key>.so`` the glue cannot open is quarantined and rebuilt —
    not a permanent fallback to the Python tasks."""

    def compile_c(self, root, events=None):
        return compile_context(source=_SRC, options=CompileOptions(
            backend="c", native_cache=NativeCache(root, events=events)))

    def test_fresh_cache_quarantines_and_rebuilds(self, tmp_path):
        # The key comes from a build under another root: dlopen hands back
        # the loaded object for a path this process opened before, so the
        # garbage goes where this process never loaded anything.
        built = self.compile_c(tmp_path / "built").program.native_module
        key = built.path.stem
        root = tmp_path / "native"
        root.mkdir()
        _corrupt(root / f"{key}.so")

        events = RuntimeEvents()
        ctx = self.compile_c(root, events)
        assert ctx.program.backend == "c"
        assert "native_unavailable" not in ctx.metrics
        assert ctx.metrics["native_cache_hit"] is False
        assert events.count("cache_quarantined") == 1
        assert events.count("native_build") == 1
        (bad,) = (root / "quarantine").iterdir()
        assert bad.read_bytes() == b"not an ELF\n"
        assert (root / f"{key}.so").read_bytes()[:4] == b"\x7fELF"
        assert self.compile_c(root).metrics["native_cache_hit"] is True

    def test_fresh_processes_quarantine_rebuild_then_hit(self, tmp_path):
        root = tmp_path / "native"
        program = self.compile_c(root).program
        so = program.native_module.path
        _corrupt(so)

        first = _in_fresh_process(root, "compile", _SRC.encode())
        assert first == {
            "backend": "c", "native_cache_hit": False, "quarantined": 1,
        }
        assert len(list((root / "quarantine").iterdir())) == 1
        second = _in_fresh_process(root, "compile", _SRC.encode())
        assert second == {
            "backend": "c", "native_cache_hit": True, "quarantined": 0,
        }

        # A process-pool worker loads from the same root the same way.
        _corrupt(so)
        y, p = program.start_vector(), program.param_vector()
        spec = program.rebuild_spec()
        worker = _in_fresh_process(
            root, "runner", pickle.dumps((spec, y, p))
        )
        assert worker["runner"] == "builtin_function_or_method"  # native
        assert len(list((root / "quarantine").iterdir())) == 2
        want = program.results_buffer()
        program.task_runner()(
            tuple(range(program.num_tasks)), 0.1, y, p, want,
            np.zeros(program.num_tasks),
        )
        assert np.array_equal(np.array(worker["res"]), want)
        assert not list(root.glob("*.tmp")) and not list(root.glob("*.c"))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX-only flock")
class TestCacheLocking:
    def test_no_lock_files_leak_after_store(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        compile_into(cache)
        assert not list((root / "locks").glob("*.lock"))

    def test_stale_lock_degrades_to_lockless_write(self, tmp_path):
        """A wedged lock holder must cost a bounded wait, not a hang: the
        writer times out, records the degradation, and still publishes."""
        events = RuntimeEvents()
        faults = StorageFaultInjector(
            [StorageFaultSpec(op="cache_store", kind="stale_lock",
                              hold_seconds=1.0)],
            events=events,
        )
        root = tmp_path / "cache"
        cache = ArtifactCache(root, events=events, faults=faults,
                              lock_timeout=0.1)
        ctx = compile_into(cache)
        faults.drain()
        assert cache.lock_timeouts == 1
        assert events.count("cache_lock_timeout") == 1
        cache.drop_memory()
        assert cache.load(ctx.cache_key) is not None  # write still landed

    def test_briefly_held_lock_is_waited_out(self, tmp_path):
        events = RuntimeEvents()
        faults = StorageFaultInjector(
            [StorageFaultSpec(op="cache_store", kind="stale_lock",
                              hold_seconds=0.05)],
            events=events,
        )
        root = tmp_path / "cache"
        cache = ArtifactCache(root, events=events, faults=faults,
                              lock_timeout=5.0)
        ctx = compile_into(cache)
        faults.drain()
        assert cache.lock_timeouts == 0
        cache.drop_memory()
        assert cache.load(ctx.cache_key) is not None


class TestEventRingBuffer:
    def test_bounded_log_drops_oldest_and_counts(self):
        events = RuntimeEvents(maxlen=4)
        for i in range(10):
            events.record("tick", i=i)
        assert len(events) == 4
        assert events.dropped_events == 6
        assert events.total_recorded == 10
        retained = [e.data["i"] for e in events]
        assert retained == [6, 7, 8, 9]
        # sequence numbers survive eviction
        assert [e.seq for e in events] == [6, 7, 8, 9]
        assert "(+6 dropped)" in events.summary()

    def test_unbounded_when_maxlen_none(self):
        events = RuntimeEvents(maxlen=None)
        for i in range(100):
            events.record("tick", i=i)
        assert len(events) == 100
        assert events.dropped_events == 0

    def test_default_capacity_is_generous(self):
        assert RuntimeEvents().maxlen == DEFAULT_MAXLEN

    def test_clear_resets_drop_count(self):
        events = RuntimeEvents(maxlen=2)
        for _ in range(5):
            events.record("tick")
        events.clear()
        assert events.dropped_events == 0
        assert len(events) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RuntimeEvents(maxlen=0)

    def test_dump_jsonl_header_and_payload(self, tmp_path):
        events = RuntimeEvents(maxlen=3)
        for i in range(5):
            events.record("tick", i=i, arr=np.array([1.0]))
        out = events.dump_jsonl(tmp_path / "events.jsonl")
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["header"] == "repro-runtime-events"
        assert header["retained"] == 3
        assert header["total_recorded"] == 5
        assert header["dropped_events"] == 2
        body = [json.loads(line) for line in lines[1:]]
        assert [e["data"]["i"] for e in body] == [2, 3, 4]
        # non-JSON payload values are coerced, not fatal
        assert isinstance(body[0]["data"]["arr"], str)

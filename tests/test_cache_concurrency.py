"""Two compiler processes racing on one on-disk artifact or native cache.

Satellite of the crash-consistency work: concurrent compiles of the same
model hash from separate processes against a shared cache root must leave
exactly one clean, parseable artifact — no torn files, no leaked temp or
lock files — regardless of interleaving; concurrent native builds of one
key run ``cc`` once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_WORKER = """
import json, sys
sys.path.insert(0, {src!r})
from repro.compiler import ArtifactCache, CompileOptions, compile_context

source = '''
MODEL raceosc;
CLASS Osc
  STATE x := 1.0;
  STATE v := 0.0;
  PARAMETER k := 4.0;
  EQUATION Eq[1] := der(x) == v;
  EQUATION Eq[2] := der(v) == -k * x;
END Osc;
INSTANCE A INHERITS Osc;
END raceosc;
'''

cache = ArtifactCache({root!r}, lock_timeout=20.0)
keys = set()
for _ in range({rounds}):
    # drop_memory each round so every iteration exercises the on-disk
    # path (load -> miss/hit -> store), not the in-process table
    cache.drop_memory()
    ctx = compile_context(source=source, options=CompileOptions(cache=cache))
    keys.add(ctx.cache_key)
assert len(keys) == 1, keys
print(json.dumps({{"key": keys.pop(), "hits": cache.hits,
                   "misses": cache.misses}}))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX flock semantics")
def test_concurrent_compiles_share_one_clean_artifact(tmp_path):
    root = tmp_path / "cache"
    script = _WORKER.format(src=str(SRC_DIR), root=str(root), rounds=5)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(json.loads(out))

    # both processes resolved the same content-addressed key
    assert outputs[0]["key"] == outputs[1]["key"]
    key = outputs[0]["key"]

    # exactly one clean artifact, parseable, and nothing leaked
    artifact = root / f"{key}.json"
    assert artifact.exists()
    payload = json.loads(artifact.read_text())
    assert payload["key"] == key
    assert not [p for p in root.iterdir() if p.name.endswith(".tmp")]
    locks = root / "locks"
    assert not (locks.exists() and list(locks.glob("*.lock")))
    quarantine = root / "quarantine"
    assert not (quarantine.exists() and list(quarantine.glob("*")))

    # and a third, fresh process-equivalent can hit it cold
    sys.path.insert(0, str(SRC_DIR))
    from repro.compiler import ArtifactCache

    cache = ArtifactCache(root)
    assert cache.load(key) is not None
    assert cache.hits == 1


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX flock semantics")
def test_reader_during_writer_never_sees_torn_artifact(tmp_path):
    """A reader polling the artifact path while a writer repeatedly
    stores must only ever observe complete JSON (atomic publication)."""
    root = tmp_path / "cache"
    writer_script = _WORKER.format(src=str(SRC_DIR), root=str(root),
                                   rounds=8)
    writer = subprocess.Popen(
        [sys.executable, "-c", writer_script],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    torn = 0
    observed = 0
    try:
        while writer.poll() is None:
            for path in (root.glob("*.json") if root.exists() else ()):
                try:
                    json.loads(path.read_text())
                    observed += 1
                except (ValueError, OSError):
                    torn += 1
    finally:
        out, err = writer.communicate(timeout=120)
    assert writer.returncode == 0, err
    assert torn == 0
    assert observed > 0  # the poll actually raced the writer


_NATIVE_WORKER = """
import json, sys, time
from pathlib import Path
sys.path.insert(0, {src!r})
from repro.codegen.native import NativeCache
from repro.compiler import CompileOptions, compile_context
from repro.runtime import RuntimeEvents

source = '''
MODEL nativerace;
CLASS Osc
  STATE x := 1.0;
  STATE v := 0.0;
  PARAMETER k := 4.0;
  EQUATION Eq[1] := der(x) == v;
  EQUATION Eq[2] := der(v) == -k * x;
END Osc;
INSTANCE A INHERITS Osc;
END nativerace;
'''

# a start line: both interpreters are up before either compiles
sync = Path({sync!r})
(sync / sys.argv[1]).touch()
while len(list(sync.iterdir())) < 2:
    time.sleep(0.005)
events = RuntimeEvents()
ctx = compile_context(source=source, options=CompileOptions(
    backend="c", native_cache=NativeCache({root!r}, events=events)))
print(json.dumps({{"backend": ctx.program.backend,
                   "key": ctx.program.native_module.path.stem,
                   "builds": events.count("native_build")}}))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX flock semantics")
def test_concurrent_native_builds_run_cc_once(tmp_path):
    sys.path.insert(0, str(SRC_DIR))
    from repro.codegen.native import find_compiler

    if find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    root, sync = tmp_path / "native", tmp_path / "sync"
    sync.mkdir()
    script = _NATIVE_WORKER.format(src=str(SRC_DIR), root=str(root),
                                   sync=str(sync))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, f"p{i}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in range(2)
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(json.loads(out))

    # one cc run between them, the other process loaded its object
    assert [o["backend"] for o in outputs] == ["c", "c"]
    key = outputs[0]["key"]
    assert outputs[1]["key"] == key
    assert sum(o["builds"] for o in outputs) == 1
    assert [p.name for p in root.glob("*.so")] == [f"{key}.so"]
    assert not list(root.rglob("*.c"))
    assert not list(root.rglob("*.tmp"))
    assert not list(root.glob("locks/*.lock"))

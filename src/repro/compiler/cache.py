"""Content-addressed artifact caching for compiled models.

The hot path of the ensemble and checkpoint/resume workloads is
*recompiling an unchanged model*: the flat equation system is identical,
only runtime inputs differ.  This module fingerprints the flattened model
(a canonical JSON form of the hash-consed expression DAG) together with
the codegen options, and persists everything downstream of analysis — the
SCC partition, the ODE system, the verify report, the task plan, and the
generated module sources — keyed by that content hash.  A cache hit
rebuilds the executable modules with a single ``exec`` and skips the
analysis and code-generation passes entirely.  Expressions are stored as
one node table per artifact (:mod:`repro.symbolic.serialize`): each
distinct node once, so a hit costs what the DAG costs, not its expansion.

Two layers:

* an **in-memory** table (always on) sharing the deserialized artifacts
  within a process, and
* an optional **on-disk** store (one ``<key>.json`` per artifact under a
  cache directory) surviving across processes — the compiler-side
  equivalent of the runtime's checkpoint files.

A compile from source text first looks up a **source alias**: a small
``sources/<alias>.json`` entry keyed by the hash of the text, the artifact
format, the codegen options and the package's own code
(:func:`source_key`), naming the artifact key and model hash that text
compiled to.  A hit loads that artifact without parsing; the artifact
itself stays keyed by the flat model, so text that differs only in
layout shares one artifact and gets an alias of its own after one parse.
Aliases are bounded as the native cache is (the oldest go first, by
mtime, which a hit refreshes): an edit to the package orphans every
alias written before it.

The on-disk level is a :class:`~repro.store.DiskStore`, shared with the
native build cache: **crash-consistent and multi-process safe**
(fsync-before-atomic-rename, a bounded per-key ``flock`` that degrades to
last-writer-wins when a stale holder keeps it past ``lock_timeout``), and
an artifact that fails to parse or validate on load is **quarantined** —
moved to ``quarantine/`` and recorded as a ``cache_quarantined`` event —
instead of being silently re-read as a miss forever.

Only trusted directories should be used as cache roots: cached artifacts
contain generated source that is ``exec``-ed on load (exactly like the
source the generator itself produces).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..analysis.depgraph import DiGraph, VariableAssignment
from ..analysis.partition import Partition, Subsystem
from ..codegen.costmodel import CostModel
from ..codegen.gen_c import NativeSource
from ..codegen.gen_numpy import NumpyModule, load_numpy_module
from ..codegen.gen_python import PythonModule, load_python_module
from ..codegen.tasks import Assignment, TaskBody, TaskPlan
from ..codegen.transform import OdeSystem
from ..codegen.verify import VerifyReport
from ..model.flatten import ArrayFlatModel, FlatModel
from ..schedule.task import Task, TaskGraph
from ..store import DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES, DiskStore
from ..symbolic.expr import Expr
from ..symbolic.serialize import (
    ExprTable,
    decode_nodes,
    pick_roots,
    system_from_obj,
    system_to_obj,
)
from .context import CompileOptions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.events import RuntimeEvents
    from ..runtime.faults import StorageFaultInjector

__all__ = [
    "ARTIFACT_FORMAT",
    "CompiledArtifacts",
    "ArtifactCache",
    "flat_model_to_obj",
    "model_fingerprint",
    "artifact_key",
    "package_digest",
    "source_key",
]

#: bumped whenever the artifact JSON layout changes; part of every key
#: (2: native C translation unit added for backend="c"; 3: expressions
#: stored as one node table per artifact instead of nested trees; 4: the
#: native unit exports the run_tasks batch entry the loader binds; 5: the
#: native unit carries no cffi ``cdef`` block; 6: the Python text prints a
#: fractional power as ``_rpow(b, e)``, so it may run on Python floats;
#: 7: no model name shadows a function the generated text calls)
ARTIFACT_FORMAT = 7


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def flat_model_to_obj(flat: FlatModel) -> dict[str, Any]:
    """A canonical, JSON-stable form of a flattened model.

    Dict iteration order is insertion order, which for a
    :class:`FlatModel` is the state-vector layout — exactly what generated
    code depends on — so the canonical form captures both content *and*
    ordering.
    """

    table = ExprTable()

    def var_obj(v) -> list:
        return [v.name, v.kind.name, v.start, v.value]

    def equations(of) -> dict[str, list]:
        """The three equation lists of the model or of one family group."""
        return {
            "odes": [
                [eq.state, table.add(eq.rhs), eq.label] for eq in of.odes
            ],
            "explicit_algs": [
                [eq.var, table.add(eq.rhs), eq.label]
                for eq in of.explicit_algs
            ],
            "implicit": [
                [table.add(eq.lhs), table.add(eq.rhs), eq.label]
                for eq in of.implicit
            ],
        }

    obj: dict[str, Any] = {
        "name": flat.name,
        "free_var": flat.free_var.name,
        "states": [var_obj(v) for v in flat.states.values()],
        "algebraics": [var_obj(v) for v in flat.algebraics.values()],
        "parameters": [var_obj(v) for v in flat.parameters.values()],
        **equations(flat),
    }
    if isinstance(flat, ArrayFlatModel):
        # An array flat model carries family-member equations only as
        # templates; without them in the canonical form two array models
        # differing only in template equations would collide.  The mode
        # marker keeps an array flat model from ever aliasing the scalar
        # enumeration of the same model.
        obj["flatten_mode"] = "array"
        obj["fallback_reason"] = flat.fallback_reason
        obj["groups"] = [
            {
                "base": g.family.base,
                "count": g.count,
                "representative": g.family.representative.name,
                **equations(g),
            }
            for g in flat.groups
        ]
    # every equation above is a row index into this one table
    obj["nodes"] = table.rows
    return obj


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def model_fingerprint(flat: FlatModel) -> str:
    """Content hash of the flattened model (independent of options)."""
    return _digest(flat_model_to_obj(flat))


def artifact_key(model_hash: str, options: CompileOptions) -> str:
    """Cache key: model content + every option that affects generated code."""
    return _digest({
        "format": ARTIFACT_FORMAT,
        "model": model_hash,
        "options": options.codegen_fingerprint(),
    })


@functools.cache
def package_digest() -> str:
    """Hash of the ``repro`` package's ``.py`` files, computed once per
    process: a source alias written by another parser, flattener or code
    generator is never served."""
    root = Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def source_key(source: str, options: CompileOptions) -> str:
    """Source-alias key: the text, the artifact format, the codegen
    options and the package code that would compile it."""
    return _digest({
        "format": ARTIFACT_FORMAT,
        "source": hashlib.sha256(source.encode()).hexdigest(),
        "options": options.codegen_fingerprint(),
        "package": package_digest(),
    })


# ---------------------------------------------------------------------------
# Artifact (de)serialisation
# ---------------------------------------------------------------------------


def _partition_to_obj(part: Partition) -> dict[str, Any]:
    return {
        "subsystems": [
            {
                "index": s.index,
                "variables": list(s.variables),
                "equations": list(s.equations),
                "level": s.level,
                "predecessors": list(s.predecessors),
                "successors": list(s.successors),
            }
            for s in part.subsystems
        ],
        "membership": dict(part.membership),
        "condensed": {
            "nodes": list(part.condensed.nodes),
            "edges": [list(e) for e in part.condensed.edges()],
        },
        "assignment": {
            "defining": dict(part.assignment.defining),
            "uses": {
                label: sorted(vars_)
                for label, vars_ in part.assignment.uses.items()
            },
        },
    }


def _partition_from_obj(obj: dict[str, Any]) -> Partition:
    condensed = DiGraph()
    for node in obj["condensed"]["nodes"]:
        condensed.add_node(node)
    for src, dst in obj["condensed"]["edges"]:
        condensed.add_edge(src, dst)
    assignment = VariableAssignment(
        defining=dict(obj["assignment"]["defining"]),
        uses={
            label: frozenset(vars_)
            for label, vars_ in obj["assignment"]["uses"].items()
        },
    )
    subsystems = [
        Subsystem(
            index=s["index"],
            variables=tuple(s["variables"]),
            equations=tuple(s["equations"]),
            level=s["level"],
            predecessors=tuple(s["predecessors"]),
            successors=tuple(s["successors"]),
        )
        for s in obj["subsystems"]
    ]
    return Partition(
        subsystems=subsystems,
        membership=dict(obj["membership"]),
        condensed=condensed,
        assignment=assignment,
    )


def _plan_to_obj(plan: TaskPlan, table: ExprTable) -> dict[str, Any]:
    return {
        "bodies": [
            {
                "task_id": b.task_id,
                "name": b.name,
                "targets": [a.target for a in b.assignments],
                "roots": [table.add(a.expr) for a in b.assignments],
            }
            for b in plan.bodies
        ],
        "tasks": [
            {
                "task_id": t.task_id,
                "name": t.name,
                "outputs": list(t.outputs),
                "inputs": list(t.inputs),
                "weight": t.weight,
                "num_ops": t.num_ops,
                "depends_on": list(t.depends_on),
            }
            for t in plan.graph
        ],
        "partial_slots": list(plan.partial_slots),
        "cost_model": {
            f.name: getattr(plan.cost_model, f.name)
            for f in dataclass_fields(plan.cost_model)
        },
    }


def _plan_from_obj(obj: dict[str, Any], nodes: list[Expr]) -> TaskPlan:
    bodies = tuple(
        TaskBody(
            task_id=b["task_id"],
            name=b["name"],
            assignments=tuple(map(
                Assignment,
                b["targets"],
                pick_roots(nodes, b["roots"], len(b["targets"])),
            )),
        )
        for b in obj["bodies"]
    )
    tasks = [
        Task(
            task_id=t["task_id"],
            name=t["name"],
            outputs=tuple(t["outputs"]),
            inputs=tuple(t["inputs"]),
            weight=t["weight"],
            num_ops=t["num_ops"],
            depends_on=tuple(t["depends_on"]),
        )
        for t in obj["tasks"]
    ]
    if [b.task_id for b in bodies] != [t.task_id for t in tasks]:
        raise ValueError("task bodies do not match the task graph")
    return TaskPlan(
        bodies=bodies,
        graph=TaskGraph(tasks),
        partial_slots=tuple(obj["partial_slots"]),
        cost_model=CostModel(**obj["cost_model"]),
    )


def _module_to_obj(module) -> dict[str, Any]:
    return {
        "source": module.source,
        "num_states": module.num_states,
        "num_partials": module.num_partials,
        "num_cse_serial": module.num_cse_serial,
        "num_cse_parallel": module.num_cse_parallel,
    }


def _native_to_obj(native: "NativeSource") -> dict[str, Any]:
    obj = {
        f.name: getattr(native, f.name) for f in dataclass_fields(native)
    }
    obj["jac_rows"] = list(native.jac_rows)
    obj["jac_cols"] = list(native.jac_cols)
    return obj


def _native_from_obj(obj: dict[str, Any] | None) -> "NativeSource | None":
    if obj is None:
        return None
    obj = dict(obj)
    obj["jac_rows"] = tuple(obj["jac_rows"])
    obj["jac_cols"] = tuple(obj["jac_cols"])
    return NativeSource(**obj)


@dataclass
class CompiledArtifacts:
    """Everything the cache restores on a hit (post-analysis artifacts)."""

    partition: Partition
    system: OdeSystem
    verify_report: VerifyReport
    plan: TaskPlan
    module: PythonModule
    vector_module: NumpyModule | None
    #: executable C translation unit (backend="c"); the machine-local
    #: build product itself lives in the NativeCache, keyed by content,
    #: so caching the source is enough to make a hit a pure dlopen
    native_source: "NativeSource | None" = None

    def to_obj(self, model_hash: str, key: str) -> dict[str, Any]:
        # one node table under system.rhs and every plan assignment: they
        # are the same DAG, cut two ways
        table = ExprTable()
        return {
            "format": ARTIFACT_FORMAT,
            "model": self.system.name,
            "model_hash": model_hash,
            "key": key,
            "system": system_to_obj(self.system, table),
            "partition": _partition_to_obj(self.partition),
            "verify_report": {
                "num_rhs": self.verify_report.num_rhs,
                "num_nodes": self.verify_report.num_nodes,
                "functions_used": list(self.verify_report.functions_used),
                "symbols_used": list(self.verify_report.symbols_used),
            },
            "plan": _plan_to_obj(self.plan, table),
            "nodes": table.rows,
            "module": _module_to_obj(self.module),
            "vector_module": (
                None
                if self.vector_module is None
                else _module_to_obj(self.vector_module)
            ),
            "native_source": (
                None
                if self.native_source is None
                else _native_to_obj(self.native_source)
            ),
        }

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "CompiledArtifacts":
        name = obj.get("model", "cached")
        vr = obj["verify_report"]
        mod = obj["module"]
        vmod = obj["vector_module"]
        nodes = decode_nodes(obj["nodes"])
        return cls(
            partition=_partition_from_obj(obj["partition"]),
            system=system_from_obj(obj["system"], nodes),
            verify_report=VerifyReport(
                num_rhs=vr["num_rhs"],
                num_nodes=vr["num_nodes"],
                functions_used=tuple(vr["functions_used"]),
                symbols_used=tuple(vr["symbols_used"]),
            ),
            plan=_plan_from_obj(obj["plan"], nodes),
            module=load_python_module(name=name, **mod),
            vector_module=(
                None if vmod is None else load_numpy_module(name=name, **vmod)
            ),
            native_source=_native_from_obj(obj.get("native_source")),
        )


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------


#: what a file that fails to parse or validate raises on load.  Valid JSON
#: of the wrong shape lands here too: a non-object document
#: (AttributeError, TypeError), a sequence shorter than its consumer
#: indexes (IndexError), a damaged module source (SyntaxError), nesting
#: past the interpreter's recursion limit (RecursionError).
_LOAD_ERRORS = (
    ValueError, KeyError, TypeError, OSError, UnicodeDecodeError,
    AttributeError, IndexError, SyntaxError, RecursionError,
)


def _read(store: DiskStore, key: str) -> Any:
    path = store.path(key)
    if store.faults is not None:
        store.faults.before_io("cache_load", path)
    return json.loads(path.read_text())


def _write(store: DiskStore, key: str, payload: bytes) -> None:
    if store.faults is not None:
        path = store.path(key)
        store.faults.before_io("cache_store", path)
        payload = store.faults.filter_payload("cache_store", path, payload)
    with store.lock(key, "cache_store"):
        store.publish(key, lambda tmp: tmp.write_bytes(payload))


class ArtifactCache(DiskStore):
    """Two-level content-addressed cache of compiled artifacts.

    ``root=None`` keeps the cache purely in memory (still useful: repeated
    ensemble compiles of the same model within one process).  With a
    directory, artifacts are persisted as ``<key>.json`` in a
    :class:`~repro.store.DiskStore` and survive process restarts (see the
    module docstring); source aliases live in a second store,
    :attr:`sources`, under ``sources/``.

    ``events`` (a ``RuntimeEvents`` log) receives ``cache_quarantined``
    and ``cache_lock_timeout`` incidents; ``faults`` is the storage-fault
    hook used by the chaos harness.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        events: "RuntimeEvents | None" = None,
        faults: "StorageFaultInjector | None" = None,
        lock_timeout: float = 10.0,
    ) -> None:
        super().__init__(root, ".json", events, faults, lock_timeout)
        self._memory: dict[str, CompiledArtifacts] = {}
        #: source alias -> (artifact key, model hash); bounded, since an
        #: edit to the package orphans every alias written before it
        self.sources = DiskStore(
            None if self.root is None else self.root / "sources", ".json",
            events, faults, lock_timeout,
            max_entries=DEFAULT_MAX_ENTRIES, max_bytes=DEFAULT_MAX_BYTES,
        )
        self._source_memory: dict[str, tuple[str, str]] = {}

    def load(self, key: str) -> CompiledArtifacts | None:
        hit = self._memory.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        if self.root is not None and self.path(key).exists():
            try:
                obj = _read(self, key)
                if obj.get("format") != ARTIFACT_FORMAT:
                    raise ValueError("artifact format mismatch")
                artifacts = CompiledArtifacts.from_obj(obj)
            except _LOAD_ERRORS as exc:
                # A corrupt or stale artifact is a miss, never an error —
                # but not a *silent* miss: quarantine the bytes and emit
                # an event, then let the compiler regenerate.
                self.quarantine(key, f"{type(exc).__name__}: {exc}")
                self.misses += 1
                return None
            self._memory[key] = artifacts
            self.hits += 1
            return artifacts
        self.misses += 1
        return None

    def store(
        self, key: str, artifacts: CompiledArtifacts, model_hash: str
    ) -> None:
        self._memory[key] = artifacts
        if self.root is None:
            return
        _write(self, key, json.dumps(
            artifacts.to_obj(model_hash, key), separators=(",", ":")
        ).encode())

    def load_source(
        self, alias: str, options: CompileOptions
    ) -> tuple[CompiledArtifacts, str, str] | None:
        """``(artifacts, model_hash, key)`` of the artifact a source alias
        names, or None.  An alias that fails to load, does not match
        ``options``, or names an artifact that is not there is quarantined."""
        entry = self._source_memory.get(alias)
        if entry is None and self.root is not None:
            entry = self._read_alias(alias, options)
        artifacts = None if entry is None else self.load(entry[0])
        if artifacts is None:
            self.sources.misses += 1
            return None
        self._source_memory[alias] = entry
        self.sources.hits += 1
        return artifacts, entry[1], entry[0]

    def _read_alias(
        self, alias: str, options: CompileOptions
    ) -> tuple[str, str] | None:
        if not self.sources.path(alias).exists():
            return None
        try:
            obj = _read(self.sources, alias)
            if obj["format"] != ARTIFACT_FORMAT:
                raise ValueError("source alias format mismatch")
            key, model_hash = obj["cache_key"], obj["model_hash"]
            # a flipped bit in either hash breaks this equation
            if artifact_key(model_hash, options) != key:
                raise ValueError("cache_key does not match model_hash")
            if key not in self._memory and not self.path(key).exists():
                raise FileNotFoundError(f"names missing artifact {key}")
        except _LOAD_ERRORS as exc:
            self.sources.quarantine(alias, f"{type(exc).__name__}: {exc}")
            return None
        self.sources.touch(alias)
        return key, model_hash

    def store_source(self, alias: str, key: str, model_hash: str) -> None:
        """Point a source alias at the artifact ``key`` (written after the
        artifact, so an alias on disk never precedes what it names)."""
        self._source_memory[alias] = (key, model_hash)
        if self.root is None:
            return
        _write(self.sources, alias, json.dumps({
            "format": ARTIFACT_FORMAT, "cache_key": key,
            "model_hash": model_hash,
        }, separators=(",", ":")).encode())
        self.sources.evict(protect=self.sources.path(alias))

    def drop_memory(self) -> None:
        """Evict the in-memory layer only (a service shedding memory, or a
        simulated process restart): later loads re-read from disk."""
        self._memory.clear()
        self._source_memory.clear()

    def clear(self) -> None:
        self.drop_memory()
        for store in (self, self.sources):
            if store.root is None or not store.root.exists():
                continue
            for p in store.root.glob("*.json"):
                p.unlink()
            for sub in ("locks", "quarantine"):
                d = store.root / sub
                if d.exists():
                    for p in d.iterdir():
                        with contextlib.suppress(OSError):
                            p.unlink()

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        where = str(self.root) if self.root else "memory-only"
        return (
            f"<ArtifactCache {where}: {len(self._memory)} in memory, "
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.quarantined} quarantined>"
        )

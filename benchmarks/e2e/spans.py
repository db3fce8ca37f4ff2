"""In-memory spans recorded by the benchmark around its calls into ``repro``.

Spans live in this directory only: nothing under ``src/`` is instrumented.
Coarse spans (a compile, a pass, a solve) are full records — name, the span
that was open when they started, start and end.  Calls made tens of
thousands of times per solve (the RHS, the Jacobian) are *leaves*: only
their durations are kept, per name, and the enclosing span's self time is
its duration minus the leaf durations recorded while it was open.
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Callable, Iterator


class Trace:
    def __init__(self) -> None:
        #: [name, parent index or -1, start, end]
        self.spans: list[list] = []
        #: leaf name -> durations in call order
        self.leaves: dict[str, list[float]] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, parent, perf_counter(), 0.0]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            record[3] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with one full span per call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its duration appended to ``leaves[name]`` per call."""
        durations = self.leaves.setdefault(name, [])
        append = durations.append

        def traced(*args):
            t0 = perf_counter()
            out = fn(*args)
            append(perf_counter() - t0)
            return out

        return traced

    def duration(self, index: int) -> float:
        record = self.spans[index]
        return record[3] - record[2]

    def children(self, index: int) -> dict[str, float]:
        """Total duration of the direct child spans of ``index``, by name."""
        out: dict[str, float] = {}
        for name, parent, start, end in self.spans[index + 1:]:
            if parent == index:
                out[name] = out.get(name, 0.0) + (end - start)
        return out


def traced_rhs(trace: Trace, f: Callable) -> Callable:
    """The solver-facing RHS with a leaf span around each call into it.

    ``rk45`` probes the RHS for ``eval_stages`` (the K-stage fast path of
    :class:`repro.runtime.ParallelRHS`), so the wrapper forwards it, also
    traced: one ``rhs.stages`` leaf is one solver step's six stages.
    """
    wrapped = trace.wrap_leaf("rhs.call", f)
    stages = getattr(f, "eval_stages", None)
    if stages is not None:
        wrapped.eval_stages = trace.wrap_leaf("rhs.stages", stages)
    return wrapped

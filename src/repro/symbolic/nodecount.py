"""Expression metrics: operation counts, depth, and flop-class histograms.

These feed the code generator's cost model (section 3.2.3: "One method …
is to predict the estimated execution time (or weight) of each task"): the
static task weight is a weighted sum over the operation histogram.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .expr import (
    Add,
    BoolOp,
    Call,
    Const,
    Expr,
    ITE,
    Mul,
    Pow,
    Reduce,
    Rel,
)


__all__ = ["OpHistogram", "op_histogram", "op_count", "depth"]


@dataclass(frozen=True)
class OpHistogram:
    """Counts of scalar operations by class.

    ``adds`` counts binary additions implied by n-ary sums (n-1 each),
    likewise ``muls``; ``pows`` counts general powers, ``calls`` elementary
    function applications, ``cmps`` relational tests, ``branches``
    conditional selections.
    """

    adds: int = 0
    muls: int = 0
    pows: int = 0
    divs: int = 0
    calls: int = 0
    cmps: int = 0
    branches: int = 0

    @property
    def total(self) -> int:
        return (
            self.adds
            + self.muls
            + self.pows
            + self.divs
            + self.calls
            + self.cmps
            + self.branches
        )

    def __add__(self, other: "OpHistogram") -> "OpHistogram":
        return OpHistogram(
            self.adds + other.adds,
            self.muls + other.muls,
            self.pows + other.pows,
            self.divs + other.divs,
            self.calls + other.calls,
            self.cmps + other.cmps,
            self.branches + other.branches,
        )

    def __mul__(self, factor: int) -> "OpHistogram":
        return OpHistogram(
            self.adds * factor,
            self.muls * factor,
            self.pows * factor,
            self.divs * factor,
            self.calls * factor,
            self.cmps * factor,
            self.branches * factor,
        )

    __rmul__ = __mul__


def op_histogram(expr: Expr) -> OpHistogram:
    """Operation histogram of ``expr`` (treating the tree as a tree: shared
    subtrees, if any survive outside CSE, are counted each time).  A
    symbolic :class:`Reduce` counts its body once per member plus the
    accumulating additions, matching what the generated loop executes."""
    cache: dict[Expr, OpHistogram] = {}

    def walk(node: Expr) -> OpHistogram:
        hit = cache.get(node)
        if hit is not None:
            return hit
        if isinstance(node, Reduce):
            h = walk(node.body) * node.count + OpHistogram(
                adds=node.count - 1
            )
        else:
            h = OpHistogram()
            for a in node.args:
                h = h + walk(a)
            if isinstance(node, Add):
                h = h + OpHistogram(adds=len(node.args) - 1)
            elif isinstance(node, Mul):
                h = h + OpHistogram(muls=len(node.args) - 1)
            elif isinstance(node, Pow):
                if (
                    isinstance(node.exponent, Const)
                    and node.exponent.value == -1
                ):
                    h = h + OpHistogram(divs=1)
                else:
                    h = h + OpHistogram(pows=1)
            elif isinstance(node, Call):
                h = h + OpHistogram(calls=1)
            elif isinstance(node, Rel):
                h = h + OpHistogram(cmps=1)
            elif isinstance(node, BoolOp):
                h = h + OpHistogram(cmps=max(len(node.args) - 1, 1))
            elif isinstance(node, ITE):
                h = h + OpHistogram(branches=1)
        cache[node] = h
        return h

    return walk(expr)


def _own_ops(node: Expr) -> int:
    """Operations ``node`` itself adds on top of its children's."""
    if isinstance(node, (Add, Mul)):
        return len(node.args) - 1
    if isinstance(node, (Pow, Call, Rel, ITE)):
        return 1
    if isinstance(node, BoolOp):
        return max(len(node.args) - 1, 1)
    return 0


def op_count(expr: Expr) -> int:
    """Total scalar operation count of ``expr``: ``op_histogram(expr).total``.

    Memoised per interned node like :func:`~repro.symbolic.expr.count_nodes`
    (own operations plus the children's counts; a :class:`Reduce` counts its
    body once per member plus the accumulating additions), so CSE's
    extractability test and the task cost model pay one visit per distinct
    node, once per process.
    """
    stack = [expr] if expr._ops is None else []
    while stack:
        node = stack[-1]
        pending = [c for c in node.args if c._ops is None]
        if pending:
            stack.extend(pending)
        elif isinstance(node, Reduce):
            node._ops = node.body._ops * node.count + node.count - 1
            stack.pop()
        else:
            node._ops = _own_ops(node) + sum(c._ops for c in node.args)
            stack.pop()
    return expr._ops


def depth(expr: Expr) -> int:
    """Height of the expression tree (a leaf has depth 1)."""
    if not expr.args:
        return 1
    return 1 + max(depth(a) for a in expr.args)

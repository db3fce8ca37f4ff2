"""Deeper algebraic simplification and expansion.

The canonicalising constructors in :mod:`repro.symbolic.expr` already do the
cheap local rewrites (constant folding, flattening, like-term collection).
This module adds the passes the code generator runs before CSE:

* :func:`simplify` — a bottom-up rebuild that re-triggers canonicalisation
  after substitution, folds constant conditionals and equal-branch
  conditionals, and short-circuits constant boolean structure,
* :func:`expand` — distributes products over sums and expands small integer
  powers of sums, which exposes shareable subexpressions to CSE.
"""

from __future__ import annotations

from .builders import if_then_else
from .expr import (
    Add,
    BoolOp,
    Call,
    Const,
    Expr,
    ITE,
    Mul,
    Pow,
    Rel,
    add,
    mul,
    pow_,
)

__all__ = ["simplify", "expand"]

_REL_FUNCS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def simplify(expr: Expr, cache: dict[Expr, Expr] | None = None) -> Expr:
    """Rebuild ``expr`` bottom-up, applying structural simplifications.

    The walk is iterative, so expression depth is not bounded by the
    recursion limit.  ``cache`` maps nodes to their simplified form; pass
    one dict to several calls to simplify shared subtrees only once.
    """
    if cache is None:
        cache = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        pending = [a for a in node.args if a not in cache]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        cache[node] = (
            _post(node, tuple(cache[a] for a in node.args))
            if node.args else node
        )
    return cache[expr]


def _post(node: Expr, args: tuple[Expr, ...]) -> Expr:
    if isinstance(node, Rel):
        lhs, rhs = args
        if isinstance(lhs, Const) and isinstance(rhs, Const):
            return Const(1 if _REL_FUNCS[node.op](lhs.value, rhs.value) else 0)
        return node.with_args(args)
    if isinstance(node, BoolOp):
        if node.op == "not":
            (inner,) = args
            if isinstance(inner, Const):
                return Const(0 if inner.value else 1)
            return node.with_args(args)
        kept: list[Expr] = []
        for a in args:
            if isinstance(a, Const):
                truthy = bool(a.value)
                if node.op == "and" and not truthy:
                    return Const(0)
                if node.op == "or" and truthy:
                    return Const(1)
                continue  # neutral element, drop
            kept.append(a)
        if not kept:
            return Const(1 if node.op == "and" else 0)
        if len(kept) == 1:
            return kept[0]
        return BoolOp(node.op, tuple(kept))
    if isinstance(node, ITE):
        cond, then, orelse = args
        if isinstance(cond, Const):
            return then if cond.value else orelse
        if then == orelse:
            return then
        return ITE(cond, then, orelse)
    # Add / Mul / Pow / Call: the canonicalising rebuild is the simplification.
    return node.with_args(args)


_MAX_EXPAND_POWER = 6


def expand(expr: Expr) -> Expr:
    """Distribute products over sums; expand small positive integer powers
    of sums.  Conditionals, calls and relational structure are recursed into
    but not restructured."""
    cache: dict[Expr, Expr] = {}

    def walk(node: Expr) -> Expr:
        cached = cache.get(node)
        if cached is not None:
            return cached
        if not node.args:
            cache[node] = node
            return node
        args = tuple(walk(a) for a in node.args)
        if isinstance(node, Mul):
            result = _expand_mul(args)
        elif isinstance(node, Pow):
            result = _expand_pow(args[0], args[1])
        else:
            result = node.with_args(args)
        cache[node] = result
        return result

    return walk(expr)


def _expand_mul(factors: tuple[Expr, ...]) -> Expr:
    # Multiply out sums pairwise: keep a list of additive terms.
    terms: list[Expr] = [Const(1)]
    for factor in factors:
        summands = factor.args if isinstance(factor, Add) else (factor,)
        terms = [mul(t, s) for t in terms for s in summands]
        if len(terms) > 4096:
            # Safety valve: beyond this the expansion hurts more than helps.
            return mul(*factors)
    return add(*terms)


def _expand_pow(base: Expr, exponent: Expr) -> Expr:
    if (
        isinstance(base, Add)
        and isinstance(exponent, Const)
        and isinstance(exponent.value, int)
        and 2 <= exponent.value <= _MAX_EXPAND_POWER
    ):
        out: Expr = base
        for _ in range(exponent.value - 1):
            out = _expand_mul((out, base))
        return out
    return pow_(base, exponent)

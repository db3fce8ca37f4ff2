"""Symbolic differentiation.

Used to generate analytic Jacobian functions for the implicit BDF solver
(section 3.2.1 of the paper: "There is also a possibility for the user to
provide the solver with an extra function that computes the Jacobian …  If
the user can provide this function the computation time might be reduced
drastically").  Here the *code generator* plays the role of that user.

:func:`diff` takes one derivative; :func:`jacobian_entries` derives a whole
Jacobian in one sparse forward sweep over the shared expression DAG (Peleš
& Klus): every node is differentiated once, with respect to exactly the
states it depends on.  Both apply the same per-node rules.
"""

from __future__ import annotations

from typing import Sequence

from .builders import FUNCTIONS
from .expr import (
    Add,
    BoolOp,
    Call,
    Const,
    Der,
    Expr,
    ITE,
    Mul,
    Pow,
    Rel,
    Sym,
    ZERO,
    add,
    mul,
    pow_,
    sub,
)
from .simplify import simplify

__all__ = ["diff", "jacobian_entries", "DiffError"]


class DiffError(ValueError):
    """Raised when an expression cannot be differentiated symbolically."""


def diff(expr: Expr, wrt: Sym) -> Expr:
    """Differentiate ``expr`` with respect to the symbol ``wrt``.

    Relational conditions are treated as locally constant (their derivative
    contribution is zero almost everywhere), which matches how ODE solvers
    treat switching functions between events.
    """
    if not isinstance(wrt, Sym):
        raise TypeError("can only differentiate with respect to a Sym")
    cache: dict[Expr, Expr] = {}

    def walk(node: Expr) -> Expr:
        cached = cache.get(node)
        if cached is not None:
            return cached
        result = _diff_node(node, wrt, walk)
        cache[node] = result
        return result

    return walk(expr)


def _diff_args(node: Expr) -> tuple[Expr, ...]:
    """The children whose derivatives :func:`_diff_node` reads."""
    if isinstance(node, (Rel, BoolOp)):
        return ()
    if isinstance(node, ITE):
        return (node.then, node.orelse)
    return node.args


def jacobian_entries(
    rhs: Sequence[Expr], state_names: Sequence[str]
) -> list[tuple[int, int, Expr]]:
    """The structurally non-zero entries ``(i, j, d rhs[i] / d state_j)``.

    One iterative post-order sweep over the DAG of all right-hand sides
    gives every node a sparse gradient ``{state: derivative}`` built from
    its children's by the rules of :func:`diff`; states a node does not
    depend on, and partials that fold to zero, never get an entry.  A
    subexpression shared by several right-hand sides (hash-consing makes
    it one node) is differentiated once per state, not once per entry.
    Entries come out in ``(i, j)`` order, each simplified through one
    cache for the whole Jacobian, and equal to
    ``simplify(diff(rhs[i], Sym(state_names[j])))``.
    """
    column = {name: j for j, name in enumerate(state_names)}
    wrt = {name: Sym(name) for name in state_names}
    grad: dict[Expr, dict[str, Expr]] = {}
    for root in rhs:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in grad:
                stack.pop()
                continue
            kids = _diff_args(node)
            pending = [c for c in kids if c not in grad]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if isinstance(node, Sym):
                keys = (node.name,) if node.name in column else ()
            else:
                keys = dict.fromkeys(s for c in kids for s in grad[c])
            partials: dict[str, Expr] = {}
            for s in keys:
                d = _diff_node(
                    node, wrt[s], lambda c, s=s: grad[c].get(s, ZERO)
                )
                if not d.is_zero:
                    partials[s] = d
            grad[node] = partials

    cache: dict[Expr, Expr] = {}
    entries = []
    for i, root in enumerate(rhs):
        partials = grad[root]
        for s in sorted(partials, key=column.__getitem__):
            d = simplify(partials[s], cache)
            if not d.is_zero:
                entries.append((i, column[s], d))
    return entries


def _diff_node(node: Expr, wrt: Sym, walk) -> Expr:
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Sym):
        return Const(1) if node == wrt else ZERO
    if isinstance(node, Add):
        return add(*(walk(a) for a in node.args))
    if isinstance(node, Mul):
        terms = []
        args = node.args
        for i, factor in enumerate(args):
            dfac = walk(factor)
            if dfac.is_zero:
                continue
            rest = args[:i] + args[i + 1 :]
            terms.append(mul(dfac, *rest))
        return add(*terms) if terms else ZERO
    if isinstance(node, Pow):
        base, exponent = node.base, node.exponent
        dbase = walk(base)
        dexp = walk(exponent)
        if dexp.is_zero:
            # d/dx base**c = c * base**(c-1) * dbase
            if dbase.is_zero:
                return ZERO
            return mul(exponent, pow_(base, sub(exponent, 1)), dbase)
        # General case: base**exp * (dexp*log(base) + exp*dbase/base)
        from .builders import log

        term1 = mul(dexp, log(base))
        term2 = mul(exponent, dbase, pow_(base, Const(-1)))
        return mul(node, add(term1, term2))
    if isinstance(node, Call):
        spec = FUNCTIONS.get(node.fn)
        if spec is None or spec.partial is None:
            raise DiffError(f"no derivative rule for function {node.fn!r}")
        terms = []
        for i, arg in enumerate(node.args):
            darg = walk(arg)
            if darg.is_zero:
                continue
            terms.append(mul(spec.partial(node.args, i), darg))
        return add(*terms) if terms else ZERO
    if isinstance(node, ITE):
        # Piecewise-smooth: differentiate each branch; the switching surface
        # itself has measure zero.
        return ITE(node.cond, walk(node.then), walk(node.orelse))
    if isinstance(node, (Rel, BoolOp)):
        return ZERO
    if isinstance(node, Der):
        raise DiffError("cannot differentiate an unexpanded Der node")
    raise DiffError(f"cannot differentiate node type {type(node).__name__}")

"""Hypothesis strategies for random symbolic expressions.

The generated expressions are kept within the numerically tame subset
(bounded constants, guarded function domains) so that evaluation-based
equivalence checks rarely hit domain errors — and when they do, the tests
treat :class:`repro.symbolic.EvalError` on *both* sides as agreement.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.symbolic import (
    BoolOp,
    Const,
    Der,
    Expr,
    ITE,
    Reduce,
    Rel,
    Sym,
    add,
    cos,
    mul,
    pow_,
    sin,
    sqrt,
    tanh,
)

SYMBOL_NAMES = ("x", "y", "z")


def symbols_strategy() -> st.SearchStrategy:
    return st.sampled_from([Sym(n) for n in SYMBOL_NAMES])


def constants_strategy() -> st.SearchStrategy:
    return st.one_of(
        st.integers(min_value=-4, max_value=4).map(Const),
        st.floats(
            min_value=-4.0, max_value=4.0,
            allow_nan=False, allow_infinity=False,
        ).map(lambda v: Const(round(v, 3))),
    )


def expressions(max_depth: int = 4) -> st.SearchStrategy:
    """Random well-formed scalar expressions over x, y, z."""
    leaves = st.one_of(symbols_strategy(), constants_strategy())

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: add(ab[0], ab[1])),
            pair.map(lambda ab: mul(ab[0], ab[1])),
            children.map(lambda a: add(a, Const(1))),
            children.map(lambda a: mul(a, Const(-1))),
            # Powers restricted to small non-negative integer exponents so
            # evaluation stays real and finite-ish.
            st.tuples(children, st.integers(0, 3)).map(
                lambda ae: pow_(ae[0], Const(ae[1]))
            ),
            children.map(sin),
            children.map(cos),
            children.map(tanh),
            children.map(lambda a: sqrt(mul(a, a))),  # sqrt of a square: safe
            st.tuples(children, children, children).map(
                lambda abc: ITE(Rel("<", abc[0], abc[1]), abc[1], abc[2])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=2**max_depth)


def structural_expressions() -> st.SearchStrategy:
    """:func:`expressions` plus the node kinds evaluation-based tests leave
    out — ``Der``, ``BoolOp`` conditions, array-family ``Reduce`` sums —
    alone and combined under the canonicalising constructors."""
    base = expressions(max_depth=3)
    cond = st.tuples(base, base).map(lambda ab: Rel("<=", ab[0], ab[1]))
    special = st.one_of(
        base.map(Der),
        st.tuples(base, st.integers(0, 3), st.integers(1, 40)).map(
            lambda t: Reduce(t[0], "W", t[1], t[2])
        ),
        st.tuples(cond, cond, base, base).map(
            lambda t: ITE(
                BoolOp("or", [t[0], BoolOp("not", [t[1]])]), t[2], t[3]
            )
        ),
    )
    return st.one_of(
        base,
        special,
        st.tuples(special, base).map(lambda ab: add(ab[0], ab[1])),
        st.tuples(special, special).map(lambda ab: mul(ab[0], ab[1])),
    )


def environments() -> st.SearchStrategy:
    """Random variable bindings for SYMBOL_NAMES."""
    value = st.floats(
        min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
    )
    return st.fixed_dictionaries({name: value for name in SYMBOL_NAMES})


def assert_equivalent(a: Expr, b: Expr, env: dict, rtol: float = 1e-9) -> None:
    """Assert two expressions evaluate equal (or both fail) at ``env``."""
    from repro.symbolic import EvalError, evaluate

    try:
        va = evaluate(a, env)
    except EvalError:
        va = None
    try:
        vb = evaluate(b, env)
    except EvalError:
        vb = None
    if va is None or vb is None:
        assert va is None and vb is None, (a, b, env, va, vb)
        return
    if math.isnan(va) or math.isnan(vb):
        assert math.isnan(va) and math.isnan(vb), (a, b, env)
        return
    scale = max(abs(va), abs(vb), 1.0)
    assert abs(va - vb) <= rtol * scale, (str(a), str(b), env, va, vb)

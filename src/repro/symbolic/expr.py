"""Core symbolic expression AST.

This module implements the immutable expression tree used throughout the
reproduction: the modeling layer builds equations out of these nodes, the
analysis layer walks them to find variable dependencies, and the code
generator turns them into numerical programs.

The design mirrors what the ObjectMath system obtained from the Mathematica
kernel (the paper communicates with Mathematica over MathLink and represents
expressions in ``FullForm``): a small, canonicalised term algebra with

* ``Const`` — numeric literals (int or float),
* ``Sym``   — named symbols (state variables, parameters, the free variable),
* ``Add`` / ``Mul`` — n-ary commutative-associative operators with constant
  folding and like-term collection performed eagerly in the constructors,
* ``Pow``   — binary power with the usual short-circuit identities,
* ``Call``  — applications of named elementary functions (``sin`` …),
* ``Der``   — the first-order time derivative of an expression (the paper
  only ever needs ``Derivative[1][x][t]``),
* ``Rel`` / ``ITE`` / ``BoolOp`` — relational tests and conditional
  expressions; the paper's bearing right-hand sides contain conditionals
  (contact / no-contact), which is what motivates the semi-dynamic LPT
  scheduler of section 3.2.3.

All nodes are immutable, hashable and structurally comparable, which is what
makes hash-based common subexpression elimination (``repro.symbolic.cse``)
both simple and fast.

Nodes are additionally *hash-consed*: every constructor first consults a
module-level intern table, so structurally equal expressions built anywhere
in a process are the same object.  Equality then short-circuits to an
identity check, dictionary operations in CSE/diff/simplify hit cached
hashes, and :func:`free_symbols` can memoise its result per node — together
these dominate compile time on bearing-scale models.  The table only
affects sharing, never semantics; :func:`intern_cache_clear` drops it.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, Union

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "Add",
    "Mul",
    "Pow",
    "Call",
    "Der",
    "Rel",
    "BoolOp",
    "ITE",
    "Reduce",
    "ExprLike",
    "as_expr",
    "add",
    "mul",
    "pow_",
    "sub",
    "div",
    "neg",
    "free_symbols",
    "preorder",
    "postorder",
    "count_nodes",
    "intern_cache_clear",
    "intern_cache_size",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "TWO",
    "HALF",
]

Number = Union[int, float]
ExprLike = Union["Expr", int, float]


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Hash-cons table: construction key -> the canonical node instance.
_INTERN: dict = {}

_EMPTY_SYMS: frozenset = frozenset()


def intern_cache_size() -> int:
    """Number of interned expression nodes currently alive."""
    return len(_INTERN)


def intern_cache_clear() -> None:
    """Drop the intern table.

    Only sharing is affected: nodes built afterwards no longer unify with
    nodes built before, but structural ``==``/``hash`` semantics are
    unchanged.  Useful to bound memory in very long-running processes.
    """
    _INTERN.clear()


def _fresh(cls) -> "Expr":
    """Allocate an uninitialised node with empty caches (intern-table miss)."""
    obj = object.__new__(cls)
    obj._hash = None
    obj._skey = None
    obj._free = None
    obj._size = None
    return obj


class Expr:
    """Base class for every scalar symbolic expression node.

    Instances are immutable; arithmetic operators build new canonicalised
    nodes.  Subclasses define ``args`` (child expressions), a stable
    ``_key()`` used for deterministic ordering inside ``Add``/``Mul``, and
    structural ``__eq__``/``__hash__``.

    Construction happens in each subclass's ``__new__`` (which consults the
    intern table); ``__init__`` is a deliberate no-op so that a cache hit
    does not wipe the cached ``_hash``/``_skey``/``_free``/``_size`` of the
    returned canonical instance.
    """

    __slots__ = ("_hash", "_skey", "_free", "_size")

    #: class-level rank used for cross-type deterministic ordering
    _rank = 0

    # -- construction helpers ------------------------------------------------

    def __init__(self, *args, **kwargs) -> None:
        pass

    @property
    def args(self) -> tuple["Expr", ...]:
        """Child expressions (empty for leaves)."""
        return ()

    def with_args(self, args: Sequence["Expr"]) -> "Expr":
        """Rebuild this node with new children (canonicalising)."""
        raise NotImplementedError

    # -- ordering ------------------------------------------------------------

    def _key(self) -> tuple:
        """A stable, totally ordered key for deterministic argument sorting."""
        if self._skey is None:
            self._skey = self._compute_key()
        return self._skey

    def _compute_key(self) -> tuple:
        raise NotImplementedError

    # -- hashing and equality --------------------------------------------------

    def _hashable(self) -> tuple:
        raise NotImplementedError

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, self._hashable()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented if not isinstance(other, Expr) else False
        if (
            self._hash is not None
            and other._hash is not None  # type: ignore[union-attr]
            and self._hash != other._hash  # type: ignore[union-attr]
        ):
            return False
        return self._hashable() == other._hashable()  # type: ignore[union-attr]

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # -- python operator overloading -------------------------------------------

    def __add__(self, other: ExprLike) -> "Expr":
        return add(self, as_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return add(as_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return sub(self, as_expr(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return sub(as_expr(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return mul(self, as_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return mul(as_expr(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return div(self, as_expr(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return div(as_expr(other), self)

    def __pow__(self, other: ExprLike) -> "Expr":
        return pow_(self, as_expr(other))

    def __rpow__(self, other: ExprLike) -> "Expr":
        return pow_(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return neg(self)

    def __pos__(self) -> "Expr":
        return self

    # Relational builders (return Rel nodes, not bool).
    def lt(self, other: ExprLike) -> "Rel":
        return Rel("<", self, as_expr(other))

    def le(self, other: ExprLike) -> "Rel":
        return Rel("<=", self, as_expr(other))

    def gt(self, other: ExprLike) -> "Rel":
        return Rel(">", self, as_expr(other))

    def ge(self, other: ExprLike) -> "Rel":
        return Rel(">=", self, as_expr(other))

    # -- convenience -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return isinstance(self, Const) and self.value == 0

    @property
    def is_one(self) -> bool:
        return isinstance(self, Const) and self.value == 1

    @property
    def is_number(self) -> bool:
        return isinstance(self, Const)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import srepr

        return srepr(self)

    def __str__(self) -> str:
        from .printer import infix

        return infix(self)


class Const(Expr):
    """A numeric literal.

    Integers are kept exact so that e.g. ``x**2`` keeps an integer exponent
    the cost model and printers can recognise; everything else is a float.
    """

    __slots__ = ("value",)
    _rank = 1

    def __new__(cls, value: Number) -> "Const":
        if isinstance(value, bool) or not _is_number(value):
            raise TypeError(f"Const expects int or float, got {value!r}")
        if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
            # canonicalise 2.0 -> 2 so structurally equal expressions unify
            value = int(value)
        key = (cls, value)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj.value = value
        _INTERN[key] = obj
        return obj

    def _hashable(self) -> tuple:
        return (self.value,)

    def _compute_key(self) -> tuple:
        return (self._rank, float(self.value), "")

    def with_args(self, args: Sequence[Expr]) -> "Expr":
        if args:
            raise ValueError("Const takes no children")
        return self


class Sym(Expr):
    """A named symbol: a state variable, parameter, or the free variable."""

    __slots__ = ("name",)
    _rank = 2

    def __new__(cls, name: str) -> "Sym":
        if not name:
            raise ValueError("symbol name must be non-empty")
        key = (cls, name)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj.name = name
        _INTERN[key] = obj
        return obj

    def _hashable(self) -> tuple:
        return (self.name,)

    def _compute_key(self) -> tuple:
        return (self._rank, 0.0, self.name)

    def with_args(self, args: Sequence[Expr]) -> "Expr":
        if args:
            raise ValueError("Sym takes no children")
        return self


def as_expr(value: ExprLike) -> Expr:
    """Coerce a Python number (or expression) into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if _is_number(value):
        return Const(value)
    raise TypeError(f"cannot convert {value!r} to Expr")


ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)
TWO = Const(2)
HALF = Const(0.5)


class Add(Expr):
    """N-ary sum, canonicalised.

    Invariants maintained by the constructor function :func:`add`:

    * no nested ``Add`` children (flattened),
    * at most one leading ``Const`` (folded), never zero,
    * like terms collected: ``x + 2*x`` becomes ``3*x``,
    * deterministic argument order (sorted by ``_key``),
    * never fewer than two arguments (smaller cases are simplified away).
    """

    __slots__ = ("_args",)
    _rank = 5

    def __new__(cls, args: tuple[Expr, ...], _internal: bool = False) -> "Add":
        if not _internal:
            raise RuntimeError("use add(...) to build sums")
        key = (cls, args)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj._args = args
        _INTERN[key] = obj
        return obj

    @property
    def args(self) -> tuple[Expr, ...]:
        return self._args

    def _hashable(self) -> tuple:
        return self._args

    def _compute_key(self) -> tuple:
        return (self._rank, 0.0, tuple(a._key() for a in self._args))

    def with_args(self, args: Sequence[Expr]) -> Expr:
        return add(*args)


class Mul(Expr):
    """N-ary product, canonicalised (see :func:`mul` for invariants)."""

    __slots__ = ("_args",)
    _rank = 4

    def __new__(cls, args: tuple[Expr, ...], _internal: bool = False) -> "Mul":
        if not _internal:
            raise RuntimeError("use mul(...) to build products")
        key = (cls, args)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj._args = args
        _INTERN[key] = obj
        return obj

    @property
    def args(self) -> tuple[Expr, ...]:
        return self._args

    def _hashable(self) -> tuple:
        return self._args

    def _compute_key(self) -> tuple:
        return (self._rank, 0.0, tuple(a._key() for a in self._args))

    def with_args(self, args: Sequence[Expr]) -> Expr:
        return mul(*args)


class Pow(Expr):
    """Binary power ``base ** exponent``."""

    __slots__ = ("base", "exponent")
    _rank = 3

    def __new__(cls, base: Expr, exponent: Expr, _internal: bool = False) -> "Pow":
        if not _internal:
            raise RuntimeError("use pow_(...) to build powers")
        key = (cls, base, exponent)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj.base = base
        obj.exponent = exponent
        _INTERN[key] = obj
        return obj

    @property
    def args(self) -> tuple[Expr, ...]:
        return (self.base, self.exponent)

    def _hashable(self) -> tuple:
        return (self.base, self.exponent)

    def _compute_key(self) -> tuple:
        return (self._rank, 0.0, (self.base._key(), self.exponent._key()))

    def with_args(self, args: Sequence[Expr]) -> Expr:
        base, exponent = args
        return pow_(base, exponent)


class Call(Expr):
    """Application of a named elementary function, e.g. ``sin(x)``.

    The set of admissible names (and their numeric implementations and
    derivative rules) lives in :mod:`repro.symbolic.builders`; keeping the
    node itself name-based keeps the AST closed and easily printable to
    Fortran / C / Python.
    """

    __slots__ = ("fn", "_args")
    _rank = 6

    def __new__(cls, fn: str, args: Sequence[Expr]) -> "Call":
        args_t = tuple(as_expr(a) for a in args)
        key = (cls, fn, args_t)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj.fn = fn
        obj._args = args_t
        _INTERN[key] = obj
        return obj

    @property
    def args(self) -> tuple[Expr, ...]:
        return self._args

    def _hashable(self) -> tuple:
        return (self.fn, self._args)

    def _compute_key(self) -> tuple:
        return (self._rank, 0.0, (self.fn, tuple(a._key() for a in self._args)))

    def with_args(self, args: Sequence[Expr]) -> Expr:
        return Call(self.fn, tuple(args))


class Der(Expr):
    """First-order derivative with respect to the free variable (time).

    The paper restricts generated code to explicit first-order ODE systems,
    so ``Der`` only ever wraps a state-variable symbol by the time code
    generation runs; the expression transformer enforces this.
    """

    __slots__ = ("expr",)
    _rank = 7

    def __new__(cls, expr: ExprLike) -> "Der":
        expr = as_expr(expr)
        key = (cls, expr)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj.expr = expr
        _INTERN[key] = obj
        return obj

    @property
    def args(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def _hashable(self) -> tuple:
        return (self.expr,)

    def _compute_key(self) -> tuple:
        return (self._rank, 0.0, self.expr._key())

    def with_args(self, args: Sequence[Expr]) -> Expr:
        (expr,) = args
        return Der(expr)


_REL_OPS = ("<", "<=", ">", ">=", "==", "!=")


class Rel(Expr):
    """A relational test, e.g. ``delta > 0``.  Evaluates to 0.0/1.0."""

    __slots__ = ("op", "lhs", "rhs")
    _rank = 8

    def __new__(cls, op: str, lhs: ExprLike, rhs: ExprLike) -> "Rel":
        if op not in _REL_OPS:
            raise ValueError(f"unknown relational operator {op!r}")
        lhs = as_expr(lhs)
        rhs = as_expr(rhs)
        key = (cls, op, lhs, rhs)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj.op = op
        obj.lhs = lhs
        obj.rhs = rhs
        _INTERN[key] = obj
        return obj

    @property
    def args(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def _hashable(self) -> tuple:
        return (self.op, self.lhs, self.rhs)

    def _compute_key(self) -> tuple:
        return (self._rank, 0.0, (self.op, self.lhs._key(), self.rhs._key()))

    def with_args(self, args: Sequence[Expr]) -> Expr:
        lhs, rhs = args
        return Rel(self.op, lhs, rhs)


class BoolOp(Expr):
    """Logical combination of relational tests (``and`` / ``or`` / ``not``)."""

    __slots__ = ("op", "_args")
    _rank = 9

    def __new__(cls, op: str, args: Sequence[Expr]) -> "BoolOp":
        if op not in ("and", "or", "not"):
            raise ValueError(f"unknown boolean operator {op!r}")
        if op == "not" and len(args) != 1:
            raise ValueError("'not' takes exactly one argument")
        if op in ("and", "or") and len(args) < 2:
            raise ValueError(f"{op!r} takes at least two arguments")
        args_t = tuple(as_expr(a) for a in args)
        key = (cls, op, args_t)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj.op = op
        obj._args = args_t
        _INTERN[key] = obj
        return obj

    @property
    def args(self) -> tuple[Expr, ...]:
        return self._args

    def _hashable(self) -> tuple:
        return (self.op, self._args)

    def _compute_key(self) -> tuple:
        return (self._rank, 0.0, (self.op, tuple(a._key() for a in self._args)))

    def with_args(self, args: Sequence[Expr]) -> Expr:
        return BoolOp(self.op, tuple(args))


class ITE(Expr):
    """Conditional expression ``if cond then then_ else else_``.

    These are the "conditional expressions within the right-hand sides" of
    section 3.2.3 that defeat static execution-time prediction and motivate
    the semi-dynamic LPT scheduler.
    """

    __slots__ = ("cond", "then", "orelse")
    _rank = 10

    def __new__(cls, cond: ExprLike, then: ExprLike, orelse: ExprLike) -> "ITE":
        cond = as_expr(cond)
        then = as_expr(then)
        orelse = as_expr(orelse)
        key = (cls, cond, then, orelse)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj.cond = cond
        obj.then = then
        obj.orelse = orelse
        _INTERN[key] = obj
        return obj

    @property
    def args(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)

    def _hashable(self) -> tuple:
        return (self.cond, self.then, self.orelse)

    def _compute_key(self) -> tuple:
        return (
            self._rank,
            0.0,
            (self.cond._key(), self.then._key(), self.orelse._key()),
        )

    def with_args(self, args: Sequence[Expr]) -> Expr:
        cond, then, orelse = args
        return ITE(cond, then, orelse)


class Reduce(Expr):
    """Symbolic sum of ``body`` over the instances of an array family.

    ``body`` is written in the namespace of the family's *representative*
    instance (``f"{family}{start}"``); the reduction stands for

    ``sum(body[representative := f"{family}{i}"] for i in range(start, start + count))``

    Array-aware flattening keeps these symbolic end-to-end so the model
    stays sized by class structure: analysis maps the body's representative
    symbols onto set vertices, the cost model weights the body by ``count``,
    and the code generators lower each reduction to an accumulation loop
    (python) or a strided-slice ``sum`` (numpy).  Scalar-mode flattening —
    and :meth:`ArraySystem.expand` — lowers them with the canonical
    :func:`add`, which is insensitive to construction order, so the
    expansion is bit-identical to the scalar oracle.
    """

    __slots__ = ("body", "family", "start", "count")
    _rank = 11

    def __new__(cls, body: ExprLike, family: str, start: int, count: int) -> "Reduce":
        body = as_expr(body)
        if not family:
            raise ValueError("Reduce family base name must be non-empty")
        if not isinstance(start, int) or not isinstance(count, int):
            raise TypeError("Reduce start/count must be int")
        if count < 1:
            raise ValueError("Reduce count must be >= 1")
        key = (cls, body, family, start, count)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        obj = _fresh(cls)
        obj.body = body
        obj.family = family
        obj.start = start
        obj.count = count
        _INTERN[key] = obj
        return obj

    @property
    def args(self) -> tuple[Expr, ...]:
        return (self.body,)

    def _hashable(self) -> tuple:
        return (self.body, self.family, self.start, self.count)

    def _compute_key(self) -> tuple:
        return (
            self._rank,
            0.0,
            (self.family, self.start, self.count, self.body._key()),
        )

    def with_args(self, args: Sequence[Expr]) -> Expr:
        (body,) = args
        return Reduce(body, self.family, self.start, self.count)


# ---------------------------------------------------------------------------
# Canonicalising constructors
# ---------------------------------------------------------------------------


def _coeff_term(expr: Expr) -> tuple[Number, Expr]:
    """Split ``expr`` into (numeric coefficient, residual term)."""
    if isinstance(expr, Const):
        return expr.value, ONE
    if isinstance(expr, Mul):
        first = expr.args[0]
        if isinstance(first, Const):
            rest = expr.args[1:]
            if len(rest) == 1:
                return first.value, rest[0]
            return first.value, Mul(rest, _internal=True)
    return 1, expr


def add(*terms: ExprLike) -> Expr:
    """Build a canonical sum of ``terms``.

    Flattens nested sums, folds constants, collects like terms (terms equal
    up to a numeric coefficient), and sorts arguments deterministically.
    """
    const_part: Number = 0
    collected: dict[Expr, Number] = {}
    order: list[Expr] = []

    def absorb(item: Expr) -> None:
        nonlocal const_part
        if isinstance(item, Const):
            const_part = const_part + item.value
            return
        if isinstance(item, Add):
            for child in item.args:
                absorb(child)
            return
        coeff, term = _coeff_term(item)
        if term in collected:
            collected[term] = collected[term] + coeff
        else:
            collected[term] = coeff
            order.append(term)

    for raw in terms:
        absorb(as_expr(raw))

    parts: list[Expr] = []
    for term in sorted(order, key=lambda e: e._key()):
        coeff = collected[term]
        if coeff == 0:
            continue
        if coeff == 1:
            parts.append(term)
        else:
            parts.append(mul(Const(coeff), term))
    if const_part != 0:
        parts.insert(0, Const(const_part))

    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return Add(tuple(parts), _internal=True)


def mul(*factors: ExprLike) -> Expr:
    """Build a canonical product of ``factors``.

    Flattens nested products, folds constants (returning 0 eagerly when any
    factor is zero), merges equal bases into powers, and sorts arguments.
    """
    const_part: Number = 1
    powers: dict[Expr, Expr] = {}
    order: list[Expr] = []

    def absorb(item: Expr) -> None:
        nonlocal const_part
        if isinstance(item, Const):
            const_part = const_part * item.value
            return
        if isinstance(item, Mul):
            for child in item.args:
                absorb(child)
            return
        if isinstance(item, Pow):
            base, exponent = item.base, item.exponent
        else:
            base, exponent = item, ONE
        if base in powers:
            powers[base] = add(powers[base], exponent)
        else:
            powers[base] = exponent
            order.append(base)

    for raw in factors:
        absorb(as_expr(raw))

    if const_part == 0:
        return ZERO

    parts: list[Expr] = []
    for base in sorted(order, key=lambda e: e._key()):
        exponent = powers[base]
        factor = pow_(base, exponent)
        if factor.is_one:
            continue
        if isinstance(factor, Const):
            const_part = const_part * factor.value
            continue
        parts.append(factor)

    if const_part == 0:
        return ZERO
    if const_part != 1:
        parts.insert(0, Const(const_part))

    if not parts:
        return ONE
    if len(parts) == 1:
        return parts[0]
    return Mul(tuple(parts), _internal=True)


def pow_(base: ExprLike, exponent: ExprLike) -> Expr:
    """Build a canonical power ``base ** exponent``."""
    base = as_expr(base)
    exponent = as_expr(exponent)

    if exponent.is_zero:
        return ONE
    if exponent.is_one:
        return base
    if base.is_one:
        return ONE
    if base.is_zero:
        if isinstance(exponent, Const) and exponent.value > 0:
            return ZERO
        # 0**negative / 0**symbolic kept symbolic (division-by-zero guard)
        return Pow(base, exponent, _internal=True)
    if isinstance(base, Const) and isinstance(exponent, Const):
        b, e = base.value, exponent.value
        if b > 0 or (isinstance(e, int)):
            try:
                value = b**e
            except (OverflowError, ZeroDivisionError):
                return Pow(base, exponent, _internal=True)
            if _is_number(value):
                if isinstance(value, int) and abs(value) > 2**63:
                    value = float(value)
                return Const(value)
        return Pow(base, exponent, _internal=True)
    if isinstance(base, Pow) and isinstance(base.exponent, Const) and isinstance(
        exponent, Const
    ):
        # (x**a)**b -> x**(a*b), but only where it is an identity over the
        # reals: when b is an integer (integer powers compose for any real
        # base), or when a is an odd integer (x**a preserves sign, so no
        # |x| is silently dropped).  Combining (x**2)**0.5 into x would be
        # wrong for negative x.
        a_val, b_val = base.exponent.value, exponent.value
        if isinstance(b_val, int) or (
            isinstance(a_val, int) and a_val % 2 == 1
        ):
            return pow_(base.base, mul(base.exponent, exponent))
    return Pow(base, exponent, _internal=True)


def sub(a: ExprLike, b: ExprLike) -> Expr:
    return add(as_expr(a), mul(MINUS_ONE, as_expr(b)))


def div(a: ExprLike, b: ExprLike) -> Expr:
    b = as_expr(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("symbolic division by constant zero")
        return mul(as_expr(a), Const(1.0 / b.value if b.value != 1 else 1))
    return mul(as_expr(a), pow_(b, MINUS_ONE))


def neg(a: ExprLike) -> Expr:
    return mul(MINUS_ONE, as_expr(a))


# ---------------------------------------------------------------------------
# Traversal utilities
# ---------------------------------------------------------------------------


def preorder(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all descendants, parents before children."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.args))


def postorder(expr: Expr) -> Iterator[Expr]:
    """Yield all descendants of ``expr``, children before parents."""
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        else:
            stack.append((node, True))
            for child in reversed(node.args):
                stack.append((child, False))


def free_symbols(expr: Expr) -> frozenset[Sym]:
    """The set of :class:`Sym` leaves appearing anywhere in ``expr``.

    Memoised per node: with hash-consed nodes, shared subtrees are computed
    once per process, which turns the repeated ``free_symbols`` calls in
    CSE, task partitioning and code emission from O(tree) into O(1).
    """
    cached = expr._free
    if cached is not None:
        return cached
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if node._free is not None:
            continue
        if expanded:
            if isinstance(node, Sym):
                node._free = frozenset((node,))
            elif not node.args:
                node._free = _EMPTY_SYMS
            else:
                child_sets = [c._free for c in node.args]
                if len(child_sets) == 1:
                    node._free = child_sets[0]
                else:
                    node._free = frozenset().union(*child_sets)
        else:
            stack.append((node, True))
            for child in node.args:
                if child._free is None:
                    stack.append((child, False))
    return expr._free


def count_nodes(expr: Expr) -> int:
    """Total number of AST nodes in ``expr`` (shared subtrees counted anew).

    Memoised per node like :func:`free_symbols` (``1 + sum of child
    sizes``), so the tree size of a heavily shared DAG costs one visit per
    distinct node, once per process.
    """
    stack = [expr] if expr._size is None else []
    while stack:
        node = stack[-1]
        pending = [c for c in node.args if c._size is None]
        if pending:
            stack.extend(pending)
        else:
            node._size = 1 + sum(c._size for c in node.args)
            stack.pop()
    return expr._size

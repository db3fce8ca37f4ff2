"""Expression printers.

Four output forms are provided, mirroring the artifacts shown in the paper:

* :func:`infix` — human-readable (and Python-parsable) infix form, the
  "normal form" of Figure 11,
* :func:`fullform` — Mathematica-``FullForm``-style prefix form; with
  ``annotate=True`` it wraps typed leaves in ``om$Type[name, om$Real]`` the
  way the ObjectMath 4.0 intermediate representation does (Figure 11),
* :func:`srepr` — unambiguous constructor-style repr used in error messages
  and debugging,
* :func:`code` — expression-level code generation for the ``python``,
  ``fortran`` and ``c`` dialects, shared by the code-generator back ends.
"""

from __future__ import annotations

from typing import Callable, Mapping

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
    Reduce,
    Rel,
    Sym,
)

__all__ = ["infix", "fullform", "srepr", "code", "tree"]

# Precedence levels for infix printing (higher binds tighter).
_PREC_ADD = 10
_PREC_MUL = 20
_PREC_UNARY = 25
_PREC_POW = 30
_PREC_ATOM = 100


def _const_str(value: float | int) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(value)


def infix(expr: Expr) -> str:
    """Render ``expr`` in infix notation (also valid Python)."""
    text, _ = _infix(expr)
    return text


def _paren(text: str, prec: int, parent_prec: int) -> str:
    return f"({text})" if prec < parent_prec else text


def _infix(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, int) and value < 0 or isinstance(value, float) and value < 0:
            return _const_str(value), _PREC_UNARY
        return _const_str(value), _PREC_ATOM
    if isinstance(expr, Sym):
        return expr.name, _PREC_ATOM
    if isinstance(expr, Add):
        parts: list[str] = []
        for i, arg in enumerate(expr.args):
            text, prec = _infix(arg)
            if i == 0:
                parts.append(_paren(text, prec, _PREC_ADD))
            elif text.startswith("-"):
                parts.append(f" - {_paren(text[1:], prec, _PREC_ADD)}")
            else:
                parts.append(f" + {_paren(text, prec, _PREC_ADD + 1)}")
        return "".join(parts), _PREC_ADD
    if isinstance(expr, Mul):
        args = expr.args
        prefix = ""
        if isinstance(args[0], Const) and args[0].value == -1 and len(args) > 1:
            prefix = "-"
            args = args[1:]
        texts = []
        for arg in args:
            text, prec = _infix(arg)
            texts.append(_paren(text, prec, _PREC_MUL + 1))
        body = "*".join(texts)
        if prefix:
            return prefix + body, _PREC_UNARY
        return body, _PREC_MUL
    if isinstance(expr, Pow):
        base_text, base_prec = _infix(expr.base)
        exp_text, exp_prec = _infix(expr.exponent)
        base_text = _paren(base_text, base_prec, _PREC_POW + 1)
        exp_text = _paren(exp_text, exp_prec, _PREC_POW)
        return f"{base_text}**{exp_text}", _PREC_POW
    if isinstance(expr, Call):
        inner = ", ".join(infix(a) for a in expr.args)
        return f"{expr.fn}({inner})", _PREC_ATOM
    if isinstance(expr, Der):
        inner, _ = _infix(expr.expr)
        return f"der({inner})", _PREC_ATOM
    if isinstance(expr, Rel):
        lhs, _ = _infix(expr.lhs)
        rhs, _ = _infix(expr.rhs)
        return f"({lhs} {expr.op} {rhs})", _PREC_ATOM
    if isinstance(expr, BoolOp):
        if expr.op == "not":
            inner, _ = _infix(expr.args[0])
            return f"(not {inner})", _PREC_ATOM
        joiner = f" {expr.op} "
        return "(" + joiner.join(infix(a) for a in expr.args) + ")", _PREC_ATOM
    if isinstance(expr, ITE):
        cond, _ = _infix(expr.cond)
        then, _ = _infix(expr.then)
        orelse, _ = _infix(expr.orelse)
        return f"({then} if {cond} else {orelse})", _PREC_ATOM
    if isinstance(expr, Reduce):
        body, _ = _infix(expr.body)
        rng = f"{expr.family}[{expr.start}..{expr.start + expr.count - 1}]"
        return f"reduce_sum[{rng}]({body})", _PREC_ATOM
    raise TypeError(f"cannot print node type {type(expr).__name__}")


# ---------------------------------------------------------------------------
# FullForm / prefix printing (ObjectMath intermediate representation)
# ---------------------------------------------------------------------------

_FULLFORM_FN = {
    "sin": "Sin",
    "cos": "Cos",
    "tan": "Tan",
    "exp": "Exp",
    "log": "Log",
    "sqrt": "Sqrt",
    "abs": "Abs",
    "sign": "Sign",
    "min": "Min",
    "max": "Max",
    "atan2": "ArcTan2",
    "asin": "ArcSin",
    "acos": "ArcCos",
    "atan": "ArcTan",
    "sinh": "Sinh",
    "cosh": "Cosh",
    "tanh": "Tanh",
}

_REL_FULLFORM = {
    "<": "Less",
    "<=": "LessEqual",
    ">": "Greater",
    ">=": "GreaterEqual",
    "==": "Equal",
    "!=": "Unequal",
}


def fullform(
    expr: Expr,
    annotate: bool = False,
    types: Mapping[str, str] | None = None,
    free_var: str = "t",
) -> str:
    """Render ``expr`` in Mathematica-FullForm-style prefix notation.

    With ``annotate=True``, symbols are wrapped as ``om$Type[name, om$Real]``
    (the type defaulting to ``om$Real``, overridable per symbol through
    ``types``), reproducing the type-annotated intermediate form of
    Figure 11.  Derivatives print as ``Derivative[1][x][t]``.
    """
    types = types or {}

    def ann(name: str) -> str:
        if not annotate:
            return name
        ty = types.get(name, "om$Real")
        return f"om$Type[{name}, {ty}]"

    def walk(node: Expr) -> str:
        if isinstance(node, Const):
            return _const_str(node.value)
        if isinstance(node, Sym):
            return ann(node.name)
        if isinstance(node, Add):
            return "Plus[" + ", ".join(walk(a) for a in node.args) + "]"
        if isinstance(node, Mul):
            args = node.args
            if isinstance(args[0], Const) and args[0].value == -1 and len(args) == 2:
                return f"Minus[{walk(args[1])}]"
            return "Times[" + ", ".join(walk(a) for a in args) + "]"
        if isinstance(node, Pow):
            return f"Power[{walk(node.base)}, {walk(node.exponent)}]"
        if isinstance(node, Call):
            head = _FULLFORM_FN.get(node.fn, node.fn.capitalize())
            return head + "[" + ", ".join(walk(a) for a in node.args) + "]"
        if isinstance(node, Der):
            if isinstance(node.expr, Sym):
                return f"Derivative[1][{ann(node.expr.name)}][{ann(free_var)}]"
            return f"Derivative[1][{walk(node.expr)}][{ann(free_var)}]"
        if isinstance(node, Rel):
            head = _REL_FULLFORM[node.op]
            return f"{head}[{walk(node.lhs)}, {walk(node.rhs)}]"
        if isinstance(node, BoolOp):
            head = {"and": "And", "or": "Or", "not": "Not"}[node.op]
            return head + "[" + ", ".join(walk(a) for a in node.args) + "]"
        if isinstance(node, ITE):
            return f"If[{walk(node.cond)}, {walk(node.then)}, {walk(node.orelse)}]"
        if isinstance(node, Reduce):
            rng = f"{node.family}, {node.start}, {node.count}"
            return f"ReduceSum[{walk(node.body)}, {rng}]"
        raise TypeError(f"cannot print node type {type(node).__name__}")

    return walk(expr)


def srepr(expr: Expr) -> str:
    """Constructor-style representation.

    Round-trippable via ``eval`` given the canonicalising builders
    (``add``, ``mul``, ``pow_``) and node classes in scope.
    """
    if isinstance(expr, Const):
        return f"Const({expr.value!r})"
    if isinstance(expr, Sym):
        return f"Sym({expr.name!r})"
    if isinstance(expr, Add):
        return "add(" + ", ".join(srepr(a) for a in expr.args) + ")"
    if isinstance(expr, Mul):
        return "mul(" + ", ".join(srepr(a) for a in expr.args) + ")"
    if isinstance(expr, Pow):
        return f"pow_({srepr(expr.base)}, {srepr(expr.exponent)})"
    if isinstance(expr, Call):
        return f"Call({expr.fn!r}, [{', '.join(srepr(a) for a in expr.args)}])"
    if isinstance(expr, Der):
        return f"Der({srepr(expr.expr)})"
    if isinstance(expr, Rel):
        return f"Rel({expr.op!r}, {srepr(expr.lhs)}, {srepr(expr.rhs)})"
    if isinstance(expr, BoolOp):
        return f"BoolOp({expr.op!r}, [{', '.join(srepr(a) for a in expr.args)}])"
    if isinstance(expr, ITE):
        return f"ITE({srepr(expr.cond)}, {srepr(expr.then)}, {srepr(expr.orelse)})"
    if isinstance(expr, Reduce):
        return (
            f"Reduce({srepr(expr.body)}, {expr.family!r}, "
            f"{expr.start}, {expr.count})"
        )
    return f"<{type(expr).__name__}>"


# ---------------------------------------------------------------------------
# Code printing (shared by the Python / Fortran 90 / C back ends)
# ---------------------------------------------------------------------------


def _integral(exponent: Expr) -> bool:
    """A constant integral exponent: ``b**e`` is real for every real ``b``."""
    return isinstance(exponent, Const) and float(exponent.value).is_integer()


def code(
    expr: Expr,
    dialect: str = "python",
    rename: Callable[[str], str] | None = None,
) -> str:
    """Render ``expr`` as an expression in the target ``dialect``.

    ``rename`` maps symbol names to target-language identifiers (the code
    generator uses it to map flattened model names such as ``W[3].F.x`` to
    legal identifiers or array references).

    The ``fortran`` dialect emits ``**`` powers and merges conditionals with
    ``merge(then, else, cond)`` (F90's elemental conditional).  The ``c``
    dialect emits ``pow`` and ternaries.  ``python`` output is directly
    ``eval``-able given a suitable namespace; it prints a power whose
    exponent is not an integral constant as ``_rpow(base, exponent)``,
    the namespace's guard against a complex result (``(-1.0)**0.5`` is a
    ``complex`` in Python where NumPy gives ``nan``).  The ``numpy``
    dialect is the elementwise/batched variant of ``python``: elementary
    functions use their ufunc names (``arcsin``, ``minimum``, …),
    conditionals lower to ``where(cond, then, else)``, and boolean
    operators lower to the bitwise ``&``/``|``/``~`` that NumPy overloads
    for boolean arrays.
    """
    if dialect not in ("python", "numpy", "fortran", "c"):
        raise ValueError(f"unknown dialect {dialect!r}")
    rename = rename or (lambda name: name)

    def const(value: float | int) -> str:
        if dialect == "fortran":
            if isinstance(value, int):
                return f"{value}.0_dp" if value >= 0 else f"({value}.0_dp)"
            return f"{value!r}_dp"
        if dialect == "c":
            text = _const_str(value) if isinstance(value, float) else f"{value}.0"
            return text if value >= 0 else f"({text})"
        return _const_str(value)

    def walk(node: Expr, parent_prec: int) -> str:
        if isinstance(node, Const):
            text = const(node.value)
            return text
        if isinstance(node, Sym):
            return rename(node.name)
        if isinstance(node, Add):
            parts = []
            for i, arg in enumerate(node.args):
                text = walk(arg, _PREC_ADD if i == 0 else _PREC_ADD + 1)
                if i > 0 and text.startswith("-"):
                    parts.append(f" - {text[1:]}")
                elif i > 0:
                    parts.append(f" + {text}")
                else:
                    parts.append(text)
            body = "".join(parts)
            return f"({body})" if parent_prec > _PREC_ADD else body
        if isinstance(node, Mul):
            args = node.args
            prefix = ""
            if isinstance(args[0], Const) and args[0].value == -1 and len(args) > 1:
                prefix = "-"
                args = args[1:]
            body = "*".join(walk(a, _PREC_MUL + 1) for a in args)
            text = prefix + body
            effective = _PREC_UNARY if prefix else _PREC_MUL
            return f"({text})" if parent_prec > effective else text
        if isinstance(node, Pow):
            if dialect == "c":
                return f"pow({walk(node.base, 0)}, {walk(node.exponent, 0)})"
            if dialect == "python" and not _integral(node.exponent):
                return f"_rpow({walk(node.base, 0)}, {walk(node.exponent, 0)})"
            base = walk(node.base, _PREC_POW + 1)
            exponent = walk(node.exponent, _PREC_POW)
            text = f"{base}**{exponent}"
            return f"({text})" if parent_prec > _PREC_POW else text
        if isinstance(node, Call):
            spec = FUNCTIONS.get(node.fn)
            name = node.fn
            if spec is not None:
                if dialect == "fortran" and spec.fortran_name:
                    name = spec.fortran_name
                elif dialect == "c" and spec.c_name:
                    name = spec.c_name
                elif dialect == "numpy" and spec.numpy_name:
                    name = spec.numpy_name
            inner = ", ".join(walk(a, 0) for a in node.args)
            return f"{name}({inner})"
        if isinstance(node, Rel):
            lhs = walk(node.lhs, _PREC_ADD)
            rhs = walk(node.rhs, _PREC_ADD)
            if dialect == "fortran":
                op = {"==": "==", "!=": "/=",}.get(node.op, node.op)
                return f"({lhs} {op} {rhs})"
            return f"({lhs} {node.op} {rhs})"
        if isinstance(node, BoolOp):
            if dialect == "python":
                ops = {"and": " and ", "or": " or "}
            elif dialect == "numpy":
                ops = {"and": " & ", "or": " | "}
            elif dialect == "fortran":
                ops = {"and": " .and. ", "or": " .or. "}
            else:
                ops = {"and": " && ", "or": " || "}
            if node.op == "not":
                inner = walk(node.args[0], 0)
                negation = {
                    "python": "not ", "numpy": "~", "fortran": ".not. ",
                    "c": "!",
                }[dialect]
                return f"({negation}{inner})"
            return "(" + ops[node.op].join(walk(a, 0) for a in node.args) + ")"
        if isinstance(node, ITE):
            cond = walk(node.cond, 0)
            then = walk(node.then, 0)
            orelse = walk(node.orelse, 0)
            if dialect == "python":
                return f"({then} if {cond} else {orelse})"
            if dialect == "numpy":
                return f"where({cond}, {then}, {orelse})"
            if dialect == "fortran":
                return f"merge({then}, {orelse}, {cond})"
            return f"({cond} ? {then} : {orelse})"
        if isinstance(node, Der):
            raise ValueError("Der nodes must be transformed away before codegen")
        raise TypeError(f"cannot print node type {type(node).__name__}")

    return walk(expr, 0)


def tree(expr: Expr, indent: str = "") -> str:
    """ASCII tree rendering, handy for debugging model transformations."""
    label = type(expr).__name__
    if isinstance(expr, Const):
        label += f" {expr.value}"
    elif isinstance(expr, Sym):
        label += f" {expr.name}"
    elif isinstance(expr, Call):
        label += f" {expr.fn}"
    elif isinstance(expr, (Rel, BoolOp)):
        label += f" {expr.op}"
    elif isinstance(expr, Reduce):
        label += f" {expr.family}[{expr.start}..{expr.start + expr.count - 1}]"
    lines = [indent + label]
    for child in expr.args:
        lines.append(tree(child, indent + "  "))
    return "\n".join(lines)

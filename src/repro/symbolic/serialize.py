"""JSON serialisation of expressions and ODE systems.

The original system shipped expressions between the compiler and the
Mathematica kernel over MathLink (section 3.1); this module provides the
reproduction's equivalent interchange format, so compiled systems can be
saved, diffed, and reloaded without re-running the front half of the
pipeline.

Expressions are hash-consed DAGs and are written as one: a **node table**
holds each distinct node once, in post-order, and any number of roots
index into it.  A row is ``[tag, [child rows...], field...]`` whose
children are indices of *earlier* rows::

    sin(2*x) + x  ->  {"nodes": [["const", [], 2], ["sym", [], "x"],
                                 ["mul", [0, 1]], ["call", [2], "sin"],
                                 ["add", [1, 3]]],
                       "roots": [4]}

The table is keyed by the node itself (structural hash and equality), so
the encoding is a function of structure alone; decoding runs every row
through the canonicalising constructors, so what comes back is the
interned node a fresh build would produce.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

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
    add,
    mul,
    pow_,
)

__all__ = [
    "ExprTable",
    "decode_nodes",
    "pick_roots",
    "expr_to_obj",
    "expr_from_obj",
    "dumps_expr",
    "loads_expr",
    "system_to_obj",
    "system_from_obj",
]


def _name(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a name, got {value!r}")
    return value


#: row tag, node type, the non-child fields written after the child list,
#: and the canonicalising constructor over (children, *those fields) — the
#: children always splatted first, so a leaf row that lists any is an
#: arity error like every other
_KINDS = (
    ("const", Const, ("value",), lambda a, value: Const(*a, value)),
    ("sym", Sym, ("name",), lambda a, name: Sym(*a, _name(name))),
    ("add", Add, (), lambda a: add(*a)),
    ("mul", Mul, (), lambda a: mul(*a)),
    ("pow", Pow, (), lambda a: pow_(*a)),
    ("call", Call, ("fn",), lambda a, fn: Call(_name(fn), a)),
    ("der", Der, (), lambda a: Der(*a)),
    ("rel", Rel, ("op",), lambda a, op: Rel(op, *a)),
    ("bool", BoolOp, ("op",), lambda a, op: BoolOp(op, a)),
    ("ite", ITE, (), lambda a: ITE(*a)),
    ("reduce", Reduce, ("family", "start", "count"),
     lambda a, family, *span: Reduce(*a, _name(family), *span)),
)
_ENCODE = {cls: (tag, fields) for tag, cls, fields, _ in _KINDS}
_DECODE = {tag: build for tag, _, _, build in _KINDS}


class ExprTable:
    """Encoder: the distinct nodes under any number of roots, once each."""

    def __init__(self) -> None:
        #: the JSON-compatible rows, children before parents
        self.rows: list[Any] = []
        self._index: dict[Expr, int] = {}

    def add(self, expr: Expr) -> int:
        """Write ``expr`` (sharing rows already present); return its row."""
        index, rows = self._index, self.rows
        stack = [expr]
        while stack:
            node = stack[-1]
            if node in index:
                stack.pop()
                continue
            pending = [c for c in node.args if c not in index]
            if pending:
                stack.extend(reversed(pending))
                continue
            stack.pop()
            index[node] = len(rows)
            tag, fields = _ENCODE[type(node)]
            rows.append([
                tag,
                [index[c] for c in node.args],
                *(getattr(node, f) for f in fields),
            ])
        return index[expr]


def _index_into(n: int, i: Any, what: str) -> int:
    # bool is an int and a negative index would wrap: both are malformed
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(f"{what} index {i!r} is not an int in [0, {n})")
    return i


def decode_nodes(rows: Any) -> list[Expr]:
    """Rebuild every row of a node table (re-canonicalising on the way in)."""
    if not isinstance(rows, list):
        raise ValueError("malformed node table: not a list of rows")
    nodes: list[Expr] = []
    for n, row in enumerate(rows):
        try:
            tag, kids, *fields = row
            children = [nodes[_index_into(n, i, "child")] for i in kids]
            nodes.append(_DECODE[tag](children, *fields))
        except (TypeError, KeyError):
            # unknown tag, wrong arity, a bool or string where a number
            # belongs: whatever the constructors refuse
            raise ValueError(f"malformed node row {n}: {row!r}") from None
    return nodes


def pick_roots(
    nodes: Sequence[Expr], roots: Any, expected: int
) -> tuple[Expr, ...]:
    """The decoded nodes a root list names (``expected`` = required length)."""
    if not isinstance(roots, list) or len(roots) != expected:
        raise ValueError(
            f"malformed root list: expected {expected} root(s), got {roots!r}"
        )
    return tuple(nodes[_index_into(len(nodes), i, "root")] for i in roots)


def expr_to_obj(expr: Expr) -> dict[str, Any]:
    """Convert an expression into a JSON-compatible single-root table."""
    table = ExprTable()
    return {"roots": [table.add(expr)], "nodes": table.rows}


def expr_from_obj(obj: Any) -> Expr:
    """Inverse of :func:`expr_to_obj` for a single-root table."""
    if not isinstance(obj, dict) or not {"nodes", "roots"} <= obj.keys():
        raise ValueError(f"malformed expression object: {obj!r}")
    return pick_roots(decode_nodes(obj["nodes"]), obj["roots"], 1)[0]


def dumps_expr(expr: Expr) -> str:
    return json.dumps(expr_to_obj(expr))


def loads_expr(text: str) -> Expr:
    return expr_from_obj(json.loads(text))


def system_to_obj(system, table: ExprTable | None = None) -> dict:
    """Serialise an :class:`~repro.codegen.transform.OdeSystem`.

    ``rhs`` is a root list; its rows go into ``table`` when the caller
    shares one with other roots (and stores ``table.rows`` itself),
    otherwise into the object's own ``"nodes"``.
    """
    standalone = table is None
    table = ExprTable() if standalone else table
    obj = {
        "name": system.name,
        "free_var": system.free_var,
        "state_names": list(system.state_names),
        "param_names": list(system.param_names),
        "rhs": [table.add(r) for r in system.rhs],
        "start_values": list(system.start_values),
        "param_values": list(system.param_values),
    }
    if standalone:
        obj["nodes"] = table.rows
    return obj


def system_from_obj(obj: dict, nodes: Sequence[Expr] | None = None):
    """Inverse of :func:`system_to_obj` (``nodes`` = the decoded shared
    table, when there is one)."""
    from ..codegen.transform import OdeSystem

    nodes = decode_nodes(obj["nodes"]) if nodes is None else nodes
    state_names = tuple(obj["state_names"])
    param_names = tuple(obj["param_names"])
    start_values = tuple(float(v) for v in obj["start_values"])
    param_values = tuple(float(v) for v in obj["param_values"])
    if len(start_values) != len(state_names) or len(param_values) != len(
        param_names
    ):
        raise ValueError("system values do not match the declared names")
    return OdeSystem(
        name=obj["name"],
        free_var=obj["free_var"],
        state_names=state_names,
        param_names=param_names,
        rhs=pick_roots(nodes, obj["rhs"], len(state_names)),
        start_values=start_values,
        param_values=param_values,
    )

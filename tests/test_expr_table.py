"""The node-table encoding of expression DAGs (``symbolic/serialize.py``)
and the things built on it: the model fingerprint and the per-node
tree-size and operation-count memos."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.apps import BearingParams, build_bearing2d, build_servo
from repro.compiler import flat_model_to_obj, model_fingerprint
from repro.symbolic import (
    Call,
    Sym,
    add,
    count_nodes,
    intern_cache_clear,
    mul,
    op_count,
    op_histogram,
    postorder,
    preorder,
)
from repro.symbolic.serialize import (
    ExprTable,
    decode_nodes,
    expr_from_obj,
    expr_to_obj,
    pick_roots,
)

from .strategies import structural_expressions


def _through_json(obj):
    return json.loads(json.dumps(obj))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(structural_expressions())
    def test_decode_returns_the_interned_node(self, expr):
        # ``expr`` may predate an intern_cache_clear() elsewhere in the
        # suite; ``fresh`` is interned in the table that is live now
        fresh = expr_from_obj(_through_json(expr_to_obj(expr)))
        assert fresh == expr
        assert expr_from_obj(_through_json(expr_to_obj(fresh))) is fresh

    @settings(max_examples=100, deadline=None)
    @given(structural_expressions(), structural_expressions())
    def test_roots_share_one_table(self, a, b):
        roots = [a, b, add(a, b), mul(a, b), a]
        table = ExprTable()
        index = [table.add(r) for r in roots]
        distinct = {n for r in roots for n in postorder(r)}
        assert len(table.rows) == len(distinct)
        assert index[0] == index[4]
        nodes = decode_nodes(_through_json(table.rows))
        assert pick_roots(nodes, index, len(roots)) == tuple(roots)
        # post-order: a row only ever names earlier rows
        for n, row in enumerate(table.rows):
            assert all(child < n for child in row[1])

    def test_deep_chain_round_trips(self):
        expr = Sym("x")
        for _ in range(5000):
            expr = Call("sin", [expr])
        obj = _through_json(expr_to_obj(expr))
        assert len(obj["nodes"]) == 5001
        assert expr_from_obj(obj) is expr
        assert count_nodes(expr) == 5001

    def test_encoding_is_a_function_of_structure_not_identity(self):
        def build():
            x, y = Sym("x"), Sym("y")
            shared = Call("sin", [x * y])
            return shared + shared**2 + x

        first = build()
        before = expr_to_obj(first)
        intern_cache_clear()
        second = build()
        assert second is not first and second == first
        assert expr_to_obj(second) == before
        # a table fed equal nodes of both generations writes each once
        table = ExprTable()
        assert table.add(first) == table.add(second)
        assert table.rows == before["nodes"]


X, Y = ["sym", [], "x"], ["sym", [], "y"]


class TestDecoderRejects:
    NODES = [X, Y, ["add", [0, 1]]]

    @pytest.mark.parametrize("rows", [
        [X, ["add", [0, 2]], Y],              # forward
        [X, ["add", [0, 1]]],                 # itself
        [X, Y, ["add", [0, -1]]],             # negative: must not wrap
        [X, Y, ["add", [0, 1.0]]],            # float
        [X, Y, ["add", [0, True]]],           # bool is not an index
        [X, Y, ["add", [0, "1"]]],
        [X, Y, ["add", [0, 7]]],              # out of range
        [X, ["const", [], True]],             # bool constant
        [X, ["const", [], "1"]],
        [X, ["const", [0], 1]],               # a leaf with a child
        [X, ["sym", [], 3]],
        [X, ["sym", [], ""]],
        [X, ["frobnicate", [0]]],             # unknown tag
        [X, ["add"]],                         # no child list
        [X, ["add", 0]],                      # children not a list
        [X, ["pow", [0]]],                    # wrong arity
        [X, ["call", [0]]],                   # missing function name
        [X, ["call", [0], 7]],
        [X, ["rel", [0, 0], "<>"]],           # unknown operator
        [X, ["reduce", [0], "W", 0, 0]],      # count < 1
        [X, ["reduce", [0], "W", 0]],
        [X, None],
        [X, "y"],
        [X, 1],
        "x",
        {"0": X},
    ])
    def test_malformed_table(self, rows):
        with pytest.raises(ValueError):
            decode_nodes(rows)

    @pytest.mark.parametrize("roots, expected", [
        ([3], 1), ([-1], 1), ([2.0], 1), ([True], 1), (["2"], 1),
        ([2], 2), ([2, 2], 1), ([], 1), (2, 1), (None, 0),
    ])
    def test_malformed_roots(self, roots, expected):
        nodes = decode_nodes(self.NODES)
        with pytest.raises(ValueError):
            pick_roots(nodes, roots, expected)

    def test_single_root_object(self):
        x, y = Sym("x"), Sym("y")
        assert expr_from_obj({"nodes": self.NODES, "roots": [2]}) is x + y
        for bad in ({"nodes": self.NODES}, {"roots": [0]},
                    {"nodes": self.NODES, "roots": [0, 1]}, 3, "x"):
            with pytest.raises(ValueError):
                expr_from_obj(bad)


class TestFingerprint:
    def test_unchanged_by_intern_cache_clear(self):
        before = model_fingerprint(build_servo().flatten())
        intern_cache_clear()
        assert model_fingerprint(build_servo().flatten()) == before

    def test_array_and_scalar_flat_models_differ(self):
        model = build_bearing2d(BearingParams(num_rollers=4))
        scalar, array = model.flatten(), model.flatten(mode="array")
        assert model_fingerprint(scalar) != model_fingerprint(array)
        # the canonical form follows the description, not its expansion
        assert len(flat_model_to_obj(array)["nodes"]) < \
            len(flat_model_to_obj(scalar)["nodes"])


class TestNodeSizeMemo:
    @settings(max_examples=150, deadline=None)
    @given(structural_expressions())
    def test_count_nodes_is_the_tree_size(self, expr):
        assert count_nodes(expr) == sum(1 for _ in preorder(expr))

    @settings(max_examples=150, deadline=None)
    @given(structural_expressions())
    def test_op_count_is_the_tree_walk_total(self, expr):
        total = op_histogram(expr).total
        assert op_count(expr) == total
        # the memo lives on the node: a cleared intern table neither loses
        # it nor leaks it into the equal nodes built afterwards
        intern_cache_clear()
        assert op_count(expr) == total
        rebuilt = expr_from_obj(expr_to_obj(expr))
        assert rebuilt == expr and op_count(rebuilt) == total
        assert op_count(add(rebuilt, expr)) == op_histogram(
            add(rebuilt, expr)
        ).total

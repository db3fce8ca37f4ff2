"""Generated analytic Jacobians in every back end (section 3.2.1)."""

import re

import numpy as np
import pytest

from repro.apps import (
    Bearing3dParams,
    BearingParams,
    build_bearing2d,
    build_bearing3d,
    build_servo,
)
from repro.codegen import (
    generate_c,
    generate_c_tasks,
    generate_fortran,
    generate_numpy,
    generate_program,
    generate_python,
)
from repro.codegen import gen_python
from repro.codegen.tasks import partition_tasks
from repro.codegen.transform import make_ode_system
from repro.compiler import passes
from repro.compiler.context import CompileOptions
from repro.compiler.passes import compile_context
from repro.solver import jacobian_sparsity
from repro.symbolic import Sym, cos, free_symbols, mul, sin
from repro.symbolic.diff import diff, jacobian_entries
from repro.symbolic.simplify import simplify


class TestFortranJacobian:
    def test_structure(self, compiled_servo):
        f90 = generate_fortran(compiled_servo.system, mode="serial",
                               jacobian=True)
        assert "subroutine JAC(t, yin, p, dfdy)" in f90.source
        assert "dfdy = 0.0_dp" in f90.source
        assert "end subroutine JAC" in f90.source

    def test_entries_match_python_jacobian(self, compiled_servo):
        program = generate_program(compiled_servo.system, jacobian=True)
        jac = program.make_jac()
        J = jac(0.0, program.start_vector())
        f90 = generate_fortran(compiled_servo.system, mode="serial",
                               jacobian=True)
        # Parse constant entries dfdy(i,j) = value out of the source
        # (the servo Jacobian is constant, so this is exact).
        pattern = re.compile(
            r"dfdy\((\d+),(\d+)\) = \(?(-?[0-9.]+)_dp\)?"
        )
        found = {}
        for i, j, value in pattern.findall(f90.source):
            found[(int(i) - 1, int(j) - 1)] = float(value)
        assert found, "no Jacobian entries emitted"
        for (i, j), value in found.items():
            assert J[i, j] == pytest.approx(value)
        # All nonzeros covered.
        nonzero = {(i, j) for i, j in zip(*np.nonzero(J))}
        assert nonzero == set(found)

    def test_without_flag_absent(self, compiled_servo):
        f90 = generate_fortran(compiled_servo.system, mode="serial")
        assert "subroutine JAC" not in f90.source


class TestCJacobian:
    def test_structure_and_values(self, compiled_servo):
        c = generate_c(compiled_servo.system, mode="serial", jacobian=True)
        assert "void JAC(double t" in c.source
        program = generate_program(compiled_servo.system, jacobian=True)
        J = program.make_jac()(0.0, program.start_vector())
        n = compiled_servo.system.num_states
        pattern = re.compile(r"dfdy\[(\d+)\] = \(?(-?[0-9.]+)\)?;")
        found = {}
        for flat_idx, value in pattern.findall(c.source):
            k = int(flat_idx)
            found[(k // n, k % n)] = float(value)
        assert found
        for (i, j), value in found.items():
            assert J[i, j] == pytest.approx(value)

    def test_nonlinear_model_compiles(self, compiled_small_bearing):
        # Just structural: the bearing Jacobian has CSE temps and
        # conditionals; generation must not crash and must emit entries.
        c = generate_c(compiled_small_bearing.system, mode="serial",
                       jacobian=True)
        assert c.source.count("dfdy[") > 50
        f90 = generate_fortran(compiled_small_bearing.system, mode="serial",
                               jacobian=True)
        assert f90.source.count("dfdy(") > 50


# -- the one derivation: a forward sweep against the per-pair oracle ----------


def per_pair_entries(rhs, state_names):
    """The derivation the sweep replaced, one ``diff`` per structural pair
    (same signature as :func:`jacobian_entries`)."""
    entries = []
    for i, expr in enumerate(rhs):
        depends_on = {s.name for s in free_symbols(expr)}
        for j, state in enumerate(state_names):
            if state in depends_on:
                d = simplify(diff(expr, Sym(state)))
                if not d.is_zero:
                    entries.append((i, j, d))
    return entries


@pytest.fixture(scope="module")
def bearing3d_system():
    return make_ode_system(
        build_bearing3d(
            Bearing3dParams(num_rollers=4, contact_harmonics=2)
        ).flatten()
    )


@pytest.fixture(scope="module", params=[
    "servo", "powerplant", "bearing2d", "bearing3d",
])
def app_system(request, compiled_servo, compiled_powerplant,
               compiled_small_bearing, bearing3d_system):
    return {
        "servo": compiled_servo.system,
        "powerplant": compiled_powerplant.system,
        "bearing2d": compiled_small_bearing.system,
        "bearing3d": bearing3d_system,
    }[request.param]


def assert_same_entries(new, old):
    assert [(i, j) for i, j, _ in new] == [(i, j) for i, j, _ in old]
    assert all(a is b for (_, _, a), (_, _, b) in zip(new, old))


class TestForwardSweep:
    def test_identical_to_the_per_pair_loop(self, app_system):
        new = jacobian_entries(app_system.rhs, app_system.state_names)
        assert new
        assert_same_entries(
            new, per_pair_entries(app_system.rhs, app_system.state_names)
        )

    def test_identical_on_bearing2d_32(self):
        system = make_ode_system(
            build_bearing2d(BearingParams(num_rollers=32)).flatten()
        )
        new = jacobian_entries(system.rhs, system.state_names)
        assert_same_entries(
            new, per_pair_entries(system.rhs, system.state_names)
        )
        assert len(new) > 1000

    def test_pattern_within_structural_sparsity(self, app_system):
        pattern = jacobian_sparsity(app_system)
        entries = jacobian_entries(app_system.rhs, app_system.state_names)
        assert all(pattern[i, j] for i, j, _ in entries)
        # (i, j) order, no duplicates
        assert [(i, j) for i, j, _ in entries] == sorted(
            {(i, j) for i, j, _ in entries}
        )

    def test_printers_emit_the_same_text_as_before(
        self, app_system, monkeypatch
    ):
        system = app_system
        plan = partition_tasks(system)

        def emit():
            return [
                generate_python(system, plan, jacobian=True).source,
                generate_numpy(system, plan, jacobian=True).source,
                generate_c_tasks(system, plan, jacobian=True).source,
                generate_fortran(system, plan, jacobian=True).source,
            ]

        swept = emit()
        monkeypatch.setattr(gen_python, "jacobian_entries", per_pair_entries)
        assert emit() == swept

    def test_codegen_pass_derives_once_for_every_backend(self, monkeypatch):
        derived = []

        def counting(rhs, state_names):
            derived.append(len(rhs))
            return jacobian_entries(rhs, state_names)

        def refuse(rhs, state_names):
            raise AssertionError("a printer derived the Jacobian again")

        monkeypatch.setattr(passes, "jacobian_entries", counting)
        monkeypatch.setattr(gen_python, "jacobian_entries", refuse)
        ctx = compile_context(
            model=build_servo(),
            options=CompileOptions(backend="numpy", jacobian=True),
        )
        assert derived == [ctx.system.num_states]
        assert ctx.metrics["jac_nonzeros"] == len(
            jacobian_entries(ctx.system.rhs, ctx.system.state_names)
        )
        assert "JAC(" in ctx.module.source
        assert "JAC_V(" in ctx.vector_module.source

    def test_entries_passed_in_are_printed_as_given(self, compiled_servo):
        system = compiled_servo.system
        entries = jacobian_entries(system.rhs, system.state_names)
        assert generate_c_tasks(
            system, jacobian=True, jac_entries=entries[:1]
        ).jac_nnz == 1

    def test_deep_chain_derives_without_recursion_error(self):
        # 3 000 nested sin calls: the recursive diff walk needs a frame
        # per level and stops at the interpreter's recursion limit.
        x, y = Sym("x"), Sym("y")
        chain = x
        for _ in range(3000):
            # ``+ 0`` returns the same node; canonicalising it fills in the
            # node's sort key while its child's is known, so the (recursive)
            # key of the whole chain is never computed in one go.
            chain = sin(chain) + 0
        with pytest.raises(RecursionError):
            diff(y * chain, y)
        assert jacobian_entries([y * chain], ["y"]) == [(0, 0, chain)]

    def test_chain_rule_through_a_deep_chain(self):
        # The state at the bottom of 400 levels (1 600 frames of the
        # recursive walk): the derivative is the product of every level's
        # partial.  Each level has its own coefficient because a bare sin
        # chain makes the canonical product sort compare keys as deep as
        # the chain, at a cost quadratic in the depth per comparison.
        u, factors = Sym("x"), []
        for k in range(400):
            p = Sym(f"p{k:03d}")
            factors += [p, cos(p * u)]
            u = sin(p * u)
        assert jacobian_entries([u], ["x"]) == [(0, 0, mul(*factors))]

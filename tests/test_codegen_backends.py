"""Back-end tests: generated Python numerics, Fortran/C artifacts, start
files, and the program facade."""

import io
import math

import numpy as np
import pytest

from repro.codegen import (
    apply_start_file,
    generate_c,
    generate_fortran,
    generate_program,
    generate_python,
    make_ode_system,
    partition_tasks,
    read_start_file,
    write_start_file,
)
from repro.codegen.gen_python import NameTable
from repro.codegen.native import find_compiler
from repro.codegen.transform import OdeSystem
from repro.model import Model, ModelClass
from repro.schedule import lpt_schedule
from repro.symbolic import evaluate
from repro.symbolic.builders import abs_, exp, min_, sin, sqrt
from repro.symbolic.expr import Sym


class TestNameTable:
    def test_sanitisation(self):
        names = NameTable()
        assert names("W1.F.x") == "W1_F_x"
        assert names("part:state:0") == "part_state_0"

    def test_stability(self):
        names = NameTable()
        assert names("a.b") == names("a.b")

    def test_collision_avoidance(self):
        names = NameTable()
        first = names("a.b")
        second = names("a_b")
        assert first != second

    def test_reserved_names_avoided(self):
        names = NameTable()
        assert names("t") != "t"
        assert names("y") != "y"

    def test_keyword_suffixed(self):
        names = NameTable()
        assert names("lambda") == "lambda_"

    def test_leading_digit(self):
        names = NameTable()
        assert names("0weird")[0].isalpha() or names("0weird")[0] == "v"


class TestGeneratedPython:
    def test_rhs_matches_reference_evaluation(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        system = compiled_small_bearing.system
        rng = np.random.default_rng(42)
        p = program.param_vector()
        param_env = dict(zip(system.param_names, p))
        for _ in range(5):
            y = program.start_vector() + rng.normal(0, 1e-4, system.num_states)
            out = program.rhs(0.37, y, p)
            env = {**param_env, **dict(zip(system.state_names, y)), "t": 0.37}
            for i, rhs in enumerate(system.rhs):
                assert out[i] == pytest.approx(
                    evaluate(rhs, env), rel=1e-9, abs=1e-9
                ), system.state_names[i]

    def test_tasks_match_serial_rhs(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        rng = np.random.default_rng(7)
        p = program.param_vector()
        for _ in range(3):
            y = program.start_vector() + rng.normal(0, 1e-4, program.num_states)
            serial = program.rhs(0.0, y, p)
            res = program.results_buffer()
            from repro.runtime import dependency_levels

            for level in dependency_levels(program.task_graph):
                for tid in level:
                    program.eval_task(tid, 0.0, y, p, res)
            assert np.allclose(res[: program.num_states], serial,
                               rtol=1e-12, atol=1e-12)

    def test_jacobian_matches_finite_difference(self, compiled_servo):
        program = compiled_servo.program
        jac = program.make_jac()
        f = program.make_rhs()
        y = program.start_vector() + 0.1
        J = jac(0.0, y)
        n = program.num_states
        h = 1e-7
        for j in range(n):
            yp = y.copy()
            yp[j] += h
            col = (f(0.0, yp) - f(0.0, y)) / h
            assert np.allclose(J[:, j], col, rtol=1e-4, atol=1e-5)

    def test_start_and_params_functions(self, compiled_small_bearing):
        program = compiled_small_bearing.program
        system = compiled_small_bearing.system
        assert program.start_vector() == pytest.approx(
            np.array(system.start_values)
        )
        assert program.param_vector() == pytest.approx(
            np.array(system.param_values)
        )

    def test_cse_counts_recorded(self, compiled_bearing):
        module = compiled_bearing.program.module
        # Per-task CSE cannot share across tasks, so it extracts at least
        # as many temporaries as global CSE (section 3.3's effect).
        assert module.num_cse_parallel >= module.num_cse_serial > 0

    def test_module_source_is_importable_text(self, compiled_small_bearing):
        source = compiled_small_bearing.program.module.source
        compiled = compile(source, "<test>", "exec")
        assert compiled is not None


class TestFortran:
    def test_figure11_artifact_shape(self, oscillator_model):
        system = make_ode_system(oscillator_model.flatten())
        plan = partition_tasks(system, group_threshold=0.0,
                               split_threshold=float("inf"))
        f90 = generate_fortran(system, plan)
        assert "subroutine RHS(workerid, t, yin, p, yout)" in f90.source
        assert "select case (workerid)" in f90.source
        assert "dot = " in f90.source  # derivatives become *dot variables
        assert "end subroutine RHS" in f90.source
        assert "subroutine START(y0)" in f90.source

    def test_serial_mode_no_cases(self, oscillator_model):
        system = make_ode_system(oscillator_model.flatten())
        f90 = generate_fortran(system, mode="serial")
        assert "select case" not in f90.source
        assert "subroutine RHS(t, yin, p, yout)" in f90.source

    def test_schedule_merges_cases(self, compiled_small_bearing):
        system = compiled_small_bearing.system
        plan = compiled_small_bearing.program.plan
        schedule = lpt_schedule(plan.graph, 2)
        f90 = generate_fortran(system, plan, schedule=schedule)
        # one `case (k)` per worker ("select case (workerid)" excluded)
        assert f90.source.count("\n  case (") == 2

    def test_parallel_cse_exceeds_serial(self, compiled_bearing):
        system = compiled_bearing.system
        plan = compiled_bearing.program.plan
        par = generate_fortran(system, plan, mode="parallel")
        ser = generate_fortran(system, plan, mode="serial")
        assert par.num_cse >= ser.num_cse
        assert par.num_lines > ser.num_lines
        assert par.num_declaration_lines > 0

    def test_mode_validation(self, oscillator_model):
        system = make_ode_system(oscillator_model.flatten())
        with pytest.raises(ValueError):
            generate_fortran(system, mode="hpf")


class TestC:
    def test_parallel_switch(self, oscillator_model):
        system = make_ode_system(oscillator_model.flatten())
        plan = partition_tasks(system, group_threshold=0.0,
                               split_threshold=float("inf"))
        c = generate_c(system, plan)
        assert "switch (workerid)" in c.source
        assert "#include <math.h>" in c.source
        assert c.source.count("case ") == plan.num_tasks

    def test_serial_straight_line(self, oscillator_model):
        system = make_ode_system(oscillator_model.flatten())
        c = generate_c(system, mode="serial")
        assert "switch" not in c.source

    def test_no_duplicate_declarations_per_case(self, compiled_small_bearing):
        system = compiled_small_bearing.system
        plan = compiled_small_bearing.program.plan
        schedule = lpt_schedule(plan.graph, 2)
        c = generate_c(system, plan, schedule=schedule)
        # Within each case block, each const double is declared once.
        for block in c.source.split("case ")[1:]:
            body = block.split("break;")[0]
            names = [
                line.split("=")[0].strip().rsplit(" ", 1)[-1]
                for line in body.splitlines()
                if line.strip().startswith("const double")
            ]
            assert len(names) == len(set(names)), block[:200]


class TestStartFiles:
    def test_roundtrip(self, oscillator_model, tmp_path):
        system = make_ode_system(oscillator_model.flatten())
        path = tmp_path / "start.txt"
        write_start_file(system, path)
        values = read_start_file(path)
        assert values["A.x"] == 1.0
        assert values["B.k"] == 9.0

    def test_apply_overrides(self, oscillator_model):
        system = make_ode_system(oscillator_model.flatten())
        y0, params = apply_start_file(system, {"A.x": 5.0, "A.k": 100.0})
        assert y0[system.state_index("A.x")] == 5.0
        assert dict(zip(system.param_names, params))["A.k"] == 100.0

    def test_unknown_name_strict(self, oscillator_model):
        system = make_ode_system(oscillator_model.flatten())
        with pytest.raises(KeyError):
            apply_start_file(system, {"ghost": 1.0})
        y0, _ = apply_start_file(system, {"ghost": 1.0}, strict=False)
        assert len(y0) == 4

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="name = value"):
            read_start_file(io.StringIO("garbage line\n"))
        with pytest.raises(ValueError, match="bad number"):
            read_start_file(io.StringIO("x = notanumber\n"))
        with pytest.raises(ValueError, match="duplicate"):
            read_start_file(io.StringIO("x = 1\nx = 2\n"))

    def test_comments_and_blanks(self):
        values = read_start_file(
            io.StringIO("# header\n\nx = 1.5  # inline\n")
        )
        assert values == {"x": 1.5}


class TestProgramFacade:
    def test_make_rhs_closure(self, compiled_servo):
        f = compiled_servo.program.make_rhs()
        y = compiled_servo.program.start_vector()
        out = f(0.0, y)
        assert out.shape == y.shape

    def test_custom_params(self, oscillator_model):
        system = make_ode_system(oscillator_model.flatten())
        program = generate_program(system)
        p = program.param_vector()
        p[list(system.param_names).index("A.k")] = 100.0
        f = program.make_rhs(p)
        y = np.array([1.0, 0.0, 0.0, 0.0])
        out = f(0.0, y)
        assert out[system.state_index("A.v")] == pytest.approx(-100.0)

    def test_no_jacobian_by_default(self, compiled_small_bearing):
        assert compiled_small_bearing.program.make_jac() is None


#: a model name that the generated text must not hand out (a function it
#: calls, or a C keyword), and an RHS that uses it
SHADOWING = {
    "exp": (lambda s: -exp(s), lambda v: -math.exp(v)),
    "sin": (lambda s: -sin(s), lambda v: -math.sin(v)),
    "min": (lambda s: min_(s, 0.25), lambda v: min(v, 0.25)),
    "abs": (lambda s: -abs_(s), lambda v: -abs(v)),
    "sqrt": (lambda s: -sqrt(s), lambda v: -math.sqrt(v)),
    # not a function, but a name C cannot take
    "double": (lambda s: -s, lambda v: -v),
}


@pytest.mark.parametrize("backend", ["python", "numpy", "c"])
@pytest.mark.parametrize("name", sorted(SHADOWING))
def test_a_name_never_shadows_a_function(name, backend):
    if backend == "c" and find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    build, value = SHADOWING[name]
    # the parameter is named like the generated code's own helper
    system = OdeSystem(
        name="shadow", free_var="t", state_names=(name,),
        param_names=("sign",), rhs=(build(Sym(name)) * Sym("sign"),),
        start_values=(0.5,), param_values=(1.0,),
    )
    program = generate_program(system, backend=backend)
    assert program.backend == backend
    assert program.native_fallback_reason is None
    y = np.array([0.5])
    assert program.make_rhs()(0.0, y)[0] == value(0.5)
    if backend == "numpy":
        batch = program.make_rhs_batch()(0.0, np.array([[0.5], [0.25]]))
        assert batch[:, 0].tolist() == [value(0.5), value(0.25)]

"""Tests for the extension features: visualization, model reduction,
sparse Jacobian coloring, serialization, and the CLI."""

import json
import math

import numpy as np
import pytest

from repro.analysis import (
    ascii_graph,
    build_dependency_graph,
    partition,
    partition_to_dot,
    reachable_variables,
    reduce_model,
    to_dot,
)
from repro.codegen import generate_program, make_ode_system
from repro.solver import (
    ColoredFiniteDifferenceJacobian,
    FiniteDifferenceJacobian,
    color_columns,
    jacobian_sparsity,
    solve_ivp,
)
from repro.symbolic import Sym, evaluate, sin, symbols
from repro.symbolic.serialize import (
    dumps_expr,
    expr_from_obj,
    expr_to_obj,
    loads_expr,
    system_from_obj,
    system_to_obj,
)

x, y, z = symbols("x y z")


class TestVisualization:
    def test_to_dot_structure(self, oscillator_model):
        var_g, _, _ = build_dependency_graph(oscillator_model.flatten())
        dot = to_dot(var_g)
        assert dot.startswith("digraph")
        assert '"A.x" -> "A.v";' in dot
        assert dot.rstrip().endswith("}")

    def test_partition_to_dot_clusters(self, servo_model):
        part = partition(servo_model.flatten())
        dot = partition_to_dot(part)
        assert dot.count("subgraph cluster_") == part.num_subsystems
        assert "lhead=" in dot  # inter-cluster edges present

    def test_ascii_graph(self, oscillator_model):
        var_g, _, _ = build_dependency_graph(oscillator_model.flatten())
        text = ascii_graph(var_g)
        assert "A.x -> A.v" in text

    def test_dot_escaping(self):
        from repro.analysis.depgraph import DiGraph

        g = DiGraph()
        g.add_edge('we"ird', "ok")
        dot = to_dot(g)
        assert '\\"' in dot


class TestReduction:
    def test_bearing_phi_removed(self, small_bearing_model):
        flat = small_bearing_model.flatten()
        reduced, report = reduce_model(flat, ["Ir.w"])
        assert "Ir.phi" in report.removed
        assert reduced.num_states == flat.num_states - 1
        # Everything else feeds back into the big SCC, so it stays.
        assert len(report.removed) == 1

    def test_reduced_model_still_compiles_and_agrees(
        self, small_bearing_model
    ):
        flat = small_bearing_model.flatten()
        reduced, _ = reduce_model(flat, ["Ir.w"])
        full = generate_program(make_ode_system(flat))
        small = generate_program(make_ode_system(reduced))
        yf = full.start_vector()
        ys = small.start_vector()
        out_full = full.rhs(0.0, yf, full.param_vector())
        out_small = small.rhs(0.0, ys, small.param_vector())
        iw_full = full.system.state_index("Ir.w")
        iw_small = small.system.state_index("Ir.w")
        assert out_full[iw_full] == pytest.approx(out_small[iw_small])

    def test_chain_reduction(self, servo_model):
        flat = servo_model.flatten()
        # Only the reference shaper matters for its own output.
        reduced, report = reduce_model(flat, ["Ref.ref"])
        assert set(reduced.states) == {"Ref.ref"}
        assert "Servo.theta" in report.removed

    def test_reachability(self, servo_model):
        flat = servo_model.flatten()
        keep = reachable_variables(flat, ["Sensor.meas"])
        # The sensor depends on everything upstream.
        assert "Ref.ref" in keep
        assert "Servo.theta" in keep

    def test_unknown_output_rejected(self, servo_model):
        with pytest.raises(KeyError):
            reduce_model(servo_model.flatten(), ["ghost"])

    def test_unused_parameters_pruned(self, oscillator_model):
        flat = oscillator_model.flatten()
        reduced, _ = reduce_model(flat, ["A.x"])
        assert "A.k" in reduced.parameters
        assert "B.k" not in reduced.parameters


class TestSparseJacobian:
    def test_sparsity_pattern(self, compiled_servo):
        pattern = jacobian_sparsity(compiled_servo.system)
        names = compiled_servo.system.state_names
        i_theta = names.index("Servo.theta")
        i_omega = names.index("Servo.omega")
        assert pattern[i_theta, i_omega]  # theta' = omega
        i_ref = names.index("Ref.ref")
        assert not pattern[i_ref, i_theta]  # shaper ignores the servo

    def test_coloring_valid(self):
        rng = np.random.default_rng(3)
        pattern = rng.random((30, 30)) < 0.15
        np.fill_diagonal(pattern, True)
        colors = color_columns(pattern)
        # Columns with a shared row never share a color.
        for a in range(30):
            for b in range(a + 1, 30):
                if colors[a] == colors[b]:
                    assert not np.any(pattern[:, a] & pattern[:, b])

    def test_tridiagonal_needs_three_colors(self):
        n = 50
        pattern = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in (i - 1, i, i + 1):
                if 0 <= j < n:
                    pattern[i, j] = True
        colors = color_columns(pattern)
        assert colors.max() + 1 == 3

    def test_colored_matches_dense(self, compiled_powerplant):
        system = compiled_powerplant.system
        f = compiled_powerplant.program.make_rhs()
        colored = ColoredFiniteDifferenceJacobian(f, system)
        dense = FiniteDifferenceJacobian(f, system.num_states)
        y0 = compiled_powerplant.program.start_vector() + 0.01
        f0 = f(0.0, y0)
        J_c = colored(0.0, y0, f0)
        J_d = dense(0.0, y0, f0)
        assert np.allclose(J_c, J_d, rtol=1e-6, atol=1e-8)
        assert colored.num_colors < system.num_states
        assert colored.rhs_evals_per_call == colored.num_colors

    def test_usable_by_bdf(self, compiled_powerplant):
        program = compiled_powerplant.program
        f = program.make_rhs()
        jac = ColoredFiniteDifferenceJacobian(f, compiled_powerplant.system)
        r = solve_ivp(f, (0.0, 100.0), program.start_vector(),
                      method="bdf", rtol=1e-6, atol=1e-9, jac=jac)
        assert r.success


class TestSerialize:
    def test_expr_roundtrip(self):
        e = sin(x * y) + (x + 2) ** 3 / (z + 5)
        rebuilt = loads_expr(dumps_expr(e))
        assert rebuilt == e

    def test_conditional_roundtrip(self):
        from repro.symbolic import if_then_else

        e = if_then_else(x.gt(0), x, -x)
        assert loads_expr(dumps_expr(e)) == e

    def test_der_and_bool_roundtrip(self):
        from repro.symbolic import BoolOp, Der, Rel

        e = BoolOp("and", [Rel("<", x, y), Rel("!=", y, z)])
        assert expr_from_obj(expr_to_obj(e)) == e
        assert expr_from_obj(expr_to_obj(Der(x))) == Der(x)

    def test_system_roundtrip(self, compiled_servo):
        obj = system_to_obj(compiled_servo.system)
        text = json.dumps(obj)
        system = system_from_obj(json.loads(text))
        assert system.state_names == compiled_servo.system.state_names
        assert system.rhs == compiled_servo.system.rhs
        # The reloaded system regenerates identical code.
        program = generate_program(system)
        y0 = program.start_vector()
        expected = compiled_servo.program.rhs(
            0.0, y0, program.param_vector()
        )
        assert np.allclose(
            program.rhs(0.0, y0, program.param_vector()), expected
        )

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            expr_from_obj({"wat": 1})
        with pytest.raises(ValueError):
            expr_from_obj(True)
        with pytest.raises(ValueError):
            expr_from_obj([1, 2])


_CLI_MODEL = """
MODEL cli_t;
CLASS Osc
  STATE x := 1.0;
  STATE v := 0.0;
  PARAMETER k := 4.0;
  EQUATION Eq[1] := der(x) == v;
  EQUATION Eq[2] := der(v) == -k * x;
END Osc;
INSTANCE A INHERITS Osc;
END cli_t;
"""


class TestCli:
    @pytest.fixture()
    def model_file(self, tmp_path):
        path = tmp_path / "model.om"
        path.write_text(_CLI_MODEL)
        return str(path)

    def test_analyze(self, model_file, capsys):
        from repro.cli import main

        assert main(["analyze", model_file]) == 0
        out = capsys.readouterr().out
        assert "model cli_t" in out
        assert "SCC" in out

    def test_simulate_json(self, model_file, capsys):
        from repro.cli import main

        assert main([
            "simulate", model_file, "--t-end", "3.141592653589793",
            "--method", "rk45", "--rtol", "1e-9", "--atol", "1e-12",
            "--json",
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["y"]["A.x"] == pytest.approx(math.cos(2 * math.pi),
                                                    abs=1e-6)

    def test_codegen_to_file(self, model_file, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "rhs.f90"
        assert main([
            "codegen", model_file, "-t", "f90", "-o", str(out_path)
        ]) == 0
        assert "subroutine RHS" in out_path.read_text()

    def test_graph(self, model_file, capsys):
        from repro.cli import main

        assert main(["graph", model_file]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_startfile_roundtrip(self, model_file, tmp_path, capsys):
        from repro.cli import main

        start = tmp_path / "s.start"
        assert main(["startfile", model_file, "-o", str(start)]) == 0
        text = start.read_text().replace("A.x = 1.0", "A.x = 0.25")
        start.write_text(text)
        assert main([
            "simulate", model_file, "--t-end", "3.141592653589793",
            "--method", "rk45", "--rtol", "1e-9", "--atol", "1e-12",
            "--start-file", str(start), "--json",
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["y"]["A.x"] == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("command", [
        ["simulate", "--t-end", "0.5", "--json"],
        ["graph"],
        ["codegen", "-t", "c"],
    ], ids=lambda c: c[0])
    def test_repeat_run_with_cache_dir_parses_nothing(
        self, model_file, tmp_path, capsys, monkeypatch, command
    ):
        import repro.language
        from repro.cli import main

        parses = []
        load_model = repro.language.load_model
        monkeypatch.setattr(repro.language, "load_model",
                            lambda *a: parses.append(a) or load_model(*a))
        argv = [command[0], model_file, *command[1:],
                "--cache-dir", str(tmp_path / "cache")]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            outs.append(out[out.find("{"):] if "--json" in argv else out)
        assert len(parses) == 1  # the second run hit the source alias
        assert outs[0] == outs[1]

    def test_analyze_with_cache_dir(self, model_file, tmp_path, capsys):
        from repro.cli import main

        argv = ["analyze", model_file, "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0 and main(argv) == 0
        first, second = capsys.readouterr().out.split("model cli_t")[1:]
        # the timing line of the summary differs, nothing else
        assert ([l for l in first.splitlines() if "ms" not in l]
                == [l for l in second.splitlines() if "ms" not in l])
        assert any(p.suffix == ".json" for p in (tmp_path / "c").iterdir())

    def test_missing_file_error(self, capsys):
        from repro.cli import main

        assert main(["analyze", "/nonexistent/model.om"]) == 2
        assert "error" in capsys.readouterr().err


class TestCliExportApp:
    def test_export_roundtrips_through_pipeline(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "servo.om"
        assert main(["export-app", "servo", "-o", str(out)]) == 0
        assert main(["analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "model servo" in text

    def test_export_to_stdout(self, capsys):
        from repro.cli import main

        assert main(["export-app", "powerplant"]) == 0
        out = capsys.readouterr().out
        assert "MODEL powerplant;" in out
        assert out.count("INHERITS TurbineGroup") == 6

    def test_unknown_app(self, capsys):
        from repro.cli import main

        with __import__("pytest").raises(SystemExit):
            main(["export-app", "nope"])


class TestShippedModelFiles:
    """The exported .om files in examples/models/ must stay in sync with
    the programmatic app builders."""

    @pytest.mark.parametrize("name", ["servo", "powerplant", "bearing2d"])
    def test_file_compiles_and_matches_builder(self, name):
        from pathlib import Path

        from repro.apps import (
            build_bearing2d,
            build_powerplant,
            build_servo,
        )
        from repro.frontend import compile_source

        path = Path(__file__).parent.parent / "examples" / "models" / f"{name}.om"
        compiled = compile_source(path.read_text())
        builders = {
            "servo": build_servo,
            "powerplant": build_powerplant,
            "bearing2d": build_bearing2d,
        }
        reference = make_ode_system(builders[name]().flatten())
        assert compiled.system.state_names == reference.state_names
        assert compiled.system.start_values == pytest.approx(
            reference.start_values
        )
        assert compiled.system.param_values == pytest.approx(
            reference.param_values
        )


class TestCliSharedCse:
    def test_codegen_flag(self, tmp_path, capsys):
        from repro.cli import main

        model = tmp_path / "m.om"
        model.write_text(
            "MODEL m;\n"
            "CLASS C\n"
            "  STATE x := 1.0;\n"
            "  STATE y := 0.0;\n"
            "  EQUATION der(x) == sqrt(x * x + y * y + 1.0)"
            " * sin(x * y) + x;\n"
            "  EQUATION der(y) == sqrt(x * x + y * y + 1.0)"
            " * cos(x * y) - y;\n"
            "END C;\n"
            "INSTANCE I INHERITS C;\n"
            "END m;\n"
        )
        assert main(["codegen", str(model), "-t", "python",
                     "--shared-cse"]) == 0
        out = capsys.readouterr().out
        assert "def RHS" in out


class TestCliHelp:
    def test_all_subcommands_registered(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        # argparse keeps subcommand names in the first positional action
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(a)) and hasattr(a, "choices") and a.choices
        )
        assert set(sub.choices) >= {
            "analyze", "graph", "codegen", "startfile", "export-app",
            "simulate",
        }

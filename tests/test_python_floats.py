"""Generated Python bodies run on Python floats, with identical bits.

``make_rhs``, ``rhs()``, ``make_jac`` and the task runner ``run_each``
hand a generated body ``y`` and ``p`` as lists of Python floats
(:func:`repro.codegen.program.call_on_floats`); a call that raises there
re-runs on the ndarrays.  These tests hold every entry point to the call
on the ndarrays — the generated function called with ``y`` and ``p``
themselves — bit for bit at seeded points of the five pinned models, in
both flatten modes; then at points where the float call raises: the
same outputs and ``RuntimeWarning``\\ s, or the same exception, a
fractional power of a negative base that stays ``nan``, and a task that
raises on both paths keeping its ``failed_task`` tag and completed
prefix, through the thread and process pools too.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.apps import (
    Bearing3dParams,
    BearingParams,
    build_bearing2d,
    build_bearing3d,
    build_powerplant,
    build_servo,
)
from repro.codegen import generate_program
from repro.codegen.program import as_floats, call_on_floats, run_each
from repro.codegen.transform import OdeSystem
from repro.frontend import compile_model, compile_source
from repro.runtime import (
    ParallelRHS,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.schedule.task import dependency_levels
from repro.symbolic import Const, Sym, abs_, log

MODELS = Path(__file__).resolve().parent.parent / "examples" / "models"

BUILDERS = {
    "servo": lambda **kw: compile_model(build_servo(), **kw),
    "powerplant": lambda **kw: compile_model(build_powerplant(), **kw),
    "bearing2d.om": lambda **kw: compile_source(
        (MODELS / "bearing2d.om").read_text(), **kw
    ),
    "bearing3d-8": lambda **kw: compile_model(
        build_bearing3d(Bearing3dParams(num_rollers=8, contact_harmonics=3)),
        **kw,
    ),
    "bearing2d-32": lambda **kw: compile_model(
        build_bearing2d(BearingParams(num_rollers=32)), **kw
    ),
}
CASES = [(model, mode) for model in BUILDERS for mode in ("scalar", "array")]


@pytest.fixture(scope="module")
def programs():
    cache = {}

    def get(model, mode):
        if (model, mode) not in cache:
            # the Jacobian scalarizes: array mode is held by RHS and tasks
            cache[model, mode] = BUILDERS[model](
                flatten_mode=mode, jacobian=mode == "scalar"
            ).program
        return cache[model, mode]

    return get


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def seeded_points(program, seed: int = 0, count: int = 6):
    """``(t, y)`` around the start vector, from close to far off it."""
    rng = np.random.default_rng(seed)
    y0 = program.start_vector()
    for k in range(count):
        scale = 10.0 ** (-6 + k)
        noise = rng.standard_normal(y0.size)
        yield float(rng.uniform(0.0, 1.0)), y0 + scale * noise * (
            np.abs(y0) + 1e-2
        )


def level_order(program) -> tuple[int, ...]:
    return tuple(
        tid for level in dependency_levels(program.task_graph)
        for tid in level
    )


def ndarray_tasks(program, t, y, p, ids) -> np.ndarray:
    """The tasks called on the ndarrays, in ``ids`` order."""
    res = program.results_buffer()
    for tid in ids:
        program.module.tasks[tid](t, y, p, res)
    return res


# ---------------------------------------------------------------------------
# Bit identity at seeded points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model, mode", CASES)
def test_rhs_bits_match_the_ndarray_call(programs, model, mode):
    program = programs(model, mode)
    p = program.param_vector()
    p_off = p * (1.0 + 1e-3 * np.random.default_rng(1).standard_normal(p.size))
    f, f_off = program.make_rhs(), program.make_rhs(p_off)
    n = program.num_states
    for t, y in seeded_points(program):
        expected = np.empty(n)
        program.module.rhs(t, y, p, expected)
        # the body itself on floats, no re-run: these points never raise
        on_floats = np.empty(n)
        program.module.rhs(t, y.tolist(), p.tolist(), on_floats)
        assert bits(on_floats) == bits(expected)
        assert bits(f(t, y)) == bits(expected)
        assert bits(program.rhs(t, y)) == bits(expected)
        expected_off = np.empty(n)
        program.module.rhs(t, y, p_off, expected_off)
        assert bits(f_off(t, y)) == bits(expected_off)
        assert bits(program.rhs(t, y, p_off)) == bits(expected_off)


@pytest.mark.parametrize("model, mode", CASES)
def test_run_each_bits_match_the_ndarray_calls(programs, model, mode):
    program = programs(model, mode)
    p = program.param_vector()
    ids = level_order(program)
    assert sorted(ids) == list(range(program.num_tasks))
    run = run_each(program.module.tasks)
    for t, y in seeded_points(program, seed=2):
        expected = ndarray_tasks(program, t, y, p, ids)
        res = program.results_buffer()
        times = np.full(program.num_tasks, -1.0)
        run(ids, t, y, p, res, times)
        assert bits(res) == bits(expected)
        assert (times >= 0.0).all()
        # every task on its own, against the same inputs
        for tid in ids:
            one = expected.copy()
            one[list(program.task_output_slots(tid))] = np.nan
            run((tid,), t, y, p, one, times)
            assert bits(one) == bits(expected)


@pytest.mark.parametrize("model", list(BUILDERS))
def test_jacobian_bits_match_the_ndarray_call(programs, model):
    program = programs(model, "scalar")
    p = program.param_vector()
    jac = program.make_jac()
    n = program.num_states
    for t, y in seeded_points(program, seed=3):
        expected = np.zeros((n, n))
        program.module.jac(t, y, p, expected)
        assert bits(jac(t, y)) == bits(expected)


def test_floats_are_what_the_body_receives():
    seen = []

    def body(t, y, p, out):
        seen.append((type(y), type(y[0]), type(p)))
        out[0] = y[0]

    y, p, out = np.array([1.5, 2.0]), np.array([3.0]), np.empty(1)
    call_on_floats(body, 0.0, y, p, out, as_floats(y), as_floats(p))
    assert seen == [(list, float, list)] and out[0] == 1.5
    # arguments that do not convert, and a ``t`` whose arithmetic with a
    # Python float rounds differently, keep the ndarray call
    for t, yy, pp in (
        (0.0, y.astype(np.float32), p),
        (0.0, y, p.reshape(1, 1)),
        (0.0, y.tolist(), p),
        (np.float32(0.0), y, p),
    ):
        seen.clear()
        call_on_floats(body, t, yy, pp, out, as_floats(yy), as_floats(pp))
        assert seen[0][0] is type(yy) and seen[0][2] is np.ndarray
    assert as_floats(y) == [1.5, 2.0]
    assert as_floats(y[::-1]) == [2.0, 1.5]
    matrix = y.reshape(2, 1)
    assert as_floats(matrix) is matrix


def test_every_entry_point_hands_the_body_lists():
    system = OdeSystem(
        name="spy", free_var="t", state_names=("x", "z"), param_names=("k",),
        rhs=(Sym("k") * x, x * z), start_values=(1.0, 2.0),
        param_values=(0.5,),
    )
    program = generate_program(system, jacobian=True)
    ns, seen = program.module.namespace, []

    def spy(fn):
        def body(t, y, p, out):
            seen.append((type(y), type(p)))
            fn(t, y, p, out)
        return body

    ns["RHS"], ns["JAC"] = spy(ns["RHS"]), spy(ns["JAC"])
    tasks = [spy(task) for task in ns["TASKS"]]
    y = program.start_vector()
    program.make_rhs()(0.0, y)
    program.rhs(0.0, y)
    program.make_jac()(0.0, y)
    run_each(tasks)(
        level_order(program), 0.0, y, program.param_vector(),
        program.results_buffer(), np.zeros(program.num_tasks),
    )
    assert seen == [(list, list)] * (3 + program.num_tasks)


# ---------------------------------------------------------------------------
# Points where the float call raises
# ---------------------------------------------------------------------------


def outcome(call):
    """``(value, exception type and text, RuntimeWarnings)`` of ``call``;
    the value is None if it raised, the exception None if it did not."""
    value = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except Exception as exc:  # the outcome under comparison
            error = (type(exc), str(exc))
    return value, error, [
        (w.category, str(w.message)) for w in caught
        if issubclass(w.category, RuntimeWarning)
    ]


def signals(call):
    """The exception and warnings of :func:`outcome`."""
    return outcome(call)[1:]


def tiny_program(rhs, names, start=None):
    """One task per equation, no grouping, splitting or fusion."""
    system = OdeSystem(
        name="tiny", free_var="t", state_names=tuple(names), param_names=(),
        rhs=tuple(rhs), start_values=tuple(start or [1.0] * len(names)),
        param_values=(),
    )
    return generate_program(
        system, group_threshold=0.0, split_threshold=float("inf"),
        fuse=False,
    )


x, z, w, v = Sym("x"), Sym("z"), Sym("w"), Sym("v")


def test_a_roller_at_the_ring_centre_matches_the_ndarray_call(programs):
    program = programs("bearing2d.om", "scalar")
    at = {name: i for i, name in enumerate(program.system.state_names)}
    y = program.start_vector()
    y[at["W1.r.x"]], y[at["W1.r.y"]] = y[at["Ir.r.x"]], y[at["Ir.r.y"]]
    p, n = program.param_vector(), program.num_states
    # the float call raises: the re-run is what is compared below
    with pytest.raises(ZeroDivisionError):
        program.module.rhs(0.0, y.tolist(), p.tolist(), np.empty(n))
    with pytest.raises(ZeroDivisionError):
        program.module.jac(0.0, y.tolist(), p.tolist(), np.zeros((n, n)))

    want = signals(lambda: program.module.rhs(0.0, y, p, np.empty(n)))
    assert want[0] is not None
    assert signals(lambda: program.make_rhs()(0.0, y)) == want
    want = signals(
        lambda: program.module.jac(0.0, y, p, np.zeros((n, n)))
    )
    assert want[0] is not None and want[1]
    assert signals(lambda: program.make_jac()(0.0, y)) == want
    ids = level_order(program)
    want = signals(lambda: ndarray_tasks(program, 0.0, y, p, ids))
    res, times = program.results_buffer(), np.zeros(program.num_tasks)
    run = run_each(program.module.tasks)
    assert signals(lambda: run(ids, 0.0, y, p, res, times)) == want
    reference = program.results_buffer()
    for tid in ids:
        want = signals(
            lambda: program.module.tasks[tid](0.0, y, p, reference)
        )
        assert signals(lambda: run((tid,), 0.0, y, p, res, times)) == want
    assert bits(res) == bits(reference)


def test_values_and_warnings_where_only_floats_raise():
    # 0.0**-1 raises on floats and is inf (with a RuntimeWarning) in NumPy
    program = tiny_program([x**-1, z * Const(2.0)], ["x", "z"])
    y, p = np.array([0.0, 3.0]), program.param_vector()
    with pytest.raises(ZeroDivisionError):
        program.module.rhs(0.0, y.tolist(), p.tolist(), np.empty(2))
    expected = np.empty(2)
    want = signals(lambda: program.module.rhs(0.0, y, p, expected))
    assert want[0] is None and want[1] and expected[0] == math.inf
    got, *rest = outcome(lambda: program.make_rhs()(0.0, y))
    assert tuple(rest) == want and bits(got) == bits(expected)
    res, times = program.results_buffer(), np.zeros(program.num_tasks)
    assert signals(lambda: run_each(program.module.tasks)(
        level_order(program), 0.0, y, p, res, times)) == want
    assert bits(res[:2]) == bits(expected)


def test_a_fractional_power_of_a_negative_base_stays_nan():
    # Python's (-1.0)**1.5 is a complex, which abs() would turn into a
    # finite number; NumPy's is nan, and so is the result here
    program = tiny_program([x**1.5, abs_(x**1.5)], ["x", "z"])
    assert "_rpow(x, 1.5)" in program.module.source
    y, p = np.array([-1.0, 0.0]), program.param_vector()
    with pytest.raises(ValueError, match="complex"):
        program.module.rhs(0.0, y.tolist(), p.tolist(), np.empty(2))
    expected = np.empty(2)
    want = signals(lambda: program.module.rhs(0.0, y, p, expected))
    assert want[0] is None and want[1] and np.isnan(expected).all()
    got, *rest = outcome(lambda: program.make_rhs()(0.0, y))
    assert tuple(rest) == want and np.isnan(got).all()
    res, times = program.results_buffer(), np.zeros(program.num_tasks)
    assert signals(lambda: run_each(program.module.tasks)(
        level_order(program), 0.0, y, p, res, times)) == want
    assert np.isnan(res[:2]).all()
    # integral exponents print as before
    assert "**2" in tiny_program([x**2], ["x"]).module.source


def test_a_task_raising_on_both_paths_keeps_its_tag_and_prefix():
    program = tiny_program(
        [x + Const(1.0), z * Const(2.0), log(w), v * Const(3.0)],
        ["x", "z", "w", "v"],
    )
    assert program.num_tasks == 4
    bad = next(
        tid for tid in range(4) if program.task_output_slots(tid) == (2,)
    )
    ids = tuple(tid for tid in range(4) if tid != bad)
    ids = ids[:2] + (bad,) + ids[2:]
    y, p = np.array([1.0, 2.0, -1.0, 4.0]), program.param_vector()

    with pytest.raises(ValueError) as reference:
        ndarray_tasks(program, 0.0, y, p, ids)
    res = program.results_buffer()
    times = np.full(4, -1.0)
    with pytest.raises(ValueError) as raised:
        run_each(program.module.tasks)(ids, 0.0, y, p, res, times)
    assert str(raised.value) == str(reference.value)
    assert raised.value.failed_task == bad
    done = [program.task_output_slots(tid)[0] for tid in ids[:2]]
    assert (times[list(ids[:2])] >= 0.0).all()
    assert (times[[bad, ids[3]]] == -1.0).all()
    assert res[done].tolist() == [
        [2.0, 4.0, math.nan, 12.0][s] for s in done
    ]
    assert res[program.task_output_slots(ids[3])[0]] == 0.0


# ---------------------------------------------------------------------------
# The pools: thread and process workers run the same runner
# ---------------------------------------------------------------------------

POOLS = {
    "serial": lambda program: SerialExecutor(program),
    "thread": lambda program: ThreadedExecutor(
        program, 2, validate_outputs=False
    ),
    "process": lambda program: ProcessExecutor(
        program, 2, validate_outputs=False
    ),
}


def ex_tasks(ex, program, t, y, p) -> np.ndarray:
    """All tasks through one executor round (its default schedule)."""
    res = program.results_buffer()
    ex.evaluate(t, y, p, res, None)
    return res


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_pools_match_the_ndarray_calls(programs, pool):
    program = programs("bearing3d-8", "scalar")
    p = program.param_vector()
    points = list(seeded_points(program, seed=4, count=4))
    inf_program = tiny_program([x**-1, z * Const(2.0)], ["x", "z"])
    with POOLS[pool](program) as ex, POOLS[pool](inf_program) as inf_ex:
        f = ParallelRHS(program, ex)
        for t, y in points:
            expected = ndarray_tasks(program, t, y, p, level_order(program))
            assert bits(ex_tasks(ex, program, t, y, p)) == bits(expected)
            assert bits(f(t, y)) == bits(expected[: program.num_states])
        # the inf the re-run gives survives the round
        got = ParallelRHS(inf_program, inf_ex)(0.0, np.array([0.0, 3.0]))
        assert got.tolist() == [math.inf, 6.0]

"""Golden references: the oracle's final state and the solver's counts.

One file per workload under ``golden/``.  The state comes from the
scalar-Python-serial oracle (scalar flatten, ``backend="python"``, direct
``make_rhs()``) — never from the configuration under test — and is
cross-checked when it is generated against ``scipy.integrate.solve_ivp``
(LSODA, rtol 1e-10) on the same RHS.  The ``Stats`` counts come from the
workload's own configuration run serially, because a native or task-wise
RHS differs from the oracle's in the last bits and an adaptive stepper
turns that into a few more or fewer rejected steps; they are what "counts
must repeat exactly" is held to.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.compiler import CompileOptions, compile_context
from repro.runtime import ParallelRHS, SerialExecutor
from repro.solver import solve_ivp

from workloads import ATOL, RTOL, Workload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: How far the oracle may sit from scipy when a file is generated (see
#: rel_err): the global error of an rtol 1e-6 solve, measured at 1e-4 to 5e-4.
ORACLE_TOL = 2e-3
#: How far a timed solve may sit from the golden state: 1e-6, as the ISSUE
#: asks, where the workload's arithmetic is the oracle's.  A native or
#: task-wise RHS equals the oracle's to 1e-12 per call and the adaptive
#: stepper carries that to ``own_rel_err`` by the end of the span, so each
#: golden entry states its own ``tol``: twice what was measured when it was
#: generated, the margin being for another host's ``cc``.
STATE_TOL = 1e-6


def load(wl: Workload) -> dict:
    return json.loads((GOLDEN_DIR / f"{wl.name}.json").read_text())


def rel_err(y: np.ndarray, entry: dict) -> float:
    """Largest componentwise deviation from the golden state.

    Relative to each state's largest magnitude along the oracle trajectory,
    floored at ATOL / RTOL the way the solver's own error weights are: a
    value of RTOL is one local error tolerance.
    """
    gold = np.asarray(entry["y_final"])
    scale = np.asarray(entry["y_scale"]) + ATOL / RTOL
    return float(np.max(np.abs(np.asarray(y) - gold) / scale))


def stats_obj(stats) -> dict[str, int]:
    return dataclasses.asdict(stats)


def serial_reference(wl: Workload, program, t_end: float):
    """The workload's own program solved without a worker pool.

    Parallel workloads go through ``ParallelRHS`` over a ``SerialExecutor``
    (the task functions in schedule order — what the thread and process
    pools must reproduce bit for bit); serial workloads through the
    ``make_rhs()`` closure they time.
    """
    if wl.executor is None:
        f = program.make_rhs()
    else:
        f = ParallelRHS(program, SerialExecutor(program))
    jac = program.make_jac() if wl.options.get("jacobian") else None
    return solve_ivp(
        f, (0.0, t_end), program.start_vector(), method=wl.method, jac=jac,
        rtol=RTOL, atol=ATOL,
    )


def _entry(wl: Workload, oracle, program, t_end: float) -> dict:
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    f = oracle.make_rhs()
    jac = oracle.make_jac() if wl.options.get("jacobian") else None
    y0 = oracle.start_vector()
    ours = solve_ivp(
        f, (0.0, t_end), y0, method=wl.method, jac=jac, rtol=RTOL, atol=ATOL
    )
    if not ours.success:
        raise RuntimeError(f"{wl.name}: oracle solve failed: {ours.message}")
    entry = {
        "t_end": t_end,
        "y_final": ours.y_final.tolist(),
        "y_scale": np.max(np.abs(ours.ys), axis=0).tolist(),
        "oracle_stats": stats_obj(ours.stats),
    }
    ref = scipy_solve_ivp(
        f, (0.0, t_end), y0, method="LSODA", rtol=1e-10, atol=1e-13
    )
    if not ref.success:
        raise RuntimeError(f"{wl.name}: scipy cross-check failed: {ref.message}")
    entry["scipy_rel_dev"] = rel_err(ref.y[:, -1], entry)
    if entry["scipy_rel_dev"] > ORACLE_TOL:
        raise RuntimeError(
            f"{wl.name}: oracle deviates from scipy LSODA by "
            f"{entry['scipy_rel_dev']:.3g} > {ORACLE_TOL}"
        )
    own = serial_reference(wl, program, t_end)
    entry["stats"] = stats_obj(own.stats)
    entry["own_rel_err"] = rel_err(own.y_final, entry)
    entry["tol"] = max(STATE_TOL, 2.0 * entry["own_rel_err"])
    return entry


def regenerate(wl: Workload, root: Path) -> dict:
    """Rewrite ``golden/<workload>.json``; never part of a gated run."""
    inputs = wl.inputs(root)
    oracle = compile_context(
        options=CompileOptions(
            backend="python", jacobian=bool(wl.options.get("jacobian"))
        ),
        **inputs,
    ).program
    program = compile_context(
        options=CompileOptions(**wl.options), **inputs
    ).program
    if program.backend != wl.options["backend"]:
        raise RuntimeError(
            f"{wl.name}: compiled to backend {program.backend!r}, "
            f"not {wl.options['backend']!r}"
        )
    y0 = oracle.start_vector()
    obj = {
        "workload": wl.name,
        "oracle": "scalar flatten, backend=python, serial make_rhs()",
        "method": wl.method,
        "rtol": RTOL,
        "atol": ATOL,
        "rhs_start": oracle.make_rhs()(0.0, y0).tolist(),
        "full": _entry(wl, oracle, program, wl.t_end),
        "quick": _entry(wl, oracle, program, wl.quick_t_end),
    }
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / f"{wl.name}.json").write_text(json.dumps(obj, indent=1) + "\n")
    return obj

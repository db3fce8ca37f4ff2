"""Partitioned (subsystem-level) solution of ODE systems.

This executes the paper's *equation-system-level* parallelism (sections
2.1 and 2.3): the state dependency graph is condensed into SCC
subsystems; subsystems are solved in topological order, each with **its
own solver instance and its own step-size sequence**, receiving the
trajectories of upstream subsystems as interpolated input signals ("values
produced from the solution of one system are continuously passed as input
for the solution of another system").

The gains the paper lists fall out directly:

* a slow subsystem is no longer forced onto the fast subsystem's steps,
* solver-internal work (and the implicit method's Jacobian) scales with
  the subsystem size, not the whole model,
* subsystems on the same topological level are independent and could run
  on different processors (the returned report carries the level
  structure and per-subsystem costs so the pipeline simulator can price
  that out).

Coupling is one-way by construction (SCCs contain every feedback loop),
so the staged solution is exact up to interpolation error; upstream
trajectories are interpolated with cubic Hermite using their stored
derivative values.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.depgraph import DiGraph
from ..analysis.scc import condensation, strongly_connected_components
from ..codegen.program import generate_program
from ..codegen.transform import OdeSystem
from ..symbolic.expr import free_symbols
from .common import SolverResult, hermite
from .ivp import solve_ivp

__all__ = ["Signal", "SubsystemRun", "PartitionedResult", "solve_partitioned"]


class Signal:
    """Cubic-Hermite interpolant of one scalar trajectory."""

    def __init__(
        self,
        ts: np.ndarray,
        ys: np.ndarray,
        dys: np.ndarray,
    ) -> None:
        if not (len(ts) == len(ys) == len(dys)):
            raise ValueError("ts, ys, dys must have equal length")
        if len(ts) < 2:
            raise ValueError("need at least two samples")
        order = np.argsort(ts)
        self.ts = np.asarray(ts, float)[order]
        self.ys = np.asarray(ys, float)[order]
        self.dys = np.asarray(dys, float)[order]

    def __call__(self, t: float) -> float:
        ts = self.ts
        if t <= ts[0]:
            return float(self.ys[0])
        if t >= ts[-1]:
            return float(self.ys[-1])
        i = bisect.bisect_right(ts, t) - 1
        t0, t1 = ts[i], ts[i + 1]
        h = t1 - t0
        return float(hermite((t - t0) / h, h, self.ys[i], self.dys[i],
                             self.ys[i + 1], self.dys[i + 1]))


@dataclass
class SubsystemRun:
    """One subsystem's independent solve."""

    index: int
    level: int
    state_names: tuple[str, ...]
    result: SolverResult

    @property
    def mean_step(self) -> float:
        ts = self.result.ts
        return float((ts[-1] - ts[0]) / max(len(ts) - 1, 1))


@dataclass
class PartitionedResult:
    """Aggregate of a partitioned solve."""

    runs: list[SubsystemRun]
    state_names: tuple[str, ...]
    y_final: np.ndarray
    success: bool
    levels: list[list[int]]

    @property
    def total_nfev(self) -> int:
        """Total *scalar* RHS-equation evaluations across subsystems —
        the comparable work measure (each subsystem's nfev touches only
        its own equations)."""
        return sum(
            run.result.stats.nfev * len(run.state_names)
            for run in self.runs
        )

    def run_for(self, state: str) -> SubsystemRun:
        for run in self.runs:
            if state in run.state_names:
                return run
        raise KeyError(state)

    def summary(self) -> str:
        lines = [f"{len(self.runs)} subsystem(s) on {len(self.levels)} level(s)"]
        for run in self.runs:
            lines.append(
                f"  #{run.index} (level {run.level}, "
                f"{len(run.state_names)} states): "
                f"{run.result.stats.naccepted} steps, "
                f"mean h = {run.mean_step:.4g}, "
                f"nfev = {run.result.stats.nfev}"
            )
        return "\n".join(lines)


def _state_partition(system: OdeSystem):
    """SCC-partition the states by their RHS dependencies."""
    state_set = frozenset(system.state_names)
    graph = DiGraph()
    for name in system.state_names:
        graph.add_node(name)
    for state, rhs in zip(system.state_names, system.rhs):
        for sym in free_symbols(rhs):
            if sym.name in state_set and sym.name != state:
                graph.add_edge(sym.name, state)
    components = list(reversed(strongly_connected_components(graph)))
    condensed, membership = condensation(graph, components)
    level: dict[int, int] = {}
    for i in range(len(components)):
        preds = condensed.predecessors(i)
        level[i] = 1 + max((level[p] for p in preds), default=-1)
    return components, membership, level


def solve_partitioned(
    system: OdeSystem,
    t_span: tuple[float, float],
    y0: Sequence[float] | None = None,
    method: str = "lsoda",
    rtol: float = 1e-6,
    atol: float = 1e-9,
    max_steps: int = 100_000,
) -> PartitionedResult:
    """Solve ``system`` subsystem by subsystem.

    Subsystems are the SCCs of the state dependency graph; each is
    compiled into its own generated program (foreign states become
    time-varying inputs fed from upstream interpolants) and integrated
    with its own adaptive solver.
    """
    y0_arr = (
        np.asarray(system.start_values, float) if y0 is None
        else np.asarray(y0, float)
    )
    if y0_arr.size != system.num_states:
        raise ValueError("y0 has wrong length")
    state_index = {s: i for i, s in enumerate(system.state_names)}

    components, _membership, level = _state_partition(system)
    order = sorted(range(len(components)), key=lambda i: (level[i], i))

    signals: dict[str, Signal] = {}
    runs: list[SubsystemRun] = []
    success = True

    rhs_by_state = dict(zip(system.state_names, system.rhs))
    param_values = dict(zip(system.param_names, system.param_values))

    for comp_id in order:
        states = tuple(sorted(components[comp_id]))
        foreign: list[str] = []
        for s in states:
            for sym in free_symbols(rhs_by_state[s]):
                name = sym.name
                if name in state_index and name not in states:
                    if name not in foreign:
                        foreign.append(name)
        foreign.sort()

        sub_system = OdeSystem(
            name=f"{system.name}::scc{comp_id}",
            free_var=system.free_var,
            state_names=states,
            param_names=tuple(system.param_names) + tuple(foreign),
            rhs=tuple(rhs_by_state[s] for s in states),
            start_values=tuple(
                float(y0_arr[state_index[s]]) for s in states
            ),
            param_values=tuple(system.param_values)
            + tuple(float(y0_arr[state_index[f]]) for f in foreign),
        )
        program = generate_program(sub_system)
        base_params = program.param_vector()
        n_fixed = len(system.param_names)
        rhs_fn = program.module.rhs
        n_states = len(states)
        foreign_signals = [signals[f] for f in foreign]

        def f(t: float, y: np.ndarray, _rhs=rhs_fn, _n=n_states,
              _params=base_params, _n_fixed=n_fixed,
              _signals=foreign_signals) -> np.ndarray:
            p = _params.copy()
            for k, sig in enumerate(_signals):
                p[_n_fixed + k] = sig(t)
            out = np.empty(_n)
            _rhs(t, y, p, out)
            return out

        result = solve_ivp(
            f, t_span, sub_system.start_values, method=method,
            rtol=rtol, atol=atol, max_steps=max_steps,
        )
        success = success and result.success
        runs.append(
            SubsystemRun(
                index=comp_id,
                level=level[comp_id],
                state_names=states,
                result=result,
            )
        )

        # Register this subsystem's trajectories as downstream signals.
        dys = np.array([f(t, y) for t, y in zip(result.ts, result.ys)])
        for k, s in enumerate(states):
            signals[s] = Signal(result.ts, result.ys[:, k], dys[:, k])

    y_final = np.empty(system.num_states)
    for run in runs:
        for k, s in enumerate(run.state_names):
            y_final[state_index[s]] = run.result.ys[-1, k]

    num_levels = 1 + max(level.values(), default=0)
    levels: list[list[int]] = [[] for _ in range(num_levels)]
    for i, lv in level.items():
        levels[lv].append(i)

    return PartitionedResult(
        runs=runs,
        state_names=system.state_names,
        y_final=y_final,
        success=success,
        levels=levels,
    )

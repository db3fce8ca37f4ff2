#!/usr/bin/env python3
"""The repo's one benchmark: compile + solve of four named workloads.

    python3 benchmarks/e2e/run.py --workload b3d_c_thread2 --seed 1 \\
        --seconds 30 --trace 0        # the seven end-to-end metrics
    python3 benchmarks/e2e/run.py --workload b3d_c_thread2 --seed 1 \\
        --seconds 30 --trace 1        # the per-layer metrics, from spans
    python3 benchmarks/e2e/run.py --all [--trace 1] [--quick]
    python3 benchmarks/e2e/run.py --selfcheck
    python3 benchmarks/e2e/run.py --regen-golden [--workload NAME]

One workload is one process.  Its last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are the host record, the quartiles and any failed operation, for people.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(ROOT / "src"))


def manifest_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    section = "per_layer" if trace else "end_to_end"
    entries = json.loads(MANIFEST.read_text())[section]
    return {e["name"]: e["unit"] for e in entries}


def host_record() -> dict:
    import numpy

    from repro.codegen.native import find_compiler

    model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cc = find_compiler()
    cc_version = ""
    if cc is not None:
        out = subprocess.run(
            [*cc, "--version"], capture_output=True, text=True
        ).stdout
        cc_version = out.splitlines()[0] if out else ""
    return {
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cc": cc_version,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def run_workload(args) -> int:
    # Imported here so that a set-up probe times them from a cold start.
    import protocol
    from workloads import BY_NAME, make_plan

    wl = BY_NAME[args.workload]
    plan = make_plan(wl, args.seconds, args.quick)
    session = protocol.setup(wl, plan, ROOT)
    if args.setup_probe:
        protocol.teardown(session)
        return 0

    host = host_record()
    print("host", json.dumps(host))
    if host["loadavg"][0] > 0.5:
        print(f"warning: load average {host['loadavg'][0]:.2f} > 0.5 at "
              f"start; timings will be noisier", file=sys.stderr)
    units = manifest_metrics(args.trace)
    ops = protocol.Ops()
    detail = {}
    # A terminated run leaves like any other: through the finally clauses.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        try:
            if args.trace:
                from layers import run_traced

                metrics = run_traced(session, ops, args.seed)
            else:
                metrics, detail = protocol.run_end_to_end(
                    session, ops, args.seed
                )
        finally:
            protocol.teardown(session)
        protocol.hygiene(session, ops)
    finally:  # on every path out: no process of this run outlives it
        protocol.stop_children()

    odd = sorted(set(metrics) ^ set(units))
    ops.record(f"the metrics are those of {MANIFEST.name}",
               [f"not on both sides: {odd}"] if odd else [])
    units = {name: unit for name, unit in units.items() if name in metrics}
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    ops.record("every metric finite", [f"not finite: {bad}"] if bad else [])

    for name, value in detail.items():
        if isinstance(value, dict):
            value = " ".join(
                f"{k}={v:.5g}" if not isinstance(v, list)
                else f"{k}=[{' '.join(f'{x:.4g}' for x in v)}]"
                for k, v in value.items()
            )
        print(f"  {name}: {value}")
    for name in units:
        print(f"{name:38s} {metrics[name]:.6g} {units[name]}")
    for failure in ops.failures:
        print("FAILED", failure)
    print(f"workload {wl.name} seed {args.seed} trace {int(args.trace)}: "
          f"{ops.attempted} operations, {len(ops.failures)} failed")
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if ops.failures else 0


def regen_golden(args) -> int:
    import golden
    from workloads import BY_NAME, WORKLOADS

    chosen = [BY_NAME[args.workload]] if args.workload else WORKLOADS
    for wl in chosen:
        obj = golden.regenerate(wl, ROOT)
        for key in ("full", "quick"):
            e = obj[key]
            print(f"{wl.name} {key}: t_end {e['t_end']}, scipy deviation "
                  f"{e['scipy_rel_dev']:.3g}, own configuration deviates "
                  f"{e['own_rel_err']:.3g} (tol {e['tol']:.3g}), "
                  f"counts {e['stats']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1 compile repetition, 3 short solves, no "
                             "warm-up; a smoke run, no bounds apply")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not MANIFEST.is_file():
        print(f"error: {ROOT} is not a checkout of the repository "
              f"(no src/repro or no {MANIFEST.name})", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(MANIFEST.read_text())["run_seconds"]
    if args.setup_probe:
        args.workload = args.setup_probe
    if args.regen_golden:
        return regen_golden(args)
    if args.selfcheck or args.all:
        import driver

        if args.selfcheck:
            return driver.selfcheck(args.seconds)
        return driver.run_all(args.seed, args.seconds, bool(args.trace),
                              args.quick)
    if not args.workload:
        parser.error("give --workload NAME, --all, --selfcheck or "
                     "--regen-golden")
    from workloads import BY_NAME

    if args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(BY_NAME)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Multi-process drivers: all workloads in turn, and the A/B self-check.

Every workload run is its own ``run.py`` process, exactly as the gate runs
it, so nothing measured here can lean on state a previous run left in this
process.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
MANIFEST = HERE.parents[1] / "BENCHMARK.json"

#: untraced runs per set and workload in the self-check; the two sets
#: together are the ten seeds the gate takes its quartiles over
RUNS_PER_SET = 5


def spawn_workload(name: str, seed: int, seconds: float, trace: bool,
                   quick: bool = False, echo: bool = True) -> dict:
    """Run one workload in its own process; returns its final JSON."""
    cmd = [
        sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    try:  # a run with failed operations exits 1 after its result line
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{name}: exit code {proc.returncode} and no result line"
        ) from None


def run_all(seed: int, seconds: float, trace: bool, quick: bool) -> int:
    import repro  # noqa: F401  (one import here warms the page cache)

    failed = sum(
        spawn_workload(wl.name, seed, seconds, trace, quick)["failed"]
        for wl in WORKLOADS
    )
    return 1 if failed else 0


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the gate's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(seconds: float) -> int:
    """Two interleaved sets of runs of the same code must agree.

    Untraced: workloads in turn, seeds alternating between set A (odd) and
    set B (even); per end-to-end metric, the medians of A and B may differ
    by at most the metric's bound, either way, and the spread of all ten
    values (the gate's quartile rule) must stay within it too.
    Traced: one run per set; every count metric must be identical.  Prints
    a markdown report (checked in as SELFCHECK.md), the raw values on
    stderr, and exits non-zero on any miss.
    """
    import repro  # noqa: F401

    manifest = json.loads(MANIFEST.read_text())
    e2e = manifest["end_to_end"]
    counts = [m["name"] for m in manifest["per_layer"]
              if m["unit"] in ("count", "bytes")]
    values = {wl.name: {m["name"]: {"A": [], "B": []} for m in e2e}
              for wl in WORKLOADS}
    traced = {wl.name: {} for wl in WORKLOADS}
    failed_ops = 0
    for seed in range(1, 2 * RUNS_PER_SET + 1):
        which = "A" if seed % 2 else "B"
        for wl in WORKLOADS:
            result = spawn_workload(wl.name, seed, seconds, False, echo=False)
            failed_ops += result["failed"]
            for name, entry in result["metrics"].items():
                values[wl.name][name][which].append(entry["value"])
            print(f"# {which} seed {seed} {wl.name}: "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in result["metrics"].items()),
                  file=sys.stderr)
    for which, seed in (("A", 1), ("B", 2)):
        for wl in WORKLOADS:
            result = spawn_workload(wl.name, seed, seconds, True, echo=False)
            failed_ops += result["failed"]
            traced[wl.name][which] = {
                k: v["value"] for k, v in result["metrics"].items()
            }

    misses = 0
    print("# Self-check: two interleaved sets of runs of the same code\n")
    print(f"`run.py --selfcheck` at `--seconds {seconds:g}`: "
          f"{RUNS_PER_SET} untraced runs per set and workload, seeds "
          f"alternating A/B; one traced run per set.\n")
    print("| workload | metric | median A | median B | B vs A | bound | "
          "spread of 10 | ok |")
    print("|---|---|---|---|---|---|---|---|")
    for wl in WORKLOADS:
        for m in e2e:
            a = statistics.median(values[wl.name][m["name"]]["A"])
            b = statistics.median(values[wl.name][m["name"]]["B"])
            differ = (b - a) / a
            sp = spread(values[wl.name][m["name"]]["A"]
                        + values[wl.name][m["name"]]["B"])
            ok = abs(differ) <= m["bound"] and sp <= m["bound"]
            misses += not ok
            print(f"| {wl.name} | {m['name']} | {a:.5g} | {b:.5g} | "
                  f"{100 * differ:+.1f}% | {100 * m['bound']:.0f}% | "
                  f"{100 * sp:.1f}% | {'yes' if ok else 'NO'} |")
    print("\n| workload | count metrics identical in both traced runs | "
          "trace_overhead_pct A / B |")
    print("|---|---|---|")
    for wl in WORKLOADS:
        a, b = traced[wl.name]["A"], traced[wl.name]["B"]
        differing = [k for k in counts if a[k] != b[k]]
        misses += bool(differing)
        print(f"| {wl.name} | "
              f"{'all ' + str(len(counts)) if not differing else 'NO: ' + ', '.join(differing)} | "
              f"{a['trace_overhead_pct']:.1f} / {b['trace_overhead_pct']:.1f} |")
    print(f"\nFailed operations over all runs: {failed_ops}.")
    print(f"Misses: {misses}.")
    return 1 if misses or failed_ops else 0

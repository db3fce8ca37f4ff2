"""Smoke test of the end-to-end benchmark: ``run.py --quick`` on every
workload, untraced and traced.

Run it by path — ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``
— since ``testpaths`` keeps tier-1 to ``tests/``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.codegen.native import find_compiler

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
C_WORKLOADS = {"b3d_c_thread2", "b2d32_array_c_serial"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_quick_run_reports_every_metric(workload: str, trace: int) -> None:
    if workload in C_WORKLOADS and find_compiler() is None:
        pytest.skip(f"{workload} needs a C compiler and none was found")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], proc.stdout
    assert result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"]), m["name"]


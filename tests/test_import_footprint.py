"""Start-up cost: importing the package does not load SciPy.

SciPy's LU is the only SciPy the package calls, and only the BDF stepper
calls it; it is imported on the first factorisation, so a process that
never runs BDF (every non-stiff solve, every compile) never pays for it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_package_import_leaves_scipy_out():
    loaded = _modules_after("import repro, repro.solver, repro.apps")
    assert "repro.solver" in loaded and "repro.apps" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_first_bdf_step_loads_it():
    loaded = _modules_after(
        "import numpy as np\n"
        "from repro.solver import solve_ivp\n"
        "solve_ivp(lambda t, y: -y, (0.0, 1.0), np.ones(2), method='bdf')"
    )
    assert "scipy.linalg" in loaded

"""Compile-smoke for the C emitters: generated sources must stay valid C.

The textual back ends (``repro codegen -t c``) used to rot silently —
nothing ever compiled their output.  Every printed C source for all four
example apps (serial and parallel modes, with the analytic Jacobian) and
every native translation unit must now compile warning-free under
``cc -c -Wall -Werror``, and every native unit exports the ``run_tasks``
batch entry the executors call; the ``_native.c`` glue that calls the
units, thread pool included, compiles warning-free too.  Skipped with a
visible reason when the machine has no C compiler.
"""

from __future__ import annotations

import subprocess
import sysconfig
from pathlib import Path

import pytest

from repro.apps.bearing2d import BearingParams, build_bearing2d
from repro.apps.bearing3d import Bearing3dParams, build_bearing3d
from repro.apps.powerplant import build_powerplant
from repro.apps.servo import build_servo
from repro.codegen import generate_c, generate_c_tasks, make_ode_system
from repro.codegen.native import GLUE_SOURCE, find_compiler
from repro.codegen.transform import OdeSystem

HAS_CC = find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")

_BUILDERS = {
    "servo": build_servo,
    "powerplant": build_powerplant,
    "bearing2d": lambda: build_bearing2d(BearingParams(num_rollers=4)),
    "bearing3d": lambda: build_bearing3d(
        Bearing3dParams(num_rollers=4, contact_harmonics=2)
    ),
}
APPS = tuple(_BUILDERS)


@pytest.fixture(scope="module")
def systems():
    cache: dict = {}

    def get(app: str):
        if app not in cache:
            cache[app] = make_ode_system(_BUILDERS[app]().flatten())
        return cache[app]

    return get


_RUN_TASKS = (
    "void run_tasks(double t, const double *yin, const double *p, "
    "double *yout, const int *ids, int n, double *times)"
)


def _compile_smoke(source: str, tmp_path, tag: str, *extra: str) -> None:
    src = tmp_path / f"{tag}.c"
    obj = tmp_path / f"{tag}.o"
    src.write_text(source + "\n")
    cc = find_compiler()
    proc = subprocess.run(
        [*cc, "-c", "-Wall", "-Werror", *extra, "-o", str(obj), str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (
        f"cc -c -Wall -Werror failed for {tag}:\n{proc.stderr}"
    )
    assert obj.exists()


@needs_cc
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_textual_c_source_compiles(systems, tmp_path, app, mode):
    csrc = generate_c(systems(app), mode=mode, jacobian=True)
    _compile_smoke(csrc.source, tmp_path, f"{app}_{mode}")


@needs_cc
@pytest.mark.parametrize("app", APPS)
def test_native_translation_unit_compiles(systems, tmp_path, app):
    native = generate_c_tasks(systems(app), jacobian=True)
    assert f"{_RUN_TASKS}\n{{" in native.source
    _compile_smoke(native.source, tmp_path, f"{app}_native")


@needs_cc
def test_native_unit_without_tasks_compiles(tmp_path):
    """No states means no tasks: ``run_tasks`` is then an empty body."""
    empty = OdeSystem("empty", "t", (), (), (), (), ())
    native = generate_c_tasks(empty)
    assert native.num_tasks == 0
    assert f"{_RUN_TASKS}\n{{" in native.source
    _compile_smoke(native.source, tmp_path, "empty_native")


@needs_cc
@pytest.mark.skipif(
    not Path(sysconfig.get_paths()["include"], "Python.h").is_file(),
    reason="no Python development headers",
)
def test_native_glue_compiles(tmp_path):
    """The hand-written glue that calls every unit builds warning-free,
    with the ``-pthread`` its thread pool is built with."""
    _compile_smoke(GLUE_SOURCE.read_text(), tmp_path, "glue",
                   f"-I{sysconfig.get_paths()['include']}", "-pthread")


@needs_cc
def test_sign_helper_is_not_flagged_when_unused(tmp_path):
    """A model that never calls sign() still builds under -Werror."""
    system = make_ode_system(build_servo().flatten())
    csrc = generate_c(system, mode="serial")
    assert "sign" in csrc.source  # the helper is always emitted ...
    _compile_smoke(csrc.source, tmp_path, "servo_no_sign")  # ... unused

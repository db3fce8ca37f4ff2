"""Pinned digests of the generated Python and NumPy module text.

Both backends print through one module emitter; these digests hold its
output byte for byte, so a refactor of the emitter or of the printers
below it shows up here as a changed digest instead of as a numerical
drift somewhere downstream.  A deliberate change to the generated text
updates the table in the same commit and says why.
"""

import hashlib
from pathlib import Path

import pytest

from repro.apps import (
    Bearing3dParams,
    BearingParams,
    build_bearing2d,
    build_bearing3d,
    build_powerplant,
    build_servo,
)
from repro.codegen import generate_numpy, generate_python
from repro.frontend import compile_model, compile_source

MODELS = Path(__file__).resolve().parent.parent / "examples" / "models"

BUILDERS = {
    "servo": lambda mode: compile_model(build_servo(), flatten_mode=mode),
    "powerplant": lambda mode: compile_model(
        build_powerplant(), flatten_mode=mode
    ),
    "bearing2d.om": lambda mode: compile_source(
        (MODELS / "bearing2d.om").read_text(), flatten_mode=mode
    ),
    "bearing3d-8": lambda mode: compile_model(
        build_bearing3d(Bearing3dParams(num_rollers=8, contact_harmonics=3)),
        flatten_mode=mode,
    ),
    "bearing2d-32": lambda mode: compile_model(
        build_bearing2d(BearingParams(num_rollers=32)), flatten_mode=mode
    ),
}

#: (model, flatten mode, jacobian) -> sha256[:16] of (python, numpy) source
DIGESTS = {
    ("servo", "scalar", False): ("b3468b049866448a", "38a8d6755c4498c7"),
    ("servo", "scalar", True): ("e8a96f4b52aecf2e", "33220af27cf5b32d"),
    ("powerplant", "scalar", False): ("e6540f799c702182", "47048e29f2332937"),
    ("powerplant", "scalar", True): ("9954be20860cef9d", "082ec4662fe41733"),
    ("bearing2d.om", "scalar", False): ("e19bfea6090dac2d", "2a5bb959adf7c2ba"),
    ("bearing2d.om", "scalar", True): ("5ab009b8ac36b4a0", "9bd46b55833c825d"),
    ("bearing3d-8", "scalar", False): ("57e7bcbb49c0811a", "981b19afd9463e4c"),
    ("bearing3d-8", "scalar", True): ("207d943d74192528", "defcf919ecce1d76"),
    ("bearing2d-32", "scalar", False): ("e0fd428e3f6ce0cd", "98e60f99fe892498"),
    ("bearing2d-32", "scalar", True): ("8d5eb60fa0e1a6b3", "17462ad54cb2aa0d"),
    ("bearing3d-8", "array", False): ("e0ae3b6332f61e5b", "32d45168e6aee7fe"),
    ("bearing2d-32", "array", False): ("8ff7d5b1bc2bce9a", "55e1d52efffe53a6"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def compiled():
    cache = {}

    def get(model, mode):
        if (model, mode) not in cache:
            cache[model, mode] = BUILDERS[model](mode)
        return cache[model, mode]

    return get


@pytest.mark.parametrize("model, mode, jacobian", sorted(DIGESTS))
def test_generated_source_is_pinned(compiled, model, mode, jacobian):
    cm = compiled(model, mode)
    # the codegen pass prints exactly this: the compiled system and plan
    system, plan = cm.system, cm.program.plan
    python = generate_python(system, plan, jacobian=jacobian).source
    numpy = generate_numpy(system, plan, jacobian=jacobian).source
    assert (digest(python), digest(numpy)) == DIGESTS[model, mode, jacobian]

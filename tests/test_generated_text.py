"""Pinned digests of the generated source text.

The Python and NumPy backends print through one module emitter, the C
and Fortran backends through their own printers; these digests hold
every backend's output byte for byte — as the ``codegen`` pass prints it
and as :func:`~repro.codegen.generate_program` returns it — so a
refactor of the emitters, of the printers below them or of the pipeline
that drives them shows up here as a changed digest instead of as a
numerical drift somewhere downstream.  A deliberate change to the
generated text updates the table in the same commit and says why.
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
from repro.codegen import (
    find_compiler,
    generate_c,
    generate_c_tasks,
    generate_fortran,
    generate_numpy,
    generate_program,
    generate_python,
    make_ode_system,
)
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


@pytest.fixture(scope="module", autouse=True)
def _isolated_native_cache(tmp_path_factory):
    """Build native units into a per-run directory, not the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_NATIVE_CACHE",
                  str(tmp_path_factory.mktemp("native-cache")))
        yield


#: (model, jacobian) -> sha256[:16] of the scalar-mode sources (native C
#: unit, C parallel, C serial, Fortran parallel, Fortran serial)
C_DIGESTS = {
    ("bearing2d-32", False): (
        "6e2cd7d4a9dff190", "6950b0023dceed86", "8a63f61ea11a94c1",
        "b22d5492049e42c2", "3ba673f1bbcb1d01",
    ),
    ("bearing2d-32", True): (
        "2d1b318a30c49b6e", "6f5989065abdfe32", "9eb870635b705215",
        "cebdaf73a4f92f32", "cde45fe9c98f92b1",
    ),
    ("bearing2d.om", False): (
        "e73405430276ab7d", "77f3fefc53bb1db1", "473cc421dbe540d3",
        "5c2fb58d2bac082c", "1fe96036f6215ea6",
    ),
    ("bearing2d.om", True): (
        "b4ad8e1492b12e38", "ab6dea919ca23b5f", "553ea87c4b07d95f",
        "3cf71c13cdb50f87", "6bcbfe5cb79364d2",
    ),
    ("bearing3d-8", False): (
        "fe46b461e451fdb5", "3e1bd3c52c12354a", "4ed9a824ac23c069",
        "9a4adf3faeb24534", "e093b82b5a3b94cd",
    ),
    ("bearing3d-8", True): (
        "e9d9bd930c02255b", "f3c59cbd0717fe8f", "c32998dd10119086",
        "029705d33a2ea183", "102f5b09ed8517e3",
    ),
    ("powerplant", False): (
        "ae643fb55780ce3b", "cffe85ad6c24d2be", "45b3e84960d6b191",
        "9d24b95952cedf88", "7f5514024b26145f",
    ),
    ("powerplant", True): (
        "b75b9c1d9f180c9a", "df358b424074b0aa", "f7b6364e2b23f3fa",
        "2c445ed4cca3fcf0", "6401caa593ccd204",
    ),
    ("servo", False): (
        "f32114fca5748336", "4cac2efa8d05c1e2", "a2d409baffc914c6",
        "6db6bfe980234493", "563516c045aeb1bc",
    ),
    ("servo", True): (
        "68e99af0ecca9ed7", "36acf3328e1e5055", "c52afd928185a0bf",
        "8be1f7abc921251b", "a569eb9bb69c835d",
    ),
}


@pytest.mark.parametrize("model, jacobian", sorted(C_DIGESTS))
def test_c_and_fortran_sources_are_pinned(compiled, model, jacobian):
    cm = compiled(model, "scalar")
    system, plan = cm.system, cm.program.plan
    texts = (
        # what the codegen pass prints for backend="c"
        generate_c_tasks(system, plan, jacobian=jacobian,
                         blocks=cm.partition.membership).source,
        *(generate_c(system, plan, mode=mode, jacobian=jacobian).source
          for mode in ("parallel", "serial")),
        *(generate_fortran(system, plan, mode=mode, jacobian=jacobian).source
          for mode in ("parallel", "serial")),
    )
    assert tuple(digest(text) for text in texts) == C_DIGESTS[model, jacobian]


SYSTEMS = {
    "servo": build_servo,
    "powerplant": build_powerplant,
    "bearing2d-4": lambda: build_bearing2d(BearingParams(num_rollers=4)),
    "bearing3d-8": lambda: build_bearing3d(
        Bearing3dParams(num_rollers=8, contact_harmonics=3)
    ),
}

#: (system, backend, jacobian) -> sha256[:16] of generate_program's
#: (python, numpy, native C) sources, None where it generates none
PROGRAM_DIGESTS = {
    ("bearing2d-4", "python", False): ("c6c5375173155ce7", None, None),
    ("bearing2d-4", "numpy", False): (
        "c6c5375173155ce7", "2c5013ecd9034ee3", None,
    ),
    ("bearing2d-4", "c", False): (
        "c6c5375173155ce7", None, "e15aba387e55b7ef",
    ),
    ("bearing2d-4", "c", True): (
        "a92d2dd97d9b7583", None, "206efb05b6983074",
    ),
    ("bearing3d-8", "python", False): ("57e7bcbb49c0811a", None, None),
    ("bearing3d-8", "numpy", False): (
        "57e7bcbb49c0811a", "981b19afd9463e4c", None,
    ),
    ("bearing3d-8", "c", False): (
        "57e7bcbb49c0811a", None, "fe46b461e451fdb5",
    ),
    ("bearing3d-8", "c", True): (
        "207d943d74192528", None, "7b065057c611d45c",
    ),
    ("powerplant", "python", False): ("e6540f799c702182", None, None),
    ("powerplant", "numpy", False): (
        "e6540f799c702182", "47048e29f2332937", None,
    ),
    ("powerplant", "c", False): (
        "e6540f799c702182", None, "ae643fb55780ce3b",
    ),
    ("powerplant", "c", True): (
        "9954be20860cef9d", None, "be9dd648f70475ba",
    ),
    ("servo", "python", False): ("b3468b049866448a", None, None),
    ("servo", "numpy", False): (
        "b3468b049866448a", "38a8d6755c4498c7", None,
    ),
    ("servo", "c", False): ("b3468b049866448a", None, "f32114fca5748336"),
    ("servo", "c", True): ("e8a96f4b52aecf2e", None, "54d5478f5caa579e"),
}


@pytest.mark.parametrize("name, backend, jacobian", sorted(PROGRAM_DIGESTS))
def test_generate_program_sources_are_pinned(name, backend, jacobian):
    if backend == "c" and find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    program = generate_program(
        make_ode_system(SYSTEMS[name]().flatten()), backend=backend,
        jacobian=jacobian,
    )
    vector, native = program.vector_module, program.native_module
    texts = (
        program.module.source,
        vector.source if vector is not None else None,
        native.native.source if native is not None else None,
    )
    assert tuple(
        None if text is None else digest(text) for text in texts
    ) == PROGRAM_DIGESTS[name, backend, jacobian]

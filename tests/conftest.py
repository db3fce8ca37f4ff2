"""Shared fixtures: small reference models compiled once per session."""

from __future__ import annotations

import pytest

from repro.apps import (
    BearingParams,
    build_bearing2d,
    build_powerplant,
    build_servo,
)
from repro.frontend import compile_model


@pytest.fixture(scope="module")
def intern_table_restored():
    """Put the hash-cons table back when a module that clears it is done.

    A clear drops identity with every node built before it; later modules
    build from module-level symbols and session-scoped models and assert
    ``is`` on what they get back (``Der(x).expr is x``).
    """
    from repro.symbolic.expr import _INTERN

    snapshot = dict(_INTERN)
    yield
    _INTERN.clear()
    _INTERN.update(snapshot)


@pytest.fixture(scope="session")
def oscillator_model():
    """Two independent harmonic oscillators (programmatic model)."""
    from repro.model import Model, ModelClass

    osc = ModelClass("Oscillator")
    x = osc.state("x", start=1.0)
    v = osc.state("v", start=0.0)
    k = osc.parameter("k", 4.0)
    osc.ode(x, v, label="Kin")
    osc.ode(v, -k * x, label="Dyn")

    model = Model("twoosc")
    model.instance("A", osc)
    model.instance("B", osc, overrides={"k": 9.0, "x": 2.0})
    return model


@pytest.fixture(scope="session")
def small_bearing_model():
    """A 4-roller bearing: same structure as the paper's, faster to build."""
    return build_bearing2d(BearingParams(num_rollers=4))


@pytest.fixture(scope="session")
def bearing_model():
    """The paper's 10-roller 2D bearing."""
    return build_bearing2d(BearingParams(num_rollers=10))


@pytest.fixture(scope="session")
def powerplant_model():
    return build_powerplant()


@pytest.fixture(scope="session")
def servo_model():
    return build_servo()


@pytest.fixture(scope="session")
def compiled_small_bearing(small_bearing_model):
    return compile_model(small_bearing_model)


@pytest.fixture(scope="session")
def compiled_bearing(bearing_model):
    return compile_model(bearing_model)


@pytest.fixture(scope="session")
def compiled_powerplant(powerplant_model):
    return compile_model(powerplant_model, jacobian=True)


@pytest.fixture(scope="session")
def compiled_servo(servo_model):
    return compile_model(servo_model, jacobian=True)

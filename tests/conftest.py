import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from torusgreen import green, lattice, theta, weier

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

HEX_TAU = complex(0.5, math.sqrt(3) / 2)


@pytest.fixture(scope="session")
def square_torus():
    return lattice.make_torus(1j)


@pytest.fixture(scope="session")
def hex_torus():
    return lattice.make_torus(HEX_TAU)


@pytest.fixture(scope="session")
def rhombic_torus():
    return lattice.make_torus(0.5 + 0.8j)


@pytest.fixture(scope="session")
def generic_torus():
    return lattice.make_torus(0.13 + 0.92j)


@pytest.fixture
def theta_passes(monkeypatch):
    """The theta series passes (theta._eval, and weier's binding of it) made
    from here on, starting with empty caches; only the invariants cache
    saves passes, the q power cache saves arithmetic."""
    calls = []
    for module in (theta, weier):
        def counted(*args, real=module._eval):
            calls.append(np.size(args[0]))
            return real(*args)

        monkeypatch.setattr(module, "_eval", counted)
    weier._invariants_cached.cache_clear()
    theta._q_powers.cache_clear()
    return calls

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusgreen import lattice
from torusgreen.errors import NonPositiveImaginaryPart

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-50, max_value=50)
tau_re = st.floats(allow_nan=False, allow_infinity=False, min_value=-2.0, max_value=2.0)
tau_im = st.floats(allow_nan=False, allow_infinity=False, min_value=0.05, max_value=5.0)


def test_make_torus_rejects_lower_half_plane():
    for bad in (1.0 - 1j, 2.0, 0.5 + 0j, complex(float("nan"), 1.0)):
        with pytest.raises(NonPositiveImaginaryPart):
            lattice.make_torus(bad)


def test_torus_area_is_imag_tau():
    # the cell's area is b = Im tau
    T = lattice.make_torus(0.25 + 0.9j)
    assert T.b == 0.9
    assert T.half_periods == (0.5, T.tau / 2.0, (1.0 + T.tau) / 2.0)


@given(x=finite, y=finite, a=tau_re, b=tau_im)
def test_split_coords_reconstructs_point(x, y, a, b):
    tau = complex(a, b)
    z = complex(x, y)
    t, s, m, n = lattice.split_coords(z, tau)
    assert -0.5 <= t < 0.5
    assert -0.5 <= s < 0.5
    assert m == np.floor(m) and n == np.floor(n)
    rebuilt = (t + m) + (s + n) * tau
    assert abs(rebuilt - z) < 1e-9 * max(1.0, abs(z))


@given(x=finite, y=finite, a=tau_re, b=tau_im)
def test_canonical_cell_is_idempotent(x, y, a, b):
    tau = complex(a, b)
    t, s, _, _ = lattice.split_coords(complex(x, y), tau)
    t2, s2, _, _ = lattice.split_coords(t + s * tau, tau)
    assert abs(t2 - t) < 1e-12
    assert abs(s2 - s) < 1e-12


def test_split_coords_vectorized_matches_scalar():
    tau = 0.3 + 1.1j
    rng = np.random.default_rng(7)
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    t, s, m, n = lattice.split_coords(z, tau)
    for k in range(z.size):
        tk, sk, mk, nk = lattice.split_coords(z[k], tau)
        assert (t[k], s[k], m[k], n[k]) == (tk, sk, mk, nk)


@given(a=tau_re, b=tau_im)
def test_reduce_modulus_lands_in_fundamental_domain(a, b):
    tau = complex(a, b)
    red, mat = lattice.reduce_modulus(tau)
    (pa, pb), (pc, pd) = mat
    assert pa * pd - pb * pc == 1
    assert abs((pa * tau + pb) / (pc * tau + pd) - red) < 1e-10 * max(1.0, abs(red))
    assert -0.5 - 1e-12 <= red.real <= 0.5 + 1e-12
    assert abs(red) >= 1.0 - 1e-12


@given(a=tau_re, b=tau_im)
def test_torus_frame_spans_the_same_lattice(a, b):
    # Z + tau Z = lam (Z + tau_r Z): lam and lam tau_r are c tau + d and
    # a tau + b, a unimodular integral basis of Z + tau Z
    T = lattice.make_torus(complex(a, b))
    (pa, pb), (pc, pd) = T.mat
    assert T.lam == pc * T.tau + pd
    assert abs(T.lam * T.tau_r - (pa * T.tau + pb)) < 1e-10 * max(1.0, abs(T.tau))
    assert T.tau_r.imag >= math.sqrt(3) / 2 - 1e-12
    assert abs(T.tau_r.imag - T.b / abs(T.lam) ** 2) < 1e-10 * T.tau_r.imag


def test_reduce_modulus_fixed_points():
    red, mat = lattice.reduce_modulus(1j)
    assert red == 1j and mat == ((1, 0), (0, 1))
    red, _ = lattice.reduce_modulus(1j + 5)
    assert red == 1j
    red, _ = lattice.reduce_modulus(0.1j)
    assert abs(red - 10j) < 1e-12
    hex_tau = cmath.exp(1j * cmath.pi / 3)
    red, _ = lattice.reduce_modulus(hex_tau - 1.0)
    assert abs(red - hex_tau) < 1e-12


def test_random_tori_deterministic_and_in_range():
    a = lattice.random_tori(12, seed=3)
    b = lattice.random_tori(12, seed=3)
    assert [T.tau for T in a] == [T.tau for T in b]
    for T in a:
        assert -0.5 <= T.tau.real < 0.5
        assert 0.3 <= T.b <= 2.5
    c = lattice.random_tori(12, seed=4)
    assert [T.tau for T in a] != [T.tau for T in c]

import dataclasses

import numpy as np

import oracles
from torusgreen import lattice, selftest, weier

EXPECTED_NAMES = [
    "legendre_relation",
    "e_sum",
    "wp_differential_equation",
    "zeta_addition",
    "heat_equation",
    "triple_product",
    "jacobi_imaginary_cross",
]


def test_run_all_passes():
    rep = selftest.run_all(n_samples=120)
    assert rep.ok
    assert [c.name for c in rep.checks] == EXPECTED_NAMES
    for c in rep.checks:
        assert c.ok
        assert c.max_residual < c.tolerance
        assert c.n_samples > 0


def test_run_all_is_deterministic():
    a = selftest.run_all(n_samples=48)
    b = selftest.run_all(n_samples=48)
    assert [c.max_residual for c in a.checks] == [c.max_residual for c in b.checks]


def test_report_flags_failing_check():
    bad = selftest.CheckResult(name="synthetic", max_residual=1.0,
                               tolerance=1e-9, n_samples=1)
    good = selftest.CheckResult(name="fine", max_residual=1e-12,
                                tolerance=1e-9, n_samples=1)
    assert not bad.ok
    assert good.ok
    assert not selftest.SelftestReport(checks=(good, bad)).ok
    assert selftest.SelftestReport(checks=(good,)).ok


def test_individual_residuals_small_on_fresh_samples():
    T = lattice.make_torus(0.21 + 1.13j)
    assert selftest.legendre_residual(T) < 1e-12
    assert selftest.e_sum_residual(T) < 1e-12
    z = 0.23 + 0.11j
    assert np.max(selftest.wp_de_residual(z, T)) < 1e-9
    assert np.max(selftest.heat_equation_residual(z, T)) < 1e-7
    assert np.max(selftest.triple_product_residual(z, T)) < 1e-10
    assert np.max(selftest.jacobi_cross_residual(z, T)) < 1e-10
    assert np.max(selftest.zeta_addition_residual(z, T)) < 1e-9


def test_legendre_residual_reads_eta2_from_zeta(monkeypatch):
    # the invariants define eta2 through the Legendre relation itself, so
    # only an eta2 taken from zeta(tau/2) lets the check fail
    T = lattice.make_torus(0.21 + 1.13j)
    real = weier.zeta
    monkeypatch.setattr(weier, "zeta", lambda z, torus: real(z, torus) + 1e-6)
    assert selftest.legendre_residual(T) > 1e-7


def test_e_sum_catches_an_eta1_shift_that_keeps_the_series_values(monkeypatch):
    # e_k + d and eta1 - d leave every (log theta1)'' = -(e_k + eta1) as it
    # was, so only an eta1 from outside the theta series can see the shift
    T = lattice.make_torus(0.21 + 1.13j)
    inv = weier.invariants(T)
    d = 1e-6
    shifted = dataclasses.replace(inv, e1=inv.e1 + d, e2=inv.e2 + d, e3=inv.e3 + d,
                                  eta1=inv.eta1 - d)
    assert selftest.e_sum_residual(T) < 1e-12
    monkeypatch.setattr(weier, "invariants", lambda torus: shifted)
    assert selftest.e_sum_residual(T) > 1e-7


def test_eta1_lambert_matches_mpmath():
    for tau in (1j, 0.5 + 0.8j, -0.31 + 0.3j, 0.05j):
        ref = oracles.mp_eta1(tau)
        assert abs(selftest.eta1_lambert(tau) - ref) < 1e-13 * abs(ref)

import dataclasses
import math

import numpy as np
import pytest

import oracles
from torusgreen import green, lattice, selftest, weier

EXPECTED_NAMES = [
    "legendre_relation",
    "e_sum",
    "wp_differential_equation",
    "zeta_addition",
    "heat_equation",
    "triple_product",
    "reduced_frame_cross",
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
    for tau in (3.2 + 0.9j, 0.5 + 0.8j, -1.0 / T.tau):
        assert np.max(selftest.frame_cross_residual(z, lattice.make_torus(tau))) < 1e-10
    assert np.max(selftest.zeta_addition_residual(z, T)) < 1e-9


def _drop_value_weight(ev, torus):
    # the weight 1/2 shift C(tau_r) - C(tau) of the value
    return dataclasses.replace(
        ev, value_rel=ev.value_rel - math.log(abs(torus.lam)) / (4.0 * math.pi))


def _hessian_weight_2(ev, torus):
    # det Hess G carried with |lam|^-2 in place of |lam|^-4
    return dataclasses.replace(ev, hessian=dataclasses.replace(
        ev.hessian, det=ev.hessian.det * abs(torus.lam) ** 2))


def _gradient_unrotated(ev, torus):
    # the gradient scaled by 1/|lam| but not rotated by arg lam
    gx, gy = ev.grad
    g = (np.asarray(gx) - 1j * np.asarray(gy)) * torus.lam / abs(torus.lam)
    return dataclasses.replace(ev, grad=(g.real, -g.imag))


@pytest.mark.parametrize("corrupt", [_drop_value_weight, _hessian_weight_2, _gradient_unrotated])
def test_frame_cross_catches_a_wrong_weight_law(corrupt, monkeypatch):
    real = green.evaluate
    monkeypatch.setattr(green, "evaluate", lambda z, torus: corrupt(real(z, torus), torus))
    rep = selftest.run_all(n_samples=48)
    failed = [c.name for c in rep.checks if not c.ok]
    assert failed == ["reduced_frame_cross"]
    T = lattice.make_torus(0.5 + 0.8j)
    assert np.max(selftest.frame_cross_residual(np.array([0.23 + 0.11j]), T)) > 1e-3


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

"""Profiles and the dilation-to-coefficients bridge."""

import math

import numpy as np
import pytest

from rieszcert import dilation as dl
from rieszcert import gross_pitaevskii as gp


def test_lacunary_coeff_examples():
    assert dl.LacunaryGeometricProfile(0.7, 2).coeff(1) == 1.0
    assert dl.LacunaryGeometricProfile(0.3, 2).coeff(8) == pytest.approx(0.027)
    assert dl.LacunaryGeometricProfile(0.3, 2).coeff(3) == 0.0
    # 12 = 3 * 4 is not a pure power
    assert dl.LacunaryGeometricProfile(0.3, 3).coeff(12) == 0.0


def test_odd_mode_coeff_values():
    assert dl.OddModeProfile(0.37).coeff(1) == pytest.approx(1.0)
    assert dl.OddModeProfile(0.37).coeff(2) == 0.0
    assert dl.OddModeProfile(0.5).coeff(3) == pytest.approx(2 / 7)


def test_trajectory_coeffs_identity_at_one():
    profiles = {
        1: dl.LacunaryGeometricProfile(0.3, 2, 0.5),
        2: dl.OddModeProfile(0.4, 0.5),
    }
    for n, prof in profiles.items():
        assert dl.trajectory_coeffs(lambda m: profiles[m], 0.5, 1, n) == 1.0


def test_trajectory_coeffs_lacunary():
    lam, p, alpha = 0.3, 2, 1.0
    prof = dl.LacunaryGeometricProfile(lam, p, alpha)
    for l in range(1, 5):
        got = dl.trajectory_coeffs(lambda n: prof, alpha, p ** l, 1)
        assert got == pytest.approx((lam * p ** alpha) ** l)
    assert dl.trajectory_coeffs(lambda n: prof, alpha, 3, 1) == 0.0


def test_trajectory_coeffs_odd_modes():
    q, alpha = 0.5, 0.7
    prof = dl.OddModeProfile(q, alpha)
    for l in range(0, 4):
        j = 2 * l + 1
        want = j ** alpha * (1 - q) * q ** l / (1 - q ** j)
        assert dl.trajectory_coeffs(lambda n: prof, alpha, j, 3) == \
            pytest.approx(want)
    assert dl.trajectory_coeffs(lambda n: prof, alpha, 6, 3) == 0.0


def _chain(prof, alpha, n, j, x):
    """sum_j c_j(n) h_{jn}(x) over the modes j, with the basis function
    h_m(x) = sqrt(2) sin(m pi x) / m^alpha written out."""
    c = dl.trajectory_coeffs(lambda m: prof, alpha, j, n)
    m = j[:, None] * n
    return (c[:, None] * math.sqrt(2) * np.sin(np.pi * m * x)
            / m.astype(float) ** alpha).sum(axis=0)


@pytest.mark.parametrize("family", ["weierstrass", "gp"])
def test_basis_chain_identity(family):
    # the dilation g_n = f(n x) / n^alpha of the family's function vs
    # its h-basis expansion g_n = sum_j c_j(n) h_{jn}
    x = np.linspace(0, 1, 257)
    n = 3
    if family == "weierstrass":
        lam, p, alpha = 0.45, 2, 0.5
        levels = np.arange(48)
        direct = math.sqrt(2) * sum(
            lam ** l * np.sin(p ** l * n * np.pi * x) for l in levels) \
            / n ** alpha
        chain = _chain(dl.LacunaryGeometricProfile(lam, p, alpha), alpha,
                       n, p ** levels, x)
        assert np.abs(direct - chain).max() < 1e-12
        return
    # u_n = 2^{5/2} pi n sqrt(q) / (1 - q) sum_j f_hat(j) sin(j n pi x)
    j = np.arange(1, 400)
    for mu in (0.5, 0.9, 0.99):
        q = gp.nome(mu)
        for alpha in (0.0, 1.0):
            scale = ((1 - q) * math.sqrt(2)
                     / (2 ** 2.5 * math.pi * n * math.sqrt(q) * n ** alpha))
            direct = gp.eigenfunction(n, mu, x) * scale
            chain = _chain(dl.OddModeProfile(q, alpha), alpha, n, j, x)
            assert np.abs(direct - chain).max() < 1e-12


def test_h_basis_norm_is_one():
    # h_n = sqrt(2) sin(n pi x)/n^alpha: its alpha-norm n^alpha * n^-alpha
    # is 1 by construction (up to one rounding of the power function)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for n in range(1, 101):
            norm_sq = (n ** alpha * n ** (-alpha)) ** 2
            assert abs(norm_sq - 1.0) < 1e-14

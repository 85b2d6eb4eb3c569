"""Profiles, Sobolev norms, and the dilation-to-coefficients bridge."""

import math

import numpy as np
import pytest

from rieszcert import dilation as dl
from rieszcert.errors import DivergentProfile


def test_single_mode_norm():
    for alpha in (0.0, 0.7, 2.0):
        res = dl.sobolev_norm(dl.SingleModeProfile(alpha), 10)
        assert res.value == 1.0 and res.tail_sq_bound == 0.0


def test_lacunary_norm_geometric():
    lam = 0.5
    res = dl.sobolev_norm(dl.LacunaryGeometricProfile(lam, 2, 0.0), 10 ** 6)
    assert res.value ** 2 + res.tail_sq_bound >= 1 / (1 - lam ** 2) - 1e-12
    assert res.value ** 2 <= 1 / (1 - lam ** 2)


def test_lacunary_divergence_at_critical_exponent():
    # lam = p^-alpha is exactly the membership boundary
    prof = dl.LacunaryGeometricProfile(0.5, 2, alpha=1.0)
    with pytest.raises(DivergentProfile):
        dl.sobolev_norm(prof, 100)


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


def test_dilated_sample_single_mode():
    x = np.linspace(0, 1, 301)
    got = dl.dilated_sample(dl.SingleModeProfile(), 1, 0.0, x)
    assert np.abs(got - math.sqrt(2) * np.sin(np.pi * x)).max() < 1e-12


def test_dilated_sample_vanishes_at_zero():
    x = np.array([0.0, 0.5, 1.0])
    for prof in (dl.LacunaryGeometricProfile(0.5, 2, 0.0),
                 dl.OddModeProfile(0.6, 0.0)):
        vals = dl.dilated_sample(prof, 3, 0.0, x)
        assert vals[0] == 0.0 and vals[-1] == 0.0


@pytest.mark.parametrize("prof,alpha", [
    (dl.LacunaryGeometricProfile(0.45, 2, 0.5), 0.5),
    (dl.OddModeProfile(0.5, 1.0), 1.0),
])
def test_basis_chain_identity(prof, alpha):
    # direct dilation of the profile series vs the h-basis expansion
    # g_n = sum_j c_j(n) h_{jn}
    x = np.linspace(0, 1, 257)
    n = 3
    direct = dl.dilated_sample(prof, n, alpha, x)
    chain = np.zeros_like(x)
    for j in prof.nonzero_modes(1 << 50):
        c = dl.trajectory_coeffs(lambda m: prof, alpha, j, n)
        if abs(c) * (j * n) ** (-alpha) < 1e-14 and j > 64:
            break
        chain += c * dl.h_basis(j * n, alpha, x)
    assert np.abs(direct - chain).max() < 1e-10


def test_h_basis_norm_is_one():
    # h_n = sqrt(2) sin(n pi x)/n^alpha: its alpha-norm n^alpha * n^-alpha
    # is 1 by construction (up to one rounding of the power function)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for n in range(1, 101):
            norm_sq = (n ** alpha * n ** (-alpha)) ** 2
            assert abs(norm_sq - 1.0) < 1e-14


def test_sobolev_norm_monotone_in_alpha():
    values = []
    for alpha in (0.0, 0.5, 1.0, 1.5):
        prof = dl.OddModeProfile(0.5, alpha)
        values.append(dl.sobolev_norm(prof, 400).value)
    assert all(v1 <= v2 + 1e-12 for v1, v2 in zip(values, values[1:]))

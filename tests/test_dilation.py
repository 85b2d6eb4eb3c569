"""Profiles and the dilation-to-coefficients bridge."""

import math

import numpy as np
import pytest

from rieszcert import dilation as dl
from rieszcert import gross_pitaevskii as gp
from rieszcert.util import log_nome


def test_lacunary_coeff_examples():
    assert dl.LacunaryGeometricProfile(0.7, 2).coeffs(1) == 1.0
    assert dl.LacunaryGeometricProfile(0.3, 2).coeffs(8) == \
        pytest.approx(0.027)
    assert dl.LacunaryGeometricProfile(0.3, 2).coeffs(3) == 0.0
    # 12 = 3 * 4 is not a pure power
    assert dl.LacunaryGeometricProfile(0.3, 3).coeffs(12) == 0.0


def test_odd_mode_coeff_values():
    assert dl.OddModeProfile(0.37).coeffs(1) == pytest.approx(1.0)
    assert dl.OddModeProfile(0.37).coeffs(2) == 0.0
    assert dl.OddModeProfile(0.5).coeffs(3) == pytest.approx(2 / 7)


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


def _odd_mode_coeffs_reference(q, j):
    """OddModeProfile.coeffs as spelled before the odd-mode kernel."""
    out = np.zeros(j.shape)
    odd = (j >= 1) & (j % 2 == 1)
    l = (j[odd] - 1) // 2
    lq = log_nome(q)
    out[odd] = -(1.0 - q) * np.exp(l * lq) / np.expm1((2 * l + 1) * lq)
    return out


def test_odd_mode_profile_is_the_old_spelling_bit_for_bit():
    # -(1-q) e / expm1 and e (1-q) / (-expm1) round alike: 3000 nomes
    # over [1e-300, 1) at the modes j <= 4000
    rng = np.random.default_rng(27)
    qs = np.concatenate([10.0 ** -rng.uniform(0.0, 300.0, 1000),
                         rng.uniform(0.0, 1.0, 1000),
                         1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 1000)])
    j = np.arange(-1, 4001)
    for q in qs.tolist():
        if 0.0 < q < 1.0:
            assert np.array_equal(dl.OddModeProfile(q).coeffs(j),
                                  _odd_mode_coeffs_reference(q, j))


def test_sections_and_s_alpha_read_one_kernel():
    # s_alpha is the l1 sum of column n = 1 of C: 1 + sum of the section
    # coefficients c_j(1) over the odd 3 <= j <= 2 terms - 1. The powers
    # j^alpha are taken in Python on one side and by numpy on the other,
    # and the sums run in different orders, so they agree to rounding
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(2000):
        q = float(10.0 ** -rng.uniform(0.0, 6.0)) if rng.random() < 0.3 \
            else float(rng.uniform(0.0, 0.99))
        alpha, terms = float(rng.uniform(0.0, 4.0)), int(rng.integers(1, 600))
        column = gp.cj_rule(q, alpha)(np.arange(3, 2 * terms, 2), 1)
        total = 1.0 + float(column.sum())
        want = gp.s_alpha(q, alpha, terms).value
        worst = max(worst, abs(total - want) / want)
    assert worst <= 16 * np.finfo(float).eps

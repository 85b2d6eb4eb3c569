"""Elliptic kernel, mode sums, thresholds, and eigenpairs."""

import math

import numpy as np
import pytest

from rieszcert import gross_pitaevskii as gp
from rieszcert.dilation import OddModeProfile
from rieszcert.errors import ModulusOutOfRange, NotInG2


# ---------------------------------------------------------------------------
# elliptic kernel

def test_complete_elliptic_degenerate():
    K, E = gp.complete_elliptic(0.0)
    assert abs(K - math.pi / 2) < 1e-14
    assert abs(E - math.pi / 2) < 1e-14


def test_complete_elliptic_self_complementary():
    mu = 1 / math.sqrt(2)
    K, _ = gp.complete_elliptic(mu)
    Kp, _ = gp.complete_elliptic(math.sqrt(1 - mu * mu))
    assert K == pytest.approx(Kp, abs=1e-14)


def _quadrature_K(mu, points=10 ** 6):
    # composite Simpson for the quarter-period integral after t = sin(theta),
    # which removes the endpoint singularity of the defining integrand
    theta = np.linspace(0.0, math.pi / 2, points + 1)
    f = 1.0 / np.sqrt(1.0 - (mu * np.sin(theta)) ** 2)
    h = theta[1] - theta[0]
    return h / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-2:2].sum())


def test_agm_matches_quadrature():
    K, _ = gp.complete_elliptic(0.9)
    assert abs(K - _quadrature_K(0.9)) < 1e-9


def test_elliptic_rejects_bad_modulus():
    with pytest.raises(ModulusOutOfRange):
        gp.complete_elliptic(1.0)
    with pytest.raises(ModulusOutOfRange):
        gp.complete_elliptic(-0.1)


def test_nome_self_complementary_point():
    assert gp.nome(1 / math.sqrt(2)) == pytest.approx(
        math.exp(-math.pi), abs=1e-12)


def test_nome_roundtrip_and_monotone():
    for mu in np.arange(0.1, 0.95, 0.1):
        assert abs(gp.modulus_from_nome(gp.nome(mu)) - mu) < 1e-10
    qs = [gp.nome(mu) for mu in np.arange(0.05, 1.0, 0.05)]
    assert all(q1 < q2 for q1, q2 in zip(qs, qs[1:]))
    assert qs[0] < 1e-3


def test_elliptic_point_invariants():
    for mu in (0.2, 0.5, 0.8):
        pt = gp.elliptic_point(mu)
        K, _ = gp.complete_elliptic(mu)
        Kp, _ = gp.complete_elliptic(math.sqrt(1 - mu * mu))
        assert pt.q == pytest.approx(math.exp(-math.pi * Kp / K), abs=1e-12)
        assert pt.K > math.pi / 2
        assert 0.0 < pt.E < math.pi / 2


# ---------------------------------------------------------------------------
# mode sums and Lambert series

def test_s_alpha_small_q_limit():
    assert gp.s_alpha(1e-12, 0.0).value == pytest.approx(1.0, abs=1e-11)
    assert gp.s_alpha(1e-12, 2.0).value == pytest.approx(1.0, abs=1e-10)


def test_s_alpha_at_reference_threshold():
    assert gp.s_alpha(0.76806, 0.0).value == pytest.approx(2.0, abs=1e-3)


def test_s_alpha_increasing_in_q_and_alpha():
    qs = np.arange(0.05, 0.95, 0.05)
    for alpha in (0.0, 1.0, 2.0):
        vals = [gp.s_alpha(q, alpha).value for q in qs]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    for q in (0.2, 0.5, 0.8):
        vals = [gp.s_alpha(q, a).value for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))


def test_s_alpha_tail_bound_honest():
    for q in (0.1, 0.4, 0.7, 0.9):
        for alpha in (0.0, 1.0, 2.0):
            coarse = gp.s_alpha(q, alpha, 500)
            fine = gp.s_alpha(q, alpha, 2000)
            assert abs(fine.value - coarse.value) <= coarse.tail_bound


def test_lambert_series_constant_weight():
    # sum 1/(2^n - 1), evaluated term by term as an independent check
    got = gp.lambert_series(lambda n: 1.0, 0.5, 300)
    direct = sum(1.0 / (2.0 ** n - 1.0) for n in range(1, 60))
    assert got.value == pytest.approx(direct, abs=1e-13)
    assert got.value == pytest.approx(1.6066951, abs=1e-7)


def test_lambert_series_small_r():
    r = 1e-6
    got = gp.lambert_series(lambda n: 1.0, r, 50).value
    assert got == pytest.approx(r / (1 - r), abs=3 * r ** 2)


def test_lambert_splitting_identity():
    # L_f(r) - L_f(r^2) = sum f(n) r^n / (1 - r^{2n})
    rng = np.random.default_rng(19)
    for alpha in (0.0, 1.0, 2.0):
        f = lambda n: float(n) ** alpha
        for r in rng.uniform(0.05, 0.8, 6):
            lhs = (gp.lambert_series(f, r, 2000).value
                   - gp.lambert_series(f, r * r, 2000).value)
            n = np.arange(1, 2000)
            rhs = float((n ** alpha * r ** n / (1.0 - r ** (2 * n))).sum())
            assert abs(lhs - rhs) < 1e-12


def test_s_alpha_lambert_agreement():
    for q in np.arange(0.1, 0.75, 0.1):
        for alpha in (0.0, 1.0, 2.0):
            assert abs(gp.s_alpha(q, alpha, 2000).value
                       - gp.s_alpha_lambert(q, alpha)) < 1e-10


def test_s_alpha_lambert_alpha0_collapses():
    # at alpha = 0 the two middle series coincide:
    # ((1-q)/sqrt q)(L1(sqrt q) - 2 L1(q) + L1(q^2))
    one = lambda n: 1.0
    for q in (0.2, 0.5, 0.7):
        sq = math.sqrt(q)
        explicit = (1 - q) / sq * (
            gp.lambert_series(one, sq, 2000).value
            - 2.0 * gp.lambert_series(one, q, 2000).value
            + gp.lambert_series(one, q * q, 2000).value)
        assert abs(gp.s_alpha_lambert(q, 0.0) - explicit) < 1e-12


def test_s1_elliptic_agreement():
    for q in np.arange(0.1, 0.65, 0.1):
        assert abs(gp.s1_elliptic(q)
                   - gp.s_alpha(q, 1.0, 3000).value) < 1e-8


def test_lambert_kernel_identity_at_self_complementary_nome():
    K, E = gp.complete_elliptic(1 / math.sqrt(2))
    want = K * (K - E) / (2 * math.pi ** 2)
    assert abs(gp.lambert_kernel_elliptic(math.exp(-math.pi)) - want) < 1e-12
    n = np.arange(1, 200)
    r = math.exp(-math.pi)
    direct = float((n * r ** n / (1.0 - r ** (2 * n))).sum())
    assert abs(direct - want) < 1e-12


# ---------------------------------------------------------------------------
# quadratic disc minimum

def test_min_quadratic_branches():
    assert gp.min_quadratic(0.0, 0.0) == 1.0
    assert gp.min_quadratic(0.3, 0.3) == pytest.approx(
        0.7 * math.sqrt(1 - 0.075), abs=1e-12)
    assert gp.min_quadratic(0.5, 0.1) == pytest.approx(0.6, abs=1e-12)
    assert gp.min_quadratic(0.4, 0.0) == pytest.approx(0.6)


def test_min_quadratic_rejects_outside():
    with pytest.raises(NotInG2):
        gp.min_quadratic(1.2, 0.0)
    with pytest.raises(NotInG2):
        gp.min_quadratic(0.5, 1.3)
    with pytest.raises(NotInG2):
        gp.min_quadratic(-0.1, 0.2)


def test_min_quadratic_against_circle_grid():
    rng = np.random.default_rng(29)
    theta = np.linspace(0.0, 2 * np.pi, 200_001)
    z = np.exp(1j * theta)
    z2 = z * z
    for _ in range(60):
        if rng.uniform() < 0.5:
            lam = rng.uniform(0, 0.9, 2)
            a, b = lam.sum(), lam.prod()
        else:
            x, y = rng.uniform(0, 0.9), rng.uniform(0, 0.9)
            if x * x + y * y >= 0.81:
                continue
            a, b = 2 * x, x * x + y * y
        if b <= 1e-6:
            continue
        grid_min = float(np.abs(1.0 + a * z + b * z2).min())
        assert gp.min_quadratic(a, b) == pytest.approx(grid_min, rel=1e-6)


# ---------------------------------------------------------------------------
# thresholds

def test_solve_r0_reference_value():
    assert gp.solve_r0(0.0) == pytest.approx(0.76806, abs=1e-3)


def test_solve_r0_decreasing_in_alpha():
    vals = [gp.solve_r0(a) for a in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_solve_r0_alpha1_cross_check():
    # at the root of s_1(q) = 2 the elliptic closed form agrees
    r = gp.solve_r0(1.0)
    assert abs(gp.s1_elliptic(r) - 2.0) < 1e-6


def test_solve_r1_dominates_r0():
    assert gp.solve_r1(0.0, 3) > gp.solve_r0(0.0)
    assert gp.solve_r1(2.0, 3) >= gp.solve_r0(2.0) - 1e-12


def test_solve_r1_root_residual():
    for alpha, p in ((0.0, 3), (1.0, 3), (0.5, 5)):
        r = gp.solve_r1(alpha, p)
        lhs = gp.s_alpha(r, alpha).value
        rhs = 2.0 + 0.5 * gp.b_weight(r, alpha, p) / p ** alpha
        assert abs(lhs - rhs) < 1e-7


def test_solve_r1_tilde_ordering_and_residual():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        r1 = gp.solve_r1(alpha, 3)
        rt = gp.solve_r1_tilde(alpha, 3)
        assert rt > r1
        a = gp.a_weight(rt, alpha, 3)
        b = gp.b_weight(rt, alpha, 3)
        resid = (gp.s_alpha(rt, alpha).value - 1.0 - a - b
                 - gp.min_quadratic(a, b))
        assert abs(resid) < 1e-7


def test_thresholds_record():
    t = gp.thresholds(0.0, 3)
    assert t.r0 < t.r1 < t.r1_tilde
    assert t.r0 == pytest.approx(0.76806, abs=1e-3)


# ---------------------------------------------------------------------------
# certification

def test_certify_T1_examples():
    assert gp.certify_T1(0.70, 0.0, 3).verdict is True
    r1 = gp.solve_r1(0.0, 3)
    assert gp.certify_T1(r1 + 0.01, 0.0, 3).verdict is False


def test_certify_T1_matches_threshold():
    rng = np.random.default_rng(55)
    for _ in range(40):
        alpha = float(rng.uniform(0, 2))
        p = int(rng.choice([2, 3, 5]))
        sup_q = float(rng.uniform(0.02, 0.98))
        r1 = gp.solve_r1(alpha, p)
        if abs(sup_q - r1) <= 1e-6:
            continue
        assert gp.certify_T1(sup_q, alpha, p).verdict is (sup_q < r1)


def test_certify_T1_margins_present():
    cert = gp.certify_T1(0.5, 0.0, 3)
    for key in ("a", "b", "tail_sum", "floor", "tail_margin",
                "membership_margin", "branch2_margin", "delegate_margin"):
        assert key in cert.margins
    assert cert.kind == "T1" and cert.mode == "envelope-rigorous"


def test_certify_Td_experimental():
    # degree-3 structured part: certified strictly below the degree-2
    # threshold, refused far above it, and labeled heuristic
    cert = gp.certify_Td(0.70, 0.0, 3, degree=3)
    assert cert.verdict is True
    assert cert.mode == "sample-heuristic"
    assert cert.parameters["experimental"] is True
    assert gp.certify_Td(0.95, 0.0, 3, degree=3).verdict is False
    # moving a mode from the budget into the structured part can only
    # help at the envelope parameter
    for q in (0.5, 0.7, 0.79):
        m2 = gp.certify_Td(q, 0.0, 3, degree=2).margins["margin"]
        m3 = gp.certify_Td(q, 0.0, 3, degree=3).margins["margin"]
        assert m3 >= m2 - 1e-12


def test_certify_T1_structural_checks_follow_for_odd_p():
    # the threshold inequality implies every structural check of the
    # envelope argument when the weights are genuine series terms
    rng = np.random.default_rng(66)
    for _ in range(30):
        alpha = float(rng.uniform(0, 2))
        p = int(rng.choice([3, 5, 7]))
        sup_q = float(rng.uniform(0.02, 0.95))
        cert = gp.certify_T1(sup_q, alpha, p)
        if cert.verdict:
            assert cert.parameters["structural_checks_ok"] is True
            assert cert.margins["tail_sum"] >= 0.0


# ---------------------------------------------------------------------------
# eigenpairs

def test_eigenvalue_square_well_limit():
    assert gp.eigenvalue(1, 1e-8) == pytest.approx(math.pi ** 2, rel=1e-10)
    K, _ = gp.complete_elliptic(0.5)
    assert gp.eigenvalue(2, 0.5) == pytest.approx(16 * 1.25 * K * K)


def test_eigenfunction_boundary_values_exact():
    x = np.linspace(0.0, 1.0, 101)
    for n in (1, 2, 3):
        u = gp.eigenfunction(n, 0.6, x)
        assert u[0] == 0.0 and u[-1] == 0.0


def test_eigenfunction_matches_amplitude():
    # peak value of the elliptic sine wave is 2^{3/2} n mu K(mu)
    x = np.linspace(0.0, 1.0, 4001)
    for n, mu in ((1, 0.5), (2, 0.8)):
        u = gp.eigenfunction(n, mu, x)
        K, _ = gp.complete_elliptic(mu)
        assert np.abs(u).max() == pytest.approx(2 ** 1.5 * n * mu * K,
                                                rel=1e-6)


def test_eigenfunction_ode_residual_second_differences():
    # plain 3-point second differences at h = 1e-3 for the fundamental
    # mode at mu = 0.5
    h = 1e-3
    x = np.arange(0.0, 1.0 + h / 2, h)
    u = gp.eigenfunction(1, 0.5, x)
    eta = gp.eigenvalue(1, 0.5)
    upp = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
    resid = np.abs(upp - u[1:-1] ** 3 + eta * u[1:-1]).max()
    assert resid < 1e-3


def test_cj_rule_matches_profile():
    def coeff(q, j):
        return OddModeProfile(q).coeff(j)

    rule = gp.cj_rule(0.5, 1.0)
    assert rule(3, 1) == pytest.approx(3.0 * coeff(0.5, 3))
    assert rule(4, 1) == 0.0
    varying = gp.cj_rule(lambda n: 0.3 if n == 1 else 0.6, 0.0)
    assert varying(3, 1) == pytest.approx(coeff(0.3, 3))
    assert varying(3, 2) == pytest.approx(coeff(0.6, 3))

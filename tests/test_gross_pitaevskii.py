"""Elliptic kernel, mode sums, thresholds, and eigenpairs."""

import json
import logging
import math
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from rieszcert import gross_pitaevskii as gp
from rieszcert import polydisc
from rieszcert.dilation import OddModeProfile
from rieszcert.errors import (BracketFailure, ModulusOutOfRange, NotInG2,
                              RieszcertError)
from rieszcert.util import bisect_monotone, log_nome


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


def test_nome_monotone():
    qs = [gp.nome(mu) for mu in np.arange(0.05, 1.0, 0.05)]
    assert all(q1 < q2 for q1, q2 in zip(qs, qs[1:]))
    assert qs[0] < 1e-3


def test_nome_and_complete_elliptic_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for mu in np.linspace(0.01, 0.99, 99):
        want = float(mpmath.qfrom(k=float(mu)))
        assert abs(gp.nome(mu) - want) <= 1e-14 * want
    # mpmath takes the parameter m = mu^2
    for mu in np.linspace(0.0, 0.99, 100):
        K, E = gp.complete_elliptic(mu)
        m = float(mu) ** 2
        for got, want in ((K, float(mpmath.ellipk(m))),
                          (E, float(mpmath.ellipe(m)))):
            assert abs(got - want) <= 1e-15 * want


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


def test_closed_forms_of_s_alpha_at_tiny_q():
    # K - E as K sum 2^{n-1} c_n^2 keeps s1_elliptic from cancelling to
    # 0.0 below q ~ 1e-40; s_alpha_lambert drops L_g(q^2) where q^2
    # underflows instead of refusing r = 0
    rng = np.random.default_rng(31)
    qs = [*10.0 ** -rng.uniform(0.0, 300.0, 40), 0.6, 1e-16, 1e-40,
          1.5e-154, 1e-160, 1e-300]
    for q in (float(q) for q in qs if q <= 0.6):
        want = gp.s_alpha(q, 1.0, 3000).value
        assert abs(gp.s1_elliptic(q) - want) <= 1e-13 * want
        for alpha in (0.0, 1.0, 2.5):
            want = gp.s_alpha(q, alpha, 3000).value
            assert abs(gp.s_alpha_lambert(q, alpha) - want) <= 1e-13 * want


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


def _membership_grid():
    """(a, b) over [0, 3] x (0, 2] with the edges of G_2 and of the root
    formulas: b = 1, a = 1 + b (a root at -1), a^2 = 4b (a double root)."""
    grid_a = [float(a) for a in np.linspace(0.0, 3.0, 61)]
    grid_b = [float(b) for b in np.linspace(0.0, 2.0, 41)[1:]]
    points = [(a, b) for a in grid_a for b in grid_b]
    points += [(a, 1.0) for a in grid_a]
    points += [(1.0 + b, b) for b in grid_b]
    points += [(2.0 * math.sqrt(b), b) for b in grid_b]
    return points


def _exact_root_margin(a, b):
    """min |root| - 1 of 1 + a z + b z^2 from the float inputs in
    60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        A, B = Decimal(a), Decimal(b)
        disc = A * A - 4 * B
        if disc < 0:
            return float(1 / B.sqrt() - 1)
        return float(2 / (A + disc.sqrt()) - 1)


def test_quadratic_root_margin_matches_the_root_oracle():
    tol = polydisc.MEMBERSHIP_TOL
    for a, b in _membership_grid():
        margin = gp.quadratic_root_margin(a, b)
        oracle = polydisc.in_polydisc_roots((a, b))
        double_root = abs(a * a - 4.0 * b) <= 1e-12
        # at a double root a^2 - 4b cancels in floats, which leaves
        # ~sqrt(eps) in the closed form
        assert margin == pytest.approx(_exact_root_margin(a, b),
                                       abs=1e-7 if double_root else 1e-14)
        # Aberth stops at a relative residual of 1e-12, which leaves up to
        # ~8e-12 in a simple root on this grid and ~1e-6 in a double one
        assert margin == pytest.approx(oracle.margin,
                                       abs=1e-5 if double_root else 1e-10)
        if abs(margin - tol) > 1e-12:
            assert (margin > tol) is oracle.inside, (a, b)
    # b = 1 puts both roots of a complex pair on the circle
    assert gp.quadratic_root_margin(1.0, 1.0) == 0.0
    # a = 1 + b puts a root at -1 exactly
    assert gp.quadratic_root_margin(1.5, 0.5) == 0.0


def test_min_quadratic_closed_agrees_with_min_quadratic():
    for a, b in _membership_grid() + [(a, 0.0) for a in (0.0, 0.5, 1.0, 2.0)]:
        try:
            want = gp.min_quadratic(a, b)
        except NotInG2:
            with pytest.raises(NotInG2, match="outside G_2"):
                gp.min_quadratic_closed(a, b)
        else:
            assert gp.min_quadratic_closed(a, b) == want
    with pytest.raises(NotInG2, match="need a, b >= 0"):
        gp.min_quadratic_closed(-0.1, 0.2)


# (r0, r1, r1_tilde) at the default terms and tolerance, recorded before
# the solvers shared one batched prescan; the r1_tilde values of the
# first twelve rows are as the root-oracle membership test of
# min_quadratic gave them. From alpha = 1.25 on, the r1_tilde bracket
# shrinks; at p = 2, alpha = 3 the r1_tilde prescan sees 2 sign changes
# (and r1_tilde < r0 there: the ordering defect of thresholds)
THRESHOLDS = {
    (0.0, 3): (0.7680624489899168, 0.7864626815342131, 0.8382142193592155),
    (0.5, 3): (0.4527219818919235, 0.45936016675584823, 0.513188929285435),
    (1.25, 3): (0.2039480443445656, 0.20439177574136416,
                0.21188493535400457),
    (2.0, 3): (0.09315625799232191, 0.093180380510894, 0.09405530612081647),
    (0.0, 5): (0.7680624489899168, 0.770125123176286, 0.7768395930195431),
    (0.5, 5): (0.4527219818919235, 0.45273652682220344, 0.4528524332573174),
    (1.25, 5): (0.2039480443445656, 0.20394804659895757,
                0.2039481185024204),
    (2.0, 5): (0.09315625799232191, 0.09315625860581217,
               0.09315625848405772),
    (0.0, 7): (0.7680624489899168, 0.7681477769340359, 0.7684059747936316),
    (0.5, 7): (0.4527219818919235, 0.45272198328890734, 0.4527219955882784),
    (1.25, 7): (0.2039480443445656, 0.20394804376064116,
                0.20394804395635047),
    (2.0, 7): (0.09315625799232191, 0.09315625860581217,
               0.09315625820231452),
    (1.3, 3): (0.19350855346600093, 0.19387514264538772,
               0.20036898694261784),
    (1.8, 3): (0.11473009858965949, 0.11478297702312615,
               0.11633535830357723),
    (1.3, 5): (0.19350855346600093, 0.1935085542125373,
               0.19350859820193156),
    (1.8, 5): (0.11473009858965949, 0.11473009824226141,
               0.11473009874573906),
    (1.3, 7): (0.19350855346600093, 0.19350855326643182,
               0.19350855289499436),
    (1.8, 7): (0.11473009858965949, 0.11473009824226141,
               0.1147300985216438),
    (3.0, 2): (0.03282263363083429, 0.0335144745793772, 0.02651122318357141),
}


def test_solve_r1_tilde_runs_the_root_oracle_once(monkeypatch):
    # the bisection decides G_2 in closed form; only the final
    # cross-check at the reported point asks the root oracle
    calls = []

    def counted(coeffs, *args, **kwargs):
        calls.append(coeffs)
        return polydisc.in_polydisc_roots(coeffs, *args, **kwargs)

    monkeypatch.setattr(gp, "in_polydisc_roots", counted)
    for (alpha, p), (_, _, want) in THRESHOLDS.items():
        calls.clear()
        assert gp.solve_r1_tilde(alpha, p) == want
        assert len(calls) == 1


def test_solve_r1_tilde_cross_check_tolerates_a_boundary_split():
    # p = 2 near alpha = 2.89: the root lies on the G_2 boundary a = 1 + b,
    # where both deciders refuse the reported point; the value is the
    # one the root-oracle search gave
    assert gp.solve_r1_tilde(4.0 * 71 / 99 + 0.0246, 2) == 0.03708518439200863


def test_solve_r1_tilde_cross_check_catches_a_disagreeing_oracle(monkeypatch):
    monkeypatch.setattr(gp, "in_polydisc_roots", lambda coeffs: (
        polydisc.MembershipVerdict(False, -0.5)))
    with pytest.raises(RieszcertError, match="disagrees with the root oracle"):
        gp.solve_r1_tilde(0.5, 3)


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
        rhs = 2.0 + 0.5 * gp.structured_weight(r, alpha, p, 2) / p ** alpha
        assert abs(lhs - rhs) < 1e-7


def test_solve_r1_tilde_ordering_and_residual():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        r1 = gp.solve_r1(alpha, 3)
        rt = gp.solve_r1_tilde(alpha, 3)
        assert rt > r1
        a = gp.structured_weight(rt, alpha, 3, 1)
        b = gp.structured_weight(rt, alpha, 3, 2)
        resid = (gp.s_alpha(rt, alpha).value - 1.0 - a - b
                 - gp.min_quadratic(a, b))
        assert abs(resid) < 1e-7


def test_thresholds_record():
    t = gp.thresholds(0.0, 3)
    assert t.r0 < t.r1 < t.r1_tilde
    assert t.r0 == pytest.approx(0.76806, abs=1e-3)


def test_threshold_solvers_pinned():
    # r1_tilde first, from a cold prescan cache, then r1 and r0 from a
    # warm one: the cache changes no float
    for (alpha, p), (r0, r1, r1t) in THRESHOLDS.items():
        gp._prescan_sums.cache_clear()
        assert gp.solve_r1_tilde(alpha, p) == r1t
        assert gp.solve_r1(alpha, p) == r1
        assert gp.solve_r0(alpha) == r0


# (solve_r0, solve_r1, solve_r1_tilde) at p = 3, as (type, message),
# recorded before the solvers shared one batched prescan
SOLVER_ERRORS = {
    60.0: ((BracketFailure,
            "no sign change on [1e-09, 0.999999999]: "
            "f(lo)=1.3772233032974997e+24, f(hi)=8.328418562408979e+177"),
           (BracketFailure, "r1: no sign change on [1e-09, 0.999999999]"),
           (BracketFailure, "no subinterval with (a, b) in G_2")),
    150.0: ((RieszcertError, "s_alpha overflows the float range at "
                             "q=1e-09, alpha=150.0"),
            (RieszcertError, "s_alpha overflows the float range at "
                             "q=1e-09, alpha=150.0"),
            (RieszcertError, "s_alpha overflows the float range at "
                             "q=0.999999999, alpha=150.0")),
    1e308: ((RieszcertError, "s_alpha overflows the float range at "
                             "q=1e-09, alpha=1e+308"),
            (OverflowError, "(34, 'Numerical result out of range')"),
            (OverflowError, "(34, 'Numerical result out of range')")),
}


def test_threshold_solver_errors_pinned():
    for alpha, errors in SOLVER_ERRORS.items():
        gp._prescan_sums.cache_clear()
        for solve, (kind, message) in zip(
                (lambda: gp.solve_r0(alpha), lambda: gp.solve_r1(alpha, 3),
                 lambda: gp.solve_r1_tilde(alpha, 3)), errors):
            with pytest.raises(Exception) as info:
                solve()
            assert (type(info.value), str(info.value)) == (kind, message)


def test_threshold_row_log_records_pinned(caplog):
    # alpha = 1.3, p = 3 shrinks the r1_tilde bracket 10 times; p = 2,
    # alpha = 3 shrinks it 54 times, loses G_2 membership on the prescan
    # and in the bisection, at the bracket end included, and sees 2 sign
    # changes. The records were taken before the solvers shared one
    # batched prescan and decided the shrink steps on (a, b) alone. The
    # odd-p rows (1.6, 3), (1.3, 5) and (1.2, 7), recorded before
    # bisect_monotone narrowed by secant steps, shrink the bracket and
    # lose membership on 16-21 prescan points
    pinned = json.loads((Path(__file__).parent / "data"
                         / "pinned_threshold_logs.json").read_text())
    for row in pinned:
        for _ in ("cold cache", "warm cache"):
            if _ == "cold cache":
                gp._prescan_sums.cache_clear()
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="rieszcert"):
                gp.solve_r0(row["alpha"])
                gp.solve_r1(row["alpha"], row["p"])
                gp.solve_r1_tilde(row["alpha"], row["p"])
            assert [[r.levelname, r.getMessage()]
                    for r in caplog.records] == row["records"]


def _s_alpha_reference(q, alpha, terms):
    """The one-q partial sum, spelled as s_alpha spelled it before the
    kernel was batched, with log q as log_nome takes it."""
    lq = math.log1p(q - 1.0) if q >= 0.5 else math.log(q)
    l = np.arange(terms, dtype=float)
    odd = 2.0 * l + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        summand = (odd ** alpha * np.exp(l * lq) * (1.0 - q)
                   / (-np.expm1(odd * lq)))
        return float(summand.sum())


def test_log_nome_bit_identical_and_defined_for_tiny_q():
    # the old spelling log1p(-(1 - q)) bit for bit from q = 1/2 up, where
    # 1 - q is exact; below, it rounded 1 - q first and lost about
    # eps / q relative, and below about 5.6e-17 it was a domain error
    rng = np.random.default_rng(11)
    for q in [*rng.uniform(0.5, 1.0, 200), 0.5, 1.0 - 2.0 ** -53]:
        assert log_nome(q) == math.log1p(-(1.0 - q))
    for q in (5.5e-17, 1e-17, 1e-100, 2.2250738585072014e-308, 5e-324):
        assert 1.0 - q == 1.0 and log_nome(q) == math.log(q)
    assert gp.s_alpha(5e-324, 0.5).value == 1.0
    assert OddModeProfile(1e-100).coeffs(3) == pytest.approx(1e-100,
                                                             rel=1e-13)
    assert gp.structured_weight(1e-17, 0.0, 3, 1) == pytest.approx(
        1e-17, rel=1e-13)
    assert gp.structured_weight(1e-17, 0.0, 3, 2) == pytest.approx(
        1e-68, rel=1e-13)


def test_log_nome_and_weights_against_50_digits():
    # log q to 1 eps relative, and the weights w_k = f_hat_q(p^k) at
    # alpha = 0 to (|l log q| + 4) eps with l = (p^k - 1)/2, over q in
    # [1e-300, 1); at q = 1e-15 the old log q had put b off by 3.2e-3
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(27)
    qs = np.concatenate([10.0 ** -rng.uniform(0.0, 300.0, 1500),
                         rng.uniform(0.0, 1.0, 1500),
                         1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 500)])
    with mpmath.workdps(50):
        for q in qs.tolist():
            if not 0.0 < q < 1.0:
                continue
            exact = mpmath.log(q)
            assert abs(log_nome(q) - exact) <= eps * abs(exact)
            for k in (1, 2):
                m = 3 ** k
                want = (1 - mpmath.mpf(q)) * mpmath.mpf(q) ** ((m - 1) // 2) \
                    / (1 - mpmath.mpf(q) ** m)
                if want < 1e-300:
                    continue
                got = gp.structured_weight(q, 0.0, 3, k)
                bound = (abs((m - 1) // 2 * float(exact)) + 4) * eps
                assert abs(got - want) <= bound * want


@pytest.mark.parametrize("terms", [1, 300, 500, 2000, 3000])
def test_batched_mode_sums_match_s_alpha_bit_for_bit(terms):
    # 3000 terms split the 64 rows into blocks of 10 with a short last one
    for lo, hi in ((gp._Q_LO, gp._Q_HI), (gp._Q_LO, 0.44012666865176564)):
        qs = gp._prescan_grid(lo, hi)
        for alpha in (0.0, 0.37, 1.0, 2.0, 3.9):
            batch = gp._mode_sums(qs, alpha, terms)
            cached = gp._prescan_sums(alpha, terms, lo, hi)
            for q, got, kept in zip(qs, batch, cached):
                assert got == kept == gp.s_alpha(q, alpha, terms).value
                assert got == _s_alpha_reference(q, alpha, terms)


def test_batched_mode_sums_one_row_per_block_at_large_terms():
    qs = [1e-3, 0.5, 0.999]
    got = gp._mode_sums(qs, 0.5, 10 ** 5)
    assert [float(s) for s in got] == [
        _s_alpha_reference(q, 0.5, 10 ** 5) for q in qs]


def _mode_sums_reference(qs, alpha, terms):
    """_mode_sums as spelled before the odd-mode kernel: the summands of
    each block written out, with the weights built here."""
    l = np.arange(terms, dtype=float)
    odd = 2.0 * l + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        w = odd ** alpha
    lqs = [log_nome(q) for q in qs]
    rows = max(1, gp._BLOCK_ELEMENTS // max(terms, 1))
    sums = np.empty(len(qs))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(qs), rows):
            lq = gp._column(lqs[i:i + rows])
            summand = np.multiply(l, lq)
            np.exp(summand, out=summand)
            np.multiply(w, summand, out=summand)
            summand *= gp._column([1.0 - q for q in qs[i:i + rows]])
            denominator = np.multiply(odd, lq)
            np.expm1(denominator, out=denominator)
            np.negative(denominator, out=denominator)
            summand /= denominator
            sums[i:i + rows] = summand.sum(axis=-1)
    return sums


def test_mode_sums_are_the_old_blocked_loop_bit_for_bit():
    # 2000 sums in batches of 1-40 nomes, q over (0, 1), alpha in
    # [0, 4], up to 3000 terms: blocks of one row and of many
    rng = np.random.default_rng(26)
    count = 0
    while count < 2000:
        size = int(rng.integers(1, 41))
        qs = [float(q) for q in np.where(
            rng.random(size) < 0.3, 10.0 ** -rng.uniform(0.0, 300.0, size),
            rng.uniform(0.0, 1.0, size)) if 0.0 < q < 1.0]
        alpha, terms = float(rng.uniform(0.0, 4.0)), int(rng.integers(1, 3001))
        assert np.array_equal(gp._mode_sums(qs, alpha, terms),
                              _mode_sums_reference(qs, alpha, terms))
        count += len(qs)


def test_mode_weights_are_kept_and_read_only():
    l, modes, w = gp._mode_weights(0.5, 10)
    assert gp._mode_weights(0.5, 10)[2] is w
    for factor in (l, modes, w):
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0] = 2.0
    assert np.array_equal(l, np.arange(10.0))
    assert np.array_equal(modes, 2.0 * np.arange(10.0) + 1.0)
    assert np.array_equal(w, modes ** 0.5)


def _count_kernel_calls(monkeypatch) -> list:
    calls = []
    kernel = gp._mode_sums

    def counted(qs, *args, **kwargs):
        calls.append(len(qs))
        return kernel(qs, *args, **kwargs)

    monkeypatch.setattr(gp, "_mode_sums", counted)
    return calls


def test_threshold_row_kernel_calls(monkeypatch):
    # about 10 calls for r0 (its two ends, 6-8 secant steps of the
    # narrowing phase of bisect_monotone, 0-2 on the replayed path), one
    # 64-point prescan, and 4-6 calls each for r1 and r1_tilde: 20-22
    # per row at odd p. Plain bisection made about 82 (32 for r0, 24 each
    # for r1 and r1_tilde). At p = 2, alpha = 3 the narrowing takes
    # midpoints while r1_tilde's bracket end is infinite: 38 calls
    calls = _count_kernel_calls(monkeypatch)
    for (alpha, p), want in THRESHOLDS.items():
        gp._prescan_sums.cache_clear()
        calls.clear()
        assert (gp.solve_r0(alpha), gp.solve_r1(alpha, p),
                gp.solve_r1_tilde(alpha, p)) == want
        assert len(calls) <= (22 if p % 2 else 38)
        # r1_tilde shares r1's prescan unless its bracket shrank
        assert calls.count(gp._PRESCAN_POINTS) == (1 if alpha <= 0.5 else 2)


def test_threshold_grid_kernel_calls(monkeypatch):
    # the 69 rows of sweep --alpha-min 0 --alpha-max 2 --steps 23 at
    # p = 3, 5, 7 from a cold prescan cache: 20.46 calls per row on
    # average, 22 at most (plain bisection: 82.1 and 83)
    calls = _count_kernel_calls(monkeypatch)
    counts = []
    for p in (3, 5, 7):
        for i in range(23):
            alpha = 2.0 * i / 22
            gp._prescan_sums.cache_clear()
            calls.clear()
            gp.solve_r0(alpha)
            gp.solve_r1(alpha, p)
            gp.solve_r1_tilde(alpha, p)
            counts.append(len(calls))
    assert max(counts) <= 22
    assert sum(counts) / len(counts) <= 21.0


def test_solve_r1_memory_at_large_terms():
    # one s_alpha call holds ~3.5 MB at 1e5 terms; an unblocked 64-point
    # prescan would hold ~51 MB per temporary
    gp._prescan_sums.cache_clear()
    tracemalloc.start()
    try:
        gp.solve_r1(0.5, 3, terms=10 ** 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6


@pytest.mark.parametrize("terms", [300, 500, 2000])
def test_mode_sum_stays_finite_below_q_hi_at_the_overflow_edge(terms):
    # solve_r1_tilde decides its shrink steps on (a, b) alone because a
    # mode sum finite at _Q_HI is finite at every smaller upper end;
    # check that at the largest alpha where it is finite at _Q_HI
    def finite(alpha):
        return math.isfinite(gp._mode_sums((gp._Q_HI,), alpha, terms)[0])

    lo, hi = 10.0, 400.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if finite(mid) else (lo, mid)
    shrink_ends = [gp._Q_HI]
    while shrink_ends[-1] - gp._Q_LO >= 1e-9:
        shrink_ends.append(gp._Q_LO + 0.95 * (shrink_ends[-1] - gp._Q_LO))
    assert len(shrink_ends) > 400
    assert all(math.isfinite(s)
               for s in gp._mode_sums(shrink_ends, lo, terms))
    with pytest.raises(BracketFailure, match="no subinterval"):
        gp.solve_r1_tilde(lo, 3, terms)
    # one step past the edge the overflow is reported before any shrink
    with pytest.raises(RieszcertError,
                       match=r"overflows the float range at q=0\.999999999"):
        gp.solve_r1_tilde(hi, 3, terms)


def test_bisect_monotone_starts_from_given_end_values():
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.3

    root = bisect_monotone(f, 0.0, 1.0, tol=1e-6, flo=-0.3, fhi=0.7)
    assert 0.0 not in seen and 1.0 not in seen
    assert root == bisect_monotone(lambda x: x - 0.3, 0.0, 1.0, tol=1e-6)


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
        p = int(rng.choice([3, 5, 7]))
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


def _a_weight_reference(q, alpha, p):
    lq = log_nome(q)
    return (float(p) ** alpha * (1.0 - q) * math.exp(0.5 * (p - 1) * lq)
            / (-math.expm1(p * lq)))


def _b_weight_reference(q, alpha, p):
    lq = log_nome(q)
    pp = p * p
    return (float(p) ** (2.0 * alpha) * (1.0 - q)
            * math.exp(0.5 * (pp - 1) * lq) / (-math.expm1(pp * lq)))


def _outcome(f, *args):
    try:
        return f(*args)
    except OverflowError:
        return OverflowError


def test_structured_weight_is_the_old_a_and_b_bit_for_bit():
    # w_1 and w_2 against the separate a(q) and b(q) bodies they
    # replaced, so no threshold float moves: 10^5 draws of q over the
    # whole of (0, 1), alpha in [0, 6], then alpha up to 2000, where
    # p^{k alpha} overflows
    rng = np.random.default_rng(24)
    ps = [2, 3, 5, 7, 9, 11, 13, 101]
    n = 25000
    qs = np.concatenate([10.0 ** -rng.uniform(0.0, 323.3, n),
                         rng.uniform(0.0, 1.0, n),
                         1.0 - 10.0 ** -rng.uniform(0.0, 15.0, n),
                         rng.uniform(0.9, 1.0, n)])
    draws = [(float(q), float(a), int(p)) for q, a, p in zip(
        qs, rng.uniform(0.0, 6.0, len(qs)), rng.choice(ps, len(qs)))]
    draws += [(q, float(a), p) for q in (5e-324, 1e-17, 1.0 - 2.0 ** -53)
              for a in (0.0, 0.5, 6.0) for p in ps]
    draws += [(float(q), float(a), int(p)) for q, a, p in zip(
        rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 2000.0, 2000),
        rng.choice(ps, 2000))]
    assert len(draws) > 10 ** 5
    overflows = 0
    for q, alpha, p in draws:
        for k, reference in ((1, _a_weight_reference),
                             (2, _b_weight_reference)):
            want = _outcome(reference, q, alpha, p)
            assert _outcome(gp.structured_weight, q, alpha, p, k) == want, \
                (q, alpha, p, k)
            overflows += want is OverflowError
    assert overflows > 100


@pytest.mark.parametrize("degree", range(3, 8))
def test_certify_Td_weights_start_with_the_T1_weights(monkeypatch, degree):
    seen = []
    symbol_inf = gp.st.symbol_inf

    def recorded(weights):
        seen.append(list(weights))
        return symbol_inf(weights)

    monkeypatch.setattr(gp.st, "symbol_inf", recorded)
    rng = np.random.default_rng(degree)
    for sup_q, alpha, p in [(0.05, 0.3, 3), (0.7, 0.0, 3)] + [
            (float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.0, 2.0)),
             int(rng.choice([3, 5, 7]))) for _ in range(8)]:
        seen.clear()
        gp.certify_Td(sup_q, alpha, p, degree)
        t1 = gp.certify_T1(sup_q, alpha, p).margins
        assert len(seen) == 1 and len(seen[0]) == degree
        assert seen[0][0] == t1["a"] and seen[0][1] == t1["b"]


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


def test_gp_spec_domain_edges():
    # the closed edges are inside the domain
    gp.GpSpec(3, 0.0, 5e-324, terms=1, degree=1)
    gp.GpSpec(3, 1e308, math.nextafter(1.0, 0.0), terms=gp.MAX_TERMS)
    gp.GpSpec(3, 0.5, 0.5, degree=646)
    gp.GpSpec(5, 0.5, 0.5, degree=441)
    base = {"p": 3, "alpha": 0.5, "sup_q": 0.5}
    for change, message in [
            ({"sup_q": 0.0}, r"sup_q must lie in \(0, 1\)"),
            ({"sup_q": 1.0}, r"sup_q must lie in \(0, 1\)"),
            ({"sup_q": math.nan}, r"sup_q must lie in \(0, 1\)"),
            ({"p": 1}, "p must be an integer >= 2"),
            ({"p": -3}, "p must be an integer >= 2"),
            # the odd-mode series has no coefficient at an even p or p^2
            ({"p": 2}, "p must be odd"),
            ({"p": 4}, "p must be odd"),
            ({"p": 10 ** 300}, "p must be odd"),
            ({"alpha": -5e-324}, "alpha must be finite and >= 0"),
            ({"alpha": math.inf}, "alpha must be finite and >= 0"),
            ({"alpha": math.nan}, "alpha must be finite and >= 0"),
            ({"terms": 0}, r"terms must lie in 1\.\.1000000"),
            ({"terms": gp.MAX_TERMS + 1}, r"terms must lie in 1\.\.1000000"),
            ({"degree": 0}, "degree must be >= 1"),
            ({"p": 10 ** 400}, "p must not exceed the largest float"),
            # 3^647 and 5^442 overflow a float, 3^646 and 5^441 do not
            ({"degree": 647}, r"p \*\* degree must stay below"),
            ({"p": 5, "degree": 442}, r"p \*\* degree must stay below"),
            ({"p": 10 ** 200 + 1}, r"p \*\* degree must stay below"),
            # the checks run in this order: the first failing one reports
            ({"sup_q": 2.0, "p": 1, "alpha": -1.0, "degree": 0}, "sup_q"),
            ({"p": 1, "alpha": -1.0, "terms": 0}, "p must"),
            ({"alpha": -1.0, "terms": 0, "degree": 0}, "alpha must"),
            ({"terms": 0, "degree": 0}, "terms must")]:
        with pytest.raises(ValueError, match=message):
            gp.GpSpec(**{**base, **change})


def test_certifiers_check_the_spec_domain():
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        gp.certify_T1(0.5, math.nan, 3)
    with pytest.raises(ValueError, match=r"terms must lie in 1\.\.1000000"):
        gp.certify_T1(0.5, 0.0, 3, gp.MAX_TERMS + 1)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        gp.certify_Td(0.5, 0.0, 3, 0)


def test_certify_dispatches_on_degree():
    for sup_q, alpha, p, terms in [(0.4, 0.5, 3, 500), (0.7, 0.0, 3, 300),
                                   (0.95, 1.0, 5, 40), (0.6, 0.3, 9, 500)]:
        spec = gp.GpSpec(p, alpha, sup_q, terms)
        assert (gp.certify(spec).to_json()
                == gp.certify_T1(sup_q, alpha, p, terms).to_json())
        for degree in (1, 3, 4):
            spec = gp.GpSpec(p, alpha, sup_q, terms, degree)
            assert (gp.certify(spec).to_json()
                    == gp.certify_Td(sup_q, alpha, p, degree, terms).to_json())


def test_certify_Td_infinite_tail_is_not_certified():
    # near q = 1 the 500-term tail bound of s_alpha is infinite: no
    # perturbation budget, so no certificate, as for T1
    spec = gp.GpSpec(p=3, alpha=1.0, sup_q=0.998046875, degree=1)
    assert math.isinf(gp.s_alpha(spec.sup_q, spec.alpha).tail_bound)
    cert = gp.certify(spec)
    assert cert.verdict is False and cert.margins["tail_sum"] == math.inf
    assert gp.certify(gp.GpSpec(3, 1.0, 0.998046875)).verdict is False


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


@pytest.mark.parametrize("mu", [0.0, 1.0, math.nan])
def test_eigenfunction_refuses_a_modulus_outside_the_open_interval(mu):
    with pytest.raises(ModulusOutOfRange) as info:
        gp.eigenfunction(1, mu, [0.5])
    assert str(info.value) == f"modulus {mu} outside (0, 1)"


def test_eigenfunction_matches_amplitude():
    # peak value of the elliptic sine wave is 2^{3/2} n mu K(mu)
    x = np.linspace(0.0, 1.0, 4001)
    for n, mu in ((1, 0.5), (2, 0.8)):
        u = gp.eigenfunction(n, mu, x)
        K, _ = gp.complete_elliptic(mu)
        assert np.abs(u).max() == pytest.approx(2 ** 1.5 * n * mu * K,
                                                rel=1e-6)


def test_eigenfunction_at_a_nome_that_underflows():
    # below mu ~ 1e-161 the nome underflows to 0.0, and log q used to
    # end in "math domain error"; the amplitude is still 2^{3/2} n mu K
    x = np.linspace(0.0, 1.0, 1001)
    for n in (1, 3):
        u = gp.eigenfunction(n, 1e-300, x)
        K, _ = gp.complete_elliptic(1e-300)
        assert gp.nome(1e-300) == 0.0
        assert np.abs(u).max() == pytest.approx(2 ** 1.5 * n * 1e-300 * K,
                                                rel=1e-6)
        assert u[0] == 0.0 and u[-1] == 0.0
    u = gp.eigenfunction(1, 5e-324, x)
    assert np.isfinite(u).all() and np.abs(u).max() < 1e-322


def test_eigenfunction_amplitude_at_the_smallest_modulus():
    # at mu = 5e-324, e^{lq/2} = e^{-745.8} underflows on its own, and u
    # came out all zeros; with 2^{5/2} pi n in the exponent the peak is
    # the subnormal 2^{3/2} mu K(mu)
    x = np.linspace(0.0, 1.0, 1001)
    u = gp.eigenfunction(1, 5e-324, x)
    K, _ = gp.complete_elliptic(5e-324)
    assert np.abs(u).max() > 0.0
    assert abs(np.abs(u).max() - 2 ** 1.5 * 5e-324 * K) <= 1e-323


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
        return OddModeProfile(q).coeffs(j)

    rule = gp.cj_rule(0.5, 1.0)
    assert rule(3, 1) == pytest.approx(3.0 * coeff(0.5, 3))
    assert rule(4, 1) == 0.0
    varying = gp.cj_rule(lambda n: 0.3 if n == 1 else 0.6, 0.0)
    assert varying(3, 1) == pytest.approx(coeff(0.3, 3))
    assert varying(3, 2) == pytest.approx(coeff(0.6, 3))

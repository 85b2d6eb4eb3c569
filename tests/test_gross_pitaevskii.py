"""Elliptic kernel, mode sums, thresholds, and eigenpairs."""

import json
import logging
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from rieszcert import gross_pitaevskii as gp
from rieszcert import polydisc
from rieszcert.dilation import OddModeProfile, odd_modes
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


def test_s_alpha_tail_bound_where_a_power_overflows():
    # the ratio ((2 terms + 3)/(2 terms + 1))^alpha of the tail bound
    # overflows at terms = 1 past alpha ~ 1389, where every weight is 1
    # and the sum is finite: the bound is inf, not Python's OverflowError
    for alpha in (1390.0, 2000.0, 1e308):
        assert gp.s_alpha(0.5, alpha, 1) == gp.SeriesValue(1.0, math.inf)


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


@pytest.mark.filterwarnings("error")
def test_min_quadratic_closed_raises_only_not_in_g2():
    # r1_tilde's prescan takes the disc minimum at every grid point and
    # treats NotInG2 as past the root: on weights of every magnitude and
    # the edge values 0, negative, inf and nan, the closed form returns
    # a minimum in [0, 1] or raises NotInG2, and nothing else
    rng = np.random.default_rng(32)
    edges = [0.0, -0.0, -1.0, 5e-324, 1.0, math.inf, math.nan]
    points = (_membership_grid()
              + [(a, b) for a in edges for b in edges]
              + list(zip((10.0 ** rng.uniform(-300, 300, 4000)).tolist(),
                         (10.0 ** rng.uniform(-300, 300, 4000)).tolist())))
    inside = 0
    for a, b in points:
        try:
            minimum = gp.min_quadratic_closed(a, b)
        except NotInG2:
            continue
        assert 0.0 <= minimum <= 1.0, (a, b)
        inside += 1
    assert 0 < inside < len(points)


# (r0, r1, r1_tilde) at the default terms and tolerance: r0 by
# bisection, r1 = r0 + gap1 and r1_tilde = r0 + (gap1 + gap2). The rows
# (2.0, 5), (1.25, 7), (1.3, 7), (1.8, 7) and (2.0, 7) printed out of
# order with the bisected r1 and r1_tilde; at (2.0, 7) and (1.8, 7) both
# gaps are below half an ulp of r0, so the three floats tie
THRESHOLDS = {
    (0.0, 3): (0.7680624489899168, 0.7864626818769379, 0.8382142196799629),
    (0.5, 3): (0.4527219818919235, 0.4593601669777369, 0.5131889295504036),
    (1.25, 3): (0.2039480443445656, 0.2043917766355624,
                0.21188493584610563),
    (2.0, 3): (0.09315625799232191, 0.09318038005253945,
               0.09405530576208235),
    (0.0, 5): (0.7680624489899168, 0.7701251233690989, 0.7768395934518876),
    (0.5, 5): (0.4527219818919235, 0.4527365271097752, 0.4528524335380503),
    (1.25, 5): (0.2039480443445656, 0.20394804684095175,
                0.20394811900423093),
    (2.0, 5): (0.09315625799232191, 0.09315625799270157,
               0.09315625803028758),
    (0.0, 7): (0.7680624489899168, 0.7681477774653725, 0.7684059752350134),
    (0.5, 7): (0.4527219818919235, 0.4527219831672301, 0.4527219953885084),
    (1.25, 7): (0.2039480443445656, 0.20394804434456562,
                0.20394804434456648),
    (2.0, 7): (0.09315625799232191, 0.09315625799232191,
               0.09315625799232191),
    (1.3, 3): (0.19350855346600093, 0.19387514310507722,
               0.20036898747293844),
    (1.8, 3): (0.11473009858965949, 0.11478297733602424,
               0.11633535863926214),
    (1.3, 5): (0.19350855346600093, 0.19350855485695065,
               0.19350859855115152),
    (1.8, 5): (0.11473009858965949, 0.11473009859363413,
               0.11473009887773063),
    (1.3, 7): (0.19350855346600093, 0.19350855346600093,
               0.19350855346600124),
    (1.8, 7): (0.11473009858965949, 0.11473009858965949,
               0.11473009858965949),
}
# p = 2, alpha = 3: (alpha, p, r0, r1, r1_tilde's error). (a, b) is
# outside G_2 at r1 (1 - a + b < 0 there), so r1_tilde has no gap; the
# bisection had reported r1_tilde < r0 from a shrunk bracket
P2_ROW = (3.0, 2, 0.03282263363083429, 0.03351447417492194,
          "r1_tilde: no root above the anchor (difference inf there)")


def _near(got, want):
    """A pinned r1 or r1_tilde within 8 ulps (r0, a midpoint of plain
    bisection, is compared exactly): their last bits follow those of
    the mode sums, whose exp and expm1 kernels differ by a few ulps
    between numpy's SIMD dispatch levels (at AVX2 and baseline dispatch
    the pinned and grid rows move by up to 3 ulps in r1 and 6 in
    r1_tilde)."""
    return abs(got - want) <= 8.0 * math.ulp(want)


def test_solve_r1_tilde_runs_the_root_oracle_once(monkeypatch):
    # the gap search decides G_2 in closed form; only the final
    # cross-check at the reported point asks the root oracle, once per
    # row: not at all for a cached row
    calls = []

    def counted(coeffs, *args, **kwargs):
        calls.append(coeffs)
        return polydisc.in_polydisc_roots(coeffs, *args, **kwargs)

    monkeypatch.setattr(gp, "in_polydisc_roots", counted)
    for (alpha, p), (_, _, want) in THRESHOLDS.items():
        _clear_caches()
        calls.clear()
        assert _near(gp.solve_r1_tilde(alpha, p), want)
        assert _near(gp.solve_r1_tilde(alpha, p), want)
        assert len(calls) == 1


def test_solve_r1_tilde_cross_check_tolerates_a_boundary_split():
    # on the G_2 boundary a = 1 + b (a root at z = -1) both deciders
    # refuse (a, b), and the cross-check stands. p = 2 near alpha = 2.89,
    # where the bisection reported a root on that boundary, has no gap:
    # (a, b) is outside G_2 at r1 already
    for b in (0.1, 0.379, 0.9):
        gp._cross_check_g2(1.0 + b, b)
    _clear_caches()
    with pytest.raises(BracketFailure, match=r"^r1_tilde: no root above"):
        gp.solve_r1_tilde(4.0 * 71 / 99 + 0.0246, 2)


def test_solve_r1_tilde_cross_check_catches_a_disagreeing_oracle(monkeypatch):
    monkeypatch.setattr(gp, "in_polydisc_roots", lambda coeffs: (
        polydisc.MembershipVerdict(False, -0.5)))
    _clear_caches()
    with pytest.raises(RieszcertError, match="disagrees with the root oracle"):
        gp.solve_r1_tilde(0.5, 3)
    # r1 stands without it; the row cached here holds the patched
    # oracle's verdict
    assert _near(gp.solve_r1(0.5, 3), THRESHOLDS[(0.5, 3)][1])
    _clear_caches()


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


def _clear_caches():
    # every functools.lru_cache of the module, so that no cache, a new
    # one included, turns a cold-cache test warm
    for value in vars(gp).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def test_threshold_solvers_pinned():
    # r1_tilde first, from cold caches, then r1 and r0 from warm ones:
    # the caches change no float
    for (alpha, p), (r0, r1, r1t) in THRESHOLDS.items():
        _clear_caches()
        assert _near(gp.solve_r1_tilde(alpha, p), r1t)
        assert _near(gp.solve_r1(alpha, p), r1)
        assert gp.solve_r0(alpha) == r0
    alpha, p, r0, r1, message = P2_ROW
    _clear_caches()
    with pytest.raises(BracketFailure) as info:
        gp.solve_r1_tilde(alpha, p)
    assert str(info.value) == message
    assert gp.solve_r0(alpha) == r0 and _near(gp.solve_r1(alpha, p), r1)


def test_cached_row_raises_a_fresh_error_each_time():
    # the row keeps r1_tilde's failure as (type, args): each call raises
    # a new exception, so no traceback is shared between callers or
    # kept alive by the cache, and thresholds() raises the same failure
    alpha, p, _, _, message = P2_ROW
    _clear_caches()
    errors = []
    for solve in (gp.solve_r1_tilde, gp.solve_r1_tilde, gp.thresholds):
        with pytest.raises(BracketFailure) as info:
            solve(alpha, p)
        errors.append(info.value)
    assert [str(error) for error in errors] == [message] * 3
    assert len({id(error) for error in errors}) == 3
    assert errors[0].__traceback__ is not errors[1].__traceback__
    assert not any(isinstance(gap, BaseException)
                   for gap in gp._row(alpha, p, 500, gp.BISECTION_TOL))


# (solve_r0, solve_r1, solve_r1_tilde) at p = 3, as (type, message):
# r1 and r1_tilde are r0 plus gaps, so each raises r0's error. Before
# the gaps r1 raised "r1: no sign change" at alpha = 60 and Python's
# OverflowError at 1e308, and r1_tilde "no subinterval with (a, b) in
# G_2", the overflow at q=0.999999999 and OverflowError
SOLVER_ERRORS = {alpha: (error,) * 3 for alpha, error in {
    60.0: (BracketFailure,
           "no sign change on [1e-09, 0.999999999]: "
           "f(lo)=1.3772233032974997e+24, f(hi)=8.328418562408979e+177"),
    150.0: (RieszcertError, "s_alpha overflows the float range at "
                            "q=1e-09, alpha=150.0"),
    1e308: (RieszcertError, "s_alpha overflows the float range at "
                            "q=1e-09, alpha=1e+308"),
}.items()}


def test_threshold_solver_errors_pinned():
    for alpha, errors in SOLVER_ERRORS.items():
        _clear_caches()
        for solve, (kind, message) in zip(
                (lambda: gp.solve_r0(alpha), lambda: gp.solve_r1(alpha, 3),
                 lambda: gp.solve_r1_tilde(alpha, 3)), errors):
            with pytest.raises(Exception) as info:
                solve()
            assert (type(info.value), str(info.value)) == (kind, message)


@pytest.mark.filterwarnings("error")
def test_threshold_solvers_where_the_weights_total_overflows():
    # at terms = 500 and alpha from about 102.6 to 102.75 every weight
    # (2l+1)^alpha is finite but their total is not: r0 raises what the
    # full sums at the ends give, with no RuntimeWarning; r1 and r1_tilde
    # raise r0's error
    _clear_caches()
    w = gp._mode_weights(102.7, gp.DEFAULT_TERMS)[2]
    with np.errstate(over="ignore"):
        assert np.isfinite(w).all() and math.isinf(w.sum())
    for solve in (lambda: gp.solve_r0(102.7), lambda: gp.solve_r1(102.7, 3),
                  lambda: gp.solve_r1_tilde(102.7, 3)):
        with pytest.raises(BracketFailure) as info:
            solve()
        assert str(info.value) == (
            "no sign change on [1e-09, 0.999999999]: "
            "f(lo)=1.926473915921404e+62, f(hi)=6.118483363230872e+305")


@pytest.mark.filterwarnings("error")
def test_threshold_solvers_raise_one_error_where_a_weight_overflows():
    # p^(k alpha) or the mode p^2 past the float range: RieszcertError,
    # not Python's OverflowError, and only once r0 is solved
    big = 10 ** 200 + 1
    for alpha, p in ((0.0, big), (1.5, big), (0.5, int(sys.float_info.max))):
        _clear_caches()
        for solve in (gp.solve_r1, gp.solve_r1_tilde):
            with pytest.raises(RieszcertError, match="overflows the float "
                               "range at alpha=") as info:
                solve(alpha, p)
            assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [400.0, 700.0, 1e308])
def test_certificates_raise_the_solvers_error_where_a_weight_overflows(alpha):
    # at p = 3: b's power 3^(2 alpha) alone (400), then p^alpha too
    # (700, 1e308) is past the float range, before any mode sum
    for certify in (lambda: gp.certify_T1(0.5, alpha, 3),
                    lambda: gp.certify_Td(0.5, alpha, 3, 3)):
        with pytest.raises(RieszcertError) as info:
            certify()
        assert str(info.value) == (
            "a weight p^(k alpha) f_hat_q(p^k) overflows the float range "
            f"at alpha={alpha}, p=3")
        assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.filterwarnings("error")
def test_threshold_solvers_refuse_input_outside_their_domain():
    # GpSpec's wording (the CLI settings' for tol), raised before any
    # sum; p = 2 is inside, for the solver-level pins above
    solvers = (lambda alpha, p, terms, tol: gp.solve_r0(alpha, terms, tol),
               gp.solve_r1, gp.solve_r1_tilde)
    tol = gp.BISECTION_TOL
    cases = [((alpha, 3, 500, tol), "alpha must be finite and >= 0")
             for alpha in (math.nan, math.inf, -math.inf, -0.5, -5e-324)]
    cases += [((0.5, 3, terms, tol), r"terms must lie in 1\.\.1000000")
              for terms in (0, -3, gp.MAX_TERMS + 1)]
    # an infinite tol returned q = 0.5 as r0, a tol <= 0 or NaN raised
    # r1's "no Newton convergence"
    cases += [((0.5, 3, 500, bad), "tol must be finite and > 0")
              for bad in (math.inf, math.nan, 0.0, -0.0, -1e-9, -math.inf)]
    for args, message in cases:
        for solve in solvers:
            with pytest.raises(ValueError, match=message):
                solve(*args)
    for p, message in ((0, "p must be an integer >= 2"),
                       (1, "p must be an integer >= 2"),
                       (-3, "p must be an integer >= 2"),
                       (10 ** 400, "p must not exceed the largest float")):
        for solve in solvers[1:]:
            with pytest.raises(ValueError, match=message):
                solve(0.5, p, 500)
    # the closed edges are inside
    gp._check_solver_domain(0.0, 1, 5e-324, 2)
    gp._check_solver_domain(1e308, gp.MAX_TERMS, sys.float_info.max,
                            int(sys.float_info.max))
    _clear_caches()
    assert _near(gp.solve_r1(3.0, 2), P2_ROW[3])


def test_thresholds_refuse_a_misordered_triple():
    # the gaps carry the order: one that is not > 0 is refused, and
    # columns that tie in floats are not
    t = gp.GpThresholds(0.5, 3, 0.1, 0.1, 0.2)
    assert (t.r1, t.r1_tilde) == (0.2, 0.1 + (0.1 + 0.2))
    tied = gp.GpThresholds(2.0, 7, *gp._row(2.0, 7, 500, gp.BISECTION_TOL))
    assert tied.r0 == tied.r1 == tied.r1_tilde == THRESHOLDS[(2.0, 7)][0]
    for gaps in ((-0.1, 0.1), (0.1, -0.1), (0.0, 0.1), (0.1, 0.0),
                 (0.1, math.nan), (math.nan, 0.1)):
        with pytest.raises(ValueError, match="threshold gaps must be > 0: "
                           + ", ".join(map(str, gaps))):
            gp.GpThresholds(0.5, 3, 0.1, *gaps)


def test_threshold_row_log_records_pinned(caplog):
    # the records of a row from cold caches, and none from the cached
    # row. p = 2, alpha = 3 loses G_2 membership at r1, where its
    # r1_tilde search raises. The odd-p rows (1.3, 3), (1.6, 3), (1.3, 5)
    # and (1.2, 7) log nothing: before the gaps they shrank r1_tilde's
    # bracket 10 times and lost membership on up to 21 prescan points
    pinned = json.loads((Path(__file__).parent / "data"
                         / "pinned_threshold_logs.json").read_text())
    for row in pinned:
        for cold in (True, False):
            if cold:
                _clear_caches()
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="rieszcert"):
                gp.solve_r0(row["alpha"])
                gp.solve_r1(row["alpha"], row["p"])
                try:
                    gp.solve_r1_tilde(row["alpha"], row["p"])
                except BracketFailure:
                    assert row["p"] == 2
            assert [[r.levelname, r.getMessage()] for r in caplog.records
                    ] == (row["records"] if cold else [])


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


# the largest block of summands _mode_sums builds at once (256 kB of
# floats)
_BLOCK_ELEMENTS = 32768


def _column(xs: list):
    """Values per row, as a column against the terms axis; a lone value
    stays a float."""
    return xs[0] if len(xs) == 1 else np.array(xs)[:, None]


def _mode_sums(qs, alpha, terms):
    """Raw partial sums of s_alpha at each q of ``qs`` from blocks of
    rows of the odd-mode kernel, one row per q, as the threshold
    prescans once took them: numpy sums each row of a C-contiguous block
    as it sums a 1-d array. A block holds at most ``_BLOCK_ELEMENTS``
    summands (one row at least). Not counted as a kernel call of
    gross_pitaevskii, and it fills none of its caches but the weights'."""
    l, modes, w = gp._mode_weights(alpha, terms)
    lqs = [log_nome(q) for q in qs]
    rows = max(1, _BLOCK_ELEMENTS // max(terms, 1))
    sums = np.empty(len(qs))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(qs), rows):
            sums[i:i + rows] = odd_modes(
                _column(lqs[i:i + rows]),
                _column([1.0 - q for q in qs[i:i + rows]]),
                l, modes, w).sum(axis=-1)
    return sums


@pytest.mark.parametrize("terms", [1, 300, 500, 2000, 3000])
def test_batched_mode_sums_match_s_alpha_bit_for_bit(terms):
    # 64 evenly spaced nomes: 3000 terms split the 64 rows into blocks
    # of 10 with a short last one
    for lo, hi in ((gp._Q_LO, gp._Q_HI), (gp._Q_LO, 0.44012666865176564)):
        qs = [lo + (hi - lo) * i / 63 for i in range(64)]
        for alpha in (0.0, 0.37, 1.0, 2.0, 3.9):
            batch = _mode_sums(qs, alpha, terms)
            for q, got in zip(qs, batch):
                assert got == gp.s_alpha(q, alpha, terms).value
                assert got == _s_alpha_reference(q, alpha, terms)


def test_batched_mode_sums_one_row_per_block_at_large_terms():
    qs = [1e-3, 0.5, 0.999]
    got = _mode_sums(qs, 0.5, 10 ** 5)
    assert [float(s) for s in got] == [
        _s_alpha_reference(q, 0.5, 10 ** 5) for q in qs] == [
        gp.s_alpha(q, 0.5, 10 ** 5).value for q in qs]


def _mode_sums_reference(qs, alpha, terms):
    """_mode_sums as spelled before the odd-mode kernel: the summands of
    each block written out, with the weights built here."""
    l = np.arange(terms, dtype=float)
    odd = 2.0 * l + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        w = odd ** alpha
    lqs = [log_nome(q) for q in qs]
    rows = max(1, _BLOCK_ELEMENTS // max(terms, 1))
    sums = np.empty(len(qs))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(qs), rows):
            lq = _column(lqs[i:i + rows])
            summand = np.multiply(l, lq)
            np.exp(summand, out=summand)
            np.multiply(w, summand, out=summand)
            summand *= _column([1.0 - q for q in qs[i:i + rows]])
            denominator = np.multiply(odd, lq)
            np.expm1(denominator, out=denominator)
            np.negative(denominator, out=denominator)
            summand /= denominator
            sums[i:i + rows] = summand.sum(axis=-1)
    return sums


def test_mode_sums_are_the_old_blocked_loop_bit_for_bit():
    # 2000 one-q sums against the old blocked loop in batches of 1-40
    # nomes, q over (0, 1), alpha in [0, 4], up to 3000 terms: blocks of
    # one row and of many
    rng = np.random.default_rng(26)
    count = 0
    while count < 2000:
        size = int(rng.integers(1, 41))
        qs = [float(q) for q in np.where(
            rng.random(size) < 0.3, 10.0 ** -rng.uniform(0.0, 300.0, size),
            rng.uniform(0.0, 1.0, size)) if 0.0 < q < 1.0]
        alpha, terms = float(rng.uniform(0.0, 4.0)), int(rng.integers(1, 3001))
        assert np.array_equal([gp.s_alpha(q, alpha, terms).value for q in qs],
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


def _count_kernel_work(monkeypatch) -> tuple:
    # (rows, summands): the rows of each call of the kernel that every
    # full-length sum passes through, one sum each, and the size of
    # every odd_modes result in gross_pitaevskii
    rows, summands = [], []
    kernel, modes = gp._row_sums, gp.odd_modes

    def counted(lq, *args, **kwargs):
        rows.append(int(np.size(lq)))
        return kernel(lq, *args, **kwargs)

    def counted_modes(*args, **kwargs):
        out = modes(*args, **kwargs)
        summands.append(out.size)
        return out

    monkeypatch.setattr(gp, "_row_sums", counted)
    monkeypatch.setattr(gp, "odd_modes", counted_modes)
    return rows, summands


def test_threshold_row_kernel_calls(monkeypatch):
    # full-length mode sums per row from cold caches: r0's bisection
    # steps from the ends of [_Q_LO, _Q_HI], then one sum and
    # derivative pass at r0 and at each point of the gaps' Newton steps
    # (none where the steps stay within an ulp of r0): 10-20 per row
    # (5000-10000 summands), and 14 (7000) at p = 2, alpha = 3, whose
    # r1_tilde stops at r1. With r0's 64-point, 32-term enclosure
    # prescan it took 7-16 sums (5548-10048 summands) per row and 11
    # (7548) at p = 2, alpha = 3; the prescans of r1 and r1_tilde took
    # 14-18 sums per row (34 at p = 2, alpha = 3)
    rows, summands = _count_kernel_work(monkeypatch)
    for (alpha, p), want in THRESHOLDS.items():
        _clear_caches()
        rows.clear()
        summands.clear()
        got = (gp.solve_r0(alpha), gp.solve_r1(alpha, p),
               gp.solve_r1_tilde(alpha, p))
        assert got[0] == want[0] and all(map(_near, got[1:], want[1:]))
        # the kernel sums one q at a time
        assert rows == [1] * len(rows)
        assert sum(rows) <= 20
        assert sum(summands) <= 10000
    alpha, p = P2_ROW[:2]
    _clear_caches()
    rows.clear()
    summands.clear()
    gp.solve_r1(alpha, p)
    with pytest.raises(BracketFailure):
        gp.solve_r1_tilde(alpha, p)
    assert sum(rows) <= 14
    assert sum(summands) <= 7000


def test_threshold_grid_kernel_calls(monkeypatch):
    # the 69 rows of sweep --alpha-min 0 --alpha-max 2 --steps 23 at
    # p = 3, 5, 7 from cold caches: 1030 full-length mode sums (14.93
    # per row, 20 at most) and 515000 summands (7464 per row, 10000 at
    # most); under numpy's AVX2 and baseline dispatch the grid takes one
    # sum more, 1031 and 515500. With r0's enclosure prescan it took
    # 11.28 and 16 sums and 7686 and 10048 summands per row; 16.1 and
    # 19 sums with the prescans of r1 and r1_tilde, 22.8 and 25 when r0
    # bisected from the ends of [_Q_LO, _Q_HI] and the solvers did not
    # share their sums, 116.2 and 148 when the prescans summed every
    # grid point
    rows, summands = _count_kernel_work(monkeypatch)
    counts, sizes = [], []
    for p in (3, 5, 7):
        for i in range(23):
            alpha = 2.0 * i / 22
            _clear_caches()
            rows.clear()
            summands.clear()
            gp.solve_r0(alpha)
            gp.solve_r1(alpha, p)
            gp.solve_r1_tilde(alpha, p)
            counts.append(sum(rows))
            sizes.append(sum(summands))
    assert max(counts) <= 20
    assert sum(counts) <= 1031
    assert max(sizes) <= 10000
    assert sum(sizes) <= 515500


@pytest.mark.filterwarnings("error")
def test_gaps_on_the_threshold_grid():
    # the 69 rows of sweep --alpha-min 0 --alpha-max 2 --steps 23 at
    # p = 3, 5, 7: thresholds() raises nothing, both gaps are > 0, the
    # columns never reverse, and r1 and r1_tilde are within two solver
    # tolerances of the roots of their own equations, bisected to 1e-13
    # (r0's error carries into both). The bisected r1 and r1_tilde broke
    # the order on 20 of these rows
    tol = gp.BISECTION_TOL
    for p in (3, 5, 7):
        for i in range(23):
            alpha = 2.0 * i / 22
            pa = float(p) ** alpha
            t = gp.thresholds(alpha, p)
            assert t.gap1 > 0.0 and t.gap2 > 0.0
            assert t.r0 <= t.r1 <= t.r1_tilde
            assert (t.r1, t.r1_tilde) == (gp.solve_r1(alpha, p),
                                          gp.solve_r1_tilde(alpha, p))

            def s(q):
                return gp.s_alpha(q, alpha).value

            def r1_equation(q):
                return s(q) - 2.0 - 0.5 * gp.structured_weight(
                    q, alpha, p, 2) / pa

            def r1_tilde_equation(q):
                a = gp.structured_weight(q, alpha, p, 1)
                b = gp.structured_weight(q, alpha, p, 2)
                return s(q) - 1.0 - a - b - gp.min_quadratic_closed(a, b)

            r1 = bisect_monotone(r1_equation, t.r0 - 1e-6, t.r1 + 1e-6,
                                 tol=1e-13)
            r1t = bisect_monotone(r1_tilde_equation, t.r1 - 1e-6,
                                  t.r1_tilde + 1e-6, tol=1e-13)
            assert abs(t.r1 - r1) <= 2.0 * tol, (alpha, p)
            assert abs(t.r1_tilde - r1t) <= 2.0 * tol, (alpha, p)


def _gaps_to_50_digits(alpha, p, x, terms, start):
    """(gap1, gap2) of the gap equations anchored at the float x, to 50
    digits, by secant steps from 0.9 and 1.1 times ``start``: D(e) =
    s(x + e) - s(x) against delta(x + e) for gap1, and against
    R(x + e) - 2 for gap1 + gap2."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp

    def s(q):
        return mpmath.fsum(mp.mpf(2 * l + 1) ** alpha * (1 - q) * q ** l
                           / (1 - q ** (2 * l + 1)) for l in range(terms))

    def w(q, k):
        m = p ** k
        return (mp.mpf(p) ** (k * alpha) * (1 - q) * q ** (mp.mpf(m - 1) / 2)
                / (1 - q ** m))

    def excess(q):
        a, b = w(q, 1), w(q, 2)
        if a * (b + 1) / (4 * b) >= 1:
            return 2 * b
        return a + b - 1 + (1 - b) * mpmath.sqrt(1 - a * a / (4 * b))

    with mpmath.workdps(50):
        x = mp.mpf(x)
        s_x = s(x)
        gap1 = mpmath.findroot(
            lambda e: s(x + e) - s_x - w(x + e, 2) / (2 * mp.mpf(p) ** alpha),
            (0.9 * start[0], 1.1 * start[0]))
        both = mpmath.findroot(lambda e: s(x + e) - s_x - excess(x + e),
                               (0.9 * sum(start), 1.1 * sum(start)))
        return float(gap1), float(both - gap1)


@pytest.mark.parametrize("alpha, p", [(0.0, 3), (1.0, 3), (1.5, 5),
                                      (2.0, 5), (0.5, 7), (1.0, 7),
                                      (2.0, 7)])
def test_gaps_against_50_digits(alpha, p):
    # from r0's float at 300 terms: to a few ulps of r0 where the gap
    # spans many of them and the sums are subtracted, and to about eps
    # relative below an ulp, where the derivatives alone give it (3.2e-25
    # and 6.2e-23 at p = 7, alpha = 2)
    terms = 300
    r0, gap1, gap2 = gp._row(alpha, p, terms, gp.BISECTION_TOL)
    for got, want in zip((gap1, gap2), _gaps_to_50_digits(
            alpha, p, r0, terms, (gap1, gap2))):
        ulp = math.ulp(r0)
        bound = 1e-13 * want if want < ulp else 1e-9 * want + 4.0 * ulp
        assert abs(got - want) <= bound, (got, want)


def test_newton_gap_treats_a_lost_point_as_past_the_root():
    # a synthetic difference G(d) = e^{4d} - 2, root log(2)/4, whose
    # point is lost (as where (a, b) leaves G_2) from d = 0.25 on: the
    # first Newton step lands there, counts as past the root, and the
    # search goes on from the midpoint. This replaces r1_tilde's
    # infinite bracket end, which no odd p reached
    seen = []

    def f(d):
        seen.append(d)
        if d >= 0.25:
            return math.inf, math.nan
        return math.expm1(4.0 * d) - 1.0, 4.0 * math.exp(4.0 * d)

    root = gp._newton_gap(f, 0.9, gp.BISECTION_TOL, "f")
    assert seen[:3] == [0.0, 0.25, 0.125]
    assert abs(root - math.log(2.0) / 4.0) <= 1e-15
    assert len(seen) <= 8
    # no root above the anchor, and a root at it
    with pytest.raises(BracketFailure, match=r"^f: no root above the anchor "
                       r"\(difference inf there\)$"):
        gp._newton_gap(lambda d: (math.inf, math.nan), 0.9, 1e-9, "f")
    assert gp._newton_gap(lambda d: (d, 1.0), 0.9, 1e-9, "f") == 0.0


def test_newton_gap_refuses_a_difference_negative_up_to_room():
    # G(d) = d - 2 has no root in (0, 0.9): every Newton step leaves the
    # bracket, the midpoints close in on room, and G(room) < 0 is read
    # there instead of returning about room. A root at room is found
    seen = []

    def f(d):
        seen.append(d)
        return d - 2.0, 1.0

    with pytest.raises(BracketFailure,
                       match=r"^f: no sign change up to 0\.9$"):
        gp._newton_gap(f, 0.9, 1e-9, "f")
    assert seen[-1] == 0.9 and 0.9 - seen[-2] <= 2e-12
    root = gp._newton_gap(lambda d: (d - 0.9, 1.0), 0.9, 1e-9, "f")
    assert 0.9 - root <= 1e-12


def test_gap_solvers_refuse_a_row_with_no_root_below_q_hi():
    # at terms = 8 and alpha = 0 the sum s rises only to 2.0218 at _Q_HI
    # while delta = b/2 stays between 0.053 and 1/18 on (r0, _Q_HI), so
    # s - 2 - delta < 0 past r0 and r1 has no root: both gap solvers
    # raise, as the prescans did, and report no r1 near _Q_HI
    _clear_caches()
    r0 = gp.solve_r0(0.0, 8)
    assert gp.s_alpha(gp._Q_HI, 0.0, 8).value < 2.0 + 0.053
    for solve in (gp.solve_r1, gp.solve_r1_tilde):
        with pytest.raises(BracketFailure) as info:
            solve(0.0, 3, 8)
        assert str(info.value) == f"r1: no sign change up to {gp._Q_HI - r0}"


def _plain_bisection(f, lo, hi, tol):
    """Plain bisection, as solve_r0 took it before bisect_monotone: the
    reference r0 must reproduce."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketFailure(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _root_or_error(solve) -> tuple:
    """The hex of the float ``solve()`` returns, or the type and message
    of the error it raises."""
    try:
        return float.hex(solve()), None
    except RieszcertError as error:
        return type(error), str(error)


@pytest.mark.filterwarnings("error")
def test_solve_r0_is_plain_bisection_on_the_threshold_grid():
    # r0 at every alpha of the 69-row grid and of the pinned rows, at 20
    # seeded alpha in [0, 25] and at alpha = 60 (no sign change), 102.7
    # (weights finite, their total not) and 150 (an infinite weight),
    # for terms 1 to 3000, against plain bisection of s_alpha - 2 on
    # [_Q_LO, _Q_HI]: the same float or the same error. The CI job runs
    # this on each SIMD path of numpy's exp and expm1
    rng = np.random.default_rng(39)
    alphas = sorted({2.0 * i / 22 for i in range(23)}
                    | {alpha for alpha, _ in THRESHOLDS}
                    | set(rng.uniform(0.0, 25.0, 20).tolist())
                    | {60.0, 102.7, 150.0})
    for terms in (1, 8, 32, 33, gp.DEFAULT_TERMS, 3000):
        for alpha in alphas:
            _clear_caches()
            want = _root_or_error(lambda: _plain_bisection(
                lambda q: gp.s_alpha(q, alpha, terms).value - 2.0,
                gp._Q_LO, gp._Q_HI, gp.BISECTION_TOL))
            got = _root_or_error(lambda: gp.solve_r0(alpha, terms))
            assert got == want, (alpha, terms)
    for (alpha, _), (r0, _, _) in THRESHOLDS.items():
        assert gp.solve_r0(alpha) == r0


def test_r0_cache_holds_the_threshold_grid():
    # the 69-row grid twice: the rows of one alpha share r0, and the
    # second pass finds all 23 in the cache
    def grid():
        for p in (3, 5, 7):
            for i in range(23):
                alpha = 2.0 * i / 22
                gp.solve_r0(alpha)
                gp.solve_r1(alpha, p)
                gp.solve_r1_tilde(alpha, p)

    _clear_caches()
    grid()
    assert gp._r0.cache_info().misses == 23
    grid()
    assert gp._r0.cache_info().misses == 23


def test_structured_weight_raises_the_power_overflow_first():
    # the same exception first as the separate a and b bodies: p^{2 alpha}
    # overflows before p^2 is taken as a float
    big = 10 ** 200 + 1
    for alpha, message in ((1.5, "Numerical result out of range"),
                           (0.0, "int too large to convert to float")):
        with pytest.raises(OverflowError, match=message):
            gp.structured_weight(0.5, alpha, big, 2)


def test_solve_r1_memory_at_large_terms():
    # one sum and derivative pass holds a few arrays of 1e5 floats; an
    # unblocked 64-point prescan would hold ~51 MB per temporary
    _clear_caches()
    tracemalloc.start()
    try:
        gp.solve_r1(0.5, 3, terms=10 ** 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6


@pytest.mark.parametrize("terms", [300, 500, 2000])
def test_mode_sum_stays_finite_below_q_hi_at_the_overflow_edge(terms):
    # a mode sum finite at _Q_HI is finite at every smaller q; check that
    # at the largest alpha where it is finite at _Q_HI. There the power
    # (2 terms + 1)^alpha of s_alpha's tail bound is past the float
    # range: the bound is inf, where it raised Python's OverflowError,
    # and the solvers raise r0's BracketFailure. One step past the edge
    # the overflow is reported at _Q_LO
    def finite(alpha):
        return math.isfinite(_mode_sums((gp._Q_HI,), alpha, terms)[0])

    lo, hi = 10.0, 400.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if finite(mid) else (lo, mid)
    ends = [gp._Q_HI]
    while ends[-1] - gp._Q_LO >= 1e-9:
        ends.append(gp._Q_LO + 0.95 * (ends[-1] - gp._Q_LO))
    assert len(ends) > 400
    assert all(math.isfinite(s) for s in _mode_sums(ends, lo, terms))
    assert gp.s_alpha(0.5, lo, terms).tail_bound == math.inf
    for solve in (lambda alpha: gp.solve_r0(alpha, terms),
                  lambda alpha: gp.solve_r1(alpha, 3, terms),
                  lambda alpha: gp.solve_r1_tilde(alpha, 3, terms)):
        with pytest.raises(BracketFailure, match="^no sign change"):
            solve(lo)
        with pytest.raises(RieszcertError,
                           match=r"overflows the float range at q=1e-09"):
            solve(hi)


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


def test_certify_T1_below_r1_passes_every_structural_check():
    # a seeded sample below r1 at odd p up to 9: the threshold
    # inequality holds there (beyond 1e-6 of r1), and each true verdict
    # comes with every structural check of the envelope argument
    rng = np.random.default_rng(37)
    true = 0
    for _ in range(200):
        alpha = float(rng.uniform(0.0, 2.0))
        p = int(rng.choice([3, 5, 7, 9]))
        r1 = gp.solve_r1(alpha, p)
        sup_q = float(r1 * rng.uniform(0.02, 1.0))
        cert = gp.certify_T1(sup_q, alpha, p)
        if r1 - sup_q > 1e-6:
            assert cert.verdict is True, (alpha, p, sup_q)
        if cert.verdict:
            true += 1
            assert cert.parameters["structural_checks_ok"] is True
            for key in ("floor", "chain_margin", "membership_margin",
                        "branch2_margin", "delegate_margin"):
                assert cert.margins[key] > 0.0, (key, alpha, p, sup_q)
    assert true > 190


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

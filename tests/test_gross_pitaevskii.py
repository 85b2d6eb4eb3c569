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
    # (2l+1)^alpha is finite but their total is not: no enclosure bounds
    # a sum from above, and the solvers raise what the full sums give,
    # with no RuntimeWarning
    _clear_caches()
    w = gp._mode_weights(102.7, gp.DEFAULT_TERMS)[2]
    with np.errstate(over="ignore"):
        assert np.isfinite(w).all() and math.isinf(w.sum())
    for solve, message in (
            (lambda: gp.solve_r0(102.7),
             "no sign change on [1e-09, 0.999999999]: "
             "f(lo)=1.926473915921404e+62, f(hi)=6.118483363230872e+305"),
            (lambda: gp.solve_r1(102.7, 3),
             "r1: no sign change on [1e-09, 0.999999999]"),
            (lambda: gp.solve_r1_tilde(102.7, 3),
             "no subinterval with (a, b) in G_2")):
        with pytest.raises(BracketFailure) as info:
            solve()
        assert str(info.value) == message


@pytest.mark.filterwarnings("error")
def test_threshold_solvers_refuse_input_outside_their_domain():
    # GpSpec's wording, raised before any sum; p = 2 is inside, for the
    # solver-level pins above
    solvers = (lambda alpha, p, terms: gp.solve_r0(alpha, terms),
               gp.solve_r1, gp.solve_r1_tilde)
    cases = [((alpha, 3, 500), "alpha must be finite and >= 0")
             for alpha in (math.nan, math.inf, -math.inf, -0.5, -5e-324)]
    cases += [((0.5, 3, terms), r"terms must lie in 1\.\.1000000")
              for terms in (0, -3, gp.MAX_TERMS + 1)]
    for (alpha, p, terms), message in cases:
        for solve in solvers:
            with pytest.raises(ValueError, match=message):
                solve(alpha, p, terms)
    for p, message in ((0, "p must be an integer >= 2"),
                       (1, "p must be an integer >= 2"),
                       (-3, "p must be an integer >= 2"),
                       (10 ** 400, "p must not exceed the largest float")):
        for solve in solvers[1:]:
            with pytest.raises(ValueError, match=message):
                solve(0.5, p, 500)
    # the closed edges are inside
    gp._check_solver_domain(0.0, 1, 2)
    gp._check_solver_domain(1e308, gp.MAX_TERMS, int(sys.float_info.max))
    _clear_caches()
    assert gp.solve_r1(3.0, 2) == THRESHOLDS[(3.0, 2)][1]


def test_thresholds_refuse_a_misordered_triple():
    gp.GpThresholds(0.5, 3, 0.1, 0.2, 0.3)
    for triple in ((0.2, 0.1, 0.3), (0.1, 0.3, 0.2), (0.1, 0.1, 0.3),
                   (0.1, 0.2, math.nan)):
        with pytest.raises(ValueError, match="threshold ordering violated: "
                           + ", ".join(map(str, triple))):
            gp.GpThresholds(0.5, 3, *triple)


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
                _clear_caches()
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
    # 3000 terms split the 64 rows into blocks of 10 with a short last one
    for lo, hi in ((gp._Q_LO, gp._Q_HI), (gp._Q_LO, 0.44012666865176564)):
        qs = gp._prescan_nomes(lo, hi)[0]
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
        assert np.array_equal([gp._mode_sum(q, alpha, terms) for q in qs],
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


def _count_mode_sum_rows(monkeypatch) -> list:
    # the rows of each call of the kernel that every full-length sum
    # passes through: one sum each
    rows = []
    kernel = gp._row_sums

    def counted(lq, *args, **kwargs):
        rows.append(int(np.size(lq)))
        return kernel(lq, *args, **kwargs)

    monkeypatch.setattr(gp, "_row_sums", counted)
    return rows


def test_threshold_row_kernel_calls(monkeypatch):
    # full-length mode sums per row: for each solver the two ends of
    # its prescan bracket, unless a sum the row already took or the
    # enclosures pin them, and 2-6 bisection steps; r1_tilde's check of
    # its upper end besides: 14-18 per row at odd p. r0 bisected from
    # [_Q_LO, _Q_HI] with about 10 sums, and each solver took the sums
    # it shared with another again (22-24 per row). At p = 2, alpha = 3
    # the narrowing takes midpoints while r1_tilde's bracket end is
    # infinite: 34 sums (39 before)
    rows = _count_mode_sum_rows(monkeypatch)
    for (alpha, p), want in THRESHOLDS.items():
        _clear_caches()
        rows.clear()
        assert (gp.solve_r0(alpha), gp.solve_r1(alpha, p),
                gp.solve_r1_tilde(alpha, p)) == want
        # the kernel sums one q at a time
        assert rows == [1] * len(rows)
        assert sum(rows) <= (18 if p % 2 else 34)


def test_threshold_grid_kernel_calls(monkeypatch):
    # the 69 rows of sweep --alpha-min 0 --alpha-max 2 --steps 23 at
    # p = 3, 5, 7 from cold caches: 16.1 full-length mode sums per row
    # on average, 19 at most (22.8 and 25 when r0 bisected from the ends
    # of [_Q_LO, _Q_HI] and the solvers did not share their sums, 116.2
    # and 148 when the prescans summed every grid point)
    rows = _count_mode_sum_rows(monkeypatch)
    counts = []
    for p in (3, 5, 7):
        for i in range(23):
            alpha = 2.0 * i / 22
            _clear_caches()
            rows.clear()
            gp.solve_r0(alpha)
            gp.solve_r1(alpha, p)
            gp.solve_r1_tilde(alpha, p)
            counts.append(sum(rows))
    assert max(counts) <= 19
    assert sum(counts) / len(counts) <= 17.0


def _plain_bisection(f, lo, hi, tol):
    """Plain bisection, as solve_r0 took it before bisect_monotone: the
    reference r0 must reproduce."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
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


@pytest.mark.filterwarnings("error")
def test_solve_r0_is_plain_bisection_on_the_threshold_grid(monkeypatch):
    # r0 at every alpha of the 69-row grid and of the pinned rows, at
    # terms 32 (where the enclosures are the sums), 33 and 3000, against
    # plain bisection of s_alpha - 2 on [_Q_LO, _Q_HI]; every one starts
    # from a grid cell of the enclosure prescan. The CI job runs this on
    # each SIMD path of numpy's exp and expm1
    cells = []
    real = gp.bisect_monotone

    def spy(*args, **kwargs):
        cells.append(kwargs["bracket"])
        return real(*args, **kwargs)

    monkeypatch.setattr(gp, "bisect_monotone", spy)
    alphas = sorted({2.0 * i / 22 for i in range(23)}
                    | {alpha for alpha, _ in THRESHOLDS})
    for terms in (gp.DEFAULT_TERMS, 32, 33, 3000):
        for alpha in alphas:
            _clear_caches()
            want = _plain_bisection(
                lambda q: gp.s_alpha(q, alpha, terms).value - 2.0,
                gp._Q_LO, gp._Q_HI, gp.BISECTION_TOL)
            assert gp.solve_r0(alpha, terms).hex() == want.hex()
            assert cells[-1] is not None
    for (alpha, _), (r0, _, _) in THRESHOLDS.items():
        assert gp.solve_r0(alpha) == r0


def test_solve_r0_errors_come_from_the_ends_of_the_range(monkeypatch):
    # no sign change on the grid (alpha = 60): r0 bisects from the ends,
    # as SOLVER_ERRORS pins. An infinite weight (alpha = 150, 1e308)
    # admits no enclosure, and the prescan raises before any bisection
    ends = []
    real = gp.bisect_monotone

    def spy(*args, **kwargs):
        ends.append(kwargs["bracket"])
        return real(*args, **kwargs)

    monkeypatch.setattr(gp, "bisect_monotone", spy)
    for alpha in SOLVER_ERRORS:
        _clear_caches()
        with pytest.raises(RieszcertError):
            gp.solve_r0(alpha)
    assert ends == [None]


def test_prescan_caches_hold_the_threshold_grid():
    # the 69-row grid twice: the second pass finds every prescan grid
    # and weight factor in the caches
    def grid():
        for p in (3, 5, 7):
            for i in range(23):
                alpha = 2.0 * i / 22
                gp.solve_r0(alpha)
                gp.solve_r1(alpha, p)
                gp.solve_r1_tilde(alpha, p)

    _clear_caches()
    grid()
    misses = (gp._prescan_nomes.cache_info().misses,
              gp._prescan_factors.cache_info().misses)
    grid()
    assert (gp._prescan_nomes.cache_info().misses,
            gp._prescan_factors.cache_info().misses) == misses


def test_solvers_of_a_row_share_one_enclosure_block():
    _clear_caches()
    for solve in (lambda: gp.solve_r0(0.5), lambda: gp.solve_r1(0.5, 3),
                  lambda: gp.solve_r1_tilde(0.5, 3)):
        solve()
    info = gp._grid_enclosures.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    s_lo, s_hi = gp._grid_enclosures(gp._Q_LO, gp._Q_HI, 0.5,
                                     gp.DEFAULT_TERMS)
    assert not s_lo.flags.writeable and not s_hi.flags.writeable


def _threshold_difference(label, alpha, p):
    """f(q, s) of solve_r1 (label "r1") or solve_r1_tilde ("r1_tilde"),
    the difference of the two sides of its equation at the raw mode sum
    s, written out: r1_tilde's is +inf, with a record, where (a, b) is
    outside G_2."""
    pa = float(p) ** alpha

    def r1(q, s):
        assert math.isfinite(s)
        return s - 2.0 - 0.5 * gp.structured_weight(q, alpha, p, 2) / pa

    def r1_tilde(q, s):
        a = gp.structured_weight(q, alpha, p, 1)
        b = gp.structured_weight(q, alpha, p, 2)
        assert math.isfinite(s)
        try:
            return s - 1.0 - a - b - gp.min_quadratic_closed(a, b)
        except NotInG2:
            logging.getLogger("rieszcert.gross_pitaevskii").info(
                "r1_tilde: membership lost at q=%.6f during the search; "
                "treating as past the root", q)
            return math.inf

    return {"r1": r1, "r1_tilde": r1_tilde}[label]


def _sign_change_reference(values, qs) -> tuple:
    """(n, cell) of _sign_change from f at every grid point, as the
    prescan took them before the enclosures."""
    changes = [i for i in range(len(qs) - 1)
               if (values[i] < 0.0) != (values[i + 1] < 0.0)]
    if not changes:
        return 0, None
    i = changes[0]
    return len(changes), (qs[i], qs[i + 1], values[i], values[i + 1])


def _single_sign_change_reference(f, alpha, terms, lo, hi, label):
    """_single_sign_change as it was before the enclosures: f at the
    full-length sum of every grid point, in grid order."""
    qs = gp._prescan_nomes(lo, hi)[0]
    changes, cell = _sign_change_reference(
        [f(q, s) for q, s in zip(qs, _mode_sums(qs, alpha, terms))], qs)
    if cell is None:
        raise BracketFailure(f"{label}: no sign change on [{lo}, {hi}]")
    if changes > 1:
        logging.getLogger("rieszcert.gross_pitaevskii").warning(
            "%s: %d sign changes on the prescan grid; using the first "
            "bracket", label, changes)
    return cell


def _prescan_outcome(call, caplog) -> tuple:
    # (result or exception, log records), floats as hex
    caplog.clear()
    try:
        got = tuple(float(x).hex() for x in call())
    except Exception as error:
        got = (type(error), str(error))
    return got, [(r.levelname, r.getMessage()) for r in caplog.records]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_prescan_matches_the_full_sum_prescan(monkeypatch, caplog):
    # every prescan of solve_r1 and solve_r1_tilde, shrunk r1_tilde
    # brackets included (alpha = 1.3 and up at p = 3), against the old
    # prescan, which evaluated the equation at the full-length sum of
    # every grid point: the same bracket, end values, records and
    # (n, cell), with no RuntimeWarning. The records of lost membership
    # on the grid come from the solver, as it takes the s-free part of
    # its chain. The chain is the difference at every full sum bit for
    # bit, every sign the enclosures decide is the full sum's, and from
    # a cold sum cache only the points they leave open and the unpinned
    # ends of the cell are summed
    calls = []
    real = gp._single_sign_change
    p = None

    def spy(*args):
        grid = [(r.levelname, r.getMessage()) for r in caplog.records
                if "membership lost" in r.getMessage()]
        calls.append((p, grid, *args))
        return real(*args)

    monkeypatch.setattr(gp, "_single_sign_change", spy)
    caplog.set_level(logging.INFO, logger="rieszcert")
    alphas = [*np.linspace(0.0, 3.0, 13).tolist(), 1.3]
    for alpha in alphas:
        for p in (3, 5, 7, 11, 13):
            for terms in (1, 31, 32, 33, 500, 3000):
                for solve in (gp.solve_r1, gp.solve_r1_tilde):
                    caplog.clear()
                    try:
                        solve(alpha, p, terms)
                    except RieszcertError:
                        pass
    assert len(calls) == 2 * len(alphas) * 5 * 6
    shrunk = 0
    rows = _count_mode_sum_rows(monkeypatch)
    for p, grid, chain, bounds, alpha, terms, lo, hi, label in calls:
        f = _threshold_difference(label, alpha, p)
        shrunk += hi < gp._Q_HI
        gp._mode_sum.cache_clear()
        rows.clear()
        cell, records = _prescan_outcome(lambda: real(
            chain, bounds, alpha, terms, lo, hi, label), caplog)
        got = cell, grid + records
        summed = sum(rows)
        want = _prescan_outcome(lambda: _single_sign_change_reference(
            f, alpha, terms, lo, hi, label), caplog)
        assert got == want, (alpha, terms, lo, hi, label)
        qs = gp._prescan_nomes(lo, hi)[0]
        sums = _mode_sums(qs, alpha, terms)
        with caplog.at_level(logging.CRITICAL, logger="rieszcert"):
            full = [f(q, s) for q, s in zip(qs, sums)]
            n, cell = gp._sign_change(chain, bounds, alpha, terms, lo, hi)
        assert chain(sums).tolist() == full
        assert (n, cell) == _sign_change_reference(full, qs)
        v_lo, v_hi = chain(bounds[0]), chain(bounds[1])
        negative = np.array(full) < 0.0
        assert negative[v_hi < 0.0].all() and not negative[v_lo >= 0.0].any()
        summed_at = set(np.flatnonzero(~(v_hi < 0.0) & ~(v_lo >= 0.0)))
        if cell is not None:
            i = qs.index(cell[0])
            summed_at |= {j for j in (i, i + 1) if not v_lo[j] == v_hi[j]}
        assert summed == len(summed_at)
        # the enclosures leave no sign open here: only the cell's ends
        # are summed, and none at terms <= 32, where they are the sums
        assert summed <= (0 if terms <= gp._ENCLOSURE_TERMS else 2)
    assert shrunk >= 100


def test_prescan_sums_the_points_its_enclosures_leave_open(monkeypatch):
    # f(q, s) = s - c: c is the full sum from grid point 20 on, where f
    # is 0 and no enclosure decides its sign, and the sum plus 1 before.
    # The 44 open points are summed, then the cell's lower end, which
    # the enclosures do not pin; its upper end comes from the cache
    _clear_caches()
    lo, hi, alpha, terms = gp._Q_LO, 0.5, 0.5, 500
    qs = gp._prescan_nomes(lo, hi)[0]
    sums = _mode_sums(qs, alpha, terms)
    c = sums + (np.arange(gp._PRESCAN_POINTS) < 20)
    bounds = gp._grid_enclosures(lo, hi, alpha, terms)
    rows = _count_mode_sum_rows(monkeypatch)
    assert gp._sign_change(lambda s: s - c, bounds, alpha, terms, lo, hi) == (
        1, (qs[19], qs[20], sums[19] - c[19], 0.0))
    assert rows == [1] * 45


def test_single_sign_change_logs_extra_changes_and_refuses_none(caplog):
    # synthetic chains, f = s - (full sum) + sign: f is -1 on grid points
    # 10 to 29 and +1 elsewhere, so the grid shows two sign changes, and
    # +1 everywhere shows none. The threshold equations show two sign
    # changes only at p = 2 (alpha 2.9 to 3.15): none at p = 3, 5, ...,
    # 17, 21, 25, 31 on alpha = 0, 0.05, ..., 19.95
    lo, hi, alpha, terms = gp._Q_LO, gp._Q_HI, 0.5, 500
    qs = gp._prescan_nomes(lo, hi)[0]
    sums = _mode_sums(qs, alpha, terms)
    bounds = gp._grid_enclosures(lo, hi, alpha, terms)
    index = np.arange(gp._PRESCAN_POINTS)
    sign = np.where((index >= 10) & (index < 30), -1.0, 1.0)
    caplog.set_level(logging.INFO, logger="rieszcert")
    assert gp._single_sign_change(lambda s: s - sums + sign, bounds, alpha,
                                  terms, lo, hi, "f") == (
        qs[9], qs[10], 1.0, -1.0)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "f: 2 sign changes on the prescan grid; using the "
                    "first bracket")]
    caplog.clear()
    with pytest.raises(BracketFailure,
                       match=r"^f: no sign change on \[1e-09, 0\.999999999\]$"):
        gp._single_sign_change(lambda s: s - sums + 1.0, bounds, alpha,
                               terms, lo, hi, "f")
    assert gp._single_sign_change(lambda s: s - sums - (index >= 30), bounds,
                                  alpha, terms, lo, hi, "f") == (
        qs[29], qs[30], 0.0, -1.0)
    assert not caplog.records


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("terms", [1, 31, 32, 33, 500, 3000])
def test_enclosures_hold_the_mode_sums(terms):
    # s_lo <= s <= s_hi at random q from 1e-300 to 1 - 1e-15 and alpha
    # in [0, 3]; at terms <= 32 both bounds are the sum itself
    rng = np.random.default_rng(31)
    for _ in range(40):
        q = np.sort(np.concatenate([
            10.0 ** -rng.uniform(0.0, 300.0, 24), rng.uniform(0.0, 1.0, 24),
            1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 16)]))
        q = q[(q > 0.0) & (q < 1.0)]
        alpha = float(rng.uniform(0.0, 3.0))
        lq = np.array([log_nome(x) for x in q.tolist()])
        s_lo, s_hi = gp._enclosures(q, lq, np.array([1.0 - x for x in q]),
                                    alpha, terms)
        sums = _mode_sums(q.tolist(), alpha, terms)
        assert (s_lo <= sums).all() and (sums <= s_hi).all()
        if terms <= gp._ENCLOSURE_TERMS:
            assert np.array_equal(s_lo, sums) and np.array_equal(s_hi, sums)
        else:
            # a bound that decides: tight where the tail is small
            small = q < 0.3
            assert (s_hi[small] - s_lo[small]
                    <= 1e-9 * sums[small]).all()


def test_enclosures_refuse_infinite_weights_and_negative_alpha():
    _, q, lq, one_minus_q = gp._prescan_nomes(gp._Q_LO, gp._Q_HI)
    assert gp._enclosures(q, lq, one_minus_q, 150.0, 500) is None
    assert gp._enclosures(q, lq, one_minus_q, -0.5, 500) is None
    assert gp._enclosures(q, lq, one_minus_q, math.nan, 500) is None


@pytest.mark.filterwarnings("error")
def test_enclosures_across_the_overflow_edge_of_the_weights():
    # at terms = 33 the last weight 65^alpha is the first omitted power
    # (2K + 1)^alpha of the tail bound, which Python takes: across the
    # alpha where it overflows (about 170.04) the enclosures hold the
    # sums or are None, as numpy's last weight is finite or not, and
    # never raise
    def finite(alpha):
        try:
            return math.isfinite(65.0 ** alpha)
        except OverflowError:
            return False

    lo, hi = 170.0, 170.1
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if finite(mid) else (lo, mid)
    alphas = [lo]
    for direction in (-math.inf, math.inf):
        for _ in range(500):
            alphas.append(math.nextafter(alphas[-1], direction))
    rng = np.random.default_rng(34)
    alphas += (lo * (1.0 + rng.uniform(-1e-12, 1e-12, 1000))).tolist()
    _, q, lq, one_minus_q = gp._prescan_nomes(gp._Q_LO, gp._Q_HI)
    seen = set()
    for alpha in alphas:
        bounds = gp._enclosures(q, lq, one_minus_q, alpha, 33)
        last = gp._mode_weights(alpha, 33)[2][-1]
        assert (bounds is None) == math.isinf(last), alpha
        if bounds is not None:
            sums = _mode_sums(q.tolist(), alpha, 33)
            assert (bounds[0] <= sums).all() and (sums <= bounds[1]).all()
            assert np.isfinite(sums).all()
        seen.add(bounds is None)
    assert seen == {True, False}


def test_structured_weight_on_the_prescan_grid_bit_for_bit():
    for lo, hi in ((gp._Q_LO, gp._Q_HI), (gp._Q_LO, 0.44012666865176564)):
        qs = gp._prescan_nomes(lo, hi)[0]
        for alpha in (0.0, 0.37, 1.0, 2.0, 3.9):
            for p in (3, 5, 7, 13):
                for k in (1, 2):
                    got = gp._grid_weights(lo, hi, alpha, p, k).tolist()
                    assert got == [gp.structured_weight(q, alpha, p, k)
                                   for q in qs]
    # the same exception first: p^{2 alpha} overflows before p^2 is
    # taken as a float
    big = 10 ** 200 + 1
    for alpha, message in ((1.5, "Numerical result out of range"),
                           (0.0, "int too large to convert to float")):
        for weight in (lambda: gp.structured_weight(0.5, alpha, big, 2),
                       lambda: gp._grid_weights(gp._Q_LO, gp._Q_HI, alpha,
                                                big, 2)):
            with pytest.raises(OverflowError, match=message):
                weight()


def test_solve_r1_memory_at_large_terms():
    # one s_alpha call holds ~3.5 MB at 1e5 terms; an unblocked 64-point
    # prescan would hold ~51 MB per temporary
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
    # solve_r1_tilde decides its shrink steps on (a, b) alone because a
    # mode sum finite at _Q_HI is finite at every smaller upper end;
    # check that at the largest alpha where it is finite at _Q_HI
    def finite(alpha):
        return math.isfinite(_mode_sums((gp._Q_HI,), alpha, terms)[0])

    lo, hi = 10.0, 400.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if finite(mid) else (lo, mid)
    shrink_ends = [gp._Q_HI]
    while shrink_ends[-1] - gp._Q_LO >= 1e-9:
        shrink_ends.append(gp._Q_LO + 0.95 * (shrink_ends[-1] - gp._Q_LO))
    assert len(shrink_ends) > 400
    assert all(math.isfinite(s)
               for s in _mode_sums(shrink_ends, lo, terms))
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

    root = bisect_monotone(f, 0.0, 1.0, tol=1e-6,
                           bracket=(0.0, 1.0, -0.3, 0.7))
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

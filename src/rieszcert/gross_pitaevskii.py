"""Stationary states of the cubic Schrodinger well and their dilation
thresholds.

The eigenpairs of u'' - u^3 + eta u = 0 with u(0) = u(1) = 0 are
elliptic-sine waves; in the nome coordinate q their sine profiles have
odd-mode coefficients (1-q) q^l / (1 - q^{2l+1}). This module bundles
the elliptic kernel (complete integrals by AGM, the nome, theta
series), the mode-sum s_alpha(q) with its Lambert-series and elliptic
closed forms, the closed-form disc minimum for quadratic symbols, the
threshold solvers r0 / r1 / r1_tilde, and the certification pipeline
for p-periodic nome sequences.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spread_toeplitz as st
from .certificate import ENVELOPE_RIGOROUS, SAMPLE_HEURISTIC, Certificate
from .config import BISECTION_TOL, DEFAULT_TERMS, MAX_TERMS
from .dilation import OddModeProfile, odd_modes, section_rule
from .errors import (BracketFailure, ModulusOutOfRange, NotInG2,
                     RieszcertError)
from .polydisc import MEMBERSHIP_TOL, in_polydisc_roots
from .util import bisect_monotone, check_alpha, check_p_range, log_nome

log = logging.getLogger(__name__)

LAMBERT_TERMS = 2000
# degree * ln p at or above this makes the mode p^degree overflow a float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# the root oracle's error in min |root| - 1 stays below this on a
# grid a in [0, 3], b in (0, 2], double roots a^2 = 4b included
_ORACLE_SLACK = 1e-5
_Q_LO = 1e-9
_Q_HI = 1.0 - 1e-9
# a threshold gap's Newton stops after a step of at most _GAP_STOP tol
# (see _newton_gap), or raises after _GAP_STEPS steps
_GAP_STOP = 1e-3
_GAP_STEPS = 64


# ---------------------------------------------------------------------------
# elliptic kernel

def _k_and_csum(k: float, kp: float) -> tuple:
    """K and sum 2^{n-1} c_n^2 from the modulus pair (k, k') by the
    arithmetic-geometric mean: K = pi / (2 agm(1, k')), with c_0 = k and
    c_{n+1} = (a_n - b_n)/2, and E = K (1 - sum), so K - E = K sum
    without cancellation.

    The loop stops as soon as c falls below the relative noise floor;
    iterating past that point would keep doubling the 2^{n-1} weights on
    pure roundoff.
    """
    a, b, c = 1.0, kp, k
    csum = 0.5 * c * c
    weight = 1.0
    for _ in range(64):
        if abs(c) <= 1e-16 * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        weight *= 2.0
        csum += 0.5 * weight * c * c
    return math.pi / (2.0 * a), csum


def complete_elliptic(mu: float) -> tuple:
    """Complete elliptic integrals (K(mu), E(mu)) for modulus mu in
    [0, 1), to close to machine precision."""
    if not 0.0 <= mu < 1.0:
        raise ModulusOutOfRange(f"modulus {mu} outside [0, 1)")
    K, csum = _k_and_csum(mu, math.sqrt((1.0 - mu) * (1.0 + mu)))
    return K, K * (1.0 - csum)


def _log_nome_of(mu: float) -> float:
    """log q = -pi K(mu') / K(mu), with mu' the complementary modulus;
    finite where q itself underflows (mu below about 1e-161)."""
    if not 0.0 < mu < 1.0:
        raise ModulusOutOfRange(f"modulus {mu} outside (0, 1)")
    kp = math.sqrt((1.0 - mu) * (1.0 + mu))
    # evaluate both integrals from the same (k, k') pair; going through
    # complete_elliptic would lose mu' to rounding for tiny mu
    K, _ = _k_and_csum(mu, kp)
    Kp, _ = _k_and_csum(kp, mu)
    return -math.pi * Kp / K


def nome(mu: float) -> float:
    """Nome q = exp(-pi K(mu') / K(mu)) with mu' the complementary
    modulus."""
    return math.exp(_log_nome_of(mu))


def _thetas(r: float) -> tuple:
    """Jacobi theta constants (theta2, theta3, theta4) at nome r."""
    if not 0.0 < r < 1.0:
        raise ValueError("nome must lie in (0, 1)")
    t2 = 1.0
    for n in range(1, 10 ** 6 + 2):
        term = r ** (n * (n + 1))
        t2 += term
        if term < 1e-18:
            break
    t2 *= 2.0 * r ** 0.25
    t3 = t4 = 1.0
    for n in range(1, 10 ** 6 + 2):
        term = r ** (n * n)
        t3 += 2.0 * term
        t4 += -2.0 * term if n % 2 else 2.0 * term
        if term < 1e-18:
            break
    return t2, t3, t4


def lambert_kernel_elliptic(r: float) -> float:
    """Closed form K (K - E) / (2 pi^2), at the modulus with nome r, for
    the weighted series sum_n n r^n / (1 - r^{2n}).

    The modulus comes from the theta quotients k = (theta2/theta3)^2 and
    k' = (theta4/theta3)^2, which stay accurate where the modulus itself
    would round to 1, and K - E from :func:`_k_and_csum`, which stays
    accurate where E rounds to K (r below about 1e-16)."""
    t2, t3, t4 = _thetas(r)
    K, csum = _k_and_csum((t2 / t3) ** 2, (t4 / t3) ** 2)
    return K * (K * csum) / (2.0 * math.pi ** 2)


# ---------------------------------------------------------------------------
# mode sums and Lambert series

@dataclass(frozen=True)
class SeriesValue:
    """Partial sum plus a certified upper bound for the omitted tail."""

    value: float
    tail_bound: float


@functools.lru_cache(maxsize=1)
def _mode_weights(alpha: float, terms: int) -> tuple:
    """(l, 2l+1, (2l+1)^alpha) for l < ``terms``: the q-free factors of
    the mode sum, read-only. The last result is kept, so the solvers of
    one threshold row build them once."""
    l = np.arange(terms, dtype=float)
    modes = 2.0 * l + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        w = modes ** alpha
    for factor in (l, modes, w):
        factor.flags.writeable = False
    return l, modes, w


def _row_sums(lq: float, one_minus_q: float, alpha: float, terms: int,
              q: float | None = None):
    """The sum s of the first ``terms`` summands of :func:`s_alpha` at
    log q = lq and 1 - q, not checked for overflow; with q given, (s,
    s'), s' the sum of their q-derivatives from the same kernel pass.
    Every full-length mode sum is taken here.

    Summand l, t_l = w_l (1-q) q^l / (1 - q^m) with m = 2l + 1, has the
    derivative t_l g_l, g_l = l/q - 1/(1-q) + m q^{m-1} / (1 - q^m) =
    (m / (1 - q^m) - l - 1) / q - 1/(1-q), so s' = sum t_l (m / (1 -
    q^m) - l - 1) / q - s / (1-q).
    """
    l, modes, w = _mode_weights(alpha, terms)
    with np.errstate(over="ignore", invalid="ignore"):
        summands = odd_modes(lq, one_minus_q, l, modes, w)
        s = summands.sum()
        if q is None:
            return s
        factor = np.multiply(modes, lq)
        np.expm1(factor, out=factor)
        np.divide(modes, factor, out=factor)
        factor += l
        factor += 1.0
        return s, -(summands @ factor) / q - s / one_minus_q


@functools.lru_cache(maxsize=16)
def _slope_sums(q: float, alpha: float, terms: int) -> tuple:
    """(s, s') at one q: the partial sum of :func:`s_alpha`, bit for
    bit, and its q-derivative, from one kernel pass."""
    s, slope = _row_sums(log_nome(q), 1.0 - q, alpha, terms, q)
    return float(s), float(slope)


def _overflow(q: float, alpha: float) -> RieszcertError:
    return RieszcertError(f"s_alpha overflows the float range at "
                          f"q={q}, alpha={alpha}")


def _weight_overflow(alpha: float, p: int) -> RieszcertError:
    return RieszcertError(f"a weight p^(k alpha) f_hat_q(p^k) overflows "
                          f"the float range at alpha={alpha}, p={p}")


def s_alpha(q: float, alpha: float,
            terms: int = DEFAULT_TERMS) -> SeriesValue:
    """Weighted mode sum s_alpha(q) = sum_l (2l+1)^alpha (1-q) q^l /
    (1 - q^{2l+1}), strictly increasing in both q and alpha.

    The summands are (2l+1)^alpha f_hat_q(2l+1), the section
    coefficients c_{2l+1}(n) of a constant nome q, from the one kernel
    :func:`dilation.odd_modes` (through :func:`_row_sums`), so the value
    is the l1 sum of one column of C.

    Each term is below (2l+1)^alpha q^l, and consecutive term ratios are
    decreasing, so the tail after ``terms`` summands is bounded by a
    geometric series started at the first omitted term, and is inf
    where a power of that bound is past the float range. Raises
    RieszcertError when a summand or the sum overflows.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    lq = log_nome(q)
    total = float(_row_sums(lq, 1.0 - q, alpha, terms))
    # nonnegative summands: an inf or nan among them stays in the sum
    if not math.isfinite(total):
        raise _overflow(q, alpha)
    try:
        first_omitted = (2.0 * terms + 1.0) ** alpha * math.exp(terms * lq)
        ratio = ((2.0 * terms + 3.0) / (2.0 * terms + 1.0)) ** alpha * q
    except OverflowError:
        # a power alone is past the float range: no finite bound
        return SeriesValue(total, math.inf)
    tail = first_omitted / (1.0 - ratio) if ratio < 1.0 else math.inf
    return SeriesValue(total, tail)


def lambert_series(f: Callable[[int], float], r: float,
                   terms: int = DEFAULT_TERMS) -> SeriesValue:
    """Generalised Lambert series L_f(r) = sum_n f(n) r^n / (1 - r^n)
    for nonnegative f.

    Omitted terms are below f(n) r^n / (1 - r); the tail bound assumes
    the consecutive ratios f(n+1)/f(n) are non-increasing (true for the
    power weights used here) and majorises the tail geometrically.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    lr = log_nome(r)
    total = 0.0
    for n in range(1, terms + 1):
        total += f(n) * math.exp(n * lr) / (-math.expm1(n * lr))
    f1 = f(terms + 1)
    first = f1 * math.exp((terms + 1) * lr) / (1.0 - r)
    ratio = (f(terms + 2) / f1) * r if f1 > 0 else r
    tail = first / (1.0 - ratio) if ratio < 1.0 else math.inf
    return SeriesValue(total, tail)


def s_alpha_lambert(q: float, alpha: float) -> float:
    """s_alpha through four Lambert series:

        ((1-q)/sqrt(q)) (L_f(sqrt q) - L_f(q) - L_g(q) + L_g(q^2))

    with f(n) = n^alpha and g(n) = (2n)^alpha, each truncated after
    ``LAMBERT_TERMS`` terms. Splitting each series into even and odd
    parts shows this reproduces the odd-mode sum. Where q^2 underflows
    (q below about 1.5e-154) the L_g(q^2) term is dropped: its part of
    the result is about 2^alpha q^{3/2}.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")

    def f(n: int) -> float:
        return float(n) ** alpha

    def g(n: int) -> float:
        return (2.0 * n) ** alpha

    sq = math.sqrt(q)
    val = (lambert_series(f, sq, LAMBERT_TERMS).value
           - lambert_series(f, q, LAMBERT_TERMS).value
           - lambert_series(g, q, LAMBERT_TERMS).value)
    if q * q > 0.0:
        val += lambert_series(g, q * q, LAMBERT_TERMS).value
    return (1.0 - q) / sq * val


def s1_elliptic(q: float) -> float:
    """s_1 through two elliptic evaluations: with
    A(r) = sum_n n r^n / (1 - r^{2n}) = K(K - E)/(2 pi^2) at the modulus
    whose nome is r,

        s_1(q) = ((1-q)/sqrt(q)) (A(sqrt q) - 2 A(q)).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    sq = math.sqrt(q)
    return (1.0 - q) / sq * (lambert_kernel_elliptic(sq)
                             - 2.0 * lambert_kernel_elliptic(q))


# ---------------------------------------------------------------------------
# quadratic symbols and thresholds

def quadratic_root_margin(a: float, b: float) -> float:
    """min |root| - 1 of 1 + a z + b z^2 for a >= 0 and b > 0, in
    closed form: 1/sqrt(b) for a complex pair (a^2 < 4b), else the
    smaller of the two negative real roots, 2 / (a + sqrt(a^2 - 4b)),
    which is (a - sqrt(a^2 - 4b)) / (2b) without its cancellation.
    """
    if a * a < 4.0 * b:
        return 1.0 / math.sqrt(b) - 1.0
    return 2.0 / (a + math.sqrt(a * a - 4.0 * b)) - 1.0


def _min_quadratic(a: float, b: float,
                   margin: Callable[[float, float], float]) -> float:
    """The disc minimum of both entry points below; ``margin(a, b)`` is
    min |root| - 1 for b > 0, and (a, b) is in G_2 when it exceeds
    ``MEMBERSHIP_TOL``, the rule of :func:`in_polydisc_roots`.

        1 - a + b                 when a (b+1) / (4 b) >= 1,
        (1-b) sqrt(1 - a^2/(4b))  otherwise,

    and 1 - a in the degenerate linear case b = 0. In the second branch
    the radicand stays at least ((1-b)/(1+b))^2, so no further guard is
    needed.
    """
    if a < 0.0 or b < 0.0:
        raise NotInG2("branch formulas need a, b >= 0")
    if b == 0.0:
        if not a < 1.0:
            raise NotInG2(f"(a, b)=({a}, 0) outside G_2")
        return 1.0 - a
    m = margin(a, b)
    if not m > MEMBERSHIP_TOL:
        raise NotInG2(f"(a, b)=({a}, {b}) outside G_2 (margin {m:.3e})")
    if a * (b + 1.0) / (4.0 * b) >= 1.0:
        return 1.0 - a + b
    return (1.0 - b) * math.sqrt(1.0 - a * a / (4.0 * b))


def min_quadratic(a: float, b: float) -> float:
    """min over the closed unit disc of |1 + a z + b z^2| for a, b >= 0
    with (a, b) in G_2 (branch formulas in :func:`_min_quadratic`).

    G_2 membership is decided by the root oracle
    :func:`~rieszcert.polydisc.in_polydisc_roots` (Aberth iteration in
    :func:`~rieszcert.polyform.roots`); NotInG2 carries its margin. The
    ``section`` command uses this entry point, and
    :func:`solve_r1_tilde` asks it once per row to cross-check the
    closed form of :func:`min_quadratic_closed` at the reported point.
    """
    return _min_quadratic(
        a, b, lambda a, b: in_polydisc_roots((a, b)).margin)


def min_quadratic_closed(a: float, b: float) -> float:
    """:func:`min_quadratic` with G_2 membership decided by the closed
    form :func:`quadratic_root_margin` under the same rule, so no root
    finder runs; :func:`solve_r1_tilde` searches with it."""
    return _min_quadratic(a, b, quadratic_root_margin)


def _cross_check_g2(a: float, b: float) -> None:
    """Check the closed form against the root oracle at one (a, b):
    :func:`min_quadratic` and :func:`min_quadratic_closed` must return
    the same value or both raise NotInG2. A split verdict stands only
    within ``_ORACLE_SLACK`` of the membership rule, where the oracle's
    root error (up to ~sqrt(eps) at a double root) can tip it; beyond
    that the two deciders disagree and RieszcertError is raised."""

    def value(min_disc: Callable[[float, float], float]):
        try:
            return min_disc(a, b)
        except NotInG2:
            return None

    oracle, closed = value(min_quadratic), value(min_quadratic_closed)
    if oracle != closed and (abs(quadratic_root_margin(a, b)
                                 - MEMBERSHIP_TOL) > _ORACLE_SLACK):
        raise RieszcertError(
            f"(a, b)=({a}, {b}): closed-form G_2 minimum {closed} "
            f"disagrees with the root oracle's {oracle}")


def structured_weight(q: float, alpha: float, p: int, k: int) -> float:
    """Weight w_k = p^{k alpha} f_hat_q(p^k) of the structured mode p^k:
    p^{k alpha} (1-q) q^{(m-1)/2} / (1 - q^m) with m = p^k. The
    threshold equations and :func:`certify_T1` call w_1 and w_2 a(q)
    and b(q); :func:`certify_Td` keeps w_1 .. w_degree."""
    m = p ** k
    lq = log_nome(q)
    scale = float(p) ** (k * alpha)
    return (scale * (1.0 - q) * math.exp(0.5 * (m - 1) * lq)
            / -math.expm1(m * lq))


@functools.lru_cache(maxsize=64)
def _r0(alpha: float, terms: int, tol: float) -> float:
    """:func:`solve_r0` past its domain check; rows of one alpha at
    several p share it."""
    return bisect_monotone(lambda q: s_alpha(q, alpha, terms).value - 2.0,
                           _Q_LO, _Q_HI, tol=tol)


def solve_r0(alpha: float, terms: int = DEFAULT_TERMS,
             tol: float = BISECTION_TOL) -> float:
    """Unique solution of s_alpha(q) = 2 (monotonicity gives
    uniqueness); bisection to ``tol`` in q. :func:`util.bisect_monotone`
    narrows [_Q_LO, _Q_HI] from its ends and replays the midpoints of
    plain bisection on it, so r0 is the float plain bisection gives.
    Input outside the solvers' domain (:func:`_check_solver_domain`)
    raises ValueError, an infinite weight (2l+1)^alpha the overflow
    error of :func:`s_alpha` at _Q_LO.
    """
    _check_solver_domain(alpha, terms, tol)
    return _r0(alpha, terms, tol)


def _newton_gap(f, room: float, tol: float, label: str) -> float:
    """The root d in (0, room) of f(d) = (G(d), G'(d)), G increasing and
    G(0) < 0 (or 0, returned), by Newton steps from d = 0. A G that is
    not finite counts as past the root; a step leaving the bracket of
    known signs takes its midpoint. After a step h of at most
    ``_GAP_STOP`` tol its end is returned, within max |G''| h^2 / (2 G')
    of the root; but where h was a midpoint and no point read G >= 0,
    G(room) < 0 raises BracketFailure, as G(0) > 0 does."""
    lo, hi, d = 0.0, room, 0.0
    value, slope = f(d)
    for _ in range(_GAP_STEPS):
        if value == 0.0:
            return d
        if d == 0.0 and not value < 0.0:
            raise BracketFailure(f"{label}: no root above the anchor "
                                 f"(difference {value} there)")
        lo, hi = (d, hi) if value < 0.0 else (lo, d)
        new = d - value / slope if slope > 0.0 else math.nan
        bisected = not lo < new < hi
        if bisected:
            new = 0.5 * (lo + hi)
        if abs(new - d) <= _GAP_STOP * tol:
            if bisected and hi == room and f(room)[0] < 0.0:
                raise BracketFailure(f"{label}: no sign change up to {room}")
            return new
        d = new
        value, slope = f(d)
    raise BracketFailure(f"{label}: no Newton convergence in "
                         f"{_GAP_STEPS} steps")


@functools.lru_cache(maxsize=64)
def _row(alpha: float, p: int, terms: int, tol: float) -> tuple:
    """(r0, gap1, gap2) of a threshold row in the solvers' domain
    (:func:`_check_solver_domain`): r1 = r0 + gap1, r1_tilde = r0 +
    (gap1 + gap2), gap2 the (type, args) of the error its search raised,
    if any. With x = r0 (a float) and D(e) = s(x + e) - s(x), gap1
    solves D(e) = delta(x + e), delta = b / (2 p^alpha), and gap2 solves
    D(gap1 + d) - D(gap1) + delta(r1) = R(r1 + d) - 2, R = 1 + a + b +
    min |1 + a z + b z^2|. At d = 0 these read -delta(x) and, in the
    first branch of :func:`min_quadratic_closed`, delta(r1) - 2 b(r1):
    negative without cancellation. Each evaluation sums at the float q
    = x + e, rho = (x + e) - q from the two-sum: D(e) = s(q) - s(x) +
    s'(q) rho, s and s' from one kernel pass (:func:`_slope_sums`), and
    w(q) + w'(q) rho for a and b, so a gap below the float spacing at x
    comes from the derivatives, off by at most max |s''| rho^2 / 2. A
    point where (a, b) leaves G_2 is past the root, with a log record;
    the root oracle checks the closed form at r1_tilde."""
    _check_solver_domain(alpha, terms, tol, p)
    x = _r0(alpha, terms, tol)
    s_x = _slope_sums(x, alpha, terms)[0]

    def point(e: float) -> tuple:
        # q, D(e), s'(q) and the weights (a, a', b, b') at x + e
        q = x + e
        moved = q - x
        rho = (x - (q - moved)) + (e - moved)
        s, slope = _slope_sums(q, alpha, terms)
        weights = []
        for k in (1, 2):
            # w_k times the factor g of _row_sums at the mode m = p^k
            w, m = structured_weight(q, alpha, p, k), p ** k
            dw = w * ((m / -math.expm1(m * log_nome(q)) - 0.5 * (m + 1)) / q
                      - 1.0 / (1.0 - q))
            weights += [w + dw * rho, dw]
        return q, s - s_x + slope * rho, slope, weights

    def r1_difference(e: float) -> tuple:
        _, d_sum, slope, (_, _, b, db) = point(e)
        return d_sum - 0.5 * b / pa, slope - 0.5 * db / pa

    def r1_tilde_difference(d: float) -> tuple:
        q, d_sum, slope, (a, da, b, db) = point(gap1 + d)
        try:
            minimum = min_quadratic_closed(a, b)
        except NotInG2:
            log.info("r1_tilde: membership lost at q=%.6f during the "
                     "search; treating as past the root", q)
            return math.inf, math.nan
        lhs = d_sum - d_r1 + delta_r1
        if b == 0.0 or a * (b + 1.0) / (4.0 * b) >= 1.0:
            return lhs - 2.0 * b, slope - 2.0 * db
        # R - 2 = a + b - 1 + (1-b) sqrt(g), g = 1 - a^2/(4b)
        root = minimum / (1.0 - b)
        dg = (a * a * db / b - 2.0 * a * da) / (4.0 * b)
        return (lhs - (a + b - 1.0 + minimum), slope - da
                - db * (1.0 - root) - (1.0 - b) * dg / (2.0 * root))

    try:
        pa = float(p) ** alpha
        gap1 = _newton_gap(r1_difference, _Q_HI - x, tol, "r1")
        q1, d_r1, _, (_, _, b1, _) = point(gap1)
        delta_r1 = 0.5 * b1 / pa
        try:
            gap2 = _newton_gap(r1_tilde_difference, _Q_HI - q1, tol,
                               "r1_tilde")
            _cross_check_g2(*(structured_weight(x + (gap1 + gap2), alpha,
                                                p, k) for k in (1, 2)))
        except RieszcertError as error:
            gap2 = (type(error), error.args)
    except OverflowError as error:
        raise _weight_overflow(alpha, p) from error
    return x, gap1, gap2


def solve_r1(alpha: float, p: int, terms: int = DEFAULT_TERMS,
             tol: float = BISECTION_TOL) -> float:
    """Solution of s_alpha(q) = 2 + b(q) / (2 p^alpha): r0 (to ``tol``,
    :func:`solve_r0`) plus the gap of :func:`_row`. Input outside the
    solvers' domain (:func:`_check_solver_domain`) raises ValueError."""
    r0, gap1, _ = _row(alpha, p, terms, tol)
    return r0 + gap1


def solve_r1_tilde(alpha: float, p: int, terms: int = DEFAULT_TERMS,
                   tol: float = BISECTION_TOL) -> float:
    """Solution of s_alpha(q) = 1 + a(q) + b(q) + min |1 + a(q) z +
    b(q) z^2|, the sharp version of the r1 equation: r1 plus the gap of
    :func:`_row`, with G_2 membership decided in closed form. It is
    conjectural as a basis threshold; the certificates report it as
    such. Raises what :func:`solve_r1` raises, and BracketFailure where
    (a, b) leaves G_2 before the root."""
    r0, gap1, gap2 = _full_row(alpha, p, terms, tol)
    return r0 + (gap1 + gap2)


def _full_row(alpha: float, p: int, terms: int, tol: float) -> tuple:
    """:func:`_row`, raising a fresh copy of the error gap2's search met."""
    r0, gap1, gap2 = _row(alpha, p, terms, tol)
    if isinstance(gap2, tuple):
        raise gap2[0](*gap2[1])
    return r0, gap1, gap2


@dataclass(frozen=True)
class GpThresholds:
    """Certified nome thresholds at one exponent: r0 (plain smallness),
    r1 = r0 + gap1 (periodic two-weight certificate) and r1_tilde =
    r0 + (gap1 + gap2) (sharp variant, conjectural). The gaps are > 0;
    printed columns may tie, never reverse."""

    alpha: float
    p: int
    r0: float
    gap1: float
    gap2: float
    terms: int = DEFAULT_TERMS

    def __post_init__(self):
        if not (self.gap1 > 0.0 and self.gap2 > 0.0):
            raise ValueError(f"threshold gaps must be > 0: {self.gap1}, "
                             f"{self.gap2}")

    @property
    def r1(self) -> float:
        return self.r0 + self.gap1

    @property
    def r1_tilde(self) -> float:
        return self.r0 + (self.gap1 + self.gap2)


def thresholds(alpha: float, p: int,
               terms: int = DEFAULT_TERMS) -> GpThresholds:
    return GpThresholds(alpha, p, *_full_row(alpha, p, terms, BISECTION_TOL),
                        terms)


def _check_terms(terms: int) -> None:
    if not 1 <= terms <= MAX_TERMS:
        raise ValueError(f"terms must lie in 1..{MAX_TERMS}")


def _check_solver_domain(alpha: float, terms: int, tol: float,
                         p: int = 2) -> None:
    """The threshold solvers' domain, with the wording of :class:`GpSpec`
    and of the CLI's settings: raises ValueError unless 2 <= p <= the
    largest float, 0 <= alpha < inf, 1 <= terms <= ``MAX_TERMS`` and
    0 < tol < inf. An even p is admitted: the threshold equations are
    defined there (:func:`check_p_alpha`). r0, which takes no p, checks
    the default."""
    check_p_range(p)
    check_alpha(alpha)
    _check_terms(terms)
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0")


def check_p_alpha(p: int, alpha: float) -> None:
    """The (p, alpha) part of the family's domain, shared by
    :class:`GpSpec` and the threshold sweep of the CLI: raises
    ValueError unless p is odd, 3 <= p <= the largest float, and
    0 <= alpha < inf. At an even p the odd-mode series has no
    coefficient at the modes p and p^2, so the structured part of the
    envelope argument is no part of the operator."""
    check_p_range(p)
    if p % 2 == 0:
        raise ValueError("p must be odd: the odd-mode series has no "
                         "coefficient at the modes p and p^2")
    check_alpha(alpha)


@dataclass(frozen=True)
class GpSpec:
    """Family data: period base p, Sobolev exponent alpha, envelope
    sup_q = sup_n q_n of the p-periodic nomes, the truncation of s_alpha
    and the structured degree (2 for T1, else the experimental Td). The
    structured part reaches the mode p^degree, so p^degree must stay
    below the largest float."""

    p: int
    alpha: float
    sup_q: float
    terms: int = DEFAULT_TERMS
    degree: int = 2

    def __post_init__(self):
        if not 0.0 < self.sup_q < 1.0:
            raise ValueError("sup_q must lie in (0, 1)")
        check_p_alpha(self.p, self.alpha)
        _check_terms(self.terms)
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.degree * math.log(self.p) >= _LOG_FLOAT_MAX:
            raise ValueError("p ** degree must stay below the largest float")


def certify_T1(sup_q: float, alpha: float, p: int,
               terms: int = DEFAULT_TERMS) -> Certificate:
    """Certificate for p-periodic nome sequences with sup q_n = sup_q.

    The weights are a = w_1 and b = w_2 of :func:`structured_weight` at
    r = sup_q. The verdict is the threshold inequality itself,
    s_alpha(r) + truncation bound < 2 + b(r)/(2 p^alpha), which is the
    budget-vs-floor comparison of the envelope argument in cancellation-
    free form and is equivalent to r < r1(alpha). The structural checks
    of that argument are evaluated and reported alongside: the G_2
    membership chain 0 < floor = 1 - a - b(1 - 1/(2 p^alpha)) with
    1 - a + b above it (whose gap is b(2 - 1/(2 p^alpha)) exactly), the
    independent root-oracle membership of (a, b), the second-branch
    inequality (whose gap is (a(1+b) - b/p^alpha)/2 exactly), and the
    Neumann budget check of the degree-2 envelope symbol: the clipped
    floor max(0, floor) minus the clipped budget max(0, tail_sum),
    reported as ``delegate_margin`` when the budget is finite. Both
    weights increase in q, so the floor at sup_q bounds every member of
    the family. The threshold inequality implies every structural
    check (p is odd, see :func:`check_p_alpha`). Negative outcomes are
    returned as verdict false, never raised; inputs outside the
    family's domain, which :class:`GpSpec` defines, raise ValueError,
    and a weight or mode sum past the float range raises
    RieszcertError, as in the threshold solvers.
    """
    r = float(sup_q)
    GpSpec(p, alpha, r, terms)
    try:
        pa = float(p) ** alpha
        a = structured_weight(r, alpha, p, 1)
        b = structured_weight(r, alpha, p, 2)
    except OverflowError as error:
        raise _weight_overflow(alpha, p) from error
    s = s_alpha(r, alpha, terms)
    threshold_rhs = 2.0 + 0.5 * b / pa
    tail_ok = s.value + s.tail_bound < threshold_rhs

    tail_sum = s.value + s.tail_bound - 1.0 - a - b
    floor = 1.0 - a - b * (1.0 - 0.5 / pa)
    chain_ok = floor > 0.0
    roots_verdict = in_polydisc_roots((a, b))
    branch2_margin = 0.5 * (a * (1.0 + b) - b / pa)

    margins = {
        "a": a, "b": b,
        "s_value": s.value, "s_tail_bound": s.tail_bound,
        "tail_margin": threshold_rhs - s.value - s.tail_bound,
        "tail_sum": tail_sum, "floor": floor,
        "chain_margin": b * (2.0 - 0.5 / pa),
        "membership_margin": roots_verdict.margin,
        "branch2_margin": branch2_margin,
        "basic_margin": 2.0 - s.value,
    }

    delegate_margin = -math.inf
    if math.isfinite(tail_sum):
        # grouped as a + b(...), not through `floor`: the two roundings
        # differ in the last bit, and this margin is part of the output
        delegate_margin = (max(0.0, 1.0 - (a + b * (1.0 - 0.5 / pa)))
                           - max(0.0, tail_sum))
        margins["delegate_margin"] = delegate_margin

    verdict = bool(tail_ok and math.isfinite(tail_sum))
    structural_ok = bool(chain_ok and roots_verdict.inside
                         and branch2_margin > 0.0 and delegate_margin > 0.0)
    return Certificate(
        kind="T1",
        verdict=verdict,
        parameters={"p": p, "alpha": alpha, "sup_q": r, "terms": terms,
                    "structural_checks_ok": structural_ok,
                    "hypotheses": "p-periodic nomes (q_n = q_{pn}) with "
                                  "sup below r1(alpha)",
                    "note": "identifying the structured part with the "
                            "dilation coefficients requires odd p"},
        margins=margins,
        mode=ENVELOPE_RIGOROUS,
    )


def certify_Td(sup_q: float, alpha: float, p: int, degree: int,
               terms: int = DEFAULT_TERMS) -> Certificate:
    """Experimental higher-degree variant of :func:`certify_T1`.

    Keeps the first ``degree`` weights w_k of :func:`structured_weight`
    at r = sup_q as the structured part, so w_1 and w_2 are the a and b
    of :func:`certify_T1` bit for bit, and moves everything else into
    the perturbation budget. The symbol minimum of 1 + sum w_k z^k is
    computed numerically at the envelope parameter; no closed-form
    threshold or parameter-monotone bound is claimed, so the
    certificate is labeled sample-heuristic. A weight or mode sum past
    the float range raises RieszcertError.
    """
    r = float(sup_q)
    GpSpec(p, alpha, r, terms, degree)
    try:
        weights = [structured_weight(r, alpha, p, k)
                   for k in range(1, degree + 1)]
    except OverflowError as error:
        raise _weight_overflow(alpha, p) from error
    s = s_alpha(r, alpha, terms)
    budget = max(0.0, s.value + s.tail_bound - 1.0 - sum(weights))
    floor = st.symbol_inf(weights)
    # Neumann series: T stays invertible while the budget is below the
    # structured floor; an infinite budget bounds nothing
    margin = floor - budget
    return Certificate(
        kind="T1",
        verdict=margin > 0.0,
        parameters={"p": p, "alpha": alpha, "sup_q": r, "terms": terms,
                    "degree": degree, "experimental": True,
                    "hypotheses": "p-periodic nomes (q_n = q_{pn}); "
                                  "symbol minimum evaluated at the "
                                  "envelope parameter only"},
        margins={"symbol_inf": floor, "tail_sum": budget, "margin": margin,
                 "s_value": s.value, "s_tail_bound": s.tail_bound},
        mode=SAMPLE_HEURISTIC,
    )


def certify(spec: GpSpec) -> Certificate:
    """:func:`certify_T1` at degree 2, :func:`certify_Td` otherwise."""
    if spec.degree == 2:
        return certify_T1(spec.sup_q, spec.alpha, spec.p, spec.terms)
    return certify_Td(spec.sup_q, spec.alpha, spec.p, spec.degree,
                      spec.terms)


# ---------------------------------------------------------------------------
# eigenpairs

def eigenvalue(n: int, mu: float) -> float:
    """eta_n = 4 n^2 (1 + mu^2) K(mu)^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < mu < 1.0:
        raise ModulusOutOfRange(f"modulus {mu} outside (0, 1)")
    K, _ = complete_elliptic(mu)
    return 4.0 * n * n * (1.0 + mu * mu) * K * K


def sin_pi(x: np.ndarray) -> np.ndarray:
    """sin(pi*x) on an array, with exact zeros wherever x is an integer.

    The argument is folded into [0, 1/2] before calling sin, so dilated
    sine series vanish exactly at the endpoints of the unit interval.
    """
    y = np.mod(x, 2.0)
    sign = np.where(y > 1.0, -1.0, 1.0)
    y = np.where(y > 1.0, y - 1.0, y)
    y = np.where(y > 0.5, 1.0 - y, y)
    return sign * np.sin(np.pi * y)


def eigenfunction(n: int, mu: float, x_grid) -> np.ndarray:
    """n-th stationary state u_n(x) = 2^{3/2} n mu K(mu) sn(2 K(mu) n x),
    a dilation of the odd-mode profile f_q of the nome q of mu:

        u_n(x) = A_n f_q(n x),  A_n = 2^{5/2} pi n sqrt(q) / (1-q),
        f_q(x) = sum_l f_hat_q(2l+1) sin((2l+1) pi x),

    with f_hat_q from :func:`dilation.odd_modes`. log q is taken as
    -pi K(mu')/K(mu) directly, so a nome that underflows still gives
    sqrt(q) and 1 - q. The sine evaluation folds its argument, so u_n
    vanishes exactly at x = 0 and x = 1. The truncation puts the series
    tail below 1e-18 relative to the leading coefficient.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lq = _log_nome_of(mu)
    one_minus_q = -math.expm1(lq)
    terms = max(24, min(100000, int(-41.5 / lq) + 1))
    l = np.arange(terms, dtype=float)
    modes = 2.0 * l + 1.0
    # the factor 2^{5/2} pi n goes into the exponent: e^{lq/2} alone
    # underflows to 0 below mu ~ 2e-323, where A_n is still subnormal
    amplitude = (math.exp(0.5 * lq + math.log(2.0 ** 2.5 * math.pi * n))
                 / one_minus_q)
    coeff = amplitude * odd_modes(lq, one_minus_q, l, modes)
    x = np.asarray(x_grid, dtype=float)
    out = (coeff[None, :]
           * sin_pi(modes[None, :] * n * x.reshape(-1, 1))).sum(axis=1)
    return out.reshape(x.shape) if x.shape else float(out[0])


def cj_rule(q_of_n: Callable[[int], float] | float,
            alpha: float) -> Callable:
    """Section coefficients c_j(n) = j^alpha * profile coefficient of
    q_n at mode j (zero on even modes), on int arrays j, n, through
    :func:`dilation.section_rule`."""
    return section_rule(lambda q: OddModeProfile(q, alpha), q_of_n, alpha)

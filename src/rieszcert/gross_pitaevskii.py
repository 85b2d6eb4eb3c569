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
from .dilation import OddModeProfile, section_rule
from .errors import (BracketFailure, ModulusOutOfRange, NotInG2,
                     RieszcertError)
from .polydisc import MEMBERSHIP_TOL, in_polydisc_roots
from .util import bisect_monotone, log_nome, sin_pi

log = logging.getLogger(__name__)

DEFAULT_TERMS = 500
LAMBERT_TERMS = 2000
# s_alpha holds about 36 bytes per term: 1e6 terms take ~40 ms and ~35 MB
MAX_TERMS = 10 ** 6
# degree * ln p at or above this makes the mode p^degree overflow a float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# the root oracle's error in min |root| - 1 stays below this on a
# grid a in [0, 3], b in (0, 2], double roots a^2 = 4b included
_ORACLE_SLACK = 1e-5
_Q_LO = 1e-9
_Q_HI = 1.0 - 1e-9
# the threshold solvers' prescan grid, and the largest block of
# summands the mode-sum kernel builds at once (256 kB of floats)
_PRESCAN_POINTS = 64
_BLOCK_ELEMENTS = 32768


# ---------------------------------------------------------------------------
# elliptic kernel

def _ke_from_moduli(k: float, kp: float) -> tuple:
    """K and E from the modulus pair (k, k') by the arithmetic-geometric
    mean, K = pi / (2 agm(1, k')) and E = K (1 - sum 2^{n-1} c_n^2) with
    c_0 = k and c_{n+1} = (a_n - b_n)/2.

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
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


def complete_elliptic(mu: float) -> tuple:
    """Complete elliptic integrals (K(mu), E(mu)) for modulus mu in
    [0, 1), to close to machine precision."""
    if not 0.0 <= mu < 1.0:
        raise ModulusOutOfRange(f"modulus {mu} outside [0, 1)")
    kp = math.sqrt((1.0 - mu) * (1.0 + mu))
    return _ke_from_moduli(mu, kp)


def nome(mu: float) -> float:
    """Nome q = exp(-pi K(mu') / K(mu)) with mu' the complementary
    modulus."""
    if not 0.0 < mu < 1.0:
        raise ModulusOutOfRange(f"modulus {mu} outside (0, 1)")
    kp = math.sqrt((1.0 - mu) * (1.0 + mu))
    # evaluate both integrals from the same (k, k') pair; going through
    # complete_elliptic would lose mu' to rounding for tiny mu
    K, _ = _ke_from_moduli(mu, kp)
    Kp, _ = _ke_from_moduli(kp, mu)
    return math.exp(-math.pi * Kp / K)


def _thetas(r: float) -> tuple:
    """Jacobi theta constants (theta2, theta3, theta4) at nome r."""
    if not 0.0 < r < 1.0:
        raise ValueError("nome must lie in (0, 1)")
    t2 = 1.0
    n = 1
    while True:
        term = r ** (n * (n + 1))
        t2 += term
        if term < 1e-18 or n > 10 ** 6:
            break
        n += 1
    t2 *= 2.0 * r ** 0.25
    t3 = t4 = 1.0
    n = 1
    while True:
        term = r ** (n * n)
        t3 += 2.0 * term
        t4 += -2.0 * term if n % 2 else 2.0 * term
        if term < 1e-18 or n > 10 ** 6:
            break
        n += 1
    return t2, t3, t4


def _ke_at_nome(r: float) -> tuple:
    """(K, E) at the modulus whose nome is r, going through the theta
    quotients k = (theta2/theta3)^2 and k' = (theta4/theta3)^2. This
    stays accurate where the modulus itself would round to 1."""
    t2, t3, t4 = _thetas(r)
    return _ke_from_moduli((t2 / t3) ** 2, (t4 / t3) ** 2)


def lambert_kernel_elliptic(r: float) -> float:
    """Closed form K (K - E) / (2 pi^2), at the modulus with nome r, for
    the weighted series sum_n n r^n / (1 - r^{2n})."""
    K, E = _ke_at_nome(r)
    return K * (K - E) / (2.0 * math.pi ** 2)


# ---------------------------------------------------------------------------
# mode sums and Lambert series

@dataclass(frozen=True)
class SeriesValue:
    """Partial sum plus a certified upper bound for the omitted tail."""

    value: float
    tail_bound: float

    def __float__(self) -> float:
        return self.value


def _mode_weights(alpha: float, terms: int) -> tuple:
    """(l, 2l+1, (2l+1)^alpha) for l < ``terms``: the q-free factors of
    the mode sum, built once per solver call and reused at every q."""
    l = np.arange(terms, dtype=float)
    odd = 2.0 * l + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return l, odd, odd ** alpha


def _column(xs: list):
    """Values per row, as a column against the terms axis; a lone value
    stays a float, numpy's fastest path for a one-row block."""
    return xs[0] if len(xs) == 1 else np.array(xs)[:, None]


def _mode_sums(qs, alpha: float, terms: int,
               weights: tuple | None = None) -> np.ndarray:
    """Raw partial sums of :func:`s_alpha` at each q of ``qs``, not
    checked for overflow. ``weights`` is :func:`_mode_weights` of
    (alpha, terms), built here when not given.

    Row i of a block holds the summands at qs[i], computed with the
    operations of a single q in the same order, and numpy sums each row
    of a C-contiguous block as it sums a 1-d array, so every sum is
    bit-identical to a one-q call. A block holds at most
    ``_BLOCK_ELEMENTS`` summands (one row at least), so a batch needs
    no more memory than one q does at large ``terms``.
    """
    l, odd, w = _mode_weights(alpha, terms) if weights is None else weights
    lqs = [log_nome(q) for q in qs]
    rows = max(1, _BLOCK_ELEMENTS // max(terms, 1))
    sums = np.empty(len(qs))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(qs), rows):
            lq = _column(lqs[i:i + rows])
            # w e^{l lq} (1-q) / (-expm1((2l+1) lq)), one operation at a
            # time in that order, in place in two temporaries
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


def _finite_sum(total: float, q: float, alpha: float) -> float:
    # the summands are nonnegative: an inf or nan among them leaves the
    # sum inf or nan too
    if not math.isfinite(total):
        raise RieszcertError(f"s_alpha overflows the float range at "
                             f"q={q}, alpha={alpha}")
    return float(total)


def s_alpha(q: float, alpha: float, terms: int = DEFAULT_TERMS, *,
            weights: tuple | None = None) -> SeriesValue:
    """Weighted mode sum s_alpha(q) = sum_l (2l+1)^alpha (1-q) q^l /
    (1 - q^{2l+1}), strictly increasing in both q and alpha.

    Each term is below (2l+1)^alpha q^l, and consecutive term ratios are
    decreasing, so the tail after ``terms`` summands is bounded by a
    geometric series started at the first omitted term. Raises
    RieszcertError when a summand or the sum overflows.

    The partial sum is the kernel :func:`_mode_sums` at this one q; the
    threshold solvers pass ``weights`` (:func:`_mode_weights` of alpha
    and terms) so that the q-free factors are built once per solve.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    total = _finite_sum(_mode_sums((q,), alpha, terms, weights)[0], q, alpha)
    lq = log_nome(q)
    first_omitted = (2.0 * terms + 1.0) ** alpha * math.exp(terms * lq)
    ratio = ((2.0 * terms + 3.0) / (2.0 * terms + 1.0)) ** alpha * q
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
    parts shows this reproduces the odd-mode sum.
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
           - lambert_series(g, q, LAMBERT_TERMS).value
           + lambert_series(g, q * q, LAMBERT_TERMS).value)
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
        if a >= 1.0:
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


def a_weight(q: float, alpha: float, p: int) -> float:
    """p^alpha-scaled profile weight at mode p:
    p^alpha (1-q) q^{(p-1)/2} / (1 - q^p)."""
    lq = log_nome(q)
    return (float(p) ** alpha * (1.0 - q) * math.exp(0.5 * (p - 1) * lq)
            / (-math.expm1(p * lq)))


def b_weight(q: float, alpha: float, p: int) -> float:
    """p^{2 alpha}-scaled profile weight at mode p^2:
    p^{2 alpha} (1-q) q^{(p^2-1)/2} / (1 - q^{p^2})."""
    lq = log_nome(q)
    pp = p * p
    return (float(p) ** (2.0 * alpha) * (1.0 - q)
            * math.exp(0.5 * (pp - 1) * lq) / (-math.expm1(pp * lq)))


def solve_r0(alpha: float, terms: int = DEFAULT_TERMS,
             tol: float = 1e-9) -> float:
    """Unique solution of s_alpha(q) = 2 (monotonicity gives
    uniqueness); bisection to ``tol`` in q."""
    weights = _mode_weights(alpha, terms)
    return bisect_monotone(
        lambda q: s_alpha(q, alpha, terms, weights=weights).value - 2.0,
        _Q_LO, _Q_HI, tol=tol)


def _prescan_grid(lo: float, hi: float) -> list:
    return [lo + (hi - lo) * i / (_PRESCAN_POINTS - 1)
            for i in range(_PRESCAN_POINTS)]


@functools.lru_cache(maxsize=32)
def _prescan_sums(alpha: float, terms: int, lo: float, hi: float) -> tuple:
    """Raw mode sums on the prescan grid of [lo, hi], one kernel call.

    They depend on (alpha, terms, lo, hi) alone, so :func:`solve_r1`
    and :func:`solve_r1_tilde` share them whenever the latter's bracket
    did not shrink. The cache holds immutable tuples of floats, which
    keeps the solvers pure and safe for concurrent use.
    """
    return tuple(_mode_sums(_prescan_grid(lo, hi), alpha, terms).tolist())


def _single_sign_change(f, alpha: float, terms: int, lo: float, hi: float,
                        label: str) -> tuple:
    """First sign change of ``f(q, s)`` on the 64-point grid of
    [lo, hi], with s the raw mode sum at q from :func:`_prescan_sums`;
    f checks s for overflow itself. More than one sign change is
    logged. Returns the bracket and f at its ends, (lo, hi, f(lo),
    f(hi)), so that the bisection does not evaluate them again."""
    qs = _prescan_grid(lo, hi)
    vals = [f(q, s) for q, s in zip(qs, _prescan_sums(alpha, terms, lo, hi))]
    changes = [i for i in range(_PRESCAN_POINTS - 1)
               if (vals[i] < 0.0) != (vals[i + 1] < 0.0)]
    if not changes:
        raise BracketFailure(f"{label}: no sign change on [{lo}, {hi}]")
    if len(changes) > 1:
        log.warning("%s: %d sign changes on the prescan grid; using the "
                    "first bracket", label, len(changes))
    i = changes[0]
    return qs[i], qs[i + 1], vals[i], vals[i + 1]


def solve_r1(alpha: float, p: int, terms: int = DEFAULT_TERMS,
             tol: float = 1e-9) -> float:
    """Unique solution of s_alpha(q) = 2 + b(q) / (2 p^alpha).

    A 64-point prescan confirms a single sign change of the difference
    (logged if violated) before bisecting. The prescan's mode sums come
    from one batched kernel call, shared with :func:`solve_r1_tilde`,
    and the bisection starts from the prescan's values at its bracket.
    """
    pa = float(p) ** alpha
    weights = _mode_weights(alpha, terms)

    def f(q: float, s: float) -> float:
        return (_finite_sum(s, q, alpha) - 2.0
                - 0.5 * b_weight(q, alpha, p) / pa)

    lo, hi, flo, fhi = _single_sign_change(f, alpha, terms, _Q_LO, _Q_HI,
                                           "r1")
    return bisect_monotone(
        lambda q: f(q, s_alpha(q, alpha, terms, weights=weights).value),
        lo, hi, tol=tol, flo=flo, fhi=fhi)


def solve_r1_tilde(alpha: float, p: int, terms: int = DEFAULT_TERMS,
                   tol: float = 1e-9) -> float:
    """Solution of s_alpha(q) = 1 + a(q) + b(q) + min |1 + a(q) z +
    b(q) z^2|, the sharp version of the r1 equation. Conjectural as a
    basis threshold; the certificates report it as such.

    G_2 membership along the search is decided in closed form by
    :func:`min_quadratic_closed`, so the evaluations of a row's search
    run no root finder; the root oracle runs once, at the reported point,
    where :func:`_cross_check_g2` holds the two deciders to agreement.
    Where (a(q), b(q)) leaves G_2 the difference is treated as past the
    root: the upper bracket is shrunk (and the event logged) until the
    closed-form minimum is defined. The shrink steps after the first
    decide on (a, b) alone, without the mode sum; the prescan is that
    of :func:`solve_r1` (one batched kernel call, cached) when the
    bracket did not shrink, and the bisection starts from its values.
    """

    def f(q: float, s: float) -> float:
        a = a_weight(q, alpha, p)
        b = b_weight(q, alpha, p)
        return (_finite_sum(s, q, alpha)
                - 1.0 - a - b - min_quadratic_closed(a, b))

    def first(q: float) -> None:
        # the order of f: a, b, the overflow check of s, membership. a
        # and b can only raise for (p, alpha) alone, so once they pass
        # here the bisection may check s first, in s_alpha
        f(q, _mode_sums((q,), alpha, terms, weights)[0])

    def in_g2(q: float) -> None:
        # a mode sum finite at _Q_HI is finite at every smaller q: no
        # weight (2l+1)^alpha is then infinite, each numerator
        # (2l+1)^alpha q^l (1-q) stays below its weight, and each ratio
        # (1-q) q^l / (1 - q^{2l+1}) = 1 / sum_{|k| <= l} q^k grows with
        # q. Only rounding within a few ulps of the float max could break
        # this; tests/test_gross_pitaevskii.py checks it at the overflow
        # edge of alpha
        min_quadratic_closed(a_weight(q, alpha, p), b_weight(q, alpha, p))

    weights = _mode_weights(alpha, terms)
    lo, hi = _Q_LO, _Q_HI
    check = first
    while True:
        try:
            check(hi)
            break
        except NotInG2:
            log.info("r1_tilde: (a, b) outside G_2 at q=%.6f; shrinking "
                     "the bracket", hi)
            hi = lo + 0.95 * (hi - lo)
            if hi - lo < tol:
                raise BracketFailure(
                    "no subinterval with (a, b) in G_2") from None
            check = in_g2

    def lost(q: float) -> float:
        log.info("r1_tilde: membership lost at q=%.6f during the "
                 "search; treating as past the root", q)
        return math.inf

    def g(q: float, s: float) -> float:
        try:
            return f(q, s)
        except NotInG2:
            return lost(q)

    lo, hi, flo, fhi = _single_sign_change(g, alpha, terms, lo, hi,
                                           "r1_tilde")
    # f is finite wherever (a, b) is in G_2, so an infinite end is one
    # where membership was lost; the search logs it on taking the
    # bracket, as it logs every such point it meets
    for q_end, f_end in ((lo, flo), (hi, fhi)):
        if f_end == math.inf:
            lost(q_end)
    q = bisect_monotone(
        lambda q: g(q, s_alpha(q, alpha, terms, weights=weights).value),
        lo, hi, tol=tol, flo=flo, fhi=fhi)
    _cross_check_g2(a_weight(q, alpha, p), b_weight(q, alpha, p))
    return q


@dataclass(frozen=True)
class GpThresholds:
    """Certified nome thresholds at one exponent: r0 (plain smallness),
    r1 (periodic two-weight certificate), r1_tilde (sharp variant,
    conjectural). Always r0 < r1 < r1_tilde."""

    alpha: float
    p: int
    r0: float
    r1: float
    r1_tilde: float
    terms: int = DEFAULT_TERMS

    def __post_init__(self):
        if not self.r0 < self.r1 < self.r1_tilde:
            raise ValueError(
                f"threshold ordering violated: {self.r0}, {self.r1}, "
                f"{self.r1_tilde}")


def thresholds(alpha: float, p: int,
               terms: int = DEFAULT_TERMS) -> GpThresholds:
    return GpThresholds(alpha, p, solve_r0(alpha, terms),
                        solve_r1(alpha, p, terms),
                        solve_r1_tilde(alpha, p, terms), terms)


def check_p_alpha(p: int, alpha: float) -> None:
    """The (p, alpha) part of the family's domain, shared by
    :class:`GpSpec` and the threshold sweep of the CLI: raises
    ValueError unless p is odd, 3 <= p <= the largest float, and
    0 <= alpha < inf. At an even p the odd-mode series has no
    coefficient at the modes p and p^2, so the structured part of the
    envelope argument is no part of the operator."""
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    if p > sys.float_info.max:
        raise ValueError("p must not exceed the largest float")
    if p % 2 == 0:
        raise ValueError("p must be odd: the odd-mode series has no "
                         "coefficient at the modes p and p^2")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")


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
        if not 1 <= self.terms <= MAX_TERMS:
            raise ValueError(f"terms must lie in 1..{MAX_TERMS}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.degree * math.log(self.p) >= _LOG_FLOAT_MAX:
            raise ValueError("p ** degree must stay below the largest float")


def certify_T1(sup_q: float, alpha: float, p: int,
               terms: int = DEFAULT_TERMS) -> Certificate:
    """Certificate for p-periodic nome sequences with sup q_n = sup_q.

    The verdict is the threshold inequality itself,
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
    family's domain, which :class:`GpSpec` defines, raise ValueError.
    """
    r = float(sup_q)
    GpSpec(p, alpha, r, terms)
    pa = float(p) ** alpha
    a = a_weight(r, alpha, p)
    b = b_weight(r, alpha, p)
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

    Keeps the first ``degree`` shift-power weights w_k = p^{k alpha}
    times the profile coefficient at mode p^k as the structured part
    and moves everything else into the perturbation budget. The symbol
    minimum of 1 + sum w_k z^k is computed numerically at the envelope
    parameter; no closed-form threshold or parameter-monotone bound is
    claimed, so the certificate is labeled sample-heuristic.
    """
    r = float(sup_q)
    GpSpec(p, alpha, r, terms, degree)
    profile = OddModeProfile(r, alpha)
    weights = [float(p) ** (k * alpha) * profile.coeff(p ** k)
               for k in range(1, degree + 1)]
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


def eigenfunction(n: int, mu: float, x_grid) -> np.ndarray:
    """n-th stationary state u_n(x) = 2^{3/2} n mu K(mu) sn(2 K(mu) n x)
    evaluated through its sine series

        u_n(x) = 2^{5/2} pi n sqrt(q) sum_l q^l/(1-q^{2l+1})
                 sin((2l+1) n pi x),

    with q the nome of mu. The sine evaluation folds its argument, so
    u_n vanishes exactly at x = 0 and x = 1. The truncation puts the
    series tail below 1e-18 relative to the leading coefficient.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < mu < 1.0:
        raise ModulusOutOfRange(f"modulus {mu} outside (0, 1)")
    q = nome(mu)
    lq = math.log(q)
    terms = max(24, min(100000, int(-41.5 / lq) + 1))
    l = np.arange(terms, dtype=float)
    coeff = (2.0 ** 2.5 * math.pi * n * math.sqrt(q) * np.exp(l * lq)
             / (-np.expm1((2.0 * l + 1.0) * lq)))
    x = np.asarray(x_grid, dtype=float)
    out = (coeff[None, :]
           * sin_pi((2.0 * l[None, :] + 1.0) * n * x.reshape(-1, 1))).sum(axis=1)
    return out.reshape(x.shape) if x.shape else float(out[0])


def cj_rule(q_of_n: Callable[[int], float] | float,
            alpha: float) -> Callable:
    """Section coefficients c_j(n) = j^alpha * profile coefficient of
    q_n at mode j (zero on even modes), on int arrays j, n, through
    :func:`dilation.section_rule`."""
    return section_rule(lambda q: OddModeProfile(q, alpha), q_of_n, alpha)

"""Small numeric helpers used throughout the package."""

from __future__ import annotations

import math
import sys

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_TOL = 1e-12
# the most calls of f in bisect_monotone's narrowing, and its halvings
_NARROW_STEPS = 24
BISECT_MAX_ITER = 200


def sin_pi(x):
    """sin(pi*x), with exact zeros whenever x is an integer.

    The argument is folded into [0, 1/2] before calling sin, so dilated
    sine series vanish exactly at the endpoints of the unit interval.
    Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    y = np.mod(arr, 2.0)
    sign = np.where(y > 1.0, -1.0, 1.0)
    y = np.where(y > 1.0, y - 1.0, y)
    y = np.where(y > 0.5, 1.0 - y, y)
    out = sign * np.sin(np.pi * y)
    if arr.shape == ():
        return float(out)
    return out


def check_p_range(p: int) -> None:
    """The period base's domain in both families: ValueError unless
    2 <= p <= the largest float."""
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    if p > sys.float_info.max:
        raise ValueError("p must not exceed the largest float")


def check_alpha(alpha: float) -> None:
    """The Sobolev exponent's domain in both families: ValueError
    unless 0 <= alpha < inf."""
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")


def log_nome(q: float) -> float:
    """log q for a nome q in (0, 1), to a few ulps relative.

    log1p(q - 1) from q = 1/2 up, where q - 1 is exact, so the digits
    of 1 - q are kept as q approaches 1; log(q) below, where rounding
    1 - q first would cost about eps / q relative in log q.
    """
    return math.log1p(q - 1.0) if q >= 0.5 else math.log(q)


def golden_min(f, a: float, b: float):
    """Golden-section minimum of a unimodal scalar function on [a, b].

    Returns (argmin, minimum), shrinking [a, b] to width ``GOLDEN_TOL``.
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def bisect_monotone(f, lo: float, hi: float, tol: float) -> float:
    """Bisection root of f on [lo, hi]; f(lo) and f(hi) must differ in sign.

    Returns what plain bisection returns: halve [lo, hi] at
    mid = 0.5 * (lo + hi), keep the half whose ends differ in sign, stop
    once the width is <= tol or after ``BISECT_MAX_ITER`` halvings, and
    return the first mid with f(mid) == 0, else the midpoint of the last
    bracket.

    The identity holds when the float values of f change sign once on
    [lo, hi]: they have f(lo)'s sign below some point r, f(hi)'s sign
    above it (a NaN counts as non-negative, as in plain bisection), and
    f is 0 at r alone if anywhere. f is then called far less often:

    1. Narrow. Anderson-Bjorck regula-falsi steps shrink an inner
       bracket [a, b] around r, from [lo, hi]. The midpoint of [a, b]
       is taken instead while an end value is not finite, and after 3
       steps running that neither halved b - a nor halved the least |f|
       seen. This stops once b - a <= tol / 4 (or a quarter of what
       ``BISECT_MAX_ITER`` halvings leave, if larger), once no float
       lies strictly between a and b, or after ``_NARROW_STEPS`` (24)
       calls.
    2. Replay. Walk the midpoints of plain bisection: one at or below a
       takes lo's side, one at or above b takes hi's side, and only
       one strictly inside (a, b) calls f, whose value then tightens
       [a, b]. If step 1 met f(x) == 0, every midpoint is compared with
       x instead, and mid == x returns mid.

    So f is called at the points of step 1 and at path midpoints
    strictly inside the narrowed bracket: at most 24 calls more than
    plain bisection. r0 makes 9.7 calls on average and 11 at most on
    the threshold grid, its ends included, where plain bisection made
    32.
    """
    a, b, fa, fb = lo, hi, f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    below = fa < 0.0
    if below == (fb < 0.0):
        from .errors import BracketFailure

        raise BracketFailure(
            f"no sign change on [{lo}, {hi}]: f(lo)={fa}, f(hi)={fb}")
    # narrowing past a quarter of the last bracket of the replay saves
    # no call there
    goal = 0.25 * max(tol, (hi - lo) * 0.5 ** BISECT_MAX_ITER)
    moved = 0   # -1 after a step that moved a, +1 after one that moved b
    # a step stalls when it neither halves b - a (against its width at
    # the last halving) nor halves the least |f| seen; a midpoint step
    # follows 3 stalls running
    width, least, stalls = b - a, min(abs(fa), abs(fb)), 0
    root = None
    for _ in range(_NARROW_STEPS):
        if b - a <= goal:
            break
        x = 0.5 * (a + b)
        if stalls < 3 and math.isfinite(fa) and math.isfinite(fb):
            # the secant point, kept goal / 2 and two ulps from both
            # ends, so that points converging on r from one side close
            # [a, b]
            gap = 0.5 * goal
            secant = a + (b - a) * (fa / (fa - fb))
            secant = min(max(secant, a + max(gap, 2.0 * math.ulp(a))),
                         b - max(gap, 2.0 * math.ulp(b)))
            if a < secant < b:
                x = secant
        if not a < x < b:
            break
        fx = f(x)
        if fx == 0.0:
            root = x
            break
        # Anderson-Bjorck: the end kept twice running gets its value
        # scaled by m, or halved when m <= 0, so that the next secant
        # point crosses r
        if (fx < 0.0) == below:
            if moved < 0:
                m = 1.0 - fx / fa
                fb *= m if m > 0.0 else 0.5
            a, fa, moved = x, fx, -1
        else:
            if moved > 0:
                m = 1.0 - fx / fb
                fa *= m if m > 0.0 else 0.5
            b, fb, moved = x, fx, 1
        if b - a <= 0.5 * width:
            width, stalls = b - a, 0
        elif abs(fx) <= 0.5 * least:
            stalls = 0
        else:
            stalls += 1
        least = min(least, abs(fx))
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if root is not None:
            if mid == root:
                return mid
            low_side = mid < root
        elif mid <= a:
            low_side = True
        elif mid >= b:
            low_side = False
        else:
            fm = f(mid)
            if fm == 0.0:
                return mid
            low_side = (fm < 0.0) == below
            if low_side:
                a = mid
            else:
                b = mid
        if low_side:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

"""Small numeric helpers used throughout the package."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def log_nome(q: float) -> float:
    """log q for a nome q in (0, 1).

    Computed as log1p(-(1 - q)), which keeps the digits of 1 - q as q
    approaches 1. Below about 5.6e-17, 1 - q rounds to 1 and log1p(-1)
    is a domain error; there q is far from 1 and log q is exact enough.
    """
    t = 1.0 - q
    return math.log1p(-t) if t < 1.0 else math.log(q)


def golden_min(f, a: float, b: float, tol: float = 1e-12):
    """Golden-section minimum of a unimodal scalar function on [a, b].

    Returns (argmin, minimum). The interval is shrunk until b - a <= tol.
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
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


def bisect_monotone(f, lo: float, hi: float, tol: float = 1e-9,
                    max_iter: int = 200, flo: float | None = None,
                    fhi: float | None = None) -> float:
    """Bisection root of f on [lo, hi]; f(lo) and f(hi) must differ in sign.

    Runs until the bracket width is <= tol or the iteration cap is hit.
    A caller that already holds f(lo) or f(hi) passes it as ``flo`` or
    ``fhi``, and f is not evaluated there again.
    """
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        from .errors import BracketFailure

        raise BracketFailure(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(max_iter):
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

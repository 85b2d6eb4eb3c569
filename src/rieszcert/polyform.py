"""Complex polynomial kernel.

Horner evaluation, simultaneous-iteration root finding, elementary
symmetric maps, the Schur-Cohn zero test on a closed disc, and modulus
minimization over the closed unit disc.
Coefficients are always stored in ascending degree order, so
``coeffs[k]`` multiplies ``z**k``.

The disc minimum runs no root finder: zero-freeness is decided by the
O(d^2) Schur-Cohn recursion, and the circle minimum by one FFT, which
only picks starting points, and a few Newton steps of one Horner pass
each. :func:`roots` stays as the independent oracle of the polydisc
membership test and of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonConvergence
from .util import golden_min

ROOT_TOL = 1e-12
ROOT_MAX_ITER = 500
BOUNDARY_TOL = 1e-10
CIRCLE_ANGLES = 4096
NEWTON_STEPS = 8
NEWTON_TOL = 1e-13


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector in ascending degree order, with a nonzero
    leading coefficient (:func:`as_poly` trims vanishing top entries
    before it constructs one)."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)
        if len(cs) > 1 and cs[-1] == 0:
            raise ValueError("zero leading coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial, with multiplicity.

    ``residual`` is the largest value of |p(root)| relative to the
    coefficient majorant sum_k |c_k| |root|^k, which is the sharpest
    scale double precision can certify at widely spread root magnitudes.
    """

    roots: tuple
    residual: float


def as_poly(p) -> Polynomial:
    if isinstance(p, Polynomial):
        return p
    cs = [complex(c) for c in p]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return Polynomial(tuple(cs))


def eval_poly(p, z: complex) -> complex:
    """Evaluate p at z by Horner's nested scheme."""
    acc = 0j
    for c in reversed(as_poly(p).coeffs):
        acc = acc * z + c
    return acc


def _initial_points(c: tuple) -> list:
    """Newton-polygon starting points for simultaneous iteration.

    Each edge of the upper convex hull of (k, log|c_k|) contributes its
    slope as a cluster radius, with as many points as the edge spans;
    for graded coefficients this lands one starting point near every
    root-magnitude cluster, which a single Cauchy-bound circle does not.
    Falls back to the circle 1 + max|c_k/c_d| when the hull is a single
    edge anyway; that bound is below the hull radius only at d = 1, by
    the rounding of |c_0 / c_1| past about 1e14. Everything is on Python
    floats, so no point depends on numpy's SIMD dispatch; every |c_k|
    must be finite.
    """
    d = len(c) - 1
    ks = [k for k in range(d + 1) if c[k] != 0]
    logs = {k: math.log(abs(c[k])) for k in ks}
    hull = []
    for k in ks:
        while len(hull) >= 2:
            k1, k2 = hull[-2], hull[-1]
            if ((logs[k2] - logs[k1]) * (k - k2)
                    <= (logs[k] - logs[k2]) * (k2 - k1)):
                hull.pop()
            else:
                break
        hull.append(k)
    points = []
    # past the float range the quotient is inf, and the hull radius
    # decides
    cauchy = 1.0 + max(map(abs, c[:-1])) / abs(c[-1])
    for edge, (k1, k2) in enumerate(zip(hull, hull[1:])):
        m = k2 - k1
        expo = (logs[k1] - logs[k2]) / m
        radius = math.exp(min(700.0, max(-700.0, expo)))
        if len(hull) == 2:
            radius = min(radius if radius > 0 else cauchy, cauchy)
        phase = 0.376991 + 1.2391 * edge
        for i in range(m):
            t = 2.0 * math.pi * i / m + phase
            points.append(radius * complex(math.cos(t), math.sin(t)))
    return points


def modulus(z: complex) -> float:
    """|z|, and inf where abs() raises OverflowError past the float
    range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def roots(p) -> RootSet:
    """All complex roots via Aberth-Ehrlich simultaneous iteration.

    Starting points come from the Newton polygon of the coefficients
    (clustered near the expected root magnitudes) with fixed angular
    offsets to break symmetry; zero roots from vanishing low-order
    coefficients are split off exactly first. Convergence is declared
    when every correction is below ``ROOT_TOL`` relative to the root
    magnitudes, or when every residual drops below it relative to
    the coefficient majorant (which also covers multiple roots, where
    corrections stagnate near sqrt(eps)), and NonConvergence is raised
    when neither holds after ``ROOT_MAX_ITER`` steps.

    The iteration runs on Python complex scalars (:func:`_aberth`): a
    step makes, per root, one Horner loop for p, p' and the majorant
    sum_k |c_k| |z|^k, then the pair sum over the other roots, so it
    costs O(d^2) interpreted operations. At d <= 8, the degrees the
    package uses, that is 3-9 times faster than the same steps as numpy
    calls on arrays of length d, whose cost is per call (9 times at
    d = 2, 3 times at d = 8); near d = 20 the two break even, and at
    d = 64 the scalar steps take 3 times as long (2-vCPU Xeon, numpy
    2.4.6). The starting points are Python floats too, so the roots do
    not depend on numpy's SIMD dispatch. A modulus past the float range
    counts as inf, where abs() raises OverflowError, and two equal
    iterates give 1 / 0 = inf + nan j: such an iteration ends in NaN
    roots and a NaN residual, not in an exception.
    """
    pol = as_poly(p)
    d = pol.degree
    if d < 1:
        raise ValueError("root finding requires degree >= 1")

    c = pol.coeffs
    # a modulus past the float range makes the majorant inf and every
    # relative residual 0 at the starting points; halving each
    # coefficient keeps the roots and brings each modulus, at most
    # sqrt(2) times its larger finite part, back in range. A subnormal
    # coefficient can vanish: at the top, Polynomial refuses it, and at
    # the bottom, its zero root is split off below
    if any(modulus(ck) == math.inf for ck in c):
        c = Polynomial(tuple(complex(0.5 * ck.real, 0.5 * ck.imag)
                             for ck in c)).coeffs

    zero_count = 0
    while c[zero_count] == 0:
        zero_count += 1
    if zero_count:
        reduced = Polynomial(c[zero_count:])
        if reduced.degree == 0:
            return RootSet((0j,) * zero_count, 0.0)
        inner = roots(reduced)
        return RootSet((0j,) * zero_count + inner.roots, inner.residual)

    # the iteration clamps |p'| to 1e-300, so it cannot move towards the
    # root of a linear p with |c_1| below that: such a p starts there
    if d == 1 and abs(c[1]) < 1e-300:
        z = [-c[0] / c[1]]
    else:
        z = _initial_points(c)
    # abs() raises OverflowError past the float range, where modulus()
    # gives inf; the two agree everywhere else, so the iteration reruns
    # with modulus() only when that happens
    try:
        return _aberth(c, z, abs)
    except OverflowError:
        return _aberth(c, z, modulus)


def _aberth(c: tuple, start: list, mod) -> RootSet:
    """The Aberth-Ehrlich iteration of :func:`roots` from ``start``, with
    ``mod`` for every modulus.

    A step makes two passes over the roots. The first takes p, p' and
    the majorant at each root from one Horner loop, and stops the
    iteration when every residual is below ``ROOT_TOL``. The second
    forms the pair sums, the corrections and their size test, and
    updates each root in place once its pair sum is complete.
    """
    d = len(start)
    # Horner's terms c_k, k c_k and |c_k| for k = d, ..., 1
    terms = [(c[k], k * c[k], mod(c[k])) for k in range(d, 0, -1)]
    c0, a0 = c[0], mod(c[0])
    z = list(start)
    pvs = [0j] * d
    dvs = [0j] * d
    converged = False
    for step in range(ROOT_MAX_ITER + 1):
        # the largest |p| / majorant, nan if any is nan: after the last
        # correction this is the residual of the returned roots
        worst = 0.0
        for i, zi in enumerate(z):
            az = mod(zi)
            pv = dv = 0j
            major = 0.0
            for ck, dk, ak in terms:
                pv = pv * zi + ck
                dv = dv * zi + dk
                major = major * az + ak
            pv = pv * zi + c0
            pvs[i] = pv
            dvs[i] = dv
            r = mod(pv) / (major * az + a0)
            if worst == worst and not r <= worst:
                worst = r
        converged = converged or worst <= ROOT_TOL
        if converged or step == ROOT_MAX_ITER:
            break
        # s_i = sum_{j != i} 1 / (z_i - z_j), in ascending j; each
        # quotient serves both terms of its pair, as 1 / (z_j - z_i) is
        # its negative bit for bit. s_i is complete once the pairs
        # (i, j > i) are in, and they read only roots not yet moved
        s = [0j] * d
        converged = True
        for i in range(d):
            zi = z[i]
            si = s[i]
            for j in range(i + 1, d):
                try:
                    t = 1.0 / (zi - z[j])
                except ZeroDivisionError:
                    t = complex(math.inf, math.nan)
                si += t
                s[j] -= t
            dv = dvs[i]
            if mod(dv) < 1e-300:
                dv = 1e-300 + 0j
            w = pvs[i] / dv
            denom = 1.0 - w * si
            if mod(denom) < 1e-300:
                denom = 1e-300 + 0j
            ci = w / denom
            z[i] = zi = zi - ci
            if converged and not mod(ci) <= ROOT_TOL * (1.0 + mod(zi)):
                converged = False
    # a NaN residual (an iterate past the float range) is returned, not
    # raised as NonConvergence
    if not converged and worst > ROOT_TOL:
        raise NonConvergence(
            f"root iteration did not converge in {ROOT_MAX_ITER} steps "
            f"(relative residual {worst:.3e})")
    return RootSet(tuple(z), worst)


def elementary_symmetric(lambdas: Sequence[complex]) -> list:
    """Elementary symmetric functions (e_1, ..., e_d) of the inputs.

    Computed by the stable one-pass convolution recurrence: appending a
    value lam updates e_k += lam * e_{k-1} from the top down.
    """
    lams = [complex(x) for x in lambdas]
    e = [1.0 + 0j] + [0j] * len(lams)
    for m, lam in enumerate(lams, start=1):
        for k in range(m, 0, -1):
            e[k] += lam * e[k - 1]
    return e[1:]


def zero_free_disc(coeffs, radius: float = 1.0) -> bool:
    """True iff p has no zero in the closed disc |z| <= radius.

    Schur-Cohn recursion (Schur 1917; Cohn 1922) on q(z) = p(radius z):
    q is zero-free on the closed unit disc iff |q_0| > |q_d| and the
    reduction conj(q_0) q - q_d q* (q* = z^d conj(q(1 / conj z)), the
    conjugated coefficients reversed), whose top coefficient cancels, is
    zero-free too; by Rouche's theorem the two have the same zeros in
    the disc.
    Every step costs O(d) and is renormalised by max |c_k|, so weights
    spread over hundreds of decades neither overflow nor underflow.
    Vanishing top coefficients are zeros at infinity; the zero
    polynomial has zeros everywhere.
    """
    c = np.asarray(coeffs, dtype=complex)
    # |c_k| radius^k / max in log space, times the phase of c_k: no
    # division, so subnormal and huge coefficients are safe alike
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c)) + np.arange(c.size) * math.log(radius)
    if logs.max() == -math.inf:
        return False
    c = np.exp(logs - logs.max() + 1j * np.angle(c))
    while c.size > 1:
        # the top coefficient cancels; the new constant term is the
        # real number |c_0|^2 - |c_d|^2
        c = np.conj(c[0]) * c[:-1] - c[-1] * c[:0:-1].conj()
        if not c[0].real > 0.0:
            return False
        c *= 1.0 / np.maximum.reduce(np.abs(c))
    return bool(c[0] != 0)


def _horner2(desc: tuple, z: complex):
    """p(z), z p'(z) and z^2 p''(z) from one Horner pass over the
    coefficients ``desc`` in descending order; p(z) is rounded as in
    :func:`eval_poly`."""
    p = d1 = d2 = 0j
    for c in desc:
        d2 = d2 * z + d1
        d1 = d1 * z + p
        p = p * z + c
    return p, z * d1, 2.0 * z * z * d2


def _circle_newton(desc: tuple, t0: float, h: float):
    """Newton's method for a minimum of phi(t) = |p(e^{it})|^2 from t0.

    Returns the least |p| at its iterates and whether a step fell to
    ``NEWTON_TOL`` max(1, |t|). It gives up when phi'' is not a
    positive float, when an iterate leaves [t0 - h, t0 + h], or after
    ``NEWTON_STEPS`` steps.
    """
    best = math.inf
    t = t0
    for _ in range(NEWTON_STEPS):
        pz, zp1, zzp2 = _horner2(desc, complex(math.cos(t), math.sin(t)))
        best = min(best, abs(pz))
        # phi' / 2 = -Im(conj(p) z p'),
        # phi'' / 2 = |z p'|^2 - Re(conj(p) (z p' + z^2 p'')); products
        # past the float range give inf or nan here, not OverflowError
        curve = ((zp1.conjugate() * zp1).real
                 - (pz.conjugate() * (zp1 + zzp2)).real)
        if not 0.0 < curve < math.inf:
            break
        step = -(pz.conjugate() * zp1).imag / curve
        t -= step
        if abs(step) <= NEWTON_TOL * max(1.0, abs(t)):
            return best, True
        if not t0 - h <= t <= t0 + h:
            break
    return best, False


def min_modulus_disc(p) -> float:
    """Infimum of |p| over the open unit disc.

    Zero unless p is zero-free on the disc of radius 1 + ``BOUNDARY_TOL``,
    which :func:`zero_free_disc` decides without computing a root. On a
    zero-free p, 1/p is holomorphic on a neighbourhood of the closed
    disc, so the minimum of |p| is attained on the circle.

    One FFT of the coefficients, folded mod ``CIRCLE_ANGLES`` (z^M = 1
    at every sample, so this is exact at any degree), samples p at
    ``CIRCLE_ANGLES`` equally spaced angles t_m. These samples only pick
    the three least local minima; each is refined by
    :func:`_circle_newton`, or by :func:`~rieszcert.util.golden_min` on
    [t_m - h, t_m + h] (h the grid step) where Newton gives up. The
    result is the least |p| that these Horner evaluations found, so it
    is a value of |p| at a point of the circle.
    """
    pol = as_poly(p)
    if pol.degree == 0:
        return abs(pol.coeffs[0])
    if not zero_free_disc(pol.coeffs, 1.0 + BOUNDARY_TOL):
        return 0.0

    n = pol.degree + 1
    c = np.zeros(n + -n % CIRCLE_ANGLES, dtype=complex)
    c[:n] = pol.coeffs
    c = c.reshape(-1, CIRCLE_ANGLES).sum(axis=0)
    # unscaled inverse DFT: sum_k c_k e^{2 pi i m k / M} = p(e^{i t_m})
    vals = np.abs(np.fft.ifft(c, norm="forward"))

    # the samples between their cyclic neighbours
    wrapped = np.concatenate((vals[-1:], vals, vals[:1]))
    local = np.flatnonzero((vals <= wrapped[:-2]) & (vals <= wrapped[2:]))
    order = local[np.argsort(vals[local])][:3]

    def f(t: float) -> float:
        return abs(eval_poly(pol, complex(math.cos(t), math.sin(t))))

    desc = pol.coeffs[::-1]
    h = 2.0 * math.pi / CIRCLE_ANGLES
    best = math.inf
    for m in order:
        t0 = 2.0 * math.pi * int(m) / CIRCLE_ANGLES
        value, converged = _circle_newton(desc, t0, h)
        if not converged:
            value = min(value, golden_min(f, t0 - h, t0 + h)[1])
        best = min(best, value)
    return best

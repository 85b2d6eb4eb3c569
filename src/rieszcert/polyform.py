"""Complex polynomial kernel.

Horner evaluation, simultaneous-iteration root finding, elementary
symmetric maps, conjugate polynomials, the Schur-Cohn zero test on a
closed disc, and modulus minimization over the closed unit disc.
Coefficients are always stored in ascending degree order, so
``coeffs[k]`` multiplies ``z**k``.

The disc minimum runs no root finder: zero-freeness is decided by the
O(d^2) Schur-Cohn recursion. :func:`roots` stays as the independent
oracle of the polydisc membership test and of the test suite.
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


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector in ascending degree order.

    The leading coefficient must be nonzero unless the instance is
    explicitly flagged as ``padded`` (useful while assembling coefficient
    vectors whose top entries may vanish; call :meth:`trimmed` before
    handing such a polynomial to the root finder).
    """

    coeffs: tuple
    padded: bool = False

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)
        if not self.padded and len(cs) > 1 and cs[-1] == 0:
            raise ValueError("zero leading coefficient (pass padded=True)")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def trimmed(self) -> "Polynomial":
        cs = list(self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))


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
    return Polynomial(tuple(complex(c) for c in p), padded=True).trimmed()


def eval_poly(p, z: complex) -> complex:
    """Evaluate p at z by Horner's nested scheme."""
    acc = 0j
    for c in reversed(as_poly(p).coeffs):
        acc = acc * z + c
    return acc


def _initial_points(c: np.ndarray) -> np.ndarray:
    """Newton-polygon starting points for simultaneous iteration.

    Each edge of the upper convex hull of (k, log|c_k|) contributes its
    slope as a cluster radius, with as many points as the edge spans;
    for graded coefficients this lands one starting point near every
    root-magnitude cluster, which a single Cauchy-bound circle does not.
    Falls back to the circle 1 + max|c_k/c_d| when the hull is a single
    edge anyway.
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
    cauchy = 1.0 + float(np.abs(c[:-1]).max()) / abs(c[-1])
    for edge, (k1, k2) in enumerate(zip(hull, hull[1:])):
        m = k2 - k1
        expo = (logs[k1] - logs[k2]) / m
        radius = math.exp(min(700.0, max(-700.0, expo)))
        if len(hull) == 2:
            radius = min(radius if radius > 0 else cauchy, cauchy)
        phase = 0.376991 + 1.2391 * edge
        for i in range(m):
            points.append(radius * np.exp(1j * (2.0 * np.pi * i / m + phase)))
    return np.asarray(points, dtype=complex)


def roots(p, tol: float = ROOT_TOL, max_iter: int = ROOT_MAX_ITER) -> RootSet:
    """All complex roots via Aberth-Ehrlich simultaneous iteration.

    Starting points come from the Newton polygon of the coefficients
    (clustered near the expected root magnitudes) with fixed angular
    offsets to break symmetry; zero roots from vanishing low-order
    coefficients are split off exactly first. Convergence is declared
    when every correction is below ``tol`` relative to the root
    magnitudes, or when every residual drops below ``tol`` relative to
    the coefficient majorant (which also covers multiple roots, where
    corrections stagnate near sqrt(eps)).
    """
    pol = as_poly(p)
    d = pol.degree
    if d < 1:
        raise ValueError("root finding requires degree >= 1")

    zero_count = 0
    while pol.coeffs[zero_count] == 0:
        zero_count += 1
    if zero_count:
        reduced = Polynomial(pol.coeffs[zero_count:])
        if reduced.degree == 0:
            return RootSet((0j,) * zero_count, 0.0)
        inner = roots(reduced, tol=tol, max_iter=max_iter)
        return RootSet((0j,) * zero_count + inner.roots, inner.residual)

    c = np.asarray(pol.coeffs, dtype=complex)
    dc = c[1:] * np.arange(1, d + 1)
    crev, dcrev = c[::-1], dc[::-1]
    cabs = np.abs(crev)

    def rel_residual(zs: np.ndarray) -> np.ndarray:
        major = np.polyval(cabs, np.abs(zs))
        return np.abs(np.polyval(crev, zs)) / major

    z = _initial_points(c)

    converged = False
    for _ in range(max_iter):
        pv = np.polyval(crev, z)
        major = np.polyval(cabs, np.abs(z))
        if float((np.abs(pv) / major).max()) <= tol:
            converged = True
            break
        dv = np.polyval(dcrev, z)
        dv = np.where(np.abs(dv) < 1e-300, 1e-300, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = (1.0 / diff).sum(axis=1) - 1.0
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        corr = w / denom
        z = z - corr
        if bool((np.abs(corr) <= tol * (1.0 + np.abs(z))).all()):
            converged = True
            break
    residual = float(rel_residual(z).max())
    if not converged and residual > tol:
        raise NonConvergence(
            f"root iteration did not converge in {max_iter} steps "
            f"(relative residual {residual:.3e})")
    return RootSet(tuple(complex(r) for r in z), residual)


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


def conjugate_poly(p) -> Polynomial:
    """Conjugate polynomial z^d * conj(p(1 / conj(z))).

    Coefficient-wise this is conjugation plus reversal. Applying it twice
    recovers p whenever both the constant and leading coefficients are
    nonzero.
    """
    cs = as_poly(p).coeffs
    out = tuple(complex(c).conjugate() for c in reversed(cs))
    return Polynomial(out, padded=(out[-1] == 0 and len(out) > 1))


def zero_free_disc(coeffs, radius: float = 1.0) -> bool:
    """True iff p has no zero in the closed disc |z| <= radius.

    Schur-Cohn recursion (Schur 1917; Cohn 1922) on q(z) = p(radius z):
    q is zero-free on the closed unit disc iff |q_0| > |q_d| and the
    reduction conj(q_0) q - q_d q* (q* the conjugate polynomial, see
    :func:`conjugate_poly`), whose top coefficient cancels, is zero-free
    too; by Rouche's theorem the two have the same zeros in the disc.
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
        c = (c[0].conjugate() * c - c[-1] * c[::-1].conj())[:-1]
        # the new constant term is the real number |c_0|^2 - |c_d|^2
        if not c[0].real > 0.0:
            return False
        c = c / np.abs(c).max()
    return bool(c[0] != 0)


def min_modulus_disc(p, angles: int = CIRCLE_ANGLES,
                     boundary_tol: float = BOUNDARY_TOL,
                     refine_tol: float = 1e-12) -> float:
    """Infimum of |p| over the open unit disc.

    Zero unless p is zero-free on the disc of radius 1 + boundary_tol,
    which :func:`zero_free_disc` decides without computing a root. On a
    zero-free p, 1/p is holomorphic on a neighbourhood of the closed
    disc, so the minimum of |p| is attained on the circle; it is located
    by uniform angular sampling followed by golden-section refinement of
    the three best brackets.
    """
    pol = as_poly(p)
    if pol.degree == 0:
        return abs(pol.coeffs[0])
    if not zero_free_disc(pol.coeffs, 1.0 + boundary_tol):
        return 0.0

    crev = np.asarray(pol.coeffs[::-1], dtype=complex)
    theta = 2.0 * np.pi * np.arange(angles) / angles
    vals = np.abs(np.polyval(crev, np.exp(1j * theta)))

    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    local = np.flatnonzero((vals <= left) & (vals <= right))
    order = local[np.argsort(vals[local])][:3]

    def f(t: float) -> float:
        return abs(eval_poly(pol, complex(math.cos(t), math.sin(t))))

    step = 2.0 * np.pi / angles
    best = float(vals.min())
    for idx in order:
        t0 = theta[idx]
        _, fmin = golden_min(f, t0 - step, t0 + step, tol=refine_tol)
        best = min(best, fmin)
    return best

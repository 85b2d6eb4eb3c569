"""Bridge from dilated function families to coefficient operators.

Functions on (0,1) are described by their sine-Fourier profiles
f_hat(j) (normalised so f_hat(1) = 1). In the Sobolev scale with
orthonormal basis h_n(x) = sqrt(2) sin(n pi x) / n^alpha, the dilations
g_n(x) = f_{s_n}(n x) / n^alpha expand as g_n = sum_j c_j(n) h_{jn} with
c_j(n) = j^alpha f_hat_{s_n}(j), which is exactly the data the
spread-shift machinery consumes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .util import log_nome


class FourierProfile:
    """Base profile: sine coefficients f_hat(j) with f_hat(1) = 1, at one
    int (:meth:`coeff`) or at every entry of an int array
    (:meth:`coeffs`)."""

    alpha: float = 0.0

    def coeff(self, j: int) -> float:
        raise NotImplementedError

    def coeffs(self, j: np.ndarray) -> np.ndarray:
        """:meth:`coeff` at every entry of an int array, as a float
        array of the same shape."""
        raise NotImplementedError


def _p_adic_split(j: int, p: int) -> tuple:
    """(v, m) with j = p^v m and m not divisible by p, for j >= 1."""
    v = 0
    while j % p == 0:
        j //= p
        v += 1
    return v, j


class LacunaryGeometricProfile(FourierProfile):
    """f_hat(p^j) = lam^j on the lacunary modes p^j, zero elsewhere.

    Belongs to the alpha-scale exactly for lam < p^{-alpha}.
    """

    def __init__(self, lam: float, p: int, alpha: float = 0.0):
        if not 0.0 < lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if p < 2:
            raise ValueError("p must be >= 2")
        self.lam = float(lam)
        self.p = int(p)
        self.alpha = float(alpha)

    def coeff(self, j: int) -> float:
        if j < 1:
            return 0.0
        level, m = _p_adic_split(j, self.p)
        return self.lam ** level if m == 1 else 0.0

    def coeffs(self, j: np.ndarray) -> np.ndarray:
        """lam^v at the entries p^v, looked up in a table of the powers
        of lam taken as :meth:`coeff` takes them, so the values are the
        same bit for bit."""
        j = np.asarray(j)
        powers, values = [1], [1.0]
        top = int(j.max(initial=0))
        while powers[-1] * self.p <= top:
            powers.append(powers[-1] * self.p)
            values.append(self.lam ** len(values))
        powers = np.array(powers)
        level = np.minimum(np.searchsorted(powers, j), len(powers) - 1)
        return np.where(powers[level] == j, np.array(values)[level], 0.0)


class OddModeProfile(FourierProfile):
    """f_hat(2l+1) = (1-q) q^l / (1 - q^{2l+1}) on odd modes, zero on
    even ones; the natural profile of the soliton-like stationary states
    considered in the q-family module."""

    def __init__(self, q: float, alpha: float = 0.0):
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        self.q = float(q)
        self.alpha = float(alpha)

    def coeff(self, j: int) -> float:
        """The denominator is evaluated as -expm1((2l+1) log q) to keep
        the ratio stable as q approaches 1."""
        if j < 1 or j % 2 == 0:
            return 0.0
        l = (j - 1) // 2
        lq = log_nome(self.q)
        return -(1.0 - self.q) * math.exp(l * lq) / math.expm1((2 * l + 1) * lq)

    def coeffs(self, j: np.ndarray) -> np.ndarray:
        """:meth:`coeff` in numpy's exp and expm1, which may differ from
        the scalar libm values in the last bits."""
        j = np.asarray(j)
        out = np.zeros(j.shape)
        odd = (j >= 1) & (j % 2 == 1)
        l = (j[odd] - 1) // 2
        lq = log_nome(self.q)
        out[odd] = -(1.0 - self.q) * np.exp(l * lq) / np.expm1((2 * l + 1) * lq)
        return out


def _flat(j, n) -> tuple:
    """j and n broadcast against each other and flattened, and their
    common shape."""
    j, n = np.broadcast_arrays(np.asarray(j), np.asarray(n))
    return j.ravel(), n.ravel(), j.shape


def _weighted(alpha: float, j: np.ndarray, c: np.ndarray) -> np.ndarray:
    """j^alpha c for flat int j and float c. The power is taken in
    Python, as float(j) ** alpha, once per distinct j where c is
    nonzero, so each value is the scalar product bit for bit and a
    power past the float range raises OverflowError."""
    c = np.array(c, dtype=float)
    nz = np.flatnonzero(c)
    js, at = np.unique(j[nz], return_inverse=True)
    c[nz] *= np.array([float(x) ** alpha for x in js.tolist()])[at]
    return c


def _trajectory(profiles: Callable[[int], FourierProfile], alpha: float,
                j: np.ndarray, n: np.ndarray) -> np.ndarray:
    """:func:`trajectory_coeffs` on flat int arrays."""
    ns, at = np.unique(n, return_inverse=True)
    slot, profs, of = {}, [], []
    for m in ns.tolist():
        prof = profiles(m)
        if id(prof) not in slot:
            slot[id(prof)] = len(profs)
            profs.append(prof)
        of.append(slot[id(prof)])
    if len(profs) == 1:
        return _weighted(alpha, j, profs[0].coeffs(j))
    group = np.array(of)[at]
    order = np.argsort(group)
    bounds = np.searchsorted(group[order], np.arange(len(profs) + 1))
    c = np.empty(len(j))
    for prof, s, e in zip(profs, bounds, bounds[1:]):
        part = order[s:e]
        c[part] = prof.coeffs(j[part])
    return _weighted(alpha, j, c)


def trajectory_coeffs(profiles: Callable[[int], FourierProfile],
                      alpha: float, j, n):
    """(n, n) entry of the diagonal coefficient operator C_j in the
    h-basis: c_j(n) = j^alpha f_hat_{s_n}(j). C_1 is the identity.

    ``j`` and ``n`` are ints or int arrays, broadcast against each
    other; the result is a float, or a float array of their shape.
    ``profiles`` is called once per distinct n, with a Python int, and
    each distinct profile it returns (by identity) evaluates all of its
    entries in one :meth:`FourierProfile.coeffs` call.
    """
    j, n, shape = _flat(j, n)
    return _trajectory(profiles, alpha, j, n).reshape(shape)[()]


def section_rule(profile_of: Callable[[float], FourierProfile],
                 index: Callable[[int], float] | float,
                 alpha: float) -> Callable:
    """c_j(n) rule for finite sections of a family indexed by s_n:
    ``index`` gives s_n, either as a callable of n or as one constant,
    and ``profile_of(s)`` builds the profile at s.

    The rule takes j and n as ints or int arrays, as
    :func:`spread_toeplitz.finite_section` calls it, and is
    :func:`trajectory_coeffs` for j >= 2 and 0 at j = 1, since the
    section supplies the identity itself. A constant index is one
    profile, built here and evaluated in one
    :meth:`FourierProfile.coeffs` call per rule call. A callable index
    is called once per distinct n, and one profile is built per
    distinct value it takes (kept for the later calls of the rule), so
    a p-periodic index table costs one coeffs call per table entry.
    """
    if callable(index):
        built = {}

        def profiles(n: int) -> FourierProfile:
            s = index(n)
            if s not in built:
                built[s] = profile_of(s)
            return built[s]

        def coeffs(j: np.ndarray, n: np.ndarray) -> np.ndarray:
            return _trajectory(profiles, alpha, j, n)
    else:
        const = profile_of(index)

        def coeffs(j: np.ndarray, n: np.ndarray) -> np.ndarray:
            return _weighted(alpha, j, const.coeffs(j))

    def cj(j, n):
        j, n, shape = _flat(j, n)
        c = coeffs(j, n)
        c[j < 2] = 0.0
        return c.reshape(shape)[()]

    return cj

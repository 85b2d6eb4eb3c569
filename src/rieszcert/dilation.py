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
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DivergentProfile
from .util import log_nome, sin_pi

SAMPLE_TOL = 1e-12
SAMPLE_MAX_MODES = 10 ** 6


@dataclass(frozen=True)
class NormResult:
    """Truncated Sobolev norm plus an upper bound for the squared tail."""

    value: float
    tail_sq_bound: float

    def __float__(self) -> float:
        return self.value


class FourierProfile:
    """Base profile: sine coefficients with f_hat(1) = 1 and an explicit
    decay certificate supplied by each subclass."""

    alpha: float = 0.0

    def coeff(self, j: int) -> float:
        raise NotImplementedError

    def coeffs(self, j: np.ndarray) -> np.ndarray:
        """:meth:`coeff` at every entry of an int array, as a float
        array of the same shape."""
        raise NotImplementedError

    def nonzero_modes(self, j_max: int) -> Iterator[int]:
        return iter(range(1, j_max + 1))

    def sobolev_tail_sq(self, terms: int) -> float:
        """Upper bound for sum_{n > terms} n^{2 alpha} |f_hat(n)|^2."""
        raise NotImplementedError

    def abs_tail(self, j_max: int) -> float:
        """Upper bound for sum_{j > j_max} |f_hat(j)|."""
        raise NotImplementedError


class SingleModeProfile(FourierProfile):
    """f_hat(1) = 1 and nothing else."""

    def __init__(self, alpha: float = 0.0):
        self.alpha = float(alpha)

    def coeff(self, j: int) -> float:
        return 1.0 if j == 1 else 0.0

    def coeffs(self, j: np.ndarray) -> np.ndarray:
        return (np.asarray(j) == 1).astype(float)

    def nonzero_modes(self, j_max: int):
        return iter((1,)) if j_max >= 1 else iter(())

    def sobolev_tail_sq(self, terms: int) -> float:
        return 0.0

    def abs_tail(self, j_max: int) -> float:
        return 0.0


def _p_adic_split(j: int, p: int) -> tuple:
    """(v, m) with j = p^v m and m not divisible by p, for j >= 1."""
    v = 0
    while j % p == 0:
        j //= p
        v += 1
    return v, j


def _top_level(p: int, limit: int) -> int:
    """Largest level l with p^l <= limit (0 when limit < p)."""
    level = 0
    while p ** (level + 1) <= limit:
        level += 1
    return level


class LacunaryGeometricProfile(FourierProfile):
    """f_hat(p^j) = lam^j on the lacunary modes p^j, zero elsewhere.

    Belongs to the alpha-scale exactly for lam < p^{-alpha}; the decay
    certificate is the geometric ratio p^{2 alpha} lam^2 of the squared
    weighted modes.
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

    def nonzero_modes(self, j_max: int):
        j = 1
        while j <= j_max:
            yield j
            j *= self.p

    def sobolev_tail_sq(self, terms: int) -> float:
        ratio = self.p ** (2.0 * self.alpha) * self.lam ** 2
        if ratio >= 1.0:
            return math.inf
        # first omitted lacunary mode has index level + 1
        level = _top_level(self.p, terms)
        return ratio ** (level + 1) / (1.0 - ratio)

    def abs_tail(self, j_max: int) -> float:
        level = _top_level(self.p, j_max)
        return self.lam ** (level + 1) / (1.0 - self.lam)


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

    def nonzero_modes(self, j_max: int):
        return iter(range(1, j_max + 1, 2))

    def sobolev_tail_sq(self, terms: int) -> float:
        # sum over odd n > terms of n^{2a} f(n)^2 <= sum_{l>L} (2l+1)^{2a} q^{2l}
        L = (terms - 1) // 2
        alpha = self.alpha
        first = (2 * L + 3.0) ** (2 * alpha) * self.q ** (2 * (L + 1))
        ratio = ((2 * L + 5.0) / (2 * L + 3.0)) ** (2 * alpha) * self.q ** 2
        if ratio >= 1.0:
            return math.inf
        return first / (1.0 - ratio)

    def abs_tail(self, j_max: int) -> float:
        L = (j_max - 1) // 2
        return self.q ** (L + 1) / (1.0 - self.q)


def sobolev_norm(profile: FourierProfile, terms: int) -> NormResult:
    """Truncated norm sqrt(sum_{n<=terms} n^{2 alpha} |f_hat(n)|^2) at
    the profile's own exponent, with the profile's certified bound for
    the squared tail. Raises DivergentProfile when that bound is
    infinite."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    alpha = profile.alpha
    tail = profile.sobolev_tail_sq(terms)
    if not math.isfinite(tail):
        raise DivergentProfile(
            f"profile has no finite tail bound at alpha={alpha}")
    total = 0.0
    for j in profile.nonzero_modes(terms):
        total += float(j) ** (2.0 * alpha) * abs(profile.coeff(j)) ** 2
    return NormResult(math.sqrt(total), tail)


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


def h_basis(n: int, alpha: float, x) -> np.ndarray:
    """Orthonormal basis function h_n(x) = sqrt(2) sin(n pi x) / n^alpha."""
    return math.sqrt(2.0) * sin_pi(np.asarray(x, dtype=float) * n) / float(n) ** alpha


def dilated_sample(profile: FourierProfile, n: int, alpha: float,
                   x_grid) -> np.ndarray:
    """Partial-sum evaluation of g_n(x) = f(n x) / n^alpha on a grid,
    using the odd 2-periodic extension of the profile's sine series.

    The truncation index is chosen from the profile's certified tail
    bound so the error is below ``SAMPLE_TOL`` uniformly on the grid; only
    the profile's nonzero modes are summed, at most ``SAMPLE_MAX_MODES``.
    DivergentProfile is raised when no usable truncation exists.
    """
    x = np.asarray(x_grid, dtype=float)
    j_max = 64
    while profile.abs_tail(j_max) * math.sqrt(2.0) > SAMPLE_TOL:
        if j_max > 1 << 62:
            raise DivergentProfile("no usable truncation at the target tolerance")
        j_max *= 2
    out = np.zeros_like(x)
    for count, j in enumerate(profile.nonzero_modes(j_max)):
        if count >= SAMPLE_MAX_MODES:
            raise DivergentProfile(
                f"truncation needs more than {SAMPLE_MAX_MODES} modes")
        c = profile.coeff(j)
        if c:
            out += c * math.sqrt(2.0) * sin_pi(j * n * x)
    return out / float(n) ** alpha

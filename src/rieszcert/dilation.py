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

    def nonzero_modes(self, j_max: int) -> Iterator[int]:
        return iter(range(1, j_max + 1))

    def sobolev_tail_sq(self, alpha: float, terms: int) -> float:
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

    def nonzero_modes(self, j_max: int):
        return iter((1,)) if j_max >= 1 else iter(())

    def sobolev_tail_sq(self, alpha: float, terms: int) -> float:
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

    def nonzero_modes(self, j_max: int):
        j = 1
        while j <= j_max:
            yield j
            j *= self.p

    def sobolev_tail_sq(self, alpha: float, terms: int) -> float:
        ratio = self.p ** (2.0 * alpha) * self.lam ** 2
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

    def nonzero_modes(self, j_max: int):
        return iter(range(1, j_max + 1, 2))

    def sobolev_tail_sq(self, alpha: float, terms: int) -> float:
        # sum over odd n > terms of n^{2a} f(n)^2 <= sum_{l>L} (2l+1)^{2a} q^{2l}
        L = (terms - 1) // 2
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
    tail = profile.sobolev_tail_sq(alpha, terms)
    if not math.isfinite(tail):
        raise DivergentProfile(
            f"profile has no finite tail bound at alpha={alpha}")
    total = 0.0
    for j in profile.nonzero_modes(terms):
        total += float(j) ** (2.0 * alpha) * abs(profile.coeff(j)) ** 2
    return NormResult(math.sqrt(total), tail)


def trajectory_coeffs(profiles: Callable[[int], FourierProfile],
                      alpha: float, j: int, n: int) -> complex:
    """(n, n) entry of the diagonal coefficient operator C_j in the
    h-basis: c_j(n) = j^alpha f_hat_{s_n}(j). C_1 is the identity."""
    return float(j) ** alpha * profiles(n).coeff(j)


def section_rule(profile_of: Callable[[float], FourierProfile],
                 index: Callable[[int], float] | float,
                 alpha: float) -> Callable[[int, int], complex]:
    """c_j(n) rule for finite sections of a family indexed by s_n:
    ``index`` gives s_n, either as a callable of n or as one constant,
    and ``profile_of(s)`` builds the profile at s (once for a constant
    index). The rule is :func:`trajectory_coeffs` for j >= 2 and 0 at
    j = 1, since the section supplies the identity itself."""
    if callable(index):
        def profiles(n: int) -> FourierProfile:
            return profile_of(index(n))
    else:
        const = profile_of(index)

        def profiles(n: int) -> FourierProfile:
            return const

    def cj(j: int, n: int) -> complex:
        return trajectory_coeffs(profiles, alpha, j, n) if j >= 2 else 0.0

    return cj


def h_basis(n: int, alpha: float, x) -> np.ndarray:
    """Orthonormal basis function h_n(x) = sqrt(2) sin(n pi x) / n^alpha."""
    return math.sqrt(2.0) * sin_pi(np.asarray(x, dtype=float) * n) / float(n) ** alpha


def dilated_sample(profile: FourierProfile, n: int, alpha: float, x_grid,
                   tol: float = 1e-12, max_terms: int = 10 ** 6) -> np.ndarray:
    """Partial-sum evaluation of g_n(x) = f(n x) / n^alpha on a grid,
    using the odd 2-periodic extension of the profile's sine series.

    The truncation index is chosen from the profile's certified tail
    bound so the error is below ``tol`` uniformly on the grid; only the
    profile's nonzero modes are summed (capped at ``max_terms`` of
    them). DivergentProfile is raised when no usable truncation exists.
    """
    x = np.asarray(x_grid, dtype=float)
    j_max = 64
    while profile.abs_tail(j_max) * math.sqrt(2.0) > tol:
        if j_max > 1 << 62:
            raise DivergentProfile("no usable truncation at the target tolerance")
        j_max *= 2
    out = np.zeros_like(x)
    for count, j in enumerate(profile.nonzero_modes(j_max)):
        if count >= max_terms:
            raise DivergentProfile(
                f"truncation needs more than {max_terms} modes")
        c = profile.coeff(j)
        if c:
            out += c * math.sqrt(2.0) * sin_pi(j * n * x)
    return out / float(n) ** alpha

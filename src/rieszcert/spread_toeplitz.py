"""Invertibility machinery for multiplicative-shift operators.

Operators of the form T = I + sum_k A_k M_{p^k} (+ perturbations
sum_j M_j B_j) with diagonal coefficient operators are certified through
the scalar symbols alpha_n(z) = 1 + sum_k a_k(n) z^k: T is invertible iff
s(T) = inf_{z, n} |alpha_n(z)| > 0, with ||T^{-1}|| = 1/s(T). Here the
symbols are sampled coefficient tables; the closed-form symbol floors of
the two families live in :mod:`weierstrass` and
:mod:`gross_pitaevskii`. Finite sections provide an independent
singular-value cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .certificate import (ENVELOPE_RIGOROUS, SAMPLE_HEURISTIC, Certificate)
from .polyform import min_modulus_disc

INVERTIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class SymbolFamily:
    """Per-index polynomial symbols alpha_n(z) = 1 + sum a_k(n) z^k.

    ``coeff`` maps (n, k) to a_k(n) for 1 <= k <= d; the entries must be
    p-multiplicative-periodic, a_k(p n) = a_k(n). The table is certified
    only over the sampled indices unless ``complete_orbits`` is set.
    """

    p: int
    d: int
    coeff: Callable[[int, int], complex]
    complete_orbits: bool = False


@dataclass(frozen=True)
class SectionMatrix:
    """Finite section of T on the span of the first N basis vectors."""

    N: int
    entries: np.ndarray


@dataclass(frozen=True)
class SymbolBound:
    """Lower bound for s(T) plus how it was obtained."""

    value: float
    mode: str

    def __float__(self) -> float:
        return self.value


def constant_family(coeffs: Sequence[complex], p: int = 2) -> SymbolFamily:
    """Family whose symbol is the same polynomial for every index."""
    cs = tuple(complex(c) for c in coeffs)

    def coeff(n: int, k: int) -> complex:
        return cs[k - 1]

    return SymbolFamily(p=p, d=len(cs), coeff=coeff, complete_orbits=True)


def _orbit_representatives(p: int, n_range: Iterable[int]) -> list:
    # a_k(pn) = a_k(n): one representative per orbit class of n under
    # multiplication by p, i.e. the indices not divisible by p.
    reps = [n for n in n_range if n >= 1 and n % p != 0]
    return reps or [1]


def symbol_inf(family: SymbolFamily,
               n_range: Iterable[int] | None = None) -> SymbolBound:
    """Lower bound for s(T) = inf over the disc and all indices of
    |alpha_n(z)|.

    The table is minimised over the disc by :func:`min_modulus_disc` at
    sampled orbit representatives; that value is rigorous only when the
    sample covers every orbit class (``complete_orbits``). The families'
    closed-form floors do not pass through here: see
    :func:`weierstrass.truncated_symbol_floor` and
    :func:`gross_pitaevskii.certify_T1`.
    """
    if n_range is None:
        n_range = range(1, 2)
    reps = _orbit_representatives(family.p, n_range)
    best = math.inf
    for n in reps:
        coeffs = [1.0] + [family.coeff(n, k) for k in range(1, family.d + 1)]
        best = min(best, min_modulus_disc(coeffs))
    mode = ENVELOPE_RIGOROUS if family.complete_orbits else SAMPLE_HEURISTIC
    return SymbolBound(best, mode)


def invertibility(family: SymbolFamily,
                  n_range: Iterable[int] | None = None,
                  tol: float = INVERTIBILITY_TOL) -> Certificate:
    """Certificate for invertibility of T = I + sum A_k M_{p^k}:
    certified iff the symbol infimum is strictly positive, in which case
    ||T^{-1}|| = 1/s(T)."""
    bound = symbol_inf(family, n_range)
    ok = bound.value > tol
    margins = {"symbol_inf": bound.value}
    if ok:
        margins["inverse_norm"] = 1.0 / bound.value
    return Certificate(
        kind="invertibility",
        verdict=ok,
        parameters={"p": family.p, "d": family.d, "tolerance": tol},
        margins=margins,
        mode=bound.mode,
    )


def perturbation_certificate(family: SymbolFamily, tail_sum: float,
                             n_range: Iterable[int] | None = None
                             ) -> Certificate:
    """Certificate for T = I + sum_k A_k M_{p^k} + sum_j M_j B_j:
    certified when the perturbation budget ``tail_sum``, an upper bound
    for sum_{j>=2} sup_n |b_j(n)|, stays strictly below the structured
    symbol infimum (Neumann-series argument)."""
    if not math.isfinite(tail_sum) or tail_sum < 0.0:
        raise ValueError("tail_sum must be finite and nonnegative")
    bound = symbol_inf(family, n_range)
    margin = bound.value - tail_sum
    return Certificate(
        kind="perturbation",
        verdict=margin > 0.0,
        parameters={"p": family.p, "d": family.d},
        margins={"symbol_inf": bound.value, "tail_sum": tail_sum,
                 "margin": margin},
        mode=bound.mode,
    )


def finite_section(cj: Callable[[int, int], complex],
                   N: int) -> SectionMatrix:
    """N x N section of T = I + sum_{j>=2} M_j C_j on span{h_1..h_N}:
    unit diagonal plus c_j(n) at row jn, column n."""
    if N < 1:
        raise ValueError("N must be >= 1")
    A = np.eye(N, dtype=complex)
    for j in range(2, N + 1):
        for n in range(1, N // j + 1):
            c = complex(cj(j, n))
            if c != 0:
                A[j * n - 1, n - 1] += c
    return SectionMatrix(N, A)


def smallest_singular(S: SectionMatrix) -> float:
    """Smallest singular value by dense SVD (accurate to a few ulps of
    the largest singular value)."""
    vals = np.linalg.svd(S.entries, compute_uv=False)
    return float(vals[-1])


def inverse_symbol_coeffs(a: Sequence[complex], order: int) -> list:
    """Taylor coefficients of 1/alpha for alpha(z) = 1 + sum a_k z^k:
    b_0 = 1 and b_k = -(a_1 b_{k-1} + ... + a_k b_0), with a_k = 0 past
    the given coefficients."""
    avals = [complex(x) for x in a]
    b = [1.0 + 0j]
    for k in range(1, order + 1):
        acc = 0j
        for i in range(1, k + 1):
            ai = avals[i - 1] if i <= len(avals) else 0j
            acc += ai * b[k - i]
        b.append(-acc)
    return b

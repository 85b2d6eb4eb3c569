"""Invertibility machinery for multiplicative-shift operators.

Operators of the form T = I + sum_k A_k M_{p^k} (+ perturbations
sum_j M_j B_j) with diagonal coefficient operators are certified through
the scalar symbols alpha_n(z) = 1 + sum_k a_k(n) z^k: T is invertible iff
s(T) = inf_{z, n} |alpha_n(z)| > 0, with ||T^{-1}|| = 1/s(T). Here the
symbols are sampled coefficient tables; the closed-form symbol floors of
the two families live in :mod:`weierstrass` and
:mod:`gross_pitaevskii`. Finite sections provide an independent
singular-value cross-check (the finite-section method for Toeplitz-like
operators, Boettcher & Silbermann): a section is T = I + L with L
strictly lower triangular and nilpotent, stored by its O(N log N)
nonzero entries. Its inverse I + B has the same multiplicative
pattern, so it is computed once as a section of the same kind, and
sigma_min comes from Lanczos on T^{-H} T^{-1}, two sparse products a
step, rather than a dense O(N^3) SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .certificate import (ENVELOPE_RIGOROUS, SAMPLE_HEURISTIC, Certificate)
from .errors import NonConvergence
from .polyform import min_modulus_disc

INVERTIBILITY_TOL = 1e-9
# Lanczos stops once the Ritz residual of the largest eigenvalue of
# T^{-H} T^{-1} is below this fraction of it
LANCZOS_RTOL = 1e-14
# a guard far above the 16-130 steps the sections take up to N = 65536,
# each step two sparse products with T^{-1}; it caps the basis at this
# many vectors of length N (210 MB at N = 65536)
LANCZOS_MAX_STEPS = 400
# sparse work runs in chunks of about this many items (the products
# that expand an inverse, the entries of one matrix-vector product), so
# that its working memory does not grow with N
_CHUNK = 1 << 14
# the Lanczos basis grows in blocks of this many vectors, so that no
# step copies the vectors already stored
_BASIS_BLOCK = 32


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
    """Finite section T = I + L of T on the span of the first N basis
    vectors.

    L is stored by its nonzero entries, in ascending row order:
    ``values[i]`` sits at row ``rows[i]``, column ``cols[i]`` (0-based).
    Every entry has row + 1 >= 2 (col + 1), so L^k vanishes once
    2^k > N.
    """

    N: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        """The section assembled as a dense N x N matrix (O(N^2)
        memory; for inspection and reference checks at small N)."""
        dtype = np.result_type(float, self.values)
        A = np.zeros((self.N, self.N), dtype=dtype)
        np.fill_diagonal(A, 1.0)
        A[self.rows, self.cols] = self.values
        return A

    def _apply_l(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        """L x, or L^H x when ``adjoint``."""
        if adjoint:
            src, dst = self.rows, self.cols
        else:
            src, dst = self.cols, self.rows
        out = np.zeros(self.N, np.result_type(float, x, self.values))
        for s in range(0, len(dst), _CHUNK):
            part = slice(s, s + _CHUNK)
            vals = self.values[part].conj() if adjoint else self.values[part]
            out += _bincount(dst[part], vals * x[src[part]], self.N)
        return out

    def inverse(self) -> "SectionMatrix":
        """T^{-1} = I + B as a section of the same shape.

        B = -L (I + B) is strictly lower triangular, and row i (1-based)
        of B reads only the rows m <= i / 2, so the rows [2^k, 2^{k+1})
        follow from the rows below 2^k, one dyadic level at a time. A
        multiple of a multiple is a multiple, so every entry of B keeps
        the rule row + 1 >= 2 (col + 1). A level is expanded in chunks
        of whole rows (``_row_chunks``); the products that land on one
        (row, col) are summed, so every entry is stored once, in row
        order. Exact cancellations are dropped.
        """
        N = self.N
        row_nnz = np.zeros(N, dtype=np.intp)     # entries per row of B
        indptr = np.zeros(N + 1, dtype=np.intp)  # B's finished rows
        # B's columns and values grow by resize (realloc), not by
        # concatenation, which would hold two copies at the last level
        b_cols = np.zeros(0, dtype=np.intp)
        b_vals = np.zeros(0, dtype=self.values.dtype)
        nnz = 0
        lo = 0
        # level k holds the 0-based rows [2^k - 1, 2^{k+1} - 1)
        for hi in np.searchsorted(
                self.rows, [(2 << k) - 1 for k in range(N.bit_length())]):
            level = self.cols[lo:hi]
            cost = np.cumsum(indptr[level + 1] - indptr[level] + 1)
            for s, e in _row_chunks(self.rows[lo:hi], cost):
                rows = self.rows[lo + s:lo + e]
                cols = self.cols[lo + s:lo + e]
                vals = -self.values[lo + s:lo + e]
                # entry (i, m) of L meets row m of B: count[m] products,
                # read from B at src, plus the entry itself
                first = indptr[cols]
                count = indptr[cols + 1] - first
                src = (np.arange(count.sum())
                       + np.repeat(first - np.cumsum(count) + count, count))
                key = np.concatenate([rows, np.repeat(rows, count)])
                key *= N
                key += np.concatenate([cols, b_cols[src]])
                key, slot = np.unique(key, return_inverse=True)
                summed = _bincount(slot, np.concatenate(
                    [vals, np.repeat(vals, count) * b_vals[src]]), len(key))
                keep = summed != 0
                key, summed = key[keep], summed[keep]
                n = len(key)
                if nnz + n > len(b_cols):
                    grown = max(nnz + n, len(b_cols) * 3 // 2)
                    b_cols.resize(grown, refcheck=False)
                    b_vals.resize(grown, refcheck=False)
                np.remainder(key, N, out=b_cols[nnz:nnz + n])
                b_vals[nnz:nnz + n] = summed
                row_nnz += np.bincount(key // N, minlength=N)
                nnz += n
            np.cumsum(row_nnz, out=indptr[1:])
            lo = hi
        b_cols.resize(nnz, refcheck=False)
        b_vals.resize(nnz, refcheck=False)
        return SectionMatrix(N, np.repeat(np.arange(N), row_nnz), b_cols,
                             b_vals)


def _bincount(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """np.bincount for real or complex weights."""
    if np.iscomplexobj(weights):
        return (np.bincount(index, weights.real, n)
                + 1j * np.bincount(index, weights.imag, n))
    return np.bincount(index, weights, n)


def _row_chunks(rows: np.ndarray, cost: np.ndarray):
    """Slices [s, e) of the ascending ``rows`` that end where the row
    changes, each of ``cost`` (cumulative, per entry) at most
    ``_CHUNK`` unless one row alone costs more."""
    s, n = 0, len(rows)
    while s < n:
        e = int(np.searchsorted(cost, (cost[s - 1] if s else 0)
                                + _CHUNK, "right"))
        if e < n:
            e = int(np.searchsorted(rows, rows[e]))
            if e <= s:
                e = int(np.searchsorted(rows, rows[s], "right"))
        yield s, e
        s = e


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
    symbol infimum (Neumann-series argument). An infinite budget bounds
    nothing and is never certified."""
    if not tail_sum >= 0.0:
        raise ValueError("tail_sum must be nonnegative")
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
    unit diagonal plus c_j(n) at row jn, column n.

    Only the nonzero entries of the strictly lower part L are stored,
    in row order; the rule is called once per (j, n) with jn <= N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rows, cols, vals = [], [], []
    for j in range(2, N + 1):
        for n in range(1, N // j + 1):
            c = complex(cj(j, n))
            if c != 0:
                rows.append(j * n - 1)
                cols.append(n - 1)
                vals.append(c)
    rows = np.array(rows, dtype=np.intp)
    cols = np.array(cols, dtype=np.intp)
    vals = np.array(vals, dtype=complex)
    order = np.argsort(rows, kind="stable")
    values = vals[order] if vals.imag.any() else vals.real[order]
    return SectionMatrix(N, rows[order], cols[order], values)


def smallest_singular(S: SectionMatrix) -> float:
    """Smallest singular value sigma_min(T) = ||T^{-1}||^{-1}.

    Lanczos with full reorthogonalisation finds the largest eigenvalue
    of T^{-H} T^{-1} from a fixed-seed random start, and stops when the
    Ritz residual is below ``LANCZOS_RTOL`` of the Ritz value or the
    Krylov space is exhausted; NonConvergence is raised if neither
    happens within ``LANCZOS_MAX_STEPS`` steps. T^{-1} = I + B is
    built once as a sparse section (:meth:`SectionMatrix.inverse`), and
    each step applies T^{-1} and T^{-H} by one sparse product with B
    each, so step k costs O(nnz(B) + kN) and nothing of size N x N is
    formed.
    """
    N = S.N
    inv = S.inverse()
    v = np.random.default_rng(0).standard_normal(N).astype(S.values.dtype)
    v /= np.linalg.norm(v)
    blocks = []
    alphas, betas = [], []
    for k in range(N):
        if k == LANCZOS_MAX_STEPS:
            raise NonConvergence(
                f"Lanczos: no convergence in {LANCZOS_MAX_STEPS} steps")
        if k % _BASIS_BLOCK == 0:
            blocks.append(np.empty((min(_BASIS_BLOCK, N - k), N), v.dtype))
        blocks[-1][k % _BASIS_BLOCK] = v
        basis = blocks[:-1] + [blocks[-1][:k % _BASIS_BLOCK + 1]]
        x = v + inv._apply_l(v, False)
        w = x + inv._apply_l(x, True)
        alphas.append(float(np.vdot(v, w).real))
        for _ in range(2):   # full reorthogonalisation, twice is enough
            for Q in basis:
                w -= (Q @ w.conj()).conj() @ Q
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1)
                                    + np.diag(betas, -1))
        theta = float(ritz[-1])
        if beta * abs(vecs[-1, -1]) <= LANCZOS_RTOL * theta:
            break
        betas.append(beta)
        v = w / beta
    return 1.0 / math.sqrt(theta)


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

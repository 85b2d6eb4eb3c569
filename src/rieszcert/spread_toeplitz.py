"""Invertibility machinery for multiplicative-shift operators.

Operators of the form T = I + sum_k A_k M_{p^k} (+ perturbations
sum_j M_j B_j) with diagonal coefficient operators are certified through
the scalar symbols alpha_n(z) = 1 + sum_k a_k(n) z^k: T is invertible iff
s(T) = inf_{z, n} |alpha_n(z)| > 0, with ||T^{-1}|| = 1/s(T). Here
s(T) is computed for a constant index (:func:`symbol_inf`), the floor of
the experimental higher-degree gp certificate; the closed-form symbol
floors of the two families live in :mod:`weierstrass` and
:mod:`gross_pitaevskii`. Finite sections provide an independent
singular-value cross-check (the finite-section method for Toeplitz-like
operators, Boettcher & Silbermann): a section is T = I + L with L
strictly lower triangular and nilpotent, stored by its O(N log N)
nonzero entries. L couples n with jn only where c_j(n) != 0, so T is
a direct sum of blocks on the components of that coupling; a
Weierstrass section is a sum of chains {n_0 p^l}. A block that is a
leading principal block of the block of index 1 cannot hold
sigma_min, and is dropped: in a constant-index section that is every
other block. When every kept block is small, sigma_min is the least
over the distinct kept blocks, by batched dense inverses. Otherwise
the inverse I + B of the kept rows, which has the same multiplicative
pattern, is computed once as a section of the same kind, and sigma_min
comes from Lanczos on T^{-H} T^{-1} over the kept indices, two sparse
products a step, rather than a dense O(N^3) SVD.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InverseOverflow, NonConvergence
from .polyform import min_modulus_disc

# Lanczos stops once the Ritz residual of the largest eigenvalue of
# T^{-H} T^{-1} is below this fraction of it
LANCZOS_RTOL = 1e-14
# a guard far above the 16-118 steps the sections that reach Lanczos
# take up to N = 65536, each step two sparse products with T^{-1}; it
# caps the basis at this many vectors of the kept indices, at most N
# (210 MB at N = 65536)
LANCZOS_MAX_STEPS = 400
# sparse work runs in chunks of about this many items (the pairs (j, n)
# of one rule call, the products that expand an inverse, the entries of
# one matrix-vector product), so that its working memory does not grow
# with N
_CHUNK = 1 << 14
# the Lanczos basis grows in blocks of this many vectors, so that no
# step copies the vectors already stored
_BASIS_BLOCK = 32
# smallest_singular takes sigma_min block by block, by dense inverses,
# when no component that it keeps has more indices than this, and by
# Lanczos on the kept indices otherwise. On 2 vCPUs the dense route
# is 1.3-2.5x faster at components of 96 indices, and Lanczos is
# faster from about 112 on the 2-adic classes of a gp section
DENSE_BLOCK_MAX = 96
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class SectionMatrix:
    """Finite section T = I + L of T on the span of the first N basis
    vectors.

    L is stored by its nonzero entries, in ascending row order:
    ``values[i]`` sits at row ``rows[i]``, column ``cols[i]`` (0-based).
    In a section from :func:`finite_section` or :meth:`inverse`, every
    entry has row + 1 >= 2 (col + 1), so L^k vanishes once 2^k > N; the
    inverse that Lanczos renumbers onto the kept indices of a section
    (:func:`_lanczos_sigma_min`) keeps only the row order.
    """

    N: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        """The section assembled as a dense N x N matrix (O(N^2)
        memory; for inspection and reference checks at small N)."""
        A = np.zeros((self.N, self.N))
        np.fill_diagonal(A, 1.0)
        A[self.rows, self.cols] = self.values
        return A

    def _apply_l(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        """L x, or L^H x when ``adjoint``."""
        if adjoint:
            src, dst = self.rows, self.cols
        else:
            src, dst = self.cols, self.rows

        def chunk(s):
            part = slice(s, s + _CHUNK)
            return np.bincount(dst[part], self.values[part] * x[src[part]],
                               self.N)

        # the first chunk's sums start the result (bincount gives ints
        # for no entries at all)
        out = chunk(0).astype(float, copy=False)
        for s in range(_CHUNK, len(dst), _CHUNK):
            out += chunk(s)
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
        b_vals = np.zeros(0)
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
                src = _ranges(first, count)
                key = np.concatenate([rows, np.repeat(rows, count)])
                key *= N
                key += np.concatenate([cols, b_cols[src]])
                key, slot = np.unique(key, return_inverse=True)
                summed = np.bincount(slot, np.concatenate(
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


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges [first[i], first[i] + count[i]) end to end."""
    return (np.arange(count.sum())
            + np.repeat(first - np.cumsum(count) + count, count))


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


def symbol_inf(weights: Sequence[float]) -> float:
    """s(T) = inf over the disc of |1 + sum_k w_k z^k| for a constant
    index, whose symbol is the same polynomial for every n; computed by
    :func:`min_modulus_disc`. The families' closed-form floors do not
    pass through here: see :func:`weierstrass.truncated_symbol_floor`
    and :func:`gross_pitaevskii.certify_T1`."""
    return min_modulus_disc([1.0, *weights])


def finite_section(cj: Callable, N: int) -> SectionMatrix:
    """N x N section of T = I + sum_{j>=2} M_j C_j on span{h_1..h_N}:
    unit diagonal plus c_j(n) at row jn, column n.

    The rule is called as ``cj(j, n)`` on two int arrays of equal
    length, the pairs j >= 2, n <= N // j with jn <= N, and returns
    c_j(n) for each pair as a real array of that length, or one real
    scalar for all of them; complex values raise TypeError. The pairs
    come ordered by j, then n, in chunks of whole j-ranges of about
    ``_CHUNK`` pairs, so that one call covers a whole section up to
    N = 2048 and the temporaries do not grow with N. Only the nonzero
    entries of the strictly lower part L are stored, in row order and
    by ascending j within a row.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    js = np.arange(2, N + 1)
    count = N // js                  # pairs (j, n) per j
    end = np.cumsum(count)           # one past each j's last pair
    rows = [np.zeros(0, dtype=np.intp)]
    cols = [np.zeros(0, dtype=np.intp)]
    vals = [np.zeros(0)]
    for s, e in _row_chunks(js, end):
        first = end[s:e] - count[s:e]
        j = np.repeat(js[s:e], count[s:e])
        n = np.arange(first[0], end[e - 1]) - np.repeat(first - 1, count[s:e])
        c = np.broadcast_to(np.asarray(cj(j, n)), j.shape)
        if np.iscomplexobj(c):
            raise TypeError("a section rule must return real values")
        keep = np.flatnonzero(c)
        rows.append(j[keep] * n[keep] - 1)
        cols.append(n[keep] - 1)
        vals.append(c[keep])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.concatenate(vals)
    order = np.argsort(rows, kind="stable")
    return SectionMatrix(N, rows[order], cols[order], vals[order])


def smallest_singular(S: SectionMatrix) -> float:
    """Smallest singular value sigma_min(T) = ||T^{-1}||^{-1}.

    T = I + L couples row jn with column n only where c_j(n) != 0, so
    the indices split into the components of that coupling graph and T
    is, up to a permutation, the direct sum of its blocks on them: a
    Weierstrass section is a sum of chains {n_0 p^l}. The components
    are labelled by :func:`_components`. A block that is exactly the
    leading principal block of the block of index 1 is dropped
    (:func:`_drop_leading_copies`): T is unit lower triangular, so the
    inverse of a leading block is the leading block of the inverse, and
    its sigma_min is no smaller. In a constant-index section every other
    component is such a copy: the chains {n_0 p^l} of a Weierstrass
    section, the 2-adic classes 2^k odd of a gp one.

    When no kept component has more than ``DENSE_BLOCK_MAX`` indices,
    sigma_min is the least over the kept blocks
    (:func:`_dense_sigma_min`), and a block inverse past the float
    range raises InverseOverflow; otherwise sigma_min comes from Lanczos
    on the kept indices (:func:`_lanczos_sigma_min`), which raises it
    for an inverse or a Lanczos step past the float range.
    """
    labels = _components(S)
    sizes = np.bincount(labels)
    kept = _drop_leading_copies(S, labels, sizes)
    if kept.max() > DENSE_BLOCK_MAX:
        # an overflow raises InverseOverflow below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return _lanczos_sigma_min(
                S, None if kept is sizes else kept[labels] > 0)
    return _dense_sigma_min(S, labels, kept)


def _components(S: SectionMatrix) -> np.ndarray:
    """The least index of the component of each index, by min-label
    propagation over L's (row, col) pairs.

    A sweep hooks the label of every pair's larger label to the least
    label that pair meets, then pointer jumping (label = label[label])
    takes every index to the root of its tree; parents are always
    smaller, so the trees have no cycles and each root is its
    component's least index. The sweeps stop once every pair has one
    label.
    """
    labels = np.arange(S.N)
    while True:
        a, b = labels[S.rows], labels[S.cols]
        apart = a != b
        if not apart.any():
            return labels
        a, b = a[apart], b[apart]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _positions(labels: np.ndarray, which: np.ndarray) -> np.ndarray:
    """The place of each index of ``which``, ascending indices that
    make up whole components, within its component in ascending index
    order; an array over all indices, unset elsewhere."""
    order = np.argsort(labels[which], kind="stable")
    runs = labels[which[order]]   # each label's run, in index order
    pos = np.empty(len(labels), dtype=np.intp)
    pos[which[order]] = np.arange(len(which)) - np.searchsorted(runs, runs)
    return pos


def _drop_leading_copies(S: SectionMatrix, labels: np.ndarray,
                         sizes: np.ndarray) -> np.ndarray:
    """``sizes`` with 0 for every component whose block is the leading
    principal block of the same size of the block of index 1 (label
    0), or ``sizes`` itself when there is none.

    Such a copy has, row by row in index order, the entry counts, the
    column places within the component and the values (compared with
    ``==``, so a nan keeps its block) of the first rows of the block of
    index 1. Each other component of two to ``len(top)`` indices is
    matched with those rows entry by entry. A single index, whose block
    is 1, is a copy too, but is dropped only along with a larger copy:
    alone it saves nothing.
    """
    top = np.flatnonzero(labels == 0)
    candidate = (sizes > 1) & (sizes <= len(top))
    candidate[0] = False
    if not candidate.any():
        return sizes
    mine = np.flatnonzero(candidate[labels])
    pos = _positions(labels, mine)
    pos[top] = np.arange(len(top))
    twin = top[pos[mine]]            # the matching row of index 1's block
    counts = np.bincount(S.rows, minlength=S.N)   # entries per row
    first = np.cumsum(counts) - counts            # where a row starts
    count = counts[mine]
    apart = count != counts[twin]
    candidate[labels[mine[apart]]] = False
    count[apart] = 0
    e = _ranges(first[mine], count)
    f = e + np.repeat(first[twin] - first[mine], count)
    apart = pos[S.cols[e]] != pos[S.cols[f]]
    apart |= S.values[e] != S.values[f]
    candidate[labels[S.rows[e[apart]]]] = False
    if not candidate.any():
        return sizes
    return np.where(candidate | (sizes == 1), 0, sizes)


def _dense_sigma_min(S: SectionMatrix, labels: np.ndarray,
                     sizes: np.ndarray) -> float:
    """The least sigma_min over the blocks of T on the components of
    nonzero ``sizes``.

    The strictly lower parts of the blocks are assembled dense, one
    array per block size, in ascending index order, and identical ones
    (by their bytes) are merged. sigma_min(T_b) is taken as
    1 / sigma_max(T_b^{-1}): the largest singular value of the inverse
    keeps its relative accuracy where the SVD of an ill-conditioned T_b
    loses sigma_min in the rounding of the larger ones. det T_b = 1, so
    sigma_max(T_b^{-1}) >= 1, and a block padded with the identity up to
    the largest size keeps it; the distinct blocks thus take one
    batched ``np.linalg.inv`` and one batched singular-value call. An
    inverse past the float range raises InverseOverflow.
    """
    roots = np.flatnonzero(sizes)
    pos = _positions(labels, np.flatnonzero(sizes[labels]))  # within its block
    block = np.empty(S.N, dtype=np.intp)  # a root's block within its size
    entry_size = sizes[labels[S.rows]]
    distinct = []
    # not np.unique, whose hashing path imports numpy.ma
    for size in np.flatnonzero(np.bincount(sizes[roots])):
        group = roots[sizes[roots] == size]
        block[group] = np.arange(len(group))
        lower = np.zeros((len(group), size, size))
        mine = entry_size == size
        rows = S.rows[mine]
        lower[block[labels[rows]], pos[rows], pos[S.cols[mine]]] = \
            S.values[mine]
        flat = lower.reshape(len(group), -1)
        _, keep = np.unique(flat.view(np.dtype((np.void, flat.strides[0]))),
                            return_index=True)
        distinct.append(lower[keep])
    top = distinct[-1].shape[1]
    blocks = np.tile(np.eye(top), (sum(map(len, distinct)), 1, 1))
    start = 0
    for lower in distinct:
        size = lower.shape[1]
        blocks[start:start + len(lower), :size, :size] += lower
        start += len(lower)
    try:
        largest = np.linalg.svd(np.linalg.inv(blocks),
                                compute_uv=False)[:, 0].max()
    except np.linalg.LinAlgError:   # an overflow turned into nan
        largest = math.nan
    if not largest < math.inf:
        raise InverseOverflow("a block of the section inverse "
                              "overflows the float range")
    return 1.0 / float(largest)


def _lanczos_sigma_min(S: SectionMatrix,
                       kept: np.ndarray | None = None) -> float:
    """sigma_min(T) of the whole section by Lanczos, or of its block on
    the indices of the mask ``kept``, a union of components.

    Lanczos with full reorthogonalisation finds the largest eigenvalue
    of T^{-H} T^{-1} from a fixed-seed random start, and stops when the
    Ritz residual is below ``LANCZOS_RTOL`` of the Ritz value or the
    Krylov space is exhausted (beta_k <= eps theta k); NonConvergence
    is raised if neither happens within ``LANCZOS_MAX_STEPS`` steps,
    and InverseOverflow if B or a step's alpha_k or beta_k is not
    finite. T^{-1} = I + B is
    built once as a sparse section (:meth:`SectionMatrix.inverse`), and
    each step applies T^{-1} and T^{-H} by one sparse product with B
    each and finds the Ritz pair of the k x k tridiagonal in O(k)
    (:func:`_top_ritz_pair`, warm-started from the step before), so
    step k costs O(nnz(B) + kK + k) on vectors of length K, and nothing
    of size K x K is formed. K is N, or with ``kept`` the number of kept
    indices: then B is the inverse of the kept rows of L, taken in the
    section's numbering so that the dyadic levels hold, and renumbered
    onto the kept indices.
    """
    if kept is None:
        inv = S.inverse()
    else:
        mine = kept[S.rows]
        inv = SectionMatrix(S.N, S.rows[mine], S.cols[mine],
                            S.values[mine]).inverse()
        index = np.cumsum(kept) - 1   # the place of each kept index
        inv = SectionMatrix(int(index[-1]) + 1, index[inv.rows],
                            index[inv.cols], inv.values)
    N = inv.N
    if not np.isfinite(inv.values).all():
        raise InverseOverflow("the section inverse overflows the float range")
    v = np.random.default_rng(0).standard_normal(N)
    v /= np.linalg.norm(v)
    blocks = []
    alphas, betas = [], []
    pair = None
    for k in range(N):
        if k == LANCZOS_MAX_STEPS:
            raise NonConvergence(
                f"Lanczos: no convergence in {LANCZOS_MAX_STEPS} steps")
        if k % _BASIS_BLOCK == 0:
            blocks.append(np.empty((min(_BASIS_BLOCK, N - k), N)))
        blocks[-1][k % _BASIS_BLOCK] = v
        basis = blocks[:-1] + [blocks[-1][:k % _BASIS_BLOCK + 1]]
        x = v + inv._apply_l(v, False)
        w = x + inv._apply_l(x, True)
        alphas.append(float(v @ w))
        for _ in range(2):   # full reorthogonalisation, twice is enough
            for Q in basis:
                w -= (Q @ w) @ Q
        beta = float(np.linalg.norm(w))
        if not (math.isfinite(alphas[-1]) and math.isfinite(beta)):
            raise InverseOverflow("a Lanczos step overflows the float range")
        pair = _top_ritz_pair(alphas, betas, pair)
        theta, y_last = pair
        # converged, or the Krylov space is exhausted: the k products
        # leave w with rounding noise of about eps theta k alone
        if (beta * y_last <= LANCZOS_RTOL * theta
                or beta <= _EPS * theta * len(alphas)):
            break
        betas.append(beta)
        v = w / beta
    return 1.0 / math.sqrt(theta)


def _top_ritz_pair(alphas: list, betas: list,
                   previous: tuple | None) -> tuple:
    """Largest eigenvalue theta of the k x k symmetric tridiagonal T
    with diagonal ``alphas`` and off-diagonal ``betas``, and the modulus
    of the last component of its unit eigenvector, in O(k).

    ``previous`` is that pair for the leading (k-1) x (k-1) block, or
    None when k = 1. By interlacing theta >= theta_{k-1}, and right of
    theta_{k-1} the last top-down pivot d_k(x) of T - x is decreasing
    and convex, so Newton from the left climbs monotonically to theta.
    It starts at the larger eigenvalue of the 2 x 2 Rayleigh-Ritz
    matrix [[theta_{k-1}, b], [b, alpha_k]], b = beta_{k-1} |y_{k-1}|,
    a lower bound for theta. Closer to theta_{k-1} than rounding
    resolves, the signs of the pivots are noise, so such a start is
    checked at a probe just above theta_{k-1}: if theta lies beyond
    the probe, Newton starts there; else the start stands, and when it
    rounds to theta_{k-1} the Ritz value has settled and is kept.

    The eigenvector comes from the twisted factorisation of T - theta:
    top-down pivots above the index where the eigenvector is largest,
    bottom-up pivots below it. The top-down pivots alone lose y_k once
    theta - theta_{k-1} is below an ulp.
    """
    k = len(alphas)
    if k == 1:
        return alphas[0], 1.0
    theta, y_prev = previous
    b = betas[-1] * y_prev
    half = 0.5 * (theta - alphas[-1])
    root = math.hypot(half, b)
    x = theta + (b * (b / (root + half)) if half > 0.0 else root - half)
    # the pivots are exact for a perturbation of T of about this size,
    # so their signs say nothing closer to theta_{k-1}. A Ritz value the
    # 2 x 2 bound cannot see, one that grows in directions orthogonal
    # to the old Ritz vector (as once the Krylov space is exhausted and
    # beta is rounding noise), lies above the probe.
    probe = theta + 8.0 * _EPS * (abs(theta) + max(map(abs, alphas))
                                  + 2.0 * max(betas))
    if x < probe and _pivots(alphas, betas, probe)[0][-1] > 0.0:
        x = probe
    down, slope = _pivots(alphas, betas, x)
    while x > theta and slope < 0.0:
        step = down[-1] / slope
        if not x - step > x:   # converged, or a pivot overflowed
            break
        x -= step
        down, slope = _pivots(alphas, betas, x)
    up = _pivots(alphas[::-1], betas[::-1], x)[0][::-1]
    # the twist index minimises |gamma_r|, gamma_r = 1 / ((T - x)^{-1})_rr
    gammas = [abs(d + u - a + x) for d, u, a in zip(down, up, alphas)]
    r = gammas.index(min(gammas))
    y = [0.0] * k
    y[r] = 1.0
    for j in range(r - 1, -1, -1):
        y[j] = -betas[j] * y[j + 1] / down[j]
    for j in range(r, k - 1):
        y[j + 1] = -betas[j] * y[j] / up[j + 1]
    return x, abs(y[-1]) / math.hypot(*y)


def _pivots(alphas: list, betas: list, x: float) -> tuple:
    """Pivots d_1..d_k of the top-down LDL^T factorisation of the
    tridiagonal T - x, and the derivative of d_k in x. A zero pivot
    becomes -ulp(x), the sign of the pivots right of the spectrum, so
    no division is by zero (LAPACK perturbs it by its pivmin alike)."""
    d = alphas[0] - x or -math.ulp(x)
    slope = -1.0
    pivots = [d]
    append = pivots.append
    for a, b in zip(alphas[1:], betas):
        t = b * b / d
        slope = t * (slope / d) - 1.0
        d = a - x - t or -math.ulp(x)
        append(d)
    return pivots, slope


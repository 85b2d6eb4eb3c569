"""Membership tests for the symmetrised polydisc G_d and the model
machinery behind them.

Two independent oracles decide whether coefficients (a_1, ..., a_d) of
alpha(z) = 1 + sum a_k z^k lie in G_d: a root criterion (all roots of
alpha outside the closed unit disc) and a Schur-Cohn positivity test on
Ptak-Young matrices. The model machinery takes the disc parameters
lam_1, ..., lam_d (every |lam_j| < 1) instead, with
alpha(z) = prod (1 + conj(lam_j) z), so no root solve recovers them. From
them it builds the Takenaka-Malmquist functions (at a point or at a
matrix, by one running product), the Blaschke-product model identity,
and the model representation and lurking-isometry realization of the
Schur-Cohn Hermitian form.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import polyform
from .certificate import (BOUNDARY_INDETERMINATE, ENVELOPE_RIGOROUS,
                          Certificate)
from .errors import (DimensionMismatch, InvalidBeta, NotInPolydisc, PoleAtZ,
                     RankDeficiency)

MEMBERSHIP_TOL = 1e-9
BETA_LIMIT = 1.0 - 1e-12
DEFAULT_BETA = 0.5
RANK_TOL = 1e-10
GRAM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PtakYoungMatrix:
    """Upper-triangular contraction with spectrum {beta_j} in the open
    disc and rank-one defect I - Y*Y.

    Note the operator norm of such a matrix equals 1 exactly for d >= 2:
    a rank-one defect leaves a (d-1)-dimensional subspace on which Y acts
    isometrically. The testable invariants are therefore the contraction
    property (largest singular value <= 1), the rank-one defect, and the
    spectrum.

    A stack of them holds betas of shape (..., d) and matrices of shape
    (..., d, d).
    """

    betas: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class MembershipVerdict:
    inside: bool
    margin: float
    indeterminate: bool = False


def ptak_young(betas) -> PtakYoungMatrix:
    """Build the upper-triangular matrix with diagonal beta_j,
    superdiagonal s_j s_{j+1}, and entry (j,k) equal to
    s_j * prod_{l=j+1}^{k-1} (-conj(beta_l)) * s_k, where
    s_j = sqrt(1 - |beta_j|^2).

    ``betas`` of shape (..., d) give a stack of matrices, (..., d, d).
    Each entry takes its products in the order of the formula: the
    running product along row j starts from 1 and multiplies by
    -conj(beta_l) for l = j+1, j+2, ...
    """
    bs = np.array(betas, dtype=complex)
    if bs.ndim == 0 or bs.shape[-1] == 0:
        raise InvalidBeta("need at least one beta")
    # hypot and pow, as Python's abs(b) ** 2 rounds them: numpy's
    # complex abs and x * x differ from them in the last bit; float_power
    # calls the C library's pow at every SIMD dispatch
    modulus = np.hypot(bs.real, bs.imag)
    # a nan makes the largest modulus nan, which fails the comparison
    if not modulus.max() < BETA_LIMIT:
        raise InvalidBeta("every |beta_j| must be < 1 - 1e-12")
    d = bs.shape[-1]
    s = np.sqrt(1.0 - np.float_power(modulus, 2.0))
    col = np.arange(d)
    upper = col > col[:, None]
    # row j: 1 up to column j, then the running product of -conj(beta_l)
    # over l = j+1, j+2, ...; entry (j, k) takes it up to column k - 1
    prod = np.cumprod(np.where(upper, -bs.conj()[..., None, :], 1.0), axis=-1)
    Y = np.zeros(bs.shape + (d,), dtype=complex)
    Y[..., 1:] = np.where(upper[:, 1:],
                          s[..., :, None] * prod[..., :-1] * s[..., None, 1:],
                          0.0)
    # the diagonal: every (d + 1)-th entry of each matrix's d * d
    Y.reshape(bs.shape[:-1] + (d * d,))[..., ::d + 1] = bs
    return PtakYoungMatrix(bs, Y)


@functools.lru_cache(maxsize=16)
def _default_ptak_young(d: int) -> PtakYoungMatrix:
    """ptak_young((DEFAULT_BETA,) * d), built once per d and shared, so
    its matrix is read-only."""
    Y = ptak_young((DEFAULT_BETA,) * d)
    Y.matrix.setflags(write=False)
    return Y


@functools.lru_cache(maxsize=16)
def _default_powers(d: int) -> tuple:
    """Y^0, ..., Y^d of Y = ``_default_ptak_young(d)``, stacked in rows
    as a ((d + 1) d, d) array, and the conjugate transpose of that
    stack; built once per d and read-only."""
    Y = _default_ptak_young(d).matrix
    powers = [np.eye(d, dtype=complex)]
    for _ in range(d):
        powers.append(powers[-1] @ Y)
    stack = np.concatenate(powers)
    adjoint = stack.conj().T.copy()
    stack.setflags(write=False)
    adjoint.setflags(write=False)
    return stack, adjoint


def _default_form(a: list) -> np.ndarray:
    """The Schur-Cohn form of :func:`in_polydisc_schur_cohn` at the
    default Ptak-Young matrix Y, as a quadratic form in the coefficients.

    With q = (1, a_1, ..., a_d) the ascending coefficients of Q and
    p = (conj(a_d), ..., conj(a_1), 1) those of P,
    H = Q(Y)* Q(Y) - P(Y)* P(Y) = sum_jk W_jk (Y^j)* Y^k with
    W_jk = conj(q_j) q_k - conj(p_j) p_k: two products with the cached
    :func:`_default_powers`, M_j = sum_k W_jk Y^k and H = sum_j (Y^j)* M_j.
    (One product of W with the cached Gram matrices (Y^j)* Y^k would be
    a matrix-vector product, for which OpenBLAS wakes a second thread
    that then spins on the other CPU.) Its lower triangle,
    which ``eigvalsh`` reads, agrees with :func:`schur_cohn_form` to
    rounding; the upper one is not mirrored.
    """
    d = len(a)
    stack, adjoint = _default_powers(d)
    q = np.array([1.0] + a)
    r = q[::-1]                 # p = conj(r)
    W = q.conj()[:, None] * q - r[:, None] * r.conj()
    return adjoint @ (W @ stack.reshape(d + 1, d * d)).reshape(-1, d)


def in_polydisc_roots(coeffs: Sequence[complex]) -> MembershipVerdict:
    """Root oracle: (a_1, ..., a_d) is in G_d iff 1 + sum a_k z^k has all
    roots outside the closed unit disc. Margin is min |root| - 1.

    The verdict is indeterminate when |margin| is within
    ``MEMBERSHIP_TOL`` or within the Newton inclusion radius
    d |p(z) / p'(z)| of the smallest computed root z, a disc that holds
    a true root: near a multiple root the computed roots are off by
    about sqrt(eps) |z|, far more than ``MEMBERSHIP_TOL``, and a margin
    or radius that is not finite decides nothing. Roots past the radius
    where Horner's sums could overflow are deflated first
    (:func:`_deflated_degree`); they lie outside the disc.
    """
    cs = [complex(c) for c in coeffs]
    if not cs:
        raise ValueError("need at least one coefficient")
    pol = polyform.as_poly([1.0] + cs)
    # Fujiwara's bound for the reversed polynomial: every root has
    # |z| >= 1 / w. Past the float range no root is representable, and
    # none lies in the disc (the constant polynomial included)
    d = pol.degree
    w = 2.0 * max((polyform.modulus(c / 2.0 if k == d else c) ** (1.0 / k)
                   for k, c in enumerate(pol.coeffs[1:], start=1)),
                  default=0.0)
    if w * sys.float_info.max < 1.0:
        return MembershipVerdict(True, math.inf)
    k = _deflated_degree(pol)
    kept = pol if k == d else polyform.Polynomial(pol.coeffs[:k + 1])
    z = min(polyform.roots(kept).roots, key=polyform.modulus)
    margin = polyform.modulus(z) - 1.0
    # p(z) and p'(z) by Horner's scheme over the coefficients c_j and
    # j c_j, in one loop
    pz = dz = 0j
    for j in range(d, 0, -1):
        c = pol.coeffs[j]
        pz = pz * z + c
        dz = dz * z + j * c
    pz = polyform.modulus(pz * z + pol.coeffs[0])
    dz = polyform.modulus(dz)
    inclusion = 0.0 if pz == 0 else (d * pz / dz if dz else math.inf)
    # a NaN or infinite margin or inclusion radius decides nothing
    decisive = (math.isfinite(margin) and abs(margin) > MEMBERSHIP_TOL
                and abs(margin) > inclusion)
    return MembershipVerdict(margin > MEMBERSHIP_TOL, margin,
                             indeterminate=not decisive)


def _deflated_degree(pol: polyform.Polynomial) -> int:
    """The number k of roots of ``pol`` inside |z| < R when the others
    lie past R; else its degree. R = (M / sum |c_i|)^(1/d), M the
    largest float, is the radius below which Horner's sums
    sum |c_i| |z|^i cannot overflow.

    By Pellet's theorem (Rouche on |z| = R), the term c_k z^k
    outweighing the sum of all the others there puts exactly k roots
    inside |z| < R and the d - k others outside, past the disc too. The
    ratios of those terms to c_k R^k are compared in logarithms, so that
    nothing overflows, and their sum must stay below 1/2 to spare the
    rounding. Each dropped term c_i z^i, i > k, is then below
    |c_k| / (2 R) on the closed unit disc, so with R >= 2^53 the k
    others are the roots of c_0 + ... + c_k z^k up to a change below the
    float resolution where the verdict is decided. Every such k needs
    |c_d| R below |c_k| / 2, which is checked first.

    Where a modulus |c_i| is past the float range (its parts finite), no
    radius keeps Horner's sums finite, and the test runs at R = 2^53,
    the least radius for which the argument above holds. A part that is
    not finite deflates nothing.
    """
    cs, d = pol.coeffs, pol.degree
    total = sum(map(polyform.modulus, cs))
    if total < math.inf:
        # sum |c_i| >= |c_0| = 1: the quotient cannot overflow
        r = (sys.float_info.max / total) ** (1.0 / d)
        if not (r >= 2.0 ** 53
                and abs(cs[d]) * r < max(map(abs, cs[:d])) / 2.0):
            return d
        log_r = math.log(r)
    elif all(map(cmath.isfinite, cs)):
        log_r = 53.0 * math.log(2.0)
    else:
        return d
    logs = [_log_modulus(c) for c in cs]
    for k in range(1, d):
        if not cs[k]:
            continue
        excess = [logs[i] + (i - k) * log_r - logs[k]
                  for i in range(d + 1) if i != k]
        if max(excess) < 0.0 and sum(map(math.exp, excess)) < 0.5:
            return k
    return d


def _log_modulus(c: complex) -> float:
    """log |c|, -inf at c = 0; past the float range from |c / 2|."""
    if not c:
        return -math.inf
    try:
        return math.log(abs(c))
    except OverflowError:
        return math.log(abs(c / 2.0)) + math.log(2.0)


def _matrix_poly(asc_coeffs, M: np.ndarray) -> np.ndarray:
    """Horner evaluation of a scalar polynomial at a square matrix.

    Coefficients of shape (..., n + 1) and matrices of shape
    (..., d, d), their leading axes broadcast, give a stack of values
    from one pass: each step takes ``acc @ M`` for the whole stack and
    adds each row's coefficient times I to its layer, so every layer is
    rounded as the polynomial alone would be.
    """
    c = np.asarray(asc_coeffs, dtype=complex)
    d = M.shape[-1]
    acc = np.zeros(np.broadcast(c[..., 0], M[..., 0, 0]).shape + (d, d),
                   dtype=complex)
    eye = np.eye(d)
    for k in range(c.shape[-1] - 1, -1, -1):
        acc = acc @ M
        acc += c[..., k, None, None] * eye
    return acc


def _conjugate_asc(cs: Sequence[complex]) -> list:
    """Ascending coefficients of the conjugate polynomial
    Q(z) = 1 + sum_k conj(c_k) z^k of the monic
    P(z) = z^d + c_1 z^{d-1} + ... + c_d."""
    return [1.0] + [complex(c).conjugate() for c in cs]


def conjugate_poly(coeffs: Sequence[complex],
                   M: np.ndarray) -> np.ndarray:
    """Q(M) for the conjugate polynomial Q of the monic polynomial with
    coefficients ``coeffs`` = (c_1, ..., c_d), at a square matrix M."""
    return _matrix_poly(_conjugate_asc(coeffs), M)


def schur_cohn_form(coeffs, Y: PtakYoungMatrix) -> np.ndarray:
    """Hermitian matrix of the form ||Q(Y)x||^2 - ||P(Y)x||^2.

    ``coeffs`` are the monic-polynomial coefficients (c_1, ..., c_d) of
    P(z) = z^d + c_1 z^{d-1} + ... + c_d; Q is the conjugate polynomial.
    Positive definiteness for one (hence every) Ptak-Young matrix Y
    characterises membership of (c_1, ..., c_d) in G_d.

    Coefficients of shape (..., d) and a stack of Ptak-Young matrices
    broadcast over their leading axes. P(Y) and Q(Y) come from one
    Horner pass on a (..., 2, d, d) stack.
    """
    cs = np.asarray(coeffs, dtype=complex)
    d = cs.shape[-1]
    if Y.dim != d:
        raise DimensionMismatch(f"Y is {Y.dim}x{Y.dim}, coefficients give d={d}")
    # ascending coefficients of P, then of Q
    asc = np.ones(cs.shape[:-1] + (2, d + 1), dtype=complex)
    asc[..., 0, :-1] = cs[..., ::-1]
    asc[..., 1, 1:] = cs.conj()
    PQ = _matrix_poly(asc, Y.matrix[..., None, :, :])
    # P(Y)* P(Y) and Q(Y)* Q(Y) from one product of the stack
    gram = _adjoint(PQ) @ PQ
    H = gram[..., 1, :, :] - gram[..., 0, :, :]
    return 0.5 * (H + _adjoint(H))


def _adjoint(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return M.conj().swapaxes(-1, -2)


def schur_cohn_margins(coeffs, betas) -> np.ndarray:
    """The margins of :func:`in_polydisc_schur_cohn` at given betas, for
    stacks: coefficients (a_1, ..., a_d) of shape (..., d) and betas of
    shape (..., d), broadcast over their leading axes. Each margin is
    the smallest eigenvalue of the Schur-Cohn form at the Ptak-Young
    matrix of its betas, from one ``eigvalsh`` for the whole stack; a
    form that is not finite gives nan."""
    a = np.asarray(coeffs, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        H = schur_cohn_form(a.conj(), ptak_young(betas))
    finite = np.isfinite(H)
    if finite.all():
        return np.linalg.eigvalsh(H)[..., 0]
    # a form that is not finite gives eigvalsh the identity in its place
    finite = finite.all(axis=(-2, -1))
    H = np.where(finite[..., None, None], H, np.eye(H.shape[-1]))
    return np.where(finite, np.linalg.eigvalsh(H)[..., 0], math.nan)


def in_polydisc_schur_cohn(coeffs: Sequence[complex],
                           betas: Sequence[complex] | None = None,
                           ) -> MembershipVerdict:
    """Schur-Cohn oracle for the same (a_1, ..., a_d) convention as
    :func:`in_polydisc_roots`.

    The coefficients of alpha(z) = 1 + sum a_k z^k are converted to the
    monic convention via the conjugate-polynomial correspondence
    (c_k = conj(a_k)); the margin is the smallest eigenvalue of the
    Schur-Cohn Hermitian form. Without ``betas`` every beta_j is
    ``DEFAULT_BETA``, and the form is :func:`_default_form`: the powers
    Y^0, ..., Y^d of that Y are built once per d, and the form takes two
    matrix products with them, not d + 1 matrix Horner steps. Given
    betas, the margin is :func:`schur_cohn_margins` for a stack of one.
    A form that is not finite (a coefficient past about 1e154, or not
    finite) gives no margin: the verdict is indeterminate, with margin
    nan.
    """
    a = [complex(c) for c in coeffs]
    if betas is not None:
        margin = float(schur_cohn_margins(a, betas))
    else:
        # beta = 0 is forbidden by the spectrum-plus-defect definition
        # (the nilpotent Jordan block), so a fixed nonzero default is used
        with np.errstate(over="ignore", invalid="ignore"):
            H = _default_form(a)
        margin = (float(np.linalg.eigvalsh(H)[0]) if np.isfinite(H).all()
                  else math.nan)
    return MembershipVerdict(margin > MEMBERSHIP_TOL, margin,
                             indeterminate=not abs(margin) > MEMBERSHIP_TOL)


def _disc_lambdas(lambdas: Sequence[complex]) -> list:
    """The lambdas as complex numbers, each checked to lie in the disc."""
    lams = [complex(l) for l in lambdas]
    if any(not abs(l) < 1 for l in lams):
        raise NotInPolydisc("every |lambda| must be < 1")
    return lams


def _tm_values(lams: list, z) -> tuple:
    """(E_1(z), ..., E_d(z)) and the Blaschke product B(z) from one
    running product: E_j(z) = sqrt(1-|lam_j|^2) / (1 + conj(lam_j) z)
    times the first j - 1 factors (z + lam_k) / (1 + conj(lam_k) z).
    ``z`` is a point or an array of points; each point takes the
    operations it would alone."""
    values = []
    b = 1.0 + 0j
    for lam in lams:
        den = 1.0 + lam.conjugate() * z
        if np.any(abs(den) < 1e-14):
            raise PoleAtZ(f"an evaluation point hits the pole of "
                          f"lambda = {lam}")
        values.append(math.sqrt(1.0 - abs(lam) ** 2) / den * b)
        b *= (z + lam) / den
    return values, b


def takenaka_malmquist(lambdas: Sequence[complex], j: int,
                       z: complex) -> complex:
    """j-th Takenaka-Malmquist function (1-based j):

        E_j(z) = sqrt(1-|lam_j|^2)/(1+conj(lam_j) z)
                 * prod_{k<j} (z+lam_k)/(1+conj(lam_k) z).

    These form an orthonormal family in the Hardy space of the disc.
    """
    if not 1 <= j <= len(lambdas):
        raise ValueError(f"j={j} out of range 1..{len(lambdas)}")
    return _tm_values(_disc_lambdas(lambdas)[:j], z)[0][-1]


def model_residual(lambdas: Sequence[complex], z, w):
    """Defect of the model identity at (z, w):

        |(1 - conj(B(w)) B(z)) - sum_j conj(E_j(w)) (1 - conj(w) z) E_j(z)|

    with B the Blaschke product of the lambdas. Near zero for any
    lambdas in the open disc. Arrays of points z and w broadcast, to an
    array of defects: a (n, 1) column of z and a row of w give the
    whole grid, each pair's defect in the floats of its own call.
    """
    lams = _disc_lambdas(lambdas)
    e_w, b_w = _tm_values(lams, w)
    e_z, b_z = _tm_values(lams, z)
    lhs = 1.0 - b_w.conjugate() * b_z
    rhs = 0j
    factor = 1.0 - w.conjugate() * z
    for ew, ez in zip(e_w, e_z):
        rhs += ew.conjugate() * factor * ez
    # hypot, as abs of a complex scalar; numpy's array abs rounds
    # differently
    defect = lhs - rhs
    return np.hypot(defect.real, defect.imag)


def tm_stack(lambdas: Sequence[complex], Y: np.ndarray) -> np.ndarray:
    """E_1(Y), ..., E_d(Y) at a d x d matrix, stacked d^2 x d, by one
    running product as :func:`_tm_values` at a point, 2d - 1 solves:
    E_j = sqrt(1-|lam_j|^2) (I + conj(lam_j) Y)^{-1} B_{j-1} and
    B_j = B_{j-1} (I + conj(lam_j) Y)^{-1} (Y + lam_j I), B_0 = I. The
    inverses exist because the spectrum of Y lies in the open disc."""
    lams = _disc_lambdas(lambdas)
    eye = np.eye(Y.shape[0])
    blocks = []
    b = eye
    for j, lam in enumerate(lams, start=1):
        den = eye + lam.conjugate() * Y
        blocks.append(math.sqrt(1.0 - abs(lam) ** 2)
                      * np.linalg.solve(den, b))
        if j < len(lams):
            b = b @ np.linalg.solve(den, Y + lam * eye)
    return np.vstack(blocks)


def hermitian_form_tm(lambdas: Sequence[complex], Y: PtakYoungMatrix,
                      x: Sequence[complex]) -> float:
    """Quadratic value of the Schur-Cohn form through its model
    representation:

        sum_j < Q(Y)* E_j(Y)* (I - Y*Y) E_j(Y) Q(Y) x, x >

    with Q(z) = prod (1 + conj(lam_j) z), which must agree with
    x* schur_cohn_form(monic_coeffs(lambdas), Y) x.
    """
    lams = _disc_lambdas(lambdas)
    d = len(lams)
    if Y.dim != d:
        raise DimensionMismatch(f"Y is {Y.dim}x{Y.dim}, need {d}")
    Ymat = Y.matrix
    QY = conjugate_poly(monic_coeffs(lams), Ymat)
    defect = np.eye(d) - Ymat.conj().T @ Ymat
    # row j of w is E_j(Y) Q(Y) x
    w = (tm_stack(lams, Ymat) @ (QY @ np.asarray(x, dtype=complex))
         ).reshape(d, d)
    return float(np.vdot(w, w @ defect.T).real)


def _orthonormal_complement(Q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(Q)
    (Q has orthonormal columns)."""
    n, r = Q.shape
    u, _, _ = np.linalg.svd(Q, full_matrices=True)
    return u[:, r:] if r < n else np.zeros((n, 0), dtype=complex)


def realization(Y: PtakYoungMatrix, lambdas: Sequence[complex]) -> np.ndarray:
    """Extract the d x d^2 block H(Y) with

        || H(Y) u(Y) Q(Y) x ||^2 = ||Q(Y)x||^2 - ||P(Y)x||^2

    where u(Y) is :func:`tm_stack`, P(z) = prod (z + lam_j) and Q
    is its conjugate. The block is the top-right corner of a unitary
    extension of the isometry mapping (0, u(Y)z) to (y_z, (I ox Y)u(Y)z),
    obtained by completing orthonormal bases of the complements of the
    domain and range spans (rank tolerance ``RANK_TOL``); a Gramian
    mismatch above ``GRAM_TOL`` raises RankDeficiency.
    """
    lams = _disc_lambdas(lambdas)
    d = Y.dim
    if len(lams) != d:
        raise DimensionMismatch(f"{len(lams)} lambdas for a {d}x{d} matrix")
    Ymat = Y.matrix
    stack = tm_stack(lams, Ymat)
    defect = np.eye(d) - Ymat.conj().T @ Ymat

    gram_diff = stack.conj().T @ np.kron(np.eye(d), defect) @ stack
    gram_diff = 0.5 * (gram_diff + gram_diff.conj().T)
    evals, evecs = np.linalg.eigh(gram_diff)
    evals = np.clip(evals, 0.0, None)
    ymap = (evecs * np.sqrt(evals)) @ evecs.conj().T

    n = d + d * d
    V = np.zeros((n, d), dtype=complex)
    V[d:, :] = stack
    W = np.zeros((n, d), dtype=complex)
    W[:d, :] = ymap
    W[d:, :] = np.kron(np.eye(d), Ymat) @ stack

    mismatch = float(np.abs(V.conj().T @ V - W.conj().T @ W).max())
    if mismatch > GRAM_TOL:
        raise RankDeficiency(
            f"Gramian mismatch {mismatch:.3e} exceeds tolerance {GRAM_TOL}")

    pv, sv, rv = np.linalg.svd(V, full_matrices=False)
    keep = sv > RANK_TOL * (sv[0] if sv.size else 1.0)
    dom = pv[:, keep]
    ran = W @ (rv.conj().T[:, keep] / sv[keep])
    U = ran @ dom.conj().T
    U += _orthonormal_complement(ran) @ _orthonormal_complement(dom).conj().T
    return U[:d, d:]


def realization_residuals(Y: PtakYoungMatrix, lambdas: Sequence[complex],
                          xs) -> np.ndarray:
    """The defect of the realization identity for each row x of ``xs``
    (shape (n, d)):

        | ||H(Y) u(Y) Q(Y) x||^2 - x* S x |

    with H(Y) = :func:`realization`, u(Y) = :func:`tm_stack`, Q the
    conjugate polynomial of P(z) = prod (z + lam_j) and S the Schur-Cohn
    form of P at Y. Every product is a matrix-vector or vector-vector
    product per x, so each defect takes the floats of one vector alone.
    """
    lams = _disc_lambdas(lambdas)
    H = realization(Y, lams)
    cs = monic_coeffs(lams)
    S = schur_cohn_form(cs, Y)
    stack = tm_stack(lams, Y.matrix)
    x = np.asarray(xs, dtype=complex)[..., None]
    v = H @ (stack @ (conjugate_poly(cs, Y.matrix) @ x))
    # ||v|| as numpy's norm takes it, from the dot products of the real
    # and imaginary parts, then squared by pow as a float's ** 2 is
    re, im = v.real, v.imag
    sq = re.swapaxes(-1, -2) @ re + im.swapaxes(-1, -2) @ im
    lhs = np.float_power(np.sqrt(sq[..., 0, 0]), 2.0)
    rhs = (_adjoint(x) @ (S @ x))[..., 0, 0].real
    return np.abs(lhs - rhs)


def monic_coeffs(lambdas: Sequence[complex]) -> list:
    """Coefficients (c_1, ..., c_d) of P(z) = prod (z + lam_j) in the
    monic convention used by :func:`schur_cohn_form`."""
    return polyform.elementary_symmetric(lambdas)


def membership_certificate(coeffs: Sequence[complex]) -> Certificate:
    """Certificate combining both membership oracles.

    A decisive oracle settles the verdict (the Hermitian-form margin is
    legitimately ~0 not only on the boundary but also for reciprocal
    root pairs, where the root oracle still decides); when neither
    margin clears the tolerance the verdict is "boundary-indeterminate"
    (the coefficient region is open, so near-boundary inputs are
    flagged rather than silently decided), and conflicting decisive
    verdicts are likewise flagged instead of trusted.
    """
    rv = in_polydisc_roots(coeffs)
    sv = in_polydisc_schur_cohn(coeffs)
    decisive = [v for v in (rv, sv) if not v.indeterminate]
    if not decisive or len({v.inside for v in decisive}) != 1:
        verdict: object = BOUNDARY_INDETERMINATE
    else:
        verdict = decisive[0].inside
    return Certificate(
        kind="polydisc",
        verdict=verdict,
        parameters={"d": len(list(coeffs)), "tolerance": MEMBERSHIP_TOL},
        margins={"root_margin": rv.margin, "schur_cohn_margin": sv.margin},
        mode=ENVELOPE_RIGOROUS,
    )

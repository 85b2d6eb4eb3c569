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
    """

    betas: tuple
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.betas)


@dataclass(frozen=True)
class MembershipVerdict:
    inside: bool
    margin: float
    indeterminate: bool = False


def ptak_young(betas: Sequence[complex]) -> PtakYoungMatrix:
    """Build the upper-triangular matrix with diagonal beta_j,
    superdiagonal s_j s_{j+1}, and entry (j,k) equal to
    s_j * prod_{l=j+1}^{k-1} (-conj(beta_l)) * s_k, where
    s_j = sqrt(1 - |beta_j|^2)."""
    bs = tuple(complex(b) for b in betas)
    if not bs:
        raise InvalidBeta("need at least one beta")
    if any(not abs(b) < BETA_LIMIT for b in bs):
        raise InvalidBeta("every |beta_j| must be < 1 - 1e-12")
    d = len(bs)
    s = [math.sqrt(1.0 - abs(b) ** 2) for b in bs]
    Y = np.zeros((d, d), dtype=complex)
    for j in range(d):
        Y[j, j] = bs[j]
        prod = 1.0 + 0j
        for k in range(j + 1, d):
            Y[j, k] = s[j] * prod * s[k]
            prod *= -bs[k].conjugate()
    return PtakYoungMatrix(bs, Y)


@functools.lru_cache(maxsize=16)
def _default_ptak_young(d: int) -> PtakYoungMatrix:
    """ptak_young((DEFAULT_BETA,) * d), built once per d and shared, so
    its matrix is read-only."""
    Y = ptak_young((DEFAULT_BETA,) * d)
    Y.matrix.setflags(write=False)
    return Y


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
    z = min(polyform.roots(pol.coeffs[:k + 1]).roots, key=polyform.modulus)
    margin = polyform.modulus(z) - 1.0
    pz = polyform.modulus(polyform.eval_poly(pol, z))
    dz = polyform.modulus(polyform.eval_poly(
        [k * c for k, c in enumerate(pol.coeffs)][1:], z))
    inclusion = 0.0 if pz == 0 else (pol.degree * pz / dz if dz else math.inf)
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
    """
    cs, d = pol.coeffs, pol.degree
    # sum |c_i| >= |c_0| = 1: the quotient cannot overflow; a modulus
    # past the float range makes it 0, and no root is deflated
    r = (sys.float_info.max / sum(map(polyform.modulus, cs))) ** (1.0 / d)
    if not (r >= 2.0 ** 53 and abs(cs[d]) * r < max(map(abs, cs[:d])) / 2.0):
        return d
    log_r = math.log(r)
    logs = [math.log(abs(c)) if c else -math.inf for c in cs]
    for k in range(1, d):
        if not cs[k]:
            continue
        excess = [logs[i] + (i - k) * log_r - logs[k]
                  for i in range(d + 1) if i != k]
        if max(excess) < 0.0 and sum(map(math.exp, excess)) < 0.5:
            return k
    return d


def _matrix_poly(asc_coeffs, M: np.ndarray) -> np.ndarray:
    """Horner evaluation of a scalar polynomial at a square matrix.

    Coefficients in rows, of the same length, give a stack of values
    from one pass: each step takes ``acc @ M`` for the whole stack and
    adds each row's coefficient times I to its layer, so every layer is
    rounded as the polynomial alone would be.
    """
    c = np.asarray(asc_coeffs, dtype=complex)
    d = M.shape[0]
    acc = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
    eye = np.eye(d)
    for k in range(c.shape[-1] - 1, -1, -1):
        acc = acc @ M + c[..., k, None, None] * eye
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


def schur_cohn_form(coeffs: Sequence[complex],
                    Y: PtakYoungMatrix) -> np.ndarray:
    """Hermitian matrix of the form ||Q(Y)x||^2 - ||P(Y)x||^2.

    ``coeffs`` are the monic-polynomial coefficients (c_1, ..., c_d) of
    P(z) = z^d + c_1 z^{d-1} + ... + c_d; Q is the conjugate polynomial.
    Positive definiteness for one (hence every) Ptak-Young matrix Y
    characterises membership of (c_1, ..., c_d) in G_d.

    P(Y) and Q(Y) come from one Horner pass on a (2, d, d) stack.
    """
    cs = [complex(c) for c in coeffs]
    d = len(cs)
    if Y.dim != d:
        raise DimensionMismatch(f"Y is {Y.dim}x{Y.dim}, coefficients give d={d}")
    p_asc = list(reversed(cs)) + [1.0]
    P, Q = _matrix_poly([p_asc, _conjugate_asc(cs)], Y.matrix)
    H = Q.conj().T @ Q - P.conj().T @ P
    return 0.5 * (H + H.conj().T)


def in_polydisc_schur_cohn(coeffs: Sequence[complex],
                           betas: Sequence[complex] | None = None,
                           ) -> MembershipVerdict:
    """Schur-Cohn oracle for the same (a_1, ..., a_d) convention as
    :func:`in_polydisc_roots`.

    The coefficients of alpha(z) = 1 + sum a_k z^k are converted to the
    monic convention via the conjugate-polynomial correspondence
    (c_k = conj(a_k)); the margin is the smallest eigenvalue of the
    Schur-Cohn Hermitian form. Without ``betas`` every beta_j is
    ``DEFAULT_BETA``, and that matrix is built once per d. A form that
    is not finite (a coefficient past about 1e154, or not finite) gives
    no margin: the verdict is indeterminate, with margin nan.
    """
    a = [complex(c) for c in coeffs]
    # beta = 0 is forbidden by the spectrum-plus-defect definition (the
    # nilpotent Jordan block), so a fixed nonzero default is used.
    Y = _default_ptak_young(len(a)) if betas is None else ptak_young(betas)
    with np.errstate(over="ignore", invalid="ignore"):
        H = schur_cohn_form([c.conjugate() for c in a], Y)
    if not np.isfinite(H).all():
        return MembershipVerdict(False, math.nan, indeterminate=True)
    margin = float(np.linalg.eigvalsh(H)[0])
    return MembershipVerdict(margin > MEMBERSHIP_TOL, margin,
                             indeterminate=not abs(margin) > MEMBERSHIP_TOL)


def _disc_lambdas(lambdas: Sequence[complex]) -> list:
    """The lambdas as complex numbers, each checked to lie in the disc."""
    lams = [complex(l) for l in lambdas]
    if any(not abs(l) < 1 for l in lams):
        raise NotInPolydisc("every |lambda| must be < 1")
    return lams


def _tm_values(lams: list, z: complex) -> tuple:
    """(E_1(z), ..., E_d(z)) and the Blaschke product B(z) from one
    running product: E_j(z) = sqrt(1-|lam_j|^2) / (1 + conj(lam_j) z)
    times the first j - 1 factors (z + lam_k) / (1 + conj(lam_k) z)."""
    values = []
    b = 1.0 + 0j
    for lam in lams:
        den = 1.0 + lam.conjugate() * z
        if abs(den) < 1e-14:
            raise PoleAtZ(f"evaluation point {z} hits a pole")
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


def model_residual(lambdas: Sequence[complex], z: complex,
                   w: complex) -> float:
    """Defect of the model identity at (z, w):

        |(1 - conj(B(w)) B(z)) - sum_j conj(E_j(w)) (1 - conj(w) z) E_j(z)|

    with B the Blaschke product of the lambdas. Near zero for any
    lambdas in the open disc.
    """
    lams = _disc_lambdas(lambdas)
    e_w, b_w = _tm_values(lams, w)
    e_z, b_z = _tm_values(lams, z)
    lhs = 1.0 - b_w.conjugate() * b_z
    rhs = 0j
    factor = 1.0 - complex(w).conjugate() * complex(z)
    for ew, ez in zip(e_w, e_z):
        rhs += ew.conjugate() * factor * ez
    return abs(lhs - rhs)


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

"""Membership tests for the symmetrised polydisc G_d and the model
machinery behind them.

Two independent oracles decide whether coefficients (a_1, ..., a_d) of
alpha(z) = 1 + sum a_k z^k lie in G_d: a root criterion (all roots of
alpha outside the closed unit disc) and a Schur-Cohn positivity test on
Ptak-Young matrices. The module also provides Takenaka-Malmquist
functions, the Blaschke-product model identity, and the lurking-isometry
realization of the Schur-Cohn Hermitian form.
"""

from __future__ import annotations

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
    method: str
    indeterminate: bool = False


def ptak_young(betas: Sequence[complex]) -> PtakYoungMatrix:
    """Build the upper-triangular matrix with diagonal beta_j,
    superdiagonal s_j s_{j+1}, and entry (j,k) equal to
    s_j * prod_{l=j+1}^{k-1} (-conj(beta_l)) * s_k, where
    s_j = sqrt(1 - |beta_j|^2)."""
    bs = tuple(complex(b) for b in betas)
    if not bs:
        raise InvalidBeta("need at least one beta")
    if any(abs(b) >= BETA_LIMIT for b in bs):
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


def default_ptak_young(d: int) -> PtakYoungMatrix:
    # beta = 0 is forbidden by the spectrum-plus-defect definition (the
    # nilpotent Jordan block), so a fixed nonzero default is used.
    return ptak_young((DEFAULT_BETA,) * d)


def in_polydisc_roots(coeffs: Sequence[complex],
                      tol: float = MEMBERSHIP_TOL) -> MembershipVerdict:
    """Root oracle: (a_1, ..., a_d) is in G_d iff 1 + sum a_k z^k has all
    roots outside the closed unit disc. Margin is min |root| - 1.

    The verdict is indeterminate when |margin| is within ``tol`` or
    within the Newton inclusion radius d |p(z) / p'(z)| of the smallest
    computed root z, a disc that holds a true root: near a multiple
    root the computed roots are off by about sqrt(eps) |z|, far more
    than ``tol``, and a margin or radius that is not finite decides
    nothing. Roots past the radius where Horner's sums could overflow
    are deflated first (:func:`_deflated_degree`); they lie outside the
    disc.
    """
    cs = [complex(c) for c in coeffs]
    if not cs:
        raise ValueError("need at least one coefficient")
    pol = polyform.as_poly([1.0] + cs)
    # Fujiwara's bound for the reversed polynomial: every root has
    # |z| >= 1 / w. Past the float range no root is representable, and
    # none lies in the disc (the constant polynomial included)
    d = pol.degree
    w = 2.0 * max((abs(c / 2.0 if k == d else c) ** (1.0 / k)
                   for k, c in enumerate(pol.coeffs[1:], start=1)),
                  default=0.0)
    if w * sys.float_info.max < 1.0:
        return MembershipVerdict(True, math.inf, "roots")
    k = _deflated_degree(pol)
    z = min(polyform.roots(pol.coeffs[:k + 1]).roots, key=abs)
    margin = abs(z) - 1.0
    pz = abs(polyform.eval_poly(pol, z))
    dz = abs(polyform.eval_poly(
        [k * c for k, c in enumerate(pol.coeffs)][1:], z))
    inclusion = 0.0 if pz == 0 else (pol.degree * pz / dz if dz else math.inf)
    # a NaN or infinite margin or inclusion radius decides nothing
    decisive = (math.isfinite(margin) and abs(margin) > tol
                and abs(margin) > inclusion)
    return MembershipVerdict(margin > tol, margin, "roots",
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
    # sum |c_i| >= |c_0| = 1: the quotient cannot overflow
    r = (sys.float_info.max / sum(map(abs, cs))) ** (1.0 / d)
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


def _matrix_poly(asc_coeffs: Sequence[complex], M: np.ndarray) -> np.ndarray:
    """Horner evaluation of a scalar polynomial at a square matrix."""
    d = M.shape[0]
    acc = np.zeros((d, d), dtype=complex)
    eye = np.eye(d)
    for c in reversed(list(asc_coeffs)):
        acc = acc @ M + complex(c) * eye
    return acc


def schur_cohn_form(coeffs: Sequence[complex],
                    Y: PtakYoungMatrix) -> np.ndarray:
    """Hermitian matrix of the form ||Q(Y)x||^2 - ||P(Y)x||^2.

    ``coeffs`` are the monic-polynomial coefficients (c_1, ..., c_d) of
    P(z) = z^d + c_1 z^{d-1} + ... + c_d; Q is the conjugate polynomial.
    Positive definiteness for one (hence every) Ptak-Young matrix Y
    characterises membership of (c_1, ..., c_d) in G_d.
    """
    cs = [complex(c) for c in coeffs]
    d = len(cs)
    if Y.dim != d:
        raise DimensionMismatch(f"Y is {Y.dim}x{Y.dim}, coefficients give d={d}")
    p_asc = list(reversed(cs)) + [1.0]
    q_asc = [1.0] + [c.conjugate() for c in cs]
    P = _matrix_poly(p_asc, Y.matrix)
    Q = _matrix_poly(q_asc, Y.matrix)
    H = Q.conj().T @ Q - P.conj().T @ P
    return 0.5 * (H + H.conj().T)


def in_polydisc_schur_cohn(coeffs: Sequence[complex],
                           betas: Sequence[complex] | None = None,
                           tol: float = MEMBERSHIP_TOL) -> MembershipVerdict:
    """Schur-Cohn oracle for the same (a_1, ..., a_d) convention as
    :func:`in_polydisc_roots`.

    The coefficients of alpha(z) = 1 + sum a_k z^k are converted to the
    monic convention via the conjugate-polynomial correspondence
    (c_k = conj(a_k)); the margin is the smallest eigenvalue of the
    Schur-Cohn Hermitian form.
    """
    a = [complex(c) for c in coeffs]
    d = len(a)
    Y = ptak_young(betas) if betas is not None else default_ptak_young(d)
    H = schur_cohn_form([c.conjugate() for c in a], Y)
    margin = float(np.linalg.eigvalsh(H)[0])
    return MembershipVerdict(margin > tol, margin, "schur_cohn",
                             indeterminate=abs(margin) <= tol)


def blaschke(lambdas: Sequence[complex], z: complex) -> complex:
    """Finite Blaschke product prod (z + lam_j) / (1 + conj(lam_j) z)."""
    out = 1.0 + 0j
    for lam in lambdas:
        lam = complex(lam)
        den = 1.0 + lam.conjugate() * z
        if abs(den) < 1e-14:
            raise PoleAtZ(f"evaluation point {z} hits a pole")
        out *= (z + lam) / den
    return out


def takenaka_malmquist(lambdas: Sequence[complex], j: int,
                       z: complex) -> complex:
    """j-th Takenaka-Malmquist function (1-based j):

        E_j(z) = sqrt(1-|lam_j|^2)/(1+conj(lam_j) z)
                 * prod_{k<j} (z+lam_k)/(1+conj(lam_k) z).

    These form an orthonormal family in the Hardy space of the disc.
    """
    lams = [complex(l) for l in lambdas]
    if not 1 <= j <= len(lams):
        raise ValueError(f"j={j} out of range 1..{len(lams)}")
    if any(abs(l) >= 1 for l in lams):
        raise ValueError("every |lambda| must be < 1")
    lam_j = lams[j - 1]
    den = 1.0 + lam_j.conjugate() * z
    if abs(den) < 1e-14:
        raise PoleAtZ(f"evaluation point {z} hits a pole")
    out = math.sqrt(1.0 - abs(lam_j) ** 2) / den
    out *= blaschke(lams[: j - 1], z)
    return out


def model_residual(lambdas: Sequence[complex], z: complex,
                   w: complex) -> float:
    """Defect of the model identity at (z, w):

        |(1 - conj(B(w)) B(z)) - sum_j conj(E_j(w)) (1 - conj(w) z) E_j(z)|

    with B the Blaschke product of the lambdas. Near zero for any
    lambdas in the open disc.
    """
    lams = [complex(l) for l in lambdas]
    lhs = 1.0 - blaschke(lams, w).conjugate() * blaschke(lams, z)
    rhs = 0j
    factor = 1.0 - complex(w).conjugate() * complex(z)
    for j in range(1, len(lams) + 1):
        rhs += (takenaka_malmquist(lams, j, w).conjugate() * factor
                * takenaka_malmquist(lams, j, z))
    return abs(lhs - rhs)


def tm_matrix(lambdas: Sequence[complex], j: int,
              Y: np.ndarray) -> np.ndarray:
    """E_j evaluated at a matrix argument by rational calculus.

    The inverses of I + conj(lam_k) Y exist because the spectrum of Y
    lies in the open disc.
    """
    lams = [complex(l) for l in lambdas]
    d = Y.shape[0]
    eye = np.eye(d)
    lam_j = lams[j - 1]
    out = math.sqrt(1.0 - abs(lam_j) ** 2) * np.linalg.solve(
        eye + lam_j.conjugate() * Y, eye)
    for k in range(j - 1):
        lam = lams[k]
        out = out @ np.linalg.solve(eye + lam.conjugate() * Y, Y + lam * eye)
    return out


def _lambdas_from_coeffs(coeffs: Sequence[complex]) -> list:
    """Recover the disc parameters lam_j from (a_1, ..., a_d): the roots
    of 1 + sum a_k z^k are -1/conj(lam_j). Vanishing top coefficients
    correspond to roots at infinity, i.e. lam_j = 0."""
    a = [complex(c) for c in coeffs]
    pol = polyform.as_poly([1.0] + a)
    lams = [0j] * (len(a) - pol.degree)
    if pol.degree >= 1:
        lams += [-1.0 / r.conjugate() for r in polyform.roots(pol).roots]
    return lams


def hermitian_form_tm(coeffs: Sequence[complex], Y: PtakYoungMatrix,
                      x: Sequence[complex]) -> float:
    """Quadratic value of the Schur-Cohn form through its model
    representation:

        sum_j < Q(Y)* E_j(Y)* (I - Y*Y) E_j(Y) Q(Y) x, x >

    which must agree with x* schur_cohn_form(...) x whenever the
    coefficients lie in G_d.
    """
    verdict = in_polydisc_roots(coeffs)
    if not verdict.inside:
        raise NotInPolydisc(
            f"coefficients outside G_d (margin {verdict.margin:.3e})")
    a = [complex(c) for c in coeffs]
    d = len(a)
    if Y.dim != d:
        raise DimensionMismatch(f"Y is {Y.dim}x{Y.dim}, need {d}")
    lams = _lambdas_from_coeffs(a)
    Ymat = Y.matrix
    QY = _matrix_poly([1.0] + a, Ymat)
    defect = np.eye(d) - Ymat.conj().T @ Ymat
    v = QY @ np.asarray(x, dtype=complex)
    total = 0.0
    for j in range(1, d + 1):
        wvec = tm_matrix(lams, j, Ymat) @ v
        total += float((wvec.conj() @ (defect @ wvec)).real)
    return total


def _orthonormal_complement(Q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(Q)
    (Q has orthonormal columns)."""
    n, r = Q.shape
    u, _, _ = np.linalg.svd(Q, full_matrices=True)
    return u[:, r:] if r < n else np.zeros((n, 0), dtype=complex)


def realization(Y: PtakYoungMatrix, lambdas: Sequence[complex],
                rank_tol: float = RANK_TOL,
                gram_tol: float = 1e-8) -> np.ndarray:
    """Extract the d x d^2 block H(Y) with

        || H(Y) u(Y) Q(Y) x ||^2 = ||Q(Y)x||^2 - ||P(Y)x||^2

    where u(Y) stacks E_1(Y), ..., E_d(Y), P(z) = prod (z + lam_j) and Q
    is its conjugate. The block is the top-right corner of a unitary
    extension of the isometry mapping (0, u(Y)z) to (y_z, (I ox Y)u(Y)z),
    obtained by completing orthonormal bases of the complements of the
    domain and range spans (rank tolerance ``rank_tol``).
    """
    lams = [complex(l) for l in lambdas]
    if any(abs(l) >= 1 for l in lams):
        raise NotInPolydisc("every |lambda| must be < 1")
    d = Y.dim
    if len(lams) != d:
        raise DimensionMismatch(f"{len(lams)} lambdas for a {d}x{d} matrix")
    Ymat = Y.matrix
    stack = np.vstack([tm_matrix(lams, j, Ymat) for j in range(1, d + 1)])
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
    if mismatch > gram_tol:
        raise RankDeficiency(
            f"Gramian mismatch {mismatch:.3e} exceeds tolerance {gram_tol}")

    pv, sv, rv = np.linalg.svd(V, full_matrices=False)
    keep = sv > rank_tol * (sv[0] if sv.size else 1.0)
    dom = pv[:, keep]
    ran = W @ (rv.conj().T[:, keep] / sv[keep])
    U = ran @ dom.conj().T
    U += _orthonormal_complement(ran) @ _orthonormal_complement(dom).conj().T
    return U[:d, d:]


def monic_coeffs(lambdas: Sequence[complex]) -> list:
    """Coefficients (c_1, ..., c_d) of P(z) = prod (z + lam_j) in the
    monic convention used by :func:`schur_cohn_form`."""
    return polyform.elementary_symmetric(lambdas)


def membership_certificate(coeffs: Sequence[complex],
                           betas: Sequence[complex] | None = None,
                           tol: float = MEMBERSHIP_TOL) -> Certificate:
    """Certificate combining both membership oracles.

    A decisive oracle settles the verdict (the Hermitian-form margin is
    legitimately ~0 not only on the boundary but also for reciprocal
    root pairs, where the root oracle still decides); when neither
    margin clears the tolerance the verdict is "boundary-indeterminate"
    (the coefficient region is open, so near-boundary inputs are
    flagged rather than silently decided), and conflicting decisive
    verdicts are likewise flagged instead of trusted.
    """
    rv = in_polydisc_roots(coeffs, tol=tol)
    sv = in_polydisc_schur_cohn(coeffs, betas, tol=tol)
    decisive = [v for v in (rv, sv) if not v.indeterminate]
    if not decisive or len({v.inside for v in decisive}) != 1:
        verdict: object = BOUNDARY_INDETERMINATE
    else:
        verdict = decisive[0].inside
    return Certificate(
        kind="polydisc",
        verdict=verdict,
        parameters={"d": len(list(coeffs)), "tolerance": tol},
        margins={"root_margin": rv.margin, "schur_cohn_margin": sv.margin},
        mode=ENVELOPE_RIGOROUS,
    )

"""Certifiers for dilated Weierstrass systems.

W_lam(x) = sqrt(2) sum_j lam^j sin(p^j pi x) has lacunary sine support,
so the dilation machinery reduces to geometric symbols in the shift
M_p. Two certified regimes for the dilation indices lam_n: region S0
(sup lam_n below 1/(2 p^alpha); plain Neumann smallness) and region S1
(p-periodic indices, lam_n = lam_{pn}, with sup below p^{-alpha}; a
degree-d structured part plus a geometric perturbation tail).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .certificate import ENVELOPE_RIGOROUS, Certificate
from .dilation import LacunaryGeometricProfile, section_rule
from .polyform import min_modulus_disc

REGION_S0 = "S0"
REGION_S1 = "S1"


@dataclass(frozen=True)
class WeierstrassSpec:
    """Family data: period base p, Sobolev exponent alpha, envelope
    mu = sup_n lam_n, and the targeted region. nu = mu p^alpha must lie
    in (0, 1) for the family to live in the alpha-scale at all."""

    p: int
    alpha: float
    mu: float
    region: str = REGION_S1

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be an integer >= 2")
        if self.p > sys.float_info.max:
            raise ValueError("p must not exceed the largest float")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")
        # nu < 1 as well: mu p^alpha can round up to 1 just below p^-alpha
        if not (0.0 < self.mu < self.p ** (-self.alpha) and self.nu < 1.0):
            raise ValueError("mu must lie in (0, p^-alpha)")
        if self.region not in (REGION_S0, REGION_S1):
            raise ValueError("region must be 'S0' or 'S1'")

    @property
    def nu(self) -> float:
        return self.mu * self.p ** self.alpha


def geometric_tail(nu: float, d: int) -> float:
    """Perturbation budget left after keeping degrees 1..d of a
    geometric family: sum_{l > d} nu^l = nu^{d+1} / (1 - nu)."""
    return nu ** (d + 1) / (1.0 - nu)


def truncated_symbol_floor(nu: float, d: int) -> float:
    """Uniform lower bound (1 - nu^{d+1}) / (1 + nu) for
    |1 + w z + ... + w^d z^d| over the closed disc, valid for every
    0 < w <= nu."""
    return (1.0 - nu ** (d + 1)) / (1.0 + nu)


def minimal_degree(nu: float) -> int:
    """Smallest d with geometric_tail(nu, d) < truncated_symbol_floor(nu, d).

    Exists for every nu < 1 since the tail tends to 0 while the floor
    tends to 1. Algebraically the condition reduces to
    2 nu^{d+1} < 1 - nu.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must lie in (0, 1)")
    d = 1
    while not geometric_tail(nu, d) < truncated_symbol_floor(nu, d):
        d += 1
    return d


def certify_S0(spec: WeierstrassSpec) -> Certificate:
    """Region S0: the coefficient-norm sum sum_{l>=1} nu^l = nu/(1-nu)
    is < 1 exactly when nu < 1/2, and then T is invertible by the
    Neumann series. Certified iff nu < 1/2."""
    nu = spec.nu
    coeff_sum = nu / (1.0 - nu)
    verdict = nu < 0.5
    return Certificate(
        kind="S0",
        verdict=verdict,
        parameters={"p": spec.p, "alpha": spec.alpha, "mu": spec.mu,
                    "region": REGION_S0,
                    "hypotheses": "sup of the indices below 1/(2 p^alpha)"},
        margins={"nu": nu, "coefficient_sum": coeff_sum,
                 "margin": 1.0 - coeff_sum},
        mode=ENVELOPE_RIGOROUS,
    )


def certify_S1(spec: WeierstrassSpec) -> Certificate:
    """Region S1 (p-periodic indices, nu < 1): find the minimal degree d
    whose geometric tail drops below the uniform symbol floor
    (1 - nu^{d+1}) / (1 + nu), a perturbation certificate by the Neumann
    series.

    The rigorous verdict rests on the (tail, floor) pair. The exact
    truncated symbol at the envelope parameter, minimised over the disc
    by the independent :func:`min_modulus_disc`, is reported alongside
    it to quantify the slack of the floor.
    """
    nu = spec.nu
    d = minimal_degree(nu)
    tail = geometric_tail(nu, d)
    floor = truncated_symbol_floor(nu, d)
    exact_symbol = min_modulus_disc([nu ** k for k in range(0, d + 1)])

    return Certificate(
        kind="S1",
        verdict=tail < floor,
        parameters={"p": spec.p, "alpha": spec.alpha, "mu": spec.mu,
                    "region": REGION_S1,
                    "hypotheses": "p-periodic indices (lam_n = lam_{pn}) "
                                  "with sup below p^-alpha"},
        margins={"nu": nu, "minimal_degree": float(d),
                 "tail_bound": tail, "symbol_floor": floor,
                 "margin": floor - tail,
                 "symbol_exact_at_envelope": exact_symbol,
                 "margin_exact": exact_symbol - tail},
        mode=ENVELOPE_RIGOROUS,
    )


def certify(spec: WeierstrassSpec) -> Certificate:
    return certify_S0(spec) if spec.region == REGION_S0 else certify_S1(spec)


def dirichlet_pole_abscissa(lam: float, p: int) -> float:
    """Real part log_p(lam) of the pole line of the constant-index
    symbol p^s / (p^s - lam); negative for lam < 1, which places every
    pole strictly left of the imaginary axis."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    return math.log(lam) / math.log(p)


def dirichlet_symbol(lam: float, p: int, s: complex) -> complex:
    """Meromorphic continuation p^s / (p^s - lam) of the lacunary
    Dirichlet series sum_j (lam / p^s)^j."""
    w = complex(p) ** complex(s)
    return w / (w - lam)


def cj_rule(lam_of_n: Callable[[int], float] | float, p: int,
            alpha: float) -> Callable:
    """Section coefficients c_j(n) = (lam_n p^alpha)^l when j = p^l
    (l >= 1), else 0, on int arrays j, n: the lacunary profile through
    :func:`dilation.section_rule`."""
    return section_rule(lambda lam: LacunaryGeometricProfile(lam, p, alpha),
                        lam_of_n, alpha)

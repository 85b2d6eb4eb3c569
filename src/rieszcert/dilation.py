"""Bridge from dilated function families to coefficient operators.

Functions on (0,1) are described by their sine-Fourier profiles
f_hat(j) (normalised so f_hat(1) = 1). In the Sobolev scale with
orthonormal basis h_n(x) = sqrt(2) sin(n pi x) / n^alpha, the dilations
g_n(x) = f_{s_n}(n x) / n^alpha expand as g_n = sum_j c_j(n) h_{jn} with
c_j(n) = j^alpha f_hat_{s_n}(j), which is exactly the data the
spread-shift machinery consumes.

A profile evaluates f_hat on int arrays only: ``coeffs(j)`` returns a
float array of the shape of j, zero where j < 1. The odd-mode profile
f_hat_q(2l+1) = (1-q) q^l / (1 - q^{2l+1}) has one array kernel,
:func:`odd_modes`. It feeds the finite sections here, the mode sums
s_alpha of the certificates and the stationary states u_n(x) =
A_n f_q(n x) in :mod:`gross_pitaevskii`, which are the dilation systems
phi(nx) of Hedenmalm, Lindqvist and Seip (Duke Math. J. 86, 1997).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .util import log_nome


class LacunaryGeometricProfile:
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

    def coeffs(self, j: np.ndarray) -> np.ndarray:
        """lam^v at the entries p^v, looked up in a table of the powers
        lam ** v taken in Python, so each value is the scalar power bit
        for bit."""
        j = np.asarray(j)
        powers, values = [1], [1.0]
        top = int(j.max(initial=0))
        while powers[-1] * self.p <= top:
            powers.append(powers[-1] * self.p)
            values.append(self.lam ** len(values))
        powers = np.array(powers)
        level = np.minimum(np.searchsorted(powers, j), len(powers) - 1)
        return np.where(powers[level] == j, np.array(values)[level], 0.0)


class OddModeProfile:
    """f_hat(2l+1) = (1-q) q^l / (1 - q^{2l+1}) on odd modes, zero on
    even ones; the natural profile of the soliton-like stationary states
    considered in the q-family module."""

    def __init__(self, q: float, alpha: float = 0.0):
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        self.q = float(q)
        self.alpha = float(alpha)

    def coeffs(self, j: np.ndarray) -> np.ndarray:
        """:func:`odd_modes` at the odd entries of j."""
        j = np.asarray(j)
        out = np.zeros(j.shape)
        odd = (j >= 1) & (j % 2 == 1)
        modes = j[odd]
        out[odd] = odd_modes(log_nome(self.q), 1.0 - self.q,
                             (modes - 1) // 2, modes)
        return out


def odd_modes(lq, one_minus_q, l: np.ndarray, modes: np.ndarray,
              weights: np.ndarray | None = None) -> np.ndarray:
    """w e^{l lq} (1-q) / (-expm1((2l+1) lq)), that is w f_hat_q(2l+1)
    of :class:`OddModeProfile` at lq = log q, for int or float arrays l
    and ``modes`` = 2l+1. ``lq`` and ``one_minus_q`` are floats, or
    columns against l that give one row per nome; ``weights`` w
    multiplies each term (and is skipped when None).

    Each operation runs in the order written, in place in two
    temporaries, so a row equals the one-nome call bit for bit. The
    denominator -expm1 keeps the ratio stable as q approaches 1; numpy's
    exp and expm1 may differ from the scalar libm values in the last
    bits.
    """
    out = np.multiply(l, lq)
    np.exp(out, out=out)
    if weights is not None:
        np.multiply(weights, out, out=out)
    out *= one_minus_q
    denominator = np.multiply(modes, lq)
    np.expm1(denominator, out=denominator)
    np.negative(denominator, out=denominator)
    out /= denominator
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


def _trajectory(profiles: Callable[[int], LacunaryGeometricProfile
                                    | OddModeProfile],
                alpha: float, j: np.ndarray, n: np.ndarray) -> np.ndarray:
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


def trajectory_coeffs(profiles: Callable[[int], LacunaryGeometricProfile
                                         | OddModeProfile],
                      alpha: float, j, n):
    """(n, n) entry of the diagonal coefficient operator C_j in the
    h-basis: c_j(n) = j^alpha f_hat_{s_n}(j). C_1 is the identity.

    ``j`` and ``n`` are ints or int arrays, broadcast against each
    other; the result is a float, or a float array of their shape.
    ``profiles`` is called once per distinct n, with a Python int, and
    each distinct profile it returns (by identity) evaluates all of its
    entries in one ``coeffs`` call.
    """
    j, n, shape = _flat(j, n)
    return _trajectory(profiles, alpha, j, n).reshape(shape)[()]


def section_rule(profile_of: Callable[[float], LacunaryGeometricProfile
                                      | OddModeProfile],
                 index: Callable[[int], float] | float,
                 alpha: float) -> Callable:
    """c_j(n) rule for finite sections of a family indexed by s_n:
    ``index`` gives s_n, either as a callable of n or as one constant,
    and ``profile_of(s)`` builds the profile at s.

    The rule takes j and n as ints or int arrays, as
    :func:`spread_toeplitz.finite_section` calls it, and is
    :func:`trajectory_coeffs` for j >= 2 and 0 at j = 1, since the
    section supplies the identity itself. A constant index is one
    profile, built here and evaluated in one ``coeffs`` call per rule
    call. A callable index is called once per distinct n, and one
    profile is built per distinct value it takes (kept for the later
    calls of the rule), so a p-periodic index table costs one coeffs
    call per table entry.
    """
    if callable(index):
        built = {}

        def profiles(n: int) -> LacunaryGeometricProfile | OddModeProfile:
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

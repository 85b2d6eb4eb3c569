"""Polynomial kernel: evaluation, roots, symmetric maps, the Schur-Cohn
zero test and disc minima."""

import itertools
import math

import numpy as np
import pytest

from rieszcert import polyform as pf
from rieszcert.gross_pitaevskii import OddModeProfile
from rieszcert.weierstrass import minimal_degree, truncated_symbol_floor


def test_eval_examples():
    assert pf.eval_poly([1], 2.3 + 1j) == 1
    assert pf.eval_poly([1, 0.5], -1) == 0.5
    assert pf.eval_poly([1, 0.3, 0.3], 1j) == pytest.approx(0.7 + 0.3j)


def test_eval_at_zero_is_constant_coefficient():
    assert pf.eval_poly([3.25 - 2j, 17, 4], 0.0) == 3.25 - 2j


def test_roots_difference_of_squares():
    rts = sorted(pf.roots([-1, 0, 1]).roots, key=lambda r: r.real)
    assert abs(rts[0] + 1) < 1e-10 and abs(rts[1] - 1) < 1e-10


def test_roots_double_root():
    rs = pf.roots([1, 1, 0.25])
    assert all(abs(r + 2) < 1e-5 for r in rs.roots)
    assert rs.residual <= 1e-12


def test_roots_conjugate_pair_modulus():
    rs = pf.roots([1, 0.3, 0.3])
    target = math.sqrt(10.0 / 3.0)
    assert all(abs(abs(r) - target) < 1e-10 for r in rs.roots)


def test_roots_requires_degree():
    with pytest.raises(ValueError):
        pf.roots([2.0])


def test_roots_zero_constant_coefficient():
    rts = pf.roots([0, 0, 1, 1]).roots
    assert sorted(abs(r) for r in rts) == pytest.approx([0, 0, 1], abs=1e-12)


def test_roots_graded_coefficients():
    # magnitudes spread over many decades; Newton-polygon start points
    rts = sorted(abs(r) for r in pf.roots([1, 1e-9, 1e-36]).roots)
    assert rts[0] == pytest.approx(1e9, rel=1e-6)
    assert rts[1] == pytest.approx(1e27, rel=1e-6)


def test_elementary_symmetric_examples():
    l1, l2 = 0.3 + 0.1j, -0.7j
    assert pf.elementary_symmetric([l1, l2]) == [l1 + l2, l1 * l2]
    assert pf.elementary_symmetric([0, 0, 0]) == [0, 0, 0]
    assert pf.elementary_symmetric([0.5, 0.5]) == [1.0, 0.25]
    assert pf.elementary_symmetric([]) == []


def test_root_recovery_roundtrip():
    # prod (z + lam_j) must give back {-lam_j} to 1e-8 after pairing
    rng = np.random.default_rng(101)
    for _ in range(120):
        d = int(rng.integers(1, 7))
        lam = rng.uniform(0, 0.98, d) * np.exp(2j * np.pi * rng.uniform(0, 1, d))
        coeffs = list(reversed(pf.elementary_symmetric(lam))) + [1.0]
        recovered = [-r for r in pf.roots(coeffs).roots]
        best = min(
            max(abs(np.asarray(perm) - lam))
            for perm in itertools.permutations(recovered))
        assert best < 1e-8


def test_conjugate_poly_examples():
    assert pf.conjugate_poly([0.25, 1, 1]).coeffs == (1, 1, 0.25)
    assert pf.conjugate_poly([2.5]).coeffs == (2.5,)
    assert pf.conjugate_poly([1j, 1]).coeffs == (1, -1j)


def test_conjugate_poly_involution():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(0, 6))
        c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        c[0] += 3.0  # keep constant and leading coefficients nonzero
        c[-1] += 3.0
        p = pf.Polynomial(tuple(c))
        assert pf.conjugate_poly(pf.conjugate_poly(p)).coeffs == p.coeffs


def test_leading_zero_rejected_unless_padded():
    with pytest.raises(ValueError):
        pf.Polynomial((1.0, 0.0))
    padded = pf.Polynomial((1.0, 0.5, 0.0), padded=True)
    assert padded.trimmed().coeffs == (1.0, 0.5)


def test_min_modulus_examples():
    assert pf.min_modulus_disc([1]) == 1.0
    assert pf.min_modulus_disc([1, 0.5]) == pytest.approx(0.5, abs=1e-12)
    assert pf.min_modulus_disc([1, 0.3, 0.3]) == pytest.approx(
        0.673238442158, abs=1e-9)


def test_min_modulus_zero_with_root_in_disc():
    assert pf.min_modulus_disc([1, 2.5, 1]) == 0.0  # root at -1/2
    assert pf.min_modulus_disc([1, 1]) == 0.0  # root on the circle


def test_min_modulus_is_lower_bound_on_disc():
    rng = np.random.default_rng(42)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        c[-1] += 2.0
        m = pf.min_modulus_disc(tuple(c))
        z = (rng.uniform(0, 1, 1000) ** 0.5
             * np.exp(2j * np.pi * rng.uniform(0, 1, 1000)))
        vals = np.abs(np.polyval(np.asarray(c)[::-1], z))
        assert m <= vals.min() + 1e-9


def test_min_modulus_rotation_invariance():
    # substituting z -> e^{i theta} z rotates coefficients, same minimum
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        c[-1] += 2.0
        theta = rng.uniform(0, 2 * np.pi)
        rotated = [c[k] * np.exp(1j * k * theta) for k in range(d + 1)]
        assert pf.min_modulus_disc(tuple(c)) == pytest.approx(
            pf.min_modulus_disc(tuple(rotated)), abs=1e-9)


def test_zero_free_disc_agrees_with_numpy_roots():
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 3000:
        d = int(rng.integers(1, 9))
        c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        # graded coefficients move the root moduli towards and past 1
        c *= rng.uniform(0.3, 3.0) ** np.arange(d + 1)
        smallest = float(np.abs(np.roots(c[::-1])).min())
        if abs(smallest - 1.0) <= 1e-6:
            continue
        checked += 1
        assert pf.zero_free_disc(c) == (smallest > 1.0), c


def test_zero_free_disc_simple_root_near_the_circle():
    # one root at modulus 1 +- eps, eps from 1e-8 to 1e-2, the others
    # in the annulus 0.3 <= |z| <= 3: the decision is known exactly
    rng = np.random.default_rng(1729)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        eps = 10.0 ** rng.uniform(-8.0, -2.0)
        mods = np.append(1.0 + eps * rng.choice((-1.0, 1.0)),
                         rng.uniform(0.3, 3.0, d - 1))
        c = np.poly(mods * np.exp(2j * np.pi * rng.uniform(0, 1, d)))[::-1]
        assert pf.zero_free_disc(c) == bool(mods.min() > 1.0), mods


def test_zero_free_disc_roots_on_and_inside_the_circle():
    assert not pf.zero_free_disc([1, 1])  # root at -1
    assert not pf.zero_free_disc([1, 0, 1])  # roots at +-i
    assert not pf.zero_free_disc([1, 2.5, 1])  # root at -1/2
    assert not pf.zero_free_disc([0, 1, 3])  # root at 0
    assert pf.zero_free_disc([1, 0.3, 0.3])


def test_zero_free_disc_degenerate_inputs():
    assert pf.zero_free_disc([2.5])
    assert pf.zero_free_disc([-1j])
    assert not pf.zero_free_disc([0])
    assert not pf.zero_free_disc([0, 0, 0])
    # vanishing top coefficients are roots at infinity
    assert pf.zero_free_disc([1, 0.5, 0, 0])  # root at -2
    assert not pf.zero_free_disc([1, 2, 0])  # root at -1/2


def test_zero_free_disc_radius():
    assert pf.zero_free_disc([1, 0.5], 1.999)
    assert not pf.zero_free_disc([1, 0.5], 2.0)
    assert not pf.zero_free_disc([1, 0.5], 2.001)
    # 1 + 1e-300 z has its root at -1e300; the radius is taken in log space
    assert pf.zero_free_disc([1, 1e-300], 1e299)
    assert not pf.zero_free_disc([1, 1e-300], 1e301)


# the pinned S1 band nu = mu p^alpha of the certify-mix benchmark, with
# the minimal degrees 227 .. 527 of weierstrass.minimal_degree
S1_BAND = (0.98, 0.981, 0.982, 0.983, 0.984, 0.985, 0.986, 0.988, 0.99)


@pytest.mark.parametrize("nu", S1_BAND)
def test_truncated_geometric_symbol_closed_form(nu):
    # sum_{k<=d} (nu z)^k = (1 - (nu z)^{d+1}) / (1 - nu z) has its roots
    # at nu^-1 e^{2 pi i k/(d+1)}, k = 1..d: all on the circle |z| = 1/nu
    d = minimal_degree(nu)
    c = [nu ** k for k in range(d + 1)]
    assert pf.zero_free_disc(c, 1.0 + pf.BOUNDARY_TOL)
    assert pf.zero_free_disc(c, (1.0 - 1e-6) / nu)
    assert not pf.zero_free_disc(c, (1.0 + 1e-6) / nu)
    if d % 2 == 1:
        # at odd d the circle minimum sits at z = -1
        assert pf.min_modulus_disc(c) == pytest.approx(
            truncated_symbol_floor(nu, d), rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("degree", range(3, 9))
def test_gp_weights_spread_over_hundreds_of_decades(degree):
    # the weights p^{k alpha} coeff(p^k) run 1.7e-2, 5.9e-28, 1.4e-219
    # and then underflow to 0
    p, alpha = 7, 2.6253512273463824
    profile = OddModeProfile(0.048017423417903715, alpha)
    w = [float(p) ** (k * alpha) * profile.coeff(p ** k)
         for k in range(1, degree + 1)]
    assert 1e-220 < w[2] < 1e-218
    assert pf.zero_free_disc([1.0] + w)
    assert pf.min_modulus_disc([1.0] + w) == pytest.approx(
        1.0 - w[0] + w[1], rel=1e-12)

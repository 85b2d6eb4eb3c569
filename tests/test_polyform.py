"""Polynomial kernel: evaluation, roots, symmetric maps, the Schur-Cohn
zero test and disc minima."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszcert import polyform as pf
from rieszcert import util
from rieszcert.gross_pitaevskii import structured_weight
from rieszcert.weierstrass import (WeierstrassSpec, minimal_degree,
                                   truncated_symbol_floor)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=300)


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


def test_roots_linear_and_tiny_leading_coefficients():
    # a linear factor starts at its closed-form root, so one past 1e300,
    # where the iteration's guard on |p'| would stall, is found too
    assert pf.roots([1, 1e-305]).roots == (-1e305 + 0j,)
    # a subnormal leading coefficient: no overflow warning on the way
    rts = pf.roots([1, 1e-160, 1e-320]).roots
    assert [abs(r) for r in rts] == pytest.approx([1e160, 1e160], rel=1e-3)


@pytest.mark.filterwarnings("error")
def test_roots_raise_nothing_at_a_coefficient_past_the_float_range():
    # abs() of a Python complex past the float range raises
    # OverflowError, where numpy's abs gave inf; the iteration takes inf
    big = complex(1.5e308, 1.5e308)
    for coeffs in ([1, big], [1, 1, big], [big, 1, 1e-300]):
        assert len(pf.roots(coeffs).roots) == len(coeffs) - 1
    # halving zeroes a subnormal constant term: a zero root, as -c_0 / c_1
    # rounds to 0 (the halving came after the zero-root split, and the
    # Newton polygon then gave no starting point)
    assert pf.roots([5e-324, big]).roots == (0j,)


def test_roots_make_no_numpy_polyval_call(monkeypatch):
    # the iteration runs on Python complex scalars
    def refuse(*args, **kwargs):
        raise AssertionError("np.polyval called")

    monkeypatch.setattr(np, "polyval", refuse)
    rts = sorted(pf.roots([-6, 11, -6, 1]).roots, key=lambda r: r.real)
    assert rts == pytest.approx([1, 2, 3], abs=1e-12)
    assert pf.roots([1, 1e-305]).roots == (-1e305 + 0j,)


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


def test_leading_zero_rejected_and_trimmed_by_as_poly():
    with pytest.raises(ValueError):
        pf.Polynomial((1.0, 0.0))
    assert pf.as_poly((1.0, 0.5, 0.0)).coeffs == (1.0, 0.5)


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
    # the weights p^{k alpha} f_hat(p^k) run 1.7e-2, 5.9e-28, 1.4e-219
    # and then underflow to 0
    p, alpha = 7, 2.6253512273463824
    w = [structured_weight(0.048017423417903715, alpha, p, k)
         for k in range(1, degree + 1)]
    assert 1e-220 < w[2] < 1e-218
    assert pf.zero_free_disc([1.0] + w)
    assert pf.min_modulus_disc([1.0] + w) == pytest.approx(
        1.0 - w[0] + w[1], rel=1e-12)


def reference_zero_free_disc(coeffs, radius):
    """zero_free_disc spelled out plainly: the recursion in complex
    arithmetic, each step a new array renormalised by a division."""
    c = np.asarray(coeffs, dtype=complex)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c)) + np.arange(c.size) * math.log(radius)
    if logs.max() == -math.inf:
        return False
    c = np.exp(logs - logs.max() + 1j * np.angle(c))
    while c.size > 1:
        c = (c[0].conjugate() * c - c[-1] * c[::-1].conj())[:-1]
        if not c[0].real > 0.0:
            return False
        c = c / np.abs(c).max()
    return bool(c[0] != 0)


def reference_min_modulus(coeffs):
    """min_modulus_disc as it was before the FFT grid and the Newton
    steps: np.polyval at the CIRCLE_ANGLES angles, then golden_min on
    the grid cell around each of the three least local minima, and the
    least of all these values."""
    pol = pf.as_poly(coeffs)
    if pol.degree == 0:
        return abs(pol.coeffs[0])
    if not reference_zero_free_disc(pol.coeffs, 1.0 + pf.BOUNDARY_TOL):
        return 0.0
    crev = np.asarray(pol.coeffs[::-1], dtype=complex)
    theta = 2.0 * np.pi * np.arange(pf.CIRCLE_ANGLES) / pf.CIRCLE_ANGLES
    vals = np.abs(np.polyval(crev, np.exp(1j * theta)))
    local = np.flatnonzero((vals <= np.roll(vals, 1))
                           & (vals <= np.roll(vals, -1)))
    order = local[np.argsort(vals[local])][:3]

    def f(t):
        return abs(pf.eval_poly(pol, complex(math.cos(t), math.sin(t))))

    step = 2.0 * np.pi / pf.CIRCLE_ANGLES
    best = float(vals.min())
    for idx in order:
        best = min(best, util.golden_min(f, theta[idx] - step,
                                         theta[idx] + step)[1])
    return best


def assert_matches_reference(coeffs, rounding=0.0):
    """Same zero decision as the reference, the same value to 1e-13
    relative, and never above it by more than 1e-14 relative, each up to
    an absolute allowance ``rounding`` for the rounding of both values."""
    got, ref = pf.min_modulus_disc(coeffs), reference_min_modulus(coeffs)
    assert (got == 0.0) == (ref == 0.0), (got, ref)
    if ref:
        assert abs(got - ref) <= 1e-13 * ref + rounding, (got, ref)
        assert got - ref <= 1e-14 * ref + rounding, (got, ref)


def horner_rounding(coeffs):
    """Twice gamma_{4d} sum_k |c_k|: Horner's a priori error bound on p(z)
    at |z| = 1 is gamma_{2d} sum_k |c_k| in real arithmetic (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, eq. (5.3)), and
    a complex product rounds about twice as much. Near a zero of p, where
    sum_k |c_k| / |p| is large, the two kernels' values differ by this
    much whatever points they evaluate."""
    pol = pf.as_poly(coeffs)
    u = 2.0 ** -53
    return 8.0 * pol.degree * u * sum(abs(c) for c in pol.coeffs)


COEFF = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def disc_polynomials(draw, entry):
    """Degree 1-12 with the constant term s sum_{k>=1} |c_k|, s in
    [1/2, 2]: zero-free on the disc for s > 1 by Rouche's theorem, with
    or without zeros there below."""
    tail = draw(st.lists(entry, min_size=1, max_size=12))
    scale = draw(st.floats(0.5, 2.0))
    return [scale * (sum(abs(c) for c in tail) or 1.0)] + tail


@PROPERTY
@given(disc_polynomials(COEFF))
def test_min_modulus_matches_reference_real(coeffs):
    assert_matches_reference(coeffs, horner_rounding(coeffs))


@PROPERTY
@given(disc_polynomials(st.builds(complex, COEFF, COEFF)))
def test_min_modulus_matches_reference_complex(coeffs):
    assert_matches_reference(coeffs, horner_rounding(coeffs))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.one_of(st.floats(0.0, 0.99, exclude_min=True),
                 st.floats(0.9, 0.99)))
def test_min_modulus_matches_reference_S1_symbol(nu):
    assert_matches_reference([nu ** k for k in range(minimal_degree(nu) + 1)])


@pytest.mark.parametrize("scale", (1e-300, 1e160, 1e200, 1e299))
def test_min_modulus_far_from_unit_scale(scale):
    # |p'|^2 and the other products of a Newton step underflow or
    # overflow here, so golden_min takes over, as at the reference
    coeffs = [scale * c for c in (1.0, 0.3, 0.1, 0.02)]
    assert_matches_reference(coeffs)
    assert pf.min_modulus_disc(coeffs) == pytest.approx(0.78 * scale,
                                                        rel=1e-13)


@pytest.mark.parametrize("nu", (1 / math.sqrt(2), 0.95, 0.98, 0.99, 0.999))
def test_S1_symbol_minimum_closed_form(nu):
    # on the circle, |sum_{k<=d} nu^k z^k| = |1 - (nu z)^{d+1}| / |1 - nu z|
    # is at least (1 - nu^{d+1}) / (1 + nu), with equality at z = -1 when
    # d + 1 is even. Degree 7597 at nu = 0.999 exceeds CIRCLE_ANGLES, so
    # the grid comes from the folded coefficients there.
    d = minimal_degree(nu)
    assert d % 2 == 1
    c = [nu ** k for k in range(d + 1)]
    assert pf.min_modulus_disc(c) == pytest.approx(
        truncated_symbol_floor(nu, d), rel=1e-13)
    # one degree more, an odd number d + 2 of terms: the minimum lies
    # between (1 - nu^{d+2}) / (1 + nu) and p(-1) = (1 + nu^{d+2}) / (1 + nu)
    c.append(nu ** (d + 1))
    low, high = ((1.0 + s * nu ** (d + 2)) / (1.0 + nu) for s in (-1, 1))
    m = pf.min_modulus_disc(c)
    assert low * (1.0 - 1e-13) <= m <= high * (1.0 + 1e-13)


PINNED = json.loads((Path(__file__).parent / "data"
                     / "pinned_certificates.json").read_text())


def _pinned_symbols():
    """The S1 band and the Td grid of pinned_certificates.json as the
    polynomials their certificates minimise."""
    for p, alpha, mu in (row["args"] for row in PINNED["s1_band"]):
        nu = WeierstrassSpec(p=p, alpha=alpha, mu=mu).nu
        yield [nu ** k for k in range(minimal_degree(nu) + 1)]
    for q, alpha, p, degree in (row["args"] for row in PINNED["td"]):
        yield [1.0] + [structured_weight(q, alpha, p, k)
                       for k in range(1, degree + 1)]


def _count_kernel_work(monkeypatch):
    """Counters of Horner passes and golden-section fallbacks inside
    min_modulus_disc."""
    counts = {"passes": 0, "fallbacks": 0}
    horner, golden = pf._horner2, pf.golden_min

    def counted_horner(*args):
        counts["passes"] += 1
        return horner(*args)

    def counted_golden(*args):
        counts["fallbacks"] += 1
        return golden(*args)

    monkeypatch.setattr(pf, "_horner2", counted_horner)
    monkeypatch.setattr(pf, "golden_min", counted_golden)
    return counts


def test_newton_passes_on_pinned_symbols(monkeypatch):
    counts = _count_kernel_work(monkeypatch)
    passes = []
    for coeffs in _pinned_symbols():
        counts["passes"] = 0
        pf.min_modulus_disc(coeffs)
        passes.append(counts["passes"])
    assert len(passes) == len(PINNED["s1_band"]) + len(PINNED["td"])
    assert counts["fallbacks"] == 0
    assert sum(passes) / len(passes) <= 8 and max(passes) <= 27


# 1 + (2/3) z + z^2 / 5 has phi''(pi) = 0: the minimum 8/15 at z = -1 is
# quartic, where Newton's steps shrink by only 2/3 each. The rotation
# z -> e^{i 5e-4} z moves it off the grid.
FLAT_MINIMUM = tuple(c * complex(math.cos(5e-4 * k), math.sin(5e-4 * k))
                     for k, c in enumerate((1.0, 2.0 / 3.0, 0.2)))


def test_flat_minimum_takes_golden_fallback(monkeypatch):
    counts = _count_kernel_work(monkeypatch)
    got = pf.min_modulus_disc(FLAT_MINIMUM)
    assert counts["fallbacks"] >= 1
    assert got == pytest.approx(8.0 / 15.0, rel=1e-13)
    assert_matches_reference(FLAT_MINIMUM)

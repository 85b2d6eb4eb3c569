"""Polydisc membership oracles and the model machinery."""

import math

import numpy as np
import pytest

from rieszcert import cli
from rieszcert import polydisc as pd
from rieszcert import polyform as pf
from rieszcert.errors import (DimensionMismatch, InvalidBeta, NonConvergence,
                              NotInPolydisc, PoleAtZ)


def _random_disc(rng, d, radius=0.95):
    r = radius * np.sqrt(rng.uniform(0, 1, d))
    return r * np.exp(2j * np.pi * rng.uniform(0, 1, d))


def _boundary_coeffs(rng, d):
    """(a_1, ..., a_d) of 1 + sum a_k z^k with one root at modulus
    1 +- eps, eps log-uniform in [1e-9, 1e-2], and the others anywhere
    in the annulus 0.3 <= |z| <= 3."""
    eps = 10.0 ** rng.uniform(-9.0, -2.0)
    mods = [1.0 + (eps if rng.random() < 0.5 else -eps)]
    mods += list(rng.uniform(0.3, 3.0, d - 1))
    asc = np.poly(np.asarray(mods) * np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
    asc = asc[::-1] / asc[-1]
    return [complex(x) for x in asc[1:]]


def _membership_draw(rng, i):
    """Draw i of the membership mix: every 8th near the boundary of
    G_d, the others from ``appendix-verify`` (uniform in [-2, 2]^2,
    clipped to modulus 2), at d = 2..8."""
    d = 2 + i % 7
    if i % 8 == 7:
        return _boundary_coeffs(rng, d)
    return [complex(x) for x in cli._random_coeffs(rng, d)]


def _at_baseline_dispatch():
    """Whether numpy runs every SIMD loop at its baseline: there no
    complex multiply is fused, so array arithmetic takes the floats of
    scalar arithmetic."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:              # numpy < 2
        from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                                  __cpu_features__)
    return not any(__cpu_features__.get(f) for f in __cpu_dispatch__)


def _assert_same_floats(got, want, atol):
    """Bit for bit at numpy's baseline dispatch; above it, within
    ``atol``, since numpy's fused complex multiply rounds differently
    from scalar arithmetic."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if _at_baseline_dispatch():
        assert got.tobytes() == want.tobytes()
    else:
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.abs(np.nan_to_num(got - want)).max(initial=0.0) <= atol


# ---------------------------------------------------------------------------
# Ptak-Young matrices

def test_ptak_young_scalar():
    Y = pd.ptak_young([0.5])
    assert Y.matrix.shape == (1, 1) and Y.matrix[0, 0] == 0.5


def test_ptak_young_explicit_2x2():
    Y = pd.ptak_young([0.0, 0.5]).matrix
    expected = np.array([[0.0, math.sqrt(0.75)], [0.0, 0.5]])
    assert np.abs(Y - expected).max() < 1e-15


def test_ptak_young_invariants():
    # contraction with rank-one defect; the norm equals 1 exactly for
    # d >= 2 (the defect leaves a subspace on which Y is isometric), so
    # the testable bound is sigma_max <= 1 + eps
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 5, 8):
        for _ in range(5):
            betas = _random_disc(rng, d, 0.9)
            Y = pd.ptak_young(betas)
            sv = np.linalg.svd(Y.matrix, compute_uv=False)
            assert sv.max() <= 1.0 + 1e-12
            if d >= 2:
                assert sv.max() == pytest.approx(1.0, abs=1e-12)
            defect_eigs = np.linalg.eigvalsh(
                np.eye(d) - Y.matrix.conj().T @ Y.matrix)
            assert np.sum(np.abs(defect_eigs) > 1e-10) == 1
            spec = sorted(np.linalg.eigvals(Y.matrix), key=lambda z: z.real)
            ref = sorted(betas, key=lambda z: z.real)
            assert np.abs(np.asarray(spec) - np.asarray(ref)).max() < 1e-10


def _ptak_young_reference(betas):
    """Y by a double loop over the entries, in Python complex floats."""
    bs = [complex(b) for b in betas]
    d = len(bs)
    s = [math.sqrt(1.0 - abs(b) ** 2) for b in bs]
    Y = np.zeros((d, d), dtype=complex)
    for j in range(d):
        Y[j, j] = bs[j]
        prod = 1.0 + 0j
        for k in range(j + 1, d):
            Y[j, k] = s[j] * prod * s[k]
            prod *= -bs[k].conjugate()
    return Y


@pytest.mark.parametrize("d", range(1, 9))
def test_ptak_young_stack_matches_the_double_loop(d):
    # each matrix of a (4, 25, d) stack of betas, and each built alone,
    # against the double loop; the default matrix keeps its bytes at any
    # dispatch: its betas are real, so no fused complex multiply enters
    rng = np.random.default_rng(300 + d)
    betas = _random_disc(rng, (4, 25, d), 0.9)
    stack = pd.ptak_young(betas)
    assert stack.matrix.shape == (4, 25, d, d) and stack.dim == d
    want = np.array([[_ptak_young_reference(b) for b in row] for row in betas])
    _assert_same_floats(stack.matrix, want, atol=16 * np.finfo(float).eps)
    for b, Y in zip(betas[0], want[0]):
        _assert_same_floats(pd.ptak_young(b).matrix, Y,
                            atol=16 * np.finfo(float).eps)
    assert (pd._default_ptak_young(d).matrix.tobytes()
            == _ptak_young_reference([pd.DEFAULT_BETA] * d).tobytes())


def test_ptak_young_rejects_boundary_beta():
    with pytest.raises(InvalidBeta):
        pd.ptak_young([0.5, 1.0])
    with pytest.raises(InvalidBeta):
        pd.ptak_young([1 - 1e-13])
    # a nan fails every comparison, so it lies in no disc
    for beta in (math.nan, complex(math.nan, 0)):
        with pytest.raises(InvalidBeta):
            pd.ptak_young([beta])


def test_ptak_young_stack_rejects_one_beta_off_the_disc():
    betas = np.full((3, 4, 2), 0.5 + 0j)
    for bad in (1.0, 1j, math.nan):
        betas[2, 1, 0] = bad
        with pytest.raises(InvalidBeta):
            pd.ptak_young(betas)
    with pytest.raises(InvalidBeta):
        pd.ptak_young(np.zeros((3, 0)))


# ---------------------------------------------------------------------------
# membership oracles

def test_root_oracle_examples():
    assert pd.in_polydisc_roots([0, 0]).inside
    assert pd.in_polydisc_roots([0, 0]).margin == math.inf
    v = pd.in_polydisc_roots([0.3, 0.3])
    assert v.inside and v.margin == pytest.approx(
        math.sqrt(10 / 3) - 1, abs=1e-10)
    assert not pd.in_polydisc_roots([2.5, 1]).inside


def test_root_oracle_roots_past_the_float_range():
    # the root of 1 + a z lies at -1/a, past the float range for a
    # below 1/max; Fujiwara's bound sees that without the root finder
    for coeffs in ([5e-324], [5e-324, 0.0], [1e-310, 0.0, 0.0]):
        v = pd.in_polydisc_roots(coeffs)
        assert v.inside and v.margin == math.inf and not v.indeterminate
    # just inside the float range the root is found
    v = pd.in_polydisc_roots([6e-309])
    assert v.inside and v.margin == pytest.approx(1 / 6e-309, rel=1e-12)
    v = pd.in_polydisc_roots([1e-310, 1e-320])
    assert v.inside and v.margin == pytest.approx(1e160, rel=1e-3)


def test_roots_of_a_coefficient_modulus_past_the_float_range():
    # |c_1| = 2.1e308: the majorant sum |c_k| |z|^k was inf, so the
    # starting point 9.2e-305 + 3.6e-305j passed with residual 0, and
    # the Fujiwara bound of the root oracle raised OverflowError. The
    # coefficients are halved, and the root is -1 / c_1
    big = complex(1.5e308, 1.5e308)
    (root,) = pf.roots([1, big]).roots
    assert root == pytest.approx(complex(-0.5 / 1.5e308, 0.5 / 1.5e308),
                                 rel=1e-11, abs=0.0)
    for coeffs in ([big], [0.5, big]):
        v = pd.in_polydisc_roots(coeffs)
        assert (v.inside, v.indeterminate) == (False, False)
        assert v.margin == pytest.approx(-1.0, abs=1e-300)
    (root,) = pf.roots([1, 1e308]).roots
    assert root == pytest.approx(-1e-308, rel=1e-11, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_root_oracle_deflates_beside_a_modulus_past_the_float_range():
    # 1 + c z + z^2, |c| = 2.1e308: sum |c_i| was inf, so no radius kept
    # Horner's sums finite, nothing was deflated, and the margin was nan.
    # The Pellet test at R = 2^53 keeps the root near -1 / c, inside
    big = complex(1.5e308, 1.5e308)
    assert pd.in_polydisc_roots([big, 1]) == pd.MembershipVerdict(
        False, -1.0, indeterminate=False)
    (root,) = pf.roots([1.0, big]).roots
    assert 0.0 < abs(root) < 1e-308
    # the Schur-Cohn form still overflows there
    cert = pd.membership_certificate([big, 1])
    assert cert.verdict is False
    assert math.isnan(cert.margins["schur_cohn_margin"])
    # a part that is not finite deflates nothing, as before
    for coeffs in ([complex(math.inf, 0.0), 1], [complex(math.nan, 0.0), 1]):
        assert pd._deflated_degree(pf.as_poly([1.0] + coeffs)) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs, inside, indeterminate", [
    ([1.0, 1e-320], False, True),       # roots -1 and about -1e320
    ([0.5, 1e-320], True, False),       # roots -2 and about -5e319
    ([3.0, 1e-320], False, False),      # roots -1/3 and about -3e320
    ([0.5, 0.1, 1e-310], True, False),  # |z| = sqrt(10) twice, and -1e309
])
def test_root_oracle_some_roots_past_the_float_range(coeffs, inside,
                                                     indeterminate):
    # only some roots lie past the float range: they are deflated, and
    # the verdict on the others is the Schur-Cohn oracle's
    v = pd.in_polydisc_roots(coeffs)
    sc = pd.in_polydisc_schur_cohn(coeffs)
    assert (v.inside, v.indeterminate) == (inside, indeterminate)
    assert (sc.inside, sc.indeterminate) == (inside, indeterminate)
    assert math.isfinite(v.margin)   # not the all-past-range short cut


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [
    [0.5, 0.1, 1e-309], [0.5, 0.1, 1e-250], [0.5, 0.1, 1e-200],
    [0.5, 0.1, 1e-150],
    # the radius where Horner's sums can overflow is about 4.8e102 here,
    # and the root near -0.1 / c_3 crosses it
    [0.5, 0.1, 5e-105], [0.5, 0.1, 1e-104], [0.5, 0.1, 2e-104],
    [0.5, 0.1, 1e-100], [0.5, 0.1, 0.01, 1e-250], [3.0, 0.1, 1e-309],
])
def test_root_oracle_one_root_past_the_horner_radius(coeffs):
    # one root lies inside the float range but far past the others; the
    # root finder's Horner sums overflowed near it, and the oracle said
    # outside with margin nan against Schur-Cohn's decisive verdict
    v = pd.in_polydisc_roots(coeffs)
    sc = pd.in_polydisc_schur_cohn(coeffs)
    assert math.isfinite(v.margin)
    assert (v.inside, v.indeterminate) == (sc.inside, sc.indeterminate)
    assert not sc.indeterminate
    assert pd.membership_certificate(coeffs).verdict is sc.inside


def test_root_oracle_non_finite_margin_is_indeterminate(monkeypatch):
    for z in (complex(math.nan, 0.0), complex(math.inf, 0.0)):
        monkeypatch.setattr(pd.polyform, "roots",
                            lambda c, z=z: pd.polyform.RootSet((z,), 0.0))
        assert pd.in_polydisc_roots([0.5]).indeterminate


def test_root_oracle_indeterminate_near_a_double_root():
    # 1 + a z + b z^2 = (1 + z/r)^2: the true margin r - 1 = 3e-7 is far
    # above the tolerance, but a computed double root is off by about
    # sqrt(eps) |z|, so the margin's sign is not decided
    r = 1.0 + 3e-7
    v = pd.in_polydisc_roots((2.0 / r, 1.0 / r ** 2))
    assert v.indeterminate and abs(v.margin) < 1e-6
    cert = pd.membership_certificate((2.0 / r, 1.0 / r ** 2))
    assert cert.verdict == "boundary-indeterminate"
    # a simple root at the same distance stays decisive
    assert not pd.in_polydisc_roots((1.0 / r,)).indeterminate


def test_roots_match_mpmath_polyroots():
    # every computed root of 1 + sum a_k z^k lies within
    # max(1e-11 max(1, |z|), d |p(z) / p'(z)|) of a 50-digit root, and
    # every 50-digit root within that radius of a computed root
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(30)
    for d in range(2, 9):
        for draw in range(24):
            coeffs = [1.0 + 0j] + (
                _boundary_coeffs(rng, d) if draw % 2
                else [complex(x) for x in cli._random_coeffs(rng, d)])
            got = pf.roots(coeffs).roots
            with mpmath.workdps(50):
                desc = [mpmath.mpc(c) for c in reversed(coeffs)]
                want = mpmath.polyroots(desc, maxsteps=200, extraprec=100)
                radii = []
                for z in got:
                    pz = mpmath.polyval(desc, mpmath.mpc(z), derivative=True)
                    newton = float(d * abs(pz[0] / pz[1]))
                    radii.append(max(1e-11 * max(1.0, abs(z)), newton))
                dist = [[float(abs(w - mpmath.mpc(z))) for w in want]
                        for z in got]
            for i in range(d):
                assert min(dist[i]) <= radii[i], (coeffs, got[i])
                assert min(dist[k][i] - radii[k] for k in range(d)) <= 0.0


def _numpy_roots(p):
    """The Aberth iteration of :func:`polyform.roots` spelled with numpy
    arrays and ``np.polyval``, a reference for the scalar one (without
    the zero-root split and the linear start, which no draw here needs)."""
    pol = pf.as_poly(p)
    d = pol.degree
    c = np.asarray(pol.coeffs, dtype=complex)
    dc = c[1:] * np.arange(1, d + 1)
    crev, dcrev = c[::-1], dc[::-1]
    cabs = np.abs(crev)
    z = np.asarray(pf._initial_points(pol.coeffs), dtype=complex)
    converged = False
    for _ in range(pf.ROOT_MAX_ITER):
        pv = np.polyval(crev, z)
        major = np.polyval(cabs, np.abs(z))
        if float((np.abs(pv) / major).max()) <= pf.ROOT_TOL:
            converged = True
            break
        dv = np.polyval(dcrev, z)
        dv = np.where(np.abs(dv) < 1e-300, 1e-300, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = (1.0 / diff).sum(axis=1) - 1.0
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        corr = w / denom
        z = z - corr
        if bool((np.abs(corr) <= pf.ROOT_TOL * (1.0 + np.abs(z))).all()):
            converged = True
            break
    residual = float((np.abs(np.polyval(crev, z))
                      / np.polyval(cabs, np.abs(z))).max())
    if not converged and residual > pf.ROOT_TOL:
        raise NonConvergence("no convergence")
    return pf.RootSet(tuple(complex(r) for r in z), residual)


def test_membership_matches_the_numpy_iteration(monkeypatch):
    # the same verdict, and min |root| to 1e-12 relative, as the numpy
    # iteration on 10^4 draws of the membership mix; every draw here has
    # a nonzero constant term and finite roots
    rng = np.random.default_rng(2030)
    draws = [_membership_draw(rng, i) for i in range(10_000)]
    scalar = [pd.membership_certificate(c) for c in draws]
    monkeypatch.setattr(pd.polyform, "roots", _numpy_roots)
    for coeffs, new in zip(draws, scalar):
        old = pd.membership_certificate(coeffs)
        assert new.verdict == old.verdict, coeffs
        got, want = (1.0 + c.margins["root_margin"] for c in (new, old))
        assert abs(got - want) <= 1e-12 * want, coeffs
        assert (new.margins["schur_cohn_margin"]
                == old.margins["schur_cohn_margin"])


def _two_pass_form(coeffs, Y):
    """:func:`schur_cohn_form` as two separate Horner passes, one matrix
    at a time."""
    cs = [complex(c) for c in coeffs]
    eye = np.eye(len(cs))

    def horner(asc):
        acc = np.zeros_like(eye, dtype=complex)
        for c in reversed(asc):
            acc = acc @ Y.matrix + complex(c) * eye
        return acc

    P = horner(list(reversed(cs)) + [1.0])
    Q = horner([1.0] + [c.conjugate() for c in cs])
    H = Q.conj().T @ Q - P.conj().T @ P
    return 0.5 * (H + H.conj().T)


def test_schur_cohn_form_matches_the_two_pass_horner():
    rng = np.random.default_rng(2031)
    for i in range(2000):
        coeffs = [c.conjugate() for c in _membership_draw(rng, i)]
        d = len(coeffs)
        Y = (pd._default_ptak_young(d) if i % 2
             else pd.ptak_young(_random_disc(rng, d, 0.9)))
        got = pd.schur_cohn_form(coeffs, Y)
        assert got.tobytes() == _two_pass_form(coeffs, Y).tobytes()


def test_default_ptak_young_is_built_once_and_read_only():
    Y = pd._default_ptak_young(4)
    assert pd._default_ptak_young(4) is Y
    assert Y.matrix.tobytes() == pd.ptak_young((pd.DEFAULT_BETA,) * 4
                                               ).matrix.tobytes()
    with pytest.raises(ValueError):
        Y.matrix[0, 0] = 0.0


def test_schur_cohn_scalar_values():
    Y = pd.ptak_young([0.5])
    assert pd.schur_cohn_form([0.5], Y)[0, 0] == pytest.approx(0.5625)
    assert pd.schur_cohn_form([2.0], Y)[0, 0] == pytest.approx(-2.25)


def test_schur_cohn_origin_any_dimension():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        Y = pd.ptak_young(_random_disc(rng, d, 0.9))
        H = pd.schur_cohn_form([0.0] * d, Y)
        Yd = np.linalg.matrix_power(Y.matrix, d)
        assert np.abs(H - (np.eye(d) - Yd.conj().T @ Yd)).max() < 1e-12
        assert np.linalg.eigvalsh(H)[0] > 0


def test_schur_cohn_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pd.schur_cohn_form([0.5, 0.1], pd.ptak_young([0.5]))


def test_schur_cohn_verdict_examples():
    assert pd.in_polydisc_schur_cohn([0.3, 0.3]).inside
    assert pd.in_polydisc_schur_cohn([0, 0, 0]).inside
    rng = np.random.default_rng(23)
    for _ in range(10):
        assert not pd.in_polydisc_schur_cohn(
            [2.5, 1], _random_disc(rng, 2, 0.9)).inside


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [
    [1e200, 1e200], [1e308, 1e308, 1e308], [math.nan, 0.1], [math.inf],
    [complex(1.5e308, 1.5e308), 1.0]])
def test_schur_cohn_form_that_is_not_finite_is_indeterminate(coeffs):
    # the form overflows above about 1e154: no margin, no warning, and
    # no decisive "outside" from a nan margin
    verdict = pd.in_polydisc_schur_cohn(coeffs)
    assert (verdict.inside, verdict.indeterminate) == (False, True)
    assert math.isnan(verdict.margin)
    cert = pd.membership_certificate(coeffs)
    assert math.isnan(cert.margins["schur_cohn_margin"])


@pytest.mark.filterwarnings("error")
def test_schur_cohn_margin_is_the_smallest_eigenvalue_of_the_form():
    # at moduli up to 1e150, while the form stays finite; without betas
    # the form is the cached default form
    rng = np.random.default_rng(32)
    for scale in (1.0, 1e99, 1e101, 1e150):
        for d in range(1, 8):
            c = scale * (rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d))
            form = pd._default_form([complex(x) for x in c])
            margin = float(np.linalg.eigvalsh(form)[0])
            assert pd.in_polydisc_schur_cohn(c) == pd.MembershipVerdict(
                margin > pd.MEMBERSHIP_TOL, margin,
                indeterminate=abs(margin) <= pd.MEMBERSHIP_TOL)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_schur_cohn_margins_of_a_stack_are_those_of_one_call_each(d):
    # a (12, 10) stack: twelve polynomials as appendix-verify draws them,
    # each at ten beta vectors, against in_polydisc_schur_cohn per pair;
    # nan where the form is not finite
    rng = np.random.default_rng(500 + d)
    coeffs = np.array([cli._random_coeffs(rng, d) for _ in range(12)])
    coeffs[3] *= 1e200
    betas = _random_disc(rng, (12, 10, d), 0.9)
    margins = pd.schur_cohn_margins(coeffs[:, None], betas)
    assert margins.shape == (12, 10)
    assert np.isnan(margins[3]).all() and np.isfinite(np.delete(margins, 3, 0)).all()
    want = np.array([[pd.in_polydisc_schur_cohn(c, b).margin for b in row]
                     for c, row in zip(coeffs, betas)])
    scale = np.abs(np.nan_to_num(want)).max()
    _assert_same_floats(margins, want, atol=1e-13 * scale)


def test_schur_cohn_oracle_with_betas_takes_the_stacked_margins(monkeypatch):
    calls = []
    margins = pd.schur_cohn_margins
    monkeypatch.setattr(pd, "schur_cohn_margins",
                        lambda *a: calls.append(a) or margins(*a))
    verdict = pd.in_polydisc_schur_cohn([0.3, 0.3], [0.5, -0.2j])
    assert verdict.inside and len(calls) == 1
    assert verdict.margin == float(margins([0.3, 0.3], [0.5, -0.2j]))


@pytest.mark.filterwarnings("error")
def test_default_form_matches_the_horner_form():
    # sum_jk (conj(q_j) q_k - conj(p_j) p_k) (Y^j)* Y^k against the
    # Horner form at the same Y, on the membership mix at moduli up to
    # 1e150: both finite, and equal to 1e-13 of the form's norm
    rng = np.random.default_rng(33)
    for i in range(1200):
        scale = (1.0, 1e50, 1e99, 1e101, 1e150)[i % 5]
        a = [scale * c for c in _membership_draw(rng, i // 5)]
        got = pd._default_form(a)
        want = pd.schur_cohn_form([c.conjugate() for c in a],
                                  pd._default_ptak_young(len(a)))
        assert np.isfinite(got).all() and np.isfinite(want).all()
        norm = float(np.linalg.norm(want, 2))
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, norm), a
    for d in range(1, 9):
        stack, adjoint = pd._default_powers(d)
        assert pd._default_powers(d)[0] is stack
        assert not (stack.flags.writeable or adjoint.flags.writeable)
        assert np.array_equal(adjoint, stack.conj().T)
        Y = pd._default_ptak_young(d).matrix
        assert np.allclose(stack[-d:], np.linalg.matrix_power(Y, d))


def test_oracle_agreement_and_beta_independence():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 300:
        d = int(rng.integers(1, 6))
        c = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        rv = pd.in_polydisc_roots(c)
        if abs(rv.margin) <= 1e-6:
            continue
        checked += 1
        verdicts = {pd.in_polydisc_schur_cohn(c, _random_disc(rng, d, 0.9)).inside
                    for _ in range(10)}
        assert verdicts == {rv.inside}


# ---------------------------------------------------------------------------
# Takenaka-Malmquist functions and the model identity

def test_tm_examples():
    assert pd.takenaka_malmquist([0.5], 1, 0.0) == pytest.approx(
        math.sqrt(0.75))
    rng = np.random.default_rng(1)
    for z in rng.uniform(-0.9, 0.9, 5) + 1j * rng.uniform(-0.4, 0.4, 5):
        assert pd.takenaka_malmquist([0.0, 0.3], 1, z) == pytest.approx(1.0)
    assert pd.takenaka_malmquist([0.5, 0.3], 2, 0.0) == pytest.approx(
        math.sqrt(1 - 0.09) * 0.5)


def test_tm_orthonormal_on_circle():
    # 8192-point trapezoid rule on the circle: Gram matrix ~ identity
    rng = np.random.default_rng(17)
    theta = 2 * np.pi * np.arange(8192) / 8192
    circle = np.exp(1j * theta)
    for d in (2, 3, 5):
        lams = _random_disc(rng, d)
        E = np.array([[pd.takenaka_malmquist(lams, j, z) for z in circle]
                      for j in range(1, d + 1)])
        gram = E @ E.conj().T / circle.size
        assert np.abs(gram - np.eye(d)).max() < 1e-8


def test_model_identity_origin_and_diagonal():
    assert pd.model_residual([0.5], 0.0, 0.0) < 1e-15
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        lams = _random_disc(rng, d)
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        assert pd.model_residual(lams, z, z) < 1e-12


def test_model_identity_zero_lambdas_geometric_sum():
    # B(z) = z^d, E_j(z) = z^{j-1}: the identity is the finite geometric sum
    rng = np.random.default_rng(3)
    for d in (1, 2, 4):
        for _ in range(10):
            z = complex(*rng.uniform(-0.65, 0.65, 2))
            w = complex(*rng.uniform(-0.65, 0.65, 2))
            assert pd.model_residual([0.0] * d, z, w) < 1e-13


def test_model_identity_grid():
    rng = np.random.default_rng(4)
    grid = np.linspace(-0.9, 0.9, 20)
    for d in (1, 2, 3, 4):
        lams = _random_disc(rng, d)
        worst = max(pd.model_residual(lams, z, w)
                    for z in grid for w in grid)
        assert worst < 1e-10


def _blaschke_reference(lams, z):
    out = 1.0 + 0j
    for lam in lams:
        out *= (z + lam) / (1.0 + lam.conjugate() * z)
    return out


def _tm_reference(lams, j, z):
    """E_j(z) with its own Blaschke prefix, one product per j."""
    lam_j = lams[j - 1]
    out = math.sqrt(1.0 - abs(lam_j) ** 2) / (1.0 + lam_j.conjugate() * z)
    out *= _blaschke_reference(lams[:j - 1], z)
    return out


def _model_residual_reference(lams, z, w):
    lhs = (1.0 - _blaschke_reference(lams, w).conjugate()
           * _blaschke_reference(lams, z))
    rhs = 0j
    factor = 1.0 - complex(w).conjugate() * complex(z)
    for j in range(1, len(lams) + 1):
        rhs += (_tm_reference(lams, j, w).conjugate() * factor
                * _tm_reference(lams, j, z))
    return abs(lhs - rhs)


def _bits(value):
    value = complex(value)
    return value.real.hex(), value.imag.hex()


@pytest.mark.parametrize("d", range(1, 9))
def test_tm_values_and_model_residual_match_the_per_j_products(d):
    # complex128 lambdas, z and w, as appendix-verify passes them; the
    # one running product must give the per-j products' floats
    rng = np.random.default_rng(100 + d)
    for _ in range(200):
        lams = _random_disc(rng, d)
        z, w = _random_disc(rng, 2, 0.9)
        ref_lams = [complex(l) for l in lams]
        for j in range(1, d + 1):
            assert (_bits(pd.takenaka_malmquist(lams, j, z))
                    == _bits(_tm_reference(ref_lams, j, z)))
        assert (pd.model_residual(lams, z, w).hex()
                == _model_residual_reference(ref_lams, z, w).hex())


@pytest.mark.parametrize("d", [1, 3, 8])
def test_model_residual_over_a_grid_is_the_residual_of_each_pair(d):
    # a column of z against a row of w: each pair's residual as a call
    # of its own gives it; the array arithmetic fuses above numpy's
    # baseline dispatch
    rng = np.random.default_rng(400 + d)
    for _ in range(5):
        lams = _random_disc(rng, d)
        zs = _random_disc(rng, 20, 0.9)
        ws = _random_disc(rng, 20, 0.9)
        grid = pd.model_residual(lams, zs[:, None], ws)
        assert grid.shape == (20, 20)
        want = [[pd.model_residual(lams, z, w) for w in ws] for z in zs]
        _assert_same_floats(grid, want, atol=1e-15)
        assert grid.max() < 1e-13


def test_model_residual_checks_the_lambdas_before_the_poles():
    # z = -2 is the pole of lam = 0.5; lam = 2 lies outside the disc
    with pytest.raises(NotInPolydisc, match="every"):
        pd.model_residual([0.5, 2.0], -2.0, 0.0)
    with pytest.raises(PoleAtZ):
        pd.model_residual([0.5, 0.3], -2.0, 0.0)


# ---------------------------------------------------------------------------
# Hermitian form through the model, and the realization block

def test_hermitian_form_tm_scalar_example():
    Y = pd.ptak_young([0.5])
    assert pd.hermitian_form_tm([0.5], Y, [1.0]) == pytest.approx(0.5625)


def test_hermitian_form_tm_origin_formula():
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        Y = pd.ptak_young(_random_disc(rng, d, 0.9))
        x = _random_disc(rng, d, 1.0)
        got = pd.hermitian_form_tm([0.0] * d, Y, x)
        Yd = np.linalg.matrix_power(Y.matrix, d)
        want = float(np.linalg.norm(x) ** 2 - np.linalg.norm(Yd @ x) ** 2)
        assert got == pytest.approx(want, abs=1e-12)


def test_hermitian_form_tm_matches_schur_cohn():
    rng = np.random.default_rng(37)
    for _ in range(25):
        d = 3
        lams = _random_disc(rng, d, 0.9)
        Y = pd.ptak_young(_random_disc(rng, d, 0.9))
        H = pd.schur_cohn_form(pd.monic_coeffs(lams), Y)
        x = _random_disc(rng, d, 1.0)
        quad = float((x.conj() @ (H @ x)).real)
        assert pd.hermitian_form_tm(lams, Y, x) == pytest.approx(
            quad, abs=1e-9)


def test_hermitian_form_tm_rejects_outside():
    with pytest.raises(NotInPolydisc):
        pd.hermitian_form_tm([0.5, 1.25], pd.ptak_young([0.5, 0.5]),
                             [1.0, 0.0])


def _realization_residual(rng, d, lams=None):
    lams = _random_disc(rng, d, 0.9) if lams is None else np.asarray(lams)
    Y = pd.ptak_young(_random_disc(rng, d, 0.9))
    H = pd.realization(Y, lams)
    cs = pd.monic_coeffs(lams)
    SC = pd.schur_cohn_form(cs, Y)
    stack = pd.tm_stack(lams, Y.matrix)
    QY = pd._matrix_poly([1.0] + [c.conjugate() for c in cs], Y.matrix)
    worst = 0.0
    for _ in range(100):
        x = _random_disc(rng, d, 1.0)
        lhs = float(np.linalg.norm(H @ (stack @ (QY @ x))) ** 2)
        rhs = float((x.conj() @ (SC @ x)).real)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _tm_matrix_reference(lams, j, Y):
    """E_j(Y) with its own Blaschke prefix, one product per j."""
    d = Y.shape[0]
    eye = np.eye(d)
    lam_j = lams[j - 1]
    out = math.sqrt(1.0 - abs(lam_j) ** 2) * np.linalg.solve(
        eye + lam_j.conjugate() * Y, eye)
    for k in range(j - 1):
        lam = lams[k]
        out = out @ np.linalg.solve(eye + lam.conjugate() * Y, Y + lam * eye)
    return out


@pytest.mark.parametrize("d", range(1, 9))
def test_tm_stack_matches_the_per_j_products(d):
    # lambdas and Ptak-Young betas as appendix-verify draws them; the one
    # running product reassociates the per-j products
    rng = np.random.default_rng(200 + d)
    for _ in range(200):
        lams = [complex(l) for l in _random_disc(rng, d, 0.9)]
        Y = pd.ptak_young(_random_disc(rng, d, 0.9)).matrix
        ref = np.vstack([_tm_matrix_reference(lams, j, Y)
                         for j in range(1, d + 1)])
        got = pd.tm_stack(lams, Y)
        assert got.shape == (d * d, d)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_form_and_realization_solve_no_roots(monkeypatch):
    calls = []
    roots = pd.polyform.roots
    monkeypatch.setattr(pd.polyform, "roots",
                        lambda *a, **k: calls.append(1) or roots(*a, **k))
    rng = np.random.default_rng(47)
    lams = _random_disc(rng, 4, 0.9)
    Y = pd.ptak_young(_random_disc(rng, 4, 0.9))
    pd.hermitian_form_tm(lams, Y, _random_disc(rng, 4, 1.0))
    pd.realization(Y, lams)
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda lams: pd.takenaka_malmquist(lams, 1, 0.0),
    lambda lams: pd.model_residual(lams, 0.0, 0.0),
    lambda lams: pd.tm_stack(lams, pd.ptak_young([0.5, 0.5]).matrix),
    lambda lams: pd.hermitian_form_tm(lams, pd.ptak_young([0.5, 0.5]),
                                      [1.0, 0.0]),
    lambda lams: pd.realization(pd.ptak_young([0.5, 0.5]), lams),
], ids=["takenaka_malmquist", "model_residual", "tm_stack",
        "hermitian_form_tm", "realization"])
@pytest.mark.parametrize("lam", [1.0, -1j, 1.25, math.nan,
                                 complex(math.nan, 0)])
def test_model_functions_refuse_a_lambda_off_the_disc(call, lam):
    with pytest.raises(NotInPolydisc, match="every"):
        call([0.3, lam])


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_realization_residuals_are_those_of_each_vector(d):
    # the (100, d) block of x against one vector at a time, through the
    # same matrix-vector products and numpy's norm
    rng = np.random.default_rng(600 + d)
    lams = _random_disc(rng, d, 0.9)
    Y = pd.ptak_young(_random_disc(rng, d, 0.9))
    xs = _random_disc(rng, (100, d), 1.0)
    got = pd.realization_residuals(Y, lams, xs)
    H = pd.realization(Y, lams)
    cs = pd.monic_coeffs(lams)
    SC = pd.schur_cohn_form(cs, Y)
    stack = pd.tm_stack(lams, Y.matrix)
    QY = pd.conjugate_poly(cs, Y.matrix)
    want = [abs(float(np.linalg.norm(H @ (stack @ (QY @ x))) ** 2)
                - float((x.conj() @ (SC @ x)).real)) for x in xs]
    _assert_same_floats(got, want, atol=1e-13)
    assert got.max() < 1e-8


def test_realization_scalar_case():
    Y = pd.ptak_young([0.5])
    H = pd.realization(Y, [0.5])
    E1 = pd.tm_stack([0.5], Y.matrix)
    QY = pd._matrix_poly([1.0, 0.5], Y.matrix)
    val = float(np.linalg.norm(H @ (E1 @ (QY @ np.array([1.0 + 0j])))) ** 2)
    assert val == pytest.approx(0.5625, abs=1e-12)


def test_realization_zero_lambdas():
    rng = np.random.default_rng(41)
    for d in (1, 2, 3):
        assert _realization_residual(rng, d, lams=[0.0] * d) < 1e-9


def test_realization_random():
    rng = np.random.default_rng(43)
    assert _realization_residual(rng, 3) < 1e-8


def test_realization_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pd.realization(pd.ptak_young([0.5, 0.5]), [0.3])


def test_tm_pole_guard():
    with pytest.raises(PoleAtZ):
        pd.takenaka_malmquist([0.5], 1, -2.0)  # pole at -1/conj(lam)


def test_membership_certificate_decisive_and_indeterminate():
    cert = pd.membership_certificate([0.3, 0.3])
    assert cert.verdict is True and cert.kind == "polydisc"
    assert cert.margins["root_margin"] > 0 < cert.margins["schur_cohn_margin"]
    assert pd.membership_certificate([2.5, 1.0]).verdict is False
    # a root pinned to the unit circle: margin inside the tolerance
    near = pd.membership_certificate([1.0])
    assert near.verdict == "boundary-indeterminate"

"""Symbol-infimum certificates and finite-section cross-checks."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from rieszcert import dilation as dl
from rieszcert import gross_pitaevskii as gp
from rieszcert import spread_toeplitz as st
from rieszcert import weierstrass as ws
from rieszcert.certificate import ENVELOPE_RIGOROUS, SAMPLE_HEURISTIC
from rieszcert.errors import NonConvergence


def test_symbol_inf_identity_family():
    assert st.symbol_inf(st.constant_family([])).value == 1.0


def test_symbol_inf_constant_table():
    bound = st.symbol_inf(st.constant_family([0.3, 0.3]))
    assert bound.value == pytest.approx(0.673238442158, abs=1e-9)
    assert bound.mode == ENVELOPE_RIGOROUS  # covers all orbit classes


def test_symbol_inf_periodicity_reduction():
    # entries depend only on the orbit class of n under multiplication
    # by p: the sampled infimum equals the min over one set of
    # representatives
    table = {1: [0.3, 0.3], 3: [0.1, -0.2]}

    def coeff(n, k):
        while n % 2 == 0:
            n //= 2
        return table[1 if n % 4 == 1 else 3][k - 1]

    fam = st.SymbolFamily(p=2, d=2, coeff=coeff)
    got = st.symbol_inf(fam, n_range=range(1, 9))
    expected = min(
        st.symbol_inf(st.constant_family(table[1])).value,
        st.symbol_inf(st.constant_family(table[3])).value)
    assert got.value == pytest.approx(expected, abs=1e-12)
    assert got.mode == SAMPLE_HEURISTIC
    # the defining periodicity contract a_k(pn) = a_k(n)
    for n in range(1, 30):
        for k in (1, 2):
            assert coeff(2 * n, k) == coeff(n, k)


def test_invertibility_examples():
    cert = st.invertibility(st.constant_family([]))
    assert cert.verdict is True
    assert cert.margins["inverse_norm"] == pytest.approx(1.0)

    boundary = st.invertibility(st.constant_family([1.0]))
    assert boundary.verdict is False
    assert boundary.margins["symbol_inf"] == 0.0

    cert = st.invertibility(st.constant_family([0.3, 0.3]))
    assert cert.verdict is True
    assert cert.margins["inverse_norm"] == pytest.approx(1.48536, abs=1e-3)


def test_perturbation_examples():
    fam = st.constant_family([0.3, 0.3])
    assert st.perturbation_certificate(fam, 0.0).verdict

    neumann = st.perturbation_certificate(st.constant_family([]), 0.9)
    assert neumann.verdict is True
    assert neumann.margins["margin"] == pytest.approx(0.1)

    # an infinite budget bounds nothing; a negative or NaN one is an error
    assert st.perturbation_certificate(fam, math.inf).verdict is False
    for bad in (-1e-300, math.nan):
        with pytest.raises(ValueError, match="tail_sum must be nonnegative"):
            st.perturbation_certificate(fam, bad)


def test_perturbation_monotone_in_tail():
    fam = st.constant_family([0.3, 0.3])
    verdicts = [st.perturbation_certificate(fam, t).verdict
                for t in np.linspace(0.0, 1.0, 21)]
    # once false, never true again as the tail grows
    assert verdicts == sorted(verdicts, reverse=True)


def test_finite_section_structure():
    assert np.array_equal(
        st.finite_section(lambda j, n: 0.0, 5).entries, np.eye(5))

    S = st.finite_section(lambda j, n: 0.5 if j == 2 else 0.0, 4)
    expected = np.eye(4)
    expected[1, 0] = expected[3, 1] = 0.5
    assert np.array_equal(S.entries, expected)


def test_finite_section_multiplicative_triangular():
    rng = np.random.default_rng(8)
    vals = {j: rng.standard_normal() for j in range(2, 30)}
    S = st.finite_section(lambda j, n: vals[j], 29).entries
    assert np.array_equal(np.diag(S), np.ones(29))
    for m in range(1, 30):
        for n in range(1, 30):
            if m != n and S[m - 1, n - 1] != 0:
                assert m % n == 0 and m > n


def test_weierstrass_section_column_pattern():
    # constant-index lacunary family: column n carries nu^l at row 2^l n
    nu = 0.5
    def cj(j, n):
        l, m = 0, j
        while m % 2 == 0:
            m //= 2
            l += 1
        return nu ** l if m == 1 and l >= 1 else 0.0
    S = st.finite_section(cj, 16).entries
    assert S[1, 0] == nu and S[3, 0] == nu ** 2 and S[7, 0] == nu ** 3
    assert S[5, 2] == nu and S[11, 5] == nu
    assert S[4, 2] == 0.0


def test_smallest_singular_examples():
    assert st.smallest_singular(
        st.finite_section(lambda j, n: 0.0, 7)) == pytest.approx(1.0)
    S = st.finite_section(lambda j, n: 0.5 if j == 2 else 0.0, 2)
    assert st.smallest_singular(S) == pytest.approx(
        math.sqrt((9 - math.sqrt(17)) / 8), abs=1e-12)


def _dense_smallest_singular(S):
    # reference oracle: full SVD of the assembled section
    return float(np.linalg.svd(S.entries, compute_uv=False)[-1])


@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 257, 512])
@pytest.mark.parametrize("complex_values", [False, True])
def test_smallest_singular_matches_dense_svd(N, complex_values):
    rng = np.random.default_rng([N, complex_values])
    table = {}

    def cj(j, n):
        if (j, n) not in table:
            c = rng.uniform(-0.4, 0.4)
            if complex_values:
                c += 1j * rng.uniform(-0.4, 0.4)
            table[j, n] = c / j
        return table[j, n]

    S = st.finite_section(cj, N)
    assert np.iscomplexobj(S.values) == (complex_values and N > 1)
    assert st.smallest_singular(S) == pytest.approx(
        _dense_smallest_singular(S), rel=1e-12)
    identity = st.finite_section(lambda j, n: 0.0, N)
    assert st.smallest_singular(identity) == pytest.approx(1.0, rel=1e-12)


def test_smallest_singular_step_guard(monkeypatch):
    S = st.finite_section(lambda j, n: 0.5 if j == 2 else 0.0, 64)
    monkeypatch.setattr(st, "LANCZOS_MAX_STEPS", 3)
    with pytest.raises(NonConvergence):
        st.smallest_singular(S)
    # a section no larger than the guard ends by exhausting its Krylov space
    monkeypatch.setattr(st, "LANCZOS_RTOL", 0.0)
    monkeypatch.setattr(st, "LANCZOS_MAX_STEPS", 64)
    assert st.smallest_singular(S) == pytest.approx(
        _dense_smallest_singular(S), rel=1e-12)


@pytest.mark.parametrize("N", [4096, 16384])
def test_smallest_singular_lacunary_orbit_blocks(N):
    # c_j(n) vanishes unless j = 2^l, so the section splits exactly into
    # the blocks on the orbits {m 2^k <= N}, m odd: sigma_min is the
    # smallest singular value over those (at most 15 x 15) blocks
    rule = ws.cj_rule(0.5, 2, 0.0)
    S = st.finite_section(rule, N)
    ratio = (S.rows + 1) // (S.cols + 1)
    assert np.all((S.rows + 1) % (S.cols + 1) == 0)
    assert np.all(ratio & (ratio - 1) == 0)
    sigmas = {}   # one SVD per distinct block
    largest = 0
    for m in range(1, N + 1, 2):
        orbit = [m << k for k in range((N // m).bit_length())]
        largest = max(largest, len(orbit))
        B = np.eye(len(orbit))
        for col, n in enumerate(orbit):
            for row in range(col + 1, len(orbit)):
                B[row, col] = rule(orbit[row] // n, n)
        key = B.tobytes()
        if key not in sigmas:
            sigmas[key] = np.linalg.svd(B, compute_uv=False)[-1]
    assert largest <= 15
    assert st.smallest_singular(S) == pytest.approx(min(sigmas.values()),
                                                    rel=1e-12)


def _periodic_rule():
    # q_n = (0.3, 0.6)[(n / 3^v_3(n)) mod 2]: a 3-periodic index table
    profs = [dl.OddModeProfile(q, 0.0) for q in (0.3, 0.6)]

    def profiles(n):
        while n % 3 == 0:
            n //= 3
        return profs[n % 2]

    return lambda j, n: dl.trajectory_coeffs(profiles, 0.0, j, n)


INVERSE_RULES = {
    "ws": ws.cj_rule(0.5, 2, 0.0),
    "gp": gp.cj_rule(0.5, 0.0),
    "periodic": _periodic_rule(),
    "all-j": lambda j, n: 0.3 / j ** 2,
}


def _section(name, N, complex_values):
    rule = INVERSE_RULES[name]
    if complex_values:   # the same moduli with a phase per entry
        return st.finite_section(
            lambda j, n: rule(j, n) * cmath.exp(1j * (j + 2 * n)), N)
    return st.finite_section(rule, N)


@pytest.mark.parametrize("N", [1, 2, 3, 17, 256])
@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("name", sorted(INVERSE_RULES))
def test_inverse_times_section_is_identity(name, N, complex_values):
    S = _section(name, N, complex_values)
    inv = S.inverse()
    assert inv.N == N and inv.values.dtype == S.values.dtype
    assert np.abs(inv.entries @ S.entries - np.eye(N)).max() < 1e-13


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("name", sorted(INVERSE_RULES))
def test_inverse_entries_unique_and_multiplicative(name, complex_values):
    N = 256
    S = _section(name, N, complex_values)
    for M in (S, S.inverse()):
        keys = M.rows * N + M.cols
        assert len(np.unique(keys)) == len(keys)      # no duplicate
        assert np.all(M.rows + 1 >= 2 * (M.cols + 1))
        assert np.all((M.rows + 1) % (M.cols + 1) == 0)
        assert np.all(np.diff(M.rows) >= 0)           # row order
        assert len(M.rows) == len(M.cols) == len(M.values)


def test_inverse_chunks_match_one_pass(monkeypatch):
    # a chunk holds whole rows, so the chunked expansion sums every
    # entry in the order of one pass; the chunked products agree with
    # one pass to rounding
    S = _section("all-j", 3000, True)
    inv = S.inverse()
    x = np.random.default_rng(3).standard_normal(3000) + 0j
    y = inv._apply_l(x, False), inv._apply_l(x, True)
    monkeypatch.setattr(st, "_CHUNK", 1 << 40)
    one = S.inverse()
    assert np.array_equal(one.rows, inv.rows)
    assert np.array_equal(one.cols, inv.cols)
    assert np.array_equal(one.values, inv.values)
    for got, adjoint in zip(y, (False, True)):
        assert np.allclose(got, one._apply_l(x, adjoint), rtol=1e-13,
                           atol=1e-15)


@pytest.mark.parametrize("N", [64, 2048])
def test_smallest_singular_two_products_per_step(monkeypatch, N):
    # one product with T^{-1} and one with T^{-H} per Lanczos step
    calls, steps = [], []
    apply_l, eigh = st.SectionMatrix._apply_l, np.linalg.eigh

    def counted_apply_l(self, x, adjoint):
        calls.append(adjoint)
        return apply_l(self, x, adjoint)

    def counted_eigh(a, *args, **kwargs):   # one Ritz solve per step
        steps.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(st.SectionMatrix, "_apply_l", counted_apply_l)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    st.smallest_singular(st.finite_section(INVERSE_RULES["gp"], N))
    assert steps == list(range(1, len(steps) + 1)) and len(steps) > 8
    assert calls == [False, True] * len(steps)


def test_smallest_singular_memory():
    # the all-j rule, 145168 entries at N = 16384. The bound: 19.6 MB
    # measured with Neumann solves and no stored inverse, plus the
    # inverse's own 3.5 MB of entries, rounded up; expanding the inverse
    # in one pass peaks near 33 MB
    S = st.finite_section(INVERSE_RULES["all-j"], 16384)
    tracemalloc.start()
    try:
        st.smallest_singular(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_section_compression_bound():
    # unit-diagonal multiplicative-triangular structure: the smallest
    # singular value of every section dominates the symbol infimum and
    # is non-increasing in the section size
    fam = st.constant_family([0.3, 0.3])
    s = st.symbol_inf(fam).value

    def cj(j, n):
        return 0.3 if j in (2, 4) else 0.0

    sigmas = [st.smallest_singular(st.finite_section(cj, N))
              for N in (8, 32, 128, 512)]
    assert all(sig >= s - 1e-9 for sig in sigmas)
    assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(sigmas, sigmas[1:]))


def test_inverse_symbol_coeffs_recursion():
    b = st.inverse_symbol_coeffs([0.3, 0.3], 4)
    assert b[0] == 1 and b[1] == -0.3
    assert b[2] == pytest.approx(0.3 ** 2 - 0.3)

    # convolution with the forward coefficients telescopes to identity
    rng = np.random.default_rng(12)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        a = list(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        b = st.inverse_symbol_coeffs(a, 10)
        for order in range(1, 11):
            conv = b[order]
            for i in range(1, order + 1):
                ai = a[i - 1] if i <= d else 0.0
                conv += ai * b[order - i]
            assert abs(conv) < 1e-10

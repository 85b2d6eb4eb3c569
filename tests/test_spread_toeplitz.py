"""Symbol-infimum certificates and finite-section cross-checks."""

import math

import numpy as np
import pytest

from rieszcert import spread_toeplitz as st
from rieszcert.certificate import ENVELOPE_RIGOROUS, SAMPLE_HEURISTIC


def test_symbol_inf_identity_family():
    assert st.symbol_inf(st.constant_family([])).value == 1.0


def test_symbol_inf_geometric_envelope():
    fam = st.geometric_family(0.25, degree=None)
    bound = st.symbol_inf(fam)
    assert bound.value == pytest.approx(0.8)
    assert bound.mode == ENVELOPE_RIGOROUS
    # truncations approach the full-symbol value from below
    vals = [st.symbol_inf(st.geometric_family(0.25, degree=d)).value
            for d in (1, 2, 4, 8, 16, 32)]
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(0.8, abs=1e-9)


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

    fam = st.explicit_family(p=2, d=2, coeff=coeff)
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

    # geometric envelope at nu = 0.9 with 28 structured degrees
    fam = st.geometric_family(0.9, degree=28)
    tail = 0.9 ** 29 / 0.1
    cert = st.perturbation_certificate(fam, tail)
    assert cert.verdict is True
    assert cert.margins["tail_sum"] == pytest.approx(0.4712, abs=1e-3)
    assert cert.margins["symbol_inf"] == pytest.approx(0.5015, abs=1e-3)


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
    S = st.SectionMatrix(2, np.array([[1.0, 0.0], [0.5, 1.0]]))
    assert st.smallest_singular(S) == pytest.approx(
        math.sqrt((9 - math.sqrt(17)) / 8), abs=1e-12)


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

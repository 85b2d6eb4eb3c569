"""Symbol-infimum certificates and finite-section cross-checks."""

import itertools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from rieszcert import dilation as dl
from rieszcert import gross_pitaevskii as gp
from rieszcert import spread_toeplitz as st
from rieszcert import weierstrass as ws
from rieszcert.certificate import SAMPLE_HEURISTIC
from rieszcert.errors import InverseOverflow, NonConvergence, RieszcertError
from rieszcert.util import log_nome


def test_symbol_inf_identity_family():
    assert st.symbol_inf([]) == 1.0


def test_symbol_inf_constant_table():
    assert st.symbol_inf([0.3, 0.3]) == pytest.approx(0.673238442158,
                                                      abs=1e-9)
    # 1 + z vanishes at z = -1: the floor is exactly zero
    assert st.symbol_inf([1.0]) == 0.0


def test_perturbation_examples():
    # the Td certificate is the Neumann argument: verdict iff the
    # perturbation budget stays below the structured floor
    cert = gp.certify_Td(0.2, 0.5, 3, 3)
    m = cert.margins
    assert list(m) == ["symbol_inf", "tail_sum", "margin", "s_value",
                       "s_tail_bound"]
    assert m["margin"] == m["symbol_inf"] - m["tail_sum"]
    assert cert.verdict is True and m["margin"] > 0.0
    assert cert.mode == SAMPLE_HEURISTIC
    # terms = 1 leaves the series tail unbounded: an infinite budget
    # bounds nothing and is never certified
    cert = gp.certify_Td(0.5, 2.0, 3, 3, terms=1)
    assert cert.margins["tail_sum"] == math.inf
    assert cert.margins["margin"] == -math.inf
    assert cert.verdict is False


def test_perturbation_monotone_in_tail():
    # the verdict compares the budget with the floor: along q the budget
    # grows, and once false the verdict never turns true again
    certs = [gp.certify_Td(float(q), 0.5, 3, 4)
             for q in np.linspace(0.02, 0.98, 49)]
    tails = [c.margins["tail_sum"] for c in certs]
    verdicts = [c.verdict for c in certs]
    assert tails == sorted(tails)
    assert verdicts == sorted(verdicts, reverse=True) and any(verdicts)
    for c in certs:
        assert c.verdict == (c.margins["tail_sum"] < c.margins["symbol_inf"])


def test_finite_section_structure():
    assert np.array_equal(
        st.finite_section(lambda j, n: 0.0, 5).entries, np.eye(5))

    S = st.finite_section(lambda j, n: np.where(j == 2, 0.5, 0.0), 4)
    expected = np.eye(4)
    expected[1, 0] = expected[3, 1] = 0.5
    assert np.array_equal(S.entries, expected)


def test_finite_section_multiplicative_triangular():
    rng = np.random.default_rng(8)
    vals = np.array([0.0, 0.0] + [rng.standard_normal() for _ in range(2, 30)])
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
        l = np.frexp(j)[1] - 1   # j = 2^l when j & (j - 1) == 0
        return np.where(j & (j - 1) == 0, nu ** l, 0.0)
    S = st.finite_section(cj, 16).entries
    assert S[1, 0] == nu and S[3, 0] == nu ** 2 and S[7, 0] == nu ** 3
    assert S[5, 2] == nu and S[11, 5] == nu
    assert S[4, 2] == 0.0


def test_finite_section_calls_the_rule_on_whole_j_ranges():
    # one call covers a whole section up to N = 2048; above, each call
    # takes whole j-ranges of at most _CHUNK pairs (one j alone may be
    # more), and together they give every pair once, by j then n
    for N in (1, 2, 2048, 65536):
        calls = []

        def cj(j, n):
            calls.append(list(zip(j.tolist(), n.tolist())))
            return 0.0

        st.finite_section(cj, N)
        pairs = [(j, n) for j in range(2, N + 1) for n in range(1, N // j + 1)]
        assert list(itertools.chain(*calls)) == pairs
        if N <= 2048:
            assert len(calls) == (N > 1)
        else:
            assert len(calls) > 1
        assert all(len(c) <= st._CHUNK or c[0][0] == c[-1][0] for c in calls)
        assert all(a[-1][0] < b[0][0] for a, b in zip(calls, calls[1:]))


def test_section_rule_builds_one_profile_per_index_value():
    built, asked = [], []

    def index(n):
        asked.append(n)
        return (0.3, 0.6)[n % 2]

    def profile_of(q):
        built.append(q)
        return dl.OddModeProfile(q, 0.5)

    rule = dl.section_rule(profile_of, index, 0.5)
    S = st.finite_section(rule, 512)
    assert sorted(built) == [0.3, 0.6]
    assert sorted(asked) == list(range(1, 257))   # once per distinct n
    assert all(type(n) is int for n in asked)
    assert len(S.values) > 0


def _p_adic_split(j, p):
    """(v, m) with j = p^v m and m not divisible by p, for j >= 1."""
    v = 0
    while j % p == 0:
        j //= p
        v += 1
    return v, j


def _scalar_coeff(profile, j):
    """f_hat(j) of a profile at one int j, in scalar Python and libm: the
    reference that the profiles' array ``coeffs`` are checked against."""
    if isinstance(profile, dl.LacunaryGeometricProfile):
        if j < 1:
            return 0.0
        level, m = _p_adic_split(j, profile.p)
        return profile.lam ** level if m == 1 else 0.0
    if j < 1 or j % 2 == 0:
        return 0.0
    l = (j - 1) // 2
    lq = log_nome(profile.q)
    return -(1.0 - profile.q) * math.exp(l * lq) / math.expm1((2 * l + 1) * lq)


def _reference_section(coeff, N):
    # the section built pair by pair from the scalar profile values, in
    # the order of the old per-entry loop
    rows, cols, vals = [], [], []
    for j in range(2, N + 1):
        for n in range(1, N // j + 1):
            c = coeff(j, n)
            if c != 0:
                rows.append(j * n - 1)
                cols.append(n - 1)
                vals.append(c)
    rows = np.array(rows, dtype=np.intp)
    order = np.argsort(rows, kind="stable")
    return (rows[order], np.array(cols, dtype=np.intp)[order],
            np.array(vals, dtype=float)[order])


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(family=hs.sampled_from(["ws", "gp"]),
       table=hs.lists(hs.floats(1e-6, 0.999), min_size=1, max_size=4),
       constant=hs.booleans(), spelling=hs.sampled_from(["rule", "lambda"]),
       p=hs.integers(2, 7), alpha=hs.floats(0.0, 2.0),
       N=hs.integers(1, 300))
def test_array_rules_equal_the_scalar_profile(family, table, constant,
                                              spelling, p, alpha, N):
    # A constant index or a p-periodic table s_n = table[(n / p^v) mod m],
    # through section_rule or as the trajectory_coeffs lambda a user
    # writes. Lacunary values are equal bit for bit; the odd-mode values
    # go through numpy's exp and expm1, 1 ulp off libm at worst, so they
    # agree to 4 ulps.
    if family == "ws":
        def profile_of(s):
            return dl.LacunaryGeometricProfile(s, p, alpha)
    else:
        def profile_of(s):
            return dl.OddModeProfile(s, alpha)
    if constant:
        table = table[:1]

    def index(n):
        while n % p == 0:
            n //= p
        return table[n % len(table)]

    profs = {s: profile_of(s) for s in table}

    def profiles(n):
        return profs[index(n)]

    if spelling == "rule":
        rule = dl.section_rule(profile_of, table[0] if constant else index,
                               alpha)
    else:
        def rule(j, n):
            return dl.trajectory_coeffs(profiles, alpha, j, n)

    S = st.finite_section(rule, N)
    rows, cols, vals = _reference_section(
        lambda j, n: float(j) ** alpha * _scalar_coeff(profiles(n), j), N)
    assert np.array_equal(S.rows, rows) and np.array_equal(S.cols, cols)
    assert S.values.dtype == float
    if family == "ws":
        assert np.array_equal(S.values, vals)
    else:
        assert np.all(np.abs(S.values - vals) <= 4 * np.spacing(vals))


def test_smallest_singular_examples():
    assert st.smallest_singular(
        st.finite_section(lambda j, n: 0.0, 7)) == pytest.approx(1.0)
    S = st.finite_section(lambda j, n: np.where(j == 2, 0.5, 0.0), 2)
    assert st.smallest_singular(S) == pytest.approx(
        math.sqrt((9 - math.sqrt(17)) / 8), abs=1e-12)


def _dense_smallest_singular(S):
    # reference oracle: full SVD of the assembled section
    return float(np.linalg.svd(S.entries, compute_uv=False)[-1])


def _phased(rule):
    """The same moduli as ``rule`` with a phase per entry: complex
    values, which finite_section refuses."""
    return lambda j, n: rule(j, n) * np.exp(1j * (j + 2 * n))


def _assert_refused(rule, N):
    # the rule is called once N >= 2; at N = 1 no pair (j, n) exists
    if N == 1:
        assert st.finite_section(rule, N).values.dtype == float
        return
    with pytest.raises(TypeError, match="must return real values"):
        st.finite_section(rule, N)


def test_finite_section_refuses_complex_values():
    # complex values are refused even where every imaginary part is 0;
    # a real rule's section holds floats, whatever the rule's dtype
    for c in (0.5j, 0.5 + 0j, np.complex64(0.5)):
        _assert_refused(lambda j, n: np.where(j == 2, c, 0.0), 8)
    _assert_refused(lambda j, n: np.full(len(j), 0.1 + 0j), 2)
    for c in (1, np.float32(0.5), True):
        assert st.finite_section(lambda j, n: c, 8).values.dtype == float


@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 257, 512])
@pytest.mark.parametrize("complex_values", [False, True])
def test_smallest_singular_matches_dense_svd(N, complex_values):
    rng = np.random.default_rng([N, complex_values])

    def cj(j, n):
        # one draw per pair
        return rng.uniform(-0.4, 0.4, len(j)) / j

    if complex_values:
        _assert_refused(_phased(cj), N)
        return
    S = st.finite_section(cj, N)
    assert st.smallest_singular(S) == pytest.approx(
        _dense_smallest_singular(S), rel=1e-12)
    identity = st.finite_section(lambda j, n: 0.0, N)
    assert st.smallest_singular(identity) == pytest.approx(1.0, rel=1e-12)


def test_smallest_singular_step_guard(monkeypatch):
    S = st.finite_section(lambda j, n: np.where(j == 2, 0.5, 0.0), 64)
    monkeypatch.setattr(st, "LANCZOS_MAX_STEPS", 3)
    with pytest.raises(NonConvergence):
        st._lanczos_sigma_min(S)
    # a section no larger than the guard ends by exhausting its Krylov space
    monkeypatch.setattr(st, "LANCZOS_RTOL", 0.0)
    monkeypatch.setattr(st, "LANCZOS_MAX_STEPS", 64)
    assert st._lanczos_sigma_min(S) == pytest.approx(
        _dense_smallest_singular(S), rel=1e-12)


def test_smallest_singular_ends_on_an_exhausted_krylov_space(monkeypatch):
    # with no residual tolerance only the beta test can end the run
    # before the loop runs out of its N steps; past exhaustion the
    # tridiagonal is no projection of T^{-H} T^{-1} any more
    S = st.finite_section(lambda j, n: np.where(j == 2, 0.5, 0.0), 64)
    monkeypatch.setattr(st, "LANCZOS_RTOL", 0.0)
    seen, value = _lanczos_tridiagonals(
        monkeypatch, lambda: st._lanczos_sigma_min(S))
    assert len(seen) < 64
    assert value == pytest.approx(_dense_smallest_singular(S), rel=1e-12)


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


def _gp_table_rule(table):
    # q_n = table[(n / 3^v_3(n)) mod len(table)]: a 3-periodic index table
    profs = [dl.OddModeProfile(q, 0.0) for q in table]

    def profiles(n):
        while n % 3 == 0:
            n //= 3
        return profs[n % len(table)]

    return lambda j, n: dl.trajectory_coeffs(profiles, 0.0, j, n)


INVERSE_RULES = {
    "ws": ws.cj_rule(0.5, 2, 0.0),
    "gp": gp.cj_rule(0.5, 0.0),
    "periodic": _gp_table_rule((0.3, 0.6)),
    "all-j": lambda j, n: 0.3 / j ** 2,
}


@pytest.mark.parametrize("N", [1, 2, 3, 17, 256])
@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("name", sorted(INVERSE_RULES))
def test_inverse_times_section_is_identity(name, N, complex_values):
    if complex_values:
        _assert_refused(_phased(INVERSE_RULES[name]), N)
        return
    S = st.finite_section(INVERSE_RULES[name], N)
    inv = S.inverse()
    assert inv.N == N and inv.values.dtype == S.values.dtype
    assert np.abs(inv.entries @ S.entries - np.eye(N)).max() < 1e-13


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("name", sorted(INVERSE_RULES))
def test_inverse_entries_unique_and_multiplicative(name, complex_values):
    N = 256
    if complex_values:
        _assert_refused(_phased(INVERSE_RULES[name]), N)
        return
    S = st.finite_section(INVERSE_RULES[name], N)
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
    S = st.finite_section(INVERSE_RULES["all-j"], 3000)
    inv = S.inverse()
    x = np.random.default_rng(3).standard_normal(3000)
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
    apply_l, ritz = st.SectionMatrix._apply_l, st._top_ritz_pair

    def counted_apply_l(self, x, adjoint):
        calls.append(adjoint)
        return apply_l(self, x, adjoint)

    def counted_ritz(alphas, betas, previous):   # one Ritz pair per step
        steps.append(len(alphas))
        return ritz(alphas, betas, previous)

    monkeypatch.setattr(st.SectionMatrix, "_apply_l", counted_apply_l)
    monkeypatch.setattr(st, "_top_ritz_pair", counted_ritz)
    st._lanczos_sigma_min(st.finite_section(INVERSE_RULES["gp"], N))
    assert steps == list(range(1, len(steps) + 1)) and len(steps) > 8
    assert calls == [False, True] * len(steps)


def _lanczos_tridiagonals(monkeypatch, run, stop=True):
    """The (alphas, betas) of every Lanczos step made by ``run()``, and
    what it returned. Unless ``stop``, the loop is told |y_k| = 1 and
    has no tolerance, so it runs until the basis fills the space."""
    seen = []
    ritz = st._top_ritz_pair

    def record(alphas, betas, previous):
        seen.append((list(alphas), list(betas)))
        theta, y_last = ritz(alphas, betas, previous)
        return theta, y_last if stop else 1.0

    with monkeypatch.context() as m:
        m.setattr(st, "_top_ritz_pair", record)
        if not stop:
            m.setattr(st, "LANCZOS_RTOL", 0.0)
        value = run()
    assert seen, "no Lanczos step was made"
    return seen, value


def _tridiagonal(alphas, betas):
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


def _section_run(name, N):
    return lambda: st._lanczos_sigma_min(
        st.finite_section(INVERSE_RULES[name], N))


def _halves_run():
    # the section of the step-guard test
    return st._lanczos_sigma_min(
        st.finite_section(lambda j, n: np.where(j == 2, 0.5, 0.0), 64))


def _random_runs():
    # the random rule of the dense-SVD comparison
    for N in (17, 257, 512):
        test_smallest_singular_matches_dense_svd(N, False)


@pytest.mark.parametrize("run, stop", [
    (_section_run("gp", 2048), True), (_section_run("ws", 2048), True),
    (_section_run("periodic", 256), True), (_random_runs, True),
    (_section_run("gp", 64), False), (_halves_run, False)],
    ids=["gp", "ws", "periodic", "random", "gp-full", "halves-full"])
def test_top_ritz_pair_matches_eigh(monkeypatch, run, stop):
    # theta to a few ulps and |y_k| against the dense eigh on every
    # tridiagonal of real Lanczos runs, warm-started as the loop does.
    # The runs that do not stop go on past convergence until the basis
    # fills the space: their last betas are rounding noise, and Ritz
    # values the 2 x 2 start cannot see grow in the new directions.
    # Against a 50-digit reference the O(k) pair is the closer one:
    # theta within 0.6 ulp where eigh is off by up to 6.5 ulp, and |y_k|
    # of an unsettled Ritz value (|y_k| ~ 0.2) within 2.3e-15 where
    # eigh is off by up to 6.2e-15. Once the Ritz value has settled,
    # the steps where |y_k| decides the stopping rule, the two agree
    # to 1e-15.
    pair, top, settled = None, None, 0
    for alphas, betas in _lanczos_tridiagonals(monkeypatch, run, stop)[0]:
        if len(alphas) == 1:
            pair = top = None
        pair = st._top_ritz_pair(alphas, betas, pair)
        ritz, vecs = np.linalg.eigh(_tridiagonal(alphas, betas))
        theta, y_last = pair
        assert abs(theta - ritz[-1]) <= 8 * math.ulp(ritz[-1])
        tol = 1e-15 if ritz[-1] == top else 1e-14
        settled += ritz[-1] == top
        assert abs(y_last - abs(vecs[-1, -1])) <= tol
        top = ritz[-1]
    assert settled > 0


@pytest.mark.parametrize("alphas, betas", [
    ([1.0, 2.0], [0.5]), ([3.0, -1.0], [2.0]), ([-1.0, 3.0], [1e-3]),
    ([1.0, 0.0], [1e-300]), ([0.0, 1.0], [1e-300]), ([1.0, 0.0], [1e-9]),
    ([0.0, 1.0, 0.5], [1e-9, 1e-12]), ([2.0, 1.0, 0.0], [1e-200, 1e-200])])
def test_top_ritz_pair_small_and_tiny_beta(alphas, betas):
    pair = None
    for k in range(1, len(alphas) + 1):
        pair = st._top_ritz_pair(alphas[:k], betas[:k - 1], pair)
        ritz, vecs = np.linalg.eigh(_tridiagonal(alphas[:k], betas[:k - 1]))
        assert abs(pair[0] - ritz[-1]) <= 4 * math.ulp(ritz[-1])
        assert abs(pair[1] - abs(vecs[-1, -1])) <= 1e-15
    assert st._top_ritz_pair([2.5], [], None) == (2.5, 1.0)


def test_top_ritz_pair_zero_pivots():
    # theta = 2 exactly: the last top-down and the first bottom-up pivot
    # of T - 2 are exact zeros
    assert st._top_ritz_pair([1.0, 1.0], [1.0], (1.0, 1.0)) == pytest.approx(
        (2.0, math.sqrt(0.5)), rel=1e-15)
    # theta rounds to alpha_1, so the first top-down pivot is zero
    theta, y_last = st._top_ritz_pair([1.0, 0.0], [1e-100], (1.0, 1.0))
    assert theta == 1.0 and y_last == pytest.approx(1e-100, rel=1e-15)
    # every pivot of T - 0 is zero
    assert st._top_ritz_pair([0.0, 0.0, 0.0], [0.0, 0.0],
                             (0.0, 1.0)) == (0.0, 0.0)


# Lanczos step counts and sigma_min of the dense-eigh Ritz solver that
# _top_ritz_pair replaced: the O(k) pair makes the same stopping
# decisions
PINNED_LANCZOS = {
    ("gp", 64): (28, 0.7382375607202663),
    ("gp", 256): (36, 0.7026199458926355),
    ("gp", 2048): (45, 0.6646860382228359),
    ("gp", 16384): (54, 0.6401235437387485),
    ("all-j", 64): (39, 0.9260125817672512),
    ("all-j", 256): (57, 0.9206532062306625),
    ("all-j", 2048): (85, 0.9157594676406203),
    ("all-j", 16384): (105, 0.9125556422229105),
    ("ws", 64): (22, 0.6792738412747398),
    ("ws", 256): (37, 0.674557582225601),
    ("ws", 2048): (67, 0.6712461754016075),
    ("ws", 16384): (103, 0.669655089422379),
    ("periodic", 64): (24, 0.7154684270325425),
    ("periodic", 256): (30, 0.6759148147674984),
    ("periodic", 2048): (36, 0.6318013954955318),
    ("periodic", 16384): (43, 0.6019772563057751),
}


@pytest.mark.parametrize("name, N", sorted(PINNED_LANCZOS))
def test_smallest_singular_pinned_steps(monkeypatch, name, N):
    steps, sigma = PINNED_LANCZOS[name, N]
    seen, value = _lanczos_tridiagonals(monkeypatch, _section_run(name, N))
    assert len(seen) == steps
    assert value == pytest.approx(sigma, rel=1e-14, abs=0)
    # smallest_singular, by blocks or by Lanczos, gives the same sigma
    S = st.finite_section(INVERSE_RULES[name], N)
    assert st.smallest_singular(S) == pytest.approx(sigma, rel=1e-14, abs=0)


def _ws_periodic_rule():
    # lam_n = (0.2, 0.5, 0.35)[(n / 2^v_2(n)) mod 3]: a 2-periodic table
    table = (0.2, 0.5, 0.35)

    def lam_of_n(n):
        while n % 2 == 0:
            n //= 2
        return table[n % 3]

    return ws.cj_rule(lam_of_n, 2, 0.0)


@pytest.mark.parametrize("N", [64, 256, 2048, 16384])
@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("rule", [ws.cj_rule(0.5, 2, 0.0), _ws_periodic_rule()],
                         ids=["ws", "ws-periodic"])
def test_dense_blocks_match_lanczos(rule, complex_values, N):
    # a ws section is a sum of chains {m 2^k}, so it takes the dense
    # route, and gives Lanczos's sigma_min on the whole section
    if complex_values:
        _assert_refused(_phased(rule), N)
        return
    S = st.finite_section(rule, N)
    assert np.bincount(st._components(S)).max() <= st.DENSE_BLOCK_MAX
    assert st.smallest_singular(S) == pytest.approx(
        st._lanczos_sigma_min(S), rel=1e-14, abs=0)


@pytest.mark.parametrize("c", [3.0, 6.0])
def test_dense_chain_against_mpmath(c):
    # c_2 = c alone: the chain of 1 is the 12 x 12 bidiagonal block
    # I + c (subdiagonal), and sigma_min (5.02e-6, 2.68e-9) is far below
    # the rounding of its other singular values
    mpmath = pytest.importorskip("mpmath")
    S = st.finite_section(lambda j, n: np.where(j == 2, c, 0.0), 2048)
    with mpmath.workdps(50):
        M = mpmath.eye(12)
        for i in range(1, 12):
            M[i, i - 1] = c
        ref = float(min(mpmath.svd_r(M, compute_uv=False)))
    assert ref == pytest.approx(5.02e-6 if c == 3.0 else 2.68e-9, rel=1e-3)
    assert st.smallest_singular(S) == pytest.approx(ref, rel=1e-14, abs=0)


def _union_find_labels(S):
    parent = list(range(S.N))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for r, c in zip(S.rows.tolist(), S.cols.tolist()):
        a, b = root(r), root(c)
        parent[max(a, b)] = min(a, b)
    return np.array([root(i) for i in range(S.N)])


@pytest.mark.parametrize("N", [1, 2, 97, 3000])
@pytest.mark.parametrize("support", ["2-3", "4-6-9", "random-0", "random-1"])
def test_components_match_union_find(support, N):
    # j in {2, 3} links 2^a 3^b m one step at a time. Under {4, 6, 9}
    # two least indices 2 and 3 meet only at their common multiple 12,
    # so the labels need a second sweep; the random sparse sets of j
    # (12 of 2..199, seeds 0 and 1) take three at N = 3000
    if support.startswith("random"):
        js = np.random.default_rng(int(support[-1])).choice(
            np.arange(2, 200), 12, replace=False)
    else:
        js = np.array([int(j) for j in support.split("-")])
    S = st.finite_section(lambda j, n: np.isin(j, js) * 0.25, N)
    assert np.array_equal(st._components(S), _union_find_labels(S))


def _kept_roots(S):
    """The least index (0-based) of every component that
    smallest_singular keeps, or None when it keeps the section whole."""
    labels = st._components(S)
    sizes = np.bincount(labels)
    kept = st._drop_leading_copies(S, labels, sizes)
    return None if kept is sizes else np.flatnonzero(kept).tolist()


def _leading_copies_reference(S, labels, sizes):
    """_drop_leading_copies from dense blocks: a component other than
    that of index 1 with 2 to len(top) indices is dropped when its block
    equals the leading block of that size of the block of index 1 (top);
    the single indices go along when anything is dropped."""
    A = S.entries
    top = np.flatnonzero(labels == 0)
    copies = []
    for root in np.flatnonzero(sizes)[1:]:
        mine = np.flatnonzero(labels == root)
        k = len(mine)
        if 2 <= k <= len(top) and np.array_equal(
                A[np.ix_(mine, mine)], A[np.ix_(top[:k], top[:k])]):
            copies.append(root)
    if not copies:
        return sizes
    kept = np.where(sizes == 1, 0, sizes)
    kept[copies] = 0
    return kept


def _random_sparse_rule(rng, N):
    # a random set of j, and c_j(n) from a few levels by j and n mod m,
    # so that blocks tie (m = 1: constant in n) or nearly tie; the level
    # 0 cuts links, so that some components outgrow that of index 1
    js = np.zeros(N + 1, dtype=bool)
    js[rng.choice(np.arange(2, N + 1), int(rng.integers(1, 12)),
                  replace=False)] = True
    m = int(rng.integers(1, 4))
    levels = rng.choice([0.0, 0.25, 0.5, -0.75], (N + 1, m))
    return lambda j, n: np.where(js[j], levels[j, n % m], 0.0)


def _random_table_rule(rng, family):
    # lam_n or q_n = table[(n / p^v_p(n)) mod len(table)], the table
    # from a few levels, so that some of its entries tie
    p = int(rng.choice([2, 3, 5])) if family == "ws" else 3
    table = rng.choice([0.2, 0.35, 0.5], int(rng.integers(2, 5)))
    alpha = float(rng.choice([0.0, 0.5]))
    if family == "ws":
        profs = [dl.LacunaryGeometricProfile(x, p, alpha) for x in table]
    else:
        profs = [dl.OddModeProfile(x, alpha) for x in table]

    def profiles(n):
        while n % p == 0:
            n //= p
        return profs[n % len(table)]

    return lambda j, n: dl.trajectory_coeffs(profiles, alpha, j, n)


@pytest.mark.parametrize("kind", ["sparse", "gp", "ws"])
def test_dropped_blocks_match_a_dense_reference(kind):
    # 24 random sections per kind at N <= 512: the kept components are
    # those the dense blocks give, and the section is kept whole (the
    # same array back) exactly when no block is a copy. The draws hold
    # components of a size that could be a copy, both dropped and kept
    rng = np.random.default_rng({"sparse": 61, "gp": 62, "ws": 63}[kind])
    fitting = np.zeros(2, dtype=int)     # (dropped, kept)
    for _ in range(24):
        N = int(rng.integers(2, 513))
        rule = (_random_sparse_rule(rng, N) if kind == "sparse"
                else _random_table_rule(rng, kind))
        S = st.finite_section(rule, N)
        labels = st._components(S)
        sizes = np.bincount(labels)
        kept = st._drop_leading_copies(S, labels, sizes)
        want = _leading_copies_reference(S, labels, sizes)
        assert (kept is sizes) == (want is sizes)
        assert np.array_equal(kept, want)
        fits = (sizes > 1) & (sizes <= sizes[0])
        fits[0] = False
        fitting += [(fits & (kept == 0)).sum(), (fits & (kept > 0)).sum()]
    assert fitting.min() > 0


def test_routing_by_largest_component(monkeypatch):
    # gp at N = 2048: the classes 2^k odd (k >= 1) are leading blocks of
    # the odd class, so Lanczos runs on its 1024 indices alone; ws: the
    # chains {n_0 2^l} are leading blocks of the chain of 1, so one
    # dense block is left, with no Lanczos step
    kept, lengths, dense = [], set(), []
    lanczos, apply_l = st._lanczos_sigma_min, st.SectionMatrix._apply_l
    dense_sigma_min = st._dense_sigma_min
    monkeypatch.setattr(st, "_lanczos_sigma_min", lambda S, mask=None: (
        kept.append(None if mask is None else int(mask.sum()))
        or lanczos(S, mask)))
    monkeypatch.setattr(st.SectionMatrix, "_apply_l", lambda self, x, adj: (
        lengths.add(len(x)) or apply_l(self, x, adj)))
    monkeypatch.setattr(st, "_dense_sigma_min", lambda S, labels, sizes: (
        dense.append(sizes[sizes > 0].tolist())
        or dense_sigma_min(S, labels, sizes)))
    gp_section = st.finite_section(INVERSE_RULES["gp"], 2048)
    _, value = _lanczos_tridiagonals(
        monkeypatch, lambda: st.smallest_singular(gp_section))
    assert kept == [1024] and lengths == {1024} and dense == []
    assert value == pytest.approx(PINNED_LANCZOS["gp", 2048][1], rel=1e-14,
                                  abs=0)
    st.smallest_singular(st.finite_section(INVERSE_RULES["ws"], 2048))
    assert kept == [1024] and dense == [[12]]
    # nothing dropped: Lanczos on the section itself
    st.smallest_singular(st.finite_section(INVERSE_RULES["all-j"], 256))
    assert kept == [1024, None] and lengths == {1024, 256}


@pytest.mark.parametrize("N", [64, 256, 512])
@pytest.mark.parametrize("name, roots", [
    # every component but that of 1 is a leading block of it
    ("gp", lambda N: [0]), ("ws", lambda N: [0]),
    # q_n from (0.2, 0.5, 0.4) by n / 3^v_3(n) mod 3: 4^k = 1 mod 3, so
    # the classes 4^k odd are copies of the odd class, and those 2 4^k
    # odd of two or more indices (3 2^k <= N) are not; the single
    # indices go along with the copies
    ("gp-mod-3", lambda N: [0] + [(1 << k) - 1 for k in range(1, 10, 2)
                                  if 3 << k <= N]),
    # one component
    ("all-j", lambda N: None),
    # c_j(1) = 0: index 1 is a component of its own, and nothing smaller
    # can be a copy of it
    ("singleton-1", lambda N: None)])
def test_dropped_blocks_leave_sigma_min_exact(name, roots, N):
    rule = {"gp-mod-3": _gp_table_rule((0.2, 0.5, 0.4)),
            "singleton-1": lambda j, n: np.where(n > 1, 0.3 / j, 0.0),
            }.get(name) or INVERSE_RULES[name]
    S = st.finite_section(rule, N)
    assert _kept_roots(S) == roots(N)
    sigma = st.smallest_singular(S)
    assert sigma == pytest.approx(_dense_smallest_singular(S), rel=1e-12)
    assert sigma == pytest.approx(st._lanczos_sigma_min(S), rel=1e-14, abs=0)


def _changed_at(rule, n0, change):
    """``rule`` with every c_j(n0), j >= 3, changed by ``change`` (j = 2
    links a ws chain, which stays whole)."""
    def changed(j, n):
        c = np.array(np.broadcast_to(rule(j, n), j.shape), dtype=float)
        at = (n == n0) & (j >= 3)
        c[at] = change(c[at])
        return c

    return changed


@pytest.mark.parametrize("change", [
    lambda c: np.nextafter(c, np.inf),   # one ulp up
    lambda c: 4.0 * c,
    lambda c: 0.0 * c],                  # the entries vanish
    ids=["ulp", "times-4", "zero"])
@pytest.mark.parametrize("name, n0, roots", [
    # index 10 lies in the class 2 odd (least index 2), index 3 on the
    # chain {3 2^l}
    ("gp", 10, [0, 1]), ("ws", 3, [0, 2])])
def test_a_changed_index_keeps_its_class(name, n0, roots, change):
    # a constant rule changed at one n inside a class that would be
    # dropped: that class is kept, and sigma_min stays exact
    S = st.finite_section(_changed_at(INVERSE_RULES[name], n0, change), 256)
    assert _kept_roots(S) == roots
    sigma = st.smallest_singular(S)
    assert sigma == pytest.approx(_dense_smallest_singular(S), rel=1e-12)
    assert sigma == pytest.approx(st._lanczos_sigma_min(S), rel=1e-14, abs=0)


def test_moved_entries_keep_their_class():
    # the values of two entries of row 30 (class 2 odd) swapped, so each
    # row keeps its count and sum, but two values change place: the
    # class is kept
    S = st.finite_section(INVERSE_RULES["gp"], 256)
    row = np.flatnonzero(S.rows == 29)
    assert len(row) >= 2
    values = S.values.copy()
    values[row[:2]] = values[row[1::-1]]
    moved = st.SectionMatrix(S.N, S.rows, S.cols, values)
    assert _kept_roots(moved) == [0, 1]
    assert st.smallest_singular(moved) == pytest.approx(
        _dense_smallest_singular(moved), rel=1e-12)


@pytest.mark.parametrize("edit", ["moved", "extra"])
def test_same_sums_other_block_keeps_its_class(edit):
    # c_j(n) = 1/4 on odd j: every sum is exact, so each edit inside the
    # class 2 odd keeps every row's values, and the class's sum:
    # "moved" takes the entry (30, 10) to (30, 14), 1-based, and
    # "extra" adds 1/4 at (30, 14) and -1/4 at (50, 22), after each
    # row's other entries
    S = st.finite_section(lambda j, n: np.where(j % 2 == 1, 0.25, 0.0), 256)
    rows, cols, values = S.rows, S.cols.copy(), S.values
    if edit == "moved":
        cols[(rows == 29) & (cols == 9)] = 13
    else:
        order = np.argsort(np.append(rows, [29, 49]), kind="stable")
        rows = np.append(rows, [29, 49])[order]
        cols = np.append(cols, [13, 21])[order]
        values = np.append(values, [0.25, -0.25])[order]
    edited = st.SectionMatrix(S.N, rows, cols, values)
    assert _kept_roots(edited) == [0, 1]
    assert st.smallest_singular(edited) == pytest.approx(
        _dense_smallest_singular(edited), rel=1e-12)


def test_sigma_min_imports_no_masked_arrays():
    # np.unique with no return_* argument takes numpy's hashing path,
    # which imports numpy.ma (8-16 ms) on first use
    src = Path(st.__file__).parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "from rieszcert import gross_pitaevskii as gp\n"
            "from rieszcert import spread_toeplitz as st\n"
            "from rieszcert import weierstrass as ws\n"
            "for rule in (ws.cj_rule(0.5, 2, 0.0), gp.cj_rule(0.5, 0.0)):\n"
            "    st.smallest_singular(st.finite_section(rule, 256))\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


@pytest.mark.filterwarnings("error")
def test_dense_inverse_overflow_raises():
    # the inverse of the chain of 1 holds (-1e200)^6: no float, no warning
    S = st.finite_section(lambda j, n: np.where(j == 2, 1e200, 0.0), 64)
    with pytest.raises(RieszcertError):
        st.smallest_singular(S)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e200, 1e50, 1e30, 1e20])
def test_lanczos_overflow_raises(c):
    # c_j = c on odd j couples the 128 odd indices into one component:
    # Lanczos. T^{-1} leaves the float range in the inverse (1e200) or
    # in the steps' products and norms (the others)
    S = st.finite_section(lambda j, n: np.where(j % 2 == 1, c, 0.0), 256)
    assert np.bincount(st._components(S)).max() > st.DENSE_BLOCK_MAX
    with pytest.raises(InverseOverflow):
        st.smallest_singular(S)


@pytest.mark.filterwarnings("error")
def test_lanczos_large_inverse_stays_finite():
    S = st.finite_section(lambda j, n: np.where(j % 2 == 1, 1e10, 0.0), 256)
    assert st.smallest_singular(S) == 1.0000000004000001e-50


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
    s = st.symbol_inf([0.3, 0.3])

    def cj(j, n):
        return np.where((j == 2) | (j == 4), 0.3, 0.0)

    sigmas = [st.smallest_singular(st.finite_section(cj, N))
              for N in (8, 32, 128, 512)]
    assert all(sig >= s - 1e-9 for sig in sigmas)
    assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(sigmas, sigmas[1:]))


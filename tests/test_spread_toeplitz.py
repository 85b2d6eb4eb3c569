"""Symbol-infimum certificates and finite-section cross-checks."""

import itertools
import math
import tracemalloc

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
        lambda j, n: float(j) ** alpha * profiles(n).coeff(j), N)
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


@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 257, 512])
@pytest.mark.parametrize("complex_values", [False, True])
def test_smallest_singular_matches_dense_svd(N, complex_values):
    rng = np.random.default_rng([N, complex_values])

    def cj(j, n):
        # one draw per pair (two, real then imaginary, for complex values)
        c = rng.uniform(-0.4, 0.4, (len(j), 1 + complex_values)) / j[:, None]
        return c[:, 0] + 1j * c[:, 1] if complex_values else c[:, 0]

    S = st.finite_section(cj, N)
    assert np.iscomplexobj(S.values) == (complex_values and N > 1)
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
            lambda j, n: rule(j, n) * np.exp(1j * (j + 2 * n)), N)
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


def _complex_runs():
    # the random complex rule of the dense-SVD comparison
    for N in (17, 257, 512):
        test_smallest_singular_matches_dense_svd(N, True)


@pytest.mark.parametrize("run, stop", [
    (_section_run("gp", 2048), True), (_section_run("ws", 2048), True),
    (_section_run("periodic", 256), True), (_complex_runs, True),
    (_section_run("gp", 64), False), (_halves_run, False)],
    ids=["gp", "ws", "periodic", "complex", "gp-full", "halves-full"])
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
    if complex_values:   # the same moduli with a phase per entry
        S = st.finite_section(
            lambda j, n: rule(j, n) * np.exp(1j * (j + 2 * n)), N)
    else:
        S = st.finite_section(rule, N)
    assert np.iscomplexobj(S.values) == complex_values
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


def test_routing_by_largest_component(monkeypatch):
    # the odd j of gp couple each 2-adic class (1024 indices at N = 2048)
    # into one component: Lanczos; the chains of ws: no Lanczos step
    calls = []
    lanczos = st._lanczos_sigma_min
    monkeypatch.setattr(st, "_lanczos_sigma_min",
                        lambda S: calls.append(S.N) or lanczos(S))
    gp_section = st.finite_section(INVERSE_RULES["gp"], 2048)
    seen, _ = _lanczos_tridiagonals(
        monkeypatch, lambda: st.smallest_singular(gp_section))
    assert len(seen) == PINNED_LANCZOS["gp", 2048][0] and calls == [2048]
    st.smallest_singular(st.finite_section(INVERSE_RULES["ws"], 2048))
    assert calls == [2048]


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


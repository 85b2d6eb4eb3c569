"""Lacunary-family certifiers and the constant-index pole line."""

import math

import numpy as np
import pytest

from rieszcert import polyform as pf
from rieszcert import spread_toeplitz as st
from rieszcert import weierstrass as ws
from rieszcert.certificate import ENVELOPE_RIGOROUS


def test_certify_S0_examples():
    cert = ws.certify_S0(ws.WeierstrassSpec(2, 0.0, 0.4, "S0"))
    assert cert.verdict is True
    assert cert.margins["coefficient_sum"] == pytest.approx(2 / 3)

    close = ws.certify_S0(ws.WeierstrassSpec(2, 0.0, 0.49999, "S0"))
    assert close.verdict is True
    assert close.margins["margin"] == pytest.approx(1 - 0.49999 / 0.50001,
                                                    abs=1e-9)

    assert ws.certify_S0(ws.WeierstrassSpec(2, 0.0, 0.5, "S0")).verdict is False


def test_certify_S0_boundary_exact():
    # verdict flips exactly at nu = 1/2
    for nu in (0.5 - 1e-12, 0.4999999):
        assert ws.certify_S0(ws.WeierstrassSpec(2, 0.0, nu, "S0")).verdict
    for nu in (0.5, 0.5 + 1e-12, 0.75):
        assert not ws.certify_S0(ws.WeierstrassSpec(2, 0.0, nu, "S0")).verdict


def test_minimal_degree_examples():
    assert ws.minimal_degree(0.4) == 1
    assert ws.geometric_tail(0.4, 1) == pytest.approx(0.16 / 0.6)
    assert ws.truncated_symbol_floor(0.4, 1) == pytest.approx(0.84 / 1.4)
    assert ws.minimal_degree(0.9) == 28


def test_minimal_degree_monotone_and_finite():
    degrees = [ws.minimal_degree(nu) for nu in np.linspace(0.05, 0.99, 40)]
    assert all(d >= 1 for d in degrees)
    assert degrees == sorted(degrees)


def test_minimal_degree_matches_simplified_inequality():
    # tail < floor reduces algebraically to 2 nu^{d+1} < 1 - nu
    rng = np.random.default_rng(77)
    for nu in rng.uniform(0.01, 0.995, 1000):
        d_direct = ws.minimal_degree(nu)
        d_simple = 1
        while not 2.0 * nu ** (d_simple + 1) < 1.0 - nu:
            d_simple += 1
        assert d_direct == d_simple


def test_symbol_floor_geometric_envelope():
    # full geometric symbol 1/(1 - nu z): disc minimum 1/(1 + nu) = 0.8 at
    # nu = 0.25, split exactly into the truncated floor and its tail
    nu = 0.25
    degrees = (1, 2, 4, 8, 16, 32)
    for d in degrees:
        full = (ws.truncated_symbol_floor(nu, d)
                + ws.geometric_tail(nu, d) * (1.0 - nu) / (1.0 + nu))
        assert full == pytest.approx(0.8)
    cert = ws.certify_S1(ws.WeierstrassSpec(2, 0.0, nu, "S1"))
    assert cert.mode == ENVELOPE_RIGOROUS
    # truncations approach the full-symbol value from below
    vals = [ws.truncated_symbol_floor(nu, d) for d in degrees]
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(0.8, abs=1e-9)


def test_geometric_perturbation_at_nu_09():
    # geometric envelope at nu = 0.9 with 28 structured degrees
    tail = ws.geometric_tail(0.9, 28)
    floor = ws.truncated_symbol_floor(0.9, 28)
    assert tail == pytest.approx(0.9 ** 29 / 0.1)
    assert tail < floor
    assert tail == pytest.approx(0.4712, abs=1e-3)
    assert floor == pytest.approx(0.5015, abs=1e-3)


def test_certify_S1_reports_both_margins():
    cert = ws.certify_S1(ws.WeierstrassSpec(2, 0.0, 0.9, "S1"))
    assert cert.verdict is True
    assert cert.margins["minimal_degree"] == 28
    assert cert.margins["tail_bound"] == pytest.approx(0.4712, abs=1e-3)
    assert cert.margins["symbol_floor"] == pytest.approx(0.5015, abs=1e-3)
    # the exact symbol minimum is at least the proven floor
    assert (cert.margins["symbol_exact_at_envelope"]
            >= cert.margins["symbol_floor"] - 1e-9)


def test_symbol_floor_is_true_lower_bound():
    rng = np.random.default_rng(13)
    for _ in range(150):
        nu = float(rng.uniform(0.02, 0.98))
        d = int(rng.integers(1, 11))
        exact = pf.min_modulus_disc([nu ** k for k in range(d + 1)])
        assert exact >= ws.truncated_symbol_floor(nu, d) - 1e-9


def test_S0_region_inside_S1_region():
    # wherever plain smallness certifies, the periodic certificate does too
    for nu in np.linspace(0.05, 0.45, 9):
        spec0 = ws.WeierstrassSpec(2, 0.0, nu, "S0")
        spec1 = ws.WeierstrassSpec(2, 0.0, nu, "S1")
        assert ws.certify_S0(spec0).verdict and ws.certify_S1(spec1).verdict


def test_spec_validation():
    with pytest.raises(ValueError):
        ws.WeierstrassSpec(1, 0.0, 0.4, "S0")
    with pytest.raises(ValueError):
        ws.WeierstrassSpec(2, 1.0, 0.6, "S1")  # mu >= p^-alpha
    with pytest.raises(ValueError):
        ws.WeierstrassSpec(2, 0.0, 0.4, "S2")
    for alpha in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            ws.WeierstrassSpec(2, alpha, 0.4, "S0")
    with pytest.raises(ValueError, match="p must not exceed the largest"):
        ws.WeierstrassSpec(10 ** 400, 0.0, 0.4, "S0")
    # mu just below 2^-0.01 whose nu = mu 2^0.01 rounds to 1: outside
    mu = math.nextafter(2 ** -0.01, 0.0)
    assert mu < 2 ** -0.01 and mu * 2 ** 0.01 == 1.0
    for region in ("S0", "S1"):
        with pytest.raises(ValueError, match=r"mu must lie in \(0, p\^"):
            ws.WeierstrassSpec(2, 0.01, mu, region)


def test_dirichlet_pole_abscissa():
    assert ws.dirichlet_pole_abscissa(0.5, 2) == pytest.approx(-1.0)
    assert ws.dirichlet_pole_abscissa(1 / math.sqrt(3), 3) == pytest.approx(-0.5)
    assert ws.dirichlet_pole_abscissa(0.5, 2) < 0


def test_dirichlet_symbol_no_zeros_right_half_plane():
    # |p^s / (p^s - lam)| >= |p^s| / (|p^s| + lam) >= 1/(1 + lam) on Re s >= 0
    lam, p = 0.5, 2
    floor = 1.0 / (1.0 + lam)
    for sigma in np.linspace(0.0, 3.0, 7):
        for t in np.linspace(-20.0, 20.0, 41):
            val = abs(ws.dirichlet_symbol(lam, p, complex(sigma, t)))
            assert val >= floor - 1e-12


def test_section_floor_constant_index():
    # nu = 1/2, p = 2: every section's smallest singular value dominates
    # 1/(1+nu) = 2/3 and decreases with the section size
    rule = ws.cj_rule(0.5, 2, 0.0)
    sigmas = [st.smallest_singular(st.finite_section(rule, N))
              for N in (64, 256)]
    assert all(s >= 2 / 3 - 1e-9 for s in sigmas)
    assert sigmas[0] >= sigmas[1] - 1e-12


def test_cj_rule_variable_indices():
    lam_fn = lambda n: 0.25 if n % 2 else 0.5
    rule = ws.cj_rule(lam_fn, 2, 1.0)
    assert rule(2, 1) == pytest.approx(0.5)   # (0.25 * 2)^1
    assert rule(4, 1) == pytest.approx(0.25)  # (0.25 * 2)^2
    assert rule(2, 2) == pytest.approx(1.0)   # (0.5 * 2)^1
    assert rule(3, 1) == 0.0
    assert rule(1, 5) == 0.0

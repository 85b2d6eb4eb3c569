"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. Tolerances are fixed here, not configurable.

The eigenfunction criterion uses a 5-point (4th-order) finite-difference
stencil on the stated 1e-3 grid: the plain 3-point stencil's own
truncation error at that spacing reaches ~9e-3 for the stiffest
parameter pair (n=2, mu=0.8), an order above the 1e-3 tolerance, so it
cannot resolve whether the series solves the equation. The companion
module test covers the 3-point stencil where it is accurate (n=1,
mu=0.5).
"""

import itertools
import math
import time

import numpy as np

from rieszcert import gross_pitaevskii as gp
from rieszcert import polydisc as pd
from rieszcert import polyform as pf
from rieszcert import spread_toeplitz as st
from rieszcert import weierstrass as ws


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_reference_threshold_value():
    t0 = time.perf_counter()
    r0 = gp.solve_r0(0.0, terms=500)
    elapsed = time.perf_counter() - t0
    ok = abs(r0 - 0.76806) <= 1e-3 and elapsed < 1.0
    _report(1, ok, f"r0(0) = {r0:.6f} (+-1e-3 of 0.76806), {elapsed:.3f} s")


def test_criterion_02_threshold_curves():
    t0 = time.perf_counter()
    grid = [round(0.1 * i, 10) for i in range(21)]
    rows = [(gp.solve_r0(a), gp.solve_r1(a, 3), gp.solve_r1_tilde(a, 3))
            for a in grid]
    elapsed = time.perf_counter() - t0
    ordered = all(r0 < r1 < rt for r0, r1, rt in rows)
    decreasing = all(
        prev[0] > cur[0] and prev[1] > cur[1] and prev[2] > cur[2]
        for prev, cur in zip(rows, rows[1:]))
    ok = ordered and decreasing and elapsed < 30.0
    _report(2, ok, f"21-point curves ordered and decreasing, {elapsed:.1f} s")


def test_criterion_03_quadratic_minimum_vs_grid():
    rng = np.random.default_rng(2024)
    # |1 + a z + b z^2|^2 = 1 + a^2 + b^2 + 2a(1+b) cos t + 2b cos 2t on
    # the circle z = e^{it}, for real a and b
    theta = 2.0 * np.pi * np.arange(1_000_000) / 1_000_000
    cos1 = np.cos(theta)
    cos2 = np.cos(2.0 * theta)
    worst = 0.0
    count = 0
    while count < 1000:
        if rng.uniform() < 0.5:
            lam = rng.uniform(0.0, 0.9, 2)
            a, b = float(lam.sum()), float(lam.prod())
        else:
            x, y = rng.uniform(0.0, 0.9, 2)
            if x * x + y * y >= 0.81:
                continue
            a, b = 2.0 * x, x * x + y * y
        if b <= 1e-6:
            continue
        count += 1
        grid_min = math.sqrt(float((
            (2.0 * a * (1.0 + b)) * cos1 + (2.0 * b) * cos2).min())
            + 1.0 + a * a + b * b)
        closed = gp.min_quadratic(a, b)
        worst = max(worst, abs(closed - grid_min) / grid_min)
    ok = worst <= 1e-6
    _report(3, ok, f"1000 pairs vs 1e6-point circle grid, "
                   f"max rel err {worst:.2e} <= 1e-6")


def test_criterion_04_oracle_agreement():
    rng = np.random.default_rng(777)
    checked = 0
    disagreements = 0
    beta_flips = 0
    while checked < 10_000:
        d = int(rng.integers(1, 6))
        c = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        mag = np.abs(c)
        c = np.where(mag > 2.0, c * (2.0 / mag), c)
        rv = pd.in_polydisc_roots(c)
        if abs(rv.margin) <= 1e-6:
            continue
        checked += 1
        verdicts = set()
        for _ in range(10):
            r = 0.9 * np.sqrt(rng.uniform(0, 1, d))
            betas = r * np.exp(2j * np.pi * rng.uniform(0, 1, d))
            verdicts.add(pd.in_polydisc_schur_cohn(c, betas).inside)
        if len(verdicts) != 1:
            beta_flips += 1
        if verdicts != {rv.inside}:
            disagreements += 1
    ok = disagreements == 0 and beta_flips == 0
    _report(4, ok, f"10^4 polynomials: {disagreements} oracle disagreements, "
                   f"{beta_flips} beta-dependent verdicts")


def test_criterion_05_model_and_realization_residuals():
    rng = np.random.default_rng(31415)

    def disc(d, radius):
        r = radius * np.sqrt(rng.uniform(0, 1, d))
        return r * np.exp(2j * np.pi * rng.uniform(0, 1, d))

    grid = np.linspace(-0.9, 0.9, 20)
    worst_model = 0.0
    for d in (1, 2, 3, 4):
        for _ in range(2):
            lams = disc(d, 0.95)
            worst_model = max(
                pd.model_residual(lams, z, w) for z in grid for w in grid)

    worst_form = 0.0
    for d in (2, 3, 4):
        for _ in range(10):
            lams = disc(d, 0.9)
            Y = pd.ptak_young(disc(d, 0.9))
            H = pd.schur_cohn_form(pd.monic_coeffs(lams), Y)
            x = disc(d, 1.0)
            quad = float((x.conj() @ (H @ x)).real)
            worst_form = max(worst_form,
                             abs(quad - pd.hermitian_form_tm(lams, Y, x)))

    worst_real = 0.0
    for d in (1, 2, 3, 4):
        for _ in range(3):
            lams = disc(d, 0.9)
            Y = pd.ptak_young(disc(d, 0.9))
            H = pd.realization(Y, lams)
            cs = pd.monic_coeffs(lams)
            SC = pd.schur_cohn_form(cs, Y)
            stack = pd.tm_stack(lams, Y.matrix)
            QY = pd.conjugate_poly(cs, Y.matrix)
            for _ in range(100):
                x = disc(d, 1.0)
                lhs = float(np.linalg.norm(H @ (stack @ (QY @ x))) ** 2)
                rhs = float((x.conj() @ (SC @ x)).real)
                worst_real = max(worst_real, abs(lhs - rhs))

    ok = worst_model < 1e-10 and worst_form < 1e-9 and worst_real < 1e-8
    _report(5, ok, f"model {worst_model:.2e} < 1e-10, "
                   f"form {worst_form:.2e} < 1e-9, "
                   f"realization {worst_real:.2e} < 1e-8")


def test_criterion_06_lambert_triangle():
    worst_lambert = max(
        abs(gp.s_alpha(q, a, 2000).value - gp.s_alpha_lambert(q, a))
        for q in np.arange(0.1, 0.75, 0.1) for a in (0.0, 1.0, 2.0))
    worst_elliptic = max(
        abs(gp.s1_elliptic(q) - gp.s_alpha(q, 1.0, 3000).value)
        for q in np.arange(0.1, 0.65, 0.1))
    worst_split = 0.0
    n = np.arange(1, 2000)
    for a in (0.0, 1.0, 2.0):
        f = lambda m: float(m) ** a
        for r in (0.15, 0.4, 0.65):
            lhs = (gp.lambert_series(f, r, 2000).value
                   - gp.lambert_series(f, r * r, 2000).value)
            rhs = float((n ** a * r ** n / (1.0 - r ** (2 * n))).sum())
            worst_split = max(worst_split, abs(lhs - rhs))
    ok = (worst_lambert < 1e-10 and worst_elliptic < 1e-8
          and worst_split < 1e-12)
    _report(6, ok, f"series vs Lambert {worst_lambert:.2e} < 1e-10, "
                   f"vs elliptic {worst_elliptic:.2e} < 1e-8, "
                   f"splitting {worst_split:.2e} < 1e-12")


def test_criterion_07_elliptic_kernel():
    K0, _ = gp.complete_elliptic(0.0)
    dev_K0 = abs(K0 - math.pi / 2)

    dev_nome = abs(gp.nome(1 / math.sqrt(2)) - math.exp(-math.pi))

    theta = np.linspace(0.0, math.pi / 2, 1_000_001)
    f = 1.0 / np.sqrt(1.0 - (0.9 * np.sin(theta)) ** 2)
    h = theta[1] - theta[0]
    quad = h / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-2:2].sum())
    dev_quad = abs(gp.complete_elliptic(0.9)[0] - quad)

    ok = dev_K0 <= 1e-14 and dev_nome <= 1e-12 and dev_quad < 1e-9
    _report(7, ok, f"K(0) dev {dev_K0:.1e} <= 1e-14, "
                   f"nome dev {dev_nome:.1e} <= 1e-12, "
                   f"AGM vs quadrature {dev_quad:.1e} < 1e-9")


def test_criterion_08_weierstrass_certifiers():
    boundary_ok = all(
        ws.certify_S0(ws.WeierstrassSpec(2, 0.0, nu, "S0")).verdict
        is (nu < 0.5)
        for nu in (0.3, 0.5 - 1e-12, 0.4999999, 0.5, 0.5 + 1e-12, 0.7))

    d_ok = ws.minimal_degree(0.9) == 28

    rng = np.random.default_rng(606)
    worst = math.inf
    for _ in range(1000):
        nu = float(rng.uniform(0.02, 0.98))
        d = int(rng.integers(1, 13))
        exact = pf.min_modulus_disc([nu ** k for k in range(d + 1)])
        worst = min(worst, exact - ws.truncated_symbol_floor(nu, d))
    floor_ok = worst >= -1e-9

    ok = boundary_ok and d_ok and floor_ok
    _report(8, ok, f"S0 boundary exact, minimal degree(0.9) = "
                   f"{ws.minimal_degree(0.9)}, floor slack {worst:.2e} "
                   f">= -1e-9 over 10^3 samples")


def test_criterion_09_section_compression():
    t0 = time.perf_counter()
    rule = ws.cj_rule(0.5, 2, 0.0)  # nu = 0.5, s(T) = 2/3
    sigmas = [st.smallest_singular(st.finite_section(rule, N))
              for N in (256, 1024, 4096)]
    elapsed = time.perf_counter() - t0
    above = all(s >= 2 / 3 - 1e-9 for s in sigmas)
    monotone = sigmas[0] >= sigmas[1] >= sigmas[2]
    close = sigmas[2] <= 2 / 3 + 0.02
    ok = above and monotone and close and elapsed < 60.0
    _report(9, ok, f"sigma_min {['%.5f' % s for s in sigmas]} vs 2/3, "
                   f"{elapsed:.1f} s")


def test_criterion_10_certificate_threshold_coherence():
    rng = np.random.default_rng(4242)
    mismatches = 0
    tested = 0
    r1_cache = {}
    while tested < 1000:
        alpha = round(float(rng.uniform(0.0, 2.0)), 3)
        p = int(rng.choice([3, 5, 7]))
        sup_q = float(rng.uniform(0.02, 0.98))
        key = (alpha, p)
        if key not in r1_cache:
            r1_cache[key] = gp.solve_r1(alpha, p)
        r1 = r1_cache[key]
        if abs(sup_q - r1) <= 1e-6:
            continue
        tested += 1
        if gp.certify_T1(sup_q, alpha, p).verdict is not (sup_q < r1):
            mismatches += 1
    ok = mismatches == 0
    _report(10, ok, f"10^3 samples, p in {{3,5,7}}: {mismatches} "
                    f"verdict/threshold mismatches")


def test_criterion_11_eigenfunction_residual():
    h = 1e-3
    x = np.arange(0.0, 1.0 + h / 2, h)
    worst = 0.0
    endpoints_exact = True
    for n, mu in itertools.product((1, 2), (0.3, 0.5, 0.8)):
        u = gp.eigenfunction(n, mu, x)
        endpoints_exact &= (u[0] == 0.0 and u[-1] == 0.0)
        eta = gp.eigenvalue(n, mu)
        upp = (-u[4:] + 16 * u[3:-1] - 30 * u[2:-2] + 16 * u[1:-3]
               - u[:-4]) / (12 * h * h)
        resid = float(np.abs(upp - u[2:-2] ** 3 + eta * u[2:-2]).max())
        worst = max(worst, resid)
    ok = worst < 1e-3 and endpoints_exact
    _report(11, ok, f"max interior residual {worst:.2e} < 1e-3, "
                    f"endpoint values exact")

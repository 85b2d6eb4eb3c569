"""Certificates pinned to values recorded with the earlier root-finder
symbol kernel (Aberth roots in ``min_modulus_disc``).

The Schur-Cohn zero test decides the same zero-freeness, and the circle
minimum, now found by Newton steps from FFT samples instead of
golden-section search from np.polyval samples, agrees with the old one
to about 1e-14 relative, so every certificate that the old kernel
returned keeps its numbers within the tolerance below: ``certify_Td``
on a seeded grid of degrees 3..7 (q in (0.02, 0.98), alpha in (0, 2),
p in {3, 5, 7}) and ``certify_S1`` on the S1 band nu = 0.98 .. 0.99 of
the certify-mix benchmark. The grid points on which the old kernel
raised (overflow warnings, NonConvergence) are listed under
``td_raised``; they must now return, with the zero decision of an
independent 50-digit root finder.

Keys, verdict, mode and parameters must match exactly and margins to
1e-12 relative, as in the golden CLI test, so that another libm cannot
fail the comparison.
"""

import json
from pathlib import Path

import pytest

from rieszcert import gross_pitaevskii as gp
from rieszcert import polyform as pf
from rieszcert import weierstrass as ws

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned_certificates.json").read_text())


def _assert_same(cert, recorded):
    got = json.loads(cert.to_json())
    assert {k: v for k, v in got.items() if k != "margins"} == {
        k: v for k, v in recorded.items() if k != "margins"}
    assert got["margins"].keys() == recorded["margins"].keys()
    for key, value in recorded["margins"].items():
        assert got["margins"][key] == pytest.approx(value, rel=1e-12,
                                                    abs=0.0), key


@pytest.mark.parametrize("row", PINNED["td"],
                         ids=lambda row: "q{:.3f}-a{:.3f}-p{}-d{}".format(
                             *row["args"]))
def test_certify_Td_pinned(row):
    _assert_same(gp.certify_Td(*row["args"]), row["certificate"])


@pytest.mark.parametrize("row", PINNED["s1_band"],
                         ids=lambda row: "p{}-a{}-mu{:.4f}".format(
                             *row["args"]))
def test_certify_S1_band_pinned(row):
    p, alpha, mu = row["args"]
    cert = ws.certify_S1(ws.WeierstrassSpec(p=p, alpha=alpha, mu=mu))
    _assert_same(cert, row["certificate"])


def _weights(q, alpha, p, degree):
    return [gp.structured_weight(q, alpha, p, k)
            for k in range(1, degree + 1)]


@pytest.mark.parametrize("args", PINNED["td_raised"],
                         ids=lambda a: "q{:.3f}-a{:.3f}-p{}-d{}".format(*a))
def test_certify_Td_formerly_raising(args):
    mpmath = pytest.importorskip("mpmath")
    cert = gp.certify_Td(*args)
    assert cert.verdict in (True, False)
    coeffs = pf.as_poly([1.0] + _weights(*args)).coeffs
    with mpmath.workdps(50):
        smallest = min(abs(r) for r in mpmath.polyroots(
            [mpmath.mpf(c.real) for c in reversed(coeffs)],
            maxsteps=500, extraprec=2000))
        zero_free = bool(smallest > 1 + mpmath.mpf(pf.BOUNDARY_TOL))
    assert (cert.margins["symbol_inf"] > 0.0) == zero_free
    if not zero_free:
        assert cert.verdict is False

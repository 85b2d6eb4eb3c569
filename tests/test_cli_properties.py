"""Property tests over the JSON schemas of ``certify`` and ``section``.

The contract: every parameter object exits with 0, 1, 2 or 3; a missing
key, a value of the wrong type or a value outside the family's domain
exits 2 with nothing on stdout, and an input inside the domain never
does; stderr is empty or exactly one line, never a traceback or a
warning. Inside the domain, the floor ``section`` predicts lies below
sigma_min of every finite section, and sigma_min does not grow with the
section size.

The draws reach the Weierstrass S1 certificate at nu = 0.999 (symbol
degree 7597) and the experimental gp certificate at degrees 3..8, and
the two tests at the end pin the inputs on which the symbol kernel
once printed RuntimeWarnings.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rieszcert import cli
from rieszcert import gross_pitaevskii as gp
from rieszcert import spread_toeplitz
from rieszcert.errors import NotInG2

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

ABSENT = object()

WRONG_TYPE = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                       st.lists(st.integers(), max_size=2))
NOT_INT = st.one_of(WRONG_TYPE, st.floats())
NOT_FLOAT = WRONG_TYPE
NOT_STR = WRONG_TYPE.filter(lambda v: not isinstance(v, str))


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# a p beyond the float range is outside both specs
P_OK = st.integers(2, 12)
P_BAD = st.one_of(st.integers(-10**6, 1), st.integers(10**309, 10**400))
# the gp family refuses an even p: its odd-mode series has no
# coefficient at the modes p and p^2
GP_P_OK = st.integers(1, 6).map(lambda k: 2 * k + 1)
GP_P_BAD = st.one_of(P_BAD, st.integers(1, 6).map(lambda k: 2 * k))
ALPHA_OK = _finite(0.0, 3.0)
ALPHA_BAD = st.one_of(_finite(-1e300, -1e-300),
                      st.sampled_from([math.nan, math.inf, -math.inf]))
# near q = 1 the tail bound of the 500-term mode sum turns infinite
Q_OK = st.one_of(_finite(1e-6, 0.99), _finite(0.99, 1.0 - 1e-12))
Q_BAD = st.one_of(_finite(-10.0, 0.0), _finite(1.0, 10.0),
                  st.just(math.nan))
TERMS_OK = st.integers(1, 2000)
TERMS_BAD = st.one_of(st.integers(-10**6, 0),
                      st.integers(1_000_001, 10**12))
# degree 2 is the closed-form T1, every other degree the experimental
# certify_Td. From degree 1024 on, p^degree overflows a float at every
# p of P_OK.
DEGREE_OK = st.integers(1, 8)
DEGREE_BAD = st.one_of(st.integers(-10**6, 0), st.integers(1024, 10**6))
REGION_OK = st.sampled_from(["S0", "S1"])
REGION_BAD = st.text(max_size=3).filter(lambda r: r not in ("S0", "S1"))


def _key(draw, broken, ok, bad, wrong, optional=False):
    """One key of a parameter object: an in-domain value (or, when
    optional, none) unless ``broken``; else an out-of-domain value of
    the right type, a value of the wrong type or, when required, none."""
    if not broken:
        return ABSENT if optional and draw(st.booleans()) else draw(ok)
    kinds = ["bad", "wrong"] + ([] if optional else ["absent"])
    kind = draw(st.sampled_from(kinds))
    return ABSENT if kind == "absent" else draw(bad if kind == "bad"
                                                else wrong)


def _broken(draw, keys):
    """The keys to break: none for about half of the objects."""
    return draw(st.one_of(st.just(frozenset()),
                          st.frozensets(st.sampled_from(keys), min_size=1,
                                        max_size=2)))


def _object(family, values, broken):
    obj = {"family": family}
    obj.update({k: v for k, v in values.items() if v is not ABSENT})
    return obj, not broken


def _envelope(draw, broken, p, alpha, nu_max):
    """A Weierstrass envelope mu = nu / p^alpha with nu in (0, nu_max]
    when in the domain, else nu >= 1.001, mu <= 0 or NaN."""
    # P_OK's range: a huge bad p would overflow p ** alpha
    usable = (isinstance(p, int) and 2 <= p <= 12
              and isinstance(alpha, float) and 0.0 <= alpha < math.inf)
    scale = p ** alpha if usable else 1.0
    ok = _finite(1e-6, nu_max).map(lambda nu: nu / scale)
    bad = st.one_of(_finite(1.001, 10.0).map(lambda nu: nu / scale),
                    _finite(-1.0, 0.0), st.just(math.nan))
    return _key(draw, broken, ok, bad, NOT_FLOAT)


@st.composite
def certify_params(draw):
    family = draw(st.sampled_from(["weierstrass", "gp", "other"]))
    if family == "gp":
        broken = _broken(draw, ["sup_q", "alpha", "p", "terms", "degree"])
        return _object(family, {
            "sup_q": _key(draw, "sup_q" in broken, Q_OK, Q_BAD, NOT_FLOAT),
            "alpha": _key(draw, "alpha" in broken, ALPHA_OK, ALPHA_BAD,
                          NOT_FLOAT),
            "p": _key(draw, "p" in broken, GP_P_OK, GP_P_BAD, NOT_INT),
            "terms": _key(draw, "terms" in broken, TERMS_OK, TERMS_BAD,
                          NOT_INT, optional=True),
            "degree": _key(draw, "degree" in broken, DEGREE_OK, DEGREE_BAD,
                           NOT_INT, optional=True)}, broken)
    if family == "weierstrass":
        broken = _broken(draw, ["p", "alpha", "mu", "region"])
        p = _key(draw, "p" in broken, P_OK, P_BAD, NOT_INT)
        alpha = _key(draw, "alpha" in broken, ALPHA_OK, ALPHA_BAD, NOT_FLOAT)
        region = _key(draw, "region" in broken, REGION_OK, REGION_BAD,
                      NOT_STR)
        mu = _envelope(draw, "mu" in broken, p, alpha, 0.999)
        return _object(family, {"p": p, "alpha": alpha, "mu": mu,
                                "region": region}, broken)
    return draw(_garbage())


@st.composite
def section_params(draw):
    family = draw(st.sampled_from(["weierstrass", "gp", "identity",
                                   "other"]))
    if family == "gp":
        broken = _broken(draw, ["q", "alpha", "p"])
        return _object(family, {
            "q": _key(draw, "q" in broken, Q_OK, Q_BAD, NOT_FLOAT),
            "alpha": _key(draw, "alpha" in broken, ALPHA_OK, ALPHA_BAD,
                          NOT_FLOAT, optional=True),
            "p": _key(draw, "p" in broken, GP_P_OK, GP_P_BAD, NOT_INT,
                      optional=True)}, broken)
    if family == "weierstrass":
        broken = _broken(draw, ["lam", "p", "alpha"])
        p = _key(draw, "p" in broken, P_OK, P_BAD, NOT_INT)
        alpha = _key(draw, "alpha" in broken, ALPHA_OK, ALPHA_BAD,
                     NOT_FLOAT, optional=True)
        lam = _envelope(draw, "lam" in broken, p,
                        0.0 if alpha is ABSENT else alpha, 0.999)
        return _object(family, {"lam": lam, "p": p, "alpha": alpha}, broken)
    if family == "identity":
        return {"family": "identity"}, True
    return draw(_garbage())


def _garbage():
    """An unknown or mistyped family, or JSON that is not an object."""
    return st.one_of(
        st.one_of(st.text(max_size=8), WRONG_TYPE)
        .filter(lambda f: f not in ("weierstrass", "gp", "identity"))
        .map(lambda f: ({"family": f}, False)),
        st.just(({}, False)),
        st.one_of(WRONG_TYPE, st.integers()).map(lambda v: (v, False)))


def _run(argv):
    """cli.main with every warning raised as an error. The property tests
    set this filter here rather than by a filterwarnings mark, which
    would also cover hypothesis's failure report: its optional imports
    can warn, and an error there aborts the whole pytest session."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(code, out, err, in_domain):
    assert code in (0, 1, 2, 3)
    assert err == "" or (err.endswith("\n") and err.count("\n") == 1), err
    assert "Traceback" not in err
    if in_domain:
        assert code != 2, err
    else:
        assert code == 2 and out == "", (code, err)


@PROPERTY
@given(certify_params())
def test_certify_schema_contract(case):
    params, in_domain = case
    code, out, err = _run(["certify", json.dumps(params)])
    _check_contract(code, out, err, in_domain)
    if code in (0, 1):
        assert json.loads(out)["verdict"] is (code == 0)


@PROPERTY
@given(section_params())
def test_section_schema_contract(case):
    params, in_domain = case
    code, out, err = _run(["section", json.dumps(params), "--size", "16"])
    _check_contract(code, out, err, in_domain)
    if code == 0:
        assert out.startswith("family            ")


@pytest.mark.filterwarnings("error")
def test_certify_S1_near_one_without_warnings():
    _run(["certify", '{"family":"weierstrass","p":2,"alpha":0,'
                     '"mu":0.99,"region":"S1"}'])


@pytest.mark.filterwarnings("error")
def test_certify_gp_degree3_without_warnings():
    _run(["certify", '{"family":"gp","p":7,"alpha":2.6253512273463824,'
                     '"sup_q":0.048017423417903715,"degree":3}'])


@st.composite
def section_specs(draw):
    """In-domain ``section`` parameters of the two families."""
    alpha = draw(ALPHA_OK)
    if draw(st.booleans()):
        p = draw(P_OK)
        lam = draw(_finite(1e-6, 0.999)) / p ** alpha
        return {"family": "weierstrass", "lam": lam, "p": p, "alpha": alpha}
    return {"family": "gp", "q": draw(Q_OK), "alpha": alpha,
            "p": draw(GP_P_OK)}


@PROPERTY
@given(section_specs(), st.sampled_from([64, 128, 256]))
# gp at an even p: the odd-mode series has no coefficient at modes p and
# p^2, and taking the weights there as one put the floor 0.907 above
# sigma_min 0.737. Such a p is now refused with exit 2.
@example({"family": "gp", "q": 0.2, "alpha": 0.6, "p": 2}, 64)
def test_section_floor_brackets_sigma_min(params, N):
    # The symbol floor bounds 1/||T^{-1}|| from below: 1/(1 + nu) for
    # the constant Weierstrass envelope, max(0, structured - tail) for
    # gp. T is lower triangular, so P_N T^{-1} P_N = (P_N T P_N)^{-1}
    # and sigma_min(T_N) >= 1/||T^{-1}|| cannot rise with N; a Ritz
    # value that overshot the top eigenvalue would break either bound.
    if params["family"] == "gp" and params["p"] % 2 == 0:
        code, out, err = _run(["section", json.dumps(params), "--size",
                               str(N)])
        assert (code, out) == (2, "") and "p must be odd" in err
        return
    try:
        rule, floor, _, _ = cli._section_setup(params, gp.DEFAULT_TERMS)
    except NotInG2:   # no structured floor: the size bound alone
        rule, floor = gp.cj_rule(params["q"], params["alpha"]), 0.0
    sigma, sigma2 = (spread_toeplitz.smallest_singular(
        spread_toeplitz.finite_section(rule, n)) for n in (N, 2 * N))
    assert floor <= sigma * (1.0 + 1e-12)
    assert sigma2 <= sigma * (1.0 + 1e-12)

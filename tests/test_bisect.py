"""bisect_monotone returns plain bisection's float, bit for bit, with
far fewer calls of f."""

import functools
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rieszcert import util
from rieszcert.errors import BracketFailure
from rieszcert.util import bisect_monotone

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=400)

# f calls bisect_monotone may make beyond plain bisection's: its
# narrowing phase makes at most 24, and every call of its replay is at a
# midpoint plain bisection also evaluates
EXTRA_CALLS = 24


def plain_bisection(f, lo, hi, tol=1e-9, max_iter=200):
    """bisect_monotone as it was before the narrowing phase: the
    reference it must reproduce."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketFailure(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def path_midpoints(lo, hi, target, tol, max_iter):
    """The midpoints plain bisection visits for f(x) = x - target."""
    mids = []
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        if mid == target:
            break
        lo, hi = (mid, hi) if mid < target else (lo, mid)
    return mids


# each shape is 0 at r alone and has the sign of x - r elsewhere
SHAPES = {
    "affine": lambda x, r, k: k * (x - r),
    "cubic": lambda x, r, k: k * (x - r) ** 3 + (x - r),
    "expm1": lambda x, r, k: math.expm1(k * (x - r)),
}

ENDS = st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).filter(
    lambda e: e[0] < e[1])
TOLS = st.sampled_from([1e-3, 1e-9, 1e-14, 1e-300])
MAX_ITERS = st.sampled_from([3, 200])


class Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def check_same(f, lo, hi, tol, max_iter):
    """Both bisections on f, with at most ``max_iter`` halvings: equal
    floats, or the same BracketFailure, and bisect_monotone within
    EXTRA_CALLS calls of the reference."""
    new, ref = Counted(f), Counted(f)
    plain = functools.partial(plain_bisection, max_iter=max_iter)
    outcomes = []
    with mock.patch.object(util, "BISECT_MAX_ITER", max_iter):
        for run, g in ((bisect_monotone, new), (plain, ref)):
            try:
                outcomes.append(run(g, lo, hi, tol=tol).hex())
            except BracketFailure as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert new.calls <= ref.calls + EXTRA_CALLS
    return new.calls, ref.calls


@PROPERTY
@given(shape=st.sampled_from(sorted(SHAPES)), ends=ENDS,
       r=st.floats(-12.0, 12.0), k=st.floats(1.0, 30.0),
       decreasing=st.booleans(), tol=TOLS, max_iter=MAX_ITERS)
@example(shape="expm1", ends=(1e-9, 1.0 - 1e-9), r=0.3, k=30.0,
         decreasing=False, tol=1e-9, max_iter=200)
def test_same_float_as_plain_bisection(shape, ends, r, k, decreasing, tol,
                                       max_iter):
    # r outside [lo, hi] checks the BracketFailure; an affine f often
    # puts the first secant point on r itself, an exact zero off the path
    sign = -1.0 if decreasing else 1.0
    f = lambda x: sign * SHAPES[shape](x, r, k)  # noqa: E731
    check_same(f, *ends, tol, max_iter)


@PROPERTY
@given(ends=ENDS, r=st.floats(0.0, 1.0), cut=st.floats(0.0, 1.0),
       tol=TOLS, max_iter=MAX_ITERS)
def test_same_float_past_a_step_to_infinity(ends, r, cut, tol, max_iter):
    # f = x - r below c and +inf from c on, the shape of solve_r1_tilde
    # where G_2 membership is lost; the sign change is at min(r, c)
    lo, hi = ends
    r, c = lo + r * (hi - lo), lo + cut * (hi - lo)
    check_same(lambda x: x - r if x < c else math.inf, lo, hi, tol,
               max_iter)


@PROPERTY
@given(ends=ENDS, target=st.floats(0.0, 1.0), step=st.integers(1, 60),
       tol=TOLS, max_iter=MAX_ITERS)
def test_same_float_with_a_zero_on_the_path(ends, target, step, tol,
                                            max_iter):
    # f = x - m with m the step-th midpoint plain bisection visits on
    # its way to some target: it is also a midpoint of f's own path
    lo, hi = ends
    mids = path_midpoints(lo, hi, lo + target * (hi - lo), tol, max_iter)
    if not mids:
        return
    m = mids[min(step, len(mids)) - 1]
    f = lambda x: x - m  # noqa: E731
    assert plain_bisection(f, lo, hi, tol, max_iter) == m
    check_same(f, lo, hi, tol, max_iter)


@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-14, 1e-300])
@pytest.mark.parametrize("k, most", [(4.0, 12), (30.0, 22)])
def test_few_calls_on_a_smooth_root(tol, k, most):
    # plain bisection from [1e-9, 1 - 1e-9] calls f 12, 32, 49 and 56
    # times at these tol; s_alpha - 2 is as tame as k = 4 on the
    # threshold grid. At k = 30, f spans -1 to 1.3e9 and the secant steps
    # creep along the flat end until a midpoint step cuts them short
    f = Counted(lambda x: math.expm1(k * (x - 0.3)) + 0.1 * (x - 0.3))
    root = bisect_monotone(f, 1e-9, 1.0 - 1e-9, tol=tol)
    assert root == plain_bisection(f.f, 1e-9, 1.0 - 1e-9, tol=tol)
    assert f.calls <= most

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcc.intervals import Interval, IntervalDomainError, IntervalError, hull

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


@st.composite
def intervals(draw, min_value=-1e6, max_value=1e6):
    a = draw(st.floats(min_value=min_value, max_value=max_value,
                       allow_nan=False, allow_infinity=False))
    b = draw(st.floats(min_value=min_value, max_value=max_value,
                       allow_nan=False, allow_infinity=False))
    return Interval(min(a, b), max(a, b))


def member(rng_float, iv):
    # rng_float in [0, 1]; clamp because the lerp itself can round outside
    return min(max(iv.lo + rng_float * (iv.hi - iv.lo), iv.lo), iv.hi)


def test_construction():
    with pytest.raises(IntervalError):
        Interval(2.0, 1.0)
    with pytest.raises(IntervalError):
        Interval(math.nan)
    iv = Interval(1.0, 2.0)
    assert iv.mid == 1.5 and iv.width == 1.0 and iv.mag == 2.0
    assert iv.contains(1.5) and not iv.contains(3.0)


def test_add_example():
    s = Interval(1, 2) + Interval(3, 4)
    assert s.lo <= 4.0 <= 6.0 <= s.hi
    assert s.width < 6.0 - 4.0 + 1e-12


def test_mul_example():
    p = Interval(-1, 2) * Interval(-3, 1)
    assert p.lo <= -6.0 and p.hi >= 3.0
    assert p.lo > -6.0 - 1e-12 and p.hi < 3.0 + 1e-12


def test_division_domain():
    with pytest.raises(IntervalDomainError):
        Interval(1, 2) / Interval(-1, 1)
    q = Interval(1, 2) / Interval(2, 4)
    assert q.lo <= 0.25 and q.hi >= 1.0


def test_pow_domain():
    with pytest.raises(IntervalDomainError):
        Interval(-1, 2).pow_real(0.5)
    with pytest.raises(IntervalDomainError):
        Interval(0.0, 2.0).pow_real(-3.0)
    p = Interval(4.0).pow_real(0.5)
    assert p.contains(2.0)


def test_pow_exponent_type():
    # a float exponent is a real power, even when integral
    with pytest.raises(IntervalDomainError):
        Interval(-2, -1) ** -3.0
    x = Interval(1.5, 2.5)
    p, q = x ** 3.0, x.pow_real(3.0)
    assert (p.lo, p.hi) == (q.lo, q.hi)
    # an int exponent multiplies, so negative intervals are fine
    c = Interval(-2, -1) ** -3
    assert c.contains(-1.0) and c.contains(-0.125) and c.is_negative()
    assert (Interval(-2, -1) ** 2).contains(4.0)


def test_sqrt():
    with pytest.raises(IntervalDomainError):
        Interval(-2, -1).sqrt()
    s = Interval(4, 9).sqrt()
    assert s.lo <= 2.0 and s.hi >= 3.0


def test_set_ops():
    a, b = Interval(0, 2), Interval(1, 3)
    assert a.hull(b).lo == 0 and a.hull(b).hi == 3
    assert hull(a, b, Interval(-1, 0)).lo == -1
    assert a.intersect(b).lo == 1 and a.intersect(b).hi == 2
    with pytest.raises(IntervalError):
        Interval(0, 1).intersect(Interval(2, 3))


@settings(max_examples=300, deadline=None)
@given(x=intervals(), y=intervals(), tx=st.floats(0, 1), ty=st.floats(0, 1))
def test_containment_arithmetic(x, y, tx, ty):
    a, b = member(tx, x), member(ty, y)
    assert (x + y).contains(a + b)
    assert (x - y).contains(a - b)
    assert (x * y).contains(a * b)
    if not y.contains_zero():
        assert (x / y).contains(a / b)
    assert x.sq().contains(a * a)
    assert (x ** 3).contains(a * a * a)


@settings(max_examples=200, deadline=None)
@given(x=intervals(min_value=1e-8, max_value=1e6), p=st.floats(-5, 5), t=st.floats(0, 1))
def test_containment_pow(x, p, t):
    a = member(t, x)
    assert x.pow_real(p).contains(a ** p)
    assert x.sqrt().contains(math.sqrt(a))


@settings(max_examples=100, deadline=None)
@given(x=intervals(), c=finite, t=st.floats(0, 1))
def test_scalar_mixing(x, c, t):
    a = member(t, x)
    assert (x + c).contains(a + c)
    assert (c - x).contains(c - a)
    assert (c * x).contains(c * a)
    if not x.contains_zero() and x.mag > 1e-300:
        assert (c / x).contains(c / a)

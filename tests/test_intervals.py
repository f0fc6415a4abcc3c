import math
import operator
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcc.intervals import Interval as Box
from twistcc.intervals import IntervalArray, IntervalError, _adown, _aup

from oracles import (Interval, IntervalDomainError, _down, _down2, _up, _up2, hull, lane,
                     lanes)

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


def test_pow_overflow_is_a_domain_error():
    # where libm overflows the scalar power raises the interval error, and
    # the same lane of an IntervalArray fails
    x = Interval(0.4823, 0.4927)
    with pytest.raises(IntervalDomainError, match="overflows"):
        x ** -1000.0
    X = lanes([x, Interval(0.9, 1.1)])
    assert X.pow_real(-1000.0).failed.tolist() == [True, False]


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


# --- outward rounding -------------------------------------------------------------

BIG, TINY = sys.float_info.max, sys.float_info.min
# normals, subnormals, signed zeros, the ends of the normal range, both sides
# of the powers of two where the float spacing changes, and the infinities
ROUNDING_CASES = [s * v for s in (1.0, -1.0) for v in (
    0.0, 5e-324, 1e-310, math.nextafter(TINY, 0.0), TINY, 2.0 ** -1021, 2.0 ** -1020,
    math.nextafter(2.0 ** -1020, 1.0), 0.1, 1.0, math.nextafter(1.0, 0.0), 3.0, 2.0 ** 600,
    math.nextafter(BIG, 0.0), BIG, math.inf)]
# where the bound may be the second float out
band = st.builds(operator.mul, st.sampled_from([1.0, -1.0]),
                 st.floats(min_value=2.0 ** -1022, max_value=2.0 ** -1020))
# finite floats drawn uniformly over their bit patterns, so every binade about
# equally often
bit_patterns = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)
rounded = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(ROUNDING_CASES), band, bit_patterns)


def rounded_lane(fn, x: float) -> float:
    lane = np.array([x, x])
    with np.errstate(over="ignore"):
        out = fn(lane)
    assert bits(lane[0]) == bits(x)     # the operand is left as it is
    return out[0]


@settings(max_examples=500, deadline=None)
@given(x=rounded)
def test_rounding_is_outward(x):
    with np.errstate(over="ignore"):
        up, down = np.nextafter(x, math.inf), np.nextafter(x, -math.inf)
        up2, down2 = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
    assert _up(x) >= up and _down(x) <= down
    # libm powers get two steps of the bound: at or beyond two floats out
    assert _up2(x) >= up2 and _down2(x) <= down2
    # every lane is the scalar result bit for bit
    for scalar, lanes in ((_up, _aup), (_down, _adown), (_up2, lambda a: _aup(_aup(a))),
                          (_down2, lambda a: _adown(_adown(a)))):
        assert bits(rounded_lane(lanes, x)) == bits(scalar(x)), (scalar, x)


@settings(max_examples=500, deadline=None)
@given(x=rounded)
def test_rounding_is_the_neighbour_off_the_band(x):
    # outside |x| in [2^-1022, 2^-1020] the bound is the neighbouring float (up
    # to the sign of a zero: -5e-324 rounds up to 0.0, not -0.0), inside it at
    # most the second float out; an infinite end is clamped to +-max first, one
    # float looser than nextafter; the same for the scalar and a lane
    up = -math.nextafter(BIG, 0.0) if x == -math.inf else math.nextafter(x, math.inf)
    down = math.nextafter(BIG, 0.0) if x == math.inf else math.nextafter(x, -math.inf)
    for got_up, got_down in ((_up(x), _down(x)),
                             (rounded_lane(_aup, x), rounded_lane(_adown, x))):
        if 2.0 ** -1022 <= abs(x) <= 2.0 ** -1020:
            assert up <= got_up <= math.nextafter(up, math.inf)
            assert math.nextafter(down, -math.inf) <= got_down <= down
        else:
            assert (got_up, got_down) == (up, down)


def test_rounding_keeps_nan():
    assert math.isnan(_up(math.nan)) and math.isnan(_down(math.nan))
    assert np.isnan(_aup(np.array([math.nan]))).all()
    assert np.isnan(_adown(np.array([math.nan]))).all()


def test_overflowing_product_stays_an_interval():
    # every candidate product is +inf: the lower end clamps to max first, so it
    # rounds to a finite float rather than to inf - inf
    for p in (Interval(1e200) * Interval(1e200), Interval(1.34e154) ** 4):
        assert p.lo <= BIG and p.hi == math.inf
    with np.errstate(over="ignore"):
        lanes = IntervalArray([1e200]) * IntervalArray([1e200])
    assert_lanes(lanes, [Interval(1e200) * Interval(1e200)])


# --- IntervalArray: lanes that round as the reference Interval does -------------

# any non-NaN endpoint, with the values where Interval raises or overflows
# (zeros, infinities, the largest finite floats) drawn often
endpoints = st.one_of(st.floats(allow_nan=False),
                      st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf]))
# 0, -0, 1 and -1 take the exact paths (x + 0, x * 1, x * -1, x * 0, ...)
scalars = st.one_of(st.floats(allow_nan=False), st.integers(-3, 3),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@st.composite
def any_intervals(draw):
    a, b = draw(endpoints), draw(endpoints)
    return Interval(min(a, b), max(a, b))


def lane_lists(size, element=None):
    return st.lists(any_intervals() if element is None else element, min_size=size, max_size=size)


lane_pairs = st.integers(1, 8).flatmap(lambda n: st.tuples(lane_lists(n), lane_lists(n)))

BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def interval_or_none(fn, *args):
    """fn on Intervals, or None where Interval raises."""
    try:
        return fn(*args)
    except IntervalError:
        return None


def real_pow(a: float, p: float):
    """a^p where it is a finite positive float (libm does not overflow), else None."""
    return math.pow(a, p) if a > 0.0 and p * math.log(a) < 709.0 else None


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_lanes(got: IntervalArray, want: list):
    """Each lane is the Interval bit for bit, or failed (NaN) where Interval raised;
    a failed lane is neither positive nor negative."""
    assert len(got) == len(want)
    for k, iv in enumerate(want):
        if iv is None:
            assert math.isnan(got.lo[k]) and math.isnan(got.hi[k]), (k, got)
        else:
            assert (bits(got.lo[k]), bits(got.hi[k])) == (bits(iv.lo), bits(iv.hi)), (k, got, iv)
    failed = got.failed
    assert not (got.is_positive()[failed].any() or got.is_negative()[failed].any())


@settings(max_examples=300, deadline=None)
@given(pair=lane_pairs, c=scalars)
def test_array_binary_ops_match_interval(pair, c):
    xs, ys = pair
    X, Y = lanes(xs), lanes(ys)
    with np.errstate(all="ignore"):
        for op in BINARY:
            assert_lanes(op(X, Y), [interval_or_none(op, x, y) for x, y in zip(xs, ys)])
            assert_lanes(op(X, c), [interval_or_none(op, x, c) for x in xs])
            assert_lanes(op(c, X), [interval_or_none(op, c, x) for x in xs])
            # one lane broadcasts against every lane
            assert_lanes(op(X, lanes(ys[:1])), [interval_or_none(op, x, ys[0]) for x in xs])
        assert_lanes(X.intersect(Y), [interval_or_none(Interval.intersect, x, y)
                                      for x, y in zip(xs, ys)])


@settings(max_examples=300, deadline=None)
@given(xs=st.integers(1, 8).flatmap(lane_lists), n=st.integers(-4, 5),
       p=st.one_of(st.floats(-5, 5),
                   st.sampled_from([-3.0, -0.5, 0.0, 0.5, 2.0, math.inf, -math.inf])))
def test_array_unary_ops_match_interval(xs, n, p):
    X = lanes(xs)
    with np.errstate(all="ignore"):
        assert_lanes(-X, [-x for x in xs])
        assert_lanes(X.sq(), [x.sq() for x in xs])
        assert_lanes(X.sqrt(), [interval_or_none(Interval.sqrt, x) for x in xs])
        assert_lanes(X ** n, [interval_or_none(operator.pow, x, n) for x in xs])
        assert_lanes(X ** p, [interval_or_none(operator.pow, x, p) for x in xs])
        assert_lanes(X.pow_real(p), [interval_or_none(Interval.pow_real, x, p) for x in xs])
        mid = X.mid
    for k, x in enumerate(xs):
        assert bits(mid[k]) == bits(x.mid)
        assert X.is_positive()[k] == x.is_positive()
        assert X.is_negative()[k] == x.is_negative()
        assert X.contains_zero()[k] == x.contains_zero()
        assert (lane(X, k).lo, lane(X, k).hi) == (x.lo, x.hi)


@settings(max_examples=100, deadline=None)
@given(pair=lane_pairs, dead=st.lists(st.booleans(), min_size=8, max_size=8),
       n=st.integers(-3, 4), p=st.floats(-5, 5))
def test_array_failed_lanes_stay_failed(pair, dead, n, p):
    xs, ys = pair
    dead = np.array(dead[:len(xs)])
    X, Y = lanes(xs), lanes(ys)
    F = IntervalArray(np.where(dead, math.nan, X.lo), X.hi)
    assert (F.failed == dead).all()
    with np.errstate(all="ignore"):
        results = [op(F, Y) for op in BINARY] + [op(Y, F) for op in BINARY]
        for c in (2.0, 0.0, -0.0, 1.0, -1.0):
            results += [op(F, c) for op in BINARY] + [op(c, F) for op in BINARY]
        results += [-F, F.sq(), F.sqrt(), F ** n, F ** p, F.intersect(Y), Y.intersect(F)]
    for out in results:
        assert out.failed[dead].all()
        assert not (out.is_positive()[dead].any() or out.is_negative()[dead].any())
    if dead.any():
        with pytest.raises(IntervalError):
            lane(F, int(np.argmax(dead)))


def _same(x):
    return x.lo, x.hi


def _negated(x):
    return -x.hi, -x.lo


def _zero(x):
    return 0.0, 0.0


# (operation, the numbers c it takes, its exact result's endpoints)
EXACT = [(op, cs, ends) for ops, cs, ends in (
    ((operator.mul, lambda x, c: c * x, operator.truediv), (1, 1.0), _same),
    ((operator.add, lambda x, c: c + x, operator.sub), (0, 0.0, -0.0), _same),
    ((operator.pow,), (1,), _same),
    ((operator.mul, lambda x, c: c * x, operator.truediv), (-1, -1.0), _negated),
    ((lambda x, c: c - x,), (0, 0.0, -0.0), _negated),
    ((operator.mul, lambda x, c: c * x), (0, 0.0, -0.0), _zero)) for op in ops]


@settings(max_examples=100, deadline=None)
@given(xs=st.integers(1, 8).flatmap(lane_lists),
       dead=st.lists(st.booleans(), min_size=8, max_size=8))
def test_exact_operands_are_not_rounded(xs, dead):
    # x * 1, x / 1, x + 0, x - 0 and x ** 1 are x, x * -1, x / -1 and 0 - x are
    # -x, and x * 0 is [0, 0], bit for bit and infinite ends included; lanes
    # are the scalar result, and a failed lane stays failed
    dead = np.array(dead[:len(xs)])
    X = lanes(xs)
    F = IntervalArray(np.where(dead, math.nan, X.lo), X.hi)
    for op, cs, ends in EXACT:
        for c in cs:
            want = [op(x, c) for x in xs]
            for x, w in zip(xs, want):
                assert tuple(map(bits, (w.lo, w.hi))) == tuple(map(bits, ends(x))), (op, c, x)
            assert_lanes(op(X, c), want)
            assert_lanes(op(F, c), [None if d else w for d, w in zip(dead, want)])


def test_array_products_fail_on_any_nan_as_the_reference_does():
    # a NaN among the four products or quotients (0 * inf, inf / inf) fails
    # the operation in any position: the reference raises, the lane fails
    xs = [Interval(0.0, 1.0), Interval(1.0, math.inf), Interval(0.0), Interval(-math.inf, 0.0)]
    ys = [Interval(1.0, math.inf), Interval(1.0, math.inf), Interval(math.inf), Interval(-2.0, -1.0)]
    X, Y = lanes(xs), lanes(ys)
    failed = {}
    with np.errstate(all="ignore"):
        for op in (operator.mul, operator.truediv):
            want = [interval_or_none(op, x, y) for x, y in zip(xs, ys)]
            assert_lanes(op(X, Y), want)
            failed[op] = [w is None for w in want]
    # 0 * inf second of four, 0 * inf first; inf / inf last of four
    assert failed == {operator.mul: [True, False, True, False],
                      operator.truediv: [False, True, False, False]}


def test_array_powers_are_libm_per_lane():
    # certify's exponents on positive floats drawn uniformly over their bit
    # patterns, subnormal to max: every lane is Interval.pow_real (math.pow,
    # libm) bit for bit, and fails exactly where the scalar power overflows.
    # A SIMD power such as np.power's differs from libm in the last ulp on
    # some of these inputs.
    rng = np.random.default_rng(0)
    patterns = rng.integers(1, 0x7FEFFFFFFFFFFFFF, 3000, dtype=np.int64, endpoint=True)
    xs = np.concatenate([patterns.view(np.float64), [1.0, BIG, math.inf]])
    point, wide = IntervalArray(xs), IntervalArray(xs, xs.copy())
    for A in (2.5, 3.0, 6.0, 10.0, 1000.0):
        for p in (-A, -A / 2, -1.0 / A, 0.5):
            want = [interval_or_none(Interval.pow_real, Interval(x), p) for x in xs.tolist()]
            failed = np.array([w is None for w in want])
            lo = np.array([math.nan if w is None else w.lo for w in want])
            hi = np.array([math.nan if w is None else w.hi for w in want])
            for got in (point.pow_real(p), wide.pow_real(p)):
                assert (got.failed == failed).all(), (p, xs[got.failed != failed])
                assert (got.lo.view(np.int64) == lo.view(np.int64))[~failed].all(), p
                assert (got.hi.view(np.int64) == hi.view(np.int64))[~failed].all(), p
            assert failed.any() == (p < -1.0), p    # only -A and -A/2 overflow here


finite_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(lane_lists(n, intervals()), lane_lists(n, intervals())))


@settings(max_examples=200, deadline=None)
@given(pair=finite_pairs, t=st.floats(0, 1), u=st.floats(0, 1), p=st.floats(-5, 5))
def test_array_containment(pair, t, u, p):
    xs, ys = pair
    X, Y = lanes(xs), lanes(ys)
    a = [member(t, x) for x in xs]
    b = [member(u, y) for y in ys]
    with np.errstate(all="ignore"):
        checks = [(op(X, Y), [op(ak, bk) if op is not operator.truediv or bk != 0.0 else None
                              for ak, bk in zip(a, b)]) for op in BINARY]
        checks.append((X.sq(), [ak * ak for ak in a]))
        checks.append((X ** 3, [ak * ak * ak for ak in a]))
        checks.append((X.sqrt(), [math.sqrt(ak) if ak >= 0.0 else None for ak in a]))
        checks.append((X.pow_real(p), [real_pow(ak, p) for ak in a]))
    for got, exact in checks:
        for k, v in enumerate(exact):
            if v is not None and not got.failed[k]:
                assert got.lo[k] <= v <= got.hi[k], (k, got, v)


# --- intervals.Interval: a checked one-lane box ----------------------------------

def test_box_refuses_nan_and_inverted_ends():
    for ends in ((2.0, 1.0), (math.nan,), (1.0, math.nan), (math.nan, 1.0), (math.inf, -math.inf)):
        with pytest.raises(IntervalError):
            Box(*ends)
    box = Box(1.0, 2.0)
    assert isinstance(box, IntervalArray) and len(box) == 1
    assert (box.lo.tolist(), box.hi.tolist()) == ([1.0], [2.0])
    assert len(Box(3.0)) == 1 and len(IntervalArray(3.0)) == 1


def one_lane(x: IntervalArray) -> tuple:
    assert len(x) == 1
    return bits(x.lo[0]), bits(x.hi[0])


@settings(max_examples=200, deadline=None)
@given(x=any_intervals(), y=any_intervals(), c=scalars, n=st.integers(-3, 4),
       p=st.floats(-5, 5))
def test_box_operations_equal_lanes(x, y, c, n, p):
    # the box's arithmetic is IntervalArray's: every result is the one lane
    # of the same operation on lanes, bit for bit, failed where it fails
    bx, by = Box(x.lo, x.hi), Box(y.lo, y.hi)
    X, Y = lanes([x]), lanes([y])
    with np.errstate(all="ignore"):
        pairs = [(op(bx, by), op(X, Y)) for op in BINARY]
        pairs += [(op(bx, c), op(X, c)) for op in BINARY]
        pairs += [(op(c, bx), op(c, X)) for op in BINARY]
        pairs += [(-bx, -X), (bx.sq(), X.sq()), (bx.sqrt(), X.sqrt()), (bx ** n, X ** n),
                  (bx ** p, X ** p), (bx.pow_real(p), X.pow_real(p)),
                  (bx.intersect(by), X.intersect(Y))]
        mids = bx.mid, X.mid
    for got, want in pairs:
        assert one_lane(got) == one_lane(want), (x, y, c)
    assert bits(mids[0][0]) == bits(mids[1][0])
    for name in ("is_positive", "is_negative", "contains_zero"):
        assert getattr(bx, name)()[0] == getattr(X, name)()[0] == getattr(x, name)()


@settings(max_examples=200, deadline=None)
@given(x=intervals(), y=intervals(), pad=st.floats(0.0, 1e6))
def test_box_hull_and_widened_contain_their_operands(x, y, pad):
    bx, by = Box(x.lo, x.hi), Box(y.lo, y.hi)
    h = bx.hull(by)
    assert isinstance(h, Box)
    assert h.lo[0] == min(x.lo, y.lo) and h.hi[0] == max(x.hi, y.hi)
    w = bx.widened(pad)
    assert isinstance(w, Box)
    # [lo - pad, hi + pad] in exact arithmetic
    assert Fraction(w.lo[0]) <= Fraction(x.lo) - Fraction(pad)
    assert Fraction(x.hi) + Fraction(pad) <= Fraction(w.hi[0])
    with pytest.raises(IntervalError):
        bx.hull(IntervalArray([math.nan], [1.0]))

"""Closed-interval arithmetic with outward rounding, on lanes.

`IntervalArray` holds many intervals ("lanes") as float64 arrays `lo`
and `hi`.  Every operation returns, per lane, an interval guaranteed to
contain the exact real result for any members of the operand intervals.
Each endpoint is rounded outward by the error bound of Rump, Zimmermann,
Boldo & Melquiond ("Computing predecessor and successor in rounding to
nearest", BIT 49, 2009): in round-to-nearest, with e = fl(fl(phi |x|) +
eta), phi = 2^-53 (1 + 2^-52) and eta = 2^-1074 the smallest subnormal,
fl(x + e) >= succ(x) and fl(x - e) <= pred(x).  It is the neighbouring
float itself, except for |x| in [2^-1022, 2^-1020], where it may be the
second float out.  An infinite end is clamped first: the lower end
rounds min(x, max) and the upper end max(x, -max), so +inf rounds down
to pred(max) and -inf up to -pred(max) rather than to inf - inf = NaN.
Correctly rounded primitives (+, -, *, /, sqrt) get the bound once,
libm-backed powers, which are only faithfully rounded, twice.  Only
+, *, abs and comparisons are used, as in-place numpy passes, so no
hardware rounding-mode control is needed and the arithmetic is portable
and thread-safe.

Some operations with a number (a Python int or float) are exact for
every real member of x and are not rounded at all: x + 0, x - 0, x * 1,
x / 1 and x ** 1 are x; x * -1, x / -1 and 0 - x are -x (float negation
is exact); x * 0 is [0, 0].  Each holds in real arithmetic, so the
result contains every exact value, and skipping the bound costs no
soundness and saves an ulp of width per end.

`x ** p` follows the type of the exponent: an int p multiplies
repeatedly (any interval; a negative p divides into 1), a float p is
`x.pow_real(p)` (strictly positive intervals only, even when p is
integral, e.g. `x ** -3.0`).  Scalar-generic formulas can thus write
`r ** -A` for floats and intervals alike.  Powers are libm's `pow` per
lane, as `math.pow`: `np.float_power`'s float64 loop calls it, where
`np.power`'s SIMD loop can differ from libm in the last ulp.

Where an operation is undefined on a lane (a zero-containing divisor, a
real power of a non-positive interval, sqrt of a negative one, a NaN
among the candidate ends such as inf - inf or 0 * inf, or a libm
overflow) the lane becomes NaN, and NaN propagates through every later
operation.  NaN compares false, so a failed lane is neither positive nor
negative: it can never decide a sign.  `IntervalArray(c)` of a number c
is one lane, which broadcasts against any number of lanes.

`Interval` is a box edge: one lane, checked on construction (it raises
`IntervalError` for a NaN end or lo > hi), with `IntervalArray`'s
arithmetic.  The scalar interval type in `tests/oracles.py` is the
reference: every lane equals its result bit for bit, and fails where it
raises.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# the outward-rounding bound of the module docstring
_MAX = sys.float_info.max
_PHI = 2.0 ** -53 * (1.0 + 2.0 ** -52)
_ETA = 2.0 ** -1074


class IntervalError(ValueError):
    pass


def _adown(x):
    """A float <= pred(x) per lane; pred(max) for +inf, NaN for NaN.  x is
    left as it is."""
    x = np.minimum(x, _MAX)
    e = np.abs(x)
    e *= -_PHI          # -e: rounding to nearest is symmetric, so x + (-e) is x - e
    e -= _ETA
    e += x
    return e


def _aup(x):
    """A float >= succ(x) per lane; -pred(max) for -inf, NaN for NaN.  x is
    left as it is."""
    x = np.maximum(x, -_MAX)
    e = np.abs(x)
    e *= _PHI
    e += _ETA
    e += x
    return e


def _libm_pow(x: np.ndarray, p: float) -> np.ndarray:
    """math.pow per element (libm's pow, through np.float_power); NaN where
    math.pow raises, a finite x whose power overflows."""
    with np.errstate(over="ignore"):
        y = np.float_power(x, p)
    if math.isfinite(p):    # math.pow(2.0, inf) is inf, no overflow
        y[np.isinf(y) & np.isfinite(x)] = math.nan
    return y


def _is_zero(x) -> bool:
    """x is the number 0 (an int or float, either sign), not an interval."""
    return isinstance(x, (int, float)) and x == 0


def _is_unit(x) -> bool:
    """x is the number 1 or -1 (an int or float), not an interval."""
    return isinstance(x, (int, float)) and abs(x) == 1


def _finite_nonzero(x) -> bool:
    """x is a finite nonzero number (not an interval)."""
    return isinstance(x, (int, float)) and math.isfinite(x) and x != 0


def _bounds(x):
    """(lo, hi) of an operand: an IntervalArray or a number."""
    if isinstance(x, IntervalArray):
        return x.lo, x.hi
    x = float(x)
    return x, x


class IntervalArray:
    """Lanes of closed intervals: float64 arrays `lo` and `hi`.

    A lane where an operation is undefined is NaN in both endpoints (a
    failed lane) and stays NaN.  Arrays are never modified in place, so
    lanes may share them.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None      # numpy scalars defer to the reflected operators

    def __init__(self, lo, hi=None):
        if hi is None:          # point lanes share one array; a number is one lane
            lo = hi = np.array(lo, dtype=np.float64, ndmin=1)
        else:
            lo = np.asarray(lo, dtype=np.float64)
            hi = np.asarray(hi, dtype=np.float64)
        ok = lo <= hi           # False for a NaN endpoint and for lo > hi
        if not ok.all():
            lo = np.where(ok, lo, math.nan)
            hi = np.where(ok, hi, math.nan)
        self.lo = lo
        self.hi = hi

    # --- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return self.lo.shape[0]

    def __getitem__(self, idx) -> "IntervalArray":
        """The lanes selected by a slice, an index array or a mask."""
        return IntervalArray(self.lo[idx], self.hi[idx])

    @property
    def failed(self) -> np.ndarray:
        return np.isnan(self.lo)

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains_zero(self) -> np.ndarray:
        return (self.lo <= 0.0) & (0.0 <= self.hi)

    def is_positive(self) -> np.ndarray:
        return self.lo > 0.0

    def is_negative(self) -> np.ndarray:
        return self.hi < 0.0

    def __repr__(self) -> str:
        return f"IntervalArray(lo={self.lo!r}, hi={self.hi!r})"

    def _point(self, c: float) -> "IntervalArray":
        """[c, c] in every lane that has not failed."""
        return IntervalArray(np.where(self.failed, math.nan, c))

    # --- set operations -------------------------------------------------------
    def intersect(self, other) -> "IntervalArray":
        """Lane-wise intersection; a lane is failed where it is empty."""
        olo, ohi = _bounds(other)
        lo = np.where((olo > self.lo) | np.isnan(olo), olo, self.lo)
        hi = np.where((ohi < self.hi) | np.isnan(ohi), ohi, self.hi)
        return IntervalArray(lo, hi)

    # --- arithmetic -------------------------------------------------------------
    def __neg__(self) -> "IntervalArray":
        return IntervalArray(-self.hi, -self.lo)

    def __add__(self, other) -> "IntervalArray":
        if _is_zero(other):
            return self
        olo, ohi = _bounds(other)
        return IntervalArray(_adown(self.lo + olo), _aup(self.hi + ohi))

    __radd__ = __add__

    def __sub__(self, other) -> "IntervalArray":
        if _is_zero(other):
            return self
        olo, ohi = _bounds(other)
        return IntervalArray(_adown(self.lo - ohi), _aup(self.hi - olo))

    def __rsub__(self, other) -> "IntervalArray":
        if _is_zero(other):
            return -self
        olo, ohi = _bounds(other)
        return IntervalArray(_adown(olo - self.hi), _aup(ohi - self.lo))

    def __mul__(self, other) -> "IntervalArray":
        if _is_zero(other):
            return self._point(0.0)
        if _is_unit(other):
            return self if other > 0 else -self
        if _finite_nonzero(other):
            # the four products of two intervals pair up; their min and
            # max are the two below (equal values may differ only in the
            # sign of a zero, which the outward rounding erases)
            c = float(other)
            a, b = self.lo * c, self.hi * c
            return IntervalArray(_adown(a), _aup(b)) if c > 0 else \
                IntervalArray(_adown(b), _aup(a))
        olo, ohi = _bounds(other)
        return _quad(self.lo * olo, self.lo * ohi, self.hi * olo, self.hi * ohi)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "IntervalArray":
        if _is_unit(other):
            return self if other > 0 else -self
        if _finite_nonzero(other):
            c = float(other)
            a, b = self.lo / c, self.hi / c
            return IntervalArray(_adown(a), _aup(b)) if c > 0 else \
                IntervalArray(_adown(b), _aup(a))
        return _divide(*_bounds(self), *_bounds(other))

    def __rtruediv__(self, other) -> "IntervalArray":
        return _divide(*_bounds(other), self.lo, self.hi)

    def sq(self) -> "IntervalArray":
        a, b = np.abs(self.lo), np.abs(self.hi)
        lo = np.where(self.contains_zero(), 0.0, np.where(b < a, b, a))
        hi = np.where(b > a, b, a)
        return IntervalArray(_adown(lo * lo), _aup(hi * hi))

    def __pow__(self, n) -> "IntervalArray":
        if isinstance(n, float):
            return self.pow_real(n)
        n = int(n)
        if n == 0:
            return self._point(1.0)
        if n == 1:
            return self
        if n < 0:
            return 1.0 / self.__pow__(-n)
        if n % 2 == 0:
            return self.__pow__(n // 2).sq()
        return self * self.__pow__(n - 1)

    def pow_real(self, p: float) -> "IntervalArray":
        """x^p for real p; lanes that are not strictly positive fail, and so
        do lanes where libm overflows.  The powers are libm's `pow` per lane
        (`np.float_power`'s float64 loop), as `math.pow`; not `np.power`,
        whose SIMD loop can differ from libm in the last ulp."""
        ok = self.lo > 0.0
        a = _libm_pow(np.where(ok, self.lo, 1.0), p)
        # point lanes made from one array share it: one pow serves both ends
        b = a if self.hi is self.lo else _libm_pow(np.where(ok, self.hi, 1.0), p)
        lo, hi = (a, b) if p >= 0.0 else (b, a)
        return IntervalArray(np.where(ok, _adown(_adown(lo)), math.nan), _aup(_aup(hi)))

    def sqrt(self) -> "IntervalArray":
        ok = self.lo >= 0.0
        lo = np.where(ok, self.lo, math.nan)
        return IntervalArray(_adown(np.sqrt(lo)), _aup(np.sqrt(np.where(ok, self.hi, 0.0))))


class Interval(IntervalArray):
    """A box edge [lo, hi]: one lane, checked on construction.

    Raises IntervalError for a NaN end or lo > hi, where a lane would
    fail.  The arithmetic is IntervalArray's, so its results are lanes,
    which fail (NaN) rather than raise.
    """

    __slots__ = ()

    def __init__(self, lo: float, hi: float | None = None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise IntervalError("interval endpoints must not be NaN")
        if lo > hi:
            raise IntervalError(f"invalid interval [{lo}, {hi}]")
        self.lo = np.array([lo])
        self.hi = self.lo if hi is lo else np.array([hi])

    # unused here; perfbench/tracing.py counts calls to both, with the
    # arithmetic, on this class
    def hull(self, other: IntervalArray) -> "Interval":
        """The smallest box holding this one and the one lane `other`."""
        return Interval(np.minimum(self.lo, other.lo)[0], np.maximum(self.hi, other.hi)[0])

    def widened(self, pad: float) -> "Interval":
        """This box with each end moved out by pad, rounded outward."""
        return Interval(_adown(self.lo - pad)[0], _aup(self.hi + pad)[0])


def _quad(p0, p1, p2, p3) -> IntervalArray:
    """Outward hull of four candidate products or quotients per lane; a NaN
    among them (0 * inf, inf / inf) fails the lane."""
    return IntervalArray(_adown(np.minimum(np.minimum(p0, p1), np.minimum(p2, p3))),
                         _aup(np.maximum(np.maximum(p0, p1), np.maximum(p2, p3))))


def _divide(alo, ahi, blo, bhi) -> IntervalArray:
    """[alo, ahi] / [blo, bhi] per lane; lanes whose divisor contains zero fail."""
    zero = (blo <= 0.0) & (0.0 <= bhi)
    blo = np.where(zero, math.nan, blo)
    return _quad(alo / blo, alo / bhi, ahi / blo, ahi / bhi)

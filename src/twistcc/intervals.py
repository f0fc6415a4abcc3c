"""Closed-interval arithmetic with outward rounding.

Every operation returns an interval guaranteed to contain the exact real
result for any members of the operand intervals.  Each endpoint is
rounded outward by the error bound of Rump, Zimmermann, Boldo &
Melquiond ("Computing predecessor and successor in rounding to nearest",
BIT 49, 2009): in round-to-nearest, with e = fl(fl(phi |x|) + eta),
phi = 2^-53 (1 + 2^-52) and eta = 2^-1074 the smallest subnormal,
fl(x + e) >= succ(x) and fl(x - e) <= pred(x).  It is the neighbouring
float itself, except for |x| in [2^-1022, 2^-1020], where it may be the
second float out.  An infinite end is clamped first: the lower end
rounds min(x, max) and the upper end max(x, -max), so +inf rounds down
to pred(max) and -inf up to -pred(max) rather than to inf - inf = NaN.
Correctly rounded primitives (+, -, *, /, sqrt) get the bound once,
libm-backed powers, which are only faithfully rounded, twice.  Only
+, *, abs and comparisons are used, so no hardware rounding-mode control
is needed and the arithmetic is portable and thread-safe.

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
`r ** -A` for floats and intervals alike.

`IntervalArray` holds many intervals ("lanes") as float64 arrays `lo`
and `hi` and rounds every lane exactly as `Interval` does: the same
bound in the same IEEE double operations, as in-place numpy passes, so
each lane is bit for bit the `Interval` result; the exact operations
above take the same paths in both types.  Powers are libm's
`pow` per lane, as `math.pow` in `Interval.pow_real`: `np.float_power`'s
float64 loop calls it, where `np.power`'s SIMD loop can differ from libm
in the last ulp.  Where `Interval` raises (a zero-containing divisor, a
real power of a non-positive interval, sqrt of a negative one, a NaN
endpoint such as inf - inf, or a libm overflow) the lane becomes NaN
instead, and NaN propagates through every later operation.  NaN compares
false, so a failed lane is neither positive nor negative: it can never
decide a sign.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# the outward-rounding bound of the module docstring
_MAX = sys.float_info.max
_PHI = 2.0 ** -53 * (1.0 + 2.0 ** -52)
_ETA = 2.0 ** -1074


def _down(x: float) -> float:
    """A float <= pred(x); pred(max) for +inf, NaN for NaN."""
    if x > _MAX:
        x = _MAX
    return x - (abs(x) * _PHI + _ETA)


def _up(x: float) -> float:
    """A float >= succ(x); -pred(max) for -inf, NaN for NaN."""
    if x < -_MAX:
        x = -_MAX
    return x + (abs(x) * _PHI + _ETA)


def _down2(x: float) -> float:
    return _down(_down(x))


def _up2(x: float) -> float:
    return _up(_up(x))


class IntervalError(ValueError):
    pass


class IntervalDomainError(IntervalError):
    """Operand interval outside the operation's domain (e.g. 0 in a divisor)."""


class Interval:
    """Closed interval [lo, hi] of reals with containment-safe arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise IntervalError("interval endpoints must not be NaN")
        if lo > hi:
            raise IntervalError(f"invalid interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # --- inspection -----------------------------------------------------
    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mag(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def is_positive(self) -> bool:
        return self.lo > 0.0

    def is_negative(self) -> bool:
        return self.hi < 0.0

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    # --- set operations ---------------------------------------------------
    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise IntervalError(f"empty intersection of {self} and {other}")
        return Interval(lo, hi)

    def widened(self, pad: float) -> "Interval":
        return Interval(_down(self.lo - pad), _up(self.hi + pad))

    # --- arithmetic ---------------------------------------------------------
    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        if _is_zero(other):
            return self
        o = _coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        if _is_zero(other):
            return self
        o = _coerce(other)
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "Interval":
        if _is_zero(other):
            return -self
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "Interval":
        if _is_zero(other):
            return Interval(0.0)
        if _is_unit(other):
            return self if other > 0 else -self
        o = _coerce(other)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if _is_unit(other):
            return self if other > 0 else -self
        o = _coerce(other)
        if o.contains_zero():
            raise IntervalDomainError(f"division by zero-containing interval {o}")
        p = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    def __rtruediv__(self, other) -> "Interval":
        return _coerce(other).__truediv__(self)

    def sq(self) -> "Interval":
        lo, hi = abs(self.lo), abs(self.hi)
        lo, hi = min(lo, hi), max(lo, hi)
        if self.contains_zero():
            lo = 0.0
        return Interval(_down(lo * lo), _up(hi * hi))

    def __pow__(self, n) -> "Interval":
        if isinstance(n, float):
            return self.pow_real(n)
        n = int(n)
        if n == 0:
            return Interval(1.0, 1.0)
        if n == 1:
            return self
        if n < 0:
            return Interval(1.0, 1.0) / self.__pow__(-n)
        if n % 2 == 0:
            half = self.__pow__(n // 2)
            return half.sq()
        return self * self.__pow__(n - 1)

    def pow_real(self, p: float) -> "Interval":
        """x^p for real p; requires a strictly positive interval and a
        result libm can represent."""
        if self.lo <= 0.0:
            raise IntervalDomainError(f"real power of non-positive interval {self}")
        try:
            a = math.pow(self.lo, p)
            b = math.pow(self.hi, p)
        except OverflowError:
            raise IntervalDomainError(f"real power {p!r} of {self} overflows") from None
        if p >= 0.0:
            return Interval(_down2(a), _up2(b))
        return Interval(_down2(b), _up2(a))

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise IntervalDomainError(f"sqrt of negative interval {self}")
        return Interval(_down(math.sqrt(self.lo)), _up(math.sqrt(self.hi)))


def _is_zero(x) -> bool:
    """x is the number 0 (an int or float, either sign), not an interval."""
    return isinstance(x, (int, float)) and x == 0


def _is_unit(x) -> bool:
    """x is the number 1 or -1 (an int or float), not an interval."""
    return isinstance(x, (int, float)) and abs(x) == 1


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x))


def hull(*vals: Interval) -> Interval:
    out = vals[0]
    for v in vals[1:]:
        out = out.hull(v)
    return out


# --- lanes of intervals ---------------------------------------------------------

def _adown(x):
    """_down per lane, bit for bit; x is left as it is."""
    x = np.minimum(x, _MAX)
    e = np.abs(x)
    e *= -_PHI          # -e: rounding to nearest is symmetric, so x + (-e) is x - e
    e -= _ETA
    e += x
    return e


def _aup(x):
    """_up per lane, bit for bit; x is left as it is."""
    x = np.maximum(x, -_MAX)
    e = np.abs(x)
    e *= _PHI
    e += _ETA
    e += x
    return e


def _libm_pow(x: np.ndarray, p: float) -> np.ndarray:
    """math.pow per element (libm's pow, through np.float_power); NaN where
    math.pow raises, a finite x whose power overflows (Interval raises there)."""
    with np.errstate(over="ignore"):
        y = np.float_power(x, p)
    if math.isfinite(p):    # math.pow(2.0, inf) is inf, no overflow
        y[np.isinf(y) & np.isfinite(x)] = math.nan
    return y


def _py_min(first, *rest):
    """Per lane, Python's min(first, *rest): ties keep the earliest operand,
    and a NaN wins only in first position (later NaNs are skipped)."""
    r = rest[0]
    for x in rest[1:]:
        r = np.fmin(r, x)
    return np.where(r < first, r, first)


def _py_max(first, *rest):
    """Per lane, Python's max(first, *rest) (see _py_min)."""
    r = rest[0]
    for x in rest[1:]:
        r = np.fmax(r, x)
    return np.where(r > first, r, first)


def _bounds(x):
    """(lo, hi) of an operand: an IntervalArray, an Interval or a number."""
    if isinstance(x, (IntervalArray, Interval)):
        return x.lo, x.hi
    x = float(x)
    return x, x


def _finite_nonzero(x) -> bool:
    """x is a finite nonzero number (not an interval)."""
    return isinstance(x, (int, float)) and math.isfinite(x) and x != 0


class IntervalArray:
    """Lanes of closed intervals: float64 arrays `lo` and `hi`.

    Every operation rounds each lane exactly as the same `Interval`
    operation would; a lane where `Interval` would raise is NaN in both
    endpoints (a failed lane) and stays NaN.  Arrays are never modified in
    place, so lanes may share them.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None      # numpy scalars defer to the reflected operators

    def __init__(self, lo, hi=None):
        lo = np.asarray(lo, dtype=np.float64)
        hi = lo if hi is None else np.asarray(hi, dtype=np.float64)
        ok = lo <= hi           # False for a NaN endpoint and for lo > hi
        if not ok.all():
            lo = np.where(ok, lo, math.nan)
            hi = np.where(ok, hi, math.nan)
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_intervals(cls, intervals) -> "IntervalArray":
        intervals = list(intervals)
        return cls([iv.lo for iv in intervals], [iv.hi for iv in intervals])

    # --- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return self.lo.shape[0]

    def __getitem__(self, idx) -> "IntervalArray":
        """The lanes selected by a slice, an index array or a mask."""
        return IntervalArray(self.lo[idx], self.hi[idx])

    def lane(self, k: int) -> Interval:
        """Lane k as an Interval; IntervalError for a failed lane."""
        return Interval(self.lo[k], self.hi[k])

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
            # the four products of Interval.__mul__ pair up; their min and
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
        (`np.float_power`'s float64 loop), as `Interval`'s `math.pow`; not
        `np.power`, whose SIMD loop can differ from libm in the last ulp."""
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


def _quad(p0, p1, p2, p3) -> IntervalArray:
    """Outward hull of four candidate products or quotients, as Interval's
    min/max of the tuple (p0, p1, p2, p3)."""
    return IntervalArray(_adown(_py_min(p0, p1, p2, p3)), _aup(_py_max(p0, p1, p2, p3)))


def _divide(alo, ahi, blo, bhi) -> IntervalArray:
    """[alo, ahi] / [blo, bhi] per lane; lanes whose divisor contains zero fail."""
    zero = (blo <= 0.0) & (0.0 <= bhi)
    blo = np.where(zero, math.nan, blo)
    return _quad(alo / blo, alo / bhi, ahi / blo, ahi / bhi)

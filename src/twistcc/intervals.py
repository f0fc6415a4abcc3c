"""Closed-interval arithmetic with outward rounding.

Every operation returns an interval guaranteed to contain the exact real
result for any members of the operand intervals.  Outward rounding is
done with math.nextafter: one ulp for correctly rounded primitives
(+, -, *, /, sqrt), two ulps for libm-backed powers, which are only
faithfully rounded.  No hardware rounding-mode control is needed, so the
arithmetic is portable and thread-safe.

`x ** p` follows the type of the exponent: an int p multiplies
repeatedly (any interval; a negative p divides into 1), a float p is
`x.pow_real(p)` (strictly positive intervals only, even when p is
integral, e.g. `x ** -3.0`).  Scalar-generic formulas can thus write
`r ** -A` for floats and intervals alike.
"""

from __future__ import annotations

import math

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


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
        o = _coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = _coerce(other)
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "Interval":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "Interval":
        o = _coerce(other)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
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
        if n < 0:
            return Interval(1.0, 1.0) / self.__pow__(-n)
        if n % 2 == 0:
            half = self.__pow__(n // 2)
            return half.sq()
        return self * self.__pow__(n - 1)

    def pow_real(self, p: float) -> "Interval":
        """x^p for real p; requires a strictly positive interval."""
        if self.lo <= 0.0:
            raise IntervalDomainError(f"real power of non-positive interval {self}")
        a = math.pow(self.lo, p)
        b = math.pow(self.hi, p)
        if p >= 0.0:
            return Interval(_down2(a), _up2(b))
        return Interval(_down2(b), _up2(a))

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise IntervalDomainError(f"sqrt of negative interval {self}")
        return Interval(_down(math.sqrt(self.lo)), _up(math.sqrt(self.hi)))


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x))


def hull(*vals: Interval) -> Interval:
    out = vals[0]
    for v in vals[1:]:
        out = out.hull(v)
    return out

"""Independent oracles used to freeze and cross-check expected values.

These deliberately avoid the closed-form code paths they validate:
finite differences for derivatives, dense matrix sandwiches for twist
entries, blind bisection for the Dziobek scale, and SVD rank for span
dimensions.  The CSV tables are rebuilt from library values as lists of
fields and written with `csv.writer`.  The scalar `Interval`, which raises
where an operation is undefined, is the reference for the library's
interval lanes; `lanes` and `lane` convert between the two.
"""

import csv
import io
import math

import numpy as np

from twistcc.geometry import PlanarConfig, PotentialParams, f_value
from twistcc.intervals import _ETA, _MAX, _PHI, IntervalArray, IntervalError, _is_unit, _is_zero


def fd_gradient(config: PlanarConfig, params: PotentialParams, h=None) -> np.ndarray:
    pos = config.positions.copy()
    h = h if h is not None else 1e-6 * config.diameter()
    g = np.zeros_like(pos)
    for a in range(pos.size):
        e = np.zeros_like(pos)
        e[a] = h
        fp = f_value(PlanarConfig(pos + e, config.masses), params)
        fm = f_value(PlanarConfig(pos - e, config.masses), params)
        g[a] = (fp - fm) / (2 * h)
    return g


def fd_hessian(config: PlanarConfig, params: PotentialParams, h=None) -> np.ndarray:
    pos = config.positions.copy()
    h = h if h is not None else 1e-4 * config.diameter()
    d = pos.size
    H = np.zeros((d, d))

    def f_at(delta):
        return f_value(PlanarConfig(pos + delta, config.masses), params)

    for a in range(d):
        for b in range(a, d):
            ea = np.zeros(d)
            eb = np.zeros(d)
            ea[a] = h
            eb[b] = h
            val = (f_at(ea + eb) - f_at(ea - eb) - f_at(-ea + eb) + f_at(-ea - eb)) / (4 * h * h)
            H[a, b] = H[b, a] = val
    return H


def all_twist_rank(config: PlanarConfig, tol_factor: float = 1e-10) -> int:
    """Rank of the stacked twist vectors of every pair (SVD threshold)."""
    from twistcc.twist import twist_vector
    rows = [twist_vector(config, (i, j))
            for i in range(config.n) for j in range(i + 1, config.n)]
    M = np.vstack(rows)
    s = np.linalg.svd(M, compute_uv=False)
    return int((s > tol_factor * s[0]).sum())


def dziso_residual(z3, z4, x2, A: float):
    """S12*S34 - S13*S14 at scale x2; zero at the Dziobek scale.

    Generic over the scalar type (floats, numpy arrays or intervals).
    """
    from twistcc.kite import kite_distances
    S12, S13, S14, S34 = (r ** -A - 1.0 for r in kite_distances(z3, z4, x2))
    return S12 * S34 - S13 * S14


def bisect_dziso(shape, params: PotentialParams, lo: float = 1e-4,
                 hi: float = 1.0, max_expand: int = 60) -> float:
    """Blind bisection root of S12*S34 - S13*S14 in x2."""
    glo = dziso_residual(shape.z3, shape.z4, lo, params.A)
    ghi = dziso_residual(shape.z3, shape.z4, hi, params.A)
    n_exp = 0
    while glo * ghi > 0 and n_exp < max_expand:
        hi *= 2.0
        ghi = dziso_residual(shape.z3, shape.z4, hi, params.A)
        n_exp += 1
    if glo * ghi > 0:
        raise ValueError(f"no bracket for shape {shape}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        gm = dziso_residual(shape.z3, shape.z4, mid, params.A)
        if gm == 0.0:
            return mid
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_config(rng, n: int, *, collinear: bool = False,
                  min_sep: float = 0.2) -> PlanarConfig:
    """Well-separated random configuration with O(1) masses and size."""
    while True:
        if collinear:
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            offs = rng.uniform(-1, 1, n)
            pts = offs[:, None] * direction[None, :] + rng.normal(size=2)
        else:
            pts = rng.uniform(-1, 1, (n, 2))
        d = pts[:, None, :] - pts[None, :, :]
        r = np.hypot(d[..., 0], d[..., 1])
        iu = np.triu_indices(n, 1)
        if r[iu].min() > min_sep:
            break
    masses = 10.0 ** rng.uniform(-0.5, 0.5, n)
    return PlanarConfig.from_points(pts, masses)


def equilateral_config(masses=(1.0, 1.0, 1.0)) -> PlanarConfig:
    """Unit-side Lagrange triangle: a CC at the normalized scale for any masses."""
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    return PlanarConfig.from_points(pts, masses)


def square_config(masses=(1.0, 1.0, 3.0, 5.0), side: float = 1.0) -> PlanarConfig:
    h = side / 2.0
    pts = [(-h, -h), (h, -h), (h, h), (-h, h)]
    return PlanarConfig.from_points(pts, masses)


def index_map_cell(z3: float, z4: float, params: PotentialParams, margin: float):
    """(class, idx_Hs, idx_Ha, degenerate, error) of one map cell, from the
    5x5 V^T H V assembly of `kite_blocks` and per-cell `eigvalsh`."""
    from twistcc.hessian import MORSE_ZERO_RTOL
    from twistcc.kite import (ROTATION_ZERO_RTOL, KiteError, KiteShape, build_kite,
                              classify_shape, kite_blocks)
    if z3 <= z4 or z4 <= 0.0:
        return "inadmissible", -1, -1, False, ""
    shape = KiteShape(z3, z4)
    klass = classify_shape(shape, margin)
    if klass not in ("tall", "wide"):
        return klass, -1, -1, False, ""
    try:
        blocks = kite_blocks(build_kite(shape, params), params)
    except KiteError as exc:
        return klass, -1, -1, False, f"{type(exc).__name__}: {exc}"
    ws = np.linalg.eigvalsh(blocks.h_s)
    wa = np.linalg.eigvalsh(blocks.h_a)
    aw = np.abs(wa)
    rot = int(np.argmin(aw))
    idx_ha = sum(1 for t, w in enumerate(wa) if t != rot and w < 0.0)
    spectral = max(aw.max(), np.abs(ws).max())
    smallest = min(np.abs(ws).min(), min(a for t, a in enumerate(aw) if t != rot))
    degenerate = (aw[rot] >= ROTATION_ZERO_RTOL * aw.max()
                  or smallest < MORSE_ZERO_RTOL * spectral)
    return klass, int((ws < 0.0).sum()), idx_ha, bool(degenerate), ""


# --- raw twist-entry closed forms ------------------------------------------------
#
# v_p^T H v_q for the raw twist vectors, one closed form per entry kind, on the
# pair table's T, lam and dot.  The library keeps only the normalized forms and
# rescales them; these are the independent reference for that rescaling.

def _raw_diag(t, m, A, i, j):
    rij2 = t.r[i, j] * t.r[i, j]
    acc = ((m[i] + m[j]) ** 2) * rij2 * t.S[i, j]
    for k in range(len(m)):
        if k == i or k == j:
            continue
        lam2 = t.lam(i, j, k) ** 2
        acc = acc + m[k] * (rij2 * (m[j] * t.S[i, k] + m[i] * t.S[j, k])
                            - A * lam2 * (m[j] * t.T[i, k] + m[i] * t.T[j, k]))
    return -(m[i] * m[j]) * acc


def _raw_share(t, m, A, i, j, k):
    # shared vertex i: v_ij^T H v_ik
    n = len(m)
    ssum = t.zero
    for l in range(n):
        if l != i:
            ssum = ssum + m[l] * t.S[i, l]
    acc = t.dot(i, j, i, k) * (m[i] * (t.S[k, j] - t.S[i, j] - t.S[i, k]) - ssum)
    acc = acc - m[i] * A * t.T[j, k] * t.lam(i, j, k) ** 2
    for l in range(n):
        if l in (i, j, k):
            continue
        acc = acc + A * m[l] * t.T[i, l] * t.lam(i, j, l) * t.lam(i, k, l)
    return m[i] * m[j] * m[k] * acc


def _raw_disjoint(t, m, A, i, j, k, l):
    acc = -A * (t.T[i, k] * t.lam(i, k, l) * t.lam(i, k, j)
                + t.T[j, k] * t.lam(j, k, l) * t.lam(j, k, i)
                + t.T[i, l] * t.lam(i, l, k) * t.lam(i, l, j)
                + t.T[j, l] * t.lam(j, l, i) * t.lam(j, l, k))
    acc = acc + t.dot(i, j, k, l) * (t.R[i, k] + t.R[j, l] - t.R[j, k] - t.R[i, l])
    return m[i] * m[j] * m[k] * m[l] * acc


def raw_twist_entry(table, masses, params: PotentialParams, p, q) -> float:
    """v_p^T H v_q for the raw twist vectors of the pairs p = (i, j) and
    q = (k, l), i < j and k < l, from the raw closed form of their kind."""
    (i, j), (k, l) = p, q
    A = params.A
    shared = {i, j} & {k, l}
    if len(shared) == 2:
        return float(_raw_diag(table, masses, A, i, j))
    if len(shared) == 1:
        s = shared.pop()
        return float(_raw_share(table, masses, A, s, j if i == s else i, l if k == s else k))
    return float(_raw_disjoint(table, masses, A, i, j, k, l))


# --- normalized closed forms with inline mass ratios ------------------------------
#
# `hessian._norm_diag` and `_norm_share` with every mass ratio m_k/m_i and the
# row sum evaluated in place, where the library reads them from the table.

def norm_diag_inline(t, i, j):
    m = t.masses
    acc = -(2 + m[i] / m[j] + m[j] / m[i]) * t.S[i, j]
    for k in range(len(m)):
        if k == i or k == j:
            continue
        acc = acc + (-(m[k] / m[i]) * t.S[i, k] - (m[k] / m[j]) * t.S[j, k]
                     + t.A * ((m[k] / m[i]) * t.R[i, k] * t.sin3(i, j, k) ** 2
                            + (m[k] / m[j]) * t.R[j, k] * t.sin3(j, i, k) ** 2))
    return acc


def norm_share_inline(t, i, j, k):
    m = t.masses
    n = len(m)
    ssum = None
    for l in range(n):
        if l != i:
            term = (m[l] / m[i]) * t.S[i, l]
            ssum = term if ssum is None else ssum + term
    acc = t.cos3(i, j, k) * (t.S[k, j] - t.S[i, j] - t.S[i, k] - ssum)
    acc = acc - t.A * t.R[j, k] * t.sin3(j, i, k) * t.sin3(k, j, i)
    for l in range(n):
        if l in (i, j, k):
            continue
        acc = acc + t.A * (m[l] / m[i]) * t.R[i, l] * t.sin3(i, j, l) * t.sin3(i, k, l)
    return acc


# --- loop references for the array code paths --------------------------------
#
# One configuration, one pair or one trial at a time, written as the library
# computed them before it evaluated stacks of rows.  The array code must
# reproduce them bit for bit.

def coincident_ref(points: np.ndarray) -> bool:
    from twistcc.geometry import COINCIDENT_RTOL
    d = points[:, None, :] - points[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    diam = float(r.max())
    iu = np.triu_indices(points.shape[0], 1)
    return bool(r[iu].min() <= COINCIDENT_RTOL * diam or diam == 0.0)


def f_value_ref(points: np.ndarray, masses: np.ndarray, A: float) -> float:
    m = masses
    c = (m[:, None] * points).sum(axis=0) / m.sum()
    q = points - c
    inertia = float((m * (q ** 2).sum(axis=1)).sum())
    iu = np.triu_indices(m.size, 1)
    d = points[iu[0]] - points[iu[1]]
    r = np.hypot(d[:, 0], d[:, 1])
    u = float((m[iu[0]] * m[iu[1]] * r ** (2.0 - A)).sum())
    return float(m.sum()) * inertia / 2.0 + u / (A - 2.0)


def armijo_step_loop(config: PlanarConfig, params: PotentialParams, d: np.ndarray,
                     fcur: float, slope: float):
    """Sequential backtracking from the full step: (positions, f) of the
    first Armijo trial, or None."""
    from twistcc.solver import ARMIJO_C, MAX_BACKTRACKS, SHRINK
    eta = 1.0
    for _ in range(MAX_BACKTRACKS):
        pos = config.positions - eta * d
        pts = pos.reshape(-1, 2)
        if np.isfinite(pos).all() and not coincident_ref(pts):
            ftrial = f_value_ref(pts, config.masses, params.A)
            if ftrial <= fcur - ARMIJO_C * eta * slope:
                return pos, ftrial
        eta *= SHRINK
    return None


def flow_loop(config: PlanarConfig, spec) -> list[PlanarConfig]:
    """`flow_fixed_combo` one RK4 step at a time, each step built and
    validated as a `PlanarConfig`, stopping at the first that is not one."""
    from twistcc.geometry import GeometryError
    from twistcc.solver import _field
    from twistcc.twist import canon_pair
    terms = tuple((float(c), canon_pair(config.n, p)) for c, p in spec.terms)
    m, dt = config.masses, spec.dt
    traj = [config]
    with np.errstate(all="ignore"):
        for _ in range(spec.steps):
            pos = traj[-1].positions
            k1 = _field(pos, m, terms)
            k2 = _field(pos + 0.5 * dt * k1, m, terms)
            k3 = _field(pos + 0.5 * dt * k2, m, terms)
            k4 = _field(pos + dt * k3, m, terms)
            try:
                traj.append(PlanarConfig(pos + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), m))
            except GeometryError:
                break
    return traj


def _lam_points(p, i, j, k):
    return ((p[i, 0] - p[j, 0]) * (p[i, 1] - p[k, 1])
            - (p[i, 0] - p[k, 0]) * (p[i, 1] - p[j, 1]))


def twist_span_basis_loop(config: PlanarConfig):
    """The span basis from a scan of the pairs for the first largest distance,
    then of the bodies for the largest |lam| against that pair."""
    from twistcc.twist import COLLINEAR_RTOL
    p = config.points
    n = config.n
    thresh = COLLINEAR_RTOL * config.diameter() ** 2
    far, (a, b) = -1.0, (0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            d = np.hypot(p[i, 0] - p[j, 0], p[i, 1] - p[j, 1])
            if d > far:
                far, (a, b) = d, (i, j)
    top, c = -1.0, None
    for k in range(n):
        val = abs(_lam_points(p, a, b, k))
        if val > top:
            top, c = val, k
    if top <= thresh:
        return [(0, j) for j in range(1, n)], n - 1
    pairs = [(a, b), tuple(sorted((a, c))), tuple(sorted((b, c)))]
    for k in range(n):
        if k in (a, b, c):
            continue
        pairs.append(tuple(sorted((a, k))))
        other = b if abs(_lam_points(p, a, b, k)) > thresh else c
        pairs.append(tuple(sorted((other, k))))
    return pairs, 2 * n - 3


def curvature_step_loop(config: PlanarConfig, params: PotentialParams, pairs):
    """(p, mags): the curvature-scaled Newton step over the span of the
    twists of `pairs`, one twist and one eigenpair at a time, and the
    curvature each eigenvector's term is divided by (0 where it is dropped).

    The span's orthonormal basis comes from Gram-Schmidt on the
    `twist_vector`s, and the Hessian is `cartesian_hessian` projected on it.
    A curvature |lam| at most MORSE_ZERO_RTOL * max|lam| is dropped, every
    other one raised to at least CURVATURE_FLOOR * max|lam|.
    """
    from twistcc.geometry import cartesian_gradient_f
    from twistcc.hessian import MORSE_ZERO_RTOL, cartesian_hessian
    from twistcc.solver import CURVATURE_FLOOR
    from twistcc.twist import twist_vector
    basis = []
    for pair in pairs:
        v = twist_vector(config, pair)
        for _ in range(2):          # twice, so the columns are orthogonal to rounding
            for q in basis:
                v = v - (q @ v) * q
        basis.append(v / np.linalg.norm(v))
    Q = np.column_stack(basis)
    g = cartesian_gradient_f(config, params)
    lam, E = np.linalg.eigh(Q.T @ cartesian_hessian(config, params) @ Q)
    top = max(abs(v) for v in lam)
    p = np.zeros_like(g)
    mags = []
    for k, v in enumerate(lam):
        if abs(v) <= MORSE_ZERO_RTOL * top:
            mags.append(0.0)
            continue
        mags.append(max(abs(v), CURVATURE_FLOOR * top))
        u = Q @ E[:, k]
        p += (u @ g) / mags[-1] * u
    return p, mags


def laura_andoyer_loop(table, m: np.ndarray, i: int, j: int) -> float:
    lam = table.dx[i, j] * table.dy[i] - table.dx[i] * table.dy[i, j]
    return float(m[i] * m[j] * np.dot(m * (table.R[i] - table.R[j]), lam))


def albouy_chenciner_loop(table, m: np.ndarray, i: int, j: int) -> float:
    ri2 = table.r[i] ** 2
    return float(np.dot(m * table.S[i], ri2[j] + ri2 - table.r[j] ** 2))


# --- scalar interval reference -----------------------------------------------------
#
# One interval at a time, raising where an operation is undefined, with the
# library's rounding bound applied per endpoint in Python floats: the scalar
# arithmetic the library kept before `intervals.IntervalArray` became its only
# one.  Every lane must equal it bit for bit, and fail (NaN) where it raises.

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
        return _outward((self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if _is_unit(other):
            return self if other > 0 else -self
        o = _coerce(other)
        if o.contains_zero():
            raise IntervalDomainError(f"division by zero-containing interval {o}")
        return _outward((self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi))

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


def _outward(p) -> Interval:
    """Outward hull of candidate products or quotients; a NaN among them
    (0 * inf, inf / inf) fails the operation, as it fails a lane."""
    if any(map(math.isnan, p)):
        raise IntervalError(f"NaN among the candidate ends {p}")
    return Interval(_down(min(p)), _up(max(p)))


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x))


def hull(*vals: Interval) -> Interval:
    out = vals[0]
    for v in vals[1:]:
        out = out.hull(v)
    return out

def lanes(ivs) -> IntervalArray:
    """The reference intervals ivs as the lanes of one IntervalArray."""
    ivs = list(ivs)
    return IntervalArray([iv.lo for iv in ivs], [iv.hi for iv in ivs])


def lane(x: IntervalArray, k: int) -> Interval:
    """Lane k of x as a reference Interval; IntervalError for a failed lane."""
    return Interval(x.lo[k], x.hi[k])


# --- per-box interval certification -------------------------------------------
#
# One box at a time on scalar `Interval` arithmetic, written as the library
# certified boxes before it evaluated them as lanes of an IntervalArray.  Every
# lane of the batched certification must reproduce it bit for bit.

def box_admissible_ref(z3, z4):
    SQRT3_I = Interval(3.0).sqrt()
    if z4.lo <= 0.0 or z3.lo <= z4.hi:
        return None
    yc = 0.5 * z3 - 0.5 / z3
    if z3.lo > SQRT3_I.hi and z4.lo > yc.hi and z4.hi < (SQRT3_I / 2.0).lo:
        return "tall"
    if z3.hi < SQRT3_I.lo and z4.hi < yc.lo:
        return "wide"
    return None


def straddles_mass_boundary_ref(z3, z4, A: float) -> bool:
    """Whether d^-A - p(z3) or p(z4) - d^-A, the denominators of mu31 and
    mu41, encloses zero over the box (d = z3 - z4, p(z) = (1 + z^2)^(-A/2))."""
    pd = (z3 - z4) ** -A
    p3 = (1.0 + z3 * z3) ** (-A / 2.0)
    p4 = (1.0 + z4 * z4) ** (-A / 2.0)
    return (pd - p3).contains_zero() or (p4 - pd).contains_zero()


def dziobek_corner_roots_ref(z3, z4, A: float):
    """(D, roots) of one box: the Interval D over the box of its side
    powers' enclosures, and the Interval root t = N/D at each of that
    box's 8 corners.  Raises IntervalError where an evaluation fails."""
    from itertools import product

    from twistcc.kite import dziobek_coefficients, side_powers
    p2, pd, p3, p4 = powers = side_powers(z3, z4, A)
    D, _ = dziobek_coefficients(powers)
    roots = []
    for corner in product(*((Interval(p.lo), Interval(p.hi)) for p in (pd, p3, p4))):
        Dc, Nc = dziobek_coefficients((p2, *corner))
        roots.append(Nc / Dc)
    return D, roots


def kite_scale_corners_ref(z3, z4, params: PotentialParams):
    """Scale enclosure of one box: the hull of the corner roots of
    `dziobek_corner_roots_ref`, raised to -1/A, its ends then moved inward
    by `verified_ends_ref`, as an Interval; None where D contains zero or
    an evaluation fails (a corner's D contains zero, the hull is not
    strictly positive, a power overflows)."""
    from twistcc.kite import side_powers
    try:
        D, roots = dziobek_corner_roots_ref(z3, z4, params.A)
        if D.contains_zero():
            return None
        x2 = hull(*roots) ** (-1.0 / params.A)
    except IntervalError:
        return None
    return verified_ends_ref(x2, side_powers(z3, z4, params.A), D.is_positive(), params.A)


def verified_ends_ref(x2, powers, d_positive: bool, A: float):
    """x2 with each end stepped inward one float at a time, at most
    END_STEPS times, while the residual's sign over the box places it on
    its side of every root (below them for the low end, above for the
    high end)."""
    from twistcc.certify import END_STEPS
    p2, pd, p3, p4 = powers

    def side(x: float) -> int:
        """+1 below every root of the box, -1 above them, 0 unverified."""
        try:
            t = Interval(x) ** -A
            g = (t * p2 - 1.0) * (t * pd - 1.0) - (t * p3 - 1.0) * (t * p4 - 1.0)
        except IntervalError:
            return 0
        sign = 1 if g.is_positive() else -1 if g.is_negative() else 0
        return sign if d_positive else -sign

    ends = []
    for end, want in ((x2.lo, 1), (x2.hi, -1)):
        for _ in range(END_STEPS):
            step = math.nextafter(end, want * math.inf)
            if side(step) != want:
                break
            end = step
        ends.append(end)
    return Interval(*ends)


# cap on the quarter-point probing rounds of `certify_kite_scale_ref`
BRACKET_PROBE_ROUNDS = 200


def certify_kite_scale_ref(z3, z4, params: PotentialParams):
    """Scale enclosure of one box by the bracket search the library used
    before the corner hull: an Interval, or None without a bracket.

    Widens a relative bracket x2c*(1 -+ w) around the float scale x2c at
    the box midpoint, w = 1e-8, 2e-8, ... below 0.8, until the residual
    has verified opposite signs at its ends, then moves an end to each
    quarter point whose sign is decided, and intersects the result with
    the direct evaluation of (D/N)^(1/A)."""
    from twistcc.kite import KiteError, KiteShape, dziobek_coefficients, kite_scale, side_powers
    A = params.A
    if z3.lo <= z4.hi or z4.lo <= 0.0:
        return None
    try:
        x2c = kite_scale(KiteShape(z3.mid, z4.mid), params)
        powers = side_powers(z3, z4, A)
    except (KiteError, IntervalError, IntervalDomainError):
        return None
    p2, pd, p3, p4 = powers

    def sign_at(x: float) -> int:
        try:
            t = Interval(x) ** -A
            g = (t * p2 - 1.0) * (t * pd - 1.0) - (t * p3 - 1.0) * (t * p4 - 1.0)
        except (IntervalError, IntervalDomainError):
            return 0
        if g.is_positive():
            return 1
        if g.is_negative():
            return -1
        return 0

    lo = hi = None
    slo = shi = 0
    w = 1e-8
    while w < 0.8:
        clo, chi = x2c * (1.0 - w), x2c * (1.0 + w)
        slo, shi = sign_at(clo), sign_at(chi)
        if slo != 0 and shi != 0 and slo != shi:
            lo, hi = clo, chi
            break
        w *= 2.0
    if lo is None:
        return None
    for _ in range(BRACKET_PROBE_ROUNDS):
        width = hi - lo
        if width <= 1e-14 * lo:
            break
        m1 = lo + 0.25 * width
        m2 = lo + 0.75 * width
        if not (lo < m1 < m2 < hi):
            break
        progressed = False
        s1 = sign_at(m1)
        if s1 == slo:
            lo = m1
            progressed = True
        elif s1 == shi:
            hi = m1
            progressed = True
        if hi - lo > 1e-14 * lo and m2 < hi:
            s2 = sign_at(m2)
            if s2 == shi:
                hi = m2
                progressed = True
            elif s2 == slo:
                lo = m2
                progressed = True
        if not progressed:
            break
    enclosure = Interval(lo, hi)
    try:
        D, N = dziobek_coefficients(powers)
        enclosure = enclosure.intersect((D / N) ** (1.0 / A))
    except (IntervalError, IntervalDomainError):
        pass
    return enclosure


def _decide_2x2_ref(h11, h22, h12, name):
    from twistcc.certify import CertifiedIndex
    det = h11 * h22 - h12.sq()
    tr = h11 + h22
    if det.is_positive() and tr.is_positive():
        return CertifiedIndex(0, f"det({name}) > 0 and tr({name}) > 0")
    if det.is_positive() and tr.is_negative():
        return CertifiedIndex(2, f"det({name}) > 0 and tr({name}) < 0")
    if det.is_negative():
        return CertifiedIndex(1, f"det({name}) < 0")
    return None


def certify_box_ref(z3, z4, params: PotentialParams):
    """BoxCertificate of one box; a failed interval evaluation quotes the
    scalar exception."""
    from twistcc.certify import BoxCertificate, CertifiedIndex
    from twistcc.kite import KiteTable, ha_explicit, hs_explicit, mass_ratio_terms

    failures = (IntervalError, IntervalDomainError)

    def unknown(reason: str):
        cert = CertifiedIndex(None, reason)
        return BoxCertificate(z3, z4, cert, cert)

    if box_admissible_ref(z3, z4) is None or straddles_mass_boundary_ref(z3, z4, params.A):
        return unknown("box not verified inside one admissible class")
    x2 = kite_scale_corners_ref(z3, z4, params)
    if x2 is None:
        return unknown("no verified scale enclosure")
    try:
        mu31, mu41 = mass_ratio_terms(z3, z4, params.A)
        if not (mu31.is_positive() and mu41.is_positive()):
            raise IntervalDomainError("mass-ratio enclosures not strictly positive")
        q = KiteTable(z3, z4, x2, mu31, mu41, params.A)
    except failures as exc:
        return unknown(f"interval evaluation failed: {exc}")
    try:
        hs = (_decide_2x2_ref(*hs_explicit(q), "Hs")
              or CertifiedIndex(None, "sign of det/tr undecided over the box"))
    except failures as exc:
        hs = CertifiedIndex(None, f"interval evaluation failed: {exc}")
    try:
        a11, a22, a33, a12, a13, a23 = ha_explicit(q)
        H = [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]
        for i, j, name in ((0, 1, "Ha[a3|a4]"), (0, 2, "Ha[a3|t34]"), (1, 2, "Ha[a4|t34]")):
            ha = _decide_2x2_ref(H[i][i], H[j][j], H[i][j], name)
            if ha is not None:
                break
        else:
            ha = CertifiedIndex(None, "no 2x2 principal minor of H_a decided over the box")
    except failures as exc:
        ha = CertifiedIndex(None, f"interval evaluation failed: {exc}")
    return BoxCertificate(z3, z4, hs, ha)


def assemble_twist_hessian_loop(config: PlanarConfig, params: PotentialParams, directions,
                                normalized: bool = False) -> np.ndarray:
    """V^T H V with V filled one twist vector at a time, column by column."""
    from twistcc.geometry import build_pair_table
    from twistcc.hessian import TwistDirection, cartesian_hessian
    from twistcc.twist import normalized_twist, twist_vector

    table = build_pair_table(config, params)
    dirs = [d if isinstance(d, TwistDirection) else TwistDirection.from_pair(tuple(d))
            for d in directions]
    V = np.zeros((2 * config.n, len(dirs)))
    for a, d in enumerate(dirs):
        for c, p in d.terms:
            V[:, a] += c * (normalized_twist(table, p) if normalized
                            else twist_vector(config, p))
    M = V.T @ cartesian_hessian(config, params) @ V
    return 0.5 * (M + M.T)


# --- CSV tables through csv.writer ------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def csv_text_ref(header, rows) -> str:
    """The table as `csv.writer` writes it, with newline line ends."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def eval_table_ref(config: PlanarConfig, params: PotentialParams):
    """(header, rows) of `twistcc eval --csv`."""
    from twistcc.twist import cc_residual
    res = cc_residual(config, params)
    rows = [[i + 1, j + 1, _fmt(la), _fmt(res.b[i, j]), _fmt(res.b[j, i])]
            for i, j, la in zip(*np.triu_indices(config.n, 1), res.la)]
    return ["i", "j", "la", "b_ij", "b_ji"], rows


def matrix_table_ref(tm):
    """(header, rows) of a twist matrix and its eigenvalues, as `twistcc
    hessian --csv` and `twistcc lagrange --csv` start their tables."""
    dirs = tm.directions
    rows = [["entry", a, b, dirs[a].name, dirs[b].name, _fmt(tm.matrix[a, b])]
            for a in range(len(dirs)) for b in range(len(dirs))]
    rows += [["eigenvalue", k, "", "", "", _fmt(v)]
             for k, v in enumerate(np.sort(np.linalg.eigvalsh(tm.matrix)))]
    return ["kind", "row", "col", "dir_row", "dir_col", "value"], rows


def trajectory_table_ref(states, params: PotentialParams):
    """(header, rows) of a `--traj` CSV over the configurations `states`."""
    from twistcc.geometry import moment_of_inertia
    header = ["step"]
    for i in range(1, states[0].n + 1):
        header += [f"x{i}", f"y{i}"]
    rows = [[step] + [_fmt(v) for v in cfg.positions]
            + [_fmt(moment_of_inertia(cfg)), _fmt(f_value(cfg, params))]
            for step, cfg in enumerate(states)]
    return header + ["I", "f"], rows


def kite_map_table_ref(m):
    """(header, rows) of `twistcc kite-map --csv` over an `IndexMap`, cell by cell."""
    from twistcc.kite import _BLOCK_LABELS, KITE_CLASSES

    def num(v):
        return "" if math.isnan(v) else f"{v:.17g}"

    rows = []
    for k in range(m.z3.size):
        klass, error = KITE_CLASSES[m.klass[k]], m.errors[k]
        computed = klass in ("tall", "wide") and not error
        hs, ha = int(m.idx_hs[k]), int(m.idx_ha[k])
        rows.append([f"{m.z3[k]:.17g}", f"{m.z4[k]:.17g}", klass,
                     num(m.mu31[k]), num(m.mu41[k]), num(m.x2[k]),
                     *([str(hs), str(ha), str(hs + ha)] if computed else ["", "", ""]),
                     "1" if m.degenerate[k] else "0", _BLOCK_LABELS[m.changed[k]], error])
    header = ["z3", "z4", "class", "mu31", "mu41", "x2", "idx_Hs", "idx_Ha", "idx_total",
              "degenerate_flag", "which_block_changed", "error"]
    return header, rows


def pgm_pixels_ref(m, n3: int, n4: int) -> np.ndarray:
    """The (n4, n3) pixels of `write_pgm` over an `IndexMap`, cell by cell:
    255 for total index 0, 128 and then 0 for the higher observed indices,
    64 for cells not computed, top row at the highest z4."""
    totals = [int(m.idx_hs[k] + m.idx_ha[k]) for k in range(m.z3.size)]
    observed = sorted({t for t, c in zip(totals, m.computed) if c})
    shade = {}
    higher = [v for v in observed if v != 0]
    if 0 in observed:
        shade[0] = 255
    for level, v in zip((128, 0), higher):
        shade[v] = level
    for v in higher[2:]:
        shade[v] = 0
    img = np.full((n4, n3), 64, dtype=np.uint8)
    for k, t in enumerate(totals):
        if m.computed[k]:
            img[n4 - 1 - k // n3, k % n3] = shade[t]
    return img


def certify_table_ref(certs):
    """(header, rows) of `twistcc certify --csv` over box certificates."""
    def idx(v):
        return "Unknown" if v is None else v

    rows = [[_fmt(c.z3.lo), _fmt(c.z3.hi), _fmt(c.z4.lo), _fmt(c.z4.hi),
             idx(c.hs.value), c.hs.certificate, idx(c.ha.value), c.ha.certificate,
             idx(c.total)] for c in certs]
    header = ["z3_lo", "z3_hi", "z4_lo", "z4_hi", "idx_Hs", "cert_Hs", "idx_Ha", "cert_Ha",
              "idx_total"]
    return header, rows

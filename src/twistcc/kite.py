"""Concave isosceles kite central configurations of four bodies.

Bodies sit at q1 = (-x2, 0), q2 = (x2, 0), q3 = (0, y3), q4 = (0, y4)
with m1 = m2 = 1, so a kite is described by the two shape variables
z3 = y3/x2 > z4 = y4/x2 > 0.  For a given shape the scale x2 is fixed by
the single surviving Dziobek equation S12*S34 = S13*S14, which reduces to
an equation linear in x2^(-A); the mass ratios mu31, mu41 then follow
from the two nontrivial first-order conditions.  The reflection symmetry
block-diagonalizes the normalized twist Hessian into a 3x3 block H_a
(containing the rotational zero) and a 2x2 block H_s, whose signs define
the Morse-index map over shape space.

The shape algebra (`side_powers`, `mass_ratio_terms`, `kite_distances`,
`KiteTable`, `hs_explicit`, `ha_explicit`) uses field arithmetic and
powers only, so one copy serves Python floats, numpy arrays and
intervals.  `KiteTable(z3, z4, x2, mu31, mu41, A)` is the one record of
a kite's quantities, and both blocks are the normalized twist entries of
`hessian` read from it.  Its geometry is the kite at unit scale
(x2 = 1): the angles those entries read do not depend on the scale, so
they come from the shape alone, and only the powers R = r^-A and
S = R - 1 carry x2.  `_kite_terms` makes one pass over arrays of shapes
for the scale, the mass ratios and the masks of `build_kite`'s checks.
`kite_index_map` reads it on arrays, and `kite_scale`, `kite_masses` and
`build_kite` on one-element arrays, so they agree bit for bit.
`kite_index_map` returns the flat per-cell arrays of an `IndexMap`;
`cli` writes them as CSV rows and a PGM raster (`write_pgm`).
`kite_blocks` (the 5x5 `V^T H V` assembly) is the independent float
cross-check of the closed-form blocks.  `_class_codes` and
`_mass_boundaries` are the one admissibility rule, also for `certify`'s
boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PairTable, PlanarConfig, PotentialParams, build_pair_table
from .hessian import MORSE_ZERO_RTOL, TwistDirection, assemble_twist_hessian, generic_entry

SQRT3 = math.sqrt(3.0)
SQRT1_2 = 1.0 / math.sqrt(2.0)

# admissibility margin around the class boundaries (mass blow-up curves)
ADMISSIBLE_MARGIN = 1e-9
# the rotational H_a eigenvalue must be this small, relative to the
# spectral radius, for index deflation to be trusted
ROTATION_ZERO_RTOL = 1e-6
# cross-block leakage allowed before the symmetry is considered broken
BLOCK_LEAK_RTOL = 1e-10
# `dzsub_report` counts a closed-form scale within this of the root as agreeing
DZSUB_AGREE_RTOL = 1e-8


class KiteError(ValueError):
    """Shape outside the domain of a kite operation."""


class IndeterminateScaleError(KiteError):
    """The Dziobek equation degenerates to an identity (symmetric point)."""


class InfeasibleShapeError(KiteError):
    """The Dziobek equation has no positive root at this shape."""


class MassBoundaryError(KiteError):
    """A mass ratio passes through zero or infinity (family boundary)."""


class SymmetryLeakError(KiteError):
    """Cross-block Hessian entries exceed tolerance; kite symmetry broken."""


class NonFiniteHessianError(KiteError):
    """The assembled kite Hessian has non-finite entries (overflow at large A)."""


class InapplicableShapeError(KiteError):
    """A shape-specific identity does not apply (vanishing denominator)."""


@dataclass(frozen=True)
class KiteShape:
    z3: float
    z4: float

    def __post_init__(self):
        if not (self.z3 > self.z4 > 0.0):
            raise KiteError(f"kite shape needs z3 > z4 > 0, got ({self.z3}, {self.z4})")


def circumcenter_z4(z3: float) -> float:
    """z4 of the outer triangle's circumcenter (masses blow up there), for any scalar type."""
    return 0.5 * z3 - 0.5 / z3


def side_powers(z3, z4, A: float):
    """(2^-A, d^-A, (1+z3^2)^(-A/2), (1+z4^2)^(-A/2)) with d = z3 - z4.

    These are the side lengths r12, r34, r13, r14 over x2, raised to -A.
    Generic over the scalar type (floats, numpy arrays or intervals).
    2^-A is one float for all shapes, except on intervals where that float
    is not exact (A is not an integer, or 2^-A underflows): there it is
    enclosed from the point [2, 2] in z3's own type, as one interval (one
    lane that broadcasts, on `IntervalArray` lanes).
    """
    p2 = 2.0 ** -A
    if hasattr(z3, "lo") and not (float(A).is_integer() and p2 > 0.0):
        p2 = type(z3)(2.0) ** -float(A)
    return (p2, (z3 - z4) ** -A,
            (1.0 + z3 * z3) ** (-A / 2.0), (1.0 + z4 * z4) ** (-A / 2.0))


def kite_distances(z3, z4, x2):
    """(r12, r13, r14, r34) of the kite with shape (z3, z4) at scale x2.

    Generic over the scalar type (floats, numpy arrays or intervals).
    """
    return (2.0 * x2, x2 * (1.0 + z3 * z3) ** 0.5, x2 * (1.0 + z4 * z4) ** 0.5,
            x2 * (z3 - z4))


def dziobek_coefficients(powers):
    """(D, N) from the side powers: in t = x2^(-A) the Dziobek residual is
    (t*p2 - 1)(t*pd - 1) - (t*p3 - 1)(t*p4 - 1) = t*(t*D - N), so x2 = (D/N)^(1/A).
    Generic over the scalar type (floats, numpy arrays or intervals); 2^-A
    may be one interval lane among many."""
    p2, pd, p3, p4 = powers
    return pd * p2 - p3 * p4, pd + p2 - p3 - p4


def dziobek_residual(t, powers):
    """The Dziobek residual (t*p2 - 1)(t*pd - 1) - (t*p3 - 1)(t*p4 - 1) at
    t = x2^(-A), each side power appearing once.  Generic over the scalar
    type, with t the left operand of every product."""
    p2, pd, p3, p4 = powers
    return (t * p2 - 1.0) * (t * pd - 1.0) - (t * p3 - 1.0) * (t * p4 - 1.0)


# The checks a kite shape must pass, in the order build_kite and then
# kite_blocks apply them: name -> (error class, message template).
_CHECKS = {
    "indeterminate": (IndeterminateScaleError,
                      "Dziobek equation degenerates at shape ({z3}, {z4})"),
    "infeasible": (InfeasibleShapeError, "no positive Dziobek root at shape ({z3}, {z4})"),
    "mu31_boundary": (MassBoundaryError, "mu31 denominator vanishes at ({z3}, {z4})"),
    "mu41_boundary": (MassBoundaryError,
                      "mu41 denominator vanishes at ({z3}, {z4}) (circumcenter curve)"),
    "nonpositive": (MassBoundaryError,
                    "nonpositive mass ratios ({mu31:.4g}, {mu41:.4g}) at ({z3}, {z4}); "
                    "shape outside the admissible classes"),
    "non_finite": (NonFiniteHessianError, "twist Hessian not finite at shape ({z3}, {z4})"),
}


def _kite_error(check: str, z3: float, z4: float,
                mu31: float = math.nan, mu41: float = math.nan) -> KiteError:
    cls, text = _CHECKS[check]
    return cls(text.format(z3=z3, z4=z4, mu31=mu31, mu41=mu41))


# `_kite_terms` takes arrays of shapes.  Numpy's vectorized power can
# differ from libm's (which numpy scalars use) in the last ulp, so every
# power runs on arrays: `_one` evaluates a single shape on one-element
# arrays.  The other operations round the same either way, so a scalar
# call agrees bit for bit with the index map's cell.

def _kite_terms(z3, z4, A: float):
    """(x2, mu31, mu41, failed) for arrays of shapes, from one set of side
    powers (`side_powers`); `failed` maps each check `build_kite` applies,
    in `_CHECKS` order, to its mask.

    Substituting t = x2^(-A) makes the Dziobek equation linear in t, so
    the root t = N/D is exact up to rounding and x2 = t^(-1/A).  At the
    fully symmetric shape (sqrt 3, 1/sqrt 3) the equation holds
    identically (indeterminate); when N/D <= 0 no positive root exists
    (infeasible).  The mass ratios are `mass_ratio_terms`; each boundary
    check flags a vanishing denominator.
    """
    powers = p2, pd, p3, p4 = side_powers(z3, z4, A)
    D, N = dziobek_coefficients(powers)
    t = N / D
    mu31, mu41 = _mass_ratios(z3, z4, powers)
    return t ** (-1.0 / A), mu31, mu41, {
        "indeterminate": ((np.abs(D) <= 1e-13 * (p2 * pd + p3 * p4))
                          & (np.abs(N) <= 1e-13 * (p2 + pd + p3 + p4))),
        "infeasible": (D == 0.0) | (t <= 0.0),
        **dict(zip(("mu31_boundary", "mu41_boundary"), _mass_boundaries(powers, 1e-13))),
        "nonpositive": (mu31 <= 0.0) | (mu41 <= 0.0),
    }


def _ends(x):
    """(lo, hi) of intervals; (x, x) for floats and numpy arrays."""
    return getattr(x, "lo", x), getattr(x, "hi", x)


def _mass_boundaries(powers, tol: float):
    """Masks (mu31, mu41) where the denominator d = a - b, pd - p3 or p4 - pd,
    has |d| <= tol * (a + b); on `IntervalArray` boxes, at some shape of the
    box (at tol = 0: d's enclosure contains zero; never on a failed lane)."""
    _, pd, p3, p4 = powers
    ends = [(_ends(a - b), tol * (_ends(a)[1] + _ends(b)[1])) for a, b in ((pd, p3), (p4, pd))]
    return [(lo <= bound) & (-bound <= hi) for (lo, hi), bound in ends]


def _one(shape: KiteShape, A: float, checks) -> tuple[float, float, float]:
    """(x2, mu31, mu41) of one shape as floats; raises the first of
    `checks` that the shape fails."""
    with np.errstate(all="ignore"):
        *values, failed = _kite_terms(np.array([shape.z3]), np.array([shape.z4]), A)
    x2, mu31, mu41 = (float(v[0]) for v in values)
    for check in checks:
        if failed[check][0]:
            raise _kite_error(check, shape.z3, shape.z4, mu31, mu41)
    return x2, mu31, mu41


def kite_scale(shape: KiteShape, params: PotentialParams) -> float:
    """Positive x2 solving S12*S34 = S13*S14 for this shape.

    Raises IndeterminateScaleError at the fully symmetric shape and
    InfeasibleShapeError where no positive root exists.
    """
    return _one(shape, params.A, ("indeterminate", "infeasible"))[0]


@dataclass(frozen=True)
class DzsubReport:
    """Cross-check of the printed closed-form scale against the Dziobek root.

    `verbatim` evaluates the closed form with (1+z^2)^(-A) factors as
    printed; `half_exponent` uses (1+z^2)^(-A/2), matching
    r = x2*sqrt(1+z^2).  The Dziobek root is authoritative either way.
    """

    oracle_x2: float
    verbatim: float
    half_exponent: float
    verbatim_agrees: bool
    half_exponent_agrees: bool


def dzsub_x2(shape: KiteShape, params: PotentialParams, half_exponent: bool = False) -> float:
    A = params.A
    d = shape.z3 - shape.z4
    e = A / 2.0 if half_exponent else A
    p3 = (1.0 + shape.z3 ** 2) ** -e
    p4 = (1.0 + shape.z4 ** 2) ** -e
    num = d ** -A - p3 * p4
    den = 1.0 + d ** -A - p3 - p4
    if den == 0.0 or num / den <= 0.0:
        return math.nan
    return 0.5 * (num / den) ** (1.0 / A)


def dzsub_report(shape: KiteShape, params: PotentialParams) -> DzsubReport:
    x2 = kite_scale(shape, params)
    v = dzsub_x2(shape, params, half_exponent=False)
    h = dzsub_x2(shape, params, half_exponent=True)

    def agrees(val: float) -> bool:
        return math.isfinite(val) and abs(val - x2) <= DZSUB_AGREE_RTOL * x2

    return DzsubReport(x2, v, h, agrees(v), agrees(h))


def mass_ratio_terms(z3, z4, A: float):
    """(mu31, mu41) from the first-order conditions, in shape variables only.

    The scale x2 cancels from both ratios: with p(z) = (1 + z^2)^(-A/2)
    and d = z3 - z4,
        mu31 = (2 z4/d) (p(z4) - 2^-A) / (d^-A - p(z3)),
        mu41 = (2 z3/d) (p(z3) - 2^-A) / (p(z4) - d^-A).
    Generic over the scalar type (floats, numpy arrays or intervals).
    """
    return _mass_ratios(z3, z4, side_powers(z3, z4, A))


def _mass_ratios(z3, z4, powers):
    """mass_ratio_terms from the side powers of (z3, z4)."""
    p2, pd, p3, p4 = powers
    d = z3 - z4
    return ((2.0 * z4 / d) * (p4 - p2) / (pd - p3),
            (2.0 * z3 / d) * (p3 - p2) / (p4 - pd))


def kite_masses(shape: KiteShape, params: PotentialParams) -> tuple[float, float]:
    """(mu31, mu41) solving the first-order conditions along v13 and v14.

    The ratios are scale-free: x2 cancels algebraically.  Raises
    MassBoundaryError where a denominator vanishes.
    """
    return _one(shape, params.A, ("mu31_boundary", "mu41_boundary"))[1:]


KITE_CLASSES = ("inadmissible", "tall", "wide", "circumcenter-boundary")


def _class_codes(z3, z4, margin: float) -> np.ndarray:
    """Indices into KITE_CLASSES for arrays of shapes (see classify_shape), 0
    unless z3 > z4 > 0; on `IntervalArray` boxes, a class only where every
    shape of the box has it, as each test compares a lower with an upper end.
    SQRT3 and 0.5 * SQRT3 are sound box bounds, as a double above (below) a
    real's correctly rounded value is above (below) it; enclosures of sqrt 3
    and sqrt(3)/2 would only reject more boxes, with edges within two ulps."""
    with np.errstate(all="ignore"):
        (lo3, hi3), (lo4, hi4), (loc, hic) = _ends(z3), _ends(z4), _ends(circumcenter_z4(z3))
        inside = (lo4 > 0.0) & (lo3 > hi4)
        on_curve = (lo4 - hic >= -margin) & (hi4 - loc <= margin)
        tall = (lo3 > SQRT3 + margin) & (hic + margin < lo4) & (hi4 < 0.5 * SQRT3 - margin)
        wide = (hi3 < SQRT3 - margin) & (margin < lo4) & (hi4 < loc - margin)
        return np.select([~inside, on_curve, tall, wide], [0, 3, 1, 2], 0)


def classify_shape(shape: KiteShape, margin: float = ADMISSIBLE_MARGIN) -> str:
    """'tall' | 'wide' | 'circumcenter-boundary' | 'inadmissible'.

    Tall kites have the outer apex above the equilateral height
    (z3 > sqrt 3) and the inner body strictly between the circumcenter
    and sqrt(3)/2; wide kites have z3 < sqrt 3 and the inner body
    strictly below the circumcenter.
    """
    code = _class_codes(np.array([shape.z3]), np.array([shape.z4]), margin)[0]
    return KITE_CLASSES[int(code)]


@dataclass(frozen=True, eq=False)
class KiteConfig:
    """A fully determined kite central configuration."""

    shape: KiteShape
    x2: float
    mu31: float
    mu41: float
    config: PlanarConfig


def build_kite(shape: KiteShape, params: PotentialParams) -> KiteConfig:
    x2, mu31, mu41 = _one(shape, params.A, tuple(_CHECKS)[:-1])
    y3, y4 = shape.z3 * x2, shape.z4 * x2
    cfg = PlanarConfig(
        np.array([-x2, 0.0, x2, 0.0, 0.0, y3, 0.0, y4]),
        np.array([1.0, 1.0, mu31, mu41]))
    return KiteConfig(shape, x2, mu31, mu41, cfg)


# Symmetry-adapted basis over the normalized twists (0-based bodies):
#   a3 = (v13 + v23)/sqrt2, a4 = (v14 + v24)/sqrt2, t34 = v34   -> H_a
#   s3 = (v13 - v23)/sqrt2, s4 = (v14 - v24)/sqrt2              -> H_s
KITE_BASIS = (
    TwistDirection("a3", ((SQRT1_2, (0, 2)), (SQRT1_2, (1, 2)))),
    TwistDirection("a4", ((SQRT1_2, (0, 3)), (SQRT1_2, (1, 3)))),
    TwistDirection("t34", ((1.0, (2, 3)),)),
    TwistDirection("s3", ((SQRT1_2, (0, 2)), (-SQRT1_2, (1, 2)))),
    TwistDirection("s4", ((SQRT1_2, (0, 3)), (-SQRT1_2, (1, 3)))),
)


@dataclass(frozen=True, eq=False)
class KiteBlocks:
    h_a: np.ndarray
    h_s: np.ndarray
    cross_max: float
    full: np.ndarray


def kite_blocks(kite: KiteConfig, params: PotentialParams) -> KiteBlocks:
    """Assemble the 5x5 normalized twist Hessian and split it into blocks."""
    with np.errstate(all="ignore"):  # overflow is reported just below
        M = assemble_twist_hessian(build_pair_table(kite.config, params), KITE_BASIS,
                                   normalized=True).matrix
    if not np.isfinite(M).all():
        raise _kite_error("non_finite", kite.shape.z3, kite.shape.z4)
    h_a = M[:3, :3].copy()
    h_s = M[3:, 3:].copy()
    cross = float(np.abs(M[:3, 3:]).max())
    hnorm = float(np.linalg.norm(M, 2))
    if cross > BLOCK_LEAK_RTOL * hnorm:
        raise SymmetryLeakError(
            f"cross-block leakage {cross:.3e} exceeds {BLOCK_LEAK_RTOL:.1e} * |H| = "
            f"{BLOCK_LEAK_RTOL * hnorm:.3e}")
    return KiteBlocks(h_a, h_s, cross, M)


class KiteTable(PairTable):
    """The kite record: `geometry.PairTable` of the kite with shape (z3, z4),
    scale x2 and mass ratios mu31, mu41, built by field arithmetic only.

    dx, dy, r, R and S are dicts over body pairs [i, j], i != j, holding
    floats, numpy arrays or intervals alike; the angle and mass accessors
    are inherited.  dx, dy and r are those of the unit-scale kite, with bodies
    at (-1, 0), (1, 0), (0, z3), (0, z4): they depend on the shape alone,
    so the angles sin3, cos3 and cos4, which do not depend on the scale,
    carry none of an x2 enclosure's width, while lam and dot are the
    kite's over x2^2.  Values from the fixed coordinates alone (r12 = 2,
    dx = -2, 0, ...) are exact floats, also in an interval table.  The
    powers R = r^-A and S = R - 1 are at scale x2, and so is `distance`,
    x2 * r, which scales raw twist entries.  There is no T: the normalized
    entries read none.  The masses are (1, 1, mu31, mu41), and
    `shared_entries` are the six normalized twist entries that both blocks
    read, evaluated once.
    """

    __slots__ = ("z3", "z4", "x2", "_shared")

    def __init__(self, z3, z4, x2, mu31, mu41, A: float):
        r = kite_distances(z3, z4, 1.0)
        R = tuple(d ** -A for d in kite_distances(z3, z4, x2))
        S = tuple(v - 1.0 for v in R)
        qx = (-1.0, 1.0, 0.0, 0.0)
        qy = (0.0, 0.0, z3, z4)
        self.n, self.z3, self.z4, self.x2, self.A = 4, z3, z4, x2, A
        self.masses = (1.0, 1.0, mu31, mu41)
        self.zero = z3 * 0.0
        self.memo = {}
        self._shared = None
        self.dx, self.dy, self.r, self.R, self.S = {}, {}, {}, {}, {}
        # kite_distances' order: r12, r13, r14, r34
        for (i, j), k in (((0, 1), 0), ((0, 2), 1), ((1, 2), 1), ((0, 3), 2), ((1, 3), 2),
                          ((2, 3), 3)):
            for a, b in ((i, j), (j, i)):
                self.dx[a, b], self.dy[a, b] = qx[a] - qx[b], qy[a] - qy[b]
                self.r[a, b], self.R[a, b], self.S[a, b] = r[k], R[k], S[k]

    def distance(self, i: int, j: int):
        return self.x2 * self.r[i, j]

    @classmethod
    def of(cls, kite: KiteConfig, params: PotentialParams) -> "KiteTable":
        return cls(kite.shape.z3, kite.shape.z4, kite.x2, kite.mu31, kite.mu41, params.A)

    @property
    def shared_entries(self):
        """The six normalized entries both blocks read, evaluated once.
        H_s takes differences of them, H_a sums."""
        if self._shared is None:
            self._shared = tuple(generic_entry(self, p, q) for p, q in (
                ((0, 2), (0, 2)), ((0, 2), (1, 2)), ((0, 3), (0, 3)),
                ((0, 3), (1, 3)), ((0, 2), (0, 3)), ((0, 2), (1, 3))))
        return self._shared


def hs_explicit(t: KiteTable):
    """Closed-form entries ((Hs)11, (Hs)22, (Hs)12) of the 2x2 block over
    the KITE_BASIS directions (s3, s4), from the normalized entries as in
    `ha_explicit`."""
    d02, s201, d03, s301, s023, j0213 = t.shared_entries
    return d02 - s201, d03 - s301, s023 - j0213


def ha_explicit(t: KiteTable):
    """Closed-form entries (a11, a22, a33, a12, a13, a23) of the 3x3 block
    over the KITE_BASIS directions (a3, a4, t34).

    The reduced combinations use the kite's reflection symmetry
    (v23^T H v24 = v13^T H v14 etc.), which holds exactly for the
    mirror-symmetric coordinates.  sqrt 2 is computed in t's scalar type;
    for intervals it is the enclosure of the point [2, 2]'s root (one lane,
    on `IntervalArray` lanes).
    """
    d02, s201, d03, s301, s023, j0213 = t.shared_entries
    sqrt2 = (type(t.zero)(2.0) if hasattr(t.zero, "lo") else t.zero + 2.0) ** 0.5
    return (d02 + s201, d03 + s301, generic_entry(t, (2, 3), (2, 3)), s023 + j0213,
            sqrt2 * generic_entry(t, (0, 2), (2, 3)), sqrt2 * generic_entry(t, (0, 3), (2, 3)))


def euler_precursor(t: KiteTable):
    """(U - M*I)/m1^2 in kite quantities; zero at the Dziobek scale."""
    r12, r13, r14, r34 = kite_distances(t.z3, t.z4, t.x2)
    _, _, mu31, mu41 = t.masses
    S = t.S
    return (r12 ** 2 * S[0, 1] + 2 * mu31 * r13 ** 2 * S[0, 2]
            + 2 * mu41 * r14 ** 2 * S[0, 3] + mu41 * mu31 * r34 ** 2 * S[2, 3])


def coorbital_identity_check(kite: KiteConfig, params: PotentialParams) -> float:
    """Residual of the bounded form of mu41*S14 near the coorbital limit.

    Combining U = M*I with the Dziobek equation expresses mu41*S14 through
    quantities that stay finite as the inner body approaches the
    circumcenter; the residual must vanish at every kite CC.
    """
    t = KiteTable.of(kite, params)
    S12, S13, S14 = t.S[0, 1], t.S[0, 2], t.S[0, 3]
    if abs(S12) < 1e-12 * (abs(t.R[0, 1]) + 1.0):
        raise InapplicableShapeError("S12 vanishes; coorbital identity inapplicable")
    r12, r13, r14, r34 = kite_distances(kite.shape.z3, kite.shape.z4, kite.x2)
    direct = kite.mu41 * S14
    bounded = -(r12 ** 2 * S12 + 2 * kite.mu31 * r13 ** 2 * S13) \
        / (2 * r14 ** 2 + kite.mu31 * r34 ** 2 * S13 / S12)
    return abs(direct - bounded)


# --- Morse-index map over shape space ----------------------------------------

@dataclass(frozen=True, eq=False)
class IndexMap:
    """`kite_index_map`'s flat per-cell arrays, row-major in (iz4, iz3).

    klass indexes KITE_CLASSES and changed _BLOCK_LABELS; mu31, mu41 and x2
    are NaN unless `build_kite` succeeds at the cell, idx_hs and idx_ha -1
    unless it passes every check, and errors[k] "" unless it fails one.
    A cell is computed when it passes every check and is not degenerate.
    """

    z3: np.ndarray
    z4: np.ndarray
    klass: np.ndarray
    mu31: np.ndarray
    mu41: np.ndarray
    x2: np.ndarray
    idx_hs: np.ndarray
    idx_ha: np.ndarray
    degenerate: np.ndarray
    changed: np.ndarray
    errors: list[str]
    computed: np.ndarray

    @property
    def admissible(self) -> np.ndarray:
        """Mask of the tall and wide cells."""
        return (self.klass == 1) | (self.klass == 2)


def kite_index_map(z3_lo: float, z3_hi: float, n3: int,
                   z4_lo: float, z4_hi: float, n4: int,
                   params: PotentialParams, *,
                   margin: float = ADMISSIBLE_MARGIN) -> IndexMap:
    """Morse indices per grid cell (evaluated at cell centers), as the
    arrays of an `IndexMap`.  Per-cell failures are recorded, never raised.

    All cells are evaluated at once: the checks of `build_kite` and a
    finiteness check run as masks, the closed-form blocks on arrays, and
    each block's eigenvalues in one stacked `eigvalsh`.  A cell is
    degenerate when its rotational H_a eigenvalue is not below
    ROTATION_ZERO_RTOL times H_a's spectral radius, or when its smallest
    H_s or deflated H_a eigenvalue is below MORSE_ZERO_RTOL times the
    spectral radius of both blocks.
    """
    z3s = z3_lo + (np.arange(n3) + 0.5) * ((z3_hi - z3_lo) / n3)
    z4s = z4_lo + (np.arange(n4) + 0.5) * ((z4_hi - z4_lo) / n4)
    z3, z4 = np.tile(z3s, n4), np.repeat(z4s, n3)
    klass = _class_codes(z3, z4, margin)
    adm = np.flatnonzero((klass == 1) | (klass == 2))
    x2, mu31, mu41, first, idx_hs, idx_ha, degenerate = _admissible_cells(
        z3[adm], z4[adm], params.A)
    names = list(_CHECKS)   # the last one, "non_finite", is kite_blocks' check
    ok = first == len(names)
    built = first >= len(names) - 1     # build_kite succeeds

    def spread(values, at, fill):
        """A per-cell column: `values` at the cells `at`, `fill` elsewhere."""
        column = np.full(klass.size, fill, dtype=values.dtype)
        column[at] = values
        return column

    cell_x2, cell_mu31, cell_mu41 = (spread(v[built], adm[built], np.nan)
                                     for v in (x2, mu31, mu41))
    cell_hs, cell_ha, cell_degenerate = (spread(v, adm[ok], fill) for v, fill in
                                         ((idx_hs, -1), (idx_ha, -1), (degenerate, False)))
    computed = (cell_hs >= 0) & ~cell_degenerate
    changed = _block_changes(computed.reshape(n4, n3), cell_hs.reshape(n4, n3),
                             cell_ha.reshape(n4, n3)).ravel()

    errors = [""] * klass.size
    failing = np.flatnonzero(~ok)
    at = adm[failing]
    for k, check, a, b, m31, m41 in zip(at.tolist(), first[failing].tolist(),
                                        z3[at].tolist(), z4[at].tolist(),
                                        mu31[failing].tolist(), mu41[failing].tolist()):
        exc = _kite_error(names[check], a, b, m31, m41)
        errors[k] = f"{type(exc).__name__}: {exc}"
    return IndexMap(z3, z4, klass, cell_mu31, cell_mu41, cell_x2, cell_hs, cell_ha,
                    cell_degenerate, changed, errors, computed)


def _admissible_cells(z3: np.ndarray, z4: np.ndarray, A: float):
    """(x2, mu31, mu41, first, idx_Hs, idx_Ha, degenerate) for arrays of
    admissible shapes.

    `first` indexes each shape's first failed check in `_CHECKS`
    (len(_CHECKS) if none); the indices and flags are those of the shapes
    that pass every check, from their stacked closed-form blocks.
    """
    with np.errstate(all="ignore"):
        x2, mu31, mu41, failed = _kite_terms(z3, z4, A)
        t = KiteTable(z3, z4, x2, mu31, mu41, A)
        hs11, hs22, hs12 = hs_explicit(t)
        a11, a22, a33, a12, a13, a23 = ha_explicit(t)
    h_s = np.stack([hs11, hs12, hs12, hs22], axis=-1).reshape(-1, 2, 2)
    h_a = np.stack([a11, a12, a13, a12, a22, a23, a13, a23, a33], axis=-1).reshape(-1, 3, 3)
    failed["non_finite"] = ~(np.isfinite(h_s).all(axis=(1, 2))
                             & np.isfinite(h_a).all(axis=(1, 2)))
    first = np.full(z3.size, len(_CHECKS))
    for k, check in reversed(list(enumerate(_CHECKS))):
        first[failed[check]] = k
    ok = first == len(_CHECKS)
    return (x2, mu31, mu41, first) + _block_indices(h_s[ok], h_a[ok])


def _block_indices(h_s: np.ndarray, h_a: np.ndarray):
    """(idx_Hs, deflated idx_Ha, degenerate) of stacked finite blocks."""
    ws = np.linalg.eigvalsh(h_s)
    wa = np.linalg.eigvalsh(h_a)
    aw = np.abs(wa)
    rot = aw.argmin(axis=1)
    rows = np.arange(rot.size)
    neg_a = wa < 0.0
    neg_a[rows, rot] = False
    spectral = np.maximum(aw.max(axis=1), np.abs(ws).max(axis=1))
    smallest = np.minimum(np.abs(ws).min(axis=1), np.sort(aw, axis=1)[:, 1])
    degenerate = ((aw[rows, rot] >= ROTATION_ZERO_RTOL * aw.max(axis=1))
                  | (smallest < MORSE_ZERO_RTOL * spectral))
    return (ws < 0.0).sum(axis=1), neg_a.sum(axis=1), degenerate


# which_block_changed labels, indexed by (H_s changed) + 2 * (H_a changed)
_BLOCK_LABELS = ("", "Hs", "Ha", "Ha+Hs")


def _block_changes(computed: np.ndarray, idx_hs: np.ndarray,
                   idx_ha: np.ndarray) -> np.ndarray:
    """Indices into _BLOCK_LABELS over a (n4, n3) grid of cells.

    A computed cell whose computed 4-neighbour has a different total index
    is labelled with the blocks whose index differs there.
    """
    hs_changed = np.zeros_like(computed)
    ha_changed = np.zeros_like(computed)
    idx_total = idx_hs + idx_ha
    for a, b in (((slice(None), slice(None, -1)), (slice(None), slice(1, None))),
                 ((slice(None, -1), slice(None)), (slice(1, None), slice(None)))):
        differ = computed[a] & computed[b] & (idx_total[a] != idx_total[b])
        for changed, idx in ((hs_changed, idx_hs), (ha_changed, idx_ha)):
            d = differ & (idx[a] != idx[b])
            changed[a] |= d
            changed[b] |= d
    return hs_changed + 2 * ha_changed.astype(int)


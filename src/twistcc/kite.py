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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlanarConfig, PotentialParams
from .hessian import TwistDirection, assemble_twist_hessian

SQRT3 = math.sqrt(3.0)
SQRT1_2 = 1.0 / math.sqrt(2.0)

# admissibility margin around the class boundaries (mass blow-up curves)
ADMISSIBLE_MARGIN = 1e-9
# the rotational H_a eigenvalue must be this small, relative to the
# spectral radius, for index deflation to be trusted
ROTATION_ZERO_RTOL = 1e-6
# cross-block leakage allowed before the symmetry is considered broken
BLOCK_LEAK_RTOL = 1e-10


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
    """z4 of the outer triangle's circumcenter: masses blow up on this curve."""
    return 0.5 * z3 - 0.5 / z3


def side_powers(z3, z4, A: float):
    """(2^-A, d^-A, (1+z3^2)^(-A/2), (1+z4^2)^(-A/2)) with d = z3 - z4.

    These are the side lengths r12, r34, r13, r14 over x2, raised to -A.
    Generic over the scalar type (floats or intervals).
    """
    return (2.0 ** -A, (z3 - z4) ** -A,
            (1.0 + z3 * z3) ** (-A / 2.0), (1.0 + z4 * z4) ** (-A / 2.0))


def kite_distances(z3, z4, x2):
    """(r12, r13, r14, r34) of the kite with shape (z3, z4) at scale x2.

    Generic over the scalar type (floats or intervals).
    """
    return (2.0 * x2, x2 * (1.0 + z3 * z3) ** 0.5, x2 * (1.0 + z4 * z4) ** 0.5,
            x2 * (z3 - z4))


def kite_scale(shape: KiteShape, params: PotentialParams) -> float:
    """Positive x2 solving S12*S34 = S13*S14 for this shape.

    Substituting t = x2^(-A) makes the equation linear in t, so the root
    t = N/D is exact up to rounding.  Degenerate cases: at the fully
    symmetric shape (z3, z4) = (sqrt 3, 1/sqrt 3) the equation holds
    identically and the scale is indeterminate; when N/D <= 0 no positive
    root exists.
    """
    params.require_f_domain()
    p2, pd, p3, p4 = side_powers(shape.z3, shape.z4, params.A)
    D = p2 * pd - p3 * p4
    N = p2 + pd - p3 - p4
    if abs(D) <= 1e-13 * (p2 * pd + p3 * p4) and abs(N) <= 1e-13 * (p2 + pd + p3 + p4):
        raise IndeterminateScaleError(
            f"Dziobek equation degenerates at shape ({shape.z3}, {shape.z4})")
    if D == 0.0 or N / D <= 0.0:
        raise InfeasibleShapeError(
            f"no positive Dziobek root at shape ({shape.z3}, {shape.z4})")
    return (N / D) ** (-1.0 / params.A)


def dziso_residual(z3, z4, x2, A: float):
    """S12*S34 - S13*S14 at scale x2; zero at the Dziobek scale.

    Generic over the scalar type (floats or intervals).
    """
    S12, S13, S14, S34 = (r ** -A - 1.0 for r in kite_distances(z3, z4, x2))
    return S12 * S34 - S13 * S14


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


def dzsub_report(shape: KiteShape, params: PotentialParams, rtol: float = 1e-8) -> DzsubReport:
    x2 = kite_scale(shape, params)
    v = dzsub_x2(shape, params, half_exponent=False)
    h = dzsub_x2(shape, params, half_exponent=True)

    def agrees(val: float) -> bool:
        return math.isfinite(val) and abs(val - x2) <= rtol * x2

    return DzsubReport(x2, v, h, agrees(v), agrees(h))


def mass_ratio_terms(z3, z4, A: float):
    """(mu31, mu41) from the first-order conditions, in shape variables only.

    The scale x2 cancels from both ratios: with p(z) = (1 + z^2)^(-A/2)
    and d = z3 - z4,
        mu31 = (2 z4/d) (p(z4) - 2^-A) / (d^-A - p(z3)),
        mu41 = (2 z3/d) (p(z3) - 2^-A) / (p(z4) - d^-A).
    Generic over the scalar type (floats or intervals).
    """
    d = z3 - z4
    p2, pd, p3, p4 = side_powers(z3, z4, A)
    mu31 = (2.0 * z4 / d) * (p4 - p2) / (pd - p3)
    mu41 = (2.0 * z3 / d) * (p3 - p2) / (p4 - pd)
    return mu31, mu41


def kite_masses(shape: KiteShape, params: PotentialParams) -> tuple[float, float]:
    """(mu31, mu41) solving the first-order conditions along v13 and v14.

    The ratios are scale-free: x2 cancels algebraically.
    """
    _, pd, p3, p4 = side_powers(shape.z3, shape.z4, params.A)
    if abs(pd - p3) <= 1e-13 * (pd + p3):
        raise MassBoundaryError(f"mu31 denominator vanishes at ({shape.z3}, {shape.z4})")
    if abs(p4 - pd) <= 1e-13 * (p4 + pd):
        raise MassBoundaryError(
            f"mu41 denominator vanishes at ({shape.z3}, {shape.z4}) (circumcenter curve)")
    return mass_ratio_terms(shape.z3, shape.z4, params.A)


def classify_shape(shape: KiteShape, params: PotentialParams,
                   margin: float = ADMISSIBLE_MARGIN) -> str:
    """'tall' | 'wide' | 'circumcenter-boundary' | 'inadmissible'.

    Tall kites have the outer apex above the equilateral height
    (z3 > sqrt 3) and the inner body strictly between the circumcenter
    and sqrt(3)/2; wide kites have z3 < sqrt 3 and the inner body
    strictly below the circumcenter.
    """
    z3, z4 = shape.z3, shape.z4
    yc = circumcenter_z4(z3)
    if abs(z4 - yc) <= margin:
        return "circumcenter-boundary"
    if z3 > SQRT3 + margin and yc + margin < z4 < 0.5 * SQRT3 - margin:
        return "tall"
    if z3 < SQRT3 - margin and margin < z4 < yc - margin:
        return "wide"
    return "inadmissible"


@dataclass(frozen=True, eq=False)
class KiteConfig:
    """A fully determined kite central configuration."""

    shape: KiteShape
    x2: float
    mu31: float
    mu41: float
    config: PlanarConfig


def build_kite(shape: KiteShape, params: PotentialParams) -> KiteConfig:
    x2 = kite_scale(shape, params)
    mu31, mu41 = kite_masses(shape, params)
    if mu31 <= 0.0 or mu41 <= 0.0:
        raise MassBoundaryError(
            f"nonpositive mass ratios ({mu31:.4g}, {mu41:.4g}) at "
            f"({shape.z3}, {shape.z4}); shape outside the admissible classes")
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


def kite_blocks(kite: KiteConfig, params: PotentialParams,
                leak_tol: float = BLOCK_LEAK_RTOL) -> KiteBlocks:
    """Assemble the 5x5 normalized twist Hessian and split it into blocks."""
    with np.errstate(all="ignore"):  # overflow is reported just below
        M = assemble_twist_hessian(kite.config, params, KITE_BASIS, normalized=True).matrix
    if not np.isfinite(M).all():
        raise NonFiniteHessianError(
            f"twist Hessian not finite at shape ({kite.shape.z3}, {kite.shape.z4})")
    h_a = M[:3, :3].copy()
    h_s = M[3:, 3:].copy()
    cross = float(np.abs(M[:3, 3:]).max())
    hnorm = float(np.linalg.norm(M, 2))
    if cross > leak_tol * hnorm:
        raise SymmetryLeakError(
            f"cross-block leakage {cross:.3e} exceeds {leak_tol:.1e} * |H| = "
            f"{leak_tol * hnorm:.3e}")
    return KiteBlocks(h_a, h_s, cross, M)


@dataclass(frozen=True)
class KiteQuantities:
    """Scalar bundle for the explicit H_s entry formulas.

    Fields may be floats or intervals; `at` and the formulas below only use
    field arithmetic and powers, so the same code serves both evaluations.
    """

    A: float
    x2: object
    y3: object
    y4: object
    r12: object
    r13: object
    r14: object
    r34: object
    R12: object
    R13: object
    R14: object
    R34: object
    S12: object
    S13: object
    S14: object
    S34: object
    mu31: object
    mu41: object

    @classmethod
    def at(cls, z3, z4, x2, mu31, mu41, A: float) -> "KiteQuantities":
        """Quantities of the kite with shape (z3, z4), scale x2 and mass ratios."""
        r12, r13, r14, r34 = kite_distances(z3, z4, x2)
        R12, R13, R14, R34 = r12 ** -A, r13 ** -A, r14 ** -A, r34 ** -A
        return cls(A, x2, z3 * x2, z4 * x2, r12, r13, r14, r34,
                   R12, R13, R14, R34,
                   R12 - 1.0, R13 - 1.0, R14 - 1.0, R34 - 1.0, mu31, mu41)

    @classmethod
    def from_kite(cls, kite: KiteConfig, params: PotentialParams) -> "KiteQuantities":
        return cls.at(kite.shape.z3, kite.shape.z4, kite.x2, kite.mu31, kite.mu41, params.A)


def hs_explicit(q: KiteQuantities):
    """Closed-form entries ((Hs)11, (Hs)22, (Hs)12) of the 2x2 block."""
    A = q.A
    mu31, mu41 = q.mu31, q.mu41
    mu13, mu14 = 1 / mu31, 1 / mu41
    mu43, mu34 = mu41 / mu31, mu31 / mu41
    h11 = (-(2 + 2 * mu13 + mu31) * q.S13 - q.S12 - mu41 * q.S14 - mu43 * q.S34
           - (1 - q.r12 ** 2 / (2 * q.r13 ** 2))
           * (q.S12 - 2 * q.S13 - 2 * mu13 * q.S13 - mu43 * q.S34)
           + A * (2 * q.y3 ** 2 * q.R12 / q.r13 ** 2
                  + mu13 * q.r12 ** 2 * q.y3 ** 2 * q.R13 / q.r13 ** 4
                  + mu41 * q.r12 ** 2 * q.r34 ** 2 * q.R14 / (4 * q.r13 ** 2 * q.r14 ** 2)
                  + mu43 * q.r12 ** 2 * q.R34 / (2 * q.r13 ** 2)))
    h22 = (-(2 + 2 * mu14 + mu41) * q.S14 - q.S12 - mu31 * q.S13 - mu34 * q.S34
           - (1 - q.r12 ** 2 / (2 * q.r14 ** 2))
           * (q.S12 - 2 * q.S14 - 2 * mu14 * q.S14 - mu34 * q.S34)
           + A * (2 * q.y4 ** 2 * q.R12 / q.r14 ** 2
                  + mu14 * q.r12 ** 2 * q.y4 ** 2 * q.R14 / q.r14 ** 4
                  + mu31 * q.r12 ** 2 * q.r34 ** 2 * q.R13 / (4 * q.r13 ** 2 * q.r14 ** 2)
                  + mu34 * q.r12 ** 2 * q.R34 / (2 * q.r14 ** 2)))
    h12 = v13_h_v14_explicit(q) - v13_h_v24_explicit(q)
    return h11, h22, h12


def v13_h_v14_explicit(q: KiteQuantities):
    """Closed form of the shared-vertex entry v13~^T H v14~ on the kite."""
    A = q.A
    bracket = (q.S34 - (1 + q.mu31) * q.S13 - (1 + q.mu41) * q.S14 - q.S12)
    return (((q.r12 ** 2 / 4 + q.y3 * q.y4) / (q.r13 * q.r14)) * bracket
            - A * (q.R34 * q.r12 ** 2 - 4 * q.R12 * q.y3 * q.y4) / (4 * q.r13 * q.r14))


def v13_h_v24_explicit(q: KiteQuantities):
    """Closed form of the disjoint entry v13~^T H v24~ on the kite."""
    A = q.A
    cos4 = (q.y3 * q.y4 - q.r12 ** 2 / 4) / (q.r13 * q.r14)
    return (cos4 * (q.R12 + q.R34 - q.R13 - q.R14)
            - A * (q.R12 * q.y3 * q.y4 / (q.r13 * q.r14)
                   + q.R13 * q.r12 ** 2 * q.r34 * q.y3 / (2 * q.r13 ** 3 * q.r14)
                   - q.R14 * q.r12 ** 2 * q.r34 * q.y4 / (2 * q.r13 * q.r14 ** 3)
                   - q.R34 * q.r12 ** 2 / (4 * q.r13 * q.r14)))


def euler_precursor(q: KiteQuantities):
    """(U - M*I)/m1^2 in kite quantities; zero at the Dziobek scale."""
    return (q.r12 ** 2 * q.S12 + 2 * q.mu31 * q.r13 ** 2 * q.S13
            + 2 * q.mu41 * q.r14 ** 2 * q.S14
            + q.mu41 * q.mu31 * q.r34 ** 2 * q.S34)


def coorbital_identity_check(kite: KiteConfig, params: PotentialParams) -> float:
    """Residual of the bounded form of mu41*S14 near the coorbital limit.

    Combining U = M*I with the Dziobek equation expresses mu41*S14 through
    quantities that stay finite as the inner body approaches the
    circumcenter; the residual must vanish at every kite CC.
    """
    q = KiteQuantities.from_kite(kite, params)
    if abs(q.S12) < 1e-12 * (abs(q.R12) + 1.0):
        raise InapplicableShapeError("S12 vanishes; coorbital identity inapplicable")
    direct = q.mu41 * q.S14
    bounded = -(q.r12 ** 2 * q.S12 + 2 * q.mu31 * q.r13 ** 2 * q.S13) \
        / (2 * q.r14 ** 2 + q.mu31 * q.r34 ** 2 * q.S13 / q.S12)
    return abs(direct - bounded)


# --- Morse-index map over shape space ----------------------------------------

@dataclass
class IndexMapCell:
    iz3: int
    iz4: int
    z3: float
    z4: float
    klass: str
    mu31: float = math.nan
    mu41: float = math.nan
    x2: float = math.nan
    idx_hs: int = -1
    idx_ha: int = -1
    idx_total: int = -1
    degenerate: bool = False
    error: str = ""
    which_block_changed: str = ""

    @property
    def computed(self) -> bool:
        return self.klass in ("tall", "wide") and not self.error and not self.degenerate


def _cell_indices(kite: KiteConfig, params: PotentialParams,
                  rot_tol: float = ROTATION_ZERO_RTOL) -> tuple[int, int, bool]:
    blocks = kite_blocks(kite, params)
    ws = np.linalg.eigvalsh(blocks.h_s)
    wa = np.linalg.eigvalsh(blocks.h_a)
    idx_hs = int((ws < 0.0).sum())
    spectral = float(np.abs(wa).max())
    rot = int(np.argmin(np.abs(wa)))
    degenerate = bool(abs(wa[rot]) >= rot_tol * spectral)
    idx_ha = int(sum(1 for t, w in enumerate(wa) if t != rot and w < 0.0))
    return idx_hs, idx_ha, degenerate


def kite_index_map(z3_lo: float, z3_hi: float, n3: int,
                   z4_lo: float, z4_hi: float, n4: int,
                   params: PotentialParams, *,
                   margin: float = ADMISSIBLE_MARGIN,
                   rot_tol: float = ROTATION_ZERO_RTOL) -> list[IndexMapCell]:
    """Morse indices per grid cell (evaluated at cell centers), row-major in
    (iz4, iz3).  Per-cell failures are recorded, never raised."""
    dz3 = (z3_hi - z3_lo) / n3
    dz4 = (z4_hi - z4_lo) / n4
    cells: list[IndexMapCell] = []
    for iz4 in range(n4):
        z4 = z4_lo + (iz4 + 0.5) * dz4
        for iz3 in range(n3):
            z3 = z3_lo + (iz3 + 0.5) * dz3
            if z3 <= z4 or z4 <= 0.0:
                cells.append(IndexMapCell(iz3, iz4, z3, z4, "inadmissible"))
                continue
            shape = KiteShape(z3, z4)
            klass = classify_shape(shape, params, margin)
            cell = IndexMapCell(iz3, iz4, z3, z4, klass)
            if klass in ("tall", "wide"):
                try:
                    kite = build_kite(shape, params)
                    cell.mu31, cell.mu41, cell.x2 = kite.mu31, kite.mu41, kite.x2
                    idx_hs, idx_ha, degenerate = _cell_indices(kite, params, rot_tol)
                    cell.idx_hs, cell.idx_ha = idx_hs, idx_ha
                    cell.idx_total = idx_hs + idx_ha
                    cell.degenerate = degenerate
                except KiteError as exc:
                    cell.error = f"{type(exc).__name__}: {exc}"
            cells.append(cell)
    _annotate_boundaries(cells, n3, n4)
    return cells


def _annotate_boundaries(cells: list[IndexMapCell], n3: int, n4: int) -> None:
    def at(iz3, iz4):
        return cells[iz4 * n3 + iz3]

    for c in cells:
        if not c.computed:
            continue
        blocks = set()
        for d3, d4 in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            j3, j4 = c.iz3 + d3, c.iz4 + d4
            if not (0 <= j3 < n3 and 0 <= j4 < n4):
                continue
            o = at(j3, j4)
            if not o.computed or o.idx_total == c.idx_total:
                continue
            if o.idx_hs != c.idx_hs:
                blocks.add("Hs")
            if o.idx_ha != c.idx_ha:
                blocks.add("Ha")
        c.which_block_changed = "+".join(sorted(blocks))


def write_pgm(cells: list[IndexMapCell], n3: int, n4: int, path) -> None:
    """8-bit P5 raster of the index map: 255 for index 0, then 128 and 0 for
    the two higher observed indices, 64 for everything not computed.
    Top image row is the highest z4."""
    observed = sorted({c.idx_total for c in cells if c.computed})
    shade = {}
    higher = [v for v in observed if v != 0]
    if 0 in observed:
        shade[0] = 255
    for level, v in zip((128, 0), higher):
        shade[v] = level
    for v in higher[2:]:
        shade[v] = 0
    img = np.full((n4, n3), 64, dtype=np.uint8)
    for c in cells:
        if c.computed:
            img[n4 - 1 - c.iz4, c.iz3] = shade[c.idx_total]
    header = f"P5\n{n3} {n4}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.tobytes())


MAP_CSV_COLUMNS = ("z3", "z4", "class", "mu31", "mu41", "x2", "idx_Hs",
                   "idx_Ha", "idx_total", "degenerate_flag",
                   "which_block_changed", "error")


def cell_csv_row(cell: IndexMapCell) -> list[str]:
    def num(v):
        return "" if (isinstance(v, float) and math.isnan(v)) else f"{v:.17g}"

    computed = cell.klass in ("tall", "wide") and not cell.error
    return [
        f"{cell.z3:.17g}", f"{cell.z4:.17g}", cell.klass,
        num(cell.mu31), num(cell.mu41), num(cell.x2),
        str(cell.idx_hs) if computed else "",
        str(cell.idx_ha) if computed else "",
        str(cell.idx_total) if computed else "",
        "1" if cell.degenerate else "0",
        cell.which_block_changed,
        cell.error,
    ]

"""Rigorous certification of kite Hessian block indices over shape boxes.

All quantities are enclosed with outward-rounded interval arithmetic, so
a decided certificate holds for *every* shape in the input box:

  * the Dziobek scale is enclosed as the hull of the residual's root at
    the eight corners of the box of the side powers' enclosures, exact
    over that box up to outward rounding (`certify_kite_scale`);
  * the 2x2 block H_s is enclosed through its closed-form entries,
    `kite.hs_explicit`: the normalized twist entries on the interval
    `kite.KiteTable`, whose angles are enclosed from the shape box alone
    (the unit-scale kite) and whose powers R, S from the box and the
    scale enclosure; its index is decided from the signs of det and
    trace;
  * the 3x3 block H_a carries the rotational zero eigenvalue exactly at
    every kite CC (H_a u = 0 for the rotation's coordinates u), so its
    deflated index is the index of any 2x2 principal minor whose det is
    certified nonzero: then (u, e_i, e_j) is a basis in which H_a is
    diag(0, minor), and Sylvester's law of inertia applies.  The three
    minors are tried in turn with the same det/trace test as H_s.  The
    interval entries come from `kite.ha_explicit`, on the same table.
    Both blocks use the closed forms the float kite map uses.

`certify_boxes` certifies every box of a run at once, each box one lane
of an `intervals.IntervalArray`, in batches of at most BATCH_LANES lanes
(memory stays bounded however fine the subdivision).  Admissibility is
kite's rule on boxes (`kite._class_codes`, `kite._mass_boundaries`);
a batch encloses the admissible lanes' side powers once, for that rule,
the scale enclosure and the mass ratios.  Only admissible lanes enter
the scale enclosure, and only lanes with a scale enter the interval
`KiteTable` and the two blocks.  Lane arithmetic involves no other lane,
so a box's enclosures and certificates do not depend on the other boxes
of its batch; each equals, bit for bit, the scalar reference arithmetic
of `tests/oracles.py` on that box alone.  The result is arrays
(`Certificates`): per lane and block, a code into OUTCOMES, the closed
table of every `CertifiedIndex` a block can get.  `certify_box` is the
one-lane call, on `intervals.Interval` boxes.  A `None` value means Unknown,
always a sound answer and the expected one on boxes straddling a
bifurcation.  A box's reason is the first that applies, in this order:

  1. "box not verified inside one admissible class", also given to a box
     inside one class where a mass ratio's denominator encloses zero;
  2. "no verified scale enclosure";
  3. "interval evaluation failed: mass-ratio enclosures not strictly
     positive";
  4. "interval evaluation failed: <stage>", where the lane's interval
     arithmetic failed (a NaN lane, where the reference raises): the
     kite quantities, or per block "Hs", "Ha" (its entries) or the first
     H_a minor reached that failed.  The text names that stage, not the
     scalar exception and its endpoints.  Such boxes are rare: none in
     20,000 random boxes at A = 3, but some at A = 1000, where a kite
     distance's power overflows;
  5. the block's undecided text ("sign of det/tr undecided over the box",
     "no 2x2 principal minor of H_a decided over the box").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PotentialParams
from .intervals import Interval, IntervalArray
from .kite import (KiteTable, _class_codes, _mass_boundaries, _mass_ratios,
                   dziobek_coefficients, dziobek_residual, ha_explicit, hs_explicit,
                   side_powers)
# unused here; perfbench/tracing.py install() looks both names up on this module
from .kite import build_kite, kite_blocks  # noqa: F401

# boxes certified together as the lanes of one batch
BATCH_LANES = 4096
# floats each end of a scale enclosure may move inward onto a verified sign
END_STEPS = 16


@dataclass(frozen=True)
class CertifiedIndex:
    """Index count guaranteed over the whole box, or None for Unknown."""

    value: int | None
    certificate: str

    @property
    def known(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class BoxCertificate:
    z3: Interval
    z4: Interval
    hs: CertifiedIndex
    ha: CertifiedIndex

    @property
    def total(self) -> int | None:
        return self.hs.value + self.ha.value if self.hs.known and self.ha.known else None


def _failed(stage: str) -> CertifiedIndex:
    return CertifiedIndex(None, f"interval evaluation failed: {stage}")


def _block_outcomes(name: str) -> tuple[CertifiedIndex, ...]:
    """Block `name` failed, then decided by det and trace, in `_decide_2x2`'s order."""
    return (_failed(name),
            CertifiedIndex(0, f"det({name}) > 0 and tr({name}) > 0"),
            CertifiedIndex(2, f"det({name}) > 0 and tr({name}) < 0"),
            CertifiedIndex(1, f"det({name}) < 0"))


NOT_ADMISSIBLE = CertifiedIndex(None, "box not verified inside one admissible class")
NO_SCALE = CertifiedIndex(None, "no verified scale enclosure")
MASSES_NOT_POSITIVE = _failed("mass-ratio enclosures not strictly positive")
QUANTITIES_FAILED = _failed("kite quantities")
HS_UNDECIDED = CertifiedIndex(None, "sign of det/tr undecided over the box")
HA_UNDECIDED = CertifiedIndex(None, "no 2x2 principal minor of H_a decided over the box")
_HA_MINORS = ((0, 1, "Ha[a3|a4]"), (0, 2, "Ha[a3|t34]"), (1, 2, "Ha[a4|t34]"))

# every outcome of a block; a certified block is a code into this table
OUTCOMES = (NOT_ADMISSIBLE, NO_SCALE, MASSES_NOT_POSITIVE, QUANTITIES_FAILED, HS_UNDECIDED,
            HA_UNDECIDED, _failed("Ha"), *_block_outcomes("Hs"),
            *(o for _, _, name in _HA_MINORS for o in _block_outcomes(name)))


@dataclass(frozen=True, eq=False)
class Certificates:
    """Per lane k, the box z3[k] x z4[k] and the codes into OUTCOMES of H_s
    and H_a."""

    z3: IntervalArray
    z4: IntervalArray
    hs: np.ndarray
    ha: np.ndarray


def certify_kite_scale(z3: IntervalArray, z4: IntervalArray, params: PotentialParams,
                       powers=None) -> IntervalArray:
    """Enclosures of the Dziobek scale valid for every shape in each box.

    In t = x2^(-A) the residual is t*(t*D - N) (`dziobek_coefficients`),
    whose root t = N/D is a Moebius function of each side power with the
    others held fixed.  So where D keeps one sign over the box of the
    power enclosures (`side_powers(z3, z4, A)`, or `powers` when the caller
    has them), t is monotone along every edge of that box, and its range
    there is the hull of its values at the 8 corners, where d^-A,
    (1+z3^2)^(-A/2) and (1+z4^2)^(-A/2) each take an end (2^-A is one
    value, or its enclosure, at every corner).  The corners are evaluated
    as 8 point lanes per box with outward rounding, and x2 = t^(-1/A).
    D's enclosure is its range, as each power appears in it once; a lane
    fails where it contains zero (as on a box around the symmetric shape,
    where the residual vanishes identically) or where the hull of t is not
    strictly positive.

    Outward rounding leaves each end a few floats outside the hull of the
    roots, so an end then steps inward, one float at a time and at most
    END_STEPS times, while the residual's verified sign over the box keeps
    it on its side of every root (`_verified_ends`).  No bracket with
    verified residual signs is tighter, up to the floats the ends do not
    reach: at a scale whose t lies strictly between two corner roots, the
    residual has both signs at those corners, so its enclosure over the
    box contains zero.

    z3 and z4 are IntervalArray lanes, and so is the enclosure; a lane with
    no enclosure is a failed lane.
    """
    n = len(z3)
    with np.errstate(all="ignore"):
        powers = side_powers(z3, z4, params.A) if powers is None else powers
        p2, pd, p3, p4 = powers
        D, _ = dziobek_coefficients(powers)
        # corner c takes the ends of d^-A, p3 and p4 named by bits 0, 1 and 2 of c
        ends = [IntervalArray(np.concatenate([(p.lo, p.hi)[c >> k & 1] for c in range(8)]))
                for k, p in enumerate((pd, p3, p4))]
        Dc, Nc = dziobek_coefficients((p2, *ends))
        t = Nc / Dc
        lo = np.where(D.contains_zero(), np.nan, t.lo.reshape(8, n).min(axis=0))
        x2 = IntervalArray(lo, t.hi.reshape(8, n).max(axis=0)) ** (-1.0 / params.A)
        return _verified_ends(x2, powers, D.is_positive(), params.A)


def _verified_ends(x2: IntervalArray, powers, d_positive: np.ndarray, A) -> IntervalArray:
    """x2 with each end stepped inward one float at a time, at most
    END_STEPS times, while the residual's verified sign over the box keeps
    the end on its side of every root (`_sides`)."""
    n = len(x2)
    ends, box = np.concatenate([x2.lo, x2.hi]), np.tile(np.arange(n), 2)
    # +1 below every root (the low ends), -1 above them (the high ends)
    side = np.repeat([1, -1], n)
    lane = np.arange(2 * n)
    for _ in range(END_STEPS):
        # nextafter, not intervals' rounding bound: a step is exactly one float
        step = np.nextafter(ends[lane], side[lane] * np.inf)
        ok = _sides(step, box[lane], powers, d_positive, A) == side[lane]
        lane = lane[ok]
        if not lane.size:
            break
        ends[lane] = step[ok]
    return IntervalArray(ends[:n], ends[n:])


def _sides(x: np.ndarray, box: np.ndarray, powers, d_positive: np.ndarray, A) -> np.ndarray:
    """Per scale x of the box with lane index `box`: +1 where the residual
    (`kite.dziobek_residual`) over the box has D's sign, so x lies below
    every root (t D - N has D's sign for t = x^(-A) above every root N/D),
    -1 where it has the other sign (x above every root), 0 where neither
    sign is verified."""
    p2, *rest = powers
    g = dziobek_residual(IntervalArray(x) ** -A, (p2, *(p[box] for p in rest)))
    sign = g.is_positive().astype(int) - g.is_negative()
    return np.where(d_positive[box], sign, -sign)


def interval_kite_quantities(z3, z4, x2, params: PotentialParams, powers=None) -> KiteTable:
    """The interval KiteTable of the boxes z3 x z4 at scale x2, including
    mass-ratio enclosures.

    The mass ratios are evaluated in their shape-only form (x2 cancels
    exactly) from the boxes' side powers (`powers` when the caller has
    them), which keeps their enclosures free of the scale enclosure's
    width.  Whether they are strictly positive is left to the caller.
    """
    powers = side_powers(z3, z4, params.A) if powers is None else powers
    mu31, mu41 = _mass_ratios(z3, z4, powers)
    return KiteTable(z3, z4, x2, mu31, mu41, params.A)


def _decide_2x2(h11: IntervalArray, h22: IntervalArray, h12: IntervalArray,
                name: str) -> np.ndarray:
    """Per lane, the index of every symmetric matrix [[h11, h12], [h12, h22]]
    with entries in the lane's intervals, from the signs of det and trace:
    a code into OUTCOMES of block `name`, its failed outcome where the
    arithmetic failed, or -1 where undecided."""
    det = h11 * h22 - h12.sq()
    tr = h11 + h22
    failed = OUTCOMES.index(_failed(name))
    return np.select([det.failed | tr.failed, det.is_positive() & tr.is_positive(),
                      det.is_positive() & tr.is_negative(), det.is_negative()],
                     [failed, failed + 1, failed + 2, failed + 3], -1)


def certify_hs_index(t: KiteTable) -> np.ndarray:
    """Index of H_s over each lane's box with interval table t,
    decided by the signs of det and trace, as codes into OUTCOMES."""
    code = _decide_2x2(*hs_explicit(t), "Hs")
    return np.where(code < 0, OUTCOMES.index(HS_UNDECIDED), code)


def interval_ha_matrix(t: KiteTable) -> list[list[IntervalArray]]:
    """Entries of H_a over the symmetry-adapted basis (a3, a4, t34), from
    the closed forms of `kite.ha_explicit` on an interval table."""
    a11, a22, a33, a12, a13, a23 = ha_explicit(t)
    return [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]


def certify_ha_index(t: KiteTable) -> np.ndarray:
    """Deflated index of H_a (rotational zero excluded) over each lane's
    box with interval table t, from the first decided 2x2 principal
    minor, as codes into OUTCOMES.

    At every shape in the box H_a u = 0 exactly for the rotation's
    coordinates u.  If the minor on {i, j} has det != 0 over the box, then
    u_k != 0 for the third index k, so (u, e_i, e_j) is a basis in which
    H_a is diag(0, H_a[{i, j}]); by Sylvester's law of inertia the
    deflated index is the index of that minor.  A lane fails if any entry
    failed, or if the first minor not undecided failed.
    """
    H = interval_ha_matrix(t)
    entries_failed = np.logical_or.reduce([H[i][j].failed for i in range(3) for j in range(i, 3)])
    minors = [_decide_2x2(H[i][i], H[j][j], H[i][j], name) for i, j, name in _HA_MINORS]
    return np.select([entries_failed, *(m >= 0 for m in minors)],
                     [OUTCOMES.index(_failed("Ha")), *minors], OUTCOMES.index(HA_UNDECIDED))


def certify_boxes(z3: IntervalArray, z4: IntervalArray,
                  params: PotentialParams) -> Certificates:
    """Certified H_s and H_a indices over the boxes z3[k] x z4[k].

    The lanes are certified in batches of at most BATCH_LANES; within a
    batch, admissibility, the side powers, the scale enclosure and the
    interval kite table are evaluated once per lane and shared by both
    blocks.
    """
    hs, ha = np.empty(len(z3), dtype=int), np.empty(len(z3), dtype=int)
    for start in range(0, len(z3), BATCH_LANES):
        batch = slice(start, start + BATCH_LANES)
        hs[batch], ha[batch] = _certify_batch(z3[batch], z4[batch], params)
    return Certificates(z3, z4, hs, ha)


def _lanes(powers, keep):
    """The side powers of the lanes `keep`; 2^-A is one value for all lanes."""
    p2, *rest = powers
    return (p2, *(p[keep] for p in rest))


def _certify_batch(z3: IntervalArray, z4: IntervalArray,
                   params: PotentialParams) -> tuple[np.ndarray, np.ndarray]:
    """Codes into OUTCOMES of H_s and H_a over one batch of lanes."""
    hs = np.full(len(z3), OUTCOMES.index(NOT_ADMISSIBLE))
    ha = hs.copy()
    lanes = np.flatnonzero(np.isin(_class_codes(z3, z4, 0.0), (1, 2)))
    with np.errstate(all="ignore"):
        powers = side_powers(z3[lanes], z4[lanes], params.A)
        mu31_at, mu41_at = _mass_boundaries(powers, 0.0)
    keep = ~(mu31_at | mu41_at)
    lanes, powers = lanes[keep], _lanes(powers, keep)
    if lanes.size:
        x2 = certify_kite_scale(z3[lanes], z4[lanes], params, powers)
        hs[lanes[x2.failed]] = ha[lanes[x2.failed]] = OUTCOMES.index(NO_SCALE)
        keep = ~x2.failed
        lanes, x2, powers = lanes[keep], x2[keep], _lanes(powers, keep)
    if lanes.size:
        with np.errstate(all="ignore"):
            t = interval_kite_quantities(z3[lanes], z4[lanes], x2, params, powers)
            hs_t, ha_t = certify_hs_index(t), certify_ha_index(t)
        # the order of the per-box evaluation: mass ratios, their signs, the
        # powers (a distance's failure fails its power too)
        _, _, mu31, mu41 = t.masses
        positive = mu31.is_positive() & mu41.is_positive()
        powers_failed = np.logical_or.reduce([R.failed for R in t.R.values()])
        reasons = [mu31.failed | mu41.failed | (positive & powers_failed), ~positive]
        codes = [OUTCOMES.index(QUANTITIES_FAILED), OUTCOMES.index(MASSES_NOT_POSITIVE)]
        hs[lanes], ha[lanes] = np.select(reasons, codes, hs_t), np.select(reasons, codes, ha_t)
    return hs, ha


def certify_box(z3: Interval, z4: Interval, params: PotentialParams) -> BoxCertificate:
    """Certified H_s and H_a indices over the box z3 x z4: the one-lane
    call of `certify_boxes`."""
    certs = certify_boxes(z3, z4, params)
    return BoxCertificate(z3, z4, OUTCOMES[certs.hs[0]], OUTCOMES[certs.ha[0]])

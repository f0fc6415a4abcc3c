"""Rigorous certification of kite Hessian block indices over shape boxes.

All quantities are enclosed with outward-rounded interval arithmetic, so
a decided certificate holds for *every* shape in the input box:

  * the Dziobek scale is enclosed by a bracket with verified sign
    changes of the residual at its endpoints, narrowed at quarter points;
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
the scale enclosure, whose bracket search and quarter-point probing run
in lockstep, each lane with its own bracket, signs and stop state, and
skip the scales where the residual's sign is known to be undecidable;
only lanes with a scale enter the interval `KiteTable` and the two
blocks.  Every lane rounds exactly as scalar `Interval` arithmetic on
that box alone would, so a box's enclosures and certificates do not
depend on the other boxes of its batch.  The result is arrays (`Certificates`): per lane and block, a
code into OUTCOMES, the closed table of every `CertifiedIndex` a block
can get.  `certify_box` is the one-lane call.  A `None` value means
Unknown, always a sound answer and the expected one on boxes straddling
a bifurcation.  A box's reason is the first that applies, in this order:

  1. "box not verified inside one admissible class", also given to a box
     inside one class where a mass ratio's denominator encloses zero;
  2. "no verified scale enclosure";
  3. "interval evaluation failed: mass-ratio enclosures not strictly
     positive";
  4. "interval evaluation failed: <stage>", where the lane's interval
     arithmetic failed (a NaN lane, where `Interval` would raise): the
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
                   dziobek_coefficients, ha_explicit, hs_explicit, kite_scales, side_powers)
# unused here; perfbench/tracing.py install() looks both names up on this module
from .kite import build_kite, kite_blocks  # noqa: F401

# cap on the quarter-point probing rounds of `certify_kite_scale`
MAX_PROBE_ROUNDS = 200
# A float root's relative error is at most about eps * cond (`kite_scales`'
# cancellation; 0.52 eps * cond at most on 72,000 sampled shapes at A from
# 2.1 to 50, against 40-digit roots), so at cond <= ROOT_COND it is below a
# ninth of HULL_RTOL, and a scale more than HULL_RTOL inside two such roots
# lies strictly between the real ones.
ROOT_COND = 1e3
HULL_RTOL = 1e-12
# boxes certified together as the lanes of one batch
BATCH_LANES = 4096


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
    and H_a; `scale_sign_lanes` counts the lane residual signs that the
    scale enclosure evaluated, over all lanes."""

    z3: IntervalArray
    z4: IntervalArray
    hs: np.ndarray
    ha: np.ndarray
    scale_sign_lanes: int


def _root_hulls(z3: IntervalArray, z4: IntervalArray, A: float):
    """(x2c, no_root, r_lo, r_hi) per lane: `kite_scales` at the box's
    midpoint, and the open hull (r_lo, r_hi) of the box's known roots,
    shrunk by HULL_RTOL at both ends (empty where fewer than two are known).

    The known roots are the float roots at the midpoint and the four
    corners, from one `kite_scales` pass (midpoints first, so x2c is the
    midpoint-only call's bit for bit), whose shape has a root, whose
    cancellation is at most ROOT_COND (its root then lies within HULL_RTOL
    of the real one) and whose D has the midpoint's sign.
    """
    n = len(z3)
    x2, failed, D, cond = (v.reshape(5, n) for v in kite_scales(
        np.concatenate([z3.mid, z3.lo, z3.lo, z3.hi, z3.hi]),
        np.concatenate([z4.mid, z4.lo, z4.hi, z4.lo, z4.hi]), A))
    known = ~failed & (cond <= ROOT_COND) & (np.sign(D) == np.sign(D[0]))
    known &= known[0]
    r_lo = np.where(known, x2, np.inf).min(axis=0) * (1.0 + HULL_RTOL)
    r_hi = np.where(known, x2, -np.inf).max(axis=0) * (1.0 - HULL_RTOL)
    return x2[0], failed[0], r_lo, r_hi


def certify_kite_scale(z3: IntervalArray, z4: IntervalArray, params: PotentialParams,
                       powers=None) -> tuple[IntervalArray, int]:
    """Enclosures of the Dziobek scale valid for every shape in each box,
    and the number of lane residual signs the search evaluated.

    Brackets the residual with verified constant signs at both endpoints,
    widening a relative bracket x2c*(1 -+ w) around the float scale x2c at
    the box midpoint, w = 1e-8, 2e-8, ... below 0.8, until the signs
    differ.  Then it probes the bracket's quarter points and moves an
    endpoint to each probe whose sign is decided, until the bracket is
    1e-14 relative wide, no probe decides, or MAX_PROBE_ROUNDS rounds have
    run.  The box's side powers (`side_powers(z3, z4, A)`, or `powers`
    when the caller has them) are enclosed once, for every probe (the
    residual in t = x^(-A)) and for the closed form x2 = (D/N)^(1/A) the
    result is intersected with.  A lane fails when no verified bracket
    exists (e.g. a box straddling the symmetric shape, where the residual
    is identically zero).

    The residual is g(x; s) = t*D(s)*(t - t*(s)) at shape s: it has D's
    sign below s's root and the other sign above it.  So at a scale x
    strictly between the roots of two shapes of the box with one sign of
    D, the real g takes both signs over the box, and so does its interval
    enclosure: the sign there is never decided.  Such scales, those inside
    the lane's hull of known roots (`_root_hulls`), are not evaluated: a
    bracket round skips a lane with a trial end inside its hull (it moves
    on to the next w), and a probe inside the hull counts as undecided.
    Every evaluated sign, bracket and enclosure is the one that evaluating
    every lane at every round would give, bit for bit.

    z3 and z4 are IntervalArray lanes, and so is the enclosure; a lane with
    no enclosure is a failed lane.
    """
    A = params.A
    sign_lanes = 0
    with np.errstate(all="ignore"):
        x2c, no_root, r_lo, r_hi = _root_hulls(z3, z4, A)
        powers = side_powers(z3, z4, A) if powers is None else powers
        p2, pd, p3, p4 = powers
        ok = ((z3.lo > z4.hi) & (z4.lo > 0.0) & ~no_root
              & ~(pd.failed | p3.failed | p4.failed))

        def outside(x: np.ndarray, lanes: np.ndarray) -> np.ndarray:
            """Mask of the scales x[k] not inside lane lanes[k]'s hull of known roots."""
            return ~((r_lo[lanes] < x) & (x < r_hi[lanes]))

        def signs(x: np.ndarray, lanes: np.ndarray) -> np.ndarray:
            """Sign of the residual at scale x[k] over lane lanes[k]'s box, 0 if undecided."""
            nonlocal sign_lanes
            sign_lanes += x.size
            t = IntervalArray(x) ** -A
            g = ((t * p2 - 1.0) * (t * pd[lanes] - 1.0)
                 - (t * p3[lanes] - 1.0) * (t * p4[lanes] - 1.0))
            return np.where(g.is_positive(), 1, np.where(g.is_negative(), -1, 0))

        n = len(z3)
        lo, hi = np.full(n, np.nan), np.full(n, np.nan)
        slo, shi = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        search = np.flatnonzero(ok)
        w = 1e-8
        while w < 0.8 and search.size:
            clo, chi = x2c[search] * (1.0 - w), x2c[search] * (1.0 + w)
            ev = np.flatnonzero(outside(clo, search) & outside(chi, search))
            if ev.size:
                s = signs(np.concatenate([clo[ev], chi[ev]]),
                          np.concatenate([search[ev], search[ev]]))
                s_lo, s_hi = s[:ev.size], s[ev.size:]
                found = (s_lo != 0) & (s_hi != 0) & (s_lo != s_hi)
                k = ev[found]
                got = search[k]
                lo[got], hi[got], slo[got], shi[got] = clo[k], chi[k], s_lo[found], s_hi[found]
                search = np.delete(search, k)
            w *= 2.0

        # Quarter-point probing instead of midpoint bisection: the sign right at
        # the root is never decidable, but both bracket ends can still close in
        # until the undecidable core (a few ulps wide) is reached.
        probe = np.flatnonzero(~np.isnan(lo))
        for _ in range(MAX_PROBE_ROUNDS):
            l, h = lo[probe], hi[probe]
            width = h - l
            m1 = l + 0.25 * width
            m2 = l + 0.75 * width
            go = (width > 1e-14 * l) & (l < m1) & (m1 < m2) & (m2 < h)
            probe, l, h, m1, m2 = probe[go], l[go], h[go], m1[go], m2[go]
            if not probe.size:
                break
            s1, s2 = np.zeros(probe.size, dtype=int), np.zeros(probe.size, dtype=int)
            e1, e2 = outside(m1, probe), outside(m2, probe)
            s = signs(np.concatenate([m1[e1], m2[e2]]), np.concatenate([probe[e1], probe[e2]]))
            n1 = np.count_nonzero(e1)
            s1[e1], s2[e2] = s[:n1], s[n1:]
            sl, sh = slo[probe], shi[probe]
            lo1, hi1 = s1 == sl, s1 == sh
            l, h = np.where(lo1, m1, l), np.where(hi1, m1, h)
            second = (h - l > 1e-14 * l) & (m2 < h)
            hi2, lo2 = second & (s2 == sh), second & (s2 == sl)
            l, h = np.where(lo2, m2, l), np.where(hi2, m2, h)
            lo[probe], hi[probe] = l, h
            probe = probe[lo1 | hi1 | lo2 | hi2]
        enclosure = IntervalArray(lo, hi)
        # The substitution t = x2^(-A) solves the residual equation exactly:
        # x2 = (D/N)^(1/A); its direct interval evaluation is a second valid
        # enclosure, so intersecting can only tighten the bracket (lanes where
        # it fails or the intersection is empty keep the bracket).
        D, N = dziobek_coefficients(powers)
        tight = enclosure.intersect((D / N) ** (1.0 / A))
    keep = tight.failed
    return IntervalArray(np.where(keep, enclosure.lo, tight.lo),
                         np.where(keep, enclosure.hi, tight.hi)), sign_lanes


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
    sign_lanes = 0
    for start in range(0, len(z3), BATCH_LANES):
        batch = slice(start, start + BATCH_LANES)
        hs[batch], ha[batch], n = _certify_batch(z3[batch], z4[batch], params)
        sign_lanes += n
    return Certificates(z3, z4, hs, ha, sign_lanes)


def _lanes(powers, keep):
    """The side powers of the lanes `keep`; 2^-A is one float for all lanes."""
    p2, *rest = powers
    return (p2, *(p[keep] for p in rest))


def _certify_batch(z3: IntervalArray, z4: IntervalArray,
                   params: PotentialParams) -> tuple[np.ndarray, np.ndarray, int]:
    """Codes into OUTCOMES of H_s and H_a over one batch of lanes, and the
    scale search's count of evaluated residual signs."""
    hs = np.full(len(z3), OUTCOMES.index(NOT_ADMISSIBLE))
    ha = hs.copy()
    sign_lanes = 0
    lanes = np.flatnonzero(np.isin(_class_codes(z3, z4, 0.0), (1, 2)))
    with np.errstate(all="ignore"):
        powers = side_powers(z3[lanes], z4[lanes], params.A)
        mu31_at, mu41_at = _mass_boundaries(powers, 0.0)
    keep = ~(mu31_at | mu41_at)
    lanes, powers = lanes[keep], _lanes(powers, keep)
    if lanes.size:
        x2, sign_lanes = certify_kite_scale(z3[lanes], z4[lanes], params, powers)
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
    return hs, ha, sign_lanes


def certify_box(z3: Interval, z4: Interval, params: PotentialParams) -> BoxCertificate:
    """Certified H_s and H_a indices over the box z3 x z4: the one-lane
    call of `certify_boxes`."""
    certs = certify_boxes(IntervalArray.from_intervals([z3]),
                          IntervalArray.from_intervals([z4]), params)
    return BoxCertificate(z3, z4, OUTCOMES[certs.hs[0]], OUTCOMES[certs.ha[0]])

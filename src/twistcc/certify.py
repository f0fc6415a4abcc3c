"""Rigorous certification of kite Hessian block indices over shape boxes.

All quantities are enclosed with outward-rounded interval arithmetic, so
a decided certificate holds for *every* shape in the input box:

  * the Dziobek scale is enclosed by a bracket with verified sign
    changes of the residual at its endpoints, narrowed at quarter points;
  * the 2x2 block H_s is enclosed through its explicit closed-form
    entries and its index decided from the signs of det and trace;
  * the 3x3 block H_a carries the rotational zero eigenvalue exactly at
    every kite CC (H_a u = 0 for the rotation's coordinates u), so its
    deflated index is the index of any 2x2 principal minor whose det is
    certified nonzero: then (u, e_i, e_j) is a basis in which H_a is
    diag(0, minor), and Sylvester's law of inertia applies.  The three
    minors are tried in turn with the same det/trace test as H_s.  The
    interval entries come from `kite.ha_explicit`, the closed forms the
    float kite map uses.

`certify_box` evaluates the scale enclosure and the interval kite
quantities once per box and hands them to both blocks.  `None`-valued
certificates mean Unknown; Unknown is always a sound answer and the
expected one on boxes straddling a bifurcation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import PotentialParams
from .intervals import Interval, IntervalDomainError, IntervalError
from .kite import (KiteError, KiteQuantities, KiteShape, dziobek_coefficients,
                   ha_explicit, hs_explicit, kite_scale, mass_ratio_terms, side_powers)
# unused here; perfbench/tracing.py install() looks both names up on this module
from .kite import build_kite, kite_blocks  # noqa: F401

SQRT3_I = Interval(3.0).sqrt()
# cap on the quarter-point probing rounds of `certify_kite_scale`
MAX_PROBE_ROUNDS = 200


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
        if self.hs.known and self.ha.known:
            return self.hs.value + self.ha.value
        return None


def box_admissible(z3: Interval, z4: Interval) -> str | None:
    """'tall'/'wide' if the whole box is strictly inside one class, else None."""
    if z4.lo <= 0.0 or z3.lo <= z4.hi:
        return None
    yc = 0.5 * z3 - 0.5 / z3
    if z3.lo > SQRT3_I.hi and z4.lo > yc.hi and z4.hi < (SQRT3_I / 2.0).lo:
        return "tall"
    if z3.hi < SQRT3_I.lo and z4.hi < yc.lo:
        return "wide"
    return None


def certify_kite_scale(z3: Interval, z4: Interval, params: PotentialParams) -> Interval | None:
    """Enclosure of the Dziobek scale valid for every shape in the box.

    Brackets the residual with verified constant signs at both endpoints,
    widening a relative bracket around the float scale at the box midpoint
    until the signs differ.  Then it probes the bracket's quarter points
    and moves an endpoint to each probe whose sign is decided, until the
    bracket is 1e-14 relative wide, no probe decides, or MAX_PROBE_ROUNDS
    rounds have run.  The box's side powers are enclosed once, for every
    probe (the residual in t = x^(-A)) and for the closed form
    x2 = (D/N)^(1/A) the result is intersected with.  Returns None when
    no verified bracket exists (e.g. a box straddling the symmetric shape,
    where the residual is identically zero).
    """
    params.require_f_domain()
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

    # Quarter-point probing instead of midpoint bisection: the sign right at
    # the root is never decidable, but both bracket ends can still close in
    # until the undecidable core (a few ulps wide) is reached.
    for _ in range(MAX_PROBE_ROUNDS):
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
    # The substitution t = x2^(-A) solves the residual equation exactly:
    # x2 = (D/N)^(1/A); its direct interval evaluation is a second valid
    # enclosure, so intersecting can only tighten the bracket.
    try:
        D, N = dziobek_coefficients(powers)
        enclosure = enclosure.intersect((D / N) ** (1.0 / A))
    except (IntervalError, IntervalDomainError):
        pass
    return enclosure


def interval_kite_quantities(z3: Interval, z4: Interval, x2: Interval,
                             params: PotentialParams) -> KiteQuantities:
    """KiteQuantities with Interval fields, including mass-ratio enclosures.

    The mass ratios are evaluated in their shape-only form (x2 cancels
    exactly), which keeps their enclosures free of the scale enclosure's
    width.
    """
    mu31, mu41 = mass_ratio_terms(z3, z4, params.A)
    if not (mu31.is_positive() and mu41.is_positive()):
        raise IntervalDomainError("mass-ratio enclosures not strictly positive")
    return KiteQuantities.at(z3, z4, x2, mu31, mu41, params.A)


def _decide_2x2(h11: Interval, h22: Interval, h12: Interval,
                name: str) -> CertifiedIndex | None:
    """Index of every symmetric matrix [[h11, h12], [h12, h22]] with entries
    in the intervals, from the signs of det and trace; None if undecided."""
    det = h11 * h22 - h12.sq()
    tr = h11 + h22
    if det.is_positive() and tr.is_positive():
        return CertifiedIndex(0, f"det({name}) > 0 and tr({name}) > 0")
    if det.is_positive() and tr.is_negative():
        return CertifiedIndex(2, f"det({name}) > 0 and tr({name}) < 0")
    if det.is_negative():
        return CertifiedIndex(1, f"det({name}) < 0")
    return None


def certify_hs_index(q: KiteQuantities) -> CertifiedIndex:
    """Index of H_s over a box with interval quantities q, decided by the
    signs of det and trace."""
    try:
        decided = _decide_2x2(*hs_explicit(q), "Hs")
    except (IntervalError, IntervalDomainError) as exc:
        return CertifiedIndex(None, f"interval evaluation failed: {exc}")
    return decided or CertifiedIndex(None, "sign of det/tr undecided over the box")


def interval_ha_matrix(q: KiteQuantities) -> list[list[Interval]]:
    """Entries of H_a over the symmetry-adapted basis (a3, a4, t34), from
    the closed forms of `kite.ha_explicit` on interval quantities."""
    a11, a22, a33, a12, a13, a23 = ha_explicit(q)
    return [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]


_HA_MINORS = ((0, 1, "Ha[a3|a4]"), (0, 2, "Ha[a3|t34]"), (1, 2, "Ha[a4|t34]"))


def certify_ha_index(q: KiteQuantities) -> CertifiedIndex:
    """Deflated index of H_a (rotational zero excluded) over a box with
    interval quantities q, from the first decided 2x2 principal minor.

    At every shape in the box H_a u = 0 exactly for the rotation's
    coordinates u.  If the minor on {i, j} has det != 0 over the box, then
    u_k != 0 for the third index k, so (u, e_i, e_j) is a basis in which
    H_a is diag(0, H_a[{i, j}]); by Sylvester's law of inertia the
    deflated index is the index of that minor.
    """
    try:
        H = interval_ha_matrix(q)
        for i, j, name in _HA_MINORS:
            decided = _decide_2x2(H[i][i], H[j][j], H[i][j], name)
            if decided is not None:
                return decided
    except (IntervalError, IntervalDomainError) as exc:
        return CertifiedIndex(None, f"interval evaluation failed: {exc}")
    return CertifiedIndex(None, "no 2x2 principal minor of H_a decided over the box")


def certify_box(z3: Interval, z4: Interval, params: PotentialParams) -> BoxCertificate:
    """Certified H_s and H_a indices over the box z3 x z4.

    Admissibility, the scale enclosure and the interval quantities are
    evaluated once and shared by both blocks.
    """
    def unknown(reason: str) -> BoxCertificate:
        cert = CertifiedIndex(None, reason)
        return BoxCertificate(z3, z4, cert, cert)

    if box_admissible(z3, z4) is None:
        return unknown("box not verified inside one admissible class")
    x2 = certify_kite_scale(z3, z4, params)
    if x2 is None:
        return unknown("no verified scale enclosure")
    try:
        q = interval_kite_quantities(z3, z4, x2, params)
    except (IntervalError, IntervalDomainError) as exc:
        return unknown(f"interval evaluation failed: {exc}")
    return BoxCertificate(z3, z4, certify_hs_index(q), certify_ha_index(q))

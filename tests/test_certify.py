import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twistcc.certify as certify
from twistcc.certify import (OUTCOMES, BoxCertificate, _decide_2x2, certify_box,
                             certify_boxes, certify_ha_index, certify_kite_scale,
                             interval_kite_quantities)
from twistcc.geometry import PotentialParams
from twistcc.hessian import morse_index
from twistcc.intervals import Interval as Box
from twistcc.intervals import IntervalArray
from twistcc.kite import (ROTATION_ZERO_RTOL, KiteShape, KiteTable, _class_codes,
                          _kite_terms, _mass_boundaries, build_kite, circumcenter_z4,
                          ha_explicit, hs_explicit, kite_blocks, kite_scale, side_powers)

from oracles import (Interval, bisect_dziso, certify_box_ref, certify_kite_scale_ref,
                     dziobek_corner_roots_ref, dziso_residual, kite_scale_corners_ref, lane,
                     lanes)

SQRT3 = math.sqrt(3.0)


def point_box(z3, z4, w=0.0):
    return Interval(z3 - w, z3 + w), Interval(z4 - w, z4 + w)


def box_lanes(boxes):
    return lanes(b[0] for b in boxes), lanes(b[1] for b in boxes)


def certified(z3, z4, params):
    """`certify_box` on the library boxes with the ends of the reference
    intervals z3 and z4."""
    return certify_box(Box(z3.lo, z3.hi), Box(z4.lo, z4.hi), params)


def box_class(z3, z4):
    """Class of the box z3 x z4 as one lane: 'tall' or 'wide' if it is
    strictly inside one class, else None."""
    return (None, "tall", "wide", None)[int(_class_codes(*box_lanes([(z3, z4)]), 0.0)[0])]


def box_scale(z3, z4, params):
    """Scale enclosure of the box z3 x z4 as one lane: an Interval, or None
    where the lane failed."""
    x2 = certify_kite_scale(*box_lanes([(z3, z4)]), params)
    return None if x2.failed[0] else lane(x2, 0)


def box_certificates(certs):
    """The per-box view of `certify_boxes`' arrays: one BoxCertificate per
    lane, its outcomes read through OUTCOMES."""
    return [BoxCertificate(Interval(a, b), Interval(c, d), OUTCOMES[s], OUTCOMES[t])
            for a, b, c, d, s, t in zip(certs.z3.lo.tolist(), certs.z3.hi.tolist(),
                                        certs.z4.lo.tolist(), certs.z4.hi.tolist(),
                                        certs.hs.tolist(), certs.ha.tolist())]


def float_indices(shape, params):
    kite = build_kite(shape, params)
    blocks = kite_blocks(kite, params)
    ws = np.linalg.eigvalsh(blocks.h_s)
    wa = np.linalg.eigvalsh(blocks.h_a)
    rot = int(np.argmin(np.abs(wa)))
    idx_ha = sum(1 for t, w in enumerate(wa) if t != rot and w < 0)
    return int((ws < 0).sum()), int(idx_ha)


# --- admissibility -------------------------------------------------------------

def test_box_admissible():
    assert box_class(*point_box(2.0, 0.8, 1e-3)) == "tall"
    assert box_class(*point_box(1.3, 0.1, 1e-3)) == "wide"
    assert box_class(*point_box(2.0, 0.75, 1e-3)) is None        # on the curve
    assert box_class(Interval(1.7, 1.8), Interval(0.78, 0.8)) is None  # straddles sqrt3


def test_box_straddling_mu31_boundary_is_not_admissible(newton):
    # inside the wide class, but d^-A - (1+z3^2)^(-A/2), the denominator of
    # mu31, encloses zero: the box is outside the admissible region, not a
    # failed interval evaluation
    z3 = Interval(1.3192941530759053, 1.666579768351941)
    z4 = Interval(0.0010238204538190188, 0.17466662809183692)
    assert box_class(z3, z4) == "wide"
    _, pd, p3, _ = side_powers(z3, z4, newton.A)
    assert (pd - p3).contains_zero()
    box = certified(z3, z4, newton)
    assert box.hs == box.ha == certify.NOT_ADMISSIBLE


def test_box_class_holds_at_every_shape(rng):
    # a box gets a class only when every shape in it has that class at margin
    # 0: its four corners and twelve random inner shapes
    n = 4000
    lo3, lo4 = rng.uniform(0.5, 3.0, n), rng.uniform(-0.2, 1.2, n)
    w3, w4 = 10.0 ** rng.uniform(-6.0, -0.5, (2, n))
    codes = _class_codes(IntervalArray(lo3, lo3 + w3), IntervalArray(lo4, lo4 + w4), 0.0)
    assert set(codes.tolist()) == {0, 1, 2}
    t = rng.uniform(0.0, 1.0, (2, 16, n))
    t[:, :4] = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])[:, :, None]
    z3s, z4s = np.minimum(lo3 + t[0] * w3, lo3 + w3), np.minimum(lo4 + t[1] * w4, lo4 + w4)
    decided = codes > 0
    assert (_class_codes(z3s, z4s, 0.0)[:, decided] == codes[decided]).all()


def test_box_class_bounds_are_the_float_constants():
    # SQRT3 (sqrt 3 rounded to nearest) and SQRT3 / 2 bound boxes as they
    # are: a double above (below) them is above (below) the real value
    up, down = math.nextafter(SQRT3, 3.0), math.nextafter(SQRT3, 0.0)
    z4 = Interval(0.8, 0.81)
    assert box_class(Interval(up, 1.8), z4) == "tall"
    assert box_class(Interval(SQRT3, 1.8), z4) is None
    assert box_class(Interval(1.5, down), Interval(0.01, 0.02)) == "wide"
    assert box_class(Interval(1.5, SQRT3), Interval(0.01, 0.02)) is None
    half = SQRT3 / 2.0
    assert box_class(Interval(1.8, 1.9), Interval(0.8, math.nextafter(half, 0.0))) == "tall"
    assert box_class(Interval(1.8, 1.9), Interval(0.8, half)) is None


@pytest.mark.parametrize("A", [3.0, 1000.0])
def test_box_mass_boundary_is_denominator_containment(A, rng):
    # on boxes, kite's mass-boundary rule at tolerance 0 flags exactly the
    # lanes where pd - p3 (mu31) or p4 - pd (mu41) encloses zero; a failed
    # lane encloses nothing and is never flagged
    n = 20000
    lo3, lo4 = rng.uniform(0.5, 3.0, n), rng.uniform(-0.2, 1.2, n)
    w3, w4 = 10.0 ** rng.uniform(-8.0, -0.5, (2, n))
    z3, z4 = IntervalArray(lo3, lo3 + w3), IntervalArray(lo4, lo4 + w4)
    with np.errstate(all="ignore"):
        _, pd, p3, p4 = powers = side_powers(z3, z4, A)
        mu31_at, mu41_at = _mass_boundaries(powers, 0.0)
    for at, d in ((mu31_at, pd - p3), (mu41_at, p4 - pd)):
        assert at.any() and d.failed.any()
        assert (at == d.contains_zero()).all()


# --- scale enclosure ------------------------------------------------------------

def test_scale_enclosure_point_box(newton):
    z3, z4 = point_box(2.0, 0.3)
    enc = box_scale(z3, z4, newton)
    assert enc is not None
    assert enc.width < 1e-10
    x2 = kite_scale(KiteShape(2.0, 0.3), newton)
    oracle = bisect_dziso(KiteShape(2.0, 0.3), newton)
    assert enc.contains(x2) or abs(enc.mid - x2) < 1e-13
    assert abs(enc.mid - oracle) < 1e-10


def test_scale_enclosure_symmetric_point(newton):
    z3 = Interval(SQRT3 - 1e-3, SQRT3 + 1e-3)
    z4 = Interval(1 / SQRT3 - 1e-3, 1 / SQRT3 + 1e-3)
    assert box_scale(z3, z4, newton) is None


def test_scale_enclosure_refinement(newton):
    widths = []
    for w in (1e-2, 1e-3, 1e-4, 1e-6):
        z3, z4 = point_box(1.9, 0.8, w)
        enc = box_scale(z3, z4, newton)
        assert enc is not None
        x2_mid = kite_scale(KiteShape(1.9, 0.8), newton)
        assert enc.contains(x2_mid)
        widths.append(enc.width)
    assert all(b <= a * 1.001 for a, b in zip(widths, widths[1:]))
    # samples of the box have their roots inside the enclosure
    z3, z4 = point_box(1.9, 0.8, 1e-3)
    enc = box_scale(z3, z4, newton)
    for s3 in (z3.lo, z3.mid, z3.hi):
        for s4 in (z4.lo, z4.mid, z4.hi):
            assert enc.contains(kite_scale(KiteShape(s3, s4), newton))


def test_scale_enclosure_encloses_side_powers_once(monkeypatch, newton):
    # the corners are the ends of one enclosure of the box's side powers,
    # not re-enclosed from the kite's distances through dziso_residual
    calls = Counter()

    def counted(name, fn):
        return lambda *a: calls.update([name]) or fn(*a)

    monkeypatch.setattr(certify, "side_powers", counted("side_powers", side_powers))
    monkeypatch.setattr(certify, "dziso_residual", counted("dziso_residual", dziso_residual),
                        raising=False)
    assert box_scale(*point_box(2.0, 0.8, 1e-4), newton) is not None
    assert calls == {"side_powers": 1}


def test_certify_batch_encloses_side_powers_once(monkeypatch, newton):
    # the mass-boundary test, the scale enclosure and the mass ratios share one
    # enclosure of the batch's side powers
    calls = Counter()
    monkeypatch.setattr(certify, "side_powers",
                        lambda *a: calls.update(["side_powers"]) or side_powers(*a))
    monkeypatch.setattr(certify, "BATCH_LANES", 7)
    certs = certify_boxes(*box_lanes(window_boxes((1.99, 2.01), (0.79, 0.81), 2)), newton)
    assert (certs.hs != certify.OUTCOMES.index(certify.NOT_ADMISSIBLE)).all()
    assert calls == {"side_powers": 3}      # 16 boxes, batches of 7, 7 and 2


# --- the scale enclosure against float roots and the bracket search -----------------

def residual_enclosure(z3: Interval, z4: Interval, x: float, A: float) -> Interval:
    """The scalar interval residual at scale x over the box z3 x z4."""
    p2, pd, p3, p4 = side_powers(z3, z4, A)
    t = Interval(x) ** -A
    return (t * p2 - 1.0) * (t * pd - 1.0) - (t * p3 - 1.0) * (t * p4 - 1.0)


def sampled_boxes(rng, n):
    """n boxes of random widths 1e-7 to 0.1 inside 1.0-2.2 x 0.01-0.87, a
    third of them around the symmetric shape, where the roots are worst
    conditioned, and a third on the circumcenter curve."""
    w3, w4 = 10.0 ** rng.uniform(-7, -1, n), 10.0 ** rng.uniform(-7, -1, n)
    c3 = rng.uniform(1.0, 2.2, n)
    c3[: n // 3] = SQRT3 + rng.uniform(-0.05, 0.05, n // 3)
    c4 = rng.uniform(0.01, 0.87, n)
    c4[: n // 3] = 1 / SQRT3 + rng.uniform(-0.05, 0.05, n // 3)
    c4[n // 3: 2 * (n // 3)] = circumcenter_z4(c3[n // 3: 2 * (n // 3)])
    lo3 = np.clip(c3 - w3 / 2, 1.0, 2.2 - w3)
    lo4 = np.clip(c4 - w4 / 2, 0.01, 0.87 - w4)
    return IntervalArray(lo3, lo3 + w3), IntervalArray(lo4, lo4 + w4)


@pytest.mark.parametrize("A", [2.5, 3.0, 6.0, 12.0])
def test_scales_inside_known_roots_are_undecided(rng, A):
    # no bracket is tighter than the corner hull: at every scale whose t =
    # x^-A lies strictly between two corner roots, the interval residual
    # over the box has no decided sign
    z3, z4 = sampled_boxes(rng, 300)
    checked = 0
    for k in range(len(z3)):
        box = lane(z3, k), lane(z4, k)
        if box_scale(*box, PotentialParams(A)) is None:
            continue
        _, roots = dziobek_corner_roots_ref(*box, A)
        # the real roots of the corners are inside their enclosures, so
        # (inner_lo, inner_hi) lies between the smallest and largest of them
        inner_lo, inner_hi = min(r.hi for r in roots), max(r.lo for r in roots)
        if not inner_lo < inner_hi:
            continue
        a, b = inner_hi ** (-1.0 / A), inner_lo ** (-1.0 / A)
        for x in (0.5 * (a + b), *rng.uniform(a, b, 4)):
            t = Interval(float(x)) ** -A
            if inner_lo < t.lo and t.hi < inner_hi:
                g = residual_enclosure(*box, float(x), A)
                assert g.contains_zero(), (box, A, x, g)
                checked += 1
    assert checked > 300


def assert_scales_hold_roots_and_bracket(z3, z4, params, samples):
    """Each lane's enclosure holds the float roots of `samples` inner
    shapes (the box's corners among them) and lies inside the bracket
    search's enclosure, and a lane fails only where the bracket fails too.
    Returns the number of float roots checked."""
    x2 = certify_kite_scale(z3, z4, params)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.0, (2, samples, len(z3)))
    u[:, :4] = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])[:, :, None]
    s3 = np.minimum(z3.lo + u[0] * (z3.hi - z3.lo), z3.hi)
    s4 = np.minimum(z4.lo + u[1] * (z4.hi - z4.lo), z4.hi)
    with np.errstate(all="ignore"):
        roots, _, _, failed = _kite_terms(s3, s4, params.A)
    has_root = ~(failed["indeterminate"] | failed["infeasible"]) & (s3 > s4) & (s4 > 0.0)
    inside = (x2.lo <= roots) & (roots <= x2.hi)
    assert (inside | ~has_root | x2.failed).all()
    for k in range(len(z3)):
        box = lane(z3, k), lane(z4, k)
        bracket = certify_kite_scale_ref(*box, params)
        if bracket is not None:
            assert not x2.failed[k], (box, bracket)
            assert bracket.lo <= x2.lo[k] and x2.hi[k] <= bracket.hi, \
                (box, bracket, lane(x2, k))
    return int(np.count_nonzero(has_root & ~x2.failed))


@pytest.mark.parametrize("A", [2.5, 3.0, 6.0, 12.0])
def test_scale_enclosure_holds_roots_inside_bracket_on_sampled_boxes(rng, A):
    z3, z4 = sampled_boxes(rng, 300)
    assert assert_scales_hold_roots_and_bracket(z3, z4, PotentialParams(A), 12) > 1000


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-7.0, -1.0), st.floats(-7.0, -1.0),
                          st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
       st.floats(2.0, 12.0, exclude_min=True))
@example([(-3.0, -3.0, (SQRT3 - 1.0) / 1.2, (1 / SQRT3 - 0.01) / 0.86)], 3.0)
@example([(-2.0, -2.0, 0.5, 0.9), (-7.0, -7.0, 0.83, 0.91), (-1.0, -1.0, 1.0, 0.0)], 6.0)
@example([(-7.0, -5.060546875, 0.0, 0.999)], 10.12109375)
def test_scale_enclosure_holds_roots_inside_bracket(boxes, A):
    # boxes of widths 10^e3 x 10^e4 at relative places u3, u4 in the window
    w3, w4 = 10.0 ** np.array([b[0] for b in boxes]), 10.0 ** np.array([b[1] for b in boxes])
    lo3 = 1.0 + np.array([b[2] for b in boxes]) * (1.2 - w3)
    lo4 = 0.01 + np.array([b[3] for b in boxes]) * (0.86 - w4)
    assert_scales_hold_roots_and_bracket(IntervalArray(lo3, lo3 + w3),
                                         IntervalArray(lo4, lo4 + w4), PotentialParams(A), 8)


# --- quantity enclosures ----------------------------------------------------------

def test_interval_quantities_contain_floats(newton):
    shape = KiteShape(2.0, 0.8)
    z3, z4 = point_box(shape.z3, shape.z4, 1e-5)
    x2 = box_scale(z3, z4, newton)
    qi = interval_kite_quantities(z3, z4, x2, newton)
    kite = build_kite(shape, newton)
    qf = KiteTable.of(kite, newton)
    for name in ("z3", "z4", "x2"):
        assert getattr(qi, name).contains(getattr(qf, name)), name
    assert qi.masses[:2] == qf.masses[:2] == (1.0, 1.0)
    for iv, fl in zip(qi.masses[2:], qf.masses[2:]):
        assert iv.contains(fl), (iv, fl)
    # values from the fixed coordinates alone (dx = -2, 0, ...) are exact floats
    for name in ("dx", "dy", "r", "R", "S"):
        for pair, fl in getattr(qf, name).items():
            iv = getattr(qi, name)[pair]
            assert iv.contains(fl) if isinstance(iv, Interval) else iv == fl, (name, pair)
    h11, h22, h12 = hs_explicit(qi)
    f11, f22, f12 = hs_explicit(qf)
    assert h11.contains(f11) and h22.contains(f22) and h12.contains(f12)
    for iv, fl in zip(ha_explicit(qi), ha_explicit(qf)):
        assert iv.contains(fl), (iv, fl)
    # the shared shape algebra on a point box encloses its float values
    pz3, pz4, px2 = Interval(shape.z3), Interval(shape.z4), Interval(kite.x2)
    p2, *powers = side_powers(pz3, pz4, newton.A)
    f2, *fpowers = side_powers(shape.z3, shape.z4, newton.A)
    assert p2 == f2
    powers.append(dziso_residual(pz3, pz4, px2, newton.A))
    fpowers.append(dziso_residual(shape.z3, shape.z4, kite.x2, newton.A))
    qp = KiteTable(pz3, pz4, px2, Interval(kite.mu31), Interval(kite.mu41), newton.A)
    powers.extend(ha_explicit(qp))
    fpowers.extend(ha_explicit(qf))
    for iv, fl in zip(powers, fpowers):
        assert iv.contains(fl), (iv, fl)


# --- H_s certification -------------------------------------------------------------

def test_hs_certificates_match_float(rng, newton):
    # width-1e-12 point boxes decide for (essentially) every interior shape
    from test_kite import sample_admissible_shapes
    checked = 0
    for shape in sample_admissible_shapes(rng, 30):
        z3, z4 = point_box(shape.z3, shape.z4, 1e-12)
        cert = certified(z3, z4, newton).hs
        if not cert.known:
            continue  # legitimately near a bifurcation
        idx_hs, _ = float_indices(shape, newton)
        assert cert.value == idx_hs, (shape, cert)
        checked += 1
    assert checked >= 29


def test_certified_box_containment_spot_check(rng, newton):
    # a decided box is never contradicted by float evaluation at member shapes
    z3, z4 = point_box(2.0, 0.8, 1e-4)
    cert = certified(z3, z4, newton).hs
    assert cert.known
    for _ in range(1000):
        shape = KiteShape(rng.uniform(z3.lo, z3.hi), rng.uniform(z4.lo, z4.hi))
        idx_hs, _ = float_indices(shape, newton)
        assert idx_hs == cert.value


def test_certified_signs_in_known_regions(newton):
    # interior of the index-0 region: both deflated H_a eigenvalues positive
    assert certified(*point_box(1.78, 0.70, 1e-6), newton).ha.value == 0
    assert certified(*point_box(1.78, 0.70, 1e-6), newton).hs.value == 0
    # one negative eigenvalue from H_a while H_s stays positive definite
    assert certified(*point_box(2.0, 0.8, 1e-6), newton).ha.value == 1
    assert certified(*point_box(2.0, 0.8, 1e-6), newton).hs.value == 0
    # index-2 interior: one negative from each block
    assert certified(*point_box(1.92975, 0.71275, 1e-6), newton).ha.value == 1
    assert certified(*point_box(1.92975, 0.71275, 1e-6), newton).hs.value == 1


def test_hs_unknown_across_boundary(newton):
    # scan a z4 line crossing the H_s sign change inside the tall class,
    # then certify a box straddling the detected crossing
    z3v = 1.9
    lo, hi = circumcenter_z4(z3v) + 0.01, SQRT3 / 2 - 0.01
    prev = None
    crossing = None
    for k in range(60):
        z4v = lo + (hi - lo) * k / 59
        idx_hs, _ = float_indices(KiteShape(z3v, z4v), newton)
        if prev is not None and idx_hs != prev[1]:
            crossing = (prev[0], z4v)
            break
        prev = (z4v, idx_hs)
    assert crossing is not None
    z3, z4 = Interval(z3v - 1e-4, z3v + 1e-4), Interval(*crossing)
    cert = certified(z3, z4, newton).hs
    assert not cert.known


# --- H_a certification -------------------------------------------------------------

def test_ha_certificates_match_float(rng, newton):
    from test_kite import sample_admissible_shapes
    checked = 0
    for shape in sample_admissible_shapes(rng, 20):
        z3, z4 = point_box(shape.z3, shape.z4, 1e-9)
        cert = certified(z3, z4, newton).ha
        if not cert.known:
            continue
        _, idx_ha = float_indices(shape, newton)
        assert cert.value == idx_ha, (shape, cert)
        checked += 1
    assert checked >= 17


def test_ha_unknown_near_symmetric_point(newton):
    z3 = Interval(SQRT3 - 1e-2, SQRT3 + 1e-2)
    z4 = Interval(1 / SQRT3 - 1e-2, 1 / SQRT3 + 1e-2)
    cert = certified(z3, z4, newton).ha
    assert not cert.known


def test_certify_box_total(newton):
    z3, z4 = point_box(2.0, 0.8, 1e-6)
    box = certified(z3, z4, newton)
    assert box.hs.known and box.ha.known
    idx_hs, idx_ha = float_indices(KiteShape(2.0, 0.8), newton)
    assert box.total == idx_hs + idx_ha


def test_certify_box_one_scale_enclosure(monkeypatch, newton):
    # H_s and H_a share one scale enclosure; inadmissible boxes need none
    calls = []
    scale = certify.certify_kite_scale
    monkeypatch.setattr(certify, "certify_kite_scale",
                        lambda *a, **kw: calls.append(a) or scale(*a, **kw))
    box = certified(*point_box(2.0, 0.8, 1e-6), newton)
    assert box.hs.known and box.ha.known
    assert len(calls) == 1
    box = certified(*point_box(2.0, 0.75, 1e-3), newton)
    assert not box.hs.known and not box.ha.known
    assert len(calls) == 1


def test_split_consistency(rng, newton):
    # children of a decided box must agree with the parent
    for (c3, c4, w) in ((2.0, 0.8, 2e-4), (1.3, 0.1, 2e-4), (1.45, 0.3, 1e-4)):
        z3, z4 = point_box(c3, c4, w)
        parent = certified(z3, z4, newton)
        for i in (0, 1):
            for j in (0, 1):
                c3box = Interval(z3.lo + i * w, z3.lo + (i + 1) * w)
                c4box = Interval(z4.lo + j * w, z4.lo + (j + 1) * w)
                child = certified(c3box, c4box, newton)
                if parent.hs.known and child.hs.known:
                    assert child.hs.value == parent.hs.value
                if parent.ha.known and child.ha.known:
                    assert child.ha.value == parent.ha.value


def test_hs_decision_soundness(rng):
    # for random symmetric interval matrices with decidable det/tr signs the
    # index decision matches eigenvalue counts of sampled member matrices
    decided = 0
    for _ in range(400):
        a, b, c = rng.uniform(-2, 2, 3)
        w = 10.0 ** rng.uniform(-6, -1)
        h11 = Interval(a - w, a + w)
        h22 = Interval(b - w, b + w)
        h12 = Interval(c - w, c + w)
        code = _decide_2x2(*(lanes([h]) for h in (h11, h22, h12)), "Hs")[0]
        if code < 0:
            continue
        cert = OUTCOMES[code]
        decided += 1
        for _ in range(20):
            m11 = rng.uniform(h11.lo, h11.hi)
            m22 = rng.uniform(h22.lo, h22.hi)
            m12 = rng.uniform(h12.lo, h12.hi)
            ev = np.linalg.eigvalsh(np.array([[m11, m12], [m12, m22]]))
            assert int((ev < 0).sum()) == cert.value
    assert decided > 100


def test_ha_minor_decision_soundness(rng, monkeypatch):
    # random symmetric P diag(0, a, b) P^T with the known kernel vector
    # u = P e1, widened to intervals: whenever a principal minor decides,
    # its index is the deflated negative count of every sampled member
    # matrix of the box that keeps the kernel u
    decided = 0
    for _ in range(400):
        P, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a, b = rng.uniform(-2, 2, 2)
        H = P @ np.diag([0.0, a, b]) @ P.T
        w = 10.0 ** rng.uniform(-6, -1)
        box = [[Interval(H[i, j] - w, H[i, j] + w) for j in range(3)] for i in range(3)]
        entries = [[lanes([iv]) for iv in row] for row in box]
        monkeypatch.setattr(certify, "interval_ha_matrix", lambda q: entries)
        cert = OUTCOMES[certify_ha_index(None)[0]]
        minors = [_decide_2x2(entries[i][i], entries[j][j], entries[i][j], name)[0]
                  for i, j, name in certify._HA_MINORS]
        assert {OUTCOMES[m].value for m in minors if m >= 0} <= {cert.value}
        if not cert.known:
            assert cert.certificate.startswith("no 2x2 principal minor")
            continue
        decided += 1
        Q = P[:, 1:]
        for _ in range(20):
            S = rng.uniform(-1, 1, (2, 2))
            E = Q @ (S + S.T) @ Q.T
            M = H + rng.uniform(0, 0.99) * w / np.abs(E).max() * E
            assert all(box[i][j].contains(M[i, j]) for i in range(3) for j in range(3))
            ev = np.linalg.eigvalsh(M)
            rot = int(np.argmin(np.abs(ev)))
            assert sum(1 for t, e in enumerate(ev) if t != rot and e < 0) == cert.value
    assert decided > 100


def test_ha_decides_at_box_half_width_6p25e_4(newton):
    # boxes as wide as the default certify window's subdivide-5 boxes
    # decide H_a, in the index-1 and the index-0 region
    for (c3, c4), idx in (((2.0, 0.8), 1), ((1.8, 0.7), 0)):
        box = certified(*point_box(c3, c4, 6.25e-4), newton)
        assert box.ha.value == idx, box.ha
        assert box.ha.value == float_indices(KiteShape(c3, c4), newton)[1]


# --- batched lanes against the per-box reference -------------------------------------

# (z3, z4, subdivide, A): decided and H_s-undecided boxes; decided, inadmissible and
# undecided boxes straddling z3 = sqrt 3; mostly inadmissible boxes over the whole
# map; large A; one box whose mass-ratio denominator encloses zero; and a
# non-integer A
WINDOWS = (
    ((1.99, 2.01), (0.79, 0.81), 3, 3.0),
    ((1.725, 1.745), (0.695, 0.705), 3, 3.0),
    ((1.0, 2.2), (0.01, 0.87), 2, 3.0),
    ((1.04, 1.06), (0.01, 0.03), 1, 1000.0),
    ((1.3192941530759053, 1.666579768351941), (0.0010238204538190188, 0.17466662809183692),
     0, 3.0),
    # a box whose interval kite quantities fail
    ((1.7406127072681559, 1.7509831295763238), (0.765636660675358, 0.7760070829835257),
     0, 1000.0),
    # 2^-2.5 is no double: the scale and the mass ratios read its enclosure
    ((1.99, 2.01), (0.79, 0.81), 3, 2.5),
)


def window_boxes(z3, z4, subdivide):
    """The boxes `twistcc certify` makes of a window, in its row order."""
    parts = 2 ** subdivide

    def split(lo, hi, t):
        w = (hi - lo) / parts
        return Interval(lo + t * w, lo + (t + 1) * w)

    return [(split(*z3, a), split(*z4, b)) for a in range(parts) for b in range(parts)]


def all_boxes():
    return [(box, PotentialParams(A)) for z3, z4, k, A in WINDOWS
            for box in window_boxes(z3, z4, k)]


def assert_scales_match_reference(boxes, params):
    """Each lane's enclosure is bit for bit the per-box corner enclosure,
    and a lane fails exactly where the reference has none."""
    x2 = certify_kite_scale(*box_lanes(boxes), params)
    for k, box in enumerate(boxes):
        want = kite_scale_corners_ref(*box, params)
        if want is None:
            assert x2.failed[k], (box, x2.lo[k], x2.hi[k])
        else:
            assert (x2.lo[k], x2.hi[k]) == (want.lo, want.hi), box


@pytest.mark.parametrize("z3, z4, subdivide, A", WINDOWS)
def test_batched_scale_matches_per_box_reference(z3, z4, subdivide, A):
    # every box, admissible or not
    assert_scales_match_reference(window_boxes(z3, z4, subdivide), PotentialParams(A))


def test_batched_scale_matches_per_box_reference_on_point_boxes(rng, newton):
    # narrow boxes, down to points, whose 8 corners coincide
    from test_kite import sample_admissible_shapes
    assert_scales_match_reference([point_box(s.z3, s.z4, w)
                                   for s in sample_admissible_shapes(rng, 40)
                                   for w in (0.0, 1e-12, 1e-9)], newton)


def bracket_scales(z3, z4, params, powers=None):
    """`certify_kite_scale`'s lanes from the per-box bracket search."""
    scales = [certify_kite_scale_ref(lane(z3, k), lane(z4, k), params) for k in range(len(z3))]
    return IntervalArray([math.nan if x is None else x.lo for x in scales],
                         [math.nan if x is None else x.hi for x in scales])


@pytest.mark.parametrize("z3, z4, subdivide, A, bracket_decided", (
    ((1.99, 2.01), (0.79, 0.81), 5, 3.0, (1024, 1024)),
    ((1.79, 1.81), (0.69, 0.71), 5, 3.0, (1024, 1024)),
    ((1.0, 2.2), (0.01, 0.87), 6, 3.0, (367, 257)),
    ((1.0, 2.2), (0.01, 0.87), 6, 6.0, (207, 72)),
))
def test_decisions_only_grow_over_the_bracket(z3, z4, subdivide, A, bracket_decided,
                                              monkeypatch):
    # on the windows the command-line runs certify, the bracket search's
    # scales decide these many H_s and H_a blocks; the corner hull decides
    # every one of them with the same index (a certificate may name an
    # earlier H_a minor), and more besides on the full window
    z34, params = box_lanes(window_boxes(z3, z4, subdivide)), PotentialParams(A)
    value = np.array([-1 if o.value is None else o.value for o in OUTCOMES])
    certs = certify_boxes(*z34, params)
    monkeypatch.setattr(certify, "certify_kite_scale", bracket_scales)
    bracket = certify_boxes(*z34, params)
    for block, want in zip(("hs", "ha"), bracket_decided):
        old, new = value[getattr(bracket, block)], value[getattr(certs, block)]
        assert np.count_nonzero(old >= 0) == want
        assert ((old < 0) | (new == old)).all(), block
        assert np.count_nonzero(new >= 0) >= want


@pytest.mark.parametrize("z3, z4, subdivide, A", WINDOWS)
def test_scale_enclosure_holds_roots_inside_bracket_on_windows(z3, z4, subdivide, A):
    assert_scales_hold_roots_and_bracket(*box_lanes(window_boxes(z3, z4, subdivide)),
                                         PotentialParams(A), 12)


def assert_matches_reference(got, want):
    assert (got.z3.lo, got.z3.hi, got.z4.lo, got.z4.hi) == \
        (want.z3.lo, want.z3.hi, want.z4.lo, want.z4.hi)
    for block in ("hs", "ha"):
        g, w = getattr(got, block), getattr(want, block)
        if w.certificate.startswith("interval evaluation failed: ") and \
                w.certificate != certify.MASSES_NOT_POSITIVE.certificate:
            # a failed lane names the failed stage, not the scalar exception
            assert g.value is None and g.certificate.startswith("interval evaluation failed: ")
        else:
            assert g == w, (got, want)


def test_batched_certificates_match_per_box_reference():
    reasons = Counter()
    for z3, z4, subdivide, A in WINDOWS:
        params = PotentialParams(A)
        boxes = window_boxes(z3, z4, subdivide)
        for got, box in zip(box_certificates(certify_boxes(*box_lanes(boxes), params)), boxes):
            want = certify_box_ref(*box, params)
            assert_matches_reference(got, want)
            reasons.update(c.certificate.partition(":")[0] if c.value is None else "decided"
                           for c in (got.hs, got.ha))
    assert set(reasons) == {"decided", "box not verified inside one admissible class",
                            "sign of det/tr undecided over the box",
                            "no 2x2 principal minor of H_a decided over the box",
                            "interval evaluation failed"}


def test_batches_of_seven_lanes(monkeypatch):
    # lanes straddling batch boundaries certify as in one batch and per box
    boxes = window_boxes((1.725, 1.745), (0.695, 0.705), 3)
    params = PotentialParams(3.0)
    whole = box_certificates(certify_boxes(*box_lanes(boxes), params))
    calls = []
    batch = certify._certify_batch
    monkeypatch.setattr(certify, "BATCH_LANES", 7)
    monkeypatch.setattr(certify, "_certify_batch", lambda z3, z4, p: calls.append(len(z3))
                        or batch(z3, z4, p))
    assert outcomes(box_certificates(certify_boxes(*box_lanes(boxes), params))) == \
        outcomes(whole)
    assert calls == [7] * 9 + [1]
    for got, box in zip(whole, boxes):
        assert_matches_reference(got, certify_box_ref(*box, params))


@pytest.mark.parametrize("z3, z4, hs_min, ha_min", (
    ((1.79, 1.81), (0.69, 0.71), 1024, 1024),
    ((1.3, 1.5), (0.1, 0.3), 949, 721),
), ids=("tall", "wide"))
def test_shape_only_angles_decide(z3, z4, hs_min, ha_min, newton):
    # KiteTable's angles come from the shape alone, so the scale enclosure's
    # width stays out of them: at subdivide 5 these windows decide at least
    # this many boxes per block (all of them in the tall window), and every
    # decided block is the float index at the box midpoint
    certs = box_certificates(certify_boxes(*box_lanes(window_boxes(z3, z4, 5)), newton))
    assert sum(c.hs.known for c in certs) >= hs_min
    assert sum(c.ha.known for c in certs) >= ha_min
    for c in certs:
        if not (c.hs.known or c.ha.known):
            continue
        blocks = kite_blocks(build_kite(KiteShape(c.z3.mid, c.z4.mid), newton), newton)
        ws, wa = np.linalg.eigvalsh(blocks.h_s), np.linalg.eigvalsh(blocks.h_a)
        if c.hs.known:
            assert c.hs.value == (ws < 0).sum(), c
        rot = int(np.argmin(np.abs(wa)))
        if c.ha.known and abs(wa[rot]) < ROTATION_ZERO_RTOL * np.abs(wa).max():
            assert c.ha.value == np.delete(wa < 0, rot).sum(), c


def outcomes(certs):
    return [(c.z3.lo, c.z3.hi, c.z4.lo, c.z4.hi, c.hs, c.ha) for c in certs]


def fail_lane(x: IntervalArray, k: int) -> IntervalArray:
    """x with lane k failed."""
    lo = x.lo.copy()
    lo[k] = math.nan
    return IntervalArray(lo, x.hi)


def set_lane(x: IntervalArray, k: int, lo: float, hi: float) -> IntervalArray:
    los, his = x.lo.copy(), x.hi.copy()
    los[k], his[k] = lo, hi
    return IntervalArray(los, his)


def fail_r34(t: KiteTable) -> KiteTable:
    """The interval table t with lane 1 of its power R34 failed."""
    t.R[2, 3] = t.R[3, 2] = fail_lane(t.R[2, 3], 1)
    return t


def negate_mu31(t: KiteTable) -> KiteTable:
    """The interval table t with lane 1 of mu31 negated."""
    m1, m2, mu31, mu41 = t.masses
    t.masses = (m1, m2, set_lane(mu31, 1, -mu31.hi[1], -mu31.lo[1]), mu41)
    return t


def forced(name, change):
    """certify.<name> with its output changed by `change` (a tuple as a list)."""
    fn = getattr(certify, name)

    def changed(*args):
        out = fn(*args)
        return change(list(out) if isinstance(out, tuple) else out)

    return changed


# (patched name, change, lane 1's expected (hs, ha) certificates, or None where a
# block keeps its unforced certificate)
FORCED = {
    "no scale": ("certify_kite_scale", lambda x2: fail_lane(x2, 1),
                 (certify.NO_SCALE, certify.NO_SCALE)),
    "masses not positive": ("_mass_ratios",
                            lambda o: [set_lane(o[0], 1, -o[0].hi[1], -o[0].lo[1]), o[1]],
                            (certify.MASSES_NOT_POSITIVE, certify.MASSES_NOT_POSITIVE)),
    "mass ratio failed": ("_mass_ratios", lambda o: [o[0], fail_lane(o[1], 1)],
                          (certify.QUANTITIES_FAILED, certify.QUANTITIES_FAILED)),
    # the signs of the mass ratios are checked before the other quantities
    "masses not positive, r34 failed": (
        "interval_kite_quantities",
        lambda t: fail_r34(negate_mu31(t)),
        (certify.MASSES_NOT_POSITIVE, certify.MASSES_NOT_POSITIVE)),
    "r34 failed": ("interval_kite_quantities", fail_r34,
                   (certify.QUANTITIES_FAILED, certify.QUANTITIES_FAILED)),
    "Hs failed": ("hs_explicit", lambda o: [o[0], o[1], fail_lane(o[2], 1)],
                  (certify._failed("Hs"), None)),
    # a13 is in the second and third minors only: H_a fails before any minor
    "Ha entry failed": ("ha_explicit", lambda o: o[:4] + [fail_lane(o[4], 1), o[5]],
                        (None, certify._failed("Ha"))),
    # entries (a11, a22, a33, a12, a13, a23); a11 = 0 and a22 = inf make the
    # first minor's det 0 * inf
    "Ha minor failed": ("ha_explicit",
                        lambda o: [set_lane(o[0], 1, 0.0, 0.0),
                                   set_lane(o[1], 1, math.inf, math.inf)] + o[2:],
                        (None, certify._failed("Ha[a3|a4]"))),
    # the first minor decides (det < 0), so the second, whose det is 0 * inf,
    # is never reached
    "Ha later minor failed": ("ha_explicit",
                              lambda o: [set_lane(v, 1, *b) for v, b in zip(
                                  o, ((0.0, 0.0), (1.0, 1.0), (math.inf, math.inf),
                                      (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)))],
                              (None, certify.CertifiedIndex(1, "det(Ha[a3|a4]) < 0"))),
}


@pytest.mark.parametrize("case", FORCED)
def test_forced_lane_failure(case, monkeypatch, newton):
    # lane 1 of four fails at one stage: it gets that stage's reason with
    # today's precedence, and the other lanes keep their certificates
    boxes = window_boxes((1.99, 2.01), (0.79, 0.81), 1)
    z34 = box_lanes(boxes)
    before = box_certificates(certify_boxes(*z34, newton))
    name, change, want = FORCED[case]
    monkeypatch.setattr(certify, name, forced(name, change))
    with np.errstate(all="ignore"):
        after = box_certificates(certify_boxes(*z34, newton))
    assert outcomes(after[:1] + after[2:]) == outcomes(before[:1] + before[2:])
    assert after[1].hs == (want[0] or before[1].hs)
    assert after[1].ha == (want[1] or before[1].ha)


def test_outcome_table_is_closed():
    # OUTCOMES holds each outcome once, a value exactly for the decided
    # ("det(...)") texts, every forced outcome, every outcome the per-box
    # reference gives on WINDOWS (bar the failures it names by their scalar
    # exception), and every code certify_boxes returns there
    assert len(set(OUTCOMES)) == len(OUTCOMES) == 23
    assert all((o.value is None) != o.certificate.startswith("det(") for o in OUTCOMES)
    seen = {c for *_, want in FORCED.values() for c in want if c is not None}
    for z3, z4, subdivide, A in WINDOWS:
        params = PotentialParams(A)
        boxes = window_boxes(z3, z4, subdivide)
        for box in boxes:
            ref = certify_box_ref(*box, params)
            seen.update(c for c in (ref.hs, ref.ha)
                        if c == certify.MASSES_NOT_POSITIVE
                        or not c.certificate.startswith("interval evaluation failed: "))
        certs = certify_boxes(*box_lanes(boxes), params)
        assert set(certs.hs.tolist()) | set(certs.ha.tolist()) <= set(range(len(OUTCOMES)))
    assert seen <= set(OUTCOMES)

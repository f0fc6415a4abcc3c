import math
from collections import Counter

import numpy as np
import pytest

import twistcc.certify as certify
from twistcc.certify import (_decide_2x2, box_admissible, certify_box, certify_ha_index,
                             certify_kite_scale, interval_kite_quantities)
from twistcc.geometry import PotentialParams
from twistcc.hessian import morse_index
from twistcc.intervals import Interval
from twistcc.kite import (KiteQuantities, KiteShape, build_kite, circumcenter_z4,
                          dziso_residual, ha_explicit, hs_explicit, kite_blocks, kite_scale,
                          side_powers)

from oracles import bisect_dziso

SQRT3 = math.sqrt(3.0)


def point_box(z3, z4, w=0.0):
    return Interval(z3 - w, z3 + w), Interval(z4 - w, z4 + w)


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
    assert box_admissible(*point_box(2.0, 0.8, 1e-3)) == "tall"
    assert box_admissible(*point_box(1.3, 0.1, 1e-3)) == "wide"
    assert box_admissible(*point_box(2.0, 0.75, 1e-3)) is None        # on the curve
    assert box_admissible(Interval(1.7, 1.8), Interval(0.78, 0.8)) is None  # straddles sqrt3


# --- scale enclosure ------------------------------------------------------------

def test_scale_enclosure_point_box(newton):
    z3, z4 = point_box(2.0, 0.3)
    enc = certify_kite_scale(z3, z4, newton)
    assert enc is not None
    assert enc.width < 1e-10
    x2 = kite_scale(KiteShape(2.0, 0.3), newton)
    oracle = bisect_dziso(KiteShape(2.0, 0.3), newton)
    assert enc.contains(x2) or abs(enc.mid - x2) < 1e-13
    assert abs(enc.mid - oracle) < 1e-10


def test_scale_enclosure_symmetric_point(newton):
    z3 = Interval(SQRT3 - 1e-3, SQRT3 + 1e-3)
    z4 = Interval(1 / SQRT3 - 1e-3, 1 / SQRT3 + 1e-3)
    assert certify_kite_scale(z3, z4, newton) is None


def test_scale_enclosure_refinement(newton):
    widths = []
    for w in (1e-2, 1e-3, 1e-4, 1e-6):
        z3, z4 = point_box(1.9, 0.8, w)
        enc = certify_kite_scale(z3, z4, newton)
        assert enc is not None
        x2_mid = kite_scale(KiteShape(1.9, 0.8), newton)
        assert enc.contains(x2_mid)
        widths.append(enc.width)
    assert all(b <= a * 1.001 for a, b in zip(widths, widths[1:]))
    # samples of the box have their roots inside the enclosure
    z3, z4 = point_box(1.9, 0.8, 1e-3)
    enc = certify_kite_scale(z3, z4, newton)
    for s3 in (z3.lo, z3.mid, z3.hi):
        for s4 in (z4.lo, z4.mid, z4.hi):
            assert enc.contains(kite_scale(KiteShape(s3, s4), newton))


def test_scale_enclosure_encloses_side_powers_once(monkeypatch, newton):
    # the probes reuse one enclosure of the box's side powers instead of
    # re-enclosing the kite's distances through dziso_residual
    calls = Counter()

    def counted(name, fn):
        return lambda *a: calls.update([name]) or fn(*a)

    monkeypatch.setattr(certify, "side_powers", counted("side_powers", side_powers))
    monkeypatch.setattr(certify, "dziso_residual", counted("dziso_residual", dziso_residual),
                        raising=False)
    assert certify_kite_scale(*point_box(2.0, 0.8, 1e-4), newton) is not None
    assert calls == {"side_powers": 1}


# --- quantity enclosures ----------------------------------------------------------

def test_interval_quantities_contain_floats(newton):
    shape = KiteShape(2.0, 0.8)
    z3, z4 = point_box(shape.z3, shape.z4, 1e-5)
    x2 = certify_kite_scale(z3, z4, newton)
    qi = interval_kite_quantities(z3, z4, x2, newton)
    kite = build_kite(shape, newton)
    qf = KiteQuantities.from_kite(kite, newton)
    for name in ("x2", "y3", "y4", "r12", "r13", "r14", "r34",
                 "R12", "R13", "R14", "R34", "S12", "S13", "S14", "S34",
                 "mu31", "mu41"):
        assert getattr(qi, name).contains(getattr(qf, name)), name
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
    qp = KiteQuantities.at(pz3, pz4, px2, Interval(kite.mu31), Interval(kite.mu41), newton.A)
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
        cert = certify_box(z3, z4, newton).hs
        if not cert.known:
            continue  # legitimately near a bifurcation
        idx_hs, _ = float_indices(shape, newton)
        assert cert.value == idx_hs, (shape, cert)
        checked += 1
    assert checked >= 29


def test_certified_box_containment_spot_check(rng, newton):
    # a decided box is never contradicted by float evaluation at member shapes
    z3, z4 = point_box(2.0, 0.8, 1e-4)
    cert = certify_box(z3, z4, newton).hs
    assert cert.known
    for _ in range(1000):
        shape = KiteShape(rng.uniform(z3.lo, z3.hi), rng.uniform(z4.lo, z4.hi))
        idx_hs, _ = float_indices(shape, newton)
        assert idx_hs == cert.value


def test_certified_signs_in_known_regions(newton):
    # interior of the index-0 region: both deflated H_a eigenvalues positive
    assert certify_box(*point_box(1.78, 0.70, 1e-6), newton).ha.value == 0
    assert certify_box(*point_box(1.78, 0.70, 1e-6), newton).hs.value == 0
    # one negative eigenvalue from H_a while H_s stays positive definite
    assert certify_box(*point_box(2.0, 0.8, 1e-6), newton).ha.value == 1
    assert certify_box(*point_box(2.0, 0.8, 1e-6), newton).hs.value == 0
    # index-2 interior: one negative from each block
    assert certify_box(*point_box(1.92975, 0.71275, 1e-6), newton).ha.value == 1
    assert certify_box(*point_box(1.92975, 0.71275, 1e-6), newton).hs.value == 1


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
    cert = certify_box(z3, z4, newton).hs
    assert not cert.known


# --- H_a certification -------------------------------------------------------------

def test_ha_certificates_match_float(rng, newton):
    from test_kite import sample_admissible_shapes
    checked = 0
    for shape in sample_admissible_shapes(rng, 20):
        z3, z4 = point_box(shape.z3, shape.z4, 1e-9)
        cert = certify_box(z3, z4, newton).ha
        if not cert.known:
            continue
        _, idx_ha = float_indices(shape, newton)
        assert cert.value == idx_ha, (shape, cert)
        checked += 1
    assert checked >= 17


def test_ha_unknown_near_symmetric_point(newton):
    z3 = Interval(SQRT3 - 1e-2, SQRT3 + 1e-2)
    z4 = Interval(1 / SQRT3 - 1e-2, 1 / SQRT3 + 1e-2)
    cert = certify_box(z3, z4, newton).ha
    assert not cert.known


def test_certify_box_total(newton):
    z3, z4 = point_box(2.0, 0.8, 1e-6)
    box = certify_box(z3, z4, newton)
    assert box.hs.known and box.ha.known
    idx_hs, idx_ha = float_indices(KiteShape(2.0, 0.8), newton)
    assert box.total == idx_hs + idx_ha


def test_certify_box_one_scale_enclosure(monkeypatch, newton):
    # H_s and H_a share one scale enclosure; inadmissible boxes need none
    calls = []
    scale = certify.certify_kite_scale
    monkeypatch.setattr(certify, "certify_kite_scale",
                        lambda *a, **kw: calls.append(a) or scale(*a, **kw))
    box = certify_box(*point_box(2.0, 0.8, 1e-6), newton)
    assert box.hs.known and box.ha.known
    assert len(calls) == 1
    box = certify_box(*point_box(2.0, 0.75, 1e-3), newton)
    assert not box.hs.known and not box.ha.known
    assert len(calls) == 1


def test_split_consistency(rng, newton):
    # children of a decided box must agree with the parent
    for (c3, c4, w) in ((2.0, 0.8, 2e-4), (1.3, 0.1, 2e-4), (1.45, 0.3, 1e-4)):
        z3, z4 = point_box(c3, c4, w)
        parent = certify_box(z3, z4, newton)
        for i in (0, 1):
            for j in (0, 1):
                c3box = Interval(z3.lo + i * w, z3.lo + (i + 1) * w)
                c4box = Interval(z4.lo + j * w, z4.lo + (j + 1) * w)
                child = certify_box(c3box, c4box, newton)
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
        cert = _decide_2x2(h11, h22, h12, "H")
        if cert is None:
            continue
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
        monkeypatch.setattr(certify, "interval_ha_matrix", lambda q: box)
        cert = certify_ha_index(None)
        minors = [_decide_2x2(box[i][i], box[j][j], box[i][j], "H")
                  for i, j in ((0, 1), (0, 2), (1, 2))]
        assert {m.value for m in minors if m is not None} <= {cert.value}
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
        box = certify_box(*point_box(c3, c4, 6.25e-4), newton)
        assert box.ha.value == idx, box.ha
        assert box.ha.value == float_indices(KiteShape(c3, c4), newton)[1]

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest

from twistcc.geometry import (PairTable, PotentialParams, build_pair_table, euler_residual,
                              moment_of_inertia)
from twistcc.hessian import cartesian_hessian, twist_hessian_entry
from twistcc.intervals import Interval as Box
from twistcc.intervals import IntervalArray
from twistcc.kite import (ADMISSIBLE_MARGIN, IndeterminateScaleError, InfeasibleShapeError,
                          InapplicableShapeError, KiteConfig, KiteShape, KiteTable,
                          MassBoundaryError, build_kite, circumcenter_z4, classify_shape,
                          coorbital_identity_check, dzsub_report, euler_precursor,
                          ha_explicit, hs_explicit, kite_blocks, kite_index_map,
                          kite_masses, kite_scale, side_powers, _BLOCK_LABELS, KITE_CLASSES)
from twistcc.cli import write_pgm
from twistcc.twist import cc_residual, laura_andoyer

from twistcc import hessian, intervals, kite as kite_module
from oracles import (Interval, bisect_dziso, index_map_cell, norm_diag_inline, norm_share_inline,
                     pgm_pixels_ref)

SQRT3 = math.sqrt(3.0)


def sample_admissible_shapes(rng, count):
    """Uniform-ish samples strictly inside the tall and wide classes."""
    shapes = []
    while len(shapes) < count:
        if rng.random() < 0.5:
            z3 = rng.uniform(SQRT3 + 0.02, 2.15)
            lo, hi = circumcenter_z4(z3), SQRT3 / 2
        else:
            z3 = rng.uniform(1.1, SQRT3 - 0.02)
            lo, hi = 0.0, circumcenter_z4(z3)
        if hi - lo < 0.04:
            continue
        pad = 0.1 * (hi - lo)
        z4 = rng.uniform(lo + pad, hi - pad)
        shape = KiteShape(z3, z4)
        if classify_shape(shape) in ("tall", "wide"):
            shapes.append(shape)
    return shapes


# --- scale -----------------------------------------------------------------

def test_kite_scale_symmetric_point(newton):
    with pytest.raises(IndeterminateScaleError):
        kite_scale(KiteShape(SQRT3, 1.0 / SQRT3), newton)


def test_kite_scale_matches_bisection_oracle(newton):
    shape = KiteShape(2.0, 0.3)
    x2 = kite_scale(shape, newton)
    oracle = bisect_dziso(shape, newton, lo=1e-4, hi=1.0)
    assert 0 < x2 < 1
    assert x2 == pytest.approx(oracle, rel=1e-12)


def test_kite_scale_random_shapes(rng, newton):
    for shape in sample_admissible_shapes(rng, 25):
        x2 = kite_scale(shape, newton)
        oracle = bisect_dziso(shape, newton)
        assert x2 == pytest.approx(oracle, rel=1e-12)


def ends(x) -> tuple[float, float]:
    """(lo, hi) of a reference Interval or of a one-lane IntervalArray."""
    (lo,), (hi,) = np.ravel(x.lo), np.ravel(x.hi)
    return float(lo), float(hi)


def in_type_of(x, value) -> bool:
    """value is one reference Interval for a reference x, one lane for lanes."""
    return isinstance(value, Interval) if isinstance(x, Interval) else \
        type(value) is IntervalArray and len(value) == 1


def test_side_powers_enclose_two_power():
    # 2^-2.5 = 1/sqrt(32) as a float lies above the real value, so interval
    # shapes get an interval enclosing it, in their own type (one lane that
    # broadcasts on lanes and boxes), the reference's bits:
    # lo^2 <= 1/32 <= hi^2, exactly
    real = Fraction(1, 32)
    assert Fraction(2.0 ** -2.5) ** 2 > real
    want = Interval(2.0) ** -2.5
    assert Fraction(want.lo) ** 2 <= real <= Fraction(want.hi) ** 2
    for z3, z4 in ((Interval(2.0), Interval(0.8)), (Box(2.0), Box(0.8)),
                   (IntervalArray([2.0, 1.5]), IntervalArray([0.8, 0.1]))):
        p2 = side_powers(z3, z4, 2.5)[0]
        assert in_type_of(z3, p2) and ends(p2) == (want.lo, want.hi)
        # an integer A whose power does not underflow keeps the exact float
        for A, exact in ((3.0, 0.125), (6.0, 0.015625), (1000.0, math.ldexp(1.0, -1000))):
            p2 = side_powers(z3, z4, A)[0]
            assert type(p2) is float and p2 == exact
        # an underflowing power is enclosed too
        p2 = side_powers(z3, z4, 1100.0)[0]
        assert in_type_of(z3, p2) and ends(p2)[0] <= 0.0 < ends(p2)[1]
    # floats and numpy arrays keep the float
    assert side_powers(2.0, 0.8, 2.5)[0] == 2.0 ** -2.5
    assert side_powers(np.array([2.0]), np.array([0.8]), 2.5)[0] == 2.0 ** -2.5


def test_dzsub_report(rng, newton):
    # the printed closed form is recorded per shape; the Dziobek root is
    # authoritative regardless of whether either exponent reading agrees
    agree_v = agree_h = 0
    for shape in sample_admissible_shapes(rng, 20):
        rep = dzsub_report(shape, newton)
        assert rep.oracle_x2 == pytest.approx(bisect_dziso(shape, newton), rel=1e-10)
        agree_v += rep.verbatim_agrees
        agree_h += rep.half_exponent_agrees
    # (empirically neither reading reproduces the Dziobek root on generic shapes)
    assert agree_v < 20 or agree_h < 20


# --- masses and CC property --------------------------------------------------

def test_kite_masses_positive_and_cc(rng, newton):
    for shape in sample_admissible_shapes(rng, 30):
        kite = build_kite(shape, newton)
        assert kite.mu31 > 0 and kite.mu41 > 0
        res = cc_residual(kite.config, newton, tol=1e-10)
        assert res.is_cc, (shape, res)
        MI = kite.config.masses.sum() * moment_of_inertia(kite.config)
        assert abs(euler_residual(kite.config, newton)) < 1e-12 * MI


def test_kite_rotation_kernel(rng, newton):
    # the Cartesian Hessian annihilates the rotation field at every kite CC
    from twistcc.geometry import center_of_mass
    for shape in sample_admissible_shapes(rng, 10):
        kite = build_kite(shape, newton)
        H = cartesian_hessian(kite.config, newton)
        c = center_of_mass(kite.config)
        u = np.empty(8)
        u[0::2] = -(kite.config.points[:, 1] - c[1])
        u[1::2] = kite.config.points[:, 0] - c[0]
        assert np.linalg.norm(H @ u) < 1e-9 * np.linalg.norm(H) * np.linalg.norm(u)


def test_symmetric_pairs_la_vanish_identically(newton):
    # m1 = m2 makes the v12 and v34 conditions hold at any scale, CC or not
    shape = KiteShape(1.9, 0.8)
    for x2 in (0.3, 1.0, 2.7):
        y3, y4 = shape.z3 * x2, shape.z4 * x2
        from twistcc.geometry import PlanarConfig
        cfg = PlanarConfig(np.array([-x2, 0, x2, 0, 0, y3, 0, y4]),
                           np.array([1.0, 1.0, 0.7, 1.3]))
        t = build_pair_table(cfg, newton)
        scale = cfg.masses.sum() ** 2 * cfg.diameter() ** 2
        assert abs(laura_andoyer(t, (0, 1))) < 1e-14 * scale
        assert abs(laura_andoyer(t, (2, 3))) < 1e-14 * scale


def test_mass_blowup_near_circumcenter(newton):
    z3 = 2.0
    yc = circumcenter_z4(z3)
    near = build_kite(KiteShape(z3, yc + 1e-6), newton)
    far = build_kite(KiteShape(z3, yc + 0.05), newton)
    assert near.mu41 > 100 * far.mu41
    with pytest.raises(MassBoundaryError):
        kite_masses(KiteShape(z3, yc), newton)


def test_scalar_calls_raise_only_their_own_checks(newton):
    # kite_scale applies the scale checks, kite_masses the mass-boundary
    # checks, and build_kite every check in order
    on_curve = KiteShape(2.0, 0.75)     # circumcenter curve: mu41 blows up
    assert kite_scale(on_curve, newton) > 0.0
    for call in (kite_masses, build_kite):
        with pytest.raises(MassBoundaryError, match="mu41 denominator"):
            call(on_curve, newton)
    outside = KiteShape(1.0, 0.9)       # finite ratios, mu41 negative
    assert kite_masses(outside, newton)[1] < 0.0
    with pytest.raises(MassBoundaryError, match="nonpositive"):
        build_kite(outside, newton)
    symmetric = KiteShape(SQRT3, 1.0 / SQRT3)   # also on the circumcenter curve
    for call in (kite_scale, build_kite):
        with pytest.raises(IndeterminateScaleError):
            call(symmetric, newton)
    with pytest.raises(MassBoundaryError, match="mu41 denominator"):
        kite_masses(symmetric, newton)


# --- classification -----------------------------------------------------------

def test_classify_examples():
    # z3 = 2: admissible tall band is (0.75, sqrt(3)/2)
    assert circumcenter_z4(2.0) == pytest.approx(0.75, abs=1e-15)
    assert classify_shape(KiteShape(2.0, 0.8)) == "tall"
    assert classify_shape(KiteShape(2.0, 0.74)) == "inadmissible"
    assert classify_shape(KiteShape(2.0, 0.87)) == "inadmissible"
    assert classify_shape(KiteShape(2.0, 0.75)) == "circumcenter-boundary"
    # (1.2, 0.2): circumcenter value 0.18333... < 0.2 -> not wide -> inadmissible
    assert circumcenter_z4(1.2) == pytest.approx(0.18333333333333332, abs=1e-15)
    assert classify_shape(KiteShape(1.2, 0.2)) == "inadmissible"
    assert classify_shape(KiteShape(1.2, 0.15)) == "wide"
    # the classes meet at the equilateral outer triangle z3 = sqrt(3)
    assert classify_shape(KiteShape(SQRT3, 1.0 / SQRT3 + 0.1)) == "inadmissible"
    assert classify_shape(KiteShape(SQRT3 + 0.05, 0.8)) == "tall"


# --- blocks ---------------------------------------------------------------------

def test_kite_blocks_structure(rng, newton):
    for shape in sample_admissible_shapes(rng, 500):
        kite = build_kite(shape, newton)
        blocks = kite_blocks(kite, newton)
        hnorm = np.linalg.norm(blocks.full, 2)
        assert blocks.cross_max < 1e-10 * hnorm
        wa = np.abs(np.linalg.eigvalsh(blocks.h_a))
        wa.sort()
        assert wa[0] < 1e-8 * wa[-1]        # rotational zero lives in H_a
        assert wa[1] > 1e-6 * wa[-1]        # and only one near-zero eigenvalue


def test_hs_explicit_matches_assembly(rng, newton):
    for shape in sample_admissible_shapes(rng, 30):
        kite = build_kite(shape, newton)
        blocks = kite_blocks(kite, newton)
        q = KiteTable.of(kite, newton)
        h11, h22, h12 = hs_explicit(q)
        scale = np.abs(blocks.h_s).max()
        assert h11 == pytest.approx(blocks.h_s[0, 0], rel=1e-10, abs=1e-10 * scale)
        assert h22 == pytest.approx(blocks.h_s[1, 1], rel=1e-10, abs=1e-10 * scale)
        assert h12 == pytest.approx(blocks.h_s[0, 1], rel=1e-10, abs=1e-10 * scale)
        # H_a in the same (a3, a4, t34) basis as the assembled block
        a11, a22, a33, a12, a13, a23 = ha_explicit(q)
        h_a = np.array([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])
        assert np.abs(h_a - blocks.h_a).max() <= 1e-10 * np.linalg.norm(blocks.full, 2)


def encloses(value, x: float) -> bool:
    """An interval table's value contains x; its bodies sit at -1, 1 and 0
    on the axis, so values from those coordinates alone are exact floats."""
    return value.contains(x) if isinstance(value, Interval) else value == x


def test_kite_table_matches_pair_table(rng, newton):
    # KiteTable inherits PairTable's geometry at unit scale: on a float kite
    # its angles are the kite's own pair table's, lam and dot that table's
    # over x2^2, and on a point box its intervals enclose the float table
    triples = list(permutations(range(4), 3))
    pairs = list(permutations(range(4), 2))
    quads = [p + q for p in pairs for q in pairs]
    for shape in sample_admissible_shapes(rng, 10):
        kite = build_kite(shape, newton)
        kt, pt = KiteTable.of(kite, newton), build_pair_table(kite.config, newton)
        it = KiteTable(Interval(shape.z3), Interval(shape.z4), Interval(kite.x2),
                       Interval(kite.mu31), Interval(kite.mu41), newton.A)
        for name, tuples, scale in (("lam", triples, kite.x2 ** 2), ("sin3", triples, 1.0),
                                    ("cos3", triples, 1.0), ("dot", quads, kite.x2 ** 2),
                                    ("cos4", quads, 1.0)):
            for idx in tuples:
                got = getattr(kt, name)(*idx)
                assert got == pytest.approx(getattr(pt, name)(*idx) / scale, rel=1e-13,
                                            abs=0.0), (name, idx)
                assert encloses(getattr(it, name)(*idx), got), (name, idx)
        for name in ("R", "S"):
            for pair in pairs:
                got = getattr(kt, name)[pair]
                assert got == pytest.approx(getattr(pt, name)[pair], rel=1e-13), (name, pair)
                assert getattr(it, name)[pair].contains(got), (name, pair)


def test_kite_table_twist_entries_match_pair_table(rng, newton):
    # the entry of any two of the kite's six pairs (21 combinations), raw and
    # normalized, equals that of the kite's own pair table: the raw rescale
    # reads the distances at scale x2, where the table's r is the unit-scale kite's
    pairs = list(combinations(range(4), 2))
    for shape in [KiteShape(2.0, 0.8), *sample_admissible_shapes(rng, 5)]:
        kite = build_kite(shape, newton)
        tables = (KiteTable.of(kite, newton), build_pair_table(kite.config, newton))
        for normalized in (False, True):
            got, want = (np.array([twist_hessian_entry(t, p, q, normalized)
                                   for p, q in combinations_with_replacement(pairs, 2)])
                         for t in tables)
            assert got.size == 21
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (shape, normalized)


def interval_tables(kite, A):
    """The interval KiteTables of a float kite's point: reference Intervals, and
    one-lane IntervalArrays."""
    values = kite.shape.z3, kite.shape.z4, kite.x2, kite.mu31, kite.mu41
    return (KiteTable(*map(Interval, values), A),
            KiteTable(*(IntervalArray(v) for v in values), A))


def test_twist_entries_on_interval_tables_are_intervals(newton):
    # twist_hessian_entry returns the entry in the table's own type: on an
    # interval table at shape (2.0, 0.8) each of the 21 entries, raw and
    # normalized, is an enclosure holding the float table's entry, and the
    # lanes equal the reference bit for bit
    pairs = list(combinations(range(4), 2))
    kite = build_kite(KiteShape(2.0, 0.8), newton)
    ft = KiteTable.of(kite, newton)
    ref, lanes = interval_tables(kite, newton.A)
    for normalized in (False, True):
        for p, q in combinations_with_replacement(pairs, 2):
            want = twist_hessian_entry(ft, p, q, normalized)
            assert type(want) is float
            r, x = (twist_hessian_entry(t, p, q, normalized) for t in (ref, lanes))
            assert in_type_of(ref.z3, r) and in_type_of(lanes.z3, x), (p, q)
            assert r.lo <= want <= r.hi, (p, q, normalized, r, want)
            assert ends(x) == ends(r), (p, q, normalized)


def test_ha_explicit_encloses_sqrt2_from_the_point_two(monkeypatch, newton):
    # with every normalized entry the number 1, a13 = sqrt2 * 1 is
    # ha_explicit's sqrt 2 itself: on interval tables the reference's
    # enclosure of the root of the point [2, 2] (one lane on lanes), not that
    # of [0, 0] + 2, which rounds outward first; floats keep 2.0 ** 0.5
    monkeypatch.setattr(kite_module, "generic_entry", lambda t, p, q: 1)
    kite = build_kite(KiteShape(2.0, 0.8), newton)
    want = Interval(2.0) ** 0.5
    for t in interval_tables(kite, newton.A):
        sqrt2 = ha_explicit(t)[4]
        assert in_type_of(t.z3, sqrt2) and ends(sqrt2) == (want.lo, want.hi)
    assert ha_explicit(KiteTable.of(kite, newton))[4] == 2.0 ** 0.5
    arrays = KiteTable(*(np.array([v, v]) for v in (2.0, 0.8, kite.x2, kite.mu31, kite.mu41)),
                       newton.A)
    assert (ha_explicit(arrays)[4] == 2.0 ** 0.5).all()


def test_ha_explicit_computes_each_sin3_once(monkeypatch, newton):
    # the table keeps sin3 per ordered triple: one ha_explicit makes 40 sin3
    # calls on 21 distinct triples, and its entries equal an uncached run's
    kite = build_kite(KiteShape(2.0, 0.8), newton)

    def quantities():
        # fresh ones each time: a KiteTable keeps its sines and shared entries
        return (KiteTable.of(kite, newton),
                KiteTable(Interval(2.0), Interval(0.8), Interval(kite.x2),
                          Interval(kite.mu31), Interval(kite.mu41), newton.A))

    calls = []
    lam = PairTable.lam
    monkeypatch.setattr(PairTable, "lam", lambda t, *idx: calls.append(idx) or lam(t, *idx))
    cached = [ha_explicit(q) for q in quantities()]
    assert len(calls) == 2 * 21 and len(set(calls)) == 21
    calls.clear()
    monkeypatch.setattr(PairTable, "sin3",
                        lambda t, i, j, k: t.lam(i, j, k) / (t.r[i, j] * t.r[i, k]))
    uncached = [ha_explicit(q) for q in quantities()]
    assert len(calls) == 2 * 40
    assert cached[0] == uncached[0]
    assert [(v.lo, v.hi) for v in cached[1]] == [(v.lo, v.hi) for v in uncached[1]]


class CountingMemo(dict):
    """A table memo that counts its writes, one per accessor miss."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def test_closed_forms_compute_each_mass_ratio_and_row_sum_once(monkeypatch, newton):
    # the table keeps m_k/m_i per ordered pair and the row sum per body: one
    # hs_explicit plus ha_explicit on an interval table divides by a mass lane
    # once per ratio it reads (m_k/m_2 and m_k/m_3, three each), and reads the
    # row sums of the three shared vertices 0, 2 and 3.  On floats, arrays and
    # intervals, the nine entries equal the closed forms with inline ratios.
    kites = [build_kite(KiteShape(z3, z4), newton)
             for z3, z4 in ((2.0, 0.8), (1.5, 0.2), (1.9, 0.78))]

    arrays = [np.array(v) for v in zip(*((k.shape.z3, k.shape.z4, k.x2, k.mu31, k.mu41)
                                          for k in kites))]

    def tables():
        # fresh ones each time: a KiteTable keeps its memo and shared entries
        return (KiteTable.of(kites[0], newton), KiteTable(*arrays, newton.A),
                KiteTable(*(IntervalArray(a) for a in arrays), newton.A))

    def entries(t):
        return [np.asarray(v).tobytes() if not isinstance(v, IntervalArray)
                else (v.lo.tobytes(), v.hi.tobytes()) for v in hs_explicit(t) + ha_explicit(t)]

    cached = tables()
    it = cached[2]
    it.memo = CountingMemo()
    masses = {id(it.masses[2].lo): 2, id(it.masses[3].lo): 3}
    divisors = []
    divide = intervals._divide

    def counted(alo, ahi, blo, bhi):
        divisors.append(masses.get(id(blo)))
        return divide(alo, ahi, blo, bhi)

    monkeypatch.setattr(intervals, "_divide", counted)
    cached = [entries(t) for t in cached]
    monkeypatch.undo()
    writes = it.memo.writes
    assert set(writes.values()) == {1}
    assert Counter(d for d in divisors if d is not None) == {2: 3, 3: 3}
    assert Counter(key[2] for key in writes if key[0] == "ratio" and key[2] > 1) == {2: 3, 3: 3}
    assert sorted(key[1] for key in writes if key[0] == "row_sum") == [0, 2, 3]
    monkeypatch.setattr(hessian, "_norm_diag", norm_diag_inline)
    monkeypatch.setattr(hessian, "_norm_share", norm_share_inline)
    assert [entries(t) for t in tables()] == cached


# --- coorbital identity -----------------------------------------------------------

def test_coorbital_identity(rng, newton):
    for shape in sample_admissible_shapes(rng, 20):
        kite = build_kite(shape, newton)
        q = KiteTable.of(kite, newton)
        assert abs(euler_precursor(q)) < 1e-10 * max(1.0, abs(kite.mu41))
        resid = coorbital_identity_check(kite, newton)
        assert resid < 1e-9 * abs(kite.mu41 * q.S[0, 3]) + 1e-14


def test_coorbital_limit_bounded(newton):
    # mu41 * S14 stays bounded while mu41 blows up along z4 -> circumcenter
    z3 = 2.0
    yc = circumcenter_z4(z3)
    products = []
    mus = []
    for dz in (1e-2, 1e-4, 1e-6, 1e-8):
        kite = build_kite(KiteShape(z3, yc + dz), newton)
        product = kite.mu41 * KiteTable.of(kite, newton).S[0, 3]
        products.append(product)
        mus.append(kite.mu41)
        # rounding noise in the residual is amplified by mu41 itself
        assert coorbital_identity_check(kite, newton) < (
            1e-9 * abs(product) + 1e-13 * kite.mu41)
    assert mus[-1] > 1e5 * mus[0]
    # the product converges to a finite limit while mu41 diverges
    assert all(math.isfinite(p) for p in products)
    assert abs(products[-1] - products[-2]) < 1e-2 * abs(products[-1])


def test_coorbital_identity_inapplicable_where_s12_vanishes(newton):
    # at x2 = 1/2, r12 = 1, so R12 = 1 and S12 = 0, which the bounded form divides by
    kite = build_kite(KiteShape(2.0, 0.8), newton)
    flat = KiteConfig(kite.shape, 0.5, kite.mu31, kite.mu41, kite.config)
    with pytest.raises(InapplicableShapeError):
        coorbital_identity_check(flat, newton)


# --- index map ---------------------------------------------------------------------

def test_index_map_small(newton):
    m = kite_index_map(1.1, 2.18, 36, 0.02, 0.86, 36, newton)
    assert m.z3.size == 36 * 36
    computed = m.computed
    assert computed.sum() > 100
    totals = sorted(set((m.idx_hs + m.idx_ha)[computed].tolist()))
    assert 0 in totals
    assert len(totals) == 3
    # no admissible cell sits on the circumcenter curve
    assert (np.abs(m.z4[computed] - circumcenter_z4(m.z3[computed])) > 1e-9).all()
    # boundary cells carry the block attribution
    boundary = m.changed[computed & (m.changed > 0)].tolist()
    assert boundary
    assert all(set(_BLOCK_LABELS[c].split("+")) <= {"Hs", "Ha"} for c in boundary)


def _reference_block_changes(m, n3, n4):
    """which_block_changed of each cell, neighbour by neighbour."""
    total = m.idx_hs + m.idx_ha
    labels = []
    for k in range(m.z3.size):
        blocks = set()
        for d3, d4 in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            j3, j4 = k % n3 + d3, k // n3 + d4
            if not (m.computed[k] and 0 <= j3 < n3 and 0 <= j4 < n4):
                continue
            o = j4 * n3 + j3
            if not m.computed[o] or total[o] == total[k]:
                continue
            if m.idx_hs[o] != m.idx_hs[k]:
                blocks.add("Hs")
            if m.idx_ha[o] != m.idx_ha[k]:
                blocks.add("Ha")
        labels.append("+".join(sorted(blocks)))
    return labels


@pytest.mark.parametrize("A", [2.5, 3.0, 4.0])
def test_index_map_matches_per_cell_reference(A):
    # the batched map against build_kite -> kite_blocks -> eigvalsh per cell
    params = PotentialParams(A)
    windows = [
        ((1.0, 2.2, 16, 0.01, 0.87, 16), ADMISSIBLE_MARGIN),      # both classes
        ((1.75, 2.05, 12, 0.76, 0.86, 12), ADMISSIBLE_MARGIN),    # index boundaries
        ((0.2, 1.0, 6, -0.3, 0.9, 6), ADMISSIBLE_MARGIN),         # all inadmissible
        ((SQRT3 - 3e-14, SQRT3 - 1e-14, 2,                         # symmetric point
          1 / SQRT3 - 3e-14, 1 / SQRT3 - 1e-14, 2), 0.0),
        ((1.99, 2.01, 3, 0.75 - 3e-9, 0.75 + 3e-9, 7), ADMISSIBLE_MARGIN),  # circumcenter band
        ((1.5, 2.5, 1, 0.75 - 1e-15, 0.75 + 1e-15, 9), 0.0),      # on the circumcenter curve
    ]
    seen = Counter()
    for (z3_lo, z3_hi, n3, z4_lo, z4_hi, n4), margin in windows:
        m = kite_index_map(z3_lo, z3_hi, n3, z4_lo, z4_hi, n4, params, margin=margin)
        assert m.z3.size == n3 * n4
        for k in range(m.z3.size):
            z3, z4, klass, error = m.z3[k], m.z4[k], KITE_CLASSES[m.klass[k]], m.errors[k]
            hs, ha, degenerate = int(m.idx_hs[k]), int(m.idx_ha[k]), bool(m.degenerate[k])
            assert z3 == z3_lo + (k % n3 + 0.5) * ((z3_hi - z3_lo) / n3)
            assert z4 == z4_lo + (k // n3 + 0.5) * ((z4_hi - z4_lo) / n4)
            want = index_map_cell(z3, z4, params, margin)
            assert (klass, hs, ha, degenerate, error) == want, (z3, z4)
            assert m.computed[k] == (hs >= 0 and not degenerate)
            if not math.isnan(m.x2[k]):    # the scalar functions agree bit for bit
                kite = build_kite(KiteShape(z3, z4), params)
                assert (m.x2[k], m.mu31[k], m.mu41[k]) == (kite.x2, kite.mu31, kite.mu41)
                assert m.x2[k] == kite_scale(KiteShape(z3, z4), params)
                assert (m.mu31[k], m.mu41[k]) == kite_masses(KiteShape(z3, z4), params)
            seen[klass] += 1
            seen[error.partition(":")[0]] += 1
        labels = [_BLOCK_LABELS[c] for c in m.changed.tolist()]
        assert labels == _reference_block_changes(m, n3, n4)
        seen["boundary labels"] += sum(1 for label in labels if label)
    for key in ("tall", "wide", "inadmissible", "circumcenter-boundary", "boundary labels",
                "IndeterminateScaleError", "MassBoundaryError"):
        assert seen[key] > 0, key


def test_index_map_noise_cells_are_degenerate():
    # at A = 50 the deflated H_a eigenvalues fall below the rounding level
    # of |H|, so no cell's index is trustworthy
    m = kite_index_map(1.0, 2.2, 20, 0.01, 0.87, 20, PotentialParams(50.0))
    admissible = m.admissible
    assert admissible.any()
    assert not m.computed.any()
    error_free = np.array([not e for e in m.errors])
    assert m.degenerate[admissible & error_free].all()


def test_index_map_refinement_consistency(newton):
    coarse = kite_index_map(1.75, 2.05, 12, 0.76, 0.86, 12, newton)
    fine = kite_index_map(1.75, 2.05, 24, 0.76, 0.86, 24, newton)
    coarse_total = coarse.idx_hs + coarse.idx_ha
    fine_total = fine.idx_hs + fine.idx_ha

    boundary_coarse = {(k % 12, k // 12)
                       for k in np.flatnonzero(coarse.computed & (coarse.changed > 0)).tolist()}
    for k in np.flatnonzero(fine.computed).tolist():
        c3, c4 = k % 24 // 2, k // 24 // 2
        c = c4 * 12 + c3
        if not coarse.computed[c] or fine_total[k] == coarse_total[c]:
            continue
        # disagreement allowed only next to an index boundary of the coarse map
        near = any(abs(c3 - b3) <= 1 and abs(c4 - b4) <= 1 for b3, b4 in boundary_coarse)
        assert near, (fine.z3[k], fine.z4[k], fine_total[k], coarse_total[c])


def test_write_pgm(tmp_path):
    maps = [
        ((1.0, 2.2, 30, 0.01, 0.87, 30), 3.0, {0, 64, 128, 255}),   # indices 0, 1, 2
        ((1.5, 1.6, 10, 0.4, 0.5, 10), 3.0, {0, 64, 128}),          # indices 1, 2: no 0
        ((1.0, 2.2, 20, 0.01, 0.87, 20), 50.0, {64}),               # nothing computed
    ]
    for window, A, shades in maps:
        n3, n4 = window[2], window[5]
        m = kite_index_map(*window, PotentialParams(A))
        out = tmp_path / "map.pgm"
        write_pgm(m, n3, n4, out)
        data = out.read_bytes()
        header = f"P5\n{n3} {n4}\n255\n".encode("ascii")
        assert data.startswith(header)
        pixels = np.frombuffer(data[len(header):], dtype=np.uint8)
        assert pixels.size == n3 * n4
        assert set(pixels.tolist()) == shades
        # every pixel against the per-cell reference; the first two images are
        # not mirror-symmetric, so a flipped raster fails too
        want = pgm_pixels_ref(m, n3, n4)
        assert pixels.tobytes() == want.tobytes()
        if len(shades) > 1:
            assert (want != want[::-1]).any()

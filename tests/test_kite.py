import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from twistcc.geometry import (PairTable, PotentialParams, build_pair_table, euler_residual,
                              moment_of_inertia)
from twistcc.hessian import cartesian_hessian
from twistcc.intervals import Interval
from twistcc.kite import (ADMISSIBLE_MARGIN, IndeterminateScaleError, InfeasibleShapeError,
                          KiteError, KiteQuantities, KiteShape, KiteTable, MassBoundaryError,
                          build_kite, circumcenter_z4, classify_shape,
                          coorbital_identity_check, dzsub_report, euler_precursor,
                          ha_explicit, hs_explicit, kite_blocks, kite_index_map,
                          kite_masses, kite_scale, kite_scales, write_pgm)
from twistcc.twist import cc_residual, laura_andoyer

from oracles import bisect_dziso, index_map_cell

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
        if classify_shape(shape, PotentialParams(3.0)) in ("tall", "wide"):
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


@pytest.mark.parametrize("A", [2.5, 3.0, 1000.0])
def test_kite_scales_is_kite_scale_per_shape(rng, A):
    # the array scale of `certify`'s midpoints is each shape's kite_scale bit
    # for bit, and fails exactly where kite_scale raises
    params = PotentialParams(A)
    z3 = np.concatenate([rng.uniform(1.0, 2.3, 2000), [SQRT3]])
    z4 = np.concatenate([z3[:-1] * rng.uniform(0.01, 0.99, 2000), [1 / SQRT3]])
    x2, failed = kite_scales(z3, z4, A)
    assert failed[-1]
    for k in range(z3.size):
        try:
            want = kite_scale(KiteShape(z3[k], z4[k]), params)
        except KiteError:
            assert failed[k]
            continue
        assert not failed[k]
        assert x2[k] == want, (z3[k], z4[k])


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
        assert abs(laura_andoyer(t, cfg.masses, (0, 1))) < 1e-14 * scale
        assert abs(laura_andoyer(t, cfg.masses, (2, 3))) < 1e-14 * scale


def test_mass_blowup_near_circumcenter(newton):
    z3 = 2.0
    yc = circumcenter_z4(z3)
    near = build_kite(KiteShape(z3, yc + 1e-6), newton)
    far = build_kite(KiteShape(z3, yc + 0.05), newton)
    assert near.mu41 > 100 * far.mu41
    with pytest.raises(MassBoundaryError):
        kite_masses(KiteShape(z3, yc), newton)


# --- classification -----------------------------------------------------------

def test_classify_examples(newton):
    # z3 = 2: admissible tall band is (0.75, sqrt(3)/2)
    assert circumcenter_z4(2.0) == pytest.approx(0.75, abs=1e-15)
    assert classify_shape(KiteShape(2.0, 0.8), newton) == "tall"
    assert classify_shape(KiteShape(2.0, 0.74), newton) == "inadmissible"
    assert classify_shape(KiteShape(2.0, 0.87), newton) == "inadmissible"
    assert classify_shape(KiteShape(2.0, 0.75), newton) == "circumcenter-boundary"
    # (1.2, 0.2): circumcenter value 0.18333... < 0.2 -> not wide -> inadmissible
    assert circumcenter_z4(1.2) == pytest.approx(0.18333333333333332, abs=1e-15)
    assert classify_shape(KiteShape(1.2, 0.2), newton) == "inadmissible"
    assert classify_shape(KiteShape(1.2, 0.15), newton) == "wide"
    # the classes meet at the equilateral outer triangle z3 = sqrt(3)
    assert classify_shape(KiteShape(SQRT3, 1.0 / SQRT3 + 0.1), newton) == "inadmissible"
    assert classify_shape(KiteShape(SQRT3 + 0.05, 0.8), newton) == "tall"


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
        q = KiteQuantities.from_kite(kite, newton)
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
        q = KiteQuantities.from_kite(kite, newton)
        kt, pt = KiteTable(q), build_pair_table(kite.config, newton)
        qi = KiteQuantities.at(Interval(shape.z3), Interval(shape.z4), Interval(kite.x2),
                               Interval(kite.mu31), Interval(kite.mu41), newton.A)
        it = KiteTable(qi)
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


def test_ha_explicit_computes_each_sin3_once(monkeypatch, newton):
    # the table keeps sin3 per ordered triple: one ha_explicit makes 40 sin3
    # calls on 21 distinct triples, and its entries equal an uncached run's
    kite = build_kite(KiteShape(2.0, 0.8), newton)

    def quantities():
        # fresh ones each time: a KiteQuantities keeps its table and shared entries
        return (KiteQuantities.from_kite(kite, newton),
                KiteQuantities.at(Interval(2.0), Interval(0.8), Interval(kite.x2),
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


# --- coorbital identity -----------------------------------------------------------

def test_coorbital_identity(rng, newton):
    for shape in sample_admissible_shapes(rng, 20):
        kite = build_kite(shape, newton)
        q = KiteQuantities.from_kite(kite, newton)
        assert abs(euler_precursor(q)) < 1e-10 * max(1.0, abs(q.mu41))
        resid = coorbital_identity_check(kite, newton)
        assert resid < 1e-9 * abs(q.mu41 * q.S14) + 1e-14


def test_coorbital_limit_bounded(newton):
    # mu41 * S14 stays bounded while mu41 blows up along z4 -> circumcenter
    z3 = 2.0
    yc = circumcenter_z4(z3)
    products = []
    mus = []
    for dz in (1e-2, 1e-4, 1e-6, 1e-8):
        kite = build_kite(KiteShape(z3, yc + dz), newton)
        q = KiteQuantities.from_kite(kite, newton)
        products.append(q.mu41 * q.S14)
        mus.append(q.mu41)
        # rounding noise in the residual is amplified by mu41 itself
        assert coorbital_identity_check(kite, newton) < (
            1e-9 * abs(q.mu41 * q.S14) + 1e-13 * q.mu41)
    assert mus[-1] > 1e5 * mus[0]
    # the product converges to a finite limit while mu41 diverges
    assert all(math.isfinite(p) for p in products)
    assert abs(products[-1] - products[-2]) < 1e-2 * abs(products[-1])


# --- index map ---------------------------------------------------------------------

def test_index_map_small(newton):
    cells = kite_index_map(1.1, 2.18, 36, 0.02, 0.86, 36, newton)
    assert len(cells) == 36 * 36
    computed = [c for c in cells if c.computed]
    assert len(computed) > 100
    totals = sorted({c.idx_total for c in computed})
    assert 0 in totals
    assert len(totals) == 3
    # no admissible cell sits on the circumcenter curve
    for c in computed:
        assert abs(c.z4 - circumcenter_z4(c.z3)) > 1e-9
    # boundary cells carry the block attribution
    boundary = [c for c in computed if c.which_block_changed]
    assert boundary
    assert all(set(c.which_block_changed.split("+")) <= {"Hs", "Ha"} for c in boundary)


def _reference_block_changes(cells, n3, n4):
    """which_block_changed of each cell, neighbour by neighbour."""
    labels = []
    for c in cells:
        blocks = set()
        for d3, d4 in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            j3, j4 = c.iz3 + d3, c.iz4 + d4
            if not (c.computed and 0 <= j3 < n3 and 0 <= j4 < n4):
                continue
            o = cells[j4 * n3 + j3]
            if not o.computed or o.idx_total == c.idx_total:
                continue
            if o.idx_hs != c.idx_hs:
                blocks.add("Hs")
            if o.idx_ha != c.idx_ha:
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
        cells = kite_index_map(z3_lo, z3_hi, n3, z4_lo, z4_hi, n4, params, margin=margin)
        assert len(cells) == n3 * n4
        for k, c in enumerate(cells):
            assert (c.iz3, c.iz4) == (k % n3, k // n3)
            assert c.z3 == z3_lo + (c.iz3 + 0.5) * ((z3_hi - z3_lo) / n3)
            assert c.z4 == z4_lo + (c.iz4 + 0.5) * ((z4_hi - z4_lo) / n4)
            want = index_map_cell(c.z3, c.z4, params, margin)
            assert (c.klass, c.idx_hs, c.idx_ha, c.degenerate, c.error) == want, (c.z3, c.z4)
            if c.idx_hs >= 0:
                assert c.idx_total == c.idx_hs + c.idx_ha
            if not math.isnan(c.x2):    # the scalar functions agree bit for bit
                kite = build_kite(KiteShape(c.z3, c.z4), params)
                assert (c.x2, c.mu31, c.mu41) == (kite.x2, kite.mu31, kite.mu41)
                assert c.x2 == kite_scale(KiteShape(c.z3, c.z4), params)
            seen[c.klass] += 1
            seen[c.error.partition(":")[0]] += 1
        assert [c.which_block_changed for c in cells] == _reference_block_changes(cells, n3, n4)
        seen["boundary labels"] += sum(1 for c in cells if c.which_block_changed)
    for key in ("tall", "wide", "inadmissible", "circumcenter-boundary", "boundary labels",
                "IndeterminateScaleError", "MassBoundaryError"):
        assert seen[key] > 0, key


def test_index_map_noise_cells_are_degenerate():
    # at A = 50 the deflated H_a eigenvalues fall below the rounding level
    # of |H|, so no cell's index is trustworthy
    cells = kite_index_map(1.0, 2.2, 20, 0.01, 0.87, 20, PotentialParams(50.0))
    admissible = [c for c in cells if c.klass in ("tall", "wide")]
    assert admissible
    assert not any(c.computed for c in cells)
    assert all(c.degenerate for c in admissible if not c.error)


def test_index_map_refinement_consistency(newton):
    coarse = kite_index_map(1.75, 2.05, 12, 0.76, 0.86, 12, newton)
    fine = kite_index_map(1.75, 2.05, 24, 0.76, 0.86, 24, newton)

    def total_at(cells, n3, iz3, iz4):
        return cells[iz4 * n3 + iz3]

    boundary_coarse = set()
    for c in coarse:
        if c.computed and c.which_block_changed:
            boundary_coarse.add((c.iz3, c.iz4))
    for fc in fine:
        if not fc.computed:
            continue
        cc = total_at(coarse, 12, fc.iz3 // 2, fc.iz4 // 2)
        if not cc.computed or fc.idx_total == cc.idx_total:
            continue
        # disagreement allowed only next to an index boundary of the coarse map
        near = any(abs(cc.iz3 - b3) <= 1 and abs(cc.iz4 - b4) <= 1
                   for b3, b4 in boundary_coarse)
        assert near, (fc.z3, fc.z4, fc.idx_total, cc.idx_total)


def test_write_pgm(tmp_path, newton):
    cells = kite_index_map(1.75, 2.05, 8, 0.76, 0.86, 8, newton)
    out = tmp_path / "map.pgm"
    write_pgm(cells, 8, 8, out)
    data = out.read_bytes()
    assert data.startswith(b"P5\n8 8\n255\n")
    pixels = data.split(b"255\n", 1)[1]
    assert len(pixels) == 64
    assert set(pixels) <= {0, 64, 128, 255}

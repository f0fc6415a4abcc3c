"""Acceptance suite.

One test per criterion, each enforcing its stated tolerances and runtime
budget and printing a single PASS/FAIL line (run with -s to see them
inline; pytest prints captured output for failures either way).
"""

import math
import time
from collections import Counter, deque

import numpy as np
import pytest

from twistcc.certify import OUTCOMES, certify_box, certify_boxes, certify_kite_scale
from twistcc.geometry import (PlanarConfig, PotentialParams, build_pair_table,
                              cartesian_gradient_f, euler_residual,
                              moment_of_inertia)
from twistcc.hessian import (assemble_twist_hessian, cartesian_hessian, morse_index,
                             twist_hessian_entry)
from twistcc.intervals import Interval, IntervalArray
from twistcc.kite import (_BLOCK_LABELS, KiteShape, KiteTable, build_kite,
                          circumcenter_z4, coorbital_identity_check, kite_blocks,
                          kite_index_map, kite_scale)
from twistcc.solver import FlowSpec, descend, flow_fixed_combo, rescale_to_cc_size
from twistcc.twist import (cc_residual, laura_andoyer, normalized_twist,
                           twist_span_basis, twist_vector)

from oracles import (all_twist_rank, bisect_dziso, equilateral_config, fd_gradient, lane,
                     fd_hessian, random_config, square_config)
from test_kite import sample_admissible_shapes

SQRT3 = math.sqrt(3.0)


class criterion:
    """Times a criterion body and prints one PASS/FAIL line."""

    def __init__(self, num: int, label: str, limit_s: float):
        self.num = num
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and dt < self.limit else "FAIL"
        print(f"criterion {self.num:2d} {status} ({dt:6.2f}s / {self.limit:.0f}s): "
              f"{self.label}")
        if exc_type is None and dt >= self.limit:
            raise AssertionError(
                f"criterion {self.num} exceeded its runtime budget: "
                f"{dt:.2f}s >= {self.limit:.0f}s")
        return False


def test_criterion_01_gradient_identity(rng):
    with criterion(1, "Laura-Andoyer equals grad f . v; gradient matches FD", 10):
        for trial in range(50):
            n = int(rng.integers(3, 6))
            A = float(rng.choice([2.5, 3.0, 4.0]))
            params = PotentialParams(A)
            cfg = random_config(rng, n)
            g = cartesian_gradient_f(cfg, params)
            gf = fd_gradient(cfg, params)
            assert np.linalg.norm(g - gf) < 1e-6 * np.linalg.norm(g)
            t = build_pair_table(cfg, params)
            for i in range(n):
                for j in range(i + 1, n):
                    la = laura_andoyer(t, (i, j))
                    dd = float(g @ twist_vector(cfg, (i, j)))
                    assert abs(la - dd) < 1e-10 * max(abs(la), abs(dd), 1e-3)


def test_criterion_02_span_theorem(rng, newton):
    with criterion(2, "twist span dimension 2n-3 generic / n-1 collinear", 5):
        for trial in range(100):
            n = int(rng.integers(3, 7))
            cfg = random_config(rng, n)
            _, dim = twist_span_basis(build_pair_table(cfg, newton))
            assert dim == 2 * n - 3
            assert all_twist_rank(cfg) == dim
        for trial in range(100):
            n = int(rng.integers(3, 7))
            cfg = random_config(rng, n, collinear=True)
            _, dim = twist_span_basis(build_pair_table(cfg, newton))
            assert dim == n - 1
            assert all_twist_rank(cfg) == dim


def test_criterion_03_hessian_formula_equivalence(rng):
    with criterion(3, "six twist-entry formulas match sandwiches; H matches FD", 30):
        counts = Counter()
        for trial in range(32):
            n = int(rng.integers(3, 7))
            A = float(rng.choice([2.5, 3.0, 4.0]))
            params = PotentialParams(A)
            cfg = random_config(rng, n)
            H = cartesian_hessian(cfg, params)
            t = build_pair_table(cfg, params)
            hnorm = np.linalg.norm(H)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for p in pairs:
                for q in pairs:
                    shared = len(set(p) & set(q))
                    kind = {2: "diag", 1: "share", 0: "disjoint"}[shared]
                    for normalized in (False, True):
                        if normalized:
                            vp = normalized_twist(t, p)
                            vq = normalized_twist(t, q)
                        else:
                            vp = twist_vector(cfg, p)
                            vq = twist_vector(cfg, q)
                        want = float(vp @ H @ vq)
                        got = twist_hessian_entry(t, p, q, normalized)
                        floor = 1e-12 * hnorm * np.linalg.norm(vp) * np.linalg.norm(vq)
                        assert abs(got - want) < 1e-9 * max(abs(want), floor), \
                            (p, q, normalized, A)
                        counts[(kind, normalized)] += 1
        assert all(counts[k] >= 200 for k in counts), counts
        assert len(counts) == 6
        for trial in range(8):
            n = int(rng.integers(3, 5))
            params = PotentialParams(float(rng.choice([2.5, 3.0, 4.0])))
            cfg = random_config(rng, n)
            H = cartesian_hessian(cfg, params)
            Hf = fd_hessian(cfg, params)
            assert np.linalg.norm(H - Hf) < 1e-5 * np.linalg.norm(H)


def test_criterion_04_three_body_closed_form(rng):
    with criterion(4, "Lagrange twist Hessian closed form and signature", 5):
        A = 3.0
        params = PotentialParams(A)
        for trial in range(100):
            masses = tuple(10.0 ** rng.uniform(-1, 1, 3))
            cfg = equilateral_config(masses)
            tm = assemble_twist_hessian(build_pair_table(cfg, params), [(0, 1), (0, 2), (1, 2)],
                                        normalized=True)
            m1, m2, m3 = masses
            want = (3 * A / 4) * np.array([
                [m3 / m1 + m3 / m2, -1, -1],
                [-1, m2 / m1 + m2 / m3, -1],
                [-1, -1, m1 / m2 + m1 / m3]])
            assert np.abs(tm.matrix - want).max() <= 1e-12 * np.abs(want).max()
            assert morse_index(tm) == (0, 1, 2)
        tm = assemble_twist_hessian(build_pair_table(equilateral_config(), params),
                                    [(0, 1), (0, 2), (1, 2)], normalized=True)
        w = np.sort(np.linalg.eigvalsh(tm.matrix))
        assert abs(w[0]) < 1e-12
        assert abs(w[1] - 27 / 4) < 1e-12 * (27 / 4)
        assert abs(w[2] - 27 / 4) < 1e-12 * (27 / 4)


def test_criterion_05_conservation():
    with criterion(5, "flows conserve I and c; drift is 4th order in dt", 5):
        cfg = square_config()
        terms = ((1.0, (0, 1)), (1.0, (0, 2)), (1.0, (0, 3)))

        def drift(dt, steps):
            traj = flow_fixed_combo(cfg, FlowSpec(terms, dt=dt, steps=steps))
            I0 = moment_of_inertia(traj[0])
            dI = max(abs(moment_of_inertia(c) - I0) for c in traj) / I0
            from twistcc.geometry import center_of_mass
            c0 = center_of_mass(traj[0])
            dc = max(np.linalg.norm(center_of_mass(c) - c0) for c in traj)
            return dI, dc

        dI, dc = drift(1e-3, 1000)
        assert dI < 1e-8
        assert dc < 1e-10 * cfg.diameter()
        dI_half, _ = drift(5e-4, 2000)
        assert dI / dI_half >= 8.0


def test_criterion_06_descent(newton):
    with criterion(6, "square (1,1,3,5) descends to a convex CC", 10):
        report = descend(square_config((1.0, 1.0, 3.0, 5.0)), newton, tol=1e-10)
        assert report.converged
        assert report.max_la_residual < 1e-10
        fixed = rescale_to_cc_size(report.config, newton)
        MI = fixed.masses.sum() * moment_of_inertia(fixed)
        assert abs(euler_residual(fixed, newton)) < 1e-12 * MI


def test_criterion_07_kite_construction(newton):
    with criterion(7, "50x50 kite grid: CC residuals, blocks, coorbital identity", 60):
        m = kite_index_map(1.05, 2.2, 50, 0.02, 0.87, 50, newton)
        admissible = np.flatnonzero(m.admissible).tolist()
        assert len(admissible) > 400
        for k in admissible:
            z3, z4, error = float(m.z3[k]), float(m.z4[k]), m.errors[k]
            assert not error, (z3, z4, error)
            kite = build_kite(KiteShape(z3, z4), newton)
            assert cc_residual(kite.config, newton, tol=1e-10).is_cc
            MI = kite.config.masses.sum() * moment_of_inertia(kite.config)
            assert abs(euler_residual(kite.config, newton)) < 1e-12 * MI
            blocks = kite_blocks(kite, newton)  # raises above 1e-10 * |H| leakage
            wa = np.sort(np.abs(np.linalg.eigvalsh(blocks.h_a)))
            assert wa[0] < 1e-6 * wa[-1]
            assert wa[1] >= 1e-6 * wa[-1]
            q = KiteTable.of(kite, newton)
            resid = coorbital_identity_check(kite, newton)
            assert resid < 1e-9 * abs(kite.mu41 * q.S[0, 3]) + 1e-14


def _components(cellset, radius=1):
    cellset = set(cellset)
    comps = []
    while cellset:
        seed = cellset.pop()
        comp = {seed}
        dq = deque([seed])
        while dq:
            x, y = dq.popleft()
            for dx in range(-radius, radius + 1):
                for dy in range(-radius, radius + 1):
                    nb = (x + dx, y + dy)
                    if nb in cellset:
                        cellset.discard(nb)
                        comp.add(nb)
                        dq.append(nb)
        comps.append(comp)
    return sorted(comps, key=len, reverse=True)


def test_criterion_08_figure_structure(newton):
    with criterion(8, "index map: three connected regions, block switch recorded", 300):
        n = 200
        m = kite_index_map(1.05, 2.2, n, 0.02, 0.87, n, newton)
        total = m.idx_hs + m.idx_ha
        totals = np.unique(total[m.computed]).tolist()
        print(f"    observed total indices: {totals}; "
              f"counts {dict(Counter(total[m.computed].tolist()))}")
        assert len(totals) == 3
        assert 0 in totals

        # The admissible set has a tall and a wide component that meet only
        # at the degenerate fully symmetric shape, so each index value must
        # form one connected region per side.  Fragments below resolution
        # (a few cells beside the symmetric point or in band cusps thinner
        # than a cell) are discarded before the connectivity check.
        min_size = 10
        for t in totals:
            for side_sel, side in ((m.z3 > SQRT3, "tall"), (m.z3 < SQRT3, "wide")):
                cs = [(k % n, k // n)
                      for k in np.flatnonzero(m.computed & (total == t) & side_sel).tolist()]
                comps = [c for c in _components(cs) if len(c) >= min_size]
                assert len(comps) <= 1, (t, side, [len(c) for c in comps])

        # boundary attribution: the block whose sign changes at the index-0
        # boundary is H_a on the tall side and H_s on the wide side, and the
        # responsibility switches for the boundary of the highest region
        hi = max(totals)
        votes = {}
        for t in (0, hi):
            for side_sel, side in ((m.z3 > SQRT3, "tall"), (m.z3 < SQRT3, "wide")):
                at = m.computed & (total == t) & (m.changed > 0) & side_sel
                counter = Counter(_BLOCK_LABELS[c] for c in m.changed[at].tolist())
                votes[(t, side)] = counter
                print(f"    boundary blocks for total={t} {side}: {dict(counter)}")
        assert votes[(0, "tall")]["Ha"] > votes[(0, "tall")]["Hs"]
        assert votes[(0, "wide")]["Hs"] > votes[(0, "wide")]["Ha"]
        assert votes[(hi, "tall")]["Hs"] > votes[(hi, "tall")]["Ha"]
        assert votes[(hi, "wide")]["Ha"] > votes[(hi, "wide")]["Hs"]


def test_criterion_09_dziobek_scale(rng, newton):
    with criterion(9, "Dziobek root: bisection oracle vs certified enclosure", 10):
        from twistcc.kite import dzsub_report
        agree = Counter()
        for shape in sample_admissible_shapes(rng, 100):
            oracle = bisect_dziso(shape, newton)
            x2 = certify_kite_scale(IntervalArray([shape.z3]), IntervalArray([shape.z4]),
                                    newton)
            assert not x2.failed[0]
            enc = lane(x2, 0)
            assert abs(enc.mid - oracle) < 1e-10
            assert enc.lo - 1e-13 <= oracle <= enc.hi + 1e-13
            rep = dzsub_report(shape, newton)
            assert abs(rep.oracle_x2 - oracle) < 1e-10
            agree["verbatim"] += rep.verbatim_agrees
            agree["half_exponent"] += rep.half_exponent_agrees
        print(f"    printed closed-form agreement over 100 shapes: "
              f"verbatim {agree['verbatim']}, half-exponent {agree['half_exponent']} "
              f"(Dziobek root authoritative)")


def test_criterion_10_certification(rng, newton):
    with criterion(10, "interval containment; certified Hs matches float", 60):
        # 1e5 randomized elementary-operation containment checks on boxes,
        # whose results are one-lane IntervalArrays
        def contains(iv, v):
            return iv.lo[0] <= v <= iv.hi[0]

        ops = 0
        while ops < 100000:
            a, b = sorted(rng.uniform(-10, 10, 2))
            c, d = sorted(rng.uniform(-10, 10, 2))
            x, y = Interval(a, b), Interval(c, d)
            t, u = rng.uniform(0, 1, 2)
            va = a + t * (b - a)
            vb = c + u * (d - c)
            assert contains(x + y, va + vb)
            assert contains(x - y, va - vb)
            assert contains(x * y, va * vb)
            ops += 3
            if not y.contains_zero()[0]:
                assert contains(x / y, va / vb)
                ops += 1
            if a > 0:
                p = float(rng.uniform(-4, 4))
                assert contains(x.pow_real(p), va ** p)
                assert contains(x.sqrt(), math.sqrt(va))
                ops += 2

        # certified Hs indices match floating-point indices at interior points
        checked = 0
        matched = 0
        shapes = sample_admissible_shapes(rng, 110)
        certs = certify_boxes(IntervalArray([s.z3 for s in shapes]),
                              IntervalArray([s.z4 for s in shapes]), newton)
        for shape, code in zip(shapes, certs.hs.tolist()):
            cert = OUTCOMES[code]
            if not cert.known:
                continue
            blocks = kite_blocks(build_kite(shape, newton), newton)
            idx = int((np.linalg.eigvalsh(blocks.h_s) < 0).sum())
            checked += 1
            matched += (cert.value == idx)
        assert checked >= 100
        assert matched == checked

        # a box straddling a detected Hs boundary certifies as Unknown
        z3v = 1.9
        lo = circumcenter_z4(z3v) + 0.01
        hi = SQRT3 / 2 - 0.01
        prev = None
        crossing = None
        for k in range(80):
            z4v = lo + (hi - lo) * k / 79
            blocks = kite_blocks(build_kite(KiteShape(z3v, z4v), newton), newton)
            idx = int((np.linalg.eigvalsh(blocks.h_s) < 0).sum())
            if prev is not None and idx != prev[1]:
                crossing = (prev[0], z4v)
                break
            prev = (z4v, idx)
        assert crossing is not None
        cert = certify_box(Interval(z3v - 1e-4, z3v + 1e-4),
                           Interval(*crossing), newton).hs
        assert not cert.known

from itertools import combinations

import numpy as np
import pytest

from twistcc.geometry import (PlanarConfig, PotentialParams, build_pair_table,
                              cartesian_gradient_f, center_of_mass)
from twistcc.twist import (COLLINEAR_RTOL, albouy_chenciner_asym, albouy_chenciner_pairs,
                           albouy_chenciner_sym, cc_residual, laura_andoyer,
                           laura_andoyer_pairs, max_laura_andoyer, normalized_twist,
                           twist_span_basis, twist_vector)

from oracles import (albouy_chenciner_loop, all_twist_rank, equilateral_config,
                     laura_andoyer_loop, random_config, square_config,
                     twist_span_basis_loop)


def grad_center_fields(cfg):
    m = cfg.masses
    M = m.sum()
    gcx = np.zeros(2 * cfg.n)
    gcy = np.zeros(2 * cfg.n)
    gcx[0::2] = m / M
    gcy[1::2] = m / M
    gI = np.zeros(2 * cfg.n)
    c = center_of_mass(cfg)
    gI[0::2] = 2 * m * (cfg.points[:, 0] - c[0])
    gI[1::2] = 2 * m * (cfg.points[:, 1] - c[1])
    return gcx, gcy, gI


def test_twist_vector_components():
    cfg = PlanarConfig.from_points([(0, 0), (3, 0), (1, 1)], (2.0, 1.0, 5.0))
    v = twist_vector(cfg, (0, 2))
    # bodies 0 and 2: dx = -1, dy = -1, masses 2 and 5
    assert v[0] == 5.0 * (-1.0)
    assert v[1] == -5.0 * (-1.0)
    assert v[4] == -2.0 * (-1.0)
    assert v[5] == 2.0 * (-1.0)
    assert v[2] == v[3] == 0.0
    with pytest.raises(ValueError):
        twist_vector(cfg, (1, 1))


def test_twist_orthogonality(rng):
    for _ in range(25):
        n = int(rng.integers(3, 7))
        cfg = random_config(rng, n)
        gcx, gcy, gI = grad_center_fields(cfg)
        for i in range(n):
            for j in range(i + 1, n):
                v = twist_vector(cfg, (i, j))
                nv = np.linalg.norm(v)
                assert abs(v @ gcx) < 1e-12 * nv * np.linalg.norm(gcx)
                assert abs(v @ gcy) < 1e-12 * nv * np.linalg.norm(gcy)
                assert abs(v @ gI) < 1e-12 * nv * np.linalg.norm(gI)


def test_normalized_twist(newton, rng):
    cfg = random_config(rng, 4)
    t = build_pair_table(cfg, newton)
    for pair in [(0, 1), (1, 3)]:
        i, j = pair
        v = twist_vector(cfg, pair)
        nv = normalized_twist(t, pair)
        assert np.allclose(nv, v / (cfg.masses[i] * cfg.masses[j] * t.r[i, j]), rtol=1e-15)
    # equal unit masses at unit distance: normalized == raw
    cfg1 = PlanarConfig.from_points([(0, 0), (1, 0), (0.3, 2.0)], (1, 1, 1))
    t1 = build_pair_table(cfg1, newton)
    assert np.allclose(normalized_twist(t1, (0, 1)), twist_vector(cfg1, (0, 1)))


def test_normalized_twist_mass_scaling(newton):
    pts = [(0, 0), (1, 0), (0.3, 2.0)]
    a = PlanarConfig.from_points(pts, (1.0, 2.0, 3.0))
    b = PlanarConfig.from_points(pts, (7.0, 14.0, 21.0))
    ta, tb = build_pair_table(a, newton), build_pair_table(b, newton)
    va = normalized_twist(ta, (0, 1))
    vb = normalized_twist(tb, (0, 1))
    cross = np.outer(va, vb) - np.outer(vb, va)
    assert np.abs(cross).max() < 1e-12 * np.linalg.norm(va) * np.linalg.norm(vb)


def near_collinear_config(rng, n: int) -> PlanarConfig:
    """Every body on a line except one, at 1e-3 times the diameter from it."""
    cfg = random_config(rng, n, collinear=True)
    p = cfg.points.copy()
    u = (p[1] - p[0]) / np.linalg.norm(p[1] - p[0])
    p[int(rng.integers(n))] += 1e-3 * cfg.diameter() * np.array([-u[1], u[0]])
    return PlanarConfig.from_points(p, cfg.masses)


def test_span_basis_generic(rng, newton):
    # the selected twists have the rank of all twists, 2n - 3, also where the
    # farthest pair and every other body but one are nearly collinear
    for k in range(40):
        # bodies 0.2 apart are rarely drawn on a line beyond n = 6
        cfg = (random_config(rng, int(rng.integers(3, 13))) if k % 2
               else near_collinear_config(rng, int(rng.integers(3, 7))))
        n = cfg.n
        basis, dim = twist_span_basis(build_pair_table(cfg, newton))
        assert dim == 2 * n - 3
        assert len(basis) == dim
        assert all_twist_rank(cfg) == dim
        # the selected subset itself must be independent
        M = np.vstack([twist_vector(cfg, p) for p in basis])
        s = np.linalg.svd(M, compute_uv=False)
        assert (s > 1e-10 * s[0]).sum() == dim


def test_span_basis_collinear(rng, newton):
    for _ in range(10):
        n = int(rng.integers(3, 7))
        cfg = random_config(rng, n, collinear=True)
        basis, dim = twist_span_basis(build_pair_table(cfg, newton))
        assert dim == n - 1
        assert basis == [(0, j) for j in range(1, n)]
        assert all_twist_rank(cfg) == n - 1


def test_span_basis_three_bodies(rng, newton):
    cfg = random_config(rng, 3)
    basis, dim = twist_span_basis(build_pair_table(cfg, newton))
    assert dim == 3
    assert sorted(basis) == [(0, 1), (0, 2), (1, 2)]


def span_basis_cases(rng) -> list[PlanarConfig]:
    t = np.arange(6) * np.pi / 3
    hexagon = PlanarConfig.from_points(np.column_stack([np.cos(t), np.sin(t)]), np.ones(6))
    cfgs = [square_config(), hexagon]  # exact and near ties among distances and areas
    # bodies 3 and 4 lie on the line through the farthest pair (0, 1), so their
    # second pair switches from body 1 to body 2
    cfgs.append(PlanarConfig.from_points([(0, 0), (4, 0), (2, 1), (1, 0), (3, 0)],
                                         np.ones(5)))
    cfgs += [random_config(rng, n) for n in (2, 3, 4, 5, 8, 12) for _ in range(4)]
    cfgs += [random_config(rng, n, collinear=True) for n in (2, 3, 4, 7)]
    return cfgs


def test_span_basis_matches_loop(rng, newton):
    for cfg in span_basis_cases(rng):
        assert twist_span_basis(build_pair_table(cfg, newton)) == twist_span_basis_loop(cfg)


def test_span_basis_collinear_only_below_twice_the_threshold(rng, newton):
    # every body lies in the D x 2h box around the farthest pair, h the largest
    # distance from its line, so a configuration is taken as collinear only
    # when every triple has |lam| <= 2 * COLLINEAR_RTOL * D^2
    ratios = []
    for _ in range(100):
        n = int(rng.integers(3, 7))
        line = random_config(rng, n, collinear=True)
        p = line.points
        u = (p[1] - p[0]) / np.linalg.norm(p[1] - p[0])
        # each body within COLLINEAR_RTOL * D of the line, on either side
        h = COLLINEAR_RTOL * line.diameter() * rng.uniform(-1.0, 1.0, n)
        cfg = PlanarConfig.from_points(p + h[:, None] * np.array([-u[1], u[0]]), line.masses)
        q = cfg.points
        top = max(abs((q[j, 0] - q[i, 0]) * (q[k, 1] - q[i, 1])
                      - (q[k, 0] - q[i, 0]) * (q[j, 1] - q[i, 1]))
                  for i, j, k in combinations(range(n), 3))
        _, dim = twist_span_basis(build_pair_table(cfg, newton))
        ratio = top / (COLLINEAR_RTOL * cfg.diameter() ** 2)
        if dim == n - 1:
            assert ratio <= 2.0
            ratios.append(ratio)
    # both branches are taken, and some collinear ones have triples above the threshold
    assert 0 < len(ratios) < 100 and max(ratios) > 1.0


# The gradient's blocks G_i = sum_k m_i m_k |S_ik| r_ik bound the rounding of
# g . v_ij against the triple sum: at most 8e-15 * max r_ij (m_j G_i + m_i G_j)
# over 1,350 random configurations (n 2-40, A 2.1-10, scales 1e-3 to 1e3).
LA_ROUNDING = 3e-14
# b_ij = 2 (x_i - x_j) . G_i, G_i = sum_k m_k S_ik (x_i - x_k), against the
# triple sum: at most 5.9e-16 * max_i sum_k |m_k S_ik| * max r^2 over 400
# random configurations (n 2-150, A 2.1-10, scales 1e-3 to 1e3, off-centre).
AC_ROUNDING = 1e-14


def test_pair_residuals_match_loops(rng):
    for A, scale in ((3.0, 1.0), (2.1, 1e-3), (10.0, 1e3)):
        params = PotentialParams(A)
        for n in (2, 3, 5, 8, 20):
            base = random_config(rng, n)
            cfg = PlanarConfig.from_points(scale * base.points, base.masses)
            t = build_pair_table(cfg, params)
            m = cfg.masses
            iu = np.triu_indices(n, 1)
            pairs = list(zip(*iu))
            loop = np.array([laura_andoyer_loop(t, m, i, j) for i, j in pairs])
            G = (m[:, None] * m * np.abs(t.S) * t.r).sum(axis=1)
            bound = LA_ROUNDING * (t.r[iu] * (m[iu[1]] * G[iu[0]] + m[iu[0]] * G[iu[1]])).max()
            la = laura_andoyer_pairs(t)
            assert np.abs(la - loop).max() <= bound, (A, scale, n)
            loop = np.array([[albouy_chenciner_loop(t, m, i, j) if i != j else 0.0
                              for j in range(n)] for i in range(n)])
            bound = AC_ROUNDING * np.abs(m * t.S).sum(axis=1).max() * t.r.max() ** 2
            b = albouy_chenciner_pairs(t)
            assert np.abs(b - loop).max() <= bound, (A, scale, n)
            assert not np.diag(b).any()
            res = cc_residual(cfg, params)
            assert res.la.tobytes() == la.tobytes()
            assert res.b.tobytes() == b.tobytes()
            norm = float(m.sum()) ** 2 * float(t.r.max()) ** 2
            assert res.max_la == max_laura_andoyer(t) == float(np.abs(la).max()) / norm
            assert res.max_ac == float(np.abs(b).max()) / norm
            for k, (i, j) in enumerate(pairs):
                assert laura_andoyer(t, (j, i)) == la[k]
                assert albouy_chenciner_asym(t, i, j) == b[i, j]
                assert albouy_chenciner_asym(t, j, i) == b[j, i]


def test_laura_andoyer_equilateral(newton):
    cfg = equilateral_config((1.7, 0.4, 2.2))
    t = build_pair_table(cfg, newton)
    for pair in [(0, 1), (0, 2), (1, 2)]:
        assert abs(laura_andoyer(t, pair)) < 1e-14


def test_laura_andoyer_symmetry(rng, newton):
    for _ in range(10):
        cfg = random_config(rng, 5)
        t = build_pair_table(cfg, newton)
        for i in range(5):
            for j in range(i + 1, 5):
                a = laura_andoyer(t, (i, j))
                b = laura_andoyer(t, (j, i))
                assert a == pytest.approx(b, rel=1e-15)


def test_laura_andoyer_is_directional_derivative(rng):
    for A in (2.5, 3.0, 4.0):
        params = PotentialParams(A)
        for _ in range(6):
            cfg = random_config(rng, int(rng.integers(3, 6)))
            t = build_pair_table(cfg, params)
            g = cartesian_gradient_f(cfg, params)
            for i in range(cfg.n):
                for j in range(i + 1, cfg.n):
                    la = laura_andoyer(t, (i, j))
                    dd = float(g @ twist_vector(cfg, (i, j)))
                    assert la == pytest.approx(dd, rel=1e-10, abs=1e-12)


def test_ac_asym_equilateral(newton):
    cfg = equilateral_config((2.0, 1.0, 0.5))
    t = build_pair_table(cfg, newton)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert abs(albouy_chenciner_asym(t, i, j)) < 1e-13


def test_ac_asym_split_identity(rng, newton):
    # full sum == 2 m_j S_ij r_ij^2 + sum over k not in {i,j}
    for _ in range(10):
        cfg = random_config(rng, 5)
        t = build_pair_table(cfg, newton)
        m = cfg.masses
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                full = albouy_chenciner_asym(t, i, j)
                split = 2 * m[j] * t.S[i, j] * t.r[i, j] ** 2 + sum(
                    m[k] * t.S[i, k] * t.a_triple(i, j, k)
                    for k in range(5) if k not in (i, j))
                assert full == pytest.approx(split, rel=1e-13, abs=1e-13)


def test_ac_sym(rng, newton):
    cfg = random_config(rng, 4)
    t = build_pair_table(cfg, newton)
    m = cfg.masses
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            g = albouy_chenciner_sym(t, i, j)
            assert g == albouy_chenciner_asym(t, i, j) + albouy_chenciner_asym(t, j, i)
            assert g == albouy_chenciner_sym(t, j, i)


def test_cc_residual(newton, rng):
    assert cc_residual(equilateral_config((1, 2, 3)), newton).is_cc
    assert not cc_residual(square_config(), newton).is_cc
    # small perturbation of a CC fails at tight tolerance
    cfg = equilateral_config()
    pts = cfg.points.copy()
    pts[0] += 1e-3
    assert not cc_residual(PlanarConfig.from_points(pts, cfg.masses), newton).is_cc

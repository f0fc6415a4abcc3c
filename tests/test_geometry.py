import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcc.geometry import (CoincidentPointsError, ExponentRangeError, GeometryError,
                              PlanarConfig, PotentialParams, build_pair_table,
                              cartesian_gradient_f, center_of_mass, config_from_json,
                              config_to_json, euler_residual, f_value,
                              moment_of_inertia, potential_u, _row_pass)

from oracles import (coincident_ref, equilateral_config, f_value_ref, fd_gradient,
                     random_config)


def rotate(config, angle):
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return PlanarConfig.from_points(config.points @ R.T, config.masses)


# --- pair table -----------------------------------------------------------

def test_pair_table_equilateral_unit():
    t = build_pair_table(equilateral_config(), PotentialParams(3.0))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            assert t.r[i, j] == pytest.approx(1.0, abs=1e-15)
            assert t.S[i, j] == pytest.approx(0.0, abs=5e-15)
            assert t.R[i, j] == pytest.approx(1.0, abs=5e-15)
            assert t.T[i, j] == pytest.approx(1.0, abs=5e-15)


def test_pair_table_identities(rng, newton):
    for _ in range(20):
        cfg = random_config(rng, int(rng.integers(3, 6)))
        t = build_pair_table(cfg, newton)
        n = cfg.n
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert t.S[i, j] == t.R[i, j] - 1.0
                assert t.T[i, j] == pytest.approx(t.R[i, j] / t.r[i, j] ** 2, rel=1e-14)
                assert t.a_triple(i, j, j) == pytest.approx(2 * t.r[i, j] ** 2, rel=1e-14)
                scale = cfg.diameter() ** 2
                for k in range(n):
                    assert t.lam(i, j, k) == pytest.approx(-t.lam(j, i, k),
                                                           rel=1e-13, abs=1e-14 * scale)
                    assert t.a_triple(i, j, k) == t.a_triple(i, k, j)


def test_pair_table_inertia_identity(rng, newton):
    # M * I == sum_{i<j} m_i m_j r_ij^2
    for _ in range(20):
        cfg = random_config(rng, 5)
        t = build_pair_table(cfg, newton)
        m = cfg.masses
        s = sum(m[i] * m[j] * t.r[i, j] ** 2
                for i in range(5) for j in range(i + 1, 5))
        assert s == pytest.approx(m.sum() * moment_of_inertia(cfg), rel=1e-12)


def test_coincident_rejected():
    with pytest.raises(CoincidentPointsError) as err:
        PlanarConfig.from_points([(0, 0), (1, 1), (1, 1)], (1, 1, 1))
    assert "1 and 2" in str(err.value)


def test_invalid_configs():
    with pytest.raises(GeometryError):
        PlanarConfig.from_points([(0, 0), (1, 0)], (1.0, -2.0))
    with pytest.raises(GeometryError):
        PlanarConfig.from_points([(0, 0)], (1.0,))
    # f = M*I/2 + U/(A-2) needs a finite A > 2: no other exponent is constructed
    for A in (2.0, 1.5, math.inf, math.nan):
        with pytest.raises(ExponentRangeError, match="requires A > 2"):
            PotentialParams(A)


def same_float(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_f_rows_match_one_configuration_at_a_time(rng):
    # stacked rows, some coincident or non-finite, against the one-configuration
    # reference: same validity, and bit-identical f, diameter, pair distances, I
    # and U; a valid row carried by `_from_valid_row` is that configuration
    for n in (2, 3, 4, 8, 20):
        for A in (2.5, 3.0, 4.0):
            params = PotentialParams(A)
            cfg = random_config(rng, n)
            m = cfg.masses
            rows = cfg.positions + rng.normal(scale=0.05, size=(12, 2 * n))
            rows[3, 0:2] = rows[3, 2:4]          # body 0 on body 1
            rows[4, 2:4] = rows[4, 0:2] + 1e-15  # within COINCIDENT_RTOL when n > 2
            rows[5, 1] = np.inf
            rows[6, -1] = np.nan
            rows[7] = 0.0                        # all bodies at one point
            rows[8] *= 1e200                     # f overflows
            valid, f, pair_r, inertia, potential = _row_pass(rows, m, A)
            assert valid[[4, 8]].tolist() == [n == 2, True] and not valid[[3, 5, 6, 7]].any()
            for k, row in enumerate(rows):
                pts = row.reshape(-1, 2)
                with np.errstate(all="ignore"):
                    ok = bool(np.isfinite(row).all()) and not coincident_ref(pts)
                assert valid[k] == ok
                if not ok:
                    with pytest.raises(GeometryError):
                        PlanarConfig(row, m)
                    continue
                c = PlanarConfig(row, m)
                with np.errstate(all="ignore"):
                    assert f[k] == f_value_ref(pts, m, A) == f_value(c, params)
                d = pts[:, None, :] - pts[None, :, :]
                assert c.diameter() == float(np.hypot(d[..., 0], d[..., 1]).max())
                assert not c.pair_distances.flags.writeable
                assert pair_r[k].tobytes() == c.pair_distances.tobytes()
                with np.errstate(all="ignore"):
                    assert same_float(inertia[k], moment_of_inertia(c))
                    assert same_float(potential[k], potential_u(c, params))
                    assert same_float(f[k], f_value(c, params))
                carried = PlanarConfig._from_valid_row(rows[k], c.masses, pair_r[k])
                for name in ("positions", "masses", "pair_distances"):
                    got, want = getattr(carried, name), getattr(c, name)
                    assert got.dtype == want.dtype and got.shape == want.shape, name
                    assert got.tobytes() == want.tobytes(), name
                    assert got.flags.c_contiguous and not got.flags.writeable, name
                # copies, so later rows or passes cannot change the configuration
                assert not np.shares_memory(carried.positions, rows)
                assert not np.shares_memory(carried.pair_distances, pair_r)


# --- scalars ----------------------------------------------------------------

def test_center_of_mass_examples():
    cfg = PlanarConfig.from_points([(-1, 0), (1, 0)], (1, 1))
    assert np.allclose(center_of_mass(cfg), [0, 0])
    cfg = PlanarConfig.from_points([(0, 0), (4, 0)], (1, 3))
    assert np.allclose(center_of_mass(cfg), [3, 0])


@settings(max_examples=50, deadline=None)
@given(tx=st.floats(-5, 5), ty=st.floats(-5, 5))
def test_center_of_mass_translation(tx, ty):
    cfg = PlanarConfig.from_points([(0, 0), (1, 2), (3, -1)], (1, 2, 5))
    shifted = PlanarConfig.from_points(cfg.points + [tx, ty], cfg.masses)
    assert np.allclose(center_of_mass(shifted), center_of_mass(cfg) + [tx, ty], atol=1e-12)


def test_moment_of_inertia_examples():
    cfg = PlanarConfig.from_points([(-1, 0), (1, 0)], (1, 1))
    assert moment_of_inertia(cfg) == pytest.approx(2.0, rel=1e-15)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.1, 10))
def test_homogeneity(lam):
    params = PotentialParams(3.0)
    cfg = PlanarConfig.from_points([(0, 0), (1, 2), (3, -1)], (1, 2, 5))
    scaled = PlanarConfig.from_points(lam * cfg.points, cfg.masses)
    assert moment_of_inertia(scaled) == pytest.approx(
        lam ** 2 * moment_of_inertia(cfg), rel=1e-12)
    assert potential_u(scaled, params) == pytest.approx(
        lam ** (2 - params.A) * potential_u(cfg, params), rel=1e-12)


def test_potential_examples(newton):
    assert potential_u(equilateral_config(), newton) == pytest.approx(3.0, rel=1e-14)
    two = PlanarConfig.from_points([(0, 0), (2, 0)], (1, 1))
    assert potential_u(two, newton) == pytest.approx(0.5, rel=1e-15)


def test_f_value_equilateral(newton):
    # M = 3, I = 1, U = 3 -> f = 3/2 + 3 = 4.5
    assert f_value(equilateral_config(), newton) == pytest.approx(4.5, rel=1e-14)


def test_f_invariance(rng, newton):
    for _ in range(10):
        cfg = random_config(rng, 4)
        f0 = f_value(cfg, newton)
        rot = rotate(cfg, rng.uniform(0, 2 * math.pi))
        tra = PlanarConfig.from_points(cfg.points + rng.uniform(-3, 3, 2), cfg.masses)
        assert f_value(rot, newton) == pytest.approx(f0, rel=1e-12)
        assert f_value(tra, newton) == pytest.approx(f0, rel=1e-12)
        assert f0 > 0


def test_euler_residual(newton):
    cfg = equilateral_config()
    assert abs(euler_residual(cfg, newton)) < 1e-13
    scaled = PlanarConfig.from_points(3.0 * cfg.points, cfg.masses)
    assert abs(euler_residual(scaled, newton)) > 1e-2


# --- gradient ----------------------------------------------------------------

def test_gradient_matches_fd(rng):
    for A in (2.5, 3.0, 4.0):
        params = PotentialParams(A)
        for n in (3, 4, 5):
            cfg = random_config(rng, n)
            g = cartesian_gradient_f(cfg, params)
            gf = fd_gradient(cfg, params)
            assert np.linalg.norm(g - gf) <= 1e-6 * np.linalg.norm(g)


def test_gradient_zero_at_equilateral(newton):
    g = cartesian_gradient_f(equilateral_config((2.0, 0.7, 1.3)), newton)
    assert np.abs(g).max() < 1e-13


def test_gradient_orthogonal_to_rotation(rng, newton):
    for _ in range(10):
        cfg = random_config(rng, 4)
        g = cartesian_gradient_f(cfg, newton)
        c = center_of_mass(cfg)
        u = np.empty_like(g)
        u[0::2] = -(cfg.points[:, 1] - c[1])
        u[1::2] = cfg.points[:, 0] - c[0]
        assert abs(g @ u) < 1e-12 * np.linalg.norm(g) * np.linalg.norm(u)


# --- config file format -------------------------------------------------------

def test_config_json_roundtrip(rng, newton):
    cfg = random_config(rng, 4)
    text = config_to_json(cfg, newton)
    back, params = config_from_json(text)
    assert params.A == newton.A
    assert np.array_equal(back.positions, cfg.positions)
    assert np.array_equal(back.masses, cfg.masses)


def test_config_json_malformed():
    with pytest.raises(GeometryError):
        config_from_json('{"A": 3.0, "masses": [1, 1]}')
    # values that are not JSON numbers are refused, not converted: a string of
    # digits is not a list of masses nor a point, and true is not 1.0
    doc = {"A": 3.0, "masses": [1, 1, 3, 5],
           "positions": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}
    config_from_json(json.dumps(doc))
    for name, value in (("masses", "1135"), ("masses", [1, 1, True, 5]),
                        ("positions", ["01", "10", "11", "00"]),
                        ("positions", {"01": 0, "10": 0, "11": 0, "00": 0}),
                        ("positions", [[0, 0, 1]] * 4), ("A", True), ("A", "3.5"),
                        ("A", 10 ** 400)):
        with pytest.raises(GeometryError, match=f"malformed configuration document: '{name}'"):
            config_from_json(json.dumps({**doc, name: value}))
    for text in ("[1, 2]", '{"masses": [1, 1], "positions": [[0, 0], [1, 0]]}'):
        with pytest.raises(GeometryError, match="malformed configuration document"):
            config_from_json(text)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcc.geometry import (PlanarConfig, PotentialParams, build_pair_table,
                              center_of_mass)
from twistcc.hessian import (TwistDirection, assemble_twist_hessian, cartesian_hessian,
                             lagrange_char_poly_coeffs, morse_index, signature,
                             twist_hessian_entry)
from twistcc.kite import KITE_BASIS, build_kite
from twistcc.twist import normalized_twist, twist_span_basis, twist_vector

from oracles import (assemble_twist_hessian_loop, equilateral_config, fd_hessian,
                     random_config, raw_twist_entry)
from test_kite import sample_admissible_shapes


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# --- Cartesian Hessian ---------------------------------------------------------

def test_cartesian_hessian_fd(rng):
    for A in (2.5, 3.0, 4.0):
        params = PotentialParams(A)
        for n in (3, 4):
            cfg = random_config(rng, n)
            H = cartesian_hessian(cfg, params)
            Hf = fd_hessian(cfg, params)
            assert np.linalg.norm(H - Hf) <= 1e-5 * np.linalg.norm(H)
            assert np.abs(H - H.T).max() <= 1e-13 * np.abs(H).max()


def test_cartesian_hessian_translation_kernel(rng, newton):
    cfg = random_config(rng, 5)
    H = cartesian_hessian(cfg, newton)
    tx = np.zeros(10); tx[0::2] = 1.0
    ty = np.zeros(10); ty[1::2] = 1.0
    hn = np.linalg.norm(H)
    assert np.linalg.norm(H @ tx) < 1e-12 * hn
    assert np.linalg.norm(H @ ty) < 1e-12 * hn


def test_cartesian_hessian_rotation_kernel_at_cc(newton):
    cfg = equilateral_config((1.0, 2.0, 3.0))
    H = cartesian_hessian(cfg, newton)
    c = center_of_mass(cfg)
    u = np.empty(6)
    u[0::2] = -(cfg.points[:, 1] - c[1])
    u[1::2] = cfg.points[:, 0] - c[0]
    assert np.linalg.norm(H @ u) < 1e-9 * np.linalg.norm(H) * np.linalg.norm(u)


# --- twist-basis entries vs the matrix sandwich ---------------------------------

def sandwich(cfg, params, p, q, normalized):
    H = cartesian_hessian(cfg, params)
    t = build_pair_table(cfg, params)
    if normalized:
        vp = normalized_twist(t, p)
        vq = normalized_twist(t, q)
    else:
        vp = twist_vector(cfg, p)
        vq = twist_vector(cfg, q)
    return float(vp @ H @ vq)


def check_entry(cfg, params, p, q, normalized):
    t = build_pair_table(cfg, params)
    got = twist_hessian_entry(t, p, q, normalized)
    want = sandwich(cfg, params, p, q, normalized)
    H = cartesian_hessian(cfg, params)
    floor = 1e-12 * np.linalg.norm(H)
    assert got == pytest.approx(want, rel=1e-10, abs=floor), (p, q, normalized)


def test_entries_match_sandwich(rng):
    for A in (2.5, 3.0, 4.0):
        params = PotentialParams(A)
        for n in (3, 4, 5):
            cfg = random_config(rng, n)
            pairs = all_pairs(n)
            for p in pairs:
                for q in pairs:
                    for normalized in (False, True):
                        check_entry(cfg, params, p, q, normalized)


def test_raw_entries_by_kind(rng, newton):
    # one raw entry of each kind; pairs are validated as for twist vectors
    cfg = random_config(rng, 5)
    t = build_pair_table(cfg, newton)
    m = cfg.masses
    for p, q in (((0, 3), (0, 3)), ((0, 1), (0, 2)), ((0, 1), (2, 3))):
        got = twist_hessian_entry(t, p, q)
        assert got == pytest.approx(sandwich(cfg, newton, p, q, False), rel=1e-10)
        assert got == pytest.approx(raw_twist_entry(t, m, newton, p, q), rel=1e-12)
    with pytest.raises(ValueError):
        twist_hessian_entry(t, (1, 1), (2, 3))
    with pytest.raises(ValueError):
        twist_hessian_entry(t, (0, 1), (1, 5))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), A=st.floats(2.0, 12.0, exclude_min=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_entries_match_sandwich_on_wide_inputs(n, A, seed):
    # raw and normalized entries of every pair of pairs against V^T H V, with
    # masses 10^-2 ... 10^2 and A up to 12, at the acceptance tolerance; the
    # normalized entries also against the oracle's raw closed forms
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, n)
    cfg = PlanarConfig(cfg.positions, 10.0 ** rng.uniform(-2.0, 2.0, n))
    params = PotentialParams(A)
    t = build_pair_table(cfg, params)
    m = cfg.masses
    H = cartesian_hessian(cfg, params)
    hnorm = np.linalg.norm(H)
    pairs = all_pairs(n)
    raw = {p: twist_vector(cfg, p) for p in pairs}
    nrm = {p: normalized_twist(t, p) for p in pairs}
    for p in pairs:
        for q in pairs:
            for normalized, v in ((False, raw), (True, nrm)):
                want = float(v[p] @ H @ v[q])
                got = twist_hessian_entry(t, p, q, normalized)
                floor = 1e-12 * hnorm * np.linalg.norm(v[p]) * np.linalg.norm(v[q])
                assert abs(got - want) < 1e-9 * max(abs(want), floor), (p, q, normalized)
            scale = m[p[0]] * m[p[1]] * t.r[p] * m[q[0]] * m[q[1]] * t.r[q]
            ref = raw_twist_entry(t, m, params, p, q) / scale
            got = twist_hessian_entry(t, p, q, normalized=True)
            floor = 1e-12 * hnorm * np.linalg.norm(nrm[p]) * np.linalg.norm(nrm[q])
            assert abs(got - ref) < 1e-9 * max(abs(ref), floor), (p, q)


def test_two_body_diag_sign(newton):
    # n = 2 has no k-sum terms: the entry is -(m1+m2)^2 r^2 S, so its sign
    # flips with S across the critical separation r = 1; the sandwich
    # oracle fixes the sign on both sides
    for r, expect_positive in ((1.25, True), (0.9, False)):
        cfg = PlanarConfig.from_points([(0, 0), (r, 0)], (1.0, 1.0))
        t = build_pair_table(cfg, newton)
        val = twist_hessian_entry(t, (0, 1), (0, 1))
        assert val == pytest.approx(sandwich(cfg, newton, (0, 1), (0, 1), False), rel=1e-10)
        assert (val > 0) == expect_positive


def test_normalized_is_rescaled_raw(rng, newton):
    # the library's normalized closed forms against the raw closed forms of
    # the oracle, which read T, lam and dot instead of R and the angles
    for _ in range(5):
        cfg = random_config(rng, 5)
        t = build_pair_table(cfg, newton)
        m = cfg.masses
        pairs = all_pairs(5)
        for p in pairs:
            for q in pairs:
                raw = raw_twist_entry(t, m, newton, p, q)
                nrm = twist_hessian_entry(t, p, q, normalized=True)
                scale = (m[p[0]] * m[p[1]] * t.r[p[0], p[1]]
                         * m[q[0]] * m[q[1]] * t.r[q[0], q[1]])
                assert nrm == pytest.approx(raw / scale, rel=1e-12, abs=1e-13)


# --- 3-body closed forms ----------------------------------------------------------

def lagrange_matrix(masses, A):
    m1, m2, m3 = masses
    return (3 * A / 4) * np.array([
        [m3 / m1 + m3 / m2, -1, -1],
        [-1, m2 / m1 + m2 / m3, -1],
        [-1, -1, m1 / m2 + m1 / m3],
    ])


def test_lagrange_twist_hessian(rng, newton):
    for _ in range(20):
        masses = tuple(10.0 ** rng.uniform(-0.5, 0.5, 3))
        cfg = equilateral_config(masses)
        tm = assemble_twist_hessian(build_pair_table(cfg, newton), [(0, 1), (0, 2), (1, 2)],
                                    normalized=True)
        want = lagrange_matrix(masses, newton.A)
        assert np.abs(tm.matrix - want).max() <= 1e-12 * np.abs(want).max()
        assert morse_index(tm) == (0, 1, 2)


def test_lagrange_equal_mass_eigenvalues(newton):
    cfg = equilateral_config((1.0, 1.0, 1.0))
    tm = assemble_twist_hessian(build_pair_table(cfg, newton), [(0, 1), (0, 2), (1, 2)],
                                normalized=True)
    w = np.sort(np.linalg.eigvalsh(tm.matrix))
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert w[1] == pytest.approx(27 / 4, rel=1e-12)
    assert w[2] == pytest.approx(27 / 4, rel=1e-12)


def test_lagrange_diag_value(newton):
    # normalized diagonal at equal masses, A = 3: (3A/4)(1 + 1) = 4.5
    cfg = equilateral_config()
    t = build_pair_table(cfg, newton)
    assert twist_hessian_entry(t, (0, 1), (0, 1),
                               normalized=True) == pytest.approx(4.5, rel=1e-13)
    assert twist_hessian_entry(t, (0, 1), (0, 2),
                               normalized=True) == pytest.approx(-9 / 4, rel=1e-13)


def test_assemble_with_combined_directions(rng, newton):
    cfg = random_config(rng, 4)
    t = build_pair_table(cfg, newton)
    H = cartesian_hessian(cfg, newton)
    s = 1 / math.sqrt(2)
    dirs = [
        TwistDirection("d1", ((s, (0, 1)), (s, (2, 3)))),
        TwistDirection("d2", ((1.0, (0, 2)), (-0.5, (1, 3)))),
        TwistDirection("d3", ((1.0, (2, 1)), (0.3, (0, 3)), (-2.0, (0, 1)))),
    ]
    for normalized in (False, True):
        tm = assemble_twist_hessian(build_pair_table(cfg, newton), dirs, normalized=normalized)
        assert np.array_equal(tm.matrix, tm.matrix.T)
        V = [sum(c * (normalized_twist(t, p) if normalized else twist_vector(cfg, p))
                 for c, p in d.terms) for d in dirs]
        sandwiched = np.array([[va @ H @ vb for vb in V] for va in V])
        # independent reference: bilinear expansion of the closed-form entries
        closed = np.array([[sum(ca * cb * twist_hessian_entry(t, pa, pb, normalized)
                                for ca, pa in da.terms for cb, pb in db.terms)
                            for db in dirs] for da in dirs])
        for want in (sandwiched, closed):
            assert np.abs(tm.matrix - want).max() <= 1e-10 * np.abs(want).max(), normalized


# --- characteristic polynomial and index counting ---------------------------------

def test_char_poly_coeffs():
    a0, a1, a2 = lagrange_char_poly_coeffs((1.0, 1.0, 1.0))
    assert a1 == pytest.approx(-6.0, rel=1e-15)
    assert a2 == 1.0
    a0, a1, a2 = lagrange_char_poly_coeffs((1.0, 2.0, 3.0))
    assert a1 == pytest.approx(-8.0, rel=1e-14)


def test_char_poly_roots_positive(rng):
    for _ in range(100):
        masses = tuple(10.0 ** rng.uniform(-1, 1, 3))
        a0, a1, a2 = lagrange_char_poly_coeffs(masses)
        disc = a1 * a1 - 4 * a0 * a2
        assert disc >= -1e-12 * a1 * a1
        roots = np.roots([a2, a1, a0])
        assert np.all(roots.real > 0)
        # roots must match the nonzero eigenvalues of the ratio matrix
        cfg = equilateral_config(masses)
        tm = assemble_twist_hessian(build_pair_table(cfg, PotentialParams(3.0)),
                                    [(0, 1), (0, 2), (1, 2)], normalized=True)
        w = np.sort(np.linalg.eigvalsh(tm.matrix / (9 / 4)))
        assert np.sort(roots.real) == pytest.approx(w[1:], rel=1e-9)


def test_morse_index_basics():
    assert morse_index(np.eye(2)) == (0, 0, 2)
    assert morse_index(np.diag([-1.0, 0.0, 5.0])) == (1, 1, 1)
    assert morse_index(np.zeros((3, 3))) == (0, 3, 0)


def test_signature_is_morse_index_of_the_eigenvalues(rng):
    mats = [np.eye(2), np.diag([-1.0, 0.0, 5.0]), np.zeros((3, 3)),
            np.diag([-2.0, 1e-9, -1e-7, 3.0])]      # one eigenvalue on each side of the cut
    for n in (1, 3, 5, 8):
        a = rng.normal(size=(n, n))
        mats.append(a + a.T)
    for M in mats:
        assert signature(np.linalg.eigvalsh(M)) == morse_index(M)


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 4, 10, 40])
def test_assembly_matches_column_loop(rng, newton, n):
    # every term's twist row built at once equals V filled column by column, bit for bit
    for _ in range(3):
        cfg = random_config(rng, n, min_sep=0.05)
        table = build_pair_table(cfg, newton)
        basis, _ = twist_span_basis(table)
        mixed = [TwistDirection("mixed", ((0.3, (2, 0)), (-1.7, (1, n - 1)), (0.5, (0, 2)))),
                 (n - 1, 0)]
        for dirs in (basis, mixed):
            for normalized in (False, True):
                assert_same_bits(assemble_twist_hessian(table, dirs, normalized).matrix,
                                 assemble_twist_hessian_loop(cfg, newton, dirs, normalized))


def test_kite_assembly_matches_column_loop(rng, newton):
    # KITE_BASIS combines two normalized twists in each of four directions
    for shape in sample_admissible_shapes(rng, 20):
        kite = build_kite(shape, newton)
        for normalized in (False, True):
            assert_same_bits(
                assemble_twist_hessian(build_pair_table(kite.config, newton), KITE_BASIS,
                                       normalized).matrix,
                assemble_twist_hessian_loop(kite.config, newton, KITE_BASIS, normalized))


def test_angle_table(rng, newton):
    cfg = random_config(rng, 4)
    t = build_pair_table(cfg, newton)
    for (i, j, k) in [(0, 1, 2), (2, 3, 1), (3, 0, 2)]:
        s, c = t.sin3(i, j, k), t.cos3(i, j, k)
        assert s * s + c * c == pytest.approx(1.0, abs=1e-14)
        assert abs(s) == pytest.approx(
            abs(t.lam(i, j, k)) / (t.r[i, j] * t.r[i, k]), rel=1e-14)
    c4 = t.cos4(0, 1, 2, 3)
    assert -1.0 - 1e-14 <= c4 <= 1.0 + 1e-14

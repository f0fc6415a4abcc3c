"""Independent oracles used to freeze and cross-check expected values.

These deliberately avoid the closed-form code paths they validate:
finite differences for derivatives, dense matrix sandwiches for twist
entries, blind bisection for the Dziobek scale, and SVD rank for span
dimensions.
"""

import math

import numpy as np

from twistcc.geometry import PlanarConfig, PotentialParams, f_value


def fd_gradient(config: PlanarConfig, params: PotentialParams, h=None) -> np.ndarray:
    pos = config.positions.copy()
    h = h if h is not None else 1e-6 * config.diameter()
    g = np.zeros_like(pos)
    for a in range(pos.size):
        e = np.zeros_like(pos)
        e[a] = h
        fp = f_value(PlanarConfig(pos + e, config.masses), params)
        fm = f_value(PlanarConfig(pos - e, config.masses), params)
        g[a] = (fp - fm) / (2 * h)
    return g


def fd_hessian(config: PlanarConfig, params: PotentialParams, h=None) -> np.ndarray:
    pos = config.positions.copy()
    h = h if h is not None else 1e-4 * config.diameter()
    d = pos.size
    H = np.zeros((d, d))

    def f_at(delta):
        return f_value(PlanarConfig(pos + delta, config.masses), params)

    for a in range(d):
        for b in range(a, d):
            ea = np.zeros(d)
            eb = np.zeros(d)
            ea[a] = h
            eb[b] = h
            val = (f_at(ea + eb) - f_at(ea - eb) - f_at(-ea + eb) + f_at(-ea - eb)) / (4 * h * h)
            H[a, b] = H[b, a] = val
    return H


def all_twist_rank(config: PlanarConfig, tol_factor: float = 1e-10) -> int:
    """Rank of the stacked twist vectors of every pair (SVD threshold)."""
    from twistcc.twist import twist_vector
    rows = [twist_vector(config, (i, j))
            for i in range(config.n) for j in range(i + 1, config.n)]
    M = np.vstack(rows)
    s = np.linalg.svd(M, compute_uv=False)
    return int((s > tol_factor * s[0]).sum())


def bisect_dziso(shape, params: PotentialParams, lo: float = 1e-4,
                 hi: float = 1.0, max_expand: int = 60) -> float:
    """Blind bisection root of S12*S34 - S13*S14 in x2."""
    from twistcc.kite import dziso_residual
    glo = dziso_residual(shape.z3, shape.z4, lo, params.A)
    ghi = dziso_residual(shape.z3, shape.z4, hi, params.A)
    n_exp = 0
    while glo * ghi > 0 and n_exp < max_expand:
        hi *= 2.0
        ghi = dziso_residual(shape.z3, shape.z4, hi, params.A)
        n_exp += 1
    if glo * ghi > 0:
        raise ValueError(f"no bracket for shape {shape}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        gm = dziso_residual(shape.z3, shape.z4, mid, params.A)
        if gm == 0.0:
            return mid
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_config(rng, n: int, *, collinear: bool = False,
                  min_sep: float = 0.2) -> PlanarConfig:
    """Well-separated random configuration with O(1) masses and size."""
    while True:
        if collinear:
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            offs = rng.uniform(-1, 1, n)
            pts = offs[:, None] * direction[None, :] + rng.normal(size=2)
        else:
            pts = rng.uniform(-1, 1, (n, 2))
        d = pts[:, None, :] - pts[None, :, :]
        r = np.hypot(d[..., 0], d[..., 1])
        iu = np.triu_indices(n, 1)
        if r[iu].min() > min_sep:
            break
    masses = 10.0 ** rng.uniform(-0.5, 0.5, n)
    return PlanarConfig.from_points(pts, masses)


def equilateral_config(masses=(1.0, 1.0, 1.0)) -> PlanarConfig:
    """Unit-side Lagrange triangle: a CC at the normalized scale for any masses."""
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    return PlanarConfig.from_points(pts, masses)


def square_config(masses=(1.0, 1.0, 3.0, 5.0), side: float = 1.0) -> PlanarConfig:
    h = side / 2.0
    pts = [(-h, -h), (h, -h), (h, h), (-h, h)]
    return PlanarConfig.from_points(pts, masses)


def index_map_cell(z3: float, z4: float, params: PotentialParams, margin: float):
    """(class, idx_Hs, idx_Ha, degenerate, error) of one map cell, from the
    5x5 V^T H V assembly of `kite_blocks` and per-cell `eigvalsh`."""
    from twistcc.kite import (INDEX_NOISE_RTOL, ROTATION_ZERO_RTOL, KiteError, KiteShape,
                              build_kite, classify_shape, kite_blocks)
    if z3 <= z4 or z4 <= 0.0:
        return "inadmissible", -1, -1, False, ""
    shape = KiteShape(z3, z4)
    klass = classify_shape(shape, params, margin)
    if klass not in ("tall", "wide"):
        return klass, -1, -1, False, ""
    try:
        blocks = kite_blocks(build_kite(shape, params), params)
    except KiteError as exc:
        return klass, -1, -1, False, f"{type(exc).__name__}: {exc}"
    ws = np.linalg.eigvalsh(blocks.h_s)
    wa = np.linalg.eigvalsh(blocks.h_a)
    aw = np.abs(wa)
    rot = int(np.argmin(aw))
    idx_ha = sum(1 for t, w in enumerate(wa) if t != rot and w < 0.0)
    spectral = max(aw.max(), np.abs(ws).max())
    smallest = min(np.abs(ws).min(), min(a for t, a in enumerate(aw) if t != rot))
    degenerate = (aw[rot] >= ROTATION_ZERO_RTOL * aw.max()
                  or smallest < INDEX_NOISE_RTOL * spectral)
    return klass, int((ws < 0.0).sum()), idx_ha, bool(degenerate), ""

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

"""Pair-rotation ("twist") tangent vectors and first-order residuals.

The twist vector v_ij rotates bodies i and j about their mutual center of
mass and leaves every other body fixed.  All v_ij are orthogonal to the
center-of-mass gradients and tangent to the level sets of the moment of
inertia, and they span the whole admissible tangent space: dimension
2n - 3 for non-collinear configurations, n - 1 for collinear ones.

Directional derivatives of f along the v_ij are the Laura-Andoyer
residuals; dotted with difference vectors they give the asymmetric
Albouy-Chenciner residuals.  Both vanish exactly at central
configurations.

Body indices are 0-based throughout the Python API.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import PairTable, PlanarConfig, PotentialParams, build_pair_table

# A triple is collinear when |lam| <= COLLINEAR_RTOL * diameter^2.
COLLINEAR_RTOL = 1e-10

TwistPair = tuple[int, int]


def canon_pair(n: int, pair) -> TwistPair:
    i, j = int(pair[0]), int(pair[1])
    if i == j:
        raise ValueError(f"twist pair needs two distinct bodies, got ({i}, {j})")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair ({i}, {j}) out of range for n = {n}")
    return (i, j) if i < j else (j, i)


def twist_vector(config: PlanarConfig, pair) -> np.ndarray:
    """v_ij: rotates the pair (i, j) about its own center of mass."""
    i, j = canon_pair(config.n, pair)
    m = config.masses
    p = config.points
    dx = p[i, 0] - p[j, 0]
    dy = p[i, 1] - p[j, 1]
    v = np.zeros(2 * config.n)
    v[2 * i] = m[j] * dy
    v[2 * i + 1] = -m[j] * dx
    v[2 * j] = -m[i] * dy
    v[2 * j + 1] = m[i] * dx
    return v


def normalized_twist(config: PlanarConfig, table: PairTable, pair) -> np.ndarray:
    """v_ij / (m_i * m_j * r_ij), the mass- and length-normalized twist."""
    i, j = canon_pair(config.n, pair)
    return twist_vector(config, (i, j)) / (config.masses[i] * config.masses[j] * table.r[i, j])


def _lam_points(p: np.ndarray, i: int, j: int, k: int) -> float:
    return ((p[i, 0] - p[j, 0]) * (p[i, 1] - p[k, 1])
            - (p[i, 0] - p[k, 0]) * (p[i, 1] - p[j, 1]))


def twist_span_basis(config: PlanarConfig) -> tuple[list[TwistPair], int]:
    """Independent twist pairs spanning the full twist space.

    Seeds the three pairs of the least-collinear triple, then adds two
    pairs per remaining body, switching anchor when a triple degenerates.
    Returns (pairs, dimension) with dimension 2n - 3, or n - 1 with basis
    {(0, j)} when all bodies are collinear.
    """
    p = config.points
    n = config.n
    thresh = COLLINEAR_RTOL * config.diameter() ** 2

    best = None
    best_lam = -1.0
    for a, b, c in combinations(range(n), 3):
        val = abs(_lam_points(p, a, b, c))
        if val > best_lam:
            best_lam = val
            best = (a, b, c)

    if best is None or best_lam <= thresh:
        # all collinear (or n == 2): v_0j for j > 0 are independent
        return [(0, j) for j in range(1, n)], n - 1

    a, b, c = best
    pairs: list[TwistPair] = [(a, b), (a, c), (b, c)]
    pairs = [tuple(sorted(q)) for q in pairs]
    for k in range(n):
        if k in (a, b, c):
            continue
        pairs.append(tuple(sorted((a, k))))
        if abs(_lam_points(p, a, b, k)) > thresh:
            pairs.append(tuple(sorted((b, k))))
        else:
            pairs.append(tuple(sorted((c, k))))
    return pairs, 2 * n - 3


def laura_andoyer(table: PairTable, masses, pair) -> float:
    """Directional derivative of f along v_ij.

    Equals m_i*m_j * sum_k m_k (R_ik - R_jk) lam_ijk and vanishes exactly
    at central configurations, at any scale.
    """
    i, j = canon_pair(table.n, pair)
    m = np.asarray(masses, dtype=float)
    lam = table.dx[i, j] * table.dy[i] - table.dx[i] * table.dy[i, j]
    return float(m[i] * m[j] * np.dot(m * (table.R[i] - table.R[j]), lam))


def _residual_norm(table: PairTable, masses: np.ndarray) -> float:
    return float(masses.sum()) ** 2 * float(table.r.max()) ** 2


def max_laura_andoyer(table: PairTable, masses) -> float:
    """Largest |Laura-Andoyer residual| over all pairs, normalized by
    (sum m)^2 * diameter^2 like `CCResidual.max_la`."""
    m = np.asarray(masses, dtype=float)
    worst = max((abs(laura_andoyer(table, m, pair))
                 for pair in combinations(range(table.n), 2)), default=0.0)
    return worst / _residual_norm(table, m)


def albouy_chenciner_asym(table: PairTable, masses, i: int, j: int) -> float:
    """b_ij = sum_{k != i} m_k S_ik A_ijk; vanishes at central configurations."""
    if i == j:
        raise ValueError("asymmetric residual needs i != j")
    m = np.asarray(masses, dtype=float)
    a = table.r[i, j] ** 2 + table.r[i] ** 2 - table.r[j] ** 2
    return float(np.dot(m * table.S[i], a))


def albouy_chenciner_sym(table: PairTable, masses, i: int, j: int) -> float:
    """g_ij = b_ij + b_ji, the symmetric Albouy-Chenciner residual."""
    return albouy_chenciner_asym(table, masses, i, j) + albouy_chenciner_asym(table, masses, j, i)


@dataclass(frozen=True)
class CCResidual:
    """Aggregate first-order residuals, normalized by (sum m)^2 * diameter^2."""

    max_la: float
    max_ac: float
    is_cc: bool


def cc_residual(config: PlanarConfig, params: PotentialParams,
                tol: float = 1e-10) -> CCResidual:
    table = build_pair_table(config, params)
    m = config.masses
    max_la = max_laura_andoyer(table, m)
    max_ac = max(abs(albouy_chenciner_asym(table, m, i, j))
                 for i in range(config.n) for j in range(config.n) if i != j)
    max_ac /= _residual_norm(table, m)
    return CCResidual(max_la, max_ac, bool(max_la < tol and max_ac < tol))

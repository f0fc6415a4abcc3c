"""Pair-rotation ("twist") tangent vectors and first-order residuals.

The twist vector v_ij rotates bodies i and j about their mutual center of
mass and leaves every other body fixed.  All v_ij are orthogonal to the
center-of-mass gradients and tangent to the level sets of the moment of
inertia, and they span the whole admissible tangent space: dimension
2n - 3 for non-collinear configurations, n - 1 for collinear ones.

Directional derivatives of f along the v_ij are the Laura-Andoyer
residuals; dotted with difference vectors they give the asymmetric
Albouy-Chenciner residuals.  Both vanish exactly at central
configurations.  Since v_ij moves only bodies i and j, the Laura-Andoyer
residuals and the span basis cost O(n^2); so do the Albouy-Chenciner
residuals, whose row of a body i reads one weighted sum of its pair
differences.

Body indices are 0-based throughout the Python API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (PairTable, PlanarConfig, PotentialParams, _gradient_f,
                       _pair_indices, build_pair_table)

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
    p = config.points
    return _twist_rows(config.masses, np.array([i]), np.array([j]),
                       p[i, 0] - p[j, 0], p[i, 1] - p[j, 1])[0]


def _twist_rows(masses: np.ndarray, i: np.ndarray, j: np.ndarray, dx, dy) -> np.ndarray:
    """Twist vectors v_ij of the pairs (i[r], j[r]) as the rows of an array;
    dx, dy are the pairs' coordinate differences x_i - x_j, y_i - y_j."""
    m = masses
    rows = np.arange(i.size)
    v = np.zeros((i.size, 2 * m.size))
    v[rows, 2 * i] = m[j] * dy
    v[rows, 2 * i + 1] = -m[j] * dx
    v[rows, 2 * j] = -m[i] * dy
    v[rows, 2 * j + 1] = m[i] * dx
    return v


def normalized_twist(table: PairTable, pair) -> np.ndarray:
    """v_ij / (m_i * m_j * r_ij), the mass- and length-normalized twist."""
    i, j = canon_pair(table.n, pair)
    m = table.masses
    v = _twist_rows(m, np.array([i]), np.array([j]), table.dx[i, j], table.dy[i, j])[0]
    return v / (m[i] * m[j] * table.r[i, j])


def _pair_row(n: int, i, j):
    """Row of the pair i < j in `np.triu_indices(n, 1)` order."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def twist_span_basis(table: PairTable) -> tuple[list[TwistPair], int]:
    """Independent twist pairs spanning the full twist space of the table's
    configuration.

    Seeds the pairs of the triple (a, b, c): the farthest pair a < b and
    the body c farthest from its line, by the one row |lam_abk| over k.
    Then adds (a, k) and (b, k) per remaining body k, or (c, k) in place of
    (b, k) when k lies on the line ab.  Returns (pairs, dimension) with
    dimension 2n - 3, or n - 1 with basis {(0, j)} when all bodies are
    collinear: then every body lies within the D x 2h box around the
    segment ab, so every triple has |lam| <= 2 * COLLINEAR_RTOL * D^2.
    """
    n = table.n
    thresh = COLLINEAR_RTOL * float(table.r.max()) ** 2
    # argmax takes the first largest distance in row-major order, so a < b
    a, b = divmod(int(np.argmax(table.r)), n)
    areas = np.abs(table.lam(a, b, np.arange(n)))
    c = int(np.argmax(areas))
    if areas[c] <= thresh:
        # all collinear (or n == 2): v_0j for j > 0 are independent
        return [(0, j) for j in range(1, n)], n - 1

    pairs: list[TwistPair] = [(a, b), (min(a, c), max(a, c)), (min(b, c), max(b, c))]
    for k in range(n):
        if k not in (a, b, c):
            other = b if areas[k] > thresh else c
            pairs += [(min(a, k), max(a, k)), (min(other, k), max(other, k))]
    return pairs, 2 * n - 3


def laura_andoyer_pairs(table: PairTable, g: np.ndarray | None = None) -> np.ndarray:
    """Laura-Andoyer residuals g . v_ij of every pair i < j, g the gradient
    of f (`_gradient_f(table)`, computed unless given), in
    `np.triu_indices(n, 1)` order."""
    m = table.masses
    i, j = _pair_indices(table.n)
    g = (_gradient_f(table) if g is None else g).reshape(-1, 2)
    dx, dy = table.dx[i, j], table.dy[i, j]
    return m[j] * (dy * g[i, 0] - dx * g[i, 1]) - m[i] * (dy * g[j, 0] - dx * g[j, 1])


def laura_andoyer(table: PairTable, pair) -> float:
    """Directional derivative of f along v_ij.

    Equals m_i*m_j * sum_k m_k (R_ik - R_jk) lam_ijk and vanishes exactly
    at central configurations, at any scale.  The value is the pair's entry
    of `laura_andoyer_pairs`.
    """
    i, j = canon_pair(table.n, pair)
    return float(laura_andoyer_pairs(table)[_pair_row(table.n, i, j)])


def _residual_norm(table: PairTable) -> float:
    return float(table.masses.sum()) ** 2 * float(table.r.max()) ** 2


def max_laura_andoyer(table: PairTable, g: np.ndarray | None = None) -> float:
    """Largest |Laura-Andoyer residual| over all pairs, normalized by
    (sum m)^2 * diameter^2 like `CCResidual.max_la`; g as in
    `laura_andoyer_pairs`."""
    return float(np.abs(laura_andoyer_pairs(table, g)).max()) / _residual_norm(table)


def _albouy_chenciner_rows(table: PairTable, i) -> np.ndarray:
    """b_ij over every j for the body i (an index, or a slice of bodies).

    A_ijk = 2 (x_j - x_i) . (x_k - x_i), so b_ij = 2 (x_i - x_j) . G_i with
    G_i = sum_k m_k S_ik (x_i - x_k): O(n) per row instead of O(n^2).
    """
    w = table.masses * table.S[i]
    dx, dy = table.dx[i], table.dy[i]
    gx = (w * dx).sum(axis=-1, keepdims=True)
    gy = (w * dy).sum(axis=-1, keepdims=True)
    # + 0.0 turns an exact -0.0 into 0.0, which the triple sum gives
    return 2.0 * (dx * gx + dy * gy) + 0.0


def albouy_chenciner_pairs(table: PairTable) -> np.ndarray:
    """n x n array of every b_ij (`albouy_chenciner_asym`), zero on the diagonal."""
    b = _albouy_chenciner_rows(table, slice(None))
    np.fill_diagonal(b, 0.0)
    return b


def albouy_chenciner_asym(table: PairTable, i: int, j: int) -> float:
    """b_ij = sum_{k != i} m_k S_ik A_ijk; vanishes at central configurations.

    The value is entry (i, j) of `albouy_chenciner_pairs`.
    """
    if i == j:
        raise ValueError("asymmetric residual needs i != j")
    return float(_albouy_chenciner_rows(table, i)[j])


def albouy_chenciner_sym(table: PairTable, i: int, j: int) -> float:
    """g_ij = b_ij + b_ji, the symmetric Albouy-Chenciner residual."""
    return albouy_chenciner_asym(table, i, j) + albouy_chenciner_asym(table, j, i)


@dataclass(frozen=True)
class CCResidual:
    """Aggregate first-order residuals, normalized by (sum m)^2 * diameter^2.

    `la` (`laura_andoyer_pairs`) and `b` (`albouy_chenciner_pairs`) are the
    unnormalized per-pair values the maxima are taken over.
    """

    max_la: float
    max_ac: float
    is_cc: bool
    la: np.ndarray = field(repr=False, compare=False)
    b: np.ndarray = field(repr=False, compare=False)


def cc_residual(config: PlanarConfig, params: PotentialParams,
                tol: float = 1e-10) -> CCResidual:
    table = build_pair_table(config, params)
    la = laura_andoyer_pairs(table)
    b = albouy_chenciner_pairs(table)
    norm = _residual_norm(table)
    max_la = float(np.abs(la).max()) / norm
    max_ac = float(np.abs(b).max()) / norm
    return CCResidual(max_la, max_ac, bool(max_la < tol and max_ac < tol), la, b)

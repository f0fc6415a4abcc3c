"""Hessian of f in Cartesian and twist coordinates, and Morse indices.

The twist-basis entries come in three kinds, depending on how many body
indices the two pairs share: a diagonal entry v_ij^T H v_ij, a
shared-vertex entry v_ij^T H v_ik, and a disjoint entry v_ij^T H v_kl.
Each kind has one closed form, for the normalized vectors
v_ij / (m_i m_j r_ij) (`_norm_diag`, `_norm_share`, `_norm_disjoint`),
reached through `generic_entry`, which maps a pair of pairs to its kind
and index order.  A raw entry, for the vectors v_ij themselves, is the
normalized one times (m_i m_j r_ij)(m_k m_l r_kl) (`twist_hessian_entry`);
the sine-like factors lam_abc/(r_ab*r_ac) are kept *signed* so that this
holds for every orientation.

Every function here that reads pair data takes one `geometry.PairTable`,
which carries the masses and A.  The closed forms are generic over the
scalar type: they only use +, -, *, /, ** on values pulled from the table,
whose r, R, S are indexed by [i, j], whose sin3, cos3 and cos4 are
written once on dx, dy and r, and whose mass ratios m_k/m_i (`ratio`) and
row sums sum_{l != i} (m_l/m_i) S_il (`row_sum`) are written once on the
masses and S; sin3, the ratios and the row sums are computed once per
table.  They read no T.  So `kite.KiteTable`, the
PairTable that is a kite's one record, in floats, numpy arrays or
intervals, feeds them too: they are the only closed forms of both kite
blocks (`kite.hs_explicit` for H_s, `kite.ha_explicit` for H_a), in the
float kite map and in interval certification.  Float matrices over twist
directions are V^T H V instead, H the Cartesian Hessian and V the twist
vectors as columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PairTable, PlanarConfig, PotentialParams, build_pair_table
from .twist import TwistPair, _twist_rows, canon_pair

# Eigenvalues below this fraction of the spectral radius count as zero.
MORSE_ZERO_RTOL = 1e-8

__all__ = [
    "cartesian_hessian", "twist_hessian_entry",
    "TwistDirection", "TwistMatrix", "assemble_twist_hessian",
    "lagrange_char_poly_coeffs", "morse_index", "signature",
]


def cartesian_hessian(config: PlanarConfig, params: PotentialParams) -> np.ndarray:
    """2n x 2n Hessian of f over flat coordinates.

    Off-diagonal blocks are m_i m_k (S_ik Id - A T_ik q_ik q_ik^T); the
    diagonal blocks are the negated row sums, which makes the translation
    kernel exact by construction.
    """
    return _cartesian_hessian(build_pair_table(config, params))


def _cartesian_hessian(t: PairTable) -> np.ndarray:
    A = t.A
    n = t.n
    m = t.masses
    mm = m[:, None] * m[None, :]
    hxx = mm * (t.S - A * t.dx ** 2 * t.T)
    hyy = mm * (t.S - A * t.dy ** 2 * t.T)
    hxy = -mm * A * t.T * t.dx * t.dy
    for blk in (hxx, hyy, hxy):
        np.fill_diagonal(blk, 0.0)
        np.fill_diagonal(blk, -blk.sum(axis=1))
    H = np.empty((2 * n, 2 * n))
    H[0::2, 0::2] = hxx
    H[1::2, 1::2] = hyy
    H[0::2, 1::2] = hxy
    H[1::2, 0::2] = hxy.T
    return H


# --- generic twist-basis entries ---------------------------------------------

def _norm_diag(t, i, j):
    acc = -(2 + t.ratio(i, j) + t.ratio(j, i)) * t.S[i, j]
    for k in range(len(t.masses)):
        if k == i or k == j:
            continue
        ki, kj = t.ratio(k, i), t.ratio(k, j)
        acc = acc + (-ki * t.S[i, k] - kj * t.S[j, k]
                     + t.A * (ki * t.R[i, k] * t.sin3(i, j, k) ** 2
                            + kj * t.R[j, k] * t.sin3(j, i, k) ** 2))
    return acc


def _norm_share(t, i, j, k):
    acc = t.cos3(i, j, k) * (t.S[k, j] - t.S[i, j] - t.S[i, k] - t.row_sum(i))
    acc = acc - t.A * t.R[j, k] * t.sin3(j, i, k) * t.sin3(k, j, i)
    for l in range(len(t.masses)):
        if l in (i, j, k):
            continue
        acc = acc + t.A * t.ratio(l, i) * t.R[i, l] * t.sin3(i, j, l) * t.sin3(i, k, l)
    return acc


def _norm_disjoint(t, i, j, k, l):
    acc = -t.A * (t.R[i, k] * t.sin3(i, k, j) * t.sin3(k, l, i)
                + t.R[j, k] * t.sin3(j, k, i) * t.sin3(k, l, j)
                + t.R[i, l] * t.sin3(i, l, j) * t.sin3(l, k, i)
                + t.R[j, l] * t.sin3(j, l, i) * t.sin3(l, k, j))
    return acc + t.cos4(i, j, k, l) * (t.R[i, k] + t.R[j, l] - t.R[j, k] - t.R[i, l])


def generic_entry(t, p: TwistPair, q: TwistPair):
    """The normalized twist-basis Hessian entry of the pairs p and q over the
    table t: the closed form of their kind (diagonal, shared vertex or
    disjoint), with the shared body first in a shared-vertex entry."""
    i, j = p
    k, l = q
    shared = {i, j} & {k, l}
    if len(shared) == 2:
        return _norm_diag(t, i, j)
    if len(shared) == 1:
        s = shared.pop()
        return _norm_share(t, s, j if i == s else i, l if k == s else k)
    return _norm_disjoint(t, i, j, k, l)


def twist_hessian_entry(table: PairTable, pair1, pair2, normalized: bool = False):
    """v_p^T H v_q for the twist vectors of pair1 and pair2, or for the
    normalized vectors v_ij / (m_i m_j r_ij); any pair kind, at the table's
    masses and exponent.  The raw entry is the normalized one times
    (m_i m_j r_ij)(m_k m_l r_kl).  A float, or an interval on an interval
    table (`kite.KiteTable` of intervals)."""
    p = canon_pair(table.n, pair1)
    q = canon_pair(table.n, pair2)
    value = generic_entry(table, p, q)
    if not normalized:
        (i, j), (k, l) = p, q
        m = table.masses
        value = value * (m[i] * m[j] * table.distance(i, j)) * (m[k] * m[l] * table.distance(k, l))
    return value if hasattr(value, "lo") else float(value)


# --- assembled matrices --------------------------------------------------------

@dataclass(frozen=True)
class TwistDirection:
    """A named linear combination of twist pairs."""

    name: str
    terms: tuple[tuple[float, TwistPair], ...]

    @classmethod
    def from_pair(cls, pair: TwistPair) -> "TwistDirection":
        i, j = pair
        return cls(f"v{i}-{j}", ((1.0, (i, j)),))


@dataclass(frozen=True, eq=False)
class TwistMatrix:
    """Symmetric Hessian matrix over a list of twist directions."""

    matrix: np.ndarray
    directions: tuple[TwistDirection, ...]


def _as_direction(d) -> TwistDirection:
    if isinstance(d, TwistDirection):
        return d
    return TwistDirection.from_pair(tuple(d))


def assemble_twist_hessian(table: PairTable, directions,
                           normalized: bool = False) -> TwistMatrix:
    """V^T H V over the table, H the Cartesian Hessian and the columns of V
    the (raw or normalized) twist vectors combined as in `directions`; made
    exactly symmetric.  Equals the closed-form entries' expansion up to rounding.

    The twist vectors of every term are built at once, one row each; each
    column of V sums its direction's terms in order."""
    dirs = tuple(_as_direction(d) for d in directions)
    m = table.masses
    terms = [(a, c, canon_pair(table.n, p)) for a, d in enumerate(dirs) for c, p in d.terms]
    cols = np.array([a for a, _, _ in terms], dtype=np.intp)
    coef = np.array([c for _, c, _ in terms], dtype=float)
    i, j = np.array([p for _, _, p in terms], dtype=np.intp).reshape(-1, 2).T
    rows = _twist_rows(m, i, j, table.dx[i, j], table.dy[i, j])
    if normalized:
        rows /= (m[i] * m[j] * table.r[i, j])[:, None]
    # V must be C-ordered (2n, k): a (k, 2n) build, transposed, sends the product
    # below down another BLAS path, which changes the last digits
    V = np.zeros((2 * table.n, len(dirs)))
    np.add.at(V.T, cols, coef[:, None] * rows)
    M = V.T @ _cartesian_hessian(table) @ V
    return TwistMatrix(0.5 * (M + M.T), dirs)


def lagrange_char_poly_coeffs(masses) -> tuple[float, float, float]:
    """(a0, a1, a2) of the quadratic factor lam^2 + a1*lam + a0 of the
    3-body equilateral twist Hessian, after removing the 3A/4 scale and
    the rotational zero root.  a2 is 1 by normalization and
    a1 = -(sum of all six mass ratios), so both roots are positive."""
    m1, m2, m3 = (float(v) for v in masses)
    if min(m1, m2, m3) <= 0:
        raise ValueError("masses must be positive")
    B = np.array([
        [m3 / m1 + m3 / m2, -1.0, -1.0],
        [-1.0, m2 / m1 + m2 / m3, -1.0],
        [-1.0, -1.0, m1 / m2 + m1 / m3],
    ])
    a2 = 1.0
    a1 = -float(np.trace(B))
    a0 = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            a0 += B[i, i] * B[j, j] - B[i, j] * B[j, i]
    return (float(a0), a1, a2)


def signature(w) -> tuple[int, int, int]:
    """(n_neg, n_zero, n_pos) counts of the eigenvalues w of a symmetric matrix.

    Eigenvalues with |lam| < MORSE_ZERO_RTOL * max|lam| count as zero.
    """
    w = np.asarray(w, dtype=float)
    top = float(np.abs(w).max()) if w.size else 0.0
    if top == 0.0:
        return (0, int(w.size), 0)
    thr = MORSE_ZERO_RTOL * top
    n_zero = int((np.abs(w) < thr).sum())
    n_neg = int((w <= -thr).sum())
    return (n_neg, n_zero, int(w.size) - n_neg - n_zero)


def morse_index(matrix) -> tuple[int, int, int]:
    """`signature` of a symmetric matrix's eigenvalues."""
    M = matrix.matrix if isinstance(matrix, TwistMatrix) else np.asarray(matrix, dtype=float)
    return signature(np.linalg.eigvalsh(M))

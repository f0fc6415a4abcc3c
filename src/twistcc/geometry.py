"""Planar n-body configurations with homogeneous pair potentials.

Everything downstream is built on the function

    f = M*I/2 + U/(A-2),

where M is the total mass, I the moment of inertia about the center of
mass, and U the pair potential sum(m_i*m_j*r_ij^(2-A), i<j).  Critical
points of f are the planar central configurations, at the size
normalization U = M*I.  Newtonian gravity is A = 3.  f exists only for
A > 2, and `PotentialParams` admits no other exponent, so nothing built
on it checks A again.  A `PairTable` carries its configuration's masses
and A, so every reader of pair data takes the table alone.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

# Pairs closer than this fraction of the configuration diameter are
# treated as coincident and rejected.
COINCIDENT_RTOL = 1e-13


class GeometryError(ValueError):
    """Invalid geometric input."""


class CoincidentPointsError(GeometryError):
    """Two bodies closer than the coincidence tolerance."""


class ExponentRangeError(ValueError):
    """Potential exponent outside the supported range."""


@dataclass(frozen=True)
class PotentialParams:
    """Homogeneity exponent A of the pair potential r^(2-A): a finite A > 2.

    f = M*I/2 + U/(A-2) needs A > 2 (the A = 2 logarithmic potential is
    out of scope), so construction refuses any other A with an
    ExponentRangeError.
    """

    A: float = 3.0

    def __post_init__(self):
        if not (math.isfinite(self.A) and self.A > 2.0):
            raise ExponentRangeError(
                f"f = M*I/2 + U/(A-2) requires A > 2 and finite, got {self.A!r}")


@dataclass(frozen=True, eq=False)
class PlanarConfig:
    """n bodies in the plane: flat coordinates (x1, y1, ..., xn, yn) and masses.

    `pair_distances` holds the distances r_ij of the pairs i < j in
    `np.triu_indices(n, 1)` order, computed once by the coincidence check
    and read-only like the positions.
    """

    positions: np.ndarray
    masses: np.ndarray
    pair_distances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float).reshape(-1)
        m = np.array(self.masses, dtype=float).reshape(-1)
        if m.size < 2:
            raise GeometryError(f"need at least 2 bodies, got {m.size}")
        if pos.size != 2 * m.size:
            raise GeometryError(
                f"positions length {pos.size} does not match 2*n = {2 * m.size}")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(m)):
            raise GeometryError("positions and masses must be finite")
        if np.any(m <= 0.0):
            raise GeometryError("all masses must be positive")
        r = _pair_distances(pos.reshape(1, -1, 2))
        if _coincident(r)[0]:
            k = int(np.argmin(r[0]))
            iu = _pair_indices(m.size)
            raise CoincidentPointsError(
                f"bodies {iu[0][k]} and {iu[1][k]} coincide (separation {r[0, k]:.3e}, "
                f"diameter {r[0].max():.3e}); indices are 0-based")
        r = r[0]
        for a in (pos, m, r):
            a.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "pair_distances", r)

    @classmethod
    def from_points(cls, points, masses) -> "PlanarConfig":
        return cls(np.asarray(points, dtype=float).reshape(-1), masses)

    @property
    def n(self) -> int:
        return self.masses.size

    @property
    def points(self) -> np.ndarray:
        """Positions as an (n, 2) array."""
        return self.positions.reshape(-1, 2)

    def diameter(self) -> float:
        return float(self.pair_distances.max())

    def with_positions(self, positions) -> "PlanarConfig":
        return PlanarConfig(np.asarray(positions, dtype=float).reshape(-1), self.masses)

    @classmethod
    def _from_valid_row(cls, positions: np.ndarray, masses: np.ndarray,
                        pair_r: np.ndarray) -> "PlanarConfig":
        """The configuration of a row that `_row_check` found valid, built
        without running `__post_init__` again.

        The solver calls this on descent's accepted rows and on every flow
        step, with the row's pair distances and the masses of an already
        validated configuration.  That is safe because the mask is
        `__post_init__`'s own check on the same distances, and the masses
        passed their checks when that configuration was built.  Positions
        and distances are stored as read-only contiguous copies, so the
        result equals `PlanarConfig(positions, masses)` field for field.
        """
        self = object.__new__(cls)
        pos = np.array(positions, dtype=float)
        r = np.array(pair_r, dtype=float)
        for a in (pos, r):
            a.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "pair_distances", r)
        return self


@lru_cache(maxsize=64)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of the pairs i < j among n bodies."""
    iu = np.triu_indices(n, 1)
    for a in iu:
        a.setflags(write=False)
    return iu


# --- stacked rows -------------------------------------------------------------
#
# The helpers below take K stacked point sets of shape (K, n, 2), or their pair
# distances of shape (K, P), and return one value per row.  A configuration is
# the case K = 1, so `PlanarConfig` validation, `f_value` and the solver's
# batched line search run the same arithmetic.  Every sum runs over the last
# axis of a C-contiguous array, where numpy sums each row in the order in
# which it sums that row alone.

def _pair_distances(points: np.ndarray) -> np.ndarray:
    """(K, P) distances of the pairs i < j."""
    i, j = _pair_indices(points.shape[1])
    d = points[:, i] - points[:, j]
    # hypot of the fancy-indexed differences comes out F-ordered
    return np.ascontiguousarray(np.hypot(d[..., 0], d[..., 1]))


def _coincident(pair_r: np.ndarray) -> np.ndarray:
    """Rows whose closest pair is within COINCIDENT_RTOL of their diameter."""
    diam = pair_r.max(axis=1)
    return (pair_r.min(axis=1) <= COINCIDENT_RTOL * diam) | (diam == 0.0)


def _center(points: np.ndarray, masses: np.ndarray) -> np.ndarray:
    return (masses[:, None] * points).sum(axis=1) / masses.sum()


def _inertia(points: np.ndarray, masses: np.ndarray) -> np.ndarray:
    q = points - _center(points, masses)[:, None, :]
    return (masses * (q ** 2).sum(axis=2)).sum(axis=1)


def _potential(pair_r: np.ndarray, masses: np.ndarray, A: float) -> np.ndarray:
    i, j = _pair_indices(masses.size)
    return (masses[i] * masses[j] * pair_r ** (2.0 - A)).sum(axis=1)


def _f(inertia: np.ndarray, potential: np.ndarray, masses: np.ndarray,
       A: float) -> np.ndarray:
    """f from the rows' I and U."""
    return float(masses.sum()) * inertia / 2.0 + potential / (A - 2.0)


def _row_check(positions: np.ndarray):
    """(valid, pair_r) for K stacked rows of flat positions, shape (K, 2n).

    A row is valid when it would make a `PlanarConfig`: finite, with no
    coincident pair.  For a valid row the (K, P) pair distances are its
    configuration's `pair_distances` bit for bit.
    """
    with np.errstate(all="ignore"):
        pair_r = _pair_distances(positions.reshape(positions.shape[0], -1, 2))
        return np.isfinite(positions).all(axis=1) & ~_coincident(pair_r), pair_r


def _row_pass(positions: np.ndarray, masses: np.ndarray, A: float):
    """(valid, f, pair_r, I, U) for K stacked rows of flat positions, shape (K, 2n).

    `valid` and `pair_r` are `_row_check`'s.  For a valid row, f, I and U
    equal `f_value`, `moment_of_inertia` and `potential_u` of that
    configuration at exponent A bit for bit; for an invalid row they are
    meaningless.
    """
    points = positions.reshape(positions.shape[0], -1, 2)
    valid, pair_r = _row_check(positions)
    with np.errstate(all="ignore"):
        inertia = _inertia(points, masses)
        potential = _potential(pair_r, masses, A)
        f = _f(inertia, potential, masses, A)
    return valid, f, pair_r, inertia, potential


class PairTable:
    """Cached pairwise data for one configuration, with its `masses` and exponent `A`.

    Arrays (all n x n, zero on the diagonal):
      r  — mutual distances
      R  — r^(-A)
      S  — r^(-A) - 1
      T  — r^(-A-2)
      dx, dy — coordinate differences x_i - x_j, y_i - y_j

    Triple/quadruple accessors, in field arithmetic on dx, dy and r, so
    `kite.KiteTable`, whose dx, dy, r, R and S are dicts over the ordered
    pairs, runs them on floats, numpy arrays and intervals too:
      lam(i, j, k)     — q_ij ^ q_ik, twice the signed area of (q_i, q_j, q_k)
      a_triple(i,j,k)  — r_ij^2 + r_ik^2 - r_jk^2
      dot(i, j, k, l)  — q_ij . q_kl
      sin3(i, j, k)    — lam_ijk/(r_ij*r_ik), signed sine of the angle at q_i,
                         computed once per ordered triple and kept on the table
      cos3(i, j, k)    — q_ij . q_ik/(r_ij*r_ik), its cosine
      cos4(i, j, k, l) — q_ij . q_kl/(r_ij*r_kl)

    distance(i, j)     — r_ij at the configuration's scale, r[i, j] here

    Mass accessors, also generic over the scalar type:
      ratio(k, i)      — m_k/m_i
      row_sum(i)       — sum over l != i, in order of l, of ratio(l, i)*S_il,
                         from its first term

    sin3, ratio and row_sum are computed once per index tuple and kept in
    the table's `memo`.
    """

    __slots__ = ("n", "A", "masses", "dx", "dy", "r", "R", "S", "T", "zero", "memo")

    def __init__(self, config: PlanarConfig, params: PotentialParams):
        p = config.points
        n = config.n
        d = p[:, None, :] - p[None, :, :]
        dx, dy = d[..., 0], d[..., 1]
        r = np.hypot(dx, dy)  # no coincident pair: `PlanarConfig` rejected those
        rs = r + np.eye(n)  # keep the diagonal out of the power's domain
        R = rs ** (-params.A)
        T = rs ** (-params.A - 2.0)
        S = R - 1.0
        for a in (R, S, T):
            np.fill_diagonal(a, 0.0)
        self.n = n
        self.A = params.A
        self.masses = config.masses
        self.dx, self.dy, self.r, self.R, self.S, self.T = dx, dy, r, R, S, T
        self.zero = 0.0
        self.memo = {}

    def lam(self, i: int, j: int, k: int) -> float:
        return self.dx[i, j] * self.dy[i, k] - self.dx[i, k] * self.dy[i, j]

    def a_triple(self, i: int, j: int, k: int) -> float:
        return self.r[i, j] ** 2 + self.r[i, k] ** 2 - self.r[j, k] ** 2

    def dot(self, i: int, j: int, k: int, l: int) -> float:
        return self.dx[i, j] * self.dx[k, l] + self.dy[i, j] * self.dy[k, l]

    def sin3(self, i: int, j: int, k: int) -> float:
        key = ("sin3", i, j, k)
        s = self.memo.get(key)
        if s is None:
            s = self.memo[key] = self.lam(i, j, k) / (self.r[i, j] * self.r[i, k])
        return s

    def cos3(self, i: int, j: int, k: int) -> float:
        return self.dot(i, j, i, k) / (self.r[i, j] * self.r[i, k])

    def cos4(self, i: int, j: int, k: int, l: int) -> float:
        return self.dot(i, j, k, l) / (self.r[i, j] * self.r[k, l])

    def distance(self, i: int, j: int) -> float:
        return self.r[i, j]

    def ratio(self, k: int, i: int) -> float:
        key = ("ratio", k, i)
        q = self.memo.get(key)
        if q is None:
            q = self.memo[key] = self.masses[k] / self.masses[i]
        return q

    def row_sum(self, i: int) -> float:
        key = ("row_sum", i)
        s = self.memo.get(key)
        if s is None:
            # from the first term: on intervals, no rounded pass adds it to zero
            s = self.memo[key] = reduce(operator.add, (self.ratio(l, i) * self.S[i, l]
                                                       for l in range(len(self.masses)) if l != i))
        return s


def build_pair_table(config: PlanarConfig, params: PotentialParams) -> PairTable:
    return PairTable(config, params)


def center_of_mass(config: PlanarConfig) -> np.ndarray:
    return _center(config.points[None], config.masses)[0]


def moment_of_inertia(config: PlanarConfig) -> float:
    return float(_inertia(config.points[None], config.masses)[0])


def potential_u(config: PlanarConfig, params: PotentialParams) -> float:
    return float(_potential(config.pair_distances[None], config.masses, params.A)[0])


def f_value(config: PlanarConfig, params: PotentialParams) -> float:
    m = config.masses
    return float(_f(_inertia(config.points[None], m),
                    _potential(config.pair_distances[None], m, params.A), m, params.A)[0])


def euler_residual(config: PlanarConfig, params: PotentialParams) -> float:
    """U - M*I; vanishes exactly at critical points of f (Euler's relation)."""
    return potential_u(config, params) - float(config.masses.sum()) * moment_of_inertia(config)


def cartesian_gradient_f(config: PlanarConfig, params: PotentialParams) -> np.ndarray:
    """Gradient of f in flat coordinates: block i is -m_i * sum_k m_k S_ik q_ik."""
    return _gradient_f(build_pair_table(config, params))


def _gradient_f(table: PairTable) -> np.ndarray:
    """`cartesian_gradient_f` from a pair table the caller already has."""
    m = table.masses
    w = (m[:, None] * m[None, :]) * table.S
    g = np.empty(2 * table.n)
    g[0::2] = -(w * table.dx).sum(axis=1)
    g[1::2] = -(w * table.dy).sum(axis=1)
    return g


# --- configuration file format ----------------------------------------------
#
# JSON document {"A": number, "masses": [m1..mn], "positions": [[x1,y1],..]}.
# Every value must be a JSON number: a string, list or true/false is refused,
# not converted.  Floats are written with repr, which round-trips IEEE-754
# doubles exactly.

def _numbers(v, length=None) -> bool:
    """Whether v is a list of JSON numbers that fit a float, `length` of them
    if given (json reads true and false as bool, a subclass of int)."""
    return isinstance(v, list) and length in (None, len(v)) and all(
        type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max) for x in v)


def config_from_json(text: str) -> tuple[PlanarConfig, PotentialParams]:
    data = json.loads(text)
    data = data if isinstance(data, dict) else {}
    A, masses, positions = data.get("A"), data.get("masses"), data.get("positions")
    for name, ok, want in (
            ("A", _numbers([A]), "a number"),
            ("masses", _numbers(masses), "a list of numbers"),
            ("positions", isinstance(positions, list)
             and all(_numbers(p, 2) for p in positions), "a list of [x, y] numbers")):
        if not ok:
            raise GeometryError(f"malformed configuration document: {name!r} must be {want}")
    if len(positions) != len(masses):
        raise GeometryError(f"{len(positions)} positions for {len(masses)} masses")
    return PlanarConfig.from_points(positions, masses), PotentialParams(float(A))


def config_to_json(config: PlanarConfig, params: PotentialParams) -> str:
    doc = {
        "A": params.A,
        "masses": [float(v) for v in config.masses],
        "positions": [[float(x), float(y)] for x, y in config.points],
    }
    return json.dumps(doc, indent=2)


def load_config(path) -> tuple[PlanarConfig, PotentialParams]:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(fh.read())


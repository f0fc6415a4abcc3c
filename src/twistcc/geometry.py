"""Planar n-body configurations with homogeneous pair potentials.

Everything downstream is built on the function

    f = M*I/2 + U/(A-2),

where M is the total mass, I the moment of inertia about the center of
mass, and U the pair potential sum(m_i*m_j*r_ij^(2-A), i<j).  Critical
points of f are the planar central configurations, at the size
normalization U = M*I.  Newtonian gravity is A = 3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

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
    """Homogeneity exponent A of the pair potential r^(2-A).

    Pair tables accept any A >= 2; every operation built on f requires
    A > 2 strictly (the A = 2 logarithmic potential is out of scope).
    """

    A: float = 3.0

    def __post_init__(self):
        if not (math.isfinite(self.A) and self.A >= 2.0):
            raise ExponentRangeError(f"exponent A must be a finite real >= 2, got {self.A!r}")

    def require_f_domain(self) -> None:
        if self.A <= 2.0:
            raise ExponentRangeError(f"f = M*I/2 + U/(A-2) requires A > 2, got {self.A!r}")


@dataclass(frozen=True, eq=False)
class PlanarConfig:
    """n bodies in the plane: flat coordinates (x1, y1, ..., xn, yn) and masses."""

    positions: np.ndarray
    masses: np.ndarray

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
        _reject_coincident(pos.reshape(-1, 2))
        pos.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", m)

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
        p = self.points
        d = p[:, None, :] - p[None, :, :]
        return float(np.hypot(d[..., 0], d[..., 1]).max())

    def with_positions(self, positions) -> "PlanarConfig":
        return PlanarConfig(np.asarray(positions, dtype=float).reshape(-1), self.masses)


@lru_cache(maxsize=64)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of the pairs i < j among n bodies."""
    iu = np.triu_indices(n, 1)
    for a in iu:
        a.setflags(write=False)
    return iu


def _reject_coincident(points: np.ndarray) -> None:
    d = points[:, None, :] - points[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    diam = float(r.max())
    iu = _pair_indices(points.shape[0])
    rmin_idx = int(np.argmin(r[iu]))
    i, j = iu[0][rmin_idx], iu[1][rmin_idx]
    if r[i, j] <= COINCIDENT_RTOL * diam or diam == 0.0:
        raise CoincidentPointsError(
            f"bodies {i} and {j} coincide (separation {r[i, j]:.3e}, "
            f"diameter {diam:.3e}); indices are 0-based")


class PairTable:
    """Cached pairwise data for one configuration and exponent.

    Arrays (all n x n, zero on the diagonal):
      r  — mutual distances
      R  — r^(-A)
      S  — r^(-A) - 1
      T  — r^(-A-2)
      dx, dy — coordinate differences x_i - x_j, y_i - y_j

    Triple/quadruple accessors, in field arithmetic on dx, dy and r, so
    `kite.KiteTable` runs them on numpy arrays and intervals too:
      lam(i, j, k)     — q_ij ^ q_ik, twice the signed area of (q_i, q_j, q_k)
      a_triple(i,j,k)  — r_ij^2 + r_ik^2 - r_jk^2
      dot(i, j, k, l)  — q_ij . q_kl
      sin3(i, j, k)    — lam_ijk/(r_ij*r_ik), signed sine of the angle at q_i
      cos3(i, j, k)    — q_ij . q_ik/(r_ij*r_ik), its cosine
      cos4(i, j, k, l) — q_ij . q_kl/(r_ij*r_kl)
    """

    __slots__ = ("n", "A", "dx", "dy", "r", "R", "S", "T", "zero")

    def __init__(self, config: PlanarConfig, params: PotentialParams):
        p = config.points
        n = config.n
        d = p[:, None, :] - p[None, :, :]
        dx, dy = d[..., 0], d[..., 1]
        r = np.hypot(dx, dy)
        _reject_coincident(p)
        rs = r + np.eye(n)  # keep the diagonal out of the power's domain
        R = rs ** (-params.A)
        T = rs ** (-params.A - 2.0)
        S = R - 1.0
        for a in (R, S, T):
            np.fill_diagonal(a, 0.0)
        self.n = n
        self.A = params.A
        self.dx, self.dy, self.r, self.R, self.S, self.T = dx, dy, r, R, S, T
        self.zero = 0.0

    def lam(self, i: int, j: int, k: int) -> float:
        return self.dx[i, j] * self.dy[i, k] - self.dx[i, k] * self.dy[i, j]

    def a_triple(self, i: int, j: int, k: int) -> float:
        return self.r[i, j] ** 2 + self.r[i, k] ** 2 - self.r[j, k] ** 2

    def dot(self, i: int, j: int, k: int, l: int) -> float:
        return self.dx[i, j] * self.dx[k, l] + self.dy[i, j] * self.dy[k, l]

    def sin3(self, i: int, j: int, k: int) -> float:
        return self.lam(i, j, k) / (self.r[i, j] * self.r[i, k])

    def cos3(self, i: int, j: int, k: int) -> float:
        return self.dot(i, j, i, k) / (self.r[i, j] * self.r[i, k])

    def cos4(self, i: int, j: int, k: int, l: int) -> float:
        return self.dot(i, j, k, l) / (self.r[i, j] * self.r[k, l])


def build_pair_table(config: PlanarConfig, params: PotentialParams) -> PairTable:
    return PairTable(config, params)


def center_of_mass(config: PlanarConfig) -> np.ndarray:
    m = config.masses
    return (m[:, None] * config.points).sum(axis=0) / m.sum()


def moment_of_inertia(config: PlanarConfig) -> float:
    m = config.masses
    q = config.points - center_of_mass(config)
    return float((m * (q ** 2).sum(axis=1)).sum())


def potential_u(config: PlanarConfig, params: PotentialParams) -> float:
    params.require_f_domain()
    p = config.points
    m = config.masses
    iu = _pair_indices(config.n)
    d = p[iu[0]] - p[iu[1]]
    r = np.hypot(d[:, 0], d[:, 1])
    return float((m[iu[0]] * m[iu[1]] * r ** (2.0 - params.A)).sum())


def f_value(config: PlanarConfig, params: PotentialParams) -> float:
    params.require_f_domain()
    M = float(config.masses.sum())
    return M * moment_of_inertia(config) / 2.0 + potential_u(config, params) / (params.A - 2.0)


def euler_residual(config: PlanarConfig, params: PotentialParams) -> float:
    """U - M*I; vanishes exactly at critical points of f (Euler's relation)."""
    params.require_f_domain()
    return potential_u(config, params) - float(config.masses.sum()) * moment_of_inertia(config)


def cartesian_gradient_f(config: PlanarConfig, params: PotentialParams) -> np.ndarray:
    """Gradient of f in flat coordinates: block i is -m_i * sum_k m_k S_ik q_ik."""
    params.require_f_domain()
    t = build_pair_table(config, params)
    m = config.masses
    w = (m[:, None] * m[None, :]) * t.S
    g = np.empty(2 * config.n)
    g[0::2] = -(w * t.dx).sum(axis=1)
    g[1::2] = -(w * t.dy).sum(axis=1)
    return g


# --- configuration file format ----------------------------------------------
#
# JSON document {"A": number, "masses": [m1..mn], "positions": [[x1,y1],..]}.
# Floats are written with repr, which round-trips IEEE-754 doubles exactly.

def config_from_json(text: str) -> tuple[PlanarConfig, PotentialParams]:
    data = json.loads(text)
    try:
        A = float(data["A"])
        masses = [float(v) for v in data["masses"]]
        positions = [[float(x), float(y)] for (x, y) in data["positions"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed configuration document: {exc}") from exc
    if len(positions) != len(masses):
        raise GeometryError(
            f"{len(positions)} positions for {len(masses)} masses")
    return PlanarConfig.from_points(positions, masses), PotentialParams(A)


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


def save_config(path, config: PlanarConfig, params: PotentialParams) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_json(config, params))
        fh.write("\n")

"""Twist-vector flows and descent over twist bases.

Because every twist vector is tangent to the level sets of I and of the
center of mass, flows generated by fixed combinations of twists conserve
both (up to integrator error).  Descent in the span of a twist basis
searches for central configurations; its finite steps keep I only to
first order, so each accepted step is rescaled back to the CC size
U = M*I, where f is least along the scaling ray.

A descent iteration is a few O(n^2) array passes over one pair table:
the residual and the step (from one gradient g), the span basis, the
raw twists V of the basis and the Cartesian Hessian H all read it.  Its
step is a curvature-scaled Newton step in the twist span (`_span_steps`):
the Hessian projected on an orthonormal basis of the span, with each
curvature replaced by its absolute value, the rotation's dropped and the
others floored, so the step descends at any configuration, saddles
included.  The backtracking line search evaluates the full step in one
row pass (`geometry._row_pass`) and, only where it fails, every shorter
step in a second one, accepting the same step as backtracking one trial
at a time would.  The accepted row is rescaled to U = M*I in one more row
pass, and the row kept carries its validity, f, I and U into the next
iteration, so it is neither validated nor evaluated again.  A
rank-deficient span (a collinear configuration, which the twists keep
collinear) stops the descent.

Near a central configuration the descent first tries a Newton polish
from the same decomposition, with signed curvatures.  A Newton candidate
is rescaled to U = M*I, checked and evaluated in two row passes, and
kept when it lowers f, or lowers the residual without raising f, or
lowers the residual onto a CC with f at most NEWTON_F_ULPS ulp higher;
otherwise the iteration takes its curvature step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (PairTable, PlanarConfig, PotentialParams, _center,
                       _gradient_f, _row_check, _row_pass, build_pair_table, f_value,
                       moment_of_inertia, potential_u)
from .hessian import MORSE_ZERO_RTOL, _cartesian_hessian
from .twist import (TwistPair, _twist_rows, canon_pair, cc_residual, max_laura_andoyer,
                    twist_span_basis)

# Backtracking line-search constants; the first trial is the full step.
ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 40
# Newton polish: tried once the post-rescale residual is below NEWTON_SWITCH.
# A candidate onto a CC may raise f by rounding, by at most NEWTON_F_ULPS ulp.
NEWTON_SWITCH = 1e-3
NEWTON_F_ULPS = 4
# Both steps drop the twist-span curvatures |lam| at most MORSE_ZERO_RTOL *
# max|lam| (the rotation); the curvature step raises the others to at least
# CURVATURE_FLOOR * max|lam|, which bounds the step where f is nearly flat.
CURVATURE_FLOOR = 1e-2


@dataclass(frozen=True)
class FlowSpec:
    """A fixed linear combination of twist fields integrated with RK4."""

    terms: tuple[tuple[float, TwistPair], ...]
    dt: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not np.isfinite([c for c, _ in self.terms]).all():
            raise ValueError("flow coefficients must be finite")
        if not any(c != 0.0 for c, _ in self.terms):
            raise ValueError("flow needs at least one nonzero coefficient")


def _field(pos: np.ndarray, m: np.ndarray, terms) -> np.ndarray:
    v = np.zeros_like(pos)
    for c, (i, j) in terms:
        dx = pos[2 * i] - pos[2 * j]
        dy = pos[2 * i + 1] - pos[2 * j + 1]
        v[2 * i] += c * m[j] * dy
        v[2 * i + 1] -= c * m[j] * dx
        v[2 * j] -= c * m[i] * dy
        v[2 * j + 1] += c * m[i] * dx
    return v


def flow_fixed_combo(config: PlanarConfig, spec: FlowSpec) -> list[PlanarConfig]:
    """Integrate q' = sum c_k v_{pair_k}(q) into one array of rows, checked in one
    `geometry._row_check`; stops at the first step where two bodies coincide or a
    position is not finite (the integration itself stops at a non-finite row)."""
    terms = tuple((float(c), canon_pair(config.n, p)) for c, p in spec.terms)
    m, dt = config.masses, spec.dt
    rows = np.full((spec.steps + 1, config.positions.size), np.nan)
    rows[0] = config.positions
    with np.errstate(all="ignore"):
        for s in range(spec.steps):
            pos = rows[s]
            k1 = _field(pos, m, terms)
            k2 = _field(pos + 0.5 * dt * k1, m, terms)
            k3 = _field(pos + 0.5 * dt * k2, m, terms)
            k4 = _field(pos + dt * k3, m, terms)
            rows[s + 1] = pos + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(rows[s + 1]).all():
                break
    valid, pair_r = _row_check(rows)
    stop = np.append(valid, False).argmin()     # the first invalid row
    return [config] + [PlanarConfig._from_valid_row(rows[k], m, pair_r[k])
                       for k in range(1, stop)]


def rescale_to_cc_size(config: PlanarConfig, params: PotentialParams) -> PlanarConfig:
    """Scale about the center of mass so that U = M*I holds exactly.

    U scales as lam^(2-A) and M*I as lam^2, so lam = (U/(M*I))^(1/A).
    """
    pts = _cc_size_points(config.points, config.masses, moment_of_inertia(config),
                          potential_u(config, params), params.A)
    return PlanarConfig.from_points(pts, config.masses)


def _cc_size_points(points: np.ndarray, masses: np.ndarray, inertia: float,
                    potential: float, A: float) -> np.ndarray:
    """`rescale_to_cc_size`'s points, from the configuration's I and U."""
    lam = (potential / (float(masses.sum()) * inertia)) ** (1.0 / A)
    c = _center(points[None], masses)[0]
    return c + lam * (points - c)


@dataclass(frozen=True)
class DescentReport:
    """Outcome of `descend`.

    `reason` says why the iteration stopped: "converged" (exactly when
    `converged` is true), "collapse" (a rank-deficient span),
    "zero_direction" (no curvature step), "line_search_exhausted" or
    "max_iter".  `newton_steps` counts the accepted Newton steps among
    `iterations`, and `newton_rejected` the Newton candidates that failed or
    were refused; every other iteration is a curvature step.
    `i_drift` is |I/I0 - 1| of the final configuration against the start:
    every step ends rescaled to U = M*I, so that is the final size against
    the start's, not the drift of the steps.  `max_step_i_drift` is the
    largest |I'/I - 1| of one accepted step that is not a Newton step (a
    curvature step), before its rescale, 0 if there is none: the drift of
    a twist step that the rescale undoes.  With
    `record`, `history` is the whole trajectory, start to `config`: one
    (step, positions, f, Laura-Andoyer residual) row per configuration,
    `iterations + 1` rows.
    """

    config: PlanarConfig
    iterations: int
    max_la_residual: float
    f_value: float
    converged: bool
    collinear_collapse: bool
    reason: str
    newton_steps: int
    i_drift: float
    newton_rejected: int
    max_step_i_drift: float
    history: tuple = field(default=(), repr=False)


class _Iterate(NamedTuple):
    """An accepted configuration with the f, I and U of its row pass."""

    config: PlanarConfig
    f: float
    inertia: float
    potential: float


def _carried(rows: np.ndarray, k: int, masses: np.ndarray, passed) -> _Iterate:
    """Row k of `rows`, valid in the `_row_pass` result `passed`, as an `_Iterate`."""
    _, f, pair_r, inertia, potential = passed
    return _Iterate(PlanarConfig._from_valid_row(rows[k], masses, pair_r[k]),
                    float(f[k]), float(inertia[k]), float(potential[k]))


def _armijo_step(cfg: PlanarConfig, params: PotentialParams, d: np.ndarray,
                 fcur: float, slope: float) -> _Iterate | None:
    """Backtrack along -d from the full step; the first Armijo point, or None.

    One row pass evaluates the full step alone and, only where it fails, a
    second one the other MAX_BACKTRACKS - 1 steps SHRINK^k at once.  A step
    is skipped when it brings two bodies together or leaves the finite
    range, and the first remaining one that decreases f enough is accepted,
    carrying the f, I and U its row pass computed.
    """
    etas = SHRINK ** np.arange(MAX_BACKTRACKS)  # exact powers of two, as `eta *= SHRINK`
    trials = cfg.positions - etas[:, None] * d
    for rows in (slice(0, 1), slice(1, None)):
        passed = _row_pass(trials[rows], cfg.masses, params.A)
        valid, f = passed[:2]
        ok = valid & (f <= fcur - ARMIJO_C * etas[rows] * slope)
        if ok.any():
            return _carried(trials[rows], int(np.argmax(ok)), cfg.masses, passed)
    return None


def _span_derivatives(table: PairTable, basis: list[TwistPair],
                      g: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, grad f, H): the raw twists of `basis` as rows and the Cartesian
    gradient and Hessian of f, all from the one pair table; the gradient
    is g when the caller has it."""
    i, j = np.array(basis, dtype=np.intp).T
    V = _twist_rows(table.masses, i, j, table.dx[i, j], table.dy[i, j])
    return V, _gradient_f(table) if g is None else g, _cartesian_hessian(table)


def _span_steps(V: np.ndarray, g: np.ndarray,
                H: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(newton, curvature): the Newton and curvature-scaled Newton steps p
    in the span of the rows of V, which depend on the span alone; the full
    step moves x to x - p.  Both are None where the decomposition fails.

    With Q an orthonormal basis of the span and Q^T H Q = E diag(lam) E^T,
    p = Q E diag(w) E^T Q^T g: w = 1/lam for the Newton step and 1/|lam|,
    |lam| raised to at least CURVATURE_FLOOR * max|lam|, for the curvature
    step, and w = 0 for both where |lam| <= MORSE_ZERO_RTOL * max|lam| (the
    rotation).  Taking |lam| makes the curvature step descend at any
    configuration: it is None where it is not finite or g . p <= 0.
    """
    with np.errstate(all="ignore"):
        try:
            Q = np.linalg.qr(V.T)[0]
            lam, E = np.linalg.eigh(Q.T @ H @ Q)
        except np.linalg.LinAlgError:
            return None, None
        mag = np.abs(lam)
        top = mag.max()
        kept = mag > MORSE_ZERO_RTOL * top
        coords = E.T @ (Q.T @ g)
        newton = Q @ (E @ (np.where(kept, 1.0 / lam, 0.0) * coords))
        p = Q @ (E @ (np.where(kept, 1.0 / np.maximum(mag, CURVATURE_FLOOR * top), 0.0)
                      * coords))
        descends = np.isfinite(p).all() and g @ p > 0.0
    return newton, (p if descends else None)


def _at_cc_size(row: np.ndarray, masses: np.ndarray, inertia: float, potential: float,
               A: float) -> _Iterate | None:
    """A valid row of flat positions, with its I and U, rescaled to U = M*I,
    or None where the rescaled row is not valid.

    One row pass checks the rescaled row and gives its f, I and U: the
    result is `rescale_to_cc_size` of the row's configuration and its f,
    bit for bit.
    """
    y = _cc_size_points(row.reshape(-1, 2), masses, inertia, potential, A).reshape(1, -1)
    passed = _row_pass(y, masses, A)
    if not passed[0][0]:
        return None
    return _carried(y, 0, masses, passed)


def _newton_step(table: PairTable, x: np.ndarray, p: np.ndarray) -> _Iterate | None:
    """The candidate x - p of the Newton step p from the table's
    configuration cfg, at flat positions x, rescaled to U = M*I, or None.

    One row pass on x - p checks it and gives the I and U of the rescale,
    and `_at_cc_size` rescales it: the result is
    `rescale_to_cc_size(cfg.with_positions(x - p))` and its f, bit for bit,
    and None where either construction would raise.
    """
    m, A = table.masses, table.A
    moved = (x - p)[None]
    valid, _, _, inertia, potential = _row_pass(moved, m, A)
    if not valid[0]:
        return None
    return _at_cc_size(moved, m, float(inertia[0]), float(potential[0]), A)


def descend(config: PlanarConfig, params: PotentialParams, *,
            tol: float = 1e-10, max_iter: int = 50000,
            record: bool = False) -> DescentReport:
    """Descent of f in the twist span by curvature-scaled Newton steps,
    Newton-polished.

    Each iteration re-selects an independent twist set.  It takes the
    curvature step p of `_span_steps`, from the raw twists V of the set, the
    gradient g and the Cartesian Hessian H, and an Armijo backtracking step
    along -p whose first trial is the full step.  Since p scales by the
    absolute curvatures, it is a descent direction also where H is
    indefinite, and a start near a saddle of f leaves it.  All backtracking
    steps of a search are evaluated at once, and the first that is
    admissible and passes the Armijo test is accepted, as in a one-at-a-time
    search.  Where p is None (a decomposition that fails or is not finite,
    or g . p <= 0) the descent stops with "zero_direction", and where the
    line search finds no step with "line_search_exhausted".  Twists are tangent
    to the level sets of I, so a step keeps I only to first order.  The
    accepted step is retracted to the CC size: rescaled about the center of
    mass to U = M*I, and kept rescaled unless the rescaled row is invalid
    or its f is above the step's.  For A > 2, f along the scaling ray has
    its only minimum at U = M*I, so the rescale lowers f and the guard acts
    at the rounding level only.

    Once the post-rescale residual is below NEWTON_SWITCH, the iteration
    first tries the Newton step of `_span_steps`, from the same
    decomposition, through `_newton_step`.  Its candidate is accepted, and
    counts as an iteration, if its f is below the current f, whatever its
    residual, or if its post-rescale residual is below the current one and
    its f is not above the current f, or is at most NEWTON_F_ULPS ulp of
    |f| above it while the candidate is a CC (the rounding floor of f at a
    CC); otherwise the iteration takes the curvature step.  So f never
    increases, except by at most NEWTON_F_ULPS ulp on a Newton step onto a
    CC.

    The residual, the span basis, V, g, H and the twists share one pair
    table per iteration, whose gradient g is computed once; a Newton
    candidate builds its own table, gradient and residual, which become
    the next iteration's when the candidate is accepted (a rejected
    candidate has built them too).  The kept row carries its validity, f,
    I and U from the row pass that found or rescaled it, so no iterate is
    validated or evaluated twice.

    `converged` means what `eval`'s `is_cc` means: the Laura-Andoyer and
    Albouy-Chenciner residuals of `cc_residual`, evaluated at the size
    U = M*I that `rescale_to_cc_size` gives, are below `tol`.  That test
    runs on every iterate whose Laura-Andoyer residual, normalized as in
    `cc_residual` and amplified to its post-rescale value (never below
    the rescaled residual), is below `tol`, the last one after `max_iter`
    iterations included.  A rank-deficient twist span stops the descent as
    a suspected collinear collapse, not an error; Laura-Andoyer residuals
    vanish identically on collinear configurations, so `collinear_collapse`
    reports a rank-deficient final span also when the run converged.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    M = float(config.masses.sum())
    full_dim = 2 * config.n - 3

    def measured(cur: _Iterate) -> tuple[PairTable, np.ndarray, float, float]:
        # The iterate's pair table, gradient and residual, each computed
        # once.  The normalized residual is amplified by MI/U under the final
        # rescale to U = M*I, so converge on the post-rescale value.
        table = build_pair_table(cur.config, params)
        g = _gradient_f(table)
        resid = max_laura_andoyer(table, g)
        return table, g, resid, resid * max(1.0, M * cur.inertia / cur.potential)

    def is_cc(cfg: PlanarConfig, resid_cc: float) -> bool:
        # resid_cc bounds the rescaled LA residual, so only then run `eval`'s test
        return resid_cc < tol and cc_residual(rescale_to_cc_size(cfg, params),
                                              params, tol).is_cc

    history = []
    reason = "max_iter"
    newton_steps = newton_rejected = 0
    max_step_i_drift = 0.0
    start = cur = _Iterate(config, f_value(config, params), moment_of_inertia(config),
                           potential_u(config, params))
    table, g, resid, resid_cc = measured(cur)
    for it in range(max_iter + 1):
        cfg = cur.config
        if record:
            history.append((it, cfg.positions, cur.f, resid))
        basis, dim = twist_span_basis(table)
        if is_cc(cfg, resid_cc):
            reason = "converged"
            break
        if it == max_iter:
            break
        if dim < full_dim:
            reason = "collapse"
            break
        newton, p = _span_steps(*_span_derivatives(table, basis, g))
        if resid_cc < NEWTON_SWITCH:
            cand = None if newton is None else _newton_step(table, cfg.positions, newton)
            if cand is not None:
                cand_measured = measured(cand)
                cand_resid_cc = cand_measured[3]
                if cand.f < cur.f or (cand_resid_cc < resid_cc and (
                        cand.f <= cur.f
                        or (cand.f - cur.f <= NEWTON_F_ULPS * np.spacing(abs(cur.f))
                            and is_cc(cand.config, cand_resid_cc)))):
                    cur = cand
                    table, g, resid, resid_cc = cand_measured
                    newton_steps += 1
                    continue
            newton_rejected += 1
        if p is None:
            reason = "zero_direction"
            break
        step = _armijo_step(cfg, params, p, cur.f, float(g @ p))
        if step is None:
            reason = "line_search_exhausted"
            break
        max_step_i_drift = max(max_step_i_drift, abs(step.inertia / cur.inertia - 1.0))
        # the retraction: f along the scaling ray is least at U = M*I (A > 2),
        # so the rescaled row is kept unless rounding puts it above the step
        rescaled = _at_cc_size(step.config.positions, cfg.masses, step.inertia,
                               step.potential, params.A)
        cur = step if rescaled is None or rescaled.f > step.f else rescaled
        table, g, resid, resid_cc = measured(cur)

    i_drift = abs(cur.inertia / start.inertia - 1.0)
    return DescentReport(cfg, it, resid, cur.f, reason == "converged", dim < full_dim,
                         reason, newton_steps, i_drift, newton_rejected,
                         max_step_i_drift, tuple(history))

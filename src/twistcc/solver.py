"""Twist-vector flows and descent over twist bases.

Because every twist vector is tangent to the level sets of I and of the
center of mass, flows generated by fixed combinations of twists conserve
both (up to integrator error).  Descent in the span of a twist basis
searches for central configurations; its finite steps keep I only to
first order.  The size itself is fixed afterwards by a single rescale
enforcing U = M*I.

A descent iteration is a few array passes over one pair table: the
residual, the span basis, the raw twists V of the basis, the gradient g
and the Cartesian Hessian H all read it, the residual and the span basis
through the table's one array of signed areas lam_ijk.  With a full-rank
span the iteration takes a curvature-scaled Newton step in the twist
span (`_curvature_step`): the Hessian projected on an orthonormal basis
of the span, with each curvature replaced by its absolute value, the
rotation's dropped and the others floored, so the step descends at any
configuration, saddles included.  The first-order step along
d = sum (g . u_k) u_k over the unit twists is the fallback, for
rank-deficient spans and where the curvature step fails.  Each
backtracking line search evaluates all of its candidate steps in one
row pass (`geometry._row_pass`), accepting the same step as backtracking
one trial at a time would.  The accepted row carries its validity, f, I
and U into the next iteration, so it is neither validated nor evaluated
again.

Near a central configuration the descent first tries a Newton polish
from the same V, g and H: the derivatives of f along the raw twists v_k
are the Laura-Andoyer residuals, and their Jacobian is the twist-basis
Hessian V H V^T.  A Newton candidate is rescaled to U = M*I, checked and
evaluated in two row passes, and kept only when it lowers both f and the
residual; otherwise the iteration takes its curvature step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (PairTable, PlanarConfig, PotentialParams, _center,
                       _gradient_f, _row_check, _row_pass, build_pair_table, f_value,
                       moment_of_inertia, potential_u)
from .hessian import MORSE_ZERO_RTOL, _cartesian_hessian
from .twist import (TwistPair, _twist_rows, _unit_twists, canon_pair, cc_residual,
                    max_laura_andoyer, twist_span_basis)

# Backtracking line-search constants.
ETA0_FRACTION = 1e-2     # initial step length as a fraction of the diameter
ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 40
COLLAPSE_RUN = 3         # consecutive rank-deficient iterations before flagging
# Newton polish: tried once the post-rescale residual is below NEWTON_SWITCH;
# NEWTON_RCOND is the least-squares cutoff that absorbs the rotational zero.
NEWTON_SWITCH = 1e-3
NEWTON_RCOND = 1e-9
# Curvature step: twist-span curvatures |lam| below MORSE_ZERO_RTOL * max|lam|
# (the rotation) are dropped, the others raised to at least CURVATURE_FLOOR *
# max|lam|, which bounds the step where f is nearly flat.
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
    `converged` is true), "collapse" (a run of rank-deficient spans),
    "zero_direction" (no descent direction), "line_search_exhausted" or
    "max_iter".  `newton_steps` counts the accepted Newton steps among
    `iterations`, `newton_rejected` the Newton candidates that failed or
    were refused, and `first_order_steps` the iterations that fell back to
    the first-order step; every other iteration is a curvature step.
    `i_drift` is |I/I0 - 1| of the final configuration against the start:
    after a Newton polish, which rescales to U = M*I, that is the final
    rescaled CC's size against the start's, not the drift of the steps.
    `max_step_i_drift` is the largest |I'/I - 1| of one accepted step that
    is not a Newton step (a curvature or first-order step), 0 if there is
    none: the drift that twist steps without retraction cause.  With
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
    first_order_steps: int
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


def _descent_direction(table: PairTable,
                       basis: list[TwistPair]) -> tuple[np.ndarray, np.ndarray]:
    """(grad f, d) with d = sum_k (grad f . u_k) u_k over the unit twists of `basis`."""
    g = _gradient_f(table)
    u = _unit_twists(table, basis)
    gu = np.matmul(u[:, None, :], g[:, None])[:, 0]  # each row summed as g @ u_k is
    # accumulate adds the terms in basis order onto a zero row, as a loop does
    d = np.add.accumulate(np.vstack([np.zeros_like(g), gu * u]))[-1]
    return g, d


def _armijo_step(cfg: PlanarConfig, params: PotentialParams, d: np.ndarray,
                 eta: float, fcur: float, slope: float) -> _Iterate | None:
    """Backtrack along -d from step eta; the first Armijo point, or None.

    All MAX_BACKTRACKS steps eta*SHRINK^k are evaluated at once in one row
    pass.  A step is skipped when it brings two bodies together or leaves
    the finite range, and the first remaining one that decreases f enough
    is accepted, carrying the f, I and U its row pass computed.
    """
    etas = np.full(MAX_BACKTRACKS, SHRINK)
    etas[0] = eta
    np.cumprod(etas, out=etas)  # repeats `eta *= SHRINK` exactly
    trials = cfg.positions - etas[:, None] * d
    passed = _row_pass(trials, cfg.masses, params.A)
    valid, f = passed[:2]
    ok = valid & (f <= fcur - ARMIJO_C * etas * slope)
    if not ok.any():
        return None
    return _carried(trials, int(np.argmax(ok)), cfg.masses, passed)


def _span_derivatives(table: PairTable,
                      basis: list[TwistPair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, grad f, H): the raw twists of `basis` as rows and the Cartesian
    gradient and Hessian of f, all from the one pair table."""
    i, j = np.array(basis, dtype=np.intp).T
    V = _twist_rows(table.masses, i, j, table.dx[i, j], table.dy[i, j])
    return V, _gradient_f(table), _cartesian_hessian(table)


def _curvature_step(V: np.ndarray, g: np.ndarray, H: np.ndarray) -> np.ndarray | None:
    """The curvature-scaled Newton step p in the span of the rows of V, or
    None; the full step moves x to x - p.

    With Q an orthonormal basis of the span and Q^T H Q = E diag(lam) E^T,
    p = Q E diag(1/|lam|) E^T Q^T g, where each |lam| at most
    MORSE_ZERO_RTOL * max|lam| (the rotation) is dropped and every other one
    raised to at least CURVATURE_FLOOR * max|lam|.  Taking |lam| makes the
    scaling positive definite, so p is a descent direction at any
    configuration: None where the decomposition is not finite or g . p <= 0.
    """
    with np.errstate(all="ignore"):
        try:
            Q = np.linalg.qr(V.T)[0]
            lam, E = np.linalg.eigh(Q.T @ H @ Q)
        except np.linalg.LinAlgError:
            return None
        mag = np.abs(lam)
        top = mag.max()
        inv = np.where(mag > MORSE_ZERO_RTOL * top,
                       1.0 / np.maximum(mag, CURVATURE_FLOOR * top), 0.0)
        p = Q @ (E @ (inv * (E.T @ (Q.T @ g))))
        descends = np.isfinite(p).all() and g @ p > 0.0
    return p if descends else None


def _newton_step(table: PairTable, x: np.ndarray, V: np.ndarray, g: np.ndarray,
                 H: np.ndarray) -> _Iterate | None:
    """The twist-span Newton candidate from the table's configuration cfg,
    at flat positions x, rescaled to U = M*I, or None.

    Solves (V H V^T) c = -V grad f in least squares, with V, grad f and H
    from `_span_derivatives`, and moves to x + V^T c.
    One row pass on x + V^T c checks it and gives the I and U of the
    rescale, a second one checks the rescaled row and gives its f, I and U:
    the result is `rescale_to_cc_size(cfg.with_positions(x + V^T c))` and
    its f, bit for bit, and None where either construction would raise.
    """
    m, A = table.masses, table.A
    try:
        c = np.linalg.lstsq(V @ H @ V.T, -(V @ g), rcond=NEWTON_RCOND)[0]
    except np.linalg.LinAlgError:
        return None
    moved = (x + V.T @ c)[None]
    valid, _, _, inertia, potential = _row_pass(moved, m, A)
    if not valid[0]:
        return None
    y = _cc_size_points(moved.reshape(-1, 2), m, float(inertia[0]), float(potential[0]),
                        A).reshape(1, -1)
    passed = _row_pass(y, m, A)
    if not passed[0][0]:
        return None
    return _carried(y, 0, m, passed)


def descend(config: PlanarConfig, params: PotentialParams, *,
            tol: float = 1e-10, max_iter: int = 50000,
            record: bool = False) -> DescentReport:
    """Descent of f in the twist span by curvature-scaled Newton steps,
    Newton-polished.

    Each iteration re-selects an independent twist set.  When the span has
    full rank, it takes the `_curvature_step` direction p, from the raw
    twists V of the set, the gradient g and the Cartesian Hessian H, and
    an Armijo backtracking step along -p whose first trial is the full
    step.  Since p scales by the absolute curvatures, it is a descent
    direction also where H is indefinite, and a start near a saddle of f
    leaves it.  The
    first-order step, Armijo backtracking along d = sum (g . u_k) u_k over
    the unit twists u_k from 1e-2 * diameter / |d|, is taken when the span
    is rank-deficient, when p is None (a decomposition that is not finite,
    or g . p <= 0) or when the line search along p finds no step; such
    iterations are counted in `first_order_steps`.  All backtracking steps
    of a search are evaluated at once, and the first that is admissible
    and passes the Armijo test is accepted, as in a one-at-a-time search.
    Twists are tangent to the level sets of I, so a step keeps I only to
    first order: there is no retraction, and I drifts, the more the
    longer the step.

    Once the post-rescale residual is below NEWTON_SWITCH and the span has
    full rank, the iteration first tries the twist-span Newton step of
    `_newton_step` from the same V, g and H.  Its candidate is accepted,
    and counts as an iteration, only if its post-rescale residual is below
    the current one and its f is not above the current f, so f never
    increases; otherwise the iteration takes the curvature step.

    The residual, the span basis, V, g, H and the twists share one pair
    table per iteration, and the residual and the span basis read its one
    lam array; a Newton candidate builds its own, which becomes the
    iteration's table when the candidate is accepted (a rejected candidate
    has built one too).  The accepted step's row carries its validity, f,
    I and U from the row pass that found it, so no iterate is validated or
    evaluated twice.

    `converged` means what `eval`'s `is_cc` means: the Laura-Andoyer and
    Albouy-Chenciner residuals of `cc_residual`, evaluated at the size
    U = M*I that `rescale_to_cc_size` gives, are below `tol`.  That test
    runs on every iterate whose Laura-Andoyer residual, normalized as in
    `cc_residual` and amplified to its post-rescale value (never below
    the rescaled residual), is below `tol`, and on the final
    configuration after `max_iter` iterations.  A run of rank-deficient
    twist spans is reported as a suspected collinear collapse, not an
    error.
    """
    M = float(config.masses.sum())
    full_dim = 2 * config.n - 3

    def residuals(cur: _Iterate, table: PairTable) -> tuple[float, float]:
        # The normalized residual is amplified by MI/U under the final
        # rescale to U = M*I, so converge on the post-rescale value.
        resid = max_laura_andoyer(table)
        return resid, resid * max(1.0, M * cur.inertia / cur.potential)

    def is_cc(cfg: PlanarConfig, resid_cc: float) -> bool:
        # resid_cc bounds the rescaled LA residual, so only then run `eval`'s test
        return resid_cc < tol and cc_residual(rescale_to_cc_size(cfg, params),
                                              params, tol).is_cc

    history = []
    collapse = False
    reason = "max_iter"
    degenerate_run = 0
    iterations = newton_steps = newton_rejected = first_order_steps = 0
    max_step_i_drift = 0.0
    start = cur = _Iterate(config, f_value(config, params), moment_of_inertia(config),
                           potential_u(config, params))
    table = build_pair_table(config, params)
    for it in range(max_iter):
        cfg = cur.config
        resid, resid_cc = residuals(cur, table)
        if record:
            history.append((it, cfg.positions, cur.f, resid))
        if is_cc(cfg, resid_cc):
            reason = "converged"
            break
        basis, dim = twist_span_basis(table)
        step = None
        if dim < full_dim:
            degenerate_run += 1
            if degenerate_run >= COLLAPSE_RUN:
                collapse = True
                reason = "collapse"
                break
        else:
            degenerate_run = 0
            V, g, H = _span_derivatives(table, basis)
            if resid_cc < NEWTON_SWITCH:
                cand = _newton_step(table, cfg.positions, V, g, H)
                if cand is not None:
                    cand_table = build_pair_table(cand.config, params)
                    if residuals(cand, cand_table)[1] < resid_cc and cand.f <= cur.f:
                        cur, table = cand, cand_table
                        newton_steps += 1
                        iterations = it + 1
                        continue
                newton_rejected += 1
            p = _curvature_step(V, g, H)
            if p is not None:
                step = _armijo_step(cfg, params, p, 1.0, cur.f, float(g @ p))

        if step is None:    # the first-order fallback
            g, d = _descent_direction(table, basis)
            slope = float(g @ d)
            dn = float(np.linalg.norm(d))
            if dn == 0.0 or slope <= 0.0:
                reason = "zero_direction"
                break
            eta = ETA0_FRACTION * cfg.diameter() / dn
            step = _armijo_step(cfg, params, d, eta, cur.f, slope)
            if step is None:
                reason = "line_search_exhausted"
                break
            first_order_steps += 1
        max_step_i_drift = max(max_step_i_drift, abs(step.inertia / cur.inertia - 1.0))
        cur = step
        table = build_pair_table(cur.config, params)
        iterations = it + 1

    cfg = cur.config
    resid, resid_cc = residuals(cur, table)
    if record and reason == "max_iter":  # the loop ran out: no iteration recorded cfg
        history.append((iterations, cfg.positions, cur.f, resid))
    if reason == "max_iter" and is_cc(cfg, resid_cc):  # the last step reached a CC
        reason = "converged"
    # Laura-Andoyer residuals vanish identically on collinear configurations,
    # so a rank-deficient final span is a collapse even when "converged".
    _, final_dim = twist_span_basis(table)
    collapse = collapse or final_dim < full_dim
    i_drift = abs(cur.inertia / start.inertia - 1.0)
    return DescentReport(cfg, iterations, resid, cur.f, reason == "converged", collapse,
                         reason, newton_steps, i_drift, newton_rejected, first_order_steps,
                         max_step_i_drift, tuple(history))

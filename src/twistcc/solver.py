"""Twist-vector flows and gradient descent over twist bases.

Because every twist vector is tangent to the level sets of I and of the
center of mass, flows generated by fixed combinations of twists conserve
both (up to integrator error).  Gradient descent projected on a twist
basis searches for central configurations; its finite steps keep I only
to first order.  The size itself is fixed afterwards by a single rescale
enforcing U = M*I.

A descent iteration is a few array passes over one pair table: the
residual, the gradient and the unit twist directions all read it, and the
backtracking line search evaluates all of its candidate steps at once,
accepting the same step as backtracking one trial at a time would.

Near a central configuration the descent switches to Newton steps in the
twist span: the derivatives of f along the raw twists v_k of a span basis
are the Laura-Andoyer residuals, and their Jacobian is the twist-basis
Hessian V H V^T.  A Newton candidate is rescaled to U = M*I and kept only
when it lowers both f and the residual; otherwise the iteration takes the
first-order step.  Until the first Newton attempt the iterates are those
of the first-order descent, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (GeometryError, PairTable, PlanarConfig, PotentialParams,
                       _gradient_f, build_pair_table, center_of_mass, f_rows, f_value,
                       moment_of_inertia, potential_u)
from .hessian import _cartesian_hessian
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


def flow_fixed_combo(config: PlanarConfig, params: PotentialParams,
                     spec: FlowSpec) -> list[PlanarConfig]:
    """Integrate q' = sum c_k v_{pair_k}(q); stops early when two bodies coincide."""
    terms = tuple((float(c), canon_pair(config.n, p)) for c, p in spec.terms)
    m = config.masses
    dt = spec.dt
    traj = [config]
    for _ in range(spec.steps):
        pos = traj[-1].positions
        k1 = _field(pos, m, terms)
        k2 = _field(pos + 0.5 * dt * k1, m, terms)
        k3 = _field(pos + 0.5 * dt * k2, m, terms)
        k4 = _field(pos + dt * k3, m, terms)
        try:
            traj.append(PlanarConfig(pos + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), m))
        except GeometryError:
            break
    return traj


def rescale_to_cc_size(config: PlanarConfig, params: PotentialParams) -> PlanarConfig:
    """Scale about the center of mass so that U = M*I holds exactly.

    U scales as lam^(2-A) and M*I as lam^2, so lam = (U/(M*I))^(1/A).
    """
    params.require_f_domain()
    U = potential_u(config, params)
    MI = float(config.masses.sum()) * moment_of_inertia(config)
    lam = (U / MI) ** (1.0 / params.A)
    c = center_of_mass(config)
    pts = c + lam * (config.points - c)
    return PlanarConfig.from_points(pts, config.masses)


@dataclass(frozen=True)
class DescentReport:
    """Outcome of `descend`.

    `reason` says why the iteration stopped: "converged" (exactly when
    `converged` is true), "collapse" (a run of rank-deficient spans),
    "zero_direction" (no descent direction), "line_search_exhausted" or
    "max_iter".  `newton_steps` counts the accepted Newton steps among
    `iterations`; `i_drift` is |I/I0 - 1| of the final configuration
    against the start, before any final rescale.
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
    history: tuple = field(default=(), repr=False)


def _descent_direction(table: PairTable, masses: np.ndarray,
                       basis: list[TwistPair]) -> tuple[np.ndarray, np.ndarray]:
    """(grad f, d) with d = sum_k (grad f . u_k) u_k over the unit twists of `basis`."""
    g = _gradient_f(table, masses)
    u = _unit_twists(table, masses, basis)
    gu = np.matmul(u[:, None, :], g[:, None])[:, 0]  # each row summed as g @ u_k is
    # accumulate adds the terms in basis order onto a zero row, as a loop does
    d = np.add.accumulate(np.vstack([np.zeros_like(g), gu * u]))[-1]
    return g, d


def _armijo_step(cfg: PlanarConfig, params: PotentialParams, d: np.ndarray,
                 eta: float, fcur: float, slope: float) -> tuple[PlanarConfig, float] | None:
    """Backtrack along -d from step eta; (config, f) of the first Armijo point, or None.

    All MAX_BACKTRACKS steps eta*SHRINK^k are evaluated at once.  A step is
    skipped when it brings two bodies together or leaves the finite range,
    and the first remaining one that decreases f enough is accepted.
    """
    etas = np.full(MAX_BACKTRACKS, SHRINK)
    etas[0] = eta
    np.cumprod(etas, out=etas)  # repeats `eta *= SHRINK` exactly
    trials = cfg.positions - etas[:, None] * d
    valid, f = f_rows(trials, cfg.masses, params)
    ok = valid & (f <= fcur - ARMIJO_C * etas * slope)
    if not ok.any():
        return None
    k = int(np.argmax(ok))
    return cfg.with_positions(trials[k]), float(f[k])


def _newton_step(cfg: PlanarConfig, params: PotentialParams, table: PairTable,
                 basis: list[TwistPair]) -> PlanarConfig | None:
    """The twist-span Newton candidate, rescaled to U = M*I, or None.

    Solves (V H V^T) c = -V grad f in least squares, V the raw twists of
    `basis` as rows and H the Cartesian Hessian, and moves to x + V^T c.
    """
    m = cfg.masses
    i, j = np.array(basis, dtype=np.intp).T
    V = _twist_rows(m, i, j, table.dx[i, j], table.dy[i, j])
    g = _gradient_f(table, m)
    H = _cartesian_hessian(table, m)
    try:
        c = np.linalg.lstsq(V @ H @ V.T, -(V @ g), rcond=NEWTON_RCOND)[0]
        return rescale_to_cc_size(cfg.with_positions(cfg.positions + V.T @ c), params)
    except (GeometryError, np.linalg.LinAlgError):
        return None


def descend(config: PlanarConfig, params: PotentialParams, *,
            tol: float = 1e-10, max_iter: int = 50000,
            record: bool = False) -> DescentReport:
    """Projected gradient descent of f over a twist basis, Newton-polished.

    Each iteration re-selects an independent twist set.  Far from a central
    configuration it forms the descent direction d = sum (grad f . u_k) u_k
    over the unit twists u_k and takes an Armijo backtracking step along
    -d.  All backtracking steps are evaluated at once, and the first that
    is admissible and passes the Armijo test is accepted, as in a
    one-at-a-time search.  Twists are tangent to the level sets of I, so a
    step keeps I only to first order: there is no retraction, and I drifts
    over long runs.

    Once the post-rescale residual is below NEWTON_SWITCH and the span has
    full rank, the iteration first tries the twist-span Newton step of
    `_newton_step`.  Its candidate is accepted, and counts as an iteration,
    only if its post-rescale residual is below the current one and its f
    is not above the current f, so f never increases; otherwise the
    iteration takes the Armijo step.  Up to the first Newton attempt the
    iterates are those of the first-order descent, bit for bit.

    The residual, the gradient and the twists share one pair table per
    iteration; a Newton candidate builds its own, which becomes the
    iteration's table when the candidate is accepted (a rejected candidate
    has built one too).

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
    params.require_f_domain()
    M = float(config.masses.sum())
    full_dim = 2 * config.n - 3

    def residuals(cfg: PlanarConfig, table: PairTable) -> tuple[float, float]:
        # The normalized residual is amplified by MI/U under the final
        # rescale to U = M*I, so converge on the post-rescale value.
        resid = max_laura_andoyer(table, cfg.masses)
        ratio = M * moment_of_inertia(cfg) / potential_u(cfg, params)
        return resid, resid * max(1.0, ratio)

    def is_cc(cfg: PlanarConfig, resid_cc: float) -> bool:
        # resid_cc bounds the rescaled LA residual, so only then run `eval`'s test
        return resid_cc < tol and cc_residual(rescale_to_cc_size(cfg, params),
                                              params, tol).is_cc

    history = []
    collapse = False
    reason = "max_iter"
    degenerate_run = 0
    iterations = newton_steps = 0
    cfg = config
    table = build_pair_table(cfg, params)
    fcur = f_value(cfg, params)
    for it in range(max_iter):
        resid, resid_cc = residuals(cfg, table)
        if record:
            history.append((it, cfg.positions, fcur, resid))
        if is_cc(cfg, resid_cc):
            reason = "converged"
            break
        basis, dim = twist_span_basis(cfg)
        if dim < full_dim:
            degenerate_run += 1
            if degenerate_run >= COLLAPSE_RUN:
                collapse = True
                reason = "collapse"
                break
        else:
            degenerate_run = 0

        if resid_cc < NEWTON_SWITCH and dim == full_dim:
            cand = _newton_step(cfg, params, table, basis)
            if cand is not None:
                cand_table = build_pair_table(cand, params)
                fcand = f_value(cand, params)
                if residuals(cand, cand_table)[1] < resid_cc and fcand <= fcur:
                    cfg, table, fcur = cand, cand_table, fcand
                    newton_steps += 1
                    iterations = it + 1
                    continue

        g, d = _descent_direction(table, cfg.masses, basis)
        slope = float(g @ d)
        dn = float(np.linalg.norm(d))
        if dn == 0.0 or slope <= 0.0:
            reason = "zero_direction"
            break
        step = _armijo_step(cfg, params, d, ETA0_FRACTION * cfg.diameter() / dn, fcur, slope)
        if step is None:
            reason = "line_search_exhausted"
            break
        cfg, fcur = step
        table = build_pair_table(cfg, params)
        iterations = it + 1

    resid, resid_cc = residuals(cfg, table)
    if reason == "max_iter" and is_cc(cfg, resid_cc):  # the last step reached a CC
        reason = "converged"
    # Laura-Andoyer residuals vanish identically on collinear configurations,
    # so a rank-deficient final span is a collapse even when "converged".
    _, final_dim = twist_span_basis(cfg)
    collapse = collapse or final_dim < full_dim
    i_drift = abs(moment_of_inertia(cfg) / moment_of_inertia(config) - 1.0)
    return DescentReport(cfg, iterations, resid, fcur, reason == "converged", collapse,
                         reason, newton_steps, i_drift, tuple(history))

import warnings
from pathlib import Path

import numpy as np
import pytest

from twistcc.geometry import (GeometryError, PlanarConfig, PotentialParams,
                              build_pair_table, cartesian_gradient_f, center_of_mass,
                              euler_residual, f_value, load_config, moment_of_inertia,
                              potential_u)
from twistcc.hessian import assemble_twist_hessian
from twistcc.solver import (CURVATURE_FLOOR, NEWTON_F_ULPS, DescentReport, FlowSpec,
                            _armijo_step, _newton_step, _span_derivatives, _span_steps,
                            descend, flow_fixed_combo, rescale_to_cc_size)
from twistcc.twist import cc_residual, max_laura_andoyer, twist_span_basis, twist_vector

from oracles import (armijo_step_loop, coincident_ref, curvature_step_loop,
                     equilateral_config, flow_loop, random_config, square_config)

DATA = Path(__file__).resolve().parent.parent / "data"
STOP_REASONS = {"converged", "collapse", "zero_direction", "line_search_exhausted",
                "max_iter"}


def assert_f_never_increases(report: DescentReport):
    """f never increases along the history, except by at most NEWTON_F_ULPS
    ulp on the last step of a converged run: a Newton step onto a CC."""
    fs = [h[2] for h in report.history]
    assert all(b <= a for a, b in zip(fs, fs[1:-1]))
    if len(fs) > 1 and fs[-1] > fs[-2]:
        assert report.converged and fs[-1] - fs[-2] <= NEWTON_F_ULPS * np.spacing(abs(fs[-2]))


def drift(traj):
    I0 = moment_of_inertia(traj[0])
    c0 = center_of_mass(traj[0])
    dI = max(abs(moment_of_inertia(c) - I0) for c in traj) / I0
    dc = max(np.linalg.norm(center_of_mass(c) - c0) for c in traj)
    return dI, dc


def test_flow_spec_validation():
    with pytest.raises(ValueError):
        FlowSpec(terms=((0.0, (0, 1)),), dt=1e-3, steps=10)
    with pytest.raises(ValueError):
        FlowSpec(terms=((1.0, (0, 1)),), dt=-1e-3, steps=10)


def test_flow_conserves_I_and_c():
    cfg = square_config()
    spec = FlowSpec(terms=((1.0, (0, 1)), (1.0, (0, 2)), (1.0, (0, 3))),
                    dt=1e-3, steps=1000)
    traj = flow_fixed_combo(cfg, spec)
    assert len(traj) == 1001
    dI, dc = drift(traj)
    assert dI < 1e-8
    assert dc < 1e-10 * cfg.diameter()


def test_single_pair_flow_is_rigid_rotation():
    cfg = square_config()
    spec = FlowSpec(terms=((1.0, (0, 2)),), dt=1e-3, steps=500)
    traj = flow_fixed_combo(cfg, spec)
    r0 = np.linalg.norm(traj[0].points[0] - traj[0].points[2])
    for c in traj[::50]:
        assert np.linalg.norm(c.points[0] - c.points[2]) == pytest.approx(r0, abs=1e-9)
        # untouched bodies stay fixed
        assert np.allclose(c.points[1], traj[0].points[1])
        assert np.allclose(c.points[3], traj[0].points[3])


def test_flow_order_check():
    # fourth-order integrator: halving dt over the same time span shrinks
    # the I-drift by at least 8x (run above the rounding floor)
    cfg = square_config()
    terms = ((1.0, (0, 1)), (1.0, (0, 2)), (1.0, (0, 3)))
    coarse = flow_fixed_combo(cfg, FlowSpec(terms, dt=0.04, steps=200))
    fine = flow_fixed_combo(cfg, FlowSpec(terms, dt=0.02, steps=400))
    dI_c, _ = drift(coarse)
    dI_f, _ = drift(fine)
    assert dI_c / dI_f >= 8.0


def test_flow_reproducible():
    cfg = square_config()
    spec = FlowSpec(terms=((1.0, (0, 1)), (0.5, (2, 3))), dt=1e-3, steps=100)
    t1 = flow_fixed_combo(cfg, spec)
    t2 = flow_fixed_combo(cfg, spec)
    assert all(np.array_equal(a.positions, b.positions) for a, b in zip(t1, t2))


def test_rescale_to_cc_size(rng, newton):
    cfg = equilateral_config()
    scaled = rescale_to_cc_size(cfg, newton)
    assert np.abs(scaled.positions - cfg.positions).max() < 1e-15
    for _ in range(10):
        c = random_config(rng, 4)
        r = rescale_to_cc_size(c, newton)
        MI = r.masses.sum() * moment_of_inertia(r)
        assert abs(euler_residual(r, newton)) < 1e-12 * MI


def test_descend_already_critical(newton):
    report = descend(equilateral_config((1, 2, 3)), newton, tol=1e-10)
    assert report.converged
    assert report.iterations == 0


def test_descend_refuses_a_negative_max_iter(newton):
    with pytest.raises(ValueError, match="max_iter"):
        descend(equilateral_config((1, 2, 3)), newton, max_iter=-1)


def test_descend_square_1135(newton):
    report = descend(square_config((1.0, 1.0, 3.0, 5.0)), newton,
                     tol=1e-10, max_iter=50000, record=True)
    assert report.converged
    assert not report.collinear_collapse
    assert report.max_la_residual < 1e-10
    fixed = rescale_to_cc_size(report.config, newton)
    MI = fixed.masses.sum() * moment_of_inertia(fixed)
    assert abs(euler_residual(fixed, newton)) < 1e-12 * MI
    # at the rescaled size every first-order residual vanishes
    assert cc_residual(fixed, newton, tol=1e-10).is_cc
    # f never increases across accepted iterates
    fs = [h[2] for h in report.history]
    assert all(b <= a + 1e-15 for a, b in zip(fs, fs[1:]))


def test_descend_collinear_start_flags_collapse(newton):
    cfg = PlanarConfig.from_points([(-1.0, 0.0), (0.2, 0.0), (1.1, 0.0)], (1, 2, 3))
    report = descend(cfg, newton, tol=1e-30, max_iter=50, record=True)
    assert report.collinear_collapse
    # the twists keep a collinear configuration collinear: no step is taken
    assert report.reason == "collapse" and report.iterations == 0
    assert len(report.history) == 1 and report.config is cfg


def cli_random_start(n: int, seed: int) -> PlanarConfig:
    """The start of `twistcc descend --random n --seed seed`."""
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.uniform(-1, 1, (n, 2))
        d = pts[:, None, :] - pts[None, :, :]
        if np.hypot(d[..., 0], d[..., 1])[np.triu_indices(n, 1)].min() > 0.2:
            return PlanarConfig.from_points(pts, np.ones(n))


# The random-start suite: n in {4, 5, 6, 8} x seeds 0-9, default cap.
SUITE = [(n, s) for n in (4, 5, 6, 8) for s in range(10)]


def saddle_start(params: PotentialParams, offset: float) -> PlanarConfig:
    """Four equal masses, three at the corners of an equilateral triangle
    about the fourth: a CC of index 2, so a saddle of f.  Moved `offset` times
    its diameter along the twist-Hessian eigenvector of most negative
    curvature, from where Newton candidates climb back up to the saddle."""
    half = np.sqrt(3.0) / 2.0
    cc = rescale_to_cc_size(PlanarConfig.from_points(
        [(0.0, 0.0), (1.0, 0.0), (-0.5, half), (-0.5, -half)], (1, 1, 1, 1)), params)
    table = build_pair_table(cc, params)
    basis, _ = twist_span_basis(table)
    E = np.linalg.eigh(assemble_twist_hessian(table, basis).matrix)[1]
    d = np.vstack([twist_vector(cc, p) for p in basis]).T @ E[:, 0]
    return cc.with_positions(cc.positions + offset * cc.diameter() / np.linalg.norm(d) * d)


@pytest.fixture(scope="module")
def suite_runs():
    """{start: (report, number of `_newton_step` calls, number of curvature
    steps taken)} over the suite; a curvature step is taken when the line
    search along a curvature step of `_span_steps` finds a step."""
    from twistcc import solver
    params = PotentialParams(3.0)
    runs = {}
    calls = []
    directions = []
    taken = []

    def steps(*args, span_steps=solver._span_steps):
        found = span_steps(*args)
        directions.append(found[1])
        return found

    def armijo(cfg, params, d, *args, search=solver._armijo_step):
        found = search(cfg, params, d, *args)
        taken.append(found is not None and any(d is p for p in directions))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_step",
                   lambda *args, step=solver._newton_step: calls.append(1) or step(*args))
        mp.setattr(solver, "_span_steps", steps)
        mp.setattr(solver, "_armijo_step", armijo)
        for n, s in SUITE:
            for seen in (calls, directions, taken):
                seen.clear()
            report = descend(cli_random_start(n, s), params, record=True)
            runs[n, s] = report, len(calls), sum(taken)
    return runs


@pytest.fixture(scope="module")
def suite_reports(suite_runs):
    return {k: report for k, (report, *_) in suite_runs.items()}


def test_newton_rejected_counts_every_refused_candidate(monkeypatch, suite_runs, newton):
    for k, (report, calls, _) in suite_runs.items():
        assert report.newton_steps + report.newton_rejected == calls, k
    # thousands of refusals on this start would mean the slow path is back
    assert suite_runs[6, 4][0].newton_rejected == 1
    # candidates that fail to build count too: a Newton step that is not finite
    from twistcc import solver
    monkeypatch.setattr(solver, "_span_steps", lambda V, g, H, span_steps=solver._span_steps:
                        (np.full_like(g, np.inf), span_steps(V, g, H)[1]))
    with np.errstate(all="ignore"):
        report = descend(saddle_start(newton, 1e-6), newton, max_iter=5)
    assert report.iterations == 5
    assert report.newton_steps == 0 and report.newton_rejected == 5


def test_every_iteration_is_a_newton_or_curvature_step(suite_runs, newton, monkeypatch):
    for k, (report, _, curvature) in suite_runs.items():
        assert report.newton_steps + curvature == report.iterations, k
    # without a curvature direction the run stops where it starts
    from twistcc import solver
    monkeypatch.setattr(solver, "_span_steps", lambda V, g, H: (None, None))
    report = descend(cli_random_start(5, 0), newton, max_iter=20)
    assert report.reason == "zero_direction" and report.iterations == 0
    assert not report.converged and not report.collinear_collapse


def test_descend_start_suite_converges(suite_reports, newton):
    converged = [k for k, r in suite_reports.items() if r.converged]
    assert len(converged) == 40
    # the two slow starts of the former first-order descent (2,643 and 5,541 iterations)
    assert suite_reports[6, 3].iterations <= 100 and suite_reports[4, 4].iterations <= 100
    for k in converged:
        fixed = rescale_to_cc_size(suite_reports[k].config, newton)
        assert cc_residual(fixed, newton, tol=1e-10).is_cc, k
    for r in suite_reports.values():
        assert (r.reason == "converged") == r.converged
        assert r.reason in STOP_REASONS
        assert 0 <= r.newton_steps <= r.iterations
        fs = [h[2] for h in r.history]
        assert len(fs) == r.iterations + 1 and fs[-1] == r.f_value
        assert_f_never_increases(r)
    # three starts end on a Newton step onto a CC whose f is one ulp above the
    # iterate's, at the rounding floor of f
    raised = {k for k, r in suite_reports.items()
              if r.history[-1][2] > r.history[-2][2]}
    assert raised == {(8, 1), (8, 4), (8, 7)}


def test_descent_iterates_sit_at_the_cc_size(suite_reports, newton):
    # each curvature step is retracted to U = M*I and each Newton candidate is
    # built there, so only the start is off the CC size
    for k, r in suite_reports.items():
        for _, x, *_ in r.history[1:]:
            cfg = PlanarConfig(x, r.config.masses)
            ratio = cfg.masses.sum() * moment_of_inertia(cfg) / potential_u(cfg, newton)
            assert abs(ratio - 1.0) <= 1e-12, k


def test_descend_at_a_equal_10_converges_in_few_iterations():
    # the retraction keeps M*I/U = 1, so the Newton switch reads the residual
    # itself, not one amplified by M*I/U (361 iterations without it)
    params = PotentialParams(10.0)
    report = descend(cli_random_start(3, 0), params, record=True)
    assert report.converged and report.iterations <= 20
    assert cc_residual(rescale_to_cc_size(report.config, params), params).is_cc
    assert_f_never_increases(report)


# Beyond A = 3: the potential exponent in {2.5, 6, 10} x n in {3, 4, 6} x seeds 0-4.
WIDE = [(A, n, s) for A in (2.5, 6.0, 10.0) for n in (3, 4, 6) for s in range(5)]


def test_descend_converges_beyond_a_equal_3():
    # on (A 10, n 3, seed 1) the Newton candidates reach a CC one ulp of f
    # above the iterate, where curvature steps leave f and the residual
    # unchanged: it converges only if such a candidate is kept
    for A, n, s in WIDE:
        params = PotentialParams(A)
        report = descend(cli_random_start(n, s), params, record=True)
        assert report.converged and report.reason == "converged", (A, n, s)
        fixed = rescale_to_cc_size(report.config, params)
        assert cc_residual(fixed, params, tol=1e-10).is_cc, (A, n, s)
        assert_f_never_increases(report)


def test_newton_candidate_kept_iff_it_lowers_f_and_residual(monkeypatch, newton):
    # kept iff it lowers f, or it lowers the residual and does not raise f, or
    # it lowers the residual and raises f by at most NEWTON_F_ULPS ulp onto a CC
    from twistcc import solver
    tried = []
    newton_step = solver._newton_step

    def recorded(table, x, *derivatives):
        cand = newton_step(table, x, *derivatives)
        tried.append((x, cand.config))
        return cand

    monkeypatch.setattr(solver, "_newton_step", recorded)

    def resid_cc(cfg):
        ratio = cfg.masses.sum() * moment_of_inertia(cfg) / potential_u(cfg, newton)
        return max_laura_andoyer(build_pair_table(cfg, newton)) * max(1.0, ratio)

    def onto_cc(cfg):
        return resid_cc(cfg) < 1e-10 and cc_residual(rescale_to_cc_size(cfg, newton),
                                                     newton).is_cc

    kinds = set()
    for start in ((8, 4), (8, 8)):
        tried.clear()
        report = descend(cli_random_start(*start), newton, record=True)
        assert report.converged
        positions = [h[1].tobytes() for h in report.history]
        kept = 0
        for x, cand in tried:
            cfg = PlanarConfig(x, cand.masses)
            k = positions.index(x.tobytes())
            f, fcand = f_value(cfg, newton), f_value(cand, newton)
            rounding = fcand - f <= NEWTON_F_ULPS * np.spacing(abs(f)) and onto_cc(cand)
            kind = (resid_cc(cand) < resid_cc(cfg), fcand < f, fcand <= f, rounding)
            keep = kind[1] or (kind[0] and (kind[2] or kind[3]))
            assert (positions[k + 1] == cand.positions.tobytes()) == keep, (start, k)
            kinds.add(kind)
            kept += keep
        assert report.newton_steps == kept
    assert {kind[:2] for kind in kinds} == {(True, True), (True, False), (False, True),
                                            (False, False)}
    assert (True, False, False, True) in kinds     # kept: f one ulp up, onto a CC
    assert (True, False, False, False) in kinds    # refused: f up, not onto a CC
    assert (False, True, True, False) in kinds     # kept: f down, the residual up


def test_descend_converged_means_cc_at_rescaled_size(suite_reports, newton):
    # `converged` is `eval`'s is_cc at the rescaled size, LA and AC residuals
    # both, on every start of the suite.  The `--random 4 --seed 8` start used
    # to stop on its line search with the LA residual below tol only before
    # the rescale; the Newton polish now takes it to a CC.
    for k, report in suite_reports.items():
        fixed = rescale_to_cc_size(report.config, newton)
        assert report.converged == cc_residual(fixed, newton, tol=1e-10).is_cc, k
    assert suite_reports[4, 8].converged


def test_newton_polish_from_perturbed_lagrange():
    cfg, params = load_config(DATA / "lagrange_123.json")
    rng = np.random.default_rng(3)
    for _ in range(3):
        start = rescale_to_cc_size(
            cfg.with_positions(cfg.positions + 1e-4 * rng.standard_normal(6)), params)
        report = descend(start, params, tol=1e-13, max_iter=4, record=True)
        assert report.converged and report.reason == "converged"
        assert report.newton_steps == report.iterations <= 4
        fixed = rescale_to_cc_size(report.config, params)
        assert cc_residual(fixed, params, tol=1e-13).max_la < 1e-13
        resid = [h[3] for h in report.history]
        assert all(b < a for a, b in zip(resid, resid[1:]))


def test_max_step_i_drift_is_the_largest_non_newton_step(monkeypatch, newton):
    # every accepted step that is not a Newton step is an Armijo point of a
    # curvature line search: recount |I'/I - 1| over those
    from twistcc import solver
    drifts = []

    def armijo(cfg, params, d, *args, search=solver._armijo_step):
        found = search(cfg, params, d, *args)
        if found is not None:
            drifts.append(abs(moment_of_inertia(found.config) / moment_of_inertia(cfg) - 1.0))
        return found

    monkeypatch.setattr(solver, "_armijo_step", armijo)
    for n, s in ((4, 4), (6, 1), (6, 3), (8, 0)):
        drifts.clear()
        report = descend(cli_random_start(n, s), newton)
        assert report.iterations > report.newton_steps and drifts
        assert report.max_step_i_drift == pytest.approx(max(drifts), rel=1e-9)
    # the Newton polish alone moves no step along the twists
    cfg, params = load_config(DATA / "lagrange_123.json")
    step = 1e-4 * np.random.default_rng(3).standard_normal(6)
    drifts.clear()
    report = descend(rescale_to_cc_size(cfg.with_positions(cfg.positions + step), params),
                     params, tol=1e-13, max_iter=4)
    assert report.newton_steps == report.iterations > 0 and not drifts
    assert report.max_step_i_drift == 0.0 < report.i_drift


def test_descend_leaves_a_saddle(newton):
    # the curvature step scales by |lam|, so it moves away from a saddle of f
    # along its negative curvature while the Newton polish is refused
    saddle = saddle_start(newton, 0.0)
    report = descend(saddle_start(newton, 1e-6), newton, record=True)
    assert report.converged and report.newton_rejected > 0
    # a CC other than the saddle, below it
    assert report.f_value < f_value(saddle, newton) - 1e-6
    assert_f_never_increases(report)


def test_curvature_step_matches_loop(rng, newton):
    # the direction of the loop reference, in the twist span and downhill; its
    # line search from the full step accepts the sequential search's row
    floored = 0
    for n in (3, 4, 8, 20):
        for _ in range(3):
            cfg = random_config(rng, n)
            table = build_pair_table(cfg, newton)
            basis, _ = twist_span_basis(table)
            V, g, H = _span_derivatives(table, basis)
            p = _span_steps(V, g, H)[1]
            ref, mags = curvature_step_loop(cfg, newton, basis)
            assert np.linalg.norm(p - ref) <= 1e-10 * np.linalg.norm(ref), n
            twists = np.vstack([twist_vector(cfg, (i, j))
                                for i in range(n) for j in range(i + 1, n)])
            inside = twists.T @ np.linalg.lstsq(twists.T, p, rcond=None)[0]
            assert np.linalg.norm(p - inside) <= 1e-10 * np.linalg.norm(p), n
            slope = float(g @ p)
            assert slope > 0.0
            fcur = f_value(cfg, newton)
            got = _armijo_step(cfg, newton, p, fcur, slope)
            want = armijo_step_loop(cfg, newton, p, fcur, slope)
            assert got.config.positions.tobytes() == want[0].tobytes() and got.f == want[1]
            floored += sum(m == CURVATURE_FLOOR * max(mags) for m in mags)
    assert floored > 0      # some curvatures were raised to the floor
    # at a CC the rotation's curvature vanishes and is dropped
    cc = saddle_start(newton, 0.0)
    table = build_pair_table(cc, newton)
    basis, _ = twist_span_basis(table)
    ref, mags = curvature_step_loop(cc, newton, basis)
    assert mags.count(0.0) == 1
    p = _span_steps(*_span_derivatives(table, basis))[1]
    assert np.linalg.norm(p - ref) <= 1e-10 * np.linalg.norm(ref)


def test_span_steps_depend_on_the_span_alone(rng, newton):
    # the steps of the twists V and of T V, for an invertible T, agree to
    # rounding; away from a CC no curvature is dropped, and the Newton step is
    # V^T c with c the solution of the twist-basis system (V H V^T) c = V g,
    # which loses digits with the condition of V H V^T
    for n in (3, 4, 8, 20):
        for _ in range(3):
            cfg = random_config(rng, n)
            table = build_pair_table(cfg, newton)
            V, g, H = _span_derivatives(table, twist_span_basis(table)[0])
            T = rng.standard_normal((len(V), len(V)))
            assert np.linalg.cond(T) < 1e4
            newton_p, p = _span_steps(V, g, H)
            newton_t, p_t = _span_steps(T @ V, g, H)
            assert np.linalg.norm(newton_t - newton_p) <= 1e-10 * np.linalg.norm(newton_p), n
            assert np.linalg.norm(p_t - p) <= 1e-10 * np.linalg.norm(p), n
            K = V @ H @ V.T
            ref = V.T @ np.linalg.solve(K, V @ g)
            assert (np.linalg.norm(newton_p - ref)
                    <= 1e-13 * np.linalg.cond(K) * np.linalg.norm(ref)), n


def test_armijo_step_matches_sequential_loop(rng, newton):
    seen = set()
    for n in (3, 4, 8, 20):
        for _ in range(4):
            cfg = random_config(rng, n)
            g = cartesian_gradient_f(cfg, newton)
            fcur = f_value(cfg, newton)
            slope = float(g @ g)
            collide = np.zeros(2 * n)
            collide[0:2] = cfg.points[0] - cfg.points[1]  # at eta = 1 body 0 lands on body 1
            # the full step makes pair differences beyond the largest double
            huge = g / np.abs(g).max() * np.finfo(float).max
            # each step length folded into d and the slope g . d
            eta = 1e-2 * cfg.diameter() / np.linalg.norm(g)
            cases = [
                ("descent", eta * g, eta * slope),
                ("long", 1e3 * g, 1e3 * slope),
                ("ascent", -1e-2 * g, 1e-2 * slope),
                ("collide", collide, -1e6),
                ("overflow", huge, -np.inf),
            ]
            for name, d, sl in cases:
                with np.errstate(all="ignore"):
                    ref = armijo_step_loop(cfg, newton, d, fcur, sl)
                    got = _armijo_step(cfg, newton, d, fcur, sl)
                assert (got is None) == (ref is None), name
                if ref is not None:
                    assert got[0].positions.tobytes() == ref[0].tobytes(), name
                    assert got[1] == ref[1], name
                    # the accepted row carries the I and U of its configuration
                    with np.errstate(all="ignore"):
                        carried = (moment_of_inertia(got.config),
                                   potential_u(got.config, newton))
                    assert np.array(carried).tobytes() == np.array(got[2:]).tobytes(), name
                    seen.add(name)
            first = cfg.positions - collide
            assert coincident_ref(first.reshape(-1, 2))
    # the collision and overflow cases reject their first trials, then accept one
    assert {"descent", "long", "collide", "overflow"} <= seen


def test_descend_iteration_builds_one_pair_table(monkeypatch, rng, newton):
    from twistcc import geometry, solver, twist
    calls = []
    for mod in (geometry, solver, twist):
        monkeypatch.setattr(mod, "build_pair_table",
                            lambda c, p, build=mod.build_pair_table: calls.append(1) or build(c, p))
    report = descend(random_config(rng, 5), newton, max_iter=6)
    assert report.iterations == 6
    assert len(calls) == report.iterations + 1  # the start, then one per accepted step


def test_descend_iteration_builds_one_hessian(monkeypatch, newton):
    # the Newton polish and the curvature step share V, g and H, so a refused
    # candidate costs no second Hessian
    from twistcc import solver
    calls = []
    monkeypatch.setattr(solver, "_cartesian_hessian",
                        lambda t, hessian=solver._cartesian_hessian: calls.append(1) or hessian(t))
    report = descend(saddle_start(newton, 1e-6), newton, max_iter=12)
    assert report.newton_rejected == 12
    assert len(calls) == 12


def test_descend_computes_one_gradient_per_pair_table(monkeypatch, newton):
    # the residual, the steps and the Newton keep test share the gradient of
    # their table: every pair table the descent builds (iterates, Newton
    # candidates kept or refused, and `is_cc`'s) has its gradient computed once
    from twistcc import solver, twist
    built, gradients = [], []
    for mod in (solver, twist):
        monkeypatch.setattr(mod, "build_pair_table",
                            lambda c, p, build=mod.build_pair_table: built.append(build(c, p))
                            or built[-1])
        monkeypatch.setattr(mod, "_gradient_f",
                            lambda t, grad=mod._gradient_f: gradients.append(t) or grad(t))
    square = descend(square_config((1.0, 1.0, 3.0, 5.0)), newton)
    saddle = descend(saddle_start(newton, 1e-6), newton, max_iter=12)
    assert square.converged and square.newton_steps > 0 and saddle.newton_rejected == 12
    assert sorted(map(id, gradients)) == sorted(map(id, built))


def newton_step_ref(cfg, params, p):
    """(candidate, f) of the Newton step x - p through the public
    constructors, or None where one of them raises."""
    try:
        cand = rescale_to_cc_size(cfg.with_positions(cfg.positions - p), params)
    except GeometryError:
        return None
    return cand, f_value(cand, params)


def test_newton_step_matches_public_constructors(rng, newton):
    lagrange, _ = load_config(DATA / "lagrange_123.json")
    cfgs = [lagrange, square_config()] + [random_config(rng, n) for n in (3, 4, 5, 8)]
    for cfg in cfgs:
        table = build_pair_table(cfg, newton)
        basis, _ = twist_span_basis(table)
        V = np.vstack([twist_vector(cfg, p) for p in basis])
        # a step in the twist span that puts body 0 on body 1
        q = cfg.points
        onto = np.linalg.lstsq(V[:, 0:2].T - V[:, 2:4].T, q[1] - q[0], rcond=None)[0]
        newton_p = _span_steps(*_span_derivatives(table, basis))[0]
        # the solved step makes a candidate; one that overflows the rescale, one
        # that is not finite and one onto a collision cannot
        steps = [newton_p, -V.T @ np.full(len(basis), 1e300),
                 np.full(2 * cfg.n, np.inf), -V.T @ onto]
        for k, step in enumerate(steps):
            with np.errstate(all="ignore"):
                got = _newton_step(table, cfg.positions, step)
                ref = newton_step_ref(cfg, newton, step)
            assert (got is None) == (ref is None) == (k > 0)
            if ref is None:
                continue
            cand, f = ref
            for name in ("positions", "masses", "pair_distances"):
                assert getattr(got.config, name).tobytes() == getattr(cand, name).tobytes()
            assert not got.config.positions.flags.writeable
            assert got.f == f
            assert got.inertia == moment_of_inertia(cand)
            assert got.potential == potential_u(cand, newton)


def test_descend_validates_a_bounded_number_of_configurations(monkeypatch, newton):
    # accepted steps and Newton candidates are carried from their row passes,
    # so the number of validations does not grow with the iterations
    post_init = PlanarConfig.__post_init__
    for start in (cli_random_start(6, 7), saddle_start(newton, 1e-6)):
        counts = []
        for max_iter in (6, 11):
            calls = []
            monkeypatch.setattr(PlanarConfig, "__post_init__",
                                lambda self: calls.append(1) or post_init(self))
            report = descend(start, newton, max_iter=max_iter)
            monkeypatch.undo()
            assert report.iterations == max_iter and not report.converged
            counts.append(len(calls))
        assert counts[0] == counts[1]
    assert report.newton_rejected == 11  # the second start tried a candidate each time


def test_flow_validates_its_steps_in_one_row_pass(monkeypatch):
    # every step is checked in one row pass and none is built through
    # __post_init__; the trajectory equals the per-step loop's, which stops
    # at the first step that is not a PlanarConfig
    square = load_config(DATA / "square_1135.json")[0]
    orbit = FlowSpec(((1.0, (0, 1)),), 0.5, 3)
    # body 2 sits where body 0 arrives after two steps (pair 0-1 moves only bodies 0, 1)
    meet = flow_fixed_combo(PlanarConfig.from_points([[0, 0], [1, 0], [5, 5]], [1, 2, 1]),
                            orbit)[2].points[0]
    crossing = PlanarConfig.from_points([[0, 0], [1, 0], meet], [1, 2, 1])
    post_init = PlanarConfig.__post_init__
    for config, spec, completed in (
            (square, FlowSpec(((1.0, (0, 1)), (1.0, (0, 2)), (1.0, (0, 3))), 1e-3, 1000), 1000),
            (square, FlowSpec(((0.3, (0, 1)), (0.7, (2, 3)), (-1.1, (1, 2))), 1e-3, 1000), 1000),
            (square, FlowSpec(((1e300, (0, 1)),), 1.0, 5), 0),   # overflows in step 1
            (crossing, orbit, 1)):
        calls = []
        monkeypatch.setattr(PlanarConfig, "__post_init__",
                            lambda self: calls.append(1) or post_init(self))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = flow_fixed_combo(config, spec)
        monkeypatch.undo()
        assert not calls
        assert len(traj) == completed + 1
        want = flow_loop(config, spec)
        assert len(want) == len(traj)
        for got, ref in zip(traj, want):
            for name in ("positions", "masses", "pair_distances"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
            assert not got.positions.flags.writeable

"""Time integration: stages, stability control, conservation, run loop."""

from __future__ import annotations

import dataclasses
import json
import math
import os

import mpmath as mp
import numpy as np
import pytest

from horoflow import (
    AmbientCurvature,
    ConfigurationError,
    DomainError,
    FlowParams,
    GraphState,
    NumericalBlowupError,
    ParabolicityLostError,
    RunConfig,
    StiffnessError,
    flow,
    flow_rhs,
    geometry_from_graph,
    graphgeom,
    load_snapshot,
    make_grid,
    perturbed_sphere_state,
    run,
    sphere_state,
    stable_dt,
    step,
    volume_renormalize,
)
from horoflow.flow import (
    R_OSCILLATION_RTOL,
    RKC_ACCURACY,
    RKC_MAX_STAGES,
    average_speed,
    rkc_coefficients,
    rkc_plan,
    rkc_step,
    scaled_radius_limit,
)
from horoflow.graphgeom import (
    POLE_REGULARIZATION_CELLS,
    dt_limit,
    enclosed_volume_integrand,
    polar_filter,
)
from horoflow.oracle import linearized_rate, psi_inverse
from test_graphgeom import reference_full2d_geometry, reference_stable_dt

COTH1 = math.cosh(1.0) / math.sinh(1.0)


def make_config(params, initial, t_end=1.0, **overrides):
    return RunConfig(params=params, initial=initial, t_end=t_end, constants_samples=2000, **overrides)


def perturbed_config(params, n_theta=48, amplitude=0.05, radius=1.0, **overrides):
    grid = make_grid("axisymmetric", params.n, n_theta)
    initial = perturbed_sphere_state(grid, radius, 2, amplitude)
    return make_config(params, initial, **overrides)


def accuracy_dt(params, initial):
    """rkc's step from this axisymmetric initial state: RKC_ACCURACY / mu_2 about its limit sphere."""
    v0 = float(np.sum(initial.grid.weights * enclosed_volume_integrand(initial.r_flat, params)))
    return RKC_ACCURACY / linearized_rate(params, psi_inverse(v0, params), 2)


def diagnostics_dts(path):
    """The dt column of a diagnostics.csv, without the initial row's 0."""
    return np.loadtxt(path, delimiter=",", skiprows=2, usecols=-1, ndmin=1)[1:]


# ---------------------------------------------------------------------------
# Stage algebra
# ---------------------------------------------------------------------------


def test_step_control_validation(params_n2m1):
    with pytest.raises(DomainError, match="scheme must be one of rkc, heun, got 'rk4'"):
        perturbed_config(params_n2m1, scheme="rk4")


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("flow.t_end", {"t_end": math.nan}),
        ("flow.t_end", {"t_end": -1.0}),
        ("flow.record_interval", {"record_interval": 0.0}),
        ("flow.snapshot_interval", {"snapshot_interval": -1.0}),
        ("flow.f_tol", {"f_tol": math.inf}),
        ("constants.n_samples", {"constants_samples": 5}),
        ("constants.seed", {"constants_seed": -1}),
    ],
)
def test_run_config_rejects_out_of_domain_fields(params_n2m1, key, overrides):
    initial = sphere_state(make_grid("axisymmetric", 2, 16), 1.0)
    with pytest.raises(ConfigurationError) as err:
        RunConfig(params=params_n2m1, initial=initial, **{"t_end": 1.0, **overrides})
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith(key)


def test_run_config_reports_every_problem_and_the_grid_dimension(params_n3m2):
    initial = sphere_state(make_grid("axisymmetric", 2, 16), 1.0)
    with pytest.raises(ConfigurationError) as err:
        make_config(params_n3m2, initial, t_end=math.nan, record_interval=0.0)
    keys = [problem.split()[0] for problem in err.value.problems]
    assert keys == ["flow.t_end", "flow.record_interval", "initial.grid.n"]
    assert "does not match params.n" in err.value.problems[2]


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (4, 2)])
def test_run_config_bounds_the_radius_below_double_overflow(n, m, monkeypatch):
    monkeypatch.setattr(flow, "DEFAULT_MAX_STEPS", 5)
    params = FlowParams(n=n, m=m, beta=1.0, ac=AmbientCurvature(kappa=-1.0))
    grid = make_grid("axisymmetric", n, 16)
    limit = scaled_radius_limit(n, params.a)
    amplitude = 0.01  # the largest radius is r0 + amplitude, at theta = 0

    under = perturbed_sphere_state(grid, limit * (1.0 - 1e-4) - amplitude, 2, amplitude)
    # mu_2 is below 1e-140 about so large a sphere, so rkc's step, 0.05 / mu_2,
    # is cut to t_end: one step covers the run.
    config = RunConfig(params=params, initial=under, t_end=1.0, constants_samples=200)
    result = run(config)
    assert result.summary["status"] == "t_end" and result.summary["n_steps"] == 1
    cols = result.recorder.arrays()
    # At this radius the shifted spectrum lam - a rounds to 0, where the
    # pinching ratio is undefined by design.
    for name in set(cols) - {"Qtilde_min", "f_max"}:
        assert np.all(np.isfinite(cols[name])), name

    over = perturbed_sphere_state(grid, limit * (1.0 + 1e-4) - amplitude, 2, amplitude)
    with pytest.raises(ConfigurationError) as err:
        RunConfig(params=params, initial=over, t_end=1.0)
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith("initial.r0 and params.kappa")


def test_average_speed_on_sphere(params_n2m1):
    state = sphere_state(make_grid("axisymmetric", 2, 96), 1.0)
    fields = geometry_from_graph(state, params_n2m1)
    assert average_speed(fields) == pytest.approx(COTH1, abs=1e-14)


def test_rhs_vanishes_on_spheres():
    for n, m, beta in ((2, 1, 1.0), (3, 2, 1.0), (2, 2, 1.0)):
        params = FlowParams(n=n, m=m, beta=beta, ac=AmbientCurvature(kappa=-1.0))
        state = sphere_state(make_grid("axisymmetric", n, 96), 1.0)
        assert np.max(np.abs(flow_rhs(state, params))) < 1e-13
    params = FlowParams(n=2, m=1, beta=1.0, ac=AmbientCurvature(kappa=-1.0))
    state = sphere_state(make_grid("axisymmetric", 2, 128), 1.0)
    for _ in range(200):
        state = step(state, params)
    assert float(np.max(np.abs(state.r - 1.0))) < 1e-12


def test_heun_step_is_the_documented_two_stage_average(params_n2m1):
    state = perturbed_sphere_state(make_grid("axisymmetric", 2, 64), 1.0, 2, 0.05)
    dt = 5e-4
    k1 = flow_rhs(state, params_n2m1)
    trial = GraphState(t=state.t + dt, grid=state.grid, r=state.r + dt * k1)
    k2 = flow_rhs(trial, params_n2m1)
    expected = state.r + (0.5 * dt) * (k1 + k2)
    result = step(state, params_n2m1, dt=dt)
    assert np.array_equal(result.r, expected)
    assert result.t == state.t + dt


def test_stage_that_leaves_the_graph_domain_raises_blowup(params_n2m1):
    state = perturbed_sphere_state(make_grid("axisymmetric", 2, 64), 1.0, 2, 0.05)
    with pytest.raises(NumericalBlowupError, match="left the graph domain"):
        step(state, params_n2m1, dt=100.0)
    # RKC's first stage moves by mu~_1 dt F_0: Heun's trial step at dt = 100.
    dt = 100.0 / rkc_coefficients(4)[3][0]
    with pytest.raises(NumericalBlowupError, match="left the graph domain"):
        rkc_step(state, params_n2m1, dt, 4)


# ---------------------------------------------------------------------------
# High-precision recomputation of the semi-discrete right-hand side
# ---------------------------------------------------------------------------


def mp_axisym_rhs(state, params):
    """Recompute dr/dt at 50 digits with the same stencils, for n = 2.

    Every r-dependent quantity (ghost reflection, central differences, the
    pole switch of the azimuthal Hessian, curvatures, speed, area average)
    is rebuilt in mpmath; only the grid nodes and quadrature weights enter
    as exact copies of their float values.
    """
    mp.mp.dps = 50
    grid = state.grid
    N = grid.n_theta
    hh = mp.mpf(grid.spacing_theta)
    r = [mp.mpf(float(x)) for x in state.r]
    th = [mp.mpf(float(x)) for x in grid.theta]
    w = [mp.mpf(float(x)) for x in grid.weights]

    rp, rpp = [], []
    for i in range(N):
        left = r[i - 1] if i > 0 else r[1]
        right = r[i + 1] if i < N - 1 else r[N - 2]
        rp.append((right - left) / (2 * hh))
        rpp.append((right - 2 * r[i] + left) / (hh * hh))
    azim = [
        rpp[i]
        if i < POLE_REGULARIZATION_CELLS or i >= N - POLE_REGULARIZATION_CELLS
        else rp[i] / mp.tan(th[i])
        for i in range(N)
    ]

    lam_t, lam_a, xi, s = [], [], [], []
    for i in range(N):
        si, ci = mp.sinh(r[i]), mp.cosh(r[i])
        xi_sq = si * si + rp[i] * rp[i]
        xin = mp.sqrt(xi_sq)
        h_tt = -(si * rpp[i] - si * si * ci - 2 * ci * rp[i] * rp[i]) / xin
        h_aa = -(si * azim[i] - si * si * ci) / xin
        lam_t.append(h_tt / xi_sq)
        lam_a.append(h_aa / (si * si))
        xi.append(xin)
        s.append(si)

    if params.m == 1:
        F = [(lam_t[i] + lam_a[i]) / 2 for i in range(N)]
    elif params.m == 2:
        F = [lam_t[i] * lam_a[i] for i in range(N)]
    else:
        raise NotImplementedError
    F = [f ** mp.mpf(float(params.beta)) for f in F]

    aw = [s[i] * xi[i] * w[i] for i in range(N)]
    fbar = mp.fsum(F[i] * aw[i] for i in range(N)) / mp.fsum(aw)
    return np.array([float((fbar - F[i]) * xi[i] / s[i]) for i in range(N)])


def test_rhs_matches_50_digit_recomputation():
    grid = make_grid("axisymmetric", 2, 64)
    state = perturbed_sphere_state(grid, 1.0, 3, 0.05)
    for m, beta in ((1, 1.0), (2, 1.0), (1, 2.0)):
        params = FlowParams(n=2, m=m, beta=beta, ac=AmbientCurvature(kappa=-1.0))
        got = flow_rhs(state, params)
        want = mp_axisym_rhs(state, params)
        assert np.max(np.abs(got - want)) < 1e-10, (m, beta)


# ---------------------------------------------------------------------------
# Temporal convergence order (fixed dt Richardson)
# ---------------------------------------------------------------------------


def integrate_fixed(state, params, dt, n_steps):
    for _ in range(n_steps):
        state = step(state, params, dt=dt)
    return state.r


def test_time_integration_orders(params_n2m1):
    state = perturbed_sphere_state(make_grid("axisymmetric", 2, 24), 1.0, 2, 0.05)
    t_end = 0.04
    # Heun at 2048 steps: its own error is (40/2048)^2 < 4e-4 of the k = 40 one.
    ref = integrate_fixed(state, params_n2m1, t_end / 2048, 2048)

    errs = [
        float(np.max(np.abs(integrate_fixed(state, params_n2m1, t_end / k, k) - ref)))
        for k in (10, 20, 40)
    ]
    heun_orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(heun_orders > 1.8), errs

    # RKC2 is second order at any stage count, against the same reference.
    for stages in (2, 5):
        errs = []
        for k in (10, 20, 40):
            current = state
            for _ in range(k):
                current = rkc_step(current, params_n2m1, t_end / k, stages)
            errs.append(float(np.max(np.abs(current.r - ref))))
        rkc_orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rkc_orders >= 1.8), (stages, errs)


def test_rkc_keeps_a_sphere_fixed_with_its_volume_closure(params_n3m2):
    grid = make_grid("axisymmetric", 3, 64)
    state = sphere_state(grid, 1.0)
    v0 = float(np.sum(grid.weights * enclosed_volume_integrand(state.r_flat, params_n3m2)))
    fields = geometry_from_graph(state, params_n3m2)
    dt_accurate = RKC_ACCURACY / linearized_rate(params_n3m2, 1.0, 2)
    stages, dt = rkc_plan(dt_accurate, stable_dt(fields, params_n3m2))
    assert stages > 2
    for _ in range(1000):
        state = volume_renormalize(rkc_step(state, params_n3m2, dt, stages), params_n3m2, v0)
    assert state.t == pytest.approx(1000 * dt, rel=1e-12)
    assert float(np.max(np.abs(state.r - 1.0))) < 1e-10


def test_rkc_keeps_heuns_decay_rate_on_a_small_sphere(params_n2m2):
    # About R = 0.3 the l = 2 mode decays at mu_2 of about 150, so a step of
    # 0.01 would span 1.5 e-folding times; the accuracy step keeps rkc on
    # Heun's rate there.
    results = {}
    for scheme in ("heun", "rkc"):
        config = perturbed_config(
            params_n2m2, n_theta=64, radius=0.3, amplitude=0.015, t_end=1.0,
            scheme=scheme,
        )
        results[scheme] = run(config)
        assert results[scheme].summary["status"] == "converged", scheme
    heun, rkc = (results[name].summary for name in ("heun", "rkc"))
    assert rkc["decay_fit"]["r_squared"] >= 0.99
    assert abs(rkc["decay_fit"]["rate"] / heun["decay_fit"]["rate"] - 1.0) <= 1e-3
    # Each step spans at most RKC_ACCURACY of the measured e-folding time 2 / rate.
    assert rkc["dt"]["max"] * heun["decay_fit"]["rate"] / 2.0 <= RKC_ACCURACY
    assert rkc["rhs_evaluations"] < heun["rhs_evaluations"]


def test_rkc_stage_count_covers_the_heun_interval_up_to_the_cap(params_n2m1, monkeypatch):
    dt_stable = 1e-4
    for dt in (5e-5, 1e-4, 1e-3, 1e-2):
        stages, taken = rkc_plan(dt, dt_stable)
        assert taken == dt
        assert rkc_coefficients(stages)[0] >= 2.0 * dt / dt_stable
        assert stages == 2 or rkc_coefficients(stages - 1)[0] < 2.0 * dt / dt_stable
    # Past the cap the stages stop growing and dt shrinks to what they cover.
    stages, taken = rkc_plan(1.0, dt_stable)
    assert stages == RKC_MAX_STAGES
    assert taken == 0.5 * rkc_coefficients(RKC_MAX_STAGES)[0] * dt_stable < 1.0
    # A run takes that step: at N = 512 the accuracy step (about 0.035)
    # would need about 75 stages.
    config = perturbed_config(params_n2m1, n_theta=512, t_end=10.0)
    monkeypatch.setattr(flow, "DEFAULT_MAX_STEPS", 3)
    result = run(config)
    cap = {"min": RKC_MAX_STAGES, "median": float(RKC_MAX_STAGES), "max": RKC_MAX_STAGES}
    assert result.summary["dt"]["stages"] == cap
    assert result.summary["rhs_evaluations"] == 3 * RKC_MAX_STAGES
    assert result.summary["dt"]["max"] < 0.03


# ---------------------------------------------------------------------------
# Stability step
# ---------------------------------------------------------------------------


def test_stable_dt_scaling_and_clamps(params_n2m1, monkeypatch):
    # stable_dt has one clamp, the DT_MIN floor that the stiffness abort reads.
    state = sphere_state(make_grid("axisymmetric", 2, 96), 1.0)
    fields = geometry_from_graph(state, params_n2m1)
    # n = 2, m = 1: the speed gradient is (1/2, 1/2), so the trace is 1, and
    # each grid mode takes its own step fraction.
    default = 0.4 * fields.min_spacing**2
    assert stable_dt(fields, params_n2m1) == pytest.approx(default, rel=1e-12)
    full2d = geometry_from_graph(sphere_state(make_grid("full2d", 2, 16, 32), 1.0), params_n2m1)
    default = 0.2 * full2d.min_spacing**2
    assert stable_dt(full2d, params_n2m1) == pytest.approx(default, rel=1e-12)
    monkeypatch.setattr(flow, "DT_MIN", 1e-3)
    assert stable_dt(fields, params_n2m1) == 1e-3


@pytest.mark.parametrize("mode", ["axisymmetric", "full2d"])
def test_a_heun_step_reaches_the_traced_speed_names(mode, params_n2m2, monkeypatch):
    # The benchmark tracer counts calls through graphgeom.speed and
    # flow.speed_gradient; a stage kernel that bypasses them reads 0 there.
    calls = []
    for owner, name in ((graphgeom, "speed"), (flow, "speed_gradient")):
        inner = getattr(owner, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    grid = make_grid(mode, 2, 32, 64 if mode == "full2d" else None)
    state = perturbed_sphere_state(grid, 1.0, 3, 0.04, mode_phi=2 if mode == "full2d" else 0)
    step(state, params_n2m2)
    assert sorted(calls) == ["speed", "speed", "speed_gradient"]


@pytest.mark.parametrize("n, m, beta", [(3, 2, 1.0), (3, 2, 1.5), (2, 1, 2.0)])
def test_stable_dt_on_spheres_follows_the_analytic_trace(n, m, beta):
    params = FlowParams(n=n, m=m, beta=beta, ac=AmbientCurvature(kappa=-1.0))
    fields = geometry_from_graph(sphere_state(make_grid("axisymmetric", n, 96), 1.0), params)
    # Every principal curvature is coth(1), so F = coth^(m beta) and the
    # gradient trace is its derivative in a common shift: m beta coth^(m beta - 1).
    mbeta = m * beta
    trace = mbeta * COTH1 ** (mbeta - 1.0)
    assert fields.min_spacing == pytest.approx(math.pi / 95 * math.sinh(1.0), rel=1e-14)
    default = 0.4 * fields.min_spacing**2 / trace
    assert stable_dt(fields, params) == pytest.approx(default, rel=1e-12)
    # The same trace, as the speed gradient sums it, sets mode l's linearized
    # rate (trace / n) (l(l + n - 1) - n) / sinh(1)^2; mode 1 does not decay.
    summed = float(flow.speed_gradient(fields.spectrum, params, trace=True).max())
    for l in (1, 2, 3):
        want = (summed / n) * (l * (l + n - 1) - n) / math.sinh(1.0) ** 2
        assert linearized_rate(params, 1.0, l) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Volume renormalization
# ---------------------------------------------------------------------------


def test_volume_renormalize_restores_v0(params_n2m1):
    grid = make_grid("axisymmetric", 2, 96)
    base = perturbed_sphere_state(grid, 1.0, 2, 0.05)
    v0 = float(np.sum(grid.weights * enclosed_volume_integrand(base.r_flat, params_n2m1)))
    drifted = GraphState(t=0.1, grid=grid, r=base.r * 1.02)
    fixed = volume_renormalize(drifted, params_n2m1, v0)
    v_fixed = float(np.sum(grid.weights * enclosed_volume_integrand(fixed.r_flat, params_n2m1)))
    assert abs(v_fixed - v0) <= 1e-12 * v0
    shift = fixed.r - drifted.r
    assert np.max(shift) - np.min(shift) < 1e-15  # uniform radial shift
    assert fixed.t == drifted.t


def test_volume_renormalize_is_identity_when_exact(params_n2m1):
    grid = make_grid("axisymmetric", 2, 64)
    state = sphere_state(grid, 1.0)
    v0 = float(np.sum(grid.weights * enclosed_volume_integrand(state.r_flat, params_n2m1)))
    assert volume_renormalize(state, params_n2m1, v0) is state


def test_volume_renormalize_rejects_large_drift(params_n2m1):
    grid = make_grid("axisymmetric", 2, 64)
    state = sphere_state(grid, 1.3)
    v0 = float(np.sum(grid.weights * enclosed_volume_integrand(np.full(64, 1.0), params_n2m1)))
    with pytest.raises(DomainError):
        volume_renormalize(state, params_n2m1, v0)


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


def test_sphere_converges_immediately(params_n2m1):
    grid = make_grid("axisymmetric", 2, 96)
    config = make_config(params_n2m1, sphere_state(grid, 1.0))
    result = run(config)
    assert result.summary["status"] == "converged"
    assert result.summary["converged"] is True
    assert result.summary["n_steps"] == 0
    assert np.array_equal(result.final_state.r, config.initial.r)
    assert result.summary["decay_fit"] is None
    assert result.summary["volume_drift"] == 0.0
    assert result.summary["stop"]["r_oscillation"] == 0.0
    assert result.summary["stop"]["roundness_deficit"] < 1e-8
    assert result.summary["abort"] is None


def test_runs_at_two_curvatures_share_one_constants_solve(monkeypatch):
    monkeypatch.setattr(flow, "_CONSTANTS_CACHE", {})
    summaries = []
    for kappa in (-1.0, -4.0):
        params = FlowParams(n=2, m=2, beta=1.0, ac=AmbientCurvature(kappa=kappa))
        config = make_config(params, sphere_state(make_grid("axisymmetric", 2, 32), 0.5))
        summaries.append(run(config).summary)
        assert len(flow._CONSTANTS_CACHE) == 1
    assert summaries[0]["constants"] == summaries[1]["constants"]


def test_converged_summary_reports_the_stopping_tests(params_n2m1):
    grid = make_grid("axisymmetric", 2, 16)
    initial = perturbed_sphere_state(grid, 1.0, 2, 0.02)
    result = run(make_config(params_n2m1, initial, t_end=50.0))
    assert result.summary["status"] == "converged" and result.summary["n_steps"] > 100
    r = result.final_state.r
    stop = result.summary["stop"]
    assert stop["r_oscillation"] == float((r.max() - r.min()) / (r.sum() / r.size))
    assert stop["r_oscillation"] < R_OSCILLATION_RTOL
    assert stop["roundness_deficit"] == 1.0 / 4.0 - result.recorder.records[-1].Qtilde_min
    assert stop["roundness_deficit"] < 1e-8
    unfinished = run(make_config(params_n2m1, initial, t_end=0.05))
    assert unfinished.summary["status"] == "t_end" and unfinished.summary["stop"] is None


def test_short_run_decays_and_conserves_volume(params_n2m1):
    config = perturbed_config(params_n2m1, t_end=0.6, scheme="heun")
    result = run(config)
    assert result.summary["status"] == "t_end"
    assert result.summary["n_steps"] > 100
    cols = result.recorder.arrays()
    assert cols["t"][0] == 0.0
    assert cols["t"][-1] == result.final_state.t
    assert np.all(np.diff(cols["t"]) > 0.0)
    v = cols["V"]
    assert np.max(np.abs(v - v[0])) / v[0] < 1e-8
    assert cols["f_max"][-1] < 0.2 * cols["f_max"][0]
    finite_q = cols["Qtilde_min"][np.isfinite(cols["Qtilde_min"])]
    assert np.all(np.diff(finite_q) > -1e-6)


def test_full2d_run_matches_the_tensor_assembly(tmp_path, params_n2m2, monkeypatch):
    grid = make_grid("full2d", 2, 16, 32)
    initial = perturbed_sphere_state(grid, 1.0, 2, 0.05, mode_phi=2)
    texts = []
    # The polar filter's dt takes about 430 Heun steps per unit time on 16 x 32.
    for name in ("a", "b"):
        out = str(tmp_path / name)
        result = run(make_config(params_n2m2, initial, t_end=0.3, output_dir=out, scheme="heun"))
        for file_name in ("diagnostics.csv", "summary.json"):
            with open(os.path.join(out, file_name)) as fh:
                texts.append(fh.read())
    assert texts[:2] == texts[2:]
    assert result.summary["status"] == "t_end" and result.summary["n_steps"] > 100
    cols = result.recorder.arrays()
    v = cols["V"]
    assert np.max(np.abs(v - v[0])) / v[0] <= 1e-6
    assert np.all(np.diff(cols["Qtilde_min"]) >= 0.0)

    monkeypatch.setattr(flow, "geometry_from_graph", reference_full2d_geometry)
    monkeypatch.setattr(flow, "stable_dt", reference_stable_dt)
    reference = run(make_config(params_n2m2, initial, t_end=0.3, scheme="heun"))
    assert reference.summary["n_steps"] == result.summary["n_steps"]
    want = reference.recorder.arrays()
    for name, got in cols.items():
        np.testing.assert_allclose(got, want[name], rtol=1e-12, atol=0.0, err_msg=name)


def test_full2d_sphere_is_an_equilibrium_at_the_filtered_dt(params_n2m2):
    grid = make_grid("full2d", 2, 16, 32)
    state = sphere_state(grid, 1.0)
    fields = geometry_from_graph(state, params_n2m2)
    # The step reads the filtered arc of the pole ring, K_0 = 2 of 16 bins:
    # min spacing spacing_phi * sin(theta_0) * 8 * sinh(1), not the chart's arc.
    arc = grid.spacing_phi * math.sin(grid.theta[0]) * 8.0 * math.sinh(1.0)
    assert fields.min_spacing == pytest.approx(arc, rel=1e-14)
    for _ in range(20):
        result = step(state, params_n2m2)
        assert result.t == state.t + stable_dt(fields, params_n2m2)
        state = result
        assert np.array_equal(state.r, np.full(grid.shape, 1.0))


def _unfiltered(grid):
    """The same full2d grid with an all-ones mask and the chart's pole arc."""
    return dataclasses.replace(
        grid,
        phi_mask=np.ones_like(grid.phi_mask),
        phi_arc_nodes=np.repeat(np.sin(grid.theta), grid.n_phi),
    )


def test_polar_filter_error_falls_under_refinement(params_n2m2):
    # The filter's error against the unfiltered discretisation (each at its
    # own, pole-limited Heun dt) falls as the grid is refined.
    errors = []
    for n_theta, n_phi in ((16, 32), (32, 64)):
        grid = make_grid("full2d", 2, n_theta, n_phi)
        finals = []
        for g in (grid, _unfiltered(grid)):
            initial = perturbed_sphere_state(g, 1.0, 2, 0.05, mode_phi=2)
            result = run(
                make_config(params_n2m2, initial, t_end=0.01, record_interval=0.01, scheme="heun")
            )
            assert result.summary["status"] == "t_end"
            finals.append(result.final_state.r)
        errors.append(float(np.max(np.abs(finals[0] - finals[1]))))
    assert errors[1] * 4.0 <= errors[0], errors


def test_full2d_run_filters_its_initial_state(params_n2m2):
    # cos(3 phi) content on the pole rings sits above K_0 = 2: unfiltered, it
    # would stay neutral and f_max would stall near 1e-4.
    grid = make_grid("full2d", 2, 16, 32)
    initial = perturbed_sphere_state(grid, 1.0, 3, 0.02, mode_phi=3)
    result = run(make_config(params_n2m2, initial, t_end=3.0))
    cols = result.recorder.arrays()
    assert cols["f_max"][-1] <= 1e-12
    v = cols["V"]
    assert np.max(np.abs(v - v[0])) / v[0] <= 1e-8
    # V0 and dt_limit come from the filtered initial state.
    filtered = GraphState(t=0.0, grid=grid, r=polar_filter(grid, initial.r))
    radial = enclosed_volume_integrand(filtered.r_flat, params_n2m2)
    assert result.summary["volume_initial"] == float(np.sum(grid.weights * radial))
    limit = dt_limit(filtered, geometry_from_graph(filtered, params_n2m2))
    assert result.summary["dt_limit"] == limit and limit["direction"] == "phi"


def test_run_respects_max_steps(params_n2m1, monkeypatch):
    monkeypatch.setattr(flow, "DEFAULT_MAX_STEPS", 5)
    config = perturbed_config(params_n2m1, t_end=100.0)
    result = run(config)
    assert result.summary["status"] == "max_steps"
    assert result.summary["n_steps"] == 5


def test_record_cadence(params_n2m1):
    config = perturbed_config(params_n2m1, t_end=0.2, record_interval=0.05)
    result = run(config)
    t = result.recorder.arrays()["t"]
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.2, abs=1e-12)
    for k in (1, 2, 3):
        target = 0.05 * k
        after = t[t + 1e-12 >= target]
        # The row falls on the first step that reaches the point.
        assert after.size and after[0] - target < result.summary["dt"]["max"]


def test_run_warns_once_when_h_convexity_is_lost(caplog, params_n2m1):
    grid = make_grid("axisymmetric", 2, 32)
    initial = perturbed_sphere_state(grid, 3.0, 2, 0.6)
    config = make_config(params_n2m1, initial, t_end=0.2)
    with caplog.at_level("WARNING", logger="horoflow.flow"):
        result = run(config)
    assert np.all(result.recorder.arrays()["lambda_tilde_min"] < 0.0)
    lost = [r for r in caplog.records if "h-convexity lost" in r.getMessage()]
    assert len(lost) == 1
    assert lost[0].levelname == "WARNING"


def test_h_convex_run_logs_no_convexity_warning(caplog, params_n2m1):
    with caplog.at_level("WARNING", logger="horoflow.flow"):
        result = run(perturbed_config(params_n2m1, t_end=0.1))
    assert np.all(result.recorder.arrays()["lambda_tilde_min"] > 0.0)
    assert not any("h-convexity lost" in r.getMessage() for r in caplog.records)


def test_stiff_floor_aborts(params_n2m1, monkeypatch):
    monkeypatch.setattr(flow, "DT_MIN", 1e-3)
    config = perturbed_config(
        params_n2m1,
        n_theta=96,
        amplitude=0.01,
        scheme="heun",
        t_end=10.0,
    )
    with pytest.raises(StiffnessError):
        run(config)


def test_abort_flushes_diagnostics(tmp_path, params_n2m1, monkeypatch):
    monkeypatch.setattr(flow, "DT_MIN", 1e-3)
    out = str(tmp_path / "aborted")
    config = perturbed_config(
        params_n2m1,
        n_theta=96,
        amplitude=0.01,
        t_end=10.0,
        output_dir=out,
    )
    with pytest.raises(StiffnessError) as err:
        run(config)
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    abort_state = load_snapshot(os.path.join(out, "abort_state.csv"))
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["status"] == "aborted" and summary["converged"] is False
    assert summary["stop"] is None
    assert summary["abort"] == {
        "error": "StiffnessError",
        "message": str(err.value),
        "t": abort_state.t,
        "step": summary["n_steps"],
        "node_index": None,
    }
    assert summary["n_steps"] > 0


def test_aborted_initial_state_writes_a_deterministic_summary(tmp_path, ac):
    params = FlowParams(n=2, m=2, beta=1.0, ac=ac)
    grid = make_grid("axisymmetric", 2, 96)
    # The dimpled small sphere of test_graphgeom: H_m < 0 near theta = pi.
    r = 0.5 - 0.046875 * np.cos(2 * grid.theta) + 0.0390625 * np.cos(3 * grid.theta)
    texts = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        config = make_config(params, GraphState(t=0.0, grid=grid, r=r), output_dir=out)
        with pytest.raises(ParabolicityLostError) as err:
            run(config)
        assert sorted(os.listdir(out)) == ["abort_state.csv", "diagnostics.csv", "summary.json"]
        with open(os.path.join(out, "summary.json")) as fh:
            texts.append(fh.read())
    summary = json.loads(texts[0])
    assert summary["status"] == "aborted" and summary["n_steps"] == 0
    assert summary["initial_pinched"] is None and summary["dt"] is None
    assert summary["abort"] == {
        "error": "ParabolicityLostError",
        "message": str(err.value),
        "t": 0.0,
        "step": 0,
        "node_index": err.value.node_index,
    }
    assert isinstance(err.value.node_index, int)
    assert texts[0] == texts[1]


def test_renormalized_run_keeps_volume_exact(params_n2m1):
    # rkc, the default scheme, closes every step on the initial volume.
    config = perturbed_config(params_n2m1, t_end=0.3)
    result = run(config)
    v = result.recorder.arrays()["V"]
    assert np.max(np.abs(v - v[0])) / v[0] < 2e-12


def test_summary_reports_rhs_evaluations_and_dt_and_is_deterministic(tmp_path, params_n2m1):
    grid = make_grid("axisymmetric", 2, 48)
    initial = perturbed_sphere_state(grid, 1.0, 2, 0.05)
    # Two whole accuracy steps, so every rkc step has the same dt and stages.
    t_end = 2.0 * accuracy_dt(params_n2m1, initial)
    for scheme in ("rkc", "heun"):
        payloads = []
        for name in ("a", "b"):
            out = str(tmp_path / scheme / name)
            config = make_config(
                params_n2m1, initial, t_end=t_end, output_dir=out, scheme=scheme
            )
            result = run(config)
            with open(os.path.join(out, "summary.json")) as fh:
                text = fh.read()
            summary = json.loads(text)
            assert summary["constants"]["balance_evaluations"] == 0  # n2m1 is degenerate
            stages = summary["dt"]["stages"]
            if scheme == "heun":
                assert stages == {"min": 2, "median": 2.0, "max": 2}
                assert summary["rhs_evaluations"] == 2 * summary["n_steps"]
            else:
                # The accuracy step is past Heun's step at N = 48.
                assert summary["n_steps"] == 2 and stages["min"] == stages["max"] > 2
                assert summary["rhs_evaluations"] == stages["min"] * summary["n_steps"]
            # Every step passes a record point (record_interval 0.002), so
            # the rows after the initial one carry each step's dt.
            dts = diagnostics_dts(os.path.join(out, "diagnostics.csv"))
            assert dts.size == summary["n_steps"]
            assert math.fsum(dts) == pytest.approx(result.final_state.t, rel=1e-12)
            assert summary["dt"] == {
                "min": float(dts.min()),
                "median": float(np.median(dts)),
                "max": float(dts.max()),
                "safety": 0.4,
                "scheme": scheme,
                "stages": stages,
            }
            with open(os.path.join(out, "diagnostics.csv"), "rb") as fh:
                payloads.append((text, fh.read()))
        assert payloads[0] == payloads[1]


@pytest.mark.parametrize("mode, reported", [("axisymmetric", 0.4), ("full2d", 0.2)])
def test_summary_reports_the_step_fraction_the_run_used(mode, reported, params_n2m2):
    grid = make_grid(mode, 2, 16, 32 if mode == "full2d" else None)
    initial = perturbed_sphere_state(grid, 1.0, 2, 0.05)
    result = run(make_config(params_n2m2, initial, t_end=0.01, scheme="heun"))
    assert result.summary["dt"]["safety"] == reported
    # The first step was taken at that fraction, from the (filtered) initial
    # state; it passes the first record point, so the second row carries it.
    start = GraphState(t=0.0, grid=grid, r=polar_filter(grid, initial.r))
    fields = geometry_from_graph(start, params_n2m2)
    cols = result.recorder.arrays()
    assert cols["t"][1] == cols["dt"][1]
    assert cols["dt"][1] == stable_dt(fields, params_n2m2)


def test_run_writes_output_files(tmp_path, params_n2m1):
    out = str(tmp_path / "runout")
    grid = make_grid("axisymmetric", 2, 48)
    initial = perturbed_sphere_state(grid, 1.0, 2, 0.05)
    interval = 10.0 * accuracy_dt(params_n2m1, initial)
    config = make_config(
        params_n2m1, initial, t_end=2.0 * interval, snapshot_interval=interval, output_dir=out
    )
    result = run(config)
    names = sorted(os.listdir(out))
    assert "diagnostics.csv" in names
    assert "final_state.csv" in names
    assert "summary.json" in names
    assert "snapshot_000000.csv" in names  # initial state
    assert "snapshot_000001.csv" in names  # first interval crossing
    final = load_snapshot(os.path.join(out, "final_state.csv"))
    assert np.array_equal(final.r, result.final_state.r)
    # rkc's tenth step lands within a rounding error of the interval; it
    # takes that snapshot, and the next step does not take it again.
    snapshots = sorted(name for name in names if name.startswith("snapshot_"))
    times = [load_snapshot(os.path.join(out, name)).t for name in snapshots]
    assert times == pytest.approx([0.0, interval, 2.0 * interval], abs=1e-12)


def test_resume_from_snapshot_matches_uninterrupted_run(tmp_path, params_n2m1):
    grid = make_grid("axisymmetric", 2, 48)
    initial = perturbed_sphere_state(grid, 1.0, 2, 0.05)

    whole = run(make_config(params_n2m1, initial, t_end=0.3))

    # Leg 1 stops after four whole accuracy steps, on the uninterrupted run's step grid.
    out = str(tmp_path / "leg1")
    leg1_end = 4.0 * accuracy_dt(params_n2m1, initial)
    leg1 = run(make_config(params_n2m1, initial, t_end=leg1_end, output_dir=out))
    resumed_state = load_snapshot(os.path.join(out, "final_state.csv"))
    leg2 = run(make_config(params_n2m1, resumed_state, t_end=0.3))

    assert leg2.final_state.t == pytest.approx(whole.final_state.t, abs=1e-12)
    assert np.max(np.abs(leg2.final_state.r - whole.final_state.r)) < 1e-9


# ---------------------------------------------------------------------------
# The linearized rate about the limit sphere
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, m, beta, r0",
    [
        (2, 1, 1.0, 1.0),
        (3, 2, 1.0, 1.0),
        (2, 2, 1.0, 1.0),
        (2, 2, 1.5, 1.0),
        (3, 3, 1.0 / 3.0, 1.0),
        (2, 2, 1.0, 0.5),
    ],
)
def test_decay_rate_converges_to_the_predicted_rate(n, m, beta, r0):
    # f_max is quadratic in the perturbation, so it decays at 2 mu_2.  At
    # amplitude 0.002 r0 the amplitude term is below the grid's h^2 term, so
    # the residual fit / predicted - 1 falls with the grid at second order.
    params = FlowParams(n=n, m=m, beta=beta, ac=AmbientCurvature(kappa=-1.0))
    residuals = []
    for n_theta in (64, 128):
        initial = perturbed_sphere_state(make_grid("axisymmetric", n, n_theta), r0, 2, 0.002 * r0)
        summary = run(make_config(params, initial, t_end=50.0)).summary
        assert summary["status"] == "converged"
        residuals.append(summary["decay_fit"]["rate"] / summary["predicted_rate"] - 1.0)
    assert abs(residuals[1]) <= 1e-3, residuals
    assert abs(residuals[0]) >= 3.0 * abs(residuals[1]), residuals


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2)])
def test_runs_are_scale_covariant(n, m):
    # With kappa = -a^2 the flow from (r0 / a, amplitude / a) is the kappa = -1
    # flow with lengths over a and times over a^(m beta + 1).  Heun's
    # stable_dt and rkc's 0.05 / mu_2 both carry that time scale.
    a = 2.0
    grid = make_grid("axisymmetric", n, 32)
    finals = {}
    for kappa in (-1.0, -a * a):
        scale = math.sqrt(-kappa)
        params = FlowParams(n=n, m=m, beta=1.0, ac=AmbientCurvature(kappa=kappa))
        initial = perturbed_sphere_state(grid, 1.0 / scale, 2, 0.05 / scale)
        for scheme in ("heun", "rkc"):
            result = run(
                make_config(
                    params, initial, t_end=1.0 / scale ** (params.mbeta + 1.0),
                    scheme=scheme,
                )
            )
            finals[kappa, scheme] = (result.summary["n_steps"], scale * result.final_state.r)
    heun, heun_scaled = finals[-1.0, "heun"], finals[-a * a, "heun"]
    assert heun[0] == heun_scaled[0]
    assert np.array_equal(heun[1], heun_scaled[1])
    rkc, rkc_scaled = finals[-1.0, "rkc"], finals[-a * a, "rkc"]
    assert rkc[0] == rkc_scaled[0]
    assert float(np.max(np.abs(rkc[1] - rkc_scaled[1]))) <= 1e-14


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (2, 2)])
def test_rkc_takes_fewer_evaluations_than_heun_on_a_large_sphere(n, m):
    # About r0 = 3 the accuracy step is about 1.2-2.5, far past Heun's
    # stable_dt, so rkc spends its stages on long steps.
    params = FlowParams(n=n, m=m, beta=1.0, ac=AmbientCurvature(kappa=-1.0))
    initial = perturbed_sphere_state(make_grid("axisymmetric", n, 64), 3.0, 2, 0.05)
    evaluations = {}
    for scheme in ("heun", "rkc"):
        config = make_config(params, initial, t_end=50.0, scheme=scheme)
        evaluations[scheme] = run(config).summary["rhs_evaluations"]
    assert evaluations["rkc"] < evaluations["heun"], evaluations

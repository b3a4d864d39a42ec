"""Acceptance gate: ten criteria, each reported as one pass/fail line.

The criteria bind the package's behavior at desk scale: exact algebraic
identities on large random batches, discrete geometry converging at second
order, conservation and monotonicity along full scenario runs, independent
oracles for the contracting sphere, the constants machinery, and bytewise
reproducibility.  Scenario runs are shared module-scoped fixtures.
"""

from __future__ import annotations

import math
import os
from glob import glob

import numpy as np
import pytest

from horoflow import (
    AmbientCurvature,
    FlowParams,
    GraphState,
    RunConfig,
    analyze_diagnostics,
    ball_volume,
    contraction_residual,
    gap_bound,
    geometry_from_graph,
    load_snapshot,
    make_grid,
    mean_curvature_direct,
    mean_curvature_m,
    perturbed_sphere_state,
    psi_inverse,
    run,
    slice_constant,
    speed,
    speed_gradient,
    speed_hessian_quadform,
    sphere_contraction,
    sphere_state,
    step,
    unit_closed_form_radius,
    xi_comparison,
)
from horoflow.flow import pinching_constants_cached
from horoflow.graphgeom import axisym_pointwise_curvatures
from horoflow.oracle import _xi_forward, inner_radius_estimate

from conftest import record_acceptance
from test_curvalg import slice_constant_bruteforce

TRIPLES = ((2, 1, 1.0), (2, 2, 1.0), (3, 2, 1.0), (3, 3, 1.0 / 3.0), (3, 1, 2.0))

CONSTANTS_SAMPLES = 3000


def make_params(n, m, beta, kappa=-1.0):
    return FlowParams(n=n, m=m, beta=beta, ac=AmbientCurvature(kappa=kappa))


# The criteria's scenario runs step with Heun, the reference; the rkc runs
# below are held to the same verdicts and to Heun's decay rates.
def scenario_config(params, n_theta, t_end, scheme, output_dir=None, snapshot_interval=None):
    grid = make_grid("axisymmetric", params.n, n_theta)
    return RunConfig(
        params=params,
        initial=perturbed_sphere_state(grid, 1.0, 2, 0.05),
        t_end=t_end,
        scheme=scheme,
        snapshot_interval=snapshot_interval,
        output_dir=output_dir,
        constants_samples=CONSTANTS_SAMPLES,
    )


def full2d_config(scheme):
    """n2m2 on a 16 x 32 full2d grid, perturbed by the l = 2, mode_phi = 2 harmonic."""
    grid = make_grid("full2d", 2, 16, 32)
    return RunConfig(
        params=make_params(2, 2, 1.0),
        initial=perturbed_sphere_state(grid, 1.0, 2, 0.05, mode_phi=2),
        t_end=10.0,
        scheme=scheme,
        constants_samples=CONSTANTS_SAMPLES,
    )


def verdict_for(result):
    return analyze_diagnostics(result.summary["params"], result.recorder.arrays())


@pytest.fixture(scope="module")
def standard_out(tmp_path_factory):
    """The standard scenario's output directory."""
    return str(tmp_path_factory.mktemp("standard"))


@pytest.fixture(scope="module")
def standard_run(standard_out):
    """Standard scenario: n=2, m=1, beta=1, kappa=-1, N=256, snapshots hourly."""
    result = run(scenario_config(make_params(2, 1, 1.0), 256, 16.0, "heun",
                                 output_dir=standard_out, snapshot_interval=1.0))
    assert result.summary["status"] == "converged", result.summary["status"]
    return result


@pytest.fixture(scope="module")
def standard_run_n128():
    result = run(scenario_config(make_params(2, 1, 1.0), 128, 16.0, "heun"))
    assert result.summary["status"] == "converged", result.summary["status"]
    return result


@pytest.fixture(scope="module")
def variant_n3m2():
    result = run(scenario_config(make_params(3, 2, 1.0), 256, 6.0, "heun"))
    assert result.summary["status"] == "converged", result.summary["status"]
    return result


@pytest.fixture(scope="module")
def variant_n2m2():
    result = run(scenario_config(make_params(2, 2, 1.0), 256, 5.0, "heun"))
    assert result.summary["status"] == "converged", result.summary["status"]
    return result


# ---------------------------------------------------------------------------
# 1. Speed algebra on large random batches
# ---------------------------------------------------------------------------


def test_criterion_01_speed_algebra():
    rng = np.random.default_rng(11)
    worst = {"euler": 0.0, "root": 0.0, "trace": 0.0, "grad_fd": 0.0, "hess_fd": 0.0}
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        mbeta = m * beta
        lam = np.abs(rng.standard_normal((100_000, n))) + 0.05
        f = speed(lam, params)
        grad = speed_gradient(lam, params)

        euler = np.einsum("ij,ij->i", grad, lam) - mbeta * f
        worst["euler"] = max(worst["euler"], float(np.max(np.abs(euler) / f)))

        root = mean_curvature_m(lam, params) ** (1.0 / m)
        mean = np.mean(lam, axis=1)
        worst["root"] = max(worst["root"], float(np.max((root - mean) / mean)))

        trace = np.sum(grad, axis=1)
        floor = mbeta * f ** (1.0 - 1.0 / mbeta)
        worst["trace"] = max(worst["trace"], float(np.max((floor - trace) / floor)))

        # finite differences on spectra bounded away from the cone boundary
        lam_fd = np.abs(rng.standard_normal((100_000, n))) + 0.3
        grad_fd = speed_gradient(lam_fd, params)
        h = 1e-6
        for i in range(n):
            bumped = lam_fd.copy()
            bumped[:, i] += h
            dipped = lam_fd.copy()
            dipped[:, i] -= h
            fd = (speed(bumped, params) - speed(dipped, params)) / (2.0 * h)
            rel = np.abs(fd - grad_fd[:, i]) / np.maximum(np.abs(grad_fd[:, i]), 1.0)
            worst["grad_fd"] = max(worst["grad_fd"], float(np.max(rel)))

        b = rng.standard_normal((100_000, n))
        quad = speed_hessian_quadform(
            lam_fd, params, np.einsum("ki,ij->kij", b, np.eye(n))
        )
        h2 = 1e-4
        f0 = speed(lam_fd, params)
        fp = speed(lam_fd + h2 * b, params)
        fm = speed(lam_fd - h2 * b, params)
        fd2 = (fp - 2.0 * f0 + fm) / (h2 * h2)
        rel2 = np.abs(fd2 - quad) / np.maximum(np.abs(quad), 1.0)
        worst["hess_fd"] = max(worst["hess_fd"], float(np.max(rel2)))

        # full symmetric directions also exercise the off-diagonal difference
        # quotients; spectra need pairwise gaps above the FD scale so the
        # eigenvalue paths stay smooth (~90% of samples survive the filter)
        lam_sorted = np.sort(lam_fd, axis=1)
        lam_g = lam_sorted[np.min(np.diff(lam_sorted, axis=1), axis=1) > 0.05]
        g = rng.standard_normal((lam_g.shape[0], n, n))
        bsym = 0.5 * (g + np.swapaxes(g, 1, 2))
        quad_full = speed_hessian_quadform(lam_g, params, bsym)
        base = np.einsum("ki,ij->kij", lam_g, np.eye(n))
        ev_p = np.linalg.eigvalsh(base + h2 * bsym)
        ev_m = np.linalg.eigvalsh(base - h2 * bsym)
        fd2_full = (
            speed(ev_p, params) - 2.0 * speed(lam_g, params) + speed(ev_m, params)
        ) / (h2 * h2)
        rel_full = np.abs(fd2_full - quad_full) / np.maximum(np.abs(quad_full), 1.0)
        worst["hess_fd"] = max(worst["hess_fd"], float(np.max(rel_full)))

    ok = (
        worst["euler"] < 1e-10
        and worst["root"] < 1e-12
        and worst["trace"] < 1e-10
        and worst["grad_fd"] < 1e-5
        and worst["hess_fd"] < 1e-5
    )
    detail = (
        f"euler {worst['euler']:.1e}, root gap {worst['root']:.1e}, "
        f"trace floor {worst['trace']:.1e}, grad FD {worst['grad_fd']:.1e}, "
        f"hess FD {worst['hess_fd']:.1e} (5 triples x 1e5 samples)"
    )
    assert record_acceptance(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. Discrete geometry exactness and convergence order
# ---------------------------------------------------------------------------


def lam_error_vs_analytic(n_theta, params, r0=1.0, amp=0.05, ell=3):
    grid = make_grid("axisymmetric", params.n, n_theta)
    th = grid.theta
    r = r0 + amp * np.cos(ell * th)
    rp = -amp * ell * np.sin(ell * th)
    rpp = -amp * ell * ell * np.cos(ell * th)
    with np.errstate(divide="ignore", invalid="ignore"):
        azim = rp / np.tan(th)
    azim[0] = rpp[0]
    azim[-1] = rpp[-1]
    state = GraphState(t=0.0, grid=grid, r=r)
    fields = geometry_from_graph(state, params)
    lt, la, _xi, _s, _c = axisym_pointwise_curvatures(r, rp, rpp, azim, params.ac)
    exact = np.sort(np.stack([lt] + [la] * (params.n - 1), axis=1), axis=1)
    return float(np.max(np.abs(fields.lam - exact)))


def test_criterion_02_geometry():
    from horoflow import kappa_trig

    sphere_err = 0.0
    for n, kappa, r0 in ((2, -1.0, 1.0), (3, -1.0, 0.7), (2, -2.0, 1.3)):
        params = make_params(n, 1, 1.0, kappa)
        fields = geometry_from_graph(
            sphere_state(make_grid("axisymmetric", n, 256), r0), params
        )
        _s, _c, _ta, co = kappa_trig(r0, params.ac)
        sphere_err = max(sphere_err, float(np.max(np.abs(fields.lam - co))))

    dual_err = 0.0
    for n in (2, 3):
        params = make_params(n, 1, 1.0)
        state = perturbed_sphere_state(make_grid("axisymmetric", n, 256), 1.0, 2, 0.05)
        fields = geometry_from_graph(state, params)
        direct = mean_curvature_direct(state, params)
        dual_err = max(dual_err, float(np.max(np.abs(direct - fields.spectrum.esym(1)))))

    params = make_params(2, 1, 1.0)
    errors = [lam_error_vs_analytic(k, params) for k in (128, 256, 512)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))

    ok = sphere_err < 1e-12 and dual_err < 1e-9 and bool(np.all(orders >= 1.9))
    detail = (
        f"sphere curvature err {sphere_err:.1e}, mean-curvature dual route "
        f"{dual_err:.1e}, orders {orders[0]:.2f}/{orders[1]:.2f} over N=128/256/512"
    )
    assert record_acceptance(2, ok, detail)


# ---------------------------------------------------------------------------
# 3. Spheres are numerical equilibria
# ---------------------------------------------------------------------------


def test_criterion_03_equilibrium():
    params = make_params(2, 1, 1.0)
    state = sphere_state(make_grid("axisymmetric", 2, 256), 1.0)
    for _ in range(10_000):
        state = step(state, params)
    drift = float(np.max(np.abs(state.r - 1.0)))
    ok = drift < 1e-10
    assert record_acceptance(3, ok, f"sup-norm drift {drift:.2e} after 1e4 steps")


# ---------------------------------------------------------------------------
# 4. Volume conservation on the standard scenario
# ---------------------------------------------------------------------------


def test_criterion_04_volume(standard_run, standard_run_n128):
    def drift_of(result):
        v = result.recorder.arrays()["V"]
        return float(np.max(np.abs(v - v[0])) / abs(v[0]))

    drift_256 = drift_of(standard_run)
    drift_128 = drift_of(standard_run_n128)
    # At N >= 128 the drift sits within a decade of the rounding floor
    # (~2e-13 relative), so the refinement ratio is measured on the 64 -> 128
    # doubling, the finest pair where truncation still dominates.
    drift_64 = drift_of(run(scenario_config(make_params(2, 1, 1.0), 64, 16.0, "heun")))
    ratio = drift_64 / drift_128
    ok = drift_256 <= 1e-4 and drift_128 <= 1e-4 and ratio >= 3.0
    detail = (
        f"relative drift {drift_256:.2e} at N=256, shrink factor {ratio:.1f}x "
        f"over the N=64->128 doubling ({drift_64:.2e} -> {drift_128:.2e})"
    )
    assert record_acceptance(4, ok, detail)


# ---------------------------------------------------------------------------
# 5-7. Monotone pinching ratio, exponential decay, theorem bounds, per run
# ---------------------------------------------------------------------------


def test_criterion_05_monotone_pinching(standard_run, variant_n3m2, variant_n2m2):
    verdicts = {
        "n2m1": verdict_for(standard_run),
        "n3m2": verdict_for(variant_n3m2),
        "n2m2": verdict_for(variant_n2m2),
    }
    ok = all(v["monotone_Qtilde"] for v in verdicts.values())
    detail = ", ".join(
        f"{name} {'monotone' if v['monotone_Qtilde'] else 'VIOLATED'}"
        for name, v in verdicts.items()
    )
    assert record_acceptance(5, ok, detail + " (tol 1e-6/step)")


def test_criterion_06_exponential_decay(standard_run, variant_n3m2, variant_n2m2):
    fits = {
        "n2m1": verdict_for(standard_run),
        "n3m2": verdict_for(variant_n3m2),
        "n2m2": verdict_for(variant_n2m2),
    }
    ok = all(v["decay_rate"] > 0.0 and v["r_squared"] >= 0.99 for v in fits.values())
    detail = ", ".join(
        f"{name} rate {v['decay_rate']:.2f} (r2 {v['r_squared']:.5f})"
        for name, v in fits.items()
    )
    assert record_acceptance(6, ok, detail)


def test_criterion_07_bounds(standard_run, variant_n3m2, variant_n2m2):
    results = {"n2m1": standard_run, "n3m2": variant_n3m2, "n2m2": variant_n2m2}
    checks = {}
    for name, result in results.items():
        cols = result.recorder.arrays()
        p = result.summary["params"]
        params = make_params(p["n"], p["m"], p["beta"], p["kappa"])
        floor = params.a**params.mbeta - 1e-8
        checks[name] = bool(
            np.all(cols["Fmin"] >= floor)
            and np.all(cols["Htilde_min"] > 0.0)
            and np.all(cols["lambda_tilde_min"] > 0.0)
            and np.all(np.isfinite(cols["Z_max"]))
        )
    ok = all(checks.values())
    detail = ", ".join(f"{k} {'ok' if v else 'VIOLATED'}" for k, v in checks.items())
    assert record_acceptance(7, ok, detail + " (speed floor, tilde positivity, Z finite)")


# ---------------------------------------------------------------------------
# 8. Independent oracles
# ---------------------------------------------------------------------------


def test_criterion_08_oracles(standard_run, standard_out):
    residual = 0.0
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        traj = sphere_contraction(1.0, params, np.linspace(0.0, 0.2, 100))
        residual = max(residual, float(np.nanmax(np.abs(contraction_residual(traj)))))

    params = make_params(2, 1, 1.0)
    t_grid = np.linspace(0.0, 0.4, 100)
    traj = sphere_contraction(1.0, params, t_grid)
    closed = float(np.max(np.abs(traj.r - unit_closed_form_radius(1.0, t_grid, params))))

    round_trip = 0.0
    for r in (0.3, 1.0, 2.5):
        round_trip = max(
            round_trip, abs(psi_inverse(float(ball_volume(r, params)), params) - r)
        )
        round_trip = max(round_trip, abs(_xi_forward(xi_comparison(r, params), params) - r))

    grid = standard_run.final_state.grid
    cell = grid.spacing_theta * math.cosh(float(np.max(standard_run.final_state.r)))
    v0 = standard_run.summary["volume_initial"]
    lower = xi_comparison(psi_inverse(v0, params), params) - 2.0 * cell
    upper = psi_inverse(v0, params) + 2.0 * cell
    snapshots = sorted(glob(os.path.join(standard_out, "snapshot_*.csv")))
    rho_ok = True
    rho_range = [math.inf, -math.inf]
    for path in snapshots:
        state = load_snapshot(path)
        rho = inner_radius_estimate(state, params)
        rho_range = [min(rho_range[0], rho), max(rho_range[1], rho)]
        rho_ok = rho_ok and lower <= rho <= upper

    ok = residual < 1e-6 and closed < 1e-8 and round_trip < 1e-9 and rho_ok
    detail = (
        f"contraction residual {residual:.1e}, closed form {closed:.1e}, "
        f"round trips {round_trip:.1e}, inner radius in [{lower:.3f}, {upper:.3f}] "
        f"(saw [{rho_range[0]:.3f}, {rho_range[1]:.3f}] over {len(snapshots)} snapshots)"
    )
    assert record_acceptance(8, ok, detail)


# ---------------------------------------------------------------------------
# 9. Constants machinery
# ---------------------------------------------------------------------------


def test_criterion_09_constants():
    # n = 2: the knot 1/(2(n-1)) coincides with the right endpoint 1/n where
    # both pieces vanish, so continuity there is a clean approach to zero.
    endpoint = float(gap_bound(0.5, 2))
    left = float(gap_bound(0.5 - 1e-14, 2))
    knot_jump = max(abs(endpoint), abs(left - endpoint))
    knot = 0.25
    knot_jump = max(
        knot_jump,
        abs(float(gap_bound(knot - 1e-14, 3)) - float(gap_bound(knot + 1e-14, 3))),
    )

    sign_ok = True
    cstar_ok = True
    for n, m, beta in ((2, 1, 1.0), (3, 2, 1.0), (2, 2, 1.0)):
        params = make_params(n, m, beta)
        constants = pinching_constants_cached(params, CONSTANTS_SAMPLES, 0)
        cstar_ok = cstar_ok and 0.0 < constants.c_star < 1.0 / n**n
        if m * beta > 1.0:
            coef = (n - 1) / (2.0 * math.sqrt(n))
            balance = (
                coef * constants.grad_floor_table * constants.eps_grid**2
                - constants.hess_ceiling_table * constants.gap_table
            )
            sign_ok = sign_ok and balance[0] < 0.0 < balance[-1]
            sign_ok = sign_ok and not constants.degenerate

    brute_gap = 0.0
    for n, eps_list in ((2, (0.1, 0.25, 0.5)), (3, (0.05, 0.2, 1.0 / 3.0))):
        for eps in eps_list:
            exact = slice_constant(eps, n)
            brute = slice_constant_bruteforce(eps, n, n_samples=1_000_000, seed=3)
            brute_gap = max(brute_gap, abs(exact - brute) / exact)
            cstar_ok = cstar_ok and brute <= exact + 1e-15

    ok = knot_jump < 1e-12 and sign_ok and cstar_ok and brute_gap < 1e-4
    detail = (
        f"knot jump {knot_jump:.1e}, balance sign change for m*beta>1 "
        f"{'ok' if sign_ok else 'MISSING'}, C* < 1/n^n {'ok' if cstar_ok else 'VIOLATED'}, "
        f"slice brute-force gap {brute_gap:.1e} (1e6 samples)"
    )
    assert record_acceptance(9, ok, detail)


# ---------------------------------------------------------------------------
# 10. Bytewise reproducibility
# ---------------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    params = make_params(2, 1, 1.0)
    payloads = []
    for leg in ("a", "b"):
        out = str(tmp_path / leg)
        run(scenario_config(params, 128, 1.0, "heun", output_dir=out))
        with open(os.path.join(out, "diagnostics.csv"), "rb") as fh:
            payloads.append(fh.read())
    ok = payloads[0] == payloads[1] and len(payloads[0]) > 10_000
    detail = f"two identical configs, {len(payloads[0])} bytes of diagnostics each"
    assert record_acceptance(10, ok, detail)


# ---------------------------------------------------------------------------
# Criteria 5-7 and 10 under rkc, the default scheme
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rkc_runs():
    """The three criterion scenarios and the 16 x 32 full2d case under rkc, to convergence."""
    runs = {
        "n2m1": run(scenario_config(make_params(2, 1, 1.0), 256, 16.0, "rkc")),
        "n3m2": run(scenario_config(make_params(3, 2, 1.0), 256, 6.0, "rkc")),
        "n2m2": run(scenario_config(make_params(2, 2, 1.0), 256, 5.0, "rkc")),
        "full2d": run(full2d_config("rkc")),
    }
    for name, result in runs.items():
        assert result.summary["status"] == "converged", (name, result.summary["status"])
    return runs


@pytest.fixture(scope="module")
def heun_full2d():
    result = run(full2d_config("heun"))
    assert result.summary["status"] == "converged", result.summary["status"]
    return result


def test_rkc_runs_keep_the_verdicts_and_heuns_decay_rates(
    rkc_runs, standard_run, variant_n3m2, variant_n2m2, heun_full2d
):
    heun = {"n2m1": standard_run, "n3m2": variant_n3m2, "n2m2": variant_n2m2, "full2d": heun_full2d}
    for name, result in rkc_runs.items():
        verdict = verdict_for(result)
        assert verdict["monotone_Qtilde"], name
        assert verdict["bounds_respected"], name
        assert verdict["decay_rate"] > 0.0 and verdict["r_squared"] >= 0.99, (name, verdict)
        assert verdict["volume_drift"] <= 1e-11, (name, verdict["volume_drift"])
        heun_rate = verdict_for(heun[name])["decay_rate"]
        assert abs(verdict["decay_rate"] / heun_rate - 1.0) <= 1e-3, (name, verdict, heun_rate)
        # Far fewer right-hand-side evaluations than Heun's.
        assert result.summary["rhs_evaluations"] < heun[name].summary["rhs_evaluations"], name


def test_rkc_runs_are_reproducible(tmp_path):
    # rkc writes one row per step of about 0.035; t = 2 takes 58 of them.
    params = make_params(2, 1, 1.0)
    payloads = []
    for leg in ("a", "b"):
        out = str(tmp_path / leg)
        run(scenario_config(params, 128, 2.0, "rkc", output_dir=out))
        with open(os.path.join(out, "diagnostics.csv"), "rb") as fh:
            payloads.append(fh.read())
    assert payloads[0] == payloads[1] and len(payloads[0]) > 10_000

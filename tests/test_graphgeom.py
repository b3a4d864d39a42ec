"""Discrete radial-graph geometry: grids, curvature assembly, functionals, I/O."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from horoflow import (
    AmbientCurvature,
    DomainError,
    FlowParams,
    GraphState,
    HoroflowError,
    ParabolicityLostError,
    curvalg,
    geometry_from_graph,
    kappa_trig,
    load_snapshot,
    make_grid,
    mean_curvature_direct,
    perturbed_sphere_state,
    save_snapshot,
    sphere_state,
    stable_dt,
)
from horoflow.curvalg import speed, speed_gradient
from horoflow.flow import DT_MIN, SAFETY
from horoflow.graphgeom import (
    GeometryFields,
    _axisym_scalar_derivatives,
    _sphere_area,
    axisym_pointwise_curvatures,
    dt_limit,
    enclosed_volume_integrand,
    polar_filter,
)
from horoflow.hypergeom import generalized_sine_cosine


def analytic_profile(grid, r0=1.0, amp=0.05, ell=3):
    """A trig test profile with exact derivatives on the colatitude grid."""
    th = grid.theta
    r = r0 + amp * np.cos(ell * th)
    rp = -amp * ell * np.sin(ell * th)
    rpp = -amp * ell * ell * np.cos(ell * th)
    with np.errstate(divide="ignore", invalid="ignore"):
        azim = rp / np.tan(th)
    # de l'Hopital limit at the poles, where rp -> 0 linearly
    azim[0] = rpp[0]
    azim[-1] = rpp[-1]
    return r, rp, rpp, azim


def lam_error_vs_analytic(n_theta, params, r0=1.0, amp=0.05, ell=3):
    grid = make_grid("axisymmetric", params.n, n_theta)
    r, rp, rpp, azim = analytic_profile(grid, r0, amp, ell)
    state = GraphState(t=0.0, grid=grid, r=r)
    fields = geometry_from_graph(state, params)
    lt, la, _xi, _s, _c = axisym_pointwise_curvatures(r, rp, rpp, azim, params.ac)
    exact = np.sort(np.stack([lt] + [la] * (params.n - 1), axis=1), axis=1)
    return float(np.max(np.abs(fields.lam - exact)))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def test_axisym_weights_integrate_the_sphere():
    for n in (2, 3, 4):
        total = _sphere_area(n)
        got = float(np.sum(make_grid("axisymmetric", n, 256).weights))
        assert got == pytest.approx(total, rel=1e-4)
    # sin(theta) is not a trig polynomial, so n=2 shows the trapezoid
    # rule's second-order error; higher n can be exact at any resolution
    total = _sphere_area(2)
    fine = float(np.sum(make_grid("axisymmetric", 2, 256).weights))
    coarse = float(np.sum(make_grid("axisymmetric", 2, 128).weights))
    assert abs(coarse - total) > 3.0 * abs(fine - total)


def test_full2d_weights_integrate_the_sphere():
    grid = make_grid("full2d", 2, 128, 64)
    assert float(np.sum(grid.weights)) == pytest.approx(4.0 * math.pi, rel=1e-4)


# ---------------------------------------------------------------------------
# The polar Fourier filter
# ---------------------------------------------------------------------------


def ring_limits(grid):
    """K_j = max(2, floor((n_phi/2) sin theta_j)), ring by ring."""
    half = grid.n_phi // 2
    return [max(2, math.floor(half * math.sin(th))) for th in grid.theta]


@pytest.mark.parametrize("n_theta, n_phi", [(16, 32), (17, 32), (24, 48), (32, 64), (48, 96)])
def test_polar_filter_keeps_the_ring_wavenumbers_up_to_k_max(n_theta, n_phi, rng):
    grid = make_grid("full2d", 2, n_theta, n_phi)
    limits = ring_limits(grid)
    half = n_phi // 2
    # With n_theta even no ring sits on the equator, so every ring drops at
    # least the Nyquist bin; with n_theta odd the equator keeps all of them.
    assert limits[0] == 2 and max(limits) == (half if n_theta % 2 else half - 1)
    wavenumbers = np.arange(half + 1)
    for j, k_max in enumerate(limits):
        assert np.array_equal(grid.phi_mask[j], (wavenumbers <= k_max).astype(float))
        # The time step reads the arc the filtered ring resolves.
        arc = grid.phi_arc_nodes[j * n_phi : (j + 1) * n_phi]
        assert np.all(arc == arc[0])
        assert arc[0] == pytest.approx(math.sin(grid.theta[j]) * half / k_max, rel=1e-15)
        if k_max == half:
            assert arc[0] == math.sin(grid.theta[j])

    values = 1.0 + rng.standard_normal(grid.shape)
    filtered = polar_filter(grid, values)
    assert filtered.shape == grid.shape
    spec_in = np.fft.rfft(values, axis=-1)
    spec_out = np.fft.rfft(filtered, axis=-1)
    scale = np.abs(spec_in).max()
    for j, k_max in enumerate(limits):
        kept = slice(0, k_max + 1)
        assert np.abs(spec_out[j, kept] - spec_in[j, kept]).max() <= 1e-14 * scale
        assert np.abs(spec_out[j, k_max + 1 :]).max(initial=0.0) <= 1e-14 * scale
    # Idempotent, and the flattened shape of a stage rate is kept.
    again = polar_filter(grid, filtered.ravel())
    assert again.shape == (values.size,)
    assert np.abs(again - filtered.ravel()).max() <= 1e-14 * np.abs(filtered).max()


def test_polar_filter_leaves_axisymmetric_values_alone():
    grid = make_grid("axisymmetric", 2, 32)
    values = np.linspace(1.0, 2.0, 32)
    assert polar_filter(grid, values) is values
    assert grid.phi_mask is None and grid.phi_arc_nodes is None


@pytest.mark.parametrize("mode", ["axisymmetric", "full2d"])
def test_dt_limit_names_the_node_behind_min_spacing(mode, params_n2m1):
    grid = make_grid(mode, 2, 32, 64 if mode == "full2d" else None)
    state = perturbed_sphere_state(grid, 1.0, 3, 0.04, mode_phi=2 if mode == "full2d" else 0)
    fields = geometry_from_graph(state, params_n2m1)
    limit = dt_limit(state, fields)
    assert limit["spacing"] == fields.min_spacing
    if mode == "axisymmetric":
        assert limit["direction"] == "theta"
        assert limit["spacing"] == grid.spacing_theta * fields.xi_norm[limit["node"]]
    else:
        # Even filtered, the arc of the ring next to a pole is the shortest.
        assert limit["direction"] == "phi"
        ring = limit["node"] // grid.n_phi
        assert ring in (0, grid.n_theta - 1)


def test_make_grid_validation():
    with pytest.raises(DomainError):
        make_grid("axisymmetric", 2, 8)
    with pytest.raises(DomainError):
        make_grid("full2d", 3, 64, 32)
    with pytest.raises(DomainError):
        make_grid("full2d", 2, 64, 31)
    with pytest.raises(DomainError):
        make_grid("full2d", 2, 64, 4)
    with pytest.raises(DomainError):
        make_grid("icosahedral", 2, 64)


def test_graph_state_validation():
    grid = make_grid("axisymmetric", 2, 32)
    with pytest.raises(DomainError):
        GraphState(t=0.0, grid=grid, r=np.ones(31))
    with pytest.raises(DomainError):
        GraphState(t=0.0, grid=grid, r=np.full(32, -1.0))
    bad = np.ones(32)
    bad[5] = np.nan
    with pytest.raises(DomainError):
        GraphState(t=0.0, grid=grid, r=bad)


@pytest.mark.parametrize(
    "value, message",
    [
        (np.nan, "non-finite"),
        (np.inf, "non-finite"),
        (-np.inf, "non-finite"),
        (0.0, "must be positive"),
        (-1.0, "must be positive"),
    ],
)
def test_graph_state_names_the_failed_rule(value, message):
    grid = make_grid("axisymmetric", 2, 32)
    r = np.ones(32)
    r[7] = value
    with pytest.raises(DomainError, match=message):
        GraphState(t=0.0, grid=grid, r=r)


def test_perturbed_sphere_validation():
    grid = make_grid("axisymmetric", 2, 64)
    with pytest.raises(DomainError):
        perturbed_sphere_state(grid, 1.0, 1, 0.05)
    with pytest.raises(DomainError):
        perturbed_sphere_state(grid, 1.0, 2, 0.5)
    with pytest.raises(DomainError):
        perturbed_sphere_state(grid, 1.0, 2, 0.05, mode_phi=1)


# ---------------------------------------------------------------------------
# Spheres are exact
# ---------------------------------------------------------------------------


def test_sphere_curvatures_exact():
    for n, kappa, r0 in ((2, -1.0, 1.0), (3, -1.0, 0.7), (2, -2.0, 1.3), (5, -1.0, 2.0)):
        params = FlowParams(n=n, m=1, beta=1.0, ac=AmbientCurvature(kappa=kappa))
        state = sphere_state(make_grid("axisymmetric", n, 128), r0)
        fields = geometry_from_graph(state, params)
        s, c, _ta, co = kappa_trig(r0, params.ac)
        H = fields.spectrum.esym(1)
        assert np.max(np.abs(fields.lam - co)) < 1e-12
        assert np.max(np.abs(H - n * co)) < 1e-12
        assert np.max(np.abs(fields.F - co)) < 1e-12
        assert np.max(np.abs(fields.Phi - s)) < 1e-12
        assert np.max(np.abs(mean_curvature_direct(state, params) - H)) < 1e-12


def test_sphere_full2d_curvatures_exact(params_n2m1):
    state = sphere_state(make_grid("full2d", 2, 64, 32), 1.0)
    fields = geometry_from_graph(state, params_n2m1)
    _s, _c, _ta, co = kappa_trig(1.0, params_n2m1.ac)
    assert np.max(np.abs(fields.lam - co)) < 1e-12


def area_and_volume(state, params):
    """The area and the enclosed volume the run reads: the area weights and the volume sum."""
    area = float(geometry_from_graph(state, params).area_weight.sum())
    volume = float(np.sum(state.grid.weights * enclosed_volume_integrand(state.r_flat, params)))
    return area, volume


def test_sphere_area_volume_closed_forms(params_n2m1):
    r0 = 1.2
    state = sphere_state(make_grid("axisymmetric", 2, 256), r0)
    area, volume = area_and_volume(state, params_n2m1)
    assert area == pytest.approx(4.0 * math.pi * math.sinh(r0) ** 2, rel=1e-4)
    assert volume == pytest.approx(math.pi * (math.sinh(2 * r0) - 2 * r0), rel=1e-4)


def test_sphere_volume_euclidean_limit():
    params = FlowParams(n=2, m=1, beta=1.0, ac=AmbientCurvature(kappa=-1e-10))
    state = sphere_state(make_grid("axisymmetric", 2, 256), 1.0)
    area, volume = area_and_volume(state, params)
    assert area == pytest.approx(4.0 * math.pi, rel=1e-4)
    assert volume == pytest.approx(4.0 * math.pi / 3.0, rel=1e-4)


def test_volume_integrand_matches_quadrature():
    for n in (2, 3, 4, 5):
        for kappa in (-1.0, -2.0):
            params = FlowParams(n=n, m=1, beta=1.0, ac=AmbientCurvature(kappa=kappa))
            a = params.a
            for r in (0.3, 1.0, 2.7):
                expected, _err = quad(lambda t: (np.sinh(a * t) / a) ** n, 0.0, r)
                got = float(enclosed_volume_integrand(r, params))
                assert got == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Discrete curvature converges to the analytic profile curvature
# ---------------------------------------------------------------------------


def test_curvature_second_order_convergence(params_n2m1):
    errors = [lam_error_vs_analytic(n, params_n2m1) for n in (64, 128, 256)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.8), (errors, orders)


def test_curvature_convergence_n3(params_n3m2):
    errors = [lam_error_vs_analytic(n, params_n3m2) for n in (64, 128)]
    assert math.log2(errors[0] / errors[1]) > 1.8


def test_mean_curvature_dual_route_on_perturbed_spheres():
    for n in (2, 3):
        params = FlowParams(n=n, m=1, beta=1.0, ac=AmbientCurvature(kappa=-1.0))
        state = perturbed_sphere_state(make_grid("axisymmetric", n, 256), 1.0, 2, 0.05)
        fields = geometry_from_graph(state, params)
        direct = mean_curvature_direct(state, params)
        assert np.max(np.abs(direct - fields.spectrum.esym(1))) < 1e-9


def test_associated_legendre_matches_scipy():
    from scipy.special import lpmv

    from horoflow.graphgeom import _associated_legendre

    x = np.concatenate([[-1.0, 1.0, 0.0], np.cos(np.linspace(0.0, math.pi, 97))])
    for ell in range(9):
        for m in range(-ell, ell + 1):
            want = lpmv(m, ell, x)
            got = _associated_legendre(m, ell, x)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (ell, m)


def test_full2d_dual_route_and_finiteness(params_n2m1):
    grid = make_grid("full2d", 2, 96, 32)
    state = perturbed_sphere_state(grid, 1.0, 3, 0.04, mode_phi=2)
    fields = geometry_from_graph(state, params_n2m1)
    assert np.all(np.isfinite(fields.lam))
    assert fields.min_spacing > 0.0
    direct = mean_curvature_direct(state, params_n2m1)
    assert np.max(np.abs(direct - fields.spectrum.esym(1))) < 1e-9


def test_full2d_axisymmetric_profile_matches_analytic(params_n2m1):
    grid = make_grid("full2d", 2, 96, 16)
    state = perturbed_sphere_state(grid, 1.0, 2, 0.05, mode_phi=0)
    fields = geometry_from_graph(state, params_n2m1)
    th = np.repeat(grid.theta, grid.n_phi)
    r = 1.0 + 0.05 * np.cos(2.0 * th)
    rp = -0.10 * np.sin(2.0 * th)
    rpp = -0.20 * np.cos(2.0 * th)
    azim = rp / np.tan(th)  # cell-centered grid never hits the poles
    lt, la, _xi, _s, _c = axisym_pointwise_curvatures(r, rp, rpp, azim, params_n2m1.ac)
    exact = np.sort(np.stack([lt, la], axis=1), axis=1)
    assert np.max(np.abs(fields.lam - exact)) < 5e-3


# ---------------------------------------------------------------------------
# The closed-form axisymmetric kernel against the generic spectrum algebra
# ---------------------------------------------------------------------------

KERNEL_SPEEDS = [
    (2, 1, 1.0),
    (2, 2, 1.0),
    (3, 1, 1.0),
    (3, 2, 1.0),
    (3, 3, 1.0 / 3.0),
    (3, 1, 2.0),
    (4, 2, 1.0),
]


@pytest.mark.parametrize("n, m, beta", KERNEL_SPEEDS)
def test_axisym_kernel_matches_the_generic_speed_and_trace(n, m, beta, rng):
    params = FlowParams(n=n, m=m, beta=beta, ac=AmbientCurvature(kappa=-1.0))
    grid = make_grid("axisymmetric", n, 64)
    for _ in range(5):
        r0 = rng.uniform(0.5, 2.0)
        amps = rng.uniform(-0.02, 0.02, size=3) * r0
        r = r0 + sum(amp * np.cos(ell * grid.theta) for ell, amp in zip((2, 3, 4), amps))
        fields = geometry_from_graph(GraphState(t=0.0, grid=grid, r=r), params)
        pair = fields.spectrum
        stacked = np.stack([pair.single] + [pair.repeated] * (n - 1), axis=1)
        assert np.array_equal(fields.lam, np.sort(stacked, axis=1))
        want_speed = speed(fields.lam, params)
        assert np.max(np.abs(fields.F - want_speed) / want_speed) < 1e-13
        want_trace = speed_gradient(fields.lam, params, trace=True)
        got_trace = speed_gradient(pair, params, trace=True)
        assert np.max(np.abs(got_trace - want_trace) / want_trace) < 1e-13
    with pytest.raises(DomainError, match="trace"):
        speed_gradient(pair, params)


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 2)])
def test_axisym_kernel_reports_the_generic_parabolicity_node(n, m):
    params = FlowParams(n=n, m=m, beta=1.0, ac=AmbientCurvature(kappa=-1.0))
    grid = make_grid("axisymmetric", n, 96)
    # A small sphere with these two modes is dimpled near theta = pi.
    r = 0.5 - 0.046875 * np.cos(2 * grid.theta) + 0.0390625 * np.cos(3 * grid.theta)
    with pytest.raises(ParabolicityLostError) as kernel:
        geometry_from_graph(GraphState(t=0.0, grid=grid, r=r), params)
    rp, rpp, azim = _axisym_scalar_derivatives(grid, r)
    lt, la, _xi, _s, _c = axisym_pointwise_curvatures(r, rp, rpp, azim, params.ac)
    with pytest.raises(ParabolicityLostError) as generic:
        speed(np.sort(np.stack([lt] + [la] * (n - 1), axis=1), axis=1), params)
    assert kernel.value.node_index == generic.value.node_index
    assert str(kernel.value) == str(generic.value)


# ---------------------------------------------------------------------------
# The full2d column kernel against the (N, 2, 2) tensor assembly it replaced
# ---------------------------------------------------------------------------

_EYE2 = np.eye(2)


def _reference_full2d_scalar_derivatives(grid, r):
    """Return coordinate derivatives (r_t, r_tt, r_p, r_pp, r_tp) on the 2d grid.

    Theta uses second-order central differences with ghost rows obtained by
    crossing the pole (same ring, phi shifted by pi); phi is Fourier-spectral.
    """
    h = grid.spacing_theta
    n_phi = grid.n_phi
    ghost_top = np.roll(r[0], n_phi // 2)
    ghost_bot = np.roll(r[-1], n_phi // 2)
    re = np.vstack([ghost_top, r, ghost_bot])
    r_t = (re[2:] - re[:-2]) / (2.0 * h)
    r_tt = (re[2:] - 2.0 * r + re[:-2]) / (h * h)

    k = grid.wavenumbers
    spec = np.fft.rfft(r, axis=1)
    r_p = np.fft.irfft(1j * k[None, :] * spec, n=n_phi, axis=1)
    r_pp = np.fft.irfft(-(k[None, :] ** 2) * spec, n=n_phi, axis=1)
    spec_t = np.fft.rfft(r_t, axis=1)
    r_tp = np.fft.irfft(1j * k[None, :] * spec_t, n=n_phi, axis=1)
    return r_t, r_tt, r_p, r_pp, r_tp


def reference_full2d_geometry(state, params):
    """The full2d geometry as the (N, 2, 2) tensor assembly computed it.

    Returns GeometryFields with lam set and no pair spectrum; pair it with
    reference_stable_dt.
    """
    grid = state.grid
    r = state.r
    r_t, r_tt, r_p, r_pp, r_tp = _reference_full2d_scalar_derivatives(grid, r)
    sin_t = grid.sin_theta
    cot_t = grid.cot_theta
    Dr = np.stack([r_t.ravel(), (r_p / sin_t).ravel()], axis=1)
    D2r = np.empty((r.size, 2, 2))
    D2r[:, 0, 0] = r_tt.ravel()
    off = ((r_tp - cot_t * r_p) / sin_t).ravel()
    D2r[:, 0, 1] = off
    D2r[:, 1, 0] = off
    D2r[:, 1, 1] = (r_pp / sin_t**2 + cot_t * r_t).ravel()

    r = state.r_flat
    s, c = generalized_sine_cosine(r, params.ac)
    dr_sq = np.einsum("ni,ni->n", Dr, Dr)
    xi_sq = s * s + dr_sq
    xi = np.sqrt(xi_sq)
    outer = Dr[:, :, None] * Dr[:, None, :]
    g = outer + (s * s)[:, None, None] * _EYE2
    g_inv = (_EYE2[None, :, :] - outer / xi_sq[:, None, None]) / (s * s)[:, None, None]
    h2 = -(
        s[:, None, None] * D2r
        - (s * s * c)[:, None, None] * _EYE2
        - 2.0 * c[:, None, None] * outer
    ) / xi[:, None, None]
    W = np.einsum("nij,njk->nik", g_inv, h2)
    tr = W[:, 0, 0] + W[:, 1, 1]
    # (W00 - W11)^2 + 4 W01 W10 equals tr^2 - 4 det but does not cancel
    # catastrophically at umbilic points (W is self-adjoint w.r.t. g, so
    # the discriminant is nonnegative up to rounding)
    gap = W[:, 0, 0] - W[:, 1, 1]
    disc = np.sqrt(np.maximum(gap * gap + 4.0 * W[:, 0, 1] * W[:, 1, 0], 0.0))
    lam = np.stack([(tr - disc) / 2.0, (tr + disc) / 2.0], axis=1)
    theta_spacing = grid.spacing_theta * np.sqrt(g[:, 0, 0])
    # Coordinate phi spacing carries the sin(theta) factor of the chart.
    phi_spacing = grid.spacing_phi * grid.phi_arc_nodes * np.sqrt(g[:, 1, 1])
    min_spacing = float(min(np.min(theta_spacing), np.min(phi_spacing)))
    fields = GeometryFields(
        s=s,
        xi_norm=xi,
        F=speed(lam, params),
        Phi=s * s / xi,
        area_weight=s ** (params.n - 1) * xi * state.grid.weights,
        min_spacing=min_spacing,
        spectrum=None,
        mode=grid.mode,
    )
    fields.lam = lam
    return fields


def reference_stable_dt(fields, params):
    """stable_dt with the gradient trace summed from the generic speed gradient."""
    trace = speed_gradient(fields.lam, params, trace=True)
    scale = float(trace.max())
    dt = SAFETY[fields.mode] * fields.min_spacing**2 / scale
    return float(max(dt, DT_MIN))


FULL2D_SPEEDS = [(1, 1.0), (2, 1.0), (1, 2.0), (2, 0.5), (2, 1.5)]
FULL2D_GRIDS = [(16, 32), (24, 48), (32, 64)]
FULL2D_PROFILES = [(2, 0), (3, 1), (4, 2), (2, 2), (5, 3)]
FULL2D_FIELDS = ("F", "lam", "xi_norm", "s", "Phi", "area_weight")


@pytest.mark.parametrize("kappa", [-1.0, -0.5, -2.0])
@pytest.mark.parametrize("m, beta", FULL2D_SPEEDS)
def test_full2d_kernel_matches_the_tensor_assembly_bitwise(m, beta, kappa, rng):
    params = FlowParams(n=2, m=m, beta=beta, ac=AmbientCurvature(kappa=kappa))
    for n_theta, n_phi in FULL2D_GRIDS:
        grid = make_grid("full2d", 2, n_theta, n_phi)
        for ell, mode_phi in FULL2D_PROFILES:
            r0 = rng.uniform(0.5, 2.0)
            amplitude = rng.uniform(-0.04, 0.04) * r0
            state = perturbed_sphere_state(grid, r0, ell, amplitude, mode_phi=mode_phi)
            got = geometry_from_graph(state, params)
            want = reference_full2d_geometry(state, params)
            for name in FULL2D_FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.min_spacing == want.min_spacing
            dt_want = reference_stable_dt(want, params)
            assert abs(stable_dt(got, params) - dt_want) <= 4e-16 * dt_want


@pytest.mark.parametrize("m", [1, 2])
def test_full2d_kernel_reports_the_reference_parabolicity_node(m):
    params = FlowParams(n=2, m=m, beta=1.0, ac=AmbientCurvature(kappa=-1.0))
    grid = make_grid("full2d", 2, 48, 16)
    # The dimpled small sphere of the axisymmetric test, tilted in phi.
    profile = 0.5 - 0.046875 * np.cos(2 * grid.theta) + 0.0390625 * np.cos(3 * grid.theta)
    r = profile[:, None] + 0.01 * np.sin(grid.theta)[:, None] * np.cos(grid.phi)[None, :]
    state = GraphState(t=0.0, grid=grid, r=r)
    with pytest.raises(ParabolicityLostError) as kernel:
        geometry_from_graph(state, params)
    with pytest.raises(ParabolicityLostError) as reference:
        reference_full2d_geometry(state, params)
    assert isinstance(kernel.value.node_index, int)
    assert kernel.value.node_index == reference.value.node_index
    assert str(kernel.value) == str(reference.value)


@pytest.mark.parametrize("mode", ["axisymmetric", "full2d"])
def test_stable_dt_takes_the_trace_from_the_pair_spectrum(mode, params_n2m2, monkeypatch):
    grid = make_grid(mode, 2, 32, 64 if mode == "full2d" else None)
    state = perturbed_sphere_state(grid, 1.0, 3, 0.04, mode_phi=2 if mode == "full2d" else 0)
    fields = geometry_from_graph(state, params_n2m2)

    def generic_recurrence(*args, **kwargs):
        raise AssertionError("stable_dt ran the (N, n) recurrence")

    monkeypatch.setattr(curvalg, "_speed_derivatives", generic_recurrence)
    monkeypatch.setattr(curvalg, "_esym_table", generic_recurrence)
    assert stable_dt(fields, params_n2m2) > 0.0


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_snapshot_round_trip_axisym(tmp_path, params_n2m1):
    state = perturbed_sphere_state(make_grid("axisymmetric", 2, 64), 1.0, 2, 0.05)
    state = GraphState(t=0.375, grid=state.grid, r=state.r * 1.000001)
    path = str(tmp_path / "snap.csv")
    save_snapshot(state, path)
    back = load_snapshot(path)
    assert back.t == state.t
    assert np.array_equal(back.r, state.r)
    assert back.grid.mode == "axisymmetric"
    assert back.grid.n == 2
    assert back.grid.n_theta == 64


def test_snapshot_round_trip_full2d(tmp_path, params_n2m1):
    state = perturbed_sphere_state(make_grid("full2d", 2, 32, 16), 1.0, 3, 0.04, mode_phi=2)
    path = str(tmp_path / "snap2d.csv")
    save_snapshot(state, path)
    back = load_snapshot(path)
    assert np.array_equal(back.r, state.r)
    assert back.grid.mode == "full2d"
    assert back.grid.n_phi == 16


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("not a snapshot\n1,2,3\n")
    with pytest.raises(HoroflowError):
        load_snapshot(str(path))


def test_snapshot_rejects_a_non_finite_time(tmp_path):
    state = sphere_state(make_grid("axisymmetric", 2, 16), 1.0)
    path = tmp_path / "snap.csv"
    save_snapshot(state, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].endswith("t=0.0")
    path.write_text("\n".join([lines[0][: -len("0.0")] + "nan"] + lines[1:]) + "\n")
    with pytest.raises(HoroflowError, match="non-finite time"):
        load_snapshot(str(path))


def test_snapshot_rejects_full2d_rows_out_of_node_order(tmp_path):
    grid = make_grid("full2d", 2, 16, 16)
    state = perturbed_sphere_state(grid, 1.0, 2, 0.05, mode_phi=2)
    path = tmp_path / "snap2d.csv"
    save_snapshot(state, str(path))
    header, *rows = path.read_text().splitlines()
    # The same nodes, phi-major: every unique theta and phi still matches the grid.
    swapped = [rows[i * grid.n_phi + j] for j in range(grid.n_phi) for i in range(grid.n_theta)]
    path.write_text("\n".join([header] + swapped) + "\n")
    with pytest.raises(HoroflowError, match="row-major order"):
        load_snapshot(str(path))


# ---------------------------------------------------------------------------
# Random smooth profiles stay coherent (hypothesis)
# ---------------------------------------------------------------------------


@given(
    amp2=st.floats(min_value=-0.05, max_value=0.05),
    amp3=st.floats(min_value=-0.04, max_value=0.04),
    r0=st.floats(min_value=0.5, max_value=2.0),
)
def test_random_profiles_keep_routes_consistent(amp2, amp3, r0):
    params = FlowParams(n=2, m=1, beta=1.0, ac=AmbientCurvature(kappa=-1.0))
    grid = make_grid("axisymmetric", 2, 96)
    r = r0 + amp2 * np.cos(2 * grid.theta) + amp3 * np.cos(3 * grid.theta)
    state = GraphState(t=0.0, grid=grid, r=r)
    direct = mean_curvature_direct(state, params)
    if np.min(direct) <= 0.0:
        # Small r0 with both amplitudes near their bounds dimples a pole
        # (H < 0 there), where the speed is undefined: the assembly must refuse.
        with pytest.raises(ParabolicityLostError):
            geometry_from_graph(state, params)
        return
    fields = geometry_from_graph(state, params)
    assert np.all(np.isfinite(fields.lam))
    assert np.all(np.diff(fields.lam, axis=1) >= 0.0)
    assert np.all(fields.xi_norm >= fields.s)
    assert np.max(np.abs(direct - fields.spectrum.esym(1))) < 1e-9

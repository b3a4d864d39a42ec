"""Contracting-sphere reference solution and comparison-geometry bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from horoflow import (
    AmbientCurvature,
    DomainError,
    FlowParams,
    ball_volume,
    contraction_residual,
    geodesic_distance_axis,
    inner_radius_estimate,
    make_grid,
    perturbed_sphere_state,
    psi_inverse,
    sphere_contraction,
    sphere_state,
    support_offset,
    unit_closed_form_radius,
    xi_comparison,
)
from horoflow.oracle import _xi_forward

CONTRACTION_CASES = (
    (2, 1, 1.0, -1.0),
    (3, 2, 1.0, -1.0),
    (2, 2, 1.0, -1.0),
    (3, 1, 2.0, -1.0),
    (2, 1, 1.0, -2.0),
)


def make_params(n, m, beta, kappa=-1.0):
    return FlowParams(n=n, m=m, beta=beta, ac=AmbientCurvature(kappa=kappa))


# ---------------------------------------------------------------------------
# Sphere contraction ODE vs the first integral
# ---------------------------------------------------------------------------


def test_contraction_residual_small():
    t_grid = np.linspace(0.0, 0.2, 41)
    for n, m, beta, kappa in CONTRACTION_CASES:
        params = make_params(n, m, beta, kappa)
        traj = sphere_contraction(1.0, params, t_grid)
        res = contraction_residual(traj)
        assert np.all(np.isfinite(res))
        assert np.max(np.abs(res)) < 1e-8, (n, m, beta, kappa)
    # cosh r = cosh(1.5) e^-t reaches 1 before t = 1: the samples past it are NaN
    traj = sphere_contraction(1.5, make_params(2, 1, 1.0), np.linspace(0.0, 1.0, 51))
    res = contraction_residual(traj)
    assert np.isnan(res[-1])
    assert float(np.nanmax(np.abs(res))) < 1e-6


def test_contraction_matches_closed_form(params_n2m1):
    t_grid = np.linspace(0.0, 0.4, 81)
    traj = sphere_contraction(1.0, params_n2m1, t_grid)
    exact = unit_closed_form_radius(1.0, t_grid, params_n2m1)
    assert np.max(np.abs(traj.r - exact)) < 1e-8
    assert traj.extinction_time is None


def test_extinction_time_matches_closed_form(params_n2m1):
    t_grid = np.linspace(0.0, 1.0, 201)
    traj = sphere_contraction(1.0, params_n2m1, t_grid)
    exact = math.log(math.cosh(1.0))
    assert traj.extinction_time is not None
    assert abs(traj.extinction_time - exact) < 1e-8
    # samples past the terminal floor are a NaN layer, not extrapolations
    past = t_grid > traj.extinction_time
    assert np.all(np.isnan(traj.r[past]))
    res = contraction_residual(traj)
    finite = np.isfinite(traj.r)
    assert np.max(np.abs(res[finite])) < 1e-8
    assert np.all(np.isnan(res[~finite]))


def test_contraction_is_deterministic(params_n3m2):
    t_grid = np.linspace(0.0, 0.15, 31)
    a = sphere_contraction(0.8, params_n3m2, t_grid)
    b = sphere_contraction(0.8, params_n3m2, t_grid)
    assert np.array_equal(a.r, b.r, equal_nan=True)


def test_contraction_input_validation(params_n2m1):
    with pytest.raises(DomainError):
        sphere_contraction(-1.0, params_n2m1, np.linspace(0.0, 1.0, 11))
    with pytest.raises(DomainError):
        sphere_contraction(1.0, params_n2m1, np.array([0.0]))
    with pytest.raises(DomainError):
        sphere_contraction(1.0, params_n2m1, np.array([0.0, 0.2, 0.1]))
    with pytest.raises(DomainError):
        sphere_contraction(1.0, params_n2m1, np.array([0.1, 0.2]))
    for r0 in (math.nan, math.inf):
        with pytest.raises(DomainError, match="r0 must be positive and finite"):
            sphere_contraction(r0, params_n2m1, np.linspace(0.0, 1.0, 11))
    with pytest.raises(DomainError, match="t_grid must be finite"):
        sphere_contraction(1.0, params_n2m1, np.array([0.0, 0.5, math.inf]))
    with pytest.raises(DomainError):
        unit_closed_form_radius(1.0, 10.0, params_n2m1)
    with pytest.raises(DomainError):
        unit_closed_form_radius(1.0, 0.1, make_params(3, 2, 1.0))


# ---------------------------------------------------------------------------
# Ball volumes and the volume radius
# ---------------------------------------------------------------------------


def test_ball_volume_closed_form_n2(params_n2m1):
    for r in (0.3, 1.0, 2.0):
        expected = math.pi * (math.sinh(2.0 * r) - 2.0 * r)
        assert float(ball_volume(r, params_n2m1)) == pytest.approx(expected, rel=1e-12)


def test_unit_ball_volume_frozen(params_n2m1):
    assert float(ball_volume(1.0, params_n2m1)) == pytest.approx(
        5.110932705708288, abs=1e-12
    )


def test_psi_inverse_round_trip():
    for kappa in (-1.0, -2.0):
        for n in (2, 3):
            params = make_params(n, 1, 1.0, kappa)
            for r in (0.25, 1.0, 3.0):
                v = float(ball_volume(r, params))
                assert psi_inverse(v, params) == pytest.approx(r, abs=1e-8)
    with pytest.raises(DomainError):
        psi_inverse(0.0, make_params(2, 1, 1.0))


# ---------------------------------------------------------------------------
# Comparison map, support offset, barrier time scale
# ---------------------------------------------------------------------------


def test_xi_comparison_inverts_forward_map(params_n2m1):
    for s in (0.5, 1.0, 2.5):
        x = xi_comparison(s, params_n2m1)
        assert 0.0 < x < s
        assert _xi_forward(x, params_n2m1) == pytest.approx(s, abs=1e-8)
    with pytest.raises(DomainError):
        xi_comparison(0.0, params_n2m1)


def test_support_offset_frozen_value(params_n2m1):
    # The offset takes the volume radius psi(V0), here of the unit ball.
    v0 = float(ball_volume(1.0, params_n2m1))
    zeta = support_offset(psi_inverse(v0, params_n2m1), params_n2m1)
    # reproducible to the bisection stopping width, not machine precision
    assert zeta == pytest.approx(0.023340717450369478, abs=1e-9)
    assert support_offset(1.0, params_n2m1) == pytest.approx(zeta, abs=1e-9)
    # the offset stays below the sphere's support value sinh(r0)
    assert 0.0 < zeta < math.sinh(1.0)


def test_geodesic_distance_axis_basics(params_n2m1):
    r = np.array([0.7, 1.0, 1.3])
    d0 = geodesic_distance_axis(0.0, r, np.cos(np.array([0.3, 1.0, 2.0])), params_n2m1)
    assert np.max(np.abs(d0 - r)) < 1e-12
    same = geodesic_distance_axis(1.0, np.array([1.0]), np.array([1.0]), params_n2m1)
    assert abs(float(same[0])) < 1e-6
    # antipodal configuration adds the offsets
    opp = geodesic_distance_axis(-0.5, np.array([1.0]), np.array([1.0]), params_n2m1)
    assert float(opp[0]) == pytest.approx(1.5, abs=1e-12)


def test_inner_radius_of_spheres():
    for n, r0 in ((2, 1.0), (3, 0.8)):
        params = make_params(n, 1, 1.0)
        state = sphere_state(make_grid("axisymmetric", n, 128), r0)
        assert inner_radius_estimate(state, params) == pytest.approx(r0, abs=1e-6)


def test_inner_radius_full2d_sphere(params_n2m1):
    state = sphere_state(make_grid("full2d", 2, 48, 16), 1.0)
    assert inner_radius_estimate(state, params_n2m1) == pytest.approx(1.0, abs=1e-6)


def test_inner_radius_of_perturbed_sphere(params_n2m1):
    state = perturbed_sphere_state(make_grid("axisymmetric", 2, 192), 1.0, 2, 0.05)
    rho = inner_radius_estimate(state, params_n2m1)
    assert float(np.min(state.r)) - 1e-3 <= rho <= float(np.max(state.r))


"""Curvature-adjusted trig: identities, limits, and domain policing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from horoflow import (
    AmbientCurvature,
    DomainError,
    generalized_cosine,
    generalized_cotangent,
    generalized_sine,
    generalized_tangent,
    kappa_trig,
)
from horoflow.hypergeom import generalized_sine_cosine

X_GRID = np.linspace(1e-4, 12.0, 1500)


def test_sine_cosine_pair_rounds_as_the_separate_calls():
    rng = np.random.default_rng(3)
    for kappa in (-0.25, -1.0, -2.0, -7.5):
        amb = AmbientCurvature(kappa=kappa)
        for x in (X_GRID, rng.uniform(-3.0, 3.0, (7, 5)), 0.7, [0.0, -1.5]):
            s, c = generalized_sine_cosine(x, amb)
            assert s.tobytes() == generalized_sine(x, amb).tobytes()
            assert c.tobytes() == generalized_cosine(x, amb).tobytes()


def test_unit_curvature_matches_hyperbolic_functions(ac):
    s, c, ta, co = kappa_trig(X_GRID, ac)
    assert np.allclose(s, np.sinh(X_GRID), rtol=0, atol=1e-12)
    assert np.allclose(c, np.cosh(X_GRID), rtol=0, atol=1e-12)
    assert np.allclose(ta, np.tanh(X_GRID), rtol=0, atol=1e-12)
    assert np.allclose(co, 1.0 / np.tanh(X_GRID), rtol=1e-12)


def test_pythagorean_identity_across_curvatures():
    for kappa in (-0.25, -1.0, -2.0, -7.5):
        amb = AmbientCurvature(kappa=kappa)
        s, c, _ta, _co = kappa_trig(X_GRID, amb)
        # relative to c^2: the difference cancels catastrophically at large x
        assert np.max(np.abs(c * c - amb.a**2 * s * s - 1.0) / (c * c)) < 1e-14
    # absolute, at kappa = -1 up to x = 8
    s, c, _ta, _co = kappa_trig(np.linspace(1e-3, 8.0, 4001), AmbientCurvature(kappa=-1.0))
    assert np.max(np.abs(c * c - s * s - 1.0)) < 1e-9


def test_tangent_cotangent_are_inverse(ac):
    ta = generalized_tangent(X_GRID, ac)
    co = generalized_cotangent(X_GRID, ac)
    assert np.max(np.abs(ta * co - 1.0)) < 1e-13


def test_sphere_curvature_decreasing_with_infimum_a():
    for kappa in (-1.0, -3.0):
        amb = AmbientCurvature(kappa=kappa)
        # strict decrease is only resolvable before co saturates at a in floats
        x = np.linspace(1e-4, 8.0 / amb.a, 900)
        co = generalized_cotangent(x, amb)
        assert np.all(np.diff(co) < 0.0)
        assert np.all(co > amb.a)
        assert abs(generalized_cotangent(40.0 / amb.a, amb) - amb.a) < 1e-12
    fine = generalized_cotangent(np.linspace(1e-3, 8.0, 4001), AmbientCurvature(kappa=-1.0))
    assert np.all(np.diff(fine) < 0.0)


def test_near_flat_limit_recovers_euclidean_values():
    amb = AmbientCurvature(kappa=-1e-12)
    x = np.linspace(0.1, 3.0, 7)
    assert np.allclose(generalized_sine(x, amb), x, rtol=1e-9)
    assert np.allclose(generalized_cosine(x, amb), 1.0, rtol=0, atol=1e-9)
    assert np.allclose(generalized_cotangent(x, amb), 1.0 / x, rtol=1e-9)


def test_cotangent_rejects_nonpositive_radius(ac):
    with pytest.raises(DomainError, match="x > 0"):
        generalized_cotangent(0.0, ac)
    with pytest.raises(DomainError, match="x > 0"):
        kappa_trig(np.array([1.0, 0.0]), ac)


def test_negative_radius_rejected(ac):
    # only the geodesic-distance bundle polices signs; the bare evaluators
    # are analytic functions and accept any real argument
    with pytest.raises(DomainError):
        kappa_trig(-0.5, ac)
    with pytest.raises(DomainError):
        kappa_trig(np.array([0.3, -0.1]), ac)
    with pytest.raises(DomainError):
        kappa_trig(float("inf"), ac)
    assert generalized_sine(-0.1, ac) == -generalized_sine(0.1, ac)


def test_ambient_curvature_validation():
    with pytest.raises(DomainError):
        AmbientCurvature(kappa=0.0)
    with pytest.raises(DomainError):
        AmbientCurvature(kappa=1.0)
    with pytest.raises(DomainError):
        AmbientCurvature(kappa=float("nan"))
    assert AmbientCurvature(kappa=-4.0).a == 2.0


@given(
    x=st.floats(min_value=1e-5, max_value=30.0),
    kappa=st.floats(min_value=-9.0, max_value=-1e-6),
)
def test_identities_hold_everywhere(x, kappa):
    amb = AmbientCurvature(kappa=kappa)
    s, c, ta, co = kappa_trig(x, amb)
    assert abs(c * c - amb.a**2 * s * s - 1.0) < 1e-9 * c * c
    assert abs(ta * co - 1.0) < 1e-10
    assert co >= amb.a

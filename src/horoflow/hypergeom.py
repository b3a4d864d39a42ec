"""Ambient hyperbolic geometry: curvature bookkeeping and generalized trig.

The ambient space is the simply connected space form of constant sectional
curvature kappa < 0.  Writing a = sqrt(-kappa), the generalized sine

    s(x) = sinh(a x) / a

solves s'' = a^2 s with s(0) = 0, s'(0) = 1, and everything else is built
from it: c = s', ta = s/c, co = c/s.  A geodesic sphere of radius x has
principal curvatures co(x) in every direction, so co is the quantity the
curvature modules lean on; it decreases strictly from +inf to its infimum a
as x runs over (0, inf).

All evaluators broadcast over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class AmbientCurvature:
    """Sectional curvature of the ambient space form.  Must be negative."""

    kappa: float

    def __post_init__(self):
        ConfigurationError.raise_if(self.problems(self.kappa))

    @staticmethod
    def problems(kappa) -> list[str]:
        """The rule on params.kappa."""
        if kappa is not None and not (math.isfinite(kappa) and kappa < 0.0):
            return [f"params.kappa must be negative (hyperbolic ambient) and finite, got {kappa}"]
        return []

    @property
    def a(self) -> float:
        # Derived, never stored: a = sqrt(|kappa|).  math.sqrt rounds exactly
        # as np.sqrt does, without the array round trip on every read.
        return math.sqrt(-self.kappa)


def generalized_sine(x, ac: AmbientCurvature):
    """Return s(x) = sinh(a x)/a."""
    a = ac.a
    return np.sinh(a * np.asarray(x, dtype=float)) / a


def generalized_cosine(x, ac: AmbientCurvature):
    """Return c(x) = cosh(a x) = s'(x)."""
    return np.cosh(ac.a * np.asarray(x, dtype=float))


def generalized_sine_cosine(x, ac: AmbientCurvature):
    """Return (s(x), c(x)) from one product a x; bit for bit the two separate calls."""
    a = ac.a
    ax = a * np.asarray(x, dtype=float)
    return np.sinh(ax) / a, np.cosh(ax)


def generalized_tangent(x, ac: AmbientCurvature):
    """Return ta(x) = s(x)/c(x) = tanh(a x)/a."""
    a = ac.a
    return np.tanh(a * np.asarray(x, dtype=float)) / a


def generalized_cotangent(x, ac: AmbientCurvature):
    """Return co(x) = c(x)/s(x) = a/tanh(a x); requires x > 0 elementwise."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("co(x) requires x > 0; geodesic radius hit zero")
    a = ac.a
    return a / np.tanh(a * x)


def kappa_trig(x, ac: AmbientCurvature):
    """Return the tuple (s, c, ta, co) of generalized trig values at x.

    x must be positive and finite, a geodesic radius: co has a pole at x = 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x)):
        raise DomainError("kappa_trig requires finite x")
    s, c = generalized_sine_cosine(x, ac)
    return s, c, generalized_tangent(x, ac), generalized_cotangent(x, ac)

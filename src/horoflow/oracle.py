"""Closed-form and ODE-level reference solutions for cross-checking the flow.

Geodesic spheres evolve by radius alone: without the volume constraint a
sphere of radius r contracts at speed co(r)^{m beta}, which gives both an
independently integrable ODE and an implicit first integral to test any
trajectory against.  The module also provides the volume-to-radius inverse
(the radius of the ball with a prescribed volume), the linearized decay
rate of each mode about a sphere, the inner-radius comparison map for
h-convex domains, and an inner-radius estimator for simulated states based
on ambient distances.

Everything here deliberately avoids the discretized geometry pipeline, so
agreement between the two is evidence, not tautology.

scipy is imported inside the two functions that use it (sphere_contraction
and contraction_residual), so importing horoflow never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvalg import FlowParams
from .errors import DomainError, RootFindingError
from .graphgeom import GraphState, _sphere_area
from .hypergeom import generalized_cotangent, generalized_sine, generalized_tangent

BISECTION_TOL = 1.0e-12
EXTINCTION_RADIUS_FACTOR = 1.0e-3
AXIS_CANDIDATES = 33
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SphereTrajectory:
    """A contracting-sphere solution sampled on a time grid.

    The contraction has a finite-time singularity, so the integration stops
    once the radius falls below a small floor (1e-3 of the initial radius);
    samples in that terminal layer and beyond are reported as NaN.
    extinction_time is None when the window ends before the floor is hit.
    """

    t: np.ndarray
    r: np.ndarray
    r0: float
    params: FlowParams
    extinction_time: float | None


def sphere_contraction(r0: float, params: FlowParams, t_grid) -> SphereTrajectory:
    """Integrate dr/dt = -co(r)^{m beta} from r0 over the given times."""
    from scipy.integrate import quad, solve_ivp

    if not (math.isfinite(r0) and r0 > 0.0):
        raise DomainError(f"initial sphere radius r0 must be positive and finite, got {r0}")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise DomainError("t_grid must be finite")
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0.0):
        raise DomainError("t_grid must be strictly increasing with >= 2 samples")
    if t_grid[0] != 0.0:
        raise DomainError("t_grid must start at 0")
    mbeta = params.mbeta
    floor = EXTINCTION_RADIUS_FACTOR * r0

    def rhs(_t, y):
        return [-float(generalized_cotangent(max(y[0], floor), params.ac) ** mbeta)]

    def hit_floor(_t, y):
        return y[0] - floor

    hit_floor.terminal = True
    hit_floor.direction = -1.0

    sol = solve_ivp(
        rhs,
        (0.0, float(t_grid[-1])),
        [float(r0)],
        method="RK45",
        t_eval=t_grid,
        rtol=1e-10,
        atol=1e-13,
        events=hit_floor,
        max_step=np.diff(t_grid).min() if t_grid.size > 2 else np.inf,
    )
    if not sol.success and sol.status != 1:
        raise RootFindingError(f"sphere contraction integration failed: {sol.message}")
    r = np.full_like(t_grid, np.nan)
    r[: sol.y.shape[1]] = sol.y[0]
    extinction = None
    if sol.status == 1 and sol.t_events[0].size:
        # The time left below the floor follows from the first integral;
        # it only refines the reported extinction time, never the samples.
        tail, _err = quad(
            lambda s: generalized_tangent(s, params.ac) ** mbeta,
            0.0,
            floor,
            epsabs=1e-14,
            epsrel=1e-12,
        )
        extinction = float(sol.t_events[0][0]) + tail
    return SphereTrajectory(t=t_grid, r=r, r0=float(r0), params=params, extinction_time=extinction)


def contraction_residual(traj: SphereTrajectory) -> np.ndarray:
    """First-integral residual int_{r0}^{r(t)} ta(s)^{m beta} ds + t per sample.

    Vanishes identically on the exact solution; evaluated by adaptive
    quadrature, a route independent of the ODE integrator.
    """
    from scipy.integrate import quad

    mbeta = traj.params.mbeta
    ac = traj.params.ac

    def integrand(s):
        return generalized_tangent(s, ac) ** mbeta

    out = np.full_like(traj.t, np.nan)
    for i, (t, r) in enumerate(zip(traj.t, traj.r)):
        if not np.isfinite(r):
            continue
        val, _err = quad(integrand, traj.r0, r, epsabs=1e-12, epsrel=1e-12, limit=200)
        out[i] = val + t
    return out


def unit_closed_form_radius(r0: float, t, params: FlowParams):
    """Closed-form contracting sphere for m beta = 1, a = 1: cosh r = cosh(r0) e^{-t}."""
    if abs(params.mbeta - 1.0) > 1e-12 or abs(params.a - 1.0) > 1e-12:
        raise DomainError("closed form requires m*beta = 1 and a = 1")
    arg = np.cosh(r0) * np.exp(-np.asarray(t, dtype=float))
    if np.any(arg < 1.0):
        raise DomainError("closed form evaluated past extinction")
    return np.arccosh(arg)


def ball_volume(radius, params: FlowParams):
    """Volume of the geodesic ball: |S^n| Int_0^radius s(t)^n dt."""
    from .graphgeom import enclosed_volume_integrand

    return _sphere_area(params.n) * enclosed_volume_integrand(radius, params)


def _bisect(fn, lo: float, hi: float, tol: float = BISECTION_TOL, max_iter: int = 200) -> float:
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise RootFindingError("bisection bracket does not straddle a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0 or (hi - lo) < tol * max(1.0, abs(mid)):
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    raise RootFindingError("bisection failed to converge")


def psi_inverse(volume: float, params: FlowParams) -> float:
    """Radius of the geodesic ball whose volume equals the argument."""
    if volume <= 0.0:
        raise DomainError("volume must be positive")
    hi = 1.0
    # Doubling may pass the radius where sinh^n overflows; an infinite ball
    # volume still brackets the root, so the overflow is not an error here.
    with np.errstate(over="ignore"):
        while float(ball_volume(hi, params)) < volume:
            hi *= 2.0
            if hi > 1e6:
                raise RootFindingError("ball volume bracket exploded; volume too large")
        return _bisect(lambda s: float(ball_volume(s, params)) - volume, 0.0, hi)


def linearized_rate(params: FlowParams, radius: float, l: int) -> float:
    """Decay rate mu_l of the degree-l spherical-harmonic mode about the sphere of this radius R.

    Every principal curvature of the sphere is lambda = co(R), so each
    dF/dlambda_i is (m beta / n) lambda^(m beta - 1); linearized, the flow
    damps the mode at mu_l = (m beta / n) co(R)^(m beta - 1)
    (l(l + n - 1) - n) / s(R)^2 (Escher & Simonett, Proc. AMS 126 (1998);
    Cabezas-Rivas & Sinestrari, Calc. Var. PDE 38 (2010)).  Mode 1, a
    translation, does not decay, so l = 2 is the slowest decaying mode.
    """
    n, mbeta = params.n, params.mbeta
    co = float(generalized_cotangent(radius, params.ac))
    s = float(generalized_sine(radius, params.ac))
    return (mbeta / n) * co ** (mbeta - 1.0) * (l * (l + n - 1) - n) / (s * s)


def _xi_forward(s: float, params: FlowParams) -> float:
    a = params.a
    ta_half = float(generalized_tangent(s / 2.0, params.ac))
    return s + a * np.log((1.0 + np.sqrt(ta_half)) ** 2 / (1.0 + ta_half))


def xi_comparison(s_target: float, params: FlowParams) -> float:
    """Inverse of the h-convex comparison map: the x with x + correction(x) = s.

    Strictly below s_target, since the correction term is positive; this is
    the inner-radius lower bound paired with the volume radius upper bound.
    """
    if s_target <= 0.0:
        raise DomainError("comparison map needs a positive radius")
    root = _bisect(lambda x: _xi_forward(x, params) - s_target, 0.0, s_target)
    if not root < s_target:
        raise RootFindingError("comparison inverse failed to land strictly below its argument")
    return root


def support_offset(radius0: float, params: FlowParams) -> float:
    """Offset below the support function used by the speed-bound ratio.

    The comparison argument guarantees Phi > zeta along the flow, with
    zeta = a s(D1) ta(D1) / 2 at the half inner-radius bound D1 = xi(radius0) / 2,
    radius0 = psi(V0); the ratio F / (Phi - zeta) then stays finite.
    """
    d1 = xi_comparison(radius0, params) / 2.0
    s = float(generalized_sine(d1, params.ac))
    ta = float(generalized_tangent(d1, params.ac))
    return 0.5 * params.a * s * ta


# ---------------------------------------------------------------------------
# Ambient distances and the inner radius of simulated states
# ---------------------------------------------------------------------------


def geodesic_distance_axis(z, r, cos_angle, params: FlowParams):
    """Distance from an axis point at signed offset z to (r, angle) points.

    Hyperbolic law of cosines: cosh(a d) = cosh(a z) cosh(a r)
    - sinh(a z) sinh(a r) cos(angle); z < 0 encodes the far side of the axis.
    With z >= 0 it is the distance between any two points at radii z and r
    from the chart center that subtend the angle.
    """
    a = params.a
    arg = np.cosh(a * z) * np.cosh(a * r) - np.sinh(a * z) * np.sinh(a * r) * cos_angle
    return np.arccosh(np.maximum(arg, 1.0)) / a


def _axisym_min_distance(z: float, state: GraphState, params: FlowParams) -> float:
    cos_t = np.cos(state.grid.theta)
    d = geodesic_distance_axis(z, state.r, cos_t, params)
    return float(np.min(d))


def inner_radius_estimate(state: GraphState, params: FlowParams) -> float:
    """Largest ball radius seated inside the surface, to grid resolution.

    Axisymmetric states scan candidate centers along the symmetry axis and
    refine the best with one golden-section pass; full2d states scan a coarse
    interior lattice of directions and radii, then refine radially.
    """
    grid = state.grid
    if grid.mode == "axisymmetric":
        z_lo = -0.98 * float(state.r[-1])
        z_hi = 0.98 * float(state.r[0])
        candidates = np.linspace(z_lo, z_hi, AXIS_CANDIDATES)
        vals = np.array([_axisym_min_distance(z, state, params) for z in candidates])
        k = int(np.argmax(vals))
        lo = candidates[max(0, k - 1)]
        hi = candidates[min(candidates.size - 1, k + 1)]
        return _golden_max(lambda z: _axisym_min_distance(z, state, params), lo, hi)

    # full2d: directions subsampled from the grid plus the poles.
    theta = np.repeat(grid.theta, grid.n_phi)
    phi = np.tile(grid.phi, grid.n_theta)
    u = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1
    )
    r = state.r_flat
    stride = max(1, r.size // 64)
    dirs = np.vstack([u[::stride], [[0.0, 0.0, 1.0]], [[0.0, 0.0, -1.0]]])

    def min_dist(center_rho: float, v: np.ndarray) -> float:
        return float(np.min(geodesic_distance_axis(center_rho, r, u @ v, params)))

    best = (0.0, dirs[0])
    best_val = min_dist(0.0, dirs[0])
    rho_scan = np.array([0.2, 0.4, 0.6]) * float(np.min(r))
    for v in dirs:
        for rho in rho_scan:
            val = min_dist(float(rho), v)
            if val > best_val:
                best_val, best = val, (float(rho), v)
    rho0, v0 = best
    return _golden_max(lambda rho: min_dist(rho, v0), max(0.0, rho0 - 0.3), rho0 + 0.3)


def _golden_max(fn, lo: float, hi: float, iters: int = 40) -> float:
    """One golden-section maximization pass over [lo, hi]."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = fn(x1)
    return max(f1, f2)


"""Output checks that do not go through horoflow's own code.

Every quantity here is recomputed from the program's outputs (CSV text,
JSON, radial profiles, constant tables) with numpy/scipy alone: ball
volumes by adaptive quadrature, radii by bracketing root finds, enclosed
volumes by the benchmark's own quadrature weights, the slice constant and
the n = 2 gradient floor from their closed forms, and the decay rate by an
explicit least-squares line.  Each check returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

VOLUME_DRIFT_MAX = 1.0e-4
QTILDE_SLACK_PER_RECORD = 1.0e-6
DECAY_R2_MIN = 0.99
FIT_FLOOR = 1.0e-13
FIT_SKIP_FRACTION = 0.1
RADIUS_RTOL = 1.0e-6
C_STAR_RTOL = 1.0e-12
N2M2_FLOOR_ATOL = 1.0e-12
TABLE_MONOTONE_RTOL = 1.0e-12


# ---------------------------------------------------------------------------
# Geometry of geodesic balls, by quadrature
# ---------------------------------------------------------------------------


def sphere_measure(dim: int) -> float:
    """|S^dim|, the measure of the round unit sphere."""
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


def radial_volume(r: float, n: int, kappa: float) -> float:
    """Integral of s(t)^n over [0, r], s(t) = sinh(a t)/a, a = sqrt(-kappa)."""
    a = math.sqrt(-kappa)
    value, _err = quad(lambda t: (math.sinh(a * t) / a) ** n, 0.0, r, epsabs=0.0, epsrel=1e-13)
    return value


def ball_volume(rho: float, n: int, kappa: float) -> float:
    """Volume of the geodesic ball of radius rho in H^{n+1}: |S^n| * radial_volume."""
    return sphere_measure(n) * radial_volume(rho, n, kappa)


def ball_radius(volume: float, n: int, kappa: float) -> float:
    """Radius of the geodesic ball enclosing the given volume."""
    hi = 1.0
    while ball_volume(hi, n, kappa) < volume:
        hi *= 2.0
    return brentq(lambda rho: ball_volume(rho, n, kappa) - volume, 0.0, hi, xtol=1e-15, rtol=1e-15)


def axisym_volume(theta, r, n: int, kappa: float) -> float:
    """Enclosed volume of r(theta) on a uniform pole-to-pole grid (trapezoid in theta)."""
    theta = np.asarray(theta, dtype=float)
    h = (theta[-1] - theta[0]) / (theta.size - 1)
    trap = np.full(theta.size, h)
    trap[0] = trap[-1] = 0.5 * h
    weights = sphere_measure(n - 1) * np.sin(theta) ** (n - 1) * trap
    radial = np.array([radial_volume(float(v), n, kappa) for v in np.ravel(r)])
    return float(np.sum(weights * radial))


def full2d_volume(n_theta: int, n_phi: int, r, kappa: float) -> float:
    """Enclosed volume of r(theta, phi) on a cell-centred lat-long grid (n = 2)."""
    h_t = math.pi / n_theta
    h_p = 2.0 * math.pi / n_phi
    theta = (np.arange(n_theta) + 0.5) * h_t
    weights = np.repeat(np.sin(theta) * h_t * h_p, n_phi)
    radial = np.array([radial_volume(float(v), 2, kappa) for v in np.ravel(r)])
    return float(np.sum(weights * radial))


# ---------------------------------------------------------------------------
# Closed forms behind the pinching constants
# ---------------------------------------------------------------------------


def c_star_closed_form(epsilon0: float, n: int) -> float:
    """C* = eps0 * ((1 - eps0)/(n - 1))^(n - 1)."""
    return epsilon0 * ((1.0 - epsilon0) / (n - 1)) ** (n - 1)


def n2m2_gradient_floor(eps):
    """Exact minimum of min_i dF/dlambda_i over the unit pinching cone for F = lambda_1 lambda_2."""
    eps = np.asarray(eps, dtype=float)
    return eps / np.sqrt(eps * eps + (1.0 - eps) ** 2)


# ---------------------------------------------------------------------------
# Parsing the program's files
# ---------------------------------------------------------------------------


def parse_diagnostics(text: str) -> dict[str, np.ndarray]:
    """Columns of a diagnostics CSV (one '#' comment line, a header, float rows)."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: table[:, k] for k, name in enumerate(header)}


def parse_snapshot(text: str) -> np.ndarray:
    """Rows of a grid snapshot CSV (theta,r or theta,phi,r) after its '#' header."""
    rows = [
        [float(v) for v in line.split(",")]
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# Series checks
# ---------------------------------------------------------------------------


def fit_decay(t, y, floor: float = FIT_FLOOR, skip_fraction: float = FIT_SKIP_FRACTION):
    """Least-squares line through (t, log y) for y above floor; returns (rate, r_squared, n)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(t) & np.isfinite(y) & (y > floor)
    t, y = t[keep], y[keep]
    start = int(skip_fraction * t.size)
    t, logy = t[start:], np.log(y[start:])
    if t.size < 10:
        return math.nan, math.nan, int(t.size)
    tm, lm = t.mean(), logy.mean()
    stt = float(np.sum((t - tm) ** 2))
    slope = float(np.sum((t - tm) * (logy - lm))) / stt
    resid = logy - (lm + slope * (t - tm))
    ss_tot = float(np.sum((logy - lm) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return -slope, r_squared, int(t.size)


def check_series(cols: dict) -> list[str]:
    """Qtilde_min nondecreasing within the per-record slack, lambda_tilde_min > 0."""
    failures = []
    q = np.asarray(cols["Qtilde_min"], dtype=float)
    if q.size < 2 or not np.all(np.isfinite(q)):
        failures.append("Qtilde_min series is shorter than 2 records or not finite")
    else:
        worst = float(np.max(q[:-1] - q[1:]))
        if worst > QTILDE_SLACK_PER_RECORD:
            failures.append(f"Qtilde_min decreases by {worst:.3g} between records")
    lam = np.asarray(cols["lambda_tilde_min"], dtype=float)
    if not np.all(lam > 0.0):
        failures.append(f"lambda_tilde_min reaches {float(np.min(lam)):.3g} <= 0")
    return failures


def check_decay(cols: dict) -> list[str]:
    """f_max decays exponentially: positive rate with r^2 >= DECAY_R2_MIN."""
    rate, r2, used = fit_decay(cols["t"], cols["f_max"])
    if not (rate > 0.0 and r2 >= DECAY_R2_MIN):
        return [f"f_max decay fit rate={rate:.4g}, r^2={r2:.6g} on {used} samples"]
    return []


def check_volume_drift(v_initial: float, v_final: float) -> list[str]:
    drift = abs(v_final - v_initial) / abs(v_initial)
    if not drift <= VOLUME_DRIFT_MAX:
        return [f"relative volume drift {drift:.3g} exceeds {VOLUME_DRIFT_MAX:g}"]
    return []


def check_final_radius(volume: float, r_final, n: int, kappa: float) -> list[str]:
    """The final state is the geodesic sphere enclosing the given volume."""
    r_final = np.asarray(r_final, dtype=float)
    rho = ball_radius(volume, n, kappa)
    mean = float(np.mean(r_final))
    failures = []
    if abs(mean - rho) > RADIUS_RTOL * rho:
        failures.append(f"final radius {mean!r} differs from ball radius {rho!r}")
    spread = float(np.max(r_final) - np.min(r_final))
    if spread > RADIUS_RTOL * rho:
        failures.append(f"final state is not round: radial spread {spread:.3g}")
    return failures


def check_identical(previous: bytes | None, current: bytes, what: str) -> list[str]:
    if previous is not None and previous != current:
        return [f"{what} differs between two repetitions of the same input"]
    return []


# ---------------------------------------------------------------------------
# Workload-level checks
# ---------------------------------------------------------------------------


def check_axisym_run(files: dict[str, str], n: int, kappa: float) -> list[str]:
    """Check a converged axisymmetric run from the text of its output files.

    files maps 'summary.json', 'diagnostics.csv', 'snapshot_000000.csv' and
    'final_state.csv' to their contents.
    """
    failures = []
    summary = json.loads(files["summary.json"])
    if not (summary.get("converged") is True and summary.get("status") == "converged"):
        failures.append(f"run did not converge: status {summary.get('status')!r}")
    cols = parse_diagnostics(files["diagnostics.csv"])
    failures += check_series(cols)
    failures += check_decay(cols)
    initial = parse_snapshot(files["snapshot_000000.csv"])
    final = parse_snapshot(files["final_state.csv"])
    v0 = axisym_volume(initial[:, 0], initial[:, 1], n, kappa)
    v1 = axisym_volume(final[:, 0], final[:, 1], n, kappa)
    failures += check_volume_drift(v0, v1)
    failures += check_final_radius(v0, final[:, 1], n, kappa)
    return failures


def check_horizon_run(
    status: str,
    t_final: float,
    t_end: float,
    cols: dict,
    grid_shape: tuple[int, int],
    r_initial,
    r_final,
    kappa: float,
) -> list[str]:
    """Check a full2d run stopped at its horizon, from its records and end states."""
    failures = []
    if status != "t_end" or abs(t_final - t_end) > 1e-12 * max(1.0, t_end):
        failures.append(f"run stopped at t={t_final!r} with status {status!r}, not at t_end={t_end!r}")
    failures += check_series(cols)
    f_max = np.asarray(cols["f_max"], dtype=float)
    if not f_max[-1] < f_max[0]:
        failures.append(f"f_max did not decrease: {f_max[0]!r} -> {f_max[-1]!r}")
    n_theta, n_phi = grid_shape
    v0 = full2d_volume(n_theta, n_phi, r_initial, kappa)
    v1 = full2d_volume(n_theta, n_phi, r_final, kappa)
    failures += check_volume_drift(v0, v1)
    return failures


def check_constants(
    n: int,
    m: int,
    epsilon0: float,
    c_star: float,
    degenerate: bool,
    eps_grid,
    grad_floor_table,
    hess_ceiling_table,
) -> list[str]:
    """Check a pinching-constants solve against closed forms and monotonicity."""
    failures = []
    tag = f"n{n}m{m}"
    if degenerate:
        failures.append(f"{tag}: constants are degenerate for a nonlinear speed")
    if not 0.0 < c_star < 1.0 / n**n:
        failures.append(f"{tag}: C* = {c_star!r} outside (0, 1/n^n)")
    expected = c_star_closed_form(epsilon0, n)
    if not math.isclose(c_star, expected, rel_tol=C_STAR_RTOL, abs_tol=0.0):
        failures.append(f"{tag}: C* = {c_star!r} but eps0((1-eps0)/(n-1))^(n-1) = {expected!r}")
    floor = np.asarray(grad_floor_table, dtype=float)
    ceiling = np.asarray(hess_ceiling_table, dtype=float)
    if np.any(np.diff(floor) < -TABLE_MONOTONE_RTOL * np.abs(floor[1:])):
        failures.append(f"{tag}: gradient floor decreases in eps")
    if np.any(np.diff(ceiling) > TABLE_MONOTONE_RTOL * np.abs(ceiling[:-1])):
        failures.append(f"{tag}: Hessian ceiling increases in eps")
    if n == 2 and m == 2:
        exact = n2m2_gradient_floor(eps_grid)
        worst = float(np.max(np.abs(floor - exact)))
        if worst > N2M2_FLOOR_ATOL:
            failures.append(f"{tag}: gradient floor differs from its exact minimum by {worst:.3g}")
    return failures

"""Time integration of the volume-preserving scalar flow of a radial graph.

The normal speed is the deviation of the curvature speed from its area
average, so the enclosed volume is conserved by construction; the radial
function then satisfies dr/dt = (Fbar - F) |xi| / s at every node.  Two
explicit second-order integrators recompute the nonlocal average at every
stage.  The default, damped RKC2 (Sommeijer, Shampine & Verwer, J. Comput.
Appl. Math. 88 (1998)), takes a fixed share of the slowest mode's decay
time about the limit sphere (oracle.linearized_rate) as its dt, and enough
Chebyshev stages to cover the parabolic stability scale of the linearized
operator, then closes each step on the initial volume with one uniform
radial shift.  Heun's method, the reference, takes the stability scale
itself as its dt.

Geodesic spheres make the right-hand side vanish identically, so they are
exact discrete equilibria; the run loop therefore declares convergence from
the state itself (roundness deficit below tolerance and relative radial
oscillation below a fixed threshold) rather than from step counts.

Each run gives one account of itself, the summary dict of run's exit, written
to summary.json; its drift and decay fit come from monitors, as analyze's do.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .curvalg import (
    DEFAULT_SAMPLES,
    MIN_SAMPLES,
    FlowParams,
    PinchingConstants,
    solve_pinching_constants,
    speed_gradient,
)
from .errors import (
    ConfigurationError,
    DomainError,
    HoroflowError,
    NumericalBlowupError,
    RootFindingError,
    StiffnessError,
)
from .graphgeom import (
    GeometryFields,
    GraphState,
    GridSpec,
    dt_limit,
    enclosed_volume_integrand,
    geometry_from_graph,
    polar_filter,
    save_snapshot,
)
from .hypergeom import generalized_sine
from .monitors import (
    DiagnosticsRecorder,
    average_speed,
    decay_fit,
    shifted_minima,
    volume_drift,
)
from .oracle import linearized_rate, psi_inverse, support_offset

logger = logging.getLogger(__name__)

SCHEMES = ("rkc", "heun")

# Damping of the RKC2 stability polynomial (Verwer, Hundsdorfer & Sommeijer,
# Numer. Math. 57 (1990)): it keeps the real stability interval a strip of
# positive width, at the cost of about 2% of its length.
RKC_DAMPING = 2.0 / 13.0

# Most RKC stages per step; past it dt shrinks to fit the stability interval.
RKC_MAX_STAGES = 64

# Largest share of the slowest mode's e-folding time 1/mu_2 that one RKC step
# spans.  The decay rate's relative error is about 0.05 (mu_2 dt)^2, so the
# fitted rate stays within about 2e-4 of Heun's at any radius.
RKC_ACCURACY = 0.05

# Consecutive steps pinned at the dt floor before the run aborts as stiff.
STIFFNESS_PATIENCE = 10

# Relative radial oscillation (max r - min r) / mean r below which the state
# counts as a geodesic sphere for the convergence test.
R_OSCILLATION_RTOL = 1.0e-8

# Accepted steps after which a run stops with status max_steps.
DEFAULT_MAX_STEPS = 2_000_000

# Step fraction (the safety in stable_dt) per grid mode.  On the
# finite-difference Jacobians of flow_rhs measured (see the README) the
# spectrum is real, or nearly so, and rho * dt_1, rho times stable_dt at
# safety 1, peaks at 3.49 axisymmetric and 5.57 on full2d, so these run
# Heun at rho * dt <= 1.40 and 1.11, where 2 is stable.
SAFETY = {"axisymmetric": 0.4, "full2d": 0.2}

# Floor of stable_dt; STIFFNESS_PATIENCE steps pinned at it abort the run.
DT_MIN = 1.0e-10


@dataclass(frozen=True)
class RunConfig:
    """One run: the speed, the initial hypersurface, the horizon, and the knobs.

    The defaults are the config file's defaults.  Diagnostics rows are taken
    every record_interval of flow time; snapshots (every snapshot_interval)
    and the output files are written only when output_dir is set.  The
    constants' Hessian ceiling comes from the few-value curves alone, and so
    does the gradient floor of a quadratic speed (beta = 1, m <= 2), which
    lies on a cone vertex; a non-quadratic speed's floor also takes a cloud
    of constants_samples cone points seeded by constants_seed.
    scheme is no config key: Heun steps at stable_dt and is the reference
    that tests compare rkc against; rkc steps at RKC_ACCURACY / mu_2, or less
    where t_end asks for it, with the stages that stable_dt asks for.
    """

    params: FlowParams
    initial: GraphState
    t_end: float
    scheme: str = "rkc"
    record_interval: float = 0.002
    snapshot_interval: float | None = None
    f_tol: float = 1e-8
    output_dir: str | None = None
    constants_samples: int = DEFAULT_SAMPLES
    constants_seed: int = 0

    def __post_init__(self):
        problems = self.problems(
            self.params.n, self.initial.grid.n, self.t_end, self.record_interval,
            self.snapshot_interval, self.f_tol, self.constants_samples, self.constants_seed,
            self.params.ac.kappa, float(self.initial.r.max()),
        )
        if self.scheme not in SCHEMES:
            problems.append(f"scheme must be one of {', '.join(SCHEMES)}, got {self.scheme!r}")
        ConfigurationError.raise_if(problems)

    @staticmethod
    def problems(
        params_n, grid_n, t_end, record_interval, snapshot_interval, f_tol,
        constants_samples, constants_seed, kappa=None, r_max=None,
    ) -> list[str]:
        """The rules on flow.*, constants.*, the grid dimension and the largest radius.

        None disables snapshots, and skips the rules that read a missing value.
        """
        positive = {
            "flow.t_end": t_end,
            "flow.record_interval": record_interval,
            "flow.snapshot_interval": snapshot_interval,
            "flow.f_tol": f_tol,
        }
        problems = [
            f"{key} must be positive and finite, got {value}"
            for key, value in positive.items()
            if value is not None and not (math.isfinite(value) and value > 0.0)
        ]
        if constants_samples is not None and constants_samples < MIN_SAMPLES:
            problems.append(f"constants.n_samples must be >= {MIN_SAMPLES}, got {constants_samples}")
        if constants_seed is not None and constants_seed < 0:
            problems.append(f"constants.seed must be >= 0, got {constants_seed}")
        if params_n is not None and grid_n is not None and grid_n != params_n:
            problems.append(f"initial.grid.n = {grid_n} does not match params.n = {params_n}")
        n_ok = isinstance(params_n, int) and params_n >= 2
        if n_ok and kappa is not None and r_max is not None and kappa < 0.0:
            a = math.sqrt(-kappa)
            limit = scaled_radius_limit(params_n, a)
            if not a * r_max < limit:
                problems.append(
                    f"initial.r0 and params.kappa: sqrt(-kappa) * max r = {a * r_max:.6g} must be "
                    f"< {limit:.6g} for n = {params_n} (larger radii overflow a double)"
                )
        return problems


# log of the largest double, less 2^16 of headroom for the factors the
# estimates in scaled_radius_limit leave out (the speed, the volume's 1/(n a)).
_LOG_FLOAT_MAX = math.log(sys.float_info.max / 2.0**16)


def scaled_radius_limit(n: int, a: float) -> float:
    """Bound on a * max r below which a run's intermediate values stay finite.

    With x = a r and s = sinh(x)/a < e^x/(2a), the curvature formulas form
    the cube s^2 cosh(x) < e^(3x)/(8 a^2), and the area, volume and speed
    average sum |S^n| s^n < |S^n| (e^x/(2a))^n over the hypersurface.  The
    bound keeps both below the largest double (the sum binds for n >= 3).
    """
    log_a = math.log(a)
    half = (n + 1) / 2.0
    log_area = math.log(2.0) + half * math.log(math.pi) - math.lgamma(half)  # log |S^n|
    cube = (_LOG_FLOAT_MAX + 3.0 * math.log(2.0) + 2.0 * log_a) / 3.0
    power = (_LOG_FLOAT_MAX - log_area) / n + math.log(2.0) + log_a
    return min(cube, power)


def _stage_rate(grid: GridSpec, fields: GeometryFields) -> np.ndarray:
    """Per-node dr/dt on the grid's natural shape.

    On full2d the rate is polar-filtered, so a filtered state stays filtered.
    """
    rate = ((average_speed(fields) - fields.F) * fields.xi_norm / fields.s).reshape(grid.shape)
    return polar_filter(grid, rate)


def flow_rhs(state: GraphState, params: FlowParams) -> np.ndarray:
    """Evaluate dr/dt = (Fbar - F) |xi| / s on the grid's natural shape."""
    return _stage_rate(state.grid, geometry_from_graph(state, params))


def stable_dt(fields: GeometryFields, params: FlowParams) -> float:
    """Parabolic stability step from the linearized diffusion scale.

    The linearization of the speed in the radial Hessian has directional
    diffusion coefficients bounded by the components of the speed gradient
    over the induced metric factors; their sum (the gradient trace) bounds
    the largest eigenvalue including the pole-regularized azimuthal cells,
    so dt = safety * (min induced spacing)^2 / max_nodes trace(dF), with the
    trace in closed form on the fields' pair spectrum and safety the fields'
    grid mode's SAFETY, floored at DT_MIN.
    """
    scale = float(speed_gradient(fields.spectrum, params, trace=True).max())
    if not math.isfinite(scale) or scale <= 0.0:
        raise DomainError("diffusion scale must be positive and finite")
    dt = SAFETY[fields.mode] * fields.min_spacing**2 / scale
    return float(max(dt, DT_MIN))


def _advance(state: GraphState, r_new: np.ndarray, dt: float) -> GraphState:
    try:
        return GraphState(t=state.t + dt, grid=state.grid, r=r_new)
    except DomainError as exc:
        raise NumericalBlowupError(
            f"state left the graph domain at t = {state.t + dt:.6g}: {exc}"
        ) from exc


def step(
    state: GraphState,
    params: FlowParams,
    fields: GeometryFields | None = None,
    dt: float | None = None,
) -> GraphState:
    """Advance one Heun step, recomputing the speed average per stage.

    fields and dt default to the state's geometry and its stable_dt.
    """
    if fields is None:
        fields = geometry_from_graph(state, params)
    if dt is None:
        dt = stable_dt(fields, params)
    k1 = _stage_rate(state.grid, fields)
    trial = _advance(state, state.r + dt * k1, dt)
    k2 = _stage_rate(state.grid, geometry_from_graph(trial, params))
    return _advance(state, state.r + (0.5 * dt) * (k1 + k2), dt)


@functools.lru_cache(maxsize=None)
def rkc_coefficients(stages: int) -> tuple:
    """Damped RKC2 coefficients for s stages: (beta, mu, nu, mu_tilde, gamma_tilde).

    beta = (1 + w0) T_s''(w0) / T_s'(w0) is the length of the real stability
    interval [-beta, 0] of dt * lambda.  The four tuples run over j = 1..s,
    with mu, nu and gamma_tilde 0 at j = 1 (Sommeijer, Shampine & Verwer
    1998, eqs. 2.3-2.6, with b_0 = b_1 = b_2).
    """
    w0 = 1.0 + RKC_DAMPING / stages**2
    # Chebyshev T_j(w0) and its first two derivatives, j = 0..s.
    t0, t1, t2 = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, stages + 1):
        t0.append(2.0 * w0 * t0[j - 1] - t0[j - 2])
        t1.append(2.0 * t0[j - 1] + 2.0 * w0 * t1[j - 1] - t1[j - 2])
        t2.append(4.0 * t1[j - 1] + 2.0 * w0 * t2[j - 1] - t2[j - 2])
    w1 = t1[stages] / t2[stages]
    b = [t2[j] / t1[j] ** 2 if j >= 2 else 0.0 for j in range(stages + 1)]
    b[0] = b[1] = b[2]
    a = [1.0 - b[j] * t0[j] for j in range(stages + 1)]
    mu, nu, mu_tilde, gamma_tilde = [0.0], [0.0], [b[1] * w1], [0.0]
    for j in range(2, stages + 1):
        mu.append(2.0 * b[j] * w0 / b[j - 1])
        nu.append(-b[j] / b[j - 2])
        mu_tilde.append(2.0 * b[j] * w1 / b[j - 1])
        gamma_tilde.append(-a[j - 1] * mu_tilde[-1])
    return (1.0 + w0) / w1, tuple(mu), tuple(nu), tuple(mu_tilde), tuple(gamma_tilde)


def rkc_plan(dt: float, dt_stable: float) -> tuple[int, float]:
    """Stage count and step for an RKC step of at most dt where Heun's step is dt_stable.

    s is the least s >= 2 whose stability interval beta(s) covers
    2 dt / dt_stable, the interval Heun's own step fills (Heun's is 2), so
    both schemes run at the same margin.  Past RKC_MAX_STAGES, dt shrinks to
    beta(RKC_MAX_STAGES) * dt_stable / 2.
    """
    need = 2.0 * dt / dt_stable
    for stages in range(2, RKC_MAX_STAGES + 1):
        if rkc_coefficients(stages)[0] >= need:
            return stages, dt
    return RKC_MAX_STAGES, min(dt, 0.5 * rkc_coefficients(RKC_MAX_STAGES)[0] * dt_stable)


def rkc_step(
    state: GraphState,
    params: FlowParams,
    dt: float,
    stages: int,
    fields: GeometryFields | None = None,
) -> GraphState:
    """Advance one damped RKC2 step of the given stage count.

    The stages are kept as increments D_j = y_j - y_0,
    D_j = mu_j D_(j-1) + nu_j D_(j-2) + mu~_j dt F_(j-1) + gamma~_j dt F_0,
    so a state whose rate vanishes (a sphere) stays bitwise fixed.  Every
    stage is a GraphState (a stage outside the graph domain raises
    NumericalBlowupError) and every rate a _stage_rate.  fields defaults to
    the state's geometry.
    """
    if fields is None:
        fields = geometry_from_graph(state, params)
    _beta, mu, nu, mu_tilde, gamma_tilde = rkc_coefficients(stages)
    grid = state.grid
    f0 = dt * _stage_rate(grid, fields)
    older, old = 0.0, mu_tilde[0] * f0
    stage = _advance(state, state.r + old, dt)
    for j in range(1, stages):
        rate = dt * _stage_rate(grid, geometry_from_graph(stage, params))
        older, old = old, mu[j] * old + nu[j] * older + mu_tilde[j] * rate + gamma_tilde[j] * f0
        stage = _advance(state, state.r + old, dt)
    return stage


def volume_renormalize(state: GraphState, params: FlowParams, v0: float) -> GraphState:
    """Uniform radial shift restoring the enclosed volume to v0 exactly.

    Safeguarded Newton on the strictly increasing volume-of-shift function;
    intended for drift correction, so the current volume must already be
    within 10% of the target.
    """
    weights = state.grid.weights
    r = state.r_flat

    def volume_at(delta: float) -> float:
        return float(np.sum(weights * enclosed_volume_integrand(r + delta, params)))

    v_now = volume_at(0.0)
    if abs(v_now - v0) / v0 >= 0.1:
        raise DomainError(
            f"volume drifted {abs(v_now - v0) / v0:.3g} relative; renormalization "
            "is a drift corrector, not a resizing tool"
        )
    delta = 0.0
    err = v_now - v0
    max_shift = 0.1 * float(np.min(r))
    for _ in range(50):
        if abs(err) <= 1e-12 * v0:
            if delta == 0.0:
                return state
            return GraphState(t=state.t, grid=state.grid, r=state.r + delta)
        deriv = float(np.sum(weights * generalized_sine(r + delta, params.ac) ** params.n))
        newton = err / deriv
        delta -= float(np.clip(newton, -max_shift, max_shift))
        err = volume_at(delta) - v0
    raise RootFindingError("volume renormalization Newton did not converge in 50 iterations")


_CONSTANTS_CACHE: dict[tuple, PinchingConstants] = {}


def pinching_constants_cached(params: FlowParams, n_samples: int, seed: int) -> PinchingConstants:
    """Memoized pinching constants; repeated runs share one construction.

    kappa is not part of the key: the solve reads only n, m and beta.
    """
    key = (params.n, params.m, float(params.beta), int(n_samples), int(seed))
    if key not in _CONSTANTS_CACHE:
        _CONSTANTS_CACHE[key] = solve_pinching_constants(
            params, n_samples=n_samples, seed=seed
        )
    return _CONSTANTS_CACHE[key]


@dataclass
class FlowResult:
    """What a finished run produced: its last state, its diagnostics rows, and its account.

    summary is the run's one account (see run): its status, step count and
    initial volume among the rest.  An aborted run returns no FlowResult:
    its error carries the summary instead.
    """

    final_state: GraphState
    recorder: DiagnosticsRecorder
    summary: dict


def run(config: RunConfig) -> FlowResult:
    """Integrate a configured run to convergence, t_end, or DEFAULT_MAX_STEPS steps.

    Diagnostics rows are appended at the record cadence plus the initial
    and final states; snapshots and the summary JSON are written only when
    output_dir is set.  The initial state is tested against C* here, once
    per run, and the verdict logged.  An abort re-raises its error with the
    aborted summary attached (HoroflowError.summary), after flushing what
    was recorded to output_dir.

    The summary is built once, by the local summary(), from the run's own
    state at the exit taken; README's summary.json entry lists its keys.
    """
    params = config.params
    state = config.initial
    # A full2d state holds only the wavenumbers the polar filter keeps:
    # content above K_j would never decay, since every rate is filtered.
    state = GraphState(t=state.t, grid=state.grid, r=polar_filter(state.grid, state.r))

    constants = pinching_constants_cached(params, config.constants_samples, config.constants_seed)
    weights = state.grid.weights
    v0 = float(np.sum(weights * enclosed_volume_integrand(state.r_flat, params)))
    # The flow's limit is the geodesic sphere of the initial volume; its
    # slowest mode sets rkc's step and the decay rate f_max should show.
    radius = psi_inverse(v0, params)
    zeta = support_offset(radius, params)
    mu_2 = linearized_rate(params, radius, 2)
    dt_accurate = RKC_ACCURACY / mu_2

    recorder = DiagnosticsRecorder(params, zeta_epsilon=zeta)
    h_convexity_warned = False

    def observe(state, fields, dt):
        # Checked per record, not per step: one warning per run, no step cost.
        nonlocal h_convexity_warned
        rec = recorder.observe(state, fields, dt)
        if not rec.h_convex and not h_convexity_warned:
            h_convexity_warned = True
            logger.warning(
                "h-convexity lost at t=%.6g (lambda_tilde_min = %.6g); "
                "the convergence theorem assumes h-convex data, proceeding",
                rec.t,
                rec.lambda_tilde_min,
            )
        return rec

    def summary(status, stop=None, abort=None) -> dict:
        cols = recorder.arrays()
        fit = decay_fit(cols)
        steps = np.frombuffer(dts)
        dt_stats = None
        if steps.size:
            counts = np.array(stage_counts)
            dt_stats = {
                "min": float(steps.min()),
                "median": float(np.median(steps)),
                "max": float(steps.max()),
                "safety": SAFETY[state.grid.mode],
                "scheme": config.scheme,
                "stages": {
                    "min": int(counts.min()),
                    "median": float(np.median(counts)),
                    "max": int(counts.max()),
                },
            }
        return {
            "converged": status == "converged",
            "status": status,
            "stop": stop,
            "abort": abort,
            "t_final": float(state.t),
            "n_steps": n_steps,
            "rhs_evaluations": sum(stage_counts),
            "dt": dt_stats,
            "dt_limit": limit,
            "volume_initial": v0,
            "volume_drift": volume_drift(cols["V"]),
            "decay_fit": None
            if fit is None
            else {"rate": fit.rate, "r_squared": fit.r_squared, "n_used": fit.n_used},
            "predicted_rate": 2.0 * mu_2,
            "zeta_epsilon": zeta,
            "initial_pinched": initial_pinched,
            "params": {
                "n": params.n, "m": params.m, "beta": float(params.beta), "kappa": float(params.ac.kappa)
            },
            "constants": constants.account(),
        }

    out_dir = config.output_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    record_interval = config.record_interval
    snapshot_interval = config.snapshot_interval
    next_record = record_interval
    next_snapshot = snapshot_interval if snapshot_interval else math.inf
    snapshot_index = 0
    initial_pinched = None
    limit = None
    n_steps = 0
    stiff_streak = 0
    last_dt = 0.0
    dts = array("d")
    stage_counts = array("i")
    status = "max_steps"
    stop = None
    try:
        fields = geometry_from_graph(state, params)
        limit = dt_limit(state, fields)
        observe(state, fields, 0.0)
        initial_pinched = shifted_minima(fields.lam, params, constants.c_star)[3]
        if initial_pinched:
            logger.info("initial state is pinched against C* = %.8g", constants.c_star)
        else:
            logger.warning(
                "initial state violates the pinching hypothesis (C* = %.8g); "
                "the convergence theorem gives sufficiency only, proceeding",
                constants.c_star,
            )
        if out_dir and snapshot_interval:
            save_snapshot(state, os.path.join(out_dir, f"snapshot_{snapshot_index:06d}.csv"))
            snapshot_index += 1

        while True:
            # The oscillation test is cheap and fails on every step but the
            # last few, so it goes first and the roundness deficit
            # 1/n^n - Qtilde_min (NaN when Htilde dips <= 0) is rarely formed.
            # r.sum() / r.size rounds as r.mean() does.
            r = state.r
            oscillation = float((r.max() - r.min()) / (r.sum() / r.size))
            if oscillation < R_OSCILLATION_RTOL:
                deficit = float(1.0 / params.n**params.n - shifted_minima(fields.lam, params)[2])
                if math.isfinite(deficit) and deficit < config.f_tol:
                    status = "converged"
                    stop = {"r_oscillation": oscillation, "roundness_deficit": deficit}
                    break
            if state.t >= config.t_end - 1e-15:
                status = "t_end"
                break
            if n_steps >= DEFAULT_MAX_STEPS:
                status = "max_steps"
                break

            dt_stable = stable_dt(fields, params)
            if dt_stable <= DT_MIN * (1.0 + 1e-12):
                stiff_streak += 1
                if stiff_streak >= STIFFNESS_PATIENCE:
                    raise StiffnessError(
                        f"dt pinned at dt_min = {DT_MIN:g} for "
                        f"{stiff_streak} consecutive steps at t = {state.t:.6g}"
                    )
            else:
                stiff_streak = 0
            if config.scheme == "heun":
                dt = min(dt_stable, config.t_end - state.t)
                state = step(state, params, fields=fields, dt=dt)
                stages = 2
            else:
                dt = min(dt_accurate, config.t_end - state.t)
                stages, dt = rkc_plan(dt, dt_stable)
                state = rkc_step(state, params, dt, stages, fields=fields)
                state = volume_renormalize(state, params, v0)
            last_dt = dt
            dts.append(dt)
            stage_counts.append(stages)
            n_steps += 1
            fields = geometry_from_graph(state, params)

            # A step that lands within 1e-12 below a cadence point counts as
            # reaching it, so the next point is the one after it; a sum of
            # equal rkc steps can land a rounding error short of one.
            reached = state.t + 1e-12
            if reached >= next_record:
                observe(state, fields, last_dt)
                next_record = record_interval * (math.floor(reached / record_interval) + 1)
            if out_dir and reached >= next_snapshot:
                save_snapshot(
                    state, os.path.join(out_dir, f"snapshot_{snapshot_index:06d}.csv")
                )
                snapshot_index += 1
                next_snapshot = snapshot_interval * (math.floor(reached / snapshot_interval) + 1)
    except HoroflowError as exc:
        if out_dir:
            recorder.write_csv(os.path.join(out_dir, "diagnostics.csv"))
            save_snapshot(state, os.path.join(out_dir, "abort_state.csv"))
        # state is the last accepted one: n_steps steps were taken to reach it.
        abort = {
            "error": type(exc).__name__,
            "message": str(exc),
            "t": float(state.t),
            "step": n_steps,
            "node_index": getattr(exc, "node_index", None),
        }
        exc.summary = summary("aborted", abort=abort)
        if out_dir:
            _write_summary(out_dir, exc.summary)
        raise

    if recorder.records[-1].t != state.t:
        observe(state, fields, last_dt)

    result = FlowResult(final_state=state, recorder=recorder, summary=summary(status, stop=stop))
    if out_dir:
        recorder.write_csv(os.path.join(out_dir, "diagnostics.csv"))
        save_snapshot(state, os.path.join(out_dir, "final_state.csv"))
        _write_summary(out_dir, result.summary)
    return result


def _write_summary(out_dir: str, summary: dict) -> None:
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

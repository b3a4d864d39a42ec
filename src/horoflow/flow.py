"""Time integration of the volume-preserving scalar flow of a radial graph.

The normal speed is the deviation of the curvature speed from its area
average, so the enclosed volume is conserved by construction; the radial
function then satisfies dr/dt = (Fbar - F) |xi| / s at every node.  The
integrator is Heun's explicit second-order method, with the nonlocal average
recomputed at both stages and a per-step time step from the parabolic
stability scale of the linearized operator.

Geodesic spheres make the right-hand side vanish identically, so they are
exact discrete equilibria; the run loop therefore declares convergence from
the state itself (roundness deficit below tolerance and relative radial
oscillation below a fixed threshold) rather than from step counts.

Each run gives one account of itself, the summary dict of run's exit, written
to summary.json; its drift and decay fit come from monitors, as analyze's do.
"""

from __future__ import annotations

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
from .oracle import support_offset

logger = logging.getLogger(__name__)

# Right-hand-side evaluations per Heun step.
STAGES = 2

# Consecutive steps pinned at the dt floor before the run aborts as stiff.
STIFFNESS_PATIENCE = 10

# Relative radial oscillation (max r - min r) / mean r below which the state
# counts as a geodesic sphere for the convergence test.
R_OSCILLATION_RTOL = 1.0e-8

DEFAULT_MAX_STEPS = 2_000_000

# Default step fraction (the safety in stable_dt) per grid mode.  On the
# finite-difference Jacobians of flow_rhs measured (see the README) the
# spectrum is real, or nearly so, and rho * dt_1, rho times stable_dt at
# safety 1, peaks at 3.49 axisymmetric and 5.57 on full2d, so these run
# Heun at rho * dt <= 1.40 and 1.11, where 2 is stable.
DEFAULT_SAFETY = {"axisymmetric": 0.4, "full2d": 0.2}


@dataclass(frozen=True)
class StepControl:
    """Explicit time-stepper knobs: the step fraction and the dt clamps.

    safety multiplies the trace bound min_spacing^2 / max trace(dF) of
    stable_dt; None takes the grid mode's DEFAULT_SAFETY.
    """

    safety: float | None = None
    dt_min: float = 1.0e-10
    dt_max: float = 1.0e-2

    def __post_init__(self):
        ConfigurationError.raise_if(self.problems(self.safety, self.dt_min, self.dt_max))

    @staticmethod
    def problems(safety, dt_min, dt_max) -> list[str]:
        """The rules on the control.* keys."""
        problems = []
        if safety is not None and not 0.0 < safety <= 1.0:
            problems.append(f"control.safety must be in (0, 1], got {safety}")
        if dt_min is not None and dt_max is not None and not 0.0 < dt_min <= dt_max:
            problems.append(f"control.dt_min must be in (0, control.dt_max], got {dt_min}, {dt_max}")
        return problems

    def safety_for(self, mode: str) -> float:
        """The step fraction a run on a grid of this mode uses."""
        return DEFAULT_SAFETY[mode] if self.safety is None else self.safety


@dataclass(frozen=True)
class RunConfig:
    """One run: the speed, the initial hypersurface, the horizon, and the knobs.

    The defaults are the config file's defaults.  Diagnostics rows are taken
    every record_interval of flow time; snapshots (every snapshot_interval)
    and the output files are written only when output_dir is set.  The
    pinching constants are solved at constants_samples cone samples.
    """

    params: FlowParams
    initial: GraphState
    t_end: float
    control: StepControl = StepControl()
    record_interval: float = 0.002
    snapshot_interval: float | None = None
    f_tol: float = 1e-8
    output_dir: str | None = None
    renormalize_volume: bool = False
    constants_samples: int = DEFAULT_SAMPLES
    constants_seed: int = 0

    def __post_init__(self):
        ConfigurationError.raise_if(
            self.problems(
                self.params.n, self.initial.grid.n, self.t_end, self.record_interval,
                self.snapshot_interval, self.f_tol, self.constants_samples, self.constants_seed,
                self.params.ac.kappa, float(self.initial.r.max()),
            )
        )

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


def stable_dt(fields: GeometryFields, params: FlowParams, control: StepControl) -> float:
    """Parabolic stability step from the linearized diffusion scale.

    The linearization of the speed in the radial Hessian has directional
    diffusion coefficients bounded by the components of the speed gradient
    over the induced metric factors; their sum (the gradient trace) bounds
    the largest eigenvalue including the pole-regularized azimuthal cells,
    so dt = safety * (min induced spacing)^2 / max_nodes trace(dF), with the
    trace in closed form on the fields' pair spectrum and safety resolved for
    the fields' grid mode.
    """
    scale = float(speed_gradient(fields.spectrum, params, trace=True).max())
    if not math.isfinite(scale) or scale <= 0.0:
        raise DomainError("diffusion scale must be positive and finite")
    dt = control.safety_for(fields.mode) * fields.min_spacing**2 / scale
    return float(min(max(dt, control.dt_min), control.dt_max))


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
    control: StepControl,
    fields: GeometryFields | None = None,
    dt: float | None = None,
) -> GraphState:
    """Advance one Heun step, recomputing the speed average per stage.

    fields and dt default to the state's geometry and its stable_dt.
    """
    if fields is None:
        fields = geometry_from_graph(state, params)
    if dt is None:
        dt = stable_dt(fields, params, control)
    k1 = _stage_rate(state.grid, fields)
    trial = _advance(state, state.r + dt * k1, dt)
    k2 = _stage_rate(state.grid, geometry_from_graph(trial, params))
    return _advance(state, state.r + (0.5 * dt) * (k1 + k2), dt)


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
    max_shift = 0.1 * float(np.min(r))
    for _ in range(50):
        err = volume_at(delta) - v0
        if abs(err) <= 1e-12 * v0:
            if delta == 0.0:
                return state
            return GraphState(t=state.t, grid=state.grid, r=state.r + delta)
        deriv = float(np.sum(weights * generalized_sine(r + delta, params.ac) ** params.n))
        newton = err / deriv
        delta -= float(np.clip(newton, -max_shift, max_shift))
    raise RootFindingError("volume renormalization Newton did not converge in 50 iterations")


_CONSTANTS_CACHE: dict[tuple, PinchingConstants] = {}


def pinching_constants_cached(params: FlowParams, n_samples: int, seed: int) -> PinchingConstants:
    """Memoized pinching constants; repeated runs share one construction."""
    key = (params.n, params.m, float(params.beta), float(params.ac.kappa), int(n_samples), int(seed))
    if key not in _CONSTANTS_CACHE:
        _CONSTANTS_CACHE[key] = solve_pinching_constants(
            params, n_samples=n_samples, seed=seed
        )
    return _CONSTANTS_CACHE[key]


@dataclass
class FlowResult:
    """What a finished run produced.

    status is "converged", "t_end" or "max_steps"; v0 is the initial enclosed
    volume; dts holds the dt of every accepted step, in order; summary is the
    run's account (see run), and diagnostics_path the CSV written to
    output_dir (None without one).  An aborted run returns no FlowResult: its
    error carries the summary instead.
    """

    params: FlowParams
    final_state: GraphState
    recorder: DiagnosticsRecorder
    status: str
    n_steps: int
    v0: float
    dts: np.ndarray
    summary: dict
    diagnostics_path: str | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def arrays(self):
        return self.recorder.arrays()


def run(config: RunConfig, max_steps: int = DEFAULT_MAX_STEPS) -> FlowResult:
    """Integrate a configured run to convergence, t_end, or the step cap.

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
    control = config.control
    state = config.initial
    # A full2d state holds only the wavenumbers the polar filter keeps:
    # content above K_j would never decay, since every rate is filtered.
    state = GraphState(t=state.t, grid=state.grid, r=polar_filter(state.grid, state.r))

    constants = pinching_constants_cached(params, config.constants_samples, config.constants_seed)
    weights = state.grid.weights
    v0 = float(np.sum(weights * enclosed_volume_integrand(state.r_flat, params)))
    zeta = support_offset(v0, params)

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
            dt_stats = {
                "min": float(steps.min()),
                "median": float(np.median(steps)),
                "max": float(steps.max()),
                "safety": control.safety_for(state.grid.mode),
            }
        return {
            "converged": status == "converged",
            "status": status,
            "stop": stop,
            "abort": abort,
            "t_final": float(state.t),
            "n_steps": n_steps,
            "rhs_evaluations": n_steps * STAGES,
            "dt": dt_stats,
            "dt_limit": limit,
            "volume_initial": v0,
            "volume_drift": volume_drift(cols["V"]),
            "decay_fit": None
            if fit is None
            else {"rate": fit.rate, "r_squared": fit.r_squared, "n_used": fit.n_used},
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
            if n_steps >= max_steps:
                status = "max_steps"
                break

            dt_stable = stable_dt(fields, params, control)
            if dt_stable <= control.dt_min * (1.0 + 1e-12):
                stiff_streak += 1
                if stiff_streak >= STIFFNESS_PATIENCE:
                    raise StiffnessError(
                        f"dt pinned at dt_min = {control.dt_min:g} for "
                        f"{stiff_streak} consecutive steps at t = {state.t:.6g}"
                    )
            else:
                stiff_streak = 0
            dt = min(dt_stable, config.t_end - state.t)

            state = step(state, params, control, fields=fields, dt=dt)
            last_dt = dt
            dts.append(dt)
            n_steps += 1
            if config.renormalize_volume:
                state = volume_renormalize(state, params, v0)
            fields = geometry_from_graph(state, params)

            if state.t + 1e-12 >= next_record:
                observe(state, fields, last_dt)
                next_record = record_interval * (math.floor(state.t / record_interval) + 1)
            if out_dir and state.t + 1e-12 >= next_snapshot:
                save_snapshot(
                    state, os.path.join(out_dir, f"snapshot_{snapshot_index:06d}.csv")
                )
                snapshot_index += 1
                next_snapshot = snapshot_interval * (
                    math.floor(state.t / snapshot_interval) + 1
                )
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

    result = FlowResult(
        params=params,
        final_state=state,
        recorder=recorder,
        status=status,
        n_steps=n_steps,
        v0=v0,
        dts=np.frombuffer(dts),
        summary=summary(status, stop=stop),
    )
    if out_dir:
        csv_path = os.path.join(out_dir, "diagnostics.csv")
        recorder.write_csv(csv_path)
        result.diagnostics_path = csv_path
        save_snapshot(state, os.path.join(out_dir, "final_state.csv"))
        _write_summary(out_dir, result.summary)
    return result


def _write_summary(out_dir: str, summary: dict) -> None:
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

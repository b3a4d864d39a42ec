"""Theorem-level diagnostics on recorded states and their time series.

Each recorded step condenses a full geometry evaluation into one row of
extrema: volume, speed statistics, the shifted-spectrum invariants, the
roundness deficit f_max = 1/n^n - Qtilde_min, the support-function minimum,
and the speed-bound test ratio.  The shifted invariants of lam - a (the
h-convexity margin, the trace Htilde, the pinching ratio Qtilde and the
pinching test against C*) have their one home in shifted_minima, which the
run loop's initial pinching test and convergence test also read.
Post-processing covers the monotonicity check and the verdict of the
analyze subcommand; volume_drift and decay_fit (log-linear, above a noise
floor) are the one home of the drift and the decay fit that both that
verdict and a run's summary.json report.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .curvalg import FlowParams
from .errors import ConfigurationError, DomainError, HoroflowError
from .graphgeom import GeometryFields, GraphState, enclosed_volume_integrand
from .hypergeom import AmbientCurvature

DIAGNOSTICS_MAGIC = "# horoflow-diagnostics v1"
CSV_COLUMNS = (
    "t",
    "V",
    "Fbar",
    "Fmin",
    "Fmax",
    "Qtilde_min",
    "f_max",
    "Htilde_min",
    "lambda_tilde_min",
    "Phi_min",
    "Z_max",
    "dt",
)

# Per-recorded-step slack for monotonicity of the pinching ratio; discrete
# curvature noise makes exact monotonicity unattainable.
MONOTONE_TOL_PER_STEP = 1.0e-6

# Roundness-deficit samples below this are floating-point residue of a
# converged state and are excluded from decay-rate fits.
FIT_NOISE_FLOOR = 1.0e-13

# Leading share of the fitted samples skipped as the initial transient.
FIT_SKIP_FRACTION = 0.1

# Tolerance on the speed lower bound F >= a^{m beta}.
SPEED_FLOOR_SLACK = 1.0e-8


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One monitored step: extrema of every theorem-level quantity.

    Qtilde_min, f_max are NaN when the shifted trace is nonpositive
    somewhere (the ratio is undefined there); Z_max is NaN when the support
    function does not clear the offset.  The CSV row carries the twelve
    float columns; h_convex is a derived view.
    """

    t: float
    V: float
    Fbar: float
    Fmin: float
    Fmax: float
    Qtilde_min: float
    f_max: float
    Htilde_min: float
    lambda_tilde_min: float
    Phi_min: float
    Z_max: float
    dt: float
    h_convex: bool

    def as_row(self) -> tuple[float, ...]:
        return tuple(float(getattr(self, name)) for name in CSV_COLUMNS)


def average_speed(fields: GeometryFields) -> float:
    """Area-weighted average of the speed over the hypersurface."""
    total_area = float(fields.area_weight.sum())
    if total_area <= 0.0:
        raise DomainError("total area weight must be positive")
    return float((fields.F * fields.area_weight).sum()) / total_area


def shifted_minima(
    lam: np.ndarray, params: FlowParams, c_star: float | None = None
) -> tuple[float, float, float, bool | None]:
    """Return (lambda_tilde_min, Htilde_min, Qtilde_min, pinched) of lam - a in one pass.

    Htilde = sum and Ktilde = product of the shifted spectrum per node, and
    Qtilde = Ktilde / Htilde^n.  Qtilde_min is NaN when Htilde_min <= 0.
    pinched, the test Ktilde > c_star Htilde^n > 0 at every node, is None
    without a c_star and False when Htilde_min <= 0.
    """
    shifted = lam - params.a
    htilde = shifted.sum(axis=-1)
    htilde_min = float(htilde.min())
    lam_tilde_min = float(shifted.min())
    if htilde_min <= 0.0:
        return lam_tilde_min, htilde_min, math.nan, None if c_star is None else False
    ktilde = shifted.prod(axis=-1)
    htilde_n = htilde**params.n
    qtilde_min = float((ktilde / htilde_n).min())
    pinched = None if c_star is None else bool(np.all(ktilde > c_star * htilde_n))
    return lam_tilde_min, htilde_min, qtilde_min, pinched


def record(
    state: GraphState,
    fields: GeometryFields,
    params: FlowParams,
    zeta_epsilon: float,
    dt: float,
) -> DiagnosticsRecord:
    """Condense one state into a DiagnosticsRecord.

    All reductions are single ordered numpy folds over the node axis, so
    identical inputs give bitwise identical rows.
    """
    weights = state.grid.weights
    V = float((weights * enclosed_volume_integrand(state.r_flat, params)).sum())

    fbar = average_speed(fields)
    lam_tilde_min, htilde_min, qtilde_min, _ = shifted_minima(fields.lam, params)
    f_max = 1.0 / params.n**params.n - qtilde_min

    phi_min = float(fields.Phi.min())
    if phi_min > zeta_epsilon:
        z_max = float((fields.F / (fields.Phi - zeta_epsilon)).max())
    else:
        z_max = math.nan

    return DiagnosticsRecord(
        t=float(state.t),
        V=V,
        Fbar=fbar,
        Fmin=float(fields.F.min()),
        Fmax=float(fields.F.max()),
        Qtilde_min=qtilde_min,
        f_max=f_max,
        Htilde_min=htilde_min,
        lambda_tilde_min=lam_tilde_min,
        Phi_min=phi_min,
        Z_max=z_max,
        dt=float(dt),
        h_convex=lam_tilde_min > 0.0,
    )


class DiagnosticsRecorder:
    """Accumulates records for one run and serializes them deterministically."""

    def __init__(self, params: FlowParams, zeta_epsilon: float):
        self.params = params
        self.zeta_epsilon = float(zeta_epsilon)
        self.records: list[DiagnosticsRecord] = []

    def observe(self, state: GraphState, fields: GeometryFields, dt: float) -> DiagnosticsRecord:
        rec = record(state, fields, self.params, self.zeta_epsilon, dt)
        self.records.append(rec)
        return rec

    def meta_line(self) -> str:
        p = self.params
        return (
            f"{DIAGNOSTICS_MAGIC}, n={p.n}, m={p.m}, "
            f"beta={float(p.beta)!r}, kappa={float(p.ac.kappa)!r}"
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """Column arrays of the recorded series, in CSV column order."""
        if not self.records:
            return {name: np.empty(0) for name in CSV_COLUMNS}
        table = np.array([rec.as_row() for rec in self.records])
        return {name: table[:, k] for k, name in enumerate(CSV_COLUMNS)}

    def write_csv(self, path: str) -> None:
        lines = [self.meta_line(), ",".join(CSV_COLUMNS)]
        for rec in self.records:
            lines.append(",".join(repr(v) for v in rec.as_row()))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def load_diagnostics(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a diagnostics CSV written by DiagnosticsRecorder.write_csv into (metadata, columns).

    The metadata line carries n, m, beta and kappa; out-of-domain values fail
    as a ConfigurationError under the params.* rules of a config file.
    """
    with open(path) as fh:
        match = re.match(
            r"# horoflow-diagnostics v1, n=(\d+), m=(\d+), beta=([^,]+), kappa=(.+)$",
            fh.readline().strip(),
        )
        if not match:
            raise HoroflowError(
                f"{path} is not a horoflow diagnostics CSV: its first line must be "
                f"'{DIAGNOSTICS_MAGIC}, n=..., m=..., beta=..., kappa=...'"
            )
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise HoroflowError(f"{path} has an unexpected column header: {header!r}")
        body = fh.read()
    try:
        meta = {
            "n": int(match.group(1)),
            "m": int(match.group(2)),
            "beta": float(match.group(3)),
            "kappa": float(match.group(4)),
        }
        data = np.loadtxt(StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:  # a non-numeric value or a ragged row
        raise HoroflowError(f"{path} is not a readable diagnostics CSV: {exc}") from exc
    ConfigurationError.raise_if(
        FlowParams.problems(meta["n"], meta["m"], meta["beta"])
        + AmbientCurvature.problems(meta["kappa"])
    )
    if data.size == 0:
        return meta, {name: np.empty(0) for name in CSV_COLUMNS}
    if data.shape[1] != len(CSV_COLUMNS):
        raise HoroflowError(f"{path} has {data.shape[1]} columns, expected {len(CSV_COLUMNS)}")
    return meta, {name: data[:, k] for k, name in enumerate(CSV_COLUMNS)}


def check_monotone(series, tol: float = 0.0) -> bool:
    """Whether no sample of the series falls below its predecessor by more than tol."""
    y = np.asarray(series, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise DomainError("monotonicity check needs a 1-d series with >= 2 samples")
    return float(np.max(-np.diff(y))) <= tol


@dataclass(frozen=True)
class ExponentialFit:
    """A least-squares line through (t, log y) of slope -rate, its r^2 and its sample count."""

    rate: float
    r_squared: float
    n_used: int


def volume_drift(v: np.ndarray) -> float:
    """Largest relative deviation of a volume series from its first value (0 if empty)."""
    return float(np.max(np.abs(v - v[0])) / abs(v[0])) if v.size else 0.0


def decay_fit(cols: dict[str, np.ndarray]) -> ExponentialFit | None:
    """Exponential fit of the recorded roundness deficit f_max, by least squares on (t, log f_max).

    Samples at or below FIT_NOISE_FLOOR (the floating-point residue of a
    converged run) or non-finite are dropped, then the first
    FIT_SKIP_FRACTION of the rest as transient.  None when fewer than 10
    samples are left.
    """
    t, y = cols["t"], cols["f_max"]
    keep = np.isfinite(t) & np.isfinite(y) & (y > FIT_NOISE_FLOOR)
    t, y = t[keep], y[keep]
    start = int(FIT_SKIP_FRACTION * t.size)
    t, y = t[start:], y[start:]
    if t.size < 10:
        return None
    log_y = np.log(y)
    slope, intercept = np.polyfit(t, log_y, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((log_y - pred) ** 2))
    ss_tot = float(np.sum((log_y - np.mean(log_y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return ExponentialFit(rate=float(-slope), r_squared=r_squared, n_used=int(t.size))


def analyze_diagnostics(meta: dict, cols: dict[str, np.ndarray]) -> dict:
    """Produce the verdict dictionary for a recorded diagnostics series.

    Keys: monotone_Qtilde (pinching ratio minimum nondecreasing within the
    per-step tolerance), volume_drift (max relative deviation from the first
    record), decay_rate and r_squared (exponential fit of the roundness
    deficit above the noise floor), bounds_respected (speed floor, shifted
    positivity, finite speed-bound ratio on every record).
    """
    t = cols["t"]
    if t.size < 2:
        raise DomainError("analysis needs at least two recorded steps")

    qtilde = cols["Qtilde_min"]
    finite_q = np.isfinite(qtilde)
    if np.sum(finite_q) >= 2:
        monotone_ok = check_monotone(qtilde[finite_q], MONOTONE_TOL_PER_STEP)
    else:
        monotone_ok = False

    fit = decay_fit(cols)

    a = AmbientCurvature(kappa=meta["kappa"]).a
    speed_floor = a ** (meta["m"] * meta["beta"]) - SPEED_FLOOR_SLACK
    bounds_respected = bool(
        np.all(cols["Fmin"] >= speed_floor)
        and np.all(cols["Htilde_min"] > 0.0)
        and np.all(cols["lambda_tilde_min"] > 0.0)
        and np.all(np.isfinite(cols["Z_max"]))
    )
    return {
        "monotone_Qtilde": bool(monotone_ok),
        "volume_drift": volume_drift(cols["V"]),
        "decay_rate": math.nan if fit is None else fit.rate,
        "r_squared": math.nan if fit is None else fit.r_squared,
        "bounds_respected": bounds_respected,
    }

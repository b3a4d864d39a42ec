"""Command-line orchestration: config parsing, runs, oracles, and analysis.

Config files are flat structured text, one `section.key = value` pair per
line with `#` comments, chosen for diffability in experiment folders:

    params.n = 2
    params.m = 1
    params.beta = 1.0
    params.kappa = -1.0
    grid.mode = axisymmetric
    grid.n_theta = 256
    initial.shape = perturbed_sphere
    initial.r0 = 1.0
    initial.mode_l = 2
    initial.amplitude = 0.05
    flow.t_end = 10.0
    output.dir = runs/standard

Subcommands: run, oracle sphere, constants, analyze.  Exit codes:
0 success, 1 invariant or configuration failure, 2 numerical abort,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import curvalg, flow, graphgeom, monitors, oracle
from .curvalg import FlowParams
from .errors import (
    ConfigurationError,
    DomainError,
    HoroflowError,
    NumericalBlowupError,
    ParabolicityLostError,
    RootFindingError,
    StiffnessError,
)
from .flow import RunConfig
from .graphgeom import make_grid
from .hypergeom import AmbientCurvature

USAGE = """\
usage: horoflow <subcommand> [options]

subcommands:
  horoflow run <config>
      integrate a configured flow, print summary JSON
  horoflow oracle sphere <r0> <t_end> [--samples --n --m --beta --kappa]
      print the contracting-sphere trajectory CSV
  horoflow constants [--n --m --beta --samples --seed --csv]
      solve pinching constants, print them as JSON (--csv also writes the tables)
  horoflow analyze <diagnostics.csv>
      verdict JSON for a diagnostics CSV written by a run

exit codes: 0 success, 1 invariant/config failure, 2 numerical abort, 64 usage
"""

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

_NUMERICAL_ABORTS = (
    StiffnessError,
    NumericalBlowupError,
    ParabolicityLostError,
    RootFindingError,
)

INITIAL_SHAPES = ("sphere", "perturbed_sphere", "custom")


def _parse_scalar(raw: str):
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def read_config_text(text: str) -> dict:
    """Parse `section.key = value` lines into a flat dict of typed values."""
    values: dict[str, object] = {}
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'section.key = value', got {line.strip()!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key or "." not in key:
            problems.append(f"line {lineno}: keys are dotted section.name pairs, got {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        values[key] = _parse_scalar(raw)
    ConfigurationError.raise_if(problems)
    return values


def _finite(value) -> bool:
    """Return whether a number converts to a finite float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_KNOWN_KEYS = {
    "params.n",
    "params.m",
    "params.beta",
    "params.kappa",
    "grid.mode",
    "grid.n_theta",
    "grid.n_phi",
    "initial.shape",
    "initial.r0",
    "initial.mode_l",
    "initial.amplitude",
    "initial.mode_phi",
    "initial.snapshot",
    "flow.t_end",
    "flow.f_tol",
    "flow.record_interval",
    "flow.snapshot_interval",
    "flow.seed",
    "constants.n_samples",
    "constants.seed",
    "output.dir",
}


def config_from_values(values: dict) -> RunConfig:
    """Parse a key/value mapping and construct the run objects.

    Only keys and types are checked here; the owning types' `problems`
    rules run on the parsed values, so every offending field is collected
    before raising and one pass over the error message fixes the file.
    """
    problems = [f"unknown key {key!r}" for key in sorted(set(values) - _KNOWN_KEYS)]

    def take(key, default=None):
        return values.get(key, default)

    def number(key, default=None, *, integer=False):
        raw = values.get(key, default)
        if raw is None:
            problems.append(f"{key} is required")
            return None
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            problems.append(f"{key} must be a number, got {raw!r}")
            return None
        if integer and not isinstance(raw, int):
            problems.append(f"{key} must be an integer, got {raw!r}")
            return None
        if not _finite(raw):
            problems.append(f"{key} must be finite, got {raw!r}")
            return None
        return raw

    n = number("params.n", integer=True)
    m = number("params.m", integer=True)
    beta = number("params.beta")
    kappa = number("params.kappa")

    mode = take("grid.mode", "axisymmetric")
    n_theta = number("grid.n_theta", 256, integer=True)
    n_phi = take("grid.n_phi")

    shape = take("initial.shape")
    if shape not in INITIAL_SHAPES:
        problems.append(f"initial.shape must be one of {INITIAL_SHAPES}, got {shape!r}")
    r0 = mode_l = amplitude = snapshot = None
    mode_phi = 0
    if shape in ("sphere", "perturbed_sphere"):
        r0 = number("initial.r0")
    if shape == "perturbed_sphere":
        mode_l = number("initial.mode_l", integer=True)
        amplitude = number("initial.amplitude")
        mode_phi = number("initial.mode_phi", 0, integer=True) or 0
    if shape == "custom":
        snapshot = _read_snapshot(take("initial.snapshot"), problems)
    if shape in INITIAL_SHAPES:
        problems += _unread_keys(values, shape, mode)

    t_end = number("flow.t_end", 10.0)
    f_tol = number("flow.f_tol", RunConfig.f_tol)
    record_interval = number("flow.record_interval", RunConfig.record_interval)
    snapshot_interval = number("flow.snapshot_interval", 0) or None  # 0 disables snapshots
    # flow.seed is read only as the default of constants.seed.
    seed = number("flow.seed", RunConfig.constants_seed, integer=True)
    constants_samples = number("constants.n_samples", RunConfig.constants_samples, integer=True)
    constants_seed = number(
        "constants.seed", seed if seed is not None else RunConfig.constants_seed, integer=True
    )

    output_dir = take("output.dir")
    if output_dir is not None and not isinstance(output_dir, str):
        problems.append(f"output.dir must be a path, got {output_dir!r}")

    problems += FlowParams.problems(n, m, beta)
    problems += AmbientCurvature.problems(kappa)
    problems += graphgeom.grid_problems(mode, n, n_theta, n_phi)
    if shape in ("sphere", "perturbed_sphere"):
        problems += graphgeom.initial_problems(mode, n_theta, r0, mode_l, amplitude, mode_phi)
    if snapshot is not None:
        r_max = float(snapshot.r.max())
    elif r0 is not None:  # r0 + |amplitude| bounds the perturbed profile
        r_max = r0 + abs(amplitude or 0.0)
    else:
        r_max = None
    problems += RunConfig.problems(
        n, snapshot.grid.n if snapshot else n, t_end, record_interval, snapshot_interval,
        f_tol, constants_samples, constants_seed, kappa, r_max,
    )
    ConfigurationError.raise_if(problems)

    params = FlowParams(n=n, m=m, beta=float(beta), ac=AmbientCurvature(kappa=float(kappa)))
    if snapshot is not None:
        initial = snapshot
    else:
        grid = make_grid(mode, n, n_theta, n_phi if mode == "full2d" else None)
        try:
            if shape == "sphere":
                initial = graphgeom.sphere_state(grid, float(r0))
            else:
                initial = graphgeom.perturbed_sphere_state(
                    grid, float(r0), mode_l, float(amplitude), mode_phi=mode_phi
                )
        except DomainError as exc:  # the profile overflows a float
            raise ConfigurationError([f"initial.shape = {shape} is not representable: {exc}"])
    return RunConfig(
        params=params,
        initial=initial,
        t_end=float(t_end),
        record_interval=float(record_interval),
        snapshot_interval=float(snapshot_interval) if snapshot_interval else None,
        f_tol=float(f_tol),
        output_dir=output_dir,
        constants_samples=constants_samples,
        constants_seed=constants_seed,
    )


def _unread_keys(values: dict, shape: str, mode) -> list[str]:
    """A problem for each key set that a run of this shape and grid mode never reads."""
    why = {}
    if shape != "perturbed_sphere":
        why.update(dict.fromkeys(
            ("initial.mode_l", "initial.amplitude", "initial.mode_phi"),
            f"only initial.shape = perturbed_sphere reads it, not {shape}",
        ))
    if shape == "custom":
        why["initial.r0"] = "initial.shape = custom takes its radii from the snapshot"
        why.update(dict.fromkeys(
            (key for key in _KNOWN_KEYS if key.startswith("grid.")),
            "initial.shape = custom takes its grid from the snapshot",
        ))
    else:
        why["initial.snapshot"] = f"only initial.shape = custom reads it, not {shape}"
        if mode != "full2d":
            why["grid.n_phi"] = f"only grid.mode = full2d reads it, not {mode}"
    return [f"{key} is never read: {why[key]}" for key in sorted(values.keys() & why.keys())]


def _read_snapshot(path, problems: list[str]):
    """Load the custom initial state, or append why it cannot be loaded."""
    if not isinstance(path, str):
        problems.append("initial.snapshot must be a path for custom initial data")
        return None
    try:
        return graphgeom.load_snapshot(path)
    except FileNotFoundError:
        problems.append(f"initial.snapshot file not found: {path}")
    except (OSError, ValueError, HoroflowError) as exc:
        problems.append(f"initial.snapshot {path} is not a readable grid snapshot: {exc}")
    return None


def parse_config(path: str) -> RunConfig:
    """Read and validate a config file; flow.run logs the initial pinching."""
    if not os.path.exists(path):
        raise ConfigurationError([f"config file not found: {path}"])
    with open(path) as fh:
        return config_from_values(read_config_text(fh.read()))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="horoflow run", add_help=True)
    parser.add_argument("config")
    ns = parser.parse_args(args)
    config = parse_config(ns.config)
    try:
        summary = flow.run(config).summary
    except HoroflowError as exc:
        # An aborted run still prints its account; main() maps the exit code.
        if exc.summary is not None:
            print(json.dumps(exc.summary, indent=2, sort_keys=True))
        raise
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_oracle(args: list[str]) -> int:
    if not args or args[0] != "sphere":
        sys.stderr.write("usage: horoflow oracle sphere <r0> <t_end> [options]\n")
        return EXIT_USAGE
    parser = argparse.ArgumentParser(prog="horoflow oracle sphere")
    parser.add_argument("r0", type=float)
    parser.add_argument("t_end", type=float)
    parser.add_argument("--samples", type=int, default=101)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--kappa", type=float, default=-1.0)
    ns = parser.parse_args(args[1:])
    params = FlowParams(n=ns.n, m=ns.m, beta=ns.beta, ac=AmbientCurvature(kappa=ns.kappa))
    if ns.samples < 2:
        raise DomainError(f"--samples must be >= 2, got {ns.samples}")
    # A non-finite t_end gives a NaN grid, which sphere_contraction rejects.
    with np.errstate(invalid="ignore"):
        t_grid = np.linspace(0.0, ns.t_end, ns.samples)
    traj = oracle.sphere_contraction(ns.r0, params, t_grid)
    residual = oracle.contraction_residual(traj)
    lines = ["t,r,residual"]
    for t, r, res in zip(traj.t, traj.r, residual):
        if not np.isfinite(r):
            break
        lines.append(f"{float(t)!r},{float(r)!r},{float(res)!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_constants(args: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="horoflow constants")
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--samples", type=int, default=curvalg.DEFAULT_SAMPLES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", default=None, help="write the epsilon tables as CSV")
    ns = parser.parse_args(args)
    # The solve never reads kappa: its cone lives on the shifted spectrum lambda - a.
    params = FlowParams(n=ns.n, m=ns.m, beta=ns.beta, ac=AmbientCurvature(kappa=-1.0))
    constants = curvalg.solve_pinching_constants(params, n_samples=ns.samples, seed=ns.seed)
    payload = {
        "n": ns.n,
        "m": ns.m,
        "beta": ns.beta,
        **constants.account(),
        "table": {
            "eps": [float(v) for v in constants.eps_grid],
            "gap_bound": [float(v) for v in constants.gap_table],
            "gradient_floor": [float(v) for v in constants.grad_floor_table],
            "hessian_ceiling": [float(v) for v in constants.hess_ceiling_table],
        },
    }
    if ns.csv:
        rows = ["eps,gap_bound,gradient_floor,hessian_ceiling"]
        for e, g, w1, w2 in zip(
            constants.eps_grid,
            constants.gap_table,
            constants.grad_floor_table,
            constants.hess_ceiling_table,
        ):
            rows.append(f"{float(e)!r},{float(g)!r},{float(w1)!r},{float(w2)!r}")
        with open(ns.csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_analyze(args: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="horoflow analyze")
    parser.add_argument("csv")
    ns = parser.parse_args(args)
    verdict = monitors.analyze_diagnostics(*monitors.load_diagnostics(ns.csv))
    print(json.dumps(verdict, indent=2, sort_keys=True))
    ok = verdict["monotone_Qtilde"] and verdict["bounds_respected"]
    return EXIT_OK if ok else EXIT_INVARIANT


def main(argv: list[str] | None = None) -> int:
    """Dispatch a subcommand; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        sys.stdout.write(USAGE)
        return EXIT_OK if argv else EXIT_USAGE
    command, rest = argv[0], argv[1:]
    handlers = {
        "run": _cmd_run,
        "oracle": _cmd_oracle,
        "constants": _cmd_constants,
        "analyze": _cmd_analyze,
    }
    handler = handlers.get(command)
    if handler is None:
        sys.stderr.write(f"unknown subcommand: {command}\n\n{USAGE}")
        return EXIT_USAGE
    return exit_status(handler, rest)


def exit_status(command, argv) -> int:
    """Call command(argv) and return its exit code, reporting a failure on stderr.

    The one mapping from failures to messages and exit codes, shared by main
    and the scripts: a malformed flag (argparse's SystemExit) gives
    EXIT_USAGE, a ConfigurationError lists its problems, a numerical abort
    gives EXIT_NUMERICAL, and any other HoroflowError or an OSError prints
    `error: ...` and gives EXIT_INVARIANT.
    """
    try:
        return command(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except ConfigurationError as exc:
        sys.stderr.write("configuration error:\n  " + "\n  ".join(exc.problems) + "\n")
        return EXIT_INVARIANT
    except _NUMERICAL_ABORTS as exc:
        sys.stderr.write(f"numerical abort: {exc}\n")
        return EXIT_NUMERICAL
    except (HoroflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVARIANT


def entrypoint() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())

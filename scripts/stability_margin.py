#!/usr/bin/env python3
"""Print the explicit step's stability margin at a config's initial state.

The Jacobian J of `flow_rhs` is built column by column from central
differences of step 1e-7 at the config's initial state (polar-filtered on
full2d grids, as `flow.run` filters it).  The script prints the spectral
radius rho of J, the `stable_dt` the run would take there, rho * dt, and the
largest real part and largest imaginary magnitude of J's eigenvalues.  Heun
is stable on a real spectrum while rho * dt <= 2; a positive real part is a
growing mode.

Usage: python scripts/stability_margin.py CONFIG
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from horoflow.cli import exit_status, parse_config
from horoflow.flow import RunConfig, flow_rhs, stable_dt
from horoflow.graphgeom import GraphState, geometry_from_graph, polar_filter

STEP = 1.0e-7


def stability_margin(config: RunConfig, step: float = STEP) -> dict:
    """rho, stable_dt, rho * dt, max Re and max |Im| of the Jacobian at the initial state."""
    params = config.params
    grid = config.initial.grid
    r = polar_filter(grid, config.initial.r)
    state = GraphState(t=0.0, grid=grid, r=r)
    columns = []
    for j in range(r.size):
        bump = np.zeros(r.size)
        bump[j] = step
        bump = bump.reshape(r.shape)
        up = flow_rhs(GraphState(t=0.0, grid=grid, r=r + bump), params)
        down = flow_rhs(GraphState(t=0.0, grid=grid, r=r - bump), params)
        columns.append(((up - down) / (2.0 * step)).ravel())
    eigenvalues = np.linalg.eigvals(np.stack(columns, axis=1))
    rho = float(np.abs(eigenvalues).max())
    dt = stable_dt(geometry_from_graph(state, params), params)
    return {
        "rho": rho,
        "stable_dt": dt,
        "rho_dt": rho * dt,
        "max_real": float(eigenvalues.real.max()),
        "max_abs_imag": float(np.abs(eigenvalues.imag).max()),
    }


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="a horoflow run config file")
    args = parser.parse_args(argv)
    margin = stability_margin(parse_config(args.config))
    for key, value in margin.items():
        print(f"{key:<14}{value:.6g}")
    return 0


def main(argv=None) -> int:
    """Exit code of the script; a failure is reported on stderr as `horoflow` reports it."""
    return exit_status(_main, argv)


if __name__ == "__main__":
    sys.exit(main())

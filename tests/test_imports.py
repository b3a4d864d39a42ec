"""Import graph: importing horoflow, solving constants and running flows load no scipy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: the test process itself has scipy loaded.
SCRIPT = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import horoflow
assert not scipy_modules(), ("import horoflow", scipy_modules()[:3])

from horoflow import cli, oracle
assert cli.main(["constants", "--n", "3", "--m", "2", "--samples", "500"]) == cli.EXIT_OK
assert not scipy_modules(), ("horoflow constants", scipy_modules()[:3])

assert cli.main(["run", sys.argv[1]]) == cli.EXIT_OK
assert not scipy_modules(), ("horoflow run", scipy_modules()[:3])

assert cli.main(["run", sys.argv[2]]) == cli.EXIT_OK
assert not scipy_modules(), ("horoflow run, full2d mode_phi = 2", scipy_modules()[:3])

import numpy as np

params = horoflow.FlowParams(n=2, m=1, beta=1.0, ac=horoflow.AmbientCurvature(kappa=-1.0))
traj = oracle.sphere_contraction(1.0, params, np.linspace(0.0, 0.2, 11))
assert np.max(np.abs(oracle.contraction_residual(traj))) < 1e-8
assert "scipy.integrate" in sys.modules
"""


FULL2D = """params.n = 2
params.m = 2
params.beta = 1.0
params.kappa = -1.0
grid.mode = full2d
grid.n_theta = 16
grid.n_phi = 16
initial.shape = perturbed_sphere
initial.r0 = 1.0
initial.mode_l = 2
initial.mode_phi = 2
initial.amplitude = 0.02
flow.t_end = 0.002
constants.n_samples = 500
"""


def test_run_and_constants_never_import_scipy(tmp_path):
    full2d = tmp_path / "full2d.cfg"
    full2d.write_text(FULL2D)
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "params.n = 3",
                "params.m = 2",
                "params.beta = 1.0",
                "params.kappa = -1.0",
                "grid.mode = axisymmetric",
                "grid.n_theta = 16",
                "initial.shape = perturbed_sphere",
                "initial.r0 = 1.0",
                "initial.mode_l = 2",
                "initial.amplitude = 0.02",
                "flow.t_end = 0.02",
                "constants.n_samples = 500",
                f"output.dir = {out_dir}",
            ]
        )
        + "\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg), str(full2d)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out_dir / "summary.json").is_file()

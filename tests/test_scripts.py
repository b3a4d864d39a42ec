"""scripts/stability_margin.py and the benchmark's tracer, loaded by path."""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, os.path.join(directory, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stability_margin_reports_errors_like_the_cli(tmp_path, capsys):
    missing = str(tmp_path / "absent.conf")
    assert load_script("stability_margin").main([missing]) == 1
    assert f"configuration error:\n  config file not found: {missing}" in capsys.readouterr().err


FULL2D_N2M2 = """\
params.n = 2
params.m = 2
params.beta = 1.0
params.kappa = -1.0
grid.mode = full2d
grid.n_theta = 16
grid.n_phi = 32
initial.r0 = 1.0
constants.n_samples = 2000
"""


def test_stability_margin_of_the_filtered_full2d_step(tmp_path, capsys):
    stability_margin = load_script("stability_margin")
    sphere = tmp_path / "sphere.conf"
    sphere.write_text(FULL2D_N2M2 + "initial.shape = sphere\n")
    assert stability_margin.main([str(sphere)]) == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert sorted(printed) == ["max_abs_imag", "max_real", "rho", "rho_dt", "stable_dt"]
    # No growing mode at the sphere.  Masking the derivative spectrum instead
    # of the stage rate gives an eigenvalue near +1.9 here.
    assert float(printed["max_real"]) <= 0.05
    perturbed = tmp_path / "perturbed.conf"
    perturbed.write_text(
        FULL2D_N2M2
        + "initial.shape = perturbed_sphere\ninitial.mode_l = 2\n"
        + "initial.mode_phi = 2\ninitial.amplitude = 0.05\n"
    )
    margin = stability_margin.stability_margin(stability_margin.parse_config(str(perturbed)))
    # Heun is stable on a real spectrum up to rho * dt = 2.
    assert margin["rho_dt"] < 1.5


def axisym_config(n, m, beta, n_theta, shape="sphere", **initial):
    from horoflow.cli import config_from_values

    values = {
        "params.n": n, "params.m": m, "params.beta": beta, "params.kappa": -1.0,
        "grid.n_theta": n_theta, "initial.shape": shape, "initial.r0": 1.0,
    }
    values.update({f"initial.{key}": value for key, value in initial.items()})
    return config_from_values(values)


def test_stability_margin_of_the_axisymmetric_step_at_the_default_safety():
    stability_margin = load_script("stability_margin").stability_margin
    # The n = 2 sphere is the stiffest axisymmetric case measured (rho * dt
    # of 3.49 at safety 1), so the default step fraction runs it near 1.4:
    # well inside Heun's real-axis bound of 2, and not the 0.7 of safety 0.2.
    margin = stability_margin(axisym_config(2, 1, 1.0, 128))
    assert margin["max_abs_imag"] <= 1e-6
    assert 1.2 <= margin["rho_dt"] < 1.5
    perturbed_n3m2 = axisym_config(3, 2, 1.0, 64, "perturbed_sphere", mode_l=2, amplitude=0.05)
    assert stability_margin(perturbed_n3m2)["rho_dt"] < 1.5
    assert stability_margin(axisym_config(2, 2, 1.5, 64))["rho_dt"] < 1.5


# Every (owner, attribute) benchmark/tracing.py patches.  Tracer.patch skips
# a missing name silently, so a renamed or deleted function would turn its
# per-layer metric into 0; this list makes that a test failure instead.
TRACED_NAMES = [
    "cli.parse_config",
    "curvalg.solve_pinching_constants",
    "flow.solve_pinching_constants",
    "curvalg.speed",
    "graphgeom.speed",
    "curvalg.speed_gradient",
    "flow.speed_gradient",
    "curvalg.balance_function",
    "ConeSampler.points",
    "graphgeom.geometry_from_graph",
    "flow.geometry_from_graph",
    "GraphState.__init__",
    "flow.stable_dt",
    "flow.run",
    "monitors.record",
    "flow.support_offset",
    "flow.save_snapshot",
    "DiagnosticsRecorder.write_csv",
]


def test_benchmark_tracer_patches_every_name():
    from horoflow import cli, curvalg, flow, graphgeom, hypergeom, monitors

    tracing = load_script("tracing", os.path.join(ROOT, "benchmark"))
    modules = {
        "cli": cli, "curvalg": curvalg, "flow": flow,
        "graphgeom": graphgeom, "hypergeom": hypergeom, "monitors": monitors,
    }
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        patched = [
            f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}" for owner, attr, _ in tracer._patches
        ]
    finally:
        tracer.restore()
    assert patched == TRACED_NAMES
    assert not hasattr(flow.run, "__wrapped__")  # restored, not left wrapped

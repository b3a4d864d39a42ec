"""The scripts under scripts/ and the benchmark's tracer, loaded by path."""

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


def test_standard_scenario_writes_diagnostics(tmp_path):
    out = str(tmp_path / "standard")
    load_script("run_standard_scenario").main(
        ["--n-theta", "16", "--t-end", "0.02", "--samples", "200", "--output", out]
    )
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))


def test_constants_tables_runs_one_speed(capsys):
    constants_tables = load_script("constants_tables")
    assert constants_tables.main(["--triple", "2,1,1.0", "--samples", "500"]) == 0
    assert "epsilon0" in capsys.readouterr().out


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
    "curvalg.gradient_floor",
    "curvalg.hessian_ceiling",
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
    "curvalg.map_rows",
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

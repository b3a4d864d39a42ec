"""The scripts under scripts/, loaded by path and run on small inputs."""

from __future__ import annotations

import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
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

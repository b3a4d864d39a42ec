"""Config grammar, subcommand behavior, and process exit codes."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoflow import (
    AmbientCurvature,
    ConfigurationError,
    FlowParams,
    make_grid,
    perturbed_sphere_state,
    save_snapshot,
)
from horoflow.cli import (
    _KNOWN_KEYS,
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    USAGE,
    _parse_scalar,
    config_from_values,
    main,
    parse_config,
    read_config_text,
)
from horoflow.curvalg import DEFAULT_SAMPLES
from horoflow import flow
from horoflow.flow import FlowResult, RunConfig, run, scaled_radius_limit

MINIMAL = {
    "params.n": 2,
    "params.m": 1,
    "params.beta": 1.0,
    "params.kappa": -1.0,
    "initial.shape": "sphere",
    "initial.r0": 1.0,
}


# A custom shape takes its radii and grid from initial.snapshot.
CUSTOM = {
    **{key: value for key, value in MINIMAL.items() if key != "initial.r0"},
    "initial.shape": "custom",
}


def write_config(tmp_path, name="run.cfg", **overrides):
    values = {**MINIMAL, **overrides}
    lines = [f"{key} = {value}" for key, value in values.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------


def test_parse_scalar_types():
    assert _parse_scalar("true") is True
    assert _parse_scalar("Off") is False
    assert _parse_scalar("42") == 42
    assert isinstance(_parse_scalar("42"), int)
    assert _parse_scalar("1e-3") == 1e-3
    assert _parse_scalar("heun") == "heun"


def test_read_config_text_round_trip():
    text = """
    # a comment
    params.n = 2
    params.kappa = -1.0   # trailing comment
    grid.mode = axisymmetric

    flow.renormalize_volume = true
    """
    values = read_config_text(text)
    assert values == {
        "params.n": 2,
        "params.kappa": -1.0,
        "grid.mode": "axisymmetric",
        "flow.renormalize_volume": True,
    }


def test_read_config_text_collects_all_problems():
    text = "params.n 2\nnodots = 1\nparams.m = 1\nparams.m = 2\n"
    with pytest.raises(ConfigurationError) as err:
        read_config_text(text)
    problems = err.value.problems
    assert len(problems) == 3
    assert "line 1" in problems[0]
    assert "dotted" in problems[1]
    assert "duplicate" in problems[2]


def test_readme_cli_block_names_every_flag(capsys):
    # Each subcommand's line in README "Command line" names exactly the flags its
    # parser accepts, and cli.USAGE lists the same lines.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    (block,) = [b for b in blocks if b.startswith("horoflow run ")]
    commands = [line for line in block.splitlines() if line.startswith("horoflow ")]
    assert [line.split()[1] for line in commands] == ["run", "oracle", "constants", "analyze"]
    for line in commands:
        argv = list(itertools.takewhile(str.isalpha, line.split()[1:]))
        assert main([*argv, "--help"]) == EXIT_OK
        accepted = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[a-z-]+", line)) == accepted, line
    assert "  " + "\n  ".join(block.splitlines()) in USAGE


def test_readme_config_block_lists_every_known_key():
    # The README's example config, commented keys included, documents the parser's keys.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    (block,) = [b for b in blocks if "params.n =" in b]
    keys = set(re.findall(r"^#?\s*([a-z_]+\.[a-z_0-9]+)\s*=", block, flags=re.M))
    assert keys == _KNOWN_KEYS


# ---------------------------------------------------------------------------
# Validation and defaults
# ---------------------------------------------------------------------------


def test_minimal_config_defaults():
    config = config_from_values(dict(MINIMAL))
    assert config.params.n == 2
    assert config.initial.grid.mode == "axisymmetric"
    assert config.initial.grid.n_theta == 256
    assert config.t_end == 10.0
    assert config.f_tol == 1e-8
    assert config.record_interval == 0.002
    assert config.snapshot_interval is None
    assert config.scheme == "rkc"
    assert config.output_dir is None
    assert config.constants_samples == DEFAULT_SAMPLES
    assert config.constants_seed == 0
    assert np.all(config.initial.r == 1.0)


def test_config_collects_all_problems_at_once():
    values = {
        "params.n": 1,
        "params.m": 0,
        "params.beta": -1.0,
        "params.kappa": 0.5,
        "initial.shape": "cube",
        "control.scheme": "euler",
        "flow.t_end": -3.0,
        "bogus.key": 1,
    }
    with pytest.raises(ConfigurationError) as err:
        config_from_values(values)
    text = "\n".join(err.value.problems)
    assert len(err.value.problems) >= 7
    assert "unknown key 'bogus.key'" in text
    assert "params.n must be >= 2" in text
    assert "params.beta must be positive" in text
    assert "params.kappa must be negative" in text
    assert "initial.shape" in text
    assert "unknown key 'control.scheme'" in text
    assert "flow.t_end must be positive" in text


@pytest.mark.parametrize(
    "key, value",
    [
        # rkc always closes each step on the volume, so the old switch is an unknown key.
        ("flow.renormalize_volume", True),
        # rkc's step comes from the limit sphere's slowest mode, not from a cap.
        ("control.dt_max", 1e-2),
        # The step fraction is flow.SAFETY, a per-grid-mode constant, and the
        # dt floor is flow.DT_MIN.
        ("control.safety", 0.4),
        ("control.dt_min", 1e-10),
    ],
)
def test_config_rejects_deleted_keys(key, value):
    with pytest.raises(ConfigurationError) as err:
        config_from_values({**MINIMAL, key: value})
    assert err.value.problems == [f"unknown key {key!r}"]


def test_config_perturbation_rules():
    values = {
        **MINIMAL,
        "initial.shape": "perturbed_sphere",
        "initial.mode_l": 1,
        "initial.amplitude": 0.5,
        "initial.mode_phi": 2,
    }
    with pytest.raises(ConfigurationError) as err:
        config_from_values(values)
    text = "\n".join(err.value.problems)
    assert "(0 rescales, 1 translates)" in text
    assert "amplitude/r0" in text
    assert "mode_phi requires grid.mode = full2d" in text


def test_config_full2d_rules():
    values = {**MINIMAL, "grid.mode": "full2d", "grid.n_phi": 31}
    with pytest.raises(ConfigurationError) as err:
        config_from_values(values)
    assert any("even integer" in p for p in err.value.problems)
    good = config_from_values({**MINIMAL, "grid.mode": "full2d", "grid.n_theta": 32, "grid.n_phi": 16})
    assert good.initial.grid.mode == "full2d"
    assert good.initial.r.shape == (32, 16)


def test_config_azimuthal_order_above_mode_l():
    values = {
        **MINIMAL,
        "grid.mode": "full2d",
        "grid.n_theta": 16,
        "grid.n_phi": 16,
        "initial.shape": "perturbed_sphere",
        "initial.mode_l": 2,
        "initial.amplitude": 0.05,
        "initial.mode_phi": 3,
    }
    with pytest.raises(ConfigurationError) as err:
        config_from_values(values)
    assert err.value.problems == ["initial.mode_phi must be <= initial.mode_l in magnitude, got 3, 2"]


@pytest.mark.parametrize(
    "shape, key, reason",
    [
        ("sphere", "initial.mode_l", "only initial.shape = perturbed_sphere reads it, not sphere"),
        ("sphere", "initial.amplitude", "only initial.shape = perturbed_sphere reads it"),
        ("sphere", "initial.mode_phi", "only initial.shape = perturbed_sphere reads it"),
        ("custom", "initial.mode_l", "only initial.shape = perturbed_sphere reads it, not custom"),
        ("custom", "initial.r0", "takes its radii from the snapshot"),
        ("custom", "grid.mode", "takes its grid from the snapshot"),
        ("custom", "grid.n_theta", "takes its grid from the snapshot"),
        ("custom", "grid.n_phi", "takes its grid from the snapshot"),
        ("sphere", "initial.snapshot", "only initial.shape = custom reads it, not sphere"),
        ("perturbed_sphere", "initial.snapshot", "only initial.shape = custom reads it"),
        ("sphere", "grid.n_phi", "only grid.mode = full2d reads it, not axisymmetric"),
        ("perturbed_sphere", "grid.n_phi", "only grid.mode = full2d reads it"),
    ],
)
def test_config_rejects_keys_the_run_never_reads(tmp_path, shape, key, reason):
    # Each value is junk: the key is rejected before its value would be read.
    values = {"sphere": MINIMAL, "perturbed_sphere": _PERTURBED, "custom": CUSTOM}[shape]
    if shape == "custom":
        snap = str(tmp_path / "start.csv")
        save_snapshot(perturbed_sphere_state(make_grid("axisymmetric", 2, 16), 1.0, 2, 0.05), snap)
        values = {**values, "initial.snapshot": snap}
    raw = "axisymmetric" if key == "grid.mode" else 16 if key == "grid.n_theta" else "junk"
    with pytest.raises(ConfigurationError) as err:
        config_from_values({**values, key: raw})
    assert len(err.value.problems) == 1, err.value.problems
    (problem,) = err.value.problems
    assert problem.startswith(f"{key} is never read: ") and reason in problem, problem


def test_config_snapshot_interval_zero_disables():
    config = config_from_values({**MINIMAL, "flow.snapshot_interval": 0})
    assert config.snapshot_interval is None
    config = config_from_values({**MINIMAL, "flow.snapshot_interval": 0.5})
    assert config.snapshot_interval == 0.5


@pytest.mark.parametrize(
    "key, raw",
    [
        ("flow.t_end", "inf"),
        ("flow.t_end", "nan"),
        ("flow.record_interval", "nan"),
        ("flow.f_tol", "inf"),
        ("flow.snapshot_interval", "nan"),
        ("flow.snapshot_interval", "inf"),
        ("initial.r0", "inf"),
        ("params.beta", "1e400"),
        ("params.kappa", "-inf"),
    ],
)
def test_config_rejects_non_finite_values(key, raw):
    values = read_config_text("\n".join(f"{k} = {v}" for k, v in {**MINIMAL, key: raw}.items()))
    with pytest.raises(ConfigurationError) as err:
        config_from_values(values)
    assert any(p.startswith(key) and "finite" in p for p in err.value.problems)


@pytest.mark.parametrize("kappa", [-1.0, -0.25])
def test_config_bounds_the_radius_below_double_overflow(kappa, monkeypatch):
    monkeypatch.setattr(flow, "DEFAULT_MAX_STEPS", 5)
    a = math.sqrt(-kappa)
    limit = scaled_radius_limit(3, a) / a
    values = {
        **MINIMAL,
        "params.n": 3,
        "params.m": 2,
        "params.kappa": kappa,
        "grid.n_theta": 16,
        "initial.shape": "perturbed_sphere",
        "initial.mode_l": 2,
        "initial.amplitude": 0.01,
        "constants.n_samples": 200,
    }
    under = config_from_values({**values, "initial.r0": limit * (1.0 - 1e-4) - 0.01})
    result = run(under)
    # mu_2 is below 1e-140 about so large a sphere, so rkc's step, 0.05 / mu_2,
    # is cut to t_end: one step covers the run.
    assert result.summary["status"] == "t_end" and result.summary["n_steps"] == 1
    cols = result.recorder.arrays()
    for name in set(cols) - {"Qtilde_min", "f_max"}:  # undefined where lam - a rounds to 0
        assert np.all(np.isfinite(cols[name])), name
    with pytest.raises(ConfigurationError) as err:
        config_from_values({**values, "initial.r0": limit * (1.0 + 1e-4) - 0.01})
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith("initial.r0 and params.kappa")


def test_config_custom_snapshot(tmp_path):
    state = perturbed_sphere_state(make_grid("axisymmetric", 2, 48), 1.0, 2, 0.05)
    snap = str(tmp_path / "start.csv")
    save_snapshot(state, snap)
    config = config_from_values({**CUSTOM, "initial.snapshot": snap})
    assert np.array_equal(config.initial.r, state.r)
    with pytest.raises(ConfigurationError) as err:
        config_from_values({**CUSTOM, "params.n": 3, "initial.snapshot": snap})
    assert any("does not match params.n" in p for p in err.value.problems)
    junk = tmp_path / "junk.csv"
    junk.write_text("not a snapshot\n1,2\n")
    one_column = tmp_path / "one_column.csv"
    thetas = "".join(f"{float(t)!r}\n" for t in make_grid("axisymmetric", 2, 16).theta)
    one_column.write_text("# horoflow-grid v1, mode=axisym, n=2, t=0.0\n" + thetas)
    for path in (str(tmp_path), str(junk), str(one_column), str(tmp_path / "absent.csv")):
        with pytest.raises(ConfigurationError) as err:
            config_from_values({**CUSTOM, "initial.snapshot": path})
        assert [p.split()[0] for p in err.value.problems] == ["initial.snapshot"]


# Scalars of every parsed type, leaning on the values a valid file holds so
# that the rule functions and the object construction are reached as well.
_WORDS = st.sampled_from(
    ["axisymmetric", "full2d", "sphere", "perturbed_sphere", "custom", "heun", "RK4"]
)
_SCALARS = st.one_of(
    st.integers(),
    st.integers(min_value=-2, max_value=40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-2.0, max_value=2.0),
    st.booleans(),
    _WORDS,
    # No path separators: a drawn initial.snapshot stays in the working directory.
    st.text(alphabet=st.characters(blacklist_characters="/\\"), max_size=8),
)
_GRID_SIZES = st.one_of(
    st.integers(max_value=512), st.sampled_from([8, 16, 32]), st.booleans(), st.floats()
)
_PERTURBED = {
    **MINIMAL,
    "initial.shape": "perturbed_sphere",
    "initial.mode_l": 2,
    "initial.amplitude": 0.05,
}
_FULL2D = {
    **_PERTURBED,
    "grid.mode": "full2d",
    "grid.n_theta": 16,
    "grid.n_phi": 16,
    "initial.mode_phi": 1,
}


@st.composite
def _config_values(draw):
    """A valid base mapping (or none) with up to six keys redrawn or added."""
    base = draw(st.sampled_from([{}, MINIMAL, _PERTURBED, _FULL2D]))
    keys = draw(
        st.lists(st.sampled_from(sorted(_KNOWN_KEYS) + ["bogus.key"]), max_size=6, unique=True)
    )
    drawn = {
        key: draw(_GRID_SIZES if key in ("grid.n_theta", "grid.n_phi") else _SCALARS)
        for key in keys
    }
    return {**base, **drawn}


@settings(max_examples=300)
@given(values=_config_values())
def test_config_from_values_gives_a_config_or_a_configuration_error(values):
    try:
        config = config_from_values(values)
    except ConfigurationError as err:
        assert err.problems
        assert len(set(err.problems)) == len(err.problems)
    else:
        assert isinstance(config, RunConfig)
        assert "bogus.key" not in values


def test_parse_config_reads_files(tmp_path):
    path = write_config(tmp_path, **{"grid.n_theta": 48, "constants.n_samples": 2000})
    config = parse_config(path)
    assert config.initial.grid.n_theta == 48
    with pytest.raises(ConfigurationError):
        parse_config(str(tmp_path / "absent.cfg"))


def test_parse_config_and_run_log_the_pinching_verdict_once(tmp_path, caplog):
    path = write_config(
        tmp_path,
        **{
            "params.m": 2,
            "grid.n_theta": 32,
            "initial.shape": "perturbed_sphere",
            "initial.mode_l": 2,
            "initial.amplitude": 0.05,
            "flow.t_end": 0.01,
            "constants.n_samples": 2000,
        },
    )
    with caplog.at_level("INFO", logger="horoflow"):
        result = run(parse_config(path))
    assert result.summary["initial_pinched"] is False
    verdicts = [r for r in caplog.records if "initial state" in r.getMessage()]
    assert len(verdicts) == 1
    assert verdicts[0].levelname == "WARNING"


# ---------------------------------------------------------------------------
# The example configs
# ---------------------------------------------------------------------------

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "variant, n, m, t_end", [("n2m1", 2, 1, 16.0), ("n3m2", 3, 2, 6.0), ("n2m2", 2, 2, 5.0)]
)
def test_examples_build_the_standard_scenarios(variant, n, m, t_end):
    # A unit sphere with an l = 2 bump of 0.05 on 256 axisymmetric rows.
    config = parse_config(str(EXAMPLES / f"{variant}.conf"))
    assert config.params == FlowParams(n=n, m=m, beta=1.0, ac=AmbientCurvature(kappa=-1.0))
    assert config.initial.grid.mode == "axisymmetric"
    assert config.initial.grid.n_theta == 256
    expected = perturbed_sphere_state(make_grid("axisymmetric", n, 256), 1.0, 2, 0.05)
    assert config.initial.r.tobytes() == expected.r.tobytes()
    assert (config.t_end, config.snapshot_interval) == (t_end, 1.0)
    assert (config.constants_samples, config.constants_seed) == (20_000, 0)
    assert (config.record_interval, config.f_tol) == (RunConfig.record_interval, RunConfig.f_tol)
    assert config.output_dir == f"out/{variant}"


def test_example_config_runs_and_analyze_reads_its_diagnostics(tmp_path, capsys):
    # The n2m1 example on a coarse grid and a short horizon.
    values = read_config_text((EXAMPLES / "n2m1.conf").read_text())
    out_dir = tmp_path / "n2m1"
    values.update({
        "grid.n_theta": 16, "flow.t_end": 0.02, "constants.n_samples": 200,
        "output.dir": str(out_dir),
    })
    path = tmp_path / "n2m1.conf"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    assert main(["run", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dt"]["scheme"] == "rkc"
    assert main(["analyze", str(out_dir / "diagnostics.csv")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["monotone_Qtilde"] is True


# ---------------------------------------------------------------------------
# Dispatch and exit codes
# ---------------------------------------------------------------------------


def test_usage_and_unknown_subcommand(capsys):
    assert main([]) == EXIT_USAGE
    assert "subcommands" in capsys.readouterr().out
    assert main(["help"]) == EXIT_OK
    assert main(["--help"]) == EXIT_OK
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "unknown subcommand" in capsys.readouterr().err


def test_malformed_flags_exit_usage(capsys):
    assert main(["run"]) == EXIT_USAGE
    assert main(["oracle", "banana"]) == EXIT_USAGE
    assert main(["oracle", "sphere", "abc", "1.0"]) == EXIT_USAGE
    assert main(["constants", "--samples", "many"]) == EXIT_USAGE
    assert main(["constants", "--kappa", "-4"]) == EXIT_USAGE  # the solve never reads kappa
    capsys.readouterr()


def test_run_bad_config_lists_problems(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("params.n = 1\nparams.m = 0\nparams.beta = 1.0\nparams.kappa = -1.0\ninitial.shape = sphere\ninitial.r0 = 1.0\n")
    assert main(["run", str(path)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "params.n must be >= 2" in err
    assert main(["run", str(tmp_path / "nope.cfg")]) == EXIT_INVARIANT


def test_run_sphere_converges(tmp_path, capsys):
    path = write_config(
        tmp_path, **{"grid.n_theta": 48, "constants.n_samples": 2000}
    )
    assert main(["run", path]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    assert summary["n_steps"] == 0
    assert summary["status"] == "converged"
    assert summary["params"] == {"n": 2, "m": 1, "beta": 1.0, "kappa": -1.0}


def test_run_stops_at_the_step_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(flow, "DEFAULT_MAX_STEPS", 3)
    path = write_config(
        tmp_path,
        **{
            "grid.n_theta": 48,
            "initial.shape": "perturbed_sphere",
            "initial.mode_l": 2,
            "initial.amplitude": 0.05,
            "flow.t_end": 50.0,
            "constants.n_samples": 2000,
        },
    )
    assert main(["run", path]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "max_steps"
    assert summary["n_steps"] == 3


def test_run_stiff_config_exits_numerical(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(flow, "DT_MIN", 1e-3)
    path = write_config(
        tmp_path,
        **{
            "grid.n_theta": 96,
            "initial.shape": "perturbed_sphere",
            "initial.mode_l": 2,
            "initial.amplitude": 0.01,
            "flow.t_end": 10.0,
            "constants.n_samples": 2000,
        },
    )
    assert main(["run", path]) == EXIT_NUMERICAL
    assert "numerical abort" in capsys.readouterr().err


@pytest.mark.parametrize("with_output_dir", [False, True])
def test_run_abort_prints_the_aborted_summary(tmp_path, capsys, with_output_dir):
    # A small sphere with a degree-6 ripple of the largest allowed amplitude
    # is dimpled (H < 0 at some node): the initial geometry already aborts.
    overrides = {
        "grid.n_theta": 48,
        "initial.shape": "perturbed_sphere",
        "initial.r0": 0.5,
        "initial.mode_l": 6,
        "initial.amplitude": 0.1,
        "constants.n_samples": 2000,
    }
    out = tmp_path / "out"
    if with_output_dir:
        overrides["output.dir"] = str(out)
    assert main(["run", write_config(tmp_path, **overrides)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "numerical abort" in captured.err
    summary = json.loads(captured.out)
    assert summary["status"] == "aborted" and summary["converged"] is False
    assert summary["n_steps"] == 0
    abort = summary["abort"]
    assert abort["error"] == "ParabolicityLostError"
    assert abort["message"] in captured.err
    assert abort["t"] == 0.0 and abort["step"] == 0
    assert isinstance(abort["node_index"], int)
    if with_output_dir:
        assert json.loads((out / "summary.json").read_text()) == summary
    else:
        assert not out.exists()


def test_oracle_writes_trajectory(capsys):
    code = main(["oracle", "sphere", "1.0", "0.3", "--samples", "31"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,r,residual"
    assert len(lines) == 32
    last = lines[-1].split(",")
    t, r, res = (float(v) for v in last)
    assert t == 0.3
    assert r == pytest.approx(math.acosh(math.cosh(1.0) * math.exp(-0.3)), abs=1e-8)
    assert abs(res) < 1e-8


@pytest.mark.parametrize(
    "argv, named",
    [
        (["nan", "1"], "r0 must be positive and finite"),
        (["inf", "1"], "r0 must be positive and finite"),
        (["1", "inf"], "t_grid must be finite"),
        (["1", "nan"], "t_grid must be finite"),
        (["1", "0.3", "--samples", "-1"], "--samples must be >= 2"),
    ],
)
def test_oracle_rejects_out_of_domain_input(capsys, argv, named):
    assert main(["oracle", "sphere", *argv]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err


def test_constants_outputs(tmp_path, capsys):
    csv_path = str(tmp_path / "constants.csv")
    code = main(["constants", "--n", "2", "--m", "1", "--samples", "500", "--csv", csv_path])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "kappa" not in payload
    assert payload["degenerate"] is True  # linear speed: flat hessian ceiling
    assert payload["balance_evaluations"] == 0
    assert payload["epsilon0"] == pytest.approx(0.01)
    assert payload["c_star"] == pytest.approx(0.0099)
    table = payload["table"]
    sizes = {len(table[k]) for k in ("eps", "gap_bound", "gradient_floor", "hessian_ceiling")}
    assert len(sizes) == 1
    rows = open(csv_path).read().strip().splitlines()
    assert rows[0] == "eps,gap_bound,gradient_floor,hessian_ceiling"
    assert len(rows) == len(table["eps"]) + 1


def test_constants_json_reports_the_balance_evaluations(capsys):
    code = main(["constants", "--n", "2", "--m", "2", "--samples", "500"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate"] is False
    assert 1 <= payload["balance_evaluations"] <= 8


def test_constants_rejects_a_negative_seed(capsys):
    assert main(["constants", "--seed", "-1", "--samples", "100"]) == EXIT_INVARIANT
    assert capsys.readouterr().err.startswith("error: sampler needs a seed >= 0")


def test_constants_rejects_an_out_of_range_speed(capsys):
    assert main(["constants", "--n", "2", "--m", "3", "--samples", "100"]) == EXIT_INVARIANT
    assert capsys.readouterr().err.startswith("configuration error:\n  params.m must be")


def test_analyze_verdict_flow(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    path = write_config(
        tmp_path,
        **{
            "grid.n_theta": 48,
            "initial.shape": "perturbed_sphere",
            "initial.mode_l": 2,
            "initial.amplitude": 0.05,
            "flow.t_end": 0.4,
            "constants.n_samples": 2000,
            "output.dir": out_dir,
        },
    )
    assert main(["run", path]) == EXIT_OK
    capsys.readouterr()
    csv = f"{out_dir}/diagnostics.csv"
    assert main(["analyze", csv]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["monotone_Qtilde"] is True
    assert verdict["bounds_respected"] is True
    assert verdict["volume_drift"] < 1e-8


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The output directory and summary.json of a run long enough for a decay fit."""
    tmp_path = tmp_path_factory.mktemp("finished")
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path,
        **{
            "grid.n_theta": 32,
            "initial.shape": "perturbed_sphere",
            "initial.mode_l": 2,
            "initial.amplitude": 0.05,
            "flow.t_end": 1.0,
            "constants.n_samples": 2000,
            "output.dir": str(out_dir),
        },
    )
    run(parse_config(path))
    return out_dir, json.loads((out_dir / "summary.json").read_text())


def test_analyze_and_the_summary_report_the_same_drift_and_fit(finished_run, capsys):
    out_dir, summary = finished_run
    assert main(["analyze", str(out_dir / "diagnostics.csv")]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert summary["decay_fit"] is not None and summary["volume_drift"] > 0.0
    assert verdict["volume_drift"] == summary["volume_drift"]
    assert verdict["decay_rate"] == summary["decay_fit"]["rate"]
    assert verdict["r_squared"] == summary["decay_fit"]["r_squared"]


def test_readme_lists_every_summary_key(finished_run):
    # The README's summary.json entry names each top-level key on its own sub-bullet.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    lines = text[text.index("- `summary.json` - "):].splitlines()[1:]
    keys = []
    for line in lines:
        match = re.match(r"  - `(\w+)` - ", line)
        if match is None:
            break
        keys.append(match.group(1))
    _out_dir, summary = finished_run
    assert sorted(keys) == sorted(summary)


def test_readme_names_every_flow_result_field():
    # The README's FlowResult sentence names each field, in backquotes, and nothing else.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())
    sentence = text[text.index("`run` returns a `FlowResult`"):].split(". ", 1)[0]
    named = re.findall(r"`(\w+)`", sentence)[2:]
    assert sorted(named) == sorted(field.name for field in dataclasses.fields(FlowResult))


def _diagnostics_rows():
    from horoflow import CSV_COLUMNS

    rows = [
        [0.0, 5.0, 1.3, 1.2, 1.4, 0.2, 0.05, 0.6, 0.3, 1.1, 1.2, 1e-3],
        [0.1, 5.0, 1.3, 1.2, 1.4, 0.21, 0.04, 0.6, 0.3, 1.1, 1.2, 1e-3],
    ]
    return "\n".join([",".join(CSV_COLUMNS)] + [",".join(repr(v) for v in row) for row in rows])


def test_analyze_rejects_a_headerless_csv(tmp_path, capsys):
    path = tmp_path / "plain.csv"
    path.write_text(_diagnostics_rows() + "\n")
    assert main(["analyze", str(path)]) == EXIT_INVARIANT
    assert capsys.readouterr().err.startswith(f"error: {path} is not a horoflow diagnostics CSV")
    assert main(["analyze", str(tmp_path / "missing.csv")]) == EXIT_INVARIANT


@pytest.mark.parametrize(
    "meta, named",
    [
        ("n=2, m=1, beta=1.0, kappa=-1.0", None),
        ("n=2, m=7, beta=1.0, kappa=-1.0", "params.m"),
        ("n=2, m=1, beta=nan, kappa=-1.0", "params.beta"),
        ("n=2, m=1, beta=1.0, kappa=inf", "params.kappa"),
    ],
)
def test_analyze_checks_the_flow_parameters_of_the_metadata(tmp_path, capsys, meta, named):
    path = tmp_path / "diagnostics.csv"
    path.write_text(f"# horoflow-diagnostics v1, {meta}\n" + _diagnostics_rows() + "\n")
    code = main(["analyze", str(path)])
    err = capsys.readouterr().err
    if named is None:
        assert code == EXIT_OK
    else:
        assert code == EXIT_INVARIANT
        assert err.startswith(f"configuration error:\n  {named}"), err


@pytest.mark.parametrize(
    "meta, body",
    [
        ("n=2, m=1, beta=1.0, kappa=-1.0", _diagnostics_rows() + "\n0.2,5.0\n"),
        ("n=2, m=1, beta=abc, kappa=-1.0", _diagnostics_rows() + "\n"),
        ("n=2, m=1, beta=1.0, kappa=-1.0", _diagnostics_rows().replace("0.04", "x") + "\n"),
    ],
    ids=["ragged-row", "non-numeric-metadata", "non-numeric-cell"],
)
def test_analyze_names_a_malformed_file(tmp_path, capsys, meta, body):
    path = tmp_path / "diagnostics.csv"
    path.write_text(f"# horoflow-diagnostics v1, {meta}\n" + body)
    assert main(["analyze", str(path)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not a readable diagnostics CSV"), err

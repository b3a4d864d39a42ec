"""Each benchmark check accepts a correct output and rejects a corrupted one.

Run with:  python3 -m pytest benchmark
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

N, KAPPA = 3, -1.0


def test_ball_volume_inversion_matches_n2_closed_form():
    # In H^3 (n = 2, kappa = -1): |S^2| * int_0^rho sinh^2 = pi (sinh 2rho - 2rho).
    for rho in (0.3, 1.0, 2.5):
        closed = math.pi * (math.sinh(2.0 * rho) - 2.0 * rho)
        assert math.isclose(checks.ball_volume(rho, 2, -1.0), closed, rel_tol=1e-12)
        assert math.isclose(checks.ball_radius(closed, 2, -1.0), rho, rel_tol=1e-12)


def test_ball_radius_rejects_a_wrong_volume():
    rho = 1.0
    volume = math.pi * (math.sinh(2.0 * rho) - 2.0 * rho)
    assert checks.check_final_radius(volume, np.full(8, rho), 2, -1.0) == []
    assert checks.check_final_radius(volume * (1.0 + 1e-4), np.full(8, rho), 2, -1.0)


def _snapshot(theta, r, t=0.0) -> str:
    lines = [f"# horoflow-grid v1, mode=axisym, n={N}, t={t!r}"]
    lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(theta, r)]
    return "\n".join(lines) + "\n"


def _diagnostics(t, qtilde, f_max, lam_min) -> str:
    header = "t,V,Fbar,Fmin,Fmax,Qtilde_min,f_max,Htilde_min,lambda_tilde_min,Phi_min,Z_max,dt"
    lines = ["# horoflow-diagnostics v1, n=3, m=2, beta=1.0, kappa=-1.0", header]
    for row in zip(t, qtilde, f_max, lam_min):
        ti, q, f, lam = (float(v) for v in row)
        lines.append(",".join(repr(v) for v in (ti, 1.0, 1.0, 1.0, 1.0, q, f, 1.0, lam, 1.0, 1.0, 1e-3)))
    return "\n".join(lines) + "\n"


@pytest.fixture
def good_run():
    """Output files of a converged run, built from closed forms."""
    theta = np.linspace(0.0, math.pi, 32)
    r0 = 1.0 + 0.05 * np.cos(2.0 * theta)
    volume = checks.axisym_volume(theta, r0, N, KAPPA)
    rho = checks.ball_radius(volume, N, KAPPA)
    t = np.linspace(0.0, 5.0, 200)
    f_max = 0.02 * np.exp(-6.8 * t)
    qtilde = 1.0 / N**N - f_max
    files = {
        "summary.json": json.dumps({"converged": True, "status": "converged"}),
        "diagnostics.csv": _diagnostics(t, qtilde, f_max, np.full(t.size, 0.3)),
        "snapshot_000000.csv": _snapshot(theta, r0),
        "final_state.csv": _snapshot(theta, np.full(theta.size, rho), t=5.0),
    }
    return files, t, qtilde, f_max, theta, rho


def test_good_run_passes(good_run):
    files = good_run[0]
    assert checks.check_axisym_run(files, N, KAPPA) == []


def test_decreasing_qtilde_is_rejected(good_run):
    files, t, qtilde, f_max, _theta, _rho = good_run
    bad = qtilde.copy()
    bad[100] -= 1e-5
    files = dict(files, **{"diagnostics.csv": _diagnostics(t, bad, f_max, np.full(t.size, 0.3))})
    assert any("Qtilde_min decreases" in f for f in checks.check_axisym_run(files, N, KAPPA))


def test_lost_h_convexity_is_rejected(good_run):
    files, t, qtilde, f_max, _theta, _rho = good_run
    lam = np.full(t.size, 0.3)
    lam[50] = -1e-3
    files = dict(files, **{"diagnostics.csv": _diagnostics(t, qtilde, f_max, lam)})
    assert any("lambda_tilde_min" in f for f in checks.check_axisym_run(files, N, KAPPA))


def test_non_exponential_decay_is_rejected(good_run):
    files, t, qtilde, _f_max, _theta, _rho = good_run
    f_max = 0.02 / (1.0 + 40.0 * t) ** 3 * (1.0 + 0.5 * np.sin(7.0 * t))
    files = dict(files, **{"diagnostics.csv": _diagnostics(t, qtilde, f_max, np.full(t.size, 0.3))})
    assert any("decay fit" in f for f in checks.check_axisym_run(files, N, KAPPA))


def test_volume_drift_is_rejected(good_run):
    files, _t, _q, _f, theta, rho = good_run
    files = dict(files, **{"final_state.csv": _snapshot(theta, np.full(theta.size, rho * 1.001), 5.0)})
    failures = checks.check_axisym_run(files, N, KAPPA)
    assert any("volume drift" in f for f in failures)
    assert any("ball radius" in f for f in failures)


def test_unconverged_run_is_rejected(good_run):
    files = dict(good_run[0], **{"summary.json": json.dumps({"converged": False, "status": "t_end"})})
    assert any("did not converge" in f for f in checks.check_axisym_run(files, N, KAPPA))


def test_changed_diagnostics_byte_is_rejected(good_run):
    data = good_run[0]["diagnostics.csv"].encode()
    changed = bytearray(data)
    changed[-3] = ord("7") if changed[-3] != ord("7") else ord("8")
    assert checks.check_identical(None, data, "diagnostics.csv") == []
    assert checks.check_identical(data, data, "diagnostics.csv") == []
    assert checks.check_identical(data, bytes(changed), "diagnostics.csv")


def test_fit_decay_recovers_rate():
    t = np.linspace(0.0, 3.0, 100)
    rate, r2, used = checks.fit_decay(t, 0.01 * np.exp(-2.5 * t))
    assert math.isclose(rate, 2.5, rel_tol=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert used == 90


def _constants_tables(n, m):
    eps_hi = 1.0 / n
    eps = np.linspace(eps_hi / 64.0, eps_hi * (1.0 - 1e-9), 17)
    floor = checks.n2m2_gradient_floor(eps) if (n, m) == (2, 2) else np.linspace(0.1, 0.5, 17)
    ceiling = np.linspace(2.0, 1.0, 17)
    return eps, floor, ceiling


@pytest.mark.parametrize("n, m, eps0", [(2, 2, 0.4898), (3, 2, 0.3321)])
def test_constants_pass_and_shifted_c_star_is_rejected(n, m, eps0):
    eps, floor, ceiling = _constants_tables(n, m)
    c_star = checks.c_star_closed_form(eps0, n)
    assert checks.check_constants(n, m, eps0, c_star, False, eps, floor, ceiling) == []
    shifted = c_star * (1.0 + 1e-9)
    failures = checks.check_constants(n, m, eps0, shifted, False, eps, floor, ceiling)
    assert any("C* =" in f for f in failures)


def test_constants_table_and_degeneracy_faults_are_rejected():
    eps, floor, ceiling = _constants_tables(2, 2)
    c_star = checks.c_star_closed_form(0.4898, 2)
    args = (2, 2, 0.4898, c_star)
    assert checks.check_constants(*args, True, eps, floor, ceiling)
    bad_floor = floor.copy()
    bad_floor[5] += 1e-9
    assert any("exact minimum" in f for f in checks.check_constants(*args, False, eps, bad_floor, ceiling))
    assert any("decreases" in f for f in checks.check_constants(*args, False, eps, floor[::-1], ceiling))
    assert any("increases" in f for f in checks.check_constants(*args, False, eps, floor, ceiling[::-1]))
    assert checks.check_constants(2, 2, 0.6, 0.3, False, eps, floor, ceiling)


def test_horizon_run_checks():
    n_theta, n_phi = 16, 32
    r = np.full((n_theta, n_phi), 1.0)
    cols = {
        "t": [0.0, 0.03, 0.06],
        "Qtilde_min": [0.24, 0.245, 0.248],
        "f_max": [0.01, 0.005, 0.002],
        "lambda_tilde_min": [0.2, 0.2, 0.2],
    }
    assert checks.check_horizon_run("t_end", 0.06, 0.06, cols, (n_theta, n_phi), r, r, KAPPA) == []
    grown = dict(cols, f_max=[0.01, 0.02, 0.03])
    assert checks.check_horizon_run("t_end", 0.06, 0.06, grown, (n_theta, n_phi), r, r, KAPPA)
    assert checks.check_horizon_run("t_end", 0.06, 0.06, cols, (n_theta, n_phi), r, r * 1.001, KAPPA)
    assert checks.check_horizon_run("converged", 0.05, 0.06, cols, (n_theta, n_phi), r, r, KAPPA)


def test_run_without_sources_fails_without_a_result(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    copy = tmp_path / "benchmark"
    shutil.copytree(here, copy, ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "full2d_horizon", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

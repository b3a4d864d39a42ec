"""Diagnostics records, CSV round trips, monotonicity and decay-rate checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from horoflow import (
    AmbientCurvature,
    CSV_COLUMNS,
    DiagnosticsRecorder,
    DomainError,
    FlowParams,
    HoroflowError,
    analyze_diagnostics,
    ball_volume,
    check_monotone,
    geometry_from_graph,
    load_diagnostics,
    make_grid,
    record,
    sphere_state,
)
from horoflow.monitors import decay_fit, shifted_minima

COTH1 = math.cosh(1.0) / math.sinh(1.0)


def sphere_record(params, zeta=0.02, dt=1e-3, n_theta=128):
    state = sphere_state(make_grid("axisymmetric", params.n, n_theta), 1.0)
    fields = geometry_from_graph(state, params)
    return state, fields, record(state, fields, params, zeta, dt)


# ---------------------------------------------------------------------------
# Single records
# ---------------------------------------------------------------------------


def test_unit_sphere_record_values(params_n2m1):
    _state, _fields, rec = sphere_record(params_n2m1, zeta=0.02, dt=2e-3)
    assert rec.t == 0.0
    assert rec.dt == 2e-3
    assert rec.V == pytest.approx(float(ball_volume(1.0, params_n2m1)), rel=1e-4)
    assert rec.Fbar == pytest.approx(COTH1, abs=1e-14)
    assert rec.Fmin == pytest.approx(COTH1, abs=1e-14)
    assert rec.Fmax == pytest.approx(COTH1, abs=1e-14)
    # umbilic: product/sum^n of the shifted spectrum is exactly n^-n
    assert rec.Qtilde_min == pytest.approx(0.25, abs=1e-12)
    assert rec.f_max == pytest.approx(0.0, abs=1e-12)
    assert rec.Htilde_min == pytest.approx(2.0 * (COTH1 - 1.0), abs=1e-13)
    assert rec.lambda_tilde_min == pytest.approx(COTH1 - 1.0, abs=1e-13)
    assert rec.Phi_min == pytest.approx(math.sinh(1.0), abs=1e-13)
    assert rec.Z_max == pytest.approx(COTH1 / (math.sinh(1.0) - 0.02), abs=1e-12)
    assert rec.h_convex is True


def test_record_nan_branches(params_n2m1):
    state, fields, _ = sphere_record(params_n2m1)
    # force the shifted spectrum negative: ratio quantities become undefined
    fields.lam = fields.lam - 1.0
    rec = record(state, fields, params_n2m1, 0.02, 1e-3)
    assert math.isnan(rec.Qtilde_min)
    assert math.isnan(rec.f_max)
    assert rec.h_convex is False
    # support offset above the support function: ratio bound undefined
    _state2, fields2, _ = sphere_record(params_n2m1)
    rec2 = record(state, fields2, params_n2m1, 10.0, 1e-3)
    assert math.isnan(rec2.Z_max)


def test_as_row_follows_column_order(params_n2m1):
    _state, _fields, rec = sphere_record(params_n2m1)
    row = rec.as_row()
    assert len(row) == len(CSV_COLUMNS)
    for k, name in enumerate(CSV_COLUMNS):
        assert row[k] == float(getattr(rec, name))


# ---------------------------------------------------------------------------
# The shifted spectrum in one pass
# ---------------------------------------------------------------------------


def three_pass_reference(lam, params, c_star):
    """The three passes that shifted_minima replaced, kept verbatim.

    lambda_tilde_min as record formed it, then the old pinching_minimum and
    np.all of the old pinching_predicate (both read lam, not the fields).
    """
    lam_tilde_min = float((lam - params.a).min())

    shifted = lam - params.a
    htilde = shifted.sum(axis=-1)
    htilde_min = float(htilde.min())
    if htilde_min <= 0.0:
        qtilde_min = math.nan
    else:
        qtilde_min = float((shifted.prod(axis=-1) / htilde**params.n).min())

    pinched = None
    if c_star is not None:
        shifted = lam - params.a
        htilde = np.sum(shifted, axis=-1)
        ktilde = np.prod(shifted, axis=-1)
        predicate = (htilde > 0.0) & (ktilde > c_star * htilde**params.n)
        pinched = bool(np.all(predicate))
    return lam_tilde_min, htilde_min, qtilde_min, pinched


def random_spectra(rng, n, a):
    """Spectra lam = a + shifted: near-umbilic, spread, umbilic, and Htilde <= 0 rows.

    The umbilic shift 0.5 is exact in a + 0.5 - a for a = 1.5, so at
    c_star = 1/n^n the pinching test meets Ktilde = c_star Htilde^n exactly.
    """
    near = 1.0 + 0.05 * rng.standard_normal((40, n))
    spread = rng.uniform(0.05, 3.0, size=(40, n))
    umbilic = np.full((1, n), 0.5)
    negative = rng.uniform(-2.0, 0.5, size=(10, n))
    zero_trace = np.zeros((1, n))
    zero_trace[0, 0], zero_trace[0, 1] = 0.5, -0.5
    return {
        "near_umbilic": a + np.vstack([near, umbilic]),
        "spread": a + np.vstack([spread, umbilic]),
        "htilde_nonpositive": a + np.vstack([near, negative, umbilic]),
        "zero_trace": a + np.vstack([near, zero_trace]),
        "umbilic": a + np.vstack([umbilic, umbilic]),
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shifted_minima_matches_three_passes_bitwise(rng, n):
    params = FlowParams(n=n, m=2, beta=1.0, ac=AmbientCurvature(kappa=-2.25))
    verdicts = set()
    for name, lam in random_spectra(rng, n, params.a).items():
        for c_star in (None, 0.2, 0.26, 0.5 / n**n, 1.0 / n**n):
            got = shifted_minima(lam, params, c_star)
            want = three_pass_reference(lam, params, c_star)
            # repr is exact for floats and tells NaN, bools and None apart
            assert repr(got) == repr(want), (name, c_star)
            verdicts.add(got[3])
    # every branch of the verdict was exercised
    assert verdicts == {None, True, False}


def test_shifted_minima_values(params_n2m1):
    lam = np.array([[1.5, 2.0], [1.2, 1.1]])
    lam_tilde_min, htilde_min, qtilde_min, pinched = shifted_minima(lam, params_n2m1)
    assert lam_tilde_min == pytest.approx(0.1, rel=1e-12)
    assert htilde_min == pytest.approx(0.3, rel=1e-12)
    # Ktilde = (0.5, 0.02) over Htilde^2 = (2.25, 0.09): both rows give 2/9
    assert qtilde_min == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert pinched is None


def test_shifted_minima_sphere_ratio_is_maximal(params_n3m2):
    _lam_min, _h_min, qtilde_min, _pinched = shifted_minima(np.full((1, 3), 2.0), params_n3m2)
    assert qtilde_min == pytest.approx(1.0 / 27.0, rel=1e-14)


def test_shifted_minima_pinching_verdict(params_n2m1):
    umbilic = np.array([[2.0, 2.0]])
    assert shifted_minima(umbilic, params_n2m1, 0.2)[3] is True
    # ratio 1/4 exactly at umbilic; fails against c_star above it
    assert shifted_minima(umbilic, params_n2m1, 0.26)[3] is False
    # a non-h-convex point (Ktilde < 0) fails regardless
    assert shifted_minima(np.array([[0.5, 3.0]]), params_n2m1, 0.0001)[3] is False
    # a vanishing shifted trace leaves the ratio undefined and fails the test
    _lam_min, htilde_min, qtilde_min, pinched = shifted_minima(
        np.array([[1.5, 0.5]]), params_n2m1, 0.0001
    )
    assert htilde_min == 0.0
    assert math.isnan(qtilde_min)
    assert pinched is False


# ---------------------------------------------------------------------------
# Recorder serialization
# ---------------------------------------------------------------------------


def test_recorder_round_trip_is_bitwise(tmp_path, params_n2m1):
    recorder = DiagnosticsRecorder(params_n2m1, zeta_epsilon=0.02)
    state = sphere_state(make_grid("axisymmetric", 2, 64), 1.0)
    fields = geometry_from_graph(state, params_n2m1)
    for dt in (1e-3, 2e-3, 4e-3):
        recorder.observe(state, fields, dt)
    path = str(tmp_path / "diag.csv")
    recorder.write_csv(path)

    meta, cols = load_diagnostics(path)
    assert meta == {"n": 2, "m": 1, "beta": 1.0, "kappa": -1.0}
    arrays = recorder.arrays()
    assert set(cols) == set(CSV_COLUMNS)
    for name in CSV_COLUMNS:
        assert np.array_equal(cols[name], arrays[name], equal_nan=True), name


def test_headerless_csv_is_rejected(tmp_path):
    # Every CSV a run writes starts with the metadata line; a bare header is no diagnostics file.
    path = tmp_path / "plain.csv"
    header = ",".join(CSV_COLUMNS)
    row = ",".join(repr(float(k)) for k in range(len(CSV_COLUMNS)))
    path.write_text(header + "\n" + row + "\n")
    with pytest.raises(HoroflowError, match="is not a horoflow diagnostics CSV"):
        load_diagnostics(str(path))


def test_load_rejects_malformed_files(tmp_path):
    meta = "# horoflow-diagnostics v1, n=2, m=1, beta=1.0, kappa=-1.0\n"
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text(meta + "time,volume\n0.0,1.0\n")
    with pytest.raises(HoroflowError):
        load_diagnostics(str(bad_header))
    short_rows = tmp_path / "short.csv"
    short_rows.write_text(meta + ",".join(CSV_COLUMNS) + "\n1.0,2.0\n")
    with pytest.raises(HoroflowError):
        load_diagnostics(str(short_rows))


def test_empty_recorder_arrays(params_n2m1):
    recorder = DiagnosticsRecorder(params_n2m1, zeta_epsilon=0.02)
    arrays = recorder.arrays()
    assert all(arrays[name].size == 0 for name in CSV_COLUMNS)


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------


def test_check_monotone_accepts_and_rejects():
    assert check_monotone([0.0, 0.1, 0.1, 0.2]) is True
    assert check_monotone([0.0, 0.2, 0.1, 0.3]) is False
    assert check_monotone([0.0, 0.2, 0.199, 0.3], tol=0.01) is True
    assert check_monotone([0.0, 0.2, 0.18, 0.3], tol=0.01) is False


def test_check_monotone_validation():
    with pytest.raises(DomainError):
        check_monotone([1.0])
    with pytest.raises(DomainError):
        check_monotone([[1.0, 2.0]])


# ---------------------------------------------------------------------------
# Exponential fits
# ---------------------------------------------------------------------------


def test_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 3.0, 100)
    fit = decay_fit({"t": t, "f_max": 3.0 * np.exp(-2.0 * t)})
    assert fit.rate == pytest.approx(2.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_used == 90  # the first 10% skipped as transient


def test_fit_floor_drops_converged_tail():
    t = np.linspace(0.0, 10.0, 200)
    y = np.exp(-3.0 * t)
    y[y < 1e-12] = 1e-16  # rounding residue after convergence
    y[-1] = 0.0
    y[-2] = -1e-16
    y[-3] = math.nan
    fit = decay_fit({"t": t, "f_max": y})
    assert fit.rate == pytest.approx(3.0, abs=1e-6)
    kept = int(np.sum(y > 1e-13))
    assert fit.n_used == kept - int(0.1 * kept)


def test_fit_validation():
    # Fewer than 10 samples left after the floor and the transient skip: no fit.
    t = np.linspace(0.0, 1.0, 10)
    assert decay_fit({"t": t, "f_max": np.exp(-t)}) is None
    t = np.linspace(0.0, 1.0, 50)
    assert decay_fit({"t": t, "f_max": np.full(50, 1e-14)}) is None
    assert decay_fit({"t": t[:12], "f_max": np.exp(-t[:12])}).n_used == 11


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def synthetic_cols(n_samples=200, dip=None, z_nan=False):
    t = np.linspace(0.0, 5.0, n_samples)
    qtilde = 0.25 - 0.1 * np.exp(-2.0 * t)
    if dip is not None:
        qtilde[dip] -= 1e-3
    cols = {
        "t": t,
        "V": np.full(n_samples, 5.0) + 1e-9 * np.sin(t),
        "Fbar": np.full(n_samples, 1.3),
        "Fmin": np.full(n_samples, 1.25),
        "Fmax": np.full(n_samples, 1.4),
        "Qtilde_min": qtilde,
        "f_max": 0.1 * np.exp(-2.0 * t),
        "Htilde_min": np.full(n_samples, 0.6),
        "lambda_tilde_min": np.full(n_samples, 0.3),
        "Phi_min": np.full(n_samples, 1.1),
        "Z_max": np.full(n_samples, 1.2),
        "dt": np.full(n_samples, 1e-3),
    }
    if z_nan:
        cols["Z_max"][7] = math.nan
    return cols


META = {"n": 2, "m": 1, "beta": 1.0, "kappa": -1.0}


def test_analyze_clean_series():
    verdict = analyze_diagnostics(META, synthetic_cols())
    assert verdict["monotone_Qtilde"] is True
    assert verdict["bounds_respected"] is True
    assert verdict["volume_drift"] < 1e-9
    assert verdict["decay_rate"] == pytest.approx(2.0, rel=1e-6)
    assert verdict["r_squared"] > 0.999999


def test_analyze_flags_monotonicity_violation():
    verdict = analyze_diagnostics(META, synthetic_cols(dip=120))
    assert verdict["monotone_Qtilde"] is False


def test_analyze_flags_unbounded_speed_ratio():
    verdict = analyze_diagnostics(META, synthetic_cols(z_nan=True))
    assert verdict["bounds_respected"] is False


def test_analyze_needs_two_records():
    cols = {name: np.array([1.0]) for name in CSV_COLUMNS}
    with pytest.raises(DomainError):
        analyze_diagnostics(META, cols)

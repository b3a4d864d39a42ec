"""Symmetric-function algebra, its derivatives, and the pinching machinery."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from horoflow import (
    AmbientCurvature,
    DomainError,
    FlowParams,
    ParabolicityLostError,
    elementary_symmetric,
    gap_bound,
    mean_curvature_m,
    slice_constant,
    solve_pinching_constants,
    speed,
    speed_gradient,
    speed_hessian_quadform,
)
from horoflow import curvalg
from horoflow.curvalg import (
    ConeSampler,
    _balance_terms,
    _bound_values,
    _bracketed_root,
    _gradient_floor_values,
    _sampled_bounds,
    _speed_derivatives,
    balance_function,
    project_to_cone,
)

TRIPLES = [(2, 1, 1.0), (2, 2, 1.0), (3, 2, 1.0), (3, 3, 1.0 / 3.0), (3, 1, 2.0)]
KERNEL_SPEEDS = TRIPLES + [(2, 2, 1.5), (4, 2, 1.0), (4, 3, 0.5), (5, 2, 1.5), (5, 5, 0.25)]
# A non-quadratic speed: its floor scores the cloud, which a quadratic one skips.
CLOUD_SPEED = (3, 1, 2.0)


def make_params(n, m, beta, kappa=-1.0):
    return FlowParams(n=n, m=m, beta=beta, ac=AmbientCurvature(kappa=kappa))


def cone_samples(rng, n, size, scale_spread=2.0):
    lam = np.abs(rng.standard_normal((size, n))) + 0.05
    scales = np.exp(rng.uniform(-scale_spread, scale_spread, size=size))
    return lam * scales[:, None]


# ---------------------------------------------------------------------------
# Elementary symmetric functions and the speed
# ---------------------------------------------------------------------------


def test_elementary_symmetric_against_bruteforce(rng):
    for n in (2, 3, 4, 5):
        lam = rng.uniform(-2.0, 2.0, size=(40, n))
        for k in range(0, n + 1):
            expected = np.zeros(40)
            for combo in itertools.combinations(range(n), k):
                expected += np.prod(lam[:, combo], axis=1) if combo else 1.0
            got = elementary_symmetric(lam, k)
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_mean_curvature_m_on_umbilic_spectra():
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        for x in (0.3, 1.0, 2.5):
            lam = np.full(n, x)
            assert mean_curvature_m(lam, params) == pytest.approx(x**m, rel=1e-13)


def test_speed_explicit_small_cases(rng):
    lam = np.abs(rng.standard_normal((60, 2))) + 0.1
    p = make_params(2, 1, 1.0)
    assert np.allclose(speed(lam, p), lam.mean(axis=1), rtol=1e-13)
    p = make_params(2, 2, 1.0)
    assert np.allclose(speed(lam, p), lam[:, 0] * lam[:, 1], rtol=1e-13)
    lam3 = np.abs(rng.standard_normal((60, 3))) + 0.1
    p = make_params(3, 2, 1.0)
    e2 = (
        lam3[:, 0] * lam3[:, 1] + lam3[:, 0] * lam3[:, 2] + lam3[:, 1] * lam3[:, 2]
    ) / 3.0
    assert np.allclose(speed(lam3, p), e2, rtol=1e-13)
    p = make_params(3, 1, 2.0)
    assert np.allclose(speed(lam3, p), lam3.mean(axis=1) ** 2, rtol=1e-13)


def test_speed_homogeneous_of_degree_mbeta(rng):
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        lam = np.abs(rng.standard_normal((30, n))) + 0.1
        t = 1.7
        assert np.allclose(
            speed(t * lam, params), t**params.mbeta * speed(lam, params), rtol=1e-12
        )


def test_speed_requires_positive_mean_curvature():
    params = make_params(2, 2, 1.0)
    bad = np.array([[1.0, 1.0], [1.0, -2.0], [0.5, 0.5]])
    with pytest.raises(ParabolicityLostError) as err:
        speed(bad, params)
    assert err.value.node_index == 1


def test_euler_identity(rng):
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        lam = cone_samples(rng, n, 5000)
        f = speed(lam, params)
        euler = np.einsum("ij,ij->i", speed_gradient(lam, params), lam)
        assert np.max(np.abs(euler - params.mbeta * f) / f) < 1e-12


def test_gradient_matches_finite_differences(rng):
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        lam = cone_samples(rng, n, 200, scale_spread=1.0)
        grad = speed_gradient(lam, params)
        for i in range(n):
            h = 1e-6 * (1.0 + np.abs(lam[:, i]))
            hi = lam.copy()
            lo = lam.copy()
            hi[:, i] += h
            lo[:, i] -= h
            fd = (speed(hi, params) - speed(lo, params)) / (2.0 * h)
            scale = np.maximum(np.abs(grad[:, i]), 1e-12)
            assert np.max(np.abs(fd - grad[:, i]) / scale) < 1e-6


def test_gradient_positive_on_the_cone(rng):
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        lam = cone_samples(rng, n, 5000)
        assert np.min(speed_gradient(lam, params)) > 0.0


def hessian_rows(lam, params):
    """The column kernel's Hessian as one (n, n) matrix per row of the (N, n) lam."""
    second = _speed_derivatives(lam.T, params, hessian=True)[1]
    second = np.moveaxis(second, (0, 1), (-2, -1))
    return np.broadcast_to(second, lam.shape + (lam.shape[-1],))


def test_second_partials_symmetric_and_match_gradient_fd(rng):
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        lam = cone_samples(rng, n, 100, scale_spread=1.0)
        second = hessian_rows(lam, params)
        assert np.allclose(second, np.swapaxes(second, -1, -2), rtol=0, atol=1e-12)
        for j in range(n):
            h = 1e-6 * (1.0 + np.abs(lam[:, j]))
            hi = lam.copy()
            lo = lam.copy()
            hi[:, j] += h
            lo[:, j] -= h
            fd = (speed_gradient(hi, params) - speed_gradient(lo, params)) / (2.0 * h)[:, None]
            # atol absorbs the ~1e-10 cancellation noise of the difference
            # quotient against exactly-zero entries (linear speed)
            assert np.allclose(fd, second[:, :, j], rtol=1e-5, atol=1e-7)


def test_hessian_quadform_gauss_curvature_closed_form(rng):
    # for F = lambda1 * lambda2 the second derivative in direction B is
    # exactly twice the determinant of B
    params = make_params(2, 2, 1.0)
    lam = np.abs(rng.standard_normal((50, 2))) + 0.2
    b = rng.standard_normal((50, 2, 2))
    b = 0.5 * (b + np.swapaxes(b, -1, -2))
    got = speed_hessian_quadform(lam, params, b)
    det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] ** 2
    assert np.allclose(got, 2.0 * det, rtol=1e-12, atol=1e-12)


def test_hessian_quadform_linear_speed_vanishes(rng):
    params = make_params(2, 1, 1.0)
    lam = np.abs(rng.standard_normal((20, 2))) + 0.2
    b = rng.standard_normal((20, 2, 2))
    b = 0.5 * (b + np.swapaxes(b, -1, -2))
    assert np.max(np.abs(speed_hessian_quadform(lam, params, b))) < 1e-14


def test_hessian_quadform_matches_eigenvalue_path(rng):
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        for _ in range(25):
            lam = np.sort(rng.uniform(0.4, 3.0, size=n))
            lam += 0.35 * np.arange(n)  # separate the eigenvalues
            b = rng.standard_normal((n, n))
            b = 0.5 * (b + b.T)
            a_mat = np.diag(lam)
            h = 1e-4

            def f_at(t):
                return float(speed(np.linalg.eigvalsh(a_mat + t * b), params))

            fd = (f_at(h) - 2.0 * f_at(0.0) + f_at(-h)) / (h * h)
            got = float(speed_hessian_quadform(lam, params, b))
            assert abs(got - fd) < 1e-5 * max(1.0, abs(got))


def test_shared_tables_match_separate_derivatives(rng):
    for n, m, beta in TRIPLES:
        params = make_params(n, m, beta)
        lam = cone_samples(rng, n, 300)
        grad = _speed_derivatives(lam.T, params, hessian=True)[0]
        assert grad.T.tobytes() == speed_gradient(lam, params).tobytes()
        # the one-pass floor equals the objective its descent polishes
        floor = _bound_values(lam.T, params)[0]
        assert floor.tobytes() == _gradient_floor_values(lam.T, params).tobytes()


def test_hessian_quadform_continuous_at_coalescence(rng):
    params = make_params(3, 2, 1.0)
    b = rng.standard_normal((3, 3))
    b = 0.5 * (b + b.T)
    base = np.array([1.0, 1.0, 1.7])
    exact = float(speed_hessian_quadform(base, params, b))
    for delta in (1e-12, 1e-10, 1e-9):
        lam = np.array([1.0, 1.0 + delta, 1.7])
        val = float(speed_hessian_quadform(lam, params, b))
        assert abs(val - exact) < 1e-6 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# Gap bound and the inverse-spectrum inequality behind it
# ---------------------------------------------------------------------------


def test_gap_bound_continuous_at_knot():
    for n in (3, 4, 5, 7):
        knot = 1.0 / (2.0 * (n - 1))
        low = math.sqrt(n) * (1.0 - knot * n) / knot
        high = math.sqrt(n) * (n - 1) * (1.0 - n * knot) / (1.0 - (n - 1) * knot)
        assert abs(low - high) < 1e-12
        assert abs(float(gap_bound(knot, n)) - low) < 1e-12


def test_gap_bound_montone_and_vanishing():
    for n in (2, 3, 5):
        eps = np.linspace(1e-3, 1.0 / n, 400)
        vals = gap_bound(eps, n)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] == pytest.approx(0.0, abs=1e-12)
        assert vals[0] > 10.0


def test_gap_bound_domain():
    with pytest.raises(DomainError):
        gap_bound(0.0, 3)
    with pytest.raises(DomainError):
        gap_bound(0.4, 3)
    with pytest.raises(DomainError):
        gap_bound(0.1, 1)


def test_inverse_spectrum_gap_inequality(rng):
    # for positive x with x_i >= eps * sum(x), the inverse spectrum satisfies
    # || 1/x_i - n/sum(x) ||_2 <= gap_bound(eps)/sum(x)
    for n, eps in ((2, 0.3), (3, 0.1), (3, 0.3), (4, 0.05)):
        bound = float(gap_bound(eps, n))
        x = project_to_cone(np.abs(rng.standard_normal((4000, n))).T, eps).T
        total = x.sum(axis=1)
        dev = np.linalg.norm(1.0 / x - n / total[:, None], axis=1)
        assert np.max(dev * total) <= bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Cone sampling and the sampled bounds
# ---------------------------------------------------------------------------


def test_cone_sampler_feasible_unit_points():
    sampler = ConeSampler(3, n_samples=2000, seed=5)
    for eps in (0.02, 0.15, 0.3):
        pts = sampler.points(eps)
        total = pts.sum(axis=1)
        assert np.all(pts.min(axis=1) >= eps * total - 1e-12)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_cone_sampler_is_deterministic():
    a = ConeSampler(2, n_samples=500, seed=9).points(0.2)
    b = ConeSampler(2, n_samples=500, seed=9).points(0.2)
    assert np.array_equal(a, b)
    assert a.shape == (500, 2)


def test_cone_sampler_degenerates_to_umbilic_point():
    sampler = ConeSampler(3, n_samples=200, seed=1)
    pts = sampler.points(1.0 / 3.0)
    assert pts.shape[0] == 1
    assert np.allclose(pts[0], 1.0 / math.sqrt(3.0), rtol=1e-14)


def test_cone_sampler_rejects_a_negative_seed(params_n2m2):
    # The solve of a quadratic speed builds no sampler, and checks both anyway.
    with pytest.raises(DomainError, match="seed >= 0"):
        ConeSampler(2, n_samples=100, seed=-1)
    with pytest.raises(DomainError, match="seed >= 0"):
        solve_pinching_constants(params_n2m2, n_samples=100, seed=-1)
    with pytest.raises(DomainError, match=f"at least {curvalg.MIN_SAMPLES} points"):
        ConeSampler(2, n_samples=99, seed=0)
    with pytest.raises(DomainError, match=f"at least {curvalg.MIN_SAMPLES} points"):
        solve_pinching_constants(params_n2m2, n_samples=99, seed=0)


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_bounds_at_the_umbilic_cone(ac, n):
    # At eps = 1/n the cone is the umbilic ray; both bounds are its values there.
    params = FlowParams(n=n, m=2, beta=1.0, ac=ac)
    sampler = ConeSampler(n, n_samples=300, seed=1)
    umbilic = np.full((n, 1), 1.0 / math.sqrt(n))
    floor, ceiling = _sampled_bounds(1.0 / n, params, sampler)
    assert np.isfinite(floor) and np.isfinite(ceiling)
    assert floor == _gradient_floor_values(umbilic, params)[0]
    assert ceiling == _bound_values(umbilic, params)[1][0]


def test_project_to_cone_feasibility(rng):
    x = rng.standard_normal((3000, 4))
    for eps in (0.01, 0.1, 0.2):
        y = project_to_cone(x.T, eps).T
        total = y.sum(axis=1)
        assert np.all(y.min(axis=1) >= eps * total - 1e-12)
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)


def test_linear_speed_has_exact_floor_and_zero_ceiling(params_n2m1):
    sampler = ConeSampler(2, n_samples=2000, seed=0)
    w1, w2 = _sampled_bounds(0.2, params_n2m1, sampler)
    assert w1 == pytest.approx(0.5, abs=1e-12)
    assert w2 == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n, m, beta", KERNEL_SPEEDS)
def test_no_cloud_block_is_scored_with_a_hessian(monkeypatch, n, m, beta):
    # The cloud is scored for the gradient floor only.  A Hessian is built
    # only on few-value curves, whose grid and refine columns are 2-D, and
    # at the umbilic point where the cone is the umbilic ray; a quadratic
    # speed builds none, and builds no sampler and scores no cloud at all.
    params = make_params(n, m, beta)
    quadratic = beta == 1.0 and m <= 2
    curves = curvalg._family_patterns(n)[0].shape[0]
    hessians, cloud_rows, scored_eps, built = [], [], [], []

    class CountedSampler(ConeSampler):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def counted(cols, params, hessian):
        if hessian:
            hessians.append(np.moveaxis(np.asarray(cols), 0, -1))
        elif np.ndim(cols[0]) == 1:
            cloud_rows.append(np.shape(cols[0])[0])
        return _speed_derivatives(cols, params, hessian)

    def recorded(eps, params, sampler):
        scored_eps.append(eps)
        return _sampled_bounds(eps, params, sampler)

    monkeypatch.setattr(curvalg, "_speed_derivatives", counted)
    monkeypatch.setattr(curvalg, "_sampled_bounds", recorded)
    monkeypatch.setattr(curvalg, "ConeSampler", CountedSampler)
    constants = solve_pinching_constants(params, n_samples=2000, seed=1)
    assert len(built) == (0 if quadratic else 1)
    sampler = ConeSampler(n, n_samples=2000, seed=1)
    cloud = 0 if quadratic else sum(sampler.points(eps).shape[0] for eps in scored_eps)
    assert sum(cloud_rows) == cloud
    per_eps = 1 + 2 + curvalg.REFINE_ITERATIONS  # the grid, then the refine
    assert len(hessians) <= (0 if quadratic else per_eps * len(scored_eps))
    for rows in hessians:
        assert rows.ndim == 3 and rows.shape[0] * rows.shape[1] <= curves * curvalg.FAMILY_POINTS
        for row in rows.reshape(-1, n):
            assert np.unique(row).size <= 3
    hessians.clear()
    umbilic = np.full((n, 1), 1.0 / math.sqrt(n))
    got = _sampled_bounds(1.0 / n, params, sampler)
    assert [rows.shape for rows in hessians] == ([] if quadratic else [(1, n)])
    assert got == tuple(float(v[0]) for v in _bound_values(umbilic, params))
    if quadratic:
        # For beta = 1 and m <= 2 the Hessian is (J - I)/C(n, 2), or zero for
        # m = 1, at every spectrum; the ceiling is its spectral radius 2/n (or 0).
        block = (np.ones((n, n)) - np.eye(n)) / math.comb(n, 2) if m == 2 else np.zeros((n, n))
        radius = np.max(np.abs(np.linalg.eigvalsh(block)))
        assert np.all(constants.hess_ceiling_table == (2.0 / n if m == 2 else 0.0))
        assert np.allclose(constants.hess_ceiling_table, radius, rtol=1e-15, atol=0.0)


def use_small_chunks(monkeypatch):
    """Split clouds into 1024-point blocks instead of the default 8192."""
    monkeypatch.setattr(curvalg, "CHUNK_ROWS", 1024)


def sampled_bounds(params):
    sampler = ConeSampler(params.n, n_samples=20000, seed=3)
    return _sampled_bounds(0.1, params, sampler)


def test_sampled_bounds_chunk_invariant(monkeypatch):
    params = make_params(*CLOUD_SPEED)
    default = sampled_bounds(params)
    use_small_chunks(monkeypatch)
    assert sampled_bounds(params) == default


def test_solved_constants_chunk_invariant(monkeypatch):
    params = make_params(*CLOUD_SPEED)
    a = solve_pinching_constants(params, n_samples=20000, seed=2)
    use_small_chunks(monkeypatch)
    b = solve_pinching_constants(params, n_samples=20000, seed=2)
    assert (a.epsilon0, a.c_star, a.degenerate) == (b.epsilon0, b.c_star, b.degenerate)
    for name in ("eps_grid", "gap_table", "grad_floor_table", "hess_ceiling_table"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_constants_solve_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    # For the cloud's speed 20000 samples are three column blocks of at most
    # 8192 points; n3m2 scores none.
    for n, m, beta in ((3, 2, 1.0), CLOUD_SPEED):
        constants = solve_pinching_constants(make_params(n, m, beta), n_samples=20000, seed=2)
        assert 0.0 < constants.c_star < 1.0 / 27.0


# ---------------------------------------------------------------------------
# Column kernels against the row-major kernels they replace
# ---------------------------------------------------------------------------
# The reference_* functions are the constants solve's kernels as they were
# written on (..., n) rows: reductions over the short last axis, (..., n, n)
# quotient blocks, eigvalsh of (..., n, n) Hessians, and a row-major cloud
# that is projected whole and scored for its floor.  The column kernels must
# give the same bytes for n <= 7.


def reference_project_to_cone(x, eps, out=None):
    y = np.maximum(np.atleast_2d(np.asarray(x, dtype=float)), 0.0, out=out)
    n = y.shape[-1]
    total = y.sum(axis=-1)
    lowest = y.min(axis=-1)
    shift = np.maximum(0.0, (eps * total - lowest) / (1.0 - n * eps))
    y += shift[..., None]
    norm = np.linalg.norm(y, axis=-1, keepdims=True)
    bad = norm[..., 0] <= 0.0
    if np.any(bad):
        y[bad] = 1.0
        norm = np.linalg.norm(y, axis=-1, keepdims=True)
    y /= norm
    return y


def reference_on_cone(pts, eps):
    total = pts.sum(axis=1)
    return (pts.min(axis=1) >= eps * total - 1e-12) & (total > 0.0)


def reference_difference_quotients(lam, offdiag):
    """The (..., n, n) quotients Q_ij = Q_ji = -val_ij of the rows of lam."""
    n = lam.shape[-1]
    q = np.zeros(lam.shape + (n,))
    for (i, j), val in zip(itertools.combinations(range(n), 2), offdiag):
        q[..., i, j] = -val
        q[..., j, i] = -val
    return q


def reference_esym_table(lam, upto):
    """E_0..E_upto of the rows of lam, shape (..., upto + 1)."""
    n = lam.shape[-1]
    e = np.zeros(lam.shape[:-1] + (upto + 1,), dtype=float)
    e[..., 0] = 1.0
    for i in range(n):
        li = lam[..., i]
        for k in range(min(i + 1, upto), 0, -1):
            e[..., k] += li * e[..., k - 1]
    return e


def reference_speed_derivatives(lam, params, hessian):
    """The per-row form of _speed_derivatives: an (..., n, n) Hessian for every speed.

    Every leave-out value is the table of the other entries.
    """
    n, m, beta = params.n, params.m, params.beta
    hm = reference_esym_table(lam, m)[..., m] / params.binom
    if np.any(~(hm > 0.0)):
        what = "Hessian" if hessian else "gradient"
        raise ParabolicityLostError(f"H_m <= 0 (min {np.min(hm):.6g}); {what} undefined")
    prefactor = beta * hm ** (beta - 1.0) / params.binom
    dhm = np.empty_like(lam)
    grad = np.empty_like(lam)
    for i in range(n):
        reduced = reference_esym_table(np.delete(lam, i, axis=-1), m - 1)[..., m - 1]
        dhm[..., i] = reduced / params.binom
        grad[..., i] = prefactor * reduced
    if not hessian:
        return grad, None, None

    out = np.zeros(lam.shape + (n,), dtype=float)
    # Rank-one part from the outer power; vanishes identically when beta = 1.
    if beta != 1.0:
        coef = beta * (beta - 1.0) * hm ** (beta - 2.0)
        out += coef[..., None, None] * dhm[..., :, None] * dhm[..., None, :]
    # Mixed second derivatives of H_m itself: remove two distinct roots.
    offdiag = []
    if m >= 2:
        for i in range(n):
            for j in range(i + 1, n):
                twice_reduced = reference_esym_table(np.delete(lam, [i, j], axis=-1), m - 2)
                val = prefactor * twice_reduced[..., m - 2]
                out[..., i, j] += val
                out[..., j, i] += val
                offdiag.append(val)
    return grad, out, offdiag


def column_reference_speed_derivatives(cols, params, hessian):
    """reference_speed_derivatives behind the column kernel's (n, ...) interface."""
    grad, second, offdiag = reference_speed_derivatives(np.moveaxis(cols, 0, -1), params, hessian)
    if second is not None:
        second = np.moveaxis(second, (-2, -1), (0, 1))
    return np.moveaxis(grad, -1, 0), second, offdiag


def sequential_golden_section(score, a, b):
    """_golden_section as a plain loop over the brackets, one point at a time.

    score takes one abscissa per bracket; the other brackets' entries are
    set to the same value and their scores dropped.
    """
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    best = np.empty(a.shape)
    for k in range(a.size):

        def f(x):
            return float(score(np.full(a.size, x))[k])

        lo, hi = float(a[k]), float(b[k])
        c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        fc, fd = f(c), f(d)
        least = min(fc, fd)
        for _ in range(curvalg.REFINE_ITERATIONS):
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - shrink * (hi - lo)
                fc = f(c)
                least = min(least, fc)
            else:
                lo, c, fc = c, d, fd
                d = lo + shrink * (hi - lo)
                fd = f(d)
                least = min(least, fd)
        best[k] = least
    return best


def reference_bound_values(lam, params):
    grad, second, offdiag = reference_speed_derivatives(curvalg._as_batch(lam), params, hessian=True)
    q = reference_difference_quotients(lam, offdiag)
    q_max = np.max(np.abs(q), axis=(-2, -1))
    eig_max = np.max(np.abs(np.linalg.eigvalsh(second)), axis=-1)
    ceiling = np.maximum(eig_max, q_max)
    if params.beta == 1.0 and params.m <= 2:
        # The spectral radius of the constant Hessian (J - I)/C(n, 2) is
        # (n - 1)/C(n, 2) = 2/n exactly, and 0 for m = 1.
        ceiling = np.full(ceiling.shape, 2.0 / params.n if params.m == 2 else 0.0)
    return np.stack([np.min(grad, axis=-1), ceiling], axis=-1)


def reference_coordinate_descent(objective, y0, best, eps, minimize, max_moves):
    """Polish y0 by projected coordinate descent on the cone, its trials the rows of a (T, n) array.

    best is objective's value at y0.  A sweep tries coordinate j ascending,
    +step before -step, and accepts the first trial that beats best by more
    than 1e-15; it repeats at the same step after a move, and halves the
    step, from 0.25 while it stays above 1e-9, after none.  The descent
    stops there, or after max_moves accepted moves.
    """
    y = np.array(y0, dtype=float)
    sign = 1.0 if minimize else -1.0
    n = y.shape[0]
    steps = []
    step = 0.25
    while step > 1e-9:
        steps.append(step)
        step *= 0.5
    steps = np.array(steps)
    width = 2 * n
    level, start, repeat = 0, 0, False
    for _ in range(max_moves):
        head = np.arange(level * width + start, (level + 1) * width)
        tail = np.arange((level if repeat else level + 1) * width, steps.size * width)
        trial_level, move = np.divmod(np.concatenate([head, tail]), width)
        delta = np.where(move % 2 == 0, 1.0, -1.0) * steps[trial_level]
        trials = np.repeat(y[None, :], move.size, axis=0)
        trials[np.arange(move.size), move // 2] += delta
        trials = reference_project_to_cone(trials, eps)
        vals = objective(trials)
        hits = np.flatnonzero(sign * vals < sign * best - 1e-15)
        if hits.size == 0:
            break
        k = hits[0]
        y, best = trials[k], float(vals[k])
        level, start, repeat = int(trial_level[k]), int(move[k]) + 1, True
    return y, best


def row_objectives(bound_values, params):
    """_sampled_bounds' objectives (floor, -ceiling) on n columns, from a row-major bound kernel."""

    def objectives(cols):
        vals = bound_values(np.moveaxis(cols, 0, -1), params)
        return np.stack([vals[..., 0], -vals[..., 1]])

    return objectives


def reference_sampled_bounds(eps, params, sampler):
    """_sampled_bounds on rows: the whole cloud's gradient floor, then the families' bounds.

    The cloud is ConeSampler.points as it was before the column blocks:
    the projected draw, then masked.  A quadratic speed (beta = 1, m <= 2)
    scores no cloud: its floor lies on a cone vertex, which ends a
    two-value curve.  The ceiling is the families' alone, or the umbilic
    point's where the cone is the umbilic ray.
    """
    n = params.n
    if 1.0 - n * eps < 1e-12:
        floor, ceiling = reference_bound_values(np.full((1, n), 1.0 / math.sqrt(n)), params)[0]
        return float(floor), float(ceiling)
    floor = np.inf
    if not (params.beta == 1.0 and params.m <= 2):
        pts = reference_project_to_cone(sampler._base.T, eps)
        keep = reference_on_cone(pts, eps)
        pts = pts if keep.all() else pts[keep]
        floor = np.min(reference_speed_derivatives(pts, params, hessian=False)[0])
    family = curvalg._family_bounds(eps, n, row_objectives(reference_bound_values, params))
    return float(min(floor, family[0])), -float(family[1])


def equal_pair_rows(rng, n):
    """Rows whose entries 0 and 1, or 0 and n - 1, are equal."""
    equal = np.abs(rng.standard_normal((200, n))) + 0.05
    equal[:100, 1] = equal[:100, 0]
    equal[100:, -1] = equal[100:, 0]
    return equal


def near_coalescent_rows(rng, n):
    """Rows whose entries 0 and 1 are 1e-10, 0.5e-8 and 3e-8 apart relative to the row norm."""
    close = np.abs(rng.standard_normal((300, n))) + 0.05
    for k, rel in enumerate((1e-10, 0.5e-8, 3e-8)):
        rows = close[100 * k : 100 * (k + 1)]
        rows[:, 1] = rows[:, 0] * (1.0 + rel * math.sqrt(n))
    return close


def kernel_rows(rng, n):
    """Cone rows, the umbilic row, coalescing and nearly coalescing rows, and their scalings."""
    cone = project_to_cone(np.abs(rng.standard_normal((400, n))).T, 0.4 / n).T
    umbilic = np.full((1, n), 1.0 / math.sqrt(n))
    equal = equal_pair_rows(rng, n)
    close = near_coalescent_rows(rng, n)
    scaled = np.concatenate([cone, equal, close]) * np.exp(rng.uniform(-3.0, 3.0, (900, 1)))
    return np.concatenate([cone, umbilic, equal, close, scaled])


def signed_rows(rng, n):
    """Rows with negative entries, and an all-zero row."""
    rows = rng.standard_normal((400, n))
    rows[:100, 0] = -np.abs(rows[:100, 0])
    rows[-1] = 0.0
    return rows


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
def test_row_reductions_are_numpy_reductions(rng, n):
    y = np.concatenate([kernel_rows(rng, n), signed_rows(rng, n)])
    if n <= 7:
        assert curvalg._row_sum(y.T).tobytes() == y.sum(axis=-1).tobytes()
        assert curvalg._row_norm(y.T).tobytes() == np.linalg.norm(y, axis=-1).tobytes()
    else:
        # numpy sums a last axis of 8 or more pairwise, which may round differently.
        assert np.allclose(curvalg._row_sum(y.T), y.sum(axis=-1), rtol=1e-14, atol=1e-14)
        assert np.allclose(curvalg._row_norm(y.T), np.linalg.norm(y, axis=-1), rtol=1e-14)
    assert curvalg._row_min(y.T).tobytes() == y.min(axis=-1).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cone_kernels_match_the_reductions(rng, n):
    rows = np.concatenate([kernel_rows(rng, n), signed_rows(rng, n)])
    for eps in (0.01, 0.5 / n, 0.99 / n):
        got = project_to_cone(rows.T, eps).T
        assert got.tobytes() == reference_project_to_cone(rows, eps).tobytes()
        for pts in (rows, got):
            assert curvalg._on_cone(pts.T, eps).tobytes() == reference_on_cone(pts, eps).tobytes()
        sampler = ConeSampler(n, n_samples=500, seed=n)
        cloud = reference_project_to_cone(sampler._base.T, eps)
        want = cloud[reference_on_cone(cloud, eps)]
        assert sampler.points(eps).tobytes() == want.tobytes()


def parabolic_kernel_rows(rng, params):
    """kernel_rows plus the signed_rows on which H_m > 0."""
    signed = signed_rows(rng, params.n)
    signed = signed[np.ravel(mean_curvature_m(signed, params) > 0.0)]
    return np.concatenate([kernel_rows(rng, params.n), signed])


@pytest.mark.parametrize("n", range(2, 8))
def test_esym_matches_the_full_table(rng, n):
    # _esym skips the orders that cannot reach E_k; the value is the full
    # table's bit for bit.
    lam = parabolic_kernel_rows(rng, make_params(n, 1, 1.0))
    table = reference_esym_table(lam, n)
    for k in range(n + 1):
        got = np.broadcast_to(curvalg._esym(lam.T, k), lam.shape[:1])
        assert got.tobytes() == table[:, k].tobytes(), k


@pytest.mark.parametrize("n, m, beta", KERNEL_SPEEDS)
def test_speed_derivatives_match_the_per_row_reference(rng, n, m, beta):
    params = make_params(n, m, beta)
    lam = parabolic_kernel_rows(rng, params)
    grad_ref, second_ref, offdiag_ref = reference_speed_derivatives(lam, params, hessian=True)
    grad, second, offdiag = _speed_derivatives(lam.T, params, hessian=True)
    assert grad.T.tobytes() == grad_ref.tobytes()
    assert _speed_derivatives(lam.T, params, hessian=False)[0].T.tobytes() == grad_ref.tobytes()
    quadratic = beta == 1.0 and m <= 2
    assert second.shape == ((n, n) if quadratic else (n, n, lam.shape[0]))
    assert hessian_rows(lam, params).tobytes() == second_ref.tobytes()
    assert len(offdiag) == len(offdiag_ref) == (n * (n - 1) // 2 if m >= 2 else 0)
    for val, val_ref in zip(offdiag, offdiag_ref):
        assert np.broadcast_to(val, lam.shape[:1]).tobytes() == val_ref.tobytes()
    # One spectrum: an (n, n) Hessian, and a 0-d second derivative of F.
    one = lam[0]
    second_one = _speed_derivatives(one, params, hessian=True)[1]
    assert second_one.tobytes() == reference_speed_derivatives(one, params, True)[1].tobytes()
    assert second_one.shape == (n, n)
    b = np.add.outer(np.arange(n), np.arange(n)) / n
    assert np.shape(speed_hessian_quadform(one, params, b)) == ()


@pytest.mark.parametrize("n, m, beta", KERNEL_SPEEDS)
def test_quotient_kernels_match_the_blocks(rng, n, m, beta):
    params = make_params(n, m, beta)
    lam = parabolic_kernel_rows(rng, params)
    grad, _, offdiag = _speed_derivatives(lam.T, params, hessian=True)
    got = curvalg._difference_quotients(offdiag, n, lam.shape[:1])
    want = reference_difference_quotients(lam, reference_speed_derivatives(lam, params, True)[2])
    assert got.tobytes() == want.tobytes()
    floor, ceiling = _bound_values(lam.T, params)
    assert np.stack([floor, ceiling], axis=-1).tobytes() == reference_bound_values(lam, params).tobytes()
    assert _gradient_floor_values(lam.T, params).tobytes() == np.min(grad, axis=0).tobytes()
    # The rows include exactly coalescent pairs.
    assert np.any(np.isin(lam[:, 0], lam[:, 1]))


@pytest.mark.parametrize("n, m, beta", KERNEL_SPEEDS + [(3, 3, 1.0)])
def test_quotients_are_bitwise_symmetric(rng, n, m, beta):
    params = make_params(n, m, beta)
    lam = kernel_rows(rng, n)
    _, second, offdiag = _speed_derivatives(lam.T, params, hessian=True)
    q = curvalg._difference_quotients(offdiag, n, lam.shape[:1])
    assert q.tobytes() == np.swapaxes(q, -1, -2).tobytes()
    # For beta != 1 and m >= 2 the Hessian itself is not: its rank-one part
    # rounds differently in s_01 and s_10 on some rows.
    if beta != 1.0 and m >= 2:
        assert np.any(second[0, 1] != second[1, 0])


def mp_esym(values, k):
    """E_k of values in mpmath, at the working precision."""
    e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
    for x in values:
        for q in range(k, 0, -1):
            e[q] += x * e[q - 1]
    return e[k]


def mp_gradient(row, params):
    """dF/dlambda_i of one spectrum at 50 digits."""
    n, m = params.n, params.m
    with mpmath.workdps(50):
        lam = [mpmath.mpf(float(x)) for x in row]
        beta = mpmath.mpf(params.beta)
        hm = mp_esym(lam, m) / params.binom
        scale = beta * hm ** (beta - 1) / params.binom
        return [scale * mp_esym(lam[:i] + lam[i + 1 :], m - 1) for i in range(n)]


@pytest.mark.parametrize(
    "n, m, beta", [(4, 4, 0.25), (5, 5, 0.25), (6, 6, 1.0 / 6.0), (7, 7, 1.0 / 7.0), (7, 4, 0.5), (5, 3, 0.5)]
)
def test_gradient_at_the_cone_vertices_matches_50_digits(n, m, beta):
    # The vertices (eps, ..., eps, 1 - (n - 1) eps) of the cone's cross-section,
    # with the dominant entry in every place, where the floor of the few-value
    # curves sits.  There E_{m-1}(lambda without i) divided out of E_m, as
    # E_m - lambda_i E_{m-1}(lambda without i), cancels: for n7m7 beta=1/7 at
    # eps = 1/(64 n) it turns a component negative.
    params = make_params(n, m, beta)
    for eps in (1.0 / (64 * n), 1.0 / (16 * n), 1.0 / (4 * n)):
        for big in range(n):
            row = np.full(n, eps)
            row[big] = 1.0 - (n - 1) * eps
            row /= np.linalg.norm(row)
            got = speed_gradient(row, params)
            for i, want in enumerate(mp_gradient(row, params)):
                assert abs(got[i] - want) <= 1e-12 * want, (eps, big, i)


def mp_difference_quotient(row, params, i, j):
    """(F_i - F_j)/(lambda_i - lambda_j) at 50 digits; at lambda_i = lambda_j, its limit.

    The limit is the quotient at lambda_i moved by 1e-30 relative, which
    differs from it by about 1e-30 relative.
    """
    n, m = params.n, params.m
    with mpmath.workdps(50):
        lam = [mpmath.mpf(float(x)) for x in row]
        if lam[i] == lam[j]:
            lam[i] *= 1 + mpmath.mpf("1e-30")

        def dF(k):
            rest = lam[:k] + lam[k + 1 :]
            hm = mp_esym(lam, m) / math.comb(n, m)
            beta = mpmath.mpf(params.beta)
            return beta * hm ** (beta - 1) * mp_esym(rest, m - 1) / math.comb(n, m)

        return (dF(i) - dF(j)) / (lam[i] - lam[j])


@pytest.mark.parametrize("n, m, beta", KERNEL_SPEEDS + [(6, 6, 1.0 / 6.0), (7, 7, 1.0 / 7.0)])
def test_quotients_match_a_50_digit_divided_difference(rng, n, m, beta):
    # Q_ij = -beta H_m^(beta - 1) E_{m-2}(lambda without i, j)/C(n, m) against
    # the divided difference it replaces, on well-separated spectra, spectra
    # with two equal entries and nearly coalescent ones, whose entries lie
    # within a factor of 100 of each other.  E_{m-2}(lambda without i, j)
    # divided out of E_m would lose about (max/min)^(m - 2) ulps here, up to
    # 1e-10 for n7m7.
    params = make_params(n, m, beta)
    separated = np.sort(rng.uniform(1.0, 2.0, (20, n)), axis=1) + 0.5 * np.arange(n)
    close = near_coalescent_rows(rng, n)
    kinds = [separated, equal_pair_rows(rng, n), close[:100], close[100:200], close[200:]]
    for rows in kinds:
        rows = rows[rows.max(axis=1) <= 100.0 * rows.min(axis=1)][:12]
        assert rows.shape[0] >= 5
        offdiag = _speed_derivatives(rows.T, params, hessian=True)[2]
        q = curvalg._difference_quotients(offdiag, n, rows.shape[:1])
        for r, row in enumerate(rows):
            for i, j in itertools.permutations(range(n), 2):
                want = mp_difference_quotient(row, params, i, j)
                assert abs(q[r, i, j] - want) <= 1e-13 * abs(want), (row, i, j)


@pytest.mark.parametrize("n, m, beta", KERNEL_SPEEDS)
def test_sampled_bounds_match_the_row_major_reference(monkeypatch, n, m, beta):
    # 20000 points are two full blocks and a partial one.
    params = make_params(n, m, beta)
    sampler = ConeSampler(n, n_samples=20000, seed=n)
    chunk_sizes = (curvalg.CHUNK_ROWS, 1024)
    for eps in (0.01, 0.5 / n, 0.99 / n, 1.0 / n):
        want = reference_sampled_bounds(eps, params, sampler)
        for chunk_rows in chunk_sizes:
            monkeypatch.setattr(curvalg, "CHUNK_ROWS", chunk_rows)
            got = _sampled_bounds(eps, params, sampler)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (eps, chunk_rows)


# ---------------------------------------------------------------------------
# The few-value curves behind the floor and the ceiling
# ---------------------------------------------------------------------------

FAMILY_SPEEDS = KERNEL_SPEEDS + [(6, 3, 0.5), (6, 6, 1.0 / 6.0), (7, 2, 2.0), (7, 4, 0.5)]


def table_eps(n):
    """The eps points of the solve's tables."""
    return np.linspace(1.0 / (64 * n), (1.0 - 1e-9) / n, curvalg.TABLE_POINTS)


def column_objectives(params):
    """_sampled_bounds' objectives (floor, -ceiling) from the column kernels."""

    def objectives(cols):
        floor, ceiling = _bound_values(cols, params)
        return np.stack([floor, -ceiling])

    return objectives


def family_points(eps, n):
    """The grid spectra of every few-value curve at eps, as (curves, FAMILY_POINTS, n) rows."""
    k0, k1 = curvalg._family_patterns(n)
    cols = curvalg._family_spectra(eps, n, k0, k1, curvalg._family_grid(eps, n, k0, k1))
    return np.moveaxis(cols, 0, -1)


@pytest.mark.parametrize("n", range(2, 8))
def test_family_curves_hold_the_umbilic_and_the_boundary_vertices(n):
    two_value = curvalg._family_patterns(n)[0][:, 0] == 0
    umbilic = np.full(n, 1.0 / math.sqrt(n))
    for eps in table_eps(n)[::4]:
        curves = family_points(eps, n)
        rows = curves.reshape(-1, n)
        assert np.all(rows.min(axis=1) >= eps * rows.sum(axis=1) - 1e-12)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0.0, atol=1e-15)
        # The umbilic is the middle grid point of every two-value curve.
        assert (curves[two_value, curvalg.FAMILY_POINTS // 2] == umbilic).all()
        # One entry on the cone floor with the rest equal, and all but one on it.
        one_low = np.ones(n)
        one_low[0] = eps * (n - 1) / (1.0 - eps)
        all_but_one = np.full(n, eps / (1.0 - (n - 1) * eps))
        all_but_one[0] = 1.0
        ends = np.sort(curves[:, [0, -1]].reshape(-1, n), axis=1)
        for vertex in (one_low, all_but_one):
            vertex = np.sort(vertex) / np.linalg.norm(vertex)
            assert np.min(np.max(np.abs(ends - vertex), axis=1)) < 1e-14


def mp_bound_values(row, params):
    """The floor and ceiling objectives of one spectrum at 40 digits.

    The ceiling is max(max_{i<j} |val_ij|, spectral radius of the Hessian),
    with every E_k of a spectrum less some entries summed over the rest.
    """
    n, m = params.n, params.m
    with mpmath.workdps(40):
        lam = [mpmath.mpf(float(x)) for x in row]
        beta = mpmath.mpf(params.beta)

        hm = mp_esym(lam, m) / params.binom
        dhm = [mp_esym(lam[:i] + lam[i + 1 :], m - 1) / params.binom for i in range(n)]
        hessian = mpmath.matrix(n, n)
        for i, j in itertools.product(range(n), repeat=2):
            hessian[i, j] = beta * (beta - 1) * hm ** (beta - 2) * dhm[i] * dhm[j]
        offdiag = []
        for i, j in itertools.combinations(range(n), 2) if m >= 2 else ():
            rest = [x for k, x in enumerate(lam) if k not in (i, j)]
            val = beta * hm ** (beta - 1) * mp_esym(rest, m - 2) / params.binom
            hessian[i, j] += val
            hessian[j, i] += val
            offdiag.append(abs(val))
        eigenvalues = mpmath.eigsy(hessian, eigvals_only=True)
        floor = min(beta * hm ** (beta - 1) * d for d in dhm)
        return floor, max([abs(e) for e in eigenvalues] + offdiag)


def test_the_ceiling_reaches_the_coalescence_edge():
    # n4m3 beta=1/2 at its fourth table point peaks at the shares
    # (eps, eps, 1/2 - eps, 1/2 - eps): the end of the two-value curve with
    # two entries at 1.  The projected coordinate descent that polished the
    # cloud before the families stopped at 2.5768, short of this 2.5831.
    params = make_params(4, 3, 0.5)
    eps = float(table_eps(4)[3])
    edge = np.array([eps, eps, 0.5 - eps, 0.5 - eps])
    want = mp_bound_values(edge / np.linalg.norm(edge), params)[1]
    ceiling = _sampled_bounds(eps, params, ConeSampler(4, n_samples=2000, seed=1))[1]
    assert abs(ceiling - want) <= 1e-14 * want
    assert ceiling > 2.583


def test_the_ceiling_next_to_a_triple_eigenvalue_matches_40_digits():
    # At eps = (1 - 1e-9)/3 every spectrum of the n3m3 beta=1/3 curves is
    # within 1e-9 of the umbilic, where the Hessian's eigenvalues nearly
    # coalesce.  A closed-form trigonometric 3 x 3 eigensolver jittered by
    # about 1e-8 relative there.
    params = make_params(3, 3, 1.0 / 3.0)
    rows = family_points(float(table_eps(3)[-1]), 3).reshape(-1, 3)
    ceiling = _bound_values(rows.T, params)[1]
    for row, got in zip(rows, ceiling):
        want = mp_bound_values(row, params)[1]
        assert abs(got - want) <= 1e-13 * want, row


@pytest.mark.parametrize("n, m, beta", [(3, 3, 1.0 / 3.0), (5, 5, 0.25)])
def test_the_refine_reaches_a_dense_scan_of_every_curve(n, m, beta):
    # Both speeds' ceilings peak inside a curve, where the 129-point grid
    # alone falls short by up to 3e-5 and 5e-6.
    objectives = column_objectives(make_params(n, m, beta))
    k0, k1 = curvalg._family_patterns(n)
    shortfall = 0.0
    for eps in table_eps(n)[::4]:
        log_t = curvalg._family_grid(eps, n, k0, k1)
        dense = np.linspace(log_t[:, 0], log_t[:, -1], 20001, axis=1)
        scan = objectives(curvalg._family_spectra(eps, n, k0, k1, dense)).min(axis=(1, 2))
        grid = objectives(curvalg._family_spectra(eps, n, k0, k1, log_t)).min(axis=(1, 2))
        family = curvalg._family_bounds(eps, n, objectives)
        assert np.all(family <= scan + 1e-14 * np.abs(scan)), eps
        shortfall = max(shortfall, (grid[1] - family[1]) / abs(family[1]))
    assert shortfall > 1e-7


@pytest.mark.parametrize("n, m, beta", FAMILY_SPEEDS)
def test_no_polished_dense_cloud_is_more_extreme_than_the_families(n, m, beta):
    # The cloud's best points, polished by a capped coordinate descent,
    # never beat the few-value curves.
    params = make_params(n, m, beta)
    sampler = ConeSampler(n, n_samples=20000, seed=n)
    objectives = column_objectives(params)
    for eps in table_eps(n)[::8]:
        pts = sampler.points(eps)
        vals = np.stack(_bound_values(pts.T, params), axis=-1)
        family = curvalg._family_bounds(eps, n, objectives) * np.array([1.0, -1.0])
        for col, minimize in ((0, True), (1, False)):
            k = int(np.argmin(vals[:, col]) if minimize else np.argmax(vals[:, col]))
            cloud = reference_coordinate_descent(
                lambda lam: _bound_values(lam.T, params)[col],
                pts[k], float(vals[k, col]), eps, minimize, 100,
            )[1]
            excess = family[col] - cloud if minimize else cloud - family[col]
            assert excess <= 1e-12 * abs(family[col]), (eps, col, cloud, family[col])


def mp_vertex_floor(eps, n, m):
    """A quadratic speed's floor at the cone vertex (eps, ..., eps, 1 - (n - 1) eps), at 40 digits.

    For m = 2 it is (sum - max)/(C(n, 2) |lambda|) = (2 eps/n)/|lambda| of
    the vertex; for m = 1 every gradient component is 1/n.
    """
    with mpmath.workdps(40):
        if m == 1:
            return mpmath.mpf(1) / n
        e = mpmath.mpf(float(eps))
        return (2 * e / n) / mpmath.sqrt((n - 1) * e**2 + (1 - (n - 1) * e) ** 2)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", range(2, 8))
def test_a_quadratic_floor_is_its_cone_vertex_value(n, m):
    # A quadratic speed's floor is quasiconcave on the cone's cross-section,
    # so it is least at a cone vertex, which ends a two-value curve: the
    # solve, which scores no cloud for it, reads the vertex value, and a
    # dense seeded cloud never goes below it.
    params = make_params(n, m, 1.0)
    constants = solve_pinching_constants(params, n_samples=100_000, seed=0)
    sampler = ConeSampler(n, n_samples=100_000, seed=0)
    for eps, floor in zip(constants.eps_grid, constants.grad_floor_table):
        want = mp_vertex_floor(eps, n, m)
        cloud = min(
            _gradient_floor_values(block, params).min() for block in sampler.blocks(float(eps))
        )
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(float(floor)) - want) <= 1e-15 * want, eps
            assert mpmath.mpf(float(cloud)) >= want * (1 - mpmath.mpf(1e-15)), eps


def test_dropped_points_are_never_scored():
    # A NaN point fails the cone mask; scoring it would raise ParabolicityLostError.
    params = make_params(*CLOUD_SPEED)
    sampler = ConeSampler(3, n_samples=20000, seed=4)
    sampler._base[:, [7, 9000, 19990]] = np.nan
    eps = 0.1
    got = _sampled_bounds(eps, params, sampler)
    assert got == reference_sampled_bounds(eps, params, sampler)
    assert sampler.points(eps).shape == (20000 - 3, 3)


@pytest.mark.parametrize("n, m, beta", [(2, 2, 1.0), (3, 2, 1.0), (3, 3, 1.0 / 3.0), (3, 1, 2.0)])
def test_solve_with_reference_kernels_is_bitwise_equal(monkeypatch, n, m, beta):
    params = make_params(n, m, beta)
    new = solve_pinching_constants(params, n_samples=2000, seed=1)
    monkeypatch.setattr(curvalg, "_sampled_bounds", reference_sampled_bounds)
    old = solve_pinching_constants(params, n_samples=2000, seed=1)
    for field in dataclasses.fields(curvalg.PinchingConstants):
        a, b = getattr(new, field.name), getattr(old, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("n, m, beta", [(2, 2, 1.0), (3, 2, 1.0), (4, 2, 1.0), (2, 1, 1.0), (3, 3, 1.0 / 3.0)])
@pytest.mark.parametrize("reference", ["derivatives", "polish"])
def test_solve_with_the_per_row_reference_is_bitwise_equal(monkeypatch, reference, n, m, beta, seed):
    # "polish" is the golden-section refine of the family extrema, which
    # every bracket takes at once in the solve and one at a time here.
    params = make_params(n, m, beta)
    new = solve_pinching_constants(params, n_samples=2000, seed=seed)
    refined = []
    if reference == "derivatives":
        monkeypatch.setattr(curvalg, "_speed_derivatives", column_reference_speed_derivatives)
    else:

        def sequential(score, a, b):
            refined.append(a.size)
            return sequential_golden_section(score, a, b)

        monkeypatch.setattr(curvalg, "_golden_section", sequential)
    old = solve_pinching_constants(params, n_samples=2000, seed=seed)
    for field in dataclasses.fields(curvalg.PinchingConstants):
        a, b = getattr(new, field.name), getattr(old, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
    # The ceiling of n3m3 beta=1/3 peaks inside its curves at some eps.
    if reference == "polish" and beta != 1.0:
        assert refined


# ---------------------------------------------------------------------------
# Slice constant and the solved pinching constants
# ---------------------------------------------------------------------------


def test_slice_constant_known_values():
    assert slice_constant(0.25, 2) == pytest.approx(3.0 / 16.0, rel=1e-15)
    assert slice_constant(0.5, 2) == pytest.approx(0.25, rel=1e-15)
    assert slice_constant(1.0 / 3.0, 3) == pytest.approx(1.0 / 27.0, rel=1e-14)
    with pytest.raises(DomainError):
        slice_constant(0.6, 2)


def slice_constant_bruteforce(eps, n, n_samples=1_000_000, seed=0):
    """Brute-force the slice maximum by sampling the constrained simplex."""
    if not 0.0 < eps <= 1.0 / n:
        raise DomainError(f"slice constant defined for eps in (0, 1/{n}]")
    rng = np.random.default_rng(seed)
    rest = rng.dirichlet(np.ones(n - 1), size=n_samples)
    # Column by column in index order after the fixed coordinate eps/(1-eps);
    # a product over a short last axis runs in that order too.
    first = np.full(n_samples, eps / (1.0 - eps))
    htilde = functools.reduce(np.add, rest.T, first)
    qtilde = functools.reduce(np.multiply, rest.T, first) / htilde**n
    return float(np.max(qtilde))


def test_slice_constant_matches_bruteforce():
    for n, eps in ((2, 0.1), (2, 0.25), (3, 0.15)):
        brute = slice_constant_bruteforce(eps, n, n_samples=200_000, seed=2)
        assert slice_constant(eps, n) == pytest.approx(brute, rel=1e-3)
        assert slice_constant(eps, n) >= brute - 1e-12


def reference_slice_constant_bruteforce(eps, n, n_samples=1_000_000, seed=0):
    """The brute force before it reduced column by column, kept as the reference."""
    if not 0.0 < eps <= 1.0 / n:
        raise DomainError(f"slice constant defined for eps in (0, 1/{n}]")
    rng = np.random.default_rng(seed)
    rest = rng.dirichlet(np.ones(n - 1), size=n_samples)
    first = np.full((n_samples, 1), eps / (1.0 - eps))
    shifted = np.concatenate([first, rest], axis=1)
    htilde = shifted.sum(axis=1)
    qtilde = shifted.prod(axis=1) / htilde**n
    return float(np.max(qtilde))


@pytest.mark.parametrize("n", range(2, 10))
def test_slice_bruteforce_matches_the_concatenating_reference(n):
    # numpy sums a last axis of 8 or more pairwise, so n = 8, 9 agree to
    # rounding only; below that the column order is numpy's own.
    for eps in (0.01, 0.05, 0.7 / n, 1.0 / n):
        for seed in (1, 2, 8):
            new = slice_constant_bruteforce(eps, n, n_samples=200_000, seed=seed)
            ref = reference_slice_constant_bruteforce(eps, n, n_samples=200_000, seed=seed)
            if n <= 7:
                assert new == ref, (n, eps, seed)
            else:
                assert new == pytest.approx(ref, rel=1e-14, abs=0.0), (n, eps, seed)


def test_degenerate_constants_for_linear_speed(params_n2m1):
    constants = solve_pinching_constants(params_n2m1, n_samples=2000, seed=0)
    assert constants.degenerate
    assert constants.epsilon0 == pytest.approx(0.01)
    assert constants.c_star == pytest.approx(0.01 * 0.99, rel=1e-12)


def test_solved_constants_bracket_the_balance_root(params_n2m2):
    constants = solve_pinching_constants(params_n2m2, n_samples=4000, seed=0)
    assert not constants.degenerate
    assert 0.0 < constants.epsilon0 < 0.5
    assert 0.0 < constants.c_star < 0.25
    balance = (
        (2 - 1) / (2.0 * math.sqrt(2)) * constants.grad_floor_table * constants.eps_grid**2
        - constants.hess_ceiling_table * constants.gap_table
    )
    assert balance[0] < 0.0 < balance[-1]
    sampler = ConeSampler(2, n_samples=4000, seed=0)
    assert balance_function(constants.epsilon0 - 1e-4, params_n2m2, sampler) < 0.0
    assert balance_function(constants.epsilon0 + 1e-4, params_n2m2, sampler) > 0.0


@pytest.mark.parametrize("n, m, beta", KERNEL_SPEEDS + [(4, 4, 0.25), (6, 6, 1.0 / 6.0), (7, 7, 1.0 / 7.0)])
def test_solved_tables_keep_the_benchmark_rules(n, m, beta):
    # The rules benchmark/checks.py applies to n2m2 and n3m2, for every
    # kernel speed; the old descent did not end on n5m5 and n4m4 at beta=1/4.
    # The floor is a least gradient component on the positive cone, so it is
    # positive; E_{m-1}(lambda without i) divided out of E_m makes n7m7's
    # first one negative.
    constants = solve_pinching_constants(make_params(n, m, beta), n_samples=2000, seed=1)
    floor, ceiling = constants.grad_floor_table, constants.hess_ceiling_table
    assert np.all(floor > 0.0)
    assert np.all(np.diff(floor) >= -1e-12 * np.abs(floor[1:]))
    assert np.all(np.diff(ceiling) <= 1e-12 * np.abs(ceiling[:-1]))
    assert constants.c_star == pytest.approx(slice_constant(constants.epsilon0, n), rel=1e-12, abs=0.0)
    assert 0.0 < constants.c_star < 1.0 / n**n


# ---------------------------------------------------------------------------
# The bracketed root of the balance
# ---------------------------------------------------------------------------


def evaluation_bound(lo, hi, tol):
    """The root finder's worst case: one halving per two evaluations, plus one."""
    return 2 * math.ceil(math.log2((hi - lo) / tol)) + 1


ROOT = 1.0 / math.pi
ROOT_CASES = {
    "linear": (lambda x: 3.0 * x - 1.0, 0.0, 1.0, 1.0 / 3.0),
    "steep exponential": (lambda x: math.expm1(40.0 * (x - 0.3)), 0.0, 1.0, 0.3),
    # Regula falsi without the safeguard creeps up from lo in steps of
    # about 1e-6 of the bracket here.
    "step": (lambda x: -1.0 if x < ROOT else 1.0e6, 0.0, 1.0, ROOT),
    "reversed step": (lambda x: -1.0e6 if x < ROOT else 1.0, 0.0, 1.0, ROOT),
    "f(lo) == 0": (lambda x: x - 0.25, 0.25, 1.0, 0.25),
    # Sign flips within 3e-9 of the root.
    "noise": (lambda x: x - ROOT + 3.0e-9 * math.sin(1.0e12 * x), 0.25, 0.5, ROOT),
}


@pytest.mark.parametrize("tol", [1.0e-8, 1.0e-12])
@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_bracketed_root_contract(case, tol):
    f, lo0, hi0, root = ROOT_CASES[case]
    bound = evaluation_bound(lo0, hi0, tol)
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        assert calls <= bound, f"more than {bound} evaluations"
        return f(x)

    lo, hi, evaluations = _bracketed_root(counted, lo0, f(lo0), hi0, f(hi0), tol)
    assert f(lo) <= 0.0 < f(hi)
    assert lo0 <= lo < hi <= hi0 and hi - lo <= tol
    assert evaluations == calls
    assert abs(0.5 * (lo + hi) - root) <= tol + 3.0e-9


def reference_bisection_constants(params, n_samples, seed, tol=1.0e-8):
    """The bisection solve that _bracketed_root replaced, verbatim but for the checks.

    Returns epsilon0, C* and the four tables.
    """
    n = params.n
    sampler = ConeSampler(n, n_samples=n_samples, seed=seed)
    eps_hi = 1.0 / n
    eps_grid = np.linspace(eps_hi / 64.0, eps_hi * (1.0 - 1e-9), 17)
    gap_table = gap_bound(eps_grid, n)
    grad_floor_table, hess_ceiling_table, balance = map(
        np.array, zip(*(_balance_terms(e, params, sampler) for e in eps_grid))
    )
    if balance[0] > 0.0:
        epsilon0 = curvalg.DEGENERATE_EPSILON_FLOOR
    else:
        flips = np.nonzero(balance > 0.0)[0]
        hi_idx = int(flips[0])
        lo = float(eps_grid[hi_idx - 1]) if hi_idx > 0 else float(eps_grid[0]) / 2.0
        hi = float(eps_grid[hi_idx])
        f_lo = balance_function(lo, params, sampler)
        while f_lo > 0.0:
            # Guard: the true sign change sits below the first table point.
            hi, lo = lo, lo / 2.0
            f_lo = balance_function(lo, params, sampler)
            if lo < 1e-12:
                raise AssertionError("failed to bracket the pinching balance root")
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if balance_function(mid, params, sampler) <= 0.0:
                lo = mid
            else:
                hi = mid
        epsilon0 = 0.5 * (lo + hi)
    tables = (eps_grid, gap_table, grad_floor_table, hess_ceiling_table)
    return epsilon0, slice_constant(epsilon0, n), tables


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("n, m, beta", TRIPLES + [(2, 2, 1.5), (4, 2, 1.0)])
def test_solve_matches_the_bisection_reference(monkeypatch, n, m, beta, seed):
    params = make_params(n, m, beta)
    eps_ref, c_ref, tables_ref = reference_bisection_constants(params, 2000, seed)
    calls = []

    def counted(eps, params, sampler):
        calls.append(eps)
        return balance_function(eps, params, sampler)

    monkeypatch.setattr(curvalg, "balance_function", counted)
    constants = solve_pinching_constants(params, n_samples=2000, seed=seed)
    assert abs(constants.epsilon0 - eps_ref) <= curvalg.ROOT_TOL
    assert constants.c_star == pytest.approx(c_ref, rel=1e-7, abs=0.0)
    names = ("eps_grid", "gap_table", "grad_floor_table", "hess_ceiling_table")
    for name, table in zip(names, tables_ref):
        assert getattr(constants, name).tobytes() == table.tobytes()
    assert constants.balance_evaluations == len(calls)
    if (n, m, beta) == (2, 1, 1.0):
        assert constants.degenerate and not calls
    else:
        assert not constants.degenerate and 1 <= len(calls) <= 8


def test_constants_are_seed_deterministic():
    params = make_params(*CLOUD_SPEED)
    a = solve_pinching_constants(params, n_samples=2000, seed=11)
    b = solve_pinching_constants(params, n_samples=2000, seed=11)
    assert a.epsilon0 == b.epsilon0
    assert a.c_star == b.c_star
    assert np.array_equal(a.grad_floor_table, b.grad_floor_table)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2)])
def test_constants_do_not_depend_on_kappa(n, m):
    # The cone lives on the shifted spectrum lambda - a, so kappa only moves a.
    a = solve_pinching_constants(make_params(n, m, 1.0, kappa=-1.0), n_samples=500, seed=0)
    b = solve_pinching_constants(make_params(n, m, 1.0, kappa=-4.0), n_samples=500, seed=0)
    assert (a.epsilon0, a.c_star) == (b.epsilon0, b.c_star)
    for field in ("eps_grid", "gap_table", "grad_floor_table", "hess_ceiling_table"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


def test_constants_solve_for_n_6():
    # A Monte-Carlo slice maximum falls short of the closed form by more than
    # 1e-3 from n = 6 up, so C* is the closed form alone.
    constants = solve_pinching_constants(make_params(6, 1, 1.0), n_samples=200, seed=0)
    assert constants.degenerate
    assert constants.c_star == slice_constant(0.01, 6)


# ---------------------------------------------------------------------------
# Structural properties of the normalized speed (hypothesis)
# ---------------------------------------------------------------------------

spectrum = st.lists(
    st.floats(min_value=0.05, max_value=10.0), min_size=2, max_size=4
).map(np.array)


@given(lam=spectrum, mu=spectrum)
def test_root_speed_concave_on_positive_cone(lam, mu):
    if lam.size != mu.size:
        return
    n = lam.size
    for m in range(1, n + 1):
        params = make_params(n, m, 1.0)
        mid = mean_curvature_m(0.5 * (lam + mu), params) ** (1.0 / m)
        ends = 0.5 * (
            mean_curvature_m(lam, params) ** (1.0 / m)
            + mean_curvature_m(mu, params) ** (1.0 / m)
        )
        assert mid >= ends - 1e-10 * max(1.0, abs(ends))


@given(lam=spectrum)
def test_root_speed_below_mean(lam):
    n = lam.size
    for m in range(1, n + 1):
        params = make_params(n, m, 1.0)
        root = mean_curvature_m(lam, params) ** (1.0 / m)
        mean = float(np.mean(lam))
        assert root <= mean * (1.0 + 1e-12)


@given(lam=spectrum)
def test_gradient_trace_floor(lam):
    n = lam.size
    for m, beta in ((1, 1.0), (min(2, n), 1.0), (n, 1.0 / n)):
        params = make_params(n, m, beta)
        f = float(speed(lam, params))
        grad = speed_gradient(lam, params)
        assert np.array_equal(speed_gradient(lam, params, trace=True), grad.sum(axis=-1))
        trace = float(np.sum(grad))
        floor = params.mbeta * f ** (1.0 - 1.0 / params.mbeta)
        assert trace >= floor - 1e-10 * max(1.0, floor)

"""Symmetric-function algebra of principal curvature spectra.

The flow speed is F = H_m^beta, with H_m the normalized m-th elementary
symmetric polynomial of the principal curvatures.  This module owns that
algebra: evaluation, first and second derivatives in the spectrum, and the
constructive pinching constants (epsilon0, C*) obtained by balancing a
gradient floor against a Hessian ceiling over the pinching cone.  The
shifted invariants of a recorded spectrum, and its pinching test against
C*, live in monitors.shifted_minima.

Every evaluator broadcasts over a leading batch axis, so the same code
serves single spectra, whole grids, and the 1e5-point sampling oracles.

Conventions.  Spectra are length-n vectors in the positive cone; shifted
quantities subtract the ambient constant a = sqrt(-kappa) componentwise.
The pinching cone at parameter eps is

    {lambda : min_i lambda_i >= eps * (lambda_1 + ... + lambda_n) > 0},

a genuine cone, intersected with the unit sphere for sampling.  Shifted
spectra with min lambda_tilde >= eps * sum lambda_tilde automatically land
in it, which is what makes the sampled bounds valid along the flow.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    ParabolicityLostError,
    RootFindingError,
)
from .hypergeom import AmbientCurvature

logger = logging.getLogger(__name__)

# Difference quotients of the gradient switch to their coalescence limit
# below this relative eigenvalue gap.
EIGEN_COALESCE_RTOL = 1.0e-8

# Fallback pinching parameter when the balance function has no sign change
# (linear speed: the Hessian ceiling vanishes identically).
DEGENERATE_EPSILON_FLOOR = 1.0e-2

DEFAULT_SAMPLES = 100_000
# Fewest cone samples a sampler (and constants.n_samples) accepts.
MIN_SAMPLES = 100
# eps points of the tables, and the bracket width epsilon0 is the midpoint of.
TABLE_POINTS = 17
ROOT_TOL = 1.0e-8
# Rows per block of the sample cloud in map_rows: bounds the (CHUNK_ROWS, n, n)
# Hessian temporaries of _bound_values for speeds that are not quadratic.
CHUNK_ROWS = 8192


@dataclass(frozen=True)
class FlowParams:
    """Dimension, curvature order, speed power, and ambient curvature."""

    n: int
    m: int
    beta: float
    ac: AmbientCurvature

    def __post_init__(self):
        ConfigurationError.raise_if(self.problems(self.n, self.m, self.beta))

    @staticmethod
    def problems(n, m=None, beta=None) -> list[str]:
        """The rules on params.n, params.m and params.beta."""
        problems = []
        if n is not None and not (isinstance(n, int) and n >= 2):
            problems.append(f"params.n must be >= 2 and an integer, got {n!r}")
        m_ok = isinstance(m, int) and 1 <= m <= (n if isinstance(n, int) else m)
        if m is not None and not m_ok:
            problems.append(f"params.m must be an integer in [1, params.n = {n}], got {m!r}")
        beta_ok = beta is not None and math.isfinite(beta) and beta > 0.0
        if beta is not None and not beta_ok:
            problems.append(f"params.beta must be positive and finite, got {beta}")
        # The degree m*beta >= 1 makes the flow contract properly.
        if m_ok and beta_ok and m * beta < 1.0 - 1e-15:
            problems.append(f"params.m * params.beta must be >= 1, got {m * beta}")
        return problems

    @property
    def mbeta(self) -> float:
        return self.m * self.beta

    @property
    def a(self) -> float:
        return self.ac.a

    @property
    def binom(self) -> int:
        # Normalization H_m = E_m / C(n, m).
        return math.comb(self.n, self.m)


def _as_batch(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] < 2:
        raise DomainError("a spectrum needs at least two principal curvatures")
    return lam


def _esym_table(lam: np.ndarray) -> np.ndarray:
    """Return all elementary symmetric values E_0..E_n along the last axis.

    One-root-at-a-time recurrence: exact in exact arithmetic, stable in
    floating point for the small n used here.
    """
    n = lam.shape[-1]
    e = np.zeros(lam.shape[:-1] + (n + 1,), dtype=float)
    e[..., 0] = 1.0
    for i in range(n):
        li = lam[..., i]
        for k in range(min(i + 1, n), 0, -1):
            e[..., k] += li * e[..., k - 1]
    return e


def _esym_drop(e: np.ndarray, li: np.ndarray, upto: int) -> np.ndarray:
    """Synthetic division: elementary symmetric values of the set without one root."""
    out = np.zeros(li.shape + (upto + 1,), dtype=float)
    out[..., 0] = 1.0
    for k in range(1, upto + 1):
        out[..., k] = e[..., k] - li * out[..., k - 1]
    return out


def elementary_symmetric(lam, k: int):
    """Return E_k(lambda) summed over all k-subsets of the last axis."""
    lam = _as_batch(lam)
    n = lam.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"elementary symmetric order k={k} outside [0, {n}]")
    return _esym_table(lam)[..., k]


def mean_curvature_m(lam, params: FlowParams):
    """Return H_m = E_m(lambda) / C(n, m)."""
    lam = _as_batch(lam)
    if lam.shape[-1] != params.n:
        raise DomainError(f"spectrum length {lam.shape[-1]} != n = {params.n}")
    return elementary_symmetric(lam, params.m) / params.binom


def speed(lam, params: FlowParams):
    """Return F = H_m^beta; parabolicity demands H_m > 0 everywhere.

    lam is an (..., n) spectrum array or a PairSpectrum (closed form).
    """
    if isinstance(lam, PairSpectrum):
        return _power_speed(lam.esym(params.m) / params.binom, params)
    return _power_speed(mean_curvature_m(lam, params), params)


def _power_speed(hm, params: FlowParams):
    """Return hm^beta, raising at the first node where H_m <= 0 (or is NaN)."""
    if not hm.min() > 0.0:
        idx = int(np.argmax(np.ravel(~(hm > 0.0))))
        raise ParabolicityLostError(
            f"H_m <= 0 (min {np.min(hm):.6g}); speed undefined", node_index=idx
        )
    return hm**params.beta


@dataclass(frozen=True)
class PairSpectrum:
    """Batched spectra {single, repeated, ..., repeated}, repeated n - 1 times.

    A rotationally symmetric hypersurface has this spectrum at every node
    (single along the meridian, repeated in the n - 1 rotation directions);
    for n = 2 the pair is any spectrum, e.g. the two eigenvalues of a 2x2
    Weingarten map.  Its elementary symmetric values have a closed form and
    need neither the recurrence nor an (N, n) array.
    """

    single: np.ndarray
    repeated: np.ndarray
    n: int

    def esym(self, k: int) -> np.ndarray:
        """E_k = C(n-1, k) rep^k + C(n-1, k-1) single rep^(k-1), for 0 <= k <= n."""
        if k == 0:
            return np.ones_like(self.single)
        below = self.n - 1
        e = (
            float(math.comb(below, k)) * self.repeated
            + float(math.comb(below, k - 1)) * self.single
        )
        for _ in range(k - 1):  # k is small: products beat the general power
            e = e * self.repeated
        return e

    def sorted(self) -> np.ndarray:
        """The (N, n) spectrum, ascending in each row."""
        lam = np.empty((self.single.size, self.n))
        # Every entry between the extremes is a repeated one, whichever is smaller.
        lam[:, 1:-1] = self.repeated[:, None]
        np.minimum(self.single, self.repeated, out=lam[:, 0])
        np.maximum(self.single, self.repeated, out=lam[:, -1])
        return lam


def _speed_derivatives(lam: np.ndarray, params: FlowParams, hessian: bool):
    """Return dF/dlambda and, if hessian, d^2F/dlambda^2 from one set of tables.

    The gradient has lam's shape (..., n).  The Hessian is (..., n, n), one
    matrix per spectrum, except for a quadratic speed (beta = 1, m <= 2):
    its Hessian is the constant (J - I)/C(n, 2), or zero for m = 1, and comes
    back as one block of shape (1,) * (lam.ndim - 1) + (n, n) that
    broadcasts against the rows.
    """
    n, m, beta = params.n, params.m, params.beta
    e = _esym_table(lam)
    hm = e[..., m] / params.binom
    if np.any(~(hm > 0.0)):
        what = "Hessian" if hessian else "gradient"
        raise ParabolicityLostError(f"H_m <= 0 (min {np.min(hm):.6g}); {what} undefined")
    reduced = [_esym_drop(e, lam[..., i], m - 1) for i in range(n)]
    prefactor = beta * hm ** (beta - 1.0) / params.binom
    grad = np.empty_like(lam)
    for i in range(n):
        grad[..., i] = prefactor * reduced[i][..., m - 1]
    if not hessian:
        return grad, None

    if beta == 1.0 and m <= 2:
        # hm ** 0.0 == 1.0 makes every row's prefactor 1.0 / C(n, m), and the
        # twice-reduced E_0 is 1.0: the per-row matrices are all this block.
        block = np.full((n, n), 1.0 / params.binom if m == 2 else 0.0)
        np.fill_diagonal(block, 0.0)
        return grad, block.reshape((1,) * (lam.ndim - 1) + (n, n))
    out = np.zeros(lam.shape + (n,), dtype=float)
    # Rank-one part from the outer power; vanishes identically when beta = 1.
    if beta != 1.0:
        dhm = np.empty_like(lam)
        for i in range(n):
            dhm[..., i] = reduced[i][..., m - 1] / params.binom
        coef = beta * (beta - 1.0) * hm ** (beta - 2.0)
        out += coef[..., None, None] * dhm[..., :, None] * dhm[..., None, :]
    # Mixed second derivatives of H_m itself: remove two distinct roots.
    if m >= 2:
        for i in range(n):
            for j in range(i + 1, n):
                twice_reduced = _esym_drop(reduced[i], lam[..., j], m - 2)
                val = prefactor * twice_reduced[..., m - 2]
                out[..., i, j] += val
                out[..., j, i] += val
    return grad, out


def speed_gradient(lam, params: FlowParams, trace: bool = False):
    """Return dF/dlambda_i, shape (..., n); positive on the positive cone.

    With trace=True return sum_i dF/dlambda_i instead.  A PairSpectrum gives
    the trace only, in closed form from the identity
    sum_i dE_m/dlambda_i = (n - m + 1) E_{m-1}.
    """
    if isinstance(lam, PairSpectrum):
        if not trace:
            raise DomainError("a PairSpectrum gives only the trace of the speed gradient")
        m, beta = params.m, params.beta
        total = ((lam.n - m + 1) / params.binom) * lam.esym(m - 1)
        if beta != 1.0:
            total = total * (beta * (lam.esym(m) / params.binom) ** (beta - 1.0))
        return total
    grad = _speed_derivatives(_as_batch(lam), params, hessian=False)[0]
    return grad.sum(axis=-1) if trace else grad


def _pair_quotients(lam, grad, second):
    """Yield (i, j, Q_ij) for every ordered pair i != j.

    Q_ij = (dF_i - dF_j)/(lambda_i - lambda_j), or its coalescence limit
    0.5 (s_ii + s_jj) - s_ij below a relative gap of EIGEN_COALESCE_RTOL.
    |Q_ij| and |Q_ji| can differ: the limits do when the rank-one part of
    the Hessian s rounds differently in s_ij and s_ji.  s may be the one
    block of a quadratic speed; its limit then broadcasts inside np.where.
    """
    threshold = EIGEN_COALESCE_RTOL * np.maximum(_row_norm(lam), 1e-300)
    for i, j in itertools.permutations(range(lam.shape[-1]), 2):
        gap = lam[..., i] - lam[..., j]
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = (grad[..., i] - grad[..., j]) / gap
        limit = 0.5 * (second[..., i, i] + second[..., j, j]) - second[..., i, j]
        yield i, j, np.where(np.abs(gap) < threshold, limit, quotient)


def _difference_quotients(lam, grad, second):
    """Return the matrix Q_ij of _pair_quotients, with a zero diagonal."""
    q = np.zeros(lam.shape + (lam.shape[-1],))
    for i, j, q_ij in _pair_quotients(lam, grad, second):
        q[..., i, j] = q_ij
    return q


def speed_hessian_quadform(lam, params: FlowParams, B):
    """Return the second derivative of F at W = diag(lambda) in direction B.

    B must be symmetric (..., n, n).  The value combines the Hessian in the
    eigenvalues on the diagonal of B with difference quotients of the
    gradient against the off-diagonal entries.
    """
    lam = _as_batch(lam)
    B = np.asarray(B, dtype=float)
    grad, second = _speed_derivatives(lam, params, hessian=True)
    d = np.diagonal(B, axis1=-2, axis2=-1)
    term_diag = np.einsum("...ij,...i,...j->...", second, d, d)
    q = _difference_quotients(lam, grad, second)
    term_off = np.einsum("...ij,...ij->...", q, B * B)
    return term_diag + term_off


# ---------------------------------------------------------------------------
# Pinching constants: gap bound, sampled gradient floor / Hessian ceiling,
# and the balance point epsilon0 with its preserved-ratio constant C*.
# ---------------------------------------------------------------------------


def gap_bound(eps, n: int):
    """Return the inverse-spectrum gap bound as a function of eps in (0, 1/n].

    Piecewise rational with a knot at 1/(2(n-1)); continuous there, strictly
    decreasing, blowing up at 0+ and vanishing at 1/n.
    """
    if n < 2:
        raise DomainError("gap bound needs n >= 2")
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0.0) or np.any(eps > 1.0 / n + 1e-15):
        raise DomainError(f"gap bound defined for eps in (0, 1/{n}]")
    knot = 1.0 / (2.0 * (n - 1))
    sqrt_n = math.sqrt(n)
    low = sqrt_n * (1.0 - eps * n) / eps
    high = sqrt_n * (n - 1) * (1.0 - n * eps) / (1.0 - (n - 1) * eps)
    return np.where(eps <= knot, low, high)


class ConeSampler:
    """Seeded sample cloud on the unit cross-section of the pinching cone.

    The same Gaussian draw is reused for every eps (common random numbers),
    so sampled bounds vary smoothly in eps and a bracketed root of their
    balance is well posed.  Projection shifts a point along the umbilic
    direction just enough to satisfy the constraint, which also densifies
    the cone boundary where the extrema live.
    """

    def __init__(self, n: int, n_samples: int = DEFAULT_SAMPLES, seed: int = 0):
        if n < 2:
            raise DomainError("sampler needs n >= 2")
        if n_samples < MIN_SAMPLES:
            raise DomainError(f"sampler needs at least {MIN_SAMPLES} points")
        if seed < 0:
            raise DomainError(f"sampler needs a seed >= 0, got {seed}")
        self.n = n
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self._base = np.abs(rng.standard_normal((self.n_samples, n)))

    def _deterministic_extras(self, eps: float) -> np.ndarray:
        """Boundary vertices where one or all-but-one coordinates sit on the constraint."""
        n = self.n
        rows = [np.full(n, 1.0 / math.sqrt(n))]
        if eps < 1.0 / n:
            lo_single = eps * (n - 1) / (1.0 - eps)
            for i in range(n):
                v = np.ones(n)
                v[i] = lo_single
                rows.append(v / np.linalg.norm(v))
            if n > 2 and eps < 1.0 / (n - 1):
                hi = eps / (1.0 - (n - 1) * eps)
                for i in range(n):
                    v = np.full(n, hi)
                    v[i] = 1.0
                    rows.append(v / np.linalg.norm(v))
        return np.array(rows)

    def points(self, eps: float) -> np.ndarray:
        """Return unit-norm feasible points for the given eps."""
        n = self.n
        if not 0.0 < eps <= 1.0 / n + 1e-15:
            raise DomainError(f"eps = {eps} outside (0, 1/{n}]")
        if 1.0 - n * eps < 1e-12:
            # The cross-section degenerates to the umbilic point.
            return np.full((1, n), 1.0 / math.sqrt(n))
        # The cloud is projected straight into the head of the result and the
        # extras written to its tail; the gather runs only if a row fails.
        extras = self._deterministic_extras(eps)
        pts = np.empty((self.n_samples + extras.shape[0], n))
        project_to_cone(self._base, eps, out=pts[: self.n_samples])
        pts[self.n_samples :] = extras
        keep = _on_cone(pts, eps)
        return pts if keep.all() else pts[keep]


def _on_cone(pts: np.ndarray, eps: float) -> np.ndarray:
    """Mask of rows with min >= eps * sum, up to a 1e-12 slack, and a positive sum."""
    total = _row_sum(pts)
    return (_row_min(pts) >= eps * total - 1e-12) & (total > 0.0)


def project_to_cone(x: np.ndarray, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """Shift rows along the umbilic direction onto the cone, then normalize.

    out, if given, is a float array of x's (2d) shape that receives the result.
    """
    y = np.maximum(np.atleast_2d(np.asarray(x, dtype=float)), 0.0, out=out)
    n = y.shape[-1]
    shift = np.maximum(0.0, (eps * _row_sum(y) - _row_min(y)) / (1.0 - n * eps))
    # In place: for the sample cloud these are the largest arrays of the solve.
    y += shift[..., None]
    norm = _row_norm(y)
    # A zero row can only come from an all-zero input; replace by umbilic.
    bad = norm <= 0.0
    if np.any(bad):
        y[bad] = 1.0
        norm = _row_norm(y)
    y /= norm[..., None]
    return y


# Row reductions of (..., n) arrays, one column at a time in index order.
# numpy reduces a last axis shorter than 8 in the same order, so for n <= 7
# these are bit for bit .sum(-1), .min(-1) and linalg.norm(axis=-1), at a
# fraction of the cost of a reduction over a short axis on the 1e5-point
# cloud.


def _columns(y: np.ndarray):
    return (y[..., j] for j in range(y.shape[-1]))


def _row_sum(y: np.ndarray) -> np.ndarray:
    return functools.reduce(np.add, _columns(y))


def _row_min(y: np.ndarray) -> np.ndarray:
    return functools.reduce(np.minimum, _columns(y))


def _row_norm(y: np.ndarray) -> np.ndarray:
    return np.sqrt(functools.reduce(np.add, (c * c for c in _columns(y))))


def _coordinate_descent(
    objective, y0: np.ndarray, best: float, eps: float, minimize: bool
) -> tuple[np.ndarray, float]:
    """Polish a sampled extremum by projected coordinate descent on the cone.

    best is objective's value at y0, which the caller already has.  A sweep
    tries coordinate j ascending, +step before -step, projects each trial
    onto the cone and accepts it when it beats the best value by more than
    1e-15.  A sweep that accepted a move repeats at the same step; one
    that did not halves the step, from 0.25 while it stays above 1e-9.

    The trials are scored speculatively: every trial the sweeps would make
    from the current point if none improved is projected with one
    project_to_cone call and scored with one objective call.  The first
    improving trial in sweep order is exactly the move the one-at-a-time
    loop accepts, since the trials before it are the same points scored
    against the same best value.  The later trials are dropped and rebuilt
    from the new point.  The projection and the objectives act row by row,
    so the result is bitwise that of the one-at-a-time loop.
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
    # Trial k of a sweep moves coordinate k // 2, by +step if k is even.
    # Pending trials are numbered level * width + k: the rest of the current
    # sweep, its repeat once it accepted a move, then every smaller step.
    width = 2 * n
    level, start, repeat = 0, 0, False
    while True:
        head = np.arange(level * width + start, (level + 1) * width)
        tail = np.arange((level if repeat else level + 1) * width, steps.size * width)
        trial_level, move = np.divmod(np.concatenate([head, tail]), width)
        delta = np.where(move % 2 == 0, 1.0, -1.0) * steps[trial_level]
        trials = np.repeat(y[None, :], move.size, axis=0)
        trials[np.arange(move.size), move // 2] += delta
        trials = project_to_cone(trials, eps)
        vals = objective(trials)
        hits = np.flatnonzero(sign * vals < sign * best - 1e-15)
        if hits.size == 0:
            return y, best
        k = hits[0]
        y, best = trials[k], float(vals[k])
        level, start, repeat = int(trial_level[k]), int(move[k]) + 1, True


def _polish(objective, pts, vals, eps: float, minimize: bool) -> float:
    """Refine the extremum of vals over pts by coordinate descent from it.

    vals must be objective's values at pts.  The objectives act row by row,
    so the descent starts from vals[k] and scores no point twice.
    """
    k = int(np.argmin(vals)) if minimize else int(np.argmax(vals))
    if 1.0 - pts.shape[1] * eps < 1e-12:
        # The cone is the umbilic ray alone (see ConeSampler.points): there is
        # nothing to descend on, and project_to_cone would divide by 1 - n eps = 0.
        return float(vals[k])
    return _coordinate_descent(objective, pts[k], float(vals[k]), eps, minimize)[1]


def _gradient_floor_values(lam: np.ndarray, params: FlowParams) -> np.ndarray:
    """Return the smallest component of the speed gradient per spectrum."""
    return _row_min(speed_gradient(lam, params))


def _bound_values(lam: np.ndarray, params: FlowParams) -> np.ndarray:
    """Return the floor and ceiling objectives per spectrum, shape (..., 2).

    Column 0 is the smallest gradient component.  Column 1 is the sup over
    unit-Frobenius symmetric B of |quadform(B, B)|.  The quadratic form
    block-diagonalizes: an n x n block of second partials acting on
    diag(B), plus independent 1-D blocks with the difference quotients on
    each off-diagonal entry.  Its operator norm is therefore the max of the
    spectral radius of the small block and the largest absolute quotient;
    no sampling over B is needed.
    """
    grad, second = _speed_derivatives(_as_batch(lam), params, hessian=True)
    # The zero diagonal of the quotient matrix cannot raise the max.
    quotients = (q for _, _, q in _pair_quotients(lam, grad, second))
    columns = itertools.chain(_symmetric_eigenvalues(second), quotients)
    ceiling = functools.reduce(np.maximum, (np.abs(v) for v in columns))
    return np.stack([_row_min(grad), ceiling], axis=-1)


def _quadform_operator_norm(lam: np.ndarray, params: FlowParams) -> np.ndarray:
    """Return the Hessian-ceiling objective per spectrum (see _bound_values)."""
    return _bound_values(lam, params)[..., 1]


def _symmetric_eigenvalues(mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ascending eigenvalue columns of small symmetric matrices, closed form for n = 2, 3."""
    n = mats.shape[-1]
    if n == 2:
        a = mats[..., 0, 0]
        d = mats[..., 1, 1]
        b = mats[..., 0, 1]
        half_tr = 0.5 * (a + d)
        disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b * b, 0.0))
        return half_tr - disc, half_tr + disc
    if n == 3:
        return _sym_eig3(mats)
    return tuple(_columns(np.linalg.eigvalsh(mats)))


def _sym_eig3(mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """Trigonometric closed form for symmetric 3x3 eigenvalues, as three columns."""
    a00 = mats[..., 0, 0]
    a11 = mats[..., 1, 1]
    a22 = mats[..., 2, 2]
    a01 = mats[..., 0, 1]
    a02 = mats[..., 0, 2]
    a12 = mats[..., 1, 2]
    p1 = a01**2 + a02**2 + a12**2
    q = (a00 + a11 + a22) / 3.0
    p2 = (a00 - q) ** 2 + (a11 - q) ** 2 + (a22 - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe_p = np.where(p > 0.0, p, 1.0)
    b00 = (a00 - q) / safe_p
    b11 = (a11 - q) / safe_p
    b22 = (a22 - q) / safe_p
    b01 = a01 / safe_p
    b02 = a02 / safe_p
    b12 = a12 / safe_p
    det_b = (
        b00 * (b11 * b22 - b12 * b12)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    r = np.clip(det_b / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    # An umbilic block (p = 0) has the triple eigenvalue q.
    spread = p > 0.0
    return tuple(np.where(spread, e, q) for e in (e3, e2, e1))


def map_rows(fn, array: np.ndarray, chunk_rows: int = CHUNK_ROWS) -> np.ndarray:
    """Apply fn to blocks of chunk_rows rows and concatenate the results in order.

    fn must act row by row, so the result does not depend on chunk_rows.
    """
    n_rows = array.shape[0]
    if n_rows == 0:
        return fn(array)
    parts = [fn(array[i : i + chunk_rows]) for i in range(0, n_rows, chunk_rows)]
    return np.concatenate(parts, axis=0)


def _sampled_bounds(
    eps: float, params: FlowParams, sampler: ConeSampler
) -> tuple[float, float]:
    """Return the gradient floor and the Hessian ceiling at eps.

    The floor is the sampled minimum of the speed gradient's components on
    the cone: the constructive constant in dF_i(lambda) >= floor *
    |lambda|^{m beta - 1} on pinched spectra, increasing in eps and exactly
    1/n for the linear speed (m = beta = 1).  The ceiling is the sampled
    supremum of the quadform operator norm: decreasing in eps, identically
    zero for the linear speed.  Both come from one projection of the cloud
    and one pass over it, which shares the speed derivatives between the two
    objectives.
    """
    if sampler.n != params.n:
        raise DomainError("sampler dimension does not match params.n")
    pts = sampler.points(eps)
    vals = map_rows(functools.partial(_bound_values, params=params), pts)
    floor = functools.partial(_gradient_floor_values, params=params)
    ceiling = functools.partial(_quadform_operator_norm, params=params)
    return (
        _polish(floor, pts, vals[:, 0], eps, minimize=True),
        _polish(ceiling, pts, vals[:, 1], eps, minimize=False),
    )


def slice_constant(eps: float, n: int) -> float:
    """Return the maximum of the pinching ratio on the boundary slice.

    Maximizing K_tilde/H_tilde^n subject to lambda_tilde_1 = eps * H_tilde
    puts the remaining shifts equal, giving eps*((1-eps)/(n-1))^(n-1).
    Equals 1/n^n at eps = 1/n.
    """
    if not 0.0 < eps <= 1.0 / n:
        raise DomainError(f"slice constant defined for eps in (0, 1/{n}]")
    return float(eps * ((1.0 - eps) / (n - 1)) ** (n - 1))


def slice_constant_bruteforce(eps: float, n: int, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Brute-force the slice maximum by sampling the constrained simplex."""
    if not 0.0 < eps <= 1.0 / n:
        raise DomainError(f"slice constant defined for eps in (0, 1/{n}]")
    rng = np.random.default_rng(seed)
    rest = rng.dirichlet(np.ones(n - 1), size=n_samples)
    # Column by column in index order after the fixed coordinate eps/(1-eps),
    # as _row_sum does; a product over a short last axis runs in that order too.
    first = np.full(n_samples, eps / (1.0 - eps))
    htilde = functools.reduce(np.add, _columns(rest), first)
    qtilde = functools.reduce(np.multiply, _columns(rest), first) / htilde**n
    return float(np.max(qtilde))


@dataclass(frozen=True)
class PinchingConstants:
    """The balance point epsilon0, the preserved ratio C*, and the tables behind them."""

    epsilon0: float
    c_star: float
    eps_grid: np.ndarray
    gap_table: np.ndarray
    grad_floor_table: np.ndarray
    hess_ceiling_table: np.ndarray
    n_samples: int
    seed: int
    # Root-finder calls to balance_function; 0 on the degenerate branch.
    balance_evaluations: int
    degenerate: bool = False

    def account(self) -> dict:
        """The scalars of the solve that the CLI, the run summary and the tables report."""
        return {
            "epsilon0": self.epsilon0,
            "c_star": self.c_star,
            "degenerate": self.degenerate,
            "balance_evaluations": self.balance_evaluations,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def _balance_terms(eps: float, params: FlowParams, sampler: ConeSampler):
    """Return the gradient floor, the Hessian ceiling and their balance at eps."""
    n = params.n
    w1, w2 = _sampled_bounds(eps, params, sampler)
    coef = (n - 1) / (2.0 * math.sqrt(n))
    return w1, w2, coef * w1 * eps**2 - w2 * float(gap_bound(eps, n))


def balance_function(eps: float, params: FlowParams, sampler: ConeSampler) -> float:
    """Return the pinching balance (n-1)/(2 sqrt n) * floor * eps^2 - ceiling * gap."""
    return _balance_terms(eps, params, sampler)[2]


def _bracketed_root(f, lo: float, f_lo: float, hi: float, f_hi: float, tol: float):
    """Close the bracket f(lo) <= 0 < f(hi) to width <= tol; return (lo, hi, evaluations).

    Anderson-Bjorck false position.  When an evaluation moves the same end
    as the one before it (or is the first), the value at the other end is
    scaled by 1 - f(new)/f(old), or by 1/2 when that is not positive, where
    f(old) is the value the new point replaces; so one-sided convergence
    does not stall.  A trial point closer than tol/2 to an end is pushed to
    tol/2 from it, so a point next to the root closes the bracket next.

    Safeguard: the step is a bisection after two evaluations in a row that
    each failed to halve the bracket, and whenever one more failed step
    would leave too few evaluations for bisection to finish within
    2 * ceil(log2((hi - lo) / tol)) + 1, which bounds the evaluations.
    The sign rule is bisection's: a value <= 0 moves lo.
    """
    budget = 2 * math.ceil(math.log2((hi - lo) / tol)) + 1
    g_lo, g_hi = f_lo, f_hi  # the interpolation values, scaled
    moved = None  # the end the previous evaluation moved
    evaluations = fails = 0
    while hi - lo > tol:
        width = hi - lo
        x = lo - g_lo * width / (g_hi - g_lo)
        bisect = (
            fails >= 2
            or evaluations + 1 + math.ceil(math.log2(width / tol)) > budget
            or not lo <= x <= hi  # nan
        )
        if bisect:
            x = 0.5 * (lo + hi)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        fx = f(x)
        evaluations += 1
        if fx <= 0.0:
            if moved != "hi":
                g_hi *= _anderson_bjorck_scale(fx, f_lo)
            lo, f_lo, g_lo, moved = x, fx, fx, "lo"
        else:
            if moved != "lo":
                g_lo *= _anderson_bjorck_scale(fx, f_hi)
            hi, f_hi, g_hi, moved = x, fx, fx, "hi"
        fails = 0 if bisect or hi - lo <= 0.5 * width else fails + 1
    return lo, hi, evaluations


def _anderson_bjorck_scale(f_new: float, f_old: float) -> float:
    """Factor for the kept end's value when f_new replaces f_old on the other end."""
    scale = 1.0 - f_new / f_old if f_old != 0.0 else 0.0
    return scale if scale > 0.0 else 0.5


def solve_pinching_constants(
    params: FlowParams,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> PinchingConstants:
    """Solve for the unique balance point epsilon0 and derive C*.

    The balance function is negative near 0+ (the gap bound blows up) and
    positive near 1/n (the gap bound vanishes) whenever the Hessian ceiling
    is nonzero.  `_bracketed_root`, seeded with the two table points around
    the first sign change, closes that bracket to width ROOT_TOL; epsilon0 is
    its midpoint.  If the ceiling vanishes identically (linear speed), the
    balance is positive throughout and epsilon0 falls back to
    DEGENERATE_EPSILON_FLOOR.
    """
    n = params.n
    sampler = ConeSampler(n, n_samples=n_samples, seed=seed)
    eps_hi = 1.0 / n
    eps_grid = np.linspace(eps_hi / 64.0, eps_hi * (1.0 - 1e-9), TABLE_POINTS)
    gap_table = gap_bound(eps_grid, n)
    grad_floor_table, hess_ceiling_table, balance = map(
        np.array, zip(*(_balance_terms(e, params, sampler) for e in eps_grid))
    )

    degenerate = False
    balance_evaluations = 0
    if balance[0] > 0.0:
        if np.any(balance <= 0.0):
            raise RootFindingError("pinching balance is not increasing across the table")
        logger.info(
            "pinching balance positive on all of (0, 1/n); using floor epsilon0 = %g",
            DEGENERATE_EPSILON_FLOOR,
        )
        epsilon0 = DEGENERATE_EPSILON_FLOOR
        degenerate = True
    else:
        flips = np.nonzero(balance > 0.0)[0]
        if flips.size == 0:
            raise RootFindingError("pinching balance never becomes positive below 1/n")
        # balance[0] <= 0 here, so hi_idx >= 1 and the table already holds
        # a value <= 0 just below the first sign change.
        hi_idx = int(flips[0])
        lo, hi, balance_evaluations = _bracketed_root(
            lambda eps: balance_function(eps, params, sampler),
            float(eps_grid[hi_idx - 1]),
            float(balance[hi_idx - 1]),
            float(eps_grid[hi_idx]),
            float(balance[hi_idx]),
            ROOT_TOL,
        )
        epsilon0 = 0.5 * (lo + hi)

    c_star = slice_constant(epsilon0, n)
    if not 0.0 < c_star < 1.0 / n**n:
        raise RootFindingError(f"C* = {c_star:.8g} outside (0, 1/n^n)")
    logger.info(
        "pinching constants: epsilon0 = %.8g, C* = %.8g (degenerate=%s)",
        epsilon0,
        c_star,
        degenerate,
    )
    return PinchingConstants(
        epsilon0=float(epsilon0),
        c_star=float(c_star),
        eps_grid=eps_grid,
        gap_table=gap_table,
        grad_floor_table=grad_floor_table,
        hess_ceiling_table=hess_ceiling_table,
        n_samples=int(n_samples),
        seed=int(seed),
        degenerate=degenerate,
        balance_evaluations=balance_evaluations,
    )

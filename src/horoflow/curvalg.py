"""Symmetric-function algebra of principal curvature spectra.

The flow speed is F = H_m^beta, with H_m the normalized m-th elementary
symmetric polynomial of the principal curvatures.  This module owns that
algebra: evaluation, first and second derivatives in the spectrum, and the
constructive pinching constants (epsilon0, C*) obtained by balancing a
gradient floor against a Hessian ceiling over the pinching cone.  The
shifted invariants of a recorded spectrum, and its pinching test against
C*, live in monitors.shifted_minima.

The kernels work on spectra held as n columns, an (n, ...) array whose
entry i is lambda_i of every spectrum; the public evaluators take (..., n)
arrays and hand the kernels the column views lam[..., i].  So the same code
serves single spectra, whole grids, the seeded sample cloud, which is
stored column-major and scored one contiguous block at a time, and the
few-value spectra on which the floor and the ceiling take their extrema.

Conventions.  Spectra are length-n vectors in the positive cone; shifted
quantities subtract the ambient constant a = sqrt(-kappa) componentwise.
The pinching cone at parameter eps is

    {lambda : min_i lambda_i >= eps * (lambda_1 + ... + lambda_n) > 0},

a genuine cone, intersected with the unit sphere where the bounds are
scored.  Shifted spectra with min lambda_tilde >= eps * sum lambda_tilde
automatically land in it, which is what makes the bounds valid along the
flow.  The bounds are extrema over the cloud and over curves of spectra
with at most three distinct values (see _family_bounds).
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

# Fallback pinching parameter when the balance function has no sign change
# (linear speed: the Hessian ceiling vanishes identically).
DEGENERATE_EPSILON_FLOOR = 1.0e-2

DEFAULT_SAMPLES = 100_000
# Fewest cone samples a sampler (and constants.n_samples) accepts.
MIN_SAMPLES = 100
# eps points of the tables, and the bracket width epsilon0 is the midpoint of.
TABLE_POINTS = 17
ROOT_TOL = 1.0e-8
# Points per column block of the sample cloud (ConeSampler.blocks): each
# (CHUNK_ROWS,) column temporary is 64 KB, so a block is projected, masked
# and scored while it is in cache, and the (n, n, CHUNK_ROWS) Hessians of a
# speed that is not quadratic stay bounded.
CHUNK_ROWS = 8192
# Log-spaced points per few-value curve, ends included, and golden-section
# steps that refine an extremum inside a curve (_family_bounds): 32 leave
# 2e-7 of the bracket, and a smooth extremum's value exact to rounding.
FAMILY_POINTS = 129
REFINE_ITERATIONS = 32


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


def _columns(lam: np.ndarray) -> np.ndarray:
    """The columns lam[..., i] of an (..., n) spectrum array, as an (n, ...) view."""
    return np.moveaxis(lam, -1, 0)


def _esym_table(cols, upto: int) -> list:
    """Return the elementary symmetric values E_0..E_upto of the columns cols, as a list.

    One column li at a time, E_k <- E_k + li * E_{k-1} from the top order
    down, with E_0 = 1.0 and no order above upto, so a shorter table is the
    head of a longer one bit for bit.  Each E_k is a sum of products of the
    columns, so on the positive cone nothing cancels, however much one
    entry dominates: every value, and every leave-out value taken as the
    table of the other columns, is exact to a few ulps.  No columns give
    [1.0].
    """
    e = [1.0]
    for li in cols:
        top = len(e) - 1
        if top < upto:
            e.append(li * e[top] if top else li)
        for k in range(top, 0, -1):
            e[k] = e[k] + (li * e[k - 1] if k > 1 else li)
    return e


def elementary_symmetric(lam, k: int):
    """Return E_k(lambda) summed over all k-subsets of the last axis."""
    lam = _as_batch(lam)
    n = lam.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"elementary symmetric order k={k} outside [0, {n}]")
    return np.ones(lam.shape[:-1]) if k == 0 else np.asarray(_esym_table(_columns(lam), k)[k])


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


def _constant_hessian(params: FlowParams):
    """Return (block, offdiag) of a quadratic speed (beta = 1, m <= 2), else None.

    Its Hessian is the (n, n) block (J - I)/C(n, 2), or zero for m = 1, at
    every spectrum; offdiag is its val_ij (see _speed_derivatives).
    """
    n, m = params.n, params.m
    if params.beta != 1.0 or m > 2:
        return None
    # The prefactor is 1.0 / C(n, m) and the twice-reduced E_0 is 1.0.
    value = 1.0 / params.binom if m == 2 else 0.0
    block = np.full((n, n), value)
    np.fill_diagonal(block, 0.0)
    return block, [value] * (n * (n - 1) // 2) if m == 2 else []


def _speed_derivatives(cols, params: FlowParams, hessian: bool):
    """Return dF/dlambda and, if hessian, d^2F/dlambda^2 and val_ij of n columns.

    The gradient is (n, ...): row i is dF/dlambda_i.  The Hessian is (n, n, ...),
    one matrix per spectrum, or a quadratic speed's one (n, n) block
    (_constant_hessian), which broadcasts against the columns.  offdiag holds
    the H_m part of s_ij, val_ij = beta H_m^(beta - 1) E_{m-2}(lambda without
    i, j)/C(n, m), for i < j in combinations order (none for m = 1, where
    every val_ij is 0).  Without hessian the last two are None.
    """
    n, m, beta = params.n, params.m, params.beta
    hm = _esym_table(cols, m)[m] / params.binom
    if np.any(~(hm > 0.0)):
        what = "Hessian" if hessian else "gradient"
        raise ParabolicityLostError(f"H_m <= 0 (min {np.min(hm):.6g}); {what} undefined")
    columns = list(cols)
    # dE_m/dlambda_i = E_{m-1} of the other n - 1 columns.
    reduced = np.empty((n,) + np.shape(hm))
    for i in range(n):
        reduced[i] = _esym_table(columns[:i] + columns[i + 1 :], m - 1)[m - 1]
    # beta * hm ** 0.0 == 1.0 for every spectrum, so beta = 1 skips the power.
    prefactor = (beta if beta == 1.0 else beta * hm ** (beta - 1.0)) / params.binom
    grad = prefactor * reduced
    if not hessian:
        return grad, None, None

    constant = _constant_hessian(params)
    if constant is not None:
        return (grad, *constant)
    out = np.zeros((n, n) + np.shape(hm), dtype=float)
    # Rank-one part from the outer power; vanishes identically when beta = 1.
    if beta != 1.0:
        dhm = reduced / params.binom
        coef = beta * (beta - 1.0) * hm ** (beta - 2.0)
        out += (coef * dhm)[:, None] * dhm[None, :]
    # Mixed second derivatives of H_m itself: E_{m-2} of the other n - 2 columns.
    offdiag = []
    if m >= 2:
        for i, j in itertools.combinations(range(n), 2):
            rest = columns[:i] + columns[i + 1 : j] + columns[j + 1 :]
            val = prefactor * _esym_table(rest, m - 2)[m - 2]
            out[i, j] += val
            out[j, i] += val
            offdiag.append(val)
    return grad, out, offdiag


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
    grad = _speed_derivatives(_columns(_as_batch(lam)), params, hessian=False)[0]
    grad = np.ascontiguousarray(np.moveaxis(grad, 0, -1))
    return grad.sum(axis=-1) if trace else grad


def _difference_quotients(offdiag, n: int, shape) -> np.ndarray:
    """Return the (*shape, n, n) matrix of Q_ij = (dF_i - dF_j)/(lambda_i - lambda_j).

    dE_m/dlambda_i - dE_m/dlambda_j = (lambda_j - lambda_i) E_{m-2}(lambda
    without i, j), so Q_ij = -val_ij exactly, and its coalescence limit is
    the same value: Q needs no division, is symmetric by construction and
    has a zero diagonal.  offdiag is _speed_derivatives' val_ij.
    """
    q = np.zeros(tuple(shape) + (n, n))
    for (i, j), val in zip(itertools.combinations(range(n), 2), offdiag):
        q[..., i, j] = q[..., j, i] = -val
    return q


def speed_hessian_quadform(lam, params: FlowParams, B):
    """Return the second derivative of F at W = diag(lambda) in direction B.

    B must be symmetric (..., n, n).  The value combines the Hessian in the
    eigenvalues on the diagonal of B with the difference quotients Q_ij of
    the gradient against the off-diagonal entries, Q_ij taken from its
    closed form -val_ij (see _difference_quotients).
    """
    cols = _columns(_as_batch(lam))
    B = np.asarray(B, dtype=float)
    _, second, offdiag = _speed_derivatives(cols, params, hessian=True)
    q = _difference_quotients(offdiag, params.n, np.shape(cols[0]))
    second = np.ascontiguousarray(np.moveaxis(second, (0, 1), (-2, -1)))
    d = np.diagonal(B, axis1=-2, axis2=-1)
    term_diag = np.einsum("...ij,...i,...j->...", second, d, d)
    term_off = np.einsum("...ij,...ij->...", q, B * B)
    return term_diag + term_off


# ---------------------------------------------------------------------------
# Pinching constants: gap bound, gradient floor / Hessian ceiling over the
# cloud and the few-value curves, and the balance point epsilon0 with its
# preserved-ratio constant C*.
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
    the cone boundary where the extrema live.  The draw is stored once,
    column-major as an (n, n_samples) array.
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
        self._base = np.abs(rng.standard_normal((self.n_samples, n))).T.copy()

    def blocks(self, eps: float):
        """Yield the feasible points for eps as (n, k) column blocks, in index order.

        Each block of CHUNK_ROWS cloud points is projected into one buffer
        and masked there.  A block is overwritten by the next one.
        """
        n = self.n
        if not 0.0 < eps <= 1.0 / n + 1e-15:
            raise DomainError(f"eps = {eps} outside (0, 1/{n}]")
        if 1.0 - n * eps < 1e-12:
            # The cross-section degenerates to the umbilic point.
            yield np.full((n, 1), 1.0 / math.sqrt(n))
            return
        buffer = np.empty((n, min(self.n_samples, CHUNK_ROWS)))
        for start in range(0, self.n_samples, CHUNK_ROWS):
            chunk = self._base[:, start : start + CHUNK_ROWS]
            block = project_to_cone(chunk, eps, out=buffer[:, : chunk.shape[1]])
            keep = _on_cone(block, eps)
            yield block if keep.all() else block[:, keep]

    def points(self, eps: float) -> np.ndarray:
        """Return unit-norm feasible points for the given eps, one per row."""
        return np.concatenate([block.copy() for block in self.blocks(eps)], axis=1).T


def _on_cone(cols, eps: float) -> np.ndarray:
    """Mask of points with min >= eps * sum, up to a 1e-12 slack, and a positive sum."""
    total = _row_sum(cols)
    return (_row_min(cols) >= eps * total - 1e-12) & (total > 0.0)


def project_to_cone(cols, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """Shift points along the umbilic direction onto the cone, then normalize.

    cols holds the points as n columns, an (n, ...) array; out, if given, is
    a float array of that shape that receives the result.
    """
    y = np.maximum(cols, 0.0, out=out)
    n = len(y)
    shift = np.maximum(0.0, (eps * _row_sum(y) - _row_min(y)) / (1.0 - n * eps))
    y += shift
    norm = _row_norm(y)
    # A zero point can only come from an all-zero input; replace by umbilic.
    bad = norm <= 0.0
    if np.any(bad):
        np.copyto(y, 1.0, where=bad)
        norm = _row_norm(y)
    y /= norm
    return y


# Reductions over the n columns of a spectrum array, one column at a time in
# index order.  numpy reduces a last axis shorter than 8 in the same order,
# so for n <= 7 these are bit for bit .sum(-1), .min(-1) and
# linalg.norm(axis=-1) of the (..., n) rows.


def _row_sum(cols) -> np.ndarray:
    return functools.reduce(np.add, cols)


def _row_min(cols) -> np.ndarray:
    return functools.reduce(np.minimum, cols)


def _row_norm(cols) -> np.ndarray:
    return np.sqrt(functools.reduce(np.add, (c * c for c in cols)))


def _gradient_floor_values(cols, params: FlowParams) -> np.ndarray:
    """Return the smallest component of the speed gradient per spectrum."""
    return _row_min(_speed_derivatives(cols, params, hessian=False)[0])


def _bound_values(cols, params: FlowParams) -> tuple[np.ndarray, np.ndarray]:
    """Return the floor and ceiling objectives per spectrum of n columns.

    The floor is the smallest gradient component.  The ceiling is the sup
    over unit-Frobenius symmetric B of |quadform(B, B)|.  The quadratic form
    block-diagonalizes: an n x n block of second partials acting on
    diag(B), plus independent 1-D blocks with the difference quotients
    Q_ij = -val_ij on each off-diagonal entry.  Its operator norm is
    therefore max(max_{i<j} |val_ij|, spectral radius of the small block);
    no sampling over B is needed.
    """
    grad, second, offdiag = _speed_derivatives(cols, params, hessian=True)
    floor = _row_min(grad)
    # A quadratic speed's one block gives one ceiling; spread it over the spectra.
    return floor, np.broadcast_to(_hessian_ceiling(second, offdiag), floor.shape)


def _hessian_ceiling(second, offdiag):
    """Return max(max_{i<j} |val_ij|, spectral radius of second) per spectrum."""
    ceiling = functools.reduce(np.maximum, [np.abs(v) for v in _symmetric_eigenvalues(second)])
    return functools.reduce(np.maximum, [np.abs(v) for v in offdiag], ceiling)


def _symmetric_eigenvalues(mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ascending eigenvalue columns of (n, n, ...) symmetric matrices, closed form for n = 2, 3."""
    n = len(mats)
    if n == 2:
        a = mats[0, 0]
        d = mats[1, 1]
        b = mats[0, 1]
        half_tr = 0.5 * (a + d)
        disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b * b, 0.0))
        return half_tr - disc, half_tr + disc
    if n == 3:
        return _sym_eig3(mats)
    return tuple(_columns(np.linalg.eigvalsh(np.moveaxis(mats, (0, 1), (-2, -1)))))


def _sym_eig3(mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """Trigonometric closed form for symmetric 3x3 eigenvalues, as three columns."""
    a00 = mats[0, 0]
    a11 = mats[1, 1]
    a22 = mats[2, 2]
    a01 = mats[0, 1]
    a02 = mats[0, 2]
    a12 = mats[1, 2]
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


@functools.lru_cache(maxsize=None)
def _family_patterns(n: int) -> tuple[np.ndarray, ...]:
    """Return the (k0, k1) of every few-value curve, as two (curves, 1) columns.

    A curve holds k0 entries on the cone floor p = eps * sum, k1 at 1 and
    the other k2 = n - k0 - k1 at t; k0 = 0 gives the two-value curves.
    Swapping k1 and k2 traces the same unit spectra, so k1 <= k2.
    """
    pairs = [(k0, k1) for k0 in range(n - 1) for k1 in range(1, n - k0) if 2 * k1 <= n - k0]
    return tuple(np.array(pairs).T[:, :, None])


def _family_grid(eps: float, n: int, k0, k1) -> np.ndarray:
    """Return log t on FAMILY_POINTS points of each curve, even on either side of its middle.

    The ends are where the k2, and where the k1, entries reach the floor p;
    the middle is the umbilic t = 1 on a two-value curve, else the
    geometric mean of the ends.
    """
    k2 = n - k0 - k1
    lo = np.log(eps * k1 / (1.0 - eps * (k0 + k2)))
    hi = np.log((1.0 - eps * (k0 + k1)) / (eps * k2))
    mid = np.where(k0 == 0, 0.0, 0.5 * (lo + hi))
    steps = np.linspace(-1.0, 1.0, FAMILY_POINTS)  # from the middle (0) to the ends (-1, 1)
    return mid + steps * np.where(steps < 0.0, mid - lo, hi - mid)


def _family_spectra(eps: float, n: int, k0, k1, log_t) -> np.ndarray:
    """Unit-norm columns (n, ...) of the spectra with k0 entries at p, k1 at 1 and the rest at t."""
    t = np.exp(log_t)
    p = eps * (k1 + (n - k0 - k1) * t) / (1.0 - eps * k0)
    index = np.arange(n).reshape((n,) + (1,) * t.ndim)
    cols = np.where(index < k0, p, np.where(index < k0 + k1, 1.0, t))
    return cols / _row_norm(cols)


def _golden_section(score, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return the least value of score seen in REFINE_ITERATIONS steps on each [a, b].

    score maps one abscissa per bracket to their values, so every bracket
    takes its step in the same call.
    """
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = score(c), score(d)
    best = np.minimum(fc, fd)
    for _ in range(REFINE_ITERATIONS):
        left = fc < fd  # a minimum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - shrink * (b - a), a + shrink * (b - a))
        fx = score(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        best = np.minimum(best, fx)
    return best


def _family_bounds(eps: float, n: int, objectives) -> np.ndarray:
    """Return the least value of each objective over the few-value curves at eps.

    objectives maps n columns to an (R, ...) array of values to minimize.
    A curve's least grid value is refined by golden section in log t
    between its grid neighbours when it lies inside the curve; at an end,
    a boundary vertex of the cone, it is kept.
    """
    k0, k1 = _family_patterns(n)
    log_t = _family_grid(eps, n, k0, k1)
    values = objectives(_family_spectra(eps, n, k0, k1, log_t))
    best = values.min(axis=(1, 2))
    j = values.argmin(axis=2)
    row, curve = np.nonzero((j > 0) & (j < FAMILY_POINTS - 1))
    if row.size:
        j, columns = j[row, curve], np.arange(row.size)

        def score(u):
            return objectives(_family_spectra(eps, n, k0[curve], k1[curve], u[:, None]))[row, columns, 0]

        np.minimum.at(best, row, _golden_section(score, log_t[curve, j - 1], log_t[curve, j + 1]))
    return best


def _sampled_bounds(
    eps: float, params: FlowParams, sampler: ConeSampler
) -> tuple[float, float]:
    """Return the gradient floor and the Hessian ceiling at eps.

    The floor is the least of the speed gradient's components on the cone:
    the constructive constant in dF_i(lambda) >= floor * |lambda|^{m beta - 1}
    on pinched spectra, increasing in eps and exactly 1/n for the linear
    speed (m = beta = 1).  The ceiling is the greatest quadform operator
    norm: decreasing in eps, identically zero for the linear speed.  Both
    are extrema over the cloud's column blocks and _family_bounds' curves;
    a quadratic speed's ceiling is its one Hessian block's, computed once.
    """
    n = params.n
    if sampler.n != n:
        raise DomainError("sampler dimension does not match params.n")
    constant = _constant_hessian(params)

    def objectives(cols):
        if constant is not None:
            return _gradient_floor_values(cols, params)[None]
        floor, ceiling = _bound_values(cols, params)
        return np.stack([floor, -ceiling])

    best = np.full(1 if constant is not None else 2, np.inf)
    for block in sampler.blocks(eps):
        best = np.minimum(best, objectives(block).min(axis=1, initial=np.inf))
    if 1.0 - n * eps >= 1e-12:  # else the cone is the umbilic ray alone
        best = np.minimum(best, _family_bounds(eps, n, objectives))
    if constant is not None:
        return float(best[0]), float(_hessian_ceiling(*constant))
    return float(best[0]), -float(best[1])


def slice_constant(eps: float, n: int) -> float:
    """Return the maximum of the pinching ratio on the boundary slice.

    Maximizing K_tilde/H_tilde^n subject to lambda_tilde_1 = eps * H_tilde
    puts the remaining shifts equal, giving eps*((1-eps)/(n-1))^(n-1).
    Equals 1/n^n at eps = 1/n.
    """
    if not 0.0 < eps <= 1.0 / n:
        raise DomainError(f"slice constant defined for eps in (0, 1/{n}]")
    return float(eps * ((1.0 - eps) / (n - 1)) ** (n - 1))


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

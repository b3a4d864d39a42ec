"""Radial-graph geometry over the round sphere.

A closed hypersurface star-shaped about the chart center is the image of
X(u) = exp_center(r(u) u) for a positive function r on the unit n-sphere.
This module discretizes r, differentiates it covariantly, and assembles the
induced metric, second fundamental form, Weingarten map, principal
curvatures, support function, and quadrature weights at every node.

Two grid modes:

* axisymmetric (the workhorse): r = r(theta) on a uniform colatitude grid
  including both poles, any hypersurface dimension n >= 2.  Everything is
  diagonal in the adapted orthonormal frame (theta direction plus n-1
  equivalent azimuthal directions), so the spectrum at every node is
  {lam_theta, lam_azim repeated n-1 times}: the speed and its gradient trace
  come from the closed-form elementary symmetric values of that pair
  (curvalg.PairSpectrum), with no eigensolve, recurrence or (N, n) array.
* full2d: n = 2 only, a latitude-longitude grid cell-centered in theta
  (no node sits on a pole) with Fourier-spectral derivatives in phi.  The
  2x2 Weingarten algebra is written out entry by entry on per-node columns,
  and its two closed-form eigenvalues form the same pair spectrum.  A polar
  Fourier filter (polar_filter) keeps only the zonal wavenumbers
  |k| <= K_j = max(2, floor((n_phi/2) sin theta_j)) <= n_phi/2 on ring j;
  the flow applies it to the initial state and to every stage rate, and the
  time step reads the arc that the filtered ring resolves.

Frame convention: all per-node tensors (Dr, D2r, g, h, ...) are expressed
in an orthonormal frame of the round sphere, so the round metric is the
identity and raising/lowering sphere indices is free.  Determinant factors
of the coordinate metric live entirely in the quadrature weights.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .curvalg import FlowParams, PairSpectrum, speed
from .errors import ConfigurationError, DomainError, HoroflowError
from .hypergeom import AmbientCurvature, generalized_sine_cosine

MODES = ("axisymmetric", "full2d")
MIN_NODES_THETA = 16
# Number of cells adjacent to each pole where the azimuthal curvature term
# cot(theta) r' is replaced by its pole limit r''.
POLE_REGULARIZATION_CELLS = 2

SNAPSHOT_MAGIC = "# horoflow-grid v1"
_MODE_TAGS = {"axisymmetric": "axisym", "full2d": "full2d"}
_TAG_MODES = {v: k for k, v in _MODE_TAGS.items()}


def _sphere_area(dim: int) -> float:
    """Total measure of the round unit sphere S^dim."""
    half = (dim + 1) / 2.0
    try:
        return 2.0 * math.pi**half / math.gamma(half)
    except OverflowError:  # dim > 340: the measure tends to 0 through log space
        return 2.0 * math.exp(half * math.log(math.pi) - math.lgamma(half))


@dataclass(frozen=True)
class GridSpec:
    """Static discretization data shared by every state on the same grid."""

    mode: str
    n: int
    n_theta: int
    n_phi: int | None
    theta: np.ndarray
    phi: np.ndarray | None
    weights: np.ndarray
    spacing_theta: float
    spacing_phi: float | None
    # Axisymmetric stencil constants, built once per grid (None on full2d):
    # 1/(2h), 1/h^2, and 1/tan(theta) off the pole-regularized cells.
    inv_2h: float | None = None
    inv_h_sq: float | None = None
    inv_tan_inner: np.ndarray | None = field(default=None, repr=False)
    # full2d constants, built once per grid (None on axisymmetric): the
    # Fourier wavenumbers in phi, sin and cot of theta as (n_theta, 1)
    # columns, the polar filter's (n_theta, n_phi/2 + 1) mask of kept rfft
    # bins, and sin(theta) (n_phi/2)/K_j at every flattened node: the
    # azimuthal arc, per unit of spacing_phi, that the filtered ring resolves.
    wavenumbers: np.ndarray | None = field(default=None, repr=False)
    sin_theta: np.ndarray | None = field(default=None, repr=False)
    cot_theta: np.ndarray | None = field(default=None, repr=False)
    phi_mask: np.ndarray | None = field(default=None, repr=False)
    phi_arc_nodes: np.ndarray | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        if self.mode == "axisymmetric":
            return (self.n_theta,)
        return (self.n_theta, self.n_phi)


def grid_problems(mode, n, n_theta, n_phi=None) -> list[str]:
    """The rules on grid.mode, grid.n_theta and grid.n_phi."""
    problems = []
    if mode not in MODES:
        problems.append(f"grid.mode must be one of {MODES}, got {mode!r}")
    if n_theta is not None and n_theta < MIN_NODES_THETA:
        problems.append(f"grid.n_theta must be >= {MIN_NODES_THETA}, got {n_theta}")
    if mode == "full2d":
        if n is not None and n != 2:
            problems.append(f"grid.mode = full2d requires params.n = 2, got {n}")
        # Pole ghost rows shift by pi, so n_phi must be even.
        if not isinstance(n_phi, int) or n_phi < 8 or n_phi % 2:
            problems.append(f"grid.n_phi must be an even integer >= 8 for full2d, got {n_phi}")
    return problems


def make_grid(mode: str, n: int, n_theta: int, n_phi: int | None = None) -> GridSpec:
    """Build a grid specification with precomputed nodes and quadrature weights."""
    ConfigurationError.raise_if(FlowParams.problems(n) + grid_problems(mode, n, n_theta, n_phi))

    if mode == "axisymmetric":
        h = math.pi / (n_theta - 1)
        k = POLE_REGULARIZATION_CELLS
        theta = np.linspace(0.0, math.pi, n_theta)
        trap = np.ones(n_theta)
        trap[0] = trap[-1] = 0.5
        weights = _sphere_area(n - 1) * np.sin(theta) ** (n - 1) * h * trap
        return GridSpec(
            mode=mode,
            n=n,
            n_theta=n_theta,
            n_phi=None,
            theta=theta,
            phi=None,
            weights=weights,
            spacing_theta=h,
            spacing_phi=None,
            inv_2h=1.0 / (2.0 * h),
            inv_h_sq=1.0 / (h * h),
            inv_tan_inner=1.0 / np.tan(theta[k:-k]),
        )

    h_t = math.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * h_t
    h_p = 2.0 * math.pi / n_phi
    phi = np.arange(n_phi) * h_p
    sin_theta = np.sin(theta)
    weights = (sin_theta[:, None] * np.ones(n_phi)[None, :] * h_t * h_p).ravel()
    half = n_phi // 2
    # K_j, the largest wavenumber the polar filter keeps on ring j.
    kept = np.maximum(2, np.floor(half * sin_theta))
    return GridSpec(
        mode=mode,
        n=2,
        n_theta=n_theta,
        n_phi=n_phi,
        theta=theta,
        phi=phi,
        weights=weights,
        spacing_theta=h_t,
        spacing_phi=h_p,
        wavenumbers=2.0 * np.pi * np.fft.rfftfreq(n_phi, d=2.0 * np.pi / n_phi),
        sin_theta=sin_theta[:, None],
        cot_theta=(np.cos(theta) / sin_theta)[:, None],
        phi_mask=(np.arange(half + 1)[None, :] <= kept[:, None]).astype(float),
        phi_arc_nodes=np.repeat(sin_theta * (half / kept), n_phi),
    )


def polar_filter(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Keep the wavenumbers |k| <= K_j of each ring's phi spectrum.

    values has the grid's natural or flattened shape and keeps it.  One rfft
    along phi, the mask, one irfft; axisymmetric grids get values back as is.
    """
    if grid.phi_mask is None:
        return values
    rings = np.fft.rfft(values.reshape(grid.shape), axis=-1)
    return np.fft.irfft(rings * grid.phi_mask, n=grid.n_phi, axis=-1).reshape(values.shape)


@dataclass(frozen=True)
class GraphState:
    """A radial graph at a moment in time: r > 0 on the grid's natural shape."""

    t: float
    grid: GridSpec
    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != self.grid.shape:
            raise DomainError(f"state shape {r.shape} does not match grid {self.grid.shape}")
        # One fused test, which a NaN also fails; the messages sort out a failure.
        if not (r.min() > 0.0 and r.max() < math.inf):
            if not np.isfinite(r).all():
                raise DomainError("radial profile contains non-finite values")
            raise DomainError("radial profile must be positive (graph over the chart center)")
        object.__setattr__(self, "r", r)

    @property
    def r_flat(self) -> np.ndarray:
        return self.r.reshape(-1)


def initial_problems(grid_mode, n_theta, r0, mode_l=None, amplitude=None, mode_phi=0) -> list[str]:
    """The rules on initial.r0 and the perturbation fields (None for a sphere)."""
    problems = []
    r0_ok = r0 is not None and math.isfinite(r0) and r0 > 0.0
    if r0 is not None and not r0_ok:
        problems.append(f"initial.r0 must be positive and finite, got {r0}")
    if mode_l is not None and mode_l < 2:
        problems.append(f"initial.mode_l must be >= 2 (0 rescales, 1 translates), got {mode_l}")
    elif mode_l is not None and n_theta is not None and mode_l >= n_theta:
        problems.append(
            f"initial.mode_l must be < grid.n_theta = {n_theta} (higher degrees alias), got {mode_l}"
        )
    if amplitude is not None and r0_ok and not abs(amplitude) / r0 <= 0.2:
        problems.append(
            f"initial.amplitude/r0 must be <= 0.2 for star-shapedness, got {abs(amplitude) / r0:.3g}"
        )
    if mode_phi and grid_mode != "full2d":
        problems.append("initial.mode_phi requires grid.mode = full2d")
    elif mode_phi and mode_l is not None and abs(mode_phi) > mode_l:
        problems.append(
            f"initial.mode_phi must be <= initial.mode_l in magnitude, got {mode_phi}, {mode_l}"
        )
    return problems


def sphere_state(grid: GridSpec, r0: float) -> GraphState:
    """Return the geodesic sphere of radius r0 as a state at t = 0."""
    ConfigurationError.raise_if(initial_problems(grid.mode, grid.n_theta, r0))
    return GraphState(t=0.0, grid=grid, r=np.full(grid.shape, float(r0)))


def perturbed_sphere_state(
    grid: GridSpec,
    r0: float,
    mode_l: int,
    amplitude: float,
    mode_phi: int = 0,
) -> GraphState:
    """Return r = r0 + amplitude * (smooth degree-l profile) at t = 0, optionally
    with azimuthal dependence (full2d only, via an associated Legendre factor)."""
    ConfigurationError.raise_if(
        initial_problems(grid.mode, grid.n_theta, r0, mode_l, amplitude, mode_phi)
    )
    if mode_phi == 0:
        profile = np.cos(mode_l * grid.theta)
        if grid.mode == "full2d":
            profile = np.repeat(profile[:, None], grid.n_phi, axis=1)
    else:
        leg = _associated_legendre(mode_phi, mode_l, np.cos(grid.theta))
        leg = leg / np.max(np.abs(leg))
        profile = leg[:, None] * np.cos(mode_phi * grid.phi)[None, :]
    return GraphState(t=0.0, grid=grid, r=r0 + amplitude * profile)


def _associated_legendre(m: int, l: int, x: np.ndarray) -> np.ndarray:
    """Return P_l^m(x) as scipy.special.lpmv does: Condon-Shortley phase, upward in l,
    and P_l^-m = (-1)^m (l - m)!/(l + m)! P_l^m."""
    mu = abs(m)
    below, current = 0.0, (-1.0) ** mu * math.prod(range(1, 2 * mu, 2)) * (1.0 - x * x) ** (0.5 * mu)
    for k in range(mu + 1, l + 1):
        below, current = current, ((2 * k - 1) * x * current - (k + mu - 1) * below) / (k - mu)
    if m < 0:
        current = current * ((-1.0) ** mu * math.factorial(l - mu) / math.factorial(l + mu))
    return current


# ---------------------------------------------------------------------------
# Covariant derivatives on the round sphere
# ---------------------------------------------------------------------------


def _axisym_scalar_derivatives(grid: GridSpec, r: np.ndarray):
    """Return (r', r'', azimuthal Hessian component) on the colatitude grid.

    Ghost nodes reflect across each pole (smooth even extension), closing the
    Neumann conditions r'(0) = r'(pi) = 0 exactly.  The azimuthal component
    cot(theta) r' switches to its limit r'' within two cells of each pole.
    """
    re = np.empty(r.size + 2)
    re[1:-1] = r
    re[0] = r[1]
    re[-1] = r[-2]
    up, down = re[2:], re[:-2]
    rp = (up - down) * grid.inv_2h
    rpp = (up - 2.0 * r + down) * grid.inv_h_sq
    k = POLE_REGULARIZATION_CELLS
    azim = rpp.copy()
    azim[k:-k] = rp[k:-k] * grid.inv_tan_inner
    return rp, rpp, azim


def _full2d_frame_derivatives(grid: GridSpec, r: np.ndarray):
    """Return the frame columns (a, b, d00, d01, d11) of Dr = (a, b) and D2r.

    One entry per flattened node; D2r is symmetric with off-diagonal d01.
    Theta uses second-order central differences with ghost rows obtained by
    crossing the pole (same ring, phi shifted by pi); phi is Fourier-spectral,
    one rfft of [r, r_t] and one irfft of [i k R, -k^2 R, i k R_t].
    """
    h = grid.spacing_theta
    n_theta, n_phi = r.shape
    half = n_phi // 2
    re = np.empty((n_theta + 2, n_phi))
    re[1:-1] = r
    re[0, :half] = r[0, half:]
    re[0, half:] = r[0, :half]
    re[-1, :half] = r[-1, half:]
    re[-1, half:] = r[-1, :half]
    up, down = re[2:], re[:-2]
    rows = np.empty((2, n_theta, n_phi))
    rows[0] = r
    r_t = np.divide(up - down, 2.0 * h, out=rows[1])
    r_tt = (up - 2.0 * r + down) / (h * h)

    k = grid.wavenumbers
    spec = np.fft.rfft(rows, axis=-1)
    products = np.empty((3,) + spec.shape[1:], dtype=complex)
    np.multiply(1j * k, spec, out=products[::2])  # slots 0 and 2: i k R, i k R_t
    np.multiply(-(k**2), spec[0], out=products[1])
    r_p, r_pp, r_tp = np.fft.irfft(products, n=n_phi, axis=-1)

    sin_t = grid.sin_theta
    cot_t = grid.cot_theta
    return (
        r_t.ravel(),
        (r_p / sin_t).ravel(),
        r_tt.ravel(),
        ((r_tp - cot_t * r_p) / sin_t).ravel(),
        (r_pp / sin_t**2 + cot_t * r_t).ravel(),
    )


# ---------------------------------------------------------------------------
# Pointwise curvature algebra (exact given r and its derivatives)
# ---------------------------------------------------------------------------


def axisym_pointwise_curvatures(r, rp, rpp, azim, ac: AmbientCurvature):
    """Return (lam_theta, lam_azim, xi_norm, s, c) from scalar derivative data.

    Pure pointwise algebra shared by the finite-difference pipeline and by
    tests that substitute analytic derivatives.
    """
    s, c = generalized_sine_cosine(r, ac)
    s_sq = s * s
    rp_sq = rp * rp
    xi_sq = s_sq + rp_sq
    xi = np.sqrt(xi_sq)
    s_sq_c = s_sq * c
    h_theta = (s_sq_c + 2.0 * c * rp_sq - s * rpp) / xi
    h_azim = (s_sq_c - s * azim) / xi
    lam_theta = h_theta / xi_sq
    lam_azim = h_azim / s_sq
    return lam_theta, lam_azim, xi, s, c


@dataclass
class GeometryFields:
    """Per-node geometry of a state, flattened over nodes.

    spectrum holds the two distinct principal curvatures per node: the
    axisymmetric (lam_theta, lam_azim) or the full2d eigenvalue pair
    (lo, hi).  lam is the (N, n) principal-curvature spectrum, ascending in
    each row, built from it on first read, and settable.  mode is the grid's
    mode, which sets the step fraction of flow.stable_dt.
    """

    s: np.ndarray
    xi_norm: np.ndarray
    F: np.ndarray
    Phi: np.ndarray
    area_weight: np.ndarray
    min_spacing: float
    spectrum: PairSpectrum
    mode: str

    @functools.cached_property
    def lam(self) -> np.ndarray:
        return self.spectrum.sorted()


def geometry_from_graph(state: GraphState, params: FlowParams) -> GeometryFields:
    """Assemble the per-node geometry of a radial graph.

    The axisymmetric spectrum is diagonal in the adapted frame; full2d writes
    out the 2x2 frame tensors per entry and takes their closed-form
    eigenvalues.  Either way the speed comes from the pair spectrum.
    """
    grid = state.grid
    if grid.n != params.n:
        raise DomainError(f"grid dimension {grid.n} does not match params.n = {params.n}")
    n = grid.n

    if grid.mode == "axisymmetric":
        r = state.r
        rp, rpp, azim = _axisym_scalar_derivatives(grid, r)
        lam_theta, lam_azim, xi, s, _c = axisym_pointwise_curvatures(r, rp, rpp, azim, params.ac)
        spectrum = PairSpectrum(lam_theta, lam_azim, n)
        min_spacing = grid.spacing_theta * float(xi.min())
        return _scalar_fields(state, params, speed(spectrum, params), xi, s, min_spacing, spectrum)

    # full2d, entry by entry: g = Dr Dr^T + s^2 I, g^-1 = P / s^2 with
    # P = I - Dr Dr^T / |xi|^2, h = -(s D2r - s^2 c I - 2 c Dr Dr^T) / |xi|
    # and W = g^-1 h.  Each entry keeps the operation order of these matrix
    # expressions (g^-1 before the product, W_ik = g^-1_i0 h_0k + g^-1_i1 h_1k).
    a, b, d00, d01, d11 = _full2d_frame_derivatives(grid, state.r)
    s, c = generalized_sine_cosine(state.r_flat, params.ac)
    aa = a * a
    ab = a * b
    bb = b * b
    ss = s * s
    xi_sq = ss + (aa + bb)
    xi = np.sqrt(xi_sq)
    p00 = (1.0 - aa / xi_sq) / ss
    p01 = (0.0 - ab / xi_sq) / ss
    p11 = (1.0 - bb / xi_sq) / ss
    ssc = ss * c
    c2 = 2.0 * c
    h00 = -((s * d00 - ssc) - c2 * aa) / xi
    h01 = -(s * d01 - c2 * ab) / xi
    h11 = -((s * d11 - ssc) - c2 * bb) / xi
    w00 = p00 * h00 + p01 * h01
    w01 = p00 * h01 + p01 * h11
    w10 = p01 * h00 + p11 * h01
    w11 = p01 * h01 + p11 * h11
    tr = w00 + w11
    # (W00 - W11)^2 + 4 W01 W10 equals tr^2 - 4 det but does not cancel
    # catastrophically at umbilic points (W is self-adjoint w.r.t. g, so
    # the discriminant is nonnegative up to rounding)
    gap = w00 - w11
    disc = np.sqrt(np.maximum(gap * gap + 4.0 * w01 * w10, 0.0))
    spectrum = PairSpectrum((tr - disc) / 2.0, (tr + disc) / 2.0, n)
    theta_spacing, phi_spacing = _full2d_spacings(grid, aa, bb, ss)
    min_spacing = float(min(theta_spacing.min(), phi_spacing.min()))
    return _scalar_fields(state, params, speed(spectrum, params), xi, s, min_spacing, spectrum)


def _full2d_spacings(grid: GridSpec, aa, bb, ss):
    """Induced theta and phi spacings at every node, from a^2, b^2 and s^2.

    The coordinate phi arc carries the sin(theta) factor of the chart, and
    the polar filter's (n_phi/2)/K_j: ring j resolves only |k| <= K_j.
    """
    theta_spacing = grid.spacing_theta * np.sqrt(aa + ss)
    phi_spacing = grid.spacing_phi * grid.phi_arc_nodes * np.sqrt(bb + ss)
    return theta_spacing, phi_spacing


def dt_limit(state: GraphState, fields: GeometryFields) -> dict:
    """The node, direction and induced spacing that set fields.min_spacing.

    node is the flattened index and direction "theta" or "phi"; spacing
    equals fields.min_spacing.  Meant for a run's initial state: it redoes
    the full2d phi derivatives that geometry_from_graph does not keep.
    """
    grid = state.grid
    if grid.mode == "axisymmetric":
        spacings = {"theta": grid.spacing_theta * fields.xi_norm}
    else:
        a, b, _, _, _ = _full2d_frame_derivatives(grid, state.r)
        theta_spacing, phi_spacing = _full2d_spacings(grid, a * a, b * b, fields.s * fields.s)
        spacings = {"theta": theta_spacing, "phi": phi_spacing}
    direction = min(spacings, key=lambda d: spacings[d].min())
    node = int(spacings[direction].argmin())
    return {"node": node, "direction": direction, "spacing": float(spacings[direction][node])}


def _scalar_fields(state, params, F, xi, s, min_spacing, spectrum) -> GeometryFields:
    return GeometryFields(
        s=s,
        xi_norm=xi,
        F=F,
        Phi=s * s / xi,
        area_weight=s ** (params.n - 1) * xi * state.grid.weights,
        min_spacing=min_spacing,
        spectrum=spectrum,
        mode=state.grid.mode,
    )


def mean_curvature_direct(state: GraphState, params: FlowParams) -> np.ndarray:
    """Mean curvature from the scalar graph formula, independent of the Weingarten route.

    H = -(Delta r - Hess r(Dr, Dr)/|xi|^2)/(|xi| s) + (c/|xi|)(n + |Dr|^2/|xi|^2),
    with all sphere derivatives covariant, from the frame columns of Dr and
    D2r: (r', 0, ...) and diag(r'', azim, ..., azim) on axisymmetric grids,
    (a, b) and [[d00, d01], [d01, d11]] on full2d.  Shares only those columns
    with geometry_from_graph, so agreement validates its curvature algebra.
    """
    grid = state.grid
    if grid.mode == "axisymmetric":
        rp, rpp, azim = _axisym_scalar_derivatives(grid, state.r)
        dr_sq = rp * rp
        lap = rpp + (grid.n - 1) * azim
        hess_rad = rpp * dr_sq
    else:
        a, b, d00, d01, d11 = _full2d_frame_derivatives(grid, state.r)
        dr_sq = a * a + b * b
        lap = d00 + d11
        hess_rad = d00 * a * a + 2.0 * d01 * a * b + d11 * b * b
    s, c = generalized_sine_cosine(state.r_flat, params.ac)
    xi_sq = s * s + dr_sq
    xi = np.sqrt(xi_sq)
    return -(lap - hess_rad / xi_sq) / (xi * s) + (c / xi) * (params.n + dr_sq / xi_sq)


# ---------------------------------------------------------------------------
# Quadrature functionals
# ---------------------------------------------------------------------------


def _sinh_power_integral(x: np.ndarray, n: int) -> np.ndarray:
    """Return J_n(x) = integral of sinh^n over [0, x], by the power recurrence."""
    x = np.asarray(x, dtype=float)
    sh = np.sinh(x)
    ch = np.cosh(x)
    if n % 2 == 0:
        j = x.copy()
        start = 2
    else:
        j = ch - 1.0
        start = 3
    for k in range(start, n + 1, 2):
        j = (sh ** (k - 1) * ch - (k - 1) * j) / k
    return j


def enclosed_volume_integrand(r, params: FlowParams):
    """Return the radial volume factor integral_0^r s(t)^n dt, elementwise."""
    a = params.a
    return _sinh_power_integral(a * np.asarray(r, dtype=float), params.n) / a ** (params.n + 1)


# ---------------------------------------------------------------------------
# Snapshot I/O
# ---------------------------------------------------------------------------


def save_snapshot(state: GraphState, path: str) -> None:
    """Write a grid snapshot CSV; header carries mode, dimension, and time."""
    grid = state.grid
    tag = _MODE_TAGS[grid.mode]
    # repr of Python floats round-trips exactly; numpy scalars are cast first.
    lines = [f"{SNAPSHOT_MAGIC}, mode={tag}, n={grid.n}, t={float(state.t)!r}"]
    if grid.mode == "axisymmetric":
        for th, rv in zip(grid.theta, state.r):
            lines.append(f"{float(th)!r},{float(rv)!r}")
    else:
        for i, th in enumerate(grid.theta):
            for j, ph in enumerate(grid.phi):
                lines.append(f"{float(th)!r},{float(ph)!r},{float(state.r[i, j])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_snapshot(path: str) -> GraphState:
    """Read a grid snapshot CSV written by save_snapshot."""
    with open(path) as fh:
        first = fh.readline().strip()
        match = re.match(
            r"# horoflow-grid v1, mode=(axisym|full2d), n=(\d+), t=(.+)$", first
        )
        if not match:
            raise HoroflowError(f"{path} is not a horoflow grid snapshot")
        mode = _TAG_MODES[match.group(1)]
        n = int(match.group(2))
        t = float(match.group(3))
        body = fh.read()
    if not math.isfinite(t):
        raise HoroflowError(f"{path} has a non-finite time t = {t}")
    data = np.loadtxt(StringIO(body), delimiter=",", ndmin=2)
    columns = 2 if mode == "axisymmetric" else 3
    if data.shape[1] != columns:
        raise HoroflowError(f"{path} has {data.shape[1]} columns, expected {columns}")
    if mode == "axisymmetric":
        grid = make_grid(mode, n, data.shape[0])
        if not np.allclose(data[:, 0], grid.theta, atol=1e-12):
            raise HoroflowError("snapshot colatitudes do not match a uniform grid")
        return GraphState(t=t, grid=grid, r=data[:, 1])
    grid = make_grid(mode, n, np.unique(data[:, 0]).size, np.unique(data[:, 1]).size)
    # save_snapshot's node order: theta-major, phi varying fastest.
    nodes = np.column_stack(
        [np.repeat(grid.theta, grid.n_phi), np.tile(grid.phi, grid.n_theta)]
    )
    if data.shape[0] != nodes.shape[0] or not np.allclose(data[:, :2], nodes, atol=1e-12):
        raise HoroflowError(
            "snapshot nodes are not a cell-centered lat-long grid in (theta, phi) row-major order"
        )
    return GraphState(t=t, grid=grid, r=data[:, 2].reshape(grid.shape))

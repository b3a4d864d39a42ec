"""Volume-preserving curvature flow of h-convex radial graphs in hyperbolic space.

The package integrates the normalized flow driven by powers of the m-th
mean curvature and checks, at runtime, the monotonicity and pinching
structure that makes the flow converge to a geodesic sphere: the shifted
curvature ratio stays above its initial floor, speed bounds hold, and the
diagnostics decay exponentially.
"""

from __future__ import annotations

from .curvalg import (
    FlowParams,
    PinchingConstants,
    elementary_symmetric,
    gap_bound,
    mean_curvature_m,
    slice_constant,
    solve_pinching_constants,
    speed,
    speed_gradient,
    speed_hessian_quadform,
)
from .errors import (
    ConfigurationError,
    DomainError,
    HoroflowError,
    NumericalBlowupError,
    ParabolicityLostError,
    RootFindingError,
    StiffnessError,
)
from .flow import (
    FlowResult,
    RunConfig,
    flow_rhs,
    run,
    stable_dt,
    step,
    volume_renormalize,
)
from .graphgeom import (
    GeometryFields,
    GraphState,
    GridSpec,
    geometry_from_graph,
    load_snapshot,
    make_grid,
    mean_curvature_direct,
    perturbed_sphere_state,
    save_snapshot,
    sphere_state,
)
from .hypergeom import (
    AmbientCurvature,
    generalized_cosine,
    generalized_cotangent,
    generalized_sine,
    generalized_tangent,
    kappa_trig,
)
from .monitors import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    DiagnosticsRecorder,
    ExponentialFit,
    analyze_diagnostics,
    check_monotone,
    load_diagnostics,
    record,
)
from .oracle import (
    SphereTrajectory,
    ball_volume,
    contraction_residual,
    geodesic_distance_axis,
    inner_radius_estimate,
    psi_inverse,
    sphere_contraction,
    support_offset,
    unit_closed_form_radius,
    xi_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientCurvature",
    "CSV_COLUMNS",
    "ConfigurationError",
    "DiagnosticsRecord",
    "DiagnosticsRecorder",
    "DomainError",
    "ExponentialFit",
    "FlowParams",
    "FlowResult",
    "GeometryFields",
    "GraphState",
    "GridSpec",
    "HoroflowError",
    "NumericalBlowupError",
    "ParabolicityLostError",
    "PinchingConstants",
    "RootFindingError",
    "RunConfig",
    "SphereTrajectory",
    "StiffnessError",
    "analyze_diagnostics",
    "ball_volume",
    "check_monotone",
    "contraction_residual",
    "elementary_symmetric",
    "flow_rhs",
    "gap_bound",
    "generalized_cosine",
    "generalized_cotangent",
    "generalized_sine",
    "generalized_tangent",
    "geodesic_distance_axis",
    "geometry_from_graph",
    "inner_radius_estimate",
    "kappa_trig",
    "load_diagnostics",
    "load_snapshot",
    "make_grid",
    "mean_curvature_direct",
    "mean_curvature_m",
    "perturbed_sphere_state",
    "psi_inverse",
    "record",
    "run",
    "save_snapshot",
    "slice_constant",
    "solve_pinching_constants",
    "speed",
    "speed_gradient",
    "speed_hessian_quadform",
    "sphere_contraction",
    "sphere_state",
    "stable_dt",
    "step",
    "support_offset",
    "unit_closed_form_radius",
    "volume_renormalize",
    "xi_comparison",
]

"""Numerical tangent-bundle geometry engine for the unified description of
gravity and electromagnetism: Randers-type sprays, nonlinear connections,
tidal tensors, bundle curvature, fiber volume structure, charged-particle
worldlines, and a residual-check suite anchored on exact solutions."""

from .base_geom import (
    BaseGeometry,
    covariant_divergence,
    maxwell_current,
    maxwell_cyclic_residual,
)
from .bundle_geom import (
    BundleGeometry,
    BundlePoint,
    fiber_derivs_B,
    generalized_einstein,
    ricci_decomposition,
)
from .dynamics import (
    Trajectory,
    compare_classical,
    integrate_deviation,
    integrate_worldline,
    neighbor_oracle,
    norm_drift,
    randers_lagrangian,
    trajectory_csv,
    worldline_rhs,
)
from .errors import (
    ChartError,
    ConfigError,
    EngineError,
    EvaluationError,
    IntegrationError,
    ModelError,
    ParseError,
    SingularEvaluationError,
    UsageError,
)
from .exprlang import evaluate, free_symbols, parse, print_expr
from .jet_arrays import JetArray
from .jets import Jet
from .spacetime import (
    SpacetimeModel,
    alpha_star,
    catalog,
    load_model,
    metric_jet,
    potential_jet,
    print_model,
)
from .tm_metric import (
    FiberBall,
    fiber_ball,
    fiber_integral,
    tm_integral,
)
from .verify import ResidualReport, conservation_residual, reports_to_csv, reports_to_json, run_suite

__version__ = "0.1.0"

"""Radial sigma_2-curvature toolkit: symmetric-function algebra, 1-d
discretization, conformal energies, the normalized descent flow, and the
glued comparison-metric construction, with a CLI (`sigma2`) on top.

Numerics run on numpy, the only dependency.
"""

from .discretize import (
    RadialGrid,
    ball_radius,
    gauss_panels,
    integrate,
    log_edges,
    sphere_latitude,
    sphere_measure,
)
from .symfun import (
    elementary_symmetric,
    sigma_k,
    sigma_k_minors,
)
from .geometry import (
    ConeViolation,
    ConformalField,
    CurvatureModel,
    FlatRadialBall,
    RoundSphere,
    SchoutenFields,
    divergence_identity_residual,
    functional_F2,
    functional_V,
    normalized_F2,
    round_schouten_sigma2,
    schouten_fields,
    schouten_pointwise,
    sigma_pair_radial,
    smoothstep,
)
from .flow import (
    FlowConfig,
    FlowResult,
    FlowState,
    MonitorRecord,
    MONITOR_COLUMNS,
    ContinuationRung,
    EigenResult,
    continuation,
    eigen_solve,
    flow_run,
    flow_state,
    initial_field,
    step,
    velocity,
    write_monitor_csv,
)
from .testmetric import (
    AssembledMetric,
    BubbleParams,
    ConstructionError,
    GluingProfile,
    MarginSweep,
    SphereConstants,
    assemble_and_compare,
    bernoulli_alpha,
    bernoulli_residual,
    glue_lemma6,
    lemma5_integrals,
    margin_sweep,
    sphere_constants,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Positivity-preserving drift-implicit Euler scheme for one-dimensional SDEs
driven by fractional Brownian motion (H > 1/2) with drifts singular at zero,
plus the machinery to verify its strong convergence order empirically."""

from .convergence import (
    ConvergenceReport,
    ExperimentPlan,
    MomentProbe,
    OrderFit,
    ProbePlan,
    critical_horizon,
    fit_order,
    moment_probe,
    run_strong_error,
)
from .config import RunConfig, parse_config
from .drifts import (
    AitSahaliaModel,
    AssumptionCertificate,
    AuditReport,
    DriftFn,
    MeanRevertingModel,
    ModelSpec,
    audit_assumptions,
    lamperti_inverse,
)
from .errors import (
    ConfigError,
    EmbeddingError,
    FactorizationError,
    FbmsdeError,
    IntegrationError,
    NumericalError,
    ParameterError,
    RootBracketError,
    UsageError,
)
from .fbm import (
    CholeskySampler,
    CirculantSampler,
    Hurst,
    TimeGrid,
    make_sampler,
    mix_seed,
    path_values,
    subsample,
)
from .solver import (
    SchemeConfig,
    SolutionPath,
    SolverSettings,
    integrate,
)

__version__ = "0.1.0"

"""Stochastic inertial forward-backward splitting and the two derived
classes of stochastic inertial primal-dual methods, for block-structured
monotone inclusions."""

from .errors import (
    ConfigurationError,
    DimensionMismatch,
    InfeasibleProblemError,
    NormEstimationError,
    OracleError,
)
from .operators import (
    CocoerciveMap,
    MonotoneBlock,
    ProxFunction,
    check_cocoercivity,
    moreau_check,
    prox_conjugate,
    prox_weighted,
    resolvent,
)
from .primal_dual import (
    ConstantsReport,
    PrimalDualProblem,
    assemble_class1,
    assemble_class2,
    beta_for_balance,
    compute_constants,
    duality_residuals,
    extract_primal_dual,
    optimal_balance,
    scalar_feasibility_constant,
)
from .solver import (
    CONVERGED,
    DIVERGED,
    MAX_ITER,
    ProblemInstance,
    RunTrace,
    SolverConfig,
    fp_residual,
    run,
    step,
)
from .spaces import (
    BlockLinearOperator,
    BlockVector,
    Preconditioner,
    WeightedMetric,
    block_concat,
    block_split,
    estimate_weighted_norm,
)
from .stochastic import (
    InertiaSchedule,
    NoiseSchedule,
    StochasticOracle,
    derive_seeds,
)

__all__ = [
    "BlockLinearOperator",
    "BlockVector",
    "CONVERGED",
    "CocoerciveMap",
    "ConfigurationError",
    "ConstantsReport",
    "DIVERGED",
    "DimensionMismatch",
    "InertiaSchedule",
    "InfeasibleProblemError",
    "MAX_ITER",
    "MonotoneBlock",
    "NoiseSchedule",
    "NormEstimationError",
    "OracleError",
    "Preconditioner",
    "PrimalDualProblem",
    "ProblemInstance",
    "ProxFunction",
    "RunTrace",
    "SolverConfig",
    "StochasticOracle",
    "WeightedMetric",
    "assemble_class1",
    "assemble_class2",
    "beta_for_balance",
    "block_concat",
    "block_split",
    "check_cocoercivity",
    "compute_constants",
    "derive_seeds",
    "duality_residuals",
    "estimate_weighted_norm",
    "extract_primal_dual",
    "fp_residual",
    "moreau_check",
    "optimal_balance",
    "prox_conjugate",
    "prox_weighted",
    "resolvent",
    "run",
    "scalar_feasibility_constant",
    "step",
]

__version__ = "0.1.0"

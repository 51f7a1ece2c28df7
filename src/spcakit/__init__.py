"""Sparse principal component analysis by provably accurate thresholding.

Two solvers with certified accuracy floors:

* :func:`spca_svd` thresholds the rows of the leading eigenbasis and
  extracts the restricted top singular direction (fast, additive floor);
* :func:`spca_sdp` solves a trace/l1-ball convex relaxation by ADMM and
  rounds its best rank-1 factor (accurate, multiplicative floor).

Plus an exact enumeration oracle for small instances, evaluation and bound
reporting, dataset tooling (covariance, kernels, the pit props benchmark, a
spiked synthetic generator), and the ``spca`` command-line interface.
"""

from .errors import (
    AsymmetryExceedsTolerance,
    ConvergenceFailure,
    DegenerateSolution,
    DimensionMismatch,
    DimensionNotDivisibleBy4,
    EnumerationBudgetExceeded,
    InvalidKernelParams,
    InvalidRank,
    InvalidSupport,
    InvariantViolation,
    NonConvergenceWarning,
    NonFiniteEntries,
    NotPSD,
    NotPowerOfTwo,
    NotPsdWarning,
    NotSquare,
    ParseError,
    SpcaError,
    ZeroVarianceColumn,
)
from .matrix import (
    EigenPairs,
    SvdParams,
    SymmetricMatrix,
    eigendecompose,
    ensure_psd,
    spectral_norm,
    symmetrize,
    top_l_eigenpairs,
)
from .svd_threshold import (
    SparseUnitVector,
    spca_svd,
    threshold_row_indices,
)
from .sdp import (
    AdmmConfig,
    SdpDiagnostics,
    SdpSolution,
    project_l1_ball_matrix,
    project_psd_trace_ball,
    rank_one_diagnostics,
    round_sdp_solution,
    solve_sdp_relaxation,
    spca_sdp,
)
from .oracle import OracleResult, exact_spca, restricted_top_eigenpair
from .evaluation import (
    EvalReport,
    evaluate,
    solve,
    sparsity_sweep,
)
from .data import (
    DataMatrix,
    SyntheticConfig,
    covariance_from_data,
    givens_composition_apply,
    hadamard_basis,
    kernel_matrix,
    load_matrix,
    pit_props,
    save_matrix,
    synthetic_spiked,
    unit_row_normalize,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "AsymmetryExceedsTolerance",
    "ConvergenceFailure",
    "DataMatrix",
    "DegenerateSolution",
    "DimensionMismatch",
    "DimensionNotDivisibleBy4",
    "EigenPairs",
    "EnumerationBudgetExceeded",
    "EvalReport",
    "InvalidKernelParams",
    "InvalidRank",
    "InvalidSupport",
    "InvariantViolation",
    "NonConvergenceWarning",
    "NonFiniteEntries",
    "NotPSD",
    "NotPowerOfTwo",
    "NotPsdWarning",
    "NotSquare",
    "OracleResult",
    "ParseError",
    "SdpDiagnostics",
    "SdpSolution",
    "SparseUnitVector",
    "SpcaError",
    "SvdParams",
    "SymmetricMatrix",
    "SyntheticConfig",
    "ZeroVarianceColumn",
    "covariance_from_data",
    "eigendecompose",
    "ensure_psd",
    "evaluate",
    "exact_spca",
    "givens_composition_apply",
    "hadamard_basis",
    "kernel_matrix",
    "load_matrix",
    "pit_props",
    "project_l1_ball_matrix",
    "project_psd_trace_ball",
    "rank_one_diagnostics",
    "restricted_top_eigenpair",
    "round_sdp_solution",
    "save_matrix",
    "solve",
    "solve_sdp_relaxation",
    "sparsity_sweep",
    "spca_sdp",
    "spca_svd",
    "spectral_norm",
    "symmetrize",
    "synthetic_spiked",
    "threshold_row_indices",
    "top_l_eigenpairs",
    "unit_row_normalize",
]

"""giep — construct real matrices with a prescribed spectrum and graph.

Given distinct target eigenvalues (complex-conjugate pairs plus reals) and
a loopless graph with a large enough matching, the solver produces a real
matrix whose eigenvalues are exactly the targets and whose off-diagonal
nonzero pattern is exactly the graph.  It starts from a block-diagonal
seed realizing the spectrum, ramps the prescribed fill entries from zero
to small targets, and Newton-corrects the block parameters after every
ramp step so the eigenvalues never move.
"""

__version__ = "0.1.0"

from .errors import (
    BadFormat,
    DegenerateSpectrum,
    DimensionMismatch,
    DiscViolation,
    GiepError,
    IllConditioned,
    InfeasibleError,
    InputError,
    MatchingTooSmall,
    NoConvergence,
    NumericalError,
    RepeatedEigenvalues,
    SingularSystem,
    StepUnderflow,
)
from .linalg import EigenTriple, eig_all, eigen_triple, solve_linear
from .graph import (
    Graph,
    Matching,
    Relabeling,
    format_graph,
    make_graph,
    max_matching,
    parse_graph,
    plan_relabeling,
)
from .model import (
    DiscSystem,
    LabeledValue,
    ParameterPoint,
    Pattern,
    Spectrum,
    assemble,
    build_seed,
    disc_radius,
    format_matrix_csv,
    format_matrix_market,
    format_spectrum,
    label_eigenvalues,
    parse_matrix_csv,
    parse_spectrum,
    spectrum_mismatch,
)
from .solver import (
    ContinuationState,
    SolveReport,
    SolverConfig,
    StepRecord,
    continuation_solve,
    default_targets,
    eigen_derivative,
    jacobian_xyz,
    newton_correct,
)
from .apps import (
    VerificationReport,
    path_graph,
    solve_instance,
    tridiagonalize,
    verify,
)

__all__ = [
    "BadFormat",
    "ContinuationState",
    "DegenerateSpectrum",
    "DimensionMismatch",
    "DiscSystem",
    "DiscViolation",
    "EigenTriple",
    "GiepError",
    "Graph",
    "IllConditioned",
    "InfeasibleError",
    "InputError",
    "LabeledValue",
    "Matching",
    "MatchingTooSmall",
    "NoConvergence",
    "NumericalError",
    "ParameterPoint",
    "Pattern",
    "Relabeling",
    "RepeatedEigenvalues",
    "SingularSystem",
    "SolveReport",
    "SolverConfig",
    "Spectrum",
    "StepRecord",
    "StepUnderflow",
    "VerificationReport",
    "assemble",
    "build_seed",
    "continuation_solve",
    "default_targets",
    "disc_radius",
    "eig_all",
    "eigen_derivative",
    "eigen_triple",
    "format_graph",
    "format_matrix_csv",
    "format_matrix_market",
    "format_spectrum",
    "jacobian_xyz",
    "label_eigenvalues",
    "make_graph",
    "max_matching",
    "newton_correct",
    "parse_graph",
    "parse_matrix_csv",
    "parse_spectrum",
    "path_graph",
    "plan_relabeling",
    "solve_instance",
    "solve_linear",
    "spectrum_mismatch",
    "tridiagonalize",
    "verify",
]

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
from .linalg import eig_all
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
    Pattern,
    Spectrum,
    build_seed,
    format_matrix_csv,
    format_matrix_market,
    format_spectrum,
    parse_matrix_csv,
    parse_spectrum,
    spectrum_mismatch,
)
from .solver import (
    SolveReport,
    SolverConfig,
    continuation_solve,
    default_targets,
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
    "DegenerateSpectrum",
    "DimensionMismatch",
    "DiscViolation",
    "GiepError",
    "Graph",
    "IllConditioned",
    "InfeasibleError",
    "InputError",
    "Matching",
    "MatchingTooSmall",
    "NoConvergence",
    "NumericalError",
    "Pattern",
    "Relabeling",
    "RepeatedEigenvalues",
    "SingularSystem",
    "SolveReport",
    "SolverConfig",
    "Spectrum",
    "StepUnderflow",
    "VerificationReport",
    "build_seed",
    "continuation_solve",
    "default_targets",
    "eig_all",
    "format_graph",
    "format_matrix_csv",
    "format_matrix_market",
    "format_spectrum",
    "make_graph",
    "max_matching",
    "parse_graph",
    "parse_matrix_csv",
    "parse_spectrum",
    "path_graph",
    "plan_relabeling",
    "solve_instance",
    "spectrum_mismatch",
    "tridiagonalize",
    "verify",
]

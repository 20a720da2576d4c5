"""giep — construct real matrices with a prescribed spectrum and graph.

Given distinct target eigenvalues (complex-conjugate pairs plus reals) and
a loopless graph with a large enough matching, the solver produces a real
matrix whose eigenvalues are exactly the targets and whose off-diagonal
nonzero pattern is exactly the graph.  It starts from a block-diagonal
seed realizing the spectrum, ramps the prescribed fill entries from zero
to small targets, and Newton-corrects the block parameters after every
ramp step so the eigenvalues never move.

The package root exports what users call.  The pipeline stages and the
remaining error classes stay importable from their modules:
:mod:`giep.model`, :mod:`giep.graph`, :mod:`giep.solver`,
:mod:`giep.linalg` and :mod:`giep.errors`.
"""

__version__ = "0.1.0"

from .errors import GiepError, InfeasibleError, InputError, NumericalError, StepUnderflow
from .graph import Graph, make_graph, parse_graph
from .model import Spectrum, parse_spectrum
from .solver import SolveReport, SolverConfig
from .apps import VerificationReport, solve_instance, tridiagonalize, verify

__all__ = [
    "GiepError",
    "Graph",
    "InfeasibleError",
    "InputError",
    "NumericalError",
    "SolveReport",
    "SolverConfig",
    "Spectrum",
    "StepUnderflow",
    "VerificationReport",
    "make_graph",
    "parse_graph",
    "parse_spectrum",
    "solve_instance",
    "tridiagonalize",
    "verify",
]

"""Error taxonomy shared by every giep module.

The hierarchy mirrors how failures are reported to the user: malformed
input, an infeasible instance, or a numerical procedure that could not
finish trustworthily.  The command-line layer maps each branch to a fixed
exit code, so no library failure should ever surface as a bare traceback.
"""


class GiepError(Exception):
    """Base class for all giep errors."""


class InputError(GiepError):
    """Malformed or inconsistent user input (exit code 1)."""


class InfeasibleError(GiepError):
    """The instance violates a solvability hypothesis (exit code 2)."""


class NumericalError(GiepError):
    """A numerical procedure failed to produce a trustworthy result (exit code 3)."""


class BadFormat(InputError):
    """A text document (graph, spectrum, or matrix file) failed to parse."""


class DegenerateSpectrum(InputError):
    """The target spectrum contains duplicate values."""


class MatchingTooSmall(InfeasibleError):
    """The graph's matching number is below the number of conjugate pairs."""


class DimensionMismatch(InfeasibleError):
    """Sizes of the spectrum, graph, pattern, or parameters disagree."""


class RepeatedEigenvalues(InfeasibleError):
    """The input matrix has (numerically) repeated eigenvalues."""


class IllConditioned(NumericalError):
    """A left/right eigenvector pair is nearly orthogonal (near-defective)."""


class SingularSystem(NumericalError):
    """A linear system is singular or too ill-conditioned to trust."""


class DiscViolation(NumericalError):
    """An eigenvalue left its disc, or a disc holds the wrong count."""


class NoConvergence(NumericalError):
    """An iteration did not converge: the Newton corrector ran out of
    iterations or missed the final spectrum tolerance, the eigensolver
    failed, or an eigenpair missed its residual tolerance."""


class StepUnderflow(NumericalError):
    """Continuation step size fell below the minimum before reaching t = 1.

    Carries ``t_reached``, the largest homotopy parameter that was accepted;
    the guarantee behind the construction is local, so running out of step
    size for aggressive fill targets is an expected, honest outcome.
    """

    def __init__(self, message: str, t_reached: float = 0.0):
        super().__init__(message)
        self.t_reached = float(t_reached)

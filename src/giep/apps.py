"""High-level applications: end-to-end solve, tridiagonalization, verification.

``solve_instance`` is the full pipeline for user inputs: find a maximum
matching, relabel the graph so the matching sits on the leading vertex
pairs, run the continuation, and map the result back to the user's vertex
labels.  ``tridiagonalize`` specializes it to the path graph, producing an
irreducible tridiagonal matrix with the same spectrum as its input — and
spectrum equality with distinct eigenvalues certifies similarity.
``verify`` is the independent check used everywhere: exact structural
zeros, nonzero entries on every edge, and eigenvalues matched to the
target spectrum.  It costs one eigenvalues-only decomposition, which also
validates the matrix, plus array work: the edge mask comes from the
graph's own edge arrays, and the greedy spectrum distance takes
O(n log n) whenever every eigenvalue sits in its own disc.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, RepeatedEigenvalues
from .graph import Graph, make_graph, max_matching, plan_relabeling
from .linalg import eig_all, unit_exponent
from .model import Spectrum, min_gap, spectrum_mismatch
from .solver import (
    SolveReport,
    SolverConfig,
    continuation_solve,
    final_tolerance,
    nonzero_floor,
)

GAP_FACTOR = 1e-8          # distinctness gate = factor * ||m||_F


def solve_instance(
    s: Spectrum, g: Graph, mode: str = "generic", cfg: SolverConfig | None = None
) -> SolveReport:
    """Construct a matrix with spectrum ``s`` whose graph is exactly ``g``.

    Raises DimensionMismatch when the vertex count is not 2k+l,
    MatchingTooSmall when the graph cannot host the k conjugate pairs, and
    propagates solver errors (StepUnderflow and friends) otherwise.
    """
    if g.n != s.n:
        raise DimensionMismatch(
            f"graph has {g.n} vertices but the spectrum needs n = 2k+l = {s.n}"
        )
    order, pattern = plan_relabeling(g, max_matching(g), s.k)
    report = continuation_solve(s, pattern, mode, cfg)
    return replace(report, matrix=report.matrix[order[:, None], order])


def path_graph(n: int) -> Graph:
    """The undirected path 1-2-...-n."""
    return make_graph(n, [(i, i + 1) for i in range(1, n)], directed=False)


def tridiagonalize(m, cfg: SolverConfig | None = None) -> SolveReport:
    """An irreducible tridiagonal matrix with the same spectrum as the real matrix ``m``.

    Requires distinct eigenvalues: a minimum gap above GAP_FACTOR times the
    Frobenius norm, a gate relative to the matrix, so scaling the input by
    a power of two never changes whether it passes.  Since a path on n
    vertices has a matching of size floor(n/2) and a real spectrum has at
    most floor(n/2) conjugate pairs, the instance is always feasible.  Equal spectra with distinct
    eigenvalues make the output similar to the input.

    Raises RepeatedEigenvalues when the gap check fails.
    """
    ev = eig_all(m)  # validates m as a nonempty, square, finite real matrix
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    if n > 1:
        gap, _, _ = min_gap(ev)
        # compared at order one, where the norm's sum of squares neither overflows nor underflows
        exp = unit_exponent(a)
        if np.ldexp(gap, -exp) <= GAP_FACTOR * np.linalg.norm(np.ldexp(a, -exp)):
            raise RepeatedEigenvalues(
                f"minimum eigenvalue gap {gap:.3e} is below the distinctness gate"
            )
    return solve_instance(Spectrum.from_eigenvalues(ev), path_graph(n), "generic", cfg)


@dataclass(frozen=True)
class PatternFailure:
    """One offending matrix position from the pattern check."""

    i: int
    j: int
    value: float
    expected: str  # 'nonzero' or 'zero'


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the independent pattern and spectrum checks."""

    pattern_ok: bool
    spectrum_ok: bool
    pattern_failures: tuple[PatternFailure, ...]
    spectrum_error: float
    spectrum_tol: float
    nonzero_floor: float

    @property
    def passed(self) -> bool:
        return self.pattern_ok and self.spectrum_ok

    def render(self) -> str:
        lines = [f"pattern: {'PASS' if self.pattern_ok else 'FAIL'}"]
        for f in self.pattern_failures:
            lines.append(
                f"  ({f.i},{f.j}): expected {f.expected}, got {f.value:.17g}"
            )
        lines.append(
            f"spectrum: {'PASS' if self.spectrum_ok else 'FAIL'} "
            f"(max mismatch {self.spectrum_error:.3e}, tolerance {self.spectrum_tol:.3e})"
        )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify(
    m,
    s: Spectrum,
    g: Graph,
    spectrum_tol: float | None = None,
) -> VerificationReport:
    """Check that the real matrix ``m`` has graph ``g`` and spectrum ``s``.

    Pattern check: every edge position must have magnitude at least
    :func:`~giep.solver.nonzero_floor` of ``s`` and every absent
    off-diagonal position must be exactly zero (structural zeros are never
    written, so exact comparison is the honest test).  The diagonal is
    unconstrained.  Spectrum check: greedy nearest-neighbor matching of the
    computed eigenvalues against the targets, within ``spectrum_tol``
    (default :func:`~giep.solver.final_tolerance` of ``s``; a NaN or
    negative tolerance raises ValueError, 0 and inf are allowed); when every
    eigenvalue lies in its own disc, :func:`~giep.model.spectrum_mismatch`
    finds that greedy distance from one distance per eigenvalue instead of
    an n-by-n matrix.  Failures are reported, never raised.

    ``m`` is validated once, by the eigenvalue decomposition, before the
    sizes are compared: ValueError for a matrix that is not nonempty,
    square, finite and real (no complex array), then DimensionMismatch.
    """
    if spectrum_tol is not None and not spectrum_tol >= 0.0:
        raise ValueError(f"spectrum tolerance must be nonnegative, got {spectrum_tol}")
    ev = eig_all(m)  # validates m as a nonempty, square, finite real matrix
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    if g.n != n or s.n != n:
        raise DimensionMismatch(
            f"matrix is {n}x{n}, graph has {g.n} vertices, spectrum has {s.n} values"
        )
    edge = np.zeros((n, n), dtype=bool)
    tail, head, _ = g.edge_arrays
    edge[tail - 1, head - 1] = True
    floor = nonzero_floor(s)
    bad = np.where(edge, np.abs(a) < floor, a != 0.0)
    bad.flat[:: n + 1] = False  # graphs are loopless: the diagonal is free
    failures = ()
    if bad.any():
        failures = tuple(
            PatternFailure(int(i) + 1, int(j) + 1, float(a[i, j]), "nonzero" if edge[i, j] else "zero")
            for i, j in np.argwhere(bad)
        )
    err = spectrum_mismatch(ev, s)
    tol = spectrum_tol if spectrum_tol is not None else final_tolerance(s)
    return VerificationReport(
        pattern_ok=not failures,
        spectrum_ok=err <= tol,
        pattern_failures=failures,
        spectrum_error=err,
        spectrum_tol=tol,
        nonzero_floor=floor,
    )

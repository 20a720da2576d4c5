"""High-level applications: end-to-end solve, tridiagonalization, verification.

``solve_instance`` is the full pipeline for user inputs: find a maximum
matching, relabel the graph so the matching sits on the leading vertex
pairs, run the continuation, and map the result back to the user's vertex
labels.  ``tridiagonalize`` specializes it to the path graph, producing an
irreducible tridiagonal matrix with the same spectrum as its input — and
spectrum equality with distinct eigenvalues certifies similarity.
``verify`` is the independent check used everywhere: exact structural
zeros, nonzero entries on every edge, and eigenvalues matched to the
target spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, RepeatedEigenvalues
from .graph import Graph, make_graph, max_matching, plan_relabeling
from .linalg import as_square_matrix, eig_all
from .model import Spectrum, _distances, spectrum_mismatch
from .solver import (
    SolveReport,
    SolverConfig,
    continuation_solve,
    default_targets,
    final_tolerance,
    nonzero_floor,
)

GAP_FACTOR = 1e-8          # distinctness gate = factor * (1 + ||m||_F)


def solve_instance(
    s: Spectrum, g: Graph, mode: str = "generic", cfg: SolverConfig | None = None
) -> SolveReport:
    """Construct a matrix with spectrum ``s`` whose graph is exactly ``g``.

    Raises DimensionMismatch when the vertex count is not 2k+l,
    MatchingTooSmall when the graph cannot host the k conjugate pairs, and
    propagates solver errors (StepUnderflow and friends) otherwise.
    """
    cfg = cfg or SolverConfig()
    if g.n != s.n:
        raise DimensionMismatch(
            f"graph has {g.n} vertices but the spectrum needs n = 2k+l = {s.n}"
        )
    matching = max_matching(g)
    relab, pattern = plan_relabeling(g, matching, s.k)
    targets = default_targets(pattern, s, mode, cfg)
    report = continuation_solve(s, pattern, targets, mode, cfg)
    return replace(report, matrix=relab.unapply_matrix(report.matrix))


def path_graph(n: int) -> Graph:
    """The undirected path 1-2-...-n."""
    return make_graph(n, [(i, i + 1) for i in range(1, n)], directed=False)


def tridiagonalize(m, cfg: SolverConfig | None = None) -> SolveReport:
    """An irreducible tridiagonal matrix with the same spectrum as ``m``.

    Requires distinct eigenvalues (minimum gap above GAP_FACTOR times the
    matrix scale); since a path on n vertices has a matching of size
    floor(n/2) and a real spectrum has at most floor(n/2) conjugate pairs,
    the instance is always feasible.  Equal spectra with distinct
    eigenvalues make the output similar to the input.

    Raises RepeatedEigenvalues when the gap check fails.
    """
    a = as_square_matrix(m)
    ev = eig_all(a)
    n = a.shape[0]
    if n > 1:
        gap = _distances(ev, ev)[np.triu_indices(n, 1)].min()
        if gap <= GAP_FACTOR * (1.0 + np.linalg.norm(a)):
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
    """Check that ``m`` has graph ``g`` and spectrum ``s``.

    Pattern check: every edge position must have magnitude at least
    :func:`~giep.solver.nonzero_floor` of ``s`` and every absent
    off-diagonal position must be exactly zero (structural zeros are never
    written, so exact comparison is the honest test).  The diagonal is
    unconstrained.  Spectrum check: greedy nearest-neighbor matching of the
    computed eigenvalues against the targets, within ``spectrum_tol``
    (default :func:`~giep.solver.final_tolerance` of ``s``).  Failures are
    reported, never raised.
    """
    a = as_square_matrix(m)
    n = a.shape[0]
    if g.n != n or s.n != n:
        raise DimensionMismatch(
            f"matrix is {n}x{n}, graph has {g.n} vertices, spectrum has {s.n} values"
        )
    edge = np.zeros((n, n), dtype=bool)
    if g.edges:
        rows, cols = np.array(list(g.edges)).T - 1
        edge[rows, cols] = True
    stray = (a != 0.0) & ~edge
    np.fill_diagonal(stray, False)
    floor = nonzero_floor(s)
    bad = (edge & (np.abs(a) < floor)) | stray
    failures = [
        PatternFailure(int(i) + 1, int(j) + 1, float(a[i, j]), "nonzero" if edge[i, j] else "zero")
        for i, j in np.argwhere(bad)
    ]
    err = spectrum_mismatch(eig_all(a), s)
    tol = spectrum_tol if spectrum_tol is not None else final_tolerance(s)
    return VerificationReport(
        pattern_ok=not failures,
        spectrum_ok=err <= tol,
        pattern_failures=tuple(failures),
        spectrum_error=err,
        spectrum_tol=tol,
        nonzero_floor=floor,
    )

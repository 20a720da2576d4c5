"""Dense real linear algebra: eigenvalues, eigenvector pairs, linear solves.

Matrices are plain 2-D float64 numpy arrays and vectors are 1-D arrays;
complex quantities use numpy's complex128 (a pair of 64-bit reals).  All
operations are pure functions of their inputs, so arrays can be shared
freely between threads, and validate on entry that a matrix is real (no
complex array), finite and square, except ``eigen_triple``, whose matrix
``eig_all`` has already validated.

Everything delegates to LAPACK through numpy.  ``eig_all`` wraps the real
nonsymmetric eigensolver (Hessenberg reduction plus multishift QR), which
keeps all arithmetic real and returns complex eigenvalues in bit-exact
conjugate pairs; with ``vectors=True`` the same single call also returns
the right eigenvectors.  ``eigen_triple`` takes that decomposition
``m = V diag(ev) V^-1`` with the positions of the wanted eigenvalues, and
reads the right eigenvectors from those columns of ``V`` and the left ones
from the same rows of ``V^-1``.  It returns them as arrays, treats every
selected eigenvalue at once, and still checks each one for
near-defectiveness and for both eigen-residuals against ``ev``.
``solve_linear`` is an LU solve with a backward-stability check on its
residual; ``check_conditioning`` is the separate condition-number check,
which a caller that solves with one matrix many times runs once, when it
forms the matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import IllConditioned, NoConvergence, SingularSystem

# Tolerances; residual and pivot thresholds scale with the matrix.
TOL_ORTHO = 1e-8          # |w^T v| below this means near-defective
TOL_LIN = 1e-12           # relative residual for linear solves
RES_FACTOR = 1e-10        # eigen residual tolerance = RES_FACTOR * ||m||_F
PIVOT_FACTOR = 1e-13      # singular when sigma_min <= PIVOT_FACTOR * sigma_max


def as_square_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a finite square float64 array."""
    a = _square(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _square(m) -> np.ndarray:
    """``m`` as a nonempty square float64 array, refused if complex; finiteness is not checked."""
    if np.iscomplexobj(m):
        raise ValueError("matrix entries must be real, got a complex array")
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def as_vector(v, n: int) -> np.ndarray:
    """Validate and return ``v`` as a finite float64 vector of length ``n``."""
    b = np.asarray(v, dtype=float)
    if b.ndim != 1 or b.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("vector entries must be finite")
    return b


def unit_exponent(x) -> int:
    """The exponent e with the largest |x| in [2^(e-1), 2^e), or 0 when ``x``
    is zero: ``np.ldexp(x, -e)`` is ``x`` scaled exactly to order one, where
    sums of squares neither overflow nor underflow."""
    return math.frexp(np.abs(x).max(initial=0.0))[1]


def spectrum_order(ev: np.ndarray) -> np.ndarray:
    """The indices that sort complex values by (real, imag): the order in
    which :func:`eig_all` returns eigenvalues."""
    return np.lexsort((ev.imag, ev.real))


def eig_all(m, vectors: bool = False):
    """All eigenvalues of a real square matrix, with multiplicity.

    Returns a complex128 array sorted by (real, imag).  Complex eigenvalues
    appear in exact conjugate pairs: the imaginary parts of a pair are
    bitwise negations, and real eigenvalues have imaginary part exactly 0.0.
    With ``vectors`` it returns ``(ev, vecs)`` from one ``np.linalg.eig``
    instead, where column ``i`` of ``vecs`` is a right eigenvector of
    ``ev[i]``; :func:`eigen_triple` takes this pair.

    Raises ValueError unless ``m`` is a nonempty, square, finite real matrix, and
    NoConvergence if the QR iteration fails to converge.  numpy checks
    finiteness before LAPACK runs, and that one check is all there is.
    """
    a = _square(m)
    try:
        if vectors:
            ev, vecs = np.linalg.eig(a)
        else:
            ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(a).all():  # numpy's own check refused the matrix
            raise ValueError("matrix entries must be finite") from None
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    ev = ev.astype(np.complex128, copy=False)
    order = spectrum_order(ev)
    if vectors:
        return ev[order], vecs[:, order]
    return ev[order]


class Eigenpairs(NamedTuple):
    """Unit right/left eigenvectors of selected simple eigenvalues, as arrays.

    Column i of ``right`` is a right eigenvector and row i of ``left`` a
    left eigenvector (plain transpose, no conjugation) of the i-th selected
    eigenvalue.  ``pairing[i]`` is the conditioning scalar
    ``left[i] @ right[:, i]``, bounded away from zero for simple
    eigenvalues.  The columns and rows of real eigenvalues are exactly
    real: the arrays are real when every eigenvalue is, and otherwise carry
    +0.0 imaginary parts there.
    """

    right: np.ndarray
    left: np.ndarray
    pairing: np.ndarray


def eigen_triple(m, ev, vecs, idx) -> Eigenpairs:
    """Unit right/left eigenvectors of the eigenvalues ``ev[idx]`` of ``m``.

    ``(ev, vecs)`` is the decomposition ``eig_all(m, vectors=True)``, which
    has validated ``m``, and ``idx`` selects eigenvalues by position (in
    practice the tracked positions from the disc labeling).  Right
    eigenvectors are columns of ``vecs`` and left eigenvectors the matching
    rows of its inverse, so before normalisation ``w^T v = 1``; after it
    the pairing ``w^T v`` is positive up to rounding.  Both residuals
    ``||m v - ev[i] v||`` and ``||w^T m - ev[i] w^T||`` are verified against
    RES_FACTOR * ||m||_F.  All selected eigenvalues are handled together as
    columns (right) and rows (left) of one array; the checks still hold for
    every one separately, and the first that fails one raises.

    The residuals and tolerance are computed with ``m`` and ``ev`` scaled
    by the power of two of :func:`unit_exponent` of ``m``, which leaves the
    eigenvectors as they are: the same bits as unscaled wherever nothing
    overflows or underflows, and checks that hold at every finite scale.

    Raises IllConditioned when |w^T v| < TOL_ORTHO or the eigenvector
    matrix is singular (near-defective), and NoConvergence when a residual
    is too large.
    """
    a = np.asarray(m, dtype=float)
    exp = unit_exponent(a)
    a = np.ldexp(a, -exp)
    value = np.asarray(ev, dtype=complex)[idx]
    value = np.ldexp(value.view(float), -exp).view(complex)  # both parts scaled
    try:
        w = np.linalg.inv(vecs)[idx]
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"eigenvector matrix is singular: {exc}") from exc
    real = value.imag == 0.0
    v = vecs[:, idx]
    if np.iscomplexobj(v):
        v[:, real] = v[:, real].real
        w[real] = w[real].real
    v /= np.linalg.norm(v, axis=0)
    w /= np.linalg.norm(w, axis=1)[:, None]
    pairing = np.einsum("ij,ji->i", w, v)
    res_right = np.linalg.norm(a @ v - v * value, axis=0)
    res_left = np.linalg.norm(w @ a - value[:, None] * w, axis=1)
    tol = RES_FACTOR * np.linalg.norm(a)
    orthogonal = ~(np.abs(pairing) >= TOL_ORTHO)
    failed = np.flatnonzero(orthogonal | ~((res_right <= tol) & (res_left <= tol)))
    if failed.size:
        i = failed[0]
        if orthogonal[i]:
            raise IllConditioned(
                f"left/right eigenvectors nearly orthogonal: |w^T v| = {abs(pairing[i]):.3e}"
            )
        raise NoConvergence(
            f"eigenpair residuals {res_right[i]:.3e}/{res_left[i]:.3e} exceed {tol:.3e}"
        )
    return Eigenpairs(right=v, left=w, pairing=pairing)


def check_conditioning(a) -> None:
    """Raise SingularSystem when the condition number of ``a`` exceeds
    1 / PIVOT_FACTOR, judged by its singular values."""
    a = as_square_matrix(a)
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"solve failed: {exc}") from exc
    if not sv[-1] > PIVOT_FACTOR * sv[0]:
        raise SingularSystem(
            f"smallest singular value {sv[-1]:.3e} below {PIVOT_FACTOR:.0e} times "
            f"the largest {sv[0]:.3e}"
        )


def solve_linear(a, rhs) -> np.ndarray:
    """Solve ``a @ s = rhs`` by LAPACK's LU with partial pivoting.

    The solution must meet the backward-stable bound
    TOL_LIN * (||rhs|| + ||a|| * ||s||) on its residual; beyond that, or
    when LAPACK finds an exactly singular pivot, the system is reported
    singular.  Ill-conditioned but solvable matrices pass: callers that
    must reject them run :func:`check_conditioning` on ``a`` first.  The
    system is solved and checked with ``a`` and ``rhs`` each scaled by the
    power of two of :func:`unit_exponent`, and the solution scaled back:
    the same bits as unscaled wherever nothing overflows or underflows, and
    a bound that holds at every finite scale.
    """
    a = as_square_matrix(a)
    b = as_vector(rhs, a.shape[0])
    exp_a, exp_b = unit_exponent(a), unit_exponent(b)
    a, b = np.ldexp(a, -exp_a), np.ldexp(b, -exp_b)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"solve failed: {exc}") from exc
    residual = np.linalg.norm(a @ x - b)
    stable = TOL_LIN * (np.linalg.norm(b) + np.linalg.norm(a) * np.linalg.norm(x))
    if not residual <= stable:
        raise SingularSystem(
            f"solve residual {residual:.3e} exceeds the backward-stable bound {stable:.3e}"
        )
    return np.ldexp(x, exp_b - exp_a)

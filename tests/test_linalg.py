"""Tests for the dense linear algebra layer."""

import math

import numpy as np
import pytest

from giep.errors import IllConditioned, NoConvergence, SingularSystem
from giep.linalg import check_conditioning, eig_all, eigen_triple, solve_linear


def pairs_at(a, idx=None):
    """Eigenpairs of ``a`` at positions ``idx`` of its sorted eigenvalues (default all)."""
    ev, vecs = eig_all(a, vectors=True)
    return eigen_triple(a, ev, vecs, np.arange(ev.size) if idx is None else idx)


def test_eig_rotation_block():
    # characteristic polynomial x^2 + 1
    ev = eig_all([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(sorted(ev, key=lambda z: z.imag), [-1j, 1j], atol=1e-14)


def test_eig_triangular_is_diagonal():
    ev = eig_all(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(ev, [1.0, 2.0, 3.0], atol=1e-14)
    assert np.all(ev.imag == 0.0)


def test_eig_companion_golden_ratio():
    # companion matrix of x^2 - x - 1; roots (1 +/- sqrt(5)) / 2
    ev = eig_all([[0.0, 1.0], [1.0, 1.0]])
    expected = sorted([(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2])
    assert np.allclose(sorted(ev.real), expected, atol=1e-14)
    assert np.all(ev.imag == 0.0)


def test_eig_conjugate_closure_bit_exact():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        ev = eig_all(rng.standard_normal((n, n)) * 3)
        plus = sorted((z for z in ev if z.imag > 0), key=lambda z: (z.real, z.imag))
        minus = sorted((z for z in ev if z.imag < 0), key=lambda z: (z.real, -z.imag))
        assert len(plus) == len(minus)
        for a, b in zip(plus, minus):
            assert a.real == b.real and a.imag == -b.imag


def test_eig_trace_and_determinant_identities():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n)) * rng.uniform(0.2, 5.0)
        ev = eig_all(a)
        tr = float(np.trace(a))
        assert abs(ev.sum().real - tr) <= 1e-9 * (1 + abs(tr))
        assert abs(ev.sum().imag) <= 1e-9 * (1 + abs(tr))
        det = np.linalg.det(a)
        assert abs(np.prod(ev).real - det) <= 1e-8 * (1 + abs(det))


def test_eig_rejects_nonfinite_and_nonsquare():
    for vectors in (False, True):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                eig_all(np.array([[1.0, bad], [0.0, 1.0]]), vectors=vectors)
    with pytest.raises(ValueError):
        eig_all(np.ones((2, 3)))


def test_eig_rejects_complex_arrays():
    # eigenvalues -0.5 + i and 0.5 - i: casting to float dropped the
    # imaginary parts and gave the rotation block's +-i
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for m in (rotation * (1 + 0.5j), rotation.astype(complex)):
        for vectors in (False, True):
            with pytest.raises(ValueError, match="^matrix entries must be real, got a complex array$"):
                eig_all(m, vectors=vectors)


def _assert_unit_eigenpair(a, eig, i, value, pairing_modulus):
    """Phase-invariant checks of eigenpair i: both eigen-equations at the exact
    eigenvalue ``value``, unit norms, |w^T v|."""
    a = np.asarray(a)
    right, left, pairing = eig.right[:, i], eig.left[i], eig.pairing[i]
    assert np.linalg.norm(a @ right - value * right) < 1e-12
    assert np.linalg.norm(left @ a - value * left) < 1e-12
    assert abs(np.linalg.norm(right) - 1.0) < 1e-14
    assert abs(np.linalg.norm(left) - 1.0) < 1e-14
    assert abs(abs(pairing) - pairing_modulus) < 1e-12
    assert abs(pairing - complex(left @ right)) < 1e-15


def test_eigen_triple_rotation_pair():
    a = [[1.0, 2.0], [-2.0, 1.0]]
    eig = pairs_at(a, [1, 0])  # eigenvalues sort as 1-2i, 1+2i
    _assert_unit_eigenpair(a, eig, 0, 1 + 2j, 1.0)  # normal matrix: |w^T v| = 1
    _assert_unit_eigenpair(a, eig, 1, 1 - 2j, 1.0)


def test_eigen_triple_non_normal_pairing_is_shared():
    # upper triangular: both eigenvalues see the same |w^T v| = 1/sqrt(2)
    a = [[1.0, 1.0], [0.0, 2.0]]
    eig = pairs_at(a)
    _assert_unit_eigenpair(a, eig, 0, 1.0, 1 / math.sqrt(2))
    _assert_unit_eigenpair(a, eig, 1, 2.0, 1 / math.sqrt(2))


def test_eigen_triple_diagonal_real_path():
    eig = pairs_at(np.diag([5.0, 7.0]), [1])
    _assert_unit_eigenpair(np.diag([5.0, 7.0]), eig, 0, 7.0, 1.0)
    assert not np.iscomplexobj(eig.right) and not np.iscomplexobj(eig.left)
    assert np.allclose(eig.right[:, 0], [0.0, 1.0], atol=1e-10)
    assert np.allclose(eig.left[0], [0.0, 1.0], atol=1e-10)
    assert abs(eig.pairing[0] - 1.0) < 1e-10


def test_eigen_triple_cross_checks_eig_all():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        ev = eig_all(a)
        eig = pairs_at(a)
        for i, value in enumerate(ev):
            right, left = eig.right[:, i], eig.left[i]
            # residuals of both sides against eig_all's eigenvalue
            assert np.linalg.norm(a @ right - value * right) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(a.T @ left - value * left) <= 1e-10 * np.linalg.norm(a)
        # on the same decomposition scaled by a power of two, past where sums
        # of squares overflow, the checks pass and the vectors stay the same
        ev, vecs = eig_all(a, vectors=True)
        for j in (-1000, 1000):
            scaled = eigen_triple(2.0**j * a, 2.0**j * ev, vecs, np.arange(5))
            assert np.array_equal(scaled.right, eig.right) and np.array_equal(scaled.left, eig.left)
            assert np.array_equal(scaled.pairing, eig.pairing)


def test_eigen_triple_real_eigenvalue_gives_real_vectors():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    a = a + a.T  # symmetric: all eigenvalues real
    eig = pairs_at(a)
    assert np.all(eig_all(a).imag == 0.0)
    assert not np.iscomplexobj(eig.right) and not np.iscomplexobj(eig.left)


def test_eigen_triple_real_columns_exactly_real_beside_complex_ones():
    # one complex pair and one real eigenvalue: the real one's vectors carry
    # exactly zero imaginary parts in the complex arrays
    a = np.array([[1.0, 2.0, 0.5], [-2.0, 1.0, 0.0], [0.3, 0.0, 7.0]])
    ev, vecs = eig_all(a, vectors=True)
    eig = eigen_triple(a, ev, vecs, [1, 2])
    assert ev[1].imag > 0.0 and ev[2].imag == 0.0
    assert np.all(eig.right[:, 1].imag == 0.0) and np.all(eig.left[1].imag == 0.0)
    assert np.any(eig.right[:, 0].imag != 0.0)


def test_eigen_triple_near_defective_raises():
    a = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-12]])
    with pytest.raises(IllConditioned):
        pairs_at(a, [0])


def test_eigen_triple_wrong_vectors_fail_residual():
    # eigenvectors of another matrix: the pairs are consistent with each
    # other (w^T v = 1) but not eigenpairs of a, so the residual check fails,
    # at every scale: above 1e154 ||a||_F overflowed and turned the check off
    for scale in (1e-300, 1.0, 1e300):
        a = np.diag([5.0, 7.0]) * scale
        ev = eig_all(a)
        with pytest.raises(NoConvergence):
            eigen_triple(a, ev, np.array([[1.0, 1.0], [0.0, 1.0]]), [1])


def test_eigen_triple_wrong_complex_vectors_fail_residual():
    # the same with complex eigenvectors of another matrix, whose residual
    # products are complex, for a rotation block at every scale
    _, other = np.linalg.eig(np.array([[0.0, 2.0], [-1.0, 0.0]]))
    for scale in (1e-300, 1.0, 1e300):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]]) * scale
        ev = eig_all(a)
        with pytest.raises(NoConvergence):
            eigen_triple(a, ev, other.copy(), [0, 1])


def test_solve_identity():
    assert np.allclose(solve_linear(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_solve_diagonal():
    x = solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)


def test_solve_residual_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        b = rng.standard_normal(6)
        x = solve_linear(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)
        # powers of two scale the solution exactly, far past where the
        # norms' sums of squares overflow or underflow
        for i, j in ((-1000, 0), (1000, 0), (0, 1000), (-500, 500)):
            assert np.array_equal(solve_linear(2.0**i * a, 2.0**j * b), 2.0 ** (j - i) * x)


def test_solve_singular_raises():
    with pytest.raises(SingularSystem):
        solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
    with pytest.raises(SingularSystem):
        solve_linear(np.zeros((2, 2)), [1.0, 1.0])
    with pytest.raises(SingularSystem):  # condition number ~4e15 > 1 / PIVOT_FACTOR
        check_conditioning([[1.0, 1.0], [1.0, 1.0 + 1e-15]])


def test_linear_algebra_rejects_nonfinite_and_misshapen_inputs():
    for call in (check_conditioning, lambda a: solve_linear(a, [1.0, 1.0])):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            call([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^expected a vector of length 2, got shape \(3,\)$"):
        solve_linear(np.eye(2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        solve_linear(np.eye(2), [1.0, np.inf])


def test_check_conditioning_is_the_only_svd(monkeypatch):
    with pytest.raises(SingularSystem, match="smallest singular value"):
        check_conditioning([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    check_conditioning(np.eye(2))

    def no_svd(*args, **kwargs):
        raise AssertionError("singular values in a linear solve")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    x = solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)
    with pytest.raises(SingularSystem):  # LAPACK's failed LU is still reported
        solve_linear(np.zeros((2, 2)), [1.0, 1.0])


def refuse(message):
    """A stand-in for a numpy.linalg routine whose LAPACK call fails."""
    def call(*args, **kwargs):
        raise np.linalg.LinAlgError(message)

    return call


def test_lapack_failures_raise_typed_errors(monkeypatch):
    """A LAPACK failure on a finite input is reported as the typed error of
    its routine, with LAPACK's message."""
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    monkeypatch.setattr(np.linalg, "eigvals", refuse("Eigenvalues did not converge"))
    monkeypatch.setattr(np.linalg, "eig", refuse("Eigenvalues did not converge"))
    for vectors in (False, True):
        with pytest.raises(NoConvergence) as info:
            eig_all(a, vectors=vectors)
        assert str(info.value) == "eigenvalue iteration failed: Eigenvalues did not converge"
    monkeypatch.setattr(np.linalg, "svd", refuse("SVD did not converge"))
    with pytest.raises(SingularSystem) as info:
        check_conditioning(a)
    assert str(info.value) == "solve failed: SVD did not converge"


def test_eigen_triple_refuses_a_singular_eigenvector_matrix():
    a = np.diag([5.0, 7.0])
    with pytest.raises(IllConditioned) as info:
        eigen_triple(a, eig_all(a), np.array([[1.0, 1.0], [0.0, 0.0]]), [0])
    assert str(info.value) == "eigenvector matrix is singular: Singular matrix"


def test_solve_refuses_a_solution_past_the_backward_stable_bound(monkeypatch):
    """A solution whose residual exceeds TOL_LIN * (||b|| + ||a|| ||x||) is
    reported singular, though LAPACK returned it."""
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.zeros_like(b))
    with pytest.raises(SingularSystem) as info:
        solve_linear(np.eye(2), [0.5, 0.0])  # a right side that the scaling leaves as it is
    assert str(info.value) == "solve residual 5.000e-01 exceeds the backward-stable bound 5.000e-13"

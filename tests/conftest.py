"""Shared test helpers: independent oracles and random instance generators."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from giep import Graph, IllConditioned, NoConvergence, Pattern, Spectrum, build_seed, make_graph
from giep.linalg import (
    TOL_ORTHO,
    Eigenpairs,
    check_conditioning,
    eig_all,
    eigen_triple,
    solve_linear,
)
from giep.model import DiscSystem, assemble, label_eigenvalues
from giep.solver import MAX_NEWTON, jacobian_xyz


def brute_force_matching_size(g: Graph) -> int:
    """Maximum matching size by bitmask dynamic programming (independent of blossom).

    Enumerates, for every set of still-available vertices, the choice of
    leaving the lowest vertex unmatched or pairing it with each available
    neighbor.  Exact for n <= ~20; used here for n <= 10.
    """
    n = g.n
    pairs = g.bidirected_pairs()
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a - 1].append(b - 1)
        adj[b - 1].append(a - 1)

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        result = best(rest)
        for u in adj[v]:
            if rest & (1 << u):
                result = max(result, 1 + best(rest & ~(1 << u)))
        return result

    size = best((1 << n) - 1)
    best.cache_clear()
    return size


def random_undirected_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Plain G(n, p) without any planted structure."""
    pairs = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if rng.uniform() < p
    ]
    return make_graph(n, pairs, directed=False)


def eigen_derivative(eig: Eigenpairs, b) -> list[complex]:
    """Rate of change of every eigenvalue in ``eig`` along matrix direction ``b``.

    The dense first-order identity zeta_i = (w_i^T b v_i) / (w_i^T v_i),
    the oracle for the solver's table-driven Jacobian; the caller reads the
    real part as the real-coordinate rate and the imaginary part as the
    imaginary rate.  For a real eigenvalue the result is real.
    """
    b = np.asarray(b, dtype=float)
    rates = []
    for i, pairing in enumerate(eig.pairing):
        if abs(pairing) < TOL_ORTHO:
            raise IllConditioned(f"derivative undefined: |w^T v| = {abs(pairing):.3e}")
        rates.append(complex(eig.left[i] @ b @ eig.right[:, i]) / complex(pairing))
    return rates


def edge_positions(p: Pattern) -> set[tuple[int, int]]:
    """All off-diagonal positions the assembled matrix may fill (1-based)."""
    pos = {
        q
        for j in range(1, p.k + 1)
        for q in ((2 * j - 1, 2 * j), (2 * j, 2 * j - 1))
    }
    for (i, j), bi in zip(p.slots, p.bidirected):
        pos.add((i, j))
        if bi:
            pos.add((j, i))
    return pos


def newton_every_iterate(
    p: Pattern, d: DiscSystem, theta: np.ndarray, target: np.ndarray, tol: float
) -> tuple[np.ndarray, int, float, np.ndarray]:
    """Full Newton on (x, y, z), with a fresh Jacobian from one ``eig`` with
    eigenvectors on every iterate: the oracle for the solver's chord
    iteration.  Returns (theta, iterations, residual, eigs), where residual
    is the vector target - coordinates."""
    for it in range(MAX_NEWTON + 1):
        mtx = assemble(p, theta)
        ev, vecs = eig_all(mtx, vectors=True)
        coords, idx = label_eigenvalues(ev, d)
        residual_vec = target - coords
        residual = float(np.abs(residual_vec).max())
        if residual <= tol:
            return theta, it, residual_vec, ev
        if it == MAX_NEWTON:
            break
        jac = jacobian_xyz(p, eigen_triple(mtx, ev, vecs, idx))
        check_conditioning(jac)
        theta = theta.copy()
        theta[: p.n] += solve_linear(jac, residual_vec)
    raise NoConvergence(f"newton residual {residual:.3e} above {tol:.3e}")


def second_order_shift_dense(p: Pattern, s: Spectrum, fills: np.ndarray) -> np.ndarray:
    """Second-order coordinate shift from a dense eigendecomposition of the
    seed: sum_{b != a} G_ab G_ba / (lam_a - lam_b) with G = V^-1 F V, where
    F holds the fills and V the seed's right eigenvectors from
    ``np.linalg.eig``; the oracle for the solver's closed form.  Returns
    (lam, mu, gamma) coordinates: the tracked plus shifts' real and
    imaginary parts, then the real shifts."""
    seed = build_seed(s)
    f = assemble(p, np.concatenate([s.target_coordinates(), fills])) - seed
    lam, vecs = np.linalg.eig(seed)
    g = np.linalg.solve(vecs, f @ vecs)
    gap = np.subtract.outer(lam, lam)
    np.fill_diagonal(gap, np.inf)
    shift = (g * g.T / gap).sum(axis=1)
    idx = label_eigenvalues(lam, s.discs)[1]
    plus, real = shift[idx[: s.k]], shift[idx[s.k :]]
    return np.concatenate([plus.real, plus.imag, real.real])

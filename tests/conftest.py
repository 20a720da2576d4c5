"""Shared test helpers: independent oracles and random instance generators."""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

from giep import Graph, Spectrum, make_graph
from giep.errors import IllConditioned, MatchingTooSmall, NoConvergence
from giep.graph import Matching, Relabeling, check_matching
from giep.linalg import (
    TOL_ORTHO,
    Eigenpairs,
    check_conditioning,
    eig_all,
    eigen_triple,
    solve_linear,
)
from giep.model import Pattern, assemble, label_eigenvalues
from giep.solver import MAX_NEWTON, jacobian_xyz


def bidirected_pairs(g: Graph) -> list[tuple[int, int]]:
    """Unordered pairs {a,b} present in both directions, sorted."""
    return sorted({(min(a, b), max(a, b)) for a, b in g.edges if (b, a) in g.edges})


def apply_vertex(relab: Relabeling, v: int) -> int:
    """The new label of old vertex ``v``."""
    return relab.perm[v - 1]


def apply_matrix(relab: Relabeling, m: np.ndarray) -> np.ndarray:
    """Relabel rows and columns old -> new: out[perm(i), perm(j)] = m[i, j];
    the inverse of :meth:`Relabeling.unapply_matrix`."""
    idx = np.asarray(relab.perm) - 1
    out = np.empty_like(np.asarray(m, dtype=float))
    out[np.ix_(idx, idx)] = m
    return out


def build_seed(s: Spectrum) -> np.ndarray:
    """The block-diagonal seed matrix realizing the spectrum exactly."""
    return assemble(Pattern(n=s.n, k=s.k), s.target_coordinates())


def brute_force_matching_size(g: Graph) -> int:
    """Maximum matching size by bitmask dynamic programming (independent of blossom).

    Enumerates, for every set of still-available vertices, the choice of
    leaving the lowest vertex unmatched or pairing it with each available
    neighbor.  Exact for n <= ~20; used here for n <= 10.
    """
    n = g.n
    pairs = bidirected_pairs(g)
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
    p: Pattern, s: Spectrum, theta: np.ndarray, target: np.ndarray, tol: float
) -> tuple[np.ndarray, int, float, np.ndarray]:
    """Full Newton on (x, y, z), with a fresh Jacobian from one ``eig`` with
    eigenvectors on every iterate: the oracle for the solver's chord
    iteration.  Returns (theta, iterations, residual, eigs), where residual
    is the vector target - coordinates."""
    for it in range(MAX_NEWTON + 1):
        mtx = assemble(p, theta)
        ev, vecs = eig_all(mtx, vectors=True)
        coords, idx = label_eigenvalues(ev, s)
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
    idx = label_eigenvalues(lam, s)[1]
    plus, real = shift[idx[: s.k]], shift[idx[s.k :]]
    return np.concatenate([plus.real, plus.imag, real.real])


# ---------------------------------------------------------------------------
# Matching and relabeling oracles: the Python-loop versions the array code
# must reproduce exactly


def loop_max_matching(g: Graph) -> Matching:
    """Edmonds' blossom search from every exposed vertex in increasing order,
    over sorted adjacency, with no direct-neighbour shortcut."""
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in bidirected_pairs(g):
        adj[a].append(b)
        adj[b].append(a)
    for v in range(1, n + 1):
        adj[v].sort()

    match = [0] * (n + 1)  # 0 = unmatched; vertices are 1-based

    def augment_from(root: int) -> bool:
        parent = [0] * (n + 1)
        base = list(range(n + 1))
        in_queue = [False] * (n + 1)
        queue: deque[int] = deque([root])
        in_queue[root] = True

        def lowest_common_base(a: int, b: int) -> int:
            seen = [False] * (n + 1)
            x = a
            while True:
                x = base[x]
                seen[x] = True
                if match[x] == 0:
                    break
                x = parent[match[x]]
            y = b
            while True:
                y = base[y]
                if seen[y]:
                    return y
                y = parent[match[y]]

        def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
            while base[v] != stem:
                in_blossom[base[v]] = True
                in_blossom[base[match[v]]] = True
                parent[v] = child
                child = match[v]
                v = parent[match[v]]

        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != 0 and parent[match[to]] != 0):
                    stem = lowest_common_base(v, to)
                    in_blossom = [False] * (n + 1)
                    mark_path(v, stem, to, in_blossom)
                    mark_path(to, stem, v, in_blossom)
                    for i in range(1, n + 1):
                        if in_blossom[base[i]]:
                            base[i] = stem
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == 0:
                    parent[to] = v
                    if match[to] == 0:
                        u = to
                        while u != 0:
                            pv = parent[u]
                            nxt = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = nxt
                        return True
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        queue.append(match[to])
        return False

    for v in range(1, n + 1):
        if match[v] == 0:
            augment_from(v)
    return Matching(pairs=tuple(sorted((v, match[v]) for v in range(1, n + 1) if match[v] > v)))


def loop_plan_relabeling(g: Graph, matching: Matching, k: int) -> tuple[Relabeling, Pattern]:
    """Relabeling and fill slots built through sets and per-edge loops."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_matching(g, matching)
    if matching.size < k:
        raise MatchingTooSmall(
            f"need a matching of size k={k}, but the graph's matching has "
            f"size {matching.size}"
        )
    n = g.n
    chosen = sorted(matching.pairs)[:k]
    perm = [0] * n
    for j, (a, b) in enumerate(chosen, start=1):
        perm[a - 1] = 2 * j - 1
        perm[b - 1] = 2 * j
    rest = [v for v in range(1, n + 1) if perm[v - 1] == 0]
    for pos, v in enumerate(rest, start=2 * k + 1):
        perm[v - 1] = pos
    relab = Relabeling(perm=tuple(perm))

    matched_edges = {(a, b) for a, b in chosen} | {(b, a) for a, b in chosen}
    new_edges = {
        (perm[a - 1], perm[b - 1]) for a, b in g.edges if (a, b) not in matched_edges
    }
    slots: list[tuple[int, int]] = []
    flags: list[bool] = []
    for i, j in sorted(new_edges):
        if i > j:
            if (j, i) in new_edges:
                continue
            slots.append((i, j))
            flags.append(False)
        else:
            slots.append((i, j))
            flags.append((j, i) in new_edges)
    return relab, Pattern(n=n, k=k, slots=tuple(slots), bidirected=tuple(flags))


def loop_pattern_check(n: int, k: int, slots, bidirected) -> None:
    """Pattern's validation rules, slot by slot through sets; raises the
    ValueError the first offending slot earns."""
    if n < 1 or k < 0 or 2 * k > n:
        raise ValueError(f"invalid sizes n={n}, k={k}")
    if len(slots) != len(bidirected):
        raise ValueError("slots and bidirected flags must align")
    block = {pos for j in range(1, k + 1) for pos in ((2 * j - 1, 2 * j), (2 * j, 2 * j - 1))}
    seen_pairs: set[tuple[int, int]] = set()
    for (i, j), bi in zip(slots, bidirected):
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"slot ({i},{j}) out of range or on the diagonal")
        if (i, j) in block:
            raise ValueError(f"slot ({i},{j}) collides with a matched block")
        if bi and i >= j:
            raise ValueError(f"bidirected slot ({i},{j}) must have i < j")
        key = (min(i, j), max(i, j))
        if key in seen_pairs:
            raise ValueError(f"duplicate slot for pair {{{i},{j}}}")
        seen_pairs.add(key)

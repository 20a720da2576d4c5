"""Shared test helpers: independent oracles and random instance generators."""

from __future__ import annotations

import ctypes
import operator
from collections import deque
from functools import lru_cache

import numpy as np

from giep import Graph, Spectrum, make_graph
from giep.errors import BadFormat, IllConditioned, InputError, MatchingTooSmall, NoConvergence
from giep.linalg import (
    TOL_ORTHO,
    Eigenpairs,
    check_conditioning,
    eig_all,
    eigen_triple,
    solve_linear,
    unit_exponent,
)
from giep.model import Pattern, assemble, label_eigenvalues
from giep.solver import MAX_NEWTON, TOL_NEWTON_FACTOR, jacobian_xyz


def openblas_corename(symbol: str = "scipy_openblas_get_corename64_") -> str:
    """The CPU kernel numpy's bundled OpenBLAS picked at run time (for
    example SkylakeX, or Haswell under OPENBLAS_CORETYPE=Haswell), read
    through ctypes; "unknown" when numpy's BLAS does not export ``symbol``.
    The exact-output pins depend on it."""
    try:
        corename = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), symbol)
    except (AttributeError, OSError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def kernel_pin(pins: dict[str, str]) -> str:
    """The digest ``pins`` holds for the running OpenBLAS kernel; fails,
    naming the kernel, when it holds none."""
    kernel = openblas_corename()
    assert kernel in pins, f"no pin for OpenBLAS kernel {kernel}; pinned: {', '.join(pins)}"
    return pins[kernel]


def bidirected_pairs(g: Graph) -> list[tuple[int, int]]:
    """Unordered pairs {a,b} present in both directions, sorted."""
    return sorted({(min(a, b), max(a, b)) for a, b in g.edges if (b, a) in g.edges})


def build_seed(s: Spectrum) -> np.ndarray:
    """The block-diagonal seed matrix realizing the spectrum exactly."""
    return assemble(Pattern.from_slots(n=s.n, k=s.k), s.target_coordinates())


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


def loop_random_graph(rng: np.random.Generator, n: int, k: int, edge_prob: float) -> Graph:
    """``random_graph`` as a per-pair loop: one scalar draw for every vertex
    pair a < b, in row-major order, that the planted matching leaves free."""
    order = [int(v) + 1 for v in rng.permutation(n)]
    planted = {
        (min(a, b), max(a, b))
        for a, b in zip(order[0 : 2 * k : 2], order[1 : 2 * k : 2])
    }
    pairs = set(planted)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if (a, b) not in planted and rng.uniform() < edge_prob:
                pairs.add((a, b))
    return make_graph(n, sorted(pairs), directed=False)


def loop_random_spectrum(
    rng: np.random.Generator,
    k: int,
    l: int,
    box: float = 5.0,
    min_gap: float = 0.5,
    purely_imaginary: bool = False,
) -> Spectrum:
    """``random_spectrum`` checking every candidate point: a real value, or
    a pair's value and its conjugate, each against the placed points and
    the conjugate against the value too."""
    if k < 0 or l < 0 or 2 * k + l < 1:
        raise ValueError("need 2k+l >= 1")
    points: list[complex] = []

    def fits(cands: list[complex]) -> bool:
        for i, c in enumerate(cands):
            if any(abs(c - q) < min_gap for q in points):
                return False
            if any(abs(c - q) < min_gap for q in cands[:i]):
                return False
        return True

    reals = []
    for _ in range(l):
        for _attempt in range(10_000):
            gam = 0.0 if purely_imaginary else float(rng.uniform(-box, box))
            if fits([complex(gam)]):
                points.append(complex(gam))
                reals.append(gam)
                break
        else:
            raise InputError("could not place a real spectrum value; box too crowded")
    pairs = []
    for _ in range(k):
        for _attempt in range(10_000):
            lam = 0.0 if purely_imaginary else float(rng.uniform(-box, box))
            mu = float(rng.uniform(min_gap / 2.0, box))
            cand = [complex(lam, mu), complex(lam, -mu)]
            if fits(cand):
                points.extend(cand)
                pairs.append((lam, mu))
                break
        else:
            raise InputError("could not place a spectrum pair; box too crowded")
    return Spectrum(pairs=tuple(pairs), reals=tuple(reals))


def mask_pattern_failures(a: np.ndarray, g: Graph, floor: float) -> list[tuple]:
    """``verify``'s pattern check as separate edge, stray and below-floor
    masks over an edge mask built from the edge set; (i, j, value,
    expected) per offending position, row-major, 1-based."""
    n = a.shape[0]
    edge = np.zeros((n, n), dtype=bool)
    if g.edges:
        rows, cols = np.array(list(g.edges)).T - 1
        edge[rows, cols] = True
    stray = (a != 0.0) & ~edge
    np.fill_diagonal(stray, False)
    bad = (edge & (np.abs(a) < floor)) | stray
    return [
        (int(i) + 1, int(j) + 1, float(a[i, j]), "nonzero" if edge[i, j] else "zero")
        for i, j in np.argwhere(bad)
    ]


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


def pattern_slots(p: Pattern) -> tuple[tuple[int, int], ...]:
    """The pattern's slots as 1-based (i, j) tuples, as ``Pattern.from_slots`` takes them."""
    return tuple(zip((p.rows + 1).tolist(), (p.cols + 1).tolist()))


def edge_positions(p: Pattern) -> set[tuple[int, int]]:
    """All off-diagonal positions the assembled matrix may fill (1-based)."""
    pos = {
        q
        for j in range(1, p.k + 1)
        for q in ((2 * j - 1, 2 * j), (2 * j, 2 * j - 1))
    }
    for (i, j), bi in zip(pattern_slots(p), p.bidirected.tolist()):
        pos.add((i, j))
        if bi:
            pos.add((j, i))
    return pos


def newton_every_iterate(
    p: Pattern, s: Spectrum, theta: np.ndarray
) -> tuple[np.ndarray, int, float, np.ndarray]:
    """Full Newton on (x, y, z), with a fresh Jacobian from one ``eig`` with
    eigenvectors on every iterate, to the solver's target and Newton
    tolerance: the oracle for the solver's chord iteration.  Returns (theta,
    iterations, residual, eigs), where residual is the vector target -
    coordinates."""
    target, tol = s.target_coordinates(), TOL_NEWTON_FACTOR * s.scale
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


def solution_curve_dense(p: Pattern, s: Spectrum, fills: np.ndarray) -> np.ndarray:
    """The solution curve's coefficients (c2, c3, c4) from a dense
    eigendecomposition of the seed, as the rows of a 3 x n array: the
    oracle for the solver's closed forms.  G = V^-1 F V, where F holds the
    fills and V the seed's right eigenvectors from ``np.linalg.eig``, and
    R_ab = 1/(lam_a - lam_b) off the diagonal, 0 on it.  The
    Rayleigh-Schroedinger sums with G_aa = 0 are summed term by term,

        E2_a = sum_b G_ab G_ba R_ab,
        E3_a = sum_bc G_ab G_bc G_ca R_ab R_ac,
        E4_a = sum_bcd G_ab G_bc G_cd G_da R_ab R_ac R_ad - E2_a sum_b G_ab G_ba R_ab^2,

    and c2 = E2, c3 = E3 and c4 = E4 - (dE2/dlam) E2, where the derivative
    of E2_a along the shifts E2 is -sum_b G_ab G_ba (E2_a - E2_b) R_ab^2.
    Each row holds (lam, mu, gamma) coordinates: the tracked plus
    coefficients' real and imaginary parts, then the real ones."""
    seed = build_seed(s)
    f = assemble(p, np.concatenate([s.target_coordinates(), fills])) - seed
    lam, vecs = np.linalg.eig(seed)
    g = np.linalg.solve(vecs, f @ vecs)
    gap = np.subtract.outer(lam, lam)
    np.fill_diagonal(gap, np.inf)
    r = 1.0 / gap
    e2 = np.einsum("ab,ba,ab->a", g, g, r)
    e3 = np.einsum("ab,bc,ca,ab,ac->a", g, g, g, r, r)
    e4 = np.einsum("ab,bc,cd,da,ab,ac,ad->a", g, g, g, g, r, r, r)
    e4 -= e2 * np.einsum("ab,ba,ab,ab->a", g, g, r, r)
    de2 = -np.einsum("ab,ba,ab,ab,ab->a", g, g, r, r, np.subtract.outer(e2, e2))
    idx = label_eigenvalues(lam, s)[1]
    curve = np.stack([e2, e3, e4 - de2])
    plus, real = curve[:, idx[: s.k]], curve[:, idx[s.k :]]
    return np.concatenate([plus.real, plus.imag, real.real], axis=1)


def second_order_shift_reference(p: Pattern, s: Spectrum, fills: np.ndarray) -> np.ndarray:
    """The second-order shift, c2 of ``solver.solution_curve`` before its
    non-finite coordinates are set to NaN, as it was first written: vertex
    tables of length n, then the COO terms of every fill entry grouped by a
    stable argsort and paired with their transposes by ``searchsorted``.
    The solver's dense coupling must give the same bits."""
    n, k = p.n, p.k
    vertex = np.arange(n)
    owner = vertex.repeat(2).reshape(n, 2)
    owner[: 2 * k] = vertex[: 2 * k, None] // 2 + [0, k]
    vco = np.ones((n, 2), dtype=complex)
    vco[1 : 2 * k : 2] = [1j, -1j]
    vco[2 * k :, 1] = 0.0
    wco = vco.conj() * np.where(vertex < 2 * k, 0.5, 1.0)[:, None]

    e = p.entries
    fill = slice(np.searchsorted(e.param, n), None)
    r, c = e.rows[fill], e.cols[fill]
    value = e.coef[fill] * fills[e.param[fill] - n]
    exp = unit_exponent(value)
    value = np.ldexp(value, -exp)
    g_part = wco[r][:, :, None] * value[:, None, None] * vco[c][:, None, :]
    key = (owner[r][:, :, None] * n + owner[c][:, None, :]).ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    first = np.flatnonzero(first)
    keys = key[first]
    g = np.add.reduceat(g_part.ravel()[order], first)

    a, b = np.divmod(keys, n)
    twin = b * n + a
    mate = np.minimum(np.searchsorted(keys, twin), keys.size - 1)
    paired = keys[mate] == twin
    a, b = a[paired], b[paired]
    lam = s.values()
    gap = np.ldexp((lam[a] - lam[b]).view(float), -exp).view(complex)
    term = g[paired] * g[mate[paired]] / gap
    shift = np.bincount(a, term.real, n) + 1j * np.bincount(a, term.imag, n)
    with np.errstate(over="ignore"):
        return np.ldexp(np.concatenate([shift[:k].real, shift[:k].imag, shift[2 * k :].real]), exp)


# ---------------------------------------------------------------------------
# Graph oracles: the per-edge check and the set-based formatter


def loop_graph_check(n: int, directed: bool, edges) -> tuple[list, list, list]:
    """Graph's checks edge by edge in the set's order: integer labels, then
    no loop, then the range, then for an undirected graph the reverse.
    Raises the ValueError of the first offending edge; otherwise returns the
    sorted edges as (tails, heads, whether the reverse is an edge)."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    for a, b in edges:
        try:
            operator.index(a), operator.index(b)
        except TypeError:
            raise ValueError(f"edge ({a!r},{b!r}): vertices must be integers") from None
        if a == b:
            raise ValueError(f"loop edge ({a},{a}) not allowed")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge ({a},{b}) out of range 1..{n}")
        if not directed and (b, a) not in edges:
            raise ValueError(f"undirected graph missing reverse of ({a},{b})")
    listed = sorted(edges)
    return [a for a, _ in listed], [b for _, b in listed], [(b, a) in edges for a, b in listed]


def set_format_graph(g: Graph) -> str:
    """``format_graph`` from the edge set: every ordered pair if directed,
    each undirected edge once as (min, max), sorted."""
    if g.directed:
        listed = sorted(g.edges)
    else:
        listed = sorted({(min(a, b), max(a, b)) for a, b in g.edges})
    head = f"{g.n} {len(listed)} {'directed' if g.directed else 'undirected'}"
    return "\n".join([head] + [f"{a} {b}" for a, b in listed]) + "\n"


# ---------------------------------------------------------------------------
# Matching and relabeling oracles: the Python-loop versions the array code
# must reproduce exactly


def loop_max_matching(g: Graph) -> tuple[tuple[int, int], ...]:
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
    return tuple(sorted((v, match[v]) for v in range(1, n + 1) if match[v] > v))


def full_search_max_matching(g: Graph) -> tuple[tuple[int, int], ...]:
    """``graph.max_matching`` before it skipped searches: a blossom search
    from every exposed vertex without an exposed neighbour, and a scan over
    all n vertices at every blossom contraction."""
    n = g.n
    tail, head, both = g.edge_arrays
    neighbours = head[both].tolist()
    starts = np.searchsorted(tail[both], np.arange(n + 2)).tolist()
    adj = [neighbours[starts[v] : starts[v + 1]] for v in range(n + 1)]

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
                    # Odd cycle: contract the blossom to its base vertex.
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
                        # Augment along the alternating path root..to.
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
            free = next((to for to in adj[v] if match[to] == 0), 0)
            if free:
                match[v], match[free] = free, v
            else:
                augment_from(v)
    return tuple((v, match[v]) for v in range(1, n + 1) if match[v] > v)


def loop_plan_relabeling(g: Graph, pairs, k: int) -> tuple[np.ndarray, Pattern]:
    """The permutation and fill slots built through sets and per-pair and
    per-edge loops; the pairs are checked one by one."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    seen: set[int] = set()
    for a, b in pairs:
        if a >= b:
            raise ValueError(f"matching pair ({a},{b}) must be stored (min,max)")
        if a in seen or b in seen:
            raise ValueError(f"matching pairs are not vertex-disjoint at {{{a},{b}}}")
        seen.update((a, b))
    for a, b in pairs:
        if not (g.has_edge(a, b) and g.has_edge(b, a)):
            raise ValueError(f"matching pair {{{a},{b}}} is not a bidirected edge")
    if len(pairs) < k:
        raise MatchingTooSmall(
            f"need a matching of size k={k}, but the graph's matching has "
            f"size {len(pairs)}"
        )
    n = g.n
    chosen = sorted(pairs)[:k]
    perm = [0] * n
    for j, (a, b) in enumerate(chosen, start=1):
        perm[a - 1] = 2 * j - 1
        perm[b - 1] = 2 * j
    rest = [v for v in range(1, n + 1) if perm[v - 1] == 0]
    for pos, v in enumerate(rest, start=2 * k + 1):
        perm[v - 1] = pos

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
    order = np.array(perm, dtype=np.intp) - 1  # order[old - 1] = new - 1
    return order, Pattern.from_slots(n=n, k=k, slots=tuple(slots), bidirected=tuple(flags))


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


# ---------------------------------------------------------------------------
# Matrix format oracles: one f-string per entry, one list comprehension per row


def loop_format_matrix_csv(m) -> str:
    a = np.asarray(m, dtype=float)
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in a) + "\n"


def loop_parse_matrix_csv(text: str) -> np.ndarray:
    rows = []
    for no, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            rows.append([float(tok) for tok in ln.split(",")])
        except ValueError as exc:
            raise BadFormat(f"line {no}: not a numeric row") from exc
    if not rows:
        raise BadFormat("empty matrix document")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise BadFormat("rows have inconsistent lengths")
    a = np.array(rows, dtype=float)
    if not np.isfinite(a).all():
        raise BadFormat("matrix entries must be finite")
    return a


def loop_format_matrix_market(m) -> str:
    """``format_matrix_market`` as a loop over every entry, row by row."""
    a = np.asarray(m, dtype=float)
    rows, cols = a.shape
    entries = [
        f"{i + 1} {j + 1} {a[i, j]:.17g}"
        for i in range(rows)
        for j in range(cols)
        if a[i, j] != 0.0
    ]
    head = ["%%MatrixMarket matrix coordinate real general", f"{rows} {cols} {len(entries)}"]
    return "\n".join(head + entries) + "\n"


def outer_duplicate(pairs, reals) -> str | None:
    """The DegenerateSpectrum message of the n-by-n comparison of every
    point with every later one, or None for distinct points."""
    points = np.array(
        [complex(a, b) for a, b in pairs] + [complex(a, -b) for a, b in pairs] + list(reals),
        dtype=complex,
    )
    points.real = [a for a, _ in pairs] * 2 + list(reals)  # keeps -0.0 real parts
    repeated = np.triu(np.equal.outer(points, points), 1).any(axis=1)
    if not repeated.any():
        return None
    return f"duplicate spectrum value {points[repeated.argmax()]}"

"""Graph ingestion, maximum matching, and matching-aligned relabeling.

Graphs are loopless and use 1-based vertex labels.  Undirected graphs are
stored bidirected (both ordered directions present), so a single edge set
representation serves both kinds.  A matching may only use bidirected
edges; in directed graphs an edge counts toward a matching only when its
reverse is present too.

``plan_relabeling`` permutes the vertices so that a chosen matching lands
on the label pairs (1,2), (3,4), ..., (2k-1,2k) — the layout the solver's
parameterized matrix family assumes — and emits the leftover edges as the
ordered fill slots of a :class:`~giep.model.Pattern`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BadFormat, MatchingTooSmall
from .model import Pattern


@dataclass(frozen=True)
class Graph:
    """A loopless graph on vertices 1..n with an ordered-pair edge set.

    For ``directed=False`` the edge set is closed under reversal.
    """

    n: int
    directed: bool
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"loop edge ({a},{a}) not allowed")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a},{b}) out of range 1..{self.n}")
            if not self.directed and (b, a) not in self.edges:
                raise ValueError(f"undirected graph missing reverse of ({a},{b})")

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.edges


def make_graph(n: int, pairs, directed: bool = False) -> Graph:
    """Build a Graph from a list of edges, rejecting duplicates.

    For undirected graphs ``pairs`` lists each edge once (either order);
    a repeated pair, including the reversed copy, is a duplicate.
    """
    edges: set[tuple[int, int]] = set()
    for a, b in pairs:
        a, b = int(a), int(b)
        if directed:
            if (a, b) in edges:
                raise ValueError(f"duplicate edge ({a},{b})")
            edges.add((a, b))
        else:
            if (a, b) in edges or (b, a) in edges:
                raise ValueError(f"duplicate edge {{{a},{b}}}")
            edges.add((a, b))
            edges.add((b, a))
    return Graph(n=n, directed=directed, edges=frozenset(edges))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: ``n m directed|undirected`` then m lines ``a b``.

    Accepts LF or CRLF line endings; blank lines are ignored.  Raises
    BadFormat on malformed lines, out-of-range vertices, loops, or
    duplicate edges.
    """
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise BadFormat("empty graph document")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise BadFormat(f"line {no}: header must be 'n m directed|undirected'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise BadFormat(f"line {no}: sizes must be integers") from exc
    if parts[2] not in ("directed", "undirected"):
        raise BadFormat(f"line {no}: expected 'directed' or 'undirected', got {parts[2]!r}")
    directed = parts[2] == "directed"
    if n < 1 or m < 0:
        raise BadFormat(f"line {no}: invalid sizes n={n}, m={m}")
    if len(lines) - 1 != m:
        raise BadFormat(f"expected {m} edge lines, found {len(lines) - 1}")
    pairs = []
    for no, ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise BadFormat(f"line {no}: expected 'a b'")
        try:
            a, b = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise BadFormat(f"line {no}: vertices must be integers") from exc
        if a == b:
            raise BadFormat(f"line {no}: loop edge ({a},{a})")
        if not (1 <= a <= n and 1 <= b <= n):
            raise BadFormat(f"line {no}: vertex out of range 1..{n}")
        pairs.append((a, b))
    try:
        return make_graph(n, pairs, directed=directed)
    except ValueError as exc:
        raise BadFormat(str(exc)) from exc


def format_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph` (undirected edges listed once, sorted)."""
    if g.directed:
        listed = sorted(g.edges)
    else:
        listed = sorted({(min(a, b), max(a, b)) for a, b in g.edges})
    head = f"{g.n} {len(listed)} {'directed' if g.directed else 'undirected'}"
    return "\n".join([head] + [f"{a} {b}" for a, b in listed]) + "\n"


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint unordered pairs, each stored as (min, max)."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for a, b in self.pairs:
            if a >= b:
                raise ValueError(f"matching pair ({a},{b}) must be stored (min,max)")
            if a in seen or b in seen:
                raise ValueError(f"matching pairs are not vertex-disjoint at {{{a},{b}}}")
            seen.update((a, b))

    @property
    def size(self) -> int:
        return len(self.pairs)


def check_matching(g: Graph, m: Matching) -> None:
    """Raise ValueError unless every pair of ``m`` is a bidirected edge of ``g``."""
    for a, b in m.pairs:
        if not (g.has_edge(a, b) and g.has_edge(b, a)):
            raise ValueError(f"matching pair {{{a},{b}}} is not a bidirected edge")


def _edge_array(g: Graph) -> np.ndarray:
    """The edges of ``g`` as an (m, 2) array of 1-based (tail, head) rows,
    in no particular order."""
    return np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * len(g.edges)).reshape(-1, 2)


def _has_reverse(key: np.ndarray, reverse: np.ndarray) -> np.ndarray:
    """Which of ``reverse`` occur in the sorted edge keys ``key``."""
    at = np.minimum(np.searchsorted(key, reverse), key.size - 1)
    return key[at] == reverse


def max_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching over the bidirected subgraph (Edmonds).

    Blossom contraction handles odd cycles, where pure augmenting-path
    search undercounts.  Vertices are scanned in increasing order with
    sorted adjacency, so the result is deterministic for a fixed input.
    An exposed vertex with an exposed neighbour is matched to the first
    one in its adjacency directly: that one-edge path is the first
    augmenting path the search from the vertex would find, since it scans
    the vertex's own neighbours before any other vertex.  Only a vertex
    whose neighbours are all matched runs the search.
    """
    n = g.n
    e = _edge_array(g)
    key = np.sort(e[:, 0] * (n + 1) + e[:, 1])  # edges in (tail, head) order
    tail, head = np.divmod(key, n + 1)
    both = _has_reverse(key, head * (n + 1) + tail)
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
    pairs = tuple(
        sorted((v, match[v]) for v in range(1, n + 1) if match[v] > v)
    )
    return Matching(pairs=pairs)


@dataclass(frozen=True)
class Relabeling:
    """A vertex permutation; ``perm[old-1] = new``."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ValueError("perm must be a bijection on 1..n")

    def unapply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Inverse relabeling new -> old: out[i, j] = m[perm(i), perm(j)]."""
        idx = np.asarray(self.perm) - 1
        m = np.asarray(m, dtype=float)
        return m[np.ix_(idx, idx)]


def plan_relabeling(g: Graph, matching: Matching, k: int) -> tuple[Relabeling, Pattern]:
    """Send k matched pairs to labels (1,2)..(2k-1,2k) and emit fill slots.

    Matched pairs are ordered by their minimum vertex label and the smaller
    vertex of each pair takes the odd position; vertices not consumed by
    the first k pairs fill labels 2k+1..n in ascending old-label order.
    Every edge outside the chosen pairs becomes a slot in new labels:
    bidirected residual edges yield one slot (i, j) with i < j, while
    one-directional residual edges keep their direction.

    Raises MatchingTooSmall when the matching has fewer than k pairs.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_matching(g, matching)
    if matching.size < k:
        raise MatchingTooSmall(
            f"need a matching of size k={k}, but the graph's matching has "
            f"size {matching.size}"
        )
    n = g.n
    chosen = np.array(sorted(matching.pairs)[:k], dtype=np.intp).reshape(-1, 2)
    perm = np.zeros(n, dtype=np.intp)
    perm[chosen.ravel() - 1] = np.arange(1, 2 * k + 1)
    perm[perm == 0] = np.arange(2 * k + 1, n + 1)
    relab = Relabeling(perm=tuple(perm.tolist()))

    i, j = perm[_edge_array(g) - 1].T
    # a chosen pair's two edges are the only ones inside a block (2b-1, 2b)
    matched = (np.maximum(i, j) <= 2 * k) & ((i - 1) // 2 == (j - 1) // 2)
    key = np.sort(i[~matched] * (n + 1) + j[~matched])  # residual edges in (i, j) order
    i, j = np.divmod(key, n + 1)
    bidirected = _has_reverse(key, j * (n + 1) + i)
    # a bidirected edge is one slot (i, j) with i < j; a one-way edge keeps its direction
    slot = (i < j) | ~bidirected
    pattern = Pattern(
        n=n,
        k=k,
        slots=tuple(zip(i[slot].tolist(), j[slot].tolist())),
        bidirected=tuple(bidirected[slot].tolist()),
    )
    return relab, pattern

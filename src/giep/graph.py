"""Graph ingestion, maximum matching, and matching-aligned relabeling.

Graphs are loopless and use 1-based vertex labels.  Undirected graphs are
stored bidirected (both ordered directions present), so a single edge set
representation serves both kinds.  A matching may only use bidirected
edges; in directed graphs an edge counts toward a matching only when its
reverse is present too.

``max_matching`` returns a matching as the sorted tuple of its pairs
(a, b), a < b.  ``plan_relabeling`` permutes the vertices so that k of
those pairs land on the label pairs (1,2), (3,4), ..., (2k-1,2k) — the
layout the solver's parameterized matrix family assumes — and emits the
leftover edges as the ordered fill slots of a :class:`~giep.model.Pattern`,
built from their arrays.
The permutation is an index array: ``order[old - 1]`` is the old vertex's
0-based new index.

:func:`parse_graph` checks each edge line once, in one loop, and fills the
:class:`Graph` from the edge set it gathers without checking it again.
:func:`make_graph` reads its pairs by a loop too, and
``Graph(n, directed, edges)`` checks its edges by one, whatever collection
holds them, and keeps them as a frozenset.  The sorted, read-only (tail,
head, reverse) arrays are kept as :attr:`Graph.edge_arrays`.
``max_matching``, ``plan_relabeling``, :func:`format_graph` and
:func:`giep.apps.verify` read the arrays; membership tests read the set.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import BadFormat, MatchingTooSmall
from .model import Pattern


@dataclass(frozen=True)
class Graph:
    """A loopless graph on vertices 1..n with an ordered-pair edge set.

    For ``directed=False`` the edge set is closed under reversal.
    ``edge_arrays`` holds the edges sorted by (tail, head) as read-only
    1-based ``tail`` and ``head`` arrays, with ``reverse`` flagging each
    edge whose reverse is an edge too; ``n`` is kept as a Python int.
    ``edges`` may be any collection of pairs, a list or a generator too:
    it is read once and kept as a frozenset of tuples.  Raises ValueError
    for an n that :func:`_vertex_count` refuses, then for an item that is
    no pair, and then for the first fault that :func:`_edge_error`, the
    per-edge loop that is the one check of the edges, finds: in the
    collection's own order, or in ``repr`` order for a set or frozenset.
    """

    n: int
    directed: bool
    edges: frozenset[tuple[int, int]]
    edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = _vertex_count(self.n)
        pairs = list(map(_pair, self.edges))  # every item is a pair before any label is read
        if (error := _edge_error(pairs, n, self.directed)) is not None:
            if isinstance(self.edges, (set, frozenset)):  # name one edge under every hash seed
                error = _edge_error(sorted(pairs, key=repr), n, self.directed)
            raise error
        _set_fields(self, n, self.directed, frozenset(pairs))

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.edges


_INTP_MAX = np.iinfo(np.intp).max


def _vertex_count(n) -> int:
    """``n`` as a Python int; ValueError when it is no integer, below 1 or
    too large for intp keys a * (n + 1) + b."""
    try:
        count = operator.index(n)
    except TypeError:
        raise ValueError(f"vertex count n={n!r} must be an integer") from None
    if count < 1:
        raise ValueError("graph needs at least one vertex")
    if count * (count + 2) > _INTP_MAX:  # the largest key, n * (n + 1) + n
        raise ValueError(f"vertex count n={count} is too large")
    return count


def _set_fields(g: Graph, n: int, directed: bool, edges: frozenset) -> Graph:
    """Set ``g``'s fields from the vertex count ``n``, ``directed`` and the
    checked ``edges``, with their read-only (tail, head, reverse) arrays
    sorted by the keys a * (n + 1) + b; returns ``g``."""
    e = np.fromiter(map(operator.index, chain.from_iterable(edges)), np.intp, 2 * len(edges))
    ordered = np.sort(e[0::2] * (n + 1) + e[1::2])
    tail, head = np.divmod(ordered, n + 1)
    twin = head * (n + 1) + tail
    reverse = ordered[np.minimum(np.searchsorted(ordered, twin), ordered.size - 1)] == twin
    for x in (tail, head, reverse):
        x.setflags(write=False)
    for name, value in (("n", n), ("directed", directed), ("edges", edges),
                        ("edge_arrays", (tail, head, reverse))):
        object.__setattr__(g, name, value)
    return g


def _edge_error(pairs: list[tuple], n: int, directed: bool) -> ValueError | None:
    """The error of the first pair, in the list's order, with a label that is
    no integer, a loop, a label outside 1..n or, when undirected, no
    reverse, checked in that order; or None."""
    try:
        edges = set(pairs)
    except TypeError:  # an unhashable label, which is no integer: the loop names it
        edges = pairs
    for a, b in pairs:
        try:
            operator.index(a), operator.index(b)
        except TypeError:
            return _label_error(a, b)
        if a == b:
            return ValueError(f"loop edge ({a},{a}) not allowed")
        if not (1 <= a <= n and 1 <= b <= n):
            return ValueError(f"edge ({a},{b}) out of range 1..{n}")
        if not directed and (b, a) not in edges:
            return ValueError(f"undirected graph missing reverse of ({a},{b})")


def _pair(edge) -> tuple:
    """``edge`` unpacked as (a, b); ValueError when it is no pair."""
    try:
        a, b = edge
    except (TypeError, ValueError):  # no iterable, or not two items
        raise ValueError("every edge must be a pair of vertices") from None
    return a, b


def _label_error(a, b) -> ValueError:
    return ValueError(f"edge ({a!r},{b!r}): vertices must be integers")


def make_graph(n: int, pairs, directed: bool = False) -> Graph:
    """Build a Graph from a list of edges, rejecting duplicates.

    For undirected graphs ``pairs`` lists each edge once (either order);
    a repeated pair, including the reversed copy, is a duplicate.  Vertex
    labels must be integers (anything ``operator.index`` accepts); a float
    or a string raises ValueError naming the pair, as does a non-pair.

    The pairs are read one by one in listing order: the first item that is
    no pair, has a label that is no integer or repeats an earlier pair
    raises ValueError; the :class:`Graph` built from the rest raises its own
    checks' errors.
    """
    edges: set[tuple[int, int]] = set()
    for a, b in map(_pair, pairs):
        try:
            a, b = operator.index(a), operator.index(b)
        except TypeError:
            raise _label_error(a, b) from None
        if (a, b) in edges:  # an undirected set holds both directions of each edge
            raise ValueError("duplicate edge " + (f"({a},{b})" if directed else f"{{{a},{b}}}"))
        edges.add((a, b))
        if not directed:
            edges.add((b, a))
    return Graph(n=n, directed=directed, edges=frozenset(edges))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: ``n m directed|undirected`` then m lines ``a b``.

    Accepts LF, CRLF or lone CR line endings; blank lines are ignored.  Raises
    BadFormat on malformed lines, out-of-range vertices, loops, or
    duplicate edges: every line's own error, in line order, before the
    first duplicate, and then an n too large for :class:`Graph`.  One loop
    reads each edge line's labels as ``int`` reads them and checks the line.
    """
    rows = [(no, row) for no, ln in enumerate(text.splitlines(), start=1) if (row := ln.split())]
    if not rows:
        raise BadFormat("empty graph document")
    no, parts = rows[0]
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
    if len(rows) - 1 != m:
        raise BadFormat(f"expected {m} edge lines, found {len(rows) - 1}")
    edges: set[tuple[int, int]] = set()  # an undirected set holds both directions of each edge
    duplicate = None
    for no, toks in rows[1:]:
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
        if duplicate is None and (a, b) in edges:
            duplicate = "duplicate edge " + (f"({a},{b})" if directed else f"{{{a},{b}}}")
        edges.add((a, b))
        if not directed:
            edges.add((b, a))
    if duplicate is not None:
        raise BadFormat(duplicate)
    try:
        n = _vertex_count(n)
    except ValueError as exc:
        raise BadFormat(str(exc)) from exc
    return _set_fields(object.__new__(Graph), n, directed, frozenset(edges))


def format_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph` (undirected edges listed once, sorted)."""
    tail, head, _ = g.edge_arrays
    if not g.directed:  # each undirected edge once, as (a, b) with a < b
        once = tail < head
        tail, head = tail[once], head[once]
    lines = [f"{g.n} {tail.size} {'directed' if g.directed else 'undirected'}"]
    lines += [f"{a} {b}" for a, b in zip(tail.tolist(), head.tolist())]
    return "\n".join(lines) + "\n"


def max_matching(g: Graph) -> tuple[tuple[int, int], ...]:
    """Maximum-cardinality matching over the bidirected subgraph (Edmonds),
    as vertex-disjoint pairs (a, b) with a < b, sorted.

    Blossom contraction handles odd cycles, where pure augmenting-path
    search undercounts.  Vertices are scanned in increasing order with
    sorted adjacency, so the result is deterministic for a fixed input.
    An exposed vertex with an exposed neighbour is matched to the first
    one in its adjacency directly: that one-edge path is the first
    augmenting path the search from the vertex would find, since it scans
    the vertex's own neighbours before any other vertex.  Only a vertex
    whose neighbours are all matched runs the search, and only when its
    component holds another exposed vertex, which every augmenting path
    from it ends at.  A blossom contraction scans every vertex in
    increasing order and moves those whose base the blossom absorbs to its
    base.
    """
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

    # exposed vertices per component; every vertex is exposed before the first match
    component, exposed = _components(adj)
    for v in range(1, n + 1):
        if match[v] == 0:
            free = next((to for to in adj[v] if match[to] == 0), 0)
            if free:
                match[v], match[free] = free, v
            # an augmenting path from v ends at another exposed vertex of its component
            elif exposed[component[v]] < 2 or not augment_from(v):
                continue
            exposed[component[v]] -= 2
    return tuple((v, match[v]) for v in range(1, n + 1) if match[v] > v)


def _components(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Component labels of the vertices v >= 1 of the graph ``adj`` and the
    size of each component, indexed by label."""
    component, size = [0] * len(adj), [0]
    for v in range(1, len(adj)):
        if not component[v]:
            component[v] = label = len(size)
            members = [v]
            for u in members:  # grows as the search reaches new vertices
                for to in adj[u]:
                    if not component[to]:
                        component[to] = label
                        members.append(to)
            size.append(len(members))
    return component, size


def plan_relabeling(g: Graph, pairs, k: int) -> tuple[np.ndarray, Pattern]:
    """Send k matched pairs to labels (1,2)..(2k-1,2k) and emit fill slots.

    ``pairs`` is a matching of ``g`` as :func:`max_matching` returns it:
    vertex-disjoint pairs (a, b), a < b, each a bidirected edge, in any
    order.  The pairs with the k smallest first vertices are chosen, and
    the smaller vertex of each takes the odd label; vertices outside the
    chosen pairs fill labels 2k+1..n in ascending old-label order.  Every
    edge outside the chosen pairs becomes a slot in new labels: bidirected
    residual edges yield one slot (i, j) with i < j, while one-directional
    residual edges keep their direction.

    Returns ``(order, pattern)``, where ``order[old - 1]`` is the 0-based
    new index of vertex ``old``; ``m[order[:, None], order]`` takes a matrix
    in new labels back to the old ones.  The slots come out as 0-based
    arrays sorted by (row, column), which meet every rule of
    :class:`~giep.model.Pattern` by construction and become the pattern's
    arrays unchecked.

    Raises ValueError for a negative k or a pair that is out of order,
    shares a vertex with an earlier pair or is not a bidirected edge, and
    MatchingTooSmall when there are fewer than k pairs.  Every pair's order
    and disjointness are checked before any pair's edge.
    """
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
        if (a, b) not in g.edges or (b, a) not in g.edges:
            raise ValueError(f"matching pair {{{a},{b}}} is not a bidirected edge")
    if len(pairs) < k:
        raise MatchingTooSmall(
            f"need a matching of size k={k}, but the graph's matching has "
            f"size {len(pairs)}"
        )
    n = g.n
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    chosen = pairs[pairs[:, 0].argsort(kind="stable")[:k]].ravel() - 1
    order = np.empty(n, dtype=np.intp)
    rest = np.ones(n, dtype=bool)
    rest[chosen] = False
    order[chosen] = np.arange(2 * k)
    order[rest] = np.arange(2 * k, n)

    tail, head, reverse = g.edge_arrays
    i, j = order[tail - 1], order[head - 1]
    # a chosen pair's two edges are the only ones inside a block (2b, 2b+1)
    residual = ~((np.maximum(i, j) < 2 * k) & (i // 2 == j // 2))
    by_slot = (i[residual] * n + j[residual]).argsort(kind="stable")
    i, j, reverse = (x[residual][by_slot] for x in (i, j, reverse))
    # a bidirected edge is one slot (i, j) with i < j; a one-way edge keeps its
    # direction.  The slots are valid by construction: off the diagonal and
    # the blocks, one per vertex pair, and i < j where bidirected.
    slot = (i < j) | ~reverse
    return order, Pattern(n, k, i[slot], j[slot], reverse[slot])

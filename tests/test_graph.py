"""Tests for graph parsing, blossom matching, and relabeling."""

import numpy as np
import pytest

from giep import make_graph, parse_graph
from giep.errors import BadFormat, MatchingTooSmall
from giep.graph import Matching, Relabeling, format_graph, max_matching, plan_relabeling
from giep.model import Pattern
from conftest import (
    apply_matrix,
    apply_vertex,
    bidirected_pairs,
    brute_force_matching_size,
    edge_positions,
    loop_max_matching,
    loop_pattern_check,
    loop_plan_relabeling,
    random_undirected_graph,
)


def test_parse_undirected():
    g = parse_graph("3 2 undirected\n1 2\n2 3")
    assert g.n == 3 and not g.directed
    assert g.edges == frozenset({(1, 2), (2, 1), (2, 3), (3, 2)})


def test_parse_directed():
    g = parse_graph("2 1 directed\n1 2")
    assert g.edges == frozenset({(1, 2)})


def test_parse_crlf_and_blank_lines():
    g = parse_graph("3 2 undirected\r\n1 2\r\n\r\n2 3\r\n")
    assert g.edges == frozenset({(1, 2), (2, 1), (2, 3), (3, 2)})


@pytest.mark.parametrize(
    "text",
    [
        "2 1 undirected\n1 1",            # loop
        "2 1 undirected\n1 3",            # out of range
        "2 2 undirected\n1 2\n2 1",       # duplicate (reversed counts)
        "2 2 directed\n1 2\n1 2",         # duplicate directed
        "2 1 mixed\n1 2",                 # bad kind
        "2 1 undirected",                 # missing edge line
        "2 1 undirected\n1 2\n2 1",       # extra edge line
        "x y undirected\n",               # non-integer header
        "",                               # empty
        "2 1 undirected\n1 two",          # non-integer vertex
    ],
)
def test_parse_rejects(text):
    with pytest.raises(BadFormat):
        parse_graph(text)


def test_parse_allows_directed_both_ways():
    g = parse_graph("2 2 directed\n1 2\n2 1")
    assert g.edges == frozenset({(1, 2), (2, 1)})
    assert bidirected_pairs(g) == [(1, 2)]


def test_format_graph_round_trip():
    g = make_graph(4, [(1, 2), (2, 3), (1, 4)])
    assert parse_graph(format_graph(g)) == g
    dg = make_graph(3, [(1, 2), (2, 1), (3, 1)], directed=True)
    assert parse_graph(format_graph(dg)) == dg


def test_matching_path4():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    m = max_matching(g)
    assert m.size == 2
    assert m.pairs == ((1, 2), (3, 4))


def test_matching_triangle():
    g = make_graph(3, [(1, 2), (2, 3), (3, 1)])
    assert max_matching(g).size == 1


def test_matching_petersen_is_perfect():
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    spokes = [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    g = make_graph(10, outer + inner + spokes)
    m = max_matching(g)
    assert m.size == 5
    assert brute_force_matching_size(g) == 5


def test_matching_needs_blossoms():
    # two triangles joined by a bridge: greedy non-blossom search can miss size 3
    g = make_graph(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4)])
    assert max_matching(g).size == 3


def test_matching_ignores_one_directional_edges():
    g = make_graph(4, [(1, 2), (2, 1), (3, 4)], directed=True)
    m = max_matching(g)
    assert m.pairs == ((1, 2),)


def test_matching_matches_brute_force_on_randoms():
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(1, 11))
        g = random_undirected_graph(rng, n, float(rng.uniform(0, 1)))
        m = max_matching(g)
        # validity: disjoint and made of edges
        used = [v for pair in m.pairs for v in pair]
        assert len(used) == len(set(used))
        for a, b in m.pairs:
            assert g.has_edge(a, b) and g.has_edge(b, a)
        assert m.size == brute_force_matching_size(g)


def test_matching_deterministic():
    rng = np.random.default_rng(29)
    g = random_undirected_graph(rng, 9, 0.5)
    assert max_matching(g) == max_matching(g)


def test_plan_relabeling_path3():
    g = make_graph(3, [(1, 2), (2, 3)])
    relab, pattern = plan_relabeling(g, Matching(pairs=((2, 3),)), k=1)
    assert relab.perm == (3, 1, 2)  # 1->3, 2->1, 3->2
    assert pattern.n == 3 and pattern.k == 1 and pattern.l == 1
    # residual edge {1,2} lands on new labels {3,1}
    assert pattern.slots == ((1, 3),)
    assert pattern.bidirected == (True,)


def test_plan_relabeling_path4_identity():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    relab, pattern = plan_relabeling(g, Matching(pairs=((1, 2), (3, 4))), k=2)
    assert relab.perm == (1, 2, 3, 4)
    assert pattern.slots == ((2, 3),)
    assert pattern.bidirected == (True,)


def test_plan_relabeling_too_small():
    g = make_graph(3, [(1, 2), (2, 3), (3, 1)])
    m = max_matching(g)
    with pytest.raises(MatchingTooSmall):
        plan_relabeling(g, m, k=2)


def test_plan_relabeling_directed_residuals():
    g = make_graph(3, [(1, 2), (2, 1), (1, 3)], directed=True)
    relab, pattern = plan_relabeling(g, max_matching(g), k=1)
    assert relab.perm == (1, 2, 3)
    assert pattern.slots == ((1, 3),)
    assert pattern.bidirected == (False,)


def test_plan_relabeling_puts_matching_on_leading_pairs():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        g = random_undirected_graph(rng, n, 0.5)
        m = max_matching(g)
        k = int(rng.integers(0, m.size + 1))
        relab, pattern = plan_relabeling(g, m, k)
        new_edges = {(apply_vertex(relab, a), apply_vertex(relab, b)) for a, b in g.edges}
        for j in range(1, k + 1):
            assert (2 * j - 1, 2 * j) in new_edges and (2 * j, 2 * j - 1) in new_edges
        # slots plus matched blocks account for every edge
        expect = edge_positions(pattern)
        assert new_edges == expect


def test_relabeling_matrix_round_trip():
    rng = np.random.default_rng(53)
    perm = (3, 1, 4, 2)
    relab = Relabeling(perm=perm)
    m = rng.standard_normal((4, 4))
    assert np.array_equal(relab.unapply_matrix(apply_matrix(relab, m)), m)
    assert np.array_equal(apply_matrix(relab, relab.unapply_matrix(m)), m)
    # entry mapping: applied[perm(i), perm(j)] == m[i, j]
    applied = apply_matrix(relab, m)
    assert applied[perm[0] - 1, perm[1] - 1] == m[0, 1]


def test_relabeling_validates():
    with pytest.raises(ValueError):
        Relabeling(perm=(1, 1, 2))
    with pytest.raises(ValueError):
        Relabeling(perm=(2, 3))


# ---------------------------------------------------------------------------
# The array matching and relabeling against their loop oracles


def oracle_graphs(seed: int, count: int):
    """Fixed corner graphs, then ``count`` seeded graphs cycling through
    four kinds: sparse undirected, directed with one-way edges, dense
    undirected, and chains of odd cycles (blossoms) with random chords."""
    rng = np.random.default_rng(seed)
    yield make_graph(1, [])
    yield make_graph(1, [], directed=True)
    yield make_graph(6, [])
    yield make_graph(4, [(1, 2)], directed=True)
    for case in range(count):
        kind = case % 4
        n = int(rng.integers(3 if kind == 3 else 1, 25))
        if kind == 0:
            yield random_undirected_graph(rng, n, float(rng.uniform(0.0, 0.4)))
        elif kind == 1:
            prob = float(rng.uniform(0.0, 0.6))
            pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                     if a != b and rng.uniform() < prob]
            yield make_graph(n, pairs, directed=True)
        elif kind == 2:
            yield random_undirected_graph(rng, n, float(rng.uniform(0.6, 1.0)))
        else:
            order = [int(v) + 1 for v in rng.permutation(n)]
            edges, start = set(), 0
            while n - start >= 3:
                size = int(rng.choice([3, 5, 7]))
                cycle = order[start : start + size]
                edges.update(frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1]) if len(set(e)) == 2)
                if start:
                    edges.add(frozenset((order[start - 1], cycle[0])))
                start += size
            for _ in range(int(rng.integers(0, n + 1))):
                a, b = (int(v) + 1 for v in rng.choice(n, 2, replace=False))
                edges.add(frozenset((a, b)))
            yield make_graph(n, [tuple(e) for e in edges])


def outcome(fn, *args):
    """``fn``'s result, or the type and message of the exception it raised."""
    try:
        return repr(fn(*args))
    except (ValueError, MatchingTooSmall) as exc:
        return type(exc).__name__, str(exc)


def test_matching_and_relabeling_match_loop_oracles():
    rng = np.random.default_rng(71)
    graphs = 0
    for g in oracle_graphs(67, 2000):
        graphs += 1
        m = max_matching(g)
        want = loop_max_matching(g)
        assert repr(m) == repr(want)  # Python ints, same pairs in the same order
        ks = {0, m.size, m.size + 1, int(rng.integers(0, m.size + 1))}
        for k in sorted(ks):
            assert outcome(plan_relabeling, g, m, k) == outcome(loop_plan_relabeling, g, m, k)
        # a shuffled sub-matching: other pairs land on the blocks
        keep = [pair for pair in m.pairs if rng.uniform() < 0.7]
        sub = Matching(pairs=tuple(keep[i] for i in rng.permutation(len(keep))))
        k = int(rng.integers(0, sub.size + 1))
        assert outcome(plan_relabeling, g, sub, k) == outcome(loop_plan_relabeling, g, sub, k)
    assert graphs >= 2000
    # pairs that are not bidirected edges, and a negative k
    g = make_graph(4, [(1, 2), (3, 4)], directed=True)
    for m, k in ((Matching(pairs=((1, 2),)), 1), (Matching(pairs=((1, 3),)), 0), (max_matching(g), -1)):
        assert outcome(plan_relabeling, g, m, k) == outcome(loop_plan_relabeling, g, m, k)
        assert isinstance(outcome(plan_relabeling, g, m, k), tuple)


def pattern_outcome(n, k, slots, flags):
    try:
        p = Pattern(n=n, k=k, slots=slots, bidirected=flags)
    except ValueError as exc:
        got = str(exc)
    else:
        got = repr(p)
    try:
        loop_pattern_check(n, k, slots, flags)
    except ValueError as exc:
        want = str(exc)
    else:
        want = repr(Pattern(n=n, k=k, slots=slots, bidirected=flags))
    return got, want


# every outcome of Pattern validation: accepted, and each rejection's message
PATTERN_OUTCOMES = ("Pattern(", "invalid sizes", "must align", "out of range",
                    "collides", "must have i < j", "duplicate slot")


def test_pattern_validation_matches_loop_oracle():
    rng = np.random.default_rng(73)
    kinds = set()
    for case in range(2500):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(-1, n // 2 + 2)) if case % 50 == 0 else int(rng.integers(0, n // 2 + 1))
        # labels from 0 to n+1 reach every rejection kind
        lo = 1 if case % 2 else 0
        m = int(rng.integers(0, 2 * n + 1))
        slots = tuple((int(a), int(b)) for a, b in rng.integers(lo, n + 2 - lo, size=(m, 2)))
        flags = tuple(bool(f) for f in rng.uniform(size=m) < 0.5)
        if case % 97 == 0:
            flags = flags[:-1]
        got, want = pattern_outcome(n, k, slots, flags)
        assert got == want
        kinds.update(kind for kind in PATTERN_OUTCOMES if kind in want)
    assert kinds == set(PATTERN_OUTCOMES)

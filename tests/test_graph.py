"""Tests for graph parsing, blossom matching, and relabeling."""

import numpy as np
import pytest

from giep import (
    BadFormat,
    Matching,
    MatchingTooSmall,
    Relabeling,
    format_graph,
    make_graph,
    max_matching,
    parse_graph,
    plan_relabeling,
)
from conftest import brute_force_matching_size, edge_positions, random_undirected_graph


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
    assert g.bidirected_pairs() == [(1, 2)]


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
        new_edges = {(relab.apply_vertex(a), relab.apply_vertex(b)) for a, b in g.edges}
        for j in range(1, k + 1):
            assert (2 * j - 1, 2 * j) in new_edges and (2 * j, 2 * j - 1) in new_edges
        # slots plus matched blocks account for every edge
        expect = edge_positions(pattern)
        assert new_edges == expect


def test_relabeling_matrix_round_trip():
    rng = np.random.default_rng(53)
    perm = (3, 1, 4, 2)
    inverse = (2, 4, 1, 3)
    relab = Relabeling(perm=perm, inverse=inverse)
    m = rng.standard_normal((4, 4))
    assert np.array_equal(relab.unapply_matrix(relab.apply_matrix(m)), m)
    assert np.array_equal(relab.apply_matrix(relab.unapply_matrix(m)), m)
    # entry mapping: applied[perm(i), perm(j)] == m[i, j]
    applied = relab.apply_matrix(m)
    assert applied[perm[0] - 1, perm[1] - 1] == m[0, 1]


def test_relabeling_validates():
    with pytest.raises(ValueError):
        Relabeling(perm=(1, 1, 2), inverse=(1, 2, 3))
    with pytest.raises(ValueError):
        Relabeling(perm=(2, 1), inverse=(1, 2))

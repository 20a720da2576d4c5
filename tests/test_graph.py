"""Tests for graph parsing, blossom matching, and relabeling."""

import os
import subprocess
import sys

import numpy as np
import pytest

import giep.graph
from giep import Graph, make_graph, parse_graph
from giep.errors import BadFormat, MatchingTooSmall
from giep.graph import format_graph, max_matching, plan_relabeling
from giep.model import Pattern
from giep.cli import random_graph
from conftest import (
    bidirected_pairs,
    brute_force_matching_size,
    edge_positions,
    full_search_max_matching,
    loop_graph_check,
    loop_make_graph,
    loop_max_matching,
    loop_parse_graph,
    loop_pattern_check,
    loop_plan_relabeling,
    pattern_slots,
    random_undirected_graph,
    set_format_graph,
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
        "2 1\n1 2",                       # header without a kind
        "0 0 undirected",                 # no vertex
        "2 -1 undirected",                # negative edge count
        "2 1 undirected\n1 2 3",          # three vertices on an edge line
        "3 1 directed\n3.0 1",            # labels int() refuses
        "3 1 directed\n0x3 1",
        "3 1 directed\n1 99999999999999999999",  # beyond intp: out of range, as int() reads it
        "3 1 directed\n-99999999999999999999 2",
        "3 3 directed\n1 2\n1 2\n1 1",     # a line error listed after a duplicate
        "3 3 undirected\n1 2\n2 1\n1 x",
        "3 2 undirected\n1 2\r\n2 1\r\n",  # a reversed duplicate, CRLF
        "9999999999 1 directed\n1 2",     # n too large for intp keys
    ],
)
def test_parse_rejects(text):
    """Each rejection carries the message of the line-by-line parse."""
    with pytest.raises(BadFormat) as info:
        parse_graph(text)
    assert str(info.value) == graph_result(loop_parse_graph, text)


@pytest.mark.parametrize(
    "n, directed, edges, message",
    [
        (0, True, (), "graph needs at least one vertex"),
        (2, True, ((1, 1),), "loop edge (1,1) not allowed"),
        (2, True, ((1, 3),), "edge (1,3) out of range 1..2"),
        (2, False, ((1, 2),), "undirected graph missing reverse of (1,2)"),
        (3, True, ((1, 2, 3),), "every edge must be a pair of vertices"),
        (4, True, ((1, 2, 3), (4,)), "every edge must be a pair of vertices"),
        (2.5, False, ((1, 2), (2, 1)), "vertex count n=2.5 must be an integer"),
        ("3", True, (), "vertex count n='3' must be an integer"),
        (2**70, True, ((1, 2),), f"vertex count n={2**70} is too large"),
        (3037000499, True, (), "vertex count n=3037000499 is too large"),
        (3, True, (5,), "every edge must be a pair of vertices"),
        (3, True, ((1, 1), (2, 4), 5), "every edge must be a pair of vertices"),
    ],
)
def test_graph_validates(n, directed, edges, message):
    with pytest.raises(ValueError) as info:
        Graph(n=n, directed=directed, edges=frozenset(edges))
    assert str(info.value) == message


def test_graph_names_the_same_edge_of_a_set_under_every_hash_seed():
    """A set's faults are checked in repr order, whatever order the hash
    seed gives the set; a list's in its own order."""
    code = ("from giep import Graph\n"
            "try:\n    Graph(3, True, frozenset({('a', 2), ('b', 3), ('c', 1)}))\n"
            "except ValueError as exc:\n    print(exc)")
    messages = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        for seed in ("1", "2", "4")  # each named another edge before
    }
    assert messages == {"edge ('a',2): vertices must be integers\n"}
    with pytest.raises(ValueError, match=r"^edge \('c',1\)"):
        Graph(3, True, [("c", 1), ("a", 2)])


def test_graph_stores_its_vertex_count_as_an_int():
    """numpy integers pass as n and are kept as Python ints; the largest n
    whose keys n * (n + 1) + b fit in int64 is accepted."""
    for n in (np.int64(3), np.uint8(3), 3):
        g = Graph(n=n, directed=True, edges=frozenset({(1, 3)}))
        assert type(g.n) is int and g.n == 3
    n = 3037000498
    g = Graph(n=n, directed=False, edges=frozenset({(1, n), (n, 1)}))
    assert g.edge_arrays[1].tolist() == [n, 1]


def graph_cases(seed: int, count: int):
    """Corner edge sets, then ``count`` seeded (n, directed, edges) cases,
    directed and undirected in turn: random pairs, a few loops, undirected
    sets that miss a few reverses, and in every third case one stray label,
    cycling through 0, -1, n+1, 2**70 and 1.5.  Every fifth case has numpy
    integer labels."""
    yield 1, False, frozenset()
    yield 1, True, frozenset()
    yield 0, True, frozenset()
    yield 3, True, frozenset({(2**70, 2**70)})
    yield 3, True, frozenset({(2**70, 2**71)})
    yield 3, False, frozenset({(1.5, 1.5)})
    yield 3, True, frozenset({(2**63, 1), (1, 2**63), (-(2**63) - 1, 2)})
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 8))
        directed = bool(case % 2)
        edges = set()
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            a, b = (int(v) for v in rng.integers(1, n + 1, size=2))
            if a == b and rng.uniform() < 0.9:
                continue
            if case % 5 == 0:
                a, b = np.intp(a), np.intp(b)
            edges.add((a, b))
            if not directed and rng.uniform() < 0.97:
                edges.add((b, a))
        if case % 3 == 0:
            stray = (0, -1, n + 1, 2**70, 1.5)[case // 3 % 5]
            other = int(rng.integers(1, n + 1))
            edges.add((stray, other) if rng.uniform() < 0.5 else (other, stray))
        yield n, directed, frozenset(edges)


def graph_outcome(check, n, directed, edges):
    """The edge arrays ``check`` accepts, as lists, or its ValueError's message."""
    try:
        arrays = check(n, directed, edges)
    except ValueError as exc:
        return str(exc)
    return [list(x) for x in arrays]


def graph_arrays(n, directed, edges):
    return [x.tolist() for x in Graph(n=n, directed=directed, edges=edges).edge_arrays]


def graph_result(build, *args):
    """The graph ``build`` returns, as its fields and edge arrays, or the
    message of the ValueError or BadFormat it raises."""
    try:
        g = build(*args)
    except (ValueError, BadFormat) as exc:
        return str(exc)
    return type(g.n), g.n, g.directed, g.edges, [x.tolist() for x in g.edge_arrays]


# corner documents: labels int() reads or refuses, tabs, line endings, repeats
# and rows of the wrong length
PARSE_CORNERS = (
    "3 2 directed\n+3 1\n1 +2",             # labels int() reads: a sign, an Arabic-Indic
    "3 1 directed\n\u0663 1",                # digit, an underscore
    "12 1 undirected\n1_0 1",
    "3 1 directed\n3.0 1",                  # and labels it refuses
    "3 1 directed\n0x3 1",
    "3 1 directed\n1 99999999999999999999",  # beyond intp
    "3\t2\tundirected\n1\t2\n 2 3\t",        # tabs
    "3 2 undirected\r1 2\r2 3\r",            # CR, CRLF and blank lines
    "\r\n3 2 undirected\r\n1 2\r\n\r\n2 3\r\n",
    "\n \n3 1 directed\n\n3 1\n\n",
    "3 3 directed\n1 2\n1 2\n1 1",           # a line error listed after a duplicate
    "3 3 directed\n1 2\n1 2\n1 4",
    "3 2 undirected\n1 2\n2 1",              # a reversed duplicate
    "3 2 directed\n1 2\n2 1",                # a directed edge both ways
    "3 3 directed\n1 2\n2 1\n1 2",
    "3 0 undirected\n",
    "1 0 directed",
    "3 1 directed\n1 2 2 3",                 # rows that hold 2m labels, but not two per row
    "3 2 directed\n1\n2",
)


def graph_texts(seed: int, count: int):
    """``PARSE_CORNERS``, then ``count`` seeded documents: in every fourth one
    distinct pairs without loops, in the rest random pairs with a stray token
    now and then, a line of one or three labels, a wrong edge count, blank
    lines, tabs and LF, CRLF or CR line endings."""
    yield from PARSE_CORNERS
    rng = np.random.default_rng(seed)
    strays = ("0", "-1", "+2", "\u0663", "1_0", "3.0", "0x3", "x", "99999999999999999999")
    for case in range(count):
        n = int(rng.integers(1, 7))
        directed = bool(case % 2)
        if case % 4 == 0:
            a, b = np.nonzero(~np.eye(n, dtype=bool) if directed else np.triu(np.ones((n, n), bool), 1))
            pick = rng.permutation(a.size)[: int(rng.integers(0, a.size + 1))]
            rows = [[str(a[i] + 1), str(b[i] + 1)][:: 1 if rng.uniform() < 0.5 else -1] for i in pick]
        else:
            rows = [[str(v) for v in rng.integers(1, n + 2, size=2)] for _ in range(int(rng.integers(0, 2 * n + 1)))]
            for row in rows:
                if rng.uniform() < 0.05:
                    row[int(rng.integers(2))] = str(rng.choice(strays))
                if rng.uniform() < 0.01:
                    row.append("1")
                elif rng.uniform() < 0.01:
                    row.pop()
        m = len(rows) + (int(rng.integers(-1, 2)) if rng.uniform() < 0.05 else 0)
        lines = [f"{n} {m} {'directed' if directed else 'undirected'}"]
        for row in rows:
            lines.append(("\t" if rng.uniform() < 0.1 else " ").join(row))
            if rng.uniform() < 0.1:
                lines.append(" " * int(rng.integers(3)))
        yield str(rng.choice(["\n", "\r\n", "\r"])).join(lines)


def listed_pairs(n, directed, edges):
    """The pair lists of a ``graph_cases`` edge set that ``make_graph`` is
    given: the set's order, and for an undirected set each pair once."""
    listed = list(edges)
    yield listed
    if not directed:
        yield [(a, b) for a, b in listed if (b, a) not in edges or repr(a) < repr(b)]


# every outcome of Graph's check: accepted, and each rejection's message
GRAPH_OUTCOMES = ("accepted", "at least one vertex", "must be integers", "not allowed",
                  "out of range", "missing reverse")


def test_graph_check_matches_loop_oracle():
    """Graph's array check names the edge and the rule that the per-edge
    loop names first, and accepts what it accepts, with the same arrays."""
    kinds = set()
    for n, directed, edges in graph_cases(81, 1500):
        got = graph_outcome(graph_arrays, n, directed, edges)
        assert got == graph_outcome(loop_graph_check, n, directed, edges)
        if isinstance(got, str):
            kinds.update(kind for kind in GRAPH_OUTCOMES if kind in got)
        else:
            kinds.add("accepted")
    assert kinds == set(GRAPH_OUTCOMES)


# every outcome of parse_graph: accepted, and each rejection's message
PARSE_OUTCOMES = ("accepted", "expected 'a b'", "vertices must be integers", "loop edge",
                  "out of range", "duplicate edge", "edge lines")


def test_parse_graph_matches_loop_oracle(monkeypatch):
    """parse_graph gives the Graph of the independent line-by-line parse,
    the same edges and edge arrays, or its first error's message.  A
    document it accepts is never checked a second time, by make_graph or
    by Graph's edge check."""
    kinds, accepted = set(), []
    for text in graph_texts(83, 1500):
        got = graph_result(parse_graph, text)
        assert got == graph_result(loop_parse_graph, text), repr(text)
        if isinstance(got, str):
            kinds.update(kind for kind in PARSE_OUTCOMES if kind in got)
        else:
            kinds.add("accepted")
            accepted.append((text, got))
    assert kinds == set(PARSE_OUTCOMES)
    forbid_loops(monkeypatch)
    for text, got in accepted:
        assert graph_result(parse_graph, text) == got


def forbid_loops(monkeypatch):
    """Make make_graph and Graph's per-edge check fail if they are called."""
    def loop(*args):
        raise AssertionError("a valid document was checked a second time")

    for name in ("make_graph", "_edge_error"):
        monkeypatch.setattr(giep.graph, name, loop)


# every outcome of make_graph: accepted, and each rejection's message
MAKE_OUTCOMES = ("accepted", "duplicate edge", "at least one vertex", "must be integers",
                 "not allowed", "out of range")


def test_make_graph_matches_loop_oracle():
    """make_graph gives the Graph of the independent pair-by-pair build, or
    its first error's message, on every pair list of ``graph_cases``, in
    its stray labels and numpy integers too."""
    kinds = set()
    for n, directed, edges in graph_cases(85, 1500):
        for pairs in listed_pairs(n, directed, edges):
            got = graph_result(make_graph, n, pairs, directed)
            assert got == graph_result(loop_make_graph, n, pairs, directed)
            if isinstance(got, str):
                kinds.update(kind for kind in MAKE_OUTCOMES if kind in got)
            else:
                kinds.add("accepted")
    assert kinds == set(MAKE_OUTCOMES)


def test_parse_graph_and_make_graph_agree_on_workload_graphs():
    """parse_graph's loop and make_graph's loop give equal graphs with
    equal edge arrays on graphs of the benchmark's large size, undirected and
    directed with some reverse edges dropped."""
    rng = np.random.default_rng(87)
    for _ in range(10):
        g = random_graph(rng, 160, 40, 4 / 160)
        edges = sorted(g.edges)
        once = [(a, b) for a, b in edges if a < b]
        one_way = [(a, b) for a, b in edges if a < b or rng.uniform() < 0.7]
        for directed, pairs in ((False, once), (True, one_way)):
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
            by_loop = graph_result(make_graph, g.n, pairs, directed)
            assert graph_result(parse_graph, format_graph(make_graph(g.n, pairs, directed))) == by_loop


def test_graph_keeps_a_list_of_edges_as_a_frozenset():
    g = Graph(3, False, [(1, 2), (2, 1)])
    assert type(g.edges) is frozenset
    assert g == make_graph(3, [(1, 2)]) and hash(g) == hash(make_graph(3, [(1, 2)]))


def test_graph_keeps_a_repeated_edge_once():
    g = Graph(3, True, [(1, 2), (1, 2)])
    assert g.edges == frozenset({(1, 2)})
    assert [x.tolist() for x in g.edge_arrays] == [[1], [2], [False]]


@pytest.mark.parametrize("directed", [True, False])
def test_graph_reads_a_generator_of_edges(directed):
    listed = [(1, 2), (2, 1), (2, 3), (3, 2)]
    g = Graph(3, directed, (edge for edge in listed))
    assert g == Graph(3, directed, frozenset(listed))
    assert [x.tolist() for x in g.edge_arrays] == [[1, 2, 2, 3], [2, 1, 3, 2], [True] * 4]


def test_graph_refuses_non_integer_labels():
    for pairs, message in (
        ([(1.7, 3), (2, 3)], "edge (1.7,3): vertices must be integers"),
        ([(1, 2), (2.0, 3)], "edge (2.0,3): vertices must be integers"),
        ([("1", 2)], "edge ('1',2): vertices must be integers"),
    ):
        with pytest.raises(ValueError) as info:
            make_graph(3, pairs)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        Graph(n=3, directed=True, edges=frozenset({(1.5, 3)}))
    assert str(info.value) == "edge (1.5,3): vertices must be integers"
    with pytest.raises(ValueError) as info:  # a label that cannot be hashed, in a list
        Graph(n=3, directed=False, edges=[(1, 2), (2, 1), ([1], 2)])
    assert str(info.value) == "edge ([1],2): vertices must be integers"
    # numpy integers and bools are integers, as before
    assert make_graph(3, [(np.int32(3), True), (np.int64(2), 3)]) == make_graph(3, [(1, 3), (2, 3)])


def test_make_graph_refuses_items_that_are_no_pairs():
    """An item that is no pair raises ValueError in its place in the listing
    order, so an earlier pair's label or duplicate error still wins."""
    not_a_pair = "every edge must be a pair of vertices"
    for n, directed, pairs, message in (
        (3, False, [5], not_a_pair),
        (3, False, [(1, 2, 3)], not_a_pair),
        (3, True, [(1, 2), (3,)], not_a_pair),
        (3, False, [(1, 1), 5], not_a_pair),  # a loop is Graph's to find, after the listing
        (3, False, [(1.5, 2), 5], "edge (1.5,2): vertices must be integers"),
        (3, False, [(1, 2), (2, 1), (1, 2, 3)], "duplicate edge {2,1}"),
        (3, True, [(1, 2), (1, 2), 5], "duplicate edge (1,2)"),
        (2.5, False, [(1, 2)], "vertex count n=2.5 must be an integer"),
    ):
        with pytest.raises(ValueError) as info:
            make_graph(n, pairs, directed)
        assert str(info.value) == message


def numpy_pairs(rows, dtype=np.intp) -> tuple:
    """``rows`` as a tuple of pairs of numpy integers."""
    return tuple(map(tuple, np.array(rows, dtype=dtype)))


def test_matching_validates():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    for pairs, message in (
        (((2, 1),), "matching pair (2,1) must be stored (min,max)"),
        (((1, 2), (2, 3)), "matching pairs are not vertex-disjoint at {2,3}"),
        # the first offender in order, whichever check it fails
        (((1, 2), (2, 3), (5, 4)), "matching pairs are not vertex-disjoint at {2,3}"),
        (((3, 4), (1, 1), (3, 5)), "matching pair (1,1) must be stored (min,max)"),
        # order and disjointness are checked for every pair before any edge
        (((2, 4), (5, 4)), "matching pair (5,4) must be stored (min,max)"),
        (((1, 2), (1, 3)), "matching pairs are not vertex-disjoint at {1,3}"),
        (((1, 2), (4, 5), (0, 3)), "matching pair {4,5} is not a bidirected edge"),
        (((0, 1),), "matching pair {0,1} is not a bidirected edge"),
        # vertices outside 1..n are never matched, however far out
        (((1, 6),), "matching pair {1,6} is not a bidirected edge"),
        (((-7, -2),), "matching pair {-7,-2} is not a bidirected edge"),
        # numpy integers, as rows of max_matching's shape, print as Python ints
        (numpy_pairs([[1, 2], [3, 4], [2, 3]]), "matching pairs are not vertex-disjoint at {2,3}"),
        (numpy_pairs([[3, 4], [2, 1]], np.int32), "matching pair (2,1) must be stored (min,max)"),
        (numpy_pairs([[1, 2], [2**40, 2**40 + 1]]),
         "matching pair {1099511627776,1099511627777} is not a bidirected edge"),
    ):
        with pytest.raises(ValueError) as info:
            plan_relabeling(g, pairs, 0)
        assert str(info.value) == message


def test_parse_allows_directed_both_ways():
    g = parse_graph("2 2 directed\n1 2\n2 1")
    assert g.edges == frozenset({(1, 2), (2, 1)})
    assert bidirected_pairs(g) == [(1, 2)]


def test_format_graph_round_trip():
    g = make_graph(4, [(1, 2), (2, 3), (1, 4)])
    assert parse_graph(format_graph(g)) == g
    dg = make_graph(3, [(1, 2), (2, 1), (3, 1)], directed=True)
    assert parse_graph(format_graph(dg)) == dg


def test_format_graph_equals_the_set_formatter():
    for g in oracle_graphs(77, 400):
        text = format_graph(g)
        assert text == set_format_graph(g)
        assert parse_graph(text) == g


def test_sorted_edges_flags_reverses():
    g = make_graph(3, [(3, 1), (2, 1), (1, 2)], directed=True)
    tail, head, reverse = g.edge_arrays
    assert (tail.tolist(), head.tolist(), reverse.tolist()) == ([1, 2, 3], [2, 1, 1], [True, True, False])
    assert all(not x.flags.writeable for x in g.edge_arrays)
    assert all(x.size == 0 for x in make_graph(2, []).edge_arrays)
    assert make_graph(3, [(3, 1)]).edge_arrays[2].tolist() == [True, True]


def test_matching_path4():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    assert max_matching(g) == ((1, 2), (3, 4))


def test_matching_triangle():
    g = make_graph(3, [(1, 2), (2, 3), (3, 1)])
    assert len(max_matching(g)) == 1


def test_matching_petersen_is_perfect():
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    spokes = [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    g = make_graph(10, outer + inner + spokes)
    assert len(max_matching(g)) == 5
    assert brute_force_matching_size(g) == 5


def test_matching_needs_blossoms():
    # two triangles joined by a bridge: greedy non-blossom search can miss size 3
    g = make_graph(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4)])
    assert len(max_matching(g)) == 3


def test_matching_ignores_one_directional_edges():
    g = make_graph(4, [(1, 2), (2, 1), (3, 4)], directed=True)
    assert max_matching(g) == ((1, 2),)


def test_matching_matches_brute_force_on_randoms():
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(1, 11))
        g = random_undirected_graph(rng, n, float(rng.uniform(0, 1)))
        m = max_matching(g)
        # validity: disjoint and made of edges
        used = [v for pair in m for v in pair]
        assert len(used) == len(set(used))
        for a, b in m:
            assert g.has_edge(a, b) and g.has_edge(b, a)
        assert len(m) == brute_force_matching_size(g)


def test_matching_deterministic():
    rng = np.random.default_rng(29)
    g = random_undirected_graph(rng, 9, 0.5)
    assert max_matching(g) == max_matching(g)


def test_plan_relabeling_path3():
    g = make_graph(3, [(1, 2), (2, 3)])
    order, pattern = plan_relabeling(g, ((2, 3),), k=1)
    assert order.tolist() == [2, 0, 1]  # 1->3, 2->1, 3->2
    assert pattern.n == 3 and pattern.k == 1 and pattern.l == 1
    # residual edge {1,2} lands on new labels {3,1}
    assert pattern_slots(pattern) == ((1, 3),)
    assert pattern.bidirected.tolist() == [True]


def test_plan_relabeling_path4_identity():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    order, pattern = plan_relabeling(g, ((1, 2), (3, 4)), k=2)
    assert order.tolist() == [0, 1, 2, 3]
    assert pattern_slots(pattern) == ((2, 3),)
    assert pattern.bidirected.tolist() == [True]


def test_plan_relabeling_too_small():
    g = make_graph(3, [(1, 2), (2, 3), (3, 1)])
    m = max_matching(g)
    with pytest.raises(MatchingTooSmall):
        plan_relabeling(g, m, k=2)


def test_plan_relabeling_directed_residuals():
    g = make_graph(3, [(1, 2), (2, 1), (1, 3)], directed=True)
    order, pattern = plan_relabeling(g, max_matching(g), k=1)
    assert order.tolist() == [0, 1, 2]
    assert pattern_slots(pattern) == ((1, 3),)
    assert pattern.bidirected.tolist() == [False]


def test_plan_relabeling_puts_matching_on_leading_pairs():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        g = random_undirected_graph(rng, n, 0.5)
        m = max_matching(g)
        k = int(rng.integers(0, len(m) + 1))
        order, pattern = plan_relabeling(g, m, k)
        new_edges = {(order[a - 1] + 1, order[b - 1] + 1) for a, b in g.edges}
        for j in range(1, k + 1):
            assert (2 * j - 1, 2 * j) in new_edges and (2 * j, 2 * j - 1) in new_edges
        # slots plus matched blocks account for every edge
        expect = edge_positions(pattern)
        assert new_edges == expect


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
        ks = {0, len(m), len(m) + 1, int(rng.integers(0, len(m) + 1))}
        for k in sorted(ks):
            assert outcome(plan_relabeling, g, m, k) == outcome(loop_plan_relabeling, g, m, k)
        # a shuffled sub-matching: other pairs land on the blocks
        keep = [pair for pair in m if rng.uniform() < 0.7]
        sub = tuple(keep[i] for i in rng.permutation(len(keep)))
        k = int(rng.integers(0, len(sub) + 1))
        assert outcome(plan_relabeling, g, sub, k) == outcome(loop_plan_relabeling, g, sub, k)
    assert graphs >= 2000
    # pairs that are out of order, overlap or are not bidirected edges, and a negative k
    g = make_graph(4, [(1, 2), (2, 1), (3, 4)], directed=True)
    for m, k in (
        (((3, 4),), 1), (((1, 3),), 0), (((1, 2), (2, 4)), 0), (((2, 1), (1, 2)), 0),
        (((1, 2), (0, 5)), 1), (((1, 2),), 2), (max_matching(g), -1),
    ):
        assert outcome(plan_relabeling, g, m, k) == outcome(loop_plan_relabeling, g, m, k)
        assert isinstance(outcome(plan_relabeling, g, m, k), tuple)


def odd_component_graphs(seed: int, count: int):
    """Graphs whose bidirected components have odd sizes, each an odd cycle,
    a path or a star with random chords inside it, on shuffled labels.
    Every component leaves a vertex exposed, and from there a search fails.
    Every other graph is directed, with one-way edges between components."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 61))
        order = [int(v) + 1 for v in rng.permutation(n)]
        pairs, start = set(), 0
        while start < n:
            size = min(int(rng.choice([1, 3, 5, 7, 9])), n - start)
            part = order[start : start + size]
            shape = case % 3
            if shape == 0:  # an odd cycle, a blossom
                links = zip(part, part[1:] + part[:1])
            elif shape == 1:  # a path
                links = zip(part, part[1:])
            else:  # a star
                links = ((part[0], v) for v in part[1:])
            pairs.update(frozenset(e) for e in links if e[0] != e[1])
            for _ in range(int(rng.integers(0, size))):
                a, b = rng.choice(part, 2)
                if a != b:
                    pairs.add(frozenset((int(a), int(b))))
            start += size
        edges = [tuple(e) for e in pairs]
        if case % 2:
            edges += [(b, a) for a, b in edges]
            for _ in range(int(rng.integers(0, n + 1))):
                a, b = (int(v) + 1 for v in rng.choice(n, 2))
                if a != b and (a, b) not in edges and (b, a) not in edges:
                    edges.append((a, b))  # one way
            yield make_graph(n, edges, directed=True)
        else:
            yield make_graph(n, edges)


def dense_graphs(seed: int, count: int):
    """G(n, p) for n 3-10 and p 0.2-0.7, where blossoms are frequent."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 11))
        a, b = np.nonzero(np.triu(rng.uniform(size=(n, n)) < rng.uniform(0.2, 0.7), 1))
        yield make_graph(n, zip((a + 1).tolist(), (b + 1).tolist()))


# graphs where a blossom contraction that queued the search tree in
# discovery order, not in vertex order, finds another matching
BLOSSOM_ORDER = [
    make_graph(8, [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 6), (2, 8), (3, 6), (4, 5),
                   (4, 6), (5, 7), (6, 7), (6, 8)]),
    make_graph(9, [(1, 2), (1, 4), (1, 5), (1, 6), (1, 8), (2, 4), (2, 5), (2, 9), (4, 6),
                   (4, 7), (4, 8), (4, 9), (5, 9), (7, 9), (8, 9)]),
]


def test_matching_equals_the_full_search():
    """Skipped searches are searches that fail: the matching is the one a
    search from every exposed vertex finds, on graphs where many fail, on
    dense small graphs full of blossoms, and on large_sparse-shaped graphs
    (n = 160, k = 40, edge probability 4/n)."""
    rng = np.random.default_rng(7)
    graphs = BLOSSOM_ORDER + list(odd_component_graphs(31, 600)) + list(dense_graphs(8, 3000))
    graphs += [random_graph(rng, 160, 40, 4 / 160) for _ in range(10)]
    exposed = 0
    for g in graphs:
        m = max_matching(g)
        assert repr(m) == repr(full_search_max_matching(g))
        exposed += g.n - 2 * len(m)
    assert exposed >= 2000


def pattern_outcome(n, k, slots, flags):
    try:
        p = Pattern.from_slots(n=n, k=k, slots=slots, bidirected=flags)
    except ValueError as exc:
        got = str(exc)
    else:
        got = repr(p)
    try:
        loop_pattern_check(n, k, slots, flags)
    except ValueError as exc:
        want = str(exc)
    else:
        want = repr(Pattern.from_slots(n=n, k=k, slots=slots, bidirected=flags))
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
        # numpy integer labels give the same outcome
        assert pattern_outcome(n, k, tuple(map(tuple, np.array(slots, dtype=np.int64))), flags) == (got, want)
        kinds.update(kind for kind in PATTERN_OUTCOMES if kind in want)
    assert kinds == set(PATTERN_OUTCOMES)


@pytest.mark.parametrize("slot", [(1.5, 3), (1, 3.0), ("1", 3), (None, 2), (np.float64(2), 3)])
def test_pattern_refuses_labels_that_are_no_integers(slot):
    with pytest.raises(ValueError, match=r"^slot \(.*\): vertices must be integers$") as info:
        Pattern.from_slots(n=3, k=0, slots=(slot,), bidirected=(False,))
    assert repr(slot[0]) in str(info.value) and repr(slot[1]) in str(info.value)


def test_relabeling_pattern_equals_the_checked_pattern():
    """plan_relabeling builds its pattern from arrays without the checks;
    the same slots through Pattern.from_slots pass them and give the same
    sizes, slot arrays and entries table, all read-only."""
    rng = np.random.default_rng(74)
    for g in oracle_graphs(75, 300):
        m = max_matching(g)
        _, p = plan_relabeling(g, m, int(rng.integers(0, len(m) + 1)))
        q = Pattern.from_slots(n=p.n, k=p.k, slots=pattern_slots(p), bidirected=tuple(p.bidirected.tolist()))
        assert (p.n, p.k, p.m) == (q.n, q.k, q.m)
        arrays = (p.rows, p.cols, p.bidirected, *p.entries)
        for got, want in zip(arrays, (q.rows, q.cols, q.bidirected, *q.entries)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable and not want.flags.writeable

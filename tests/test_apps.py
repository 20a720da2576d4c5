"""Tests for the end-to-end applications."""

import math
import warnings
from collections import Counter
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import giep.apps as apps
import giep.model as model
from giep import Graph, SolverConfig, Spectrum, make_graph, solve_instance, tridiagonalize, verify
from giep.apps import path_graph
from giep.cli import EXIT_BAD_INPUT, main, random_graph, random_spectrum
from giep.errors import (
    DimensionMismatch,
    InfeasibleError,
    MatchingTooSmall,
    NumericalError,
    RepeatedEigenvalues,
)
from giep.graph import format_graph
from giep.linalg import eig_all
from giep.model import format_spectrum, spectrum_mismatch

from conftest import build_seed

S3 = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))


def graph_of(m: np.ndarray) -> set:
    n = m.shape[0]
    return {
        (i + 1, j + 1)
        for i in range(n)
        for j in range(n)
        if i != j and m[i, j] != 0.0
    }


def test_solve_instance_computes_the_disc_system_once(monkeypatch):
    calls = []
    real = Spectrum.radius.func
    counting = cached_property(lambda s: calls.append(s) or real(s))
    counting.__set_name__(Spectrum, "radius")
    monkeypatch.setattr(Spectrum, "radius", counting)
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0, -1.0))
    rep = solve_instance(s, path_graph(4))
    assert calls == [s]
    assert verify(rep.matrix, s, path_graph(4)).passed


@pytest.mark.parametrize(
    "pairs, reals, message",
    [
        ((), (-1e308, 1e308), "disc radius must be positive and finite"),
        ((), (0.0, 5e-324), "disc radius must be positive and finite"),
        (((0.0, 5e-324),), (), "disc radius must be positive and finite"),
        ((), (0.0, 1e-323), "discs at 0j and (1e-323+0j) are not disjoint"),
    ],
    ids=["overflowing-gap", "zero-gap", "zero-mu", "overlapping-discs"],
)
def test_unusable_disc_radius_is_bad_input(pairs, reals, message, tmp_path, capsys):
    """Distinct finite values whose distances overflow or are subnormal
    parse, and fail with a ValueError on the radius's first use: through
    the spectrum, solve_instance and the CLI, and without a numpy warning."""
    spectrum, graph = tmp_path / "s.spectrum", tmp_path / "g.graph"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = Spectrum(pairs=pairs, reals=reals)
        spectrum.write_text(format_spectrum(s))
        graph.write_text(format_graph(path_graph(s.n)))
        with pytest.raises(ValueError) as info:
            s.radius
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            solve_instance(Spectrum(pairs=pairs, reals=reals), path_graph(s.n))
        assert str(info.value) == message
        code = main(["solve", "--spectrum", str(spectrum), "--graph", str(graph),
                     "--out", str(tmp_path / "m.csv")])
    assert code == EXIT_BAD_INPUT == 1
    assert message in capsys.readouterr().err
    assert caught == []


def test_solve_instance_path3():
    g = path_graph(3)
    rep = solve_instance(S3, g)
    assert verify(rep.matrix, S3, g).passed
    assert graph_of(rep.matrix) == {(1, 2), (2, 1), (2, 3), (3, 2)}


def test_solve_instance_empty_graph_infeasible():
    g = make_graph(3, [])
    with pytest.raises(MatchingTooSmall) as info:
        solve_instance(S3, g)
    # the message names both the required k and the matching number
    assert "k=1" in str(info.value) and "size 0" in str(info.value)


def test_solve_instance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_instance(S3, path_graph(4))


def test_solve_instance_symmetric_2x2_closed_form():
    s = Spectrum(pairs=(), reals=(1.0, 2.0))
    g = make_graph(2, [(1, 2)])
    rep = solve_instance(s, g, mode="generic")
    m = rep.matrix
    b = m[0, 1]
    assert b != 0.0 and m[1, 0] == b
    # [[a,b],[b,c]] with spectrum {1,2}: a+c = 3 and ac - b^2 = 2
    disc = math.sqrt(1.0 - 4.0 * b * b)
    roots = sorted([(3.0 - disc) / 2.0, (3.0 + disc) / 2.0])
    assert sorted([m[0, 0], m[1, 1]]) == pytest.approx(roots, abs=1e-9)


def test_solve_instance_respects_original_labels():
    # star graph: only vertex 3 can host the pair edge with vertex 1
    g = make_graph(3, [(3, 1), (3, 2)])
    rep = solve_instance(S3, g)
    assert verify(rep.matrix, S3, g).passed
    assert graph_of(rep.matrix) == {(3, 1), (1, 3), (3, 2), (2, 3)}


def test_solve_instance_directed_graph():
    # matched edge must be bidirected; the extra edge may be one-directional
    g = make_graph(3, [(1, 2), (2, 1), (3, 2)], directed=True)
    rep = solve_instance(S3, g)
    m = rep.matrix
    assert m[2, 1] != 0.0
    assert m[1, 2] == 0.0  # absent direction stays a structural zero
    assert verify(m, S3, g).passed


def test_solve_instance_skew_mode_needs_bidirected_slots():
    s = Spectrum(pairs=(), reals=(1.0, 2.0))
    g_dir = make_graph(2, [(1, 2)], directed=True)
    with pytest.raises(ValueError, match="skew mode requires every slot to be bidirected"):
        solve_instance(s, g_dir, mode="skew")


def test_solve_instance_has_no_symmetric_mode():
    s = Spectrum(pairs=(), reals=(1.0, 2.0))
    with pytest.raises(ValueError, match=r"^unknown mode 'symmetric'$"):
        solve_instance(s, make_graph(2, [(1, 2)]), "symmetric")


def test_solve_instance_random_sweep_verifies():
    rng = np.random.default_rng(67)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(0, n // 2 + 1))
        s = random_spectrum(rng, k, n - 2 * k)
        g = random_graph(rng, n, k, float(rng.uniform(0, 0.5)))
        rep = solve_instance(s, g)
        vr = verify(rep.matrix, s, g)
        assert vr.passed, vr.render()
        assert graph_of(rep.matrix) == set(g.edges)


def test_tridiagonalize_diagonal_input():
    rep = tridiagonalize(np.diag([1.0, 2.0, 3.0]))
    t = rep.matrix
    assert np.abs(t[np.abs(np.subtract.outer(range(3), range(3))) > 1]).max() == 0.0
    assert np.abs(np.diagonal(t, 1)).min() > 0.0
    assert np.abs(np.diagonal(t, -1)).min() > 0.0
    assert spectrum_mismatch(eig_all(t), Spectrum(pairs=(), reals=(1.0, 2.0, 3.0))) <= 1e-8


def test_tridiagonalize_2x2_pair_is_seed():
    rep = tridiagonalize(np.array([[1.0, 2.0], [-2.0, 1.0]]))
    assert np.allclose(rep.matrix, [[1.0, 2.0], [-2.0, 1.0]], atol=1e-12)
    assert rep.steps == 0  # the path on 2 vertices is just the matched edge


def test_tridiagonalize_repeated_eigenvalues():
    with pytest.raises(RepeatedEigenvalues):
        tridiagonalize(np.diag([1.0, 1.0, 2.0]))


def test_tridiagonalize_single_entry():
    rep = tridiagonalize(np.array([[4.0]]))
    assert np.array_equal(rep.matrix, [[4.0]])


def test_verify_seed_against_matched_graph():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
    seed = build_seed(s)
    g_matched = make_graph(3, [(1, 2)])
    assert verify(seed, s, g_matched).passed
    # the path graph expects edge {2,3}, which the seed lacks
    report = verify(seed, s, path_graph(3))
    assert not report.passed and not report.pattern_ok
    positions = {(f.i, f.j) for f in report.pattern_failures}
    assert positions == {(2, 3), (3, 2)}
    assert all(f.expected == "nonzero" for f in report.pattern_failures)
    assert "FAIL" in report.render()


def test_verify_flags_spurious_nonzero():
    s = Spectrum(pairs=(), reals=(1.0, 2.0))
    m = np.array([[1.0, 1e-9], [0.0, 2.0]])
    report = verify(m, s, make_graph(2, []))
    assert not report.pattern_ok
    assert report.pattern_failures[0].expected == "zero"
    assert report.spectrum_ok


def test_verify_spectrum_failure():
    s = Spectrum(pairs=(), reals=(1.0, 2.0))
    report = verify(np.diag([1.0, 2.5]), s, make_graph(2, []))
    assert report.pattern_ok and not report.spectrum_ok
    assert report.spectrum_error == pytest.approx(0.5)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300])
def test_verify_rejects_a_nan_or_negative_tolerance(tol):
    s = Spectrum(pairs=(), reals=(1.0, 2.0))
    with pytest.raises(ValueError, match="spectrum tolerance must be nonnegative"):
        verify(np.diag([1.0, 2.0]), s, make_graph(2, []), spectrum_tol=tol)


def test_verify_and_tridiagonalize_refuse_a_complex_matrix():
    # eigenvalues -0.5 + i and 0.5 - i; read as real, the matrix has +-i,
    # so verify passed it against that spectrum and tridiagonalize solved for it
    m = np.array([[0.0, 1.0], [-1.0, 0.0]]) * (1 + 0.5j)
    with pytest.raises(ValueError, match="^matrix entries must be real, got a complex array$"):
        verify(m, Spectrum(pairs=((0.0, 1.0),), reals=()), make_graph(2, [(1, 2)]))
    with pytest.raises(ValueError, match="^matrix entries must be real, got a complex array$"):
        tridiagonalize(m)


def test_verify_dimension_check():
    with pytest.raises(DimensionMismatch):
        verify(np.eye(2), S3, path_graph(3))


def test_solver_config_flows_through():
    g = path_graph(3)
    cfg = SolverConfig(fill_scale=0.02)
    rep = solve_instance(S3, g, cfg=cfg)
    d_radius = math.sqrt(8) / 3
    assert rep.matrix[1, 2] == pytest.approx(0.02 * d_radius, abs=1e-15)


# ---------------------------------------------------------------------------
# Scale-relative tolerances


def scaled(s: Spectrum, c: float) -> Spectrum:
    return Spectrum(
        pairs=tuple((a * c, b * c) for a, b in s.pairs), reals=tuple(x * c for x in s.reals)
    )


def test_solve_passes_verify_at_every_scale():
    """Tolerances and the nonzero floor follow the spectrum's scale, so a
    solve passes verify from 1e-300 to 1e300; an absolute floor of 1e-12
    rejected the fills of the smallest scale, and from 1e160 up the
    second-order shift's G_ab G_ba overflowed until it was taken at fills
    of order one."""
    rng = np.random.default_rng(3)
    s0 = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.4)
    base = verify(solve_instance(s0, g).matrix, s0, g)
    for e in range(-300, 301):
        s = scaled(s0, 10.0**e)
        report = verify(solve_instance(s, g).matrix, s, g)
        assert report.passed, (e, report.render())
        assert report.spectrum_error <= 1e-10 * s.inf_norm()
        assert report.spectrum_tol == pytest.approx(base.spectrum_tol * 10.0**e, rel=1e-14)
        assert report.nonzero_floor == pytest.approx(base.nonzero_floor * 10.0**e, rel=1e-14)


def mixed_instances(seed: int, count: int = 60, n_min: int = 8, n_max: int = 24):
    """Sizes cycling through [n_min, n_max], k and edge probability spread by
    a golden-ratio sequence, as the benchmark's mixed instances are."""
    rng = np.random.default_rng(seed)
    golden = (5**0.5 - 1) / 2
    start_k, start_p = rng.uniform(size=2)
    for i in range(count):
        n = n_min + i % (n_max - n_min + 1)
        k = int((start_k + i * golden) % 1.0 * (n // 2 + 1))
        s = random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2.0))
        yield s, random_graph(rng, n, k, 0.5 * ((start_p + i * golden**2) % 1.0))


def test_power_of_two_scaling_scales_the_output_exactly():
    """Every tolerance is a multiple of Spectrum.scale, so solving 2^j * s
    takes the same path as solving s and returns 2^j * M bitwise."""
    solved = 0
    for s, g in mixed_instances(101):
        try:
            m = solve_instance(s, g).matrix
        except NumericalError:
            continue
        solved += 1
        for j in (-40, -20, 20, 40):
            c = 2.0**j
            assert np.array_equal(solve_instance(scaled(s, c), g).matrix, c * m), j
    assert solved >= 50


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
       edge_prob=st.floats(0.0, 1.0), half_j=st.integers(-20, 20))
def test_power_of_two_scaling_is_exact_on_generated_instances(data, seed, n, edge_prob, half_j):
    """Solving 2^j * s returns 2^j * M(s) bitwise, or fails as s does, over
    generated instances.  j is even: LAPACK's 2x2 standardization takes
    square roots, so eigvals(2M) and 2 eigvals(M) can differ in the last
    bit (an n=2 all-real instance at j = 1 does).  |j| stays within 40:
    from 2^-50 on, all-real instances stop being equivariant, because
    LAPACK's eigvals of the exactly scaled matrix already differ."""
    j = 2 * half_j
    k = data.draw(st.integers(0, n // 2), label="k")
    rng = np.random.default_rng(seed)
    s = random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2.0))
    g = random_graph(rng, n, k, edge_prob)
    try:
        m = solve_instance(s, g).matrix
    except NumericalError as exc:
        for c in (2.0**j, 2.0**-j):
            with pytest.raises(type(exc)):
                solve_instance(scaled(s, c), g)
        return
    for c in (2.0**j, 2.0**-j):
        assert np.array_equal(solve_instance(scaled(s, c), g).matrix, c * m)


def shifted(s: Spectrum, sigma: float) -> Spectrum:
    """s + sigma with pairs and reals in their order: from_eigenvalues would
    sort them again, and the order is the assignment of targets to blocks."""
    return Spectrum(
        pairs=tuple((a + sigma, b) for a, b in s.pairs), reals=tuple(x + sigma for x in s.reals)
    )


@pytest.mark.parametrize("sigma", [0.5, 3.0, 100.0])
def test_shifting_the_spectrum_shifts_the_output(sigma):
    """A shift moves every point and leaves the distances, so the radius,
    the fills and the step control are the same up to rounding: solving
    s + sigma takes the same steps and returns M(s) + sigma*I to within the
    Newton tolerance of the shifted spectrum."""
    solved = 0
    for s, g in mixed_instances(303, count=40, n_min=2, n_max=16):
        try:
            base = solve_instance(s, g)
        except NumericalError:
            continue
        solved += 1
        s_shift = shifted(s, sigma)
        moved = solve_instance(s_shift, g)
        assert moved.steps == base.steps
        n = s.n
        drift = np.abs(moved.matrix - base.matrix - sigma * np.eye(n)).max()
        assert drift <= 1e-11 * s_shift.scale
    assert solved >= 35


NEAR = Spectrum(pairs=((1e6, 1.0),), reals=(1e6, 1e6 + 1e-5))


def test_near_degenerate_spectrum_verifies_or_fails_typed():
    """Points 1e-5 apart at modulus 1e6: the tolerances stay below the disc
    radius (3.3e-6), where a scale of 1 + |s| put them at 1e-2."""
    assert NEAR.radius == pytest.approx(1e-5 / 3, rel=1e-4)
    assert verify(build_seed(NEAR), NEAR, make_graph(4, [(1, 2)])).spectrum_tol <= 1e-2 * NEAR.radius
    for g in (path_graph(4), make_graph(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])):
        try:
            m = solve_instance(NEAR, g).matrix
        except NumericalError:
            continue
        assert verify(m, NEAR, g).passed


def test_verify_rejects_a_shift_larger_than_the_discs():
    g = make_graph(4, [(1, 2)])
    seed = build_seed(NEAR)
    assert verify(seed, NEAR, g).passed
    report = verify(seed - 1e-5 * np.eye(4), NEAR, g)
    assert not report.spectrum_ok and report.spectrum_error > 1e-5


def test_fills_below_the_nonzero_floor_are_refused(tmp_path, capsys):
    """verify's floor is 1e-12 * scale; default fills that would fall below
    it are bad input, and fills at the smallest accepted scale verify."""
    g = path_graph(3)
    with pytest.raises(ValueError, match="above the nonzero floor"):
        solve_instance(S3, g, cfg=SolverConfig(fill_scale=1e-12))
    floor = verify(build_seed(S3), S3, make_graph(3, [(1, 2)])).nonzero_floor
    assert floor == 1e-12 * S3.inf_norm()
    rep = solve_instance(S3, g, cfg=SolverConfig(fill_scale=floor / S3.radius * 1.001))
    assert verify(rep.matrix, S3, g).passed
    spectrum, graph = tmp_path / "s.spectrum", tmp_path / "g.graph"
    spectrum.write_text(format_spectrum(S3))
    graph.write_text(format_graph(g))
    code = main(["solve", "--spectrum", str(spectrum), "--graph", str(graph),
                 "--out", str(tmp_path / "m.csv"), "--fill-scale", "1e-12"])
    assert code == EXIT_BAD_INPUT
    assert "above the nonzero floor" in capsys.readouterr().err


def test_verify_of_large_sparse_outputs_builds_no_distance_matrix():
    """A verify of a solved n=160 instance makes one eigenvalues call and,
    with every eigenvalue in its disc, no n-by-n distance matrix."""
    rng = np.random.default_rng(121)
    for _ in range(5):
        s = random_spectrum(rng, 40, 80, box=80.0)
        g = random_graph(rng, 160, 40, 4 / 160)
        matrix = solve_instance(s, g).matrix
        assert s.radius > 0.0  # cached by the solve
        with (
            mock.patch.object(apps, "eig_all", wraps=apps.eig_all) as eigvals,
            mock.patch.object(model, "_distances", wraps=model._distances) as distances,
        ):
            report = verify(matrix, s, g)
        assert report.passed, report.render()
        assert (eigvals.call_count, distances.call_count) == (1, 0)


def test_tridiagonalize_tiny_matrix_passes_verify():
    """The distinctness gate is relative to the matrix: a Gaussian 6x6 at
    scale 1e-12 tridiagonalizes and verifies, where a gate of
    1e-8 * (1 + ||A||_F) refused it as having repeated eigenvalues.  So it
    does from 1e-300 to 1e300: from 1e160 up ||A||_F overflowed and the
    gate refused every matrix."""
    for scale in (1e-300, 1e-160, 1e-12, 1e160, 1e300):
        a = scale * np.random.default_rng(0).standard_normal((6, 6))
        report = verify(tridiagonalize(a).matrix, Spectrum.from_eigenvalues(eig_all(a)), path_graph(6))
        assert report.passed, (scale, report.render())


@pytest.mark.parametrize("j", [-990, -60, -20, 20, 60, 990])
def test_gap_gate_is_invariant_under_power_of_two_scaling(monkeypatch, j):
    """Matrices with their smallest eigenvalue gap just either side of the
    gate pass or fail it the same way when scaled by 2^j."""
    monkeypatch.setattr(apps, "solve_instance", lambda *args: "solved")

    def refused(a) -> bool:
        try:
            tridiagonalize(a)
        except RepeatedEigenvalues:
            return True
        return False

    base = np.diag([0.0, 0.0, 3.0, -2.0])
    threshold = apps.GAP_FACTOR * np.linalg.norm(base)
    outcomes = []
    for step in (-2, -1, 0, 1, 2):
        a = base.copy()
        a[1, 1] = threshold * (1.0 + step * 2.0**-50)
        outcomes.append(refused(a))
        assert refused(2.0**j * a) == outcomes[-1]
    assert outcomes == [True, True, True, False, False]


def outcome_of(s: Spectrum, g) -> tuple[str, np.ndarray | None]:
    """("ok", matrix) for a solve that passes verify, or the typed failure's
    class name; any other failure propagates."""
    try:
        m = solve_instance(s, g).matrix
    except (NumericalError, InfeasibleError) as exc:
        return type(exc).__name__, None
    report = verify(m, s, g)
    assert report.passed, report.render()
    return "ok", m


def relabeled(g: Graph, perm) -> Graph:
    """``g`` with vertex v renamed perm[v - 1]."""
    return Graph(n=g.n, directed=g.directed, edges=frozenset((perm[a - 1], perm[b - 1]) for a, b in g.edges))


def planted_directed_graph(rng, n: int, k: int, prob: float) -> Graph:
    """A planted bidirected matching of size k plus one-way edges drawn with
    probability ``prob``; an edge whose reverse is drawn too is bidirected."""
    order = (rng.permutation(n) + 1).tolist()
    edges = set()
    for a, b in zip(order[0 : 2 * k : 2], order[1 : 2 * k : 2]):
        edges.update({(a, b), (b, a)})
    edges.update((a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b and rng.uniform() < prob)
    return make_graph(n, sorted(edges), directed=True)


def test_relabeling_the_vertices_keeps_the_outcome():
    """Renaming the vertices changes which pairs the greedy matching picks,
    and so the matrix, but not whether the instance is solvable: a solve of
    the permuted graph ends the same way, and a success passes verify on
    the permuted graph."""
    rng = np.random.default_rng(808)
    kinds = Counter()
    for i in range(80):
        n = 2 + i % 23
        k = int(rng.integers(0, n // 2 + 1))
        s = random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2))
        prob = float(rng.uniform(0.05, 0.5))
        g = random_graph(rng, n, k, prob) if i % 2 else planted_directed_graph(rng, n, k, prob)
        perm = (rng.permutation(n) + 1).tolist()
        kind, _ = outcome_of(s, g)
        assert outcome_of(s, relabeled(g, perm))[0] == kind, i
        kinds[kind] += 1
    assert kinds["ok"] >= 70


@pytest.mark.parametrize("n", range(2, 25))
def test_complete_graph_with_the_largest_matching(n):
    """K_n with k = n // 2: every off-block position is a bidirected slot."""
    rng = np.random.default_rng(900 + n)
    s = random_spectrum(rng, n // 2, n % 2, box=max(5.0, n / 2))
    g = make_graph(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)])
    kind, m = outcome_of(s, g)
    assert kind in ("ok", "StepUnderflow", "NoConvergence")
    if m is not None:
        assert np.count_nonzero(m - np.diag(np.diag(m))) == n * (n - 1)


@pytest.mark.parametrize("n", [2, 3, 5, 12, 24])
def test_one_way_cycle(n):
    """1 -> 2 -> ... -> n -> 1 holds no bidirected edge from n = 3 on, so
    its matching is empty and every slot is one-directional: k = 0 solves,
    and k >= 1 is outside the construction and raises MatchingTooSmall."""
    rng = np.random.default_rng(950 + n)
    g = make_graph(n, [(v, v % n + 1) for v in range(1, n + 1)], directed=True)
    box = max(5.0, n / 2)
    assert outcome_of(random_spectrum(rng, 0, n, box=box), g)[0] == "ok"
    kind, _ = outcome_of(random_spectrum(rng, 1, n - 2, box=box), g)
    assert kind == ("ok" if n == 2 else "MatchingTooSmall")


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_tiny_mu_relative_to_the_scale(scale):
    """A pair whose imaginary part is 1e-9 of the spectrum's modulus sets
    the disc radius, and with it the fills and every tolerance."""
    s = Spectrum(pairs=((scale, 1e-9 * scale), (-2 * scale, 3 * scale)), reals=(4 * scale, -5 * scale))
    assert s.radius == 0.5e-9 * scale
    for g in (path_graph(6), make_graph(6, [(a, b) for a in range(1, 7) for b in range(a + 1, 7)])):
        kind, _ = outcome_of(s, g)
        assert kind in ("ok", "StepUnderflow", "NoConvergence")


def test_single_vertex_through_the_cli(tmp_path, capsys):
    spectrum, graph, out = (tmp_path / name for name in ("s.spectrum", "g.graph", "m.csv"))
    spectrum.write_text('{"pairs": [], "reals": [-7.5]}\n')
    graph.write_text("1 0 undirected\n")
    assert main(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(out)]) == 0
    assert out.read_text() == "-7.5\n"
    assert main(["verify", "--matrix", str(out), "--spectrum", str(spectrum), "--graph", str(graph)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


def test_n320_instances_solve_and_verify():
    """The north star's largest size: a seeded k=80 instance at edge
    probability 4/n, and a k=0 undirected one, whose tied fills keep the
    output exactly symmetric."""
    n = 320
    rng = np.random.default_rng(7)
    for k in (80, 0):
        s = random_spectrum(rng, k, n - 2 * k, box=n / 2)
        kind, m = outcome_of(s, random_graph(rng, n, k, 4 / n))
        assert kind == "ok"
    assert np.array_equal(m, m.T)

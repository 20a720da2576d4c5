"""Tests for eigenvalue derivatives, the Newton corrector, and continuation."""

import numpy as np
import pytest

import giep.solver
from giep import SolverConfig, Spectrum, StepUnderflow, solve_instance, verify
from giep.cli import random_graph, random_spectrum
from giep.errors import DimensionMismatch, DiscViolation, NoConvergence, SingularSystem
from giep.graph import make_graph, max_matching, plan_relabeling
from giep.linalg import eig_all, eigen_triple
from giep.model import Pattern, assemble, label_eigenvalues, spectrum_mismatch
from giep.solver import (
    CHORD_RATIO,
    MAX_NEWTON,
    MODES,
    TOL_NEWTON_FACTOR,
    continuation_solve,
    default_targets,
    jacobian_xyz,
    newton_correct,
    solution_curve,
)
from conftest import (
    build_seed,
    edge_positions,
    eigen_derivative,
    newton_every_iterate,
    pattern_slots,
    second_order_shift_reference,
    solution_curve_dense,
)


S3 = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
P3 = Pattern.from_slots(n=3, k=1, slots=((2, 3),), bidirected=(True,))


def evaluate_f(p, theta, s):
    """Labeled eigenvalue coordinates of the matrix assembled at ``theta``."""
    return label_eigenvalues(eig_all(assemble(p, theta)), s)[0]


def tracked_pairs(mtx, s):
    """Eigenpairs of ``mtx`` at its labeled eigenvalues, plus-discs then reals."""
    ev, vecs = eig_all(mtx, vectors=True)
    _, idx = label_eigenvalues(ev, s)
    return eigen_triple(mtx, ev, vecs, idx)


def seed_triples(s):
    """Eigenpairs of the seed, ordered plus-discs then reals."""
    mtx = build_seed(s)
    return mtx, tracked_pairs(mtx, s)


def seed_point(s, m=0):
    """Stacked (x, y, z, u, omega) of the seed with m zero fills."""
    return np.concatenate(
        [[a for a, _ in s.pairs], [b for _, b in s.pairs], s.reals, np.zeros(2 * m)]
    )


def with_fill(p, theta, u, omega):
    """``theta`` with its fills (u, omega) replaced."""
    return np.concatenate([theta[: p.n], u, omega])


def xyz_directions(p, theta):
    """Matrix direction of each (x, y, z) coordinate, in Jacobian column order."""
    base = assemble(p, theta)
    steps = np.eye(p.n, theta.size)  # unit steps in the first n entries
    return [assemble(p, theta + e) - base for e in steps]


def test_eigen_derivative_block_directions():
    mtx, triples = seed_triples(S3)
    bx, by, bz = xyz_directions(P3, seed_point(S3, m=1))
    zx = eigen_derivative(triples, bx)[0]  # the pair's eigenpair
    zy = eigen_derivative(triples, by)[0]
    zz = eigen_derivative(triples, bz)[0]
    assert abs(zx - 1.0) < 1e-12      # diagonal block direction moves lambda
    assert abs(zy - 1j) < 1e-12       # rotation direction moves mu
    assert abs(zz) < 1e-12            # the other block has no first-order effect


def test_eigen_derivative_real_row_is_real():
    _, triples = seed_triples(S3)
    z = eigen_derivative(triples, xyz_directions(P3, seed_point(S3, m=1))[2])[1]
    assert z.imag == 0.0
    assert abs(z - 1.0) < 1e-12


def test_jacobian_identity_at_seed():
    for s in (
        S3,
        Spectrum(pairs=(), reals=(4.0, 9.0)),
        Spectrum(pairs=((0.0, 1.0), (2.0, 0.5)), reals=(-3.0, 5.5, 7.0)),
    ):
        mtx, triples = seed_triples(s)
        p = Pattern.from_slots(n=s.n, k=s.k)
        jac = jacobian_xyz(p, triples)
        assert np.abs(jac - np.eye(2 * s.k + s.l)).max() <= 1e-9


def test_jacobian_rejects_eigenvectors_of_the_wrong_shape():
    _, triples = seed_triples(S3)  # two eigenpairs
    p = Pattern.from_slots(n=3, k=0)  # needs three
    with pytest.raises(
        DimensionMismatch, match=r"^eigenvectors have shapes \(3, 2\)/\(2, 3\), pattern n=3 needs 3 eigenpairs$"
    ):
        jacobian_xyz(p, triples)


def test_jacobian_matches_finite_differences_off_seed():
    rng = np.random.default_rng(3)
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0, -1.0))
    p = Pattern.from_slots(n=4, k=1, slots=((1, 3), (2, 4)), bidirected=(True, True))
    theta = with_fill(p, seed_point(s, m=2), np.array([0.03, -0.02]), np.array([0.01, 0.025]))
    mtx = assemble(p, theta)
    jac = jacobian_xyz(p, tracked_pairs(mtx, s))
    h = 1e-6
    dim = 2 * s.k + s.l
    fd = np.empty((dim, dim))
    for c, b in enumerate(xyz_directions(p, theta)):
        up = label_eigenvalues(eig_all(mtx + h * b), s)[0]
        dn = label_eigenvalues(eig_all(mtx - h * b), s)[0]
        fd[:, c] = (up - dn) / (2 * h)
    assert np.abs(jac - fd).max() <= 1e-5


@pytest.mark.parametrize("k", [10, 0], ids=["generic", "all-real"])
def test_jacobian_gather_matches_dense_derivatives(k):
    # n=40 with its default fill written in: the gather must read the same
    # positions as the dense w^T B v / w^T v for every (x, y, z) direction
    rng = np.random.default_rng(40 + k)
    n = 40
    s = random_spectrum(rng, k, n - 2 * k, box=n / 2)
    g = random_graph(rng, n, k, 4 / n)
    _, p = plan_relabeling(g, max_matching(g), k)
    assert p.m > 0
    theta = with_fill(p, seed_point(s, m=p.m), *default_targets(p, s))
    mtx = assemble(p, theta)
    triples = tracked_pairs(mtx, s)
    jac = jacobian_xyz(p, triples)
    dense = np.empty_like(jac)
    for c, b in enumerate(xyz_directions(p, theta)):
        zetas = eigen_derivative(triples, b)
        dense[:, c] = [z.real for z in zetas[:k]] + [z.imag for z in zetas[:k]] + [
            z.real for z in zetas[k:]
        ]
    assert np.abs(jac - dense).max() <= 1e-10 * (1 + np.linalg.norm(jac))
    assert np.abs(jac - np.eye(n)).max() > 1e-6  # off the seed


def test_evaluate_f_exact_at_targets():
    theta = seed_point(S3, m=1)
    assert np.allclose(evaluate_f(P3, theta, S3), [1.0, 2.0, 3.0], atol=1e-13)


def test_evaluate_f_single_real():
    s = Spectrum(pairs=(), reals=(7.0,))
    assert np.array_equal(evaluate_f(Pattern.from_slots(n=1, k=0), seed_point(s), s), [7.0])


def test_evaluate_f_small_fill_second_order_shift():
    theta = with_fill(P3, seed_point(S3, m=1), np.array([0.01]), np.array([0.01]))
    dev = np.abs(evaluate_f(P3, theta, S3) - [1.0, 2.0, 3.0]).max()
    assert 1e-7 < dev < 1e-2  # fills enter the eigenvalues at second order


SHIFT_CASES = pytest.mark.parametrize(
    "k, l, slots, bidirected, mode",
    [
        (0, 5, ((1, 2), (2, 4), (3, 5), (1, 5)), (True, False, True, False), "generic"),
        (3, 0, ((1, 3), (2, 5), (4, 6), (1, 6)), (True, True, False, True), "generic"),
        (2, 3, ((3, 1), (2, 4), (5, 2), (1, 5), (6, 4), (4, 7)), (False,) * 6, "generic"),
        (2, 3, ((1, 3), (2, 5), (4, 6), (1, 7), (5, 7)), (True,) * 5, "generic"),
        (2, 3, ((1, 3), (2, 5), (4, 6), (1, 7), (5, 7)), (True,) * 5, "skew"),
    ],
    ids=["k0", "l0", "one-way", "bidirected", "skew"],
)


def shift_case(k, l, slots, bidirected, mode):
    """A spectrum, its pattern and fills up to a radius wide, seeded by the case."""
    rng = np.random.default_rng(2 * k + l + len(slots))
    s = random_spectrum(rng, k, l)
    p = Pattern.from_slots(n=s.n, k=k, slots=slots, bidirected=bidirected)
    u = rng.uniform(-1.0, 1.0, p.m) * s.radius
    omega = np.where(bidirected, -u if mode == "skew" else rng.uniform(-1.0, 1.0, p.m), 0.0)
    return s, p, np.concatenate([u, omega])


@SHIFT_CASES
def test_second_order_shift_matches_dense_oracle(k, l, slots, bidirected, mode):
    """The second-order shift, c2 of :func:`solution_curve`, is the dense
    oracle's."""
    s, p, fills = shift_case(k, l, slots, bidirected, mode)
    shift, dense = solution_curve(p, s, fills)[0], solution_curve_dense(p, s, fills)[0]
    assert np.abs(dense).max() > 0.0
    assert np.abs(shift - dense).max() <= 1e-12 * np.abs(dense).max()


@SHIFT_CASES
def test_solution_curve_matches_dense_oracle(k, l, slots, bidirected, mode):
    """c3 and c4 together are the dense oracle's."""
    s, p, fills = shift_case(k, l, slots, bidirected, mode)
    curve, dense = solution_curve(p, s, fills), solution_curve_dense(p, s, fills)
    assert np.abs(dense[2]).max() > 0.0  # c3 is zero where no three blocks form a triangle, c4 is not
    assert np.abs(curve[1:] - dense[1:]).max() <= 1e-12 * np.abs(dense[1:]).max()


def unmasked_c2(p, s, fills):
    """c2 of :func:`solution_curve` before it sets the coordinates with a
    coefficient that is not finite to NaN."""
    g, paired, exp = giep.solver._coupling(p, fills)
    e2 = giep.solver._orders(g, paired, s.values(), exp)[0]
    return np.ldexp(np.concatenate([e2[: p.k].real, e2[: p.k].imag, e2[2 * p.k :].real]), exp)


def random_pattern(rng, n: int, k: int) -> Pattern:
    """Valid slots in random order and orientation, each bidirected (then
    stored i < j) or one-way with probability one half."""
    block = {(2 * j + 1, 2 * j + 2) for j in range(k)}
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) not in block]
    keep = [pairs[i] for i in rng.permutation(len(pairs))[: int(rng.integers(0, len(pairs) + 1))]]
    bidirected = tuple(bool(f) for f in rng.uniform(size=len(keep)) < 0.5)
    slots = tuple(ab if bi or rng.uniform() < 0.5 else ab[::-1] for ab, bi in zip(keep, bidirected))
    return Pattern.from_slots(n=n, k=k, slots=slots, bidirected=bidirected)


def test_second_order_shift_equals_its_reference_bitwise():
    """c2 from the dense coupling has the bits of the first implementation's
    second-order shift, which paired sorted keys of G with their
    transposes, at every coordinate, finite or not: on random patterns with
    one-way slots, on plan_relabeling's patterns, with signed-zero,
    subnormal and huge fills, and on spectra scaled by powers of two across
    the float range and by other factors.  The last cases have n above
    SHIFT_ROWS, so that c2 is summed in several blocks."""
    rng = np.random.default_rng(1717)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300])
    for case in range(812):
        n = int(rng.integers(1, 25) if case < 800 else rng.integers(33, 81))
        k = int(rng.integers(0, n // 2 + 1))
        s = random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2))
        c = float(2.0 ** int(rng.integers(-1000, 1000)) if case % 2 else rng.uniform(0.1, 10.0))
        s = Spectrum(pairs=tuple((c * a, c * b) for a, b in s.pairs), reals=tuple(c * g for g in s.reals))
        if case % 3:
            p = random_pattern(rng, n, k)
        else:
            g = random_graph(rng, n, k, float(rng.uniform(0.0, 0.8)))
            p = plan_relabeling(g, max_matching(g), k)[1]
        fills = rng.uniform(-1.0, 1.0, 2 * p.m) * s.radius * 2.0 ** int(rng.integers(-30, 30))
        odd = rng.uniform(size=fills.size) < 0.2
        fills[odd] = rng.choice(specials, int(odd.sum()))
        with np.errstate(all="ignore"):  # the extremes divide by zero and overflow, alike
            want = second_order_shift_reference(p, s, fills)
            assert unmasked_c2(p, s, fills).tobytes() == want.tobytes(), case


def test_solution_curve_peaks_below_two_square_arrays():
    """The dense coupling G is one n x n complex array, 16 n^2 bytes; the
    terms are formed SHIFT_ROWS rows at a time, so the traced peak stays
    below twice that, where forming them over all n rows at once would
    take more than four times."""
    import tracemalloc

    n = 400
    rng = np.random.default_rng(5)
    s = random_spectrum(rng, 100, 200, box=n / 2)
    g = random_graph(rng, n, 100, 4.0 / n)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    fills = np.concatenate(default_targets(p, s))
    p.entries  # the table is built once per pattern, outside the measurement
    tracemalloc.start()
    solution_curve(p, s, fills)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 * 16 * n * n


def test_second_order_start_is_third_order_accurate():
    """Halving the fills shrinks the residual at the start target - t^2 shift
    about eightfold, the O(t^3) remainder, against fourfold at the seed's
    own (x, y, z)."""
    rng = np.random.default_rng(1)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.4)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    fills = np.concatenate(default_targets(p, s, "generic", SolverConfig(fill_scale=1.0)))
    target = s.target_coordinates()
    shift = solution_curve(p, s, fills)[0]

    def start_residual(t, predict):
        xyz = target - t * t * shift if predict else target
        return np.abs(target - evaluate_f(p, np.concatenate([xyz, t * fills]), s)).max()

    for t in (1.0, 0.5):
        assert start_residual(t, True) >= 6.0 * start_residual(t / 2, True)
        assert 3.5 <= start_residual(t, False) / start_residual(t / 2, False) <= 4.5


def test_fourth_order_start_is_fifth_order_accurate():
    """Halving the fills shrinks the residual at the t = 1 start
    target - c2 - c3 - c4 of :func:`solution_curve` about 32-fold, the
    O(fill^5) remainder, where the start target - c2 above leaves O(fill^3)."""
    rng = np.random.default_rng(1)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.4)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    fills = np.concatenate(default_targets(p, s, "generic", SolverConfig(fill_scale=1.0)))
    target = s.target_coordinates()

    def start_residual(scale):
        xyz = target - solution_curve(p, s, scale * fills).sum(axis=0)
        return np.abs(target - evaluate_f(p, np.concatenate([xyz, scale * fills]), s)).max()

    for scale in (1.0, 0.5):
        assert start_residual(scale) >= 20.0 * start_residual(scale / 2)


@pytest.mark.parametrize("j", [-900, -40, 40, 900])
def test_solution_curve_scales_by_powers_of_two_exactly(j):
    """The curve's terms are homogeneous of degree one in the fills and the
    spectrum together and are evaluated at order one, so scaling both by
    2^j scales all three coefficients by 2^j bitwise, across the float range."""
    rng = np.random.default_rng(3)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.4)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    fills = np.concatenate(default_targets(p, s))
    c = 2.0**j
    scaled = Spectrum(
        pairs=tuple((c * a, c * b) for a, b in s.pairs), reals=tuple(c * x for x in s.reals)
    )
    curve = solution_curve(p, s, fills)
    assert np.all(curve[1:] != 0.0)
    assert np.array_equal(solution_curve(p, scaled, c * fills), c * curve)


def test_newton_zero_iterations_when_exact():
    theta = seed_point(S3, m=1)
    out, _, _, _, jac = newton_correct(P3, S3, theta)
    assert out is theta  # unchanged object: converged before the first update
    assert jac is None  # and the chord is still the identity


def test_newton_recovers_small_fill():
    theta = with_fill(P3, seed_point(S3, m=1), np.array([0.05]), np.array([0.05]))
    before = theta.copy()
    target = S3.target_coordinates()
    out, iters, residual, _, _ = newton_correct(P3, S3, theta)
    assert iters <= 5
    assert np.abs(residual).max() <= 1e-10
    assert np.array_equal(residual, target - evaluate_f(P3, out, S3))  # the returned iterate's
    assert np.array_equal(out[P3.n :], theta[P3.n :])  # u and omega untouched
    assert np.array_equal(theta, before)  # the input point is not modified
    assert spectrum_mismatch(eig_all(assemble(P3, out)), S3) <= 1e-10


def test_newton_refresh_is_full_newton():
    """With ``refresh`` every iterate forms its Jacobian from its one
    decomposition: the same bits as the every-iterate Newton oracle."""
    theta = with_fill(P3, seed_point(S3, m=1), np.array([0.3]), np.array([0.3]))
    out, iters, residual, ev, jac = newton_correct(P3, S3, theta, refresh=True)
    oracle, oracle_iters, oracle_residual, oracle_ev = newton_every_iterate(P3, S3, theta)
    assert iters == oracle_iters >= 2 and np.array_equal(residual, oracle_residual)
    assert np.array_equal(out, oracle) and np.array_equal(ev, oracle_ev)
    assert jac is not None


def test_newton_disc_violation_far_from_discs():
    theta = np.array([40.0, 2.0, 3.0, 0.0, 0.0])  # x, y, z, u, omega
    with pytest.raises(DiscViolation):
        newton_correct(P3, S3, theta)


def test_continuation_no_slots_returns_seed():
    s = Spectrum(pairs=((1.0, 2.0), (4.0, 1.0)), reals=())
    p = Pattern.from_slots(n=4, k=2)
    rep = continuation_solve(s, p)
    assert rep.steps == 0
    assert np.array_equal(rep.matrix, build_seed(s))
    assert rep.final_residual <= 1e-12


def test_continuation_no_slots_decomposes_its_output_once(monkeypatch):
    """With no fills there is no Newton iterate to reuse: the returned seed
    is decomposed once, eigenvalues only, for the final check."""
    calls = []
    real_eigvals = np.linalg.eigvals

    def eigvals(a):
        calls.append(a)
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("eigenvectors of the seed"))
    s = Spectrum(pairs=((np.pi, np.e), (0.3, 1.7)), reals=(0.2,))
    rep = continuation_solve(s, Pattern.from_slots(n=5, k=2))
    assert len(calls) == 1 and np.array_equal(calls[0], rep.matrix)
    # the 2x2 blocks' computed eigenvalues are off in the last bits
    assert rep.final_residual == spectrum_mismatch(real_eigvals(build_seed(s)), s) > 0.0


def test_observer_sees_the_exact_seed_spectrum(monkeypatch):
    """The seed is recorded with its exact spectrum, in eig_all's order, and
    residual 0.0; no decomposition happens before the first trial."""
    import giep.solver as solver

    seen = []
    real_correct = solver.newton_correct

    def watch(state, eigs):
        seen.append((state.t, eigs))

    def correct(*args):
        seen.append(("trial", None))
        return real_correct(*args)

    def eig_all_in_trials(*args, **kwargs):
        assert seen[-1][0] != 0.0, "a decomposition before the first trial"
        return real_eig_all(*args, **kwargs)

    real_eig_all = solver.eig_all
    monkeypatch.setattr(solver, "newton_correct", correct)
    monkeypatch.setattr(solver, "eig_all", eig_all_in_trials)
    rng = np.random.default_rng(6)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.3)
    rep = solve_instance(s, g, cfg=SolverConfig(observer=watch))
    t, eigs = seen[0]
    assert t == 0.0 and seen[1][0] == "trial"
    assert eigs.size == s.n and np.array_equal(eigs, np.sort_complex(s.values()))
    coords, _ = label_eigenvalues(eigs, s)  # inside every disc
    assert np.array_equal(coords, s.target_coordinates())
    assert rep.history[0].residual == 0.0


@pytest.mark.parametrize("fill_scale", [0.1, 1.0, 2.0])
def test_final_residual_is_the_greedy_distance_of_the_last_iterate(fill_scale):
    """The final check is verify's greedy distance of the last accepted
    iterate's eigenvalues, which the observer sees, as a float."""
    rng = np.random.default_rng(31)
    solved = 0
    for _ in range(12):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(0, n // 2 + 1))
        s = random_spectrum(rng, k, n - 2 * k)
        g = random_graph(rng, n, k, float(rng.uniform(0.1, 0.6)))
        last = []
        cfg = SolverConfig(fill_scale=fill_scale, observer=lambda state, eigs: last.append(eigs))
        try:
            rep = solve_instance(s, g, cfg=cfg)
        except StepUnderflow:
            continue
        solved += 1
        assert rep.final_residual == spectrum_mismatch(last[-1], s)
        assert type(rep.final_residual) is float
    assert solved >= 8


def test_final_residual_is_a_float_with_and_without_fills():
    s = Spectrum(pairs=(), reals=(1.0, 2.0, 3.0))
    for slots in ((), ((1, 2),)):
        p = Pattern.from_slots(n=3, k=0, slots=slots, bidirected=(False,) * len(slots))
        rep = continuation_solve(s, p)
        assert type(rep.final_residual) is float
        assert rep.final_residual == spectrum_mismatch(eig_all(rep.matrix), s)


def test_continuation_path3():
    rep = continuation_solve(S3, P3)
    m = rep.matrix
    fill = SolverConfig().fill_scale * S3.radius
    assert m[1, 2] == fill and m[2, 1] == fill  # written exactly
    assert m[0, 2] == 0.0 and m[2, 0] == 0.0  # structural zeros stay exact
    assert spectrum_mismatch(eig_all(m), S3) <= 1e-8 * (1 + S3.inf_norm())
    assert rep.history[0].t == 0.0 and rep.history[-1].t == 1.0


def test_continuation_k0_bidirected_exact_symmetry():
    """With k = 0 and every slot bidirected, generic mode's tied fills keep
    the matrix bitwise symmetric."""
    s = Spectrum(pairs=(), reals=(1.0, 2.0, 3.0))
    p = Pattern.from_slots(n=3, k=0, slots=((1, 2), (2, 3)), bidirected=(True, True))

    def assert_symmetric(state, eigs):
        m = assemble(p, state.theta)
        assert np.array_equal(m, m.T)  # exactly, at every accepted step

    cfg = SolverConfig(observer=assert_symmetric)
    rep = continuation_solve(s, p, mode="generic", cfg=cfg)
    assert np.array_equal(rep.matrix, rep.matrix.T)
    assert spectrum_mismatch(eig_all(rep.matrix), s) <= 1e-8 * (1 + s.inf_norm())


def test_continuation_skew_mode_exact_antisymmetry():
    s = Spectrum(pairs=((0.0, 1.0),), reals=(0.0,))
    p = Pattern.from_slots(n=3, k=1, slots=((1, 3), (2, 3)), bidirected=(True, True))

    def assert_skew_offdiag(state, eigs):
        m = assemble(p, state.theta)
        total = m + m.T
        assert np.all(total[~np.eye(3, dtype=bool)] == 0.0)

    cfg = SolverConfig(observer=assert_skew_offdiag)
    rep = continuation_solve(s, p, mode="skew", cfg=cfg)
    total = rep.matrix + rep.matrix.T
    off = total - np.diag(np.diagonal(total))
    assert np.all(off == 0.0)
    assert spectrum_mismatch(eig_all(rep.matrix), s) <= 1e-8 * (1 + s.inf_norm())


def test_continuation_mode_validation():
    """default_targets is the one check of mode and fill_scale, and the
    solver derives its fills there."""
    s = Spectrum(pairs=(), reals=(1.0, 2.0))
    p = Pattern.from_slots(n=2, k=0, slots=((1, 2),), bidirected=(True,))
    p_dir = Pattern.from_slots(n=2, k=0, slots=((2, 1),), bidirected=(False,))
    with pytest.raises(ValueError, match="skew mode requires every slot to be bidirected"):
        continuation_solve(s, p_dir, "skew")
    with pytest.raises(ValueError, match="unknown mode"):  # checked before the scale
        continuation_solve(s, p, "bogus", SolverConfig(fill_scale=-1.0))
    for mode in MODES:
        for fill_scale in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="fill_scale must be positive and finite"):
                continuation_solve(s, p, mode, SolverConfig(fill_scale=fill_scale))


def test_continuation_rejects_inconsistent_inputs():
    with pytest.raises(DimensionMismatch, match=r"pattern \(n=2, k=0\) does not match"):
        continuation_solve(S3, Pattern.from_slots(n=2, k=0, slots=((1, 2),), bidirected=(True,)))


def test_step_budget_ends_a_multi_step_solve(monkeypatch):
    """MAX_STEPS accepted steps short of t = 1 end the solve; fills three
    radii wide make this seed take several steps."""
    rng = np.random.default_rng(2)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.3)
    cfg = SolverConfig(fill_scale=3.0)
    history = solve_instance(s, g, cfg=cfg).history
    assert len(history) > 2
    monkeypatch.setattr(giep.solver, "MAX_STEPS", 1)
    with pytest.raises(StepUnderflow, match="step budget 1 exhausted at t=") as info:
        solve_instance(s, g, cfg=cfg)
    assert info.value.t_reached == history[1].t  # the one accepted step


def test_a_step_below_the_rounding_of_t_ends_the_solve(monkeypatch):
    """``giep random-instance --n 8 --k 2 --edge-prob 0.5 --rng-seed 3`` at
    fill 30 stalls at t = 0.134678.  With step_min = 1e-300 the step halves
    until t + dt == t, and the solve then raises StepUnderflow instead of
    accepting the same point again until the step budget runs out."""
    rng = np.random.default_rng(3)
    s, g = random_spectrum(rng, 2, 4), random_graph(rng, 8, 2, 0.5)
    calls = []
    real_eig_all = giep.solver.eig_all
    monkeypatch.setattr(giep.solver, "eig_all", lambda *a, **kw: calls.append(1) or real_eig_all(*a, **kw))
    accepted = []
    cfg = SolverConfig(fill_scale=30.0, step_min=1e-300, observer=lambda state, eigs: accepted.append(state.t))
    with pytest.raises(StepUnderflow, match="no longer advances t=0.134678") as info:
        solve_instance(s, g, cfg=cfg)
    assert np.all(np.diff(accepted) > 0.0)
    assert info.value.t_reached == accepted[-1]
    assert len(calls) < 2_000  # a crawl to the step budget takes over 10,000


@pytest.mark.parametrize("slots", [((2, 3),), ()], ids=["fills", "seed"])
def test_final_check_fires_above_the_final_tolerance(monkeypatch, slots):
    """The final spectrum check runs on every solve, with fills or without."""
    p = Pattern.from_slots(n=3, k=1, slots=slots, bidirected=(True,) * len(slots))
    assert continuation_solve(S3, p).final_residual > 0.0
    monkeypatch.setattr(giep.solver, "TOL_FINAL_FACTOR", 0.0)
    with pytest.raises(NoConvergence, match="final spectrum distance .* exceeds 0.000e\\+00"):
        continuation_solve(S3, p)


def test_continuation_step_underflow_for_huge_fill():
    # fills two hundred radii wide leave the provable neighborhood at tiny t
    cfg = SolverConfig(fill_scale=200.0, step_min=1e-3)
    with pytest.raises(StepUnderflow) as info:
        continuation_solve(S3, P3, cfg=cfg)
    assert 0.0 <= info.value.t_reached < 1.0


def test_continuation_observer_sees_every_accepted_state():
    seen = []

    def watch(state, eigs):
        seen.append((state.t, len(eigs)))

    cfg = SolverConfig(observer=watch)
    rep = continuation_solve(S3, P3, cfg=cfg)
    assert [t for t, _ in seen] == [rec.t for rec in rep.history]
    assert all(count == 3 for _, count in seen)
    assert seen[0][0] == 0.0 and seen[-1][0] == 1.0


def test_default_fill_takes_one_whole_interval_step():
    # at the seed the fills move no eigenvalue to first order, so one Newton
    # correction absorbs default-size fills written at t = 1 exactly
    rng = np.random.default_rng(4001)
    s = random_spectrum(rng, 10, 20, box=20.0)
    g = random_graph(rng, 40, 10, 0.1)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    u, omega = default_targets(p, s)
    rep = continuation_solve(s, p)
    assert rep.steps == 1
    assert [rec.t for rec in rep.history] == [0.0, 1.0]
    m = rep.matrix
    for r, ((i, j), bidirected) in enumerate(zip(pattern_slots(p), p.bidirected)):
        assert m[i - 1, j - 1] == u[r]
        if bidirected:
            assert m[j - 1, i - 1] == omega[r]
    zero = ~np.eye(s.n, dtype=bool)
    for i, j in edge_positions(p):
        zero[i - 1, j - 1] = False
    assert np.all(m[zero] == 0.0)


def test_rejected_whole_interval_halves_and_still_reaches_one(monkeypatch):
    import giep.solver as solver

    trial_u = []
    real_correct = solver.newton_correct

    def record(p, s, theta, *args):
        trial_u.append(theta[p.n : p.n + p.m])
        return real_correct(p, s, theta, *args)

    monkeypatch.setattr(solver, "newton_correct", record)
    # fill three radii wide: the whole-interval trial is rejected on this seed
    rng = np.random.default_rng(2)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.3)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    cfg = SolverConfig(fill_scale=3.0)
    u, omega = default_targets(p, s, "generic", cfg)
    rep = continuation_solve(s, p, cfg=cfg)

    ts = [rec.t for rec in rep.history]
    assert len(trial_u) > rep.steps  # some trials were rejected
    assert np.array_equal(trial_u[0], u)  # the first trial is t = 1
    assert 0.0 < ts[1] <= 0.5 and ts[-1] == 1.0
    assert all(np.all(np.abs(tu) <= np.abs(u)) for tu in trial_u)  # never past t = 1
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_trials_from_the_seed_start_on_the_fourth_order_curve(monkeypatch):
    """Every trial from the seed, a rejected whole interval and its halves
    too, starts at (x, y, z) = target - t^2 (c2 + t (c3 + t c4)), the
    solution curve's coefficients from :func:`solution_curve`; the next
    trial starts at the point the first accepted one returned."""
    import giep.solver as solver

    trials = []
    real_correct = solver.newton_correct

    def record(p, s, theta, *args):
        out = None
        try:
            out = real_correct(p, s, theta, *args)
            return out
        finally:
            trials.append((theta, out))

    monkeypatch.setattr(solver, "newton_correct", record)
    # fill three radii wide: the whole-interval trial is rejected on this seed
    rng = np.random.default_rng(2)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.3)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    cfg = SolverConfig(fill_scale=3.0)
    u, omega = default_targets(p, s, "generic", cfg)
    continuation_solve(s, p, cfg=cfg)

    c2, c3, c4 = solution_curve(p, s, np.concatenate([u, omega]))
    first = next(i for i, (_, out) in enumerate(trials) if out is not None)
    assert first > 0
    for theta, _ in trials[: first + 1]:
        t = theta[p.n] / u[0]  # exact: t halves from 1 while the solve sits at the seed
        assert np.array_equal(theta[: p.n], s.target_coordinates() - t * t * (c2 + t * (c3 + t * c4)))
    assert np.array_equal(trials[first + 1][0][: p.n], trials[first][1][0][: p.n])


def test_trials_after_a_rejection_run_full_newton_past_a_fold(monkeypatch):
    """Fills two radii wide drive this n=11 instance across a fold near
    t = 0.967, where the chord iteration stalls trial after trial on a
    stale chord matrix.  Trials after a rejection run full Newton and get
    past it; chord trials alone end in StepUnderflow there."""
    import giep.solver as solver

    s = Spectrum(pairs=(), reals=(
        4.505685057126957, -4.235519777027465, 2.981091489099736, 1.0817689464852815,
        0.5517270050666827, -2.620453810349461, 5.479083150184433, 3.671151760467147,
        1.743382679477433, 2.3018341942143143, -0.6052960908881282,
    ))
    g = make_graph(11, [
        (1, 6), (1, 7), (1, 10), (2, 5), (2, 9), (2, 11), (3, 8), (4, 6), (4, 8),
        (4, 9), (5, 11), (7, 8), (8, 10), (8, 11), (9, 10),
    ], directed=False)
    cfg = SolverConfig(fill_scale=2.0)
    rep = solve_instance(s, g, cfg=cfg)
    assert rep.history[-1].t == 1.0 and verify(rep.matrix, s, g).passed

    real_correct = solver.newton_correct

    def chord_only(p, s, theta, jac, refresh):
        return real_correct(p, s, theta, jac)

    monkeypatch.setattr(solver, "newton_correct", chord_only)
    with pytest.raises(StepUnderflow):
        solve_instance(s, g, cfg=cfg)


def test_eigenpair_failure_in_a_trial_halves_the_step(monkeypatch):
    """An eigenpair check that fails inside the whole-interval trial rejects
    that trial like a disc violation: the step halves and t still reaches 1.
    Fills one disc radius wide make that trial's first chord step contract
    weakly, so the trial forms a Jacobian."""
    import giep.solver as solver

    trials = []
    calls = []
    real_correct = solver.newton_correct
    real_triple = solver.eigen_triple

    def record(p, s, theta, *args):
        trials.append(theta[p.n] / S3.radius)  # t, exactly: u* is the radius
        return real_correct(p, s, theta, *args)

    def fail_first(mtx, ev, vecs, idx):
        calls.append(trials[-1])
        if len(calls) == 1:
            # reversed eigenvectors: eigen_triple's residual check raises
            vecs = vecs[:, ::-1]
        return real_triple(mtx, ev, vecs, idx)

    monkeypatch.setattr(solver, "newton_correct", record)
    monkeypatch.setattr(solver, "eigen_triple", fail_first)
    rep = continuation_solve(S3, P3, cfg=SolverConfig(fill_scale=1.0))
    assert trials[0] == 1.0 and calls[0] == 1.0  # the whole-interval trial formed one
    assert [rec.t for rec in rep.history] == [0.0, 0.5, 1.0]
    assert spectrum_mismatch(eig_all(rep.matrix), S3) <= 1e-8 * (1 + S3.inf_norm())


def test_conditioning_checked_once_per_jacobian(monkeypatch):
    """Every correction after a Jacobian is formed solves with it, but its
    singular values are computed once, when it is formed."""
    import giep.solver as solver

    counts = {"svd": 0, "jacobian": 0, "solve": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(solver, "jacobian_xyz", counting("jacobian", solver.jacobian_xyz))
    monkeypatch.setattr(solver, "solve_linear", counting("solve", solver.solve_linear))
    rng = np.random.default_rng(7)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.3)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    cfg = SolverConfig(fill_scale=2.0)
    continuation_solve(s, p, cfg=cfg)
    assert counts["svd"] == counts["jacobian"] >= 2
    assert counts["solve"] > counts["jacobian"]


def test_singular_jacobian_raises_where_it_is_formed(monkeypatch):
    """An ill-conditioned Jacobian raises SingularSystem at the iterate that
    forms it, before any correction solves with it."""
    import giep.linalg as linalg
    import giep.solver as solver

    formed, solves = [], []
    real_jacobian, real_solve = solver.jacobian_xyz, solver.solve_linear

    def jacobian(*args):
        formed.append(real_jacobian(*args))
        return formed[-1]

    def solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(linalg, "PIVOT_FACTOR", 1.0)  # no matrix passes the check
    monkeypatch.setattr(solver, "jacobian_xyz", jacobian)
    monkeypatch.setattr(solver, "solve_linear", solve)
    # fills one disc radius wide: the whole-interval trial forms a Jacobian
    with pytest.raises(SingularSystem, match="smallest singular value .* below 1e\\+00 times"):
        continuation_solve(S3, P3, cfg=SolverConfig(fill_scale=1.0))
    assert len(formed) == 1 and solves == []


@pytest.mark.parametrize("fill_scale", [0.1, 0.5, 1.0])
def test_fill_scale_sweep_passes_verify(fill_scale):
    rng = np.random.default_rng(23)
    for _ in range(12):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(0, n // 2 + 1))
        s = random_spectrum(rng, k, n - 2 * k)
        g = random_graph(rng, n, k, float(rng.uniform(0.1, 0.6)))
        rep = solve_instance(s, g, cfg=SolverConfig(fill_scale=fill_scale))
        vr = verify(rep.matrix, s, g)
        assert vr.passed, vr.render()


def test_continuation_random_spectra_jacobian_scale():
    # spot-check: newton stays cheap near the seed for assorted sizes
    rng = np.random.default_rng(19)
    for _ in range(5):
        k = int(rng.integers(0, 3))
        l = int(rng.integers(0, 3))
        if 2 * k + l < 2:
            continue
        s = random_spectrum(rng, k, l)
        n = s.n
        slots = tuple((i, i + 1) for i in range(1, n) if not (i % 2 == 1 and i < 2 * k))
        p = Pattern.from_slots(n=n, k=k, slots=slots, bidirected=(True,) * len(slots))
        rep = continuation_solve(s, p)
        assert rep.final_residual <= 1e-8 * (1 + s.inf_norm())


def test_default_fill_solve_runs_on_eigenvalues_alone(monkeypatch):
    """At default fills the whole interval is one trial: no eigenvectors,
    no Jacobian and no linear solve.  The seed is never decomposed, and the
    trial starts on the fourth-order curve, already within the Newton
    tolerance here, so it takes no correction: one ``eigvals`` in all, which
    is also the final spectrum check.  The second-order start took two, and
    the start at the seed's (x, y, z) three plus the seed's.

    Around that call the matching, the relabeling and the disc
    labeling are linear-time array work: no eigenvalue-by-center distance
    matrix.  The disc radius is computed before counting starts; it takes
    every pairwise distance, once per spectrum."""
    import giep.model as model
    import giep.solver as solver

    counts = {}
    phase = ["driver"]

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[phase[0], key] = counts.get((phase[0], key), 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def in_correct(*args, **kwargs):
        phase[0] = "newton"
        try:
            return real_correct(*args, **kwargs)
        finally:
            phase[0] = "driver"

    real_correct = solver.newton_correct
    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    for name in ("eigen_triple", "jacobian_xyz", "solve_linear"):
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    monkeypatch.setattr(solver, "assemble", counting("iterate", solver.assemble))
    monkeypatch.setattr(solver, "newton_correct", counting("trial", in_correct))

    # n=160, k=40, edge probability 4/n, like the benchmark's large_sparse
    rng = np.random.default_rng(160)
    s = random_spectrum(rng, 40, 80, box=80.0)
    g = random_graph(rng, 160, 40, 4 / 160)
    assert s.radius > 0.0
    monkeypatch.setattr(model, "_distances", counting("distances", model._distances))
    _, p = plan_relabeling(g, max_matching(g), s.k)
    rep = continuation_solve(s, p)

    assert counts[("driver", "trial")] == rep.steps == 1
    assert counts[("newton", "iterate")] == rep.steps + rep.newton_iterations_total
    assert rep.newton_iterations_total == 0
    assert counts[("newton", "eigvals")] == counts[("newton", "iterate")] == 1
    assert ("driver", "eigvals") not in counts
    vectors = ("eig", "eigen_triple", "jacobian_xyz", "solve_linear")
    assert not [key for key in counts if key[1] in vectors]
    assert not [key for key in counts if key[1] == "distances"]


def test_jacobian_formed_only_after_a_weak_contraction(monkeypatch):
    """In a chord trial a true Jacobian is formed exactly at the unconverged
    iterates whose residual shrank by less than CHORD_RATIO over the last
    chord step, from one ``eig`` with vectors of that iterate; the Newton
    step right after it is not judged.  A trial after a rejection runs full
    Newton: every iterate is one ``eig`` with vectors, and every unconverged
    one forms a Jacobian.  Every later correction solves with the latest
    Jacobian, in later trials too; a rejected trial leaves the chord as it
    was."""
    import giep.solver as solver

    events = []
    real = {
        name: getattr(solver, name)
        for name in (
            "newton_correct", "eig_all", "label_eigenvalues", "jacobian_xyz", "solve_linear"
        )
    }

    def correct(p, s, theta, *args):
        events.append(("trial", s.target_coordinates()))
        try:
            return real["newton_correct"](p, s, theta, *args)
        except Exception:
            events.append(("rejected", None))
            raise

    def eig(mtx, vectors=False):
        events.append(("eig" if vectors else "eigvals", mtx))
        return real["eig_all"](mtx, vectors)

    def label(ev, s):
        out = real["label_eigenvalues"](ev, s)
        events.append(("coords", out[0]))
        return out

    def jacobian(p, eig):
        out = real["jacobian_xyz"](p, eig)
        events.append(("jacobian", out))
        return out

    def solve(a, rhs):
        events.append(("solve", a))
        return real["solve_linear"](a, rhs)

    for name, fn in (
        ("newton_correct", correct),
        ("eig_all", eig),
        ("label_eigenvalues", label),
        ("jacobian_xyz", jacobian),
        ("solve_linear", solve),
    ):
        monkeypatch.setattr(solver, name, fn)

    def audit(seed, fill_scale):
        """Replay one solve's events; returns the counts of Jacobians
        formed, of those formed in trials after a rejection, of weak
        contractions after a Newton step, and of corrections that reuse a
        Jacobian from an earlier trial."""
        events.clear()
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, 3, 4)
        g = random_graph(rng, 10, 3, 0.3)
        _, p = plan_relabeling(g, max_matching(g), s.k)
        cfg = SolverConfig(fill_scale=fill_scale)
        try:
            continuation_solve(s, p, cfg=cfg)
        except StepUnderflow:
            pass
        tol = TOL_NEWTON_FACTOR * s.scale

        kinds = [kind for kind, _ in events]
        formed = retried = newton_weak = reused_across = trial = 0
        chord = None  # the identity
        rejected = False
        i = kinds.index("trial")
        while i < len(events):
            kind, value = events[i]
            i += 1
            if kind == "trial":
                target, residuals, chord_before, newton_step = value, [], chord, False
                retry, rejected = rejected, False
                trial += 1
            elif kind == "rejected":
                chord, rejected = chord_before, True
            elif kind in ("eigvals", "eig") and kinds[i] == "coords":  # an iterate inside the discs
                assert (kind == "eig") == retry  # one decomposition, with vectors on a retry
                residuals.append(np.abs(target - events[i][1]).max())
                i += 1
                if retry and residuals[-1] > tol and len(residuals) <= MAX_NEWTON:
                    assert kinds[i] in ("jacobian", "rejected")  # unless an eigenpair check raised
                    if kinds[i] == "jacobian":
                        chord, chord_trial = events[i][1], trial
                        formed += 1
                        retried += 1
                        i += 1
                    continue
                weak = 1 < len(residuals) <= MAX_NEWTON and residuals[-1] > max(
                    tol, CHORD_RATIO * residuals[-2]
                )
                if weak and newton_step:
                    newton_weak += 1
                elif weak:
                    assert kinds[i : i + 2] == ["eig", "coords"]
                    assert events[i][1] is value  # the same iterate
                    i += 2
                    if kinds[i] == "jacobian":  # unless an eigenpair check raised
                        chord, chord_trial = events[i][1], trial
                        formed += 1
                        i += 1
                newton_step = weak and not newton_step
            elif kind == "solve":
                assert value is chord  # never the identity's plain step, always the latest
                reused_across += chord_trial < trial
            elif kind in ("eigvals", "eig"):  # an iterate that left the discs
                assert kind != "eig" or retry, "eigenvectors outside a weak chord contraction"
                assert kinds[i] == "rejected"
        return formed, retried, newton_weak, reused_across

    # fills two and three radii wide: seeds 2 and 7 reach t = 1 after
    # rejected trials and several Jacobians, and on seed 7 one Newton step
    # contracts weakly; seed 1 stalls in trial after trial and fails
    formed, retried, _, reused_across = audit(2, 3.0)
    assert formed > retried > 0 and reused_across > 0
    formed, _, newton_weak, _ = audit(7, 2.0)
    assert formed >= 2 and newton_weak > 0
    _, retried, _, _ = audit(1, 2.0)
    assert retried > 0


@pytest.mark.parametrize("n", [40, 160])
@pytest.mark.parametrize("graph", ["directed", "undirected"])
def test_chord_solve_matches_every_iterate_newton(monkeypatch, graph, n):
    """The chord iteration stops at other iterates than full Newton, so the
    block entries may differ in their last bits, but the written fills and
    the structural zeros are the same bits.  The directed case keeps the
    matching bidirected and makes every unmatched edge one-way."""
    import giep.solver as solver

    rng = np.random.default_rng(n + 1)
    s = random_spectrum(rng, n // 4, n // 2, box=n / 2)
    g = random_graph(rng, n, n // 4, 4 / n)
    pairs = set(max_matching(g))
    if graph == "directed":
        g = make_graph(n, sorted(e for e in g.edges if e[0] < e[1] or e[::-1] in pairs), directed=True)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    assert all(p.bidirected) == (graph == "undirected")
    chord = continuation_solve(s, p).matrix

    def full_newton(p, s, theta, jac, refresh):
        return (*newton_every_iterate(p, s, theta), jac)

    monkeypatch.setattr(solver, "newton_correct", full_newton)
    oracle = continuation_solve(s, p).matrix

    e = p.entries
    fill = e.param >= p.n
    assert np.array_equal(chord[e.rows[fill], e.cols[fill]], oracle[e.rows[fill], e.cols[fill]])
    written = np.zeros_like(chord, dtype=bool)
    written[e.rows, e.cols] = True
    assert np.all(chord[~written] == 0.0) and np.all(oracle[~written] == 0.0)
    assert np.abs(chord - oracle).max() <= 1e-10 * np.abs(oracle).max()

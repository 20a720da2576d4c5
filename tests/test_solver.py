"""Tests for eigenvalue derivatives, the Newton corrector, and continuation."""

import numpy as np
import pytest

from giep import (
    DiscViolation,
    Pattern,
    SolverConfig,
    Spectrum,
    StepUnderflow,
    build_seed,
    continuation_solve,
    default_targets,
    disc_radius,
    eig_all,
    max_matching,
    plan_relabeling,
    solve_instance,
    spectrum_mismatch,
    verify,
)
from giep.cli import random_graph, random_spectrum
from giep.linalg import eigen_triple
from giep.model import assemble, label_eigenvalues
from giep.solver import TOL_NEWTON_FACTOR, evaluate_f, jacobian_xyz, newton_correct
from conftest import edge_positions, eigen_derivative


S3 = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
P3 = Pattern(n=3, k=1, slots=((2, 3),), bidirected=(True,))
TOL3 = TOL_NEWTON_FACTOR * (1 + S3.inf_norm())


def tracked_pairs(mtx, d):
    """Eigenpairs of ``mtx`` at its labeled eigenvalues, plus-discs then reals."""
    ev, vecs = eig_all(mtx, vectors=True)
    _, idx = label_eigenvalues(ev, d)
    return eigen_triple(mtx, ev, vecs, idx)


def seed_triples(s):
    """Eigenpairs of the seed, ordered plus-discs then reals."""
    mtx = build_seed(s)
    d = disc_radius(s)
    return mtx, d, tracked_pairs(mtx, d)


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
    mtx, _, triples = seed_triples(S3)
    bx, by, bz = xyz_directions(P3, seed_point(S3, m=1))
    zx = eigen_derivative(triples, bx)[0]  # the pair's eigenpair
    zy = eigen_derivative(triples, by)[0]
    zz = eigen_derivative(triples, bz)[0]
    assert abs(zx - 1.0) < 1e-12      # diagonal block direction moves lambda
    assert abs(zy - 1j) < 1e-12       # rotation direction moves mu
    assert abs(zz) < 1e-12            # the other block has no first-order effect


def test_eigen_derivative_real_row_is_real():
    _, _, triples = seed_triples(S3)
    z = eigen_derivative(triples, xyz_directions(P3, seed_point(S3, m=1))[2])[1]
    assert z.imag == 0.0
    assert abs(z - 1.0) < 1e-12


def test_jacobian_identity_at_seed():
    for s in (
        S3,
        Spectrum(pairs=(), reals=(4.0, 9.0)),
        Spectrum(pairs=((0.0, 1.0), (2.0, 0.5)), reals=(-3.0, 5.5, 7.0)),
    ):
        mtx, _, triples = seed_triples(s)
        p = Pattern(n=s.n, k=s.k)
        jac = jacobian_xyz(p, triples)
        assert np.abs(jac - np.eye(2 * s.k + s.l)).max() <= 1e-9


def test_jacobian_matches_finite_differences_off_seed():
    rng = np.random.default_rng(3)
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0, -1.0))
    d = disc_radius(s)
    p = Pattern(n=4, k=1, slots=((1, 3), (2, 4)), bidirected=(True, True))
    theta = with_fill(p, seed_point(s, m=2), np.array([0.03, -0.02]), np.array([0.01, 0.025]))
    mtx = assemble(p, theta)
    jac = jacobian_xyz(p, tracked_pairs(mtx, d))
    h = 1e-6
    dim = 2 * s.k + s.l
    fd = np.empty((dim, dim))
    for c, b in enumerate(xyz_directions(p, theta)):
        up = label_eigenvalues(eig_all(mtx + h * b), d)[0]
        dn = label_eigenvalues(eig_all(mtx - h * b), d)[0]
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
    d = disc_radius(s)
    assert p.m > 0
    theta = with_fill(p, seed_point(s, m=p.m), *default_targets(p, d))
    mtx = assemble(p, theta)
    triples = tracked_pairs(mtx, d)
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
    d = disc_radius(S3)
    theta = seed_point(S3, m=1)
    assert np.allclose(evaluate_f(P3, theta, d), [1.0, 2.0, 3.0], atol=1e-13)


def test_evaluate_f_single_real():
    s = Spectrum(pairs=(), reals=(7.0,))
    assert np.array_equal(evaluate_f(Pattern(n=1, k=0), seed_point(s), disc_radius(s)), [7.0])


def test_evaluate_f_small_fill_second_order_shift():
    d = disc_radius(S3)
    theta = with_fill(P3, seed_point(S3, m=1), np.array([0.01]), np.array([0.01]))
    dev = np.abs(evaluate_f(P3, theta, d) - [1.0, 2.0, 3.0]).max()
    assert 1e-7 < dev < 1e-2  # fills enter the eigenvalues at second order


def test_newton_zero_iterations_when_exact():
    d = disc_radius(S3)
    theta = seed_point(S3, m=1)
    out, _, _, _ = newton_correct(P3, d, theta, S3.target_coordinates(), TOL3)
    assert out is theta  # unchanged object: converged before the first update


def test_newton_recovers_small_fill():
    d = disc_radius(S3)
    theta = with_fill(P3, seed_point(S3, m=1), np.array([0.05]), np.array([0.05]))
    before = theta.copy()
    out, iters, residual, _ = newton_correct(P3, d, theta, S3.target_coordinates(), TOL3)
    assert iters <= 5
    assert residual <= 1e-10
    assert np.array_equal(out[P3.n :], theta[P3.n :])  # u and omega untouched
    assert np.array_equal(theta, before)  # the input point is not modified
    assert spectrum_mismatch(eig_all(assemble(P3, out)), S3) <= 1e-10


def test_newton_disc_violation_far_from_discs():
    d = disc_radius(S3)
    theta = np.array([40.0, 2.0, 3.0, 0.0, 0.0])  # x, y, z, u, omega
    with pytest.raises(DiscViolation):
        newton_correct(P3, d, theta, S3.target_coordinates(), TOL3)


def test_continuation_no_slots_returns_seed():
    s = Spectrum(pairs=((1.0, 2.0), (4.0, 1.0)), reals=())
    p = Pattern(n=4, k=2)
    rep = continuation_solve(s, p, (np.zeros(0), np.zeros(0)))
    assert rep.steps == 0
    assert np.array_equal(rep.matrix, build_seed(s))
    assert rep.final_residual <= 1e-12


def test_continuation_path3():
    targets = (np.array([0.1]), np.array([0.1]))
    rep = continuation_solve(S3, P3, targets)
    m = rep.matrix
    assert m[1, 2] == 0.1 and m[2, 1] == 0.1  # written exactly
    assert m[0, 2] == 0.0 and m[2, 0] == 0.0  # structural zeros stay exact
    assert spectrum_mismatch(eig_all(m), S3) <= 1e-8 * (1 + S3.inf_norm())
    assert rep.history[0].t == 0.0 and rep.history[-1].t == 1.0


def test_continuation_symmetric_mode_exact_symmetry():
    s = Spectrum(pairs=(), reals=(1.0, 2.0, 3.0))
    p = Pattern(n=3, k=0, slots=((1, 2), (2, 3)), bidirected=(True, True))
    u, omega = default_targets(p, disc_radius(s), "symmetric")

    def assert_symmetric(state, eigs):
        m = assemble(p, state.theta)
        assert np.array_equal(m, m.T)  # exactly, at every accepted step

    cfg = SolverConfig(observer=assert_symmetric)
    rep = continuation_solve(s, p, (u, omega), mode="symmetric", cfg=cfg)
    assert np.array_equal(rep.matrix, rep.matrix.T)
    assert spectrum_mismatch(eig_all(rep.matrix), s) <= 1e-8 * (1 + s.inf_norm())


def test_continuation_skew_mode_exact_antisymmetry():
    s = Spectrum(pairs=((0.0, 1.0),), reals=(0.0,))
    p = Pattern(n=3, k=1, slots=((1, 3), (2, 3)), bidirected=(True, True))
    u, omega = default_targets(p, disc_radius(s), "skew")

    def assert_skew_offdiag(state, eigs):
        m = assemble(p, state.theta)
        total = m + m.T
        assert np.all(total[~np.eye(3, dtype=bool)] == 0.0)

    cfg = SolverConfig(observer=assert_skew_offdiag)
    rep = continuation_solve(s, p, (u, omega), mode="skew", cfg=cfg)
    total = rep.matrix + rep.matrix.T
    off = total - np.diag(np.diagonal(total))
    assert np.all(off == 0.0)
    assert spectrum_mismatch(eig_all(rep.matrix), s) <= 1e-8 * (1 + s.inf_norm())


def test_continuation_mode_validation():
    s = Spectrum(pairs=(), reals=(1.0, 2.0))
    p = Pattern(n=2, k=0, slots=((1, 2),), bidirected=(True,))
    with pytest.raises(ValueError):
        continuation_solve(s, p, (np.array([0.1]), np.array([0.1])), mode="skew")
    p_dir = Pattern(n=2, k=0, slots=((2, 1),), bidirected=(False,))
    with pytest.raises(ValueError):
        default_targets(p_dir, disc_radius(s), "symmetric")
    with pytest.raises(ValueError):
        continuation_solve(s, p, (np.array([0.0]), np.array([0.1])))  # zero u*
    d = disc_radius(s)
    with pytest.raises(ValueError, match="unknown mode"):  # checked before the scale
        default_targets(p, d, "bogus", SolverConfig(fill_scale=-1.0))
    for mode in ("generic", "symmetric", "skew"):
        with pytest.raises(ValueError, match="fill_scale must be positive"):
            default_targets(p, d, mode, SolverConfig(fill_scale=float("nan")))


@pytest.mark.parametrize("u, omega", [(np.nan, 0.1), (0.1, np.inf)], ids=["nan-u", "inf-omega"])
def test_continuation_rejects_nonfinite_fill_targets(u, omega):
    with pytest.raises(ValueError, match="fill targets must be finite"):
        continuation_solve(S3, P3, (np.array([u]), np.array([omega])))


def test_continuation_step_underflow_for_huge_fill():
    # fills two hundred radii wide leave the provable neighborhood at tiny t
    cfg = SolverConfig(fill_scale=200.0, step_min=1e-3)
    u, omega = default_targets(P3, disc_radius(S3), "generic", cfg)
    with pytest.raises(StepUnderflow) as info:
        continuation_solve(S3, P3, (u, omega), cfg=cfg)
    assert 0.0 <= info.value.t_reached < 1.0


def test_continuation_observer_sees_every_accepted_state():
    seen = []

    def watch(state, eigs):
        seen.append((state.t, len(eigs)))

    cfg = SolverConfig(observer=watch)
    rep = continuation_solve(S3, P3, (np.array([0.1]), np.array([0.1])), cfg=cfg)
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
    u, omega = default_targets(p, disc_radius(s))
    rep = continuation_solve(s, p, (u, omega))
    assert rep.steps == 1
    assert [rec.t for rec in rep.history] == [0.0, 1.0]
    m = rep.matrix
    for r, ((i, j), bidirected) in enumerate(zip(p.slots, p.bidirected)):
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

    def record(p, d, theta, *args):
        trial_u.append(theta[p.n : p.n + p.m])
        return real_correct(p, d, theta, *args)

    monkeypatch.setattr(solver, "newton_correct", record)
    # fill three radii wide: the whole-interval trial is rejected on this seed
    rng = np.random.default_rng(2)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.3)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    cfg = SolverConfig(fill_scale=3.0)
    u, omega = default_targets(p, disc_radius(s), "generic", cfg)
    rep = continuation_solve(s, p, (u, omega), cfg=cfg)

    ts = [rec.t for rec in rep.history]
    assert len(trial_u) > rep.steps  # some trials were rejected
    assert np.array_equal(trial_u[0], u)  # the first trial is t = 1
    assert 0.0 < ts[1] <= 0.5 and ts[-1] == 1.0
    assert all(np.all(np.abs(tu) <= np.abs(u)) for tu in trial_u)  # never past t = 1
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_eigenpair_failure_in_a_trial_halves_the_step(monkeypatch):
    """An eigenpair check that fails inside the whole-interval trial rejects
    that trial like a disc violation: the step halves and t still reaches 1."""
    import giep.solver as solver

    calls = []
    real_triple = solver.eigen_triple

    def fail_first(mtx, ev, vecs, idx):
        calls.append(mtx)
        if len(calls) == 1:
            # reversed eigenvectors: eigen_triple's residual check raises
            vecs = vecs[:, ::-1]
        return real_triple(mtx, ev, vecs, idx)

    monkeypatch.setattr(solver, "eigen_triple", fail_first)
    rep = continuation_solve(S3, P3, (np.array([0.1]), np.array([0.1])))
    assert len(calls) >= 2
    assert [rec.t for rec in rep.history] == [0.0, 0.5, 1.0]
    assert spectrum_mismatch(eig_all(rep.matrix), S3) <= 1e-8 * (1 + S3.inf_norm())


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
        p = Pattern(n=n, k=k, slots=slots, bidirected=(True,) * len(slots))
        u, omega = default_targets(p, disc_radius(s), "generic")
        rep = continuation_solve(s, p, (u, omega))
        assert rep.final_residual <= 1e-8 * (1 + s.inf_norm())


def test_one_decomposition_per_newton_iterate(monkeypatch):
    """Each Newton iterate runs one ``eig`` and no ``eigvals``; the seed runs
    the only ``eigvals``, so the final spectrum check adds no decomposition."""
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
    monkeypatch.setattr(solver, "assemble", counting("iterate", solver.assemble))
    monkeypatch.setattr(solver, "newton_correct", counting("trial", in_correct))

    # fill three radii wide: this seed rejects three trial steps on its way to t = 1
    rng = np.random.default_rng(2)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.3)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    cfg = SolverConfig(fill_scale=3.0)
    rep = continuation_solve(s, p, default_targets(p, disc_radius(s), "generic", cfg), cfg=cfg)

    assert counts[("driver", "trial")] > rep.steps  # some trials were rejected
    assert counts[("newton", "eig")] == counts[("newton", "iterate")]
    assert counts[("newton", "iterate")] >= rep.steps + rep.newton_iterations_total
    assert counts.get(("newton", "eigvals"), 0) == 0
    assert counts[("driver", "eigvals")] == 1
    assert counts.get(("driver", "eig"), 0) == 0

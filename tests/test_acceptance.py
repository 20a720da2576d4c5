"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred to later
calibration.  The random sweeps use fixed seeds so the suite is
deterministic.
"""

from __future__ import annotations

import numpy as np

from giep import SolverConfig, Spectrum, StepUnderflow, solve_instance, tridiagonalize, verify
from giep.cli import random_graph, random_spectrum
from giep.errors import RepeatedEigenvalues
from giep.graph import max_matching
from giep.linalg import eig_all, eigen_triple
from giep.model import Pattern, label_eigenvalues, spectrum_mismatch
from giep.solver import jacobian_xyz
from conftest import (
    brute_force_matching_size,
    build_seed,
    eigen_derivative,
    random_undirected_graph,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def _random_sizes(rng, k_max=4, l_max=4):
    while True:
        k = int(rng.integers(0, k_max + 1))
        l = int(rng.integers(0, l_max + 1))
        if 2 * k + l >= 1:
            return k, l


def _triples_for(mtx, s: Spectrum):
    ev, vecs = eig_all(mtx, vectors=True)
    coords, idx = label_eigenvalues(ev, s)
    return coords, eigen_triple(mtx, ev, vecs, idx)


def test_criterion_1_jacobian_identity_at_seed():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        k, l = _random_sizes(rng)
        s = random_spectrum(rng, k, l)
        mtx = build_seed(s)
        _, triples = _triples_for(mtx, s)
        jac = jacobian_xyz(Pattern(n=s.n, k=s.k), triples)
        worst = max(worst, float(np.abs(jac - np.eye(2 * k + l)).max()))
    ok = worst <= 1e-9
    _report(1, ok, f"seed jacobian vs identity, max deviation {worst:.3e} (tol 1e-9)")
    assert ok


def test_criterion_2_derivative_matches_finite_differences():
    rng = np.random.default_rng(1002)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        k, l = _random_sizes(rng, k_max=3, l_max=3)
        s = random_spectrum(rng, k, l)
        n = s.n
        seed = build_seed(s)
        bump = rng.standard_normal((n, n))
        bump *= 0.05 * s.radius / np.linalg.norm(bump)
        mtx = seed + bump
        direction = rng.standard_normal((n, n))
        _, triples = _triples_for(mtx, s)
        zetas = eigen_derivative(triples, direction)
        analytic = np.concatenate(
            [
                [z.real for z in zetas[:k]],
                [z.imag for z in zetas[:k]],
                [z.real for z in zetas[k:]],
            ]
        )
        up = label_eigenvalues(eig_all(mtx + h * direction), s)[0]
        dn = label_eigenvalues(eig_all(mtx - h * direction), s)[0]
        fd = (up - dn) / (2 * h)
        worst = max(worst, float(np.abs(analytic - fd).max()))
    ok = worst <= 1e-5
    _report(2, ok, f"analytic vs central-difference rates, max gap {worst:.3e} (tol 1e-5)")
    assert ok


class _OccupancyAuditor:
    """Independent recount of disc occupancy at every accepted state."""

    def __init__(self, s: Spectrum):
        self.s = s
        self.bad_states = 0
        self.states = 0

    def __call__(self, state, eigs):
        self.states += 1
        centers = self.s.values()
        eps = self.s.radius
        for idx, c in enumerate(centers):
            inside = [
                e
                for e in eigs
                if abs(e - c) < eps and (idx < 2 * self.s.k or e.imag == 0.0)
            ]
            if len(inside) != 1:
                self.bad_states += 1
                return


_SWEEP_CACHE: dict | None = None


def _end_to_end_sweep() -> dict:
    """200 random feasible instances, instrumented; shared by criteria 3 and 7."""
    global _SWEEP_CACHE
    if _SWEEP_CACHE is not None:
        return _SWEEP_CACHE
    rng = np.random.default_rng(1003)
    stats = {
        "total": 0,
        "success": 0,
        "underflow": 0,
        "other_failures": [],
        "verify_failures": [],
        "accepted_states": 0,
        "bad_occupancy_states": 0,
    }
    for _ in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n // 2 + 1))
        s = random_spectrum(rng, k, n - 2 * k)
        g = random_graph(rng, n, k, float(rng.uniform(0.0, 0.5)))
        auditor = _OccupancyAuditor(s)
        cfg = SolverConfig(observer=auditor)
        stats["total"] += 1
        try:
            rep = solve_instance(s, g, "generic", cfg)
        except StepUnderflow:
            stats["underflow"] += 1
            continue
        except Exception as exc:  # any other failure violates criterion 3
            stats["other_failures"].append(repr(exc))
            continue
        finally:
            stats["accepted_states"] += auditor.states
            stats["bad_occupancy_states"] += auditor.bad_states
        vr = verify(rep.matrix, s, g)
        if vr.passed:
            stats["success"] += 1
        else:
            stats["verify_failures"].append(vr.render())
    _SWEEP_CACHE = stats
    return stats


def test_criterion_3_end_to_end_sweep():
    stats = _end_to_end_sweep()
    rate = stats["success"] / stats["total"]
    ok = (
        rate >= 0.95
        and not stats["other_failures"]
        and not stats["verify_failures"]
    )
    _report(
        3,
        ok,
        f"end-to-end sweep: {stats['success']}/{stats['total']} verified "
        f"({rate:.1%}), {stats['underflow']} step underflows, "
        f"{len(stats['other_failures'])} unexpected errors",
    )
    assert ok, stats


def test_criterion_4_tridiagonalization():
    rng = np.random.default_rng(1004)
    checked = 0
    worst = 0.0
    ok = True
    while checked < 50:
        n = int(rng.integers(2, 8))
        a = rng.standard_normal((n, n)) * float(rng.uniform(0.5, 3.0))
        try:
            rep = tridiagonalize(a)
        except RepeatedEigenvalues:
            continue  # resample until the gap check passes
        t = rep.matrix
        far = np.abs(np.subtract.outer(range(n), range(n))) > 1
        exact_tridiagonal = not np.any(t[far])
        bands_nonzero = n == 1 or (
            np.abs(np.diagonal(t, 1)).min() > 0.0
            and np.abs(np.diagonal(t, -1)).min() > 0.0
        )
        s_in = Spectrum.from_eigenvalues(eig_all(a))
        err = spectrum_mismatch(eig_all(t), s_in)
        tol = 1e-8 * (1.0 + s_in.inf_norm())
        worst = max(worst, err / tol)
        ok = ok and exact_tridiagonal and bands_nonzero and err <= tol
        checked += 1
    _report(4, ok, f"50 tridiagonalizations exact in shape, worst spectrum error {worst:.2e}x tol")
    assert ok


def test_criterion_5_symmetric_mode():
    rng = np.random.default_rng(1005)
    ok = True
    for _ in range(25):
        n = int(rng.integers(1, 9))
        s = random_spectrum(rng, 0, n)
        g = random_undirected_graph(rng, n, float(rng.uniform(0.0, 0.7)))
        rep = solve_instance(s, g, mode="symmetric")
        symmetric = bool(np.all(rep.matrix == rep.matrix.T))
        err = spectrum_mismatch(eig_all(rep.matrix), s)
        ok = ok and symmetric and err <= 1e-8 * (1.0 + s.inf_norm())
    _report(5, ok, "25 all-real instances: bitwise symmetry and spectrum within 1e-8 scale")
    assert ok


def test_criterion_6_skew_mode():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(25):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(0, 2))
        n = 2 * k + l
        s = random_spectrum(rng, k, l, purely_imaginary=True)
        g = random_graph(rng, n, k, float(rng.uniform(0.0, 0.5)))
        rep = solve_instance(s, g, mode="skew")
        total = rep.matrix + rep.matrix.T
        off = total - np.diag(np.diagonal(total))
        skew_exact = bool(np.all(off == 0.0))
        err = spectrum_mismatch(eig_all(rep.matrix), s)
        ok = ok and skew_exact and err <= 1e-8 * (1.0 + s.inf_norm())
    _report(6, ok, "25 purely-imaginary instances: exact off-diagonal antisymmetry")
    assert ok


def test_criterion_7_disc_occupancy_invariant():
    stats = _end_to_end_sweep()
    ok = stats["bad_occupancy_states"] == 0 and stats["accepted_states"] > 0
    _report(
        7,
        ok,
        f"{stats['accepted_states']} accepted states audited, "
        f"{stats['bad_occupancy_states']} with a disc holding != 1 eigenvalue",
    )
    assert ok


def test_criterion_8_matching_oracle():
    rng = np.random.default_rng(1008)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 11))
        g = random_undirected_graph(rng, n, float(rng.uniform(0.0, 1.0)))
        if max_matching(g).size != brute_force_matching_size(g):
            mismatches += 1
    ok = mismatches == 0
    _report(8, ok, f"500 graphs, blossom vs exhaustive matching: {mismatches} mismatches")
    assert ok


def test_criterion_9_eigensolver_sanity():
    rng = np.random.default_rng(1009)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n)) * float(np.exp(rng.uniform(-1.0, 1.0)))
        ev = eig_all(a)
        tr = float(np.trace(a))
        trace_ok = abs(complex(ev.sum()) - tr) <= 1e-9 * (1.0 + abs(tr))
        det = np.linalg.det(a)
        prod_ok = abs(complex(np.prod(ev)) - det) <= 1e-8 * (1.0 + abs(det))
        conj_ok = sorted(np.conj(ev), key=lambda z: (z.real, z.imag)) == sorted(
            ev, key=lambda z: (z.real, z.imag)
        )
        ok = ok and trace_ok and prod_ok and conj_ok
    _report(9, ok, "1000 matrices: trace, determinant, and conjugacy identities")
    assert ok

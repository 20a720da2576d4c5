"""Array kernels against the per-value loops they replaced.

Each oracle below is the loop implementation the library used before its
kernel worked on whole arrays.  Disc and spectrum decisions must agree
bitwise (same radius, same labels, same first failure and message, same
mismatch); eigen triples, whose sums now run in another order, must agree
to 1e-12.  The assembled matrix and the (x, y, z) Jacobian, which now read
the pattern's parameter-to-position table, must agree bitwise with the
loops and strided slices that wrote the positions out by hand, down to
the sign of every zero.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import giep.apps as apps
import giep.model as model
from giep import SolverConfig, Spectrum, make_graph, tridiagonalize, verify
from giep.cli import random_graph, random_spectrum
from giep.errors import DegenerateSpectrum, DiscViolation, IllConditioned, NoConvergence
from giep.graph import max_matching, plan_relabeling
from giep.linalg import RES_FACTOR, TOL_ORTHO, Eigenpairs, eig_all, eigen_triple, spectrum_order
from giep.model import Pattern, assemble, label_eigenvalues, spectrum_mismatch
from giep.solver import continuation_solve, default_targets, jacobian_xyz, nonzero_floor
from conftest import edge_positions, mask_pattern_failures, pattern_slots


# ---------------------------------------------------------------------------
# Oracles


def loop_radius(s: Spectrum) -> float:
    points = s.values()
    if s.n == 1:
        return (1.0 + abs(points[0])) / 3.0
    gap = min(
        abs(points[i] - points[j])
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )
    eps = gap / 3.0
    if s.k > 0:
        eps = min(eps, min(mu for _, mu in s.pairs) / 2.0)
    return eps


def loop_label(eigs, s: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    ev = np.atleast_1d(np.asarray(eigs, dtype=complex))
    centers = s.values()
    buckets = [[] for _ in centers]
    at = {}  # position in eigs of the eigenvalue each disc holds
    for i, e in enumerate(ev):
        dist = np.abs(centers - e)
        idx = int(np.argmin(dist))
        if dist[idx] >= s.radius:
            raise DiscViolation(
                f"eigenvalue {e} lies in no disc (nearest center {centers[idx]}, "
                f"distance {dist[idx]:.6g}, radius {s.radius:.6g})"
            )
        if idx >= 2 * s.k and e.imag != 0.0:
            raise DiscViolation(
                f"non-real eigenvalue {e} near real target {centers[idx].real}"
            )
        buckets[idx].append(complex(e))
        at[idx] = i
    for idx, bucket in enumerate(buckets):
        if len(bucket) != 1:
            raise DiscViolation(
                f"disc at {centers[idx]} holds {len(bucket)} eigenvalues, expected 1"
            )
    plus = [buckets[j][0] for j in range(s.k)]
    if any(e.imag <= 0.0 for e in plus):
        raise DiscViolation("plus-disc eigenvalue has nonpositive imaginary part")
    coords = np.array(
        [e.real for e in plus]
        + [e.imag for e in plus]
        + [buckets[2 * s.k + j][0].real for j in range(s.l)]
    )
    tracked = [at[j] for j in range(s.k)] + [at[2 * s.k + j] for j in range(s.l)]
    return coords, np.array(tracked, dtype=int)


def loop_mismatch(eigs, s: Spectrum) -> float:
    ev = list(np.atleast_1d(np.asarray(eigs, dtype=complex)))
    worst = 0.0
    for t in s.values():
        dist = [abs(e - t) for e in ev]
        idx = int(np.argmin(dist))
        worst = max(worst, dist[idx])
        ev.pop(idx)
    return worst


def loop_eigen_triple(m, values):
    a = np.asarray(m, dtype=float)
    ev, vecs = np.linalg.eig(a)
    lefts = np.linalg.inv(vecs)
    tol = RES_FACTOR * np.linalg.norm(a)
    triples = []
    for lam in (complex(v) for v in values):
        i = int(np.argmin(np.abs(ev - lam)))
        v, w = vecs[:, i], lefts[i]
        if lam.imag == 0.0:
            v, w = v.real, w.real
        v = v / np.linalg.norm(v)
        w = w / np.linalg.norm(w)
        pairing = complex(w @ v)
        if not abs(pairing) >= TOL_ORTHO:
            raise IllConditioned("nearly orthogonal")
        res_right = np.linalg.norm(a @ v - lam * v)
        res_left = np.linalg.norm(w @ a - lam * w)
        if not (res_right <= tol and res_left <= tol):
            raise NoConvergence("residual")
        triples.append((v, w, pairing))
    return triples


def loop_pattern_failures(a, g, floor):
    n = a.shape[0]
    failures = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            val = float(a[i - 1, j - 1])
            if g.has_edge(i, j):
                if abs(val) < floor:
                    failures.append((i, j, val, "nonzero"))
            elif val != 0.0:
                failures.append((i, j, val, "zero"))
    return failures


def loop_assemble(p: Pattern, x, y, z, u, omega) -> np.ndarray:
    mtx = np.zeros((p.n, p.n))
    for j in range(p.k):
        a = 2 * j
        mtx[a, a] = x[j]
        mtx[a + 1, a + 1] = x[j]
        mtx[a, a + 1] = y[j]
        mtx[a + 1, a] = -y[j]
    for j in range(p.l):
        d = 2 * p.k + j
        mtx[d, d] = z[j]
    for r, (i, j) in enumerate(pattern_slots(p)):
        mtx[i - 1, j - 1] = u[r]
        if p.bidirected[r]:
            mtx[j - 1, i - 1] = omega[r]
    return mtx


def sliced_jacobian(p: Pattern, eig: Eigenpairs) -> np.ndarray:
    v = np.array(eig.right.T, dtype=complex)
    w = np.array(eig.left, dtype=complex)
    pairing = np.array(eig.pairing, dtype=complex)
    k2 = 2 * p.k
    zeta = np.hstack(
        [
            w[:, 0:k2:2] * v[:, 0:k2:2] + w[:, 1:k2:2] * v[:, 1:k2:2],
            w[:, 0:k2:2] * v[:, 1:k2:2] - w[:, 1:k2:2] * v[:, 0:k2:2],
            w[:, k2:] * v[:, k2:],
        ]
    ) / pairing[:, None]
    return np.vstack([zeta[: p.k].real, zeta[: p.k].imag, zeta[p.k :].real])


def loop_duplicate(points) -> int | None:
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                return i
    return None


def loop_gap(ev) -> float:
    n = len(ev)
    return min(abs(ev[i] - ev[j]) for i in range(n) for j in range(i + 1, n))


def spectrum_points(pairs, reals) -> np.ndarray:
    """``Spectrum.values()`` without the validation that rejects duplicates."""
    plus = [complex(a, b) for a, b in pairs]
    minus = [complex(a, -b) for a, b in pairs]
    return np.array(plus + minus + [complex(g) for g in reals], dtype=complex)


def seeded_spectra(seed: int, count: int, n_max: int):
    """Spectra of size 1..n_max (one in ten above 40); about a third have
    one near-collision."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, (n_max if case % 10 == 0 else min(n_max, 40)) + 1))
        k = int(rng.integers(0, n // 2 + 1))
        box = max(5.0, n / 2.0)
        s = random_spectrum(rng, k, n - 2 * k, box=box, min_gap=1e-9)
        if case % 3 == 0 and s.n >= 2:
            # move one point to within ~1e-10 (relative) of another
            scale = float(rng.uniform(1e-11, 1e-9)) * box
            angle = float(rng.uniform(0, 2 * np.pi))
            if s.k >= 2:
                (a, b), rest = s.pairs[0], s.pairs[2:]
                moved = (a + scale * np.cos(angle), b + scale * abs(np.sin(angle)))
                s = Spectrum(pairs=((a, b), moved, *rest), reals=s.reals)
            elif s.l >= 2:
                s = Spectrum(pairs=s.pairs, reals=(s.reals[0], s.reals[0] + scale, *s.reals[2:]))
        yield rng, s


def perturbed_eigenvalues(rng, s: Spectrum) -> np.ndarray:
    """Conjugate-closed eigenvalues inside the discs, in shuffled order."""
    plus = np.array([complex(a, b) for a, b in s.pairs])
    if plus.size:
        plus = plus + 0.9 * s.radius * rng.uniform(0, 1, plus.size) * np.exp(
            2j * np.pi * rng.uniform(0, 1, plus.size)
        )
    reals = np.array(s.reals) + 0.9 * s.radius * rng.uniform(-1, 1, s.l)
    ev = np.concatenate([plus, plus.conj(), reals.astype(complex)])
    return ev[rng.permutation(ev.size)]


def seeded_patterns(seed: int):
    """Patterns for fixed corner sizes (n=1, k=0, l=0, m=0, n=160) and then
    random small ones.  Each pair of vertices outside the matched blocks
    becomes a slot with probability ``prob``: bidirected, or one-directional
    in either direction."""
    rng = np.random.default_rng(seed)
    corners = [(1, 0, 0.0), (2, 1, 0.0), (2, 0, 1.0), (4, 2, 1.0), (5, 0, 0.6),
               (6, 3, 0.0), (7, 2, 0.5), (160, 40, 4 / 160), (160, 0, 0.05), (160, 80, 0.03)]
    randoms = []
    for _ in range(60):
        n = int(rng.integers(1, 13))
        randoms.append((n, int(rng.integers(0, n // 2 + 1)), float(rng.uniform())))
    for n, k, prob in corners + randoms:
        slots, flags = [], []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i % 2 == 1 and j == i + 1 and j <= 2 * k) or rng.uniform() >= prob:
                    continue
                kind = int(rng.integers(0, 3))
                slots.append((i, j) if kind < 2 else (j, i))
                flags.append(kind == 0)
        order = rng.permutation(len(slots))
        yield rng, Pattern.from_slots(
            n=n, k=k, slots=tuple(slots[o] for o in order), bidirected=tuple(flags[o] for o in order)
        )


def signed_values(rng, size: int) -> np.ndarray:
    """Gaussian values with about a fifth exactly +0.0 and a tenth -0.0."""
    a = rng.standard_normal(size)
    pick = rng.uniform(size=size)
    a[pick < 0.2] = 0.0
    a[pick < 0.1] = -0.0
    return a


def random_triples(rng, p: Pattern) -> Eigenpairs:
    """k complex then l real eigenpairs whose vectors carry signed zeros; the
    arrays are real when k = 0, as eigen_triple returns them."""
    rights, lefts, pairings = [], [], []
    for row in range(p.k + p.l):
        if row < p.k:
            right = signed_values(rng, p.n) + 1j * signed_values(rng, p.n)
            left = signed_values(rng, p.n) + 1j * signed_values(rng, p.n)
            pairing = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        else:
            right, left = signed_values(rng, p.n), signed_values(rng, p.n)
            pairing = complex(rng.uniform(0.5, 1.5))
        rights.append(right)
        lefts.append(left)
        pairings.append(pairing if row < p.k else pairing.real)
    right = np.array(rights).reshape(-1, p.n).T
    left = np.array(lefts).reshape(-1, p.n)
    return Eigenpairs(right, left, np.array(pairings))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def raised(fn, *args) -> str:
    with pytest.raises(DiscViolation) as info:
        fn(*args)
    return str(info.value)


# ---------------------------------------------------------------------------
# Distinctness of a spectrum and the gap gate of tridiagonalize


def test_distinctness_check_matches_loop():
    """Up to three planted duplicates per spectrum, some differing only in
    the sign of a zero part: the same first duplicate in ``values()`` order,
    with the same message.  Pair imaginary parts are positive and reals get
    +0.0, so the signed zeros are planted in the real parts."""
    rng = np.random.default_rng(61)
    raised_count = signed = 0
    for _ in range(300):
        n = int(rng.integers(2, 61))
        k = int(rng.integers(0, n // 2 + 1))
        s = random_spectrum(rng, k, n - 2 * k, box=n / 2)
        pairs, reals = list(s.pairs), list(s.reals)
        for _ in range(int(rng.integers(0, 4))):
            zero = (0.0, -0.0)[:: int(rng.choice([1, -1]))]
            if len(pairs) >= 2 and rng.uniform() < 0.5:
                i, j = (int(x) for x in rng.choice(len(pairs), 2, replace=False))
                if rng.uniform() < 0.3:
                    pairs[i] = (zero[0], pairs[i][1])
                    pairs[j] = (zero[1], pairs[i][1])
                else:
                    pairs[j] = pairs[i]
            elif len(reals) >= 2:
                i, j = (int(x) for x in rng.choice(len(reals), 2, replace=False))
                if rng.uniform() < 0.3:
                    reals[i], reals[j] = zero
                else:
                    reals[j] = reals[i]
        points = spectrum_points(pairs, reals)
        first = loop_duplicate(points)
        if first is None:
            Spectrum(pairs=tuple(pairs), reals=tuple(reals))
            continue
        with pytest.raises(DegenerateSpectrum) as info:
            Spectrum(pairs=tuple(pairs), reals=tuple(reals))
        assert str(info.value) == f"duplicate spectrum value {points[first]}"
        raised_count += 1
        signed += points[first].real == 0.0
    assert raised_count >= 100 and signed >= 5


def test_gap_gate_matches_loop(monkeypatch):
    """The gate compares the scalar loop's gap bitwise: on seeded Gaussian
    matrices with the gate moved onto their gap, and on a near-repeated
    pair placed on either side of GAP_FACTOR."""
    monkeypatch.setattr(apps, "solve_instance", lambda *args: "solved")
    gate = apps.GAP_FACTOR

    def repeated(a) -> str | None:
        try:
            assert tridiagonalize(a) == "solved"
        except apps.RepeatedEigenvalues as exc:
            return str(exc)
        return None

    def oracle(a, factor) -> str | None:
        gap = loop_gap(eig_all(a))
        if gap <= factor * np.linalg.norm(a):
            return f"minimum eigenvalue gap {gap:.3e} is below the distinctness gate"
        return None

    def near_pair(kind, delta):
        """Eigenvalues 0 and delta (reals), or +-i and delta +- i (pairs)."""
        if kind == "real":
            return np.diag([0.0, delta, 3.0, -2.0])
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return np.block([[rotation, np.zeros((2, 2))], [np.zeros((2, 2)), rotation + delta * np.eye(2)]])

    outcomes = set()
    for kind in ("real", "complex"):
        threshold = gate * np.linalg.norm(near_pair(kind, 0.0))
        for step in range(-3, 4):
            b = near_pair(kind, threshold * (1.0 + step * 2.0**-50))
            got = repeated(b)
            assert got == oracle(b, gate)
            outcomes.add((kind, got is None))
    assert len(outcomes) == 4  # each pair lands on both sides of the gate

    rng = np.random.default_rng(67)
    for n in rng.integers(2, 41, 40):
        a = rng.standard_normal((n, n))
        gap, scale = loop_gap(eig_all(a)), np.linalg.norm(a)
        factor = gap / scale
        while factor * scale < gap:
            factor = np.nextafter(factor, np.inf)
        while factor * scale >= gap:
            factor = np.nextafter(factor, 0.0)
        for f in (factor, np.nextafter(factor, np.inf)):  # just below, then on or above the gap
            monkeypatch.setattr(apps, "GAP_FACTOR", f)
            assert repeated(a) == oracle(a, f)
        assert repeated(a) is not None


# ---------------------------------------------------------------------------
# Disc radius and disc system


def test_disc_radius_bitwise_equal_to_scalar_loop():
    cases = 0
    for _, s in seeded_spectra(41, 220, 200):
        assert s.radius == loop_radius(s)
        cases += 1
    assert cases >= 200


def test_disc_system_reports_first_overlapping_pair():
    # subnormal gaps: gap/3 rounds up to the gap's half, so 2 * radius reaches
    # the gap; 0 and 1e-323 are the first of the two closest pairs
    s = Spectrum(pairs=((0.0, 3.0),), reals=(0.0, 1e-323, 2e-323))
    with pytest.raises(ValueError, match=r"discs at 0j and \(1e-323\+0j\) are not disjoint"):
        s.radius
    with pytest.raises(ValueError, match=r"discs at \(2e-323\+0j\) and \(3e-323\+0j\)"):
        Spectrum(pairs=(), reals=(2e-323, 1.0, 3e-323, 1e-323)).radius


def test_written_fills_and_structural_zeros_are_exact():
    """Every written fill is fill_scale * radius bitwise, with the radius of
    the scalar-modulus loop, and every structural zero is 0.0.  For this
    seed the smallest gap lies between two complex points, where numpy's
    array ``np.abs`` and the scalar modulus can disagree in the last bit."""
    rng = np.random.default_rng(2007)
    s = random_spectrum(rng, 16, 8, box=20.0)
    g = random_graph(rng, 40, 16, 0.1)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    cfg = SolverConfig()
    m = continuation_solve(s, p, "generic", cfg).matrix
    fill = cfg.fill_scale * loop_radius(s)
    for (i, j), bidirected in zip(pattern_slots(p), p.bidirected):
        assert m[i - 1, j - 1] == fill
        if bidirected:
            assert m[j - 1, i - 1] == fill
    zero = ~np.eye(s.n, dtype=bool)
    for i, j in edge_positions(p):
        zero[i - 1, j - 1] = False
    assert np.all(m[zero] == 0.0)


# ---------------------------------------------------------------------------
# Labeling


def test_label_matches_loop_inside_discs():
    for rng, s in seeded_spectra(43, 60, 120):
        ev = perturbed_eigenvalues(rng, s)
        (coords, idx), (want_coords, want_idx) = label_eigenvalues(ev, s), loop_label(ev, s)
        assert np.array_equal(coords, want_coords)
        assert np.array_equal(idx, want_idx)


def label_outcome(label, ev, s):
    """``label(ev, s)``'s coordinates and positions as bytes, or its
    DiscViolation message."""
    try:
        coords, idx = label(ev, s)
    except DiscViolation as exc:
        return str(exc)
    return coords.dtype, coords.tobytes(), idx.dtype, idx.tobytes()


@pytest.fixture
def distance_matrices(monkeypatch):
    """Counts the eigenvalue-by-center distance matrices labeling and
    spectrum_mismatch build: 0 when the rank pairing holds, 1 when it
    falls back."""
    import giep.model as model

    calls = [0]
    real = model._distances

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(model, "_distances", counting)
    return calls


def test_label_matches_loop_in_eig_all_order(distance_matrices):
    paths = {0: 0, 1: 0}
    for rng, s in seeded_spectra(61, 300, 160):
        ev = perturbed_eigenvalues(rng, s)
        ev = ev[spectrum_order(ev)]  # as eig_all returns them
        distance_matrices[0] = 0
        assert label_outcome(label_eigenvalues, ev, s) == label_outcome(loop_label, ev, s)
        paths[distance_matrices[0]] += 1
    # both the rank pairing and the fallback were taken
    assert paths[0] > 0 and paths[1] > 0


def test_label_where_rank_order_breaks(distance_matrices):
    pair_real = Spectrum(pairs=((1.0, 2.0),), reals=(1.0, 4.0))
    equal_reals = Spectrum(pairs=((1.0, 2.0), (1.0, 5.0)), reals=())
    nudged = Spectrum(pairs=((0.5, 3.0),), reals=(0.0, 1.0))
    cases = [
        # (spectrum, eigenvalues, fallback taken, expected message or None)
        # a real center on a pair's real part: 0.9+2i sorts before 1.1
        (pair_real, [0.9 - 2j, 0.9 + 2j, 1.1, 4.0], True, None),
        # two pairs with equal real parts, moved apart sideways
        (equal_reals, [1.2 + 2j, 1.2 - 2j, 0.8 + 5j, 0.8 - 5j], True, None),
        # a pair nudged past the real part of its real neighbour's eigenvalue
        (nudged, [0.2 + 3j, 0.2 - 3j, 0.3, 1.0], True, None),
        # one eigenvalue outside every disc
        (pair_real, [1 + 2j, 1 - 2j, 1.0, 40.0], True, "lies in no disc"),
        # two eigenvalues in the disc of 4, none in the disc of 1
        (pair_real, [0.9 - 2j, 0.9 + 2j, 3.9, 4.1], True, "holds 0 eigenvalues"),
        # a conjugate pair inside a real disc
        (pair_real, [1 + 2j, 1 - 2j, 4 + 1e-3j, 4 - 1e-3j], True, "non-real eigenvalue"),
        # an off-axis value alone in a real disc keeps the rank pairing
        (pair_real, [1 + 2j, 1 - 2j, 1.0, 4 + 1e-3j], False, "non-real eigenvalue"),
        # every eigenvalue on its center
        (pair_real, [1 + 2j, 1 - 2j, 1.0, 4.0], False, None),
        (Spectrum(pairs=(), reals=(2.0,)), [2.5], False, None),
    ]
    for s, ev, fallback, message in cases:
        ev = np.array(ev, dtype=complex)
        ev = ev[spectrum_order(ev)]
        assert s.radius > 0.0  # its pairwise distances are taken before counting
        distance_matrices[0] = 0
        got = label_outcome(label_eigenvalues, ev, s)
        assert got == label_outcome(loop_label, ev, s)
        assert distance_matrices[0] == fallback
        if message is None:
            assert not isinstance(got, str)
        else:
            assert message in got


def test_label_failure_messages_match_loop():
    s = Spectrum(pairs=((1.0, 2.0), (-3.0, 1.0)), reals=(3.0, 5.0))
    base = [1 + 2j, 1 - 2j, -3 + 1j, -3 - 1j, 3 + 0j, 5 + 0j]
    cases = {
        "no disc": (base[:5] + [30 + 0j], s),
        "non-real": (base[:4] + [3 + 0.01j, 5 + 0j], s),
        "crowded": (base[:4] + [3 + 0j, 3.01 + 0j], s),
    }
    messages = {}
    for kind, (ev, spectrum) in cases.items():
        messages[kind] = raised(loop_label, ev, spectrum)
        assert raised(label_eigenvalues, ev, spectrum) == messages[kind]
    assert "lies in no disc" in messages["no disc"]
    assert "non-real eigenvalue" in messages["non-real"]
    assert "holds 2 eigenvalues" in messages["crowded"]


def test_label_reports_first_offending_eigenvalue():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0, 5.0))
    # the second entry is off-axis, the fourth lies in no disc
    ev = [1 + 2j, 3 + 0.01j, 1 - 2j, 40 + 0j]
    assert raised(label_eigenvalues, ev, s) == raised(loop_label, ev, s)
    assert "non-real" in raised(label_eigenvalues, ev, s)


NAN = float("nan")
NON_FINITE = [
    # (spectrum, eigenvalues, index of the first non-finite one)
    (Spectrum(pairs=(), reals=(1.0, 2.0, 3.0)), [NAN, 2, 3], 0),
    (Spectrum(pairs=(), reals=(1.0, 2.0, 3.0)), [NAN, NAN, NAN], 0),
    (Spectrum(pairs=(), reals=(1.0, 2.0, 3.0)), [1, 2, complex(3, NAN)], 2),
    (Spectrum(pairs=(), reals=(1.0, 2.0, 3.0)), [1, np.inf, NAN], 1),
    (Spectrum(pairs=((1.0, 2.0),), reals=(4.0,)), [1 - 2j, complex(NAN, 2), 4], 1),
    (Spectrum(pairs=(), reals=(1.0, 2.0, 3.0)), [1, 2, np.inf], 2),
]


@pytest.mark.parametrize("s, ev, first", NON_FINITE)
def test_label_puts_no_non_finite_eigenvalue_in_a_disc(s, ev, first):
    """A NaN distance is not below the radius: the first non-finite
    eigenvalue in input order lies in no disc, and the message says it is
    not finite rather than naming a nearest center.  The loop oracle lets
    NaN through, so the message is checked directly."""
    ev = np.array(ev, dtype=complex)
    message = raised(label_eigenvalues, ev, s)
    assert message.startswith(f"eigenvalue {ev[first]} lies in no disc")
    assert "not finite" in message and "nearest center" not in message


# ---------------------------------------------------------------------------
# Spectrum mismatch


def test_spectrum_mismatch_bitwise_equal_to_loop():
    for rng, s in seeded_spectra(47, 80, 80):
        ev = perturbed_eigenvalues(rng, s)
        # far-off values and duplicates exercise the greedy order
        if s.n >= 3:
            ev[rng.integers(s.n)] = ev[rng.integers(s.n)]
            ev[rng.integers(s.n)] += 3.0
        assert spectrum_mismatch(ev, s) == loop_mismatch(ev, s)


def test_spectrum_mismatch_exact_ties_take_first_eigenvalue():
    s = Spectrum(pairs=((0.0, 1.0),), reals=(0.0, 4.0))
    # 0.5 and -0.5 tie for target 0+1j ... and for the real target 0
    for ev in (
        [0.5 + 1j, -0.5 + 1j, 0.0 - 1j, 4.0 + 0j],
        [0.5 + 0j, -0.5 + 0j, 0.25 + 1j, -0.25 - 1j],
        [2.0 + 0j, 2.0 + 0j, 2.0 + 0j, 2.0 + 0j],
        [1j, 1j, -1j, -1j],
    ):
        assert spectrum_mismatch(ev, s) == loop_mismatch(ev, s)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 40),
    kind=st.sampled_from(["inside", "swap", "shift", "duplicate"]),
    data=st.data(),
)
def test_spectrum_mismatch_property_bitwise_equal_to_loop(n, kind, data):
    """Eigenvalues in (real, imag) order within 0.9 radii of their targets
    take the one-distance-per-eigenvalue path; a swap of two of them, a
    shift past the radius and a duplicate take the greedy pass.  Both give
    the loop's value, bit for bit."""
    k = data.draw(st.integers(0, n // 2), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    s = random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2.0))
    unit = st.floats(0.0, 1.0)
    frac = np.array(data.draw(st.lists(unit, min_size=n, max_size=n), label="frac"))
    angle = np.array(data.draw(st.lists(unit, min_size=n, max_size=n), label="angle"))
    ev = s.values()[s._rank] + 0.9 * s.radius * frac * np.exp(2j * np.pi * angle)
    if kind != "inside":
        if n == 1 and kind != "shift":
            kind = "shift"
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=n > 1))
        if kind == "swap":
            ev[[i, j]] = ev[[j, i]]
        elif kind == "duplicate":
            ev[j] = ev[i]
        else:
            ev[i] += s.radius * data.draw(st.floats(2.0, 1e3)) * np.exp(2j * np.pi * angle[j])
    with mock.patch.object(model, "_distances", wraps=model._distances) as matrices:
        got = spectrum_mismatch(ev, s)
    assert got == loop_mismatch(ev, s)
    assert matrices.call_count == (kind != "inside")


@pytest.mark.parametrize("s, ev, first", NON_FINITE)
def test_spectrum_mismatch_of_non_finite_eigenvalues_is_infinite(s, ev, first):
    assert spectrum_mismatch(np.array(ev, dtype=complex), s) == np.inf


def test_spectrum_mismatch_builds_a_distance_matrix_only_when_the_pairing_breaks(
    distance_matrices,
):
    """Eigenvalues within 0.9 radii of their paired points, in the points'
    (real, imag) order, take the pairing that labeling takes, with no
    distance matrix; swapping the first and the last breaks it and takes
    one."""
    for rng, s in seeded_spectra(67, 120, 160):
        frac, angle = rng.uniform(0, 1, (2, s.n))
        ev = s.values()[s._rank] + 0.9 * s.radius * frac * np.exp(2j * np.pi * angle)
        distance_matrices[0] = 0
        assert spectrum_mismatch(ev, s) == loop_mismatch(ev, s)
        assert distance_matrices[0] == 0
        if s.n >= 2:
            ev[[0, -1]] = ev[[-1, 0]]
            distance_matrices[0] = 0
            assert spectrum_mismatch(ev, s) == loop_mismatch(ev, s)
            assert distance_matrices[0] == 1


# ---------------------------------------------------------------------------
# Eigen triples


def test_eigen_triple_matches_loop():
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(2, 31))
        a = rng.standard_normal((n, n))
        ev, vecs = eig_all(a, vectors=True)
        idx = np.flatnonzero(ev.imag >= 0.0)  # plus values and reals, as the solver asks
        want = loop_eigen_triple(a, ev[idx])
        got = eigen_triple(a, ev, vecs, idx)
        assert got.right.shape == (n, len(want)) and got.left.shape == (len(want), n)
        for i, (v, w, pairing) in enumerate(want):
            assert np.abs(got.right[:, i] - v).max() <= 1e-12
            assert np.abs(got.left[i] - w).max() <= 1e-12
            assert abs(got.pairing[i] - pairing) <= 1e-12
            # a real eigenvalue's vectors are exactly real
            assert np.all(np.imag(got.right[:, i]) == 0.0) == (not np.iscomplexobj(v))
            assert np.all(np.imag(got.left[i]) == 0.0) == (not np.iscomplexobj(w))


def test_eigen_triple_checks_every_value():
    # the second requested value fails its residual check, the first passes:
    # the column of 1+2i gets a share of its conjugate's eigenvector, which
    # leaves the other columns' rows of the inverse as they were
    a = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 7.0]])
    ev, vecs = eig_all(a, vectors=True)  # 1-2i, 1+2i, 7
    mixed = vecs.copy()
    mixed[:, 1] += 0.5 * vecs[:, 0]
    assert eigen_triple(a, ev, vecs, [2, 1]).pairing.size == 2
    assert eigen_triple(a, ev, mixed, [2]).pairing.size == 1
    with pytest.raises(NoConvergence):
        eigen_triple(a, ev, mixed, [2, 1])
    # near-defective pair requested after a healthy value
    b = np.array([[5.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0 + 1e-12]])
    ev, vecs = eig_all(b, vectors=True)  # 1, 1 + 1e-12, 5
    with pytest.raises(IllConditioned):
        eigen_triple(b, ev, vecs, [2, 0])


# ---------------------------------------------------------------------------
# Pattern check of verify


def test_verify_pattern_failures_match_loop():
    rng = np.random.default_rng(59)
    for _ in range(30):
        n = int(rng.integers(1, 25))
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                 if a != b and rng.uniform() < 0.3]
        g = make_graph(n, pairs, directed=True)
        a = np.where(rng.uniform(size=(n, n)) < 0.5, rng.standard_normal((n, n)), 0.0)
        a[rng.uniform(size=(n, n)) < 0.1] = 1e-13  # below the nonzero floor
        s = Spectrum(pairs=(), reals=tuple(float(x) for x in range(n)))
        report = verify(a, s, g)
        got = [(f.i, f.j, f.value, f.expected) for f in report.pattern_failures]
        assert got == loop_pattern_failures(a, g, report.nonzero_floor)
        assert all(type(f.i) is int and type(f.value) is float for f in report.pattern_failures)


def test_pattern_failures_equal_the_mask_oracle():
    """verify's one-mask pattern check reports what separate edge, stray
    and below-floor masks did, and what the per-position loop does: the
    same positions in row-major order, with the same values, on directed
    and undirected graphs with stray entries, edge entries on either side
    of the floor, and exact zeros on edges."""
    rng = np.random.default_rng(71)
    flagged = 0
    for case in range(120):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(0, n // 2 + 1))
        s = random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2.0))
        floor = nonzero_floor(s)
        directed = case % 2 == 1
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.uniform() < 0.3]
        if directed:
            pairs += [(b, a) for a, b in pairs if rng.uniform() < 0.5]
        g = make_graph(n, pairs, directed=directed)
        a = rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.1)
        np.fill_diagonal(a, rng.standard_normal(n))
        levels = np.array([0.0, floor, -floor, np.nextafter(floor, 0.0), 0.5 * floor, 2.0 * floor, 1.0])
        for u, v in g.edges:
            a[u - 1, v - 1] = rng.choice(levels)
        got = [(f.i, f.j, f.value, f.expected) for f in verify(a, s, g).pattern_failures]
        assert got == mask_pattern_failures(a, g, floor) == loop_pattern_failures(a, g, floor)
        flagged += bool(got)
    assert flagged >= 100


# ---------------------------------------------------------------------------
# The parameter-to-position table


def test_pattern_entries_hand_written_3x3():
    # x_1, y_1, z_1, u_1 at (2,3), u_2 at (3,1), omega_1 at (3,2); the
    # one-directional slot's omega_2 has no entry
    p = Pattern.from_slots(n=3, k=1, slots=((2, 3), (3, 1)), bidirected=(True, False))
    e = p.entries
    assert e.rows.tolist() == [0, 1, 0, 1, 2, 1, 2, 2]
    assert e.cols.tolist() == [0, 1, 1, 0, 2, 2, 0, 1]
    assert e.coef.tolist() == [1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0]
    assert e.param.tolist() == [0, 0, 1, 1, 2, 3, 4, 5]
    assert not any(a.flags.writeable for a in e)
    assert p.entries is e  # built once per pattern


def test_assemble_from_table_bitwise_equal_to_loops():
    for rng, p in seeded_patterns(97):
        parts = [signed_values(rng, size) for size in (p.k, p.k, p.l, p.m, p.m)]
        assert same_bits(assemble(p, np.concatenate(parts)), loop_assemble(p, *parts)), p


def test_jacobian_from_table_bitwise_equal_to_slices():
    for rng, p in seeded_patterns(98):
        triples = random_triples(rng, p)
        assert same_bits(jacobian_xyz(p, triples), sliced_jacobian(p, triples)), p


def test_jacobian_from_table_bitwise_equal_on_solver_iterates():
    # eigen triples of a filled large_sparse-sized matrix off the seed
    rng = np.random.default_rng(160)
    s = random_spectrum(rng, 40, 80, box=80.0)
    g = random_graph(rng, 160, 40, 4 / 160)
    _, p = plan_relabeling(g, max_matching(g), s.k)
    mtx = assemble(p, np.concatenate([s.target_coordinates(), *default_targets(p, s)]))
    ev, vecs = eig_all(mtx, vectors=True)
    triples = eigen_triple(mtx, ev, vecs, label_eigenvalues(ev, s)[1])
    assert same_bits(jacobian_xyz(p, triples), sliced_jacobian(p, triples))

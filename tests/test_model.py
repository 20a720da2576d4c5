"""Tests for the spectrum/pattern data model, discs, and file formats."""

import math

import numpy as np
import pytest

from giep import Spectrum, parse_spectrum
from giep.cli import random_spectrum
from giep.errors import BadFormat, DegenerateSpectrum, DimensionMismatch, DiscViolation
from giep.linalg import eig_all
from giep.model import (
    Pattern,
    assemble,
    format_matrix_csv,
    format_matrix_market,
    format_spectrum,
    label_eigenvalues,
    parse_matrix_csv,
    spectrum_mismatch,
)
from conftest import build_seed, edge_positions


def test_spectrum_sizes_and_values():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
    assert (s.k, s.l, s.n) == (1, 1, 3)
    assert set(s.values()) == {1 + 2j, 1 - 2j, 3 + 0j}
    assert s.inf_norm() == pytest.approx(3.0)


def test_spectrum_rejects_bad_values():
    with pytest.raises(ValueError):
        Spectrum(pairs=((1.0, 0.0),), reals=())  # mu must be positive
    with pytest.raises(ValueError):
        Spectrum(pairs=(), reals=())  # empty
    with pytest.raises(DegenerateSpectrum):
        Spectrum(pairs=((1.0, 2.0), (1.0, 2.0)), reals=())
    with pytest.raises(DegenerateSpectrum):
        Spectrum(pairs=(), reals=(4.0, 4.0))


def test_spectrum_from_eigenvalues_round_trip():
    s = Spectrum(pairs=((0.0, 1.0), (0.0, 2.0)), reals=(4.0,))
    again = Spectrum.from_eigenvalues(eig_all(build_seed(s)))
    assert (again.k, again.l) == (s.k, s.l)
    assert np.allclose(again.pairs, s.pairs, atol=1e-13)
    assert np.allclose(again.reals, s.reals, atol=1e-13)
    with pytest.raises(ValueError):
        Spectrum.from_eigenvalues([1j, 2j])  # not conjugate-closed


def test_build_seed_example():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
    expected = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    assert np.array_equal(build_seed(s), expected)


def test_build_seed_single_real():
    assert np.array_equal(build_seed(Spectrum(pairs=(), reals=(5.0,))), [[5.0]])


def test_build_seed_two_pairs_spectrum():
    s = Spectrum(pairs=((0.0, 1.0), (0.0, 2.0)), reals=())
    ev = eig_all(build_seed(s))
    assert np.allclose(sorted(ev, key=lambda z: z.imag), [-2j, -1j, 1j, 2j], atol=1e-14)


def test_build_seed_round_trip_random():
    rng = np.random.default_rng(61)
    for _ in range(30):
        k = int(rng.integers(0, 5))
        l = int(rng.integers(0, 5))
        if 2 * k + l == 0 or 2 * k + l > 12:
            continue
        s = random_spectrum(rng, k, l)
        assert spectrum_mismatch(eig_all(build_seed(s)), s) <= 1e-10 * (1 + s.inf_norm())


def test_disc_radius_pair_and_real():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
    # pairwise distances are {4, sqrt(8), sqrt(8)}; mu_min/2 = 1 does not bind
    assert s.radius == pytest.approx(math.sqrt(8) / 3, abs=1e-15)


def test_disc_radius_reals_only():
    assert Spectrum(pairs=(), reals=(0.0, 1.0)).radius == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_disc_radius_mu_bound_binds():
    # gap/3 = 0.2/3; mu_min/2 = 0.05 is smaller
    assert Spectrum(pairs=((0.0, 0.1),), reals=()).radius == pytest.approx(0.05, abs=1e-15)


def test_disc_system_disjointness_property():
    rng = np.random.default_rng(71)
    for _ in range(40):
        k = int(rng.integers(0, 4))
        l = int(rng.integers(0, 4))
        if 2 * k + l < 1:
            continue
        s = random_spectrum(rng, k, l)
        centers = s.values()
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                assert abs(centers[i] - centers[j]) > 2 * s.radius


def test_assemble_example():
    p = Pattern(n=3, k=1, slots=((2, 3),), bidirected=(True,))
    theta = [1.0, 2.0, 3.0, 0.1, 0.2]  # x, y, z, u, omega
    expected = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.1], [0.0, 0.2, 3.0]])
    assert np.array_equal(assemble(p, theta), expected)


def test_assemble_zero_fill_equals_seed():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
    p = Pattern(n=3, k=1, slots=((2, 3),), bidirected=(True,))
    theta = [1.0, 2.0, 3.0, 0.0, 0.0]
    assert np.array_equal(assemble(p, theta), build_seed(s))


def test_assemble_one_directional_slot():
    p = Pattern(n=3, k=1, slots=((1, 3),), bidirected=(False,))
    theta = [1.0, 2.0, 3.0, 0.5, 9.9]
    m = assemble(p, theta)
    assert m[0, 2] == 0.5
    assert m[2, 0] == 0.0  # omega is never written for one-directional slots


def test_assemble_dimension_mismatch():
    p = Pattern(n=3, k=1, slots=((2, 3),), bidirected=(True,))
    with pytest.raises(DimensionMismatch):
        assemble(p, [1.0, 2.0, 2.0, 3.0, 0.1, 0.2])  # two x for one block
    with pytest.raises(DimensionMismatch):
        assemble(p, [1.0, 2.0, 3.0, 0.1])  # omega missing


def test_assemble_writes_only_pattern_positions():
    rng = np.random.default_rng(83)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n // 2 + 1))
        l = n - 2 * k
        block = {
            (2 * j - 1, 2 * j) for j in range(1, k + 1)
        } | {(2 * j, 2 * j - 1) for j in range(1, k + 1)}
        candidates = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if (i, j) not in block
        ]
        rng.shuffle(candidates)
        m_slots = candidates[: rng.integers(0, len(candidates) + 1)] if candidates else []
        m_slots = sorted(m_slots)
        flags = tuple(bool(rng.integers(0, 2)) for _ in m_slots)
        p = Pattern(n=n, k=k, slots=tuple(m_slots), bidirected=flags)
        theta = np.concatenate(
            [
                rng.uniform(1, 2, k),
                rng.uniform(1, 2, k),
                rng.uniform(1, 2, l),
                rng.uniform(1, 2, p.m),
                rng.uniform(1, 2, p.m),
            ]
        )
        mtx = assemble(p, theta)
        nonzero = {
            (i + 1, j + 1)
            for i in range(n)
            for j in range(n)
            if i != j and mtx[i, j] != 0.0
        }
        assert nonzero == edge_positions(p)


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(n=3, k=1, slots=((1, 2),), bidirected=(True,))  # inside block
    with pytest.raises(ValueError):
        Pattern(n=3, k=1, slots=((3, 3),), bidirected=(False,))  # diagonal
    with pytest.raises(ValueError):
        Pattern(n=3, k=1, slots=((3, 2),), bidirected=(True,))  # bidirected needs i<j
    with pytest.raises(ValueError):
        Pattern(n=3, k=1, slots=((2, 3), (3, 2)), bidirected=(False, False))  # dup pair
    with pytest.raises(ValueError):
        Pattern(n=3, k=2)  # 2k > n


def test_label_exact_and_perturbed():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
    coords, idx = label_eigenvalues([1.1 + 1.9j, 1.1 - 1.9j, 2.9 + 0j], s)
    assert np.allclose(coords, [1.1, 1.9, 2.9])  # lam, mu, gamma
    assert idx.tolist() == [0, 2]  # the plus-disc and real eigenvalues
    exact, idx = label_eigenvalues(s.values(), s)
    assert np.array_equal(exact, s.target_coordinates())
    assert idx.tolist() == [0, 2]


def test_label_disc_violations():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
    # a real target drifted into the complex plane: not in the real interval
    with pytest.raises(DiscViolation):
        label_eigenvalues([1 + 2j, 1 - 2j, 3 + 0.95j], s)
    # eigenvalue far from every disc
    with pytest.raises(DiscViolation):
        label_eigenvalues([1 + 2j, 1 - 2j, 30.0 + 0j], s)
    # two eigenvalues in one disc
    with pytest.raises(DiscViolation):
        label_eigenvalues([1 + 2j, 1 - 2j, 1.01 + 2.01j], s)


def test_label_round_trip_through_seed():
    rng = np.random.default_rng(97)
    for _ in range(20):
        k = int(rng.integers(0, 4))
        l = int(rng.integers(0, 4))
        if 2 * k + l < 1:
            continue
        s = random_spectrum(rng, k, l)
        coords, _ = label_eigenvalues(eig_all(build_seed(s)), s)
        assert np.allclose(coords, s.target_coordinates(), atol=1e-12 * (1 + s.inf_norm()))


def test_spectrum_mismatch_counts_multiset():
    s = Spectrum(pairs=(), reals=(1.0, 2.0))
    assert spectrum_mismatch([1.0 + 0j, 2.0 + 0j], s) == 0.0
    # both computed values near the same target: the second pays the distance
    assert spectrum_mismatch([1.0 + 0j, 1.0 + 0j], s) == pytest.approx(1.0)


def test_spectrum_file_round_trip():
    s = Spectrum(pairs=((1.25, 2.5), (-0.75, 0.001220703125)), reals=(3.0, -7.125))
    assert parse_spectrum(format_spectrum(s)) == s


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"pairs": [[1.0]], "reals": []}',
        '{"pairs": [[1.0, "x"]], "reals": []}',
        '{"pairs": [], "reals": ["y"]}',
        '{"pairs": [], "reals": [1.0], "extra": 3}',
        '{"pairs": [[1.0, -2.0]], "reals": []}',
        '{"pairs": [], "reals": []}',
    ],
)
def test_parse_spectrum_rejects(text):
    with pytest.raises(BadFormat):
        parse_spectrum(text)


def test_parse_spectrum_duplicates_raise_degenerate():
    with pytest.raises(DegenerateSpectrum):
        parse_spectrum('{"pairs": [], "reals": [1.0, 1.0]}')


def test_matrix_csv_round_trip_bit_exact():
    rng = np.random.default_rng(101)
    m = rng.standard_normal((5, 5)) * np.exp(rng.uniform(-8, 8, (5, 5)))
    again = parse_matrix_csv(format_matrix_csv(m))
    assert np.array_equal(again, m)


def test_matrix_csv_rejects():
    with pytest.raises(BadFormat):
        parse_matrix_csv("1.0,2.0\n3.0")
    with pytest.raises(BadFormat):
        parse_matrix_csv("a,b\n")
    with pytest.raises(BadFormat):
        parse_matrix_csv("")


def test_matrix_market_lists_nonzeros():
    m = np.array([[1.0, 0.0], [0.5, 0.0]])
    text = format_matrix_market(m)
    lines = text.strip().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "2 2 2"
    assert lines[2:] == ["1 1 1", "2 1 0.5"]

"""Tests for the spectrum/pattern data model, discs, and file formats."""

import json
import math

import numpy as np
import pytest

import giep.model
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
from conftest import (
    build_seed,
    edge_positions,
    loop_format_matrix_market,
    loop_parse_matrix_csv,
    outer_duplicate,
)


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


@pytest.mark.parametrize(
    "pairs, reals",
    [
        ((), (0.0, -0.0)),  # equal, though their bits differ
        ((), (-0.0, 1.0, 0.0)),
        (((1.0, 2.0), (3.0, 1.0), (1.0, 2.0)), ()),  # a repeated pair
        (((-0.0, 1.0), (0.0, 1.0)), (5.0,)),
        (((1.0, 1.0),), (2.0, 3.0, 3.0, 2.0)),  # the earlier of two duplicates is named
        (((1.0, 1.0), (2.0, 1.0), (2.0, 1.0), (1.0, 1.0)), (0.0, -0.0)),
        ((), (7.0, 4.0, 4.0, 7.0, 4.0)),
        (((0.0, 2.0),), (0.0, 2.0)),  # a real equal to a pair's real part is distinct
    ],
)
def test_duplicate_check_names_the_value_the_outer_comparison_names(pairs, reals):
    want = outer_duplicate(pairs, reals)
    try:
        Spectrum(pairs=pairs, reals=reals)
    except DegenerateSpectrum as exc:
        assert str(exc) == want
    else:
        assert want is None


def test_spectrum_from_eigenvalues_round_trip():
    s = Spectrum(pairs=((0.0, 1.0), (0.0, 2.0)), reals=(4.0,))
    again = Spectrum.from_eigenvalues(eig_all(build_seed(s)))
    assert (again.k, again.l) == (s.k, s.l)
    assert np.allclose(again.pairs, s.pairs, atol=1e-13)
    assert np.allclose(again.reals, s.reals, atol=1e-13)
    with pytest.raises(ValueError):
        Spectrum.from_eigenvalues([1j, 2j])  # not conjugate-closed


def test_spectrum_from_eigenvalues_refuses_non_finite_values():
    """A NaN imaginary part matches none of the pair, conjugate and real
    filters; it raises as an infinite value does, rather than vanish."""
    for values in ([1, complex(np.nan, np.nan)], [1, complex(2, np.nan)], [1, np.inf]):
        with pytest.raises(ValueError) as info:
            Spectrum.from_eigenvalues(values)
        assert str(info.value) == "spectrum values must be finite"


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
    p = Pattern.from_slots(n=3, k=1, slots=((2, 3),), bidirected=(True,))
    theta = [1.0, 2.0, 3.0, 0.1, 0.2]  # x, y, z, u, omega
    expected = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.1], [0.0, 0.2, 3.0]])
    assert np.array_equal(assemble(p, theta), expected)


def test_assemble_zero_fill_equals_seed():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
    p = Pattern.from_slots(n=3, k=1, slots=((2, 3),), bidirected=(True,))
    theta = [1.0, 2.0, 3.0, 0.0, 0.0]
    assert np.array_equal(assemble(p, theta), build_seed(s))


def test_assemble_one_directional_slot():
    p = Pattern.from_slots(n=3, k=1, slots=((1, 3),), bidirected=(False,))
    theta = [1.0, 2.0, 3.0, 0.5, 9.9]
    m = assemble(p, theta)
    assert m[0, 2] == 0.5
    assert m[2, 0] == 0.0  # omega is never written for one-directional slots


def test_assemble_dimension_mismatch():
    p = Pattern.from_slots(n=3, k=1, slots=((2, 3),), bidirected=(True,))
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
        p = Pattern.from_slots(n=n, k=k, slots=tuple(m_slots), bidirected=flags)
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
        Pattern.from_slots(n=3, k=1, slots=((1, 2),), bidirected=(True,))  # inside block
    with pytest.raises(ValueError):
        Pattern.from_slots(n=3, k=1, slots=((3, 3),), bidirected=(False,))  # diagonal
    with pytest.raises(ValueError):
        Pattern.from_slots(n=3, k=1, slots=((3, 2),), bidirected=(True,))  # bidirected needs i<j
    with pytest.raises(ValueError):
        Pattern.from_slots(n=3, k=1, slots=((2, 3), (3, 2)), bidirected=(False, False))  # dup pair
    with pytest.raises(ValueError):
        Pattern.from_slots(n=3, k=2)  # 2k > n


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


def test_label_and_mismatch_need_one_eigenvalue_per_target():
    s = Spectrum(pairs=((1.0, 2.0),), reals=(3.0,))
    for call in (label_eigenvalues, spectrum_mismatch):
        with pytest.raises(ValueError, match="^expected 3 eigenvalues, got 2$"):
            call([1 + 2j, 1 - 2j], s)


def test_spectrum_mismatch_without_a_usable_radius_is_the_greedy_distance():
    s = Spectrum(pairs=(), reals=(0.0, 1e-323, 2e-323))
    with pytest.raises(ValueError, match="are not disjoint"):
        s.radius
    assert spectrum_mismatch(s.values(), s) == 0.0
    # the target 1e-323 takes the earlier of its two nearest eigenvalues, 0.0
    assert spectrum_mismatch([0.0, 0.0, 2e-323], s) == 1e-323


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
        '{"pairs": {"1": 2}, "reals": []}',
        '{"pairs": [], "reals": 3.0}',
        # Python's json accepts NaN and Infinity
        '{"pairs": [[1.0, NaN]], "reals": []}',
        '{"pairs": [], "reals": [-Infinity]}',
        # integers too large for a float raised OverflowError
        pytest.param('{"pairs": [[1, %s]], "reals": []}' % ("9" * 400), id="400-digit-mu"),
        pytest.param('{"pairs": [], "reals": [-%s]}' % ("9" * 400), id="400-digit-real"),
    ],
)
def test_parse_spectrum_rejects(text):
    with pytest.raises(BadFormat):
        parse_spectrum(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"pairs": [["1", 2]], "reals": []}',
        '{"pairs": [[true, 2]], "reals": []}',
        '{"pairs": [[1, 2, 3]], "reals": []}',
        '{"pairs": [[1.0]], "reals": []}',
        '{"pairs": ["ab"], "reals": []}',
        '{"pairs": [{"lam": 1, "mu": 2}], "reals": []}',
        '{"pairs": [], "reals": [null]}',
        '{"pairs": [], "reals": [false]}',
        '{"pairs": [], "reals": [[3.0]]}',
        # every pair, then every real, is checked before any value
        '{"pairs": [[1, NaN], [1, "x"]], "reals": [null]}',
        '{"pairs": [[1, -2]], "reals": ["y"]}',
    ],
)
def test_spectrum_refuses_what_parse_spectrum_refuses_with_its_text(text):
    doc = json.loads(text)
    with pytest.raises(BadFormat) as parsed:
        parse_spectrum(text)
    with pytest.raises(ValueError) as built:
        Spectrum(pairs=doc["pairs"], reals=doc["reals"])
    assert str(built.value) == str(parsed.value)
    # tuples, as library callers write them, give the same text with their own repr
    pairs = tuple(tuple(p) if isinstance(p, list) else p for p in doc["pairs"])
    with pytest.raises(ValueError) as built:
        Spectrum(pairs=pairs, reals=tuple(doc["reals"]))
    assert str(built.value).split(", got ")[0] == str(parsed.value).split(", got ")[0]


@pytest.mark.parametrize(
    "pairs, reals",
    [
        (((np.bool_(True), 2.0),), ()),
        ((b"ab",), ()),
        ((), (1 + 2j,)),
        ((), (np.complex128(3),)),
    ],
)
def test_spectrum_refuses_values_no_json_document_holds(pairs, reals):
    if pairs:
        want = f"each pair must be [lam, mu], got {pairs[0]!r}"
    else:
        want = f"each real must be a number, got {reals[0]!r}"
    with pytest.raises(ValueError) as built:
        Spectrum(pairs=pairs, reals=reals)
    assert str(built.value) == want


@pytest.mark.parametrize(
    "pairs, reals",
    [
        pytest.param((p for p in [(1.0, 2.0)]), (3.0,), id="generator"),
        pytest.param(None, (), id="none"),
        pytest.param((), 3.0, id="number"),
        pytest.param("", (1.0,), id="empty-string"),
        pytest.param("ab", (), id="string"),
        pytest.param((), b"\x01", id="bytes"),
        pytest.param((), {1.0}, id="set"),
        pytest.param({1.0: 2.0}, (), id="dict"),
        pytest.param((), np.array(1.0), id="0-d-array"),
    ],
)
def test_spectrum_refuses_pairs_or_reals_that_are_no_array(pairs, reals):
    # parse_spectrum's text, checked before any pair or real
    with pytest.raises(ValueError, match=r"^'pairs' and 'reals' must be arrays$"):
        Spectrum(pairs=pairs, reals=reals)


def test_spectrum_takes_numpy_numbers_and_array_rows():
    s = Spectrum(pairs=np.array([[1.0, 2.0]]), reals=(np.float32(3.0), np.int64(-1)))
    assert s == Spectrum(pairs=((1.0, 2.0),), reals=(3.0, -1.0))


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
    for entry in ("nan", "inf", "-1e999", "1e400"):
        with pytest.raises(BadFormat, match="matrix entries must be finite"):
            parse_matrix_csv(f"1,{entry}\n0,1\n")
    for text, message in (
        ("1,2\n3,0x1\n", "line 2: not a numeric row"),
        ("\u22121,2\n3,4\n", "line 1: not a numeric row"),     # U+2212 is no minus sign to float()
        ("1,2,\n3,4,\n", "line 1: not a numeric row"),          # a trailing comma is an empty entry
        ("1,2\n3\n4,x\n", "line 3: not a numeric row"),        # a bad line before ragged rows
        ("1,2\r\r3\r", "rows have inconsistent lengths"),      # CR ends a line
        ("1,nan\n3\n", "rows have inconsistent lengths"),      # ragged rows before a NaN
    ):
        with pytest.raises(BadFormat) as info:
            parse_matrix_csv(text)
        assert str(info.value) == message
        with pytest.raises(BadFormat) as info:
            loop_parse_matrix_csv(text)
        assert str(info.value) == message


def test_matrix_csv_reads_entries_as_float_does(monkeypatch):
    """Underscores, surrounding whitespace and Unicode digits read as
    ``float`` reads them, bit for bit as the line-by-line parse, without
    the loop that names a bad line."""
    text = "1_0, 1\n\u0661,\t-0\r\n\n2.5e-324 ,+3\r"
    monkeypatch.setattr(giep.model, "_bad_rows", None)
    a = parse_matrix_csv(text)
    assert a.tobytes() == loop_parse_matrix_csv(text).tobytes()
    assert a.tobytes() == np.array([[10.0, 1.0], [1.0, -0.0], [5e-324, 3.0]]).tobytes()


def test_matrix_csv_skips_blank_lines():
    assert np.array_equal(parse_matrix_csv("\n1,2\n  \n3,4\n\n"), [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_market_lists_nonzeros():
    m = np.array([[1.0, 0.0], [0.5, 0.0]])
    text = format_matrix_market(m)
    lines = text.strip().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "2 2 2"
    assert lines[2:] == ["1 1 1", "2 1 0.5"]


def test_matrix_market_equals_the_entry_loop():
    """The same bytes as the loop over every entry, on sparse matrices of
    every shape up to 9x9 that mix nonzeros with -0.0, +0.0, subnormals and
    the extreme binades, in C and Fortran order."""
    rng = np.random.default_rng(57)
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                         1.7976931348623157e308, -1e-300, 1.0, -2.5])
    for case in range(400):
        shape = tuple(rng.integers(1, 10, size=2))
        a = rng.standard_normal(shape) * 2.0 ** rng.integers(-1074, 1000, size=shape)
        a[rng.uniform(size=shape) < 0.6] = 0.0
        picked = rng.uniform(size=shape) < 0.2
        a[picked] = rng.choice(specials, size=int(picked.sum()))
        a = np.asfortranarray(a) if case % 2 else a
        assert format_matrix_market(a) == loop_format_matrix_market(a)
    tiny = [[-0.0, 5e-324]]
    want = "%%MatrixMarket matrix coordinate real general\n1 2 1\n1 2 4.9406564584124654e-324\n"
    assert format_matrix_market(tiny) == loop_format_matrix_market(tiny) == want

"""The bytes the CLI writes, and the matrix CSV format against its oracles.

``giep solve`` and ``giep tridiagonalize`` must write the same CSV text,
byte for byte, across rewrites of the parsing, validation and formatting
around the solver.  The pinned digests were taken with numpy 2.4 and its
bundled OpenBLAS; another LAPACK build may round differently and move them.
The CLI byte pin also depends on the CPU kernel OpenBLAS picks at run time,
so it holds one digest per kernel, selected as test_output_pin.py selects
its own.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from giep.cli import main, random_graph, random_spectrum
from giep.errors import BadFormat
from giep.graph import format_graph
from giep.model import format_matrix_csv, format_spectrum, parse_matrix_csv
from conftest import kernel_pin, loop_format_matrix_csv, loop_parse_matrix_csv, openblas_corename

# the digest for each OpenBLAS kernel, recorded as test_output_pin.PINS is
CLI_PINS = {
    "SkylakeX": "ec84c3b7d765453e27820086658089de628f32ece857ba8efee85f427f63e5b1",
    "Haswell": "68ffac9f4dafd2bd4a779640bf151f41e62eb3f51ea8217744dc16619f6e0c1f",
    "Sandybridge": "166557f2d0d16d5b5565015a7bb2c728acd050f46f6dc5dffa16e5818c2bae32",
    "Katmai": "166557f2d0d16d5b5565015a7bb2c728acd050f46f6dc5dffa16e5818c2bae32",
    "Nehalem": "13253c99cda82ccf04c11ee0538a0be7be11a2b4083a47735159e6cd4c85951a",
}


def run_cli(argv, out):
    """Exit code and the CSV bytes ``giep`` wrote to ``out`` (empty on failure)."""
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if code == 0 else b""


def cli_outputs(tmp_path):
    """``giep solve`` for n 2-24, each n twice in generic mode, then once in
    skew mode, then ``giep tridiagonalize`` of Gaussian matrices for n 2-24,
    as (exit code, CSV bytes)."""
    rng = np.random.default_rng(2030)
    spectrum, graph, matrix = (tmp_path / name for name in ("s.spectrum", "g.graph", "a.csv"))
    out = tmp_path / "out.csv"
    for n in range(2, 25):
        for mode in ("generic", "generic", "skew"):
            k = int(rng.integers(0, n // 2 + 1))
            spectrum.write_text(format_spectrum(random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2))))
            graph.write_text(format_graph(random_graph(rng, n, k, float(rng.uniform(0.05, 0.6)))))
            yield run_cli(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--mode", mode], out)
    for n in range(2, 25):
        a = rng.standard_normal((n, n))
        # repr round-trips every float, independently of format_matrix_csv
        matrix.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in a))
        yield run_cli(["tridiagonalize", "--matrix", str(matrix)], out)


def test_cli_output_bytes_are_pinned(tmp_path, capsys):
    h = hashlib.sha256()
    codes = []
    for code, text in cli_outputs(tmp_path):
        codes.append(code)
        h.update(f"{code}:{len(text)}:".encode() + text)
    capsys.readouterr()
    assert len(codes) == 3 * 23 + 23 and codes.count(0) >= 80
    assert h.hexdigest() == kernel_pin(CLI_PINS), f"OpenBLAS kernel {openblas_corename()}"


# floats from every binade: signed zeros, subnormals and the extreme exponents
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e-300, 1e300]),
    st.integers(0, 2**64 - 1).map(lambda b: np.array(b, dtype=np.uint64).view(float).item()).filter(
        np.isfinite),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
def test_matrix_csv_equals_its_oracles(rows, cols, data):
    a = np.array(data.draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    text = format_matrix_csv(a)
    assert text == loop_format_matrix_csv(a)
    back = parse_matrix_csv(text)
    assert back.tobytes() == loop_parse_matrix_csv(text).tobytes() == a.tobytes()


def parse_outcome(parse, text):
    try:
        return parse(text).tobytes()
    except BadFormat as exc:
        return f"BadFormat: {exc}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    lines=st.lists(
        st.lists(
            st.one_of(st.sampled_from(["1", "-0", "5e-324", "1e308", "1e309", "1e400", "nan", "inf",
                                       "-inf", "x", "", " 2 ", " 1", "0x1", "0x1p3", "1_0", "\t",
                                       "\u0661", "\u22121"]),
                      finite.map(repr)),
            min_size=1, max_size=4,
        ).map(",".join),
        max_size=6,
    ),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
@example(lines=["1,2", "3,x"], newline="\n")
@example(lines=["1,2", "", "3"], newline="\n")
@example(lines=["", "  "], newline="\n")
@example(lines=["1_0, 1", "\u0661,2"], newline="\n")       # entries float() reads
@example(lines=["1,0x1", "2,\u22121"], newline="\r")       # and entries it refuses
@example(lines=["1,nan", "inf,1e400"], newline="\n")
@example(lines=["1,2,", "3,4,"], newline="\r\n")          # a trailing comma
@example(lines=["1,2", "3", "x"], newline="\n")           # ragged rows before a bad line
@example(lines=["", "1,2", "", "3,4", ""], newline="\r")   # blank lines, CR
def test_bad_matrix_csv_fails_as_its_oracle(lines, newline):
    text = newline.join(lines)
    assert parse_outcome(parse_matrix_csv, text) == parse_outcome(loop_parse_matrix_csv, text)


@pytest.mark.parametrize("text, line", [("1,2\n3,x\n", 2), ("\n\n1,y\n", 3), ("1\n2\n\n4,,\n", 4)])
def test_bad_row_names_its_line(text, line):
    with pytest.raises(BadFormat, match=f"^line {line}: not a numeric row$"):
        parse_matrix_csv(text)

"""Tests for the command-line interface and its exit-code contract."""

import numpy as np
import pytest

import giep.cli
from giep import GiepError, StepUnderflow, parse_graph, parse_spectrum, verify
from giep.cli import main
from giep.errors import BadFormat, MatchingTooSmall, SingularSystem
from giep.model import parse_matrix_csv
from conftest import bidirected_pairs

SPECTRUM_3 = '{"pairs": [[1.0, 2.0]], "reals": [3.0]}\n'
PATH_3 = "3 2 undirected\n1 2\n2 3\n"


@pytest.fixture
def instance(tmp_path):
    spectrum = tmp_path / "s.spectrum"
    graph = tmp_path / "g.graph"
    spectrum.write_text(SPECTRUM_3)
    graph.write_text(PATH_3)
    return tmp_path, spectrum, graph


def test_solve_round_trip(instance, capsys):
    tmp, spectrum, graph = instance
    out = tmp / "m.csv"
    report = tmp / "run.txt"
    code = main(
        [
            "solve",
            "--spectrum", str(spectrum),
            "--graph", str(graph),
            "--out", str(out),
            "--report", str(report),
        ]
    )
    assert code == 0
    m = parse_matrix_csv(out.read_text())
    assert verify(m, parse_spectrum(SPECTRUM_3), parse_graph(PATH_3)).passed
    text = report.read_text()
    assert text.startswith("status: success")
    assert "history:" in text
    assert "wrote" in capsys.readouterr().out


def test_solve_matching_too_small(instance, capsys):
    tmp, spectrum, _ = instance
    graph = tmp / "empty.graph"
    graph.write_text("3 0 undirected\n")
    code = main(
        ["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(tmp / "m.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "k=1" in err and "size 0" in err


def test_solve_malformed_spectrum(instance, capsys):
    tmp, _, graph = instance
    bad = tmp / "bad.spectrum"
    bad.write_text("{not json")
    code = main(
        ["solve", "--spectrum", str(bad), "--graph", str(graph), "--out", str(tmp / "m.csv")]
    )
    assert code == 1


def test_solve_missing_file(instance):
    tmp, spectrum, _ = instance
    code = main(
        ["solve", "--spectrum", str(spectrum), "--graph", str(tmp / "nope.graph"),
         "--out", str(tmp / "m.csv")]
    )
    assert code == 1


def test_solve_numerical_failure_exit_code(instance, capsys):
    tmp, spectrum, graph = instance
    code = main(
        [
            "solve",
            "--spectrum", str(spectrum),
            "--graph", str(graph),
            "--out", str(tmp / "m.csv"),
            "--fill-scale", "200",
            "--step-min", "1e-3",
        ]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_solve_usage_error_is_bad_input(instance):
    code = main(["solve", "--no-such-flag"])
    assert code == 1


def test_mm_export(instance):
    tmp, spectrum, graph = instance
    out = tmp / "m.csv"
    mm = tmp / "m.mtx"
    code = main(
        ["solve", "--spectrum", str(spectrum), "--graph", str(graph),
         "--out", str(out), "--mm-out", str(mm)]
    )
    assert code == 0
    lines = mm.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    n_rows, n_cols, nnz = (int(tok) for tok in lines[1].split())
    assert (n_rows, n_cols) == (3, 3)
    assert nnz == len(lines) - 2


def test_tridiagonalize_cli(tmp_path):
    mat = tmp_path / "in.csv"
    mat.write_text("1,0,0\n0,2,0\n0,0,3\n")
    out = tmp_path / "t.csv"
    assert main(["tridiagonalize", "--matrix", str(mat), "--out", str(out)]) == 0
    t = parse_matrix_csv(out.read_text())
    assert t.shape == (3, 3)
    assert t[0, 2] == 0.0 and t[2, 0] == 0.0
    assert t[0, 1] != 0.0 and t[1, 0] != 0.0


def test_tridiagonalize_repeated_eigenvalues_exit(tmp_path):
    mat = tmp_path / "in.csv"
    mat.write_text("1,0\n0,1\n")
    assert main(["tridiagonalize", "--matrix", str(mat), "--out", str(tmp_path / "t.csv")]) == 2


def test_tridiagonalize_non_square_exit(tmp_path):
    mat = tmp_path / "in.csv"
    mat.write_text("1,0,0\n0,1,0\n")
    assert main(["tridiagonalize", "--matrix", str(mat), "--out", str(tmp_path / "t.csv")]) == 1


def test_verify_cli_pass_and_fail(instance, capsys):
    tmp, spectrum, graph = instance
    out = tmp / "m.csv"
    assert main(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(out)]) == 0
    assert main(["verify", "--matrix", str(out), "--spectrum", str(spectrum), "--graph", str(graph)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    # seed matrix lacks the {2,3} edge of the path
    seed_csv = tmp / "seed.csv"
    seed_csv.write_text("1,2,0\n-2,1,0\n0,0,3\n")
    assert main(["verify", "--matrix", str(seed_csv), "--spectrum", str(spectrum), "--graph", str(graph)]) == 4
    assert "overall: FAIL" in capsys.readouterr().out


def test_parser_built_once_gives_same_output_as_fresh_parser(instance, capsys):
    tmp, spectrum, graph = instance
    out = tmp / "m.csv"
    calls = [
        ["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(out)],
        ["solve", "--mode", "sideways"],
        ["verify", "--matrix", str(out), "--spectrum", str(spectrum), "--graph", str(graph)],
    ]

    def run(fresh):
        results = []
        for argv in calls:
            if fresh:
                giep.cli.build_parser.cache_clear()
            results.append((main(argv), *capsys.readouterr()))
        return results

    main(["solve", "--mode", "sideways"])  # build the shared parser first
    capsys.readouterr()
    shared = giep.cli.build_parser()
    reused = run(fresh=False)
    assert giep.cli.build_parser() is shared
    assert [code for code, _, _ in reused] == [0, 1, 0]
    assert "invalid choice: 'sideways'" in reused[1][2]
    assert run(fresh=True) == reused


def test_verify_cli_dimension_disagreement_is_bad_input(instance, tmp_path):
    _, spectrum, graph = instance
    small = tmp_path / "small.csv"
    small.write_text("1,0\n0,2\n")
    assert main(["verify", "--matrix", str(small), "--spectrum", str(spectrum), "--graph", str(graph)]) == 1


def test_random_instance_deterministic(tmp_path, capsys):
    args = ["random-instance", "--n", "6", "--k", "2", "--edge-prob", "0.5", "--rng-seed", "33"]
    assert main(args + ["--out-prefix", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-prefix", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.spectrum").read_bytes() == (tmp_path / "b.spectrum").read_bytes()
    assert (tmp_path / "a.graph").read_bytes() == (tmp_path / "b.graph").read_bytes()
    assert "rng seed: 33" in capsys.readouterr().out


def test_random_instance_zero_prob_is_planted_matching_only(tmp_path):
    assert main(
        ["random-instance", "--n", "4", "--k", "1", "--edge-prob", "0",
         "--rng-seed", "5", "--out-prefix", str(tmp_path / "r")]
    ) == 0
    g = parse_graph((tmp_path / "r.graph").read_text())
    assert len(bidirected_pairs(g)) == 1
    s = parse_spectrum((tmp_path / "r.spectrum").read_text())
    assert (s.k, s.l) == (1, 2)


def test_random_instance_large_n_solves_and_verifies(tmp_path, capsys):
    # the spectrum box grows with n, so n=40 with k=10 is not too crowded
    base = tmp_path / "r"
    assert main(["random-instance", "--n", "40", "--k", "10", "--out-prefix", str(base)]) == 0
    out = tmp_path / "m.csv"
    spectrum, graph = f"{base}.spectrum", f"{base}.graph"
    assert main(["solve", "--spectrum", spectrum, "--graph", graph, "--out", str(out)]) == 0
    assert main(["verify", "--matrix", str(out), "--spectrum", spectrum, "--graph", graph]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_random_instance_invalid_sizes(tmp_path):
    assert main(
        ["random-instance", "--n", "3", "--k", "2", "--out-prefix", str(tmp_path / "x")]
    ) == 1


def test_random_instances_are_feasible(tmp_path):
    from giep.cli import random_graph
    from giep.graph import max_matching

    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(0, n // 2 + 1))
        g = random_graph(rng, n, k, float(rng.uniform(0, 0.6)))
        assert max_matching(g).size >= k


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "runs"
    batch.mkdir()
    for i, n in enumerate((3, 4)):
        assert main(
            ["random-instance", "--n", str(n), "--k", "1", "--edge-prob", "0.3",
             "--rng-seed", str(100 + i), "--out-prefix", str(batch / f"case{i}")]
        ) == 0
    # one infeasible instance: a pair requested on an empty graph
    (batch / "bad.spectrum").write_text(SPECTRUM_3)
    (batch / "bad.graph").write_text("3 0 undirected\n")
    code = main(["solve", "--batch", str(batch), "--jobs", "2"])
    assert code == 2  # the infeasible case dominates the aggregate
    out = capsys.readouterr().out
    assert "case0: ok" in out and "case1: ok" in out and "bad: infeasible" in out
    assert "batch: 3 instances, 2 ok, 1 infeasible" in out
    for i in range(2):
        m = parse_matrix_csv((batch / f"case{i}.matrix.csv").read_text())
        s = parse_spectrum((batch / f"case{i}.spectrum").read_text())
        g = parse_graph((batch / f"case{i}.graph").read_text())
        assert verify(m, s, g).passed


# One failure per row of the CLI error table: exit code, stderr, batch line.
ERROR_CASES = [
    (StepUnderflow("step 5e-07 fell below 1e-06 at t=0.25: x", t_reached=0.25), 3,
     "giep: numerical failure: step 5e-07 fell below 1e-06 at t=0.25: x\n",
     "one: numerical (step underflow at t=0.25)"),
    (SingularSystem("pivot 0"), 3, "giep: numerical failure: pivot 0\n",
     "one: numerical (pivot 0)"),
    (MatchingTooSmall("need k=1"), 2, "giep: infeasible: need k=1\n",
     "one: infeasible (need k=1)"),
    (BadFormat("line 2"), 1, "giep: bad input: line 2\n", "one: bad-input (line 2)"),
    (GiepError("other"), 3, "giep: error: other\n", "one: numerical (other)"),
    (OSError("disk"), 1, "giep: cannot read/write: disk\n", "one: bad-input (disk)"),
    (ValueError("nan"), 1, "giep: bad input: nan\n", "one: bad-input (nan)"),
]


@pytest.mark.parametrize(
    "error, code, stderr, batch_line",
    ERROR_CASES,
    ids=[type(case[0]).__name__ for case in ERROR_CASES],
)
def test_error_table_single_and_batch(tmp_path, monkeypatch, capsys, error, code, stderr, batch_line):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(giep.cli, "solve_instance", fail)
    (tmp_path / "one.spectrum").write_text(SPECTRUM_3)
    (tmp_path / "one.graph").write_text(PATH_3)
    single = main(
        ["solve", "--spectrum", str(tmp_path / "one.spectrum"),
         "--graph", str(tmp_path / "one.graph"), "--out", str(tmp_path / "m.csv")]
    )
    captured = capsys.readouterr()
    assert (single, captured.err, captured.out) == (code, stderr, "")
    batch = main(["solve", "--batch", str(tmp_path), "--jobs", "1"])
    out = capsys.readouterr().out.splitlines()
    counts = {1: "0 ok, 0 infeasible, 0 numerical, 1 bad-input",
              2: "0 ok, 1 infeasible, 0 numerical, 0 bad-input",
              3: "0 ok, 0 infeasible, 1 numerical, 0 bad-input"}[code]
    assert (batch, out) == (code, [batch_line, f"batch: 1 instances, {counts}"])


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_batch_rejects_jobs_below_one(tmp_path, capsys, jobs):
    (tmp_path / "one.spectrum").write_text(SPECTRUM_3)
    (tmp_path / "one.graph").write_text(PATH_3)
    assert main(["solve", "--batch", str(tmp_path), "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"giep: bad input: --jobs must be at least 1, got {jobs}\n"
    assert captured.out == ""
    assert not (tmp_path / "one.matrix.csv").exists()


def test_batch_requires_pairs(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["solve", "--batch", str(empty)]) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "giep" in capsys.readouterr().out

"""Tests for the command-line interface and its exit-code contract."""

import contextlib
import dataclasses
import hashlib
import io
import logging
import os
import re
import sys
import threading

import numpy as np
import pytest

import giep.cli
from giep import (
    GiepError,
    InputError,
    SolverConfig,
    StepUnderflow,
    parse_graph,
    parse_spectrum,
    solve_instance,
    verify,
)
from giep.cli import main, random_graph, random_spectrum
from giep.errors import BadFormat, MatchingTooSmall, SingularSystem
from giep.graph import format_graph
from giep.model import format_matrix_csv, format_spectrum, parse_matrix_csv
from giep.solver import MODES
from conftest import bidirected_pairs, loop_random_graph, loop_random_spectrum

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


# Every option of every subcommand; a new option edits this pin.
OPTIONS = {
    "solve": ["--help", "--fill-scale", "--step-min", "--report", "--mm-out", "--spectrum",
              "--graph", "--out", "--mode", "--batch", "--jobs"],
    "tridiagonalize": ["--help", "--fill-scale", "--step-min", "--report", "--mm-out",
                       "--matrix", "--out"],
    "verify": ["--help", "--matrix", "--spectrum", "--graph", "--tol"],
    "random-instance": ["--help", "--n", "--k", "--edge-prob", "--rng-seed", "--out-prefix"],
}


def test_option_surface_is_pinned():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["fill_scale", "step_min", "observer"]
    parser = giep.cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    options = {
        name: [opt for a in sub._actions for opt in a.option_strings if opt.startswith("--")]
        for name, sub in commands.items()
    }
    assert options == OPTIONS


@pytest.mark.parametrize("flag", [["--tol", "1e-8"], ["--max-steps", "5"]], ids=["tol", "max-steps"])
def test_removed_solve_flags_are_usage_errors(instance, capsys, flag):
    tmp, spectrum, graph = instance
    out = tmp / "m.csv"
    argv = ["--spectrum", str(spectrum), "--graph", str(graph), "--out", str(out), *flag]
    assert main(["solve", *argv]) == 1
    assert capsys.readouterr().err == f"giep: bad input: unrecognized arguments: {' '.join(flag)}\n"
    assert not out.exists()


def test_mode_choices_are_the_solver_modes(instance, capsys):
    (commands,) = [a.choices for a in giep.cli.build_parser()._actions if a.dest == "command"]
    (mode,) = [a for a in commands["solve"]._actions if a.dest == "mode"]
    assert mode.choices is MODES
    assert MODES == ("generic", "skew")
    tmp, spectrum, graph = instance
    out = tmp / "m.csv"
    argv = ["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(out)]
    assert main([*argv, "--mode", "symmetric"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("giep: bad input: argument --mode: invalid choice: 'symmetric'")
    assert not out.exists()


def test_solve_needs_an_instance_or_a_batch(capsys):
    assert main(["solve"]) == 1
    assert capsys.readouterr().err == "giep: bad input: --spectrum is required (or use --batch)\n"


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


@pytest.mark.parametrize("tol, code", [("nan", 1), ("-1", 1), ("0", 4), ("inf", 0)])
def test_verify_cli_tolerance_must_be_nonnegative(instance, capsys, tol, code):
    tmp, spectrum, graph = instance
    out = tmp / "m.csv"
    assert main(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(out)]) == 0
    argv = ["verify", "--matrix", str(out), "--spectrum", str(spectrum), "--graph", str(graph)]
    assert main(argv + ["--tol", tol]) == code
    if code == 1:
        assert "bad input: spectrum tolerance must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("step_min", ["0", "-1", "nan"])
def test_solve_step_min_must_be_positive(tmp_path, capsys, step_min):
    """The stalling instance of the step-rounding test: a step_min that is
    not positive is bad input before any step."""
    prefix = str(tmp_path / "a")
    argv = ["random-instance", "--n", "8", "--k", "2", "--edge-prob", "0.5", "--rng-seed", "3"]
    assert main(argv + ["--out-prefix", prefix]) == 0
    code = main(
        ["solve", "--spectrum", prefix + ".spectrum", "--graph", prefix + ".graph",
         "--out", str(tmp_path / "m.csv"), "--fill-scale", "30", "--step-min", step_min]
    )
    assert code == 1
    assert "bad input: step_min must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("fill_scale", ["0", "-1", "nan", "inf", "1e-20"])
def test_solve_fill_scale_must_size_finite_fills_above_the_floor(instance, capsys, fill_scale):
    tmp, spectrum, graph = instance
    argv = ["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(tmp / "m.csv")]
    assert main(argv + ["--fill-scale", fill_scale]) == 1
    assert "bad input: fill_scale must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("fill_scale", ["1e150", "1e200", "1e300"])
def test_solve_huge_fills_end_in_step_underflow(instance, capsys, recwarn, fill_scale):
    """Fills far beyond the discs end in StepUnderflow (exit 3).  From 1e200
    the start overflows; a trial whose start or iterate is not
    finite is rejected like any other, where it was bad input (exit 1)
    after RuntimeWarnings."""
    tmp, spectrum, graph = instance
    argv = ["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(tmp / "m.csv")]
    assert main(argv + ["--fill-scale", fill_scale]) == 3
    assert "numerical failure: step" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


def run_main(argv) -> tuple:
    """``main(argv)``'s exit code, or the code it exits with, and its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 1),
        (["--version"], ("exit", 0)),
        (["-h"], ("exit", 0)),
        (["nosuch"], 1),
        (["verify"], 1),
        (["verify", "--version"], 1),
        (["verify", "-h"], ("exit", 0)),
        (["solve", "--mode", "sideways"], 1),
        (["solve", "--batch", "DIR", "--jobs", "0"], 1),
        (["tridiagonalize", "--matrix", "M"], 1),
        (["random-instance", "--n", "x"], 1),
        (["solve", "--spectrum", "S", "--graph", "G", "--out", "OUT"], 0),
        (["verify", "--matrix", "OUT", "--spectrum", "S", "--graph", "G", "--tol", "1e-6"], 0),
    ],
)
def test_subcommand_dispatch_matches_the_top_level_parser(instance, monkeypatch, argv, code):
    """Handing argv to the named subcommand's parser gives the exit code,
    standard output and standard error of parsing it with the top-level
    parser, and the same namespace where the arguments parse."""
    tmp, spectrum, graph = instance
    paths = {"DIR": tmp, "S": spectrum, "G": graph, "M": tmp / "m.csv", "OUT": tmp / "out.csv"}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    if argv[:1] == ["verify"] and len(argv) > 2:  # a matrix to verify
        assert main(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", argv[2]]) == 0
    parser = giep.cli.build_parser()
    dispatched = run_main(argv)
    assert dispatched[0] == code
    with contextlib.suppress(InputError, SystemExit), contextlib.redirect_stdout(io.StringIO()):
        assert vars(giep.cli._parse_args(parser, argv)) == vars(parser.parse_args(argv))
    monkeypatch.setattr(giep.cli, "_parse_args", lambda parser, argv: parser.parse_args(argv))
    assert dispatched == run_main(argv)


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["giep", "--version"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 0
    assert capsys.readouterr().out == f"giep {giep.__version__}\n"


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


def test_random_instance_output_is_pinned(tmp_path, capsys):
    """The generator the benchmark builds its instances with stays
    byte-identical: sha256 of both files of one n=160 instance."""
    base = tmp_path / "r"
    assert main(
        ["random-instance", "--n", "160", "--k", "40", "--edge-prob", "0.025",
         "--rng-seed", "7", "--out-prefix", str(base)]
    ) == 0
    digests = {
        suffix: hashlib.sha256((tmp_path / f"r.{suffix}").read_bytes()).hexdigest()
        for suffix in ("spectrum", "graph")
    }
    assert digests == {
        "spectrum": "00c7ef4095599dd4f18c33337c26c182db5d61c1ef0dceef0a6f114f20fc6e44",
        "graph": "1ee89bd98fa8c943a5a50f42184f8e036d41c83db48b4a949979d853e4ac5f1d",
    }


def test_random_graph_equals_the_pair_loop():
    """One vectorized draw over the free pairs gives the per-pair loop's
    graph and leaves the stream where the loop leaves it, including edge
    probabilities 0 and 1, k = 0, a full planted matching, n = 1 and 2."""
    from giep.cli import random_graph

    cases = [(1, 0, 0.5), (2, 0, 1.0), (2, 1, 0.5), (7, 3, 1.0), (8, 0, 0.0), (160, 40, 0.025)]
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(1, 41))
        cases.append((n, int(rng.integers(0, n // 2 + 1)), float(rng.uniform(0, 1))))
    for seed, (n, k, edge_prob) in enumerate(cases):
        ours, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_graph(ours, n, k, edge_prob) == loop_random_graph(loop, n, k, edge_prob)
        assert ours.uniform() == loop.uniform()


def outcome(generate, rng, *args, **kwargs):
    """A generator's repr or error, then the stream's next draw."""
    try:
        result = repr(generate(rng, *args, **kwargs))
    except (ValueError, GiepError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, rng.uniform()


def test_random_spectrum_equals_the_candidate_loop():
    """Checking only the drawn value against the placed points gives the
    per-candidate loop's spectra and errors, and leaves the stream where
    the loop leaves it."""
    cases = [
        (0, 0, {}), (-1, 3, {}), (1, 0, {}), (0, 1, {}), (40, 80, {"box": 80.0}),
        (3, 1, {}), (0, 2, {}),
        (4, 3, {"min_gap": 1e-9, "box": 1e-8}),
        (0, 3, {"box": 0.6}), (2, 0, {"box": 0.3}), (1, 1, {"box": 0.25}),
    ]
    rng = np.random.default_rng(41)
    for _ in range(60):
        k, l = int(rng.integers(0, 9)), int(rng.integers(0, 7))
        cases.append((k, l, {"box": float(rng.choice([1.0, 2.0, 5.0]))}))
    errors = []
    for seed, (k, l, kwargs) in enumerate(cases):
        ours = outcome(random_spectrum, np.random.default_rng(seed), k, l, **kwargs)
        assert ours == outcome(loop_random_spectrum, np.random.default_rng(seed), k, l, **kwargs)
        if isinstance(ours[0], tuple):
            errors.append(ours[0][1].split(";")[0])
    assert {"need 2k+l >= 1", "could not place a real spectrum value",
            "could not place a spectrum pair"} == set(errors)
    assert len(errors) < len(cases) // 3


def test_random_graph_rejects_impossible_requests():
    rng = np.random.default_rng(3)
    with pytest.raises(InputError, match="2k = 4 exceeds n = 3"):
        random_graph(rng, 3, 2, 0.5)
    with pytest.raises(InputError, match=r"edge probability must be in \[0, 1\]"):
        random_graph(rng, 3, 1, 1.5)


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
        assert len(max_matching(g)) >= k


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


@pytest.mark.parametrize("flag", ["--spectrum", "--graph", "--out", "--report", "--mm-out"])
def test_batch_refuses_the_single_solve_flags(tmp_path, capsys, flag):
    """A batch names its own inputs and outputs, so a flag it would ignore
    is bad input, and nothing is solved or written."""
    (tmp_path / "one.spectrum").write_text(SPECTRUM_3)
    (tmp_path / "one.graph").write_text(PATH_3)
    target = tmp_path / "given"
    assert main(["solve", "--batch", str(tmp_path), flag, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"giep: bad input: {flag} does not apply to --batch\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.graph", "one.spectrum"]


def test_jobs_without_batch_is_refused(tmp_path, capsys):
    (tmp_path / "one.spectrum").write_text(SPECTRUM_3)
    (tmp_path / "one.graph").write_text(PATH_3)
    out = tmp_path / "one.csv"
    argv = ["solve", "--spectrum", str(tmp_path / "one.spectrum"), "--graph",
            str(tmp_path / "one.graph"), "--out", str(out), "--jobs", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "giep: bad input: --jobs applies only to --batch\n"
    assert not out.exists()


def test_batch_requires_pairs(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["solve", "--batch", str(empty)]) == 1


def test_batch_needs_an_existing_directory(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["solve", "--batch", str(missing)]) == 1
    assert capsys.readouterr().err == f"giep: bad input: batch directory {missing} does not exist\n"


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["no-jobs", "jobs-2"])
def test_empty_batch_name_is_bad_input(tmp_path, monkeypatch, capsys, jobs):
    """``--batch ""`` names no directory; it does not batch-solve the
    current one, though ``Path("")`` is ``.``."""
    (tmp_path / "a.spectrum").write_text(SPECTRUM_3)
    (tmp_path / "a.graph").write_text(PATH_3)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--batch", "", *jobs]) == 1
    assert capsys.readouterr().err == "giep: bad input: --batch needs a directory name\n"
    assert not (tmp_path / "a.matrix.csv").exists()


def test_batch_of_successes_exits_zero(tmp_path, capsys):
    for name in ("b", "a"):
        (tmp_path / f"{name}.spectrum").write_text(SPECTRUM_3)
        (tmp_path / f"{name}.graph").write_text(PATH_3)
    assert main(["solve", "--batch", str(tmp_path), "--jobs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in out[:2]] == ["a: ok", "b: ok"]
    assert out[2:] == ["batch: 2 instances, 2 ok, 0 infeasible, 0 numerical, 0 bad-input"]


def test_batch_reports_an_unwritable_output_and_solves_the_rest(tmp_path, capsys):
    """An output that cannot be written fails its own instance as bad input;
    the others are still solved, written and summarized."""
    for name in ("a", "b"):
        (tmp_path / f"{name}.spectrum").write_text(SPECTRUM_3)
        (tmp_path / f"{name}.graph").write_text(PATH_3)
    (tmp_path / "a.matrix.csv").mkdir()
    assert main(["solve", "--batch", str(tmp_path), "--jobs", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("a: bad-input (") and "a.matrix.csv" in out[0]
    assert out[1].startswith("b: ok (")
    assert out[2:] == ["batch: 2 instances, 1 ok, 0 infeasible, 0 numerical, 1 bad-input"]
    m = parse_matrix_csv((tmp_path / "b.matrix.csv").read_text())
    assert verify(m, parse_spectrum(SPECTRUM_3), parse_graph(PATH_3)).passed


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "giep" in capsys.readouterr().out


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_endings_read_as_path_reads_them(tmp_path, newline):
    """The CLI reads its files as Path.read_text does, with CRLF and lone
    CR read as LF, and writes them as Path.write_text does: CRLF and CR
    inputs give the same output bytes as LF inputs."""
    rng = np.random.default_rng(41)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.4)
    written = []
    for name, nl in (("lf", "\n"), ("other", newline)):
        spectrum, graph, out = (tmp_path / f"{name}.{ext}" for ext in ("spectrum", "graph", "csv"))
        spectrum.write_bytes(format_spectrum(s).replace("\n", nl).encode())
        graph.write_bytes(format_graph(g).replace("\n", nl).encode())
        assert giep.cli._read(spectrum) == spectrum.read_text(encoding="utf-8")
        assert main(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    text = "a\nb\r\nc"
    giep.cli._write(tmp_path / "w.txt", text)
    (tmp_path / "p.txt").write_text(text, encoding="utf-8")
    assert (tmp_path / "w.txt").read_bytes() == (tmp_path / "p.txt").read_bytes()


def test_unreadable_files_report_as_path_does(tmp_path, capsys):
    missing = tmp_path / "missing.spectrum"
    with pytest.raises(OSError) as want:
        missing.read_text(encoding="utf-8")
    assert main(["solve", "--spectrum", str(missing), "--graph", str(tmp_path), "--out", "x"]) == 1
    assert capsys.readouterr().err == f"giep: cannot read/write: {want.value}\n"
    with pytest.raises(OSError) as want:
        tmp_path.read_text(encoding="utf-8")
    with pytest.raises(OSError) as got:
        giep.cli._read(tmp_path)
    assert str(got.value) == str(want.value)


def _past_8k(text: str, at: int, insert: str) -> str:
    """ASCII ``text`` repeated past byte ``at``, with ``insert`` placed at byte ``at``."""
    body = text * (at // len(text) + 2)
    return body[:at] + insert + body[at:]


CSV_24 = format_matrix_csv(np.random.default_rng(43).standard_normal((24, 24)))


@pytest.mark.parametrize(
    "data",
    [
        CSV_24.encode(),
        CSV_24.replace("\n", "\r\n").encode(),
        CSV_24.replace("\n", "\r").encode(),
        *(_past_8k("1 2\n", at, "\r\n").encode() for at in (8191, 8192)),
        "\ufeff# λ µ — ∞\r\n".encode() * 1000,
        _past_8k("a\n", 8191, "λ\r").encode(),
    ],
    ids=["csv-lf", "csv-crlf", "csv-cr", "crlf-at-8191", "crlf-at-8192", "bom-non-ascii",
         "split-character"],
)
def test_read_equals_path_read_text(tmp_path, data):
    """Documents over 8 KiB read as Path.read_text reads them, whatever
    their line endings and wherever a CRLF or a multibyte character falls."""
    assert len(data) > 8192
    path = tmp_path / "doc"
    path.write_bytes(data)
    # compared as lists of lines: a failure names the first differing line
    # at once, where a diff of two long strings takes minutes
    got, want = giep.cli._read(path), path.read_text(encoding="utf-8")
    assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


def test_undecodable_spectrum_is_bad_input(instance, capsys):
    """An invalid UTF-8 byte past 8 KiB is reported with Path.read_text's message."""
    tmp, spectrum, graph = instance
    matrix = tmp / "m.csv"
    assert main(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(matrix)]) == 0
    capsys.readouterr()
    spectrum.write_bytes(SPECTRUM_3.encode() + b" " * 9000 + b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as want:
        spectrum.read_text(encoding="utf-8")
    assert main(["verify", "--matrix", str(matrix), "--spectrum", str(spectrum), "--graph", str(graph)]) == 1
    assert capsys.readouterr().err == f"giep: bad input: {want.value}\n"


def test_read_of_a_fifo_returns_what_was_written(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    text = PATH_3 * 20_000  # past the pipe's buffer

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        assert giep.cli._read(fifo) == text
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_write_replaces_a_longer_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 10_000)
    giep.cli._write(path, "1,2\n")
    assert path.read_bytes() == b"1,2\n"


def test_write_equals_path_write_text(tmp_path):
    text = "\ufeffλ µ — ∞\n" * 2000 + "end"
    giep.cli._write(tmp_path / "w.txt", text)
    (tmp_path / "p.txt").write_text(text, encoding="utf-8")
    assert (tmp_path / "w.txt").read_bytes() == (tmp_path / "p.txt").read_bytes()


@pytest.fixture
def giep_log(monkeypatch):
    """Sets GIEP_LOG for one test."""
    return lambda value: monkeypatch.setenv("GIEP_LOG", value)


def test_main_gives_the_giep_logger_its_level_back(instance, capsys, giep_log):
    """After ``main`` under GIEP_LOG=info, a library solve in the same
    process writes nothing to stderr."""
    giep_log("info")
    tmp, spectrum, graph = instance
    level = logging.getLogger("giep").level
    assert main(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(tmp / "m.csv")]) == 0
    assert "giep.solver: continuation finished: " in capsys.readouterr().err
    assert logging.getLogger("giep").level == level
    solve_instance(parse_spectrum(spectrum.read_text()), parse_graph(graph.read_text()))
    assert capsys.readouterr().err == ""


def test_main_leaves_the_giep_logger_as_it_found_it(instance, monkeypatch, capsys, giep_log):
    """A call that succeeds and one that fails with a handled error each
    leave the ``giep`` logger's handlers and level as they were."""
    giep_log("info")
    tmp, spectrum, graph = instance
    giep_logger = logging.getLogger("giep")
    monkeypatch.setattr(giep_logger, "handlers", [])
    before = (list(giep_logger.handlers), giep_logger.level)
    argv = ["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(tmp / "m.csv")]
    assert main(argv) == 0
    assert (giep_logger.handlers, giep_logger.level) == before
    assert main([*argv[:2], str(tmp / "missing.spectrum"), *argv[3:]]) == 1
    assert (giep_logger.handlers, giep_logger.level) == before
    assert "giep: cannot read/write: " in capsys.readouterr().err


def test_root_handler_gets_each_solver_record_once_after_main(instance, capsys, giep_log):
    """After ``main``, a program that logs through the root logger at INFO
    sees each ``giep.solver`` record once: no handler of the call is left
    on the ``giep`` logger to write it a second time."""
    giep_log("info")
    tmp, spectrum, graph = instance
    assert main(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(tmp / "m.csv")]) == 0
    capsys.readouterr()
    root = logging.getLogger()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("root %(name)s: %(message)s"))
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        solve_instance(parse_spectrum(spectrum.read_text()), parse_graph(graph.read_text()))
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("root giep.solver: continuation finished: ")


def test_log_lines_reach_the_current_stderr(instance, giep_log):
    """Every in-process call logs to the stderr it runs under, not to the
    stream of the first call."""
    giep_log("info")
    tmp, spectrum, graph = instance
    argv = ["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(tmp / "m.csv")]
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 0
        assert err.getvalue().startswith("giep.solver: continuation finished: ")


def test_trace_logs_every_rejected_trial(tmp_path, monkeypatch, capsys, giep_log):
    import giep.solver as solver

    trials = []
    real_correct = solver.newton_correct

    def counted(*args):
        trials.append(args)
        return real_correct(*args)

    monkeypatch.setattr(solver, "newton_correct", counted)
    giep_log("trace")
    # fill three radii wide: the whole-interval trial is rejected on this seed
    rng = np.random.default_rng(2)
    spectrum, graph = tmp_path / "s.spectrum", tmp_path / "g.graph"
    spectrum.write_text(format_spectrum(random_spectrum(rng, 3, 4)))
    graph.write_text(format_graph(random_graph(rng, 10, 3, 0.3)))
    argv = ["--spectrum", str(spectrum), "--graph", str(graph), "--out", str(tmp_path / "m.csv")]
    assert main(["solve", *argv, "--fill-scale", "3"]) == 0
    out, err = capsys.readouterr()
    rejected = [line for line in err.splitlines() if line.startswith("giep.solver: rejected t=")]
    steps = int(re.search(r" steps=(\d+) ", out).group(1))
    assert rejected[0].startswith("giep.solver: rejected t=1 (eigenvalue ")
    assert len(rejected) == len(trials) - steps > 0


def test_unknown_log_level_is_reported(instance, capsys, giep_log):
    giep_log("debug")
    tmp, spectrum, graph = instance
    assert main(["solve", "--spectrum", str(spectrum), "--graph", str(graph), "--out", str(tmp / "m.csv")]) == 0
    assert capsys.readouterr().err == "giep: ignoring GIEP_LOG='debug'; accepted values: quiet, info, trace\n"

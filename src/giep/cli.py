"""Command-line interface: solve, tridiagonalize, verify, random-instance.

Exit codes are a total function of the error taxonomy:

* 0 — success (for ``verify``: both checks passed)
* 1 — bad input (unreadable or malformed files, invalid flags/sizes)
* 2 — infeasible instance (matching too small, dimension mismatch,
      repeated eigenvalues)
* 3 — numerical failure (step underflow, stalled Newton, singular or
      ill-conditioned systems)
* 4 — verification failure (``verify`` only)

``solve`` and ``tridiagonalize`` share one set of construction flags:
--fill-scale, --step-min, --report and --mm-out.  Their final spectrum
check is fixed; ``verify --tol`` checks a matrix at any tolerance.
``solve --batch`` names its own files, so it refuses --spectrum, --graph,
--out, --report and --mm-out; --jobs applies only to a batch.

The environment variable GIEP_LOG in {quiet, info, trace} controls
diagnostic verbosity on standard error for the call; any other value is
reported there and read as quiet.  ``main`` leaves the ``giep`` logger's
level and handlers as it found them.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .apps import solve_instance, tridiagonalize, verify
from .errors import (
    DimensionMismatch,
    GiepError,
    InfeasibleError,
    InputError,
    NumericalError,
    StepUnderflow,
)
from .graph import Graph, format_graph, make_graph, parse_graph
from .model import (
    Spectrum,
    format_matrix_csv,
    format_matrix_market,
    format_spectrum,
    parse_matrix_csv,
    parse_spectrum,
)
from .solver import MODES, SolveReport, SolverConfig

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY_FAILED = 4

# Error class -> (exit code, stderr label); the first matching row wins.
_FAILURES = (
    (NumericalError, EXIT_NUMERICAL, "numerical failure"),
    (InfeasibleError, EXIT_INFEASIBLE, "infeasible"),
    (InputError, EXIT_BAD_INPUT, "bad input"),
    (GiepError, EXIT_NUMERICAL, "error"),
    (OSError, EXIT_BAD_INPUT, "cannot read/write"),
    (ValueError, EXIT_BAD_INPUT, "bad input"),
)
_HANDLED = tuple(cls for cls, _, _ in _FAILURES)
# Batch status word, indexed by exit code.
_STATUS = ("ok", "bad-input", "infeasible", "numerical")

DEFAULT_SEED = 20240801

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}
_LOG_FORMAT = logging.Formatter("%(name)s: %(message)s")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors through the exit-code mapping."""

    commands: dict[str, argparse.ArgumentParser]  # the top-level parser's subcommands

    def error(self, message):
        raise InputError(message)


def _log_level() -> int:
    """GIEP_LOG's level; any other value is reported on stderr and read as quiet."""
    value = os.environ.get("GIEP_LOG", "quiet")
    level = _LOG_LEVELS.get(value.strip().lower())
    if level is None:
        print(f"giep: ignoring GIEP_LOG={value!r}; accepted values: {', '.join(_LOG_LEVELS)}",
              file=sys.stderr)
        return logging.WARNING
    return level


# The text and bytes of Path.read_text and Path.write_text in UTF-8, through
# one unbuffered binary file: a read decodes the whole file in one call, so a
# decode error names the same byte, and translates CRLF and lone CR to LF as
# universal newlines do; a write maps LF to os.linesep as text mode does.
def _read(path) -> str:
    with open(path, "rb", buffering=0) as fh:
        text = fh.readall().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _write(path, text: str) -> None:
    if os.linesep != "\n":
        text = text.replace("\n", os.linesep)
    with open(path, "wb", buffering=0) as fh:
        data = memoryview(text.encode("utf-8"))
        while data:
            data = data[fh.write(data):]


def _config_from_args(args) -> SolverConfig:
    """The solver configuration of the flags given; defaults for the rest."""
    fields = ("fill_scale", "step_min")
    return SolverConfig(**{f: getattr(args, f) for f in fields if getattr(args, f) is not None})


def format_report(report: SolveReport) -> str:
    """Structured-text run report for --report files."""
    lines = [
        "status: success",
        f"mode: {report.mode}",
        f"n: {report.matrix.shape[0]}",
        f"steps: {report.steps}",
        f"newton_iterations: {report.newton_iterations_total}",
        f"final_residual: {report.final_residual:.6e}",
        "history:",
    ]
    for rec in report.history:
        lines.append(
            f"  t={rec.t:.9f} residual={rec.residual:.3e} newton={rec.newton_iterations}"
        )
    return "\n".join(lines) + "\n"


def _emit_solution(args, report: SolveReport) -> None:
    _write(args.out, format_matrix_csv(report.matrix))
    if args.mm_out:
        _write(args.mm_out, format_matrix_market(report.matrix))
    if args.report:
        _write(args.report, format_report(report))
    print(
        f"wrote {args.out}: n={report.matrix.shape[0]} steps={report.steps} "
        f"newton={report.newton_iterations_total} residual={report.final_residual:.3e}"
    )


def _cmd_solve(args) -> int:
    if args.batch is not None:
        for flag in ("spectrum", "graph", "out", "report", "mm_out"):  # a batch names its own files
            if getattr(args, flag) is not None:
                raise InputError(f"--{flag.replace('_', '-')} does not apply to --batch")
        return _run_batch(args)
    if args.jobs is not None:
        raise InputError("--jobs applies only to --batch")
    for flag in ("spectrum", "graph", "out"):
        if getattr(args, flag) is None:
            raise InputError(f"--{flag} is required (or use --batch)")
    s = parse_spectrum(_read(args.spectrum))
    g = parse_graph(_read(args.graph))
    report = solve_instance(s, g, args.mode, _config_from_args(args))
    _emit_solution(args, report)
    return EXIT_OK


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr label of a handled error."""
    return next((code, label) for cls, code, label in _FAILURES if isinstance(exc, cls))


def _solve_batch_item(stem: str, directory: Path, args) -> tuple[int, str]:
    """Solve one batch instance; returns (exit_code, summary)."""
    try:
        s = parse_spectrum(_read(directory / f"{stem}.spectrum"))
        g = parse_graph(_read(directory / f"{stem}.graph"))
        report = solve_instance(s, g, args.mode, _config_from_args(args))
        _write(directory / f"{stem}.matrix.csv", format_matrix_csv(report.matrix))
        _write(directory / f"{stem}.report.txt", format_report(report))
    except _HANDLED as exc:
        if isinstance(exc, StepUnderflow):
            return EXIT_NUMERICAL, f"step underflow at t={exc.t_reached:.4g}"
        return _failure(exc)[0], str(exc)
    return EXIT_OK, f"residual={report.final_residual:.3e}"


def _run_batch(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    if not args.batch:  # Path("") is the current directory
        raise InputError("--batch needs a directory name")
    directory = Path(args.batch)
    if not directory.is_dir():
        raise InputError(f"batch directory {directory} does not exist")
    stems = sorted(p.stem for p in directory.glob("*.spectrum"))
    stems = [st for st in stems if (directory / f"{st}.graph").exists()]
    if not stems:
        raise InputError(f"no <name>.spectrum/<name>.graph pairs in {directory}")
    jobs = args.jobs or min(8, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        # map yields the results in stem order
        results = list(pool.map(lambda st: _solve_batch_item(st, directory, args), stems))
    counts = Counter(code for code, _ in results)
    for stem, (code, summary) in zip(stems, results):
        print(f"{stem}: {_STATUS[code]} ({summary})")
    print(
        f"batch: {len(results)} instances, {counts[EXIT_OK]} ok, "
        f"{counts[EXIT_INFEASIBLE]} infeasible, {counts[EXIT_NUMERICAL]} numerical, "
        f"{counts[EXIT_BAD_INPUT]} bad-input"
    )
    for code in (EXIT_BAD_INPUT, EXIT_INFEASIBLE, EXIT_NUMERICAL):
        if counts[code]:
            return code
    return EXIT_OK


def _cmd_tridiagonalize(args) -> int:
    a = parse_matrix_csv(_read(args.matrix))
    report = tridiagonalize(a, _config_from_args(args))
    _emit_solution(args, report)
    return EXIT_OK


def _cmd_verify(args) -> int:
    a = parse_matrix_csv(_read(args.matrix))
    s = parse_spectrum(_read(args.spectrum))
    g = parse_graph(_read(args.graph))
    try:
        report = verify(a, s, g, spectrum_tol=args.tol)
    except DimensionMismatch as exc:
        # disagreeing documents are bad input for verify, not an infeasible solve
        raise InputError(str(exc)) from exc
    print(report.render())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def random_spectrum(
    rng: np.random.Generator,
    k: int,
    l: int,
    box: float = 5.0,
    min_gap: float = 0.5,
) -> Spectrum:
    """A random spectrum with all pairwise point distances at least ``min_gap``.

    Values are drawn uniformly from a fixed box and accepted by rejection.
    """
    if k < 0 or l < 0 or 2 * k + l < 1:
        raise ValueError("need 2k+l >= 1")
    # Drawn values are all that is checked and kept.  Conjugation keeps
    # distances, so a conjugate is as far from a real value or another
    # conjugate as its pair value is, and at least mu + mu' >= min_gap from
    # any pair value, its own included, as every mu is at least min_gap/2.
    points: list[complex] = []

    def place(draw, what: str) -> complex:
        for _attempt in range(10_000):
            c = draw()
            if not any(abs(c - q) < min_gap for q in points):
                points.append(c)
                return c
        raise InputError(f"could not place a {what}; box too crowded")

    reals = [place(lambda: complex(rng.uniform(-box, box)), "real spectrum value").real for _ in range(l)]
    pairs = [
        place(lambda: complex(rng.uniform(-box, box), rng.uniform(min_gap / 2.0, box)), "spectrum pair")
        for _ in range(k)
    ]
    return Spectrum(pairs=tuple((c.real, c.imag) for c in pairs), reals=tuple(reals))


def random_graph(
    rng: np.random.Generator, n: int, k: int, edge_prob: float
) -> Graph:
    """An undirected graph on n vertices with a planted matching of size k.

    k disjoint pairs from a random vertex permutation guarantee
    feasibility; every remaining vertex pair joins independently with
    probability ``edge_prob``.
    """
    if 2 * k > n:
        raise InputError(f"2k = {2 * k} exceeds n = {n}")
    if not 0.0 <= edge_prob <= 1.0:
        raise InputError("edge probability must be in [0, 1]")
    order = rng.permutation(n)
    pair = np.sort(order[: 2 * k].reshape(k, 2), axis=1)
    adj = np.zeros((n, n), dtype=bool)  # upper triangle, 0-based
    adj[pair[:, 0], pair[:, 1]] = True
    # one draw per unplanted pair a < b in row-major order; uniform(size=N)
    # yields the values of N scalar draws, so the stream is the pair loop's
    a, b = np.triu_indices(n, 1)
    free = ~adj[a, b]
    adj[a[free], b[free]] = rng.uniform(size=np.count_nonzero(free)) < edge_prob
    a, b = np.nonzero(adj)
    return make_graph(n, zip((a + 1).tolist(), (b + 1).tolist()), directed=False)


def _cmd_random_instance(args) -> int:
    n, k = args.n, args.k
    if n < 1 or k < 0 or 2 * k > n:
        raise InputError(f"invalid sizes: n={n}, k={k} (need 1 <= n and 2k <= n)")
    seed = args.rng_seed if args.rng_seed is not None else DEFAULT_SEED
    rng = np.random.default_rng(seed)
    # a fixed box gets too crowded for the minimum gap from n of about 24
    s = random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2))
    g = random_graph(rng, n, k, args.edge_prob)
    spectrum_path = f"{args.out_prefix}.spectrum"
    graph_path = f"{args.out_prefix}.graph"
    _write(spectrum_path, format_spectrum(s))
    _write(graph_path, format_graph(g))
    print(f"rng seed: {seed}")
    print(f"wrote {spectrum_path} and {graph_path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.

    Parsing leaves the parser unchanged, so every ``main`` call reuses it.
    """
    parser = _Parser(
        prog="giep",
        description=(
            "Construct real matrices with a prescribed spectrum and a "
            "prescribed off-diagonal zero pattern."
        ),
    )
    parser.add_argument("--version", action="version", version=f"giep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags solve and tridiagonalize share
    construct = argparse.ArgumentParser(add_help=False)
    construct.add_argument("--fill-scale", dest="fill_scale", type=float)
    construct.add_argument("--step-min", dest="step_min", type=float)
    construct.add_argument("--report", help="write a structured run report here")
    construct.add_argument("--mm-out", dest="mm_out", help="also export coordinate format")

    solve = sub.add_parser("solve", parents=[construct], help="solve a spectrum/graph instance")
    solve.add_argument("--spectrum", help="spectrum JSON file")
    solve.add_argument("--graph", help="edge-list graph file")
    solve.add_argument("--out", help="output matrix CSV")
    solve.add_argument("--mode", choices=MODES, default="generic")
    solve.add_argument("--batch", help="solve every *.spectrum/*.graph pair in a directory")
    solve.add_argument("--jobs", type=int, help="batch worker count")
    solve.set_defaults(func=_cmd_solve)

    tri = sub.add_parser(
        "tridiagonalize", parents=[construct], help="tridiagonal matrix similar to the input"
    )
    tri.add_argument("--matrix", required=True, help="input matrix CSV")
    tri.add_argument("--out", required=True, help="output matrix CSV")
    tri.set_defaults(func=_cmd_tridiagonalize)

    ver = sub.add_parser("verify", help="check a matrix against a spectrum and graph")
    ver.add_argument("--matrix", required=True)
    ver.add_argument("--spectrum", required=True)
    ver.add_argument("--graph", required=True)
    ver.add_argument("--tol", type=float, help="spectrum tolerance override")
    ver.set_defaults(func=_cmd_verify)

    rnd = sub.add_parser("random-instance", help="emit a random feasible instance")
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--k", type=int, required=True)
    rnd.add_argument("--edge-prob", dest="edge_prob", type=float, default=0.25)
    rnd.add_argument("--rng-seed", dest="rng_seed", type=int)
    rnd.add_argument("--out-prefix", dest="out_prefix", required=True)
    rnd.set_defaults(func=_cmd_random_instance)

    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, parsed by the named subcommand's own parser.

    The top-level parser hands every argument after the subcommand's name to
    that subcommand's parser, so only argv that names no subcommand (none,
    ``-h``, ``--version`` or an unknown word) needs the top-level parser.
    """
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Entry point; returns the process exit code.  For the call, the
    ``giep`` logger logs at GIEP_LOG's level to this call's stderr; after
    it, the logger has its own level and handlers back, so library calls
    that follow in the same process log as they did before."""
    giep_logger = logging.getLogger("giep")
    old_level, level = giep_logger.level, _log_level()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LOG_FORMAT)
    giep_logger.addHandler(handler)
    if old_level != level:  # setLevel clears every logger's cache
        giep_logger.setLevel(level)
    try:
        args = _parse_args(build_parser(), sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except _HANDLED as exc:
        code, label = _failure(exc)
        print(f"giep: {label}: {exc}", file=sys.stderr)
        return code
    finally:
        giep_logger.removeHandler(handler)
        if giep_logger.level != old_level:
            giep_logger.setLevel(old_level)


if __name__ == "__main__":
    sys.exit(main())

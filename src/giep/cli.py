"""Command-line interface: solve, tridiagonalize, verify, random-instance.

Exit codes are a total function of the error taxonomy:

* 0 — success (for ``verify``: both checks passed)
* 1 — bad input (unreadable or malformed files, invalid flags/sizes)
* 2 — infeasible instance (matching too small, dimension mismatch,
      repeated eigenvalues)
* 3 — numerical failure (step underflow, stalled Newton, singular or
      ill-conditioned systems)
* 4 — verification failure (``verify`` only)

The environment variable GIEP_LOG in {quiet, info, trace} controls
diagnostic verbosity on standard error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path

import numpy as np

from . import __version__
from .apps import solve_instance, tridiagonalize, verify
from .errors import (
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
from .solver import SolveReport, SolverConfig

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

logger = logging.getLogger("giep.cli")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors through the exit-code mapping."""

    def error(self, message):
        raise InputError(message)


def _configure_logging() -> None:
    level_name = os.environ.get("GIEP_LOG", "quiet").strip().lower()
    level = _LOG_LEVELS.get(level_name, logging.WARNING)
    root = logging.getLogger("giep")
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        root.addHandler(handler)
    root.setLevel(level)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _config_from_args(args) -> SolverConfig:
    """The solver configuration of the flags given; defaults for the rest."""
    fields = ("fill_scale", "tol_final", "max_steps", "step_min")
    return SolverConfig(**{f: getattr(args, f) for f in fields if getattr(args, f) is not None})


def format_report(report: SolveReport, n: int) -> str:
    """Structured-text run report for --report files."""
    lines = [
        "status: success",
        f"mode: {report.mode}",
        f"n: {n}",
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
    if getattr(args, "mm_out", None):
        _write(args.mm_out, format_matrix_market(report.matrix))
    if getattr(args, "report", None):
        _write(args.report, format_report(report, report.matrix.shape[0]))
    print(
        f"wrote {args.out}: n={report.matrix.shape[0]} steps={report.steps} "
        f"newton={report.newton_iterations_total} residual={report.final_residual:.3e}"
    )


def _cmd_solve(args) -> int:
    if args.batch:
        return _run_batch(args)
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


def _solve_batch_item(stem: str, directory: Path, args):
    """Solve one batch instance; returns (stem, exit_code, summary)."""
    try:
        s = parse_spectrum(_read(directory / f"{stem}.spectrum"))
        g = parse_graph(_read(directory / f"{stem}.graph"))
        report = solve_instance(s, g, args.mode, _config_from_args(args))
    except _HANDLED as exc:
        if isinstance(exc, StepUnderflow):
            return stem, EXIT_NUMERICAL, f"step underflow at t={exc.t_reached:.4g}"
        return stem, _failure(exc)[0], str(exc)
    _write(directory / f"{stem}.matrix.csv", format_matrix_csv(report.matrix))
    _write(directory / f"{stem}.report.txt", format_report(report, report.matrix.shape[0]))
    return stem, EXIT_OK, f"residual={report.final_residual:.3e}"


def _run_batch(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    directory = Path(args.batch)
    if not directory.is_dir():
        raise InputError(f"batch directory {directory} does not exist")
    stems = sorted(p.stem for p in directory.glob("*.spectrum"))
    stems = [st for st in stems if (directory / f"{st}.graph").exists()]
    if not stems:
        raise InputError(f"no <name>.spectrum/<name>.graph pairs in {directory}")
    jobs = args.jobs or min(8, os.cpu_count() or 1)
    results = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_solve_batch_item, st, directory, args) for st in stems]
        for fut in as_completed(futures):
            results.append(fut.result())
    results.sort()
    counts = {EXIT_OK: 0, EXIT_BAD_INPUT: 0, EXIT_INFEASIBLE: 0, EXIT_NUMERICAL: 0}
    for stem, code, summary in results:
        counts[code] += 1
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
    if g.n != a.shape[0] or s.n != a.shape[0]:
        # disagreeing documents are bad input for verify, not an infeasible solve
        raise InputError(
            f"matrix is {a.shape[0]}x{a.shape[0]}, graph has {g.n} vertices, "
            f"spectrum has {s.n} values"
        )
    report = verify(a, s, g, spectrum_tol=args.tol)
    print(report.render())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def random_spectrum(
    rng: np.random.Generator,
    k: int,
    l: int,
    box: float = 5.0,
    min_gap: float = 0.5,
    purely_imaginary: bool = False,
) -> Spectrum:
    """A random spectrum with all pairwise point distances at least ``min_gap``.

    Values are drawn uniformly from a fixed box and accepted by rejection.
    With ``purely_imaginary`` the pair real parts are 0 and every real
    value is 0 (at most one real is sensible then).
    """
    if k < 0 or l < 0 or 2 * k + l < 1:
        raise ValueError("need 2k+l >= 1")
    points: list[complex] = []

    def fits(cands: list[complex]) -> bool:
        for i, c in enumerate(cands):
            if any(abs(c - q) < min_gap for q in points):
                return False
            if any(abs(c - q) < min_gap for q in cands[:i]):
                return False
        return True

    reals = []
    for _ in range(l):
        for _attempt in range(10_000):
            gam = 0.0 if purely_imaginary else float(rng.uniform(-box, box))
            if fits([complex(gam)]):
                points.append(complex(gam))
                reals.append(gam)
                break
        else:
            raise InputError("could not place a real spectrum value; box too crowded")
    pairs = []
    for _ in range(k):
        for _attempt in range(10_000):
            lam = 0.0 if purely_imaginary else float(rng.uniform(-box, box))
            mu = float(rng.uniform(min_gap / 2.0, box))
            cand = [complex(lam, mu), complex(lam, -mu)]
            if fits(cand):
                points.extend(cand)
                pairs.append((lam, mu))
                break
        else:
            raise InputError("could not place a spectrum pair; box too crowded")
    return Spectrum(pairs=tuple(pairs), reals=tuple(reals))


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
    order = [int(v) + 1 for v in rng.permutation(n)]
    planted = {
        (min(a, b), max(a, b))
        for a, b in zip(order[0 : 2 * k : 2], order[1 : 2 * k : 2])
    }
    pairs = set(planted)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if (a, b) not in planted and rng.uniform() < edge_prob:
                pairs.add((a, b))
    return make_graph(n, sorted(pairs), directed=False)


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

    solve = sub.add_parser("solve", help="solve a spectrum/graph instance")
    solve.add_argument("--spectrum", help="spectrum JSON file")
    solve.add_argument("--graph", help="edge-list graph file")
    solve.add_argument("--out", help="output matrix CSV")
    solve.add_argument("--mode", choices=("generic", "symmetric", "skew"), default="generic")
    solve.add_argument("--fill-scale", dest="fill_scale", type=float)
    solve.add_argument("--tol", dest="tol_final", type=float, help="final spectrum tolerance")
    solve.add_argument("--max-steps", dest="max_steps", type=int)
    solve.add_argument("--step-min", dest="step_min", type=float)
    solve.add_argument("--report", help="write a structured run report here")
    solve.add_argument("--mm-out", dest="mm_out", help="also export coordinate format")
    solve.add_argument("--batch", help="solve every *.spectrum/*.graph pair in a directory")
    solve.add_argument("--jobs", type=int, help="batch worker count")
    solve.set_defaults(func=_cmd_solve)

    tri = sub.add_parser("tridiagonalize", help="tridiagonal matrix similar to the input")
    tri.add_argument("--matrix", required=True, help="input matrix CSV")
    tri.add_argument("--out", required=True, help="output matrix CSV")
    tri.add_argument("--fill-scale", dest="fill_scale", type=float)
    tri.add_argument("--tol", dest="tol_final", type=float)
    tri.add_argument("--max-steps", dest="max_steps", type=int)
    tri.add_argument("--step-min", dest="step_min", type=float)
    tri.add_argument("--report", help="write a structured run report here")
    tri.add_argument("--mm-out", dest="mm_out")
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

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _HANDLED as exc:
        code, label = _failure(exc)
        print(f"giep: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

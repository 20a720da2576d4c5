"""Seeded workloads of the giep benchmark and the passes that time them.

A workload builds a fixed set of instances from its seed in ``setup`` and
times one *pass* over them in ``run_pass``.  The run repeats whole passes
until its time is up, so every pass does identical work and counts taken
from a pass repeat exactly.  Each pass also gates correctness: every
success must pass ``verify`` (or ``giep verify`` must exit 0) and every
failure must be a typed ``NumericalError`` (exit code 3 through the CLI).
Anything else raises ``BenchmarkError`` and aborts the run.  Every call is
timed through the workload's ``clock.Clock``, which records its raw time
and its time normalized to the machine's reference speed.

Spectra come from ``cli.random_spectrum`` with a box that grows with n:
the default ``box=5`` leaves too little room for the real values, and
raises ``InputError: box too crowded`` from about n=24 with k=0 and at
n=40 with k=10.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from giep import apps, cli, errors, graph, model
from giep.solver import SolverConfig

from clock import Clock, Samples

GOLDEN = (5**0.5 - 1) / 2
VERIFY_REPEATS = 5


class BenchmarkError(Exception):
    """An outcome outside the program's contract; the run is void."""


def spectrum_box(n: int) -> float:
    return max(5.0, n / 2.0)


def random_instance(rng: np.random.Generator, n: int, k: int, edge_prob: float):
    s = cli.random_spectrum(rng, k, n - 2 * k, box=spectrum_box(n))
    return s, cli.random_graph(rng, n, k, edge_prob)


def warm_instance(seed: int):
    """The instance of the untimed warm-up solve, from its own stream of the seed."""
    return random_instance(np.random.default_rng([seed, 1]), 24, 6, 0.25)


def mixed_instances(rng: np.random.Generator, count: int, n_min: int, n_max: int):
    """Sizes cycle through [n_min, n_max]; k in [0, n/2] and edge probability
    in [0, 0.5) are spread evenly by a golden-ratio sequence with a seeded
    start.  Evenly spread sizes, k and densities keep the mix of cheap and
    expensive instances, and so the timings, nearly the same from seed to seed."""
    span = n_max - n_min + 1
    start_k, start_p = rng.uniform(size=2)
    out = []
    for i in range(count):
        n = n_min + i % span
        k = int((start_k + i * GOLDEN) % 1.0 * (n // 2 + 1))
        edge_prob = 0.5 * ((start_p + i * GOLDEN**2) % 1.0)
        out.append(random_instance(rng, n, k, edge_prob))
    return out


def gaussian_matrices(rng: np.random.Generator, count: int, n_min: int = 2, n_max: int = 24):
    span = n_max - n_min + 1
    return [rng.standard_normal((n_min + i % span,) * 2) for i in range(count)]


@dataclass
class PassResult:
    """Timings and outcomes of one pass; ``outcomes`` is (instance, "ok" or failure kind).
    ``wall`` and ``cpu`` leave out the time the clock spent probing."""

    wall: float = 0.0
    cpu: float = 0.0
    solve: Samples = field(default_factory=Samples)
    verify: Samples = field(default_factory=Samples)
    tridiag: Samples = field(default_factory=Samples)
    outcomes: list[tuple[str, str]] = field(default_factory=list)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``giep.cli.main(argv)`` with its output captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_outcome(code: int, err: str, what: str) -> str:
    """Map a CLI exit code to an outcome: 0 is a success, 3 a typed numerical failure."""
    if code == cli.EXIT_OK:
        return "ok"
    if code == cli.EXIT_NUMERICAL:
        return "numerical"
    raise BenchmarkError(f"{what} exited {code}: {err.strip()}")


class Workload:
    """``setup`` builds the instances from the seed, ``warm_up`` makes one
    call outside the measurements, and ``run_pass(observer)`` times one pass
    with ``clock``; ``observer`` is the traced run's ``SolverConfig.observer``,
    or None."""

    name = ""

    def __init__(self, seed: int, workdir: Path, clock: Clock | None = None):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock or Clock()

    def verify_cli(self, matrix: str, base: str, name: str, res: PassResult) -> None:
        """Time ``giep verify`` of ``matrix`` against ``<base>.spectrum``/``.graph``; it must pass."""
        with self.clock.timing(res.verify):
            code, _, err = run_cli(["verify", "--matrix", matrix, "--spectrum", f"{base}.spectrum",
                                    "--graph", f"{base}.graph"])
        if code != cli.EXIT_OK:
            raise BenchmarkError(f"{name}: giep verify exited {code}: {err.strip()}")


class LibraryWorkload(Workload):
    """Instances solved through ``apps.solve_instance`` and checked with ``apps.verify``."""

    fill_scale = 0.1

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.instances = self.generate(rng)
        self.warm = warm_instance(self.seed)

    def generate(self, rng):
        raise NotImplementedError

    def warm_up(self) -> None:
        self.solve(*self.warm, SolverConfig(), PassResult(), "warm-up")

    def run_pass(self, observer=None) -> PassResult:
        res = PassResult()
        for i, (s, g) in enumerate(self.instances):
            cfg = SolverConfig(fill_scale=self.fill_scale, observer=observer)
            self.solve(s, g, cfg, res, f"i{i}")
        return res

    def solve(self, s, g, cfg: SolverConfig, res: PassResult, name: str) -> None:
        """Time ``apps.solve_instance`` and, on success, ``apps.verify``."""
        try:
            with self.clock.timing(res.solve):
                report = apps.solve_instance(s, g, cfg=cfg)
        except errors.NumericalError as exc:
            res.outcomes.append((name, type(exc).__name__))
            return
        # A large_sparse pass has only five solves; repeating the check gives
        # verify_s_p50 enough samples to be steady.
        for _ in range(VERIFY_REPEATS):
            with self.clock.timing(res.verify):
                passed = apps.verify(report.matrix, s, g).passed
            if not passed:
                raise BenchmarkError(f"{name}: solver returned a matrix that fails verify")
        res.outcomes.append((name, "ok"))


class LargeSparse(LibraryWorkload):
    name = "large_sparse"
    n = 160
    count = 5

    def generate(self, rng):
        return [random_instance(rng, self.n, self.n // 4, 4.0 / self.n) for _ in range(self.count)]


class FillStress(LibraryWorkload):
    """Run by hand for its counts; its timings vary too much between seeds
    to be gated (see NOTES.md)."""

    name = "fill_stress"
    fill_scale = 1.5
    count = 60

    def generate(self, rng):
        return mixed_instances(rng, self.count, 8, 24)


def write_instance(base: Path, s, g) -> str:
    """Write ``<base>.spectrum`` and ``<base>.graph``; returns ``base`` as a string."""
    Path(f"{base}.spectrum").write_text(model.format_spectrum(s), encoding="utf-8")
    Path(f"{base}.graph").write_text(graph.format_graph(g), encoding="utf-8")
    return str(base)


class SmallCli(Workload):
    """solve then verify through ``cli.main`` per instance, then tridiagonalize + verify."""

    name = "small_cli"
    count = 150
    tridiag_count = 25

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        d = self.workdir
        self.solves = [
            write_instance(d / f"s{i}", s, g)
            for i, (s, g) in enumerate(mixed_instances(rng, self.count, 2, 24))
        ]
        self.tridiags = []
        for i, a in enumerate(gaussian_matrices(rng, self.tridiag_count)):
            s = model.Spectrum.from_eigenvalues(np.linalg.eigvals(a))
            base = write_instance(d / f"t{i}", s, apps.path_graph(a.shape[0]))
            Path(f"{base}.csv").write_text(model.format_matrix_csv(a), encoding="utf-8")
            self.tridiags.append(base)
        self.warm = write_instance(d / "warm", *warm_instance(self.seed))

    def warm_up(self) -> None:
        res = PassResult()
        self._solve(self.warm, "warm-up", res)
        self._tridiagonalize(self.tridiags[-1], "warm-up", res)

    def _solve(self, base: str, name: str, res: PassResult) -> None:
        args = ["solve", "--spectrum", f"{base}.spectrum", "--graph", f"{base}.graph"]
        self._construct(args, base, name, res.solve, res)

    def _tridiagonalize(self, base: str, name: str, res: PassResult) -> None:
        self._construct(["tridiagonalize", "--matrix", f"{base}.csv"], base, name, res.tridiag, res)

    def _construct(self, args: list[str], base: str, name: str, samples: Samples, res: PassResult) -> None:
        """Time ``giep <args> --out <base>.out.csv`` into ``samples``, then verify a success."""
        out = f"{base}.out.csv"
        Path(out).unlink(missing_ok=True)
        with self.clock.timing(samples):
            code, _, err = run_cli([*args, "--out", out])
        outcome = cli_outcome(code, err, f"{name}: giep {args[0]}")
        if outcome == "ok":
            self.verify_cli(out, base, name, res)
        res.outcomes.append((name, outcome))

    def run_pass(self, observer=None) -> PassResult:
        res = PassResult()
        for i, base in enumerate(self.solves):
            self._solve(base, f"s{i}", res)
        for i, base in enumerate(self.tridiags):
            self._tridiagonalize(base, f"t{i}", res)
        return res


class BatchJobs2(Workload):
    """One ``giep solve --batch DIR --jobs 2`` per pass, then ``giep verify`` of
    every output.  Run by hand: its two threads make it too sensitive to the
    machine's other load to be gated (see NOTES.md)."""

    name = "batch_jobs2"
    count = 150

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.batch_dir = self.workdir / "batch"
        self.batch_dir.mkdir(exist_ok=True)
        self.stems = [f"b{i:04d}" for i in range(self.count)]
        for stem, (s, g) in zip(self.stems, mixed_instances(rng, self.count, 2, 24)):
            write_instance(self.batch_dir / stem, s, g)
        self.warm_dir = self.workdir / "warm"
        self.warm_dir.mkdir(exist_ok=True)
        write_instance(self.warm_dir / "w", *warm_instance(self.seed))

    def warm_up(self) -> None:
        code, _, err = run_cli(["solve", "--batch", str(self.warm_dir), "--jobs", "2"])
        cli_outcome(code, err, "warm-up batch")

    def run_pass(self, observer=None) -> PassResult:
        res = PassResult()
        for stem in self.stems:
            (self.batch_dir / f"{stem}.matrix.csv").unlink(missing_ok=True)
        with self.clock.timing(res.solve):
            code, out, err = run_cli(["solve", "--batch", str(self.batch_dir), "--jobs", "2"])
        cli_outcome(code, err, "giep solve --batch")
        status = {}
        for line in out.splitlines():
            stem, sep, rest = line.partition(": ")
            if sep and stem in self.stems:
                status[stem] = rest.split(" ", 1)[0]
        if sorted(status) != self.stems:
            raise BenchmarkError("batch output does not list every instance")
        for stem in self.stems:
            base = str(self.batch_dir / stem)
            if status[stem] == "ok":
                self.verify_cli(f"{base}.matrix.csv", base, stem, res)
            elif status[stem] != "numerical":
                raise BenchmarkError(f"{stem}: batch status {status[stem]!r}")
            res.outcomes.append((stem, status[stem]))
        return res


WORKLOADS = {w.name: w for w in (SmallCli, LargeSparse, FillStress, BatchJobs2)}

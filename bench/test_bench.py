"""Tests of the benchmark itself:  python3 -m pytest bench

The traced-run tests start ``bench/run.py`` in a subprocess, as the
benchmark is meant to be run, and take about half a minute together.
"""

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from clock import Clock, Samples  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _traced(seed):
    out = _run("--workload", "small_cli", "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    return report, {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced_runs():
    return _traced(3), _traced(3)


def test_generators_repeat_for_a_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        return workloads.mixed_instances(rng, 30, 2, 24), workloads.gaussian_matrices(rng, 5)

    (a, ma), (b, mb), (c, _) = draw(7), draw(7), draw(8)
    assert a == b
    assert all(np.array_equal(x, y) for x, y in zip(ma, mb))
    assert a != c


def test_large_instances_fit_the_grown_box():
    rng = np.random.default_rng(0)
    s, g = workloads.LargeSparse(0, ROOT).generate(rng)[0]
    assert (s.n, s.k, g.n) == (160, 40, 160)


def test_restore_puts_back_every_original():
    modules = {name: importlib.import_module(name) for name, _, _ in tracing.WRAPS}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.WRAPS}
    config = modules["giep.cli"].SolverConfig
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(modules[m], a) is not f for (m, a), f in before.items())
    finally:
        tracer.restore()
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())
    assert modules["giep.cli"].SolverConfig is config


def test_spans_nest_and_self_time_excludes_children():
    apps = importlib.import_module("giep.apps")
    s, g = workloads.random_instance(np.random.default_rng(1), 8, 2, 0.3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        apps.solve_instance(s, g)
    finally:
        tracer.restore()
    top = [sp for sp in tracer.spans if sp.parent is None]
    assert [sp.name for sp in top] == ["apps.solve_instance"]
    wall = top[0].end - top[0].start
    assert sum(tracing.self_times(tracer.spans).values()) == pytest.approx(wall, rel=1e-9)


def test_layer_self_times_fit_in_traced_wall(traced_runs):
    (_, metrics), _ = traced_runs
    self_time = sum(metrics[k] for k in run.LAYER_TIMES)
    assert 0.0 < self_time <= metrics["trace.pass_wall_s"]


def test_counts_and_outcomes_repeat_across_traced_runs(traced_runs):
    (rep_a, a), (rep_b, b) = traced_runs
    counts = run.COUNT_METRICS
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["solver.accepted_steps"] > 0 and a["linalg.eigen_triple_calls"] > 0
    assert rep_a["outcome_digest"] == rep_b["outcome_digest"]
    assert rep_a["counts_repeat"] and rep_b["counts_repeat"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "small_cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_clock_restores_the_alarm_handler_and_timer():
    before = signal.getsignal(signal.SIGALRM)
    clock = Clock()
    with clock.sampling():
        _busy(0.35)
    assert len(clock.probes) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timed_call_leaves_out_the_probes_run_inside_it():
    clock = Clock()
    samples = Samples()
    with clock.sampling():
        with clock.timing(samples):
            probe_s = clock.probe_s
            start = time.perf_counter()
            _busy(0.35)
            body_s = time.perf_counter() - start
            inside_s = clock.probe_s - probe_s
    assert inside_s > 0.0
    assert samples.raw == [pytest.approx(body_s - inside_s, abs=1e-3)]
    assert samples.scaled[0] > 0.0

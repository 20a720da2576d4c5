"""Guard for what the benchmark uses of giep.

The traced run (``bench/tracing.py``) wraps giep module attributes by name
and passes an observer through ``giep.cli.SolverConfig``, and the gated
workloads (``bench/workloads.py``) drive the library and the CLI.  A
change in ``src/`` that breaks either would otherwise surface only in the
slower benchmark suite.
"""

import contextlib
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from giep import errors

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name: str):
    """``bench/<name>.py`` imported as ``giep_bench_<name>``; the benchmark's
    own modules import each other from that directory."""
    spec = importlib.util.spec_from_file_location(f"giep_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_bench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    return load_bench_module("workloads")


class UntimedClock:
    """Stands in for the benchmark's ``clock.Clock``: takes no speed probes."""

    @contextlib.contextmanager
    def timing(self, samples):
        yield


@pytest.mark.parametrize("name", ["small_cli", "large_sparse"])
def test_gated_workload_passes_its_gates(workloads, name, tmp_path):
    """One untimed pass of a gated workload: ``run_pass`` raises
    BenchmarkError unless every success verifies and every failure is a
    typed NumericalError (exit code 3 through the CLI)."""
    wl = workloads.WORKLOADS[name](1, tmp_path, UntimedClock())
    wl.setup()
    wl.warm_up()
    outcomes = [outcome for _, outcome in wl.run_pass().outcomes]
    assert outcomes
    assert all(
        o in ("ok", "numerical") or issubclass(getattr(errors, o), errors.NumericalError)
        for o in outcomes
    )


def test_every_wrapped_attribute_resolves(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_solve_instance_calls_each_traced_layer_once(tracing):
    """The per-layer split times matching, relabeling and continuation
    through separate ``giep.apps`` attributes; a solve that merged or
    bypassed one of them would leave its layer's time at zero."""
    from giep import apps
    from giep.cli import random_graph, random_spectrum

    rng = np.random.default_rng(5)
    s = random_spectrum(rng, 2, 3)
    g = random_graph(rng, 7, 2, 0.4)
    attrs = ("solve_instance", "max_matching", "plan_relabeling", "continuation_solve")
    originals = [getattr(apps, attr) for attr in attrs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        apps.solve_instance(s, g)
    finally:
        tracer.restore()
    assert [getattr(apps, attr) for attr in attrs] == originals
    names = [span.name for span in tracer.spans]
    for layer in ("graph.max_matching", "graph.plan_relabeling", "solver.continuation"):
        assert names.count(layer) == 1, layer


def test_cli_solver_config_takes_an_observer(tracing):
    cli = importlib.import_module("giep.cli")
    tracer = tracing.Tracer()
    assert cli.SolverConfig(observer=tracer.observer).observer == tracer.observer


def test_observer_records_newton_count_of_every_accepted_step(tracing):
    # the traced run reads state.t and state.history[-1].newton_iterations;
    # fill three radii wide makes this seed take several steps
    from giep import SolverConfig, solve_instance
    from giep.cli import random_graph, random_spectrum

    tracer = tracing.Tracer()
    rng = np.random.default_rng(2)
    s = random_spectrum(rng, 3, 4)
    g = random_graph(rng, 10, 3, 0.3)
    report = solve_instance(s, g, cfg=SolverConfig(fill_scale=3.0, observer=tracer.observer))
    assert report.steps > 1
    assert tracer.newton_per_step == [rec.newton_iterations for rec in report.history[1:]]

"""Guard for the names the benchmark's traced run looks up in giep.

The traced run (``bench/tracing.py``) wraps giep module attributes by name
and passes an observer through ``giep.cli.SolverConfig``.  A rename in
``src/`` would otherwise surface only in the slower benchmark suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("giep_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


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

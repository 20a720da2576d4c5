"""Guard for the names the benchmark's traced run looks up in giep.

The traced run (``bench/tracing.py``) wraps giep module attributes by name
and passes an observer through ``giep.cli.SolverConfig``.  A rename in
``src/`` would otherwise surface only in the slower benchmark suite.
"""

import importlib
import importlib.util
from pathlib import Path

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

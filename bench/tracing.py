"""Span tracing for the traced benchmark run, applied from outside the package.

``Tracer.install`` replaces the module attributes that giep's modules call
into (for example ``giep.solver.eig_all``) with wrappers that record one
span per call: name, call site, start, end, parent span, thread and the
exception that ended it, if any.  Modules bind their imports with
``from .x import y``, so each call site is its own attribute and is wrapped
separately; the span name carries the layer that owns the function.
``restore`` puts every original object back.

Spans stay in memory and are written out once, when the run ends.  A
span's self time is its duration minus the durations of its direct
children, which run on the same thread and nest inside it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (module, attribute, span name).  The span name is <layer>.<function>, where
# the layer is the giep module that defines the function.
WRAPS = (
    ("giep.cli", "main", "cli.main"),
    ("giep.cli", "build_parser", "cli.parse"),
    ("giep.cli", "parse_spectrum", "cli.parse"),
    ("giep.cli", "parse_graph", "cli.parse"),
    ("giep.cli", "parse_matrix_csv", "cli.parse"),
    ("giep.cli", "format_matrix_csv", "cli.format"),
    ("giep.cli", "format_report", "cli.format"),
    ("giep.cli", "solve_instance", "apps.solve_instance"),
    ("giep.cli", "tridiagonalize", "apps.tridiagonalize"),
    ("giep.cli", "verify", "apps.verify"),
    ("giep.apps", "solve_instance", "apps.solve_instance"),
    ("giep.apps", "verify", "apps.verify"),
    ("giep.apps", "max_matching", "graph.max_matching"),
    ("giep.apps", "plan_relabeling", "graph.plan_relabeling"),
    ("giep.apps", "continuation_solve", "solver.continuation"),
    ("giep.apps", "eig_all", "linalg.eig_all"),
    ("giep.apps", "spectrum_mismatch", "model.spectrum_mismatch"),
    ("giep.solver", "eig_all", "linalg.eig_all"),
    ("giep.solver", "eigen_triple", "linalg.eigen_triple"),
    ("giep.solver", "solve_linear", "linalg.solve_linear"),
    ("giep.solver", "jacobian_xyz", "solver.jacobian_xyz"),
    ("giep.solver", "assemble", "model.assemble"),
    ("giep.solver", "label_eigenvalues", "model.label_eigenvalues"),
    ("giep.solver", "spectrum_mismatch", "model.spectrum_mismatch"),
)


class Span(NamedTuple):
    id: int
    name: str
    site: str
    parent: int | None
    thread: int
    start: float
    end: float
    error: str | None


class Tracer:
    """Spans and accepted-step events of a traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.newton_per_step: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def install(self) -> None:
        """Wrap every WRAPS attribute and make the CLI's solver configs report steps."""
        for module_name, attr, name in WRAPS:
            self._wrap(importlib.import_module(module_name), attr, name)
        cli = importlib.import_module("giep.cli")
        self._patch(cli, "SolverConfig", functools.partial(cli.SolverConfig, observer=self.observer))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        site = f"{module.__name__}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, site, parent, threading.get_ident(), start, end, error)
                )

        self._patch(module, attr, traced)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def observer(self, state, eigs) -> None:
        """``SolverConfig.observer``: records each accepted continuation step.

        The solver also reports its seed state (t = 0), which is skipped.
        Failed solves report their accepted steps before they raise.
        ``list.append`` is atomic, so batch worker threads may share it.
        """
        if state.t > 0.0:
            self.newton_per_step.append(state.history[-1].newton_iterations)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += (s.end - s.start) - child_time[s.id]
    return dict(totals)


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")

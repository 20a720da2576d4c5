"""giep benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload small_cli --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
The line before it is a JSON report with the environment, the outcome
digest, the raw times and the metrics that apply to only some workloads.
End-to-end times are normalized to a reference machine speed (clock.py).
See NOTES.md.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["GIEP_LOG"] = "quiet"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
from clock import Clock, Samples

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "verify_s_p50": "s",
    "instances_per_s": "1/s",
    "success_frac": "fraction",
    "peak_rss_mb": "MB",
}

LAYER_TIMES = {
    "linalg.eig_all_s": "linalg.eig_all",
    "linalg.eigen_triple_s": "linalg.eigen_triple",
    "linalg.solve_linear_s": "linalg.solve_linear",
    "solver.jacobian_xyz_s": "solver.jacobian_xyz",
    "solver.continuation_self_s": "solver.continuation",
    "model.assemble_s": "model.assemble",
    "model.label_eigenvalues_s": "model.label_eigenvalues",
    "model.spectrum_mismatch_s": "model.spectrum_mismatch",
    "graph.max_matching_s": "graph.max_matching",
    "graph.plan_relabeling_s": "graph.plan_relabeling",
    "apps.solve_instance_self_s": "apps.solve_instance",
    "apps.tridiagonalize_self_s": "apps.tridiagonalize",
    "apps.verify_self_s": "apps.verify",
    "cli.main_self_s": "cli.main",
    "cli.parse_s": "cli.parse",
    "cli.format_s": "cli.format",
}
LAYER_CALLS = {
    "linalg.eig_all_calls": "linalg.eig_all",
    "linalg.eigen_triple_calls": "linalg.eigen_triple",
    "linalg.solve_linear_calls": "linalg.solve_linear",
    "solver.jacobian_xyz_calls": "solver.jacobian_xyz",
}
COUNT_METRICS = (*LAYER_CALLS, "solver.accepted_steps", "solver.newton_iterations", "model.disc_violations")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def outcome_digest(outcomes: list[tuple[str, str]]) -> str:
    text = "\n".join(f"{name}:{outcome}" for name, outcome in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def layer_metrics(spans, newton_per_step) -> dict:
    """Per-layer metrics of one traced pass."""
    times = tracing.self_times(spans)
    calls = Counter(s.name for s in spans)
    out = {metric: times.get(name, 0.0) for metric, name in LAYER_TIMES.items()}
    out.update({metric: calls.get(name, 0) for metric, name in LAYER_CALLS.items()})
    solver_eigs = sum(1 for s in spans if s.site == "giep.solver.eig_all")
    out["solver.accepted_steps"] = len(newton_per_step)
    out["solver.newton_iterations"] = sum(newton_per_step)
    out["model.disc_violations"] = sum(
        1 for s in spans if s.name == "model.label_eigenvalues" and s.error == "DiscViolation"
    )
    out["solver.accepted_per_eig"] = len(newton_per_step) / solver_eigs if solver_eigs else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "giep" / "__init__.py").is_file():
        print(f"bench: no giep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import giep
    import workloads

    if Path(giep.__file__).resolve().parent != SRC / "giep":
        print(f"bench: imported giep from {giep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_imports(clock: Clock) -> Samples:
    """Wall times of fresh interpreters each importing giep."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = Samples()
    for _ in range(SETUP_REPEATS):
        with clock.timing(times):
            subprocess.run([sys.executable, "-c", "import giep"], env=env, check=True)
    return times


def call_seconds(p) -> float:
    """Total normalized time of the timed calls of pass ``p``."""
    return sum(sum(samples.scaled) for samples in (p.solve, p.verify, p.tridiag))


def measure(args, workloads, workdir: Path) -> int:
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    tracer = tracing.Tracer() if args.trace else None
    clock = Clock()
    passes, traced_passes = [], []
    try:
        with clock.sampling():
            imports = time_imports(clock)
            setups = Samples()
            for _ in range(SETUP_REPEATS):
                with clock.timing(setups):
                    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, clock)
                    wl.setup()
                    wl.warm_up()

            # Untraced and traced passes alternate in a traced run.
            start = time.perf_counter()
            while True:
                traced = tracer is not None and len(passes) % 2 == 1
                if traced:
                    first_span, first_step = len(tracer.spans), len(tracer.newton_per_step)
                    tracer.install()
                wall0, cpu0, probe0 = time.perf_counter(), time.process_time(), clock.probe_s
                try:
                    # Traced passes take no timer probes, which would land in spans.
                    with clock.paused() if traced else contextlib.nullcontext():
                        res = wl.run_pass(tracer.observer if traced else None)
                finally:
                    if traced:
                        tracer.restore()
                probe_s = clock.probe_s - probe0
                res.wall = time.perf_counter() - wall0 - probe_s
                res.cpu = time.process_time() - cpu0 - probe_s
                passes.append(res)
                if traced:
                    layers = layer_metrics(tracer.spans[first_span:], tracer.newton_per_step[first_step:])
                    traced_passes.append((res, layers))
                if time.perf_counter() - start >= args.seconds and (tracer is None or traced_passes):
                    break
            if any(p.outcomes != passes[0].outcomes for p in passes):
                raise workloads.BenchmarkError("instance outcomes differ between passes")
    except workloads.BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        report["error"] = str(exc)
        print(json.dumps({"report": report}))
        attempted = max(1, sum(len(p.outcomes) for p in passes))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1

    outcomes = passes[0].outcomes
    per_pass_failed = sum(1 for _, o in outcomes if o != "ok")
    attempted = len(outcomes) * len(passes)
    failed = per_pass_failed * len(passes)
    # Gated times are normalized to the clock's reference speed; see clock.py.
    solve = [t for p in passes for t in p.solve.scaled]
    verify = [t for p in passes for t in p.verify.scaled]
    tridiag = [t for p in passes for t in p.tridiag.scaled]
    report.update({
        "passes": len(passes),
        "instances_per_pass": len(outcomes),
        "outcome_digest": outcome_digest(outcomes),
        "fail_frac": {"value": per_pass_failed / len(outcomes), "unit": "fraction"},
        "failure_kinds": sorted({o for _, o in outcomes if o != "ok"}),
        "samples": {"solve": len(solve), "verify": len(verify), "tridiag": len(tridiag)},
        "setup": {"import_s": imports.scaled, "repeats_s": setups.scaled},
        "probe": {"count": len(clock.probes), "median_s": statistics.median(clock.probes),
                  "total_s": clock.probe_s},
    })
    # Reported where they apply, not gated: see NOTES.md.
    if len(solve) >= 100:
        p90 = statistics.quantiles(solve, n=10, method="inclusive")[8]
        report["solve_s_p90"] = {"value": p90, "unit": "s"}
    if tridiag:
        report["tridiag_s_p50"] = {"value": statistics.median(tridiag), "unit": "s"}

    if tracer is None:
        report["raw"] = {
            "setup_s": statistics.median(imports.raw) + statistics.median(setups.raw),
            "solve_s_p50": statistics.median(t for p in passes for t in p.solve.raw),
            "verify_s_p50": statistics.median(t for p in passes for t in p.verify.raw),
            "instances_per_s": statistics.median(len(outcomes) / p.wall for p in passes),
        }
        metrics = {
            "setup_s": statistics.median(imports.scaled) + statistics.median(setups.scaled),
            "solve_s_p50": statistics.median(solve),
            "verify_s_p50": statistics.median(verify),
            "instances_per_s": statistics.median(
                len(outcomes) / call_seconds(p) for p in passes),
            "success_frac": 1.0 - per_pass_failed / len(outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = traced_metrics(passes, traced_passes)
        report["counts_repeat"] = all(
            {k: v for k, v in m.items() if k in COUNT_METRICS}
            == {k: v for k, v in traced_passes[0][1].items() if k in COUNT_METRICS}
            for _, m in traced_passes
        )
        spans_path = WORK / f"spans-{args.workload}.jsonl"
        tracing.write_spans(tracer.spans, spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["span_count"] = len(tracer.spans)

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(passes, traced_passes):
    """Per-layer metrics per traced pass: times averaged, counts from the first pass."""
    untraced = [p for i, p in enumerate(passes) if i % 2 == 0]
    n = len(traced_passes)
    metrics = {}
    for key in traced_passes[0][1]:
        if key in COUNT_METRICS:
            metrics[key] = traced_passes[0][1][key]
        else:
            metrics[key] = sum(m[key] for _, m in traced_passes) / n
    untraced_wall = sum(p.wall for p in untraced) / len(untraced)
    traced_wall = sum(p.wall for p, _ in traced_passes) / n
    metrics["cli.batch_cpu_per_wall"] = sum(p.cpu for p in untraced) / sum(p.wall for p in untraced)
    metrics["trace.pass_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    units = {k: ("count" if k in COUNT_METRICS else "s" if k.endswith("_s") else "ratio") for k in metrics}
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())

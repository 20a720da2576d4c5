"""The package root exports exactly what users call, and README's Library
example runs against it."""

import re
from pathlib import Path

import giep

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    # inputs
    "Spectrum", "Graph", "make_graph", "parse_graph", "parse_spectrum",
    # calls and their types
    "SolverConfig", "SolveReport", "VerificationReport",
    "solve_instance", "tridiagonalize", "verify",
    # error roots of the exit codes, and the one that carries t_reached
    "GiepError", "InputError", "InfeasibleError", "NumericalError", "StepUnderflow",
}


def test_root_exports_exactly_the_public_names():
    assert sorted(giep.__all__) == sorted(PUBLIC)
    for name in giep.__all__:
        assert getattr(giep, name).__module__.startswith("giep.")


def readme_library() -> str:
    return README.read_text(encoding="utf-8").split("## Library", 1)[1].split("\n## ", 1)[0]


def test_readme_library_lists_every_export():
    listed = set(re.findall(r"`(\w+)`", readme_library()))
    assert PUBLIC <= listed


def test_readme_library_example_runs():
    code = re.search(r"```python\n(.*?)```", readme_library(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})

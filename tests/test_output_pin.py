"""Exact-output pins: sha256 digests of the bytes of solved matrices.

Every output must stay bitwise identical across refactors of the matching,
relabeling and continuation layers.  Each group below solves a fixed,
seeded set of instances and hashes, per instance, the output matrix's
float64 bytes, or the type and message of the typed failure it raised.
The digests were taken with numpy 2.4 and its bundled OpenBLAS; another
LAPACK build may round differently and move them.  They also depend on the
CPU kernel OpenBLAS picks at run time, so each group holds one digest per
kernel, selected by ``conftest.openblas_corename()``: the default
(SkylakeX) kernel of an AVX-512 machine, and the Haswell, Sandybridge and
Prescott kernels as forced through OPENBLAS_CORETYPE on that machine.  A
kernel without a digest fails every pin, naming the kernel; the CLI byte
pin in test_cli_bytes.py is kept the same way.  ``numpy.show_config()``
names the BLAS build; compare builds and kernels before suspecting the code
when a pin fails on another machine.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from giep import Spectrum, make_graph, solve_instance, tridiagonalize
from giep.cli import random_graph, random_spectrum
from giep.errors import GiepError
from conftest import kernel_pin, openblas_corename


def digest(runs) -> str:
    """sha256 over each run's output matrix bytes, or its failure's type and message."""
    h = hashlib.sha256()
    for run in runs:
        try:
            m = run()
        except GiepError as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
        else:
            h.update(np.ascontiguousarray(m, dtype=float).tobytes())
    return h.hexdigest()


def spectrum_for(rng, n: int, k: int) -> Spectrum:
    return random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2))


def solved(s, g, mode="generic"):
    return lambda: solve_instance(s, g, mode).matrix


def random_runs():
    """n from 2 to 24 through the CLI's generators, all three modes."""
    rng = np.random.default_rng(2024)
    for n in range(2, 25):
        for mode in ("generic", "generic", "skew"):
            k = int(rng.integers(0, n // 2 + 1))
            s = spectrum_for(rng, n, k)
            yield solved(s, random_graph(rng, n, k, float(rng.uniform(0.05, 0.6))), mode)


def directed_runs():
    """A planted bidirected matching plus one-way edges: the one-way edges
    keep their direction, and those whose reverse is drawn too become
    bidirected slots."""
    rng = np.random.default_rng(2025)
    for n in range(2, 25):
        k = int(rng.integers(0, n // 2 + 1))
        s = spectrum_for(rng, n, k)
        order = (rng.permutation(n) + 1).tolist()
        edges = set()
        for a, b in zip(order[0 : 2 * k : 2], order[1 : 2 * k : 2]):
            edges.update({(a, b), (b, a)})
        prob = float(rng.uniform(0.05, 0.4))
        edges.update(
            (a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b and rng.uniform() < prob
        )
        yield solved(s, make_graph(n, sorted(edges), directed=True))


def blossom_runs():
    """Chains of odd cycles on shuffled labels with random chords: the
    greedy pass leaves exposed vertices whose augmenting paths cross
    blossoms.  k is the sum of (c - 1)/2 over the cycles, which the cycles
    alone can host, or n // 2, which may fail with MatchingTooSmall."""
    rng = np.random.default_rng(2026)
    for case in range(24):
        n = int(rng.integers(3, 25))
        order = (rng.permutation(n) + 1).tolist()
        edges, start, k = set(), 0, 0
        while n - start >= 3:
            size = int(rng.choice([3, 5, 7]))
            if size > n - start:
                size = 3
            cycle = order[start : start + size]
            edges.update(frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1]))
            if start:
                edges.add(frozenset((order[start - 1], cycle[0])))
            start += size
            k += (size - 1) // 2
        for _ in range(int(rng.integers(0, n + 1))):
            a, b = (int(v) + 1 for v in rng.choice(n, 2, replace=False))
            edges.add(frozenset((a, b)))
        g = make_graph(n, sorted(tuple(sorted(e)) for e in edges))
        k = k if case % 2 else n // 2
        yield solved(spectrum_for(rng, n, k), g)


def corner_runs():
    """k = 0, and graphs whose only edges form the matching (m = 0)."""
    rng = np.random.default_rng(2027)
    for n in (2, 5, 9, 16, 24):
        yield solved(spectrum_for(rng, n, 0), random_graph(rng, n, 0, 0.3))
        k = n // 2
        yield solved(spectrum_for(rng, n, k), random_graph(rng, n, k, 0.0))


def tridiagonalize_runs():
    rng = np.random.default_rng(2028)
    for n in range(2, 12):
        a = rng.standard_normal((n, n))
        yield lambda a=a: tridiagonalize(a).matrix


# per group, the digest for each OpenBLAS kernel, by the name
# conftest.openblas_corename() reports: SkylakeX is an AVX-512 machine's
# default; the others were recorded on that machine under
# OPENBLAS_CORETYPE=Haswell (Zen reports Haswell too), Sandybridge and
# Prescott, which reports Katmai
PINS = {
    "random": (random_runs, {
        "SkylakeX": "ce441053eca910a2ad73696af099490bf4228c7dc79fe24c55254b00796538bc",
        "Haswell": "a337f35c919f93e180ac0a878a72658c014c2fad22843736f3d3cdabdcd59ed7",
        "Sandybridge": "73c5441c273b07c67cb6c6a2625faf06d63c398af740705c52bf619240be6a05",
        "Katmai": "73c5441c273b07c67cb6c6a2625faf06d63c398af740705c52bf619240be6a05",
    }),
    "directed": (directed_runs, {
        "SkylakeX": "fc5a75bf22c5029e5394f06f814d9ea6730f37699864a22564c57bc9c5144a67",
        "Haswell": "0ce07873d6bb48b2ee29688094db8d1170de4f182484d5d2d0cce1b8a9635569",
        "Sandybridge": "63b0a134da6dd6a04ff567520fcc830ba20b1bb244ca4258445107b419b0edad",
        "Katmai": "63b0a134da6dd6a04ff567520fcc830ba20b1bb244ca4258445107b419b0edad",
    }),
    "blossom": (blossom_runs, {
        "SkylakeX": "a0e6a08bd4e7957a4bab151150797059a9776af556fe505990f3461b175a3786",
        "Haswell": "12d8e3af6b691c3f958c738405dd0407e994a8ad11beff01b88a09dbc2bcc626",
        "Sandybridge": "ff02c83fa7f16248c465c8920ccb26fec200e157ccb45ec5513eb4e21db8c08e",
        "Katmai": "ff02c83fa7f16248c465c8920ccb26fec200e157ccb45ec5513eb4e21db8c08e",
    }),
    "corner": (corner_runs, {
        "SkylakeX": "eccc2c21a07f49cda777e8c790fdb0db3f8e26d31d3c716b6be3f6760eaec46d",
        "Haswell": "80a0048f9b9652f357f8e688c4a96b4ead8033f6dddf0a8e768c5a0ccf5e5099",
        "Sandybridge": "63d1663ea5f1a8d4d95cae5ce30e2b031281364ea4cf414c0fe7460d25cdd54a",
        "Katmai": "63d1663ea5f1a8d4d95cae5ce30e2b031281364ea4cf414c0fe7460d25cdd54a",
    }),
    "tridiagonalize": (tridiagonalize_runs, {
        "SkylakeX": "9ba3f4fb1a4c5ccb0ce54f5c683bc8e5d242bd643e0a6e4bb75f3cb0bd7d7016",
        "Haswell": "991e4d22c5b307ca17af0ed503e24aa1e962dec221adffc2c0832bcfe7f6bb24",
        "Sandybridge": "53284899054f3a6d228044ca014eadb356a1b41eafd3bd6929a68b4762db2a8a",
        "Katmai": "53284899054f3a6d228044ca014eadb356a1b41eafd3bd6929a68b4762db2a8a",
    }),
}


@pytest.mark.parametrize("group", sorted(PINS))
def test_outputs_are_bitwise_pinned(group):
    runs, pins = PINS[group]
    assert digest(runs()) == kernel_pin(pins), f"OpenBLAS kernel {openblas_corename()}"


def test_openblas_corename_names_the_forced_kernel():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "from conftest import openblas_corename; print(openblas_corename())"
    forced = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert forced in ("Haswell", "unknown")
    assert (forced == "unknown") == (openblas_corename() == "unknown")
    assert openblas_corename("no_such_symbol") == "unknown"


def test_a_kernel_without_a_pin_fails_naming_it():
    with pytest.raises(AssertionError, match=f"no pin for OpenBLAS kernel {openblas_corename()}"):
        kernel_pin({"NoSuchKernel": "0" * 64})

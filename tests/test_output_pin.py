"""Exact-output pins: sha256 digests of the bytes of solved matrices.

Every output must stay bitwise identical across refactors of the matching,
relabeling and continuation layers.  Each group below solves a fixed,
seeded set of instances and hashes, per instance, the output matrix's
float64 bytes, or the type and message of the typed failure it raised.
The digests were taken with numpy 2.4 and its bundled OpenBLAS; another
LAPACK build may round differently and move them.  They also depend on the
CPU kernel OpenBLAS picks at run time, so each group holds one digest per
kernel, selected by ``conftest.openblas_corename()``: the default
(SkylakeX) kernel of an AVX-512 machine, and the Haswell, Sandybridge,
Prescott and Nehalem kernels as forced through OPENBLAS_CORETYPE on that
machine.  A kernel without a digest fails every pin, naming the kernel;
the CLI byte pin in test_cli_bytes.py is kept the same way.
``numpy.show_config()`` names the BLAS build; compare builds and kernels
before suspecting the code when a pin fails on another machine.

One more pin holds for every kernel: the solve groups' structural zeros and
written fill entries, every position off the diagonal and off the matched
2x2 blocks, which the solver writes without LAPACK, and the type of each
failure.  A change to the continuation may move the other digests, whose
block entries are rounded through LAPACK; it must leave this one alone.
"""

import functools
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from giep import Spectrum, SolverConfig, make_graph, solve_instance, tridiagonalize
from giep.cli import random_graph, random_spectrum
from giep.errors import DiscViolation, GiepError, NoConvergence, StepUnderflow
from giep.graph import max_matching, plan_relabeling
from conftest import kernel_pin, openblas_corename


def digest(runs, messages: bool = True) -> str:
    """sha256 over each run's output matrix bytes, or its failure's type and,
    with ``messages``, its message."""
    h = hashlib.sha256()
    for run in runs:
        try:
            m = run()
        except GiepError as exc:
            h.update((f"{type(exc).__name__}: {exc}" if messages else type(exc).__name__).encode())
        else:
            h.update(np.ascontiguousarray(m, dtype=float).tobytes())
    return h.hexdigest()


def spectrum_for(rng, n: int, k: int) -> Spectrum:
    return random_spectrum(rng, k, n - 2 * k, box=max(5.0, n / 2))


def solved(s, g, mode="generic"):
    return solve_instance(s, g, mode).matrix


def zeros_and_fills(s, g, mode="generic"):
    """The output's entries off its diagonal and off its matched 2x2 blocks,
    in row-major order: its structural zeros and written fill entries, which
    the solver writes without rounding them through LAPACK."""
    order, _ = plan_relabeling(g, max_matching(g), s.k)
    # user vertex i is vertex order[i] of the solved pattern, whose blocks
    # are its vertex pairs (2j, 2j + 1) for j < k
    block = np.where(order < 2 * s.k, order // 2, s.n + order)
    return solved(s, g, mode)[block[:, None] != block]


def random_runs():
    """n from 2 to 24 through the CLI's generators: each n twice in generic
    mode, then once in skew mode."""
    rng = np.random.default_rng(2024)
    for n in range(2, 25):
        for mode in ("generic", "generic", "skew"):
            k = int(rng.integers(0, n // 2 + 1))
            s = spectrum_for(rng, n, k)
            yield s, random_graph(rng, n, k, float(rng.uniform(0.05, 0.6))), mode


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
        yield s, make_graph(n, sorted(edges), directed=True)


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
        yield spectrum_for(rng, n, k), g


def corner_runs():
    """k = 0, and graphs whose only edges form the matching (m = 0)."""
    rng = np.random.default_rng(2027)
    for n in (2, 5, 9, 16, 24):
        yield spectrum_for(rng, n, 0), random_graph(rng, n, 0, 0.3)
        k = n // 2
        yield spectrum_for(rng, n, k), random_graph(rng, n, k, 0.0)


def large_runs():
    """The benchmark's large_sparse shape, n=160, k=40 and edge probability
    4/n: above SHIFT_ROWS, so the solution curve is formed in several row
    blocks."""
    rng = np.random.default_rng(2029)
    for _ in range(3):
        yield spectrum_for(rng, 160, 40), random_graph(rng, 160, 40, 4.0 / 160)


def jacobian_runs():
    """n from 8 to 24 twice each, like random_runs, for solves at fills one
    disc radius wide: there some trials contract weakly and form a true
    Jacobian, which default fills never do."""
    rng = np.random.default_rng(2030)
    for n in range(8, 25):
        for _ in range(2):
            k = int(rng.integers(0, n // 2 + 1))
            s = spectrum_for(rng, n, k)
            yield s, random_graph(rng, n, k, float(rng.uniform(0.05, 0.6)))


def solved_at_fill_one(s, g):
    return solve_instance(s, g, cfg=SolverConfig(fill_scale=1.0)).matrix


def continuation_runs():
    """n from 8 to 16 twice each, like jacobian_runs, for solves at fills
    three disc radii wide: there trials are rejected and halved, some
    solves succeed after several steps and others end in StepUnderflow,
    whose message carries the t it reached."""
    rng = np.random.default_rng(2031)
    for n in range(8, 17):
        for _ in range(2):
            k = int(rng.integers(0, n // 2 + 1))
            s = spectrum_for(rng, n, k)
            yield s, random_graph(rng, n, k, float(rng.uniform(0.05, 0.6)))


def solved_at_fill_three(s, g):
    return solve_instance(s, g, cfg=SolverConfig(fill_scale=3.0)).matrix


def tridiagonalize_runs():
    rng = np.random.default_rng(2028)
    for n in range(2, 12):
        a = rng.standard_normal((n, n))
        yield (a,)


def tridiagonalized(a):
    return tridiagonalize(a).matrix


# per group, the digest for each OpenBLAS kernel, by the name
# conftest.openblas_corename() reports: SkylakeX is an AVX-512 machine's
# default; the others were recorded on that machine under
# OPENBLAS_CORETYPE=Haswell (Zen reports Haswell too), Sandybridge,
# Prescott, which reports Katmai, and Nehalem
PINS = {
    "random": (random_runs, solved, {
        "SkylakeX": "c430cc5d3684ee81e2366ed6856ccd7d67a90398ffa5a50e4d6eba015b7fa300",
        "Haswell": "bd839d6c4506227d710c6d31b693bb768b200204b4af5d7cf7b755446f7c4fe1",
        "Sandybridge": "3de0cac3c9e0a839745ba5d95042783340499e799f7532f0b8f6d64312c7103f",
        "Katmai": "3de0cac3c9e0a839745ba5d95042783340499e799f7532f0b8f6d64312c7103f",
        "Nehalem": "8e424fd957426dccf238e55875ae97f75d7ea21db05fc171509a3d0fea62bca3",
    }),
    "directed": (directed_runs, solved, {
        "SkylakeX": "03606c5699e0f40b96d9d49a5f1ef3ca0f22c65577f984f19a1f513bcccd67e1",
        "Haswell": "28a0ea797dcf136a8b12828c4b565d71c33093e27cc20a8f2d67d1ad9fd23e57",
        "Sandybridge": "0a1b9982d890bdf43177dfffe9d95399d2acb185c2631423c1eddbe26a69529a",
        "Katmai": "0a1b9982d890bdf43177dfffe9d95399d2acb185c2631423c1eddbe26a69529a",
        "Nehalem": "f656cad83adecd30e863bc3e0a9b582759c094e4b41892797d50b61adcd73cd1",
    }),
    "blossom": (blossom_runs, solved, {
        "SkylakeX": "da799561d00b70a500454084c47ea81725cc7d426d2a9a1e98cc508abb28c07e",
        "Haswell": "c084d3c5b00b4632b900b192e2aeb29a261c175894e79957161b9c9e89afa100",
        "Sandybridge": "57ad0273f90eafb8a4924591ed1a92607a7611df8b3a2173a716ef109c392f12",
        "Katmai": "57ad0273f90eafb8a4924591ed1a92607a7611df8b3a2173a716ef109c392f12",
        "Nehalem": "40cd39ee030714699e49a6c096dbe6e7cb1008c511889972a632225d8ca48f84",
    }),
    "corner": (corner_runs, solved, {
        "SkylakeX": "b2c656327116def47720d8c6cd17cf3c4d141d3337be51f623cdb9254eb3cd80",
        "Haswell": "73811f8f1eb2d5bc074ddab7eb3abc4d0da1b27ce880f3b998017a6228e6b5e0",
        "Sandybridge": "75218237d0beeac865d6cff66526b12a1e70e06cd79aa02e221bb8e68cde1ebe",
        "Katmai": "75218237d0beeac865d6cff66526b12a1e70e06cd79aa02e221bb8e68cde1ebe",
        "Nehalem": "db4e13f73427cb9842b3aa58ab7396505092d5393638f1cff226f10d55da78ba",
    }),
    # these solves take no Newton correction: their matrices come from the
    # solution curve alone, which gave the same digest under all five kernels
    "large": (large_runs, solved, {
        "SkylakeX": "934b29870cadf2817a6a59cdebc3a5b575a38f2d412e5eba2e9c2da6cd75e03c",
        "Haswell": "934b29870cadf2817a6a59cdebc3a5b575a38f2d412e5eba2e9c2da6cd75e03c",
        "Sandybridge": "934b29870cadf2817a6a59cdebc3a5b575a38f2d412e5eba2e9c2da6cd75e03c",
        "Katmai": "934b29870cadf2817a6a59cdebc3a5b575a38f2d412e5eba2e9c2da6cd75e03c",
        "Nehalem": "934b29870cadf2817a6a59cdebc3a5b575a38f2d412e5eba2e9c2da6cd75e03c",
    }),
    # the one group that forms Jacobians, at a fill of one radius
    "jacobian": (jacobian_runs, solved_at_fill_one, {
        "SkylakeX": "a284b19daa34e1587d60909bb1317acca07de2577b94823da427c2eb64076e48",
        "Haswell": "d7ff6427f0bf8ad73043849d80d76c1689d67a271bac9bd05ca0f9539b18ceaa",
        "Sandybridge": "a89dae59a624bc5a1df360e3c796ff6b5feddda1b43aba1a092dbe2292a8b8ed",
        "Katmai": "a89dae59a624bc5a1df360e3c796ff6b5feddda1b43aba1a092dbe2292a8b8ed",
        "Nehalem": "fe46bb0ac1c43855909c7e970c36a19075f5e227839b26a3b342b4845ba28fe3",
    }),
    # the one group that rejects trials and halves the step, at fills of
    # three radii; Sandybridge and Prescott differ here
    "continuation": (continuation_runs, solved_at_fill_three, {
        "SkylakeX": "7acc3c0be80237df44e0983f83f909ee31500f53c6dac27bc395f46429659310",
        "Haswell": "b46aeb6e98ce327fa9dff5be6255e09ae55b636be4a1463beac78869cf8ec9dd",
        "Sandybridge": "90a90e6fdc18131253fbaa9645f97f7fa171debc273740e3de629620c1d8b3fa",
        "Katmai": "2b12c8cd189b8fc641f7654f2fbd9ebc66a53a684606617aa3a451a781d50037",
        "Nehalem": "c8c52578b4d419f746d5b66ae92cb7dc2e81bdc91a9ff52da1a95e1ce9d567ba",
    }),
    "tridiagonalize": (tridiagonalize_runs, tridiagonalized, {
        "SkylakeX": "15354d0abfaf386a59d2debdddb28a6d5caf238a526fd77949648be8df4d70ac",
        "Haswell": "ca189b16bf0ba23be0988e21944f2c7ad39a19b8c697ceb971514008f293c39c",
        "Sandybridge": "78ed44cad8f101b1913e8b1c051dc0e07a988049adc1ec2bfa36206550c0a4cf",
        "Katmai": "78ed44cad8f101b1913e8b1c051dc0e07a988049adc1ec2bfa36206550c0a4cf",
        "Nehalem": "9d357afdb8dc94ece6365ea0183ec7ee711f8cc3141cb00d4532edda313fb9f0",
    }),
}


@pytest.mark.parametrize("group", sorted(PINS))
def test_outputs_are_bitwise_pinned(group):
    instances, output, pins = PINS[group]
    runs = (functools.partial(output, *args) for args in instances())
    assert digest(runs) == kernel_pin(pins), f"OpenBLAS kernel {openblas_corename()}"


def test_jacobian_group_forms_jacobians_and_rejects_no_trial(monkeypatch):
    """The jacobian pin covers the corrector's Jacobian path: its solves form
    at least one true Jacobian, and on a path that no rejected trial
    interrupts."""
    import giep.solver as solver

    counts = {"jacobian": 0, "rejected": 0}
    real_jacobian, real_correct = solver.jacobian_xyz, solver.newton_correct

    def jacobian(*args):
        counts["jacobian"] += 1
        return real_jacobian(*args)

    def correct(*args):
        try:
            return real_correct(*args)
        except (NoConvergence, DiscViolation):
            counts["rejected"] += 1
            raise

    monkeypatch.setattr(solver, "jacobian_xyz", jacobian)
    monkeypatch.setattr(solver, "newton_correct", correct)
    for s, g in jacobian_runs():
        solved_at_fill_one(s, g)
    assert counts["jacobian"] > 0 and counts["rejected"] == 0


def test_continuation_group_rejects_trials_and_ends_both_ways(monkeypatch):
    """The continuation pin covers the step-halving path: its solves reject
    trials, some succeed after more than one step and some end in
    StepUnderflow."""
    import giep.solver as solver

    rejected = 0
    real_correct = solver.newton_correct

    def correct(*args):
        nonlocal rejected
        try:
            return real_correct(*args)
        except (NoConvergence, DiscViolation):
            rejected += 1
            raise

    monkeypatch.setattr(solver, "newton_correct", correct)
    multi_step = underflows = 0
    for s, g in continuation_runs():
        try:
            report = solve_instance(s, g, cfg=SolverConfig(fill_scale=3.0))
        except StepUnderflow:
            underflows += 1
        else:
            multi_step += report.steps > 1
    assert rejected > 0 and multi_step > 0 and underflows > 0


# one digest for every kernel: the solve groups' structural zeros and written
# fills, and the type of each failure
ZEROS_AND_FILLS_PIN = "c4685825eb5f615e35b21ffadc2a3e338c3296f993105f72b93518713a223e00"


def test_zeros_and_fills_are_pinned_on_every_kernel():
    runs = (
        functools.partial(zeros_and_fills, *args)
        for group in ("random", "directed", "blossom", "corner")
        for args in PINS[group][0]()
    )
    assert digest(runs, messages=False) == ZEROS_AND_FILLS_PIN


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

"""Eigenvalue derivatives, Newton correction, and the continuation driver.

The construction works in two nested loops.  The outer loop moves the fill
parameters (u, omega) linearly from zero to their targets along a homotopy
parameter t in [0, 1].  Its first trial is the whole interval: at the seed
every eigenvalue's first derivative with respect to the fills is zero, so
small fills shift the spectrum only at second order.  A rejected trial
halves the step and two easy accepts double it again, up to 1.  At each
accepted t the inner Newton loop restores the labeled eigenvalue
coordinates to the target spectrum by correcting only the block parameters
(x, y, z) — the square subsystem whose Jacobian is the identity at the seed
and stays nonsingular nearby.  Fill entries are written verbatim and never
solved for, so the output matrix carries its prescribed nonzeros exactly.

By the implicit function theorem at the seed, the solution curve is
(x, y, z)(t) = target - t^2 * delta_2 + O(t^3), where delta_2 is the
fills' second-order eigenvalue shift.  :func:`second_order_shift` computes
it in closed form from the seed's known eigenvectors, and every trial from
the seed starts on that curve, so one chord correction usually absorbs
default-size fills.  The seed itself is never decomposed: it realizes the
targets by construction.

A first-order eigenvalue perturbation identity supplies the Jacobian: for
a simple eigenvalue with unit right/left eigenvectors v and w, moving the
matrix along direction B moves the eigenvalue at rate

    zeta = (w^T B v) / (w^T v),

whose real part drives the real-part coordinate and whose imaginary part
drives the imaginary-part coordinate.

The Newton loop runs on plain arrays.  theta is the one stacked vector
(x, y, z, u, omega) that :attr:`Pattern.entries` indexes: the seed is the
target coordinate vector followed by 2m zeros, a trial at t writes
t*u* and t*omega* into the last 2m entries, and a Newton correction adds
to the first n.  The corrector is a chord iteration (Kelley, *Solving
Nonlinear Equations with Newton's Method*, 2003, ch. 5): every correction
solves with one chord matrix, which starts as the seed's identity
Jacobian, so near the seed a correction is the residual itself.  Every
iterate costs one eigenvalues-only LAPACK decomposition, whose
eigenvalues feed the disc labeling and the convergence test.  Only an
iterate whose residual shrank by less than CHORD_RATIO over the last chord
step is decomposed again with eigenvectors; the eigenvectors at the
labeled positions, as arrays, give its true Jacobian, the chord matrix for
the rest of the solve.  A trial that retries a rejected one runs full
Newton instead, one decomposition with eigenvectors and a fresh Jacobian
per iterate.  The final spectrum check reads the last accepted iterate's
residual vector: inside disjoint discs the largest disc distance is the
greedy multiset distance.  Only a solve without fills decomposes its
output, the seed, for that check.  The discs are the spectrum's own: the
corrector labels eigenvalues against ``Spectrum`` itself, and default fill
targets are sized by :attr:`Spectrum.radius`.  :func:`final_tolerance` and
:func:`nonzero_floor` are the one definition of the default final
tolerance and of the floor on edge entries, which ``verify`` applies too.
They and the Newton tolerance are multiples of :attr:`Spectrum.scale`, so
solving a spectrum scaled by a power of two scales the output exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    DiscViolation,
    NoConvergence,
    StepUnderflow,
)
from .linalg import (
    Eigenpairs,
    check_conditioning,
    eig_all,
    eigen_triple,
    solve_linear,
    spectrum_order,
)
from .model import (
    Pattern,
    Spectrum,
    assemble,
    label_eigenvalues,
    spectrum_mismatch,
)

logger = logging.getLogger("giep.solver")

TOL_NEWTON_FACTOR = 1e-11   # newton tolerance = factor * Spectrum.scale
TOL_FINAL_FACTOR = 1e-8     # final spectrum tolerance, same scaling
NONZERO_FLOOR = 1e-12       # verify's floor on edge entries, same scaling
MAX_NEWTON = 25             # newton iterations before a trial is rejected
EASY_NEWTON_ITERS = 4       # an accept this cheap counts toward doubling the step
CHORD_RATIO = 0.1           # a chord step shrinking the residual by less than this forms a Jacobian


def final_tolerance(s: Spectrum) -> float:
    """The default tolerance on a matrix's spectrum distance to ``s``, the
    solver's final check and ``verify``'s alike."""
    return TOL_FINAL_FACTOR * s.scale


def nonzero_floor(s: Spectrum) -> float:
    """The smallest edge-entry magnitude ``verify`` accepts on a matrix for
    ``s``: far above rounding noise, and never above a default fill, which
    :func:`default_targets` ensures."""
    return NONZERO_FLOOR * s.scale


def jacobian_xyz(p: Pattern, eig: Eigenpairs) -> np.ndarray:
    """Jacobian of the labeled coordinates with respect to (x, y, z).

    ``eig`` holds the k plus-disc eigenpairs then the l real eigenpairs.
    Rows are ordered (lam_1..k, mu_1..k, gamma_1..l) and columns
    (x_1..k, y_1..k, z_1..l).  Column c is the eigenvalue derivative
    w^T (dM/dtheta_c) v / (w^T v) along parameter c, whose matrix
    direction has parameter c's entries in :attr:`Pattern.entries` as its
    nonzeros, so w^T (dM/dtheta_c) v is the sum of coef * w[row] * v[col]
    over them, taken in table order.  At the seed matrix this is the
    identity.
    """
    v = eig.right
    # complex even when every eigenvalue is real: complex division by the
    # pairing rounds differently from real division
    w = np.asarray(eig.left, dtype=complex)
    if v.shape != (p.n, p.k + p.l) or w.shape != (p.k + p.l, p.n):
        raise DimensionMismatch(
            f"eigenvectors have shapes {v.shape}/{w.shape}, pattern n={p.n} "
            f"needs {p.k + p.l} eigenpairs"
        )
    e = p.entries
    # entries are ordered by parameter, x, y and z first: starts[c] is the
    # first entry of parameter c and starts[-1] the first fill entry
    starts = np.searchsorted(e.param, np.arange(p.n + 1))
    xyz = slice(starts[-1])
    prod = w[:, e.rows[xyz]] * v[e.cols[xyz]].T
    prod.real *= e.coef[xyz]  # scaling the parts separately is exact, signed zeros too
    prod.imag *= e.coef[xyz]
    zeta = np.add.reduceat(prod, starts[:-1], axis=1) / eig.pairing[:, None]
    return np.vstack([zeta[: p.k].real, zeta[: p.k].imag, zeta[p.k :].real])


def second_order_shift(p: Pattern, s: Spectrum, fills: np.ndarray) -> np.ndarray:
    """Second-order shift of the labeled coordinates when the fills
    ``fills`` = (u, omega) are written into the seed, in closed form.

    Eigenvalue a of seed + F moves by sum_{b != a} G_ab G_ba / (lam_a - lam_b)
    to second order, where G = W^T F V in the seed's eigenbasis (Kato,
    *Perturbation Theory for Linear Operators*, II.2); the first-order term
    G_aa is zero because no fill sits inside a block.  Eigenvalues are
    numbered as :meth:`Spectrum.values` lists them.  Block j's plus and minus
    eigenvectors are v = (1, +-i) and w = (1, -+i)/2 on its two vertices,
    scaled so that w^T v = 1, and a real vertex's are 1.  Each fill entry
    (r, c) adds to G_ab for the at most two eigenvalues a of r's block and b
    of c's; the contributions are summed per key a*n + b and each key is
    paired with its transpose, so work and memory grow with the number of
    fill entries, not with n^2.  Returns the shifts as (lam, mu, gamma)
    coordinates, the real and imaginary parts of the plus shifts, then the
    real shifts.
    """
    n, k = p.n, p.k
    vertex = np.arange(n)
    block = vertex < 2 * k
    # the eigenvalues of each vertex's block, and their eigenvector components there
    owner = np.where(block, [vertex // 2, k + vertex // 2], vertex).T
    vco = np.ones((n, 2), dtype=complex)
    odd = block & (vertex % 2 == 1)
    vco[odd] = [1j, -1j]
    vco[~block, 1] = 0.0  # a real vertex has one eigenvalue
    wco = vco.conj() * np.where(block, 0.5, 1.0)[:, None]

    e = p.entries
    fill = e.param >= n
    r, c = e.rows[fill], e.cols[fill]
    value = e.coef[fill] * fills[e.param[fill] - n]
    g_part = wco[r][:, :, None] * value[:, None, None] * vco[c][:, None, :]
    key = (owner[r][:, :, None] * n + owner[c][:, None, :]).ravel()
    # a stable argsort, not np.unique: its quicksort kernels are half a
    # megabyte of code that nothing else in a solve touches, and peak RSS grows by it
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    keys = key[first]
    g = np.add.reduceat(g_part.ravel()[order], first)

    a, b = np.divmod(keys, n)
    mate = np.minimum(np.searchsorted(keys, b * n + a), keys.size - 1)
    paired = keys[mate] == b * n + a
    lam = s.values()
    term = g[paired] * g[mate[paired]] / (lam[a[paired]] - lam[b[paired]])
    shift = np.bincount(a[paired], term.real, n) + 1j * np.bincount(a[paired], term.imag, n)
    return np.concatenate([shift[:k].real, shift[:k].imag, shift[2 * k :].real])


def newton_correct(
    p: Pattern,
    s: Spectrum,
    theta: np.ndarray,
    target: np.ndarray,
    tol: float,
    jac: np.ndarray | None = None,
    refresh: bool = False,
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray | None]:
    """Chord Newton iteration on (x, y, z) until the labeled coordinates are
    within ``tol`` of ``target``; returns (theta, iterations, residual, eigs,
    jac) there, where ``residual`` is the vector target - coordinates.

    ``theta`` is the stacked parameter vector and ``target`` the stacked
    coordinates; a correction adds to theta's first n = 2k+l entries, the
    block parameters, and never touches u and omega.  A point that already
    meets ``tol`` is returned unchanged after zero iterations.

    ``jac`` is the chord matrix every correction solves with; None stands
    for the seed's identity Jacobian, whose correction is the residual
    itself.  Each iterate runs one eigenvalues-only decomposition for the
    labeling and the convergence test.  A correction with a Jacobian formed
    at its own iterate is a Newton step, any other a chord step.  Only when
    the last chord step shrank the residual by less than CHORD_RATIO does an
    iterate also compute eigenvectors and form its true Jacobian, whose
    conditioning is checked once, there; it becomes the chord matrix from
    then on, and the returned ``jac`` carries it to the caller's next
    trial.  ``refresh`` makes every iterate a Newton
    step instead: its one decomposition computes eigenvectors and forms
    the Jacobian.  continuation_solve sets it on a trial that retries a
    rejected one, where a stale chord matrix can stall near a fold.

    Raises NoConvergence past MAX_NEWTON iterations or when LAPACK or an
    eigenpair check fails, DiscViolation when an iterate leaves the discs
    (continuation_solve rejects the trial on either), and SingularSystem.
    """
    previous = np.inf  # the residual before the last chord step
    for it in range(MAX_NEWTON + 1):
        mtx = assemble(p, theta)
        ev, vecs = eig_all(mtx, vectors=True) if refresh else (eig_all(mtx), None)
        coords, idx = label_eigenvalues(ev, s)
        residual_vec = target - coords
        residual = float(np.abs(residual_vec).max())
        if residual <= tol:
            return theta, it, residual_vec, ev, jac
        if it == MAX_NEWTON:
            break
        if vecs is None and residual > CHORD_RATIO * previous:
            # the chord step contracted weakly: decompose this iterate again,
            # with vectors, whose eigenvalues may differ in the last bits and
            # so are labeled again
            ev, vecs = eig_all(mtx, vectors=True)
            idx = label_eigenvalues(ev, s)[1]
        if vecs is None:
            previous = residual
        else:
            jac = jacobian_xyz(p, eigen_triple(mtx, ev, vecs, idx))
            check_conditioning(jac)
            previous = np.inf  # a step with a fresh Jacobian is a Newton step
        theta = theta.copy()
        if jac is None:
            theta[: p.n] += residual_vec
        else:
            theta[: p.n] += solve_linear(jac, residual_vec)
    raise NoConvergence(
        f"newton residual {residual:.3e} above {tol:.3e} after {MAX_NEWTON} iterations"
    )


@dataclass
class StepRecord:
    """One accepted continuation step."""

    t: float
    residual: float
    newton_iterations: int


@dataclass
class ContinuationState:
    """Driver state at an accepted homotopy parameter."""

    t: float
    theta: np.ndarray
    step: float
    history: list[StepRecord] = field(default_factory=list)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the continuation driver (all have safe defaults).

    ``fill_scale`` sizes default fill targets as a fraction of the disc
    radius; the construction is only guaranteed for small fills, so
    aggressive values trade success probability for larger entries.
    The continuation starts with the whole interval as its trial step and
    gives up with StepUnderflow once halving takes the step below
    ``step_min`` or ``max_steps`` steps have been accepted.
    ``observer``, when set, is called as ``observer(state, eigs)`` after
    every accepted step.
    """

    fill_scale: float = 0.1
    tol_final: float | None = None
    step_min: float = 1e-6
    max_steps: int = 10_000
    observer: Callable[[ContinuationState, np.ndarray], None] | None = None


@dataclass(frozen=True)
class SolveReport:
    """Result of a continuation run.

    ``final_residual`` is the greedy multiset distance between the output
    matrix's eigenvalues and the target spectrum.  ``history`` holds one
    record per accepted step (Newton residuals, not spectrum distances).
    """

    matrix: np.ndarray
    final_residual: float
    steps: int
    newton_iterations_total: int
    mode: str
    history: tuple[StepRecord, ...] = ()


def default_targets(
    p: Pattern, s: Spectrum, mode: str = "generic", cfg: SolverConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fill targets sized fill_scale * s.radius, tied together by mode.

    generic and symmetric set omega* = u*; skew sets omega* = -u*.  For
    one-directional slots the omega component is zero (never written).
    Raises ValueError unless the fills reach :func:`nonzero_floor`, so that
    ``verify`` accepts every edge entry the solver writes.
    """
    cfg = cfg or SolverConfig()
    magnitude = cfg.fill_scale * s.radius
    u = np.full(p.m, magnitude)
    omega = np.where(p.bidirected, magnitude, 0.0) if p.m else np.zeros(0)
    if mode == "skew":
        omega = -omega
    _check_mode(mode, p, u, omega)
    floor = nonzero_floor(s)
    if not magnitude >= floor:
        raise ValueError(
            f"fill_scale must be positive and size fills at or above the nonzero "
            f"floor {floor:.3g}, got fills of {magnitude:.3g}"
        )
    return u, omega


def _check_mode(mode: str, p: Pattern, u: np.ndarray, omega: np.ndarray) -> None:
    if mode not in ("generic", "symmetric", "skew"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "generic":
        return
    if not all(p.bidirected):
        raise ValueError(f"{mode} mode requires every slot to be bidirected")
    tied = u if mode == "symmetric" else -u
    # a NaN fill_scale ties NaN to NaN; default_targets reports it itself
    if not np.array_equal(omega, tied, equal_nan=True):
        raise ValueError(f"{mode} mode requires omega* = {'u*' if mode == 'symmetric' else '-u*'}")


def continuation_solve(
    s: Spectrum,
    p: Pattern,
    targets: tuple[np.ndarray, np.ndarray],
    mode: str = "generic",
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Ramp the fills from zero to their targets, Newton-correcting (x, y, z).

    The first trial step is the whole interval t: 0 -> 1.  The step halves
    after a rejected trial (disc violation, stalled Newton or a failed
    eigendecomposition) and doubles after two consecutive easy accepts, up
    to 1; each trial is clipped to the rest of the interval.  A trial from
    the seed starts at (x, y, z) = target - t^2 * second_order_shift, the
    seed's second-order solution curve; later trials start at the last
    accepted point.  Trials correct with the chord iteration, except that a
    trial after a rejection runs full Newton.  On success the returned
    matrix realizes the target spectrum with every slot entry written at
    its exact target.

    Raises StepUnderflow (with the largest accepted t) when the step
    shrinks below step_min — the construction is local, so distant fill
    targets can honestly fail; other numerical errors propagate.
    """
    cfg = cfg or SolverConfig()
    if p.n != s.n or p.k != s.k:
        raise DimensionMismatch(
            f"pattern (n={p.n}, k={p.k}) does not match spectrum (n={s.n}, k={s.k})"
        )
    u_target = np.asarray(targets[0], dtype=float).reshape(-1)
    omega_target = np.asarray(targets[1], dtype=float).reshape(-1)
    if u_target.size != p.m or omega_target.size != p.m:
        raise DimensionMismatch(
            f"fill targets have sizes {u_target.size}/{omega_target.size}, pattern m={p.m}"
        )
    if not (np.isfinite(u_target).all() and np.isfinite(omega_target).all()):
        raise ValueError("fill targets must be finite")
    if np.any(u_target == 0.0):
        raise ValueError("every u* component must be nonzero")
    if np.any((omega_target == 0.0) & np.fromiter(p.bidirected, bool, p.m)):
        raise ValueError("omega* must be nonzero on bidirected slots")
    _check_mode(mode, p, u_target, omega_target)

    tol_newton = TOL_NEWTON_FACTOR * s.scale
    tol_final = cfg.tol_final if cfg.tol_final is not None else final_tolerance(s)
    target = s.target_coordinates()
    theta = np.concatenate([target, np.zeros(2 * p.m)])  # the seed: x, y, z = target

    state = ContinuationState(t=0.0, theta=theta, step=1.0)
    # The seed realizes the targets exactly; record it as the first accepted
    # state, with its exact spectrum in eig_all's order and no decomposition.
    ev = s.values()
    ev = ev[spectrum_order(ev)]
    state.history.append(StepRecord(t=0.0, residual=0.0, newton_iterations=0))
    if cfg.observer is not None:
        cfg.observer(state, ev)
    shift = second_order_shift(p, s, np.concatenate([u_target, omega_target]))

    jac = None  # the chord matrix; None is the seed's identity Jacobian
    newton_total = 0
    accepted = 0
    easy_streak = 0
    retry = False  # a trial after a rejection runs full Newton
    while p.m > 0 and state.t < 1.0:
        if accepted >= cfg.max_steps:
            raise StepUnderflow(
                f"step budget {cfg.max_steps} exhausted at t={state.t:.6g}",
                t_reached=state.t,
            )
        trial_dt = min(state.step, 1.0 - state.t)
        t_try = state.t + trial_dt
        if 1.0 - t_try < 1e-12:
            t_try = 1.0
        # a trial from the seed starts on the second-order curve target - t^2 shift
        xyz = target - (t_try * t_try) * shift if state.t == 0.0 else state.theta[: p.n]
        theta_try = np.concatenate([xyz, t_try * u_target, t_try * omega_target])
        try:
            theta_new, iters, r, ev, jac = newton_correct(
                p, s, theta_try, target, tol_newton, jac, retry
            )
        except (NoConvergence, DiscViolation) as exc:
            state.step = trial_dt / 2.0
            easy_streak = 0
            retry = True
            logger.debug("rejected t=%.6g (%s); step -> %.3g", t_try, exc, state.step)
            if state.step < cfg.step_min:
                raise StepUnderflow(
                    f"step {state.step:.3g} fell below {cfg.step_min:.3g} at "
                    f"t={state.t:.6g}: {exc}",
                    t_reached=state.t,
                ) from exc
            continue
        retry = False
        state.t = t_try
        state.theta = theta_new
        accepted += 1
        newton_total += iters
        state.history.append(
            StepRecord(t=t_try, residual=float(np.abs(r).max()), newton_iterations=iters)
        )
        logger.debug("accepted t=%.6g after %d newton iterations", t_try, iters)
        if cfg.observer is not None:
            cfg.observer(state, ev)
        if iters <= EASY_NEWTON_ITERS:
            easy_streak += 1
        else:
            easy_streak = 0
        if easy_streak >= 2:
            state.step = min(state.step * 2.0, 1.0)
            easy_streak = 0

    matrix = assemble(p, state.theta)
    if p.m:
        # r belongs to the last accepted iterate, whose assembled matrix is the
        # one returned.  Its eigenvalues lie inside disjoint discs, where the
        # greedy multiset distance pairs each target with its own disc's
        # eigenvalue, so that distance is the largest disc distance.
        k = p.k
        final_residual = float(
            np.concatenate([np.hypot(r[:k], r[k : 2 * k]), np.abs(r[2 * k :])]).max()
        )
    else:
        final_residual = spectrum_mismatch(eig_all(matrix), s)
    if final_residual > tol_final:
        raise NoConvergence(
            f"final spectrum distance {final_residual:.3e} exceeds {tol_final:.3e}"
        )
    logger.info(
        "continuation finished: %d steps, %d newton iterations, residual %.3e",
        accepted,
        newton_total,
        final_residual,
    )
    return SolveReport(
        matrix=matrix,
        final_residual=final_residual,
        steps=accepted,
        newton_iterations_total=newton_total,
        mode=mode,
        history=tuple(state.history),
    )

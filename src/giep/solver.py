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
analytic in t: (x, y, z)(t) = target - t^2 c2 - t^3 c3 - t^4 c4 + O(t^5),
where c2 is the fills' second-order eigenvalue shift.
:func:`solution_curve` computes the three coefficients from one dense
coupling of the fills to the seed's known eigenvectors, whose components
at a vertex follow from the vertex and k alone.  Every trial from the seed
starts on that curve, so a default-size solve usually starts within the
Newton tolerance and needs no correction at all.  The seed itself is never
decomposed: it realizes the targets by construction.

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
solves with one chord matrix, which starts each trial as the seed's
identity Jacobian, so near the seed a correction is the residual itself.
Every iterate costs one eigenvalues-only LAPACK decomposition, whose
eigenvalues feed the disc labeling and the convergence test.  Only an
iterate whose residual shrank by less than CHORD_RATIO over the last chord
step is decomposed again with eigenvectors; the eigenvectors at the
labeled positions, as arrays, give its true Jacobian, the chord matrix for
the rest of the trial.  No matrix outlives its trial, so a trial depends
on its start point alone.  The final spectrum check is ``verify``'s own
distance, :func:`spectrum_mismatch`, taken over the last accepted
iterate's eigenvalues, which are those of the returned matrix.  Only a
solve without fills decomposes its output, the seed, for that check.  The
discs are the spectrum's own: the corrector labels eigenvalues against
``Spectrum`` itself, and the solver sizes its own fill targets by
:attr:`Spectrum.radius` in :func:`default_targets`.
:func:`final_tolerance` and :func:`nonzero_floor` are the one definition
of the default final tolerance and of the floor on edge entries, which
``verify`` applies too.  They and the Newton tolerance are multiples of
:attr:`Spectrum.scale`, and sums of squares are taken at order one after
an exact power-of-two scaling, so the solver's arithmetic commutes with
scaling the spectrum by a power of two.
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
    unit_exponent,
)
from .model import (
    Pattern,
    Spectrum,
    assemble,
    label_eigenvalues,
    spectrum_mismatch,
    stack_coordinates,
)

logger = logging.getLogger("giep.solver")

# The seed's eigenvector components at a block's first vertex, its second
# vertex and a real vertex, for the plus then the minus eigenvalue: block
# vectors v = (1, +-i) and w = (1, -+i)/2 on the block's two vertices, so
# that w^T v = 1, and 1 on a real vertex, which has one eigenvalue.
_V = np.array([[1, 1], [1j, -1j], [1, 0]])
_W = _V.conj() * [[0.5], [0.5], [1.0]]

TOL_NEWTON_FACTOR = 1e-11   # newton tolerance = factor * Spectrum.scale
TOL_FINAL_FACTOR = 1e-8     # final spectrum tolerance, same scaling
NONZERO_FLOOR = 1e-12       # verify's floor on edge entries, same scaling
MAX_NEWTON = 25             # newton iterations before a trial is rejected
MAX_STEPS = 10_000          # accepted continuation steps before StepUnderflow
EASY_NEWTON_ITERS = 4       # an accept this cheap counts toward doubling the step
CHORD_RATIO = 0.1           # a chord step shrinking the residual by less than this forms a Jacobian
SHIFT_ROWS = 32             # rows per block of the higher-order terms, which bounds their memory
MODES = ("generic", "skew")  # how default_targets ties omega* to u*


def final_tolerance(s: Spectrum) -> float:
    """The default tolerance on a matrix's spectrum distance to ``s``, the
    solver's final check and ``verify``'s alike."""
    return TOL_FINAL_FACTOR * s.scale


def nonzero_floor(s: Spectrum) -> float:
    """The smallest edge-entry magnitude ``verify`` accepts on a matrix for
    ``s``: far above rounding noise, and never above a fill, which
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
    return stack_coordinates(zeta[: p.k], zeta[p.k :])


def _coupling(p: Pattern, fills: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The coupling G = W^T F V of the fills ``fills`` = (u, omega) in the
    seed's eigenbasis, as a dense n x n array, with the fills scaled by
    2^-exp, the power of two that brings the largest to order one; returns
    (G, paired, exp), where ``paired`` marks the (a, b) at which both G_ab
    and G_ba have a fill entry.

    Eigenvalues are numbered as :meth:`Spectrum.values` lists them.  Block
    j's plus and minus eigenvectors are v = (1, +-i) and w = (1, -+i)/2 on
    its two vertices, scaled so that w^T v = 1, and a real vertex's are 1; a
    fill entry's eigenvalues and components follow from its row and column
    by closed form, with no table over the n vertices.  Each fill entry
    (r, c) adds to G_ab for the at most two eigenvalues a of r's block and b
    of c's, in entry order, starting from +0.0.  G_aa is zero and unpaired:
    no fill sits inside a block.
    """
    n, k = p.n, p.k
    e = p.entries
    fill = n + 2 * k  # the first fill entry: x, y and z have 4k + l entries
    size = e.rows.size - fill
    rc = np.concatenate([e.rows[fill:], e.cols[fill:]])  # the fill rows, then their columns
    # each vertex's eigenvalues and their eigenvector components there: a
    # block vertex 2j or 2j+1 holds the block's plus and minus eigenvalues j
    # and j + k, a real vertex its one eigenvalue, twice with no second component
    real = rc >= 2 * k
    owner = np.where(real[:, None], rc[:, None], (rc >> 1)[:, None] + [0, k])
    kind = np.where(real, 2, rc & 1)
    value = fills[e.param[fill:] - n]  # fill entries are written verbatim
    exp = unit_exponent(value)
    value = np.ldexp(value, -exp)
    g_part = _W[kind[:size]][:, :, None] * value[:, None, None] * _V[kind[size:]][:, None, :]
    key = (owner[:size, :, None] * n + owner[size:, None, :]).ravel()
    g = np.zeros(n * n, dtype=complex)
    np.add.at(g, key, g_part.ravel())
    entry = np.zeros(n * n, dtype=bool)
    entry[key] = True
    entry = entry.reshape(n, n)
    return g.reshape(n, n), entry & entry.T, exp


def _orders(g: np.ndarray, paired: np.ndarray, lam: np.ndarray, exp: int) -> np.ndarray:
    """E2, E3 and c4 of the n eigenvalues ``lam``, numbered as
    :meth:`Spectrum.values` numbers them, as the rows of a 3 x n array, from
    the coupling (``g``, ``paired``) at its scale 2^-exp.

    With D_ab = lam_a - lam_b, H = G / D and P = (H G) / D, both zero on
    the diagonal,

        E2_a = sum_b G_ab G_ba / D_ab,
        E3_a = sum_c P_ac G_ca,
        c4_a = sum_d (P G)_ad G_da / D_ad - sum_b G_ab G_ba E2_b / D_ab^2.

    E2_a sums the terms of the paired b, ascending, from +0.0; the others
    are zero.  E3 and c4 are formed SHIFT_ROWS rows at a time, by two
    products with the n x n G each, which bounds the memory they take.  The
    minus rows are the plus rows' conjugates and go unused; forming them in
    the same contiguous blocks takes fewer numpy calls than gathering the
    plus and real rows, which is what a small solve pays for.
    """
    n = lam.size
    e = np.empty((3, n), dtype=complex)
    a, b = np.divmod(np.flatnonzero(paired), n)  # by a, then by b ascending
    gap = np.ldexp((lam[a] - lam[b]).view(float), -exp).view(complex)  # both parts scaled
    term = g[a, b] * g[b, a] / gap
    e[0] = np.bincount(a, term.real, n) + 1j * np.bincount(a, term.imag, n)
    lam = np.ldexp(lam.view(float), -exp).view(complex)
    for start in range(0, n, SHIFT_ROWS):
        rows = slice(start, start + SHIFT_ROWS)
        inv = lam[rows, None] - lam
        inv.ravel()[start :: n + 1] = np.inf  # 1/D is zero on the diagonal
        np.divide(1.0, inv, out=inv)
        h = g[rows] * inv
        back = g[:, rows].T * inv  # G_ba / D_ab in row a
        c4 = (h * back) @ e[0]
        h = h @ g
        e[1, rows] = (h * back).sum(axis=1)
        h *= inv
        e[2, rows] = ((h @ g) * back).sum(axis=1) - c4
    return e


def solution_curve(p: Pattern, s: Spectrum, fills: np.ndarray) -> np.ndarray:
    """The coefficients (c2, c3, c4) of the fourth-order solution curve
    (x, y, z)(t) = target - t^2 c2 - t^3 c3 - t^4 c4 + O(t^5) on which the
    seed with fills t * ``fills`` keeps the target spectrum, as the rows of
    a 3 x n array, in (lam, mu, gamma) coordinates: the real and imaginary
    parts of the plus eigenvalues' terms, then the real eigenvalues'.

    The eigenvectors of the seed, and so its coupling G = W^T F V to the
    fills (:func:`_coupling`), are the same at every (x, y, z) = nu, so its
    eigenvalues with fills t F are nu + t^2 E2(nu) + t^3 E3(nu) + t^4 E4(nu)
    + O(t^5), where Rayleigh-Schroedinger perturbation theory with G_aa = 0
    gives, with D_ab = nu_a - nu_b (Kato, *Perturbation Theory for Linear
    Operators*, II.2),

        E2_a = sum_b G_ab G_ba / D_ab,
        E3_a = sum_bc G_ab G_bc G_ca / (D_ab D_ac),
        E4_a = sum_bcd G_ab G_bc G_cd G_da / (D_ab D_ac D_ad)
               - E2_a sum_b G_ab G_ba / D_ab^2.

    Setting them to the target along nu = target - t^2 c2 - ... gives
    c2 = E2, the fills' second-order eigenvalue shift, c3 = E3, and c4 =
    E4 - (dE2/dnu) c2, all at the target.  -(dE2/dnu) c2 is
    sum_b G_ab G_ba (c2_a - c2_b) / D_ab^2, so E2_a's term in E4_a cancels.
    The terms are homogeneous of degree one in the fills and the spectrum
    together, so all three are evaluated with both scaled by the power of
    two that brings the largest fill to order one, then scaled back: the
    same bits wherever the products neither overflow nor underflow.  A
    coordinate with a coefficient that is not finite gets NaN in all three,
    so that every start there is NaN, without a warning.
    """
    g, paired, exp = _coupling(p, fills)
    with np.errstate(all="ignore"):
        terms = _orders(g, paired, s.values(), exp).T  # one row per eigenvalue
        curve = np.ldexp(stack_coordinates(terms[: p.k], terms[2 * p.k :]), exp)
    return np.where(np.isfinite(curve).all(axis=1, keepdims=True), curve, np.nan).T


def newton_correct(
    p: Pattern, s: Spectrum, theta: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Chord Newton iteration on (x, y, z) until the labeled coordinates are
    within the Newton tolerance TOL_NEWTON_FACTOR * s.scale of
    ``s.target_coordinates()``; returns (theta, iterations, residual, eigs)
    there, where ``residual`` is the vector target - coordinates.

    ``theta`` is the stacked parameter vector; a correction adds to its
    first n = 2k+l entries, the block parameters, and never touches u and
    omega.  A point that already meets the tolerance is returned unchanged
    after zero iterations.

    Every correction solves with the chord matrix, which starts as the
    seed's identity Jacobian, whose correction is the residual itself.
    Each iterate runs one eigenvalues-only decomposition for the labeling
    and the convergence test.  Only when the last chord step shrank the
    residual by less than CHORD_RATIO does an iterate also compute
    eigenvectors and form its true Jacobian, whose conditioning is checked
    once, there; it is the chord matrix for the rest of this call, and the
    step it takes, a Newton step, is not judged.  Nothing carries over to
    the next call.

    Raises NoConvergence past MAX_NEWTON iterations, at an iterate that is
    not finite, or when LAPACK or an eigenpair check fails, DiscViolation
    when an iterate leaves the discs (continuation_solve rejects the trial
    on either), and SingularSystem.
    """
    target = s.target_coordinates()
    tol = TOL_NEWTON_FACTOR * s.scale
    jac = None  # the chord matrix; None is the seed's identity Jacobian
    previous = np.inf  # the residual before the last chord step
    for it in range(MAX_NEWTON + 1):
        if not np.isfinite(theta).all():
            raise NoConvergence(f"newton iterate {it} is not finite")
        mtx = assemble(p, theta)
        ev = eig_all(mtx)
        coords, idx = label_eigenvalues(ev, s)
        residual_vec = target - coords
        residual = float(np.abs(residual_vec).max())
        if residual <= tol:
            return theta, it, residual_vec, ev
        if it == MAX_NEWTON:
            break
        if residual > CHORD_RATIO * previous:
            # the chord step contracted weakly: decompose this iterate again,
            # with vectors, whose eigenvalues may differ in the last bits and
            # so are labeled again
            ev, vecs = eig_all(mtx, vectors=True)
            idx = label_eigenvalues(ev, s)[1]
            jac = jacobian_xyz(p, eigen_triple(mtx, ev, vecs, idx))
            check_conditioning(jac)
            previous = np.inf  # a step with a fresh Jacobian is a Newton step
        else:
            previous = residual
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
    history: list[StepRecord] = field(default_factory=list)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the continuation driver (all have safe defaults).

    ``fill_scale`` sizes the fill targets as a fraction of the disc
    radius; the construction is only guaranteed for small fills, so
    aggressive values trade success probability for larger entries.
    The continuation starts with the whole interval as its trial step and
    gives up with StepUnderflow once halving takes the step below
    ``step_min``, which must be positive, once a step no longer advances
    t, or once MAX_STEPS steps have been accepted.
    ``observer``, when set, is called as ``observer(state, eigs)`` once at
    the seed, at t = 0 with its exact eigenvalues, and after every accepted
    step.  The final spectrum check is at
    :func:`final_tolerance`, a thousand times the Newton tolerance that
    every accepted step already meets; ``verify`` checks a matrix at any
    other tolerance.
    """

    fill_scale: float = 0.1
    step_min: float = 1e-6
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

    generic sets omega* = u*, so with k = 0 and every slot bidirected its
    output is bitwise symmetric; skew sets omega* = -u*.  The one check of
    ``mode`` and ``fill_scale``: raises ValueError for a mode not in MODES,
    skew with a one-way slot, or fills not finite or below :func:`nonzero_floor`.
    """
    cfg = cfg or SolverConfig()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "skew" and not p.bidirected.all():
        raise ValueError("skew mode requires every slot to be bidirected")
    magnitude = cfg.fill_scale * s.radius
    floor = nonzero_floor(s)
    if not floor <= magnitude < np.inf:
        raise ValueError(
            f"fill_scale must be positive and finite and size fills at or above the "
            f"nonzero floor {floor:.3g}, got fills of {magnitude:.3g}"
        )
    u = np.full(p.m, magnitude)
    omega = np.where(p.bidirected, magnitude, 0.0)
    return u, -omega if mode == "skew" else omega


def continuation_solve(
    s: Spectrum, p: Pattern, mode: str = "generic", cfg: SolverConfig | None = None
) -> SolveReport:
    """Ramp the fills from zero to :func:`default_targets`, Newton-correcting (x, y, z).

    The first trial step is the whole interval t: 0 -> 1.  The step halves
    after a rejected trial (disc violation, stalled Newton, a non-finite
    iterate or a failed eigendecomposition) and doubles after two
    consecutive easy accepts, up to 1; each trial is clipped to the rest of
    the interval.  A trial from the seed starts at (x, y, z) = target -
    t^2 (c2 + t (c3 + t c4)), the seed's fourth-order solution curve from
    :func:`solution_curve`; later trials start at the last accepted point.
    Each trial corrects with its own chord iteration, which starts on the
    identity Jacobian; a start within the Newton tolerance takes no
    correction, and its one ``eigvals`` is also the final check.  On
    success the returned matrix realizes the target spectrum with every
    slot entry written at its exact target, and ``final_residual`` is the
    float :func:`spectrum_mismatch` of its eigenvalues: the last accepted
    iterate's, or one decomposition of the seed when ``p`` has no slots.

    Raises DimensionMismatch unless ``p`` fits the spectrum, ValueError for
    a bad mode, fill_scale or step_min, StepUnderflow (with the largest
    accepted t) when the step shrinks below step_min or below the rounding
    of t, or MAX_STEPS steps were accepted short of t = 1 — the
    construction is local, so distant fill targets can honestly fail — and
    NoConvergence when the output's spectrum distance exceeds
    :func:`final_tolerance`; other numerical errors propagate.
    """
    cfg = cfg or SolverConfig()
    if p.n != s.n or p.k != s.k:
        raise DimensionMismatch(
            f"pattern (n={p.n}, k={p.k}) does not match spectrum (n={s.n}, k={s.k})"
        )
    u_target, omega_target = default_targets(p, s, mode, cfg)
    if not cfg.step_min > 0.0:
        raise ValueError(f"step_min must be positive, got {cfg.step_min}")

    target = s.target_coordinates()
    theta = np.concatenate([target, np.zeros(2 * p.m)])  # the seed: x, y, z = target

    state = ContinuationState(t=0.0, theta=theta)
    # The seed realizes the targets exactly; record it as the first accepted
    # state, with its exact spectrum in eig_all's order and no decomposition.
    state.history.append(StepRecord(t=0.0, residual=0.0, newton_iterations=0))
    if cfg.observer is not None:
        cfg.observer(state, s._centers)
    # without fills the seed is the solution and no trial runs
    if p.m:
        c2, c3, c4 = solution_curve(p, s, np.concatenate([u_target, omega_target]))

    step = 1.0
    easy_streak = 0
    while p.m > 0 and state.t < 1.0:
        if len(state.history) - 1 >= MAX_STEPS:  # the seed's record is no step
            raise StepUnderflow(
                f"step budget {MAX_STEPS} exhausted at t={state.t:.6g}",
                t_reached=state.t,
            )
        trial_dt = min(step, 1.0 - state.t)
        t_try = state.t + trial_dt
        if 1.0 - t_try < 1e-12:
            t_try = 1.0
        if t_try == state.t:
            # the step is below the rounding of t: a trial would accept the same point
            raise StepUnderflow(
                f"step {trial_dt:.3g} no longer advances t={state.t:.6g}",
                t_reached=state.t,
            )
        # a trial from the seed starts on the fourth-order solution curve
        if state.t == 0.0:
            xyz = target - (t_try * t_try) * (c2 + t_try * (c3 + t_try * c4))
        else:
            xyz = state.theta[: p.n]
        theta_try = np.concatenate([xyz, t_try * u_target, t_try * omega_target])
        try:
            theta_new, iters, r, ev = newton_correct(p, s, theta_try)
        except (NoConvergence, DiscViolation) as exc:
            step = trial_dt / 2.0
            easy_streak = 0
            logger.debug("rejected t=%.6g (%s); step -> %.3g", t_try, exc, step)
            if step < cfg.step_min:
                raise StepUnderflow(
                    f"step {step:.3g} fell below {cfg.step_min:.3g} at "
                    f"t={state.t:.6g}: {exc}",
                    t_reached=state.t,
                ) from exc
            continue
        state.t = t_try
        state.theta = theta_new
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
            step = min(step * 2.0, 1.0)
            easy_streak = 0

    matrix = assemble(p, state.theta)
    if not p.m:  # no trial ran; otherwise ev is the last accepted iterate's
        ev = eig_all(matrix)
    final_residual = float(spectrum_mismatch(ev, s))
    tol_final = final_tolerance(s)
    if final_residual > tol_final:
        raise NoConvergence(
            f"final spectrum distance {final_residual:.3e} exceeds {tol_final:.3e}"
        )
    steps = len(state.history) - 1
    newton_total = sum(record.newton_iterations for record in state.history)
    logger.info(
        "continuation finished: %d steps, %d newton iterations, residual %.3e",
        steps,
        newton_total,
        final_residual,
    )
    return SolveReport(
        matrix=matrix,
        final_residual=final_residual,
        steps=steps,
        newton_iterations_total=newton_total,
        mode=mode,
        history=tuple(state.history),
    )

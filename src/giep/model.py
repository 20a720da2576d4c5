"""Problem data model: target spectrum, matrix family, and disc labeling.

The target spectrum holds k complex-conjugate pairs and l reals, all
distinct.  Its seed matrix is the direct sum of 2x2 rotation-scaled blocks
[[lam, mu], [-mu, lam]] and 1x1 real blocks, which realizes the spectrum
exactly.  A pattern places free parameters into a matrix family M:

* x_j on the two diagonal positions of matched block j,
* y_j / -y_j on its off-diagonal positions,
* z_j on the trailing diagonal position 2k+j,
* u_r at slot (i_r, j_r) and, for bidirected slots, omega_r at (j_r, i_r).

The parameters travel as one stacked vector theta = (x, y, z, u, omega).
M is linear in theta, and :attr:`Pattern.entries` is the single
description of this layout: :func:`assemble` scatters theta through it and
the solver's Jacobian contracts eigenvectors with it.  A pattern stores its
slots in one form, the read-only 0-based arrays ``rows``, ``cols`` and
``bidirected``, and builds its entries from them once.  ``Pattern(...)``
takes arrays that meet every rule by construction, as
:func:`~giep.graph.plan_relabeling` builds them, and checks nothing;
:meth:`Pattern.from_slots` is the checked entry for 1-based slots.

The spectrum is also its own disc system: a disc of the common radius
:attr:`Spectrum.radius` around every spectrum point, the discs disjoint
and the non-real ones clear of the real axis.  Eigenvalues of matrices
near the seed are identified by which disc they fall in.
:func:`label_eigenvalues` reads off the stacked (lambda, mu, gamma)
coordinates, the quantities the Newton corrector drives to
:meth:`Spectrum.target_coordinates`, together with the positions of the
tracked eigenvalues, which select their eigenvectors.  It and
:func:`spectrum_mismatch` first pair the i-th eigenvalue with the i-th
spectrum point, both in :func:`~giep.linalg.eig_all`'s order.
Since the seed has x = lambda, y = mu and z = gamma, the seed's theta is
the target coordinate vector followed by 2m zero fills.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import BadFormat, DegenerateSpectrum, DimensionMismatch, DiscViolation
from .linalg import spectrum_order

SCALE_CAP = 1e6  # Spectrum.scale <= SCALE_CAP * radius


@dataclass(frozen=True)
class Spectrum:
    """Target eigenvalues: pairs (lam_j, mu_j) meaning lam_j +/- mu_j*i, plus reals.

    All 2k+l induced values must be pairwise distinct and every mu_j > 0.
    """

    pairs: tuple[tuple[float, float], ...]
    reals: tuple[float, ...]

    def __post_init__(self):
        try:
            pairs = tuple((float(a), float(b)) for a, b in self.pairs)
            reals = tuple(float(g) for g in self.reals)
        except OverflowError as exc:  # an integer beyond the float range
            raise ValueError(f"spectrum values must be finite: {exc}") from exc
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "reals", reals)
        if not all(map(math.isfinite, chain(chain.from_iterable(pairs), reals))):
            raise ValueError("spectrum values must be finite")
        if any(mu <= 0.0 for _, mu in pairs):
            raise ValueError("mu must be positive for every conjugate pair")
        if self.n < 1:
            raise ValueError("spectrum must contain at least one value")
        # the earliest point equal to a later one, as comparing every pair names it
        first: dict[complex, int] = {}
        points = self._points.tolist()
        repeated = [i for j, z in enumerate(points) if (i := first.setdefault(z, j)) < j]
        if repeated:
            raise DegenerateSpectrum(f"duplicate spectrum value {self._points[min(repeated)]}")

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def l(self) -> int:
        return len(self.reals)

    @property
    def n(self) -> int:
        return 2 * self.k + self.l

    def values(self) -> np.ndarray:
        """All n spectrum points: plus values, minus values, then reals.

        Built once per spectrum and returned read-only.
        """
        return self._points

    @cached_property
    def _points(self) -> np.ndarray:
        # (real, imag) parts interleaved and viewed as complex: complex
        # arithmetic would turn a -0.0 real part into +0.0
        parts = [x for lam, mu in self.pairs for x in (lam, mu)]
        parts += [x for lam, mu in self.pairs for x in (lam, -mu)]
        parts += [x for g in self.reals for x in (g, 0.0)]
        return _freeze(np.array(parts, dtype=float).view(complex))

    def inf_norm(self) -> float:
        """Largest modulus among the spectrum points."""
        return float(np.abs(self.values()).max())

    @cached_property
    def scale(self) -> float:
        """The unit of every tolerance on this spectrum: the largest modulus,
        capped at SCALE_CAP radii so that tolerances stay well inside the
        discs, or the radius when every point is 0 (n = 1)."""
        return min(self.inf_norm(), SCALE_CAP * self.radius) or self.radius

    def target_coordinates(self) -> np.ndarray:
        """The stacked coordinates (lam_1..k, mu_1..k, gamma_1..l) this spectrum prescribes.

        They are also the seed's block parameters (x, y, z).  Built once per
        spectrum and returned read-only.
        """
        return self._coordinates

    @cached_property
    def _coordinates(self) -> np.ndarray:
        k, points = self.k, self._points
        return _freeze(stack_coordinates(points[:k], points[2 * k :]))

    @cached_property
    def radius(self) -> float:
        """Common radius eps = min(gap/3, mu_min/2) of the discs around the points.

        ``gap`` is the minimum pairwise distance among the n spectrum points;
        dividing by 3 leaves a guard band between discs.  The mu_min/2 term
        keeps non-real discs clear of the real axis (dropped when k = 0).  A
        single-point spectrum takes (1 + |value|)/3.  Computed on first use;
        raises ValueError when the radius is not positive and finite or the
        discs are not disjoint, which only subnormal or overflowing distances
        bring about.
        """
        points = self._points
        if self.n == 1:
            return float((1.0 + abs(points[0])) / 3.0)
        gap, i, j = min_gap(points)
        mu_min = min((mu for _, mu in self.pairs), default=math.inf)
        eps = min(gap / 3.0, mu_min / 2.0)
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError("disc radius must be positive and finite")
        # eps <= mu_min/2 < mu_min: no non-real disc reaches the real axis
        if not gap > 2.0 * eps:
            raise ValueError(f"discs at {points[i]} and {points[j]} are not disjoint")
        return float(eps)

    @cached_property
    def _rank(self) -> np.ndarray:
        # point indices in (real, imag) order, the order of eig_all's eigenvalues
        return _freeze(spectrum_order(self._points))

    @cached_property
    def _centers(self) -> np.ndarray:
        # the spectrum points in _rank order: eigenvalue i's paired target
        return _freeze(self._points[self._rank])

    @cached_property
    def _paired_tracked(self) -> np.ndarray:
        # the tracked positions when eigenvalue i lies in the disc of point _rank[i]
        return _freeze(_tracked(self._rank, self.k))

    @classmethod
    def from_eigenvalues(cls, values) -> "Spectrum":
        """Build a Spectrum from a conjugate-closed set of computed eigenvalues."""
        vals = np.atleast_1d(np.asarray(values, dtype=complex))
        plus = sorted((v for v in vals if v.imag > 0), key=lambda z: (z.real, z.imag))
        minus = sorted((v for v in vals if v.imag < 0), key=lambda z: (z.real, -z.imag))
        if len(plus) != len(minus) or any(
            p.real != m.real or p.imag != -m.imag for p, m in zip(plus, minus)
        ):
            raise ValueError("eigenvalues are not closed under conjugation")
        reals = sorted(v.real for v in vals if v.imag == 0.0)
        return cls(
            pairs=tuple((v.real, v.imag) for v in plus),
            reals=tuple(reals),
        )


class Entries(NamedTuple):
    """Every position the matrix family writes, as parallel frozen arrays.

    Entry e writes ``coef[e] * theta[param[e]]`` at the 0-based position
    ``(rows[e], cols[e])``, where theta is the stacked parameter vector
    (x_1..k, y_1..k, z_1..l, u_1..m, omega_1..m).  Entries are ordered by
    parameter, so each parameter's entries are contiguous; omega_r has
    entries only on bidirected slots.  Since M is linear in theta, the
    entries of one parameter are also the nonzeros of dM/dtheta.
    """

    rows: np.ndarray
    cols: np.ndarray
    coef: np.ndarray
    param: np.ndarray


@dataclass(frozen=True, eq=False)
class Pattern:
    """Placement of the free parameters for a graph on n = 2k+l vertices.

    Slot r hosts u_r at the 0-based position ``(rows[r], cols[r])``; when
    ``bidirected[r]`` is set, omega_r lives at ``(cols[r], rows[r])`` and
    ``rows[r] < cols[r]``.  Slots may not touch the diagonal or the
    interior of a matched block, and two slots may not share a vertex pair.
    ``Pattern(...)`` takes integer ``rows`` and ``cols`` and boolean
    ``bidirected`` arrays that meet these rules by construction, as
    :func:`~giep.graph.plan_relabeling` builds them, makes them read-only
    and checks nothing; :meth:`from_slots` checks 1-based slots.
    """

    n: int
    k: int
    rows: np.ndarray
    cols: np.ndarray
    bidirected: np.ndarray

    def __post_init__(self):
        for a in (self.rows, self.cols, self.bidirected):
            _freeze(a)

    @classmethod
    def from_slots(cls, n: int, k: int, slots=(), bidirected=()) -> "Pattern":
        """The pattern whose slot r sits at the 1-based position ``slots[r]``,
        bidirected where ``bidirected[r]`` is set.

        Raises ValueError for sizes with n < 1, k < 0 or 2k > n, for slots
        and flags of different lengths, and for the first slot in order with
        a label that is no integer (anything ``operator.index`` accepts), or
        that is out of range or on the diagonal, inside a matched block,
        bidirected with i >= j, or on the vertex pair of an earlier slot.
        """
        if n < 1 or k < 0 or 2 * k > n:
            raise ValueError(f"invalid sizes n={n}, k={k}")
        if len(slots) != len(bidirected):
            raise ValueError("slots and bidirected flags must align")
        seen = set()
        for (a, b), bi in zip(slots, bidirected):
            try:
                a, b = operator.index(a), operator.index(b)
            except TypeError:
                raise ValueError(f"slot ({a!r},{b!r}): vertices must be integers") from None
            lo, hi = min(a, b), max(a, b)
            if not 1 <= lo < hi <= n:
                raise ValueError(f"slot ({a},{b}) out of range or on the diagonal")
            if hi <= 2 * k and hi % 2 == 0 and lo == hi - 1:  # block hi/2's pair
                raise ValueError(f"slot ({a},{b}) collides with a matched block")
            if bi and a >= b:
                raise ValueError(f"bidirected slot ({a},{b}) must have i < j")
            if (lo, hi) in seen:
                raise ValueError(f"duplicate slot for pair {{{a},{b}}}")
            seen.add((lo, hi))
        i, j = np.array(slots, dtype=np.intp).reshape(len(slots), 2).T - 1
        return cls(n, k, i, j, np.array(bidirected, dtype=bool))

    @property
    def l(self) -> int:
        return self.n - 2 * self.k

    @property
    def m(self) -> int:
        return self.rows.size

    @cached_property
    def entries(self) -> Entries:
        """The parameter-to-position table, built once per pattern."""
        k, n, m = self.k, self.n, self.m
        rows, cols, bidirected = self.rows, self.cols, self.bidirected
        v = np.arange(n)
        block = v < 2 * k
        # x_j at (a, a) for a = 2j, 2j+1, then +-y_j at (a, a ^ 1) and z_j on
        # the diagonal below the blocks, then u_r, then omega_r mirrored
        at = np.concatenate([v[: 2 * k], v, rows, cols[bidirected]])
        coef = np.ones(at.size)
        coef[2 * k + 1 : 4 * k : 2] = -1.0  # -y_j at (2j+1, 2j)
        # x_1, x_1, ..., x_k, x_k, y_1, y_1, ..., y_k, y_k, z, u, then omega
        half = v >> 1
        param = [half[: 2 * k], np.where(block, half + k, v), np.arange(n, n + m)]
        return Entries(
            rows=_freeze(at),
            cols=_freeze(np.concatenate([v[: 2 * k], v ^ block, cols, rows[bidirected]])),
            coef=_freeze(coef),
            param=_freeze(np.concatenate([*param, np.arange(n + m, n + 2 * m)[bidirected]])),
        )


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of moduli |a_i - b_j|, computed as hypot of the parts.

    ``np.abs`` of a complex array can differ in the last bit from the scalar
    modulus; ``np.hypot`` agrees with it.  The disc radius, and through it
    every written fill entry, is computed from these distances.
    """
    re = np.subtract.outer(a.real, b.real)
    return np.hypot(re, np.subtract.outer(a.imag, b.imag), out=re)


def min_gap(points: np.ndarray) -> tuple[float, int, int]:
    """The minimum distance between two of at least two complex ``points``,
    and the first pair (i, j) in row-major order at that distance."""
    with np.errstate(over="ignore"):
        dist = _distances(points, points)
    dist.flat[:: points.size + 1] = np.inf  # the diagonal
    i, j = np.unravel_index(dist.argmin(), dist.shape)
    return dist[i, j], int(i), int(j)


def assemble(p: Pattern, theta) -> np.ndarray:
    """Materialize the matrix family at the stacked parameter vector ``theta``.

    ``theta`` is (x_1..k, y_1..k, z_1..l, u_1..m, omega_1..m), the vector
    :attr:`Pattern.entries` indexes; the omega of a one-directional slot is
    carried but never written.  Every position not named by the pattern is
    exactly zero; slot entries are written verbatim from u and omega.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (p.n + 2 * p.m,):
        raise DimensionMismatch(
            f"parameter vector has shape {theta.shape}, pattern "
            f"(k={p.k}, l={p.l}, m={p.m}) needs {p.n + 2 * p.m} entries"
        )
    e = p.entries
    mtx = np.zeros((p.n, p.n))
    mtx[e.rows, e.cols] = e.coef * theta[e.param]
    return mtx


def stack_coordinates(plus: np.ndarray, real: np.ndarray) -> np.ndarray:
    """The (lambda, mu, gamma) order: the real parts of the ``plus`` values,
    their imaginary parts, then the real parts of the ``real`` values,
    stacked along the first axis."""
    return np.concatenate([plus.real, plus.imag, real.real])


def _paired_distances(ev: np.ndarray, s: Spectrum) -> tuple[np.ndarray, bool]:
    """The distance of ``ev[i]`` to the i-th spectrum point in (real, imag)
    order, the order of :func:`~giep.linalg.eig_all`, with the same bits as
    :func:`_distances`, and whether every one is below the radius, which a
    NaN is not.  The points are over 2*radius apart, so then each
    eigenvalue's unique nearest point is its own.  Raises ValueError when
    the spectrum has no usable radius."""
    paired = s._centers
    dist = np.hypot(ev.real - paired.real, ev.imag - paired.imag)
    return dist, bool(dist.max() < s.radius)


def label_eigenvalues(eigs, s: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Assign each eigenvalue to the disc of radius :attr:`Spectrum.radius`
    around a spectrum point; return (coordinates, positions).

    The coordinates are (lam_1..k, mu_1..k, gamma_1..l) read off the plus
    discs and the real intervals; the positions are the indices into
    ``eigs`` of those k plus-disc and l real eigenvalues, in the same order.

    Assignment is by nearest center, then validated: every disc must hold
    exactly one eigenvalue, an eigenvalue assigned to a real interval must
    be exactly real, and every eigenvalue must lie strictly inside its
    disc, which no non-finite one does.  No tie needs breaking: an
    eigenvalue equidistant from two centers is at least gap/2 > radius
    from both.  Any violation means the matrix has left the neighborhood
    where the labeling is meaningful and raises DiscViolation.  The
    per-eigenvalue rules report the first offending eigenvalue in input
    order, and the one-per-disc rule the first offending disc in center
    order.

    The assignment is the pairing of :func:`_paired_distances` when it
    holds, with positions built once per spectrum; otherwise (an
    eigenvalue outside every disc, or out of its center's order) it comes
    from one eigenvalue-by-center distance matrix.  Both go through the
    same checks, which a pairing can fail only by an off-axis eigenvalue in
    a real disc, and the same readout.
    """
    ev = np.ascontiguousarray(eigs, dtype=complex)
    if ev.size != s.n:
        raise ValueError(f"expected {s.n} eigenvalues, got {ev.size}")
    nearest, paired = _paired_distances(ev, s)
    if paired:
        idx, tracked = s._rank, s._paired_tracked
    else:
        dist = _distances(ev, s.values())
        idx = np.argmin(dist, axis=1)
        nearest = dist[np.arange(ev.size), idx]
        tracked = _tracked(idx, s.k)
    picked = ev[tracked]
    # a pairing breaks no rule unless an eigenvalue in a real disc is off the axis
    if not paired or picked[s.k :].imag.any():
        centers = s.values()
        outside = ~(nearest < s.radius)
        off_axis = (idx >= 2 * s.k) & (ev.imag != 0.0)
        bad = np.flatnonzero(outside | off_axis)
        if bad.size:
            i = bad[0]
            e, c = ev[i], centers[idx[i]]
            if outside[i]:
                raise DiscViolation(
                    f"eigenvalue {e} lies in no disc (nearest center {c}, "
                    f"distance {nearest[i]:.6g}, radius {s.radius:.6g})"
                )
            raise DiscViolation(f"non-real eigenvalue {e} near real target {c.real}")
        counts = np.bincount(idx, minlength=s.n)
        crowded = np.flatnonzero(counts != 1)
        if crowded.size:
            j = crowded[0]
            raise DiscViolation(f"disc at {centers[j]} holds {counts[j]} eigenvalues, expected 1")
    # inside a disc of radius <= mu/2 around lam + i*mu, the imaginary part exceeds mu/2 > 0
    return stack_coordinates(picked[: s.k], picked[s.k :]), tracked


def _tracked(idx: np.ndarray, k: int) -> np.ndarray:
    """The positions of the eigenvalues in the plus and the real discs, in
    point order, when eigenvalue i lies in the disc of point ``idx[i]``:
    the inverse of ``idx`` when that is a bijection, as labeling checks."""
    pos = np.zeros_like(idx)  # a disc that holds no eigenvalue reads position 0
    pos[idx] = np.arange(idx.size)
    return np.concatenate([pos[:k], pos[2 * k :]])


def spectrum_mismatch(eigs, s: Spectrum) -> float:
    """Greedy nearest-neighbor multiset distance between eigenvalues and targets.

    For each target point, in :meth:`Spectrum.values` order, the nearest
    unused computed eigenvalue is consumed (the earliest one on a tie); the
    result is the largest distance over all assignments.  A non-finite
    eigenvalue is infinitely far from every target, so the result is then
    infinite.

    When the pairing of :func:`_paired_distances` holds, the greedy pass
    would consume exactly its pairs, so their largest distance is the
    greedy value, bit for bit.  Otherwise (values outside their discs or
    out of order, duplicates, a spectrum without a usable radius) the
    greedy pass runs on the full target-by-eigenvalue distance matrix.
    """
    ev = np.atleast_1d(np.asarray(eigs, dtype=complex))
    targets = s.values()
    if ev.size != targets.size:
        raise ValueError(f"expected {targets.size} eigenvalues, got {ev.size}")
    try:
        dist, paired = _paired_distances(ev, s)
    except ValueError:  # no radius: the greedy pass decides
        paired = False
    if paired:
        return max(0.0, dist.max())  # the loop's result type: 0.0 stays a float
    if not np.isfinite(ev).all():
        return math.inf
    dist = _distances(targets, ev)
    worst = 0.0
    for row in dist:
        idx = np.argmin(row)
        worst = max(worst, row[idx])
        dist[:, idx] = np.inf  # consumed
    return worst


# ---------------------------------------------------------------------------
# File formats


def parse_spectrum(text: str) -> Spectrum:
    """Parse the spectrum document: {"pairs": [[lam, mu], ...], "reals": [...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadFormat(f"spectrum document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadFormat("spectrum document must be a JSON object")
    unknown = set(doc) - {"pairs", "reals"}
    if unknown:
        raise BadFormat(f"unknown spectrum keys: {sorted(unknown)}")
    pairs = doc.get("pairs", [])
    reals = doc.get("reals", [])
    if not isinstance(pairs, list) or not isinstance(reals, list):
        raise BadFormat("'pairs' and 'reals' must be arrays")
    for item in pairs:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item)
        ):
            raise BadFormat(f"each pair must be [lam, mu], got {item!r}")
    for item in reals:
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise BadFormat(f"each real must be a number, got {item!r}")
    try:
        return Spectrum(pairs=tuple(map(tuple, pairs)), reals=tuple(reals))
    except ValueError as exc:
        raise BadFormat(str(exc)) from exc


def format_spectrum(s: Spectrum) -> str:
    """Inverse of :func:`parse_spectrum`; floats round-trip exactly."""
    doc = {"pairs": [[a, b] for a, b in s.pairs], "reals": list(s.reals)}
    return json.dumps(doc, indent=2) + "\n"


def parse_matrix_csv(text: str) -> np.ndarray:
    """Parse a comma-separated matrix, one row per line."""
    rows = []
    for no, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            rows.append(list(map(float, ln.split(","))))
        except ValueError as exc:
            raise BadFormat(f"line {no}: not a numeric row") from exc
    if not rows:
        raise BadFormat("empty matrix document")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise BadFormat("rows have inconsistent lengths")
    a = np.array(rows, dtype=float)
    if not np.isfinite(a).all():
        raise BadFormat("matrix entries must be finite")
    return a


def format_matrix_csv(m: np.ndarray) -> str:
    """17-significant-digit CSV; write-then-read reproduces entries bit-exactly."""
    a = np.asarray(m, dtype=float)
    row = ",".join(["%.17g"] * a.shape[1])
    return "\n".join([row % tuple(r) for r in a.tolist()]) + "\n"


def format_matrix_market(m: np.ndarray) -> str:
    """Coordinate-format export of the nonzero entries, for sparse viewing."""
    a = np.asarray(m, dtype=float)
    rows, cols = a.shape
    i, j = np.nonzero(a)  # row-major, as the entries are listed
    entries = [
        f"{r} {c} {v:.17g}" for r, c, v in zip((i + 1).tolist(), (j + 1).tolist(), a[i, j].tolist())
    ]
    head = ["%%MatrixMarket matrix coordinate real general", f"{rows} {cols} {len(entries)}"]
    return "\n".join(head + entries) + "\n"

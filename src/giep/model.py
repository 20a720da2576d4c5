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
the solver's Jacobian contracts eigenvectors with it.

The spectrum is also its own disc system: a disc of the common radius
:attr:`Spectrum.radius` around every spectrum point, the discs disjoint
and the non-real ones clear of the real axis.  Eigenvalues of matrices
near the seed are identified by which disc they fall in.
:func:`label_eigenvalues` reads off the stacked (lambda, mu, gamma)
coordinates, the quantities the Newton corrector drives to
:meth:`Spectrum.target_coordinates`, together with the positions of the
tracked eigenvalues, which select their eigenvectors.
Since the seed has x = lambda, y = mu and z = gamma, the seed's theta is
the target coordinate vector followed by 2m zero fills.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import BadFormat, DegenerateSpectrum, DimensionMismatch, DiscViolation

SCALE_CAP = 1e6  # Spectrum.scale <= SCALE_CAP * radius


@dataclass(frozen=True)
class Spectrum:
    """Target eigenvalues: pairs (lam_j, mu_j) meaning lam_j +/- mu_j*i, plus reals.

    All 2k+l induced values must be pairwise distinct and every mu_j > 0.
    """

    pairs: tuple[tuple[float, float], ...]
    reals: tuple[float, ...]

    def __post_init__(self):
        pairs = tuple((float(a), float(b)) for a, b in self.pairs)
        reals = tuple(float(g) for g in self.reals)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "reals", reals)
        vals = [x for p in pairs for x in p] + list(reals)
        if not all(np.isfinite(vals)):
            raise ValueError("spectrum values must be finite")
        if any(mu <= 0.0 for _, mu in pairs):
            raise ValueError("mu must be positive for every conjugate pair")
        if self.n < 1:
            raise ValueError("spectrum must contain at least one value")
        points = self.values()
        repeated = np.triu(np.equal.outer(points, points), 1).any(axis=1)
        if repeated.any():
            raise DegenerateSpectrum(f"duplicate spectrum value {points[repeated.argmax()]}")

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
        # parts set one by one: complex arithmetic would turn a -0.0 real part into +0.0
        lam, mu = np.array(self.pairs, dtype=float).reshape(-1, 2).T
        points = np.zeros(self.n, dtype=complex)
        points.real = np.concatenate([lam, lam, self.reals])
        points.imag[: 2 * self.k] = np.concatenate([mu, -mu])
        return _freeze(points)

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

        They are also the seed's block parameters (x, y, z).
        """
        k, points = self.k, self._points
        return np.concatenate([points.real[:k], points.imag[:k], points.real[2 * k :]])

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
        with np.errstate(over="ignore"):
            dist = _distances(points, points)
        np.fill_diagonal(dist, np.inf)
        gap = dist.min()
        mu_min = points.imag[: self.k].min(initial=np.inf)
        eps = min(gap / 3.0, mu_min / 2.0)
        if not (np.isfinite(eps) and eps > 0.0):
            raise ValueError("disc radius must be positive and finite")
        # eps <= mu_min/2 < mu_min: no non-real disc reaches the real axis
        if not gap > 2.0 * eps:
            i, j = np.unravel_index(dist.argmin(), dist.shape)
            raise ValueError(f"discs at {points[i]} and {points[j]} are not disjoint")
        return float(eps)

    @cached_property
    def _rank(self) -> np.ndarray:
        # point indices in (real, imag) order, the order of eig_all's eigenvalues
        points = self._points
        return _freeze(np.lexsort((points.imag, points.real)))

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


@dataclass(frozen=True)
class Pattern:
    """Placement of the free parameters for a graph on n = 2k+l vertices.

    ``slots[r] = (i_r, j_r)`` hosts u_r at position (i_r, j_r); when
    ``bidirected[r]`` is set, omega_r lives at (j_r, i_r) and i_r < j_r.
    Slots may not touch the diagonal or the interior of a matched block.
    """

    n: int
    k: int
    slots: tuple[tuple[int, int], ...] = ()
    bidirected: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or 2 * self.k > self.n:
            raise ValueError(f"invalid sizes n={self.n}, k={self.k}")
        if len(self.slots) != len(self.bidirected):
            raise ValueError("slots and bidirected flags must align")
        m = len(self.slots)
        i, j = np.array(self.slots, dtype=np.intp).reshape(m, 2).T
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        off_range = (lo < 1) | (hi > self.n) | (i == j)
        in_block = (hi <= 2 * self.k) & (hi % 2 == 0) & (lo == hi - 1)
        backward = np.fromiter(self.bidirected, bool, m) & (i >= j)
        # a later slot on the same vertex pair as an earlier one; lexsort is stable
        order = np.lexsort((hi, lo))
        repeat = np.zeros(m, dtype=bool)
        repeat[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        bad = np.flatnonzero(off_range | in_block | backward | repeat)
        if bad.size:
            r = bad[0]
            i, j = self.slots[r]
            if off_range[r]:
                raise ValueError(f"slot ({i},{j}) out of range or on the diagonal")
            if in_block[r]:
                raise ValueError(f"slot ({i},{j}) collides with a matched block")
            if backward[r]:
                raise ValueError(f"bidirected slot ({i},{j}) must have i < j")
            raise ValueError(f"duplicate slot for pair {{{i},{j}}}")

    @property
    def l(self) -> int:
        return self.n - 2 * self.k

    @property
    def m(self) -> int:
        return len(self.slots)

    @cached_property
    def entries(self) -> Entries:
        """The parameter-to-position table, built once per pattern."""
        k, n, m = self.k, self.n, self.m
        b = np.arange(2 * k)  # x_j at (a, a) and +-y_j at (a, a ^ 1), a = 2j, 2j+1
        d = np.arange(2 * k, n)
        bi = np.flatnonzero(np.fromiter(self.bidirected, bool, m))
        ij = np.fromiter(chain.from_iterable(self.slots), np.intp, 2 * m).reshape(m, 2) - 1
        fill = np.concatenate([ij, ij[bi, ::-1]])  # u_r, then omega_r mirrored
        coef = np.ones(4 * k + self.l + len(fill))
        coef[2 * k + 1 : 4 * k : 2] = -1.0  # -y_j at (2j+1, 2j)
        return Entries(
            rows=_freeze(np.concatenate([b, b, d, fill[:, 0]])),
            cols=_freeze(np.concatenate([b, b ^ 1, d, fill[:, 1]])),
            coef=_freeze(coef),
            # x_1, x_1, ..., x_k, x_k, y_1, y_1, ..., y_k, y_k, then one each
            param=_freeze(np.concatenate([b.repeat(2), d, np.arange(n, n + m), n + m + bi])),
        )


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of moduli |a_i - b_j|, computed as hypot of the parts.

    ``np.abs`` of a complex array can differ in the last bit from the scalar
    modulus; ``np.hypot`` agrees with it.  The disc radius, and through it
    every written fill entry, is computed from these distances.
    """
    re = np.subtract.outer(a.real, b.real)
    return np.hypot(re, np.subtract.outer(a.imag, b.imag), out=re)


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


def label_eigenvalues(eigs, s: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Assign each eigenvalue to the disc of radius :attr:`Spectrum.radius`
    around a spectrum point; return (coordinates, positions).

    The coordinates are (lam_1..k, mu_1..k, gamma_1..l) read off the plus
    discs and the real intervals; the positions are the indices into
    ``eigs`` of those k plus-disc and l real eigenvalues, in the same order.

    Assignment is by nearest center, then validated: every disc must hold
    exactly one eigenvalue, an eigenvalue assigned to a real interval must
    be exactly real, and every eigenvalue must lie strictly inside its
    disc.  Any violation means the matrix has left the neighborhood where
    the labeling is meaningful and raises DiscViolation.  The
    per-eigenvalue rules report the first offending eigenvalue in input
    order, and the one-per-disc rule the first offending disc in center
    order.

    The i-th eigenvalue is first paired with the i-th center in (real,
    imag) order, the order in which :func:`~giep.linalg.eig_all` returns
    eigenvalues: one distance per eigenvalue.  The centers are more than
    2*radius apart, so an eigenvalue strictly inside its paired disc has
    that center as its unique nearest one.  When every eigenvalue is, the
    pairing is the nearest-center assignment.  Otherwise (an eigenvalue
    outside every disc, or eigenvalues whose order differs from their
    centers') the distances to every center come from one
    eigenvalue-by-center matrix.
    """
    ev = np.atleast_1d(np.asarray(eigs, dtype=complex))
    if ev.size != s.n:
        raise ValueError(f"expected {s.n} eigenvalues, got {ev.size}")
    centers = s.values()
    idx = s._rank
    paired = centers[idx]
    nearest = np.hypot(ev.real - paired.real, ev.imag - paired.imag)
    tied = np.zeros(ev.size, dtype=bool)
    if not np.all(nearest < s.radius):
        dist = _distances(ev, centers)
        idx = np.argmin(dist, axis=1)
        nearest = dist[np.arange(ev.size), idx]
        tied = np.count_nonzero(dist == nearest[:, None], axis=1) > 1
    outside = nearest >= s.radius
    off_axis = (idx >= 2 * s.k) & (ev.imag != 0.0)
    bad = np.flatnonzero(outside | tied | off_axis)
    if bad.size:
        i = bad[0]
        e, c = ev[i], centers[idx[i]]
        if outside[i]:
            raise DiscViolation(
                f"eigenvalue {e} lies in no disc (nearest center {c}, "
                f"distance {nearest[i]:.6g}, radius {s.radius:.6g})"
            )
        if tied[i]:
            raise DiscViolation(f"eigenvalue {e} is equidistant from two discs")
        raise DiscViolation(f"non-real eigenvalue {e} near real target {c.real}")
    counts = np.bincount(idx, minlength=s.n)
    crowded = np.flatnonzero(counts != 1)
    if crowded.size:
        j = crowded[0]
        raise DiscViolation(
            f"disc at {centers[j]} holds {counts[j]} eigenvalues, expected 1"
        )
    pos = np.empty_like(idx)
    pos[idx] = np.arange(ev.size)  # the eigenvalue each disc holds, in center order
    # inside a disc of radius <= mu/2 around lam + i*mu, the imaginary part exceeds mu/2 > 0
    plus = ev[pos[: s.k]]
    tracked = np.concatenate([pos[: s.k], pos[2 * s.k :]])
    return np.concatenate([plus.real, plus.imag, ev[pos[2 * s.k :]].real]), tracked


def spectrum_mismatch(eigs, s: Spectrum) -> float:
    """Greedy nearest-neighbor multiset distance between eigenvalues and targets.

    For each target point, in :meth:`Spectrum.values` order, the nearest
    unused computed eigenvalue is consumed (the earliest one on a tie); the
    result is the largest distance over all assignments.
    """
    ev = np.atleast_1d(np.asarray(eigs, dtype=complex))
    targets = s.values()
    if ev.size != targets.size:
        raise ValueError(f"expected {targets.size} eigenvalues, got {ev.size}")
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
    out_pairs = []
    for item in pairs:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item)
        ):
            raise BadFormat(f"each pair must be [lam, mu], got {item!r}")
        out_pairs.append((float(item[0]), float(item[1])))
    for item in reals:
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise BadFormat(f"each real must be a number, got {item!r}")
    try:
        return Spectrum(pairs=tuple(out_pairs), reals=tuple(float(g) for g in reals))
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
            rows.append([float(tok) for tok in ln.split(",")])
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
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in a) + "\n"


def format_matrix_market(m: np.ndarray) -> str:
    """Coordinate-format export of the nonzero entries, for sparse viewing."""
    a = np.asarray(m, dtype=float)
    rows, cols = a.shape
    entries = [
        f"{i + 1} {j + 1} {a[i, j]:.17g}"
        for i in range(rows)
        for j in range(cols)
        if a[i, j] != 0.0
    ]
    head = ["%%MatrixMarket matrix coordinate real general", f"{rows} {cols} {len(entries)}"]
    return "\n".join(head + entries) + "\n"

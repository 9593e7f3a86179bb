"""Quasi-premetric carriers: point clouds, premetrics, gauges, and axiom checks.

A quasi-premetric eta maps ordered point pairs to [0, inf]. The axioms are
labelled A1 (eta(x, x) = 0), A2 (triangle inequality), A3 (separation:
eta(u, x) > 0 for u != x) and A4 (a sequence-completeness property that can
only be probed on user-supplied sequences). A space carries a *claim* of
axioms; checks report what actually holds on a finite cloud.
"""
from __future__ import annotations

import math
import operator
from collections import abc
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .extreal import ExtReal, as_ext

Point = tuple[float, ...]

A1, A2, A3, A4 = "A1", "A2", "A3", "A4"
_KNOWN_AXIOMS = frozenset({A1, A2, A3, A4})

# Slack for float round-off in derived geometric predicates. Direct
# membership comparisons elsewhere stay exact.
_TRIANGLE_SLACK = 1e-12
_COLLINEARITY_TOL = 1e-9
_UNIT_NORM_TOL = 1e-12
# Lookup tolerance of PointCloud.index_of, per coordinate: relative above 1,
# absolute below. It absorbs the round-off of grids built as start + k * step.
_INDEX_TOL = 1e-9


def as_point(value: float | Sequence[float]) -> Point:
    """Normalize a scalar or coordinate sequence to a point tuple."""
    if isinstance(value, (int, float)):
        return (float(value),)
    return tuple(float(c) for c in value)


@dataclass(frozen=True)
class PointCloud:
    """A finite list of points sharing one coordinate dimension."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("point cloud must be nonempty")
        dim = len(self.points[0])
        for p in self.points:
            if len(p) != dim:
                raise ValueError(f"mixed point dimensions: {dim} vs {len(p)}")

    @classmethod
    def from_grid(cls, start: float, stop: float, step: float) -> "PointCloud":
        """1-D grid start, start + step, ... up to stop (inclusive within half a step)."""
        if step <= 0.0:
            raise ValueError("grid step must be positive")
        count = int(round((stop - start) / step)) + 1
        return cls(tuple((start + k * step,) for k in range(count)))

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def _positions(self) -> dict[Point, int]:
        positions: dict[Point, int] = {}
        for i, p in enumerate(self.points):
            positions.setdefault(p, i)
        return positions

    def index_of(self, point: float | Sequence[float]) -> int:
        """Index of the first exactly equal point (a dict lookup), else of the
        first copy of the one point whose every coordinate lies within
        _INDEX_TOL of the target's (math.isclose with that relative and
        absolute tolerance). KeyError on no match or on several distinct ones."""
        found = self._find(point)
        if found is None:
            raise KeyError(f"point {as_point(point)} not in cloud")
        return found

    def _find(self, point: float | Sequence[float]) -> int | None:
        """index_of's index, or None when no point matches."""
        target = as_point(point)
        if target in self._positions:
            return self._positions[target]
        # Distinct stored values, so copies of one point are one match.
        near = {p for p in self.points if len(p) == len(target)
                and all(math.isclose(a, b, rel_tol=_INDEX_TOL, abs_tol=_INDEX_TOL)
                        for a, b in zip(p, target))}
        if len(near) > 1:
            raise KeyError(f"point {target} matches {len(near)} cloud points")
        return self._positions[near.pop()] if near else None


def _scalar_table(fn: Callable[[Point, Point], float], a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Matrix of fn(a_i, b_j) over the rows of two coordinate arrays."""
    cols = [tuple(q) for q in b.tolist()]
    return np.array([[fn(p, q) for q in cols] for p in map(tuple, a.tolist())],
                    dtype=float).reshape(len(a), len(b))


@dataclass(frozen=True)
class QuasiPremetric:
    """A quasi-premetric on points, together with the axioms it claims.

    Given in exactly one form, a scalar fn(x, u) on point tuples or a table(A,
    B) of values between the rows of two coordinate arrays; the other form is
    derived, so a call and the pairwise entry are the same float.
    """

    fn: Callable[[Point, Point], float] | None = None
    axioms_claimed: frozenset[str] = frozenset()
    name: str = "premetric"
    table: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.fn is None) == (self.table is None):
            raise ValueError("a premetric needs exactly one of fn and table")
        unknown = set(self.axioms_claimed) - _KNOWN_AXIOMS
        if unknown:
            raise ValueError(f"unknown axioms claimed: {sorted(unknown)}")

    def __call__(self, x: float | Sequence[float], u: float | Sequence[float]) -> ExtReal:
        px, pu = as_point(x), as_point(u)
        if len(px) != len(pu):
            raise ValueError(f"dimension mismatch: {len(px)} vs {len(pu)}")
        if self.fn is not None:
            value = self.fn(px, pu)
        else:
            value = float(self.table(np.array([px]), np.array([pu]))[0, 0])
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"premetric produced invalid value {value} at ({px}, {pu})")
        return as_ext(value)

    def unchecked_pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """pairwise(a, b) with its nan and negative entries left in place."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        if self.fn is not None:
            return _scalar_table(self.fn, a, b)
        return np.asarray(self.table(a, b), dtype=float)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix of eta(a_i, b_j); rejects its first nan or negative entry
        (row-major) as a call would."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        out = self.unchecked_pairwise(a, b)
        bad = np.isnan(out) | (out < 0.0)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"premetric produced invalid value {float(out[i, j])} at "
                             f"({tuple(a[i].tolist())}, {tuple(b[j].tolist())})")
        return out

    def conjugate(self) -> "QuasiPremetric":
        """Swap the arguments. A1-A3 claims carry over; A4 does not survive."""
        base, table = self.fn, self.table
        return replace(
            self,
            fn=None if base is None else (lambda x, u: base(u, x)),
            table=None if table is None else (lambda a, b: table(b, a).T),
            axioms_claimed=frozenset(self.axioms_claimed - {A4}),
            name=f"{self.name}.conjugate",
        )

    def scaled(self, factor: float) -> "QuasiPremetric":
        if factor <= 0.0 or math.isinf(factor):
            raise ValueError("scale factor must be positive and finite")
        base, table = self.fn, self.table
        return replace(
            self,
            fn=None if base is None else (lambda x, u: factor * base(x, u)),
            table=None if table is None else (lambda a, b: factor * table(a, b)),
            name=f"{self.name}.scaled({factor})",
        )


def _euclidean_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Squares summed coordinate by coordinate, elementwise, so an entry does
    # not depend on the shape of the table it sits in.
    total = np.zeros((len(a), len(b)))
    for k in range(a.shape[1]):
        diff = a[:, None, k] - b[None, :, k]
        total += diff * diff
    return np.sqrt(total)


def _length(v: Sequence[float]) -> float:
    """Euclidean length of a vector, squares summed in _euclidean_table's order."""
    total = 0.0
    for c in v:
        total += c * c
    return math.sqrt(total)


EUCLIDEAN = QuasiPremetric(table=_euclidean_table,
                           axioms_claimed=frozenset({A1, A2, A3, A4}), name="euclidean")


def euclidean_premetric() -> QuasiPremetric:
    return EUCLIDEAN


@dataclass(frozen=True)
class DirectionSet:
    """Unit directions spanning a sampled cone."""

    directions: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.directions:
            raise ValueError("direction set must be nonempty")
        dim = len(self.directions[0])
        for d in self.directions:
            if len(d) != dim:
                raise ValueError("mixed direction dimensions")
            norm = _length(d)
            if abs(norm - 1.0) > _UNIT_NORM_TOL:
                raise ValueError(f"direction {d} is not unit (norm {norm})")

    @property
    def dimension(self) -> int:
        return len(self.directions[0])

    @classmethod
    def normalized(cls, vectors: Iterable[Sequence[float]]) -> "DirectionSet":
        out = []
        for v in vectors:
            p = as_point(v)
            norm = _length(p)
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            out.append(tuple(c / norm for c in p))
        return cls(tuple(out))


def directional_time(directions: DirectionSet, x: float | Sequence[float],
                     u: float | Sequence[float]) -> ExtReal:
    """Minimal time to reach u from x along the sampled cone.

    Equals |u - x| when the displacement is (within tolerance 1e-9) a
    nonnegative multiple of a listed direction, 0 at u = x, and +inf
    otherwise. It is the 1x1 entry of the directional gauge's table.
    """
    return directional_gauge(directions)(x, u)


def _cone_table(directions: DirectionSet, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cone time from each row of a to each row of b, elementwise: the
    displacement b_j - a_i, its length from _euclidean_table, the unit
    vector, and a hit when the unit vector lies within _COLLINEARITY_TOL of
    some direction."""
    if a.shape[1] != directions.dimension:
        raise ValueError(f"dimension mismatch: points have dimension {a.shape[1]}, "
                         f"directions {directions.dimension}")
    # Float arithmetic as in Python, with no warnings: a zero displacement
    # divides 0 by 0, and its nan unit vector hits nothing (the entry is set
    # to 0 below); huge coordinates overflow to inf.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta = [b[None, :, k] - a[:, None, k] for k in range(a.shape[1])]
        norm = _euclidean_table(a, b)
        hit = np.zeros(norm.shape, dtype=bool)
        unit = [c / norm for c in delta]
        for d in directions.directions:
            gap = np.zeros(norm.shape)
            for c, dk in zip(unit, d):
                diff = c - dk
                gap += diff * diff
            hit |= np.sqrt(gap) <= _COLLINEARITY_TOL
    return np.where(norm == 0.0, 0.0, np.where(hit, norm, math.inf))


def directional_gauge(directions: DirectionSet) -> QuasiPremetric:
    """Table-form premetric whose entries are directional_time for a fixed
    direction set. It is asymmetric, and its table is not symmetrized.

    It claims A2 only when every direction lies within _COLLINEARITY_TOL of
    plus or minus the first: then the sampled cone is a ray or a line, which
    sums of displacements do not leave. Two directions further apart span a
    cone wider than their union, and the triangle inequality fails there.
    Points whose dimension differs from the directions' raise ValueError.
    """
    first = directions.directions[0]
    collinear = all(min(_length([a - b for a, b in zip(d, first)]),
                        _length([a + b for a, b in zip(d, first)])) <= _COLLINEARITY_TOL
                    for d in directions.directions)
    return QuasiPremetric(
        table=lambda a, b: _cone_table(directions, a, b),
        axioms_claimed=frozenset({A1, A2, A3} if collinear else {A1, A3}),
        name="directional",
    )


@dataclass(frozen=True)
class PartialMetric:
    """A partial metric: symmetric in role, but self-distances may be positive."""

    fn: Callable[[Point, Point], float]
    name: str = "partial"

    def __call__(self, x: float | Sequence[float], u: float | Sequence[float]) -> float:
        return self.fn(as_point(x), as_point(u))


class PartialMetricError(ValueError):
    """Raised when a partial metric violates its invariants on a cloud."""


def induce_from_partial(zeta: PartialMetric, cloud: PointCloud) -> QuasiPremetric:
    """Build eta(x, u) = zeta(x, u) - zeta(x, x), validating zeta on the cloud.

    Validation is exhaustive: small self-distances on every ordered pair and
    the corrected triangle inequality on every ordered triple. A violation is
    rejected with a witness.

    eta is given in table form: an n x m table calls zeta n * m + n times,
    once per pair and once per row point, and a call, a table entry and
    zeta(x, u) - zeta(x, x) are the same float. A table between the cloud's
    own coordinates, bit for bit, is read from the validated values and
    calls zeta not at all.
    """
    pts = cloud.points
    coords = np.asarray(pts, dtype=float)
    zmat = _scalar_table(zeta.fn, coords, coords)
    diag = np.diag(zmat)
    with np.errstate(invalid="ignore"):
        small = diag[:, None] > _slack_bound(zmat, np.empty_like(zmat))
    if small.any():
        i, j = np.argwhere(small)[0]
        raise PartialMetricError(
            f"self-distance exceeds pair distance at ({pts[i]}, {pts[j]}): "
            f"{float(zmat[i, i])} > {float(zmat[i, j])}"
        )
    first = next(_triangle_scan(zmat, diag), None)
    if first is not None:
        i, kj = first
        k, j = divmod(int(kj[0]), len(pts))
        raise PartialMetricError(
            f"corrected triangle fails at ({pts[i]}, {pts[k]}, {pts[j]}): "
            f"{float(zmat[i, j])} > {float(zmat[i, k] + zmat[k, j] - diag[k])}"
        )
    base = zeta.fn
    key = coords.tobytes()
    with np.errstate(invalid="ignore", over="ignore"):  # as in Python floats
        validated = zmat - diag[:, None]

    def table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape == b.shape == coords.shape and a.tobytes() == b.tobytes() == key:
            return validated.copy()
        own = np.array([base(p, p) for p in map(tuple, a.tolist())], dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            return _scalar_table(base, a, b) - own[:, None]

    return QuasiPremetric(
        table=table,
        axioms_claimed=frozenset({A1, A2}),
        name=f"induced({zeta.name})",
    )


@dataclass(frozen=True)
class SequenceCheck:
    """Outcome of the completeness probe on one index sequence."""

    indices: tuple[int, ...]
    premise_met: bool
    limit_found: bool
    limit_point: Point | None


# Witnesses built into tuples per step when a witness sequence is iterated.
_WITNESS_CHUNK = 65536


class TriangleWitnesses(abc.Sequence):
    """The A2 witnesses (x_i, x_k, x_j, eta(x_i, x_j), eta(x_i, x_k) +
    eta(x_k, x_j)) of one cloud, in (i, k, j) order.

    They are kept as one int64 array of cells (i * n + k) * n + j over the
    cloud's n points, next to the premetric table; a witness tuple is built
    only when it is read, its two values read from the table (the right side
    is summed again, the same float the scan compared). The sequence reads as
    the tuple of those witnesses: it gives the tuple's items, slices (as
    tuples), equality, hash and repr, and it pickles.
    """

    __slots__ = ("_points", "_table", "_cells", "_objects")

    def __init__(self, points: tuple[Point, ...], table: np.ndarray, cells: np.ndarray):
        self._points, self._table, self._cells = points, table, cells
        # The points as an object array, so a chunk's points are gathered by
        # one fancy index per coordinate slot.
        self._objects = np.fromiter(points, dtype=object, count=len(points))

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._build(index)
        pos = operator.index(index)
        if pos < 0:
            pos += len(self)
        if not 0 <= pos < len(self):
            raise IndexError("witness index out of range")
        return self._build(slice(pos, pos + 1))[0]

    def _build(self, sel: slice) -> tuple[tuple, ...]:
        objects, table = self._objects, self._table
        ik, j = np.divmod(self._cells[sel], len(objects))
        i, k = np.divmod(ik, len(objects))
        # A list first: the tuple is then allocated once, at its full size.
        return tuple([*zip(objects[i].tolist(), objects[k].tolist(), objects[j].tolist(),
                           table[i, j].tolist(), (table[i, k] + table[k, j]).tolist())])

    def __iter__(self):
        for lo in range(0, len(self), _WITNESS_CHUNK):
            yield from self._build(slice(lo, lo + _WITNESS_CHUNK))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, TriangleWitnesses)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return (type(self), (self._points, self._table, self._cells))


@dataclass(frozen=True)
class AxiomCheck:
    """Status of one axiom on a cloud, with every violation found.

    A1 and A3 violations are tuples. A failing A2 check keeps its witnesses
    compact, as TriangleWitnesses, and builds each tuple when it is read; it
    equals, hashes and prints as the tuple of those witnesses.
    """

    status: str  # "pass" | "fail" | "not-assessed"
    violations: Sequence[tuple] = ()


@dataclass(frozen=True)
class AxiomReport:
    checks: Mapping[str, AxiomCheck]
    sequence_results: tuple[SequenceCheck, ...] = ()
    claimed: frozenset[str] = frozenset()

    @property
    def claimed_ok(self) -> bool:
        return all(self.checks[a].status != "fail" for a in self.claimed)


def _slack_bound(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """r + max(|r|, 1) * _TRIANGLE_SLACK into out: the largest left side that
    does not break a triangle with right side r. Nondecreasing in r up to
    +inf; nan at r = -inf and at nan."""
    np.abs(r, out=out)
    np.maximum(out, 1.0, out=out)
    np.multiply(out, _TRIANGLE_SLACK, out=out)
    return np.add(r, out, out=out)


def _triangle_scan(m: np.ndarray, diag: np.ndarray | None = None):
    """Per row i breaking m[i, j] <= m[i, k] + m[k, j] (- diag[k]) beyond
    _TRIANGLE_SLACK, yield (i, kj): the violating cells k * n + j in
    row-major order. A caller that sums m[i, k] + m[k, j] (- diag[k]) again
    gets the right side the scan compared. A nan right side never violates.

    A row is screened first: as the slack bound is nondecreasing, a row
    whose every m[i, j] lies within the bound of its column's least right
    side breaks no triangle and is skipped. The screen's <= is false on a
    nan (an all-nan column, a -inf right side, a nan entry), so such a row
    is tested cell by cell, as is every row the screen flags. A row after
    a violating row skips the screen, which seldom clears it (every row of
    the squared distance's table violates). Buffers are allocated once per
    scan, so the scan does not allocate per row beyond the cells it yields.
    """
    n = len(m)
    rhs, bound = np.empty((n, n)), np.empty((n, n))
    low, low_bound = np.empty(n), np.empty(n)
    bad = np.empty((n, n), dtype=bool)
    screen = True
    for i in range(n):
        with np.errstate(invalid="ignore"):
            np.add(m[i][:, None], m, out=rhs)
            if diag is not None:
                np.subtract(rhs, diag[:, None], out=rhs)
            if screen:
                np.fmin.reduce(rhs, axis=0, out=low)
                if np.less_equal(m[i], _slack_bound(low, low_bound)).all():
                    continue
            np.greater(m[i][None, :], _slack_bound(rhs, bound), out=bad)
        kj = np.flatnonzero(bad)
        screen = not kj.size
        if kj.size:
            yield i, kj


def check_axioms(space: QuasiPremetric, cloud: PointCloud,
                 sequences: Sequence[Sequence[int]] | None = None,
                 completeness_tol: float = 1e-6) -> AxiomReport:
    """Exhaustively test A1-A3 on the cloud; test A4 on the given sequences.

    A4 is assessed per sequence: if the tail of eta(u_j, u_k) (later to
    earlier) sits below completeness_tol from some cutoff on, a cloud point u
    with tail eta(u, u_k) below the tolerance must exist. Without sequences
    the A4 status is "not-assessed".
    """
    pts = cloud.points
    n = len(pts)
    coords = np.asarray(pts, dtype=float)
    table = space.pairwise(coords, coords)
    diag = table.diagonal().tolist()

    a1_violations = tuple((pts[i], diag[i]) for i in range(n) if diag[i] != 0.0)
    a1 = AxiomCheck("fail" if a1_violations else "pass", a1_violations)

    cells = []
    for i, kj in _triangle_scan(table):
        kj += i * n * n  # the witness (i, k, j) as the cell (i * n + k) * n + j
        cells.append(kj)
    if cells:
        a2 = AxiomCheck("fail", TriangleWitnesses(pts, table, np.concatenate(cells)))
    else:
        a2 = AxiomCheck("pass")

    # Distinct points at premetric 0, in row-major order: two indices hold
    # equal points exactly when the points first occur at the same index.
    first = np.fromiter(map(cloud._positions.__getitem__, pts), dtype=np.int64, count=n)
    i, j = np.nonzero(table == 0.0)
    keep = first[i] != first[j]
    i, j = i[keep], j[keep]
    objects = np.fromiter(pts, dtype=object, count=n)
    a3_violations = tuple([*zip(objects[i].tolist(), objects[j].tolist(),
                                table[i, j].tolist())])
    a3 = AxiomCheck("fail" if a3_violations else "pass", a3_violations)

    seq_results: list[SequenceCheck] = []
    for seq in sequences or ():
        idx = tuple(int(i) for i in seq)
        if any(i < 0 or i >= n for i in idx):
            raise ValueError(f"sequence index out of range: {idx}")
        cutoff = _cauchy_cutoff(table, idx, completeness_tol)
        if cutoff is None:
            seq_results.append(SequenceCheck(idx, False, False, None))
            continue
        limits = np.flatnonzero((table[:, list(idx[cutoff:])] <= completeness_tol).all(axis=1))
        found = pts[limits[0]] if limits.size else None
        seq_results.append(SequenceCheck(idx, True, found is not None, found))
    assessed = [s for s in seq_results if s.premise_met]
    if not assessed:
        a4 = AxiomCheck("not-assessed")
    elif all(s.limit_found for s in assessed):
        a4 = AxiomCheck("pass")
    else:
        a4 = AxiomCheck("fail", tuple(s.indices for s in assessed if not s.limit_found))

    return AxiomReport(
        checks={A1: a1, A2: a2, A3: a3, A4: a4},
        sequence_results=tuple(seq_results),
        claimed=space.axioms_claimed,
    )


def _cauchy_cutoff(eta: np.ndarray, idx: tuple[int, ...], tol: float) -> int | None:
    """Earliest position after which all later-to-earlier values stay below tol."""
    late = np.tril(~(eta[np.ix_(idx, idx)] < tol), -1)  # late[j, k]: j after k
    cutoff = int(np.nonzero(late)[1].max()) + 1 if late.any() else 0
    return cutoff if cutoff < len(idx) - 1 else None


def premetric_ball(space: QuasiPremetric, cloud: PointCloud,
                   center: float | Sequence[float], radius,
                   closed: bool = False) -> tuple[Point, ...]:
    """Forward ball {u : eta(center, u) < r} (or <= r when closed).

    Strict comparisons are exact; radius may be an ExtReal (+inf selects the
    whole cloud). An open ball of radius 0 is empty, a closed one keeps the
    points at premetric 0 from the center.
    """
    r = float(as_ext(radius))
    values = space.pairwise(np.array([as_point(center)]),
                            np.asarray(cloud.points, dtype=float))[0]
    inside = values <= r if closed else values < r
    return tuple(p for p, keep in zip(cloud.points, inside.tolist()) if keep)

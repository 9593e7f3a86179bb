"""Quasi-premetric carriers: point clouds, premetrics, gauges, and axiom checks.

A quasi-premetric eta maps ordered point pairs to [0, inf]. The axioms are
labelled A1 (eta(x, x) = 0), A2 (triangle inequality), A3 (separation:
eta(u, x) > 0 for u != x) and A4 (a sequence-completeness property that can
only be probed on user-supplied sequences). A space carries a *claim* of
axioms; checks report what actually holds on a finite cloud.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
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
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("point cloud must be nonempty")
        dim = len(self.points[0])
        for p in self.points:
            if len(p) != dim:
                raise ValueError(f"mixed point dimensions: {dim} vs {len(p)}")
        if self.labels is not None and len(self.labels) != len(self.points):
            raise ValueError("labels must align with points")

    @classmethod
    def from_points(cls, values: Iterable[float | Sequence[float]]) -> "PointCloud":
        return cls(tuple(as_point(v) for v in values))

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
        one point whose every coordinate lies within _INDEX_TOL of the
        target's (math.isclose with that relative and absolute tolerance).
        KeyError on no match or several."""
        target = as_point(point)
        if target in self._positions:
            return self._positions[target]
        near = [i for i, p in enumerate(self.points) if len(p) == len(target)
                and all(math.isclose(a, b, rel_tol=_INDEX_TOL, abs_tol=_INDEX_TOL)
                        for a, b in zip(p, target))]
        if len(near) == 1:
            return near[0]
        if near:
            raise KeyError(f"point {target} matches {len(near)} cloud points")
        raise KeyError(f"point {target} not in cloud")


def _scalar_table(fn: Callable[[Point, Point], float], a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Matrix of fn(a_i, b_j) over the rows of two coordinate arrays."""
    cols = [tuple(q) for q in b.tolist()]
    return np.array([[fn(tuple(p), q) for q in cols] for p in a.tolist()],
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

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix of eta(a_i, b_j); rejects its first nan or negative entry
        (row-major) as a call would."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        if self.fn is not None:
            out = _scalar_table(self.fn, a, b)
        else:
            out = np.asarray(self.table(a, b), dtype=float)
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

    def negated(self) -> "DirectionSet":
        return DirectionSet(tuple(tuple(-c for c in d) for d in self.directions))


def directional_time(directions: DirectionSet, x: float | Sequence[float],
                     u: float | Sequence[float]) -> ExtReal:
    """Minimal time to reach u from x along the sampled cone.

    Equals |u - x| when the displacement is (within tolerance 1e-9) a
    nonnegative multiple of a listed direction, 0 at u = x, and +inf
    otherwise.
    """
    return as_ext(_cone_time(directions, as_point(x), as_point(u)))


def _cone_time(directions: DirectionSet, px: Point, pu: Point) -> float:
    if len(px) != len(pu):
        raise ValueError("dimension mismatch")
    delta = tuple(b - a for a, b in zip(px, pu))
    norm = _length(delta)
    if norm == 0.0:
        return 0.0
    unit = tuple(c / norm for c in delta)
    for d in directions.directions:
        if _length(tuple(a - b for a, b in zip(unit, d))) <= _COLLINEARITY_TOL:
            return norm
    return math.inf


def directional_gauge(directions: DirectionSet, convex_cone: bool = True) -> QuasiPremetric:
    """Premetric induced by directional_time for a fixed direction set.

    The triangle claim A2 is sound when the sampled cone is convex (always
    true for a single direction); pass convex_cone=False to drop the claim.
    """
    claims = {A1, A3}
    if convex_cone:
        claims.add(A2)
    return QuasiPremetric(
        fn=lambda x, u: _cone_time(directions, x, u),
        axioms_claimed=frozenset(claims),
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
    """
    pts = cloud.points
    coords = np.asarray(pts, dtype=float)
    zmat = _scalar_table(zeta.fn, coords, coords)
    diag = np.diag(zmat)
    with np.errstate(invalid="ignore"):
        small = diag[:, None] > zmat + _TRIANGLE_SLACK * np.maximum(1.0, np.abs(zmat))
    if small.any():
        i, j = np.argwhere(small)[0]
        raise PartialMetricError(
            f"self-distance exceeds pair distance at ({pts[i]}, {pts[j]}): "
            f"{float(zmat[i, i])} > {float(zmat[i, j])}"
        )
    first = next(_triangle_scan(zmat, diag), None)
    if first is not None:
        i, ks, js, rhs = first
        raise PartialMetricError(
            f"corrected triangle fails at ({pts[i]}, {pts[ks[0]]}, {pts[js[0]]}): "
            f"{float(zmat[i, js[0]])} > {float(rhs[0])}"
        )
    base = zeta.fn
    return QuasiPremetric(
        fn=lambda x, u: base(x, u) - base(x, x),
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


@dataclass(frozen=True)
class AxiomCheck:
    status: str  # "pass" | "fail" | "not-assessed"
    violations: tuple[tuple, ...] = ()


@dataclass(frozen=True)
class AxiomReport:
    checks: Mapping[str, AxiomCheck]
    sequence_results: tuple[SequenceCheck, ...] = ()
    claimed: frozenset[str] = frozenset()

    @property
    def claimed_ok(self) -> bool:
        return all(self.checks[a].status != "fail" for a in self.claimed)


def _triangle_scan(m: np.ndarray, diag: np.ndarray | None = None):
    """Per row i breaking m[i, j] <= m[i, k] + m[k, j] (- diag[k]) beyond
    _TRIANGLE_SLACK, yield (i, ks, js, rhs): the violating (k, j) in row-major
    order and their right sides. A nan right side never violates."""
    for i in range(len(m)):
        with np.errstate(invalid="ignore"):
            rhs = m[i][:, None] + m
            if diag is not None:
                rhs -= diag[:, None]
            bad = m[i][None, :] > rhs + _TRIANGLE_SLACK * np.maximum(1.0, np.abs(rhs))
        if bad.any():
            ks, js = np.nonzero(bad)
            yield i, ks, js, rhs[ks, js]


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
    eta = table.tolist()

    a1_violations = tuple((pts[i], eta[i][i]) for i in range(n) if eta[i][i] != 0.0)
    a1 = AxiomCheck("fail" if a1_violations else "pass", a1_violations)

    # A witness's lhs is the entry of eta itself, shared by every k, so a
    # long witness list holds one new float per witness, not two.
    a2_violations: list[tuple] = []
    for i, ks, js, rhs in _triangle_scan(table):
        row, js = eta[i], js.tolist()
        a2_violations += zip(repeat(pts[i]), [pts[k] for k in ks.tolist()],
                             [pts[j] for j in js], [row[j] for j in js], rhs.tolist())
    a2 = AxiomCheck("fail" if a2_violations else "pass", tuple(a2_violations))

    a3_violations = tuple((pts[i], pts[j], eta[i][j])
                          for i, j in np.argwhere(table == 0.0).tolist()
                          if i != j and pts[i] != pts[j])
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

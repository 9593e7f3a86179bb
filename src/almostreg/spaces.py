"""Quasi-premetric carriers: point clouds, premetrics, gauges, and axiom checks.

A quasi-premetric eta maps ordered point pairs to [0, inf]. The axioms are
labelled A1 (eta(x, x) = 0), A2 (triangle inequality), A3 (separation:
eta(u, x) > 0 for u != x) and A4 (a sequence-completeness property that can
only be probed on user-supplied sequences). A space carries a *claim* of
axioms; checks report what actually holds on a finite cloud.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

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

    def index_of(self, point: float | Sequence[float]) -> int:
        """Index of an exactly equal point, else of the one point whose every
        coordinate lies within _INDEX_TOL of the target's (math.isclose with
        that relative and absolute tolerance). KeyError on no match or several."""
        target = as_point(point)
        try:
            return self.points.index(target)
        except ValueError:
            pass
        near = [i for i, p in enumerate(self.points) if len(p) == len(target)
                and all(math.isclose(a, b, rel_tol=_INDEX_TOL, abs_tol=_INDEX_TOL)
                        for a, b in zip(p, target))]
        if len(near) == 1:
            return near[0]
        if near:
            raise KeyError(f"point {target} matches {len(near)} cloud points")
        raise KeyError(f"point {target} not in cloud")


@dataclass(frozen=True)
class QuasiPremetric:
    """A quasi-premetric on points, together with the axioms it claims."""

    fn: Callable[[Point, Point], float]
    axioms_claimed: frozenset[str] = frozenset()
    name: str = "premetric"

    def __post_init__(self) -> None:
        unknown = set(self.axioms_claimed) - _KNOWN_AXIOMS
        if unknown:
            raise ValueError(f"unknown axioms claimed: {sorted(unknown)}")

    def __call__(self, x: float | Sequence[float], u: float | Sequence[float]) -> ExtReal:
        px, pu = as_point(x), as_point(u)
        if len(px) != len(pu):
            raise ValueError(f"dimension mismatch: {len(px)} vs {len(pu)}")
        value = self.fn(px, pu)
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"premetric produced invalid value {value} at ({px}, {pu})")
        return as_ext(value)

    def conjugate(self) -> "QuasiPremetric":
        """Swap the arguments. A1-A3 claims carry over; A4 does not survive."""
        base = self.fn
        claims = frozenset(self.axioms_claimed - {A4})
        return QuasiPremetric(
            fn=lambda x, u: base(u, x),
            axioms_claimed=claims,
            name=f"{self.name}.conjugate",
        )

    def scaled(self, factor: float) -> "QuasiPremetric":
        if factor <= 0.0 or math.isinf(factor):
            raise ValueError("scale factor must be positive and finite")
        base = self.fn
        return QuasiPremetric(
            fn=lambda x, u: factor * base(x, u),
            axioms_claimed=self.axioms_claimed,
            name=f"{self.name}.scaled({factor})",
        )


def euclidean_premetric() -> QuasiPremetric:
    return QuasiPremetric(
        fn=lambda x, u: math.sqrt(sum((a - b) ** 2 for a, b in zip(x, u))),
        axioms_claimed=frozenset({A1, A2, A3, A4}),
        name="euclidean",
    )


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
            norm = math.sqrt(sum(c * c for c in d))
            if abs(norm - 1.0) > _UNIT_NORM_TOL:
                raise ValueError(f"direction {d} is not unit (norm {norm})")

    @classmethod
    def normalized(cls, vectors: Iterable[Sequence[float]]) -> "DirectionSet":
        out = []
        for v in vectors:
            p = as_point(v)
            norm = math.sqrt(sum(c * c for c in p))
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
    px, pu = as_point(x), as_point(u)
    if len(px) != len(pu):
        raise ValueError("dimension mismatch")
    delta = tuple(b - a for a, b in zip(px, pu))
    norm = math.sqrt(sum(c * c for c in delta))
    if norm == 0.0:
        return as_ext(0.0)
    unit = tuple(c / norm for c in delta)
    for d in directions.directions:
        gap = math.sqrt(sum((a - b) ** 2 for a, b in zip(unit, d)))
        if gap <= _COLLINEARITY_TOL:
            return as_ext(norm)
    return as_ext(math.inf)


def directional_gauge(directions: DirectionSet, convex_cone: bool = True) -> QuasiPremetric:
    """Premetric induced by directional_time for a fixed direction set.

    The triangle claim A2 is sound when the sampled cone is convex (always
    true for a single direction); pass convex_cone=False to drop the claim.
    """
    claims = {A1, A3}
    if convex_cone:
        claims.add(A2)
    return QuasiPremetric(
        fn=lambda x, u: float(directional_time(directions, x, u)),
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
    zmat = [[zeta.fn(a, b) for b in pts] for a in pts]
    n = len(pts)
    for i in range(n):
        for j in range(n):
            if zmat[i][i] > zmat[i][j] + _TRIANGLE_SLACK * max(1.0, abs(zmat[i][j])):
                raise PartialMetricError(
                    f"self-distance exceeds pair distance at ({pts[i]}, {pts[j]}): "
                    f"{zmat[i][i]} > {zmat[i][j]}"
                )
    for i in range(n):
        for k in range(n):
            for j in range(n):
                lhs = zmat[i][j]
                rhs = zmat[i][k] + zmat[k][j] - zmat[k][k]
                if lhs > rhs + _TRIANGLE_SLACK * max(1.0, abs(rhs)):
                    raise PartialMetricError(
                        f"corrected triangle fails at ({pts[i]}, {pts[k]}, {pts[j]}): "
                        f"{lhs} > {rhs}"
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
    eta = [[float(space(pts[i], pts[j])) for j in range(n)] for i in range(n)]

    a1_violations = tuple((pts[i], eta[i][i]) for i in range(n) if eta[i][i] != 0.0)
    a1 = AxiomCheck("fail" if a1_violations else "pass", a1_violations)

    a2_violations = []
    for i in range(n):
        for k in range(n):
            for j in range(n):
                lhs = eta[i][j]
                rhs = eta[i][k] + eta[k][j]
                if math.isinf(rhs):
                    continue
                if lhs > rhs + _TRIANGLE_SLACK * max(1.0, abs(rhs)):
                    a2_violations.append((pts[i], pts[k], pts[j], lhs, rhs))
    a2 = AxiomCheck("fail" if a2_violations else "pass", tuple(a2_violations))

    a3_violations = tuple(
        (pts[i], pts[j], eta[i][j])
        for i in range(n)
        for j in range(n)
        if i != j and pts[i] != pts[j] and eta[i][j] == 0.0
    )
    a3 = AxiomCheck("fail" if a3_violations else "pass", a3_violations)

    seq_results: list[SequenceCheck] = []
    if sequences:
        for seq in sequences:
            idx = tuple(int(i) for i in seq)
            if any(i < 0 or i >= n for i in idx):
                raise ValueError(f"sequence index out of range: {idx}")
            cutoff = _cauchy_cutoff(eta, idx, completeness_tol)
            if cutoff is None:
                seq_results.append(SequenceCheck(idx, False, False, None))
                continue
            tail = idx[cutoff:]
            found = None
            for cand in range(n):
                if all(eta[cand][k] <= completeness_tol for k in tail):
                    found = pts[cand]
                    break
            seq_results.append(SequenceCheck(idx, True, found is not None, found))
        assessed = [s for s in seq_results if s.premise_met]
        if not assessed:
            a4 = AxiomCheck("not-assessed")
        elif all(s.limit_found for s in assessed):
            a4 = AxiomCheck("pass")
        else:
            bad = tuple(s.indices for s in assessed if not s.limit_found)
            a4 = AxiomCheck("fail", bad)
    else:
        a4 = AxiomCheck("not-assessed")

    return AxiomReport(
        checks={A1: a1, A2: a2, A3: a3, A4: a4},
        sequence_results=tuple(seq_results),
        claimed=space.axioms_claimed,
    )


def _cauchy_cutoff(eta: list[list[float]], idx: tuple[int, ...], tol: float) -> int | None:
    """Earliest position after which all later-to-earlier values stay below tol."""
    m = len(idx)
    for k0 in range(m - 1):
        ok = True
        for k in range(k0, m):
            for j in range(k + 1, m):
                if not eta[idx[j]][idx[k]] < tol:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return k0
    return None


def premetric_ball(space: QuasiPremetric, cloud: PointCloud,
                   center: float | Sequence[float], radius,
                   closed: bool = False) -> tuple[Point, ...]:
    """Forward ball {u : eta(center, u) < r} (or <= r when closed).

    Strict comparisons are exact; radius may be an ExtReal (+inf selects the
    whole cloud). An open ball of radius 0 is empty, a closed one keeps the
    points at premetric 0 from the center.
    """
    r = as_ext(radius)
    c = as_point(center)
    out = []
    for p in cloud.points:
        value = space(c, p)
        inside = value <= r if closed else value < r
        if inside:
            out.append(p)
    return tuple(out)

"""Constructive descent traces for variational principles on finite clouds.

The generator mimics the sequential construction behind the variational
principle: at each step it collects the strict-improvement candidates,
records the infimum of the objective over them, and either stops (no
candidates) or moves to the exact minimizer. Derived selectors return
approximate stationary points with explicit certificates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .extreal import INF, ExtReal, as_ext
from .spaces import A2, Point, PointCloud, QuasiPremetric, as_point

ALPHA_INFINITE = "alpha-infinite"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class Objective:
    """A [0, inf]-valued objective evaluable on points."""

    fn: Callable[[Point], float]
    name: str = "objective"

    def __call__(self, point: float | Sequence[float]) -> ExtReal:
        value = self.fn(as_point(point))
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"objective produced invalid value {value}")
        return as_ext(value)

    @classmethod
    def from_table(cls, cloud: PointCloud, values: Sequence[float],
                   name: str = "table") -> "Objective":
        if len(values) != len(cloud):
            raise ValueError("value table must align with the cloud")
        table = {p: float(v) for p, v in zip(cloud.points, values)}

        def lookup(point: Point) -> float:
            try:
                return table[point]
            except KeyError:
                raise KeyError(f"objective table has no entry for {point}") from None

        return cls(lookup, name=name)


@dataclass(frozen=True)
class EkelandTrace:
    """A recorded descent trace.

    points[k] carries the k-th iterate, values[k] its objective value,
    step_infima[k] the infimum of the objective over that iterate's strict
    improvement candidates (+inf exactly when the construction stopped
    there), and slack[k] the tolerance 1/(k+1) the selection was allowed
    (the exact minimizer is always chosen, so the slack is never active).
    """

    points: tuple[Point, ...]
    values: tuple[float, ...]
    step_infima: tuple[ExtReal, ...]
    slack: tuple[float, ...]
    termination: str

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("trace must contain at least one point")
        if not (len(self.points) == len(self.values) == len(self.step_infima)):
            raise ValueError("trace fields must align")
        if len(self.slack) != len(self.points) - 1:
            raise ValueError("slack aligns with selections, one per extension")
        if self.termination not in (ALPHA_INFINITE, BUDGET_EXHAUSTED):
            raise ValueError(f"unknown termination {self.termination!r}")
        for a, b in zip(self.values, self.values[1:]):
            if not b < a:
                raise ValueError("trace values must be strictly decreasing")
        if self.termination == ALPHA_INFINITE and not self.step_infima[-1].is_infinite:
            raise ValueError("alpha-infinite termination requires infinite final infimum")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TraceVerification:
    chain_ok: bool
    chain_violations: tuple[tuple[Point, Point], ...]
    stationary_index: int | None  # least 1-based n valid for the given epsilon
    point_ok: tuple[bool, ...]


@dataclass(frozen=True)
class EkelandCertificate:
    point: Point
    epsilon: float
    descent_ok: bool
    stationarity_ok: bool
    descent_gap: float  # rhs - lhs of the descent bound, nonnegative when ok
    witness: Point | None  # stationarity violator if any


@dataclass(frozen=True)
class TwoConstantResult:
    point: Point
    scale: float
    descent_ok: bool
    stationarity_ok: bool
    radius_ok: bool
    certificate: EkelandCertificate


def _matrix(space: QuasiPremetric, cloud: PointCloud) -> np.ndarray:
    coords = np.asarray(cloud.points, dtype=float)
    return space.pairwise(coords, coords)


def _values(objective: Objective, cloud: PointCloud) -> list[float]:
    return [float(objective(p)) for p in cloud.points]


def _require_triangle(space: QuasiPremetric) -> None:
    if A2 not in space.axioms_claimed:
        raise ValueError("premetric must claim the triangle axiom A2")


def generate_trace(cloud: PointCloud, space: QuasiPremetric, objective: Objective,
                   start: float | Sequence[float], budget: int | None = None) -> EkelandTrace:
    """Run the sequential construction from a start point in the cloud.

    Each step gathers candidates u' with value(u') + eta(u', current) <
    value(current); the recorded infimum over candidates is exact, the next
    iterate is the candidate of minimal value (ties broken by cloud order).
    Stops when no candidate remains, or when a given budget of points is
    reached. Each step strictly lowers the value (eta >= 0), so a trace
    visits each cloud point at most once: without a budget (the default) it
    stops by exhaustion within len(cloud) points.
    """
    _require_triangle(space)
    i0 = cloud.index_of(start)
    eta = _matrix(space, cloud)
    vals = _values(objective, cloud)
    value_arr = np.array(vals)
    if not 0.0 < vals[i0] < math.inf:
        raise ValueError(f"start value must be finite positive, got {vals[i0]}")
    if budget is not None and budget < 1:
        raise ValueError("budget must allow at least one point")

    idx = [i0]
    infima: list[ExtReal] = []
    slack: list[float] = []
    termination = BUDGET_EXHAUSTED
    while True:
        cur = idx[-1]
        candidates = np.flatnonzero(value_arr + eta[:, cur] < vals[cur])
        if not candidates.size:
            infima.append(INF)
            termination = ALPHA_INFINITE
            break
        cand_vals = value_arr[candidates]
        alpha = float(cand_vals.min())
        infima.append(as_ext(alpha))
        if budget is not None and len(idx) >= budget:
            termination = BUDGET_EXHAUSTED
            break
        slack.append(1.0 / len(idx))
        idx.append(int(candidates[np.argmax(cand_vals == alpha)]))

    return EkelandTrace(
        points=tuple(cloud.points[i] for i in idx),
        values=tuple(vals[i] for i in idx),
        step_infima=tuple(infima),
        slack=tuple(slack),
        termination=termination,
    )


def verify_trace(trace: EkelandTrace, cloud: PointCloud, space: QuasiPremetric,
                 objective: Objective, epsilon: float) -> TraceVerification:
    """Check the chain law and locate the least stationary cutoff for epsilon.

    The chain law requires value(u_j) + eta(u_j, u_k) < value(u_k) for every
    k < j, with exact strict comparisons. The cutoff is the least 1-based n
    such that value(u') + eta(u', u_k) > value(u_k) - epsilon for every cloud
    point u' and every k >= n; None when no n works.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    eta = _matrix(space, cloud)
    vals = _values(objective, cloud)
    value_arr = np.array(vals)
    trace_idx = [cloud.index_of(p) for p in trace.points]

    violations = []
    for a, k in enumerate(trace_idx):
        later = trace_idx[a + 1:]
        chained = value_arr[later] + eta[later, k] < vals[k]
        violations += [(cloud.points[j], cloud.points[k])
                       for j, ok in zip(later, chained.tolist()) if not ok]

    point_ok = tuple(bool((value_arr + eta[:, k] > vals[k] - epsilon).all())
                     for k in trace_idx)
    stationary: int | None = None
    for pos in range(len(trace_idx) - 1, -1, -1):
        if not point_ok[pos]:
            break
        stationary = pos + 1

    return TraceVerification(
        chain_ok=not violations,
        chain_violations=tuple(violations),
        stationary_index=stationary,
        point_ok=point_ok,
    )


def _certificate(cloud: PointCloud, space: QuasiPremetric, objective: Objective,
                 start: Point, u: Point, epsilon: float) -> EkelandCertificate:
    vals = _values(objective, cloud)
    iu = cloud.index_of(u)
    to_start = space.pairwise(np.array([u, start]), np.array([start]))[:, 0]
    lhs = vals[iu] + float(to_start[0])
    rhs = float(objective(start)) + float(to_start[1])
    descent_ok = lhs <= rhs

    level = np.array(vals) + space.pairwise(np.asarray(cloud.points, dtype=float),
                                            np.array([u]))[:, 0]
    stationary = level > vals[iu] - epsilon if epsilon > 0.0 else level >= vals[iu]
    unstable = np.flatnonzero(~stationary)
    witness = cloud.points[unstable[0]] if unstable.size else None

    return EkelandCertificate(
        point=u,
        epsilon=epsilon,
        descent_ok=descent_ok,
        stationarity_ok=witness is None,
        descent_gap=rhs - lhs,
        witness=witness,
    )


def approx_point(cloud: PointCloud, space: QuasiPremetric, objective: Objective,
                 start: float | Sequence[float], epsilon: float,
                 budget: int | None = None) -> EkelandCertificate:
    """Select an epsilon-stationary point with a descent certificate.

    Runs the trace from the start point; a one-point trace returns the start
    itself, otherwise the iterate at max(2, n(epsilon)) is returned, where
    n(epsilon) is the least stationary cutoff of the trace.
    """
    x = cloud.points[cloud.index_of(start)]
    if not float(space(x, x)) < math.inf:
        raise ValueError("start self-distance must be finite")
    phi_x = float(objective(x))
    if not epsilon < phi_x < math.inf:
        raise ValueError(f"need epsilon < value(start) < inf, got {epsilon} vs {phi_x}")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")

    trace = generate_trace(cloud, space, objective, x, budget=budget)
    if len(trace) == 1:
        u = trace.points[0]
    else:
        ver = verify_trace(trace, cloud, space, objective, epsilon)
        if ver.stationary_index is None:
            raise RuntimeError("trace admits no stationary cutoff; budget too small")
        u = trace.points[max(2, ver.stationary_index) - 1]
    return _certificate(cloud, space, objective, x, u, epsilon)


def weak_point(cloud: PointCloud, space: QuasiPremetric, objective: Objective,
               start: float | Sequence[float],
               budget: int | None = None) -> tuple[Point, EkelandCertificate]:
    """Return the terminal trace point, stationary at tolerance zero.

    On a finite cloud the construction must stop by exhaustion; a budget
    stop means the certificate cannot be issued and is reported as an error.
    """
    x = cloud.points[cloud.index_of(start)]
    if not float(space(x, x)) < math.inf:
        raise ValueError("start self-distance must be finite")
    trace = generate_trace(cloud, space, objective, x, budget=budget)
    if trace.termination != ALPHA_INFINITE:
        raise RuntimeError("construction did not terminate; raise the budget")
    u = trace.points[-1]
    return u, _certificate(cloud, space, objective, x, u, 0.0)


def two_constant_point(cloud: PointCloud, space: QuasiPremetric, objective: Objective,
                       start: float | Sequence[float], delta: float, r: float,
                       budget: int | None = None) -> TwoConstantResult:
    """Two-constant selector: shift the objective to its cloud infimum and
    rescale the premetric by delta / r before running the terminal selection.

    Requires inf value < value(start) <= inf value + delta. The result checks
    the scaled descent bound, zero-tolerance stationarity, and the radius
    bound eta(u, start) <= r + eta(start, start).
    """
    if delta <= 0.0 or r <= 0.0:
        raise ValueError("delta and r must be positive")
    x = cloud.points[cloud.index_of(start)]
    vals = _values(objective, cloud)
    low = min(vals)
    if math.isinf(low):
        raise ValueError("objective has no finite values on the cloud")
    phi_x = float(objective(x))
    if not low < phi_x:
        raise ValueError("start must sit strictly above the cloud infimum")
    if not phi_x <= low + delta:
        raise ValueError(
            f"start value {phi_x} exceeds infimum + delta = {low + delta}")

    scale = delta / r
    shifted = Objective(lambda p: float(objective(p)) - low, name="shifted")
    scaled = space.scaled(scale)
    u, cert = weak_point(cloud, scaled, shifted, x, budget=budget)

    radius_ok = float(space(u, x)) <= r + float(space(x, x))
    return TwoConstantResult(
        point=u,
        scale=scale,
        descent_ok=cert.descent_ok,
        stationarity_ok=cert.stationarity_ok,
        radius_ok=radius_ok,
        certificate=cert,
    )

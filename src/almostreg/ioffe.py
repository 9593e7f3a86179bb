"""Pointwise descent criteria that certify openness of sampled maps.

The criterion checked here is existential: wherever a point still has a
residual above a probe level, some other point must improve the residual by
more than the move costs at rate c, with a fixed slack. When the criterion
holds on a region, openness follows; `conclude_openness` re-verifies that
conclusion against the ball-inclusion check instead of trusting the
implication.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .regularity import (
    CheckReport,
    MapGeometry,
    RegularityInstance,
    SampledMap,
    check_openness,
    _estimate_violations,
    _gamma_array,
    _graph_map,
)
from .spaces import EUCLIDEAN, Point, PointCloud, QuasiPremetric, as_point

RESIDUAL_BELOW_EPS = "residual-below-eps"
ORACLE_EXHAUSTED = "oracle-exhausted"
BUDGET_EXHAUSTED = "budget-exhausted"


def default_lambda(eps: float) -> float:
    """Improvement slack used when none is supplied."""
    return min(1.0, eps)


@dataclass(frozen=True)
class PairRegion:
    """An explicit region of (x, y) pairs; not required to be a product."""

    pairs: tuple[tuple[Point, Point], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("pair region must be nonempty")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate pairs in region")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple]) -> "PairRegion":
        return cls(tuple((as_point(x), as_point(y)) for x, y in pairs))

    @classmethod
    def product(cls, xs: Sequence, ys: Sequence) -> "PairRegion":
        xs_p = [as_point(x) for x in xs]
        ys_p = [as_point(y) for y in ys]
        return cls(tuple((x, y) for x in xs_p for y in ys_p))

    @property
    def is_product(self) -> bool:
        xs = self.x_points()
        ys = self.y_points()
        return len(self.pairs) == len(xs) * len(ys) and set(self.pairs) == {
            (x, y) for x in xs for y in ys
        }

    def x_points(self) -> tuple[Point, ...]:
        return tuple(dict.fromkeys(x for x, _ in self.pairs))

    def y_points(self) -> tuple[Point, ...]:
        return tuple(dict.fromkeys(y for _, y in self.pairs))

    def fiber(self, y: Point) -> tuple[Point, ...]:
        q = as_point(y)
        return tuple(x for x, v in self.pairs if v == q)


@dataclass(frozen=True)
class CriterionReport:
    passed: bool
    checked: int
    violation_count: int
    witnesses: tuple  # (eps, y, u, best_margin, required)
    vacuous: bool
    epsilons: tuple[float, ...]


def _default_epsilons(residuals: np.ndarray, c: float, step: float) -> tuple[float, ...]:
    """One probe level sized to the sample's improvement quantum.

    A one-grid-step move changes the residual by about (minimal positive
    residual) and costs c * step, so the observable improvement margin is
    their difference; the probe must sit below it or every near-fiber point
    fails spuriously. When the margin is nonpositive the criterion cannot
    hold at rate c anyway and half the minimal residual is used.
    """
    positive = residuals[np.isfinite(residuals) & (residuals > 0.0)]
    if positive.size == 0:
        return (1.0,)
    minres = float(positive.min())
    margin = minres - c * step
    return (0.5 * margin if margin > 0.0 else 0.5 * minres,)


def check_criterion(mapping: SampledMap, region: PairRegion, c: float,
                    gamma: object, epsilons: Sequence[float] | None = None,
                    lam: Callable[[float], float] = default_lambda) -> CriterionReport:
    """Existence-of-improvement criterion at rate c over a pair region.

    A domain point u is active for probe level eps and target y when some
    region point x over y satisfies rho(g(x), y) < c * gamma(x) and
    eps < rho(g(u), y) <= rho(g(x), y) - c * d(u, x). Every active u must
    admit u' with c * d(u, u') <= rho(g(u), y) - rho(g(u'), y) - lam(eps).
    """
    if not c > 0.0:
        raise ValueError("rate c must be positive")
    if not mapping.is_single_valued():
        raise ValueError("criterion check needs a single-valued sampled map")
    g = mapping.geometry
    gam = _gamma_array(gamma, mapping.domain)
    y_targets = []
    for y in region.y_points():
        if y not in g.y_index:
            raise KeyError(f"region target {y} not in codomain cloud")
        y_targets.append(y)
    for x in region.x_points():
        if x not in g.x_index:
            raise KeyError(f"region point {x} not in domain cloud")

    if epsilons is None:
        cols = [g.y_index[y] for y in y_targets]
        eps_list = _default_epsilons(g.DYG[:, cols], c, g.step_x)
    else:
        eps_list = tuple(float(e) for e in epsilons)
        if any(e <= 0.0 for e in eps_list):
            raise ValueError("probe levels must be positive")

    checked = 0
    witnesses: list[tuple] = []
    vacuous = True
    for y in y_targets:
        yi = g.y_index[y]
        r = g.DYG[:, yi]
        fiber_idx = [g.x_index[x] for x in region.fiber(y)]
        trig = [xi for xi in fiber_idx if r[xi] < c * gam[xi]]
        if not trig:
            continue
        # Largest descent bound reachable from any triggered region point.
        ub = np.full(len(r), -np.inf)
        for xi in trig:
            np.maximum(ub, r[xi] - c * g.DX[:, xi], out=ub)
        with np.errstate(invalid="ignore"):
            margin = r[:, None] - r[None, :] - c * g.DX
        best = np.where(np.isfinite(r), np.nanmax(np.where(
            np.isfinite(r)[None, :], margin, -np.inf), axis=1), -np.inf)
        for eps in eps_list:
            required = lam(eps)
            active = np.isfinite(r) & (r > eps) & (r <= ub)
            n_active = int(active.sum())
            checked += n_active
            if n_active:
                vacuous = False
            bad = active & ~(best >= required)
            for ui in np.nonzero(bad)[0]:
                witnesses.append((eps, y, mapping.domain.points[int(ui)],
                                  float(best[ui]), required))
    return CriterionReport(
        passed=not witnesses,
        checked=checked,
        violation_count=len(witnesses),
        witnesses=tuple(witnesses[:20]),
        vacuous=vacuous,
        epsilons=tuple(eps_list),
    )


@dataclass(frozen=True)
class ConclusionReport:
    criterion: CriterionReport
    concluded: bool
    fiber_check: CheckReport | None
    openness_check: CheckReport | None
    routes_agree: bool | None


def conclude_openness(mapping: SampledMap, region: PairRegion, c: float,
                      gamma: object, epsilons: Sequence[float] | None = None,
                      lam: Callable[[float], float] = default_lambda,
                      closure_tol: float | None = None) -> ConclusionReport:
    """Derive openness from the criterion, then re-verify it on the sample.

    The fiber route checks the integrated conclusion directly: every region
    pair (x, y) with rho(g(x), y) < c * gamma(x) must admit a near-solution
    within distance rho(g(x), y) / c of x. For product regions the graded
    ball-inclusion check runs as well and the two verdicts must agree.
    """
    geom = mapping.geometry
    crit = check_criterion(mapping, region, c, gamma, epsilons, lam)
    tol = closure_tol if closure_tol is not None else 2.0 * geom.step_x
    fiber = _fiber_conclusion(geom, region, c, gamma, tol)
    openness: CheckReport | None = None
    agree: bool | None = None
    if region.is_product:
        inst = RegularityInstance(
            mapping=mapping,
            region_x=region.x_points(),
            region_y=region.y_points(),
            gamma=gamma,
            constant=c,
            closure_tol=closure_tol,
        )
        openness = check_openness(inst)
        agree = openness.passed == fiber.passed
    concluded = bool(crit.passed and fiber.passed and (agree is None or agree))
    return ConclusionReport(
        criterion=crit,
        concluded=concluded,
        fiber_check=fiber,
        openness_check=openness,
        routes_agree=agree,
    )


def _fiber_conclusion(geom: MapGeometry, region: PairRegion, c: float,
                      gamma: object, tol: float) -> CheckReport:
    gam = _gamma_array(gamma, geom.domain)
    checked = 0
    witnesses: list[tuple] = []
    vacuous = True
    for x, y in region.pairs:
        xi = geom.x_index[x]
        yi = geom.y_index[y]
        r = float(geom.DYG[xi, yi])
        if not (0.0 < r < c * gam[xi]):
            continue
        vacuous = False
        checked += 1
        radius = r / c
        near = (geom.DX[xi] <= radius + tol) & (geom.DYG[:, yi] <= tol)
        if not near.any():
            witnesses.append((x, y, r, radius))
    return CheckReport(
        name="criterion-conclusion",
        passed=not witnesses,
        checked=checked,
        violation_count=len(witnesses),
        witnesses=tuple(witnesses[:20]),
        vacuous=vacuous,
    )


# --- descent solver ---------------------------------------------------------


Oracle = Callable[[Point, Point, float], Point | None]


def _dist(p: Point, q: Point) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def scalar_map(fn: Callable[[float], float]) -> Callable[[Point], Point]:
    """Lift a float function to a map on 1-D points."""
    return lambda p: (float(fn(p[0])),)


def newton_oracle(fn: Callable[[float], float],
                  dfn: Callable[[float], float],
                  target_component: int = 0) -> Oracle:
    """One-dimensional Newton proposal toward a scalar target."""

    def propose(u: Point, y: Point, residual: float) -> Point | None:
        slope = dfn(u[0])
        if not math.isfinite(slope) or abs(slope) < 1e-14:
            return None
        step = (fn(u[0]) - y[target_component]) / slope
        candidate = (u[0] - step,)
        return candidate if math.isfinite(candidate[0]) else None

    return propose


def grid_scan_oracle(cloud: PointCloud, g: Callable[[Point], Point],
                     c: float, slack: float) -> Oracle:
    """Propose the cloud point with the largest validated improvement margin."""

    def propose(u: Point, y: Point, residual: float) -> Point | None:
        best: Point | None = None
        best_margin = -math.inf
        for cand in cloud.points:
            margin = residual - _dist(g(cand), y) - c * _dist(u, cand)
            if margin > best_margin:
                best_margin = margin
                best = cand
        if best is None or best_margin < slack:
            return None
        return best

    return propose


def none_oracle() -> Oracle:
    return lambda u, y, residual: None


@dataclass(frozen=True)
class DescentReport:
    points: tuple[Point, ...]
    residuals: tuple[float, ...]
    status: str
    radius_bound: float
    max_step_distance: float
    within_radius: bool
    cauchy_ok: bool
    note: str

    def __len__(self) -> int:
        return len(self.points)


def descent_solve(g: Callable[[Point], Point], start, target, c: float,
                  eps: float, oracle: Oracle,
                  lam: Callable[[float], float] = default_lambda,
                  budget: int = 100, complete_space: bool = False) -> DescentReport:
    """Iterate validated residual-descent steps toward a target value.

    Each oracle proposal is re-validated against
    c * d(u_k, u') <= residual_k - rho(g(u'), target) - lam(eps)
    before being accepted; a failing or missing proposal ends the run. The
    pairwise estimate c * d(u_j, u_k) <= residual_j - residual_k is asserted
    on every pair of iterates, and the whole run must stay within
    rho(g(start), target) / c of the start.
    """
    if c <= 0.0 or eps <= 0.0:
        raise ValueError("c and eps must be positive")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    u = as_point(start)
    y = as_point(target)
    slack = lam(eps)
    if slack <= 0.0:
        raise ValueError("improvement slack must be positive")
    points = [u]
    residuals = [_dist(as_point(g(u)), y)]
    status = BUDGET_EXHAUSTED
    while True:
        if residuals[-1] <= eps:
            status = RESIDUAL_BELOW_EPS
            break
        if len(points) >= budget:
            status = BUDGET_EXHAUSTED
            break
        proposal = oracle(points[-1], y, residuals[-1])
        if proposal is None:
            status = ORACLE_EXHAUSTED
            break
        cand = as_point(proposal)
        r_cand = _dist(as_point(g(cand)), y)
        if not c * _dist(points[-1], cand) <= residuals[-1] - r_cand - slack:
            status = ORACLE_EXHAUSTED
            break
        points.append(cand)
        residuals.append(r_cand)

    cauchy_ok = True
    for j in range(len(points)):
        for k in range(j + 1, len(points)):
            if not c * _dist(points[j], points[k]) <= residuals[j] - residuals[k]:
                cauchy_ok = False
    if not cauchy_ok:
        raise AssertionError("descent iterates violated the pairwise estimate")

    radius_bound = residuals[0] / c
    max_step = max(_dist(points[0], p) for p in points)
    within = max_step <= radius_bound
    if complete_space:
        note = ("iterates are Cauchy at rate c; in a complete space they "
                "converge to a solution within the radius bound")
    else:
        note = "iterates satisfy the pairwise rate-c estimate"
    return DescentReport(
        points=tuple(points),
        residuals=tuple(residuals),
        status=status,
        radius_bound=radius_bound,
        max_step_distance=max_step,
        within_radius=within,
        cauchy_ok=cauchy_ok,
        note=note,
    )


# --- region helpers ----------------------------------------------------------


def milyutin_gamma(domain: PointCloud, region: Sequence,
                   metric: QuasiPremetric | None = None) -> dict[Point, float]:
    """Reach function gamma(x) = dist(x, complement of the region).

    Computed inside the sampled domain cloud under the given metric
    (Euclidean by default); +inf when the region covers the whole cloud.
    """
    region_set = {as_point(p) for p in region}
    domain_set = set(domain.points)
    for p in region_set:
        if p not in domain_set:
            raise KeyError(f"region point {p} not in domain cloud")
    outside = [p for p in domain.points if p not in region_set]
    if not outside:
        return {p: math.inf for p in domain.points}
    dmat = (metric if metric is not None else EUCLIDEAN).pairwise(
        np.asarray(domain.points, dtype=float), np.asarray(outside, dtype=float))
    return dict(zip(domain.points, dmat.min(axis=1).tolist()))


def shrink_beta(a: float, b: float, rate_c: float, reach_r: float) -> float:
    """Ball radius on which the distance estimate needs no smallness proviso."""
    if min(a, b, rate_c, reach_r) <= 0.0:
        raise ValueError("all arguments must be positive")
    return min(a, b, rate_c * reach_r / (1.0 + rate_c))


def check_unconditional_estimate(mapping: SampledMap, ref: tuple, mu: float,
                                 beta: float, eps_schedule: tuple[float, ...] = (),
                                 closure_tol: float | None = None) -> CheckReport:
    """Distance estimate on beta-balls with no proviso on dist(y, G(x))."""
    geom = mapping.geometry
    rx, ry = geom.locate(ref[0], ref[1])
    tol = closure_tol if closure_tol is not None else 2.0 * geom.step_x
    eps = eps_schedule or (2.0 * geom.step_y, geom.step_y, 0.5 * geom.step_y)
    surrogate = geom.preimage_distance(eps[-1])
    # An infinite reach drops the proviso: only dist(y, G(x)) = inf is left
    # out. A reach of -inf leaves out the rows outside the beta-ball.
    reach = np.where(geom.DX[rx] < beta, math.inf, -math.inf)
    scan = _estimate_violations(geom.DYG, surrogate, geom.DY[ry] < beta, reach, mu, tol)
    return CheckReport(
        name="unconditional-estimate",
        passed=scan.count == 0,
        checked=scan.window,
        violation_count=scan.count,
        witnesses=tuple((mapping.domain.points[xi], mapping.codomain.points[vi], value, bound)
                        for xi, vi, value, bound in scan.hits),
        vacuous=scan.window == 0,
    )


def semilocal_region(reach_r: float, rate_c: float) -> float:
    """Radius delta = min(r / 2, c * r) of the semilocal openness display."""
    if reach_r <= 0.0 or rate_c <= 0.0:
        raise ValueError("reach and rate must be positive")
    return min(0.5 * reach_r, rate_c * reach_r)


def check_semilocal_openness(mapping: SampledMap, region_x: Sequence,
                             region_y: Sequence, rate_c: float, reach_r: float,
                             closure_tol: float | None = None) -> CheckReport:
    """Openness display with the constant reach delta = min(r/2, c*r)."""
    delta = semilocal_region(reach_r, rate_c)
    inst = RegularityInstance(
        mapping=mapping,
        region_x=tuple(as_point(p) for p in region_x),
        region_y=tuple(as_point(p) for p in region_y),
        gamma=delta,
        constant=rate_c,
        closure_tol=closure_tol,
    )
    return check_openness(inst)


# --- set-valued criterion -----------------------------------------------------


@dataclass(frozen=True)
class SetValuedCriterionReport:
    direct: CriterionReport
    projected: CriterionReport
    agree: bool
    alpha: float


def setvalued_criterion(mapping: SampledMap, region: PairRegion, c: float,
                        gamma: object, alpha: float,
                        epsilons: Sequence[float] | None = None,
                        lam: Callable[[float], float] = default_lambda
                        ) -> SetValuedCriterionReport:
    """Criterion for set-valued maps, run through two independent routes.

    The direct route scans graph pairs with explicit loops, measuring moves
    by max(d(u, x), alpha * rho(v, z)) in the map's own metrics. The
    projected route rebuilds the map over its graph cloud and reuses the
    single-valued criterion. Verdicts must agree.
    """
    if not 0.0 < alpha < 1.0 / c:
        raise ValueError("alpha must lie in (0, 1 / rate)")
    geom = mapping.geometry
    gam = _gamma_array(gamma, mapping.domain)

    # Direct route: explicit loops over graph pairs, by index into the tables.
    pairs = mapping.pairs
    index = list(zip(geom.pair_xi.tolist(), geom.pair_yi.tolist()))
    DX, DY = geom.DX.tolist(), geom.DY.tolist()
    if epsilons is None:
        cols = [geom.y_index[y] for y in region.y_points()]
        eps_list = _default_epsilons(geom.DYG[:, cols], c, geom.step_x)
    else:
        eps_list = tuple(float(e) for e in epsilons)
    checked = 0
    witnesses: list[tuple] = []
    vacuous = True
    for y in region.y_points():
        yi = geom.y_index[y]
        fiber = set(region.fiber(y))
        trig = [(xi, zi) for (x, _), (xi, zi) in zip(pairs, index)
                if x in fiber and DY[zi][yi] < c * gam[xi]]
        if not trig:
            continue
        for (u, v), (ui, vi) in zip(pairs, index):
            r_uv = DY[vi][yi]
            reachable = False
            for (xi, zi) in trig:
                move = max(DX[ui][xi], alpha * DY[vi][zi])
                if r_uv <= DY[zi][yi] - c * move:
                    reachable = True
                    break
            if not reachable:
                continue
            for eps in eps_list:
                if not r_uv > eps:
                    continue
                vacuous = False
                checked += 1
                required = lam(eps)
                best = -math.inf
                for (ui2, vi2) in index:
                    move = max(DX[ui][ui2], alpha * DY[vi][vi2])
                    best = max(best, r_uv - DY[vi2][yi] - c * move)
                if not best >= required:
                    witnesses.append((eps, y, (u, v), best, required))
    direct = CriterionReport(
        passed=not witnesses,
        checked=checked,
        violation_count=len(witnesses),
        witnesses=tuple(witnesses[:20]),
        vacuous=vacuous,
        epsilons=tuple(eps_list),
    )

    # Projected route: single-valued criterion on the graph cloud.
    projected_map, gamma_table = _graph_map(mapping, alpha, gam)
    region_pairs = []
    for y in region.y_points():
        fiber = set(region.fiber(y))
        for gp, (x, _) in zip(projected_map.domain.points, pairs):
            if x in fiber:
                region_pairs.append((gp, y))
    projected_region = PairRegion.from_pairs(region_pairs)
    projected = check_criterion(projected_map, projected_region, c, gamma_table,
                                eps_list, lam)
    return SetValuedCriterionReport(
        direct=direct,
        projected=projected,
        agree=direct.passed == projected.passed,
        alpha=alpha,
    )

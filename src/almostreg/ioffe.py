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
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .regularity import (
    CheckReport,
    MapGeometry,
    RegularityInstance,
    SampledMap,
    check_openness,
    _TILE_ENTRIES,
    _WITNESS_CAP,
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
        # The pairs are distinct, so as many as the product's cells cover it.
        return len(self.pairs) == len(self.x_points()) * len(self.y_points())

    def x_points(self) -> tuple[Point, ...]:
        return self._codes[0]

    def y_points(self) -> tuple[Point, ...]:
        return self._codes[1]

    @cached_property
    def _codes(self) -> tuple[tuple[Point, ...], tuple[Point, ...], np.ndarray, np.ndarray]:
        """The distinct x and y points, each in first-appearance order, and
        each pair's positions in those two tuples."""
        xs: dict[Point, int] = {}
        ys: dict[Point, int] = {}
        n = len(self.pairs)
        xcode = np.fromiter((xs.setdefault(x, len(xs)) for x, _ in self.pairs), np.int32, n)
        ycode = np.fromiter((ys.setdefault(y, len(ys)) for _, y in self.pairs), np.int32, n)
        return tuple(xs), tuple(ys), xcode, ycode


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


def _region_indices(geom: MapGeometry, region: PairRegion) -> tuple[np.ndarray, np.ndarray]:
    """The region's targets as codomain indices, in first-appearance order,
    and member[f, x]: whether domain index x is in the fiber of target f.
    Points resolve through PointCloud.index_of; KeyError names the first
    target, then the first point, that is not in its cloud."""
    def lookup(cloud: PointCloud, p: Point, message: str) -> int:
        try:
            return cloud.index_of(p)
        except KeyError:
            raise KeyError(message.format(p)) from None

    xs, ys, xcode, ycode = region._codes
    ys_i = [lookup(geom.codomain, y, "region target {} not in codomain cloud") for y in ys]
    xs_i = np.array([lookup(geom.domain, x, "region point {} not in domain cloud") for x in xs])
    rows: dict[int, int] = {}
    row_of = np.array([rows.setdefault(yi, len(rows)) for yi in ys_i])
    member = np.zeros((len(rows), len(geom.domain)), dtype=bool)
    member[row_of[ycode], xs_i[xcode]] = True
    return np.array(list(rows), dtype=int), member


def _criterion_epsilons(epsilons: Sequence[float] | None, geom: MapGeometry,
                        ys: np.ndarray, c: float) -> tuple[float, ...]:
    if epsilons is None:
        return _default_epsilons(geom.DYG[:, ys], c, geom.step_x)
    eps_list = tuple(float(e) for e in epsilons)
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("probe levels must be positive")
    return eps_list


def _trigger_tiles(ys: np.ndarray, member: np.ndarray, residuals: np.ndarray,
                   bound: np.ndarray):
    """The fibers holding a trigger, in order and in tiles: each tile's
    targets, residuals R[f, p] = residuals[p, ys[f]] and triggers
    member & (R < bound), with the triggered columns of the whole tile.

    A tile of k fibers over n scan points takes k * n * n of _TILE_ENTRIES,
    and a fiber above the budget is a tile of its own."""
    n = len(residuals)
    trig = member & (residuals.T[ys] < bound)
    keep = np.flatnonzero(trig.any(axis=1))
    step = max(1, _TILE_ENTRIES // (n * n))
    for start in range(0, len(keep), step):
        t = keep[start:start + step]
        yield ys[t], residuals.T[ys[t]], trig[t], np.flatnonzero(trig[t].any(axis=0))


def _descent_scan(g: MapGeometry, ys: np.ndarray, member: np.ndarray, c: float,
                  gam: np.ndarray, eps_list: tuple[float, ...],
                  lam: Callable[[float], float]) -> CriterionReport:
    """check_criterion over the fibers member[f] of targets ys[f].

    With r = DYG[:, y], u's descent bound is max(r[x] - c * DX[u, x]) over
    the fiber's triggered x, and its best margin max((r[u] - r[u']) -
    c * DX[u, u']) over u' with r[u'] finite, nan ignored. Max is order-free,
    so a tile gives each fiber's floats; hits run in (fiber, eps, u) order.
    """
    cdx = c * g.DX
    eps = np.array(eps_list)[:, None]
    required = [lam(e) for e in eps_list]
    req = np.array(required, dtype=float)[:, None]
    checked = violations = 0
    witnesses: list[tuple] = []
    for t_ys, R, trig, cols in _trigger_tiles(ys, member, g.DYG, c * gam):
        fin = np.isfinite(R)
        with np.errstate(invalid="ignore"):
            ub = np.max(R[:, None, cols] - cdx[:, cols], axis=2,
                        where=trig[:, None, cols], initial=-np.inf)
            margin = R[:, :, None] - R[:, None, :]
            margin -= cdx
        if not fin.all():
            np.copyto(margin, -np.inf, where=~fin[:, None, :])
        best = np.nanmax(margin, axis=2)
        active = (fin & (R <= ub))[:, None, :] & (R[:, None, :] > eps)
        bad = active & ~(best[:, None, :] >= req)
        checked += int(active.sum())
        violations += int(bad.sum())
        for h in np.flatnonzero(bad)[:_WITNESS_CAP - len(witnesses)]:
            f, e, u = np.unravel_index(h, bad.shape)
            witnesses.append((eps_list[e], g.codomain.points[t_ys[f]], g.domain.points[u],
                              float(best[f, u]), required[e]))
    return CriterionReport(violations == 0, checked, violations, tuple(witnesses),
                           checked == 0, eps_list)


def check_criterion(mapping: SampledMap, region: PairRegion, c: float,
                    gamma: object, epsilons: Sequence[float] | None = None,
                    lam: Callable[[float], float] = default_lambda) -> CriterionReport:
    """Existence-of-improvement criterion at rate c over a pair region.

    A domain point u is active for probe level eps and target y when some
    region point x over y satisfies rho(g(x), y) < c * gamma(x) and
    eps < rho(g(u), y) <= rho(g(x), y) - c * d(u, x). Every active u must
    admit u' with c * d(u, u') <= rho(g(u), y) - rho(g(u'), y) - lam(eps).

    One scan covers the fibers in tiles of about _TILE_ENTRIES (fiber, u, u')
    entries; a larger fiber is a tile of its own.
    """
    if not c > 0.0:
        raise ValueError("rate c must be positive")
    if not mapping.is_single_valued():
        raise ValueError("criterion check needs a single-valued sampled map")
    g = mapping.geometry
    gam = _gamma_array(gamma, mapping.domain)
    ys, member = _region_indices(g, region)
    return _descent_scan(g, ys, member, c, gam, _criterion_epsilons(epsilons, g, ys, c), lam)


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
    tol = geom.closure_tolerance(closure_tol)
    fiber = _fiber_conclusion(mapping, region, c, gamma, tol)
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


def _fiber_conclusion(mapping: SampledMap, region: PairRegion, c: float,
                      gamma: object, tol: float) -> CheckReport:
    """Each region pair (x, y) with 0 < r = rho(g(x), y) < c * gamma(x) needs
    a domain point within r / c + tol of x whose image reaches y within tol.
    The pairs are tested in tiles of about _TILE_ENTRIES domain entries;
    witnesses (x, y, r, r / c) run in region order."""
    geom = mapping.geometry
    gam = _gamma_array(gamma, geom.domain)
    xs, ys, xcode, ycode = region._codes
    try:
        xi = np.array([geom.domain.index_of(x) for x in xs], dtype=int)[xcode]
        yi = np.array([geom.codomain.index_of(y) for y in ys], dtype=int)[ycode]
    except KeyError:
        for x, y in region.pairs:  # name the first pair that misses, x before y
            mapping.locate(x, y)
        raise
    r = geom.DYG[xi, yi]
    live = np.flatnonzero((0.0 < r) & (r < c * gam[xi]))
    step = max(1, _TILE_ENTRIES // len(geom.X))
    missed = [np.empty(0, dtype=int)]
    for start in range(0, len(live), step):
        t = live[start:start + step]
        near = ((geom.DX[xi[t]] <= (r[t] / c + tol)[:, None])
                & (geom.DYG[:, yi[t]].T <= tol))
        missed.append(t[~near.any(axis=1)])
    missed = np.concatenate(missed)
    return CheckReport(
        name="criterion-conclusion",
        passed=len(missed) == 0,
        checked=len(live),
        violation_count=len(missed),
        witnesses=tuple((geom.domain.points[xi[p]], geom.codomain.points[yi[p]],
                         float(r[p]), float(r[p] / c)) for p in missed[:_WITNESS_CAP]),
        vacuous=len(live) == 0,
    )


# --- descent solver ---------------------------------------------------------


Oracle = Callable[[Point, Point, float], Point | None]


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


def _distances(a, b) -> np.ndarray:
    """The Euclidean table between two point lists, nan entries kept, so an
    infinite or nan map value gives a nan margin or residual (which never
    wins and ends a descent run) instead of raising."""
    with np.errstate(invalid="ignore", over="ignore"):
        return EUCLIDEAN.unchecked_pairwise(np.array(a, dtype=float), np.array(b, dtype=float))


def grid_scan_oracle(cloud: PointCloud, g: Callable[[Point], Point],
                     c: float, slack: float) -> Oracle:
    """Propose the cloud point with the largest validated improvement margin.

    The first candidate with the largest margin wins, and a nan margin never
    does. g is evaluated once per cloud point, when the oracle is built.
    """
    points = np.array(cloud.points, dtype=float)
    images = np.array([as_point(g(p)) for p in cloud.points], dtype=float)

    def propose(u: Point, y: Point, residual: float) -> Point | None:
        with np.errstate(invalid="ignore"):
            margin = (residual - _distances(images, [y])[:, 0]
                      - c * _distances([u], points)[0])
        margin[np.isnan(margin)] = -math.inf
        best = int(np.argmax(margin))
        if not -math.inf < margin[best] or margin[best] < slack:
            return None
        return cloud.points[best]

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
    residuals = [float(_distances([as_point(g(u))], [y])[0, 0])]
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
        r_cand = float(_distances([as_point(g(cand))], [y])[0, 0])
        step = float(_distances([points[-1]], [cand])[0, 0])
        if not c * step <= residuals[-1] - r_cand - slack:
            status = ORACLE_EXHAUSTED
            break
        points.append(cand)
        residuals.append(r_cand)

    moves = _distances(points, points).tolist()
    cauchy_ok = True
    for j in range(len(points)):
        for k in range(j + 1, len(points)):
            if not c * moves[j][k] <= residuals[j] - residuals[k]:
                cauchy_ok = False
    if not cauchy_ok:
        raise AssertionError("descent iterates violated the pairwise estimate")

    radius_bound = residuals[0] / c
    max_step = max(moves[0])
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
    Region points resolve as PointCloud.index_of does, so grid round-off is
    absorbed; a point matching no cloud point, or several, raises KeyError.
    """
    inside = set()
    for p in region:
        found = domain._find(p)
        if found is None:
            raise KeyError(f"region point {as_point(p)} not in domain cloud")
        inside.add(found)
    # Every copy of a region point is inside: copies share a first index.
    positions = domain._positions
    outside = [i for i, p in enumerate(domain.points) if positions[p] not in inside]
    if not outside:
        return {p: math.inf for p in domain.points}
    coords = np.asarray(domain.points, dtype=float)
    dmat = (metric if metric is not None else EUCLIDEAN).pairwise(coords, coords[outside])
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
    rx, ry = mapping.locate(ref[0], ref[1])
    geom = mapping.geometry
    tol = geom.closure_tolerance(closure_tol)
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

    The direct route scans graph pairs on pair tables, measuring moves by
    max(d(u, x), alpha * rho(v, z)) in the map's own metrics. The projected
    route rebuilds the map over its graph cloud and runs the single-valued
    criterion's scan there. Verdicts must agree. The tests keep the direct
    route's loop form as its oracle.
    """
    if not c > 0.0:
        raise ValueError("rate c must be positive")
    if not 0.0 < alpha < 1.0 / c:
        raise ValueError("alpha must lie in (0, 1 / rate)")
    geom = mapping.geometry
    pxi, pyi = geom.pair_xi, geom.pair_yi
    gam = _gamma_array(gamma, mapping.domain)[pxi]
    ys, member = _region_indices(geom, region)
    eps_list = _criterion_epsilons(epsilons, geom, ys, c)
    member = member[:, pxi]  # fibers as pair (graph point) indices
    if not member.any():
        raise ValueError("pair region must be nonempty")

    # Direct route: pair p = (u, v) has residual r[p] = rho(v, y); it is
    # reachable when r[p] <= r[t] - cmove[p, t] for a triggered pair t, and
    # its best margin is max((r[p] - r[q]) - cmove[p, q]), a nan never
    # winning. Hits run in (fiber, pair, eps) order.
    cmove = c * np.maximum(geom.DX[pxi][:, pxi], alpha * geom.DY[pyi][:, pyi])
    eps = np.array(eps_list)
    required = [lam(e) for e in eps_list]
    req = np.array(required, dtype=float)
    checked = violations = 0
    witnesses: list[tuple] = []
    for t_ys, R, trig, cols in _trigger_tiles(ys, member, geom.DY[pyi], c * gam):
        with np.errstate(invalid="ignore"):
            reach = ((R[:, :, None] <= R[:, None, cols] - cmove[:, cols])
                     & trig[:, None, cols]).any(axis=2)
            best = np.fmax.reduce((R[:, :, None] - R[:, None, :]) - cmove, axis=2,
                                  initial=-np.inf)
        active = reach[:, :, None] & (R[:, :, None] > eps)
        bad = active & ~(best[:, :, None] >= req)
        checked += int(active.sum())
        violations += int(bad.sum())
        for h in np.flatnonzero(bad)[:_WITNESS_CAP - len(witnesses)]:
            f, p, e = np.unravel_index(h, bad.shape)
            witnesses.append((eps_list[e], mapping.codomain.points[t_ys[f]], mapping.pairs[p],
                              float(best[f, p]), required[e]))
    direct = CriterionReport(violations == 0, checked, violations, tuple(witnesses),
                             checked == 0, eps_list)

    # Projected route: the single-valued scan on the graph cloud.
    projected = _descent_scan(_graph_map(mapping, alpha).geometry, ys, member, c, gam,
                              eps_list, lam)
    return SetValuedCriterionReport(
        direct=direct,
        projected=projected,
        agree=direct.passed == projected.passed,
        alpha=alpha,
    )

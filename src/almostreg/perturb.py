"""Stability of openness rates under additive perturbations, on sampled maps.

The central inequality certified here: adding a Lipschitz perturbation of
rate ell to a map with openness rate c leaves a map with openness rate at
least c - ell. Each check estimates all three quantities from the sample and
asserts the inequality with a resolution-aware tolerance; when the bracket
of the perturbed modulus straddles the required bound the verdict is
flagged inconclusive rather than asserted either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .regularity import (
    CheckReport,
    ModulusReport,
    ModulusSearchConfig,
    RegularityInstance,
    SampledMap,
    TGrid,
    _TILE_ENTRIES,
    _WITNESS_CAP,
    _estimate_violations,
    _image_cloud,
    _openness_violations,
    check_openness,
    estimate_modulus,
)
from .spaces import EUCLIDEAN, Point, PointCloud, QuasiPremetric, as_point


@dataclass(frozen=True)
class LipschitzEstimate:
    """Largest sampled ratio rho(h(u), h(x)) / d(u, x) inside a ball."""

    value: float
    radius: float
    witness_pair: tuple[Point, Point] | None


@dataclass(frozen=True)
class PerturbationInstance:
    """A base map with an additive perturbation and reference points.

    `h` is a single-valued perturbation (callable on points); `H` a sampled
    set-valued one. `ref` is (x_bar, z_bar, w_bar); w_bar may be None when H
    is absent. Constants may include c, c_prime, ell, a, b, r, delta: each of
    c, c_prime, a, b, r and delta must be positive (a, b and r may be +inf),
    and 0 <= ell < c < c_prime. They are kept as a read-only copy, so the
    checks made here hold for the instance's whole life.
    """

    F: SampledMap
    ref: tuple
    h: Callable[[Point], Point] | None = None
    H: SampledMap | None = None
    constants: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.constants is not None:
            object.__setattr__(self, "constants", MappingProxyType(dict(self.constants)))
        object.__setattr__(self, "_stored_ref", _reference(self.F, self.H, self.ref))
        consts = self.constants or {}
        for k in ("c", "c_prime", "a", "b", "r", "delta"):
            if k in consts and not consts[k] > 0.0:
                raise ValueError(f"constant {k} must be positive, not {consts[k]!r}")
        c, c_prime, ell = (consts.get(k) for k in ("c", "c_prime", "ell"))
        if None not in (c, c_prime, ell) and not 0.0 <= ell < c < c_prime:
            raise ValueError("constants must satisfy 0 <= ell < c < c_prime")

    @property
    def x_bar(self) -> Point:
        return self._stored_ref[0]

    @property
    def z_bar(self) -> Point:
        return self._stored_ref[1]

    @property
    def w_bar(self) -> Point | None:
        return self._stored_ref[2]


def _reference(F: SampledMap, H: SampledMap | None,
               ref: tuple) -> tuple[Point, Point, Point | None]:
    """The reference triple (x_bar, z_bar, w_bar) as the clouds store it
    (PointCloud.index_of), so that grid round-off in a user's coordinates
    moves no window; w_bar is None without H. ValueError unless (x_bar,
    z_bar) is a pair of F and, given H, (x_bar, w_bar) a pair of H."""
    if not F.on_graph(ref[0], ref[1]):
        raise ValueError("reference value z_bar must belong to F(x_bar)")
    xi, zi = F.locate(ref[0], ref[1])
    x_bar, z_bar = F.domain.points[xi], F.codomain.points[zi]
    if H is None:
        return x_bar, z_bar, None
    if len(ref) < 3 or ref[2] is None:
        raise ValueError("set-valued perturbation needs a reference value w_bar")
    if not H.on_graph(ref[0], ref[2]):
        raise ValueError("w_bar must belong to H(x_bar)")
    return x_bar, z_bar, H.codomain.points[H.codomain.index_of(ref[2])]


def estimate_lip(h, center, radius: float, cloud: PointCloud | None = None,
                 anchor=None, metric_x: QuasiPremetric = EUCLIDEAN,
                 metric_y: QuasiPremetric = EUCLIDEAN) -> LipschitzEstimate:
    """Sampled Lipschitz rate of h inside the closed ball around center.

    For a callable h the ball holds the cloud points p with metric_x(center,
    p) <= radius, and the estimate is the largest ratio metric_y(h(u), h(x))
    / metric_x(u, x) over pairs u before x in the ball, read from one
    distance table of the points and one of the values. Pairs at distance 0
    and nan ratios are skipped; the witness is the first pair, row-major,
    that attains the largest ratio, and there is none when every ratio is 0.
    For a sampled set-valued map the Aubin form is used, in the map's own
    metrics: every value of h(u) within `radius` of `anchor` must be
    approached in h(x), and the worst excess-to-distance ratio is returned.
    """
    c = as_point(center)
    if isinstance(h, SampledMap):
        if anchor is None:
            raise ValueError("set-valued Lipschitz estimate needs an anchor value")
        return _aubin_estimate(h, c, as_point(anchor), radius)
    if cloud is None:
        raise ValueError("callable Lipschitz estimate needs a point cloud")
    pts = [p for p, d in zip(cloud.points, _distances(metric_x, c, cloud)) if d <= radius]
    if len(pts) < 2:
        raise ValueError("degenerate cloud: need at least two points in the ball")
    xs = np.array(pts, dtype=float)
    values = np.array([as_point(h(p)) for p in pts], dtype=float)
    d = metric_x.pairwise(xs, xs)
    # A value distance may be nan (two infinite values); its ratio never wins.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = metric_y.unchecked_pairwise(values, values) / d
        live = np.triu(d != 0.0, k=1) & (ratio > 0.0)
    return _largest_ratio(ratio, live, pts, radius)


def _aubin_estimate(H: SampledMap, center: Point, anchor: Point,
                    radius: float) -> LipschitzEstimate:
    geom = H.geometry
    ball = np.flatnonzero(_distances(H.metric_x, center, H.domain) <= radius)
    if len(ball) < 2:
        raise ValueError("degenerate cloud: need at least two points in the ball")
    try:
        anchor_idx = H.codomain.index_of(anchor)
    except KeyError as exc:
        raise KeyError(f"anchor value: {exc.args[0]}") from None
    # excess[i, j]: the largest distance from a value of H(ball[i]) near the
    # anchor to H(ball[j]); -inf when H(ball[i]) has no value near the anchor.
    # Each kept pair raises the row of its point (row[u] = -1 off the ball),
    # in tiles of about _TILE_ENTRIES gathered entries; a max reads its pairs
    # in any order.
    row = np.full(len(geom.X), -1)
    row[ball] = np.arange(len(ball))
    keep = (row[geom.pair_xi] >= 0) & (geom.DY[anchor_idx, geom.pair_yi] <= radius)
    rows, vals = row[geom.pair_xi[keep]], geom.pair_yi[keep]
    excess = np.full((len(ball), len(ball)), -np.inf)
    step = max(1, _TILE_ENTRIES // len(ball))
    for lo in range(0, len(rows), step):
        np.maximum.at(excess, rows[lo:lo + step], geom.DYG[np.ix_(ball, vals[lo:lo + step])].T)
    d = geom.DX[np.ix_(ball, ball)]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = excess / d
        live = (d != 0.0) & ~np.eye(len(ball), dtype=bool) & (ratio > 0.0)
    return _largest_ratio(ratio, live, [H.domain.points[i] for i in ball], radius)


def _largest_ratio(ratio: np.ndarray, live: np.ndarray, points: Sequence[Point],
                   radius: float) -> LipschitzEstimate:
    """The largest live ratio, witnessed by the first (row-major) pair of
    points that attains it; 0 with no witness when no live ratio exceeds 0."""
    best = float(np.max(ratio, where=live, initial=0.0))
    if best == 0.0:
        return LipschitzEstimate(value=0.0, radius=radius, witness_pair=None)
    i, j = np.argwhere(live & (ratio == best))[0]
    return LipschitzEstimate(value=best, radius=radius, witness_pair=(points[i], points[j]))


def perturbed_map(F: SampledMap, h: Callable[[Point], Point]) -> SampledMap:
    """Graph of F + h: each pair (x, y) becomes (x, y + h(x))."""
    pairs = []
    for x, y in F.pairs:
        shift = as_point(h(x))
        if len(shift) != len(y):
            raise ValueError("perturbation value dimension mismatch")
        pairs.append((x, tuple(a + b for a, b in zip(y, shift))))
    return SampledMap(F.domain, _image_cloud(pairs), tuple(pairs), F.metric_x, F.metric_y)


def minkowski_sum_map(F: SampledMap, H: SampledMap,
                      dedup_tol: float = 0.0) -> SampledMap:
    """Graph of F + H: values are pointwise sums, deduplicated per point."""
    return _sum_map(F, H, dedup_tol)[0]


def _sum_map(F: SampledMap, H: SampledMap, dedup_tol: float = 0.0
             ) -> tuple[SampledMap, list[list[tuple[Point, Point]]]]:
    """minkowski_sum_map's graph, and for each of its pairs (u, v) the splits:
    the (z, w) in F(u) x H(u), z outer and w inner, with z + w = v up to 1e-12."""
    if F.domain.points != H.domain.points:
        raise ValueError("summands must share the same domain cloud")
    # Each summand's values per domain point, in pair order, as image_of reads them.
    images: dict[Point, tuple[list[Point], list[Point]]] = {x: ([], []) for x in F.domain}
    for side, summand in enumerate((F, H)):
        for x, y in summand.pairs:
            images[x][side].append(y)
    pairs, splits = [], []
    for x in F.domain.points:
        sums = [(z, w, tuple(a + b for a, b in zip(z, w)))
                for z in images[x][0] for w in images[x][1]]
        kept: list[Point] = []
        for _, _, v in sums:
            if dedup_tol > 0.0:
                if any(math.dist(v, k) <= dedup_tol for k in kept):
                    continue
            elif v in kept:
                continue
            kept.append(v)
        pairs.extend((x, v) for v in kept)
        splits.extend([(z, w) for z, w, s in sums if math.dist(s, v) <= 1e-12] for v in kept)
    sum_map = SampledMap(F.domain, _image_cloud(pairs), tuple(pairs), F.metric_x, F.metric_y)
    return sum_map, splits


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lower: float
    bound: float
    tol: float
    passed: bool
    inconclusive: bool
    details: tuple[tuple[str, float], ...]


def _tol_lg(step: float, *constants: float) -> float:
    return 3.0 * step * (1.0 + sum(constants))


def _rate_inequality(name: str, step: float, base: ModulusReport, lip: float,
                     result: ModulusReport, details: tuple) -> InequalityReport:
    """result.lower >= base.lower - lip - tol; a failure is inconclusive
    while result's bracket still reaches the bound."""
    tol = _tol_lg(step, base.lower, lip)
    threshold = base.lower - lip - tol
    passed = result.lower >= threshold
    return InequalityReport(name=name, lower=result.lower, bound=threshold, tol=tol,
                            passed=passed,
                            inconclusive=(not passed) and (float(result.upper) >= threshold),
                            details=details)


def lg_single_check(inst: PerturbationInstance,
                    cfg: ModulusSearchConfig | None = None,
                    lip_radius: float | None = None) -> InequalityReport:
    """Rate stability under a single-valued perturbation.

    Estimates the openness rate of F at (x_bar, z_bar), the Lipschitz rate of
    h near x_bar, and the openness rate of F + h at (x_bar, z_bar + h(x_bar));
    asserts lower(F + h) >= lower(F) - lip - tol where tol scales with grid
    step and the constants involved.
    """
    if inst.h is None:
        raise ValueError("instance has no single-valued perturbation")
    F = inst.F
    geom = F.geometry
    radius = lip_radius if lip_radius is not None else 0.5 * geom.diam_x
    sur_f = estimate_modulus(F, (inst.x_bar, inst.z_bar), "sur", cfg)
    lip = estimate_lip(inst.h, inst.x_bar, radius, F.domain,
                       metric_x=F.metric_x, metric_y=F.metric_y)
    perturbed = perturbed_map(F, inst.h)
    shift = as_point(inst.h(inst.x_bar))
    z_shifted = tuple(a + b for a, b in zip(inst.z_bar, shift))
    sur_p = estimate_modulus(perturbed, (inst.x_bar, z_shifted), "sur", cfg)
    return _rate_inequality("rate-stability-single", geom.step_x, sur_f, lip.value, sur_p, (
        ("sur_base_lower", sur_f.lower),
        ("sur_base_upper", float(sur_f.upper)),
        ("lip", lip.value),
        ("sur_perturbed_lower", sur_p.lower),
        ("sur_perturbed_upper", float(sur_p.upper)),
    ))


@dataclass(frozen=True)
class GravesReport:
    status: str  # "applied", "skipped", or "inconclusive"
    lip_sequence: tuple[float, ...]
    threshold: float
    sur_f_lower: float | None
    sur_g_lower: float | None
    tol: float | None
    passed: bool | None


def graves_check(f: Callable[[Point], Point], g: Callable[[Point], Point],
                 center, radius: float, cloud: PointCloud,
                 threshold: float = 0.05,
                 cfg: ModulusSearchConfig | None = None) -> GravesReport:
    """Equality of openness rates for maps whose difference flattens out.

    The Lipschitz rate of f - g is sampled on radii r, r/2, r/4; it must not
    increase under shrinkage and must end below `threshold`, else the check
    is inconclusive or skipped. When applicable, the sampled openness rates
    of f and g must agree within the residual rate plus grid tolerance.
    """
    c = as_point(center)
    diff = lambda p: tuple(a - b for a, b in zip(as_point(f(p)), as_point(g(p))))
    radii = (radius, 0.5 * radius, 0.25 * radius)
    lips = tuple(estimate_lip(diff, c, rad, cloud).value for rad in radii)
    monotone = all(a >= b - 1e-12 for a, b in zip(lips, lips[1:]))
    if not monotone:
        return GravesReport("inconclusive", lips, threshold, None, None, None, None)
    if not lips[-1] < threshold:
        return GravesReport("skipped", lips, threshold, None, None, None, None)
    f_map = SampledMap.from_function(cloud, f)
    g_map = SampledMap.from_function(cloud, g)
    sur_f = estimate_modulus(f_map, (c, as_point(f(c))), "sur", cfg)
    sur_g = estimate_modulus(g_map, (c, as_point(g(c))), "sur", cfg)
    step = f_map.geometry.step_x
    tol = lips[-1] + _tol_lg(step, sur_f.lower, sur_g.lower)
    passed = abs(sur_f.lower - sur_g.lower) <= tol
    return GravesReport("applied", lips, threshold, sur_f.lower, sur_g.lower,
                        tol, passed)


@dataclass(frozen=True)
class SetValuedStabilityReport:
    premise_a: CheckReport
    premise_b: CheckReport
    premise_c: CheckReport
    conclusion: CheckReport | None
    constants: tuple[tuple[str, float], ...]
    reading_sensitive: bool
    passed: bool


def lg_setvalued_check(inst: PerturbationInstance,
                       closure_tol: float | None = None) -> SetValuedStabilityReport:
    """Premises and conclusion of rate stability for set-valued perturbations.

    Verifies on the sample: (A) closed-ball openness of F at rate c_prime on
    the prescribed windows, (B) the truncated Lipschitz inclusion for H at
    rate ell, (C) decomposability of sum values. On all-pass the conclusion
    is verified too: F + H has the openness property at rate c - ell on the
    window B(x_bar, a) x B(z_bar + w_bar, b) with constant reach r.
    """
    if inst.H is None:
        raise ValueError("instance has no set-valued perturbation")
    consts = inst.constants or {}
    missing = [k for k in ("c", "c_prime", "ell", "a", "b", "r", "delta")
               if k not in consts]
    if missing:
        raise ValueError(f"missing constants: {', '.join(missing)}")
    c = float(consts["c"])
    c_prime = float(consts["c_prime"])
    ell = float(consts["ell"])
    a = float(consts["a"])
    b = float(consts["b"])
    r = float(consts["r"])
    delta = float(consts["delta"])

    lam = (c_prime - c) / (2.0 * c_prime)
    alpha = 1.0 / (2.0 * c_prime)
    if not 0.0 < lam < 1.0:
        raise AssertionError("internal constant lambda left (0, 1)")
    if not alpha > 0.0:
        raise AssertionError("internal constant alpha must be positive")
    if not (c - ell) * alpha < 1.0:
        raise AssertionError("internal constant (c - ell) * alpha must stay below 1")

    F, H = inst.F, inst.H
    x_bar, z_bar, w_bar = inst.x_bar, inst.z_bar, inst.w_bar
    tol = F.geometry.closure_tolerance(closure_tol)

    premise_a, sensitive = _premise_a(F, x_bar, z_bar, c, c_prime,
                                      a, b, r, delta, tol)
    premise_b = _premise_b(H, x_bar, w_bar, ell, a, r, delta, tol)
    sum_map, splits = _sum_map(F, H)
    du, dv, dz, dw = _sum_distances(F, H, sum_map, x_bar, z_bar, w_bar)
    premise_c = _premise_c(sum_map, splits, du, dv, dz, dw, c, ell, a, b, r, delta)

    conclusion: CheckReport | None = None
    all_premises = premise_a.passed and premise_b.passed and premise_c.passed
    if all_premises:
        region_x = tuple(p for p in sum_map.domain.points if du[p] < a)
        region_y = tuple(q for q in sum_map.codomain.points if dv[q] < b)
        conclusion = check_openness(RegularityInstance(
            mapping=sum_map,
            region_x=region_x,
            region_y=region_y,
            gamma=r,
            constant=c - ell,
            closure_tol=closure_tol,
        ))
    passed = all_premises and conclusion is not None and conclusion.passed
    return SetValuedStabilityReport(
        premise_a=premise_a,
        premise_b=premise_b,
        premise_c=premise_c,
        conclusion=conclusion,
        constants=(("lambda", lam), ("alpha", alpha),
                   ("c_minus_ell_alpha", (c - ell) * alpha)),
        reading_sensitive=sensitive,
        passed=passed,
    )


def _distances(metric: QuasiPremetric, center: Point, cloud: PointCloud) -> np.ndarray:
    """metric(center, p) for every point p of the cloud."""
    return metric.pairwise(np.array([center], dtype=float),
                           np.asarray(cloud.points, dtype=float))[0]


def _premise_a(F: SampledMap, x_bar: Point, z_bar: Point, c: float,
               c_prime: float, a: float, b: float, r: float, delta: float,
               tol: float) -> tuple[CheckReport, bool]:
    geom = F.geometry
    rx, rz = F.locate(x_bar, z_bar)
    z_window = c * (a + r) + b + delta
    v_window = c * (a + 2.0 * r) + b + delta
    rows = np.flatnonzero((geom.DX[rx, geom.pair_xi] < a + r)
                          & (geom.DY[rz, geom.pair_yi] < z_window))
    x, y = geom.pair_xi[rows], geom.pair_yi[rows]
    targets = geom.DY[rz] < v_window
    gam = np.full(len(rows), r)
    tgrid = TGrid(geom.step_x)
    closed_scan, open_scan = (
        _openness_violations(tgrid, geom.DY[y], c_prime, geom.reach(tol, tgrid, strict=closed)[x],
                             targets, gam, closed)
        for closed in (True, False))
    report = CheckReport(
        name="setvalued-premise-A",
        passed=closed_scan.count == 0,
        checked=len(rows),
        violation_count=closed_scan.count,
        witnesses=tuple((geom.domain.points[x[i]],
                         geom.codomain.points[y[i]], t,
                         geom.codomain.points[v])
                        for i, v, t in closed_scan.hits),
        vacuous=len(rows) == 0,
    )
    return report, (closed_scan.count == 0) != (open_scan.count == 0)


def _premise_b(H: SampledMap, x_bar: Point, w_bar: Point, ell: float,
               a: float, r: float, delta: float, tol: float) -> CheckReport:
    geom = H.geometry
    rx, rw = H.locate(x_bar, w_bar)
    near = geom.DX[rx] < a + 2.0 * r
    ball = np.flatnonzero(near)
    # Rows: the pairs (u, w) of H with u in the ball and w near w_bar;
    # columns: the points x of the ball. Each entry asks
    # dist(w, H(x)) <= ell * d(u, x) + tol.
    rows = np.flatnonzero(near[geom.pair_xi]
                          & (geom.DY[rw, geom.pair_yi] < (a + r) * ell + delta))
    u, w = geom.pair_xi[rows], geom.pair_yi[rows]
    scan = _estimate_violations(geom.DX[u][:, ball], geom.DYG[ball][:, w].T,
                                np.ones(len(ball), dtype=bool), np.full(len(rows), math.inf),
                                ell, tol)
    return CheckReport(
        name="setvalued-premise-B",
        passed=scan.count == 0,
        checked=scan.window,
        violation_count=scan.count,
        witnesses=tuple((H.domain.points[u[i]], H.domain.points[ball[j]],
                         H.codomain.points[w[i]], excess, bound)
                        for i, j, excess, bound in scan.hits),
        vacuous=scan.window == 0,
    )


def _premise_c(sum_map: SampledMap, splits: list[list[tuple[Point, Point]]],
               du: dict, dv: dict, dz: dict, dw: dict, c: float, ell: float,
               a: float, b: float, r: float, delta: float) -> CheckReport:
    checked = violations = 0
    witnesses: list[tuple] = []
    for (u, v), pieces in zip(sum_map.pairs, splits):
        if du[u] < a + 2.0 * r and dv[v] < b:
            checked += 1
            if not any(dz[z] < c * (a + r) + b + delta and dw[w] < (a + r) * ell + delta
                       for z, w in pieces):
                violations += 1
                if len(witnesses) < _WITNESS_CAP:
                    witnesses.append((u, v))
    return CheckReport(
        name="setvalued-premise-C",
        passed=violations == 0,
        checked=checked,
        violation_count=violations,
        witnesses=tuple(witnesses),
        vacuous=checked == 0,
    )


def _sum_distances(F: SampledMap, H: SampledMap, sum_map: SampledMap, x_bar: Point,
                   z_bar: Point, w_bar: Point) -> list[dict[Point, float]]:
    """Distances keyed by point, each in its map's own metric: from x_bar to
    the sum map's domain, from z_bar + w_bar to its values, and from z_bar and
    w_bar to the values of F and of H."""
    v_bar = tuple(p + q for p, q in zip(z_bar, w_bar))
    return [dict(zip(cloud.points, _distances(metric, center, cloud)))
            for metric, center, cloud in ((sum_map.metric_x, x_bar, sum_map.domain),
                                          (sum_map.metric_y, v_bar, sum_map.codomain),
                                          (F.metric_y, z_bar, F.codomain),
                                          (H.metric_y, w_bar, H.codomain))]


@dataclass(frozen=True)
class BetaInterval:
    """Open interval (0, upper) of admissible shrink radii; may be empty."""

    upper: float
    empty: bool

    def contains(self, beta: float) -> bool:
        return (not self.empty) and 0.0 < beta < self.upper

    def recheck(self, c: float, ell: float, diam_h: float, a: float,
                b: float) -> bool:
        """Direct re-check of both defining inequalities at the midpoint."""
        if self.empty:
            return True
        beta = 0.5 * self.upper
        return (beta * (3.0 + 2.0 / (c - ell)) < a
                and 3.0 * beta * (c + 1.0) + diam_h < b)


def admissible_beta_interval(c: float, ell: float, diam_h: float, a: float,
                             b: float) -> BetaInterval:
    """Radii beta with beta(3 + 2/(c-ell)) < a and 3 beta (c+1) < b - diam_h."""
    if not ell < c:
        raise ValueError("need ell < c")
    if a <= 0.0 or b <= 0.0:
        raise ValueError("window radii must be positive")
    if diam_h >= b:
        return BetaInterval(upper=0.0, empty=True)
    upper = min(a / (3.0 + 2.0 / (c - ell)),
                (b - diam_h) / (3.0 * (c + 1.0)))
    return BetaInterval(upper=upper, empty=not upper > 0.0)


@dataclass(frozen=True)
class SumStabilityReport:
    entries: tuple[tuple[float, float, bool], ...]  # (xi, largest beta, ok)
    verdict: bool
    grid_step: float


def sum_stability_check(F: SampledMap, H: SampledMap, ref: tuple,
                        xi_schedule: Sequence[float] = (1.0, 0.5, 0.25)
                        ) -> SumStabilityReport:
    """Decomposability of sum values near the reference triple.

    For each xi, finds the largest sampled radius beta such that every
    u near x_bar and every sum value v near z_bar + w_bar splits as
    v = z + w with z within xi of z_bar in F(u) and w within xi of w_bar in
    H(u). Verdict: every xi admits beta above the domain grid step.
    """
    return _sum_stability(F, H, ref, xi_schedule)[0]


def _sum_stability(F: SampledMap, H: SampledMap, ref: tuple, xi_schedule: Sequence[float]
                   ) -> tuple[SumStabilityReport, SampledMap, tuple[Point, Point, Point]]:
    """sum_stability_check's report, with the sum map and stored reference."""
    x_bar, z_bar, w_bar = stored_ref = _reference(F, H, ref)
    sum_map, splits = _sum_map(F, H)
    du, dv, dz, dw = _sum_distances(F, H, sum_map, x_bar, z_bar, w_bar)
    candidates = sorted({float(d) for d in (*du.values(), *dv.values()) if d > 0.0},
                        reverse=True)

    # A sum pair (u, v) splits at xi iff one of its splits z + w has
    # max(dz, dw) < xi; need is the least such max (inf if none). A beta-ball
    # holds iff no pair failing at xi has max(du, dv) < beta.
    reach_arr = np.array([max(du[u], dv[v]) for u, v in sum_map.pairs])
    need_arr = np.array([min((max(dz[z], dw[w]) for z, w in pieces), default=math.inf)
                         for pieces in splits])

    # The sum map has F's domain and metric_x, so F's grid step is its own.
    step = F.geometry.step_x
    entries = []
    for xi in xi_schedule:
        limit = float(np.min(reach_arr, where=~(need_arr < xi), initial=math.inf))
        best = next((beta for beta in candidates if beta <= limit), 0.0)
        entries.append((float(xi), best, best > step))
    verdict = all(ok for _, _, ok in entries)
    report = SumStabilityReport(entries=tuple(entries), verdict=verdict, grid_step=step)
    return report, sum_map, stored_ref


def lg_sumstable_check(F: SampledMap, H: SampledMap, ref: tuple,
                       xi_schedule: Sequence[float] = (1.0, 0.5, 0.25),
                       lip_radius: float | None = None,
                       cfg: ModulusSearchConfig | None = None) -> InequalityReport:
    """Rate stability for sum-stable pairs: sur(F+H) >= sur F - lip H - tol."""
    stability, sum_map, (x_bar, z_bar, w_bar) = _sum_stability(F, H, ref, xi_schedule)
    if not stability.verdict:
        raise ValueError("instance is not sum-stable on the sampled schedule")
    geom = F.geometry
    radius = lip_radius if lip_radius is not None else 0.5 * geom.diam_x
    sur_f = estimate_modulus(F, (x_bar, z_bar), "sur", cfg)
    lip = estimate_lip(H, x_bar, radius, anchor=w_bar)
    v_bar = tuple(p + q for p, q in zip(z_bar, w_bar))
    sur_s = estimate_modulus(sum_map, (x_bar, v_bar), "sur", cfg)
    return _rate_inequality("rate-stability-sum", geom.step_x, sur_f, lip.value, sur_s, (
        ("sur_base_lower", sur_f.lower),
        ("lip", lip.value),
        ("sur_sum_lower", sur_s.lower),
        ("sur_sum_upper", float(sur_s.upper)),
    ))


def global_rate_view(kappa: float, ell: float) -> float:
    """Post-processed regularity constant kappa / (1 - kappa * ell).

    Rearranges a rate-stability report into bound form: when the base map has
    regularity constant kappa and the perturbation Lipschitz rate ell with
    kappa * ell < 1, the perturbed map has regularity constant at most this.
    """
    if kappa <= 0.0 or ell < 0.0:
        raise ValueError("need kappa > 0 and ell >= 0")
    if not kappa * ell < 1.0:
        raise ValueError("view requires kappa * ell < 1")
    return kappa / (1.0 - kappa * ell)

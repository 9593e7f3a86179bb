"""Openness, regularity, and inverse-Lipschitz checks on sampled set-valued maps.

All checks run on finite samples: a set-valued map is a finite list of
(x, y) pairs over a domain cloud and a codomain cloud. Closure membership is
replaced by "within closure_tol of the sampled set", the limit over
shrinking ball radii by a finite decreasing schedule, and the existential
"for some gamma > 0" of the modulus definitions by a halving schedule whose
verdict must repeat once before it is trusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .extreal import INF, ExtReal, as_ext
from .spaces import EUCLIDEAN, Point, PointCloud, QuasiPremetric, as_point

SUP_KINDS = ("sur", "popen", "lopen")
INF_KINDS = ("reg", "lip_inv", "subreg", "calm", "semireg", "incalm")
MODULUS_KINDS = SUP_KINDS + INF_KINDS

_PRODUCT_PAIRS = (
    frozenset({"sur", "reg"}),
    frozenset({"popen", "subreg"}),
    frozenset({"lopen", "semireg"}),
)
_COINCIDENT_PAIRS = (
    frozenset({"reg", "lip_inv"}),
    frozenset({"subreg", "calm"}),
    frozenset({"semireg", "incalm"}),
)

_WITNESS_CAP = 20
# Entries one tile holds: the scan kernels' row tiles, the cold tables'
# gathered rows and ioffe's fiber tiles.
_TILE_ENTRIES = 2 ** 14


def Metric(name: str, pairwise: Callable[[np.ndarray, np.ndarray], np.ndarray]
           ) -> QuasiPremetric:
    """A distance given by its table form pairwise(A, B) -> d(A_i, B_j)."""
    return QuasiPremetric(table=pairwise, name=name)


def graph_max_metric(split: int, alpha: float,
                     metric_x: QuasiPremetric = EUCLIDEAN,
                     metric_y: QuasiPremetric = EUCLIDEAN) -> QuasiPremetric:
    """max(d(u, x), alpha * rho(v, y)) on concatenated (x, y) coordinates."""

    def pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.maximum(
            metric_x.pairwise(a[:, :split], b[:, :split]),
            alpha * metric_y.pairwise(a[:, split:], b[:, split:]),
        )

    return Metric(f"graph-max(alpha={alpha!r})", pairwise)


def _image_cloud(pairs: Sequence[tuple[Point, Point]],
                extra: Sequence[Point] = ()) -> PointCloud:
    """Distinct values of the pairs, then of extra, in first-seen order."""
    return PointCloud(tuple(dict.fromkeys([y for _, y in pairs] + list(extra))))


@dataclass(frozen=True)
class SampledMap:
    """A finite set-valued map: pairs (x, y) over explicit clouds."""

    domain: PointCloud
    codomain: PointCloud
    pairs: tuple[tuple[Point, Point], ...]
    metric_x: QuasiPremetric = EUCLIDEAN
    metric_y: QuasiPremetric = EUCLIDEAN

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("sampled map needs at least one pair")
        seen = set(self.pairs)
        if len(seen) != len(self.pairs):
            raise ValueError("duplicate graph pairs")
        object.__setattr__(self, "_pair_set", seen)
        dom = set(self.domain.points)
        cod = set(self.codomain.points)
        for x, y in self.pairs:
            if x not in dom:
                raise ValueError(f"pair domain point {x} not in domain cloud")
            if y not in cod:
                raise ValueError(f"pair codomain point {y} not in codomain cloud")

    @classmethod
    def from_function(cls, domain: PointCloud, fn: Callable[[Point], float | Sequence[float]],
                      metric_x: QuasiPremetric = EUCLIDEAN,
                      metric_y: QuasiPremetric = EUCLIDEAN,
                      extra_codomain: Sequence[Point] = ()) -> "SampledMap":
        """Sample a single-valued function; the codomain cloud is its image."""
        pairs = tuple((x, as_point(fn(x))) for x in domain.points)
        codomain = _image_cloud(pairs, [as_point(y) for y in extra_codomain])
        return cls(domain, codomain, pairs, metric_x, metric_y)

    @classmethod
    def from_branches(cls, domain: PointCloud,
                      fns: Sequence[Callable[[Point], float | Sequence[float]]],
                      metric_x: QuasiPremetric = EUCLIDEAN,
                      metric_y: QuasiPremetric = EUCLIDEAN) -> "SampledMap":
        pairs = tuple(dict.fromkeys((x, as_point(fn(x)))
                                    for fn in fns for x in domain.points))
        return cls(domain, _image_cloud(pairs), pairs, metric_x, metric_y)

    @cached_property
    def geometry(self) -> "MapGeometry":
        """Distance tables of this map, built on first use and then shared."""
        return MapGeometry(self)

    def image_of(self, x: float | Sequence[float]) -> tuple[Point, ...]:
        """Values over the stored point that x resolves to through
        PointCloud.index_of; () when no point matches, index_of's KeyError
        when several do."""
        i = self.domain._find(x)
        p = None if i is None else self.domain.points[i]
        return tuple(y for (u, y) in self.pairs if u == p)

    def locate(self, x: float | Sequence[float],
               y: float | Sequence[float]) -> tuple[int, int]:
        """Indices of a user's domain point x and codomain point y, each
        resolved through PointCloud.index_of (KeyError on a miss)."""
        return self.domain.index_of(x), self.codomain.index_of(y)

    def on_graph(self, x: float | Sequence[float], y: float | Sequence[float]) -> bool:
        """Whether (x, y), resolved through locate, is a pair of the map."""
        try:
            xi, yi = self.locate(x, y)
        except KeyError:
            return False
        return (self.domain.points[xi], self.codomain.points[yi]) in self._pair_set

    def is_single_valued(self) -> bool:
        return len({x for x, _ in self.pairs}) == len(self.pairs)

    def inverse(self) -> "SampledMap":
        return SampledMap(
            domain=self.codomain,
            codomain=self.domain,
            pairs=tuple((y, x) for (x, y) in self.pairs),
            metric_x=self.metric_y,
            metric_y=self.metric_x,
        )


class MapGeometry:
    """Distance tables of one sampled map, and the reach, preimage, band and
    kernel-verdict memos built from them, shared by every check on the map,
    so each distinct modulus endpoint is scanned once per map. Point and
    pair lookups are the map's (SampledMap.locate and on_graph), so they
    build no table.

    It keeps the map's two clouds rather than the map, so the copy memoized
    on SampledMap.geometry forms no reference cycle and is freed with it.
    """

    def __init__(self, mapping: SampledMap):
        self.domain = mapping.domain
        self.codomain = mapping.codomain
        self.X = np.asarray(mapping.domain.points, dtype=float)
        self.Y = np.asarray(mapping.codomain.points, dtype=float)
        self.DX = mapping.metric_x.pairwise(self.X, self.X)
        self.DY = mapping.metric_y.pairwise(self.Y, self.Y)
        # First occurrences, as PointCloud.index_of resolves, so the pairs of
        # a repeated cloud point sit on the row that point lookups read.
        self.x_index = x_index = dict(mapping.domain._positions)
        self.y_index = y_index = dict(mapping.codomain._positions)
        self.pair_xi = np.array([x_index[x] for x, _ in mapping.pairs], dtype=int)
        self.pair_yi = np.array([y_index[y] for _, y in mapping.pairs], dtype=int)
        n_x = len(self.X)
        # DYG[u, v] = distance from codomain point v to the image of u.
        if np.array_equal(self.pair_xi, np.arange(n_x)):
            self.DYG = self.DY[self.pair_yi]
        else:
            # Pairs grouped by domain index, each group in pair order.
            order = np.argsort(self.pair_xi, kind="stable")
            self.DYG = np.full((n_x, len(self.Y)), np.inf)
            _min_rows(self.pair_xi[order], self.pair_yi[order], self.DY, self.DYG)
        self.step_x = _min_positive(self.DX)
        self.step_y = _min_positive(self.DY)
        self.diam_x = _max_finite(self.DX)
        self.diam_y = _max_finite(self.DY)
        self._reach: dict[tuple[float, TGrid, bool], np.ndarray] = {}
        self._preimage: dict[float, np.ndarray] = {}
        # _ModulusEngine's threshold bands, keyed by everything a band reads,
        # and its kernel verdicts, keyed by the band key and the constant.
        self._bands: dict[tuple, tuple[float, float]] = {}
        self._verdicts: dict[tuple, tuple[bool, tuple | None]] = {}

    def closure_tolerance(self, closure_tol: float | None) -> float:
        """closure_tol when given, else twice the domain step: the tolerance
        within which a sampled set counts as reaching a point."""
        return closure_tol if closure_tol is not None else 2.0 * self.step_x

    def cover_radius(self, tol: float) -> np.ndarray:
        """S[v, x] = least radius whose open domain ball covers v within tol.

        Precisely min{DX[u, x] : dist(v, image(u)) <= tol}; +inf when no
        sampled image approaches v. An open ball of radius t covers v exactly
        when t > S[v, x]; a closed ball when t >= S[v, x]. Built on every
        call and kept nowhere: the checks read its grid floor from reach().
        """
        n_x, n_y = self.DYG.shape
        out = np.full((n_y, n_x), np.inf)
        _min_rows(*np.nonzero(self.DYG.T <= tol), self.DX, out)
        return out

    def reach(self, tol: float, tgrid: "TGrid", strict: bool = False) -> np.ndarray:
        """R[x, v] = tgrid.floor_radius(S[v, x], strict), the openness kernel's reach.

        The largest grid radius <= the cover radius S of cover_radius(tol)
        (< when strict), 0 when there is none, inf when no image approaches
        v. Rows are domain points. Built once per (tol, tgrid, strict) and
        returned read-only.
        """
        key = (tol, tgrid, strict)
        if key not in self._reach:
            out = tgrid.floor_radius(self.cover_radius(tol).T, strict=strict)
            out.flags.writeable = False
            self._reach[key] = out
        return self._reach[key]

    def preimage_distance(self, eps: float) -> np.ndarray:
        """P[x, v] = dist(x, {u : image(u) meets the open ball B(v, eps)}).

        Built once per eps and returned read-only.
        """
        if eps not in self._preimage:
            out = np.full(self.DYG.shape, np.inf)
            _min_rows(*np.nonzero(self.DYG.T < eps), self.DX.T, out.T)
            out.flags.writeable = False
            self._preimage[eps] = out
        return self._preimage[eps]

    def exact_preimage_distance(self) -> np.ndarray:
        """P0[x, v] = dist(x, G^{-1}(v)) with exact membership."""
        out = np.full(self.DYG.T.shape, np.inf)
        np.minimum.at(out, self.pair_yi, self.DX[:, self.pair_xi].T)
        return out.T


def _take_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """table[rows], read without a copy when rows lists every row in order."""
    if len(rows) == len(table) and (rows == np.arange(len(rows))).all():
        return table
    return table[rows]


def _min_rows(rows: np.ndarray, picks: np.ndarray, table: np.ndarray,
              out: np.ndarray) -> None:
    """out[v] = the min of table[u] over the entries (v, u) of (rows, picks).

    rows must be sorted, as np.nonzero gives them; rows not listed are left
    as they are. Each row's min reduces its table rows in the order listed,
    in tiles whose gathered rows hold about _TILE_ENTRIES entries (a row
    with more picks than that is a tile of its own).
    """
    heads = np.flatnonzero(np.diff(rows, prepend=-1))
    ends = np.append(heads[1:], len(rows))
    budget = max(1, _TILE_ENTRIES // table.shape[1])
    lo = 0
    while lo < len(heads):
        hi = max(lo + 1, int(np.searchsorted(ends, heads[lo] + budget, side="right")))
        gathered = table[picks[heads[lo]:ends[hi - 1]]]
        out[rows[heads[lo:hi]]] = np.minimum.reduceat(gathered, heads[lo:hi] - heads[lo],
                                                      axis=0)
        lo = hi


def _min_positive(d: np.ndarray) -> float:
    # An infinite entry never lowers the min, so inf means no finite positive.
    low = float(np.min(d, where=d > 0.0, initial=math.inf))
    return low if low < math.inf else 1.0

def _max_finite(d: np.ndarray) -> float:
    high = float(np.max(d, where=np.isfinite(d), initial=-math.inf))
    return high if high > -math.inf else 1.0


@dataclass(frozen=True)
class TGrid:
    """Geometric radius grid t_k = t_min * ratio**k, k = 0, 1, ..."""

    t_min: float
    per_decade: int = 20

    @property
    def ratio(self) -> float:
        return 10.0 ** (1.0 / self.per_decade)

    def radius(self, k: np.ndarray) -> np.ndarray:
        """Grid radii t_k; every grid radius in the package comes from here."""
        return self.t_min * np.power(self.ratio, np.asarray(k, dtype=float))

    def floor_radius(self, bound: np.ndarray, strict: bool = False) -> np.ndarray:
        """Largest grid radius <= bound (< when strict), per entry.

        0 when even t_0 misses the bound, inf for an infinite bound. The
        radii come from radius(), so they are the ones first_reaching returns.
        """
        bound = np.asarray(bound, dtype=float)
        top = np.max(bound, where=np.isfinite(bound), initial=self.t_min)
        radii = self.radius(np.arange(math.ceil(math.log(top / self.t_min)
                                                / math.log(self.ratio)) + 2))
        k = np.searchsorted(radii, bound, side="left" if strict else "right")
        out = np.asarray(np.concatenate(([0.0], radii))[k])
        out[np.isinf(bound)] = np.inf
        return out

    def first_reaching(self, rho: np.ndarray, constant: float,
                       closed: bool = False) -> np.ndarray:
        """Smallest grid t with rho < constant * t (<= when closed), per entry.

        The initial guess comes from logarithms; correction passes re-test the
        exact float predicate so the returned radius is the true minimizer.
        """
        rho = np.asarray(rho, dtype=float)
        out = np.full(rho.shape, np.inf)
        finite = np.isfinite(rho)
        if not finite.any():
            return out
        rf = np.maximum(rho[finite], 0.0)
        with np.errstate(divide="ignore"):
            guess = (np.log(np.maximum(rf / (constant * self.t_min), 1e-300))
                     / math.log(self.ratio))
        k = np.maximum(np.floor(guess).astype(np.int64), 0)

        def hit(tt: np.ndarray) -> np.ndarray:
            lhs = constant * tt
            return rf <= lhs if closed else rf < lhs

        t = self.radius(k)
        for _ in range(6):
            bad = ~hit(t)
            if not bad.any():
                break
            k = k + bad.astype(np.int64)
            t = self.radius(k)
        for _ in range(6):
            prev = self.radius(np.maximum(k - 1, 0))
            down = (k > 0) & hit(prev)
            if not down.any():
                break
            k = k - down.astype(np.int64)
            t = self.radius(k)
        out[finite] = t
        return out


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    checked: int
    violation_count: int
    witnesses: tuple
    vacuous: bool
    stabilized: bool | None = None  # limit-schedule stabilization, when relevant


@dataclass(frozen=True)
class RegularityInstance:
    """A property-check instance: map, regions, reach function, constant."""

    mapping: SampledMap
    region_x: tuple[Point, ...]
    region_y: tuple[Point, ...]
    gamma: object  # scalar, mapping point -> value, or callable point -> value
    constant: float
    eps_schedule: tuple[float, ...] = ()
    closure_tol: float | None = None
    t_per_decade: int = 20

    def __post_init__(self) -> None:
        if not self.constant > 0.0:
            raise ValueError("constant must be positive")
        if self.eps_schedule:
            for a, b in zip(self.eps_schedule, self.eps_schedule[1:]):
                if not (a > b > 0.0):
                    raise ValueError("eps_schedule must be strictly decreasing and positive")
        if self.closure_tol is not None and self.closure_tol < 0.0:
            raise ValueError("closure_tol must be nonnegative")


def _gamma_array(gamma: object, domain: PointCloud) -> np.ndarray:
    if callable(gamma):
        vals = [float(as_ext(gamma(p))) for p in domain.points]
    elif isinstance(gamma, Mapping):
        try:
            vals = [float(as_ext(gamma[p])) for p in domain.points]
        except KeyError as exc:
            raise KeyError(f"gamma table missing domain point {exc}") from None
    else:
        vals = [float(as_ext(gamma))] * len(domain)
    return np.array(vals, dtype=float)


def _region_mask(points: Sequence[Point], cloud: PointCloud) -> np.ndarray:
    mask = np.zeros(len(cloud), dtype=bool)
    for p in points:
        try:
            mask[cloud.index_of(p)] = True
        except KeyError:
            raise KeyError(f"region point {as_point(p)} not in cloud") from None
    return mask


@dataclass
class _Prepared:
    geom: MapGeometry
    u_mask: np.ndarray
    v_mask: np.ndarray
    gam: np.ndarray
    tol: float
    tgrid: TGrid
    eps_schedule: tuple[float, ...]


def _prepare(inst: RegularityInstance) -> _Prepared:
    g = inst.mapping.geometry
    tol = g.closure_tolerance(inst.closure_tol)
    eps = inst.eps_schedule or _default_eps_schedule(g)
    gam = _gamma_array(inst.gamma, inst.mapping.domain)
    u_mask = _region_mask(inst.region_x, g.domain)
    if not (gam[u_mask] > 0.0).any():
        raise ValueError("gamma vanishes identically on the domain region")
    return _Prepared(
        geom=g,
        u_mask=u_mask,
        v_mask=_region_mask(inst.region_y, g.codomain),
        gam=gam,
        tol=tol,
        tgrid=TGrid(g.step_x, inst.t_per_decade),
        eps_schedule=tuple(eps),
    )


def _default_eps_schedule(geom: MapGeometry) -> tuple[float, ...]:
    # The schedule must not drop below the coarser grid scale: a merged
    # multi-branch codomain can have pairwise gaps far below the domain
    # resolution, and an eps under that gap hides legitimate preimages.
    base = max(geom.step_x, geom.step_y)
    return (4.0 * base, 2.0 * base, base)


# --- the two scan kernels ----------------------------------------------------
#
# Every check runs on a block of source rows (graph pairs or domain points)
# against target columns (codomain points). An entry takes part only where
# its column mask is set and its least reaching grid radius (openness) or
# constant * rho (estimate) is below the row's gamma, so a gamma of 0 drops
# the row.


class _Scan(NamedTuple):
    window: int   # (row, column) entries inside the quantifier window
    count: int    # violations among them
    hits: tuple   # first _WITNESS_CAP violations, row-major: (row, col, *values)


def _scan(window: np.ndarray, viol: np.ndarray, *values: np.ndarray) -> _Scan:
    per_row = viol.sum(axis=1)
    count = int(per_row.sum())
    if not count:
        return _Scan(int(window.sum()), 0, ())
    # Only the rows holding the first _WITNESS_CAP violations are searched.
    last = int(np.searchsorted(np.cumsum(per_row), _WITNESS_CAP))
    hits = tuple((int(r), int(c), *(float(v[r, c]) for v in values))
                 for r, c in np.argwhere(viol[:last + 1])[:_WITNESS_CAP])
    return _Scan(int(window.sum()), count, hits)


def _tiled_scan(rows: int, cols: int, tile: Callable[[slice], tuple],
                first: bool) -> _Scan:
    """_scan over row tiles of at most _TILE_ENTRIES entries (a row wider than
    that is a tile of its own); tile(s) gives _scan's arguments for rows s.

    Sums add up and row-major tiles keep the row-major hits, so the result
    is one _scan's. With first, the walk stops after the first tile holding
    a violation: window and count then cover the tiles walked, and hits[0]
    is the whole scan's.
    """
    step = max(1, _TILE_ENTRIES // max(cols, 1))
    window = count = 0
    hits: list[tuple] = []
    for r0 in range(0, rows, step):
        part = _scan(*tile(slice(r0, r0 + step)))
        window += part.window
        count += part.count
        hits += [(r0 + r, *rest) for r, *rest in part.hits[:_WITNESS_CAP - len(hits)]]
        if first and hits:
            break
    return _Scan(window, count, tuple(hits))


def _openness_violations(tgrid: TGrid, rho: np.ndarray, constant: float,
                         reach: np.ndarray, cols: np.ndarray, gam: np.ndarray,
                         closed: bool, *, first: bool = False) -> _Scan:
    """Ball-inclusion scan; hits carry the radius t. first: see _tiled_scan.

    Entry (i, v) is reached at the least grid radius t with rho[i, v] <
    constant * t (<= when closed). The inclusion fails when that radius is
    below gamma while the open (closed) domain ball around row i's point
    misses v; reach[i, v] is the largest grid radius <= (< when closed) the
    least covering radius, 0 when there is none. Since constant * t never
    decreases along the grid, t <= T for a grid radius T exactly when rho <
    constant * T (<=), so the scan compares rho with constant * T and finds
    t only for the hits.
    """
    top = tgrid.floor_radius(gam, strict=True)[:, None]

    def tile(s: slice) -> tuple:
        r, t, fixed = rho[s], top[s], reach[s]
        if closed:
            # rho = 0 would pass <= against a radius of 0, and an infinite
            # rho against an infinite radius, where no grid radius reaches or
            # covers.
            window = cols & (r <= constant * t) & (t > 0.0) & np.isfinite(r)
            return window, window & (r <= constant * fixed) & (fixed > 0.0)
        window = cols & (r < constant * t)
        return window, window & (r < constant * fixed)

    scan = _tiled_scan(*rho.shape, tile, first)
    if not scan.hits:
        return scan
    t = tgrid.first_reaching(np.array([rho[hit] for hit in scan.hits]), constant,
                             closed=closed)
    return scan._replace(hits=tuple((*hit, float(ti)) for hit, ti in zip(scan.hits, t)))


def _estimate_violations(rho: np.ndarray, surrogate: np.ndarray, cols: np.ndarray,
                         gam: np.ndarray, constant: float, tol: float, *,
                         first: bool = False) -> _Scan:
    """Distance-estimate scan surrogate <= constant * rho + tol where
    constant * rho < gamma; hits carry (surrogate, bound). first: see
    _tiled_scan."""
    def tile(s: slice) -> tuple:
        scaled = constant * rho[s]
        window = cols & (scaled < gam[s, None])
        bound = scaled + tol
        with np.errstate(invalid="ignore"):
            viol = window & ~(surrogate[s] <= bound)
        return window, viol, surrogate[s], bound

    return _tiled_scan(*rho.shape, tile, first)


def _openness_witness(geom: MapGeometry, xi: int, yi: int, v: int,
                      t: float, closed: bool) -> tuple:
    """The witness (x, y, t, target, gap) of one openness violation."""
    if closed:
        ball = geom.DX[:, xi] <= t
    else:
        ball = geom.DX[:, xi] < t
    gap = float(geom.DYG[ball, v].min()) if ball.any() else math.inf
    return (geom.domain.points[xi], geom.codomain.points[yi], t,
            geom.codomain.points[v], gap)


def _openness_check(inst: RegularityInstance, closed: bool, name: str) -> CheckReport:
    prep = _prepare(inst)
    geom = prep.geom
    rows = np.flatnonzero(prep.u_mask[geom.pair_xi])
    x, y = geom.pair_xi[rows], geom.pair_yi[rows]
    reach = _take_rows(geom.reach(prep.tol, prep.tgrid, strict=closed), x)
    scan = _openness_violations(prep.tgrid, _take_rows(geom.DY, y), inst.constant, reach,
                                prep.v_mask, prep.gam[x], closed)
    return CheckReport(
        name=name,
        passed=scan.count == 0,
        checked=len(rows),
        violation_count=scan.count,
        witnesses=tuple(_openness_witness(geom, x[r], y[r], v, t_hit, closed)
                        for r, v, t_hit in scan.hits),
        vacuous=scan.window == 0,
    )


def check_openness(inst: RegularityInstance) -> CheckReport:
    """Ball-inclusion openness on the sampled regions.

    For every graph pair (x, y) with x in the domain region and every radius
    t on the geometric grid below gamma(x), each codomain-region point within
    constant * t of y must lie within closure_tol of the image of the open
    domain ball around x of radius t.
    """
    return _openness_check(inst, False, "openness")


def closed_ball_openness(inst: RegularityInstance) -> CheckReport:
    """Openness variant with closed target and closed source balls."""
    return _openness_check(inst, True, "openness-closed")


def _limit_surrogate(prep: _Prepared) -> tuple[np.ndarray, bool]:
    """Distance-to-preimage limit: final schedule value plus stabilization flag."""
    last = prep.geom.preimage_distance(prep.eps_schedule[-1])
    if len(prep.eps_schedule) >= 2:
        prev = prep.geom.preimage_distance(prep.eps_schedule[-2])
        both = np.isfinite(last) & np.isfinite(prev)
        stabilized = bool(np.all(np.abs(last[both] - prev[both]) <= prep.tol)) and bool(
            np.array_equal(np.isfinite(last), np.isfinite(prev)))
    else:
        stabilized = True
    return last, stabilized


def _estimate_check(inst: RegularityInstance, from_pairs: bool, name: str) -> CheckReport:
    prep = _prepare(inst)
    geom = prep.geom
    surrogate, stabilized = _limit_surrogate(prep)
    if from_pairs:
        rows = np.flatnonzero(prep.u_mask[geom.pair_xi])
        x = geom.pair_xi[rows]
        rho = _take_rows(geom.DY, geom.pair_yi[rows])
    else:
        x = np.flatnonzero(prep.u_mask)
        rho = _take_rows(geom.DYG, x)
    scan = _estimate_violations(rho, _take_rows(surrogate, x), prep.v_mask, prep.gam[x],
                                inst.constant, prep.tol)
    return CheckReport(
        name=name,
        passed=scan.count == 0,
        checked=scan.window,
        violation_count=scan.count,
        witnesses=tuple((geom.domain.points[x[r]], geom.codomain.points[v], value, bound)
                        for r, v, value, bound in scan.hits),
        vacuous=scan.window == 0,
        stabilized=stabilized,
    )


def check_regularity_estimate(inst: RegularityInstance) -> CheckReport:
    """Distance estimate dist(x, G^{-1}(ball(y, eps))) <= mu * dist(y, G(x)).

    Evaluated on region pairs with mu * dist(y, G(x)) < gamma(x); the limit
    over eps is the last value of the decreasing schedule, compared within
    closure_tol.
    """
    return _estimate_check(inst, False, "regularity-estimate")


def check_inverse_lipschitz(inst: RegularityInstance) -> CheckReport:
    """Graph-to-nearby-target estimate dist(x, G^{-1}(ball(y', eps))) <= mu * rho(y, y').

    Quantified over graph pairs (x, y) with x in the domain region and
    codomain-region points y' with mu * rho(y, y') < gamma(x).
    """
    return _estimate_check(inst, True, "inverse-lipschitz")


@dataclass(frozen=True)
class EquivalenceReport:
    openness: CheckReport
    regularity: CheckReport
    inverse: CheckReport
    agree: bool
    constant: float


def equivalence_suite(inst: RegularityInstance) -> EquivalenceReport:
    """Run the three properties in the loop openness(c) / estimates(1/c)."""
    gam = _gamma_array(inst.gamma, inst.mapping.domain)
    region = _region_mask(inst.region_x, inst.mapping.domain)
    if not (gam[region] > 0.0).all():
        raise ValueError("equivalence loop requires gamma > 0 on the domain region")
    o = check_openness(inst)
    dual = replace(inst, constant=1.0 / inst.constant)
    r = check_regularity_estimate(dual)
    l = check_inverse_lipschitz(dual)
    verdicts = {o.passed, r.passed, l.passed}
    return EquivalenceReport(o, r, l, agree=len(verdicts) == 1, constant=inst.constant)


# --- modulus estimation ----------------------------------------------------


@dataclass(frozen=True)
class ModulusSearchConfig:
    gamma0: float | None = None          # default: the domain diameter
    gamma_floor_steps: float = 4.0       # floor = steps * grid step
    bisect_iters: int = 40
    bracket: tuple[float, float] | None = None
    closure_tol: float | None = None
    t_per_decade: int = 20
    eps_schedule: tuple[float, ...] = ()


@dataclass(frozen=True)
class ModulusReport:
    kind: str
    lower: float
    upper: ExtReal
    estimate: float
    grid_resolution: float
    stabilized_gamma: float | None
    resolution_limited: bool
    witness_ok: tuple | None
    witness_fail: tuple | None

    def __post_init__(self) -> None:
        if self.upper < self.lower:
            raise ValueError("modulus bracket must satisfy lower <= upper")


# Each kind is one scan over a static block: (scan, source rows, rows near
# the reference point or at it, target columns a ball around the reference
# value or that value alone). Pair rows read rho = DY[y] and domain rows
# rho = DYG[x].
_KIND_SCANS = {
    "sur": ("open", "pairs", "near", "ball"),
    "lopen": ("open", "pairs", "at", "ball"),
    "popen": ("open", "domain", "near", "ref"),
    "reg": ("estimate", "domain", "near", "ball"),
    "subreg": ("estimate", "domain", "near", "ref"),
    "semireg": ("estimate", "domain", "at", "ball"),
    "lip_inv": ("estimate", "pairs", "near", "ball"),
    "calm": ("estimate", "pairs", "near", "ref"),
    "incalm": ("estimate", "pairs", "at", "ball"),
}


@dataclass(frozen=True)
class _KindBlock:
    open_scan: bool
    x: np.ndarray         # domain index of each row
    y: np.ndarray         # codomain index of each row, for witnesses
    cols: np.ndarray      # codomain index of each column
    rho: np.ndarray       # rows x cols
    # Open scans: the largest grid radius <= the cover radius (0 when there
    # is none), the kernel's reach.
    # Estimate scans: the surrogate. Both rows x cols.
    fixed: np.ndarray
    row_dist: np.ndarray  # distance of each row's x from the reference point
    col_dist: np.ndarray  # distance of each column from the reference value

    def box(self, gamma: float) -> "_Box":
        """The least row range and column range holding the gamma window.

        No entry outside them can count or violate, and row-major order
        inside them is the block's own, so a scan of the box has the block's
        verdict, count and first hits, shifted by the box offsets. The
        ranges are basic slices: views, not copies.
        """
        row_in, col_in = self.row_dist < gamma, self.col_dist < gamma
        rs, cs = _span(row_in), _span(col_in)
        return _Box(rs.start, cs.start, self.rho[rs, cs], self.fixed[rs, cs],
                    row_in[rs], col_in[cs])


class _Box(NamedTuple):
    r0: int               # block row of the box's first row
    c0: int               # block column of the box's first column
    rho: np.ndarray
    fixed: np.ndarray
    row_in: np.ndarray    # whether each box row is inside the window
    col_in: np.ndarray    # whether each box column is inside the window


def _span(mask: np.ndarray) -> slice:
    """The least slice holding every set entry of mask, empty when none is."""
    hit = np.flatnonzero(mask)
    return slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0)


# Relative rounding slack of a rate threshold min rho / T, and the slack of a
# bound threshold min(gamma, surrogate - tol) / rho in units of
# (gamma + tol) / rho. Constants inside the slack are left to the kernel.
# With u = 2**-53 the unit roundoff, and away from the subnormal range:
# - Rate kinds. The kernel tests rho < fl(c * T), the band takes
#   fl(rho / T), and each rounds by at most u; the fmin is exact, and
#   widening the threshold by (1 -+ slack) rounds once more. So the band's
#   edges sit within about 3u relative of the threshold the kernel applies,
#   before the slack moves them out.
# - Bound kinds. The kernel tests fl(c * rho) < gamma and surrogate <=
#   fl(fl(c * rho) + tol), the band takes min(fl(surrogate - tol), gamma),
#   adds or subtracts the slack and divides by rho. Near the threshold c *
#   rho is at most gamma and the sums at most gamma + tol, so these roundings
#   move c * rho by at most about 5u * (gamma + tol) in all, which the
#   slack's (gamma + tol) / rho scaling covers.
# 2**-46 = 128u covers both with a wide margin, so the kernel decides only a
# constant within about 1e-14 relative of a threshold.
_RATE_SLACK = 2.0 ** -46
_BOUND_SLACK = 2.0 ** -46


class _ModulusEngine:
    """Property evaluation for the nine moduli at a fixed reference pair.

    At a fixed gamma each property is monotone in the constant: a rate kind
    holds exactly for constants up to a threshold, a bound kind exactly from
    one on. band() computes that threshold in one vectorized pass over the
    kind's block and widens it by the rounding slack of its float operations,
    a few ulps; verdict() answers a probe outside the band by comparing the
    constant with it. The scan kernel (holds_at) runs in endpoint(), which
    re-evaluates a bracket endpoint and yields its witness, and otherwise
    only for the rare probe that lands inside a band.

    Blocks and bands are keyed by content, not by kind. When the map's pairs
    list each domain point once, in domain order, the pair rows of an
    estimate scan are the domain rows (DY[pair_yi] equals DYG row for row),
    and an estimate witness never reads a row's codomain point; so lip_inv,
    calm and incalm share the blocks, bands and scans of reg, subreg and
    semireg. Blocks are kept per engine. Bands and kernel verdicts are kept
    on the MapGeometry, beside the reach and preimage tables, under
    everything they read, so each distinct band is computed, and each
    distinct endpoint scanned, once per map, reference and configuration.
    """

    def __init__(self, mapping: SampledMap, ref: tuple, cfg: ModulusSearchConfig):
        if not mapping.on_graph(ref[0], ref[1]):
            raise ValueError(f"reference pair ({as_point(ref[0])}, {as_point(ref[1])}) "
                             "must lie on the graph")
        self.geom = geom = mapping.geometry
        self.rx, self.ry = mapping.locate(ref[0], ref[1])
        self.tol = geom.closure_tolerance(cfg.closure_tol)
        self.tgrid = TGrid(self.geom.step_x, cfg.t_per_decade)
        self.eps = cfg.eps_schedule or _default_eps_schedule(self.geom)
        self.gamma0 = cfg.gamma0 if cfg.gamma0 is not None else self.geom.diam_x
        self.gamma_floor = cfg.gamma_floor_steps * self.geom.step_x
        schedule = []
        g = self.gamma0
        while g >= self.gamma_floor and len(schedule) < 60:
            schedule.append(g)
            g *= 0.5
        self.gamma_schedule = tuple(schedule) or (self.gamma0,)
        one_per_point = np.array_equal(geom.pair_xi, np.arange(len(geom.X)))
        # Per kind, its content (what its block reads) and then the rest of
        # what a band or a kernel verdict reads but gamma and the constant:
        # the geometry's memo keys start with it.
        self._keys = {
            kind: ((scan, "domain" if scan == "estimate" and one_per_point else source,
                    rows, targets), self.rx, self.ry, self.tol, self.tgrid, self.eps[-1])
            for kind, (scan, source, rows, targets) in _KIND_SCANS.items()}
        self._blocks: dict[tuple[str, str, str, str], _KindBlock] = {}
        # band(kind, gamma_schedule[i]) at [kind][i], filled on first use.
        self._kind_bands: dict[str, list[tuple[float, float] | None]] = {
            kind: [None] * len(self.gamma_schedule) for kind in MODULUS_KINDS}

    def block(self, kind: str) -> _KindBlock:
        content = self._keys[kind][0]
        if content not in self._blocks:
            scan, source, rows, targets = content
            geom = self.geom
            if source == "pairs":
                x, y = geom.pair_xi, geom.pair_yi
            else:
                x = np.arange(len(geom.X))
                y = np.full(len(x), self.ry)
            if rows == "at":
                at = x == self.rx
                x, y = x[at], y[at]
            # Rows that list every table row, and a slice for the whole
            # codomain, read the geometry's tables without copying them.
            cols = slice(None) if targets == "ball" else [self.ry]
            rho = _take_rows(geom.DY, y) if source == "pairs" else _take_rows(geom.DYG, x)
            if scan == "open":
                fixed = geom.reach(self.tol, self.tgrid)
            else:
                fixed = geom.preimage_distance(self.eps[-1])
            self._blocks[content] = _KindBlock(
                open_scan=scan == "open", x=x, y=y,
                cols=np.arange(len(geom.Y))[cols], rho=rho[:, cols],
                fixed=_take_rows(fixed, x)[:, cols],
                row_dist=geom.DX[self.rx, x] if rows == "near" else np.zeros(len(x)),
                col_dist=geom.DY[self.ry, cols] if targets == "ball" else np.zeros(1))
        return self._blocks[content]

    def holds_at(self, kind: str, constant: float, gamma: float) -> tuple[bool, tuple | None]:
        """The kernel's verdict and first violation, kept on the geometry
        beside the bands, under the band key and the constant. So a bracket
        endpoint reads the bisection's scan, and each distinct endpoint is
        scanned once per map, reference and configuration."""
        key = (*self._keys[kind], gamma, constant)
        verdicts = self.geom._verdicts
        if key not in verdicts:
            verdicts[key] = self._scan_kind(kind, constant, gamma)
        return verdicts[key]

    def _scan_kind(self, kind: str, constant: float, gamma: float
                   ) -> tuple[bool, tuple | None]:
        b = self.block(kind)
        box = b.box(gamma)
        gam = np.where(box.row_in, gamma, 0.0)
        if b.open_scan:
            scan = _openness_violations(self.tgrid, box.rho, constant, box.fixed, box.col_in,
                                        gam, closed=False, first=True)
        else:
            scan = _estimate_violations(box.rho, box.fixed, box.col_in, gam, constant, self.tol,
                                        first=True)
        if not scan.hits:
            return True, None
        r, c, *values = scan.hits[0]
        r, c = box.r0 + r, box.c0 + c
        xi, v = int(b.x[r]), int(b.cols[c])
        if b.open_scan:
            return False, _openness_witness(self.geom, xi, int(b.y[r]), v, values[0], False)
        return False, (self.geom.domain.points[xi], self.geom.codomain.points[v], *values)

    def band(self, kind: str, gamma: float) -> tuple[float, float]:
        """(below, above) around the threshold constant at gamma.

        A rate kind holds below `below` and fails above `above`; a bound kind
        fails below `below` and holds above `above`.
        """
        key = (*self._keys[kind], gamma)
        bands = self.geom._bands
        if key not in bands:
            b = self.block(kind)
            box = b.box(gamma)
            window = box.row_in[:, None] & box.col_in
            if b.open_scan:
                bands[key] = self._rate_band(box, window, gamma)
            else:
                bands[key] = self._bound_band(box, window, gamma)
        return bands[key]

    def _rate_band(self, b: _Box, window: np.ndarray,
                   gamma: float) -> tuple[float, float]:
        # An entry violates iff its t* is <= T, the largest grid radius that
        # is <= its cover radius and < gamma, that is iff rho < c * T. So the
        # kind holds iff c <= min rho / T. T = 0 (no such radius) and an
        # infinite rho never violate: rho / T is inf or nan, which fmin skips.
        ratio = np.minimum(b.fixed, self.tgrid.floor_radius(gamma, strict=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(b.rho, ratio, out=ratio)
        c = float(np.fmin.reduce(ratio, axis=None, where=window, initial=math.inf))
        return c * (1.0 - _RATE_SLACK), c * (1.0 + _RATE_SLACK)

    def _bound_band(self, b: _Box, window: np.ndarray,
                    gamma: float) -> tuple[float, float]:
        # An entry violates iff c * rho < gamma and c * rho + tol < surrogate.
        # A surrogate <= tol or an infinite rho never violates; rho = 0 with a
        # larger surrogate violates at every constant. Otherwise the entry
        # violates iff c < min(gamma, surrogate - tol) / rho, so the kind
        # holds iff c is at least the largest of these.
        live = window & (b.fixed > self.tol)
        if (live & (b.rho == 0.0)).any():
            return math.inf, math.inf
        live &= np.isfinite(b.rho)
        # Divided over the whole box and reduced over the live entries only,
        # which max reads in any order.
        num = b.fixed - self.tol
        np.minimum(num, gamma, out=num)
        slack = _BOUND_SLACK * (gamma + self.tol)
        below = num - slack
        num += slack
        with np.errstate(divide="ignore", invalid="ignore"):
            below /= b.rho
            num /= b.rho
        return (float(np.max(below, where=live, initial=-math.inf)),
                float(np.max(num, where=live, initial=-math.inf)))

    def verdict(self, kind: str, constant: float) -> tuple[bool, float | None, bool]:
        """Scan the gamma schedule; trust the first repeated verdict.

        Returns (holds, stabilized_gamma, resolution_limited).
        """
        prev: bool | None = None
        prev_gamma = None
        bands = self._kind_bands[kind]
        for i, g in enumerate(self.gamma_schedule):
            if bands[i] is None:
                bands[i] = self.band(kind, g)
            ok = _band_verdict(kind, constant, bands[i])
            if ok is None:
                ok = self.holds_at(kind, constant, g)[0]
            if prev is not None and ok == prev:
                return ok, g, False
            prev, prev_gamma = ok, g
        return bool(prev), prev_gamma, True

    def endpoint(self, kind: str, constant: float, gamma: float, holds: bool) -> tuple:
        """Re-evaluate a verdict with the kernel: (constant, gamma) when it
        holds, (constant, gamma, first violation) when it fails."""
        ok, witness = self.holds_at(kind, constant, gamma)
        if ok != holds:
            raise RuntimeError(f"{kind} threshold verdict {holds} at constant {constant!r}, "
                               f"gamma {gamma!r} contradicts the scan kernel")
        return (constant, gamma) if ok else (constant, gamma, witness)


def _band_verdict(kind: str, constant: float, band: tuple[float, float]) -> bool | None:
    """The verdict at a constant outside band = (below, above), else None."""
    if constant < band[0]:
        return kind in SUP_KINDS
    if constant > band[1]:
        return kind not in SUP_KINDS
    return None


def check_modulus_property(mapping: SampledMap, ref: tuple, kind: str, constant: float,
                           gamma: float, cfg: ModulusSearchConfig | None = None
                           ) -> CheckReport:
    """Re-checkable single-gamma evaluation of a modulus-defining property."""
    if kind not in MODULUS_KINDS:
        raise ValueError(f"unknown modulus kind {kind!r}")
    engine = _ModulusEngine(mapping, ref, cfg or ModulusSearchConfig())
    ok, witness = engine.holds_at(kind, constant, gamma)
    return CheckReport(
        name=f"modulus-property({kind})",
        passed=ok,
        checked=1,
        violation_count=0 if ok else 1,
        witnesses=() if ok else (witness,),
        vacuous=False,
    )


def estimate_modulus(mapping: SampledMap, ref: tuple, kind: str,
                     cfg: ModulusSearchConfig | None = None) -> ModulusReport:
    """Bracket one of the nine moduli by bisection over the constant.

    For rate-type kinds (sur, popen, lopen) the modulus is the supremum of
    passing constants; for bound-type kinds it is the infimum. Each probe
    walks the gamma schedule until a verdict repeats. At each gamma the
    verdict comes from the kind's threshold constant. Thresholds are kept on
    the map's geometry, so a later call with the same reference and
    configuration reads them, and on a map with one pair per domain point
    lip_inv, calm and incalm read those of reg, subreg and semireg (see
    _ModulusEngine). The scan kernel evaluates the sample at the two
    reported bracket endpoints, and otherwise only in the rare probe that
    lies within a few ulps of a threshold. Its verdicts are kept on the
    geometry too, so each distinct endpoint is scanned once per map,
    reference and configuration, and a repeated call runs no scan. So the
    endpoints always carry verdicts actually evaluated on the sample, and
    witness_fail is the kernel's first violation.
    """
    if kind not in MODULUS_KINDS:
        raise ValueError(f"unknown modulus kind {kind!r}")
    cfg = cfg or ModulusSearchConfig()
    engine = _ModulusEngine(mapping, ref, cfg)
    lo, hi = cfg.bracket if cfg.bracket is not None else (
        min(engine.geom.step_x, engine.geom.step_y),
        (engine.geom.diam_x + engine.geom.diam_y) / min(engine.geom.step_x,
                                                        engine.geom.step_y),
    )
    if not 0.0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    sup_kind = kind in SUP_KINDS
    ok_lo, g_lo, rl_lo = engine.verdict(kind, lo)
    ok_hi, g_hi, rl_hi = engine.verdict(kind, hi)
    resolution_limited = rl_lo or rl_hi

    # The search ends at lo when a rate kind fails there or a bound kind
    # holds, and at hi when a rate kind holds there or a bound kind fails.
    for c, ok, g, lower, upper, ends_here in (
            (lo, ok_lo, g_lo, 0.0, as_ext(lo), ok_lo != sup_kind),
            (hi, ok_hi, g_hi, hi, INF, ok_hi == sup_kind)):
        if ends_here:
            end = engine.endpoint(kind, c, g, ok)
            return _report(kind, lower, upper, engine, g, resolution_limited,
                           *((end, None) if ok else (None, end)))

    passing, failing = ((lo, g_lo), (hi, g_hi)) if sup_kind else ((hi, g_hi), (lo, g_lo))
    stabilized_gamma = g_lo
    for _ in range(cfg.bisect_iters):
        mid = 0.5 * (passing[0] + failing[0])
        if mid == passing[0] or mid == failing[0]:
            break
        ok, g_mid, rl_mid = engine.verdict(kind, mid)
        resolution_limited = resolution_limited or rl_mid
        if ok:
            passing = (mid, g_mid)
        else:
            failing = (mid, g_mid)
        stabilized_gamma = g_mid

    c_pass, c_fail = passing[0], failing[0]
    lower, upper = (c_pass, c_fail) if sup_kind else (c_fail, c_pass)
    return _report(kind, lower, as_ext(upper), engine, stabilized_gamma, resolution_limited,
                   engine.endpoint(kind, *passing, True), engine.endpoint(kind, *failing, False),
                   c_pass)


def _report(kind: str, lower: float, upper: ExtReal, engine: _ModulusEngine,
            stabilized_gamma: float | None, resolution_limited: bool,
            witness_ok, witness_fail, estimate: float | None = None) -> ModulusReport:
    if estimate is None:
        estimate = lower if kind in SUP_KINDS else float(upper)
    return ModulusReport(
        kind=kind,
        lower=lower,
        upper=upper,
        estimate=estimate,
        grid_resolution=engine.geom.step_x,
        stabilized_gamma=stabilized_gamma,
        resolution_limited=resolution_limited,
        witness_ok=witness_ok,
        witness_fail=witness_fail,
    )


@dataclass(frozen=True)
class ProductLawReport:
    kinds: tuple[str, str]
    relation: str  # "product" or "coincide"
    interval_low: float
    interval_high: ExtReal
    tol: float
    verdict: bool


def verify_product_laws(r1: ModulusReport, r2: ModulusReport,
                        tol: float = 0.05) -> ProductLawReport:
    """Check the bracket-level relation between a pair of modulus reports.

    Paired rate/bound kinds must multiply to 1 (with 0 * inf = 1); coincident
    kinds must produce overlapping brackets, both up to tol.
    """
    kinds = frozenset({r1.kind, r2.kind})
    if kinds in _PRODUCT_PAIRS:
        low = as_ext(r1.lower) * as_ext(r2.lower)
        high = r1.upper * r2.upper
        verdict = (low <= 1.0 + tol) and (high >= 1.0 - tol)
        return ProductLawReport((r1.kind, r2.kind), "product", float(low), high, tol, verdict)
    if kinds in _COINCIDENT_PAIRS or r1.kind == r2.kind:
        low = max(r1.lower, r2.lower)
        high = r1.upper if r1.upper <= r2.upper else r2.upper
        verdict = low <= float(high) + tol
        return ProductLawReport((r1.kind, r2.kind), "coincide", low, high, tol, verdict)
    raise ValueError(f"kinds {sorted(kinds)} are neither paired nor coincident")


def _graph_map(mapping: SampledMap, alpha: float) -> SampledMap:
    """The map (x, y) -> y over the graph cloud, one graph point per pair in
    pair order, whose metric is max(d, alpha * rho)."""
    graph_points = tuple(x + y for (x, y) in mapping.pairs)
    if len(set(graph_points)) != len(graph_points):
        raise ValueError("graph points must be distinct after concatenation")
    return SampledMap(
        domain=PointCloud(graph_points),
        codomain=mapping.codomain,
        pairs=tuple((g, y) for g, (_, y) in zip(graph_points, mapping.pairs)),
        metric_x=graph_max_metric(mapping.domain.dimension, alpha,
                                  mapping.metric_x, mapping.metric_y),
        metric_y=mapping.metric_y,
    )


@dataclass(frozen=True)
class SequenceCharReport:
    targets: tuple[Point, ...]
    verdict: bool
    failed_step: int | None
    bound: float
    estimate_verdict: bool
    agree: bool


def sequence_characterization(mapping: SampledMap, x: float | Sequence[float],
                              y: float | Sequence[float], kappa: float, eps: float,
                              cap: int = 10, closure_tol: float | None = None
                              ) -> SequenceCharReport:
    """Search approach targets y_k -> y whose exact preimages stay near x.

    Step k needs a codomain point within eps / k of y whose exact preimage
    lies within kappa * (dist(y, G(x)) + eps) of x. The verdict is compared
    with the distance-estimate inequality at (x, y).
    """
    if kappa <= 0.0 or eps <= 0.0:
        raise ValueError("kappa and eps must be positive")
    xi, yi = mapping.locate(x, y)
    geom = mapping.geometry
    tol = geom.closure_tolerance(closure_tol)
    d0 = float(geom.DYG[xi, yi])
    bound = kappa * (d0 + eps)
    pre0 = geom.exact_preimage_distance()
    targets: list[Point] = []
    failed: int | None = None
    for k in range(1, cap + 1):
        radius = eps / k
        cand = (geom.DY[yi] < radius) & (pre0[xi] <= bound)
        if not cand.any():
            failed = k
            break
        order = np.lexsort((pre0[xi], geom.DY[yi], ~cand))
        best = int(order[0])
        targets.append(mapping.codomain.points[best])
    verdict = failed is None

    schedule = _default_eps_schedule(geom)
    surrogate = geom.preimage_distance(schedule[-1])
    estimate_verdict = bool(surrogate[xi, yi] <= kappa * d0 + tol)
    return SequenceCharReport(
        targets=tuple(targets),
        verdict=verdict,
        failed_step=failed,
        bound=bound,
        estimate_verdict=estimate_verdict,
        agree=verdict == estimate_verdict,
    )

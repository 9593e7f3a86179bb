"""Existence-of-improvement criterion, descent solver, and region helpers.

The three-point instance is fully hand-derived: active counts, probe levels,
and violation margins below come from explicit enumeration by hand, not from
the engine under test.
"""
from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from almostreg import ioffe
from almostreg.ioffe import (
    CriterionReport,
    PairRegion,
    SetValuedCriterionReport,
    _default_epsilons,
    check_criterion,
    check_semilocal_openness,
    check_unconditional_estimate,
    conclude_openness,
    default_lambda,
    descent_solve,
    grid_scan_oracle,
    milyutin_gamma,
    newton_oracle,
    none_oracle,
    scalar_map,
    semilocal_region,
    setvalued_criterion,
    shrink_beta,
)
from almostreg.regularity import (
    EUCLIDEAN,
    CheckReport,
    Metric,
    SampledMap,
    _WITNESS_CAP,
    _gamma_array,
    _graph_map,
)
from almostreg.spaces import DirectionSet, PointCloud, directional_gauge

DOM = PointCloud.from_grid(-1.0, 1.0, 0.05)
TWO_X = SampledMap.from_function(DOM, lambda p: (2.0 * p[0],))
FULL_2X = PairRegion.product(DOM.points, TWO_X.codomain.points)


def test_pair_region_shapes():
    reg = PairRegion.product([(0.0,), (1.0,)], [(0.5,)])
    assert reg.is_product
    assert reg.x_points() == ((0.0,), (1.0,))
    assert reg.y_points() == ((0.5,),)
    partial = PairRegion.from_pairs([((0.0,), (0.0,)), ((1.0,), (0.5,))])
    assert not partial.is_product
    with pytest.raises(ValueError, match="duplicate"):
        PairRegion.from_pairs([((0.0,), (0.0,)), ((0.0,), (0.0,))])
    with pytest.raises(ValueError, match="nonempty"):
        PairRegion(())


def test_default_lambda_caps_at_one():
    assert default_lambda(0.25) == 0.25
    assert default_lambda(7.0) == 1.0


def test_criterion_three_point_hand_derived():
    # domain {0, .5, 1}, map 2x; probe = (minres - c*step)/2 = 0.25 at c=1
    d3 = PointCloud(((0.0,), (0.5,), (1.0,)))
    m3 = SampledMap.from_function(d3, lambda p: (2.0 * p[0],))
    r3 = PairRegion.product(d3.points, m3.codomain.points)
    ok = check_criterion(m3, r3, 1.0, math.inf)
    assert ok.passed
    assert ok.checked == 6  # two active points per target, three targets
    assert ok.epsilons == (0.25,)
    assert not ok.vacuous
    # at c=3 every active point is stuck: margin probe = minres/2 = 0.5
    bad = check_criterion(m3, r3, 3.0, math.inf)
    assert not bad.passed
    assert bad.checked == 6
    assert bad.violation_count == 6
    assert bad.epsilons == (0.5,)
    eps, y, u, best, required = bad.witnesses[0]
    assert (eps, y, u) == (0.5, (0.0,), (0.5,))
    assert best == 0.0  # staying put is the best available move
    assert required == 0.5


def test_criterion_identity_full_product():
    ident = SampledMap.from_function(DOM, lambda p: (p[0],))
    reg = PairRegion.product(DOM.points, ident.codomain.points)
    rep = check_criterion(ident, reg, 0.5, math.inf)
    assert rep.passed
    assert rep.checked == 1640
    assert rep.violation_count == 0
    assert rep.epsilons == pytest.approx((0.0125,))


def test_criterion_affine_both_sides_of_rate():
    ok = check_criterion(TWO_X, FULL_2X, 1.5, math.inf)
    assert ok.passed and ok.checked == 1640
    bad = check_criterion(TWO_X, FULL_2X, 2.5, math.inf)
    assert not bad.passed
    assert bad.violation_count == 1640  # every active point is stuck


def test_criterion_flat_map_fails():
    cube_dom = PointCloud.from_grid(-0.5, 0.5, 0.05)
    cube = SampledMap.from_function(cube_dom,
                                    lambda p: (round(p[0] ** 3, 12),))
    reg = PairRegion.product(cube_dom.points, cube.codomain.points)
    rep = check_criterion(cube, reg, 1.0, math.inf)
    assert not rep.passed
    assert rep.checked == 420
    assert rep.violation_count == 420


def test_criterion_validation():
    with pytest.raises(ValueError, match="rate c"):
        check_criterion(TWO_X, FULL_2X, 0.0, math.inf)
    with pytest.raises(ValueError, match="positive"):
        check_criterion(TWO_X, FULL_2X, 1.0, math.inf, epsilons=(0.0,))
    with pytest.raises(KeyError, match="region target"):
        check_criterion(TWO_X, PairRegion.from_pairs([((0.0,), (7.0,))]),
                        1.0, math.inf)
    with pytest.raises(KeyError, match="region point"):
        check_criterion(TWO_X, PairRegion.from_pairs([((7.0,), (0.0,))]),
                        1.0, math.inf)
    branched = SampledMap.from_branches(
        DOM, [lambda p: (p[0],), lambda p: (p[0] + 1.0,)])
    with pytest.raises(ValueError, match="single-valued"):
        check_criterion(branched, FULL_2X, 1.0, math.inf)


def test_conclude_openness_routes_agree():
    good = conclude_openness(TWO_X, FULL_2X, 1.5, 0.5)
    assert good.concluded
    assert good.routes_agree is True
    assert good.fiber_check.passed and good.openness_check.passed
    bad = conclude_openness(TWO_X, FULL_2X, 2.5, 0.5)
    assert not bad.concluded
    assert bad.routes_agree is True  # both routes reject together
    assert not bad.fiber_check.passed and not bad.openness_check.passed


def test_conclude_openness_nonproduct_uses_fiber_route_only():
    reg = PairRegion.from_pairs([((0.0,), (0.5,)), ((0.25,), (1.0,))])
    assert not reg.is_product
    rep = conclude_openness(TWO_X, reg, 1.5, 0.5)
    assert rep.concluded
    assert rep.openness_check is None
    assert rep.routes_agree is None
    assert rep.fiber_check.checked == 2


def test_descent_newton_two_steps():
    rep = descent_solve(scalar_map(lambda x: 2.0 * x), (0.0,), (0.8,), 1.5,
                        1e-12, newton_oracle(lambda x: 2.0 * x, lambda x: 2.0))
    assert rep.status == "residual-below-eps"
    assert rep.points == ((0.0,), (0.4,))
    assert rep.residuals == (0.8, 0.0)
    assert rep.radius_bound == pytest.approx(0.8 / 1.5)
    assert rep.within_radius and rep.cauchy_ok
    assert rep.max_step_distance == pytest.approx(0.4)
    assert len(rep) == 2


def test_descent_grid_scan_oracle():
    g = scalar_map(lambda x: 2.0 * x)
    oracle = grid_scan_oracle(DOM, g, 1.5, 0.01)
    rep = descent_solve(g, (1.0,), (0.0,), 1.5, 0.05, oracle)
    assert rep.status == "residual-below-eps"
    assert rep.points == ((1.0,), (0.0,))
    assert rep.residuals == (2.0, 0.0)
    assert rep.within_radius


def test_descent_terminal_statuses():
    g = scalar_map(lambda x: 2.0 * x)
    stuck = descent_solve(g, (1.0,), (0.0,), 1.5, 0.05, none_oracle())
    assert stuck.status == "oracle-exhausted"
    assert len(stuck) == 1
    capped = descent_solve(g, (1.0,), (0.0,), 1.5, 0.05,
                           grid_scan_oracle(DOM, g, 1.5, 0.01), budget=1)
    assert capped.status == "budget-exhausted"
    assert len(capped) == 1
    # zero derivative at the start point starves the newton oracle
    flat = descent_solve(scalar_map(lambda x: x ** 3), (0.0,), (0.8,), 1.0,
                         1e-6, newton_oracle(lambda x: x ** 3,
                                             lambda x: 3.0 * x * x))
    assert flat.status == "oracle-exhausted"


def test_descent_rejects_invalid_proposals():
    # oracle proposes an uphill point; validation must refuse it
    def uphill(u, y, residual):
        return (u[0] + 1.0,)

    rep = descent_solve(scalar_map(lambda x: 2.0 * x), (1.0,), (0.0,), 1.5,
                        0.05, uphill)
    assert rep.status == "oracle-exhausted"
    assert rep.points == ((1.0,),)


def test_descent_validation():
    g = scalar_map(lambda x: x)
    with pytest.raises(ValueError, match="positive"):
        descent_solve(g, (0.0,), (1.0,), 0.0, 0.1, none_oracle())
    with pytest.raises(ValueError, match="positive"):
        descent_solve(g, (0.0,), (1.0,), 1.0, 0.0, none_oracle())
    with pytest.raises(ValueError, match="budget"):
        descent_solve(g, (0.0,), (1.0,), 1.0, 0.1, none_oracle(), budget=0)
    with pytest.raises(ValueError, match="slack"):
        descent_solve(g, (0.0,), (1.0,), 1.0, 0.1, none_oracle(),
                      lam=lambda e: 0.0)


def test_descent_complete_space_note():
    rep = descent_solve(scalar_map(lambda x: x), (0.0,), (0.0,), 1.0, 0.1,
                        none_oracle(), complete_space=True)
    assert "complete space" in rep.note


def test_milyutin_gamma_distance_to_complement():
    cloud = PointCloud.from_grid(0.0, 1.0, 0.25)
    gam = milyutin_gamma(cloud, [(0.25,), (0.5,), (0.75,)])
    assert gam[(0.5,)] == 0.5
    assert gam[(0.25,)] == 0.25
    assert gam[(0.0,)] == 0.0  # points outside the region have zero reach
    full = milyutin_gamma(cloud, cloud.points)
    assert set(full.values()) == {math.inf}
    with pytest.raises(KeyError, match="region point"):
        milyutin_gamma(cloud, [(7.0,)])


def test_milyutin_gamma_resolves_grid_roundoff():
    # The grid stores 0.30000000000000004 at index 65; a region given as 0.3
    # resolves to it, as index_of does.
    cloud = PointCloud.from_grid(-1.0, 1.0, 0.02)
    assert cloud.index_of((0.3,)) == 65 and cloud.points[65] != (0.3,)
    assert milyutin_gamma(cloud, [(0.3,)]) == milyutin_gamma(cloud, [cloud.points[65]])
    assert milyutin_gamma(cloud, [(0.3,)])[cloud.points[65]] > 0.0
    with pytest.raises(KeyError, match=r"region point \(0\.305,\) not in domain cloud"):
        milyutin_gamma(cloud, [(0.3,), (0.305,)])
    # A copy of a region point is inside too.
    twice = PointCloud(((0.0,), (0.1 + 0.2,), (1.0,), (0.1 + 0.2,)))
    gam = milyutin_gamma(twice, [(0.1 + 0.2,)])
    assert gam == {(0.0,): 0.0, (0.1 + 0.2,): 0.30000000000000004, (1.0,): 0.0}
    # A point within the lookup tolerance of two distinct points is ambiguous.
    close = PointCloud(((0.0,), (0.3,), (0.3 + 4e-10,), (1.0,)))
    with pytest.raises(KeyError, match="matches 2 cloud points"):
        milyutin_gamma(close, [(0.3 + 2e-10,)])


def test_shrink_beta_closed_form():
    assert shrink_beta(1.0, 1.0, 1.0, 1.0) == 0.5
    assert shrink_beta(10.0, 10.0, 2.0, 3.0) == 2.0
    with pytest.raises(ValueError):
        shrink_beta(0.0, 1.0, 1.0, 1.0)


def test_semilocal_region_closed_form():
    assert semilocal_region(1.0, 0.25) == 0.25
    assert semilocal_region(1.0, 2.0) == 0.5
    with pytest.raises(ValueError):
        semilocal_region(-1.0, 1.0)


def test_unconditional_estimate_two_sides():
    ref = ((0.0,), (0.0,))
    good = check_unconditional_estimate(TWO_X, ref, 1.0 / 1.5, 0.3)
    assert good.passed
    assert good.checked == 72
    bad = check_unconditional_estimate(TWO_X, ref, 0.25, 0.3)
    assert not bad.passed
    assert bad.violation_count == 30


def test_semilocal_openness_display():
    rep = check_semilocal_openness(TWO_X, DOM.points, TWO_X.codomain.points,
                                   1.5, 0.6)
    assert rep.passed
    assert rep.checked == 41


def test_setvalued_routes_agree_both_verdicts():
    dom = PointCloud.from_grid(-1.0, 1.0, 0.1)
    # both branch zeros land on the grid, so rate-1 descent is unobstructed
    snug = SampledMap.from_branches(
        dom, [lambda p: (round(1.5 * p[0], 12),),
              lambda p: (round(1.5 * p[0] + 0.9, 12),)])
    region = PairRegion.product(dom.points, [(0.0,)])
    ok = setvalued_criterion(snug, region, 1.0, math.inf, 0.5)
    assert ok.agree
    assert ok.direct.passed and ok.projected.passed
    assert ok.direct.checked == 40
    assert ok.projected.checked == 40
    assert ok.direct.epsilons == pytest.approx((0.025,))
    bad = setvalued_criterion(snug, region, 2.0, math.inf, 0.25)
    assert bad.agree
    assert not bad.direct.passed and not bad.projected.passed
    assert bad.direct.violation_count == 20
    assert bad.projected.violation_count == 20


def test_setvalued_routes_agree_under_scaled_metric():
    # With d(u, x) = 3|u - x| a Euclidean direct route would see moves three
    # times too cheap and pass at c = 0.3 where the projected route fails.
    def three_abs(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return 3.0 * np.sqrt((diff * diff).sum(axis=-1))

    dom = PointCloud.from_grid(-1.0, 1.0, 0.1)
    m = SampledMap.from_branches(
        dom, [lambda p: (round(2.0 * p[0], 12),),
              lambda p: (round(2.0 * p[0] + 0.5, 12),)],
        metric_x=Metric("3|.|", three_abs))
    region = PairRegion.product(m.domain.points, m.codomain.points)
    for c in (0.3, 0.5, 1.0):
        rep = setvalued_criterion(m, region, c, 0.5, 0.1)
        assert rep.agree, c
        assert rep.direct.checked == rep.projected.checked
        assert rep.direct.violation_count == rep.projected.violation_count


def test_setvalued_alpha_guard():
    dom = PointCloud.from_grid(-1.0, 1.0, 0.5)
    m = SampledMap.from_function(dom, lambda p: (p[0],))
    region = PairRegion.product(dom.points, [(0.0,)])
    with pytest.raises(ValueError, match="alpha"):
        setvalued_criterion(m, region, 2.0, math.inf, 0.75)
    with pytest.raises(ValueError, match="alpha"):
        setvalued_criterion(m, region, 2.0, math.inf, 0.0)


def test_region_lookups_tolerate_grid_roundoff():
    # The grid stores 0.30000000000000004 and 2x stores 0.6000000000000001;
    # typed points used to raise KeyError (region point (0.3,)) or, in the
    # set-valued projected route, 'pair region must be nonempty'.
    dom = PointCloud.from_grid(-1.0, 1.0, 0.02)
    m = SampledMap.from_function(dom, lambda p: (2.0 * p[0],))
    typed_x, typed_y = [(0.3,), (0.34,)], [(0.0,), (0.6,), (0.68,)]
    stored_x = [dom.points[dom.index_of(x)] for x in typed_x]
    stored_y = [m.codomain.points[m.codomain.index_of(y)] for y in typed_y]
    assert stored_x[0] != (0.3,) and stored_y[1] != (0.6,)
    typed = PairRegion.product(typed_x, typed_y)
    stored = PairRegion.product(stored_x, stored_y)
    for c in (1.0, 3.0):
        reports = [(check_criterion(m, r, c, 0.5), setvalued_criterion(m, r, c, 0.5, 0.1),
                    conclude_openness(m, r, c, 0.5)) for r in (typed, stored)]
        assert reports[0] == reports[1]
        crit, setvalued, conclusion = reports[1]
        assert not crit.vacuous and not setvalued.direct.vacuous
        assert conclusion.fiber_check.checked > 0
        assert crit.passed == (c == 1.0) and setvalued.agree
    one = PairRegion((((0.3,), (0.6,)),))
    assert check_criterion(m, one, 1.0, 0.5) == check_criterion(
        m, PairRegion(((stored_x[0], stored_y[1]),)), 1.0, 0.5)


def test_repeated_domain_point_reads_its_pairs():
    # The geometry put the pairs of a repeated point on its last row, while
    # point lookups read the first, so the openness check over (0.5,) was
    # vacuous. Both now use the first row, as for the cloud without repeats.
    cod = PointCloud(((0.0,), (1.0,), (2.0,)))
    pairs = (((0.0,), (0.0,)), ((0.5,), (1.0,)), ((1.0,), (2.0,)))
    region = PairRegion.product([(0.5,)], cod.points)
    reports = [conclude_openness(SampledMap(PointCloud(pts), cod, pairs), region, 1.0, 5.0)
               for pts in (((0.0,), (0.5,), (0.5,), (1.0,)), ((0.0,), (0.5,), (1.0,)))]
    assert reports[0] == reports[1]
    assert reports[0].openness_check.checked == 1 and reports[0].fiber_check.checked == 2


def _loop_dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _loop_grid_oracle(cloud, g, c, slack):
    """The grid oracle as a loop over the cloud, one distance at a time."""
    def propose(u, y, residual):
        best, best_margin = None, -math.inf
        for cand in cloud.points:
            margin = residual - _loop_dist(g(cand), y) - c * _loop_dist(u, cand)
            if margin > best_margin:
                best_margin, best = margin, cand
        return None if best is None or best_margin < slack else best
    return propose


def test_grid_scan_oracle_matches_loop_oracle():
    # Ties on a plateau go to the first cloud point, a nan margin (a nan
    # image, an infinite image against an infinite target, or an infinite
    # residual against an infinite image) never wins, and no proposal is
    # made when every margin is nan or -inf.
    cloud = PointCloud.from_grid(-1.0, 1.0, 0.25)
    maps = [scalar_map(lambda x: max(-0.5, min(0.5, x))),
            scalar_map(lambda x: math.inf if x > 0.6 else 2.0 * x),
            scalar_map(lambda x: math.nan if x < -0.6 else x),
            scalar_map(lambda x: math.inf)]
    proposals = set()
    for g in maps:
        got = grid_scan_oracle(cloud, g, 0.7, 0.01)
        want = _loop_grid_oracle(cloud, g, 0.7, 0.01)
        for u, y, residual in itertools.product(
                cloud.points, ((-0.5,), (0.0,), (0.3,), (math.inf,)), (0.0, 0.4, 2.0, math.inf)):
            proposal = got(u, y, residual)
            assert proposal == want(u, y, residual), (u, y, residual)
            proposals.add(proposal)
    assert None in proposals and len(proposals) > 2


def test_descent_ends_on_nan_residual():
    # A nan residual, from a map value that is nan or infinite against an
    # infinite target, fails the improvement test and ends the run.
    cloud = PointCloud.from_grid(-1.0, 1.0, 0.25)
    g = scalar_map(lambda x: math.nan if x < -0.6 else x)
    start = descent_solve(g, (-1.0,), (0.0,), 0.5, 0.01, grid_scan_oracle(cloud, g, 0.5, 0.01))
    assert start.status == "oracle-exhausted" and start.points == ((-1.0,),)
    assert math.isnan(start.residuals[0])
    step = descent_solve(g, (0.5,), (0.0,), 0.5, 0.01, lambda u, y, r: (-1.0,))
    assert step.status == "oracle-exhausted" and step.residuals == (0.5,)
    g_inf = scalar_map(lambda x: math.inf)
    target = descent_solve(g_inf, (0.0,), (math.inf,), 0.5, 0.01,
                           grid_scan_oracle(cloud, g_inf, 0.5, 0.01))
    assert target.status == "oracle-exhausted" and math.isnan(target.residuals[0])


# --- loop oracles of the criterion scans ---------------------------------------
#
# The two bodies below are the per-fiber loop form of check_criterion and the
# per-pair loop form of setvalued_criterion's direct route, kept verbatim as
# oracles of the tiled scans; reports must match them by repr, so the sign of
# a zero in a witness counts. Region points are read from the pairs directly.


def _loop_fibers(geom, region):
    fibers = {}
    ys = {y: geom.codomain.index_of(y) for y in dict.fromkeys(y for _, y in region.pairs)}
    xs = {x: geom.domain.index_of(x) for x in dict.fromkeys(x for x, _ in region.pairs)}
    for x, y in region.pairs:
        fibers.setdefault(ys[y], []).append(xs[x])
    return fibers


def _loop_criterion(mapping, region, c, gamma, epsilons=None, lam=default_lambda):
    g = mapping.geometry
    gam = _gamma_array(gamma, mapping.domain)
    fibers = _loop_fibers(g, region)

    if epsilons is None:
        eps_list = _default_epsilons(g.DYG[:, list(fibers)], c, g.step_x)
    else:
        eps_list = tuple(float(e) for e in epsilons)

    checked = violations = 0
    witnesses = []
    cdx = c * g.DX
    for yi, fiber_idx in fibers.items():
        y = mapping.codomain.points[yi]
        r = g.DYG[:, yi]
        trig = [xi for xi in fiber_idx if r[xi] < c * gam[xi]]
        if not trig:
            continue
        # Largest descent bound reachable from any triggered region point.
        ub = np.max(r[trig] - cdx[:, trig], axis=1)
        with np.errstate(invalid="ignore"):
            margin = r[:, None] - r[None, :]
            margin -= cdx
        margin[:, ~np.isfinite(r)] = -np.inf
        best = np.where(np.isfinite(r), np.nanmax(margin, axis=1), -np.inf)
        for eps in eps_list:
            required = lam(eps)
            active = np.isfinite(r) & (r > eps) & (r <= ub)
            checked += int(active.sum())
            bad = np.flatnonzero(active & ~(best >= required))
            violations += len(bad)
            for ui in bad[:_WITNESS_CAP - len(witnesses)]:
                witnesses.append((eps, y, mapping.domain.points[int(ui)],
                                  float(best[ui]), required))
    return CriterionReport(
        passed=violations == 0,
        checked=checked,
        violation_count=violations,
        witnesses=tuple(witnesses),
        vacuous=checked == 0,
        epsilons=tuple(eps_list),
    )


def _loop_setvalued(mapping, region, c, gamma, alpha, epsilons=None, lam=default_lambda):
    geom = mapping.geometry
    gam = _gamma_array(gamma, mapping.domain)

    # Direct route: explicit loops over graph pairs, by index into the tables.
    pairs = mapping.pairs
    index = list(zip(geom.pair_xi.tolist(), geom.pair_yi.tolist()))
    DX, DY = geom.DX.tolist(), geom.DY.tolist()
    fibers = _loop_fibers(geom, region)
    if epsilons is None:
        eps_list = _default_epsilons(geom.DYG[:, list(fibers)], c, geom.step_x)
    else:
        eps_list = tuple(float(e) for e in epsilons)
    checked = violations = 0
    witnesses = []
    for yi, fiber_idx in fibers.items():
        y, fiber = mapping.codomain.points[yi], set(fiber_idx)
        trig = [(xi, zi) for (xi, zi) in index if xi in fiber and DY[zi][yi] < c * gam[xi]]
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
                checked += 1
                required = lam(eps)
                best = -math.inf
                for (ui2, vi2) in index:
                    move = max(DX[ui][ui2], alpha * DY[vi][vi2])
                    best = max(best, r_uv - DY[vi2][yi] - c * move)
                if not best >= required:
                    violations += 1
                    if len(witnesses) < _WITNESS_CAP:
                        witnesses.append((eps, y, (u, v), best, required))
    direct = CriterionReport(
        passed=violations == 0,
        checked=checked,
        violation_count=violations,
        witnesses=tuple(witnesses),
        vacuous=checked == 0,
        epsilons=tuple(eps_list),
    )

    # Projected route: the single-valued loop on the graph cloud.
    projected_map = _graph_map(mapping, alpha)
    region_pairs = []
    for yi, fiber_idx in fibers.items():
        fiber = set(fiber_idx)
        for gp, (xi, _) in zip(projected_map.domain.points, index):
            if xi in fiber:
                region_pairs.append((gp, mapping.codomain.points[yi]))
    gamma_table = {gp: float(gam[xi]) for gp, (xi, _) in zip(projected_map.domain.points, index)}
    projected = _loop_criterion(projected_map, PairRegion.from_pairs(region_pairs), c,
                                gamma_table, eps_list, lam)
    return SetValuedCriterionReport(direct=direct, projected=projected,
                                    agree=direct.passed == projected.passed, alpha=alpha)


def _three_abs(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return 3.0 * np.sqrt((diff * diff).sum(axis=-1))


def _asymmetric(a, b):
    # d(a, b) = b - a if b >= a, else 2(a - b), summed over coordinates.
    diff = b[None, :, :] - a[:, None, :]
    return np.where(diff >= 0.0, diff, -2.0 * diff).sum(axis=-1)


_ORACLE_METRICS = {
    "euclidean": (EUCLIDEAN, EUCLIDEAN),
    "3|.|": (Metric("3|.|", _three_abs), EUCLIDEAN),
    "asymmetric": (Metric("asymmetric", _asymmetric), Metric("asymmetric", _asymmetric)),
    "gauge": (directional_gauge(DirectionSet(((1.0,),))),) * 2,
}


def _oracle_map(rng, dim, branches, metrics):
    if dim == 1:
        dom = PointCloud(tuple((round(float(v), 12),) for v in
                               np.sort(rng.choice(np.linspace(-1.0, 1.0, 9), 6, replace=False))))
        slopes = rng.choice([-2.5, -1.0, 0.5, 1.5, 3.0], branches, replace=False)
        fns = [lambda p, s=s, k=k: (round(s * p[0] + 0.5 * k, 12),)
               for k, s in enumerate(slopes)]
    else:
        dom = PointCloud(tuple((a, b) for a in (-1.0, 0.0, 1.0) for b in (-0.5, 0.5)))
        fns = [lambda p, k=k: (round(1.5 * p[0] - p[1] + k, 12), round(p[1] - 0.5 * k, 12))
               for k in range(branches)]
    metric_x, metric_y = _ORACLE_METRICS[metrics]
    return SampledMap.from_branches(dom, fns, metric_x=metric_x, metric_y=metric_y)


def _oracle_region(rng, mapping):
    cells = [(x, y) for x in mapping.domain.points for y in mapping.codomain.points]
    if rng.random() < 0.5:
        return PairRegion(tuple(cells))
    keep = rng.random(len(cells)) < 0.4
    keep[rng.integers(len(cells))] = True
    return PairRegion(tuple(cell for cell, k in zip(cells, keep) if k))


def _oracle_gamma(kind, mapping):
    if kind == "callable":
        return lambda p: 0.25 + abs(p[0])
    if kind == "table":
        return {p: 0.2 * (i % 4) for i, p in enumerate(mapping.domain.points)}
    return {"inf": math.inf, "finite": 0.6}[kind]


@pytest.mark.parametrize("dim,metrics", [(1, "euclidean"), (1, "3|.|"), (1, "asymmetric"),
                                         (1, "gauge"), (2, "euclidean"), (2, "3|.|"),
                                         (2, "asymmetric")])
def test_criterion_scans_match_their_loop_oracles(dim, metrics):
    rng = np.random.default_rng(sum(map(ord, metrics)) + dim)
    for branches, gamma, epsilons in itertools.product(
            (1, 2), ("inf", "finite", "callable", "table"), (None, (0.05, 0.3))):
        mapping = _oracle_map(rng, dim, branches, metrics)
        region = _oracle_region(rng, mapping)
        c = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        gam = _oracle_gamma(gamma, mapping)
        case = (branches, gamma, epsilons, c)
        if branches == 1:
            assert repr(check_criterion(mapping, region, c, gam, epsilons)) == repr(
                _loop_criterion(mapping, region, c, gam, epsilons)), case
        got = setvalued_criterion(mapping, region, c, gam, 0.5 / c, epsilons)
        assert repr(got) == repr(_loop_setvalued(mapping, region, c, gam, 0.5 / c, epsilons)), case


@pytest.mark.parametrize("fibers_per_tile", [1, 4])
def test_scans_split_fibers_into_tiles_and_cap_witnesses_mid_tile(monkeypatch, fibers_per_tile):
    # 11 fibers over 11 points, and 22 over 22 pairs, split unevenly into
    # tiles of 4 fibers; the 20th witness falls inside a tile (in the second
    # fiber of the first tile, and in the second fiber of the second tile,
    # midway through its violations), so the tile's later hits are counted
    # but not kept. A tile of 1 fiber gathers only its triggered columns.
    dom = PointCloud.from_grid(-1.0, 1.0, 0.2)
    two_x = SampledMap.from_function(dom, lambda p: (2.0 * p[0],))
    region = PairRegion.product(dom.points, two_x.codomain.points)
    monkeypatch.setattr(ioffe, "_TILE_ENTRIES", fibers_per_tile * 11 ** 2)
    crit = check_criterion(two_x, region, 2.5, math.inf)
    assert repr(crit) == repr(_loop_criterion(two_x, region, 2.5, math.inf))
    assert crit.violation_count == 110 and len(crit.witnesses) == 20
    assert crit.witnesses[-1][1] == two_x.codomain.points[1]

    branched = SampledMap.from_branches(dom, [lambda p: (round(2.0 * p[0], 12),),
                                              lambda p: (round(2.0 * p[0] + 0.5, 12),)])
    region = PairRegion.product(dom.points, branched.codomain.points)
    monkeypatch.setattr(ioffe, "_TILE_ENTRIES", fibers_per_tile * 22 ** 2)
    got = setvalued_criterion(branched, region, 1.0, 0.5, 0.5, (0.05, 0.3))
    assert repr(got) == repr(_loop_setvalued(branched, region, 1.0, 0.5, 0.5, (0.05, 0.3)))
    for rep in (got.direct, got.projected):
        assert rep.violation_count > 20 and len(rep.witnesses) == 20
        assert rep.witnesses[-1][1] == branched.codomain.points[5]


def test_setvalued_argument_guards():
    dom = PointCloud.from_grid(-1.0, 1.0, 0.5)
    m = SampledMap.from_function(dom, lambda p: (p[0],))
    region = PairRegion.product(dom.points, [(0.0,)])
    # The rate is checked before the alpha guard divides by it.
    for c in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="rate c must be positive"):
            setvalued_criterion(m, region, c, math.inf, 0.1)
    # Probe levels are checked once, before either route runs lam.
    calls = []
    with pytest.raises(ValueError, match="probe levels must be positive"):
        setvalued_criterion(m, region, 1.0, math.inf, 0.5, (0.1, 0.0),
                            lam=lambda e: calls.append(e) or default_lambda(e))
    assert calls == []
    # A region whose domain points carry no pair leaves no graph fiber.
    pairless = SampledMap(PointCloud(((0.0,), (1.0,), (2.0,))), PointCloud(((0.0,), (1.0,))),
                          (((0.0,), (0.0,)), ((1.0,), (1.0,))))
    with pytest.raises(ValueError, match="pair region must be nonempty"):
        setvalued_criterion(pairless, PairRegion.product([(2.0,)], [(0.0,), (1.0,)]),
                            1.0, math.inf, 0.5)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_criterion_scans_run_in_bounded_memory():
    # The descent scan holds one tile of fibers, not a table per fiber:
    # check_criterion at n=201 peaks under 2 MB (the per-fiber loop read
    # 1.5 MB, a 2**16 tile budget 4.9 MB), and setvalued_criterion on a
    # two-branch map of 82 pairs under the 1.38 MB the per-pair loop read.
    dom = PointCloud.from_grid(-1.0, 1.0, 0.01)
    two_x = SampledMap.from_function(dom, lambda p: (2.0 * p[0],))
    region = PairRegion.product(dom.points, two_x.codomain.points)
    two_x.geometry
    assert _traced_peak(lambda: check_criterion(two_x, region, 1.0, 0.5)) <= 2_000_000
    dom = PointCloud.from_grid(-1.0, 1.0, 0.05)
    branched = SampledMap.from_branches(dom, [lambda p: (round(2.0 * p[0], 12),),
                                              lambda p: (round(2.0 * p[0] + 0.5, 12),)])
    region = PairRegion.product(dom.points, branched.codomain.points)
    branched.geometry
    assert _traced_peak(lambda: setvalued_criterion(branched, region, 0.3, 0.5, 0.1)) <= 1_380_000


def test_scans_merge_the_fibers_of_points_that_resolve_alike():
    # (0.3,) and the stored 0.30000000000000004 are distinct region points
    # that resolve to one domain index, as (0.6,) and the stored image do to
    # one target: their pairs join one fiber, as in the loop oracles.
    dom = PointCloud.from_grid(-1.0, 1.0, 0.02)
    m = SampledMap.from_function(dom, lambda p: (2.0 * p[0],))
    stored_x = dom.points[dom.index_of((0.3,))]
    stored_y = m.codomain.points[m.codomain.index_of((0.6,))]
    region = PairRegion.product([(0.3,), stored_x, (0.34,)], [(0.6,), (0.0,), stored_y])
    for c in (1.0, 3.0):
        assert repr(check_criterion(m, region, c, 0.5)) == repr(_loop_criterion(m, region, c, 0.5))
        assert repr(setvalued_criterion(m, region, c, 0.5, 0.1)) == repr(
            _loop_setvalued(m, region, c, 0.5, 0.1))


def _loop_fiber_conclusion(geom, region, c, gamma, tol):
    """The fiber route of conclude_openness, one region pair at a time."""
    gam = _gamma_array(gamma, geom.domain)
    checked = violations = 0
    witnesses = []
    for x, y in region.pairs:
        xi, yi = geom.locate(x, y)
        x, y = geom.domain.points[xi], geom.codomain.points[yi]
        r = float(geom.DYG[xi, yi])
        if not (0.0 < r < c * gam[xi]):
            continue
        checked += 1
        radius = r / c
        near = (geom.DX[xi] <= radius + tol) & (geom.DYG[:, yi] <= tol)
        if not near.any():
            violations += 1
            if len(witnesses) < _WITNESS_CAP:
                witnesses.append((x, y, r, radius))
    return CheckReport(name="criterion-conclusion", passed=violations == 0, checked=checked,
                       violation_count=violations, witnesses=tuple(witnesses),
                       vacuous=checked == 0)


@pytest.mark.parametrize("dim,metrics", [(1, "euclidean"), (1, "asymmetric"), (1, "gauge"),
                                         (2, "euclidean"), (2, "asymmetric")])
@pytest.mark.parametrize("tile_rows", [None, 1, 3])
def test_fiber_conclusion_matches_its_loop_oracle(monkeypatch, dim, metrics, tile_rows):
    # Seeded maps of one and two branches, product and sparse regions, tol 0
    # and the default; tiles of 1 and 3 pairs cut the scan mid-region.
    rng = np.random.default_rng(sum(map(ord, metrics)) + dim)
    checked = failed = 0
    for branches, gamma in itertools.product((1, 2), ("inf", "finite", "callable", "table")):
        mapping = _oracle_map(rng, dim, branches, metrics)
        geom = mapping.geometry
        if tile_rows is not None:
            monkeypatch.setattr(ioffe, "_TILE_ENTRIES", tile_rows * len(geom.X))
        region = _oracle_region(rng, mapping)
        c = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        gam = _oracle_gamma(gamma, mapping)
        for tol in (0.0, geom.closure_tolerance(None)):
            got = ioffe._fiber_conclusion(geom, region, c, gam, tol)
            assert repr(got) == repr(_loop_fiber_conclusion(geom, region, c, gam, tol)), (
                branches, gamma, c, tol)
            checked += got.checked
            failed += not got.passed
    assert checked and failed


def test_fiber_conclusion_caps_witnesses_and_names_missing_points(monkeypatch):
    # x -> 2x at rate 2.5 misses 110 region pairs; with tiles of 7 pairs the
    # 20th witness falls mid-tile. A region pair whose target is off the
    # codomain raises locate's KeyError even when a later pair's x is off too.
    geom = TWO_X.geometry
    monkeypatch.setattr(ioffe, "_TILE_ENTRIES", 7 * len(geom.X))
    tol = geom.closure_tolerance(None)
    got = ioffe._fiber_conclusion(geom, FULL_2X, 2.5, 0.5, tol)
    assert repr(got) == repr(_loop_fiber_conclusion(geom, FULL_2X, 2.5, 0.5, tol))
    assert got.violation_count > _WITNESS_CAP == len(got.witnesses)
    region = PairRegion.from_pairs([((0.0,), (0.5,)), ((0.25,), (7.0,)), ((5.0,), (0.5,))])
    with pytest.raises(KeyError) as want:
        _loop_fiber_conclusion(geom, region, 1.5, 0.5, tol)
    with pytest.raises(KeyError) as got_error:
        ioffe._fiber_conclusion(geom, region, 1.5, 0.5, tol)
    assert str(got_error.value) == str(want.value) == str(KeyError("point (7.0,) not in cloud"))

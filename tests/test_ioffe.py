"""Existence-of-improvement criterion, descent solver, and region helpers.

The three-point instance is fully hand-derived: active counts, probe levels,
and violation margins below come from explicit enumeration by hand, not from
the engine under test.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from almostreg.ioffe import (
    PairRegion,
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
from almostreg.regularity import Metric, SampledMap
from almostreg.spaces import PointCloud

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

"""Sampled openness, distance estimates, and the modulus search engine.

The openness oracle below re-implements the ball-inclusion property with
explicit loops over the radius grid; engine values are frozen from runs
cross-checked against it and against closed forms for affine maps.
"""
from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from almostreg import regularity
from almostreg.regularity import (
    MODULUS_KINDS,
    SUP_KINDS,
    MapGeometry,
    Metric,
    ModulusSearchConfig,
    RegularityInstance,
    SampledMap,
    TGrid,
    _ModulusEngine,
    _band_verdict,
    _estimate_violations,
    check_inverse_lipschitz,
    check_modulus_property,
    check_openness,
    check_regularity_estimate,
    closed_ball_openness,
    equivalence_suite,
    estimate_modulus,
    graph_max_metric,
    verify_product_laws,
)
from almostreg.ioffe import check_unconditional_estimate
from almostreg.spaces import EUCLIDEAN, PointCloud

DOM_COARSE = PointCloud.from_grid(-1.0, 1.0, 0.2)
DOM = PointCloud.from_grid(-1.0, 1.0, 0.02)
TWO_X = SampledMap.from_function(DOM, lambda p: (2.0 * p[0],))
TWO_X_COARSE = SampledMap.from_function(DOM_COARSE, lambda p: (2.0 * p[0],))
REF0 = ((0.0,), (0.0,))
FAR = SampledMap.from_branches(
    DOM, [lambda p: (1.5 * p[0],), lambda p: (1.5 * p[0] + 10.0,)])


def oracle_openness(mapping, gamma, constant, tol=None):
    """Explicit-loop ball inclusion over the radius grid; True when it holds."""
    geom = MapGeometry(mapping)
    tol = 2.0 * geom.step_x if tol is None else tol
    grid = TGrid(geom.step_x)
    for x, y in mapping.pairs:
        xi = geom.x_index[x]
        yi = geom.y_index[y]
        k = 0
        while True:
            t = grid.t_min * grid.ratio ** k
            if t >= gamma:
                break
            ball = [u for u in mapping.domain.points
                    if math.dist(u, x) < t]
            for v in mapping.codomain.points:
                vi = geom.y_index[v]
                if not geom.DY[yi, vi] < constant * t:
                    continue
                covered = any(geom.DYG[geom.x_index[u], vi] <= tol for u in ball)
                if not covered:
                    return False
            k += 1
    return True


def test_openness_two_sides_matches_oracle():
    for c, expected in ((1.5, True), (2.5, False)):
        inst = RegularityInstance(
            mapping=TWO_X_COARSE,
            region_x=TWO_X_COARSE.domain.points,
            region_y=TWO_X_COARSE.codomain.points,
            gamma=0.5,
            constant=c,
        )
        report = check_openness(inst)
        assert report.passed is expected
        assert oracle_openness(TWO_X_COARSE, 0.5, c) is expected


def test_openness_frozen_counts():
    inst = RegularityInstance(mapping=TWO_X, region_x=DOM.points,
                              region_y=TWO_X.codomain.points, gamma=0.5,
                              constant=2.5)
    report = check_openness(inst)
    assert not report.passed
    assert report.checked == 101
    assert report.violation_count == 4644
    assert not report.vacuous
    ok = check_openness(RegularityInstance(
        mapping=TWO_X, region_x=DOM.points, region_y=TWO_X.codomain.points,
        gamma=0.5, constant=1.5))
    assert ok.passed and ok.violation_count == 0


def test_closed_ball_variant_agrees_away_from_rate():
    for c in (1.5, 2.5):
        inst = RegularityInstance(mapping=TWO_X, region_x=DOM.points,
                                  region_y=TWO_X.codomain.points,
                                  gamma=0.5, constant=c)
        assert closed_ball_openness(inst).passed is check_openness(inst).passed


def test_equivalence_loop_agrees_both_sides():
    for c in (1.5, 2.5):
        inst = RegularityInstance(mapping=TWO_X, region_x=DOM.points,
                                  region_y=TWO_X.codomain.points,
                                  gamma=0.5, constant=c)
        eq = equivalence_suite(inst)
        assert eq.agree
        assert eq.openness.passed is (c < 2.0)
        assert eq.regularity.passed is (c < 2.0)
        assert eq.inverse.passed is (c < 2.0)


def test_estimate_checks_use_reciprocal_rate():
    # directly at the reciprocal: mu = 1/c with c on both sides of rate 2
    for mu, expected in ((1.0 / 1.5, True), (1.0 / 2.5, False)):
        inst = RegularityInstance(mapping=TWO_X, region_x=DOM.points,
                                  region_y=TWO_X.codomain.points,
                                  gamma=0.5, constant=mu)
        assert check_regularity_estimate(inst).passed is expected
        assert check_inverse_lipschitz(inst).passed is expected


def test_estimate_window_excludes_rate_times_rho_equal_to_gamma():
    # constant * rho = 2.0 * 1.0 equals gamma = 2.0: the entry lies outside
    # the open window constant * rho < gamma, so its surrogate 5.0, far above
    # the bound 2.0, is no violation.
    scan = _estimate_violations(np.array([[1.0]]), np.array([[5.0]]), np.array([True]),
                                np.array([2.0]), 2.0, 0.0)
    assert (scan.window, scan.count, scan.hits) == (0, 0, ())


def test_instance_validation():
    with pytest.raises(ValueError, match="constant"):
        RegularityInstance(mapping=TWO_X, region_x=DOM.points,
                           region_y=TWO_X.codomain.points, gamma=1.0,
                           constant=0.0)
    with pytest.raises(ValueError, match="eps_schedule"):
        RegularityInstance(mapping=TWO_X, region_x=DOM.points,
                           region_y=TWO_X.codomain.points, gamma=1.0,
                           constant=1.0, eps_schedule=(0.1, 0.2))
    inst = RegularityInstance(mapping=TWO_X, region_x=((7.0,),),
                              region_y=TWO_X.codomain.points, gamma=1.0,
                              constant=1.0)
    with pytest.raises(KeyError, match="region point"):
        check_openness(inst)
    vanishing = RegularityInstance(mapping=TWO_X, region_x=DOM.points,
                                   region_y=TWO_X.codomain.points, gamma=0.0,
                                   constant=1.0)
    with pytest.raises(ValueError, match="gamma vanishes"):
        check_openness(vanishing)


def test_sampled_map_validation_and_inverse():
    dom = PointCloud(((0.0,), (1.0,)))
    cod = PointCloud(((0.0,), (2.0,)))
    m = SampledMap(dom, cod, (((0.0,), (0.0,)), ((1.0,), (2.0,))))
    assert m.is_single_valued()
    assert m.image_of(1.0) == ((2.0,),)
    inv = m.inverse()
    assert inv.pairs == (((0.0,), (0.0,)), ((2.0,), (1.0,)))
    with pytest.raises(ValueError, match="duplicate"):
        SampledMap(dom, cod, (((0.0,), (0.0,)), ((0.0,), (0.0,))))
    with pytest.raises(ValueError, match="not in domain"):
        SampledMap(dom, cod, (((5.0,), (0.0,)),))
    branched = SampledMap.from_branches(
        dom, [lambda p: (p[0],), lambda p: (p[0] + 1.0,)])
    assert not branched.is_single_valued()
    assert len(branched.pairs) == 4


def test_map_geometry_tables_hand_checked():
    dom = PointCloud(((0.0,), (1.0,)))
    m = SampledMap.from_function(dom, lambda p: (2.0 * p[0],))
    geom = MapGeometry(m)
    assert geom.step_x == 1.0
    assert geom.step_y == 2.0
    assert geom.diam_x == 1.0
    np.testing.assert_allclose(geom.DYG, [[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_allclose(geom.cover_radius(0.0), [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(geom.preimage_distance(1.0),
                               [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(geom.exact_preimage_distance(),
                               [[0.0, 1.0], [1.0, 0.0]])
    # An eps below every image gap leaves targets unreachable.
    tiny = geom.preimage_distance(1e-9)
    assert np.isfinite(tiny).all()  # every codomain point is hit exactly here


def test_tgrid_first_reaching_exact_boundaries():
    grid = TGrid(0.1, per_decade=20)
    t = grid.first_reaching(np.array([0.35]), 1.0)[0]
    assert t == pytest.approx(10.0 ** -0.45)
    assert 0.35 < t and grid.first_reaching(np.array([0.35]), 1.0,
                                            closed=True)[0] == t
    # A value exactly on the grid separates strict from closed.
    strict = grid.first_reaching(np.array([0.1]), 1.0)[0]
    closed = grid.first_reaching(np.array([0.1]), 1.0, closed=True)[0]
    assert closed == pytest.approx(0.1)
    assert strict == pytest.approx(0.1 * grid.ratio)
    assert math.isinf(grid.first_reaching(np.array([math.inf]), 1.0)[0])


def test_graph_max_metric():
    metric = graph_max_metric(split=1, alpha=0.5)
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 4.0]])
    assert metric.pairwise(a, b)[0, 0] == 2.0  # max(1, 0.5 * 4)
    assert metric.pairwise(a, a)[0, 0] == 0.0


def test_modulus_engine_frozen_affine():
    cfg = ModulusSearchConfig()
    expected = {
        "sur": (1.9999999998111362, 2.0000000000839666),
        "popen": (1.9999999998111362, 2.0000000000839666),
        "lopen": (1.9999999998111362, 2.0000000000839666),
        "reg": (0.48076923054572485, 0.4807692308185551),
        "lip_inv": (0.48076923054572485, 0.4807692308185551),
        "subreg": (0.4795918366395061, 0.47959183691233637),
        "calm": (0.4795918366395061, 0.47959183691233637),
        "semireg": (0.4583333330995307, 0.45833333337236093),
        "incalm": (0.4583333330995307, 0.45833333337236093),
    }
    assert set(expected) == set(MODULUS_KINDS)
    for kind, (lo, hi) in expected.items():
        rep = estimate_modulus(TWO_X, REF0, kind, cfg)
        assert rep.lower == pytest.approx(lo, abs=1e-9), kind
        assert float(rep.upper) == pytest.approx(hi, abs=1e-9), kind
        assert not rep.resolution_limited, kind
        assert rep.stabilized_gamma == 1.0, kind


def test_modulus_sine_frozen():
    rep = estimate_modulus(
        SampledMap.from_function(DOM, lambda p: (p[0] + 0.3 * math.sin(p[0]),)),
        REF0, "sur", ModulusSearchConfig())
    assert rep.lower == pytest.approx(1.277509598361274, abs=1e-9)
    assert float(rep.upper) == pytest.approx(1.2775095985661142, abs=1e-9)


def test_modulus_two_branch_relation_frozen():
    far = SampledMap.from_branches(
        DOM, [lambda p: (1.5 * p[0],), lambda p: (1.5 * p[0] + 10.0,)])
    sur = estimate_modulus(far, REF0, "sur", ModulusSearchConfig())
    reg = estimate_modulus(far, REF0, "reg", ModulusSearchConfig())
    assert sur.lower == pytest.approx(1.5447175850758832, abs=1e-9)
    assert reg.lower == pytest.approx(0.6410256404757153, abs=1e-9)
    law = verify_product_laws(sur, reg)
    assert law.relation == "product"
    assert law.verdict


def test_modulus_property_failing_witnesses_frozen():
    # First violation of each kind at gamma 1.0 and 0.5; rate kinds probed
    # above sur = 1.5, bound kinds below reg = 1/1.5.
    expected = {
        "sur": (((-0.98,), (-1.47,), 0.2517850823588304, (-0.9899999999999999,), 0.12),
                ((-0.48,), (-0.72,), 0.1261914688960372, (-0.4799999999999999,),
                 0.06000000000000011)),
        "popen": (((-0.98,), (0.0,), 0.7962143411069843, (0.0,), 0.29999999999999993),
                  ((-0.48,), (0.0,), 0.39905246299377095, (0.0,), 0.14999999999999997)),
        "lopen": (((0.0,), (0.0,), 0.5023772863019097, (-0.9899999999999999,),
                   0.23999999999999988),
                  ((0.0,), (0.0,), 0.2517850823588304, (-0.4799999999999999,),
                   0.11999999999999994)),
        "reg": (((-0.98,), (-0.9899999999999999,), 0.32000000000000006, 0.1839999999999996),
                ((-0.48,), (-0.4799999999999999,), 0.16000000000000003, 0.1119999999999996)),
        "lip_inv": (((-0.98,), (-0.9899999999999999,), 0.32000000000000006,
                     0.1839999999999996),
                    ((-0.48,), (-0.4799999999999999,), 0.16000000000000003,
                     0.1119999999999996)),
        "subreg": (((-0.98,), (0.0,), 0.98, 0.4809999999999996),
                   ((-0.48,), (0.0,), 0.48, 0.25599999999999956)),
        "calm": (((-0.98,), (0.0,), 0.98, 0.4809999999999996),
                 ((-0.48,), (0.0,), 0.48, 0.25599999999999956)),
        "semireg": (((0.0,), (-0.9899999999999999,), 0.6599999999999999, 0.3369999999999995),
                    ((0.0,), (-0.4799999999999999,), 0.31999999999999995,
                     0.18399999999999955)),
        "incalm": (((0.0,), (-0.9899999999999999,), 0.6599999999999999, 0.3369999999999995),
                   ((0.0,), (-0.4799999999999999,), 0.31999999999999995,
                    0.18399999999999955)),
    }
    assert set(expected) == set(MODULUS_KINDS)
    for kind, witnesses in expected.items():
        constant = 2.0 if kind in SUP_KINDS else 0.3
        for gamma, witness in zip((1.0, 0.5), witnesses):
            rep = check_modulus_property(FAR, REF0, kind, constant, gamma)
            assert not rep.passed, (kind, gamma)
            assert rep.witnesses == (witness,), (kind, gamma)


def test_check_scans_frozen_witnesses():
    rate = RegularityInstance(mapping=TWO_X, region_x=DOM.points,
                              region_y=TWO_X.codomain.points, gamma=0.5,
                              constant=2.5)
    first_open = ((-1.0,), (-2.0,), 0.019999999999999796, (-1.96,),
                  0.040000000000000036)
    last_open = ((-1.0,), (-2.0,), 0.35565588200778014, (-1.2,),
                 0.11999999999999988)
    for check in (check_openness, closed_ball_openness):
        rep = check(rate)
        assert (rep.passed, rep.checked, rep.violation_count) == (False, 101, 4644)
        assert rep.witnesses[0] == first_open and rep.witnesses[-1] == last_open
        assert len(rep.witnesses) == 20
    bound = replace(rate, constant=1.0 / 2.5)
    first_est = ((-1.0,), (-1.6,), 0.19999999999999996, 0.19999999999999957)
    last_est = ((-1.0,), (-0.8400000000000001,), 0.58, 0.5039999999999996)
    for check in (check_inverse_lipschitz, check_regularity_estimate):
        rep = check(bound)
        assert (rep.passed, rep.checked, rep.violation_count) == (False, 5371, 3542)
        assert rep.stabilized and not rep.vacuous
        assert rep.witnesses[0] == first_est and rep.witnesses[-1] == last_est


def test_modulus_engine_guards():
    with pytest.raises(ValueError, match="unknown modulus kind"):
        estimate_modulus(TWO_X, REF0, "midreg", ModulusSearchConfig())
    with pytest.raises(ValueError, match="must lie on the graph"):
        estimate_modulus(TWO_X, ((0.5,), (0.5,)), "sur", ModulusSearchConfig())


def test_region_and_reference_lookups_tolerate_grid_roundoff():
    # The 0.02 grid stores 0.3 as 0.30000000000000004 and 2 * 0.3 as
    # 0.6000000000000001. A region or reference point given as 0.3 must
    # resolve to the stored point and give the stored point's report.
    x_stored, y_stored = (0.30000000000000004,), (0.6000000000000001,)
    assert x_stored in DOM.points and y_stored in TWO_X.codomain.points
    inst = RegularityInstance(mapping=TWO_X, region_x=((0.3,),),
                              region_y=((0.6,), (0.64,)), gamma=0.5, constant=1.5)
    stored = replace(inst, region_x=(x_stored,),
                     region_y=(y_stored, TWO_X.codomain.points[
                         TWO_X.codomain.index_of((0.64,))]))
    for check in (check_openness, check_regularity_estimate):
        assert check(inst) == check(stored)
    for kind in ("sur", "reg", "calm"):
        assert (estimate_modulus(TWO_X, ((0.3,), (0.6,)), kind)
                == estimate_modulus(TWO_X, (x_stored, y_stored), kind))
    with pytest.raises(ValueError, match="must lie on the graph"):
        estimate_modulus(TWO_X, ((0.3,), (0.64,)), "sur")


def test_user_point_lookups_tolerate_grid_roundoff():
    # check_unconditional_estimate and sequence_characterization resolve the
    # user's points through PointCloud.index_of, so (0.3,) and (0.6,) give the
    # report of the stored 0.30000000000000004 and 0.6000000000000001.
    x_stored, y_stored = (0.30000000000000004,), (0.6000000000000001,)
    assert TWO_X.locate((0.3,), (0.6,)) == TWO_X.locate(x_stored, y_stored)
    assert TWO_X.on_graph((0.3,), (0.6,))
    assert not TWO_X.on_graph((0.3,), (0.64,))
    assert not TWO_X.on_graph((0.3,), (5.0,))
    for mu, beta in ((1.0, 0.2), (0.25, 0.3)):
        assert (check_unconditional_estimate(TWO_X, ((0.3,), (0.6,)), mu, beta)
                == check_unconditional_estimate(TWO_X, (x_stored, y_stored), mu, beta))
    for kappa in (1.0, 0.1):
        assert (regularity.sequence_characterization(TWO_X, (0.3,), (0.6,), kappa, 0.1)
                == regularity.sequence_characterization(TWO_X, x_stored, y_stored, kappa, 0.1))
    with pytest.raises(KeyError, match="not in cloud"):
        regularity.sequence_characterization(TWO_X, (0.31,), (0.6,), 1.0, 0.1)


def test_image_of_resolves_grid_roundoff():
    # image_of resolves the user's point through PointCloud.index_of and
    # reads the pairs of the stored point.
    x_stored, y_stored = (0.30000000000000004,), (0.6000000000000001,)
    assert DOM.index_of(0.3) == DOM.points.index(x_stored) == 65
    assert TWO_X.image_of(0.3) == TWO_X.image_of(x_stored) == (y_stored,)
    assert FAR.image_of((0.3,)) == FAR.image_of(x_stored)
    assert len(FAR.image_of((0.3,))) == 2
    # A point matching no stored point has no values; one matching two is
    # ambiguous, as in index_of.
    assert TWO_X.image_of(0.31) == ()
    near = SampledMap.from_function(PointCloud(((0.0,), (4e-10,), (1.0,))),
                                    lambda p: (2.0 * p[0],))
    assert near.image_of(4e-10) == ((8e-10,),)
    with pytest.raises(KeyError, match="matches 2 cloud points"):
        near.image_of(2e-10)


def test_check_modulus_property_bisection_consistency():
    # check at explicit constants brackets the reported threshold
    holds = check_modulus_property(TWO_X, REF0, "sur", 1.8, 1.0)
    fails = check_modulus_property(TWO_X, REF0, "sur", 2.2, 1.0)
    assert holds.passed and not fails.passed


def test_product_laws_on_affine():
    cfg = ModulusSearchConfig()
    pairs = (("sur", "reg"), ("popen", "subreg"))
    for a, b in pairs:
        law = verify_product_laws(estimate_modulus(TWO_X, REF0, a, cfg),
                                  estimate_modulus(TWO_X, REF0, b, cfg))
        assert law.relation == "product"
        assert law.verdict, (a, b)
        assert law.interval_low <= 1.0 + 0.05
        assert float(law.interval_high) >= 1.0 - 0.05


def test_coincident_pairs_overlap():
    cfg = ModulusSearchConfig()
    for a, b in (("reg", "lip_inv"), ("subreg", "calm"), ("semireg", "incalm")):
        law = verify_product_laws(estimate_modulus(TWO_X, REF0, a, cfg),
                                  estimate_modulus(TWO_X, REF0, b, cfg))
        assert law.relation == "coincide"
        assert law.verdict, (a, b)


def test_product_law_rejects_unrelated_pair():
    cfg = ModulusSearchConfig()
    sur = estimate_modulus(TWO_X, REF0, "sur", cfg)
    calm = estimate_modulus(TWO_X, REF0, "calm", cfg)
    with pytest.raises(ValueError, match="neither paired nor coincident"):
        verify_product_laws(sur, calm)


def test_tgrid_floor_radius_matches_radius():
    grid = TGrid(0.02)
    radii = grid.radius(np.arange(60))
    bounds = np.concatenate([radii, np.nextafter(radii, 0.0), np.nextafter(radii, 1.0),
                             [0.0, 0.019, math.inf]])
    for strict in (False, True):
        floor = grid.floor_radius(bounds, strict=strict)
        expected = [max((t for t in radii if (t < b if strict else t <= b)), default=0.0)
                    for b in bounds[:-1]]
        assert floor[:-1].tolist() == expected
        assert math.isinf(floor[-1])


THRESHOLD_MAPS = [
    SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, step), fn)
    for step in (0.05, 0.02)
    for fn in (lambda p: (0.5 * p[0],), lambda p: (1.7 * p[0],),
               lambda p: (-2.3 * p[0],), lambda p: (3.0 * p[0],),
               lambda p: (p[0] + 0.3 * math.sin(p[0]),), lambda p: (p[0] ** 3,),
               lambda p: (abs(p[0]),))
] + [
    SampledMap.from_branches(PointCloud.from_grid(-1.0, 1.0, step),
                             [lambda p: (1.5 * p[0],), lambda p: (1.5 * p[0] + 10.0,)])
    for step in (0.05, 0.02)
]


def test_threshold_verdicts_agree_with_kernel():
    # Wherever the per-gamma threshold decides a probe, the scan kernel must
    # return the same verdict: at both band edges, one ulp either side of
    # them, and at random constants between the default bracket's ends. The
    # extra configurations make surrogates equal to the closure tolerance
    # and put one gamma of the schedule on the radius grid.
    rng = np.random.default_rng(4)
    decided = probed = 0
    for mapping in THRESHOLD_MAPS:
        on_grid = 16 * float(TGrid(mapping.geometry.step_x).radius(20))
        for cfg in (ModulusSearchConfig(), ModulusSearchConfig(closure_tol=0.0),
                    ModulusSearchConfig(gamma0=on_grid)):
            engine = _ModulusEngine(mapping, REF0, cfg)
            for kind, gamma in itertools.product(MODULUS_KINDS, engine.gamma_schedule):
                edges = [e for e in engine.band(kind, gamma) if 0.0 < e < math.inf]
                constants = [c for e in edges for c in (np.nextafter(e, 0.0), e,
                                                        np.nextafter(e, math.inf))]
                constants += (10.0 ** rng.uniform(-2.0, 2.5, 4)).tolist()
                for c in constants:
                    sure = _band_verdict(kind, c, engine.band(kind, gamma))
                    probed += 1
                    if sure is not None:
                        decided += 1
                        assert sure == engine.holds_at(kind, c, gamma)[0], (kind, c, gamma)
    assert decided > probed // 2


def test_modulus_search_runs_kernel_only_near_threshold(monkeypatch):
    counts = {"first_reaching": 0, "_openness_violations": 0, "_estimate_violations": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TGrid, "first_reaching",
                        counting("first_reaching", TGrid.first_reaching))
    for name in ("_openness_violations", "_estimate_violations"):
        monkeypatch.setattr(regularity, name, counting(name, getattr(regularity, name)))
    mapping = SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.005),
                                       lambda p: (2.0 * p[0],))
    sur = estimate_modulus(mapping, REF0, "sur")
    assert counts["first_reaching"] <= 8 and counts["_openness_violations"] <= 12, counts
    reg = estimate_modulus(mapping, REF0, "reg")
    assert counts["_estimate_violations"] <= 8, counts
    assert sur.lower <= 2.0 <= float(sur.upper)
    assert verify_product_laws(sur, reg).verdict


def test_modulus_search_memoizes_kernel_scans(monkeypatch):
    # A bracket endpoint whose verdict the kernel already gave during the
    # bisection reads that scan, and a witness's radius comes from the few
    # hit entries alone. The rate band is widened to 1e-3 so that the
    # bisection's last probes land inside it and are scanned.
    lookups: list[tuple[str, float, float]] = []
    scans: list[tuple[float, float]] = []
    sizes: list[int] = []
    holds_at = _ModulusEngine.holds_at
    kernel, first_reaching = regularity._openness_violations, TGrid.first_reaching

    def counted_holds_at(self, kind, constant, gamma):
        lookups.append((kind, constant, gamma))
        return holds_at(self, kind, constant, gamma)

    def counted_kernel(tgrid, rho, constant, reach, cols, gam, closed, *, first=False):
        scans.append((constant, float(gam.max())))
        return kernel(tgrid, rho, constant, reach, cols, gam, closed, first=first)

    def counted_first_reaching(self, rho, *args, **kwargs):
        sizes.append(np.size(rho))
        return first_reaching(self, rho, *args, **kwargs)

    monkeypatch.setattr(regularity, "_RATE_SLACK", 1e-3)
    monkeypatch.setattr(_ModulusEngine, "holds_at", counted_holds_at)
    monkeypatch.setattr(regularity, "_openness_violations", counted_kernel)
    monkeypatch.setattr(TGrid, "first_reaching", counted_first_reaching)
    mapping = SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.005),
                                       lambda p: (2.0 * p[0],))
    sur = estimate_modulus(mapping, REF0, "sur")
    assert sur.lower <= 2.0 <= float(sur.upper)
    assert scans and len(scans) == len(set(scans)) == len(set(lookups)), scans
    ends = [("sur", *end[:2]) for end in (sur.witness_ok, sur.witness_fail)]
    # Each endpoint was looked up by a bisection probe and again by the
    # endpoint audit, and scanned once.
    assert all(lookups.count(end) == 2 for end in ends), (ends, lookups)
    assert all(scans.count(end[1:]) == 1 for end in ends), (ends, scans)
    assert sizes and all(1 <= size <= regularity._WITNESS_CAP for size in sizes), sizes


ENDPOINT_MAPS = [
    SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.005), lambda p: (-2.3 * p[0],)),
    SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.02),
                             lambda p: (p[0] + 0.3 * math.sin(p[0]),)),
    SampledMap.from_branches(PointCloud.from_grid(-1.0, 1.0, 0.02),
                             [lambda p: (1.5 * p[0],), lambda p: (1.5 * p[0] + 10.0,)]),
]


def test_modulus_search_scans_only_the_reported_endpoints(monkeypatch):
    # The bands are a few ulps wide, so the bisection's probes are decided
    # by the threshold and the kernel runs only at reported endpoints. Its
    # verdicts are kept on the geometry, so on each map (a fresh copy, which
    # holds no earlier test's memo) no memo key is scanned twice, the memo
    # keeps at most the two endpoints of each distinct content, and a
    # second sweep scans nothing and reports the same.
    scans: list[tuple] = []
    scan_kind = _ModulusEngine._scan_kind

    def counted(self, kind, constant, gamma):
        scans.append((kind, constant, gamma, (*self._keys[kind], gamma, constant)))
        return scan_kind(self, kind, constant, gamma)

    monkeypatch.setattr(_ModulusEngine, "_scan_kind", counted)
    for mapping in map(replace, ENDPOINT_MAPS):
        memo = mapping.geometry._verdicts
        keys: list[tuple] = []
        first = []
        for kind in MODULUS_KINDS:
            scans.clear()
            report = estimate_modulus(mapping, REF0, kind)
            ends = {(kind, *end[:2]) for end in (report.witness_ok, report.witness_fail)
                    if end is not None}
            assert {scan[:3] for scan in scans} <= ends, (kind, scans, ends)
            keys += [scan[3] for scan in scans]
            first.append(repr(report))
        assert len(keys) == len(set(keys)) and set(keys) == set(memo), keys
        per_content = Counter(key[0] for key in memo)
        assert max(per_content.values()) <= 2, per_content
        scans.clear()
        again = [repr(estimate_modulus(mapping, REF0, kind)) for kind in MODULUS_KINDS]
        assert scans == [] and again == first


_KEY_MAP = SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.05),
                                    lambda p: (p[0] ** 3 + 0.5 * p[0],))
_KEY_REFS = (REF0, ((0.5,), _KEY_MAP.image_of((0.5,))[0]))

# One kind, then calls that each pick a reference, closure_tol, t_per_decade,
# eps_schedule and gamma0, and run estimate_modulus (None) or
# check_modulus_property at a (constant, gamma).
_KEY_CALLS = st.tuples(
    st.sampled_from(MODULUS_KINDS),
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from([None, 0.0, 0.15]),
                       st.sampled_from([20, 7]), st.sampled_from([(), (0.4, 0.2)]),
                       st.sampled_from([None, 0.7]),
                       st.none() | st.tuples(st.sampled_from([0.1, 0.6, 1.2, 20.0]),
                                             st.sampled_from([0.35, 0.7]))),
             min_size=2, max_size=4))


def _key_call(mapping, ref, tol, per_decade, eps, gamma0, probe, kind):
    cfg = ModulusSearchConfig(gamma0=gamma0, closure_tol=tol, t_per_decade=per_decade,
                              eps_schedule=eps)
    if probe is None:
        return repr(estimate_modulus(mapping, _KEY_REFS[ref], kind, cfg))
    return repr(check_modulus_property(mapping, _KEY_REFS[ref], kind, *probe, cfg))


@settings(max_examples=30)
@given(_KEY_CALLS)
# Calls that differ in one memo key component alone.
@example(("sur", [(0, None, 20, (), None, None), (0, 0.15, 20, (), None, None)]))
@example(("reg", [(0, None, 20, (), None, None), (0, None, 20, (0.4, 0.2), None, None)]))
@example(("sur", [(0, None, 20, (), None, None), (0, None, 7, (), None, None)]))
@example(("lopen", [(0, None, 20, (), None, None), (1, None, 20, (), None, None)]))
@example(("reg", [(0, None, 20, (), None, (0.6, 0.35)), (0, None, 20, (), None, (0.6, 0.7))]))
@example(("sur", [(0, None, 20, (), None, (0.1, 0.7)), (0, None, 20, (), None, (20.0, 0.7))]))
def test_memo_keys_hold_everything_a_scan_reads(calls):
    # Calls on one shared map read the geometry's bands and kernel verdicts
    # of the calls before them; each must report what it reports on a
    # fresh copy of the map, which holds no memo.
    kind, specs = calls
    shared = replace(_KEY_MAP)
    for spec in specs:
        assert _key_call(shared, *spec, kind) == _key_call(replace(_KEY_MAP), *spec, kind), spec


def _ulps_from(edge: float, toward: float, ulps: int) -> float:
    for _ in range(ulps):
        edge = float(np.nextafter(edge, toward))
    return edge


_THREE_ABS = Metric("3|.|", lambda a, b: 3.0 * np.abs(a[:, None, 0] - b[None, :, 0]))


# (step, slope, family, metric_x, closure_tol in grid steps, gamma0 spec).
# Whole grid steps sit on the surrogates' values, so surrogate - tol cancels
# to a few ulps there. A gamma0 spec (j, k) sets gamma0 = 2**j times grid
# radius k, which puts the schedule's j-th gamma on the radius grid; None is
# the default gamma0.
_BAND_CASES = st.tuples(
    st.sampled_from([0.04, 0.05]),
    st.floats(1e-3, 7.0).flatmap(lambda s: st.sampled_from([s, -s])),
    st.sampled_from(["linear", "sine", "branches"]),
    st.sampled_from(["euclidean", "3|.|"]),
    st.sampled_from([None, 0.0, 1e-9, 1.0, 2.0, 3.0]),
    st.none() | st.tuples(st.integers(0, 3), st.integers(20, 40)))


def _band_engine(step, slope, family, metric, tol_steps, on_grid):
    domain = PointCloud.from_grid(-1.0, 1.0, step)
    metric_x = EUCLIDEAN if metric == "euclidean" else _THREE_ABS
    if family == "branches":
        mapping = SampledMap.from_branches(
            domain, [lambda p: (slope * p[0],), lambda p: (slope * p[0] + 1.0,)],
            metric_x=metric_x)
    else:
        wave = 0.3 if family == "sine" else 0.0
        mapping = SampledMap.from_function(
            domain, lambda p: (slope * (p[0] + wave * math.sin(3.0 * p[0])),),
            metric_x=metric_x)
    step_x = mapping.geometry.step_x
    tol = None if tol_steps is None else tol_steps * step_x
    gamma0 = None if on_grid is None else 2.0 ** on_grid[0] * float(
        TGrid(step_x).radius(on_grid[1]))
    return _ModulusEngine(mapping, REF0, ModulusSearchConfig(gamma0=gamma0, closure_tol=tol))


@settings(max_examples=40)
@given(_BAND_CASES)
# A bound slack of 2**-53 disagrees here one ulp below the subreg and calm
# bands of the schedule's third gamma.
@example((0.04, 0.6729638193406405, "sine", "3|.|", 1.0, (2, 27)))
def test_band_edges_agree_with_kernel_just_outside(case):
    # A constant 1 to 8 ulps outside a band edge is decided by the threshold,
    # and the kernel must give the same verdict: the band's slack covers
    # every rounding by which the threshold and the kernel's float tests
    # differ. With no slack, probes like these disagree.
    engine = _band_engine(*case)
    for kind, gamma in itertools.product(MODULUS_KINDS, engine.gamma_schedule):
        below, above = engine.band(kind, gamma)
        for edge, toward in ((below, 0.0), (above, math.inf)):
            if not 0.0 < edge < math.inf:
                continue
            for ulps in range(1, 9):
                c = _ulps_from(edge, toward, ulps)
                sure = _band_verdict(kind, c, engine.band(kind, gamma))
                assert sure is not None and c > 0.0, (kind, c, gamma)
                assert sure == engine._scan_kind(kind, c, gamma)[0], (kind, c, gamma, edge)


def _unsliced_holds(engine, kind, constant, gamma):
    """The kernel on the kind's whole block, with the gamma window as masks."""
    b = engine.block(kind)
    gam = np.where(b.row_dist < gamma, gamma, 0.0)
    cols = b.col_dist < gamma
    if b.open_scan:
        scan = regularity._openness_violations(engine.tgrid, b.rho, constant, b.fixed, cols,
                                               gam, closed=False)
    else:
        scan = regularity._estimate_violations(b.rho, b.fixed, cols, gam, constant, engine.tol)
    if not scan.hits:
        return True, None
    r, c, *values = scan.hits[0]
    xi, v = int(b.x[r]), int(b.cols[c])
    if b.open_scan:
        return False, regularity._openness_witness(engine.geom, xi, int(b.y[r]), v, values[0],
                                                   False)
    return False, (engine.geom.domain.points[xi], engine.geom.codomain.points[v], *values)


_GRID_2D = PointCloud(tuple((0.25 * i - 1.0, 0.25 * j - 1.0)
                            for i in range(9) for j in range(9)))
WINDOW_MAPS = [
    SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.05), lambda p: (-2.3 * p[0],)),
    SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.05),
                             lambda p: (p[0] + 0.3 * math.sin(p[0]),)),
    SampledMap.from_branches(PointCloud.from_grid(-1.0, 1.0, 0.05),
                             [lambda p: (1.5 * p[0],), lambda p: (1.5 * p[0] + 10.0,)]),
    SampledMap.from_function(_GRID_2D, lambda p: (2.0 * p[0] + 0.5 * p[1],
                                                  -p[0] + 1.5 * p[1])),
]


def test_gamma_window_box_matches_unsliced_kernel():
    # A scan cut to the least box around the gamma window must give the
    # verdict and first witness of the kernel on the whole block, at every
    # gamma of the schedule, above gamma0, and at gamma 0 (no row is near).
    # In the 2-D map and the two-branch map the window has holes in its box.
    rng = np.random.default_rng(10)
    verdicts, holes = set(), 0
    for mapping in WINDOW_MAPS:
        ref = ((0.0,) * mapping.domain.dimension, (0.0,) * mapping.codomain.dimension)
        engine = _ModulusEngine(mapping, ref, ModulusSearchConfig())
        gammas = engine.gamma_schedule + (2.0 * engine.gamma0, 0.0)
        for kind, gamma in itertools.product(MODULUS_KINDS, gammas):
            box = engine.block(kind).box(gamma)
            if gamma == 0.0:
                assert box.rho.size == 0
            holes += not (box.row_in.all() and box.col_in.all())
            edges = [e for e in engine.band(kind, gamma) if 0.0 < e < math.inf]
            constants = [c for e in edges for c in (np.nextafter(e, 0.0), e,
                                                    np.nextafter(e, math.inf))]
            constants += (10.0 ** rng.uniform(-2.0, 2.5, 3)).tolist()
            for c in constants:
                got = engine.holds_at(kind, c, gamma)
                assert got == _unsliced_holds(engine, kind, c, gamma), (kind, c, gamma)
                verdicts.add(got[0])
        top = 2.0 * engine.gamma0
        for kind in MODULUS_KINDS:
            c = engine.band(kind, top)[0]
            if 0.0 < c < math.inf:
                report = check_modulus_property(mapping, ref, kind, 2.0 * c, top)
                ok, witness = _unsliced_holds(engine, kind, 2.0 * c, top)
                assert (report.passed, report.witnesses) == (ok, () if ok else (witness,))
    assert verdicts == {True, False}
    assert holes > 0


def test_reach_table_built_once_and_shared(monkeypatch):
    # The grid-floored reach is one read-only table per (tol, grid, strict):
    # a nine-kind sweep builds it once, a second sweep builds none, and
    # check_openness reads the sweep's table while closed_ball_openness
    # builds the strict one once.
    builds: list[float] = []
    cover_radius = MapGeometry.cover_radius

    def counted(self, tol):
        builds.append(tol)
        return cover_radius(self, tol)

    monkeypatch.setattr(MapGeometry, "cover_radius", counted)
    mapping = SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.005),
                                       lambda p: (2.0 * p[0],))
    for sweep in (1, 2):
        for kind in MODULUS_KINDS:
            estimate_modulus(mapping, REF0, kind)
        assert len(builds) == 1, (sweep, builds)
    geom = mapping.geometry
    reach = geom.reach(2.0 * geom.step_x, TGrid(geom.step_x))
    assert not reach.flags.writeable
    with pytest.raises(ValueError):
        reach[0, 0] = 1.0
    inst = RegularityInstance(mapping=mapping, region_x=mapping.domain.points[::8],
                              region_y=mapping.codomain.points, gamma=0.5, constant=1.5)
    check_openness(inst)
    assert len(builds) == 1
    closed_ball_openness(inst)
    assert len(builds) == 2
    check_openness(inst)
    closed_ball_openness(inst)
    assert not geom.reach(2.0 * geom.step_x, TGrid(geom.step_x), strict=True).flags.writeable
    assert len(geom._reach) == 2 and len(builds) == 2


def test_modulus_search_memory_per_block_entry():
    # The sur block of x -> 2x on 801 points has 801 x 801 entries. The rho
    # block and the grid floor of the cover radius are kept; the cover table
    # is built inside the call.
    mapping = SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.0025),
                                       lambda p: (2.0 * p[0],))
    entries = len(mapping.geometry.Y) * len(mapping.geometry.X)
    assert entries == 641_601
    tracemalloc.start()
    try:
        estimate_modulus(mapping, REF0, "sur")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * entries, peak / entries


def _count_band_builds(monkeypatch) -> list[float]:
    """Patch both band builders to log the gamma of each band they build."""
    builds: list[float] = []
    for name in ("_rate_band", "_bound_band"):
        def counted(self, box, window, gamma, build=getattr(_ModulusEngine, name)):
            builds.append(gamma)
            return build(self, box, window, gamma)

        monkeypatch.setattr(_ModulusEngine, name, counted)
    return builds


def test_sweep_builds_each_band_once(monkeypatch):
    # x -> -2.3x has one pair per domain point, in domain order, so the
    # estimate kinds read domain rows whatever their source: a nine-kind
    # sweep builds bands of six contents, each (content, gamma) once, and a
    # second sweep reads them all from the geometry.
    builds = _count_band_builds(monkeypatch)
    mapping = SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.005),
                                       lambda p: (-2.3 * p[0],))
    bands = mapping.geometry._bands
    for sweep in (1, 2):
        for kind in MODULUS_KINDS:
            estimate_modulus(mapping, REF0, kind)
        assert builds and len(builds) == len(bands), (sweep, builds)
    contents = {key[0] for key in bands}
    assert len(contents) == 6, contents
    assert {source for scan, source, *_ in contents if scan == "estimate"} == {"domain"}
    assert sorted(builds) == sorted(key[-1] for key in bands)


def test_reg_and_lip_inv_share_bands_only_with_one_pair_per_point(monkeypatch):
    # Fresh copies of the endpoint maps, so no earlier test's bands are kept.
    # On the single-valued map lip_inv reads every band reg built; on the
    # two-branch map its pair rows are not the domain rows, and it builds
    # its own.
    builds = _count_band_builds(monkeypatch)
    for mapping, shared in ((replace(ENDPOINT_MAPS[0]), True),
                            (replace(ENDPOINT_MAPS[2]), False)):
        estimate_modulus(mapping, REF0, "reg")
        before = len(builds)
        estimate_modulus(mapping, REF0, "lip_inv")
        assert (len(builds) == before) == shared, (shared, before, len(builds))


def test_coincident_kinds_report_equal_on_single_valued_maps():
    # Sharing rests on DY[pair_yi] equalling DYG row for row when each
    # domain point has one image; the reports then agree field for field.
    for mapping in (TWO_X, ENDPOINT_MAPS[0], ENDPOINT_MAPS[1]):
        geom = mapping.geometry
        assert np.array_equal(geom.pair_xi, np.arange(len(geom.X)))
        assert np.array_equal(geom.DY[geom.pair_yi], geom.DYG)
        for kind, partner in (("reg", "lip_inv"), ("subreg", "calm"), ("semireg", "incalm")):
            report = estimate_modulus(mapping, REF0, kind)
            assert replace(estimate_modulus(mapping, REF0, partner), kind=kind) == report


def test_reg_search_memory_per_block_entry():
    # The reg block of x -> 2x on 801 points reads the kept DYG and
    # preimage tables through views, and its bound bands take no gathered
    # copies, so a cold search peaks at the few full-box temporaries of one
    # band or scan.
    mapping = SampledMap.from_function(PointCloud.from_grid(-1.0, 1.0, 0.0025),
                                       lambda p: (2.0 * p[0],))
    geom = mapping.geometry
    geom.preimage_distance(regularity._default_eps_schedule(geom)[-1])
    entries = len(geom.X) * len(geom.Y)
    assert entries == 641_601
    tracemalloc.start()
    try:
        estimate_modulus(mapping, REF0, "reg")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * entries, peak / entries


def _tstar_oracle(tgrid, rho, constant, cover, cols, gam, closed):
    """The openness scan through t*, the least grid radius reaching each entry."""
    t = tgrid.first_reaching(rho, constant, closed=closed)
    window = cols & (t < gam[:, None])
    viol = window & ((t < cover) if closed else (t <= cover))
    return regularity._scan(window, viol, t)


@st.composite
def _openness_blocks(draw):
    tgrid = TGrid(draw(st.sampled_from([0.005, 0.02, 0.3])), draw(st.sampled_from([5, 20])))
    constant = draw(st.one_of(st.sampled_from([1e-9, 1e-6, 1e6, 1e9]),
                              st.floats(1e-3, 1e3)))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def value(scale, hi):
        # 0, inf, a float, or scale times a grid radius, possibly one ulp off.
        kind = draw(st.integers(0, 3))
        if kind < 2:
            return (0.0, math.inf)[kind]
        if kind == 2:
            return draw(st.floats(0.0, hi))
        v = scale * float(tgrid.radius(draw(st.integers(0, 40))))
        return float(np.nextafter(v, draw(st.sampled_from([0.0, v, math.inf]))))

    rho = np.array([[value(constant, 1e4) for _ in range(cols)] for _ in range(rows)])
    cover = np.array([[value(1.0, 100.0) for _ in range(cols)] for _ in range(rows)])
    gam = np.array([value(1.0, 100.0) for _ in range(rows)])
    mask = np.array(draw(st.lists(st.booleans(), min_size=cols, max_size=cols)))
    return tgrid, rho, constant, cover, mask, gam, draw(st.booleans())


def _block(rho, cover, gam, closed):
    return (TGrid(0.02), np.array([[rho]]), 1.0, np.array([[cover]]), np.array([True]),
            np.array([gam]), closed)


@settings(max_examples=300)
@given(_openness_blocks())
# The closed scan's guards: rho = 0 against a top radius of 0 (gamma 0),
# an infinite rho against an infinite gamma, rho = 0 against a reach of 0.
@example(_block(0.0, 1.0, 0.0, True))
@example(_block(math.inf, 1.0, math.inf, True))
@example(_block(0.0, 0.0, 1.0, True))
def test_openness_kernel_matches_tstar_oracle(block):
    tgrid, rho, constant, cover, cols, gam, closed = block
    reach = tgrid.floor_radius(cover, strict=closed)
    got = regularity._openness_violations(tgrid, rho, constant, reach, cols, gam, closed)
    assert got == _tstar_oracle(tgrid, rho, constant, cover, cols, gam, closed)


@st.composite
def _grid_maps(draw):
    # Coordinates stay within 0.5 in size (up to round-off), so a point is
    # resolved by PointCloud.index_of exactly when it lies within 1e-9.
    start = draw(st.floats(-0.5, 0.0))
    step = draw(st.sampled_from([0.01, 0.02, 0.025]))
    cloud = PointCloud.from_grid(start, start + step * draw(st.integers(1, 20)), step)
    return SampledMap.from_function(cloud, lambda p: (0.5 * p[0],))


_ROUNDOFF = st.floats(-1e-10, 1e-10)


@settings(max_examples=60)
@given(_grid_maps(), st.data())
def test_locate_resolves_roundoff_to_stored_index(mapping, data):
    geom = mapping.geometry
    i = data.draw(st.integers(0, len(mapping.pairs) - 1))
    x, y = mapping.pairs[i]
    moved_x = (x[0] + data.draw(_ROUNDOFF),)
    moved_y = (y[0] + data.draw(_ROUNDOFF),)
    assert mapping.locate(moved_x, moved_y) == (geom.x_index[x], geom.y_index[y])
    assert mapping.locate(moved_x, moved_y) == (mapping.domain.index_of(moved_x),
                                                mapping.codomain.index_of(moved_y))
    assert mapping.on_graph(moved_x, moved_y)


@settings(max_examples=60)
@given(_grid_maps(), st.data())
def test_locate_rejects_points_off_the_cloud(mapping, data):
    x, y = mapping.pairs[data.draw(st.integers(0, len(mapping.pairs) - 1))]
    offset = data.draw(st.floats(1e-9, 0.2, exclude_min=True))
    off = (x[0] + data.draw(st.sampled_from([-offset, offset])),)
    assume(all(abs(off[0] - p[0]) > 1e-9 for p in mapping.domain.points))
    with pytest.raises(KeyError):
        mapping.locate(off, y)
    with pytest.raises(KeyError):
        mapping.domain.index_of(off)
    with pytest.raises(KeyError):
        mapping.locate(x, (y[0] + offset + 1.0,))
    assert not mapping.on_graph(off, y)


def _loop_tables(geom, tol, eps):
    """DYG, cover_radius(tol) and preimage_distance(eps), a row or column at a
    time, with each image in pair order."""
    n_x, n_y = len(geom.X), len(geom.Y)
    images = [[] for _ in range(n_x)]
    for xi, yi in zip(geom.pair_xi, geom.pair_yi):
        images[xi].append(yi)
    dyg = np.full((n_x, n_y), np.inf)
    for u, ix in enumerate(images):
        if len(ix):
            dyg[u] = geom.DY[ix].min(axis=0)
    cover = np.full((n_y, n_x), np.inf)
    pre = np.full((n_x, n_y), np.inf)
    for v in range(n_y):
        mask = dyg[:, v] <= tol
        if mask.any():
            cover[v] = geom.DX[mask].min(axis=0)
        mask = dyg[:, v] < eps
        if mask.any():
            pre[:, v] = geom.DX[:, mask].min(axis=1)
    return dyg, cover, pre


def _asymmetric(a, b):
    # d(a, b) = b - a if b >= a, else 2(a - b), summed over coordinates.
    diff = b[None, :, :] - a[:, None, :]
    return np.where(diff >= 0.0, diff, -2.0 * diff).sum(axis=-1)


_ASYM = Metric("asymmetric", _asymmetric)


def _table_maps():
    rng = np.random.default_rng(25)
    line = PointCloud.from_grid(-1.0, 1.0, 0.25)
    plane = PointCloud(tuple((a, b) for a in (-1.0, 0.0, 1.0) for b in (-0.5, 0.5)))
    wave = lambda p: (round(float(np.sin(3.0 * p[0])), 12),)
    yield SampledMap.from_function(line, wave)
    yield SampledMap.from_function(line, wave, metric_x=_ASYM, metric_y=_ASYM)
    yield SampledMap.from_branches(line, [wave, lambda p: (round(0.5 * p[0] + 0.25, 12),)])
    yield SampledMap.from_function(plane, lambda p: (p[0] - p[1], 2.0 * p[1]))
    yield SampledMap.from_branches(plane, [lambda p: (p[0] - p[1], 2.0 * p[1]),
                                           lambda p: (p[0], p[1] + 1.0)], metric_x=_ASYM)
    # (0.0,) is stored twice and its pairs sit on its first index; (2.0,)
    # has no pair. The pairs are not in domain order.
    dom = PointCloud(((0.0,), (0.5,), (0.0,), (1.0,), (2.0,)))
    vals = tuple((round(float(v), 12),) for v in rng.uniform(-1.0, 1.0, 6))
    pairs = (((1.0,), vals[0]), ((0.0,), vals[1]), ((0.5,), vals[2]), ((0.0,), vals[3]),
             ((1.0,), vals[4]), ((0.0,), vals[5]))
    for metric in (EUCLIDEAN, _ASYM):
        yield SampledMap(dom, PointCloud(vals), pairs, metric, metric)


@pytest.mark.parametrize("tile_entries", [None, 1, 40])
def test_cold_tables_match_their_loop_oracles(monkeypatch, tile_entries):
    # Tolerances and radii include 0, the defaults and an entry of DYG itself,
    # where <= and < part ways. A budget of 1 makes every row its own tile; 40
    # cuts the rows' groups at several places.
    if tile_entries is not None:
        monkeypatch.setattr(regularity, "_TILE_ENTRIES", tile_entries)
    shared = 0
    for mapping in _table_maps():
        geom = MapGeometry(mapping)
        finite = np.unique(geom.DYG[np.isfinite(geom.DYG)])
        for tol, eps in ((0.0, 1e-9), (geom.closure_tolerance(None),
                                       regularity._default_eps_schedule(geom)[-1]),
                         (float(finite[1]), float(finite[2]))):
            dyg, cover, pre = _loop_tables(geom, tol, eps)
            assert np.array_equal(geom.DYG, dyg)
            assert np.array_equal(geom.cover_radius(tol), cover)
            assert np.array_equal(geom.preimage_distance(eps), pre)
        shared += np.array_equal(geom.pair_xi, np.arange(len(geom.X)))
    assert shared == 3


def _scan_block(seed, rows=12, cols=11):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.0, 3.0, (rows, cols))
    rho[rng.random((rows, cols)) < 0.1] = np.inf
    fixed = rng.uniform(0.0, 2.0, (rows, cols))
    fixed[rng.random((rows, cols)) < 0.1] = np.inf
    return rho, fixed, rng.random(cols) < 0.8, rng.uniform(0.5, 3.0, rows)


def _estimate_oracle(rho, surrogate, cols, gam, constant, tol):
    window = cols & (constant * rho < gam[:, None])
    bound = constant * rho + tol
    with np.errstate(invalid="ignore"):
        viol = window & ~(surrogate <= bound)
    return window, viol, regularity._scan(window, viol, surrogate, bound)


@pytest.mark.parametrize("tile_rows", [1, 3])
def test_kernel_row_tiles_give_the_one_tile_scan(monkeypatch, tile_rows):
    # Both kernels on blocks of 12 rows x 11 columns with more than 20
    # violations: tiles of 1 and 3 rows (and a budget below one row) give
    # the scan of one tile, the 20th witness falling inside a tile.
    tgrid = TGrid(0.05)
    mid_tile = 0
    for seed in range(6):
        rho, fixed, cols, gam = _scan_block(seed)
        _, viol, want = _estimate_oracle(rho, fixed, cols, gam, 0.7, 0.1)
        for closed in (False, True):
            reach = tgrid.floor_radius(fixed, strict=closed)
            open_want = _tstar_oracle(tgrid, rho, 1.5, fixed, cols, gam, closed)
            for budget in (tile_rows * rho.shape[1], 5):
                monkeypatch.setattr(regularity, "_TILE_ENTRIES", budget)
                assert regularity._openness_violations(
                    tgrid, rho, 1.5, reach, cols, gam, closed) == open_want
                assert _estimate_violations(rho, fixed, cols, gam, 0.7, 0.1) == want
        assert want.count > regularity._WITNESS_CAP
        r, c = want.hits[-1][:2]
        tile = slice(r - r % tile_rows, r - r % tile_rows + tile_rows)
        mid_tile += int(viol[tile].sum()) > int(viol[tile.start:r].sum() + viol[r, :c + 1].sum())
    assert mid_tile


def test_first_hit_scan_stops_at_the_first_tile_with_a_violation(monkeypatch):
    # With one-row tiles a first-hit scan reads up to the first violating
    # row: its first hit is the full scan's, and its window and count are
    # those of the rows walked. With no violation it is the full scan.
    tgrid = TGrid(0.05)
    for seed in range(6):
        rho, fixed, cols, gam = _scan_block(seed)
        window, viol, full = _estimate_oracle(rho, fixed, cols, gam, 0.7, 0.1)
        monkeypatch.setattr(regularity, "_TILE_ENTRIES", rho.shape[1])
        first = _estimate_violations(rho, fixed, cols, gam, 0.7, 0.1, first=True)
        r = int(np.flatnonzero(viol.any(axis=1))[0])
        assert viol[r + 1].any()
        assert first.hits[0] == full.hits[0]
        assert (first.window, first.count) == (int(window[:r + 1].sum()), int(viol[r].sum()))
        assert first.hits == full.hits[:first.count]
        reach = tgrid.floor_radius(fixed, strict=False)
        open_full = regularity._openness_violations(tgrid, rho, 1.5, reach, cols, gam, False)
        open_first = regularity._openness_violations(tgrid, rho, 1.5, reach, cols, gam, False,
                                                     first=True)
        assert open_first.hits and open_first.hits[0] == open_full.hits[0]
        calm = np.zeros_like(fixed)
        quiet = _estimate_violations(rho, calm, cols, gam, 0.7, 0.1, first=True)
        assert quiet == _estimate_violations(rho, calm, cols, gam, 0.7, 0.1)
        assert quiet.count == 0 and quiet.window == int(window.sum()) > 0

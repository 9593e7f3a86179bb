"""Sampled openness, distance estimates, and the modulus search engine.

The openness oracle below re-implements the ball-inclusion property with
explicit loops over the radius grid; engine values are frozen from runs
cross-checked against it and against closed forms for affine maps.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from almostreg import regularity
from almostreg.regularity import (
    MODULUS_KINDS,
    SUP_KINDS,
    MapGeometry,
    ModulusSearchConfig,
    RegularityInstance,
    SampledMap,
    TGrid,
    _ModulusEngine,
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
from almostreg.spaces import PointCloud

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
    assert m.preimage_of(2.0) == ((1.0,),)
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
    assert TWO_X.geometry.locate((0.3,), (0.6,)) == TWO_X.geometry.locate(x_stored, y_stored)
    assert TWO_X.geometry.on_graph((0.3,), (0.6,))
    assert not TWO_X.geometry.on_graph((0.3,), (0.64,))
    assert not TWO_X.geometry.on_graph((0.3,), (5.0,))
    for mu, beta in ((1.0, 0.2), (0.25, 0.3)):
        assert (check_unconditional_estimate(TWO_X, ((0.3,), (0.6,)), mu, beta)
                == check_unconditional_estimate(TWO_X, (x_stored, y_stored), mu, beta))
    for kappa in (1.0, 0.1):
        assert (regularity.sequence_characterization(TWO_X, (0.3,), (0.6,), kappa, 0.1)
                == regularity.sequence_characterization(TWO_X, x_stored, y_stored, kappa, 0.1))
    with pytest.raises(KeyError, match="not in cloud"):
        regularity.sequence_characterization(TWO_X, (0.31,), (0.6,), 1.0, 0.1)


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
            for kind, gamma in itertools.product(MODULUS_KINDS, engine.gamma_schedule()):
                edges = [e for e in engine.band(kind, gamma) if 0.0 < e < math.inf]
                constants = [c for e in edges for c in (np.nextafter(e, 0.0), e,
                                                        np.nextafter(e, math.inf))]
                constants += (10.0 ** rng.uniform(-2.0, 2.5, 4)).tolist()
                for c in constants:
                    sure = engine.sure_verdict(kind, c, gamma)
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

"""Rate stability under single-valued and set-valued perturbations."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from almostreg import perturb
from almostreg.perturb import (
    BetaInterval,
    LipschitzEstimate,
    PerturbationInstance,
    admissible_beta_interval,
    estimate_lip,
    global_rate_view,
    graves_check,
    lg_setvalued_check,
    lg_single_check,
    lg_sumstable_check,
    minkowski_sum_map,
    perturbed_map,
    sum_stability_check,
)
from almostreg.regularity import Metric, SampledMap
from almostreg.spaces import EUCLIDEAN, PointCloud

DOM = PointCloud.from_grid(-1.0, 1.0, 0.02)
F_2X = SampledMap.from_function(DOM, lambda p: (2.0 * p[0],))
H_SIN = SampledMap.from_function(DOM, lambda p: (0.3 * math.sin(p[0]),))
REF3 = ((0.0,), (0.0,), (0.0,))


def h_sin(p):
    return (0.3 * math.sin(p[0]),)


def test_estimate_lip_callable_frozen():
    est = estimate_lip(h_sin, (0.0,), 0.5, DOM)
    assert est.value == pytest.approx(0.29998000039999617, abs=1e-12)
    assert est.radius == 0.5
    a, b = est.witness_pair
    assert max(abs(a[0]), abs(b[0])) <= 0.5


def test_estimate_lip_aubin_matches_callable_on_function():
    est = estimate_lip(H_SIN, (0.0,), 0.5, anchor=(0.0,))
    assert est.value == pytest.approx(0.29998000039999617, abs=1e-12)


def test_estimate_lip_validation():
    with pytest.raises(ValueError, match="point cloud"):
        estimate_lip(h_sin, (0.0,), 0.5)
    with pytest.raises(ValueError, match="degenerate cloud"):
        estimate_lip(h_sin, (0.0,), 1e-6, DOM)
    with pytest.raises(ValueError, match="anchor"):
        estimate_lip(H_SIN, (0.0,), 0.5)
    with pytest.raises(KeyError, match="anchor value"):
        estimate_lip(H_SIN, (0.0,), 0.5, anchor=(7.0,))


def _lip_oracle(h, center, radius, cloud):
    """The pure-Python double loop over Euclidean distances that the table
    route of estimate_lip must reproduce."""
    pts = [p for p in cloud.points if math.dist(p, center) <= radius]
    values = [tuple(float(v) for v in h(p)) for p in pts]
    best, witness = 0.0, None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.dist(pts[i], pts[j])
            if d == 0.0:
                continue
            ratio = math.dist(values[i], values[j]) / d
            if ratio > best:
                best, witness = ratio, (pts[i], pts[j])
    return best, witness


def _lip(h, center, radius, cloud):
    est = estimate_lip(h, center, radius, cloud)
    return est.value, est.witness_pair


def test_estimate_lip_tables_match_loop_oracle_on_hand_cases():
    line = PointCloud(tuple((float(k),) for k in range(6)))
    cases = [
        # Every ratio is exactly 2: the witness is the first pair.
        (line, lambda p: (2.0 * p[0],)),
        # Ties between different pairs at the largest ratio 3.
        (line, lambda p: (3.0 * abs(p[0] - 2.0),)),
        # Duplicate points: the pairs at distance 0 are skipped.
        (PointCloud(((0.0,), (0.5,), (0.5,), (1.0,), (0.0,))),
         lambda p: (p[0] * p[0],)),
        # A constant h: the rate is 0 with no witness.
        (line, lambda p: (7.0,)),
        # Infinite values: inf against a finite value wins, inf against inf
        # is a nan ratio and never does.
        (line, lambda p: (math.inf if p[0] >= 3.0 else p[0],)),
        (line, lambda p: ((-math.inf, math.inf)[int(p[0]) % 2],)),
        (line, lambda p: (math.inf,)),
    ]
    for cloud, h in cases:
        assert _lip(h, (2.0,), 10.0, cloud) == _lip_oracle(h, (2.0,), 10.0, cloud)
    assert _lip(lambda p: (2.0 * p[0],), (2.0,), 10.0, line) == (2.0, ((0.0,), (1.0,)))
    assert _lip(lambda p: (7.0,), (2.0,), 10.0, line) == (0.0, None)
    value, pair = _lip(lambda p: (math.inf if p[0] >= 3.0 else p[0],), (2.0,), 10.0, line)
    assert (value, pair) == (math.inf, ((0.0,), (3.0,)))
    # The ball is closed: radius 1 around 2 holds 1, 2 and 3.
    assert _lip(lambda p: (p[0] ** 2,), (2.0,), 1.0, line) == (5.0, ((2.0,), (3.0,)))
    # Distinct points at premetric distance 0 are skipped, not read as inf.
    coarse = Metric("floor", lambda a, b: np.abs(np.floor(a[:, None, 0])
                                                  - np.floor(b[None, :, 0])))
    est = estimate_lip(lambda p: p, (1.0,), 5.0, PointCloud(((0.0,), (0.5,), (1.0,), (1.5,))),
                       metric_x=coarse)
    assert (est.value, est.witness_pair) == (1.5, ((0.0,), (1.5,)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_estimate_lip_tables_match_loop_oracle_on_random_clouds(dim):
    # On 1-D clouds the tables give the loop's floats bit for bit. In more
    # dimensions the Euclidean table sums squares where math.dist scales, so
    # an entry may move by an ulp. A ratio of two such entries, the point
    # distance and the value distance, can then move by two ulps before the
    # division rounds: the rate is bounded at 3 ulps relative (2.07 seen).
    drift = 3.0 * np.finfo(float).eps
    rng = np.random.default_rng(dim)
    for trial in range(20):
        cloud = PointCloud(tuple(tuple(p) for p in rng.uniform(-1.0, 1.0, (60, dim)).tolist()))
        a = rng.uniform(-2.0, 2.0, (dim, dim))

        def h(p):
            q = np.asarray(p) @ a
            return tuple((np.sin(q) + 0.1 * q * q).tolist())

        center, radius = cloud.points[trial], float(rng.uniform(0.3, 2.5))
        got, pair = _lip(h, center, radius, cloud)
        want, want_pair = _lip_oracle(h, center, radius, cloud)
        if dim == 1:
            assert (got, pair) == (want, want_pair)
        else:
            assert abs(got - want) <= drift * want, (got, want)
            u, x = pair
            assert abs(math.dist(h(u), h(x)) / math.dist(u, x) - want) <= drift * want


def test_lg_single_check_reads_lipschitz_rate_in_map_metrics():
    # Under d = 3|.| on the domain, the rate of h is a third of its
    # Euclidean rate, and the ball of radius 3 * r is the Euclidean ball of
    # radius r. The estimate must read both from the map's metrics.
    scaled = Metric("3|.|", lambda a, b: 3.0 * np.abs(a[:, None, 0] - b[None, :, 0]))
    euclidean = estimate_lip(h_sin, (0.0,), 0.5, DOM).value
    scaled_est = estimate_lip(h_sin, (0.0,), 1.5, DOM, metric_x=scaled)
    assert scaled_est.value == pytest.approx(euclidean / 3.0, rel=1e-12)
    assert max(abs(p[0]) for p in scaled_est.witness_pair) <= 0.5
    both = estimate_lip(h_sin, (0.0,), 1.5, DOM, metric_x=scaled, metric_y=scaled)
    assert both.value == pytest.approx(euclidean, rel=1e-12)

    F = SampledMap.from_function(DOM, lambda p: (2.0 * p[0],), metric_x=scaled)
    rep = lg_single_check(PerturbationInstance(F=F, ref=((0.0,), (0.0,)), h=h_sin))
    lip = dict(rep.details)["lip"]
    assert lip == estimate_lip(h_sin, (0.0,), 0.5 * F.geometry.diam_x, DOM,
                               metric_x=scaled).value
    assert lip == pytest.approx(estimate_lip(h_sin, (0.0,), 1.0, DOM).value / 3.0, rel=1e-12)


def test_perturbed_map_shifts_values():
    dom = PointCloud(((0.0,), (1.0,)))
    base = SampledMap.from_function(dom, lambda p: (2.0 * p[0],))
    shifted = perturbed_map(base, lambda p: (1.0,))
    assert shifted.pairs == (((0.0,), (1.0,)), ((1.0,), (3.0,)))
    with pytest.raises(ValueError, match="dimension"):
        perturbed_map(base, lambda p: (1.0, 2.0))


def test_minkowski_sum_map_hand_checked():
    dom = PointCloud(((0.0,), (1.0,)))
    f = SampledMap.from_branches(dom, [lambda p: (p[0],),
                                       lambda p: (p[0] + 1.0,)])
    g = SampledMap.from_function(dom, lambda p: (10.0,))
    s = minkowski_sum_map(f, g)
    assert set(s.image_of((0.0,))) == {(10.0,), (11.0,)}
    assert set(s.image_of((1.0,))) == {(11.0,), (12.0,)}
    other = SampledMap.from_function(PointCloud(((5.0,),)), lambda p: (0.0,))
    with pytest.raises(ValueError, match="same domain"):
        minkowski_sum_map(f, other)
    # near-duplicate values collapse under a positive dedup tolerance
    close = SampledMap.from_branches(dom, [lambda p: (0.0,),
                                           lambda p: (1e-15,)])
    assert len(minkowski_sum_map(g, close, dedup_tol=1e-12).image_of((0.0,))) == 1


def test_minkowski_dedup_drops_a_value_exactly_dedup_tol_away():
    # H's values 0 and 0.25 are exactly dedup_tol = 0.25 apart (both dyadic),
    # so at each point the second sum is dropped: one value per point.
    dom = PointCloud(((0.0,), (1.0,)))
    zero = SampledMap.from_function(dom, lambda p: (0.0,))
    two = SampledMap.from_branches(dom, [lambda p: (0.0,), lambda p: (0.25,)])
    assert minkowski_sum_map(zero, two, dedup_tol=0.25).pairs == (
        ((0.0,), (0.0,)), ((1.0,), (0.0,)))


def test_instance_validation():
    with pytest.raises(ValueError, match="reference value"):
        PerturbationInstance(F=F_2X, ref=((0.0,), (0.5,)))
    with pytest.raises(ValueError, match="w_bar"):
        PerturbationInstance(F=F_2X, ref=((0.0,), (0.0,)), H=H_SIN)
    with pytest.raises(ValueError, match="w_bar"):
        PerturbationInstance(F=F_2X, ref=((0.0,), (0.0,), (0.5,)), H=H_SIN)
    with pytest.raises(ValueError, match="ell < c < c_prime"):
        PerturbationInstance(F=F_2X, ref=((0.0,), (0.0,)),
                             constants=dict(c=1.0, c_prime=2.0, ell=1.5))


@pytest.mark.parametrize("changes", [
    dict(a=-0.3), dict(c=-1.0, ell=-2.0, c_prime=1.0), dict(r=0.0), dict(delta=-0.05),
    dict(ell=-0.1), dict(b=math.nan)], ids=str)
def test_instance_rejects_setvalued_constants_out_of_range(changes):
    # Each of the first four once built an instance whose check then failed
    # (a negative extended real, an internal lambda outside (0, 1), a gamma
    # that vanishes) or, for a negative delta, passed.
    consts = dict(c=1.2, c_prime=1.5, ell=0.4, a=0.3, b=0.3, r=0.15, delta=0.05)
    with pytest.raises(ValueError, match="must be positive|0 <= ell < c < c_prime"):
        PerturbationInstance(F=F_2X, ref=REF3, H=H_SIN, constants={**consts, **changes})


def test_lg_single_frozen():
    inst = PerturbationInstance(F=F_2X, ref=((0.0,), (0.0,)), h=h_sin)
    rep = lg_single_check(inst)
    assert rep.passed and not rep.inconclusive
    assert rep.lower == pytest.approx(2.2478638679538108, abs=1e-9)
    assert rep.bound == pytest.approx(1.5020211993984742, abs=1e-9)
    assert rep.tol == pytest.approx(0.1979988000126659, abs=1e-12)
    detail = dict(rep.details)
    assert detail["sur_base_lower"] == pytest.approx(2.0, abs=1e-6)
    assert detail["lip"] == pytest.approx(0.29998000039999617, abs=1e-12)
    with pytest.raises(ValueError, match="no single-valued"):
        lg_single_check(PerturbationInstance(F=F_2X, ref=((0.0,), (0.0,))))


def test_graves_applied_frozen():
    rep = graves_check(lambda p: (2.0 * p[0],),
                       lambda p: (2.0 * p[0] + 0.02 * math.sin(p[0]),),
                       (0.0,), 0.5, DOM)
    assert rep.status == "applied"
    assert rep.passed
    assert rep.lip_sequence == pytest.approx((0.019998666693333052,) * 3)
    assert rep.sur_f_lower == pytest.approx(2.0, abs=1e-6)
    assert rep.sur_g_lower == pytest.approx(2.016701384590072, abs=1e-9)
    assert abs(rep.sur_f_lower - rep.sur_g_lower) <= rep.tol


def test_graves_skipped_when_difference_is_steep():
    rep = graves_check(lambda p: (2.0 * p[0],), lambda p: (p[0],),
                       (0.0,), 0.5, DOM)
    assert rep.status == "skipped"
    assert rep.passed is None
    assert rep.sur_f_lower is None


def test_sum_stability_frozen():
    rep = sum_stability_check(F_2X, H_SIN, REF3)
    assert rep.verdict
    expected = ((1.0, 1.1438276615812608), (0.5, 0.5971241655676466),
                (0.25, 0.32186293439327096))
    for (xi, beta, ok), (exp_xi, exp_beta) in zip(rep.entries, expected):
        assert xi == exp_xi
        assert beta == pytest.approx(exp_beta, abs=1e-9)
        assert ok
    with pytest.raises(ValueError, match="z_bar"):
        sum_stability_check(F_2X, H_SIN, ((0.0,), (0.5,), (0.0,)))
    with pytest.raises(ValueError, match="w_bar"):
        sum_stability_check(F_2X, H_SIN, ((0.0,), (0.0,), (0.5,)))


def test_sum_stability_detects_far_branch_leak():
    # a constant far-branch sum lands near the reference value but never
    # splits into near components
    dom = PointCloud.from_grid(-1.0, 1.0, 0.1)
    f = SampledMap.from_branches(dom, [lambda p: (round(2.0 * p[0], 12),),
                                       lambda p: (10.01,)])
    g = SampledMap.from_branches(dom, [lambda p: (0.0,),
                                       lambda p: (-10.0,)])
    rep = sum_stability_check(f, g, REF3)
    assert not rep.verdict
    assert all(not ok for _, _, ok in rep.entries)
    with pytest.raises(ValueError, match="not sum-stable"):
        lg_sumstable_check(f, g, REF3)


def test_sum_stability_and_aubin_follow_map_metrics():
    # Under d = 3|.| on both sides a map is isometric to the same map on
    # coordinates tripled, under the Euclidean metric. So the decomposition
    # radii and the Aubin rate, both measured in the maps' metrics, must
    # match the tripled maps'. Euclidean balls would match the plain maps'.
    scaled = Metric("3|.|", lambda a, b: 3.0 * np.abs(a[:, None, 0] - b[None, :, 0]))
    dom = PointCloud.from_grid(-1.0, 1.0, 0.05)
    dom3 = PointCloud(tuple((3.0 * p[0],) for p in dom.points))
    back = dict(zip(dom3.points, dom.points))

    def pair(fn):
        plain = SampledMap.from_function(dom, fn, metric_x=scaled, metric_y=scaled)
        tripled = SampledMap.from_function(dom3, lambda p: (3.0 * fn(back[p])[0],))
        return plain, tripled

    (F, F3), (H, H3) = pair(lambda p: (2.0 * p[0],)), pair(h_sin)
    rep, rep3 = sum_stability_check(F, H, REF3), sum_stability_check(F3, H3, REF3)
    assert rep.grid_step == pytest.approx(rep3.grid_step, rel=1e-12)
    for (xi, beta, ok), (xi3, beta3, ok3) in zip(rep.entries, rep3.entries):
        assert (xi, ok) == (xi3, ok3)
        assert beta == pytest.approx(beta3, rel=1e-12)
    assert [beta for _, beta, _ in rep.entries] != [
        beta for _, beta, _ in sum_stability_check(F_2X, H_SIN, REF3).entries]

    (C, C3) = pair(lambda p: (p[0] ** 3,))
    for radius in (0.5, 1.5):
        est = estimate_lip(C, (0.0,), radius, anchor=(0.0,))
        est3 = estimate_lip(C3, (0.0,), radius, anchor=(0.0,))
        assert est.value == pytest.approx(est3.value, rel=1e-12)
        assert est.value != pytest.approx(estimate_lip(
            SampledMap.from_function(dom, lambda p: (p[0] ** 3,)), (0.0,), radius,
            anchor=(0.0,)).value, rel=1e-6)


def test_lg_sumstable_frozen():
    rep = lg_sumstable_check(F_2X, H_SIN, REF3)
    assert rep.passed and not rep.inconclusive
    assert rep.lower == pytest.approx(2.2478638679538108, abs=1e-9)
    assert rep.bound == pytest.approx(1.5020211993984742, abs=1e-9)


def test_lg_setvalued_full_pass():
    inst = PerturbationInstance(
        F=F_2X, ref=REF3, H=H_SIN,
        constants=dict(c=1.2, c_prime=1.5, ell=0.4, a=0.3, b=0.3, r=0.15,
                       delta=0.05))
    rep = lg_setvalued_check(inst)
    assert rep.passed
    assert rep.premise_a.passed and rep.premise_b.passed and rep.premise_c.passed
    assert rep.conclusion is not None and rep.conclusion.passed
    assert not rep.reading_sensitive
    consts = dict(rep.constants)
    assert consts["lambda"] == pytest.approx((1.5 - 1.2) / 3.0)
    assert consts["alpha"] == pytest.approx(1.0 / 3.0)
    assert consts["c_minus_ell_alpha"] < 1.0
    assert (rep.premise_a.checked, rep.premise_b.checked,
            rep.premise_c.checked, rep.conclusion.checked) == (45, 3481, 13, 30)


def test_lg_setvalued_premise_a_failure_frozen():
    # c_prime = 2.5 exceeds the rate 2 of F, so closed-ball openness fails;
    # the open reading fails too, so the verdict is not reading-sensitive.
    inst = PerturbationInstance(
        F=F_2X, ref=REF3, H=H_SIN,
        constants=dict(c=1.2, c_prime=2.5, ell=0.4, a=0.3, b=0.3, r=0.15,
                       delta=0.05))
    rep = lg_setvalued_check(inst)
    premise = rep.premise_a
    assert not rep.passed and rep.conclusion is None
    assert (premise.passed, premise.checked, premise.violation_count) == (False, 45, 677)
    assert premise.witnesses[0] == ((-0.43999999999999995,), (-0.8799999999999999,),
                                    0.07096267784671431, (-1.04,))
    assert len(premise.witnesses) == 20
    assert not rep.reading_sensitive


def test_lg_setvalued_premise_b_failure_frozen():
    # H = 1.5 sin(3x) has slope 4.5 at 0, far above ell = 0.4, so the
    # truncated Lipschitz inclusion fails inside the a + 2r ball; with
    # H = 0.3 sin(x), ell = 0.2 and a = inf the ball is the whole cloud and
    # the far rows fail. Values recorded before premise B ran on the
    # estimate kernel; witnesses are (u, x, w, dist(w, H(x)), bound).
    dom = PointCloud.from_grid(-1.0, 1.0, 0.05)
    F = SampledMap.from_function(dom, lambda p: (2.0 * p[0],))
    cases = (
        (lambda p: (1.5 * math.sin(3.0 * p[0]),), 0.4, 0.3, 69, 66,
         ((-0.04999999999999993,), (-0.55,), (-0.22415719871039852,),
          1.2711403439704798, 0.2999999999999997),
         ((-0.04999999999999993,), (0.4500000000000002,), (-0.22415719871039852,),
          1.6877422354503873, 0.2999999999999997)),
        (h_sin, 0.2, math.inf, 1681, 184,
         ((-1.0,), (0.6000000000000001,), (-0.25244129544236893,),
          0.42183403746087955, 0.4199999999999997),
         ((-0.9,), (0.55,), (-0.234998072888245,), 0.39180424156744276,
          0.3899999999999997)),
    )
    for h, ell, a, checked, count, first, last in cases:
        inst = PerturbationInstance(
            F=F, ref=REF3, H=SampledMap.from_function(dom, h),
            constants=dict(c=1.2, c_prime=1.5, ell=ell, a=a, b=0.3, r=0.15, delta=0.05))
        premise = lg_setvalued_check(inst).premise_b
        assert (premise.passed, premise.checked, premise.violation_count) == (
            False, checked, count)
        assert len(premise.witnesses) == 20
        assert premise.witnesses[0] == first and premise.witnesses[-1] == last
        assert not premise.vacuous


def test_lg_setvalued_windows_use_map_metrics():
    # Premise C and the conclusion's region windows must be balls of the
    # maps' metrics, as premises A and B are. With both metrics scaled by 3
    # the Euclidean windows would admit 13 premise-C rows and 30 conclusion
    # rows.
    scaled = Metric("3|.|", lambda a, b: 3.0 * np.abs(a[:, None, 0] - b[None, :, 0]))
    consts = dict(c=1.2, c_prime=1.5, ell=0.4, a=0.3, b=0.3, r=0.15, delta=0.05)
    xs = np.array([p[0] for p in DOM.points])
    sums = 2.0 * xs + 0.3 * np.sin(xs)
    for metrics in (dict(metric_x=scaled), dict(metric_x=scaled, metric_y=scaled)):
        F = SampledMap.from_function(DOM, lambda p: (2.0 * p[0],), **metrics)
        H = SampledMap.from_function(DOM, h_sin, **metrics)
        rep = lg_setvalued_check(PerturbationInstance(F=F, ref=REF3, H=H, constants=consts))
        y_scale = 3.0 if "metric_y" in metrics else 1.0
        expected_c = int(np.sum((3.0 * np.abs(xs) < 0.3 + 2.0 * 0.15)
                                & (y_scale * np.abs(sums) < 0.3)))
        assert rep.premise_c.checked == expected_c
        if rep.conclusion is not None:
            assert rep.conclusion.checked == int(np.sum(3.0 * np.abs(xs) < 0.3))
    assert (rep.premise_c.checked, rep.conclusion.checked) == (5, 10)


def test_perturbation_reference_tolerates_grid_roundoff():
    # A reference given as 0.3 on the 0.02 grid names the stored
    # 0.30000000000000004 (and 0.6000000000000001 for 2x): the instance
    # accepts it, and premises A and B, and every other part of the reports,
    # equal those for the stored points.
    x_stored, z_stored = (0.30000000000000004,), (0.6000000000000001,)
    w_stored = H_SIN.image_of(x_stored)[0]
    consts = dict(c=1.2, c_prime=1.5, ell=0.4, a=0.3, b=0.3, r=0.15, delta=0.05)
    typed = PerturbationInstance(F=F_2X, ref=((0.3,), (0.6,), (0.3 * math.sin(0.3),)),
                                 H=H_SIN, constants=consts)
    stored = PerturbationInstance(F=F_2X, ref=(x_stored, z_stored, w_stored),
                                  H=H_SIN, constants=consts)
    assert (typed.x_bar, typed.z_bar, typed.w_bar) == (x_stored, z_stored, w_stored)
    rep = lg_setvalued_check(typed)
    assert rep.premise_a.checked > 0 and rep.premise_b.checked > 0
    assert rep == lg_setvalued_check(stored)
    single = PerturbationInstance(F=F_2X, ref=((0.3,), (0.6,)), h=h_sin)
    assert lg_single_check(single) == lg_single_check(
        PerturbationInstance(F=F_2X, ref=(x_stored, z_stored), h=h_sin))
    with pytest.raises(ValueError, match="reference value"):
        PerturbationInstance(F=F_2X, ref=((0.3,), (0.64,)), h=h_sin)


def test_lg_setvalued_validation():
    good = dict(c=1.2, c_prime=1.5, ell=0.4, a=0.3, b=0.3, r=0.15, delta=0.05)
    with pytest.raises(ValueError, match="no set-valued"):
        lg_setvalued_check(PerturbationInstance(F=F_2X, ref=((0.0,), (0.0,)),
                                                constants=good))
    partial = {k: v for k, v in good.items() if k != "r"}
    inst = PerturbationInstance(F=F_2X, ref=REF3, H=H_SIN, constants=partial)
    with pytest.raises(ValueError, match="missing constants: r"):
        lg_setvalued_check(inst)


def test_perturbation_constants_are_frozen():
    # The instance keeps a read-only copy of its constants, so the
    # ell < c < c_prime check made at construction cannot be undone later:
    # writing ell = 2.0 (> c) through the instance raises, and writing it into
    # the caller's dict leaves the instance as it was.
    consts = dict(c=1.2, c_prime=1.5, ell=0.4, a=0.3, b=0.3, r=0.15, delta=0.05)
    inst = PerturbationInstance(F=F_2X, ref=REF3, H=H_SIN, constants=consts)
    with pytest.raises(TypeError):
        inst.constants["ell"] = 2.0
    consts["ell"] = 2.0
    assert inst.constants["ell"] == 0.4
    assert lg_setvalued_check(inst).passed


def test_admissible_beta_interval_closed_form():
    # c=2, ell=1: a-side gives 10/5 = 2, b-side gives 19/9 > 2
    bi = admissible_beta_interval(2.0, 1.0, 1.0, 10.0, 20.0)
    assert bi.upper == 2.0
    assert not bi.empty
    assert bi.contains(1.0) and not bi.contains(2.0) and not bi.contains(0.0)
    assert bi.recheck(2.0, 1.0, 1.0, 10.0, 20.0)
    empty = admissible_beta_interval(2.0, 1.0, 25.0, 10.0, 20.0)
    assert empty.empty and empty.upper == 0.0
    assert not empty.contains(0.5)
    assert empty.recheck(2.0, 1.0, 25.0, 10.0, 20.0)
    with pytest.raises(ValueError, match="ell < c"):
        admissible_beta_interval(1.0, 2.0, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        admissible_beta_interval(2.0, 1.0, 0.1, 0.0, 1.0)


@given(c=st.floats(0.2, 10.0), gap=st.floats(0.01, 5.0),
       diam=st.floats(0.0, 10.0), a=st.floats(0.1, 50.0),
       b=st.floats(0.1, 50.0))
def test_beta_interval_midpoint_always_rechecks(c, gap, diam, a, b):
    ell = max(0.0, c - gap)
    bi = admissible_beta_interval(c, ell, diam, a, b)
    assert bi.recheck(c, ell, diam, a, b)
    if not bi.empty:
        assert bi.contains(0.5 * bi.upper)


def test_global_rate_view():
    assert global_rate_view(0.5, 1.0) == pytest.approx(1.0)
    assert global_rate_view(2.0, 0.0) == 2.0
    with pytest.raises(ValueError, match="kappa"):
        global_rate_view(0.0, 1.0)
    with pytest.raises(ValueError, match="kappa \\* ell"):
        global_rate_view(1.0, 1.0)


def test_beta_interval_contains_is_open():
    bi = BetaInterval(upper=1.0, empty=False)
    assert bi.contains(0.999)
    assert not bi.contains(1.0)


def test_sum_stability_and_aubin_anchor_tolerate_grid_roundoff():
    # On the 0.02 grid, 0.3, 0.6 and 0.3 sin(0.3) name the stored
    # 0.30000000000000004, 0.6000000000000001 and 0.08865606199840188. Each
    # report equals the report for the stored points.
    x_stored, z_stored = (0.30000000000000004,), (0.6000000000000001,)
    w_stored = H_SIN.image_of(x_stored)[0]
    typed = ((0.3,), (0.6,), (0.3 * math.sin(0.3),))
    assert typed[2] != w_stored
    stored = (x_stored, z_stored, w_stored)
    assert sum_stability_check(F_2X, H_SIN, typed) == sum_stability_check(F_2X, H_SIN, stored)
    assert lg_sumstable_check(F_2X, H_SIN, typed) == lg_sumstable_check(F_2X, H_SIN, stored)
    assert (estimate_lip(H_SIN, (0.3,), 0.2, anchor=typed[2])
            == estimate_lip(H_SIN, (0.3,), 0.2, anchor=w_stored))
    with pytest.raises(ValueError, match="z_bar"):
        sum_stability_check(F_2X, H_SIN, ((0.3,), (0.64,), typed[2]))


def _tie_maps():
    # At u = 0 the sums 0.1 + 0.2 = 0.30000000000000004 and 0.15 + 0.15 = 0.3
    # are two values of F + H that tie within 1e-12, so each splits both
    # ways; so do 1.3 and 1.2999999999999998 at u = 1.
    dom = PointCloud.from_grid(0.0, 1.0, 0.25)
    F = SampledMap.from_branches(dom, [lambda p: (p[0] + 0.1,), lambda p: (p[0] + 0.15,)])
    H = SampledMap.from_branches(dom, [lambda p: (0.2,), lambda p: (0.15,)])
    return F, H, ((0.0,), (0.1,), (0.2,))


def test_sum_reports_frozen_where_sums_tie():
    F, H, ref = _tie_maps()
    assert repr(sum_stability_check(F, H, ref, (1.0, 0.5, 0.04))) == (
        "SumStabilityReport(entries=((1.0, 1.0, True), (0.5, 0.5, True), "
        "(0.04, 0.04999999999999993, False)), verdict=False, grid_step=0.25)")
    inst = PerturbationInstance(F=F, ref=ref, H=H, constants=dict(
        c=0.5, c_prime=0.9, ell=0.0, a=0.3, b=0.3, r=0.15, delta=0.01))
    assert repr(lg_setvalued_check(inst)) == (
        "SetValuedStabilityReport("
        "premise_a=CheckReport(name='setvalued-premise-A', passed=True, checked=4, "
        "violation_count=0, witnesses=(), vacuous=False, stabilized=None), "
        "premise_b=CheckReport(name='setvalued-premise-B', passed=True, checked=9, "
        "violation_count=0, witnesses=(), vacuous=False, stabilized=None), "
        "premise_c=CheckReport(name='setvalued-premise-C', passed=False, checked=6, "
        "violation_count=2, witnesses=(((0.0,), (0.25,)), ((0.25,), (0.5,))), "
        "vacuous=False, stabilized=None), conclusion=None, "
        "constants=(('lambda', 0.22222222222222224), ('alpha', 0.5555555555555556), "
        "('c_minus_ell_alpha', 0.2777777777777778)), reading_sensitive=False, passed=False)")


def test_split_tolerance_is_1e_12():
    # H(u) = {1, 1 + 5e-10}: the sum value 1 lies within 1e-9, but not within
    # 1e-12, of 0 + (1 + 5e-10), so its only split is 0 + 1, and that w is
    # 5e-10 from w_bar = 1 + 5e-10. At xi = 2.5e-10 the pair (x_bar, 1) does
    # not split near the reference, and the largest beta is the distance
    # from v_bar to 1; with a looser tolerance every pair would split.
    dom = PointCloud(((0.0,), (1.0,), (2.0,)))
    F = SampledMap.from_function(dom, lambda p: (0.0,))
    H = SampledMap.from_branches(dom, [lambda p: (1.0,), lambda p: (1.0 + 5e-10,)])
    ref = ((0.0,), (0.0,), (1.0 + 5e-10,))
    rep = sum_stability_check(F, H, ref, (2.5e-10, 1e-9))
    assert rep.entries == ((2.5e-10, 5.000000413701855e-10, False), (1e-9, 2.0, True))
    inst = PerturbationInstance(F=F, ref=ref, H=H, constants=dict(
        c=1.2, c_prime=1.5, ell=0.0, a=0.3, b=0.3, r=0.15, delta=2.5e-10))
    premise = lg_setvalued_check(inst).premise_c
    assert (premise.checked, premise.violation_count) == (2, 1)
    assert premise.witnesses == (((0.0,), (1.0,)),)


def test_split_exactly_1e_12_off_counts():
    # H(u) = {0, 1e-12}: the sum values 0 and 1e-12 lie exactly 1e-12 apart
    # (0 and the float 1e-12, so the distance is exact), and the split
    # 0 + 1e-12 counts for the value 0. Against w_bar = 1e-12 every pair then
    # has a split at distance 0, so at xi = 5e-13 every pair splits and the
    # largest beta is the largest candidate; were that split dropped, the
    # pairs (u, 0) would need xi above 1e-12 and cap beta at 1e-12.
    dom = PointCloud(((0.0,), (1.0,), (2.0,)))
    F = SampledMap.from_function(dom, lambda p: (0.0,))
    H = SampledMap.from_branches(dom, [lambda p: (0.0,), lambda p: (1e-12,)])
    rep = sum_stability_check(F, H, ((0.0,), (0.0,), (1e-12,)), (5e-13,))
    assert rep.entries == ((5e-13, 2.0, True),)


def test_sum_checks_build_no_geometry_of_their_own(monkeypatch):
    # sum_stability_check reads the grid step from F's tables, and
    # lg_sumstable_check reuses the sum map its stability check built: once
    # F's and H's tables exist, only the modulus search on F + H builds one.
    from almostreg import regularity

    built = []
    init = regularity.MapGeometry.__init__

    def counting(self, mapping):
        built.append(mapping)
        init(self, mapping)

    F = SampledMap.from_function(DOM, lambda p: (2.0 * p[0],))
    H = SampledMap.from_function(DOM, h_sin)
    _ = F.geometry, H.geometry
    monkeypatch.setattr(regularity.MapGeometry, "__init__", counting)
    sum_stability_check(F, H, REF3)
    assert built == []
    lg_sumstable_check(F, H, REF3)
    assert len(built) == 1 and built[0] not in (F, H)


def test_lookups_build_no_tables(monkeypatch):
    # A reference pair is checked against the map's pairs, not its distance
    # tables: loading the bundled scenarios builds no MapGeometry, and
    # sum_stability_check on fresh maps builds only F's (for its grid step),
    # none for H and none for the sum map.
    from pathlib import Path

    from almostreg import regularity
    from almostreg.scenarios import load_scenario

    built = []
    init = regularity.MapGeometry.__init__

    def counting(self, mapping):
        built.append(mapping)
        init(self, mapping)

    monkeypatch.setattr(regularity.MapGeometry, "__init__", counting)
    paths = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
    assert len(paths) == 15
    for path in paths:
        load_scenario(path)
    assert built == []
    dom = PointCloud.from_grid(-1.0, 1.0, 0.05)
    F = SampledMap.from_branches(dom, [lambda p: (2.0 * p[0],), lambda p: (2.0 * p[0] + 5.0,)])
    H = SampledMap.from_branches(dom, [lambda p, k=k: (0.01 * k + 0.1 * math.sin(p[0]),)
                                       for k in range(5)])
    sum_stability_check(F, H, REF3)
    assert built and all(m is F for m in built)


def _asymmetric(a, b):
    # d(a, b) = b - a if b >= a, else 2(a - b), summed over coordinates.
    diff = b[None, :, :] - a[:, None, :]
    return np.where(diff >= 0.0, diff, -2.0 * diff).sum(axis=-1)


def _aubin_oracle(H, center, radius, anchor):
    """The Aubin form of estimate_lip, one pair of H at a time: the largest
    ratio over ball points u != x of max over w in H(u) within radius of the
    anchor of dist(w, H(x)), to d(u, x); None when the ball holds < 2 points."""
    pts = H.domain.points
    ball = [i for i, p in enumerate(pts) if float(H.metric_x(center, p)) <= radius]
    if len(ball) < 2:
        return None
    a = H.codomain.points[H.codomain.index_of(anchor)]
    # A pair sits on the first copy of its domain point.
    images = {i: [y for x, y in H.pairs if pts.index(x) == i] for i in ball}
    best, witness = 0.0, None
    for i in ball:
        near = [w for w in images[i] if float(H.metric_y(a, w)) <= radius]
        for j in ball:
            d = float(H.metric_x(pts[i], pts[j]))
            if i == j or d == 0.0 or not near:
                continue
            excess = max(min((float(H.metric_y(y, w)) for y in images[j]), default=math.inf)
                         for w in near)
            if excess / d > best:
                best, witness = excess / d, (pts[i], pts[j])
    return LipschitzEstimate(value=best, radius=radius, witness_pair=witness)


@pytest.mark.parametrize("metric", ["euclidean", "asymmetric"])
@pytest.mark.parametrize("tile_entries", [None, 1, 7])
def test_aubin_estimate_matches_its_loop_oracle(monkeypatch, metric, tile_entries):
    # (0.0,) is stored twice and its pairs sit on its first index; (2.0,) has
    # no pair, so a ball holding it gives an infinite excess. The pairs are
    # not in domain order, and some points have several values. A budget of
    # 1 entry makes each pair its own tile; 7 cuts the pairs at several places.
    if tile_entries is not None:
        monkeypatch.setattr(perturb, "_TILE_ENTRIES", tile_entries)
    metric = EUCLIDEAN if metric == "euclidean" else Metric("asymmetric", _asymmetric)
    rng = np.random.default_rng(26)
    dom = PointCloud(((0.0,), (0.5,), (0.0,), (1.0,), (2.0,), (1.5,)))
    vals = tuple((round(float(v), 12),) for v in rng.uniform(-1.0, 1.0, 8))
    xs = ((1.0,), (0.0,), (0.5,), (0.0,), (1.5,), (1.0,), (0.0,), (0.5,))
    H = SampledMap(dom, PointCloud(vals), tuple(zip(xs, vals)), metric, metric)
    rates = []
    for center, radius, anchor in itertools.product(dom.points, (0.0, 0.3, 0.6, 1.2, 3.0),
                                                    vals):
        want = _aubin_oracle(H, center, radius, anchor)
        if want is None:
            with pytest.raises(ValueError, match="degenerate"):
                estimate_lip(H, center, radius, anchor=anchor)
            continue
        got = estimate_lip(H, center, radius, anchor=anchor)
        assert repr(got) == repr(want), (center, radius, anchor)
        rates.append(got.value)
    assert 0.0 in rates and math.inf in rates and any(0.0 < r < math.inf for r in rates)

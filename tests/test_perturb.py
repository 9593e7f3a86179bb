"""Rate stability under single-valued and set-valued perturbations."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from almostreg.perturb import (
    BetaInterval,
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
from almostreg.spaces import PointCloud

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

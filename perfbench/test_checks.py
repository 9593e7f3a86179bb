"""Each output check accepts a true output and rejects a planted wrong one.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from almostreg import ekeland, ioffe, linear, perturb, regularity, scenarios, spaces  # noqa: E402
from almostreg.extreal import as_ext  # noqa: E402


# --- suite --------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_run():
    paths = [ROOT / "scenarios" / f"{n}.json" for n in ("axioms_squared_triangle_gap",
                                                       "linear_diag_svd")]
    docs = {p.stem: json.loads(p.read_text()) for p in paths}
    report = scenarios.emit_report(scenarios.run_suite(paths), format="machine")
    return report, docs


def test_suite_report_accepted(suite_run):
    report, docs = suite_run
    assert checks.check_suite_report(report, docs) == []
    assert checks.check_identical(report, report) == []


def test_suite_rejects_planted_quantity(suite_run):
    report, docs = suite_run
    doc = json.loads(report)
    doc["reports"][0]["quantities"]["violations"] += 1
    assert checks.check_suite_report(json.dumps(doc).encode(), docs)


def test_suite_rejects_missing_scenario_and_changed_bytes(suite_run):
    report, docs = suite_run
    doc = json.loads(report)
    doc["reports"].pop()
    assert checks.check_suite_report(json.dumps(doc).encode(), docs)
    assert checks.check_identical(report, report.replace(b"}", b" }", 1))


# --- moduli -------------------------------------------------------------------

SLOPE, STEP = 2.0, 0.02


@pytest.fixture(scope="module")
def moduli_run():
    dom = spaces.PointCloud.from_grid(-1.0, 1.0, STEP)
    m = regularity.SampledMap.from_function(dom, lambda p: (round(SLOPE * p[0], 12),))
    reports = {k: regularity.estimate_modulus(m, ((0.0,), (0.0,)), k)
               for k in regularity.MODULUS_KINDS}
    laws = {(a, b): regularity.verify_product_laws(reports[a], reports[b])
            for a, b in (("sur", "reg"), ("reg", "lip_inv"))}
    return reports, laws


def test_moduli_accepted(moduli_run):
    reports, laws = moduli_run
    assert checks.check_linear_moduli(reports, SLOPE, STEP) == []
    assert checks.check_laws(reports, laws) == []


def test_moduli_reject_planted_bracket(moduli_run):
    reports, _ = moduli_run
    wrong = dict(reports, sur=replace(reports["sur"], lower=2.5, upper=as_ext(2.6)))
    assert checks.check_linear_moduli(wrong, SLOPE, STEP)


def test_laws_reject_planted_bracket_and_verdict(moduli_run):
    reports, laws = moduli_run
    wrong = dict(reports, reg=replace(reports["reg"], lower=0.9, upper=as_ext(1.0)))
    assert checks.check_laws(wrong, laws)
    flipped = dict(laws)
    flipped[("sur", "reg")] = replace(laws[("sur", "reg")], verdict=False)
    assert checks.check_laws(reports, flipped)


@pytest.fixture(scope="module")
def stability_run():
    dom = spaces.PointCloud.from_grid(-1.0, 1.0, 0.05)
    h = lambda p: (-0.25 * SLOPE * p[0],)  # noqa: E731
    inst = perturb.PerturbationInstance(
        F=regularity.SampledMap.from_function(dom, lambda p: (round(SLOPE * p[0], 12),)),
        ref=((0.0,), (0.0,)), h=h)
    xs = np.array([p[0] for p in dom.points])
    return perturb.lg_single_check(inst), xs, h


def test_stability_accepted(stability_run):
    rep, xs, h = stability_run
    assert checks.check_stability(rep, SLOPE, 0.05, xs, h, 0.25, None) == []


def test_stability_rejects_planted_lip_and_rate(stability_run):
    rep, xs, h = stability_run
    details = dict(rep.details)
    assert checks.check_stability(
        replace(rep, details=tuple(dict(details, lip=0.1).items())), SLOPE, 0.05, xs, h, 0.25, None)
    assert checks.check_stability(
        replace(rep, details=tuple(dict(details, sur_perturbed_lower=0.5).items())),
        SLOPE, 0.05, xs, h, 0.25, None)


def test_verdicts_and_routes_reject_planted_answers():
    assert checks.check_verdicts(True, criterion=True, openness=True) == []
    assert checks.check_verdicts(True, criterion=True, openness=False)
    dom = spaces.PointCloud.from_grid(-1.0, 1.0, 0.1)
    m = regularity.SampledMap.from_branches(
        dom, [lambda p: (round(2.0 * p[0], 12),), lambda p: (round(2.0 * p[0] + 0.5, 12),)])
    rep = ioffe.setvalued_criterion(
        m, ioffe.PairRegion.product(m.domain.points, m.codomain.points), 0.3, 0.5, 0.1)
    assert checks.check_routes_agree(rep) == []
    flipped = replace(rep.projected, passed=not rep.projected.passed)
    assert checks.check_routes_agree(replace(rep, projected=flipped, agree=False))


# --- premetric ----------------------------------------------------------------


@pytest.fixture(scope="module")
def axioms_run():
    xs = np.round(np.arange(12) * 0.25, 10)
    squared = spaces.QuasiPremetric(fn=lambda x, u: (x[0] - u[0]) * (x[0] - u[0]),
                                    axioms_claimed=frozenset({"A1", "A2", "A3"}))
    cloud = spaces.PointCloud(tuple((float(x),) for x in xs))
    eta = (xs[:, None] - xs[None, :]) ** 2
    return spaces.check_axioms(squared, cloud), xs, eta


def _with_a2(report, violations):
    checks_ = dict(report.checks)
    checks_["A2"] = spaces.AxiomCheck("fail", tuple(violations))
    return replace(report, checks=checks_)


def test_axioms_accepted(axioms_run):
    report, xs, eta = axioms_run
    assert checks.axiom_scan(eta)["A2"] == 12 * 11 * 10 // 3
    assert checks.check_axiom_report(report, xs, eta) == []


def test_axioms_reject_planted_witness_count_and_status(axioms_run):
    report, xs, eta = axioms_run
    a2 = list(report.checks["A2"].violations)
    p = [(float(x),) for x in xs]
    # A triple that satisfies the triangle inequality, in place of a true witness.
    fake = (p[0], p[0], p[1], eta[0, 1], eta[0, 0] + eta[0, 1])
    assert checks.check_axiom_report(_with_a2(report, a2[:-1] + [fake]), xs, eta)
    assert checks.check_axiom_report(_with_a2(report, a2[:-1]), xs, eta)
    assert checks.check_axiom_report(_with_a2(report, a2[:-1] + a2[:1]), xs, eta)
    checks_ = dict(report.checks)
    checks_["A1"] = spaces.AxiomCheck("fail", ((p[0], 1.0),))
    assert checks.check_axiom_report(replace(report, checks=checks_), xs, eta)


@pytest.fixture(scope="module")
def ekeland_run():
    rng = np.random.default_rng(5)
    xs = np.round(rng.choice(400, 20, replace=False) * 0.01, 10)
    values = rng.uniform(0.05, 4.0, 20)
    cloud = spaces.PointCloud(tuple((float(x),) for x in xs))
    space = spaces.euclidean_premetric()
    objective = ekeland.Objective.from_table(cloud, values.tolist())
    start = float(xs[int(np.argmax(values))])
    eps = 0.1 * float(values.max())
    trace = ekeland.generate_trace(cloud, space, objective, (start,))
    ver = ekeland.verify_trace(trace, cloud, space, objective, eps)
    _, cert = ekeland.weak_point(cloud, space, objective, (start,))
    vals = {float(x): float(v) for x, v in zip(xs, values)}
    eta = lambda x, u: math.sqrt((x - u) * (x - u))  # noqa: E731
    return trace, ver, cert, vals, eta, start, eps


def test_ekeland_accepted(ekeland_run):
    trace, ver, cert, vals, eta, start, eps = ekeland_run
    assert len(trace) >= 2
    assert checks.check_trace(trace, ver, vals, eta, eps) == []
    assert checks.check_certificate(cert, start, vals, eta, 0.0) == []


def test_ekeland_rejects_planted_trace_and_point(ekeland_run):
    trace, ver, cert, vals, eta, start, eps = ekeland_run
    assert checks.check_trace(replace(trace, points=trace.points[::-1]), ver, vals, eta, eps)
    assert checks.check_trace(trace, replace(ver, stationary_index=None), vals, eta, eps)
    assert checks.check_certificate(replace(cert, point=(start,)), start, vals, eta, 0.0)


# --- linear -------------------------------------------------------------------


def test_svd_accepted_and_planted_rejected():
    a = np.random.default_rng(1).standard_normal((5, 5))
    m = linear.DenseMatrix.from_rows(a.tolist())
    rep, norm = linear.sur_modulus(m), linear.opnorm(m)
    assert checks.check_svd(rep, norm, a) == []
    wrong = replace(rep, estimate=1.01 * rep.estimate, lower=1.01 * rep.lower,
                    upper=as_ext(1.01 * rep.lower))
    assert checks.check_svd(wrong, norm, a)
    assert checks.check_svd(rep, 1.01 * norm, a)


def test_exact_rate_closed_forms():
    a = np.array([[0.0, -3.0], [2.0, 0.0]])
    for kind in ("sup", "one"):
        assert checks.exact_sur(a, kind) == 2.0
        assert checks.exact_opnorm(a, kind) == 3.0
    # Sup norms: min of |A^T v|_1 on the l1 sphere sits at the kink
    # v = (0.75, 0.25), where A^T v = (0.825, 0), below both vertex values.
    assert abs(checks.exact_sur(np.array([[1.0, 0.4], [0.3, -1.2]]), "sup") - 0.825) < 1e-15


@pytest.mark.parametrize("kind", ["sup", "one"])
def test_mesh_accepted_and_planted_rejected(kind):
    a = np.array([[0.0, -3.0], [2.0, 0.0]])
    m = linear.DenseMatrix.from_rows(a.tolist())
    norm = linear.NormSpec(kind, 2)
    rep = linear.sur_modulus(m, norm, norm, method="grid")
    assert checks.check_mesh_bracket(rep, a, kind) == []
    width = float(rep.upper) - rep.lower
    shifted = replace(rep, lower=rep.lower + width, upper=as_ext(float(rep.upper) + width))
    assert checks.check_mesh_bracket(shifted, a, kind)
    value = linear.opnorm(m, norm, norm)
    assert checks.check_mesh_opnorm(value, a, kind) == []
    assert checks.check_mesh_opnorm(value + 1e-6, a, kind)

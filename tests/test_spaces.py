"""Quasi-premetric spaces: axiom audits, gauges, induced premetrics, balls."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostreg.expressions import compile_expression
from almostreg.regularity import EUCLIDEAN, Metric, graph_max_metric
from almostreg.spaces import (
    DirectionSet,
    PartialMetric,
    PartialMetricError,
    PointCloud,
    QuasiPremetric,
    check_axioms,
    directional_gauge,
    directional_time,
    euclidean_premetric,
    induce_from_partial,
    premetric_ball,
)


def brute_triangle_violations(space, cloud):
    """Independent exhaustive triangle scan, finite right sides only."""
    pts = cloud.points
    out = []
    for i in pts:
        for k in pts:
            for j in pts:
                rhs = float(space(i, k)) + float(space(k, j))
                if math.isinf(rhs):
                    continue
                if float(space(i, j)) > rhs + 1e-12 * max(1.0, abs(rhs)):
                    out.append((i, k, j))
    return out


def table_premetric(points, table, claims=()):
    """Premetric from an explicit ordered-pair table (test scaffolding)."""
    lookup = {(a, b): v for (a, b), v in table.items()}
    return QuasiPremetric(fn=lambda x, u: lookup[(x, u)],
                          axioms_claimed=frozenset(claims), name="table")


def test_point_cloud_grid_and_lookup():
    cloud = PointCloud.from_grid(0.0, 1.0, 0.25)
    assert len(cloud) == 5
    assert cloud.dimension == 1
    assert cloud.points[0] == (0.0,)
    assert cloud.points[-1] == (1.0,)
    assert cloud.index_of(0.5) == 2
    with pytest.raises(KeyError):
        cloud.index_of(0.3)


def test_point_cloud_index_of_tolerates_grid_roundoff():
    cloud = PointCloud.from_grid(-1.0, 1.0, 0.02)
    assert cloud.points[65] == (0.30000000000000004,)  # stored as built
    assert cloud.index_of(0.3) == 65
    assert [cloud.index_of(round(-1.0 + 0.02 * k, 10)) for k in range(101)] == list(range(101))
    with pytest.raises(KeyError, match="not in cloud"):
        cloud.index_of(0.31)
    close = PointCloud.from_points([0.0, 1e-12])
    assert close.index_of(1e-12) == 1  # an exact hit wins
    with pytest.raises(KeyError, match="matches 2"):
        close.index_of(5e-13)


def test_point_cloud_validation():
    with pytest.raises(ValueError, match="nonempty"):
        PointCloud(())
    with pytest.raises(ValueError, match="mixed point dimensions"):
        PointCloud(((0.0,), (0.0, 1.0)))
    with pytest.raises(ValueError, match="grid step"):
        PointCloud.from_grid(0.0, 1.0, -0.1)


def test_euclidean_axioms_all_pass():
    cloud = PointCloud.from_grid(-1.0, 1.0, 0.5)
    report = check_axioms(euclidean_premetric(), cloud)
    assert report.checks["A1"].status == "pass"
    assert report.checks["A2"].status == "pass"
    assert report.checks["A3"].status == "pass"
    assert report.checks["A4"].status == "not-assessed"
    assert report.claimed_ok


def test_squared_distance_fails_triangle_matching_oracle():
    cloud = PointCloud(((0.0,), (0.5,), (1.0,)))
    sq = QuasiPremetric(fn=lambda x, u: (x[0] - u[0]) ** 2,
                        axioms_claimed=frozenset({"A1", "A2", "A3"}))
    report = check_axioms(sq, cloud)
    assert report.checks["A2"].status == "fail"
    assert not report.claimed_ok
    oracle = brute_triangle_violations(sq, cloud)
    assert len(report.checks["A2"].violations) == len(oracle) == 2


def test_unclaimed_failure_keeps_claimed_ok():
    cloud = PointCloud(((0.0,), (0.5,), (1.0,)))
    sq = QuasiPremetric(fn=lambda x, u: (x[0] - u[0]) ** 2,
                        axioms_claimed=frozenset({"A1", "A3"}))
    report = check_axioms(sq, cloud)
    assert report.checks["A2"].status == "fail"
    assert report.claimed_ok  # the failing axiom was never claimed


def test_premetric_rejects_invalid_outputs():
    bad = QuasiPremetric(fn=lambda x, u: -1.0)
    with pytest.raises(ValueError, match="invalid value"):
        bad((0.0,), (1.0,))
    with pytest.raises(ValueError, match="unknown axioms"):
        QuasiPremetric(fn=lambda x, u: 0.0, axioms_claimed=frozenset({"A9"}))
    with pytest.raises(ValueError, match="dimension mismatch"):
        euclidean_premetric()((0.0,), (0.0, 1.0))


def _builtin_premetrics(a: np.ndarray, b: np.ndarray) -> dict:
    """One of each premetric the package builds, for clouds a and b."""
    dim = a.shape[1]
    cloud = PointCloud(tuple(map(tuple, np.concatenate([a, b]).tolist())))
    expr = compile_expression("abs(x - u) + 0.5 * abs(u - x) * (u - x)", ("x", "u"))
    three = Metric("3|.|", lambda p, q: 3.0 * np.abs(p[:, None, :] - q[None, :, :]).sum(-1))
    return {
        "euclidean": euclidean_premetric(),
        "scaled": euclidean_premetric().scaled(2.5),
        "conjugate": euclidean_premetric().conjugate(),
        "directional": directional_gauge(DirectionSet.normalized([(1.0,) * dim])),
        "directional.conjugate": directional_gauge(
            DirectionSet.normalized([(1.0,) * dim])).conjugate(),
        "induced": induce_from_partial(
            PartialMetric(lambda x, u: max(x[0], u[0]), name="max"), cloud),
        "expression": QuasiPremetric(lambda x, u: abs(expr(x[0], u[0])), name="expr"),
        "graph_max": graph_max_metric(max(dim - 1, 1), 0.7, EUCLIDEAN, three),
        "metric": three,
        "metric.scaled.conjugate": three.scaled(0.3).conjugate(),
    }


@pytest.mark.parametrize("dim", [1, 2])
def test_pairwise_matches_calls_bit_for_bit(dim):
    # Each premetric is defined in one form and derives the other, so a
    # table entry and the call on the same two points are the same float.
    rng = np.random.default_rng(7)
    a = np.round(rng.uniform(-2.0, 2.0, (23, dim)), 3)
    b = np.concatenate([a[:5], rng.uniform(-2.0, 2.0, (14, dim))])
    for name, space in _builtin_premetrics(a, b).items():
        table = space.pairwise(a, b)
        assert table.shape == (len(a), len(b)), name
        expected = [[float(space(p, q)) for q in b.tolist()] for p in a.tolist()]
        assert table.tolist() == expected, name


def test_premetric_forms_and_pairwise_validation():
    table_form = Metric("abs", lambda p, q: np.abs(p[:, None, 0] - q[None, :, 0]))
    scalar_form = QuasiPremetric(fn=lambda x, u: abs(x[0] - u[0]))
    for space in (table_form, scalar_form):
        for derived in (space.scaled(2.0), space.conjugate()):
            assert (derived.fn is None) == (space.fn is None)
            assert (derived.table is None) == (space.table is None)
    with pytest.raises(ValueError, match="exactly one of fn and table"):
        QuasiPremetric()
    with pytest.raises(ValueError, match="exactly one of fn and table"):
        QuasiPremetric(fn=lambda x, u: 0.0, table=lambda p, q: np.zeros((len(p), len(q))))
    pts = np.array([[0.0], [1.0], [2.0]])
    for value in (-1.0, math.nan):
        for space in (QuasiPremetric(fn=lambda x, u, v=value: v if u[0] > 1.5 else 0.0),
                      Metric("bad", lambda p, q, v=value: np.where(q[None, :, 0] > 1.5, v,
                                                                   0.0 * p[:, None, 0]))):
            message = f"premetric produced invalid value {value} at ((0.0,), (2.0,))"
            with pytest.raises(ValueError) as call_error:
                space((0.0,), (2.0,))
            with pytest.raises(ValueError) as table_error:
                space.pairwise(pts, pts)
            assert str(call_error.value) == str(table_error.value) == message
    with pytest.raises(ValueError, match="dimension mismatch"):
        EUCLIDEAN.pairwise(pts, np.zeros((2, 2)))


def test_conjugate_swaps_arguments_and_drops_completeness_claim():
    ds = DirectionSet.normalized([(1.0,)])
    gauge = directional_gauge(ds)
    conj = gauge.conjugate()
    assert float(gauge(0.0, 0.5)) == 0.5
    assert float(gauge(0.5, 0.0)) == math.inf
    assert float(conj(0.5, 0.0)) == 0.5
    assert float(conj(0.0, 0.5)) == math.inf
    assert "A4" not in conj.axioms_claimed
    base = euclidean_premetric()
    assert "A4" in base.axioms_claimed
    assert "A4" not in base.conjugate().axioms_claimed


def test_scaled_premetric():
    base = euclidean_premetric()
    doubled = base.scaled(2.0)
    assert float(doubled(0.0, 1.0)) == 2.0
    assert doubled.axioms_claimed == base.axioms_claimed
    with pytest.raises(ValueError):
        base.scaled(0.0)
    with pytest.raises(ValueError):
        base.scaled(math.inf)


def test_directional_time_values():
    ds = DirectionSet.normalized([(1.0, 0.0)])
    assert float(directional_time(ds, (0.0, 0.0), (0.0, 0.0))) == 0.0
    assert float(directional_time(ds, (0.0, 0.0), (0.7, 0.0))) == 0.7
    assert float(directional_time(ds, (0.7, 0.0), (0.0, 0.0))) == math.inf
    assert float(directional_time(ds, (0.0, 0.0), (0.0, 0.3))) == math.inf
    both = DirectionSet.normalized([(1.0, 0.0), (-1.0, 0.0)])
    assert float(directional_time(both, (0.7, 0.0), (0.0, 0.0))) == 0.7


def test_direction_set_validation():
    with pytest.raises(ValueError, match="not unit"):
        DirectionSet(((0.5, 0.0),))
    with pytest.raises(ValueError, match="zero vector"):
        DirectionSet.normalized([(0.0, 0.0)])
    neg = DirectionSet.normalized([(3.0, 4.0)]).negated()
    assert neg.directions[0] == (-0.6, -0.8)


def test_directional_gauge_axioms_on_line():
    ds = DirectionSet.normalized([(1.0,)])
    gauge = directional_gauge(ds)
    cloud = PointCloud.from_grid(0.0, 1.0, 0.25)
    report = check_axioms(gauge, cloud)
    assert report.checks["A1"].status == "pass"
    assert report.checks["A2"].status == "pass"
    assert report.checks["A3"].status == "pass"
    assert report.claimed_ok
    assert brute_triangle_violations(gauge, cloud) == []


def test_induced_partial_max_premetric():
    cloud = PointCloud.from_grid(0.0, 1.0, 0.25)
    zeta = PartialMetric(lambda x, u: max(x[0], u[0]), name="max")
    eta = induce_from_partial(zeta, cloud)
    # eta(x, u) = max(x, u) - x: 0 when moving down, gap when moving up.
    assert float(eta(0.25, 0.75)) == 0.5
    assert float(eta(0.75, 0.25)) == 0.0
    assert float(eta(0.5, 0.5)) == 0.0
    report = check_axioms(eta, cloud)
    assert report.claimed_ok
    assert report.checks["A2"].status == "pass"


def test_induced_partial_rejects_bad_self_distance():
    cloud = PointCloud.from_grid(0.0, 1.0, 0.5)
    zeta = PartialMetric(lambda x, u: min(x[0], u[0]), name="min")
    with pytest.raises(PartialMetricError, match="self-distance"):
        induce_from_partial(zeta, cloud)


def test_completeness_probe_pass_on_settling_sequence():
    cloud = PointCloud.from_grid(0.0, 1.0, 0.25)
    report = check_axioms(euclidean_premetric(), cloud,
                          sequences=[(0, 1, 2, 2, 2, 2)])
    assert report.checks["A4"].status == "pass"
    seq = report.sequence_results[0]
    assert seq.premise_met and seq.limit_found
    assert seq.limit_point == (0.5,)


def test_completeness_probe_not_assessed_on_wandering_sequence():
    cloud = PointCloud.from_grid(0.0, 1.0, 0.25)
    report = check_axioms(euclidean_premetric(), cloud,
                          sequences=[(0, 4, 0, 4)])
    assert report.checks["A4"].status == "not-assessed"
    assert not report.sequence_results[0].premise_met


def test_completeness_probe_fail_when_no_limit_candidate():
    # Tail (a, b) is Cauchy via the single later-to-earlier value, yet no
    # cloud point sits within tolerance of both tail elements: b has a large
    # self-distance and a cannot reach b.
    pts = ((0.0,), (1.0,))
    a, b = pts
    table = {(a, a): 0.0, (b, b): 5.0, (b, a): 1e-9, (a, b): 5.0}
    space = table_premetric(pts, table, claims=("A4",))
    cloud = PointCloud(pts)
    report = check_axioms(space, cloud, sequences=[(0, 1)])
    assert report.checks["A4"].status == "fail"
    assert not report.claimed_ok
    seq = report.sequence_results[0]
    assert seq.premise_met and not seq.limit_found


def test_ball_strict_versus_closed():
    cloud = PointCloud.from_grid(0.0, 1.0, 0.25)
    space = euclidean_premetric()
    strict = premetric_ball(space, cloud, 0.5, 0.25)
    closed = premetric_ball(space, cloud, 0.5, 0.25, closed=True)
    assert strict == ((0.5,),)
    assert closed == ((0.25,), (0.5,), (0.75,))
    assert premetric_ball(space, cloud, 0.5, 0.0) == ()
    assert premetric_ball(space, cloud, 0.5, 0.0, closed=True) == ((0.5,),)
    assert premetric_ball(space, cloud, 0.5, math.inf) == cloud.points


def test_ball_respects_asymmetry():
    ds = DirectionSet.normalized([(1.0,)])
    gauge = directional_gauge(ds)
    cloud = PointCloud.from_grid(0.0, 1.0, 0.25)
    fwd = premetric_ball(gauge, cloud, 0.5, 0.3)
    assert fwd == ((0.5,), (0.75,))  # only forward points are reachable


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0,
                          allow_nan=False), min_size=2, max_size=6,
                unique=True))
def test_euclidean_triangle_oracle_agreement(xs):
    cloud = PointCloud.from_points(xs)
    report = check_axioms(euclidean_premetric(), cloud)
    assert report.checks["A2"].status == "pass"
    assert brute_triangle_violations(euclidean_premetric(), cloud) == []


@settings(max_examples=30)
@given(st.lists(st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
                min_size=2, max_size=5, unique=True))
def test_induced_partial_always_sound_for_max(xs):
    cloud = PointCloud.from_points(xs)
    eta = induce_from_partial(PartialMetric(lambda x, u: max(x[0], u[0])), cloud)
    report = check_axioms(eta, cloud)
    assert report.claimed_ok
    assert brute_triangle_violations(eta, cloud) == []

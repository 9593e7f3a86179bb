"""Quasi-premetric spaces: axiom audits, gauges, induced premetrics, balls."""
from __future__ import annotations

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from almostreg import spaces
from almostreg.expressions import compile_expression
from almostreg.regularity import EUCLIDEAN, Metric, graph_max_metric
from almostreg.spaces import (
    A2,
    AxiomCheck,
    DirectionSet,
    PartialMetric,
    PartialMetricError,
    PointCloud,
    QuasiPremetric,
    TriangleWitnesses,
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


def test_point_cloud_index_of_resolves_roundoff_to_a_duplicated_point():
    # A point held twice is one match: round-off resolves to its first copy.
    cloud = PointCloud(((0.0,), (0.30000000000000004,), (1.0,), (0.30000000000000004,)))
    assert cloud.index_of((0.3,)) == 1
    assert cloud.index_of((0.30000000000000004,)) == 1
    # Two distinct points near the target still make it ambiguous.
    near_two = PointCloud(((0.0,), (1e-12,), (1e-12,), (1.0,)))
    with pytest.raises(KeyError, match="matches 2"):
        near_two.index_of(5e-13)


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
    assert DirectionSet.normalized([(-3.0, -4.0)]).directions[0] == (-0.6, -0.8)


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


def test_induced_partial_names_first_corrected_triangle_witness():
    # Self-distances max(x, x) = x are nonzero, so the corrected right side
    # zeta(x, y) + zeta(y, u) - zeta(y, y) subtracts a real diagonal entry.
    cloud = PointCloud.from_grid(0.0, 1.0, 0.125)
    fn = lambda x, u: max(x[0], u[0]) + 2.0 * (x[0] - u[0]) ** 2  # noqa: E731
    pts = cloud.points
    z = [[fn(p, q) for q in pts] for p in pts]
    expected = next(
        f"corrected triangle fails at ({pts[i]}, {pts[k]}, {pts[j]}): {z[i][j]} > {rhs}"
        for i in range(len(pts)) for k in range(len(pts)) for j in range(len(pts))
        for rhs in [z[i][k] + z[k][j] - z[k][k]]
        if z[i][j] > rhs + 1e-12 * max(1.0, abs(rhs))
    )
    with pytest.raises(PartialMetricError) as err:
        induce_from_partial(PartialMetric(fn, name="bowl"), cloud)
    assert str(err.value) == expected


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


def _oracle_length(v):
    total = 0.0
    for c in v:
        total += c * c
    return math.sqrt(total)


def _oracle_cone_time(directions, x, u):
    """The scalar cone-time formula, point pair by point pair: the
    displacement u - x, its length, the unit vector, and a hit on the first
    direction within 1e-9 of it."""
    delta = [b - a for a, b in zip(x, u)]
    norm = _oracle_length(delta)
    if norm == 0.0:
        return 0.0
    unit = [c / norm for c in delta]
    for d in directions:
        if _oracle_length([a - b for a, b in zip(unit, d)]) <= 1e-9:
            return norm
    return math.inf


def _perpendicular(d):
    """A unit vector orthogonal to the unit vector d (len(d) >= 2)."""
    axis = np.zeros(len(d))
    axis[int(np.argmin(np.abs(d)))] = 1.0
    e = axis - np.dot(axis, d) * d
    return e / np.linalg.norm(e)


@pytest.mark.parametrize("vectors", [
    [(1.0,)],
    [(1.0,), (-1.0,)],
    [(3.0, 4.0)],
    [(1.0, 0.0), (0.0, 1.0)],  # two rays at a right angle: a non-convex cone
    [(0.6, 0.8), (-0.8, 0.6), (0.0, -1.0)],
    [(0.0, 0.0, 1.0)],
    [(1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.0, -3.0, 4.0)],
])
def test_directional_gauge_table_matches_scalar_oracle(vectors):
    ds = DirectionSet.normalized(vectors)
    dim = len(vectors[0])
    rng = np.random.default_rng(len(vectors) * 10 + dim)
    # Rounded and full-precision points, the latter so that the order of
    # float operations shows in the entries on the cone; then duplicates.
    a = np.concatenate([np.round(rng.uniform(-2.0, 2.0, (9, dim)), 2),
                        rng.uniform(-2.0, 2.0, (6, dim))])
    a = np.concatenate([a, a[:3]])
    rows = [a, np.round(rng.uniform(-2.0, 2.0, (6, dim)), 2)]
    near = []
    for d in ds.directions:
        d = np.asarray(d)
        steps = np.array([[0.5], [1.3], [0.01], [3.0]])
        rows += [a[:4] + steps * d, a[9:13] + steps * d]
        if dim > 1:
            # Unit vectors about 0.99e-9 and 1.01e-9 away from d.
            e = _perpendicular(d)
            for eps in (0.99e-9, 1.01e-9):
                near.append((a[0], a[0] + 0.7 * (d + eps * e), eps < 1e-9))
    b = np.concatenate(rows + [np.array([q for _, q, _ in near]).reshape(-1, dim)])
    gauge = directional_gauge(ds)
    for p, q in ((np.concatenate([a, b]), b), (b, a)):
        expected = [[_oracle_cone_time(ds.directions, x, u) for u in q.tolist()]
                    for x in p.tolist()]
        assert gauge.pairwise(p, q).tolist() == expected
    # The cloud exercises zero displacements, hits and misses, and both
    # sides of the collinearity tolerance.
    table = gauge.pairwise(a, b)
    assert (table == 0.0).any() and (np.isfinite(table) & (table > 0.0)).any()
    if vectors != [(1.0,), (-1.0,)]:  # both rays of the line reach every point
        assert np.isinf(table).any()
    for x, u, inside in near:
        assert math.isfinite(_oracle_cone_time(ds.directions, x.tolist(), u.tolist())) == inside
        assert math.isfinite(float(directional_time(ds, x, u))) == inside


def test_directional_gauge_checks_direction_dimension():
    ds = DirectionSet.normalized([(0.6, 0.8)])
    gauge = directional_gauge(ds)
    line = np.array([[0.0], [0.6], [1.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        gauge.pairwise(line, line)
    with pytest.raises(ValueError, match="dimension mismatch"):
        gauge((0.0,), (0.6,))
    with pytest.raises(ValueError, match="dimension mismatch"):
        directional_time(ds, (0.0,), (0.6,))
    with pytest.raises(ValueError, match="dimension mismatch"):
        check_axioms(gauge, PointCloud.from_grid(0.0, 1.0, 0.25))
    assert float(gauge((0.0, 0.0), (0.6, 0.8))) == 1.0


@pytest.mark.parametrize("vectors, claims_a2", [
    ([(1.0, 0.0)], True),
    ([(1.0, 0.0), (-1.0, 0.0)], True),
    ([(0.6, 0.8), (-0.6, -0.8), (0.6, 0.8)], True),
    ([(1.0, 0.0), (0.0, 1.0)], False),
    ([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)], False),
])
def test_directional_gauge_claims_triangle_only_on_a_line(vectors, claims_a2):
    ds = DirectionSet.normalized(vectors)
    gauge = directional_gauge(ds)
    assert (A2 in gauge.axioms_claimed) == claims_a2
    # The unit square plus points on the first direction's line.
    d = np.asarray(ds.directions[0])
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    pts += [tuple((t * d).tolist()) for t in (-1.5, -0.5, 2.0)]
    report = check_axioms(gauge, PointCloud(tuple(pts)))
    assert report.claimed_ok
    assert (report.checks[A2].status == "pass") == claims_a2


def _squared(x, u):
    return sum((a - b) * (a - b) for a, b in zip(x, u))


def _asymmetric(x, u):
    # Squared going up a coordinate, half the gap going down: asymmetric,
    # and it breaks the triangle inequality.
    return sum((b - a) * (b - a) if b >= a else 0.5 * (a - b) for a, b in zip(x, u))


def _oracle_triangle_witnesses(space, cloud):
    """The A2 witness tuples as the former tuple-building loop listed them,
    by a pure-Python triple loop over the premetric table."""
    pts = cloud.points
    coords = np.asarray(pts, dtype=float)
    eta = space.pairwise(coords, coords).tolist()
    out = []
    for i in range(len(pts)):
        for k in range(len(pts)):
            for j in range(len(pts)):
                rhs = eta[i][k] + eta[k][j]
                if eta[i][j] > rhs + 1e-12 * max(1.0, abs(rhs)):
                    out.append((pts[i], pts[k], pts[j], eta[i][j], rhs))
    return tuple(out)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("fn", [_squared, _asymmetric])
def test_triangle_witnesses_read_as_the_tuple_oracle(monkeypatch, dim, fn):
    # Iteration builds witnesses 7 at a time, so it crosses chunk borders.
    monkeypatch.setattr(spaces, "_WITNESS_CHUNK", 7)
    rng = np.random.default_rng(dim)
    cloud = PointCloud(tuple(map(tuple, np.round(rng.uniform(-1.0, 1.0, (9, dim)), 2).tolist())))
    space = QuasiPremetric(fn=fn, axioms_claimed=frozenset({A2}))
    check = check_axioms(space, cloud).checks[A2]
    expected = _oracle_triangle_witnesses(space, cloud)
    witnesses = check.violations
    n = len(expected)
    assert isinstance(witnesses, TriangleWitnesses) and n > 20
    assert len(witnesses) == n and check.status == "fail"
    assert list(witnesses) == list(expected)
    for pos in range(-n, n):
        assert witnesses[pos] == expected[pos]
    for pos in (n, n + 3, -n - 1):
        with pytest.raises(IndexError):
            witnesses[pos]
    for sel in (slice(None), slice(None, None, 3), slice(2, -3, 2), slice(None, None, -1),
                slice(n - 2, 1, -4), slice(-5, None), slice(n + 5, None), slice(4, 4)):
        got = witnesses[sel]
        assert type(got) is tuple and got == expected[sel]
    assert witnesses == expected and expected == witnesses
    assert witnesses != expected[:-1] and witnesses != expected[1:] + expected[:1]
    assert hash(witnesses) == hash(expected)
    assert repr(witnesses) == repr(expected)
    assert check == AxiomCheck("fail", expected) and hash(check) == hash(AxiomCheck("fail", expected))
    assert repr(check) == repr(AxiomCheck("fail", expected))
    copy = pickle.loads(pickle.dumps(witnesses))
    assert type(copy) is TriangleWitnesses and copy == expected and repr(copy) == repr(expected)


def test_triangle_witness_memory_is_compact():
    # The squared premetric on 101 grid points breaks the triangle
    # inequality on every triple in strictly monotone order, 333,300 in all.
    # Witness tuples held in full took 123 bytes each at the peak.
    squared = QuasiPremetric(fn=_squared, axioms_claimed=frozenset({A2}))
    cloud = PointCloud.from_grid(0.0, 1.0, 0.01)
    tracemalloc.start()
    try:
        report = check_axioms(squared, cloud)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = len(report.checks[A2].violations)
    assert count == 101 * 100 * 99 // 3
    assert peak <= 80 * count, peak / count


def _unscreened_scan(m, diag=None):
    """The triangle scan before the row screen, every row tested cell by
    cell: the reference for the screened scan."""
    n = len(m)
    rhs, bound = np.empty((n, n)), np.empty((n, n))
    bad = np.empty((n, n), dtype=bool)
    for i in range(n):
        with np.errstate(invalid="ignore"):
            np.add(m[i][:, None], m, out=rhs)
            if diag is not None:
                np.subtract(rhs, diag[:, None], out=rhs)
            np.abs(rhs, out=bound)
            np.maximum(bound, 1.0, out=bound)
            np.multiply(bound, 1e-12, out=bound)
            np.add(rhs, bound, out=bound)
            np.greater(m[i][None, :], bound, out=bad)
        kj = np.flatnonzero(bad)
        if kj.size:
            yield i, kj


def _slack_edge(r):
    return r + max(abs(r), 1.0) * 1e-12


# Table entries: a few values with their neighbours one ulp apart, +inf, and
# the slack bound of some right sides they sum to, with the float above it.
_SCAN_VALUES = sorted(
    {v for r in (0.0, 0.5, 1.0, 2.0, 3.0, -1.0, -2.5)
     for v in (r, math.nextafter(r, -math.inf), math.nextafter(r, math.inf))}
    | {v for r in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
       for v in (_slack_edge(r), math.nextafter(_slack_edge(r), math.inf))}
    | {math.inf})


@st.composite
def _scan_tables(draw):
    n = draw(st.integers(1, 6))
    values = st.sampled_from(_SCAN_VALUES)
    m = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    diag = draw(st.none() | st.lists(values, min_size=n, max_size=n).map(np.array))
    return m, diag


_ABOVE_EDGE = math.nextafter(_slack_edge(2.0), math.inf)
_NAN, _INF = math.nan, math.inf


@settings(max_examples=300)
@given(_scan_tables())
# One cell one ulp above the slack bound of its column's least right side,
# 2.0, in a row that is otherwise clean.
@example((np.array([[0.0, 1.0, _ABOVE_EDGE], [1.0, 0.0, 1.0], [_ABOVE_EDGE, 1.0, 0.0]]), None))
# A -inf right side (its slack bound is nan) next to a violating one in the
# same column, with and without a diagonal.
@example((np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 1.0], [0.0, 0.0, -_INF]]), None))
@example((np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
          np.array([0.0, 0.0, _INF])))
# An all-nan column: each row's own entry there is nan too, so every column
# holds a nan right side, next to a violating one in the last column.
@example((np.array([[0.0, _NAN, 1.0, 4.0], [1.0, _NAN, 0.0, 1.0],
                    [1.0, _NAN, 0.0, 1.0], [4.0, _NAN, 1.0, 0.0]]), None))
@example((np.array([[0.0, _NAN, 1.0, 4.0], [1.0, _NAN, 0.0, 1.0],
                    [1.0, _NAN, 0.0, 1.0], [4.0, _NAN, 1.0, 0.0]]),
          np.array([0.5, 0.0, 0.0, 0.0])))
def test_screened_triangle_scan_matches_unscreened_oracle(case):
    m, diag = case
    got = [(i, kj.tolist()) for i, kj in spaces._triangle_scan(m, diag)]
    assert got == [(i, kj.tolist()) for i, kj in _unscreened_scan(m, diag)]


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=1, max_size=8))
def test_induced_table_calls_zeta_once_per_pair(xs):
    # zeta(x, x) = x + 0.3 > 0, so eta = zeta(x, u) - zeta(x, x) rounds.
    calls = []

    def zeta(x, u):
        calls.append((x, u))
        return max(x[0], u[0]) + 0.3

    cloud = PointCloud.from_points(xs)
    eta = induce_from_partial(PartialMetric(zeta, name="shifted max"), cloud)
    # One point more than the cloud, so the table is computed, not read from
    # the validated one (test_induced_table_reuses_validated_values).
    coords = np.vstack([np.asarray(cloud.points), [[7.5]]])
    calls.clear()
    table = eta.pairwise(coords, coords)
    n = len(xs) + 1
    assert len(calls) == n * n + n
    pts = [tuple(p) for p in coords.tolist()]
    assert table.tolist() == [[zeta(p, q) - zeta(p, p) for q in pts] for p in pts]
    assert table.tolist() == [[float(eta(p, q)) for q in pts] for p in pts]


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=1, max_size=8))
def test_induced_table_reuses_validated_values(xs):
    # Induce plus check_axioms on the same cloud calls zeta n**2 times (the
    # validation's), and the report equals the one from eta's defining table.
    calls = []

    def zeta(x, u):
        calls.append((x, u))
        return max(x[0], u[0]) + 0.3 * (x[0] < 0.0)

    def defining(a, b):
        own = np.array([[zeta(p, p)] for p in map(tuple, a.tolist())])
        return np.array([[zeta(p, q) for q in map(tuple, b.tolist())]
                         for p in map(tuple, a.tolist())]).reshape(len(a), len(b)) - own

    cloud = PointCloud.from_points(xs)
    n = len(cloud)
    sequences = [list(range(n)), list(range(n))[::-1]]
    eta = induce_from_partial(PartialMetric(zeta, name="shifted max"), cloud)
    report = check_axioms(eta, cloud, sequences)
    assert len(calls) == n * n
    oracle = QuasiPremetric(table=defining, axioms_claimed=eta.axioms_claimed, name=eta.name)
    want = check_axioms(oracle, cloud, sequences)
    assert report.claimed == want.claimed
    assert report.sequence_results == want.sequence_results
    assert {a: (c.status, repr(tuple(c.violations))) for a, c in report.checks.items()} == {
        a: (c.status, repr(tuple(c.violations))) for a, c in want.checks.items()}
    coords = np.asarray(cloud.points)
    assert eta.pairwise(coords, coords).tolist() == oracle.pairwise(coords, coords).tolist()


def test_axiom_a3_violations_match_generator_oracle():
    # Distinct points at premetric 0, with -0.0 entries; the duplicate point
    # (0.5,) at indices 1 and 4 is no violation against itself.
    def fn(x, u):
        if u[0] > x[0]:
            return u[0] - x[0]
        return 0.0 if u[0] == x[0] else -0.0

    pts = ((0.0,), (0.5,), (2.0,), (1.25,), (0.5,), (3.0,))
    space = QuasiPremetric(fn=fn)
    cloud = PointCloud(pts)
    table = space.pairwise(np.asarray(pts), np.asarray(pts))
    zero = table == 0.0
    expected = tuple((pts[i], pts[j], value)
                     for (i, j), value in zip(np.argwhere(zero).tolist(), table[zero].tolist())
                     if i != j and pts[i] != pts[j])
    check = check_axioms(space, cloud).checks["A3"]
    assert check.status == "fail" and len(expected) == 14
    assert check.violations == expected and repr(check.violations) == repr(expected)

"""Descent traces and variational selection on finite clouds.

The oracle re-derives traces directly from the construction rule with
independent plain-python code; frozen fixtures are hand-computed.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostreg.ekeland import (
    ALPHA_INFINITE,
    BUDGET_EXHAUSTED,
    EkelandTrace,
    Objective,
    approx_point,
    generate_trace,
    two_constant_point,
    verify_trace,
    weak_point,
)
from almostreg.extreal import INF, as_ext
from almostreg.spaces import (
    DirectionSet,
    PointCloud,
    QuasiPremetric,
    directional_gauge,
    euclidean_premetric,
)


def oracle_trace(cloud, space, objective, start):
    """Re-derivation of the construction: returns (points, infima list)."""
    pts = list(cloud.points)
    val = {p: float(objective(p)) for p in pts}
    cur = pts[cloud.index_of(start)]
    chain = [cur]
    infima = []
    while True:
        cands = [p for p in pts if val[p] + float(space(p, cur)) < val[cur]]
        if not cands:
            infima.append(math.inf)
            return chain, infima
        alpha = min(val[p] for p in cands)
        infima.append(alpha)
        cur = next(p for p in cands if val[p] == alpha)
        chain.append(cur)


THREE = PointCloud(((0.0,), (0.5,), (1.0,)))
THREE_OBJ = Objective.from_table(THREE, [1.0, 0.1, 2.0])
EUCLID = euclidean_premetric()


def test_three_point_trace_frozen():
    trace = generate_trace(THREE, EUCLID, THREE_OBJ, 0.0)
    assert trace.points == ((0.0,), (0.5,))
    assert trace.values == (1.0, 0.1)
    assert trace.step_infima == (0.1, INF)
    assert trace.slack == (1.0,)
    assert trace.termination == ALPHA_INFINITE
    assert len(trace) == 2


def test_three_point_trace_matches_oracle():
    trace = generate_trace(THREE, EUCLID, THREE_OBJ, 0.0)
    chain, infima = oracle_trace(THREE, EUCLID, THREE_OBJ, 0.0)
    assert trace.points == tuple(chain)
    assert [float(v) for v in trace.step_infima] == infima


def test_three_point_verification_frozen():
    trace = generate_trace(THREE, EUCLID, THREE_OBJ, 0.0)
    ver = verify_trace(trace, THREE, EUCLID, THREE_OBJ, 0.05)
    assert ver.chain_ok
    assert ver.chain_violations == ()
    assert ver.point_ok == (False, True)
    assert ver.stationary_index == 2
    loose = verify_trace(trace, THREE, EUCLID, THREE_OBJ, 1.0)
    assert loose.point_ok == (True, True)
    assert loose.stationary_index == 1


def test_chain_law_detects_forged_trace():
    # A forged trace whose jump is not justified by the premetric.
    forged = EkelandTrace(
        points=((0.0,), (1.0,)),
        values=(1.0, 0.5),
        step_infima=(0.5, INF),
        slack=(1.0,),
        termination=ALPHA_INFINITE,
    )
    cloud = PointCloud(((0.0,), (1.0,)))
    obj = Objective.from_table(cloud, [1.0, 0.5])
    ver = verify_trace(forged, cloud, EUCLID, obj, 0.1)
    assert not ver.chain_ok  # 0.5 + 1.0 is not below 1.0
    assert ver.chain_violations == (((1.0,), (0.0,)),)


def test_verify_trace_cutoff_needs_a_strict_margin():
    # From 0.0 (value 2) the trace moves to 0.5 (value 1) and stops. At the
    # first point, u' = 0.5 gives 1.0 + 0.5 = 1.5, exactly value - epsilon
    # = 2.0 - 0.5: not above it, so the cutoff is the second point.
    cloud = PointCloud(((0.0,), (0.5,)))
    obj = Objective.from_table(cloud, [2.0, 1.0])
    trace = generate_trace(cloud, EUCLID, obj, 0.0)
    assert trace.points == ((0.0,), (0.5,))
    ver = verify_trace(trace, cloud, EUCLID, obj, 0.5)
    assert ver.point_ok == (False, True)
    assert ver.stationary_index == 2


def test_trace_validation_guards():
    with pytest.raises(ValueError, match="strictly decreasing"):
        EkelandTrace(points=((0.0,), (1.0,)), values=(1.0, 1.0),
                     step_infima=(1.0, INF), slack=(1.0,),
                     termination=ALPHA_INFINITE)
    with pytest.raises(ValueError, match="infinite final infimum"):
        EkelandTrace(points=((0.0,),), values=(1.0,), step_infima=(as_ext(0.5),),
                     slack=(), termination=ALPHA_INFINITE)
    with pytest.raises(ValueError, match="slack"):
        EkelandTrace(points=((0.0,),), values=(1.0,), step_infima=(INF,),
                     slack=(1.0,), termination=ALPHA_INFINITE)


def test_generate_trace_guards():
    with pytest.raises(ValueError, match="triangle axiom"):
        generate_trace(THREE, QuasiPremetric(fn=lambda x, u: 0.0),
                       THREE_OBJ, 0.0)
    with pytest.raises(KeyError):
        generate_trace(THREE, EUCLID, THREE_OBJ, 0.3)
    zero_start = Objective.from_table(THREE, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="finite positive"):
        generate_trace(THREE, EUCLID, zero_start, 0.0)
    with pytest.raises(ValueError, match="budget"):
        generate_trace(THREE, EUCLID, THREE_OBJ, 0.0, budget=0)


def test_budget_exhaustion_recorded():
    trace = generate_trace(THREE, EUCLID, THREE_OBJ, 0.0, budget=1)
    assert trace.termination == BUDGET_EXHAUSTED
    assert len(trace) == 1
    assert trace.step_infima == (0.1,)  # candidates existed when cut off


def test_directional_premetric_trace():
    # Candidates pay eta(candidate, current), so descent flows down the cone:
    # from 1.0 only points below are admissible under direction (1,).
    gauge = directional_gauge(DirectionSet.normalized([(1.0,)]))
    cloud = PointCloud(((0.0,), (0.5,), (1.0,)))
    obj = Objective.from_table(cloud, [0.1, 0.4, 1.0])
    trace = generate_trace(cloud, gauge, obj, 1.0)
    assert trace.points == ((1.0,), (0.5,))
    assert trace.step_infima == (0.4, INF)
    chain, infima = oracle_trace(cloud, gauge, obj, 1.0)
    assert trace.points == tuple(chain)
    # Started at the cone's bottom the construction stops immediately.
    bottom = generate_trace(cloud, gauge, obj, 0.0)
    assert len(bottom) == 1
    assert bottom.termination == ALPHA_INFINITE


def test_approx_point_frozen():
    cert = approx_point(THREE, EUCLID, THREE_OBJ, 0.0, 0.05)
    assert cert.point == (0.5,)
    assert cert.epsilon == 0.05
    assert cert.descent_ok and cert.stationarity_ok
    assert cert.descent_gap == pytest.approx(0.4)
    assert cert.witness is None


def test_approx_point_guards():
    with pytest.raises(ValueError, match="epsilon"):
        approx_point(THREE, EUCLID, THREE_OBJ, 0.0, -0.1)
    # epsilon must stay below the start value
    with pytest.raises(ValueError, match="need epsilon"):
        approx_point(THREE, EUCLID, THREE_OBJ, 0.0, 1.5)


def test_weak_point_frozen_and_budget_error():
    u, cert = weak_point(THREE, EUCLID, THREE_OBJ, 0.0)
    assert u == (0.5,)
    assert cert.epsilon == 0.0
    assert cert.descent_ok and cert.stationarity_ok
    with pytest.raises(RuntimeError, match="budget"):
        weak_point(THREE, EUCLID, THREE_OBJ, 0.0, budget=1)


def test_two_constant_point_frozen():
    cloud = PointCloud.from_grid(-1.0, 1.0, 0.25)
    obj = Objective(lambda p: p[0] * p[0], name="square")
    res = two_constant_point(cloud, EUCLID, obj, 0.5, delta=0.5, r=1.0)
    assert res.scale == 0.5
    assert res.point == (0.25,)
    assert res.descent_ok and res.stationarity_ok and res.radius_ok
    # The selected point stays within r of the start.
    assert abs(res.point[0] - 0.5) <= 1.0


def test_two_constant_point_guards():
    cloud = PointCloud.from_grid(-1.0, 1.0, 0.25)
    obj = Objective(lambda p: p[0] * p[0])
    with pytest.raises(ValueError, match="delta and r"):
        two_constant_point(cloud, EUCLID, obj, 0.5, delta=0.0, r=1.0)
    with pytest.raises(ValueError, match="exceeds infimum"):
        two_constant_point(cloud, EUCLID, obj, 1.0, delta=0.5, r=1.0)
    with pytest.raises(ValueError, match="strictly above"):
        two_constant_point(cloud, EUCLID, obj, 0.0, delta=0.5, r=1.0)


def test_objective_validation():
    bad = Objective(lambda p: -1.0)
    with pytest.raises(ValueError, match="invalid value"):
        bad(0.0)
    with pytest.raises(ValueError, match="align"):
        Objective.from_table(THREE, [1.0, 2.0])
    table = Objective.from_table(THREE, [1.0, 2.0, 3.0])
    with pytest.raises(KeyError, match="no entry"):
        table((0.3,))


instance = st.builds(
    lambda xs, vals, start: (xs, vals[:len(xs)], start % len(xs)),
    st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
             min_size=2, max_size=8, unique=True),
    st.lists(st.floats(min_value=0.05, max_value=10.0, allow_nan=False),
             min_size=8, max_size=8),
    st.integers(min_value=0, max_value=7),
)


@settings(max_examples=60)
@given(instance)
def test_trace_matches_oracle_and_chain_law(data):
    xs, vals, start_idx = data
    cloud = PointCloud(tuple((float(x),) for x in xs))
    obj = Objective.from_table(cloud, vals)
    start = cloud.points[start_idx]
    trace = generate_trace(cloud, EUCLID, obj, start)
    chain, infima = oracle_trace(cloud, EUCLID, obj, start)
    assert trace.points == tuple(chain)
    assert [float(v) for v in trace.step_infima] == infima
    assert trace.termination == ALPHA_INFINITE
    ver = verify_trace(trace, cloud, EUCLID, obj, 0.5 * vals[start_idx])
    assert ver.chain_ok
    assert ver.stationary_index is not None


@settings(max_examples=60)
@given(instance)
def test_weak_point_is_exactly_stationary(data):
    xs, vals, start_idx = data
    cloud = PointCloud(tuple((float(x),) for x in xs))
    obj = Objective.from_table(cloud, vals)
    u, cert = weak_point(cloud, EUCLID, obj, cloud.points[start_idx])
    assert cert.stationarity_ok
    # Independent exhaustive re-check of zero-tolerance stationarity.
    for i, p in enumerate(cloud.points):
        assert vals[i] + math.dist(p, u) >= vals[cloud.index_of(u)]
    # Descent: reaching u from the start is paid for by the value drop.
    start = cloud.points[start_idx]
    assert vals[cloud.index_of(u)] + math.dist(u, start) <= vals[start_idx]


def test_directional_ekeland_outputs_frozen():
    # Outputs under the directional gauge on a seeded 60-point cloud, frozen
    # as their reprs.
    rng = np.random.default_rng(60)
    xs = (rng.choice(400, size=60, replace=False) * 0.01 - 2.0).tolist()
    values = np.round(rng.uniform(0.05, 4.0, 60), 2).tolist()
    cloud = PointCloud(tuple((x,) for x in xs))
    objective = Objective.from_table(cloud, values)
    gauge = directional_gauge(DirectionSet(((1.0,),)))
    start = (xs[values.index(max(values))],)
    epsilon = 0.1 * max(values)
    delta, r = 1.5 * (max(values) - min(values)), 0.5
    trace = generate_trace(cloud, gauge, objective, start)
    assert repr(trace) == (
        "EkelandTrace(points=((0.22999999999999998,), (-1.58,)), values=(3.92, 0.17), "
        "step_infima=(ExtReal(0.17), ExtReal(inf)), slack=(1.0,), "
        "termination='alpha-infinite')")
    assert repr(verify_trace(trace, cloud, gauge, objective, epsilon)) == (
        "TraceVerification(chain_ok=True, chain_violations=(), stationary_index=2, "
        "point_ok=(False, True))")
    assert repr(approx_point(cloud, gauge, objective, start, epsilon)) == (
        "EkelandCertificate(point=(-1.58,), epsilon=0.392, descent_ok=True, "
        "stationarity_ok=True, descent_gap=1.94, witness=None)")
    assert repr(weak_point(cloud, gauge, objective, start)) == (
        "((-1.58,), EkelandCertificate(point=(-1.58,), epsilon=0.0, descent_ok=True, "
        "stationarity_ok=True, descent_gap=1.94, witness=None))")
    assert repr(two_constant_point(cloud, gauge, objective, start, delta, r)) == (
        "TwoConstantResult(point=(0.06999999999999984,), scale=11.25, descent_ok=True, "
        "stationarity_ok=True, radius_ok=True, certificate=EkelandCertificate("
        "point=(0.06999999999999984,), epsilon=0.0, descent_ok=True, stationarity_ok=True, "
        "descent_gap=1.9399999999999984, witness=None))")


def test_selectors_resolve_start_through_the_cloud():
    # On the 0.1 grid, 0.3 names the stored 0.30000000000000004, as it does
    # for generate_trace. A table objective has no entry for 0.3 itself, so
    # each selector must read the value, the self-distance and the
    # certificate at the stored point, and give the stored point's result.
    cloud = PointCloud.from_grid(0.0, 1.0, 0.1)
    stored = cloud.points[3]
    assert stored == (0.30000000000000004,)
    obj = Objective.from_table(cloud, [abs(k - 7) * 0.2 + 0.05 for k in range(11)])
    assert generate_trace(cloud, EUCLID, obj, (0.3,)).points[0] == stored
    cert = approx_point(cloud, EUCLID, obj, (0.3,), 0.01)
    assert cert == approx_point(cloud, EUCLID, obj, stored, 0.01)
    assert cert.point != stored
    assert weak_point(cloud, EUCLID, obj, (0.3,)) == weak_point(cloud, EUCLID, obj, stored)
    res = two_constant_point(cloud, EUCLID, obj, (0.3,), delta=1.0, r=1.0)
    assert res == two_constant_point(cloud, EUCLID, obj, stored, delta=1.0, r=1.0)
    assert res.radius_ok

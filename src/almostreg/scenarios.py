"""Scenario files: validation, execution, and deterministic reports.

A scenario is a JSON document with a kind, a payload describing one instance
for that kind's module, and optional expectations on named result
quantities. Suites run scenarios (optionally in parallel), compare results
against expectations, and emit either readable text or a byte-stable
machine format.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping, Sequence

from . import __version__
from .ekeland import Objective, approx_point, generate_trace, two_constant_point, verify_trace, weak_point
from .expressions import ExpressionError, compile_expression
from .extreal import ExtReal
from .ioffe import (
    PairRegion,
    check_criterion,
    conclude_openness,
    descent_solve,
    grid_scan_oracle,
    milyutin_gamma,
    newton_oracle,
    none_oracle,
    scalar_map,
    setvalued_criterion,
)
from .linear import DenseMatrix, NormSpec, harte_check, injectivity_bound, open_set_check, opnorm, sur_lipschitz_check, sur_modulus
from .perturb import (
    PerturbationInstance,
    admissible_beta_interval,
    graves_check,
    lg_setvalued_check,
    lg_single_check,
    lg_sumstable_check,
    sum_stability_check,
)
from .regularity import (
    MODULUS_KINDS,
    ModulusSearchConfig,
    RegularityInstance,
    SampledMap,
    _image_cloud,
    check_inverse_lipschitz,
    check_openness,
    check_regularity_estimate,
    closed_ball_openness,
    equivalence_suite,
    estimate_modulus,
    verify_product_laws,
)
from .spaces import (
    DirectionSet,
    PartialMetric,
    PartialMetricError,
    Point,
    PointCloud,
    QuasiPremetric,
    check_axioms,
    directional_gauge,
    euclidean_premetric,
    induce_from_partial,
)

KINDS = ("axioms", "ekeland", "regularity", "ioffe", "perturb", "linear")


class ScenarioError(ValueError):
    """Raised on parse or schema violations, carrying the field path."""


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    kind: str
    payload: dict
    expectations: tuple[dict, ...]
    source: str
    # The built instance, run(seed) -> quantities.
    run: Callable[[int], dict] = field(repr=False, compare=False)


@dataclass
class RunReport:
    scenario_id: str
    kind: str
    quantities: dict
    expectations: list
    error: str | None
    wall_time: float | None
    seed: int


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


_MISSING = object()
_TYPE_NAMES = {dict: "an object", list: "a list", bool: "true or false"}


def _at(path: str, key: str | int) -> str:
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _require(data, key: str | int, path: str, default=_MISSING, of: type = object):
    """data[key], for an object field or a list index, checked to be an `of`.
    An absent or null field reads as the default, and is a load error when
    there is none."""
    present = key < len(data) if isinstance(key, int) else key in data
    if not present or data[key] is None:
        if default is _MISSING:
            raise _fail(_at(path, key), "missing required field")
        return default
    if not isinstance(data[key], of):
        raise _fail(_at(path, key), f"must be {_TYPE_NAMES[of]}")
    return data[key]


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"{p}: file does not exist")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{p}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise _fail(str(p), "scenario document must be an object")
    kind = _require(data, "kind", "scenario")
    if kind not in KINDS:
        raise _fail("scenario.kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    payload = dict(_require(data, "payload", "scenario", of=dict))
    scenario_id = str(data.get("id", p.stem))
    expectations = []
    for i, e in enumerate(_require(data, "expectations", "scenario", [], of=list)):
        epath = f"scenario.expectations[{i}]"
        if not isinstance(e, dict) or "quantity" not in e:
            raise _fail(epath, "each expectation needs a quantity name")
        modes = [k for k in ("value", "equals", "bracket_contains") if k in e]
        if len(modes) != 1:
            raise _fail(epath, "need exactly one of value / equals / bracket_contains")
        if "value" in e and "tol" not in e:
            raise _fail(epath, "value expectations need a tol")
        for key in ("value", "tol", "bracket_contains"):
            _number(e, key, epath, None, infinite=True)
        expectations.append(dict(e))
    # Every payload field is read and checked here, so schema errors surface
    # at load. The built instance is kept, so running does not build it again.
    return Scenario(scenario_id, kind, payload, tuple(expectations), str(p),
                    _build_instance(kind, payload))


# --- payload readers -----------------------------------------------------------
# Each reader reads one field of a JSON object, or one entry of a JSON list,
# converts and checks it, and raises ScenarioError with the field's path. A
# reader given a default returns it, unconverted, for an absent or null field.


def _number(data, key, path: str, default=_MISSING, *, positive: bool = False,
            integer: bool = False, infinite: bool = False):
    """A finite JSON number as a float, or as an int when integer; with
    infinite, also an infinite one, and the string "inf" reads as +inf."""
    value = _require(data, key, path, default)
    if value is default:
        return value
    where = _at(path, key)
    if infinite and value == "inf":
        value = math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(where, f"must be a number, not {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf if value > 0 else -math.inf
    if math.isnan(number):
        raise _fail(where, f"must be a number, not {value!r}")
    # JSON Infinity and overflowing literals such as 1e999 parse to inf.
    if math.isinf(number) and not infinite:
        raise _fail(where, f"must be finite, not {number!r}")
    if positive and not number > 0:
        raise _fail(where, "must be positive")
    if integer:
        if not number.is_integer():
            raise _fail(where, "must be an integer")
        return int(value)
    return number


def _numbers(data, key, path: str, default=_MISSING, *, positive: bool = False):
    values = _require(data, key, path, default, of=list)
    if values is default:
        return values
    where = _at(path, key)
    return tuple(_number(values, i, where, positive=positive) for i in range(len(values)))


def _choice(data, key, path: str, choices: Sequence[str], default=_MISSING) -> str:
    value = _require(data, key, path, default)
    if value not in choices:
        raise _fail(_at(path, key), f"must be one of {', '.join(choices)}; got {value!r}")
    return value


def _known(spec: dict, path: str, names: Sequence[str]) -> None:
    for key in spec:
        if key not in names:
            raise _fail(f"{path}.{key}", f"unknown field; expected one of {', '.join(names)}")


def _stored(cloud: PointCloud, point: Point, where: str) -> Point:
    """The cloud's own copy of a point, as PointCloud.index_of resolves it."""
    try:
        return cloud.points[cloud.index_of(point)]
    except KeyError as exc:
        raise _fail(where, exc.args[0]) from None


def _point(data, key, path: str, cloud: PointCloud | None = None) -> Point:
    """A number or a nonempty list of numbers as a point; given a cloud, the
    cloud's own copy of it."""
    value = _require(data, key, path)
    where = _at(path, key)
    if not isinstance(value, list):
        point = (_number(data, key, path),)
    elif value:
        point = tuple(_number(value, i, where) for i in range(len(value)))
    else:
        raise _fail(where, "must be a number or a nonempty list of numbers")
    return point if cloud is None else _stored(cloud, point, where)


def _points(data, key, path: str, cloud: PointCloud | None = None,
            count: int | None = None) -> tuple[Point, ...]:
    values = _require(data, key, path, of=list)
    where = _at(path, key)
    if count is not None and len(values) != count:
        raise _fail(where, f"must list exactly {count} points")
    return tuple(_point(values, i, where, cloud) for i in range(len(values)))


def _expr(data, key, path: str, variables: Sequence[str] = ("x",)) -> Callable[..., float]:
    source = _require(data, key, path)
    where = _at(path, key)
    if not isinstance(source, str):
        raise _fail(where, "must be an expression string")
    try:
        return compile_expression(source, variables)
    except ExpressionError as exc:
        raise _fail(where, str(exc)) from None


def _sampled(fn: Callable[[float], float], where: str) -> Callable[[Point], Point]:
    """fn on 1-D points, for sampling a payload expression at load: a failed
    evaluation raises ScenarioError at where."""
    def sample(p: Point) -> Point:
        try:
            return (fn(p[0]),)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise _fail(where, f"cannot be evaluated at x = {p[0]!r}: {exc}") from None

    return sample


def _gamma(data, key, path: str, mapping: SampledMap):
    """A reach: a positive number, "inf", or {"milyutin": region}, the
    distance to the region's complement in the map's domain metric."""
    value = _require(data, key, path)
    if isinstance(value, dict) and "milyutin" in value:
        region = _points(value, "milyutin", _at(path, key), mapping.domain)
        return milyutin_gamma(mapping.domain, region, mapping.metric_x)
    if value == "inf" or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        return _number(data, key, path, positive=True, infinite=True)
    raise _fail(_at(path, key), "must be a positive number, 'inf', or {'milyutin': region}")


def _search(payload: dict) -> ModulusSearchConfig:
    path = "payload.search"
    spec = _require(payload, "search", "payload", {}, of=dict)
    _known(spec, path, [f.name for f in fields(ModulusSearchConfig)])
    kwargs = {}
    for key, options in (("gamma0", {"positive": True}), ("gamma_floor_steps", {}),
                         ("bisect_iters", {"integer": True}), ("closure_tol", {}),
                         ("t_per_decade", {"integer": True, "positive": True})):
        if key in spec:
            kwargs[key] = _number(spec, key, path, **options)
    for key in ("bracket", "eps_schedule"):
        if key in spec:
            kwargs[key] = _numbers(spec, key, path, positive=True)
    if len(kwargs.get("bracket", (0.0, 0.0))) != 2:
        raise _fail(f"{path}.bracket", "must be a pair of numbers")
    return ModulusSearchConfig(**kwargs)


# --- payload builders -------------------------------------------------------


def _cloud(data, key, path: str) -> PointCloud:
    spec, path = _require(data, key, path, of=dict), _at(path, key)
    if "points" in spec:
        try:
            return PointCloud(_points(spec, "points", path))
        except ValueError as exc:
            raise _fail(f"{path}.points", str(exc)) from None
    if "grid" in spec:
        grid, path = _require(spec, "grid", path, of=dict), f"{path}.grid"
        start = _number(grid, "start", path)
        stop = _number(grid, "stop", path)
        step = _number(grid, "step", path, positive=True)
        if not stop > start:
            raise _fail(f"{path}.stop", "must exceed start")
        return PointCloud.from_grid(start, stop, step)
    raise _fail(path, "cloud spec needs 'points' or 'grid'")


def _region(data, key, path: str, cloud: PointCloud) -> tuple[Point, ...]:
    """Points of a cloud, as the cloud holds them: all of them when absent,
    else a cloud spec or a list of points."""
    spec = _require(data, key, path, None)
    if spec is None:
        return cloud.points
    if not isinstance(spec, dict):
        return _points(data, key, path, cloud)
    return tuple(_stored(cloud, p, _at(path, key)) for p in _cloud(data, key, path).points)


def _premetric(data, key, path: str, cloud: PointCloud) -> QuasiPremetric:
    spec, path = _require(data, key, path, of=dict), _at(path, key)
    kind = _choice(spec, "kind", path, ("euclidean", "scaled_euclidean", "directional",
                                        "partial_max", "expression"))
    if kind == "euclidean":
        return euclidean_premetric()
    if kind == "scaled_euclidean":
        return euclidean_premetric().scaled(_number(spec, "factor", path, positive=True))
    if kind == "directional":
        try:
            ds = DirectionSet.normalized(_points(spec, "directions", path))
        except ValueError as exc:
            raise _fail(f"{path}.directions", str(exc)) from None
        if ds.dimension != cloud.dimension:
            raise _fail(f"{path}.directions",
                        f"dimension mismatch: directions have dimension {ds.dimension}, "
                        f"cloud points {cloud.dimension}")
        return directional_gauge(ds)
    if cloud.dimension != 1:
        raise _fail(path, f"{kind} premetrics need a 1-D cloud")
    if kind == "partial_max":
        if any(p[0] < 0.0 for p in cloud.points):
            raise _fail(path, "partial_max needs nonnegative points")
        zeta = PartialMetric(lambda x, u: max(x[0], u[0]), name="max")
        try:
            return induce_from_partial(zeta, cloud)
        except PartialMetricError as exc:
            raise _fail(path, str(exc)) from None
    axioms = _require(spec, "axioms", path, [], of=list)
    for i in range(len(axioms)):
        _choice(axioms, i, f"{path}.axioms", ("A1", "A2", "A3", "A4"))
    fn = _expr(spec, "source", path, ("x", "u"))
    return QuasiPremetric(lambda p, q: fn(p[0], q[0]), axioms_claimed=frozenset(axioms),
                          name=f"expr({spec['source']})")


def _objective(data, key, path: str, cloud: PointCloud) -> Objective:
    spec, path = _require(data, key, path, of=dict), _at(path, key)
    if "table" in spec:
        values = _numbers(spec, "table", path)
        if len(values) != len(cloud):
            raise _fail(f"{path}.table",
                        f"needs exactly {len(cloud)} values (one per cloud point)")
        return Objective.from_table(cloud, list(values))
    if "expr" in spec:
        if cloud.dimension != 1:
            raise _fail(path, "expression objectives need a 1-D cloud")
        fn = _expr(spec, "expr", path)
        return Objective(lambda p: fn(p[0]), name=f"expr({spec['expr']})")
    raise _fail(path, "objective spec needs 'table' or 'expr'")


def _pairs(data, key, path: str, x_cloud: PointCloud,
           y_cloud: PointCloud | None) -> tuple[tuple[Point, Point], ...]:
    """A nonempty list of [x, y] pairs, each point resolved in its cloud."""
    raw, where = _require(data, key, path, of=list), _at(path, key)
    if not raw:
        raise _fail(where, "must be a nonempty list of pairs")
    pairs = (_points(raw, i, where, count=2) for i in range(len(raw)))
    return tuple((_stored(x_cloud, x, f"{where}[{i}]"),
                  y if y_cloud is None else _stored(y_cloud, y, f"{where}[{i}]"))
                 for i, (x, y) in enumerate(pairs))


def _map(data, key, path: str) -> SampledMap:
    spec, path = _require(data, key, path, of=dict), _at(path, key)
    domain = _cloud(spec, "domain", path)
    if "graph_expr" in spec or "graph_exprs" in spec:
        if domain.dimension != 1:
            raise _fail(path, "expression maps need a 1-D domain")
        if "graph_expr" in spec:
            fn = _expr(spec, "graph_expr", path)
            return SampledMap.from_function(domain, _sampled(fn, f"{path}.graph_expr"))
        sources, where = _require(spec, "graph_exprs", path, of=list), f"{path}.graph_exprs"
        if not sources:
            raise _fail(where, "must be a nonempty list")
        fns = [_sampled(_expr(sources, i, where), _at(where, i)) for i in range(len(sources))]
        return SampledMap.from_branches(domain, fns)
    if "pairs" not in spec:
        raise _fail(path, "map spec needs 'graph_expr', 'graph_exprs', or 'pairs'")
    codomain = _cloud(spec, "codomain", path) if "codomain" in spec else None
    pairs = _pairs(spec, "pairs", path, domain, codomain)
    try:
        return SampledMap(domain, codomain or _image_cloud(pairs), pairs)
    except ValueError as exc:
        raise _fail(f"{path}.pairs", str(exc)) from None


def _ref(payload: dict, maps: Mapping[str, SampledMap]) -> tuple[Point, ...]:
    """payload.ref: a point x, then one value at x of each map, on its graph."""
    ref = _points(payload, "ref", "payload", count=len(maps) + 1)
    for value, (name, mapping) in zip(ref[1:], maps.items()):
        if not mapping.on_graph(ref[0], value):
            raise _fail("payload.ref", f"must be a graph pair of {name}")
    return ref


# --- execution ---------------------------------------------------------------


def _build_instance(kind: str, payload: dict) -> Callable[[int], dict]:
    """Read and check the payload and build its instance; returns run(seed)."""
    builder = {
        "axioms": _prep_axioms,
        "ekeland": _prep_ekeland,
        "regularity": _prep_regularity,
        "ioffe": _prep_ioffe,
        "perturb": _prep_perturb,
        "linear": _prep_linear,
    }[kind]
    return builder(payload)


def _prep_axioms(payload: dict):
    cloud = _cloud(payload, "cloud", "payload")
    space = _premetric(payload, "premetric", "payload", cloud)
    sequences = _require(payload, "sequences", "payload", None, of=list)
    if sequences is not None:
        sequences = [_numbers(sequences, i, "payload.sequences")
                     for i in range(len(sequences))]
        for i, seq in enumerate(sequences):
            if any(not (j.is_integer() and 0 <= j < len(cloud)) for j in seq):
                raise _fail(f"payload.sequences[{i}]", "must list indices of cloud points")
        sequences = [tuple(int(j) for j in seq) for seq in sequences]
    tol = _number(payload, "completeness_tol", "payload", 1e-6)

    def run(seed: int) -> dict:
        report = check_axioms(space, cloud, sequences=sequences,
                              completeness_tol=tol)
        out = {name: chk.status for name, chk in report.checks.items()}
        out["claimed_ok"] = report.claimed_ok
        out["violations"] = sum(len(chk.violations) for chk in report.checks.values())
        return out

    return run


def _prep_ekeland(payload: dict):
    cloud = _cloud(payload, "cloud", "payload")
    space = _premetric(payload, "premetric", "payload", cloud)
    objective = _objective(payload, "objective", "payload", cloud)
    start = _point(payload, "start", "payload", cloud)
    mode = _choice(payload, "mode", "payload", ("trace", "approx", "weak", "two_constant"),
                   "trace")
    budget = _number(payload, "budget", "payload", None, integer=True, positive=True)
    epsilon = _number(payload, "epsilon", "payload",
                      _MISSING if mode == "approx" else None, positive=True)
    scale = _MISSING if mode == "two_constant" else None
    delta = _number(payload, "delta", "payload", scale, positive=True)
    r = _number(payload, "r", "payload", scale, positive=True)

    def run(seed: int) -> dict:
        trace = generate_trace(cloud, space, objective, start, budget=budget)
        out = {
            "trace_points": [list(p) for p in trace.points],
            "trace_len": len(trace),
            "step_infima": [_jsonable(v) for v in trace.step_infima],
            "termination": trace.termination,
        }
        if epsilon is not None:
            ver = verify_trace(trace, cloud, space, objective, epsilon)
            out["chain_ok"] = ver.chain_ok
            out["stationary_index"] = ver.stationary_index
        if mode == "approx":
            cert = approx_point(cloud, space, objective, start, epsilon, budget=budget)
            out.update(point=list(cert.point), descent_ok=cert.descent_ok,
                       stationarity_ok=cert.stationarity_ok)
        elif mode == "weak":
            point, cert = weak_point(cloud, space, objective, start, budget=budget)
            out.update(point=list(point), descent_ok=cert.descent_ok,
                       stationarity_ok=cert.stationarity_ok)
        elif mode == "two_constant":
            res = two_constant_point(cloud, space, objective, start, delta, r,
                                     budget=budget)
            out.update(point=list(res.point), descent_ok=res.descent_ok,
                       stationarity_ok=res.stationarity_ok,
                       radius_ok=res.radius_ok, scale=res.scale)
        return out

    return run


_PROPERTY_CHECKS = {"openness": check_openness,
                    "openness_closed": closed_ball_openness,
                    "regularity_estimate": check_regularity_estimate,
                    "inverse_lipschitz": check_inverse_lipschitz,
                    "equivalence": equivalence_suite}


def _prep_regularity(payload: dict):
    mapping = _map(payload, "map", "payload")
    check = _choice(payload, "check", "payload", (*_PROPERTY_CHECKS, "modulus", "product"))
    if check in _PROPERTY_CHECKS:
        fn = _PROPERTY_CHECKS[check]
        instance = dict(
            mapping=mapping,
            region_x=_region(payload, "region_x", "payload", mapping.domain),
            region_y=_region(payload, "region_y", "payload", mapping.codomain),
            gamma=_gamma(payload, "gamma", "payload", mapping),
            constant=_number(payload, "constant", "payload", positive=True),
            eps_schedule=_numbers(payload, "eps_schedule", "payload", ()),
            closure_tol=_number(payload, "closure_tol", "payload", None),
        )
        try:
            inst = RegularityInstance(**instance)
        except ValueError as exc:
            raise _fail("payload", str(exc)) from None

        def run(seed: int) -> dict:
            rep = fn(inst)
            if check == "equivalence":
                return {
                    "agree": rep.agree,
                    "openness_passed": rep.openness.passed,
                    "regularity_passed": rep.regularity.passed,
                    "inverse_passed": rep.inverse.passed,
                }
            return {
                "passed": rep.passed,
                "checked": rep.checked,
                "violation_count": rep.violation_count,
                "vacuous": rep.vacuous,
                "witnesses": [_jsonable(w) for w in rep.witnesses[:5]],
            }

        return run
    if check == "modulus":
        kinds = (_choice(payload, "modulus_kind", "payload", MODULUS_KINDS),)
    else:
        kinds = _require(payload, "kinds", "payload", of=list)
        if len(kinds) != 2:
            raise _fail("payload.kinds", "must be a pair of modulus kinds")
        kinds = tuple(_choice(kinds, i, "payload.kinds", MODULUS_KINDS) for i in range(2))
    ref = _ref(payload, {"the map": mapping})
    cfg = _search(payload)
    tol = _number(payload, "tol", "payload", 0.05)

    def run(seed: int) -> dict:
        reps = [estimate_modulus(mapping, ref, kind, cfg) for kind in kinds]
        if check == "modulus":
            rep = reps[0]
            return {
                "kind": rep.kind,
                "lower": rep.lower,
                "upper": _jsonable(rep.upper),
                "estimate": rep.estimate,
                "bracket": [rep.lower, _jsonable(rep.upper)],
                "resolution_limited": rep.resolution_limited,
                "stabilized_gamma": rep.stabilized_gamma,
            }
        r1, r2 = reps
        law = verify_product_laws(r1, r2, tol=tol)
        return {
            "relation": law.relation,
            "interval_low": law.interval_low,
            "interval_high": _jsonable(law.interval_high),
            "verdict": law.verdict,
            "first_bracket": [r1.lower, _jsonable(r1.upper)],
            "second_bracket": [r2.lower, _jsonable(r2.upper)],
        }

    return run


def _prep_descent(payload: dict):
    g_fn = _expr(payload, "g_expr", "payload")
    start = _point(payload, "start", "payload")
    target = _point(payload, "target", "payload")
    c = _number(payload, "c", "payload", positive=True)
    eps = _number(payload, "eps", "payload", positive=True)
    budget = _number(payload, "budget", "payload", 100, integer=True, positive=True)
    complete_space = _require(payload, "complete_space", "payload", False, of=bool)
    g = scalar_map(g_fn)
    oracle_kind = _choice(payload, "oracle", "payload", ("newton", "grid", "none"), "newton")
    if oracle_kind == "newton":
        oracle = newton_oracle(g_fn, _expr(payload, "dg_expr", "payload"))
    elif oracle_kind == "grid":
        oracle = grid_scan_oracle(_cloud(payload, "cloud", "payload"),
                                  _sampled(g_fn, "payload.g_expr"), c, min(1.0, eps))
    else:
        oracle = none_oracle()

    def run(seed: int) -> dict:
        rep = descent_solve(g, start, target, c, eps, oracle, budget=budget,
                            complete_space=complete_space)
        return {
            "status": rep.status,
            "steps": len(rep),
            "final_residual": rep.residuals[-1],
            "radius_bound": rep.radius_bound,
            "within_radius": rep.within_radius,
            "cauchy_ok": rep.cauchy_ok,
        }

    return run


def _prep_ioffe(payload: dict):
    check = _choice(payload, "check", "payload", ("descent", "criterion", "conclude",
                                                  "setvalued"))
    if check == "descent":
        return _prep_descent(payload)
    mapping = _map(payload, "map", "payload")
    spec = _require(payload, "region", "payload", of=dict)
    if "product" in spec:
        product = _require(spec, "product", "payload.region", of=dict)
        xs = _region(product, "xs", "payload.region.product", mapping.domain)
        ys = _region(product, "ys", "payload.region.product", mapping.codomain)
        pairs = tuple((x, y) for x in xs for y in ys)
    elif "pairs" in spec:
        pairs = _pairs(spec, "pairs", "payload.region", mapping.domain, mapping.codomain)
    else:
        raise _fail("payload.region", "needs 'product' or 'pairs'")
    try:
        region = PairRegion(pairs)
    except ValueError as exc:
        raise _fail("payload.region", str(exc)) from None
    c = _number(payload, "c", "payload", positive=True)
    gamma = _gamma(payload, "gamma", "payload", mapping)
    epsilons = _numbers(payload, "epsilons", "payload", None, positive=True)
    alpha = _number(payload, "alpha", "payload",
                    _MISSING if check == "setvalued" else None, positive=True)
    if alpha is not None and not alpha < 1.0 / c:
        raise _fail("payload.alpha", "must lie in (0, 1 / c)")

    def run(seed: int) -> dict:
        if check == "criterion":
            rep = check_criterion(mapping, region, c, gamma, epsilons)
            return {
                "passed": rep.passed,
                "checked": rep.checked,
                "violation_count": rep.violation_count,
                "vacuous": rep.vacuous,
                "epsilons": list(rep.epsilons),
            }
        if check == "conclude":
            rep = conclude_openness(mapping, region, c, gamma, epsilons)
            return {
                "criterion_passed": rep.criterion.passed,
                "concluded": rep.concluded,
                "fiber_passed": rep.fiber_check.passed,
                "openness_passed": (None if rep.openness_check is None
                                    else rep.openness_check.passed),
                "routes_agree": rep.routes_agree,
            }
        rep = setvalued_criterion(mapping, region, c, gamma, alpha, epsilons)
        return {
            "direct_passed": rep.direct.passed,
            "projected_passed": rep.projected.passed,
            "agree": rep.agree,
        }

    return run


_SETVALUED_CONSTANTS = ("c", "c_prime", "ell", "a", "b", "r", "delta")


def _prep_perturb(payload: dict):
    check = _choice(payload, "check", "payload", ("beta_interval", "lg_single", "graves",
                                                  "sum_stability", "lg_sumstable",
                                                  "lg_setvalued"))
    if check == "beta_interval":
        args = tuple(_number(payload, k, "payload") for k in ("c", "ell", "diam_h", "a", "b"))

        def run(seed: int) -> dict:
            interval = admissible_beta_interval(*args)
            return {
                "upper": interval.upper,
                "empty": interval.empty,
                "midpoint_recheck": interval.recheck(*args),
            }

        return run

    F = _map(payload, "F", "payload")
    cfg = _search(payload)
    if check == "lg_single":
        h_fn = _expr(payload, "h_expr", "payload")
        inst = PerturbationInstance(F=F, ref=_ref(payload, {"F": F}),
                                    h=lambda p: (h_fn(p[0]),))

        def run(seed: int) -> dict:
            rep = lg_single_check(inst, cfg=cfg)
            return {
                "passed": rep.passed,
                "inconclusive": rep.inconclusive,
                "lower": rep.lower,
                "bound": rep.bound,
                "details": {k: v for k, v in rep.details},
            }

        return run
    if check == "graves":
        center = _ref(payload, {"F": F})[0]
        g_fn = _expr(payload, "g_expr", "payload")
        f_fn = _expr(payload, "f_expr", "payload")
        radius = _number(payload, "radius", "payload", 0.5, positive=True)
        threshold = _number(payload, "threshold", "payload", 0.05)

        def run(seed: int) -> dict:
            rep = graves_check(lambda p: (f_fn(p[0]),), lambda p: (g_fn(p[0]),),
                               center, radius, F.domain, threshold=threshold, cfg=cfg)
            return {
                "status": rep.status,
                "passed": rep.passed,
                "lips": list(rep.lip_sequence),
            }

        return run

    H = _map(payload, "H", "payload")
    ref = _ref(payload, {"F": F, "H": H})
    if check == "lg_setvalued":
        spec = _require(payload, "constants", "payload", of=dict)
        _known(spec, "payload.constants", _SETVALUED_CONSTANTS)
        consts = {k: _number(spec, k, "payload.constants", positive=k != "ell",
                             infinite=k in ("a", "b", "r"))
                  for k in _SETVALUED_CONSTANTS}
        if not 0.0 <= consts["ell"] < consts["c"] < consts["c_prime"]:
            raise _fail("payload.constants", "must satisfy 0 <= ell < c < c_prime")
        inst = PerturbationInstance(F=F, ref=ref, H=H, constants=consts)

        def run(seed: int) -> dict:
            rep = lg_setvalued_check(inst)
            return {
                "passed": rep.passed,
                "premise_a": rep.premise_a.passed,
                "premise_b": rep.premise_b.passed,
                "premise_c": rep.premise_c.passed,
                "conclusion": (None if rep.conclusion is None
                               else rep.conclusion.passed),
                "reading_sensitive": rep.reading_sensitive,
                "constants": {k: v for k, v in rep.constants},
            }

        return run
    xi_schedule = _numbers(payload, "xi_schedule", "payload", (1.0, 0.5, 0.25), positive=True)

    def run(seed: int) -> dict:
        if check == "sum_stability":
            rep = sum_stability_check(F, H, ref, xi_schedule)
            return {
                "verdict": rep.verdict,
                "entries": [[xi, beta, ok] for xi, beta, ok in rep.entries],
            }
        rep = lg_sumstable_check(F, H, ref, xi_schedule, cfg=cfg)
        return {
            "passed": rep.passed,
            "inconclusive": rep.inconclusive,
            "lower": rep.lower,
            "bound": rep.bound,
        }

    return run


def _matrix(data, key, path: str) -> DenseMatrix:
    rows, where = _require(data, key, path, of=list), _at(path, key)
    try:
        return DenseMatrix.from_rows([_numbers(rows, i, where) for i in range(len(rows))])
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def _norm(data, key, path: str, dimension: int) -> NormSpec:
    spec = _require(data, key, path, {"kind": "euclidean"}, of=dict)
    path = _at(path, key)
    kind = _choice(spec, "kind", path, ("euclidean", "sup", "one"))
    if _number(spec, "dimension", path, dimension, integer=True) != dimension:
        raise _fail(f"{path}.dimension", f"must be {dimension} to match the matrix")
    return NormSpec(kind, dimension)


def _prep_linear(payload: dict):
    matrix = _matrix(payload, "matrix", "payload")
    nx = _norm(payload, "nx", "payload", matrix.cols)
    ny = _norm(payload, "ny", "payload", matrix.rows)
    op = _choice(payload, "op", "payload", ("sur", "injectivity", "opnorm", "harte",
                                            "lipschitz", "open_set"))
    method = _choice(payload, "method", "payload", ("svd", "grid"), "svd")
    mesh = _number(payload, "mesh_count", "payload", 3600, integer=True, positive=True)
    samples = _number(payload, "samples", "payload", 100, integer=True, positive=True)
    if op == "lipschitz":
        other = _matrix(payload, "matrix_b", "payload")
        if (other.rows, other.cols) != (matrix.rows, matrix.cols):
            raise _fail("payload.matrix_b", "shape must match payload.matrix")

    def run(seed: int) -> dict:
        if op == "sur":
            rep = sur_modulus(matrix, nx, ny, method=method, mesh_count=mesh)
            return {
                "sur": rep.estimate,
                "lower": rep.lower,
                "upper": _jsonable(rep.upper),
                "bracket": [rep.lower, _jsonable(rep.upper)],
            }
        if op == "injectivity":
            return {"alpha": injectivity_bound(matrix, nx, ny)}
        if op == "opnorm":
            return {"opnorm": opnorm(matrix, nx, ny)}
        if op == "harte":
            rep = harte_check(matrix, nx, ny)
            return {"passed": rep.passed, "skipped": rep.skipped,
                    "data": {k: v for k, v in rep.data}}
        if op == "lipschitz":
            rep = sur_lipschitz_check(matrix, other, nx, ny)
        else:
            rep = open_set_check(matrix, nx, ny, samples=samples, seed=seed)
        return {"passed": rep.passed, "data": {k: v for k, v in rep.data}}

    return run


# --- suite orchestration ------------------------------------------------------


def _execute(scenario: Scenario, seed: int, tolerance_scale: float) -> RunReport:
    start = perf_counter()
    try:
        quantities = scenario.run(seed)
        error = None
    except Exception as exc:  # captured per scenario, never aborts the suite
        quantities = {}
        error = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    expectations = []
    if error is None:
        for exp in scenario.expectations:
            expectations.append(_check_expectation(exp, quantities, tolerance_scale))
    return RunReport(
        scenario_id=scenario.scenario_id,
        kind=scenario.kind,
        quantities=quantities,
        expectations=expectations,
        error=error,
        wall_time=wall,
        seed=seed,
    )


def _check_expectation(exp: dict, quantities: dict, scale: float) -> dict:
    name = exp["quantity"]
    if name not in quantities:
        return {"quantity": name, "ok": False,
                "note": "quantity missing from results"}
    got = quantities[name]
    if "equals" in exp:
        ok = got == exp["equals"]
        return {"quantity": name, "ok": ok, "got": _jsonable(got),
                "expected": _jsonable(exp["equals"])}
    if "value" in exp:
        tol = float(exp["tol"]) * scale
        try:
            ok = abs(float(got) - float(exp["value"])) <= tol
        except (TypeError, ValueError):
            return {"quantity": name, "ok": False,
                    "note": "quantity is not numeric"}
        return {"quantity": name, "ok": ok, "got": _jsonable(got),
                "expected": exp["value"], "tol": tol}
    target = float(exp["bracket_contains"])
    tol = float(exp.get("tol", 0.0)) * scale
    if (not isinstance(got, (list, tuple))) or len(got) != 2:
        return {"quantity": name, "ok": False,
                "note": "quantity is not a two-element bracket"}
    lo = float(got[0])
    hi = math.inf if got[1] == "inf" else float(got[1])
    ok = (lo - tol <= target) and (target <= hi + tol)
    return {"quantity": name, "ok": ok, "got": _jsonable(got), "target": target}


def _execute_by_path(args: tuple) -> RunReport:
    path, seed, tolerance_scale = args
    return _execute(load_scenario(path), seed, tolerance_scale)


def run_suite(scenarios: Sequence[Scenario | str | Path], seed: int = 0,
              jobs: int = 1, tolerance_scale: float = 1.0) -> list[RunReport]:
    """Run scenarios and return reports ordered by scenario id.

    Per-scenario failures are captured in the report's error field; the suite
    itself always completes. jobs > 1 runs scenarios in separate processes.
    """
    loaded: list[Scenario] = []
    for s in scenarios:
        loaded.append(s if isinstance(s, Scenario) else load_scenario(s))
    if jobs > 1 and len(loaded) > 1:
        from concurrent.futures import ProcessPoolExecutor

        args = [(s.source, seed, tolerance_scale) for s in loaded]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_execute_by_path, args))
    else:
        reports = [_execute(s, seed, tolerance_scale) for s in loaded]
    reports.sort(key=lambda r: r.scenario_id)
    return reports


def all_expectations_met(reports: Sequence[RunReport]) -> bool:
    for r in reports:
        if r.error is not None:
            return False
        if any(not e.get("ok", False) for e in r.expectations):
            return False
    return True


# --- report emission ----------------------------------------------------------


def _round12(x: float) -> float:
    if x != x or math.isinf(x):
        return x
    return float(f"{x:.12g}")


def _jsonable(value):
    if isinstance(value, ExtReal):
        value = float(value)
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return _round12(value)
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def emit_report(reports: Sequence[RunReport], format: str = "text") -> bytes:
    """Render reports; the machine format is byte-stable for a given seed."""
    if format == "machine":
        doc = {
            "version": __version__,
            "seed": reports[0].seed if reports else None,
            "reports": [
                {
                    "id": r.scenario_id,
                    "kind": r.kind,
                    "quantities": _jsonable(r.quantities),
                    "expectations": _jsonable(r.expectations),
                    "error": r.error,
                    "wall_time": None,
                }
                for r in reports
            ],
        }
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    lines = []
    for r in reports:
        if r.error is not None:
            status = "ERROR"
        elif all(e.get("ok", False) for e in r.expectations):
            status = "pass"
        else:
            status = "FAIL"
        wall = f"{r.wall_time:.3f}s" if r.wall_time is not None else "-"
        lines.append(f"[{status}] {r.scenario_id} ({r.kind}, {wall})")
        if r.error is not None:
            lines.append(f"    error: {r.error}")
        for key in sorted(r.quantities):
            lines.append(f"    {key} = {_render(r.quantities[key])}")
        for e in r.expectations:
            mark = "ok" if e.get("ok") else "FAIL"
            detail = {k: v for k, v in e.items() if k not in ("quantity", "ok")}
            lines.append(f"    expect {e['quantity']}: {mark} {_render(detail)}")
    met = all_expectations_met(reports)
    lines.append(f"{len(reports)} scenario(s): "
                 + ("all expectations met" if met else "expectations FAILED"))
    return ("\n".join(lines) + "\n").encode()


def _render(value) -> str:
    return json.dumps(_jsonable(value), sort_keys=True)

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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
    estimate_lip,
    graves_check,
    lg_setvalued_check,
    lg_single_check,
    lg_sumstable_check,
    sum_stability_check,
)
from .regularity import (
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
    PointCloud,
    QuasiPremetric,
    as_point,
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
    # The built instance, run(seed) -> quantities; load_scenario fills it in.
    run: Callable[[int], dict] | None = field(default=None, repr=False, compare=False)


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


def _require(data: Mapping, key: str, path: str):
    if key not in data:
        raise _fail(f"{path}.{key}", "missing required field")
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
    payload = _require(data, "payload", "scenario")
    if not isinstance(payload, dict):
        raise _fail("scenario.payload", "must be an object")
    scenario_id = str(data.get("id", p.stem))
    raw_expect = data.get("expectations", [])
    if not isinstance(raw_expect, list):
        raise _fail("scenario.expectations", "must be a list")
    expectations = []
    for i, e in enumerate(raw_expect):
        epath = f"scenario.expectations[{i}]"
        if not isinstance(e, dict) or "quantity" not in e:
            raise _fail(epath, "each expectation needs a quantity name")
        modes = [k for k in ("value", "equals", "bracket_contains") if k in e]
        if len(modes) != 1:
            raise _fail(epath, "need exactly one of value / equals / bracket_contains")
        if "value" in e and "tol" not in e:
            raise _fail(epath, "value expectations need a tol")
        expectations.append(dict(e))
    payload = dict(payload)
    # Validate eagerly: building the instance surfaces schema errors at load.
    # The built instance is kept, so running the scenario does not build it again.
    return Scenario(scenario_id, kind, payload, tuple(expectations), str(p),
                    _build_instance(kind, payload))


# --- payload builders -------------------------------------------------------


def _build_cloud(spec, path: str) -> PointCloud:
    if not isinstance(spec, dict):
        raise _fail(path, "cloud spec must be an object")
    if "points" in spec:
        pts = spec["points"]
        if not isinstance(pts, list) or not pts:
            raise _fail(f"{path}.points", "must be a nonempty list")
        try:
            return PointCloud(tuple(as_point(q) for q in pts))
        except (TypeError, ValueError) as exc:
            raise _fail(f"{path}.points", str(exc)) from None
    if "grid" in spec:
        g = spec["grid"]
        for k in ("start", "stop", "step"):
            if k not in g:
                raise _fail(f"{path}.grid.{k}", "missing required field")
        if not g["step"] > 0:
            raise _fail(f"{path}.grid.step", "must be positive")
        if not g["stop"] > g["start"]:
            raise _fail(f"{path}.grid.stop", "must exceed start")
        return PointCloud.from_grid(float(g["start"]), float(g["stop"]),
                                    float(g["step"]))
    raise _fail(path, "cloud spec needs 'points' or 'grid'")


def _build_premetric(spec, path: str, cloud: PointCloud) -> QuasiPremetric:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise _fail(path, "premetric spec needs a kind")
    kind = spec["kind"]
    if kind == "euclidean":
        return euclidean_premetric()
    if kind == "scaled_euclidean":
        factor = _require(spec, "factor", path)
        if not factor > 0:
            raise _fail(f"{path}.factor", "must be positive")
        return euclidean_premetric().scaled(float(factor))
    if kind == "directional":
        dirs = _require(spec, "directions", path)
        try:
            ds = DirectionSet.normalized(tuple(as_point(d) for d in dirs))
        except (TypeError, ValueError) as exc:
            raise _fail(f"{path}.directions", str(exc)) from None
        return directional_gauge(ds)
    if kind == "partial_max":
        if cloud.dimension != 1:
            raise _fail(path, "partial_max needs a 1-D cloud")
        if any(p[0] < 0.0 for p in cloud.points):
            raise _fail(path, "partial_max needs nonnegative points")
        zeta = PartialMetric(lambda x, u: max(x[0], u[0]), name="max")
        try:
            return induce_from_partial(zeta, cloud)
        except PartialMetricError as exc:
            raise _fail(path, str(exc)) from None
    if kind == "expression":
        source = _require(spec, "source", path)
        axioms = spec.get("axioms", [])
        bad = [a for a in axioms if a not in ("A1", "A2", "A3", "A4")]
        if bad:
            raise _fail(f"{path}.axioms", f"unknown axiom name {bad[0]!r}")
        if cloud.dimension != 1:
            raise _fail(path, "expression premetrics need a 1-D cloud")
        try:
            fn = compile_expression(source, ("x", "u"))
        except ExpressionError as exc:
            raise _fail(f"{path}.source", str(exc)) from None
        return QuasiPremetric(lambda p, q: fn(p[0], q[0]),
                              axioms_claimed=frozenset(axioms),
                              name=f"expr({source})")
    raise _fail(f"{path}.kind", f"unknown premetric kind {kind!r}")


def _build_objective(spec, path: str, cloud: PointCloud) -> Objective:
    if not isinstance(spec, dict):
        raise _fail(path, "objective spec must be an object")
    if "table" in spec:
        vals = spec["table"]
        if not isinstance(vals, list) or len(vals) != len(cloud):
            raise _fail(f"{path}.table",
                        f"needs exactly {len(cloud)} values (one per cloud point)")
        return Objective.from_table(cloud, [float(v) for v in vals])
    if "expr" in spec:
        if cloud.dimension != 1:
            raise _fail(path, "expression objectives need a 1-D cloud")
        try:
            fn = compile_expression(spec["expr"], ("x",))
        except ExpressionError as exc:
            raise _fail(f"{path}.expr", str(exc)) from None
        return Objective(lambda p: fn(p[0]), name=f"expr({spec['expr']})")
    raise _fail(path, "objective spec needs 'table' or 'expr'")


def _build_map(spec, path: str) -> SampledMap:
    if not isinstance(spec, dict):
        raise _fail(path, "map spec must be an object")
    domain = _build_cloud(_require(spec, "domain", path), f"{path}.domain")
    if "graph_expr" in spec:
        if domain.dimension != 1:
            raise _fail(path, "graph_expr maps need a 1-D domain")
        try:
            fn = compile_expression(spec["graph_expr"], ("x",))
        except ExpressionError as exc:
            raise _fail(f"{path}.graph_expr", str(exc)) from None
        return SampledMap.from_function(domain, lambda p: (fn(p[0]),))
    if "graph_exprs" in spec:
        if domain.dimension != 1:
            raise _fail(path, "graph_exprs maps need a 1-D domain")
        fns = []
        for i, src in enumerate(spec["graph_exprs"]):
            try:
                fns.append(compile_expression(src, ("x",)))
            except ExpressionError as exc:
                raise _fail(f"{path}.graph_exprs[{i}]", str(exc)) from None
        branches = [(lambda p, f=f: (f(p[0]),)) for f in fns]
        return SampledMap.from_branches(domain, branches)
    if "pairs" in spec:
        raw = spec["pairs"]
        if not isinstance(raw, list) or not raw:
            raise _fail(f"{path}.pairs", "must be a nonempty list")
        try:
            pairs = tuple((as_point(x), as_point(y)) for x, y in raw)
        except (TypeError, ValueError) as exc:
            raise _fail(f"{path}.pairs", str(exc)) from None
        if "codomain" in spec:
            codomain = _build_cloud(spec["codomain"], f"{path}.codomain")
        else:
            codomain = _image_cloud(pairs)
        return SampledMap(domain, codomain, pairs)
    raise _fail(path, "map spec needs 'graph_expr', 'graph_exprs', or 'pairs'")


def _points_list(spec, path: str, cloud: PointCloud) -> tuple:
    if spec is None:
        return cloud.points
    if isinstance(spec, dict):
        return _build_cloud(spec, path).points
    if isinstance(spec, list):
        try:
            return tuple(as_point(q) for q in spec)
        except (TypeError, ValueError) as exc:
            raise _fail(path, str(exc)) from None
    raise _fail(path, "must be a list of points or a cloud spec")


def _gamma_spec(value, path: str):
    if isinstance(value, (int, float)):
        if not value > 0:
            raise _fail(path, "must be positive")
        return float(value)
    if value == "inf":
        return math.inf
    if isinstance(value, dict) and "milyutin" in value:
        return ("milyutin", value["milyutin"])
    raise _fail(path, "must be a positive number, 'inf', or {'milyutin': region}")


# --- execution ---------------------------------------------------------------


def _build_instance(kind: str, payload: dict) -> Callable[[int], dict]:
    """Validate and build the executable pieces of a scenario; returns a thunk."""
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
    cloud = _build_cloud(_require(payload, "cloud", "payload"), "payload.cloud")
    space = _build_premetric(_require(payload, "premetric", "payload"),
                             "payload.premetric", cloud)
    sequences = payload.get("sequences")
    if sequences is not None:
        if not isinstance(sequences, list):
            raise _fail("payload.sequences", "must be a list of index lists")
        for i, seq in enumerate(sequences):
            if not isinstance(seq, list) or any(not isinstance(j, int) for j in seq):
                raise _fail(f"payload.sequences[{i}]", "must be a list of integers")
            if any(j < 0 or j >= len(cloud) for j in seq):
                raise _fail(f"payload.sequences[{i}]", "index out of range")
        sequences = [tuple(s) for s in sequences]
    tol = float(payload.get("completeness_tol", 1e-6))

    def run(seed: int) -> dict:
        report = check_axioms(space, cloud, sequences=sequences,
                              completeness_tol=tol)
        out = {name: chk.status for name, chk in report.checks.items()}
        out["claimed_ok"] = report.claimed_ok
        out["violations"] = sum(len(chk.violations) for chk in report.checks.values())
        return out

    return run


def _prep_ekeland(payload: dict):
    cloud = _build_cloud(_require(payload, "cloud", "payload"), "payload.cloud")
    space = _build_premetric(_require(payload, "premetric", "payload"),
                             "payload.premetric", cloud)
    objective = _build_objective(_require(payload, "objective", "payload"),
                                 "payload.objective", cloud)
    try:
        start = as_point(_require(payload, "start", "payload"))
    except (TypeError, ValueError) as exc:
        raise _fail("payload.start", str(exc)) from None
    if start not in set(cloud.points):
        raise _fail("payload.start", "must be a cloud point")
    mode = payload.get("mode", "trace")
    if mode not in ("trace", "approx", "weak", "two_constant"):
        raise _fail("payload.mode", f"unknown mode {mode!r}")
    budget = payload.get("budget")
    epsilon = payload.get("epsilon")
    if mode == "approx" and epsilon is None:
        raise _fail("payload.epsilon", "approx mode needs an epsilon")
    if mode == "two_constant":
        for k in ("delta", "r"):
            if k not in payload:
                raise _fail(f"payload.{k}", "two_constant mode needs delta and r")

    def run(seed: int) -> dict:
        trace = generate_trace(cloud, space, objective, start, budget=budget)
        out = {
            "trace_points": [list(p) for p in trace.points],
            "trace_len": len(trace),
            "step_infima": [_jsonable(v) for v in trace.step_infima],
            "termination": trace.termination,
        }
        if epsilon is not None:
            ver = verify_trace(trace, cloud, space, objective, float(epsilon))
            out["chain_ok"] = ver.chain_ok
            out["stationary_index"] = ver.stationary_index
        if mode == "approx":
            cert = approx_point(cloud, space, objective, start,
                                float(epsilon), budget=budget)
            out.update(point=list(cert.point), descent_ok=cert.descent_ok,
                       stationarity_ok=cert.stationarity_ok)
        elif mode == "weak":
            point, cert = weak_point(cloud, space, objective, start, budget=budget)
            out.update(point=list(point), descent_ok=cert.descent_ok,
                       stationarity_ok=cert.stationarity_ok)
        elif mode == "two_constant":
            res = two_constant_point(cloud, space, objective, start,
                                     float(payload["delta"]), float(payload["r"]),
                                     budget=budget)
            out.update(point=list(res.point), descent_ok=res.descent_ok,
                       stationarity_ok=res.stationarity_ok,
                       radius_ok=res.radius_ok, scale=res.scale)
        return out

    return run


def _regularity_instance(payload: dict, mapping: SampledMap) -> RegularityInstance:
    region_x = _points_list(payload.get("region_x"), "payload.region_x",
                            mapping.domain)
    region_y = _points_list(payload.get("region_y"), "payload.region_y",
                            mapping.codomain)
    gamma = _gamma_spec(_require(payload, "gamma", "payload"), "payload.gamma")
    if isinstance(gamma, tuple):
        region = [as_point(q) for q in gamma[1]]
        gamma = milyutin_gamma(mapping.domain, region, mapping.metric_x)
    constant = _require(payload, "constant", "payload")
    if not constant > 0:
        raise _fail("payload.constant", "must be positive")
    eps_schedule = tuple(payload.get("eps_schedule", ()))
    closure_tol = payload.get("closure_tol")
    try:
        return RegularityInstance(
            mapping=mapping,
            region_x=region_x,
            region_y=region_y,
            gamma=gamma,
            constant=float(constant),
            eps_schedule=eps_schedule,
            closure_tol=closure_tol,
        )
    except (ValueError, KeyError) as exc:
        raise _fail("payload", str(exc)) from None


def _modulus_cfg(payload: dict) -> ModulusSearchConfig:
    raw = payload.get("search", {})
    if not isinstance(raw, dict):
        raise _fail("payload.search", "must be an object")
    kwargs = {}
    for k in ("gamma0", "gamma_floor_steps", "bisect_iters", "closure_tol",
              "t_per_decade"):
        if k in raw:
            kwargs[k] = raw[k]
    if "bracket" in raw:
        kwargs["bracket"] = tuple(raw["bracket"])
    if "eps_schedule" in raw:
        kwargs["eps_schedule"] = tuple(raw["eps_schedule"])
    return ModulusSearchConfig(**kwargs)


def _prep_regularity(payload: dict):
    mapping = _build_map(_require(payload, "map", "payload"), "payload.map")
    check = _require(payload, "check", "payload")
    if check in ("openness", "openness_closed", "regularity_estimate",
                 "inverse_lipschitz", "equivalence"):
        inst = _regularity_instance(payload, mapping)

        def run(seed: int) -> dict:
            if check == "equivalence":
                rep = equivalence_suite(inst)
                return {
                    "agree": rep.agree,
                    "openness_passed": rep.openness.passed,
                    "regularity_passed": rep.regularity.passed,
                    "inverse_passed": rep.inverse.passed,
                }
            fn = {"openness": check_openness,
                  "openness_closed": closed_ball_openness,
                  "regularity_estimate": check_regularity_estimate,
                  "inverse_lipschitz": check_inverse_lipschitz}[check]
            rep = fn(inst)
            return {
                "passed": rep.passed,
                "checked": rep.checked,
                "violation_count": rep.violation_count,
                "vacuous": rep.vacuous,
                "witnesses": [_jsonable(w) for w in rep.witnesses[:5]],
            }

        return run
    if check == "modulus":
        kind = _require(payload, "modulus_kind", "payload")
        ref = _require(payload, "ref", "payload")
        cfg = _modulus_cfg(payload)
        ref_pair = (as_point(ref[0]), as_point(ref[1]))
        if not mapping.geometry.on_graph(*ref_pair):
            raise _fail("payload.ref", "must be a graph pair of the map")

        def run(seed: int) -> dict:
            rep = estimate_modulus(mapping, ref_pair, kind, cfg)
            return {
                "kind": rep.kind,
                "lower": rep.lower,
                "upper": _jsonable(rep.upper),
                "estimate": rep.estimate,
                "bracket": [rep.lower, _jsonable(rep.upper)],
                "resolution_limited": rep.resolution_limited,
                "stabilized_gamma": rep.stabilized_gamma,
            }

        return run
    if check == "product":
        kinds = _require(payload, "kinds", "payload")
        if not isinstance(kinds, list) or len(kinds) != 2:
            raise _fail("payload.kinds", "must be a pair of modulus kinds")
        ref = _require(payload, "ref", "payload")
        ref_pair = (as_point(ref[0]), as_point(ref[1]))
        cfg = _modulus_cfg(payload)
        tol = float(payload.get("tol", 0.05))

        def run(seed: int) -> dict:
            r1 = estimate_modulus(mapping, ref_pair, kinds[0], cfg)
            r2 = estimate_modulus(mapping, ref_pair, kinds[1], cfg)
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
    raise _fail("payload.check", f"unknown check {check!r}")


def _prep_ioffe(payload: dict):
    check = _require(payload, "check", "payload")
    if check == "descent":
        for k in ("g_expr", "start", "target", "c", "eps"):
            if k not in payload:
                raise _fail(f"payload.{k}", "missing required field")
        try:
            g_fn = compile_expression(payload["g_expr"], ("x",))
        except ExpressionError as exc:
            raise _fail("payload.g_expr", str(exc)) from None
        oracle_kind = payload.get("oracle", "newton")
        if oracle_kind not in ("newton", "grid", "none"):
            raise _fail("payload.oracle", f"unknown oracle {oracle_kind!r}")
        if oracle_kind == "newton" and "dg_expr" not in payload:
            raise _fail("payload.dg_expr", "newton oracle needs a derivative expression")
        if oracle_kind == "grid" and "cloud" not in payload:
            raise _fail("payload.cloud", "grid oracle needs a candidate cloud")

        def run(seed: int) -> dict:
            g = scalar_map(g_fn)
            c = float(payload["c"])
            eps = float(payload["eps"])
            if oracle_kind == "newton":
                dg = compile_expression(payload["dg_expr"], ("x",))
                oracle = newton_oracle(g_fn, dg)
            elif oracle_kind == "grid":
                cloud = _build_cloud(payload["cloud"], "payload.cloud")
                oracle = grid_scan_oracle(cloud, g, c, min(1.0, eps))
            else:
                oracle = none_oracle()
            rep = descent_solve(g, as_point(payload["start"]),
                                as_point(payload["target"]), c, eps, oracle,
                                budget=int(payload.get("budget", 100)),
                                complete_space=bool(payload.get("complete_space", False)))
            return {
                "status": rep.status,
                "steps": len(rep),
                "final_residual": rep.residuals[-1],
                "radius_bound": rep.radius_bound,
                "within_radius": rep.within_radius,
                "cauchy_ok": rep.cauchy_ok,
            }

        return run

    mapping = _build_map(_require(payload, "map", "payload"), "payload.map")
    region_spec = _require(payload, "region", "payload")
    if isinstance(region_spec, dict) and "product" in region_spec:
        xs = _points_list(region_spec["product"].get("xs"),
                          "payload.region.product.xs", mapping.domain)
        ys = _points_list(region_spec["product"].get("ys"),
                          "payload.region.product.ys", mapping.codomain)
        region = PairRegion.product(xs, ys)
    elif isinstance(region_spec, dict) and "pairs" in region_spec:
        region = PairRegion.from_pairs(region_spec["pairs"])
    else:
        raise _fail("payload.region", "needs 'product' or 'pairs'")
    c = _require(payload, "c", "payload")
    if not c > 0:
        raise _fail("payload.c", "must be positive")
    gamma = _gamma_spec(_require(payload, "gamma", "payload"), "payload.gamma")
    if isinstance(gamma, tuple):
        gamma = milyutin_gamma(mapping.domain, [as_point(q) for q in gamma[1]],
                               mapping.metric_x)
    epsilons = payload.get("epsilons")

    if check == "criterion":
        def run(seed: int) -> dict:
            rep = check_criterion(mapping, region, float(c), gamma, epsilons)
            return {
                "passed": rep.passed,
                "checked": rep.checked,
                "violation_count": rep.violation_count,
                "vacuous": rep.vacuous,
                "epsilons": list(rep.epsilons),
            }

        return run
    if check == "conclude":
        def run(seed: int) -> dict:
            rep = conclude_openness(mapping, region, float(c), gamma, epsilons)
            return {
                "criterion_passed": rep.criterion.passed,
                "concluded": rep.concluded,
                "fiber_passed": rep.fiber_check.passed,
                "openness_passed": (None if rep.openness_check is None
                                    else rep.openness_check.passed),
                "routes_agree": rep.routes_agree,
            }

        return run
    if check == "setvalued":
        alpha = _require(payload, "alpha", "payload")

        def run(seed: int) -> dict:
            rep = setvalued_criterion(mapping, region, float(c), gamma,
                                      float(alpha), epsilons)
            return {
                "direct_passed": rep.direct.passed,
                "projected_passed": rep.projected.passed,
                "agree": rep.agree,
            }

        return run
    raise _fail("payload.check", f"unknown check {check!r}")


def _prep_perturb(payload: dict):
    check = _require(payload, "check", "payload")
    if check == "beta_interval":
        for k in ("c", "ell", "diam_h", "a", "b"):
            if k not in payload:
                raise _fail(f"payload.{k}", "missing required field")

        def run(seed: int) -> dict:
            interval = admissible_beta_interval(
                float(payload["c"]), float(payload["ell"]),
                float(payload["diam_h"]), float(payload["a"]), float(payload["b"]))
            return {
                "upper": interval.upper,
                "empty": interval.empty,
                "midpoint_recheck": interval.recheck(
                    float(payload["c"]), float(payload["ell"]),
                    float(payload["diam_h"]), float(payload["a"]),
                    float(payload["b"])),
            }

        return run

    F = _build_map(_require(payload, "F", "payload"), "payload.F")
    ref_raw = _require(payload, "ref", "payload")
    if check in ("lg_single", "graves"):
        expr_key = "h_expr" if check == "lg_single" else "g_expr"
        src = _require(payload, expr_key, "payload")
        try:
            h_fn = compile_expression(src, ("x",))
        except ExpressionError as exc:
            raise _fail(f"payload.{expr_key}", str(exc)) from None
        if check == "lg_single":
            inst = PerturbationInstance(
                F=F,
                ref=(as_point(ref_raw[0]), as_point(ref_raw[1])),
                h=lambda p: (h_fn(p[0]),),
            )

            def run(seed: int) -> dict:
                rep = lg_single_check(inst, cfg=_modulus_cfg(payload))
                return {
                    "passed": rep.passed,
                    "inconclusive": rep.inconclusive,
                    "lower": rep.lower,
                    "bound": rep.bound,
                    "details": {k: v for k, v in rep.details},
                }

            return run

        f_src = _require(payload, "f_expr", "payload")
        try:
            f_fn = compile_expression(f_src, ("x",))
        except ExpressionError as exc:
            raise _fail("payload.f_expr", str(exc)) from None

        def run(seed: int) -> dict:
            rep = graves_check(lambda p: (f_fn(p[0]),), lambda p: (h_fn(p[0]),),
                               as_point(ref_raw[0]),
                               float(payload.get("radius", 0.5)), F.domain,
                               threshold=float(payload.get("threshold", 0.05)),
                               cfg=_modulus_cfg(payload))
            return {
                "status": rep.status,
                "passed": rep.passed,
                "lips": list(rep.lip_sequence),
            }

        return run

    H = _build_map(_require(payload, "H", "payload"), "payload.H")
    ref = tuple(as_point(q) for q in ref_raw)
    if len(ref) != 3:
        raise _fail("payload.ref", "set-valued checks need (x_bar, z_bar, w_bar)")
    if check == "sum_stability":
        def run(seed: int) -> dict:
            rep = sum_stability_check(F, H, ref,
                                      tuple(payload.get("xi_schedule", (1.0, 0.5, 0.25))))
            return {
                "verdict": rep.verdict,
                "entries": [[xi, beta, ok] for xi, beta, ok in rep.entries],
            }

        return run
    if check == "lg_sumstable":
        def run(seed: int) -> dict:
            rep = lg_sumstable_check(F, H, ref,
                                     tuple(payload.get("xi_schedule", (1.0, 0.5, 0.25))),
                                     cfg=_modulus_cfg(payload))
            return {
                "passed": rep.passed,
                "inconclusive": rep.inconclusive,
                "lower": rep.lower,
                "bound": rep.bound,
            }

        return run
    if check == "lg_setvalued":
        constants = _require(payload, "constants", "payload")
        if not isinstance(constants, dict):
            raise _fail("payload.constants", "must be an object")
        consts = {k: (math.inf if v == "inf" else float(v))
                  for k, v in constants.items()}
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
    raise _fail("payload.check", f"unknown check {check!r}")


def _build_matrix(spec, path: str) -> DenseMatrix:
    if not isinstance(spec, list) or not spec:
        raise _fail(path, "matrix must be a nonempty nested list")
    try:
        return DenseMatrix.from_rows(spec)
    except (TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from None


def _build_norm(spec, path: str, dimension: int) -> NormSpec:
    if spec is None:
        return NormSpec("euclidean", dimension)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise _fail(path, "norm spec needs a kind")
    try:
        return NormSpec(spec["kind"], int(spec.get("dimension", dimension)))
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _prep_linear(payload: dict):
    matrix = _build_matrix(_require(payload, "matrix", "payload"), "payload.matrix")
    nx = _build_norm(payload.get("nx"), "payload.nx", matrix.cols)
    ny = _build_norm(payload.get("ny"), "payload.ny", matrix.rows)
    op = _require(payload, "op", "payload")
    if op == "sur":
        method = payload.get("method", "svd")
        if method not in ("svd", "grid"):
            raise _fail("payload.method", f"unknown method {method!r}")
        mesh = int(payload.get("mesh_count", 3600))

        def run(seed: int) -> dict:
            rep = sur_modulus(matrix, nx, ny, method=method, mesh_count=mesh)
            return {
                "sur": rep.estimate,
                "lower": rep.lower,
                "upper": _jsonable(rep.upper),
                "bracket": [rep.lower, _jsonable(rep.upper)],
            }

        return run
    if op == "injectivity":
        def run(seed: int) -> dict:
            return {"alpha": injectivity_bound(matrix, nx, ny)}

        return run
    if op == "opnorm":
        def run(seed: int) -> dict:
            return {"opnorm": opnorm(matrix, nx, ny)}

        return run
    if op == "harte":
        def run(seed: int) -> dict:
            rep = harte_check(matrix, nx, ny)
            return {"passed": rep.passed, "skipped": rep.skipped,
                    "data": {k: v for k, v in rep.data}}

        return run
    if op == "lipschitz":
        other = _build_matrix(_require(payload, "matrix_b", "payload"),
                              "payload.matrix_b")
        if (other.rows, other.cols) != (matrix.rows, matrix.cols):
            raise _fail("payload.matrix_b", "shape must match payload.matrix")

        def run(seed: int) -> dict:
            rep = sur_lipschitz_check(matrix, other, nx, ny)
            return {"passed": rep.passed, "data": {k: v for k, v in rep.data}}

        return run
    if op == "open_set":
        samples = int(payload.get("samples", 100))

        def run(seed: int) -> dict:
            rep = open_set_check(matrix, nx, ny, samples=samples, seed=seed)
            return {"passed": rep.passed, "data": {k: v for k, v in rep.data}}

        return run
    raise _fail("payload.op", f"unknown op {op!r}")


# --- suite orchestration ------------------------------------------------------


def _execute(scenario: Scenario, seed: int, tolerance_scale: float) -> RunReport:
    start = perf_counter()
    try:
        run = scenario.run or _build_instance(scenario.kind, scenario.payload)
        quantities = run(seed)
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

"""Scenario loading, suite execution, report emission, and the CLI."""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from almostreg import scenarios
from almostreg.cli import _build_parser, main
from almostreg.scenarios import (
    ScenarioError,
    _check_expectation,
    _jsonable,
    _round12,
    all_expectations_met,
    emit_report,
    load_scenario,
    run_suite,
)

REPO = Path(__file__).resolve().parents[1]
DEMO = REPO / "scenarios"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def write_scenario(tmp_path: Path, doc: dict, name: str = "case.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def linear_doc(**extra) -> dict:
    doc = {
        "kind": "linear",
        "payload": {"op": "sur", "matrix": [[3.0, 0.0], [0.0, 1.0]],
                    "method": "svd"},
        "expectations": [{"quantity": "sur", "value": 1.0, "tol": 1e-6}],
    }
    doc.update(extra)
    return doc


def test_load_defaults_id_to_stem(tmp_path):
    p = write_scenario(tmp_path, linear_doc(), name="diag_case.json")
    s = load_scenario(p)
    assert s.scenario_id == "diag_case"
    assert s.kind == "linear"
    named = load_scenario(write_scenario(tmp_path, linear_doc(id="custom"),
                                         name="other.json"))
    assert named.scenario_id == "custom"


def test_load_missing_file():
    with pytest.raises(ScenarioError, match="does not exist"):
        load_scenario("/nonexistent/path.json")


def test_load_parse_error_reports_position():
    with pytest.raises(ScenarioError, match=r"parse error at line 3, column 1"):
        load_scenario(FIXTURES / "malformed.json")


def test_load_schema_errors(tmp_path):
    with pytest.raises(ScenarioError, match="unknown kind"):
        load_scenario(write_scenario(tmp_path, linear_doc(kind="fourier")))
    with pytest.raises(ScenarioError, match="scenario.payload: must be an object"):
        load_scenario(write_scenario(tmp_path, linear_doc(payload=[1, 2])))
    with pytest.raises(ScenarioError, match="scenario.kind"):
        load_scenario(write_scenario(tmp_path, {"payload": {}}))
    with pytest.raises(ScenarioError, match="expectations: must be a list"):
        load_scenario(write_scenario(tmp_path, linear_doc(expectations={})))
    with pytest.raises(ScenarioError, match="needs a quantity name"):
        load_scenario(write_scenario(
            tmp_path, linear_doc(expectations=[{"value": 1.0, "tol": 0.1}])))
    with pytest.raises(ScenarioError, match="exactly one of"):
        load_scenario(write_scenario(tmp_path, linear_doc(expectations=[
            {"quantity": "sur", "value": 1.0, "tol": 0.1, "equals": 1.0}])))
    with pytest.raises(ScenarioError, match="need a tol"):
        load_scenario(write_scenario(tmp_path, linear_doc(expectations=[
            {"quantity": "sur", "value": 1.0}])))


def test_expectation_numbers_checked_at_load(tmp_path):
    # A non-numeric tol used to load and then crash the suite run.
    doc = linear_doc(expectations=[{"quantity": "sur", "value": 1.0, "tol": "x"}])
    with pytest.raises(ScenarioError, match=r"^scenario\.expectations\[0\]\.tol: "):
        load_scenario(write_scenario(tmp_path, doc))


def test_load_validates_payload_eagerly():
    with pytest.raises(ScenarioError,
                       match="payload.gamma: missing required field"):
        load_scenario(FIXTURES / "missing_gamma.json")


def test_demo_suite_all_pass():
    paths = sorted(DEMO.glob("*.json"))
    assert len(paths) == 15
    reports = run_suite(paths)
    assert all_expectations_met(reports)
    ids = [r.scenario_id for r in reports]
    assert ids == sorted(ids)


_DELETE = object()

# One field of a bundled scenario changed, and the field path the load error
# must start with. Each was once accepted at load: most then failed at run
# time, two ran without an error, and some crashed the loader with a bare
# TypeError, ValueError, IndexError or KeyError.
LOAD_ERRORS = [
    ("ioffe_descent_newton", {"dg_expr": "2 +"}, "payload.dg_expr"),
    ("ioffe_descent_newton", {"c": "fast"}, "payload.c"),
    ("regularity_modulus_sur", {"modulus_kind": "bogus"}, "payload.modulus_kind"),
    ("regularity_modulus_sur", {"search": {"bisect_iters": "ten"}},
     "payload.search.bisect_iters"),
    ("ioffe_descent_newton", {"oracle": "grid", "cloud": {"grid": {"start": 0.0, "step": 0.1}}},
     "payload.cloud.grid.stop"),
    ("ioffe_descent_newton", {"eps": "tiny"}, "payload.eps"),
    ("ioffe_descent_newton", {"budget": "many"}, "payload.budget"),
    ("perturb_beta_interval", {"a": "ten"}, "payload.a"),
    ("regularity_product_sur_reg", {"kinds": ["sur", "bogus"]}, "payload.kinds[1]"),
    ("ekeland_three_point_trace", {"epsilon": "small"}, "payload.epsilon"),
    ("ekeland_two_constant", {"delta": "half"}, "payload.delta"),
    ("ioffe_criterion_identity", {"epsilons": ["a"]}, "payload.epsilons[0]"),
    ("perturb_lg_single", {"search": {"gamma0": "big"}}, "payload.search.gamma0"),
    ("linear_diag_svd", {"nx": {"kind": "euclidean", "dimension": 3}}, "payload.nx.dimension"),
    ("regularity_openness_pass", {"eps_schedule": ["a"]}, "payload.eps_schedule[0]"),
    ("regularity_modulus_sur", {"search": {"bogus": 1}}, "payload.search.bogus"),
    ("regularity_openness_pass", {"constant": "one"}, "payload.constant"),
    ("regularity_modulus_sur", {"ref": "abc"}, "payload.ref"),
    ("regularity_modulus_sur", {"ref": [[0.0]]}, "payload.ref"),
    ("regularity_openness_pass", {"gamma": {"milyutin": [[5.0]]}}, "payload.gamma.milyutin[0]"),
    ("linear_wide_grid", {"mesh_count": "lots"}, "payload.mesh_count"),
    ("regularity_openness_pass", {"closure_tol": "x"}, "payload.closure_tol"),
    ("regularity_product_sur_reg", {"tol": "loose"}, "payload.tol"),
    ("perturb_lg_single", {"ref": [[0.0], [1.0]]}, "payload.ref"),
    ("regularity_openness_pass", {"gamma": _DELETE}, "payload.gamma"),
    ("regularity_modulus_sur", {"ref": [[0.3], [0.64]]}, "payload.ref"),
    ("regularity_openness_pass", {"map": {"domain": {"grid": {"start": -1.0, "stop": 1.0,
                                                              "step": 0.05}},
                                          "graph_expr": "1 / x"}}, "payload.map.graph_expr"),
    ("regularity_openness_pass", {"map": {"domain": {"grid": {"start": -1.0, "stop": 1.0,
                                                              "step": 0.5}},
                                          "graph_exprs": ["2 * x", "(x - 1) ** 0.5"]}},
     "payload.map.graph_exprs[1]"),
    ("ioffe_descent_newton", {"oracle": "grid", "g_expr": "1 / x",
                              "cloud": {"grid": {"start": -1.0, "stop": 1.0, "step": 0.5}}},
     "payload.g_expr"),
    ("regularity_modulus_sur", {"search": {"closure_tol": -0.5}}, "payload.search.closure_tol"),
    ("regularity_modulus_sur", {"search": {"bisect_iters": -3}}, "payload.search.bisect_iters"),
]


def corrupted(tmp_path: Path, stem: str, changes: dict) -> Path:
    doc = json.loads((DEMO / f"{stem}.json").read_text())
    for key, value in changes.items():
        if value is _DELETE:
            del doc["payload"][key]
        else:
            doc["payload"][key] = value
    return write_scenario(tmp_path, doc)


@pytest.mark.parametrize("stem, changes, field_path", LOAD_ERRORS,
                         ids=[f"{stem}:{path}" for stem, _, path in LOAD_ERRORS])
def test_payload_error_surfaces_at_load_with_field_path(tmp_path, stem, changes, field_path):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(corrupted(tmp_path, stem, changes))
    assert str(exc.value).startswith(f"{field_path}: ")


@pytest.mark.parametrize("changes, field_path", [
    ({"closure_tol": -0.5}, "payload.closure_tol"),
    ({"eps_schedule": [0.4, -0.2]}, "payload.eps_schedule[1]"),
], ids=["closure_tol", "eps_schedule"])
def test_property_payload_error_names_the_field(tmp_path, changes, field_path):
    # Both once failed at the payload as a whole: "payload: closure_tol must
    # be nonnegative" and "payload: eps_schedule must be strictly decreasing
    # and positive".
    with pytest.raises(ScenarioError) as exc:
        load_scenario(corrupted(tmp_path, "regularity_openness_pass", changes))
    assert str(exc.value).startswith(f"{field_path}: must be ")


def test_payload_error_texts_kept(tmp_path):
    for stem, changes, text in (
            ("regularity_openness_pass", {"gamma": _DELETE},
             "payload.gamma: missing required field"),
            ("regularity_modulus_sur", {"ref": [[0.3], [0.64]]},
             "payload.ref: must be a graph pair"),
            ("axioms_euclidean_grid", {"premetric": {"kind": "directional",
                                                     "directions": [[0.6, 0.8]]}},
             "payload.premetric.directions: dimension mismatch")):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(corrupted(tmp_path, stem, changes))
        assert str(exc.value).startswith(text)


@pytest.mark.parametrize("case", [0, 15, 16, 19, 26], ids=lambda i: LOAD_ERRORS[i][2])
def test_cli_exits_2_on_payload_error(tmp_path, capsys, case):
    # A run-time failure, a silently ignored field, two loader crashes and a
    # map expression that fails where it is sampled.
    stem, changes, field_path = LOAD_ERRORS[case]
    assert main(["run", str(corrupted(tmp_path, stem, changes))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field_path}: ")


def _setvalued_doc(**changes) -> dict:
    """An lg_setvalued scenario (F = 2x, H = 0.3 sin x on the 0.05 grid over
    [-1, 1]) with some of its constants changed."""
    grid = {"grid": {"start": -1.0, "stop": 1.0, "step": 0.05}}
    constants = dict(c=1.2, c_prime=1.5, ell=0.4, a=0.3, b=0.3, r=0.15, delta=0.05)
    return {"id": "setvalued", "kind": "perturb", "payload": {
        "check": "lg_setvalued",
        "F": {"domain": grid, "graph_expr": "2 * x"},
        "H": {"domain": grid, "graph_expr": "0.3 * sin(x)"},
        "ref": [[0.0], [0.0], [0.0]],
        "constants": {**constants, **changes}}}


# Each was once accepted at load. The first three then failed at run time
# (a negative extended real, an internal lambda outside (0, 1), a gamma that
# vanishes); a negative delta, and a negative ell, ran without an error.
SETVALUED_LOAD_ERRORS = [
    ({"a": -0.3}, "payload.constants.a"),
    ({"c": -1.0, "ell": -2.0, "c_prime": 1.0}, "payload.constants.c"),
    ({"r": 0.0}, "payload.constants.r"),
    ({"delta": -0.05}, "payload.constants.delta"),
    ({"ell": -0.1}, "payload.constants"),
]


@pytest.mark.parametrize("changes, field_path", SETVALUED_LOAD_ERRORS,
                         ids=[str(changes) for changes, _ in SETVALUED_LOAD_ERRORS])
def test_setvalued_constants_checked_at_load(tmp_path, capsys, changes, field_path):
    path = write_scenario(tmp_path, _setvalued_doc(**changes))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value).startswith(f"{field_path}: ")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field_path}: ")


def test_setvalued_constants_at_their_bounds_load(tmp_path):
    # The unchanged scenario passes; ell = 0 and infinite a, b and r are
    # admissible constants, which run without an error.
    for changes, passed in (({}, True), ({"ell": 0.0, "a": "inf", "b": "inf", "r": "inf"},
                                         False)):
        report, = run_suite([load_scenario(write_scenario(tmp_path, _setvalued_doc(**changes)))])
        assert report.error is None and report.quantities["passed"] is passed


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                         ids=["Infinity", "-Infinity", "1e999", "int 10**400"])
def test_infinite_number_fails_at_load(tmp_path, capsys, literal):
    # json.loads reads Infinity and overflowing literals as infinite floats
    # (or an int beyond the float range). c_prime = Infinity once loaded and
    # then failed at run with an internal lambda outside (0, 1).
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_setvalued_doc(c_prime="@")).replace('"@"', literal))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value).startswith("payload.constants.c_prime: must be finite")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: payload.constants.c_prime: ")


def test_infinite_numbers_load_where_the_reader_allows_them(tmp_path):
    # a, b and r read infinite values, as JSON Infinity or "inf", and so does
    # the bundled "gamma": "inf".
    doc = _setvalued_doc(a=math.inf, b="inf", r=math.inf)
    assert "Infinity" in json.dumps(doc)
    report, = run_suite([load_scenario(write_scenario(tmp_path, doc))])
    assert report.error is None
    scenario = load_scenario(DEMO / "ioffe_criterion_identity.json")
    assert scenario.payload["gamma"] == "inf"


def test_scenarios_are_built_once_at_load(monkeypatch):
    # load_scenario builds the instance to validate it and keeps it; running
    # the scenario, again and again, reuses that instance.
    paths = sorted(DEMO.glob("*.json"))
    loaded = [load_scenario(p) for p in paths]
    expected = emit_report(run_suite(loaded, seed=0), format="machine")

    def no_rebuild(kind, payload):
        raise AssertionError(f"{kind} scenario built again")

    monkeypatch.setattr(scenarios, "_build_instance", no_rebuild)
    for _ in range(2):
        reports = run_suite(loaded, seed=0)
        assert all(r.error is None for r in reports)
        assert emit_report(reports, format="machine") == expected


def test_modulus_scenario_ref_tolerates_grid_roundoff(tmp_path):
    # A modulus ref of [[0.3], [0.6]] on the 0.02 grid names the stored
    # graph pair (0.30000000000000004, 0.6000000000000001): it loads, and it
    # runs to the same quantities as the stored pair.
    doc = json.loads((DEMO / "regularity_modulus_sur.json").read_text())
    runs = []
    for ref in ([[0.3], [0.6]], [[0.30000000000000004], [0.6000000000000001]]):
        doc["payload"]["ref"] = ref
        runs.append(run_suite([load_scenario(write_scenario(tmp_path, doc))])[0])
    assert runs[0].error is None
    assert runs[0].quantities == runs[1].quantities
    doc["payload"]["ref"] = [[0.3], [0.64]]
    with pytest.raises(ScenarioError, match="payload.ref: must be a graph pair"):
        load_scenario(write_scenario(tmp_path, doc))


def test_run_suite_orders_by_id(tmp_path):
    pb = write_scenario(tmp_path, linear_doc(id="zz_later"), name="b.json")
    pa = write_scenario(tmp_path, linear_doc(id="aa_first"), name="a.json")
    reports = run_suite([pb, pa])
    assert [r.scenario_id for r in reports] == ["aa_first", "zz_later"]


def test_run_suite_parallel_matches_serial():
    paths = [DEMO / "axioms_euclidean_grid.json", DEMO / "linear_diag_svd.json"]
    serial = emit_report(run_suite(paths, seed=0, jobs=1), format="machine")
    parallel = emit_report(run_suite(paths, seed=0, jobs=2), format="machine")
    assert serial == parallel


def test_run_suite_captures_errors_without_aborting(tmp_path):
    broken = {
        "kind": "ekeland",
        "payload": {
            "cloud": {"grid": {"start": -1.0, "stop": 1.0, "step": 0.25}},
            "premetric": {"kind": "euclidean"},
            "objective": {"expr": "x * x"},
            "start": [0.0],  # objective minimum: two_constant cannot shift
            "mode": "two_constant", "delta": 0.5, "r": 1.0,
        },
        "expectations": [{"quantity": "radius_ok", "equals": True}],
    }
    pb = write_scenario(tmp_path, broken, name="broken.json")
    pg = write_scenario(tmp_path, linear_doc(id="zz_good"), name="good.json")
    reports = run_suite([pb, pg])
    assert reports[0].error is not None and "ValueError" in reports[0].error
    assert reports[1].error is None
    assert not all_expectations_met(reports)


def test_expectation_modes(tmp_path):
    doc = linear_doc(expectations=[
        {"quantity": "sur", "equals": 2.0},
        {"quantity": "sur", "value": 1.0, "tol": 1e-9},
        {"quantity": "bracket", "bracket_contains": 1.0},
        {"quantity": "missing_thing", "equals": 1},
        {"quantity": "sur", "bracket_contains": 1.0},
    ])
    (report,) = run_suite([write_scenario(tmp_path, doc)])
    marks = [e["ok"] for e in report.expectations]
    assert marks == [False, True, True, False, False]
    assert report.expectations[3]["note"] == "quantity missing from results"
    assert "two-element bracket" in report.expectations[4]["note"]


def test_expectation_value_on_non_numeric(tmp_path):
    doc = {
        "kind": "axioms",
        "payload": {
            "cloud": {"grid": {"start": 0.0, "stop": 1.0, "step": 0.5}},
            "premetric": {"kind": "euclidean"},
            "sequences": [[0, 1, 1, 1]],
        },
        "expectations": [{"quantity": "A4", "value": 1.0, "tol": 0.1}],
    }
    (report,) = run_suite([write_scenario(tmp_path, doc)])
    assert report.expectations[0]["ok"] is False
    assert report.expectations[0]["note"] == "quantity is not numeric"


def test_bracket_on_polyhedral_rate(tmp_path):
    doc = linear_doc(
        payload={"op": "sur", "matrix": [[1.0, 1.0], [0.0, 1.0]],
                 "nx": {"kind": "sup"}, "ny": {"kind": "sup"},
                 "method": "grid"},
        expectations=[{"quantity": "bracket", "bracket_contains": 0.5}])
    (report,) = run_suite([write_scenario(tmp_path, doc)])
    assert report.expectations[0]["ok"]


def test_bracket_accepts_rendered_infinite_upper():
    exp = {"quantity": "b", "bracket_contains": 1e9}
    assert _check_expectation(exp, {"b": (1.0, "inf")}, 1.0)["ok"]
    assert not _check_expectation(exp, {"b": (1.0, 2.0)}, 1.0)["ok"]


def test_tolerance_scale_loosens_value_checks(tmp_path):
    doc = linear_doc(expectations=[
        {"quantity": "sur", "value": 1.05, "tol": 0.01}])
    p = write_scenario(tmp_path, doc)
    (tight,) = run_suite([p], tolerance_scale=1.0)
    (loose,) = run_suite([p], tolerance_scale=10.0)
    assert not tight.expectations[0]["ok"]
    assert loose.expectations[0]["ok"]


def test_emit_text_report(tmp_path):
    good = write_scenario(tmp_path, linear_doc(id="good"), name="g.json")
    bad = write_scenario(tmp_path, linear_doc(
        id="off", expectations=[{"quantity": "sur", "equals": 9}]),
        name="b.json")
    text = emit_report(run_suite([good, bad]), format="text").decode()
    assert "[pass] good (linear" in text
    assert "[FAIL] off (linear" in text
    assert text.rstrip().endswith("expectations FAILED")
    only_good = emit_report(run_suite([good]), format="text").decode()
    assert only_good.rstrip().endswith("all expectations met")


def test_emit_machine_report_byte_stable(tmp_path):
    p = write_scenario(tmp_path, linear_doc())
    first = emit_report(run_suite([p], seed=7), format="machine")
    second = emit_report(run_suite([p], seed=7), format="machine")
    assert first == second
    assert first.endswith(b"\n")
    doc = json.loads(first)
    assert doc["seed"] == 7
    assert doc["reports"][0]["wall_time"] is None
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report([], format="yaml")


def test_jsonable_rounding_and_infinities():
    assert _round12(1.0000000000001) == 1.0
    assert _round12(float("inf")) == float("inf")
    assert _jsonable(float("inf")) == "inf"
    assert _jsonable(float("-inf")) == "-inf"
    assert _jsonable((1.0, "inf")) == [1.0, "inf"]
    assert _jsonable({"a": True}) == {"a": True}
    assert _jsonable(0.1234567890123456789) == 0.123456789012


def test_cli_exit_codes(tmp_path, capsysbinary):
    assert main(["run", str(DEMO / "linear_diag_svd.json")]) == 0
    out = capsysbinary.readouterr().out.decode()
    assert "all expectations met" in out
    assert main(["run", str(FIXTURES / "failing_openness.json")]) == 1
    assert main(["run", str(FIXTURES / "malformed.json")]) == 2
    err = capsysbinary.readouterr().err.decode()
    assert "parse error at line 3, column 1" in err
    assert main(["run", str(FIXTURES / "missing_gamma.json")]) == 2


def test_cli_machine_format(capsysbinary):
    assert main(["run", "--format", "machine",
                 str(DEMO / "linear_diag_svd.json")]) == 0
    out = capsysbinary.readouterr().out
    doc = json.loads(out)
    assert doc["reports"][0]["id"] == "linear_diag_svd"


def test_machine_report_matches_golden(capsysbinary):
    # The golden file freezes the byte-exact machine report of the bundled
    # suite; any change to a verdict, bracket or witness shows up here.
    paths = [str(p) for p in sorted(DEMO.glob("*.json"))]
    assert main(["run", "--jobs", "1", "--format", "machine", *paths]) == 0
    golden = (FIXTURES / "suite_machine.golden").read_bytes()
    assert capsysbinary.readouterr().out == golden


def test_cli_argument_errors():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--jobs", "0", str(DEMO / "linear_diag_svd.json")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--tolerance-scale", "0",
              str(DEMO / "linear_diag_svd.json")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_jobs_env_default(monkeypatch):
    monkeypatch.setenv("ALMOSTREG_JOBS", "3")
    parser = _build_parser()
    args = parser.parse_args(["run", "x.json"])
    assert args.jobs == 3
    monkeypatch.delenv("ALMOSTREG_JOBS")
    args = _build_parser().parse_args(["run", "x.json"])
    assert args.jobs == 1


def test_directional_premetric_dimension_checked_at_load(tmp_path):
    # A 2-D direction on the 1-D grid was accepted and ran; it is now a
    # schema error under the directions field.
    doc = json.loads((DEMO / "axioms_euclidean_grid.json").read_text())
    doc["payload"]["premetric"] = {"kind": "directional", "directions": [[0.6, 0.8]]}
    with pytest.raises(ScenarioError,
                       match=r"payload\.premetric\.directions: dimension mismatch"):
        load_scenario(write_scenario(tmp_path, doc))
    doc["payload"]["premetric"]["directions"] = [[1.0]]
    (report,) = run_suite([load_scenario(write_scenario(tmp_path, doc))])
    assert report.error is None


def test_directional_premetric_claims_triangle_only_on_a_line(tmp_path, capsys):
    # Two rays at a right angle: their cone breaks the triangle inequality,
    # so the gauge does not claim A2, and its A2 failure fails no claim.
    doc = {"kind": "axioms",
           "payload": {"cloud": {"points": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                       "premetric": {"kind": "directional",
                                     "directions": [[1, 0], [0, 1]]}},
           "expectations": [{"quantity": "claimed_ok", "equals": True},
                            {"quantity": "A2", "equals": "fail"}]}
    path = write_scenario(tmp_path, doc)
    (report,) = run_suite([load_scenario(path)])
    assert report.quantities["claimed_ok"] is True
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    # A single direction and a +- pair claim A2, and it holds.
    for directions in ([[1, 0]], [[1, 0], [-1, 0]]):
        doc["payload"]["premetric"]["directions"] = directions
        doc["expectations"][1]["equals"] = "pass"
        (report,) = run_suite([load_scenario(write_scenario(tmp_path, doc))])
        assert report.error is None and all_expectations_met([report])

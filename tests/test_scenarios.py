"""Scenario loading, suite execution, report emission, and the CLI."""
from __future__ import annotations

import json
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

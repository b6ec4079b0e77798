"""Command-line interface tests driven by the bundled fixture corpus."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import logconnect
from logconnect import FuchsianSystem, RiccatiSystem
from logconnect.cli import main
from logconnect.serialization import validate_schema

ROOT = pathlib.Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"
MANIFEST = json.loads((FIXTURES / "manifest.json").read_text())


def invoke(args, env=None):
    runner = CliRunner()
    fixed = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
    return runner.invoke(main, fixed, env=env, catch_exceptions=False)


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=lambda e: " ".join(e["args"]))
def test_manifest_exit_codes(entry):
    result = invoke(entry["args"])
    assert result.exit_code == entry["expect"], result.output


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=lambda e: " ".join(e["args"]))
def test_output_is_verdict_json(entry):
    result = invoke(entry["args"])
    doc = json.loads(result.output)
    assert set(doc) == {"status", "payload", "diagnostics"}
    assert doc["status"] == {0: "ok", 1: "fail", 2: "error"}[entry["expect"]]


def test_byte_stable_across_runs():
    for entry in MANIFEST:
        a = invoke(entry["args"]).output
        b = invoke(entry["args"]).output
        assert a == b, entry["args"]


def test_installed_entry_point():
    """Run the ``logconnect`` script declared in pyproject.toml as a process.

    The declared ``module:attr`` target is called in a fresh interpreter the
    way pip's installed wrapper calls it, so the exit code and stdout are
    those of a real process.  No install is needed: the child imports the
    same ``logconnect`` package as this test session.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, attr = project["project"]["scripts"]["logconnect"].split(":")
    src = str(pathlib.Path(logconnect.__file__).parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())",
         "check-flat", str(FIXTURES / "fuchsian_quarter.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["status"] == "ok"


def test_projectivize_output_reparses():
    result = invoke(["projectivize", "fuchsian_two_poles.json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["payload"]
    obj = validate_schema(payload)
    assert isinstance(obj, RiccatiSystem)
    assert obj.m == 2


def test_lift_trace_free_output_reparses():
    result = invoke(["lift-trace-free", "riccati_from_fuchsian.json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["payload"]
    obj = validate_schema(payload)
    # a trace-free rational lift of the projectivized system
    assert isinstance(obj, (FuchsianSystem, type(obj)))


def test_error_reports_json_pointer():
    result = invoke(["check-flat", "bad_schema.json"])
    assert result.exit_code == 2
    doc = json.loads(result.output)
    assert doc["payload"]["pointer"].startswith("/residues/0")

    result = invoke(["check-flat", "duplicate_poles.json"])
    doc = json.loads(result.output)
    assert doc["payload"]["pointer"] == "/poles/1"


def test_missing_file_is_error():
    result = invoke(["residues", "no_such_file.json"])
    assert result.exit_code == 2


def test_unknown_type_is_error():
    runner = CliRunner()
    with runner.isolated_filesystem():
        pathlib.Path("odd.json").write_text('{"type": "mystery"}')
        result = runner.invoke(main, ["check-flat", "odd.json"])
    assert result.exit_code == 2
    assert "/type" in result.output


def test_monodromy_matches_residue_exponential():
    result = invoke(["monodromy", "fuchsian_quarter.json"])
    payload = json.loads(result.output)["payload"]
    M = np.array([[complex(*e) for e in row]
                  for row in payload["matrices"][0]])
    expected = np.diag([np.exp(2j * np.pi * 0.25), 1.0])
    assert np.linalg.norm(M - expected) < 1e-8


def test_tolerance_env_var_respected():
    # eigenvalues 1 and 5/2 sit 0.5 away from an integer gap, so a sloppy
    # global tolerance flips the nonresonance verdict
    result = invoke(["predicates", "matrix_pm_ok.json"],
                    env={"LOGCONNECT_TOL": "0.6"})
    assert result.exit_code == 1
    # and an explicit flag wins over the environment
    result = invoke(["predicates", "matrix_pm_ok.json", "--tol", "1e-9"],
                    env={"LOGCONNECT_TOL": "0.6"})
    assert result.exit_code == 0


def test_exponent_payload():
    result = invoke(["exponent", "presentation_heisenberg.json"])
    payload = json.loads(result.output)["payload"]
    assert payload["nu"] == 2


def test_lift_rep_obstruction_reported():
    result = invoke(["lift-rep", "presentation_heisenberg.json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)["payload"]
    scalars = [complex(*s) for s in payload["obstruction_scalars"]]
    assert any(abs(s + 1) < 1e-9 for s in scalars)


@pytest.mark.parametrize("fixture, var, code", [
    ("local_model_commuting.json", "5", 2),
    ("local_model_commuting.json", "2", 2),
    ("local_model_commuting.json", "-1", 2),
    ("local_model_commuting.json", "1", 0),
    ("fuchsian_quarter.json", "5", 2),
    ("fuchsian_quarter.json", "1", 2),
    ("fuchsian_quarter.json", "-1", 2),
    ("fuchsian_quarter.json", "0", 0),
])
def test_pullback_var_range(fixture, var, code):
    result = invoke(["pullback", fixture, "--var", var, "--nu", "2"])
    assert result.exit_code == code, result.output
    doc = json.loads(result.output)
    assert doc["status"] == {0: "ok", 2: "error"}[code]
    if code == 2:
        assert doc["payload"]["error"] == "ValueError"


def test_pullback_in_branchless_variable_is_identity(tmp_path):
    # x2 carries no branch, so omega has no dx2 term to pull back
    doc = {"type": "local_model", "rank": 2, "vars": 2,
           "residues": [[[[1, 0], [0, 0]], [[0, 0], ["1/2", 0]]]]}
    path = tmp_path / "one_branch.json"
    path.write_text(json.dumps(doc))
    result = invoke(["pullback", str(path), "--var", "1", "--nu", "3"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["vars"] == 2
    assert payload["residues"] == [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]


@pytest.mark.parametrize("den, pointer", [
    ({"2": [1, 0]}, "/components/0/0/0"),                # 1/x^2 along x = 0
    ({"3": [1, 0], "2": [-1, 0]}, "/components/0/0/0"),  # 1/(x^2 (x - 1))
])
def test_double_pole_is_schema_error(tmp_path, den, pointer):
    doc = {"type": "log_connection", "rank": 1, "vars": ["x"],
           "divisor": [{"var": 0, "value": [0, 0]}],
           "components": [[[{"num": {"0": [1, 0]}, "den": den}]]]}
    path = tmp_path / "double_pole.json"
    path.write_text(json.dumps(doc))
    result = invoke(["residues", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "SchemaViolation"
    assert payload["pointer"] == pointer


def test_simple_pole_off_the_origin_still_parses(tmp_path):
    # 1/((x - 1)(x - 2)^2) is logarithmic along the declared branch x = 1
    doc = {"type": "log_connection", "rank": 1, "vars": ["x"],
           "divisor": [{"var": 0, "value": [1, 0]}],
           "components": [[[{"num": {"0": [1, 0]},
                             "den": {"3": [1, 0], "2": [-5, 0], "1": [8, 0],
                                     "0": [-4, 0]}}]]]}
    path = tmp_path / "simple_pole.json"
    path.write_text(json.dumps(doc))
    result = invoke(["residues", str(path)])
    assert result.exit_code == 0, result.output
    R = json.loads(result.output)["payload"]["residues"][0]
    assert complex(*R[0][0]) == pytest.approx(1.0)

"""Command-line interface tests driven by the bundled fixture corpus."""

import importlib.util
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from click.testing import CliRunner
from scipy.linalg import expm as mat_exp

import logconnect
from logconnect import FuchsianSystem, RiccatiSystem, projective, realize_fuchsian
from logconnect.cli import main
from logconnect.ratfunc import RationalFunction
from logconnect.serialization import ratfunc_to_json, system_to_json, validate_schema

ROOT = pathlib.Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"
MANIFEST = json.loads((FIXTURES / "manifest.json").read_text())


HEAVY = ("sympy", "scipy.linalg", "scipy.integrate")
# numpy and the package's modules that import it, which only the numeric verbs load
NUMERIC = ("numpy", "logconnect.algebra", "logconnect.lifting")
# Runs the CLI's main, then writes to stderr which HEAVY and NUMERIC modules it loaded.
PROBE = (
    "import sys\n"
    "from logconnect.cli import main\n"
    "try:\n    main(sys.argv[1:])\n"
    "except SystemExit as exc:\n    code = exc.code\n"
    f"print('LOADED', *(m for m in {HEAVY + NUMERIC!r} if m in sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
# the verbs that compute exactly, from and to ``ratfunc``'s Gaussian-rational types
EXACT_VERBS = {"check-flat", "residues", "projectivize", "reconstruct", "lift-trace-free",
               "pullback"}


def run_process(args, env=None, code=PROBE):
    """Run ``code`` with ``args`` in a fresh interpreter that imports this
    session's ``logconnect``: (exit code, stdout, heavy and numeric modules it loaded)."""
    src = str(pathlib.Path(logconnect.__file__).parent.parent)
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    fixed = [str(FIXTURES / a) if a.endswith(".json") and "/" not in a else a for a in args]
    r = subprocess.run([sys.executable, "-c", code, *fixed], capture_output=True, text=True,
                       timeout=60, env={**os.environ, "PYTHONPATH": pythonpath, **(env or {})})
    loaded = [line.split()[1:] for line in r.stderr.splitlines() if line.startswith("LOADED")]
    assert loaded, r.stderr
    return r.returncode, r.stdout, set(loaded[-1])


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


def test_fixture_corpus_is_what_its_generator_writes():
    spec = importlib.util.spec_from_file_location("generate", FIXTURES / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    docs = generate.documents()
    assert sorted(docs) == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name, doc in docs.items():
        assert generate.render(doc) == (FIXTURES / name).read_text(), name


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


def test_negative_exponent_is_schema_error(tmp_path):
    doc = {"type": "log_connection", "rank": 1, "vars": ["x"],
           "divisor": [{"var": 0, "value": [0, 0]}],
           "components": [[[{"num": {"-1": [1, 0]}, "den": {"0": [1, 0]}}]]]}
    path = tmp_path / "negative_exponent.json"
    path.write_text(json.dumps(doc))
    result = invoke(["residues", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "SchemaViolation"
    assert payload["pointer"] == "/components/0/0/0/num/-1"


@pytest.mark.parametrize("verb, doc, pointer", [
    ("check-flat", {"type": "fuchsian", "rank": 0, "poles": [], "residues": []}, "/rank"),
    ("check-flat", {"type": "fuchsian", "rank": True, "poles": [[0, 0]],
                    "residues": [[[[0.25, 0]]]]}, "/rank"),
    ("check-flat", {"type": "fuchsian", "rank": -1, "poles": [], "residues": []}, "/rank"),
    ("predicates", {"type": "matrix", "rank": 1, "matrix": [[[float("nan"), 0]]]},
     "/matrix/0/0/0"),
    ("predicates", {"type": "matrix", "rank": 1, "matrix": [[[0, float("inf")]]]},
     "/matrix/0/0/1"),
    ("check-flat", {"type": "fuchsian", "rank": 1, "poles": [[0, 0]],
                    "residues": [[[["1/0", 0]]]]}, "/residues/0/0/0/0"),
    ("check-flat", {"type": "local_model", "rank": 1, "vars": True,
                    "residues": [[[[1, 0]]]]}, "/vars"),
    ("residues", {"type": "log_connection", "rank": 1, "vars": ["x", "y"],
                  "divisor": [{"var": True, "value": [0, 0]}],
                  "components": [[[{"num": {"0,0": [0, 0]}, "den": {"0,0": [1, 0]}}]],
                                 [[{"num": {"0,0": [1, 0]}, "den": {"0,1": [1, 0]}}]]]},
     "/divisor/0/var"),
], ids=["rank 0", "rank true", "rank -1", "NaN", "Infinity", "fraction 1/0",
        "vars true", "divisor var true"])
def test_bad_rank_or_scalar_is_schema_error(tmp_path, verb, doc, pointer):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # writes NaN and Infinity as bare literals
    result = invoke([verb, str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "SchemaViolation"
    assert payload["pointer"] == pointer


@pytest.mark.parametrize("part", [10 ** 400, "1e400", f"-{10 ** 400}/3"], ids=["int", "e", "p/q"])
@pytest.mark.parametrize("kind", ["matrix", "presentation"])
def test_scalar_beyond_float_range_is_schema_error(tmp_path, part, kind):
    # numeric documents are read to complex numbers, which cannot hold these
    entry = [[[1, 0], [0, part]], [[0, 0], [1, 0]]]
    if kind == "matrix":
        verb, doc, pointer = "predicates", {"matrix": entry}, "/matrix/0/1"
    else:
        verb, doc, pointer = "exponent", {"generators": {"g": entry}}, "/generators/g/0/1"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"type": kind, "rank": 2, **doc}))
    result = invoke([verb, str(path)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["payload"]["pointer"] == pointer


def test_riccati_missing_offdiag_is_schema_error(tmp_path):
    F = FuchsianSystem(3, [0, 1], [[[1, 0, 0], [0, 0, 1], [0, 0, sp.Rational(1, 2)]],
                                   [[0, 1, 0], [0, 0, 0], [1, 0, 0]]])
    doc = system_to_json(projective.projectivize(F))
    assert doc["offdiag"]
    del doc["offdiag"]
    path = tmp_path / "no_offdiag.json"
    path.write_text(json.dumps(doc))
    result = invoke(["lift-trace-free", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "SchemaViolation"
    assert payload["pointer"] == "/offdiag"
    assert "0,1" in payload["message"]


@pytest.mark.parametrize("key", ["5,7", "1,1", "0,2", "-1,0"])
def test_riccati_offdiag_pair_outside_the_rank_is_schema_error(tmp_path, key):
    # rank 3: the off-diagonal pairs are i != k with i, k in {0, 1}
    F = FuchsianSystem(3, [0, 1], [[[1, 0, 0], [0, 0, 1], [0, 0, sp.Rational(1, 2)]],
                                   [[0, 1, 0], [0, 0, 0], [1, 0, 0]]])
    doc = system_to_json(projective.projectivize(F))
    doc["offdiag"][key] = doc["offdiag"]["0,1"]
    path = tmp_path / "extra_offdiag.json"
    path.write_text(json.dumps(doc))
    result = invoke(["lift-trace-free", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "SchemaViolation"
    assert payload["pointer"] == f"/offdiag/{key}"


def test_zero_numerator_serializes_as_its_constant_term():
    x, y = sp.symbols("x y")
    for gens, key in [((x,), "0"), ((x, y), "0,0")]:
        zero = ratfunc_to_json(RationalFunction.zero(gens))
        assert zero == {"num": {key: [0.0, 0.0]}, "den": {key: [1.0, 0.0]}}


@pytest.mark.parametrize("verb", ["realize-local", "realize-fuchsian"])
def test_presentation_without_generators_is_error(tmp_path, verb):
    path = tmp_path / "no_generators.json"
    path.write_text(json.dumps({"type": "presentation", "rank": 2, "generators": {}}))
    result = invoke([verb, str(path)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["payload"]["error"] == "ValueError"


def kronecker_gauge(A, taus, order):
    """G_0..G_order of A G_k - G_k (A + k I) = -sum_d T_d G_{k-1-d}, by Kronecker solves.

    vec(A X - X B) is (I (x) A - B^T (x) I) vec(X) in column-major order.
    """
    m = A.shape[0]
    eye = np.eye(m)
    G = [eye.astype(complex)]
    for k in range(1, order + 1):
        rhs = -sum(T @ G[k - 1 - d] for d, T in enumerate(taus) if k - 1 - d >= 0)
        K = np.kron(eye, A) - np.kron((A + k * eye).T, eye)
        G.append(np.linalg.solve(K, rhs.ravel(order="F")).reshape((m, m), order="F"))
    return G


def _entry(num, den):
    return {"num": num, "den": den}


DEN_X = {"1": [1, 0]}
DEN_ONE = {"0": [1, 0]}


@pytest.mark.parametrize("components, A, taus", [
    # exact residues such as 1/3, which no binary float represents
    ([[_entry({"0": ["1/3", 0], "1": [1, 0]}, DEN_X), _entry({"1": ["2/7", 0]}, DEN_ONE)],
      [_entry({"0": ["1/2", "1/3"]}, DEN_X), _entry({"0": ["-1/3", 0], "2": [1, 0]}, DEN_X)]],
     [[1 / 3, 0], [0.5 + 1j / 3, -1 / 3]],
     [[[1, 0], [0, 0]], [[0, 2 / 7], [0, 1]]]),
    # (0.3x + 0.1)/(0.3x): a float denominator that is not monic
    ([[_entry({"1": [0.3, 0], "0": [0.1, 0]}, {"1": [0.3, 0]}), _entry({"0": [0.2, 0]}, DEN_ONE)],
      [_entry({"0": [0, 0]}, DEN_ONE), _entry({"0": [0.7, 0], "1": [0.1, 0.2]}, DEN_X)]],
     [[0.1 / 0.3, 0], [0, 0.7]],
     [[[1, 0.2], [0, 0.1 + 0.2j]]]),
], ids=["exact thirds", "float 0.3x"])
def test_normalize_reads_the_exact_series(tmp_path, components, A, taus):
    doc = {"type": "log_connection", "rank": 2, "vars": ["x"],
           "divisor": [{"var": 0, "value": [0, 0]}], "components": [components]}
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    result = invoke(["normalize", str(path), "--order", "8"])
    assert result.exit_code == 0, result.output
    got = json.loads(result.output)["payload"]["coefficients"]
    want = kronecker_gauge(np.array(A, dtype=complex),
                           [np.array(T, dtype=complex) for T in taus], 8)
    assert len(got) == len(want)
    for G, W in zip(got, want):
        G = np.array([[complex(*e) for e in row] for row in G])
        assert np.max(np.abs(G - W)) <= 1e-9 * max(1.0, np.max(np.abs(W)))


def test_importing_the_cli_loads_no_heavy_library():
    code = ("import sys, logconnect.cli; print('LOADED', *(m for m in "
            f"{HEAVY + NUMERIC!r} if m in sys.modules), file=sys.stderr)")
    assert run_process([], code=code)[2] == set()


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=lambda e: " ".join(e["args"]))
def test_each_verb_loads_only_its_libraries(entry):
    # no verb loads a HEAVY library; the exact verbs run on click alone, and
    # the numeric ones add numpy and the modules that import it
    code, _, loaded = run_process(entry["args"])
    assert code == entry["expect"]
    assert loaded <= set(NUMERIC), loaded
    if entry["args"][0] in EXACT_VERBS:
        assert loaded == set(), loaded


@pytest.mark.parametrize("args, expect", [
    *(pytest.param(e["args"], e["expect"], id=" ".join(e["args"])) for e in MANIFEST),
    pytest.param(["residues", str(ROOT / "perfbench" / "double_pole.json")], 2,
                 id="residues perfbench/double_pole.json"),
])
def test_every_verb_runs_without_scipy(args, expect):
    # with scipy unimportable, each command answers as it does with scipy at hand
    code, out, _ = run_process(args, code="import sys\nsys.modules['scipy'] = None\n" + PROBE)
    assert code == expect, out
    assert out == invoke(args).output


def test_scipy_is_not_a_runtime_dependency():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in project["dependencies"]}
    assert "scipy" not in names, names


def test_a_double_pole_is_refused_without_sympy():
    code, out, loaded = run_process(["residues", str(ROOT / "perfbench" / "double_pole.json")])
    assert (code, json.loads(out)["status"]) == (2, "error")
    assert loaded == set(), loaded


# every name the package exported when it imported all its submodules eagerly
EXPORTED = {
    "algebra": ["commuting", "sylvester_solve"],
    "connections": ["FuchsianSystem", "GaugeSeries", "LocalModel", "LogConnection",
                    "flatness_check", "poincare_defect", "poincare_normalize",
                    "pullback_power", "residue"],
    "lifting": ["LiftReport", "ProjectivePresentation", "lift_commuting", "lifting_exponent",
                "local_realize", "realize_fuchsian", "verify_lift_after_power"],
    "monodromy": ["ArcSegment", "LineSegment", "LoopPath", "MonodromyRep", "circle_loop",
                  "monodromy_rep", "projective_monodromy", "relation_check", "standard_loops",
                  "transport"],
    "projective": ["ProjectiveClass", "RiccatiSystem", "nonresonant", "proj_equal",
                   "projectivize", "property_Pm", "reconstruct", "trace_free_lift"],
    "ratfunc": ["RationalFunction"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_exported_name_is_the_submodules_object(module, name):
    namespace = {}
    exec(f"from logconnect import {name} as value", namespace)
    submodule = importlib.import_module(f"logconnect.{module}")
    assert namespace["value"] is getattr(submodule, name)


def test_all_lists_the_exported_names():
    assert sorted(logconnect.__all__) == sorted(n for names in EXPORTED.values() for n in names)


@pytest.mark.parametrize("args, env", [
    (["predicates", "matrix_pm_bad.json", "--tol", "nan"], None),
    (["predicates", "matrix_pm_bad.json", "--tol", "-1"], None),
    (["predicates", "matrix_pm_ok.json", "--tol", "inf"], None),
    (["check-flat", "fuchsian_quarter.json", "--tol", "0"], None),
    (["check-flat", "local_model_noncommuting.json"], {"LOGCONNECT_TOL": "-inf"}),
    (["monodromy", "fuchsian_quarter.json"], {"LOGCONNECT_TOL": "nan"}),
    (["monodromy", "fuchsian_quarter.json"], {"LOGCONNECT_TOL": "0"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_bad_tolerance_is_error(args, env):
    code, out, _ = run_process(args, env)
    assert code == 2, out
    payload = json.loads(out)["payload"]
    assert payload["error"] == "ValueError"
    assert ("--tol" if "--tol" in args else "LOGCONNECT_TOL") in payload["message"]


@pytest.mark.parametrize("fixture", ["fuchsian_quarter.json", "bad_schema.json"])
def test_unwritable_output_prints_an_error_verdict(tmp_path, fixture):
    target = tmp_path / "missing" / "out.json"
    result = invoke(["check-flat", fixture, "--output", str(target)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "FileNotFoundError"
    assert not target.exists()


def test_residue_with_a_pole_at_a_sample_point_is_error(tmp_path):
    # along x = 0 the residue of 1/(x (y - c)) is 1/(y - c), which has a pole at
    # y = c, a point where a sampled check would divide by zero
    den = {"1,1": [1, 0], "1,0": [-0.37, -0.21]}
    doc = {"type": "log_connection", "rank": 1, "vars": ["x", "y"],
           "divisor": [{"var": 0, "value": [0, 0]}],
           "components": [[[_entry({"0,0": [1, 0]}, den)]],
                          [[_entry({"0,0": [0, 0]}, {"0,0": [1, 0]})]]]}
    path = tmp_path / "pole_at_sample.json"
    path.write_text(json.dumps(doc))
    result = invoke(["residues", str(path)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["payload"]["error"] == "NonConstantResidue"


def _gaussian_json(z):
    """A ``GaussianRational`` as an exact [re, im] pair of fraction strings."""
    return [str(Fraction(z.re, z.den)), str(Fraction(z.im, z.den))]


def test_residue_that_vanishes_at_sample_points_is_not_constant(tmp_path):
    # along x = 0 the residue of (1 + (y - a)(y - b)(y - c))/x is the cubic itself; it
    # is 1 at the dyadic a, b, c of 0.37+0.21i, -0.52+0.8i and 1.13-0.44i, so a check
    # that samples the branch at those points sees the constant [[1]]
    from logconnect.ratfunc import gaussian

    a, b, c = (gaussian(Fraction(re), Fraction(im))
               for re, im in ((0.37, 0.21), (-0.52, 0.8), (1.13, -0.44)))
    num = {"0,3": [1, 0], "0,2": _gaussian_json(-(a + b + c)),
           "0,1": _gaussian_json(a * b + a * c + b * c), "0,0": _gaussian_json(-(a * b * c) + 1)}
    doc = {"type": "log_connection", "rank": 1, "vars": ["x", "y"],
           "divisor": [{"var": 0, "value": [0, 0]}],
           "components": [[[_entry(num, {"1,0": [1, 0]})]],
                          [[_entry({"0,0": [0, 0]}, {"0,0": [1, 0]})]]]}
    path = tmp_path / "vanishing_at_samples.json"
    path.write_text(json.dumps(doc))
    code, out, loaded = run_process(["residues", str(path)])
    assert code == 2, out
    assert json.loads(out)["payload"]["error"] == "NonConstantResidue"
    assert loaded == set(), loaded


@pytest.mark.parametrize("doc, pointer", [
    ({"type": "log_connection", "rank": 1, "vars": ["x"],
      "divisor": [{"var": 0, "value": [10 ** 400, 0]}],
      "components": [[[_entry({"0": [1, 0]}, {"1": [1, 0], "0": [-10 ** 400, 0]})]]]},
     "/divisor/0/value"),
    ({"type": "local_model", "rank": 1, "residues": [[[[10 ** 400, 0]]]]}, "/residues/0/0/0"),
    ({"type": "fuchsian", "rank": 1, "poles": [[0, 0]], "residues": [[[[0, f"{10 ** 400}/3"]]]]},
     "/residues/0/0/0"),
], ids=["branch-value", "local-model-residue", "fuchsian-residue"])
@pytest.mark.parametrize("verb", ["residues", "projectivize"])
def test_value_beyond_float_range_is_refused_at_its_pointer(tmp_path, doc, pointer, verb):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    result = invoke([verb, str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert (payload["error"], payload["pointer"]) == ("SchemaViolation", pointer)


@pytest.mark.parametrize("pole, exact, realized_exact", [
    ([0.3, 0], False, False), ([0, 0.5], False, False),
    (["3/10", 0], True, False), ([2, -1], True, True)])
def test_float_pole_or_branch_makes_the_data_inexact(pole, exact, realized_exact):
    residue = [[[1, 0]]]  # exact, so the pole alone decides
    system = validate_schema({"type": "fuchsian", "rank": 1, "poles": [[5, 0], pole],
                              "residues": [residue, residue]})
    assert system.exact is exact
    zero = _entry({"0": [0, 0]}, {"0": [1, 0]})
    conn = validate_schema({"type": "log_connection", "rank": 1, "vars": ["x"],
                            "divisor": [{"var": 0, "value": pole}], "components": [[[zero]]]})
    assert conn.exact is exact
    ric = validate_schema({"type": "riccati", "rank": 2, "vars": ["x"],
                           "divisor": [{"var": 0, "value": pole}],
                           "b": [[zero]], "delta": [[zero]], "c": [[zero]]})
    assert ric.exact is exact
    # presentations are numeric: poles are read to complex numbers like the
    # generators, which are exact only with integer parts
    pres = validate_schema({"type": "presentation", "rank": 1,
                            "generators": {"a": residue}, "poles": [pole]})
    assert realize_fuchsian(pres).exact is realized_exact


ARC = {"kind": "arc", "center": [0, 0], "radius": 1, "from_angle": 0,
       "to_angle": 6.283185307179586}


@pytest.mark.parametrize("segment, pointer", [
    ({**ARC, "radius": "1"}, "/radius"), ({**ARC, "radius": None}, "/radius"),
    ({**ARC, "radius": True}, "/radius"), ({**ARC, "radius": 0}, "/radius"),
    ({**ARC, "radius": -1.0}, "/radius"), ({**ARC, "from_angle": "0"}, "/from_angle"),
    ({**ARC, "to_angle": None}, "/to_angle"), ({**ARC, "to_angle": 10 ** 400}, "/to_angle"),
    (3, ""), ([ARC], "")])
def test_malformed_loop_is_schema_error(tmp_path, segment, pointer):
    path = tmp_path / "loops.json"
    path.write_text(json.dumps([{"basepoint": [1, 0], "segments": [segment]}]))
    result = invoke(["monodromy", "fuchsian_quarter.json", "--loops", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "SchemaViolation"
    assert payload["pointer"] == "/loops/0/segments/0" + pointer


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_loop_radius_is_schema_error(tmp_path, value):
    # a NaN radius used to send solve_ivp into an endless loop, hence the process
    path = tmp_path / "loops.json"
    path.write_text(json.dumps([{"basepoint": [1, 0], "segments": [ARC]}])
                    .replace('"radius": 1', f'"radius": {value}'))
    code, out, _ = run_process(["monodromy", "fuchsian_quarter.json", "--loops", str(path)])
    assert code == 2, out
    assert json.loads(out)["payload"]["pointer"] == "/loops/0/segments/0/radius"


def _line_entry(den):
    return {"type": "log_connection", "rank": 1, "vars": ["x"],
            "divisor": [{"var": 0, "value": [0.3, 0]}],
            "components": [[[_entry({"0": [1, 0]}, den)]]]}


@pytest.mark.parametrize("constant", ["-3/10", -0.3])
def test_float_branch_meets_the_pole_it_rounds(tmp_path, constant):
    # the branch 0.3 is a float, so x - 3/10 vanishes on it within tolerance
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(_line_entry({"1": [1, 0], "0": [constant, 0]})))
    result = invoke(["residues", str(path)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["payload"]["residues"] == [[[[1.0, 0.0]]]]


@pytest.mark.parametrize("den", [{"2": [1, 0], "1": ["-3/5", 0], "0": ["9/100", 0]},
                                 {"2": [1, 0], "1": [-0.6, 0], "0": [0.09, 0]}])
def test_float_double_pole_is_schema_error(tmp_path, den):
    path = tmp_path / "double.json"
    path.write_text(json.dumps(_line_entry(den)))
    result = invoke(["residues", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert (payload["error"], payload["pointer"]) == ("SchemaViolation", "/components/0/0/0")


@pytest.mark.parametrize("value, named", [([0.3, 0], "x = 0.3"), (["3/10", 0], "x = 3/10")])
def test_double_pole_names_the_branch_as_written(tmp_path, value, named):
    doc = {**_line_entry({"2": [1, 0], "1": ["-3/5", 0], "0": ["9/100", 0]}),
           "divisor": [{"var": 0, "value": value}]}
    path = tmp_path / "double.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_process(["residues", str(path)])
    assert code == 2, out
    message = json.loads(out)["payload"]["message"]
    assert f"along the branch {named};" in message


# rank 3, poles -0.5i, 1 and -1: the default basepoint 2 is rotated off the line through
# 1 and -1, and the spokes leave it in the order 2, 1, 0 counterclockwise from outward
RANK3 = {"type": "fuchsian", "rank": 3, "poles": [[0, -0.5], [1, 0], [-1, 0]],
         "residues": [[[0.1, 0.2, 0], [0, -0.1, 0.1], [0.2, 0, 0.05]],
                      [[0.05, 0, 0.3], [0.1, 0.2, 0], [0, 0.1, -0.15]],
                      [[-0.2, 0.1, 0], [0, 0.1, 0.2], [0.1, 0, 0]]]}


@pytest.mark.parametrize("doc", [json.loads((FIXTURES / "fuchsian_two_poles.json").read_text()),
                                 {**RANK3, "residues": [[[[a, 0] for a in row] for row in A]
                                                        for A in RANK3["residues"]]}],
                         ids=["fractions", "floats"])
def test_residue_at_infinity_is_the_rounded_exact_sum(tmp_path, doc):
    path = tmp_path / "fuchsian.json"
    path.write_text(json.dumps(doc))
    result = invoke(["residues", str(path)])
    assert result.exit_code == 0, result.output
    printed = json.loads(result.output)["payload"]["infinity"]
    # -sum A_i of the values as written (a float part is its dyadic value), then rounded
    m = doc["rank"]
    want = [[[repr(float(-sum(Fraction(A[i][j][part]) for A in doc["residues"])))
              for part in (0, 1)] for j in range(m)] for i in range(m)]
    assert [[[repr(part) for part in e] for e in row] for row in printed] == want


def test_monodromy_infinity_is_the_loop_around_every_pole(tmp_path):
    residues = [np.array(A, dtype=complex) for A in RANK3["residues"]]
    doc = {**RANK3, "residues": [[[[a, 0] for a in row] for row in A]
                                 for A in RANK3["residues"]]}
    path = tmp_path / "rank3.json"
    path.write_text(json.dumps(doc))
    result = invoke(["monodromy", str(path)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["payload"]
    M = [np.array([[complex(*e) for e in row] for row in m]) for m in payload["matrices"]]
    infinity = np.array([[complex(*e) for e in row] for row in payload["infinity"]])
    want = np.poly(mat_exp(-2j * np.pi * sum(residues)))  # exp(2 pi i A_inf)
    assert np.max(np.abs(np.poly(infinity) - want)) < 1e-8
    inverted = [order for order in itertools.permutations(range(3))
                if np.linalg.norm(infinity @ M[order[2]] @ M[order[1]] @ M[order[0]]
                                  - np.eye(3)) < 1e-8]
    assert inverted == [(2, 1, 0)]


def test_loop_through_a_pole_is_pole_proximity(tmp_path):
    # the line from -1 to 1 meets the pole 0 at its midpoint, which a sampled
    # clearance misses; the collocation then fails and numpy warns on stderr
    path = tmp_path / "loops.json"
    path.write_text(json.dumps([{"basepoint": [-1, 0], "segments": [
        {"kind": "line", "to": [1, 0]}, {"kind": "line", "to": [-1, 0]}]}]))
    src = str(pathlib.Path(logconnect.__file__).parent.parent)
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", "from logconnect.cli import main; main()",
                        "monodromy", str(FIXTURES / "fuchsian_quarter.json"), "--loops", str(path)],
                       capture_output=True, text=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": pythonpath})
    assert r.returncode == 2, r.stdout
    assert json.loads(r.stdout)["payload"]["error"] == "PoleProximity"
    assert r.stderr == ""


FORM_IN_X2 = {"type": "log_connection", "rank": 1, "vars": ["x", "x"],  # dx/x + x_2 dx_2
              "divisor": [{"var": 0, "value": [0, 0]}],
              "components": [[[_entry({"0,0": [1, 0]}, {"1,0": [1, 0]})]],
                             [[_entry({"0,1": [1, 0]}, {"0,0": [1, 0]})]]]}


@pytest.mark.parametrize("args, doc, error, pointer", [
    (["check-flat"], FORM_IN_X2, "SchemaViolation", "/vars"),
    (["realize-fuchsian"], {"type": "presentation", "rank": 1,
                            "generators": {"a": [[[1, 0]]]}, "poles": 5},
     "SchemaViolation", "/poles"),
    (["residues"], {"type": "fuchsian", "rank": 1, "poles": [[10 ** 400, 0]],
                    "residues": [[[[1, 0]]]]}, "SchemaViolation", "/poles/0"),
    (["pullback", "--nu", "3"], {"type": "fuchsian", "rank": 1, "poles": [[0, 0]],
                                 "residues": [[[[1e308, 0]]]]}, "OverflowError", None),
    (["monodromy", "--basepoint", "nan,0"], None, "ValueError", None),
    (["monodromy", "--basepoint", "inf,0"], None, "ValueError", None),
    (["normalize", "--order", "-1"], json.loads((FIXTURES / "normalize_tau.json").read_text()),
     "ValueError", None),
    (["lift-rep", "--nu", "0"], json.loads((FIXTURES / "presentation_diagonal.json").read_text()),
     "ValueError", None),
], ids=["repeated-vars", "poles-not-a-list", "pole-beyond-float", "residue-beyond-float",
        "basepoint-nan", "basepoint-inf", "order-negative", "nu-zero"])
def test_bad_input_keeps_the_cli_contract(tmp_path, args, doc, error, pointer):
    if doc is None:
        path = str(FIXTURES / "fuchsian_quarter.json")
    else:
        path = str(tmp_path / "doc.json")
        pathlib.Path(path).write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [args[0], path, *args[1:]])  # exceptions caught
    assert result.exit_code in (0, 1, 2) and "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    verdict = json.loads(result.output)
    assert set(verdict) == {"status", "payload", "diagnostics"}
    assert result.exit_code != 1 or verdict["status"] == "fail"
    # each of these is bad input: an error verdict naming the cause
    assert (result.exit_code, verdict["status"]) == (2, "error"), result.output
    assert verdict["payload"]["error"] == error
    assert verdict["payload"].get("pointer") == pointer

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
from logconnect import (FuchsianSystem, RiccatiSystem, connections, proj_equal, projective,
                        realize_fuchsian)
from logconnect.cli import main
from logconnect.ratfunc import RationalFunction
from logconnect.serialization import (matrix_to_json, ratfunc_to_json, system_to_json,
                                      validate_schema)

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


CONNECTIONS = ("fuchsian", "local_model", "log_connection")
# the document kinds each verb reads, and one fixture of each kind
READS = {"check-flat": CONNECTIONS, "residues": CONNECTIONS,
         "monodromy": CONNECTIONS + ("riccati",),
         "projectivize": CONNECTIONS, "reconstruct": ("riccati",),
         "lift-trace-free": ("riccati",), "predicates": ("matrix",), "pullback": CONNECTIONS,
         "normalize": CONNECTIONS, "realize-local": ("presentation",),
         "realize-fuchsian": ("presentation",), "lift-rep": ("presentation",),
         "exponent": ("presentation",)}
SAMPLES = {"fuchsian": "fuchsian_quarter.json", "local_model": "local_model_commuting.json",
           "log_connection": "normalize_tau.json", "riccati": "riccati_from_fuchsian.json",
           "presentation": "presentation_diagonal.json", "matrix": "matrix_pm_ok.json"}
REQUIRED = {"pullback": ["--nu", "2"]}


@pytest.mark.parametrize("verb, kind", [(v, k) for v, kinds in READS.items()
                                        for k in SAMPLES if k not in kinds])
def test_a_document_of_another_kind_is_refused_at_type(verb, kind):
    result = invoke([verb, SAMPLES[kind], *REQUIRED.get(verb, [])])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert (payload["error"], payload["pointer"]) == ("SchemaViolation", "/type")
    assert payload["message"].startswith(f"expected one of: {', '.join(READS[verb])};")
    assert repr(kind) in payload["message"]


@pytest.mark.parametrize("verb", READS)
def test_a_document_of_a_read_kind_is_not_refused_at_type(verb):
    for kind in READS[verb]:
        result = invoke([verb, SAMPLES[kind], *REQUIRED.get(verb, [])])
        assert json.loads(result.output)["payload"].get("pointer") != "/type", result.output


@pytest.mark.parametrize("doc", [[], "fuchsian", {"rank": 1}, {"type": ["fuchsian"]},
                                 {"type": {"kind": "matrix"}}, {"type": None}])
def test_a_document_without_a_known_type_keeps_the_schema_error(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = invoke(["predicates", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "SchemaViolation"
    assert payload["pointer"] == ("" if not isinstance(doc, dict) else "/type")


# each verb's parameters in order: (name, default, or "required")
SURFACE = {
    "check-flat": [("input", "required"), ("tol", None), ("output", "-")],
    "residues": [("input", "required"), ("output", "-")],
    "monodromy": [("input", "required"), ("tol", None), ("basepoint", None),
                  ("loops_path", None), ("output", "-")],
    "projectivize": [("input", "required"), ("output", "-")],
    "reconstruct": [("input", "required"), ("trace_json", None), ("output", "-")],
    "lift-trace-free": [("input", "required"), ("output", "-")],
    "predicates": [("input", "required"), ("tol", None), ("output", "-")],
    "pullback": [("input", "required"), ("var", 0), ("nu", "required"), ("output", "-")],
    "normalize": [("input", "required"), ("order", 10), ("output", "-")],
    "realize-local": [("input", "required"), ("output", "-")],
    "realize-fuchsian": [("input", "required"), ("output", "-")],
    "lift-rep": [("input", "required"), ("nu", 1), ("output", "-")],
    "exponent": [("input", "required"), ("output", "-")],
}


def test_the_cli_surface_is_pinned():
    from logconnect.serialization import PARSERS

    assert list(main.commands) == list(SURFACE) == list(READS)
    for name, command in main.commands.items():
        got = [(p.name, "required" if p.required else p.default) for p in command.params]
        assert got == SURFACE[name], name
    # every document kind is read by some verb, and has a sample for the refusal test
    assert {k for kinds in READS.values() for k in kinds} == set(SAMPLES) == set(PARSERS)
    for kind, name in SAMPLES.items():
        assert json.loads((FIXTURES / name).read_text())["type"] == kind


# the default tolerance of each verb that takes --tol
DEFAULT_TOL = {"check-flat": 1e-12, "monodromy": 1e-10, "predicates": 1e-9}


@pytest.mark.parametrize("verb", list(SURFACE))
def test_tol_help_names_the_verbs_own_default(verb):
    result = CliRunner().invoke(main, [verb, "--help"])
    assert result.exit_code == 0, result.output
    assert ("--tol" in result.output) == (("tol", None) in SURFACE[verb]) == (verb in DEFAULT_TOL)
    if verb in DEFAULT_TOL:
        help_text = " ".join(result.output.split())
        assert f"default from LOGCONNECT_TOL or {DEFAULT_TOL[verb]:g})" in help_text, help_text


# a two-branch local model and a system with a polynomial part have no Fuchsian form,
# so no standard loops for a basepoint to place
NO_STANDARD_LOOPS = ("DegenerateConfiguration", ["no poles of a Fuchsian form", "supply --loops"])


@pytest.mark.parametrize("args, error, words", [
    (["fuchsian_quarter.json", "--loops", "loops_unit_circle.json", "--basepoint", "5,5"],
     "ValueError", ["--basepoint", "--loops"]),
    (["local_model_commuting.json", "--basepoint", "5,5"], *NO_STANDARD_LOOPS),
    (["normalize_tau.json", "--basepoint", "5,5"], *NO_STANDARD_LOOPS),
], ids=["with-loops", "local-model", "log-connection"])
def test_a_basepoint_that_places_no_loop_is_refused(args, error, words):
    result = invoke(["monodromy", *args])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == error
    assert all(word in payload["message"] for word in words), payload["message"]


def test_monodromy_matches_residue_exponential():
    result = invoke(["monodromy", "fuchsian_quarter.json"])
    payload = json.loads(result.output)["payload"]
    M = np.array([[complex(*e) for e in row]
                  for row in payload["matrices"][0]])
    expected = np.diag([np.exp(2j * np.pi * 0.25), 1.0])
    assert np.linalg.norm(M - expected) < 1e-8


def test_monodromy_from_a_far_basepoint():
    result = invoke(["monodromy", "fuchsian_two_poles.json", "--basepoint", "1e5,1"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["payload"]
    F = validate_schema(json.loads((FIXTURES / "fuchsian_two_poles.json").read_text()))
    got = [np.array([[complex(*e) for e in row] for row in M])
           for M in [*payload["matrices"], payload["infinity"]]]
    want = [mat_exp(2j * np.pi * A) for A in [*F.residue_arrays, -sum(F.residue_arrays)]]
    for M, E in zip(got, want, strict=True):
        assert np.linalg.norm(M - E) < 1e-12 * np.linalg.norm(E)


# payloads from basepoints that the choice among rotations of 1 + max|p| leaves where
# they were: the default 1 + |p| of one pole, and a given basepoint
UNMOVED = {
    ("fuchsian_quarter.json",): {
        "composition_convention": "antirepresentation",
        "infinity": [[[6.123233995736766e-17, -1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "matrices": [[[[6.123233995736766e-17, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
    ("fuchsian_two_poles.json", "--basepoint", "0.5,2"): {
        "composition_convention": "antirepresentation",
        "infinity": [[[-0.8090169943749473, -0.5877852522924732], [0.0, 0.0]],
                     [[0.0, 0.0], [0.9510565162951536, -0.30901699437494734]]],
        "matrices": [[[[-0.30901699437494734, 0.9510565162951536], [0.0, 0.0]],
                      [[0.0, 0.0], [0.30901699437494745, -0.9510565162951535]]],
                     [[[0.8090169943749475, 0.5877852522924731], [0.0, 0.0]],
                      [[0.0, 0.0], [6.123233995736766e-17, 1.0]]]]},
}


@pytest.mark.parametrize("args, basepoint, order", [
    (("fuchsian_quarter.json",), [1.0, 0.0], [0]),
    (("fuchsian_two_poles.json", "--basepoint", "0.5,2"), [0.5, 2.0], [0, 1])])
def test_an_unmoved_basepoint_prints_the_same_matrices(args, basepoint, order):
    result = invoke(["monodromy", *args])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["payload"]
    assert (payload.pop("basepoint"), payload.pop("order")) == (basepoint, order)
    assert json.dumps(payload, sort_keys=True) == json.dumps(UNMOVED[args], sort_keys=True)


def test_monodromy_names_the_basepoint_of_a_local_model(tmp_path):
    path = tmp_path / "local.json"
    path.write_text(json.dumps({"type": "local_model", "rank": 1, "vars": 1,
                                "residues": [[[["1/4", 0]]]]}))
    result = invoke(["monodromy", str(path)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["basepoint"] == [1.0, 0.0] and "order" not in payload


NO_POLES = {
    "fuchsian": {"type": "fuchsian", "rank": 1, "poles": [], "residues": []},
    "log_connection": {"type": "log_connection", "rank": 1, "vars": ["x"], "divisor": [],
                       "components": [[[{"num": {"0": [0, 0]}, "den": {"0": [1, 0]}}]]]},
}


@pytest.mark.parametrize("kind", NO_POLES)
def test_a_system_with_no_poles_asks_for_loops(tmp_path, kind):
    path = tmp_path / "no_poles.json"
    path.write_text(json.dumps(NO_POLES[kind]))
    result = invoke(["monodromy", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "DegenerateConfiguration"
    assert "no poles" in payload["message"] and "supply --loops" in payload["message"]
    result = invoke(["monodromy", str(path), "--loops", "loops_unit_circle.json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["payload"] == {"basepoint": [1.0, 0.0],
                                                    "matrices": [[[[1.0, 0.0]]]]}


def seeded_presentation(seed):
    """A seeded abelian presentation of rank 2 or 3 with 1-3 generators
    Q diag(exp(i angles)) Q^-1, at poles drawn from a pool, as a JSON document."""
    rng = np.random.default_rng(seed)
    m, k = 2 + seed % 2, 1 + seed % 3
    Q = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0] \
        + 0.2 * rng.normal(size=(m, m))
    gens = {f"g{j}": Q @ np.diag(np.exp(1j * (np.sort(rng.uniform(0.05, 0.9, size=m))
                                              + 1.1 * np.arange(m)))) @ np.linalg.inv(Q)
            for j in range(k)}
    poles = [[0, 0], [1, 0], [-1, 0], [2, 0], [0.5, 0]]
    return {"type": "presentation", "rank": m,
            "generators": {name: matrix_to_json(G) for name, G in gens.items()},
            "poles": [poles[i] for i in rng.permutation(len(poles))[:k]]}


PRESENTATIONS = [json.loads((FIXTURES / "presentation_diagonal.json").read_text())] + [
    seeded_presentation(seed) for seed in range(6)]


def _pipe(tmp_path, path, verbs):
    """Run each verb on the payload the one before it wrote, as its JSON file; the path
    of the last payload."""
    for verb in verbs:
        result = invoke([verb, str(path)])
        assert result.exit_code == 0, result.output
        path = tmp_path / f"{verb}.json"
        path.write_text(json.dumps(json.loads(result.output)["payload"]))
    return path


@pytest.mark.parametrize("stages", [["projectivize"], ["projectivize", "lift-trace-free"]],
                         ids=["riccati", "trace_free_lift"])
@pytest.mark.parametrize("doc", PRESENTATIONS,
                         ids=["diagonal"] + [f"seed{s}" for s in range(6)])
def test_the_realization_pipeline_closes_without_loops(tmp_path, doc, stages):
    # realize-fuchsian | projectivize [| lift-trace-free] | monodromy, each stage reading
    # the float-rounded JSON the one before wrote: the last document is recognized in
    # Fuchsian form, so it gets standard loops and the loop at infinity, and each loop
    # reproduces its generator's class within the benchmark checker's 1e-7
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(doc))
    path = _pipe(tmp_path, path, ["realize-fuchsian", *stages])
    result = invoke(["monodromy", str(path)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["payload"]
    got = [np.array([[complex(*e) for e in row] for row in M])
           for M in [*payload["matrices"], payload["infinity"]]]
    gens = [np.array([[complex(*map(float, e)) for e in row] for row in G])
            for G in doc["generators"].values()]
    assert len(got) == len(gens) + 1
    for M, G in zip(got, gens):
        assert proj_equal(M, G, 1e-7)
    # the sphere relation: the loops in spoke order, then infinity, compose to a scalar
    product = np.eye(doc["rank"])
    for M in [got[i] for i in payload["order"]] + [got[-1]]:
        product = M @ product
    assert proj_equal(product, np.eye(doc["rank"]), 1e-7)


ONE_BRANCH = {"type": "local_model", "rank": 1, "vars": 1, "residues": [[[["1/4", 0]]]]}


@pytest.mark.parametrize("doc, stages, loops, sphere", [
    ("fuchsian_two_poles.json", [], [], True),
    ("presentation_diagonal.json", ["realize-fuchsian", "projectivize", "lift-trace-free"],
     [], True),
    (ONE_BRANCH, [], [], False),
    ("normalize_tau.json", [], ["--loops", "loops_unit_circle.json"], False),
], ids=["fuchsian", "trace_free_lift", "one_branch_local_model", "polynomial_part"])
def test_residues_and_monodromy_agree_on_infinity(tmp_path, doc, stages, loops, sphere):
    # a system lies on the sphere when it has a Fuchsian form and is not a local model;
    # there residues prints its exact -sum A_i and monodromy the loop around infinity
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else (FIXTURES / doc).read_text())
    path = _pipe(tmp_path, path, stages)
    residues = json.loads(invoke(["residues", str(path)]).output)["payload"]
    result = invoke(["monodromy", str(path), *loops])
    assert result.exit_code == 0, result.output
    assert ("infinity" in residues) == ("infinity" in json.loads(result.output)["payload"]) \
        == sphere
    if sphere:
        conn = validate_schema(json.loads(path.read_text()))
        form = connections.fuchsian_form(conn)
        assert residues["infinity"] == matrix_to_json(form.infinity_residue)
        assert residues["infinity"] == matrix_to_json(connections.exact_residue(conn, "inf"))
        total = sum(np.array([[complex(*e) for e in row] for row in R])
                    for R in [*residues["residues"], residues["infinity"]])
        assert np.max(np.abs(total)) < 1e-15


def test_a_one_branch_local_model_takes_a_basepoint(tmp_path):
    # its standard loop is the lasso of its form about 0, and every lasso once about 0
    # has the same closed-form matrix exp(2 pi i A)
    path = tmp_path / "local.json"
    path.write_text(json.dumps(ONE_BRANCH))
    default = invoke(["monodromy", str(path)])
    moved = invoke(["monodromy", str(path), "--basepoint", "0.5,0.5"])
    assert (default.exit_code, moved.exit_code) == (0, 0), moved.output
    default, moved = (json.loads(r.output)["payload"] for r in (default, moved))
    assert (default["basepoint"], moved["basepoint"]) == ([1.0, 0.0], [0.5, 0.5])
    assert moved["matrices"] == default["matrices"] and "infinity" not in moved
    assert abs(complex(*default["matrices"][0][0][0]) - 1j) < 1e-15


@pytest.mark.parametrize("poles", [[], [[0, 0]], [[1, 0]], [[0, 0], [1, 0]]],
                         ids=["no-poles", "origin", "one", "origin-and-one"])
def test_pullback_reads_its_branches_by_one_rule(tmp_path, poles):
    # every branch in x_var must be x_var = 0, whatever kind carries it, and a fuchsian
    # document pulls back to a fuchsian document
    fuchsian = {"type": "fuchsian", "rank": 1, "poles": poles,
                "residues": [[[["1/4", 0]]]] * len(poles)}
    for doc in (fuchsian, system_to_json(validate_schema(fuchsian).to_log_connection())):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = invoke(["pullback", str(path), "--nu", "2"])
        payload = json.loads(result.output)["payload"]
        if [1, 0] in poles:
            assert result.exit_code == 2, result.output
            assert (payload["error"], payload["message"]) == (
                "UnsupportedBranch", "pullback branch must be of the form x_var = 0 "
                                     "(translate first)")
        else:
            assert result.exit_code == 0, result.output
            assert payload["type"] == doc["type"]


def test_a_segment_past_the_panel_budget_is_an_error(tmp_path):
    # exp(2 pi i 1e8) in closed form loses more than the tolerance to rounding, and
    # the circle oscillates too fast for any affordable number of panels
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({"type": "fuchsian", "rank": 1, "poles": [[0, 0]],
                                "residues": [[[[100000000, 0]]]]}))
    code, out, _ = run_process(["monodromy", str(path)])
    verdict = json.loads(out)
    assert (code, verdict["status"]) == (2, "error"), out
    assert verdict["payload"]["error"] == "ToleranceNotMet"
    assert "panel attempts" in verdict["payload"]["message"]


@pytest.mark.parametrize("basepoint", ["1", "1,2,3", "a,b", ""])
def test_a_malformed_basepoint_is_named(basepoint):
    result = invoke(["monodromy", "fuchsian_two_poles.json", "--basepoint", basepoint])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "ValueError"
    assert "--basepoint" in payload["message"] and "'re,im'" in payload["message"]


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


# the lifting exponent of every fixture presentation: the diagonal pair commutes, and
# the swap and flip commute up to -1, which their squares' scalar (-1)^(2^2) kills
EXPONENTS = {"presentation_diagonal.json": 1, "presentation_heisenberg.json": 2}


def test_exponent_payload():
    docs = {p.name: json.loads(p.read_text()) for p in FIXTURES.glob("*.json")}
    assert {name for name, doc in docs.items()
            if isinstance(doc, dict) and doc.get("type") == "presentation"} == set(EXPONENTS)
    for fixture, nu in EXPONENTS.items():
        result = invoke(["exponent", fixture])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["payload"] == {"nu": nu}, fixture
        # nu lifts, and no smaller power does
        assert [invoke(["lift-rep", fixture, "--nu", str(k)]).exit_code
                for k in range(1, nu + 1)] == [1] * (nu - 1) + [0], fixture


def test_exponent_of_relations_that_no_power_lifts_is_a_fail(tmp_path):
    # a b = 1 holds at every power, and the canonical lifts of a^nu and b^nu multiply
    # to -I for nu = 1, 2
    a = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    path = tmp_path / "inverse_pair.json"
    path.write_text(json.dumps({**_presentation_json(a, np.linalg.inv(a)),
                                "relations": [["a", "b"]]}))
    result = invoke(["exponent", str(path)])
    assert result.exit_code == 1, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["nu"] is None and "1..2" in payload["message"]


def test_exponent_names_the_power_that_breaks_a_relation(tmp_path):
    # a b c = 1 holds with scalar -1 in the lifts, and fails projectively for the squares
    a, b = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 1.0]])
    doc = {**_presentation_json(a, b), "relations": [["a", "b", "c"]]}
    doc["generators"]["c"] = _matrix_json(np.linalg.inv(a @ b))
    path = tmp_path / "product.json"
    path.write_text(json.dumps(doc))
    result = invoke(["exponent", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith("at nu = 2: relation")
    powered = json.loads(invoke(["lift-rep", str(path), "--nu", "2"]).output)["payload"]
    assert payload["message"] == f"at nu = 2: {powered['message']}"


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


HUGE = 10 ** 400


def _huge_coefficient(kind):
    """A fixture of ``kind`` with one numerator coefficient replaced by HUGE, and the
    pointer to it."""
    if kind == "log_connection":
        doc = json.loads((FIXTURES / "normalize_tau.json").read_text())
        doc["components"][0][1][1]["num"]["0"] = [HUGE, 0]
        return doc, "/components/0/1/1/num/0"
    doc = json.loads((FIXTURES / "riccati_from_fuchsian.json").read_text())
    doc["b"][0][0]["num"]["0"] = [0, HUGE]
    return doc, "/b/0/0/num/0"


@pytest.mark.parametrize("verb, kind", [(v, k) for v, kinds in READS.items() for k in kinds
                                        if k in ("log_connection", "riccati")])
def test_coefficient_beyond_float_range_is_schema_error(tmp_path, verb, kind):
    # refused where the document is read, before any verb computes with it
    doc, pointer = _huge_coefficient(kind)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    result = invoke([verb, str(path), *REQUIRED.get(verb, [])])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert (payload["error"], payload["pointer"]) == ("SchemaViolation", pointer)


def test_trace_coefficient_beyond_float_range_is_schema_error(tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([{"num": {"0": [f"{HUGE}/3", 0]}, "den": {"1": [1, 0]}}]))
    result = invoke(["reconstruct", "riccati_from_fuchsian.json", "--trace", str(trace)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert (payload["error"], payload["pointer"]) == ("SchemaViolation", "/trace/0/num/0")


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


@pytest.mark.parametrize("verb, key, forms", [
    ("reconstruct", "b", lambda forms: forms * 2),
    ("reconstruct", "c", lambda forms: []),
    ("lift-trace-free", "delta", lambda forms: forms * 2),
], ids=["b-doubled", "c-empty", "two-delta"])
def test_riccati_list_of_the_wrong_length_is_schema_error(tmp_path, verb, key, forms):
    # rank 2: b, delta and c each hold one 1-form
    doc = json.loads((FIXTURES / "riccati_from_fuchsian.json").read_text())
    assert doc["rank"] == 2 and len(doc[key]) == 1
    doc[key] = forms(doc[key])
    path = tmp_path / "wrong_length.json"
    path.write_text(json.dumps(doc))
    result = invoke([verb, str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "SchemaViolation"
    assert payload["pointer"] == f"/{key}"
    assert "1 1-forms" in payload["message"]


@pytest.mark.parametrize("poles", [[[0, 0]], None, [[0, 0], [1, 0], [2, 0]]],
                         ids=["one-pole", "no-poles", "three-poles"])
def test_realize_fuchsian_needs_one_pole_per_generator(tmp_path, poles):
    # two generators; the verbs that do not realize on the sphere ignore the poles
    doc = json.loads((FIXTURES / "presentation_diagonal.json").read_text())
    assert len(doc["generators"]) == 2
    if poles is None:
        del doc["poles"]
    else:
        doc["poles"] = poles
    path = tmp_path / "poles.json"
    path.write_text(json.dumps(doc))
    result = invoke(["realize-fuchsian", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)["payload"]
    assert payload["error"] == "SchemaViolation"
    assert payload["pointer"] == "/poles"
    for verb in ("realize-local", "lift-rep", "exponent"):
        expected = invoke([verb, "presentation_diagonal.json"])
        assert invoke([verb, str(path)]).output == expected.output, verb


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


# PROBE, then the process's peak resident set size in kB (Linux's unit for ru_maxrss)
PEAK = PROBE.replace("sys.exit(code)\n", "import resource\nprint('PEAK', resource.getrusage("
                     "resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\nsys.exit(code)\n")


def test_a_high_order_normalization_fits_in_the_memory_of_a_low_one():
    # the defect check runs by recursion over orders, so order 800 holds 801
    # coefficients where a dense block-Toeplitz form held 801^2 blocks (89 MB more)
    src = str(pathlib.Path(logconnect.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    peaks = []
    for order in ("10", "800"):
        r = subprocess.run([sys.executable, "-c", PEAK, "normalize",
                            str(FIXTURES / "normalize_tau.json"), "--order", order],
                           capture_output=True, text=True, timeout=60, env=env)
        assert r.returncode == 0, r.stdout + r.stderr
        assert len(json.loads(r.stdout)["payload"]["coefficients"]) == int(order) + 1
        peaks.append(int(r.stderr.split("PEAK")[-1]))
    assert peaks[1] - peaks[0] < 10 * 1024, peaks


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
    # nor sympy: the runtime dependencies are exactly numpy and click
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in project["dependencies"]}
    assert names == {"numpy", "click"}, names


def _line(var, c):
    """The denominator x_var - c of an entry in the chart variables x, y."""
    return {"1,0" if var == 0 else "0,1": [1, 0], "0,0": [-c, 0]}


_ZERO = _entry({"0,0": [0, 0]}, {"0,0": [1, 0]})
# two-variable log_connection documents with branches away from the origin, where the
# gcds that reduce fractions run in several variables; they are kept out of the
# manifest, whose commands are the CLI benchmark's workload
TWO_VARIABLE_DOCS = {
    # rank 1, entries (1/3)/(x - 1) and (1/5)/(y - 2): flat, with constant residues
    "two_branches.json": {
        "type": "log_connection", "rank": 1, "vars": ["x", "y"],
        "divisor": [{"var": 0, "value": [1, 0]}, {"var": 1, "value": [2, 0]}],
        "components": [[[_entry({"0,0": ["1/3", 0]}, _line(0, 1))]],
                       [[_entry({"0,0": ["1/5", 0]}, _line(1, 2))]]]},
    # rank 2, branches x = 0, 1 and y = 0, 2, and the cross term 1/((x - 1)(y - 2)),
    # whose residue along x = 1 is 1/(y - 2): neither flat nor of constant residue
    "cross_term.json": {
        "type": "log_connection", "rank": 2, "vars": ["x", "y"],
        "divisor": [{"var": 0, "value": [0, 0]}, {"var": 0, "value": [1, 0]},
                    {"var": 1, "value": [0, 0]}, {"var": 1, "value": [2, 0]}],
        "components": [
            [[_entry({"0,0": ["1/3", 0]}, _line(0, 0)),
              _entry({"0,0": [1, 0]}, {"1,1": [1, 0], "1,0": [-2, 0], "0,1": [-1, 0],
                                       "0,0": [2, 0]})],
             [_ZERO, _entry({"0,0": ["1/7", 0]}, _line(0, 1))]],
            [[_entry({"0,0": ["1/7", 0]}, _line(1, 0)), _ZERO],
             [_ZERO, _entry({"0,0": ["1/3", 0]}, _line(1, 2))]]]},
}


def two_variable_args(tmp_path, args):
    """``args`` with each name of ``TWO_VARIABLE_DOCS`` replaced by the path of its
    document, written under ``tmp_path``."""
    for name, doc in TWO_VARIABLE_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return [str(tmp_path / a) if a in TWO_VARIABLE_DOCS else a for a in args]


@pytest.mark.parametrize("args, expect", [
    *(pytest.param(e["args"], e["expect"], id=" ".join(e["args"])) for e in MANIFEST),
    pytest.param(["residues", str(ROOT / "perfbench" / "double_pole.json")], 2,
                 id="residues perfbench/double_pole.json"),
    *(pytest.param([verb, doc], expect, id=f"{verb} {doc}")
      for doc, codes in [("two_branches.json", (0, 0, 0)), ("cross_term.json", (1, 0, 2))]
      for verb, expect in zip(["check-flat", "projectivize", "residues"], codes)),
])
def test_every_verb_runs_without_sympy(tmp_path, args, expect):
    # with sympy unimportable, each command answers as it does with sympy at hand
    args = two_variable_args(tmp_path, args)
    code, out, _ = run_process(args, code="import sys\nsys.modules['sympy'] = None\n" + PROBE)
    assert code == expect, out
    assert out == invoke(args).output


def test_a_flat_two_variable_connection_loads_neither_sympy_nor_numpy(tmp_path):
    (path,) = two_variable_args(tmp_path, ["two_branches.json"])
    code, out, loaded = run_process(["check-flat", path])
    assert (code, json.loads(out)["payload"]) == (0, {"flat": True})
    assert loaded == set(), loaded
    code, out, loaded = run_process(["residues", path])
    assert code == 0, out
    assert json.loads(out)["payload"]["residues"] == [[[[1 / 3, 0]]], [[[1 / 5, 0]]]]
    assert loaded == set(), loaded


def test_a_cross_term_is_not_flat_and_its_residue_not_constant(tmp_path):
    # check-flat reaches the remainder sequence here, and still loads no library
    (path,) = two_variable_args(tmp_path, ["cross_term.json"])
    code, out, loaded = run_process(["check-flat", path])
    assert (code, json.loads(out)["payload"]) == (1, {"flat": False})
    assert loaded == set(), loaded
    code, out, loaded = run_process(["residues", path])
    assert code == 2, out
    assert json.loads(out)["payload"]["error"] == "NonConstantResidue"
    assert loaded == set(), loaded


def test_a_double_pole_is_refused_without_sympy():
    code, out, loaded = run_process(["residues", str(ROOT / "perfbench" / "double_pole.json")])
    assert (code, json.loads(out)["status"]) == (2, "error")
    assert loaded == set(), loaded


# every name the package exported when it imported all its submodules eagerly
EXPORTED = {
    "algebra": ["ProjectiveClass", "commuting", "nonresonant", "proj_equal", "property_Pm",
                "sylvester_solve"],
    "connections": ["FuchsianSystem", "GaugeSeries", "LocalModel", "LogConnection",
                    "flatness_check", "poincare_defect", "poincare_normalize",
                    "pullback_power", "residue"],
    "lifting": ["LiftReport", "ProjectivePresentation", "lift_commuting", "lifting_exponent",
                "local_realize", "realize_fuchsian", "verify_lift_after_power"],
    "monodromy": ["ArcSegment", "LineSegment", "LoopPath", "MonodromyRep", "circle_loop",
                  "monodromy_rep", "projective_monodromy", "relation_check", "standard_loops",
                  "transport"],
    "projective": ["RiccatiSystem", "projectivize", "reconstruct", "trace_free_lift"],
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


def _loops_verdict(tmp_path, loops):
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(loops))
    result = invoke(["monodromy", "fuchsian_quarter.json", "--loops", str(path)])
    assert result.exit_code == 2, result.output
    return json.loads(result.output)["payload"]


def test_an_empty_loops_file_is_schema_error(tmp_path):
    # it used to print no matrices with the pole 0 as their basepoint
    payload = _loops_verdict(tmp_path, [])
    assert (payload["error"], payload["pointer"]) == ("SchemaViolation", "/loops")


def test_a_loop_without_segments_is_schema_error(tmp_path):
    payload = _loops_verdict(tmp_path, [{"basepoint": [1, 0], "segments": [ARC]},
                                        {"basepoint": [1, 0], "segments": []}])
    assert (payload["error"], payload["pointer"]) == ("SchemaViolation", "/loops/1/segments")


@pytest.mark.parametrize("segments, pointer, message", [
    ([{**ARC, "to_angle": 3.141592653589793}], "/loops/0", "not closed"),
    # the arc starts 1e-10, or 1e-6, off the line's end: past the loop's 1e-12 for a
    # join either way, so both are named at the arc that does not join
    ([{"kind": "line", "to": [2, 0]}, {"kind": "line", "to": [1, 0]},
      {**ARC, "from_angle": 1e-10}], "/loops/0/segments/2", "do not join"),
    ([{"kind": "line", "to": [2, 0]}, {"kind": "line", "to": [1, 0]},
      {**ARC, "from_angle": 1e-6}], "/loops/0/segments/2", "do not join"),
], ids=["open", "gap", "wide_gap"])
def test_a_loop_that_does_not_close_is_schema_error(tmp_path, segments, pointer, message):
    payload = _loops_verdict(tmp_path, [{"basepoint": [1, 0], "segments": segments}])
    assert (payload["error"], payload["pointer"]) == ("SchemaViolation", pointer)
    assert message in payload["message"]


def test_an_arc_off_the_basepoint_is_schema_error(tmp_path):
    # the unit circle closes, but the loop is declared at 1 + 1e-6
    payload = _loops_verdict(tmp_path, [{"basepoint": [1 + 1e-6, 0], "segments": [ARC]}])
    assert (payload["error"], payload["pointer"]) == ("SchemaViolation", "/loops/0/segments/0")
    assert "basepoint" in payload["message"]


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


# rank 3, poles -0.5i, 1 and -1, two of them collinear with the point 2 on the real axis
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
    assert inverted == [tuple(payload["order"])]


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
    (["monodromy", "--basepoint", "1"], None, "ValueError", None),
    (["normalize", "--order", "-1"], json.loads((FIXTURES / "normalize_tau.json").read_text()),
     "ValueError", None),
    (["lift-rep", "--nu", "0"], json.loads((FIXTURES / "presentation_diagonal.json").read_text()),
     "ValueError", None),
    (["realize-fuchsian"], {"type": "presentation", "rank": 2, "generators": {}, "poles": []},
     "ValueError", None),
], ids=["repeated-vars", "poles-not-a-list", "pole-beyond-float", "residue-beyond-float",
        "basepoint-nan", "basepoint-inf", "basepoint-one-part", "order-negative", "nu-zero",
        "no-generators-no-poles"])
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


DELETE = object()


def _edited(name, edits):
    """The document ``name`` from the fixtures (None for a name that is none) with the
    value at each JSON pointer of ``edits`` replaced, or removed for ``DELETE``; the
    pointer "" replaces the whole document."""
    doc = json.loads((FIXTURES / name).read_text()) if (FIXTURES / name).exists() else None
    for pointer, value in edits.items():
        if not pointer:
            doc = value
            continue
        *keys, last = pointer[1:].split("/")
        parent = doc
        for key in keys:
            parent = parent[int(key) if isinstance(parent, list) else key]
        last = int(last) if isinstance(parent, list) else last
        if value is DELETE:
            del parent[last]
        else:
            parent[last] = value
    return doc


PROJECTIVIZED_NONCOMMUTING = system_to_json(projective.projectivize(
    validate_schema(json.loads((FIXTURES / "local_model_noncommuting.json").read_text()))))
TAU = "normalize_tau.json"
PRESENTATION = "presentation_diagonal.json"
# id: the arguments, the edited documents they name, the error and its pointer
REFUSALS = {
    "relation-does-not-hold": (["realize-local", PRESENTATION],
                               {PRESENTATION: {"/relations": [["a", "b"]]}},
                               "SchemaViolation", "/relations"),
    "unknown-generator": (["realize-local", PRESENTATION],
                          {PRESENTATION: {"/relations": [["a", "z"]]}},
                          "SchemaViolation", "/relations/0"),
    "relations-not-a-list": (["realize-local", PRESENTATION],
                             {PRESENTATION: {"/relations": "a"}}, "SchemaViolation", "/relations"),
    "relation-not-tokens": (["realize-local", PRESENTATION],
                            {PRESENTATION: {"/relations": [["a", 1]]}},
                            "SchemaViolation", "/relations/0"),
    "segment-kind": (["monodromy", "fuchsian_quarter.json", "--loops", "loops_unit_circle.json"],
                     {"loops_unit_circle.json": {"/0/segments/0/kind": "spiral"}},
                     "SchemaViolation", "/loops/0/segments/0/kind"),
    "loop-not-an-object": (["monodromy", "fuchsian_quarter.json", "--loops", "loops.json"],
                           {"loops.json": {"": [5]}}, "SchemaViolation", "/loops/0"),
    "trace-empty": (["reconstruct", "riccati_from_fuchsian.json", "--trace", "trace.json"],
                    {"trace.json": {"": []}}, "SchemaViolation", "/trace"),
    "offdiag-bad-pair": (["reconstruct", "riccati_from_fuchsian.json"],
                         {"riccati_from_fuchsian.json": {"/offdiag": {"x": []}}},
                         "SchemaViolation", "/offdiag/x"),
    "not-integrable": (["lift-trace-free", "riccati.json"],
                       {"riccati.json": {"": PROJECTIVIZED_NONCOMMUTING}}, "NonIntegrable", None),
    "basepoint-at-a-pole": (["monodromy", "fuchsian_two_poles.json", "--basepoint", "0,0"], {},
                            "ValueError", None),
    "part-not-a-number": (["residues", "fuchsian_quarter.json"],
                          {"fuchsian_quarter.json": {"/residues/0/0/0/0": True}},
                          "SchemaViolation", "/residues/0/0/0/0"),
    "scalar-not-a-pair": (["residues", "fuchsian_quarter.json"],
                          {"fuchsian_quarter.json": {"/residues/0/0/0": "1/4"}},
                          "SchemaViolation", "/residues/0/0/0"),
    "pole-missing": (["residues", "fuchsian_quarter.json"],
                     {"fuchsian_quarter.json": {"/poles": DELETE}}, "SchemaViolation", "/poles"),
    "residue-per-pole": (["residues", "fuchsian_quarter.json"],
                         {"fuchsian_quarter.json": {"/residues": []}},
                         "SchemaViolation", "/residues"),
    "entry-without-den": (["residues", TAU], {TAU: {"/components/0/0/0": {"num": {"0": [1, 0]}}}},
                          "SchemaViolation", "/components/0/0/0"),
    "bad-monomial-key": (["residues", TAU], {TAU: {"/components/0/0/0/num": {"a": [1, 0]}}},
                         "SchemaViolation", "/components/0/0/0/num/a"),
    "monomial-arity": (["residues", TAU], {TAU: {"/components/0/0/0/num": {"0,0": [1, 0]}}},
                       "SchemaViolation", "/components/0/0/0/num/0,0"),
    "zero-denominator": (["residues", TAU], {TAU: {"/components/0/0/0/den": {"0": [0, 0]}}},
                         "SchemaViolation", "/components/0/0/0/den"),
    "branch-not-an-object": (["residues", TAU], {TAU: {"/divisor/0": 5}},
                             "SchemaViolation", "/divisor/0"),
    "component-per-variable": (["residues", TAU], {TAU: {"/components": []}},
                               "SchemaViolation", "/components"),
}


@pytest.mark.parametrize("args, edits, error, pointer", REFUSALS.values(), ids=REFUSALS)
def test_a_refusal_names_its_error_and_pointer(tmp_path, args, edits, error, pointer):
    for name, changes in edits.items():
        (tmp_path / name).write_text(json.dumps(_edited(name, changes)))
    args = [str(tmp_path / a) if a in edits else str(FIXTURES / a) if a.endswith(".json")
            else a for a in args]
    verdict = _keeps_the_contract(CliRunner().invoke(main, args))
    assert verdict["status"] == "error"
    assert (verdict["payload"]["error"], verdict["payload"].get("pointer")) == (error, pointer)


def test_a_relation_is_named_as_its_word(tmp_path):
    # as the lifts name a word whose value is not scalar: its tokens, space-separated
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(_edited(PRESENTATION, {"/relations": [["a", "b^-1"]]})))
    payload = json.loads(invoke(["realize-local", str(path)]).output)["payload"]
    assert payload["message"] == "relation a b^-1 does not hold projectively"


def _matrix_json(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def _presentation_json(a, b):
    return {"type": "presentation", "rank": 2, "poles": [[0, 0], [1, 0]],
            "generators": {"a": _matrix_json(a), "b": _matrix_json(b)}}


def _keeps_the_contract(result):
    """Exit 0, 1 or 2 with a JSON verdict on stdout, exit 1 only for a ``fail``."""
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2), result.output
    verdict = json.loads(result.output)
    assert set(verdict) == {"status", "payload", "diagnostics"}
    assert verdict["status"] == {0: "ok", 1: "fail", 2: "error"}[result.exit_code]
    return verdict


LIFTING_VERBS = [["lift-rep"], ["lift-rep", "--nu", "2"], ["realize-local"],
                 ["realize-fuchsian"], ["exponent"]]


@pytest.mark.parametrize("verb", LIFTING_VERBS, ids=" ".join)
def test_near_flip_pairs_keep_the_cli_contract(tmp_path, verb):
    # V diag(1, -1 + eps) V^-1 and V [[eta, 1], [1, 0]] V^-1 commute projectively up to
    # about -1, and pass or fail eigenvalue separation with eps and eta; near the
    # tolerances the lifting verbs must still give a verdict
    rng = np.random.default_rng(2026)
    path = tmp_path / "pair.json"
    for _ in range(60):
        eps, eta = 10.0 ** rng.uniform(-10, -7, size=2)
        V = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Vinv = np.linalg.inv(V)
        a = V @ np.diag([1.0, -1.0 + eps]) @ Vinv
        b = V @ np.array([[eta, 1.0], [1.0, 0.0]]) @ Vinv
        path.write_text(json.dumps(_presentation_json(a, b)))
        _keeps_the_contract(CliRunner().invoke(main, [verb[0], str(path), *verb[1:]]))


@pytest.mark.parametrize("verb", ["lift-rep", "realize-local", "realize-fuchsian"])
def test_separated_pair_with_a_nontrivial_scalar_is_an_error_verdict(tmp_path, verb):
    # both classes pass eigenvalue separation at 1e-9, and their commutator is -I
    # within 1e-8: the two tolerances disagree, which is an error, not a lift
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_presentation_json(np.diag([1.0, -0.999999997]),
                                                  [[3e-9, 1.0], [1.0, 0.0]])))
    verdict = _keeps_the_contract(CliRunner().invoke(main, [verb, str(path)]))
    assert verdict["payload"]["error"] == "ToleranceNotMet", verdict


@pytest.mark.parametrize("top", ["1.0000000015", "1.000000000001"])
def test_resonance_of_a_normalization_is_one_error(tmp_path, top):
    # diag(0, 1 + 1.5e-9)/x passes the nonresonance test but not the order-1 Sylvester
    # check, diag(0, 1 + 1e-12)/x fails both: each is the same refusal
    diagonal = [_entry({"0": [0, 0]}, DEN_X), _entry({"0": [0, 0]}, DEN_ONE)]
    doc = {"type": "log_connection", "rank": 2, "vars": ["x"],
           "divisor": [{"var": 0, "value": [0, 0]}],
           "components": [[diagonal, [_entry({"0": [0, 0]}, DEN_ONE),
                                      _entry({"0": [float(top), 0]}, DEN_X)]]]}
    path = tmp_path / "resonant.json"
    path.write_text(json.dumps(doc))
    verdict = _keeps_the_contract(invoke(["normalize", str(path), "--order", "3"]))
    assert verdict["payload"]["error"] == "ResonantResidue", verdict

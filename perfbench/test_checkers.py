"""The benchmark's output checks reject deliberately wrong results.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_checkers.py -q

Each test takes a real result of one op, confirms that its workload's check
accepts it, then breaks it in one place and confirms that the check
rejects it.
"""

import dataclasses
import json
import os
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from cli_corpus import CliCorpus  # noqa: E402
from common import OpFailed, WrongOutput  # noqa: E402
from inprocess import ExactLayer, ExactRoundtrip, MonodromyLift, NormalizeSeries  # noqa: E402

SEED = 5


def test_exact_roundtrip_rejects_an_entry_off_by_one_seventh():
    wl = ExactRoundtrip(SEED)
    equal, back = wl._op(0)
    wl.check(0, (equal, back))
    comps = [[list(row) for row in comp] for comp in back.components]
    comps[0][0][-1] = comps[0][0][-1] + wl.sp.Rational(1, 7)
    broken = type(back)(back.m, back.gens, back.divisor, comps, exact=True)
    with pytest.raises(WrongOutput, match="changed between rounds"):
        wl.check(0, (True, broken))
    fresh = ExactRoundtrip(SEED)
    with pytest.raises(WrongOutput, match="entry"):
        fresh.check(0, (True, broken))


def test_exact_roundtrip_rejects_inequality_and_lost_exactness():
    wl = ExactRoundtrip(SEED)
    equal, back = wl._op(1)
    with pytest.raises(WrongOutput, match="differs"):
        wl.check(1, (False, back))
    inexact = type(back)(back.m, back.gens, back.divisor, back.components, exact=False)
    with pytest.raises(WrongOutput, match="exactness"):
        wl.check(1, (equal, inexact))


def test_normalize_series_rejects_a_coefficient_off_by_1e_6():
    wl = NormalizeSeries(SEED)
    gauge = wl._op(0)
    wl.check(0, gauge)
    coeffs = [G.copy() for G in gauge.coefficients]
    coeffs[3][0, 1] += 1e-6
    with pytest.raises(WrongOutput, match="G_3"):
        wl.check(0, type(gauge)(coeffs))
    with pytest.raises(WrongOutput, match="gauge terms"):
        wl.check(0, type(gauge)(coeffs[:-1]))


def test_exact_layer_routes_each_kind_to_its_check():
    wl = ExactLayer(SEED)
    assert {kind for kind, _ in wl.keys} == {"r", "n"}
    gauge = wl._op(("n", 0))
    wl.check(("n", 0), gauge)
    with pytest.raises(WrongOutput, match="document 0"):
        wl.check(("n", 0), type(gauge)(gauge.coefficients[:-1]))
    equal, back = wl._op(("r", 0))
    with pytest.raises(WrongOutput, match="system 0"):
        wl.check(("r", 0), (False, back))


def monodromy_key(wl, kind, k):
    """The first op of a kind whose presentation has k generators."""
    pool = wl.realize if kind == "a" else wl.lifts
    return next((kind, i) for i, e in enumerate(pool) if len(e["gens"]) == k)


@pytest.mark.parametrize("kind", ["a", "b"])
def test_monodromy_lift_rejects_swapped_classes(kind):
    wl = MonodromyLift(SEED)
    key = monodromy_key(wl, kind, 3)
    system, rep = wl._op(key)
    wl.check(key, (system, rep))
    m0, m1, *rest = rep.matrices
    with pytest.raises(WrongOutput, match="class 0"):
        wl.check(key, (system, dataclasses.replace(rep, matrices=(m1, m0, *rest))))


def test_monodromy_lift_rejects_residues_off_the_strip_and_a_wrong_loop():
    wl = MonodromyLift(SEED)
    key = monodromy_key(wl, "a", 1)
    system, rep = wl._op(key)
    wl.check(key, (system, rep))
    # A + I has the same loop class, but eigenvalue real parts in [1, 2)
    shifted = type(system)(system.m, system.poles,
                           [system.residue_array(0) + np.eye(system.m)])
    with pytest.raises(WrongOutput, match="eigenvalues"):
        wl.check(key, (shifted, rep))
    # twice the loop matrix: the same class, but not exp(2 pi i A)
    doubled = type(rep.matrices[0])(2.0 * rep.matrices[0].rep)
    with pytest.raises(WrongOutput, match="expm"):
        wl.check(key, (system, dataclasses.replace(rep, matrices=(doubled,))))


def cli_result(wl, i):
    """Exit code and stdout of one corpus command, through click in process."""
    from click.testing import CliRunner

    from logconnect.cli import main
    cwd = os.getcwd()
    os.chdir(HERE.parent)
    try:
        r = CliRunner().invoke(main, wl.commands[i]["args"])
    finally:
        os.chdir(cwd)
    return r.exit_code, r.stdout_bytes


def command_index(wl, *args):
    return next(i for i, c in enumerate(wl.commands) if c["args"][:len(args)] == list(args))


def rewrite(out, **changes):
    verdict = json.loads(out)
    for key, value in changes.items():
        if key == "payload":
            verdict["payload"].update(value)
        else:
            verdict[key] = value
    return json.dumps(verdict).encode()


def test_cli_corpus_rejects_wrong_exit_codes_and_statuses():
    wl = CliCorpus(SEED)
    i = command_index(wl, "check-flat", "fixtures/fuchsian_quarter.json")
    code, out = cli_result(wl, i)
    wl.check(i, (code, out))
    with pytest.raises(WrongOutput, match="differs between repeats"):
        wl.check(i, (code, out + b" "))
    fresh = CliCorpus(SEED)
    with pytest.raises(WrongOutput, match="with exit code"):
        fresh.check(i, (0, rewrite(out, status="fail")))
    fresh = CliCorpus(SEED)
    with pytest.raises(WrongOutput, match="expected 0"):
        fresh.check(i, (1, rewrite(out, status="fail")))
    with pytest.raises(OpFailed):
        CliCorpus(SEED).check(i, (1, b""))


@pytest.mark.parametrize("args,payload", [
    (("monodromy", "fixtures/fuchsian_quarter.json", "--tol"),
     {"matrices": [[[[0.0, -1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}),
    (("residues", "fixtures/fuchsian_two_poles.json"),
     {"infinity": [[[0.4, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.05, 0.0]]]}),
    (("pullback", "fixtures/fuchsian_quarter.json"),
     {"residues": [[[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}),
    (("exponent", "fixtures/presentation_heisenberg.json"), {"nu": 3}),
])
def test_cli_corpus_rejects_wrong_closed_forms(args, payload):
    wl = CliCorpus(SEED)
    i = command_index(wl, *args)
    code, out = cli_result(wl, i)
    wl.check(i, (code, out))
    with pytest.raises(WrongOutput):
        CliCorpus(SEED).check(i, (code, rewrite(out, payload=payload)))


def test_cli_corpus_kept_failure_is_counted_as_failed():
    wl = CliCorpus(SEED)
    i = command_index(wl, "residues", "perfbench/double_pole.json")
    with pytest.raises(OpFailed):
        wl.check(i, wl.run(i))

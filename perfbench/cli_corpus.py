"""The ``cli_corpus`` workload: one ``logconnect <verb>`` process per op.

The commands are those of ``fixtures/manifest.json`` plus one kept failing
command, taken in a seeded order, one process at a time.  Each process is a
fresh interpreter that calls the ``[project.scripts]`` target, as the
installed console script does.  This module uses the standard library only,
so that the benchmark's own imports add little to the set-up it measures.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys
import tomllib
from fractions import Fraction

from common import ROOT, OpFailed, WrongOutput

# kept failure: `residues` on an entry 1/x^2, a double pole along the declared
# divisor x = 0; the README promises exit 2 with a JSON verdict
DOUBLE_POLE = "perfbench/double_pole.json"
STATUS_OF_EXIT = {0: "ok", 1: "fail", 2: "error"}
CLOSE = 1e-8


def script_target():
    """The ``[project.scripts]`` target, as (module, attribute)."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        module, attr = tomllib.load(fh)["project"]["scripts"]["logconnect"].split(":")
    return module, attr


def fixture_matrix(doc):
    """A fixture's [[re, im], ...] rows; parts may be numbers or "p/q" strings."""
    return [[complex(float(Fraction(str(re))), float(Fraction(str(im)))) for re, im in row]
            for row in doc]


def payload_matrix(doc):
    return [[complex(re, im) for re, im in row] for row in doc]


def close(A, B, tol=CLOSE):
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(abs(a - b) <= tol for a, b in zip(ra, rb))
        for ra, rb in zip(A, B))


def scaled(c, A):
    return [[c * a for a in row] for row in A]


def matrix_sum(mats):
    return [[sum(col) for col in zip(*rows)] for rows in zip(*mats)]


class CliCorpus:
    """The fixture manifest plus the kept failing command, as processes."""

    spawns_processes = True

    def __init__(self, seed):
        manifest = json.loads((ROOT / "fixtures" / "manifest.json").read_text())
        self.commands = [
            {"args": [f"fixtures/{a}" if a.endswith(".json") else a for a in e["args"]],
             "expect": e["expect"]}
            for e in manifest
        ]
        self.commands.append({"args": ["residues", DOUBLE_POLE], "expect": 2})
        self.target = module, attr = script_target()
        # a fresh interpreter calling the target, as the installed script does
        self.argv = [sys.executable, "-c",
                     f"import sys; from {module} import {attr}; sys.exit({attr}())"]
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.order = list(range(len(self.commands)))
        random.Random(seed).shuffle(self.order)
        self.stdout = {}

    def verb(self, i):
        return self.commands[i]["args"][0]

    def ops(self):
        return [(i, self.run) for i in self.order]

    def run(self, i):
        r = subprocess.run(self.argv + self.commands[i]["args"], cwd=ROOT, env=self.env,
                           capture_output=True, timeout=120)
        return r.returncode, r.stdout

    def check(self, i, result):
        code, out = result
        cmd = self.commands[i]
        label = " ".join(cmd["args"])
        try:
            verdict = json.loads(out)
            status, payload = verdict["status"], verdict["payload"]
        except (ValueError, KeyError, TypeError):
            raise OpFailed(f"{label}: exit {code} without a JSON verdict") from None
        if self.stdout.setdefault(i, out) != out:
            raise WrongOutput(f"{label}: stdout differs between repeats")
        if STATUS_OF_EXIT.get(code) != status:
            raise WrongOutput(f"{label}: status {status!r} with exit code {code}")
        if code != cmd["expect"]:
            raise WrongOutput(f"{label}: exit {code}, expected {cmd['expect']}")
        self.closed_form(cmd["args"], payload, label)

    @staticmethod
    def closed_form(args, payload, label):
        """Payloads with a closed form: check them against it."""
        verb, path = args[0], args[1]
        name = pathlib.Path(path).name
        if verb == "monodromy" and name == "fuchsian_quarter.json":
            # exp(2 pi i diag(1/4, 0)) = diag(i, 1)
            if not close(payload_matrix(payload["matrices"][0]), [[1j, 0], [0, 1]]):
                raise WrongOutput(f"{label}: loop matrix is not diag(i, 1)")
        elif verb == "residues" and name == "fuchsian_two_poles.json":
            given = [fixture_matrix(R)
                     for R in json.loads((ROOT / path).read_text())["residues"]]
            got = [payload_matrix(R) for R in payload["residues"]]
            if len(got) != len(given) or not all(close(a, b) for a, b in zip(got, given)):
                raise WrongOutput(f"{label}: residues do not echo the input")
            if not close(payload_matrix(payload["infinity"]), scaled(-1, matrix_sum(given))):
                raise WrongOutput(f"{label}: infinity residue is not minus their sum")
        elif verb == "pullback" and name == "fuchsian_quarter.json":
            nu = int(args[args.index("--nu") + 1])
            given = fixture_matrix(json.loads((ROOT / path).read_text())["residues"][0])
            if not close(payload_matrix(payload["residues"][0]), scaled(nu, given)):
                raise WrongOutput(f"{label}: residue is not multiplied by {nu}")
        elif verb == "exponent" and name == "presentation_heisenberg.json":
            if payload.get("nu") != 2:
                raise WrongOutput(f"{label}: lifting exponent {payload.get('nu')}, expected 2")

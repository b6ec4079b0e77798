"""Regenerate the bundled fixture corpus and its manifest.

Run from the repository root:  python3 fixtures/generate.py

``documents()`` returns every file of the corpus as a JSON document and
``render`` gives its exact text, so a test can check that the committed files
are what this script writes.
"""

import json
import pathlib

import sympy as sp

from logconnect import FuchsianSystem, projectivize
from logconnect.serialization import system_to_json

HERE = pathlib.Path(__file__).parent


def render(doc):
    """The text of a corpus file holding ``doc``."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def documents():
    """File name -> JSON document, for every file of the corpus and the manifest."""
    docs = {}

    def write(name, doc):
        docs[name] = doc

    write("fuchsian_quarter.json", {
        "type": "fuchsian",
        "rank": 2,
        "poles": [[0, 0]],
        "residues": [[[["1/4", 0], [0, 0]], [[0, 0], [0, 0]]]],
    })

    write("fuchsian_two_poles.json", {
        "type": "fuchsian",
        "rank": 2,
        "poles": [[0, 0], [1, 0]],
        "residues": [
            [[["3/10", 0], [0, 0]], [[0, 0], ["-1/5", 0]]],
            [[["1/10", 0], [0, 0]], [[0, 0], ["1/4", 0]]],
        ],
    })

    write("local_model_commuting.json", {
        "type": "local_model",
        "rank": 2,
        "vars": 2,
        "residues": [
            [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],
            [[[3, 0], [0, 0]], [[0, 0], [4, 0]]],
        ],
    })

    write("local_model_noncommuting.json", {
        "type": "local_model",
        "rank": 2,
        "vars": 2,
        "residues": [
            [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
        ],
    })

    # Riccati data of a flat rational system (for reconstruct / lift-trace-free)
    F = FuchsianSystem(
        2, [0, 1],
        [
            [[sp.Rational(1, 3), sp.Rational(1, 2)], [0, sp.Rational(-1, 3)]],
            [[sp.Rational(1, 5), 0], [sp.Rational(1, 7), sp.Rational(2, 5)]],
        ],
    )
    write("riccati_from_fuchsian.json", system_to_json(projectivize(F)))

    write("presentation_heisenberg.json", {
        "type": "presentation",
        "rank": 2,
        "generators": {
            "g1": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            "g2": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        },
        "relations": [["g1", "g2", "g1^-1", "g2^-1"]],
    })

    write("presentation_diagonal.json", {
        "type": "presentation",
        "rank": 2,
        "generators": {
            "a": [[[0.8253356149096783, 0.5646424733950354], [0, 0]],
                  [[0, 0], [0.9210609940028851, -0.3894183423086505]]],
            "b": [[[0.9950041652780258, 0.09983341664682815], [0, 0]],
                  [[0, 0], [0.6216099682706644, 0.7833269096274834]]],
        },
        "poles": [[0, 0], [1, 0]],
    })

    write("matrix_pm_ok.json", {
        "type": "matrix", "rank": 2,
        "matrix": [[[1, 0], [0, 0]], [[0, 0], ["5/2", 0]]],
    })

    write("matrix_pm_bad.json", {
        "type": "matrix", "rank": 2,
        "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
    })

    write("bad_schema.json", {
        "type": "fuchsian",
        "rank": 2,
        "poles": [[0, 0]],
        "residues": [[[[1, 0]], [[0, 0], [1, 0]]]],
    })

    write("duplicate_poles.json", {
        "type": "fuchsian",
        "rank": 2,
        "poles": [[0, 0], [0, 0]],
        "residues": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        ],
    })

    write("loops_unit_circle.json", [{
        "basepoint": [1, 0],
        "segments": [{
            "kind": "arc", "center": [0, 0], "radius": 1.0,
            "from_angle": 0.0, "to_angle": 6.283185307179586,
        }],
    }])

    # one-variable system A dx/x + tau dx with nonresonant A
    x = "x"
    write("normalize_tau.json", {
        "type": "log_connection",
        "rank": 2,
        "vars": [x],
        "divisor": [{"var": 0, "value": [0, 0]}],
        "components": [[
            [{"num": {"0": [0, 0]}, "den": {"1": [1, 0]}},
             {"num": {"0": [1, 0]}, "den": {"0": [1, 0]}}],
            [{"num": {"0": [0, 0]}, "den": {"0": [1, 0]}},
             {"num": {"0": ["1/2", 0]}, "den": {"1": [1, 0]}}],
        ]],
    })

    write("normalize_resonant.json", {
        "type": "log_connection",
        "rank": 2,
        "vars": [x],
        "divisor": [{"var": 0, "value": [0, 0]}],
        "components": [[
            [{"num": {"0": [0, 0]}, "den": {"1": [1, 0]}},
             {"num": {"0": [1, 0]}, "den": {"0": [1, 0]}}],
            [{"num": {"0": [0, 0]}, "den": {"0": [1, 0]}},
             {"num": {"0": [1, 0]}, "den": {"1": [1, 0]}}],
        ]],
    })

    manifest = [
        {"args": ["check-flat", "fuchsian_quarter.json"], "expect": 0},
        {"args": ["check-flat", "local_model_commuting.json"], "expect": 0},
        {"args": ["check-flat", "local_model_noncommuting.json"], "expect": 1},
        {"args": ["residues", "fuchsian_two_poles.json"], "expect": 0},
        {"args": ["monodromy", "fuchsian_quarter.json", "--tol", "1e-10"], "expect": 0},
        {"args": ["monodromy", "fuchsian_quarter.json",
                  "--loops", "loops_unit_circle.json"], "expect": 0},
        {"args": ["projectivize", "fuchsian_quarter.json"], "expect": 0},
        {"args": ["reconstruct", "riccati_from_fuchsian.json"], "expect": 0},
        {"args": ["lift-trace-free", "riccati_from_fuchsian.json"], "expect": 0},
        {"args": ["predicates", "matrix_pm_ok.json"], "expect": 0},
        {"args": ["predicates", "matrix_pm_bad.json"], "expect": 1},
        {"args": ["pullback", "fuchsian_quarter.json", "--nu", "4"], "expect": 0},
        {"args": ["normalize", "normalize_tau.json", "--order", "6"], "expect": 0},
        {"args": ["normalize", "normalize_resonant.json"], "expect": 2},
        {"args": ["realize-local", "presentation_diagonal.json"], "expect": 0},
        {"args": ["realize-fuchsian", "presentation_diagonal.json"], "expect": 0},
        {"args": ["lift-rep", "presentation_heisenberg.json"], "expect": 1},
        {"args": ["lift-rep", "presentation_heisenberg.json", "--nu", "2"], "expect": 0},
        {"args": ["exponent", "presentation_heisenberg.json"], "expect": 0},
        {"args": ["check-flat", "bad_schema.json"], "expect": 2},
        {"args": ["check-flat", "duplicate_poles.json"], "expect": 2},
    ]
    write("manifest.json", manifest)
    return docs


def main():
    for name, doc in documents().items():
        (HERE / name).write_text(render(doc))


if __name__ == "__main__":
    main()

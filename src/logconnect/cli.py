"""Command-line front end.

Every command reads a single JSON document, dispatches to one library
operation and emits a verdict object

    {"status": "ok"|"fail"|"error", "payload": ..., "diagnostics": [...]}

with exit code 0 for ok, 1 for fail, 2 for error.  The default tolerance can
be overridden with the LOGCONNECT_TOL environment variable; a tolerance must
be finite and positive.  ``--output -`` (the default) writes to standard
output; when the output path cannot be written, the error verdict goes to
standard output instead.

One runner.  Each verb is a plain function of its parsed document and its
options that returns ``(status, payload)``, registered by ``_verb(name, reads,
tol)``.  The decorator gives it the INPUT argument, ``--output`` and, where the
verb has a default tolerance ``tol``, ``--tol``; ``_run`` then resolves the
tolerance, loads INPUT, refuses at ``/type`` a document of a known kind that is
not in ``reads``, parses it with ``validate_schema``, calls the verb and prints
the verdict, turning every expected exception into an error verdict.

Start-up cost.  This module imports only click and ``serialization``; each
verb imports the rest itself.  The exact verbs (``check-flat``, ``residues``,
``projectivize``, ``reconstruct``, ``lift-trace-free``, ``pullback``) load no
library beyond click: exact data is read into ``ratfunc``'s own
Gaussian-rational types and written from them.  The numeric verbs add numpy
alone: transport, the Sylvester solves of ``normalize``, the predicates and
lifting are numpy code.  No verb imports sympy, on any input.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import click

from .errors import LogConnectError, SchemaViolation
from .serialization import (
    PARSERS,
    parse_loops,
    parse_ratfunc,
    matrix_to_json,
    system_to_json,
    validate_schema,
)

CONNECTIONS = ("fuchsian", "local_model", "log_connection")


def _tolerance(opt, default):
    """``--tol``, else LOGCONNECT_TOL, else the verb's default; finite and positive."""
    env = os.environ.get("LOGCONNECT_TOL")
    if opt is not None:
        tol, source = opt, "--tol"
    elif env:
        tol, source = float(env), "LOGCONNECT_TOL"
    else:
        return default
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{source} must be a finite positive number, got {tol!r}")
    return tol


def _load(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _finish(status, payload, output):
    text = json.dumps({"status": status, "payload": payload, "diagnostics": []},
                      indent=2, sort_keys=True)
    if output == "-":
        click.echo(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # the verdict could not be written where asked
            _finish("error", {"error": type(exc).__name__, "message": str(exc)}, "-")
    sys.exit({"ok": 0, "fail": 1}.get(status, 2))


def _run(verb, reads, default_tol, path, output, options):
    """Run ``verb`` on the document at ``path``, which must be one of the kinds
    ``reads``, and print its verdict; expected exceptions become error verdicts."""
    try:
        if default_tol is not None:
            options["tol"] = _tolerance(options["tol"], default_tol)
        doc = _load(path)
        kind = doc.get("type") if isinstance(doc, dict) else None
        if isinstance(kind, str) and kind in PARSERS and kind not in reads:
            raise SchemaViolation("/type", f"expected one of: {', '.join(reads)}; got {kind!r}")
        status, payload = verb(validate_schema(doc), **options)
    except SchemaViolation as exc:
        _finish("error", {"error": "SchemaViolation", "pointer": exc.pointer,
                          "message": exc.message}, output)
    except (LogConnectError, ValueError, OverflowError, OSError) as exc:
        _finish("error", {"error": type(exc).__name__, "message": str(exc)}, output)
    else:
        _finish(status, payload, output)


@click.group()
def main():
    """Flat logarithmic connections, monodromy and projective lifting."""


def _verb(name, reads, tol=None):
    """Register ``verb(document, **options) -> (status, payload)`` as the command
    ``name``: INPUT, ``--tol`` when the verb has a default ``tol`` (its help names it),
    the options the verb is decorated with, and ``--output``, all run through ``_run``."""
    def register(verb):
        @functools.wraps(verb)  # the docstring, and the verb's own click options
        def command(input, output, **options):
            _run(verb, reads, tol, input, output, options)

        params = [click.Argument(["input"], type=str)]
        if tol is not None:
            params.append(click.Option(["--tol"], default=None, type=float,
                                       help=f"tolerance (default from LOGCONNECT_TOL or {tol:g})"))
        cmd = main.command(name, params=params)(command)
        return click.option("--output", default="-", help="output path, '-' for stdout")(cmd)
    return register


@_verb("check-flat", CONNECTIONS, tol=1e-12)
def check_flat(conn, tol):
    """Symbolic flatness verdict for a connection file."""
    from .connections import flatness_check

    flat = flatness_check(conn, tol=tol)
    return ("ok" if flat else "fail"), {"flat": flat}


@_verb("residues", CONNECTIONS)
def residues_cmd(conn):
    """All residue matrices (plus infinity for Fuchsian systems)."""
    from .connections import LogConnection, exact_residue, sphere_form

    # exact, each entry written correctly rounded
    form = sphere_form(conn)
    if form is None and isinstance(conn, LogConnection):
        mats = [exact_residue(conn, i) for i in range(len(conn.divisor))]
    else:  # held by the Fuchsian form of a system on the sphere, in divisor order, or
        # stored by a fuchsian or local_model document
        mats = (conn if form is None else form).residues
    payload = {"residues": [matrix_to_json(R) for R in mats]}
    if form is not None:  # the system lies on the sphere
        payload["infinity"] = matrix_to_json(form.infinity_residue)
    return "ok", payload


@_verb("monodromy", CONNECTIONS + ("riccati",), tol=1e-10)
@click.option("--basepoint", default=None, type=str,
              help="basepoint as 're,im' of the standard loops of a system in Fuchsian "
                   "form (default: of the 8 points (1 + max|p|) exp(i k pi/4), the one "
                   "whose corridors pass farthest from the other poles)")
@click.option("--loops", "loops_path", default=None, type=str,
              help="loop override file (JSON list of loops)")
def monodromy_cmd(conn, tol, basepoint, loops_path):
    """Monodromy matrices over standard (or supplied) loops.

    A system in Fuchsian form (fuchsian, or a one-variable log_connection or riccati of
    entries sum A_i/(x - p_i)) gets standard loops and the loop at infinity; a riccati
    document gives the canonical representatives of its projective classes."""
    from . import monodromy
    from .projective import RiccatiSystem

    bp = None
    if basepoint is not None:
        if loops_path is not None:
            raise ValueError("--basepoint places the standard loops of a system in "
                             "Fuchsian form; --loops gives its own")
        try:
            re, im = (float(s) for s in basepoint.split(","))
        except ValueError:
            raise ValueError(
                f"--basepoint must be two numbers 're,im', got {basepoint!r}") from None
        bp = complex(re, im)
        if not math.isfinite(abs(bp)):
            raise ValueError(f"--basepoint must be finite, got {basepoint!r}")
    loops = None if loops_path is None else parse_loops(_load(loops_path))
    rep = (monodromy.projective_monodromy if isinstance(conn, RiccatiSystem)
           else monodromy.monodromy_rep)(conn, loops, tol=tol, basepoint=bp)
    payload = {"matrices": [system_to_json(M) for M in rep.matrices],
               "basepoint": [rep.basepoint.real, rep.basepoint.imag]}
    if rep.infinity is not None:
        payload["infinity"] = system_to_json(rep.infinity)
        payload["composition_convention"] = rep.composition_convention
        payload["order"] = list(rep.order)
    return "ok", payload


@_verb("projectivize", CONNECTIONS)
def projectivize_cmd(conn):
    """Riccati coefficient extraction."""
    from .projective import projectivize

    return "ok", system_to_json(projectivize(conn))


@_verb("reconstruct", ("riccati",))
@click.option("--trace", "trace_json", default=None, type=str,
              help="trace 1-form file (JSON list of rational functions per variable)")
def reconstruct_cmd(ric, trace_json):
    """Unique linear system with given Riccati data and trace (default 0)."""
    from .projective import reconstruct

    trace = None
    if trace_json is not None:
        doc = _load(trace_json)
        if not isinstance(doc, list) or len(doc) != ric.n:
            raise SchemaViolation("/trace", "expected one entry per chart variable")
        trace = tuple(parse_ratfunc(e, ric.gens, f"/trace/{i}")[0]
                      for i, e in enumerate(doc))
    return "ok", system_to_json(reconstruct(ric, trace))


@_verb("lift-trace-free", ("riccati",))
def lift_trace_free(ric):
    """Trace-free linear lift of a Riccati system (verified flat)."""
    from .projective import trace_free_lift

    return "ok", system_to_json(trace_free_lift(ric))


@_verb("predicates", ("matrix",), tol=1e-9)
def predicates_cmd(M, tol):
    """Eigenvalue-separation and nonresonance predicates for a matrix file."""
    from . import algebra

    pm = algebra.property_Pm(M, tol=tol)
    nr = algebra.nonresonant(M, tol=tol)
    return ("ok" if (pm and nr) else "fail"), {"property_Pm": pm, "nonresonant": nr}


@_verb("pullback", CONNECTIONS)
@click.option("--var", default=0, type=int, help="chart variable index")
@click.option("--nu", required=True, type=int, help="covering degree")
def pullback_cmd(conn, var, nu):
    """Pull back along x_var -> x_var^nu."""
    from .connections import pullback_power

    return "ok", system_to_json(pullback_power(conn, var, nu))


@_verb("normalize", CONNECTIONS)
@click.option("--order", default=10, type=int, help="truncation order")
def normalize_cmd(conn, order):
    """Poincare gauge series reducing A dx/x + tau(x) dx to its local model."""
    from .connections import poincare_normalize

    return "ok", system_to_json(poincare_normalize(conn, order=order))


@_verb("realize-local", ("presentation",))
def realize_local(pres):
    """Local model realizing a commuting presentation's generators."""
    from . import lifting

    return "ok", system_to_json(lifting.local_realize(pres))


@_verb("realize-fuchsian", ("presentation",))
def realize_fuchsian_cmd(pres):
    """Fuchsian system on the sphere realizing an abelian presentation."""
    from . import lifting

    if pres.names and (pres.poles is None or len(pres.poles) != len(pres.names)):
        raise SchemaViolation("/poles", f"expected one pole per generator, "
                                        f"{len(pres.names)} in all")
    return "ok", system_to_json(lifting.realize_fuchsian(pres))


@_verb("lift-rep", ("presentation",))
@click.option("--nu", default=1, type=int, help="raise generators to this power first")
def lift_rep(pres, nu):
    """Lift a presentation to SL and report obstruction scalars."""
    from . import lifting

    report = lifting.verify_lift_after_power(pres, nu)
    return ("ok" if report.success else "fail"), system_to_json(report)


@_verb("exponent", ("presentation",))
def exponent_cmd(pres):
    """Lifting exponent: the least power nu <= rank whose lifts make every word scalar 1."""
    from . import lifting

    nu = lifting.lifting_exponent(pres)
    if nu is None:
        return "fail", {"nu": None,
                        "message": f"no power nu in 1..{pres.m} makes every word scalar 1"}
    return "ok", {"nu": nu}


if __name__ == "__main__":
    main()

"""Command-line front end.

Every command reads a single JSON document, dispatches to one library
operation and emits a verdict object

    {"status": "ok"|"fail"|"error", "payload": ..., "diagnostics": [...]}

with exit code 0 for ok, 1 for fail, 2 for error.  The default tolerance can
be overridden with the LOGCONNECT_TOL environment variable; a tolerance must
be finite and positive.  ``--output -`` (the default) writes to standard
output; when the output path cannot be written, the error verdict goes to
standard output instead.

Start-up cost.  This module imports only click and ``serialization``; each
verb imports the rest itself.  The exact verbs (``check-flat``, ``residues``,
``projectivize``, ``reconstruct``, ``lift-trace-free``, ``pullback``) load no
library beyond click: exact data is read into ``ratfunc``'s own
Gaussian-rational types and written from them.  The numeric verbs add numpy
alone: transport, the Sylvester solves of ``normalize``, the predicates and
lifting are numpy code.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click

from .errors import LogConnectError, SchemaViolation
from .serialization import (
    parse_loops,
    parse_ratfunc,
    matrix_to_json,
    system_to_json,
    validate_schema,
)

DEFAULT_TOL = 1e-10


def _tolerance(opt, default=DEFAULT_TOL):
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


def _finish(status, payload, output, diagnostics=()):
    text = json.dumps({"status": status, "payload": payload,
                       "diagnostics": list(diagnostics)}, indent=2, sort_keys=True)
    if output == "-":
        click.echo(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # the verdict could not be written where asked
            _finish("error", {"error": type(exc).__name__, "message": str(exc)}, "-")
    sys.exit({"ok": 0, "fail": 1}.get(status, 2))


def _run(fn, output):
    """Run an operation returning (status, payload); map errors to verdicts."""
    try:
        status, payload, notes = fn()
    except SchemaViolation as exc:
        _finish("error", {"error": "SchemaViolation", "pointer": exc.pointer,
                          "message": exc.message}, output)
    except LogConnectError as exc:
        _finish("error", {"error": type(exc).__name__, "message": str(exc)}, output)
    except (ValueError, OverflowError, json.JSONDecodeError, OSError) as exc:
        _finish("error", {"error": type(exc).__name__, "message": str(exc)}, output)
    else:
        _finish(status, payload, output, notes)


def _parse_as(path, *types):
    obj = validate_schema(_load(path))
    if types and not isinstance(obj, types):
        names = ", ".join(t.__name__ for t in types)
        raise SchemaViolation("/type", f"expected one of: {names}")
    return obj


def _parse_connection(path):
    """A ``fuchsian``, ``local_model`` or ``log_connection`` document."""
    from .connections import FuchsianSystem, LocalModel, LogConnection

    return _parse_as(path, FuchsianSystem, LocalModel, LogConnection)


out_opt = click.option("--output", default="-", help="output path, '-' for stdout")
tol_opt = click.option("--tol", default=None, type=float,
                       help="tolerance (default from LOGCONNECT_TOL or 1e-10)")


@click.group()
def main():
    """Flat logarithmic connections, monodromy and projective lifting."""


@main.command("check-flat")
@click.argument("input", type=str)
@tol_opt
@out_opt
def check_flat(input, tol, output):
    """Symbolic flatness verdict for a connection file."""
    def op():
        from .connections import flatness_check

        t = _tolerance(tol, 1e-12)
        flat = flatness_check(_parse_connection(input), tol=t)
        return ("ok" if flat else "fail"), {"flat": flat}, ()
    _run(op, output)


@main.command("residues")
@click.argument("input", type=str)
@out_opt
def residues_cmd(input, output):
    """All residue matrices (plus infinity for Fuchsian systems)."""
    def op():
        from .connections import FuchsianSystem, LocalModel, exact_residue

        conn = _parse_connection(input)
        # exact, each entry written correctly rounded
        if isinstance(conn, (FuchsianSystem, LocalModel)):
            mats = conn.residues
        else:
            mats = [exact_residue(conn, i) for i in range(len(conn.divisor))]
        payload = {"residues": [matrix_to_json(R) for R in mats]}
        if isinstance(conn, FuchsianSystem):
            payload["infinity"] = matrix_to_json(conn.infinity_residue)
        return "ok", payload, ()
    _run(op, output)


@main.command("monodromy")
@click.argument("input", type=str)
@tol_opt
@click.option("--basepoint", default=None, type=str,
              help="basepoint as 're,im' (default 1 + max|p|)")
@click.option("--loops", "loops_path", default=None, type=str,
              help="loop override file (JSON list of loops)")
@out_opt
def monodromy_cmd(input, tol, basepoint, loops_path, output):
    """Numerical monodromy matrices over standard (or supplied) loops."""
    def op():
        from . import monodromy
        from .connections import FuchsianSystem, LocalModel

        t = _tolerance(tol)
        conn = _parse_connection(input)
        if loops_path is not None:
            loops = parse_loops(_load(loops_path))
        elif isinstance(conn, FuchsianSystem):
            bp = None
            if basepoint is not None:
                re, im = (float(s) for s in basepoint.split(","))
                bp = complex(re, im)
                if not math.isfinite(abs(bp)):
                    raise ValueError(f"--basepoint must be finite, got {basepoint!r}")
            loops = monodromy.standard_loops(conn, basepoint=bp)
        elif isinstance(conn, LocalModel) and conn.k == 1:
            loops = [monodromy.circle_loop(0.0, 1.0)]
        else:
            raise SchemaViolation("", "supply --loops for this system kind")
        rep = monodromy.monodromy_rep(conn, loops, tol=t)
        payload = {"matrices": [matrix_to_json(M) for M in rep.matrices]}
        if rep.infinity is not None:
            payload["infinity"] = matrix_to_json(rep.infinity)
            payload["composition_convention"] = rep.composition_convention
        return "ok", payload, ()
    _run(op, output)


@main.command("projectivize")
@click.argument("input", type=str)
@out_opt
def projectivize_cmd(input, output):
    """Riccati coefficient extraction."""
    def op():
        from .projective import projectivize

        return "ok", system_to_json(projectivize(_parse_connection(input))), ()
    _run(op, output)


@main.command("reconstruct")
@click.argument("input", type=str)
@click.option("--trace", "trace_json", default=None, type=str,
              help="trace 1-form file (JSON list of rational functions per variable)")
@out_opt
def reconstruct_cmd(input, trace_json, output):
    """Unique linear system with given Riccati data and trace (default 0)."""
    def op():
        from .projective import RiccatiSystem, reconstruct

        ric = _parse_as(input, RiccatiSystem)
        trace = None
        if trace_json is not None:
            doc = _load(trace_json)
            if not isinstance(doc, list) or len(doc) != ric.n:
                raise SchemaViolation("/trace", "expected one entry per chart variable")
            trace = tuple(parse_ratfunc(e, ric.gens, f"/trace/{i}")[0]
                          for i, e in enumerate(doc))
        conn = reconstruct(ric, trace)
        return "ok", system_to_json(conn), ()
    _run(op, output)


@main.command("lift-trace-free")
@click.argument("input", type=str)
@out_opt
def lift_trace_free(input, output):
    """Trace-free linear lift of a Riccati system (verified flat)."""
    def op():
        from .projective import RiccatiSystem, trace_free_lift

        conn = trace_free_lift(_parse_as(input, RiccatiSystem))
        return "ok", system_to_json(conn), ()
    _run(op, output)


@main.command("predicates")
@click.argument("input", type=str)
@tol_opt
@out_opt
def predicates_cmd(input, tol, output):
    """Eigenvalue-separation and nonresonance predicates for a matrix file."""
    def op():
        import numpy as np

        from . import algebra

        t = _tolerance(tol, 1e-9)
        M = validate_schema(_load(input))
        if not isinstance(M, np.ndarray):
            raise SchemaViolation("/type", "expected a 'matrix' document")
        pm = algebra.property_Pm(M, tol=t)
        nr = algebra.nonresonant(M, tol=t)
        status = "ok" if (pm and nr) else "fail"
        return status, {"property_Pm": pm, "nonresonant": nr}, ()
    _run(op, output)


@main.command("pullback")
@click.argument("input", type=str)
@click.option("--var", default=0, type=int, help="chart variable index")
@click.option("--nu", required=True, type=int, help="covering degree")
@out_opt
def pullback_cmd(input, var, nu, output):
    """Pull back along x_var -> x_var^nu."""
    def op():
        from .connections import pullback_power

        out = pullback_power(_parse_connection(input), var, nu)
        return "ok", system_to_json(out), ()
    _run(op, output)


@main.command("normalize")
@click.argument("input", type=str)
@click.option("--order", default=10, type=int, help="truncation order")
@out_opt
def normalize_cmd(input, order, output):
    """Poincare gauge series reducing A dx/x + tau(x) dx to its local model."""
    def op():
        from .connections import poincare_normalize

        gauge = poincare_normalize(_parse_connection(input), order=order)
        return "ok", system_to_json(gauge), ()
    _run(op, output)


@main.command("realize-local")
@click.argument("input", type=str)
@out_opt
def realize_local(input, output):
    """Local model realizing a commuting presentation's generators."""
    def op():
        from . import lifting

        pres = _parse_as(input, lifting.ProjectivePresentation)
        model = lifting.local_realize(pres.generator_list())
        return "ok", system_to_json(model), ()
    _run(op, output)


@main.command("realize-fuchsian")
@click.argument("input", type=str)
@out_opt
def realize_fuchsian_cmd(input, output):
    """Fuchsian system on the sphere realizing an abelian presentation."""
    def op():
        from . import lifting

        pres = _parse_as(input, lifting.ProjectivePresentation)
        system = lifting.realize_fuchsian(pres)
        return "ok", system_to_json(system), ()
    _run(op, output)


@main.command("lift-rep")
@click.argument("input", type=str)
@click.option("--nu", default=1, type=int, help="raise generators to this power first")
@out_opt
def lift_rep(input, nu, output):
    """Lift a presentation to SL and report obstruction scalars."""
    def op():
        from . import lifting

        pres = _parse_as(input, lifting.ProjectivePresentation)
        if pres.relations:
            report = lifting.verify_lift_after_power(pres, nu)
        else:
            report = lifting.lift_commuting(pres.powered(nu).generator_list())
        status = "ok" if report.success else "fail"
        return status, system_to_json(report), ()
    _run(op, output)


@main.command("exponent")
@click.argument("input", type=str)
@out_opt
def exponent_cmd(input, output):
    """Lifting exponent: lcm of orders of finite-order eigenvalue ratios."""
    def op():
        from . import lifting

        pres = _parse_as(input, lifting.ProjectivePresentation)
        nu = lifting.lifting_exponent([g.canonical for g in pres.generator_list()])
        return "ok", {"nu": nu}, ()
    _run(op, output)


if __name__ == "__main__":
    main()

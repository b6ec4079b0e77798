"""JSON interchange for systems, Riccati data, loops and presentations.

Complex scalars serialize as two-element arrays [re, im]; matrices as
row-major nested arrays.  On input, each part of a scalar may also be a
string fraction like "1/3" to request exact coefficients; output always
emits numbers.  Numbers must be finite and ranks integers >= 1; a pole,
residue, branch value or rational-function coefficient, which verbs also read
as a float, must be within float range.  Rational functions are {num, den}
maps from keys "e1,...,en" (exponents >= 0) to scalars, read directly into
``ratfunc`` polynomials over the Gaussian rationals, whose generators are the
distinct names in ``"vars"``; each emitted coefficient part is the correctly
rounded float of its exact value.

In the exact kinds every scalar (pole, residue, branch value, coefficient) is
read by ``parse_scalar`` to its ``GaussianRational`` as written, a float part
as its dyadic value, and whether each was exact is ANDed into the parsed
system's one ``exact`` flag, and each is written from that value through
``complex()``.  ``matrix`` and ``presentation`` documents are numeric: their
entries and poles are read straight to complex numbers.  The exact kinds
import ``connections``, ``projective`` and ``ratfunc`` when one is first read
or written, which load no numpy.  numpy and ``lifting`` are imported only where
a numeric document is read, a numeric result is recognised through its already
loaded module, and loops import ``monodromy``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import SchemaViolation

__all__ = [
    "parse_scalar",
    "scalar_to_json",
    "matrix_to_json",
    "validate_schema",
    "system_to_json",
    "parse_loops",
]


# -- scalars and matrices ----------------------------------------------


def _part(value, pointer):
    """One part of a scalar as an int, a finite float or a Fraction."""
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaViolation(pointer, "expected a finite number")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaViolation(pointer, f"bad fraction literal {value!r}") from exc
    raise SchemaViolation(pointer, "expected a number or fraction string")


def _parts(value, pointer):
    """[re, im] (or bare number) -> (re, im), each part as in ``_part``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _part(value, pointer), 0
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaViolation(pointer, "expected [re, im]")
    return _part(value[0], pointer + "/0"), _part(value[1], pointer + "/1")


def _complex(value, pointer):
    """[re, im] (or bare number) -> complex, each part correctly rounded."""
    try:
        return complex(*_parts(value, pointer))
    except OverflowError as exc:
        raise SchemaViolation(pointer, "expected a number within float range") from exc


def parse_scalar(value, pointer=""):
    """[re, im] (or bare number) -> its exact ``GaussianRational``, and whether it is
    exact: the reader of every scalar in the exact kinds."""
    from .ratfunc import from_parts

    return from_parts(*_parts(value, pointer))


def _parse_value(value, pointer):
    """``parse_scalar`` of a residue, branch value or coefficient, which verbs also read
    as a float: one beyond float range is refused here, as a ``fuchsian`` pole is by
    its system."""
    _complex(value, pointer)
    return parse_scalar(value, pointer)


def _split(read):
    """[(value, exact), ...] -> ([value, ...], whether every one was exact)."""
    read = list(read)
    return [v for v, _ in read], all(e for _, e in read)


def scalar_to_json(z):
    c = complex(z)
    return [c.real, c.imag]


def _matrix(doc, m, pointer, read):
    """An m x m nested list of ``read(entry, pointer)``."""
    if not isinstance(doc, list) or len(doc) != m:
        raise SchemaViolation(pointer, f"expected {m} rows")
    out = []
    for i, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != m:
            raise SchemaViolation(f"{pointer}/{i}", f"expected {m} entries")
        out.append([read(e, f"{pointer}/{i}/{j}") for j, e in enumerate(row)])
    return out


def parse_matrix(doc, m, pointer, read=parse_scalar):
    """An m x m matrix of what ``read`` gives for each entry (by default its
    ``GaussianRational``), and whether every entry was exact."""
    return _split(map(_split, _matrix(doc, m, pointer, read)))


def _complex_matrix(doc, m, pointer):
    import numpy as np

    return np.array(_matrix(doc, m, pointer, _complex), dtype=complex)


def matrix_to_json(M):
    """Rows of scalars (an ndarray, or ``GaussianRational``s) as rows of [re, im]."""
    return [[scalar_to_json(e) for e in row] for row in M]


# -- rational functions ------------------------------------------------


def _poly_to_json(poly):
    from .ratfunc import complex_terms

    # the zero polynomial is written as its constant term 0
    terms = complex_terms(poly) or {(0,) * len(poly.gens): 0j}
    out = {",".join(str(e) for e in monom): scalar_to_json(c) for monom, c in terms.items()}
    return dict(sorted(out.items()))


def ratfunc_to_json(f):
    return {"num": _poly_to_json(f.num), "den": _poly_to_json(f.den)}


def parse_ratfunc(doc, gens, pointer):
    """A {num, den} document -> its ``RationalFunction``, and whether it was exact."""
    from .ratfunc import ZERO, RationalFunction, from_terms

    if not isinstance(doc, dict) or "num" not in doc or "den" not in doc:
        raise SchemaViolation(pointer, "expected {num, den} coefficient maps")

    def build(part, ptr):
        entries = doc[part]
        if not isinstance(entries, dict):
            raise SchemaViolation(ptr, "expected a monomial -> coefficient map")
        coeffs = {}
        exact = True
        for key, val in entries.items():
            try:
                exps = tuple(int(e) for e in key.split(","))
            except ValueError as exc:
                raise SchemaViolation(f"{ptr}/{key}", "bad monomial key") from exc
            if len(exps) != len(gens):
                raise SchemaViolation(f"{ptr}/{key}", "monomial arity mismatch")
            if min(exps) < 0:
                raise SchemaViolation(f"{ptr}/{key}", "negative exponent")
            c, ex = _parse_value(val, f"{ptr}/{key}")
            exact = exact and ex
            coeffs[exps] = coeffs.get(exps, ZERO) + c
        return from_terms(coeffs, gens), exact

    num, ex1 = build("num", pointer + "/num")
    den, ex2 = build("den", pointer + "/den")
    if den.is_zero:
        raise SchemaViolation(pointer + "/den", "denominator is identically zero")
    return RationalFunction(num, den), ex1 and ex2


# -- systems -----------------------------------------------------------


def _require(doc, key, pointer, kind=None):
    if key not in doc:
        raise SchemaViolation(f"{pointer}/{key}", "missing required field")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaViolation(f"{pointer}/{key}", f"expected {kind.__name__}")
    return val


def _integer(doc, key, pointer="", low=1, high=math.inf):
    """The field ``key``: an integer with low <= value < high (a JSON ``true`` is not one)."""
    v = _require(doc, key, pointer, int)
    if isinstance(v, bool) or not low <= v < high:
        raise SchemaViolation(f"{pointer}/{key}", f"expected an integer in [{low}, {high})")
    return v


def _real(doc, key, pointer, positive=False):
    """The field ``key``: a finite number (a JSON ``true`` is not one), > 0 when
    ``positive``, as a float."""
    v = _require(doc, key, pointer)
    if (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max and (v > 0 or not positive)):
        return float(v)
    raise SchemaViolation(f"{pointer}/{key}",
                          "expected a finite number" + (" > 0" if positive else ""))


def _parse_fuchsian(doc):
    from .connections import FuchsianSystem

    m = _integer(doc, "rank")
    poles_doc = _require(doc, "poles", "", list)
    res_doc = _require(doc, "residues", "", list)
    if len(res_doc) != len(poles_doc):
        raise SchemaViolation("/residues", "one residue per pole required")
    poles, ex1 = _split(parse_scalar(p, f"/poles/{i}") for i, p in enumerate(poles_doc))
    residues, ex2 = _split(parse_matrix(R, m, f"/residues/{i}", _parse_value)
                           for i, R in enumerate(res_doc))
    return FuchsianSystem(m, poles, residues, exact=ex1 and ex2)


def _parse_local_model(doc):
    from .connections import LocalModel

    m = _integer(doc, "rank")
    res_doc = _require(doc, "residues", "", list)
    residues, exact = _split(parse_matrix(R, m, f"/residues/{i}", _parse_value)
                             for i, R in enumerate(res_doc))
    n = _integer(doc, "vars", low=len(residues)) if "vars" in doc else len(residues)
    return LocalModel(m, residues, n=n, exact=exact)


def _parse_gens_field(doc, pointer):
    names = _require(doc, "vars", pointer, list)
    if not names or not all(isinstance(s, str) for s in names) or len(set(names)) < len(names):
        raise SchemaViolation(pointer + "/vars", "expected a nonempty list of distinct names")
    return tuple(names)


def _parse_divisor(doc, nvars, pointer):
    """The branches as ((var, ``GaussianRational``), whether the value was exact) pairs."""
    out = []
    for i, d in enumerate(_require(doc, "divisor", pointer, list)):
        if not isinstance(d, dict):
            raise SchemaViolation(f"{pointer}/divisor/{i}", "expected {var, value}")
        v = _integer(d, "var", f"{pointer}/divisor/{i}", low=0, high=nvars)
        val, ex = _parse_value(_require(d, "value", f"{pointer}/divisor/{i}"),
                               f"{pointer}/divisor/{i}/value")
        out.append(((v, val), ex))
    return out


def _parse_log_connection(doc):
    from .connections import LogConnection

    m = _integer(doc, "rank")
    gens = _parse_gens_field(doc, "")
    branches = _parse_divisor(doc, len(gens), "")
    comps_doc = _require(doc, "components", "", list)
    if len(comps_doc) != len(gens):
        raise SchemaViolation("/components", "one matrix component per variable required")
    comps, comps_exact = _split(
        parse_matrix(comp, m, f"/components/{v}", lambda e, ptr: parse_ratfunc(e, gens, ptr))
        for v, comp in enumerate(comps_doc))
    divisor, divisor_exact = _split(branches)
    exact = divisor_exact and comps_exact
    _require_logarithmic(comps, gens, branches, exact, lambda v, i, j: f"/components/{v}/{i}/{j}")
    return LogConnection(m, gens, divisor, comps, exact=exact)


def _require_logarithmic(components, gens, branches, exact, where):
    """Refuse an entry (i, j) of the dx_v part of ``components`` with a pole of order > 1
    along one of ``_parse_divisor``'s ``branches``, at the pointer ``where(v, i, j)``."""
    from .connections import line_quotient
    from .ratfunc import branch_line, to_complex

    for (v, c), c_exact in branches:
        line = branch_line(gens, v, c)
        for i, row in enumerate(components[v]):
            for j, f in enumerate(row):
                # (x - c)^2 divides the denominator, within tolerance for inexact data
                q = line_quotient(f.den, line, exact)
                if q is not None and line_quotient(q, line, exact) is not None:
                    # a float branch is named by its float value, not the dyadic one stored
                    z = to_complex(c)
                    value = c if c_exact else repr(z.real) if z.imag == 0 else z
                    raise SchemaViolation(
                        where(v, i, j),
                        f"pole of order > 1 along the branch {gens[v]} = {value}; "
                        "entries must be logarithmic",
                    )


def _parse_oneform(doc, gens, pointer):
    """One rational function per variable, and whether all were exact."""
    if not isinstance(doc, list) or len(doc) != len(gens):
        raise SchemaViolation(pointer, "expected one rational function per variable")
    return _split(parse_ratfunc(e, gens, f"{pointer}/{i}") for i, e in enumerate(doc))


def _chart_entries(m):
    """Where the Riccati fields sit in omega - omega_mm I: b_i at (i, m-1), Delta_i at
    (i, i) and c_k at (m-1, k), as lists of m-1 positions, and offdiag "i,k" at (i, k)."""
    r = range(m - 1)
    return ({"b": [(i, m - 1) for i in r], "delta": [(i, i) for i in r],
             "c": [(m - 1, k) for k in r]},
            [(i, k) for i in r for k in r if i != k])


def _parse_riccati(doc):
    from .projective import RiccatiSystem
    from .ratfunc import RationalFunction

    m = _integer(doc, "rank")
    gens = _parse_gens_field(doc, "")
    branches = _parse_divisor(doc, len(gens), "") if "divisor" in doc else []
    divisor, exact = _split(branches)
    lists, pairs = _chart_entries(m)
    forms = {(m - 1, m - 1): [RationalFunction.zero(gens)] * len(gens)}
    pointers = {}  # the pointer of each form the document gives
    for key, at in lists.items():
        doc_forms = _require(doc, key, "", list)
        if len(doc_forms) != m - 1:
            raise SchemaViolation(f"/{key}", f"expected rank - 1 = {m - 1} 1-forms")
        for i, e in enumerate(doc_forms):
            pointers[at[i]] = f"/{key}/{i}"
            forms[at[i]], ex = _parse_oneform(e, gens, pointers[at[i]])
            exact = exact and ex
    for key, val in (_require(doc, "offdiag", "", dict) if "offdiag" in doc else {}).items():
        try:
            i, k = (int(t) for t in key.split(","))
        except ValueError as exc:
            raise SchemaViolation(f"/offdiag/{key}", "bad index pair") from exc
        if i == k or (i, k) in forms or not (0 <= i < m - 1 and 0 <= k < m - 1):
            raise SchemaViolation(f"/offdiag/{key}", f"expected i != k below {m - 1}, each once")
        pointers[i, k] = f"/offdiag/{key}"
        forms[i, k], ex = _parse_oneform(val, gens, pointers[i, k])
        exact = exact and ex
    for i, k in pairs:
        if (i, k) not in forms:
            raise SchemaViolation("/offdiag", f"missing the pair {i},{k}")
    components = [[[forms[i, j][v] for j in range(m)] for i in range(m)]
                  for v in range(len(gens))]
    _require_logarithmic(components, gens, branches, exact, lambda v, i, j: f"{pointers[i, j]}/{v}")
    return RiccatiSystem(m, gens, divisor, components, exact=exact)


def _parse_presentation(doc):
    from .lifting import ProjectivePresentation

    m = _integer(doc, "rank")
    gens_doc = _require(doc, "generators", "", dict)
    generators = {}
    for name, M in gens_doc.items():
        generators[name] = _complex_matrix(M, m, f"/generators/{name}")
    relations = doc.get("relations", [])
    if not isinstance(relations, list):
        raise SchemaViolation("/relations", "expected a list of words")
    for i, word in enumerate(relations):
        if not isinstance(word, list) or not all(isinstance(t, str) for t in word):
            raise SchemaViolation(f"/relations/{i}", "expected a list of generator tokens")
    poles = None
    if "poles" in doc:
        poles = [_complex(p, f"/poles/{i}") for i, p in enumerate(_require(doc, "poles", "", list))]
    try:
        return ProjectivePresentation(m, generators, relations, poles=poles)
    except ValueError as exc:  # an unknown token, or a relation that does not hold
        message, *word = exc.args
        raise SchemaViolation(f"/relations/{word[0]}" if word else "/relations",
                              message) from None


def _parse_matrix_doc(doc):
    m = _integer(doc, "rank")
    return _complex_matrix(_require(doc, "matrix", "", list), m, "/matrix")


PARSERS = {
    "fuchsian": _parse_fuchsian,
    "local_model": _parse_local_model,
    "log_connection": _parse_log_connection,
    "riccati": _parse_riccati,
    "presentation": _parse_presentation,
    "matrix": _parse_matrix_doc,
}


def validate_schema(doc):
    """Parse a JSON document into a typed object or raise SchemaViolation."""
    if not isinstance(doc, dict):
        raise SchemaViolation("", "expected a JSON object")
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in PARSERS:
        raise SchemaViolation(
            "/type", f"unknown or missing type; expected one of {sorted(PARSERS)}"
        )
    return PARSERS[kind](doc)


# -- loops -------------------------------------------------------------


def parse_loops(doc, pointer="/loops"):
    """Parse a nonempty list of loop documents into LoopPath objects; each loop needs
    at least one segment, and every join, the basepoint's to the first segment among
    them, is judged by ``LoopPath``'s rule: a segment that does not join is named by
    its own pointer, a loop that does not close by the loop's."""
    from .monodromy import ArcSegment, LineSegment, LoopPath

    if not isinstance(doc, list) or not doc:
        raise SchemaViolation(pointer, "expected a nonempty list of loops")
    loops = []
    for i, entry in enumerate(doc):
        ptr = f"{pointer}/{i}"
        if not isinstance(entry, dict):
            raise SchemaViolation(ptr, "expected {basepoint, segments}")
        current = bp = _complex(_require(entry, "basepoint", ptr), ptr + "/basepoint")
        segs, docs = [], _require(entry, "segments", ptr, list)
        if not docs:
            raise SchemaViolation(ptr + "/segments", "a loop needs at least one segment")
        for j, s in enumerate(docs):
            sptr = f"{ptr}/segments/{j}"
            if not isinstance(s, dict):
                raise SchemaViolation(sptr, "expected a segment object")
            kind = _require(s, "kind", sptr, str)
            if kind == "line":
                to = _complex(_require(s, "to", sptr), sptr + "/to")
                segs.append(LineSegment(current, to))
                current = to
            elif kind == "arc":
                center = _complex(_require(s, "center", sptr), sptr + "/center")
                seg = ArcSegment(center, _real(s, "radius", sptr, positive=True),
                                 _real(s, "from_angle", sptr), _real(s, "to_angle", sptr))
                segs.append(seg)
                current = seg.point(1.0)
            else:
                raise SchemaViolation(sptr + "/kind", "expected 'line' or 'arc'")
        try:
            loop = LoopPath(segs, basepoint=bp)
        except ValueError as exc:  # LoopPath's closure check, or its join check at a segment
            message, *segment = exc.args
            where = f"{ptr}/segments/{segment[0]}" if segment else ptr
            raise SchemaViolation(where, message) from None
        if not loop.starts_at(bp):  # only an arc can start elsewhere
            raise SchemaViolation(ptr + "/segments/0", "arc does not start at the basepoint")
        loops.append(loop)
    return loops


# -- emission ----------------------------------------------------------


def system_to_json(obj):
    """Serialize any library object to its JSON document."""
    # an object of a numeric type exists only once its module is loaded, so these
    # checks import nothing: no exact verb loads numpy, and lift-rep no exact type
    np, algebra, lifting = (sys.modules.get(name) for name in
                            ("numpy", f"{__package__}.algebra", f"{__package__}.lifting"))
    if lifting is not None and isinstance(obj, lifting.LiftReport):
        return {
            "type": "lift_report",
            "lifts": [matrix_to_json(M) for M in obj.lifts],
            "obstruction_scalars": [scalar_to_json(s) for s in obj.obstruction_scalars],
            "success": obj.success,
        }
    if algebra is not None and isinstance(obj, algebra.ProjectiveClass):
        return matrix_to_json(obj.canonical)
    if np is not None and isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    from .connections import FuchsianSystem, GaugeSeries, LocalModel, LogConnection
    from .projective import RiccatiSystem
    from .ratfunc import to_complex

    if isinstance(obj, FuchsianSystem):
        return {
            "type": "fuchsian",
            "rank": obj.m,
            "poles": [scalar_to_json(p) for p in obj.poles],
            "residues": [matrix_to_json(R) for R in obj.residues],
        }
    if isinstance(obj, LocalModel):
        return {
            "type": "local_model",
            "rank": obj.m,
            "vars": obj.n,
            "residues": [matrix_to_json(R) for R in obj.residues],
        }
    if isinstance(obj, LogConnection):
        return {
            "type": "log_connection",
            "rank": obj.m,
            "vars": list(obj.gens),
            "divisor": [
                {"var": v, "value": scalar_to_json(to_complex(c))} for v, c in obj.divisor
            ],
            "components": [
                [[ratfunc_to_json(obj.entry(v, i, j)) for j in range(obj.m)]
                 for i in range(obj.m)]
                for v in range(obj.n)
            ],
        }
    if isinstance(obj, RiccatiSystem):
        lists, pairs = _chart_entries(obj.m)

        def form(i, k):
            return [ratfunc_to_json(comp[i][k]) for comp in obj.components]

        return {
            "type": "riccati",
            "rank": obj.m,
            "vars": list(obj.gens),
            "divisor": [
                {"var": v, "value": scalar_to_json(to_complex(c))} for v, c in obj.divisor
            ],
            **{key: [form(*ik) for ik in at] for key, at in lists.items()},
            "offdiag": {f"{i},{k}": form(i, k) for i, k in pairs},
        }
    if isinstance(obj, GaugeSeries):
        return {
            "type": "gauge_series",
            "order": obj.order,
            "coefficients": [matrix_to_json(G) for G in obj.coefficients],
        }
    raise TypeError(f"no JSON form for {type(obj).__name__}")

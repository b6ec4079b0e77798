"""Static checks on the library's source, with the standard library's ``ast``, a
fresh-interpreter check that exact residues need no numpy, and checks that exact
scalars reach numbers through ratfunc's reader."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest
import sympy as sp

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "logconnect"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Name -> line for every name an import statement binds at any level."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    """Names read anywhere, plus the strings listed in ``__all__``."""
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_expression_substitution(path):
    """Exact data stays in polynomial arithmetic: no sympy ``.subs`` round trips."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "subs"]
    assert not calls, f"{path.name} calls .subs( on lines {calls}"


EXPRESSION_CALLS = {"lambdify", "as_expr", "terms", "coeffs", "all_coeffs"}


def called_name(call):
    """The name a call invokes: ``f`` for both ``f(...)`` and ``obj.f(...)``."""
    return getattr(call.func, "attr", getattr(call.func, "id", None))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_coefficient_expression_round_trip(path):
    """Coefficients cross between QQ_I and complex numbers only through ratfunc's
    native readers: no ``lambdify`` and no per-term sympy expressions."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [(node.lineno, called_name(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and called_name(node) in EXPRESSION_CALLS]
    assert not calls, f"{path.name} builds sympy expressions from coefficients: {calls}"


def gcd_calls(node):
    """Lines that call a polynomial ``gcd`` method; ``math.gcd`` of integers removes the
    content a polynomial's numerators share with its denominator, and is not one."""
    return {call.lineno for call in ast.walk(node)
            if isinstance(call, ast.Call) and called_name(call) == "gcd"
            and not (isinstance(call.func, ast.Attribute)
                     and getattr(call.func.value, "id", None) == "math")}


def functions_naming(path, names):
    """(module, class or None, function) of each module function and method that names
    one of ``names``, so that passing a function to ``reduce`` counts as calling it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {(path.name, getattr(scope, "name", None), f.name)
            for scope in [tree, *(c for c in ast.walk(tree) if isinstance(c, ast.ClassDef))]
            for f in scope.body if isinstance(f, ast.FunctionDef) and any(
                getattr(n, "id", getattr(n, "attr", None)) in names
                for n in ast.walk(f) if isinstance(n, (ast.Name, ast.Attribute)))}


def test_fractions_are_reduced_in_one_place():
    """Which gcd algorithm reduces a fraction is decided in one function: no module calls
    a polynomial ``.gcd(`` method, only ``RationalFunction.__init__`` calls
    ``ratfunc._gcd``, and the algorithms ``_gcd`` chooses from are reached only from
    ``_gcd`` and from the remainder sequence itself."""
    stray = {}
    for path in MODULES:
        if calls := gcd_calls(ast.parse(path.read_text())):
            stray[path.name] = sorted(calls)
    assert not stray, f"a polynomial gcd method called: {stray}"
    callers = set().union(*(functions_naming(path, {"_gcd"}) for path in MODULES))
    assert callers == {("ratfunc.py", "RationalFunction", "__init__")}, callers
    algorithms = set().union(*(functions_naming(path, {"_prs_gcd", "_coprime_mod_p"})
                               for path in MODULES))
    assert algorithms == {("ratfunc.py", None, "_gcd"), ("ratfunc.py", None, "_primitive_part"),
                          ("ratfunc.py", None, "_prs_gcd")}, algorithms


LIFTING = PACKAGE / "lifting.py"
KNOBS = {"tol", "k_max", "attempts"}


def test_obstruction_scalars_are_read_in_one_place():
    """Every obstruction scalar comes from ``lifting._lift``: only it and the relation
    check of ``ProjectivePresentation.__init__`` evaluate words, the two older scalar
    readers are gone, and the tolerances and search bounds are module constants: no
    function of lifting takes one except ``realize_fuchsian`` and the closed-form
    monodromy check it hands its ``tol`` to."""
    assert functions_naming(LIFTING, {"_evaluate"}) == {
        ("lifting.py", None, "_lift"), ("lifting.py", "ProjectivePresentation", "__init__")}
    assert functions_naming(LIFTING, {"_scalar_of", "_commutator_scalar"}) == set()
    knobs = {f.name for f in ast.walk(ast.parse(LIFTING.read_text()))
             if isinstance(f, ast.FunctionDef)
             and KNOBS & {a.arg for a in f.args.args + f.args.kwonlyargs}}
    assert knobs == {"realize_fuchsian", "_closed_form_monodromy"}, knobs


MONODROMY = PACKAGE / "monodromy.py"


def test_a_residue_basis_forms_its_loop_matrix_in_one_place():
    """V diag(exp(2 pi i sum_i w_i d_i)) V^-1 is written once, in
    ``_Residues.loop_matrix``: it is the one function that reads ``residue_eigenbasis``
    and calls ``exp``, lifting calls no ``exp`` at all, and the closed forms of transport
    and of the realizations both call it.  Whether a system is Fuchsian is asked only of
    ``connections.fuchsian_form``, by transport, ``standard_loops`` and
    ``connections.sphere_form``, so every later step of transport sees one
    representation of Fuchsian data."""
    readers = set().union(*(functions_naming(p, {"residue_eigenbasis"}) for p in MODULES))
    exps = set().union(*(functions_naming(p, {"exp"}) for p in MODULES))
    assert readers & exps == {("connections.py", "_Residues", "loop_matrix")}, readers & exps
    assert functions_naming(LIFTING, {"exp"}) == set()
    assert set().union(*(functions_naming(p, {"loop_matrix"}) for p in MODULES)) == {
        ("monodromy.py", None, "_closed_form_loop"),
        ("lifting.py", None, "_closed_form_monodromy")}
    assert set().union(*(functions_naming(p, {"fuchsian_form"}) for p in MODULES)) == {
        ("monodromy.py", None, "transport"), ("monodromy.py", None, "standard_loops"),
        ("connections.py", None, "sphere_form")}


ERRORS = PACKAGE / "errors.py"


def error_classes():
    """The subclasses of ``LogConnectError`` that errors.py defines, at any depth."""
    tree = ast.parse(ERRORS.read_text(), filename=str(ERRORS))
    found = {"LogConnectError"}
    for node in tree.body:  # a class follows its bases in the module
        if isinstance(node, ast.ClassDef) and {getattr(b, "id", None) for b in node.bases} & found:
            found.add(node.name)
    return found - {"LogConnectError"}


def raised_names(tree):
    """Names in a ``raise`` statement, or handed to a call, as an error for it to raise
    (``_realizing_residues(classes, NonAbelianUnsupported)``)."""
    sites = [n.exc for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc is not None]
    sites += [a for n in ast.walk(tree) if isinstance(n, ast.Call)
              for a in n.args + [k.value for k in n.keywords]]
    return {n.id for site in sites for n in ast.walk(site) if isinstance(n, ast.Name)}


def test_every_error_class_is_raised():
    """Every error class is raised somewhere in the library, so a deleted code path
    cannot leave its error behind."""
    raised = set().union(*(raised_names(ast.parse(p.read_text(), filename=str(p)))
                           for p in MODULES if p != ERRORS))
    classes = error_classes()
    assert len(classes) > 10
    assert classes <= raised, f"error classes never raised: {sorted(classes - raised)}"


RICCATI_FIELDS = {"b", "delta", "c", "offdiag"}


def test_riccati_fields_are_named_in_one_place():
    """A ``RiccatiSystem`` holds omega - omega_mm I as a matrix of 1-forms, and which
    entry of it the ``riccati`` document's b, delta, c and offdiag name is written only
    in serialization: no other module names them as an attribute or a string."""
    named = {}
    for path in PACKAGE.glob("*.py"):
        lines = sorted({n.lineno for n in ast.walk(ast.parse(path.read_text()))
                        if (n.attr if isinstance(n, ast.Attribute) else n.value
                            if isinstance(n, ast.Constant) else None) in RICCATI_FIELDS})
        if lines:
            named[path.name] = lines
    assert set(named) == {"serialization.py"}, named


CLI = PACKAGE / "cli.py"
# the calls that only the runner makes: ``_verb`` registers each command (``main.command``)
# to call ``_run``, and ``_run`` parses the document
RUNNER_CALLS = {"command": ["_verb"], "_run": ["_verb"], "validate_schema": ["_run"]}


def test_every_verb_joins_through_the_runner():
    """A command of cli.py is a plain function registered by ``_verb``: it defines no
    function of its own, and no function but the runner registers a command, calls
    ``_run`` or parses a document, so a new verb can only join through the runner."""
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                and any(isinstance(d, ast.Call) and called_name(d) == "_verb"
                        for d in f.decorator_list)]
    assert len(commands) > 1
    nested = {f.name: lines for f in commands if (lines := [
        n.lineno for n in ast.walk(f) if n is not f
        and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))])}
    assert not nested, f"functions defined inside a command: {nested}"
    callers = {name: [] for name in RUNNER_CALLS}
    for stmt in tree.body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Call) and called_name(n) in callers:
                callers[called_name(n)].append(getattr(stmt, "name", None))
    assert callers == RUNNER_CALLS, callers


def test_no_type_dispatch_on_fuchsian_systems():
    """Whether a system is Fuchsian is decided from its entries by
    ``connections.fuchsian_form``, not from its type: monodromy and cli name
    ``FuchsianSystem`` in no ``isinstance``."""
    stray = {}
    for path in (MONODROMY, CLI):
        tree = ast.parse(path.read_text(), filename=str(path))
        if lines := [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
                     and called_name(n) == "isinstance" and any(
                         getattr(x, "id", getattr(x, "attr", None)) == "FuchsianSystem"
                         for a in n.args[1:] for x in ast.walk(a))]:
            stray[path.name] = lines
    assert not stray, f"isinstance(..., FuchsianSystem) on lines {stray}"


# what the ``monodromy`` verb leaves to the monodromy module: the Fuchsian form, the
# trace-free lift of a riccati document and the default loops
MONODROMY_OWNS = {"fuchsian_form", "reconstruct", "standard_loops", "circle_loop"}


def test_where_a_system_lives_is_decided_in_one_place():
    """A local model's polydisk has no point at infinity, and that is written once, in
    ``connections.sphere_form``: ``exact_residue``, ``monodromy_rep`` and the
    ``residues`` verb ask it, and neither cli nor monodromy names ``LocalModel``.  The
    ``monodromy`` verb parses its options and passes them on: its default loops are
    ``monodromy``'s to choose."""
    assert set().union(*(functions_naming(p, {"sphere_form"}) for p in MODULES)) == {
        ("connections.py", None, "exact_residue"), ("monodromy.py", None, "monodromy_rep"),
        ("cli.py", None, "residues_cmd")}
    for path in (MONODROMY, CLI):
        assert "LocalModel" not in {
            getattr(n, "id", getattr(n, "attr", getattr(n, "name", None)))
            for n in ast.walk(ast.parse(path.read_text()))}, path.name
    assert ("cli.py", None, "monodromy_cmd") not in functions_naming(CLI, MONODROMY_OWNS)


# the functions of ratfunc that may reach sympy, each on call: the reader of sympy
# numbers (through an already loaded sympy), and the sympy numbers that
# ``Polynomial.all_coeffs`` and ``terms`` return, which the benchmark's checker reads
SYMPY_SITES = {"to_scalar", "_sympy_numbers"}


def library_lines(node, library):
    """Lines that import ``library`` or name it as a module (``sys.modules.get("sympy")``)."""
    lines = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            names = [n.module or ""]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names = [n.value]
        else:
            continue
        if any(name == library or name.startswith(library + ".") for name in names):
            lines.add(n.lineno)
    return lines


def test_sympy_numbers_are_read_in_one_place():
    """The library's exact types are its own, and sympy is reached only lazily, only
    in ratfunc, and only from ``to_scalar`` and ``_sympy_numbers``; no
    module converts with ``from_sympy`` or ``to_sympy``."""
    stray, used = {}, set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "ratfunc.py":
            for f in ast.walk(tree):
                if (isinstance(f, ast.FunctionDef) and f.name in SYMPY_SITES
                        and library_lines(f, "sympy")):
                    used.add(f.name)
                    allowed |= library_lines(f, "sympy")
        calls = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and called_name(node) in ("from_sympy", "to_sympy")}
        if (library_lines(tree, "sympy") - allowed) | calls:
            stray[path.name] = sorted((library_lines(tree, "sympy") - allowed) | calls)
    assert used == SYMPY_SITES, f"sympy sites that no longer reach sympy: {SYMPY_SITES - used}"
    assert not stray, f"sympy reached outside ratfunc's lazy sites: {stray}"


# the one function of the library that may reach scipy: the module ``__getattr__`` of
# monodromy, which imports ``solve_ivp`` when the benchmark's tracer looks it up
SCIPY_SITES = {("monodromy.py", "__getattr__")}


def test_scipy_is_named_in_one_place():
    """No verb needs scipy: the library names it only inside ``SCIPY_SITES``."""
    stray, used = {}, set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for f in ast.walk(tree):
            if (isinstance(f, ast.FunctionDef) and (path.name, f.name) in SCIPY_SITES
                    and library_lines(f, "scipy")):
                used.add((path.name, f.name))
                allowed |= library_lines(f, "scipy")
        if library_lines(tree, "scipy") - allowed:
            stray[path.name] = sorted(library_lines(tree, "scipy") - allowed)
    assert used == SCIPY_SITES, f"scipy sites that no longer reach scipy: {SCIPY_SITES - used}"
    assert not stray, f"scipy named outside {SCIPY_SITES}: {stray}"


HEAVY = ("sympy", "scipy.linalg", "scipy.integrate", "numpy")
# module -> the heavy libraries importing it loads, directly or through the
# package's own modules; every verb imports cli and serialization, and only the
# numeric modules load numpy, so the exact verbs never do
TIERS = {
    "__init__": set(),
    "errors": set(),
    "algebra": {"numpy"},
    "lifting": {"numpy"},
    "serialization": set(),
    "cli": set(),
    "ratfunc": set(),
    "connections": set(),
    "projective": set(),
    "monodromy": {"numpy"},
}


def module_level_imports(tree):
    """Modules imported outside function bodies: dotted names for absolute
    imports, the bare module name for the package's own (``from . import``)."""
    out = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # runs on call, not on import
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            out.update([node.module] if node.module else [a.name for a in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_heavy_libraries_load_only_where_pinned():
    """sympy, scipy.linalg and scipy.integrate each cost hundreds of
    milliseconds per process, and numpy over a hundred, so a module may load one
    at import time only if the table above says so."""
    graph = {p.stem: module_level_imports(ast.parse(p.read_text(), filename=str(p)))
             for p in PACKAGE.glob("*.py")}

    def loads(module, seen):
        seen.add(module)
        out = {lib for lib in HEAVY for name in graph[module]
               if name == lib or name.startswith(lib + ".")}
        for name in graph[module] & (set(graph) - seen):
            out |= loads(name, seen)
        return out

    assert {module: loads(module, set()) for module in graph} == TIERS


def package_imports(tree):
    """The package's own modules that a module imports anywhere, on import or on call."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("logconnect."):
            out.add(node.module.split(".")[1])
    return out


def test_lifting_never_imports_monodromy():
    """No module that lifting imports, on import or on call, directly or through algebra
    or connections, imports monodromy: the realize-*, lift-rep and exponent verbs then
    never compile monodromy.py or load numpy.polynomial."""
    graph = {p.stem: package_imports(ast.parse(p.read_text(), filename=str(p)))
             for p in PACKAGE.glob("*.py")}
    reached, stack = set(), ["lifting"]
    while stack:
        module = stack.pop()
        reached.add(module)
        stack.extend(graph[module] - reached)
    assert {"algebra", "connections"} <= reached
    assert "monodromy" not in reached, reached


@pytest.mark.parametrize("c, one_var", [(0.3, False), ("3/10", False), ("3/10", True)],
                         ids=["float", "exact", "fuchsian-form"])
def test_residues_of_a_log_connection_load_no_numpy(tmp_path, c, one_var):
    """``connections.exact_residue`` restricts each entry to its branch by exact
    division, so ``residues`` of a ``log_connection`` runs without numpy, for float data
    as for exact data; a one-variable document in Fuchsian form is read in that form
    (``sphere_form``) for its residue at infinity, still without numpy."""
    neg = -c if isinstance(c, float) else "-" + c
    doc = {"type": "log_connection", "rank": 1, "vars": ["x", "y"],
           "divisor": [{"var": 0, "value": [c, 0]}],
           "components": [[[{"num": {"0,0": [0.5, "1/4"]},
                             "den": {"1,0": [1, 0], "0,0": [neg, 0]}}]],
                          [[{"num": {"0,0": [0, 0]}, "den": {"0,0": [1, 0]}}]]]}
    if one_var:
        doc = {**doc, "vars": ["x"], "components": [[[{"num": {"0": [0.5, "1/4"]},
                                                       "den": {"1": [1, 0], "0": [neg, 0]}}]]]}
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(doc))
    code = ("import sys\nfrom logconnect.cli import main\ntry:\n    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n    print('numpy' in sys.modules, file=sys.stderr)\n"
            "    sys.exit(exc.code)\n")
    pythonpath = os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", code, "residues", str(path)], capture_output=True,
                       text=True, timeout=60, env={**os.environ, "PYTHONPATH": pythonpath})
    assert r.returncode == 0, r.stdout + r.stderr
    payload = json.loads(r.stdout)["payload"]
    assert payload["residues"] == [[[[0.5, 0.25]]]]
    assert payload.get("infinity") == ([[[-0.5, -0.25]]] if one_var else None)
    assert r.stderr.split()[-1] == "False", "residues loaded numpy"


READER_CASES = [sp.Integer(7), sp.Integer(-3), sp.Rational(1, 3),
                sp.Rational(5404319552844595, 18014398509481984),  # the float 0.3
                sp.Rational(10**30 + 1, 3**40),
                sp.Rational(1, 3) - sp.Rational(2, 7) * sp.I, 5 * sp.I / 4, sp.I]


@pytest.mark.parametrize("value", READER_CASES, ids=str)
def test_reader_gives_the_floats_of_evalf(value):
    from logconnect.ratfunc import to_complex

    assert to_complex(value) == complex(value)


def test_transport_of_exact_data_never_calls_evalf(monkeypatch):
    from logconnect import FuchsianSystem, monodromy_rep, standard_loops

    third, fifth_i, quarter = sp.Rational(1, 3), sp.I / 5, sp.Rational(-1, 4)
    poles = [0, third, -1 + sp.I / 2]
    residues = [[[third, 0], [fifth_i, -third]], [[0, 1], [0, 0]], [[quarter, 0], [0, third]]]

    def refuse(*args, **kwargs):
        raise AssertionError("evalf called")

    monkeypatch.setattr(sp.core.evalf.EvalfMixin, "evalf", refuse)
    with pytest.raises(AssertionError):
        complex(third)  # complex() of a sympy number goes through the patched evalf
    F = FuchsianSystem(2, poles, residues)
    rep = monodromy_rep(F, standard_loops(F))
    assert len(rep.matrices) == 3

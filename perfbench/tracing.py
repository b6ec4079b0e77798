"""In-memory spans around calls into logconnect's public functions.

The tracer replaces each named function or method by a wrapper, wherever a
logconnect module holds it, so that calls made inside the library pass
through the wrapper too.  Nothing under ``src/`` changes: the wrappers live
only in the traced benchmark process.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute or "Class.method", span name)
TARGETS = [
    ("connections", "FuchsianSystem.to_log_connection", "connections.to_log_connection"),
    ("connections", "LogConnection.equals", "connections.equals"),
    ("connections", "residue", "connections.residue"),
    ("connections", "poincare_normalize", "connections.poincare_normalize"),
    ("connections", "poincare_defect", "connections.poincare_defect"),
    ("projective", "projectivize", "projective.projectivize"),
    ("projective", "reconstruct", "projective.reconstruct"),
    ("serialization", "validate_schema", "serialization.validate_schema"),
    ("algebra", "sylvester_solve", "algebra.sylvester_solve"),
    ("monodromy", "transport", "monodromy.transport"),
    ("monodromy", "projective_monodromy", "monodromy.projective_monodromy"),
    ("monodromy", "standard_loops", "monodromy.standard_loops"),
    ("lifting", "realize_fuchsian", "lifting.realize_fuchsian"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "nfev")

    def __init__(self, name, start, parent, tag):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag
        self.nfev = 0


class Tracer:
    """Records spans (name, start, end, parent) and solver evaluation counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = type(args[0]).__name__ if args else ""
            span = Span(name, time.perf_counter(), open_[-1] if open_ else -1, tag)
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()

        return wrapper

    def _count_nfev(self, solve_ivp):
        spans, open_ = self.spans, self._open

        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            if open_:
                spans[open_[-1]].nfev += int(sol.nfev)
            return sol

        return wrapper

    def install(self):
        """Wrap every target in every loaded logconnect module that binds it."""
        owners = {mod: importlib.import_module(f"logconnect.{mod}") for mod, _, _ in TARGETS}
        modules = [m for n, m in sys.modules.items()
                   if n == "logconnect" or n.startswith("logconnect.")]
        for modname, attr, name in TARGETS:
            owner = owners[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        mono = sys.modules["logconnect.monodromy"]
        mono.solve_ivp = self._count_nfev(mono.solve_ivp)

    # -- summaries ---------------------------------------------------------

    def totals(self, first=0, last=None):
        """name -> [calls, total s, self s, nfev] over spans[first:last]."""
        spans = self.spans[first:last]
        child_time = [0.0] * len(self.spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, list] = {}
        for i, s in enumerate(spans, start=first):
            row = out.setdefault(s.name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += s.end - s.start - child_time[i]
            row[3] += s.nfev
        return out

    def transport_by_tag(self):
        """Transport seconds and solver RHS evaluations, split by system type."""
        out: dict[str, list] = {}
        for s in self.spans:
            if s.name == "monodromy.transport":
                row = out.setdefault(s.tag, [0.0, 0])
                row[0] += s.end - s.start
                row[1] += s.nfev
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.tag, s.nfev]
                       for s in self.spans], fh)

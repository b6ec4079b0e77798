"""Riccati projectivization of linear systems.

The projectivization of dy = omega y in the affine chart z_i = y_i / y_m is
the quadratic system

    dz_i = omega_{i,m} + z_i (omega_{i,i} - omega_{m,m})
           + sum_{k != i} omega_{i,k} z_k - sum_k omega_{m,k} z_i z_k,

whose coefficients determine omega up to a scalar form; fixing the trace
recovers omega uniquely.  The spectral predicates and projective classes
live in the numeric ``algebra`` module and are re-exported here on first
access (PEP 562), so that projectivizing loads no numpy.
"""

from __future__ import annotations

from .connections import LogConnection, flatness_check, _as_connection, _entries_equal
from .errors import DimensionMismatch, NonIntegrable
from .ratfunc import RationalFunction

__all__ = [
    "RiccatiSystem",
    "ProjectiveClass",
    "projectivize",
    "reconstruct",
    "trace_free_lift",
    "property_Pm",
    "nonresonant",
    "proj_equal",
]

_FROM_ALGEBRA = ("ProjectiveClass", "nonresonant", "proj_equal", "property_Pm")


def __getattr__(name):
    if name not in _FROM_ALGEBRA:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import algebra

    value = getattr(algebra, name)
    globals()[name] = value
    return value


class RiccatiSystem:
    """Coefficient 1-forms of the projectivized system in the chart y_m != 0.

    Each coefficient is a tuple of n :class:`RationalFunction` components
    (one per chart variable dx_j).  ``exact`` records whether the data was exact.
    """

    def __init__(self, m, gens, divisor, b, delta, offdiag, c, exact=True):
        self.m = int(m)
        self.gens = tuple(map(str, gens))
        self.n = len(self.gens)
        self.divisor = tuple(divisor)
        self.b = tuple(tuple(f) for f in b)
        self.delta = tuple(tuple(f) for f in delta)
        self.offdiag = {k: tuple(f) for k, f in offdiag.items()}
        self.c = tuple(tuple(f) for f in c)
        self.exact = bool(exact)
        if len(self.b) != m - 1 or len(self.delta) != m - 1 or len(self.c) != m - 1:
            raise DimensionMismatch("coefficient index ranges inconsistent with rank")

    def _entries(self):
        forms = [*self.b, *self.delta, *self.c, *(self.offdiag[k] for k in sorted(self.offdiag))]
        return [f for form in forms for f in form]

    def equals(self, other: "RiccatiSystem", tol: float = 1e-12) -> bool:
        """Entrywise equality: structural when both are exact, else within ``tol``."""
        if self.m != other.m or self.n != other.n or set(self.offdiag) != set(other.offdiag):
            return False
        return _entries_equal(self._entries(), other._entries(), self.exact and other.exact, tol)


def projectivize(C) -> RiccatiSystem:
    """Extract the Riccati coefficients of a linear connection."""
    conn = _as_connection(C)
    m, n = conn.m, conn.n
    def one_form(i, j):
        return tuple(conn.entry(v, i, j) for v in range(n))
    def diff_form(i):
        return tuple(
            conn.entry(v, i, i) - conn.entry(v, m - 1, m - 1) for v in range(n)
        )
    b = [one_form(i, m - 1) for i in range(m - 1)]
    delta = [diff_form(i) for i in range(m - 1)]
    offdiag = {
        (i, k): one_form(i, k)
        for i in range(m - 1)
        for k in range(m - 1)
        if i != k
    }
    c = [one_form(m - 1, k) for k in range(m - 1)]
    return RiccatiSystem(m, conn.gens, conn.divisor, b, delta, offdiag, c,
                         exact=conn.exact)


def _zero_form(gens, n):
    return tuple(RationalFunction.zero(gens) for _ in range(n))


def reconstruct(R: RiccatiSystem, trace=None) -> LogConnection:
    """The unique omega with the given Riccati data and trace.

    ``trace`` is a 1-form (tuple of components) or None for the zero form;
    m * omega_{m,m} = trace - sum_i Delta_i.  The trace is a value: the result is
    exact when ``R`` is.
    """
    m, n, gens = R.m, R.n, R.gens
    if trace is None:
        trace = _zero_form(gens, n)
    omega_mm = tuple(
        (trace[v] - sum(
            (R.delta[i][v] for i in range(m - 1)),
            start=RationalFunction.zero(gens),
        )) / m
        for v in range(n)
    )
    comps = []
    for v in range(n):
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                if i == m - 1 and j == m - 1:
                    row.append(omega_mm[v])
                elif i == j:
                    row.append(R.delta[i][v] + omega_mm[v])
                elif j == m - 1:
                    row.append(R.b[i][v])
                elif i == m - 1:
                    row.append(R.c[j][v])
                else:
                    row.append(R.offdiag[(i, j)][v])
            rows.append(tuple(row))
        comps.append(tuple(rows))
    return LogConnection(m, gens, R.divisor, tuple(comps), exact=R.exact)


def trace_free_lift(R: RiccatiSystem) -> LogConnection:
    """The unique trace-free linear connection projecting to R; verified flat."""
    conn = reconstruct(R, None)
    if not flatness_check(conn):
        raise NonIntegrable(
            "trace-free reconstruction is not flat: input is not the "
            "projectivization of a flat connection on the trivial bundle"
        )
    return conn

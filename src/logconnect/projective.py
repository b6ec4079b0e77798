"""Riccati projectivization of linear systems.

The projectivization of dy = omega y in the affine chart z_i = y_i / y_m is
the quadratic system

    dz_i = omega_{i,m} + z_i (omega_{i,i} - omega_{m,m})
           + sum_{k != i} omega_{i,k} z_k - sum_k omega_{m,k} z_i z_k,

whose coefficients are the entries of omega - omega_{m,m} I: they determine
omega up to a scalar 1-form, and that matrix, whose last diagonal entry is zero,
is the one representative of the class that a ``RiccatiSystem`` holds.
Projectivizing and reconstructing are the two diagonal shifts between omega and
it; fixing the trace recovers omega uniquely.
"""

from __future__ import annotations

from .connections import LogConnection, flatness_check
from .errors import NonIntegrable
from .ratfunc import RationalFunction

__all__ = [
    "RiccatiSystem",
    "projectivize",
    "reconstruct",
    "trace_free_lift",
]


class RiccatiSystem:
    """The class of omega modulo scalar 1-forms, held as omega - omega_{m,m} I.

    ``components`` holds its n matrices as nested tuples of
    :class:`RationalFunction`, as in :class:`LogConnection`; entry (m-1, m-1) of
    each is zero.  ``exact`` records whether the data was exact.
    """

    def __init__(self, m, gens, divisor, components, exact=True):
        self.m = int(m)
        self.gens = tuple(map(str, gens))
        self.n = len(self.gens)
        self.divisor = tuple(divisor)
        self.components = tuple(
            tuple(tuple(row) for row in comp) for comp in components
        )
        self.exact = bool(exact)
        if len(self.components) != self.n:
            raise ValueError("one matrix component per chart variable required")

    equals = LogConnection.equals


def _with_diagonal(comp, diagonal):
    """The matrix ``comp`` with its diagonal entries replaced by ``diagonal``."""
    return tuple(
        tuple(diagonal[i] if i == j else f for j, f in enumerate(row))
        for i, row in enumerate(comp)
    )


def projectivize(C) -> RiccatiSystem:
    """The Riccati data of a linear connection: omega - omega_{m,m} I."""
    conn = C.to_log_connection()
    last = conn.m - 1
    zero = RationalFunction.zero(conn.gens)
    comps = [
        _with_diagonal(comp, [comp[i][i] - comp[last][last] for i in range(last)] + [zero])
        for comp in conn.components
    ]
    return RiccatiSystem(conn.m, conn.gens, conn.divisor, comps, exact=conn.exact)


def reconstruct(R: RiccatiSystem, trace=None) -> LogConnection:
    """The unique omega with the given Riccati data and trace.

    ``trace`` is a 1-form (tuple of components) or None for the zero form;
    omega = R + s I with m * s = trace - tr R.  The trace is a value: the result
    is exact when ``R`` is.
    """
    m = R.m
    zero = RationalFunction.zero(R.gens)
    comps = []
    for v, comp in enumerate(R.components):
        diagonal = [comp[i][i] for i in range(m)]
        s = ((zero if trace is None else trace[v]) - sum(diagonal, start=zero)) / m
        comps.append(_with_diagonal(comp, [f + s for f in diagonal]))
    return LogConnection(m, R.gens, R.divisor, tuple(comps), exact=R.exact)


def trace_free_lift(R: RiccatiSystem) -> LogConnection:
    """The unique trace-free linear connection projecting to R; verified flat."""
    conn = reconstruct(R, None)
    if not flatness_check(conn):
        raise NonIntegrable(
            "trace-free reconstruction is not flat: input is not the "
            "projectivization of a flat connection on the trivial bundle"
        )
    return conn

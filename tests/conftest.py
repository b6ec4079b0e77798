import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from sympy.polys.domains import QQ_I

from logconnect import FuchsianSystem, RationalFunction


def gaussian_rational(rng, span=4, den=3):
    """Random exact Gaussian rational with small numerators/denominators."""
    re = Fraction(rng.randint(-span, span), rng.randint(1, den))
    im = Fraction(rng.randint(-span, span), rng.randint(1, den))
    return sp.Rational(re) + sp.Rational(im) * sp.I


def rational_matrix(rng, m, span=4, den=3):
    return [[gaussian_rational(rng, span, den) for _ in range(m)] for _ in range(m)]


def random_fuchsian(rng, m=None, max_poles=3):
    """Random exact Fuchsian system with Gaussian-rational residues."""
    if m is None:
        m = rng.choice([2, 3, 4])
    k = rng.randint(1, max_poles)
    pole_pool = [0, 1, -1, 2, sp.Rational(1, 2), -2, 3]
    poles = random.Random(rng.random()).sample(pole_pool, k)
    residues = [rational_matrix(rng, m) for _ in range(k)]
    return FuchsianSystem(m, poles, residues)


def from_expr(expr, gens):
    """The reduced fraction of a sympy expression in ``gens``; a Float becomes its
    exact dyadic value and marks the result inexact."""
    expr = sp.sympify(expr)
    exact = not expr.has(sp.Float)
    n, d = sp.fraction(sp.together(expr.replace(lambda e: e.is_Float,
                                                lambda e: sp.Rational(float(e)))))
    return RationalFunction(sp.Poly(n, *gens, domain=QQ_I), sp.Poly(d, *gens, domain=QQ_I),
                            exact=exact)


def trace_form(conn):
    """Trace of a connection as a 1-form (tuple of components)."""
    return tuple(
        sum((conn.entry(v, i, i) for i in range(conn.m)),
            start=RationalFunction.zero(conn.gens))
        for v in range(conn.n)
    )


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def nprng():
    return np.random.default_rng(20240817)

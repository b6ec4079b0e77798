import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from sympy.polys.domains import QQ, QQ_I

from logconnect import FuchsianSystem, RationalFunction
from logconnect.ratfunc import from_terms, gaussian


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


def symbols(gens):
    """sympy symbols for chart variables given by name or as symbols."""
    return [sp.Symbol(str(g)) for g in gens]


def from_qqi(c):
    """The library's scalar of a ``QQ_I`` element, read part by part."""
    return gaussian(*(Fraction(int(q.numerator), int(q.denominator)) for q in (c.x, c.y)))


def from_sympy_poly(poly):
    """The library's polynomial of a sympy ``Poly`` over ``QQ_I``."""
    return from_terms({e: from_qqi(c) for e, c in poly.as_dict(native=True).items()},
                      poly.gens)


def to_sympy_poly(poly):
    """The sympy ``Poly`` over ``QQ_I`` of one of the library's polynomials."""
    return sp.Poly.from_dict({e: QQ_I(QQ(a, poly.den), QQ(b, poly.den))
                              for e, (a, b) in poly.rep.items()},
                             *symbols(poly.gens), domain=QQ_I)


def from_expr(expr, gens):
    """The reduced fraction of a sympy expression in ``gens``; a Float becomes its
    exact dyadic value."""
    n, d = sp.fraction(sp.together(sp.sympify(expr).replace(lambda e: e.is_Float,
                                                             lambda e: sp.Rational(float(e)))))
    gens = symbols(gens)
    return RationalFunction(from_sympy_poly(sp.Poly(n, *gens, domain=QQ_I)),
                            from_sympy_poly(sp.Poly(d, *gens, domain=QQ_I)))


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

import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy as sp
from sympy.polys.domains import QQ, QQ_I

from logconnect import FuchsianSystem, RationalFunction
from logconnect.algebra import TWO_PI, as_matrix
from logconnect.errors import SingularMatrix
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


def refined(loop, parts=2):
    """The loop with every segment split into ``parts`` pieces: the same trace, a new
    discretization."""
    from logconnect.monodromy import ArcSegment, LineSegment, LoopPath

    out = []
    cuts = np.linspace(0.0, 1.0, parts + 1)
    for s in loop.segments:
        for a, b in zip(cuts, cuts[1:]):
            if isinstance(s, LineSegment):
                out.append(LineSegment(s.point(a), s.point(b)))
            else:
                a0 = s.from_angle + a * (s.to_angle - s.from_angle)
                a1 = s.from_angle + b * (s.to_angle - s.from_angle)
                out.append(ArcSegment(s.center, s.radius, a0, a1))
    return LoopPath(out, basepoint=loop.basepoint)


def mat_exp(A, digits: int = 50) -> np.ndarray:
    """exp(A) computed with ``digits`` significant digits (mpmath) and rounded: exact to
    double precision where A's eigenbasis is ill-conditioned, where scipy's expm loses
    about cond(V)^2 u (4e-5 of exp(2 pi i A) at cond(V) = 1e6)."""
    import mpmath

    with mpmath.workdps(digits):
        E = mpmath.expm(mpmath.matrix(np.asarray(A, dtype=complex).tolist()))
        return np.array(E.tolist(), dtype=complex)


def mat_log_normalized(M, tol: float = 1e-12) -> np.ndarray:
    """Return A with exp(2*pi*i*A) = M and eigenvalues of A in the strip 0 <= Re < 1.

    The branch is chosen by rotating the plane so that a single logarithm cut
    sits in the argument gap between max(arg(lambda)) and 2*pi; every
    eigenvalue lambda then maps to log(lambda)/(2*pi*i) with arg taken
    in [0, 2*pi), i.e. Re(mu) = arg(lambda)/(2*pi) in [0, 1).  Works for
    non-diagonalizable M since it is a single analytic matrix function.
    """
    A = as_matrix(M)
    m = A.shape[0]
    det = np.linalg.det(A)
    scale = max(np.linalg.norm(A), 1.0)
    if abs(det) < tol * scale ** m:
        raise SingularMatrix("matrix is singular; no logarithm exists")
    eig = np.linalg.eigvals(A)
    args = np.mod(np.angle(eig), TWO_PI)
    # cut direction: midway between the largest eigenvalue argument and 2*pi
    cut = (np.max(args) + TWO_PI) / 2.0
    psi = cut - np.pi
    L = scipy.linalg.logm(A * np.exp(-1j * psi)) + 1j * psi * np.eye(m)
    return L / (2j * np.pi)


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

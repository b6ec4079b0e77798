"""Exact multivariate rational functions over the Gaussian rationals.

The library's one exact scalar is the ``QQ_I`` element.  Polynomial coefficients
are such elements, and so are the poles, residues and branch values that systems
store, each read once by ``to_scalar`` from an int, ``Fraction``, float, complex,
sympy number or ``QQ_I`` element.  A float, or a sympy number that is not a
Gaussian rational (``sqrt(2)``), becomes an exact dyadic value and marks the data
inexact, so comparisons can fall back to a tolerance.  This is the one module
where exact scalars cross to and from complex numbers and sympy numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

import numpy as np
import sympy as sp
from sympy.polys.densearith import dup_rem
from sympy.polys.densetools import dup_monic
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.polyclasses import DMP

__all__ = ["RationalFunction", "evaluator", "complex_terms", "from_terms", "branch_line",
           "to_complex", "to_qqi", "to_scalar"]


def to_qqi(re, im=0):
    """The exact ``QQ_I`` element re + i*im; parts are ints, Fractions or floats."""
    re, im = Fraction(re), Fraction(im)
    return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))


def to_scalar(value):
    """``value`` as a ``QQ_I`` element, and whether it is exact.  An int, ``Fraction``,
    ``QQ_I`` element or sympy Gaussian rational is.  Any other value becomes the dyadic
    value of its complex value, exact only for a float or complex with integer parts."""
    if isinstance(value, QQ_I.dtype):
        return value, True
    if isinstance(value, (int, Fraction)):
        return to_qqi(value), True
    if isinstance(value, sp.Basic) and not value.has(sp.Float):
        try:
            return QQ_I.from_sympy(value), True
        except sp.polys.CoercionFailed:
            pass
    if not isinstance(value, (float, complex, sp.Basic)):
        raise TypeError(f"cannot interpret {value!r} as a complex scalar")
    c = complex(value)
    exact = not isinstance(value, sp.Basic) and c.real.is_integer() and c.imag.is_integer()
    return to_qqi(c.real, c.imag), exact


def _qqi_complex(z) -> complex:
    """A ``QQ_I`` element as a complex number, each part correctly rounded."""
    return complex(float(z.x), float(z.y))


def to_complex(value) -> complex:
    """A scalar as a complex number, read by ``to_scalar``: each part correctly
    rounded, and with no ``evalf`` for a Gaussian rational."""
    return _qqi_complex(to_scalar(value)[0])


def complex_terms(poly) -> dict:
    """Monomial -> coefficient of a polynomial over ``QQ_I``, each part correctly rounded."""
    return {e: _qqi_complex(c) for e, c in poly.as_dict(native=True).items()}


def evaluator(polys):
    """(x_1, ..., x_n) -> ndarray of the values of ``polys`` (not all zero), from tables
    of their shared monomial exponents and complex coefficients, one variable at a time.
    Coordinates may be arrays of one shape S; the values then have shape S + (len(polys),)."""
    terms = [complex_terms(p) for p in polys]
    monoms = sorted(set().union(*terms))
    exponents = np.array(monoms).T
    coefficients = np.array([[t.get(e, 0j) for t in terms] for e in monoms])
    def values(*point):
        if len(point) != len(exponents):
            raise TypeError(f"expected {len(exponents)} coordinates, got {len(point)}")
        powers = (np.power(np.asarray(x)[..., None], e) for x, e in zip(point, exponents))
        return reduce(np.multiply, powers) @ coefficients
    return values


def from_terms(terms: dict, gens) -> sp.Poly:
    """The polynomial in ``gens`` with the terms monomial -> ``QQ_I`` coefficient."""
    return sp.Poly.new(DMP.from_dict(terms, len(gens) - 1, QQ_I), *gens)


def branch_line(gens, var: int, c) -> sp.Poly:
    """The line x_var - c in ``gens`` of the branch x_var = c, for a ``QQ_I`` element c."""
    n = len(gens)
    return from_terms({tuple(int(i == var) for i in range(n)): QQ_I.one, (0,) * n: -c}, gens)


def _gcd(num: sp.Poly, den: sp.Poly) -> sp.Poly:
    """The monic gcd of a nonzero ``num`` and ``den``: for a one-term ``den``, the power
    of each variable that divides it and every term of ``num``; in one variable, Euclid
    with each remainder made monic, which bounds coefficient growth; else ``Poly.gcd``."""
    if den.is_monomial:
        return from_terms({tuple(map(min, *den.monoms(), *num.monoms())): QQ_I.one}, den.gens)
    if len(den.gens) > 1:
        return num.gcd(den).monic()
    f, g = dup_monic(den.rep.to_list(), QQ_I), dup_monic(num.rep.to_list(), QQ_I)
    while g:
        f, g = g, dup_monic(dup_rem(f, g, QQ_I), QQ_I)
    return den.per(den.rep.per(f))


class RationalFunction:
    """A normalized fraction of polynomials over QQ_I in shared chart variables."""

    __slots__ = ("num", "den", "gens", "exact")

    def __init__(self, num: sp.Poly, den: sp.Poly, exact: bool = True, _normalized: bool = False):
        if den.is_zero:
            raise ZeroDivisionError("denominator is identically zero")
        if not _normalized:
            if num.is_zero:
                den = den.one
            else:
                g = _gcd(num, den)
                if not g.is_one:
                    num, den = num.quo(g), den.quo(g)
                inv = QQ_I.quo(QQ_I.one, den.rep.LC())
                if inv != QQ_I.one:
                    num, den = num.mul_ground(inv), den.mul_ground(inv)
        self.num = num
        self.den = den
        self.gens = num.gens
        self.exact = exact

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value, gens) -> "RationalFunction":
        """The constant ``value``, read by ``to_scalar``."""
        c, exact = to_scalar(value)
        num = from_terms({(0,) * len(gens): c}, gens)
        return cls(num, num.one, exact=exact, _normalized=True)

    @classmethod
    def zero(cls, gens) -> "RationalFunction":
        return cls.constant(0, gens)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        return RationalFunction.constant(other, self.gens)

    def __add__(self, other):
        o = self._coerce(other)
        exact = self.exact and o.exact
        if self.num.is_zero:
            return o if o.exact == exact else \
                RationalFunction(o.num, o.den, exact=exact, _normalized=True)
        if o.num.is_zero:
            return self if self.exact == exact else \
                RationalFunction(self.num, self.den, exact=exact, _normalized=True)
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den, exact=exact)
        return RationalFunction(
            self.num * o.den + o.num * self.den, self.den * o.den, exact=exact
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, exact=self.exact, _normalized=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den,
                                exact=self.exact and o.exact)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        exact = self.exact and o.exact
        if o.num.is_ground and o.den.is_ground:  # a constant: scale the numerator only
            inv = QQ_I.quo(o.den.rep.LC(), o.num.rep.LC())
            return RationalFunction(self.num.mul_ground(inv), self.den, exact=exact,
                                    _normalized=True)
        return RationalFunction(self.num * o.den, self.den * o.num, exact=exact)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- calculus and substitution --------------------------------------

    def diff(self, var) -> "RationalFunction":
        """Exact partial derivative with respect to one chart variable."""
        dn = self.num.diff(var)
        dd = self.den.diff(var)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den,
                                exact=self.exact)

    def subst_power(self, var, nu: int) -> "RationalFunction":
        """Substitute ``var -> var**nu`` in numerator and denominator."""
        k = self.gens.index(var)

        def scaled(poly):
            return from_terms({e[:k] + (e[k] * nu,) + e[k + 1:]: c
                               for e, c in poly.as_dict(native=True).items()}, self.gens)

        return RationalFunction(scaled(self.num), scaled(self.den), exact=self.exact)

    def eval(self, values: dict) -> complex:
        """Numeric evaluation; ``values`` maps chart symbols to complex numbers."""
        num, den = evaluator([self.num, self.den])(*(complex(values[g]) for g in self.gens))
        return complex(num) / complex(den)

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_zero_within(self, tol: float) -> bool:
        """Zero test honoring inexact provenance: coefficient magnitudes below tol."""
        if self.exact or self.num.is_zero:
            return self.num.is_zero
        return max(map(abs, complex_terms(self.num).values())) < tol

    def equals(self, other, tol: float = 1e-12) -> bool:
        o = self._coerce(other)
        if self.exact and o.exact:
            # normalized form is canonical, so compare structurally
            return self.num == o.num and self.den == o.den
        return (self - o).is_zero_within(tol)

    def __eq__(self, other):
        if not isinstance(other, (RationalFunction, int, float, complex, sp.Basic)):
            return NotImplemented
        return (self - self._coerce(other)).is_zero

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

"""Exact multivariate rational functions over the Gaussian rationals.

The library's one exact scalar is the ``GaussianRational`` (re + im*i)/den.
Polynomials follow the layout of FLINT's ``fmpq_poly`` (Hart, ICMS 2010): a
``Polynomial`` is a sparse map from exponent tuple to Gaussian-integer
numerator over one positive integer denominator, and every result has the
content it shares with its denominator removed once.  Generators are plain
names.  A ``RationalFunction`` is a reduced fraction of two polynomials with a
monic denominator, so that equality is structural.

These are pure values; the system holding them records whether its input was
exact.  Poles, residues and branch values are scalars too, each read once by
``to_scalar`` from a ``GaussianRational``, a sympy number or any number of the
stdlib ``numbers`` ABCs (numpy scalars among them).  A float that is not
integer-valued, or a sympy number that is not a Gaussian rational
(``sqrt(2)``), becomes an exact dyadic value and is reported inexact
(``from_parts`` holds the rule for parts).  This is the one module where exact
scalars cross to and from complex numbers and sympy numbers.  It never imports
sympy for the library's own work, so no verb imports it, on any input:
``to_scalar`` reads sympy numbers only when sympy is already loaded, and only
``Polynomial.all_coeffs`` and ``Polynomial.terms``, which return sympy numbers,
import it on call.  Fractions are reduced by one native gcd in any number of
variables: a proof of coprimality modulo a prime, else Euclid in one variable and
a primitive remainder sequence in several.  numpy is imported on call, by
``evaluator`` alone.
"""

from __future__ import annotations

import heapq
import math
import numbers
import sys
from fractions import Fraction
from functools import reduce
from operator import add

__all__ = ["GaussianRational", "Polynomial", "RationalFunction", "evaluator", "complex_terms",
           "from_terms", "branch_line", "from_parts", "gaussian", "to_complex", "to_scalar"]


class GaussianRational:
    """The exact scalar (re + im*i)/den, with integers re, im and den > 0 in lowest
    terms.  Immutable and hashable; ``+ - * /`` with another one or an int are exact,
    and ``complex()`` rounds each part correctly."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im=0, den=1):
        g = math.gcd(re, im, den)
        if den < 0:
            g = -g
        if g != 1:
            re, im, den = re // g, im // g, den // g
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return GaussianRational(self.re + o.re, self.im + o.im, self.den)
        return GaussianRational(self.re * o.den + o.re * self.den,
                                self.im * o.den + o.im * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + -o

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by the zero Gaussian rational")
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        return GaussianRational((self.re * o.re + self.im * o.im) * o.den,
                                (self.im * o.re - self.re * o.im) * o.den, self.den * norm)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im and self.den == o.den

    def __hash__(self):
        # an integer value hashes as that int, which it equals
        return hash(self.re) if self.den == 1 and not self.im else \
            hash((self.re, self.im, self.den))

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        # int / int is correctly rounded
        return complex(self.re / self.den, self.im / self.den)

    def __str__(self):
        """As sympy prints the number: ``1/3 + 2*I``, ``-I/2``, ``5``."""
        re, im = Fraction(self.re, self.den), Fraction(self.im, self.den)
        if not im:
            return str(re)
        p, q = abs(im.numerator), im.denominator
        imag = ("I" if p == 1 else f"{p}*I") + ("" if q == 1 else f"/{q}")
        if not re:
            return ("-" if im < 0 else "") + imag
        return f"{re} {'-' if im < 0 else '+'} {imag}"

    def __repr__(self):
        return f"GaussianRational({self})"


ZERO, ONE = GaussianRational(0), GaussianRational(1)


def gaussian(re, im=0) -> GaussianRational:
    """The exact scalar re + i*im; parts are ints, Fractions or floats (their dyadic values),
    each read by its ``as_integer_ratio``."""
    if type(re) is int and type(im) is int:
        return GaussianRational(re, im)
    (p1, q1), (p2, q2) = re.as_integer_ratio(), im.as_integer_ratio()
    den = math.lcm(q1, q2)
    return GaussianRational(p1 * (den // q1), p2 * (den // q2), den)


def from_parts(re, im=0):
    """re + i*im as a ``GaussianRational``, and whether it is exact.  Each part is an
    int, ``Fraction`` or float; a float part is exact only when it is integer-valued."""
    exact = not any(isinstance(p, float) and not p.is_integer() for p in (re, im))
    return gaussian(re, im), exact


def to_scalar(value):
    """``value`` as a ``GaussianRational``, and whether it is exact.  A ``GaussianRational``
    or sympy Gaussian rational is; any other sympy number becomes the dyadic value of its
    complex value and is not.  Other numbers, numpy scalars among them, are read through
    the ``numbers`` ABCs (integral, rational, real, complex), part by part by
    ``from_parts``.  A sympy number is recognised through an already loaded sympy."""
    if isinstance(value, GaussianRational):
        return value, True
    sp = sys.modules.get("sympy")
    if sp is not None and isinstance(value, sp.Basic):
        if isinstance(value, sp.Expr):
            # a + b*I in the form sympy builds it, read as ``QQ_I.from_sympy`` reads it
            re, rest = value.as_coeff_Add()
            im, unit = rest.as_coeff_Mul() if rest else (sp.S.Zero, sp.I)
            if unit is sp.I and re.is_Rational and im.is_Rational:
                den = math.lcm(re.q, im.q)
                return GaussianRational(re.p * (den // re.q), im.p * (den // im.q), den), True
        c = complex(value)
        return gaussian(c.real, c.imag), False
    if isinstance(value, numbers.Integral):
        return from_parts(int(value))
    if isinstance(value, numbers.Rational):
        return from_parts(Fraction(value.numerator, value.denominator))
    if isinstance(value, numbers.Real):
        return from_parts(float(value))
    if isinstance(value, numbers.Complex):
        c = complex(value)
        return from_parts(c.real, c.imag)
    raise TypeError(f"cannot interpret {value!r} as a complex scalar")


def to_complex(value) -> complex:
    """A scalar as a complex number, read by ``to_scalar``: each part correctly
    rounded, and with no ``evalf`` for a Gaussian rational."""
    return complex(to_scalar(value)[0])


# -- polynomials --------------------------------------------------------


def _same_chart(a, b) -> None:
    """Refuse arithmetic between two polynomials or rational functions in different
    generators, which would otherwise identify the variables by position."""
    if a.gens != b.gens:
        raise ValueError(f"operands are in different charts: gens {a.gens} and {b.gens}")


class Polynomial:
    """sum_e rep[e] x^e / den in the generators ``gens`` (names): ``rep`` maps each
    exponent tuple to its nonzero Gaussian-integer numerator (re, im), over one
    positive integer ``den`` that shares no factor with all the numerators.  The
    zero polynomial has no terms and den 1.  Treated as immutable."""

    __slots__ = ("rep", "den", "gens")

    def __init__(self, rep: dict, den: int, gens: tuple):
        self.rep, self.den, self.gens = rep, den, gens

    def _new(self, rep, den):
        """rep/den in the same generators, its content removed; ``rep`` has no zero terms."""
        g = den
        for a, b in rep.values():
            if g == 1:
                break
            g = math.gcd(g, a, b)
        if g != 1:
            rep, den = {e: (a // g, b // g) for e, (a, b) in rep.items()}, den // g
        return Polynomial(rep, den, self.gens)

    # -- what perfbench's exact_layer checker reads, with sympy ``Poly``'s meaning --

    @property
    def is_zero(self) -> bool:
        return not self.rep

    def total_degree(self) -> int:
        return max((sum(e) for e in self.rep), default=0)

    def _sympy_numbers(self, exponents) -> list:
        """The coefficients at ``exponents`` as sympy numbers."""
        import sympy as sp

        d = self.den
        return [sp.Rational(a, d) + sp.Rational(b, d) * sp.I
                for a, b in (self.rep.get(e, (0, 0)) for e in exponents)]

    def terms(self) -> list:
        """(exponents, sympy number) pairs in sympy's order, lex with the leading term
        first; the zero polynomial has the one term 0."""
        monoms = sorted(self.rep, reverse=True) or [(0,) * len(self.gens)]
        return list(zip(monoms, self._sympy_numbers(monoms)))

    def all_coeffs(self) -> list:
        """The coefficients in one variable as sympy numbers, the leading one first."""
        if len(self.gens) != 1:
            raise ValueError("all_coeffs needs a polynomial in one variable")
        return self._sympy_numbers([(k,) for k in range(max(self.degree(), 0), -1, -1)])

    # -- structure --------------------------------------------------------

    def to_dict(self) -> dict:
        """exponents -> ``GaussianRational`` coefficient, for the nonzero terms."""
        return {e: GaussianRational(a, b, self.den) for e, (a, b) in self.rep.items()}

    @property
    def is_ground(self) -> bool:
        return not self.rep or len(self.rep) == 1 and not any(next(iter(self.rep)))

    @property
    def is_monomial(self) -> bool:
        return len(self.rep) <= 1

    @property
    def is_one(self) -> bool:
        return self.den == 1 and self.is_ground and (1, 0) in self.rep.values()

    def degree(self) -> int:
        """The degree in the first generator; -1 for the zero polynomial."""
        return max((e[0] for e in self.rep), default=-1)

    def LC(self) -> GaussianRational:
        """The coefficient of the lexicographically leading term."""
        if not self.rep:
            return ZERO
        return GaussianRational(*self.rep[max(self.rep)], self.den)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.den == other.den and self.rep == other.rep and self.gens == other.gens

    def __hash__(self):
        return hash((self.den, self.gens, frozenset(self.rep.items())))

    def __repr__(self):
        return f"Polynomial({self.to_dict()!r}, gens={self.gens!r})"

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other, over the least common denominator."""
        _same_chart(self, other)
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        rep = {e: (a * s1, b * s1) for e, (a, b) in self.rep.items()} if s1 != 1 \
            else dict(self.rep)
        for e, (a, b) in other.rep.items():
            c = rep.get(e)
            if c is None:
                rep[e] = (a * s2, b * s2)
            else:
                re, im = c[0] + a * s2, c[1] + b * s2
                if re or im:
                    rep[e] = (re, im)
                else:
                    del rep[e]
        return self._new(rep, d1 * s1)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return Polynomial({e: (-a, -b) for e, (a, b) in self.rep.items()}, self.den, self.gens)

    def __mul__(self, other):
        _same_chart(self, other)
        rep = {}
        one_var = len(self.gens) == 1
        for e1, (a, b) in self.rep.items():
            for e2, (c, d) in other.rep.items():
                e = (e1[0] + e2[0],) if one_var else tuple(map(add, e1, e2))
                re, im = a * c - b * d, a * d + b * c
                old = rep.get(e)
                rep[e] = (re, im) if old is None else (old[0] + re, old[1] + im)
        rep = {e: c for e, c in rep.items() if c[0] or c[1]}
        return self._new(rep, self.den * other.den)

    def mul_ground(self, c: GaussianRational) -> "Polynomial":
        """This polynomial times the scalar c."""
        x, y = c.re, c.im
        rep = {e: (a * x - b * y, a * y + b * x) for e, (a, b) in self.rep.items()} \
            if x or y else {}
        return self._new(rep, self.den * c.den)

    def diff(self, var: int) -> "Polynomial":
        """The partial derivative in the generator ``var``."""
        rep = {}
        for e, (a, b) in self.rep.items():
            k = e[var]
            if k:
                rep[e[:var] + (k - 1,) + e[var + 1:]] = (k * a, k * b)
        return self._new(rep, self.den)

    def subst_power(self, var: int, nu: int) -> "Polynomial":
        """The substitution x_var -> x_var**nu."""
        rep = {e[:var] + (e[var] * nu,) + e[var + 1:]: c for e, c in self.rep.items()}
        return Polynomial(rep, self.den, self.gens)

    def div(self, other: "Polynomial"):
        """(q, r) with self = q * other + r, where no term of r is divisible by the
        lexicographically leading term of ``other``: long division in one variable,
        and the remainder at x_var = c when ``other`` is a line x_var - c."""
        _same_chart(self, other)
        divisor = other.to_dict()
        lead = max(divisor)
        inv = ONE / divisor.pop(lead)
        rest, q, r = self.to_dict(), {}, {}
        heap = [tuple(-a for a in e) for e in rest]  # the exponents, the largest first
        heapq.heapify(heap)
        while heap:
            e = tuple(-a for a in heapq.heappop(heap))
            c = rest.pop(e, None)
            if c is None:  # cancelled, or pushed again after a cancellation
                continue
            if any(a < b for a, b in zip(e, lead)):
                r[e] = c
                continue
            shift = tuple(a - b for a, b in zip(e, lead))
            t = q[shift] = c * inv
            for e2, c2 in divisor.items():
                k = tuple(a + b for a, b in zip(e2, shift))
                if k not in rest:
                    heapq.heappush(heap, tuple(-a for a in k))
                v = rest.get(k, ZERO) - t * c2
                if v:
                    rest[k] = v
                else:
                    rest.pop(k, None)
        return from_terms(q, self.gens), from_terms(r, self.gens)

    def exquo(self, other: "Polynomial") -> "Polynomial":
        """self / other, for an ``other`` known to divide this polynomial."""
        if len(other.rep) == 1 and other.LC() == ONE:  # a monic monomial: shift exponents
            (m,) = other.rep
            rep = {tuple(a - b for a, b in zip(e, m)): c for e, c in self.rep.items()}
            return Polynomial(rep, self.den, self.gens)
        return self.div(other)[0]

    def monic(self) -> "Polynomial":
        return self.mul_ground(ONE / self.LC())


def from_terms(terms: dict, gens) -> Polynomial:
    """The polynomial in ``gens`` with the terms exponents -> ``GaussianRational``.
    Over the least common denominator of reduced coefficients, no content is left."""
    gens = tuple(map(str, gens))
    den = math.lcm(*(c.den for c in terms.values()))
    rep = {e: (c.re * (den // c.den), c.im * (den // c.den)) for e, c in terms.items() if c}
    return Polynomial(rep, den if rep else 1, gens)


def branch_line(gens, var: int, c: GaussianRational) -> Polynomial:
    """The line x_var - c in ``gens`` of the branch x_var = c."""
    n = len(gens)
    return from_terms({tuple(int(i == var) for i in range(n)): ONE, (0,) * n: -c}, gens)


def complex_terms(poly: Polynomial) -> dict:
    """Monomial -> coefficient of a polynomial, each part correctly rounded."""
    d = poly.den
    return {e: complex(a / d, b / d) for e, (a, b) in poly.rep.items()}


def evaluator(polys):
    """(x_1, ..., x_n) -> ndarray of the values of ``polys`` (not all zero), from tables
    of their shared monomial exponents and complex coefficients, one variable at a time.
    Coordinates may be arrays of one shape S; the values then have shape S + (len(polys),)."""
    import numpy as np

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


# -- the fraction-reducing gcd ----------------------------------------------

# A prime p = 1 (mod 4) and a square root of -1 modulo p: the image of i under a
# ring map Z[i] -> GF(p).
_P = 2**61 - 31
_I_MOD_P = 583529827753931384
# ``_image`` maps each variable x_k it does not keep to the fixed point _POINT**(k+1)
_POINT = 1_234_567_890_123_456_789


def _image(p: Polynomial, var: int) -> list:
    """The image of the Gaussian-integer numerators of p in GF(p)[x_var], the leading
    coefficient first, with i -> ``_I_MOD_P`` and each other variable x_k -> ``_POINT``**(k+1)."""
    image = [0] * (1 + max(e[var] for e in p.rep))
    for e, (a, b) in p.rep.items():
        image[-1 - e[var]] += (a + b * _I_MOD_P) * math.prod(
            pow(_POINT, (k + 1) * d, _P) for k, d in enumerate(e) if d and k != var)
    return [c % _P for c in image]


def _coprime_mod_p(num: Polynomial, den: Polynomial) -> bool:
    """Whether two polynomials are proved coprime by the images of their Gaussian-integer
    numerators in GF(p)[x_j], for each variable x_j that occurs in either.  When the map
    keeps both leading coefficients in x_j, it keeps the degree in x_j of every factor, so
    a common factor of positive degree in x_j leaves an image gcd of positive degree:
    constant image gcds in every such variable prove a gcd of 1."""
    for var in range(len(den.gens)):
        f, g = _image(den, var), _image(num, var)
        if len(f) == len(g) == 1:  # x_var occurs in neither
            continue
        if not f[0] or not g[0]:
            return False
        if len(f) < len(g):
            f, g = g, f
        while len(g) > 1:
            inv, r, shift = pow(g[0], -1, _P), f[:], len(f) - len(g) + 1
            for i in range(shift):
                c = r[i] * inv % _P
                if c:
                    for j in range(1, len(g)):
                        r[i + j] = (r[i + j] - c * g[j]) % _P
            r = r[shift:]
            while r and not r[0]:
                del r[0]
            if not r:  # g divides f in GF(p)[x_var]
                return False
            f, g = g, r
    return True


def _lead(p: Polynomial, var: int) -> tuple:
    """(degree of a nonzero p in x_var, the coefficient of that power of x_var)."""
    d = max(e[var] for e in p.rep)
    return d, p._new({e[:var] + (0,) + e[var + 1:]: c for e, c in p.rep.items()
                      if e[var] == d}, p.den)


def _primitive_part(p: Polynomial, var: int) -> tuple:
    """(content, primitive part) of p in x_var, both monic; the content is the gcd of
    p's coefficients in x_var, in the variables after x_var."""
    parts = {}
    for e, c in p.rep.items():
        parts.setdefault(e[var], {})[e[:var] + (0,) + e[var + 1:]] = c
    content = reduce(_prs_gcd, (p._new(rep, p.den) for rep in parts.values())).monic()
    return content, p.exquo(content).monic()


def _prs_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The monic gcd of nonzero f and g: in one variable, Euclid with each remainder made
    monic, which bounds coefficient growth; in several, the primitive remainder sequence
    in the first variable that occurs (Brown, J. ACM 18, 1971; Knuth, TAOCP 4.6.1), with
    the gcd of the contents taken recursively in the variables after it."""
    occurring = sorted({k for e in (*f.rep, *g.rep) for k, d in enumerate(e) if d})
    if len(occurring) <= 1:
        f, g = f.monic(), g.monic()
        while not g.is_zero:
            r = f.div(g)[1]
            f, g = g, r if r.is_zero else r.monic()
        return f
    var = occurring[0]
    (cf, f), (cg, g) = _primitive_part(f, var), _primitive_part(g, var)
    if _lead(f, var)[0] < _lead(g, var)[0]:
        f, g = g, f
    while (lg := _lead(g, var))[0] > 0:
        # f becomes its pseudo-remainder lc(g)^k f - q g, of degree in x_var below g's
        while not f.is_zero and (lf := _lead(f, var))[0] >= lg[0]:
            shift = tuple((lf[0] - lg[0]) * (k == var) for k in range(len(f.gens)))
            f = f * lg[1] - lf[1] * Polynomial({shift: (1, 0)}, 1, f.gens) * g
        if f.is_zero:
            break
        f, g = g, _primitive_part(f, var)[1]
    return (_prs_gcd(cf, cg) * g).monic()


def _gcd(num: Polynomial, den: Polynomial) -> Polynomial:
    """The monic gcd of a nonzero ``num`` and ``den``: for a one-term ``den``, the power
    of each variable that divides it and every term of ``num``; 1 when the images modulo
    a prime prove it; else the native remainder sequence ``_prs_gcd``."""
    if den.is_monomial:
        return Polynomial({tuple(map(min, *den.rep, *num.rep)): (1, 0)}, 1, den.gens)
    if _coprime_mod_p(num, den):
        return Polynomial({(0,) * len(den.gens): (1, 0)}, 1, den.gens)
    return _prs_gcd(den, num)


# -- rational functions ---------------------------------------------------


class RationalFunction:
    """A normalized fraction of polynomials over the Gaussian rationals in shared chart
    variables: the fraction is reduced, and the denominator is monic, so that two
    fractions are equal exactly when their numerators and denominators are."""

    __slots__ = ("num", "den", "gens")

    def __init__(self, num: Polynomial, den: Polynomial, _normalized: bool = False):
        if den.is_zero:
            raise ZeroDivisionError("denominator is identically zero")
        if not _normalized:
            if num.is_zero:
                den = Polynomial({(0,) * len(den.gens): (1, 0)}, 1, den.gens)
            else:
                g = _gcd(num, den)
                if not g.is_one:
                    num, den = num.exquo(g), den.exquo(g)
                lc = den.LC()
                if lc != ONE:
                    inv = ONE / lc
                    num, den = num.mul_ground(inv), den.mul_ground(inv)
        self.num = num
        self.den = den
        self.gens = num.gens

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value, gens) -> "RationalFunction":
        """The constant ``value``, read by ``to_scalar``."""
        zero = (0,) * len(gens)
        num = from_terms({zero: to_scalar(value)[0]}, gens)
        return cls(num, Polynomial({zero: (1, 0)}, 1, num.gens), _normalized=True)

    @classmethod
    def zero(cls, gens) -> "RationalFunction":
        return cls.constant(0, gens)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            _same_chart(self, other)
            return other
        return RationalFunction.constant(other, self.gens)

    def __add__(self, other):
        o = self._coerce(other)
        if self.num.is_zero:
            return o
        if o.num.is_zero:
            return self
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        if o.num.is_ground and o.den.is_ground:  # a constant: scale the numerator only
            return RationalFunction(self.num.mul_ground(o.den.LC() / o.num.LC()), self.den,
                                    _normalized=True)
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- calculus and substitution --------------------------------------

    def _index(self, var) -> int:
        """The position of a chart variable, given by its name (or a sympy symbol)."""
        return self.gens.index(str(var))

    def diff(self, var) -> "RationalFunction":
        """Exact partial derivative with respect to one chart variable."""
        k = self._index(var)
        dn = self.num.diff(k)
        dd = self.den.diff(k)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def subst_power(self, var, nu: int) -> "RationalFunction":
        """Substitute ``var -> var**nu`` in numerator and denominator."""
        k = self._index(var)
        return RationalFunction(self.num.subst_power(k, nu), self.den.subst_power(k, nu))

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_zero_within(self, tol: float) -> bool:
        """Whether every coefficient of the numerator is below tol in magnitude: the
        zero test of a system whose data is inexact."""
        return self.num.is_zero or max(map(abs, complex_terms(self.num).values())) < tol

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):  # not a scalar, or in another chart
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

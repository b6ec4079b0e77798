from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ_I

from logconnect import LocalModel, RationalFunction, projectivize, trace_free_lift
from logconnect.ratfunc import _gcd, to_qqi

from conftest import from_expr, random_fuchsian, rational_matrix

x, y = sp.symbols("x y")

small_rat = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


def poly(coeffs):
    return sp.Poly(sum(sp.Rational(c) * x ** i for i, c in enumerate(coeffs)),
                   x, domain=QQ_I)


@st.composite
def rational_functions(draw):
    num = draw(st.lists(small_rat, min_size=1, max_size=4))
    den = draw(st.lists(small_rat, min_size=1, max_size=3).filter(lambda c: any(c)))
    return RationalFunction(poly(num), poly(den))


@given(rational_functions(), rational_functions())
def test_add_sub_roundtrip_exact(f, g):
    assert ((f + g) - g) == f


@given(rational_functions(), rational_functions())
def test_mul_div_roundtrip_exact(f, g):
    if not g.is_zero:
        assert ((f * g) / g) == f


@given(rational_functions())
def test_denominator_monic(f):
    assert f.den.domain.convert(f.den.LC()) == f.den.domain.one


@given(rational_functions())
def test_gcd_removed(f):
    assert f.num.gcd(f.den).is_one or f.num.is_zero


# -- the fraction-reducing gcd, against sympy's ----------------------------

z = sp.Symbol("z")
rational_coeff = st.builds(to_qqi, small_rat, small_rat)
# parts as a JSON float gives them: dyadic values with long denominators (0.1 ...)
float_part = st.floats(-4, 4).map(lambda f: round(f, 2))
dyadic_coeff = st.builds(to_qqi, float_part, float_part)


@st.composite
def polys(draw, gens, coeff, max_degree, max_terms=9):
    """A nonzero polynomial in ``gens`` over QQ_I, built with sympy's own constructor."""
    monomial = st.tuples(*[st.integers(0, max_degree)] * len(gens))
    terms = draw(st.dictionaries(monomial, coeff, min_size=1, max_size=max_terms))
    f = sp.Poly.from_dict(terms, *gens, domain=QQ_I)
    return f if not f.is_zero else sp.Poly.from_dict({(0,) * len(gens): QQ_I.one},
                                                      *gens, domain=QQ_I)


@st.composite
def pairs(draw, gens, coeff, degree, factor_degree=0):
    """(num, den) of exponents up to ``degree``, both times one common factor of
    exponents up to ``factor_degree`` when that is not 0."""
    num, den = draw(polys(gens, coeff, degree)), draw(polys(gens, coeff, degree))
    if not factor_degree:
        return num, den
    c = draw(polys(gens, coeff, factor_degree, max_terms=3).filter(lambda f: not f.is_ground))
    return num * c, den * c


gcd_settings = settings(derandomize=True, max_examples=80, deadline=None)


@gcd_settings
@given(st.sampled_from([rational_coeff, dyadic_coeff]).flatmap(lambda coeff: st.one_of(
    pairs((x,), coeff, 8), pairs((x,), coeff, 5, factor_degree=3))))
def test_gcd_in_one_variable_is_sympys(pair):
    num, den = pair
    assert _gcd(num, den) == num.gcd(den).monic()


@gcd_settings
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    polys((x, y, z)[:n], rational_coeff, 4, max_terms=5),
    polys((x, y, z)[:n], rational_coeff, 4, max_terms=1))))
def test_gcd_with_a_monomial_denominator_is_sympys(pair):
    num, den = pair
    assert den.is_monomial
    assert _gcd(num, den) == num.gcd(den).monic()


@gcd_settings
@given(st.one_of(pairs((x, y), rational_coeff, 2),
                 pairs((x, y), rational_coeff, 2, factor_degree=1)))
def test_gcd_in_several_variables_is_sympys(pair):
    num, den = pair
    assert _gcd(num, den) == num.gcd(den).monic()


def test_a_monomial_denominator_runs_no_gcd_algorithm(monkeypatch):
    def refuse(*args):
        raise AssertionError("a gcd algorithm ran")

    monkeypatch.setattr(sp.Poly, "gcd", refuse)
    monkeypatch.setattr("logconnect.ratfunc.dup_rem", refuse)
    for gens, num, den, want in [
        ((x,), 3 * x ** 4 + x ** 2, x ** 3, (3 * x ** 2 + 1, x)),
        ((x,), x + 1, x ** 2, (x + 1, x ** 2)),
        ((x, y), x ** 2 * y + 2 * x ** 3, 5 * x ** 2 * y ** 2, (y / 5 + 2 * x / 5, y ** 2)),
    ]:
        f = RationalFunction(sp.Poly(num, *gens, domain=QQ_I), sp.Poly(den, *gens, domain=QQ_I))
        assert (f.num, f.den) == tuple(sp.Poly(e, *gens, domain=QQ_I) for e in want)


def test_float_inputs_degrade_to_inexact():
    f = from_expr(0.5 * x + 0.1, (x,))
    assert not f.exact
    g = from_expr(sp.Rational(1, 2) * x, (x,))
    assert g.exact
    assert not (f * g).exact


def test_diff_quotient_rule():
    f = from_expr(1 / (x - 2), (x,))
    assert f.diff(x) == from_expr(-1 / (x - 2) ** 2, (x,))


def test_subst_power():
    f = from_expr(1 / x, (x,))
    assert f.subst_power(x, 3) == from_expr(1 / x ** 3, (x,))


def test_multivariate_exact():
    f = from_expr((x + y) / (x * y), (x, y))
    g = from_expr(1 / x + 1 / y, (x, y))
    assert f == g


def test_eval():
    f = from_expr((x + 1) / (x - 1), (x,))
    assert abs(f.eval({x: 3.0}) - 2.0) < 1e-15


def test_eval_at_a_pole_raises():
    f = from_expr((x + 1) / (x - 1), (x,))
    with pytest.raises(ZeroDivisionError):
        f.eval({x: 1.0})


def exact_value(f, point):
    """f at a Gaussian-rational point, as (re, im) Fractions, in exact arithmetic.

    Coefficients are read through sympy expressions, independently of the
    library's numeric evaluator.
    """
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def value(poly):
        total = (Fraction(0), Fraction(0))
        for monom, c in poly.as_dict().items():
            re, im = c.as_real_imag()
            term = (Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
            for z, e in zip(point, monom):
                for _ in range(e):
                    term = mul(term, z)
            total = (total[0] + term[0], total[1] + term[1])
        return total

    num, (dr, di) = value(f.num), value(f.den)
    norm = dr * dr + di * di
    return mul(num, (dr / norm, -di / norm))


def dyadic_point(rng, n):
    """Gaussian rationals with dyadic parts, so the float point is exact; Im != 0."""
    return [(Fraction(rng.randint(-48, 48), 16),
             Fraction(rng.choice([-1, 1]) * rng.randint(1, 48), 16)) for _ in range(n)]


def assert_matches_exact(conn, var, point):
    got = conn.component_callable(var)(*(complex(float(a), float(b)) for a, b in point))
    for i in range(conn.m):
        for j in range(conn.m):
            re, im = exact_value(conn.entry(var, i, j), point)
            want = complex(float(re), float(im))
            assert abs(got[i, j] - want) <= 1e-14 * abs(want), (i, j, got[i, j], want)


def test_component_callable_of_a_trace_free_lift_matches_exact_evaluation(rng):
    for _ in range(6):
        lift = trace_free_lift(projectivize(random_fuchsian(rng)))
        for _ in range(3):
            assert_matches_exact(lift, 0, dyadic_point(rng, 1))


def test_component_callable_of_a_two_variable_local_model_matches_exact_evaluation(rng):
    for m in (2, 3):
        conn = LocalModel(m, [rational_matrix(rng, m), rational_matrix(rng, m)]).to_log_connection()
        for _ in range(3):
            point = dyadic_point(rng, 2)
            for var in (0, 1):
                assert_matches_exact(conn, var, point)
    with pytest.raises(TypeError):
        conn.component_callable(0)(0.5 + 0.5j)  # one coordinate for two variables

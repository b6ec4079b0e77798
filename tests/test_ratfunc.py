import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ, QQ_I

from logconnect import (
    LocalModel, RationalFunction, flatness_check, projectivize, reconstruct, residue,
    trace_free_lift,
)
from logconnect.connections import LogConnection
from logconnect.ratfunc import (
    ONE,
    _I_MOD_P,
    _P,
    _coprime_mod_p,
    _gcd,
    branch_line,
    from_terms,
    gaussian,
    to_scalar,
)
from logconnect.serialization import validate_schema

from conftest import (
    from_expr, from_qqi, from_sympy_poly, random_fuchsian, rational_matrix, to_sympy_poly,
    trace_form,
)

x, y = sp.symbols("x y")

small_rat = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


def poly(coeffs):
    return from_terms({(i,): gaussian(c) for i, c in enumerate(coeffs)}, ("x",))


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
    assert f.den.LC() == 1


@given(rational_functions())
def test_gcd_removed(f):
    assert f.num.is_zero or to_sympy_poly(f.num).gcd(to_sympy_poly(f.den)).is_one


# -- the native core against sympy's Poly over QQ_I ------------------------
#
# sympy is the oracle: inputs are built as sympy polynomials, read into the
# library's type part by part, and every result must be the library's reading
# of sympy's result.  Equality is structural, so a result that kept a content
# its denominator shares would differ.

z = sp.Symbol("z")
GENS = (x, y, z)


def qqi(re, im):
    re, im = Fraction(re), Fraction(im)
    return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))


rational_coeff = st.builds(qqi, small_rat, small_rat)
# parts as a JSON float gives them: dyadic values with long denominators (0.1 ...)
float_part = st.floats(-4, 4).map(lambda f: round(f, 2))
dyadic_coeff = st.builds(qqi, float_part, float_part)
any_coeff = st.sampled_from([rational_coeff, dyadic_coeff])


@st.composite
def polys(draw, gens, coeff, max_degree, max_terms=9):
    """A nonzero polynomial in ``gens`` over QQ_I, built with sympy's own constructor."""
    monomial = st.tuples(*[st.integers(0, max_degree)] * len(gens))
    terms = draw(st.dictionaries(monomial, coeff, min_size=1, max_size=max_terms))
    f = sp.Poly.from_dict(terms, *gens, domain=QQ_I)
    return f if not f.is_zero else sp.Poly.from_dict({(0,) * len(gens): QQ_I.one},
                                                      *gens, domain=QQ_I)


@st.composite
def pairs(draw, gens, coeff, degree, factor_degree=0, max_terms=9):
    """(num, den) of exponents up to ``degree`` and at most ``max_terms`` terms, both
    times one common factor of exponents up to ``factor_degree`` when that is not 0."""
    num, den = (draw(polys(gens, coeff, degree, max_terms)) for _ in range(2))
    if not factor_degree:
        return num, den
    c = draw(polys(gens, coeff, factor_degree, max_terms=3).filter(lambda f: not f.is_ground))
    return num * c, den * c


@st.composite
def pairs_in_one_to_three_variables(draw, degree=3, max_terms=5):
    gens, coeff = GENS[:draw(st.integers(1, 3))], draw(any_coeff)
    return (draw(polys(gens, coeff, degree, max_terms)),
            draw(polys(gens, coeff, degree, max_terms)))


oracle_settings = settings(derandomize=True, max_examples=80, deadline=None)


def native(f):
    return from_sympy_poly(f)


@oracle_settings
@given(pairs_in_one_to_three_variables(), rational_coeff)
def test_ring_operations_are_sympys(pair, c):
    f, g = pair
    F, G = native(f), native(g)
    assert to_sympy_poly(F) == f
    assert F + G == native(f + g)
    assert F - G == native(f - g)
    assert (F - F).is_zero and F - F == native(f - f)
    assert -F == native(-f)
    assert F * G == native(f * g)
    assert F.mul_ground(from_qqi(c)) == native(f.mul_ground(c))
    assert F.LC() == from_qqi(f.rep.LC())


@oracle_settings
@given(pairs_in_one_to_three_variables())
def test_exact_quotient_is_sympys(pair):
    f, g = pair
    assert (native(f) * native(g)).exquo(native(g)) == native((f * g).exquo(g)) == native(f)


@oracle_settings
@given(pairs_in_one_to_three_variables(), st.integers(2, 4))
def test_diff_and_subst_power_are_sympys(pair, nu):
    f, _ = pair
    for k, gen in enumerate(f.gens):
        assert native(f).diff(k) == native(f.diff(gen))
        substituted = sp.Poly(f.as_expr().subs(gen, gen ** nu), *f.gens, domain=QQ_I)
        assert native(f).subst_power(k, nu) == native(substituted)


@oracle_settings
@given(any_coeff.flatmap(lambda c: st.tuples(polys((x,), c, 7), polys((x,), c, 3))))
def test_division_in_one_variable_is_sympys(pair):
    f, g = pair
    assert native(f).div(native(g)) == tuple(map(native, f.div(g)))


@oracle_settings
@given(pairs_in_one_to_three_variables(), rational_coeff, st.integers(0, 2))
def test_division_by_a_line_leaves_the_value_on_it(pair, c, var):
    f, _ = pair
    var = min(var, len(f.gens) - 1)
    line = branch_line(native(f).gens, var, from_qqi(c))
    q, r = native(f).div(line)
    value = sp.Poly(f.as_expr().subs(f.gens[var], QQ_I.to_sympy(c)), *f.gens, domain=QQ_I)
    assert r == native(value)
    assert q * line + r == native(f)
    if var == 0:
        assert (q, r) == tuple(map(native, f.div(to_sympy_poly(line))))


def test_the_prime_has_a_square_root_of_minus_one():
    assert sp.isprime(_P) and _P % 4 == 1
    assert _I_MOD_P * _I_MOD_P % _P == _P - 1


def test_a_leading_coefficient_the_prime_divides_defers_to_euclid():
    """The image of (x - 1)(p x + 1) mod p has degree 1, so the test proves nothing
    and Euclid finds the common factor; with x + 2 it finds none."""
    line = sp.Poly(x - 1, x, domain=QQ_I)
    den = line * sp.Poly(_P * x + 1, x, domain=QQ_I)
    for num, want in [(line, line), (sp.Poly(x + 2, x, domain=QQ_I), sp.Poly(1, x, domain=QQ_I))]:
        assert not _coprime_mod_p(native(num), native(den))
        assert _gcd(native(num), native(den)) == native(want)


@oracle_settings
@given(st.one_of(pairs_in_one_to_three_variables(degree=2, max_terms=4),
                 st.integers(1, 3).flatmap(lambda n: pairs(GENS[:n], rational_coeff, 2,
                                                           factor_degree=1))))
def test_normal_form_is_sympys(pair):
    num, den = pair
    f = RationalFunction(native(num), native(den))
    g = num.gcd(den)
    n, d = num.exquo(g), den.exquo(g)
    lc = d.LC()
    assert (f.num, f.den) == (native(n.quo_ground(lc)), native(d.quo_ground(lc)))


# -- scalars ---------------------------------------------------------------

parts = st.one_of(small_rat, float_part.map(Fraction),
                  st.fractions(max_denominator=10**12).filter(lambda q: abs(q) < 10**30))


def fraction_pair(z):
    return Fraction(z.re, z.den), Fraction(z.im, z.den)


def sympy_number(z):
    return sp.Rational(z.re, z.den) + sp.Rational(z.im, z.den) * sp.I


@settings(derandomize=True, max_examples=200, deadline=None)
@given(parts, parts, parts, parts)
def test_scalar_arithmetic_is_exact(a, b, c, d):
    u, v = gaussian(a, b), gaussian(c, d)
    assert fraction_pair(u) == (a, b)
    assert math.gcd(u.re, u.im, u.den) == 1 and u.den > 0
    assert fraction_pair(u + v) == (a + c, b + d)
    assert fraction_pair(u - v) == (a - c, b - d)
    assert fraction_pair(u * v) == (a * c - b * d, a * d + b * c)
    if c or d:
        n = c * c + d * d
        assert fraction_pair(u / v) == ((a * c + b * d) / n, (b * c - a * d) / n)
    assert (u == v) == ((a, b) == (c, d)) and (u == gaussian(a, b)) and bool(u) == bool(a or b)
    assert hash(u) == hash(gaussian(a, b))
    assert complex(u) == complex(float(a), float(b))
    assert str(u) == str(sp.Rational(a) + sp.Rational(b) * sp.I)


def test_an_integer_scalar_equals_and_hashes_as_its_int():
    assert gaussian(3) == 3 and hash(gaussian(3)) == hash(3) and 2 * gaussian(1, 1) == gaussian(2, 2)
    with pytest.raises(AttributeError):
        gaussian(1).re = 2


def test_sympy_numbers_are_read_without_as_real_imag(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("as_real_imag called")

    monkeypatch.setattr(sp.Expr, "as_real_imag", refuse)
    for value, want in [(sp.Integer(-3), gaussian(-3)), (sp.Rational(1, 3), gaussian(Fraction(1, 3))),
                        (sp.I, gaussian(0, 1)), (-sp.I / 2, gaussian(0, Fraction(-1, 2))),
                        (sp.Rational(1, 3) - 2 * sp.I / 7, gaussian(Fraction(1, 3), Fraction(-2, 7)))]:
        assert to_scalar(value) == (want, True)
    monkeypatch.undo()  # an inexact value goes through complex(), which calls it
    assert to_scalar(sp.Float(0.5)) == (gaussian(0.5), False)
    assert to_scalar(sp.sqrt(2) * sp.I) == (gaussian(0, 2 ** 0.5), False)


# -- what the benchmark's checker reads, against sympy's Poly ---------------


def sympy_entry(F, i, j):
    """Entry (i, j) of a Fuchsian system's connection, sum_k A_k[i][j] / (x - p_k), as
    the reduced numerator and monic denominator sympy builds."""
    xs = sp.Symbol("x")
    expr = sum((sympy_number(A[i][j]) / (xs - sympy_number(p))
                for A, p in zip(F.residues, F.poles)), sp.Integer(0))
    n, d = (sp.Poly(e, xs, domain=QQ_I) for e in sp.fraction(sp.cancel(sp.together(expr))))
    return n.quo_ground(d.LC()), d.monic()


def test_reconstructed_entries_answer_the_checker_as_sympy_polys_do(rng):
    """The exact_layer checker reads ``all_coeffs``, ``terms``, ``total_degree`` and
    ``is_zero`` of a round trip's entries; each must read as on a sympy ``Poly``."""
    seen_zero = False
    for _ in range(12):
        F = random_fuchsian(rng)
        conn = F.to_log_connection()
        back = reconstruct(projectivize(conn), trace_form(conn))
        for i in range(F.m):
            for j in range(F.m):
                f = back.entry(0, i, j)
                for got, want in zip((f.num, f.den), sympy_entry(F, i, j)):
                    assert got.all_coeffs() == want.all_coeffs()
                    assert got.terms() == want.terms()
                    assert got.total_degree() == want.total_degree()
                    assert got.is_zero == want.is_zero
                    seen_zero |= got.is_zero
    multi = LocalModel(2, [rational_matrix(rng, 2)] * 2, n=3).to_log_connection()
    f = multi.entry(1, 0, 0) * multi.entry(0, 1, 1) + multi.entry(2, 0, 1)
    for p in (f.num, f.den, multi.entry(2, 0, 0).num):
        want = to_sympy_poly(p)
        assert (p.terms(), p.total_degree(), p.is_zero) == \
            (want.terms(), want.total_degree(), want.is_zero)


# -- the fraction-reducing gcd, against sympy's ----------------------------

gcd_settings = settings(derandomize=True, max_examples=80, deadline=None)


def assert_gcd_is_sympys(num, den):
    assert _gcd(native(num), native(den)) == native(num.gcd(den).monic())


@gcd_settings
@given(st.sampled_from([rational_coeff, dyadic_coeff]).flatmap(lambda coeff: st.one_of(
    pairs((x,), coeff, 8), pairs((x,), coeff, 5, factor_degree=3))))
def test_gcd_in_one_variable_is_sympys(pair):
    assert_gcd_is_sympys(*pair)


@gcd_settings
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    polys((x, y, z)[:n], rational_coeff, 4, max_terms=5),
    polys((x, y, z)[:n], rational_coeff, 4, max_terms=1))))
def test_gcd_with_a_monomial_denominator_is_sympys(pair):
    num, den = pair
    assert den.is_monomial
    assert_gcd_is_sympys(num, den)


@gcd_settings
@given(st.one_of(pairs((x, y), rational_coeff, 2),
                 pairs((x, y), rational_coeff, 2, factor_degree=1)))
def test_gcd_in_several_variables_is_sympys(pair):
    assert_gcd_is_sympys(*pair)


@gcd_settings
@given(st.one_of(pairs((x, y), dyadic_coeff, 2), pairs((x, y), dyadic_coeff, 2, factor_degree=1),
                 any_coeff.flatmap(lambda coeff: st.one_of(
                     pairs((x, y, z), coeff, 2, max_terms=5),
                     pairs((x, y, z), coeff, 2, factor_degree=1, max_terms=5)))))
def test_gcd_in_three_variables_or_of_dyadic_coefficients_is_sympys(pair):
    # three-variable pairs have at most 5 terms, which keeps sympy's oracle quick
    assert_gcd_is_sympys(*pair)


@st.composite
def factors_in_one_variable(draw, gens, coeff):
    """A polynomial of degree 1 or 2 in one of ``gens``, or a product of two branch lines."""
    k = draw(st.integers(0, len(gens) - 1))
    terms = draw(st.dictionaries(st.integers(0, 2), coeff, min_size=1, max_size=3))
    f = sp.Poly.from_dict({tuple(d * (i == k) for i in range(len(gens))): c
                           for d, c in terms.items()}, *gens, domain=QQ_I)
    lines = sp.Poly((x - 1) * (y - 2), *gens, domain=QQ_I)
    return draw(st.sampled_from([lines, f])) if not f.is_ground else lines


@gcd_settings
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    pairs(GENS[:n], rational_coeff, 2), factors_in_one_variable(GENS[:n], rational_coeff))))
def test_gcd_with_a_factor_in_one_variable_is_sympys(pair_factor):
    (num, den), factor = pair_factor
    assert_gcd_is_sympys(num * factor, den * factor)


@gcd_settings
@given(st.sampled_from([rational_coeff, dyadic_coeff]).flatmap(lambda coeff: st.integers(
    1, 3).flatmap(lambda n: st.one_of(pairs(GENS[:n], coeff, 2, factor_degree=1),
                                      pairs(GENS[:n], coeff, 2, factor_degree=2)))))
def test_a_common_factor_is_never_proved_coprime(pair):
    assert not _coprime_mod_p(*map(native, pair))


def refuse(*args):
    raise AssertionError("a gcd algorithm ran")


def test_coprime_entries_in_two_variables_run_no_remainder_sequence(monkeypatch):
    """The entries (1/3)/(x - 1) and (1/5)/(y - 2) of a rank-1 connection with branches
    away from the origin are proved coprime modulo p, under every exact verb's work."""
    monkeypatch.setattr("logconnect.ratfunc._prs_gcd", refuse)
    doc = {"type": "log_connection", "rank": 1, "vars": ["x", "y"],
           "divisor": [{"var": 0, "value": [1, 0]}, {"var": 1, "value": [2, 0]}],
           "components": [[[{"num": {"0,0": ["1/3", 0]}, "den": {"1,0": [1, 0], "0,0": [-1, 0]}}]],
                          [[{"num": {"0,0": ["1/5", 0]}, "den": {"0,1": [1, 0], "0,0": [-2, 0]}}]]]}
    C = validate_schema(doc)
    assert flatness_check(C)
    projectivize(C)
    assert [residue(C, b).tolist() for b in range(2)] == [[[1 / 3]], [[0.2]]]
    for num, den in [(1, x * y - 2 * x - y + 2), (x + y, (x - 1) * (y - 2)),
                     (x * y * z + 1, (x - 1) * (y - 2) * (z + sp.I))]:
        num, den = (native(sp.Poly(e, *GENS, domain=QQ_I)) for e in (num, den))
        assert _gcd(num, den).is_one


def test_a_monomial_denominator_runs_no_gcd_algorithm(monkeypatch):
    monkeypatch.setattr("logconnect.ratfunc._prs_gcd", refuse)
    monkeypatch.setattr("logconnect.ratfunc._coprime_mod_p", refuse)
    monkeypatch.setattr("logconnect.ratfunc.Polynomial.div", refuse)
    for gens, num, den, want in [
        ((x,), 3 * x ** 4 + x ** 2, x ** 3, (3 * x ** 2 + 1, x)),
        ((x,), x + 1, x ** 2, (x + 1, x ** 2)),
        ((x, y), x ** 2 * y + 2 * x ** 3, 5 * x ** 2 * y ** 2, (y / 5 + 2 * x / 5, y ** 2)),
    ]:
        f = RationalFunction(*(native(sp.Poly(e, *gens, domain=QQ_I)) for e in (num, den)))
        assert (f.num, f.den) == tuple(native(sp.Poly(e, *gens, domain=QQ_I)) for e in want)


def test_division_of_a_long_sum_by_a_line():
    """1 + x + ... + x^(n-1) = (x - 1) (sum_j (n - 1 - j) x^j) + n, for an n at which
    rescanning the remainder for its leading term at every step would take seconds."""
    n = 20000
    q, r = from_terms({(k,): ONE for k in range(n)}, ("x",)).div(poly([-1, 1]))
    assert q == from_terms({(j,): gaussian(n - 1 - j) for j in range(n - 1)}, ("x",))
    assert r == poly([n])


def test_float_data_makes_its_system_compare_within_tolerance():
    # entries are pure values; the system holding them says whether the data was exact
    f = from_expr(0.5 * x + 0.1, (x,))  # 0.1 is held as its dyadic value
    g = from_expr(x / 2 + sp.Rational(1, 10), (x,))
    assert not hasattr(f, "exact") and f != g and (f - g).is_zero_within(1e-12)
    floats, exact = (LogConnection(1, ("x",), [], [[[h]]], exact=h is g) for h in (f, g))
    assert (floats.exact, exact.exact) == (False, True)
    assert floats.equals(exact) and exact.equals(floats)
    assert not exact.equals(LogConnection(1, ("x",), [], [[[f]]]))
    doc = {"type": "log_connection", "rank": 1, "vars": ["x"], "divisor": [],
           "components": [[[{"num": {"1": [0.5, 0], "0": [0.1, 0]}, "den": {"0": [1, 0]}}]]]}
    parsed = validate_schema(doc)
    assert not parsed.exact and parsed.entry(0, 0, 0) == f and parsed.equals(exact)


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


def exact_value(f, point):
    """f at a Gaussian-rational point, as (re, im) Fractions, in exact arithmetic.

    Coefficients are read through sympy expressions, independently of the
    library's numeric evaluator.
    """
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def value(poly):
        total = (Fraction(0), Fraction(0))
        for monom, c in to_sympy_poly(poly).as_dict().items():
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
